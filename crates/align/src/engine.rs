//! Tiered, vectorized alignment engine for the RR/CCD hot path.
//!
//! Every alignment consumer (redundancy-removal containment, CCD overlap,
//! the fault-tolerant leased CCD path, and the SPMD workers) goes through
//! [`AlignEngine`] instead of calling [`crate::local_affine`] directly. The
//! engine resolves each candidate pair through a cascade of tiers, cheapest
//! first, and is **verdict-identical to the reference criteria by
//! construction** — every screen is a proven bound, never a heuristic:
//!
//! * **Tier 0 — length screen.** A passing containment needs
//!   `positives ≥ min_similarity · min_coverage · |x|` and positive columns
//!   are at most `min(|x|, |y|)`, so short partners reject with zero DP
//!   cells. The overlap analogue bounds `min(|x|,|y|)` against
//!   `min_similarity · min_longer_coverage · max(|x|,|y|)`.
//! * **Tier 1 — score-only kernel.** A two-row affine kernel with a
//!   precomputed query profile and a SWAR inner loop (four i16 lanes packed
//!   into a `u64`; runtime-dispatched SSE2/AVX2 `std::arch` variants on
//!   x86_64, the portable SWAR kernel as the guaranteed-identical fallback)
//!   computes the exact Smith–Waterman optimum `S*` and the reference's
//!   argmax cell `(i*, j*)` (the *first* best cell in row-major order, the
//!   same tie-break as [`crate::local_affine`]). `S* == 0` always rejects
//!   (the reference returns an empty alignment). When the scheme admits a
//!   positive screen constant `κ = ms·p_min − (1−ms)·q_max > 0` (with
//!   `p_min` the smallest positive matrix entry and `q_max` the largest
//!   per-column penalty), any accepted pair satisfies `S* ≥ κ·mc·L`, so
//!   scores below that threshold reject without traceback. The reference
//!   alignment ends at `(i*, j*)`, so it spans at most `i*` residues of
//!   `x` (`j*` of `y`); pairs whose bound misses the coverage cutoff
//!   reject without traceback too.
//! * **Tier 2 — anchor probe.** Promising pairs carry the maximal-match
//!   coordinates mined by `suffix::maximal`. A gap-free x-drop extension
//!   along the anchor diagonal — widened on demand into a banded affine DP
//!   (half-widths 8 then 32) — yields a *lower bound* `L ≤ S*`. Lower
//!   bounds can only justify skipping tier 1 and promoting straight to the
//!   full-rectangle reference DP (tier 2 resolution); they never reject, so
//!   this tier is a pure scheduling heuristic with zero verdict impact.
//! * **Tier 3 — subrectangle traceback.** Pairs that pass the screens run
//!   the full-precision [`crate::local_affine_with`] on the *prefix
//!   rectangle* `x[..i*] × y[..j*]` only. DP values are prefix-local and
//!   row-major order on the subrectangle embeds in row-major order on the
//!   full matrix, so the truncated DP reproduces the reference's best cell,
//!   traceback, and statistics bit-for-bit while skipping every cell right
//!   of or below the optimum. Coverage is still measured against the full
//!   sequence lengths, exactly as the reference criteria do.
//!
//! All tiers share a per-worker [`AlignScratch`] arena (thread-local in the
//! convenience API), so the hot path performs no per-pair allocation.
//!
//! Batches ([`AlignEngine::plan_batch`], [`AlignEngine::verify_group`])
//! replace tiers 1–3 with the lockstep inter-pair kernel of
//! `crate::lockstep`: length-binned pairs fill their matrices together, one
//! pair per SIMD lane, and each lane's traceback replays the reference's.
//! The same screens apply; pairs the lanes cannot hold go through the
//! tiers above.

use std::cell::RefCell;

use pfam_seq::ScoringScheme;

use crate::alignment::{AlignStats, Alignment};
use crate::criteria::{is_contained, overlaps, ContainmentParams, OverlapParams};
use crate::global::{AffineMatrices, NEG_INF};
use crate::local::{local_affine_with, traceback_local};
use crate::lockstep::{
    self, LaneEnd, LaneKernel, LockstepArena, ScoreRows, MAX_GROUP_CELLS, MAX_LANES,
};

/// Reusable per-worker DP arena shared by the engine tiers and the
/// buffer-reuse alignment entry points (`local_affine_with`,
/// `global_affine_with`, `local_score_with`, `global_score_with`).
///
/// Buffers only ever grow; a worker thread that has processed one large
/// pair never allocates again for smaller ones.
pub struct AlignScratch {
    /// Full Gotoh H/E/F matrices for traceback-producing alignments.
    pub(crate) mat: AffineMatrices,
    /// Rolling H row for two-row score kernels (i32 exact path).
    pub(crate) row_h: Vec<i32>,
    /// Rolling F row for two-row score kernels (i32 exact path).
    pub(crate) row_f: Vec<i32>,
    /// Query profile: 21 rows of padded `y`-length i16 scores.
    prof: Vec<i16>,
    /// Previous-row H values for the vectorized kernel (padded, i16).
    vh: Vec<i16>,
    /// Current-row H′ values (pass A output, padded, i16).
    vhp: Vec<i16>,
    /// Current-row F values for the vectorized kernel (padded, i16).
    vf: Vec<i16>,
    /// Banded-probe H row (slot-indexed).
    band_h: Vec<i32>,
    /// Banded-probe F row (slot-indexed).
    band_f: Vec<i32>,
    /// Direction bytes and rows of the lockstep inter-pair kernel.
    lockstep: LockstepArena,
}

impl AlignScratch {
    /// An empty arena; buffers are sized lazily on first use.
    pub fn new() -> Self {
        AlignScratch {
            mat: AffineMatrices { w: 1, h: Vec::new(), e: Vec::new(), f: Vec::new() },
            row_h: Vec::new(),
            row_f: Vec::new(),
            prof: Vec::new(),
            vh: Vec::new(),
            vhp: Vec::new(),
            vf: Vec::new(),
            band_h: Vec::new(),
            band_f: Vec::new(),
            lockstep: LockstepArena::default(),
        }
    }
}

impl Default for AlignScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Which alignment engine the clustering phases use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlignEngineKind {
    /// The pre-engine baseline: full-matrix `local_affine` per pair.
    Reference,
    /// The tiered screen/kernel/subrectangle cascade (verdict-identical).
    #[default]
    Tiered,
}

impl AlignEngineKind {
    /// Stable lowercase label (`reference` / `tiered`) for configs & JSON.
    pub fn label(self) -> &'static str {
        match self {
            AlignEngineKind::Reference => "reference",
            AlignEngineKind::Tiered => "tiered",
        }
    }
}

/// Maximal-match seed coordinates for a promising pair: the match of
/// length `len` starts at `x_pos` in the first sequence and `y_pos` in the
/// second. Mined on the (possibly low-complexity-masked) index view, so the
/// coordinates are valid in the originals but the residues need not match
/// exactly there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anchor {
    /// Match start in the first (x) sequence.
    pub x_pos: u32,
    /// Match start in the second (y) sequence.
    pub y_pos: u32,
    /// Match length in residues.
    pub len: u32,
}

/// Outcome of one engine evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineVerdict {
    /// Accept (contained / overlapping) or reject — bit-identical to the
    /// reference criteria.
    pub accept: bool,
    /// Tier that resolved the pair: 0 length screen, 1 score screen,
    /// 2 anchor-promoted full DP, 3 subrectangle DP.
    pub tier: u8,
    /// DP cells actually evaluated across all tiers.
    pub cells_computed: u64,
    /// Full-matrix cells the final-precision DP avoided (`m·n` minus the
    /// rectangle actually traced; `m·n` for pairs rejected by a screen).
    pub cells_skipped: u64,
}

/// X-drop for the gap-free anchor-diagonal probe (tier 2). Heuristic only:
/// affects which tier resolves a pair, never the verdict.
const PROBE_XDROP: i32 = 25;
/// Band half-widths tried, in order, when the diagonal probe alone does not
/// justify promotion ("widen the band on demand").
const BAND_WIDTHS: [usize; 2] = [8, 32];
/// Floor used as "−∞" in the i16 vector kernels. Any value `< −gap_open`
/// behaves identically to the reference's `NEG_INF` in the first-row F
/// recurrence, and this one keeps every lane difference far from i16
/// overflow under [`vector_eligible`].
const F_FLOOR16: i16 = -4096;
/// Largest gap penalty / |matrix entry| admitted by the i16 vector path.
const MAX_PENALTY16: i32 = 2048;
/// Cap on `min(m,n) · max(1, max_score)` (an upper bound on any local
/// alignment score) for the i16 vector path; keeps all lane arithmetic and
/// lane differences within i16.
const MAX_SCORE16: i64 = 15_000;

thread_local! {
    static SCRATCH: RefCell<AlignScratch> = RefCell::new(AlignScratch::new());
}

/// Tiered alignment engine. Cheap to construct (precomputes matrix bounds
/// and picks a kernel once), plain data, `Sync` — build one per phase and
/// share it across worker threads.
pub struct AlignEngine {
    kind: AlignEngineKind,
    scheme: ScoringScheme,
    containment: ContainmentParams,
    overlap: OverlapParams,
    /// Smallest strictly positive substitution-matrix entry, if any.
    p_min: Option<i32>,
    /// Largest matrix entry (for the i16 eligibility guard).
    mat_max: i32,
    /// Smallest matrix entry (for the i16 eligibility guard).
    mat_min: i32,
    /// Largest per-column penalty `max(gap_open, gap_extend, −min_score, 0)`.
    q_max: i32,
    kernel: KernelKind,
    lane: LaneKernel,
    /// Lookup rows the lockstep kernel builds its profiles from.
    score_rows: ScoreRows,
}

/// Which tier-1 kernel implementation the engine dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(dead_code)] // which variants are constructed depends on the target
enum KernelKind {
    /// Exact i32 two-row scalar kernel (always available, always exact).
    Scalar,
    /// Portable SWAR: four i16 lanes in a u64.
    Swar,
    #[cfg(target_arch = "x86_64")]
    /// SSE2 `std::arch` pass (eight i16 lanes) — baseline on x86_64.
    Sse2,
    #[cfg(target_arch = "x86_64")]
    /// AVX2 `std::arch` pass (sixteen i16 lanes), runtime-detected.
    Avx2,
}

impl KernelKind {
    fn detect() -> KernelKind {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                KernelKind::Avx2
            } else {
                // SSE2 is architecturally guaranteed on x86_64.
                KernelKind::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        KernelKind::Swar
    }

    /// The lockstep lane kernel matching this instruction set.
    fn lane_kernel(self) -> LaneKernel {
        match self {
            KernelKind::Scalar | KernelKind::Swar => LaneKernel::Portable,
            #[cfg(target_arch = "x86_64")]
            KernelKind::Sse2 => LaneKernel::Sse2,
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => LaneKernel::Avx2,
        }
    }

    fn label(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Swar => "swar",
            #[cfg(target_arch = "x86_64")]
            KernelKind::Sse2 => "sse2",
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => "avx2",
        }
    }
}

impl AlignEngine {
    /// Build an engine for the given scheme and acceptance parameters.
    pub fn new(
        kind: AlignEngineKind,
        scheme: ScoringScheme,
        containment: ContainmentParams,
        overlap: OverlapParams,
    ) -> AlignEngine {
        let (mut p_min, mut mat_max, mut mat_min) = (None, i32::MIN, i32::MAX);
        for a in 0..pfam_seq::ALPHABET_SIZE as u8 {
            for b in 0..pfam_seq::ALPHABET_SIZE as u8 {
                let s = scheme.matrix.score_codes(a, b);
                mat_max = mat_max.max(s);
                mat_min = mat_min.min(s);
                if s > 0 && p_min.is_none_or(|p| s < p) {
                    p_min = Some(s);
                }
            }
        }
        let q_max = scheme.gap_open.max(scheme.gap_extend).max(-mat_min).max(0);
        let kernel = KernelKind::detect();
        let score_rows = ScoreRows::new(&scheme.matrix);
        AlignEngine {
            kind,
            scheme,
            containment,
            overlap,
            p_min,
            mat_max,
            mat_min,
            q_max,
            kernel,
            lane: kernel.lane_kernel(),
            score_rows,
        }
    }

    /// This engine with the lockstep lane kernel `label` (one of
    /// [`available_lane_kernels`]) instead of the detected one — for
    /// equivalence tests and benches.
    ///
    /// # Panics
    /// If `label` is not available on this host.
    pub fn with_lane_kernel(mut self, label: &str) -> AlignEngine {
        self.lane = match label {
            "portable" => LaneKernel::Portable,
            #[cfg(target_arch = "x86_64")]
            "sse2" => LaneKernel::Sse2,
            #[cfg(target_arch = "x86_64")]
            "avx2" if std::arch::is_x86_feature_detected!("avx2") => LaneKernel::Avx2,
            _ => panic!("lane kernel {label:?} is not available on this host"),
        };
        self
    }

    /// Pairs one lockstep pass verifies together: 16 (AVX2), 8 (SSE2 or
    /// portable), or 1 for the reference engine, which never batches.
    pub fn lanes(&self) -> usize {
        match self.kind {
            AlignEngineKind::Reference => 1,
            AlignEngineKind::Tiered => self.lane.lanes(),
        }
    }

    /// Which engine variant this is.
    pub fn kind(&self) -> AlignEngineKind {
        self.kind
    }

    /// Label of the tier-1 kernel the engine dispatches to on this host
    /// (`scalar`, `swar`, `sse2`, or `avx2`) — for bench reports.
    pub fn kernel_label(&self) -> &'static str {
        self.kernel.label()
    }

    /// Definition-1 containment: is `x` redundant with respect to `y`?
    /// Uses a thread-local scratch arena.
    pub fn contained(&self, x: &[u8], y: &[u8], anchor: Option<Anchor>) -> EngineVerdict {
        SCRATCH.with(|s| self.contained_with(x, y, anchor, &mut s.borrow_mut()))
    }

    /// Definition-2 overlap between `x` and `y`. Uses a thread-local
    /// scratch arena.
    pub fn overlaps(&self, x: &[u8], y: &[u8], anchor: Option<Anchor>) -> EngineVerdict {
        SCRATCH.with(|s| self.overlaps_with(x, y, anchor, &mut s.borrow_mut()))
    }

    /// [`Self::contained`] with an explicit scratch arena.
    pub fn contained_with(
        &self,
        x: &[u8],
        y: &[u8],
        anchor: Option<Anchor>,
        scratch: &mut AlignScratch,
    ) -> EngineVerdict {
        self.run(x, y, anchor, scratch, Criterion::Containment)
    }

    /// [`Self::overlaps`] with an explicit scratch arena.
    pub fn overlaps_with(
        &self,
        x: &[u8],
        y: &[u8],
        anchor: Option<Anchor>,
        scratch: &mut AlignScratch,
    ) -> EngineVerdict {
        self.run(x, y, anchor, scratch, Criterion::Overlap)
    }

    /// Split a batch of pair shapes `(|x|, |y|)` into dispatch units of at
    /// most [`Self::lanes`] pairs each (indices into `shapes`). The pairs
    /// the lockstep kernel takes are binned by shape along a Z-order curve
    /// so that a lane group's padded rectangle stays close to its members';
    /// the rest (length-screened, not vector-eligible, or every pair of the
    /// reference engine) follow in input order. Verdicts do not depend on
    /// the split: feed each unit to [`Self::verify_group`].
    pub fn plan_batch(&self, mode: Criterion, shapes: &[(usize, usize)]) -> Vec<Vec<u32>> {
        let (mut lock, rest): (Vec<u32>, Vec<u32>) = (0..shapes.len() as u32).partition(|&k| {
            let (m, n) = shapes[k as usize];
            self.takes_lockstep(mode, m, n)
        });
        lock.sort_by_key(|&k| (z_order(shapes[k as usize]), k));
        let mut units = self.pack_groups(&lock, |k| shapes[k as usize]);
        units.extend(rest.chunks(self.lanes()).map(<[u32]>::to_vec));
        units
    }

    /// Verify a batch sequentially: [`Self::plan_batch`], then
    /// [`Self::verify_group`] per unit, verdicts back in input order.
    pub fn verify_batch(
        &self,
        mode: Criterion,
        pairs: &[(&[u8], &[u8], Option<Anchor>)],
    ) -> Vec<EngineVerdict> {
        let shapes: Vec<(usize, usize)> = pairs.iter().map(|p| (p.0.len(), p.1.len())).collect();
        let mut out = vec![reject(0, 0, 0); pairs.len()];
        for unit in self.plan_batch(mode, &shapes) {
            let members: Vec<_> = unit.iter().map(|&k| pairs[k as usize]).collect();
            for (&k, v) in unit.iter().zip(self.verify_group(mode, &members)) {
                out[k as usize] = v;
            }
        }
        out
    }

    /// Verify `pairs` (normally one [`Self::plan_batch`] unit) with the
    /// thread-local scratch arena, returning verdicts in input order. Pairs
    /// the lockstep kernel takes are packed, in order, into lane groups and
    /// filled together; every verdict is the reference criterion's:
    ///
    /// * a lane whose optimum is 0, below the κ screen threshold, or too
    ///   close to the sequence starts to reach the coverage cutoff rejects
    ///   at tier 1, as on the per-pair path (`m·n` cells computed and
    ///   skipped);
    /// * any other lane traces back over its direction bytes — the
    ///   reference alignment — and is judged at tier 3 (`m·n` computed,
    ///   none skipped). Padding is never counted.
    ///
    /// Length-screened pairs, pairs that fail the i16 eligibility guard,
    /// and a lane group left with a single pair go through the per-pair
    /// tiers, as does everything on the reference engine.
    pub fn verify_group(
        &self,
        mode: Criterion,
        pairs: &[(&[u8], &[u8], Option<Anchor>)],
    ) -> Vec<EngineVerdict> {
        SCRATCH.with(|s| self.verify_group_with(mode, pairs, &mut s.borrow_mut()))
    }

    fn verify_group_with(
        &self,
        mode: Criterion,
        pairs: &[(&[u8], &[u8], Option<Anchor>)],
        scratch: &mut AlignScratch,
    ) -> Vec<EngineVerdict> {
        let mut out = vec![reject(0, 0, 0); pairs.len()];
        let mut lock = Vec::new();
        for (k, &(x, y, anchor)) in pairs.iter().enumerate() {
            if self.takes_lockstep(mode, x.len(), y.len()) {
                lock.push(k);
            } else {
                out[k] = self.run(x, y, anchor, scratch, mode);
            }
        }
        for group in self.pack_groups(&lock, |k| (pairs[k].0.len(), pairs[k].1.len())) {
            if let [k] = group[..] {
                out[k] = self.run(pairs[k].0, pairs[k].1, pairs[k].2, scratch, mode);
                continue;
            }
            let mut xy: [(&[u8], &[u8]); MAX_LANES] = [(&[], &[]); MAX_LANES];
            for (slot, &k) in xy.iter_mut().zip(&group) {
                *slot = (pairs[k].0, pairs[k].1);
            }
            let xy = &xy[..group.len()];
            let ends = lockstep::fill(
                self.lane,
                xy,
                &self.scheme,
                &self.score_rows,
                &mut scratch.lockstep,
            );
            for (lane, (&k, &(x, y))) in group.iter().zip(xy).enumerate() {
                let (m, n) = (x.len(), y.len());
                let full = m as u64 * n as u64;
                let LaneEnd { best, bi, bj } = ends[lane];
                let below =
                    self.score_threshold(mode, m, n).is_some_and(|t| (best as f64) + 1e-9 < t);
                out[k] = if best == 0 || below || self.end_screen_rejects(mode, m, n, bi, bj) {
                    reject(1, full, full)
                } else {
                    let aln = lockstep::traceback(&scratch.lockstep, lane, ends[lane]);
                    let st = aln.stats(x, y, &self.scheme.matrix);
                    let accept = self.accepts(mode, &st, m, n);
                    EngineVerdict { accept, tier: 3, cells_computed: full, cells_skipped: 0 }
                };
            }
        }
        out
    }

    /// Does an `m × n` pair go to the lockstep kernel? It must survive the
    /// tier-0 screen, meet the i16 eligibility guard, and keep its lane
    /// coordinates and rectangle within the kernel's bounds.
    fn takes_lockstep(&self, mode: Criterion, m: usize, n: usize) -> bool {
        self.kind == AlignEngineKind::Tiered
            && !self.screen_rejects(mode, m, n)
            && m.max(n) < i16::MAX as usize
            && m * n <= MAX_GROUP_CELLS
            && vector_eligible(&self.scheme, self.mat_max, self.mat_min, m, n)
    }

    /// Greedily cut `items` (in order) into lane groups: at most
    /// [`Self::lanes`] pairs and a padded rectangle of at most
    /// `MAX_GROUP_CELLS` cells each.
    fn pack_groups<T: Copy>(
        &self,
        items: &[T],
        shape: impl Fn(T) -> (usize, usize),
    ) -> Vec<Vec<T>> {
        let mut groups: Vec<Vec<T>> = Vec::new();
        let (mut rows, mut cols) = (0usize, 0usize);
        for &item in items {
            let (m, n) = shape(item);
            let open = groups.last().is_some_and(|g| {
                g.len() < self.lanes() && rows.max(m) * cols.max(n) <= MAX_GROUP_CELLS
            });
            if open {
                rows = rows.max(m);
                cols = cols.max(n);
                groups.last_mut().expect("an open group exists").push(item);
            } else {
                (rows, cols) = (m, n);
                groups.push(vec![item]);
            }
        }
        groups
    }

    fn run(
        &self,
        x: &[u8],
        y: &[u8],
        anchor: Option<Anchor>,
        scratch: &mut AlignScratch,
        mode: Criterion,
    ) -> EngineVerdict {
        let (m, n) = (x.len(), y.len());
        let full = m as u64 * n as u64;
        if self.kind == AlignEngineKind::Reference {
            let accept = match mode {
                Criterion::Containment => is_contained(x, y, &self.scheme, &self.containment),
                Criterion::Overlap => overlaps(x, y, &self.scheme, &self.overlap),
            };
            return EngineVerdict { accept, tier: 3, cells_computed: full, cells_skipped: 0 };
        }

        // Tier 0: proven length screens (and the criteria's empty-input
        // rejections, which they apply before any DP).
        if self.screen_rejects(mode, m, n) {
            return reject(0, 0, full);
        }
        let (ms, mc) = self.cutoffs(mode);

        // Score threshold every accepted pair provably clears (None when the
        // scheme admits no positive κ — e.g. overlap at default parameters).
        let threshold = self.score_threshold(mode, m, n);

        // Tier 2: anchor-seeded lower-bound probe → possible promotion
        // straight to the full-rectangle reference DP.
        let mut probed: u64 = 0;
        if let Some(a) = anchor {
            let (xs, ys, alen) = (a.x_pos as usize, a.y_pos as usize, a.len as usize);
            if alen > 0 && xs + alen <= m && ys + alen <= n {
                let promote_at = match mode {
                    // Promotion pays off only when the subrectangle would
                    // not be much smaller than the full matrix, i.e. the
                    // sequences have similar lengths.
                    Criterion::Containment => {
                        if 4 * m.min(n) >= 3 * m.max(n) {
                            threshold.unwrap_or(1.0).max(1.0)
                        } else {
                            f64::INFINITY
                        }
                    }
                    Criterion::Overlap => {
                        (self.p_min.unwrap_or(1) as f64 * ms * mc * m.max(n) as f64).max(1.0)
                    }
                };
                if promote_at.is_finite() {
                    let (mut lb, cells) = self.diag_probe(x, y, xs, ys, alen);
                    probed += cells;
                    if (lb as f64) + 1e-9 < promote_at {
                        // Widen the band on demand: the gap-free probe missed
                        // the threshold; try banded affine lower bounds.
                        let d0 = ys as isize - xs as isize;
                        for w in BAND_WIDTHS {
                            if (2 * w + 1) * 2 >= n {
                                break; // band no cheaper than the kernel
                            }
                            let (bscore, bcells) = self.banded_probe(x, y, d0, w, scratch);
                            probed += bcells;
                            lb = lb.max(bscore);
                            if (lb as f64) + 1e-9 >= promote_at {
                                break;
                            }
                        }
                    }
                    if lb > 0 && (lb as f64) + 1e-9 >= promote_at {
                        // S* ≥ lb ≥ threshold: the score screens cannot
                        // reject, so resolve with the reference DP directly.
                        let accept = self.full_check(x, y, scratch, mode);
                        return EngineVerdict {
                            accept,
                            tier: 2,
                            cells_computed: probed + full,
                            cells_skipped: 0,
                        };
                    }
                }
            }
        }

        // Tier 1: exact score + reference argmax cell.
        let (s, bi, bj) = self.score_ends(x, y, scratch);
        let computed = probed + full;
        if s == 0 {
            // Reference returns the empty alignment → both criteria reject.
            return reject(1, computed, full);
        }
        if let Some(t) = threshold {
            if (s as f64) + 1e-9 < t {
                return reject(1, computed, full);
            }
        }
        if self.end_screen_rejects(mode, m, n, bi, bj) {
            return reject(1, computed, full);
        }

        // Tier 3: full-precision DP on the prefix subrectangle that contains
        // the reference optimum and traceback.
        let sub = bi as u64 * bj as u64;
        let aln = self.local_affine_exact(&x[..bi], &y[..bj], scratch);
        debug_assert_eq!(aln.score, s, "subrectangle DP must reproduce the kernel score");
        let st = aln.stats(&x[..bi], &y[..bj], &self.scheme.matrix);
        let accept = self.accepts(mode, &st, m, n);
        EngineVerdict { accept, tier: 3, cells_computed: computed + sub, cells_skipped: full - sub }
    }

    /// `(min_similarity, coverage cutoff)` of `mode`'s criterion.
    fn cutoffs(&self, mode: Criterion) -> (f64, f64) {
        match mode {
            Criterion::Containment => {
                (self.containment.min_similarity, self.containment.min_coverage)
            }
            Criterion::Overlap => (self.overlap.min_similarity, self.overlap.min_longer_coverage),
        }
    }

    /// Tier 0: does a proven length bound (or an empty input) reject an
    /// `m × n` pair before any DP?
    fn screen_rejects(&self, mode: Criterion, m: usize, n: usize) -> bool {
        if m == 0 || n == 0 {
            return true;
        }
        let (ms, mc) = self.cutoffs(mode);
        let floor = match mode {
            // positives ≤ min(m,n) and accept ⇒ positives ≥ ms·mc·m.
            Criterion::Containment => ms * mc * m as f64,
            // accept ⇒ positives ≥ ms·mc·max(m,n).
            Criterion::Overlap => ms * mc * m.max(n) as f64,
        };
        (m.min(n) as f64) + 1e-9 < floor
    }

    /// Tier 1, from the optimum's cell: the reference alignment ends at
    /// `(i*, j*)`, so it spans at most `i*` residues of `x` and `j*` of
    /// `y`. Rejects when that bound already misses the coverage cutoff.
    fn end_screen_rejects(
        &self,
        mode: Criterion,
        m: usize,
        n: usize,
        bi: usize,
        bj: usize,
    ) -> bool {
        let (_, mc) = self.cutoffs(mode);
        let (span, len) = match mode {
            Criterion::Containment => (bi, m),
            Criterion::Overlap if m >= n => (bi, m),
            Criterion::Overlap => (bj, n),
        };
        (span as f64 / len as f64) < mc
    }

    /// The reference criterion applied to the statistics of the reference
    /// alignment of an `m × n` pair (coverage against the full lengths).
    fn accepts(&self, mode: Criterion, st: &AlignStats, m: usize, n: usize) -> bool {
        let (ms, mc) = self.cutoffs(mode);
        let (span, len) = match mode {
            Criterion::Containment => (st.x_span, m),
            Criterion::Overlap if m >= n => (st.x_span, m),
            Criterion::Overlap => (st.y_span, n),
        };
        st.similarity() >= ms && st.coverage_of(span, len) >= mc
    }

    /// `κ·mc·L` screen threshold: every accepted pair has `S* ≥` this.
    /// `None` when `κ ≤ 0` (the screen would be vacuous).
    fn score_threshold(&self, mode: Criterion, m: usize, n: usize) -> Option<f64> {
        let p_min = self.p_min? as f64;
        let (ms, mc) = self.cutoffs(mode);
        let l = match mode {
            Criterion::Containment => m,
            Criterion::Overlap => m.max(n),
        };
        let kappa = ms * p_min - (1.0 - ms) * self.q_max as f64;
        if kappa > 0.0 {
            Some(kappa * mc * l as f64)
        } else {
            None
        }
    }

    /// Full-rectangle reference check with the scratch arena (tier-2
    /// resolution after promotion) — verdict-identical: the alignment it
    /// evaluates is bit-for-bit the reference one (see
    /// [`Self::local_affine_exact`]).
    fn full_check(&self, x: &[u8], y: &[u8], scratch: &mut AlignScratch, mode: Criterion) -> bool {
        let aln = self.local_affine_exact(x, y, scratch);
        if aln.is_empty() {
            return false;
        }
        let st = aln.stats(x, y, &self.scheme.matrix);
        self.accepts(mode, &st, x.len(), y.len())
    }

    /// Gap-free x-drop extension of the anchor along its diagonal. The
    /// returned value is the score of an actual (substitution-only) local
    /// alignment, hence a lower bound on `S*`; clamped at 0.
    fn diag_probe(&self, x: &[u8], y: &[u8], xs: usize, ys: usize, len: usize) -> (i32, u64) {
        let matrix = &self.scheme.matrix;
        let mut seed = 0i32;
        for k in 0..len {
            seed += matrix.score_codes(x[xs + k], y[ys + k]);
        }
        let mut cells = len as u64;
        // Right extension.
        let (mut run, mut best_r) = (0i32, 0i32);
        let (mut i, mut j) = (xs + len, ys + len);
        while i < x.len() && j < y.len() {
            run += matrix.score_codes(x[i], y[j]);
            cells += 1;
            best_r = best_r.max(run);
            if run < best_r - PROBE_XDROP {
                break;
            }
            i += 1;
            j += 1;
        }
        // Left extension.
        let (mut run, mut best_l) = (0i32, 0i32);
        let (mut i, mut j) = (xs, ys);
        while i > 0 && j > 0 {
            i -= 1;
            j -= 1;
            run += matrix.score_codes(x[i], y[j]);
            cells += 1;
            best_l = best_l.max(run);
            if run < best_l - PROBE_XDROP {
                break;
            }
        }
        ((seed + best_r + best_l).max(0), cells)
    }

    /// Banded affine local DP confined to diagonals `[d0−w, d0+w]`. Every
    /// path it scores is a legal local alignment, so the maximum is a lower
    /// bound on `S*`. Slot `s` of row `i` holds column `j = i + d0 − w + s`.
    fn banded_probe(
        &self,
        x: &[u8],
        y: &[u8],
        d0: isize,
        w: usize,
        scratch: &mut AlignScratch,
    ) -> (i32, u64) {
        let (m, n) = (x.len() as isize, y.len() as isize);
        let slots = 2 * w + 1;
        let (open, ext) = (self.scheme.gap_open, self.scheme.gap_extend);
        let bh = &mut scratch.band_h;
        let bf = &mut scratch.band_f;
        bh.clear();
        bf.clear();
        // Row 0: H(0, j) = 0 for valid j, −∞ outside.
        for s in 0..slots {
            let j = d0 - w as isize + s as isize;
            bh.push(if (0..=n).contains(&j) { 0 } else { NEG_INF });
            bf.push(NEG_INF);
        }
        let mut best = 0i32;
        let mut cells = 0u64;
        for i in 1..=m {
            let xi = x[i as usize - 1];
            let mut e = NEG_INF;
            let mut left_h = NEG_INF; // H(i, j−1) within this row's band
                                      // Diagonal (i−1, j−1) sits at the same slot of the previous row;
                                      // vertical (i−1, j) at slot s+1. Sweep s ascending, rewriting
                                      // bh/bf in place: bh[s] still holds row i−1 when we visit s.
            for s in 0..slots {
                let j = i + d0 - w as isize + s as isize;
                let hdiag = bh[s];
                let hup = if s + 1 < slots { bh[s + 1] } else { NEG_INF };
                let fup = if s + 1 < slots { bf[s + 1] } else { NEG_INF };
                if j < 1 || j > n {
                    bh[s] = if j == 0 { 0 } else { NEG_INF };
                    bf[s] = NEG_INF;
                    left_h = bh[s];
                    continue;
                }
                cells += 1;
                let fv = (hup - open).max(fup - ext);
                let lh = if j == 1 { 0 } else { left_h };
                e = (lh - open).max(e - ext);
                let sv = hdiag + self.scheme.matrix.score_codes(xi, y[j as usize - 1]);
                let hv = sv.max(e).max(fv).max(0);
                bh[s] = hv;
                bf[s] = fv;
                left_h = hv;
                best = best.max(hv);
            }
        }
        (best, cells)
    }

    /// Exact Smith–Waterman optimum and the reference's first-best cell
    /// `(i*, j*)` (1-based), dispatching to the fastest eligible kernel.
    fn score_ends(&self, x: &[u8], y: &[u8], scratch: &mut AlignScratch) -> (i32, usize, usize) {
        if x.is_empty() || y.is_empty() {
            return (0, 0, 0);
        }
        if !vector_eligible(&self.scheme, self.mat_max, self.mat_min, x.len(), y.len()) {
            return score_ends_scalar(x, y, &self.scheme, scratch);
        }
        match self.kernel {
            KernelKind::Scalar => score_ends_scalar(x, y, &self.scheme, scratch),
            KernelKind::Swar => score_ends_vector(x, y, &self.scheme, scratch, pass_a_swar),
            #[cfg(target_arch = "x86_64")]
            KernelKind::Sse2 => {
                score_ends_vector(x, y, &self.scheme, scratch, |h, f, hp, p, o, e| {
                    // SAFETY: SSE2 is architecturally guaranteed on x86_64.
                    unsafe { x86::pass_a_sse2(h, f, hp, p, o, e) }
                })
            }
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => {
                score_ends_vector(x, y, &self.scheme, scratch, |h, f, hp, p, o, e| {
                    // SAFETY: constructed only when AVX2 was runtime-detected.
                    unsafe { x86::pass_a_avx2(h, f, hp, p, o, e) }
                })
            }
        }
    }

    /// Reference-identical full-traceback local alignment. When the pair
    /// is vector-eligible, the H/E/F matrices are filled by the two-pass
    /// vectorized kernel — every stored value provably equals the scalar
    /// fill's (see [`fill_mat_vector`]) — and the reference traceback runs
    /// on them unchanged. Otherwise (or on the scalar kernel) this *is*
    /// [`crate::local_affine_with`]. Bit-identical output either way.
    fn local_affine_exact(&self, x: &[u8], y: &[u8], scratch: &mut AlignScratch) -> Alignment {
        if x.is_empty()
            || y.is_empty()
            || !vector_eligible(&self.scheme, self.mat_max, self.mat_min, x.len(), y.len())
        {
            return local_affine_with(x, y, &self.scheme, scratch);
        }
        let (best, best_at) = match self.kernel {
            KernelKind::Scalar => return local_affine_with(x, y, &self.scheme, scratch),
            KernelKind::Swar => fill_mat_vector(x, y, &self.scheme, scratch, pass_a_swar),
            #[cfg(target_arch = "x86_64")]
            KernelKind::Sse2 => {
                fill_mat_vector(x, y, &self.scheme, scratch, |h, f, hp, p, o, e| {
                    // SAFETY: SSE2 is architecturally guaranteed on x86_64.
                    unsafe { x86::pass_a_sse2(h, f, hp, p, o, e) }
                })
            }
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => {
                fill_mat_vector(x, y, &self.scheme, scratch, |h, f, hp, p, o, e| {
                    // SAFETY: constructed only when AVX2 was runtime-detected.
                    unsafe { x86::pass_a_avx2(h, f, hp, p, o, e) }
                })
            }
        };
        if best == 0 {
            return Alignment { score: 0, ops: Vec::new(), x_range: (0, 0), y_range: (0, 0) };
        }
        traceback_local(x, y, &self.scheme, &scratch.mat, best, best_at)
    }
}

/// Which acceptance test a verification applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Definition 1: is `x` contained in `y` ([`is_contained`])?
    Containment,
    /// Definition 2: do `x` and `y` overlap ([`overlaps`])?
    Overlap,
}

/// Interleave the bits of `(m, n)` (each below 2¹⁶): sorting by this key
/// walks shapes along a Z-order curve, so neighbours are close in both
/// dimensions.
fn z_order((m, n): (usize, usize)) -> u32 {
    fn spread(v: usize) -> u32 {
        let mut v = v as u32 & 0xFFFF;
        v = (v | v << 8) & 0x00FF_00FF;
        v = (v | v << 4) & 0x0F0F_0F0F;
        v = (v | v << 2) & 0x3333_3333;
        (v | v << 1) & 0x5555_5555
    }
    spread(m) << 1 | spread(n)
}

#[inline]
fn reject(tier: u8, cells_computed: u64, full: u64) -> EngineVerdict {
    EngineVerdict { accept: false, tier, cells_computed, cells_skipped: full }
}

/// May the i16 vector kernels run on this (scheme, pair)? The guard keeps
/// every lane value and every lane *difference* strictly inside i16, which
/// makes the wrapping SWAR arithmetic and the sign-of-difference max exact.
fn vector_eligible(scheme: &ScoringScheme, mat_max: i32, mat_min: i32, m: usize, n: usize) -> bool {
    scheme.gap_open >= scheme.gap_extend
        && scheme.gap_extend >= 0
        && scheme.gap_open <= MAX_PENALTY16
        && mat_max <= MAX_PENALTY16
        && mat_min >= -MAX_PENALTY16
        && (m.min(n) as i64) * (mat_max.max(1) as i64) <= MAX_SCORE16
}

/// Exact i32 two-row kernel: the reference fill loop of
/// [`crate::local_affine`] minus storage and traceback, with identical
/// strict-`>` row-major argmax tracking. Returns `(S*, i*, j*)`, 1-based.
pub fn local_score_ends_scalar(
    x: &[u8],
    y: &[u8],
    scheme: &ScoringScheme,
    scratch: &mut AlignScratch,
) -> (i32, usize, usize) {
    score_ends_scalar(x, y, scheme, scratch)
}

fn score_ends_scalar(
    x: &[u8],
    y: &[u8],
    scheme: &ScoringScheme,
    scratch: &mut AlignScratch,
) -> (i32, usize, usize) {
    let (m, n) = (x.len(), y.len());
    let h = &mut scratch.row_h;
    h.clear();
    h.resize(n + 1, 0);
    let f = &mut scratch.row_f;
    f.clear();
    f.resize(n + 1, NEG_INF);
    let mut best = 0i32;
    let (mut bi, mut bj) = (0usize, 0usize);
    for i in 1..=m {
        let xi = x[i - 1];
        let mut diag = h[0];
        let mut e = NEG_INF;
        for j in 1..=n {
            e = (h[j - 1] - scheme.gap_open).max(e - scheme.gap_extend);
            f[j] = (h[j] - scheme.gap_open).max(f[j] - scheme.gap_extend);
            let s = diag + scheme.matrix.score_codes(xi, y[j - 1]);
            diag = h[j];
            let hv = s.max(e).max(f[j]).max(0);
            h[j] = hv;
            if hv > best {
                best = hv;
                bi = i;
                bj = j;
            }
        }
    }
    (best, bi, bj)
}

/// Portable SWAR kernel entry point: vectorized when the (scheme, pair) is
/// eligible, exact scalar otherwise — results are identical either way.
pub fn local_score_ends_swar(
    x: &[u8],
    y: &[u8],
    scheme: &ScoringScheme,
    scratch: &mut AlignScratch,
) -> (i32, usize, usize) {
    let (mat_max, mat_min) = matrix_bounds(scheme);
    if x.is_empty() || y.is_empty() || !vector_eligible(scheme, mat_max, mat_min, x.len(), y.len())
    {
        return score_ends_scalar(x, y, scheme, scratch);
    }
    score_ends_vector(x, y, scheme, scratch, pass_a_swar)
}

/// Runtime-dispatched kernel entry point (what a [`AlignEngine::new`]
/// engine uses): AVX2 → SSE2 → SWAR → scalar, all bit-identical.
pub fn local_score_ends(
    x: &[u8],
    y: &[u8],
    scheme: &ScoringScheme,
    scratch: &mut AlignScratch,
) -> (i32, usize, usize) {
    let engine = AlignEngine::new(
        AlignEngineKind::Tiered,
        scheme.clone(),
        ContainmentParams::default(),
        OverlapParams::default(),
    );
    engine.score_ends(x, y, scratch)
}

/// Every lockstep lane kernel available on this host (for
/// [`AlignEngine::with_lane_kernel`]): `portable` always, `sse2` on
/// x86_64, `avx2` when detected.
pub fn available_lane_kernels() -> Vec<&'static str> {
    let mut v = vec!["portable"];
    #[cfg(target_arch = "x86_64")]
    {
        v.push("sse2");
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push("avx2");
        }
    }
    v
}

/// Signature shared by all public kernel entry points.
pub type ScoreEndsFn = fn(&[u8], &[u8], &ScoringScheme, &mut AlignScratch) -> (i32, usize, usize);

/// Every kernel available on this host, labelled — for equivalence tests
/// and benches. The scalar kernel is always first.
pub fn available_kernels() -> Vec<(&'static str, ScoreEndsFn)> {
    let mut v: Vec<(&'static str, ScoreEndsFn)> =
        vec![("scalar", local_score_ends_scalar), ("swar", local_score_ends_swar)];
    #[cfg(target_arch = "x86_64")]
    {
        v.push(("sse2", local_score_ends_sse2));
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(("avx2", local_score_ends_avx2));
        }
    }
    v
}

fn matrix_bounds(scheme: &ScoringScheme) -> (i32, i32) {
    let (mut mat_max, mut mat_min) = (i32::MIN, i32::MAX);
    for a in 0..pfam_seq::ALPHABET_SIZE as u8 {
        for b in 0..pfam_seq::ALPHABET_SIZE as u8 {
            let s = scheme.matrix.score_codes(a, b);
            mat_max = mat_max.max(s);
            mat_min = mat_min.min(s);
        }
    }
    (mat_max, mat_min)
}

#[cfg(target_arch = "x86_64")]
/// SSE2 kernel entry point (scalar fallback when ineligible).
pub fn local_score_ends_sse2(
    x: &[u8],
    y: &[u8],
    scheme: &ScoringScheme,
    scratch: &mut AlignScratch,
) -> (i32, usize, usize) {
    let (mat_max, mat_min) = matrix_bounds(scheme);
    if x.is_empty() || y.is_empty() || !vector_eligible(scheme, mat_max, mat_min, x.len(), y.len())
    {
        return score_ends_scalar(x, y, scheme, scratch);
    }
    score_ends_vector(x, y, scheme, scratch, |h, f, hp, p, o, e| {
        // SAFETY: SSE2 is architecturally guaranteed on x86_64.
        unsafe { x86::pass_a_sse2(h, f, hp, p, o, e) }
    })
}

#[cfg(target_arch = "x86_64")]
/// AVX2 kernel entry point (scalar fallback when ineligible). Callers must
/// only use this when `is_x86_feature_detected!("avx2")` holds — go through
/// [`available_kernels`] or [`AlignEngine`] and that is guaranteed.
pub fn local_score_ends_avx2(
    x: &[u8],
    y: &[u8],
    scheme: &ScoringScheme,
    scratch: &mut AlignScratch,
) -> (i32, usize, usize) {
    assert!(std::arch::is_x86_feature_detected!("avx2"), "AVX2 kernel on a non-AVX2 host");
    let (mat_max, mat_min) = matrix_bounds(scheme);
    if x.is_empty() || y.is_empty() || !vector_eligible(scheme, mat_max, mat_min, x.len(), y.len())
    {
        return score_ends_scalar(x, y, scheme, scratch);
    }
    score_ends_vector(x, y, scheme, scratch, |h, f, hp, p, o, e| {
        // SAFETY: AVX2 presence asserted above.
        unsafe { x86::pass_a_avx2(h, f, hp, p, o, e) }
    })
}

/// Lane width (in i16 elements) all padded buffers are rounded up to, so
/// SWAR (4), SSE2 (8) and AVX2 (16) passes can share them.
const PAD: usize = 16;

/// Two-pass vectorized kernel. The affine recurrences are decoupled so that
/// pass A is embarrassingly lane-parallel and pass B is a short scalar fold:
///
/// * pass A (vector): `F(i,j) = max(H(i−1,j)−open, F(i−1,j)−ext)` and
///   `H′(i,j) = max(H(i−1,j−1)+s(x_i,y_j), F(i,j), 0)` — previous-row
///   inputs only, the diagonal is a lane shift with cross-block carry;
/// * pass B (scalar): `E(i,j) = max(H′(i,j−1)−open, E(i,j−1)−ext)` and
///   `H(i,j) = max(H′(i,j), E(i,j))`, tracking the strict-`>` row-major
///   argmax exactly as the reference fill loop does.
///
/// The E-recurrence over H′ instead of H is exact because
/// `open ≥ ext` (checked by [`vector_eligible`]) makes the dropped
/// `E(i,j−1)−open` term dominated by `E(i,j−1)−ext`.
fn score_ends_vector(
    x: &[u8],
    y: &[u8],
    scheme: &ScoringScheme,
    scratch: &mut AlignScratch,
    pass_a: impl Fn(&[i16], &mut [i16], &mut [i16], &[i16], i16, i16),
) -> (i32, usize, usize) {
    let (m, n) = (x.len(), y.len());
    let np = n.div_ceil(PAD) * PAD;
    let AlignScratch { prof, vh, vhp, vf, .. } = scratch;
    prof.clear();
    prof.resize(pfam_seq::ALPHABET_SIZE * np, 0);
    for r in 0..pfam_seq::ALPHABET_SIZE {
        let row = &mut prof[r * np..r * np + n];
        for (slot, &yc) in row.iter_mut().zip(y.iter()) {
            *slot = scheme.matrix.score_codes(r as u8, yc) as i16;
        }
    }
    vh.clear();
    vh.resize(np, 0);
    vf.clear();
    vf.resize(np, F_FLOOR16);
    vhp.clear();
    vhp.resize(np, 0);
    let (open, ext) = (scheme.gap_open, scheme.gap_extend);
    let (open16, ext16) = (open as i16, ext as i16);
    let mut best = 0i32;
    let (mut bi, mut bj) = (0usize, 0usize);
    for i in 1..=m {
        let r = x[i - 1] as usize * np;
        pass_a(vh, vf, vhp, &prof[r..r + np], open16, ext16);
        let mut e = NEG_INF;
        let mut hp_left = 0i32; // H′(i, 0) = H(i, 0) = 0
        for j in 1..=n {
            e = (hp_left - open).max(e - ext);
            let hp = vhp[j - 1] as i32;
            let hv = hp.max(e);
            vh[j - 1] = hv as i16;
            if hv > best {
                best = hv;
                bi = i;
                bj = j;
            }
            hp_left = hp;
        }
    }
    (best, bi, bj)
}

/// Vectorized *full-matrix* fill: the two-pass kernel of
/// [`score_ends_vector`], but storing widened H/E/F rows into the scratch
/// [`AffineMatrices`] so the reference traceback can run on them. Returns
/// the strict-`>` row-major argmax `(best, (i*, j*))`.
///
/// Every stored value equals the reference scalar fill's **exactly** under
/// [`vector_eligible`]:
///
/// * H is the same recurrence, evaluated in the same order (pass B's
///   `max(H′, E)` equals `max(S+diag, E, F, 0)`), and lies in
///   `[0, MAX_SCORE16]`, comfortably inside i16.
/// * Interior F obeys `F(i,j) ≥ H(i−1,j) − open ≥ −open ≥ −MAX_PENALTY16`
///   because local H is never negative, so the i16 lane floor
///   [`F_FLOOR16`] (−4096, strictly below any reachable interior value)
///   only ever occupies the *virtual row-0* lanes and yields
///   `F(1,j) = max(0 − open, floor − ext) = −open`, exactly the scalar's
///   `max(0 − open, NEG_INF − ext)`. From row 1 on the lanes carry the
///   scalar values verbatim.
/// * Interior E is computed by pass B over `H′` instead of `H`; the two
///   agree because when `H(i,j−1) = E(i,j−1) > H′(i,j−1)` both reduce to
///   `E(i,j−1) − ext` (as `open ≥ ext`). Column-1 E is `−open` in both.
/// * Borders are written with the literal scalar constants (`H = 0`,
///   `E = F = NEG_INF`), which the traceback's gap-run tests compare
///   against by value.
fn fill_mat_vector(
    x: &[u8],
    y: &[u8],
    scheme: &ScoringScheme,
    scratch: &mut AlignScratch,
    pass_a: impl Fn(&[i16], &mut [i16], &mut [i16], &[i16], i16, i16),
) -> (i32, (usize, usize)) {
    let (m, n) = (x.len(), y.len());
    let w = n + 1;
    let len = (m + 1) * w;
    let np = n.div_ceil(PAD) * PAD;
    let AlignScratch { mat, prof, vh, vhp, vf, .. } = scratch;
    mat.w = w;
    if mat.h.len() < len {
        mat.h.resize(len, 0);
        mat.e.resize(len, NEG_INF);
        mat.f.resize(len, NEG_INF);
    }
    for j in 0..=n {
        mat.h[j] = 0;
        mat.e[j] = NEG_INF;
        mat.f[j] = NEG_INF;
    }
    for i in 1..=m {
        let at = i * w;
        mat.h[at] = 0;
        mat.e[at] = NEG_INF;
        mat.f[at] = NEG_INF;
    }
    prof.clear();
    prof.resize(pfam_seq::ALPHABET_SIZE * np, 0);
    for r in 0..pfam_seq::ALPHABET_SIZE {
        let row = &mut prof[r * np..r * np + n];
        for (slot, &yc) in row.iter_mut().zip(y.iter()) {
            *slot = scheme.matrix.score_codes(r as u8, yc) as i16;
        }
    }
    vh.clear();
    vh.resize(np, 0);
    vf.clear();
    vf.resize(np, F_FLOOR16);
    vhp.clear();
    vhp.resize(np, 0);
    let (open, ext) = (scheme.gap_open, scheme.gap_extend);
    let (open16, ext16) = (open as i16, ext as i16);
    let mut best = 0i32;
    let mut best_at = (0usize, 0usize);
    for i in 1..=m {
        let r = x[i - 1] as usize * np;
        pass_a(vh, vf, vhp, &prof[r..r + np], open16, ext16);
        let at0 = i * w;
        // F needs no pass B: widen-copy the lanes (auto-vectorizes).
        for (slot, &fv) in mat.f[at0 + 1..at0 + 1 + n].iter_mut().zip(vf.iter()) {
            *slot = fv as i32;
        }
        let hrow = &mut mat.h[at0 + 1..at0 + 1 + n];
        let erow = &mut mat.e[at0 + 1..at0 + 1 + n];
        let mut e = NEG_INF;
        let mut hp_left = 0i32; // H′(i, 0) = H(i, 0) = 0
        let cells = hrow.iter_mut().zip(erow.iter_mut()).zip(vh.iter_mut().zip(vhp.iter()));
        for (j0, ((hslot, eslot), (vh16, &hp16))) in cells.enumerate() {
            e = (hp_left - open).max(e - ext);
            let hp = hp16 as i32;
            let hv = hp.max(e);
            *vh16 = hv as i16;
            *hslot = hv;
            *eslot = e;
            if hv > best {
                best = hv;
                best_at = (i, j0 + 1);
            }
            hp_left = hp;
        }
    }
    (best, best_at)
}

/// Full-traceback local alignment through the engine's vectorized matrix
/// fill — bit-identical to [`crate::local_affine`], with the fastest
/// eligible kernel (scalar fallback when the pair is ineligible). Exposed
/// for equivalence tests and benches; the engine tiers use it internally.
pub fn local_affine_simd(
    x: &[u8],
    y: &[u8],
    scheme: &ScoringScheme,
    scratch: &mut AlignScratch,
) -> Alignment {
    let engine = AlignEngine::new(
        AlignEngineKind::Tiered,
        scheme.clone(),
        ContainmentParams::default(),
        OverlapParams::default(),
    );
    engine.local_affine_exact(x, y, scratch)
}

// ---- portable SWAR pass A: four i16 lanes per u64 -------------------------

const HI4: u64 = 0x8000_8000_8000_8000;
const LANE1: u64 = 0x0001_0001_0001_0001;

#[inline(always)]
fn splat4(v: i16) -> u64 {
    (v as u16 as u64).wrapping_mul(LANE1)
}

#[inline(always)]
fn load4(v: &[i16]) -> u64 {
    (v[0] as u16 as u64)
        | ((v[1] as u16 as u64) << 16)
        | ((v[2] as u16 as u64) << 32)
        | ((v[3] as u16 as u64) << 48)
}

#[inline(always)]
fn store4(v: &mut [i16], w: u64) {
    v[0] = w as u16 as i16;
    v[1] = (w >> 16) as u16 as i16;
    v[2] = (w >> 32) as u16 as i16;
    v[3] = (w >> 48) as u16 as i16;
}

/// Lanewise i16 add (exact when no lane overflows — see `vector_eligible`).
#[inline(always)]
fn add4(a: u64, b: u64) -> u64 {
    ((a & !HI4).wrapping_add(b & !HI4)) ^ ((a ^ b) & HI4)
}

/// Lanewise i16 subtract (same precondition).
#[inline(always)]
fn sub4(a: u64, b: u64) -> u64 {
    ((a | HI4).wrapping_sub(b & !HI4)) ^ ((a ^ !b) & HI4)
}

/// Lanewise signed i16 max via the sign of the lanewise difference — exact
/// because the eligibility guard keeps every difference inside i16.
#[inline(always)]
fn max4(a: u64, b: u64) -> u64 {
    let d = sub4(a, b);
    let mask = ((d >> 15) & LANE1).wrapping_mul(0xFFFF);
    (a & !mask) | (b & mask)
}

fn pass_a_swar(hprev: &[i16], f: &mut [i16], hp: &mut [i16], prow: &[i16], open: i16, ext: i16) {
    let open4 = splat4(open);
    let ext4 = splat4(ext);
    let blocks = hprev.len() / 4;
    let mut carry = 0u64; // H(i−1, 0) = 0 seeds the first diagonal lane
    for b in 0..blocks {
        let o = b * 4;
        let h = load4(&hprev[o..]);
        let diag = (h << 16) | carry;
        carry = h >> 48;
        let fv = max4(sub4(h, open4), sub4(load4(&f[o..]), ext4));
        store4(&mut f[o..], fv);
        let hpv = max4(max4(add4(diag, load4(&prow[o..])), fv), 0);
        store4(&mut hp[o..], hpv);
    }
}

// ---- std::arch pass A variants (x86_64) -----------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Pass A over eight i16 lanes per 128-bit register.
    ///
    /// # Safety
    /// Requires SSE2 (architecturally guaranteed on x86_64). Buffers must
    /// share the same length, a multiple of 8 (the caller pads to 16).
    #[target_feature(enable = "sse2")]
    pub unsafe fn pass_a_sse2(
        hprev: &[i16],
        f: &mut [i16],
        hp: &mut [i16],
        prow: &[i16],
        open: i16,
        ext: i16,
    ) {
        let open8 = _mm_set1_epi16(open);
        let ext8 = _mm_set1_epi16(ext);
        let zero = _mm_setzero_si128();
        let blocks = hprev.len() / 8;
        let mut carry = zero;
        for b in 0..blocks {
            let o = b * 8;
            let h = _mm_loadu_si128(hprev.as_ptr().add(o) as *const __m128i);
            let diag = _mm_or_si128(_mm_slli_si128(h, 2), carry);
            carry = _mm_srli_si128(h, 14);
            let fv = _mm_max_epi16(
                _mm_sub_epi16(h, open8),
                _mm_sub_epi16(_mm_loadu_si128(f.as_ptr().add(o) as *const __m128i), ext8),
            );
            _mm_storeu_si128(f.as_mut_ptr().add(o) as *mut __m128i, fv);
            let p = _mm_loadu_si128(prow.as_ptr().add(o) as *const __m128i);
            let hpv = _mm_max_epi16(_mm_max_epi16(_mm_add_epi16(diag, p), fv), zero);
            _mm_storeu_si128(hp.as_mut_ptr().add(o) as *mut __m128i, hpv);
        }
    }

    /// Pass A over sixteen i16 lanes per 256-bit register.
    ///
    /// # Safety
    /// Requires AVX2 (runtime-detected by the caller). Buffers must share
    /// the same length, a multiple of 16.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pass_a_avx2(
        hprev: &[i16],
        f: &mut [i16],
        hp: &mut [i16],
        prow: &[i16],
        open: i16,
        ext: i16,
    ) {
        let open16 = _mm256_set1_epi16(open);
        let ext16 = _mm256_set1_epi16(ext);
        let zero = _mm256_setzero_si256();
        let blocks = hprev.len() / 16;
        let mut carry = zero;
        for b in 0..blocks {
            let o = b * 16;
            let h = _mm256_loadu_si256(hprev.as_ptr().add(o) as *const __m256i);
            // Shift the whole 256-bit register left by one i16:
            // t = [zero, h.lo] so alignr stitches the cross-lane element.
            let t = _mm256_permute2x128_si256(h, h, 0x08);
            let diag = _mm256_or_si256(_mm256_alignr_epi8(h, t, 14), carry);
            let top = _mm256_extract_epi16(h, 15) as i16;
            carry = _mm256_insert_epi16(zero, top, 0);
            let fv = _mm256_max_epi16(
                _mm256_sub_epi16(h, open16),
                _mm256_sub_epi16(_mm256_loadu_si256(f.as_ptr().add(o) as *const __m256i), ext16),
            );
            _mm256_storeu_si256(f.as_mut_ptr().add(o) as *mut __m256i, fv);
            let p = _mm256_loadu_si256(prow.as_ptr().add(o) as *const __m256i);
            let hpv = _mm256_max_epi16(_mm256_max_epi16(_mm256_add_epi16(diag, p), fv), zero);
            _mm256_storeu_si256(hp.as_mut_ptr().add(o) as *mut __m256i, hpv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::{local_affine, local_score};
    use pfam_seq::alphabet::encode;

    fn codes(s: &str) -> Vec<u8> {
        encode(s.as_bytes()).unwrap()
    }

    fn blosum() -> ScoringScheme {
        ScoringScheme::blosum62_default()
    }

    #[test]
    fn kernels_match_reference_score_and_argmax() {
        let pairs = [
            ("MKVLWAAKPP", "GGMKVLWAAK"),
            ("ACDEFG", "ACDEFG"),
            ("AAAA", "WWWW"),
            ("MKVLWMKVLW", "MKVLW"),
            ("PPPPMKVLWAAKPPPP", "GGMKVLWAAKGG"),
        ];
        let s = blosum();
        let mut scratch = AlignScratch::new();
        for (a, b) in pairs {
            let (x, y) = (codes(a), codes(b));
            let reference = local_affine(&x, &y, &s);
            for (name, kernel) in available_kernels() {
                let (score, bi, bj) = kernel(&x, &y, &s, &mut scratch);
                assert_eq!(score, reference.score, "{name}: {a} vs {b}");
                if reference.score > 0 {
                    assert_eq!((bi, bj), (reference.x_range.1, reference.y_range.1), "{name}");
                }
            }
        }
    }

    #[test]
    fn kernels_handle_degenerate_inputs() {
        let s = blosum();
        let mut scratch = AlignScratch::new();
        let x_codes = codes("X");
        let cases: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (Vec::new(), Vec::new()),
            (Vec::new(), codes("ACD")),
            (codes("ACD"), Vec::new()),
            (codes("A"), codes("A")),
            (x_codes.repeat(7), x_codes.repeat(9)),
        ];
        for (x, y) in cases {
            for (name, kernel) in available_kernels() {
                let (score, ..) = kernel(&x, &y, &s, &mut scratch);
                assert_eq!(score, local_score(&x, &y, &s), "{name}: {x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn tiered_and_reference_agree_on_handcrafted_pairs() {
        let s = blosum();
        let tiered = AlignEngine::new(
            AlignEngineKind::Tiered,
            s.clone(),
            ContainmentParams::default(),
            OverlapParams::default(),
        );
        let reference = AlignEngine::new(
            AlignEngineKind::Reference,
            s,
            ContainmentParams::default(),
            OverlapParams::default(),
        );
        let pairs = [
            ("MKVLWAAK", "PPMKVLWAAKPP"), // exact containment
            ("MKVLWAAK", "PPMKVLWAEKPP"), // one substitution
            ("ACDEFGHIKLMN", "WWWWYYYY"), // unrelated
            ("MKVLW", "MKVLW"),           // identical
            ("AAAAAAAAAA", "AAAA"),       // x longer than y
        ];
        for (a, b) in pairs {
            let (x, y) = (codes(a), codes(b));
            let anchor = Some(Anchor { x_pos: 0, y_pos: 2, len: 4 });
            for anc in [None, anchor] {
                assert_eq!(
                    tiered.contained(&x, &y, anc).accept,
                    reference.contained(&x, &y, anc).accept,
                    "containment {a} vs {b} (anchor {anc:?})"
                );
                assert_eq!(
                    tiered.overlaps(&x, &y, anc).accept,
                    reference.overlaps(&x, &y, anc).accept,
                    "overlap {a} vs {b} (anchor {anc:?})"
                );
            }
        }
    }

    #[test]
    fn invalid_anchor_is_ignored() {
        let s = blosum();
        let engine = AlignEngine::new(
            AlignEngineKind::Tiered,
            s,
            ContainmentParams::default(),
            OverlapParams::default(),
        );
        let x = codes("MKVLWAAK");
        let y = codes("PPMKVLWAAKPP");
        let bogus = Some(Anchor { x_pos: 100, y_pos: 0, len: 50 });
        assert_eq!(engine.contained(&x, &y, bogus).accept, engine.contained(&x, &y, None).accept);
    }

    #[test]
    fn cell_counters_are_consistent() {
        let s = blosum();
        let engine = AlignEngine::new(
            AlignEngineKind::Tiered,
            s,
            ContainmentParams::default(),
            OverlapParams::default(),
        );
        let x = codes("MKVLWAAK");
        let y = codes("PPMKVLWAAKPP");
        let v = engine.contained(&x, &y, None);
        let full = (x.len() * y.len()) as u64;
        assert!(v.cells_skipped <= full);
        assert!(v.cells_computed > 0);
        // Rejected-by-screen pairs skip the whole matrix.
        let w = codes("WW");
        let r = engine.contained(&codes("MKVLWAAK"), &w, None);
        assert_eq!(r.tier, 0);
        assert_eq!(r.cells_skipped, (8 * 2) as u64);
    }

    #[test]
    fn simd_fill_alignment_is_bit_identical_to_reference() {
        let s = blosum();
        let mut scratch = AlignScratch::new();
        let pairs = [
            ("MKVLWAAKPP", "GGMKVLWAAK"),
            ("PPPPMKVLWAAKPPPP", "GGMKVLWAAKGG"),
            ("MKVLWMKVLW", "MKVLW"),
            ("AAAA", "WWWW"),
            ("ACDEFGHIKLMNPQRSTVWY", "YWVTSRQPNMLKIHGFEDCA"),
        ];
        for (a, b) in pairs {
            let (x, y) = (codes(a), codes(b));
            // Full Alignment equality: score, ops, and both ranges.
            assert_eq!(
                local_affine_simd(&x, &y, &s, &mut scratch),
                local_affine(&x, &y, &s),
                "{a} vs {b}"
            );
            assert_eq!(local_affine_simd(&y, &x, &s, &mut scratch), local_affine(&y, &x, &s));
        }
    }

    #[test]
    fn banded_probe_is_a_lower_bound_and_exact_with_wide_band() {
        let s = blosum();
        let engine = AlignEngine::new(
            AlignEngineKind::Tiered,
            s.clone(),
            ContainmentParams::default(),
            OverlapParams::default(),
        );
        let mut scratch = AlignScratch::new();
        let x = codes("MKVLWGGGAAK");
        let y = codes("MKVLWAAK");
        let full = local_score(&x, &y, &s);
        let (narrow, _) = engine.banded_probe(&x, &y, 0, 1, &mut scratch);
        assert!(narrow <= full);
        let wide = x.len() + y.len();
        let (exact, _) = engine.banded_probe(&x, &y, 0, wide, &mut scratch);
        assert_eq!(exact, full, "band covering the whole matrix must be exact");
    }
}
