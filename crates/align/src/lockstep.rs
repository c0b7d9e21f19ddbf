//! Lockstep inter-pair alignment: up to sixteen *different* pairs advance
//! through the local-affine DP together, one pair per i16 SIMD lane.
//!
//! The per-pair engine vectorizes *within* one matrix row, which leaves the
//! horizontal E recurrence as a scalar fold. Here every lane owns its own
//! pair, so all three Gotoh recurrences (H, E, F) run lane-parallel with
//! no scalar pass at all. Pairs are binned by shape before they are packed
//! (see [`crate::AlignEngine::plan_batch`]) so the padded `M × N` group
//! rectangle wastes few cells.
//!
//! For each lane the fill records:
//!
//! * the strict-`>` row-major argmax restricted to the lane's own `m × n`
//!   rectangle — padding cells are masked out of the comparison, and they
//!   can never influence a real cell because DP dependencies only flow
//!   right and down;
//! * one direction byte per cell holding exactly the decisions the
//!   reference traceback ([`crate::local::traceback_local`]) takes: H is
//!   zero (stop), H came from the diagonal, H equals E, and whether E / F
//!   stay in their gap layer (`E(i,j) == E(i,j−1) − ext` with `E(i,j−1)`
//!   finite; the F analogue). Border cells are stops.
//!
//! Interior values equal the reference's i32 fill exactly under the
//! engine's i16 eligibility guard (the same argument as the per-pair
//! vector fill); arithmetic is saturating, so padding cells stay finite
//! whatever they hold. The traceback over the direction bytes therefore
//! replays the reference traceback step for step, and the verdict is the
//! reference verdict.

use pfam_seq::{ScoringScheme, SubstMatrix, ALPHABET_SIZE};

use crate::alignment::{AlignOp, Alignment};

/// H was zero: the traceback stops here.
const STOP: u8 = 1;
/// H equals the diagonal predecessor plus the substitution score.
const DIAG: u8 = 2;
/// H equals E (checked only when not `DIAG`).
const FROM_E: u8 = 4;
/// In layer E, stay in E when stepping left.
const E_STAY: u8 = 8;
/// In layer F, stay in F when stepping up.
const F_STAY: u8 = 16;

/// "−∞" for the virtual row/column 0 of the E and F recurrences: below any
/// reachable interior value, so `F(1,j) = max(0 − open, floor − ext)` is
/// `−open` exactly as in the reference, and the stay tests against a
/// floor predecessor are never true (the reference's `NEG_INF` check).
const FLOOR: i16 = -4096;

/// Residue code that pads profile columns; scores 0 against every row.
const PAD_CODE: u8 = 31;

/// Most lanes any kernel packs (AVX2: sixteen i16 lanes).
pub(crate) const MAX_LANES: usize = 16;

/// Cap on a group's padded rectangle `M·N`: bounds the direction matrix at
/// `lanes · M · N` bytes (4 MiB at sixteen lanes).
pub(crate) const MAX_GROUP_CELLS: usize = 1 << 18;

/// Which lane kernel a lockstep fill runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneKernel {
    /// Eight i16 lanes in plain arrays (any target).
    Portable,
    #[cfg(target_arch = "x86_64")]
    /// Eight i16 lanes per SSE2 register.
    Sse2,
    #[cfg(target_arch = "x86_64")]
    /// Sixteen i16 lanes per AVX2 register (runtime-detected).
    Avx2,
}

impl LaneKernel {
    /// Pairs one fill advances together.
    pub(crate) fn lanes(self) -> usize {
        match self {
            LaneKernel::Portable => 8,
            #[cfg(target_arch = "x86_64")]
            LaneKernel::Sse2 => 8,
            #[cfg(target_arch = "x86_64")]
            LaneKernel::Avx2 => 16,
        }
    }
}

/// Substitution-matrix rows as 32-entry lookup tables (codes at and past
/// `ALPHABET_SIZE` score 0), for building profiles by code lookup.
pub(crate) struct ScoreRows {
    wide: [[i16; 32]; ALPHABET_SIZE],
    /// The same rows as bytes, when every entry fits in an i8 (BLOSUM62
    /// does): the AVX2 kernel then builds profiles with byte shuffles.
    narrow: Option<[[i8; 32]; ALPHABET_SIZE]>,
}

impl ScoreRows {
    pub(crate) fn new(matrix: &SubstMatrix) -> ScoreRows {
        let mut wide = [[0i16; 32]; ALPHABET_SIZE];
        let mut narrow = [[0i8; 32]; ALPHABET_SIZE];
        let mut fits = true;
        for (r, (w, b)) in wide.iter_mut().zip(narrow.iter_mut()).enumerate() {
            for c in 0..ALPHABET_SIZE {
                let v = matrix.score_codes(r as u8, c as u8);
                w[c] = v.clamp(i16::MIN as i32, i16::MAX as i32) as i16;
                b[c] = v.clamp(i8::MIN as i32, i8::MAX as i32) as i8;
                fits &= i8::try_from(v).is_ok();
            }
        }
        ScoreRows { wide, narrow: fits.then_some(narrow) }
    }
}

/// Reusable lockstep buffers (part of [`crate::AlignScratch`]).
#[derive(Default)]
pub(crate) struct LockstepArena {
    /// Per-lane query profiles: `(lane·ALPHABET + r)·np + j ↦ s(r, y[j])`.
    prof: Vec<i16>,
    /// One lane's `y` codes, padded with [`PAD_CODE`] to `np`.
    codes: Vec<u8>,
    /// Current row's substitution scores, column-major by lane.
    srow: Vec<i16>,
    /// H of the previous row, `(np + 1) × lanes`.
    hrow: Vec<i16>,
    /// F of the previous row, `(np + 1) × lanes`.
    frow: Vec<i16>,
    /// Direction bytes, `((i−1)·N + (j−1))·lanes + lane`.
    dir: Vec<u8>,
    /// Column count `N` of the last fill (row stride of `dir`).
    cols: usize,
    /// Lane count of the last fill.
    lanes: usize,
}

/// Per-lane fill outcome: the optimum and its first row-major cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LaneEnd {
    /// Best local score `S*`.
    pub best: i32,
    /// 1-based row of the argmax (0 when `best == 0`).
    pub bi: usize,
    /// 1-based column of the argmax (0 when `best == 0`).
    pub bj: usize,
}

/// Fill the group's matrices in lockstep. `pairs.len() ≤ kernel.lanes()`,
/// every pair non-empty and vector-eligible, `M·N ≤ MAX_GROUP_CELLS`.
/// `rows` must be `scheme`'s matrix.
pub(crate) fn fill(
    kernel: LaneKernel,
    pairs: &[(&[u8], &[u8])],
    scheme: &ScoringScheme,
    rows: &ScoreRows,
    arena: &mut LockstepArena,
) -> [LaneEnd; MAX_LANES] {
    debug_assert!(!pairs.is_empty() && pairs.len() <= kernel.lanes());
    match kernel {
        // SAFETY: the portable lanes use no target features.
        LaneKernel::Portable => unsafe { fill_lanes::<Portable>(pairs, scheme, rows, arena) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is architecturally guaranteed on x86_64.
        LaneKernel::Sse2 => unsafe { x86::fill_sse2(pairs, scheme, rows, arena) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` is only selected after runtime detection.
        LaneKernel::Avx2 => unsafe { x86::fill_avx2(pairs, scheme, rows, arena) },
    }
}

/// Trace lane `lane` of the last [`fill`] back from its argmax: the
/// reference traceback's decisions, read from the direction bytes.
pub(crate) fn traceback(arena: &LockstepArena, lane: usize, end: LaneEnd) -> Alignment {
    let (stride, lanes) = (arena.cols, arena.lanes);
    let at = |i: usize, j: usize| arena.dir[((i - 1) * stride + (j - 1)) * lanes + lane];
    #[derive(PartialEq, Clone, Copy)]
    enum Layer {
        H,
        E,
        F,
    }
    let (mut i, mut j) = (end.bi, end.bj);
    let mut ops = Vec::new();
    let mut layer = Layer::H;
    loop {
        match layer {
            Layer::H => {
                // Border cells hold H = 0.
                if i == 0 || j == 0 {
                    break;
                }
                let d = at(i, j);
                if d & STOP != 0 {
                    break;
                }
                if d & DIAG != 0 {
                    ops.push(AlignOp::Subst);
                    i -= 1;
                    j -= 1;
                } else if d & FROM_E != 0 {
                    layer = Layer::E;
                } else {
                    layer = Layer::F;
                }
            }
            Layer::E => {
                ops.push(AlignOp::InsertY);
                if at(i, j) & E_STAY == 0 {
                    layer = Layer::H;
                }
                j -= 1;
            }
            Layer::F => {
                ops.push(AlignOp::InsertX);
                if at(i, j) & F_STAY == 0 {
                    layer = Layer::H;
                }
                i -= 1;
            }
        }
    }
    ops.reverse();
    Alignment { score: end.best, ops, x_range: (i, end.bi), y_range: (j, end.bj) }
}

/// One SIMD register of i16 lanes. Masks are lanes of all ones / zeros.
///
/// # Safety
/// The x86 implementations need their target feature: call the methods
/// only from code compiled with it ([`fill_lanes`] is instantiated behind a
/// matching `#[target_feature]` entry point, or for [`Portable`]). Pointer
/// arguments must be valid for the `L` (or documented) elements accessed.
trait Lanes: Copy {
    /// Lanes per register.
    const L: usize;
    unsafe fn load(p: *const i16) -> Self;
    unsafe fn store(self, p: *mut i16);
    unsafe fn splat(v: i16) -> Self;
    unsafe fn adds(self, o: Self) -> Self;
    unsafe fn subs(self, o: Self) -> Self;
    unsafe fn max(self, o: Self) -> Self;
    unsafe fn eq(self, o: Self) -> Self;
    unsafe fn gt(self, o: Self) -> Self;
    unsafe fn and(self, o: Self) -> Self;
    unsafe fn or(self, o: Self) -> Self;
    /// `mask ? a : b`, lanewise.
    unsafe fn select(mask: Self, a: Self, b: Self) -> Self;
    /// Store the low byte of every lane (`L` bytes; lanes hold `0..=255`).
    unsafe fn store_bytes(self, p: *mut u8);
    /// Transpose an `L`-row × 8-column block: `rows[l] + col` is lane
    /// `l`'s source; column `k` lands at `dst + k·L`.
    unsafe fn transpose8(rows: &[*const i16; MAX_LANES], col: usize, dst: *mut i16);
    /// `dst[k] = row[codes[k]]` for every `k` (`codes.len()` is a
    /// multiple of 32, every code below 32).
    #[inline(always)]
    unsafe fn profile_row(rows: &ScoreRows, r: usize, codes: &[u8], dst: *mut i16) {
        let row = &rows.wide[r];
        for (k, &c) in codes.iter().enumerate() {
            *dst.add(k) = row[c as usize & 31];
        }
    }
}

/// The lockstep fill, generic over the lane register.
///
/// # Safety
/// `V`'s target feature must be enabled (see [`Lanes`]). The buffers are
/// sized here for every pointer the loops form; residue codes are checked
/// below `ALPHABET_SIZE` before they index a profile.
#[inline(always)]
unsafe fn fill_lanes<V: Lanes>(
    pairs: &[(&[u8], &[u8])],
    scheme: &ScoringScheme,
    score_rows: &ScoreRows,
    ar: &mut LockstepArena,
) -> [LaneEnd; MAX_LANES] {
    let l = V::L;
    assert!(pairs.len() <= l, "more pairs than lanes");
    assert!(
        pairs.iter().all(|(x, y)| x.len().max(y.len()) < i16::MAX as usize),
        "lane coordinates must fit in i16"
    );
    assert!(
        pairs.iter().all(|(x, y)| x.iter().chain(*y).all(|&c| (c as usize) < ALPHABET_SIZE)),
        "residue code out of range"
    );
    let m_max = pairs.iter().map(|p| p.0.len()).max().unwrap_or(0);
    let n_max = pairs.iter().map(|p| p.1.len()).max().unwrap_or(0);
    let np = n_max.div_ceil(32) * 32;
    ar.cols = n_max;
    ar.lanes = l;

    // Per-lane query profiles; padding columns score 0. Lanes without a
    // pair read lane 0's profile: whatever they compute is masked out.
    if ar.prof.len() < pairs.len() * ALPHABET_SIZE * np {
        ar.prof.resize(pairs.len() * ALPHABET_SIZE * np, 0);
    }
    for (lane, &(_, y)) in pairs.iter().enumerate() {
        ar.codes.clear();
        ar.codes.extend_from_slice(y);
        ar.codes.resize(np, PAD_CODE);
        for r in 0..ALPHABET_SIZE {
            let dst = ar.prof.as_mut_ptr().add((lane * ALPHABET_SIZE + r) * np);
            V::profile_row(score_rows, r, &ar.codes, dst);
        }
    }
    ar.srow.clear();
    ar.srow.resize(np * l, 0);
    ar.hrow.clear();
    ar.hrow.resize((np + 1) * l, 0);
    ar.frow.clear();
    ar.frow.resize((np + 1) * l, FLOOR);
    let cells = m_max * n_max * l;
    if ar.dir.len() < cells {
        ar.dir.resize(cells, 0);
    }

    let mut ms = [0i16; MAX_LANES];
    let mut ns = [0i16; MAX_LANES];
    for (lane, &(x, y)) in pairs.iter().enumerate() {
        ms[lane] = x.len() as i16;
        ns[lane] = y.len() as i16 + 1;
    }
    let mvec = V::load(ms.as_ptr());
    let n1vec = V::load(ns.as_ptr());
    let zero = V::splat(0);
    let one = V::splat(1);
    let open = V::splat(scheme.gap_open as i16);
    let ext = V::splat(scheme.gap_extend as i16);
    let floor = V::splat(FLOOR);
    let (stop_b, diag_b, e_b) =
        (V::splat(STOP as i16), V::splat(DIAG as i16), V::splat(FROM_E as i16));
    let (es_b, fs_b) = (V::splat(E_STAY as i16), V::splat(F_STAY as i16));
    let mut best = zero;
    let mut bi = zero;
    let mut bj = zero;
    let mut ivec = zero;
    let mut rows = [ar.prof.as_ptr(); MAX_LANES];
    let prof = ar.prof.as_ptr();
    let srow = ar.srow.as_mut_ptr();
    let hrow = ar.hrow.as_mut_ptr();
    let frow = ar.frow.as_mut_ptr();
    let mut dir = ar.dir.as_mut_ptr();

    for i in 1..=m_max {
        // Gather this row's scores: lane l reads its profile row for x_l[i−1].
        for (lane, slot) in rows.iter_mut().enumerate().take(pairs.len()) {
            let x = pairs[lane].0;
            let r = if i <= x.len() { x[i - 1] as usize } else { 0 };
            *slot = prof.add((lane * ALPHABET_SIZE + r) * np);
        }
        for col in (0..np).step_by(8) {
            V::transpose8(&rows, col, srow.add(col * l));
        }
        ivec = ivec.adds(one);
        // Lanes whose rectangle contains row i keep their column bound;
        // the rest compare against 0, which masks the whole row.
        let n1row = n1vec.and(mvec.gt(ivec.subs(one)));
        let mut improved = zero;
        let mut jvec = zero;
        let mut hdiag = zero; // H(i−1, 0)
        let mut hleft = zero; // H(i, 0)
        let mut e = floor; // E(i, 0)
        for j in 1..=n_max {
            let hup = V::load(hrow.add(j * l));
            let fup = V::load(frow.add(j * l));
            let f_ext = fup.subs(ext);
            let f = hup.subs(open).max(f_ext);
            let e_ext = e.subs(ext);
            e = hleft.subs(open).max(e_ext);
            let d = hdiag.adds(V::load(srow.add((j - 1) * l)));
            let h = d.max(e).max(f.max(zero));
            h.store(hrow.add(j * l));
            f.store(frow.add(j * l));
            hdiag = hup;
            hleft = h;

            let code = h
                .eq(zero)
                .and(stop_b)
                .or(h.eq(d).and(diag_b))
                .or(h.eq(e).and(e_b))
                .or(e.eq(e_ext).and(es_b))
                .or(f.eq(f_ext).and(fs_b));
            code.store_bytes(dir);
            dir = dir.add(l);

            jvec = jvec.adds(one);
            let live = h.and(n1row.gt(jvec));
            let gt = live.gt(best);
            best = best.max(live);
            bj = V::select(gt, jvec, bj);
            improved = improved.or(gt);
        }
        bi = V::select(improved, ivec, bi);
    }

    let (mut b, mut ri, mut rj) = ([0i16; MAX_LANES], [0i16; MAX_LANES], [0i16; MAX_LANES]);
    best.store(b.as_mut_ptr());
    bi.store(ri.as_mut_ptr());
    bj.store(rj.as_mut_ptr());
    let mut out = [LaneEnd::default(); MAX_LANES];
    for lane in 0..pairs.len() {
        out[lane] = LaneEnd { best: b[lane] as i32, bi: ri[lane] as usize, bj: rj[lane] as usize };
    }
    out
}

/// Portable lanes: eight i16 in an array (auto-vectorizes where it can).
#[derive(Clone, Copy)]
struct Portable([i16; 8]);

/// `Portable` lanewise: `lanewise!(a, b, |x, y| expr)`.
macro_rules! lanewise {
    ($a:expr, $b:expr, |$x:ident, $y:ident| $e:expr) => {{
        let (a, b) = ($a.0, $b.0);
        let mut r = [0i16; 8];
        for k in 0..8 {
            let ($x, $y) = (a[k], b[k]);
            r[k] = $e;
        }
        Portable(r)
    }};
}

impl Lanes for Portable {
    const L: usize = 8;
    #[inline(always)]
    unsafe fn load(p: *const i16) -> Self {
        Portable(std::ptr::read_unaligned(p as *const [i16; 8]))
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut i16) {
        std::ptr::write_unaligned(p as *mut [i16; 8], self.0)
    }
    #[inline(always)]
    unsafe fn splat(v: i16) -> Self {
        Portable([v; 8])
    }
    #[inline(always)]
    unsafe fn adds(self, o: Self) -> Self {
        lanewise!(self, o, |a, b| (a as i32 + b as i32).clamp(-32768, 32767) as i16)
    }
    #[inline(always)]
    unsafe fn subs(self, o: Self) -> Self {
        lanewise!(self, o, |a, b| (a as i32 - b as i32).clamp(-32768, 32767) as i16)
    }
    #[inline(always)]
    unsafe fn max(self, o: Self) -> Self {
        lanewise!(self, o, |a, b| if a > b { a } else { b })
    }
    #[inline(always)]
    unsafe fn eq(self, o: Self) -> Self {
        lanewise!(self, o, |a, b| -((a == b) as i16))
    }
    #[inline(always)]
    unsafe fn gt(self, o: Self) -> Self {
        lanewise!(self, o, |a, b| -((a > b) as i16))
    }
    #[inline(always)]
    unsafe fn and(self, o: Self) -> Self {
        lanewise!(self, o, |a, b| a & b)
    }
    #[inline(always)]
    unsafe fn or(self, o: Self) -> Self {
        lanewise!(self, o, |a, b| a | b)
    }
    #[inline(always)]
    unsafe fn select(mask: Self, a: Self, b: Self) -> Self {
        let chosen = lanewise!(mask, a, |m, v| m & v);
        let kept = lanewise!(mask, b, |m, v| !m & v);
        chosen.or(kept)
    }
    #[inline(always)]
    unsafe fn store_bytes(self, p: *mut u8) {
        for (k, &v) in self.0.iter().enumerate() {
            *p.add(k) = v as u8;
        }
    }
    #[inline(always)]
    unsafe fn transpose8(rows: &[*const i16; MAX_LANES], col: usize, dst: *mut i16) {
        for (lane, &row) in rows.iter().enumerate().take(8) {
            for k in 0..8 {
                *dst.add(k * 8 + lane) = *row.add(col + k);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::{fill_lanes, LaneEnd, Lanes, LockstepArena, ScoreRows, MAX_LANES};
    use pfam_seq::ScoringScheme;

    /// [`fill_lanes`] over eight SSE2 lanes.
    ///
    /// # Safety
    /// Requires SSE2 (architecturally guaranteed on x86_64).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn fill_sse2(
        pairs: &[(&[u8], &[u8])],
        scheme: &ScoringScheme,
        rows: &ScoreRows,
        arena: &mut LockstepArena,
    ) -> [LaneEnd; MAX_LANES] {
        fill_lanes::<Sse2>(pairs, scheme, rows, arena)
    }

    /// [`fill_lanes`] over sixteen AVX2 lanes.
    ///
    /// # Safety
    /// Requires AVX2 (runtime-detected by the caller).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill_avx2(
        pairs: &[(&[u8], &[u8])],
        scheme: &ScoringScheme,
        rows: &ScoreRows,
        arena: &mut LockstepArena,
    ) -> [LaneEnd; MAX_LANES] {
        fill_lanes::<Avx2>(pairs, scheme, rows, arena)
    }

    /// 8×8 i16 transpose within each 128-bit half: `a[k]` holds row `k`
    /// (per half), the result `k` holds column `k`.
    macro_rules! transpose8x8 {
        ($a:expr, $lo16:ident, $hi16:ident, $lo32:ident, $hi32:ident, $lo64:ident, $hi64:ident) => {{
            let a = $a;
            let b0 = $lo16(a[0], a[1]);
            let b1 = $hi16(a[0], a[1]);
            let b2 = $lo16(a[2], a[3]);
            let b3 = $hi16(a[2], a[3]);
            let b4 = $lo16(a[4], a[5]);
            let b5 = $hi16(a[4], a[5]);
            let b6 = $lo16(a[6], a[7]);
            let b7 = $hi16(a[6], a[7]);
            let c0 = $lo32(b0, b2);
            let c1 = $hi32(b0, b2);
            let c2 = $lo32(b1, b3);
            let c3 = $hi32(b1, b3);
            let c4 = $lo32(b4, b6);
            let c5 = $hi32(b4, b6);
            let c6 = $lo32(b5, b7);
            let c7 = $hi32(b5, b7);
            [
                $lo64(c0, c4),
                $hi64(c0, c4),
                $lo64(c1, c5),
                $hi64(c1, c5),
                $lo64(c2, c6),
                $hi64(c2, c6),
                $lo64(c3, c7),
                $hi64(c3, c7),
            ]
        }};
    }

    #[derive(Clone, Copy)]
    struct Sse2(__m128i);

    impl Lanes for Sse2 {
        const L: usize = 8;
        #[inline(always)]
        unsafe fn load(p: *const i16) -> Self {
            Sse2(_mm_loadu_si128(p as *const __m128i))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut i16) {
            _mm_storeu_si128(p as *mut __m128i, self.0)
        }
        #[inline(always)]
        unsafe fn splat(v: i16) -> Self {
            Sse2(_mm_set1_epi16(v))
        }
        #[inline(always)]
        unsafe fn adds(self, o: Self) -> Self {
            Sse2(_mm_adds_epi16(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn subs(self, o: Self) -> Self {
            Sse2(_mm_subs_epi16(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn max(self, o: Self) -> Self {
            Sse2(_mm_max_epi16(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn eq(self, o: Self) -> Self {
            Sse2(_mm_cmpeq_epi16(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn gt(self, o: Self) -> Self {
            Sse2(_mm_cmpgt_epi16(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn and(self, o: Self) -> Self {
            Sse2(_mm_and_si128(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn or(self, o: Self) -> Self {
            Sse2(_mm_or_si128(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn select(mask: Self, a: Self, b: Self) -> Self {
            Sse2(_mm_or_si128(_mm_and_si128(mask.0, a.0), _mm_andnot_si128(mask.0, b.0)))
        }
        #[inline(always)]
        unsafe fn store_bytes(self, p: *mut u8) {
            _mm_storel_epi64(p as *mut __m128i, _mm_packus_epi16(self.0, self.0))
        }
        #[inline(always)]
        unsafe fn transpose8(rows: &[*const i16; MAX_LANES], col: usize, dst: *mut i16) {
            let mut a = [_mm_setzero_si128(); 8];
            for (k, slot) in a.iter_mut().enumerate() {
                *slot = _mm_loadu_si128(rows[k].add(col) as *const __m128i);
            }
            let t = transpose8x8!(
                a,
                _mm_unpacklo_epi16,
                _mm_unpackhi_epi16,
                _mm_unpacklo_epi32,
                _mm_unpackhi_epi32,
                _mm_unpacklo_epi64,
                _mm_unpackhi_epi64
            );
            for (k, v) in t.into_iter().enumerate() {
                _mm_storeu_si128(dst.add(k * 8) as *mut __m128i, v);
            }
        }
    }

    #[derive(Clone, Copy)]
    struct Avx2(__m256i);

    impl Lanes for Avx2 {
        const L: usize = 16;
        #[inline(always)]
        unsafe fn load(p: *const i16) -> Self {
            Avx2(_mm256_loadu_si256(p as *const __m256i))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut i16) {
            _mm256_storeu_si256(p as *mut __m256i, self.0)
        }
        #[inline(always)]
        unsafe fn splat(v: i16) -> Self {
            Avx2(_mm256_set1_epi16(v))
        }
        #[inline(always)]
        unsafe fn adds(self, o: Self) -> Self {
            Avx2(_mm256_adds_epi16(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn subs(self, o: Self) -> Self {
            Avx2(_mm256_subs_epi16(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn max(self, o: Self) -> Self {
            Avx2(_mm256_max_epi16(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn eq(self, o: Self) -> Self {
            Avx2(_mm256_cmpeq_epi16(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn gt(self, o: Self) -> Self {
            Avx2(_mm256_cmpgt_epi16(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn and(self, o: Self) -> Self {
            Avx2(_mm256_and_si256(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn or(self, o: Self) -> Self {
            Avx2(_mm256_or_si256(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn select(mask: Self, a: Self, b: Self) -> Self {
            Avx2(_mm256_blendv_epi8(b.0, a.0, mask.0))
        }
        #[inline(always)]
        unsafe fn store_bytes(self, p: *mut u8) {
            let lo = _mm256_castsi256_si128(self.0);
            let hi = _mm256_extracti128_si256::<1>(self.0);
            _mm_storeu_si128(p as *mut __m128i, _mm_packus_epi16(lo, hi))
        }
        #[inline(always)]
        unsafe fn transpose8(rows: &[*const i16; MAX_LANES], col: usize, dst: *mut i16) {
            // Register k holds lane k's row in its low half and lane k+8's
            // in its high half; the per-half 8×8 transpose then leaves
            // column k of all sixteen lanes in register k.
            let mut a = [_mm256_setzero_si256(); 8];
            for (k, slot) in a.iter_mut().enumerate() {
                *slot = _mm256_loadu2_m128i(
                    rows[k + 8].add(col) as *const __m128i,
                    rows[k].add(col) as *const __m128i,
                );
            }
            let t = transpose8x8!(
                a,
                _mm256_unpacklo_epi16,
                _mm256_unpackhi_epi16,
                _mm256_unpacklo_epi32,
                _mm256_unpackhi_epi32,
                _mm256_unpacklo_epi64,
                _mm256_unpackhi_epi64
            );
            for (k, v) in t.into_iter().enumerate() {
                _mm256_storeu_si256(dst.add(k * 16) as *mut __m256i, v);
            }
        }
        #[inline(always)]
        unsafe fn profile_row(rows: &ScoreRows, r: usize, codes: &[u8], dst: *mut i16) {
            let Some(narrow) = &rows.narrow else {
                let row = &rows.wide[r];
                for (k, &c) in codes.iter().enumerate() {
                    *dst.add(k) = row[c as usize & 31];
                }
                return;
            };
            // Byte shuffles look up entries 0..15 and 16..31 of the row;
            // the code's bit 4 picks between them.
            let row = narrow[r].as_ptr() as *const __m128i;
            let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(row));
            let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(row.add(1)));
            let fifteen = _mm256_set1_epi8(15);
            for k in (0..codes.len()).step_by(32) {
                let c = _mm256_loadu_si256(codes.as_ptr().add(k) as *const __m256i);
                let v = _mm256_blendv_epi8(
                    _mm256_shuffle_epi8(lo, c),
                    _mm256_shuffle_epi8(hi, c),
                    _mm256_cmpgt_epi8(c, fifteen),
                );
                let first = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(v));
                let second = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(v));
                _mm256_storeu_si256(dst.add(k) as *mut __m256i, first);
                _mm256_storeu_si256(dst.add(k + 16) as *mut __m256i, second);
            }
        }
    }
}
