//! `ClusterCore` — the one state machine behind every RR/CCD driver.
//!
//! The paper's clustering loop is a single algorithm: consume promising
//! pairs in decreasing maximal-match order, *filter* pairs the current
//! state already resolves (co-clustered endpoints in CCD, already-redundant
//! sequences in RR), verify the survivors by alignment, and fold the
//! verdicts back into the state. Before this module the repository
//! implemented that loop eight times — six CCD drivers and two RR drivers —
//! each re-wiring the union-find, the filter, the trace bookkeeping and the
//! checkpoint cursor by hand.
//!
//! `ClusterCore` owns all of that mutable state exactly once:
//!
//! * the **clustering state** — a union-find forest (CCD) or the
//!   redundancy marks (RR); no other module in this crate mutates a
//!   [`UnionFind`] (`scripts/tier1.sh` greps for violations);
//! * the **pair filter** — [`ClusterCore::admit_batch`] /
//!   [`ClusterCore::admit_one`] apply the transitive-closure (CCD) or
//!   redundancy (RR) filter and record the generated/filtered counts;
//! * the **accept/reject bookkeeping** — [`ClusterCore::absorb`] applies
//!   verdicts (merges, redundancy marks, accepted edges) and the per-batch
//!   work trace in one place;
//! * the **checkpoint cursor** — [`ClusterCore::cursor`] snapshots the
//!   exact mid-phase state that [`CcdCursor`] serializes, and
//!   [`ClusterCore::resume_ccd`] restores it for deterministic replay.
//!
//! Execution substrates plug in around the core through three traits:
//! [`crate::source::PairSource`] (where pairs come from),
//! [`crate::transport::Transport`] (how candidate batches and verdicts
//! travel), and [`crate::policy::WorkPolicy`] (who drives the loop). Every
//! public `run_*` entry point is a thin composition of those pieces; a new
//! execution mode is one new trait impl, not a new driver.

use pfam_align::{Anchor, Criterion};
use pfam_graph::UnionFind;
use pfam_seq::{SeqId, SeqStore};
use pfam_suffix::MatchPair;

use crate::ccd::CcdResult;
use crate::config::ClusterConfig;
use crate::rr::RrResult;
use crate::trace::{BatchRecord, PhaseTrace};

/// Which phase of the paper a core instance runs: the filter, the
/// verification criterion and the accept action all key off this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorePhase {
    /// Redundancy removal (Definition-1 containment test).
    Rr,
    /// Connected-component detection (Definition-2 overlap test).
    Ccd,
}

/// A pair that survived the filter and awaits verification.
///
/// In CCD mode `a`/`b` are the pair as generated; in RR mode the core has
/// *oriented* the pair so `a` is the candidate-to-remove and `b` its
/// potential container. The maximal-match anchor rides along when the
/// execution substrate preserves it (in-process drivers); candidates that
/// crossed a wire carry `None` and the engine probes from scratch —
/// verdicts are identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// First sequence (CCD: lower id of the pair; RR: removal candidate).
    pub a: SeqId,
    /// Second sequence (CCD: higher id; RR: potential container).
    pub b: SeqId,
    /// Maximal-match seed for the alignment probe, if it survived.
    pub anchor: Option<Anchor>,
}

/// The outcome of verifying one [`Candidate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// First sequence id (matches the candidate's `a`).
    pub a: u32,
    /// Second sequence id (matches the candidate's `b`).
    pub b: u32,
    /// Whether the phase's acceptance criterion passed.
    pub accept: bool,
    /// Full `m·n` DP rectangle of the pair (the simulator's work unit).
    pub cells: u64,
    /// DP cells the alignment engine actually evaluated.
    pub cells_computed: u64,
    /// Full-matrix DP cells the engine avoided.
    pub cells_skipped: u64,
}

/// Mode-specific clustering state: exactly one of these exists per run,
/// and all mutation goes through [`ClusterCore`].
#[derive(Debug)]
enum ModeState {
    Ccd { uf: UnionFind, edges: Vec<(SeqId, SeqId)>, n_merges: usize },
    Rr { redundant: Vec<Option<SeqId>>, removed: Vec<(SeqId, SeqId)> },
}

/// Mid-phase CCD state at a batch boundary: everything the clustering loop
/// needs to resume and reach a final clustering identical to the
/// uninterrupted run.
///
/// Resume works by *deterministic replay*: the pair generator's order is
/// bit-identical across runs (the parallel generator preserves the serial
/// order), so skipping the first `pairs_consumed` pairs after an index
/// rebuild lands exactly where the checkpointed run stopped. The
/// union-find is restored verbatim (including incidental path-compression
/// state), so every subsequent filter decision — and therefore every
/// alignment, merge and trace record — repeats exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct CcdCursor {
    /// Pairs already drawn from the generator (a batch boundary).
    pub pairs_consumed: u64,
    /// How the pair stream was generated: `0` for the monolithic index,
    /// the `PIN_SKETCH_*` sentinels for the sketch streams, else the
    /// settled per-group target of the bucketed generator. Resume
    /// rebuilds that kind of source: a sketch pin its sketch stream, an
    /// exact pin the exact stream (the same order for every plan),
    /// because `pairs_consumed` is a position in that generation order.
    pub gen_chunk_bytes: u64,
    /// Union-find parent array (`UnionFind::parts`).
    pub uf_parent: Vec<u32>,
    /// Union-find rank array.
    pub uf_rank: Vec<u8>,
    /// Accepted edges so far, in verification order.
    pub edges: Vec<(u32, u32)>,
    /// Merges so far.
    pub n_merges: usize,
    /// Work trace accumulated so far.
    pub trace: PhaseTrace,
}

impl CcdCursor {
    /// The canonical completed-phase cursor for `result` over `n`
    /// sequences: the forest is rebuilt from the accepted edges, so the
    /// snapshot is independent of incidental path-compression state while
    /// still yielding the identical partition.
    pub fn from_result(result: &CcdResult, n: usize) -> CcdCursor {
        let mut uf = UnionFind::new(n);
        for &(a, b) in &result.edges {
            uf.union(a.0, b.0);
        }
        let (parent, rank) = uf.parts();
        CcdCursor {
            pairs_consumed: result.trace.total_generated() as u64,
            gen_chunk_bytes: 0,
            uf_parent: parent.to_vec(),
            uf_rank: rank.to_vec(),
            edges: result.edges.iter().map(|&(a, b)| (a.0, b.0)).collect(),
            n_merges: result.n_merges,
            trace: result.trace.clone(),
        }
    }
}

/// One shard's exported CCD clustering state, exchanged up the merge
/// tree of the sharded plane (`crate::shard`).
///
/// The forest travels as the [`UnionFind::parts`] arrays plus the
/// shard's accepted edges. Folding one forest into another unions every
/// element with its exported parent — each union either merges two sets
/// or is a no-op, so the final partition is the transitive closure of
/// all accepted edges regardless of merge order or tree shape. That is
/// the bit-identity argument the driver matrix pins.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardForest {
    /// Union-find parent array (`UnionFind::parts`).
    pub parent: Vec<u32>,
    /// Union-find rank array.
    pub rank: Vec<u8>,
    /// Accepted edges, in this shard's verification order.
    pub edges: Vec<(u32, u32)>,
}

/// The clustering state machine. See the module docs for the contract.
pub struct ClusterCore<'s> {
    set: &'s dyn SeqStore,
    state: ModeState,
    trace: PhaseTrace,
    pairs_consumed: u64,
}

impl std::fmt::Debug for ClusterCore<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterCore")
            .field("n_seqs", &self.set.len())
            .field("state", &self.state)
            .field("trace", &self.trace)
            .field("pairs_consumed", &self.pairs_consumed)
            .finish()
    }
}

impl<'s> ClusterCore<'s> {
    /// Fresh CCD state: every sequence a singleton cluster.
    pub fn new_ccd(set: &'s dyn SeqStore) -> ClusterCore<'s> {
        ClusterCore {
            set,
            state: ModeState::Ccd { uf: UnionFind::new(set.len()), edges: Vec::new(), n_merges: 0 },
            trace: PhaseTrace {
                index_residues: set.total_residues() as u64,
                ..PhaseTrace::default()
            },
            pairs_consumed: 0,
        }
    }

    /// Fresh RR state: no sequence marked redundant.
    pub fn new_rr(set: &'s dyn SeqStore) -> ClusterCore<'s> {
        ClusterCore {
            set,
            state: ModeState::Rr { redundant: vec![None; set.len()], removed: Vec::new() },
            trace: PhaseTrace {
                index_residues: set.total_residues() as u64,
                ..PhaseTrace::default()
            },
            pairs_consumed: 0,
        }
    }

    /// Restore a CCD core from a checkpoint cursor (deterministic replay:
    /// the caller must also skip `cursor.pairs_consumed` pairs on its
    /// [`crate::source::PairSource`]).
    pub fn resume_ccd(set: &'s dyn SeqStore, cursor: CcdCursor) -> ClusterCore<'s> {
        ClusterCore {
            set,
            state: ModeState::Ccd {
                uf: UnionFind::from_parts(cursor.uf_parent, cursor.uf_rank),
                edges: cursor.edges.iter().map(|&(a, b)| (SeqId(a), SeqId(b))).collect(),
                n_merges: cursor.n_merges,
            },
            trace: cursor.trace,
            pairs_consumed: cursor.pairs_consumed,
        }
    }

    /// Which phase this core runs.
    pub fn phase(&self) -> CorePhase {
        match self.state {
            ModeState::Ccd { .. } => CorePhase::Ccd,
            ModeState::Rr { .. } => CorePhase::Rr,
        }
    }

    /// The sequence store the core clusters.
    pub fn set(&self) -> &'s dyn SeqStore {
        self.set
    }

    /// Pairs drawn from the pair supply so far (the cursor position).
    pub fn pairs_consumed(&self) -> u64 {
        self.pairs_consumed
    }

    /// Filter one pair against the current state, without recording
    /// anything. `None` means the pair is already resolved.
    fn filter(state: &mut ModeState, set: &dyn SeqStore, p: &MatchPair) -> Option<Candidate> {
        match state {
            ModeState::Ccd { uf, .. } => {
                if uf.same(p.a.0, p.b.0) {
                    None
                } else {
                    Some(Candidate {
                        a: p.a,
                        b: p.b,
                        anchor: Some(Anchor { x_pos: p.a_pos, y_pos: p.b_pos, len: p.len }),
                    })
                }
            }
            ModeState::Rr { redundant, .. } => {
                // Orient: the containment candidate is the shorter sequence,
                // ties toward the higher id so results do not depend on
                // generation order; the anchor offsets swap in tandem.
                let (la, lb) = (set.seq_len(p.a), set.seq_len(p.b));
                let (cand, container, anchor) = if la < lb || (la == lb && p.a.0 > p.b.0) {
                    (p.a, p.b, Anchor { x_pos: p.a_pos, y_pos: p.b_pos, len: p.len })
                } else {
                    (p.b, p.a, Anchor { x_pos: p.b_pos, y_pos: p.a_pos, len: p.len })
                };
                if redundant[cand.index()].is_some() || redundant[container.index()].is_some() {
                    None
                } else {
                    Some(Candidate { a: cand, b: container, anchor: Some(anchor) })
                }
            }
        }
    }

    /// Admit a generated batch: open a new trace record with the
    /// generated/filtered counts and return the candidates that survive
    /// the filter (orientation included, in RR mode).
    pub fn admit_batch(&mut self, pairs: &[MatchPair]) -> Vec<Candidate> {
        self.pairs_consumed += pairs.len() as u64;
        let candidates: Vec<Candidate> =
            pairs.iter().filter_map(|p| Self::filter(&mut self.state, self.set, p)).collect();
        self.trace.batches.push(BatchRecord {
            n_generated: pairs.len(),
            n_filtered: pairs.len() - candidates.len(),
            ..BatchRecord::default()
        });
        candidates
    }

    /// Open one accumulating trace record for a streaming driver that
    /// admits pairs one at a time ([`ClusterCore::admit_one`]).
    pub fn open_stream(&mut self) {
        self.trace.batches.push(BatchRecord::default());
    }

    /// Admit a single pair into the open stream record (see
    /// [`ClusterCore::open_stream`]).
    pub fn admit_one(&mut self, p: &MatchPair) -> Option<Candidate> {
        self.pairs_consumed += 1;
        let candidate = Self::filter(&mut self.state, self.set, p);
        if let Some(last) = self.trace.batches.last_mut() {
            last.n_generated += 1;
            if candidate.is_none() {
                last.n_filtered += 1;
            }
        }
        candidate
    }

    /// Fold a verdict set into the state: record the alignment work on the
    /// most recent trace record, and apply every accepted verdict (cluster
    /// merge in CCD, redundancy mark in RR).
    pub fn absorb(&mut self, verdicts: impl IntoIterator<Item = Verdict>) {
        let mut task_cells = Vec::new();
        let (mut computed, mut skipped) = (0u64, 0u64);
        for v in verdicts {
            task_cells.push(v.cells);
            computed += v.cells_computed;
            skipped += v.cells_skipped;
            if v.accept {
                match &mut self.state {
                    ModeState::Ccd { uf, edges, n_merges } => {
                        edges.push((SeqId(v.a), SeqId(v.b)));
                        if uf.union(v.a, v.b) {
                            *n_merges += 1;
                        }
                    }
                    ModeState::Rr { redundant, removed } => {
                        // First containment wins; later verdicts against an
                        // already-removed candidate are no-ops.
                        if redundant[v.a as usize].is_none() {
                            redundant[v.a as usize] = Some(SeqId(v.b));
                            removed.push((SeqId(v.a), SeqId(v.b)));
                        }
                    }
                }
            }
        }
        if let Some(last) = self.trace.batches.last_mut() {
            last.n_aligned += task_cells.len();
            last.align_cells += task_cells.iter().sum::<u64>();
            last.task_cells.extend(task_cells);
            last.cells_computed += computed;
            last.cells_skipped += skipped;
        }
    }

    /// Snapshot the mid-phase state as a checkpoint cursor (CCD only).
    pub fn cursor(&self) -> CcdCursor {
        match &self.state {
            ModeState::Ccd { uf, edges, n_merges } => {
                let (parent, rank) = uf.parts();
                CcdCursor {
                    pairs_consumed: self.pairs_consumed,
                    gen_chunk_bytes: 0,
                    uf_parent: parent.to_vec(),
                    uf_rank: rank.to_vec(),
                    edges: edges.iter().map(|&(a, b)| (a.0, b.0)).collect(),
                    n_merges: *n_merges,
                    trace: self.trace.clone(),
                }
            }
            ModeState::Rr { .. } => panic!("checkpoint cursors exist only for the CCD phase"),
        }
    }

    /// Export this core's forest and accepted edges for a merge-tree
    /// exchange (CCD only — panics on an RR core, like
    /// [`ClusterCore::cursor`]).
    pub fn export_forest(&self) -> ShardForest {
        match &self.state {
            ModeState::Ccd { uf, edges, .. } => {
                let (parent, rank) = uf.parts();
                ShardForest {
                    parent: parent.to_vec(),
                    rank: rank.to_vec(),
                    edges: edges.iter().map(|&(a, b)| (a.0, b.0)).collect(),
                }
            }
            ModeState::Rr { .. } => panic!("shard forests exist only for the CCD phase"),
        }
    }

    /// Fold a peer shard's exported forest into this core (CCD only):
    /// union every element with its exported parent and append the
    /// peer's accepted edges. Successful unions count toward `n_merges`,
    /// so after a full merge tree the counter equals the single-master
    /// value — both are `n − final component count`, because every
    /// successful union shrinks the set count by exactly one from the
    /// same `n` singletons.
    pub fn merge_forest(&mut self, peer: &ShardForest) {
        match &mut self.state {
            ModeState::Ccd { uf, edges, n_merges } => {
                assert_eq!(
                    peer.parent.len(),
                    uf.len(),
                    "shard forests must cover the same sequence universe"
                );
                for (x, &p) in peer.parent.iter().enumerate() {
                    if uf.union(x as u32, p) {
                        *n_merges += 1;
                    }
                }
                edges.extend(peer.edges.iter().map(|&(a, b)| (SeqId(a), SeqId(b))));
            }
            ModeState::Rr { .. } => panic!("shard forests exist only for the CCD phase"),
        }
    }

    /// Record the suffix-tree nodes the pair supply visited.
    pub fn set_nodes_visited(&mut self, n: u64) {
        self.trace.nodes_visited = n;
    }

    /// Record a cost-aware scheduler's dispatch counters on the most
    /// recent trace record: chunks packed this round and how many of them
    /// were executed by a worker other than the one they were packed for.
    pub fn note_dispatch(&mut self, n_chunks: usize, n_steals: usize) {
        if let Some(last) = self.trace.batches.last_mut() {
            last.n_chunks += n_chunks;
            last.n_steals += n_steals;
        }
    }

    /// Record recovery-plane activity on the most recent trace record:
    /// leases requeued by timeout/death, transient transport retries, and
    /// speculative duplicates (issued / won). No-op before the first
    /// batch — recovery can only act on work that was dispatched.
    pub fn note_recovery(
        &mut self,
        n_requeued: usize,
        n_retries: u64,
        n_spec_issued: usize,
        n_spec_wins: usize,
    ) {
        if let Some(last) = self.trace.batches.last_mut() {
            last.n_requeued += n_requeued;
            last.n_retries += n_retries;
            last.n_spec_issued += n_spec_issued;
            last.n_spec_wins += n_spec_wins;
        }
    }
}

impl CcdResult {
    /// The empty clustering (empty input short-circuit).
    pub fn empty() -> CcdResult {
        CcdResult {
            components: Vec::new(),
            edges: Vec::new(),
            n_merges: 0,
            trace: PhaseTrace::default(),
        }
    }

    /// Assemble the phase result from a finished core — the single
    /// constructor every CCD driver funnels through.
    pub fn from_core(core: ClusterCore<'_>) -> CcdResult {
        match core.state {
            ModeState::Ccd { mut uf, edges, n_merges } => CcdResult {
                components: uf
                    .groups()
                    .into_iter()
                    .map(|g| g.into_iter().map(SeqId).collect())
                    .collect(),
                edges,
                n_merges,
                trace: core.trace,
            },
            ModeState::Rr { .. } => panic!("CcdResult::from_core on an RR core"),
        }
    }

    /// Rebuild a completed phase's result from its stored cursor — no
    /// index rebuild, no realignment (the checkpoint fast path).
    pub fn from_cursor(cursor: CcdCursor) -> CcdResult {
        let mut uf = UnionFind::from_parts(cursor.uf_parent, cursor.uf_rank);
        CcdResult {
            components: uf
                .groups()
                .into_iter()
                .map(|g| g.into_iter().map(SeqId).collect())
                .collect(),
            edges: cursor.edges.iter().map(|&(a, b)| (SeqId(a), SeqId(b))).collect(),
            n_merges: cursor.n_merges,
            trace: cursor.trace,
        }
    }
}

impl RrResult {
    /// The empty RR outcome (empty input short-circuit).
    pub fn empty() -> RrResult {
        RrResult { kept: Vec::new(), removed: Vec::new(), trace: PhaseTrace::default() }
    }

    /// Assemble the phase result from a finished core.
    pub fn from_core(core: ClusterCore<'_>) -> RrResult {
        match core.state {
            ModeState::Rr { redundant, removed } => RrResult {
                kept: (0..core.set.len() as u32)
                    .map(SeqId)
                    .filter(|id| redundant[id.index()].is_none())
                    .collect(),
                removed,
                trace: core.trace,
            },
            ModeState::Ccd { .. } => panic!("RrResult::from_core on a CCD core"),
        }
    }
}

/// Verdict computation for one phase: the single place the alignment
/// engine is consulted. `Sync`, so policies may share it across worker
/// threads; each thread uses its own scratch arena inside the engine.
pub struct Verifier {
    engine: pfam_align::AlignEngine,
    phase: CorePhase,
}

impl Verifier {
    /// Build the verifier `config` selects for `phase`.
    pub fn new(config: &ClusterConfig, phase: CorePhase) -> Verifier {
        Verifier { engine: config.engine(), phase }
    }

    /// Verify a candidate batch across the rayon pool. The engine bins
    /// the batch into lane groups by pair shape
    /// ([`pfam_align::AlignEngine::plan_batch`]); the pool runs whole
    /// groups, and verdicts come back in candidate order.
    pub fn verify_par(&self, set: &dyn SeqStore, candidates: &[Candidate]) -> Vec<Verdict> {
        use rayon::prelude::*;
        let units = self.plan(set, candidates);
        let verdicts: Vec<Vec<Verdict>> =
            units.par_iter().map(|unit| self.verify_unit(set, candidates, unit)).collect();
        scatter(candidates.len(), &units, verdicts)
    }

    /// Verify a candidate batch on the calling thread (worker ranks), with
    /// the same lane groups as [`Self::verify_par`].
    pub fn verify_seq(&self, set: &dyn SeqStore, candidates: &[Candidate]) -> Vec<Verdict> {
        let units = self.plan(set, candidates);
        let verdicts: Vec<Vec<Verdict>> =
            units.iter().map(|unit| self.verify_unit(set, candidates, unit)).collect();
        scatter(candidates.len(), &units, verdicts)
    }

    fn criterion(&self) -> Criterion {
        match self.phase {
            CorePhase::Ccd => Criterion::Overlap,
            CorePhase::Rr => Criterion::Containment,
        }
    }

    /// The batch's dispatch units: lane groups, from lengths alone.
    fn plan(&self, set: &dyn SeqStore, candidates: &[Candidate]) -> Vec<Vec<u32>> {
        let shapes: Vec<(usize, usize)> =
            candidates.iter().map(|c| (set.seq_len(c.a), set.seq_len(c.b))).collect();
        self.engine.plan_batch(self.criterion(), &shapes)
    }

    /// Verify one unit. The residues come through
    /// [`SeqStore::codes_cow`], so a paged store fetches exactly the
    /// sequences the unit's alignments touch (the batch-fetch seam of the
    /// out-of-core plane); the in-memory store borrows from its arena.
    fn verify_unit(
        &self,
        set: &dyn SeqStore,
        candidates: &[Candidate],
        unit: &[u32],
    ) -> Vec<Verdict> {
        let members: Vec<&Candidate> = unit.iter().map(|&k| &candidates[k as usize]).collect();
        let codes: Vec<_> =
            members.iter().map(|c| (set.codes_cow(c.a), set.codes_cow(c.b))).collect();
        let pairs: Vec<_> =
            codes.iter().zip(&members).map(|((x, y), c)| (&x[..], &y[..], c.anchor)).collect();
        let verdicts = self.engine.verify_group(self.criterion(), &pairs);
        members
            .iter()
            .zip(&pairs)
            .zip(verdicts)
            .map(|((c, (x, y, _)), v)| Verdict {
                a: c.a.0,
                b: c.b.0,
                accept: v.accept,
                cells: (x.len() as u64) * (y.len() as u64),
                cells_computed: v.cells_computed,
                cells_skipped: v.cells_skipped,
            })
            .collect()
    }
}

/// Put per-unit verdicts back in candidate order.
fn scatter(n: usize, units: &[Vec<u32>], verdicts: Vec<Vec<Verdict>>) -> Vec<Verdict> {
    let mut out: Vec<Option<Verdict>> = vec![None; n];
    for (unit, vs) in units.iter().zip(verdicts) {
        for (&k, v) in unit.iter().zip(vs) {
            out[k as usize] = Some(v);
        }
    }
    out.into_iter().map(|v| v.expect("every candidate belongs to one unit")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_seq::{SequenceSet, SequenceSetBuilder};

    fn set_of(seqs: &[&str]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
        }
        b.finish()
    }

    fn pair(a: u32, b: u32) -> MatchPair {
        MatchPair::new(SeqId(a), SeqId(b), 10)
    }

    fn accept(a: u32, b: u32) -> Verdict {
        Verdict { a, b, accept: true, cells: 4, cells_computed: 4, cells_skipped: 0 }
    }

    #[test]
    fn ccd_filter_skips_co_clustered_pairs() {
        let set = set_of(&["MKVLW", "MKVLW", "MKVLW"]);
        let mut core = ClusterCore::new_ccd(&set);
        let c = core.admit_batch(&[pair(0, 1)]);
        assert_eq!(c.len(), 1);
        core.absorb(vec![accept(0, 1)]);
        // 0 and 1 are now co-clustered: the pair is filtered, 0–2 is not.
        let c = core.admit_batch(&[pair(0, 1), pair(0, 2)]);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].a, SeqId(0));
        assert_eq!(c[0].b, SeqId(2));
        let r = CcdResult::from_core(core);
        assert_eq!(r.trace.total_generated(), 3);
        assert_eq!(r.trace.total_filtered(), 1);
        assert_eq!(r.n_merges, 1);
    }

    #[test]
    fn rr_orientation_marks_the_shorter_sequence() {
        let set = set_of(&["MKVLWAAKND", "MKVLW"]);
        let mut core = ClusterCore::new_rr(&set);
        let c = core.admit_batch(&[pair(0, 1)]);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].a, SeqId(1), "shorter sequence is the removal candidate");
        assert_eq!(c[0].b, SeqId(0));
        core.absorb(vec![accept(1, 0)]);
        let r = RrResult::from_core(core);
        assert_eq!(r.kept, vec![SeqId(0)]);
        assert_eq!(r.removed, vec![(SeqId(1), SeqId(0))]);
    }

    #[test]
    fn cursor_round_trips_through_resume() {
        let set = set_of(&["MKVLW", "MKVLW", "GGHHW"]);
        let mut core = ClusterCore::new_ccd(&set);
        core.admit_batch(&[pair(0, 1)]);
        core.absorb(vec![accept(0, 1)]);
        let cursor = core.cursor();
        assert_eq!(cursor.pairs_consumed, 1);

        let resumed = ClusterCore::resume_ccd(&set, cursor.clone());
        assert_eq!(resumed.pairs_consumed(), 1);
        assert_eq!(resumed.cursor(), cursor);
        let (a, b) = (CcdResult::from_core(core), CcdResult::from_core(resumed));
        assert_eq!(a.components, b.components);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn completed_cursor_rebuilds_identical_result() {
        let set = set_of(&["MKVLW", "MKVLW", "GGHHW"]);
        let mut core = ClusterCore::new_ccd(&set);
        core.admit_batch(&[pair(0, 1), pair(1, 2)]);
        core.absorb(vec![accept(0, 1)]);
        let result = CcdResult::from_core(core);
        let rebuilt = CcdResult::from_cursor(CcdCursor::from_result(&result, set.len()));
        assert_eq!(rebuilt.components, result.components);
        assert_eq!(rebuilt.edges, result.edges);
        assert_eq!(rebuilt.n_merges, result.n_merges);
        assert_eq!(rebuilt.trace, result.trace);
    }

    #[test]
    fn forest_merge_is_order_independent_and_counts_merges() {
        let set = set_of(&["MKVLW"; 6]);
        // Two "shards" over the same universe, each seeing different pairs.
        let mut a = ClusterCore::new_ccd(&set);
        a.admit_batch(&[pair(0, 1), pair(2, 3)]);
        a.absorb(vec![accept(0, 1), accept(2, 3)]);
        let mut b = ClusterCore::new_ccd(&set);
        b.admit_batch(&[pair(1, 2), pair(4, 5)]);
        b.absorb(vec![accept(1, 2), accept(4, 5)]);

        // Single-master reference: all four edges through one core.
        let mut single = ClusterCore::new_ccd(&set);
        single.admit_batch(&[pair(0, 1), pair(2, 3), pair(1, 2), pair(4, 5)]);
        single.absorb(vec![accept(0, 1), accept(2, 3), accept(1, 2), accept(4, 5)]);
        let single = CcdResult::from_core(single);

        let (fa, fb) = (a.export_forest(), b.export_forest());
        let mut ab = ClusterCore::new_ccd(&set);
        ab.merge_forest(&fa);
        ab.merge_forest(&fb);
        let mut ba = ClusterCore::new_ccd(&set);
        ba.merge_forest(&fb);
        ba.merge_forest(&fa);
        let (ab, ba) = (CcdResult::from_core(ab), CcdResult::from_core(ba));
        assert_eq!(ab.components, single.components);
        assert_eq!(ba.components, single.components);
        assert_eq!(ab.n_merges, single.n_merges, "n − components either way");
        assert_eq!(ba.n_merges, single.n_merges);
    }

    #[test]
    #[should_panic(expected = "same sequence universe")]
    fn forest_merge_rejects_mismatched_universe() {
        let set = set_of(&["MKVLW"; 3]);
        let small = set_of(&["MKVLW"; 2]);
        let mut core = ClusterCore::new_ccd(&set);
        let forest = ClusterCore::new_ccd(&small).export_forest();
        core.merge_forest(&forest);
    }

    #[test]
    fn stream_mode_accumulates_one_record() {
        let set = set_of(&["MKVLW", "MKVLW", "MKVLW"]);
        let mut core = ClusterCore::new_ccd(&set);
        core.open_stream();
        assert!(core.admit_one(&pair(0, 1)).is_some());
        core.absorb(vec![accept(0, 1)]);
        assert!(core.admit_one(&pair(0, 1)).is_none(), "filtered after the merge");
        let r = CcdResult::from_core(core);
        assert_eq!(r.trace.batches.len(), 1);
        assert_eq!(r.trace.total_generated(), 2);
        assert_eq!(r.trace.total_filtered(), 1);
    }
}
