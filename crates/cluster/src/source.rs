//! Where promising pairs come from — the first of the three pluggable
//! axes around [`crate::core::ClusterCore`].
//!
//! A [`PairSource`] yields batches of [`MatchPair`]s in the order the
//! clustering loop should consume them (decreasing maximal-match length —
//! the paper's "longest match first" discipline). Three implementations
//! cover every driver in this crate:
//!
//! * [`MinedSource`] — the suffix-index generator: serial when
//!   `threads == 1` (the reference path), eagerly mined across threads
//!   otherwise, with identical output either way. The rank-partitioned
//!   SPMD variant is [`MinedSource::partitioned`].
//! * [`IterSource`] — any explicit pair stream; the ablation hook
//!   (`run_ccd_from_pairs`) and the pre-collected sources in the
//!   driver-equivalence matrix tests.
//! * [`PartitionedMinedSource`] — the out-of-core generator: a
//!   byte-per-residue text resident, suffixes ranked a group of prefix
//!   buckets at a time
//!   under a [`pfam_seq::MemoryBudget`] (see
//!   [`pfam_suffix::BucketedMiner`]); its stream is [`MinedSource`]'s,
//!   pair for pair, in the same order.
//!
//! The suffix index borrows the sequence set transitively (set → GSA →
//! tree → generator), so [`with_mined_source`] owns that borrow chain and
//! lends the finished source to a closure. [`with_source`] is the
//! budget-aware front door every driver routes through: it picks the
//! monolithic or partitioned generator from the [`crate::config::MemParams`]
//! knobs and the store's residency, packing smaller bucket groups instead
//! of aborting when the budget binds.

use std::ops::Range;

use pfam_seq::{BudgetError, MemoryBudget, SeqId, SeqStore, SequenceSet};
use pfam_suffix::{
    estimated_index_bytes, estimated_text_bytes, promising_pairs, BucketCensus, BucketedMiner,
    ChunkPlan, GeneralizedSuffixArray, MatchPair, MaximalMatchConfig, MaximalMatchGenerator,
    SuffixTree,
};

use crate::config::ClusterConfig;
use crate::lsh::{HybridSource, SketchMode, SketchSource};

/// Generation-plan pin for the approximate sketch source
/// ([`crate::lsh::SketchSource`]): the sketch stream has no chunk plan,
/// so its cursors pin a reserved sentinel instead of an index target.
pub const PIN_SKETCH_APPROX: u64 = u64::MAX;
/// Generation-plan pin for the hybrid sketch source
/// ([`crate::lsh::HybridSource`]).
pub const PIN_SKETCH_HYBRID: u64 = u64::MAX - 1;

/// A stream of promising pairs, drawn batch-wise by a
/// [`crate::policy::WorkPolicy`]. An empty batch means the source is
/// exhausted (sources never yield an empty batch mid-stream).
pub trait PairSource {
    /// Pull up to `max` pairs. A batch shorter than `max` means the
    /// stream is exhausted — the pull/push worker protocols rely on that
    /// to piggyback end-of-stream on the last real batch, so sources
    /// must fill the batch while pairs remain.
    fn next_batch(&mut self, max: usize) -> Vec<MatchPair>;

    /// Suffix-tree nodes visited producing the stream so far (0 for
    /// sources that never touched an index).
    fn nodes_visited(&self) -> u64 {
        0
    }

    /// Discard the next `n` pairs — deterministic checkpoint replay:
    /// the generation order is bit-identical across runs, so skipping the
    /// consumed prefix lands exactly where a checkpointed run stopped.
    fn skip(&mut self, n: u64) {
        for _ in 0..n {
            if self.next_batch(1).is_empty() {
                break;
            }
        }
    }
}

/// Pairs mined from the generalized suffix tree.
pub struct MinedSource<'a> {
    inner: pfam_suffix::PairSource<'a>,
}

impl<'a> MinedSource<'a> {
    /// Mine the whole tree: serial generation when `threads == 1`, eager
    /// parallel mining otherwise (`0` = all cores); output order and
    /// content are identical in both modes.
    pub fn new(tree: &'a SuffixTree<'a>, config: MaximalMatchConfig, threads: usize) -> Self {
        MinedSource { inner: promising_pairs(tree, config, threads) }
    }

    /// Mine only `nodes` — one rank's slice of a prefix-partitioned
    /// suffix space (the SPMD workers' source).
    pub fn partitioned(
        tree: &'a SuffixTree<'a>,
        config: MaximalMatchConfig,
        nodes: Vec<pfam_suffix::tree::NodeId>,
    ) -> Self {
        MinedSource {
            inner: pfam_suffix::PairSource::Serial(MaximalMatchGenerator::with_nodes(
                tree, config, nodes,
            )),
        }
    }
}

impl PairSource for MinedSource<'_> {
    fn next_batch(&mut self, max: usize) -> Vec<MatchPair> {
        self.inner.by_ref().take(max).collect()
    }

    fn nodes_visited(&self) -> u64 {
        self.inner.stats().nodes_visited as u64
    }
}

/// A chunk loader: global id range → in-memory set (ids renumbered from
/// 0) with the config's index-side masking already applied. Masking is
/// per-sequence, so chunk-level masking equals whole-set masking.
fn chunk_loader(
    store: &dyn SeqStore,
    mask: Option<pfam_seq::complexity::MaskParams>,
) -> impl FnMut(Range<u32>) -> SequenceSet + '_ {
    move |r: Range<u32>| {
        let chunk = store.load_range(r);
        match mask {
            None => chunk,
            Some(_) => crate::mask::index_view(&chunk, &mask).into_owned(),
        }
    }
}

/// Default per-group index target when partitioning is forced (paged
/// store) but neither a chunk size nor a budget limit is configured.
const DEFAULT_CHUNK_INDEX_BYTES: u64 = 256 << 20;

/// Sequence lengths of every sequence in `store`, in id order.
fn store_lens(store: &dyn SeqStore) -> Vec<u32> {
    (0..store.len()).map(|i| store.seq_len(SeqId(i as u32)) as u32).collect()
}

/// Pairs mined from a prefix-bucketed suffix index — the out-of-core
/// counterpart of [`MinedSource`], with the same stream: same pairs,
/// same order, same anchors, whatever the plan.
pub struct PartitionedMinedSource {
    miner: BucketedMiner,
    /// The per-group index target the miner settled on — the value a
    /// checkpoint cursor records as its generation-plan pin.
    chunk_target: u64,
}

impl PartitionedMinedSource {
    /// Build the bucketed generator over `store`. The group target is
    /// [`crate::config::MemParams::index_chunk_bytes`] when set, else the
    /// budget left once the resident text is reserved, else a 256 MiB
    /// default; the store is paged in by a [`ChunkPlan`] of the same
    /// target. When even the text plus the largest prefix bucket exceeds
    /// the budget the miner runs accounting-only rather than aborting —
    /// the fallible pipeline surface ([`check_index_budget`]) reports
    /// that case as a typed error before any driver gets here.
    pub fn new(
        store: &dyn SeqStore,
        config: &ClusterConfig,
        psi: u32,
        threads: usize,
    ) -> PartitionedMinedSource {
        let mm = MaximalMatchConfig {
            min_len: psi,
            max_pairs_per_node: config.max_pairs_per_node,
            dedup: true,
        };
        let budget = &config.mem.budget;
        let lens = store_lens(store);
        let chunk_target = if config.mem.index_chunk_bytes > 0 {
            config.mem.index_chunk_bytes
        } else if budget.is_limited() {
            let residues = lens.iter().map(|&l| l as usize).sum();
            let text = estimated_text_bytes(residues, lens.len());
            budget.remaining().saturating_sub(text).max(1)
        } else {
            DEFAULT_CHUNK_INDEX_BYTES
        };
        let plan = ChunkPlan::plan(&lens, chunk_target);
        let loader = chunk_loader(store, config.mask);
        let miner =
            match BucketedMiner::try_new(plan.clone(), loader, mm, threads, chunk_target, budget) {
                Ok(miner) => miner,
                // Over budget: run accounting-only (never abort mid-drive).
                Err(_) => BucketedMiner::new(
                    plan,
                    chunk_loader(store, config.mask),
                    mm,
                    threads,
                    chunk_target,
                ),
            };
        PartitionedMinedSource { miner, chunk_target }
    }

    /// The load plan the store was paged in by.
    pub fn plan(&self) -> &ChunkPlan {
        self.miner.plan()
    }

    /// Number of prefix-bucket groups the suffixes are ranked in.
    pub fn n_groups(&self) -> usize {
        self.miner.n_groups()
    }

    /// Prefix buckets holding at least one suffix (the most groups any
    /// target can produce).
    pub fn n_buckets(&self) -> usize {
        self.miner.census().nonempty_buckets()
    }

    /// The per-group index target the miner settled on — what a
    /// checkpoint cursor records as its generation-plan pin.
    pub fn chunk_target(&self) -> u64 {
        self.chunk_target
    }
}

impl PairSource for PartitionedMinedSource {
    fn next_batch(&mut self, max: usize) -> Vec<MatchPair> {
        self.miner.by_ref().take(max).collect()
    }

    fn nodes_visited(&self) -> u64 {
        self.miner.stats().nodes_visited as u64
    }
}

/// An explicit pair stream (ablations, tests, replay from a recording).
pub struct IterSource<I> {
    inner: I,
}

impl<I: Iterator<Item = MatchPair>> IterSource<I> {
    /// Wrap any pair iterator.
    pub fn new(inner: I) -> Self {
        IterSource { inner }
    }
}

impl<I: Iterator<Item = MatchPair>> PairSource for IterSource<I> {
    fn next_batch(&mut self, max: usize) -> Vec<MatchPair> {
        self.inner.by_ref().take(max).collect()
    }
}

/// Build the suffix index for `set` (masked view, GSA, tree), open a
/// [`MinedSource`] over it with match cutoff `psi`, and lend it to `f`.
///
/// `threads` controls both index construction and mining (`1` pins the
/// serial reference path, `0` uses all cores); every value is
/// output-identical.
pub fn with_mined_source<R>(
    set: &SequenceSet,
    config: &ClusterConfig,
    psi: u32,
    threads: usize,
    f: impl FnOnce(&mut MinedSource<'_>) -> R,
) -> R {
    let index_set = crate::mask::index_view(set, &config.mask);
    let gsa = GeneralizedSuffixArray::build_parallel(&index_set, threads);
    let tree = SuffixTree::build(&gsa);
    let mut source = MinedSource::new(
        &tree,
        MaximalMatchConfig {
            min_len: psi,
            max_pairs_per_node: config.max_pairs_per_node,
            dedup: true,
        },
        threads,
    );
    f(&mut source)
}

/// The budget-aware front door every in-process driver routes through:
/// build a pair source for `store` honouring [`crate::config::MemParams`]
/// and lend it to `f`.
///
/// Routing: sketch modes first — [`crate::config::ClusterConfig::sketch`]
/// in `Approx`/`Hybrid` mode routes to the LSH sources ([`SketchSource`]
/// / [`HybridSource`]), which is how every driver, shard router, and
/// steal/lease policy picks up the sketch plane without changing.
/// Otherwise the exact miner: the monolithic [`MinedSource`] when the
/// store is in-memory, no chunk size is forced, and the whole index fits
/// the budget (reserving its footprint for the duration of `f`); else the
/// [`PartitionedMinedSource`], whose bucket groups shrink under the
/// budget instead of aborting. The exact variants yield the same stream,
/// pair for pair, so every result is identical either way; `Approx`
/// changes the pair set per the banding curve.
pub fn with_source<R>(
    store: &dyn SeqStore,
    config: &ClusterConfig,
    psi: u32,
    threads: usize,
    f: impl FnOnce(&mut dyn PairSource) -> R,
) -> R {
    with_source_pinned(store, config, psi, threads, None, |source, _| f(source))
}

/// [`with_source`] with an explicit generation-plan pin — the
/// checkpoint-resume seam.
///
/// `pairs_consumed` in a [`crate::core::CcdCursor`] is a position in one
/// specific generation order. Every emitted cursor pins the source it was
/// generated under (`0` = monolithic, [`PIN_SKETCH_APPROX`] /
/// [`PIN_SKETCH_HYBRID`] = the deterministic sketch streams, else the
/// settled per-group target), and resume passes that pin here. A sketch
/// pin rebuilds that sketch stream; an exact pin (0 or any target)
/// rebuilds the exact stream, routed by *this* run's
/// [`crate::config::MemParams`] — the monolithic and bucketed miners emit
/// the same order for every plan, so the replay is byte-identical under
/// any chunk size or budget. The closure receives the settled pin so
/// fresh runs can stamp it into the cursors they emit.
pub fn with_source_pinned<R>(
    store: &dyn SeqStore,
    config: &ClusterConfig,
    psi: u32,
    threads: usize,
    pin: Option<u64>,
    f: impl FnOnce(&mut dyn PairSource, u64) -> R,
) -> R {
    let mode = match pin {
        Some(PIN_SKETCH_APPROX) => SketchMode::Approx,
        Some(PIN_SKETCH_HYBRID) => SketchMode::Hybrid,
        Some(_) => SketchMode::Exact,
        None => config.sketch.mode,
    };
    match mode {
        // Sketch streams are a pure function of the store and
        // SketchParams, so their pin carries no plan payload.
        SketchMode::Approx => {
            let mut source = SketchSource::new(store, config, psi, threads);
            f(&mut source, PIN_SKETCH_APPROX)
        }
        SketchMode::Hybrid => {
            let mut source = HybridSource::new(store, config, psi, threads);
            f(&mut source, PIN_SKETCH_HYBRID)
        }
        SketchMode::Exact => {
            if config.mem.index_chunk_bytes == 0 {
                if let Some(set) = store.as_sequence_set() {
                    let estimate = estimated_index_bytes(set.total_residues(), set.len());
                    if let Ok(_held) = config.mem.budget.try_reserve("gsa-index", estimate) {
                        return with_mined_source(set, config, psi, threads, |source| f(source, 0));
                    }
                }
            }
            let mut source = PartitionedMinedSource::new(store, config, psi, threads);
            let target = source.chunk_target();
            f(&mut source, target)
        }
    }
}

/// The fallible budget check for the pipeline's budgeted entry points:
/// `Err` iff the *minimum feasible* index — the encoded text resident
/// plus the rank arrays of the largest prefix bucket, the smallest group
/// the bucketed miner can pack — exceeds the remaining budget, i.e. no
/// group size makes the index fit. Buckets are counted over the
/// unmasked store at the longest prefix ([`pfam_suffix::MAX_BUCKET_PREFIX`]
/// residues, the prefix of every cutoff at least that long); masking
/// only removes suffixes, so the figure bounds every masked run. The
/// store is read range by range. Drivers themselves never abort; this is
/// where the typed error surfaces instead.
pub fn check_index_budget(store: &dyn SeqStore, budget: &MemoryBudget) -> Result<(), BudgetError> {
    if !budget.is_limited() {
        return Ok(());
    }
    let plan = ChunkPlan::plan(&store_lens(store), DEFAULT_CHUNK_INDEX_BYTES);
    let mut census = BucketCensus::new(pfam_suffix::MAX_BUCKET_PREFIX);
    for c in 0..plan.n_chunks() {
        census.add(&store.load_range(plan.chunk_range(c)));
    }
    let need = census.min_index_bytes();
    if budget.would_fit(need) {
        Ok(())
    } else {
        Err(BudgetError {
            what: "partitioned-gsa",
            requested: need,
            in_use: budget.used(),
            limit: budget.limit().unwrap_or(u64::MAX),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_seq::{SeqId, SequenceSetBuilder};

    fn set_of(seqs: &[&str]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
        }
        b.finish()
    }

    #[test]
    fn iter_source_batches_and_exhausts() {
        let pairs: Vec<MatchPair> =
            (1..=5).map(|i| MatchPair::new(SeqId(0), SeqId(i), 10)).collect();
        let mut s = IterSource::new(pairs.into_iter());
        assert_eq!(s.next_batch(2).len(), 2);
        assert_eq!(s.next_batch(10).len(), 3);
        assert!(s.next_batch(1).is_empty(), "exhausted");
        assert_eq!(s.nodes_visited(), 0);
    }

    #[test]
    fn skip_is_prefix_discard() {
        let pairs: Vec<MatchPair> =
            (1..=5).map(|i| MatchPair::new(SeqId(0), SeqId(i), 10)).collect();
        let mut s = IterSource::new(pairs.clone().into_iter());
        s.skip(3);
        assert_eq!(s.next_batch(10), pairs[3..].to_vec());
        // Skipping past the end is harmless.
        s.skip(100);
        assert!(s.next_batch(1).is_empty());
    }

    #[test]
    fn check_index_budget_boundary_is_text_plus_the_largest_bucket() {
        let set = set_of(&[
            "MKVLWAAKNDCQEGHILKMFPSTWYV",
            "MKVLWAAKNDCQEGHILKMFPSTWYV",
            "GHILPWYVRNDAAKXCQQEEGGHHII",
        ]);
        let mut census = BucketCensus::new(pfam_suffix::MAX_BUCKET_PREFIX);
        census.add(&set);
        let need = census.min_index_bytes();
        assert!(need < estimated_index_bytes(set.total_residues(), set.len()));

        let err = check_index_budget(&set, &MemoryBudget::limited(need - 1))
            .expect_err("need - 1 must be refused");
        assert_eq!(err.what, "partitioned-gsa");
        assert_eq!(err.requested, need);
        assert_eq!(err.limit, need - 1);
        check_index_budget(&set, &MemoryBudget::limited(need)).expect("need is admitted");
        check_index_budget(&set, &MemoryBudget::unlimited()).expect("no limit, no refusal");
    }

    #[test]
    fn mined_source_is_thread_count_invariant() {
        let set = set_of(&[
            "MKVLWAAKNDCQEGHILKMFPSTWYV",
            "MKVLWAAKNDCQEGHILKMFPSTWYV",
            "GHILPWYVRNDAAKCCQQEEGGHHII",
        ]);
        let config = ClusterConfig::for_short_sequences();
        let serial = with_mined_source(&set, &config, config.psi_ccd, 1, |s| s.next_batch(10_000));
        let mined = with_mined_source(&set, &config, config.psi_ccd, 2, |s| s.next_batch(10_000));
        assert!(!serial.is_empty());
        assert_eq!(serial, mined, "mining must be output-identical across thread counts");
    }
}
