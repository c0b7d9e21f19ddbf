//! Engine configuration: the user-tunable cutoffs of the paper
//! (footnote 3: "the cutoffs mentioned as part of our approach ... are
//! values that can be specified by the user as software parameters").

use pfam_align::{AlignEngine, AlignEngineKind, ContainmentParams, OverlapParams};
use pfam_seq::complexity::MaskParams;
use pfam_seq::{MemoryBudget, ScoringScheme};

use crate::lsh::SketchParams;
use crate::policy::{LeaseKnobs, REQUEST_TIMEOUT};

/// Configuration shared by the RR and CCD phases.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Scoring scheme for verification alignments (BLOSUM62 11/1 default).
    pub scheme: ScoringScheme,
    /// Maximal-match length cutoff ψ for the RR phase. The paper derives
    /// ψ from the similarity cutoff: 98 % over 100 aligned residues forces
    /// a 33-residue exact match; for the 95 % containment test a more
    /// permissive ψ is used so that true containments are not missed.
    pub psi_rr: u32,
    /// Maximal-match cutoff ψ for the CCD phase (paper: 10 residues).
    pub psi_ccd: u32,
    /// Definition-1 containment parameters.
    pub containment: ContainmentParams,
    /// Definition-2 overlap parameters.
    pub overlap: OverlapParams,
    /// Master-round batch size: pairs pulled from the generator per round.
    pub batch_size: usize,
    /// Per-tree-node pair cap (guards low-complexity blowups).
    pub max_pairs_per_node: usize,
    /// Optional low-complexity masking applied to the *index* copy of the
    /// sequences: masked residues become `X` and generate no promising
    /// pairs, while verification alignments still see the original
    /// residues. `None` disables masking.
    pub mask: Option<MaskParams>,
    /// Worker-thread count for index construction and pair generation:
    /// `0` uses every available core, `1` forces the serial reference
    /// path, `n` uses exactly `n` workers. Outputs are bit-identical for
    /// every value.
    pub threads: usize,
    /// Whether to use the parallel index builders at all. On by default —
    /// safe because parallel construction is output-identical to serial;
    /// turn off to pin the serial code path (e.g. for ablation timing).
    pub parallel_index: bool,
    /// Which alignment engine the verification alignments run through.
    /// `Tiered` (default) screens/kernels/subrectangles; `Reference` pins
    /// the full-matrix baseline. Verdicts — and therefore components and
    /// `families.tsv` — are bit-identical for both.
    pub align_engine: AlignEngineKind,
    /// Cost-model-driven work-stealing knobs for the
    /// [`crate::policy::StealingPush`] driver. Components are
    /// bit-identical for every setting; only wall-clock changes.
    pub steal: StealParams,
    /// Supervision/recovery-plane knobs for the fault-tolerant drivers
    /// (lease timeouts, transient retry, respawn, speculation).
    /// Components are bit-identical for every setting.
    pub recovery: RecoveryParams,
    /// Sharded clustering-plane knobs ([`crate::shard`]): how many master
    /// shards the sequence universe partitions across and how each shard
    /// drives its intra-shard CCD. Components are bit-identical for every
    /// setting (the merge tree is a transitive closure of the same
    /// accepted edges); only the scaling shape changes.
    pub shard: ShardParams,
    /// Memory-budget knobs for the out-of-core index plane
    /// ([`crate::source::with_source`]): the shared accounting budget the
    /// index builders reserve against, and the per-group index target of
    /// the prefix-bucketed miner. The exact pair stream (and therefore
    /// every result) is bit-identical for every setting.
    pub mem: MemParams,
    /// Sketch-plane knobs ([`crate::lsh`]): which candidate generator the
    /// front half runs (`Exact` pins the suffix-index miner; `Approx` and
    /// `Hybrid` route through the LSH sketch sources) and the banding
    /// shape. For a fixed setting the candidate stream is deterministic
    /// across drivers, shard counts, and thread counts; `Approx` trades
    /// recall for footprint per the banding curve, while `Hybrid` under
    /// exhaustive banding reproduces the exact pair set.
    pub sketch: SketchParams,
}

/// Knobs for the out-of-core index plane. The budget is *shared*
/// accounting state ([`MemoryBudget`] clones share one counter), so a
/// pipeline-wide budget threads through every phase's reservations.
#[derive(Debug, Clone, Default)]
pub struct MemParams {
    /// The memory budget index structures reserve against. Default:
    /// unlimited (accounting only, nothing refused).
    pub budget: MemoryBudget,
    /// Target rank-array bytes per bucket group for the out-of-core
    /// (prefix-bucketed) miner, which also pages the store in by ranges
    /// of this estimated index size. `0` = auto: monolithic when it fits
    /// the budget, otherwise groups sized to the budget left after the
    /// resident text; any positive value forces the bucketed path with
    /// groups of at most this many bytes (a single prefix bucket larger
    /// than the target gets a group of its own). The pair stream, and so
    /// every result, is the same for every value.
    pub index_chunk_bytes: u64,
}

impl MemParams {
    /// Params enforcing `bytes` as the budget limit (chunk sizing on auto).
    pub fn limited(bytes: u64) -> MemParams {
        MemParams { budget: MemoryBudget::limited(bytes), index_chunk_bytes: 0 }
    }

    /// Whether these params can route an index build down the partitioned
    /// path (either explicitly or via a binding budget).
    pub fn partitioning_requested(&self) -> bool {
        self.index_chunk_bytes > 0 || self.budget.is_limited()
    }
}

/// Which [`crate::policy::WorkPolicy`] drives each shard's intra-shard
/// CCD loop in the sharded plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardDriver {
    /// [`crate::policy::BatchedPush`] — the deterministic reference loop.
    Batched,
    /// [`crate::policy::StealingPush`] — cost-packed stealing deques.
    Stealing,
    /// [`crate::policy::LeasedPull`] — per-shard pull workers over the
    /// local channel transport.
    Pull,
}

/// Knobs for the sharded clustering plane ([`crate::shard`]). Sequence
/// ownership is a stable hash of the sequence id, cross-shard pairs route
/// to a deterministic owner shard, and shard forests merge up a binary
/// tree — so components are bit-identical to the single-master run for
/// every shard count and driver (the driver matrix pins this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardParams {
    /// Master shard count K. `0` or `1` disables the plane and routes
    /// through the single-master drivers.
    pub shards: usize,
    /// The intra-shard CCD driver.
    pub driver: ShardDriver,
    /// Verification workers per shard for the [`ShardDriver::Stealing`]
    /// and [`ShardDriver::Pull`] drivers.
    pub workers_per_shard: usize,
    /// Routed pairs buffered per shard before a batch goes on the wire
    /// (`0` = auto: the engine's `batch_size`).
    pub route_batch: usize,
}

impl Default for ShardParams {
    fn default() -> Self {
        ShardParams {
            shards: 1,
            driver: ShardDriver::Batched,
            workers_per_shard: 2,
            route_batch: 0,
        }
    }
}

impl ShardParams {
    /// Whether the sharded plane is engaged at all.
    pub fn enabled(&self) -> bool {
        self.shards > 1
    }

    /// The per-shard-pair routing batch with `0` resolved against the
    /// engine batch size.
    pub fn resolved_route_batch(&self, batch_size: usize) -> usize {
        if self.route_batch > 0 {
            self.route_batch
        } else {
            batch_size.max(1)
        }
    }
}

/// Knobs for the supervision and recovery plane
/// ([`crate::ft::run_ccd_ft_supervised`]). Everything here changes *when*
/// work is (re)issued and over *which* link, never what a verdict says —
/// the stale-discard lease protocol keeps components bit-identical under
/// every combination.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryParams {
    /// How long a lease may sit unanswered before its pairs are requeued.
    pub lease_timeout: std::time::Duration,
    /// Worker-side wait per pull-request poll.
    pub poll_interval: std::time::Duration,
    /// Transient send failures tolerated per peer before the circuit
    /// breaker quarantines it (moves it to the dead board).
    pub retry_budget: u32,
    /// Seed for deterministic retry-backoff jitter.
    pub retry_seed: u64,
    /// Base backoff between retry attempts (doubles per attempt).
    pub retry_backoff: std::time::Duration,
    /// Replacement incarnations the supervisor may spawn per rank
    /// (`0` disables respawn and the supervised runtime entirely).
    pub max_respawns: usize,
    /// How long the master tolerates a fully-dead worker pool before
    /// giving up, when respawn is enabled — the window the supervisor has
    /// to restore capacity.
    pub respawn_grace: std::time::Duration,
    /// Enable speculative re-execution of straggler leases.
    pub speculate: bool,
    /// Minimum lease age before a speculative duplicate may be issued.
    pub spec_min_wait: std::time::Duration,
    /// Multiplier over the cost-model-predicted service time before a
    /// lease counts as a straggler.
    pub spec_slack: f64,
}

impl Default for RecoveryParams {
    /// The lease and poll timings are the pull policy's own defaults
    /// ([`LeaseKnobs::default`], [`REQUEST_TIMEOUT`]), defined once there.
    fn default() -> Self {
        let lease = LeaseKnobs::default();
        RecoveryParams {
            lease_timeout: lease.lease_timeout,
            poll_interval: REQUEST_TIMEOUT,
            retry_budget: 4,
            retry_seed: 0x5EED,
            retry_backoff: std::time::Duration::from_micros(50),
            max_respawns: 0,
            respawn_grace: std::time::Duration::from_secs(1),
            speculate: lease.speculate,
            spec_min_wait: lease.spec_min_wait,
            spec_slack: lease.spec_slack,
        }
    }
}

/// Knobs for the cost-aware stealing scheduler
/// ([`crate::policy::StealingPush`]). All of them affect scheduling only:
/// predictions and steal schedules can never change a verdict, so
/// components are bit-identical for every combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StealParams {
    /// Route the CCD phase through [`crate::policy::StealingPush`]
    /// instead of the batched reference loop.
    pub enabled: bool,
    /// Verification worker threads (`0` = all available cores).
    pub workers: usize,
    /// Chunk oversubscription: chunks packed per worker per round. More
    /// chunks mean finer stealing granularity at higher dispatch cost.
    pub chunks_per_worker: usize,
    /// Pairs admitted per scheduling round (`0` = auto:
    /// `batch_size × workers × chunks_per_worker`, so each chunk carries
    /// roughly one reference batch's worth of pairs).
    pub round_pairs: usize,
    /// Seed for each worker's victim ordering — the injectable steal
    /// schedule the identity suites sweep.
    pub seed: u64,
}

impl Default for StealParams {
    fn default() -> Self {
        StealParams { enabled: false, workers: 0, chunks_per_worker: 4, round_pairs: 0, seed: 0 }
    }
}

impl StealParams {
    /// The worker count with `0` resolved to the machine's parallelism.
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }

    /// The per-round pair budget with `0` resolved against `batch_size`.
    pub fn resolved_round_pairs(&self, batch_size: usize) -> usize {
        if self.round_pairs > 0 {
            self.round_pairs
        } else {
            batch_size.max(1) * self.resolved_workers() * self.chunks_per_worker.max(1)
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            scheme: ScoringScheme::blosum62_default(),
            psi_rr: 15,
            psi_ccd: 10,
            containment: ContainmentParams::default(),
            overlap: OverlapParams::default(),
            // Small master rounds keep the transitive-closure filter sharp:
            // merges from one round prune the next round's pairs. PaCE
            // filters per pair; 128 is a batch granularity that preserves
            // most of that effect while still amortising worker dispatch.
            batch_size: 128,
            max_pairs_per_node: 100_000,
            mask: None,
            threads: 0,
            parallel_index: true,
            align_engine: AlignEngineKind::default(),
            steal: StealParams::default(),
            recovery: RecoveryParams::default(),
            shard: ShardParams::default(),
            mem: MemParams::default(),
            sketch: SketchParams::default(),
        }
    }
}

impl ClusterConfig {
    /// Config with small ψ values for short test sequences.
    pub fn for_short_sequences() -> ClusterConfig {
        ClusterConfig { psi_rr: 8, psi_ccd: 5, ..Default::default() }
    }

    /// Effective thread count for index construction: `1` (serial) when
    /// the parallel path is disabled, otherwise the `threads` knob as-is
    /// (`0` still means "all cores"; resolution happens downstream).
    pub fn index_threads(&self) -> usize {
        if self.parallel_index {
            self.threads
        } else {
            1
        }
    }

    /// Build the alignment engine this config selects (one per phase run;
    /// the engine is `Sync` and shared across worker threads).
    pub fn engine(&self) -> AlignEngine {
        AlignEngine::new(self.align_engine, self.scheme.clone(), self.containment, self.overlap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_defaults_are_the_pull_policys() {
        let r = RecoveryParams::default();
        let lease = LeaseKnobs::default();
        assert_eq!(r.lease_timeout, crate::policy::LEASE_TIMEOUT);
        assert_eq!(r.lease_timeout, lease.lease_timeout);
        assert_eq!(r.poll_interval, REQUEST_TIMEOUT);
        assert_eq!(r.speculate, lease.speculate);
        assert_eq!(r.spec_min_wait, lease.spec_min_wait);
        assert_eq!(r.spec_slack, lease.spec_slack);
    }

    #[test]
    fn defaults_are_papers() {
        let c = ClusterConfig::default();
        assert_eq!(c.psi_ccd, 10);
        assert_eq!(c.containment.min_similarity, 0.95);
        assert_eq!(c.overlap.min_similarity, 0.30);
        assert_eq!(c.overlap.min_longer_coverage, 0.80);
    }

    #[test]
    fn short_sequence_config_loosens_psi() {
        let c = ClusterConfig::for_short_sequences();
        assert!(c.psi_ccd < ClusterConfig::default().psi_ccd);
    }

    #[test]
    fn index_threads_honours_parallel_toggle() {
        let mut c = ClusterConfig::default();
        assert_eq!(c.index_threads(), 0); // all cores by default
        c.threads = 4;
        assert_eq!(c.index_threads(), 4);
        c.parallel_index = false;
        assert_eq!(c.index_threads(), 1); // toggle pins the serial path
    }
}
