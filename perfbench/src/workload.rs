//! The two workloads: what each generates from a seed, and how the
//! program is configured and fed for it.
//!
//! The program sees only the generated FASTA text; the ground-truth
//! families stay with the benchmark for the quality metrics.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use pfam_cluster::{SketchMode, SketchParams};
use pfam_core::{CheckpointConfig, PipelineConfig};
use pfam_datagen::{DatasetConfig, SyntheticDataset};
use pfam_seq::{PagedSeqStore, SeqId, SeqStore, SequenceSet};

/// Reads per workload at scale 1.
const LONGTAIL_ORFS: f64 = 12_000.0;
/// Page size of the paged store.
const PAGE_BYTES: usize = 64 << 10;
/// CCD checkpoint cadence of the paged workload, in master batches.
const CKPT_EVERY_BATCHES: usize = 32;
/// DSD checkpoint cadence of the paged workload, in components.
const CKPT_EVERY_COMPONENTS: usize = 256;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long-tail metagenome reads from a paged store under a memory
    /// budget, exact mode, with checkpoints.
    LongtailPaged,
    /// The same reads in memory, with hybrid (sketch + suffix confirm)
    /// pair generation.
    LongtailHybrid,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::LongtailPaged, Workload::LongtailHybrid];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LongtailPaged => "longtail_paged",
            Workload::LongtailHybrid => "longtail_hybrid",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the input goes through a paged on-disk store.
    pub fn paged(self) -> bool {
        self == Workload::LongtailPaged
    }
}

/// A generated workload: the program's input text plus ground truth.
pub struct Input {
    /// The reads as FASTA text.
    pub fasta: String,
    /// Ground-truth families (ids in input order), noise excluded.
    pub truth: Vec<Vec<SeqId>>,
}

/// Generate the reads every workload runs on from `seed`. `scale`
/// shrinks them (1 = the benchmark's size; the smoke tests use less).
pub fn generate(seed: u64, scale: f64) -> Input {
    let d = SyntheticDataset::generate(&longtail_config(LONGTAIL_ORFS * scale, seed));
    Input { fasta: pfam_seq::fasta::to_fasta_string(&d.set), truth: d.benchmark_clusters() }
}

/// The long-tail metagenome shape of `index_oc_bench`: many families of
/// about ten members (mild skew), short ORFs, 14 % redundant copies and
/// 10 % noise. reads ≈ members × 1.24.
fn longtail_config(n_orfs: f64, seed: u64) -> DatasetConfig {
    let members = ((n_orfs / 1.24).round() as usize).max(20);
    DatasetConfig {
        n_families: (members / 10).max(2),
        n_members: members,
        size_skew: 0.3,
        ancestor_len: 80..140,
        fragment_prob: 0.25,
        redundancy_frac: 0.14,
        n_noise: members / 10,
        seed,
        ..DatasetConfig::default()
    }
}

/// Parse the FASTA text (the in-memory ingest every workload pays).
pub fn ingest(fasta: &str) -> SequenceSet {
    pfam_seq::fasta::read_fasta(fasta.as_bytes()).expect("generated FASTA parses")
}

/// Write `set` as a paged store at `path` and open it.
pub fn write_store(set: &SequenceSet, path: &Path) -> PagedSeqStore {
    PagedSeqStore::write_set(path, set, PAGE_BYTES).expect("scratch directory is writable");
    PagedSeqStore::open(path).expect("the store just written opens")
}

/// The pipeline configuration `workload` runs under. Built fresh per
/// call: the memory budget is a shared ledger whose peak is per run.
pub fn config(workload: Workload, input: &dyn SeqStore) -> PipelineConfig {
    match workload {
        // About two thirds of the monolithic index estimate: the index
        // must go partitioned.
        Workload::LongtailPaged => {
            let estimate = pfam_suffix::estimated_index_bytes(input.total_residues(), input.len());
            PipelineConfig::default().with_mem_budget(estimate * 2 / 3)
        }
        Workload::LongtailHybrid => PipelineConfig::default()
            .with_sketch(SketchParams { mode: SketchMode::Hybrid, ..SketchParams::default() }),
    }
}

/// Checkpoint settings of the paged workload, in `dir`.
pub fn checkpoints(dir: &Path) -> CheckpointConfig {
    CheckpointConfig {
        dir: dir.join("ckpt"),
        every_batches: CKPT_EVERY_BATCHES,
        every_components: CKPT_EVERY_COMPONENTS,
    }
}

/// A per-process scratch directory inside the benchmark's own `out/`
/// directory, removed on drop.
pub struct Scratch {
    /// The directory.
    pub dir: PathBuf,
}

impl Scratch {
    /// Create `out/tmp-<pid>-<n>-<tag>` next to this package's manifest.
    pub fn new(tag: &str) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("tmp-{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("the benchmark's out/ directory is writable");
        Scratch { dir }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
