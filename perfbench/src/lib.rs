//! The pipeline benchmark: seeded workloads run through the real
//! pipeline, a correctness gate, end-to-end metrics from untraced runs
//! and a per-layer breakdown from a separate traced run.
//!
//! The load is a closed loop: one process runs one pipeline job at a
//! time. See `README.md` in this directory for the workloads and what
//! each metric should move.

pub mod alloc;
pub mod metrics;
pub mod spans;
pub mod traced;
pub mod workload;

use std::path::Path;
use std::time::Instant;

use pfam_core::{run_pipeline, run_pipeline_checkpointed, PipelineResult};
use pfam_seq::{SeqId, SeqStore, SequenceSet};

use crate::alloc::Peak;
use crate::metrics::{median, Metrics, END_TO_END, PER_LAYER};
use crate::workload::{Scratch, Workload};

/// Lowest pairwise precision against ground truth that passes the gate.
pub const PRECISION_FLOOR: f64 = 0.9;
/// Set-up repetitions before the first pipeline call, and after each
/// timed call; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 10;
const SETUP_REPS_PER_CALL: usize = 10;
/// Timed pipeline calls per run, at least, whatever `--seconds` says.
const MIN_ITERS: usize = 3;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long to keep measuring.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Workload size factor (1 = the benchmark's size).
    pub scale: f64,
}

/// What one invocation reports.
#[derive(Debug)]
pub struct Outcome {
    /// No pipeline call failed a check.
    pub correct: bool,
    /// Pipeline calls made and checked.
    pub attempted: u64,
    /// Pipeline calls whose output failed a check.
    pub failed: u64,
    /// Metric values.
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line for this outcome.
    pub fn result_line(&self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        metrics::result_line(self.correct, self.attempted, self.failed, &self.metrics, catalogue)
    }
}

/// A pipeline run's outputs in comparable form (original ids).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Families {
    /// Non-redundant ids.
    pub non_redundant: Vec<u32>,
    /// Connected components.
    pub components: Vec<Vec<u32>>,
    /// Reported families (dense subgraphs), in the pipeline's order.
    pub families: Vec<Vec<u32>>,
}

impl Families {
    /// Extract from a pipeline result.
    pub fn of(r: &PipelineResult) -> Families {
        let ids = |v: &[SeqId]| v.iter().map(|id| id.0).collect::<Vec<u32>>();
        Families {
            non_redundant: ids(&r.non_redundant),
            components: r.components.iter().map(|c| ids(c)).collect(),
            families: r.subgraph_clusters(),
        }
    }

    /// FNV-1a digest over every id list.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u32| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let lists =
            std::iter::once(&self.non_redundant).chain(&self.components).chain(&self.families);
        for list in lists {
            eat(u32::MAX);
            list.iter().for_each(|&x| eat(x));
        }
        h
    }
}

/// The workload's input after set-up: the parsed set, plus the paged
/// store for the paged workload.
pub struct Prepared {
    /// The in-memory set parsed from the FASTA text.
    pub set: SequenceSet,
    /// The paged store (paged workload only).
    pub store: Option<pfam_seq::PagedSeqStore>,
}

impl Prepared {
    /// The store the pipeline reads.
    pub fn input(&self) -> &dyn SeqStore {
        match &self.store {
            Some(store) => store,
            None => &self.set,
        }
    }
}

/// Timed set-up repetitions: FASTA parsing, and for the paged workload
/// paged-store write + open.
#[derive(Debug, Default)]
pub struct SetupTimes {
    ingest: Vec<f64>,
    store_write: Vec<f64>,
}

impl SetupTimes {
    /// Median seconds of FASTA parsing.
    pub fn ingest_s(&self) -> f64 {
        median(&self.ingest)
    }

    /// Median seconds of paged-store write + open (0 when not paged).
    pub fn store_write_s(&self) -> f64 {
        median(&self.store_write)
    }

    /// Median seconds of one whole set-up.
    pub fn setup_s(&self) -> f64 {
        let totals: Vec<f64> =
            self.ingest.iter().zip(&self.store_write).map(|(i, w)| i + w).collect();
        median(&totals)
    }

    /// One timed set-up; the paged store goes to `file` in `dir`.
    fn once(&mut self, workload: Workload, fasta: &str, dir: &Path, file: &str) -> Prepared {
        let t = Instant::now();
        let set = workload::ingest(fasta);
        self.ingest.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let store = workload.paged().then(|| workload::write_store(&set, &dir.join(file)));
        self.store_write.push(if store.is_some() { t.elapsed().as_secs_f64() } else { 0.0 });
        Prepared { set, store }
    }

    /// Time one more set-up and discard its result (spread across the
    /// run, so one burst of host noise cannot set the median).
    pub fn sample(&mut self, workload: Workload, fasta: &str, scratch: &Scratch) {
        drop(self.once(workload, fasta, &scratch.dir, "resample.pfss"));
    }
}

/// Set up the workload's input, timed [`SETUP_REPS`] times.
pub fn prepare(workload: Workload, fasta: &str, scratch: &Scratch) -> (Prepared, SetupTimes) {
    let mut times = SetupTimes::default();
    let prepared = times.once(workload, fasta, &scratch.dir, "input.pfss");
    for _ in 1..SETUP_REPS {
        times.sample(workload, fasta, scratch);
    }
    (prepared, times)
}

/// One untraced pipeline call on the workload's real path:
/// `run_pipeline`, or for the paged workload `check_index_budget` +
/// `run_pipeline_checkpointed`. `Err` when the program refuses the run.
pub fn run_untraced(
    workload: Workload,
    input: &dyn SeqStore,
    scratch: &Scratch,
) -> Result<PipelineResult, String> {
    let config = workload::config(workload, input);
    if !workload.paged() {
        return Ok(run_pipeline(input, &config));
    }
    pfam_cluster::check_index_budget(input, &config.cluster.mem.budget)
        .map_err(|e| format!("budget refused: {e}"))?;
    match run_pipeline_checkpointed(
        input,
        &config,
        &workload::checkpoints(&scratch.dir),
        false,
        None,
    ) {
        Ok(Some(r)) => Ok(r),
        Ok(None) => Err("checkpointed run stopped early".into()),
        Err(e) => Err(format!("checkpointed run failed: {e}")),
    }
}

/// Share of ground-truth members of families with at least `min_size`
/// members that appear in some reported family.
pub fn coverage(r: &PipelineResult, truth: &[Vec<SeqId>], min_size: usize) -> f64 {
    let reported: std::collections::HashSet<u32> =
        r.dense_subgraphs.iter().flat_map(|d| d.members.iter().map(|id| id.0)).collect();
    let (mut members, mut covered) = (0usize, 0usize);
    for fam in truth.iter().filter(|f| f.len() >= min_size) {
        members += fam.len();
        covered += fam.iter().filter(|id| reported.contains(&id.0)).count();
    }
    metrics::ratio(covered as f64, members as f64)
}

/// Pairwise precision against the ground truth, and [`coverage`].
pub fn quality(r: &PipelineResult, truth: &[Vec<SeqId>], min_size: usize) -> (f64, f64) {
    let precision = pfam_core::evaluate(r, truth).measures.precision;
    (precision, coverage(r, truth, min_size))
}

/// Tally of checked pipeline calls.
#[derive(Debug, Default)]
pub struct Tally {
    /// Calls made.
    pub attempted: u64,
    /// Calls that failed a check.
    pub failed: u64,
}

impl Tally {
    /// Count one call; `ok` is whether it passed every check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// Run one invocation.
pub fn run(args: &Args) -> Outcome {
    let input = workload::generate(args.seed, args.scale);
    let scratch = Scratch::new(args.workload.name());
    let (prepared, mut setup) = prepare(args.workload, &input.fasta, &scratch);
    if args.trace {
        traced::run(args, &input, &prepared, &setup, &scratch)
    } else {
        end_to_end(args, &input, &prepared, &mut setup, &scratch)
    }
}

/// The untraced run: a warm-up call, then timed calls for `seconds` (at
/// least [`MIN_ITERS`]); `wall_s` is their median.
fn end_to_end(
    args: &Args,
    input: &workload::Input,
    prepared: &Prepared,
    setup: &mut SetupTimes,
    scratch: &Scratch,
) -> Outcome {
    let store = prepared.input();
    let min_size = workload::config(args.workload, store).min_subgraph_size;
    let mut tally = Tally::default();

    let t = Instant::now();
    let warm = match run_untraced(args.workload, store, scratch) {
        Ok(r) => r,
        Err(e) => {
            tally.check(false, &e);
            return Outcome {
                correct: false,
                attempted: 1,
                failed: 1,
                metrics: Metrics::default(),
            };
        }
    };
    let warm_wall = t.elapsed().as_secs_f64();
    let reference = Families::of(&warm);
    let (precision, coverage) = quality(&warm, &input.truth, min_size);
    let precise = precision >= PRECISION_FLOOR;
    tally.check(precise, &format!("precision {precision} below {PRECISION_FLOOR}"));
    if args.workload.paged() {
        // The paged store must not change the result: the same plan over
        // the in-memory set gives the same families.
        let same_plan =
            run_pipeline(&prepared.set, &workload::config(args.workload, &prepared.set));
        tally.check(
            Families::of(&same_plan) == reference,
            "paged store result differs from the in-memory set under the same plan",
        );
    }
    drop(warm);

    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    let started = Instant::now();
    // Start another call only if a typical one ends within `seconds`, so
    // that a run lasts `seconds` rather than up to one call longer.
    let mut typical = warm_wall;
    while walls.len() < MIN_ITERS || started.elapsed().as_secs_f64() + typical <= args.seconds {
        let peak = Peak::start();
        let t = Instant::now();
        let out = run_untraced(args.workload, store, scratch);
        let wall = t.elapsed().as_secs_f64();
        let bytes = peak.bytes();
        match out {
            Ok(r) => {
                let same = Families::of(&r) == reference;
                tally.check(
                    same && precise,
                    "output differs from the warm-up call or misses the precision floor",
                );
                walls.push(wall);
                peaks.push(bytes as f64);
                typical = median(&walls);
            }
            Err(e) => tally.check(false, &e),
        }
        for _ in 0..SETUP_REPS_PER_CALL {
            setup.sample(args.workload, &input.fasta, scratch);
        }
    }

    let wall_s = median(&walls);
    let mut m = Metrics::default();
    m.set("wall_s", wall_s);
    m.set("orfs_per_s", metrics::ratio(store.len() as f64, wall_s));
    m.set("setup_s", setup.setup_s());
    m.set("peak_alloc_bytes", median(&peaks));
    m.set("precision", precision);
    m.set("coverage", coverage);
    let rendered: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    eprintln!(
        "perfbench: {} seed {}: {} reads, digest {:016x}, {} timed calls: [{}] s, median {wall_s:.4} s",
        args.workload.name(),
        args.seed,
        store.len(),
        reference.digest(),
        walls.len(),
        rendered.join(", ")
    );
    Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    }
}
