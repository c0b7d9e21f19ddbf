//! The traced run: the benchmark composes the same public calls the
//! pipeline makes and times each one from outside.
//!
//! * RR and CCD are re-driven through `with_source_pinned` with
//!   `BatchedPush`'s loop written out (`next_batch` → `admit_batch` →
//!   `verify_par` → `absorb`), so pair generation, the core filter, the
//!   verification kernel and verdict absorption each get a span.
//! * The back half runs per component (`component_graph_with` →
//!   `BipartiteGraph::duplicate_from_with` → `detect_dense_subgraphs_with`)
//!   largest-first across the worker pool, as `stream_components` does.
//! * The paged workload writes the checkpoints `run_pipeline_checkpointed`
//!   writes, at the same points, each as a `ckpt.write` span.
//!
//! A single-threaded pass of the same composition (`threads = 1`,
//! `verify_seq`, components one at a time) gives each layer's p = 2
//! speed-up. Its outputs, and the parallel composition's, must equal the
//! untraced pipeline's.

use std::cell::RefCell;
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use rayon::prelude::*;

use pfam_cluster::{
    component_graph_with, with_source, with_source_pinned, BggScratch, CcdCursor, CcdResult,
    ClusterConfig, ClusterCore, CorePhase, HybridSource, PhaseTrace, RrResult, SketchParams,
    Verifier, PIN_SKETCH_APPROX, PIN_SKETCH_HYBRID,
};
use pfam_core::checkpoint::{write_checkpoint, CcdState, DsdComponent, DsdState, RrState};
use pfam_core::{ComponentOutput, PipelineConfig, Reduction};
use pfam_graph::{BipartiteGraph, CsrGraph};
use pfam_seq::{SeqId, SeqStore, SubsetStore};
use pfam_shingle::{
    detect_dense_subgraphs_with, DenseSubgraphConfig, ReductionMode, ShingleArena, ShingleStats,
};
use pfam_suffix::{ChunkPlan, MatchPair};

use crate::alloc::Peak;
use crate::metrics::{median, ratio, Metrics};
use crate::spans::{self, Recorder, Span, SpanId};
use crate::workload::{self, Scratch, Workload};
use crate::{run_untraced, Args, Families, Outcome, Prepared, SetupTimes, Tally, PRECISION_FLOOR};

/// Span names of one clustering phase.
struct PhaseNames {
    phase: &'static str,
    index: &'static str,
    pairgen: &'static str,
    filter: &'static str,
    verify: &'static str,
    absorb: &'static str,
    finish: &'static str,
}

const RR: PhaseNames = PhaseNames {
    phase: "rr",
    index: "rr.index",
    pairgen: "rr.pairgen",
    filter: "rr.filter",
    verify: "rr.verify",
    absorb: "rr.absorb",
    finish: "rr.finish",
};

const CCD: PhaseNames = PhaseNames {
    phase: "ccd",
    index: "ccd.index",
    pairgen: "ccd.pairgen",
    filter: "ccd.filter",
    verify: "ccd.verify",
    absorb: "ccd.absorb",
    finish: "ccd.finish",
};

/// Everything one traced composition produced.
pub struct TracedRun {
    /// Finished spans.
    pub spans: Vec<Span>,
    /// The outputs, for the identity check.
    pub families: Families,
    rr_trace: PhaseTrace,
    rr_removed: usize,
    rr_pin: u64,
    rr_calls: u64,
    ccd_trace: PhaseTrace,
    ccd_edges: usize,
    ccd_pin: u64,
    ccd_calls: u64,
    back: BackStats,
    ckpt_writes: u64,
    ckpt_bytes: u64,
    rr_peak: u64,
    ccd_peak: u64,
    executor_peak: u64,
    pipeline_peak: u64,
    budget_peak: u64,
    budget_limit: Option<u64>,
}

/// Back-half work counters, summed over components.
#[derive(Default)]
struct BackStats {
    components: usize,
    largest: usize,
    aligned: u64,
    cells_computed: u64,
    edges: u64,
    subgraphs: u64,
    shingle: ShingleStats,
}

/// Checkpoint writes made so far.
#[derive(Default)]
struct Ckpt {
    writes: u64,
    bytes: u64,
    error: Option<String>,
}

impl Ckpt {
    /// Write one snapshot as a `ckpt.write` span under `parent`.
    fn write(
        &mut self,
        rec: &Recorder,
        parent: SpanId,
        dir: &Path,
        phase: pfam_core::Phase,
        payload: Vec<u8>,
    ) {
        if self.error.is_some() {
            return;
        }
        let bytes = payload.len() as u64;
        let res = rec
            .time("ckpt.write", parent, || write_checkpoint(&phase.path_in(dir), phase, &payload));
        match res {
            Ok(()) => {
                self.writes += 1;
                self.bytes += bytes;
            }
            Err(e) => self.error = Some(format!("checkpoint write failed: {e}")),
        }
    }
}

/// Drive one clustering phase through `with_source_pinned` with the
/// batched loop written out. Calls `on_cursor` with the core's cursor and
/// the settled generation pin every `every` batches (0 = never). Returns
/// the finished core, the pin and the number of verification calls.
#[allow(clippy::too_many_arguments)]
fn drive_phase<'s>(
    store: &'s dyn SeqStore,
    cc: &ClusterConfig,
    phase: CorePhase,
    names: &PhaseNames,
    serial: bool,
    rec: &Recorder,
    parent: SpanId,
    every: usize,
    on_cursor: &mut dyn FnMut(&CcdCursor, u64),
) -> (ClusterCore<'s>, u64, u64) {
    let psi = match phase {
        CorePhase::Rr => cc.psi_rr,
        CorePhase::Ccd => cc.psi_ccd,
    };
    let threads = if serial { 1 } else { cc.index_threads() };
    let start = rec.now();
    with_source_pinned(store, cc, psi, threads, None, |source, pin| {
        // Everything before the closure runs is source construction:
        // index build (and eager mining when parallel) or sketching.
        rec.record(names.index, parent, start);
        let mut core = match phase {
            CorePhase::Rr => ClusterCore::new_rr(store),
            CorePhase::Ccd => ClusterCore::new_ccd(store),
        };
        let verifier = Verifier::new(cc, phase);
        let (mut calls, mut since_cursor) = (0u64, 0usize);
        loop {
            let batch = rec.time(names.pairgen, parent, || source.next_batch(cc.batch_size));
            if batch.is_empty() {
                break;
            }
            let candidates = rec.time(names.filter, parent, || core.admit_batch(&batch));
            let verdicts = rec.time(names.verify, parent, || {
                if serial {
                    verifier.verify_seq(core.set(), &candidates)
                } else {
                    verifier.verify_par(core.set(), &candidates)
                }
            });
            calls += 1;
            rec.time(names.absorb, parent, || core.absorb(verdicts));
            since_cursor += 1;
            if every > 0 && since_cursor >= every {
                since_cursor = 0;
                on_cursor(&core.cursor(), pin);
            }
        }
        core.set_nodes_visited(source.nodes_visited());
        (core, pin, calls)
    })
}

/// The DSD layer's settings, mapped from the pipeline's as the executor
/// maps them (the benchmark's workloads use the `Bd` reduction).
fn dsd_config(config: &PipelineConfig) -> DenseSubgraphConfig {
    let Reduction::GlobalSimilarity { tau } = config.reduction else {
        panic!("the benchmark's workloads use the global-similarity reduction");
    };
    DenseSubgraphConfig {
        params: config.shingle,
        mode: ReductionMode::GlobalSimilarity { tau },
        min_size: config.min_subgraph_size,
        disjoint: true,
    }
}

/// One worker's reusable buffers, as the executor keeps them.
#[derive(Default)]
struct Arena {
    bgg: BggScratch,
    bd_pairs: Vec<(u32, u32)>,
    shingle: ShingleArena,
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::new(Arena::default());
}

/// The fused back half over `queue`, largest component first, one span
/// per layer per component. Outputs come back in queue order.
fn back_half(
    input: &dyn SeqStore,
    config: &PipelineConfig,
    queue: &[&[SeqId]],
    serial: bool,
    rec: &Recorder,
    parent: SpanId,
) -> Vec<ComponentOutput> {
    let dsd = dsd_config(config);
    let mut order: Vec<usize> = (0..queue.len()).collect();
    order.sort_by(|&a, &b| queue[b].len().cmp(&queue[a].len()).then(a.cmp(&b)));
    let one = |qi: usize| {
        ARENA.with(|arena| {
            let arena = &mut *arena.borrow_mut();
            arena.shingle.set_budget(config.cluster.mem.budget.clone());
            let (graph, record) = rec.time("bgg", parent, || {
                component_graph_with(input, queue[qi], &config.cluster, &mut arena.bgg)
            });
            let open = rec.open("dsd", Some(parent));
            let bd = rec.time("dsd.bd", open.id, || {
                BipartiteGraph::duplicate_from_with(&graph.graph, &mut arena.bd_pairs)
            });
            let (subgraphs, stats) = detect_dense_subgraphs_with(&bd, &dsd, &mut arena.shingle);
            rec.close(open);
            (qi, ComponentOutput { graph, record, subgraphs, stats })
        })
    };
    let processed: Vec<(usize, ComponentOutput)> = if serial {
        order.into_iter().map(one).collect()
    } else {
        order.into_par_iter().map(one).collect()
    };
    let mut outputs: Vec<Option<ComponentOutput>> = (0..queue.len()).map(|_| None).collect();
    for (qi, out) in processed {
        outputs[qi] = Some(out);
    }
    outputs.into_iter().map(|o| o.expect("every queued component is processed")).collect()
}

/// `(u, v)` with `u < v`, ascending: a component graph's serialized edges.
fn csr_edge_list(graph: &CsrGraph) -> Vec<(u32, u32)> {
    let mut edges = Vec::with_capacity(graph.n_edges());
    for u in 0..graph.n_vertices() as u32 {
        edges.extend(graph.neighbors(u).iter().filter(|&&v| u < v).map(|&v| (u, v)));
    }
    edges
}

/// One traced composition of the workload's pipeline. `serial` runs the
/// single-threaded baseline instead.
pub fn compose(
    workload: Workload,
    input: &dyn SeqStore,
    scratch: &Scratch,
    serial: bool,
) -> Result<TracedRun, String> {
    let config = workload::config(workload, input);
    let cc = &config.cluster;
    let ckpt_config = workload.paged().then(|| workload::checkpoints(&scratch.dir));
    let mut ckpt = Ckpt::default();
    let rec = Recorder::new();
    let pipeline_peak = Peak::start();
    let root = rec.open("pipeline", None);

    if let Some(ck) = &ckpt_config {
        rec.time("budget", root.id, || pfam_cluster::check_index_budget(input, &cc.mem.budget))
            .map_err(|e| format!("budget refused: {e}"))?;
        std::fs::create_dir_all(&ck.dir).map_err(|e| format!("{}: {e}", ck.dir.display()))?;
    }

    // ---- Redundancy removal. ----
    let phase = rec.open(RR.phase, Some(root.id));
    let peak = Peak::start();
    let (core, rr_pin, rr_calls) =
        drive_phase(input, cc, CorePhase::Rr, &RR, serial, &rec, phase.id, 0, &mut |_, _| {});
    let rr = rec.time(RR.finish, phase.id, || RrResult::from_core(core));
    rec.close(phase);
    let rr_peak = peak.bytes();
    if let Some(ck) = &ckpt_config {
        let state = RrState {
            kept: rr.kept.iter().map(|id| id.0).collect(),
            removed: rr.removed.iter().map(|&(a, b)| (a.0, b.0)).collect(),
            trace: rr.trace.clone(),
        };
        ckpt.write(&rec, root.id, &ck.dir, pfam_core::Phase::Rr, state.encode());
    }

    // ---- Connected components over the non-redundant reads. ----
    let nr_store = rec.time("subset", root.id, || SubsetStore::new(input, rr.kept.clone()));
    let phase = rec.open(CCD.phase, Some(root.id));
    let peak = Peak::start();
    let every = ckpt_config.as_ref().map_or(0, |ck| ck.every_batches);
    let mut on_cursor = |cursor: &CcdCursor, pin: u64| {
        if let Some(ck) = &ckpt_config {
            let mut cursor = cursor.clone();
            cursor.gen_chunk_bytes = pin;
            let state = CcdState { complete: false, cursor };
            ckpt.write(&rec, phase.id, &ck.dir, pfam_core::Phase::Ccd, state.encode());
        }
    };
    let (core, ccd_pin, ccd_calls) = drive_phase(
        &nr_store,
        cc,
        CorePhase::Ccd,
        &CCD,
        serial,
        &rec,
        phase.id,
        every,
        &mut on_cursor,
    );
    let ccd = rec.time(CCD.finish, phase.id, || CcdResult::from_core(core));
    rec.close(phase);
    let ccd_peak = peak.bytes();
    if let Some(ck) = &ckpt_config {
        let state =
            CcdState { complete: true, cursor: CcdCursor::from_result(&ccd, nr_store.len()) };
        ckpt.write(&rec, root.id, &ck.dir, pfam_core::Phase::Ccd, state.encode());
    }

    let (components, selected) = rec.time("components", root.id, || {
        let components: Vec<Vec<SeqId>> = ccd
            .components
            .iter()
            .map(|c| c.iter().map(|&local| rr.kept[local.index()]).collect())
            .collect();
        let selected: Vec<usize> = (0..components.len())
            .filter(|&i| components[i].len() >= config.min_component_size)
            .collect();
        (components, selected)
    });
    let queue: Vec<&[SeqId]> = selected.iter().map(|&i| components[i].as_slice()).collect();

    // ---- Fused BGG → DSD, in checkpoint-bounded batches when paged. ----
    let executor = rec.open("executor", Some(root.id));
    let peak = Peak::start();
    let outputs = match &ckpt_config {
        None => back_half(input, &config, &queue, serial, &rec, executor.id),
        Some(ck) => {
            let mut state = DsdState::default();
            state.trace.index_residues =
                queue.iter().flat_map(|c| c.iter()).map(|&id| input.seq_len(id) as u64).sum();
            let mut outputs = Vec::with_capacity(queue.len());
            for batch in queue.chunks(ck.every_components.max(1)) {
                for out in back_half(input, &config, batch, serial, &rec, executor.id) {
                    state.done.push(DsdComponent {
                        members: out.graph.members.iter().map(|id| id.0).collect(),
                        edges: csr_edge_list(&out.graph.graph),
                        subgraphs: out.subgraphs.clone(),
                    });
                    state.shingle.absorb(&out.stats);
                    state.trace.batches.push(out.record.clone());
                    outputs.push(out);
                }
                ckpt.write(&rec, executor.id, &ck.dir, pfam_core::Phase::Dsd, state.encode());
            }
            if queue.is_empty() {
                ckpt.write(&rec, executor.id, &ck.dir, pfam_core::Phase::Dsd, state.encode());
            }
            outputs
        }
    };
    rec.close(executor);
    let executor_peak = peak.bytes();
    if let Some(e) = ckpt.error.take() {
        return Err(e);
    }

    let families = rec.time("assemble", root.id, || {
        let mut families: Vec<Vec<u32>> = outputs
            .iter()
            .flat_map(|out| {
                out.subgraphs
                    .iter()
                    .map(|local| local.iter().map(|&l| out.graph.original_id(l).0).collect())
            })
            .collect();
        families.sort_by(|a: &Vec<u32>, b| b.len().cmp(&a.len()).then(a.cmp(b)));
        families
    });
    rec.close(root);
    let pipeline_peak = pipeline_peak.bytes();

    let mut back = BackStats { components: outputs.len(), ..BackStats::default() };
    for out in &outputs {
        back.largest = back.largest.max(out.graph.members.len());
        back.aligned += out.record.n_aligned as u64;
        back.cells_computed += out.record.cells_computed;
        back.edges += out.graph.graph.n_edges() as u64;
        back.subgraphs += out.subgraphs.len() as u64;
        back.shingle.absorb(&out.stats);
    }
    let ids = |v: &[SeqId]| v.iter().map(|id| id.0).collect::<Vec<u32>>();
    Ok(TracedRun {
        spans: rec.finish(),
        families: Families {
            non_redundant: ids(&rr.kept),
            components: components.iter().map(|c| ids(c)).collect(),
            families,
        },
        rr_removed: rr.removed.len(),
        rr_trace: rr.trace,
        rr_pin,
        rr_calls,
        ccd_edges: ccd.edges.len(),
        ccd_trace: ccd.trace,
        ccd_pin,
        ccd_calls,
        back,
        ckpt_writes: ckpt.writes,
        ckpt_bytes: ckpt.bytes,
        rr_peak,
        ccd_peak,
        executor_peak,
        pipeline_peak,
        budget_peak: cc.mem.budget.peak(),
        budget_limit: cc.mem.budget.limit(),
    })
}

/// Which pair-source path a generation pin names: 0 monolithic suffix
/// index, 1 partitioned suffix index, 2 approximate sketch, 3 hybrid
/// sketch. Also returns the index chunk count (1 monolithic, the plan's
/// count when partitioned, 0 for a sketch).
fn source_path(pin: u64, store: &dyn SeqStore) -> (f64, f64) {
    match pin {
        0 => (0.0, 1.0),
        PIN_SKETCH_APPROX => (2.0, 0.0),
        PIN_SKETCH_HYBRID => (3.0, 0.0),
        target => {
            let lens: Vec<u32> =
                (0..store.len()).map(|i| store.seq_len(SeqId(i as u32)) as u32).collect();
            (1.0, ChunkPlan::plan(&lens, target).n_chunks() as f64)
        }
    }
}

fn describe_path(code: f64, chunks: f64) -> String {
    match code as u32 {
        0 => "monolithic suffix index".into(),
        1 => format!("partitioned suffix index, {chunks} chunk(s)"),
        2 => "approximate sketch".into(),
        _ => "hybrid sketch + suffix confirm".into(),
    }
}

/// Per-name span seconds of one traced run.
fn seconds_by_name(spans: &[Span]) -> std::collections::BTreeMap<&'static str, f64> {
    spans::totals(spans)
        .into_iter()
        .map(|(name, (_, total, _))| (name, total as f64 / 1e9))
        .collect()
}

/// Share of the root span's wall time covered by the layer spans under
/// it.
fn span_coverage(spans: &[Span]) -> f64 {
    let selfs = spans::self_times(spans);
    let root = spans.iter().find(|s| s.parent.is_none()).expect("a traced run has a root span");
    1.0 - ratio(selfs[&root.id] as f64, root.duration() as f64)
}

/// A speed-up claim through the honesty guard: 0 when the host has one
/// core and the claim is refused.
fn honest_speedup(cores: usize, key: &str, value: f64) -> f64 {
    let rendered = pfam_bench::claim_f64(cores, key, value);
    if rendered.contains(pfam_bench::honesty::UNMEASURED) {
        0.0
    } else {
        value
    }
}

/// The `lsh` layer measured on its own over the whole input (the RR
/// phase's pair stream): sketch set-up, candidate probing, and recall of
/// the hybrid pair set against the exact miner's.
fn lsh_probe(store: &dyn SeqStore, config: &PipelineConfig, m: &mut Metrics) {
    let cc = &config.cluster;
    let key = |p: &MatchPair| (p.a.0.min(p.b.0), p.a.0.max(p.b.0));
    let t = Instant::now();
    let mut source = HybridSource::new(store, cc, cc.psi_rr, cc.index_threads());
    m.set("lsh.setup_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let mut pairs = Vec::new();
    loop {
        let batch = pfam_cluster::PairSource::next_batch(&mut source, cc.batch_size);
        if batch.is_empty() {
            break;
        }
        pairs.extend(batch);
    }
    m.set("lsh.pairgen_s", t.elapsed().as_secs_f64());
    let stats = source.stats();
    m.set("lsh.probed", stats.probed as f64);
    m.set("lsh.confirmed", stats.confirmed as f64);
    m.set("lsh.confirm_ratio", ratio(stats.confirmed as f64, stats.probed as f64));
    let hybrid: HashSet<(u32, u32)> = pairs.iter().map(key).collect();
    let exact_config = ClusterConfig { sketch: SketchParams::default(), ..cc.clone() };
    let exact: HashSet<(u32, u32)> =
        with_source(store, &exact_config, cc.psi_rr, cc.index_threads(), |source| {
            let mut keys = HashSet::new();
            loop {
                let batch = source.next_batch(cc.batch_size);
                if batch.is_empty() {
                    break keys;
                }
                keys.extend(batch.iter().map(key));
            }
        });
    m.set("lsh.recall", ratio(hybrid.intersection(&exact).count() as f64, exact.len() as f64));
}

/// The traced invocation: after an untraced warm-up, traced and untraced
/// pipelines alternate for `seconds` (at least once each),
/// then one single-threaded pass; every output must equal the warm-up's.
pub fn run(
    args: &Args,
    input: &workload::Input,
    prepared: &Prepared,
    setup: &SetupTimes,
    scratch: &Scratch,
) -> Outcome {
    let store = prepared.input();
    let min_size = workload::config(args.workload, store).min_subgraph_size;
    let mut tally = Tally::default();
    let mut reference: Option<Families> = None;
    let (mut untraced_walls, mut runs) = (Vec::new(), Vec::<TracedRun>::new());
    let mut layer_secs: Vec<std::collections::BTreeMap<&'static str, f64>> = Vec::new();
    let mut coverages = Vec::new();
    // Warm-up: the untraced call that every later output must equal.
    match run_untraced(args.workload, store, scratch) {
        Ok(r) => {
            let (precision, _) = crate::quality(&r, &input.truth, min_size);
            tally.check(
                precision >= PRECISION_FLOOR,
                &format!("precision {precision} below {PRECISION_FLOOR}"),
            );
            reference = Some(Families::of(&r));
        }
        Err(e) => tally.check(false, &e),
    }
    let started = Instant::now();
    for round in 0usize.. {
        // Alternate which side goes first, so neither always pays the
        // other's after-effects.
        for traced in [round % 2 == 0, round % 2 == 1] {
            if !traced {
                let t = Instant::now();
                match run_untraced(args.workload, store, scratch) {
                    Ok(r) => {
                        untraced_walls.push(t.elapsed().as_secs_f64());
                        let same = reference.as_ref() == Some(&Families::of(&r));
                        tally.check(same, "family digest changed between runs");
                    }
                    Err(e) => tally.check(false, &e),
                }
                continue;
            }
            match compose(args.workload, store, scratch, false) {
                Ok(run) => {
                    let same = reference.as_ref() == Some(&run.families);
                    let tree = spans::check_tree(&run.spans);
                    tally.check(
                        same && tree.is_ok(),
                        &format!("traced composition: identical output {same}, span tree {tree:?}"),
                    );
                    layer_secs.push(seconds_by_name(&run.spans));
                    coverages.push(span_coverage(&run.spans));
                    // Only the latest run's spans are written; keep counters.
                    if let Some(prev) = runs.last_mut() {
                        prev.spans = Vec::new();
                    }
                    runs.push(run);
                }
                Err(e) => tally.check(false, &e),
            }
        }
        // Stop unless another round of average length ends within `seconds`.
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / (round + 1) as f64 > args.seconds {
            break;
        }
    }
    let serial = compose(args.workload, store, scratch, true);
    let serial_secs = match &serial {
        Ok(run) => {
            tally.check(
                reference.as_ref() == Some(&run.families),
                "single-threaded composition differs from the pipeline",
            );
            seconds_by_name(&run.spans)
        }
        Err(e) => {
            tally.check(false, e);
            Default::default()
        }
    };
    let Some(first) = runs.first() else {
        return Outcome {
            correct: false,
            attempted: tally.attempted,
            failed: tally.failed.max(1),
            metrics: Metrics::default(),
        };
    };

    let mut m = Metrics::default();
    // Median over the traced runs of a layer's total span seconds.
    let secs = |name: &str| {
        median(&layer_secs.iter().map(|s| s.get(name).copied().unwrap_or(0.0)).collect::<Vec<_>>())
    };

    m.set("seq.ingest_s", setup.ingest_s());
    m.set("seq.store_write_s", setup.store_write_s());
    m.set("seq.budget_peak_bytes", first.budget_peak as f64);
    m.set(
        "seq.alloc_over_budget",
        first.budget_limit.map_or(0.0, |limit| ratio(first.pipeline_peak as f64, limit as f64)),
    );

    let kept = first.families.non_redundant.iter().map(|&i| SeqId(i)).collect();
    let nr_store = SubsetStore::new(store, kept);
    let (rr_code, rr_chunks) = source_path(first.rr_pin, store);
    let (ccd_code, ccd_chunks) = source_path(first.ccd_pin, &nr_store);
    m.set("rr.source_path", rr_code);
    m.set("ccd.source_path", ccd_code);
    m.set("rr.index_chunks", rr_chunks);
    m.set("ccd.index_chunks", ccd_chunks);
    eprintln!(
        "perfbench: pair sources: rr = {}, ccd = {}",
        describe_path(rr_code, rr_chunks),
        describe_path(ccd_code, ccd_chunks)
    );

    for (p, trace, calls) in
        [("rr", &first.rr_trace, first.rr_calls), ("ccd", &first.ccd_trace, first.ccd_calls)]
    {
        let key = |suffix: &str| format!("{p}.{suffix}");
        let index_s = secs(&format!("{p}.index"));
        let pairgen_s = secs(&format!("{p}.pairgen"));
        let verify_s = secs(&format!("{p}.verify"));
        let generated = trace.total_generated() as f64;
        let computed = trace.total_cells_computed() as f64;
        m.set(&key("s"), secs(p));
        m.set(&key("index_s"), index_s);
        m.set(&key("pairgen_s"), pairgen_s);
        m.set(&key("filter_s"), secs(&format!("{p}.filter")));
        m.set(&key("verify_s"), verify_s);
        m.set(&key("absorb_s"), secs(&format!("{p}.absorb")));
        m.set(&key("pairs_generated"), generated);
        m.set(&key("nodes_visited"), trace.nodes_visited as f64);
        m.set(&key("pairs_per_s"), ratio(generated, index_s + pairgen_s));
        m.set(&key("aligned"), trace.total_aligned() as f64);
        m.set(&key("cells_computed"), computed);
        m.set(&key("cells_skipped"), trace.total_cells_skipped() as f64);
        m.set(&key("cells_per_s"), ratio(computed, verify_s));
        m.set(&key("verify_calls"), calls as f64);
    }
    m.set("ccd.filter_ratio", first.ccd_trace.filter_ratio());
    m.set(
        "ccd.accept_ratio",
        ratio(first.ccd_edges as f64, first.ccd_trace.total_aligned() as f64),
    );
    m.set("rr.removed", first.rr_removed as f64);

    for name in [
        "lsh.setup_s",
        "lsh.pairgen_s",
        "lsh.probed",
        "lsh.confirmed",
        "lsh.confirm_ratio",
        "lsh.recall",
    ] {
        m.set(name, 0.0);
    }
    if args.workload == Workload::LongtailHybrid {
        lsh_probe(store, &workload::config(args.workload, store), &mut m);
    }

    let back = &first.back;
    let (bgg_s, dsd_s, executor_s) = (secs("bgg"), secs("dsd"), secs("executor"));
    m.set("bgg.s", bgg_s);
    m.set("bgg.aligned", back.aligned as f64);
    m.set("bgg.cells_computed", back.cells_computed as f64);
    m.set("bgg.edges", back.edges as f64);
    m.set("bgg.largest_component", back.largest as f64);
    m.set("dsd.s", dsd_s);
    m.set("dsd.bd_s", secs("dsd.bd"));
    m.set("dsd.pass1_shingles", back.shingle.pass1_shingles as f64);
    m.set("dsd.distinct_s1", back.shingle.distinct_s1 as f64);
    m.set("dsd.pass2_shingles", back.shingle.pass2_shingles as f64);
    m.set("dsd.subgraphs", back.subgraphs as f64);
    m.set("dsd.us_per_component", ratio(dsd_s * 1e6, back.components as f64));
    m.set("executor.s", executor_s);
    m.set("executor.overlap", ratio(bgg_s + dsd_s, executor_s));
    m.set("ckpt.writes", first.ckpt_writes as f64);
    m.set("ckpt.bytes", first.ckpt_bytes as f64);
    m.set("ckpt.write_s", secs("ckpt.write"));
    m.set("rr.peak_bytes", first.rr_peak as f64);
    m.set("ccd.peak_bytes", first.ccd_peak as f64);
    m.set("executor.peak_bytes", first.executor_peak as f64);

    let cores = pfam_bench::detected_cores();
    for (metric, layer) in [
        ("rr.speedup_p2", "rr"),
        ("ccd.speedup_p2", "ccd"),
        ("executor.speedup_p2", "executor"),
        ("pipeline.speedup_p2", "pipeline"),
    ] {
        let serial_s = serial_secs.get(layer).copied().unwrap_or(0.0);
        m.set(metric, honest_speedup(cores, metric, ratio(serial_s, secs(layer))));
    }

    let traced_wall = secs("pipeline");
    let untraced_wall = median(&untraced_walls);
    m.set("trace.wall_s", traced_wall);
    m.set("trace.untraced_wall_s", untraced_wall);
    m.set("trace.overhead", ratio(traced_wall, untraced_wall) - 1.0);
    m.set("trace.coverage", median(&coverages));
    // "Paged families ≡ longtail families" is measured, not gated: the
    // partitioned pair order changes RR's outcome (see README.md).
    let mut plan_diff = 0.0;
    if args.workload.paged() {
        let mono =
            Families::of(&pfam_core::run_pipeline(&prepared.set, &PipelineConfig::default()));
        let theirs: HashSet<&Vec<u32>> = mono.families.iter().collect();
        let ours: HashSet<&Vec<u32>> = first.families.families.iter().collect();
        plan_diff = theirs.symmetric_difference(&ours).count() as f64;
        if plan_diff > 0.0 {
            eprintln!(
                "perfbench: finding: {plan_diff} families differ between the partitioned plan and \
                 the monolithic in-memory plan ({} vs {} non-redundant reads)",
                first.families.non_redundant.len(),
                mono.non_redundant.len()
            );
        }
    }
    m.set("check.plan_family_diff", plan_diff);

    let last = runs.last().expect("at least one traced run");
    m.set("trace.spans", last.spans.len() as f64);
    eprint!("{}", spans::render_table(&last.spans, (traced_wall * 1e9) as u64));
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
        "spans_{}_{}.tsv",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = spans::write_tsv(&last.spans, &out) {
        eprintln!("perfbench: could not write {}: {e}", out.display());
    }
    eprintln!(
        "perfbench: {} seed {}: {} traced runs, traced {traced_wall:.4}s vs untraced \
         {untraced_wall:.4}s, span coverage {:.4}",
        args.workload.name(),
        args.seed,
        runs.len(),
        median(&coverages)
    );
    Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    }
}
