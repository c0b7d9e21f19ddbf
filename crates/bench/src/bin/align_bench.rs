//! Alignment-engine benchmark: reference full-matrix verdicts vs the
//! tiered engine (one pair at a time) and vs its lockstep batch path
//! (length-binned lane groups, as `Verifier` runs them) on the RR
//! (containment) and CCD (overlap) candidate streams of a paper-like
//! workload, emitting a machine-readable `BENCH_align.json` — the
//! alignment twin of `BENCH_index.json`.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin align_bench [scale]
//! cargo run --release -p pfam-bench --bin align_bench -- --test   # smoke
//! ```
//!
//! `--test` runs a tiny single-rep smoke pass and prints the JSON to
//! stdout instead of writing the file. The bench asserts — and records —
//! that the tiered engine and the lockstep path both return the reference
//! verdict on every candidate.

use pfam_align::{AlignEngine, AlignEngineKind, AlignScratch, Anchor, Criterion};
use pfam_bench::{
    claim_f64, cores_field, dataset_160k_like, detected_cores, emit, time_min, BenchArgs,
};
use pfam_cluster::ClusterConfig;
use pfam_seq::{SeqId, SequenceSet};
use pfam_suffix::{
    maximal::all_pairs, GeneralizedSuffixArray, MatchPair, MaximalMatchConfig, SuffixTree,
};

/// One alignment task: `(x, y, anchor, containment?)`.
type Task = (SeqId, SeqId, Anchor, bool);

/// Orient an RR candidate exactly as `cluster::rr` does: the containment
/// candidate (shorter, ties to the higher id) goes first.
fn orient(set: &SequenceSet, p: &MatchPair) -> (SeqId, SeqId, Anchor) {
    let (la, lb) = (set.seq_len(p.a), set.seq_len(p.b));
    if la < lb || (la == lb && p.a.0 > p.b.0) {
        (p.a, p.b, Anchor { x_pos: p.a_pos, y_pos: p.b_pos, len: p.len })
    } else {
        (p.b, p.a, Anchor { x_pos: p.b_pos, y_pos: p.a_pos, len: p.len })
    }
}

/// Run every task through `engine`, returning `(verdicts, tier_hits,
/// cells_computed, cells_skipped)`.
fn run_tasks(
    engine: &AlignEngine,
    set: &SequenceSet,
    tasks: &[Task],
) -> (Vec<bool>, [u64; 4], u64, u64) {
    let mut scratch = AlignScratch::new();
    let mut verdicts = Vec::with_capacity(tasks.len());
    let mut tiers = [0u64; 4];
    let (mut computed, mut skipped) = (0u64, 0u64);
    for &(a, b, anchor, containment) in tasks {
        let x = set.codes(a);
        let y = set.codes(b);
        let v = if containment {
            engine.contained_with(x, y, Some(anchor), &mut scratch)
        } else {
            engine.overlaps_with(x, y, Some(anchor), &mut scratch)
        };
        verdicts.push(v.accept);
        tiers[(v.tier as usize).min(3)] += 1;
        computed += v.cells_computed;
        skipped += v.cells_skipped;
    }
    (verdicts, tiers, computed, skipped)
}

/// Run every task through `engine`'s batch path in batches of `batch`
/// tasks of one criterion (as the RR and CCD loops hand them to the
/// `Verifier`), returning `(verdicts, cells_computed, cells_skipped)`.
fn run_batched(
    engine: &AlignEngine,
    set: &SequenceSet,
    tasks: &[Task],
    batch: usize,
) -> (Vec<bool>, u64, u64) {
    let mut verdicts = Vec::with_capacity(tasks.len());
    let (mut computed, mut skipped) = (0u64, 0u64);
    for chunk in tasks.chunk_by(|a, b| a.3 == b.3) {
        let mode = if chunk[0].3 { Criterion::Containment } else { Criterion::Overlap };
        for part in chunk.chunks(batch) {
            let pairs: Vec<_> = part
                .iter()
                .map(|&(a, b, anchor, _)| (set.codes(a), set.codes(b), Some(anchor)))
                .collect();
            for v in engine.verify_batch(mode, &pairs) {
                verdicts.push(v.accept);
                computed += v.cells_computed;
                skipped += v.cells_skipped;
            }
        }
    }
    (verdicts, computed, skipped)
}

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale(0.02, 0.25);
    let reps = args.reps();

    let data = dataset_160k_like(scale, 0xa11);
    let set = &data.set;
    let config = ClusterConfig::default();
    eprintln!(
        "align_bench: {} ({} reads, {} residues), {} rep(s)",
        data.label,
        set.len(),
        set.total_residues(),
        reps
    );

    // Candidate streams straight from the suffix index, anchors included —
    // the exact population RR and CCD verify.
    let gsa = GeneralizedSuffixArray::build(set);
    let tree = SuffixTree::build(&gsa);
    let mut tasks: Vec<Task> = Vec::new();
    for (psi, containment) in [(config.psi_rr, true), (config.psi_ccd, false)] {
        let pairs = all_pairs(
            &tree,
            MaximalMatchConfig {
                min_len: psi,
                max_pairs_per_node: config.max_pairs_per_node,
                dedup: true,
            },
        );
        for p in &pairs {
            let (a, b, anchor) = if containment {
                orient(set, p)
            } else {
                (p.a, p.b, Anchor { x_pos: p.a_pos, y_pos: p.b_pos, len: p.len })
            };
            tasks.push((a, b, anchor, containment));
        }
    }
    let n_rr = tasks.iter().filter(|t| t.3).count();
    let total_cells: u64 =
        tasks.iter().map(|&(a, b, _, _)| set.seq_len(a) as u64 * set.seq_len(b) as u64).sum();
    eprintln!(
        "align_bench: {} tasks ({} containment, {} overlap), {} full-matrix cells",
        tasks.len(),
        n_rr,
        tasks.len() - n_rr,
        total_cells
    );

    let reference = AlignEngine::new(
        AlignEngineKind::Reference,
        config.scheme.clone(),
        config.containment,
        config.overlap,
    );
    let tiered = AlignEngine::new(
        AlignEngineKind::Tiered,
        config.scheme.clone(),
        config.containment,
        config.overlap,
    );

    let (ref_s, (ref_verdicts, _, ref_computed, _)) =
        time_min(reps, || run_tasks(&reference, set, &tasks));
    let (tier_s, (tier_verdicts, tiers, tier_computed, tier_skipped)) =
        time_min(reps, || run_tasks(&tiered, set, &tasks));

    let (lock_s, (lock_verdicts, lock_computed, lock_skipped)) =
        time_min(reps, || run_batched(&tiered, set, &tasks, config.batch_size));

    // Bit-identity of verdicts — the whole point of the tier design.
    let identical = ref_verdicts == tier_verdicts;
    assert!(identical, "tiered verdicts diverged from reference — this is a bug");
    let lock_identical = ref_verdicts == lock_verdicts;
    assert!(lock_identical, "lockstep verdicts diverged from reference — this is a bug");

    let n = tasks.len() as f64;
    let cores = detected_cores();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"align\",\n",
            "  \"dataset\": \"{label}\",\n",
            "  \"n_seqs\": {n_seqs},\n",
            "  \"n_tasks\": {n_tasks},\n",
            "  \"n_containment\": {n_rr},\n",
            "  \"n_overlap\": {n_ccd},\n",
            "  \"reps\": {reps},\n",
            "  {cores_field},\n",
            "  \"kernel\": \"{kernel}\",\n",
            "  \"total_cells\": {cells},\n",
            "  \"outputs_identical\": {identical},\n",
            "  \"reference\": {{ \"seconds\": {rs:.6}, \"cells_per_sec\": {rcps:.0}, \"cells_computed\": {rcc} }},\n",
            "  \"tiered\": {{ \"seconds\": {ts:.6}, \"cells_per_sec\": {tcps:.0}, \"cells_computed\": {tcc}, \"cells_skipped\": {tsk} }},\n",
            "  \"lockstep\": {{ \"lanes\": {lanes}, \"batch\": {batch}, \"seconds\": {ls:.6}, \"cells_per_sec\": {lcps:.0}, \"cells_computed\": {lcc}, \"cells_skipped\": {lsk}, \"outputs_identical\": {lock_identical} }},\n",
            "  \"tier_hit_rates\": {{ \"screen\": {t0:.4}, \"kernel_reject\": {t1:.4}, \"probe_accept\": {t2:.4}, \"full_dp\": {t3:.4} }},\n",
            "  {speedup}\n",
            "}}\n"
        ),
        label = data.label,
        n_seqs = set.len(),
        n_tasks = tasks.len(),
        n_rr = n_rr,
        n_ccd = tasks.len() - n_rr,
        reps = reps,
        cores_field = cores_field(cores),
        kernel = tiered.kernel_label(),
        cells = total_cells,
        identical = identical,
        rs = ref_s,
        rcps = total_cells as f64 / ref_s,
        rcc = ref_computed,
        ts = tier_s,
        tcps = total_cells as f64 / tier_s,
        tcc = tier_computed,
        tsk = tier_skipped,
        lanes = tiered.lanes(),
        batch = config.batch_size,
        ls = lock_s,
        lcps = total_cells as f64 / lock_s,
        lcc = lock_computed,
        lsk = lock_skipped,
        lock_identical = lock_identical,
        t0 = tiers[0] as f64 / n,
        t1 = tiers[1] as f64 / n,
        t2 = tiers[2] as f64 / n,
        t3 = tiers[3] as f64 / n,
        // The raw seconds above stay; only the comparative label is
        // gated — a "speedup" from a 1-core box is not a measurement.
        speedup = claim_f64(cores, "speedup", ref_s / tier_s),
    );

    eprintln!(
        "align_bench: tiered {:.2}x and lockstep {:.2}x cells/sec vs reference, kernel {}",
        ref_s / tier_s,
        ref_s / lock_s,
        tiered.kernel_label()
    );
    emit("align", &json, args.smoke);
}
