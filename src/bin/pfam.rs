//! `pfam` — command-line front end for the protein-family pipeline.
//!
//! ```text
//! pfam generate --out reads.fasta [--families N] [--members N] [--seed N]
//! pfam cluster  <input.fasta> [--out families.tsv] [--tau F] [--domain W]
//!               [--min-size N] [--mask] [--psi N]
//!               [--mem-budget BYTES[K|M|G]] [--index-chunk-bytes BYTES[K|M|G]]
//!               [--sketch-mode exact|approx|hybrid] [--sketch-k N]
//!               [--sketch-bands N] [--sketch-rows N] [--sketch-width N]
//!               [--sketch-seed N] [--sketch-banding minhash|exhaustive]
//!               [--steal]
//!               [--steal-workers N] [--steal-chunks N] [--steal-round N]
//!               [--steal-seed N] [--lease-timeout-ms N] [--poll-ms N]
//!               [--retry-budget N] [--max-respawns N] [--speculate]
//!               [--spec-slack F] [--shards K] [--shard-driver batched|stealing|pull]
//!               [--shard-workers N]
//! pfam simulate <input.fasta> [--procs 32,64,128,512] [--save-trace PREFIX]
//! pfam replay   <trace.tsv> [--procs 32,64,128,512]
//! pfam align    <input.fasta> <i> <j>
//! pfam stats    <input.fasta>
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

use pfam::cluster::{
    run_ccd, run_redundancy_removal, ClusterConfig, RecoveryParams, ShardDriver, ShardParams,
    SketchBanding, SketchMode, SketchParams, StealParams,
};
use pfam::core::{
    run_pipeline_budgeted, run_pipeline_checkpointed, CheckpointConfig, Phase, PipelineConfig,
    PipelineResult, Reduction, TableOneRow,
};
use pfam::datagen::{DatasetConfig, SyntheticDataset};
use pfam::seq::complexity::{masked_fraction, MaskParams};
use pfam::seq::fasta::{read_fasta, write_fasta};
use pfam::seq::{LengthStats, SequenceSet};
use pfam::sim::{simulate_phase, MachineModel};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("align") => cmd_align(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command: {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `pfam --help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "pfam — parallel protein family identification\n\
         (reproduction of Wu & Kalyanaraman, SC 2008)\n\n\
         USAGE:\n\
         \x20 pfam generate --out <fasta> [--families N] [--members N] [--seed N]\n\
         \x20 pfam cluster  <input.fasta> [--out <tsv>] [--tau F] [--domain W]\n\
         \x20               [--min-size N] [--mask] [--psi N]\n\
         \x20               [--mem-budget BYTES[K|M|G]] (cap index-plane memory)\n\
         \x20               [--index-chunk-bytes BYTES[K|M|G]] (pin the\n\
         \x20               bucketed-index group size; 0 = from the budget)\n\
         \x20               [--sketch-mode exact|approx|hybrid] (LSH candidate\n\
         \x20               generation: approx = banded min-hash buckets,\n\
         \x20               hybrid = LSH prefilter + suffix confirmation)\n\
         \x20               [--sketch-k N] [--sketch-bands N] [--sketch-rows N]\n\
         \x20               [--sketch-width N] [--sketch-seed N]\n\
         \x20               [--sketch-banding minhash|exhaustive]\n\
         \x20               [--steal] [--steal-workers N] [--steal-chunks N]\n\
         \x20               [--steal-round N] [--steal-seed N]\n\
         \x20               [--lease-timeout-ms N] [--poll-ms N] [--retry-budget N]\n\
         \x20               [--max-respawns N] [--speculate] [--spec-slack F]\n\
         \x20               [--shards K] [--shard-driver batched|stealing|pull]\n\
         \x20               [--shard-workers N]   (sharded clustering plane)\n\
         \x20 pfam run      <input.fasta> --checkpoint-dir <dir> [--resume]\n\
         \x20               [--checkpoint-every N] [--checkpoint-every-components N]\n\
         \x20               [--stop-after rr|ccd|dsd]\n\
         \x20               [+ all `cluster` flags]   (fault-tolerant cluster)\n\
         \x20 pfam simulate <input.fasta> [--procs 32,64,128,512]\n\
         \x20               [--save-trace PREFIX]\n\
         \x20 pfam replay   <trace.tsv> [--procs 32,64,128,512]\n\
         \x20 pfam align    <input.fasta> <i> <j>   (pairwise local alignment)\n\
         \x20 pfam stats    <input.fasta>"
    );
}

/// Pull `--flag value` out of an argument list.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn flag_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value for {flag}: {v}")),
    }
}

/// Parse a byte-count flag accepting `K`/`M`/`G` suffixes (powers of
/// 1024); absent means `default`.
fn parse_bytes(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    let Some(v) = flag_value(args, flag) else {
        return Ok(default);
    };
    let (digits, mult) = match v.chars().last() {
        Some('K') | Some('k') => (&v[..v.len() - 1], 1u64 << 10),
        Some('M') | Some('m') => (&v[..v.len() - 1], 1u64 << 20),
        Some('G') | Some('g') => (&v[..v.len() - 1], 1u64 << 30),
        _ => (v.as_str(), 1),
    };
    let n: u64 = digits.parse().map_err(|_| format!("invalid value for {flag}: {v}"))?;
    n.checked_mul(mult).ok_or_else(|| format!("value for {flag} overflows u64: {v}"))
}

/// First free-standing argument: not a flag, and not the value of one.
fn positional(args: &[String]) -> Option<&String> {
    const VALUE_FLAGS: [&str; 35] = [
        "--out",
        "--sketch-mode",
        "--sketch-k",
        "--sketch-bands",
        "--sketch-rows",
        "--sketch-width",
        "--sketch-seed",
        "--sketch-banding",
        "--mem-budget",
        "--index-chunk-bytes",
        "--tau",
        "--min-size",
        "--domain",
        "--psi",
        "--procs",
        "--families",
        "--members",
        "--seed",
        "--save-trace",
        "--checkpoint-dir",
        "--checkpoint-every",
        "--checkpoint-every-components",
        "--stop-after",
        "--steal-workers",
        "--steal-chunks",
        "--steal-round",
        "--steal-seed",
        "--lease-timeout-ms",
        "--poll-ms",
        "--retry-budget",
        "--max-respawns",
        "--spec-slack",
        "--shards",
        "--shard-driver",
        "--shard-workers",
    ];
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip_next = true;
            continue;
        }
        if !a.starts_with("--") {
            return Some(a);
        }
    }
    None
}

fn load_fasta(args: &[String]) -> Result<SequenceSet, String> {
    let path = positional(args).ok_or("missing input FASTA path")?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let set = read_fasta(BufReader::new(file)).map_err(|e| format!("parsing {path}: {e}"))?;
    if set.is_empty() {
        return Err(format!("{path} contains no sequences"));
    }
    eprintln!("loaded {} sequences ({} residues) from {path}", set.len(), set.total_residues());
    Ok(set)
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let out = flag_value(args, "--out").ok_or("generate requires --out <fasta>")?;
    let config = DatasetConfig {
        n_families: parse(args, "--families", 20usize)?,
        n_members: parse(args, "--members", 400usize)?,
        seed: parse(args, "--seed", 0xCA3E2Au64)?,
        ..DatasetConfig::default()
    };
    let data = SyntheticDataset::generate(&config);
    let file = File::create(&out).map_err(|e| format!("cannot create {out}: {e}"))?;
    write_fasta(&data.set, BufWriter::new(file), 60).map_err(|e| e.to_string())?;
    // Ground truth alongside, for evaluation workflows.
    let truth_path = format!("{out}.truth.tsv");
    let mut truth = BufWriter::new(
        File::create(&truth_path).map_err(|e| format!("cannot create {truth_path}: {e}"))?,
    );
    writeln!(truth, "#seq_index\tfamily").map_err(|e| e.to_string())?;
    for (i, p) in data.provenance.iter().enumerate() {
        let fam = p.family().map_or("-".to_owned(), |f| f.to_string());
        writeln!(truth, "{i}\t{fam}").map_err(|e| e.to_string())?;
    }
    println!("wrote {} reads to {out} (ground truth: {truth_path})", data.set.len());
    Ok(())
}

/// Build the validated pipeline configuration shared by `cluster` and
/// `run` from the common flag set.
fn pipeline_config(args: &[String]) -> Result<(PipelineConfig, usize), String> {
    let tau: f64 = parse(args, "--tau", 0.5)?;
    let min_size: usize = parse(args, "--min-size", 5usize)?;
    let domain_w: Option<usize> = flag_value(args, "--domain")
        .map(|v| v.parse().map_err(|_| format!("invalid --domain: {v}")))
        .transpose()?;
    let mut cluster = ClusterConfig::default();
    if let Some(psi) = flag_value(args, "--psi") {
        cluster.psi_ccd = psi.parse().map_err(|_| format!("invalid --psi: {psi}"))?;
    }
    if flag_present(args, "--mask") {
        cluster.mask = Some(MaskParams::default());
    }
    let default_sketch = SketchParams::default();
    cluster.sketch = SketchParams {
        mode: match flag_value(args, "--sketch-mode").as_deref() {
            None => default_sketch.mode,
            Some("exact") => SketchMode::Exact,
            Some("approx") => SketchMode::Approx,
            Some("hybrid") => SketchMode::Hybrid,
            Some(other) => {
                return Err(format!("invalid --sketch-mode: {other} (exact|approx|hybrid)"))
            }
        },
        k: parse(args, "--sketch-k", default_sketch.k)?,
        bands: parse(args, "--sketch-bands", default_sketch.bands)?,
        rows: parse(args, "--sketch-rows", default_sketch.rows)?,
        width: parse(args, "--sketch-width", default_sketch.width)?,
        seed: parse(args, "--sketch-seed", default_sketch.seed)?,
        banding: match flag_value(args, "--sketch-banding").as_deref() {
            None => default_sketch.banding,
            Some("minhash") => SketchBanding::MinHash,
            Some("exhaustive") => SketchBanding::Exhaustive,
            Some(other) => {
                return Err(format!("invalid --sketch-banding: {other} (minhash|exhaustive)"))
            }
        },
        ..default_sketch
    };
    let default_steal = StealParams::default();
    cluster.steal = StealParams {
        enabled: flag_present(args, "--steal"),
        workers: parse(args, "--steal-workers", default_steal.workers)?,
        chunks_per_worker: parse(args, "--steal-chunks", default_steal.chunks_per_worker)?,
        round_pairs: parse(args, "--steal-round", default_steal.round_pairs)?,
        seed: parse(args, "--steal-seed", default_steal.seed)?,
    };
    let default_recovery = RecoveryParams::default();
    cluster.recovery = RecoveryParams {
        lease_timeout: std::time::Duration::from_millis(parse(
            args,
            "--lease-timeout-ms",
            default_recovery.lease_timeout.as_millis() as u64,
        )?),
        poll_interval: std::time::Duration::from_millis(parse(
            args,
            "--poll-ms",
            default_recovery.poll_interval.as_millis() as u64,
        )?),
        retry_budget: parse(args, "--retry-budget", default_recovery.retry_budget)?,
        max_respawns: parse(args, "--max-respawns", default_recovery.max_respawns)?,
        speculate: flag_present(args, "--speculate"),
        spec_slack: parse(args, "--spec-slack", default_recovery.spec_slack)?,
        ..default_recovery
    };
    let default_shard = ShardParams::default();
    cluster.shard = ShardParams {
        shards: parse(args, "--shards", default_shard.shards)?,
        driver: match flag_value(args, "--shard-driver").as_deref() {
            None => default_shard.driver,
            Some("batched") => ShardDriver::Batched,
            Some("stealing") => ShardDriver::Stealing,
            Some("pull") => ShardDriver::Pull,
            Some(other) => {
                return Err(format!("invalid --shard-driver: {other} (batched|stealing|pull)"))
            }
        },
        workers_per_shard: parse(args, "--shard-workers", default_shard.workers_per_shard)?,
        ..default_shard
    };
    let config = PipelineConfig {
        cluster,
        reduction: match domain_w {
            Some(w) => Reduction::DomainBased { w },
            None => Reduction::GlobalSimilarity { tau },
        },
        min_component_size: min_size,
        min_subgraph_size: min_size,
        ..PipelineConfig::default()
    }
    .with_mem_budget(parse_bytes(args, "--mem-budget", 0)?)
    .with_index_chunk_bytes(parse_bytes(args, "--index-chunk-bytes", 0)?);
    let problems = pfam::core::validate(&config);
    if !problems.is_empty() {
        return Err(problems.iter().map(ToString::to_string).collect::<Vec<_>>().join("; "));
    }
    Ok((config, min_size))
}

/// Print the Table-I row and write `families.tsv`.
fn report_families(
    set: &SequenceSet,
    result: &PipelineResult,
    min_size: usize,
    args: &[String],
) -> Result<(), String> {
    println!("{}", TableOneRow::header());
    println!("{}", TableOneRow::from_result(result, min_size));

    let out = flag_value(args, "--out").unwrap_or_else(|| "families.tsv".to_owned());
    let mut w =
        BufWriter::new(File::create(&out).map_err(|e| format!("cannot create {out}: {e}"))?);
    writeln!(w, "#family\tsize\tdensity\tmembers (FASTA headers)").map_err(|e| e.to_string())?;
    for (i, ds) in result.dense_subgraphs.iter().enumerate() {
        let headers: Vec<&str> = ds.members.iter().map(|&id| set.header(id)).collect();
        writeln!(w, "{i}\t{}\t{:.2}\t{}", ds.members.len(), ds.density.density, headers.join(","))
            .map_err(|e| e.to_string())?;
    }
    println!("{} families written to {out}", result.dense_subgraphs.len());
    Ok(())
}

fn cmd_cluster(args: &[String]) -> Result<(), String> {
    let set = load_fasta(args)?;
    let (config, min_size) = pipeline_config(args)?;
    pfam::cluster::check_sketch_params(&set, &config.cluster).map_err(|e| e.to_string())?;
    let result = run_pipeline_budgeted(&set, &config).map_err(|e| e.to_string())?;
    report_families(&set, &result, min_size, args)
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let set = load_fasta(args)?;
    let (config, min_size) = pipeline_config(args)?;
    pfam::cluster::check_sketch_params(&set, &config.cluster).map_err(|e| e.to_string())?;
    pfam::cluster::check_index_budget(&set, &config.cluster.mem.budget)
        .map_err(|e| e.to_string())?;
    let dir = flag_value(args, "--checkpoint-dir").ok_or("run requires --checkpoint-dir <dir>")?;
    let ckpt = CheckpointConfig {
        dir: std::path::PathBuf::from(&dir),
        every_batches: parse(args, "--checkpoint-every", 8usize)?,
        every_components: parse(args, "--checkpoint-every-components", 1usize)?,
    };
    let resume = flag_present(args, "--resume");
    let stop_after = match flag_value(args, "--stop-after").as_deref() {
        None => None,
        Some("rr") => Some(Phase::Rr),
        Some("ccd") => Some(Phase::Ccd),
        Some("dsd") => Some(Phase::Dsd),
        Some(other) => return Err(format!("invalid --stop-after: {other} (rr|ccd|dsd)")),
    };
    match run_pipeline_checkpointed(&set, &config, &ckpt, resume, stop_after)
        .map_err(|e| e.to_string())?
    {
        Some(result) => report_families(&set, &result, min_size, args),
        None => {
            println!(
                "stopped after the requested phase; checkpoints in {dir} — \
                 rerun with --resume to continue"
            );
            Ok(())
        }
    }
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let set = load_fasta(args)?;
    let procs: Vec<usize> = flag_value(args, "--procs")
        .unwrap_or_else(|| "32,64,128,512".to_owned())
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("invalid processor count: {s}")))
        .collect::<Result<_, _>>()?;
    let config = ClusterConfig::default();
    eprintln!("tracing RR…");
    let rr = run_redundancy_removal(&set, &config);
    let (nr, _) = set.subset(&rr.kept);
    eprintln!("tracing CCD…");
    let ccd = run_ccd(&nr, &config);
    let machine = MachineModel::bluegene_l();
    println!("phase\t{}", procs.iter().map(|p| format!("p={p}")).collect::<Vec<_>>().join("\t"));
    for (name, trace) in [("RR", &rr.trace), ("CCD", &ccd.trace)] {
        let row: Vec<String> = procs
            .iter()
            .map(|&p| format!("{:.3}s", simulate_phase(trace, &machine, p).seconds))
            .collect();
        println!("{name}\t{}", row.join("\t"));
    }
    println!(
        "CCD filter ratio: {:.2}% of {} promising pairs",
        ccd.trace.filter_ratio() * 100.0,
        ccd.trace.total_generated()
    );
    if let Some(prefix) = flag_value(args, "--save-trace") {
        for (suffix, trace) in [("rr", &rr.trace), ("ccd", &ccd.trace)] {
            let path = format!("{prefix}.{suffix}.trace.tsv");
            std::fs::write(&path, trace.to_tsv())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("trace saved to {path}");
        }
    }
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let path = positional(args).ok_or("missing trace path (from simulate --save-trace)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = pfam::cluster::PhaseTrace::from_tsv(&text)?;
    let procs: Vec<usize> = flag_value(args, "--procs")
        .unwrap_or_else(|| "32,64,128,512".to_owned())
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("invalid processor count: {s}")))
        .collect::<Result<_, _>>()?;
    let machine = MachineModel::bluegene_l();
    println!(
        "replaying {path}: {} batches, {} pairs, {} alignments",
        trace.batches.len(),
        trace.total_generated(),
        trace.total_aligned()
    );
    for p in procs {
        let r = simulate_phase(&trace, &machine, p);
        println!("p={p:<4} {:.3}s", r.seconds);
    }
    Ok(())
}

fn cmd_align(args: &[String]) -> Result<(), String> {
    let set = load_fasta(args)?;
    let indices: Vec<usize> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .skip(1) // the FASTA path
        .map(|a| a.parse().map_err(|_| format!("invalid sequence index: {a}")))
        .collect::<Result<_, _>>()?;
    let [i, j] = indices[..] else {
        return Err("align needs exactly two sequence indices".to_owned());
    };
    if i >= set.len() || j >= set.len() {
        return Err(format!("indices out of range (set has {} sequences)", set.len()));
    }
    let scheme = pfam::seq::ScoringScheme::blosum62_default();
    let (x, y) = (set.codes(pfam::seq::SeqId(i as u32)), set.codes(pfam::seq::SeqId(j as u32)));
    let aln = pfam::align::local_affine(x, y, &scheme);
    let st = aln.stats(x, y, &scheme.matrix);
    println!(
        "local alignment of #{i} ({}) vs #{j} ({}): score {}, {} columns, {:.1}% identity, {:.1}% positives",
        set.header(pfam::seq::SeqId(i as u32)),
        set.header(pfam::seq::SeqId(j as u32)),
        aln.score,
        st.columns,
        st.identity() * 100.0,
        st.similarity() * 100.0
    );
    print!("{}", pfam::align::render_alignment(&aln, x, y, &scheme.matrix, 60));
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let set = load_fasta(args)?;
    println!("{}", LengthStats::of(&set));
    let params = MaskParams::default();
    let masked: f64 =
        set.iter().map(|s| masked_fraction(s.codes, &params) * s.codes.len() as f64).sum::<f64>()
            / set.total_residues() as f64;
    println!("low-complexity residues: {:.2}%", masked * 100.0);
    let comp = pfam::seq::Composition::of(&set);
    println!(
        "composition: entropy {:.2} bits, KL vs background {:.3} bits, X fraction {:.2}%",
        comp.entropy_bits(),
        comp.relative_entropy_vs_background(),
        comp.unknown_fraction() * 100.0
    );
    Ok(())
}
