//! The benchmark's own checks: a tiny-seed smoke pass over every
//! workload in both modes, the span tree's shape, and agreement between
//! the metric catalogue and `BENCHMARK.json`.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::workload::{self, Scratch, Workload};
use perfbench::{prepare, spans, traced, Args};

/// Small enough for a debug-profile test, large enough that every
/// workload still reports families.
const TINY: f64 = 0.05;

fn tiny(workload: Workload, trace: bool) -> Args {
    Args { workload, seed: 3, seconds: 0.0, trace, scale: TINY }
}

#[test]
fn tiny_seed_smoke_pass_emits_every_metric_on_every_workload() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = perfbench::run(&tiny(workload, trace));
            let catalogue = if trace { PER_LAYER } else { END_TO_END };
            let name = workload.name();
            assert!(outcome.correct, "{name} trace={trace}: {outcome:?}");
            assert!(outcome.attempted >= 1 && outcome.failed == 0, "{name} trace={trace}");
            assert_eq!(outcome.metrics.missing(catalogue), Vec::<String>::new(), "{name}");
            let line = outcome.result_line(trace);
            for (metric, unit) in catalogue {
                let field = format!("\"{metric}\": {{\"value\": ");
                assert!(line.contains(&field), "{name}: {metric} missing from {line}");
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{name}: {metric}");
            }
            assert!(!line.contains('\n') && line.starts_with("{\"correct\": true"));
        }
    }
}

#[test]
fn span_tree_is_well_formed_with_non_negative_self_time() {
    for workload in [Workload::LongtailPaged, Workload::LongtailHybrid] {
        let input = workload::generate(5, TINY);
        let scratch = Scratch::new("span-tree");
        let (prepared, _) = prepare(workload, &input.fasta, &scratch);
        for serial in [false, true] {
            let run = traced::compose(workload, prepared.input(), &scratch, serial)
                .expect("the traced composition runs");
            let spans = &run.spans;
            spans::check_tree(spans).expect("children lie within their parents");
            assert_eq!(spans.iter().filter(|s| s.parent.is_none()).count(), 1, "one root");
            let selfs = spans::self_times(spans);
            for s in spans {
                assert!(selfs[&s.id] <= s.duration(), "self time of {} exceeds its span", s.name);
            }
            for name in
                ["rr", "rr.index", "rr.verify", "ccd", "ccd.pairgen", "executor", "bgg", "dsd"]
            {
                assert!(spans.iter().any(|s| s.name == name), "{workload:?}: no {name} span");
            }
        }
    }
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`, in order.
fn declared(json: &str, section: &str, next: Option<&str>) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let end = next.map_or(json.len(), |n| json.find(&format!("\"{n}\"")).expect("next section"));
    let body = &json[start..end];
    let field = |rest: &str, key: &str| -> Option<(String, usize)> {
        let at = rest.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = rest[at..].find('"')?;
        Some((rest[at..at + len].to_string(), at + len))
    };
    let mut out = Vec::new();
    let mut rest = body;
    while let Some((name, used)) = field(rest, "name") {
        rest = &rest[used..];
        let unit = match field(rest, "unit") {
            Some((unit, used)) if !rest[..used].contains("\"name\"") => {
                rest = &rest[used..];
                unit
            }
            _ => String::new(),
        };
        out.push((name, unit));
    }
    out
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(declared(&json, "end_to_end", Some("per_layer")), own(END_TO_END));
    assert_eq!(declared(&json, "per_layer", None), own(PER_LAYER));
    let workloads: Vec<String> =
        declared(&json, "workloads", Some("end_to_end")).into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
