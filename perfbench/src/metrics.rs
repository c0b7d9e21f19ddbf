//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the names and units declared in
//! `BENCHMARK.json`; a run with `--trace 0` emits exactly the first list,
//! one with `--trace 1` exactly the second. Layers a workload bypasses
//! report 0 for their counters and times.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("orfs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_alloc_bytes", "bytes"),
    ("precision", "ratio"),
    ("coverage", "ratio"),
];

/// `(name, unit)` of every per-layer metric of the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // seq: ingest, paged store, budget ledger.
    ("seq.ingest_s", "s"),
    ("seq.store_write_s", "s"),
    ("seq.budget_peak_bytes", "bytes"),
    ("seq.alloc_over_budget", "ratio"),
    // Pair-source path each phase took (see `source_path_code`).
    ("rr.source_path", "code"),
    ("ccd.source_path", "code"),
    ("rr.index_chunks", "count"),
    ("ccd.index_chunks", "count"),
    // suffix: index build and pair mining.
    ("rr.index_s", "s"),
    ("rr.pairgen_s", "s"),
    ("ccd.index_s", "s"),
    ("ccd.pairgen_s", "s"),
    ("rr.pairs_generated", "count"),
    ("ccd.pairs_generated", "count"),
    ("rr.nodes_visited", "count"),
    ("ccd.nodes_visited", "count"),
    ("rr.pairs_per_s", "1/s"),
    ("ccd.pairs_per_s", "1/s"),
    // cluster: the ClusterCore filter and verdict absorption.
    ("rr.s", "s"),
    ("ccd.s", "s"),
    ("rr.filter_s", "s"),
    ("ccd.filter_s", "s"),
    ("rr.absorb_s", "s"),
    ("ccd.absorb_s", "s"),
    ("ccd.filter_ratio", "ratio"),
    ("ccd.accept_ratio", "ratio"),
    ("rr.removed", "count"),
    // align: the verification kernel.
    ("rr.verify_s", "s"),
    ("ccd.verify_s", "s"),
    ("rr.aligned", "count"),
    ("ccd.aligned", "count"),
    ("rr.cells_computed", "count"),
    ("ccd.cells_computed", "count"),
    ("rr.cells_skipped", "count"),
    ("ccd.cells_skipped", "count"),
    ("rr.cells_per_s", "1/s"),
    ("ccd.cells_per_s", "1/s"),
    ("rr.verify_calls", "count"),
    ("ccd.verify_calls", "count"),
    // lsh: sketch + probe candidate generation.
    ("lsh.setup_s", "s"),
    ("lsh.pairgen_s", "s"),
    ("lsh.probed", "count"),
    ("lsh.confirmed", "count"),
    ("lsh.confirm_ratio", "ratio"),
    ("lsh.recall", "ratio"),
    // bgg: per-component similarity graphs.
    ("bgg.s", "s"),
    ("bgg.aligned", "count"),
    ("bgg.cells_computed", "count"),
    ("bgg.edges", "count"),
    ("bgg.largest_component", "count"),
    // shingle DSD, including the graph layer's Bd reduction.
    ("dsd.s", "s"),
    ("dsd.bd_s", "s"),
    ("dsd.pass1_shingles", "count"),
    ("dsd.distinct_s1", "count"),
    ("dsd.pass2_shingles", "count"),
    ("dsd.subgraphs", "count"),
    ("dsd.us_per_component", "us"),
    // core: the back-half executor and checkpoint I/O.
    ("executor.s", "s"),
    ("executor.overlap", "ratio"),
    ("ckpt.writes", "count"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.write_s", "s"),
    // Allocator high-water per phase.
    ("rr.peak_bytes", "bytes"),
    ("ccd.peak_bytes", "bytes"),
    ("executor.peak_bytes", "bytes"),
    // Parallel (p = 2) over single-threaded time; 0 when refused on 1 core.
    ("rr.speedup_p2", "ratio"),
    ("ccd.speedup_p2", "ratio"),
    ("executor.speedup_p2", "ratio"),
    ("pipeline.speedup_p2", "ratio"),
    // The trace itself.
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
    // Families that differ between this workload's generation plan and
    // the monolithic in-memory plan (longtail_paged only).
    ("check.plan_family_diff", "count"),
];

/// Values by name, filled in by a run.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Record `name`; non-finite values (an empty denominator) read 0.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), if value.is_finite() { value } else { 0.0 });
    }

    /// Names of `catalogue` this run did not record.
    pub fn missing(&self, catalogue: &[(&str, &str)]) -> Vec<String> {
        catalogue
            .iter()
            .filter(|(n, _)| !self.values.contains_key(*n))
            .map(|(n, _)| n.to_string())
            .collect()
    }

    /// The `"metrics"` JSON object over `catalogue`, in catalogue order.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> String {
        let body: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(*name).copied().unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The result line: the last line a run prints on stdout.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    catalogue: &[(&str, &str)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json(catalogue)
    )
}

/// Median of `xs` (mean of the middle two for an even count; 0 if empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
            && s.as_bytes()[0].is_ascii_alphanumeric()
    }

    #[test]
    fn every_metric_has_a_valid_name_and_a_unit_and_is_declared_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit for {name}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn non_finite_values_read_zero_in_json() {
        let mut m = Metrics::default();
        m.set("wall_s", f64::NAN);
        assert_eq!(m.to_json(&[("wall_s", "s")]), "{\"wall_s\": {\"value\": 0, \"unit\": \"s\"}}");
    }
}
