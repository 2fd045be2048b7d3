//! The metric names, units and bounds this benchmark answers for, the
//! root `BENCHMARK.json` rendered from them, and the per-run result
//! object. One table is the source of all three, so a name cannot be
//! printed without being declared or declared without being printed.

use std::fmt::Write as _;

use crate::workload::SPECS;

/// Seconds one run measures (`run_seconds` in the manifest).
pub const RUN_SECONDS: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a caller of the serving session sees. The bounds come from the
/// calibration in `README.md`. The issue asked for 0.10 on every metric;
/// the four timings do not reach it on the build host, whose memory
/// latency drifts by a fifth over minutes: in its quiet spells ten seeds
/// spread by 0.02 to 0.15, in its loud ones two sets of the same code
/// differ by more than any bound the contract allows. They carry that
/// largest bound, 0.25. The three byte counts move only with the seed's
/// corpus, in the fourth digit.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("qps", "1/s", Higher, 0.25),
    e2e("lat_p50_us", "us", Lower, 0.25),
    e2e("lat_p95_us", "us", Lower, 0.25),
    e2e("heap_bytes_per_posting", "bytes", Lower, 0.01),
    e2e("heap_peak_mb", "MB", Lower, 0.02),
    e2e("index_bytes_per_posting", "bytes", Lower, 0.01),
];

/// Single layers, prefix = module. `README.md` says which end-to-end
/// metric each should move and on which workload.
pub const PER_LAYER: &[MetricDef] = &[
    layer("corpus.generate_s", "s", Lower),
    layer("corpus.postings", "count", Lower),
    layer("index.build_s", "s", Lower),
    layer("index.shard_build_s", "s", Lower),
    layer("index.session_new_s", "s", Lower),
    layer("index.ready_batch_s", "s", Lower),
    layer("pack.decode_ns_per_posting", "ns", Lower),
    layer("pack.bytes_per_posting", "bytes", Lower),
    layer("blocks.bulk_decode_ns_per_posting", "ns", Lower),
    layer("blocks.cursor_ns_per_posting", "ns", Lower),
    layer("blocks.seek_ns", "ns", Lower),
    layer("blocks.bytes_per_posting", "bytes", Lower),
    layer("operator.pruned_daat_us_p50", "us", Lower),
    layer("operator.exhaustive_daat_us_p50", "us", Lower),
    layer("operator.set_at_a_time_us_p50", "us", Lower),
    layer("operator.postings_scanned_per_query", "count", Lower),
    layer("operator.seeks_per_query", "count", Lower),
    layer("operator.bound_exits_per_query", "count", Higher),
    layer("operator.docs_skipped_per_query", "count", Higher),
    layer("operator.scan_per_result", "ratio", Lower),
    layer("operator.shard_busy_us_p50", "us", Lower),
    layer("operator.shard_busy_us_p99", "us", Lower),
    layer("operator.phase_share.gate_pass", "ratio", Lower),
    layer("operator.phase_share.decode", "ratio", Lower),
    layer("operator.phase_share.score", "ratio", Lower),
    layer("operator.phase_share.merge", "ratio", Lower),
    layer("threshold.scan_ratio", "ratio", Lower),
    layer("pool.postings_scanned_per_query", "count", Lower),
    layer("planner.plan_us_p50", "us", Lower),
    layer("planner.memo_plan_us_p50", "us", Lower),
    layer("planner.memo_hit_ratio", "ratio", Higher),
    layer("planner.pick_share.pruned_daat", "ratio", Higher),
    layer("planner.pick_share.set_at_a_time", "ratio", Higher),
    layer("planner.pick_share.exhaustive_daat", "ratio", Lower),
    layer("planner.pick_share.fragmented", "ratio", Lower),
    layer("planner.wall_regret", "ratio", Lower),
    layer("topn.kway_merge_ns", "ns", Lower),
    layer("topn.heap_push_ns", "ns", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.hit_ns", "ns", Lower),
    layer("cache.miss_insert_ns", "ns", Lower),
    layer("cache.invalidate_ns", "ns", Lower),
    layer("cache.evictions_per_kq", "count", Lower),
    layer("cache.stale_reclaimed_per_kq", "count", Lower),
    layer("cache.entries", "count", Higher),
    layer("cache.bytes_high_water", "bytes", Lower),
    layer("admission.coalesced_ratio", "ratio", Higher),
    layer("admission.shed", "count", Lower),
    layer("admission.queue_high_water", "count", Lower),
    layer("pool.handoff_us_p50", "us", Lower),
    layer("pool.queue_wait_us_p50", "us", Lower),
    layer("pool.busy_share", "ratio", Higher),
    layer("pool.shard_imbalance", "ratio", Lower),
    layer("service.kway_merge_us_p50", "us", Lower),
    layer("service.deliver_us_p50", "us", Lower),
    layer("service.solo_p99_us", "us", Lower),
    layer("service.sat_spread", "ratio", Lower),
    layer("service.unattributed_share", "ratio", Lower),
    layer("obs.telemetry_overhead_ratio", "ratio", Lower),
    layer("process.cpu_us_per_query", "us", Lower),
    layer("process.ctx_switches_per_query", "count", Lower),
    layer("process.peak_rss_mb", "MB", Lower),
    layer("loadgen.clock_ns", "ns", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// The values one run reports, checked against one of the tables above.
pub struct Report {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Report {
    pub fn new(defs: &'static [MetricDef]) -> Report {
        Report {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Record a metric. A name outside the table, a second value for the
    /// same name, or a value that is not a finite number is a bug in the
    /// benchmark, so it panics.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in BENCHMARK.json"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.values[i].is_none(), "metric {name} reported twice");
        self.values[i] = Some(value);
    }

    /// Every declared metric with its value, in table order; the names
    /// still missing otherwise.
    pub fn finish(self) -> Result<Vec<(&'static MetricDef, f64)>, Vec<&'static str>> {
        let missing: Vec<&str> = self
            .defs
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|(d, _)| d.name)
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        Ok(self
            .defs
            .iter()
            .zip(self.values)
            .map(|(d, v)| (d, v.expect("checked above")))
            .collect())
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static MetricDef, f64)>,
}

impl Outcome {
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(d, _)| d.name == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }

    /// The one-line result object the driver reads.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (d, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        s.push_str("}}");
        s
    }
}

fn metric_json(d: &MetricDef) -> String {
    let better = match d.better {
        Lower => "lower",
        Higher => "higher",
    };
    let bound = d
        .bound
        .map_or(String::new(), |b| format!(", \"bound\": {b}"));
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
        d.name, d.unit
    )
}

/// The root `BENCHMARK.json`, byte for byte (`moabench --manifest`).
pub fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "moabench/Cargo.toml",
        "--",
    ]
    .map(|a| format!("\"{a}\""))
    .join(", ");
    let workloads: Vec<String> = SPECS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let list = |defs: &[MetricDef]| defs.iter().map(metric_json).collect::<Vec<_>>().join(",\n");
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [\"moabench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        list(END_TO_END),
        list(PER_LAYER)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_the_rendered_one() {
        let committed = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `moabench --manifest`"
        );
    }

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|d| d.name)
            .chain(SPECS.iter().map(|w| w.name))
            .collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!((2..=8).contains(&SPECS.len()));
        assert!(SPECS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn a_report_prints_every_declared_name_once_and_nothing_else() {
        let mut r = Report::new(END_TO_END);
        for (i, d) in END_TO_END.iter().enumerate() {
            r.set(d.name, i as f64 + 0.5);
        }
        let metrics = r.finish().expect("all set");
        let line = Outcome {
            workload: "w",
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
        }
        .json_line();
        for d in END_TO_END {
            let key = format!("\"{}\": {{\"value\": ", d.name);
            assert_eq!(line.matches(&key).count(), 1, "{}", d.name);
            assert!(line.contains(&format!("\"unit\": \"{}\"}}", d.unit)));
        }
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));

        let mut partial = Report::new(PER_LAYER);
        partial.set("corpus.postings", 1.0);
        let missing = partial.finish().expect_err("the rest is missing");
        assert_eq!(missing.len(), PER_LAYER.len() - 1);
    }

    #[test]
    #[should_panic(expected = "not in BENCHMARK.json")]
    fn an_undeclared_name_is_refused() {
        Report::new(END_TO_END).set("qps_typo", 1.0);
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn a_second_value_is_refused() {
        let mut r = Report::new(END_TO_END);
        r.set("qps", 1.0);
        r.set("qps", 2.0);
    }
}
