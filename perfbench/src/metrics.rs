//! The metric tables `BENCHMARK.json` declares, and the one-line JSON
//! result every run prints last.
//!
//! Every run emits every metric of its table: an untraced run the
//! [`END_TO_END`] table, a traced run the [`PER_LAYER`] table. A per-layer
//! metric of a layer the workload does not exercise reads 0 (no work,
//! no time).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, from untraced runs. Host time unless named
/// `sim_*`; `stream-host` and `stream-dfe` report it at reference speed
/// (see [`crate::reference`]).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("pass_ms_p50", "ms", "lower"),
    m("host_gibs", "GiB/s", "higher"),
    m("ops_per_s", "1/s", "higher"),
    m("op_us_p50", "us", "lower"),
    m("op_us_p90", "us", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics, from traced runs.
pub const PER_LAYER: &[Metric] = &[
    // stream-host: region replay (bulk), the STREAM loop, region plans.
    m("bulk.gather_ns_per_elem", "ns", "lower"),
    m("bulk.scatter_ns_per_elem", "ns", "lower"),
    m("bulk.copy_ns_per_elem", "ns", "lower"),
    m("compute.ns_per_elem", "ns", "lower"),
    m("stream.copy_gibs", "GiB/s", "higher"),
    m("stream.scale_gibs", "GiB/s", "higher"),
    m("stream.add_gibs", "GiB/s", "higher"),
    m("stream.triad_gibs", "GiB/s", "higher"),
    m("stream.triad_over_copy_ns_ratio", "ratio", "lower"),
    m("region_plan.hit_ratio", "ratio", "higher"),
    m("region_plan.mean_run_len", "elems", "higher"),
    m("region_plan.coalesced_share", "ratio", "higher"),
    m("region_plan.compile_us", "us", "lower"),
    // readings-mix: per-access and region ops on the concurrent memory.
    m("concurrent.read_co_ns_p50", "ns", "lower"),
    m("concurrent.read_ro_ns_p50", "ns", "lower"),
    m("concurrent.read_re_ns_p50", "ns", "lower"),
    m("concurrent.write_ns_p50", "ns", "lower"),
    m("concurrent.read_region_us_p50", "us", "lower"),
    m("concurrent.write_region_us_p50", "us", "lower"),
    m("concurrent.region_ns_per_elem", "ns", "lower"),
    m("concurrent.contention_ratio", "ratio", "lower"),
    m("plan.hit_ratio", "ratio", "higher"),
    // stream-dfe: the app's stages and the simulator under them.
    m("app.load_ms", "ms", "lower"),
    m("app.run_pass_chunk_ms", "ms", "lower"),
    m("app.run_pass_burst_ms", "ms", "lower"),
    m("app.offload_ms", "ms", "lower"),
    m("sim_host_ns_per_cycle", "ns", "lower"),
    m("dfe_sim.host_ns_per_cycle_chunk", "ns", "lower"),
    m("dfe_sim.host_ns_per_cycle_burst", "ns", "lower"),
    m("dfe_sim.sched_jump_share", "ratio", "higher"),
    m("dfe_sim.cycles.active", "count", "lower"),
    m("dfe_sim.cycles.contention", "count", "lower"),
    m("dfe_sim.cycles.pipeline", "count", "lower"),
    m("dfe_sim.cycles.pcie", "count", "lower"),
    m("dfe_sim.cycles.idle", "count", "lower"),
    m("pcie.modeled_load_us", "sim_us", "lower"),
    m("pcie.modeled_offload_us", "sim_us", "lower"),
    m("sim_copy_mbs", "MB/s", "higher"),
    m("sim_triad_mbs", "MB/s", "higher"),
    m("sim.copy_error_vs_paper", "ratio", "lower"),
    m("stream_bench.burst_cycle_ratio_copy", "ratio", "lower"),
    m("stream_bench.burst_cycle_ratio_triad", "ratio", "lower"),
    // Wall-time shares of the traced passes; they and `untracked.share`
    // add up to 1 (see `crate::spans::attribute`).
    m("bulk.gather.share", "ratio", "lower"),
    m("bulk.scatter.share", "ratio", "lower"),
    m("bulk.copy.share", "ratio", "lower"),
    m("compute.share", "ratio", "lower"),
    m("region_plan.share", "ratio", "lower"),
    m("concurrent.read.share", "ratio", "lower"),
    m("concurrent.write.share", "ratio", "lower"),
    m("concurrent.read_region.share", "ratio", "lower"),
    m("concurrent.write_region.share", "ratio", "lower"),
    m("plan.share", "ratio", "lower"),
    m("app.load.share", "ratio", "lower"),
    m("app.run_pass_chunk.share", "ratio", "lower"),
    m("app.run_pass_burst.share", "ratio", "lower"),
    m("app.offload.share", "ratio", "lower"),
    m("dfe_sim.share", "ratio", "lower"),
    m("untracked.share", "ratio", "lower"),
    // Every workload. `pass_ms_p90` and `op_us_p99` come from the untraced
    // half of a traced run: on a shared virtual machine these tails track
    // the host's load more than the program (see README.md).
    m("pass_ms_p90", "ms", "lower"),
    m("op_us_p99", "us", "lower"),
    m("reference.scale", "ratio", "higher"),
    m("trace.overhead_ratio", "ratio", "lower"),
    m("trace.reconcile_error", "ratio", "lower"),
    m("failed_ops_ratio", "ratio", "lower"),
];

/// The bound `trace.reconcile_error` — |sum of shares − 1| — must stay
/// within: layer self times plus `untracked` add up to the pass wall time
/// up to floating-point rounding.
pub const SHARE_SUM_BOUND: f64 = 1e-9;

/// The names of the share metrics (`*.share`).
pub fn share_names() -> impl Iterator<Item = &'static str> {
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .filter(|n| n.ends_with(".share"))
}

/// One run's result: metric values plus the correctness tally.
#[derive(Debug, Clone, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or returned wrong data.
    pub failed: u64,
}

impl Report {
    /// Record `value` for the declared metric `name`.
    ///
    /// # Panics
    /// If `name` is not declared in either table (a typo would otherwise
    /// report the declared metric as 0).
    pub fn set(&mut self, name: &str, value: f64) {
        let metric = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        self.values.insert(metric.name, value);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Fold an operation tally into the report.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The table a run with this trace setting reports.
    pub fn table(trace: bool) -> &'static [Metric] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The value of every metric of the run's table (0 for a per-layer
    /// metric the workload does not exercise).
    ///
    /// # Panics
    /// If an end-to-end metric was not recorded.
    pub fn values(&self, trace: bool) -> Vec<(Metric, f64)> {
        Self::table(trace)
            .iter()
            .map(|m| {
                let v = match self.get(m.name) {
                    Some(v) => v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {} not recorded", m.name),
                };
                (*m, if v.is_finite() { v } else { 0.0 })
            })
            .collect()
    }

    /// The result line: `{"correct": .., "attempted": .., "failed": ..,
    /// "metrics": {name: {"value": .., "unit": ..}, ..}}`.
    pub fn to_json(&self, trace: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (k, (m, v)) in self.values(trace).into_iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            // `{:?}` prints the shortest string that round-trips the f64,
            // so every measured digit survives.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.better == "lower" || m.better == "higher");
        }
    }

    #[test]
    fn json_prints_every_metric_of_the_table() {
        let mut r = Report::default();
        for m in END_TO_END {
            r.set(m.name, 1.5);
        }
        r.tally(3, 0);
        let j = r.to_json(false);
        assert!(j.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for m in END_TO_END {
            assert!(j.contains(&format!("\"{}\": {{\"value\": 1.5", m.name)));
        }
        let traced = r.to_json(true);
        assert!(traced.contains("\"untracked.share\": {\"value\": 0.0"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_panics() {
        Report::default().set("no.such_metric", 1.0);
    }
}
