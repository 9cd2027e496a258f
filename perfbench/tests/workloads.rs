//! Tiny-size runs of every workload: every declared metric is emitted,
//! shares reconcile with the pass wall time, deterministic simulated
//! figures repeat exactly, and `BENCHMARK.json` declares what the binary
//! prints.

use perfbench::harness::Config;
use perfbench::metrics::{share_names, Report, END_TO_END, PER_LAYER, SHARE_SUM_BOUND};
use perfbench::WORKLOADS;
use std::process::Command;

fn tiny(workload: &str, seed: u64, trace: bool) -> Report {
    let cfg = Config {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        tiny: true,
    };
    let report = perfbench::run(&cfg).expect("known workload");
    assert!(report.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(report.failed, 0, "{workload}: failed operations");
    report
}

/// The per-layer metric prefixes each workload owns.
fn owned(workload: &str) -> &'static [&'static str] {
    match workload {
        "stream-host" => &["bulk.", "compute.", "stream.", "region_plan."],
        "readings-mix" => &["concurrent.", "plan."],
        _ => &["app.", "dfe_sim.", "pcie.", "sim", "stream_bench."],
    }
}

#[test]
fn every_workload_emits_every_metric() {
    for w in WORKLOADS {
        let e2e = tiny(w, 1, false);
        for (m, v) in e2e.values(false) {
            assert!(
                v > 0.0,
                "{w}: end-to-end {} must be non-zero, got {v}",
                m.name
            );
        }
        let traced = tiny(w, 1, true);
        let values = traced.values(true);
        assert_eq!(values.len(), PER_LAYER.len());
        for m in PER_LAYER {
            let mine = owned(w).iter().any(|p| m.name.starts_with(p))
                || m.name.starts_with("trace.")
                || m.name == "pass_ms_p90"
                || m.name == "failed_ops_ratio"
                || m.name == "untracked.share";
            if mine {
                assert!(traced.get(m.name).is_some(), "{w}: {} not recorded", m.name);
            }
        }
        assert_eq!(traced.get("failed_ops_ratio"), Some(0.0), "{w}");
        let json = traced.to_json(true);
        assert!(json.starts_with("{\"correct\": true"), "{w}: {json}");
    }
}

#[test]
fn shares_and_untracked_add_up_to_one() {
    for w in WORKLOADS {
        let r = tiny(w, 2, true);
        let sum: f64 = share_names().map(|n| r.get(n).unwrap_or(0.0)).sum();
        assert!(
            (sum - 1.0).abs() <= SHARE_SUM_BOUND,
            "{w}: shares sum to {sum}"
        );
        let err = r.get("trace.reconcile_error").expect("reported");
        assert!(err <= SHARE_SUM_BOUND, "{w}: reconcile error {err}");
        let untracked = r.get("untracked.share").expect("reported");
        assert!(
            (0.0..1.0).contains(&untracked),
            "{w}: untracked {untracked}"
        );
    }
}

#[test]
fn deterministic_simulated_figures_repeat_exactly() {
    let deterministic: Vec<&str> = PER_LAYER
        .iter()
        .map(|m| m.name)
        .filter(|n| {
            n.starts_with("sim_")
                || n.starts_with("sim.")
                || n.starts_with("dfe_sim.cycles.")
                || n.starts_with("stream_bench.burst_cycle_ratio_")
                || n.starts_with("pcie.modeled_")
        })
        .filter(|n| *n != "sim_host_ns_per_cycle")
        .collect();
    assert_eq!(deterministic.len(), 12);
    // Different seeds change the data, never the simulated timing.
    let a = tiny("stream-dfe", 3, true);
    let b = tiny("stream-dfe", 4, true);
    for n in deterministic {
        let (x, y) = (a.get(n).expect(n), b.get(n).expect(n));
        assert_eq!(x.to_bits(), y.to_bits(), "{n}: {x} vs {y}");
    }
    assert!(a.get("dfe_sim.cycles.active").unwrap() > 0.0);
}

#[test]
fn benchmark_json_declares_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "{w}"
        );
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = json.matches("{\"name\": ").count();
    assert_eq!(
        declared,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
}

#[test]
fn binary_prints_one_json_line_and_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    let out = Command::new(bin)
        .args([
            "--workload",
            "stream-host",
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--tiny",
        ])
        .output()
        .expect("run the benchmark");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.ends_with("}}}"), "{last}");
    for m in END_TO_END {
        assert!(
            last.contains(&format!("\"{}\": {{\"value\": ", m.name)),
            "{last}"
        );
    }
    let bad = Command::new(bin)
        .args(["--workload", "nope"])
        .output()
        .expect("run the benchmark");
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
}
