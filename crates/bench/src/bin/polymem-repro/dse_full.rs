//! **Table III** — the full design-space exploration, on the parallel
//! two-axis engine (`polymem-dse`): every point of the 240-point extended
//! grid (Table III's 160 plus the 32-lane arm) is synthesized by the
//! analytic model *and* measured through the event-driven simulator.
//! `--quick` sweeps the reduced CI grid instead.
//!
//! This experiment is the human-readable view; the machine-readable,
//! drift-gated artifact is `DSE_report.json` (see the `polymem-dse` binary).

use polymem::telemetry::TelemetryRegistry;
use polymem_bench::{grid_label, render_table};
use polymem_dse::{claims, engine};

pub fn run(quick: bool) {
    let cfg = if quick {
        engine::SweepConfig::quick()
    } else {
        engine::SweepConfig::full()
    };
    println!(
        "Table III DSE: sizes {:?} KB x lanes {:?} x ports {:?} x {} schemes = {} points\n",
        cfg.grid.sizes_kb,
        cfg.grid.lanes,
        cfg.grid.read_ports,
        cfg.grid.schemes.len(),
        cfg.grid.len()
    );

    let result = engine::sweep(&cfg, &TelemetryRegistry::new());
    let headers = [
        "Config",
        "Scheme",
        "Feasible",
        "Fmax MHz",
        "Write GB/s",
        "Read GB/s",
        "Meas GiB/s",
        "Logic %",
        "BRAM %",
    ];
    let rows: Vec<Vec<String>> = result
        .points
        .iter()
        .map(|p| {
            vec![
                grid_label(p.size_kb, p.lanes, p.read_ports),
                p.scheme.name().to_string(),
                if p.feasible() { "yes" } else { "NO" }.to_string(),
                format!("{:.0}", p.synth.fmax_mhz),
                format!("{:.1}", p.synth.write_bandwidth_gbps()),
                format!("{:.1}", p.synth.read_bandwidth_gbps()),
                p.measured_read_gibps()
                    .map(|b| format!("{b:.1}"))
                    .unwrap_or_else(|| "-".to_string()),
                format!("{:.1}", p.synth.utilization.logic_pct),
                format!("{:.1}", p.synth.utilization.bram_pct),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));

    println!(
        "Feasible: {} / {} points ({} simulated passes, {} scheduler jumps)",
        result.feasible().count(),
        result.points.len(),
        result.feasible().count(),
        result.sched.jumps,
    );

    println!("\ntrend claims:");
    for c in claims::evaluate(&result) {
        let mark = if c.holds { "PASS" } else { "FAIL" };
        println!("  [{mark}] {}: {}", c.id, c.details);
        assert!(c.holds, "claim {} failed: {}", c.id, c.details);
    }
}
