//! **Extension** — the DSE's Pareto frontier on the two-axis engine: which
//! configurations are not dominated on (measured read bandwidth ↑, BRAM ↓,
//! Fmax ↑)? The paper reports the whole grid; a user picking a
//! configuration wants the efficient subset.

use polymem::telemetry::TelemetryRegistry;
use polymem_bench::{grid_label, render_table};
use polymem_dse::{engine, pareto};

pub fn run() {
    let result = engine::sweep(&engine::SweepConfig::full(), &TelemetryRegistry::new());
    let front = pareto::front(&result.points);
    let mut entries: Vec<_> = front.iter().map(|&i| &result.points[i]).collect();
    entries.sort_by(|x, y| {
        y.measured_read_gibps()
            .unwrap()
            .total_cmp(&x.measured_read_gibps().unwrap())
    });

    println!(
        "Pareto frontier of the full DSE ({} of {} feasible points are efficient)\n",
        entries.len(),
        result.feasible().count(),
    );
    let headers = [
        "Config",
        "Scheme",
        "Meas GiB/s",
        "BRAM blocks",
        "Fmax MHz",
        "Logic %",
    ];
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|p| {
            vec![
                grid_label(p.size_kb, p.lanes, p.read_ports),
                p.scheme.name().to_string(),
                format!("{:.1}", p.measured_read_gibps().unwrap()),
                format!("{:.1}", p.synth.resources.bram_blocks),
                format!("{:.0}", p.synth.fmax_mhz),
                format!("{:.1}", p.synth.utilization.logic_pct),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));

    // Sanity: the frontier must contain the bandwidth champion (a 512 KB
    // point) and be all-RoCo — BRAM count is scheme-independent, so every
    // non-RoCo point is dominated by its RoCo sibling (same blocks, higher
    // Fmax, higher measured bandwidth).
    assert!(entries.iter().any(|p| p.size_kb == 512));
    assert!(entries
        .iter()
        .all(|p| p.scheme == polymem::AccessScheme::RoCo));
    println!("Every non-listed configuration is dominated: something on this list gives at\nleast its bandwidth for at most its BRAM at at least its clock.");
}
