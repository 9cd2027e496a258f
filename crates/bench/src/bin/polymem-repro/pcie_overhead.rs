//! **Methodology experiment (§V)** — the host-FPGA signalling overhead.
//! The paper: "This minimum overhead is, according to our dedicated
//! measurements, around 300ns, and interferes with any measurements of
//! applications with comparable runtimes." This experiment reproduces that
//! dedicated measurement on the link model and shows the interference
//! threshold.

use dfe_sim::{Host, PcieLink};
use polymem_bench::render_table;

pub fn run() {
    let link = PcieLink::vectis();
    let mut host = Host::new(link);

    // The dedicated measurement: empty blocking calls, amortized.
    let runs = 1000;
    let mut total = 0.0;
    for _ in 0..runs {
        total += host.signal();
    }
    println!(
        "empty blocking call, {} runs: {:.0} ns/call (paper: ~300 ns)\n",
        runs,
        total / runs as f64
    );

    // Interference: fraction of a measured runtime that is pure overhead,
    // as a function of the kernel's real work.
    println!("overhead share vs kernel runtime (the left side of Fig. 10):");
    let headers = ["kernel ns", "measured ns", "overhead %"];
    let rows: Vec<Vec<String>> = [100.0f64, 300.0, 1000.0, 3000.0, 10_000.0, 100_000.0]
        .iter()
        .map(|&work| {
            let measured = work + link.call_overhead_ns;
            vec![
                format!("{work:.0}"),
                format!("{measured:.0}"),
                format!("{:.1}", 100.0 * link.call_overhead_ns / measured),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));

    // Bulk transfers: where bandwidth, not overhead, dominates.
    println!(
        "bulk transfer efficiency at {} GB/s link:",
        link.bandwidth_gbps
    );
    for kb in [1usize, 16, 256, 4096] {
        let bytes = kb * 1024;
        let t = link.call_time_ns(bytes);
        let eff = bytes as f64 / link.bandwidth_gbps / t * 100.0;
        println!("  {kb:>5} KB: {t:>10.0} ns, {eff:>5.1}% of wire speed");
    }
}
