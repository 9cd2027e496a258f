//! **Fig. 10** — STREAM-Copy aggregated (read+write) bandwidth vs copied
//! data size, on the cycle-level simulator with the paper's exact setup:
//! RoCo 2x4 (8 lanes), 120 MHz, 64-bit elements, 14-cycle read latency,
//! ~300 ns host-call overhead, 1000 runs per point.

use polymem_bench::render_table;
use stream_bench::{fig10_default_sizes, fig10_series};

pub fn run() {
    println!("Fig. 10: STREAM-Copy bandwidth vs copied data (paper geometry, 120 MHz)\n");
    let sizes = fig10_default_sizes();
    let series = fig10_series(&sizes, 1000);

    let headers = ["Copied KB", "MB/s", "% of 15360 peak"];
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.copied_kb),
                format!("{:.0}", p.bandwidth_mbps),
                format!("{:.2}", 100.0 * p.fraction_of_peak),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));

    let last = series.last().unwrap();
    println!(
        "At the maximum array size ({:.0} KB): {:.0} MB/s = {:.2}% of the 15360 MB/s peak.",
        last.copied_kb,
        last.bandwidth_mbps,
        100.0 * last.fraction_of_peak
    );
    println!("Paper: 15301 MB/s measured, >99% of theoretical peak.");
    assert!(last.fraction_of_peak > 0.99, "the >99% headline must hold");
}
