//! **Fig. 6** — logic (slice) utilization per configuration, percent of the
//! Virtex-6 SX475T's 74,400 slices.

use fpga_model::explore_paper;
use polymem_bench::{feasible_range, scheme_by_config_table};

pub fn run() {
    let pts = explore_paper();
    println!("Fig. 6: logic utilization (%)\n");
    let table = scheme_by_config_table(&pts, |p| format!("{:.1}", p.report.utilization.logic_pct));
    println!("{table}");

    let (min, max) = feasible_range(&pts, |p| p.report.utilization.logic_pct);
    println!("Feasible range: {min:.1}% .. {max:.1}%  (paper: 10.58% .. <38%)");
    println!("\nPaper anchors:");
    println!("  512KB/8L/1P ReO    10.58%   |   4096KB/8L/1P RoCo  13.05%");
    println!("  512KB/8L/1P ReRo   10.78%   |   512KB/8L/4P ReRo   22.34%");
    println!("  512KB/16L/1P ReRo  23.73%   (supra-linear lane scaling)");
}
