//! **Fig. 7** — LUT utilization per configuration, percent of the SX475T's
//! 297,600 LUT6s.

use fpga_model::explore_paper;
use polymem_bench::{feasible_range, scheme_by_config_table};

pub fn run() {
    let pts = explore_paper();
    println!("Fig. 7: LUT utilization (%)\n");
    let table = scheme_by_config_table(&pts, |p| format!("{:.1}", p.report.utilization.lut_pct));
    println!("{table}");

    let (min, max) = feasible_range(&pts, |p| p.report.utilization.lut_pct);
    println!("Feasible range: {min:.1}% .. {max:.1}%  (paper: ~7% .. ~28%)");
}
