//! **Fig. 4** — write bandwidth (= single-port bandwidth) per configuration,
//! in GB/s, for all five schemes across the feasible DSE grid.

use fpga_model::explore_paper;
use polymem_bench::{feasible_range, find_point, scheme_by_config_table};

pub fn run() {
    let pts = explore_paper();
    println!("Fig. 4: write bandwidth per port (GB/s)\n");
    let table = scheme_by_config_table(&pts, |p| format!("{:.1}", p.report.write_bandwidth_gbps()));
    println!("{table}");

    let (_, peak) = feasible_range(&pts, |p| p.report.write_bandwidth_gbps());
    println!("Peak write bandwidth: {peak:.1} GB/s (paper: >22 GB/s, 512KB 16-lane ReO)");

    // The paper's linear-scaling observation: 8 -> 16 lanes at fixed size/port.
    println!("\nLane scaling (single port, per scheme, 512 KB):");
    for scheme in polymem::AccessScheme::ALL {
        let bw = |lanes| {
            find_point(&pts, scheme, (512, lanes, 1))
                .map_or(0.0, |p| p.report.write_bandwidth_gbps())
        };
        println!(
            "  {:<5} 8L {:>5.1} GB/s -> 16L {:>5.1} GB/s  (x{:.2})",
            scheme.name(),
            bw(8),
            bw(16),
            bw(16) / bw(8)
        );
    }
}
