//! **Fig. 5** — aggregated read bandwidth (GB/s): per-port bandwidth times
//! the number of read ports, for all schemes across the feasible grid.

use fpga_model::{best_by, explore_paper};
use polymem_bench::{find_point, scheme_by_config_table};

pub fn run() {
    let pts = explore_paper();
    println!("Fig. 5: aggregated read bandwidth (GB/s)\n");
    let table = scheme_by_config_table(&pts, |p| format!("{:.1}", p.report.read_bandwidth_gbps()));
    println!("{table}");

    let best = best_by(&pts, |p| p.report.read_bandwidth_mbps).expect("nonempty");
    println!(
        "Peak aggregated read bandwidth: {:.1} GB/s at {},{}L,{}P {} (paper: ~32 GB/s, 512KB)",
        best.report.read_bandwidth_gbps(),
        best.size_kb,
        best.lanes,
        best.read_ports,
        best.scheme
    );

    println!(
        "\nPort scaling at 512 KB, 8 lanes (ReRo): paper sees good 1->2 scaling, diminishing 3->4:"
    );
    let mut prev: Option<f64> = None;
    for ports in 1..=4usize {
        let bw = find_point(&pts, polymem::AccessScheme::ReRo, (512, 8, ports))
            .expect("paper grid point")
            .report
            .read_bandwidth_gbps();
        let gain = prev
            .map(|pv| format!(" (x{:.2} vs {} port)", bw / pv, ports - 1))
            .unwrap_or_default();
        println!("  {ports} port(s): {bw:>5.1} GB/s{gain}");
        prev = Some(bw);
    }
}
