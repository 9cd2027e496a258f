//! **Fig. 8** — BRAM utilization per configuration, percent of the SX475T's
//! 1,064 BRAM36 blocks. Scheme-independent by construction (the MAF only
//! permutes which bank stores what, not how many BRAMs are needed).

use fpga_model::explore_paper;
use polymem::AccessScheme;
use polymem_bench::{find_point, grid_label, render_table};

pub fn run() {
    let pts = explore_paper();
    println!("Fig. 8: BRAM utilization (%) — identical across schemes\n");
    let headers = ["Config", "BRAM %", "BRAM36 blocks", "Feasible"];
    let rows: Vec<Vec<String>> = fpga_model::TABLE4_COLUMNS
        .iter()
        .map(|&(kb, lanes, ports)| {
            let p =
                find_point(&pts, AccessScheme::ReRo, (kb, lanes, ports)).expect("paper grid point");
            vec![
                grid_label(kb, lanes, ports),
                format!("{:.1}", p.report.utilization.bram_pct),
                format!("{:.0}", p.report.resources.bram_blocks),
                if p.report.feasible { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));

    // Confirm scheme-independence in the model itself.
    let independent = fpga_model::TABLE4_COLUMNS.iter().all(|&at| {
        let blocks: Vec<f64> = AccessScheme::ALL
            .iter()
            .map(|&s| {
                find_point(&pts, s, at)
                    .expect("paper grid point")
                    .report
                    .resources
                    .bram_blocks
            })
            .collect();
        blocks.windows(2).all(|w| w[0] == w[1])
    });
    println!(
        "Scheme-independence check: {}",
        if independent { "PASS" } else { "FAIL" }
    );
    println!("\nPaper anchors: 16.07% (512/8/1) | 19.31% (512/16/1) | 29.04% (512/8/2) | ~97% (2048/16/2)");
    assert!(independent);
}
