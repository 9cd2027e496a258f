//! **Table IV** — maximum clock frequencies. Prints the synthesis model's
//! Fmax for every (scheme, size, lanes, ports) cell next to the paper's
//! published number, with per-cell and aggregate error.

use fpga_model::calibration::{compare_all, fit_stats};
use fpga_model::explore_paper;
use polymem_bench::{render_table, scheme_by_config_table};

pub fn run() {
    let pts = explore_paper();

    println!("Table IV (model): MAX-PolyMem maximum clock frequencies [MHz]\n");
    let table = scheme_by_config_table(&pts, |p| format!("{:.0}", p.report.fmax_mhz));
    println!("{table}");

    println!("Paper vs model, per cell:\n");
    let headers = ["Scheme", "Config", "Paper MHz", "Model MHz", "Err %"];
    let mut rows = Vec::new();
    for cell in compare_all() {
        let (kb, lanes, ports) = cell.point;
        rows.push(vec![
            cell.scheme.name().to_string(),
            polymem_bench::grid_label(kb, lanes, ports),
            format!("{:.0}", cell.paper_mhz),
            format!("{:.1}", cell.model_mhz),
            format!(
                "{:+.1}",
                100.0 * (cell.model_mhz - cell.paper_mhz) / cell.paper_mhz
            ),
        ]);
    }
    println!("{}", render_table(&headers, &rows));

    let s = fit_stats();
    println!(
        "Fit quality over {} cells: mean |err| {:.1}%, median {:.1}%, max {:.1}%",
        s.cells,
        100.0 * s.mean_rel_err,
        100.0 * s.median_rel_err,
        100.0 * s.max_rel_err
    );
    println!(
        "(Worst cells are the paper's own non-monotonic 512KB/16L/2P column —\n\
         P&R variance a deterministic structural model does not chase.)"
    );
}
