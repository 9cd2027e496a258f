//! **Ablation (paper §III-C)** — modular multi-kernel vs fused single-kernel
//! design. The paper found the modular version "consumes twice as many
//! resources, mainly due to the additional inter-kernel communication
//! infrastructure"; this ablation quantifies that trade-off across the grid.

use fpga_model::calibration::config_for;
use fpga_model::{estimate_with_style, DesignStyle, FpgaDevice};
use polymem::AccessScheme;
use polymem_bench::{grid_label, render_table};

pub fn run() {
    println!("Ablation: fused vs modular implementation (ReRo scheme)\n");
    let dev = FpgaDevice::VIRTEX6_SX475T;
    let headers = [
        "Config",
        "Fused slices",
        "Modular slices",
        "Ratio",
        "Fused BRAM%",
        "Modular BRAM%",
        "Modular feasible",
    ];
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for &(kb, lanes, ports) in &fpga_model::TABLE4_COLUMNS {
        let cfg = config_for(kb, lanes, ports, AccessScheme::ReRo);
        let fused = estimate_with_style(&cfg, DesignStyle::Fused);
        let modular = estimate_with_style(&cfg, DesignStyle::Modular);
        let ratio = modular.slices / fused.slices;
        ratios.push(ratio);
        rows.push(vec![
            grid_label(kb, lanes, ports),
            format!("{:.0}", fused.slices),
            format!("{:.0}", modular.slices),
            format!("{ratio:.2}"),
            format!("{:.1}", fused.utilization(&dev).bram_pct),
            format!("{:.1}", modular.utilization(&dev).bram_pct),
            if modular.feasible(&dev) { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", render_table(&headers, &rows));
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!("Mean modular/fused slice ratio: {mean:.2} (paper: ~2x)");
    let lost = rows.iter().filter(|r| r[6] == "NO").count();
    println!(
        "Configurations that stop fitting when built modularly: {lost} / {}",
        rows.len()
    );
}
