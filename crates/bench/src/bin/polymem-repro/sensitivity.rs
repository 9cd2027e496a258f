//! **Methodology experiment** — calibration sensitivity (tornado analysis).
//! How much does the Table IV fit degrade when each fitted constant of the
//! critical-path model is perturbed ±20%? Constants whose perturbation
//! barely moves the fit are weakly identified; strongly-reacting ones carry
//! the model — the standard sanity check on a fitted analytic model.

use fpga_model::calibration::fit_stats_with;
use fpga_model::CriticalPathModel;
use polymem_bench::render_table;

pub fn run() {
    let base = CriticalPathModel::DEFAULT;
    let base_fit = fit_stats_with(&base);
    println!(
        "Baseline fit: mean |err| {:.2}%, median {:.2}%, max {:.2}%\n",
        100.0 * base_fit.mean_rel_err,
        100.0 * base_fit.median_rel_err,
        100.0 * base_fit.max_rel_err
    );

    type Setter = fn(&mut CriticalPathModel, f64);
    let params: [(&str, f64, Setter); 5] = [
        ("t_base", base.t_base, |m, v| m.t_base = v),
        ("t_lane", base.t_lane, |m, v| m.t_lane = v),
        ("t_route", base.t_route, |m, v| m.t_route = v),
        ("t_wire", base.t_wire, |m, v| m.t_wire = v),
        ("wire_exponent", base.wire_exponent, |m, v| {
            m.wire_exponent = v
        }),
    ];

    let headers = [
        "Constant",
        "Value",
        "-20% mean err",
        "+20% mean err",
        "Swing",
    ];
    let mut rows = Vec::new();
    let mut swings: Vec<(String, f64)> = Vec::new();
    for (name, value, set) in params {
        let mut lo = base;
        set(&mut lo, value * 0.8);
        let mut hi = base;
        set(&mut hi, value * 1.2);
        let e_lo = fit_stats_with(&lo).mean_rel_err;
        let e_hi = fit_stats_with(&hi).mean_rel_err;
        let swing = (e_lo.max(e_hi) - base_fit.mean_rel_err) * 100.0;
        swings.push((name.to_string(), swing));
        rows.push(vec![
            name.to_string(),
            format!("{value:.3}"),
            format!("{:.2}%", 100.0 * e_lo),
            format!("{:.2}%", 100.0 * e_hi),
            format!("+{swing:.2}pp"),
        ]);
    }
    println!("{}", render_table(&headers, &rows));

    swings.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("Dominance order (largest fit impact first):");
    for (name, swing) in &swings {
        println!("  {name:<14} +{swing:.2} pp");
    }
    println!(
        "\nThe base pipeline delay and the BRAM-routing pressure dominate jointly;\n\
         the crossbar terms are second-order. This matches the paper's reading that\n\
         capacity (BRAM spread), not crossbar logic, limits MAX-PolyMem's clock."
    );
    let top2: Vec<&str> = swings[..2].iter().map(|(n, _)| n.as_str()).collect();
    assert!(
        top2.contains(&"t_route"),
        "routing must be a dominant term: {top2:?}"
    );
}
