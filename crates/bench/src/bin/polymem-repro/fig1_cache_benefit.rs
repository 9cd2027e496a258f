//! **Fig. 1 (motivation)** — quantify the caching benefit the architecture
//! exists for: a kernel whose operand groups are reused `R` times pays DRAM
//! latency each time without PolyMem, or one staging pass plus one cycle
//! per access with it.

use dfe_sim::{AccessCostModel, DramParams, SimClock};
use polymem_bench::render_table;

pub fn run() {
    let dram = DramParams::vectis_lmem();
    let clock = SimClock::new(120.0);
    let model = AccessCostModel::new(&dram, &clock, 8);

    println!("Fig. 1 motivation: DRAM-direct vs PolyMem-cached operand access");
    println!(
        "(8-lane 64 B groups; LMem {:.0} ns latency / {:.0} GB/s; PolyMem one {:.1} ns cycle)\n",
        dram.latency_ns,
        dram.bandwidth_gbps,
        clock.period_ns()
    );
    let headers = [
        "Reuses",
        "DRAM-direct ns",
        "Cached ns (stage+reads)",
        "Speedup",
    ];
    let mut rows = Vec::new();
    for reuses in [1u32, 2, 4, 8, 16, 64, 256] {
        let d = model.dram_total_ns(reuses);
        let c = model.cached_total_ns(reuses);
        rows.push(vec![
            reuses.to_string(),
            format!("{d:.0}"),
            format!("{c:.1}"),
            format!("{:.1}x", d / c),
        ]);
    }
    println!("{}", render_table(&headers, &rows));
    println!(
        "Break-even at {} reuse(s): past that, every further touch of the working set\n\
         is a {:.1} ns parallel access instead of a {:.0} ns DRAM round trip — the\n\
         reason PolyMem \"acts as a software cache\" on the FPGA.",
        model.breakeven_reuses(),
        model.polymem_access_ns,
        model.dram_access_ns
    );
}
