//! **§V methodology** — the three-stage STREAM execution with per-stage
//! timing: "Each of these stages is ran in isolation, orchestrated by the
//! host. The use of blocking calls ensures the separation between stages."
//! The Load and Offload stages here run through the *simulated data path*
//! (write port fed at the PCIe rate; read port drained per chunk), not a
//! host backdoor.

use dfe_sim::kernel::Kernel as _;
use dfe_sim::pcie::PcieLink;
use dfe_sim::stream::stream;
use polymem_bench::render_table;
use std::rc::Rc;
use stream_bench::staged::{pcie_chunk_interval, LoadKernel, OffloadKernel};
use stream_bench::{StreamApp, StreamLayout, StreamOp, PAPER_STREAM_FREQ_MHZ};

pub fn run() {
    let rows = 32usize;
    let n = rows * 512; // 128 KB per vector
    let layout = StreamLayout::paper_geometry(n).expect("fits");
    let freq = PAPER_STREAM_FREQ_MHZ;
    let period = 1000.0 / freq;
    let link = PcieLink::vectis();
    let interval = pcie_chunk_interval(&link, layout.config.lanes(), freq);

    println!(
        "STREAM staged execution: {} KB/vector, {} MHz, PCIe-paced load (1 chunk / {} cycles)\n",
        n * 8 / 1024,
        freq,
        interval
    );

    // ---- Load stage: three vectors through the write port. -------------
    let a: Vec<f64> = (0..n).map(|k| (k % 1009) as f64).collect();
    let zeros = vec![0.0f64; n];
    let rq: Vec<_> = (0..2).map(|p| stream(format!("rq{p}"), 8)).collect();
    let rs: Vec<_> = (0..2).map(|p| stream(format!("rs{p}"), 32)).collect();
    let wq = stream("wq", 8);
    let mut pm = dfe_sim::PolyMemKernel::new(
        "polymem",
        layout.config,
        dfe_sim::PAPER_READ_LATENCY,
        rq.clone(),
        rs.clone(),
        Rc::clone(&wq),
    )
    .expect("valid");
    let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let mut load_cycles = 0u64;
    for (name, vals, lay) in [
        ("load-A", &a, layout.a),
        ("load-B", &zeros, layout.b),
        ("load-C", &zeros, layout.c),
    ] {
        let mut loader = LoadKernel::new(name, lay, to_bits(vals), interval, Rc::clone(&wq));
        let mut cycle = load_cycles;
        while !(loader.is_idle() && pm.pipelines_empty()) {
            loader.tick(cycle);
            pm.tick(cycle);
            cycle += 1;
        }
        load_cycles = cycle;
    }
    let load_ns = load_cycles as f64 * period + 3.0 * link.call_overhead_ns;

    // ---- Copy stage: the fused measured app (same memory contents). ----
    let mut app = StreamApp::new(StreamOp::Copy, layout, freq).expect("valid");
    app.load(&a, &zeros, &zeros).expect("load");
    let t = app.measure(1000);

    // ---- Offload stage: drain vector A from the staged memory through a
    // read port. (The copy above ran in the separate measured app, so the
    // staged memory's C region is untouched; A carries real data and its
    // drain time equals C's — all three vectors are the same size.)
    let mut off = OffloadKernel::new("off-A", layout.a, Rc::clone(&rq[1]), Rc::clone(&rs[1]));
    let off_start = load_cycles + 1000;
    let mut cycle = off_start;
    while !off.done() {
        off.tick(cycle);
        pm.tick(cycle);
        cycle += 1;
    }
    let off_cycles = cycle - off_start;
    let off_ns = off_cycles as f64 * period + link.call_overhead_ns;
    assert_eq!(off.take().len(), n);

    let headers = ["Stage", "Cycles", "Time (us)", "Bound by"];
    let rows_out = vec![
        vec![
            "Load (3 vectors)".into(),
            load_cycles.to_string(),
            format!("{:.1}", load_ns / 1000.0),
            "PCIe bandwidth".into(),
        ],
        vec![
            format!("Copy x1000 ({})", t.cycles_per_run),
            (t.cycles_per_run * 1000).to_string(),
            format!("{:.1}", t.time_per_run_ns * 1000.0 / 1000.0),
            "PolyMem ports".into(),
        ],
        vec![
            "Offload (A, 1 vector)".into(),
            off_cycles.to_string(),
            format!("{:.1}", off_ns / 1000.0),
            "read port".into(),
        ],
    ];
    println!("{}", render_table(&headers, &rows_out));
    println!(
        "Copy bandwidth: {:.0} MB/s ({:.2}% of peak). Load is ~{}x slower than one copy\n\
         pass — exactly why the paper measures the Copy stage in isolation.",
        t.bandwidth_mbps,
        100.0 * t.fraction_of_peak(),
        (load_cycles / t.cycles_per_run.max(1)).max(1)
    );
}
