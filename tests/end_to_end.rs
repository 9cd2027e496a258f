//! Full-pipeline integration: application trace → scheduler → configuration
//! → FPGA synthesis model → cycle-level simulation — every crate in one
//! flow, the paper's envisioned "HLS toolchain" (§VII) in miniature.

use fpga_model::synthesize_vectis;
use polymem::{AccessScheme, ParallelAccess, PolyMemConfig};
use scheduler::{best, sweep, AccessTrace, SweepOptions};
use stream_bench::{StreamApp, StreamLayout, StreamOp};

#[test]
fn trace_to_synthesis_flow() {
    // 1. The application touches rows and columns of a 16x16 tile.
    let mut coords = Vec::new();
    for k in 0..16usize {
        coords.push((0, k));
        coords.push((k, 0));
        coords.push((8, k));
    }
    let trace = AccessTrace::from_coords(coords);

    // 2. Scheduler picks the configuration.
    let opts = SweepOptions {
        grids: vec![(2, 4)],
        node_budget: 100_000,
    };
    let results = sweep(&trace, 16, 16, &opts);
    let winner = best(&results).expect("servable");
    assert_eq!(
        winner.scheme,
        AccessScheme::RoCo,
        "row+column workload must select RoCo"
    );
    let m = winner.metrics.unwrap();
    assert!(m.speedup >= 7.0, "speedup {}", m.speedup);

    // 3. Synthesize the chosen scheme at DSE capacities; pick the fastest
    //    feasible point.
    let mut best_bw = 0.0;
    for kb in [512usize, 1024] {
        let cfg =
            PolyMemConfig::from_capacity(kb * 1024, winner.p, winner.q, winner.scheme, 1).unwrap();
        let rep = synthesize_vectis(&cfg);
        assert!(rep.feasible);
        best_bw = f64::max(best_bw, rep.write_bandwidth_gbps());
    }
    assert!(best_bw > 10.0, "paper-scale bandwidth, got {best_bw}");
}

#[test]
fn synthesized_frequency_drives_simulated_bandwidth() {
    // Close the loop: take the model's frequency for the STREAM
    // configuration and run the cycle-accurate Copy at that frequency.
    let cfg = PolyMemConfig::new(510, 512, 2, 4, AccessScheme::RoCo, 2).unwrap();
    let rep = synthesize_vectis(&cfg);
    assert!(rep.feasible, "the paper's STREAM memory must fit");

    let n = 32 * 512;
    let layout = StreamLayout::paper_geometry(n).unwrap();
    let mut app = StreamApp::new(StreamOp::Copy, layout, rep.fmax_mhz).unwrap();
    let a: Vec<f64> = (0..n).map(|k| k as f64).collect();
    let z = vec![0.0; n];
    app.load(&a, &z, &z).unwrap();
    let t = app.measure(100);
    let (out, _) = app.offload();
    assert_eq!(out, a);

    // Bandwidth must equal 16 B/cycle * fmax, minus pipeline/overhead loss.
    let peak = 2.0 * 8.0 * 8.0 * rep.fmax_mhz;
    assert!((t.peak_mbps - peak).abs() < 1.0);
    assert!(t.fraction_of_peak() > 0.95 && t.fraction_of_peak() < 1.0);
}

#[test]
fn scheduled_accesses_run_through_the_simulator() {
    // Execute a scheduler-produced schedule on the pipelined kernel, not
    // just the in-place memory: requests in, responses out, order preserved.
    let trace = AccessTrace::block(0, 0, 8, 16);
    let inst = scheduler::CoverInstance::build(trace, AccessScheme::ReRo, 2, 4, 16, 16);
    let sched = scheduler::solve_exact(&inst, 50_000).schedule;
    assert!(sched.complete);

    let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::ReRo, 1).unwrap();
    let rq = vec![dfe_sim::stream("rq", 64)];
    let rs = vec![dfe_sim::stream("rs", 64)];
    let wq = dfe_sim::stream("wq", 64);
    let mut kernel = dfe_sim::PolyMemKernel::new(
        "pm",
        cfg,
        dfe_sim::PAPER_READ_LATENCY,
        rq.clone(),
        rs.clone(),
        std::rc::Rc::clone(&wq),
    )
    .unwrap();
    // Fill via host access.
    for i in 0..16 {
        for j in 0..16 {
            kernel.mem().set(i, j, (i * 16 + j) as u64).unwrap();
        }
    }
    for access in &sched.accesses {
        rq[0].borrow_mut().push(*access);
    }
    let mut mgr = dfe_sim::Manager::new(120.0);
    mgr.add_kernel(Box::new(kernel));
    let cycles = mgr.run_until_idle(10_000);
    assert!(
        cycles as usize >= sched.accesses.len(),
        "pipeline needs at least one cycle per access"
    );
    let mut responses = 0;
    while let Some(vals) = rs[0].borrow_mut().pop() {
        assert_eq!(vals.len(), 8);
        responses += 1;
    }
    assert_eq!(responses, sched.accesses.len());
}

#[test]
fn dram_vs_polymem_contrast() {
    // The motivating comparison of Fig. 1: per-access effective bandwidth of
    // the off-chip DRAM vs the on-chip parallel memory.
    let dram = dfe_sim::DramParams::vectis_lmem();
    let t_dram = dram.access_time_ns(64); // one 8-element access
    let dram_bw = 64.0 / t_dram; // bytes per ns

    // PolyMem at 120 MHz delivers 64 B per 8.33 ns cycle per port.
    let polymem_bw = 64.0 / (1000.0 / 120.0);
    assert!(
        polymem_bw > 10.0 * dram_bw,
        "on-chip parallel access must dominate small off-chip accesses: {polymem_bw} vs {dram_bw}"
    );

    // For large streaming transfers DRAM amortizes its latency.
    let t_stream = dram.access_time_ns(1 << 20);
    let stream_bw = (1u64 << 20) as f64 / t_stream;
    assert!(
        stream_bw > 10.0,
        "streaming DRAM bandwidth {stream_bw} GB/s"
    );
}

#[test]
fn concurrent_memory_agrees_with_sequential() {
    // The thread-parallel port implementation and the single-threaded one
    // must produce identical reads for identical state.
    let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 4).unwrap();
    let mut seq = polymem::PolyMem::<u64>::new(cfg).unwrap();
    let conc = polymem::ConcurrentPolyMem::<u64>::new(cfg).unwrap();
    let data: Vec<u64> = (0..256).map(|x| x * 3 + 1).collect();
    seq.load_row_major(&data).unwrap();
    for i in 0..16 {
        for j in 0..16 {
            conc.set(i, j, data[i * 16 + j]).unwrap();
        }
    }
    let accesses = [
        ParallelAccess::row(3, 8),
        ParallelAccess::col(8, 15),
        ParallelAccess::rect(2, 4),
        ParallelAccess::row(15, 0),
    ];
    let conc_results = conc.read_ports(&accesses);
    for (a, r) in accesses.iter().zip(conc_results) {
        assert_eq!(seq.read(0, *a).unwrap(), r.unwrap());
    }
}

#[test]
fn profile_then_recommend_closes_the_toolchain_loop() {
    // Run an application against a provisional memory with trace recording
    // on, feed the captured trace to the scheduler, and check the
    // recommendation matches the workload's structure — the paper's §VII
    // "analyze applications" loop, closed.
    let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 2).unwrap();
    let mut mem = polymem::PolyMem::<u64>::new(cfg).unwrap();
    let data: Vec<u64> = (0..256).collect();
    mem.load_row_major(&data).unwrap();

    mem.start_trace();
    // The "application": sweeps two rows and two columns.
    for j0 in (0..16).step_by(8) {
        let _ = mem.read(0, ParallelAccess::row(3, j0)).unwrap();
        let _ = mem.read(1, ParallelAccess::row(9, j0)).unwrap();
    }
    for i0 in (0..16).step_by(8) {
        let _ = mem.read(0, ParallelAccess::col(i0, 5)).unwrap();
        let _ = mem.read(1, ParallelAccess::col(i0, 12)).unwrap();
    }
    let trace = scheduler::AccessTrace::from_coords(mem.take_trace());
    assert_eq!(
        trace.len(),
        4 * 16 - 4,
        "two rows + two cols minus overlaps"
    );

    let results = scheduler::sweep(
        &trace,
        16,
        16,
        &scheduler::SweepOptions {
            grids: vec![(2, 4)],
            node_budget: 100_000,
        },
    );
    let winner = scheduler::best(&results).unwrap();
    assert_eq!(
        winner.scheme,
        AccessScheme::RoCo,
        "a row+column workload must recommend RoCo"
    );
    let m = winner.metrics.unwrap();
    assert_eq!(m.schedule_len, 8, "2 rows + 2 cols, 2 accesses each");
}
