//! Criterion: event-driven loop host-time wins.
//!
//! On **sparse** workloads (kernels pacing themselves against a slow link,
//! most cycles quiescent) the event scheduler's O(1) idle fast-forward
//! beats the per-cycle ticked loop by the idle fraction — ≥5x on the
//! workload below. On **dense** workloads (a per-chunk STREAM pass with
//! work every cycle) nothing is quiescent to skip, but `StreamApp` serves
//! the pass's steady state in one lockstep window that keeps its words out
//! of the streams and delay lines, so the event row runs faster than the
//! ticked one. Both halves are gated against `BENCH_sim_events.json` by
//! `bench-gate`, so losing the fast-forward (or slowing the dense path)
//! fails CI.
//!
//! Cycle-exactness between the modes is asserted before the stopwatch
//! starts; the bench then measures host time only.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dfe_sim::manager::Manager;
use dfe_sim::pcie::PcieLink;
use dfe_sim::sched::SchedulerMode;
use dfe_sim::stream::stream;
use dfe_sim::{PolyMemKernel, PAPER_READ_LATENCY};
use polymem::AccessScheme;
use std::rc::Rc;
use stream_bench::staged::LoadKernel;
use stream_bench::{StreamApp, StreamLayout, StreamOp, PAPER_STREAM_FREQ_MHZ};

/// A saturated / slow host link: 0.125 GB/s instead of Vectis's 2 GB/s.
/// One 64-byte chunk then lands every ~62 cycles at 120 MHz, so >98% of
/// load-stage cycles are pure wire-wait — the span the event scheduler
/// skips in O(1).
fn slow_link() -> PcieLink {
    PcieLink {
        call_overhead_ns: 300.0,
        bandwidth_gbps: 0.125,
    }
}

fn sparse_layout() -> StreamLayout {
    StreamLayout::new(8 * 512, 512, 2, 4, AccessScheme::RoCo, 2).unwrap()
}

/// Load one vector through the write port at the slow-link pace, run to
/// idle under `mode`, return total cycles.
fn run_sparse_load(mode: SchedulerMode) -> u64 {
    let layout = sparse_layout();
    let n = layout.a.len;
    let freq = PAPER_STREAM_FREQ_MHZ;
    let interval = slow_link().chunk_interval_cycles(layout.config.lanes() * 8, freq);
    let ports = layout.config.read_ports;
    let rq: Vec<_> = (0..ports).map(|p| stream(format!("rq{p}"), 8)).collect();
    let rs: Vec<_> = (0..ports).map(|p| stream(format!("rs{p}"), 32)).collect();
    let wq = stream("wq", 8);
    let pm = PolyMemKernel::new(
        "polymem",
        layout.config,
        PAPER_READ_LATENCY,
        rq,
        rs,
        Rc::clone(&wq),
    )
    .unwrap();
    let bits: Vec<u64> = (0..n as u64).map(|k| k.wrapping_mul(2654435761)).collect();
    let loader = LoadKernel::new("load-A", layout.a, bits, interval, wq);
    let mut mgr = Manager::with_mode(freq, mode);
    mgr.add_kernel(Box::new(loader));
    mgr.add_kernel(Box::new(pm));
    mgr.run_until_idle(1_000_000)
}

fn bench_sparse(c: &mut Criterion) {
    // The oracle before the stopwatch: both modes must simulate the exact
    // same number of cycles or the comparison is meaningless.
    let ticked = run_sparse_load(SchedulerMode::Ticked);
    let event = run_sparse_load(SchedulerMode::EventDriven);
    assert_eq!(ticked, event, "scheduler modes disagree on cycle count");

    let mut g = c.benchmark_group("sim_events_sparse_load");
    g.sample_size(10);
    for (name, mode) in [
        ("ticked", SchedulerMode::Ticked),
        ("event", SchedulerMode::EventDriven),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &mode, |b, &mode| {
            b.iter(|| run_sparse_load(mode))
        });
    }
    g.finish();
}

/// A loaded dense per-chunk Copy design driven by `mode`.
fn dense_app(mode: SchedulerMode) -> StreamApp {
    let n = 8 * 512;
    let layout = StreamLayout::new(n, 512, 2, 4, AccessScheme::RoCo, 2).unwrap();
    let mut app = StreamApp::new(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
    app.set_scheduler_mode(mode);
    let a: Vec<f64> = (0..n).map(|k| k as f64).collect();
    let z = vec![0.0; n];
    app.load(&a, &z, &z).unwrap();
    app
}

fn bench_dense(c: &mut Criterion) {
    // The oracle before the stopwatch, as for the sparse load.
    let ticked = dense_app(SchedulerMode::Ticked).run_pass();
    let event = dense_app(SchedulerMode::EventDriven).run_pass();
    assert_eq!(ticked, event, "scheduler modes disagree on cycle count");

    let mut g = c.benchmark_group("sim_events_dense_pass");
    g.sample_size(10);
    for (name, mode) in [
        ("ticked", SchedulerMode::Ticked),
        ("event", SchedulerMode::EventDriven),
    ] {
        let mut app = dense_app(mode);
        g.bench_with_input(BenchmarkId::from_parameter(name), &(), |b, _| {
            b.iter(|| app.run_pass())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sparse, bench_dense);
criterion_main!(benches);
