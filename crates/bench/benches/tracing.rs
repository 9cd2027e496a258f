//! Criterion: the tracing tax on the region-replay hot path.
//!
//! Drives the same STREAM-Copy region-burst pass twice — once with the
//! cycle-stamped span journal attached (`tracing/region-replay/on`) and
//! once without (`tracing/region-replay/off`) — so the committed baseline
//! pins the *relative* overhead, not just absolute throughput. The gate
//! (`gate::tracing_overhead`) fails if `on` costs more than 5% over `off`:
//! the journal writes are two relaxed atomics plus a seqlock-claimed slot
//! store, and the run-buffered cycle attribution coalesces contiguous
//! same-state cycles into one retroactive span, so the hot loop adds no
//! allocation and no locks.
//!
//! The `off` leg is the app with no journal attached: runtime
//! attach/detach is the one switch for the journal.
//!
//! Run with `CRITERION_JSON=BENCH_tracing.json cargo bench -p polymem-bench
//! --bench tracing` to append machine-readable baselines (consumed by the
//! `bench-gate` CI job). Set `TRACE_JSON=/path/trace.json` to also export a
//! Perfetto-loadable trace of one instrumented pass — `bench-gate` uses it
//! to print the longest spans next to any FAIL.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use polymem::tracing::TraceJournal;
use polymem::AccessScheme;
use stream_bench::{StreamApp, StreamLayout, StreamOp, PAPER_STREAM_FREQ_MHZ};

fn traced_app(n: usize, journal: Option<&TraceJournal>) -> StreamApp {
    let layout = StreamLayout::new(n, 512, 2, 4, AccessScheme::RoCo, 2).unwrap();
    let a: Vec<f64> = (0..n).map(|k| k as f64).collect();
    let z = vec![0.0; n];
    let mut app = StreamApp::new_burst(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
    if let Some(j) = journal {
        app.attach_tracing(j);
    }
    app.load(&a, &z, &z).unwrap();
    app
}

fn bench_tracing_tax(c: &mut Criterion) {
    // The larger stream_region size: the region-burst controller issues
    // one whole-region burst per vector per pass, so the journal records
    // a near-constant ~8 slots per pass while the replay work scales with
    // n — this is the shape real traced workloads have.
    let n = 32 * 512;
    let mut g = c.benchmark_group("tracing");
    g.sample_size(12);
    // STREAM counting: one Copy pass reads A and writes C.
    g.throughput(Throughput::Bytes((2 * n * 8) as u64));
    // A journal big enough that the hot loop never takes the drop path:
    // run-buffered attribution emits O(bursts) spans per pass, not
    // O(cycles) events, so 2^20 slots absorb every sampled iteration.
    let journal = TraceJournal::new(1 << 20);
    let mut on = traced_app(n, Some(&journal));
    let mut off = traced_app(n, None);
    g.bench_function(BenchmarkId::new("region-replay", "on"), |b| {
        b.iter(|| on.run_pass())
    });
    g.bench_function(BenchmarkId::new("region-replay", "off"), |b| {
        b.iter(|| off.run_pass())
    });
    g.finish();

    if let Ok(path) = std::env::var("TRACE_JSON") {
        // Export one clean pass (fresh journal, no bench-loop wraparound)
        // for bench-gate's longest-spans context and manual Perfetto use.
        let journal = TraceJournal::new(1 << 16);
        let mut app = traced_app(n, Some(&journal));
        app.run_pass();
        let snap = journal.snapshot();
        if let Err(e) = std::fs::write(&path, snap.to_chrome_json()) {
            eprintln!("tracing bench: cannot write TRACE_JSON={path}: {e}");
        }
    }
}

criterion_group!(benches, bench_tracing_tax);
criterion_main!(benches);
