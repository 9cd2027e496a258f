//! Criterion: the simulated STREAM-Copy and -Triad pass, region-burst
//! controller vs the per-chunk Fig. 9 FSM.
//!
//! On these `Block` covers a Copy burst costs `ceil(len/lanes)` access
//! cycles plus the 14-cycle latency, so both modes model the same Copy
//! bandwidth within a cycle (burst Triad reads its two operand bursts one
//! after the other on the single region read port, about twice the
//! per-chunk cycles). What this bench measures is the host-side cost of
//! driving a pass: the burst path compiles each vector's region cover once
//! and streams it; the per-chunk path ticks through pipeline fill and drain
//! and serves the steady state in one lockstep window
//! (`PolyMemKernel::lockstep`): one replayed access per port and cycle, no
//! FIFO hop or allocation. This is the simulator-level counterpart of
//! `BENCH_region.json`'s `stream_copy` comparison.
//!
//! Run with `CRITERION_JSON=BENCH_stream_region.json cargo bench -p
//! polymem-bench --bench stream_region` to append machine-readable
//! baselines (consumed by the `bench-gate` CI job).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use polymem::AccessScheme;
use stream_bench::{StreamApp, StreamLayout, StreamOp, PAPER_STREAM_FREQ_MHZ};

fn bench_copy_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_region");
    g.sample_size(12);
    for rows in [8usize, 32] {
        let n = rows * 512;
        let layout = StreamLayout::new(n, 512, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let a: Vec<f64> = (0..n).map(|k| k as f64).collect();
        let z = vec![0.0; n];
        // STREAM counting: one pass reads A and writes C.
        g.throughput(Throughput::Bytes((2 * n * 8) as u64));
        for burst in [true, false] {
            let mut app = if burst {
                StreamApp::new_burst(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ)
            } else {
                StreamApp::new(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ)
            }
            .unwrap();
            app.load(&a, &z, &z).unwrap();
            let mode = if burst { "burst" } else { "per_chunk" };
            g.bench_function(BenchmarkId::new(mode, format!("{rows}x512")), |b| {
                b.iter(|| app.run_pass())
            });
        }
    }
    g.finish();
}

fn bench_triad_modes(c: &mut Criterion) {
    // The compute ops exercise the region read + region write path (the
    // fused copy port only serves Copy).
    let mut g = c.benchmark_group("stream_region_triad");
    g.sample_size(12);
    let n = 8 * 512;
    let layout = StreamLayout::new(n, 512, 2, 4, AccessScheme::RoCo, 2).unwrap();
    let a: Vec<f64> = (0..n).map(|k| k as f64).collect();
    g.throughput(Throughput::Bytes((3 * n * 8) as u64));
    for burst in [true, false] {
        let mut app = if burst {
            StreamApp::new_burst(StreamOp::Triad(2.0), layout, PAPER_STREAM_FREQ_MHZ)
        } else {
            StreamApp::new(StreamOp::Triad(2.0), layout, PAPER_STREAM_FREQ_MHZ)
        }
        .unwrap();
        app.load(&a, &a, &a).unwrap();
        let mode = if burst { "burst" } else { "per_chunk" };
        g.bench_function(BenchmarkId::new(mode, format!("{}x512", n / 512)), |b| {
            b.iter(|| app.run_pass())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_copy_modes, bench_triad_modes);
criterion_main!(benches);
