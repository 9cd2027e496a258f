//! Criterion: region replay bandwidth under both backing layouts — the
//! `BENCH_layout.json` baselines the CI bench gate locks.
//!
//! Three groups:
//!
//! * `stream_copy` — STREAM-Copy (C = A) as one `PolyMem::copy_region`
//!   between the A and C `Block` covers of the paper-style 16x512 vector
//!   layout, under the default bank-major flat layout and the
//!   bank-interleaved alternative. Same-class copies are `copy_within` per
//!   storage interval and must hold well above the 9.3 GiB/s element-loop
//!   replay they replaced;
//! * `stream_triad` — STREAM-Triad (A = B + q*C) as two region gathers,
//!   a fused multiply-add sweep and one region scatter, both layouts
//!   (STREAM counting: 24 bytes per element). The gathers and the scatter
//!   replay the plans' motif runs, one run per 512-element row;
//!   `bench-gate` holds bank-major Triad's per-byte cost within
//!   `gate::TRIAD_COPY_RATIO_LIMIT` times Copy's;
//! * `strided_worst` — a Col region whose motif has no unit-stride piece
//!   (every lane sits in its own stretch of storage): the per-lane floor
//!   of the motif replay.
//!
//! Run with `CRITERION_JSON=BENCH_layout.json cargo bench -p polymem-bench
//! --bench layout` to append machine-readable baselines.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use polymem::{AccessScheme, BankLayout, PolyMem, PolyMemConfig, Region, RegionShape};
use stream_bench::layout::{vector_regions, StreamLayout};

const LAYOUTS: [(&str, BankLayout); 2] = [
    ("bank_major", BankLayout::BankMajor),
    ("addr_interleaved", BankLayout::AddrInterleaved),
];

fn stream_layout(layout: BankLayout) -> StreamLayout {
    StreamLayout::new(16 * 512, 512, 2, 4, AccessScheme::RoCo, 2)
        .unwrap()
        .with_layout(layout)
}

fn bench_stream_copy(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_copy");
    for (name, layout) in LAYOUTS {
        let l = stream_layout(layout);
        let p = l.config.p;
        let (a, c_) = (vector_regions(&l.a, p, "A"), vector_regions(&l.c, p, "C"));
        assert_eq!(a.len(), 1, "16 rows tile p=2: one Block per vector");
        let mut m = PolyMem::<f64>::new(l.config).unwrap();
        let vals: Vec<f64> = (0..l.a.len).map(|k| k as f64 + 0.5).collect();
        m.write_region(&a[0], &vals).unwrap();
        // STREAM counting for Copy: one read + one write per element.
        g.throughput(Throughput::Bytes((2 * l.a.len * 8) as u64));
        g.bench_function(BenchmarkId::new(name, "16x512"), |b| {
            b.iter(|| m.copy_region(0, &a[0], &c_[0]).unwrap())
        });
    }
    g.finish();
}

fn bench_stream_triad(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_triad");
    for (name, layout) in LAYOUTS {
        let l = stream_layout(layout);
        let p = l.config.p;
        let (a, b_, c_) = (
            vector_regions(&l.a, p, "A"),
            vector_regions(&l.b, p, "B"),
            vector_regions(&l.c, p, "C"),
        );
        assert_eq!(a.len(), 1, "16 rows tile p=2: one Block per vector");
        let mut m = PolyMem::<f64>::new(l.config).unwrap();
        let len = l.a.len;
        let mut bbuf = vec![0.0f64; len];
        let mut cbuf = vec![0.0f64; len];
        let mut abuf = vec![0.0f64; len];
        let fill: Vec<f64> = (0..len).map(|k| k as f64 * 0.5 + 1.0).collect();
        m.write_region(&b_[0], &fill).unwrap();
        m.write_region(&c_[0], &fill).unwrap();
        // STREAM counting for Triad: two reads + one write per element.
        g.throughput(Throughput::Bytes((3 * len * 8) as u64));
        g.bench_function(BenchmarkId::new(name, "16x512"), |bch| {
            bch.iter(|| {
                m.read_region_into(0, &b_[0], &mut bbuf).unwrap();
                m.read_region_into(0, &c_[0], &mut cbuf).unwrap();
                for ((o, &x), &y) in abuf.iter_mut().zip(&bbuf).zip(&cbuf) {
                    *o = x + 3.0 * y;
                }
                m.write_region(&a[0], black_box(&abuf)).unwrap();
            })
        });
    }
    g.finish();
}

fn bench_strided_worst(c: &mut Criterion) {
    // A full column under ReCo: no two lanes of the column's motif sit in
    // adjacent flat slots under either layout, so this pins the per-lane
    // floor of the motif replay.
    let region = Region::new("col", 0, 3, RegionShape::Col { len: 64 });
    let mut g = c.benchmark_group("strided_worst");
    g.throughput(Throughput::Bytes((region.len() * 8) as u64));
    for (name, layout) in LAYOUTS {
        let cfg = PolyMemConfig::new(64, 64, 2, 4, AccessScheme::ReCo, 2)
            .unwrap()
            .with_layout(layout);
        let mut m = PolyMem::<u64>::new(cfg).unwrap();
        let data: Vec<u64> = (0..cfg.capacity_elems() as u64).collect();
        m.load_row_major(&data).unwrap();
        let mut out = vec![0u64; region.len()];
        g.bench_function(BenchmarkId::new(name, "col64"), |b| {
            b.iter(|| {
                m.read_region_into(0, black_box(&region), &mut out).unwrap();
                out[0]
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_stream_copy,
    bench_stream_triad,
    bench_strided_worst
);
criterion_main!(benches);
