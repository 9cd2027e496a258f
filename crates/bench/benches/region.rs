//! Criterion: compiled region plans vs the per-access path.
//!
//! Three questions, one group each:
//!
//! * `region_read` — whole-region gather throughput for Block and Row
//!   regions, three ways: region-planned (one flat map), per-access-planned
//!   (PR-1 compiled plans, one lookup per chunk) and interpreted (full
//!   Fig. 3 pipeline per chunk) — the ISSUE's >= 2x acceptance bar is
//!   region-planned vs per-access-planned;
//! * `region_copy` — the fused plan-to-plan copy vs the per-access copy;
//! * `stream_copy` — STREAM-Copy (C = A) over the paper's vector layout:
//!   one `copy_region` between the A and C `Block` covers vs the per-chunk
//!   `read_into`/`write` loop, in GB/s-equivalent bytes/iteration.
//!
//! Run with `CRITERION_JSON=BENCH_region.json cargo bench -p polymem-bench
//! --bench region` to append machine-readable baselines.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use polymem::{AccessScheme, PolyMem, PolyMemConfig, Region, RegionShape, TelemetryRegistry};
use std::sync::OnceLock;
use stream_bench::layout::{vector_regions, StreamLayout};

/// Shared registry for the instrumented (`region_plan`) memories. Attach is
/// an upsert, so the exported counters reflect the **last** instrumented
/// memory — enough for the bench gate to report *why* a region bench
/// regressed (cache hit rates, conflict-freedom, elements moved). The
/// snapshot is written to `$TELEMETRY_JSON` after the last group.
fn registry() -> &'static TelemetryRegistry {
    static REG: OnceLock<TelemetryRegistry> = OnceLock::new();
    REG.get_or_init(TelemetryRegistry::new)
}

fn mem(scheme: AccessScheme) -> PolyMem<u64> {
    let cfg = PolyMemConfig::new(64, 64, 2, 4, scheme, 2).unwrap();
    let mut m = PolyMem::new(cfg).unwrap();
    let data: Vec<u64> = (0..cfg.capacity_elems() as u64).collect();
    m.load_row_major(&data).unwrap();
    m
}

/// The three execution modes under measurement.
const MODES: [&str; 3] = ["region_plan", "access_plan", "interp"];

fn apply_mode(m: &mut PolyMem<u64>, mode: &str) {
    m.set_planning(mode != "interp");
    m.set_region_planning(mode == "region_plan");
}

fn bench_region_read(c: &mut Criterion) {
    let regions = [
        (
            "block32x32",
            Region::new("b", 0, 0, RegionShape::Block { rows: 32, cols: 32 }),
        ),
        (
            "row64",
            Region::new("r", 5, 0, RegionShape::Row { len: 64 }),
        ),
    ];
    let mut g = c.benchmark_group("region_read");
    for (name, region) in regions {
        g.throughput(Throughput::Bytes((region.len() * 8) as u64));
        for mode in MODES {
            let mut m = mem(AccessScheme::ReRo);
            apply_mode(&mut m, mode);
            if mode == "region_plan" {
                m.attach_telemetry(registry());
            }
            let mut out = vec![0u64; region.len()];
            g.bench_function(BenchmarkId::new(mode, name), |b| {
                b.iter(|| {
                    m.read_region_into(0, black_box(&region), &mut out).unwrap();
                    out[0]
                })
            });
        }
    }
    g.finish();
}

fn bench_region_copy(c: &mut Criterion) {
    let src = Region::new("s", 0, 0, RegionShape::Block { rows: 16, cols: 32 });
    let dst = Region::new("d", 32, 32, RegionShape::Block { rows: 16, cols: 32 });
    let mut g = c.benchmark_group("region_copy");
    // STREAM counting: each element is read once and written once.
    g.throughput(Throughput::Bytes((2 * src.len() * 8) as u64));
    for mode in ["region_plan", "access_plan"] {
        let mut m = mem(AccessScheme::ReRo);
        apply_mode(&mut m, mode);
        if mode == "region_plan" {
            m.attach_telemetry(registry());
        }
        g.bench_function(BenchmarkId::new(mode, "block16x32"), |b| {
            b.iter(|| {
                m.copy_region(0, black_box(&src), black_box(&dst)).unwrap();
            })
        });
    }
    g.finish();
}

fn bench_stream_copy(c: &mut Criterion) {
    // 16 rows x 512 cols per vector = 8192 elements; rows tile p = 2, so
    // each vector is one Block region.
    let l = StreamLayout::new(16 * 512, 512, 2, 4, AccessScheme::RoCo, 2).unwrap();
    let p = l.config.p;
    let (a, c_) = (vector_regions(&l.a, p, "A"), vector_regions(&l.c, p, "C"));
    assert_eq!(a.len(), 1, "16 rows tile p=2: one Block per vector");
    let vals: Vec<f64> = (0..l.a.len).map(|k| k as f64 + 0.5).collect();
    let mut chunk = vec![0.0f64; l.config.lanes()];
    let mut g = c.benchmark_group("stream_copy");
    // STREAM counting: read A + write C.
    g.throughput(Throughput::Bytes((2 * l.a.len * 8) as u64));
    for via_regions in [true, false] {
        let mut m = PolyMem::<f64>::new(l.config).unwrap();
        m.write_region(&a[0], &vals).unwrap();
        let mode = if via_regions { "regions" } else { "per_access" };
        g.bench_function(BenchmarkId::new(mode, "16x512"), |b| {
            b.iter(|| {
                if via_regions {
                    m.copy_region(0, &a[0], &c_[0]).unwrap();
                } else {
                    for k in 0..l.a.chunks() {
                        m.read_into(0, l.a.access(k), &mut chunk).unwrap();
                        m.write(l.c.access(k), &chunk).unwrap();
                    }
                }
            })
        });
    }
    g.finish();
    // Last group: export what the instrumented memories saw, so a failing
    // bench gate can say *why* (see `bench-gate`).
    if let Ok(path) = std::env::var("TELEMETRY_JSON") {
        let _ = std::fs::write(&path, registry().snapshot().to_json());
    }
}

criterion_group!(
    benches,
    bench_region_read,
    bench_region_copy,
    bench_stream_copy
);
criterion_main!(benches);
