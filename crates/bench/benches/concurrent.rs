//! Criterion: caller-thread scaling of `ConcurrentPolyMem` — 1, 2 and 4
//! threads reading through `&self`, each issuing its own single reads.
//! Every read takes the shared storage guard once, so readers never
//! exclude each other; how close 4 threads get to 4× one thread's
//! throughput is what this measures. Each iteration starts and joins its
//! scoped threads; 4,096 reads per thread keep that cost a small share.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use polymem::{AccessScheme, ConcurrentPolyMem, ParallelAccess, PolyMemConfig};

/// Single reads each thread issues per measured iteration.
const READS: usize = 4096;

fn filled() -> ConcurrentPolyMem<u64> {
    let cfg = PolyMemConfig::new(64, 64, 2, 4, AccessScheme::RoCo, 4).unwrap();
    let m = ConcurrentPolyMem::<u64>::new(cfg).unwrap();
    for i in 0..64 {
        for j in 0..64 {
            m.set(i, j, (i * 64 + j) as u64).unwrap();
        }
    }
    m
}

fn bench_thread_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("concurrent_caller_threads");
    g.sample_size(20);
    let m = filled();
    for threads in [1usize, 2, 4] {
        g.throughput(Throughput::Bytes((threads * READS * 8 * 8) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(threads), &m, |b, m| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..threads {
                        s.spawn(move || {
                            for _ in 0..READS {
                                m.read(ParallelAccess::row(t, 0)).unwrap();
                            }
                        });
                    }
                })
            })
        });
    }
    g.finish();
}

fn bench_single_threaded_baseline(c: &mut Criterion) {
    // The same 4 x READS reads on the calling thread, with no thread
    // start: compare against concurrent_caller_threads/4.
    let mut g = c.benchmark_group("concurrent_baseline");
    let m = filled();
    g.throughput(Throughput::Bytes((4 * READS * 8 * 8) as u64));
    g.bench_function("sequential_4x4096", |b| {
        b.iter(|| {
            for t in 0..4 {
                for _ in 0..READS {
                    m.read(ParallelAccess::row(t, 0)).unwrap();
                }
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_thread_scaling,
    bench_single_threaded_baseline
);
criterion_main!(benches);
