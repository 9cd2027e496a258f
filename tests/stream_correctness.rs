//! STREAM-on-PolyMem correctness and timing invariants across the suite.

use polymem::{AccessScheme, PolyMemError};
use stream_bench::{scalar_reference, StreamApp, StreamLayout, StreamOp, PAPER_STREAM_FREQ_MHZ};

fn vectors(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let a: Vec<f64> = (0..n).map(|k| (k as f64) * 1.5 - 7.0).collect();
    let b: Vec<f64> = (0..n).map(|k| ((k * 13) % 101) as f64).collect();
    let c: Vec<f64> = (0..n).map(|k| ((k * 7) % 89) as f64 * 0.25).collect();
    (a, b, c)
}

fn run_verified(op: StreamOp, n: usize, cols: usize) -> stream_bench::StageTiming {
    let layout = StreamLayout::new(n, cols, 2, 4, AccessScheme::RoCo, 2).unwrap();
    let mut app = StreamApp::new(op, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
    let (a, b, c) = vectors(n);
    app.load(&a, &b, &c).unwrap();
    let t = app.measure(5);
    let (out, _) = app.offload();
    assert_eq!(out, scalar_reference(op, &a, &b, &c), "{}", op.name());
    assert!(app.errors().is_empty());
    t
}

#[test]
fn all_ops_verified_at_multiple_sizes() {
    for n in [64usize, 512, 2048] {
        for op in [
            StreamOp::Copy,
            StreamOp::Scale(0.5),
            StreamOp::Sum,
            StreamOp::Triad(-2.0),
        ] {
            run_verified(op, n, 64);
        }
    }
}

#[test]
fn two_read_ops_cost_same_cycles_as_one_read_ops() {
    // Sum reads B and C through two ports in the same cycle, so a pass
    // costs the same cycles as Copy — that is the whole point of the
    // multi-port memory.
    let copy = run_verified(StreamOp::Copy, 2048, 64);
    let sum = run_verified(StreamOp::Sum, 2048, 64);
    assert_eq!(copy.cycles_per_run, sum.cycles_per_run);
    // But Sum moves 1.5x the bytes -> 1.5x the bandwidth.
    let ratio = sum.bandwidth_mbps / copy.bandwidth_mbps;
    assert!((ratio - 1.5).abs() < 0.01, "ratio {ratio}");
}

#[test]
fn cycles_scale_linearly_with_size() {
    let t1 = run_verified(StreamOp::Copy, 512, 64);
    let t4 = run_verified(StreamOp::Copy, 2048, 64);
    let extra = t4.cycles_per_run as i64 - t1.cycles_per_run as i64;
    // 1536 extra elements = 192 extra chunks at 1/cycle.
    assert_eq!(extra, 192, "steady-state must be one chunk per cycle");
}

#[test]
fn paper_headline_99_percent_of_peak() {
    let layout = StreamLayout::paper_geometry(StreamLayout::PAPER_MAX_LEN).unwrap();
    let mut app = StreamApp::new(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
    let n = StreamLayout::PAPER_MAX_LEN;
    let (a, b, c) = vectors(n);
    app.load(&a, &b, &c).unwrap();
    let t = app.measure(1000);
    assert!(
        t.fraction_of_peak() > 0.99,
        "paper: >99% of peak; got {:.4}",
        t.fraction_of_peak()
    );
    // And within 1% of the paper's measured 15301 MB/s.
    assert!(
        (t.bandwidth_mbps - 15301.0).abs() / 15301.0 < 0.01,
        "got {} MB/s",
        t.bandwidth_mbps
    );
}

#[test]
fn bandwidth_curve_is_monotonic_in_size() {
    let pts = stream_bench::fig10_series(&[512, 2 * 512, 8 * 512, 32 * 512, 170 * 512], 1000);
    for w in pts.windows(2) {
        assert!(
            w[1].bandwidth_mbps > w[0].bandwidth_mbps,
            "Fig. 10 curve must rise: {:?}",
            w
        );
    }
}

#[test]
fn host_overhead_drives_small_size_penalty() {
    // Remove the host overhead analytically: bandwidth at tiny sizes is
    // limited by pipeline fill only; with the 300 ns call cost it drops much
    // further — the effect visible on the left of Fig. 10.
    let layout = StreamLayout::paper_geometry(512).unwrap();
    let mut app = StreamApp::new(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
    let (a, b, c) = vectors(512);
    app.load(&a, &b, &c).unwrap();
    let t = app.measure(2);
    let cycles_ns = t.cycles_per_run as f64 * 1000.0 / PAPER_STREAM_FREQ_MHZ;
    let bw_no_overhead = (512.0 * 16.0) / cycles_ns * 1000.0;
    assert!(
        bw_no_overhead > t.bandwidth_mbps * 1.3,
        "overhead must cost >30% at 4 KB: {} vs {}",
        bw_no_overhead,
        t.bandwidth_mbps
    );
}

#[test]
fn wrong_vector_length_rejected() {
    let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
    let mut app = StreamApp::new(StreamOp::Copy, layout, 120.0).unwrap();
    let a = vec![0.0; 512];
    let short = vec![0.0; 100];
    assert_eq!(
        app.load(&a, &short, &a),
        Err(PolyMemError::WrongLaneCount {
            got: 100,
            expected: 512
        })
    );
}
