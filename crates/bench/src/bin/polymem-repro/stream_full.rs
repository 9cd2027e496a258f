//! **Extension** — the full STREAM suite (Copy, Scale, Sum, Triad) on the
//! paper geometry, with standard STREAM reporting. The paper synthesizes
//! only Copy and lists "finalize the implementation of STREAM" as future
//! work; this experiment is that future work on the simulator.

use stream_bench::{
    scalar_reference, StreamApp, StreamLayout, StreamOp, StreamRow, PAPER_STREAM_FREQ_MHZ,
};

pub fn run() {
    let n = 64 * 512; // 256 KB per vector: large enough to sit near peak
    let runs = 1000;
    println!(
        "STREAM on MAX-PolyMem (simulated): {} doubles per vector, {} runs, {} MHz\n",
        n, runs, PAPER_STREAM_FREQ_MHZ
    );

    let a: Vec<f64> = (0..n).map(|k| k as f64 + 0.25).collect();
    let b: Vec<f64> = (0..n).map(|k| (k % 97) as f64).collect();
    let c: Vec<f64> = (0..n).map(|k| (k % 89) as f64 * 0.5).collect();

    println!("{}", stream_bench::report::header());
    for op in [
        StreamOp::Copy,
        StreamOp::Scale(3.0),
        StreamOp::Sum,
        StreamOp::Triad(3.0),
    ] {
        let layout = StreamLayout::paper_geometry(n).expect("fits paper geometry");
        let mut app = StreamApp::new(op, layout, PAPER_STREAM_FREQ_MHZ).expect("valid design");
        app.load(&a, &b, &c).expect("load");
        let timing = app.measure(runs);
        let (out, _) = app.offload();
        let want = scalar_reference(op, &a, &b, &c);
        assert_eq!(out, want, "{} verification failed", op.name());
        assert!(app.errors().is_empty());
        println!("{}", StreamRow::from_timing(op, &timing).format());
    }
    println!("\nAll four kernels verified element-exact against the scalar reference.");
    println!(
        "(Copy/Scale peak: 15360 MB/s at 2 streams; Sum/Triad peak: 23040 MB/s at 3 streams.)"
    );
}
