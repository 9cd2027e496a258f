//! **Ablation** — read-latency sensitivity of STREAM-Copy. The paper's
//! design absorbs its 14-cycle PolyMem read latency in the controller's
//! feedback alignment; this ablation shows the latency is a pure
//! pipeline-fill cost, invisible at scale — and what the Fig. 10 curve
//! would look like if it were not.

use polymem::AccessScheme;
use polymem_bench::render_table;
use stream_bench::{StreamApp, StreamLayout, StreamOp, PAPER_STREAM_FREQ_MHZ};

fn measure(n: usize, latency: u64) -> (u64, f64) {
    let layout = StreamLayout::new(n, 512, 2, 4, AccessScheme::RoCo, 2).unwrap();
    let mut app =
        StreamApp::with_latency(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ, latency).unwrap();
    let a: Vec<f64> = (0..n).map(|k| k as f64).collect();
    let z = vec![0.0; n];
    app.load(&a, &z, &z).unwrap();
    let t = app.measure(1000);
    let (out, _) = app.offload();
    assert_eq!(out, a);
    (t.cycles_per_run, t.bandwidth_mbps)
}

pub fn run() {
    println!("Ablation: STREAM-Copy sensitivity to the PolyMem read latency\n");
    let headers = ["Vector KB", "lat=1", "lat=14 (paper)", "lat=56", "lat=224"];
    let mut rows = Vec::new();
    for rows_cnt in [1usize, 8, 64, 170] {
        let n = rows_cnt * 512;
        let mut row = vec![format!("{}", n * 8 / 1024)];
        for lat in [1u64, 14, 56, 224] {
            let (_, bw) = measure(n, lat);
            row.push(format!("{bw:.0}"));
        }
        rows.push(row);
    }
    println!("{}", render_table(&headers, &rows));
    println!("Bandwidth in MB/s. Latency shifts the curve left-bottom (fixed fill cost),");
    println!("but the sustained rate is identical: one chunk per cycle regardless of latency.");

    let (c1, _) = measure(64 * 512, 1);
    let (c224, _) = measure(64 * 512, 224);
    println!(
        "\nCycle check at 256 KB: latency 1 -> {c1} cycles, latency 224 -> {c224} cycles \
         (delta {} = latency delta, exactly)",
        c224 - c1
    );
    assert_eq!(c224 - c1, 223);
}
