//! **Ablation (paper §III-A)** — schedule quality: exact (branch-and-bound,
//! standing in for the paper's ILP) vs the greedy baseline vs a naive
//! rectangle-tiling schedule, over a set of application-like traces.

use polymem::AccessScheme;
use polymem_bench::render_table;
use scheduler::{
    evaluate, solve_anneal, solve_exact, solve_greedy, AccessTrace, AnnealOptions, CoverInstance,
};

/// Naive baseline: cover the trace's bounding box with aligned rectangles,
/// ignoring the trace's sparsity and the scheme's multiview patterns.
fn naive_rect_schedule(trace: &AccessTrace, p: usize, q: usize) -> usize {
    if trace.is_empty() {
        return 0;
    }
    let rows = trace.rows().next_multiple_of(p);
    let cols = trace.cols().next_multiple_of(q);
    (rows / p) * (cols / q)
}

pub fn run() {
    let (p, q) = (2usize, 4usize);
    let cases: Vec<(&str, AccessTrace, AccessScheme)> = vec![
        (
            "dense 8x16 block",
            AccessTrace::block(0, 0, 8, 16),
            AccessScheme::ReO,
        ),
        (
            "unaligned 6x12 block",
            AccessTrace::block(1, 3, 6, 12),
            AccessScheme::ReO,
        ),
        (
            "row+column cross",
            AccessTrace::from_coords(
                (0..16)
                    .map(|j| (5usize, j))
                    .chain((0..16).map(|i| (i, 7usize))),
            ),
            AccessScheme::RoCo,
        ),
        (
            "stride-2 sweep",
            AccessTrace::strided(8, 16, 2),
            AccessScheme::RoCo,
        ),
        (
            "stride-4 sweep",
            AccessTrace::strided(8, 16, 4),
            AccessScheme::RoCo,
        ),
        (
            "two diagonals",
            AccessTrace::from_coords((0..8).map(|k| (k, k)).chain((0..8).map(|k| (k + 8, k + 8)))),
            AccessScheme::ReRo,
        ),
    ];

    println!(
        "Scheduler ablation: exact (ILP-equivalent) vs greedy vs naive tiling ({p}x{q} lanes)\n"
    );
    let headers = [
        "Trace", "Scheme", "Elements", "Naive", "Greedy", "Anneal", "Exact", "Optimal?", "Speedup",
        "Eff.",
    ];
    let mut rows = Vec::new();
    for (name, trace, scheme) in cases {
        let rows_sp = trace.rows().next_multiple_of(p).max(p) + p;
        let cols_sp = trace.cols().next_multiple_of(q).max(q) + q;
        let inst = CoverInstance::build(trace.clone(), scheme, p, q, rows_sp, cols_sp);
        let naive = naive_rect_schedule(&trace, p, q);
        let greedy = solve_greedy(&inst);
        let anneal = solve_anneal(&inst, &AnnealOptions::default());
        let exact = solve_exact(&inst, 200_000);
        let metrics = evaluate(trace.len(), p * q, &exact.schedule);
        rows.push(vec![
            name.to_string(),
            scheme.name().to_string(),
            trace.len().to_string(),
            naive.to_string(),
            if greedy.complete {
                greedy.len().to_string()
            } else {
                "inf".to_string()
            },
            if anneal.complete {
                anneal.len().to_string()
            } else {
                "inf".to_string()
            },
            exact.schedule.len().to_string(),
            if exact.proved_optimal {
                "proven"
            } else {
                "budget"
            }
            .to_string(),
            metrics.map_or("-".into(), |m| format!("{:.1}", m.speedup)),
            metrics.map_or("-".into(), |m| format!("{:.2}", m.efficiency)),
        ]);
    }
    println!("{}", render_table(&headers, &rows));
    println!(
        "Naive counts bounding-box tiles; greedy/anneal/exact exploit the multiview patterns."
    );
}
