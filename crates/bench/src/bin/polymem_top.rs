//! **polymem-top** — a `top`-style view of the instrumented STREAM design.
//!
//! Runs the region-burst STREAM design with the unified telemetry registry
//! attached, then renders what the counters saw: per-bank / per-port
//! utilization, the plan-cache hit ratios, and the kernel's cycle/stall
//! attribution — whose categories must sum to the simulated cycle total
//! *exactly* (the tool exits non-zero if they do not; that invariant is
//! what makes the breakdown trustworthy).
//!
//! ```text
//! polymem-top [--op copy|scale|sum|triad] [--passes N] [--small]
//!             [--json] [--prom] [--schema TELEMETRY_schema.json]
//!             [--trace trace.json]
//! ```
//!
//! `--json` prints the structured [`TelemetrySnapshot`]; `--prom` prints
//! Prometheus text exposition; `--schema` validates the snapshot against
//! the committed metric-ID schema (the CI telemetry step) and exits 1 on a
//! missing or kind-drifted metric. `--trace FILE` writes the cycle-stamped
//! span journal as Chrome trace-event JSON (open it in Perfetto), after
//! checking span balance (exit 4 on an unbalanced trace) and reconciling
//! per-state span sums against the attribution counters (exit 3 on drift).

use polymem::telemetry::{HistogramSample, SampleValue, TelemetrySnapshot};
use polymem::tracing::TraceJournal;
use polymem::{AccessScheme, TelemetryRegistry};
use polymem_bench::render_table;
use polymem_bench::telemetry_gate::{check, parse_schema};
use stream_bench::app::{StreamApp, PAPER_STREAM_FREQ_MHZ};
use stream_bench::layout::StreamLayout;
use stream_bench::op::StreamOp;

fn fail(msg: &str) -> ! {
    eprintln!("polymem-top: {msg}");
    std::process::exit(2);
}

/// Sum every counter sample with the given name whose labels contain
/// `filter` (all snapshot lookups in this tool are label-subset sums).
fn counter_sum(snap: &TelemetrySnapshot, name: &str, filter: &[(&str, &str)]) -> u64 {
    snap.metrics
        .iter()
        .filter(|m| m.name == name)
        .filter(|m| {
            filter
                .iter()
                .all(|(k, v)| m.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
        .filter_map(|m| match m.value {
            SampleValue::Counter(c) => Some(c),
            _ => None,
        })
        .sum()
}

/// All (label-value, counter) rows for one metric keyed by `label`.
fn counter_rows(snap: &TelemetrySnapshot, name: &str, label: &str) -> Vec<(String, u64)> {
    let mut rows: Vec<(String, u64)> = snap
        .metrics
        .iter()
        .filter(|m| m.name == name)
        .filter_map(|m| {
            let key = m.labels.iter().find(|(k, _)| k == label)?.1.clone();
            match m.value {
                SampleValue::Counter(c) => Some((key, c)),
                _ => None,
            }
        })
        .collect();
    rows.sort_by_key(|(k, _)| k.parse::<u64>().unwrap_or(u64::MAX));
    rows
}

/// First histogram sample with the given name (each histogram in this
/// design is registered once per op, so name lookup is unambiguous).
fn histogram_sample<'a>(snap: &'a TelemetrySnapshot, name: &str) -> Option<&'a HistogramSample> {
    snap.metrics
        .iter()
        .filter(|m| m.name == name)
        .find_map(|m| match &m.value {
            SampleValue::Histogram(h) => Some(h),
            _ => None,
        })
}

/// Render a quantile bound: fixed buckets give an upper bound ("≤ b"), and
/// a quantile past the last finite bound can only be reported as "> b".
fn quantile_cell(h: &HistogramSample, q: f64) -> String {
    match h.quantile(q) {
        Some(bound) => format!("<= {bound}"),
        None => match h.bounds.last() {
            Some(last) if h.count > 0 => format!("> {last}"),
            _ => "-".to_string(),
        },
    }
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", part as f64 / whole as f64 * 100.0)
    }
}

const STALL_STATES: [&str; 5] = ["active", "contention", "pipeline", "pcie", "idle"];

fn main() {
    let mut op = StreamOp::Copy;
    let mut passes = 3usize;
    let mut small = false;
    let mut json = false;
    let mut prom = false;
    let mut schema_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--op" => {
                let v = args.next().unwrap_or_else(|| fail("--op needs a value"));
                op = match v.as_str() {
                    "copy" => StreamOp::Copy,
                    "scale" => StreamOp::Scale(3.0),
                    "sum" => StreamOp::Sum,
                    "triad" => StreamOp::Triad(3.0),
                    other => fail(&format!("unknown op {other:?}")),
                };
            }
            "--passes" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| fail("--passes needs a value"));
                passes = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--passes {v:?} is not a number")));
                if passes == 0 {
                    fail("--passes must be at least 1");
                }
            }
            "--small" => small = true,
            "--json" => json = true,
            "--prom" => prom = true,
            "--schema" => {
                schema_path = Some(args.next().unwrap_or_else(|| fail("--schema needs a path")));
            }
            "--trace" => {
                trace_path = Some(args.next().unwrap_or_else(|| fail("--trace needs a path")));
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    // Paper-size STREAM by default (§V geometry); --small is the CI
    // workload — same instrumentation, a fraction of the cycles.
    let layout = if small {
        StreamLayout::new(8 * 64, 64, 2, 4, AccessScheme::RoCo, 2)
    } else {
        StreamLayout::paper_geometry(StreamLayout::PAPER_MAX_LEN)
    }
    .unwrap_or_else(|e| fail(&format!("layout: {e}")));

    let mut app = StreamApp::new_burst(op, layout, PAPER_STREAM_FREQ_MHZ)
        .unwrap_or_else(|e| fail(&format!("build: {e}")));
    let registry = TelemetryRegistry::new();
    app.attach_telemetry(&registry);
    // The span journal rides along on every run.
    let journal = TraceJournal::new(1 << 16);
    app.attach_tracing(&journal);

    let n = layout.a.len;
    let a: Vec<f64> = (0..n).map(|k| k as f64 + 0.5).collect();
    let b: Vec<f64> = (0..n).map(|k| (k as f64) * 2.0).collect();
    let c: Vec<f64> = (0..n).map(|k| 1000.0 - k as f64).collect();
    app.load(&a, &b, &c)
        .unwrap_or_else(|e| fail(&format!("load: {e}")));
    for _ in 0..passes {
        app.run_pass();
    }
    if !app.errors().is_empty() {
        fail(&format!("memory errors: {:?}", app.errors()));
    }

    let snap = registry.snapshot();
    let trace = journal.snapshot();

    // The exact-sum invariant: the kernel ticks once per simulated cycle,
    // and attribute_cycle lands each tick in exactly one bucket.
    let total_cycles = counter_sum(&snap, "stream_sim_cycles_total", &[]);
    let attributed: u64 = STALL_STATES
        .iter()
        .map(|s| counter_sum(&snap, "dfe_kernel_cycles_total", &[("state", s)]))
        .sum();
    if attributed != total_cycles {
        eprintln!(
            "polymem-top: attribution broke its exact-sum invariant: \
             {attributed} attributed vs {total_cycles} simulated cycles"
        );
        std::process::exit(3);
    }

    if let Some(path) = &trace_path {
        // A trace is only trustworthy if its spans balance and its
        // per-state sums agree with the attribution counters it claims to
        // explain — check both before writing anything.
        let problems = trace.validate_spans();
        if !problems.is_empty() {
            eprintln!(
                "polymem-top: trace span-balance FAIL ({} problem(s))",
                problems.len()
            );
            for p in &problems {
                eprintln!("  {p}");
            }
            std::process::exit(4);
        }
        if !trace.events.is_empty() {
            let by_name = trace.span_cycles_by_name("polymem");
            for state in STALL_STATES {
                let spans = by_name.get(state).copied().unwrap_or(0);
                let counter = counter_sum(&snap, "dfe_kernel_cycles_total", &[("state", state)]);
                if spans != counter {
                    eprintln!(
                        "polymem-top: trace/telemetry drift: {state} spans sum to \
                         {spans} cycles but dfe_kernel_cycles_total says {counter}"
                    );
                    std::process::exit(3);
                }
            }
        }
        std::fs::write(path, trace.to_chrome_json())
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!(
            "polymem-top: wrote {} trace event(s) to {path} (Perfetto-loadable)",
            trace.events.len()
        );
    }

    if let Some(path) = &schema_path {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let schema = parse_schema(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        let problems = check(&snap, &schema);
        if !problems.is_empty() {
            eprintln!(
                "polymem-top: schema check FAIL ({} problem(s))",
                problems.len()
            );
            for p in &problems {
                eprintln!("  {p}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "polymem-top: schema check PASS ({} required metrics present)",
            schema.len()
        );
    }

    if json {
        println!("{}", snap.to_json());
        return;
    }
    if prom {
        print!("{}", snap.to_prometheus());
        return;
    }

    println!(
        "polymem-top — STREAM-{} | {} elements/vector | {} pass(es) | {} simulated cycles",
        op.name(),
        n,
        passes,
        total_cycles
    );
    println!();

    println!("Cycle / stall attribution (sums to total exactly):");
    let mut rows: Vec<Vec<String>> = STALL_STATES
        .iter()
        .map(|s| {
            let v = counter_sum(&snap, "dfe_kernel_cycles_total", &[("state", s)]);
            vec![s.to_string(), v.to_string(), pct(v, total_cycles)]
        })
        .collect();
    rows.push(vec![
        "total".to_string(),
        attributed.to_string(),
        pct(attributed, total_cycles),
    ]);
    print!("{}", render_table(&["state", "cycles", "share"], &rows));
    println!();

    let total_elems = counter_sum(&snap, "polymem_bank_elements_total", &[]);
    println!("Per-bank utilization ({total_elems} elements through the banks):");
    let rows: Vec<Vec<String>> = counter_rows(&snap, "polymem_bank_elements_total", "bank")
        .into_iter()
        .map(|(bank, v)| vec![format!("bank {bank}"), v.to_string(), pct(v, total_elems)])
        .collect();
    print!("{}", render_table(&["bank", "elements", "share"], &rows));
    println!();

    println!("Per-port reads / writes:");
    let mut rows: Vec<Vec<String>> = counter_rows(&snap, "polymem_reads_total", "port")
        .into_iter()
        .map(|(port, v)| vec![format!("read port {port}"), v.to_string()])
        .collect();
    rows.push(vec![
        "write port".to_string(),
        counter_sum(&snap, "polymem_writes_total", &[]).to_string(),
    ]);
    print!("{}", render_table(&["port", "accesses"], &rows));
    println!();

    println!("Plan caches:");
    let mut rows = Vec::new();
    for cache in ["access", "region"] {
        let hits = counter_sum(&snap, "polymem_plan_cache_hits_total", &[("cache", cache)]);
        let misses = counter_sum(
            &snap,
            "polymem_plan_cache_misses_total",
            &[("cache", cache)],
        );
        rows.push(vec![
            cache.to_string(),
            hits.to_string(),
            misses.to_string(),
            pct(hits, hits + misses),
        ]);
    }
    print!(
        "{}",
        render_table(&["cache", "hits", "misses", "hit rate"], &rows)
    );
    println!();

    println!("Distribution quantiles (fixed-bucket upper bounds):");
    let quantile_metrics = [
        ("stream_pass_cycles", "cycles"),
        ("stream_pass_bandwidth_mbps", "MB/s"),
        ("stream_burst_outstanding", "bursts"),
        ("polymem_region_run_length", "elements"),
    ];
    let rows: Vec<Vec<String>> = quantile_metrics
        .iter()
        .filter_map(|(name, unit)| {
            let h = histogram_sample(&snap, name)?;
            Some(vec![
                format!("{name} ({unit})"),
                h.count.to_string(),
                quantile_cell(h, 0.50),
                quantile_cell(h, 0.99),
                quantile_cell(h, 0.999),
            ])
        })
        .collect();
    print!(
        "{}",
        render_table(&["metric", "n", "p50", "p99", "p999"], &rows)
    );
    println!();

    let conflicts = counter_sum(&snap, "polymem_conflicts_avoided_total", &[]);
    let bursts = counter_sum(&snap, "stream_bursts_issued_total", &[]);
    println!("{conflicts} bank conflicts avoided by the MAF; {bursts} region bursts issued.");

    // Observability health: events the bounded journal could not
    // keep — nonzero numbers here mean the trace undercounts reality.
    let journal_dropped = counter_sum(&snap, "stream_trace_dropped_total", &[]);
    println!(
        "Trace journal: {} event(s) recorded, {} dropped, {} torn; \
         stream_trace_dropped_total = {}.",
        trace.events.len(),
        trace.dropped,
        trace.torn,
        journal_dropped
    );
    if trace.dropped > 0 || trace.torn > 0 {
        eprintln!(
            "polymem-top: WARNING: trace journal overflowed ({} dropped, {} torn) — \
             raise the journal capacity for a complete trace",
            trace.dropped, trace.torn
        );
    }
}
