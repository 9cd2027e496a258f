//! The CI bench-regression gate.
//!
//! The repo commits machine-readable Criterion baselines (`BENCH_*.json`,
//! one JSON object per line as written by the vendored harness when
//! `CRITERION_JSON` is set). The `bench-gate` binary re-runs the matching
//! benches in `CRITERION_QUICK=1` smoke mode and calls [`compare`] to
//! enforce two invariants:
//!
//! * every baseline benchmark ID still exists (a renamed or deleted bench
//!   silently orphans its baseline — that is a failure, not a skip);
//! * no benchmark's throughput dropped by more than the tolerance
//!   (default 30%, overridable via the `BENCH_GATE_TOLERANCE` environment
//!   variable or `--tolerance`).
//!
//! Faster-than-baseline results never fail the gate; refreshing the
//! committed baselines after a genuine improvement is a separate, explicit
//! act (re-run the bench with `CRITERION_JSON` pointing at the baseline
//! file).

use polymem::json::{self, Json};
use std::collections::BTreeMap;

/// Default allowed throughput drop before the gate fails: 30%.
pub const DEFAULT_TOLERANCE: f64 = 0.30;

/// Environment variable overriding the tolerance (a fraction, e.g. `0.5`).
pub const TOLERANCE_ENV: &str = "BENCH_GATE_TOLERANCE";

/// One benchmark measurement: `group/bench` plus its median ns/iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Fully-qualified benchmark ID (`group/bench`).
    pub id: String,
    /// Median nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Bytes one iteration moves, when the bench declares byte throughput.
    pub bytes_per_iter: Option<f64>,
}

/// A gate violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A baseline benchmark ID is absent from the fresh run.
    Missing {
        /// The orphaned baseline ID.
        id: String,
    },
    /// Throughput dropped past the tolerance.
    Regression {
        /// The regressed benchmark ID.
        id: String,
        /// Baseline ns/iter.
        baseline_ns: f64,
        /// Fresh-run ns/iter.
        current_ns: f64,
        /// Fractional throughput drop (`1 - baseline/current`), in 0..1.
        drop: f64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Missing { id } => {
                write!(f, "MISSING   {id}: baseline entry has no fresh result")
            }
            Violation::Regression {
                id,
                baseline_ns,
                current_ns,
                drop,
            } => write!(
                f,
                "REGRESSED {id}: {baseline_ns:.0} ns -> {current_ns:.0} ns \
                 ({:.0}% throughput drop)",
                drop * 100.0
            ),
        }
    }
}

/// Parse a `BENCH_*.json` baseline file (JSONL, one benchmark per line, as
/// written by the vendored Criterion's `CRITERION_JSON` hook). Lines that
/// are not benchmark records are ignored; a later record for the same ID
/// wins (the hook appends, so re-runs accumulate).
pub fn parse_baseline(text: &str) -> Vec<BenchEntry> {
    let mut by_id: BTreeMap<String, BenchEntry> = BTreeMap::new();
    for record in text.lines().filter_map(|line| json::parse(line).ok()) {
        let str_of = |key: &str| record.get(key).and_then(Json::as_str);
        let f64_of = |key: &str| record.get(key).and_then(Json::as_f64);
        let (Some(group), Some(bench), Some(ns_per_iter)) =
            (str_of("group"), str_of("bench"), f64_of("ns_per_iter"))
        else {
            continue;
        };
        let id = format!("{group}/{bench}");
        let bytes_per_iter = (str_of("throughput_kind") == Some("bytes"))
            .then(|| f64_of("throughput_per_iter"))
            .flatten();
        by_id.insert(
            id.clone(),
            BenchEntry {
                id,
                ns_per_iter,
                bytes_per_iter,
            },
        );
    }
    by_id.into_values().collect()
}

/// Merge two fresh-run result sets, keeping the **faster** entry per
/// benchmark ID (union of IDs). Quick-mode gate runs are single-sample and
/// CI boxes are shared: scheduler interference only ever *adds* time, so
/// the minimum over repeated runs is the noise-robust estimate of what the
/// code can actually do. `bench-gate` reruns a failing bench target and
/// folds the results through this before deciding a drop is real.
pub fn best_of(a: &[BenchEntry], b: &[BenchEntry]) -> Vec<BenchEntry> {
    let mut by_id: BTreeMap<&str, &BenchEntry> = BTreeMap::new();
    for e in a.iter().chain(b) {
        by_id
            .entry(&e.id)
            .and_modify(|best| {
                if e.ns_per_iter < best.ns_per_iter {
                    *best = e;
                }
            })
            .or_insert(e);
    }
    by_id.into_values().cloned().collect()
}

/// Compare a fresh run against a committed baseline.
///
/// `tolerance` is the allowed fractional throughput drop: with 0.30, a
/// benchmark may take up to `1 / (1 - 0.30) ≈ 1.43x` its baseline time
/// before the gate fails. Extra benchmarks in `current` (newly added, no
/// baseline yet) are not violations.
pub fn compare(baseline: &[BenchEntry], current: &[BenchEntry], tolerance: f64) -> Vec<Violation> {
    assert!(
        (0.0..1.0).contains(&tolerance),
        "tolerance must be a fraction in [0, 1), got {tolerance}"
    );
    let fresh: BTreeMap<&str, f64> = current
        .iter()
        .map(|e| (e.id.as_str(), e.ns_per_iter))
        .collect();
    let mut violations = Vec::new();
    for base in baseline {
        match fresh.get(base.id.as_str()) {
            None => violations.push(Violation::Missing {
                id: base.id.clone(),
            }),
            Some(&current_ns) => {
                // Throughput ∝ 1/ns: drop = 1 - (base_ns / current_ns).
                let drop = 1.0 - base.ns_per_iter / current_ns;
                if drop > tolerance {
                    violations.push(Violation::Regression {
                        id: base.id.clone(),
                        baseline_ns: base.ns_per_iter,
                        current_ns,
                        drop,
                    });
                }
            }
        }
    }
    violations
}

/// The maximum allowed tracing tax on the region-replay hot path: the
/// `tracing/region-replay/on` baseline may cost at most 5% more time per
/// iteration than `tracing/region-replay/off`.
pub const TRACING_OVERHEAD_LIMIT: f64 = 0.05;

/// Check the tracing-overhead contract inside one result set: the `on` leg
/// of `tracing/region-replay` must be within [`TRACING_OVERHEAD_LIMIT`] of
/// the `off` leg. Unlike [`compare`] this is a *ratio within one run* (or
/// within the committed baseline), so machine speed cancels out — CI
/// checks the committed `BENCH_tracing.json` deterministically and the
/// quick rerun as a second opinion. Returns the measured overhead on
/// failure; `None` means pass (or legs absent — [`compare`]'s Missing
/// check catches that).
pub fn tracing_overhead(entries: &[BenchEntry]) -> Option<f64> {
    let ns = |id: &str| entries.iter().find(|e| e.id == id).map(|e| e.ns_per_iter);
    let on = ns("tracing/region-replay/on")?;
    let off = ns("tracing/region-replay/off")?;
    let overhead = on / off - 1.0;
    (overhead > TRACING_OVERHEAD_LIMIT).then_some(overhead)
}

/// The most STREAM-Triad may cost per byte, as a multiple of STREAM-Copy's
/// per-byte cost, in one `BENCH_layout.json` result set
/// (`stream_triad/bank_major/16x512` over `stream_copy/bank_major/16x512`).
///
/// The ratio depends on the host's phase: on a 2-vCPU x86-64 VM whose
/// memory-bound code runs up to ~2x slower for minutes at a time, Triad
/// slows more than Copy. Measured there in the slow phase, the motif-run
/// replay read 5.3–7.4x over nine full runs (at most 8.48x pairing a run's
/// slowest Triad sample with its fastest Copy sample), and single
/// quick-mode samples read 0.8–10.7x over 90 runs, 3 of them above this
/// limit. The limit sits 6% above the worst full-run pairing and 5% below
/// the 9.44x of the element-run replay's committed baseline; `bench-gate`
/// fails the quick rerun only when every retry's own ratio is above it.
pub const TRIAD_COPY_RATIO_LIMIT: f64 = 9.0;

/// Check the Triad-gap contract inside one result set: Triad's ns per byte
/// over Copy's must stay within [`TRIAD_COPY_RATIO_LIMIT`]. Like
/// [`tracing_overhead`] it is a ratio of two timings from one process, so
/// it needs no absolute baseline; unlike it, machine speed does not cancel
/// out, because a slow memory system slows Triad more than Copy (see the
/// limit). Returns the measured ratio on failure; `None` means pass (or an
/// entry or its byte count is absent — [`compare`]'s Missing check catches
/// the former).
pub fn triad_copy_ratio(entries: &[BenchEntry]) -> Option<f64> {
    let per_byte = |id: &str| {
        let e = entries.iter().find(|e| e.id == id)?;
        Some(e.ns_per_iter / e.bytes_per_iter?)
    };
    let ratio =
        per_byte("stream_triad/bank_major/16x512")? / per_byte("stream_copy/bank_major/16x512")?;
    (ratio > TRIAD_COPY_RATIO_LIMIT).then_some(ratio)
}

/// Resolve the tolerance: explicit CLI value, else [`TOLERANCE_ENV`], else
/// [`DEFAULT_TOLERANCE`]. Panics on an unparsable override — a silently
/// ignored knob is worse than a loud one.
pub fn resolve_tolerance(cli: Option<f64>) -> f64 {
    if let Some(t) = cli {
        return t;
    }
    match std::env::var(TOLERANCE_ENV) {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{TOLERANCE_ENV}={s:?} is not a number")),
        Err(_) => DEFAULT_TOLERANCE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"group\":\"stream_region\",\"bench\":\"burst/8x512\",\"ns_per_iter\":16095.317,",
        "\"ns_min\":15411.110,\"ns_max\":16890.270,\"throughput_kind\":\"bytes\",",
        "\"throughput_per_iter\":65536,\"iters\":4188,\"samples\":11,\"outliers_rejected\":1}\n",
        "{\"group\":\"stream_region\",\"bench\":\"per_chunk/8x512\",\"ns_per_iter\":97052.978,",
        "\"ns_min\":92581.456,\"ns_max\":99578.206,\"throughput_kind\":\"bytes\",",
        "\"throughput_per_iter\":65536,\"iters\":956,\"samples\":12,\"outliers_rejected\":0}\n",
        "not a json line\n",
    );

    #[test]
    fn parses_jsonl_baselines() {
        let entries = parse_baseline(SAMPLE);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].id, "stream_region/burst/8x512");
        assert!((entries[0].ns_per_iter - 16095.317).abs() < 1e-6);
        assert_eq!(entries[0].bytes_per_iter, Some(65536.0));
    }

    #[test]
    fn later_records_win() {
        let text = concat!(
            "{\"group\":\"g\",\"bench\":\"b\",\"ns_per_iter\":100.0}\n",
            "{\"group\":\"g\",\"bench\":\"b\",\"ns_per_iter\":50.0}\n",
        );
        let entries = parse_baseline(text);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].ns_per_iter, 50.0);
    }

    #[test]
    fn parses_every_committed_baseline() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .to_path_buf();
        let mut files = 0;
        for dirent in std::fs::read_dir(&root).unwrap() {
            let path = dirent.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            files += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            let mut ids = std::collections::BTreeSet::new();
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                let record = json::parse(line).unwrap_or_else(|e| panic!("{name}: {e}"));
                let field = |key: &str| record.get(key).and_then(Json::as_str).unwrap();
                ids.insert(format!("{}/{}", field("group"), field("bench")));
            }
            let parsed: Vec<String> = parse_baseline(&text).into_iter().map(|e| e.id).collect();
            assert_eq!(parsed, ids.into_iter().collect::<Vec<_>>(), "{name}");
            if name == "BENCH_layout.json" {
                let first = text.lines().next().unwrap();
                let entry = &parse_baseline(first)[0];
                assert_eq!(entry.id, "stream_copy/bank_major/16x512");
                assert_eq!(entry.ns_per_iter, 2632.227);
                assert_eq!(entry.bytes_per_iter, Some(131_072.0));
            }
        }
        assert!(
            files >= 7,
            "expected the committed BENCH_*.json set, found {files}"
        );
    }

    fn entry(id: &str, ns: f64) -> BenchEntry {
        BenchEntry {
            bytes_per_iter: None,
            id: id.to_string(),
            ns_per_iter: ns,
        }
    }

    #[test]
    fn within_tolerance_passes() {
        let base = [entry("g/a", 100.0)];
        // 1.25x slower = 20% throughput drop: inside the 30% tolerance.
        let cur = [entry("g/a", 125.0)];
        assert!(compare(&base, &cur, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn seeded_2x_slowdown_fails_the_gate() {
        // The ISSUE's acceptance demonstration: double a baseline entry's
        // time (i.e. the fresh run is 2x slower than committed) and the
        // gate must fail with a 50% throughput drop.
        let base = parse_baseline(SAMPLE);
        let mut cur = base.clone();
        cur[0].ns_per_iter *= 2.0;
        let violations = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert_eq!(violations.len(), 1);
        match &violations[0] {
            Violation::Regression { id, drop, .. } => {
                assert_eq!(id, "stream_region/burst/8x512");
                assert!((drop - 0.5).abs() < 1e-9, "2x time = 50% throughput");
            }
            other => panic!("expected regression, got {other:?}"),
        }
    }

    #[test]
    fn missing_benchmark_id_fails_the_gate() {
        let base = [entry("g/a", 100.0), entry("g/gone", 10.0)];
        let cur = [entry("g/a", 100.0)];
        let violations = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert_eq!(
            violations,
            vec![Violation::Missing {
                id: "g/gone".to_string()
            }]
        );
    }

    #[test]
    fn best_of_keeps_the_faster_entry_per_id() {
        let a = [entry("g/a", 100.0), entry("g/only_a", 7.0)];
        let b = [entry("g/a", 80.0), entry("g/only_b", 9.0)];
        let merged = best_of(&a, &b);
        assert_eq!(
            merged,
            vec![
                entry("g/a", 80.0),
                entry("g/only_a", 7.0),
                entry("g/only_b", 9.0)
            ]
        );
        // A noisy first run that trips the gate passes once a clean rerun
        // is folded in — the bench-gate retry loop in miniature.
        let base = [entry("g/a", 70.0)];
        assert_eq!(compare(&base, &a, DEFAULT_TOLERANCE).len(), 1);
        assert!(compare(&base, &merged, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn faster_and_extra_benches_pass() {
        let base = [entry("g/a", 100.0)];
        let cur = [entry("g/a", 10.0), entry("g/new", 5.0)];
        assert!(compare(&base, &cur, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn tolerance_env_overrides_default() {
        // A 40% drop passes only with a loosened tolerance.
        let base = [entry("g/a", 100.0)];
        let cur = [entry("g/a", 100.0 / 0.6)];
        assert_eq!(compare(&base, &cur, 0.30).len(), 1);
        assert!(compare(&base, &cur, 0.50).is_empty());
    }

    #[test]
    fn violation_display_is_actionable() {
        let v = Violation::Regression {
            id: "g/a".into(),
            baseline_ns: 100.0,
            current_ns: 200.0,
            drop: 0.5,
        };
        let s = v.to_string();
        assert!(s.contains("g/a") && s.contains("50%"), "{s}");
        let m = Violation::Missing { id: "g/b".into() };
        assert!(m.to_string().contains("g/b"));
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn nonsense_tolerance_rejected() {
        let _ = compare(&[], &[], 1.5);
    }

    #[test]
    fn tracing_overhead_gate() {
        let on = |ns| entry("tracing/region-replay/on", ns);
        let off = |ns| entry("tracing/region-replay/off", ns);
        // 3% tax: passes. 20% tax: fails with the measured overhead.
        assert_eq!(tracing_overhead(&[on(103.0), off(100.0)]), None);
        let over = tracing_overhead(&[on(120.0), off(100.0)]).expect("20% tax must fail");
        assert!((over - 0.20).abs() < 1e-9, "{over}");
        // Tracing *faster* than off (noise) passes, as does an absent leg
        // (compare()'s Missing check owns that case).
        assert_eq!(tracing_overhead(&[on(95.0), off(100.0)]), None);
        assert_eq!(tracing_overhead(&[off(100.0)]), None);
    }

    #[test]
    fn triad_copy_ratio_gate() {
        let leg = |group: &str, ns: f64, bytes: f64| BenchEntry {
            bytes_per_iter: Some(bytes),
            ..entry(&format!("{group}/bank_major/16x512"), ns)
        };
        let copy = leg("stream_copy", 1000.0, 2.0);
        // 4x Copy's per-byte cost passes; 12x fails with the ratio.
        assert_eq!(
            triad_copy_ratio(&[leg("stream_triad", 6000.0, 3.0), copy.clone()]),
            None
        );
        let over = triad_copy_ratio(&[leg("stream_triad", 18000.0, 3.0), copy.clone()])
            .expect("12x must fail");
        assert!((over - 12.0).abs() < 1e-9, "{over}");
        // An absent leg or byte count passes (compare() owns Missing).
        assert_eq!(triad_copy_ratio(&[copy]), None);
        let no_bytes = entry("stream_triad/bank_major/16x512", 1e9);
        assert_eq!(
            triad_copy_ratio(&[no_bytes, leg("stream_copy", 1.0, 1.0)]),
            None
        );
        // The element-run replay's baseline fails the limit; the
        // committed motif-run baseline passes it.
        let element_runs = concat!(
            "{\"group\":\"stream_copy\",\"bench\":\"bank_major/16x512\",",
            "\"ns_per_iter\":1858.166,\"throughput_kind\":\"bytes\",",
            "\"throughput_per_iter\":131072}\n",
            "{\"group\":\"stream_triad\",\"bench\":\"bank_major/16x512\",",
            "\"ns_per_iter\":26301.029,\"throughput_kind\":\"bytes\",",
            "\"throughput_per_iter\":196608}\n",
        );
        let old = triad_copy_ratio(&parse_baseline(element_runs)).expect("~9.4x must fail");
        assert!((old - 9.44).abs() < 0.01, "{old}");
        let committed = parse_baseline(include_str!("../../../BENCH_layout.json"));
        assert_eq!(triad_copy_ratio(&committed), None);
    }
}
