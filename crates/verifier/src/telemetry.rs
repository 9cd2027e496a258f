//! Telemetry guard-scope analysis: instrumentation inside the storage
//! guard must be lock-free.
//!
//! The unified telemetry layer promises that counting never perturbs the
//! datapath's locking protocol. `ConcurrentPolyMem` bumps its counters
//! after the storage guard is released; if a counting call under the guard
//! ever reached back into the registry — registration, snapshotting,
//! anything that takes the registry's `RwLock` — the storage guard would
//! nest under a foreign lock, invisible to the protocol the lock analyzer
//! proves. This pass re-derives the promise from source on every run:
//!
//! * every *held* storage-guard scope found by [`crate::locks`] is scanned
//!   for telemetry call sites; sites using the atomic handle methods
//!   (`inc`, `add`, `observe` on pre-resolved handles) are recorded as
//!   verified, while any registry-surface token inside the scope
//!   (`registry.`, `.snapshot(`, `register_*`, `attach_telemetry`) is an
//!   error — those paths take the registry lock;
//! * the whole file is additionally screened for the single-writer
//!   `*_owned` counter fast path: sound under `PolyMem`'s `&mut self`,
//!   but a lost-update bug in the multi-writer concurrent memory, so its
//!   appearance in `concurrent.rs` is an error regardless of scope;
//! * like every scanner here, the pass hard-fails towards a warning if it
//!   finds no held storage-guard scope at all — a refactor must not
//!   silently blind it.
//!
//! The span-tracing layer added its own contract and this pass audits it
//! the same way:
//!
//! * **no journal writes inside held storage-guard scopes** — journal
//!   recording is wait-free, but a record under a guard stretches the
//!   guard's critical section and orders the seqlock publication inside a
//!   foreign lock; the instrumentation convention is "record before
//!   acquire / after release" (see `read_region`), and any `tr.writer.*`
//!   emission token inside a held storage guard (read *or* write) is an
//!   error;
//! * **no allocation in hot trace calls** — trace emission on replay hot
//!   paths must move pre-interned ids only; a `format!`, `.to_string(`,
//!   `.intern(` or writer construction in the same statement as an
//!   emission token is an error (those allocate or take the name-table
//!   `RwLock`);
//! * **span balance** — [`run`] drives a small traced STREAM pass and
//!   feeds the journal snapshot through
//!   [`polymem::tracing::TraceSnapshot::validate_spans`]; any unbalanced
//!   begin/end or backwards timestamp in the real instrumentation is an
//!   error (and the `--inject` harness proves the check can fire).

use crate::findings::{Finding, Severity};
use crate::locks::{line_of, mask_source, LockClass, LockGraph, LockMode};
use polymem::tracing::{TraceJournal, TraceSnapshot};
use polymem::AccessScheme;
use std::path::Path;
use stream_bench::{StreamApp, StreamLayout, StreamOp, PAPER_STREAM_FREQ_MHZ};

/// Telemetry call sites that only touch pre-resolved atomic handles —
/// safe inside any guard scope. (`t` is the conventional binding for the
/// attached telemetry struct in `polymem`.)
const ATOMIC_SITES: &[&str] = &[
    "t.inc(",
    "t.add(",
    "t.observe(",
    "t.single_read(",
    "t.single_write(",
    "t.region_read(",
    "t.region_write(",
    "t.region_bytes(",
];

/// Registry-surface tokens: each of these acquires the registry's
/// internal `RwLock` (registration upserts, snapshot reads) and must
/// never appear while the storage guard is held.
const LOCKED_SITES: &[&str] = &[
    "registry.",
    ".snapshot(",
    "register_stat(",
    "register_telemetry(",
    "attach_telemetry(",
    "counter_with_base",
    ".counter(",
    ".gauge(",
    ".histogram(",
];

/// Trace-journal emission tokens (`tr` is the conventional binding for
/// the attached tracing struct). Wait-free, but banned inside a held
/// storage guard and audited for allocation in their statement.
const TRACE_SITES: &[&str] = &[
    "tr.writer.begin(",
    "tr.writer.end(",
    "tr.writer.instant(",
    ".span_at(",
];

/// Tokens that allocate or take the journal's name-table lock: banned in
/// the same statement as a trace emission.
const TRACE_ALLOC_TOKENS: &[&str] = &[
    "format!",
    ".to_string(",
    ".to_owned(",
    "String::from(",
    "Vec::new(",
    "vec!",
    ".intern(",
    ".writer(",
];

/// What the guard-scope scan found (the report section).
#[derive(Debug, Clone, Default)]
pub struct TelemetryGuardReport {
    /// Held storage write-guard scopes examined.
    pub storage_guard_scopes: usize,
    /// Telemetry call sites found inside those scopes.
    pub telemetry_sites: usize,
    /// Of those, sites using only atomic handle methods.
    pub atomic_sites: usize,
    /// Registry-surface (lock-taking) sites inside guard scopes: must be 0.
    pub locked_sites: usize,
    /// Single-writer `*_owned` counter ops anywhere in the file: must be 0.
    pub owned_ops: usize,
    /// Trace-journal emission sites found in the scanned sources.
    pub trace_sites: usize,
    /// Of those, emissions inside a held storage-guard scope: must be 0.
    pub trace_in_guard: usize,
    /// Trace emissions allocating in their own statement: must be 0.
    pub trace_alloc_sites: usize,
    /// Spans reconstructed from the live traced mini-run.
    pub spans_validated: usize,
    /// Balance/nesting problems in the live trace: must be 0.
    pub unbalanced_spans: usize,
}

/// Scan `src` (with its already-built lock graph) for telemetry hazards.
pub fn analyze_source(
    src: &str,
    graph: &LockGraph,
    label: &str,
    findings: &mut Vec<Finding>,
) -> TelemetryGuardReport {
    let masked = mask_source(src);
    let mut report = TelemetryGuardReport::default();

    for acq in graph
        .acquisitions
        .iter()
        .filter(|a| a.class == LockClass::Storage && a.mode == LockMode::Write && a.held)
    {
        let (start, end) = acq.held_scope();
        if start >= end {
            continue;
        }
        report.storage_guard_scopes += 1;
        let scope = &masked[start..end];
        for pat in ATOMIC_SITES {
            let mut s = 0;
            while let Some(found) = scope[s..].find(pat) {
                report.telemetry_sites += 1;
                report.atomic_sites += 1;
                s += found + pat.len();
            }
        }
        for pat in LOCKED_SITES {
            let mut s = 0;
            while let Some(found) = scope[s..].find(pat) {
                let at = start + s + found;
                report.telemetry_sites += 1;
                report.locked_sites += 1;
                findings.push(Finding::new(
                    "telemetry",
                    Severity::Error,
                    "telemetry-lock-in-guard",
                    format!("{label}:{} in {}", line_of(src, at), acq.function),
                    format!(
                        "`{pat}` inside a held storage write guard ({}:{}): registry \
                         calls take the registry RwLock under the storage lock",
                        acq.function, acq.line
                    ),
                ));
                s += found + pat.len();
            }
        }
    }

    // Trace-journal emissions must never happen under a held storage
    // guard, read or write: the convention is "record before acquire / after
    // release" so guards stay minimal and the seqlock publication never
    // nests inside a foreign lock.
    for acq in graph
        .acquisitions
        .iter()
        .filter(|a| a.class == LockClass::Storage && a.held)
    {
        let (start, end) = acq.held_scope();
        if start >= end {
            continue;
        }
        let scope = &masked[start..end];
        for pat in TRACE_SITES {
            let mut s = 0;
            while let Some(found) = scope[s..].find(pat) {
                let at = start + s + found;
                report.trace_in_guard += 1;
                findings.push(Finding::new(
                    "telemetry",
                    Severity::Error,
                    "trace-in-guard",
                    format!("{label}:{} in {}", line_of(src, at), acq.function),
                    format!(
                        "`{pat}` journal write inside a held storage guard ({}:{}): \
                         record before acquiring / after releasing, never under the guard",
                        acq.function, acq.line
                    ),
                ));
                s += found + pat.len();
            }
        }
    }

    // Every trace emission in the file must move pre-interned ids only:
    // an allocation or name-table intern in the same statement would put
    // heap or lock traffic on the replay hot path the spans measure.
    for pat in TRACE_SITES {
        let mut s = 0;
        while let Some(found) = masked[s..].find(pat) {
            let at = s + found;
            report.trace_sites += 1;
            let stmt_end = masked[at..]
                .find(';')
                .map(|e| at + e)
                .unwrap_or(masked.len());
            let stmt = &masked[at..stmt_end];
            for alloc in TRACE_ALLOC_TOKENS {
                if stmt.contains(alloc) {
                    report.trace_alloc_sites += 1;
                    findings.push(Finding::new(
                        "telemetry",
                        Severity::Error,
                        "allocation-in-trace-call",
                        format!("{label}:{}", line_of(src, at)),
                        format!(
                            "`{alloc}` in the same statement as `{pat}`: trace emission \
                             on a hot path must move pre-interned ids only"
                        ),
                    ));
                }
            }
            s = at + pat.len();
        }
    }

    // Single-writer counter ops are forbidden in the concurrent memory
    // wholesale: two caller threads racing a load+store pair lose updates.
    let mut s = 0;
    while let Some(found) = masked[s..].find("_owned(") {
        let at = s + found;
        report.owned_ops += 1;
        findings.push(Finding::new(
            "telemetry",
            Severity::Error,
            "owned-counter-in-concurrent",
            format!("{label}:{}", line_of(src, at)),
            "single-writer `*_owned` counter op in multi-writer code: updates from \
             racing caller threads would be lost; use the RMW `inc`/`add`"
                .to_string(),
        ));
        s = at + "_owned(".len();
    }

    if report.storage_guard_scopes == 0 {
        findings.push(Finding::new(
            "telemetry",
            Severity::Warning,
            "telemetry-scan-blind",
            label.to_string(),
            "found no held storage write-guard scope; the guarded writes this pass \
             exists to audit have moved or been renamed",
        ));
    }
    report
}

/// Feed a trace snapshot through [`TraceSnapshot::validate_spans`] and
/// raise one `unbalanced-span` error per problem it reports. Returns the
/// number of problems.
pub fn check_span_balance(snap: &TraceSnapshot, label: &str, findings: &mut Vec<Finding>) -> usize {
    let problems = snap.validate_spans();
    for p in &problems {
        findings.push(Finding::new(
            "telemetry",
            Severity::Error,
            "unbalanced-span",
            label.to_string(),
            p.clone(),
        ));
    }
    problems.len()
}

/// Drive a small traced STREAM-Copy burst workload and validate the spans
/// the real instrumentation records: every begin must close, nesting must
/// reconcile, timestamps must be monotone per track. Returns
/// `(spans_validated, unbalanced_spans)`.
pub fn live_span_audit(findings: &mut Vec<Finding>) -> (usize, usize) {
    const LABEL: &str = "live trace (STREAM-Copy burst, 2 passes)";
    let n = 8 * 64;
    let app = StreamLayout::new(n, 64, 2, 4, AccessScheme::RoCo, 2)
        .and_then(|layout| StreamApp::new_burst(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ));
    let mut app = match app {
        Ok(app) => app,
        Err(e) => {
            findings.push(Finding::new(
                "telemetry",
                Severity::Error,
                "scanner-blind",
                LABEL.to_string(),
                format!("cannot build the traced mini-run: {e}"),
            ));
            return (0, 0);
        }
    };
    let journal = TraceJournal::new(1 << 12);
    app.attach_tracing(&journal);
    let a: Vec<f64> = (0..n).map(|k| k as f64).collect();
    let z = vec![0.0; n];
    if let Err(e) = app.load(&a, &z, &z) {
        findings.push(Finding::new(
            "telemetry",
            Severity::Error,
            "scanner-blind",
            LABEL.to_string(),
            format!("cannot load the traced mini-run: {e}"),
        ));
        return (0, 0);
    }
    app.run_pass();
    app.run_pass();
    let snap = journal.snapshot();
    let spans = snap.spans().len();
    let unbalanced = check_span_balance(&snap, LABEL, findings);
    if spans == 0 {
        findings.push(Finding::new(
            "telemetry",
            Severity::Warning,
            "telemetry-scan-blind",
            LABEL.to_string(),
            "the traced mini-run recorded no spans; the instrumentation this check \
             exists to audit has moved or been disabled"
                .to_string(),
        ));
    }
    (spans, unbalanced)
}

/// Read `concurrent.rs` under `root`, rebuild its lock graph, run the
/// guard-scope scan, then audit span balance with a live traced mini-run.
pub fn run(root: &Path, graph: &LockGraph, findings: &mut Vec<Finding>) -> TelemetryGuardReport {
    let path = root.join("crates/polymem/src/concurrent.rs");
    let src = match std::fs::read_to_string(&path) {
        Ok(src) => src,
        Err(e) => {
            findings.push(Finding::new(
                "telemetry",
                Severity::Error,
                "scanner-blind",
                path.display().to_string(),
                format!("cannot read source: {e}"),
            ));
            return TelemetryGuardReport::default();
        }
    };
    let mut report = analyze_source(&src, graph, "concurrent.rs", findings);
    let (spans, unbalanced) = live_span_audit(findings);
    report.spans_validated = spans;
    report.unbalanced_spans = unbalanced;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks;

    const REAL: &str = include_str!("../../polymem/src/concurrent.rs");

    #[test]
    fn real_source_is_clean_and_nonvacuous() {
        let mut findings = Vec::new();
        let graph = locks::analyze_source(REAL, "concurrent.rs", &mut findings);
        findings.clear();
        let report = analyze_source(REAL, &graph, "concurrent.rs", &mut findings);
        assert!(findings.is_empty(), "{findings:#?}");
        // Both `write` paths hold the exclusive guard across their stores;
        // counters are bumped after it is released.
        assert!(report.storage_guard_scopes >= 2, "{report:?}");
        assert_eq!(report.atomic_sites, 0, "{report:?}");
        assert_eq!(report.locked_sites, 0);
        assert_eq!(report.owned_ops, 0);
        // The replay spans keep the trace checks nonvacuous: emission
        // sites exist, none under a guard or allocating.
        assert!(report.trace_sites >= 2, "{report:?}");
        assert_eq!(report.trace_in_guard, 0);
        assert_eq!(report.trace_alloc_sites, 0);
    }

    #[test]
    fn trace_emission_under_bank_guard_is_flagged() {
        let injected = format!(
            "{REAL}\nimpl<T> ConcurrentPolyMem<T> {{\n    fn injected_trace_in_guard(&self) {{\n        \
             let mut guard = self.storage.write();\n        \
             if let Some(tr) = &self.trc {{ tr.writer.instant(tr.hit); }}\n        \
             let _ = &mut guard;\n    }}\n}}\n"
        );
        let mut findings = Vec::new();
        let graph = locks::analyze_source(&injected, "x", &mut findings);
        findings.clear();
        let report = analyze_source(&injected, &graph, "x", &mut findings);
        assert!(report.trace_in_guard >= 1, "{report:?}");
        assert!(
            findings.iter().any(|f| f.code == "trace-in-guard"),
            "{findings:#?}"
        );
    }

    #[test]
    fn allocation_in_trace_statement_is_flagged() {
        let injected = format!(
            "{REAL}\nimpl<T> ConcurrentPolyMem<T> {{\n    fn injected_alloc_in_trace(&self, \
             j: &TraceJournal) {{\n        \
             let tr = Tracing {{ writer: j.writer(\"polymem\") }};\n        \
             tr.writer.instant(j.intern(&format!(\"bank-{{}}\", 0)));\n    }}\n}}\n"
        );
        let mut findings = Vec::new();
        let graph = locks::analyze_source(&injected, "x", &mut findings);
        findings.clear();
        let report = analyze_source(&injected, &graph, "x", &mut findings);
        assert!(report.trace_alloc_sites >= 1, "{report:?}");
        assert!(
            findings
                .iter()
                .any(|f| f.code == "allocation-in-trace-call"),
            "{findings:#?}"
        );
    }

    #[test]
    fn dangling_begin_raises_unbalanced_span() {
        let journal = TraceJournal::new(64);
        let w = journal.writer("test");
        let gather = journal.intern("gather");
        journal.set_cycle(10);
        let _span = w.begin(gather, polymem::tracing::SpanId::NONE);
        // Never ended: validate_spans must report the dangling begin.
        let snap = journal.snapshot();
        let mut findings = Vec::new();
        let unbalanced = check_span_balance(&snap, "test journal", &mut findings);
        assert!(unbalanced >= 1, "{snap:?}");
        assert!(
            findings.iter().any(|f| f.code == "unbalanced-span"),
            "{findings:#?}"
        );
    }

    #[test]
    fn balanced_journal_passes_span_balance() {
        let journal = TraceJournal::new(64);
        let w = journal.writer("test");
        let gather = journal.intern("gather");
        journal.set_cycle(10);
        let span = w.begin(gather, polymem::tracing::SpanId::NONE);
        journal.set_cycle(20);
        w.end(gather, span);
        let snap = journal.snapshot();
        let mut findings = Vec::new();
        let unbalanced = check_span_balance(&snap, "test journal", &mut findings);
        assert_eq!(unbalanced, 0, "{findings:#?}");
        assert!(findings.is_empty());
    }

    #[test]
    fn live_span_audit_reconstructs_balanced_spans() {
        let mut findings = Vec::new();
        let (spans, unbalanced) = live_span_audit(&mut findings);
        assert_eq!(unbalanced, 0, "{findings:#?}");
        assert!(
            spans >= 4,
            "expected real instrumentation spans, got {spans}"
        );
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn registry_call_under_bank_guard_is_flagged() {
        let injected = format!(
            "{REAL}\nimpl<T> ConcurrentPolyMem<T> {{\n    fn injected_locked_telemetry(&self, \
             registry: &TelemetryRegistry) {{\n        let mut guard = self.storage.write();\n        \
             let snap = registry.snapshot();\n        let _ = (&mut guard, snap);\n    }}\n}}\n"
        );
        let mut findings = Vec::new();
        let graph = locks::analyze_source(&injected, "concurrent.rs[injected]", &mut findings);
        findings.clear();
        let report = analyze_source(&injected, &graph, "concurrent.rs[injected]", &mut findings);
        assert!(report.locked_sites >= 1, "{report:?}");
        assert!(
            findings.iter().any(|f| f.code == "telemetry-lock-in-guard"),
            "{findings:#?}"
        );
    }

    #[test]
    fn owned_counter_op_is_flagged_anywhere() {
        let injected = format!(
            "{REAL}\nimpl<T> ConcurrentPolyMem<T> {{\n    fn injected_single_writer(&self) {{\n        \
             if let Some(t) = &self.tlm {{ t.reads.inc_owned(); }}\n    }}\n}}\n"
        );
        let mut findings = Vec::new();
        let graph = locks::analyze_source(&injected, "x", &mut findings);
        findings.clear();
        let report = analyze_source(&injected, &graph, "x", &mut findings);
        assert_eq!(report.owned_ops, 1);
        assert!(
            findings
                .iter()
                .any(|f| f.code == "owned-counter-in-concurrent"),
            "{findings:#?}"
        );
    }

    #[test]
    fn blind_scan_warns() {
        let src = "impl<T> Nothing<T> { fn noop(&self) {} }\n";
        let mut findings = Vec::new();
        let graph = locks::analyze_source(src, "x", &mut findings);
        findings.clear();
        let report = analyze_source(src, &graph, "x", &mut findings);
        assert_eq!(report.storage_guard_scopes, 0);
        assert!(
            findings.iter().any(|f| f.code == "telemetry-scan-blind"),
            "{findings:#?}"
        );
    }
}
