//! Concurrency soundness pass: memory-ordering contract + bounded
//! interleaving exploration of the lock-free datapath.
//!
//! The lock analyzer ([`crate::locks`]) proves the *blocking* protocol
//! safe; this pass covers everything that deliberately bypasses it — the
//! atomics in the telemetry counters (the plan cache's hit counters among
//! them) and the advisory planning flag. Two complementary halves:
//!
//! * **Contract scan** — every atomic operation in the audited files is
//!   extracted from source with its `Ordering` and checked against the
//!   declared [`CONTRACT`] table: which counters are legitimately
//!   `Relaxed` (commuting increments whose exact value is only read
//!   through an `Acquire` load) and which reads must stay `Acquire`. An
//!   atomic the table does not declare is an error
//!   (`undeclared-atomic`), a declared site with a different ordering is
//!   an error (`ordering-contract`), and a table row matching no site is
//!   an error (`contract-drift`) — the contract cannot silently rot in
//!   either direction. `unsafe` blocks in `concurrent.rs` must sit inside
//!   a held lock-guard scope (`unsafe-outside-guard`).
//!
//! * **Interleaving exploration** — the three hazard scenarios from the
//!   design's taxonomy are modelled on the vendored [`interleave`]
//!   checker (vector-clock happens-before over exhaustively enumerated
//!   bounded schedules): a one-guard read racing a one-guard two-element
//!   write, two overlapping `copy_region`s, and a telemetry snapshot
//!   folding a shared base during a racing add. Every explored schedule
//!   must be free of happens-before races, lost updates and deadlocks,
//!   and the serializability oracles must hold. The same scenarios run
//!   against the *real* `ConcurrentPolyMem`/`TelemetryRegistry` types in
//!   `cargo test -p polymem --features race-check` (the `polymem::sync`
//!   facade swaps the raw primitives for the model types there); the
//!   models here keep the verifier's normal build free of the feature
//!   while `--inject` mutations 10–12 prove both halves can fire.

use crate::findings::{Finding, Severity};
use crate::locks::{self, extract_fns, line_of, mask_source, strip_test_mods};
use interleave::sync::{AtomicU64, RaceCell, RwLock};
use interleave::{spawn, Explorer, FailureKind, Report};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Kind of atomic operation at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// `.load(..)`.
    Load,
    /// `.store(..)`.
    Store,
    /// `.fetch_*`, `.swap`, `.compare_exchange*`.
    Rmw,
}

impl AtomicOp {
    /// Name used in findings.
    pub fn name(self) -> &'static str {
        match self {
            AtomicOp::Load => "load",
            AtomicOp::Store => "store",
            AtomicOp::Rmw => "rmw",
        }
    }
}

/// One declared row of the memory-model contract: the orderings the named
/// function is allowed to use for one kind of atomic op, and why.
#[derive(Debug, Clone, Copy)]
pub struct OrderingRule {
    /// Audited file (label form, e.g. `telemetry.rs`).
    pub file: &'static str,
    /// Enclosing function name.
    pub function: &'static str,
    /// Operation kind the rule covers.
    pub op: AtomicOp,
    /// Orderings the contract allows at this site.
    pub allowed: &'static [&'static str],
    /// Contract class naming the argument for the allowed orderings.
    pub class: &'static str,
}

/// Why `Relaxed` increments are sound on counters: they commute, no reader
/// derives control flow from an exact in-flight value, and the only exact
/// read (`get`) is an `Acquire` load.
const MONOTONE: &str = "monotone-counter";
/// Reads of published counter/gauge state: must stay `Acquire` to fold
/// bases coherently in `snapshot`.
const PUBLISHED: &str = "published-read";
/// Single-writer fast path (`&mut self` callers only); the telemetry
/// guard-scope pass separately proves it never appears in concurrent code.
const SINGLE_WRITER: &str = "single-writer";
/// Last-write-wins gauge set; no ordering obligation.
const GAUGE: &str = "gauge-set";
/// Advisory flag: both sides are `Relaxed` because the flag only selects
/// a planning strategy, never guards data.
const ADVISORY: &str = "advisory-flag";
/// The declared memory-model contract for the audited files. Ordered by
/// file, then function.
pub const CONTRACT: &[OrderingRule] = &[
    // concurrent.rs — the advisory planning flag.
    OrderingRule {
        file: "concurrent.rs",
        function: "planning",
        op: AtomicOp::Load,
        allowed: &["Relaxed"],
        class: ADVISORY,
    },
    OrderingRule {
        file: "concurrent.rs",
        function: "set_planning",
        op: AtomicOp::Store,
        allowed: &["Relaxed"],
        class: ADVISORY,
    },
    // telemetry.rs — lock-free counters, gauges, histograms.
    OrderingRule {
        file: "telemetry.rs",
        function: "add",
        op: AtomicOp::Rmw,
        allowed: &["Relaxed"],
        class: MONOTONE,
    },
    OrderingRule {
        file: "telemetry.rs",
        function: "add_owned",
        op: AtomicOp::Load,
        allowed: &["Relaxed"],
        class: SINGLE_WRITER,
    },
    OrderingRule {
        file: "telemetry.rs",
        function: "add_owned",
        op: AtomicOp::Store,
        allowed: &["Relaxed"],
        class: SINGLE_WRITER,
    },
    OrderingRule {
        file: "telemetry.rs",
        function: "count",
        op: AtomicOp::Load,
        allowed: &["Acquire"],
        class: PUBLISHED,
    },
    OrderingRule {
        file: "telemetry.rs",
        function: "get",
        op: AtomicOp::Load,
        allowed: &["Acquire"],
        class: PUBLISHED,
    },
    OrderingRule {
        file: "telemetry.rs",
        function: "inc",
        op: AtomicOp::Rmw,
        allowed: &["Relaxed"],
        class: MONOTONE,
    },
    OrderingRule {
        file: "telemetry.rs",
        function: "observe",
        op: AtomicOp::Rmw,
        allowed: &["Relaxed"],
        class: MONOTONE,
    },
    OrderingRule {
        file: "telemetry.rs",
        function: "sample",
        op: AtomicOp::Load,
        allowed: &["Acquire"],
        class: PUBLISHED,
    },
    OrderingRule {
        file: "telemetry.rs",
        function: "set",
        op: AtomicOp::Store,
        allowed: &["Relaxed"],
        class: GAUGE,
    },
    OrderingRule {
        file: "telemetry.rs",
        function: "snapshot",
        op: AtomicOp::Load,
        allowed: &["Acquire"],
        class: PUBLISHED,
    },
    OrderingRule {
        file: "telemetry.rs",
        function: "sum",
        op: AtomicOp::Load,
        allowed: &["Acquire"],
        class: PUBLISHED,
    },
];

/// One atomic operation found in source.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// File label (`telemetry.rs`, ...).
    pub file: &'static str,
    /// Enclosing function.
    pub function: String,
    /// Operation kind.
    pub op: AtomicOp,
    /// `Ordering::` variants named in the call's arguments.
    pub orderings: Vec<String>,
    /// 1-based source line.
    pub line: usize,
}

/// Method-call patterns that may be atomic ops, with their kinds. A hit
/// only becomes a site when its argument list names an `Ordering::`, which
/// screens out `Vec::swap`, `HashMap`-style `insert`, etc.
const OP_PATTERNS: &[(&str, AtomicOp)] = &[
    (".load(", AtomicOp::Load),
    (".store(", AtomicOp::Store),
    (".swap(", AtomicOp::Rmw),
    (".fetch_add(", AtomicOp::Rmw),
    (".fetch_sub(", AtomicOp::Rmw),
    (".fetch_and(", AtomicOp::Rmw),
    (".fetch_or(", AtomicOp::Rmw),
    (".fetch_xor(", AtomicOp::Rmw),
    (".compare_exchange(", AtomicOp::Rmw),
    (".compare_exchange_weak(", AtomicOp::Rmw),
];

/// Position of the `)` matching the `(` at `open` (or end of text).
fn match_paren(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    bytes.len() - 1
}

/// All `Ordering::Variant` names in `args`.
fn orderings_in(args: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut s = 0;
    while let Some(found) = args[s..].find("Ordering::") {
        let at = s + found + "Ordering::".len();
        let end = args[at..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map(|d| at + d)
            .unwrap_or(args.len());
        out.push(args[at..end].to_string());
        s = end;
    }
    out
}

/// Extract every atomic operation (with an explicit `Ordering`) from one
/// source file. Test modules are stripped first.
pub fn scan_source(src: &str, file: &'static str) -> Vec<AtomicSite> {
    let mut masked = mask_source(src);
    strip_test_mods(&mut masked, src);
    let fns = extract_fns(&masked);
    let bytes = masked.as_bytes();
    let mut sites = Vec::new();
    for (pat, op) in OP_PATTERNS {
        let mut s = 0;
        while let Some(found) = masked[s..].find(pat) {
            let dot = s + found;
            let open = dot + pat.len() - 1;
            let close = match_paren(bytes, open);
            s = open + 1;
            let orderings = orderings_in(&masked[open + 1..close]);
            if orderings.is_empty() {
                continue; // not an atomic op (Vec::swap, slice stores, ...)
            }
            let function = fns
                .iter()
                .find(|f| f.body_start <= dot && dot <= f.body_end)
                .map(|f| f.name.clone())
                .unwrap_or_else(|| "?".into());
            sites.push(AtomicSite {
                file,
                function,
                op: *op,
                orderings,
                line: line_of(src, dot),
            });
        }
    }
    sites.sort_by_key(|site| site.line);
    sites
}

/// Check scanned sites against [`CONTRACT`]: every site must match a rule
/// with an allowed ordering, and every rule must match at least one site.
pub fn check_contract(sites: &[AtomicSite], findings: &mut Vec<Finding>) {
    for site in sites {
        let rule = CONTRACT
            .iter()
            .find(|r| r.file == site.file && r.function == site.function && r.op == site.op);
        match rule {
            None => findings.push(Finding::new(
                "races",
                Severity::Error,
                "undeclared-atomic",
                format!("{}:{} in {}", site.file, site.line, site.function),
                format!(
                    "atomic {} with Ordering::{} is not declared in the memory-model \
                     contract table; add an OrderingRule stating why its ordering is sound",
                    site.op.name(),
                    site.orderings.join("/"),
                ),
            )),
            Some(rule) => {
                for ord in &site.orderings {
                    if !rule.allowed.contains(&ord.as_str()) {
                        findings.push(Finding::new(
                            "races",
                            Severity::Error,
                            "ordering-contract",
                            format!("{}:{} in {}", site.file, site.line, site.function),
                            format!(
                                "atomic {} uses Ordering::{ord} but the `{}` contract \
                                 allows only {:?}",
                                site.op.name(),
                                rule.class,
                                rule.allowed,
                            ),
                        ));
                    }
                }
            }
        }
    }
    for rule in CONTRACT {
        let matched = sites
            .iter()
            .any(|s| s.file == rule.file && s.function == rule.function && s.op == rule.op);
        if !matched {
            findings.push(Finding::new(
                "races",
                Severity::Error,
                "contract-drift",
                format!("{}: fn {} ({})", rule.file, rule.function, rule.op.name()),
                format!(
                    "contract rule `{}` matches no atomic site; the code moved or was \
                     renamed — update the table",
                    rule.class,
                ),
            ));
        }
    }
}

/// Every `unsafe` block in `concurrent.rs` must sit inside a held
/// lock-guard scope: raw aliasing is only sound while the protecting
/// guard pins the storage. Returns the number of unsafe blocks seen.
pub fn check_unsafe_scopes(src: &str, label: &str, findings: &mut Vec<Finding>) -> usize {
    let mut masked = mask_source(src);
    strip_test_mods(&mut masked, src);
    let mut scratch = Vec::new();
    let graph = locks::analyze_source(src, label, &mut scratch);
    let mut count = 0;
    let mut s = 0;
    let bytes = masked.as_bytes();
    while let Some(found) = masked[s..].find("unsafe") {
        let at = s + found;
        s = at + "unsafe".len();
        let left_ok = at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        let right = bytes.get(s).copied().unwrap_or(b' ');
        if !left_ok || right.is_ascii_alphanumeric() || right == b'_' {
            continue;
        }
        count += 1;
        let guarded = graph.acquisitions.iter().filter(|a| a.held).any(|a| {
            let (start, end) = a.held_scope();
            start < at && at < end
        });
        if !guarded {
            findings.push(Finding::new(
                "races",
                Severity::Error,
                "unsafe-outside-guard",
                format!("{label}:{}", line_of(src, at)),
                "`unsafe` outside any held lock-guard scope: raw storage aliasing is only \
                 sound while the protecting guard is held",
            ));
        }
    }
    count
}

// ---------------------------------------------------------------------------
// Interleaving exploration: the three hazard-model scenarios.
// ---------------------------------------------------------------------------

/// Whether the one-guard model's writer holds the storage guard across
/// both of its stores (the sound protocol) or drops it between them
/// (inject mutation 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardMode {
    /// Both stores happen under one write guard.
    Held,
    /// The guard is released after the first store — the second is a
    /// happens-before race the explorer must detect.
    DroppedBetweenStores,
}

/// One-guard read racing a one-guard two-element write, the protocol of
/// every `ConcurrentPolyMem` operation: the reader loads both elements of
/// an access under one read guard while the writer stores both under one
/// write guard. Oracle: the read is the whole old access or the whole new
/// one — never a mix.
pub fn explore_guarded_read(mode: GuardMode) -> Report {
    Explorer::new().explore("one-guard-read-vs-writer", move || {
        let storage = Arc::new((
            RwLock::new(()),
            [RaceCell::new("storage", 0), RaceCell::new("storage", 1)],
        ));
        let w = Arc::clone(&storage);
        let writer = spawn(move || {
            let (lock, cells) = &*w;
            let g = lock.write();
            cells[0].set(100);
            if mode == GuardMode::DroppedBetweenStores {
                drop(g);
                cells[1].set(101);
            } else {
                cells[1].set(101);
            }
        });
        let got = {
            let (lock, cells) = &*storage;
            let _g = lock.read();
            [cells[0].get(), cells[1].get()]
        };
        writer.join();
        assert!(
            got == [0, 1] || got == [100, 101],
            "read observed a torn access {got:?} (expected [0, 1] or [100, 101])"
        );
    })
}

/// Two concurrent `copy_region`s over overlapping regions (0 -> 1 and
/// 1 -> 0), each gathering under a read guard and scattering under a
/// write guard. Oracle: both regions end with one of the two original
/// values (the copies serialize).
pub fn explore_overlapping_copy() -> Report {
    Explorer::new().explore("overlapping-copy-region", || {
        let regions: Arc<Vec<(RwLock<()>, RaceCell<u64>)>> = Arc::new(vec![
            (RwLock::new(()), RaceCell::new("region-data", 10)),
            (RwLock::new(()), RaceCell::new("region-data", 20)),
        ]);
        let r = Arc::clone(&regions);
        let t = spawn(move || {
            let v = {
                let _g = r[0].0.read();
                r[0].1.get()
            };
            let _g = r[1].0.write();
            r[1].1.set(v);
        });
        let v = {
            let _g = regions[1].0.read();
            regions[1].1.get()
        };
        {
            let _g = regions[0].0.write();
            regions[0].1.set(v);
        }
        t.join();
        let a = {
            let _g = regions[0].0.read();
            regions[0].1.get()
        };
        let b = {
            let _g = regions[1].0.read();
            regions[1].1.get()
        };
        assert!(a == 10 || a == 20, "region0 = {a}, expected 10 or 20");
        assert!(b == 10 || b == 20, "region1 = {b}, expected 10 or 20");
    })
}

/// Whether the snapshot model folds every base into the counter total
/// (the sound protocol) or skips one (inject mutation 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldMode {
    /// `snapshot` sums the cell and every base.
    FoldAll,
    /// One base is skipped at fold-in — the snapshot drops published
    /// counts and the floor oracle must catch it.
    SkipBase,
}

/// Telemetry multi-base fold-in during snapshot: a counter with a shared
/// base is snapshotted while a writer adds to both. Oracle: the folded
/// total never drops below the pre-published floor and never exceeds the
/// floor plus both in-flight adds.
pub fn explore_snapshot_fold_in(mode: FoldMode) -> Report {
    Explorer::new().explore("snapshot-fold-in", move || {
        let base = Arc::new(AtomicU64::new(0));
        let cell = Arc::new(AtomicU64::new(0));
        base.fetch_add(5, Ordering::Relaxed); // published floor
        let (b2, c2) = (Arc::clone(&base), Arc::clone(&cell));
        let writer = spawn(move || {
            b2.fetch_add(1, Ordering::Relaxed);
            c2.fetch_add(1, Ordering::Relaxed);
        });
        let total = cell.load(Ordering::Acquire)
            + match mode {
                FoldMode::FoldAll => base.load(Ordering::Acquire),
                FoldMode::SkipBase => 0,
            };
        writer.join();
        assert!(
            (5..=7).contains(&total),
            "fold-in snapshot torn: total {total}, expected 5..=7"
        );
    })
}

/// One explored scenario, for the report section.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Distinct schedules executed.
    pub schedules: u64,
    /// Whether the schedule space was exhausted.
    pub complete: bool,
    /// Finding codes raised (empty on a clean scenario).
    pub failure_codes: Vec<&'static str>,
}

/// Map an explorer failure to a finding code. `panic_code` names the
/// scenario's oracle-violation class (a model panic *is* the oracle
/// firing).
fn failure_code(kind: &FailureKind, panic_code: &'static str) -> &'static str {
    match kind {
        FailureKind::HbRace => "hb-race",
        FailureKind::LostUpdate => "lost-update",
        FailureKind::Deadlock => "explorer-deadlock",
        FailureKind::Panic => panic_code,
        FailureKind::StepLimit | FailureKind::Nondeterminism => "explorer-incomplete",
    }
}

/// Convert one explorer [`Report`] into findings + a report row.
pub fn digest_report(
    report: &Report,
    panic_code: &'static str,
    findings: &mut Vec<Finding>,
) -> ScenarioReport {
    let mut codes = Vec::new();
    for f in &report.failures {
        let code = failure_code(&f.kind, panic_code);
        codes.push(code);
        findings.push(Finding::new(
            "races",
            Severity::Error,
            code,
            format!("model `{}` schedule {:?}", report.name, f.schedule),
            f.detail.clone(),
        ));
    }
    if !report.complete && report.failures.is_empty() {
        codes.push("explorer-incomplete");
        findings.push(Finding::new(
            "races",
            Severity::Error,
            "explorer-incomplete",
            format!("model `{}`", report.name),
            format!(
                "schedule space not exhausted within bounds ({} schedules, depth {}); \
                 shrink the model or raise the bounds — a sampled proof is not a proof",
                report.schedules, report.max_depth
            ),
        ));
    }
    if report.schedules < 2 {
        codes.push("races-scan-blind");
        findings.push(Finding::new(
            "races",
            Severity::Warning,
            "races-scan-blind",
            format!("model `{}`", report.name),
            "the scenario explored only one schedule — it has no concurrency left to \
             check and needs updating",
        ));
    }
    ScenarioReport {
        name: report.name.clone(),
        schedules: report.schedules,
        complete: report.complete,
        failure_codes: codes,
    }
}

/// What the races pass found (the report section).
#[derive(Debug, Clone, Default)]
pub struct RacesOutput {
    /// Files scanned for atomic sites.
    pub files: usize,
    /// Atomic sites extracted.
    pub atomic_sites: usize,
    /// Contract rows checked.
    pub contract_rules: usize,
    /// `unsafe` blocks audited in `concurrent.rs`.
    pub unsafe_blocks: usize,
    /// Explored scenarios.
    pub scenarios: Vec<ScenarioReport>,
}

/// Audited files: every file the `polymem::sync` facade's atomics flow
/// through. A new atomic user must be added here *and* to [`CONTRACT`].
pub const AUDITED_FILES: &[&str] = &["concurrent.rs", "telemetry.rs"];

/// Run the full pass against the sources under `root`.
pub fn run(root: &Path, findings: &mut Vec<Finding>) -> RacesOutput {
    let mut out = RacesOutput {
        contract_rules: CONTRACT.len(),
        ..Default::default()
    };
    let mut sites = Vec::new();
    for file in AUDITED_FILES {
        let path = root.join("crates/polymem/src").join(file);
        match std::fs::read_to_string(&path) {
            Ok(src) => {
                out.files += 1;
                sites.extend(scan_source(&src, file));
                if *file == "concurrent.rs" {
                    out.unsafe_blocks += check_unsafe_scopes(&src, file, findings);
                }
            }
            Err(e) => findings.push(Finding::new(
                "races",
                Severity::Error,
                "races-scan-blind",
                path.display().to_string(),
                format!("cannot read source: {e}"),
            )),
        }
    }
    out.atomic_sites = sites.len();
    if sites.is_empty() {
        findings.push(Finding::new(
            "races",
            Severity::Error,
            "races-scan-blind",
            "crates/polymem/src",
            "no atomic operations found in the audited files — the scanner is blind \
             and the contract check is vacuous",
        ));
    } else {
        check_contract(&sites, findings);
    }

    out.scenarios.push(digest_report(
        &explore_guarded_read(GuardMode::Held),
        "oracle-violation",
        findings,
    ));
    out.scenarios.push(digest_report(
        &explore_overlapping_copy(),
        "oracle-violation",
        findings,
    ));
    out.scenarios.push(digest_report(
        &explore_snapshot_fold_in(FoldMode::FoldAll),
        "torn-snapshot",
        findings,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TELEMETRY: &str = include_str!("../../polymem/src/telemetry.rs");
    const CONCURRENT: &str = include_str!("../../polymem/src/concurrent.rs");

    fn real_sites() -> Vec<AtomicSite> {
        let mut sites = scan_source(CONCURRENT, "concurrent.rs");
        sites.extend(scan_source(TELEMETRY, "telemetry.rs"));
        sites
    }

    #[test]
    fn real_sources_match_the_contract_exactly() {
        let sites = real_sites();
        assert!(sites.len() >= 20, "only {} sites found", sites.len());
        let mut findings = Vec::new();
        check_contract(&sites, &mut findings);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn downgraded_acquire_breaks_the_contract() {
        let mutated = TELEMETRY.replace("Ordering::Acquire", "Ordering::Relaxed");
        let sites = scan_source(&mutated, "telemetry.rs");
        let mut findings = Vec::new();
        check_contract(&sites, &mut findings);
        assert!(
            findings.iter().any(|f| f.code == "ordering-contract"),
            "{findings:#?}"
        );
    }

    #[test]
    fn undeclared_atomic_is_flagged() {
        let injected = format!(
            "{CONCURRENT}\nimpl<T> ConcurrentPolyMem<T> {{\n    fn injected_atomic(&self) -> \
             bool {{\n        self.planning.swap(true, Ordering::SeqCst)\n    }}\n}}\n"
        );
        let sites = scan_source(&injected, "concurrent.rs");
        let mut findings = Vec::new();
        check_contract(&sites, &mut findings);
        assert!(
            findings
                .iter()
                .any(|f| f.code == "undeclared-atomic" && f.location.contains("injected_atomic")),
            "{findings:#?}"
        );
    }

    #[test]
    fn removed_function_is_contract_drift() {
        // Scan only telemetry.rs: every concurrent.rs rule then matches no
        // site.
        let sites = scan_source(TELEMETRY, "telemetry.rs");
        let mut findings = Vec::new();
        check_contract(&sites, &mut findings);
        assert!(
            findings
                .iter()
                .any(|f| f.code == "contract-drift" && f.location.contains("planning")),
            "{findings:#?}"
        );
    }

    #[test]
    fn non_atomic_swap_and_insert_are_not_sites() {
        let src = "fn f(v: &mut Vec<u64>) {\n    v.swap(0, 1);\n    \
                   let mut m = std::collections::HashMap::new();\n    m.insert(1, 2);\n}\n";
        assert!(scan_source(src, "x.rs").is_empty());
    }

    #[test]
    fn unsafe_outside_guard_is_flagged_and_guarded_is_not() {
        let outside = format!(
            "{CONCURRENT}\nimpl<T: Copy> ConcurrentPolyMem<T> {{\n    fn injected_raw(&self) \
             {{\n        let p = self as *const _ as *const u8;\n        \
             let _ = unsafe {{ *p }};\n    }}\n}}\n"
        );
        let mut findings = Vec::new();
        let n = check_unsafe_scopes(&outside, "concurrent.rs[injected]", &mut findings);
        assert_eq!(n, 1);
        assert!(
            findings.iter().any(|f| f.code == "unsafe-outside-guard"),
            "{findings:#?}"
        );

        let inside = format!(
            "{CONCURRENT}\nimpl<T: Copy> ConcurrentPolyMem<T> {{\n    fn injected_guarded(&self) \
             {{\n        let guard = self.storage.read();\n        \
             let p = guard.as_ptr();\n        let _ = unsafe {{ *p }};\n    }}\n}}\n"
        );
        let mut findings = Vec::new();
        let n = check_unsafe_scopes(&inside, "concurrent.rs[injected]", &mut findings);
        assert_eq!(n, 1);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn clean_models_pass_and_branch() {
        for (report, code) in [
            (explore_guarded_read(GuardMode::Held), "oracle-violation"),
            (explore_overlapping_copy(), "oracle-violation"),
            (explore_snapshot_fold_in(FoldMode::FoldAll), "torn-snapshot"),
        ] {
            let mut findings = Vec::new();
            let row = digest_report(&report, code, &mut findings);
            assert!(findings.is_empty(), "{}: {findings:#?}", row.name);
            assert!(row.complete, "{}: {report:?}", row.name);
            assert!(row.schedules > 1, "{}: {report:?}", row.name);
        }
    }

    #[test]
    fn dropped_guard_model_races() {
        let report = explore_guarded_read(GuardMode::DroppedBetweenStores);
        let mut findings = Vec::new();
        let row = digest_report(&report, "oracle-violation", &mut findings);
        assert!(
            row.failure_codes.contains(&"hb-race"),
            "expected hb-race: {report:?}"
        );
    }

    #[test]
    fn skipped_base_model_tears_the_snapshot() {
        let report = explore_snapshot_fold_in(FoldMode::SkipBase);
        let mut findings = Vec::new();
        let row = digest_report(&report, "torn-snapshot", &mut findings);
        assert!(
            row.failure_codes.contains(&"torn-snapshot"),
            "expected torn-snapshot: {report:?}"
        );
    }

    #[test]
    fn run_on_the_real_tree_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut findings = Vec::new();
        let out = run(&root, &mut findings);
        assert!(findings.is_empty(), "{findings:#?}");
        assert_eq!(out.files, 2);
        assert!(out.atomic_sites >= 20);
        assert_eq!(out.scenarios.len(), 3);
        assert!(out.scenarios.iter().all(|s| s.complete));
    }
}
