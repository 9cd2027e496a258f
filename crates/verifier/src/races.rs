//! Concurrency soundness pass: the memory-ordering contract of the
//! lock-free datapath and the scoping of its `unsafe` blocks.
//!
//! The lock analyzer ([`crate::locks`]) proves the *blocking* protocol
//! safe; this pass covers everything that deliberately bypasses it — the
//! atomics in the telemetry counters (the plan cache's hit counters among
//! them) and the advisory planning flag. Every atomic operation in the
//! audited files is extracted from source with its `Ordering` and checked
//! against the declared [`CONTRACT`] table: which counters are
//! legitimately `Relaxed` (commuting increments whose exact value is only
//! read through an `Acquire` load) and which reads must stay `Acquire`. An
//! atomic the table does not declare is an error (`undeclared-atomic`), a
//! declared site with a different ordering is an error
//! (`ordering-contract`), and a table row matching no site is an error
//! (`contract-drift`) — the contract cannot silently rot in either
//! direction. `unsafe` blocks in `concurrent.rs` must sit inside a held
//! lock-guard scope (`unsafe-outside-guard`).
//!
//! The schedules themselves are explored against the real
//! `ConcurrentPolyMem`/`TelemetryRegistry` types, not models of them:
//! `crates/polymem/tests/race_explorer.rs` runs the taxonomy's three
//! hazard scenarios under `cargo test -p polymem --features race-check`,
//! where the `polymem::sync` facade swaps the raw primitives for the
//! vendored `interleave` checker's model types.

use crate::findings::{Finding, Severity};
use crate::locks::{self, extract_fns, line_of, mask_source, strip_test_mods};
use std::path::Path;

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
    fn run_on_the_real_tree_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut findings = Vec::new();
        let out = run(&root, &mut findings);
        assert!(findings.is_empty(), "{findings:#?}");
        assert_eq!(out.files, 2);
        assert!(out.atomic_sites >= 20);
    }
}
