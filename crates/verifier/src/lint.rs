//! Hot-path source lint: no panicking constructs in plan-replay loops.
//!
//! The compiled-plan design moves every fallible decision (bounds, support,
//! alignment, bank routing) to *compile* time; replay is supposed to be a
//! straight gather/scatter. A stray `unwrap()`/`panic!` in a replay loop
//! would turn a recoverable caller error into an abort of the whole DFE
//! model, so this lint walks the hot functions listed below and rejects
//! panicking constructs outright.
//!
//! Panicking *indexing* (`a[i]`) is deliberately **not** flagged: the
//! plan-soundness analysis ([`crate::plans`]) proves every replayed index
//! in-bounds for every residue class, so indexing in replay is covered by
//! a stronger guarantee than a lint could give (see DESIGN.md, hazard
//! taxonomy).
//!
//! Deliberate exceptions live in `crates/verifier/lint_allow.txt` as
//! `file-suffix function token` lines; unused entries are flagged so the
//! allowlist cannot rot.

use crate::findings::{Finding, Severity};
use crate::locks::{extract_fns, line_of, mask_source, strip_test_mods};
use std::path::Path;

/// Hot functions per file (path relative to the repo root): plan replay,
/// the plan compilers a cache miss runs, the Table I check every planned
/// access makes, and the per-cycle ticks and lockstep windows of the
/// simulated per-chunk STREAM datapath.
const HOT: &[(&str, &[&str])] = &[
    (
        "crates/polymem/src/mem.rs",
        &[
            "read_planned",
            "write_planned",
            "read_replayed",
            "write_replayed",
            "run_span",
            "read_run",
            "write_run",
            "settle",
            "load_rows",
            "load_rows_with",
            "dump_rows_into",
        ],
    ),
    (
        "crates/polymem/src/concurrent.rs",
        &[
            "read",
            "write",
            "replay",
            "replay_mut",
            "read_region",
            "write_region",
            "read_ports",
            "copy_region",
            "copy_region_with",
        ],
    ),
    (
        "crates/polymem/src/plan.rs",
        &["get", "get_or_compile", "get_or_compile_pair"],
    ),
    (
        "crates/polymem/src/bulk.rs",
        &[
            "replay_region",
            "read_region_into",
            "write_region",
            "copy_region",
        ],
    ),
    ("crates/polymem/src/banded.rs", &["band", "spmv"]),
    ("crates/polymem/src/region.rs", &["plan_accesses"]),
    (
        "crates/polymem/src/scheme.rs",
        &["supports", "check_access"],
    ),
    (
        "crates/dfe-sim/src/polymem_kernel.rs",
        &["tick", "lockstep_ready", "lockstep", "unhazarded", "split"],
    ),
    (
        "crates/stream-bench/src/controller.rs",
        &["tick", "lockstep"],
    ),
    ("crates/stream-bench/src/op.rs", &["combine"]),
    (
        "crates/polymem/src/region_plan.rs",
        &[
            "compile",
            "compile_classes",
            "compile_access",
            "assemble",
            "put",
            "put_lanes",
            "place",
            "build_motif_runs",
            "build_store_runs",
            "sorted_store_runs",
            "check_bounds",
            "gather_into",
            "scatter_from",
            "scatter_from_map",
            "gather_motifs",
            "scatter_motifs",
            "copy_store_runs_within",
            "replay_copy",
        ],
    ),
];

/// Panicking constructs rejected in hot functions.
const TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
];

/// Summary of one lint run, for the report.
#[derive(Debug, Clone, Default)]
pub struct LintOutput {
    /// Hot functions actually located and scanned.
    pub functions_checked: usize,
    /// Panicking tokens found (allowed + flagged).
    pub tokens_found: usize,
    /// Tokens covered by the allowlist.
    pub allowed: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AllowEntry {
    file_suffix: String,
    function: String,
    token: String,
    used: bool,
    line: usize,
}

fn parse_allowlist(text: &str, findings: &mut Vec<Finding>) -> Vec<AllowEntry> {
    let mut entries = Vec::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 3 {
            findings.push(Finding::new(
                "lint",
                Severity::Error,
                "allowlist-malformed",
                format!("lint_allow.txt:{}", n + 1),
                format!("expected `file-suffix function token`, got `{line}`"),
            ));
            continue;
        }
        entries.push(AllowEntry {
            file_suffix: fields[0].to_string(),
            function: fields[1].to_string(),
            token: fields[2].to_string(),
            used: false,
            line: n + 1,
        });
    }
    entries
}

/// Lint one file's hot functions. Exposed for injection testing.
pub(crate) fn lint_source(
    src: &str,
    rel_path: &str,
    hot_fns: &[&str],
    allow: &mut [AllowEntry],
    findings: &mut Vec<Finding>,
) -> LintOutput {
    let mut out = LintOutput::default();
    let mut masked = mask_source(src);
    strip_test_mods(&mut masked, src);
    let fns = extract_fns(&masked);
    for want in hot_fns {
        let spans: Vec<_> = fns.iter().filter(|f| f.name == *want).collect();
        if spans.is_empty() {
            findings.push(Finding::new(
                "lint",
                Severity::Error,
                "hot-fn-missing",
                format!("{rel_path}: {want}"),
                "hot function not found — if it was renamed, update the lint's \
                 HOT table so replay code stays covered",
            ));
            continue;
        }
        out.functions_checked += spans.len();
        for span in spans {
            let body = &masked[span.body_start..span.body_end];
            for token in TOKENS {
                let mut s = 0;
                while let Some(found) = body[s..].find(token) {
                    let at = s + found;
                    s = at + token.len();
                    // `assert!(` must not also fire on `debug_assert!(`.
                    if token.starts_with("assert") {
                        let pre = &body[..at];
                        if pre.ends_with("debug_") {
                            continue;
                        }
                    }
                    out.tokens_found += 1;
                    let line = line_of(src, span.body_start + at);
                    // An entry covers every occurrence of the same token
                    // in the same fn; the first match marks it used.
                    let mut covered = false;
                    for entry in allow.iter_mut() {
                        if rel_path.ends_with(&entry.file_suffix)
                            && entry.function == *want
                            && entry.token == *token
                        {
                            entry.used = true;
                            covered = true;
                            break;
                        }
                    }
                    if covered {
                        out.allowed += 1;
                        findings.push(Finding::new(
                            "lint",
                            Severity::Info,
                            "allowed-panic",
                            format!("{rel_path}:{line} in {want}"),
                            format!("`{token}` permitted by lint_allow.txt"),
                        ));
                    } else {
                        findings.push(Finding::new(
                            "lint",
                            Severity::Error,
                            "panic-in-hot-path",
                            format!("{rel_path}:{line} in {want}"),
                            format!(
                                "`{token}` in a plan-replay hot path; return a \
                                 PolyMemError or add a justified lint_allow.txt entry"
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Lint every hot function under `root`, honoring the allowlist.
pub fn run(root: &Path, findings: &mut Vec<Finding>) -> LintOutput {
    let allow_path = root.join("crates/verifier/lint_allow.txt");
    let allow_text = std::fs::read_to_string(&allow_path).unwrap_or_default();
    if allow_text.is_empty() {
        findings.push(Finding::new(
            "lint",
            Severity::Warning,
            "allowlist-missing",
            allow_path.display().to_string(),
            "lint_allow.txt is missing or empty; deliberate exceptions it would \
             list will be flagged as errors",
        ));
    }
    let mut allow = parse_allowlist(&allow_text, findings);
    let mut total = LintOutput::default();
    for (rel, hot_fns) in HOT {
        let path = root.join(rel);
        let src = match std::fs::read_to_string(&path) {
            Ok(src) => src,
            Err(e) => {
                findings.push(Finding::new(
                    "lint",
                    Severity::Error,
                    "hot-file-missing",
                    rel.to_string(),
                    format!("cannot read hot file: {e}"),
                ));
                continue;
            }
        };
        let part = lint_source(&src, rel, hot_fns, &mut allow, findings);
        total.functions_checked += part.functions_checked;
        total.tokens_found += part.tokens_found;
        total.allowed += part.allowed;
    }
    for entry in allow.iter().filter(|e| !e.used) {
        findings.push(Finding::new(
            "lint",
            Severity::Warning,
            "stale-allowlist",
            format!("lint_allow.txt:{}", entry.line),
            format!(
                "entry `{} {} {}` matched nothing; remove it so the allowlist \
                 cannot rot",
                entry.file_suffix, entry.function, entry.token
            ),
        ));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allow(entries: &[(&str, &str, &str)]) -> Vec<AllowEntry> {
        entries
            .iter()
            .map(|(f, func, t)| AllowEntry {
                file_suffix: f.to_string(),
                function: func.to_string(),
                token: t.to_string(),
                used: false,
                line: 0,
            })
            .collect()
    }

    #[test]
    fn flags_unwrap_in_hot_fn_but_not_in_tests() {
        let src = "impl M {\n    fn hot(&self) { self.x.unwrap(); }\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn hot() { x.unwrap(); }\n}\n";
        let mut findings = Vec::new();
        let mut a = allow(&[]);
        let out = lint_source(src, "x/mem.rs", &["hot"], &mut a, &mut findings);
        let flagged: Vec<_> = findings
            .iter()
            .filter(|f| f.code == "panic-in-hot-path")
            .collect();
        assert_eq!(flagged.len(), 1, "{findings:#?}");
        assert_eq!(out.tokens_found, 1);
    }

    #[test]
    fn allowlist_suppresses_and_tracks_usage() {
        let src = "fn hot() { x.unwrap(); y.unwrap(); }\n";
        let mut findings = Vec::new();
        let mut a = allow(&[("mem.rs", "hot", ".unwrap()")]);
        let out = lint_source(src, "x/mem.rs", &["hot"], &mut a, &mut findings);
        assert!(findings.iter().all(|f| f.code != "panic-in-hot-path"));
        assert_eq!(out.allowed, 2, "one entry covers repeated tokens in one fn");
        assert!(a[0].used);
    }

    #[test]
    fn debug_assert_is_not_flagged() {
        let src = "fn hot() { debug_assert!(a == b); }\n";
        let mut findings = Vec::new();
        let mut a = allow(&[]);
        let out = lint_source(src, "x/mem.rs", &["hot"], &mut a, &mut findings);
        assert_eq!(out.tokens_found, 0, "{findings:#?}");
    }

    #[test]
    fn missing_hot_fn_is_an_error() {
        let mut findings = Vec::new();
        let mut a = allow(&[]);
        lint_source(
            "fn other() {}\n",
            "x/mem.rs",
            &["hot"],
            &mut a,
            &mut findings,
        );
        assert!(findings.iter().any(|f| f.code == "hot-fn-missing"));
    }

    #[test]
    fn malformed_allowlist_line_is_reported() {
        let mut findings = Vec::new();
        let entries = parse_allowlist("# comment\nmem.rs hot\n a b c\n", &mut findings);
        assert_eq!(entries.len(), 1);
        assert!(findings.iter().any(|f| f.code == "allowlist-malformed"));
    }

    #[test]
    fn strings_do_not_hide_or_fake_tokens() {
        let src = "fn hot() { log(\"never .unwrap() here\"); }\n";
        let mut findings = Vec::new();
        let mut a = allow(&[]);
        let out = lint_source(src, "x/mem.rs", &["hot"], &mut a, &mut findings);
        assert_eq!(out.tokens_found, 0);
    }
}
