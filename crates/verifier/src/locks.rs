//! Concurrency hazard analysis: a static lock graph for `ConcurrentPolyMem`.
//!
//! `ConcurrentPolyMem` owns one lock: the storage `RwLock` around its bank
//! array and the plan cache compiled against it. Its documented protocol is
//! one guard at a time: no operation takes a second storage guard while it
//! holds one, and no other lock is taken under the guard. This module
//! re-derives that protocol from the source text of
//! `crates/polymem/src/concurrent.rs` on every run:
//!
//! * every `.read()` / `.write()` acquisition is located and classified by
//!   its receiver (`storage` → storage; anything else is an unclassified
//!   lock, itself a warning);
//! * acquisitions bound with `let` are *held* to the end of their block;
//!   bare ones are transient (guard dropped at the statement's semicolon);
//! * a held acquisition followed by another acquisition inside its scope
//!   yields a lock-order edge; a second storage guard under the first
//!   deadlocks (std's writer-preferring `RwLock` parks a recursive read
//!   behind a waiting writer, which waits on the first guard), as does any
//!   other same-class nesting, and no lock may be taken under the storage
//!   guard;
//! * any `spawn(` in the (non-test) source is an error: ports are served on
//!   the callers' threads, and per-cycle port arbitration is the
//!   simulator's job, not the host's.
//!
//! The analysis is deliberately source-level (no rustc, no network): the
//! scanner is restricted to the idioms this file actually uses, and it
//! hard-fails if it suddenly finds *nothing* (so a refactor cannot
//! silently blind it).

use crate::findings::{Finding, Severity};
use std::path::Path;

/// The lock families of `ConcurrentPolyMem`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockClass {
    /// The one `RwLock` around the bank storage and its plan cache.
    Storage,
    /// Receiver the scanner could not classify.
    Unknown,
}

impl LockClass {
    /// Name used in findings and the report.
    pub fn name(self) -> &'static str {
        match self {
            LockClass::Storage => "storage",
            LockClass::Unknown => "unknown",
        }
    }
}

/// Read or write acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// `.read()`.
    Read,
    /// `.write()`.
    Write,
}

/// One lock acquisition found in the source.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Lock family.
    pub class: LockClass,
    /// Read or write.
    pub mode: LockMode,
    /// Function the acquisition is in.
    pub function: String,
    /// 1-based source line.
    pub line: usize,
    /// Whether the guard is `let`-bound (held to end of block).
    pub held: bool,
    /// Byte position in the scanned text.
    pos: usize,
    /// For held guards: position where the enclosing block closes.
    scope_end: usize,
}

impl Acquisition {
    /// Byte range of the source the guard is held over: `[acquisition,
    /// end-of-enclosing-block)`. Empty for transient (non-`let`-bound)
    /// guards. Offsets are valid into both the original and the masked
    /// source (masking is length-preserving).
    pub fn held_scope(&self) -> (usize, usize) {
        (self.pos, self.scope_end)
    }
}

/// One lock-order edge: `from` is held while `to` is acquired.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// The held lock.
    pub from: LockClass,
    /// The lock acquired under it.
    pub to: LockClass,
    /// `function: line A -> line B`.
    pub location: String,
}

/// The extracted lock structure.
#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    /// Every acquisition found.
    pub acquisitions: Vec<Acquisition>,
    /// Every held-then-acquired edge.
    pub edges: Vec<LockEdge>,
    /// Functions scanned.
    pub functions: usize,
    /// Spawn sites found (each one an error).
    pub spawns: usize,
}

/// Replace string/char literals and comments with spaces, preserving
/// length and line structure, so brace matching cannot be confused by
/// braces in `format!` strings or docs.
pub(crate) fn mask_source(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = vec![b' '; bytes.len()];
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    if bytes[i] == b'\n' {
                        out[i] = b'\n';
                    }
                    i += 1;
                }
                i = (i + 2).min(bytes.len());
            }
            b'"' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' {
                        i += 1;
                    }
                    if i < bytes.len() && bytes[i] == b'\n' {
                        out[i] = b'\n';
                    }
                    i += 1;
                }
                i += 1;
            }
            b'\'' => {
                // Char literal or lifetime. A lifetime (`'a`, `'_`) has no
                // closing quote within 3 bytes of alphanumerics; a char
                // literal closes quickly. Scan ahead conservatively.
                let mut k = i + 1;
                if k < bytes.len() && bytes[k] == b'\\' {
                    k += 2;
                } else {
                    k += 1;
                }
                if k < bytes.len() && bytes[k] == b'\'' {
                    i = k + 1; // char literal, masked out
                } else {
                    out[i] = b'\''; // lifetime, keep
                    i += 1;
                }
            }
            b'\n' => {
                out[i] = b'\n';
                i += 1;
            }
            _ => {
                out[i] = c;
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("mask preserves ascii structure")
}

/// Blank out `#[cfg(test)] mod .. { .. }` blocks in the masked text.
pub(crate) fn strip_test_mods(masked: &mut String, original: &str) {
    let mut search = 0;
    while let Some(found) = original[search..].find("#[cfg(test)]") {
        let at = search + found;
        let Some(open_rel) = masked[at..].find('{') else {
            break;
        };
        let open = at + open_rel;
        let close = match_brace(masked.as_bytes(), open);
        let bytes = unsafe { masked.as_bytes_mut() };
        let last = bytes.len() - 1;
        for b in bytes[at..=close.min(last)].iter_mut() {
            if *b != b'\n' {
                *b = b' ';
            }
        }
        search = close.min(original.len() - 1) + 1;
    }
}

/// Position of the `}` matching the `{` at `open` (or end of text).
fn match_brace(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
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

/// One scanned function: name and body span in the masked text.
#[derive(Debug, Clone)]
pub(crate) struct FnSpan {
    pub(crate) name: String,
    pub(crate) body_start: usize,
    pub(crate) body_end: usize,
}

pub(crate) fn extract_fns(masked: &str) -> Vec<FnSpan> {
    let bytes = masked.as_bytes();
    let mut fns = Vec::new();
    let mut i = 0;
    while let Some(found) = masked[i..].find("fn ") {
        let at = i + found;
        // Word boundary on the left.
        if at > 0 && (bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_') {
            i = at + 3;
            continue;
        }
        let name_start = at + 3;
        let name_end = masked[name_start..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map(|d| name_start + d)
            .unwrap_or(masked.len());
        let name = masked[name_start..name_end].to_string();
        if name.is_empty() {
            i = at + 3;
            continue;
        }
        let Some(open_rel) = masked[name_end..].find('{') else {
            break;
        };
        // Guard against signatures that end without a body (trait decls):
        // a ';' before the '{' means no body, unless it sits inside
        // brackets (an array type such as `[bool; 2]`).
        let mut depth = 0usize;
        let bodiless = masked[name_end..name_end + open_rel].bytes().any(|b| {
            match b {
                b'[' | b'(' => depth += 1,
                b']' | b')' => depth = depth.saturating_sub(1),
                _ => {}
            }
            b == b';' && depth == 0
        });
        if bodiless {
            i = name_end;
            continue;
        }
        let open = name_end + open_rel;
        let close = match_brace(bytes, open);
        fns.push(FnSpan {
            name,
            body_start: open,
            body_end: close,
        });
        i = close;
    }
    fns
}

pub(crate) fn line_of(src: &str, pos: usize) -> usize {
    src[..pos.min(src.len())]
        .bytes()
        .filter(|&b| b == b'\n')
        .count()
        + 1
}

/// Walk backwards from `dot` (the `.` of `.read()`/`.write()`) to recover
/// the receiver expression, balancing `[..]` groups and crossing the
/// whitespace of multi-line method chains. Returns the receiver with
/// whitespace squeezed out, plus its start position in the text.
fn receiver_before(masked: &str, dot: usize) -> (String, usize) {
    let bytes = masked.as_bytes();
    let mut k = dot;
    let mut brackets = 0usize;
    while k > 0 {
        let c = bytes[k - 1];
        if c == b']' {
            brackets += 1;
        } else if c == b'[' {
            if brackets == 0 {
                break;
            }
            brackets -= 1;
        } else if brackets == 0 && c.is_ascii_whitespace() {
            // Cross whitespace only if the chain continues on its far side.
            let mut back = k - 1;
            while back > 0 && bytes[back - 1].is_ascii_whitespace() {
                back -= 1;
            }
            let far = if back > 0 { bytes[back - 1] } else { b' ' };
            if far.is_ascii_alphanumeric() || far == b'_' || far == b']' || far == b'.' {
                k = back;
                continue;
            }
            break;
        } else if brackets == 0
            && !(c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b':')
        {
            break;
        }
        k -= 1;
    }
    let receiver: String = masked[k..dot]
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect();
    (receiver, k)
}

fn classify(receiver: &str) -> LockClass {
    if receiver.ends_with("storage") {
        LockClass::Storage
    } else {
        LockClass::Unknown
    }
}

/// Whether the statement containing `recv_start` is a `let` binding
/// (i.e. the guard is held beyond the statement).
fn is_let_bound(masked: &str, recv_start: usize) -> bool {
    let bytes = masked.as_bytes();
    let mut k = recv_start;
    while k > 0 {
        let c = bytes[k - 1];
        if c == b';' || c == b'{' || c == b'}' {
            break;
        }
        k -= 1;
    }
    masked[k..recv_start].trim_start().starts_with("let ")
}

/// End of the block enclosing `pos` (position of its closing `}`).
fn enclosing_block_end(masked: &str, pos: usize) -> usize {
    let bytes = masked.as_bytes();
    let mut depth = 0isize;
    for (k, &b) in bytes.iter().enumerate().skip(pos) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    bytes.len() - 1
}

/// Scan one source file and build its lock graph (plus spawn and
/// scanner-health findings). `label` names the file in findings.
pub fn analyze_source(src: &str, label: &str, findings: &mut Vec<Finding>) -> LockGraph {
    let mut masked = mask_source(src);
    strip_test_mods(&mut masked, src);
    let fns = extract_fns(&masked);
    let mut graph = LockGraph {
        functions: fns.len(),
        ..Default::default()
    };

    // 1. Every acquisition, classified, with held scopes.
    for f in &fns {
        for (pat, mode) in [(".read()", LockMode::Read), (".write()", LockMode::Write)] {
            let mut s = f.body_start;
            while let Some(found) = masked[s..f.body_end].find(pat) {
                let dot = s + found;
                let (receiver, recv_start) = receiver_before(&masked, dot);
                let class = classify(&receiver);
                if class == LockClass::Unknown {
                    findings.push(Finding::new(
                        "locks",
                        Severity::Warning,
                        "unclassified-lock",
                        format!("{label}:{} in {}", line_of(src, dot), f.name),
                        format!("cannot classify lock receiver `{receiver}`"),
                    ));
                }
                let held = is_let_bound(&masked, recv_start);
                graph.acquisitions.push(Acquisition {
                    class,
                    mode,
                    function: f.name.clone(),
                    line: line_of(src, dot),
                    held,
                    pos: dot,
                    scope_end: if held {
                        enclosing_block_end(&masked, dot)
                    } else {
                        dot
                    },
                });
                s = dot + pat.len();
            }
        }
    }
    graph.acquisitions.sort_by_key(|a| a.pos);

    // 2. Held-then-acquired edges.
    let acqs = graph.acquisitions.clone();
    for h in acqs.iter().filter(|a| a.held) {
        for a in acqs.iter().filter(|a| a.pos > h.pos && a.pos < h.scope_end) {
            graph.edges.push(LockEdge {
                from: h.class,
                to: a.class,
                location: format!("{label}: {} line {} -> line {}", h.function, h.line, a.line),
            });
        }
    }

    // 3. Spawn sites: the datapath never starts threads of its own.
    let mut s = 0;
    while let Some(found) = masked[s..].find("spawn(") {
        let at = s + found;
        graph.spawns += 1;
        let in_fn = fns
            .iter()
            .find(|f| f.body_start <= at && at <= f.body_end)
            .map_or("?", |f| f.name.as_str());
        findings.push(Finding::new(
            "locks",
            Severity::Error,
            "port-aliasing",
            format!("{label}:{} in {in_fn}", line_of(src, at)),
            "`spawn(` in the concurrent datapath: ports are served on the callers' \
             threads, and a port thread reaching the storage guard aliases another \
             port's view of the banks",
        ));
        s = at + "spawn(".len();
    }

    graph
}

/// Prove the extracted lock graph safe: no same-class nesting, nothing
/// taken under the storage guard, and (health check) non-empty.
pub fn check_graph(graph: &LockGraph, findings: &mut Vec<Finding>) {
    if graph.functions == 0 || graph.acquisitions.is_empty() {
        findings.push(Finding::new(
            "locks",
            Severity::Error,
            "scanner-blind",
            "concurrent.rs",
            "the lock scanner found no functions or no acquisitions — the \
             analysis is vacuous and the scanner needs updating",
        ));
        return;
    }
    for e in &graph.edges {
        if e.from == e.to {
            let why = if e.from == LockClass::Storage {
                "a second storage guard is taken while one is held; std's \
                 writer-preferring RwLock parks the recursive read behind a waiting \
                 writer, which waits on the first guard: deadlock"
            } else {
                "two unknown locks are held at once; without a global order inside \
                 the class this can deadlock"
            };
            findings.push(Finding::new(
                "locks",
                Severity::Error,
                "same-class-nesting",
                e.location.clone(),
                why,
            ));
        } else if e.from == LockClass::Storage {
            findings.push(Finding::new(
                "locks",
                Severity::Error,
                "lock-under-storage",
                e.location.clone(),
                format!(
                    "a {} lock is taken under the storage guard; nothing but the \
                     replay may run under it",
                    e.to.name()
                ),
            ));
        }
    }
}

/// Scan `crates/polymem/src/concurrent.rs` under `root` and check it.
pub fn run(root: &Path, findings: &mut Vec<Finding>) -> LockGraph {
    let path = root.join("crates/polymem/src/concurrent.rs");
    let src = match std::fs::read_to_string(&path) {
        Ok(src) => src,
        Err(e) => {
            findings.push(Finding::new(
                "locks",
                Severity::Error,
                "scanner-blind",
                path.display().to_string(),
                format!("cannot read source: {e}"),
            ));
            return LockGraph::default();
        }
    };
    let graph = analyze_source(&src, "concurrent.rs", findings);
    check_graph(&graph, findings);
    graph
}

#[cfg(test)]
mod tests {
    use super::*;

    const REAL: &str = include_str!("../../polymem/src/concurrent.rs");

    #[test]
    fn real_source_is_clean_and_nonvacuous() {
        let mut findings = Vec::new();
        let graph = analyze_source(REAL, "concurrent.rs", &mut findings);
        check_graph(&graph, &mut findings);
        let bad: Vec<_> = findings
            .iter()
            .filter(|f| f.severity >= Severity::Warning)
            .collect();
        assert!(bad.is_empty(), "unexpected findings: {bad:#?}");
        assert!(graph.functions >= 10, "found {} fns", graph.functions);
        assert!(graph.acquisitions.len() >= 10);
        assert_eq!(graph.spawns, 0, "the datapath spawns no threads");
        let storage = |mode| {
            graph
                .acquisitions
                .iter()
                .filter(|a| a.class == LockClass::Storage && a.mode == mode)
                .count()
        };
        assert!(storage(LockMode::Read) >= 2 && storage(LockMode::Write) >= 2);
        // One lock class, and no guard ever held under another.
        assert!(graph
            .acquisitions
            .iter()
            .all(|a| a.class == LockClass::Storage));
        assert!(graph.edges.is_empty(), "edges: {:#?}", graph.edges);
    }

    #[test]
    fn same_class_nesting_is_flagged() {
        // A recursive read of the storage guard: harmless alone, a deadlock
        // once a writer queues between the two acquisitions.
        let injected = format!(
            "{REAL}\nimpl<T> ConcurrentPolyMem<T> {{\n    fn bad2(&self) {{\n        \
             let a = self.storage.read();\n        \
             let b = self.storage.read();\n        \
             let _ = (a, b);\n    }}\n}}\n"
        );
        let mut findings = Vec::new();
        let graph = analyze_source(&injected, "concurrent.rs", &mut findings);
        check_graph(&graph, &mut findings);
        assert!(findings
            .iter()
            .any(|f| f.code == "same-class-nesting" && f.message.contains("writer-preferring")));
    }

    #[test]
    fn cache_lock_under_storage_guard_is_flagged() {
        let injected = format!(
            "{REAL}\nimpl<T> ConcurrentPolyMem<T> {{\n    fn bad6(&self) {{\n        \
             let g = self.storage.read();\n        \
             let s = self.cache.read();\n        \
             let _ = (g, s);\n    }}\n}}\n"
        );
        let mut findings = Vec::new();
        let graph = analyze_source(&injected, "concurrent.rs", &mut findings);
        check_graph(&graph, &mut findings);
        assert!(
            findings.iter().any(|f| f.code == "lock-under-storage"),
            "{findings:#?}"
        );
    }

    #[test]
    fn spawned_bank_write_is_port_aliasing() {
        // Any spawn is flagged, whatever its closure reaches; this one
        // writes the banks from a port thread.
        let injected = format!(
            "{REAL}\nimpl<T: Copy + Default + Send + Sync> ConcurrentPolyMem<T> {{\n    \
             fn bad3(&self, v: T) {{\n        std::thread::scope(|s| {{\n            \
             s.spawn(|| self.storage.write().write(0, 0, v));\n        }});\n    }}\n}}\n"
        );
        let mut findings = Vec::new();
        let graph = analyze_source(&injected, "concurrent.rs", &mut findings);
        assert_eq!(graph.spawns, 1);
        assert!(
            findings
                .iter()
                .any(|f| f.code == "port-aliasing" && f.location.contains("bad3")),
            "no aliasing reported: {findings:#?}"
        );
    }

    #[test]
    fn transient_scalar_guard_makes_no_edges() {
        // `set`'s statement-temporary guard must not create Storage -> X
        // edges (it is dropped at the statement's end).
        let mut findings = Vec::new();
        let graph = analyze_source(REAL, "concurrent.rs", &mut findings);
        assert!(graph.edges.iter().all(|e| e.from != LockClass::Storage));
        assert!(graph
            .acquisitions
            .iter()
            .any(|a| a.function == "set" && a.class == LockClass::Storage && !a.held));
    }

    #[test]
    fn mask_hides_strings_and_comments() {
        let masked = mask_source("let s = \"{ not a brace }\"; // } also not\nlet x = 1;");
        assert!(!masked.contains("not a brace"));
        assert!(!masked.contains("also not"));
        assert!(masked.contains("let x = 1;"));
    }
}
