//! `--inject`: mutation testing of the analyzer itself.
//!
//! A static analyzer that never fires is indistinguishable from one that
//! proves things. This module seeds one representative violation per
//! hazard class — a false support claim, a corrupted one-access plan, a
//! corrupted region plan, a mis-tiled run table, a region plan with two
//! lanes of a motif swapped within one access and one with two swapped
//! across accesses, a second storage guard taken under the first,
//! a spawned port thread, a locked telemetry call under the storage
//! guard, a panicking hot path, a deregistered stream feedback loop, a
//! downgraded Acquire ordering, a write that drops its guard between its
//! two stores, a base skipped at snapshot fold-in, and a trace span begun
//! but never ended — and checks that the
//! corresponding analysis reports the expected finding code. The real
//! sources on disk are never modified; source mutations run on in-memory
//! copies, and the concurrency mutations run on the `races` pass's
//! interleaving models.

use crate::findings::{Finding, Severity};
use crate::locks;
use crate::{lint, plans, races, schemes, streams, telemetry};
use polymem::{
    AccessPattern, AccessScheme, AddressingFunction, Agu, BankLayout, ModuleAssignment,
    ParallelAccess, PlanCache, PlanTarget, Region, RegionPlan, RegionShape,
};
use std::path::Path;

/// Result of one seeded mutation.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// Stable mutation name.
    pub name: &'static str,
    /// Hazard class the mutation represents (DESIGN.md taxonomy row).
    pub hazard: &'static str,
    /// Analysis pass expected to catch it.
    pub pass: &'static str,
    /// Finding code the analyzer is expected to raise.
    pub expected_code: &'static str,
    /// Whether the analyzer raised it.
    pub caught: bool,
    /// What the analyzer actually said (first relevant finding).
    pub detail: String,
}

fn record(
    name: &'static str,
    hazard: &'static str,
    pass: &'static str,
    expected_code: &'static str,
    raised: &[Finding],
) -> Mutation {
    let hit = raised.iter().find(|f| f.code == expected_code);
    Mutation {
        name,
        hazard,
        pass,
        expected_code,
        caught: hit.is_some(),
        detail: hit
            .map(|f| f.render())
            .unwrap_or_else(|| format!("no `{expected_code}` finding raised")),
    }
}

/// Mutation 1: claim ReO serves rows conflict-free on 2x4 (it does not —
/// a row hits bank column-pairs only). The scheme proof must refute it.
fn false_support_claim() -> Mutation {
    let mut findings = Vec::new();
    let maf = ModuleAssignment::new(AccessScheme::ReO, 2, 4);
    schemes::check_pair(&maf, AccessPattern::Row, true, &mut findings);
    record(
        "false-support-claim",
        "bank-conflict",
        "schemes",
        "bank-conflict",
        &findings,
    )
}

/// Compile `target` through a 2x4 ReRo memory's plan cache, corrupt a copy
/// of the plan's run tables with `corrupt`, and re-prove it through the
/// `plans` pass, which must raise `expected_code`.
fn corrupted_plan(
    name: &'static str,
    target: PlanTarget<'_>,
    expected_code: &'static str,
    corrupt: impl FnOnce(&mut RegionPlan),
) -> Mutation {
    let (p, q) = (2usize, 4usize);
    let n = p * q;
    let agu = Agu::new(p, q, 4 * n, 4 * n);
    let maf = ModuleAssignment::new(AccessScheme::ReRo, p, q);
    let afn = AddressingFunction::new(p, q, 4 * n, 4 * n);
    let depth = (4 * n / p) * (4 * n / q);
    let mut cache = PlanCache::new(n, depth, BankLayout::BankMajor);
    let (plan, _) = cache
        .get_or_compile(target, &agu, &maf, &afn)
        .expect("supported target compiles");
    let mut bad = plan.clone();
    corrupt(&mut bad);
    let cells = |i, j| match target {
        PlanTarget::Access(a) => schemes::pattern_coords(a.pattern, i, j, p, q),
        PlanTarget::Region(r) => Region::new("inject", i, j, r.shape)
            .coords()
            .unwrap_or_default(),
    };
    let origin = match target {
        PlanTarget::Access(a) => (a.i, a.j),
        PlanTarget::Region(r) => (r.i, r.j),
    };
    let mut findings = Vec::new();
    let at = format!("injected {name}");
    let blocks = (&agu, &maf, &afn);
    plans::check_plan(
        &bad,
        target,
        &[origin],
        cells,
        blocks,
        depth,
        &at,
        &mut findings,
    );
    record(name, "plan-corruption", "plans", expected_code, &findings)
}

/// Where in `bad`'s motif pool the motif its run 0 replays starts.
fn first_motif(bad: &RegionPlan) -> usize {
    bad.motif_runs[0].motif as usize * bad.lanes
}

/// Mutation 2: corrupt a compiled one-access plan (move lane 1 of its
/// motif to another address of lane 0's bank). Its storage image no longer
/// matches its store runs.
fn corrupt_one_access_plan() -> Mutation {
    let access = ParallelAccess::new(1, 2, AccessPattern::Row);
    let target = PlanTarget::Access(access);
    corrupted_plan("corrupt-one-access-plan", target, "plan-corrupt", |bad| {
        let m0 = first_motif(bad);
        bad.motifs[m0 + 1] = bad.motifs[m0] + 1;
    })
}

/// Mutation 3: corrupt a compiled region plan (skew one motif run's flat
/// offset by a slot).
fn corrupt_region_plan() -> Mutation {
    let region = Region::new("inject", 1, 2, RegionShape::Row { len: 16 });
    let target = PlanTarget::Region(&region);
    corrupted_plan("corrupt-region-plan", target, "plan-corrupt", |bad| {
        bad.motif_runs[0].offset += 1;
    })
}

/// Mutation 3b: mis-tile a compiled region plan's motif-run table (drop a
/// group from its two-group run). The run-tiling proof must notice the
/// table no longer covers the region.
fn mistiled_run_table() -> Mutation {
    let region = Region::new("inject", 1, 2, RegionShape::Row { len: 16 });
    let target = PlanTarget::Region(&region);
    corrupted_plan("mistiled-run-table", target, "plan-corrupt", |bad| {
        if let Some(run) = bad.motif_runs.iter_mut().find(|r| r.reps >= 2) {
            run.reps -= 1;
        }
    })
}

/// Mutation 3c: swap two lanes of a compiled region plan's motif. The
/// storage image is unchanged, so the structural proof passes it by
/// design; the ground-truth model check must see elements in the wrong
/// place.
fn swapped_motif_lanes() -> Mutation {
    let region = Region::new("inject", 1, 2, RegionShape::Row { len: 16 });
    let target = PlanTarget::Region(&region);
    corrupted_plan(
        "swapped-motif-lanes",
        target,
        "plan-model-divergence",
        |bad| {
            let m0 = first_motif(bad);
            bad.motifs.swap(m0, m0 + 1);
        },
    )
}

/// Mutation 3d: swap two motif lanes of a compiled block plan that belong
/// to different accesses: lane 0 of the canonical row is the first 2x4
/// rectangle's, lane 5 the second's. The storage image is unchanged, so
/// the structural proof passes it; the per-access bank check must see an
/// access with two lanes in one bank.
fn clashing_motif_lanes() -> Mutation {
    let region = Region::new("inject", 1, 2, RegionShape::Block { rows: 2, cols: 8 });
    let target = PlanTarget::Region(&region);
    corrupted_plan(
        "clashing-motif-lanes",
        target,
        "plan-bank-conflict",
        |bad| {
            let m0 = first_motif(bad);
            bad.motifs.swap(m0, m0 + 5);
        },
    )
}

/// Mutation 4: append a function that takes a second storage guard while
/// holding the first; the lock graph must report the same-class nesting
/// (a recursive read deadlocks behind a queued writer).
fn nested_storage_guard(concurrent_src: &str) -> Mutation {
    let injected = format!(
        "{concurrent_src}\nimpl<T> ConcurrentPolyMem<T> {{\n    fn injected_nested_guard(&self) \
         {{\n        let first = self.storage.read();\n        let second = \
         self.storage.read();\n        let _ = (&first, &second);\n    }}\n}}\n"
    );
    let mut findings = Vec::new();
    let graph = locks::analyze_source(&injected, "concurrent.rs[injected]", &mut findings);
    locks::check_graph(&graph, &mut findings);
    record(
        "nested-storage-guard",
        "recursive-guard",
        "locks",
        "same-class-nesting",
        &findings,
    )
}

/// Mutation 5: append a port thread spawned to write the storage; the
/// locks pass must flag the spawn.
fn spawned_port_thread(concurrent_src: &str) -> Mutation {
    let injected = format!(
        "{concurrent_src}\nimpl<T: Copy + Send + Sync> ConcurrentPolyMem<T> {{\n    fn \
         injected_bad_port(&self, v: T) {{\n        std::thread::scope(|s| {{\n            \
         s.spawn(|| self.storage.write().write(0, 0, v));\n        }});\n    }}\n}}\n"
    );
    let mut findings = Vec::new();
    let _ = locks::analyze_source(&injected, "concurrent.rs[injected]", &mut findings);
    record(
        "spawned-port-thread",
        "port-aliasing",
        "locks",
        "port-aliasing",
        &findings,
    )
}

/// Mutation 6: append a function that snapshots the telemetry registry
/// while holding the storage write guard; the guard-scope scan must flag
/// the registry lock taken under the storage lock.
fn locked_telemetry_in_guard(concurrent_src: &str) -> Mutation {
    let injected = format!(
        "{concurrent_src}\nimpl<T> ConcurrentPolyMem<T> {{\n    fn injected_locked_telemetry\
         (&self, registry: &TelemetryRegistry) {{\n        let mut guard = \
         self.storage.write();\n        let snap = registry.snapshot();\n        \
         let _ = (&mut guard, snap);\n    }}\n}}\n"
    );
    let mut findings = Vec::new();
    let graph = locks::analyze_source(&injected, "concurrent.rs[injected]", &mut findings);
    findings.clear();
    let _ = telemetry::analyze_source(&injected, &graph, "concurrent.rs[injected]", &mut findings);
    record(
        "locked-telemetry-in-guard",
        "guard-scope-violation",
        "telemetry",
        "telemetry-lock-in-guard",
        &findings,
    )
}

/// Mutation 7: a hot replay function with a bare `unwrap()`; the source
/// lint must reject it without an allowlist entry.
fn panicking_hot_path() -> Mutation {
    let src = "impl<T> PolyMem<T> {\n    fn read_planned(&mut self) {\n        \
               let plan = self.cache.get().unwrap();\n        let _ = plan;\n    }\n}\n";
    let mut findings = Vec::new();
    let mut allow = Vec::new();
    lint::lint_source(
        src,
        "crates/polymem/src/mem.rs",
        &["read_planned"],
        &mut allow,
        &mut findings,
    );
    record(
        "panicking-hot-path",
        "hot-path-panic",
        "lint",
        "panic-in-hot-path",
        &findings,
    )
}

/// Mutation 8: strip the delay-line register off the burst design's
/// response paths in its declared stream graph. The controller then waits
/// on PolyMem for a response PolyMem can only compute after the controller
/// unblocks — the deadlock pass must close the wait graph and report the
/// cycle.
fn cyclic_stream_wait() -> Mutation {
    let mut graph = stream_bench::graph::declared_graph(true, 2);
    for e in &mut graph {
        e.registered = false;
    }
    let mut findings = Vec::new();
    streams::check_graph("burst graph[injected]", &graph, &mut findings);
    record(
        "cyclic-stream-wait",
        "stream-deadlock",
        "streams",
        "cyclic-wait",
        &findings,
    )
}

/// Mutation 10: downgrade every `Acquire` load in the telemetry layer to
/// `Relaxed` (in memory) — the published-read rows of the memory-ordering
/// contract table must refuse the new orderings.
fn relaxed_acquire_downgrade(root: &Path) -> Mutation {
    let src =
        std::fs::read_to_string(root.join("crates/polymem/src/telemetry.rs")).unwrap_or_default();
    let mutated = src.replace("Ordering::Acquire", "Ordering::Relaxed");
    let sites = races::scan_source(&mutated, "telemetry.rs");
    let mut findings = Vec::new();
    races::check_contract(&sites, &mut findings);
    record(
        "relaxed-acquire-downgrade",
        "memory-ordering-drift",
        "races",
        "ordering-contract",
        &findings,
    )
}

/// Mutation 11: the one-guard model's writer drops the storage guard
/// between its two stores — the interleaving explorer must find the
/// happens-before race against the guarded reader.
fn split_storage_write() -> Mutation {
    let report = races::explore_guarded_read(races::GuardMode::DroppedBetweenStores);
    let mut findings = Vec::new();
    let _ = races::digest_report(&report, "oracle-violation", &mut findings);
    record(
        "split-storage-write",
        "unguarded-second-store",
        "races",
        "hb-race",
        &findings,
    )
}

/// Mutation 12: the snapshot model skips one base at fold-in — the
/// explorer's floor oracle must report the torn snapshot.
fn skipped_fold_in_base() -> Mutation {
    let report = races::explore_snapshot_fold_in(races::FoldMode::SkipBase);
    let mut findings = Vec::new();
    let _ = races::digest_report(&report, "torn-snapshot", &mut findings);
    record(
        "skipped-fold-in-base",
        "torn-snapshot-fold",
        "races",
        "torn-snapshot",
        &findings,
    )
}

/// Mutation 13: record a span `begin` into a live journal and never close
/// it — the span-balance validation must report the dangling begin.
fn unbalanced_span() -> Mutation {
    let journal = polymem::tracing::TraceJournal::new(64);
    let writer = journal.writer("inject");
    let name = journal.intern("dangling");
    journal.set_cycle(1);
    let _span = writer.begin(name, polymem::tracing::SpanId::NONE);
    let snap = journal.snapshot();
    let mut findings = Vec::new();
    let _ = telemetry::check_span_balance(&snap, "injected journal", &mut findings);
    record(
        "unbalanced-span",
        "span-imbalance",
        "telemetry",
        "unbalanced-span",
        &findings,
    )
}

/// Run every seeded mutation. Reads `concurrent.rs` under `root` for the
/// lock mutations (mutated in memory only).
pub fn run(root: &Path, findings: &mut Vec<Finding>) -> Vec<Mutation> {
    let concurrent_src =
        std::fs::read_to_string(root.join("crates/polymem/src/concurrent.rs")).unwrap_or_default();
    let mutations = vec![
        false_support_claim(),
        corrupt_one_access_plan(),
        corrupt_region_plan(),
        mistiled_run_table(),
        swapped_motif_lanes(),
        clashing_motif_lanes(),
        nested_storage_guard(&concurrent_src),
        spawned_port_thread(&concurrent_src),
        locked_telemetry_in_guard(&concurrent_src),
        panicking_hot_path(),
        cyclic_stream_wait(),
        relaxed_acquire_downgrade(root),
        split_storage_write(),
        skipped_fold_in_base(),
        unbalanced_span(),
    ];
    for m in &mutations {
        if !m.caught {
            findings.push(Finding::new(
                "inject",
                Severity::Error,
                "mutation-survived",
                m.name,
                format!(
                    "seeded violation was not detected (expected `{}`): {}",
                    m.expected_code, m.detail
                ),
            ));
        }
    }
    mutations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seeded_mutation_is_caught() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut findings = Vec::new();
        let mutations = run(&root, &mut findings);
        assert_eq!(mutations.len(), 15);
        for m in &mutations {
            assert!(m.caught, "{} survived: {}", m.name, m.detail);
        }
        assert!(findings.is_empty(), "{findings:#?}");
    }
}
