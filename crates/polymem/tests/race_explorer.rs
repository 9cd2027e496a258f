//! Bounded interleaving exploration of the *real* concurrent datapath.
//!
//! Only compiled under `--features race-check`, where `polymem::sync`
//! re-exports the `interleave` model types: every storage-guard acquire,
//! plan-cache hit count and telemetry atomic in these scenarios is a
//! scheduling point, and the vector-clock checker proves every explored
//! schedule free of happens-before races while the oracles pin down the
//! serializable outcomes.
//!
//! `ConcurrentPolyMem` never spawns threads of its own, so the explorer
//! owns every thread and the schedule space stays exhaustively coverable.
//! These are the only explorations of the three scenarios of the design's
//! hazard taxonomy (DESIGN.md, hazard 6): the verifier's `races` pass
//! checks the memory-ordering contract and `unsafe` scoping statically and
//! explores no models of its own.
#![cfg(feature = "race-check")]

use interleave::{spawn, Explorer};
use polymem::{
    AccessScheme, ConcurrentPolyMem, ParallelAccess, PolyMemConfig, Region, RegionShape,
    TelemetryRegistry,
};
use std::sync::Arc;

fn small_mem() -> ConcurrentPolyMem<u64> {
    let cfg = PolyMemConfig::new(4, 4, 2, 2, AccessScheme::RoCo, 1).expect("config");
    ConcurrentPolyMem::new(cfg).expect("mem")
}

/// Fill each row `i` with `base + i*10 + k` and warm every plan cache the
/// scenario threads will hit, so the explored phase is pure datapath.
fn fill_rows(m: &ConcurrentPolyMem<u64>, base: u64) {
    for i in 0..4 {
        let vals: Vec<u64> = (0..4).map(|k| base + (i * 10 + k) as u64).collect();
        m.write(ParallelAccess::row(i, 0), &vals).expect("fill");
    }
}

#[test]
fn region_read_vs_racing_writer_sees_whole_rows() {
    // Plan-cache hit counters are relaxed RMWs that commute; making them
    // transparent keeps the schedule space exhaustively coverable.
    let report =
        Explorer::new()
            .with_transparent_relaxed_rmw()
            .explore("region-read-vs-writer", || {
                let m = Arc::new(small_mem());
                fill_rows(&m, 0);
                let row0 = Region::new("row0", 0, 0, RegionShape::Row { len: 4 });
                // Warm the region plan before any thread races.
                let _ = m.read_region(&row0).expect("warm");
                let m2 = Arc::clone(&m);
                let writer = spawn(move || {
                    m2.write(ParallelAccess::row(0, 0), &[100, 101, 102, 103])
                        .expect("racing write");
                });
                let got = m.read_region(&row0).expect("region read");
                writer.join();
                // Access-level atomicity: one guard per operation, so the read
                // observes the whole old row or the whole new row.
                assert!(
                    got == [0, 1, 2, 3] || got == [100, 101, 102, 103],
                    "read observed a torn row {got:?}"
                );
            });
    assert!(report.ok(), "explorer found violations: {report:?}");
    assert!(report.schedules > 1, "scenario did not branch: {report:?}");
}

#[test]
fn concurrent_overlapping_copy_region_is_race_free() {
    // Same reduction as above: without it the per-lookup hit-counter RMWs
    // blow the space past the schedule budget without adding distinct
    // outcomes.
    let report =
        Explorer::new()
            .with_transparent_relaxed_rmw()
            .explore("overlapping-copy-region", || {
                // A 1x2 bank grid keeps the exhaustive schedule space small (each
                // copy touches two banks), and p=1 puts every row in the same
                // residue class, so both copies share one compiled plan.
                let cfg = PolyMemConfig::new(4, 2, 1, 2, AccessScheme::RoCo, 1).expect("config");
                let m = Arc::new(ConcurrentPolyMem::<u64>::new(cfg).expect("mem"));
                for i in 0..4 {
                    m.write(
                        ParallelAccess::row(i, 0),
                        &[(i * 10) as u64, (i * 10 + 1) as u64],
                    )
                    .expect("fill");
                }
                let r0 = Region::new("row0", 0, 0, RegionShape::Row { len: 2 });
                let r2 = Region::new("row2", 2, 0, RegionShape::Row { len: 2 });
                let _ = m.read_region(&r0).expect("warm r0");
                let _ = m.read_region(&r2).expect("warm r2");
                let m2 = Arc::clone(&m);
                let t = spawn(move || {
                    let r0 = Region::new("row0", 0, 0, RegionShape::Row { len: 2 });
                    let r2 = Region::new("row2", 2, 0, RegionShape::Row { len: 2 });
                    m2.copy_region(&r0, &r2).expect("copy r0 -> r2");
                });
                m.copy_region(&r2, &r0).expect("copy r2 -> r0");
                t.join();
                // Serializable element-wise outcomes: every element of rows 0 and 2
                // ends as one of the two original values for its column.
                let row0 = m.read_region(&r0).expect("readback r0");
                let row2 = m.read_region(&r2).expect("readback r2");
                for k in 0..2 {
                    let (a, b) = (k as u64, 20 + k as u64);
                    assert!(
                        row0[k] == a || row0[k] == b,
                        "row0[{k}] = {} not in {{{a}, {b}}}",
                        row0[k]
                    );
                    assert!(
                        row2[k] == a || row2[k] == b,
                        "row2[{k}] = {} not in {{{a}, {b}}}",
                        row2[k]
                    );
                }
            });
    assert!(report.ok(), "explorer found violations: {report:?}");
    assert!(report.schedules > 1, "scenario did not branch: {report:?}");
}

#[test]
fn telemetry_fold_in_during_snapshot_is_never_torn() {
    let report = Explorer::new().explore("telemetry-fold-in-snapshot", || {
        let registry = TelemetryRegistry::new();
        let uniform = registry.counter("uniform_base", Vec::new());
        let bank0 = registry.counter_with_base("bank0_elements", Vec::new(), &uniform);
        // Pre-published floor: a snapshot must never fold to less.
        uniform.add(5);
        let (u2, b2) = (uniform.clone(), bank0.clone());
        let writer = spawn(move || {
            u2.add(1);
            b2.add(1);
        });
        let snap = registry.snapshot();
        writer.join();
        let total = snap
            .counter_value("bank0_elements", &[])
            .expect("bank0 sampled");
        assert!(
            (5..=7).contains(&total),
            "fold-in snapshot torn: bank0_elements = {total}, expected 5..=7"
        );
        let base = snap.counter_value("uniform_base", &[]).expect("uniform");
        assert!(
            (5..=6).contains(&base),
            "uniform base torn: {base}, expected 5..=6"
        );
    });
    assert!(report.ok(), "explorer found violations: {report:?}");
    assert!(report.schedules > 1, "scenario did not branch: {report:?}");
}

/// The whole suite is only meaningful if the facade actually routes through
/// the model types: a plain read outside a model run must still work (raw
/// fallback), and inside a run the lock ops must create scheduling points —
/// which the `schedules > 1` assertions above already pin down.
#[test]
fn facade_raw_fallback_outside_model() {
    let m = small_mem();
    fill_rows(&m, 0);
    let row1 = Region::new("row1", 1, 0, RegionShape::Row { len: 4 });
    assert_eq!(m.read_region(&row1).unwrap(), vec![10, 11, 12, 13]);
}
