//! Parity and race tests for `ConcurrentPolyMem::copy_region`.
//!
//! The concurrent copy (one exclusive guard around the copy selection
//! `PolyMem::copy_region` runs too) must be observationally identical to
//! the sequential `PolyMem::copy_region` for every scheme, both bank
//! layouts and every supported region pair — including the error cases —
//! and must never expose a partly copied region to racing readers.

use polymem::{
    AccessScheme, BankLayout, ConcurrentPolyMem, PolyMem, PolyMemConfig, Region, RegionShape,
    TelemetryRegistry,
};

const ROWS: usize = 16;
const COLS: usize = 16;

fn filled_pair(scheme: AccessScheme) -> (PolyMem<u64>, ConcurrentPolyMem<u64>) {
    filled_pair_in(scheme, BankLayout::BankMajor)
}

fn filled_pair_in(
    scheme: AccessScheme,
    layout: BankLayout,
) -> (PolyMem<u64>, ConcurrentPolyMem<u64>) {
    let cfg = PolyMemConfig::new(ROWS, COLS, 2, 4, scheme, 4)
        .unwrap()
        .with_layout(layout);
    let mut seq = PolyMem::new(cfg).unwrap();
    let conc = ConcurrentPolyMem::new(cfg).unwrap();
    for r in 0..ROWS {
        for c in 0..COLS {
            seq.set(r, c, (r * COLS + c) as u64).unwrap();
            conc.set(r, c, (r * COLS + c) as u64).unwrap();
        }
    }
    (seq, conc)
}

fn candidate_pairs() -> Vec<(Region, Region)> {
    let b =
        |name: &str, i, j, rows, cols| Region::new(name, i, j, RegionShape::Block { rows, cols });
    vec![
        // Disjoint same-shape pairs, one per shape.
        (
            Region::new("s", 1, 0, RegionShape::Row { len: 8 }),
            Region::new("d", 9, 8, RegionShape::Row { len: 8 }),
        ),
        (
            Region::new("s", 0, 2, RegionShape::Col { len: 16 }),
            Region::new("d", 0, 11, RegionShape::Col { len: 16 }),
        ),
        (b("s", 2, 0, 4, 8), b("d", 10, 8, 4, 8)),
        (
            Region::new("s", 0, 0, RegionShape::MainDiag { len: 8 }),
            Region::new("d", 8, 8, RegionShape::MainDiag { len: 8 }),
        ),
        (
            Region::new("s", 0, 7, RegionShape::SecondaryDiag { len: 8 }),
            Region::new("d", 8, 15, RegionShape::SecondaryDiag { len: 8 }),
        ),
        // Overlapping blocks: interleaved fallback must match the
        // sequential per-access order exactly.
        (b("s", 2, 0, 4, 8), b("d", 4, 0, 4, 8)),
        (b("s", 4, 0, 4, 8), b("d", 2, 0, 4, 8)),
        // Adjacent (touching, non-overlapping) blocks.
        (b("s", 0, 0, 4, 8), b("d", 4, 0, 4, 8)),
        (b("s", 0, 0, 4, 8), b("d", 0, 8, 4, 8)),
        // Cross-shape: row strip into column strip (positional pairing).
        (
            Region::new("s", 1, 0, RegionShape::Row { len: 8 }),
            Region::new("d", 0, 11, RegionShape::Col { len: 8 }),
        ),
        // Cross-shape, disjoint, same access count: a 2x8 block into a
        // 16-element row pairs lanes by access, not by canonical order.
        (
            b("s", 0, 0, 2, 8),
            Region::new("d", 8, 0, RegionShape::Row { len: 16 }),
        ),
        // Self-copy: degenerate full overlap must be an identity.
        (b("s", 2, 4, 4, 8), b("d", 2, 4, 4, 8)),
    ]
}

/// For every scheme, both layouts and every candidate pair, the
/// concurrent copy agrees with the sequential planned copy — on success
/// *and* on error.
#[test]
fn parity_with_sequential_copy_region_across_schemes() {
    for layout in [BankLayout::BankMajor, BankLayout::AddrInterleaved] {
        let mut successes = 0usize;
        for scheme in AccessScheme::ALL {
            for (src, dst) in candidate_pairs() {
                let ctx = format!("{layout:?} {scheme:?} {src:?}->{dst:?}");
                let (mut seq, conc) = filled_pair_in(scheme, layout);
                let seq_res = seq.copy_region(0, &src, &dst);
                let conc_res = conc.copy_region(&src, &dst);
                match seq_res {
                    Ok(()) => {
                        assert!(
                            conc_res.is_ok(),
                            "{ctx}: sequential ok, concurrent {conc_res:?}"
                        );
                        for r in 0..ROWS {
                            for c in 0..COLS {
                                assert_eq!(
                                    seq.get(r, c).unwrap(),
                                    conc.get(r, c).unwrap(),
                                    "{ctx} at ({r},{c})"
                                );
                            }
                        }
                        successes += 1;
                    }
                    Err(_) => assert!(conc_res.is_err(), "{ctx}: sequential err, concurrent ok"),
                }
            }
        }
        assert!(
            successes >= 20,
            "{layout:?}: too few supported pairs actually exercised: {successes}"
        );
    }
}

/// A shape-count mismatch is rejected identically to the sequential path.
#[test]
fn shape_mismatch_rejected() {
    let (_, conc) = filled_pair(AccessScheme::RoCo);
    let src = Region::new("s", 0, 0, RegionShape::Row { len: 16 });
    let dst = Region::new("d", 0, 0, RegionShape::Col { len: 8 });
    let err = conc.copy_region(&src, &dst).unwrap_err();
    assert!(
        format!("{err}").contains("decomposes into"),
        "unexpected error: {err}"
    );
}

/// A 2048-element copy replays inline on the caller's thread and matches
/// the sequential copy.
#[test]
fn large_copy_runs_inline_and_matches() {
    let n = 64usize;
    let cfg = PolyMemConfig::new(n, n, 2, 4, AccessScheme::RoCo, 4).unwrap();
    let mut seq = PolyMem::<u64>::new(cfg).unwrap();
    let conc = ConcurrentPolyMem::<u64>::new(cfg).unwrap();
    for r in 0..n {
        for c in 0..n {
            seq.set(r, c, (r * n + c) as u64).unwrap();
            conc.set(r, c, (r * n + c) as u64).unwrap();
        }
    }
    let src = Region::new("s", 0, 0, RegionShape::Block { rows: 32, cols: 64 });
    let dst = Region::new("d", 32, 0, RegionShape::Block { rows: 32, cols: 64 });
    seq.copy_region(0, &src, &dst).unwrap();
    // Reuse one scratch buffer across two bursts: steady state allocates
    // nothing beyond the first call.
    let mut scratch = Vec::new();
    conc.copy_region_with(&src, &dst, &mut scratch).unwrap();
    conc.copy_region_with(&src, &dst, &mut scratch).unwrap();
    for r in 0..n {
        for c in 0..n {
            assert_eq!(seq.get(r, c).unwrap(), conc.get(r, c).unwrap(), "({r},{c})");
        }
    }
}

/// Readers racing a copy observe whole copies: every `read_region(dst)`
/// is uniform — the pre-copy zeros or one of the two source fills, never a
/// mix of them.
#[test]
fn racing_reader_sees_no_torn_writes() {
    let cfg = PolyMemConfig::new(ROWS, COLS, 2, 4, AccessScheme::RoCo, 4).unwrap();
    let conc = ConcurrentPolyMem::<u64>::new(cfg).unwrap();
    let src1 = Region::new("s1", 0, 0, RegionShape::Block { rows: 4, cols: 8 });
    let src2 = Region::new("s2", 0, 8, RegionShape::Block { rows: 4, cols: 8 });
    let dst = Region::new("d", 8, 0, RegionShape::Block { rows: 4, cols: 8 });
    for r in 0..4 {
        for c in 0..8 {
            conc.set(r, c, 7).unwrap();
            conc.set(r, 8 + c, 13).unwrap();
        }
    }
    let bad = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            for k in 0..300 {
                let from = if k % 2 == 0 { &src1 } else { &src2 };
                conc.copy_region(from, &dst).unwrap();
            }
        });
        s.spawn(|| {
            for _ in 0..300 {
                let got = conc.read_region(&dst).unwrap();
                if ![0, 7, 13].contains(&got[0]) || got.iter().any(|&v| v != got[0]) {
                    bad.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        });
    });
    assert_eq!(bad.load(std::sync::atomic::Ordering::Relaxed), 0);
    // The writer finished last on an alternating fill: dst is uniform.
    let last = conc.read_region(&dst).unwrap();
    assert!(last.iter().all(|&v| v == last[0]), "{last:?}");
}

/// Telemetry counters are exact under concurrency: two threads hammering
/// disjoint burst copies must land *every* increment (the counters are
/// real read-modify-write atomics, unlike the sequential memory's
/// single-writer fast path), and the per-bank samples must come out
/// uniform — the conflict-freedom theorem made observable.
#[test]
fn concurrent_copies_produce_exact_deterministic_counts() {
    let cfg = PolyMemConfig::new(ROWS, COLS, 2, 4, AccessScheme::RoCo, 4).unwrap();
    let mut conc = ConcurrentPolyMem::<u64>::new(cfg).unwrap();
    let registry = TelemetryRegistry::new();
    conc.attach_telemetry(&registry);
    let src = Region::new("s", 0, 0, RegionShape::Block { rows: 4, cols: 8 });
    let d1 = Region::new("d1", 8, 0, RegionShape::Block { rows: 4, cols: 8 });
    let d2 = Region::new("d2", 12, 8, RegionShape::Block { rows: 4, cols: 8 });
    const ITERS: u64 = 50;
    std::thread::scope(|s| {
        let m = &conc;
        s.spawn(|| {
            for _ in 0..ITERS {
                m.copy_region(&src, &d1).unwrap();
            }
        });
        s.spawn(|| {
            for _ in 0..ITERS {
                m.copy_region(&src, &d2).unwrap();
            }
        });
    });
    let snap = registry.snapshot();
    let count = |name: &str| snap.counter_value(name, &[]).unwrap();
    // Each copy moves a 32-element region in 4 conflict-free accesses
    // (p*q = 8 lanes), read side and write side both.
    let copies = 2 * ITERS;
    let (len, accesses) = (32, 4);
    assert_eq!(count("polymem_conc_elements_read_total"), copies * len);
    assert_eq!(count("polymem_conc_elements_written_total"), copies * len);
    assert_eq!(count("polymem_conc_reads_total"), copies * accesses);
    assert_eq!(count("polymem_conc_writes_total"), copies * accesses);
    assert_eq!(
        count("polymem_conc_conflicts_avoided_total"),
        copies * 2 * (len - accesses)
    );
    // Per-bank: every bank saw exactly `accesses` elements per direction
    // per copy — identical across banks, or the cover was not uniform.
    for b in 0..8u32 {
        let v = snap
            .counter_value(
                "polymem_conc_bank_elements_total",
                &[("bank", &b.to_string())],
            )
            .unwrap();
        assert_eq!(v, copies * 2 * accesses, "bank {b}");
    }
}

/// Two burst copies into disjoint destinations running concurrently end
/// in the same state as running them sequentially.
#[test]
fn concurrent_disjoint_copies_match_sequential() {
    let (mut seq, conc) = filled_pair(AccessScheme::RoCo);
    let src = Region::new("s", 0, 0, RegionShape::Block { rows: 4, cols: 8 });
    let d1 = Region::new("d1", 8, 0, RegionShape::Block { rows: 4, cols: 8 });
    let d2 = Region::new("d2", 12, 8, RegionShape::Block { rows: 4, cols: 8 });
    seq.copy_region(0, &src, &d1).unwrap();
    seq.copy_region(0, &src, &d2).unwrap();
    std::thread::scope(|s| {
        s.spawn(|| conc.copy_region(&src, &d1).unwrap());
        s.spawn(|| conc.copy_region(&src, &d2).unwrap());
    });
    for r in 0..ROWS {
        for c in 0..COLS {
            assert_eq!(seq.get(r, c).unwrap(), conc.get(r, c).unwrap(), "({r},{c})");
        }
    }
}
