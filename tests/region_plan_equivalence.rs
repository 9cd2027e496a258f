//! Region plans == the per-access path: a compiled whole-region transfer
//! must be bit-identical to issuing the region's parallel accesses one by
//! one — values in canonical order AND errors (out-of-bounds extents,
//! unsupported patterns under the scheme, misaligned RoCo blocks, ragged
//! shapes, the secondary diagonal's leftward under-run).
//!
//! The per-access path is the oracle: `set_region_planning(false)` forces
//! it on `PolyMem`; `ConcurrentPolyMem` region reads are checked against
//! the single-threaded result.

use polymem::{
    AccessScheme, BankLayout, ConcurrentPolyMem, PolyMem, PolyMemConfig, Region, RegionShape,
};
use proptest::prelude::*;

/// Geometries with both orientations so tile addressing is exercised.
const GEOMS: [(usize, usize); 3] = [(2, 4), (4, 2), (2, 2)];

fn build(scheme: AccessScheme, p: usize, q: usize) -> PolyMem<u64> {
    build_in(scheme, p, q, BankLayout::BankMajor)
}

fn build_in(scheme: AccessScheme, p: usize, q: usize, layout: BankLayout) -> PolyMem<u64> {
    let n = p * q;
    let (rows, cols) = (4 * n, 4 * n);
    let cfg = PolyMemConfig::new(rows, cols, p, q, scheme, 2)
        .unwrap()
        .with_layout(layout);
    let mut m = PolyMem::new(cfg).unwrap();
    let data: Vec<u64> = (0..(rows * cols) as u64)
        .map(|k| {
            k.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left((k % 63) as u32)
        })
        .collect();
    m.load_row_major(&data).unwrap();
    m
}

/// Every region shape at a given origin/size, including ragged sizes that
/// don't tile the bank grid and lengths that over-run the space.
fn shapes(len: usize, rows: usize, cols: usize) -> Vec<RegionShape> {
    vec![
        RegionShape::Block {
            rows: len.min(rows),
            cols: len.min(cols),
        },
        RegionShape::Block { rows: 3, cols: len }, // ragged in i unless p | 3
        RegionShape::Row { len },
        RegionShape::Col { len },
        RegionShape::MainDiag { len },
        RegionShape::SecondaryDiag { len },
    ]
}

fn assert_parity(m: &mut PolyMem<u64>, region: &Region, ctx: &str) {
    m.set_region_planning(true);
    let planned = m.read_region(0, region);
    m.set_region_planning(false);
    let oracle = m.read_region(0, region);
    m.set_region_planning(true);
    match (&planned, &oracle) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{ctx}: value mismatch"),
        (Err(ea), Err(eb)) => assert_eq!(
            std::mem::discriminant(ea),
            std::mem::discriminant(eb),
            "{ctx}: error kind mismatch — planned {ea:?} vs oracle {eb:?}"
        ),
        _ => panic!("{ctx}: parity broken — planned {planned:?} vs oracle {oracle:?}"),
    }
}

/// Exhaustive: every scheme x geometry x shape kind x every origin in and
/// slightly beyond bounds, aligned and ragged. Small spaces keep the full
/// product cheap enough to run on every test invocation.
#[test]
fn region_planned_equals_per_access_exhaustive() {
    for scheme in AccessScheme::ALL {
        for (p, q) in GEOMS {
            let mut m = build(scheme, p, q);
            let (rows, cols) = (m.config().rows, m.config().cols);
            let n = p * q;
            for shape in shapes(2 * n, rows, cols) {
                for i in (0..rows + n).step_by(1.max(n / 2)) {
                    for j in (0..cols + n).step_by(1.max(n / 2)) {
                        let r = Region::new("t", i, j, shape);
                        let ctx = format!("{scheme} {shape:?} @({i},{j}) {p}x{q}");
                        assert_parity(&mut m, &r, &ctx);
                    }
                }
            }
        }
    }
}

/// Every residue class compiles exactly once: sweeping one shape over all
/// origins produces at most `N x N` compiles (N = p*q), everything else
/// replays from the cache.
#[test]
fn each_residue_class_compiles_exactly_once() {
    let mut m = build(AccessScheme::ReRo, 2, 4);
    let (rows, cols) = (m.config().rows, m.config().cols);
    m.clear_region_plans();
    // `build`'s load_row_major already compiled the whole-space plan;
    // clearing drops entries but the hit/miss counters are cumulative, so
    // compare deltas against this baseline.
    let base = m.region_plan_stats();
    let shape = RegionShape::Row { len: 8 };
    let mut successes = 0u64;
    for i in 0..rows {
        for j in 0..cols - 8 + 1 {
            if m.read_region(0, &Region::new("r", i, j, shape)).is_ok() {
                successes += 1;
            }
        }
    }
    let stats = m.region_plan_stats();
    // Row accesses need j aligned to nothing under ReRo, so all (i%8, j%8)
    // classes appear: exactly 64 compiles, every other read a pure hit.
    assert_eq!(stats.misses - base.misses, 64, "{stats:?}");
    assert_eq!(
        (stats.hits - base.hits) + (stats.misses - base.misses),
        successes,
        "{stats:?}"
    );
    assert!(stats.hits > stats.misses * 5, "{stats:?}");
    assert!(stats.bytes > 0, "{stats:?}");

    // Second sweep: zero additional compiles.
    for i in 0..rows {
        let _ = m.read_region(0, &Region::new("r", i, 0, shape));
    }
    assert_eq!(m.region_plan_stats().misses - base.misses, 64);
}

/// ConcurrentPolyMem's region reads agree with the single-threaded
/// planned path, shape by shape, under both bank layouts.
#[test]
fn concurrent_region_reads_match_single_threaded() {
    let layouts = [BankLayout::BankMajor, BankLayout::AddrInterleaved];
    for (scheme, layout) in [AccessScheme::ReRo, AccessScheme::RoCo]
        .into_iter()
        .flat_map(|s| layouts.map(|l| (s, l)))
    {
        let mut single = build_in(scheme, 2, 4, layout);
        let (rows, cols) = (single.config().rows, single.config().cols);
        let cfg = PolyMemConfig::new(rows, cols, 2, 4, scheme, 4)
            .unwrap()
            .with_layout(layout);
        let conc = ConcurrentPolyMem::<u64>::new(cfg).unwrap();
        for i in 0..rows {
            for j in 0..cols {
                conc.set(i, j, single.get(i, j).unwrap()).unwrap();
            }
        }
        let regions = [
            Region::new("big", 0, 0, RegionShape::Block { rows, cols }),
            Region::new("block", 2, 8, RegionShape::Block { rows: 4, cols: 8 }),
            Region::new("row", 5, 0, RegionShape::Row { len: cols }),
            Region::new("col", 0, 3, RegionShape::Col { len: rows }),
            Region::new("diag", 1, 2, RegionShape::MainDiag { len: 8 }),
            Region::new("sdiag", 0, 15, RegionShape::SecondaryDiag { len: 8 }),
        ];
        for r in regions {
            let a = single.read_region(0, &r);
            let b = conc.read_region(&r);
            match (&a, &b) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "{scheme} {layout:?} {}", r.name),
                (Err(ea), Err(eb)) => assert_eq!(
                    std::mem::discriminant(ea),
                    std::mem::discriminant(eb),
                    "{scheme} {layout:?} {}: {ea:?} vs {eb:?}",
                    r.name
                ),
                _ => panic!("{scheme} {layout:?} {}: {a:?} vs {b:?}", r.name),
            }
        }
    }
}

/// Concurrent region writes land identically to single-threaded ones,
/// under both bank layouts.
#[test]
fn concurrent_region_writes_match_single_threaded() {
    for layout in [BankLayout::BankMajor, BankLayout::AddrInterleaved] {
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 2)
            .unwrap()
            .with_layout(layout);
        let mut single = PolyMem::<u64>::new(cfg).unwrap();
        let conc = ConcurrentPolyMem::<u64>::new(cfg).unwrap();
        let r = Region::new("b", 4, 0, RegionShape::Block { rows: 4, cols: 16 });
        let vals: Vec<u64> = (0..r.len() as u64).map(|k| k * 7 + 3).collect();
        single.write_region(&r, &vals).unwrap();
        conc.write_region(&r, &vals).unwrap();
        for i in 0..16 {
            for j in 0..16 {
                assert_eq!(
                    single.get(i, j).unwrap(),
                    conc.get(i, j).unwrap(),
                    "{layout:?} ({i},{j})"
                );
            }
        }
    }
}

/// copy_region parity: the fused plan-to-plan copy equals the per-access
/// interleaved copy, including overlapping source/destination.
#[test]
fn copy_region_planned_equals_per_access() {
    let shapes = [
        (
            RegionShape::Block { rows: 4, cols: 8 },
            RegionShape::Block { rows: 4, cols: 8 },
            (0usize, 0usize),
            (8usize, 8usize),
        ),
        // Overlapping rows: src and dst share elements.
        (
            RegionShape::Row { len: 16 },
            RegionShape::Row { len: 16 },
            (3, 0),
            (3, 0),
        ),
        (
            RegionShape::Row { len: 8 },
            RegionShape::Col { len: 8 },
            (0, 0),
            (0, 0),
        ),
    ];
    // The first case's source and destination share a residue class, so
    // the planned copy takes the store-run `copy_within` path.
    for layout in [BankLayout::BankMajor, BankLayout::AddrInterleaved] {
        for (ss, ds, (si, sj), (di, dj)) in shapes {
            let mut a = build_in(AccessScheme::ReRo, 2, 4, layout);
            let mut b = build_in(AccessScheme::ReRo, 2, 4, layout);
            b.set_region_planning(false);
            let src_a = Region::new("s", si, sj, ss);
            let dst_a = Region::new("d", di, dj, ds);
            let ra = a.copy_region(0, &src_a, &dst_a);
            let rb = b.copy_region(0, &src_a, &dst_a);
            assert_eq!(ra.is_ok(), rb.is_ok(), "{layout:?} {ss:?}->{ds:?}");
            let (rows, cols) = (a.config().rows, a.config().cols);
            for i in 0..rows {
                for j in 0..cols {
                    assert_eq!(
                        a.get(i, j).unwrap(),
                        b.get(i, j).unwrap(),
                        "{layout:?} {ss:?}->{ds:?} ({i},{j})"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Randomized origins/lengths across all schemes and shape kinds:
    /// planned and per-access region reads agree on values and error kinds.
    #[test]
    fn region_parity_random(
        scheme_ix in 0usize..5,
        geom_ix in 0usize..GEOMS.len(),
        kind in 0usize..6,
        i in 0usize..40,
        j in 0usize..40,
        len in 1usize..24,
    ) {
        let scheme = AccessScheme::ALL[scheme_ix];
        let (p, q) = GEOMS[geom_ix];
        let mut m = build(scheme, p, q);
        let shape = match kind {
            0 => RegionShape::Block { rows: len, cols: len },
            1 => RegionShape::Block { rows: len, cols: 8 },
            2 => RegionShape::Row { len },
            3 => RegionShape::Col { len },
            4 => RegionShape::MainDiag { len },
            _ => RegionShape::SecondaryDiag { len },
        };
        let r = Region::new("prop", i, j, shape);
        let ctx = format!("{scheme} {shape:?} @({i},{j}) {p}x{q}");
        assert_parity(&mut m, &r, &ctx);
    }

    /// Randomized write_region parity: planned scatter lands exactly where
    /// the per-access scatter does.
    #[test]
    fn region_write_parity_random(
        i in 0usize..16,
        j in 0usize..16,
        len in 1usize..16,
        seed in any::<u64>(),
    ) {
        let cfg = PolyMemConfig::new(32, 32, 2, 4, AccessScheme::ReRo, 1).unwrap();
        let mut planned = PolyMem::<u64>::new(cfg).unwrap();
        let mut oracle = PolyMem::<u64>::new(cfg).unwrap();
        oracle.set_region_planning(false);
        let r = Region::new("w", i, j, RegionShape::Row { len });
        if !r.is_empty() {
            let vals: Vec<u64> = (0..r.len() as u64).map(|k| k ^ seed).collect();
            let a = planned.write_region(&r, &vals);
            let b = oracle.write_region(&r, &vals);
            prop_assert_eq!(a.is_ok(), b.is_ok());
            for ii in 0..32 {
                for jj in 0..32 {
                    prop_assert_eq!(
                        planned.get(ii, jj).unwrap(),
                        oracle.get(ii, jj).unwrap()
                    );
                }
            }
        }
    }
}
