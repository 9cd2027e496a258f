//! Plan linting: every compilable `AccessPlan` / `RegionPlan` is proven to
//! be a true permutation, and the compile gates are proven sound.
//!
//! By the same periodicity argument as the scheme proof, the plan universe
//! is finite: per (scheme, geometry) there are `(p*q)²` access classes per
//! claimed pattern and the same again per region shape. This module
//! compiles all of them through the production caches and, for each:
//!
//! * re-proves the permutation structure via [`AccessPlan::validate`] /
//!   [`RegionPlan::validate`] (in-bounds gather/scatter slots, bank-disjoint
//!   lanes per cycle, `afold` bijective onto the canonical order, run
//!   tables tiling the fold map);
//! * cross-checks every cached lane against the ground-truth model (MAF
//!   bank + addressing function), decoding each fold slot through the
//!   plan's layout, so a corrupted cache entry cannot hide behind
//!   self-consistency;
//! * asserts cache keys stay collision-free (distinct classes map to
//!   distinct keys) and reports raw 64-bit hash collisions of the
//!   fast-path hasher as info;
//! * asserts the compile *gates* are sound: unclaimed patterns and
//!   misaligned RoCo rectangles must fail to compile as regions;
//! * exercises the `RegionPlanCache` LRU cap and verifies eviction
//!   accounting (the satellite bound on an otherwise unbounded key space).

use crate::findings::{Finding, Severity};
use crate::schemes::GEOMETRIES;
use polymem::plan::PlanKeyHasher;
use polymem::{
    AccessPattern, AccessScheme, AddressingFunction, Agu, BankLayout, ModuleAssignment,
    ParallelAccess, PlanCache, PlanKey, PolyMemError, Region, RegionPlan, RegionPlanCache,
    RegionPlanCacheStats, RegionShape,
};
use std::collections::HashMap;
use std::hash::Hasher;

/// Aggregate numbers from the plan lint, for the report.
#[derive(Debug, Clone, Default)]
pub struct PlansOutput {
    /// Access plans compiled and validated.
    pub access_plans: u64,
    /// Region plans compiled and validated.
    pub region_plans: u64,
    /// Distinct plan keys enumerated.
    pub keys: u64,
    /// Raw 64-bit hash collisions among distinct keys (info only — the
    /// cache is a `HashMap`, collisions cost probes, not correctness).
    pub hash_collisions: u64,
    /// Stats of the LRU-cap exercise cache.
    pub lru_stats: Option<RegionPlanCacheStats>,
}

fn hash_key(key: &PlanKey) -> u64 {
    use std::hash::Hash;
    let mut h = PlanKeyHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// Region shapes that realize `pattern` at two sizes (one and two accesses
/// per row of the decomposition). Transposed rectangles have no region
/// shape and return an empty list.
fn shapes_for(pattern: AccessPattern, p: usize, q: usize) -> Vec<RegionShape> {
    let n = p * q;
    match pattern {
        AccessPattern::Rectangle => vec![
            RegionShape::Block { rows: p, cols: q },
            RegionShape::Block {
                rows: 2 * p,
                cols: 2 * q,
            },
        ],
        AccessPattern::Row => vec![RegionShape::Row { len: n }, RegionShape::Row { len: 2 * n }],
        AccessPattern::Column => vec![RegionShape::Col { len: n }, RegionShape::Col { len: 2 * n }],
        AccessPattern::MainDiagonal => vec![
            RegionShape::MainDiag { len: n },
            RegionShape::MainDiag { len: 2 * n },
        ],
        AccessPattern::SecondaryDiagonal => vec![
            RegionShape::SecondaryDiag { len: n },
            RegionShape::SecondaryDiag { len: 2 * n },
        ],
        AccessPattern::TransposedRectangle => Vec::new(),
    }
}

/// Ground-truth cross-check of one compiled region replayed at `region`:
/// canonical element `c` must gather from exactly the MAF's bank and the
/// addressing function's intra-bank address, both decoded from its fold
/// slot through the plan's layout. Returns the first divergence.
fn model_divergence(
    plan: &RegionPlan,
    region: &Region,
    maf: &ModuleAssignment,
    afn: &AddressingFunction,
    depth: usize,
) -> Option<String> {
    let fbase = plan.flat_base(afn.address(region.i, region.j) as isize);
    let coords = region.coords_iter().expect("validated region");
    for ((c, (i, j)), &f) in coords.enumerate().zip(&plan.fold) {
        let slot = (fbase + f) as usize;
        let bank = plan.layout.bank_of(slot, plan.lanes, depth);
        let addr = plan.layout.addr_of(slot, plan.lanes, depth);
        let (want_bank, want_addr) = (maf.assign_linear(i, j), afn.address(i, j));
        if bank != want_bank || addr != want_addr {
            return Some(format!(
                "element {c} at ({i},{j}) gathers from bank {bank} addr {addr}, model \
                 wants bank {want_bank} addr {want_addr}"
            ));
        }
    }
    None
}

/// Verify every access-plan class of one (scheme, geometry).
#[allow(clippy::too_many_arguments)]
fn check_access_plans(
    scheme: AccessScheme,
    p: usize,
    q: usize,
    agu: &Agu,
    maf: &ModuleAssignment,
    afn: &AddressingFunction,
    depth: usize,
    out: &mut PlansOutput,
    findings: &mut Vec<Finding>,
) {
    let n = p * q;
    let mut cache = PlanCache::new(n, depth);
    let mut hashes: HashMap<u64, u64> = HashMap::new();
    for pattern in scheme.supported_patterns(p, q) {
        for ri in 0..n {
            for rj in 0..n {
                if scheme.requires_alignment(pattern) && (ri % p != 0 || rj % q != 0) {
                    continue;
                }
                let j0 = if pattern == AccessPattern::SecondaryDiagonal {
                    rj + n
                } else {
                    rj
                };
                let access = ParallelAccess::new(ri, j0, pattern);
                let at = format!("{scheme} {pattern} {p}x{q} class ({ri},{rj})");
                let key = PlanKey::of(access, n);
                *hashes.entry(hash_key(&key)).or_insert(0) += 1;
                out.keys += 1;
                let plan = match cache.get_or_compile(access, agu, maf, afn) {
                    Ok(plan) => plan.clone(),
                    Err(e) => {
                        findings.push(Finding::new(
                            "plans",
                            Severity::Error,
                            "compile-failed",
                            at,
                            format!("claimed class failed to compile: {e}"),
                        ));
                        continue;
                    }
                };
                out.access_plans += 1;
                if let Err(e) = plan.validate(depth) {
                    findings.push(Finding::new(
                        "plans",
                        Severity::Error,
                        "plan-corrupt",
                        at.clone(),
                        format!("compiled plan failed structural validation: {e}"),
                    ));
                    continue;
                }
                // Ground-truth cross-check at two representatives of the
                // class: the cached routing must equal MAF + addressing
                // function lane for lane, and stay in storage bounds.
                for shift in [0usize, n] {
                    let (i0, j0) = (access.i + shift, access.j + shift);
                    let base = afn.address(i0, j0) as isize;
                    let total = (n * depth) as isize;
                    for (k, &fold) in plan.fold.iter().enumerate() {
                        let abs = base + fold;
                        let (ik, jk) = crate::schemes::pattern_coords(pattern, i0, j0, p, q)[k];
                        let want_bank = maf.assign_linear(ik, jk) as isize;
                        let want_addr = afn.address(ik, jk) as isize;
                        if abs < 0
                            || abs >= total
                            || abs / depth as isize != want_bank
                            || abs % depth as isize != want_addr
                        {
                            findings.push(Finding::new(
                                "plans",
                                Severity::Error,
                                "plan-model-divergence",
                                at.clone(),
                                format!(
                                    "lane {k} at origin ({i0},{j0}) gathers slot {abs}, \
                                     but the model wants bank {want_bank} address {want_addr}"
                                ),
                            ));
                            break;
                        }
                    }
                }
            }
        }
    }
    for (&h, &count) in &hashes {
        if count > 1 {
            out.hash_collisions += count - 1;
            findings.push(Finding::new(
                "plans",
                Severity::Info,
                "hash-collision",
                format!("{scheme} {p}x{q}"),
                format!("{count} distinct plan keys share 64-bit hash {h:#x}"),
            ));
        }
    }
}

/// Verify every region-plan class of one (scheme, geometry), plus the
/// soundness of the compile gates (unsupported / misaligned must fail).
#[allow(clippy::too_many_arguments)]
fn check_region_plans(
    scheme: AccessScheme,
    p: usize,
    q: usize,
    agu: &Agu,
    maf: &ModuleAssignment,
    afn: &AddressingFunction,
    depth: usize,
    out: &mut PlansOutput,
    findings: &mut Vec<Finding>,
) {
    let n = p * q;
    let mut acc_cache = PlanCache::new(n, depth);
    let mut cache = RegionPlanCache::new(n);
    let claims = scheme.supported_patterns(p, q);
    for pattern in AccessPattern::ALL {
        let claimed = claims.contains(&pattern);
        for shape in shapes_for(pattern, p, q) {
            if !claimed {
                // Gate soundness: an unclaimed pattern must not compile.
                let region = Region::new("gate", 0, shape_min_j(shape), shape);
                match cache.get_or_compile(&region, scheme, agu, maf, afn, &mut acc_cache) {
                    Err(PolyMemError::UnsupportedPattern { .. }) => {}
                    Err(other) => findings.push(Finding::new(
                        "plans",
                        Severity::Warning,
                        "gate-wrong-error",
                        format!("{scheme} {pattern} {p}x{q}"),
                        format!("unclaimed pattern rejected with unexpected error: {other}"),
                    )),
                    Ok(_) => findings.push(Finding::new(
                        "plans",
                        Severity::Error,
                        "unsound-gate",
                        format!("{scheme} {pattern} {p}x{q}"),
                        "region of an unclaimed pattern compiled successfully",
                    )),
                }
                continue;
            }
            for ri in 0..n {
                for rj in 0..n {
                    let aligned = ri % p == 0 && rj % q == 0;
                    if scheme.requires_alignment(pattern) && !aligned {
                        // Gate soundness: misaligned origins must fail.
                        let region = Region::new("mis", ri, rj, shape);
                        if cache
                            .get_or_compile(&region, scheme, agu, maf, afn, &mut acc_cache)
                            .is_ok()
                        {
                            findings.push(Finding::new(
                                "plans",
                                Severity::Error,
                                "unsound-gate",
                                format!("{scheme} {pattern} {p}x{q} class ({ri},{rj})"),
                                "misaligned region compiled despite the alignment restriction",
                            ));
                        }
                        continue;
                    }
                    let j0 = if pattern == AccessPattern::SecondaryDiagonal {
                        rj + 2 * n
                    } else {
                        rj
                    };
                    let region = Region::new("v", ri, j0, shape);
                    let at = format!("{scheme} {pattern} {p}x{q} shape {shape:?} ({ri},{rj})");
                    let plan = match cache.get_or_compile(
                        &region,
                        scheme,
                        agu,
                        maf,
                        afn,
                        &mut acc_cache,
                    ) {
                        Ok(plan) => plan,
                        Err(e) => {
                            findings.push(Finding::new(
                                "plans",
                                Severity::Error,
                                "compile-failed",
                                at,
                                format!("claimed region class failed to compile: {e}"),
                            ));
                            continue;
                        }
                    };
                    out.region_plans += 1;
                    let base = afn.address(region.i, region.j) as isize;
                    if let Err(e) = plan.validate(base, depth) {
                        findings.push(Finding::new(
                            "plans",
                            Severity::Error,
                            "plan-corrupt",
                            at.clone(),
                            format!("compiled region plan failed structural validation: {e}"),
                        ));
                        continue;
                    }
                    if let Some(why) = model_divergence(&plan, &region, maf, afn, depth) {
                        findings.push(Finding::new(
                            "plans",
                            Severity::Error,
                            "plan-model-divergence",
                            at,
                            why,
                        ));
                    }
                }
            }
        }
    }
    let stats = cache.stats();
    if stats.evictions > 0 {
        findings.push(Finding::new(
            "plans",
            Severity::Warning,
            "unexpected-eviction",
            format!("{scheme} {p}x{q}"),
            format!(
                "verification working set ({} entries) overflowed the default \
                 region cache capacity {}",
                stats.entries, stats.capacity
            ),
        ));
    }
}

/// The plan proof under the alternate backing layout: compile every region
/// class of one geometry against `AddrInterleaved` storage, re-prove the
/// full structural invariant set — including that the motif-run table
/// still exactly tiles the (re-segmented) fold map — and cross-check every
/// element against the ground-truth model. The main sweep covers
/// `BankMajor`; this keeps the other layout's coalescing pass honest
/// without doubling the lint's runtime across all geometries.
fn check_interleaved_layout(out: &mut PlansOutput, findings: &mut Vec<Finding>) {
    let (p, q) = (2usize, 4usize);
    let n = p * q;
    let (rows, cols) = (4 * n, 4 * n);
    let depth = (rows / p) * (cols / q);
    let agu = Agu::new(p, q, rows, cols);
    let afn = AddressingFunction::new(p, q, rows, cols);
    for scheme in AccessScheme::ALL {
        let Ok(maf) = ModuleAssignment::try_new(scheme, p, q) else {
            continue;
        };
        let mut acc_cache = PlanCache::with_layout(n, depth, BankLayout::AddrInterleaved);
        let mut cache = RegionPlanCache::new(n);
        for pattern in scheme.supported_patterns(p, q) {
            for shape in shapes_for(pattern, p, q) {
                for ri in 0..n {
                    for rj in 0..n {
                        if scheme.requires_alignment(pattern) && (ri % p != 0 || rj % q != 0) {
                            continue;
                        }
                        let j0 = if pattern == AccessPattern::SecondaryDiagonal {
                            rj + 2 * n
                        } else {
                            rj
                        };
                        let region = Region::new("il", ri, j0, shape);
                        let at = format!(
                            "interleaved {scheme} {pattern} {p}x{q} shape {shape:?} ({ri},{rj})"
                        );
                        match cache.get_or_compile(
                            &region,
                            scheme,
                            &agu,
                            &maf,
                            &afn,
                            &mut acc_cache,
                        ) {
                            Ok(plan) => {
                                out.region_plans += 1;
                                let base = afn.address(region.i, region.j) as isize;
                                if let Err(e) = plan.validate(base, depth) {
                                    findings.push(Finding::new(
                                        "plans",
                                        Severity::Error,
                                        "plan-corrupt",
                                        at,
                                        format!(
                                            "interleaved-layout plan failed structural \
                                             validation: {e}"
                                        ),
                                    ));
                                } else if let Some(why) =
                                    model_divergence(&plan, &region, &maf, &afn, depth)
                                {
                                    findings.push(Finding::new(
                                        "plans",
                                        Severity::Error,
                                        "plan-model-divergence",
                                        at,
                                        why,
                                    ));
                                }
                            }
                            Err(e) => findings.push(Finding::new(
                                "plans",
                                Severity::Error,
                                "compile-failed",
                                at,
                                format!(
                                    "claimed class failed to compile under the \
                                         interleaved layout: {e}"
                                ),
                            )),
                        }
                    }
                }
            }
        }
    }
}

/// Smallest origin column at which `shape` is representable (secondary
/// diagonals need room to walk left).
fn shape_min_j(shape: RegionShape) -> usize {
    match shape {
        RegionShape::SecondaryDiag { len } => len.saturating_sub(1),
        _ => 0,
    }
}

/// Exercise the `RegionPlanCache` capacity bound: more shape classes than
/// capacity must trigger LRU evictions with exact entry/byte accounting.
fn check_lru_cap(findings: &mut Vec<Finding>) -> RegionPlanCacheStats {
    let (p, q) = (2usize, 4usize);
    let n = p * q;
    let capacity = 4;
    // Wide enough for the longest exercised row (3 * capacity * n).
    let (rows, cols) = (8 * n, 3 * capacity * n);
    let agu = Agu::new(p, q, rows, cols);
    let maf = ModuleAssignment::new(AccessScheme::ReRo, p, q);
    let afn = AddressingFunction::new(p, q, rows, cols);
    let depth = (rows / p) * (cols / q);
    let mut acc_cache = PlanCache::new(n, depth);
    let mut cache = RegionPlanCache::with_capacity(n, capacity);
    for size in 1..=3 * capacity {
        let region = Region::new("lru", 0, 0, RegionShape::Row { len: size * n });
        if let Err(e) = cache.get_or_compile(
            &region,
            AccessScheme::ReRo,
            &agu,
            &maf,
            &afn,
            &mut acc_cache,
        ) {
            findings.push(Finding::new(
                "plans",
                Severity::Error,
                "compile-failed",
                format!("LRU exercise size {size}"),
                format!("{e}"),
            ));
        }
    }
    let stats = cache.stats();
    if stats.entries > capacity
        || stats.capacity != capacity
        || stats.evictions != (3 * capacity - capacity) as u64
    {
        findings.push(Finding::new(
            "plans",
            Severity::Error,
            "cache-eviction-broken",
            "RegionPlanCache LRU exercise",
            format!(
                "expected <= {capacity} entries and {} evictions, got {} entries, \
                 {} evictions",
                3 * capacity - capacity,
                stats.entries,
                stats.evictions
            ),
        ));
    }
    // Byte accounting must equal the sum over resident plans; an easy way
    // to check without reaching into the map is to clear and re-add one.
    let mut fresh = RegionPlanCache::with_capacity(n, capacity);
    let region = Region::new("b", 0, 0, RegionShape::Row { len: n });
    let plan = fresh
        .get_or_compile(
            &region,
            AccessScheme::ReRo,
            &agu,
            &maf,
            &afn,
            &mut acc_cache,
        )
        .expect("row region compiles");
    if fresh.stats().bytes != plan.heap_bytes() as u64 {
        findings.push(Finding::new(
            "plans",
            Severity::Error,
            "cache-eviction-broken",
            "RegionPlanCache byte accounting",
            format!(
                "one resident plan of {} bytes but cache reports {}",
                plan.heap_bytes(),
                fresh.stats().bytes
            ),
        ));
    }
    stats
}

/// Run the full plan lint over [`GEOMETRIES`].
pub fn run(findings: &mut Vec<Finding>) -> PlansOutput {
    let mut out = PlansOutput::default();
    for &(p, q) in GEOMETRIES {
        let n = p * q;
        let (rows, cols) = (4 * n, 4 * n);
        let depth = (rows / p) * (cols / q);
        let agu = Agu::new(p, q, rows, cols);
        let afn = AddressingFunction::new(p, q, rows, cols);
        for scheme in AccessScheme::ALL {
            let Ok(maf) = ModuleAssignment::try_new(scheme, p, q) else {
                continue;
            };
            check_access_plans(scheme, p, q, &agu, &maf, &afn, depth, &mut out, findings);
            check_region_plans(scheme, p, q, &agu, &maf, &afn, depth, &mut out, findings);
        }
    }
    check_interleaved_layout(&mut out, findings);
    out.lru_stats = Some(check_lru_cap(findings));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_plan_lint_is_clean() {
        let mut findings = Vec::new();
        let out = run(&mut findings);
        let errors: Vec<_> = findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "unexpected errors: {errors:#?}");
        assert!(out.access_plans > 1000, "swept {} plans", out.access_plans);
        assert!(out.region_plans > 1000, "swept {} plans", out.region_plans);
        let lru = out.lru_stats.unwrap();
        assert!(lru.evictions > 0, "LRU exercise must evict");
    }

    #[test]
    fn corrupted_region_plan_is_caught_by_validate() {
        // The plans half of --inject in miniature.
        let (p, q) = (2usize, 4usize);
        let n = p * q;
        let agu = Agu::new(p, q, 4 * n, 4 * n);
        let maf = ModuleAssignment::new(AccessScheme::ReRo, p, q);
        let afn = AddressingFunction::new(p, q, 4 * n, 4 * n);
        let depth = (4 * n / p) * (4 * n / q);
        let mut acc = PlanCache::new(n, depth);
        let region = Region::new("x", 1, 2, RegionShape::Row { len: 2 * n });
        let plan =
            polymem::RegionPlan::compile(&region, AccessScheme::ReRo, &agu, &maf, &afn, &mut acc)
                .unwrap();
        let base = afn.address(region.i, region.j) as isize;
        plan.validate(base, depth).unwrap();
        // A pure swap keeps fold's multiset, but the motif-run table no
        // longer expands to it.
        let mut bad = plan.clone();
        bad.fold.swap(0, 1);
        assert!(bad.validate(base, depth).is_err());
    }
}
