//! Plan linting: every compilable plan — one-access and region — is proven
//! to be a true permutation, and the compile gates are proven sound.
//!
//! By the same periodicity argument as the scheme proof, the plan universe
//! is finite: per (scheme, geometry) there are `(p*q)²` access classes per
//! claimed pattern and the same again per region shape. This module
//! compiles all of them through the production [`PlanCache`] and, for each:
//!
//! * re-proves the permutation structure via [`RegionPlan::validate`]
//!   (run tables tiling the canonical order, in-bounds gather/scatter
//!   slots, an injective gather map, store runs tiling its image);
//! * re-proves that every access of the class lands its lanes in distinct
//!   banks: the accesses come from [`Region::plan_accesses`], each lane's
//!   canonical element from [`Region::canonical_index`], and its bank from
//!   the slot the run tables give that element;
//! * cross-checks every element against the ground-truth model (MAF bank +
//!   addressing function), decoding the slot its run gives it through the
//!   plan's layout, so a corrupted cache entry cannot hide behind
//!   self-consistency (a plan that swaps two lanes keeps its storage image
//!   and passes the structural proof; only this check sees it);
//! * asserts cache keys stay collision-free (distinct classes map to
//!   distinct keys) and reports raw 64-bit hash collisions of the
//!   fast-path hasher as info;
//! * asserts the compile *gates* are sound: unclaimed patterns and
//!   misaligned RoCo rectangles must fail to compile as regions;
//! * exercises the cache's region capacity cap and verifies eviction
//!   accounting (the bound on an otherwise unbounded key space).

use crate::findings::{Finding, Severity};
use crate::schemes::GEOMETRIES;
use polymem::plan::PlanKeyHasher;
use polymem::{
    AccessPattern, AccessScheme, AddressingFunction, Agu, BankLayout, ModuleAssignment,
    ParallelAccess, PlanCache, PlanCacheStats, PlanKey, PlanTarget, PolyMemError, Region,
    RegionPlan, RegionShape,
};
use std::collections::HashMap;
use std::hash::Hasher;

/// Aggregate numbers from the plan lint, for the report.
#[derive(Debug, Clone, Default)]
pub struct PlansOutput {
    /// One-access plans compiled and validated.
    pub access_plans: u64,
    /// Region plans compiled and validated.
    pub region_plans: u64,
    /// Distinct plan keys enumerated.
    pub keys: u64,
    /// Raw 64-bit hash collisions among distinct keys (info only — the
    /// cache is a `HashMap`, collisions cost probes, not correctness).
    pub hash_collisions: u64,
    /// Region stats of the capacity-cap exercise cache.
    pub cap_stats: Option<PlanCacheStats>,
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

/// Ground-truth cross-check of one compiled plan replayed at `(i0, j0)`:
/// canonical element `c`, at cell `coords[c]`, must gather from exactly the
/// MAF's bank and the addressing function's intra-bank address, both
/// decoded through the plan's layout from the slot its run gives it.
/// Returns the first divergence.
fn model_divergence(
    plan: &RegionPlan,
    (i0, j0): (usize, usize),
    coords: &[(usize, usize)],
    maf: &ModuleAssignment,
    afn: &AddressingFunction,
    depth: usize,
) -> Option<String> {
    let fbase = plan.flat_base(afn.address(i0, j0) as isize);
    for ((c, &(i, j)), f) in coords.iter().enumerate().zip(plan.offsets()) {
        let slot = usize::try_from(fbase + f).unwrap_or(usize::MAX);
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

/// Per-cycle bank disjointness of `plan`, compiled for `target` and
/// replayed at `target`'s origin: the lanes of each access `target`
/// decomposes into (a region's [`Region::plan_accesses`], or the access
/// itself) must sit in distinct banks, each lane's bank decoded through the
/// layout from the slot the run tables give its canonical element
/// ([`Region::canonical_index`]; an access's lane order is its canonical
/// order). Returns the first clash.
fn bank_clash(
    plan: &RegionPlan,
    target: PlanTarget<'_>,
    agu: &Agu,
    afn: &AddressingFunction,
    depth: usize,
) -> Option<String> {
    let (origin, accesses, region) = match target {
        PlanTarget::Access(a) => ((a.i, a.j), vec![a], None),
        PlanTarget::Region(r) => match r.plan_accesses(agu.p(), agu.q()) {
            Ok(accesses) => ((r.i, r.j), accesses, Some(r)),
            Err(e) => return Some(format!("region does not decompose into accesses: {e}")),
        },
    };
    let fbase = plan.flat_base(afn.address(origin.0, origin.1) as isize);
    let slots: Vec<isize> = plan.offsets().map(|f| fbase + f).collect();
    let mut owner = vec![usize::MAX; plan.lanes];
    for (a, &acc) in accesses.iter().enumerate() {
        let coords = match agu.expand(acc) {
            Ok(coords) => coords,
            Err(e) => return Some(format!("access {a} ({acc:?}) does not expand: {e}")),
        };
        owner.fill(usize::MAX);
        for (k, &(i, j)) in coords.iter().enumerate() {
            let c = match region {
                Some(r) => r.canonical_index(i, j),
                None => Some(k),
            };
            let Some(&slot) = c.and_then(|c| slots.get(c)) else {
                return Some(format!(
                    "access {a} lane {k} at ({i},{j}) has no element in the plan"
                ));
            };
            let bank = plan.layout.bank_of(slot as usize, plan.lanes, depth);
            match owner.get_mut(bank) {
                Some(o) if *o == usize::MAX => *o = k,
                Some(o) => {
                    return Some(format!(
                        "access {a} at ({},{}): lanes {} and {k} both in bank {bank}",
                        acc.i, acc.j, *o
                    ))
                }
                None => return Some(format!("access {a} lane {k} decodes to bank {bank}")),
            }
        }
    }
    None
}

/// Re-prove `plan`, compiled for `target`'s class: structural validation
/// and per-access bank disjointness at the first of `origins`, then the
/// ground-truth cross-check at every origin `(i, j)` against the cells
/// `cells(i, j)`, reporting under `at`. The `--inject` plan seeds run
/// corrupted plans through this.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_plan(
    plan: &RegionPlan,
    target: PlanTarget<'_>,
    origins: &[(usize, usize)],
    cells: impl Fn(usize, usize) -> Vec<(usize, usize)>,
    (agu, maf, afn): (&Agu, &ModuleAssignment, &AddressingFunction),
    depth: usize,
    at: &str,
    findings: &mut Vec<Finding>,
) {
    let mut report = |code, message| {
        findings.push(Finding::new("plans", Severity::Error, code, at, message));
    };
    let (i, j) = origins[0];
    if let Err(e) = plan.validate(afn.address(i, j) as isize, depth) {
        report(
            "plan-corrupt",
            format!("compiled plan failed structural validation: {e}"),
        );
        return;
    }
    if let Some(why) = bank_clash(plan, target, agu, afn, depth) {
        report("plan-bank-conflict", why);
    }
    for &(i, j) in origins {
        if let Some(why) = model_divergence(plan, (i, j), &cells(i, j), maf, afn, depth) {
            report("plan-model-divergence", format!("origin ({i},{j}): {why}"));
        }
    }
}

/// Compile `target` through `cache` and re-prove its plan
/// ([`check_plan`]). Returns whether the class compiled.
#[allow(clippy::too_many_arguments)]
fn prove(
    cache: &mut PlanCache,
    target: PlanTarget<'_>,
    origins: &[(usize, usize)],
    cells: impl Fn(usize, usize) -> Vec<(usize, usize)>,
    blocks: (&Agu, &ModuleAssignment, &AddressingFunction),
    depth: usize,
    at: String,
    findings: &mut Vec<Finding>,
) -> bool {
    let (agu, maf, afn) = blocks;
    match cache.get_or_compile(target, agu, maf, afn) {
        Ok((plan, _)) => {
            check_plan(plan, target, origins, cells, blocks, depth, &at, findings);
            true
        }
        Err(e) => {
            findings.push(Finding::new(
                "plans",
                Severity::Error,
                "compile-failed",
                at,
                format!("claimed class failed to compile: {e}"),
            ));
            false
        }
    }
}

/// Verify every single-access class of one (scheme, geometry).
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
    let mut cache = PlanCache::new(n, depth, BankLayout::BankMajor);
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
                let key = PlanKey::of(PlanTarget::Access(access), n);
                *hashes.entry(hash_key(&key)).or_insert(0) += 1;
                out.keys += 1;
                // Ground-truth cross-check at two representatives of the
                // class: the cached routing must equal MAF + addressing
                // function lane for lane.
                let origins = [(ri, j0), (ri + n, j0 + n)];
                let cells = |i, j| crate::schemes::pattern_coords(pattern, i, j, p, q);
                let (target, blocks) = (PlanTarget::Access(access), (agu, maf, afn));
                if prove(
                    &mut cache, target, &origins, cells, blocks, depth, at, findings,
                ) {
                    out.access_plans += 1;
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

/// Verify every region-plan class of one (scheme, geometry) compiled
/// against `layout`, plus the soundness of the compile gates (unsupported /
/// misaligned must fail). Decoding every element through the layout keeps
/// each layout's coalescing pass honest: the gather map its motif-run
/// table expands to must still put every element where the model does.
#[allow(clippy::too_many_arguments)]
fn check_region_plans(
    scheme: AccessScheme,
    p: usize,
    q: usize,
    agu: &Agu,
    maf: &ModuleAssignment,
    afn: &AddressingFunction,
    depth: usize,
    layout: BankLayout,
    out: &mut PlansOutput,
    findings: &mut Vec<Finding>,
) {
    let n = p * q;
    let mut cache = PlanCache::new(n, depth, layout);
    let claims = scheme.supported_patterns(p, q);
    for pattern in AccessPattern::ALL {
        let claimed = claims.contains(&pattern);
        for shape in shapes_for(pattern, p, q) {
            if !claimed {
                // Gate soundness: an unclaimed pattern must not compile.
                let region = Region::new("gate", 0, shape_min_j(shape), shape);
                match cache.get_or_compile(PlanTarget::Region(&region), agu, maf, afn) {
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
                            .get_or_compile(PlanTarget::Region(&region), agu, maf, afn)
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
                    let at = format!(
                        "{layout:?} {scheme} {pattern} {p}x{q} shape {shape:?} ({ri},{rj})"
                    );
                    let cells = |i, j| Region::new("v", i, j, shape).coords().unwrap_or_default();
                    let target = PlanTarget::Region(&region);
                    let blocks = (agu, maf, afn);
                    if prove(
                        &mut cache,
                        target,
                        &[(ri, j0)],
                        cells,
                        blocks,
                        depth,
                        at,
                        findings,
                    ) {
                        out.region_plans += 1;
                    }
                }
            }
        }
    }
    let stats = cache.region_stats();
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

/// Smallest origin column at which `shape` is representable (secondary
/// diagonals need room to walk left).
fn shape_min_j(shape: RegionShape) -> usize {
    match shape {
        RegionShape::SecondaryDiag { len } => len.saturating_sub(1),
        _ => 0,
    }
}

/// Exercise the cache's region capacity bound: more region classes than
/// capacity must evict, with exact entry/byte accounting.
fn check_capacity_cap(findings: &mut Vec<Finding>) -> PlanCacheStats {
    let (p, q) = (2usize, 4usize);
    let n = p * q;
    let capacity = 4;
    // Wide enough for the longest exercised row (3 * capacity * n).
    let (rows, cols) = (8 * n, 3 * capacity * n);
    let agu = Agu::new(p, q, rows, cols);
    let maf = ModuleAssignment::new(AccessScheme::ReRo, p, q);
    let afn = AddressingFunction::new(p, q, rows, cols);
    let depth = (rows / p) * (cols / q);
    let mut cache = PlanCache::with_capacity(n, depth, BankLayout::BankMajor, capacity);
    let row = |size: usize| Region::new("cap", 0, 0, RegionShape::Row { len: size * n });
    for size in 1..=3 * capacity {
        if let Err(e) = cache.get_or_compile(PlanTarget::Region(&row(size)), &agu, &maf, &afn) {
            findings.push(Finding::new(
                "plans",
                Severity::Error,
                "compile-failed",
                format!("capacity exercise size {size}"),
                format!("{e}"),
            ));
        }
    }
    let stats = cache.region_stats();
    // Bytes must equal the footprint of the resident region plans.
    let resident: u64 = (1..=3 * capacity)
        .filter_map(|size| cache.get(&PlanKey::of(PlanTarget::Region(&row(size)), n)))
        .map(|plan| plan.heap_bytes() as u64)
        .sum();
    if stats.entries != capacity
        || stats.capacity != capacity
        || stats.evictions != (3 * capacity - capacity) as u64
        || stats.bytes != resident
    {
        findings.push(Finding::new(
            "plans",
            Severity::Error,
            "cache-eviction-broken",
            "plan cache capacity exercise",
            format!(
                "expected {capacity} entries, {} evictions and {resident} resident bytes, \
                 got {} entries, {} evictions, {} bytes",
                3 * capacity - capacity,
                stats.entries,
                stats.evictions,
                stats.bytes
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
            // The interleaved layout on the 2x4 grid keeps its coalescing
            // pass proven without doubling the lint's runtime.
            let layouts: &[BankLayout] = if (p, q) == (2, 4) {
                &[BankLayout::BankMajor, BankLayout::AddrInterleaved]
            } else {
                &[BankLayout::BankMajor]
            };
            for &layout in layouts {
                check_region_plans(
                    scheme, p, q, &agu, &maf, &afn, depth, layout, &mut out, findings,
                );
            }
        }
    }
    out.cap_stats = Some(check_capacity_cap(findings));
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
        let cap = out.cap_stats.unwrap();
        assert!(cap.evictions > 0, "capacity exercise must evict");
    }

    /// A `shape` region at (1, 2) of a 2x4 ReRo memory, its compiled plan,
    /// and the codes [`check_plan`] raises on `corrupt`'s copy of the plan.
    fn check_corrupted(
        shape: RegionShape,
        corrupt: impl FnOnce(&mut RegionPlan),
    ) -> Vec<&'static str> {
        let (p, q) = (2usize, 4usize);
        let n = p * q;
        let agu = Agu::new(p, q, 4 * n, 4 * n);
        let maf = ModuleAssignment::new(AccessScheme::ReRo, p, q);
        let afn = AddressingFunction::new(p, q, 4 * n, 4 * n);
        let depth = (4 * n / p) * (4 * n / q);
        let mut cache = PlanCache::new(n, depth, BankLayout::BankMajor);
        let region = Region::new("x", 1, 2, shape);
        let mut plan = RegionPlan::compile(&region, &agu, &maf, &afn, &mut cache).unwrap();
        corrupt(&mut plan);
        let mut findings = Vec::new();
        let cells = |i, j| Region::new("x", i, j, region.shape).coords().unwrap();
        let target = PlanTarget::Region(&region);
        let blocks = (&agu, &maf, &afn);
        check_plan(
            &plan,
            target,
            &[(1, 2)],
            cells,
            blocks,
            depth,
            "x",
            &mut findings,
        );
        findings.iter().map(|f| f.code).collect()
    }

    const ROW: RegionShape = RegionShape::Row { len: 16 };
    const BLOCK: RegionShape = RegionShape::Block { rows: 2, cols: 8 };

    /// Swap lanes `a` and `b` of the motif `bad`'s first run replays.
    fn swap_motif_lanes(bad: &mut RegionPlan, a: usize, b: usize) {
        let m0 = bad.motif_runs[0].motif as usize * bad.lanes;
        bad.motifs.swap(m0 + a, m0 + b);
    }

    #[test]
    fn corrupted_region_plan_is_caught_by_validate() {
        // The plans half of --inject in miniature: a compiled plan is
        // clean, a run skewed one slot over no longer tiles its store runs.
        for shape in [ROW, BLOCK] {
            assert!(check_corrupted(shape, |_| {}).is_empty(), "{shape:?}");
        }
        let codes = check_corrupted(ROW, |bad| bad.motif_runs[0].offset += 1);
        assert_eq!(codes, ["plan-corrupt"]);
    }

    #[test]
    fn swapped_motif_lanes_fail_the_model_check_not_validate() {
        // Two lanes of the run's motif swapped: the storage image is the
        // same, so the structure proves sound, and the banks of each access
        // are still distinct; only the model check sees elements in the
        // wrong place.
        let codes = check_corrupted(ROW, |bad| swap_motif_lanes(bad, 0, 1));
        assert_eq!(codes, ["plan-model-divergence"]);
    }

    #[test]
    fn motif_lanes_swapped_across_accesses_fail_the_bank_check() {
        // A 2x8 block's canonical row is lanes 0-3 of one 2x4 rectangle
        // access and lanes 0-3 of the next. Swapping lane 0 (the first
        // access's (1,2)) with lane 5 (the second's (1,7)) keeps the
        // storage image, so `validate` passes, but hands each access a
        // bank another of its lanes holds.
        let codes = check_corrupted(BLOCK, |bad| swap_motif_lanes(bad, 0, 5));
        assert_eq!(codes, ["plan-bank-conflict", "plan-model-divergence"]);
        // Lanes of one access keep its banks: the model check alone fires.
        let codes = check_corrupted(BLOCK, |bad| swap_motif_lanes(bad, 0, 1));
        assert_eq!(codes, ["plan-model-divergence"]);
    }
}
