//! Machine-checkable statements of the PRF conflict-freedom theory.
//!
//! Table I is proved here once, for every consumer (the `table1_schemes`
//! experiment, the `polymem-verify` `schemes` pass, the tests): every
//! per-lane quantity of a parallel access is periodic in the access origin
//! with period `N = p*q` in both coordinates, so conflict-freedom of a
//! (scheme, pattern) pair is decided by checking the `N²` origin residue
//! classes once each. If every class's `N` lanes land in `N` distinct
//! banks, *every* origin in the infinite logical space is conflict-free.
//! Storage soundness — `(bank, A)` is a bijection over the logical space —
//! is checked by [`addressing_injective`].

use crate::addressing::AddressingFunction;
use crate::analysis::analyse;
use crate::maf::ModuleAssignment;
use crate::scheme::{AccessPattern, AccessScheme};

/// The lane coordinates of `pattern` at origin `(i0, j0)` on a `p x q`
/// grid, written out from the pattern definitions (independently of
/// [`crate::Agu`], so plan checks can use it as their ground truth).
pub fn pattern_coords(
    pattern: AccessPattern,
    i0: usize,
    j0: usize,
    p: usize,
    q: usize,
) -> Vec<(usize, usize)> {
    let n = p * q;
    match pattern {
        AccessPattern::Rectangle => (0..p)
            .flat_map(|a| (0..q).map(move |b| (i0 + a, j0 + b)))
            .collect(),
        AccessPattern::TransposedRectangle => (0..q)
            .flat_map(|a| (0..p).map(move |b| (i0 + a, j0 + b)))
            .collect(),
        AccessPattern::Row => (0..n).map(|k| (i0, j0 + k)).collect(),
        AccessPattern::Column => (0..n).map(|k| (i0 + k, j0)).collect(),
        AccessPattern::MainDiagonal => (0..n).map(|k| (i0 + k, j0 + k)).collect(),
        AccessPattern::SecondaryDiagonal => (0..n).map(|k| (i0 + k, j0 - k)).collect(),
    }
}

/// Outcome of the residue-class proof of one (scheme, pattern, geometry).
#[derive(Debug, Clone)]
pub struct PairProof {
    /// The scheme.
    pub scheme: AccessScheme,
    /// The pattern.
    pub pattern: AccessPattern,
    /// Bank-grid rows.
    pub p: usize,
    /// Bank-grid columns.
    pub q: usize,
    /// Whether the pair was proved as a conflict-free claim.
    pub claimed: bool,
    /// Whether the scheme serves the pattern at aligned origins only.
    pub aligned_only: bool,
    /// Residue classes enumerated (`(p*q)²`).
    pub classes: usize,
    /// Classes the claim admits (all, or only aligned ones; 0 unclaimed).
    pub admissible: usize,
    /// Admissible classes whose lanes collide, as `(ri, rj, cycles)`: the
    /// class's origin residues and the cycles its lanes need. Empty iff the
    /// claim holds.
    pub conflicts: Vec<(usize, usize, usize)>,
    /// Claimed, alignment-excluded classes that collide: 0 means the
    /// alignment restriction is not needed on this geometry.
    pub unaligned_conflicts: usize,
    /// Worst `cycles_needed` over every class — 1 means conflict-free
    /// everywhere; for an unclaimed pair this is its serialization bound.
    pub worst_cycles: usize,
}

/// Prove `pattern` under `maf` over all `(p*q)²` origin residue classes,
/// treating it as a conflict-free claim iff `claimed`. Each class's bank
/// load is counted by [`analyse`].
///
/// `claimed` is a parameter — rather than read from the support matrix —
/// so a false claim can be proved and refuted (`polymem-verify --inject`).
pub fn prove_pair(maf: &ModuleAssignment, pattern: AccessPattern, claimed: bool) -> PairProof {
    let (scheme, p, q) = (maf.scheme(), maf.p(), maf.q());
    let n = p * q;
    let aligned_only = scheme.requires_alignment(pattern);
    let mut proof = PairProof {
        scheme,
        pattern,
        p,
        q,
        claimed,
        aligned_only,
        classes: n * n,
        admissible: 0,
        conflicts: Vec::new(),
        unaligned_conflicts: 0,
        worst_cycles: 1,
    };
    for ri in 0..n {
        for rj in 0..n {
            // Class representative: shift the secondary diagonal's origin
            // one period right so its leftward walk stays in `usize`
            // (residues mod n, and alignment residues mod p/q, are
            // preserved: p and q divide n).
            let j0 = if pattern == AccessPattern::SecondaryDiagonal {
                rj + n
            } else {
                rj
            };
            let cycles = analyse(maf, &pattern_coords(pattern, ri, j0, p, q)).cycles_needed;
            proof.worst_cycles = proof.worst_cycles.max(cycles);
            if !claimed {
                continue;
            }
            if !aligned_only || (ri % p == 0 && rj % q == 0) {
                proof.admissible += 1;
                if cycles > 1 {
                    proof.conflicts.push((ri, rj, cycles));
                }
            } else if cycles > 1 {
                proof.unaligned_conflicts += 1;
            }
        }
    }
    proof
}

/// Verify that `(bank, A)` is injective over the whole `rows x cols` space:
/// no two logical elements share a physical location. This is the storage
/// soundness property all schemes must satisfy regardless of pattern support.
pub fn addressing_injective(
    scheme: AccessScheme,
    p: usize,
    q: usize,
    rows: usize,
    cols: usize,
) -> bool {
    let maf = ModuleAssignment::new(scheme, p, q);
    let afn = AddressingFunction::new(p, q, rows, cols);
    let depth = afn.bank_depth(rows);
    let mut seen = vec![false; p * q * depth];
    for i in 0..rows {
        for j in 0..cols {
            let slot = maf.assign_linear(i, j) * depth + afn.address(i, j);
            if seen[slot] {
                return false;
            }
            seen[slot] = true;
        }
    }
    // Injective + equal cardinality => bijective.
    seen.iter().all(|&s| s)
}

/// The full Table I verification on a `p x q` grid: each scheme with the
/// patterns it claims whose [`prove_pair`] proof holds. Equal to
/// [`AccessScheme::supported_patterns`] iff every claim is sound; a scheme
/// that cannot be built on the grid verifies nothing.
pub fn verify_table1(p: usize, q: usize) -> Vec<(AccessScheme, Vec<AccessPattern>)> {
    AccessScheme::ALL
        .into_iter()
        .map(|scheme| {
            let verified = match ModuleAssignment::try_new(scheme, p, q) {
                Ok(maf) => scheme
                    .supported_patterns(p, q)
                    .into_iter()
                    .filter(|&pattern| prove_pair(&maf, pattern, true).conflicts.is_empty())
                    .collect(),
                Err(_) => Vec::new(),
            };
            (scheme, verified)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agu::Agu;
    use crate::scheme::ParallelAccess;
    use proptest::prelude::*;

    const GRIDS: [(usize, usize); 4] = [(2, 4), (2, 8), (4, 2), (4, 4)];

    fn proof(scheme: AccessScheme, p: usize, q: usize, pattern: AccessPattern) -> PairProof {
        let claimed = scheme.supports(pattern, p, q);
        prove_pair(&ModuleAssignment::new(scheme, p, q), pattern, claimed)
    }

    #[test]
    fn every_advertised_pattern_is_conflict_free() {
        for &(p, q) in &GRIDS {
            for scheme in AccessScheme::ALL {
                for pattern in scheme.supported_patterns(p, q) {
                    let pr = proof(scheme, p, q, pattern);
                    assert!(
                        pr.conflicts.is_empty(),
                        "{scheme} claims {pattern} on {p}x{q} but classes conflict: {:?}",
                        pr.conflicts
                    );
                    assert!(pr.admissible > 0, "{scheme} {pattern} {p}x{q}: vacuous");
                }
            }
        }
    }

    #[test]
    fn gcd_conditions_are_tight_on_general_grids() {
        // `supported_patterns` must *exactly* characterize conflict-freedom,
        // also on non-power-of-two grids: whatever it claims is proved
        // conflict-free, and for the diagonal patterns it declines on odd
        // grids, some class must really conflict (the condition is tight,
        // not conservative).
        use AccessPattern::{MainDiagonal, SecondaryDiagonal};
        for (p, q) in [(2usize, 3usize), (3, 2), (3, 5), (2, 6), (3, 3), (4, 6)] {
            for scheme in [AccessScheme::ReRo, AccessScheme::ReCo] {
                for pattern in [MainDiagonal, SecondaryDiagonal] {
                    let pr = proof(scheme, p, q, pattern);
                    if pr.claimed {
                        assert_eq!(
                            pr.worst_cycles, 1,
                            "{scheme} {p}x{q}: claimed {pattern} conflicts"
                        );
                    } else {
                        assert!(
                            pr.worst_cycles > 1,
                            "{scheme} {p}x{q}: {pattern} declined but no class conflicts \
                             (the gcd condition would be conservative)"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn roco_unaligned_rect_counterexample() {
        // Table I's RoCo rectangle support is alignment-restricted: every
        // aligned class is conflict-free, and some unaligned class is not.
        let pr = proof(AccessScheme::RoCo, 2, 4, AccessPattern::Rectangle);
        assert!(pr.aligned_only);
        assert!(pr.conflicts.is_empty(), "{:?}", pr.conflicts);
        assert_eq!(pr.admissible, (8 / 2) * (8 / 4), "aligned residue classes");
        assert!(
            pr.unaligned_conflicts > 0,
            "expected an unaligned RoCo rectangle conflict"
        );
    }

    #[test]
    fn reo_rows_do_conflict() {
        // ReO advertises only rectangles; confirm rows genuinely conflict
        // (i.e. the Table I restriction is real, not conservative).
        let pr = proof(AccessScheme::ReO, 2, 4, AccessPattern::Row);
        assert!(!pr.claimed);
        assert!(pr.worst_cycles > 1);
    }

    #[test]
    fn rero_columns_do_conflict() {
        let pr = proof(AccessScheme::ReRo, 2, 4, AccessPattern::Column);
        assert!(!pr.claimed);
        assert!(pr.worst_cycles > 1);
    }

    #[test]
    fn secondary_diagonal_classes_all_reachable() {
        let coords = pattern_coords(AccessPattern::SecondaryDiagonal, 0, 8, 2, 4);
        assert_eq!(coords.len(), 8);
        assert_eq!(coords[0], (0, 8));
        assert_eq!(coords[7], (7, 1));
    }

    #[test]
    fn addressing_bijective_for_all_schemes_and_grids() {
        for &(p, q) in &GRIDS {
            for scheme in AccessScheme::ALL {
                assert!(
                    addressing_injective(scheme, p, q, 4 * p, 4 * q),
                    "{scheme} on {p}x{q}: (bank, A) not bijective"
                );
            }
        }
    }

    #[test]
    fn verify_table1_matches_claims() {
        for &(p, q) in GRIDS.iter().chain(&[(3, 5)]) {
            for (scheme, verified) in verify_table1(p, q) {
                assert_eq!(
                    verified,
                    scheme.supported_patterns(p, q),
                    "{scheme}: verified support differs from claimed support"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn conflict_freedom_random_positions(
            grid_idx in 0..GRIDS.len(),
            scheme_idx in 0..AccessScheme::ALL.len(),
            oi in 0..64usize,
            oj in 0..64usize,
        ) {
            let (p, q) = GRIDS[grid_idx];
            let scheme = AccessScheme::ALL[scheme_idx];
            let n = p * q;
            let agu = Agu::new(p, q, 8 * n, 8 * n);
            let maf = ModuleAssignment::new(scheme, p, q);
            for pattern in scheme.supported_patterns(p, q) {
                let (i, j) = if scheme.requires_alignment(pattern) {
                    (oi / p * p, oj / q * q)
                } else if pattern == AccessPattern::SecondaryDiagonal {
                    (oi, oj + n) // ensure left room
                } else {
                    (oi, oj)
                };
                if let Ok(coords) = agu.expand(ParallelAccess::new(i, j, pattern)) {
                    prop_assert!(
                        analyse(&maf, &coords).conflict_free(),
                        "{} {} at ({}, {})", scheme, pattern, i, j
                    );
                }
            }
        }

        #[test]
        fn addressing_injective_random_spaces(
            grid_idx in 0..GRIDS.len(),
            scheme_idx in 0..AccessScheme::ALL.len(),
            tiles_r in 1..6usize,
            tiles_c in 1..6usize,
        ) {
            let (p, q) = GRIDS[grid_idx];
            let scheme = AccessScheme::ALL[scheme_idx];
            prop_assert!(addressing_injective(scheme, p, q, tiles_r * p, tiles_c * q));
        }
    }
}
