//! Scheme verification: the Table I proof as findings.
//!
//! [`polymem::theory::prove_pair`] proves a (scheme, pattern) pair over all
//! `(p*q)²` origin residue classes, which by periodicity covers every
//! origin. This pass runs it for every scheme, every pattern (claimed or
//! not) and a suite of geometries — without executing a single memory
//! access — and turns each [`PairProof`] into findings.
//!
//! Unsupported pairs are not skipped: their worst-case `cycles_needed`
//! bound is reported, and a pair that is provably conflict-free everywhere
//! yet unclaimed is surfaced as an `info` finding (support-matrix
//! conservatism — not a soundness problem, claims stay sound).

use crate::findings::{Finding, Severity};
use polymem::theory::{prove_pair, PairProof};
use polymem::{AccessPattern, AccessScheme, ModuleAssignment};

/// Bank-grid geometries the proof sweeps: the paper's power-of-two
/// configurations plus odd/coprime grids that exercise every gcd condition
/// in Table I (including `ReTr`-unbuildable ones).
pub const GEOMETRIES: &[(usize, usize)] = &[
    (2, 2),
    (2, 4),
    (4, 2),
    (2, 8),
    (8, 2),
    (4, 4),
    (3, 3),
    (3, 5),
];

/// Prove one (scheme, pattern, geometry) triple, treating it as claimed
/// conflict-free iff `claimed`, and append its findings (conflicts under a
/// claim, conservatism).
///
/// `claimed` is a parameter — rather than read from the support matrix —
/// so the `--inject` mutation mode can assert that a false claim is caught.
pub fn check_pair(
    maf: &ModuleAssignment,
    pattern: AccessPattern,
    claimed: bool,
    findings: &mut Vec<Finding>,
) -> PairProof {
    let proof = prove_pair(maf, pattern, claimed);
    let (scheme, p, q) = (proof.scheme, proof.p, proof.q);
    let n = p * q;
    for &(ri, rj, cycles) in &proof.conflicts {
        findings.push(Finding::new(
            "schemes",
            Severity::Error,
            "bank-conflict",
            format!("{scheme} {pattern} {p}x{q} class ({ri},{rj})"),
            format!(
                "claimed conflict-free but the {n} lanes need {cycles} \
                 cycles (some bank is hit {cycles} times)"
            ),
        ));
    }
    if claimed && proof.aligned_only && proof.unaligned_conflicts == 0 {
        findings.push(Finding::new(
            "schemes",
            Severity::Info,
            "alignment-unneeded",
            format!("{scheme} {pattern} {p}x{q}"),
            "every unaligned origin class is also conflict-free; the alignment \
             restriction could be lifted on this geometry",
        ));
    }
    if !claimed && proof.worst_cycles == 1 {
        let degenerate = pattern == AccessPattern::TransposedRectangle && p == q;
        findings.push(Finding::new(
            "schemes",
            Severity::Info,
            if degenerate {
                "degenerate-equivalence"
            } else {
                "conservative-support"
            },
            format!("{scheme} {pattern} {p}x{q}"),
            if degenerate {
                "q x p equals p x q on a square grid, so the transposed rectangle \
                 is conflict-free wherever the rectangle is"
                    .to_string()
            } else {
                format!(
                    "provably conflict-free at every one of the {} origin residue \
                     classes, but Table I does not claim it",
                    proof.classes
                )
            },
        ));
    }
    proof
}

/// Run the full scheme verification over [`GEOMETRIES`].
pub fn run(findings: &mut Vec<Finding>) -> Vec<PairProof> {
    let mut pairs = Vec::new();
    for &(p, q) in GEOMETRIES {
        for scheme in AccessScheme::ALL {
            let claims = scheme.supported_patterns(p, q);
            let maf = match ModuleAssignment::try_new(scheme, p, q) {
                Ok(maf) => maf,
                Err(_) => {
                    // ReTr on a non-divisible grid: correctly unbuildable,
                    // and Table I must claim nothing for it.
                    if !claims.is_empty() {
                        findings.push(Finding::new(
                            "schemes",
                            Severity::Error,
                            "unbuildable-claim",
                            format!("{scheme} {p}x{q}"),
                            "Table I claims patterns for a geometry whose MAF \
                             cannot be constructed",
                        ));
                    }
                    continue;
                }
            };
            for pattern in AccessPattern::ALL {
                pairs.push(check_pair(
                    &maf,
                    pattern,
                    claims.contains(&pattern),
                    findings,
                ));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_claimed_pairs_prove_conflict_free() {
        let mut findings = Vec::new();
        let pairs = run(&mut findings);
        let errors: Vec<_> = findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "unexpected errors: {errors:#?}");
        assert!(pairs
            .iter()
            .filter(|r| r.claimed)
            .all(|r| r.conflicts.is_empty()));
        // Unsupported pairs that genuinely conflict report a bound > 1.
        let reo_row = pairs
            .iter()
            .find(|r| r.scheme == AccessScheme::ReO && r.pattern == AccessPattern::Row && r.p == 2)
            .unwrap();
        assert!(!reo_row.claimed);
        assert!(reo_row.worst_cycles > 1);
    }

    #[test]
    fn false_claim_is_caught() {
        // The core of the --inject mode: claiming ReO serves rows must
        // produce bank-conflict errors.
        let maf = ModuleAssignment::try_new(AccessScheme::ReO, 2, 4).unwrap();
        let mut findings = Vec::new();
        let r = check_pair(&maf, AccessPattern::Row, true, &mut findings);
        assert!(!r.conflicts.is_empty());
        assert!(findings.iter().any(|f| f.code == "bank-conflict"));
    }

    #[test]
    fn roco_alignment_restriction_is_justified() {
        // RoCo rectangles conflict somewhere unaligned on the paper grid:
        // the alignment-unneeded info must NOT fire.
        let maf = ModuleAssignment::try_new(AccessScheme::RoCo, 2, 4).unwrap();
        let mut findings = Vec::new();
        let r = check_pair(&maf, AccessPattern::Rectangle, true, &mut findings);
        assert!(r.conflicts.is_empty());
        assert!(!findings.iter().any(|f| f.code == "alignment-unneeded"));
    }

    #[test]
    fn coprime_grid_surfaces_conservative_support() {
        // ReO on 3x5: CRT makes diagonals conflict-free everywhere, but
        // Table I does not claim them — an info finding, not an error.
        let maf = ModuleAssignment::try_new(AccessScheme::ReO, 3, 5).unwrap();
        let mut findings = Vec::new();
        let r = check_pair(&maf, AccessPattern::MainDiagonal, false, &mut findings);
        assert_eq!(r.worst_cycles, 1);
        assert!(findings
            .iter()
            .any(|f| f.code == "conservative-support" && f.severity == Severity::Info));
    }
}
