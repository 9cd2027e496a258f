//! Module Assignment Functions (MAF) — the block `M` of Fig. 3.
//!
//! A MAF maps every element `(i, j)` of the 2D logical address space to one
//! bank of the `p x q` bank grid so that all patterns claimed by the scheme
//! (Table I) are **conflict-free**: the `p*q` lanes of one parallel access
//! always land in `p*q` *distinct* banks.
//!
//! The functions below follow the PRF skewing-scheme family (Ciobanu 2013).
//! For `ReTr` we use a block-cyclic square decomposition that satisfies the
//! same Table I contract (conflict-free unaligned `p x q` *and* `q x p`
//! rectangles whenever `p | q` or `q | p`); `theory` tests machine-check all
//! conflict-freedom claims exhaustively.

use crate::error::{PolyMemError, Result};
use crate::scheme::AccessScheme;

/// Identifier of one memory bank in the `p x q` grid.
///
/// Banks are named by their grid coordinates `(v, h)`; `linear` gives the
/// canonical flat index `v * q + h` used to address the physical bank array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BankId {
    /// Vertical (row) coordinate in the bank grid, `0 <= v < p`.
    pub v: usize,
    /// Horizontal (column) coordinate in the bank grid, `0 <= h < q`.
    pub h: usize,
}

impl BankId {
    /// Flat index into the bank array of a `p x q` grid (`v * q + h`).
    #[inline]
    pub fn linear(self, q: usize) -> usize {
        self.v * q + self.h
    }
}

/// A module assignment function for a fixed scheme and bank-grid geometry.
///
/// `ModuleAssignment` is a pure value object: evaluating it allocates nothing
/// and is branch-cheap, as it sits on the per-lane hot path of every access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleAssignment {
    scheme: AccessScheme,
    p: usize,
    q: usize,
    /// `q / p` (or `p / q`) for `ReTr`; 1 otherwise.
    ratio: usize,
}

impl ModuleAssignment {
    /// Build the MAF for `scheme` on a `p x q` grid.
    ///
    /// # Panics
    /// Panics if `p == 0 || q == 0`, or if `scheme == ReTr` and neither side
    /// of the grid divides the other (callers validate geometry through
    /// [`crate::config::PolyMemConfig`], which reports a proper error).
    pub fn new(scheme: AccessScheme, p: usize, q: usize) -> Self {
        match Self::try_new(scheme, p, q) {
            Ok(maf) => maf,
            Err(PolyMemError::InvalidGeometry { reason })
                if reason.starts_with("ReTr requires") =>
            {
                panic!("{reason}")
            }
            Err(_) => panic!("bank grid must be non-empty"),
        }
    }

    /// Fallible variant of [`Self::new`], for callers (such as the
    /// `polymem-verify` static analyzer) that sweep arbitrary geometries and
    /// must observe invalid ones as values rather than panics.
    pub fn try_new(scheme: AccessScheme, p: usize, q: usize) -> Result<Self> {
        if p == 0 || q == 0 {
            return Err(PolyMemError::InvalidGeometry {
                reason: format!("bank grid must be non-empty (got {p} x {q})"),
            });
        }
        let ratio = match scheme {
            AccessScheme::ReTr => {
                if !(p.is_multiple_of(q) || q.is_multiple_of(p)) {
                    return Err(PolyMemError::InvalidGeometry {
                        reason: format!("ReTr requires p | q or q | p (got {p} x {q})"),
                    });
                }
                if q >= p {
                    q / p
                } else {
                    p / q
                }
            }
            _ => 1,
        };
        Ok(Self {
            scheme,
            p,
            q,
            ratio,
        })
    }

    /// The scheme this MAF implements.
    #[inline]
    pub fn scheme(&self) -> AccessScheme {
        self.scheme
    }

    /// Bank-grid rows.
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Bank-grid columns.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of lanes (`p * q`).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.p * self.q
    }

    /// Map logical element `(i, j)` to its bank.
    ///
    /// The per-scheme formulas (writing `P = p`, `Q = q`):
    ///
    /// | scheme | `m_v(i,j)` | `m_h(i,j)` |
    /// |---|---|---|
    /// | ReO  | `i mod P` | `j mod Q` |
    /// | ReRo | `(i + j/Q) mod P` | `j mod Q` |
    /// | ReCo | `i mod P` | `(i/P + j) mod Q` |
    /// | RoCo | `(i + j/Q) mod P` | `(i/P + j) mod Q` |
    /// | ReTr | block-cyclic square decomposition (see below) |
    ///
    /// For `ReTr` with `p <= q` and `r = q/p`, elements are first tiled into
    /// `p x p` squares; the square-diagonal index `s = (i/p + j/p) mod r`
    /// selects one of `r` bank sub-grids and the within-square offsets select
    /// the bank inside it: `m = (i mod p, s*p + (j mod p))`. The mirrored
    /// construction is used when `q < p`.
    #[inline]
    pub fn assign(&self, i: usize, j: usize) -> BankId {
        let (p, q) = (self.p, self.q);
        match self.scheme {
            AccessScheme::ReO => BankId { v: i % p, h: j % q },
            AccessScheme::ReRo => BankId {
                v: (i + j / q) % p,
                h: j % q,
            },
            AccessScheme::ReCo => BankId {
                v: i % p,
                h: (i / p + j) % q,
            },
            AccessScheme::RoCo => BankId {
                v: (i + j / q) % p,
                h: (i / p + j) % q,
            },
            AccessScheme::ReTr => {
                if q >= p {
                    let s = (i / p + j / p) % self.ratio;
                    BankId {
                        v: i % p,
                        h: s * p + (j % p),
                    }
                } else {
                    let s = (i / q + j / q) % self.ratio;
                    BankId {
                        v: s * q + (i % q),
                        h: j % q,
                    }
                }
            }
        }
    }

    /// Flat bank index of element `(i, j)` — `assign(i, j).linear(q)`.
    #[inline]
    pub fn assign_linear(&self, i: usize, j: usize) -> usize {
        self.assign(i, j).linear(self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::AccessPattern;

    fn banks_of(maf: &ModuleAssignment, coords: &[(usize, usize)]) -> Vec<usize> {
        coords
            .iter()
            .map(|&(i, j)| maf.assign_linear(i, j))
            .collect()
    }

    fn all_distinct(mut xs: Vec<usize>) -> bool {
        xs.sort_unstable();
        xs.windows(2).all(|w| w[0] != w[1])
    }

    fn rect_coords(i0: usize, j0: usize, rows: usize, cols: usize) -> Vec<(usize, usize)> {
        (0..rows)
            .flat_map(|a| (0..cols).map(move |b| (i0 + a, j0 + b)))
            .collect()
    }

    #[test]
    fn bankid_linear() {
        assert_eq!(BankId { v: 1, h: 3 }.linear(4), 7);
        assert_eq!(BankId { v: 0, h: 0 }.linear(4), 0);
    }

    #[test]
    fn reo_unaligned_rectangles_conflict_free() {
        let maf = ModuleAssignment::new(AccessScheme::ReO, 2, 4);
        for i0 in 0..6 {
            for j0 in 0..10 {
                assert!(
                    all_distinct(banks_of(&maf, &rect_coords(i0, j0, 2, 4))),
                    "rect at ({i0},{j0})"
                );
            }
        }
    }

    #[test]
    fn rero_rows_conflict_free() {
        let maf = ModuleAssignment::new(AccessScheme::ReRo, 2, 4);
        for i0 in 0..5 {
            for j0 in 0..12 {
                let coords: Vec<_> = (0..8).map(|k| (i0, j0 + k)).collect();
                assert!(all_distinct(banks_of(&maf, &coords)), "row at ({i0},{j0})");
            }
        }
    }

    #[test]
    fn rero_diagonals_conflict_free() {
        let maf = ModuleAssignment::new(AccessScheme::ReRo, 2, 4);
        for i0 in 0..4 {
            for j0 in 0..4 {
                let main: Vec<_> = (0..8).map(|k| (i0 + k, j0 + k)).collect();
                assert!(
                    all_distinct(banks_of(&maf, &main)),
                    "main diag at ({i0},{j0})"
                );
                let sec: Vec<_> = (0..8).map(|k| (i0 + k, j0 + 16 - k)).collect();
                assert!(
                    all_distinct(banks_of(&maf, &sec)),
                    "sec diag at ({i0},{j0})"
                );
            }
        }
    }

    #[test]
    fn reco_columns_conflict_free() {
        let maf = ModuleAssignment::new(AccessScheme::ReCo, 2, 4);
        for i0 in 0..12 {
            for j0 in 0..5 {
                let coords: Vec<_> = (0..8).map(|k| (i0 + k, j0)).collect();
                assert!(all_distinct(banks_of(&maf, &coords)), "col at ({i0},{j0})");
            }
        }
    }

    #[test]
    fn roco_rows_and_columns_conflict_free() {
        let maf = ModuleAssignment::new(AccessScheme::RoCo, 2, 4);
        for o in 0..10 {
            let row: Vec<_> = (0..8).map(|k| (3, o + k)).collect();
            let col: Vec<_> = (0..8).map(|k| (o + k, 3)).collect();
            assert!(all_distinct(banks_of(&maf, &row)));
            assert!(all_distinct(banks_of(&maf, &col)));
        }
    }

    #[test]
    fn roco_aligned_rectangle_conflict_free_unaligned_not() {
        let maf = ModuleAssignment::new(AccessScheme::RoCo, 2, 2);
        assert!(all_distinct(banks_of(&maf, &rect_coords(0, 0, 2, 2))));
        assert!(all_distinct(banks_of(&maf, &rect_coords(2, 4, 2, 2))));
        // The counterexample from the design analysis: offset (1, 1) conflicts.
        assert!(!all_distinct(banks_of(&maf, &rect_coords(1, 1, 2, 2))));
    }

    #[test]
    fn retr_both_orientations_conflict_free() {
        for &(p, q) in &[(2usize, 4usize), (2, 8), (4, 2), (8, 2), (4, 4)] {
            let maf = ModuleAssignment::new(AccessScheme::ReTr, p, q);
            for i0 in 0..2 * p {
                for j0 in 0..2 * q {
                    assert!(
                        all_distinct(banks_of(&maf, &rect_coords(i0, j0, p, q))),
                        "{p}x{q} rect at ({i0},{j0})"
                    );
                    assert!(
                        all_distinct(banks_of(&maf, &rect_coords(i0, j0, q, p))),
                        "{q}x{p} transposed rect at ({i0},{j0})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ReTr requires")]
    fn retr_rejects_nondivisible_grid() {
        let _ = ModuleAssignment::new(AccessScheme::ReTr, 3, 4);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_grid_rejected() {
        let _ = ModuleAssignment::new(AccessScheme::ReO, 0, 4);
    }

    #[test]
    fn try_new_reports_invalid_geometry_as_value() {
        assert!(ModuleAssignment::try_new(AccessScheme::ReTr, 3, 4).is_err());
        assert!(ModuleAssignment::try_new(AccessScheme::ReO, 0, 4).is_err());
        let maf = ModuleAssignment::try_new(AccessScheme::ReTr, 2, 4).unwrap();
        assert_eq!(maf.lanes(), 8);
    }

    #[test]
    fn assign_is_total_over_large_space() {
        // Every bank must be hit equally often over a whole number of tiles.
        for scheme in AccessScheme::ALL {
            let maf = ModuleAssignment::new(scheme, 2, 4);
            let mut counts = vec![0usize; 8];
            for i in 0..8 {
                for j in 0..16 {
                    counts[maf.assign_linear(i, j)] += 1;
                }
            }
            assert!(
                counts.iter().all(|&c| c == 16),
                "{scheme}: unbalanced bank load {counts:?}"
            );
        }
    }

    #[test]
    fn patterns_match_scheme_claims_on_paper_grid() {
        // Sanity: the Table I claim list is consistent with the MAF on the
        // paper's 2x4 grid (full exhaustive checking lives in theory.rs).
        for scheme in AccessScheme::ALL {
            for pat in scheme.supported_patterns(2, 4) {
                assert!(scheme.supports(pat, 2, 4), "{scheme} {pat}");
            }
        }
        let _ = AccessPattern::ALL;
    }
}
