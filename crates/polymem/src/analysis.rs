//! Analysis tools: bank-load heatmaps and conflict diagnostics for
//! arbitrary access shapes.
//!
//! The paper's schemes guarantee conflict-freedom only for the shapes of
//! Table I. Real applications also have irregular accesses; these tools
//! quantify *how bad* an unsupported shape would be on a given scheme —
//! the number of sequential bank cycles it would need — which is exactly
//! the cost model the scheduler's set-covering formulation minimizes.

use crate::maf::ModuleAssignment;
use crate::scheme::AccessScheme;

/// Result of analysing one group of coordinates against a MAF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictReport {
    /// Elements analysed.
    pub elements: usize,
    /// Distinct banks touched.
    pub banks_touched: usize,
    /// The maximum number of elements mapped to one bank — the number of
    /// sequential cycles a real memory would need to serve the group.
    pub cycles_needed: usize,
    /// Per-bank element counts (length `p*q`).
    pub bank_load: Vec<usize>,
}

impl ConflictReport {
    /// Whether the group is conflict-free (servable in one cycle).
    pub fn conflict_free(&self) -> bool {
        self.cycles_needed <= 1
    }

    /// Parallel efficiency: elements per cycle, normalised by lane count.
    pub fn efficiency(&self, lanes: usize) -> f64 {
        if self.elements == 0 {
            return 1.0;
        }
        self.elements as f64 / (self.cycles_needed as f64 * lanes as f64)
    }
}

/// Analyse an arbitrary coordinate group under `maf`.
pub fn analyse(maf: &ModuleAssignment, coords: &[(usize, usize)]) -> ConflictReport {
    let mut bank_load = vec![0usize; maf.lanes()];
    for &(i, j) in coords {
        bank_load[maf.assign_linear(i, j)] += 1;
    }
    ConflictReport {
        elements: coords.len(),
        banks_touched: bank_load.iter().filter(|&&c| c > 0).count(),
        cycles_needed: bank_load.iter().copied().max().unwrap_or(0),
        bank_load,
    }
}

/// Compare every scheme on the same coordinate group: which scheme serves
/// an application shape best (the quick version of the scheduler's DSE).
pub fn rank_schemes(
    p: usize,
    q: usize,
    coords: &[(usize, usize)],
) -> Vec<(AccessScheme, ConflictReport)> {
    let mut out: Vec<(AccessScheme, ConflictReport)> = AccessScheme::ALL
        .iter()
        .filter(|&&s| s != AccessScheme::ReTr || p.is_multiple_of(q) || q.is_multiple_of(p))
        .map(|&s| {
            let maf = ModuleAssignment::new(s, p, q);
            (s, analyse(&maf, coords))
        })
        .collect();
    out.sort_by_key(|(_, r)| r.cycles_needed);
    out
}

/// Bank-load heatmap of a whole logical space: how many elements of an
/// `rows x cols` space each bank stores (must be perfectly balanced for
/// any valid MAF — asserted by theory tests, visualised by examples).
pub fn bank_heatmap(maf: &ModuleAssignment, rows: usize, cols: usize) -> Vec<usize> {
    let mut load = vec![0usize; maf.lanes()];
    for i in 0..rows {
        for j in 0..cols {
            load[maf.assign_linear(i, j)] += 1;
        }
    }
    load
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_on_reo_conflicts() {
        let maf = ModuleAssignment::new(AccessScheme::ReO, 2, 4);
        let row: Vec<(usize, usize)> = (0..8).map(|j| (0, j)).collect();
        let r = analyse(&maf, &row);
        assert!(!r.conflict_free());
        assert_eq!(r.cycles_needed, 2, "ReO folds a row onto 4 banks twice");
        assert_eq!(r.banks_touched, 4);
        assert_eq!(r.efficiency(8), 0.5);
    }

    #[test]
    fn row_on_rero_is_free() {
        let maf = ModuleAssignment::new(AccessScheme::ReRo, 2, 4);
        let row: Vec<(usize, usize)> = (0..8).map(|j| (3, j)).collect();
        let r = analyse(&maf, &row);
        assert!(r.conflict_free());
        assert_eq!(r.banks_touched, 8);
        assert_eq!(r.efficiency(8), 1.0);
    }

    #[test]
    fn rank_schemes_puts_roco_first_for_columns() {
        let col: Vec<(usize, usize)> = (0..8).map(|i| (i, 3)).collect();
        let ranked = rank_schemes(2, 4, &col);
        let winner = ranked[0].0;
        assert!(
            winner == AccessScheme::RoCo || winner == AccessScheme::ReCo,
            "column access must rank a column-capable scheme first, got {winner}"
        );
        assert_eq!(ranked[0].1.cycles_needed, 1);
        // ReO and ReRo must be strictly worse.
        let reo = ranked
            .iter()
            .find(|(s, _)| *s == AccessScheme::ReO)
            .unwrap();
        assert!(reo.1.cycles_needed > 1);
    }

    #[test]
    fn heatmap_is_balanced_for_all_schemes() {
        for scheme in AccessScheme::ALL {
            let maf = ModuleAssignment::new(scheme, 2, 4);
            let load = bank_heatmap(&maf, 16, 16);
            assert!(load.iter().all(|&c| c == 32), "{scheme}: {load:?}");
        }
    }

    #[test]
    fn empty_group() {
        let maf = ModuleAssignment::new(AccessScheme::ReO, 2, 4);
        let r = analyse(&maf, &[]);
        assert_eq!(r.cycles_needed, 0);
        assert!(r.conflict_free());
        assert_eq!(r.efficiency(8), 1.0);
    }

    #[test]
    fn irregular_shape_cost() {
        // An L-shaped group of 12 elements: no scheme serves it in one
        // cycle (12 > 8 lanes), but good schemes need exactly 2.
        let mut coords: Vec<(usize, usize)> = (0..8).map(|j| (0, j)).collect();
        coords.extend((1..5).map(|i| (i, 0)));
        let ranked = rank_schemes(2, 4, &coords);
        assert!(ranked[0].1.cycles_needed >= 2);
        assert!(ranked[0].1.cycles_needed <= 3);
    }
}
