//! Application access traces: the memory footprint a kernel needs per
//! iteration, as a set of 2D coordinates.
//!
//! §III-A of the paper: *"To customize PolyMem for a given application, we
//! start from the application memory access pattern, for which we find the
//! optimal parallel access schedule."* An [`AccessTrace`] is that pattern.

use polymem::{Region, RegionShape};
use std::collections::BTreeSet;

/// A set of logical coordinates an application accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessTrace {
    /// Deduplicated, sorted coordinates.
    coords: Vec<(usize, usize)>,
    /// Logical-space extent implied by the trace (max + 1).
    rows: usize,
    cols: usize,
}

impl AccessTrace {
    /// Build a trace from arbitrary coordinates (deduplicated).
    pub fn from_coords(coords: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let set: BTreeSet<(usize, usize)> = coords.into_iter().collect();
        let rows = set.iter().map(|&(i, _)| i + 1).max().unwrap_or(0);
        let cols = set.iter().map(|&(_, j)| j + 1).max().unwrap_or(0);
        Self {
            coords: set.into_iter().collect(),
            rows,
            cols,
        }
    }

    /// Build a trace from PolyMem regions (Fig. 2 style). Unrepresentable
    /// regions (a secondary diagonal crossing column 0) contribute nothing.
    pub fn from_regions(regions: &[Region]) -> Self {
        Self::from_coords(
            regions
                .iter()
                .flat_map(|r| r.coords_iter().into_iter().flatten()),
        )
    }

    /// A dense `rows x cols` block at `(i0, j0)`.
    pub fn block(i0: usize, j0: usize, rows: usize, cols: usize) -> Self {
        Self::from_regions(&[Region::new("b", i0, j0, RegionShape::Block { rows, cols })])
    }

    /// A row-major strided sweep: every `stride`-th column of `rows` rows —
    /// the sparse-matrix-ish pattern from the paper's motivation.
    pub fn strided(rows: usize, cols: usize, stride: usize) -> Self {
        assert!(stride > 0);
        Self::from_coords((0..rows).flat_map(|i| (0..cols).step_by(stride).map(move |j| (i, j))))
    }

    /// The coordinates, sorted.
    pub fn coords(&self) -> &[(usize, usize)] {
        &self.coords
    }

    /// Number of distinct elements accessed.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Implied logical rows (max row + 1).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Implied logical cols (max col + 1).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Index of a coordinate in the sorted order, if present.
    pub fn index_of(&self, coord: (usize, usize)) -> Option<usize> {
        self.coords.binary_search(&coord).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_coords_dedups_and_sorts() {
        let t = AccessTrace::from_coords([(1, 1), (0, 0), (1, 1), (0, 2)]);
        assert_eq!(t.coords(), &[(0, 0), (0, 2), (1, 1)]);
        assert_eq!(t.len(), 3);
        assert_eq!((t.rows(), t.cols()), (2, 3));
    }

    #[test]
    fn block_trace() {
        let t = AccessTrace::block(2, 3, 2, 2);
        assert_eq!(t.coords(), &[(2, 3), (2, 4), (3, 3), (3, 4)]);
    }

    #[test]
    fn strided_trace() {
        let t = AccessTrace::strided(2, 8, 4);
        assert_eq!(t.coords(), &[(0, 0), (0, 4), (1, 0), (1, 4)]);
    }

    #[test]
    fn from_regions_matches_fig2() {
        let t = AccessTrace::from_regions(&polymem::region::fig2_regions());
        assert!(!t.is_empty());
        // R0 is 4x4 = 16 elements, the rest are 8 or 16 each; with overlaps
        // deduplicated the total is bounded by the sum.
        assert!(t.len() <= 16 + 9 * 16);
    }

    #[test]
    fn index_of() {
        let t = AccessTrace::block(0, 0, 2, 2);
        assert_eq!(t.index_of((1, 0)), Some(2));
        assert_eq!(t.index_of((5, 5)), None);
    }

    #[test]
    fn empty_trace() {
        let t = AccessTrace::from_coords([]);
        assert!(t.is_empty());
        assert_eq!((t.rows(), t.cols()), (0, 0));
    }
}
