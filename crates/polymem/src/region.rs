//! Logical 2D regions (paper Fig. 2): named areas of the address space that
//! an application reads/writes with one or more parallel accesses.
//!
//! A [`Region`] is shape + origin + size. [`Region::coords`] /
//! [`Region::coords_iter`] enumerate its elements; [`Region::plan_accesses`]
//! produces the sequence of [`ParallelAccess`]es that covers the region under
//! a given geometry — the "R0 needs several accesses, R1–R9 need one"
//! decomposition of Fig. 2. [`Region::canonical_index`] is the closed-form
//! inverse of the enumeration (coordinate → position in canonical order),
//! which is what lets `region_plan` and the bulk operations avoid building a
//! coordinate `HashMap` per call.

use crate::error::{PolyMemError, Result};
use crate::scheme::{AccessPattern, ParallelAccess};

/// Shape of a region in the logical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionShape {
    /// `rows x cols` dense block.
    Block {
        /// Block rows.
        rows: usize,
        /// Block columns.
        cols: usize,
    },
    /// Horizontal strip of `len` elements.
    Row {
        /// Elements in the strip.
        len: usize,
    },
    /// Vertical strip of `len` elements.
    Col {
        /// Elements in the strip.
        len: usize,
    },
    /// Down-right diagonal of `len` elements.
    MainDiag {
        /// Elements in the diagonal.
        len: usize,
    },
    /// Down-left diagonal of `len` elements (origin = top-right).
    SecondaryDiag {
        /// Elements in the diagonal.
        len: usize,
    },
}

impl RegionShape {
    /// The parallel-access pattern that covers this shape.
    pub fn pattern(self) -> AccessPattern {
        match self {
            RegionShape::Block { .. } => AccessPattern::Rectangle,
            RegionShape::Row { .. } => AccessPattern::Row,
            RegionShape::Col { .. } => AccessPattern::Column,
            RegionShape::MainDiag { .. } => AccessPattern::MainDiagonal,
            RegionShape::SecondaryDiag { .. } => AccessPattern::SecondaryDiagonal,
        }
    }

    /// Dense shard index of the shape kind (ignoring sizes), for sharded
    /// caches keyed per shape family. Always `< Self::KINDS`.
    pub fn kind_index(self) -> usize {
        match self {
            RegionShape::Block { .. } => 0,
            RegionShape::Row { .. } => 1,
            RegionShape::Col { .. } => 2,
            RegionShape::MainDiag { .. } => 3,
            RegionShape::SecondaryDiag { .. } => 4,
        }
    }

    /// Number of shape kinds (for sizing per-kind shard arrays).
    pub const KINDS: usize = 5;
}

/// A named region: Fig. 2's `R0`..`R9`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    /// Region label (e.g. `"R0"`).
    pub name: String,
    /// Row of the region origin.
    pub i: usize,
    /// Column of the region origin.
    pub j: usize,
    /// Region shape.
    pub shape: RegionShape,
}

/// Iterator over a region's coordinates in canonical order (see
/// [`Region::coords_iter`]). Cheap to construct; computes each coordinate
/// from its index, so no allocation is involved.
#[derive(Debug, Clone)]
pub struct RegionCoords {
    i: usize,
    j: usize,
    shape: RegionShape,
    next: usize,
    len: usize,
}

impl Iterator for RegionCoords {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        if self.next >= self.len {
            return None;
        }
        let k = self.next;
        self.next += 1;
        Some(coord_at(self.i, self.j, self.shape, k))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.len - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for RegionCoords {}

/// Coordinate of canonical element `k` (caller guarantees validity).
#[inline]
fn coord_at(i0: usize, j0: usize, shape: RegionShape, k: usize) -> (usize, usize) {
    match shape {
        RegionShape::Block { cols, .. } => (i0 + k / cols, j0 + k % cols),
        RegionShape::Row { .. } => (i0, j0 + k),
        RegionShape::Col { .. } => (i0 + k, j0),
        RegionShape::MainDiag { .. } => (i0 + k, j0 + k),
        RegionShape::SecondaryDiag { .. } => (i0 + k, j0 - k),
    }
}

impl Region {
    /// Construct a region.
    pub fn new(name: impl Into<String>, i: usize, j: usize, shape: RegionShape) -> Self {
        Self {
            name: name.into(),
            i,
            j,
            shape,
        }
    }

    /// Number of elements in the region.
    pub fn len(&self) -> usize {
        match self.shape {
            RegionShape::Block { rows, cols } => rows * cols,
            RegionShape::Row { len }
            | RegionShape::Col { len }
            | RegionShape::MainDiag { len }
            | RegionShape::SecondaryDiag { len } => len,
        }
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Check that every element has a representable coordinate. The only
    /// failure mode is a secondary diagonal whose leftward walk would cross
    /// column 0: element `k` lives at `(i + k, j - k)`, so the origin column
    /// must be at least `len - 1`. The space bounds (`rows`/`cols`) are not
    /// known here, so the error reports the would-be negative column against
    /// a `0 x 0` space.
    pub fn validate(&self) -> Result<()> {
        if let RegionShape::SecondaryDiag { len } = self.shape {
            if len > 0 && self.j < len - 1 {
                return Err(PolyMemError::OutOfBounds {
                    i: (self.i + len - 1) as i64,
                    j: self.j as i64 - (len as i64 - 1),
                    rows: 0,
                    cols: 0,
                });
            }
        }
        Ok(())
    }

    /// Enumerate the coordinates of every element, in canonical order.
    ///
    /// Errors with [`PolyMemError::OutOfBounds`] if the region itself is
    /// unrepresentable (a secondary diagonal reaching past column 0) instead
    /// of underflowing.
    pub fn coords(&self) -> Result<Vec<(usize, usize)>> {
        Ok(self.coords_iter()?.collect())
    }

    /// Iterate the coordinates of every element in canonical order without
    /// allocating (the iterator computes each coordinate from its index).
    ///
    /// Errors like [`Self::coords`] for unrepresentable regions.
    pub fn coords_iter(&self) -> Result<RegionCoords> {
        self.validate()?;
        Ok(RegionCoords {
            i: self.i,
            j: self.j,
            shape: self.shape,
            next: 0,
            len: self.len(),
        })
    }

    /// Position of `(i, j)` in the region's canonical element order, or
    /// `None` if the coordinate is not part of the region. Closed form —
    /// the constant-time inverse of [`Self::coords_iter`].
    pub fn canonical_index(&self, i: usize, j: usize) -> Option<usize> {
        let di = i.checked_sub(self.i)?;
        match self.shape {
            RegionShape::Block { rows, cols } => {
                let dj = j.checked_sub(self.j)?;
                (di < rows && dj < cols).then_some(di * cols + dj)
            }
            RegionShape::Row { len } => {
                let dj = j.checked_sub(self.j)?;
                (di == 0 && dj < len).then_some(dj)
            }
            RegionShape::Col { len } => (di < len && j == self.j).then_some(di),
            RegionShape::MainDiag { len } => {
                let dj = j.checked_sub(self.j)?;
                (di < len && dj == di).then_some(di)
            }
            RegionShape::SecondaryDiag { len } => (di < len && j + di == self.j).then_some(di),
        }
    }

    /// Decompose the region into parallel accesses of the matching pattern
    /// for a `p x q` geometry. The region's extents must be whole multiples
    /// of the pattern extent (otherwise the scheduler crate, which handles
    /// ragged covers, should be used instead). Unrepresentable regions (a
    /// secondary diagonal crossing column 0) return
    /// [`PolyMemError::OutOfBounds`] instead of underflowing.
    pub fn plan_accesses(&self, p: usize, q: usize) -> Result<Vec<ParallelAccess>> {
        let n = p * q;
        let ragged = |what: &str| {
            Err(PolyMemError::InvalidGeometry {
                reason: format!(
                    "region {} ({what}) does not tile by the {p}x{q} access geometry",
                    self.name
                ),
            })
        };
        match self.shape {
            RegionShape::Block { rows, cols } => {
                if rows % p != 0 || cols % q != 0 {
                    return ragged("block");
                }
                let mut v = Vec::with_capacity((rows / p) * (cols / q));
                for a in (0..rows).step_by(p) {
                    for b in (0..cols).step_by(q) {
                        v.push(ParallelAccess::rect(self.i + a, self.j + b));
                    }
                }
                Ok(v)
            }
            RegionShape::Row { len } => {
                if len % n != 0 {
                    return ragged("row");
                }
                Ok((0..len)
                    .step_by(n)
                    .map(|k| ParallelAccess::row(self.i, self.j + k))
                    .collect())
            }
            RegionShape::Col { len } => {
                if len % n != 0 {
                    return ragged("column");
                }
                Ok((0..len)
                    .step_by(n)
                    .map(|k| ParallelAccess::col(self.i + k, self.j))
                    .collect())
            }
            RegionShape::MainDiag { len } => {
                if len % n != 0 {
                    return ragged("main diagonal");
                }
                Ok((0..len)
                    .step_by(n)
                    .map(|k| {
                        ParallelAccess::new(self.i + k, self.j + k, AccessPattern::MainDiagonal)
                    })
                    .collect())
            }
            RegionShape::SecondaryDiag { len } => {
                if len % n != 0 {
                    return ragged("secondary diagonal");
                }
                self.validate()?;
                // validate() proves j >= len - 1, so every k below is
                // subtractable; keep the checked form anyway so a future
                // validate() regression degrades to an error, not underflow.
                (0..len)
                    .step_by(n)
                    .map(|k| {
                        let j = self.j.checked_sub(k).ok_or(PolyMemError::OutOfBounds {
                            i: (self.i + k) as i64,
                            j: self.j as i64 - k as i64,
                            rows: 0,
                            cols: 0,
                        })?;
                        Ok(ParallelAccess::new(
                            self.i + k,
                            j,
                            AccessPattern::SecondaryDiagonal,
                        ))
                    })
                    .collect()
            }
        }
    }

    /// Extents of the region relative to its origin:
    /// `(max_down, max_right, max_left)` — the furthest row offset below the
    /// origin, column offset right of it, and column offset left of it (only
    /// secondary diagonals reach left). The region is in bounds of a
    /// `rows x cols` space iff `i + max_down < rows`, `j + max_right < cols`
    /// and `j >= max_left`. Empty regions report all zeros.
    pub fn extents(&self) -> (usize, usize, usize) {
        match self.shape {
            RegionShape::Block { rows, cols } => {
                (rows.saturating_sub(1), cols.saturating_sub(1), 0)
            }
            RegionShape::Row { len } => (0, len.saturating_sub(1), 0),
            RegionShape::Col { len } => (len.saturating_sub(1), 0, 0),
            RegionShape::MainDiag { len } => (len.saturating_sub(1), len.saturating_sub(1), 0),
            RegionShape::SecondaryDiag { len } => (len.saturating_sub(1), 0, len.saturating_sub(1)),
        }
    }

    /// Conservative bounding-box overlap test (via [`Self::extents`]): may
    /// report overlap for disjoint diagonal strips whose boxes intersect. A
    /// false positive only steers copies onto the exact interleaved path,
    /// never breaking correctness.
    pub fn overlaps(&self, other: &Region) -> bool {
        let (ad, ar, al) = self.extents();
        let (bd, br, bl) = other.extents();
        let (ai, aj) = (self.i as isize, self.j as isize);
        let (bi, bj) = (other.i as isize, other.j as isize);
        let rows_meet = ai <= bi + bd as isize && bi <= ai + ad as isize;
        let cols_meet =
            aj - al as isize <= bj + br as isize && bj - bl as isize <= aj + ar as isize;
        rows_meet && cols_meet
    }
}

/// The ten-region example of Fig. 2, scaled to fit an `8 x 9`-ish logical
/// space with an 8-bank geometry. Used by examples and docs.
pub fn fig2_regions() -> Vec<Region> {
    vec![
        Region::new("R0", 0, 0, RegionShape::Block { rows: 4, cols: 4 }),
        Region::new("R1", 0, 5, RegionShape::Row { len: 8 }),
        Region::new("R2", 2, 5, RegionShape::Row { len: 8 }),
        Region::new("R3", 5, 0, RegionShape::Col { len: 8 }),
        Region::new("R4", 5, 2, RegionShape::Col { len: 8 }),
        Region::new("R5", 4, 4, RegionShape::MainDiag { len: 8 }),
        Region::new("R6", 4, 12, RegionShape::SecondaryDiag { len: 8 }),
        Region::new("R7", 6, 6, RegionShape::Block { rows: 2, cols: 4 }),
        Region::new("R8", 8, 0, RegionShape::Block { rows: 4, cols: 2 }),
        Region::new("R9", 10, 5, RegionShape::Row { len: 8 }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_coords_and_len() {
        let r = Region::new("b", 1, 2, RegionShape::Block { rows: 2, cols: 3 });
        assert_eq!(r.len(), 6);
        assert!(!r.is_empty());
        let c = r.coords().unwrap();
        assert_eq!(c[0], (1, 2));
        assert_eq!(c[5], (2, 4));
    }

    #[test]
    fn coords_iter_matches_coords_for_all_shapes() {
        for r in fig2_regions() {
            let eager = r.coords().unwrap();
            let lazy: Vec<_> = r.coords_iter().unwrap().collect();
            assert_eq!(eager, lazy, "{}", r.name);
            assert_eq!(r.coords_iter().unwrap().len(), r.len());
        }
    }

    #[test]
    fn canonical_index_inverts_coords() {
        for r in fig2_regions() {
            for (k, (i, j)) in r.coords_iter().unwrap().enumerate() {
                assert_eq!(r.canonical_index(i, j), Some(k), "{} elem {k}", r.name);
            }
            // A coordinate well outside every region maps to None.
            assert_eq!(r.canonical_index(500, 500), None);
        }
        // Off-diagonal / off-strip coordinates inside the bounding box.
        let d = Region::new("d", 2, 2, RegionShape::MainDiag { len: 4 });
        assert_eq!(d.canonical_index(3, 4), None);
        let s = Region::new("s", 0, 7, RegionShape::SecondaryDiag { len: 4 });
        assert_eq!(s.canonical_index(1, 7), None);
        assert_eq!(s.canonical_index(1, 6), Some(1));
        let row = Region::new("r", 3, 0, RegionShape::Row { len: 8 });
        assert_eq!(row.canonical_index(4, 0), None);
    }

    #[test]
    fn secondary_diag_underflow_is_an_error_not_a_panic() {
        // Regression: j < len - 1 used to underflow (debug panic / release
        // wrap) in coords() and plan_accesses().
        let r = Region::new("R6", 0, 3, RegionShape::SecondaryDiag { len: 8 });
        let err = r.coords().unwrap_err();
        match err {
            PolyMemError::OutOfBounds { j, .. } => assert_eq!(j, 3 - 7),
            other => panic!("expected OutOfBounds, got {other}"),
        }
        assert!(matches!(
            r.coords_iter().unwrap_err(),
            PolyMemError::OutOfBounds { .. }
        ));
        assert!(matches!(
            r.plan_accesses(2, 4).unwrap_err(),
            PolyMemError::OutOfBounds { .. }
        ));
        // A diagonal with exactly enough room is fine.
        let ok = Region::new("ok", 0, 7, RegionShape::SecondaryDiag { len: 8 });
        assert!(ok.coords().is_ok());
        assert!(ok.plan_accesses(2, 4).is_ok());
    }

    #[test]
    fn plan_block_accesses() {
        let r = Region::new("R0", 0, 0, RegionShape::Block { rows: 4, cols: 8 });
        let acc = r.plan_accesses(2, 4).unwrap();
        assert_eq!(acc.len(), 4); // (4/2) * (8/4)
        assert_eq!(acc[0], ParallelAccess::rect(0, 0));
        assert_eq!(acc[3], ParallelAccess::rect(2, 4));
    }

    #[test]
    fn plan_row_accesses() {
        let r = Region::new("R1", 3, 0, RegionShape::Row { len: 16 });
        let acc = r.plan_accesses(2, 4).unwrap();
        assert_eq!(acc.len(), 2);
        assert_eq!(acc[1], ParallelAccess::row(3, 8));
    }

    #[test]
    fn plan_secondary_diag() {
        let r = Region::new("R6", 0, 15, RegionShape::SecondaryDiag { len: 16 });
        let acc = r.plan_accesses(2, 4).unwrap();
        assert_eq!(acc.len(), 2);
        assert_eq!(acc[1].i, 8);
        assert_eq!(acc[1].j, 7);
    }

    #[test]
    fn ragged_region_rejected() {
        let r = Region::new("x", 0, 0, RegionShape::Row { len: 10 });
        assert!(r.plan_accesses(2, 4).is_err());
    }

    #[test]
    fn planned_accesses_cover_exactly() {
        let r = Region::new("R0", 2, 4, RegionShape::Block { rows: 4, cols: 8 });
        let mut covered: Vec<(usize, usize)> = Vec::new();
        for a in r.plan_accesses(2, 4).unwrap() {
            for di in 0..2 {
                for dj in 0..4 {
                    covered.push((a.i + di, a.j + dj));
                }
            }
        }
        covered.sort_unstable();
        let mut want = r.coords().unwrap();
        want.sort_unstable();
        assert_eq!(covered, want);
    }

    #[test]
    fn extents_bound_the_region() {
        for r in fig2_regions() {
            let (down, right, left) = r.extents();
            let max_i = r.coords_iter().unwrap().map(|(i, _)| i).max().unwrap();
            let max_j = r.coords_iter().unwrap().map(|(_, j)| j).max().unwrap();
            let min_j = r.coords_iter().unwrap().map(|(_, j)| j).min().unwrap();
            assert_eq!(r.i + down, max_i, "{}", r.name);
            assert_eq!(r.j + right, max_j, "{}", r.name);
            assert_eq!(r.j - left, min_j, "{}", r.name);
        }
    }

    #[test]
    fn shape_pattern_and_kind_index() {
        let shapes = [
            RegionShape::Block { rows: 2, cols: 4 },
            RegionShape::Row { len: 8 },
            RegionShape::Col { len: 8 },
            RegionShape::MainDiag { len: 8 },
            RegionShape::SecondaryDiag { len: 8 },
        ];
        let mut seen = [false; RegionShape::KINDS];
        for s in shapes {
            assert!(s.kind_index() < RegionShape::KINDS);
            seen[s.kind_index()] = true;
        }
        assert!(seen.iter().all(|&x| x), "kind_index is a bijection");
        assert_eq!(RegionShape::Row { len: 8 }.pattern(), AccessPattern::Row);
    }

    #[test]
    fn fig2_has_ten_regions() {
        let rs = fig2_regions();
        assert_eq!(rs.len(), 10);
        assert!(rs.iter().all(|r| !r.is_empty()));
        assert_eq!(rs[0].name, "R0");
    }
}
