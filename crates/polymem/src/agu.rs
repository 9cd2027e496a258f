//! Address Generation Unit — the block `AGU` of Fig. 3.
//!
//! The AGU expands a [`ParallelAccess`] (origin `(i, j)` plus `AccType`) into
//! the coordinates of all `p*q` accessed elements, in the canonical lane
//! order (left-to-right, top-to-bottom — the `DataIn`/`DataOut` ordering the
//! paper fixes for read/write consistency).

use crate::error::{PolyMemError, Result};
use crate::scheme::{AccessPattern, ParallelAccess};

/// The AGU for a fixed `p x q` geometry over an `rows x cols` logical space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Agu {
    p: usize,
    q: usize,
    rows: usize,
    cols: usize,
}

impl Agu {
    /// Build an AGU.
    pub fn new(p: usize, q: usize, rows: usize, cols: usize) -> Self {
        Self { p, q, rows, cols }
    }

    /// Number of lanes (`p * q`), i.e. elements per parallel access.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.p * self.q
    }

    /// Bank-grid rows `p`.
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Bank-grid columns `q`.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Bounds-check `access` without expanding coordinates.
    ///
    /// Returns [`PolyMemError::OutOfBounds`] if any element of the pattern
    /// falls outside the logical space (including the leftward reach of a
    /// secondary diagonal). This is the whole per-access guard of the
    /// compiled-plan path, where routing is replayed from a cached plan and
    /// the coordinates themselves are never materialised.
    pub fn check_bounds(&self, access: ParallelAccess) -> Result<()> {
        let n = self.lanes();
        let (i0, j0) = (access.i, access.j);
        match access.pattern {
            AccessPattern::Rectangle => self.check_extent(i0, j0, self.p, self.q),
            AccessPattern::TransposedRectangle => self.check_extent(i0, j0, self.q, self.p),
            AccessPattern::Row => self.check_extent(i0, j0, 1, n),
            AccessPattern::Column => self.check_extent(i0, j0, n, 1),
            AccessPattern::MainDiagonal => self.check_extent(i0, j0, n, n),
            AccessPattern::SecondaryDiagonal => {
                // Origin is the top-right element; lanes walk down-left.
                let Some(left) = j0.checked_sub(n - 1) else {
                    return Err(PolyMemError::OutOfBounds {
                        i: coord(i0),
                        j: coord(j0) - (n as i64 - 1),
                        rows: self.rows,
                        cols: self.cols,
                    });
                };
                self.check_extent(i0, left, n, n)
            }
        }
    }

    /// Expand `access` into per-lane coordinates, appended to `out` (which is
    /// cleared first). Allocation-free when `out` has capacity for
    /// [`Self::lanes`] entries; callers on the hot path reuse one buffer.
    ///
    /// Bounds are checked up front via [`Self::check_bounds`].
    pub fn expand_into(&self, access: ParallelAccess, out: &mut Vec<(usize, usize)>) -> Result<()> {
        self.check_bounds(access)?;
        out.clear();
        let n = self.lanes();
        let (i0, j0) = (access.i, access.j);
        match access.pattern {
            AccessPattern::Rectangle => {
                for a in 0..self.p {
                    for b in 0..self.q {
                        out.push((i0 + a, j0 + b));
                    }
                }
            }
            AccessPattern::TransposedRectangle => {
                for a in 0..self.q {
                    for b in 0..self.p {
                        out.push((i0 + a, j0 + b));
                    }
                }
            }
            AccessPattern::Row => {
                for k in 0..n {
                    out.push((i0, j0 + k));
                }
            }
            AccessPattern::Column => {
                for k in 0..n {
                    out.push((i0 + k, j0));
                }
            }
            AccessPattern::MainDiagonal => {
                for k in 0..n {
                    out.push((i0 + k, j0 + k));
                }
            }
            AccessPattern::SecondaryDiagonal => {
                for k in 0..n {
                    out.push((i0 + k, j0 - k));
                }
            }
        }
        Ok(())
    }

    /// Allocating convenience wrapper around [`Self::expand_into`].
    pub fn expand(&self, access: ParallelAccess) -> Result<Vec<(usize, usize)>> {
        let mut v = Vec::with_capacity(self.lanes());
        self.expand_into(access, &mut v)?;
        Ok(v)
    }

    /// The origins at which `pattern` fits the logical space: `i <= i_max`
    /// and `j_min <= j <= j_max`, or `None` when it fits nowhere. An origin
    /// passes [`Self::check_bounds`] exactly when it lies in this box.
    pub(crate) fn origins(&self, pattern: AccessPattern) -> Option<(usize, usize, usize)> {
        let n = self.lanes();
        let (di, dj, left) = match pattern {
            AccessPattern::Rectangle => (self.p, self.q, 0),
            AccessPattern::TransposedRectangle => (self.q, self.p, 0),
            AccessPattern::Row => (1, n, 0),
            AccessPattern::Column => (n, 1, 0),
            AccessPattern::MainDiagonal => (n, n, 0),
            AccessPattern::SecondaryDiagonal => (n, n, n - 1),
        };
        Some((
            self.rows.checked_sub(di)?,
            left,
            self.cols.checked_sub(dj)? + left,
        ))
    }

    /// Check that the `di x dj` box at `(i0, j0)` fits the logical space;
    /// a box whose far corner overflows `usize` does not.
    fn check_extent(&self, i0: usize, j0: usize, di: usize, dj: usize) -> Result<()> {
        let (last_i, last_j) = (i0.checked_add(di - 1), j0.checked_add(dj - 1));
        if last_i.is_none_or(|i| i >= self.rows) || last_j.is_none_or(|j| j >= self.cols) {
            return Err(PolyMemError::OutOfBounds {
                i: last_i.map_or(i64::MAX, coord),
                j: last_j.map_or(i64::MAX, coord),
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok(())
    }
}

/// A coordinate for an error report, saturating at `i64::MAX`.
fn coord(x: usize) -> i64 {
    i64::try_from(x).unwrap_or(i64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ParallelAccess as PA;

    fn agu() -> Agu {
        Agu::new(2, 4, 8, 16)
    }

    #[test]
    fn rectangle_row_major_order() {
        let coords = agu().expand(PA::rect(1, 2)).unwrap();
        assert_eq!(coords.len(), 8);
        assert_eq!(coords[0], (1, 2));
        assert_eq!(coords[3], (1, 5));
        assert_eq!(coords[4], (2, 2));
        assert_eq!(coords[7], (2, 5));
    }

    #[test]
    fn transposed_rectangle_is_q_by_p() {
        let coords = agu()
            .expand(PA::new(0, 0, AccessPattern::TransposedRectangle))
            .unwrap();
        assert_eq!(coords.len(), 8);
        assert_eq!(coords[1], (0, 1));
        assert_eq!(coords[2], (1, 0)); // 4 rows x 2 cols
        assert_eq!(coords[7], (3, 1));
    }

    #[test]
    fn row_and_column() {
        let row = agu().expand(PA::row(3, 5)).unwrap();
        assert_eq!(row[7], (3, 12));
        let col = agu().expand(PA::col(0, 9)).unwrap();
        assert_eq!(col[7], (7, 9));
    }

    #[test]
    fn diagonals() {
        let main = agu()
            .expand(PA::new(0, 2, AccessPattern::MainDiagonal))
            .unwrap();
        assert_eq!(main[7], (7, 9));
        let sec = agu()
            .expand(PA::new(0, 9, AccessPattern::SecondaryDiagonal))
            .unwrap();
        assert_eq!(sec[0], (0, 9));
        assert_eq!(sec[7], (7, 2));
    }

    #[test]
    fn out_of_bounds_rectangle() {
        let err = agu().expand(PA::rect(7, 0)).unwrap_err();
        assert!(matches!(err, PolyMemError::OutOfBounds { .. }));
    }

    #[test]
    fn out_of_bounds_row_tail() {
        assert!(agu().expand(PA::row(0, 9)).is_err());
        assert!(agu().expand(PA::row(0, 8)).is_ok());
    }

    #[test]
    fn secondary_diagonal_needs_left_room() {
        let err = agu()
            .expand(PA::new(0, 6, AccessPattern::SecondaryDiagonal))
            .unwrap_err();
        match err {
            PolyMemError::OutOfBounds { j, .. } => assert!(j < 0),
            other => panic!("expected OutOfBounds, got {other}"),
        }
    }

    #[test]
    fn expand_into_reuses_buffer() {
        let agu = agu();
        let mut buf = Vec::with_capacity(agu.lanes());
        agu.expand_into(PA::rect(0, 0), &mut buf).unwrap();
        let ptr = buf.as_ptr();
        agu.expand_into(PA::rect(2, 4), &mut buf).unwrap();
        assert_eq!(ptr, buf.as_ptr(), "no reallocation on reuse");
        assert_eq!(buf[0], (2, 4));
    }

    #[test]
    fn check_bounds_agrees_with_expand() {
        let agu = agu();
        for pattern in AccessPattern::ALL {
            for i in 0..10 {
                for j in 0..18 {
                    let a = PA::new(i, j, pattern);
                    assert_eq!(
                        agu.check_bounds(a).is_ok(),
                        agu.expand(a).is_ok(),
                        "{pattern} at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn origin_box_is_check_bounds() {
        for (p, q, rows, cols) in [(2, 4, 8, 16), (4, 2, 16, 8), (3, 2, 6, 4), (2, 2, 2, 2)] {
            let agu = Agu::new(p, q, rows, cols);
            let far = [usize::MAX - 1, usize::MAX];
            for pattern in AccessPattern::ALL {
                let fits = agu.origins(pattern);
                for i in (0..rows + 3).chain(far) {
                    for j in (0..cols + 3).chain(far) {
                        let boxed = fits.is_some_and(|(i_max, j_min, j_max)| {
                            i <= i_max && (j_min..=j_max).contains(&j)
                        });
                        let ok = agu.check_bounds(PA::new(i, j, pattern)).is_ok();
                        assert_eq!(boxed, ok, "{p}x{q} {pattern:?} at ({i}, {j})");
                    }
                }
            }
        }
    }

    #[test]
    fn origins_near_usize_max_are_out_of_bounds() {
        // The far corner overflows: no wrap-around back into the space.
        for pattern in AccessPattern::ALL {
            for (i, j) in [(usize::MAX - 3, 0), (0, usize::MAX), (5, usize::MAX - 2)] {
                let err = agu().check_bounds(PA::new(i, j, pattern));
                assert!(
                    matches!(err, Err(PolyMemError::OutOfBounds { .. })),
                    "{pattern}"
                );
            }
        }
    }

    #[test]
    fn lane_count_matches_geometry() {
        assert_eq!(Agu::new(2, 8, 16, 16).lanes(), 16);
        assert_eq!(Agu::new(4, 4, 16, 16).lanes(), 16);
    }
}
