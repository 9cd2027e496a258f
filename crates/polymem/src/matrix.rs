//! A typed matrix façade over PolyMem.
//!
//! The paper motivates the 2D address space so that "programmers …easily
//! place data structures such as vectors and matrices in this smart
//! buffer". [`PolyMatrix`] is that programmer-facing layer: a dense 2D
//! matrix whose bulk operations ride the parallel ports, with scalar
//! indexing for convenience and shaped reads/writes for speed.

use crate::config::PolyMemConfig;
use crate::error::{PolyMemError, Result};
use crate::mem::PolyMem;
use crate::scheme::{AccessPattern, AccessScheme, ParallelAccess};

/// A dense `rows x cols` matrix stored in a PolyMem.
#[derive(Debug, Clone)]
pub struct PolyMatrix<T> {
    mem: PolyMem<T>,
}

impl<T: Copy + Default + PartialEq> PolyMatrix<T> {
    /// Create a zeroed matrix over a `p x q` bank grid with `scheme`.
    pub fn new(rows: usize, cols: usize, p: usize, q: usize, scheme: AccessScheme) -> Result<Self> {
        let cfg = PolyMemConfig::new(rows, cols, p, q, scheme, 1)?;
        Ok(Self {
            mem: PolyMem::new(cfg)?,
        })
    }

    /// Create from row-major data.
    pub fn from_row_major(
        data: &[T],
        rows: usize,
        cols: usize,
        p: usize,
        q: usize,
        scheme: AccessScheme,
    ) -> Result<Self> {
        let mut m = Self::new(rows, cols, p, q, scheme)?;
        m.mem.load_row_major(data)?;
        Ok(m)
    }

    /// Matrix rows.
    pub fn rows(&self) -> usize {
        self.mem.config().rows
    }

    /// Matrix columns.
    pub fn cols(&self) -> usize {
        self.mem.config().cols
    }

    /// Lanes per parallel access.
    pub fn lanes(&self) -> usize {
        self.mem.config().lanes()
    }

    /// Scalar read.
    pub fn get(&self, i: usize, j: usize) -> Result<T> {
        self.mem.get(i, j)
    }

    /// Scalar write.
    pub fn set(&mut self, i: usize, j: usize, v: T) -> Result<()> {
        self.mem.set(i, j, v)
    }

    /// Row and column transfers move whole parallel accesses, so the
    /// extent they sweep (`cols` for a row, `rows` for a column) must be a
    /// multiple of the lane count; otherwise [`PolyMemError::InvalidGeometry`].
    fn check_whole_accesses(&self, line: &str, extent: usize) -> Result<()> {
        let lanes = self.lanes();
        if extent.is_multiple_of(lanes) {
            return Ok(());
        }
        Err(PolyMemError::InvalidGeometry {
            reason: format!(
                "a {line} of {extent} elements is not a whole number of {lanes}-lane accesses"
            ),
        })
    }

    /// Read a full matrix row through row accesses (requires a row-capable
    /// scheme: ReRo or RoCo). `cols` must be a multiple of the lane count
    /// ([`PolyMemError::InvalidGeometry`] otherwise).
    pub fn row(&mut self, i: usize) -> Result<Vec<T>> {
        let lanes = self.lanes();
        let cols = self.cols();
        self.check_whole_accesses("row", cols)?;
        let mut out = Vec::with_capacity(cols);
        let mut buf = vec![T::default(); lanes];
        for j0 in (0..cols).step_by(lanes) {
            self.mem
                .read_into(0, ParallelAccess::row(i, j0), &mut buf)?;
            out.extend_from_slice(&buf);
        }
        Ok(out)
    }

    /// Read a full matrix column through column accesses (ReCo or RoCo).
    /// `rows` must be a multiple of the lane count
    /// ([`PolyMemError::InvalidGeometry`] otherwise).
    pub fn col(&mut self, j: usize) -> Result<Vec<T>> {
        let lanes = self.lanes();
        let rows = self.rows();
        self.check_whole_accesses("column", rows)?;
        let mut out = Vec::with_capacity(rows);
        let mut buf = vec![T::default(); lanes];
        for i0 in (0..rows).step_by(lanes) {
            self.mem
                .read_into(0, ParallelAccess::col(i0, j), &mut buf)?;
            out.extend_from_slice(&buf);
        }
        Ok(out)
    }

    /// Read the main diagonal starting at `(i0, j0)`, `len` elements
    /// (ReRo/ReCo; `len` must be a multiple of the lane count,
    /// [`PolyMemError::InvalidGeometry`] otherwise).
    pub fn diagonal(&mut self, i0: usize, j0: usize, len: usize) -> Result<Vec<T>> {
        let lanes = self.lanes();
        self.check_whole_accesses("diagonal", len)?;
        let mut out = Vec::with_capacity(len);
        let mut buf = vec![T::default(); lanes];
        for k in (0..len).step_by(lanes) {
            self.mem.read_into(
                0,
                ParallelAccess::new(i0 + k, j0 + k, AccessPattern::MainDiagonal),
                &mut buf,
            )?;
            out.extend_from_slice(&buf);
        }
        Ok(out)
    }

    /// Overwrite a full row through row accesses. `values` must hold
    /// exactly one row ([`PolyMemError::WrongLaneCount`] otherwise) and
    /// `cols` must be a multiple of the lane count
    /// ([`PolyMemError::InvalidGeometry`] otherwise); on either error the
    /// matrix is unchanged.
    pub fn set_row(&mut self, i: usize, values: &[T]) -> Result<()> {
        let lanes = self.lanes();
        if values.len() != self.cols() {
            return Err(PolyMemError::WrongLaneCount {
                got: values.len(),
                expected: self.cols(),
            });
        }
        self.check_whole_accesses("row", values.len())?;
        for (c, chunk) in values.chunks(lanes).enumerate() {
            self.mem.write(ParallelAccess::row(i, c * lanes), chunk)?;
        }
        Ok(())
    }

    /// Overwrite a full column through column accesses. `values` must
    /// hold exactly one column ([`PolyMemError::WrongLaneCount`] otherwise)
    /// and `rows` must be a multiple of the lane count
    /// ([`PolyMemError::InvalidGeometry`] otherwise); on either error the
    /// matrix is unchanged.
    pub fn set_col(&mut self, j: usize, values: &[T]) -> Result<()> {
        let lanes = self.lanes();
        if values.len() != self.rows() {
            return Err(PolyMemError::WrongLaneCount {
                got: values.len(),
                expected: self.rows(),
            });
        }
        self.check_whole_accesses("column", values.len())?;
        for (c, chunk) in values.chunks(lanes).enumerate() {
            self.mem.write(ParallelAccess::col(c * lanes, j), chunk)?;
        }
        Ok(())
    }

    /// Dump as a row-major `Vec`.
    pub fn to_row_major(&self) -> Vec<T> {
        self.mem.dump_row_major()
    }

    /// Blocked transpose through `ReTr` accesses: read each `q x p` block of
    /// `self` in transposed shape, reorder lanes, write the `p x q` block of
    /// the result — two parallel accesses per `p*q` elements. Requires a
    /// scheme with transposed-rectangle support (`ReTr`); the matrix must be
    /// square.
    pub fn transposed(&mut self) -> crate::error::Result<PolyMatrix<T>> {
        let cfg = *self.mem.config();
        let (n, p, q) = (cfg.rows, cfg.p, cfg.q);
        if cfg.rows != cfg.cols {
            return Err(PolyMemError::InvalidGeometry {
                reason: format!(
                    "transpose needs a square matrix, got {}x{}",
                    cfg.rows, cfg.cols
                ),
            });
        }
        let mut out = PolyMatrix::new(n, n, p, q, cfg.scheme)?;
        let mut reordered = vec![T::default(); p * q];
        for bi in (0..n).step_by(q) {
            for bj in (0..n).step_by(p) {
                let block = self.mem.read(
                    0,
                    ParallelAccess::new(bi, bj, AccessPattern::TransposedRectangle),
                )?;
                // block lane order is row-major over the q x p source block;
                // transposed, it is the destination's p x q block with axes
                // swapped.
                for a in 0..q {
                    for b in 0..p {
                        reordered[b * q + a] = block[a * p + b];
                    }
                }
                out.mem.write(ParallelAccess::rect(bj, bi), &reordered)?;
            }
        }
        Ok(out)
    }

    /// Iterate over rows (each fetched through the parallel ports).
    pub fn rows_iter(&mut self) -> RowsIter<'_, T> {
        RowsIter { m: self, next: 0 }
    }

    /// Borrow the underlying memory (e.g. for stats or region operations).
    pub fn memory(&mut self) -> &mut PolyMem<T> {
        &mut self.mem
    }

    /// Plan-cache activity of the underlying memory.
    pub fn plan_stats(&self) -> crate::plan::PlanCacheStats {
        self.mem.plan_stats()
    }
}

/// Iterator over matrix rows via parallel accesses.
pub struct RowsIter<'a, T> {
    m: &'a mut PolyMatrix<T>,
    next: usize,
}

impl<T: Copy + Default + PartialEq> Iterator for RowsIter<'_, T> {
    type Item = Vec<T>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.m.rows() {
            return None;
        }
        let row = self.m.row(self.next).ok()?;
        self.next += 1;
        Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> PolyMatrix<u64> {
        let data: Vec<u64> = (0..16 * 16).collect();
        PolyMatrix::from_row_major(&data, 16, 16, 2, 4, AccessScheme::RoCo).unwrap()
    }

    #[test]
    fn row_and_col_reads() {
        let mut m = matrix();
        let r = m.row(3).unwrap();
        assert_eq!(r, (48..64).collect::<Vec<u64>>());
        let c = m.col(5).unwrap();
        assert_eq!(c, (0..16).map(|i| i * 16 + 5).collect::<Vec<u64>>());
    }

    #[test]
    fn diagonal_read_on_rero() {
        let data: Vec<u64> = (0..16 * 16).collect();
        let mut m = PolyMatrix::from_row_major(&data, 16, 16, 2, 4, AccessScheme::ReRo).unwrap();
        let d = m.diagonal(0, 0, 16).unwrap();
        assert_eq!(d, (0..16).map(|k| k * 17).collect::<Vec<u64>>());
        // 12 elements are one and a half 8-lane accesses: rejected before
        // any read, not rounded up to 16.
        let reads = m.mem.stats().reads;
        assert!(matches!(
            m.diagonal(0, 0, 12),
            Err(PolyMemError::InvalidGeometry { .. })
        ));
        assert_eq!(m.mem.stats().reads, reads, "nothing read");
    }

    #[test]
    fn set_row_set_col() {
        let mut m = matrix();
        m.set_row(0, &[7u64; 16]).unwrap();
        assert_eq!(m.row(0).unwrap(), vec![7u64; 16]);
        m.set_col(2, &[9u64; 16]).unwrap();
        assert_eq!(m.col(2).unwrap(), vec![9u64; 16]);
        // Row 0 now has the column write at position 2.
        let r0 = m.row(0).unwrap();
        assert_eq!(r0[2], 9);
        assert_eq!(r0[3], 7);
        // A too-short or too-long row/column is rejected, not written.
        let before = m.to_row_major();
        for len in [15, 17] {
            let vals = vec![5u64; len];
            let want = PolyMemError::WrongLaneCount {
                got: len,
                expected: 16,
            };
            assert_eq!(m.set_row(1, &vals), Err(want.clone()));
            assert_eq!(m.set_col(1, &vals), Err(want));
        }
        assert_eq!(
            m.to_row_major(),
            before,
            "rejected writes leave the matrix unchanged"
        );
    }

    #[test]
    fn row_and_col_ops_reject_partial_accesses_unchanged() {
        // 12 columns over 8 lanes: a row is one and a half row accesses.
        let data: Vec<u64> = (0..16 * 12).collect();
        let mut m = PolyMatrix::from_row_major(&data, 16, 12, 2, 4, AccessScheme::RoCo).unwrap();
        let partial =
            |e: Option<PolyMemError>| matches!(e, Some(PolyMemError::InvalidGeometry { .. }));
        assert!(partial(m.set_row(0, &[7; 12]).err()));
        assert!(partial(m.row(0).err()));
        assert_eq!(
            m.to_row_major(),
            data,
            "rejected row write leaves it unchanged"
        );
        assert_eq!(
            m.col(5).unwrap(),
            (0..16).map(|i| i * 12 + 5).collect::<Vec<_>>()
        );
        // The transposed geometry: 12 rows, so columns are the partial ones.
        let mut t = PolyMatrix::from_row_major(&data, 12, 16, 2, 4, AccessScheme::RoCo).unwrap();
        assert!(partial(t.set_col(0, &[7; 12]).err()));
        assert!(partial(t.col(0).err()));
        assert_eq!(
            t.to_row_major(),
            data,
            "rejected column write leaves it unchanged"
        );
        assert_eq!(t.row(3).unwrap(), (48..64).collect::<Vec<_>>());
    }

    #[test]
    fn rows_iter_covers_matrix() {
        let mut m = matrix();
        let rows: Vec<Vec<u64>> = m.rows_iter().collect();
        assert_eq!(rows.len(), 16);
        assert_eq!(rows[15][15], 255);
    }

    #[test]
    fn scalar_access() {
        let mut m = matrix();
        m.set(4, 4, 999).unwrap();
        assert_eq!(m.get(4, 4).unwrap(), 999);
        assert!(m.get(16, 0).is_err());
    }

    #[test]
    fn scheme_pattern_enforcement_propagates() {
        // ReRo matrix: columns unsupported.
        let data: Vec<u64> = (0..256).collect();
        let mut m = PolyMatrix::from_row_major(&data, 16, 16, 2, 4, AccessScheme::ReRo).unwrap();
        assert!(m.col(0).is_err());
        assert!(m.row(0).is_ok());
    }

    #[test]
    fn transposed_matches_scalar() {
        let n = 16;
        let data: Vec<u64> = (0..(n * n) as u64).collect();
        let mut m = PolyMatrix::from_row_major(&data, n, n, 2, 4, AccessScheme::ReTr).unwrap();
        let t = m.transposed().unwrap();
        let got = t.to_row_major();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(got[i * n + j], data[j * n + i], "({i},{j})");
            }
        }
        // Involution: transposing twice restores the original.
        let mut t2 = t;
        assert_eq!(t2.transposed().unwrap().to_row_major(), data);
    }

    #[test]
    fn transpose_needs_retr_and_square() {
        let data: Vec<u64> = (0..256).collect();
        let mut roco = PolyMatrix::from_row_major(&data, 16, 16, 2, 4, AccessScheme::RoCo).unwrap();
        assert!(roco.transposed().is_err(), "RoCo lacks transposed rects");
        let data: Vec<u64> = (0..8 * 16).collect();
        let mut rect = PolyMatrix::from_row_major(&data, 8, 16, 2, 4, AccessScheme::ReTr).unwrap();
        assert!(rect.transposed().is_err(), "non-square rejected");
    }

    #[test]
    fn to_row_major_roundtrip() {
        let data: Vec<u64> = (0..256).map(|x| x * 3).collect();
        let m = PolyMatrix::from_row_major(&data, 16, 16, 2, 4, AccessScheme::RoCo).unwrap();
        assert_eq!(m.to_row_major(), data);
    }
}
