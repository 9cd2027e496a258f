//! Intra-bank addressing — the block `A` of Fig. 3.
//!
//! After the MAF decides *which* bank stores element `(i, j)`, the
//! addressing function decides *where inside that bank* it lives. PolyMem
//! uses one uniform function for all five schemes:
//!
//! ```text
//! A(i, j) = (i / p) * (cols / q) + (j / q)
//! ```
//!
//! i.e. the linear index of the aligned `p x q` tile containing `(i, j)`.
//! On power-of-two grids (every grid the paper uses) the two divisions are
//! shifts; the result is the same on every grid.
//! Every scheme in [`crate::maf`] assigns exactly one element of each aligned
//! tile to each bank, so `(bank, A)` is a bijection from the logical space to
//! the physical storage (machine-checked by `theory::addressing_injective`).

/// The intra-bank addressing function for a fixed geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressingFunction {
    p: usize,
    q: usize,
    /// `(log2 p, log2 q)` when both are powers of two.
    shifts: Option<(u32, u32)>,
    /// Number of tile columns: `cols / q`.
    tile_cols: usize,
}

impl AddressingFunction {
    /// Build the addressing function for a `p x q` bank grid backing an
    /// `rows x cols` logical space.
    ///
    /// # Panics
    /// Panics if the logical space is not tileable (`rows % p != 0` or
    /// `cols % q != 0`); [`crate::config::PolyMemConfig`] validates this and
    /// reports a proper error before construction.
    pub fn new(p: usize, q: usize, rows: usize, cols: usize) -> Self {
        assert!(p > 0 && q > 0, "bank grid must be non-empty");
        assert!(
            rows.is_multiple_of(p) && cols.is_multiple_of(q),
            "logical space {rows}x{cols} must tile by the {p}x{q} bank grid"
        );
        let shifts = (p.is_power_of_two() && q.is_power_of_two())
            .then(|| (p.trailing_zeros(), q.trailing_zeros()));
        Self {
            p,
            q,
            shifts,
            tile_cols: cols / q,
        }
    }

    /// Intra-bank address of logical element `(i, j)`.
    #[inline]
    pub fn address(&self, i: usize, j: usize) -> usize {
        let (ti, tj) = match self.shifts {
            Some((sp, sq)) => (i >> sp, j >> sq),
            None => (i / self.p, j / self.q),
        };
        ti * self.tile_cols + tj
    }

    /// Number of elements each bank must hold
    /// (`(rows / p) * (cols / q)` = number of tiles).
    #[inline]
    pub fn bank_depth(&self, rows: usize) -> usize {
        (rows / self.p) * self.tile_cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_walks_tiles_row_major() {
        let a = AddressingFunction::new(2, 4, 8, 16);
        // 16 cols / 4 = 4 tile columns.
        assert_eq!(a.address(0, 0), 0);
        assert_eq!(a.address(0, 4), 1);
        assert_eq!(a.address(0, 15), 3);
        assert_eq!(a.address(2, 0), 4);
        assert_eq!(a.address(7, 15), 3 * 4 + 3);
    }

    #[test]
    fn constant_within_tile() {
        let a = AddressingFunction::new(2, 4, 8, 16);
        let base = a.address(2, 4);
        for di in 0..2 {
            for dj in 0..4 {
                assert_eq!(a.address(2 + di, 4 + dj), base);
            }
        }
    }

    #[test]
    fn shifts_agree_with_division() {
        // Power-of-two grids shift, the rest divide; both give the tile
        // index, far origins included.
        for (p, q) in [(2, 4), (4, 2), (1, 8), (8, 8), (3, 4), (2, 3), (5, 7)] {
            let a = AddressingFunction::new(p, q, 4 * p, 6 * q);
            assert_eq!(
                a.shifts.is_some(),
                p.is_power_of_two() && q.is_power_of_two()
            );
            let probes = (0..64).chain([(1 << 40) - 1, 1 << 40, (1 << 40) + 5]);
            for i in probes.clone() {
                for j in probes.clone() {
                    let want = (i / p) * 6 + j / q;
                    assert_eq!(a.address(i, j), want, "{p}x{q} at ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn bank_depth_counts_tiles() {
        let a = AddressingFunction::new(2, 4, 8, 16);
        assert_eq!(a.bank_depth(8), 16);
        let a = AddressingFunction::new(2, 8, 170 * 2, 512);
        // STREAM geometry: each bank holds (340/2)*(512/8) elements.
        assert_eq!(a.bank_depth(170 * 2), 170 * 64);
    }

    #[test]
    #[should_panic(expected = "must tile")]
    fn rejects_untileable_space() {
        let _ = AddressingFunction::new(2, 4, 7, 16);
    }
}
