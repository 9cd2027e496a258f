//! Vector placement inside PolyMem (paper §V).
//!
//! The STREAM design splits PolyMem into three equally-sized regions holding
//! the vectors A, B and C. Each vector is stored row-major inside its
//! region; with 8 lanes and row accesses (the RoCo scheme), element chunk
//! `k` of a vector is one parallel access.
//!
//! The paper's exact geometry is reproduced as [`StreamLayout::paper_geometry`]:
//! 512-column rows, 170 rows per vector region (170 x 512 x 8 B ≈ 700 KB per
//! array, ~2 MB total — "the storage effectively available" for the 2-port
//! STREAM design).
//!
//! [`vector_regions`] frames one vector as whole-region transfers, for the
//! burst controller and for host-side region replay.

use polymem::{AccessScheme, BankLayout, ParallelAccess, PolyMemConfig, Region, RegionShape};

/// Placement of one vector inside the 2D logical space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorLayout {
    /// First logical row of the vector's region.
    pub base_row: usize,
    /// Logical columns of the memory (elements per row).
    pub cols: usize,
    /// Lanes per access.
    pub lanes: usize,
    /// Vector length in elements.
    pub len: usize,
}

impl VectorLayout {
    /// Number of `lanes`-element chunks (parallel accesses) in the vector.
    /// The vector length must be a whole number of chunks and rows.
    pub fn chunks(&self) -> usize {
        self.len / self.lanes
    }

    /// Coordinates of element `k`.
    pub fn coord(&self, k: usize) -> (usize, usize) {
        (self.base_row + k / self.cols, k % self.cols)
    }

    /// The row access that moves chunk `c` (elements `c*lanes ..`).
    pub fn access(&self, c: usize) -> ParallelAccess {
        let k = c * self.lanes;
        let (i, j) = self.coord(k);
        ParallelAccess::row(i, j)
    }

    /// Rows occupied by this vector.
    pub fn rows_used(&self) -> usize {
        self.len.div_ceil(self.cols)
    }
}

/// The regions covering one vector of a [`StreamLayout`], in element order.
///
/// A vector is row-major inside its region, so when its rows tile the bank
/// grid (`rows_used % p == 0`) the whole vector is a single `Block` region
/// whose canonical order *is* the vector order. Otherwise each occupied row
/// becomes one `Row` region (layouts guarantee `cols % lanes == 0`, so every
/// row strip is plannable).
pub fn vector_regions(v: &VectorLayout, p: usize, tag: &str) -> Vec<Region> {
    let rows = v.rows_used();
    if rows.is_multiple_of(p) {
        return vec![Region::new(
            tag,
            v.base_row,
            0,
            RegionShape::Block { rows, cols: v.cols },
        )];
    }
    (0..rows)
        .map(|r| {
            Region::new(
                format!("{tag}-row{r}"),
                v.base_row + r,
                0,
                RegionShape::Row { len: v.cols },
            )
        })
        .collect()
}

/// The three-vector STREAM memory: configuration plus A/B/C layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamLayout {
    /// PolyMem configuration.
    pub config: PolyMemConfig,
    /// Vector A.
    pub a: VectorLayout,
    /// Vector B.
    pub b: VectorLayout,
    /// Vector C.
    pub c: VectorLayout,
}

impl StreamLayout {
    /// Build a layout for vectors of `len` elements each, on a memory with
    /// `cols` columns, `p x q` banks, `read_ports` ports.
    ///
    /// `len` must be a multiple of `cols`, and `cols` a non-zero multiple
    /// of `p*q`, so every chunk is one aligned row access.
    pub fn new(
        len: usize,
        cols: usize,
        p: usize,
        q: usize,
        scheme: AccessScheme,
        read_ports: usize,
    ) -> polymem::Result<Self> {
        let lanes = p * q;
        if cols == 0 || !len.is_multiple_of(cols) || !cols.is_multiple_of(lanes) {
            return Err(polymem::PolyMemError::InvalidGeometry {
                reason: format!(
                    "vector length {len} must tile columns {cols}, columns must tile lanes {lanes}"
                ),
            });
        }
        let region_rows = (len / cols).next_multiple_of(p).max(p);
        let rows = 3 * region_rows;
        let config = PolyMemConfig::new(rows, cols, p, q, scheme, read_ports)?;
        let mk = |r: usize| VectorLayout {
            base_row: r * region_rows,
            cols,
            lanes,
            len,
        };
        Ok(Self {
            config,
            a: mk(0),
            b: mk(1),
            c: mk(2),
        })
    }

    /// The paper's synthesized geometry: RoCo, 2 x 4 banks, 512 columns,
    /// up to 170 rows per vector (87040 elements ≈ 680 KB per vector),
    /// 2 read ports. `len` must be a multiple of 512.
    pub fn paper_geometry(len: usize) -> polymem::Result<Self> {
        if len > 170 * 512 {
            return Err(polymem::PolyMemError::InvalidGeometry {
                reason: format!(
                    "paper geometry limits each vector to {} elements, got {len}",
                    170 * 512
                ),
            });
        }
        Self::new(len, 512, 2, 4, AccessScheme::RoCo, 2)
    }

    /// Maximum vector elements under the paper geometry.
    pub const PAPER_MAX_LEN: usize = 170 * 512;

    /// The same layout over a different flat backing layout. With
    /// `AddrInterleaved` the banks of one parallel access sit adjacent in
    /// host memory, so the region-copy replay's unit-stride runs span whole
    /// rows instead of per-bank segments.
    pub fn with_layout(mut self, layout: BankLayout) -> Self {
        self.config = self.config.with_layout(layout);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_capacity() {
        let l = StreamLayout::paper_geometry(170 * 512).unwrap();
        // ~2 MB total (paper: "2MB of storage effectively available").
        let mb = l.config.capacity_bytes() as f64 / (1024.0 * 1024.0);
        assert!(mb > 1.9 && mb < 2.1, "{mb} MB");
        assert_eq!(l.a.len * 8, 170 * 512 * 8); // ~700 KB per array
        assert_eq!(l.config.scheme, AccessScheme::RoCo);
        assert_eq!(l.config.lanes(), 8);
    }

    #[test]
    fn regions_disjoint() {
        let l = StreamLayout::paper_geometry(4 * 512).unwrap();
        let a_end = l.a.base_row + l.a.rows_used();
        assert!(a_end <= l.b.base_row);
        let b_end = l.b.base_row + l.b.rows_used();
        assert!(b_end <= l.c.base_row);
    }

    #[test]
    fn chunk_access_walks_rows() {
        let l = StreamLayout::new(2 * 512, 512, 2, 4, AccessScheme::RoCo, 1).unwrap();
        let v = l.b;
        assert_eq!(v.chunks(), 128);
        let first = v.access(0);
        assert_eq!((first.i, first.j), (v.base_row, 0));
        let last_in_row = v.access(63);
        assert_eq!((last_in_row.i, last_in_row.j), (v.base_row, 504));
        let next_row = v.access(64);
        assert_eq!((next_row.i, next_row.j), (v.base_row + 1, 0));
    }

    #[test]
    fn coord_of_element() {
        let l = StreamLayout::paper_geometry(512).unwrap();
        assert_eq!(l.c.coord(0), (l.c.base_row, 0));
        assert_eq!(l.c.coord(511), (l.c.base_row, 511));
    }

    #[test]
    fn oversize_rejected() {
        assert!(StreamLayout::paper_geometry(171 * 512).is_err());
        assert!(StreamLayout::new(100, 512, 2, 4, AccessScheme::RoCo, 1).is_err());
        assert!(matches!(
            StreamLayout::new(0, 0, 2, 4, AccessScheme::RoCo, 1),
            Err(polymem::PolyMemError::InvalidGeometry { .. })
        ));
    }

    #[test]
    fn block_cover_when_rows_tile_banks() {
        // 4 rows of 64, p = 2 -> one Block region.
        let l = StreamLayout::new(4 * 64, 64, 2, 4, AccessScheme::RoCo, 1).unwrap();
        let regions = vector_regions(&l.a, l.config.p, "A");
        assert_eq!(regions.len(), 1);
        assert!(matches!(
            regions[0].shape,
            RegionShape::Block { rows: 4, cols: 64 }
        ));
    }

    #[test]
    fn row_cover_when_rows_ragged() {
        // 3 rows of 64, p = 2 -> three Row regions.
        let l = StreamLayout::new(3 * 64, 64, 2, 4, AccessScheme::RoCo, 1).unwrap();
        let regions = vector_regions(&l.a, l.config.p, "A");
        assert_eq!(regions.len(), 3);
        assert!(regions
            .iter()
            .all(|r| matches!(r.shape, RegionShape::Row { len: 64 })));
    }
}
