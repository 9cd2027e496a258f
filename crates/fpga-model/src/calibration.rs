//! The paper's published measurements, embedded as calibration ground truth.
//!
//! `PAPER_TABLE4` is Table IV of the paper verbatim: maximum clock
//! frequencies (MHz) achieved by Xilinx ISE for every feasible
//! (scheme, size, lanes, ports) configuration on the Maxeler Vectis.
//! The error-statistics helpers compare the `timing` model against it; the
//! `polymem-repro` experiments and EXPERIMENTS.md report the result.

use crate::timing;
use polymem::{AccessScheme, PolyMemConfig};

/// One DSE grid point: `(size_kb, lanes, read_ports)`.
pub type GridPoint = (usize, usize, usize);

/// The 18 feasible grid points, in Table IV column order.
pub const TABLE4_COLUMNS: [GridPoint; 18] = [
    (512, 8, 1),
    (512, 8, 2),
    (512, 8, 3),
    (512, 8, 4),
    (512, 16, 1),
    (512, 16, 2),
    (1024, 8, 1),
    (1024, 8, 2),
    (1024, 8, 3),
    (1024, 8, 4),
    (1024, 16, 1),
    (1024, 16, 2),
    (2048, 8, 1),
    (2048, 8, 2),
    (2048, 16, 1),
    (2048, 16, 2),
    (4096, 8, 1),
    (4096, 16, 1),
];

/// Table IV rows: published Fmax (MHz) per scheme, in
/// [`TABLE4_COLUMNS`] order.
pub const PAPER_TABLE4: [(AccessScheme, [f64; 18]); 5] = [
    (
        AccessScheme::ReO,
        [
            202.0, 160.0, 139.0, 123.0, 185.0, 100.0, 160.0, 123.0, 102.0, 79.0, 144.0, 109.0,
            127.0, 86.0, 127.0, 87.0, 95.0, 95.0,
        ],
    ),
    (
        AccessScheme::ReRo,
        [
            195.0, 166.0, 131.0, 123.0, 168.0, 100.0, 163.0, 125.0, 102.0, 77.0, 140.0, 109.0,
            120.0, 87.0, 120.0, 80.0, 98.0, 91.0,
        ],
    ),
    (
        AccessScheme::ReCo,
        [
            196.0, 155.0, 131.0, 122.0, 157.0, 100.0, 163.0, 121.0, 107.0, 81.0, 156.0, 122.0,
            124.0, 78.0, 124.0, 79.0, 93.0, 93.0,
        ],
    ),
    (
        AccessScheme::RoCo,
        [
            194.0, 150.0, 146.0, 122.0, 161.0, 100.0, 173.0, 135.0, 114.0, 86.0, 145.0, 109.0,
            122.0, 90.0, 122.0, 84.0, 88.0, 91.0,
        ],
    ),
    (
        AccessScheme::ReTr,
        [
            193.0, 158.0, 134.0, 137.0, 159.0, 112.0, 155.0, 121.0, 102.0, 77.0, 146.0, 122.0,
            116.0, 81.0, 114.0, 77.0, 102.0, 102.0,
        ],
    ),
];

/// The standard bank-grid shape the paper uses for each lane count.
pub fn grid_for_lanes(lanes: usize) -> Option<(usize, usize)> {
    match lanes {
        4 => Some((2, 2)),
        8 => Some((2, 4)),
        16 => Some((2, 8)),
        32 => Some((4, 8)),
        _ => None,
    }
}

/// Build the `PolyMemConfig` for a DSE grid point.
pub fn config_for(kb: usize, lanes: usize, ports: usize, scheme: AccessScheme) -> PolyMemConfig {
    let (p, q) = grid_for_lanes(lanes).expect("unsupported lane count");
    PolyMemConfig::from_capacity(kb * 1024, p, q, scheme, ports)
        .expect("paper grid point must be constructible")
}

/// Error statistics of the timing model vs Table IV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitStats {
    /// Mean of |model - paper| / paper.
    pub mean_rel_err: f64,
    /// Median of the same.
    pub median_rel_err: f64,
    /// Maximum of the same.
    pub max_rel_err: f64,
    /// Number of cells compared (90).
    pub cells: usize,
}

/// Per-cell comparison record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellComparison {
    /// The scheme of the Table IV row.
    pub scheme: AccessScheme,
    /// Grid point `(size_kb, lanes, ports)`.
    pub point: GridPoint,
    /// Published Fmax (MHz).
    pub paper_mhz: f64,
    /// Model Fmax (MHz).
    pub model_mhz: f64,
}

impl CellComparison {
    /// Relative error |model - paper| / paper.
    pub fn rel_err(&self) -> f64 {
        (self.model_mhz - self.paper_mhz).abs() / self.paper_mhz
    }
}

/// Compare the default (Table IV-fitted) model against every cell.
pub fn compare_all() -> Vec<CellComparison> {
    compare_all_with(&timing::CriticalPathModel::DEFAULT)
}

/// Compare a custom critical-path model against every Table IV cell.
pub fn compare_all_with(model: &crate::timing::CriticalPathModel) -> Vec<CellComparison> {
    let device = crate::device::FpgaDevice::VIRTEX6_SX475T;
    let mut out = Vec::with_capacity(90);
    for (scheme, row) in PAPER_TABLE4 {
        for (col, &paper_mhz) in TABLE4_COLUMNS.iter().zip(row.iter()) {
            let (kb, lanes, ports) = *col;
            let cfg = config_for(kb, lanes, ports, scheme);
            out.push(CellComparison {
                scheme,
                point: *col,
                paper_mhz,
                model_mhz: model.fmax_mhz(&cfg, &device),
            });
        }
    }
    out
}

/// Aggregate fit statistics for a custom model.
pub fn fit_stats_with(model: &crate::timing::CriticalPathModel) -> FitStats {
    let cells = compare_all_with(model);
    let mut errs: Vec<f64> = cells.iter().map(CellComparison::rel_err).collect();
    errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    FitStats {
        mean_rel_err: errs.iter().sum::<f64>() / errs.len() as f64,
        median_rel_err: errs[errs.len() / 2],
        max_rel_err: *errs.last().unwrap(),
        cells: errs.len(),
    }
}

/// Aggregate fit statistics over all 90 cells (default model).
pub fn fit_stats() -> FitStats {
    fit_stats_with(&timing::CriticalPathModel::DEFAULT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_has_90_cells() {
        assert_eq!(compare_all().len(), 90);
    }

    #[test]
    fn paper_highest_cell_is_reo_512_8_1() {
        let max = compare_all()
            .into_iter()
            .max_by(|a, b| a.paper_mhz.partial_cmp(&b.paper_mhz).unwrap())
            .unwrap();
        assert_eq!(max.paper_mhz, 202.0);
        assert_eq!(max.scheme, AccessScheme::ReO);
        assert_eq!(max.point, (512, 8, 1));
    }

    #[test]
    fn paper_floor_is_77mhz() {
        let min = PAPER_TABLE4
            .iter()
            .flat_map(|(_, row)| row.iter())
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min, 77.0);
    }

    #[test]
    fn model_fit_quality() {
        let s = fit_stats();
        assert!(s.mean_rel_err < 0.08, "mean {}", s.mean_rel_err);
        assert!(s.median_rel_err < 0.06, "median {}", s.median_rel_err);
        assert!(s.max_rel_err < 0.26, "max {}", s.max_rel_err);
    }

    #[test]
    fn paper_nonmonotonic_outlier_documented() {
        // Evidence that Table IV carries P&R noise: in every scheme the
        // smaller 512 KB/16 L/2 P design is no faster than 1024 KB/16 L/2 P.
        let idx_512 = 5; // (512, 16, 2)
        let idx_1024 = 11; // (1024, 16, 2)
        for (scheme, row) in PAPER_TABLE4 {
            assert!(
                row[idx_512] <= row[idx_1024],
                "{scheme}: expected the paper's own non-monotonicity"
            );
        }
    }

    #[test]
    fn config_for_all_grid_points_valid() {
        for &(kb, lanes, ports) in &TABLE4_COLUMNS {
            let cfg = config_for(kb, lanes, ports, AccessScheme::ReTr);
            assert_eq!(cfg.capacity_bytes(), kb * 1024);
            assert_eq!(cfg.lanes(), lanes);
        }
    }
}
