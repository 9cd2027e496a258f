//! Design Space Exploration (paper §IV, Table III).
//!
//! Enumerates the DSE grid — capacity × lanes × read ports × scheme — and
//! synthesizes every point. The default grid is exactly Table III
//! (512..4096 KB, 8/16 lanes, 1..4 ports); [`DseGrid::extended`] adds the
//! 32-lane arm mentioned in the paper's contributions list.

use crate::calibration::grid_for_lanes;
use crate::device::FpgaDevice;
use crate::synthesis::{synthesize, SynthesisReport};
use polymem::{AccessScheme, PolyMemConfig};

/// The DSE parameter grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DseGrid {
    /// Capacities to sweep, in KB.
    pub sizes_kb: Vec<usize>,
    /// Lane counts to sweep.
    pub lanes: Vec<usize>,
    /// Read-port counts to sweep.
    pub read_ports: Vec<usize>,
    /// Schemes to sweep.
    pub schemes: Vec<AccessScheme>,
}

impl DseGrid {
    /// Table III of the paper.
    pub fn paper() -> Self {
        Self {
            sizes_kb: vec![512, 1024, 2048, 4096],
            lanes: vec![8, 16],
            read_ports: vec![1, 2, 3, 4],
            schemes: AccessScheme::ALL.to_vec(),
        }
    }

    /// Paper grid plus the 32-lane arm (contributions list: "scales with the
    /// number of lanes (up to 32)").
    pub fn extended() -> Self {
        let mut g = Self::paper();
        g.lanes.push(32);
        g
    }

    /// Reduced grid for CI sweeps: drops the 2048 KB capacity and the
    /// 3-port column but keeps every scheme, both paper lane counts, the
    /// 32-lane arm, and the endpoints of every trend (capacity 512→4096,
    /// ports 1→4) so all the report's claims remain checkable.
    pub fn quick() -> Self {
        Self {
            sizes_kb: vec![512, 1024, 4096],
            lanes: vec![8, 16, 32],
            read_ports: vec![1, 2, 4],
            schemes: AccessScheme::ALL.to_vec(),
        }
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.sizes_kb.len() * self.lanes.len() * self.read_ports.len() * self.schemes.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every cell as `(size_kb, lanes, read_ports, scheme)`, capacity
    /// outermost and scheme innermost. This one walk defines "grid order"
    /// for every sweep over the grid.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize, usize, AccessScheme)> + '_ {
        self.sizes_kb.iter().flat_map(move |&size_kb| {
            self.lanes.iter().flat_map(move |&lanes| {
                self.read_ports.iter().flat_map(move |&read_ports| {
                    self.schemes
                        .iter()
                        .map(move |&scheme| (size_kb, lanes, read_ports, scheme))
                })
            })
        })
    }
}

/// One DSE result row.
#[derive(Debug, Clone, PartialEq)]
pub struct DsePoint {
    /// Capacity in KB.
    pub size_kb: usize,
    /// Lane count.
    pub lanes: usize,
    /// Read ports.
    pub read_ports: usize,
    /// Scheme.
    pub scheme: AccessScheme,
    /// Synthesis outcome.
    pub report: SynthesisReport,
}

/// A grid point that could not be evaluated, and why. `explore_all` returns
/// these alongside the evaluated points so sweeps can account for every cell
/// of the grid instead of silently shrinking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedPoint {
    /// Capacity in KB.
    pub size_kb: usize,
    /// Lane count.
    pub lanes: usize,
    /// Read ports.
    pub read_ports: usize,
    /// Scheme.
    pub scheme: AccessScheme,
    /// Human-readable reason the point was skipped.
    pub reason: String,
}

/// Evaluate a single grid point: map the lane count to a (p, q) bank grid,
/// build the configuration, and synthesize it. Errors become a
/// [`SkippedPoint`] carrying the reason.
pub fn evaluate_point(
    size_kb: usize,
    lanes: usize,
    read_ports: usize,
    scheme: AccessScheme,
    device: &FpgaDevice,
) -> Result<DsePoint, SkippedPoint> {
    let skip = |reason: String| SkippedPoint {
        size_kb,
        lanes,
        read_ports,
        scheme,
        reason,
    };
    let (p, q) =
        grid_for_lanes(lanes).ok_or_else(|| skip(format!("no bank grid for {lanes} lanes")))?;
    let cfg = PolyMemConfig::from_capacity(size_kb * 1024, p, q, scheme, read_ports)
        .map_err(|e| skip(format!("invalid configuration: {e}")))?;
    Ok(DsePoint {
        size_kb,
        lanes,
        read_ports,
        scheme,
        report: synthesize(&cfg, device),
    })
}

/// The outcome of a full-coverage sweep: every grid cell is either in
/// `points` or in `skipped`, never silently dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration {
    /// Successfully evaluated points (feasible and infeasible alike).
    pub points: Vec<DsePoint>,
    /// Grid cells that could not be evaluated, with reasons.
    pub skipped: Vec<SkippedPoint>,
}

/// Run the DSE over `grid` on `device`, accounting for every grid cell.
/// Infeasible points are included in `points` with `report.feasible ==
/// false`; unevaluable cells (unplannable lane counts, invalid capacities)
/// land in `skipped` with a reason. The invariant
/// `points.len() + skipped.len() == grid.len()` always holds.
pub fn explore_all(grid: &DseGrid, device: &FpgaDevice) -> Exploration {
    let mut points = Vec::with_capacity(grid.len());
    let mut skipped = Vec::new();
    for (size_kb, lanes, read_ports, scheme) in grid.cells() {
        match evaluate_point(size_kb, lanes, read_ports, scheme, device) {
            Ok(p) => points.push(p),
            Err(s) => skipped.push(s),
        }
    }
    debug_assert_eq!(points.len() + skipped.len(), grid.len());
    Exploration { points, skipped }
}

/// Run the DSE over `grid` on `device`. Infeasible points are included with
/// `report.feasible == false` so callers can show the frontier. Grid cells
/// that cannot be evaluated at all are logged to stderr (use
/// [`explore_all`] to get them programmatically).
pub fn explore(grid: &DseGrid, device: &FpgaDevice) -> Vec<DsePoint> {
    let Exploration { points, skipped } = explore_all(grid, device);
    for s in &skipped {
        eprintln!(
            "dse: skipped {}KB/{}L/{}P/{}: {}",
            s.size_kb,
            s.lanes,
            s.read_ports,
            s.scheme.name(),
            s.reason
        );
    }
    points
}

/// Run the paper's DSE on the Vectis device.
pub fn explore_paper() -> Vec<DsePoint> {
    explore(&DseGrid::paper(), &FpgaDevice::VIRTEX6_SX475T)
}

/// The best feasible point by a caller-supplied metric. NaN metric values
/// are treated as "no measurement" and never win (previously they panicked
/// the comparator).
pub fn best_by<F: Fn(&DsePoint) -> f64>(points: &[DsePoint], metric: F) -> Option<&DsePoint> {
    points
        .iter()
        .filter(|p| p.report.feasible && !metric(p).is_nan())
        .max_by(|a, b| metric(a).total_cmp(&metric(b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_size() {
        let g = DseGrid::paper();
        assert_eq!(g.len(), 4 * 2 * 4 * 5);
        assert!(!g.is_empty());
    }

    #[test]
    fn cells_walk_capacity_outermost_and_scheme_innermost() {
        let (g, s) = (DseGrid::quick(), AccessScheme::ALL);
        let cells: Vec<_> = g.cells().collect();
        assert_eq!(cells.len(), g.len());
        assert_eq!(cells[..2], [(512, 8, 1, s[0]), (512, 8, 1, s[1])]);
        assert_eq!(cells[s.len()], (512, 8, 2, s[0]));
        assert_eq!(cells[g.len() - 1], (4096, 32, 4, s[4]));
    }

    #[test]
    fn explore_covers_grid() {
        let pts = explore_paper();
        assert_eq!(pts.len(), 160);
        let feasible = pts.iter().filter(|p| p.report.feasible).count();
        // 18 feasible grid points x 5 schemes.
        assert_eq!(feasible, 90);
    }

    #[test]
    fn best_read_bandwidth_is_small_capacity_multi_port() {
        // Paper Fig. 5: the peak aggregated read bandwidth (~32 GB/s) comes
        // from a 512 KB memory with multiple read ports. (The paper's exact
        // winner, 8L/4P ReTr at 137 MHz, sits in a noisy Table IV cell; the
        // deterministic model picks the structurally-equivalent 16L/2P
        // neighbour — same 512 KB capacity, same lanes*ports product.)
        let pts = explore_paper();
        let best = best_by(&pts, |p| p.report.read_bandwidth_mbps).unwrap();
        assert_eq!(best.size_kb, 512, "best read BW should be smallest memory");
        assert_eq!(best.lanes * best.read_ports, 32);
        let gbps = best.report.read_bandwidth_gbps();
        assert!(gbps > 29.0 && gbps < 35.0, "peak {gbps} GB/s should be ~32");
    }

    #[test]
    fn best_write_bandwidth_is_16_lane() {
        let pts = explore_paper();
        let best = best_by(&pts, |p| p.report.write_bandwidth_mbps).unwrap();
        assert_eq!(best.lanes, 16);
        assert_eq!(best.size_kb, 512);
    }

    #[test]
    fn four_mb_memory_is_instantiable() {
        // Paper contribution: "allowing the instantiation of a 4MB parallel
        // memory on the Maxeler Vectis DFE".
        let pts = explore_paper();
        assert!(pts.iter().any(|p| p.size_kb == 4096 && p.report.feasible));
    }

    #[test]
    fn explore_all_accounts_for_every_cell() {
        // A grid with an unplannable lane count: the bad cells must show up
        // in `skipped` with a reason, not vanish.
        let mut g = DseGrid::paper();
        g.lanes.push(7); // no (p, q) bank grid
        let ex = explore_all(&g, &FpgaDevice::VIRTEX6_SX475T);
        assert_eq!(ex.points.len() + ex.skipped.len(), g.len());
        let bad = ex.skipped.iter().filter(|s| s.lanes == 7).count();
        assert_eq!(bad, 4 * 4 * 5, "every 7-lane cell skipped");
        assert!(ex.skipped.iter().all(|s| s.reason.contains("bank grid")));
    }

    #[test]
    fn best_by_ignores_nan_metrics() {
        let pts = explore_paper();
        // A metric that is NaN everywhere finds nothing (and doesn't panic).
        assert!(best_by(&pts, |_| f64::NAN).is_none());
        // A metric that is NaN on the true winner falls back to the rest.
        let peak = best_by(&pts, |p| p.report.read_bandwidth_mbps)
            .unwrap()
            .clone();
        let second = best_by(&pts, |p| {
            if p == &peak {
                f64::NAN
            } else {
                p.report.read_bandwidth_mbps
            }
        })
        .unwrap();
        assert_ne!(second, &peak);
    }

    #[test]
    fn quick_grid_keeps_trend_endpoints() {
        let g = DseGrid::quick();
        assert!(g.sizes_kb.contains(&512) && g.sizes_kb.contains(&4096));
        assert!(g.read_ports.contains(&1) && g.read_ports.contains(&4));
        assert!(g.lanes.contains(&32));
        assert_eq!(g.schemes.len(), AccessScheme::ALL.len());
        assert!(g.len() < DseGrid::extended().len());
    }

    #[test]
    fn extended_grid_includes_32_lanes() {
        let pts = explore(&DseGrid::extended(), &FpgaDevice::VIRTEX6_SX475T);
        let l32: Vec<_> = pts.iter().filter(|p| p.lanes == 32).collect();
        assert!(!l32.is_empty());
        // 32-lane designs are wiring-monsters; most should be infeasible.
        let feas = l32.iter().filter(|p| p.report.feasible).count();
        assert!(
            feas < l32.len() / 2,
            "{feas}/{} 32-lane points feasible",
            l32.len()
        );
    }
}
