//! The parallel sweep: fan the grid over scoped worker threads, evaluate
//! every point on two axes, and reassemble results in grid order.
//!
//! # Determinism
//!
//! The sweep is byte-deterministic regardless of worker count:
//!
//! * workers pull flat grid indices from a shared atomic cursor, so *which*
//!   worker evaluates a point is racy — but every point's evaluation is a
//!   pure function of the point itself (the synthesis model is closed-form;
//!   each simulation probe builds its own isolated design);
//! * results carry their grid index and are written back into an
//!   index-addressed slot vector, so output order is grid order, not
//!   completion order;
//! * aggregate scheduler statistics are `u64` sums, which commute.
//!
//! Worker count therefore changes wall-clock time and nothing else — a
//! property the determinism integration test pins by comparing report bytes
//! across 1, 2, and N workers.

use crate::measure::SimMeasure;
use dfe_sim::sched::SchedulerStats;
use fpga_model::{evaluate_point, DseGrid, DsePoint, FpgaDevice, SkippedPoint};
use polymem::telemetry::TelemetryRegistry;
use polymem::AccessScheme;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One fully-evaluated grid point: the static synthesis axis plus, for
/// feasible designs, the measured simulation axis.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalPoint {
    /// Capacity in KB.
    pub size_kb: usize,
    /// Lane count.
    pub lanes: usize,
    /// Read ports.
    pub read_ports: usize,
    /// Scheme.
    pub scheme: AccessScheme,
    /// Static axis: the analytic synthesis model.
    pub synth: fpga_model::SynthesisReport,
    /// Measured axis: event-driven simulation (feasible points only).
    pub sim: Option<SimMeasure>,
}

impl EvalPoint {
    /// Whether the design fits and routes.
    pub fn feasible(&self) -> bool {
        self.synth.feasible
    }

    /// Measured aggregate read bandwidth in GiB/s, if simulated.
    pub fn measured_read_gibps(&self) -> Option<f64> {
        self.sim.as_ref().map(|s| s.read_gibps)
    }
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The grid to explore.
    pub grid: DseGrid,
    /// Target device.
    pub device: FpgaDevice,
    /// Worker threads (>= 1).
    pub workers: usize,
    /// Chunks per simulation probe (longer runs amortize fill/drain).
    pub sim_chunks: usize,
}

impl SweepConfig {
    /// The CI grid: reduced but trend-complete (see [`DseGrid::quick`]),
    /// short simulation passes.
    pub fn quick() -> Self {
        Self {
            grid: DseGrid::quick(),
            device: FpgaDevice::VIRTEX6_SX475T,
            workers: default_workers(),
            sim_chunks: 64,
        }
    }

    /// The full grid: Table III plus the 32-lane arm, longer simulation
    /// passes for tighter efficiency numbers.
    pub fn full() -> Self {
        Self {
            grid: DseGrid::extended(),
            device: FpgaDevice::VIRTEX6_SX475T,
            workers: default_workers(),
            sim_chunks: 256,
        }
    }

    /// The same configuration with an explicit worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// Worker count matched to the machine.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Everything a sweep produced. `points` and `skipped` are in grid order;
/// `points.len() + skipped.len()` equals the grid's cell count.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The swept grid.
    pub grid: DseGrid,
    /// Chunks per simulation probe.
    pub sim_chunks: usize,
    /// Device name.
    pub device_name: &'static str,
    /// Evaluated points (feasible and infeasible), grid order.
    pub points: Vec<EvalPoint>,
    /// Unevaluable grid cells with reasons, grid order.
    pub skipped: Vec<SkippedPoint>,
    /// Aggregate event-driven scheduler behaviour across all probes.
    pub sched: SchedulerStats,
}

impl SweepResult {
    /// Feasible points, grid order.
    pub fn feasible(&self) -> impl Iterator<Item = &EvalPoint> {
        self.points.iter().filter(|p| p.feasible())
    }
}

/// Evaluate one cell on both axes. Pure: no shared state, no ambient
/// randomness — the foundation of the sweep's determinism.
fn eval_cell(
    cell: (usize, usize, usize, AccessScheme),
    device: &FpgaDevice,
    sim_chunks: usize,
) -> Result<EvalPoint, SkippedPoint> {
    let (size_kb, lanes, read_ports, scheme) = cell;
    let DsePoint { report, .. } = evaluate_point(size_kb, lanes, read_ports, scheme, device)?;
    let sim = if report.feasible {
        SimMeasure::probe(&report, sim_chunks)
    } else {
        None
    };
    Ok(EvalPoint {
        size_kb,
        lanes,
        read_ports,
        scheme,
        synth: report,
        sim,
    })
}

/// Run the sweep. Progress and per-worker utilization are instrumented
/// through `registry` (pass a throwaway registry if unobserved).
pub fn sweep(cfg: &SweepConfig, registry: &TelemetryRegistry) -> SweepResult {
    // Grid order (`DseGrid::cells`) for the workers, report and Pareto front.
    let cells: Vec<_> = cfg.grid.cells().collect();
    let workers = cfg.workers.max(1);

    registry
        .gauge("dse_grid_cells", vec![])
        .set(cells.len() as i64);
    let done = registry.counter("dse_points_done", vec![]);
    let cycles_hist = registry.histogram(
        "dse_sim_cycles",
        vec![],
        &[64, 128, 256, 512, 1024, 4096, 16384],
    );

    let cursor = AtomicUsize::new(0);
    // Per-worker result batches, merged by grid index afterwards.
    let batches: Vec<WorkerBatch> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let cursor = &cursor;
                let cells = &cells;
                let device = &cfg.device;
                let sim_chunks = cfg.sim_chunks;
                let done = done.clone();
                let cycles_hist = cycles_hist.clone();
                let worker_points =
                    registry.counter("dse_worker_points_total", vec![("worker", w.to_string())]);
                s.spawn(move || {
                    let mut batch = WorkerBatch::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= cells.len() {
                            break;
                        }
                        let r = eval_cell(cells[i], device, sim_chunks);
                        if let Ok(p) = &r {
                            if let Some(m) = &p.sim {
                                batch.sched.merge(&m.sched);
                                cycles_hist.observe(m.cycles);
                            }
                        }
                        done.inc();
                        worker_points.inc();
                        batch.slots.push((i, r));
                    }
                    batch
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Reassemble in grid order: index-addressed slots, then a stable walk.
    let mut slots: Vec<Option<Result<EvalPoint, SkippedPoint>>> = vec![None; cells.len()];
    let mut sched = SchedulerStats::default();
    for batch in batches {
        sched.merge(&batch.sched);
        for (i, r) in batch.slots {
            debug_assert!(slots[i].is_none(), "cell {i} evaluated twice");
            slots[i] = Some(r);
        }
    }
    let mut points = Vec::with_capacity(cells.len());
    let mut skipped = Vec::new();
    for slot in slots {
        match slot.expect("cell never evaluated") {
            Ok(p) => points.push(p),
            Err(s) => skipped.push(s),
        }
    }
    assert_eq!(points.len() + skipped.len(), cells.len());

    SweepResult {
        grid: cfg.grid.clone(),
        sim_chunks: cfg.sim_chunks,
        device_name: cfg.device.name,
        points,
        skipped,
        sched,
    }
}

#[derive(Default)]
struct WorkerBatch {
    slots: Vec<(usize, Result<EvalPoint, SkippedPoint>)>,
    sched: SchedulerStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_covers_grid() {
        let cfg = SweepConfig::quick().with_workers(2);
        let r = sweep(&cfg, &TelemetryRegistry::new());
        assert_eq!(r.points.len() + r.skipped.len(), cfg.grid.len());
        assert!(r.skipped.is_empty(), "quick grid has no unplannable cells");
        // Every feasible point carries a simulation measurement.
        for p in r.feasible() {
            let m = p.sim.as_ref().expect("feasible point not simulated");
            assert!(m.cycles >= m.ideal_cycles);
            assert!(m.read_gibps > 0.0);
        }
        // Infeasible points are not simulated.
        assert!(r
            .points
            .iter()
            .filter(|p| !p.feasible())
            .all(|p| p.sim.is_none()));
    }

    #[test]
    fn sweep_aggregates_scheduler_stats() {
        let r = sweep(&SweepConfig::quick(), &TelemetryRegistry::new());
        let total: u64 = r
            .feasible()
            .map(|p| p.sim.as_ref().unwrap().sched.total_cycles())
            .sum();
        assert_eq!(r.sched.total_cycles(), total);
        assert!(r.sched.total_cycles() > 0);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let base = sweep(
            &SweepConfig::quick().with_workers(1),
            &TelemetryRegistry::new(),
        );
        let par = sweep(
            &SweepConfig::quick().with_workers(3),
            &TelemetryRegistry::new(),
        );
        assert_eq!(base.points, par.points);
        assert_eq!(base.skipped, par.skipped);
        assert_eq!(base.sched, par.sched);
    }

    #[test]
    fn telemetry_counts_points() {
        let reg = TelemetryRegistry::new();
        let cfg = SweepConfig::quick().with_workers(2);
        let r = sweep(&cfg, &reg);
        let snap = reg.snapshot();
        let done = snap
            .metrics
            .iter()
            .find(|m| m.name == "dse_points_done")
            .expect("dse_points_done registered");
        let total = (r.points.len() + r.skipped.len()) as u64;
        assert_eq!(done.value, polymem::telemetry::SampleValue::Counter(total));
        // One utilization counter per worker, summing to the same total.
        let per_worker: u64 = snap
            .metrics
            .iter()
            .filter(|m| m.name == "dse_worker_points_total")
            .map(|m| match m.value {
                polymem::telemetry::SampleValue::Counter(v) => v,
                _ => 0,
            })
            .sum();
        assert_eq!(per_worker, total);
    }
}
