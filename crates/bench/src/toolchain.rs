//! The paper's envisioned toolchain (§VII future work): "analyze
//! applications, determine the requirements and configurations for the most
//! suitable PolyMem based configurations, and enable the seamless
//! integration of these high-bandwidth caching mechanisms".
//!
//! [`recommend`] is that flow end-to-end: application trace → optimal
//! schedule per (scheme, geometry) → best configuration by speedup and
//! efficiency → FPGA synthesis check → a ready-to-instantiate
//! [`polymem::PolyMemConfig`] plus the projected performance.

use fpga_model::{synthesize_vectis, SynthesisReport};
use polymem::PolyMemConfig;
use scheduler::{
    best, multiport_speedup, solve_exact, sweep, AccessTrace, CoverInstance, SweepOptions,
};

/// Toolchain inputs.
#[derive(Debug, Clone)]
pub struct Requirements {
    /// The application's access trace.
    pub trace: AccessTrace,
    /// Capacity the application needs, in bytes.
    pub capacity_bytes: usize,
    /// Read ports to provision (1..=4).
    pub read_ports: usize,
}

/// The toolchain's recommendation.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The configuration to instantiate.
    pub config: PolyMemConfig,
    /// Accesses per pass of the application trace.
    pub schedule_len: usize,
    /// Elements per cycle vs a scalar memory, including multi-port issue.
    pub speedup: f64,
    /// Lane efficiency in `[0, 1]`.
    pub efficiency: f64,
    /// Whether the schedule is proven minimal.
    pub schedule_optimal: bool,
    /// Synthesis outcome on the Vectis device.
    pub synthesis: SynthesisReport,
    /// Projected application data rate: port bandwidth x efficiency, MB/s.
    pub projected_mbps: f64,
}

/// Errors the toolchain can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToolchainError {
    /// No scheme/geometry combination can serve the trace.
    Unservable,
    /// The best-serving configuration does not fit the device.
    Infeasible {
        /// The configuration that was tried.
        tried: Box<PolyMemConfig>,
    },
    /// Configuration construction failed (bad capacity/geometry).
    Config(polymem::PolyMemError),
}

impl std::fmt::Display for ToolchainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToolchainError::Unservable => write!(f, "no PolyMem scheme can serve this trace"),
            ToolchainError::Infeasible { tried } => write!(
                f,
                "best configuration ({} {}x{}, {} ports) does not fit the device",
                tried.scheme, tried.p, tried.q, tried.read_ports
            ),
            ToolchainError::Config(e) => write!(f, "configuration error: {e}"),
        }
    }
}

impl std::error::Error for ToolchainError {}

/// Run the full flow against the paper's DSE grids.
pub fn recommend(req: &Requirements) -> Result<Recommendation, ToolchainError> {
    let opts = SweepOptions::default();
    let results = sweep(&req.trace, req.trace.rows(), req.trace.cols(), &opts);
    let winner = best(&results).ok_or(ToolchainError::Unservable)?;
    let metrics = winner
        .metrics
        .expect("best() only returns servable configs");

    let config = PolyMemConfig::from_capacity(
        req.capacity_bytes,
        winner.p,
        winner.q,
        winner.scheme,
        req.read_ports,
    )
    .map_err(ToolchainError::Config)?;
    let synthesis = synthesize_vectis(&config);
    if !synthesis.feasible {
        return Err(ToolchainError::Infeasible {
            tried: Box::new(config),
        });
    }

    // Multi-port speedup: re-derive the schedule once at the chosen geometry.
    let rows = req.trace.rows().next_multiple_of(winner.p).max(winner.p);
    let cols = req.trace.cols().next_multiple_of(winner.q).max(winner.q);
    let inst = CoverInstance::build(
        req.trace.clone(),
        winner.scheme,
        winner.p,
        winner.q,
        rows,
        cols,
    );
    let exact = solve_exact(&inst, opts.node_budget);
    let mp_speedup = multiport_speedup(req.trace.len(), &exact.schedule, req.read_ports)
        .unwrap_or(metrics.speedup);

    Ok(Recommendation {
        config,
        schedule_len: exact.schedule.len(),
        speedup: mp_speedup,
        efficiency: metrics.efficiency,
        schedule_optimal: exact.proved_optimal,
        projected_mbps: synthesis.write_bandwidth_mbps * metrics.efficiency,
        synthesis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymem::AccessScheme;

    fn row_col_trace() -> AccessTrace {
        let mut coords: Vec<(usize, usize)> = (0..16).map(|j| (4usize, j)).collect();
        coords.extend((0..16).map(|i| (i, 4usize)));
        AccessTrace::from_coords(coords)
    }

    #[test]
    fn recommends_roco_for_row_col_workload() {
        let rec = recommend(&Requirements {
            trace: row_col_trace(),
            capacity_bytes: 512 * 1024,
            read_ports: 1,
        })
        .unwrap();
        assert_eq!(rec.config.scheme, AccessScheme::RoCo);
        assert!(rec.synthesis.feasible);
        assert!(rec.speedup > 6.0);
        assert!(rec.schedule_optimal);
        assert!(rec.projected_mbps > 5_000.0);
    }

    #[test]
    fn multiport_raises_speedup() {
        let one = recommend(&Requirements {
            trace: row_col_trace(),
            capacity_bytes: 512 * 1024,
            read_ports: 1,
        })
        .unwrap();
        // Two ports (four would demand a 16-lane 4-port memory, which the
        // synthesis check correctly rejects as infeasible on the SX475T).
        let two = recommend(&Requirements {
            trace: row_col_trace(),
            capacity_bytes: 512 * 1024,
            read_ports: 2,
        })
        .unwrap();
        assert!(
            two.speedup > 1.4 * one.speedup,
            "{} vs {}",
            two.speedup,
            one.speedup
        );
    }

    #[test]
    fn oversized_memory_is_rejected() {
        let err = recommend(&Requirements {
            trace: row_col_trace(),
            capacity_bytes: 4096 * 1024,
            read_ports: 4, // 16 MB of replicated BRAM: cannot fit
        })
        .unwrap_err();
        assert!(matches!(err, ToolchainError::Infeasible { .. }));
        assert!(err.to_string().contains("does not fit"));
    }

    #[test]
    fn empty_trace_is_unservable() {
        let err = recommend(&Requirements {
            trace: AccessTrace::from_coords([]),
            capacity_bytes: 512 * 1024,
            read_ports: 1,
        })
        .unwrap_err();
        assert_eq!(err, ToolchainError::Unservable);
    }
}
