//! Application-driven configuration selection (the end of §III-A):
//! *"We finally select the best configuration based on two metrics: speedup
//! and efficiency."*
//!
//! For an [`AccessTrace`], sweep (scheme × bank grid), compute the best
//! schedule per configuration (exact where tractable, greedy beyond the
//! node budget) and rank.

use crate::bnb;
use crate::cover::CoverInstance;
use crate::metrics::{evaluate, ScheduleMetrics};
use crate::pattern::AccessTrace;
use polymem::AccessScheme;

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// The scheme.
    pub scheme: AccessScheme,
    /// Bank-grid rows.
    pub p: usize,
    /// Bank-grid columns.
    pub q: usize,
    /// Schedule quality (None when the scheme cannot serve the trace).
    pub metrics: Option<ScheduleMetrics>,
    /// Whether the schedule is proven minimum.
    pub proved_optimal: bool,
}

/// Sweep settings.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Bank-grid shapes to consider.
    pub grids: Vec<(usize, usize)>,
    /// Branch-and-bound node budget per configuration.
    pub node_budget: u64,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            grids: vec![(2, 2), (2, 4), (2, 8), (4, 4)],
            node_budget: 50_000,
        }
    }
}

/// Evaluate every (scheme, grid) configuration for `trace` over a logical
/// space of `rows x cols` (rounded up internally to tile each grid).
pub fn sweep(
    trace: &AccessTrace,
    rows: usize,
    cols: usize,
    opts: &SweepOptions,
) -> Vec<ConfigResult> {
    let mut out = Vec::new();
    for &(p, q) in &opts.grids {
        let r = rows.next_multiple_of(p).max(p);
        let c = cols.next_multiple_of(q).max(q);
        for scheme in AccessScheme::ALL {
            if scheme == AccessScheme::ReTr && p % q != 0 && q % p != 0 {
                continue;
            }
            let inst = CoverInstance::build(trace.clone(), scheme, p, q, r, c);
            let result = bnb::solve(&inst, opts.node_budget);
            let metrics = evaluate(trace.len(), p * q, &result.schedule);
            out.push(ConfigResult {
                scheme,
                p,
                q,
                metrics,
                proved_optimal: result.proved_optimal,
            });
        }
    }
    out
}

/// Pick the best configuration: highest speedup, ties broken by efficiency
/// then by smaller lane count (cheaper hardware).
pub fn best(results: &[ConfigResult]) -> Option<&ConfigResult> {
    results
        .iter()
        .filter(|r| r.metrics.is_some())
        .max_by(|a, b| {
            let (ma, mb) = (a.metrics.unwrap(), b.metrics.unwrap());
            ma.speedup
                .partial_cmp(&mb.speedup)
                .unwrap()
                .then(ma.efficiency.partial_cmp(&mb.efficiency).unwrap())
                .then((b.p * b.q).cmp(&(a.p * a.q)))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_block_prefers_any_full_scheme_at_full_efficiency() {
        let trace = AccessTrace::block(0, 0, 8, 8);
        let opts = SweepOptions {
            grids: vec![(2, 4)],
            node_budget: 20_000,
        };
        let results = sweep(&trace, 8, 8, &opts);
        let best = best(&results).unwrap();
        let m = best.metrics.unwrap();
        assert_eq!(m.speedup, 8.0);
        assert_eq!(m.efficiency, 1.0);
    }

    #[test]
    fn row_and_column_trace_prefers_roco() {
        let mut coords: Vec<(usize, usize)> = (0..16).map(|j| (3, j)).collect();
        coords.extend((0..16).map(|i| (i, 5)));
        let trace = AccessTrace::from_coords(coords);
        let opts = SweepOptions {
            grids: vec![(2, 4)],
            node_budget: 100_000,
        };
        let results = sweep(&trace, 16, 16, &opts);
        let winner = best(&results).unwrap();
        assert_eq!(winner.scheme, AccessScheme::RoCo, "row+col favours RoCo");
        // 31 distinct elements (intersection shared), 4 accesses.
        assert_eq!(winner.metrics.unwrap().schedule_len, 4);
    }

    #[test]
    fn sweep_skips_invalid_retr_grids() {
        let trace = AccessTrace::block(0, 0, 2, 2);
        let opts = SweepOptions {
            grids: vec![(2, 4)],
            node_budget: 1000,
        };
        let results = sweep(&trace, 4, 4, &opts);
        // 2x4: 2 | 4 holds, so ReTr is present here.
        assert!(results.iter().any(|r| r.scheme == AccessScheme::ReTr));
        assert_eq!(results.len(), 5);
    }

    #[test]
    fn best_of_empty_is_none() {
        assert!(best(&[]).is_none());
    }

    #[test]
    fn larger_grid_wins_on_speedup_for_large_dense_trace() {
        let trace = AccessTrace::block(0, 0, 8, 16);
        let opts = SweepOptions {
            grids: vec![(2, 4), (2, 8)],
            node_budget: 50_000,
        };
        let results = sweep(&trace, 8, 16, &opts);
        let winner = best(&results).unwrap();
        assert_eq!(winner.p * winner.q, 16, "16 lanes halve the cycle count");
        assert_eq!(winner.metrics.unwrap().speedup, 16.0);
    }
}
