//! Schedule quality metrics (paper §III-A): **speedup** and **efficiency**.
//!
//! A scalar memory serves one element per cycle, so a trace of `n` elements
//! costs `n` cycles. A PolyMem schedule of `k` parallel accesses costs `k`
//! cycles. Speedup is `n / k`; efficiency normalizes by the lane count
//! (`speedup / (p*q)`), i.e. the fraction of delivered lanes that carried
//! useful data.

use crate::cover::Schedule;

/// Quality metrics of a schedule for a given trace and geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleMetrics {
    /// Trace size (scalar access count).
    pub trace_len: usize,
    /// Parallel accesses in the schedule.
    pub schedule_len: usize,
    /// Lanes of the geometry (`p*q`).
    pub lanes: usize,
    /// `trace_len / schedule_len`.
    pub speedup: f64,
    /// `speedup / lanes` in `[0, 1]`.
    pub efficiency: f64,
}

/// Compute metrics. Returns `None` for an incomplete schedule (it cannot
/// serve the application) or an empty trace.
pub fn evaluate(trace_len: usize, lanes: usize, schedule: &Schedule) -> Option<ScheduleMetrics> {
    if !schedule.complete || trace_len == 0 {
        return None;
    }
    let k = schedule.len().max(1);
    let speedup = trace_len as f64 / k as f64;
    Some(ScheduleMetrics {
        trace_len,
        schedule_len: schedule.len(),
        lanes,
        speedup,
        efficiency: speedup / lanes as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymem::ParallelAccess;

    fn sched(n: usize) -> Schedule {
        Schedule {
            accesses: (0..n).map(|k| ParallelAccess::rect(2 * k, 0)).collect(),
            complete: true,
        }
    }

    #[test]
    fn perfect_schedule_efficiency_one() {
        let m = evaluate(32, 8, &sched(4)).unwrap();
        assert_eq!(m.speedup, 8.0);
        assert_eq!(m.efficiency, 1.0);
    }

    #[test]
    fn sparse_schedule_lower_efficiency() {
        let m = evaluate(16, 8, &sched(4)).unwrap();
        assert_eq!(m.speedup, 4.0);
        assert_eq!(m.efficiency, 0.5);
    }

    #[test]
    fn incomplete_gives_none() {
        let s = Schedule {
            accesses: vec![],
            complete: false,
        };
        assert!(evaluate(8, 8, &s).is_none());
    }

    #[test]
    fn empty_trace_gives_none() {
        assert!(evaluate(0, 8, &sched(0)).is_none());
    }
}
