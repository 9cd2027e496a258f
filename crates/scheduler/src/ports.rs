//! Multi-port schedule packing.
//!
//! A schedule from [`crate::cover`] counts *accesses*; a memory with `R`
//! read ports issues up to `R` of them per cycle (paper §III-B: "one write
//! access and one read access for each read port can happen independently
//! at the same time"). This module packs a schedule into cycles and
//! evaluates the multi-port speedup — the quantity Fig. 5 reports in
//! bandwidth form.

use crate::cover::Schedule;
use polymem::ParallelAccess;

/// A schedule packed into per-cycle issue slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortSchedule {
    /// `cycles[c]` = accesses issued in cycle `c` (at most `read_ports`).
    pub cycles: Vec<Vec<ParallelAccess>>,
    /// Ports available.
    pub read_ports: usize,
}

impl PortSchedule {
    /// Number of cycles.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// Port occupancy: fraction of issue slots actually used.
    pub fn occupancy(&self) -> f64 {
        if self.cycles.is_empty() {
            return 1.0;
        }
        let used: usize = self.cycles.iter().map(Vec::len).sum();
        used as f64 / (self.cycles.len() * self.read_ports) as f64
    }
}

/// Pack a read schedule onto `read_ports` ports. Read ports are fully
/// independent (each has its own crossbar and the bank data is replicated),
/// so packing is round-robin: `ceil(k / R)` cycles, provably minimal.
pub fn pack_reads(schedule: &Schedule, read_ports: usize) -> PortSchedule {
    assert!(read_ports >= 1);
    let cycles = schedule
        .accesses
        .chunks(read_ports)
        .map(<[ParallelAccess]>::to_vec)
        .collect();
    PortSchedule { cycles, read_ports }
}

/// A read/write program: each element is one parallel access tagged by
/// direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortOp {
    /// Read through any free read port.
    Read(ParallelAccess),
    /// Write through the single write port.
    Write(ParallelAccess),
}

/// Cycles needed to issue a mixed read/write program on `R` read ports and
/// one write port, assuming no data dependences between listed ops:
/// `max(ceil(reads / R), writes)`.
pub fn mixed_cycles(ops: &[PortOp], read_ports: usize) -> usize {
    let reads = ops.iter().filter(|o| matches!(o, PortOp::Read(_))).count();
    let writes = ops.len() - reads;
    reads.div_ceil(read_ports.max(1)).max(writes)
}

/// Multi-port speedup of a covering schedule: elements served per cycle,
/// relative to a scalar memory.
pub fn multiport_speedup(trace_len: usize, schedule: &Schedule, read_ports: usize) -> Option<f64> {
    if !schedule.complete || trace_len == 0 {
        return None;
    }
    let cycles = pack_reads(schedule, read_ports).len().max(1);
    Some(trace_len as f64 / cycles as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::AccessTrace;
    use crate::{solve_exact, CoverInstance};
    use polymem::AccessScheme;

    fn sched(n: usize) -> Schedule {
        Schedule {
            accesses: (0..n).map(|k| ParallelAccess::rect(2 * k, 0)).collect(),
            complete: true,
        }
    }

    #[test]
    fn pack_reads_ceil() {
        let s = sched(7);
        let p = pack_reads(&s, 2);
        assert_eq!(p.len(), 4);
        assert_eq!(p.cycles[0].len(), 2);
        assert_eq!(p.cycles[3].len(), 1);
        assert!((p.occupancy() - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn single_port_is_identity() {
        let s = sched(5);
        let p = pack_reads(&s, 1);
        assert_eq!(p.len(), 5);
        assert_eq!(p.occupancy(), 1.0);
    }

    #[test]
    fn mixed_reads_and_writes_overlap() {
        let r = PortOp::Read(ParallelAccess::rect(0, 0));
        let w = PortOp::Write(ParallelAccess::rect(2, 0));
        // 4 reads + 2 writes on 2 read ports: max(2, 2) = 2 cycles.
        assert_eq!(mixed_cycles(&[r, r, r, r, w, w], 2), 2);
        // Write-bound: 1 read + 3 writes: max(1, 3) = 3.
        assert_eq!(mixed_cycles(&[r, w, w, w], 4), 3);
        assert_eq!(mixed_cycles(&[], 2), 0);
    }

    #[test]
    fn multiport_speedup_scales_with_ports() {
        // 8x16 dense block: 16 accesses of 8 lanes.
        let trace = AccessTrace::block(0, 0, 8, 16);
        let inst = CoverInstance::build(trace.clone(), AccessScheme::ReO, 2, 4, 8, 16);
        let e = solve_exact(&inst, 50_000);
        let s1 = multiport_speedup(trace.len(), &e.schedule, 1).unwrap();
        let s2 = multiport_speedup(trace.len(), &e.schedule, 2).unwrap();
        let s4 = multiport_speedup(trace.len(), &e.schedule, 4).unwrap();
        assert_eq!(s1, 8.0);
        assert_eq!(s2, 16.0);
        assert_eq!(s4, 32.0);
    }

    #[test]
    fn incomplete_gives_none() {
        let s = Schedule {
            accesses: vec![],
            complete: false,
        };
        assert!(multiport_speedup(8, &s, 2).is_none());
    }

    #[test]
    fn empty_portschedule() {
        let p = pack_reads(&sched(0), 3);
        assert!(p.is_empty());
        assert_eq!(p.occupancy(), 1.0);
    }
}
