//! Host ↔ DFE PCI-Express link model.
//!
//! Two effects matter for the paper's measurements (§V):
//!
//! 1. every host→DFE interaction (starting a kernel, a blocking call) costs
//!    a fixed **~300 ns** signalling overhead — the paper measured this and
//!    it dominates short runs (the left side of Fig. 10);
//! 2. bulk transfers move at the link bandwidth (Vectis: PCIe gen2 x8,
//!    ~2 GB/s effective), which bounds the Load/Offload stages.

/// PCIe link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieLink {
    /// Fixed per-call host↔DFE signalling overhead, nanoseconds.
    pub call_overhead_ns: f64,
    /// Effective bulk bandwidth, bytes per nanosecond (= GB/s).
    pub bandwidth_gbps: f64,
}

impl PcieLink {
    /// The Vectis link as measured by the paper: ~300 ns per call,
    /// ~2 GB/s effective gen2 x8 bulk bandwidth.
    pub fn vectis() -> Self {
        Self {
            call_overhead_ns: 300.0,
            bandwidth_gbps: 2.0,
        }
    }

    /// Time for one blocking host call that transfers `bytes` of data
    /// (0 bytes = a pure signal, e.g. "run the Copy stage").
    pub fn call_time_ns(&self, bytes: usize) -> f64 {
        self.call_overhead_ns + bytes as f64 / self.bandwidth_gbps
    }

    /// Time for `calls` consecutive blocking calls of `bytes` each (the
    /// paper's 1000-run measurement loop).
    pub fn calls_time_ns(&self, calls: usize, bytes: usize) -> f64 {
        calls as f64 * self.call_time_ns(bytes)
    }

    /// Cycles between `chunk_bytes`-sized arrivals when streaming at the
    /// link's bulk bandwidth on a `freq_mhz` kernel clock — the pacing
    /// interval a PCIe-fed loader self-schedules. This is also exactly the
    /// loader's [`crate::kernel::Kernel::next_event`] stride, which is what
    /// lets the event scheduler fast-forward the wire-wait spans between
    /// chunk arrivals instead of ticking through them.
    pub fn chunk_interval_cycles(&self, chunk_bytes: usize, freq_mhz: f64) -> u64 {
        let period_ns = 1000.0 / freq_mhz;
        let bytes_per_cycle = self.bandwidth_gbps * period_ns;
        (chunk_bytes as f64 / bytes_per_cycle).ceil().max(1.0) as u64
    }
}

/// Accumulating host-side activity record.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostStats {
    /// Blocking calls issued.
    pub calls: u64,
    /// Bytes moved host→DFE.
    pub bytes_to_dfe: u64,
    /// Bytes moved DFE→host.
    pub bytes_from_dfe: u64,
    /// Total nanoseconds spent in link overhead + transfer.
    pub link_time_ns: f64,
}

/// A host endpoint: issues blocking calls over a [`PcieLink`] and records
/// the time they cost.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    link: PcieLink,
    stats: HostStats,
}

impl Host {
    /// A host attached over `link`.
    pub fn new(link: PcieLink) -> Self {
        Self {
            link,
            stats: HostStats::default(),
        }
    }

    /// The link parameters.
    pub fn link(&self) -> &PcieLink {
        &self.link
    }

    /// Issue a blocking signal call (no payload). Returns its cost in ns.
    pub fn signal(&mut self) -> f64 {
        let t = self.link.call_time_ns(0);
        self.stats.calls += 1;
        self.stats.link_time_ns += t;
        t
    }

    /// Send `bytes` to the DFE. Returns the call's cost in ns.
    pub fn send(&mut self, bytes: usize) -> f64 {
        let t = self.link.call_time_ns(bytes);
        self.stats.calls += 1;
        self.stats.bytes_to_dfe += bytes as u64;
        self.stats.link_time_ns += t;
        t
    }

    /// Receive `bytes` from the DFE. Returns the call's cost in ns.
    pub fn receive(&mut self, bytes: usize) -> f64 {
        let t = self.link.call_time_ns(bytes);
        self.stats.calls += 1;
        self.stats.bytes_from_dfe += bytes as u64;
        self.stats.link_time_ns += t;
        t
    }

    /// Activity counters.
    pub fn stats(&self) -> HostStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_costs_overhead_only() {
        let mut h = Host::new(PcieLink::vectis());
        let t = h.signal();
        assert_eq!(t, 300.0);
        assert_eq!(h.stats().calls, 1);
        assert_eq!(h.stats().bytes_to_dfe, 0);
    }

    #[test]
    fn transfer_adds_bandwidth_time() {
        let link = PcieLink::vectis();
        // 2 GB/s = 2 bytes/ns: 2000 bytes = 1000 ns + 300 ns overhead.
        assert!((link.call_time_ns(2000) - 1300.0).abs() < 1e-9);
    }

    #[test]
    fn chunk_interval_matches_bandwidth() {
        let link = PcieLink::vectis();
        // 64 B chunks at 120 MHz: 2 B/ns * 8.33 ns = 16.7 B/cycle -> 4 cycles.
        assert_eq!(link.chunk_interval_cycles(64, 120.0), 4);
        // Faster clock -> fewer bytes per cycle -> longer interval.
        assert!(link.chunk_interval_cycles(64, 240.0) >= 8);
    }

    #[test]
    fn thousand_calls_amortization() {
        // The paper runs the Copy stage 1000x; overhead per run is 300 ns.
        let link = PcieLink::vectis();
        assert!((link.calls_time_ns(1000, 0) - 300_000.0).abs() < 1e-9);
    }

    #[test]
    fn host_accumulates() {
        let mut h = Host::new(PcieLink::vectis());
        h.send(1000);
        h.receive(500);
        h.signal();
        let s = h.stats();
        assert_eq!(s.calls, 3);
        assert_eq!(s.bytes_to_dfe, 1000);
        assert_eq!(s.bytes_from_dfe, 500);
        assert!(s.link_time_ns > 900.0);
    }
}
