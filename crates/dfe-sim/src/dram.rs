//! Off-chip DRAM (Maxeler "LMem") model.
//!
//! The Vectis board carries its own high-capacity DRAM (Fig. 1 of the
//! paper). Its defining properties relative to PolyMem are **high latency**
//! and **bounded bandwidth** — PolyMem exists precisely to cache
//! performance-critical data on-chip and avoid these costs. The model
//! provides cycle-accounted burst transfers so applications built on the
//! simulator can quantify the benefit of the on-chip cache.

/// DRAM channel parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramParams {
    /// First-word latency in nanoseconds (row activate + CAS + controller).
    pub latency_ns: f64,
    /// Sustained bandwidth in bytes per nanosecond (= GB/s).
    pub bandwidth_gbps: f64,
    /// Burst granularity in bytes: transfers are rounded up to this.
    pub burst_bytes: usize,
    /// Capacity in bytes.
    pub capacity_bytes: usize,
}

impl DramParams {
    /// The Vectis LMem: ~24 GB of DDR3 at roughly 38 GB/s peak across
    /// channels, but with ~200 ns access latency — the contrast PolyMem
    /// exploits. Effective streaming bandwidth is lower; we use a
    /// conservative sustained figure.
    pub fn vectis_lmem() -> Self {
        Self {
            latency_ns: 200.0,
            bandwidth_gbps: 15.0,
            burst_bytes: 384, // Maxeler LMem burst size
            capacity_bytes: 24 * 1024 * 1024 * 1024,
        }
    }
}

/// A DRAM channel with activity accounting and a backing store.
#[derive(Debug, Clone)]
pub struct Dram {
    params: DramParams,
    /// Sparse backing store: burst-aligned pages, allocated on demand.
    data: std::collections::HashMap<usize, Vec<u64>>,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Total busy time in ns.
    pub busy_ns: f64,
}

const WORDS_PER_PAGE: usize = 512;

impl Dram {
    /// Create a DRAM channel.
    pub fn new(params: DramParams) -> Self {
        Self {
            params,
            data: std::collections::HashMap::new(),
            bytes_read: 0,
            bytes_written: 0,
            busy_ns: 0.0,
        }
    }

    /// Channel parameters.
    pub fn params(&self) -> &DramParams {
        &self.params
    }

    /// Time to move `bytes` in one streaming request: latency + rounded
    /// burst transfer time.
    pub fn access_time_ns(&self, bytes: usize) -> f64 {
        let bursts = bytes.div_ceil(self.params.burst_bytes);
        let moved = (bursts * self.params.burst_bytes) as f64;
        self.params.latency_ns + moved / self.params.bandwidth_gbps
    }

    /// Read `words.len()` 64-bit words starting at word address `addr`,
    /// accounting the time. Unwritten locations read as zero.
    pub fn read_burst(&mut self, addr: usize, words: &mut [u64]) -> f64 {
        for (k, w) in words.iter_mut().enumerate() {
            let a = addr + k;
            let (page, off) = (a / WORDS_PER_PAGE, a % WORDS_PER_PAGE);
            *w = self.data.get(&page).map_or(0, |p| p[off]);
        }
        let t = self.access_time_ns(words.len() * 8);
        self.bytes_read += (words.len() * 8) as u64;
        self.busy_ns += t;
        t
    }

    /// Write `words` starting at word address `addr`, accounting the time.
    pub fn write_burst(&mut self, addr: usize, words: &[u64]) -> f64 {
        for (k, &w) in words.iter().enumerate() {
            let a = addr + k;
            let (page, off) = (a / WORDS_PER_PAGE, a % WORDS_PER_PAGE);
            self.data
                .entry(page)
                .or_insert_with(|| vec![0; WORDS_PER_PAGE])[off] = w;
        }
        let t = self.access_time_ns(words.len() * 8);
        self.bytes_written += (words.len() * 8) as u64;
        self.busy_ns += t;
        t
    }

    /// Effective bandwidth of an isolated access of `bytes` (the
    /// latency-amortization curve PolyMem avoids paying per access).
    pub fn effective_bandwidth_gbps(&self, bytes: usize) -> f64 {
        bytes as f64 / self.access_time_ns(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrip() {
        let mut d = Dram::new(DramParams::vectis_lmem());
        d.write_burst(1000, &[1, 2, 3, 4]);
        let mut out = [0u64; 4];
        d.read_burst(1000, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn unwritten_reads_zero() {
        let mut d = Dram::new(DramParams::vectis_lmem());
        let mut out = [7u64; 2];
        d.read_burst(123_456, &mut out);
        assert_eq!(out, [0, 0]);
    }

    #[test]
    fn latency_dominates_small_accesses() {
        let d = Dram::new(DramParams::vectis_lmem());
        // An 8-byte access pays a full burst + 200 ns latency.
        let eff = d.effective_bandwidth_gbps(8);
        assert!(eff < 0.05, "small-access bandwidth {eff} GB/s");
        // A 1 MB stream approaches the sustained figure.
        let eff = d.effective_bandwidth_gbps(1 << 20);
        assert!(eff > 14.0, "large-access bandwidth {eff} GB/s");
    }

    #[test]
    fn burst_rounding() {
        let d = Dram::new(DramParams::vectis_lmem());
        // 1 byte still moves one full 384-byte burst.
        let t1 = d.access_time_ns(1);
        let t384 = d.access_time_ns(384);
        assert_eq!(t1, t384);
        assert!(d.access_time_ns(385) > t384);
    }

    #[test]
    fn accounting() {
        let mut d = Dram::new(DramParams::vectis_lmem());
        d.write_burst(0, &[0; 16]);
        d.read_burst(0, &mut [0; 16]);
        assert_eq!(d.bytes_written, 128);
        assert_eq!(d.bytes_read, 128);
        assert!(d.busy_ns > 400.0);
    }

    #[test]
    fn cross_page_access() {
        let mut d = Dram::new(DramParams::vectis_lmem());
        let addr = WORDS_PER_PAGE - 2;
        d.write_burst(addr, &[10, 11, 12, 13]);
        let mut out = [0u64; 4];
        d.read_burst(addr, &mut out);
        assert_eq!(out, [10, 11, 12, 13]);
    }
}
