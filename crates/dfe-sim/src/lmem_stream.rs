//! LMem → PolyMem staging (the data path of the paper's Fig. 1).
//!
//! The envisioned system keeps bulk data in the board's DRAM (LMem) and
//! stages performance-critical regions into PolyMem, which then feeds the
//! kernel `p*q` elements per cycle. [`DramLoader`] is that staging engine:
//! it pulls burst-sized blocks from a [`crate::dram::Dram`] and pushes
//! lane-width chunks into PolyMem's write port, paced by the DRAM's
//! bandwidth. The complementary cost model ([`AccessCostModel`]) quantifies
//! the caching benefit the architecture exists for.

use crate::clock::SimClock;
use crate::dram::Dram;
use crate::kernel::Kernel;
use crate::polymem_kernel::{LaneWord, WriteRequest};
use crate::stream::StreamRef;
use polymem::ParallelAccess;

/// Streams a contiguous LMem range into consecutive row accesses of a
/// PolyMem region.
pub struct DramLoader {
    name: String,
    dram: Dram,
    /// The staged data, prefetched as one streaming burst (DRAM latency is
    /// paid once per stream, not per chunk, matching the pacing model).
    buffer: Vec<u64>,
    /// Destination row accesses, one per chunk, in order.
    dst: Vec<ParallelAccess>,
    lanes: usize,
    next_chunk: usize,
    /// Cycles between chunk issues, derived from the DRAM bandwidth.
    interval: u64,
    last_issue: Option<u64>,
    write_req: StreamRef<WriteRequest>,
}

impl DramLoader {
    /// Build a loader for `chunks` destination accesses starting at LMem
    /// word `src_addr`, clocked at `clock`'s frequency.
    pub fn new(
        name: impl Into<String>,
        dram: Dram,
        src_addr: usize,
        dst: Vec<ParallelAccess>,
        lanes: usize,
        clock: &SimClock,
        write_req: StreamRef<WriteRequest>,
    ) -> Self {
        // One chunk = lanes * 8 bytes; DRAM delivers bandwidth_gbps B/ns.
        let chunk_ns = (lanes * 8) as f64 / dram.params().bandwidth_gbps;
        let interval = clock.ns_to_cycles(chunk_ns).max(1);
        // Prefetch the whole range as one streaming burst: the DRAM
        // accounting charges its first-word latency once per stream, which
        // is what the per-chunk pacing below models.
        let mut dram = dram;
        let mut buffer = vec![0u64; dst.len() * lanes];
        if !buffer.is_empty() {
            dram.read_burst(src_addr, &mut buffer);
        }
        Self {
            name: name.into(),
            dram,
            buffer,
            dst,
            lanes,
            next_chunk: 0,
            interval,
            last_issue: None,
            write_req,
        }
    }

    /// Chunks still to stage.
    pub fn remaining(&self) -> usize {
        self.dst.len() - self.next_chunk
    }

    /// The DRAM channel (for post-run accounting).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }
}

impl Kernel for DramLoader {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: u64) {
        if self.next_chunk >= self.dst.len() {
            return;
        }
        if let Some(last) = self.last_issue {
            if cycle < last + self.interval {
                return;
            }
        }
        if !self.write_req.borrow().can_push() {
            return;
        }
        let base = self.next_chunk * self.lanes;
        let words = LaneWord::from(&self.buffer[base..base + self.lanes]);
        self.write_req
            .borrow_mut()
            .push((self.dst[self.next_chunk], words));
        self.last_issue = Some(cycle);
        self.next_chunk += 1;
    }

    fn is_idle(&self) -> bool {
        self.remaining() == 0
    }

    fn next_event(&self) -> Option<u64> {
        if self.next_chunk >= self.dst.len() {
            return None;
        }
        // Paced: the next issue cycle is self-scheduled. A wake in the past
        // (pacing satisfied, possibly blocked on a full write FIFO) means
        // per-cycle ticking — exactly the ticked loop's behaviour.
        match self.last_issue {
            Some(last) => Some(last + self.interval),
            None => Some(0),
        }
    }
}

/// Per-access cost comparison: a kernel reading operands directly from
/// DRAM vs from PolyMem — the quantified version of Fig. 1's motivation.
#[derive(Debug, Clone, Copy)]
pub struct AccessCostModel {
    /// ns for one `lanes`-element group from DRAM (latency + burst).
    pub dram_access_ns: f64,
    /// ns for one group from PolyMem (one cycle).
    pub polymem_access_ns: f64,
    /// One-time staging cost per element group (amortized LMem streaming).
    pub staging_ns_per_group: f64,
}

impl AccessCostModel {
    /// Build from a DRAM channel, a clock, and a lane count.
    pub fn new(dram: &Dram, clock: &SimClock, lanes: usize) -> Self {
        let bytes = lanes * 8;
        Self {
            dram_access_ns: dram.access_time_ns(bytes),
            polymem_access_ns: clock.period_ns(),
            staging_ns_per_group: bytes as f64 / dram.params().bandwidth_gbps,
        }
    }

    /// Total time for `reuses` accesses to one group, served from DRAM.
    pub fn dram_total_ns(&self, reuses: u32) -> f64 {
        self.dram_access_ns * reuses as f64
    }

    /// Total for the same with PolyMem caching (stage once, then reuse).
    pub fn cached_total_ns(&self, reuses: u32) -> f64 {
        self.staging_ns_per_group + self.polymem_access_ns * reuses as f64
    }

    /// The reuse count beyond which caching wins.
    pub fn breakeven_reuses(&self) -> u32 {
        let denom = self.dram_access_ns - self.polymem_access_ns;
        if denom <= 0.0 {
            return u32::MAX;
        }
        (self.staging_ns_per_group / denom).ceil().max(1.0) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramParams;
    use crate::polymem_kernel::PolyMemKernel;
    use crate::stream::stream;
    use polymem::{AccessScheme, PolyMemConfig};
    use std::rc::Rc;

    #[test]
    fn loader_stages_dram_into_polymem() {
        let mut dram = Dram::new(DramParams::vectis_lmem());
        let data: Vec<u64> = (0..64).map(|x| x * 5 + 1).collect();
        dram.write_burst(1000, &data);

        let cfg = PolyMemConfig::new(8, 8, 2, 4, AccessScheme::RoCo, 1).unwrap();
        let rq = vec![stream("rq", 8)];
        let rs = vec![stream("rs", 8)];
        let wq = stream("wq", 8);
        let mut pm = PolyMemKernel::new("pm", cfg, 0, rq, rs, Rc::clone(&wq)).unwrap();
        let clock = SimClock::new(120.0);
        let dst: Vec<ParallelAccess> = (0..8).map(|r| ParallelAccess::row(r, 0)).collect();
        let mut loader = DramLoader::new("lmem", dram, 1000, dst, 8, &clock, wq);
        let mut cycle = 0u64;
        while !(loader.is_idle() && pm.pipelines_empty()) {
            loader.tick(cycle);
            pm.tick(cycle);
            cycle += 1;
            assert!(cycle < 10_000);
        }
        // Whole matrix staged row-major.
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(pm.mem().get(i, j).unwrap(), (i * 8 + j) as u64 * 5 + 1);
            }
        }
        assert_eq!(loader.dram().bytes_read, 64 * 8);
        // Streaming accounting: one latency + one transfer for the whole
        // range, not one latency per 64 B chunk.
        let params = *loader.dram().params();
        let expected = params.latency_ns + (64.0 * 8.0 / params.bandwidth_gbps).max(0.0);
        assert!(
            loader.dram().busy_ns < expected + params.burst_bytes as f64,
            "busy_ns {} should reflect one streamed burst",
            loader.dram().busy_ns
        );
    }

    #[test]
    fn loader_paced_by_dram_bandwidth() {
        let dram = Dram::new(DramParams::vectis_lmem());
        let clock = SimClock::new(120.0);
        let wq = stream("wq", 1024);
        let dst: Vec<ParallelAccess> = (0..4).map(|r| ParallelAccess::row(r, 0)).collect();
        let mut loader = DramLoader::new("lmem", dram, 0, dst, 8, &clock, wq);
        // 64 B chunk at 15 B/ns = 4.3 ns = 1 cycle at 120 MHz -> min pacing.
        assert!(loader.interval >= 1);
        let mut issued_cycles = Vec::new();
        for c in 0..20u64 {
            let before = loader.next_chunk;
            loader.tick(c);
            if loader.next_chunk > before {
                issued_cycles.push(c);
            }
        }
        assert_eq!(issued_cycles.len(), 4);
        for w in issued_cycles.windows(2) {
            assert!(w[1] - w[0] >= loader.interval);
        }
    }

    #[test]
    fn cost_model_breakeven() {
        let dram = Dram::new(DramParams::vectis_lmem());
        let clock = SimClock::new(120.0);
        let model = AccessCostModel::new(&dram, &clock, 8);
        // A random 64-byte DRAM access pays ~225 ns; PolyMem pays 8.3 ns.
        assert!(model.dram_access_ns > 20.0 * model.polymem_access_ns);
        let be = model.breakeven_reuses();
        assert!(
            (1..5).contains(&be),
            "staging should pay off almost immediately, breakeven {be}"
        );
        // Caching wins at any reuse >= breakeven.
        assert!(model.cached_total_ns(be + 1) < model.dram_total_ns(be + 1));
        // Single-touch streaming (reuse = 0 extra) should NOT favour caching
        // vs streaming read... with reuse=1 caching already near-ties since
        // staging is a streamed burst while the direct access pays latency.
        assert!(model.cached_total_ns(1) < model.dram_total_ns(1) * 1.2);
    }
}
