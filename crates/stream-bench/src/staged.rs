//! Streamed Load and Offload stages (the full Fig. 9 data path).
//!
//! [`crate::app::StreamApp`] fills and drains PolyMem through the host
//! debug port, which is fine for measuring the Copy stage (the paper times
//! stages in isolation). This module implements the Load and Offload
//! stages as *real kernels*: host data enters through PolyMem's write port
//! chunk by chunk (throttled to the PCIe rate), and leaves through a read
//! port, so the complete benchmark runs on the simulated data path.

use crate::layout::VectorLayout;
use dfe_sim::kernel::Kernel;
use dfe_sim::pcie::PcieLink;
use dfe_sim::polymem_kernel::{LaneWord, ReadRequest, ReadResponse, WriteRequest};
use dfe_sim::stream::StreamRef;
use std::cell::Cell;
use std::rc::Rc;

/// Cycles between host chunks at the PCIe bulk rate: one `lanes * 8`-byte
/// chunk every `ceil(chunk_bytes / (link_Bns * period_ns))` cycles.
pub fn pcie_chunk_interval(link: &PcieLink, lanes: usize, freq_mhz: f64) -> u64 {
    link.chunk_interval_cycles(lanes * 8, freq_mhz)
}

/// Streams one vector from the host into PolyMem through the write port,
/// paced at the PCIe rate.
pub struct LoadKernel {
    name: String,
    layout: VectorLayout,
    data: Vec<u64>,
    next_chunk: usize,
    interval: u64,
    last_issue: Option<u64>,
    write_req: StreamRef<WriteRequest>,
    pacing: Option<Rc<Cell<bool>>>,
}

impl LoadKernel {
    /// Build a loader for `data` into `layout`, pacing one chunk per
    /// `interval` cycles.
    pub fn new(
        name: impl Into<String>,
        layout: VectorLayout,
        data: Vec<u64>,
        interval: u64,
        write_req: StreamRef<WriteRequest>,
    ) -> Self {
        assert_eq!(data.len(), layout.len, "vector length mismatch");
        Self {
            name: name.into(),
            layout,
            data,
            next_chunk: 0,
            interval: interval.max(1),
            last_issue: None,
            write_req,
            pacing: None,
        }
    }

    /// Chunks still to send.
    pub fn remaining(&self) -> usize {
        self.layout.chunks() - self.next_chunk
    }

    /// Share a pacing flag with the downstream PolyMem kernel (see
    /// [`dfe_sim::polymem_kernel::PolyMemKernel::set_pcie_flag`]): the
    /// loader raises it while it is withholding a chunk for PCIe arrival
    /// timing, so the memory attributes those stalls to `pcie`, not `idle`.
    pub fn set_pacing_flag(&mut self, flag: Rc<Cell<bool>>) {
        self.pacing = Some(flag);
    }

    fn set_pacing(&self, on: bool) {
        if let Some(f) = &self.pacing {
            f.set(on);
        }
    }
}

impl Kernel for LoadKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: u64) {
        if self.next_chunk >= self.layout.chunks() {
            self.set_pacing(false);
            return;
        }
        if let Some(last) = self.last_issue {
            if cycle < last + self.interval {
                self.set_pacing(true);
                return;
            }
        }
        self.set_pacing(false);
        if !self.write_req.borrow().can_push() {
            return;
        }
        let lanes = self.layout.lanes;
        let base = self.next_chunk * lanes;
        let chunk = LaneWord::from(&self.data[base..base + lanes]);
        self.write_req
            .borrow_mut()
            .push((self.layout.access(self.next_chunk), chunk));
        self.last_issue = Some(cycle);
        self.next_chunk += 1;
    }

    fn is_idle(&self) -> bool {
        self.remaining() == 0
    }

    fn next_event(&self) -> Option<u64> {
        if self.next_chunk >= self.layout.chunks() {
            return None;
        }
        // The next issue cycle is self-scheduled by the PCIe pacing; a wake
        // in the past (pacing satisfied, possibly blocked on a full write
        // FIFO) keeps the design on per-cycle ticks, as the ticked loop would.
        match self.last_issue {
            Some(last) => Some(last + self.interval),
            None => Some(0),
        }
    }

    fn skip_to(&mut self, _from: u64, _to: u64) {
        // A quiescent span can only fall inside this loader's own pacing
        // window (its wake bounds the jump), where the ticked loop holds the
        // PCIe flag high on every cycle; once the vector is sent, it holds
        // it low. Runs before the downstream PolyMem kernel's `skip_to` in
        // registration order, so the bulk attribution sees the right flag.
        self.set_pacing(self.next_chunk < self.layout.chunks());
    }
}

/// Streams one vector out of PolyMem through a read port into a host
/// buffer (the DEMUX target of Fig. 9).
pub struct OffloadKernel {
    name: String,
    layout: VectorLayout,
    issued: usize,
    collected: Vec<u64>,
    read_req: StreamRef<ReadRequest>,
    read_resp: StreamRef<ReadResponse>,
}

impl OffloadKernel {
    /// Build an offloader for `layout` on the given port streams.
    pub fn new(
        name: impl Into<String>,
        layout: VectorLayout,
        read_req: StreamRef<ReadRequest>,
        read_resp: StreamRef<ReadResponse>,
    ) -> Self {
        Self {
            name: name.into(),
            layout,
            issued: 0,
            collected: Vec::with_capacity(layout.len),
            read_req,
            read_resp,
        }
    }

    /// Elements received so far.
    pub fn collected(&self) -> &[u64] {
        &self.collected
    }

    /// Take the full vector once complete.
    pub fn take(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.collected)
    }

    /// Whether the whole vector has been received.
    pub fn done(&self) -> bool {
        self.collected.len() >= self.layout.len
    }
}

impl Kernel for OffloadKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, _cycle: u64) {
        if self.issued < self.layout.chunks() && self.read_req.borrow().can_push() {
            self.read_req
                .borrow_mut()
                .push(self.layout.access(self.issued));
            self.issued += 1;
        }
        if let Some(chunk) = self.read_resp.borrow_mut().pop() {
            self.collected.extend_from_slice(&chunk);
        }
    }

    fn is_idle(&self) -> bool {
        self.done()
    }

    fn next_event(&self) -> Option<u64> {
        // Wakes only on external input: room to issue or a response to
        // collect. The memory's pipeline wake bounds every in-flight span.
        let can_issue = self.issued < self.layout.chunks() && self.read_req.borrow().can_push();
        if can_issue || !self.read_resp.borrow().is_empty() {
            Some(0)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::StreamLayout;
    use dfe_sim::manager::Manager;
    use dfe_sim::polymem_kernel::PolyMemKernel;
    use dfe_sim::stream::stream;
    use polymem::AccessScheme;
    use std::rc::Rc;

    #[allow(clippy::type_complexity)]
    fn build(
        n: usize,
    ) -> (
        StreamLayout,
        Vec<StreamRef<ReadRequest>>,
        Vec<StreamRef<ReadResponse>>,
        StreamRef<WriteRequest>,
        PolyMemKernel,
    ) {
        let layout = StreamLayout::new(n, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let rq: Vec<_> = (0..2).map(|p| stream(format!("rq{p}"), 8)).collect();
        let rs: Vec<_> = (0..2).map(|p| stream(format!("rs{p}"), 32)).collect();
        let wq = stream("wq", 8);
        let pm = PolyMemKernel::new(
            "pm",
            layout.config,
            14,
            rq.clone(),
            rs.clone(),
            Rc::clone(&wq),
        )
        .unwrap();
        (layout, rq, rs, wq, pm)
    }

    #[test]
    fn pcie_interval_math() {
        let link = PcieLink::vectis();
        // 64 B chunks at 120 MHz: 2 B/ns * 8.33 ns = 16.7 B/cycle -> 4 cycles.
        assert_eq!(pcie_chunk_interval(&link, 8, 120.0), 4);
        // Faster clock -> fewer bytes per cycle -> longer interval.
        assert!(pcie_chunk_interval(&link, 8, 240.0) >= 8);
    }

    #[test]
    fn load_streams_vector_through_write_port() {
        let n = 4 * 64;
        let (layout, _rq, _rs, wq, pm) = build(n);
        let data: Vec<u64> = (0..n as u64).map(|x| x * 7).collect();
        let mut mgr = Manager::new(120.0);
        mgr.add_kernel(Box::new(LoadKernel::new(
            "load-a",
            layout.a,
            data.clone(),
            4,
            Rc::clone(&wq),
        )));
        mgr.add_kernel(Box::new(pm));
        let cycles = mgr.run_until_idle(10_000);
        // PCIe-paced: 32 chunks at 1 per 4 cycles.
        assert!(
            cycles >= 4 * (n as u64 / 8 - 1),
            "load must be PCIe-bound, took {cycles}"
        );
        let _ = cycles;
    }

    #[test]
    fn load_then_offload_roundtrip() {
        let n = 4 * 64;
        let (layout, rq, rs, wq, mut pm) = build(n);
        let data: Vec<u64> = (0..n as u64).map(|x| x * 13 + 1).collect();
        // Load stage: tick loader + memory manually to keep ownership of pm.
        {
            let mut loader = LoadKernel::new("load-b", layout.b, data.clone(), 4, Rc::clone(&wq));
            let mut cycle = 0u64;
            while !(loader.is_idle() && pm.pipelines_empty()) {
                loader.tick(cycle);
                pm.tick(cycle);
                cycle += 1;
                assert!(cycle < 20_000);
            }
        }
        // Offload stage through port 1.
        let mut off = OffloadKernel::new("off-b", layout.b, Rc::clone(&rq[1]), Rc::clone(&rs[1]));
        let mut cycle = 100_000u64;
        while !off.done() {
            off.tick(cycle);
            pm.tick(cycle);
            cycle += 1;
            assert!(cycle < 200_000);
        }
        assert_eq!(off.take(), data);
    }

    #[test]
    fn pcie_pacing_attributed_to_pcie_not_idle() {
        let n = 4 * 64;
        let (layout, _rq, _rs, wq, mut pm) = build(n);
        let reg = polymem::TelemetryRegistry::new();
        pm.attach_telemetry(&reg);
        let pacing = Rc::new(Cell::new(false));
        pm.set_pcie_flag(Rc::clone(&pacing));
        let data: Vec<u64> = (0..n as u64).collect();
        let mut loader = LoadKernel::new("load-a", layout.a, data, 4, wq);
        loader.set_pacing_flag(Rc::clone(&pacing));
        let mut cycle = 0u64;
        while !(loader.is_idle() && pm.pipelines_empty()) {
            loader.tick(cycle);
            pm.tick(cycle);
            cycle += 1;
            assert!(cycle < 20_000);
        }
        let snap = reg.snapshot();
        let state = |s: &str| {
            snap.counter_value("dfe_kernel_cycles_total", &[("kernel", "pm"), ("state", s)])
                .unwrap_or(0)
        };
        // One chunk per 4 cycles: most of the load is spent waiting on the link.
        assert!(state("pcie") > 0, "pacing stalls must land in pcie");
        assert!(
            state("pcie") > state("idle"),
            "PCIe-bound load: pcie {} vs idle {}",
            state("pcie"),
            state("idle")
        );
        let total = state("active")
            + state("contention")
            + state("pipeline")
            + state("pcie")
            + state("idle");
        assert_eq!(total, cycle, "every tick lands in exactly one bucket");
    }

    #[test]
    fn offload_preserves_chunk_order() {
        let n = 2 * 64;
        let (layout, rq, rs, wq, mut pm) = build(n);
        // Fill via host port for speed.
        for k in 0..n {
            let (i, j) = layout.c.coord(k);
            pm.mem().set(i, j, k as u64).unwrap();
        }
        let _ = wq;
        let mut off = OffloadKernel::new("off-c", layout.c, Rc::clone(&rq[0]), Rc::clone(&rs[0]));
        let mut cycle = 0u64;
        while !off.done() {
            off.tick(cycle);
            pm.tick(cycle);
            cycle += 1;
            assert!(cycle < 10_000);
        }
        assert_eq!(off.collected(), (0..n as u64).collect::<Vec<_>>());
    }
}
