//! The region-burst streaming controller (the "just stream the burst" mode).
//!
//! The per-chunk [`crate::controller::Controller`] re-derives one parallel
//! access per cycle — a faithful model of Fig. 9, but on the CPU every chunk
//! pays a plan lookup, a bounds check and a FIFO round-trip. The hardware
//! controller does none of that in steady state: once the AGU is programmed
//! it *streams the burst*. [`BurstController`] is that mode on the
//! simulator: each vector is covered by a handful of [`Region`]s (usually
//! one `Block`, see [`crate::layout::vector_regions`]), and the
//! controller issues whole-region bursts on the PolyMem kernel's region
//! ports:
//!
//! * **Copy** becomes fused `(src, dst)` copy bursts on the
//!   [region-copy port](dfe_sim::polymem_kernel::PolyMemKernel::attach_region_copy_port) —
//!   the data never crosses back into the controller at all;
//! * **Scale / Sum / Triad** read operand regions through the
//!   [region port](dfe_sim::polymem_kernel::PolyMemKernel::attach_region_port),
//!   apply the op to the whole burst, and issue one region-write burst.
//!
//! A burst of `len` elements occupies the datapath for `ceil(len / lanes)`
//! cycles plus the pipeline latency, so Copy and Scale on a `Block` cover
//! match the per-chunk cycle count within a few cycles. Two-operand ops
//! (Sum, Triad) read their operand bursts one after the other on the single
//! region read port, so they take about twice the per-chunk count, and each
//! burst of a ragged (`Row`) cover pays the read latency again. What the
//! burst mode removes is the per-chunk modelling overhead on the host,
//! which is the gap `BENCH_stream_region.json` measures.

use crate::controller::StateRef;
use crate::layout::{vector_regions, StreamLayout};
use crate::op::StreamOp;
use dfe_sim::kernel::Kernel;
use dfe_sim::polymem_kernel::{
    RegionCopyRequest, RegionCopyResponse, RegionRequest, RegionResponse, RegionWriteRequest,
};
use dfe_sim::stream::StreamRef;
use polymem::telemetry::{Counter, Histogram, TelemetryRegistry};
use polymem::Region;

/// Bucket bounds for the in-flight-burst occupancy histogram: real covers
/// are a handful of regions, so small powers of two resolve the whole range.
static OUTSTANDING_BOUNDS: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// Per-event controller telemetry: how many bursts are in flight each time
/// one is issued or retired, plus the issue count itself. Observations
/// happen on *events* (issue / completion), not every tick, so an idle
/// controller costs nothing.
struct BurstTelemetry {
    outstanding: Histogram,
    issued: Counter,
}

impl BurstTelemetry {
    fn observe(&self, issued: usize, written: usize) {
        self.outstanding
            .observe(issued.saturating_sub(written) as u64);
    }
}

/// The burst-mode compute-stage controller.
///
/// Progress is tracked in the shared [`crate::controller::ControllerState`]
/// with burst (region) granularity: `issued`/`written` count bursts, and a
/// pass covers [`BurstController::bursts`] of them.
pub struct BurstController {
    op: StreamOp,
    /// First-operand cover (A for Copy, B otherwise), in vector order.
    src: Vec<Region>,
    /// Second-operand cover (C), used by the 2-read ops.
    src2: Vec<Region>,
    /// Destination cover (C for Copy, A otherwise).
    dst: Vec<Region>,
    state: StateRef,
    copy_req: StreamRef<RegionCopyRequest>,
    copy_resp: StreamRef<RegionCopyResponse>,
    region_req: StreamRef<RegionRequest>,
    region_resp: StreamRef<RegionResponse>,
    write_req: StreamRef<RegionWriteRequest>,
    /// Region read requests issued this pass (compute ops only).
    reads_issued: usize,
    /// First-operand burst awaiting its partner (2-read ops only).
    stash: Option<Vec<u64>>,
    /// Computed burst held back by write-FIFO backpressure.
    pending_write: Option<(usize, Vec<u64>)>,
    /// Occupancy/issue telemetry, when attached.
    tlm: Option<BurstTelemetry>,
}

impl BurstController {
    /// Build a burst controller for `op` over `layout`.
    ///
    /// The streams are the PolyMem kernel's region read, fused-copy and
    /// region-write ports (attach them all; Copy uses the copy port, the
    /// compute ops use read + write).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        op: StreamOp,
        layout: StreamLayout,
        state: StateRef,
        copy_req: StreamRef<RegionCopyRequest>,
        copy_resp: StreamRef<RegionCopyResponse>,
        region_req: StreamRef<RegionRequest>,
        region_resp: StreamRef<RegionResponse>,
        write_req: StreamRef<RegionWriteRequest>,
    ) -> Self {
        let p = layout.config.p;
        let (src, src2, dst) = match op {
            StreamOp::Copy => (
                vector_regions(&layout.a, p, "A"),
                Vec::new(),
                vector_regions(&layout.c, p, "C"),
            ),
            StreamOp::Scale(_) => (
                vector_regions(&layout.b, p, "B"),
                Vec::new(),
                vector_regions(&layout.a, p, "A"),
            ),
            StreamOp::Sum | StreamOp::Triad(_) => (
                vector_regions(&layout.b, p, "B"),
                vector_regions(&layout.c, p, "C"),
                vector_regions(&layout.a, p, "A"),
            ),
        };
        debug_assert_eq!(src.len(), dst.len(), "operand and result share a cover");
        Self {
            op,
            src,
            src2,
            dst,
            state,
            copy_req,
            copy_resp,
            region_req,
            region_resp,
            write_req,
            reads_issued: 0,
            stash: None,
            pending_write: None,
            tlm: None,
        }
    }

    /// Register the controller's occupancy histogram
    /// (`stream_burst_outstanding{op=...}`) and issue counter
    /// (`stream_bursts_issued_total{op=...}`) with `registry`. Observations
    /// are per burst event, so the steady-state tick path is untouched.
    pub fn attach_telemetry(&mut self, registry: &TelemetryRegistry) {
        let labels = vec![("op", self.op.name().to_string())];
        self.tlm = Some(BurstTelemetry {
            outstanding: registry.histogram(
                "stream_burst_outstanding",
                labels.clone(),
                &OUTSTANDING_BOUNDS,
            ),
            issued: registry.counter("stream_bursts_issued_total", labels),
        });
    }

    /// Bursts (regions) per pass.
    pub fn bursts(&self) -> usize {
        self.dst.len()
    }

    /// Reset per-pass bookkeeping (the shared state is reset by the host).
    pub fn begin_pass(&mut self) {
        self.reads_issued = 0;
        self.stash = None;
        self.pending_write = None;
    }

    /// Whether the current pass is finished (all bursts completed).
    pub fn pass_done(&self) -> bool {
        let s = self.state.borrow();
        !s.running || s.written >= self.bursts()
    }

    /// Copy path: fused copy bursts out, completion tokens back.
    fn tick_copy(&mut self) {
        let mut st = self.state.borrow_mut();
        if st.issued < self.bursts() && self.copy_req.borrow().can_push() {
            let r = st.issued;
            self.copy_req
                .borrow_mut()
                .push((self.src[r].clone(), self.dst[r].clone()));
            st.issued += 1;
            if let Some(t) = &self.tlm {
                t.issued.inc();
                t.observe(st.issued, st.written);
            }
        }
        if self.copy_resp.borrow_mut().pop().is_some() {
            st.written += 1;
            if st.written >= self.bursts() {
                st.running = false;
            }
            if let Some(t) = &self.tlm {
                t.observe(st.issued, st.written);
            }
        }
    }

    /// Compute path: region reads out, op applied per burst, region write
    /// bursts in vector order.
    fn tick_compute(&mut self) {
        let reads_per_burst = self.op.reads();
        let total_reads = self.bursts() * reads_per_burst;
        // Issue phase: operand regions in order (B[r], then C[r] for the
        // 2-read ops); the single region port serves them back in order.
        if self.reads_issued < total_reads && self.region_req.borrow().can_push() {
            let r = self.reads_issued / reads_per_burst;
            let which = self.reads_issued % reads_per_burst;
            let region = if which == 0 {
                &self.src[r]
            } else {
                &self.src2[r]
            };
            self.region_req.borrow_mut().push(region.clone());
            self.reads_issued += 1;
            let mut st = self.state.borrow_mut();
            let issued = self.reads_issued.div_ceil(reads_per_burst);
            if issued > st.issued {
                st.issued = issued;
                if let Some(t) = &self.tlm {
                    t.issued.inc();
                    t.observe(st.issued, st.written);
                }
            }
        }
        // Collect phase: combine a full operand set into one write burst.
        if self.pending_write.is_none() {
            if let Some(data) = self.region_resp.borrow_mut().pop() {
                if reads_per_burst > 1 && self.stash.is_none() {
                    self.stash = Some(data);
                } else {
                    let burst = match self.stash.take() {
                        Some(x) => x
                            .iter()
                            .zip(&data)
                            .map(|(&xb, &yb)| {
                                self.op
                                    .apply(f64::from_bits(xb), f64::from_bits(yb))
                                    .to_bits()
                            })
                            .collect(),
                        None => data
                            .iter()
                            .map(|&xb| self.op.apply(f64::from_bits(xb), 0.0).to_bits())
                            .collect(),
                    };
                    let r = self.state.borrow().written;
                    self.pending_write = Some((r, burst));
                }
            }
        }
        // Drain phase: the computed burst waits for write-FIFO room.
        if let Some((r, _)) = self.pending_write {
            if self.write_req.borrow().can_push() {
                let (_, burst) = self.pending_write.take().expect("checked");
                self.write_req
                    .borrow_mut()
                    .push((self.dst[r].clone(), burst));
                let mut st = self.state.borrow_mut();
                st.written += 1;
                if st.written >= self.bursts() {
                    st.running = false;
                }
                if let Some(t) = &self.tlm {
                    t.observe(st.issued, st.written);
                }
            }
        }
    }
}

impl Kernel for BurstController {
    fn name(&self) -> &str {
        "stream-burst-controller"
    }

    fn tick(&mut self, _cycle: u64) {
        if !self.state.borrow().running {
            return;
        }
        match self.op {
            StreamOp::Copy => self.tick_copy(),
            _ => self.tick_compute(),
        }
    }

    fn is_idle(&self) -> bool {
        self.pass_done()
    }

    fn next_event(&self) -> Option<u64> {
        // Mirror `tick`'s can-act conditions exactly: the controller wakes
        // only on external input (a burst completion or freed FIFO slot),
        // and every such change is bounded by the PolyMem kernel's own
        // `next_event`, so returning `None` here lets the scheduler
        // fast-forward engine-busy spans without perturbing cycle counts.
        let st = self.state.borrow();
        if !st.running {
            return None;
        }
        let can_act = match self.op {
            StreamOp::Copy => {
                (st.issued < self.bursts() && self.copy_req.borrow().can_push())
                    || !self.copy_resp.borrow().is_empty()
            }
            _ => {
                let total_reads = self.bursts() * self.op.reads();
                (self.reads_issued < total_reads && self.region_req.borrow().can_push())
                    || (self.pending_write.is_none() && !self.region_resp.borrow().is_empty())
                    || (self.pending_write.is_some() && self.write_req.borrow().can_push())
            }
        };
        if can_act {
            Some(0)
        } else {
            None
        }
    }

    fn busy_reason(&self) -> Option<String> {
        let s = self.state.borrow();
        if !s.running || s.written >= self.bursts() {
            return None;
        }
        Some(format!(
            "{}: burst {} of {} outstanding",
            self.op.name(),
            s.written + 1,
            self.bursts()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerState;
    use polymem::AccessScheme;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn tiny_layout() -> StreamLayout {
        StreamLayout::new(16, 8, 2, 4, AccessScheme::RoCo, 2).unwrap()
    }

    struct Rig {
        ctrl: BurstController,
        copy_req: StreamRef<RegionCopyRequest>,
        copy_resp: StreamRef<RegionCopyResponse>,
        region_req: StreamRef<RegionRequest>,
        region_resp: StreamRef<RegionResponse>,
        write_req: StreamRef<RegionWriteRequest>,
        state: StateRef,
    }

    fn make(op: StreamOp) -> Rig {
        let layout = tiny_layout();
        let copy_req = dfe_sim::stream("cq", 4);
        let copy_resp = dfe_sim::stream("cr", 4);
        let region_req = dfe_sim::stream("rq", 4);
        let region_resp = dfe_sim::stream("rr", 4);
        let write_req = dfe_sim::stream("wq", 4);
        let state: StateRef = Rc::new(RefCell::new(ControllerState {
            running: true,
            ..Default::default()
        }));
        let ctrl = BurstController::new(
            op,
            layout,
            Rc::clone(&state),
            Rc::clone(&copy_req),
            Rc::clone(&copy_resp),
            Rc::clone(&region_req),
            Rc::clone(&region_resp),
            Rc::clone(&write_req),
        );
        Rig {
            ctrl,
            copy_req,
            copy_resp,
            region_req,
            region_resp,
            write_req,
            state,
        }
    }

    #[test]
    fn copy_issues_fused_bursts_and_counts_tokens() {
        let mut rig = make(StreamOp::Copy);
        assert_eq!(rig.ctrl.bursts(), 1, "16 elems over 2 rows is one Block");
        rig.ctrl.tick(0);
        let (src, dst) = rig.copy_req.borrow_mut().pop().expect("one fused burst");
        assert_eq!(src.name, "A");
        assert_eq!(dst.name, "C");
        assert_eq!(src.len(), 16);
        assert!(!rig.ctrl.pass_done());
        rig.copy_resp.borrow_mut().push(16);
        rig.ctrl.tick(1);
        assert!(rig.ctrl.pass_done());
        assert!(!rig.state.borrow().running);
    }

    #[test]
    fn scale_reads_b_and_writes_scaled_burst_to_a() {
        let mut rig = make(StreamOp::Scale(2.0));
        rig.ctrl.tick(0);
        let req = rig.region_req.borrow_mut().pop().expect("B read burst");
        assert_eq!(req.name, "B");
        let data: Vec<u64> = (0..16).map(|k| (k as f64).to_bits()).collect();
        rig.region_resp.borrow_mut().push(data);
        rig.ctrl.tick(1);
        let (dst, burst) = rig.write_req.borrow_mut().pop().expect("write burst");
        assert_eq!(dst.name, "A");
        assert_eq!(f64::from_bits(burst[5]), 10.0, "2.0 * 5.0");
        assert!(rig.ctrl.pass_done());
    }

    #[test]
    fn sum_pairs_two_operand_bursts_in_order() {
        let mut rig = make(StreamOp::Sum);
        rig.ctrl.tick(0);
        rig.ctrl.tick(1);
        let first = rig.region_req.borrow_mut().pop().unwrap();
        let second = rig.region_req.borrow_mut().pop().unwrap();
        assert_eq!((first.name.as_str(), second.name.as_str()), ("B", "C"));
        let b: Vec<u64> = (0..16).map(|k| (k as f64).to_bits()).collect();
        let c: Vec<u64> = (0..16).map(|k| (100.0 - k as f64).to_bits()).collect();
        rig.region_resp.borrow_mut().push(b);
        rig.ctrl.tick(2); // stashes B
        assert!(rig.write_req.borrow().is_empty());
        rig.region_resp.borrow_mut().push(c);
        rig.ctrl.tick(3); // combines and writes
        let (dst, burst) = rig.write_req.borrow_mut().pop().expect("write burst");
        assert_eq!(dst.name, "A");
        assert!(burst.iter().all(|&v| f64::from_bits(v) == 100.0));
        assert!(rig.ctrl.pass_done());
    }

    #[test]
    fn write_backpressure_holds_the_burst() {
        let layout = tiny_layout();
        let state: StateRef = Rc::new(RefCell::new(ControllerState {
            running: true,
            ..Default::default()
        }));
        let write_req: StreamRef<RegionWriteRequest> = dfe_sim::stream("wq-tight", 1);
        // Pre-fill the capacity-1 write FIFO so the controller must hold.
        write_req.borrow_mut().push((
            Region::new("X", 0, 0, polymem::RegionShape::Row { len: 8 }),
            vec![0; 8],
        ));
        let region_resp = dfe_sim::stream("rr", 4);
        let mut ctrl = BurstController::new(
            StreamOp::Scale(3.0),
            layout,
            Rc::clone(&state),
            dfe_sim::stream("cq", 4),
            dfe_sim::stream("cr", 4),
            dfe_sim::stream("rq", 4),
            Rc::clone(&region_resp),
            Rc::clone(&write_req),
        );
        region_resp
            .borrow_mut()
            .push((0..16).map(|k| (k as f64).to_bits()).collect::<Vec<_>>());
        ctrl.tick(0);
        ctrl.tick(1);
        assert!(!ctrl.pass_done(), "burst held under backpressure");
        write_req.borrow_mut().pop();
        ctrl.tick(2);
        assert!(ctrl.pass_done(), "burst drains once the FIFO has room");
    }

    #[test]
    fn telemetry_counts_issues_and_occupancy_events() {
        let mut rig = make(StreamOp::Copy);
        let reg = TelemetryRegistry::new();
        rig.ctrl.attach_telemetry(&reg);
        rig.ctrl.tick(0); // issue event: outstanding = 1
        rig.copy_resp.borrow_mut().push(16);
        rig.ctrl.tick(1); // completion event: outstanding = 0
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter_value("stream_bursts_issued_total", &[("op", "Copy")]),
            Some(1)
        );
        let prom = snap.to_prometheus();
        assert!(
            prom.contains("stream_burst_outstanding"),
            "histogram exported: {prom}"
        );
    }

    #[test]
    fn idle_when_not_running() {
        let mut rig = make(StreamOp::Copy);
        rig.state.borrow_mut().running = false;
        assert!(rig.ctrl.is_idle());
        assert!(rig.ctrl.busy_reason().is_none());
        rig.ctrl.tick(0);
        assert!(rig.copy_req.borrow().is_empty(), "no issue when idle");
    }
}
