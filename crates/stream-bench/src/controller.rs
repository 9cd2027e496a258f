//! The STREAM Controller kernel (paper Fig. 9).
//!
//! The Controller drives MAX-PolyMem: it generates the read signals
//! (`Ri, Rj, Rshape`) and write signals (`Wi, Wj, Wshape`), selects the
//! write-port input via the MUXes (here: computing the output chunk from
//! the read responses — the "feedback loop from the output port of
//! PolyMem") and sequences one chunk per cycle. The read latency is
//! absorbed naturally: writes are issued only when the corresponding read
//! data emerges from the memory's pipeline, which is the paper's
//! "delay ... applied on the output data ... 14 clock cycles" alignment.

use crate::layout::{StreamLayout, VectorLayout};
use crate::op::StreamOp;
use dfe_sim::kernel::Kernel;
use dfe_sim::polymem_kernel::{PolyMemKernel, ReadRequest, ReadResponse, RowRun, WriteRequest};
use dfe_sim::stream::StreamRef;
use polymem::PolyMemError;
use std::cell::RefCell;
use std::rc::Rc;

/// Controller progress, shared with the host so stages can be restarted
/// (the `Mode` signal of Fig. 9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerState {
    /// Chunks whose reads have been issued.
    pub issued: usize,
    /// Chunks whose writes have been issued.
    pub written: usize,
    /// Whether the stage is armed (Mode == compute).
    pub running: bool,
}

/// Shared handle to controller state.
pub type StateRef = Rc<RefCell<ControllerState>>;

/// The compute-stage controller.
pub struct Controller {
    op: StreamOp,
    layout: StreamLayout,
    chunks: usize,
    state: StateRef,
    read_req: Vec<StreamRef<ReadRequest>>,
    read_resp: Vec<StreamRef<ReadResponse>>,
    write_req: StreamRef<WriteRequest>,
}

impl Controller {
    /// Build a controller for `op` over `layout`.
    ///
    /// `read_req`/`read_resp` are the PolyMem kernel's port streams; the
    /// controller uses the first [`StreamOp::reads`] ports.
    ///
    /// Returns [`PolyMemError::InvalidGeometry`] when the memory has fewer
    /// read ports than the op reads vectors (Sum and Triad need two).
    pub fn new(
        op: StreamOp,
        layout: StreamLayout,
        state: StateRef,
        read_req: Vec<StreamRef<ReadRequest>>,
        read_resp: Vec<StreamRef<ReadResponse>>,
        write_req: StreamRef<WriteRequest>,
    ) -> polymem::Result<Self> {
        let ports = read_req.len().min(read_resp.len());
        if ports < op.reads() {
            return Err(PolyMemError::InvalidGeometry {
                reason: format!(
                    "{} reads {} vectors per chunk but the memory has {ports} read port(s)",
                    op.name(),
                    op.reads()
                ),
            });
        }
        let chunks = layout.a.chunks();
        Ok(Self {
            op,
            layout,
            chunks,
            state,
            read_req,
            read_resp,
            write_req,
        })
    }

    /// Number of chunks per pass.
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Whether the current pass is finished (all writes issued).
    pub fn pass_done(&self) -> bool {
        let s = self.state.borrow();
        !s.running || s.written >= self.chunks
    }

    /// Source vector(s) and destination for the configured op.
    fn source(&self, port: usize) -> VectorLayout {
        match (self.op, port) {
            (StreamOp::Copy, _) => self.layout.a,
            (StreamOp::Scale(_), _) => self.layout.b,
            (StreamOp::Sum, 0) | (StreamOp::Triad(_), 0) => self.layout.b,
            (StreamOp::Sum, _) | (StreamOp::Triad(_), _) => self.layout.c,
        }
    }

    fn dest(&self) -> VectorLayout {
        match self.op {
            StreamOp::Copy => self.layout.c,
            _ => self.layout.a,
        }
    }

    /// Serve a live pass's steady state up to its last issue in one
    /// [`PolyMemKernel::lockstep`] window from `cycle`, then advance
    /// `issued` and `written` by the cycles served. The controller's side
    /// of the steady state: the pass runs, chunks are left to issue, and
    /// `issued == written + L + 1` (each port's pipeline full and one word
    /// delivered). Returns 0 when either side is not in its steady state.
    /// `polymem` must be the kernel this controller's streams feed.
    pub(crate) fn lockstep(&mut self, polymem: &mut PolyMemKernel, cycle: u64) -> u64 {
        let (issued, written) = {
            let st = self.state.borrow();
            if !st.running
                || st.issued >= self.chunks
                || st.issued != st.written + polymem.read_latency() as usize + 1
            {
                return 0;
            }
            (st.issued, st.written)
        };
        let served = polymem.lockstep(
            cycle,
            (self.chunks - issued) as u64,
            self.op.reads(),
            |port, k| row_run(self.source(port), issued + k as usize),
            |k| row_run(self.dest(), written + k as usize),
            |mut words| {
                let (x, mut rest) = words.split();
                self.op.combine(x, rest.next());
            },
        );
        let mut st = self.state.borrow_mut();
        st.issued += served as usize;
        st.written += served as usize;
        served
    }
}

/// The chunks of `v` from chunk `c` to the end of its row, as the run of
/// row accesses that moves them.
fn row_run(v: VectorLayout, c: usize) -> RowRun {
    let first = v.access(c);
    RowRun {
        first,
        cycles: ((v.cols - first.j) / v.lanes) as u64,
    }
}

impl Kernel for Controller {
    fn name(&self) -> &str {
        "stream-controller"
    }

    fn tick(&mut self, _cycle: u64) {
        let reads = self.op.reads();
        let mut st = self.state.borrow_mut();
        if !st.running {
            return;
        }
        // Issue phase: one chunk's reads per cycle, if all request FIFOs
        // have room (lockstep ports).
        if st.issued < self.chunks && (0..reads).all(|p| self.read_req[p].borrow().can_push()) {
            for (p, req) in self.read_req.iter().enumerate().take(reads) {
                req.borrow_mut().push(self.source(p).access(st.issued));
            }
            st.issued += 1;
        }
        // Collect phase: when a full operand set is available and the write
        // FIFO has room, combine and write one chunk.
        if st.written < st.issued
            && self.write_req.borrow().can_push()
            && (0..reads).all(|p| !self.read_resp[p].borrow().is_empty())
        {
            // The result overwrites the first operand's lanes in place.
            let Some(mut data) = self.read_resp[0].borrow_mut().pop() else {
                return;
            };
            if reads > 1 {
                let Some(y) = self.read_resp[1].borrow_mut().pop() else {
                    return;
                };
                self.op.combine(&mut data, Some(&y));
            } else {
                self.op.combine(&mut data, None);
            }
            let access = self.dest().access(st.written);
            self.write_req.borrow_mut().push((access, data));
            st.written += 1;
            if st.written >= self.chunks {
                st.running = false;
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.pass_done()
    }

    fn next_event(&self) -> Option<u64> {
        // The per-chunk FSM re-evaluates its issue/collect conditions every
        // cycle while a pass is live, so the scheduler never skips a cycle
        // of a dense pass and cannot change its cycle count; `StreamApp`
        // serves the pass's steady state in one `lockstep` window, which
        // does exactly what these ticks would. A finished pass never needs
        // another tick.
        if self.pass_done() {
            None
        } else {
            Some(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfe_sim::polymem_kernel::LaneWord;
    use polymem::AccessScheme;

    fn tiny_layout() -> StreamLayout {
        StreamLayout::new(16, 8, 2, 4, AccessScheme::RoCo, 2).unwrap()
    }

    #[allow(clippy::type_complexity)]
    fn make(
        op: StreamOp,
    ) -> (
        Controller,
        Vec<StreamRef<ReadRequest>>,
        Vec<StreamRef<ReadResponse>>,
        StreamRef<WriteRequest>,
        StateRef,
    ) {
        let layout = tiny_layout();
        let rq: Vec<StreamRef<ReadRequest>> = (0..2)
            .map(|p| dfe_sim::stream(format!("rq{p}"), 16))
            .collect();
        let rs: Vec<StreamRef<ReadResponse>> = (0..2)
            .map(|p| dfe_sim::stream(format!("rs{p}"), 16))
            .collect();
        let wq = dfe_sim::stream("wq", 16);
        let state: StateRef = Rc::new(RefCell::new(ControllerState {
            running: true,
            ..Default::default()
        }));
        let c = Controller::new(
            op,
            layout,
            Rc::clone(&state),
            rq.clone(),
            rs.clone(),
            Rc::clone(&wq),
        )
        .unwrap();
        (c, rq, rs, wq, state)
    }

    #[test]
    fn issues_one_chunk_per_cycle() {
        let (mut c, rq, _rs, _wq, state) = make(StreamOp::Copy);
        for cyc in 0..2 {
            c.tick(cyc);
        }
        assert_eq!(state.borrow().issued, 2);
        assert_eq!(rq[0].borrow().len(), 2);
        assert!(rq[1].borrow().is_empty(), "Copy uses one port");
    }

    #[test]
    fn sum_issues_on_both_ports() {
        let (mut c, rq, _rs, _wq, _state) = make(StreamOp::Sum);
        c.tick(0);
        assert_eq!(rq[0].borrow().len(), 1);
        assert_eq!(rq[1].borrow().len(), 1);
        let b_req = rq[0].borrow_mut().pop().unwrap();
        let c_req = rq[1].borrow_mut().pop().unwrap();
        assert_ne!(b_req.i, c_req.i, "B and C live in different regions");
    }

    #[test]
    fn writes_after_responses() {
        let (mut c, _rq, rs, wq, state) = make(StreamOp::Scale(2.0));
        c.tick(0); // issue chunk 0
        assert_eq!(state.borrow().written, 0);
        // Hand it a response as the memory would.
        let resp: Vec<u64> = (0..8).map(|k| (k as f64).to_bits()).collect();
        rs[0].borrow_mut().push(LaneWord::from(&resp[..]));
        c.tick(1);
        assert_eq!(state.borrow().written, 1);
        let (access, data) = wq.borrow_mut().pop().unwrap();
        assert_eq!(access.i, c.dest().base_row, "Scale writes into A");
        assert_eq!(f64::from_bits(data[3]), 6.0, "2.0 * 3.0");
    }

    #[test]
    fn pass_completes_and_stops() {
        let (mut c, _rq, rs, _wq, state) = make(StreamOp::Copy);
        let chunks = c.chunks();
        for cyc in 0..(chunks as u64) {
            c.tick(cyc);
            rs[0].borrow_mut().push(LaneWord::zeroed(8));
        }
        for cyc in 0..(chunks as u64 + 4) {
            c.tick(1000 + cyc);
        }
        assert!(c.pass_done());
        assert!(!state.borrow().running);
        assert_eq!(state.borrow().written, chunks);
    }

    #[test]
    fn idle_when_not_running() {
        let (mut c, rq, _rs, _wq, state) = make(StreamOp::Copy);
        state.borrow_mut().running = false;
        assert!(c.is_idle());
        c.tick(0);
        assert!(rq[0].borrow().is_empty(), "no issue when Mode is idle");
    }
}
