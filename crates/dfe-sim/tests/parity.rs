//! Property-based scheduler-parity harness (the tentpole's correctness
//! oracle, exercised end-to-end).
//!
//! Random kernel graphs are driven to completion twice — once under the
//! legacy per-cycle ticked loop, once under the event-driven fast-forward
//! scheduler — and must agree on:
//!
//! * **total cycles** (the clock delta to quiescence),
//! * **per-kernel stall attribution** (the full telemetry snapshot,
//!   including the exact-sum `dfe_kernel_cycles_total` state buckets),
//! * **memory end-state** (every PolyMem cell, and every element that
//!   reached the terminal stream).
//!
//! The vendored `proptest` stub is deterministic per test name, so failures
//! reproduce without a regressions file.

use dfe_sim::components::Generator;
use dfe_sim::kernel::Kernel;
use dfe_sim::manager::Manager;
use dfe_sim::polymem_kernel::{PolyMemKernel, ReadResponse, WriteRequest};
use dfe_sim::sched::{self, SchedulerMode, SchedulerStats};
use dfe_sim::stream::{stream, StreamRef};
use dfe_sim::SimClock;
use polymem::telemetry::TelemetrySnapshot;
use polymem::{AccessScheme, ParallelAccess, PolyMemConfig, TelemetryRegistry};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Scenario A: component chains under a Manager.
// ---------------------------------------------------------------------------

/// N-to-1 framer: collects `n` consecutive input elements, one per cycle,
/// into one `Vec` burst. Together with [`Unbatcher`] it gives the chain a
/// stage that holds data across cycles and blocks on both sides, which is
/// what the two scheduler loops must agree on.
struct Batcher<T> {
    input: StreamRef<T>,
    out: StreamRef<Vec<T>>,
    n: usize,
    buf: Vec<T>,
}

impl<T> Batcher<T> {
    fn new(input: StreamRef<T>, out: StreamRef<Vec<T>>, n: usize) -> Self {
        assert!(n > 0, "burst size must be positive");
        Self {
            input,
            out,
            n,
            buf: Vec::with_capacity(n),
        }
    }
}

impl<T> Kernel for Batcher<T> {
    fn name(&self) -> &str {
        "frame"
    }

    fn tick(&mut self, _cycle: u64) {
        if self.buf.len() < self.n {
            if let Some(v) = self.input.borrow_mut().pop() {
                self.buf.push(v);
            }
        }
        if self.buf.len() == self.n && self.out.borrow().can_push() {
            let burst = std::mem::replace(&mut self.buf, Vec::with_capacity(self.n));
            self.out.borrow_mut().push(burst);
        }
    }

    fn is_idle(&self) -> bool {
        self.buf.is_empty() && self.input.borrow().is_empty()
    }

    fn next_event(&self) -> Option<u64> {
        let can_fill = self.buf.len() < self.n && !self.input.borrow().is_empty();
        let can_emit = self.buf.len() == self.n && self.out.borrow().can_push();
        if can_fill || can_emit {
            Some(0)
        } else {
            None
        }
    }
}

/// 1-to-N deframer: pops one burst and streams it out one element per
/// cycle.
struct Unbatcher<T> {
    input: StreamRef<Vec<T>>,
    out: StreamRef<T>,
    pending: VecDeque<T>,
}

impl<T> Unbatcher<T> {
    fn new(input: StreamRef<Vec<T>>, out: StreamRef<T>) -> Self {
        Self {
            input,
            out,
            pending: VecDeque::new(),
        }
    }
}

impl<T> Kernel for Unbatcher<T> {
    fn name(&self) -> &str {
        "deframe"
    }

    fn tick(&mut self, _cycle: u64) {
        if self.pending.is_empty() {
            if let Some(burst) = self.input.borrow_mut().pop() {
                self.pending.extend(burst);
            }
        }
        if self.out.borrow().can_push() {
            if let Some(v) = self.pending.pop_front() {
                self.out.borrow_mut().push(v);
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.input.borrow().is_empty()
    }

    fn next_event(&self) -> Option<u64> {
        let can_fill = self.pending.is_empty() && !self.input.borrow().is_empty();
        let can_emit = !self.pending.is_empty() && self.out.borrow().can_push();
        if can_fill || can_emit {
            Some(0)
        } else {
            None
        }
    }
}

#[test]
fn batcher_frames_and_unbatcher_deframes() {
    let elems = stream::<u64>("elems", 16);
    let bursts = stream::<Vec<u64>>("bursts", 4);
    let back = stream::<u64>("back", 16);
    let mut b = Batcher::new(Rc::clone(&elems), Rc::clone(&bursts), 4);
    let mut u = Unbatcher::new(Rc::clone(&bursts), Rc::clone(&back));
    for v in 0..8u64 {
        elems.borrow_mut().push(v);
    }
    for c in 0..32 {
        b.tick(c);
        u.tick(c);
    }
    assert!(b.is_idle() && u.is_idle());
    let got: Vec<u64> = std::iter::from_fn(|| back.borrow_mut().pop()).collect();
    assert_eq!(got, (0..8).collect::<Vec<_>>(), "two 4-element bursts");
}

#[test]
fn batcher_respects_downstream_backpressure() {
    let elems = stream::<u64>("elems", 16);
    let bursts = stream::<Vec<u64>>("bursts", 1);
    let mut b = Batcher::new(Rc::clone(&elems), Rc::clone(&bursts), 2);
    for v in 0..6u64 {
        elems.borrow_mut().push(v);
    }
    for c in 0..32 {
        b.tick(c);
    }
    // Capacity-1 burst FIFO holds one burst; the framer holds a full
    // second burst and waits instead of dropping it.
    assert_eq!(bursts.borrow_mut().pop(), Some(vec![0, 1]));
    assert!(!b.is_idle());
    for c in 32..64 {
        b.tick(c);
    }
    assert_eq!(bursts.borrow_mut().pop(), Some(vec![2, 3]));
}

/// Generator → Batcher(n) → Unbatcher → terminal stream, run to idle under
/// `mode`. Returns (cycles, terminal contents, scheduler stats).
fn run_chain(
    mode: SchedulerMode,
    len: usize,
    cap_elems: usize,
    cap_bursts: usize,
    batch: usize,
) -> (u64, Vec<u64>, SchedulerStats) {
    let data: Vec<u64> = (0..len as u64)
        .map(|x| x.wrapping_mul(2654435761))
        .collect();
    let s_gen = stream("gen-out", cap_elems);
    let s_burst = stream("bursts", cap_bursts);
    let s_out: StreamRef<u64> = stream("terminal", len.max(1));
    let mut mgr = Manager::with_mode(120.0, mode);
    mgr.add_kernel(Box::new(Generator::new("gen", data, Rc::clone(&s_gen))));
    mgr.add_kernel(Box::new(Batcher::new(s_gen, Rc::clone(&s_burst), batch)));
    mgr.add_kernel(Box::new(Unbatcher::new(s_burst, Rc::clone(&s_out))));
    let cycles = mgr.run_until_idle(50_000);
    let mut out = Vec::with_capacity(len);
    while let Some(v) = s_out.borrow_mut().pop() {
        out.push(v);
    }
    (cycles, out, mgr.scheduler_stats())
}

// ---------------------------------------------------------------------------
// Scenario B: a paced writer + paced reader around a PolyMem kernel, driven
// directly through the shared engine so the test keeps ownership of the
// memory for end-state comparison.
// ---------------------------------------------------------------------------

/// Issues one row-write every `interval` cycles (a stand-in for any paced
/// source: PCIe chunks, DRAM bursts).
struct PacedWriter {
    rows: usize,
    lanes: usize,
    interval: u64,
    next_row: usize,
    last_issue: Option<u64>,
    write_req: StreamRef<WriteRequest>,
}

impl Kernel for PacedWriter {
    fn name(&self) -> &str {
        "paced-writer"
    }

    fn tick(&mut self, cycle: u64) {
        if self.next_row >= self.rows {
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
        let r = self.next_row;
        let words: Vec<u64> = (0..self.lanes as u64)
            .map(|k| (r as u64) << 32 | (k + 1))
            .collect();
        self.write_req
            .borrow_mut()
            .push((ParallelAccess::row(r, 0), words));
        self.last_issue = Some(cycle);
        self.next_row += 1;
    }

    fn is_idle(&self) -> bool {
        self.next_row >= self.rows
    }

    fn next_event(&self) -> Option<u64> {
        if self.next_row >= self.rows {
            return None;
        }
        match self.last_issue {
            Some(last) => Some(last + self.interval),
            None => Some(0),
        }
    }
}

/// Issues one row-read every `interval` cycles and collects responses.
struct PacedReader {
    rows: usize,
    interval: u64,
    issued: usize,
    last_issue: Option<u64>,
    read_req: StreamRef<ParallelAccess>,
    read_resp: StreamRef<ReadResponse>,
    collected: Vec<u64>,
    expect: usize,
}

impl Kernel for PacedReader {
    fn name(&self) -> &str {
        "paced-reader"
    }

    fn tick(&mut self, cycle: u64) {
        let pacing_ok = match self.last_issue {
            Some(last) => cycle >= last + self.interval,
            None => true,
        };
        if self.issued < self.rows && pacing_ok && self.read_req.borrow().can_push() {
            self.read_req
                .borrow_mut()
                .push(ParallelAccess::row(self.issued, 0));
            self.last_issue = Some(cycle);
            self.issued += 1;
        }
        if let Some(chunk) = self.read_resp.borrow_mut().pop() {
            self.collected.extend_from_slice(&chunk);
        }
    }

    fn is_idle(&self) -> bool {
        self.collected.len() >= self.expect
    }

    fn next_event(&self) -> Option<u64> {
        if !self.read_resp.borrow().is_empty() {
            return Some(0);
        }
        if self.issued < self.rows {
            return match self.last_issue {
                Some(last) => Some(last + self.interval),
                None => Some(0),
            };
        }
        None
    }
}

struct PolyMemOutcome {
    cycles: u64,
    mem: Vec<u64>,
    read_back: Vec<u64>,
    telemetry: TelemetrySnapshot,
    stats: SchedulerStats,
}

fn run_polymem(
    mode: SchedulerMode,
    latency: u64,
    write_interval: u64,
    read_interval: u64,
    wcap: usize,
    rcap: usize,
) -> PolyMemOutcome {
    let cfg = PolyMemConfig::new(8, 8, 2, 4, AccessScheme::RoCo, 1).unwrap();
    let lanes = cfg.lanes();
    let rq = vec![stream("rq", rcap)];
    let rs: Vec<StreamRef<ReadResponse>> = vec![stream("rs", latency as usize + 4)];
    let wq = stream("wq", wcap);
    let mut pm =
        PolyMemKernel::new("pm", cfg, latency, rq.clone(), rs.clone(), Rc::clone(&wq)).unwrap();
    let registry = TelemetryRegistry::new();
    pm.attach_telemetry(&registry);
    let mut writer = PacedWriter {
        rows: 8,
        lanes,
        interval: write_interval,
        next_row: 0,
        last_issue: None,
        write_req: wq,
    };
    let mut reader = PacedReader {
        rows: 8,
        interval: read_interval,
        issued: 0,
        last_issue: None,
        read_req: Rc::clone(&rq[0]),
        read_resp: Rc::clone(&rs[0]),
        collected: Vec::new(),
        expect: 8 * lanes,
    };
    let mut clock = SimClock::new(120.0);
    let mut stats = SchedulerStats::default();
    let bound = 100_000u64;
    while !(writer.is_idle() && reader.is_idle() && pm.is_idle()) {
        match mode {
            SchedulerMode::Ticked => {
                let c = clock.cycle();
                writer.tick(c);
                reader.tick(c);
                pm.tick(c);
                clock.tick();
            }
            SchedulerMode::EventDriven => {
                let mut kernels: [&mut dyn Kernel; 3] = [&mut writer, &mut reader, &mut pm];
                sched::advance(&mut clock, &mut kernels, bound, &mut stats);
            }
        }
        assert!(clock.cycle() < bound, "scenario wedged ({mode:?})");
    }
    assert!(pm.errors().is_empty(), "memory errors: {:?}", pm.errors());
    let mut mem = Vec::with_capacity(64);
    for i in 0..8 {
        for j in 0..8 {
            mem.push(pm.mem().get(i, j).unwrap());
        }
    }
    PolyMemOutcome {
        cycles: clock.cycle(),
        mem,
        read_back: reader.collected,
        telemetry: registry.snapshot(),
        stats,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chain_parity(
        groups in 1..12usize,
        batch in 1..5usize,
        cap_elems in 1..6usize,
        cap_bursts in 1..4usize,
    ) {
        // Whole batches only: a trailing partial batch never drains, which
        // both loops handle identically but slowly (budget burn).
        let len = groups * batch;
        let (tc, tout, tstats) = run_chain(SchedulerMode::Ticked, len, cap_elems, cap_bursts, batch);
        let (ec, eout, estats) = run_chain(SchedulerMode::EventDriven, len, cap_elems, cap_bursts, batch);
        prop_assert_eq!(tc, ec, "total cycles");
        prop_assert_eq!(tout, eout, "terminal stream contents");
        prop_assert_eq!(tstats, SchedulerStats::default(), "ticked mode bypasses the engine");
        prop_assert_eq!(estats.total_cycles(), ec, "engine accounts every cycle");
    }

    #[test]
    fn polymem_parity(
        latency in 1..=20u64,
        write_interval in 1..=12u64,
        read_interval in 1..=12u64,
        wcap in 1..6usize,
        rcap in 1..6usize,
    ) {
        let t = run_polymem(SchedulerMode::Ticked, latency, write_interval, read_interval, wcap, rcap);
        let e = run_polymem(SchedulerMode::EventDriven, latency, write_interval, read_interval, wcap, rcap);
        prop_assert_eq!(t.cycles, e.cycles, "total cycles");
        prop_assert_eq!(t.mem, e.mem, "PolyMem end-state");
        prop_assert_eq!(t.read_back, e.read_back, "read-port data (read-old order)");
        // The oracle: identical snapshots means identical per-kernel stall
        // attribution, datapath counters, bank utilization — everything.
        prop_assert_eq!(&t.telemetry, &e.telemetry, "telemetry snapshots");
        prop_assert_eq!(e.stats.total_cycles(), e.cycles, "engine accounts every cycle");
        // Pacing gaps and pipeline fills are real quiescent spans: on any
        // sparse parameterization the event scheduler must actually skip.
        if write_interval >= 4 && read_interval >= 4 {
            prop_assert!(e.stats.skipped_cycles > 0, "sparse run should fast-forward");
        }
    }
}
