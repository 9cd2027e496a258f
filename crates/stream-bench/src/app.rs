//! The assembled STREAM design and its staged execution (paper §V).
//!
//! The design runs in three host-orchestrated stages, each a blocking call:
//!
//! 1. **Load** — the host streams vectors A, B, C into PolyMem's three
//!    regions over PCIe;
//! 2. **Compute** (the measured stage — "Copy" in the paper) — the
//!    Controller streams chunks through PolyMem's read port(s), applies the
//!    op, and feeds the write port from the memory's own output (the
//!    feedback loop), fully pipelined;
//! 3. **Offload** — the host retrieves the result vector.
//!
//! Stage timing follows the paper's measurement methodology: the compute
//! stage costs `cycles / f` plus the ~300 ns blocking-call overhead, and is
//! repeated (1000 runs in the paper) for resolution; the simulator verifies
//! run-to-run determinism instead of re-simulating all 1000.

use crate::burst::BurstController;
use crate::controller::{Controller, ControllerState, StateRef};
use crate::layout::StreamLayout;
use crate::op::StreamOp;
use dfe_sim::clock::SimClock;
use dfe_sim::kernel::Kernel;
use dfe_sim::pcie::{Host, PcieLink};
use dfe_sim::polymem_kernel::{PolyMemKernel, PAPER_READ_LATENCY};
use dfe_sim::sched::{self, SchedulerMode, SchedulerStats, Step};
use dfe_sim::stream::stream;
use polymem::telemetry::{Counter, Histogram, TelemetryRegistry};
use polymem::tracing::{NameId, TraceJournal, TraceWriter};
use std::cell::RefCell;
use std::rc::Rc;

/// The paper's synthesized STREAM clock: 120 MHz.
pub const PAPER_STREAM_FREQ_MHZ: f64 = 120.0;

/// Bucket bounds for per-pass cycle counts: paper-size passes land in the
/// thousands, toy geometries in the tens.
static PASS_CYCLE_BOUNDS: [u64; 8] = [64, 128, 256, 512, 1024, 4096, 16384, 65536];

/// Bucket bounds for per-pass achieved bandwidth in MB/s; the top finite
/// bucket sits just under the paper's 15 360 MB/s peak.
static PASS_BANDWIDTH_BOUNDS: [u64; 6] = [1000, 2000, 4000, 8000, 12000, 15360];

/// Per-pass app telemetry: pass-level histograms plus the simulated-cycle
/// accumulator that the exact-sum stall check reconciles against
/// `dfe_kernel_cycles_total` (the kernel ticks exactly once per simulated
/// cycle in [`StreamApp::run_pass`], so the state buckets must sum to
/// `stream_sim_cycles_total` when telemetry was attached before the first
/// pass).
struct AppTelemetry {
    pass_cycles: Histogram,
    pass_bandwidth: Histogram,
    passes: Counter,
    sim_cycles: Counter,
    /// Span-journal ring overwrites, mirrored from the journal's drop
    /// counter at each pass end (stays 0 when no journal is attached —
    /// registered unconditionally so the committed telemetry schema is
    /// satisfiable by `attach_telemetry` alone).
    trace_dropped: Counter,
}

/// Span-journal wiring for the whole design (see
/// [`StreamApp::attach_tracing`]): the PolyMem kernel instruments itself;
/// the app keeps the journal's logical clock in step with the simulation
/// clock, renders scheduler fast-forwards as `sched`-track spans, and
/// mirrors the journal's drop counter into telemetry.
struct AppTracing {
    journal: TraceJournal,
    sched: TraceWriter,
    fast_forward: NameId,
    /// Drops already mirrored into `stream_trace_dropped_total`.
    synced_drops: u64,
}

/// Timing result of a measured compute stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTiming {
    /// Cycles per run (deterministic across runs).
    pub cycles_per_run: u64,
    /// Number of runs accounted.
    pub runs: usize,
    /// Wall time per run in ns, including the host-call overhead.
    pub time_per_run_ns: f64,
    /// Aggregated bandwidth in MB/s (reads + writes, STREAM counting).
    pub bandwidth_mbps: f64,
    /// The theoretical peak for this op/geometry/frequency in MB/s.
    pub peak_mbps: f64,
}

impl StageTiming {
    /// Fraction of theoretical peak achieved.
    pub fn fraction_of_peak(&self) -> f64 {
        self.bandwidth_mbps / self.peak_mbps
    }
}

/// The compute-stage driver: the per-chunk Fig. 9 Controller FSM, or the
/// region-burst controller that streams whole vectors per request.
enum Driver {
    PerChunk(Controller),
    Burst(BurstController),
}

impl Driver {
    fn pass_done(&self) -> bool {
        match self {
            Driver::PerChunk(c) => c.pass_done(),
            Driver::Burst(b) => b.pass_done(),
        }
    }

    fn begin_pass(&mut self) {
        if let Driver::Burst(b) = self {
            b.begin_pass();
        }
    }

    /// Work units per pass (chunks or bursts), for the wedge diagnostic.
    fn units(&self) -> usize {
        match self {
            Driver::PerChunk(c) => c.chunks(),
            Driver::Burst(b) => b.bursts(),
        }
    }
}

/// Both controller flavours are kernels, so the driver is one too — this is
/// what lets [`StreamApp::run_pass`] hand the whole design to the shared
/// [`sched::advance`] engine.
impl Kernel for Driver {
    fn name(&self) -> &str {
        match self {
            Driver::PerChunk(c) => c.name(),
            Driver::Burst(b) => b.name(),
        }
    }

    fn tick(&mut self, cycle: u64) {
        match self {
            Driver::PerChunk(c) => c.tick(cycle),
            Driver::Burst(b) => b.tick(cycle),
        }
    }

    fn is_idle(&self) -> bool {
        self.pass_done()
    }

    fn next_event(&self) -> Option<u64> {
        match self {
            Driver::PerChunk(c) => c.next_event(),
            Driver::Burst(b) => b.next_event(),
        }
    }

    fn skip_to(&mut self, from: u64, to: u64) {
        match self {
            Driver::PerChunk(c) => c.skip_to(from, to),
            Driver::Burst(b) => b.skip_to(from, to),
        }
    }

    fn busy_reason(&self) -> Option<String> {
        match self {
            Driver::PerChunk(c) => c.busy_reason(),
            Driver::Burst(b) => b.busy_reason(),
        }
    }
}

/// The assembled design: PolyMem kernel + Controller + host endpoint.
pub struct StreamApp {
    op: StreamOp,
    layout: StreamLayout,
    clock: SimClock,
    driver: Driver,
    polymem: PolyMemKernel,
    state: StateRef,
    host: Host,
    mode: SchedulerMode,
    sched_stats: SchedulerStats,
    tlm: Option<AppTelemetry>,
    trc: Option<AppTracing>,
}

impl StreamApp {
    /// Build the design for `op` on `layout` at `freq_mhz` with the paper's
    /// 14-cycle read latency.
    pub fn new(op: StreamOp, layout: StreamLayout, freq_mhz: f64) -> polymem::Result<Self> {
        Self::with_latency(op, layout, freq_mhz, PAPER_READ_LATENCY)
    }

    /// Build with an explicit read latency (for latency-sensitivity studies).
    pub fn with_latency(
        op: StreamOp,
        layout: StreamLayout,
        freq_mhz: f64,
        read_latency: u64,
    ) -> polymem::Result<Self> {
        Self::build(op, layout, freq_mhz, read_latency, false)
    }

    /// Build the **region-burst** design for `op` on `layout`: the compute
    /// stage issues whole-region bursts on the PolyMem kernel's region
    /// ports instead of per-chunk requests (see [`crate::burst`]), which
    /// cuts the host-side modelling cost per pass. Copy and Scale on a
    /// `Block` cover take the per-chunk cycle count within a few cycles.
    /// Sum and Triad read their two operand bursts one after the other on
    /// the single region read port, so they take about twice the per-chunk
    /// count, and each burst of a ragged (`Row`) cover pays the read
    /// latency again.
    pub fn new_burst(op: StreamOp, layout: StreamLayout, freq_mhz: f64) -> polymem::Result<Self> {
        Self::build(op, layout, freq_mhz, PAPER_READ_LATENCY, true)
    }

    fn build(
        op: StreamOp,
        layout: StreamLayout,
        freq_mhz: f64,
        read_latency: u64,
        burst: bool,
    ) -> polymem::Result<Self> {
        let ports = layout.config.read_ports;
        let rq: Vec<_> = (0..ports)
            .map(|p| stream(format!("read-req-{p}"), 8))
            .collect();
        let rs: Vec<_> = (0..ports)
            .map(|p| stream(format!("read-resp-{p}"), read_latency as usize + 8))
            .collect();
        let wq = stream("write-req", 8);
        let mut polymem = PolyMemKernel::new(
            "polymem",
            layout.config,
            read_latency,
            rq.clone(),
            rs.clone(),
            Rc::clone(&wq),
        )?;
        let state: StateRef = Rc::new(RefCell::new(ControllerState::default()));
        let driver = if burst {
            let region_req = stream("region-req", 4);
            let region_resp = stream("region-resp", 2);
            let copy_req = stream("copy-req", 4);
            let copy_resp = stream("copy-resp", 2);
            let burst_wq = stream("region-write-req", 2);
            polymem.attach_region_port(Rc::clone(&region_req), Rc::clone(&region_resp));
            polymem.attach_region_copy_port(Rc::clone(&copy_req), Rc::clone(&copy_resp));
            polymem.attach_region_write_port(Rc::clone(&burst_wq));
            Driver::Burst(BurstController::new(
                op,
                layout,
                Rc::clone(&state),
                copy_req,
                copy_resp,
                region_req,
                region_resp,
                burst_wq,
            ))
        } else {
            Driver::PerChunk(Controller::new(op, layout, Rc::clone(&state), rq, rs, wq))
        };
        Ok(Self {
            op,
            layout,
            clock: SimClock::new(freq_mhz),
            driver,
            polymem,
            state,
            host: Host::new(PcieLink::vectis()),
            mode: SchedulerMode::default(),
            sched_stats: SchedulerStats::default(),
            tlm: None,
            trc: None,
        })
    }

    /// Select the driving loop for [`Self::run_pass`]: the event-driven
    /// scheduler (default) or the legacy per-cycle ticked loop. Cycle counts
    /// are identical in both modes; only host time differs.
    pub fn set_scheduler_mode(&mut self, mode: SchedulerMode) {
        self.mode = mode;
    }

    /// The active scheduling mode.
    pub fn scheduler_mode(&self) -> SchedulerMode {
        self.mode
    }

    /// What the event-driven loop actually did (ticks vs fast-forward jumps),
    /// accumulated across passes.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.sched_stats
    }

    /// Wire the whole design into `registry`: the PolyMem kernel's cycle
    /// attribution and datapath counters, the burst controller's occupancy
    /// histogram (burst mode only), and the app's own per-pass cycle and
    /// bandwidth histograms. Attach before the first [`Self::run_pass`] so
    /// the attribution buckets cover every simulated cycle.
    pub fn attach_telemetry(&mut self, registry: &TelemetryRegistry) {
        self.polymem.attach_telemetry(registry);
        if let Driver::Burst(b) = &mut self.driver {
            b.attach_telemetry(registry);
        }
        let labels = vec![("op", self.op.name().to_string())];
        self.tlm = Some(AppTelemetry {
            pass_cycles: registry.histogram(
                "stream_pass_cycles",
                labels.clone(),
                &PASS_CYCLE_BOUNDS,
            ),
            pass_bandwidth: registry.histogram(
                "stream_pass_bandwidth_mbps",
                labels.clone(),
                &PASS_BANDWIDTH_BOUNDS,
            ),
            passes: registry.counter("stream_passes_total", labels.clone()),
            sim_cycles: registry.counter("stream_sim_cycles_total", labels.clone()),
            trace_dropped: registry.counter("stream_trace_dropped_total", labels),
        });
    }

    /// Record the whole design into `journal`: the PolyMem kernel's
    /// cycle-attribution strip, per-kind burst tracks and memory replay
    /// spans (see [`PolyMemKernel::attach_tracing`]), plus `sched`-track
    /// fast-forward spans for every event-driven jump. Attach before the
    /// first [`Self::run_pass`]; each pass end flushes the open
    /// attribution run, so the journal's per-state span sums for the
    /// `polymem` track reconcile exactly with `dfe_kernel_cycles_total`.
    pub fn attach_tracing(&mut self, journal: &TraceJournal) {
        journal.set_cycle(self.clock.cycle());
        self.polymem.attach_tracing(journal);
        self.trc = Some(AppTracing {
            journal: journal.clone(),
            sched: journal.writer("sched"),
            fast_forward: journal.intern("fast-forward"),
            synced_drops: 0,
        });
    }

    /// The op being benchmarked.
    pub fn op(&self) -> StreamOp {
        self.op
    }

    /// The memory layout.
    pub fn layout(&self) -> &StreamLayout {
        &self.layout
    }

    /// Host-side statistics (PCIe traffic and time).
    pub fn host_stats(&self) -> dfe_sim::pcie::HostStats {
        self.host.stats()
    }

    /// **Load stage**: fill A, B and C with the given values. Returns the
    /// stage's modelled PCIe time in ns (what the link would take for the
    /// three vectors, not the host time this call spends), or
    /// [`polymem::PolyMemError::WrongLaneCount`] (with nothing written)
    /// when a vector's length is not the layout's.
    ///
    /// Staging is host-side: each vector's rows go into the memory through
    /// [`polymem::PolyMem::load_rows`], outside the kernel's ports, so no
    /// simulated cycle, port access or trace span is counted for it.
    pub fn load(&mut self, a: &[f64], b: &[f64], c: &[f64]) -> polymem::Result<f64> {
        let n = self.layout.a.len;
        if let Some(bad) = [a, b, c].iter().find(|v| v.len() != n) {
            return Err(polymem::PolyMemError::WrongLaneCount {
                got: bad.len(),
                expected: n,
            });
        }
        let mut bits = Vec::with_capacity(n);
        for (vals, lay) in [(a, self.layout.a), (b, self.layout.b), (c, self.layout.c)] {
            bits.clear();
            bits.extend(vals.iter().map(|v| v.to_bits()));
            self.polymem.mem().load_rows(lay.base_row, &bits)?;
        }
        Ok(self.host.send(3 * n * 8))
    }

    /// Run one compute pass to completion; returns the cycle count.
    /// Returns an error-free count only if the memory accepted every access
    /// (invalid accesses are surfaced via [`Self::errors`]).
    pub fn run_pass(&mut self) -> u64 {
        {
            let mut st = self.state.borrow_mut();
            *st = ControllerState {
                running: true,
                ..Default::default()
            };
        }
        self.driver.begin_pass();
        let start = self.clock.cycle();
        let max = 4 * self.layout.a.chunks() as u64 + 1000;
        while !(self.driver.pass_done() && self.polymem.pipelines_empty()) {
            match self.mode {
                SchedulerMode::Ticked => {
                    let c = self.clock.cycle();
                    if let Some(tr) = &self.trc {
                        tr.journal.set_cycle(c);
                    }
                    self.driver.tick(c);
                    self.polymem.tick(c);
                    self.clock.tick();
                }
                SchedulerMode::EventDriven => {
                    let before = self.clock.cycle();
                    if let Some(tr) = &self.trc {
                        tr.journal.set_cycle(before);
                    }
                    let mut kernels: [&mut dyn Kernel; 2] = [&mut self.driver, &mut self.polymem];
                    let step = sched::advance(
                        &mut self.clock,
                        &mut kernels,
                        start + max + 1,
                        &mut self.sched_stats,
                    );
                    if let (Some(tr), Step::Jumped(span) | Step::Stuck(span)) = (&self.trc, step) {
                        tr.sched.span_at(before, before + span, tr.fast_forward);
                        tr.journal.set_cycle(before + span);
                    }
                }
            }
            if self.clock.cycle() - start > max {
                panic!(
                    "STREAM pass wedged after {} cycles ({} of {} units written)",
                    max,
                    self.state.borrow().written,
                    self.driver.units()
                );
            }
        }
        let cycles = self.clock.cycle() - start;
        if let Some(tr) = &mut self.trc {
            self.polymem.finish_tracing();
            tr.journal.set_cycle(self.clock.cycle());
            if let Some(t) = &self.tlm {
                let dropped = tr.journal.dropped();
                t.trace_dropped.add(dropped - tr.synced_drops);
                tr.synced_drops = dropped;
            }
        }
        if let Some(t) = &self.tlm {
            t.passes.inc();
            t.sim_cycles.add(cycles);
            t.pass_cycles.observe(cycles);
            let ns = cycles as f64 * self.clock.period_ns();
            let bytes = (self.op.bytes_per_element() * self.layout.a.len) as f64;
            t.pass_bandwidth.observe((bytes / ns * 1000.0) as u64);
        }
        cycles
    }

    /// **Compute stage**, measured as the paper does: `runs` blocking
    /// invocations. The first `verify_runs` (min(3, runs)) are actually
    /// simulated and must agree cycle-for-cycle (the design is
    /// deterministic); the rest are accounted arithmetically.
    pub fn measure(&mut self, runs: usize) -> StageTiming {
        assert!(runs > 0);
        let first = self.run_pass();
        for r in 1..runs.min(3) {
            let again = self.run_pass();
            assert_eq!(again, first, "run {r} diverged from run 0");
        }
        let overhead = self.host.link().call_overhead_ns;
        for _ in 0..runs {
            self.host.signal();
        }
        let time_per_run_ns = first as f64 * self.clock.period_ns() + overhead;
        let n = self.layout.a.len;
        let bytes_per_run = (self.op.bytes_per_element() * n) as f64;
        let bandwidth_mbps = bytes_per_run / time_per_run_ns * 1000.0;
        // Peak: every cycle moves lanes*8 bytes per active port (reads) plus
        // lanes*8 written.
        let lanes = self.layout.config.lanes() as f64;
        let streams = (self.op.reads() + 1) as f64;
        let peak_mbps = streams * lanes * 8.0 * self.clock.freq_mhz();
        StageTiming {
            cycles_per_run: first,
            runs,
            time_per_run_ns,
            bandwidth_mbps,
            peak_mbps,
        }
    }

    /// **Offload stage**: read back the op's destination vector. Returns
    /// (values, modelled PCIe time in ns — not the host time this call
    /// spends). Like [`Self::load`], the drain is host-side
    /// ([`polymem::PolyMem::dump_rows_into`]) and counts no simulated
    /// cycle, port access or trace span.
    pub fn offload(&mut self) -> (Vec<f64>, f64) {
        let lay = match self.op {
            StreamOp::Copy => self.layout.c,
            _ => self.layout.a,
        };
        let n = lay.len;
        let mut bits = vec![0u64; n];
        self.polymem
            .mem()
            .dump_rows_into(lay.base_row, &mut bits)
            .expect("layout vectors are whole in-bounds rows");
        // Same size and alignment: the collect reuses `bits`' allocation.
        let out = bits.into_iter().map(f64::from_bits).collect();
        let t = self.host.receive(n * 8);
        (out, t)
    }

    /// Errors surfaced by the memory (empty in a correct design).
    pub fn errors(&self) -> &[polymem::PolyMemError] {
        self.polymem.errors()
    }
}

/// Scalar reference implementation for verification.
pub fn scalar_reference(op: StreamOp, a: &[f64], b: &[f64], c: &[f64]) -> Vec<f64> {
    match op {
        StreamOp::Copy => a.to_vec(),
        StreamOp::Scale(_) => b.iter().map(|&x| op.apply(x, 0.0)).collect(),
        StreamOp::Sum | StreamOp::Triad(_) => {
            b.iter().zip(c).map(|(&x, &y)| op.apply(x, y)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymem::AccessScheme;

    fn vectors(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = (0..n).map(|k| k as f64 + 0.5).collect();
        let b: Vec<f64> = (0..n).map(|k| (k as f64) * 2.0).collect();
        let c: Vec<f64> = (0..n).map(|k| 1000.0 - k as f64).collect();
        (a, b, c)
    }

    fn run(op: StreamOp, len: usize) -> (Vec<f64>, StageTiming) {
        let layout = StreamLayout::new(len, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let mut app = StreamApp::new(op, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
        let (a, b, c) = vectors(len);
        app.load(&a, &b, &c).unwrap();
        let timing = app.measure(3);
        assert!(app.errors().is_empty(), "memory errors: {:?}", app.errors());
        let (out, _) = app.offload();
        let want = scalar_reference(op, &a, &b, &c);
        assert_eq!(out, want, "{} result mismatch", op.name());
        (out, timing)
    }

    #[test]
    fn copy_correct_and_pipelined() {
        let (_, t) = run(StreamOp::Copy, 512);
        // 64 chunks + ~15 pipeline cycles.
        assert!(t.cycles_per_run < 64 + 25, "cycles {}", t.cycles_per_run);
        assert!(t.fraction_of_peak() > 0.5);
    }

    #[test]
    fn scale_correct() {
        run(StreamOp::Scale(3.25), 256);
    }

    #[test]
    fn sum_correct() {
        run(StreamOp::Sum, 256);
    }

    #[test]
    fn triad_correct() {
        run(StreamOp::Triad(2.5), 512);
    }

    #[test]
    fn bandwidth_approaches_peak_for_large_vectors() {
        let layout = StreamLayout::paper_geometry(StreamLayout::PAPER_MAX_LEN).unwrap();
        let mut app = StreamApp::new(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
        let n = StreamLayout::PAPER_MAX_LEN;
        let (a, b, c) = vectors(n);
        app.load(&a, &b, &c).unwrap();
        let t = app.measure(1000);
        // The paper's headline: >99% of the 15360 MB/s theoretical peak.
        assert!((t.peak_mbps - 15360.0).abs() < 1.0, "peak {}", t.peak_mbps);
        assert!(
            t.fraction_of_peak() > 0.99,
            "achieved {} of peak {}",
            t.bandwidth_mbps,
            t.peak_mbps
        );
        assert!(t.bandwidth_mbps > 15200.0 && t.bandwidth_mbps < 15360.0);
    }

    #[test]
    fn small_vectors_dominated_by_overhead() {
        let layout = StreamLayout::paper_geometry(512).unwrap();
        let mut app = StreamApp::new(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
        let (a, b, c) = vectors(512);
        app.load(&a, &b, &c).unwrap();
        let t = app.measure(10);
        // 64 chunks ~ 80 cycles ~ 667 ns; +300 ns overhead -> well below peak.
        assert!(
            t.fraction_of_peak() < 0.8,
            "small run should be overhead-bound, got {}",
            t.fraction_of_peak()
        );
    }

    #[test]
    fn latency_affects_fixed_cost_not_steady_state() {
        let mk = |lat| {
            let layout = StreamLayout::new(2048, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
            let mut app = StreamApp::with_latency(StreamOp::Copy, layout, 120.0, lat).unwrap();
            let (a, b, c) = vectors(2048);
            app.load(&a, &b, &c).unwrap();
            app.measure(1).cycles_per_run
        };
        let fast = mk(1);
        let slow = mk(28);
        assert_eq!(slow - fast, 27, "latency is a pure pipeline-fill cost");
    }

    fn run_burst(op: StreamOp, len: usize) -> (Vec<f64>, StageTiming) {
        let layout = StreamLayout::new(len, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let mut app = StreamApp::new_burst(op, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
        let (a, b, c) = vectors(len);
        app.load(&a, &b, &c).unwrap();
        let timing = app.measure(3);
        assert!(app.errors().is_empty(), "memory errors: {:?}", app.errors());
        let (out, _) = app.offload();
        let want = scalar_reference(op, &a, &b, &c);
        assert_eq!(out, want, "burst {} result mismatch", op.name());
        (out, timing)
    }

    #[test]
    fn burst_all_ops_match_scalar_reference() {
        run_burst(StreamOp::Copy, 512);
        run_burst(StreamOp::Scale(3.25), 256);
        run_burst(StreamOp::Sum, 256);
        run_burst(StreamOp::Triad(2.5), 512);
        // Ragged covers: 1 and 3 rows of 64 over p = 2 are Row bursts.
        for len in [64, 192] {
            for op in [
                StreamOp::Copy,
                StreamOp::Scale(3.25),
                StreamOp::Sum,
                StreamOp::Triad(2.5),
            ] {
                run_burst(op, len);
            }
        }
    }

    #[test]
    fn burst_copy_cycle_count_matches_per_chunk_model() {
        // A Block-cover Copy burst charges the same ceil(len/lanes) access
        // cycles plus one pipeline fill: a 512-element Copy is 64 access
        // cycles + 14-cycle latency + a few handshake cycles in either mode.
        let (_, burst) = run_burst(StreamOp::Copy, 512);
        let (_, chunked) = run(StreamOp::Copy, 512);
        assert!(burst.cycles_per_run < 64 + 25, "{}", burst.cycles_per_run);
        let delta = burst.cycles_per_run.abs_diff(chunked.cycles_per_run);
        assert!(
            delta <= 10,
            "burst {} vs per-chunk {} cycles",
            burst.cycles_per_run,
            chunked.cycles_per_run
        );
        // Triad reads its B and C bursts one after the other on the single
        // region read port, so it takes about twice the per-chunk count.
        let (_, burst) = run_burst(StreamOp::Triad(2.5), 512);
        let (_, chunked) = run(StreamOp::Triad(2.5), 512);
        let delta = burst.cycles_per_run.abs_diff(2 * chunked.cycles_per_run);
        assert!(
            delta <= 10,
            "burst Triad {} vs twice per-chunk {} cycles",
            burst.cycles_per_run,
            chunked.cycles_per_run
        );
    }

    #[test]
    fn burst_bandwidth_approaches_peak_for_large_vectors() {
        let layout = StreamLayout::paper_geometry(StreamLayout::PAPER_MAX_LEN).unwrap();
        let mut app = StreamApp::new_burst(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
        let n = StreamLayout::PAPER_MAX_LEN;
        let (a, b, c) = vectors(n);
        app.load(&a, &b, &c).unwrap();
        let t = app.measure(1000);
        assert!(
            t.fraction_of_peak() > 0.99,
            "achieved {} of peak {}",
            t.bandwidth_mbps,
            t.peak_mbps
        );
    }

    #[test]
    fn burst_run_to_run_determinism_enforced() {
        let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let mut app = StreamApp::new_burst(StreamOp::Triad(1.5), layout, 120.0).unwrap();
        let (a, b, c) = vectors(512);
        app.load(&a, &b, &c).unwrap();
        let c1 = app.run_pass();
        let c2 = app.run_pass();
        assert_eq!(c1, c2);
    }

    #[test]
    fn attribution_buckets_sum_to_simulated_cycles_exactly() {
        // The invariant polymem-top renders: with telemetry attached before
        // the first pass, every simulated cycle lands in exactly one
        // dfe_kernel_cycles_total state bucket.
        for burst in [false, true] {
            let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
            let mut app = if burst {
                StreamApp::new_burst(StreamOp::Triad(1.5), layout, 120.0).unwrap()
            } else {
                StreamApp::new(StreamOp::Triad(1.5), layout, 120.0).unwrap()
            };
            let reg = polymem::TelemetryRegistry::new();
            app.attach_telemetry(&reg);
            let (a, b, c) = vectors(512);
            app.load(&a, &b, &c).unwrap();
            let c1 = app.run_pass();
            let c2 = app.run_pass();
            let snap = reg.snapshot();
            let state = |s: &str| {
                snap.counter_value(
                    "dfe_kernel_cycles_total",
                    &[("kernel", "polymem"), ("state", s)],
                )
                .unwrap_or(0)
            };
            let attributed = state("active")
                + state("contention")
                + state("pipeline")
                + state("pcie")
                + state("idle");
            let sim = snap
                .counter_value("stream_sim_cycles_total", &[("op", "Triad")])
                .expect("sim cycle accumulator registered");
            assert_eq!(sim, c1 + c2, "accumulator tracks run_pass (burst={burst})");
            assert_eq!(attributed, sim, "exact-sum attribution (burst={burst})");
            assert_eq!(
                snap.counter_value("stream_passes_total", &[("op", "Triad")]),
                Some(2)
            );
        }
    }

    #[test]
    fn pass_histograms_record_each_pass() {
        let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let mut app = StreamApp::new(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
        let reg = polymem::TelemetryRegistry::new();
        app.attach_telemetry(&reg);
        let (a, b, c) = vectors(512);
        app.load(&a, &b, &c).unwrap();
        app.measure(3);
        let prom = reg.snapshot().to_prometheus();
        assert!(prom.contains("stream_pass_cycles"), "{prom}");
        assert!(prom.contains("stream_pass_bandwidth_mbps"), "{prom}");
    }

    #[test]
    fn ticked_and_event_modes_agree_cycle_for_cycle() {
        // The tentpole invariant: the event scheduler is a host-time
        // optimisation, never a semantic change. Both driver flavours must
        // produce identical per-pass cycle counts in both modes.
        for burst in [false, true] {
            let mk = |mode| {
                let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
                let mut app = if burst {
                    StreamApp::new_burst(StreamOp::Triad(1.5), layout, 120.0).unwrap()
                } else {
                    StreamApp::new(StreamOp::Triad(1.5), layout, 120.0).unwrap()
                };
                app.set_scheduler_mode(mode);
                let (a, b, c) = vectors(512);
                app.load(&a, &b, &c).unwrap();
                let cycles = app.run_pass();
                let (out, _) = app.offload();
                (cycles, out, app.scheduler_stats())
            };
            let (ticked_cycles, ticked_out, ticked_stats) = mk(SchedulerMode::Ticked);
            let (event_cycles, event_out, event_stats) = mk(SchedulerMode::EventDriven);
            assert_eq!(ticked_cycles, event_cycles, "cycle parity (burst={burst})");
            assert_eq!(ticked_out, event_out, "result parity (burst={burst})");
            assert_eq!(
                ticked_stats,
                SchedulerStats::default(),
                "ticked loop bypasses sched"
            );
            assert_eq!(
                event_stats.total_cycles(),
                event_cycles,
                "scheduler accounts every simulated cycle (burst={burst})"
            );
            if burst {
                // Burst mode has real quiescent spans (engine-busy windows)
                // for the scheduler to fast-forward.
                assert!(
                    event_stats.jumps > 0 && event_stats.skipped_cycles > 0,
                    "burst pass should fast-forward, stats {event_stats:?}"
                );
            }
        }
    }

    #[test]
    #[cfg(not(feature = "tracing-off"))]
    fn traced_burst_copy_pass_reconciles_spans_with_telemetry() {
        use polymem::tracing::{TraceJournal, TraceSnapshot};
        // The acceptance-criteria scenario: a traced STREAM-Copy burst
        // pass. The journal's per-state span sums on the kernel's track
        // must equal the dfe_kernel_cycles_total buckets EXACTLY, and the
        // Chrome export must round-trip.
        let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let mut app = StreamApp::new_burst(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
        let reg = polymem::TelemetryRegistry::new();
        app.attach_telemetry(&reg);
        let journal = TraceJournal::new(1 << 14);
        app.attach_tracing(&journal);
        let (a, b, c) = vectors(512);
        app.load(&a, &b, &c).unwrap();
        let cycles = app.run_pass();

        let snap = journal.snapshot();
        assert_eq!(snap.dropped, 0, "journal sized for the pass");
        assert_eq!(snap.torn, 0);
        assert_eq!(snap.validate_spans(), Vec::<String>::new());
        let by_state = snap.span_cycles_by_name("polymem");
        let reg_snap = reg.snapshot();
        for state in ["active", "contention", "pipeline", "pcie", "idle"] {
            let counted = reg_snap
                .counter_value(
                    "dfe_kernel_cycles_total",
                    &[("kernel", "polymem"), ("state", state)],
                )
                .unwrap_or(0);
            assert_eq!(
                by_state.get(state).copied().unwrap_or(0),
                counted,
                "span sum vs counter for state {state}"
            );
        }
        let total: u64 = by_state.values().sum();
        assert_eq!(total, cycles, "the attribution strip covers every cycle");
        // The copy bursts themselves appear on their own track, and the
        // scheduler's fast-forwards are collapsed spans on `sched`.
        let spans = snap.spans();
        assert!(spans.iter().any(|s| s.track == "polymem/copy-bursts"));
        assert!(spans
            .iter()
            .any(|s| s.track == "sched" && s.name == "fast-forward"));
        // Perfetto loadability proxy: the Chrome export parses back to the
        // identical event set. (The exporter stably sorts by timestamp;
        // retroactively flushed spans make journal order differ from
        // timestamp order, so compare in timestamp order.)
        let round = TraceSnapshot::from_chrome_json(&snap.to_chrome_json()).unwrap();
        let mut want = snap.events.clone();
        want.sort_by_key(|e| e.cycle);
        assert_eq!(round.events, want);
        assert_eq!((round.dropped, round.torn), (snap.dropped, snap.torn));
        // No drops -> the telemetry mirror stays 0.
        assert_eq!(
            reg_snap.counter_value("stream_trace_dropped_total", &[("op", "Copy")]),
            Some(0)
        );
    }

    #[test]
    #[cfg(not(feature = "tracing-off"))]
    fn journal_overflow_surfaces_in_trace_dropped_counter() {
        use polymem::tracing::TraceJournal;
        // A deliberately tiny journal: the pass overflows the ring and the
        // loss must surface in stream_trace_dropped_total instead of
        // silently truncating the timeline.
        let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let mut app = StreamApp::new_burst(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
        let reg = polymem::TelemetryRegistry::new();
        app.attach_telemetry(&reg);
        let journal = TraceJournal::new(8);
        app.attach_tracing(&journal);
        let (a, b, c) = vectors(512);
        app.load(&a, &b, &c).unwrap();
        app.run_pass();
        let dropped = journal.dropped();
        assert!(dropped > 0, "an 8-slot ring must overflow");
        assert_eq!(
            reg.snapshot()
                .counter_value("stream_trace_dropped_total", &[("op", "Copy")]),
            Some(dropped)
        );
        assert_eq!(journal.snapshot().dropped, dropped);
    }

    #[test]
    fn staging_is_not_port_traffic() {
        use polymem::tracing::TraceJournal;
        // Load and offload model PCIe transfers: the host stages data
        // outside the kernel's ports, so no port, cycle or span count moves.
        for burst in [false, true] {
            let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
            let mut app = if burst {
                StreamApp::new_burst(StreamOp::Triad(1.5), layout, 120.0).unwrap()
            } else {
                StreamApp::new(StreamOp::Triad(1.5), layout, 120.0).unwrap()
            };
            let reg = polymem::TelemetryRegistry::new();
            app.attach_telemetry(&reg);
            let journal = TraceJournal::new(1 << 14);
            app.attach_tracing(&journal);
            let (a, b, c) = vectors(512);
            app.load(&a, &b, &c).unwrap();
            app.run_pass();
            let counts = |app: &mut StreamApp| {
                // Every metric but the plan caches' own bookkeeping: cycle
                // attribution, port and region-traffic counters included.
                let mut metrics = reg.snapshot().metrics;
                metrics.retain(|m| {
                    !m.name.starts_with("polymem_plan_cache_")
                        && m.name != "polymem_region_run_length"
                });
                (
                    app.polymem.reads_served(),
                    app.polymem.writes_served(),
                    app.polymem.mem().stats(),
                    metrics,
                    journal.snapshot().events.len(),
                    journal.recorded(),
                )
            };
            let before = counts(&mut app);
            app.load(&a, &b, &c).unwrap();
            // No pass ran since the load: Triad's destination A reads back.
            assert_eq!(app.offload().0, a, "burst={burst}");
            assert_eq!(counts(&mut app), before, "burst={burst}");
        }
    }

    #[test]
    fn load_places_every_element_at_its_layout_coordinate() {
        let layouts = [
            // Paper size: one Block cover per vector, all whole strips.
            StreamLayout::paper_geometry(StreamLayout::PAPER_MAX_LEN).unwrap(),
            // Ragged covers at 64 columns: a lone row and a strip plus a row.
            StreamLayout::new(64, 64, 2, 4, AccessScheme::RoCo, 2).unwrap(),
            StreamLayout::new(192, 64, 2, 4, AccessScheme::RoCo, 2).unwrap(),
            // ReO serves no row accesses, so only load/offload run on it.
            StreamLayout::new(512, 64, 2, 4, AccessScheme::ReO, 2).unwrap(),
        ];
        for layout in layouts {
            let n = layout.a.len;
            let mut app = StreamApp::new(StreamOp::Sum, layout, 120.0).unwrap();
            let (a, b, c) = vectors(n);
            app.load(&a, &b, &c).unwrap();
            for (vals, lay) in [(&a, layout.a), (&b, layout.b), (&c, layout.c)] {
                for (k, &v) in vals.iter().enumerate() {
                    let (i, j) = lay.coord(k);
                    assert_eq!(app.polymem.mem().get(i, j), Ok(v.to_bits()), "n={n} k={k}");
                }
            }
            // Sum's destination is A: offload returns it untouched.
            assert_eq!(app.offload().0, a, "n={n}");
        }
    }

    #[test]
    fn paper_size_staging_holds_at_most_q_small_plans() {
        // Staging compiles one plan per p-row strip residue class; one
        // whole-vector plan per vector would hold ~2.8 MB each.
        let n = StreamLayout::PAPER_MAX_LEN;
        let layout = StreamLayout::paper_geometry(n).unwrap();
        let mut app = StreamApp::new(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
        let (a, b, c) = vectors(n);
        app.load(&a, &b, &c).unwrap();
        app.run_pass();
        assert_eq!(app.offload().0, a);
        let s = app.polymem.region_plan_stats();
        assert!((1..=layout.config.q).contains(&s.entries), "{s:?}");
        assert!(s.bytes < 1 << 20, "{s:?}");
    }

    #[test]
    fn run_to_run_determinism_enforced() {
        let layout = StreamLayout::new(512, 64, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let mut app = StreamApp::new(StreamOp::Copy, layout, 120.0).unwrap();
        let (a, b, c) = vectors(512);
        app.load(&a, &b, &c).unwrap();
        let c1 = app.run_pass();
        let c2 = app.run_pass();
        assert_eq!(c1, c2);
    }
}
