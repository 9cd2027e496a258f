//! The manager: owns the kernel graph and drives the clock.
//!
//! Maxeler's *manager* wires kernels and streams together and presents the
//! design to the host. Ours ticks every kernel once per cycle, in
//! registration order (a deterministic static schedule: producers should be
//! registered before consumers so data can traverse one hop per cycle) —
//! but only on cycles where some kernel can act. Quiescent spans are
//! fast-forwarded in O(1) by the event-driven engine in [`crate::sched`];
//! [`SchedulerMode::Ticked`] keeps the legacy cycle-by-cycle loop for
//! parity testing and host-time baselines.

use crate::clock::SimClock;
use crate::kernel::Kernel;
use crate::sched::{self, SchedulerMode, SchedulerStats, Step};
use polymem::tracing::{NameId, TraceJournal, TraceWriter};

/// Outcome of [`Manager::diagnose_stall`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// First cycle at which progress stopped — no kernel could ever act
    /// again without external input — when the event-driven scheduler
    /// observed it. `None` for healthy designs and for runs under
    /// [`SchedulerMode::Ticked`] (the legacy loop cannot tell a stalled
    /// cycle from a slow one).
    pub stalled_at: Option<u64>,
    /// Stuck kernels, as `name` or `name: reason`
    /// (see [`Kernel::busy_reason`]).
    pub kernels: Vec<String>,
}

impl StallReport {
    /// Whether the design quiesced cleanly (nothing stuck).
    pub fn is_healthy(&self) -> bool {
        self.kernels.is_empty()
    }
}

/// A simulated DFE design: a clock plus a set of kernels.
pub struct Manager {
    clock: SimClock,
    kernels: Vec<Box<dyn Kernel>>,
    mode: SchedulerMode,
    stats: SchedulerStats,
    /// First cycle of the most recent run at which no kernel could act
    /// (see [`StallReport::stalled_at`]).
    stalled_at: Option<u64>,
    /// Clock value when the last run loop returned; lets
    /// [`Manager::diagnose_stall`] reuse a finished run instead of
    /// re-driving the design.
    last_run_end: Option<u64>,
    trc: Option<SchedTracing>,
}

/// Span-journal bridge for the scheduler (see [`Manager::attach_journal`]):
/// keeps the journal's logical clock in step with the simulation clock and
/// renders every event-driven fast-forward as one collapsed span on the
/// `sched` track.
struct SchedTracing {
    journal: TraceJournal,
    writer: TraceWriter,
    fast_forward: NameId,
}

impl Manager {
    /// Create a manager with a clock at `freq_mhz` (event-driven scheduling).
    pub fn new(freq_mhz: f64) -> Self {
        Self::with_mode(freq_mhz, SchedulerMode::EventDriven)
    }

    /// Create a manager pinned to a specific scheduler mode.
    pub fn with_mode(freq_mhz: f64, mode: SchedulerMode) -> Self {
        Self {
            clock: SimClock::new(freq_mhz),
            kernels: Vec::new(),
            mode,
            stats: SchedulerStats::default(),
            stalled_at: None,
            last_run_end: None,
            trc: None,
        }
    }

    /// Register a kernel. Order matters: kernels tick in registration order,
    /// so register upstream producers first.
    pub fn add_kernel(&mut self, kernel: Box<dyn Kernel>) {
        self.kernels.push(kernel);
    }

    /// The simulation clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The active scheduler mode.
    pub fn mode(&self) -> SchedulerMode {
        self.mode
    }

    /// Switch scheduler mode (takes effect on the next run call).
    pub fn set_mode(&mut self, mode: SchedulerMode) {
        self.mode = mode;
    }

    /// What the event-driven engine did so far (ticks vs. jumps).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Drive `journal`'s logical clock from the simulation clock and record
    /// every event-driven fast-forward as a `fast-forward` span on the
    /// `sched` track — a skipped quiescent span appears in Perfetto as one
    /// collapsed box covering exactly the cycles the scheduler never
    /// ticked. Kernel-level instrumentation (e.g.
    /// [`crate::polymem_kernel::PolyMemKernel::attach_tracing`]) is
    /// attached per kernel, before registration.
    pub fn attach_journal(&mut self, journal: &TraceJournal) {
        journal.set_cycle(self.clock.cycle());
        self.trc = Some(SchedTracing {
            journal: journal.clone(),
            writer: journal.writer("sched"),
            fast_forward: journal.intern("fast-forward"),
        });
    }

    /// Names of registered kernels, in tick order.
    pub fn kernel_names(&self) -> Vec<&str> {
        self.kernels.iter().map(|k| k.name()).collect()
    }

    fn all_idle(&self) -> bool {
        self.kernels.iter().all(|k| k.is_idle())
    }

    /// One ticked-loop cycle: tick every kernel, advance the clock.
    fn step_ticked(&mut self) {
        let c = self.clock.cycle();
        if let Some(tr) = &self.trc {
            tr.journal.set_cycle(c);
        }
        for k in &mut self.kernels {
            k.tick(c);
        }
        self.clock.tick();
    }

    /// One event-driven step: tick if anyone can act, else fast-forward.
    fn step_event(&mut self, bound: u64) {
        let before = self.clock.cycle();
        if let Some(tr) = &self.trc {
            tr.journal.set_cycle(before);
        }
        let step = sched::advance(&mut self.clock, &mut self.kernels, bound, &mut self.stats);
        match step {
            Step::Ticked => {}
            Step::Jumped(span) | Step::Stuck(span) => {
                if let Some(tr) = &self.trc {
                    tr.writer.span_at(before, before + span, tr.fast_forward);
                    tr.journal.set_cycle(before + span);
                }
                if matches!(step, Step::Stuck(_)) && self.stalled_at.is_none() && !self.all_idle() {
                    self.stalled_at = Some(before);
                }
            }
        }
    }

    /// Drive the design until `clock.cycle() == bound` or `done` reports
    /// completion (checked before every step, like the ticked loop checked
    /// it before every cycle — during a quiescent span no simulator state
    /// changes, so a predicate over simulator state cannot fire mid-span).
    fn run_loop(&mut self, bound: u64, mut done: impl FnMut(&Self) -> bool) {
        self.stalled_at = None;
        while self.clock.cycle() < bound && !done(self) {
            match self.mode {
                SchedulerMode::Ticked => self.step_ticked(),
                SchedulerMode::EventDriven => self.step_event(bound),
            }
        }
        self.last_run_end = Some(self.clock.cycle());
    }

    /// Run exactly `n` cycles.
    pub fn run_cycles(&mut self, n: u64) {
        let bound = self.clock.cycle() + n;
        self.run_loop(bound, |_| false);
    }

    /// Run until every kernel reports idle, or `max_cycles` elapse.
    /// Returns the number of cycles executed.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> u64 {
        let start = self.clock.cycle();
        self.run_loop(start + max_cycles, |m| m.all_idle());
        self.clock.cycle() - start
    }

    /// Diagnose a wedged design: report which kernels still claim
    /// outstanding work once no kernel makes progress, and — under the
    /// event-driven scheduler — the exact cycle at which progress stopped.
    /// When the design was already driven to quiescence (or to its stall
    /// point) by a previous run call, the finished run is diagnosed as-is
    /// instead of re-running the design; otherwise this runs
    /// [`Manager::run_until_idle`] with `max_cycles` first. This is the
    /// hand-rolled version of the debugging the paper did on its hanging
    /// simulations.
    pub fn diagnose_stall(&mut self, max_cycles: u64) -> StallReport {
        if self.last_run_end != Some(self.clock.cycle()) {
            self.run_until_idle(max_cycles);
        }
        StallReport {
            stalled_at: self.stalled_at,
            kernels: self
                .kernels
                .iter()
                .filter(|k| !k.is_idle())
                .map(|k| match k.busy_reason() {
                    Some(reason) => format!("{}: {reason}", k.name()),
                    None => k.name().to_string(),
                })
                .collect(),
        }
    }

    /// Run until `done()` returns true, or `max_cycles` elapse. Returns the
    /// cycles executed and whether the predicate fired. The predicate must
    /// be a function of simulator state (streams, kernel flags): it is
    /// evaluated before every scheduler step, and a fast-forwarded span —
    /// during which no state changes — is never split on its account.
    pub fn run_until<F: FnMut() -> bool>(&mut self, max_cycles: u64, mut done: F) -> (u64, bool) {
        let start = self.clock.cycle();
        let mut fired = false;
        self.run_loop(start + max_cycles, |_| {
            fired = done();
            fired
        });
        (self.clock.cycle() - start, fired || done())
    }
}

impl std::fmt::Debug for Manager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manager")
            .field("clock", &self.clock)
            .field("mode", &self.mode)
            .field("kernels", &self.kernel_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::FnKernel;
    use crate::stream::stream;
    use std::rc::Rc;

    #[test]
    fn runs_exact_cycles() {
        let mut m = Manager::new(100.0);
        let s = stream::<u64>("out", 1024);
        let sp = Rc::clone(&s);
        m.add_kernel(Box::new(FnKernel::new("gen", move |c| {
            sp.borrow_mut().push(c);
        })));
        m.run_cycles(10);
        assert_eq!(m.clock().cycle(), 10);
        assert_eq!(s.borrow().len(), 10);
    }

    #[test]
    fn pipeline_one_hop_per_cycle() {
        // producer -> doubler -> sink; values arrive at the sink 2 cycles
        // after production.
        let mut m = Manager::new(100.0);
        let a = stream::<u64>("a", 64);
        let b = stream::<u64>("b", 64);
        let sink = stream::<u64>("sink", 1024);

        let ap = Rc::clone(&a);
        m.add_kernel(Box::new(FnKernel::new("gen", move |c| {
            if c < 5 {
                ap.borrow_mut().push(c);
            }
        })));
        let (ac, bp) = (Rc::clone(&a), Rc::clone(&b));
        m.add_kernel(Box::new(FnKernel::new("double", move |_| {
            if bp.borrow().can_push() {
                if let Some(v) = ac.borrow_mut().pop() {
                    bp.borrow_mut().push(v * 2);
                }
            }
        })));
        let (bc, sp) = (Rc::clone(&b), Rc::clone(&sink));
        m.add_kernel(Box::new(FnKernel::new("sink", move |_| {
            if let Some(v) = bc.borrow_mut().pop() {
                sp.borrow_mut().push(v);
            }
        })));

        m.run_cycles(20);
        let got: Vec<u64> = std::iter::from_fn(|| sink.borrow_mut().pop()).collect();
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn run_until_predicate() {
        let mut m = Manager::new(100.0);
        let s = stream::<u64>("s", 1024);
        let sp = Rc::clone(&s);
        m.add_kernel(Box::new(FnKernel::new("gen", move |c| {
            sp.borrow_mut().push(c);
        })));
        let sc = Rc::clone(&s);
        let (cycles, fired) = m.run_until(1000, || sc.borrow().len() >= 42);
        assert!(fired);
        assert_eq!(cycles, 42);
    }

    #[test]
    fn run_until_bounded() {
        let mut m = Manager::new(100.0);
        let (cycles, fired) = m.run_until(50, || false);
        assert_eq!(cycles, 50);
        assert!(!fired);
    }

    #[test]
    fn diagnose_stall_names_stuck_kernels_and_cycle() {
        // A generator feeding a capacity-1 FIFO that nobody drains wedges
        // with data outstanding; the diagnosis must name it and pinpoint
        // the cycle progress stopped (cycle 1: one push landed at cycle 0,
        // the FIFO has been full ever since).
        let mut m = Manager::new(100.0);
        let s = stream::<u64>("clogged", 1);
        let gen = crate::components::Generator::new("producer", vec![1, 2, 3], Rc::clone(&s));
        m.add_kernel(Box::new(gen));
        let report = m.diagnose_stall(50);
        assert_eq!(report.kernels, vec!["producer".to_string()]);
        assert_eq!(report.stalled_at, Some(1));
        assert!(!report.is_healthy());
        // A healthy design reports nothing.
        let mut ok = Manager::new(100.0);
        let s2 = stream::<u64>("open", 64);
        ok.add_kernel(Box::new(crate::components::Generator::new(
            "producer2",
            vec![1, 2, 3],
            s2,
        )));
        let healthy = ok.diagnose_stall(50);
        assert!(healthy.is_healthy());
        assert_eq!(healthy.stalled_at, None);
    }

    #[test]
    fn diagnose_after_run_does_not_rerun() {
        let mut m = Manager::new(100.0);
        let s = stream::<u64>("clogged", 1);
        let gen = crate::components::Generator::new("producer", vec![1, 2, 3], Rc::clone(&s));
        m.add_kernel(Box::new(gen));
        let ran = m.run_until_idle(50);
        assert_eq!(ran, 50, "wedged design burns the whole budget");
        let end = m.clock().cycle();
        let report = m.diagnose_stall(50);
        assert_eq!(
            m.clock().cycle(),
            end,
            "diagnosing a finished run must not drive the design again"
        );
        assert_eq!(report.kernels, vec!["producer".to_string()]);
        assert_eq!(report.stalled_at, Some(1));
    }

    #[test]
    fn event_mode_skips_idle_spans_with_identical_cycle_counts() {
        // The same wedged design under both schedulers: identical simulated
        // cycles, but the event-driven run does O(1) work for the stalled
        // span.
        let run = |mode: SchedulerMode| {
            let mut m = Manager::with_mode(100.0, mode);
            let s = stream::<u64>("clogged", 1);
            m.add_kernel(Box::new(crate::components::Generator::new(
                "producer",
                vec![1, 2, 3],
                Rc::clone(&s),
            )));
            let ran = m.run_until_idle(10_000);
            (ran, m.clock().cycle(), m.scheduler_stats())
        };
        let (ran_t, end_t, _) = run(SchedulerMode::Ticked);
        let (ran_e, end_e, stats) = run(SchedulerMode::EventDriven);
        assert_eq!(ran_t, ran_e);
        assert_eq!(end_t, end_e);
        assert!(
            stats.ticked_cycles < 5,
            "stalled span must be jumped, not ticked (ticked {})",
            stats.ticked_cycles
        );
        assert!(stats.skipped_cycles > 9_000);
    }

    #[test]
    fn journal_records_fast_forwards_as_collapsed_spans() {
        use polymem::tracing::TraceJournal;
        let mut m = Manager::new(100.0);
        let journal = TraceJournal::new(256);
        m.attach_journal(&journal);
        let s = stream::<u64>("clogged", 1);
        m.add_kernel(Box::new(crate::components::Generator::new(
            "producer",
            vec![1, 2],
            Rc::clone(&s),
        )));
        m.run_until_idle(100);
        assert_eq!(journal.cycle(), m.clock().cycle(), "clock stays in step");
        let snap = journal.snapshot();
        assert_eq!(snap.validate_spans(), Vec::<String>::new());
        let spans = snap.spans();
        let ff: Vec<_> = spans
            .iter()
            .filter(|sp| sp.track == "sched" && sp.name == "fast-forward")
            .collect();
        assert!(!ff.is_empty(), "wedged span must be fast-forwarded");
        // The skipped cycles are exactly the span-covered cycles.
        let skipped: u64 = ff.iter().map(|sp| sp.cycles()).sum();
        assert_eq!(skipped, m.scheduler_stats().skipped_cycles);
    }

    #[test]
    fn kernel_names_in_order() {
        let mut m = Manager::new(100.0);
        m.add_kernel(Box::new(FnKernel::new("a", |_| {})));
        m.add_kernel(Box::new(FnKernel::new("b", |_| {})));
        assert_eq!(m.kernel_names(), vec!["a", "b"]);
    }
}
