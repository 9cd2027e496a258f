//! `stream-dfe`: the simulated Fig. 9 STREAM design at the paper's maximum
//! of 87,040 elements (680 KB per vector).
//!
//! Set-up builds four [`StreamApp`]s — {Copy, Triad} × {per-chunk
//! `Controller`, `BurstController`} — and takes the paper's 1000-run
//! measurement ([`StreamApp::measure`]) of each. Every pass then runs
//! `load` → `run_pass` → `offload` on each app, alternating between two
//! seeded data sets so that a lost load or write shows. The oracle checks
//! every offload against [`scalar_reference`], that the memory surfaced no
//! errors, and that every pass takes the cycle count set-up measured.
//!
//! Every `sim_*` number, simulated cycle count and modelled PCIe time is
//! deterministic; only host times vary. Each timed pass is followed by one
//! [`Reference`] round, and the untraced passes' host times (pass, load,
//! `run_pass`) are reported at reference speed.

use crate::harness::{self, ns_since, quantile, ratio, Config, PassLog, Rng};
use crate::metrics::Report;
use crate::reference::Reference;
use crate::spans::{self, PassSpan, Recorder};
use polymem::TelemetryRegistry;
use std::time::Instant;
use stream_bench::{scalar_reference, StreamApp, StreamLayout, StreamOp, PAPER_STREAM_FREQ_MHZ};

const TINY_LEN: usize = 2_048;
/// Banks per parallel access of the paper geometry (2 × 4).
const LANES: usize = 8;

/// The paper's measured STREAM-Copy bandwidth at 680 KB (Fig. 10), MB/s:
/// the model's one hardware reference.
pub const PAPER_COPY_MBS: f64 = 15_301.0;

/// Triad's scale factor.
const TRIAD_Q: f64 = 3.0;

/// The four designs, in pass order: (op index into [`OPS`], burst driver).
const APPS: [(usize, bool); 4] = [(0, false), (1, false), (0, true), (1, true)];
const OPS: [StreamOp; 2] = [StreamOp::Copy, StreamOp::Triad(TRIAD_Q)];

/// The reference's chain steps per vector element: more than
/// `stream-host`'s, because the simulator's ticking is register- and
/// branch-bound and slows less than the memory kernel across the host's
/// phases.
const REFERENCE_CHASE_PER_ELEM: usize = 4;

/// A reference round at full speed, ns per vector element (~1.4 ms at
/// 87,040 elements in the fast phase of the 2-vCPU virtual machine the
/// benchmark was built on).
const REFERENCE_NS_PER_ELEM: f64 = 16.0;

/// Kernel cycle-attribution states (`dfe_kernel_cycles_total{state}`).
const STATES: [&str; 5] = ["active", "contention", "pipeline", "pcie", "idle"];

struct App {
    app: StreamApp,
    op: usize,
    burst: bool,
    /// Simulated cycles of one compute pass, from set-up's measurement.
    cycles: u64,
    /// The paper-method modelled bandwidth, MB/s.
    mbs: f64,
}

struct Dfe {
    apps: Vec<App>,
    /// Two data sets of (A, B, C).
    data: [[Vec<f64>; 3]; 2],
    /// Expected offload per data set and op.
    want: [[Vec<f64>; 2]; 2],
    passes: u32,
    /// Modelled PCIe time of the last load and offload, ns.
    load_ns: f64,
    offload_ns: f64,
}

/// Host timings of one untraced pass.
#[derive(Default)]
struct PassTimes {
    /// Each `load` call: the workload's unit operation (the same three
    /// 680 KB vectors for every design).
    loads: Vec<f64>,
    /// `run_pass` host time and cycles, per app.
    run: [(f64, u64); 4],
}

impl Dfe {
    fn setup(len: usize, seed: u64) -> Self {
        let layout = StreamLayout::paper_geometry(len).expect("paper geometry");
        let mut rng = Rng::new(seed, 0xDFE0);
        let data: [[Vec<f64>; 3]; 2] =
            std::array::from_fn(|_| std::array::from_fn(|_| rng.operands(len)));
        let want = std::array::from_fn(|d| {
            let [a, b, c] = &data[d];
            OPS.map(|op| scalar_reference(op, a, b, c))
        });
        let apps = APPS
            .iter()
            .map(|&(op, burst)| {
                let mut app = if burst {
                    StreamApp::new_burst(OPS[op], layout, PAPER_STREAM_FREQ_MHZ)
                } else {
                    StreamApp::new(OPS[op], layout, PAPER_STREAM_FREQ_MHZ)
                }
                .expect("valid design");
                let [a, b, c] = &data[0];
                app.load(a, b, c).expect("load");
                // The paper's method: 1000 blocking runs (the first three
                // simulated and checked for determinism).
                let timing = app.measure(1000);
                App {
                    app,
                    op,
                    burst,
                    cycles: timing.cycles_per_run,
                    mbs: timing.bandwidth_mbps,
                }
            })
            .collect();
        Dfe {
            apps,
            data,
            want,
            passes: 0,
            load_ns: 0.0,
            offload_ns: 0.0,
        }
    }

    /// One pass over the four apps; returns (attempted, failed) stage
    /// calls, checking every result outside the timed calls.
    fn pass(&mut self, rec: &mut Recorder, times: &mut PassTimes) -> (u64, u64) {
        let n = self.passes;
        self.passes += 1;
        let [a, b, c] = &self.data[n as usize % 2];
        let timed = !rec.enabled();
        let mut failed = 0u64;
        for (k, app) in self.apps.iter_mut().enumerate() {
            let t = Instant::now();
            match rec.time(n, "app.load", || app.app.load(a, b, c)) {
                Ok(ns) => self.load_ns = ns,
                Err(_) => failed += 1,
            }
            if timed {
                times.loads.push(ns_since(t));
            }
            let run = if app.burst {
                "app.run_pass_burst"
            } else {
                "app.run_pass_chunk"
            };
            let t = Instant::now();
            let cycles = rec.time(n, run, || app.app.run_pass());
            let run_ns = ns_since(t);
            let (out, ns) = rec.time(n, "app.offload", || app.app.offload());
            if rec.enabled() {
                rec.time(n, "dfe_sim", || {
                    std::hint::black_box(app.app.scheduler_stats())
                });
            }
            times.run[k] = (run_ns, cycles);
            self.offload_ns = ns;
            failed += (cycles != app.cycles || !app.app.errors().is_empty()) as u64;
            failed += (out != self.want[n as usize % 2][app.op]) as u64;
        }
        (3 * self.apps.len() as u64, failed)
    }
}

/// Host ns per simulated cycle over the `run_pass` calls of the apps
/// `keep` selects.
fn ns_per_cycle(runs: &[[(f64, u64); 4]], keep: impl Fn(usize) -> bool) -> f64 {
    let (mut ns, mut cycles) = (0.0, 0u64);
    for pass in runs {
        for (k, &(t, c)) in pass.iter().enumerate() {
            if keep(k) {
                ns += t;
                cycles += c;
            }
        }
    }
    ratio(ns, cycles as f64)
}

/// Run the workload.
pub fn run(cfg: &Config) -> Report {
    let len = if cfg.tiny {
        TINY_LEN
    } else {
        StreamLayout::PAPER_MAX_LEN
    };
    let mut report = Report::default();
    // STREAM counting over the pass's four compute stages.
    let bytes_per_pass: usize = APPS
        .iter()
        .map(|&(op, _)| OPS[op].bytes_per_element() * len)
        .sum();
    let accesses_per_pass: usize = APPS
        .iter()
        .map(|&(op, _)| (OPS[op].reads() + 1) * len / LANES)
        .sum();
    let mut setups = Vec::new();
    let mut log = PassLog::default();
    let mut runs = Vec::new();
    let mut rec = Recorder::new(Instant::now(), 0);
    let mut passes = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut state_cycles = [0u64; 5];
    let (mut skipped, mut sched_total) = (0u64, 0u64);
    let mut first_cycles = None;
    let mut dfe = None;
    let mut reference = Reference::new(
        len,
        REFERENCE_CHASE_PER_ELEM * len,
        REFERENCE_NS_PER_ELEM * len as f64,
    );
    for epoch in 0..harness::EPOCHS {
        drop(dfe.take());
        let d = dfe.insert(harness::timed_setup(
            &mut setups,
            Some(&mut reference),
            || Dfe::setup(len, cfg.seed),
        ));
        d.passes = epoch as u32 * harness::EPOCH_PASS_BASE;
        // The design is deterministic: every build measures the same cycles.
        let cycles: Vec<u64> = d.apps.iter().map(|a| a.cycles).collect();
        attempted += 1;
        failed += (*first_cycles.get_or_insert_with(|| cycles.clone()) != cycles) as u64;

        let mut off = Recorder::off();
        log.begin_epoch();
        let start = Instant::now();
        let budget = cfg.budget(if cfg.trace { 0.5 } else { 1.0 });
        let mut n = 0;
        while harness::keep_going(start, budget, n) {
            let mut times = PassTimes::default();
            let t = Instant::now();
            let (a, f) = d.pass(&mut off, &mut times);
            let ns = ns_since(t);
            reference.round();
            let scale = reference.scale();
            log.pass(ns, scale);
            log.ops().extend(times.loads.iter().map(|l| l * scale));
            runs.push(times.run.map(|(ns, cycles)| (ns * scale, cycles)));
            attempted += a;
            failed += f;
            n += 1;
        }
        if !cfg.trace {
            continue;
        }

        // Traced passes, with the kernels' cycle attribution attached.
        let registries: Vec<TelemetryRegistry> = d
            .apps
            .iter_mut()
            .map(|a| {
                let r = TelemetryRegistry::new();
                a.app.attach_telemetry(&r);
                r
            })
            .collect();
        let sched_before: Vec<_> = d.apps.iter().map(|a| a.app.scheduler_stats()).collect();
        let start = Instant::now();
        let mut n = 0;
        let room = spans::SPAN_CAP / harness::EPOCHS;
        while harness::keep_going(start, budget, n) && rec.spans.len() + 32 <= room * (epoch + 1) {
            let index = d.passes;
            let s = rec.now();
            let (a, f) = d.pass(&mut rec, &mut PassTimes::default());
            passes.push(PassSpan {
                index,
                start: s,
                end: rec.now(),
            });
            attempted += a;
            failed += f;
            n += 1;
        }
        // The simulator's own attribution reconciles: every simulated cycle
        // of the traced passes lands in exactly one state bucket.
        let mut epoch_states = [0u64; 5];
        for r in &registries {
            let snap = r.snapshot();
            for (total, state) in epoch_states.iter_mut().zip(STATES) {
                *total += snap
                    .counter_value(
                        "dfe_kernel_cycles_total",
                        &[("kernel", "polymem"), ("state", state)],
                    )
                    .unwrap_or(0);
            }
        }
        let pass_cycles: u64 = d.apps.iter().map(|a| a.cycles).sum();
        attempted += 1;
        failed += (epoch_states.iter().sum::<u64>() != pass_cycles * n as u64) as u64;
        for (total, e) in state_cycles.iter_mut().zip(epoch_states) {
            *total += e;
        }
        for (a, before) in d.apps.iter().zip(&sched_before) {
            let now = a.app.scheduler_stats();
            skipped += now.skipped_cycles - before.skipped_cycles;
            sched_total += now.total_cycles() - before.total_cycles();
        }
    }
    report.tally(attempted, failed);
    if !cfg.trace {
        log.end_to_end(
            &mut report,
            harness::median(&setups),
            bytes_per_pass as f64,
            accesses_per_pass as f64,
        );
        return report;
    }

    let dfe = dfe.expect("EPOCHS > 0");
    let traced = passes.len() as f64;
    for (state, total) in STATES.iter().zip(state_cycles) {
        report.set(&format!("dfe_sim.cycles.{state}"), total as f64 / traced);
    }
    let ms = |name| quantile(&spans::durations(&rec.spans, name), 0.5) / 1e6;
    report.set("app.load_ms", ms("app.load"));
    report.set("app.run_pass_chunk_ms", ms("app.run_pass_chunk"));
    report.set("app.run_pass_burst_ms", ms("app.run_pass_burst"));
    report.set("app.offload_ms", ms("app.offload"));
    report.set("sim_host_ns_per_cycle", ns_per_cycle(&runs, |_| true));
    report.set(
        "dfe_sim.host_ns_per_cycle_chunk",
        ns_per_cycle(&runs, |k| !APPS[k].1),
    );
    report.set(
        "dfe_sim.host_ns_per_cycle_burst",
        ns_per_cycle(&runs, |k| APPS[k].1),
    );
    report.set(
        "dfe_sim.sched_jump_share",
        ratio(skipped as f64, sched_total as f64),
    );
    report.set("pcie.modeled_load_us", dfe.load_ns / 1e3);
    report.set("pcie.modeled_offload_us", dfe.offload_ns / 1e3);
    let app = |op, burst| {
        dfe.apps
            .iter()
            .find(|a| a.op == op && a.burst == burst)
            .expect("every design is built")
    };
    report.set("sim_copy_mbs", app(0, false).mbs);
    report.set("sim_triad_mbs", app(1, false).mbs);
    report.set(
        "sim.copy_error_vs_paper",
        (app(0, false).mbs - PAPER_COPY_MBS).abs() / PAPER_COPY_MBS,
    );
    for (op, name) in [(0, "copy"), (1, "triad")] {
        report.set(
            &format!("stream_bench.burst_cycle_ratio_{name}"),
            ratio(app(op, true).cycles as f64, app(op, false).cycles as f64),
        );
    }
    harness::report_traced(&mut report, cfg, &passes, &rec.spans, &log);
    report
}
