//! `stream-host`: STREAM Copy, Scale, Add and Triad on the host
//! [`PolyMem<f64>`].
//!
//! Geometry is the paper's STREAM setup (RoCo, 2×4 banks, 512 columns, 2
//! read ports, default `BankMajor` layout) with 81,920-element vectors, so
//! each vector is one 160×512 `Block` region. The kernels chain as in
//! McCalpin's STREAM — `C = A`, `B = q·C`, `C = A + B`, `A = B + q·C` — so
//! every kernel reads what the previous one wrote:
//!
//! * Copy is one `copy_region` (the same-residue-class `copy_within` path);
//! * Scale, Add and Triad gather their operands (`read_region_into`),
//!   run the benchmark's loop over [`StreamOp::apply`] and scatter the
//!   result (`write_region`).
//!
//! `q` alternates between two values whose per-pass growth factors
//! (`2q + q²`) are 1.25 and 0.8: values stay bounded and every kernel
//! changes its destination on every pass, so the oracle (the final A, B
//! and C read back and compared with [`scalar_reference`] on host
//! mirrors, outside the timed pass) catches a lost write.
//!
//! Each timed pass is followed by one [`Reference`] round, and the pass,
//! its gathers and its kernels are reported at reference speed.

use crate::harness::{self, ns_since, quantile, ratio, Config, PassLog, Rng};
use crate::metrics::Report;
use crate::reference::Reference;
use crate::spans::{self, PassSpan, Recorder};
use polymem::telemetry::SampleValue;
use polymem::{AccessScheme, PolyMem, Region, TelemetryRegistry};
use std::time::Instant;
use stream_bench::{scalar_reference, vector_regions, StreamLayout, StreamOp};

const LEN: usize = 81_920;
const TINY_LEN: usize = 2_048;
const COLS: usize = 512;
/// The bank grid: `P × Q` banks, one element of each per parallel access.
const P: usize = 2;
const Q: usize = 4;

/// Scale factors of even and odd passes (see the module docs).
const SCALE: [f64; 2] = [0.5, 0.341_640_786_499_873_8];

/// The four kernels, in pass order, with their STREAM byte counts.
const KERNELS: [(&str, usize); 4] = [("copy", 16), ("scale", 16), ("add", 24), ("triad", 24)];

/// Passes each set-up runs before timing starts.
const WARMUP_PASSES: usize = 2;

/// The reference's chain steps per vector element: fitted so that its
/// rounds slow down with this workload's passes across the host's phases.
const REFERENCE_CHASE_PER_ELEM: usize = 1;

/// A reference round at full speed, ns per vector element (~0.9 ms at
/// 81,920 elements in the fast phase of the 2-vCPU virtual machine the
/// benchmark was built on).
const REFERENCE_NS_PER_ELEM: f64 = 11.0;

/// Parallel accesses per element per pass: Copy and Scale read and write
/// once, Add and Triad read twice and write once.
const ACCESSES_PER_ELEM_PASS: usize = 2 + 2 + 3 + 3;

struct Host {
    mem: PolyMem<f64>,
    a: Region,
    b: Region,
    c: Region,
    /// Staging: two gathered operands and the computed result.
    x: Vec<f64>,
    y: Vec<f64>,
    out: Vec<f64>,
    /// Host mirrors of A, B, C (the oracle's expected contents).
    want: [Vec<f64>; 3],
    /// First gather after `clear_region_plans` minus a warm one, ns.
    compile_ns: f64,
    /// Kernels of the warm-up passes that failed.
    warmup_failed: u64,
    passes: u32,
}

/// Timings of one pass (filled only when the recorder is off).
#[derive(Default)]
struct PassTimes {
    /// Each whole-vector gather: the workload's unit operation.
    gathers: Vec<f64>,
    kernels: [f64; 4],
}

impl Host {
    fn setup(len: usize, seed: u64) -> Self {
        let layout = StreamLayout::new(len, COLS, P, Q, AccessScheme::RoCo, 2)
            .expect("the paper geometry tiles");
        let p = layout.config.p;
        let region = |v, tag| {
            let mut r = vector_regions(v, p, tag);
            assert_eq!(r.len(), 1, "vector rows tile p: one Block per vector");
            r.pop().expect("one region")
        };
        let mut rng = Rng::new(seed, 0x5752);
        let want = [rng.operands(len), rng.operands(len), rng.operands(len)];
        let mut host = Host {
            mem: PolyMem::new(layout.config).expect("valid config"),
            a: region(&layout.a, "A"),
            b: region(&layout.b, "B"),
            c: region(&layout.c, "C"),
            x: vec![0.0; len],
            y: vec![0.0; len],
            out: vec![0.0; len],
            want,
            compile_ns: 0.0,
            warmup_failed: 0,
            passes: 0,
        };
        for (r, v) in [&host.a, &host.b, &host.c].into_iter().zip(&host.want) {
            host.mem.write_region(r, v).expect("load vector");
        }
        // Compile cost: the first gather after a clear pays the compile.
        host.mem.clear_region_plans();
        let t = Instant::now();
        host.mem
            .read_region_into(0, &host.b, &mut host.x)
            .expect("cold gather");
        let cold = ns_since(t);
        let t = Instant::now();
        host.mem
            .read_region_into(0, &host.b, &mut host.x)
            .expect("warm gather");
        host.compile_ns = cold - ns_since(t);
        // Warm-up: caches, staging pages, branch predictors. Its results
        // are checked like any other pass.
        let mut off = Recorder::off();
        for _ in 0..WARMUP_PASSES {
            let errors = host.pass(&mut off, &mut PassTimes::default());
            host.warmup_failed += errors + host.verify();
        }
        host
    }

    /// One pass of the four kernels. Returns the calls that errored.
    fn pass(&mut self, rec: &mut Recorder, times: &mut PassTimes) -> u64 {
        let n = self.passes;
        let q = SCALE[n as usize % 2];
        self.passes += 1;
        let Host {
            mem,
            a,
            b,
            c,
            x,
            y,
            out,
            ..
        } = self;
        let timed = !rec.enabled();
        let mut errors = 0u64;
        let mut call =
            |rec: &mut Recorder, name: &'static str, f: &mut dyn FnMut() -> polymem::Result<()>| {
                let t = Instant::now();
                let r = rec.time(n, name, &mut *f);
                if timed && name == "bulk.gather" {
                    times.gathers.push(ns_since(t));
                }
                errors += r.is_err() as u64;
            };
        let mut kernel_start = Instant::now();
        let mut kernel_end = |k: usize, kernels: &mut [f64; 4]| {
            if timed {
                kernels[k] = ns_since(kernel_start);
                kernel_start = Instant::now();
            }
        };
        let mut k_times = [0.0; 4];
        // Copy: C = A.
        call(rec, "bulk.copy", &mut || mem.copy_region(0, a, c));
        kernel_end(0, &mut k_times);
        // Scale: B = q·C.
        call(rec, "bulk.gather", &mut || mem.read_region_into(0, c, x));
        rec.time(n, "compute", || compute(StreamOp::Scale(q), x, x, out));
        call(rec, "bulk.scatter", &mut || mem.write_region(b, out));
        kernel_end(1, &mut k_times);
        // Add: C = A + B.
        call(rec, "bulk.gather", &mut || mem.read_region_into(0, a, x));
        call(rec, "bulk.gather", &mut || mem.read_region_into(1, b, y));
        rec.time(n, "compute", || compute(StreamOp::Sum, x, y, out));
        call(rec, "bulk.scatter", &mut || mem.write_region(c, out));
        kernel_end(2, &mut k_times);
        // Triad: A = B + q·C.
        call(rec, "bulk.gather", &mut || mem.read_region_into(0, b, x));
        call(rec, "bulk.gather", &mut || mem.read_region_into(1, c, y));
        rec.time(n, "compute", || compute(StreamOp::Triad(q), x, y, out));
        call(rec, "bulk.scatter", &mut || mem.write_region(a, out));
        kernel_end(3, &mut k_times);
        times.kernels = k_times;
        if rec.enabled() {
            rec.time(n, "region_plan", || {
                std::hint::black_box(mem.region_plan_stats())
            });
        }
        errors
    }

    /// Advance the host mirrors by the pass just run and compare A, B and
    /// C read back from the memory. Returns the vectors that differ.
    fn verify(&mut self) -> u64 {
        let q = SCALE[(self.passes as usize - 1) % 2];
        let [wa, wb, wc] = &mut self.want;
        *wc = scalar_reference(StreamOp::Copy, wa, &[], &[]);
        *wb = scalar_reference(StreamOp::Scale(q), &[], wc, &[]);
        *wc = scalar_reference(StreamOp::Sum, &[], wa, wb);
        *wa = scalar_reference(StreamOp::Triad(q), &[], wb, wc);
        let mut failed = 0;
        for (r, want) in [&self.a, &self.b, &self.c].into_iter().zip(&self.want) {
            let ok = self.mem.read_region_into(0, r, &mut self.x).is_ok() && self.x == *want;
            failed += !ok as u64;
        }
        failed
    }
}

/// The benchmark's STREAM loop: `out[k] = op(x[k], y[k])`.
fn compute(op: StreamOp, x: &[f64], y: &[f64], out: &mut [f64]) {
    for ((o, &xv), &yv) in out.iter_mut().zip(x).zip(y) {
        *o = op.apply(xv, yv);
    }
}

/// Run the workload.
pub fn run(cfg: &Config) -> Report {
    let len = if cfg.tiny { TINY_LEN } else { LEN };
    let mut report = Report::default();
    let bytes_per_pass = (KERNELS.iter().map(|k| k.1).sum::<usize>() * len) as f64;
    let accesses_per_pass = (ACCESSES_PER_ELEM_PASS * len / (P * Q)) as f64;
    let (mut setups, mut compiles) = (Vec::new(), Vec::new());
    // Untraced passes: the end-to-end metrics, and the baseline the traced
    // passes' overhead is measured against.
    let mut log = PassLog::default();
    let mut kernels: [Vec<f64>; 4] = Default::default();
    // Traced passes: one span per layer call, under one span per pass,
    // plus the region-plan counters of each epoch's memory.
    let mut rec = Recorder::new(Instant::now(), 0);
    let mut passes = Vec::new();
    let mut reference = Reference::new(
        len,
        REFERENCE_CHASE_PER_ELEM * len,
        REFERENCE_NS_PER_ELEM * len as f64,
    );
    let (mut attempted, mut failed) = (0, 0);
    let (mut hits, mut misses, mut coalesced, mut strided) = (0, 0, 0, 0);
    let (mut run_len_sum, mut runs) = (0, 0);
    for epoch in 0..harness::EPOCHS {
        let mut host = harness::timed_setup(&mut setups, Some(&mut reference), || {
            Host::setup(len, cfg.seed)
        });
        compiles.push(host.compile_ns);
        attempted += (WARMUP_PASSES * KERNELS.len()) as u64;
        failed += host.warmup_failed;
        host.passes = epoch as u32 * harness::EPOCH_PASS_BASE;
        let mut off = Recorder::off();
        log.begin_epoch();
        let start = Instant::now();
        let budget = cfg.budget(if cfg.trace { 0.5 } else { 1.0 });
        let mut n = 0;
        while harness::keep_going(start, budget, n) {
            let mut times = PassTimes::default();
            let t = Instant::now();
            let errors = host.pass(&mut off, &mut times);
            let ns = ns_since(t);
            reference.round();
            let scale = reference.scale();
            log.pass(ns, scale);
            log.ops().extend(times.gathers.iter().map(|g| g * scale));
            for (k, v) in kernels.iter_mut().zip(times.kernels) {
                k.push(v * scale);
            }
            attempted += KERNELS.len() as u64;
            failed += errors + host.verify();
            n += 1;
        }
        if !cfg.trace {
            continue;
        }
        let registry = TelemetryRegistry::new();
        host.mem.attach_telemetry(&registry);
        let start = Instant::now();
        let mut n = 0;
        let room = spans::SPAN_CAP / harness::EPOCHS;
        while harness::keep_going(start, budget, n) && rec.spans.len() + 16 <= room * (epoch + 1) {
            let index = host.passes;
            let s = rec.now();
            let errors = host.pass(&mut rec, &mut PassTimes::default());
            passes.push(PassSpan {
                index,
                start: s,
                end: rec.now(),
            });
            attempted += KERNELS.len() as u64;
            failed += errors + host.verify();
            n += 1;
        }
        let stats = host.mem.region_plan_stats();
        hits += stats.hits;
        misses += stats.misses;
        let snap = registry.snapshot();
        let counter = |name| snap.counter_value(name, &[]).unwrap_or(0);
        coalesced += counter("polymem_region_coalesced_bytes_total");
        strided += counter("polymem_region_strided_bytes_total");
        for m in &snap.metrics {
            if let SampleValue::Histogram(h) = &m.value {
                if m.name == "polymem_region_run_length" {
                    run_len_sum += h.sum;
                    runs += h.count;
                }
            }
        }
    }
    report.tally(attempted, failed);
    if !cfg.trace {
        log.end_to_end(
            &mut report,
            harness::median(&setups),
            bytes_per_pass,
            accesses_per_pass,
        );
        return report;
    }

    let elem_ns = |name| quantile(&spans::durations(&rec.spans, name), 0.5) / len as f64;
    report.set("bulk.gather_ns_per_elem", elem_ns("bulk.gather"));
    report.set("bulk.scatter_ns_per_elem", elem_ns("bulk.scatter"));
    report.set("bulk.copy_ns_per_elem", elem_ns("bulk.copy"));
    report.set("compute.ns_per_elem", elem_ns("compute"));
    let kernel_p50: Vec<f64> = kernels.iter().map(|k| quantile(k, 0.5)).collect();
    for ((name, bytes), ns) in KERNELS.iter().zip(&kernel_p50) {
        let gibs = ratio((bytes * len) as f64, *ns) * 1e9 / (1u64 << 30) as f64;
        report.set(&format!("stream.{name}_gibs"), gibs);
    }
    report.set(
        "stream.triad_over_copy_ns_ratio",
        ratio(kernel_p50[3], kernel_p50[0]),
    );
    report.set(
        "region_plan.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    report.set("region_plan.compile_us", harness::median(&compiles) / 1e3);
    report.set(
        "region_plan.coalesced_share",
        ratio(coalesced as f64, (coalesced + strided) as f64),
    );
    report.set(
        "region_plan.mean_run_len",
        ratio(run_len_sum as f64, runs as f64),
    );
    harness::report_traced(&mut report, cfg, &passes, &rec.spans, &log);
    report
}
