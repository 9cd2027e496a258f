//! `readings-mix`: the `hls_polymem` Co/Ro/Re readings microbenchmark on
//! [`ConcurrentPolyMem<u64>`] (256×256, RoCo, 2×4 banks, 2 read ports).
//!
//! A closed loop of two threads, synchronised per pass:
//!
//! * the **reader** (the main thread) issues single column, row and
//!   aligned-rectangle reads in equal thirds at seeded-random origins, and
//!   one region read per 64 single reads — a full row, a full column or an
//!   aligned 64×64 block, in turn (regions of 256 elements and up take the
//!   port-thread path);
//! * the **writer** issues one single write per 4 reads and one aligned
//!   64×64 `write_region` per pass.
//!
//! Every cell always holds its own reference value `i*cols + j` — the
//! writer only ever rewrites it — so every read is exactly checkable even
//! when it races a write.

use crate::harness::{self, ns_since, quantile, ratio, Config, PassLog, Rng, Samples};
use crate::metrics::Report;
use crate::spans::{self, PassSpan, Recorder};
use polymem::{
    AccessScheme, ConcurrentPolyMem, ParallelAccess, PolyMemConfig, Region, RegionShape,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

const N: usize = 256;
const TINY_N: usize = 64;
const BLOCK: usize = 64;
const TINY_BLOCK: usize = 16;
const P: usize = 2;
const Q: usize = 4;
const LANES: usize = P * Q;

/// Single reads per pass (a multiple of 3 × [`READS_PER_REGION`]): large
/// enough that one pass spans many thread hand-offs, so scheduling noise
/// averages out within the pass.
const READS_PER_PASS: usize = 768;
/// Single reads per region read.
const READS_PER_REGION: usize = 64;
/// Single reads per single write.
const READS_PER_WRITE: usize = 4;
/// Untraced passes time one single read in this many.
const SAMPLE_EVERY: usize = 8;
/// Passes per block of the contention phase (writer running, then parked).
const CONTENTION_BLOCK: usize = 20;

/// The value every cell holds.
fn cell(n: usize, i: usize, j: usize) -> u64 {
    (i * n + j) as u64
}

/// Matrix and region sizes of one run.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    n: usize,
    block: usize,
}

impl Geometry {
    /// Coordinates of lane `k` of `access`, in the order reads return them.
    fn lane(access: ParallelAccess, k: usize) -> (usize, usize) {
        let (i, j) = (access.i, access.j);
        match access.pattern {
            polymem::AccessPattern::Row => (i, j + k),
            polymem::AccessPattern::Column => (i + k, j),
            _ => (i + k / Q, j + k % Q),
        }
    }

    /// The `k`-th single access of a pass (Co, Ro, Re in turn).
    fn single(&self, rng: &mut Rng, k: usize) -> ParallelAccess {
        let n = self.n;
        match k % 3 {
            0 => ParallelAccess::col(rng.below(n - LANES + 1), rng.below(n)),
            1 => ParallelAccess::row(rng.below(n), rng.below(n - LANES + 1)),
            _ => ParallelAccess::rect(P * rng.below(n / P), Q * rng.below(n / Q)),
        }
    }

    /// The `k`-th region read of a pass (row, column, block in turn).
    fn region(&self, rng: &mut Rng, k: usize) -> Region {
        match k % 3 {
            0 => Region::new(
                "row",
                rng.below(self.n),
                0,
                RegionShape::Row { len: self.n },
            ),
            1 => Region::new(
                "col",
                0,
                rng.below(self.n),
                RegionShape::Col { len: self.n },
            ),
            _ => self.block(rng),
        }
    }

    /// An aligned `block × block` region at a random origin.
    fn block(&self, rng: &mut Rng) -> Region {
        let span = self.n - self.block;
        Region::new(
            "block",
            P * rng.below(span / P + 1),
            Q * rng.below(span / Q + 1),
            RegionShape::Block {
                rows: self.block,
                cols: self.block,
            },
        )
    }

    /// Reference contents of `region`, in canonical order.
    fn expected(&self, region: &Region) -> Vec<u64> {
        region
            .coords_iter()
            .expect("generated regions are representable")
            .map(|(i, j)| cell(self.n, i, j))
            .collect()
    }
}

/// Operations done by one thread in one or more passes.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Parallel accesses (a region op counts `len / lanes`).
    accesses: u64,
    /// Elements moved.
    elems: u64,
    /// Elements moved by region ops.
    region_elems: u64,
}

impl Tally {
    fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.accesses += o.accesses;
        self.elems += o.elems;
        self.region_elems += o.region_elems;
    }

    fn op(&mut self, ok: bool, elems: usize, region: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
        self.accesses += elems.div_ceil(LANES) as u64;
        self.elems += elems as u64;
        if region {
            self.region_elems += elems as u64;
        }
    }
}

/// The reader's share of one pass. `samples`, when given, receives the
/// latency of one single read in [`SAMPLE_EVERY`].
fn reader_pass(
    mem: &ConcurrentPolyMem<u64>,
    g: Geometry,
    rng: &mut Rng,
    rec: &mut Recorder,
    pass: u32,
    mut samples: Option<&mut Samples>,
) -> Tally {
    const NAMES: [&str; 3] = [
        "concurrent.read_co",
        "concurrent.read_ro",
        "concurrent.read_re",
    ];
    let mut t = Tally::default();
    for k in 0..READS_PER_PASS {
        let access = g.single(rng, k);
        let sampled = k % SAMPLE_EVERY == 0 && samples.is_some();
        let start = sampled.then(Instant::now);
        let got = rec.time(pass, NAMES[k % 3], || mem.read(access));
        if let (Some(s), Some(t)) = (samples.as_deref_mut(), start) {
            s.push(ns_since(t));
        }
        let ok = got.is_ok_and(|v| {
            v.len() == LANES
                && v.iter().enumerate().all(|(l, &x)| {
                    let (i, j) = Geometry::lane(access, l);
                    x == cell(g.n, i, j)
                })
        });
        t.op(ok, LANES, false);
        if (k + 1) % READS_PER_REGION == 0 {
            let region = g.region(rng, k / READS_PER_REGION);
            let got = rec.time(pass, "concurrent.read_region", || mem.read_region(&region));
            let ok = got.is_ok_and(|v| v == g.expected(&region));
            t.op(ok, region.len(), true);
        }
    }
    if rec.enabled() {
        rec.time(pass, "plan", || std::hint::black_box(mem.plan_stats()));
    }
    t
}

/// The writer's share of one pass: every write stores reference values.
fn writer_pass(
    mem: &ConcurrentPolyMem<u64>,
    g: Geometry,
    rng: &mut Rng,
    rec: &mut Recorder,
    pass: u32,
) -> Tally {
    let mut t = Tally::default();
    let mut data = [0u64; LANES];
    for k in 0..READS_PER_PASS / READS_PER_WRITE {
        let access = g.single(rng, k);
        for (l, d) in data.iter_mut().enumerate() {
            let (i, j) = Geometry::lane(access, l);
            *d = cell(g.n, i, j);
        }
        let ok = rec
            .time(pass, "concurrent.write", || mem.write(access, &data))
            .is_ok();
        t.op(ok, LANES, false);
    }
    let region = g.block(rng);
    let values = g.expected(&region);
    let ok = rec
        .time(pass, "concurrent.write_region", || {
            mem.write_region(&region, &values)
        })
        .is_ok();
    t.op(ok, region.len(), true);
    t
}

/// Build the memory, load every cell's reference value, and warm plans
/// and caches with two sequential passes, whose operations are checked
/// like any other.
fn setup(g: Geometry, seed: u64, epoch: u64) -> (ConcurrentPolyMem<u64>, Tally) {
    let config = PolyMemConfig::new(g.n, g.n, P, Q, AccessScheme::RoCo, 2).expect("valid config");
    let mem = ConcurrentPolyMem::new(config).expect("valid config");
    let all = Region::new(
        "all",
        0,
        0,
        RegionShape::Block {
            rows: g.n,
            cols: g.n,
        },
    );
    mem.write_region(&all, &g.expected(&all))
        .expect("load the matrix");
    let mut rng = Rng::new(seed, 0x3A11 + epoch);
    let mut off = Recorder::off();
    let mut warmup = Tally::default();
    for pass in 0..2 {
        warmup.add(reader_pass(&mem, g, &mut rng, &mut off, pass, None));
        warmup.add(writer_pass(&mem, g, &mut rng, &mut off, pass));
    }
    (mem, warmup)
}

/// A two-thread barrier whose waiters yield instead of sleeping.
///
/// On a virtual machine a sleeping thread can leave its virtual CPU idle,
/// and waking an idle virtual CPU costs the hypervisor's scheduling
/// latency — far more than the pass being measured. Yielding keeps both
/// CPUs running while still handing the CPU to any runnable thread (such
/// as the port threads of a region read).
#[derive(Default)]
struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) == 1 {
            // Last of the two: reset, then release the other waiter. The
            // Release increment publishes the reset and everything this
            // thread did before arriving; the waiter's Acquire load pairs
            // with it.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            while self.generation.load(Ordering::Acquire) == generation {
                std::thread::yield_now();
            }
        }
    }
}

/// Per-pass commands from the reader to the writer, published before the
/// pass's start barrier (the barrier orders them).
struct Control {
    barrier: SpinBarrier,
    stop: AtomicBool,
    park: AtomicBool,
    trace: AtomicBool,
}

/// The writer thread: one [`writer_pass`] per barrier round until stopped.
fn writer_loop(
    mem: &ConcurrentPolyMem<u64>,
    g: Geometry,
    ctl: &Control,
    mut rng: Rng,
    mut rec: Recorder,
    mut pass: u32,
) -> (Vec<spans::Span>, Tally, Tally) {
    let mut off = Recorder::off();
    let (mut untraced, mut traced) = (Tally::default(), Tally::default());
    loop {
        ctl.barrier.wait();
        if ctl.stop.load(Ordering::SeqCst) {
            break;
        }
        if !ctl.park.load(Ordering::SeqCst) {
            if ctl.trace.load(Ordering::SeqCst) {
                traced.add(writer_pass(mem, g, &mut rng, &mut rec, pass));
            } else {
                untraced.add(writer_pass(mem, g, &mut rng, &mut off, pass));
            }
        }
        ctl.barrier.wait();
        pass += 1;
    }
    (rec.spans, untraced, traced)
}

/// The reader's side of the run: phases of passes, each pass bracketed by
/// the two barrier rounds the writer joins.
struct Reader<'a> {
    mem: &'a ConcurrentPolyMem<u64>,
    g: Geometry,
    ctl: &'a Control,
    rng: Rng,
    pass: u32,
}

impl Reader<'_> {
    /// One pass; returns its wall time in ns.
    fn pass(&mut self, rec: &mut Recorder, samples: Option<&mut Samples>, t: &mut Tally) -> f64 {
        let start = Instant::now();
        self.ctl.barrier.wait();
        t.add(reader_pass(
            self.mem,
            self.g,
            &mut self.rng,
            rec,
            self.pass,
            samples,
        ));
        self.ctl.barrier.wait();
        self.pass += 1;
        ns_since(start)
    }
}

/// Everything one run measures, pooled over its epochs.
#[derive(Default)]
struct Measured {
    log: PassLog,
    setups: Vec<f64>,
    warmup: Tally,
    untraced: Tally,
    traced: Tally,
    passes: Vec<PassSpan>,
    spans: Vec<spans::Span>,
    running: Samples,
    parked: Samples,
    plan_hits: u64,
    plan_misses: u64,
}

/// One epoch: a fresh memory, a writer thread, and the run's phases.
fn epoch(cfg: &Config, g: Geometry, e: usize, clock: Instant, m: &mut Measured) {
    let seed_stream = e as u64;
    let (mem, warmup) =
        harness::timed_setup(&mut m.setups, None, || setup(g, cfg.seed, seed_stream));
    m.warmup.add(warmup);
    let ctl = Control {
        barrier: SpinBarrier::default(),
        stop: AtomicBool::new(false),
        park: AtomicBool::new(false),
        trace: AtomicBool::new(false),
    };
    let base = e as u32 * harness::EPOCH_PASS_BASE;
    let mut rec = Recorder::new(clock, 0);
    let (mut reader_untraced, mut reader_traced) = (Tally::default(), Tally::default());
    let (writer_spans, writer_untraced, writer_traced) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let rng = Rng::new(cfg.seed, 0x3B22 + seed_stream);
            writer_loop(&mem, g, &ctl, rng, Recorder::new(clock, 1), base)
        });
        let mut reader = Reader {
            mem: &mem,
            g,
            ctl: &ctl,
            rng: Rng::new(cfg.seed, 0x3C33 + seed_stream),
            pass: base,
        };
        let mut off = Recorder::off();

        // Untraced passes: the end-to-end metrics.
        m.log.begin_epoch();
        let start = Instant::now();
        let budget = cfg.budget(if cfg.trace { 0.4 } else { 1.0 });
        let mut n = 0;
        while harness::keep_going(start, budget, n) {
            let ns = reader.pass(&mut off, Some(m.log.ops()), &mut reader_untraced);
            m.log.pass(ns, 1.0);
            n += 1;
        }
        if cfg.trace {
            // Traced passes, within this epoch's share of the span cap.
            ctl.trace.store(true, Ordering::SeqCst);
            let reads = READS_PER_PASS + READS_PER_PASS / READS_PER_REGION + 1;
            let writes = READS_PER_PASS / READS_PER_WRITE + 1;
            let room = spans::SPAN_CAP / harness::EPOCHS;
            let start = Instant::now();
            let mut n = 0;
            while harness::keep_going(start, cfg.budget(0.3), n)
                && rec.spans.len() + (n + 1) * writes + reads <= room
            {
                let index = reader.pass;
                let s = rec.now();
                reader.pass(&mut rec, None, &mut reader_traced);
                m.passes.push(PassSpan {
                    index,
                    start: s,
                    end: rec.now(),
                });
                n += 1;
            }
            ctl.trace.store(false, Ordering::SeqCst);
            // Contention: alternate blocks with the writer running and
            // parked; only the reader's latencies are kept.
            let start = Instant::now();
            let mut block = 0;
            while block < 2 || start.elapsed() < cfg.budget(0.3) {
                let idle = block % 2 == 1;
                ctl.park.store(idle, Ordering::SeqCst);
                let samples = if idle { &mut m.parked } else { &mut m.running };
                for _ in 0..CONTENTION_BLOCK {
                    reader.pass(&mut off, Some(samples), &mut reader_untraced);
                }
                block += 1;
            }
            ctl.park.store(false, Ordering::SeqCst);
        }
        ctl.stop.store(true, Ordering::SeqCst);
        ctl.barrier.wait();
        writer.join().expect("writer thread panicked")
    });
    m.untraced.add(reader_untraced);
    m.untraced.add(writer_untraced);
    m.traced.add(reader_traced);
    m.traced.add(writer_traced);
    m.spans.extend(rec.spans);
    m.spans.extend(writer_spans);
    let stats = mem.plan_stats();
    m.plan_hits += stats.hits;
    m.plan_misses += stats.misses;
}

/// Run the workload.
pub fn run(cfg: &Config) -> Report {
    let g = if cfg.tiny {
        Geometry {
            n: TINY_N,
            block: TINY_BLOCK,
        }
    } else {
        Geometry { n: N, block: BLOCK }
    };
    let clock = Instant::now();
    let mut m = Measured::default();
    for e in 0..harness::EPOCHS {
        epoch(cfg, g, e, clock, &mut m);
    }
    let mut report = Report::default();
    for t in [&m.warmup, &m.untraced, &m.traced] {
        report.tally(t.attempted, t.failed);
    }
    if !cfg.trace {
        let passes = m.log.passes() as f64;
        m.log.end_to_end(
            &mut report,
            harness::median(&m.setups),
            m.untraced.elems as f64 * 8.0 / passes,
            m.untraced.accesses as f64 / passes,
        );
        return report;
    }

    let all = &m.spans;
    let p50 = |name| quantile(&spans::durations(all, name), 0.5);
    report.set("concurrent.read_co_ns_p50", p50("concurrent.read_co"));
    report.set("concurrent.read_ro_ns_p50", p50("concurrent.read_ro"));
    report.set("concurrent.read_re_ns_p50", p50("concurrent.read_re"));
    report.set("concurrent.write_ns_p50", p50("concurrent.write"));
    report.set(
        "concurrent.read_region_us_p50",
        p50("concurrent.read_region") / 1e3,
    );
    report.set(
        "concurrent.write_region_us_p50",
        p50("concurrent.write_region") / 1e3,
    );
    let region_ns: f64 = ["concurrent.read_region", "concurrent.write_region"]
        .iter()
        .flat_map(|n| spans::durations(all, n))
        .sum();
    report.set(
        "concurrent.region_ns_per_elem",
        ratio(region_ns, m.traced.region_elems as f64),
    );
    report.set(
        "plan.hit_ratio",
        ratio(m.plan_hits as f64, (m.plan_hits + m.plan_misses) as f64),
    );
    report.set(
        "concurrent.contention_ratio",
        ratio(m.running.quantile(0.5), m.parked.quantile(0.5)),
    );
    harness::report_traced(&mut report, cfg, &m.passes, all, &m.log);
    report
}
