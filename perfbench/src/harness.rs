//! Shared plumbing: run configuration, the seeded generator, sample
//! statistics, the pass loop and process memory.

use crate::metrics::Report;
use crate::reference::Reference;
use crate::spans::{PassSpan, Span};
use std::time::{Duration, Instant};

/// Every run times at least this many passes, so that p90 has ten or more
/// samples beyond it.
pub const MIN_PASSES: usize = 100;

/// A run is split into this many epochs, each on state built afresh:
/// memory placement differs from one build to the next, and pooling
/// passes over several builds keeps one unlucky placement from biasing a
/// whole run. `setup_s` is the median over the epochs' set-ups.
pub const EPOCHS: usize = 8;

/// Pass indices of epoch `e` start at `e * EPOCH_PASS_BASE`, so span
/// identifiers stay unique across epochs.
pub const EPOCH_PASS_BASE: u32 = 1 << 24;

/// One run's parameters, from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (see [`crate::WORKLOADS`]).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measured wall time of the run.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics from spans.
    pub trace: bool,
    /// Shrink every size to a smoke-test scale (the benchmark's own tests).
    pub tiny: bool,
}

impl Config {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// [--tiny]`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut cfg = Config {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            tiny: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--tiny" {
                cfg.tiny = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => cfg.workload = value.clone(),
                "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => cfg.trace = value != "0",
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !crate::WORKLOADS.contains(&cfg.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {:?}, got {:?}",
                crate::WORKLOADS,
                cfg.workload
            ));
        }
        if !(cfg.seconds >= 0.0 && cfg.seconds <= 120.0) {
            return Err(format!("--seconds {} out of range 0..=120", cfg.seconds));
        }
        Ok(cfg)
    }

    /// One epoch's slice of `share` of the run's measured time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share / EPOCHS as f64)
    }
}

/// SplitMix64: a small, seedable generator (inputs only — not crypto).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`, decorrelated per `stream` so that each input
    /// of a workload draws its own sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform `f64` in `[1, 2)`: STREAM-like operands that stay finite.
    pub fn operand(&mut self) -> f64 {
        1.0 + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `n` operands.
    pub fn operands(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.operand()).collect()
    }
}

/// The `q`-quantile of `v` (linear interpolation between closest ranks);
/// 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Whether an epoch's pass loop that started at `start` with `passes`
/// done should run another pass within `budget`. Every epoch runs its
/// share of [`MIN_PASSES`].
pub fn keep_going(start: Instant, budget: Duration, passes: usize) -> bool {
    passes < MIN_PASSES.div_ceil(EPOCHS) || start.elapsed() < budget
}

/// Time `setup`, appending its seconds to `times` — at reference speed
/// when a `reference` is given ([`Reference::timed`]).
pub fn timed_setup<S>(
    times: &mut Vec<f64>,
    reference: Option<&mut Reference>,
    setup: impl FnOnce() -> S,
) -> S {
    let (state, secs) = match reference {
        Some(r) => r.timed(setup),
        None => {
            let t = Instant::now();
            let state = setup();
            (state, t.elapsed().as_secs_f64())
        }
    };
    times.push(secs);
    state
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Most values a [`Samples`] keeps.
pub const SAMPLE_CAP: usize = 20_000;

/// A uniform random sample of at most [`SAMPLE_CAP`] observations
/// (reservoir sampling): quantiles stay unbiased while memory — and so
/// `peak_rss_mb` — stays flat however many operations a run completes.
#[derive(Debug, Clone)]
pub struct Samples {
    seen: u64,
    values: Vec<f64>,
    rng: Rng,
}

impl Default for Samples {
    fn default() -> Self {
        Self {
            seen: 0,
            values: Vec::new(),
            rng: Rng::new(0, 0x5A3F),
        }
    }
}

impl Samples {
    /// Observe `v`.
    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.values.len() < SAMPLE_CAP {
            self.values.push(v);
        } else {
            let k = (self.rng.next_u64() % self.seen) as usize;
            if k < SAMPLE_CAP {
                self.values[k] = v;
            }
        }
    }

    /// The `q`-quantile of the sample.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.values, q)
    }
}

impl Extend<f64> for Samples {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

/// The `q`-quantile of samples grouped by epoch: the median of the
/// per-epoch quantiles when every epoch has ten or more samples beyond it
/// (robust to a disturbance that spoils a few epochs), else the quantile
/// of the pooled samples.
pub fn epoch_quantile(epochs: &[&[f64]], q: f64) -> f64 {
    if epochs.iter().all(|e| e.len() as f64 * (1.0 - q) >= 10.0) {
        median(&epochs.iter().map(|e| quantile(e, q)).collect::<Vec<_>>())
    } else {
        quantile(&epochs.concat(), q)
    }
}

/// One epoch of a [`PassLog`].
#[derive(Debug, Default, Clone)]
struct Epoch {
    /// Each pass's wall time, ns.
    raw: Vec<f64>,
    /// Each pass's time at reference speed, ns.
    passes: Vec<f64>,
    /// The scale each pass was read at.
    scales: Vec<f64>,
    /// Sampled operation latencies at reference speed, ns.
    ops: Samples,
}

/// Untraced pass times and sampled unit-operation latencies, per epoch:
/// everything the end-to-end metrics derive from. Times are kept both as
/// measured and at reference speed (see [`crate::reference`]); a workload
/// without a reference logs a scale of 1.
#[derive(Debug, Default, Clone)]
pub struct PassLog {
    epochs: Vec<Epoch>,
}

impl PassLog {
    /// Start logging a new epoch.
    pub fn begin_epoch(&mut self) {
        self.epochs.push(Default::default());
    }

    fn current(&mut self) -> &mut Epoch {
        if self.epochs.is_empty() {
            self.begin_epoch();
        }
        self.epochs.last_mut().expect("an epoch was begun")
    }

    /// Log one pass of the current epoch: its wall time `ns` and the
    /// `scale` that reads it at reference speed.
    pub fn pass(&mut self, ns: f64, scale: f64) {
        let e = self.current();
        e.raw.push(ns);
        e.passes.push(ns * scale);
        e.scales.push(scale);
    }

    /// The current epoch's operation-latency sample (at reference speed).
    pub fn ops(&mut self) -> &mut Samples {
        &mut self.current().ops
    }

    /// Passes logged, over all epochs.
    pub fn passes(&self) -> usize {
        self.epochs.iter().map(|e| e.passes.len()).sum()
    }

    fn quantile_of(&self, q: f64, field: impl Fn(&Epoch) -> &[f64]) -> f64 {
        let v: Vec<&[f64]> = self.epochs.iter().map(field).collect();
        epoch_quantile(&v, q)
    }

    /// The pass-time `q`-quantile at reference speed (see
    /// [`epoch_quantile`]), ns.
    pub fn pass_quantile(&self, q: f64) -> f64 {
        self.quantile_of(q, |e| &e.passes)
    }

    /// The measured pass-time `q`-quantile, ns.
    pub fn raw_pass_quantile(&self, q: f64) -> f64 {
        self.quantile_of(q, |e| &e.raw)
    }

    /// The median scale passes were read at.
    pub fn scale(&self) -> f64 {
        self.quantile_of(0.5, |e| &e.scales)
    }

    fn op_quantile(&self, q: f64) -> f64 {
        self.quantile_of(q, |e| &e.ops.values)
    }

    /// Fill the end-to-end metrics every workload shares. `bytes_per_pass`
    /// is STREAM-counted traffic and `accesses_per_pass` parallel accesses
    /// (a region op counting `len / lanes`); both rates are taken at the
    /// median pass.
    pub fn end_to_end(
        &self,
        report: &mut Report,
        setup_s: f64,
        bytes_per_pass: f64,
        accesses_per_pass: f64,
    ) {
        let p50_s = self.pass_quantile(0.5) / 1e9;
        report.set("setup_s", setup_s);
        report.set("pass_ms_p50", p50_s * 1e3);
        report.set(
            "host_gibs",
            ratio(bytes_per_pass, p50_s) / (1u64 << 30) as f64,
        );
        report.set("ops_per_s", ratio(accesses_per_pass, p50_s));
        report.set("op_us_p50", self.op_quantile(0.5) / 1e3);
        report.set("op_us_p90", self.op_quantile(0.9) / 1e3);
        report.set("peak_rss_mb", peak_rss_mb());
    }
}

/// Fill the metrics every traced run shares — layer shares, the
/// `untracked` residual, the reconciliation error, tracing overhead, the
/// failure ratio, the untraced passes' p90, their operations' p99 and
/// their median reference scale — and write the spans to
/// `.bench_trace/<workload>-seed<n>.json`.
pub fn report_traced(
    report: &mut Report,
    cfg: &Config,
    passes: &[PassSpan],
    spans: &[Span],
    untraced: &PassLog,
) {
    let a = crate::spans::attribute(passes, spans);
    let (layers, untracked, residual) = a.shares();
    for (group, share) in layers {
        report.set(&format!("{group}.share"), share);
    }
    report.set("untracked.share", untracked);
    report.set(
        "trace.reconcile_error",
        residual.max(ratio(a.outside_ns, a.wall_ns)),
    );
    let traced: Vec<f64> = passes.iter().map(|p| (p.end - p.start) as f64).collect();
    report.set(
        "trace.overhead_ratio",
        ratio(quantile(&traced, 0.5), untraced.raw_pass_quantile(0.5)),
    );
    report.set("reference.scale", untraced.scale());
    report.set("pass_ms_p90", untraced.pass_quantile(0.9) / 1e6);
    report.set("op_us_p99", untraced.op_quantile(0.99) / 1e3);
    report.set(
        "failed_ops_ratio",
        ratio(report.failed as f64, report.attempted as f64),
    );
    let path = format!(".bench_trace/{}-seed{}.json", cfg.workload, cfg.seed);
    if let Err(e) = crate::spans::write_chrome(std::path::Path::new(&path), passes, spans) {
        eprintln!("perfbench: could not write {path}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn epoch_quantile_is_robust_when_epochs_are_large_enough() {
        let calm: Vec<f64> = (0..100).map(|k| 10.0 + k as f64 / 100.0).collect();
        let spoiled: Vec<f64> = calm.iter().map(|v| v * 3.0).collect();
        let m = epoch_quantile(&[&calm, &calm, &spoiled], 0.5);
        assert!((10.0..11.0).contains(&m), "{m}");
        // Too few samples beyond p99 per epoch: pooled.
        let p = epoch_quantile(&[&calm, &spoiled], 0.99);
        assert!(p > 30.0, "{p}");
    }

    #[test]
    fn samples_stay_bounded_and_representative() {
        let mut s = Samples::default();
        s.extend((0..3 * SAMPLE_CAP).map(|k| k as f64));
        assert_eq!(s.values.len(), SAMPLE_CAP);
        let mid = s.quantile(0.5) / (3 * SAMPLE_CAP) as f64;
        assert!((0.45..0.55).contains(&mid), "{mid}");
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let x = Rng::new(3, 0).operand();
        assert!((1.0..2.0).contains(&x));
    }

    #[test]
    fn parse_rejects_unknown_workload() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(Config::parse(&args("--workload nope")).is_err());
        let c = Config::parse(&args(
            "--workload stream-dfe --seed 3 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert!(c.trace && c.seed == 3 && c.seconds == 2.0 && !c.tiny);
    }
}
