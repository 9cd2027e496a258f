//! In-memory span recording around every call into a layer, and the
//! attribution of each pass's wall time to layers.
//!
//! A traced pass is one parent span; every layer call inside it is a child
//! span carrying the pass index (the identifier all spans of one pass
//! share). Spans stay in memory — each thread records into its own
//! [`Recorder`], capped so a long run cannot grow without bound — and are
//! written out once, as a Chrome/Perfetto trace, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Most spans one run keeps (~32 bytes each); each epoch may use its
/// share.
pub const SPAN_CAP: usize = 200_000;

/// One layer call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Index of the pass span this call ran under.
    pub pass: u32,
    /// Layer call name, e.g. `bulk.gather` (see [`share_group`]).
    pub name: &'static str,
    /// Recording thread (0 = the thread that owns the pass spans).
    pub tid: u32,
    /// Start, in ns since the run's epoch.
    pub start: u64,
    /// End, in ns since the run's epoch.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> f64 {
        (self.end - self.start) as f64
    }
}

/// A thread's span recorder. A disabled recorder only runs the timed
/// closures, so untraced passes pay one branch per call.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    enabled: bool,
    /// Recorded layer calls.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recording recorder for thread `tid`, timestamps relative to `epoch`.
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Self {
            epoch,
            tid,
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self {
            epoch: Instant::now(),
            tid: 0,
            enabled: false,
            spans: Vec::new(),
        }
    }

    /// Whether this recorder records.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` as layer call `name` of pass `pass`.
    #[inline]
    pub fn time<R>(&mut self, pass: u32, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.push(Span {
            pass,
            name,
            tid: self.tid,
            start,
            end,
        });
        out
    }
}

/// One pass span: `[start, end)` in ns since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassSpan {
    /// Pass index (the `pass` of its child spans).
    pub index: u32,
    /// Start.
    pub start: u64,
    /// End.
    pub end: u64,
}

/// The layer share a span's time counts towards: the layer call name,
/// except that single reads of every pattern count as `concurrent.read`.
pub fn share_group(name: &'static str) -> &'static str {
    match name {
        "concurrent.read_co" | "concurrent.read_ro" | "concurrent.read_re" => "concurrent.read",
        other => other,
    }
}

/// Wall time of the traced passes, split into layers.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Sum of pass wall times, ns.
    pub wall_ns: f64,
    /// Wall time attributed to each share group, ns.
    pub layer_ns: BTreeMap<&'static str, f64>,
    /// Wall time no layer call covered, ns.
    pub untracked_ns: f64,
    /// Child-span time that fell outside its pass span, ns (0 when the
    /// recording is sound; clipped before attribution).
    pub outside_ns: f64,
}

impl Attribution {
    /// `layer_ns` and `untracked_ns` as shares of the wall time, plus the
    /// reconciliation residual |sum of shares − 1|.
    pub fn shares(&self) -> (BTreeMap<&'static str, f64>, f64, f64) {
        let share = |ns: f64| {
            if self.wall_ns > 0.0 {
                ns / self.wall_ns
            } else {
                0.0
            }
        };
        let layers: BTreeMap<_, _> = self.layer_ns.iter().map(|(k, v)| (*k, share(*v))).collect();
        let untracked = share(self.untracked_ns);
        let sum = layers.values().sum::<f64>() + untracked;
        (layers, untracked, (sum - 1.0).abs())
    }
}

/// Split each pass's wall time among the layer calls that ran in it.
///
/// A layer's self time is the part of the pass its spans cover. Where
/// spans of several threads overlap, each elementary interval is divided
/// evenly among the spans active in it, so the layer times plus the
/// uncovered `untracked` residual add up to the pass wall time exactly (up
/// to rounding). On one thread this is plain "span minus children".
pub fn attribute(passes: &[PassSpan], spans: &[Span]) -> Attribution {
    let mut by_pass: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_pass.entry(s.pass).or_default().push(s);
    }
    let mut out = Attribution::default();
    let mut events: Vec<(u64, bool, &'static str)> = Vec::new();
    for p in passes {
        out.wall_ns += (p.end - p.start) as f64;
        events.clear();
        for s in by_pass.get(&p.index).map_or(&[][..], Vec::as_slice) {
            let (a, b) = (s.start.max(p.start), s.end.min(p.end));
            out.outside_ns += s.ns() - b.saturating_sub(a) as f64;
            if b > a {
                events.push((a, true, share_group(s.name)));
                events.push((b, false, share_group(s.name)));
            }
        }
        // Ends sort before starts at the same instant.
        events.sort_by_key(|&(t, is_start, _)| (t, is_start));
        let mut active: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut depth = 0usize;
        let mut t = p.start;
        for &(at, is_start, group) in events.iter() {
            let dt = (at - t) as f64;
            if depth == 0 {
                out.untracked_ns += dt;
            } else {
                for (g, &n) in &active {
                    if n > 0 {
                        *out.layer_ns.entry(g).or_default() += dt * n as f64 / depth as f64;
                    }
                }
            }
            t = at;
            let n = active.entry(group).or_default();
            if is_start {
                *n += 1;
                depth += 1;
            } else {
                *n -= 1;
                depth -= 1;
            }
        }
        out.untracked_ns += (p.end - t) as f64;
    }
    out
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ns)
        .collect()
}

/// Write the passes and spans as a Chrome trace-event JSON file (loadable
/// in Perfetto): one complete event per span, pass spans on thread 0.
pub fn write_chrome(
    path: &std::path::Path,
    passes: &[PassSpan],
    spans: &[Span],
) -> std::io::Result<()> {
    let mut out = String::with_capacity(96 * (passes.len() + spans.len()) + 32);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let mut event = |name: &str, tid: u32, start: u64, end: u64, pass: u32| {
        let sep = if first { "" } else { ",\n" };
        first = false;
        let _ = write!(
            out,
            "{sep}{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"pass\":{pass}}}}}",
            start as f64 / 1e3,
            (end - start) as f64 / 1e3
        );
    };
    for p in passes {
        event("pass", 0, p.start, p.end, p.index);
    }
    for s in spans {
        event(s.name, s.tid, s.start, s.end, s.pass);
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(pass: u32, name: &'static str, tid: u32, start: u64, end: u64) -> Span {
        Span {
            pass,
            name,
            tid,
            start,
            end,
        }
    }

    #[test]
    fn single_thread_self_time_is_span_time() {
        let passes = [PassSpan {
            index: 0,
            start: 0,
            end: 100,
        }];
        let spans = [
            span(0, "bulk.gather", 0, 10, 40),
            span(0, "compute", 0, 40, 50),
            span(0, "bulk.scatter", 0, 60, 90),
        ];
        let a = attribute(&passes, &spans);
        assert_eq!(a.layer_ns["bulk.gather"], 30.0);
        assert_eq!(a.layer_ns["compute"], 10.0);
        assert_eq!(a.layer_ns["bulk.scatter"], 30.0);
        assert_eq!(a.untracked_ns, 30.0);
        let (_, untracked, err) = a.shares();
        assert_eq!(untracked, 0.3);
        assert!(err < 1e-12);
    }

    #[test]
    fn overlapping_threads_split_evenly_and_reconcile() {
        let passes = [PassSpan {
            index: 3,
            start: 100,
            end: 200,
        }];
        let spans = [
            span(3, "concurrent.read_co", 0, 100, 160),
            span(3, "concurrent.write", 1, 140, 180),
            // Outside its pass: clipped and reported.
            span(3, "plan", 0, 190, 210),
        ];
        let a = attribute(&passes, &spans);
        assert_eq!(a.layer_ns["concurrent.read"], 40.0 + 10.0);
        assert_eq!(a.layer_ns["concurrent.write"], 10.0 + 20.0);
        assert_eq!(a.layer_ns["plan"], 10.0);
        assert_eq!(a.untracked_ns, 10.0);
        assert_eq!(a.outside_ns, 10.0);
        let total: f64 = a.layer_ns.values().sum::<f64>() + a.untracked_ns;
        assert_eq!(total, a.wall_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::off();
        assert_eq!(r.time(0, "compute", || 7), 7);
        assert!(r.spans.is_empty() && !r.enabled());
        let mut on = Recorder::new(Instant::now(), 2);
        on.time(5, "compute", || ());
        assert_eq!((on.spans[0].pass, on.spans[0].tid), (5, 2));
    }
}
