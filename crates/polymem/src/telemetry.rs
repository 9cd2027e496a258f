//! Unified telemetry: a lock-free metrics registry with Prometheus/JSON
//! exporters.
//!
//! Every crate in the workspace observes itself through this module: the
//! memory datapath (per-bank / per-port element counters, conflicts
//! avoided), the plan caches (hit / miss / eviction), the cycle-level
//! simulator (stall attribution) and the STREAM harness (per-pass
//! bandwidth histograms) all register handles in one
//! [`TelemetryRegistry`] and are exported together as a
//! [`TelemetrySnapshot`].
//!
//! ## Design
//!
//! * **Lock-free hot path.** A [`Counter`] / [`Gauge`] / [`Histogram`]
//!   handle is an `Arc` around plain atomics; `inc` / `add` / `observe`
//!   are single `Relaxed` read-modify-writes with no branching, no
//!   allocation and no panicking construct — they pass the
//!   `polymem-verify` hot-path lint inside replay functions. The registry
//!   lock is touched only at registration and snapshot time, never by a
//!   metric operation.
//! * **Static labels.** Metric names and label *keys* are `&'static str`;
//!   label values are owned strings fixed at registration. Nothing on the
//!   increment path formats or hashes a label.
//! * **Feature-gated no-ops.** With the `telemetry-off` cargo feature the
//!   instrumentation handles become zero-sized types whose operations
//!   compile to nothing, so a build can prove the overhead is removable.
//!   [`StatCounter`] — used where counting is part of a public API
//!   contract (the plan-cache `stats()` views) — stays real in both
//!   modes.
//! * **Derived per-bank counters.** Every conflict-free full-lane access
//!   touches each bank exactly once (the theorem `polymem-verify` checks
//!   exhaustively), so single-access traffic is counted once per access
//!   and folded into every bank's sample via a shared *base* counter
//!   ([`TelemetryRegistry::counter_with_base`]) instead of paying `lanes`
//!   atomic ops per access. Region ops add their exact per-bank element
//!   counts on top.
//!
//! [`TelemetrySnapshot::to_json`] / [`TelemetrySnapshot::from_json`]
//! round-trip a compact one-metric-per-line JSON document through the
//! shared [`crate::json`] codec, and [`TelemetrySnapshot::to_prometheus`]
//! renders the Prometheus text exposition format.

use crate::json::{self, Json};
use crate::sync::{AtomicI64, AtomicU64, Ordering, RwLock};
use std::sync::Arc;

/// One metric label: static key, owned value fixed at registration.
pub type Label = (&'static str, String);

// ---------------------------------------------------------------------------
// Always-on counter (API-contract accounting, e.g. plan-cache stats).
// ---------------------------------------------------------------------------

/// A shared monotonic counter that is **always functional**, independent
/// of the `telemetry-off` feature. Used where counts are part of a public
/// API contract (cache `stats()`), with the registry holding a live
/// handle so snapshots stay fresh.
#[derive(Debug, Clone, Default)]
pub struct StatCounter(Arc<AtomicU64>);

impl StatCounter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh counter starting at `v` (used by value-copying `Clone`
    /// impls that must not share the underlying cell).
    pub fn from_value(v: u64) -> Self {
        Self(Arc::new(AtomicU64::new(v)))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Reset to zero (stats-view compatibility; not used on hot paths).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Release);
    }

    fn cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.0)
    }
}

// ---------------------------------------------------------------------------
// Instrumentation handles (no-ops under `telemetry-off`).
// ---------------------------------------------------------------------------

/// A monotonic instrumentation counter.
///
/// With the `telemetry-off` feature this is a zero-sized type whose
/// operations compile to nothing and never register.
#[cfg(not(feature = "telemetry-off"))]
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

/// A monotonic instrumentation counter (disabled build: zero-sized no-op).
#[cfg(feature = "telemetry-off")]
#[derive(Debug, Clone, Copy, Default)]
pub struct Counter;

#[cfg(not(feature = "telemetry-off"))]
impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one. Single `Relaxed` atomic op; allocation- and panic-free.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`. Single `Relaxed` atomic op; allocation- and panic-free.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one under a **single-writer discipline**: a `Relaxed` load +
    /// store pair instead of a read-modify-write, skipping the full bus
    /// fence on hot paths. Sound only when every write to this counter is
    /// serialized by the caller (e.g. instrumentation called under `&mut
    /// self`, as `PolyMem` does); concurrent writers would lose updates —
    /// `ConcurrentPolyMem` must use [`Self::inc`] / [`Self::add`].
    /// Concurrent *readers* (snapshots) are always safe.
    #[inline]
    pub fn inc_owned(&self) {
        self.add_owned(1);
    }

    /// Add `n` under a single-writer discipline (see [`Self::inc_owned`]).
    #[inline]
    pub fn add_owned(&self, n: u64) {
        let v = self.0.load(Ordering::Relaxed).wrapping_add(n);
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    fn cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.0)
    }
}

#[cfg(feature = "telemetry-off")]
impl Counter {
    /// A fresh counter (no-op build).
    pub fn new() -> Self {
        Self
    }

    /// No-op.
    #[inline]
    pub fn inc(&self) {}

    /// No-op.
    #[inline]
    pub fn add(&self, _n: u64) {}

    /// No-op.
    #[inline]
    pub fn inc_owned(&self) {}

    /// No-op.
    #[inline]
    pub fn add_owned(&self, _n: u64) {}

    /// Always zero in the disabled build.
    #[inline]
    pub fn get(&self) -> u64 {
        0
    }
}

/// A last-value instrumentation gauge (signed).
#[cfg(not(feature = "telemetry-off"))]
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

/// A last-value instrumentation gauge (disabled build: zero-sized no-op).
#[cfg(feature = "telemetry-off")]
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauge;

#[cfg(not(feature = "telemetry-off"))]
impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Acquire)
    }

    fn cell(&self) -> Arc<AtomicI64> {
        Arc::clone(&self.0)
    }
}

#[cfg(feature = "telemetry-off")]
impl Gauge {
    /// A fresh gauge (no-op build).
    pub fn new() -> Self {
        Self
    }

    /// No-op.
    #[inline]
    pub fn set(&self, _v: i64) {}

    /// No-op.
    #[inline]
    pub fn add(&self, _d: i64) {}

    /// Always zero in the disabled build.
    #[inline]
    pub fn get(&self) -> i64 {
        0
    }
}

/// Shared storage behind a [`Histogram`] handle.
#[derive(Debug)]
struct HistogramCore {
    /// Inclusive upper bounds of the finite buckets; an implicit `+Inf`
    /// bucket follows.
    bounds: &'static [u64],
    /// One slot per bound, plus the overflow slot.
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: &'static [u64]) -> Self {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds,
            buckets,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    #[inline]
    fn observe(&self, v: u64) {
        // Bucket search over a handful of static bounds: branch-cheap,
        // allocation- and panic-free.
        let mut idx = self.bounds.len();
        for (k, &b) in self.bounds.iter().enumerate() {
            if v <= b {
                idx = k;
                break;
            }
        }
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn sample(&self) -> HistogramSample {
        HistogramSample {
            bounds: self.bounds.to_vec(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Acquire))
                .collect(),
            sum: self.sum.load(Ordering::Acquire),
            count: self.count.load(Ordering::Acquire),
        }
    }
}

/// A fixed-bucket instrumentation histogram over `u64` observations.
#[cfg(not(feature = "telemetry-off"))]
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

/// A fixed-bucket instrumentation histogram (disabled build: no-op).
#[cfg(feature = "telemetry-off")]
#[derive(Debug, Clone, Copy)]
pub struct Histogram;

#[cfg(not(feature = "telemetry-off"))]
impl Histogram {
    /// A fresh histogram with the given inclusive bucket bounds (an
    /// implicit `+Inf` bucket is appended).
    pub fn new(bounds: &'static [u64]) -> Self {
        Self(Arc::new(HistogramCore::new(bounds)))
    }

    /// Record one observation. Three `Relaxed` atomic ops.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.observe(v);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Acquire)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Acquire)
    }

    fn core(&self) -> Arc<HistogramCore> {
        Arc::clone(&self.0)
    }
}

#[cfg(feature = "telemetry-off")]
impl Histogram {
    /// A fresh histogram (no-op build).
    pub fn new(_bounds: &'static [u64]) -> Self {
        Self
    }

    /// No-op.
    #[inline]
    pub fn observe(&self, _v: u64) {}

    /// Always zero in the disabled build.
    pub fn count(&self) -> u64 {
        0
    }

    /// Always zero in the disabled build.
    pub fn sum(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Metric {
    /// `value = cell + sum(bases)` — the bases carry traffic shared by
    /// every sibling (uniform single accesses, region accesses), so hot
    /// paths bump one shared counter instead of one per bank (see module
    /// docs).
    Counter {
        cell: Arc<AtomicU64>,
        bases: Vec<Arc<AtomicU64>>,
    },
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug)]
struct Entry {
    name: &'static str,
    labels: Vec<Label>,
    metric: Metric,
}

/// The process-wide (or per-component) metric registry.
///
/// Registration and snapshotting take an internal lock; metric
/// operations on the returned handles never do.
#[derive(Debug, Default)]
pub struct TelemetryRegistry {
    entries: RwLock<Vec<Entry>>,
}

impl TelemetryRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn upsert(&self, name: &'static str, labels: Vec<Label>, metric: Metric) {
        let mut entries = self.entries.write();
        if let Some(e) = entries
            .iter_mut()
            .find(|e| e.name == name && e.labels == labels)
        {
            e.metric = metric;
        } else {
            entries.push(Entry {
                name,
                labels,
                metric,
            });
        }
    }

    /// Register (or re-register) a counter and return its handle. In the
    /// `telemetry-off` build this registers nothing and returns a no-op
    /// handle.
    pub fn counter(&self, name: &'static str, labels: Vec<Label>) -> Counter {
        let c = Counter::new();
        #[cfg(not(feature = "telemetry-off"))]
        self.upsert(
            name,
            labels,
            Metric::Counter {
                cell: c.cell(),
                bases: Vec::new(),
            },
        );
        #[cfg(feature = "telemetry-off")]
        let _ = labels;
        c
    }

    /// Register a counter whose exported value is its own cell **plus**
    /// `base` — the uniform-traffic fold described in the module docs.
    pub fn counter_with_base(
        &self,
        name: &'static str,
        labels: Vec<Label>,
        base: &Counter,
    ) -> Counter {
        self.counter_with_bases(name, labels, &[base])
    }

    /// Register a counter whose exported value is its own cell **plus**
    /// the sum of every `base` counter. This is how per-bank metrics stay
    /// cheap: traffic the uniformity invariant guarantees hits *every*
    /// bank equally (uniform full-lane accesses, region-plan accesses) is
    /// accumulated once in a shared base rather than once per bank, and
    /// only folded in at snapshot time.
    pub fn counter_with_bases(
        &self,
        name: &'static str,
        labels: Vec<Label>,
        bases: &[&Counter],
    ) -> Counter {
        let c = Counter::new();
        #[cfg(not(feature = "telemetry-off"))]
        self.upsert(
            name,
            labels,
            Metric::Counter {
                cell: c.cell(),
                bases: bases.iter().map(|b| b.cell()).collect(),
            },
        );
        #[cfg(feature = "telemetry-off")]
        let _ = (labels, bases);
        c
    }

    /// Register (or re-register) a gauge and return its handle.
    pub fn gauge(&self, name: &'static str, labels: Vec<Label>) -> Gauge {
        let g = Gauge::new();
        #[cfg(not(feature = "telemetry-off"))]
        self.upsert(name, labels, Metric::Gauge(g.cell()));
        #[cfg(feature = "telemetry-off")]
        let _ = labels;
        g
    }

    /// Register (or re-register) a fixed-bucket histogram.
    pub fn histogram(
        &self,
        name: &'static str,
        labels: Vec<Label>,
        bounds: &'static [u64],
    ) -> Histogram {
        let h = Histogram::new(bounds);
        #[cfg(not(feature = "telemetry-off"))]
        self.upsert(name, labels, Metric::Histogram(h.core()));
        #[cfg(feature = "telemetry-off")]
        let _ = (labels, bounds);
        h
    }

    /// Attach an existing always-on [`StatCounter`] (e.g. a plan-cache
    /// hit counter) under a metric name. Present in both builds — API
    /// accounting is never compiled out.
    pub fn register_stat(&self, name: &'static str, labels: Vec<Label>, stat: &StatCounter) {
        self.upsert(
            name,
            labels,
            Metric::Counter {
                cell: stat.cell(),
                bases: Vec::new(),
            },
        );
    }

    /// A point-in-time sample of every registered metric, sorted by
    /// `(name, labels)` for deterministic export.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let entries = self.entries.read();
        let mut metrics: Vec<MetricSample> = entries
            .iter()
            .map(|e| MetricSample {
                name: e.name.to_string(),
                labels: e
                    .labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
                value: match &e.metric {
                    Metric::Counter { cell, bases } => SampleValue::Counter(
                        cell.load(Ordering::Acquire)
                            + bases.iter().map(|b| b.load(Ordering::Acquire)).sum::<u64>(),
                    ),
                    Metric::Gauge(cell) => SampleValue::Gauge(cell.load(Ordering::Acquire)),
                    Metric::Histogram(core) => SampleValue::Histogram(core.sample()),
                },
            })
            .collect();
        metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        TelemetrySnapshot { metrics }
    }
}

// ---------------------------------------------------------------------------
// Snapshot + exporters.
// ---------------------------------------------------------------------------

/// The sampled value of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSample),
}

/// A sampled histogram: finite bucket bounds, per-bucket counts (one
/// extra overflow slot), total count and sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// Inclusive upper bounds of the finite buckets.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `buckets.len() == bounds.len() + 1` (overflow
    /// slot last).
    pub buckets: Vec<u64>,
    /// Sum of all observations.
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

impl HistogramSample {
    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`): the inclusive
    /// bound of the first bucket whose cumulative count reaches rank
    /// `ceil(q * count)`. Fixed-bucket histograms cannot interpolate, so
    /// this is the tightest bound the data supports — a p99 of `Some(512)`
    /// reads "99% of observations were ≤ 512".
    ///
    /// Returns `None` when the histogram is empty, `q` is out of range, or
    /// the quantile lands in the overflow (`+Inf`) bucket, where no finite
    /// bound exists (render those as `> last_bound`).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return self.bounds.get(k).copied();
            }
        }
        None
    }
}

/// One sampled metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// Metric name (the stable ID schema checks key on).
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: SampleValue,
}

/// A consistent point-in-time export of a [`TelemetryRegistry`].
///
/// [`Self::to_json`] / [`Self::from_json`] round-trip, and
/// [`Self::to_prometheus`] renders the text exposition format.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// Every sampled metric, sorted by `(name, labels)`.
    pub metrics: Vec<MetricSample>,
}

impl TelemetrySnapshot {
    /// The distinct metric names in this snapshot (sorted, deduplicated)
    /// — the IDs the committed telemetry schema is checked against.
    pub fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.metrics.iter().map(|m| m.name.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Find a sampled counter value by name and labels.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.metrics
            .iter()
            .find(|m| {
                m.name == name
                    && m.labels.len() == labels.len()
                    && m.labels
                        .iter()
                        .zip(labels)
                        .all(|((k, v), (lk, lv))| k == lk && v == lv)
            })
            .and_then(|m| match &m.value {
                SampleValue::Counter(v) => Some(*v),
                _ => None,
            })
    }

    /// Serialize as a compact JSON document, one metric per line:
    ///
    /// ```json
    /// {"metrics":[
    /// {"name":"x","labels":{"bank":"0"},"kind":"counter","value":3},
    /// {"name":"h","labels":{},"kind":"histogram","bounds":[8],"buckets":[1,0],"sum":5,"count":1}
    /// ]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[\n");
        for (n, m) in self.metrics.iter().enumerate() {
            out.push_str("{\"name\":\"");
            json::escape(&mut out, &m.name);
            out.push_str("\",\"labels\":{");
            for (k, (key, value)) in m.labels.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push('"');
                json::escape(&mut out, key);
                out.push_str("\":\"");
                json::escape(&mut out, value);
                out.push('"');
            }
            out.push_str("},");
            match &m.value {
                SampleValue::Counter(v) => {
                    out.push_str(&format!("\"kind\":\"counter\",\"value\":{v}"));
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&format!("\"kind\":\"gauge\",\"value\":{v}"));
                }
                SampleValue::Histogram(h) => {
                    out.push_str("\"kind\":\"histogram\",\"bounds\":[");
                    for (k, b) in h.bounds.iter().enumerate() {
                        if k > 0 {
                            out.push(',');
                        }
                        out.push_str(&b.to_string());
                    }
                    out.push_str("],\"buckets\":[");
                    for (k, b) in h.buckets.iter().enumerate() {
                        if k > 0 {
                            out.push(',');
                        }
                        out.push_str(&b.to_string());
                    }
                    out.push_str(&format!("],\"sum\":{},\"count\":{}", h.sum, h.count));
                }
            }
            out.push('}');
            if n + 1 < self.metrics.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }

    /// Parse a document produced by [`Self::to_json`] (whitespace- and
    /// ordering-tolerant). Metric values must be integers — the exporters
    /// never emit floats.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let arr = doc
            .get("metrics")
            .ok_or("missing `metrics` array")?
            .as_arr()
            .ok_or("`metrics` must be an array")?;
        let mut metrics = Vec::with_capacity(arr.len());
        for m in arr {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric missing `name`")?
                .to_string();
            let labels = match m.get("labels") {
                Some(l) => l
                    .as_obj()
                    .ok_or("`labels` must be an object")?
                    .iter()
                    .map(|(k, v)| {
                        v.as_str()
                            .map(|s| (k.clone(), s.to_string()))
                            .ok_or_else(|| format!("label `{k}` must be a string"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                None => Vec::new(),
            };
            let kind = m
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("metric missing `kind`")?;
            let u64_field = |key: &str| {
                m.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{kind} missing integer `{key}`"))
            };
            let value = match kind {
                "counter" => SampleValue::Counter(u64_field("value")?),
                "gauge" => SampleValue::Gauge(
                    m.get("value")
                        .and_then(Json::as_i64)
                        .ok_or("gauge missing integer `value`")?,
                ),
                "histogram" => {
                    let nums = |key: &str| -> Result<Vec<u64>, String> {
                        m.get(key)
                            .and_then(Json::as_arr)
                            .ok_or_else(|| format!("histogram missing `{key}`"))?
                            .iter()
                            .map(|v| v.as_u64().ok_or_else(|| format!("bad `{key}` entry")))
                            .collect()
                    };
                    SampleValue::Histogram(HistogramSample {
                        bounds: nums("bounds")?,
                        buckets: nums("buckets")?,
                        sum: u64_field("sum")?,
                        count: u64_field("count")?,
                    })
                }
                other => return Err(format!("unknown metric kind `{other}`")),
            };
            metrics.push(MetricSample {
                name,
                labels,
                value,
            });
        }
        Ok(Self { metrics })
    }

    /// Render the Prometheus text exposition format. Histograms expand
    /// into cumulative `_bucket{le=..}` series plus `_sum` / `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for m in &self.metrics {
            if m.name != last_name {
                let kind = match &m.value {
                    SampleValue::Counter(_) => "counter",
                    SampleValue::Gauge(_) => "gauge",
                    SampleValue::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {} {kind}\n", m.name));
                last_name = &m.name;
            }
            match &m.value {
                SampleValue::Counter(v) => {
                    out.push_str(&format!("{}{} {v}\n", m.name, prom_labels(&m.labels, None)));
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&format!("{}{} {v}\n", m.name, prom_labels(&m.labels, None)));
                }
                SampleValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (k, &c) in h.buckets.iter().enumerate() {
                        cum += c;
                        let le = h
                            .bounds
                            .get(k)
                            .map(|b| b.to_string())
                            .unwrap_or_else(|| "+Inf".into());
                        out.push_str(&format!(
                            "{}_bucket{} {cum}\n",
                            m.name,
                            prom_labels(&m.labels, Some(&le))
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        m.name,
                        prom_labels(&m.labels, None),
                        h.sum
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        m.name,
                        prom_labels(&m.labels, None),
                        h.count
                    ));
                }
            }
        }
        out
    }
}

fn prom_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let mut escaped = String::new();
        for c in v.chars() {
            match c {
                '"' => escaped.push_str("\\\""),
                '\\' => escaped.push_str("\\\\"),
                '\n' => escaped.push_str("\\n"),
                c => escaped.push(c),
            }
        }
        out.push_str(&format!("{k}=\"{escaped}\""));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("le=\"{le}\""));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_counter_is_always_real() {
        let c = StatCounter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let shared = c.clone();
        shared.inc();
        assert_eq!(c.get(), 6, "clones share the cell");
        let copied = StatCounter::from_value(c.get());
        copied.inc();
        assert_eq!(c.get(), 6, "from_value does not share");
        assert_eq!(copied.get(), 7);
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn counters_gauges_histograms_record() {
        let r = TelemetryRegistry::new();
        let c = r.counter("c_total", vec![("k", "v".into())]);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        let g = r.gauge("g", vec![]);
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        let h = r.histogram("h", vec![], &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 555);
        let snap = r.snapshot();
        assert_eq!(snap.counter_value("c_total", &[("k", "v")]), Some(3));
        let hist = snap
            .metrics
            .iter()
            .find(|m| m.name == "h")
            .expect("histogram sampled");
        match &hist.value {
            SampleValue::Histogram(hs) => {
                assert_eq!(hs.buckets, vec![1, 1, 1]);
                assert_eq!(hs.bounds, vec![10, 100]);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn quantile_walks_cumulative_buckets() {
        let hs = HistogramSample {
            bounds: vec![10, 100, 1000],
            // 10 observations ≤ 10, 85 in (10, 100], 4 in (100, 1000],
            // 1 overflow.
            buckets: vec![10, 85, 4, 1],
            sum: 0,
            count: 100,
        };
        assert_eq!(hs.quantile(0.05), Some(10));
        assert_eq!(hs.quantile(0.10), Some(10), "rank 10 still in bucket 0");
        assert_eq!(hs.quantile(0.50), Some(100));
        assert_eq!(hs.quantile(0.95), Some(100));
        assert_eq!(hs.quantile(0.99), Some(1000));
        assert_eq!(hs.quantile(1.0), None, "max landed in the +Inf bucket");
        assert_eq!(hs.quantile(0.0), Some(10), "q=0 is the minimum's bound");
    }

    #[test]
    fn quantile_rejects_empty_and_out_of_range() {
        let empty = HistogramSample {
            bounds: vec![10],
            buckets: vec![0, 0],
            sum: 0,
            count: 0,
        };
        assert_eq!(empty.quantile(0.5), None);
        let hs = HistogramSample {
            bounds: vec![10],
            buckets: vec![1, 0],
            sum: 3,
            count: 1,
        };
        assert_eq!(hs.quantile(-0.1), None);
        assert_eq!(hs.quantile(1.5), None);
        assert_eq!(hs.quantile(0.5), Some(10));
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn registering_same_key_replaces() {
        let r = TelemetryRegistry::new();
        let a = r.counter("x_total", vec![]);
        a.add(5);
        let b = r.counter("x_total", vec![]);
        b.inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter_value("x_total", &[]), Some(1));
        assert_eq!(snap.metrics.len(), 1);
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn base_counter_folds_uniform_traffic() {
        let r = TelemetryRegistry::new();
        let uniform = r.counter("uniform_total", vec![]);
        let b0 = r.counter_with_base("bank_total", vec![("bank", "0".into())], &uniform);
        let b1 = r.counter_with_base("bank_total", vec![("bank", "1".into())], &uniform);
        uniform.add(10); // 10 full-lane accesses: one element per bank each
        b0.add(3); // a region op routed 3 extra elements to bank 0
        let _ = &b1;
        let snap = r.snapshot();
        assert_eq!(snap.counter_value("bank_total", &[("bank", "0")]), Some(13));
        assert_eq!(snap.counter_value("bank_total", &[("bank", "1")]), Some(10));
    }

    #[cfg(feature = "telemetry-off")]
    #[test]
    fn disabled_handles_are_zero_sized_noops() {
        assert_eq!(std::mem::size_of::<Counter>(), 0);
        assert_eq!(std::mem::size_of::<Gauge>(), 0);
        assert_eq!(std::mem::size_of::<Histogram>(), 0);
        let r = TelemetryRegistry::new();
        let c = r.counter("c_total", vec![]);
        c.inc();
        c.add(100);
        assert_eq!(c.get(), 0);
        let h = r.histogram("h", vec![], &[1]);
        h.observe(5);
        assert_eq!(h.count(), 0);
        // Instrumentation registers nothing; StatCounters still do.
        let s = StatCounter::new();
        s.add(2);
        r.register_stat("s_total", vec![], &s);
        let snap = r.snapshot();
        assert_eq!(snap.metrics.len(), 1);
        assert_eq!(snap.counter_value("s_total", &[]), Some(2));
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let r = TelemetryRegistry::new();
        r.counter("z_total", vec![]).inc();
        r.counter("a_total", vec![("bank", "1".into())]).inc();
        r.counter("a_total", vec![("bank", "0".into())]).inc();
        let names: Vec<_> = r
            .snapshot()
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.labels.clone()))
            .collect();
        assert_eq!(names[0].0, "a_total");
        assert_eq!(names[0].1[0].1, "0");
        assert_eq!(names[1].1[0].1, "1");
        assert_eq!(names[2].0, "z_total");
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn json_round_trip() {
        let r = TelemetryRegistry::new();
        r.counter("c_total", vec![("bank", "0".into())]).add(42);
        r.gauge("g", vec![]).set(-7);
        let h = r.histogram("h", vec![("pass", "copy".into())], &[8, 64]);
        h.observe(3);
        h.observe(100);
        let snap = r.snapshot();
        let text = snap.to_json();
        let parsed = TelemetrySnapshot::from_json(&text).expect("round-trip parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(TelemetrySnapshot::from_json("").is_err());
        assert!(TelemetrySnapshot::from_json("[]").is_err());
        assert!(TelemetrySnapshot::from_json("{\"metrics\":[{}]}").is_err());
        assert!(TelemetrySnapshot::from_json("{\"metrics\":[]} trailing").is_err());
        // Floats are explicitly unsupported.
        assert!(TelemetrySnapshot::from_json(
            "{\"metrics\":[{\"name\":\"x\",\"kind\":\"counter\",\"value\":1.5}]}"
        )
        .is_err());
    }

    #[test]
    fn from_json_tolerates_whitespace_and_escapes() {
        let text = "{ \"metrics\" : [ { \"name\" : \"a\\nb\" , \"labels\" : { } ,\n\
                    \"kind\" : \"gauge\" , \"value\" : -3 } ] }";
        let snap = TelemetrySnapshot::from_json(text).expect("parses");
        assert_eq!(snap.metrics[0].name, "a\nb");
        assert_eq!(snap.metrics[0].value, SampleValue::Gauge(-3));
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn prometheus_text_format() {
        let r = TelemetryRegistry::new();
        r.counter("c_total", vec![("bank", "0".into())]).add(3);
        let h = r.histogram("lat", vec![], &[10, 100]);
        h.observe(5);
        h.observe(50);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE c_total counter"), "{text}");
        assert!(text.contains("c_total{bank=\"0\"} 3"), "{text}");
        assert!(text.contains("# TYPE lat histogram"), "{text}");
        assert!(text.contains("lat_bucket{le=\"10\"} 1"), "{text}");
        assert!(text.contains("lat_bucket{le=\"100\"} 2"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("lat_sum 55"), "{text}");
        assert!(text.contains("lat_count 2"), "{text}");
    }

    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn concurrent_increments_are_not_lost() {
        let r = std::sync::Arc::new(TelemetryRegistry::new());
        let c = r.counter("mt_total", vec![]);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("thread panicked");
        }
        assert_eq!(r.snapshot().counter_value("mt_total", &[]), Some(40_000));
    }
}
