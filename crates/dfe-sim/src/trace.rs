//! Event tracing and stream statistics.
//!
//! The MaxIDE's behavioural simulator — which the paper credits for most of
//! its debugging — shows per-cycle signal activity. [`Tracer`] is the
//! equivalent here: kernels record timestamped events into a shared bounded
//! buffer, and [`StreamStats`] snapshots FIFO health (throughput, stalls,
//! peak occupancy proxies) for bottleneck hunting.

use crate::stream::StreamRef;
use polymem::telemetry::{Counter, TelemetryRegistry};
use polymem::tracing::{TraceJournal, TraceWriter};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle at which the event occurred.
    pub cycle: u64,
    /// Emitting kernel or component.
    pub source: String,
    /// Free-form event description.
    pub event: String,
}

/// A shared, bounded event recorder.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Rc<RefCell<TraceBuf>>,
}

#[derive(Debug)]
struct TraceBuf {
    events: std::collections::VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    enabled: bool,
    bridge: Option<TelemetryBridge>,
    journal: Option<JournalBridge>,
}

/// Mirrors every recorded event into a [`TraceJournal`] as an instant on
/// the event's source track, unifying the legacy per-kernel `Tracer` with
/// the span journal: one `/trace.json` export shows both. Writers and
/// name ids are interned per distinct source/event text (cold path; the
/// journal's hot path moves only integers).
#[derive(Debug)]
struct JournalBridge {
    journal: TraceJournal,
    writers: HashMap<String, TraceWriter>,
}

impl JournalBridge {
    fn mirror(&mut self, cycle: u64, source: &str, event: &str) {
        let writer = self
            .writers
            .entry(source.to_string())
            .or_insert_with(|| self.journal.writer(source));
        writer.instant_at(cycle, self.journal.intern(event));
    }
}

/// Counts recorded events into a [`TelemetryRegistry`] as
/// `dfe_trace_events_total{source=...}`. One counter handle is registered
/// per distinct source on first sight; subsequent records are a map lookup
/// plus an atomic add.
#[derive(Debug)]
struct TelemetryBridge {
    registry: Arc<TelemetryRegistry>,
    counters: HashMap<String, Counter>,
}

impl TelemetryBridge {
    fn count(&mut self, source: &str) {
        if let Some(c) = self.counters.get(source) {
            c.inc();
            return;
        }
        let c = self.registry.counter(
            "dfe_trace_events_total",
            vec![("source", source.to_string())],
        );
        c.inc();
        self.counters.insert(source.to_string(), c);
    }
}

impl Tracer {
    /// A tracer keeping at most `capacity` events (oldest dropped first).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Rc::new(RefCell::new(TraceBuf {
                events: std::collections::VecDeque::with_capacity(capacity.min(4096)),
                capacity,
                dropped: 0,
                enabled: true,
                bridge: None,
                journal: None,
            })),
        }
    }

    /// Record an event (no-op when disabled).
    pub fn record(&self, cycle: u64, source: impl Into<String>, event: impl Into<String>) {
        let mut b = self.inner.borrow_mut();
        if !b.enabled {
            return;
        }
        if b.events.len() >= b.capacity {
            b.events.pop_front();
            b.dropped += 1;
        }
        let source = source.into();
        let event = event.into();
        if let Some(bridge) = &mut b.bridge {
            bridge.count(&source);
        }
        if let Some(j) = &mut b.journal {
            j.mirror(cycle, &source, &event);
        }
        b.events.push_back(TraceEvent {
            cycle,
            source,
            event,
        });
    }

    /// Record an event whose description is built lazily: `event` runs only
    /// when the tracer is enabled, so hot paths pay a single flag check —
    /// no `format!`, no clone — while tracing is off.
    pub fn record_with(&self, cycle: u64, source: &str, event: impl FnOnce() -> String) {
        if !self.is_enabled() {
            return;
        }
        self.record(cycle, source.to_string(), event());
    }

    /// Record a fast-forward jump: the event-driven scheduler
    /// ([`crate::sched`]) skipped the quiescent span `from..to` in one
    /// step. Recorded at `from`, the last cycle anything happened.
    pub fn record_jump(&self, from: u64, to: u64, source: &str) {
        self.record_with(from, source, || {
            format!("fast-forward to cycle {to} (skipped {} cycles)", to - from)
        });
    }

    /// Whether recording is currently enabled (the fast check
    /// [`Self::record_with`] performs before building an event).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.borrow().enabled
    }

    /// Enable or disable recording.
    pub fn set_enabled(&self, on: bool) {
        self.inner.borrow_mut().enabled = on;
    }

    /// Mirror every recorded event into `registry` as
    /// `dfe_trace_events_total{source=...}` (counts only; the event text
    /// stays in the trace buffer). Events recorded while disabled are not
    /// counted, matching the buffer's behaviour.
    pub fn bridge_registry(&self, registry: Arc<TelemetryRegistry>) {
        self.inner.borrow_mut().bridge = Some(TelemetryBridge {
            registry,
            counters: HashMap::new(),
        });
    }

    /// Mirror every recorded event into `journal` as an instant on the
    /// event's source track (see [`crate::trace`] module docs): the span
    /// journal's exporters then show legacy `Tracer` events — burst
    /// accepts, fast-forward jumps — on the same Perfetto timeline as the
    /// instrumented spans. Events recorded while disabled are not
    /// mirrored, matching the buffer's behaviour; mirrored events are
    /// *not* subject to this tracer's capacity bound (the journal has its
    /// own ring and drop counter).
    pub fn bridge_journal(&self, journal: &TraceJournal) {
        self.inner.borrow_mut().journal = Some(JournalBridge {
            journal: journal.clone(),
            writers: HashMap::new(),
        });
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.borrow().events.iter().cloned().collect()
    }

    /// Events from one source.
    pub fn events_of(&self, source: &str) -> Vec<TraceEvent> {
        self.inner
            .borrow()
            .events
            .iter()
            .filter(|e| e.source == source)
            .cloned()
            .collect()
    }

    /// Events dropped due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Render a text timeline (one line per event, sorted by cycle). When
    /// the capacity bound dropped events, a final diagnostic line says how
    /// many — silent loss would make a truncated timeline read as a
    /// complete one.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let b = self.inner.borrow();
        for e in b.events.iter() {
            out.push_str(&format!("[{:>8}] {:<20} {}\n", e.cycle, e.source, e.event));
        }
        if b.dropped > 0 {
            out.push_str(&format!(
                "[ DROPPED] {} event(s) lost to the capacity bound ({})\n",
                b.dropped, b.capacity
            ));
        }
        out
    }
}

/// Aggregate of the burst traffic a kernel recorded through its tracer
/// hook (`burst:<kind> len=<n>` events, see
/// [`crate::polymem_kernel::PolyMemKernel::set_tracer`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BurstSummary {
    /// Region read bursts accepted.
    pub reads: u64,
    /// Region write bursts accepted.
    pub writes: u64,
    /// Fused copy bursts accepted.
    pub copies: u64,
    /// Total elements moved across all bursts.
    pub elements: u64,
    /// Events the tracer's capacity bound dropped (all sources). Non-zero
    /// means the burst counts above are a **lower bound**: the oldest
    /// burst records may have been evicted before this summary ran.
    pub dropped: u64,
}

/// Summarize one source's `burst:*` events from a tracer. Events that are
/// not burst records (or whose length field is malformed) are ignored.
/// `dropped` carries the tracer's overflow count so callers can tell a
/// complete summary from a truncated one.
pub fn burst_summary(tracer: &Tracer, source: &str) -> BurstSummary {
    let mut out = BurstSummary {
        dropped: tracer.dropped(),
        ..BurstSummary::default()
    };
    for e in tracer.events_of(source) {
        let Some(rest) = e.event.strip_prefix("burst:") else {
            continue;
        };
        let Some((kind, len)) = rest.split_once(" len=") else {
            continue;
        };
        let Ok(len) = len.trim().parse::<u64>() else {
            continue;
        };
        match kind {
            "read" => out.reads += 1,
            "write" => out.writes += 1,
            "copy" => out.copies += 1,
            _ => continue,
        }
        out.elements += len;
    }
    out
}

/// A point-in-time snapshot of one stream's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Elements pushed over the stream's lifetime.
    pub pushed: u64,
    /// Elements popped.
    pub popped: u64,
    /// Rejected pushes (backpressure events).
    pub stalls: u64,
    /// Current queue depth.
    pub depth: usize,
}

/// Snapshot a stream's counters.
pub fn stream_stats<T>(s: &StreamRef<T>) -> StreamStats {
    let f = s.borrow();
    StreamStats {
        pushed: f.total_pushed(),
        popped: f.total_popped(),
        stalls: f.stall_count(),
        depth: f.len(),
    }
}

/// Aggregate a design's stream health into (name, stats) rows, flagging any
/// stream that ever stalled — the first thing to look at when a pipeline
/// under-delivers.
pub fn stream_report<T>(streams: &[(&str, &StreamRef<T>)]) -> Vec<(String, StreamStats)> {
    streams
        .iter()
        .map(|(name, s)| ((*name).to_string(), stream_stats(s)))
        .collect()
}

/// [`stream_report`] plus a final `<tracer>` row surfacing the event
/// buffer's own health: `pushed` = events ever recorded, `stalls` =
/// events lost to the capacity bound, `depth` = events currently
/// retained. A non-zero stall count on this row means every
/// event-derived diagnosis (e.g. [`burst_summary`]) ran on a truncated
/// timeline.
pub fn stream_report_traced<T>(
    streams: &[(&str, &StreamRef<T>)],
    tracer: &Tracer,
) -> Vec<(String, StreamStats)> {
    let mut rows = stream_report(streams);
    let retained = tracer.events().len() as u64;
    let dropped = tracer.dropped();
    rows.push((
        "<tracer>".to_string(),
        StreamStats {
            pushed: retained + dropped,
            popped: 0,
            stalls: dropped,
            depth: retained as usize,
        },
    ));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::stream;

    #[test]
    fn records_and_renders() {
        let t = Tracer::new(16);
        t.record(0, "agu", "expand rect(0,0)");
        t.record(1, "banks", "read 8 lanes");
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].source, "agu");
        let text = t.render();
        assert!(text.contains("expand rect"));
        assert!(text.contains("[       1]"));
    }

    #[test]
    fn capacity_bound_drops_oldest() {
        let t = Tracer::new(3);
        for c in 0..5 {
            t.record(c, "k", format!("e{c}"));
        }
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].event, "e2");
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn disable_suppresses() {
        let t = Tracer::new(8);
        t.set_enabled(false);
        t.record(0, "k", "hidden");
        assert!(t.events().is_empty());
        t.set_enabled(true);
        t.record(1, "k", "visible");
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn filter_by_source() {
        let t = Tracer::new(8);
        t.record(0, "a", "x");
        t.record(1, "b", "y");
        t.record(2, "a", "z");
        assert_eq!(t.events_of("a").len(), 2);
        assert_eq!(t.events_of("b").len(), 1);
        assert!(t.events_of("c").is_empty());
    }

    #[test]
    fn stream_stats_snapshot() {
        let s = stream::<u64>("s", 2);
        s.borrow_mut().push(1);
        s.borrow_mut().push(2);
        s.borrow_mut().push(3); // stall
        s.borrow_mut().pop();
        let st = stream_stats(&s);
        assert_eq!(st.pushed, 2);
        assert_eq!(st.popped, 1);
        assert_eq!(st.stalls, 1);
        assert_eq!(st.depth, 1);
    }

    #[test]
    fn stream_report_rows() {
        let a = stream::<u64>("a", 4);
        let b = stream::<u64>("b", 4);
        a.borrow_mut().push(1);
        let rows = stream_report(&[("a", &a), ("b", &b)]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1.pushed, 1);
        assert_eq!(rows[1].1.pushed, 0);
    }

    #[test]
    fn burst_summary_counts_kinds_and_elements() {
        let t = Tracer::new(16);
        t.record(0, "pm", "burst:read len=32");
        t.record(4, "pm", "burst:copy len=32");
        t.record(8, "pm", "burst:write len=16");
        t.record(9, "pm", "not a burst");
        t.record(9, "pm", "burst:copy len=oops");
        t.record(10, "other", "burst:read len=99");
        let s = burst_summary(&t, "pm");
        assert_eq!(
            s,
            BurstSummary {
                reads: 1,
                writes: 1,
                copies: 1,
                elements: 80,
                dropped: 0,
            }
        );
    }

    #[test]
    fn overflow_is_counted_and_surfaced_everywhere() {
        // A capacity-2 tracer fed 5 burst events: the 3 oldest are evicted
        // silently by the ring — the drop count must surface in the
        // summary, the rendered timeline, and the stream report so no
        // consumer mistakes a truncated record for a complete one.
        let t = Tracer::new(2);
        for c in 0..5u64 {
            t.record(c, "pm", format!("burst:read len={}", 8 * (c + 1)));
        }
        assert_eq!(t.dropped(), 3);
        let s = burst_summary(&t, "pm");
        assert_eq!(s.reads, 2, "only the 2 newest events survive");
        assert_eq!(s.elements, 32 + 40);
        assert_eq!(s.dropped, 3, "summary flags the loss");
        let text = t.render();
        assert!(
            text.contains("3 event(s) lost to the capacity bound (2)"),
            "{text}"
        );
        let rows = stream_report_traced::<u64>(&[], &t);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "<tracer>");
        assert_eq!(rows[0].1.pushed, 5);
        assert_eq!(rows[0].1.stalls, 3);
        assert_eq!(rows[0].1.depth, 2);
        // A healthy tracer renders no drop footer and reports zero stalls.
        let ok = Tracer::new(8);
        ok.record(0, "pm", "burst:read len=8");
        assert!(!ok.render().contains("DROPPED"));
        assert_eq!(stream_report_traced::<u64>(&[], &ok)[0].1.stalls, 0);
    }

    #[test]
    fn shared_clone_sees_same_buffer() {
        let t = Tracer::new(8);
        let t2 = t.clone();
        t.record(0, "k", "from t");
        assert_eq!(t2.events().len(), 1);
    }

    #[test]
    fn record_with_builds_lazily() {
        let t = Tracer::new(8);
        t.set_enabled(false);
        let mut built = false;
        t.record_with(0, "k", || {
            built = true;
            "hidden".into()
        });
        assert!(!built, "closure must not run while disabled");
        assert!(!t.is_enabled());
        assert!(t.events().is_empty());
        t.set_enabled(true);
        t.record_with(1, "k", || "visible".into());
        let evs = t.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].event, "visible");
    }

    #[test]
    fn record_jump_formats_span() {
        let t = Tracer::new(8);
        t.record_jump(10, 150, "sched");
        let evs = t.events_of("sched");
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].cycle, 10);
        assert!(evs[0].event.contains("fast-forward to cycle 150"));
        assert!(evs[0].event.contains("skipped 140"));
    }

    #[test]
    fn bridge_counts_events_by_source() {
        use polymem::telemetry::TelemetryRegistry;
        use std::sync::Arc;
        let reg = Arc::new(TelemetryRegistry::new());
        let t = Tracer::new(8);
        t.bridge_registry(Arc::clone(&reg));
        t.record(0, "pm", "a");
        t.record(1, "pm", "b");
        t.record(2, "loader", "c");
        t.set_enabled(false);
        t.record(3, "pm", "suppressed");
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter_value("dfe_trace_events_total", &[("source", "pm")]),
            Some(2)
        );
        assert_eq!(
            snap.counter_value("dfe_trace_events_total", &[("source", "loader")]),
            Some(1)
        );
    }

    #[test]
    #[cfg(not(feature = "tracing-off"))]
    fn journal_bridge_mirrors_events_as_instants() {
        use polymem::tracing::{TraceEventKind, TraceJournal};
        let journal = TraceJournal::new(64);
        let t = Tracer::new(8);
        t.bridge_journal(&journal);
        t.record(3, "pm", "burst:read len=32");
        t.record(7, "sched", "fast-forward to cycle 20 (skipped 13 cycles)");
        t.set_enabled(false);
        t.record(9, "pm", "suppressed");
        let snap = journal.snapshot();
        assert_eq!(snap.events.len(), 2, "disabled records are not mirrored");
        assert!(snap
            .events
            .iter()
            .all(|e| e.kind == TraceEventKind::Instant));
        let pm = &snap.events[0];
        assert_eq!((pm.cycle, pm.track.as_str()), (3, "pm"));
        assert_eq!(pm.name, "burst:read len=32");
        assert_eq!(snap.events[1].track, "sched");
    }
}
