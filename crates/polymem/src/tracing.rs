//! Causal span tracing: a lock-free, bounded, cycle-stamped trace journal.
//!
//! [`crate::telemetry`] answers *how much* (counters, histograms, exact-sum
//! cycle attribution); this module answers *why*: it records a causal
//! timeline of **span begin/end** and **instant** events, each stamped with
//! the simulated cycle, linked by span ids and parent ids, and grouped onto
//! named tracks (one track per kernel / port / subsystem). The journal
//! exports two pinned formats — Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`; escaped and read back through the shared
//! [`crate::json`] codec) and folded-stack text (flamegraph input) — plus a
//! validator that proves every span is balanced and nests within its
//! parent.
//!
//! ## Design
//!
//! * **Lock-free bounded MPSC ring.** [`TraceJournal`] owns a power-of-two
//!   array of slots; any number of [`TraceWriter`] handles (one per
//!   instrumented component, usable from any thread) claim slots with a
//!   single `fetch_add` ticket and never block. When the ring wraps, the
//!   oldest events are overwritten and counted in
//!   [`TraceJournal::dropped`] — recording never stalls the datapath.
//! * **Per-slot sequence stamps.** Every slot carries a sequence word
//!   derived from its ticket (`2t+1` while a write is in flight, `2t+2`
//!   once complete). The cold-path reader ([`TraceJournal::snapshot`])
//!   re-checks the stamp around its field reads and discards torn slots,
//!   so a concurrent writer can never corrupt an export. See the *Memory
//!   ordering* section below for the exact protocol.
//! * **Interned names.** Track and event names are interned once at
//!   instrumentation setup; the hot recording path moves only fixed-width
//!   integers — no allocation, no formatting, no hashing, no panicking
//!   construct. This is what lets region-replay hot paths carry spans.
//!
//! ## Memory ordering
//!
//! All atomics go through [`crate::sync`] (so `--features race-check`
//! swaps in the interleave model types) and use only
//! `load`/`store`/`fetch_add`:
//!
//! * Writer: claim `t = head.fetch_add(1, Relaxed)`; stamp the slot's
//!   `seq = 2t+1` (`Relaxed` — ordering against the field stores is not
//!   needed, the reader only trusts *even* stamps); store each payload
//!   field with `Release`; publish `seq = 2t+2` with `Release`.
//! * Reader: load `head` with `Acquire`, then for each ticket in the live
//!   window load `seq` (`Acquire`), the payload fields (`Acquire`), and
//!   `seq` again (`Acquire`), accepting the slot only if both stamps equal
//!   `2t+2`. The field `Release`/`Acquire` pairs guarantee that if a
//!   reader observes a newer writer's payload, the trailing stamp check
//!   observes that writer's (different) sequence and rejects the slot —
//!   torn reads are detected, never silently exported.
//!
//! Timestamps are **logical cycles** supplied by the embedding simulator
//! via [`TraceJournal::set_cycle`] (the `dfe_sim` scheduler advances it on
//! every step), not wall-clock time: traces are deterministic and
//! replayable, and event-driven fast-forwards appear as collapsed spans.

use crate::json::{self, Json};
use crate::sync::{AtomicU64, Ordering, RwLock};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifies a span; `0` (= [`SpanId::NONE`]) means "no span / no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span id, used as "no parent".
    pub const NONE: SpanId = SpanId(0);
}

/// An interned event-name id (cold-path interning via
/// [`TraceJournal::intern`]; hot-path recording moves only this integer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NameId(pub(crate) u32);

/// What a journal record denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A span opens (carries a fresh span id and a parent link).
    Begin,
    /// A span closes (carries the span id opened by the matching Begin).
    End,
    /// A point event with no duration.
    Instant,
}

/// Wire-format only: a whole `[start, end)` span in one slot (the `parent`
/// word carries the end cycle — complete spans never carry a parent link).
/// [`TraceJournal::snapshot`] expands it into a Begin/End record pair, so
/// nothing above the decoder ever sees this kind; it exists because the
/// run-coalescing instrumentation emits spans retroactively (both bounds
/// already known) and one slot costs half of two.
const KIND_COMPLETE: u64 = 0;
/// `span` argument sentinel: mint the id from the claimed ticket. Real
/// span ids are `ticket + 1` and tickets would take centuries to reach
/// `u64::MAX - 1`, so the sentinel is unreachable as a genuine id.
const SPAN_FROM_TICKET: u64 = u64::MAX;
const KIND_BEGIN: u64 = 1;
const KIND_END: u64 = 2;
const KIND_INSTANT: u64 = 3;

/// One decoded journal record (resolved names, owned strings — cold path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEventRecord {
    /// Begin / End / Instant.
    pub kind: TraceEventKind,
    /// Logical cycle stamp.
    pub cycle: u64,
    /// Event name (span name for Begin/End).
    pub name: String,
    /// Track (timeline row) this event belongs to.
    pub track: String,
    /// Span id (0 for instants).
    pub span: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
}

/// A decoded point-in-time export of a [`TraceJournal`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSnapshot {
    /// Events in journal (causal ticket) order.
    pub events: Vec<TraceEventRecord>,
    /// Events overwritten by ring wrap-around before this snapshot.
    pub dropped: u64,
    /// Slots discarded because a writer was mid-flight during the read.
    pub torn: u64,
}

// ---------------------------------------------------------------------------
// Live journal.
// ---------------------------------------------------------------------------

struct Slot {
    seq: AtomicU64,
    meta: AtomicU64,
    span: AtomicU64,
    parent: AtomicU64,
    cycle: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            span: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            cycle: AtomicU64::new(0),
        }
    }
}

fn pack_meta(kind: u64, track: u32, name: u32) -> u64 {
    (kind << 62) | (u64::from(track) << 32) | u64::from(name)
}

struct JournalCore {
    slots: Vec<Slot>,
    mask: u64,
    head: AtomicU64,
    cycle: AtomicU64,
    names: RwLock<Vec<String>>,
    tracks: RwLock<Vec<String>>,
}

/// A bounded, lock-free, cycle-stamped trace journal (see module docs).
///
/// Cloning is cheap (`Arc` handle).
#[derive(Clone)]
pub struct TraceJournal {
    core: Arc<JournalCore>,
}

impl std::fmt::Debug for TraceJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceJournal")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl TraceJournal {
    /// A journal holding the last `capacity` events (rounded up to a power
    /// of two, minimum 8). Older events are overwritten, never blocked on.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let slots = (0..cap).map(|_| Slot::new()).collect::<Vec<_>>();
        TraceJournal {
            core: Arc::new(JournalCore {
                slots,
                mask: (cap - 1) as u64,
                head: AtomicU64::new(0),
                cycle: AtomicU64::new(0),
                names: RwLock::new(Vec::new()),
                tracks: RwLock::new(Vec::new()),
            }),
        }
    }

    /// Intern an event name, returning the id the hot path records with.
    /// Cold path (write lock); call once at instrumentation setup.
    pub fn intern(&self, name: &str) -> NameId {
        let mut names = self.core.names.write();
        if let Some(i) = names.iter().position(|n| n == name) {
            return NameId(i as u32);
        }
        names.push(name.to_string());
        NameId((names.len() - 1) as u32)
    }

    /// A writer handle recording onto the named track (interned on first
    /// use). Writers are cheap to clone and usable from any thread.
    pub fn writer(&self, track: &str) -> TraceWriter {
        let mut tracks = self.core.tracks.write();
        let id = match tracks.iter().position(|t| t == track) {
            Some(i) => i as u32,
            None => {
                tracks.push(track.to_string());
                (tracks.len() - 1) as u32
            }
        };
        drop(tracks);
        TraceWriter {
            core: Arc::clone(&self.core),
            track: id,
        }
    }

    /// Advance the logical clock all un-suffixed (`begin`/`end`/`instant`)
    /// records stamp with. Single `Relaxed` store.
    #[inline]
    pub fn set_cycle(&self, cycle: u64) {
        self.core.cycle.store(cycle, Ordering::Relaxed);
    }

    /// The current logical cycle.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.core.cycle.load(Ordering::Relaxed)
    }

    /// Total events ever recorded (including since-overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.core.head.load(Ordering::Acquire)
    }

    /// Events lost to ring wrap-around so far.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.core.slots.len() as u64)
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.core.slots.len()
    }

    /// Decode the live window into an owned snapshot. Torn slots (a writer
    /// mid-flight, or overwritten during the read) are discarded and
    /// counted, never exported corrupt.
    pub fn snapshot(&self) -> TraceSnapshot {
        let names = self.core.names.read().clone();
        let tracks = self.core.tracks.read().clone();
        let head = self.core.head.load(Ordering::Acquire);
        let cap = self.core.slots.len() as u64;
        let lo = head.saturating_sub(cap);
        let mut events = Vec::with_capacity((head - lo) as usize);
        let mut torn = 0u64;
        for t in lo..head {
            let slot = &self.core.slots[(t & self.core.mask) as usize];
            let want = 2 * t + 2;
            if slot.seq.load(Ordering::Acquire) != want {
                torn += 1;
                continue;
            }
            let meta = slot.meta.load(Ordering::Acquire);
            let span = slot.span.load(Ordering::Acquire);
            let parent = slot.parent.load(Ordering::Acquire);
            let cycle = slot.cycle.load(Ordering::Acquire);
            if slot.seq.load(Ordering::Acquire) != want {
                torn += 1;
                continue;
            }
            let track_id = ((meta >> 32) & 0x3fff_ffff) as usize;
            let name_id = (meta & 0xffff_ffff) as usize;
            let name = names.get(name_id).cloned().unwrap_or_default();
            let track = tracks.get(track_id).cloned().unwrap_or_default();
            let kind = match meta >> 62 {
                KIND_BEGIN => TraceEventKind::Begin,
                KIND_END => TraceEventKind::End,
                KIND_INSTANT => TraceEventKind::Instant,
                // A complete span (one slot, end cycle in the parent
                // word): expand to the Begin/End pair the two-record path
                // would have written, so consumers see one event model.
                _ => {
                    events.push(TraceEventRecord {
                        kind: TraceEventKind::Begin,
                        cycle,
                        name: name.clone(),
                        track: track.clone(),
                        span,
                        parent: SpanId::NONE.0,
                    });
                    events.push(TraceEventRecord {
                        kind: TraceEventKind::End,
                        cycle: parent,
                        name,
                        track,
                        span,
                        parent: 0,
                    });
                    continue;
                }
            };
            events.push(TraceEventRecord {
                kind,
                cycle,
                name,
                track,
                span,
                parent,
            });
        }
        TraceSnapshot {
            events,
            dropped: lo,
            torn,
        }
    }
}

/// A per-component handle recording events onto one journal track.
///
/// Every operation is wait-free: one ticket `fetch_add` plus a handful of
/// plain stores — no allocation, no locks, no panicking construct.
#[derive(Clone)]
pub struct TraceWriter {
    core: Arc<JournalCore>,
    track: u32,
}

impl std::fmt::Debug for TraceWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceWriter")
            .field("track", &self.track)
            .finish()
    }
}

impl TraceWriter {
    /// Claim a ticket and stamp its slot in-flight. One `fetch_add`; the
    /// ticket doubles as the span-id source (`t + 1`, so `0` stays NONE) —
    /// tickets are globally unique, so no second id counter is needed.
    #[inline]
    fn record(&self, kind: u64, name: NameId, span: u64, parent: u64, cycle: u64) -> u64 {
        let t = self.core.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.core.slots[(t & self.core.mask) as usize];
        slot.seq.store(2 * t + 1, Ordering::Relaxed);
        let span = if span == SPAN_FROM_TICKET {
            t + 1
        } else {
            span
        };
        slot.meta
            .store(pack_meta(kind, self.track, name.0), Ordering::Release);
        slot.span.store(span, Ordering::Release);
        slot.parent.store(parent, Ordering::Release);
        slot.cycle.store(cycle, Ordering::Release);
        slot.seq.store(2 * t + 2, Ordering::Release);
        span
    }

    /// Open a span at the journal's current cycle; returns its id.
    #[inline]
    pub fn begin(&self, name: NameId, parent: SpanId) -> SpanId {
        self.begin_at(self.core.cycle.load(Ordering::Relaxed), name, parent)
    }

    /// Open a span at an explicit cycle (retroactive emission).
    #[inline]
    pub fn begin_at(&self, cycle: u64, name: NameId, parent: SpanId) -> SpanId {
        SpanId(self.record(KIND_BEGIN, name, SPAN_FROM_TICKET, parent.0, cycle))
    }

    /// Record a whole `[start, end)` span in **one** journal slot (the
    /// retroactive fast path: both bounds already known, e.g. a flushed
    /// attribution run or a burst with a computed duration). Decodes to
    /// the same Begin/End pair `begin_at` + `end_at` would have produced,
    /// at half the recording cost. Complete spans carry no parent link.
    #[inline]
    pub fn span_at(&self, start: u64, end: u64, name: NameId) -> SpanId {
        SpanId(self.record(KIND_COMPLETE, name, SPAN_FROM_TICKET, end, start))
    }

    /// Close a span at the journal's current cycle.
    #[inline]
    pub fn end(&self, name: NameId, span: SpanId) {
        self.end_at(self.core.cycle.load(Ordering::Relaxed), name, span);
    }

    /// Close a span at an explicit cycle (retroactive emission).
    #[inline]
    pub fn end_at(&self, cycle: u64, name: NameId, span: SpanId) {
        self.record(KIND_END, name, span.0, 0, cycle);
    }

    /// Record a point event at the journal's current cycle.
    #[inline]
    pub fn instant(&self, name: NameId) {
        self.instant_at(self.core.cycle.load(Ordering::Relaxed), name);
    }

    /// Record a point event at an explicit cycle.
    #[inline]
    pub fn instant_at(&self, cycle: u64, name: NameId) {
        self.record(KIND_INSTANT, name, 0, 0, cycle);
    }
}

// ---------------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------------

/// One matched Begin/End pair decoded from a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Track the span lives on.
    pub track: String,
    /// Span name.
    pub name: String,
    /// Begin cycle.
    pub begin: u64,
    /// End cycle (`>= begin`).
    pub end: u64,
    /// Span id.
    pub span: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
}

impl SpanRecord {
    /// Duration in cycles.
    pub fn cycles(&self) -> u64 {
        self.end.saturating_sub(self.begin)
    }
}

impl TraceSnapshot {
    /// Export as Chrome trace-event JSON (the format Perfetto and
    /// `chrome://tracing` load). One process, one `tid` per track (named
    /// via thread-name metadata), `ts` = logical cycle (displayed as µs).
    /// Events are stably sorted by timestamp; `dropped`/`torn` diagnostics
    /// ride along as top-level keys so [`TraceSnapshot::from_chrome_json`]
    /// round-trips exactly.
    pub fn to_chrome_json(&self) -> String {
        let mut tracks: Vec<&str> = Vec::new();
        for e in &self.events {
            if !tracks.contains(&e.track.as_str()) {
                tracks.push(&e.track);
            }
        }
        let tid = |track: &str| tracks.iter().position(|t| *t == track).unwrap_or(0) + 1;
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| self.events[i].cycle);
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ms\",\"dropped\":");
        out.push_str(&self.dropped.to_string());
        out.push_str(",\"torn\":");
        out.push_str(&self.torn.to_string());
        out.push_str(",\"traceEvents\":[\n");
        let mut first = true;
        let push_sep = |out: &mut String, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
        };
        for (i, track) in tracks.iter().enumerate() {
            push_sep(&mut out, &mut first);
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"",
                i + 1
            ));
            json::escape(&mut out, track);
            out.push_str("\"}}");
        }
        for &i in &order {
            let e = &self.events[i];
            push_sep(&mut out, &mut first);
            let ph = match e.kind {
                TraceEventKind::Begin => "B",
                TraceEventKind::End => "E",
                TraceEventKind::Instant => "i",
            };
            out.push_str(&format!(
                "{{\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":\"",
                ph,
                tid(&e.track),
                e.cycle
            ));
            json::escape(&mut out, &e.name);
            out.push('"');
            if e.kind == TraceEventKind::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            out.push_str(&format!(
                ",\"args\":{{\"span\":{},\"parent\":{}}}}}",
                e.span, e.parent
            ));
        }
        out.push_str("\n]}\n");
        out
    }

    /// Parse a document produced by [`TraceSnapshot::to_chrome_json`] back
    /// into a snapshot (events in file = timestamp order).
    pub fn from_chrome_json(text: &str) -> Result<TraceSnapshot, String> {
        let doc = json::parse(text)?;
        let count = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
        let raw = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("missing traceEvents array")?;
        if raw.iter().any(|ev| ev.as_obj().is_none()) {
            return Err("traceEvent is not an object".into());
        }
        let str_of = |v: Option<&Json>| v.and_then(Json::as_str).unwrap_or("").to_string();
        let u64_of = |v: Option<&Json>| v.and_then(Json::as_u64).unwrap_or(0);
        let mut track_by_tid: BTreeMap<u64, String> = BTreeMap::new();
        for ev in raw {
            if str_of(ev.get("ph")) == "M" {
                let name = str_of(ev.get("args").and_then(|a| a.get("name")));
                track_by_tid.insert(u64_of(ev.get("tid")), name);
            }
        }
        let mut events = Vec::new();
        for ev in raw {
            let kind = match str_of(ev.get("ph")).as_str() {
                "B" => TraceEventKind::Begin,
                "E" => TraceEventKind::End,
                "i" => TraceEventKind::Instant,
                _ => continue,
            };
            let arg = |key: &str| u64_of(ev.get("args").and_then(|a| a.get(key)));
            events.push(TraceEventRecord {
                kind,
                cycle: u64_of(ev.get("ts")),
                name: str_of(ev.get("name")),
                track: track_by_tid
                    .get(&u64_of(ev.get("tid")))
                    .cloned()
                    .unwrap_or_default(),
                span: arg("span"),
                parent: arg("parent"),
            });
        }
        Ok(TraceSnapshot {
            events,
            dropped: count("dropped"),
            torn: count("torn"),
        })
    }

    /// Export folded-stack text (`track;outer;inner <cycles>` per line,
    /// sorted) — the input format of flamegraph tooling. Each span's
    /// *exclusive* cycles are attributed to its open stack; instants are
    /// skipped.
    pub fn folded_stacks(&self) -> String {
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        let mut tracks: Vec<&str> = Vec::new();
        for e in &self.events {
            if !tracks.contains(&e.track.as_str()) {
                tracks.push(&e.track);
            }
        }
        for track in tracks {
            let mut stack: Vec<&str> = vec![track];
            let mut last = 0u64;
            let mut opened = false;
            for e in self.events.iter().filter(|e| e.track == track) {
                match e.kind {
                    TraceEventKind::Begin => {
                        if opened && e.cycle > last {
                            *folded.entry(stack.join(";")).or_default() += e.cycle - last;
                        }
                        stack.push(&e.name);
                        last = e.cycle;
                        opened = true;
                    }
                    TraceEventKind::End => {
                        if e.cycle > last {
                            *folded.entry(stack.join(";")).or_default() += e.cycle - last;
                        }
                        if stack.len() > 1 {
                            stack.pop();
                        }
                        last = e.cycle;
                        opened = stack.len() > 1;
                    }
                    TraceEventKind::Instant => {}
                }
            }
        }
        let mut out = String::new();
        for (stack, cycles) in folded {
            out.push_str(&format!("{stack} {cycles}\n"));
        }
        out
    }

    /// Match Begin/End pairs (per-track LIFO order) into [`SpanRecord`]s.
    /// Unbalanced events are skipped here; use
    /// [`TraceSnapshot::validate_spans`] to detect them.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut open: Vec<&TraceEventRecord> = Vec::new();
        let mut out = Vec::new();
        for e in &self.events {
            match e.kind {
                TraceEventKind::Begin => open.push(e),
                TraceEventKind::End => {
                    if let Some(pos) = open.iter().rposition(|b| b.span == e.span) {
                        let b = open.remove(pos);
                        out.push(SpanRecord {
                            track: b.track.clone(),
                            name: b.name.clone(),
                            begin: b.cycle,
                            end: e.cycle,
                            span: b.span,
                            parent: b.parent,
                        });
                    }
                }
                TraceEventKind::Instant => {}
            }
        }
        out.sort_by_key(|s| (s.begin, s.span));
        out
    }

    /// Sum span cycles per name for one track — the reconciliation view
    /// checked against telemetry's exact-sum cycle attribution.
    pub fn span_cycles_by_name(&self, track: &str) -> BTreeMap<String, u64> {
        let mut sums = BTreeMap::new();
        for s in self.spans() {
            if s.track == track {
                *sums.entry(s.name).or_default() += s.cycles();
            }
        }
        sums
    }

    /// Validate the span structure: every Begin has a matching End on the
    /// same track in LIFO order, timestamps are monotone per track, ends
    /// don't precede begins, and every non-root parent is open when its
    /// child begins. Returns human-readable problems (empty = valid).
    /// This is the check `polymem-verify --inject` seeds an unbalanced
    /// span against.
    pub fn validate_spans(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut stacks: BTreeMap<&str, Vec<&TraceEventRecord>> = BTreeMap::new();
        let mut last_ts: BTreeMap<&str, u64> = BTreeMap::new();
        for e in &self.events {
            let prev = last_ts.entry(&e.track).or_insert(e.cycle);
            if e.cycle < *prev {
                problems.push(format!(
                    "track `{}`: timestamp moved backwards ({} after {})",
                    e.track, e.cycle, prev
                ));
            }
            *prev = (*prev).max(e.cycle);
            match e.kind {
                TraceEventKind::Begin => {
                    if e.parent != 0 {
                        let open = stacks.values().flatten().any(|b| b.span == e.parent);
                        if !open {
                            problems.push(format!(
                                "span {} (`{}`) begins under parent {} which is not open",
                                e.span, e.name, e.parent
                            ));
                        }
                    }
                    stacks.entry(&e.track).or_default().push(e);
                }
                TraceEventKind::End => {
                    let stack = stacks.entry(&e.track).or_default();
                    match stack.pop() {
                        Some(b) if b.span == e.span => {
                            if e.cycle < b.cycle {
                                problems.push(format!(
                                    "span {} (`{}`) ends at {} before it begins at {}",
                                    e.span, e.name, e.cycle, b.cycle
                                ));
                            }
                        }
                        Some(b) => problems.push(format!(
                            "track `{}`: end of span {} does not match open span {} (`{}`)",
                            e.track, e.span, b.span, b.name
                        )),
                        None => problems.push(format!(
                            "track `{}`: end of span {} (`{}`) with no span open",
                            e.track, e.span, e.name
                        )),
                    }
                }
                TraceEventKind::Instant => {}
            }
        }
        for (track, stack) in stacks {
            for b in stack {
                problems.push(format!(
                    "track `{track}`: span {} (`{}`) begun at {} never ends",
                    b.span, b.name, b.cycle
                ));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> TraceSnapshot {
        let j = TraceJournal::new(64);
        let w = j.writer("pm");
        let outer = j.intern("replay");
        let inner = j.intern("gather");
        let hit = j.intern("hit");
        j.set_cycle(10);
        let a = w.begin(outer, SpanId::NONE);
        w.instant(hit);
        j.set_cycle(12);
        let b = w.begin(inner, a);
        j.set_cycle(17);
        w.end(inner, b);
        j.set_cycle(20);
        w.end(outer, a);
        j.snapshot()
    }

    #[test]
    fn journal_records_and_decodes_events_in_order() {
        let s = sample_snapshot();
        assert_eq!(s.dropped, 0);
        assert_eq!(s.torn, 0);
        let kinds: Vec<_> = s.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceEventKind::Begin,
                TraceEventKind::Instant,
                TraceEventKind::Begin,
                TraceEventKind::End,
                TraceEventKind::End,
            ]
        );
        assert_eq!(s.events[0].name, "replay");
        assert_eq!(s.events[0].track, "pm");
        assert_eq!(s.events[2].parent, s.events[0].span);
        assert_eq!(s.events[3].cycle, 17);
        assert!(s.validate_spans().is_empty());
        let spans = s.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "replay");
        assert_eq!(spans[0].cycles(), 10);
        assert_eq!(spans[1].name, "gather");
        assert_eq!(spans[1].cycles(), 5);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let j = TraceJournal::new(8);
        let w = j.writer("t");
        let n = j.intern("e");
        for c in 0..20 {
            j.set_cycle(c);
            w.instant(n);
        }
        assert_eq!(j.recorded(), 20);
        assert_eq!(j.dropped(), 12);
        let s = j.snapshot();
        assert_eq!(s.dropped, 12);
        assert_eq!(s.torn, 0);
        assert_eq!(s.events.len(), 8);
        assert_eq!(s.events[0].cycle, 12);
        assert_eq!(s.events[7].cycle, 19);
    }

    #[test]
    fn chrome_json_round_trips_exactly() {
        let s = sample_snapshot();
        let doc = s.to_chrome_json();
        let back = TraceSnapshot::from_chrome_json(&doc).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn chrome_json_golden() {
        let s = TraceSnapshot {
            events: vec![
                TraceEventRecord {
                    kind: TraceEventKind::Begin,
                    cycle: 3,
                    name: "replay".into(),
                    track: "pm".into(),
                    span: 1,
                    parent: 0,
                },
                TraceEventRecord {
                    kind: TraceEventKind::Instant,
                    cycle: 4,
                    name: "hit".into(),
                    track: "pm".into(),
                    span: 0,
                    parent: 0,
                },
                TraceEventRecord {
                    kind: TraceEventKind::End,
                    cycle: 9,
                    name: "replay".into(),
                    track: "pm".into(),
                    span: 1,
                    parent: 0,
                },
            ],
            dropped: 2,
            torn: 0,
        };
        let expected = "{\"displayTimeUnit\":\"ms\",\"dropped\":2,\"torn\":0,\"traceEvents\":[\n\
             {\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"pm\"}},\n\
             {\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":3,\"name\":\"replay\",\"args\":{\"span\":1,\"parent\":0}},\n\
             {\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":4,\"name\":\"hit\",\"s\":\"t\",\"args\":{\"span\":0,\"parent\":0}},\n\
             {\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":9,\"name\":\"replay\",\"args\":{\"span\":1,\"parent\":0}}\n\
             ]}\n";
        assert_eq!(s.to_chrome_json(), expected);
        assert_eq!(TraceSnapshot::from_chrome_json(expected).unwrap(), s);
    }

    #[test]
    fn folded_stacks_golden() {
        let s = TraceSnapshot {
            events: vec![
                TraceEventRecord {
                    kind: TraceEventKind::Begin,
                    cycle: 0,
                    name: "outer".into(),
                    track: "pm".into(),
                    span: 1,
                    parent: 0,
                },
                TraceEventRecord {
                    kind: TraceEventKind::Begin,
                    cycle: 4,
                    name: "inner".into(),
                    track: "pm".into(),
                    span: 2,
                    parent: 1,
                },
                TraceEventRecord {
                    kind: TraceEventKind::End,
                    cycle: 7,
                    name: "inner".into(),
                    track: "pm".into(),
                    span: 2,
                    parent: 0,
                },
                TraceEventRecord {
                    kind: TraceEventKind::End,
                    cycle: 10,
                    name: "outer".into(),
                    track: "pm".into(),
                    span: 1,
                    parent: 0,
                },
            ],
            dropped: 0,
            torn: 0,
        };
        assert_eq!(s.folded_stacks(), "pm;outer 7\npm;outer;inner 3\n");
    }

    #[test]
    fn validator_catches_unbalanced_and_misnested_spans() {
        let begin = |cycle, span, parent| TraceEventRecord {
            kind: TraceEventKind::Begin,
            cycle,
            name: format!("s{span}"),
            track: "t".into(),
            span,
            parent,
        };
        let end = |cycle, span| TraceEventRecord {
            kind: TraceEventKind::End,
            cycle,
            name: format!("s{span}"),
            track: "t".into(),
            span,
            parent: 0,
        };
        // Begin without end.
        let s = TraceSnapshot {
            events: vec![begin(0, 1, 0)],
            ..Default::default()
        };
        assert!(s.validate_spans().iter().any(|p| p.contains("never ends")));
        // End without begin.
        let s = TraceSnapshot {
            events: vec![end(3, 7)],
            ..Default::default()
        };
        assert!(s
            .validate_spans()
            .iter()
            .any(|p| p.contains("no span open")));
        // Interleaved (non-LIFO) spans on one track.
        let s = TraceSnapshot {
            events: vec![begin(0, 1, 0), begin(1, 2, 0), end(2, 1), end(3, 2)],
            ..Default::default()
        };
        assert!(!s.validate_spans().is_empty());
        // Parent not open.
        let s = TraceSnapshot {
            events: vec![begin(0, 2, 9), end(1, 2)],
            ..Default::default()
        };
        assert!(s.validate_spans().iter().any(|p| p.contains("not open")));
        // A balanced nested trace is clean.
        let s = TraceSnapshot {
            events: vec![begin(0, 1, 0), begin(1, 2, 1), end(2, 2), end(3, 1)],
            ..Default::default()
        };
        assert!(s.validate_spans().is_empty());
    }

    #[test]
    fn concurrent_writers_stay_balanced_and_nested() {
        let j = TraceJournal::new(1 << 12);
        let names: Vec<NameId> = (0..4).map(|d| j.intern(&format!("depth{d}"))).collect();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let writer = j.writer(&format!("track{w}"));
                let names = names.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        let a = writer.begin_at(i * 10, names[0], SpanId::NONE);
                        let b = writer.begin_at(i * 10 + 2, names[1], a);
                        writer.instant_at(i * 10 + 3, names[2]);
                        writer.end_at(i * 10 + 5, names[1], b);
                        writer.end_at(i * 10 + 8, names[0], a);
                    }
                });
            }
        });
        let s = j.snapshot();
        assert_eq!(s.dropped, 0);
        assert_eq!(s.torn, 0);
        assert_eq!(s.events.len(), 4 * 50 * 5);
        let problems = s.validate_spans();
        assert!(problems.is_empty(), "{problems:?}");
        let spans = s.spans();
        assert_eq!(spans.len(), 4 * 50 * 2);
        // Every child nests inside its parent's [begin, end] window.
        for child in spans.iter().filter(|s| s.parent != 0) {
            let parent = spans.iter().find(|p| p.span == child.parent).unwrap();
            assert!(parent.begin <= child.begin && child.end <= parent.end);
        }
    }
}
