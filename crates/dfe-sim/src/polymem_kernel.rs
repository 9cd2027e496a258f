//! PolyMem as a pipelined dataflow kernel.
//!
//! Wraps [`polymem::PolyMem`] with the port/timing behaviour of the MaxJ
//! implementation: one parallel access per port per cycle, with read results
//! emerging a fixed number of cycles later (the paper's STREAM design
//! measures this latency at **14 cycles**, "estimated by Maxeler's tools").
//! Within a cycle all reads observe the state *before* that cycle's write
//! commits (read-old port semantics).

use crate::kernel::{DelayLine, Kernel};
use crate::stream::{stream_stats, IntoItem, StreamRef, StreamStats};
use polymem::telemetry::{Counter, TelemetryRegistry};
use polymem::tracing::{NameId, TraceJournal, TraceWriter};
use polymem::{
    AccessPattern, AccessReplay, ParallelAccess, PolyMem, PolyMemConfig, PolyMemError, Region,
};
use std::cell::Cell;
use std::rc::Rc;

/// The read latency of the paper's synthesized design, in cycles.
pub const PAPER_READ_LATENCY: u64 = 14;

/// Cycle/stall attribution counters: every [`PolyMemKernel::tick`] lands in
/// **exactly one** of these buckets, so their sum always equals the number
/// of ticks — the invariant `polymem-top` checks (±0) when it renders a
/// stall breakdown. Classification priority, highest first:
///
/// 1. `active` — the datapath made progress (a request was consumed or a
///    result delivered);
/// 2. `contention` — requests are queued but the datapath could not serve
///    them (a burst occupies port 0 or the write path, or a response FIFO
///    is backed up);
/// 3. `pipeline` — nothing queued, but reads or bursts are still in flight
///    inside the fixed-latency pipeline;
/// 4. `pcie` — the kernel is empty and an upstream host-link pacer (see
///    [`PolyMemKernel::set_pcie_flag`]) reports it is withholding data;
/// 5. `idle` — nothing to do at all.
#[derive(Debug)]
struct CycleAttribution {
    active: Counter,
    contention: Counter,
    pipeline: Counter,
    pcie: Counter,
    idle: Counter,
}

impl CycleAttribution {
    fn bucket(&self, b: Bucket) -> &Counter {
        match b {
            Bucket::Active => &self.active,
            Bucket::Contention => &self.contention,
            Bucket::Pipeline => &self.pipeline,
            Bucket::Pcie => &self.pcie,
            Bucket::Idle => &self.idle,
        }
    }
}

/// The attribution bucket a cycle lands in (see [`CycleAttribution`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    Active,
    Contention,
    Pipeline,
    Pcie,
    Idle,
}

/// Span-journal instrumentation for one kernel (see
/// [`PolyMemKernel::attach_tracing`]). The attribution track renders each
/// contiguous run of same-bucket cycles as one span, so the Perfetto
/// timeline is a gap-free strip whose per-state span sums equal
/// `dfe_kernel_cycles_total` exactly. Burst accepts go on separate
/// per-kind tracks because a read burst and a write burst can overlap in
/// time — one track per kind keeps every track's spans non-overlapping.
#[derive(Debug)]
struct KernelTracing {
    /// Attribution track, named after the kernel.
    writer: TraceWriter,
    /// `<kernel>/read-bursts`, `<kernel>/write-bursts`,
    /// `<kernel>/copy-bursts`.
    burst_writers: [TraceWriter; 3],
    burst_names: [NameId; 3],
    /// Interned state names, indexed like [`Bucket`] discriminants and
    /// matching the telemetry `state` label values.
    states: [NameId; 5],
    /// The open attribution run: `(bucket, start, end)` covers cycles
    /// `start..end`. Buffered so a 10 000-cycle idle fast-forward emits
    /// one span, not 10 000 — flushed retroactively (`begin_at`/`end_at`)
    /// when the bucket changes, the run goes non-contiguous, or
    /// [`PolyMemKernel::finish_tracing`] runs.
    open: Cell<Option<(Bucket, u64, u64)>>,
}

impl KernelTracing {
    fn state(&self, b: Bucket) -> NameId {
        self.states[match b {
            Bucket::Active => 0,
            Bucket::Contention => 1,
            Bucket::Pipeline => 2,
            Bucket::Pcie => 3,
            Bucket::Idle => 4,
        }]
    }

    /// Land cycles `cycle..cycle + n` in `bucket`, extending the open run
    /// when contiguous and same-bucket, else flushing it as one span.
    fn attribute(&self, bucket: Bucket, cycle: u64, n: u64) {
        match self.open.get() {
            Some((b, start, end)) if b == bucket && end == cycle => {
                self.open.set(Some((b, start, end + n)));
            }
            prev => {
                if let Some((b, start, end)) = prev {
                    self.flush_run(b, start, end);
                }
                self.open.set(Some((bucket, cycle, cycle + n)));
            }
        }
    }

    fn flush_run(&self, bucket: Bucket, start: u64, end: u64) {
        // One complete-span record, not a begin/end pair: flushes sit on
        // the ticked path, so the run buffer's whole point is paying the
        // journal as rarely and as cheaply as possible.
        self.writer.span_at(start, end, self.state(bucket));
    }

    fn finish(&self) {
        if let Some((b, start, end)) = self.open.take() {
            self.flush_run(b, start, end);
        }
    }
}

/// Lanes a [`LaneWord`] holds without touching the heap: the `p*q` of the
/// paper's 2x4 bank grid.
const INLINE_LANES: usize = 8;

/// The lane data of one parallel access: `p*q` elements in canonical lane
/// order, dereferencing to `[u64]`. Up to eight lanes live inline, like
/// the fixed `DATA_T block[N_LINEAR_REGISTERS]` a hardware read port
/// fills, so per-access stream traffic on the paper's geometry never
/// allocates; a wider access spills to the heap.
#[derive(Clone)]
pub struct LaneWord(Lanes);

#[derive(Clone)]
enum Lanes {
    /// `buf[..len]` holds the lanes; `len <= INLINE_LANES`.
    Inline {
        len: u8,
        buf: [u64; INLINE_LANES],
    },
    Heap(Vec<u64>),
}

impl LaneWord {
    /// A word of `len` zero lanes, to be filled in place (e.g. by
    /// [`PolyMem::read_into`]).
    pub fn zeroed(len: usize) -> Self {
        if len <= INLINE_LANES {
            Self(Lanes::Inline {
                len: len as u8,
                buf: [0; INLINE_LANES],
            })
        } else {
            Self(Lanes::Heap(vec![0; len]))
        }
    }
}

impl std::ops::Deref for LaneWord {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        match &self.0 {
            Lanes::Inline { len, buf } => &buf[..usize::from(*len)],
            Lanes::Heap(v) => v,
        }
    }
}

impl std::ops::DerefMut for LaneWord {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Lanes::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Lanes::Heap(v) => v,
        }
    }
}

impl PartialEq for LaneWord {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for LaneWord {}

impl std::fmt::Debug for LaneWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl From<&[u64]> for LaneWord {
    fn from(lanes: &[u64]) -> Self {
        let mut word = Self::zeroed(lanes.len());
        word.copy_from_slice(lanes);
        word
    }
}

/// A read request on a port.
pub type ReadRequest = ParallelAccess;
/// A read response: the `p*q` elements in canonical lane order.
pub type ReadResponse = LaneWord;
/// A write request: target access + lane data.
pub type WriteRequest = (ParallelAccess, LaneWord);
/// A region read request (served via the compiled region plan).
pub type RegionRequest = Region;
/// A region read response: the region's elements in canonical order.
pub type RegionResponse = Vec<u64>;
/// A region write burst: target region + its elements in canonical order.
pub type RegionWriteRequest = (Region, Vec<u64>);
/// A fused copy burst: (source region, destination region).
pub type RegionCopyRequest = (Region, Region);
/// Completion token of a copy burst: elements moved.
pub type RegionCopyResponse = u64;

/// Writers that build a request's lanes as a `Vec<u64>` push it as is.
impl IntoItem<WriteRequest> for (ParallelAccess, Vec<u64>) {
    fn into_item(self) -> WriteRequest {
        (self.0, LaneWord::from(&self.1[..]))
    }
}

/// What a lockstep consumer issues on a port from a window cycle on:
/// `first`, then the access `lanes` columns right of the one before, each
/// cycle of `cycles` (at least one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRun {
    /// The access of the run's first cycle.
    pub first: ParallelAccess,
    /// Cycles the run lasts.
    pub cycles: u64,
}

/// The words a [`PolyMemKernel::lockstep`] run delivers to the consumer:
/// per read port, one word of `lanes` lanes for each cycle of the run,
/// back to back.
pub struct RunWords<'a> {
    /// Per read port, `stride` lanes whose first `len` are its words.
    stage: &'a mut [u64],
    stride: usize,
    len: usize,
}

impl RunWords<'_> {
    /// Port 0's words, which the consumer overwrites with the run's write
    /// data, and the other ports' words in port order.
    pub fn split(&mut self) -> (&mut [u64], impl Iterator<Item = &[u64]>) {
        let len = self.len;
        let (first, rest) = self.stage.split_at_mut(self.stride);
        (
            &mut first[..len],
            rest.chunks_exact(self.stride).map(move |w| &w[..len]),
        )
    }
}

/// One read port's part of a [`PolyMemKernel::lockstep`] window, reused
/// across windows.
struct PortWindow {
    /// The plan of the port's last residue class.
    replay: AccessReplay,
    /// The read run being served.
    run: RowRun,
    /// The window's last read on this port failed, so its youngest word
    /// is missing.
    hole: bool,
}

/// The buffers of [`PolyMemKernel::lockstep`] windows; all are reused, so
/// a window allocates nothing once warm.
#[derive(Default)]
struct Window {
    /// Per read port, `stride` lanes: its `L + 1` live words, oldest first
    /// (the word waiting in the response stream, then the pipeline's in
    /// read order), then room for a run's reads behind them.
    stage: Vec<u64>,
    ports: Vec<PortWindow>,
    /// The write port's plan memo.
    write_replay: AccessReplay,
}

/// The longest run from the start of which no read of `read`'s run sees a
/// write of `write`'s run from an earlier cycle, judged on the accesses'
/// bounding boxes as both step `lanes` columns a cycle.
fn unhazarded(read: ParallelAccess, write: ParallelAccess, p: usize, q: usize) -> u64 {
    let (ri, rj) = read.pattern.extent(p, q);
    let (wi, wj) = write.pattern.extent(p, q);
    let (ri, rj, wi, wj) = (ri as i128, rj as i128, wi as i128, wj as i128);
    let (read_i, write_i) = (read.i as i128, write.i as i128);
    if read_i + ri <= write_i || write_i + wi <= read_i {
        return u64::MAX;
    }
    let left = |a: ParallelAccess, width: i128| match a.pattern {
        AccessPattern::SecondaryDiagonal => a.j as i128 - width + 1,
        _ => a.j as i128,
    };
    // The read `t` cycles after a write overlaps it when
    // `-rj < d + t * lanes < wj`; `d + t * lanes` grows with `t`, so the
    // first `t >= 1` past the lower bound is the only candidate.
    let (d, lanes) = (left(read, rj) - left(write, wj), (p * q) as i128);
    let t = ((-rj - d).div_euclid(lanes) + 1).max(1);
    if d + t * lanes < wj {
        u64::try_from(t).unwrap_or(u64::MAX)
    } else {
        u64::MAX
    }
}

/// PolyMem wrapped as a ticked kernel with request/response streams.
pub struct PolyMemKernel {
    name: String,
    mem: PolyMem<u64>,
    read_latency: u64,
    read_req: Vec<StreamRef<ReadRequest>>,
    read_resp: Vec<StreamRef<ReadResponse>>,
    pipelines: Vec<DelayLine<ReadResponse>>,
    write_req: StreamRef<WriteRequest>,
    /// Optional region port: whole-region requests stream out in canonical
    /// order through the compiled region plan. See [`attach_region_port`].
    ///
    /// [`attach_region_port`]: PolyMemKernel::attach_region_port
    region_req: Option<StreamRef<RegionRequest>>,
    region_resp: Option<StreamRef<RegionResponse>>,
    /// An in-flight region transfer: (delivery cycle, data). The region
    /// engine occupies port 0 for `ceil(len / lanes)` cycles — one parallel
    /// access per cycle, exactly what the burst costs in hardware — then the
    /// pipeline latency applies once to the whole burst.
    region_inflight: Option<(u64, Vec<u64>)>,
    region_reads_served: u64,
    /// Spent burst buffers: written bursts and [`Self::recycle`]d ones,
    /// which region reads fill instead of fresh vectors.
    spare: Vec<Vec<u64>>,
    /// Optional region-write port: whole-region write bursts commit on
    /// acceptance and occupy the write datapath for `ceil(len / lanes)`
    /// cycles. See [`attach_region_write_port`].
    ///
    /// [`attach_region_write_port`]: PolyMemKernel::attach_region_write_port
    region_write_req: Option<StreamRef<RegionWriteRequest>>,
    /// Optional fused-copy port: a (src, dst) burst occupies port 0's read
    /// datapath *and* the write datapath for `ceil(len / lanes)` cycles,
    /// then delivers a completion token after the read latency. See
    /// [`attach_region_copy_port`].
    ///
    /// [`attach_region_copy_port`]: PolyMemKernel::attach_region_copy_port
    region_copy_req: Option<StreamRef<RegionCopyRequest>>,
    region_copy_resp: Option<StreamRef<RegionCopyResponse>>,
    /// An in-flight copy burst: (completion-token delivery cycle, elements).
    copy_inflight: Option<(u64, u64)>,
    /// First cycle at which the write datapath is free again (burst writes
    /// and copies occupy it; per-access writes stall until then).
    write_busy_until: u64,
    /// First cycle at which port 0's read datapath is free of a copy burst.
    copy_busy_until: u64,
    region_writes_served: u64,
    region_copies_served: u64,
    /// Errors raised by invalid requests (surfaced, not panicking, so fault
    /// injection tests can observe them).
    errors: Vec<PolyMemError>,
    reads_served: u64,
    writes_served: u64,
    /// The buffers of lockstep windows.
    window: Window,
    /// Cycles served by lockstep windows so far.
    lockstep_cycles: u64,
    /// Of those, the cycles served by runs of more than one cycle.
    run_cycles: u64,
    /// Cycle attribution counters, when telemetry is attached.
    attribution: Option<CycleAttribution>,
    /// Span-journal instrumentation, when a journal is attached.
    trc: Option<KernelTracing>,
    /// Set by an upstream host-link kernel while it is pacing (withholding
    /// data for PCIe arrival timing); distinguishes `pcie` from `idle`.
    pcie_waiting: Option<Rc<Cell<bool>>>,
}

impl PolyMemKernel {
    /// Build the kernel.
    ///
    /// `read_req`/`read_resp` must have one stream per configured read
    /// port, and `read_latency` must be at least 1: a synchronous BRAM read
    /// is never same-cycle (the paper's takes 14 cycles). Either mistake
    /// returns [`PolyMemError::InvalidGeometry`].
    pub fn new(
        name: impl Into<String>,
        config: PolyMemConfig,
        read_latency: u64,
        read_req: Vec<StreamRef<ReadRequest>>,
        read_resp: Vec<StreamRef<ReadResponse>>,
        write_req: StreamRef<WriteRequest>,
    ) -> polymem::Result<Self> {
        let mem = PolyMem::new(config)?;
        if read_req.len() != config.read_ports || read_resp.len() != config.read_ports {
            return Err(PolyMemError::InvalidGeometry {
                reason: format!(
                    "{} read-request and {} read-response streams for {} read ports \
                     (one of each per port)",
                    read_req.len(),
                    read_resp.len(),
                    config.read_ports
                ),
            });
        }
        if read_latency == 0 {
            return Err(PolyMemError::InvalidGeometry {
                reason: "read latency 0: a synchronous read delivers at least one cycle \
                         after it issues (latency must be >= 1)"
                    .into(),
            });
        }
        let pipelines = (0..config.read_ports)
            .map(|_| DelayLine::new(read_latency))
            .collect();
        Ok(Self {
            name: name.into(),
            mem,
            read_latency,
            read_req,
            read_resp,
            pipelines,
            write_req,
            region_req: None,
            region_resp: None,
            region_inflight: None,
            region_reads_served: 0,
            spare: Vec::new(),
            region_write_req: None,
            region_copy_req: None,
            region_copy_resp: None,
            copy_inflight: None,
            write_busy_until: 0,
            copy_busy_until: 0,
            region_writes_served: 0,
            region_copies_served: 0,
            errors: Vec::new(),
            reads_served: 0,
            writes_served: 0,
            window: Window::default(),
            lockstep_cycles: 0,
            run_cycles: 0,
            attribution: None,
            trc: None,
            pcie_waiting: None,
        })
    }

    /// Register this kernel's cycle-attribution counters
    /// (`dfe_kernel_cycles_total{kernel=<name>, state=...}`: every tick
    /// lands in exactly one of `active`, `contention`, `pipeline`, `pcie`
    /// and `idle`, in that priority order) with `registry`, and wire the
    /// wrapped memory's datapath counters into the same registry.
    pub fn attach_telemetry(&mut self, registry: &TelemetryRegistry) {
        let state = |s: &str| vec![("kernel", self.name.clone()), ("state", s.to_string())];
        self.attribution = Some(CycleAttribution {
            active: registry.counter("dfe_kernel_cycles_total", state("active")),
            contention: registry.counter("dfe_kernel_cycles_total", state("contention")),
            pipeline: registry.counter("dfe_kernel_cycles_total", state("pipeline")),
            pcie: registry.counter("dfe_kernel_cycles_total", state("pcie")),
            idle: registry.counter("dfe_kernel_cycles_total", state("idle")),
        });
        self.mem.attach_telemetry(registry);
    }

    /// Record this kernel's activity into `journal`: every tick lands in a
    /// cycle-attribution span on the track named after the kernel (one span
    /// per contiguous run of same-state cycles — fast-forwarded idle spans
    /// collapse to a single span), burst accepts become spans of
    /// `ceil(len / lanes)` cycles on per-kind `<kernel>/...-bursts` tracks,
    /// and the wrapped memory's replay spans and cache hit/miss instants
    /// ride on `<kernel>/mem`. Call [`Self::finish_tracing`] after the last
    /// tick to flush the open attribution run; until then the span sums
    /// trail `dfe_kernel_cycles_total` by the open run's length.
    pub fn attach_tracing(&mut self, journal: &TraceJournal) {
        let burst_track = |kind: &str| journal.writer(&format!("{}/{kind}-bursts", self.name));
        self.trc = Some(KernelTracing {
            writer: journal.writer(&self.name),
            burst_writers: [
                burst_track("read"),
                burst_track("write"),
                burst_track("copy"),
            ],
            burst_names: [
                journal.intern("burst:read"),
                journal.intern("burst:write"),
                journal.intern("burst:copy"),
            ],
            states: [
                journal.intern("active"),
                journal.intern("contention"),
                journal.intern("pipeline"),
                journal.intern("pcie"),
                journal.intern("idle"),
            ],
            open: Cell::new(None),
        });
        self.mem
            .attach_tracing(journal, &format!("{}/mem", self.name));
    }

    /// Flush the open attribution run (idempotent). After this, the
    /// journal's per-state span sums for this kernel's track equal its
    /// `dfe_kernel_cycles_total` buckets exactly.
    pub fn finish_tracing(&self) {
        if let Some(tr) = &self.trc {
            tr.finish();
        }
    }

    /// Stop recording into the journal (flushes the open run first).
    pub fn detach_tracing(&mut self) {
        self.finish_tracing();
        self.trc = None;
        self.mem.detach_tracing();
    }

    /// Share a pacing flag with an upstream host-link kernel: while the flag
    /// is true and this kernel is otherwise empty, stall cycles are
    /// attributed to `pcie` instead of `idle`.
    pub fn set_pcie_flag(&mut self, flag: Rc<Cell<bool>>) {
        self.pcie_waiting = Some(flag);
    }

    fn has_queued_requests(&self) -> bool {
        self.read_req.iter().any(|s| !s.borrow().is_empty())
            || !self.write_req.borrow().is_empty()
            || self
                .region_req
                .as_ref()
                .is_some_and(|s| !s.borrow().is_empty())
            || self
                .region_write_req
                .as_ref()
                .is_some_and(|s| !s.borrow().is_empty())
            || self
                .region_copy_req
                .as_ref()
                .is_some_and(|s| !s.borrow().is_empty())
    }

    fn has_inflight(&self) -> bool {
        self.pipelines.iter().any(|p| !p.is_empty())
            || self.region_inflight.is_some()
            || self.copy_inflight.is_some()
    }

    /// Land cycles `cycle..cycle + n` in exactly one attribution bucket
    /// (see [`CycleAttribution`] for the priority order), in both the
    /// telemetry counters and the span journal. `n > 1` is the
    /// fast-forward path: during a skipped span no kernel acts, so the
    /// classification the ticked loop would compute is constant across the
    /// span and one bulk add is exact.
    fn attribute_cycles(&self, progress: bool, cycle: u64, n: u64) {
        if self.attribution.is_none() && self.trc.is_none() {
            return;
        }
        let bucket = if progress {
            Bucket::Active
        } else if self.has_queued_requests() {
            Bucket::Contention
        } else if self.has_inflight() {
            Bucket::Pipeline
        } else if self.pcie_waiting.as_ref().is_some_and(|f| f.get()) {
            Bucket::Pcie
        } else {
            Bucket::Idle
        };
        if let Some(att) = &self.attribution {
            att.bucket(bucket).add(n);
        }
        if let Some(tr) = &self.trc {
            tr.attribute(bucket, cycle, n);
        }
    }

    /// Land this tick in exactly one attribution bucket.
    fn attribute_cycle(&self, progress: bool, cycle: u64) {
        self.attribute_cycles(progress, cycle, 1);
    }

    /// The configured read latency in cycles.
    pub fn read_latency(&self) -> u64 {
        self.read_latency
    }

    /// Direct access to the wrapped memory (host fill/drain between stages).
    pub fn mem(&mut self) -> &mut PolyMem<u64> {
        &mut self.mem
    }

    /// Plan-cache activity of the wrapped memory.
    pub fn plan_stats(&self) -> polymem::PlanCacheStats {
        self.mem.plan_stats()
    }

    /// Region-plan-cache activity of the wrapped memory.
    pub fn region_plan_stats(&self) -> polymem::PlanCacheStats {
        self.mem.region_plan_stats()
    }

    /// Attach a region port: whole-region read requests pop from
    /// `region_req` and the region's elements (canonical order) emerge on
    /// `region_resp` after `ceil(len / lanes)` access cycles plus the read
    /// latency. The region engine shares port 0's datapath, so a region
    /// transfer and per-access reads on port 0 serialize against each other.
    ///
    /// Host-side, the transfer replays the compiled plan's motif-run
    /// table — each run moves whole `lanes`-wide groups through one lane
    /// pattern at a constant step — so wall-clock per modeled cycle tracks
    /// that replay, not a per-element loop. The *cycle* model is
    /// unchanged: the replay kernel is a host-bandwidth optimisation, the
    /// DFE burst still costs one parallel access per `lanes` elements.
    pub fn attach_region_port(
        &mut self,
        region_req: StreamRef<RegionRequest>,
        region_resp: StreamRef<RegionResponse>,
    ) {
        self.region_req = Some(region_req);
        self.region_resp = Some(region_resp);
    }

    /// Attach a region-write port: whole-region write bursts pop from
    /// `req` and commit on acceptance, occupying the write datapath for
    /// `ceil(len / lanes)` cycles (one parallel write access per cycle).
    /// Per-access writes stall while a burst is draining.
    pub fn attach_region_write_port(&mut self, req: StreamRef<RegionWriteRequest>) {
        self.region_write_req = Some(req);
    }

    /// Attach a fused-copy port: `(src, dst)` bursts pop from `req`, the
    /// copy executes through the compiled region plans on acceptance, and a
    /// completion token (elements moved) emerges on `resp` after
    /// `ceil(len / lanes)` access cycles plus the read latency. The copy
    /// occupies port 0's read datapath and the write datapath for the
    /// burst's access cycles, so per-access traffic on either serializes
    /// against it.
    pub fn attach_region_copy_port(
        &mut self,
        req: StreamRef<RegionCopyRequest>,
        resp: StreamRef<RegionCopyResponse>,
    ) {
        self.region_copy_req = Some(req);
        self.region_copy_resp = Some(resp);
    }

    fn trace_burst(&self, cycle: u64, kind: &str, access_cycles: u64) {
        if let Some(tr) = &self.trc {
            // The burst occupies its datapath for `access_cycles` starting
            // now; the span covers exactly that window.
            let k = match kind {
                "read" => 0,
                "write" => 1,
                _ => 2,
            };
            tr.burst_writers[k].span_at(cycle, cycle + access_cycles, tr.burst_names[k]);
        }
    }

    /// Hand back a spent region-read buffer (a burst delivered on the
    /// region port that the consumer is done with), for a later region
    /// read to fill instead of a fresh vector.
    pub fn recycle(&mut self, buffer: Vec<u64>) {
        self.spare.push(buffer);
    }

    /// Region reads served so far.
    pub fn region_reads_served(&self) -> u64 {
        self.region_reads_served
    }

    /// Region write bursts served so far.
    pub fn region_writes_served(&self) -> u64 {
        self.region_writes_served
    }

    /// Fused copy bursts served so far.
    pub fn region_copies_served(&self) -> u64 {
        self.region_copies_served
    }

    /// Errors accumulated from invalid requests.
    pub fn errors(&self) -> &[PolyMemError] {
        &self.errors
    }

    /// Parallel reads served so far.
    pub fn reads_served(&self) -> u64 {
        self.reads_served
    }

    /// Parallel writes served so far.
    pub fn writes_served(&self) -> u64 {
        self.writes_served
    }

    /// Of the simulated cycles, those served by [`Self::lockstep`] windows
    /// (a statistic: the cycles themselves are the ticked loop's).
    pub fn lockstep_cycles(&self) -> u64 {
        self.lockstep_cycles
    }

    /// Of the [`Self::lockstep_cycles`], those served by runs of more than
    /// one cycle (a statistic, like it).
    pub fn run_cycles(&self) -> u64 {
        self.run_cycles
    }

    /// Counters of the per-access streams: each read port's request and
    /// response streams in port order, then the write-request stream.
    pub fn port_stream_stats(&self) -> Vec<StreamStats> {
        self.read_req
            .iter()
            .zip(&self.read_resp)
            .flat_map(|(req, resp)| [stream_stats(req), stream_stats(resp)])
            .chain([stream_stats(&self.write_req)])
            .collect()
    }

    /// Whether the per-access datapath at the start of `cycle` is in the
    /// steady state of a dense pass on read ports `0..ports`: each of them
    /// holds a full pipeline of `L` words ready at `cycle .. cycle + L` and
    /// one delivered word in its response stream; every other port, every
    /// request stream and every burst engine is empty and no burst holds a
    /// datapath (`L > 0` holds by construction). From this state every
    /// branch of [`Kernel::tick`] goes the same way each cycle for as long
    /// as a consumer keeps pace, which is what [`Self::lockstep`] serves.
    pub fn lockstep_ready(&self, ports: usize, cycle: u64) -> bool {
        let l = self.read_latency;
        ports > 0
            && ports <= self.read_req.len()
            && self.region_inflight.is_none()
            && self.copy_inflight.is_none()
            && cycle >= self.write_busy_until
            && cycle >= self.copy_busy_until
            && !self.has_queued_requests()
            && self
                .pipelines
                .iter()
                .zip(&self.read_resp)
                .enumerate()
                .all(|(port, (pipe, resp))| {
                    if port < ports {
                        pipe.in_flight() as u64 == l
                            && pipe.ready_cycles().eq(cycle..cycle + l)
                            && resp.borrow().len() == 1
                    } else {
                        pipe.is_empty() && resp.borrow().is_empty()
                    }
                })
    }

    /// Serve up to `n` cycles from `cycle` in lockstep with the consumer of
    /// a dense pass on read ports `0..ports`, which every cycle (ticking
    /// before this kernel) takes each port's delivered word, issues one read
    /// per port and sends one write computed from the words it took.
    /// Returns the cycles served, 0 unless [`Self::lockstep_ready`] holds;
    /// the caller's clock advances by as many.
    ///
    /// The window is served in runs. From window cycle `k`, `read(port, k)`
    /// and `write(k)` give the [`RowRun`] each read port and the write port
    /// issue. A run lasts while all of them step `lanes` columns a cycle,
    /// so each stays in one residue class, and it ends before an access
    /// that leaves the memory or breaks Table I ([`PolyMem::run_span`]),
    /// before a read of an element that an earlier cycle of the run
    /// writes, and at the window's end. Each port gathers its run's reads
    /// with one [`PolyMem::read_run`] behind its `L + 1` live words;
    /// `combine` gets the words the run delivers (the oldest of them) and
    /// leaves the write data in port 0's; one [`PolyMem::write_run`]
    /// stores it. Any other cycle is a one-cycle run through the same
    /// calls, which take the full path. So the memory operations are those
    /// of the ticks, in an order no access can tell apart.
    ///
    /// The live words skip the response stream and delay line, which are
    /// rebuilt at the end with their ready cycles; the streams' totals,
    /// `reads_served`, `writes_served` and the `active` attribution of
    /// every cycle are accounted in bulk, and the memos start empty each
    /// window and settle the memory's counters at its end. A failed access
    /// ends the window after its cycle and leaves what the ticks would
    /// leave, a failed read's hole in the pipeline included.
    pub fn lockstep(
        &mut self,
        cycle: u64,
        n: u64,
        ports: usize,
        mut read: impl FnMut(usize, u64) -> RowRun,
        mut write: impl FnMut(u64) -> RowRun,
        mut combine: impl FnMut(RunWords<'_>),
    ) -> u64 {
        if n == 0 || !self.lockstep_ready(ports, cycle) {
            return 0;
        }
        let cfg = *self.mem.config();
        let lanes = cfg.lanes();
        let live = self.read_latency as usize + 1;
        // A run stays in the memory's columns.
        let longest = cfg.cols / lanes + 1;
        let stride = (live + longest) * lanes;
        let w = &mut self.window;
        w.stage.resize(ports * stride, 0);
        let idle = RowRun {
            first: ParallelAccess::row(0, 0),
            cycles: 0,
        };
        w.ports.resize_with(ports, || PortWindow {
            replay: AccessReplay::new(),
            run: idle,
            hole: false,
        });
        for (port, stage) in w.stage.chunks_exact_mut(stride).enumerate() {
            // The consumer's pop at `cycle` is a real one; the words of the
            // later cycles bypass the stream.
            let oldest = self.read_resp[port].borrow_mut().pop();
            let words = oldest.into_iter().chain(self.pipelines[port].drain());
            for (slot, word) in stage.chunks_exact_mut(lanes).zip(words) {
                slot.copy_from_slice(&word);
            }
        }
        let mut served = 0;
        let mut failed = false;
        while served < n && !failed {
            let dest = write(served);
            let mut m = (n - served).min(longest as u64).min(dest.cycles);
            m = m.min(self.mem.run_span(dest.first, m as usize) as u64);
            for (port, pw) in w.ports.iter_mut().enumerate() {
                pw.run = read(port, served);
                let span = self.mem.run_span(pw.run.first, m as usize) as u64;
                let safe = unhazarded(pw.run.first, dest.first, cfg.p, cfg.q);
                m = m.min(pw.run.cycles).min(span).min(safe);
            }
            let m = m.max(1) as usize;
            let len = m * lanes;
            for (port, (stage, pw)) in w
                .stage
                .chunks_exact_mut(stride)
                .zip(&mut w.ports)
                .enumerate()
            {
                let fresh = &mut stage[live * lanes..][..len];
                match self
                    .mem
                    .read_run(port, &mut pw.replay, pw.run.first, m, fresh)
                {
                    Ok(()) => self.reads_served += m as u64,
                    Err(e) => {
                        self.errors.push(e);
                        pw.hole = true;
                        failed = true;
                    }
                }
            }
            combine(RunWords {
                stage: &mut w.stage,
                stride,
                len,
            });
            match self
                .mem
                .write_run(&mut w.write_replay, dest.first, m, &w.stage[..len])
            {
                Ok(()) => self.writes_served += m as u64,
                Err(e) => {
                    self.errors.push(e);
                    failed = true;
                }
            }
            // The run's oldest words are consumed; the live ones move up.
            for stage in w.stage.chunks_exact_mut(stride) {
                stage.copy_within(len..len + live * lanes, 0);
            }
            served += m as u64;
            if m > 1 {
                self.run_cycles += m as u64;
            }
        }
        // Spill the live words back: the oldest waits in the response
        // stream, the rest re-enter the pipeline at the cycles they were
        // read (the last `L`), so their ready cycles are the ticks' own.
        let first_read = cycle + served - self.read_latency;
        self.mem.settle(&mut w.write_replay);
        for (port, (stage, pw)) in w.stage.chunks_exact(stride).zip(&mut w.ports).enumerate() {
            self.mem.settle(&mut pw.replay);
            let kept = live - usize::from(std::mem::take(&mut pw.hole));
            let mut words = stage[..kept * lanes]
                .chunks_exact(lanes)
                .map(LaneWord::from);
            let mut resp = self.read_resp[port].borrow_mut();
            if let Some(oldest) = words.next() {
                resp.push(oldest);
            }
            resp.bypass(served - 1);
            for (at, word) in (first_read..).zip(words) {
                self.pipelines[port].push(at, word);
            }
            self.read_req[port].borrow_mut().bypass(served);
        }
        self.write_req.borrow_mut().bypass(served);
        self.attribute_cycles(true, cycle, served);
        self.lockstep_cycles += served;
        served
    }

    /// Whether all read pipelines are drained and no requests are queued.
    pub fn pipelines_empty(&self) -> bool {
        self.pipelines.iter().all(DelayLine::is_empty)
            && self.read_req.iter().all(|s| s.borrow().is_empty())
            && self.write_req.borrow().is_empty()
            && self.region_inflight.is_none()
            && self.copy_inflight.is_none()
            && self
                .region_req
                .as_ref()
                .is_none_or(|s| s.borrow().is_empty())
            && self
                .region_write_req
                .as_ref()
                .is_none_or(|s| s.borrow().is_empty())
            && self
                .region_copy_req
                .as_ref()
                .is_none_or(|s| s.borrow().is_empty())
    }
}

impl Kernel for PolyMemKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: u64) {
        // Whether the datapath makes progress this tick (for attribution:
        // any consumed request or delivered result counts).
        let mut progress = false;
        // 1. Deliver read results whose latency has elapsed (head-of-line;
        //    stalls if the response FIFO is full, as the stream interconnect
        //    would).
        for (pipe, resp) in self.pipelines.iter_mut().zip(&self.read_resp) {
            if resp.borrow().can_push() {
                if let Some(data) = pipe.pop_ready(cycle) {
                    resp.borrow_mut().push(data);
                    progress = true;
                }
            }
        }
        // 2. Region engine: deliver a finished burst, then accept the next
        //    region request. A region of `len` elements costs
        //    `ceil(len / lanes)` access cycles (one parallel access per
        //    cycle) before the pipeline latency — the whole burst is one
        //    compiled gather, so the model charges cycles without paying any
        //    per-access routing work.
        if let Some((ready, _)) = self.region_inflight {
            let can_push = self
                .region_resp
                .as_ref()
                .is_some_and(|s| s.borrow().can_push());
            if cycle >= ready && can_push {
                if let (Some((_, data)), Some(resp)) =
                    (self.region_inflight.take(), &self.region_resp)
                {
                    resp.borrow_mut().push(data);
                    progress = true;
                }
            }
        }
        if self.region_inflight.is_none() && cycle >= self.copy_busy_until {
            if let Some(req) = &self.region_req {
                if let Some(region) = req.borrow_mut().pop() {
                    progress = true;
                    let mut data = self.spare.pop().unwrap_or_default();
                    data.resize(region.len(), 0);
                    match self.mem.read_region_into(0, &region, &mut data) {
                        Ok(()) => {
                            let lanes = self.mem.config().lanes();
                            let access_cycles = region.len().div_ceil(lanes).max(1) as u64;
                            self.region_inflight =
                                Some((cycle + access_cycles + self.read_latency, data));
                            self.region_reads_served += 1;
                            self.reads_served += region.len().div_ceil(lanes) as u64;
                            self.trace_burst(cycle, "read", access_cycles);
                        }
                        Err(e) => {
                            self.errors.push(e);
                            self.spare.push(data);
                        }
                    }
                }
            }
        }
        // Port 0's read datapath is busy while a region read streams,
        // counting one accepted this cycle.
        let mut region_busy = matches!(&self.region_inflight,
            Some((ready, _)) if cycle < ready.saturating_sub(self.read_latency));
        // 2b. Copy engine: deliver a finished burst's completion token, then
        //     accept the next fused copy. A copy of `len` elements occupies
        //     port 0's read datapath AND the write datapath for
        //     `ceil(len / lanes)` cycles (one parallel access streamed from
        //     the read side into the write side per cycle); the completion
        //     token emerges after the read latency on top.
        if let Some((ready, moved)) = self.copy_inflight {
            let can_push = self
                .region_copy_resp
                .as_ref()
                .is_some_and(|s| s.borrow().can_push());
            if cycle >= ready && can_push {
                if let Some(resp) = &self.region_copy_resp {
                    self.copy_inflight = None;
                    resp.borrow_mut().push(moved);
                    progress = true;
                }
            }
        }
        if self.copy_inflight.is_none()
            && !region_busy
            && cycle >= self.copy_busy_until
            && cycle >= self.write_busy_until
        {
            if let Some(req) = &self.region_copy_req {
                if let Some((src, dst)) = req.borrow_mut().pop() {
                    progress = true;
                    match self.mem.copy_region(0, &src, &dst) {
                        Ok(()) => {
                            let lanes = self.mem.config().lanes();
                            let access_cycles = src.len().div_ceil(lanes).max(1) as u64;
                            self.copy_busy_until = cycle + access_cycles;
                            self.write_busy_until = cycle + access_cycles;
                            self.copy_inflight =
                                Some((cycle + access_cycles + self.read_latency, src.len() as u64));
                            self.region_copies_served += 1;
                            self.reads_served += access_cycles;
                            self.writes_served += access_cycles;
                            self.trace_burst(cycle, "copy", access_cycles);
                        }
                        Err(e) => self.errors.push(e),
                    }
                }
            }
        }
        region_busy = region_busy || cycle < self.copy_busy_until;
        // 2c. Region-write engine: accept a whole-region write burst once
        //     the write datapath is free; it commits on acceptance and
        //     occupies the datapath for `ceil(len / lanes)` cycles.
        if cycle >= self.write_busy_until {
            if let Some(req) = &self.region_write_req {
                if let Some((region, values)) = req.borrow_mut().pop() {
                    progress = true;
                    match self.mem.write_region(&region, &values) {
                        Ok(()) => {
                            let lanes = self.mem.config().lanes();
                            let access_cycles = region.len().div_ceil(lanes).max(1) as u64;
                            self.write_busy_until = cycle + access_cycles;
                            self.region_writes_served += 1;
                            self.writes_served += access_cycles;
                            self.trace_burst(cycle, "write", access_cycles);
                        }
                        Err(e) => self.errors.push(e),
                    }
                    self.spare.push(values);
                }
            }
        }
        // 3. Issue one read per port (reads see pre-write state: they are
        //    served before this cycle's write commits). Only issue when the
        //    response path has room for what is already in flight. Port 0
        //    shares its datapath with the region engine and stalls while a
        //    region burst (read or copy) is streaming.
        for port in 0..self.read_req.len() {
            if port == 0 && region_busy {
                continue;
            }
            let room = {
                let resp = self.read_resp[port].borrow();
                resp.can_push()
            };
            if !room && self.pipelines[port].in_flight() as u64 >= self.read_latency {
                continue; // fully backed up
            }
            let req = self.read_req[port].borrow_mut().pop();
            if let Some(access) = req {
                progress = true;
                let mut data = LaneWord::zeroed(self.mem.lanes());
                match self.mem.read_into(port, access, &mut data) {
                    Ok(()) => {
                        self.pipelines[port].push(cycle, data);
                        self.reads_served += 1;
                    }
                    Err(e) => self.errors.push(e),
                }
            }
        }
        // 4. Commit one write — unless the write datapath is still draining
        //    a region-write or copy burst.
        if cycle >= self.write_busy_until {
            let w = self.write_req.borrow_mut().pop();
            if let Some((access, data)) = w {
                progress = true;
                match self.mem.write(access, &data) {
                    Ok(()) => self.writes_served += 1,
                    Err(e) => self.errors.push(e),
                }
            }
        }
        self.attribute_cycle(progress, cycle);
    }

    fn is_idle(&self) -> bool {
        self.pipelines_empty()
    }

    fn next_event(&self) -> Option<u64> {
        fn merge(wake: &mut Option<u64>, c: u64) {
            *wake = Some(wake.map_or(c, |w| w.min(c)));
        }
        let mut wake: Option<u64> = None;
        // Pending deliveries are self-scheduled only while their response
        // FIFO has room; a full FIFO means the wake comes from a consumer's
        // pop (external), and the consumer's own next_event covers it.
        for (pipe, resp) in self.pipelines.iter().zip(&self.read_resp) {
            if let Some(ready) = pipe.next_ready() {
                if resp.borrow().can_push() {
                    merge(&mut wake, ready);
                }
            }
        }
        if let Some((ready, _)) = &self.region_inflight {
            if self
                .region_resp
                .as_ref()
                .is_some_and(|s| s.borrow().can_push())
            {
                merge(&mut wake, *ready);
            }
        }
        if let Some((ready, _)) = &self.copy_inflight {
            if self
                .region_copy_resp
                .as_ref()
                .is_some_and(|s| s.borrow().can_push())
            {
                merge(&mut wake, *ready);
            }
        }
        // Queued requests wake when the engine that serves them frees up.
        // These wakes may be early (another gate can still hold the request
        // back), which safely degenerates to per-cycle ticking — only a
        // *late* wake would break cycle parity.
        let region_busy_end = self
            .region_inflight
            .as_ref()
            .map_or(0, |(ready, _)| ready.saturating_sub(self.read_latency))
            .max(self.copy_busy_until);
        for (port, req) in self.read_req.iter().enumerate() {
            if req.borrow().is_empty() {
                continue;
            }
            let room = self.read_resp[port].borrow().can_push();
            if !room && self.pipelines[port].in_flight() as u64 >= self.read_latency {
                continue; // fully backed up: only a consumer pop unblocks
            }
            merge(&mut wake, if port == 0 { region_busy_end } else { 0 });
        }
        if !self.write_req.borrow().is_empty() {
            merge(&mut wake, self.write_busy_until);
        }
        if self
            .region_req
            .as_ref()
            .is_some_and(|s| !s.borrow().is_empty())
            && self.region_inflight.is_none()
        {
            merge(&mut wake, self.copy_busy_until);
        }
        if self
            .region_write_req
            .as_ref()
            .is_some_and(|s| !s.borrow().is_empty())
        {
            merge(&mut wake, self.write_busy_until);
        }
        if self
            .region_copy_req
            .as_ref()
            .is_some_and(|s| !s.borrow().is_empty())
            && self.copy_inflight.is_none()
        {
            merge(&mut wake, region_busy_end.max(self.write_busy_until));
        }
        wake
    }

    fn skip_to(&mut self, from: u64, to: u64) {
        // The scheduler only fast-forwards when no kernel can act, so the
        // ticked loop would have recorded `to - from` identical no-progress
        // cycles here; account them in one bulk add.
        self.attribute_cycles(false, from, to - from);
    }

    fn busy_reason(&self) -> Option<String> {
        if self.is_idle() {
            return None;
        }
        let mut parts = Vec::new();
        let inflight: usize = self.pipelines.iter().map(DelayLine::in_flight).sum();
        if inflight > 0 {
            parts.push(format!("{inflight} read(s) in flight"));
        }
        let queued: usize = self.read_req.iter().map(|s| s.borrow().len()).sum();
        if queued > 0 {
            parts.push(format!("{queued} read request(s) queued"));
        }
        let writes = self.write_req.borrow().len();
        if writes > 0 {
            parts.push(format!("{writes} write(s) queued"));
        }
        if self.region_inflight.is_some() {
            parts.push("region burst streaming".into());
        }
        if self.copy_inflight.is_some() {
            parts.push("copy burst streaming".into());
        }
        let queued_bursts = self.region_req.as_ref().map_or(0, |s| s.borrow().len())
            + self
                .region_write_req
                .as_ref()
                .map_or(0, |s| s.borrow().len())
            + self
                .region_copy_req
                .as_ref()
                .map_or(0, |s| s.borrow().len());
        if queued_bursts > 0 {
            parts.push(format!("{queued_bursts} burst request(s) queued"));
        }
        Some(parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Manager;
    use crate::stream::{stream, Fifo};
    use polymem::AccessScheme;
    use std::rc::Rc;

    #[allow(clippy::type_complexity)]
    fn setup(
        ports: usize,
        latency: u64,
    ) -> (
        Manager,
        Vec<StreamRef<ReadRequest>>,
        Vec<StreamRef<ReadResponse>>,
        StreamRef<WriteRequest>,
    ) {
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, ports).unwrap();
        let rq: Vec<_> = (0..ports).map(|p| stream(format!("rq{p}"), 64)).collect();
        let rs: Vec<_> = (0..ports).map(|p| stream(format!("rs{p}"), 64)).collect();
        let wq = stream("wq", 64);
        let k = PolyMemKernel::new(
            "polymem",
            cfg,
            latency,
            rq.clone(),
            rs.clone(),
            Rc::clone(&wq),
        )
        .unwrap();
        let mut m = Manager::new(120.0);
        m.add_kernel(Box::new(k));
        (m, rq, rs, wq)
    }

    #[test]
    fn lane_words_hold_any_width() {
        // Inline up to eight lanes, spilled to the heap beyond: the same
        // lanes whether copied in or filled in place.
        for n in [0u64, 3, 8, 9, 16] {
            let want: Vec<u64> = (1..=n).collect();
            let copied = LaneWord::from(&want[..]);
            let mut filled = LaneWord::zeroed(want.len());
            filled.copy_from_slice(&want);
            assert_eq!(&copied[..], &want[..], "{n} lanes");
            assert_eq!(copied, filled);
        }
        assert_ne!(LaneWord::from(&[1, 2][..]), LaneWord::from(&[1, 2, 0][..]));
    }

    #[test]
    fn read_latency_is_exact() {
        let (mut m, rq, rs, wq) = setup(1, 14);
        let data: Vec<u64> = (0..8).collect();
        wq.borrow_mut()
            .push((ParallelAccess::row(0, 0), data.clone()));
        m.run_cycles(1); // write commits at cycle 0
        rq[0].borrow_mut().push(ParallelAccess::row(0, 0));
        // Request pops at cycle 1; result ready at cycle 1 + 14 = 15,
        // delivered by the tick of cycle 15.
        m.run_cycles(14); // through cycle 14: not yet delivered
        assert!(rs[0].borrow().is_empty());
        m.run_cycles(1); // cycle 15 delivers
        assert_eq!(rs[0].borrow_mut().pop().as_deref(), Some(&data[..]));
    }

    #[test]
    fn fully_pipelined_one_access_per_cycle() {
        let (mut m, rq, rs, wq) = setup(1, 14);
        for r in 0..8u64 {
            let row: Vec<u64> = (0..8).map(|k| r * 10 + k).collect();
            wq.borrow_mut()
                .push((ParallelAccess::row(r as usize, 0), row));
        }
        m.run_cycles(8);
        for r in 0..8 {
            rq[0].borrow_mut().push(ParallelAccess::row(r, 0));
        }
        // 8 requests + 14 latency + slack.
        m.run_cycles(8 + 14 + 2);
        let mut got = Vec::new();
        while let Some(v) = rs[0].borrow_mut().pop() {
            got.push(v[0]);
        }
        assert_eq!(got, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn same_cycle_read_write_sees_old() {
        let (mut m, rq, rs, wq) = setup(1, 1);
        let old: Vec<u64> = vec![1; 8];
        let new: Vec<u64> = vec![2; 8];
        wq.borrow_mut()
            .push((ParallelAccess::row(0, 0), old.clone()));
        m.run_cycles(1);
        // Read and write of the same row land in the same cycle.
        rq[0].borrow_mut().push(ParallelAccess::row(0, 0));
        wq.borrow_mut()
            .push((ParallelAccess::row(0, 0), new.clone()));
        m.run_cycles(2);
        assert_eq!(
            rs[0].borrow_mut().pop().as_deref(),
            Some(&old[..]),
            "read-old semantics"
        );
        // Next read sees the new value.
        rq[0].borrow_mut().push(ParallelAccess::row(0, 0));
        m.run_cycles(2);
        assert_eq!(rs[0].borrow_mut().pop().as_deref(), Some(&new[..]));
    }

    #[test]
    fn invalid_request_surfaces_error() {
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::ReO, 1).unwrap();
        let rq = vec![stream("rq", 8)];
        let rs = vec![stream("rs", 8)];
        let wq = stream("wq", 8);
        let mut k = PolyMemKernel::new("pm", cfg, 1, rq.clone(), rs, Rc::clone(&wq)).unwrap();
        rq[0].borrow_mut().push(ParallelAccess::row(0, 0)); // ReO: rows unsupported
        k.tick(0);
        assert_eq!(k.errors().len(), 1);
        assert_eq!(k.reads_served(), 0);
    }

    #[test]
    fn new_rejects_wrong_read_stream_counts() {
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 2).unwrap();
        let streams =
            |n: usize| -> Vec<StreamRef<ReadRequest>> { (0..n).map(|_| stream("rq", 8)).collect() };
        let resps = |n: usize| -> Vec<StreamRef<ReadResponse>> {
            (0..n).map(|_| stream("rs", 8)).collect()
        };
        for (reqs, resp) in [(1, 2), (3, 2), (2, 1), (2, 3)] {
            let err = PolyMemKernel::new("pm", cfg, 1, streams(reqs), resps(resp), stream("wq", 8))
                .err()
                .unwrap_or_else(|| panic!("{reqs} req / {resp} resp streams accepted"));
            assert!(
                matches!(err, PolyMemError::InvalidGeometry { .. }),
                "{err:?}"
            );
            let msg = err.to_string();
            assert!(msg.contains(&format!("{reqs} read-request")), "{msg}");
            assert!(msg.contains(&format!("{resp} read-response")), "{msg}");
        }
        assert!(PolyMemKernel::new("pm", cfg, 1, streams(2), resps(2), stream("wq", 8)).is_ok());
    }

    #[test]
    fn new_rejects_zero_read_latency() {
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 1).unwrap();
        let err = PolyMemKernel::new(
            "pm",
            cfg,
            0,
            vec![stream("rq", 8)],
            vec![stream("rs", 8)],
            stream("wq", 8),
        )
        .err()
        .expect("latency 0 accepted");
        assert!(
            matches!(err, PolyMemError::InvalidGeometry { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("read latency 0"), "{err}");
    }

    #[test]
    fn two_ports_independent() {
        let (mut m, rq, rs, wq) = setup(2, 3);
        wq.borrow_mut()
            .push((ParallelAccess::row(0, 0), (0..8).collect::<Vec<u64>>()));
        wq.borrow_mut()
            .push((ParallelAccess::row(1, 0), (10..18).collect::<Vec<u64>>()));
        m.run_cycles(2);
        rq[0].borrow_mut().push(ParallelAccess::row(0, 0));
        rq[1].borrow_mut().push(ParallelAccess::row(1, 0));
        m.run_cycles(6);
        assert_eq!(rs[0].borrow_mut().pop().unwrap()[0], 0);
        assert_eq!(rs[1].borrow_mut().pop().unwrap()[0], 10);
    }

    #[test]
    fn kernel_reads_ride_the_plan_cache() {
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 1).unwrap();
        let rq = vec![stream("rq", 64)];
        let rs = vec![stream("rs", 64)];
        let wq = stream("wq", 64);
        let mut k =
            PolyMemKernel::new("pm", cfg, 1, rq.clone(), rs.clone(), Rc::clone(&wq)).unwrap();
        for r in 0..8u64 {
            let row: Vec<u64> = (0..8).map(|x| r * 10 + x).collect();
            wq.borrow_mut()
                .push((ParallelAccess::row(r as usize, 0), row));
            k.tick(r);
        }
        // Same residue class every row access with i < 8 < p*q... rows 0..8
        // differ mod 8 in i, so 8 distinct classes; re-reading them hits.
        for pass in 0..2u64 {
            for r in 0..8u64 {
                rq[0].borrow_mut().push(ParallelAccess::row(r as usize, 0));
                k.tick(100 + pass * 8 + r);
            }
        }
        let stats = k.plan_stats();
        assert!(
            stats.hits >= 8,
            "second pass replays cached plans: {stats:?}"
        );
        // Parity: drain planned results, then replay interpreted.
        let mut planned = Vec::new();
        k.tick(900); // flush delivery
        while let Some(v) = rs[0].borrow_mut().pop() {
            planned.push(v);
        }
        k.mem().set_planning(false);
        rq[0].borrow_mut().push(ParallelAccess::row(3, 0));
        k.tick(901);
        k.tick(902);
        let interp = rs[0].borrow_mut().pop().unwrap();
        assert_eq!(interp, planned[3], "interpreted path agrees with planned");
    }

    #[test]
    fn region_port_streams_whole_region() {
        use polymem::RegionShape;
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 1).unwrap();
        let rq = vec![stream("rq", 8)];
        let rs = vec![stream("rs", 8)];
        let wq = stream("wq", 8);
        let gq = stream("gq", 8);
        let gs = stream("gs", 8);
        let mut k = PolyMemKernel::new("pm", cfg, 2, rq, rs, wq).unwrap();
        k.attach_region_port(Rc::clone(&gq), Rc::clone(&gs));
        for r in 0..16usize {
            for c in 0..16usize {
                k.mem().set(r, c, (r * 16 + c) as u64).unwrap();
            }
        }
        // A 4x8 block = 32 elements = 4 accesses of 8 lanes. Issued at
        // cycle 0 -> ready at 0 + 4 + 2 = 6, delivered by the tick of 6.
        let region = Region::new("b", 2, 0, RegionShape::Block { rows: 4, cols: 8 });
        gq.borrow_mut().push(region.clone());
        for cycle in 0..6 {
            k.tick(cycle);
            assert!(gs.borrow().is_empty(), "not before latency elapses");
        }
        k.tick(6);
        let got = gs.borrow_mut().pop().expect("delivered at cycle 6");
        let want: Vec<u64> = region
            .coords_iter()
            .unwrap()
            .map(|(i, j)| (i * 16 + j) as u64)
            .collect();
        assert_eq!(got, want);
        assert_eq!(k.region_reads_served(), 1);
        assert_eq!(k.reads_served(), 4, "burst charged as 4 parallel accesses");
        // The transfer compiled exactly one region plan; replaying it hits.
        gq.borrow_mut().push(region);
        for cycle in 7..20 {
            k.tick(cycle);
        }
        let rp = k.region_plan_stats();
        assert_eq!(rp.misses, 1, "{rp:?}");
        assert!(rp.hits >= 1, "{rp:?}");
    }

    #[test]
    fn region_port_parity_under_interleaved_layout() {
        use polymem::{BankLayout, RegionShape};
        // Same burst as `region_port_streams_whole_region`, but the backing
        // store is bank-interleaved: the run-coalesced replay must deliver
        // the identical canonical stream and the identical cycle timing.
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 1)
            .unwrap()
            .with_layout(BankLayout::AddrInterleaved);
        let rq = vec![stream("rq", 8)];
        let rs = vec![stream("rs", 8)];
        let wq = stream("wq", 8);
        let gq = stream("gq", 8);
        let gs = stream("gs", 8);
        let mut k = PolyMemKernel::new("pm", cfg, 2, rq, rs, wq).unwrap();
        k.attach_region_port(Rc::clone(&gq), Rc::clone(&gs));
        for r in 0..16usize {
            for c in 0..16usize {
                k.mem().set(r, c, (r * 16 + c) as u64).unwrap();
            }
        }
        let region = Region::new("b", 2, 0, RegionShape::Block { rows: 4, cols: 8 });
        gq.borrow_mut().push(region.clone());
        for cycle in 0..=6 {
            k.tick(cycle);
        }
        let got = gs.borrow_mut().pop().expect("delivered at cycle 6");
        let want: Vec<u64> = region
            .coords_iter()
            .unwrap()
            .map(|(i, j)| (i * 16 + j) as u64)
            .collect();
        assert_eq!(got, want, "interleaved layout changes storage, not data");
        assert_eq!(k.reads_served(), 4, "cycle model is layout-independent");
    }

    #[test]
    fn region_write_port_commits_burst_and_occupies_write_path() {
        use polymem::RegionShape;
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 1).unwrap();
        let wq = stream("wq", 8);
        let bq = stream("bq", 8);
        let mut k = PolyMemKernel::new(
            "pm",
            cfg,
            2,
            vec![stream("rq", 8)],
            vec![stream("rs", 8)],
            Rc::clone(&wq),
        )
        .unwrap();
        k.attach_region_write_port(Rc::clone(&bq));
        // A 4x8 block burst (4 access cycles) plus a per-access write that
        // must wait for the burst to drain.
        let region = Region::new("b", 2, 0, RegionShape::Block { rows: 4, cols: 8 });
        let vals: Vec<u64> = (0..32).collect();
        bq.borrow_mut().push((region.clone(), vals.clone()));
        wq.borrow_mut()
            .push((ParallelAccess::row(0, 0), vec![9; 8]));
        k.tick(0); // burst accepted and committed; write path busy 4 cycles
        assert_eq!(k.region_writes_served(), 1);
        assert_eq!(k.writes_served(), 4, "burst charged as 4 write accesses");
        for (t, (i, j)) in region.coords_iter().unwrap().enumerate() {
            assert_eq!(k.mem().get(i, j).unwrap(), vals[t]);
        }
        // Cycles 1..3: the per-access write stalls behind the burst.
        for c in 1..4 {
            k.tick(c);
            assert_eq!(k.mem().get(0, 0).unwrap(), 0, "stalled at cycle {c}");
        }
        k.tick(4); // write path free again
        assert_eq!(k.mem().get(0, 0).unwrap(), 9);
        assert_eq!(k.writes_served(), 5);
    }

    #[test]
    fn region_copy_port_streams_and_completes_after_latency() {
        use polymem::RegionShape;
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 1).unwrap();
        let cq = stream("cq", 8);
        let cs = stream("cs", 8);
        let mut k = PolyMemKernel::new(
            "pm",
            cfg,
            2,
            vec![stream("rq", 8)],
            vec![stream("rs", 8)],
            stream("wq", 8),
        )
        .unwrap();
        k.attach_region_copy_port(Rc::clone(&cq), Rc::clone(&cs));
        let journal = polymem::tracing::TraceJournal::new(256);
        k.attach_tracing(&journal);
        for r in 0..16usize {
            for c in 0..16usize {
                k.mem().set(r, c, (r * 16 + c) as u64).unwrap();
            }
        }
        // 4x8 block copy = 4 access cycles; token at 0 + 4 + 2 = 6.
        let src = Region::new("s", 2, 0, RegionShape::Block { rows: 4, cols: 8 });
        let dst = Region::new("d", 10, 8, RegionShape::Block { rows: 4, cols: 8 });
        cq.borrow_mut().push((src.clone(), dst.clone()));
        for cycle in 0..6 {
            k.tick(cycle);
            assert!(cs.borrow().is_empty(), "no token before cycle 6");
        }
        k.tick(6);
        assert_eq!(cs.borrow_mut().pop(), Some(32), "token = elements moved");
        assert_eq!(k.region_copies_served(), 1);
        assert_eq!(k.reads_served(), 4);
        assert_eq!(k.writes_served(), 4);
        for (t, (i, j)) in dst.coords_iter().unwrap().enumerate() {
            let (si, sj) = src.coords_iter().unwrap().nth(t).unwrap();
            assert_eq!(k.mem().get(i, j).unwrap(), (si * 16 + sj) as u64);
        }
        // One copy burst, spanning its 4 access cycles from acceptance.
        k.finish_tracing();
        let copies: Vec<_> = journal
            .snapshot()
            .spans()
            .into_iter()
            .filter(|s| s.track == "pm/copy-bursts")
            .map(|s| (s.name, s.begin, s.end))
            .collect();
        assert_eq!(copies, vec![("burst:copy".to_string(), 0, 4)]);
    }

    #[test]
    fn copy_errors_surface_not_panic() {
        use polymem::RegionShape;
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 1).unwrap();
        let cq = stream("cq", 8);
        let cs = stream("cs", 8);
        let mut k = PolyMemKernel::new(
            "pm",
            cfg,
            1,
            vec![stream("rq", 8)],
            vec![stream("rs", 8)],
            stream("wq", 8),
        )
        .unwrap();
        k.attach_region_copy_port(Rc::clone(&cq), Rc::clone(&cs));
        // Shape mismatch: row16 -> col8.
        cq.borrow_mut().push((
            Region::new("s", 0, 0, RegionShape::Row { len: 16 }),
            Region::new("d", 0, 0, RegionShape::Col { len: 8 }),
        ));
        k.tick(0);
        assert_eq!(k.errors().len(), 1);
        assert_eq!(k.region_copies_served(), 0);
        assert!(cs.borrow().is_empty());
        assert!(k.pipelines_empty(), "failed burst leaves nothing in flight");
    }

    #[test]
    fn region_errors_surface_not_panic() {
        use polymem::RegionShape;
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 1).unwrap();
        let gq = stream("gq", 8);
        let gs = stream("gs", 8);
        let mut k = PolyMemKernel::new(
            "pm",
            cfg,
            1,
            vec![stream("rq", 8)],
            vec![stream("rs", 8)],
            stream("wq", 8),
        )
        .unwrap();
        k.attach_region_port(Rc::clone(&gq), Rc::clone(&gs));
        // Out of bounds block.
        gq.borrow_mut().push(Region::new(
            "oob",
            14,
            0,
            RegionShape::Block { rows: 4, cols: 8 },
        ));
        k.tick(0);
        assert_eq!(k.errors().len(), 1);
        assert_eq!(k.region_reads_served(), 0);
        assert!(gs.borrow().is_empty());
    }

    #[test]
    fn cycle_attribution_sums_to_ticks_exactly() {
        use polymem::telemetry::TelemetryRegistry;
        use std::cell::Cell;
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 1).unwrap();
        let rq = vec![stream("rq", 8)];
        let rs = vec![stream("rs", 8)];
        let wq = stream("wq", 8);
        let mut k =
            PolyMemKernel::new("pm", cfg, 4, rq.clone(), rs.clone(), Rc::clone(&wq)).unwrap();
        let reg = TelemetryRegistry::new();
        k.attach_telemetry(&reg);
        let pacing = Rc::new(Cell::new(false));
        k.set_pcie_flag(Rc::clone(&pacing));

        // Cycle 0: write commits (active). Cycle 1: read issues (active).
        // Cycles 2..5: the read drains the 4-cycle pipeline (pipeline).
        // Cycle 5: delivery (active). Cycles 6..8: idle. Cycles 9..11: the
        // pacer withholds data (pcie).
        wq.borrow_mut()
            .push((ParallelAccess::row(0, 0), vec![7; 8]));
        k.tick(0);
        rq[0].borrow_mut().push(ParallelAccess::row(0, 0));
        for c in 1..9 {
            k.tick(c);
        }
        pacing.set(true);
        for c in 9..12 {
            k.tick(c);
        }
        pacing.set(false);

        let snap = reg.snapshot();
        let cycles = |state: &str| {
            snap.counter_value(
                "dfe_kernel_cycles_total",
                &[("kernel", "pm"), ("state", state)],
            )
            .unwrap()
        };
        let (active, contention, pipeline, pcie, idle) = (
            cycles("active"),
            cycles("contention"),
            cycles("pipeline"),
            cycles("pcie"),
            cycles("idle"),
        );
        assert_eq!(
            active + contention + pipeline + pcie + idle,
            12,
            "every tick lands in exactly one bucket"
        );
        assert_eq!(active, 3, "write, read issue, read delivery");
        assert_eq!(pipeline, 3, "latency drain cycles 2..5");
        assert_eq!(pcie, 3, "pacer-flagged cycles");
        assert_eq!(idle, 3);
        assert_eq!(contention, 0);
        // The wrapped memory's datapath counters ride the same registry.
        assert!(snap
            .counter_value("polymem_uniform_accesses_total", &[])
            .is_some_and(|v| v >= 2));
    }

    #[test]
    fn attribution_counts_burst_contention() {
        use polymem::telemetry::TelemetryRegistry;
        use polymem::RegionShape;
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 1).unwrap();
        let wq = stream("wq", 8);
        let bq = stream("bq", 8);
        let mut k = PolyMemKernel::new(
            "pm",
            cfg,
            2,
            vec![stream("rq", 8)],
            vec![stream("rs", 8)],
            Rc::clone(&wq),
        )
        .unwrap();
        k.attach_region_write_port(Rc::clone(&bq));
        let reg = TelemetryRegistry::new();
        k.attach_telemetry(&reg);
        // A 4-access-cycle burst plus a queued per-access write: the write
        // stalls behind the burst for cycles 1..3 (contention), lands at 4.
        let region = Region::new("b", 2, 0, RegionShape::Block { rows: 4, cols: 8 });
        bq.borrow_mut().push((region, (0..32).collect()));
        wq.borrow_mut()
            .push((ParallelAccess::row(0, 0), vec![9; 8]));
        for c in 0..5 {
            k.tick(c);
        }
        let snap = reg.snapshot();
        let cycles = |state: &str| {
            snap.counter_value(
                "dfe_kernel_cycles_total",
                &[("kernel", "pm"), ("state", state)],
            )
            .unwrap()
        };
        assert_eq!(cycles("active"), 2, "burst accept + stalled write landing");
        assert_eq!(cycles("contention"), 3, "write blocked behind the burst");
        assert_eq!(
            cycles("active")
                + cycles("contention")
                + cycles("pipeline")
                + cycles("pcie")
                + cycles("idle"),
            5
        );
    }

    #[test]
    fn tracing_spans_reconcile_exactly_with_attribution_counters() {
        use polymem::telemetry::TelemetryRegistry;
        use polymem::tracing::TraceJournal;
        use std::cell::Cell;
        // The same scenario as `cycle_attribution_sums_to_ticks_exactly`,
        // with a journal attached: the per-state span sums on the kernel's
        // track must equal the dfe_kernel_cycles_total buckets exactly.
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 1).unwrap();
        let rq = vec![stream("rq", 8)];
        let rs = vec![stream("rs", 8)];
        let wq = stream("wq", 8);
        let mut k =
            PolyMemKernel::new("pm", cfg, 4, rq.clone(), rs.clone(), Rc::clone(&wq)).unwrap();
        let reg = TelemetryRegistry::new();
        k.attach_telemetry(&reg);
        let journal = TraceJournal::new(1024);
        k.attach_tracing(&journal);
        let pacing = Rc::new(Cell::new(false));
        k.set_pcie_flag(Rc::clone(&pacing));
        wq.borrow_mut()
            .push((ParallelAccess::row(0, 0), vec![7; 8]));
        k.tick(0);
        rq[0].borrow_mut().push(ParallelAccess::row(0, 0));
        for c in 1..9 {
            k.tick(c);
        }
        pacing.set(true);
        for c in 9..12 {
            k.tick(c);
        }
        pacing.set(false);
        k.finish_tracing();

        let snap = journal.snapshot();
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.validate_spans(), Vec::<String>::new());
        let by_state = snap.span_cycles_by_name("pm");
        let reg_snap = reg.snapshot();
        for state in ["active", "contention", "pipeline", "pcie", "idle"] {
            let counted = reg_snap
                .counter_value(
                    "dfe_kernel_cycles_total",
                    &[("kernel", "pm"), ("state", state)],
                )
                .unwrap();
            assert_eq!(
                by_state.get(state).copied().unwrap_or(0),
                counted,
                "span sum for state {state} must equal the counter"
            );
        }
        let total: u64 = by_state.values().sum();
        assert_eq!(total, 12, "the attribution strip is gap-free");
        // Runs coalesce: 12 ticks produced far fewer spans than ticks.
        let strip: Vec<_> = snap
            .spans()
            .into_iter()
            .filter(|s| s.track == "pm")
            .collect();
        assert!(strip.len() < 10, "contiguous same-state runs coalesce");
    }

    #[test]
    fn burst_accepts_become_spans_on_per_kind_tracks() {
        use polymem::tracing::TraceJournal;
        use polymem::RegionShape;
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 1).unwrap();
        let wq = stream("wq", 8);
        let bq = stream("bq", 8);
        let (gq, gs) = (stream("gq", 8), stream("gs", 8));
        let (cq, cs) = (stream("cq", 8), stream("cs", 8));
        let mut k = PolyMemKernel::new(
            "pm",
            cfg,
            2,
            vec![stream("rq", 8)],
            vec![stream("rs", 8)],
            Rc::clone(&wq),
        )
        .unwrap();
        k.attach_region_write_port(Rc::clone(&bq));
        k.attach_region_port(Rc::clone(&gq), Rc::clone(&gs));
        k.attach_region_copy_port(Rc::clone(&cq), Rc::clone(&cs));
        let journal = TraceJournal::new(256);
        k.attach_tracing(&journal);
        // All three are queued before cycle 0. Cycle 0 accepts the read
        // (16 elements = 2 access cycles), which holds port 0's read
        // datapath, and the write (4x8 block = 4 cycles); the copy (8
        // elements = 1 cycle) needs both datapaths, so it waits for the
        // read's two cycles and the write burst and is accepted at cycle 4.
        let bursts = [("read", 16u64, 0u64), ("write", 32, 0), ("copy", 8, 4)];
        gq.borrow_mut()
            .push(Region::new("r", 5, 0, RegionShape::Row { len: 16 }));
        let block = Region::new("b", 8, 0, RegionShape::Block { rows: 4, cols: 8 });
        bq.borrow_mut().push((block, (0..32).collect()));
        cq.borrow_mut().push((
            Region::new("s", 6, 0, RegionShape::Row { len: 8 }),
            Region::new("d", 7, 8, RegionShape::Row { len: 8 }),
        ));
        for c in 0..9 {
            k.tick(c);
            let accepted = k.region_copies_served() == 1;
            assert_eq!(
                accepted,
                c >= 4,
                "copy accepted only at cycle 4 (cycle {c})"
            );
        }
        k.finish_tracing();
        assert_eq!(k.region_reads_served(), 1);
        assert_eq!(k.region_writes_served(), 1);
        assert_eq!(k.region_copies_served(), 1);
        assert_eq!(cs.borrow_mut().pop(), Some(8), "copy token delivered");
        let snap = journal.snapshot();
        assert_eq!(snap.validate_spans(), Vec::<String>::new());
        let lanes = cfg.lanes() as u64;
        let spans = snap.spans();
        for (kind, len, begin) in bursts {
            let track = format!("pm/{kind}-bursts");
            let on_track: Vec<_> = spans.iter().filter(|s| s.track == track).collect();
            assert_eq!(on_track.len(), 1, "{kind}: {on_track:?}");
            assert_eq!(on_track[0].name, format!("burst:{kind}"));
            assert_eq!(
                (on_track[0].begin, on_track[0].end),
                (begin, begin + len.div_ceil(lanes)),
                "{kind} burst spans ceil(len / lanes) cycles"
            );
        }
        // Detaching stops recording and leaves the journal balanced.
        let before = journal.recorded();
        k.detach_tracing();
        k.tick(9);
        assert_eq!(journal.recorded(), before);
    }

    #[test]
    fn skip_to_collapses_into_one_idle_span() {
        use polymem::tracing::TraceJournal;
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 1).unwrap();
        let mut k = PolyMemKernel::new(
            "pm",
            cfg,
            2,
            vec![stream("rq", 8)],
            vec![stream("rs", 8)],
            stream("wq", 8),
        )
        .unwrap();
        let journal = TraceJournal::new(64);
        k.attach_tracing(&journal);
        k.tick(0);
        k.skip_to(1, 10_001); // a fast-forwarded quiescent span
        k.finish_tracing();
        let snap = journal.snapshot();
        let idle: Vec<_> = snap
            .spans()
            .into_iter()
            .filter(|s| s.name == "idle")
            .collect();
        assert_eq!(idle.len(), 1, "tick + 10k skipped cycles = one idle span");
        assert_eq!(idle[0].cycles(), 10_001);
    }

    /// Where a lockstep test injects an out-of-bounds access: port 0's
    /// read of a chunk, the write of a chunk, or every access of a chunk
    /// that starts a row, moved on from the row before as if that row went
    /// on (the last access of each run the consumer reports).
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fault {
        None,
        Read(u64),
        Write(u64),
        Edge(u64),
    }

    /// The accesses of a dense two-port pass on a 64-row RoCo memory of
    /// `row` chunks per row: port `p` reads vector `p`, whose chunks fill
    /// rows `16p ..` in order, and the write of chunk `k` lands on chunk
    /// `k + L + 1 + ahead` of vector 0, the chunk port 0 reads `ahead`
    /// cycles later (0: in that same cycle).
    #[derive(Debug, Clone, Copy)]
    struct Pass {
        fault: Fault,
        row: u64,
        ahead: u64,
    }

    impl Pass {
        fn read(self, port: usize, chunk: u64) -> ParallelAccess {
            match self.fault {
                Fault::Read(c) if port == 0 && c == chunk => return ParallelAccess::row(64, 0),
                Fault::Edge(c) if c == chunk => {
                    let last = self.read(port, chunk - 1);
                    return ParallelAccess::row(last.i, last.j + 8);
                }
                _ => {}
            }
            let c = chunk;
            ParallelAccess::row(
                port * 16 + (c / self.row) as usize,
                (c % self.row * 8) as usize,
            )
        }

        fn dest(self, chunk: u64) -> ParallelAccess {
            if self.fault == Fault::Write(chunk) {
                return ParallelAccess::row(64, 0);
            }
            let reads = match self.fault {
                Fault::Edge(_) => self,
                _ => Pass {
                    fault: Fault::None,
                    ..self
                },
            };
            reads.read(0, chunk + Dense::L + 1 + self.ahead)
        }

        /// The run from `chunk` of the accesses `access` gives, as the
        /// consumer reports it: as long as each steps 8 columns on.
        fn run(access: impl Fn(u64) -> ParallelAccess, chunk: u64) -> RowRun {
            let first = access(chunk);
            let steps = (1..)
                .take_while(|&t| {
                    let j = first.j + 8 * t as usize;
                    access(chunk + t) == ParallelAccess { j, ..first }
                })
                .count();
            RowRun {
                first,
                cycles: steps as u64 + 1,
            }
        }

        /// The write data of one chunk or run: `x + 3y`, lane by lane.
        fn combine(x: &mut [u64], y: &[u64]) {
            for (x, y) in x.iter_mut().zip(y) {
                *x = x.wrapping_add(y.wrapping_mul(3));
            }
        }
    }

    /// A [`Pass`] driven by hand with read latency `L`: every cycle the
    /// consumer, ticking before the kernel, issues chunk `issued` on each
    /// port and, once both words are delivered, writes their combination
    /// over `pass.dest(written)`.
    struct Dense {
        kernel: PolyMemKernel,
        rq: Vec<StreamRef<ReadRequest>>,
        rs: Vec<StreamRef<ReadResponse>>,
        wq: StreamRef<WriteRequest>,
        registry: TelemetryRegistry,
        pass: Pass,
        issued: u64,
        written: u64,
    }

    impl Dense {
        const L: u64 = 3;

        /// The overlapping pass on 2 chunks a row, at the start of cycle
        /// `L + 1`, its first steady cycle.
        fn steady(fault: Fault) -> Self {
            Self::with(2, 0, fault)
        }

        /// The pass on `row` chunks a row whose writes land `ahead`
        /// cycles ahead of port 0's reads, at its first steady cycle.
        fn with(row: u64, ahead: u64, fault: Fault) -> Self {
            let cols = row as usize * 8;
            let cfg = PolyMemConfig::new(64, cols, 2, 4, AccessScheme::RoCo, 2).unwrap();
            let rq: Vec<_> = (0..2).map(|p| stream(format!("rq{p}"), 8)).collect();
            let rs: Vec<_> = (0..2).map(|p| stream(format!("rs{p}"), 8)).collect();
            let wq = stream("wq", 8);
            let mut kernel =
                PolyMemKernel::new("pm", cfg, Self::L, rq.clone(), rs.clone(), Rc::clone(&wq))
                    .unwrap();
            let registry = TelemetryRegistry::new();
            kernel.attach_telemetry(&registry);
            let cells: Vec<u64> = (0..(64 * cols) as u64).collect();
            kernel.mem().load_row_major(&cells).unwrap();
            let mut d = Self {
                kernel,
                rq,
                rs,
                wq,
                registry,
                pass: Pass { fault, row, ahead },
                issued: 0,
                written: 0,
            };
            for cycle in 0..=Self::L {
                assert!(!d.kernel.lockstep_ready(2, cycle), "filling at {cycle}");
                d.tick(cycle);
            }
            assert!(d.kernel.lockstep_ready(2, Self::L + 1));
            d
        }

        /// One cycle of the ticked loop: the consumer, then the kernel.
        fn tick(&mut self, cycle: u64) {
            for (port, rq) in self.rq.iter().enumerate() {
                rq.borrow_mut().push(self.pass.read(port, self.issued));
            }
            self.issued += 1;
            if self.rs.iter().all(|s| !s.borrow().is_empty()) {
                let mut x = self.rs[0].borrow_mut().pop().unwrap();
                let y = self.rs[1].borrow_mut().pop().unwrap();
                Pass::combine(&mut x, &y);
                let access = self.pass.dest(self.written);
                self.wq.borrow_mut().push((access, x));
                self.written += 1;
            }
            self.kernel.tick(cycle);
        }

        /// The same cycles as one lockstep window of up to `n`.
        fn lockstep(&mut self, cycle: u64, n: u64) -> u64 {
            let (pass, issued, written) = (self.pass, self.issued, self.written);
            let served = self.kernel.lockstep(
                cycle,
                n,
                2,
                |port, k| Pass::run(|c| pass.read(port, c), issued + k),
                |k| Pass::run(|c| pass.dest(c), written + k),
                |mut words| {
                    let (x, mut rest) = words.split();
                    Pass::combine(x, rest.next().unwrap_or_default());
                },
            );
            self.issued += served;
            self.written += served;
            served
        }

        /// Everything a window must leave as the ticks leave it.
        #[allow(clippy::type_complexity)]
        fn state(
            &mut self,
        ) -> (
            Vec<PolyMemError>,
            Vec<DelayLine<LaneWord>>,
            Vec<Fifo<ReadRequest>>,
            Vec<Fifo<ReadResponse>>,
            Fifo<WriteRequest>,
            (u64, u64),
            polymem::telemetry::TelemetrySnapshot,
            Vec<u64>,
            polymem::AccessStats,
        ) {
            fn fifos<T: Clone>(s: &[StreamRef<T>]) -> Vec<Fifo<T>> {
                s.iter().map(|s| s.borrow().clone()).collect()
            }
            (
                self.kernel.errors().to_vec(),
                self.kernel.pipelines.clone(),
                fifos(&self.rq),
                fifos(&self.rs),
                self.wq.borrow().clone(),
                (self.kernel.reads_served(), self.kernel.writes_served()),
                self.registry.snapshot(),
                self.kernel.mem().dump_row_major(),
                self.kernel.mem().stats(),
            )
        }
    }

    #[test]
    fn lockstep_window_leaves_what_its_ticks_leave() {
        let start = Dense::L + 1;
        for j in [0u64, 2, 5] {
            // Window cycle j reads chunk start + j and writes chunk j.
            for fault in [Fault::None, Fault::Read(start + j), Fault::Write(j)] {
                let (mut window, mut ticked) = (Dense::steady(fault), Dense::steady(fault));
                let cycles = if fault == Fault::None { 6 } else { j + 1 };
                assert_eq!(window.lockstep(start, 6), cycles, "{fault:?} at {j}");
                for cycle in start..start + cycles {
                    ticked.tick(cycle);
                }
                let state = window.state();
                assert_eq!(state, ticked.state(), "{fault:?} at {j}");
                assert_eq!(state.0.len(), usize::from(fault != Fault::None));
                assert_eq!(window.kernel.lockstep_cycles(), cycles);
                // The ticks that follow agree too: the pipeline's ready
                // cycles (and a read's hole) were rebuilt exactly.
                for cycle in start + cycles..start + cycles + Dense::L + 2 {
                    window.tick(cycle);
                    ticked.tick(cycle);
                }
                assert_eq!(window.state(), ticked.state(), "{fault:?} at {j}");
            }
        }
        // Outside the steady state no window opens.
        let mut d = Dense::steady(Fault::None);
        assert_eq!(d.lockstep(Dense::L, 6), 0, "ready cycles off by one");
        assert_eq!(d.lockstep(Dense::L + 1, 0), 0, "empty window");
        d.rq[1].borrow_mut().push(ParallelAccess::row(0, 0));
        assert_eq!(d.lockstep(Dense::L + 1, 6), 0, "queued request");
    }

    #[test]
    fn lockstep_runs_leave_what_their_ticks_leave() {
        // Eight chunks a row, so the window serves runs of up to eight
        // cycles. Each case cuts them somewhere else: where a row ends (a
        // residue-class change: the next run's first access takes the full
        // path), at the window's end, before a read of a chunk an earlier
        // cycle of the run writes (`ahead` 1 and 3), and before a faulting
        // access, which is served alone. The window starts at read chunk 4
        // and write chunk 0.
        let start = Dense::L + 1;
        let cases = [
            // (ahead, fault, cycles served, of them in runs, errors)
            // Read chunks 4..7, 8..15 and 16..21 (cut by the window's end).
            (0, Fault::None, 18, 4 + 8 + 6, 0),
            // Every write lands on the next cycle's read.
            (1, Fault::None, 18, 0, 0),
            // At most three cycles a run while the reads and writes share
            // a row: reads 5..7, 8..10, 11..12, 13..15, 16..18, 19..20.
            (3, Fault::None, 18, 3 + 3 + 2 + 3 + 3 + 2, 0),
            // Every run from chunk 8 reaches column 64 at chunk 16, its
            // last: the memory cuts them to 8..15, then chunk 16's two
            // reads and write fault alone.
            (0, Fault::Edge(16), 13, 4 + 8, 3),
            // The run 8..13 ends before port 0's fault at chunk 14.
            (0, Fault::Read(14), 11, 4 + 6, 1),
            // The write run from chunk 8 ends before the faulting write of
            // chunk 9, in cycle 9.
            (0, Fault::Write(9), 10, 4 + 5, 1),
        ];
        for (ahead, fault, cycles, in_runs, errors) in cases {
            let case = format!("ahead {ahead}, {fault:?}");
            let (mut window, mut ticked) =
                (Dense::with(8, ahead, fault), Dense::with(8, ahead, fault));
            assert_eq!(window.lockstep(start, 18), cycles, "{case}");
            for cycle in start..start + cycles {
                ticked.tick(cycle);
            }
            let state = window.state();
            assert_eq!(state, ticked.state(), "{case}");
            assert_eq!(state.0.len(), errors, "{case}");
            assert_eq!(window.kernel.lockstep_cycles(), cycles, "{case}");
            assert_eq!(window.kernel.run_cycles(), in_runs, "{case}");
            for cycle in start + cycles..start + cycles + Dense::L + 2 {
                window.tick(cycle);
                ticked.tick(cycle);
            }
            assert_eq!(window.state(), ticked.state(), "{case}");
        }
    }

    #[test]
    fn write_hazards_cut_runs_at_the_first_overlap() {
        use AccessPattern::{Column, MainDiagonal, Rectangle, Row, SecondaryDiagonal};
        let at = |i, j, pattern| ParallelAccess::new(i, j, pattern);
        // On a 2x4 grid, as both step 8 columns a cycle: a read `t` cycles
        // after a write that overlaps it cuts the run to `t` cycles.
        for (read, write, longest) in [
            (at(0, 0, Row), at(0, 0, Row), u64::MAX),
            (at(0, 8, Row), at(0, 0, Row), u64::MAX),
            (at(0, 0, Row), at(0, 8, Row), 1),
            (at(0, 0, Row), at(0, 24, Row), 3),
            (at(0, 0, Row), at(0, 20, Row), 2),
            (at(0, 0, Row), at(1, 8, Row), u64::MAX),
            (at(0, 0, Column), at(5, 8, Row), 1),
            (at(0, 0, Column), at(8, 8, Row), u64::MAX),
            (at(0, 0, Rectangle), at(1, 11, Rectangle), 1),
            (at(0, 0, Rectangle), at(1, 13, Rectangle), 2),
            (at(0, 0, MainDiagonal), at(3, 16, Row), 2),
            (at(0, 7, SecondaryDiagonal), at(3, 8, Row), 1),
        ] {
            assert_eq!(
                unhazarded(read, write, 2, 4),
                longest,
                "{read:?} after {write:?}"
            );
        }
    }

    #[test]
    fn idle_when_drained() {
        let (mut m, rq, rs, wq) = setup(1, 5);
        assert_eq!(m.run_until_idle(100), 0);
        wq.borrow_mut()
            .push((ParallelAccess::row(0, 0), vec![9; 8]));
        rq[0].borrow_mut().push(ParallelAccess::row(0, 0));
        let cycles = m.run_until_idle(100);
        assert!((6..100).contains(&cycles), "drained after {cycles}");
        assert!(!rs[0].borrow().is_empty());
    }
}
