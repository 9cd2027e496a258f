//! PolyMem as a pipelined dataflow kernel.
//!
//! Wraps [`polymem::PolyMem`] with the port/timing behaviour of the MaxJ
//! implementation: one parallel access per port per cycle, with read results
//! emerging a fixed number of cycles later (the paper's STREAM design
//! measures this latency at **14 cycles**, "estimated by Maxeler's tools").
//! Within a cycle all reads observe the state *before* that cycle's write
//! commits (read-old port semantics).

use crate::kernel::{DelayLine, Kernel};
use crate::stream::StreamRef;
use crate::trace::Tracer;
use polymem::telemetry::{Counter, TelemetryRegistry};
use polymem::tracing::{NameId, TraceJournal, TraceWriter};
use polymem::{ParallelAccess, PolyMem, PolyMemConfig, PolyMemError, Region};
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

/// A read request on a port.
pub type ReadRequest = ParallelAccess;
/// A read response: the `p*q` elements in canonical lane order.
pub type ReadResponse = Vec<u64>;
/// A write request: target access + lane data.
pub type WriteRequest = (ParallelAccess, Vec<u64>);
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
    /// Optional event recorder: one `burst:<kind> len=<n>` event per
    /// accepted burst (see [`crate::trace::burst_summary`]).
    tracer: Option<Tracer>,
    /// Reusable lane buffer: the compiled-plan gather lands here each cycle,
    /// so the steady-state read path performs no routing work per tick.
    scratch: Vec<u64>,
    /// Errors raised by invalid requests (surfaced, not panicking, so fault
    /// injection tests can observe them).
    errors: Vec<PolyMemError>,
    reads_served: u64,
    writes_served: u64,
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
    /// `read_req`/`read_resp` must have one stream per configured read port.
    pub fn new(
        name: impl Into<String>,
        config: PolyMemConfig,
        read_latency: u64,
        read_req: Vec<StreamRef<ReadRequest>>,
        read_resp: Vec<StreamRef<ReadResponse>>,
        write_req: StreamRef<WriteRequest>,
    ) -> polymem::Result<Self> {
        let mem = PolyMem::new(config)?;
        assert_eq!(
            read_req.len(),
            config.read_ports,
            "one read-request stream per port"
        );
        assert_eq!(read_resp.len(), config.read_ports);
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
            region_write_req: None,
            region_copy_req: None,
            region_copy_resp: None,
            copy_inflight: None,
            write_busy_until: 0,
            copy_busy_until: 0,
            region_writes_served: 0,
            region_copies_served: 0,
            tracer: None,
            scratch: vec![0; config.lanes()],
            errors: Vec::new(),
            reads_served: 0,
            writes_served: 0,
            attribution: None,
            trc: None,
            pcie_waiting: None,
        })
    }

    /// Register this kernel's cycle-attribution counters
    /// (`dfe_kernel_cycles_total{kernel=<name>, state=...}`, see
    /// [`CycleAttribution`]'s classification rules) with `registry`, and
    /// wire the wrapped memory's datapath counters into the same registry.
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

    /// Enable or disable the memory's compiled-plan fast path (defaults on;
    /// see [`PolyMem::set_planning`]).
    pub fn set_planning(&mut self, enabled: bool) {
        self.mem.set_planning(enabled);
    }

    /// Plan-cache activity of the wrapped memory.
    pub fn plan_stats(&self) -> polymem::PlanCacheStats {
        self.mem.plan_stats()
    }

    /// Region-plan-cache activity of the wrapped memory.
    pub fn region_plan_stats(&self) -> polymem::RegionPlanCacheStats {
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

    /// Record burst activity into `tracer` (`burst:<kind> len=<n>` events
    /// under this kernel's name).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    fn trace_burst(&self, cycle: u64, kind: &str, len: usize, access_cycles: u64) {
        if let Some(t) = &self.tracer {
            // Lazy record: a disabled tracer costs one flag check — no
            // clone of the kernel name, no format!.
            t.record_with(cycle, &self.name, || format!("burst:{kind} len={len}"));
        }
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
                let (_, data) = self.region_inflight.take().unwrap();
                self.region_resp.as_ref().unwrap().borrow_mut().push(data);
                progress = true;
            }
        }
        let mut region_busy = matches!(&self.region_inflight,
            Some((ready, _)) if cycle < ready.saturating_sub(self.read_latency));
        if self.region_inflight.is_none() && cycle >= self.copy_busy_until {
            if let Some(req) = &self.region_req {
                if let Some(region) = req.borrow_mut().pop() {
                    progress = true;
                    match self.mem.read_region(0, &region) {
                        Ok(data) => {
                            let lanes = self.mem.config().lanes();
                            let access_cycles = region.len().div_ceil(lanes).max(1) as u64;
                            self.region_inflight =
                                Some((cycle + access_cycles + self.read_latency, data));
                            self.region_reads_served += 1;
                            self.reads_served += region.len().div_ceil(lanes) as u64;
                            self.trace_burst(cycle, "read", region.len(), access_cycles);
                        }
                        Err(e) => self.errors.push(e),
                    }
                }
            }
        }
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
                self.copy_inflight = None;
                self.region_copy_resp
                    .as_ref()
                    .unwrap()
                    .borrow_mut()
                    .push(moved);
                progress = true;
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
                            self.trace_burst(cycle, "copy", src.len(), access_cycles);
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
                            self.trace_burst(cycle, "write", region.len(), access_cycles);
                        }
                        Err(e) => self.errors.push(e),
                    }
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
                match self.mem.read_into(port, access, &mut self.scratch) {
                    Ok(()) => {
                        self.pipelines[port].push(cycle, self.scratch.clone());
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
    use crate::stream::stream;
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
        assert_eq!(rs[0].borrow_mut().pop(), Some(data));
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
        let (mut m, rq, rs, wq) = setup(1, 0);
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
        assert_eq!(rs[0].borrow_mut().pop(), Some(old), "read-old semantics");
        // Next read sees the new value.
        rq[0].borrow_mut().push(ParallelAccess::row(0, 0));
        m.run_cycles(2);
        assert_eq!(rs[0].borrow_mut().pop(), Some(new));
    }

    #[test]
    fn invalid_request_surfaces_error() {
        let cfg = PolyMemConfig::new(16, 16, 2, 4, AccessScheme::ReO, 1).unwrap();
        let rq = vec![stream("rq", 8)];
        let rs = vec![stream("rs", 8)];
        let wq = stream("wq", 8);
        let mut k = PolyMemKernel::new("pm", cfg, 0, rq.clone(), rs, Rc::clone(&wq)).unwrap();
        rq[0].borrow_mut().push(ParallelAccess::row(0, 0)); // ReO: rows unsupported
        k.tick(0);
        assert_eq!(k.errors().len(), 1);
        assert_eq!(k.reads_served(), 0);
    }

    #[test]
    fn two_ports_independent() {
        let (mut m, rq, rs, wq) = setup(2, 3);
        wq.borrow_mut()
            .push((ParallelAccess::row(0, 0), (0..8).collect()));
        wq.borrow_mut()
            .push((ParallelAccess::row(1, 0), (10..18).collect()));
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
            PolyMemKernel::new("pm", cfg, 0, rq.clone(), rs.clone(), Rc::clone(&wq)).unwrap();
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
        k.set_planning(false);
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
        let tracer = crate::trace::Tracer::new(64);
        k.set_tracer(tracer.clone());
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
        let s = crate::trace::burst_summary(&tracer, "pm");
        assert_eq!(s.copies, 1);
        assert_eq!(s.elements, 32);
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
            0,
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
            0,
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
    #[cfg(not(feature = "tracing-off"))]
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
    #[cfg(not(feature = "tracing-off"))]
    fn burst_accepts_become_spans_on_per_kind_tracks() {
        use polymem::tracing::TraceJournal;
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
        let journal = TraceJournal::new(256);
        k.attach_tracing(&journal);
        // A 4x8 block burst = 4 access cycles, accepted at cycle 0.
        let region = Region::new("b", 2, 0, RegionShape::Block { rows: 4, cols: 8 });
        bq.borrow_mut().push((region, (0..32).collect()));
        for c in 0..5 {
            k.tick(c);
        }
        k.finish_tracing();
        let snap = journal.snapshot();
        assert_eq!(snap.validate_spans(), Vec::<String>::new());
        let bursts: Vec<_> = snap
            .spans()
            .into_iter()
            .filter(|s| s.track == "pm/write-bursts")
            .collect();
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].name, "burst:write");
        assert_eq!((bursts[0].begin, bursts[0].end), (0, 4));
        // Detaching stops recording and leaves the journal balanced.
        let before = journal.recorded();
        k.detach_tracing();
        k.tick(5);
        assert_eq!(journal.recorded(), before);
    }

    #[test]
    #[cfg(not(feature = "tracing-off"))]
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
