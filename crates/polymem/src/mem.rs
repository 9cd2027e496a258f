//! The PolyMem façade: Fig. 3 wired together.
//!
//! A [`PolyMem`] owns the AGU, the module-assignment function `M`, the
//! addressing function `A`, the three shuffles and the bank array, and
//! exposes the paper's port interface: one write port and `read_ports` read
//! ports, each moving `p*q` elements per access, plus simultaneous
//! read+write ([`PolyMem::read_write`]).
//!
//! Every parallel access flows exactly as in the paper, top to bottom:
//! AGU expands `(i, j, AccType)` → `M` computes per-lane banks (the shuffle
//! steering signal) → `A` computes per-lane intra-bank addresses → the
//! Address Shuffle and Write Data Shuffle scatter addresses/data into bank
//! order → the banks fire → the Read Data Shuffle gathers results back into
//! lane order.

use crate::addressing::AddressingFunction;
use crate::agu::Agu;
use crate::banks::BankArray;
use crate::config::PolyMemConfig;
use crate::error::{PolyMemError, Result};
use crate::maf::ModuleAssignment;
use crate::plan::{PlanCache, PlanCacheStats};
use crate::region::{Region, RegionShape};
use crate::region_plan::{RegionPlanCache, RegionPlanCacheStats};
use crate::scheme::{AccessPattern, ParallelAccess};
use crate::shuffle::Crossbar;
use crate::telemetry::{Counter, TelemetryRegistry};
use crate::tracing::{NameId, TraceJournal, TraceWriter};

/// Running counters of memory activity, for benchmarks and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Parallel read accesses served.
    pub reads: u64,
    /// Parallel write accesses served.
    pub writes: u64,
    /// Elements delivered by reads.
    pub elements_read: u64,
    /// Elements stored by writes.
    pub elements_written: u64,
}

/// Telemetry handles for one [`PolyMem`], populated by
/// [`PolyMem::attach_telemetry`]. Each field is a pre-resolved registry
/// handle, so the hot-path cost of an instrumented access is a handful of
/// `Relaxed` atomic adds — no locks, no allocation, no panicking
/// construct.
///
/// Per-bank counters exploit the conflict-freedom theorem: every
/// full-lane access touches each bank exactly once, and every region plan
/// gives each bank exactly `accesses` elements. So the hot paths bump two
/// *shared* bases — `uniform_accesses` for single accesses,
/// `region_accesses` for region ops — and the registry folds both into
/// every bank's exported sample. No per-bank loop on any hot path.
///
/// All updates use the `*_owned` single-writer counter ops (plain
/// load/store, no `lock` prefix): every call here happens under the
/// owning `PolyMem`'s `&mut self`, so writes are serialized by
/// construction. The concurrent wrapper keeps its own RMW counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct MemTelemetry {
    /// Parallel read accesses, per read port.
    port_reads: Vec<Counter>,
    /// Parallel write accesses through the write port.
    writes: Counter,
    /// Elements delivered by reads.
    elements_read: Counter,
    /// Elements stored by writes.
    elements_written: Counter,
    /// Full-lane single accesses (reads + writes): the uniform per-bank
    /// base — each such access lands one element in every bank.
    uniform_accesses: Counter,
    /// Per-bank elements added by region operations (each region op lands
    /// `accesses` elements in every bank): the second per-bank base.
    region_accesses: Counter,
    /// Serialized bank cycles avoided by conflict-free banking
    /// (`lanes - 1` per access; `len - accesses` per region op).
    conflicts_avoided: Counter,
    /// Bytes moved by unit-stride runs (block moves) of region replay
    /// ([`crate::RegionPlan::contiguous_elems`]).
    region_coalesced_bytes: Counter,
    /// Bytes the region replay moves lane by lane.
    region_strided_bytes: Counter,
}

impl MemTelemetry {
    #[inline]
    fn single_read(&self, port: usize, lanes: usize) {
        if let Some(c) = self.port_reads.get(port) {
            c.inc_owned();
        }
        self.elements_read.add_owned(lanes as u64);
        self.uniform_accesses.inc_owned();
        self.conflicts_avoided.add_owned(lanes as u64 - 1);
    }

    #[inline]
    fn single_write(&self, lanes: usize) {
        self.writes.inc_owned();
        self.elements_written.add_owned(lanes as u64);
        self.uniform_accesses.inc_owned();
        self.conflicts_avoided.add_owned(lanes as u64 - 1);
    }

    #[inline]
    pub(crate) fn region_read(&self, port: usize, accesses: usize, len: usize) {
        if let Some(c) = self.port_reads.get(port) {
            c.add_owned(accesses as u64);
        }
        self.elements_read.add_owned(len as u64);
        self.conflicts_avoided.add_owned((len - accesses) as u64);
        self.region_accesses.add_owned(accesses as u64);
    }

    #[inline]
    pub(crate) fn region_write(&self, accesses: usize, len: usize) {
        self.writes.add_owned(accesses as u64);
        self.elements_written.add_owned(len as u64);
        self.conflicts_avoided.add_owned((len - accesses) as u64);
        self.region_accesses.add_owned(accesses as u64);
    }

    /// Attribute one region replay's traffic to the coalesced/strided
    /// split (bytes moved by block moves vs lane by lane).
    #[inline]
    pub(crate) fn region_bytes(&self, coalesced: u64, strided: u64) {
        self.region_coalesced_bytes.add_owned(coalesced);
        self.region_strided_bytes.add_owned(strided);
    }
}

/// Trace-journal handles for one [`PolyMem`], populated by
/// [`PolyMem::attach_tracing`]. The writer and every event name are
/// resolved at attach time, so the instrumented region paths record only
/// fixed-width integers — no allocation, no locks, no panicking construct
/// (the same hot-path discipline as [`MemTelemetry`]).
#[derive(Debug, Clone)]
pub(crate) struct MemTracing {
    /// Journal writer bound to this memory's track.
    pub(crate) writer: TraceWriter,
    /// Span: one compiled region-plan replay (gather/scatter).
    pub(crate) replay: NameId,
    /// Span: one planned `copy_region` replay.
    pub(crate) copy_replay: NameId,
    /// Span: a region-plan compilation (cache miss path).
    pub(crate) compile: NameId,
    /// Instant: region-plan cache hit.
    pub(crate) hit: NameId,
    /// Instant: region-plan cache miss.
    pub(crate) miss: NameId,
}

/// A polymorphic parallel memory instance.
///
/// `T` is the element type (the paper's designs are 64-bit; any `Copy +
/// Default` type works, e.g. `u64`, `f64`, or a packed struct).
#[derive(Debug, Clone)]
pub struct PolyMem<T> {
    // Fields are pub(crate) so the bulk-operation module can destructure
    // them for disjoint borrows in the region-planned fast paths.
    pub(crate) config: PolyMemConfig,
    pub(crate) maf: ModuleAssignment,
    pub(crate) afn: AddressingFunction,
    pub(crate) agu: Agu,
    pub(crate) banks: BankArray<T>,
    xbar: Crossbar,
    // Scratch buffers: reused across accesses so the hot path is
    // allocation-free (Rust Performance Book: avoid allocating in loops).
    coords: Vec<(usize, usize)>,
    route: Vec<usize>,
    lane_addrs: Vec<usize>,
    bank_addrs: Vec<usize>,
    banked: Vec<T>,
    pub(crate) stats: AccessStats,
    /// When `Some`, every touched coordinate is appended (profiling mode
    /// for the scheduler's application analysis). Tracing needs the
    /// expanded coordinates, so it forces the interpreted pipeline.
    trace_log: Option<Vec<(usize, usize)>>,
    /// Compiled routing per residue class (see [`crate::plan`]).
    pub(crate) plans: PlanCache,
    /// When `true` (the default), reads and writes replay compiled plans;
    /// when `false`, every access walks the full interpreted Fig. 3
    /// pipeline (the oracle the plans are verified against).
    planning: bool,
    /// Compiled whole-region transfers (see [`crate::region_plan`]).
    pub(crate) region_plans: RegionPlanCache,
    /// When `true` (the default), bulk region operations replay compiled
    /// region plans; when `false`, they fall back to the per-access loop
    /// (which itself honours [`Self::planning`]). The two switches are
    /// independent so benchmarks can compare region-planned vs per-access
    /// planned vs fully interpreted.
    pub(crate) region_planning: bool,
    /// Registry handles when telemetry is attached (see
    /// [`Self::attach_telemetry`]); `None` keeps the hot path at a single
    /// branch.
    pub(crate) tlm: Option<MemTelemetry>,
    /// Trace-journal handles when span tracing is attached (see
    /// [`Self::attach_tracing`]); `None` keeps the region paths at a
    /// single branch.
    pub(crate) trc: Option<MemTracing>,
}

impl<T: Copy + Default> PolyMem<T> {
    /// Build a PolyMem from a validated configuration.
    pub fn new(config: PolyMemConfig) -> Result<Self> {
        config.validate()?;
        let lanes = config.lanes();
        let maf = ModuleAssignment::new(config.scheme, config.p, config.q);
        let afn = AddressingFunction::new(config.p, config.q, config.rows, config.cols);
        let agu = Agu::new(config.p, config.q, config.rows, config.cols);
        let banks = BankArray::with_layout(lanes, config.bank_depth(), config.layout);
        Ok(Self {
            config,
            maf,
            afn,
            agu,
            banks,
            xbar: Crossbar::new(lanes),
            coords: Vec::with_capacity(lanes),
            route: Vec::with_capacity(lanes),
            lane_addrs: Vec::with_capacity(lanes),
            bank_addrs: vec![0; lanes],
            banked: vec![T::default(); lanes],
            stats: AccessStats::default(),
            trace_log: None,
            plans: PlanCache::with_layout(lanes, config.bank_depth(), config.layout),
            planning: true,
            region_plans: RegionPlanCache::new(lanes),
            region_planning: true,
            tlm: None,
            trc: None,
        })
    }

    /// The configuration this memory was built with.
    #[inline]
    pub fn config(&self) -> &PolyMemConfig {
        &self.config
    }

    /// Elements per parallel access (`p * q`).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.config.lanes()
    }

    /// Activity counters.
    #[inline]
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Reset activity counters.
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
    }

    /// Enable or disable compiled-plan replay (enabled by default).
    ///
    /// With planning off, every access walks the interpreted AGU → MAF →
    /// addressing → crossbar pipeline. The two paths are bit-identical;
    /// the switch exists as an escape hatch and for differential testing
    /// and benchmarking.
    pub fn set_planning(&mut self, enabled: bool) {
        self.planning = enabled;
    }

    /// Whether compiled-plan replay is enabled.
    #[inline]
    pub fn planning(&self) -> bool {
        self.planning
    }

    /// Plan-cache activity: hits, misses (= compilations), entries.
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Drop all compiled plans (they recompile lazily on next use).
    pub fn clear_plans(&mut self) {
        self.plans.clear();
    }

    /// Enable or disable compiled region plans for bulk operations
    /// (enabled by default). Independent of [`Self::set_planning`]: with
    /// region planning off, bulk operations fall back to the per-access
    /// loop, which still uses single-access plans unless planning is also
    /// off.
    pub fn set_region_planning(&mut self, enabled: bool) {
        self.region_planning = enabled;
    }

    /// Whether bulk region operations replay compiled region plans.
    #[inline]
    pub fn region_planning(&self) -> bool {
        self.region_planning
    }

    /// Region-plan cache activity: hits, misses, entries, heap bytes.
    pub fn region_plan_stats(&self) -> RegionPlanCacheStats {
        self.region_plans.stats()
    }

    /// Drop all compiled region plans (they recompile lazily on next use).
    pub fn clear_region_plans(&mut self) {
        self.region_plans.clear();
    }

    /// Register this memory's datapath metrics in `registry` and start
    /// recording into them: per-port access counters, per-bank element
    /// counters (`polymem_bank_elements_total{bank=..}`), element totals,
    /// conflicts avoided, and the plan / region-plan cache counters
    /// (`polymem_plan_cache_*_total{cache=..}` — live views of the same
    /// cells `plan_stats()` reads).
    ///
    /// Attachment is idempotent (same metric keys re-register) and cheap
    /// to leave off: unattached memories pay one `Option` branch per
    /// access. A cloned `PolyMem` shares its telemetry handles with the
    /// original; call `attach_telemetry` on the clone to rebind it.
    pub fn attach_telemetry(&mut self, registry: &TelemetryRegistry) {
        let uniform = registry.counter("polymem_uniform_accesses_total", vec![]);
        let region_accesses = registry.counter("polymem_region_accesses_total", vec![]);
        let mut t = MemTelemetry {
            uniform_accesses: uniform.clone(),
            region_accesses: region_accesses.clone(),
            writes: registry.counter("polymem_writes_total", vec![]),
            elements_read: registry.counter("polymem_elements_read_total", vec![]),
            elements_written: registry.counter("polymem_elements_written_total", vec![]),
            conflicts_avoided: registry.counter("polymem_conflicts_avoided_total", vec![]),
            region_coalesced_bytes: registry
                .counter("polymem_region_coalesced_bytes_total", vec![]),
            region_strided_bytes: registry.counter("polymem_region_strided_bytes_total", vec![]),
            ..MemTelemetry::default()
        };
        for p in 0..self.config.read_ports {
            t.port_reads
                .push(registry.counter("polymem_reads_total", vec![("port", p.to_string())]));
        }
        // Every bank's element count is entirely base traffic: uniform
        // full-lane accesses plus region-plan accesses, each of which lands
        // the same count in every bank. The per-bank handle is dropped —
        // nothing ever writes to it directly.
        for b in 0..self.lanes() {
            let _ = registry.counter_with_bases(
                "polymem_bank_elements_total",
                vec![("bank", b.to_string())],
                &[&uniform, &region_accesses],
            );
        }
        self.plans
            .register_telemetry(registry, vec![("cache", "access".into())]);
        self.region_plans
            .register_telemetry(registry, vec![("cache", "region".into())]);
        self.tlm = Some(t);
    }

    /// Stop recording datapath telemetry (registered metrics stay in the
    /// registry at their last values).
    pub fn detach_telemetry(&mut self) {
        self.tlm = None;
    }

    /// Start recording causal spans into `journal` on the named track:
    /// region-plan **compile** spans and cache **hit/miss** instants
    /// around every bulk operation's plan lookup, and **replay** spans
    /// around the gather/scatter itself, stamped at the journal's current
    /// logical cycle.
    ///
    /// The per-access planned read/write hot path is deliberately *not*
    /// instrumented: it moves only `lanes` elements per call, so a journal
    /// record per access would dominate the work being measured. Region
    /// replay — where the bulk of the cycles go — carries the spans.
    pub fn attach_tracing(&mut self, journal: &TraceJournal, track: &str) {
        self.trc = Some(MemTracing {
            writer: journal.writer(track),
            replay: journal.intern("region-replay"),
            copy_replay: journal.intern("copy-replay"),
            compile: journal.intern("region-plan-compile"),
            hit: journal.intern("region-plan-hit"),
            miss: journal.intern("region-plan-miss"),
        });
    }

    /// Stop recording spans (already-recorded journal events remain).
    pub fn detach_tracing(&mut self) {
        self.trc = None;
    }

    /// Start recording every coordinate touched by parallel accesses —
    /// the "analyze applications" front of the paper's §VII toolchain.
    /// Any previous recording is discarded.
    pub fn start_trace(&mut self) {
        self.trace_log = Some(Vec::new());
    }

    /// Stop recording and return the captured coordinates (in access
    /// order, duplicates preserved). Returns an empty `Vec` if recording
    /// was never started.
    pub fn take_trace(&mut self) -> Vec<(usize, usize)> {
        self.trace_log.take().unwrap_or_default()
    }

    /// Validate that `access` is conflict-free under the configured scheme:
    /// pattern supported (Table I) and, where required, aligned.
    pub fn check_access(&self, access: ParallelAccess) -> Result<()> {
        self.config
            .scheme
            .check_access(access, self.config.p, self.config.q)
    }

    /// Whether the next access should replay a compiled plan. Tracing
    /// needs per-lane coordinates, so it forces the interpreted path.
    #[inline]
    fn use_plan(&self) -> bool {
        self.planning && self.trace_log.is_none()
    }

    /// Whether bulk operations should replay a compiled region plan.
    /// Tracing forces the per-access path (it needs coordinates).
    #[inline]
    pub(crate) fn use_region_plan(&self) -> bool {
        self.region_planning && self.trace_log.is_none()
    }

    /// Planned parallel read: one bounds check, one tile address, one
    /// gather — the compiled replacement for `prepare` + bank read +
    /// read-data shuffle.
    fn read_planned(&mut self, access: ParallelAccess, out: &mut [T]) -> Result<()> {
        self.check_access(access)?;
        // Plans are per residue class; bounds depend on the actual origin
        // and must be re-checked even on a cache hit.
        self.agu.check_bounds(access)?;
        let base = self.afn.address(access.i, access.j) as isize
            * self.config.layout.base_scale(self.config.lanes());
        let Self {
            plans,
            agu,
            maf,
            afn,
            banks,
            ..
        } = self;
        let plan = plans.get_or_compile(access, agu, maf, afn)?;
        let flat = banks.flat();
        for (o, &f) in out.iter_mut().zip(&plan.fold) {
            *o = flat[(base + f) as usize];
        }
        Ok(())
    }

    /// Planned parallel write: the scatter mirror of [`Self::read_planned`].
    fn write_planned(&mut self, access: ParallelAccess, data: &[T]) -> Result<()> {
        self.check_access(access)?;
        self.agu.check_bounds(access)?;
        let base = self.afn.address(access.i, access.j) as isize
            * self.config.layout.base_scale(self.config.lanes());
        let Self {
            plans,
            agu,
            maf,
            afn,
            banks,
            ..
        } = self;
        let plan = plans.get_or_compile(access, agu, maf, afn)?;
        let flat = banks.flat_mut();
        for (&f, &v) in plan.fold.iter().zip(data) {
            flat[(base + f) as usize] = v;
        }
        Ok(())
    }

    /// Expand an access and compute the shuffle steering signal (`route`)
    /// and per-lane intra-bank addresses into the scratch buffers.
    fn prepare(&mut self, access: ParallelAccess) -> Result<()> {
        self.check_access(access)?;
        self.agu.expand_into(access, &mut self.coords)?;
        if let Some(log) = &mut self.trace_log {
            log.extend_from_slice(&self.coords);
        }
        // Hoist the (Copy) function blocks into locals so the per-lane loop
        // reads registers, not `self` fields.
        let maf = self.maf;
        let afn = self.afn;
        self.route.clear();
        self.lane_addrs.clear();
        for &(i, j) in &self.coords {
            self.route.push(maf.assign_linear(i, j));
            self.lane_addrs.push(afn.address(i, j));
        }
        // Address Shuffle: lane order -> bank order. A BankConflict here can
        // only arise from a broken MAF (surfaced for fault-injection tests).
        let Self {
            xbar,
            route,
            lane_addrs,
            bank_addrs,
            ..
        } = self;
        xbar.scatter(lane_addrs, route, bank_addrs)?;
        Ok(())
    }

    /// Parallel write: store `data` (one element per lane, canonical order)
    /// at the locations of `access`. This is the write port of Fig. 3 with
    /// `WriteEnable` asserted.
    pub fn write(&mut self, access: ParallelAccess, data: &[T]) -> Result<()> {
        let lanes = self.lanes();
        if data.len() != lanes {
            return Err(PolyMemError::WrongLaneCount {
                got: data.len(),
                expected: lanes,
            });
        }
        if self.use_plan() {
            self.write_planned(access, data)?;
        } else {
            self.prepare(access)?;
            // Write Data Shuffle (the paper's inverse shuffle): lane -> bank
            // order.
            let Self {
                xbar,
                route,
                banked,
                banks,
                bank_addrs,
                ..
            } = self;
            xbar.scatter(data, route, banked)?;
            banks.write_all(bank_addrs, banked);
        }
        self.stats.writes += 1;
        self.stats.elements_written += lanes as u64;
        if let Some(t) = &self.tlm {
            t.single_write(lanes);
        }
        Ok(())
    }

    /// Parallel read on `port`, writing the `p*q` elements into `out` in
    /// canonical order. `port` must be below `config.read_ports` — the
    /// software model shares one physical bank array between ports (hardware
    /// replicates BRAM contents; the contents are identical by construction).
    pub fn read_into(&mut self, port: usize, access: ParallelAccess, out: &mut [T]) -> Result<()> {
        if port >= self.config.read_ports {
            return Err(PolyMemError::InvalidPort {
                port,
                ports: self.config.read_ports,
            });
        }
        let lanes = self.lanes();
        if out.len() != lanes {
            return Err(PolyMemError::WrongLaneCount {
                got: out.len(),
                expected: lanes,
            });
        }
        if self.use_plan() {
            self.read_planned(access, out)?;
        } else {
            self.prepare(access)?;
            self.banks.read_all(&self.bank_addrs, &mut self.banked);
            // Read Data Shuffle (regular shuffle): bank order -> lane order.
            self.xbar.gather(&self.banked, &self.route, out);
        }
        self.stats.reads += 1;
        self.stats.elements_read += lanes as u64;
        if let Some(t) = &self.tlm {
            t.single_read(port, lanes);
        }
        Ok(())
    }

    /// Allocating convenience wrapper around [`Self::read_into`].
    pub fn read(&mut self, port: usize, access: ParallelAccess) -> Result<Vec<T>> {
        let mut out = vec![T::default(); self.lanes()];
        self.read_into(port, access, &mut out)?;
        Ok(out)
    }

    /// Simultaneous read + write in one cycle (independent ports, paper
    /// §III-B). The read observes the memory state *before* the write
    /// commits, matching the hardware's read-old port semantics.
    pub fn read_write(
        &mut self,
        read_port: usize,
        read_access: ParallelAccess,
        out: &mut [T],
        write_access: ParallelAccess,
        data: &[T],
    ) -> Result<()> {
        self.read_into(read_port, read_access, out)?;
        self.write(write_access, data)
    }

    /// Host-side scalar read of logical element `(i, j)` (bypasses the
    /// parallel ports; for validation and single-element probes — bulk
    /// host transfers use [`Self::dump_rows_into`]).
    pub fn get(&self, i: usize, j: usize) -> Result<T> {
        self.check_coord(i, j)?;
        let bank = self.maf.assign_linear(i, j);
        Ok(self.banks.read(bank, self.afn.address(i, j)))
    }

    /// Host-side scalar write of logical element `(i, j)` (the write
    /// mirror of [`Self::get`]; bulk host transfers use
    /// [`Self::load_rows`]).
    pub fn set(&mut self, i: usize, j: usize, value: T) -> Result<()> {
        self.check_coord(i, j)?;
        let bank = self.maf.assign_linear(i, j);
        self.banks.write(bank, self.afn.address(i, j), value);
        Ok(())
    }

    /// Check that `len` elements are whole rows lying inside the logical
    /// space from `first_row` on, and split those rows at `(a, b, end)`:
    /// rows `first_row..a` and `b..end` are the unaligned head and tail,
    /// `a..b` whole `p`-row strips. With region planning off every row is
    /// head, so the per-element path serves the whole call.
    fn row_strips(&self, first_row: usize, len: usize) -> Result<(usize, usize, usize)> {
        let (rows, cols, p) = (self.config.rows, self.config.cols, self.config.p);
        if !len.is_multiple_of(cols) {
            return Err(PolyMemError::WrongLaneCount {
                got: len,
                expected: len.next_multiple_of(cols),
            });
        }
        if len == 0 {
            return Ok((first_row, first_row, first_row));
        }
        let end = first_row.saturating_add(len / cols);
        if end > rows {
            return Err(PolyMemError::OutOfBounds {
                i: end as i64 - 1,
                j: cols as i64 - 1,
                rows,
                cols,
            });
        }
        if !self.use_region_plan() {
            return Ok((end, end, end));
        }
        let a = first_row.next_multiple_of(p).min(end);
        Ok((a, a + (end - a) / p * p, end))
    }

    /// The `p`-row strip region starting at row `i`: a `Block` whose
    /// canonical order is row-major, so one strip of host data replays
    /// through one cached plan (strip origins fall in at most `q` residue
    /// classes).
    fn strip_region(&self, i: usize) -> Region {
        Region::new(
            "__strip",
            i,
            0,
            RegionShape::Block {
                rows: self.config.p,
                cols: self.config.cols,
            },
        )
    }

    /// Host-side fill of whole logical rows: `data` holds rows
    /// `first_row ..` in row-major order (`data.len()` a multiple of
    /// `cols`). Each `p`-aligned strip of `p` rows replays one cached strip
    /// region plan; unaligned head and tail rows, and every row when
    /// region planning is off, take the [`Self::set`] path. Like `set` and
    /// [`Self::load_row_major`] it stages host data outside the ports: no
    /// port or region-traffic counters move and no spans are recorded.
    ///
    /// Returns [`PolyMemError::WrongLaneCount`] for a partial row and
    /// [`PolyMemError::OutOfBounds`] for rows past the end, writing
    /// nothing in either case. An empty slice is a no-op.
    pub fn load_rows(&mut self, first_row: usize, data: &[T]) -> Result<()> {
        let (a, b, end) = self.row_strips(first_row, data.len())?;
        let cols = self.config.cols;
        let at = |i: usize| (i - first_row) * cols;
        for i in (first_row..a).chain(b..end) {
            for (j, &v) in data[at(i)..at(i) + cols].iter().enumerate() {
                self.set(i, j, v)?;
            }
        }
        let mut strip = self.strip_region(a);
        for rows in data[at(a)..at(b)].chunks_exact(self.config.p * cols) {
            let plan = self.region_plan_for(&strip)?;
            let base = self.afn.address(strip.i, 0) as isize;
            plan.scatter_from(self.banks.flat_mut(), base, rows);
            strip.i += self.config.p;
        }
        Ok(())
    }

    /// Host-side drain of whole logical rows into `out` (row-major, rows
    /// `first_row ..`): the read mirror of [`Self::load_rows`], with the
    /// same strip replay, per-element [`Self::get`] fallback, errors and
    /// absence of port accounting. `&mut self` because a strip plan may
    /// compile on first use.
    pub fn dump_rows_into(&mut self, first_row: usize, out: &mut [T]) -> Result<()> {
        let (a, b, end) = self.row_strips(first_row, out.len())?;
        let cols = self.config.cols;
        let at = |i: usize| (i - first_row) * cols;
        for i in (first_row..a).chain(b..end) {
            for (j, o) in out[at(i)..at(i) + cols].iter_mut().enumerate() {
                *o = self.get(i, j)?;
            }
        }
        let mut strip = self.strip_region(a);
        for rows in out[at(a)..at(b)].chunks_exact_mut(self.config.p * cols) {
            let plan = self.region_plan_for(&strip)?;
            let base = self.afn.address(strip.i, 0) as isize;
            plan.gather_into(self.banks.flat(), base, rows);
            strip.i += self.config.p;
        }
        Ok(())
    }

    /// The whole logical space as one Block region (always a legal region:
    /// `rows % p == 0` and `cols % q == 0` by config validation), whose
    /// canonical element order is exactly row-major.
    pub(crate) fn whole_region(&self) -> Region {
        Region::new(
            "__whole",
            0,
            0,
            RegionShape::Block {
                rows: self.config.rows,
                cols: self.config.cols,
            },
        )
    }

    /// Fill the whole logical space from a row-major slice of
    /// `rows * cols` elements (the paper's DSE validation fill).
    ///
    /// With region planning on this replays the whole-space region plan —
    /// one run-coalesced scatter instead of `rows * cols` MAF/addressing
    /// evaluations — and leaves that plan cached for
    /// [`Self::dump_row_major`] and scheme conversions.
    pub fn load_row_major(&mut self, data: &[T]) -> Result<()> {
        let n = self.config.capacity_elems();
        if data.len() != n {
            return Err(PolyMemError::WrongLaneCount {
                got: data.len(),
                expected: n,
            });
        }
        if self.use_region_plan() {
            let whole = self.whole_region();
            let plan = self.region_plan_for(&whole)?;
            plan.scatter_from(self.banks.flat_mut(), 0, data);
            return Ok(());
        }
        for i in 0..self.config.rows {
            for j in 0..self.config.cols {
                let bank = self.maf.assign_linear(i, j);
                self.banks
                    .write(bank, self.afn.address(i, j), data[i * self.config.cols + j]);
            }
        }
        Ok(())
    }

    /// Dump the whole logical space to a row-major `Vec`.
    ///
    /// Replays the cached whole-space region plan (run-coalesced gather)
    /// when one exists — [`Self::load_row_major`] leaves it resident — and
    /// otherwise walks the interpreted per-element path, so the method
    /// stays `&self`.
    pub fn dump_row_major(&self) -> Vec<T> {
        let n = self.config.capacity_elems();
        if self.use_region_plan() {
            if let Some(plan) = self.region_plans.lookup(&self.whole_region()) {
                let mut out = vec![T::default(); n];
                plan.gather_into(self.banks.flat(), 0, &mut out);
                return out;
            }
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..self.config.rows {
            for j in 0..self.config.cols {
                let bank = self.maf.assign_linear(i, j);
                out.push(self.banks.read(bank, self.afn.address(i, j)));
            }
        }
        out
    }

    fn check_coord(&self, i: usize, j: usize) -> Result<()> {
        if i >= self.config.rows || j >= self.config.cols {
            return Err(PolyMemError::OutOfBounds {
                i: i as i64,
                j: j as i64,
                rows: self.config.rows,
                cols: self.config.cols,
            });
        }
        Ok(())
    }

    /// The module assignment function in use (exposed for analysis tools).
    pub fn maf(&self) -> &ModuleAssignment {
        &self.maf
    }

    /// Direct read-only access to bank storage, for analysis tools (e.g.
    /// inspecting per-bank data distribution).
    pub fn banks(&self) -> &BankArray<T> {
        &self.banks
    }
}

/// Patterns usable on this memory — convenience re-export of the scheme query.
pub fn supported_patterns(config: &PolyMemConfig) -> Vec<AccessPattern> {
    config.scheme.supported_patterns(config.p, config.q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{AccessScheme, ParallelAccess as PA};

    fn mem(scheme: AccessScheme) -> PolyMem<u64> {
        PolyMem::new(PolyMemConfig::new(8, 16, 2, 4, scheme, 2).unwrap()).unwrap()
    }

    #[test]
    fn write_then_read_rectangle() {
        let mut m = mem(AccessScheme::ReO);
        let data: Vec<u64> = (100..108).collect();
        m.write(PA::rect(2, 4), &data).unwrap();
        let back = m.read(0, PA::rect(2, 4)).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn unaligned_rectangle_reo() {
        let mut m = mem(AccessScheme::ReO);
        let data: Vec<u64> = (0..8).collect();
        for i in 0..6 {
            for j in 0..12 {
                m.write(PA::rect(i, j), &data).unwrap();
                assert_eq!(m.read(0, PA::rect(i, j)).unwrap(), data, "at ({i},{j})");
            }
        }
    }

    #[test]
    fn row_written_then_read_via_rectangle() {
        // Multiview: write with one pattern, read with another.
        let mut m = mem(AccessScheme::ReRo);
        let row: Vec<u64> = (0..8).collect();
        m.write(PA::row(0, 0), &row).unwrap();
        let rect = m.read(0, PA::rect(0, 0)).unwrap();
        // Rectangle covers rows 0-1, cols 0-3: top half is row[0..4].
        assert_eq!(&rect[0..4], &row[0..4]);
    }

    #[test]
    fn scheme_enforcement() {
        let mut m = mem(AccessScheme::ReO);
        let err = m.read(0, PA::row(0, 0)).unwrap_err();
        assert!(matches!(err, PolyMemError::UnsupportedPattern { .. }));
        let err = m
            .read(0, PA::new(0, 0, AccessPattern::MainDiagonal))
            .unwrap_err();
        assert!(matches!(err, PolyMemError::UnsupportedPattern { .. }));
    }

    #[test]
    fn roco_alignment_enforced() {
        let mut m = mem(AccessScheme::RoCo);
        let data: Vec<u64> = (0..8).collect();
        assert!(m.write(PA::rect(2, 4), &data).is_ok());
        let err = m.write(PA::rect(1, 4), &data).unwrap_err();
        assert!(matches!(err, PolyMemError::Misaligned { .. }));
        // Rows and columns need no alignment.
        assert!(m.write(PA::row(3, 5), &data).is_ok());
        assert!(m.write(PA::col(0, 7), &data).is_ok());
    }

    #[test]
    fn port_bounds() {
        let mut m = mem(AccessScheme::ReO);
        assert!(m.read(1, PA::rect(0, 0)).is_ok());
        let err = m.read(2, PA::rect(0, 0)).unwrap_err();
        assert!(matches!(
            err,
            PolyMemError::InvalidPort { port: 2, ports: 2 }
        ));
    }

    #[test]
    fn wrong_lane_count_rejected() {
        let mut m = mem(AccessScheme::ReO);
        let err = m.write(PA::rect(0, 0), &[1, 2, 3]).unwrap_err();
        assert!(matches!(
            err,
            PolyMemError::WrongLaneCount {
                got: 3,
                expected: 8
            }
        ));
    }

    #[test]
    fn read_write_same_cycle_reads_old_value() {
        let mut m = mem(AccessScheme::ReO);
        let old: Vec<u64> = (0..8).collect();
        let new: Vec<u64> = (100..108).collect();
        m.write(PA::rect(0, 0), &old).unwrap();
        let mut out = vec![0u64; 8];
        m.read_write(0, PA::rect(0, 0), &mut out, PA::rect(0, 0), &new)
            .unwrap();
        assert_eq!(out, old, "read sees pre-write state");
        assert_eq!(m.read(0, PA::rect(0, 0)).unwrap(), new);
    }

    #[test]
    fn scalar_get_set_roundtrip() {
        let mut m = mem(AccessScheme::ReTr);
        m.set(5, 11, 999).unwrap();
        assert_eq!(m.get(5, 11).unwrap(), 999);
        assert!(m.get(8, 0).is_err());
        assert!(m.set(0, 16, 0).is_err());
    }

    #[test]
    fn load_dump_row_major_identity() {
        for scheme in AccessScheme::ALL {
            let mut m = mem(scheme);
            let data: Vec<u64> = (0..8 * 16).collect();
            m.load_row_major(&data).unwrap();
            assert_eq!(m.dump_row_major(), data, "{scheme}");
        }
    }

    #[test]
    fn row_fill_and_drain_match_per_element_oracle() {
        use crate::banks::BankLayout;
        for ((p, q), scheme, _) in crate::region_plan::replay_matrix() {
            let n = 4 * p * q;
            let base: Vec<u64> = (0..(n * n) as u64).map(|k| k * 31 + 7).collect();
            for layout in [BankLayout::BankMajor, BankLayout::AddrInterleaved] {
                let cfg = PolyMemConfig::new(n, n, p, q, scheme, 1)
                    .unwrap()
                    .with_layout(layout);
                // First rows aligned and unaligned to p; k*p and k*p + 1 rows.
                for first in [0, p, 1, p + 1] {
                    for rows in [p, p + 1, 2 * p, 2 * p + 1] {
                        let ctx = format!("{p}x{q} {scheme} {layout:?} rows {first}+{rows}");
                        let data: Vec<u64> =
                            (0..(rows * n) as u64).map(|k| (1 << 32) + k).collect();
                        let mut oracle = PolyMem::<u64>::new(cfg).unwrap();
                        oracle.load_row_major(&base).unwrap();
                        for (k, &v) in data.iter().enumerate() {
                            oracle.set(first + k / n, k % n, v).unwrap();
                        }
                        let want = oracle.dump_row_major();
                        for planning in [true, false] {
                            let mut m = PolyMem::<u64>::new(cfg).unwrap();
                            m.set_region_planning(planning);
                            m.load_row_major(&base).unwrap();
                            m.load_rows(first, &data).unwrap();
                            assert_eq!(m.dump_row_major(), want, "{ctx} fill {planning}");
                            // Drain a span that straddles the filled rows.
                            let from = first.saturating_sub(1);
                            let mut out = vec![0u64; (rows + 1) * n];
                            m.dump_rows_into(from, &mut out).unwrap();
                            let gets: Vec<u64> = (0..out.len())
                                .map(|k| m.get(from + k / n, k % n).unwrap())
                                .collect();
                            assert_eq!(out, gets, "{ctx} drain {planning}");
                            assert_eq!(m.stats(), AccessStats::default(), "{ctx}");
                            // Strip plans: at most q classes beside the
                            // whole-space plan, none with planning off.
                            let plans = m.region_plan_stats().entries;
                            assert!(plans <= q + 1 && (planning || plans == 0), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn row_fill_and_drain_reject_bad_spans_untouched() {
        for planning in [true, false] {
            let mut m = mem(AccessScheme::RoCo);
            m.set_region_planning(planning);
            m.load_row_major(&(0..128).collect::<Vec<u64>>()).unwrap();
            let before = m.dump_row_major();
            // Row 7 exists but row 8 does not: nothing may be written.
            assert!(matches!(
                m.load_rows(7, &[1; 32]),
                Err(PolyMemError::OutOfBounds { i: 8, .. })
            ));
            assert!(matches!(
                m.dump_rows_into(7, &mut [0; 32]),
                Err(PolyMemError::OutOfBounds { i: 8, .. })
            ));
            assert!(matches!(
                m.load_rows(0, &[1; 20]),
                Err(PolyMemError::WrongLaneCount {
                    got: 20,
                    expected: 32
                })
            ));
            assert!(matches!(
                m.dump_rows_into(2, &mut [0; 17]),
                Err(PolyMemError::WrongLaneCount { got: 17, .. })
            ));
            // Empty spans are no-ops, wherever they start.
            m.load_rows(3, &[]).unwrap();
            m.load_rows(100, &[]).unwrap();
            m.dump_rows_into(8, &mut []).unwrap();
            assert_eq!(m.dump_row_major(), before, "planning {planning}");
            assert_eq!(m.stats(), AccessStats::default());
        }
    }

    #[test]
    fn paper_validation_cycle() {
        // The paper's DSE validation: fill with unique values, read back via
        // parallel accesses, compare.
        let mut m = mem(AccessScheme::ReRo);
        let data: Vec<u64> = (0..128).map(|x| x * 7 + 1).collect();
        m.load_row_major(&data).unwrap();
        for i in 0..8 {
            let row0 = m.read(0, PA::row(i, 0)).unwrap();
            let row1 = m.read(0, PA::row(i, 8)).unwrap();
            let expect: Vec<u64> = (0..16).map(|j| data[i * 16 + j]).collect();
            assert_eq!(&row0[..], &expect[..8]);
            assert_eq!(&row1[..], &expect[8..]);
        }
    }

    #[test]
    fn stats_count_accesses() {
        let mut m = mem(AccessScheme::ReO);
        let data: Vec<u64> = (0..8).collect();
        m.write(PA::rect(0, 0), &data).unwrap();
        let _ = m.read(0, PA::rect(0, 0)).unwrap();
        let _ = m.read(1, PA::rect(0, 4)).unwrap();
        let s = m.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 2);
        assert_eq!(s.elements_written, 8);
        assert_eq!(s.elements_read, 16);
        m.reset_stats();
        assert_eq!(m.stats(), AccessStats::default());
    }

    #[test]
    fn transposed_read_of_rectangle_write() {
        let mut m = mem(AccessScheme::ReTr);
        // Write a 2x4 rect at (0,0), read the 4x2 transposed rect at (0,0):
        // overlap is the 2x2 corner.
        let data: Vec<u64> = (1..=8).collect();
        m.write(PA::rect(0, 0), &data).unwrap();
        let t = m
            .read(0, PA::new(0, 0, AccessPattern::TransposedRectangle))
            .unwrap();
        // Transposed-rect lane order: (0,0),(0,1),(1,0),(1,1),(2,0)...
        assert_eq!(t[0], data[0]); // (0,0)
        assert_eq!(t[1], data[1]); // (0,1)
        assert_eq!(t[2], data[4]); // (1,0)
        assert_eq!(t[3], data[5]); // (1,1)
    }

    #[test]
    fn trace_recording_captures_touched_coordinates() {
        let mut m = mem(AccessScheme::RoCo);
        let data: Vec<u64> = (0..8).collect();
        m.write(PA::row(0, 0), &data).unwrap(); // before recording: ignored
        m.start_trace();
        m.write(PA::row(2, 0), &data).unwrap();
        let _ = m.read(0, PA::col(0, 5)).unwrap();
        let trace = m.take_trace();
        assert_eq!(trace.len(), 16, "two accesses x 8 lanes");
        assert_eq!(trace[0], (2, 0));
        assert_eq!(trace[8], (0, 5));
        assert!(!trace.contains(&(0, 0)), "pre-recording access excluded");
        // Recording stopped: nothing further captured.
        let _ = m.read(0, PA::row(2, 0)).unwrap();
        assert!(m.take_trace().is_empty());
    }

    #[test]
    fn supported_patterns_helper() {
        let cfg = PolyMemConfig::new(8, 16, 2, 4, AccessScheme::RoCo, 1).unwrap();
        let pats = supported_patterns(&cfg);
        assert!(pats.contains(&AccessPattern::Row));
        assert!(pats.contains(&AccessPattern::Column));
    }
}
