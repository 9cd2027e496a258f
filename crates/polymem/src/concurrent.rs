//! Multi-port PolyMem driven from many threads through `&self`.
//!
//! Every parallel access of the paper's PolyMem touches each of its `p*q`
//! banks exactly once (§III), so per-bank locks buy no parallelism in
//! software. This façade therefore keeps the storage and replay core of
//! [`crate::PolyMem`]: one flat [`BankArray`] laid out by the
//! configuration's [`crate::BankLayout`], one [`PlanCache`] compiled against
//! that layout, single accesses replayed through their one-access plan's
//! [`RegionPlan::fold`], and region operations replayed on the caller's
//! thread through [`RegionPlan::gather_into`], [`RegionPlan::scatter_from`]
//! and the copy selection [`crate::PolyMem::copy_region`] runs as well.
//!
//! **One lock.** The bank array and the plan cache sit together behind one
//! `RwLock`, and no operation holds two guards at once. A read takes the
//! shared guard, looks its plan up and replays it under that guard; only
//! when the plan is not cached yet does it let go and replay under the
//! exclusive guard, where the miss compiles. Writes and copies take the
//! exclusive guard once, compile under it if they miss, and replay their
//! whole access or region under it. Operations are therefore atomic at
//! access level: a read racing a write sees all of the write or none of
//! it. A plan-cache hit borrows its plan under the guard and writes nothing
//! shared but its hit counter, which it bumps after the guard is released
//! (through [`PlanHits`]), as it does telemetry counters and trace spans.
//!
//! **Concurrency comes from the callers' threads.** Nothing here spawns a
//! thread: [`ConcurrentPolyMem::read_ports`] serves its accesses in port
//! order on the calling thread. Ports as per-cycle arbitration — a read in
//! the same cycle as a write observing the old state — are what the
//! `dfe-sim` crate's `PolyMemKernel` models in cycles; this type is the
//! thread-safe CPU data structure.

use crate::addressing::AddressingFunction;
use crate::agu::Agu;
use crate::banks::BankArray;
use crate::bulk::copy_shape_mismatch;
use crate::config::PolyMemConfig;
use crate::error::{PolyMemError, Result};
use crate::maf::ModuleAssignment;
use crate::mem::MemTracing;
use crate::plan::{PlanCache, PlanCacheStats, PlanHits, PlanKey, PlanTarget};
use crate::region::Region;
use crate::region_plan::{replay_copy, RegionPlan};
use crate::scheme::ParallelAccess;
use crate::sync::{AtomicBool, Ordering, RwLock};
use crate::telemetry::{Counter, TelemetryRegistry};
use crate::tracing::{NameId, SpanId, TraceJournal};

/// Telemetry handles for a [`ConcurrentPolyMem`] (attached via
/// [`ConcurrentPolyMem::attach_telemetry`]).
///
/// Counters are [`Counter`]s — plain `Relaxed` atomics — so any caller
/// thread may bump them through `&self`. Per-bank element counts exploit
/// the conflict-freedom theorem exactly like [`crate::mem::PolyMem`]'s:
/// a single parallel access touches every bank once and every region plan
/// gives each bank exactly `accesses` elements, so singles bump a shared
/// `uniform` base and region operations a shared `region_accesses` base,
/// both of which the registry folds into every bank's exported sample.
#[derive(Debug)]
struct ConcTelemetry {
    reads: Counter,
    writes: Counter,
    elements_read: Counter,
    elements_written: Counter,
    conflicts_avoided: Counter,
    uniform: Counter,
    region_accesses: Counter,
    region_coalesced_bytes: Counter,
    region_strided_bytes: Counter,
}

impl ConcTelemetry {
    /// One conflict-free parallel read of `lanes` elements.
    #[inline]
    fn single_read(&self, lanes: usize) {
        self.reads.inc();
        self.elements_read.add(lanes as u64);
        self.uniform.inc();
        self.conflicts_avoided.add(lanes as u64 - 1);
    }

    /// One conflict-free parallel write of `lanes` elements.
    #[inline]
    fn single_write(&self, lanes: usize) {
        self.writes.inc();
        self.elements_written.add(lanes as u64);
        self.uniform.inc();
        self.conflicts_avoided.add(lanes as u64 - 1);
    }

    /// A region gather of `len` elements in `accesses` conflict-free
    /// accesses.
    fn region_read(&self, accesses: usize, len: usize) {
        self.reads.add(accesses as u64);
        self.elements_read.add(len as u64);
        self.conflicts_avoided.add((len - accesses) as u64);
        self.region_accesses.add(accesses as u64);
    }

    /// A region scatter of `len` elements in `accesses` conflict-free
    /// accesses.
    fn region_write(&self, accesses: usize, len: usize) {
        self.writes.add(accesses as u64);
        self.elements_written.add(len as u64);
        self.conflicts_avoided.add((len - accesses) as u64);
        self.region_accesses.add(accesses as u64);
    }

    /// Attribute one region replay's bytes to the coalesced (block moves)
    /// vs strided (lane by lane) buckets.
    #[inline]
    fn region_bytes(&self, (coalesced, strided): (u64, u64)) {
        self.region_coalesced_bytes.add(coalesced);
        self.region_strided_bytes.add(strided);
    }
}

/// What the one storage guard covers: the bank array and the plans
/// compiled against it.
#[derive(Debug)]
struct Store<T> {
    banks: BankArray<T>,
    plans: PlanCache,
}

/// A PolyMem whose ports can be driven from multiple threads through `&self`.
#[derive(Debug)]
pub struct ConcurrentPolyMem<T> {
    config: PolyMemConfig,
    maf: ModuleAssignment,
    afn: AddressingFunction,
    agu: Agu,
    /// The bank array, flat in `config.layout`, and its plan cache: the one
    /// lock every operation takes.
    storage: RwLock<Store<T>>,
    /// The plan cache's hit counters, bumped after the guard is released.
    hits: PlanHits,
    planning: AtomicBool,
    /// Telemetry handles, when attached. `None` costs one branch per
    /// operation and nothing else.
    tlm: Option<ConcTelemetry>,
    /// Trace-journal handles, when attached (same cost model as `tlm`).
    /// Journal writes are *never* issued while the storage guard is held:
    /// a replay span begins before the guard is acquired (so it includes
    /// the wait for it) and ends after the guard is released, and the
    /// plan-cache instant follows it. `polymem-verify`'s telemetry pass
    /// enforces this textually (no tracing site inside a held
    /// storage-guard scope).
    trc: Option<MemTracing>,
}

impl<T: Copy + Default + Send + Sync> ConcurrentPolyMem<T> {
    /// Build from a validated configuration.
    pub fn new(config: PolyMemConfig) -> Result<Self> {
        config.validate()?;
        let (lanes, depth, layout) = (config.lanes(), config.bank_depth(), config.layout);
        let plans = PlanCache::new(lanes, depth, layout);
        Ok(Self {
            config,
            maf: ModuleAssignment::new(config.scheme, config.p, config.q),
            afn: AddressingFunction::new(config.p, config.q, config.rows, config.cols),
            agu: Agu::new(config.p, config.q, config.rows, config.cols),
            hits: plans.hits(),
            storage: RwLock::new(Store {
                banks: BankArray::with_layout(lanes, depth, layout),
                plans,
            }),
            planning: AtomicBool::new(true),
            tlm: None,
            trc: None,
        })
    }

    /// Register this memory's datapath counters with `registry` and start
    /// counting. Exported metrics are prefixed `polymem_conc_` (aggregate
    /// reads/writes/elements/conflicts-avoided, per-bank element counts)
    /// plus the plan-cache counters of every access pattern
    /// (`cache="conc-<pattern>"`) and of region plans
    /// (`cache="conc-region"`). Takes `&mut self`, so attachment happens
    /// while no other thread uses the memory; counting itself is `&self`
    /// and thread-safe.
    pub fn attach_telemetry(&mut self, registry: &TelemetryRegistry) {
        let uniform = registry.counter("polymem_conc_uniform_accesses_total", Vec::new());
        let region_accesses = registry.counter("polymem_conc_region_accesses_total", Vec::new());
        // Every bank's element count is base traffic only: the per-bank
        // handle is dropped, nothing writes to it directly.
        for b in 0..self.config.lanes() {
            let _ = registry.counter_with_bases(
                "polymem_conc_bank_elements_total",
                vec![("bank", b.to_string())],
                &[&uniform, &region_accesses],
            );
        }
        self.tlm = Some(ConcTelemetry {
            reads: registry.counter("polymem_conc_reads_total", Vec::new()),
            writes: registry.counter("polymem_conc_writes_total", Vec::new()),
            elements_read: registry.counter("polymem_conc_elements_read_total", Vec::new()),
            elements_written: registry.counter("polymem_conc_elements_written_total", Vec::new()),
            conflicts_avoided: registry.counter("polymem_conc_conflicts_avoided_total", Vec::new()),
            uniform,
            region_accesses,
            region_coalesced_bytes: registry
                .counter("polymem_conc_region_coalesced_bytes_total", Vec::new()),
            region_strided_bytes: registry
                .counter("polymem_conc_region_strided_bytes_total", Vec::new()),
        });
        self.storage.get_mut().plans.register_telemetry(
            registry,
            |pattern| format!("conc-{}", pattern.name()),
            "conc-region",
        );
    }

    /// Stop counting into a previously attached registry (already exported
    /// values stay visible there).
    pub fn detach_telemetry(&mut self) {
        self.tlm = None;
    }

    /// Start recording causal spans into `journal` on the named track:
    /// region-plan hit/miss instants, and one span per region replay
    /// (`region-replay` for `read_region`/`write_region`, `copy-replay`
    /// for `copy_region`), the same names [`crate::PolyMem`] records. A
    /// span covers the wait for the storage guard and the replay under it.
    /// Takes `&mut self` (attach while no other thread uses the memory);
    /// recording itself is `&self` and thread-safe. Journal writes never
    /// happen under the storage guard (see the `trc` field).
    pub fn attach_tracing(&mut self, journal: &TraceJournal, track: &str) {
        self.trc = Some(MemTracing::new(journal, track));
    }

    /// Stop recording spans (already-recorded journal events remain).
    pub fn detach_tracing(&mut self) {
        self.trc = None;
    }

    /// The configuration.
    pub fn config(&self) -> &PolyMemConfig {
        &self.config
    }

    /// Enable or disable the compiled-plan fast path (enabled by default).
    /// Callable from any thread; in-flight accesses finish on the path they
    /// started on.
    pub fn set_planning(&self, enabled: bool) {
        self.planning.store(enabled, Ordering::Relaxed);
    }

    /// Whether accesses go through compiled plans.
    #[inline]
    pub fn planning(&self) -> bool {
        self.planning.load(Ordering::Relaxed)
    }

    /// Single-access plan activity, summed over the access patterns.
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.storage.read().plans.access_stats()
    }

    /// Region-plan activity.
    pub fn region_plan_stats(&self) -> PlanCacheStats {
        self.storage.read().plans.region_stats()
    }

    /// Replay `f` on the plan of `target` under the shared guard when the
    /// plan is cached; otherwise let go and replay under the exclusive
    /// guard, under which the miss compiles. Returns `f`'s result and
    /// whether this call compiled the plan. A hit is counted after the
    /// guard is released.
    fn replay<R>(
        &self,
        target: PlanTarget<'_>,
        f: impl FnOnce(&RegionPlan, &[T]) -> R,
    ) -> Result<(R, bool)> {
        let key = PlanKey::of(target, self.config.lanes());
        {
            let store = self.storage.read();
            if let Some(plan) = store.plans.peek(&key) {
                let r = f(plan, store.banks.flat());
                drop(store);
                self.hits.count(&key);
                return Ok((r, false));
            }
        }
        let mut store = self.storage.write();
        let Store { banks, plans } = &mut *store;
        let (plan, compiled) = plans.get_or_compile(target, &self.agu, &self.maf, &self.afn)?;
        Ok((f(plan, banks.flat()), compiled))
    }

    /// Replay `f` on the plan of `target` under the exclusive guard,
    /// compiling it there on a miss. Returns `f`'s result and whether this
    /// call compiled the plan. A hit is counted after the guard is
    /// released.
    fn replay_mut<R>(
        &self,
        target: PlanTarget<'_>,
        f: impl FnOnce(&RegionPlan, &mut [T]) -> R,
    ) -> Result<(R, bool)> {
        let key = PlanKey::of(target, self.config.lanes());
        let (r, looked_up) = {
            let mut store = self.storage.write();
            let Store { banks, plans } = &mut *store;
            match plans.peek(&key) {
                Some(plan) => (f(plan, banks.flat_mut()), None),
                None => {
                    let (plan, compiled) =
                        plans.get_or_compile(target, &self.agu, &self.maf, &self.afn)?;
                    (f(plan, banks.flat_mut()), Some(compiled))
                }
            }
        };
        if looked_up.is_none() {
            self.hits.count(&key);
        }
        Ok((r, looked_up.unwrap_or(false)))
    }

    /// The flat slot a bounds-checked `access`'s fold offsets are relative
    /// to (`A(origin)` scaled by the layout).
    fn access_base(&self, access: ParallelAccess) -> Result<isize> {
        self.agu.check_bounds(access)?;
        let scale = self.config.layout.base_scale(self.config.lanes());
        Ok(self.afn.address(access.i, access.j) as isize * scale)
    }

    fn check_access(&self, access: ParallelAccess) -> Result<()> {
        self.config
            .scheme
            .check_access(access, self.config.p, self.config.q)
    }

    /// Parallel read through any read port; callable concurrently from many
    /// threads. The whole access is read under one guard.
    pub fn read(&self, access: ParallelAccess) -> Result<Vec<T>> {
        self.check_access(access)?;
        let mut out = Vec::with_capacity(self.config.lanes());
        if self.planning() {
            let base = self.access_base(access)?;
            let gather = |plan: &RegionPlan, flat: &[T]| {
                out.extend(plan.fold.iter().map(|&f| flat[(base + f) as usize]));
            };
            self.replay(PlanTarget::Access(access), gather)?;
        } else {
            let coords = self.agu.expand(access)?;
            let store = self.storage.read();
            for (i, j) in coords {
                let (bank, addr) = (self.maf.assign_linear(i, j), self.afn.address(i, j));
                out.push(store.banks.read(bank, addr));
            }
        }
        if let Some(t) = &self.tlm {
            t.single_read(out.len());
        }
        Ok(out)
    }

    /// Parallel write through the write port; callable concurrently with
    /// readers, who see all of it or none of it (see module docs).
    pub fn write(&self, access: ParallelAccess, data: &[T]) -> Result<()> {
        let lanes = self.config.lanes();
        if data.len() != lanes {
            return Err(PolyMemError::WrongLaneCount {
                got: data.len(),
                expected: lanes,
            });
        }
        self.check_access(access)?;
        if self.planning() {
            let base = self.access_base(access)?;
            let scatter = |plan: &RegionPlan, flat: &mut [T]| {
                for (&f, &v) in plan.fold.iter().zip(data) {
                    flat[(base + f) as usize] = v;
                }
            };
            self.replay_mut(PlanTarget::Access(access), scatter)?;
        } else {
            let coords = self.agu.expand(access)?;
            let mut store = self.storage.write();
            for ((i, j), &v) in coords.into_iter().zip(data) {
                let (bank, addr) = (self.maf.assign_linear(i, j), self.afn.address(i, j));
                store.banks.write(bank, addr, v);
            }
        }
        if let Some(t) = &self.tlm {
            t.single_write(lanes);
        }
        Ok(())
    }

    /// Read a whole region in canonical element order: one motif-run
    /// gather under one guard, on the calling thread.
    pub fn read_region(&self, region: &Region) -> Result<Vec<T>> {
        let (rows, cols) = (self.config.rows, self.config.cols);
        // An in-bounds region holds at most `capacity` cells, so the output
        // is allocated before the guard is taken, never larger than that.
        let mut out = vec![T::default(); region.len().min(self.config.capacity_elems())];
        let gather = |plan: &RegionPlan, flat: &[T]| {
            plan.check_bounds(region, rows, cols)?;
            let base = self.afn.address(region.i, region.j) as isize;
            plan.gather_into(flat, base, &mut out);
            Ok((plan.accesses, plan.byte_split::<T>()))
        };
        let replay = || {
            self.replay(PlanTarget::Region(region), gather)
                .map(|(r, c)| (r, [c]))
        };
        let (accesses, bytes) = self.traced(|tr| tr.replay, replay)?;
        if let Some(t) = &self.tlm {
            t.region_read(accesses, out.len());
            t.region_bytes(bytes);
        }
        Ok(out)
    }

    /// Write a whole region (values in canonical order): one motif-run
    /// scatter under one exclusive guard.
    pub fn write_region(&self, region: &Region, values: &[T]) -> Result<()> {
        if values.len() != region.len() {
            return Err(PolyMemError::WrongLaneCount {
                got: values.len(),
                expected: region.len(),
            });
        }
        let (rows, cols) = (self.config.rows, self.config.cols);
        let scatter = |plan: &RegionPlan, flat: &mut [T]| {
            plan.check_bounds(region, rows, cols)?;
            let base = self.afn.address(region.i, region.j) as isize;
            plan.scatter_from(flat, base, values);
            Ok((plan.accesses, plan.byte_split::<T>()))
        };
        let replay = || {
            self.replay_mut(PlanTarget::Region(region), scatter)
                .map(|(r, c)| (r, [c]))
        };
        let (accesses, bytes) = self.traced(|tr| tr.replay, replay)?;
        if let Some(t) = &self.tlm {
            t.region_write(accesses, values.len());
            t.region_bytes(bytes);
        }
        Ok(())
    }

    /// Run `replay` (which takes the storage guard) inside the `span`
    /// trace span, begun before the guard is taken and ended after it is
    /// released; then record one plan-cache instant per lookup — a miss
    /// where it compiled, else a hit — and unwrap the replay's result.
    fn traced<R, const N: usize>(
        &self,
        span: fn(&MemTracing) -> NameId,
        replay: impl FnOnce() -> Result<(Result<R>, [bool; N])>,
    ) -> Result<R> {
        let s = self
            .trc
            .as_ref()
            .map(|tr| tr.writer.begin(span(tr), SpanId::NONE));
        let replayed = replay();
        if let (Some(tr), Some(s)) = (&self.trc, s) {
            tr.writer.end(span(tr), s);
        }
        let (result, compiled) = replayed?;
        if let Some(tr) = &self.trc {
            for c in compiled {
                tr.writer.instant(if c { tr.miss } else { tr.hit });
            }
        }
        result
    }

    /// Copy `src` into `dst` (allocating variant of
    /// [`Self::copy_region_with`]).
    pub fn copy_region(&self, src: &Region, dst: &Region) -> Result<()> {
        let mut scratch = Vec::new();
        self.copy_region_with(src, dst, &mut scratch)
    }

    /// Copy `src` into `dst` under one exclusive guard, through the same
    /// copy selection as [`crate::PolyMem::copy_region`]: `copy_within`
    /// block moves for disjoint same-residue-class regions, a canonical
    /// gather+scatter staged in `scratch` for other disjoint same-shape
    /// regions, and the exact access-interleaved order for overlapping or
    /// cross-shape ones, so results match the sequential memory element
    /// for element. `scratch` is reused across calls, so steady-state
    /// copies are allocation-free.
    pub fn copy_region_with(&self, src: &Region, dst: &Region, scratch: &mut Vec<T>) -> Result<()> {
        let (rows, cols) = (self.config.rows, self.config.cols);
        let replay = || {
            let mut store = self.storage.write();
            let Store { banks, plans } = &mut *store;
            plans
                .get_or_compile_pair([src, dst], &self.agu, &self.maf, &self.afn)
                .map(|[(sp, s_compiled), (dp, d_compiled)]| {
                    let copied = if sp.accesses != dp.accesses {
                        Err(copy_shape_mismatch(src, sp.accesses, dst, dp.accesses))
                    } else {
                        sp.check_bounds(src, rows, cols)
                            .and_then(|()| dp.check_bounds(dst, rows, cols))
                            .map(|()| {
                                let flat = banks.flat_mut();
                                let bytes =
                                    replay_copy(flat, &self.afn, (src, sp), (dst, dp), scratch);
                                (sp.accesses, sp.len(), bytes)
                            })
                    };
                    (copied, [s_compiled, d_compiled])
                })
        };
        let (accesses, len, bytes) = self.traced(|tr| tr.copy_replay, replay)?;
        if let Some(t) = &self.tlm {
            t.region_read(accesses, len);
            t.region_write(accesses, len);
            t.region_bytes(bytes);
        }
        Ok(())
    }

    /// Issue one access per read port and collect the results in port
    /// order. The accesses are served one after another on the calling
    /// thread; drive the memory from several threads for concurrency.
    pub fn read_ports(&self, accesses: &[ParallelAccess]) -> Vec<Result<Vec<T>>> {
        if accesses.len() > self.config.read_ports {
            return vec![
                Err(PolyMemError::InvalidPort {
                    port: accesses.len() - 1,
                    ports: self.config.read_ports,
                });
                accesses.len()
            ];
        }
        accesses.iter().map(|&a| self.read(a)).collect()
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

    /// Host-side scalar write.
    pub fn set(&self, i: usize, j: usize, value: T) -> Result<()> {
        self.check_coord(i, j)?;
        let (bank, addr) = (self.maf.assign_linear(i, j), self.afn.address(i, j));
        self.storage.write().banks.write(bank, addr, value);
        Ok(())
    }

    /// Host-side scalar read.
    pub fn get(&self, i: usize, j: usize) -> Result<T> {
        self.check_coord(i, j)?;
        let (bank, addr) = (self.maf.assign_linear(i, j), self.afn.address(i, j));
        Ok(self.storage.read().banks.read(bank, addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionShape;
    use crate::scheme::{AccessScheme, ParallelAccess as PA};
    use std::sync::atomic::AtomicU64;

    fn mem() -> ConcurrentPolyMem<u64> {
        ConcurrentPolyMem::new(PolyMemConfig::new(16, 16, 2, 4, AccessScheme::RoCo, 4).unwrap())
            .unwrap()
    }

    fn fill(m: &ConcurrentPolyMem<u64>) {
        for r in 0..16usize {
            for c in 0..16usize {
                m.set(r, c, (r * 16 + c) as u64).unwrap();
            }
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let m = mem();
        let data: Vec<u64> = (10..18).collect();
        m.write(PA::row(3, 0), &data).unwrap();
        assert_eq!(m.read(PA::row(3, 0)).unwrap(), data);
    }

    #[test]
    fn region_ops_emit_phase_spans_outside_guards() {
        use crate::tracing::{TraceEventKind, TraceJournal};
        let journal = TraceJournal::new(4096);
        let mut m = mem();
        m.attach_tracing(&journal, "conc");
        fill(&m);
        let r = Region::new("b", 0, 0, RegionShape::Block { rows: 4, cols: 8 });
        let vals = m.read_region(&r).unwrap();
        m.write_region(&r, &vals).unwrap();
        // (8, 8) is congruent to (0, 0) mod the period 8: one plan, so the
        // copy replays as store-run block moves.
        let dst = Region::new("b2", 8, 8, RegionShape::Block { rows: 4, cols: 8 });
        m.copy_region(&r, &dst).unwrap();
        let s = journal.snapshot();
        assert!(s.validate_spans().is_empty(), "{:?}", s.validate_spans());
        let spans = s.spans();
        let count = |name: &str| spans.iter().filter(|sp| sp.name == name).count();
        // One span per replay, each opened before the guard is taken and
        // closed after it is released: the read and the write replay, then
        // the copy.
        assert_eq!(count("region-replay"), 2);
        assert_eq!(count("copy-replay"), 1);
        assert_eq!(spans.len(), 3, "{spans:?}");
        let instants = |name: &str| {
            s.events
                .iter()
                .filter(|e| e.kind == TraceEventKind::Instant && e.name == name)
                .count()
        };
        // The first lookup compiles the block class; the write and both
        // sides of the copy hit it.
        assert_eq!(instants("region-plan-miss"), 1);
        assert_eq!(instants("region-plan-hit"), 3);
        m.detach_tracing();
        m.read_region(&r).unwrap();
        m.write_region(&r, &vals).unwrap();
        m.copy_region(&r, &dst).unwrap();
        assert_eq!(journal.snapshot().events.len(), s.events.len());
    }

    #[test]
    fn four_ports_concurrently() {
        let m = mem();
        for r in 0..4usize {
            let data: Vec<u64> = (0..8).map(|k| (r * 100 + k) as u64).collect();
            m.write(PA::row(r, 0), &data).unwrap();
        }
        let results = m.read_ports(&[PA::row(0, 0), PA::row(1, 0), PA::row(2, 0), PA::row(3, 0)]);
        for (r, res) in results.into_iter().enumerate() {
            let got = res.unwrap();
            assert_eq!(got[0], (r * 100) as u64);
            assert_eq!(got[7], (r * 100 + 7) as u64);
        }
    }

    #[test]
    fn too_many_port_accesses_rejected() {
        let m = mem();
        let a = [PA::row(0, 0); 5];
        let results = m.read_ports(&a);
        assert!(results.iter().all(|r| r.is_err()));
    }

    #[test]
    fn concurrent_reader_writer_element_atomicity() {
        // One guard per access makes reads access-atomic: a reader racing
        // a writer sees every lane old or every lane new, never a mix.
        let m = mem();
        let (old, new) = (vec![7u64; 8], vec![13u64; 8]);
        m.write(PA::row(0, 0), &old).unwrap();
        let bad = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..500 {
                    let got = m.read(PA::row(0, 0)).unwrap();
                    if got != old && got != new {
                        bad.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            s.spawn(|| {
                for k in 0..500 {
                    m.write(PA::row(0, 0), if k % 2 == 0 { &new } else { &old })
                        .unwrap();
                }
            });
        });
        assert_eq!(bad.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn planned_path_matches_interpreted() {
        let m = mem();
        fill(&m);
        let accesses = [
            PA::row(3, 8),
            PA::col(5, 9),
            PA::rect(2, 8),
            PA::rect(14, 8),
        ];
        for a in accesses {
            let planned = m.read(a).unwrap();
            m.set_planning(false);
            let interpreted = m.read(a).unwrap();
            m.set_planning(true);
            assert_eq!(planned, interpreted, "{:?}", a.pattern);
        }
        let stats = m.plan_stats();
        assert!(
            stats.misses >= 3,
            "each residue class compiles once: {stats:?}"
        );
        // Planned writes land where interpreted reads expect them.
        let vals: Vec<u64> = (900..908).collect();
        m.write(PA::row(7, 0), &vals).unwrap();
        m.set_planning(false);
        assert_eq!(m.read(PA::row(7, 0)).unwrap(), vals);
        m.set_planning(true);
    }

    #[test]
    fn plan_stats_count_single_access_classes() {
        let m = mem();
        fill(&m);
        let _ = m.read(PA::row(0, 0)).unwrap();
        let _ = m.read(PA::row(0, 0)).unwrap();
        let _ = m.read(PA::col(0, 0)).unwrap();
        // One miss per pattern class, one hit on the repeated row; region
        // plans count apart.
        assert_eq!(m.region_plan_stats().misses, 0);
        let s = m.plan_stats();
        assert_eq!(s.misses, 2, "{s:?}");
        assert_eq!(s.hits, 1, "{s:?}");
        assert_eq!(s.entries, 2, "{s:?}");
    }

    #[test]
    fn region_read_matches_per_access_reads() {
        let m = mem();
        fill(&m);
        let r = Region::new("b", 2, 0, RegionShape::Block { rows: 4, cols: 8 });
        let got = m.read_region(&r).unwrap();
        let want: Vec<u64> = r
            .coords_iter()
            .unwrap()
            .map(|(i, j)| (i * 16 + j) as u64)
            .collect();
        assert_eq!(got, want);
        let s = m.region_plan_stats();
        assert_eq!(s.misses, 1);
        // Repeat: pure cache hit.
        assert_eq!(m.read_region(&r).unwrap(), want);
        assert_eq!(m.region_plan_stats().hits, 1);
    }

    #[test]
    fn region_write_lands_like_element_writes() {
        let m = mem();
        let r = Region::new("col", 0, 5, RegionShape::Col { len: 16 });
        let vals: Vec<u64> = (500..516).collect();
        m.write_region(&r, &vals).unwrap();
        for (k, &v) in vals.iter().enumerate() {
            assert_eq!(m.get(k, 5).unwrap(), v);
        }
        // Neighbours untouched.
        assert_eq!(m.get(0, 4).unwrap(), 0);
        // Length is checked.
        assert!(m.write_region(&r, &vals[..3]).is_err());
    }

    #[test]
    fn region_read_bounds_and_shape_errors() {
        let m = mem();
        let oob = Region::new("b", 14, 0, RegionShape::Block { rows: 4, cols: 8 });
        assert!(matches!(
            m.read_region(&oob),
            Err(PolyMemError::OutOfBounds { .. })
        ));
        // RoCo cannot serve diagonals.
        let diag = Region::new("d", 0, 0, RegionShape::MainDiag { len: 8 });
        assert!(matches!(
            m.read_region(&diag),
            Err(PolyMemError::UnsupportedPattern { .. })
        ));
    }

    #[test]
    fn large_region_read_runs_inline() {
        // A 64x64 block region of 4096 elements replays on the caller's
        // thread like any other.
        let m = ConcurrentPolyMem::<u64>::new(
            PolyMemConfig::new(64, 64, 2, 4, AccessScheme::RoCo, 4).unwrap(),
        )
        .unwrap();
        for r in 0..64usize {
            for c in 0..64usize {
                m.set(r, c, (r * 64 + c) as u64).unwrap();
            }
        }
        let r = Region::new("all", 0, 0, RegionShape::Block { rows: 64, cols: 64 });
        let got = m.read_region(&r).unwrap();
        let want: Vec<u64> = (0..64 * 64).collect();
        assert_eq!(got, want);
    }

    fn rero(rows: usize, cols: usize) -> ConcurrentPolyMem<u64> {
        let m = ConcurrentPolyMem::<u64>::new(
            PolyMemConfig::new(rows, cols, 2, 4, AccessScheme::ReRo, 4).unwrap(),
        )
        .unwrap();
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, (r * cols + c) as u64).unwrap();
            }
        }
        m
    }

    #[test]
    fn secondary_diag_region_reaching_column_zero() {
        // A secondary diagonal of length L at origin (i, j) walks left to
        // column j - (L - 1); j = L - 1 is the tightest in-bounds origin
        // and its last element sits on column 0.
        let m = rero(16, 16);
        let r = Region::new("sd", 0, 7, RegionShape::SecondaryDiag { len: 8 });
        let got = m.read_region(&r).unwrap();
        let want: Vec<u64> = (0..8).map(|k| (k * 16 + (7 - k)) as u64).collect();
        assert_eq!(got, want);
        // Full anti-diagonal of the array: (15, 0) is the corner element.
        let full = Region::new("sd16", 0, 15, RegionShape::SecondaryDiag { len: 16 });
        let got = m.read_region(&full).unwrap();
        assert_eq!(got[15], 15 * 16);
    }

    #[test]
    fn secondary_diag_region_write_at_boundary_roundtrips() {
        let m = rero(16, 16);
        let r = Region::new("sd", 8, 7, RegionShape::SecondaryDiag { len: 8 });
        let vals: Vec<u64> = (700..708).collect();
        m.write_region(&r, &vals).unwrap();
        assert_eq!(m.read_region(&r).unwrap(), vals);
        for (k, &v) in vals.iter().enumerate() {
            assert_eq!(m.get(8 + k, 7 - k).unwrap(), v);
        }
        // The column-0 neighbour of the last element is untouched.
        assert_eq!(m.get(14, 0).unwrap(), 14 * 16);
    }

    #[test]
    fn secondary_diag_region_past_column_zero_is_out_of_bounds() {
        // One column short of the boundary origin must fail cleanly (the
        // leftward walk would need column -1), with no panic and no
        // poisoned cache state for subsequent valid reads.
        let m = rero(16, 16);
        for j in [0usize, 3, 6] {
            let r = Region::new("oob", 0, j, RegionShape::SecondaryDiag { len: 8 });
            assert!(
                matches!(m.read_region(&r), Err(PolyMemError::OutOfBounds { .. })),
                "origin column {j}"
            );
        }
        let ok = Region::new("ok", 0, 7, RegionShape::SecondaryDiag { len: 8 });
        assert!(m.read_region(&ok).is_ok());
    }

    #[test]
    fn large_secondary_diag_region_runs_inline_at_boundary() {
        // A 256-element anti-diagonal replays right up to the (255, 0)
        // corner.
        let n = 256usize;
        let m = rero(n, n);
        let r = Region::new("sd", 0, n - 1, RegionShape::SecondaryDiag { len: n });
        let got = m.read_region(&r).unwrap();
        let want: Vec<u64> = (0..n).map(|k| (k * n + (n - 1 - k)) as u64).collect();
        assert_eq!(got, want);
        let vals: Vec<u64> = (0..n as u64).map(|v| v + 9000).collect();
        m.write_region(&r, &vals).unwrap();
        assert_eq!(m.read_region(&r).unwrap(), vals);
    }

    #[test]
    fn origins_near_usize_max_return_out_of_bounds() {
        // Origin arithmetic must not wrap past the bounds checks: on both
        // façades and every path, each access and region whose reach
        // overflows `usize` is out of bounds and all 256 cells stay put.
        let col = |i| Region::new("c", i, 0, RegionShape::Col { len: 8 });
        let block = Region::new(
            "b",
            usize::MAX - 2,
            0,
            RegionShape::Block { rows: 4, cols: 8 },
        );
        let oob = |r: Result<()>| matches!(r, Err(PolyMemError::OutOfBounds { .. }));
        let cells: Vec<u64> = (0..256).collect();
        for (planning, regions) in [(true, true), (true, false), (false, false)] {
            let (mut seq, conc) = (crate::PolyMem::new(*mem().config()).unwrap(), mem());
            seq.set_planning(planning);
            seq.set_region_planning(regions);
            seq.load_row_major(&cells).unwrap();
            conc.set_planning(planning);
            fill(&conc);
            assert!(oob(seq.write(PA::col(usize::MAX - 3, 0), &[7; 8])));
            assert!(oob(conc.write(PA::col(usize::MAX - 3, 0), &[7; 8])));
            assert!(oob(seq.read(0, PA::row(usize::MAX, 0)).map(drop)));
            assert!(oob(conc.read(PA::row(usize::MAX, 0)).map(drop)));
            // A hit on the class compiled at row 7, then a first compile.
            seq.read_region(0, &col(7)).unwrap();
            conc.read_region(&col(7)).unwrap();
            for r in [col(usize::MAX), block.clone()] {
                let vals = vec![7; r.len()];
                assert!(oob(seq.read_region(0, &r).map(drop)));
                assert!(oob(conc.read_region(&r).map(drop)));
                assert!(oob(seq.write_region(&r, &vals)));
                assert!(oob(conc.write_region(&r, &vals)));
            }
            assert!(oob(seq.copy_region(0, &col(7), &col(usize::MAX))));
            assert!(oob(conc.copy_region(&col(7), &col(usize::MAX))));
            let dump: Vec<u64> = (0..256)
                .map(|k| conc.get(k / 16, k % 16).unwrap())
                .collect();
            assert_eq!((seq.dump_row_major(), dump), (cells.clone(), cells.clone()));
        }
    }

    #[test]
    fn scalar_access_and_bounds() {
        let m = mem();
        m.set(5, 5, 42).unwrap();
        assert_eq!(m.get(5, 5).unwrap(), 42);
        assert!(m.get(16, 0).is_err());
        assert!(m.set(0, 16, 1).is_err());
    }

    #[test]
    fn scheme_checks_apply() {
        let m = mem(); // RoCo
        assert!(m
            .read(PA::new(0, 0, crate::scheme::AccessPattern::MainDiagonal))
            .is_err());
        assert!(m.read(PA::rect(1, 1)).is_err()); // misaligned RoCo rect
        assert!(m.read(PA::rect(2, 4)).is_ok());
    }

    /// copy_region parity under racing writers: a writer hammers a third
    /// disjoint region while copies move src into a same-class destination
    /// (the store-run `copy_within` path) and a cross-class one (the
    /// canonical gather + scatter path). Afterwards both destinations hold
    /// exactly src's content, src is untouched, and the hammered region
    /// holds the writer's final values.
    #[test]
    fn copy_region_parity_under_racing_writers() {
        let cfg = PolyMemConfig::new(32, 64, 2, 4, AccessScheme::RoCo, 4).unwrap();
        let m = ConcurrentPolyMem::<u64>::new(cfg).unwrap();
        for i in 0..32usize {
            for j in 0..64usize {
                m.set(i, j, (i * 64 + j) as u64).unwrap();
            }
        }
        let shape = RegionShape::Block { rows: 8, cols: 32 };
        let src = Region::new("s", 0, 0, shape);
        let hot = Region::new("w", 8, 0, shape);
        // (16, 0) is congruent to (0, 0) mod the period 8: same plan Arc.
        let dst_same = Region::new("d0", 16, 0, shape);
        // (24, 4) is a different residue class: staged gather + scatter.
        let dst_cross = Region::new("d1", 24, 4, shape);
        let (started, stop) = (AtomicBool::new(false), AtomicBool::new(false));
        let writer_vals: Vec<u64> = (0..hot.len() as u64).map(|k| 0xdead_0000 + k).collect();
        std::thread::scope(|s| {
            s.spawn(|| loop {
                m.write_region(&hot, &writer_vals).unwrap();
                started.store(true, Ordering::Relaxed);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            });
            // Copy only once the writer is running, so the two race.
            while !started.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
            for _ in 0..50 {
                m.copy_region(&src, &dst_same).unwrap();
                m.copy_region(&src, &dst_cross).unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        for i in 0..8usize {
            for j in 0..32usize {
                let want = (i * 64 + j) as u64;
                assert_eq!(m.get(i, j).unwrap(), want, "src ({i},{j})");
                assert_eq!(m.get(16 + i, j).unwrap(), want, "dst_same ({i},{j})");
                assert_eq!(m.get(24 + i, 4 + j).unwrap(), want, "dst_cross ({i},{j})");
                assert_eq!(
                    m.get(8 + i, j).unwrap(),
                    0xdead_0000 + (i * 32 + j) as u64,
                    "hot ({i},{j})"
                );
            }
        }
    }
}
