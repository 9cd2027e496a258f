//! The plan cache: every compiled transfer, one parallel access or a whole
//! region, memoised per residue class.
//!
//! Every per-lane quantity the interpreted pipeline computes — the AGU's
//! coordinate offsets, the MAF's bank choice, the addressing function's
//! intra-bank address, the crossbar routing — is **periodic in the access
//! origin** with period `N = p*q` in both `i` and `j`:
//!
//! * the AGU offsets `(di_k, dj_k)` of lane `k` depend only on the pattern;
//! * every MAF term is one of `i mod p`, `j mod q`, `(i/p) mod q`,
//!   `(j/q) mod p`, `(i/p) mod r`, `(j/p) mod r` (with `r | q`), all of
//!   which are invariant under `i -> i + N`, `j -> j + N`;
//! * the intra-bank address `A(i0+di, j0+dj) - A(i0, j0)` telescopes to
//!   `((i0 mod p + di) / p) * tile_cols + floor((j0 mod q + dj) / q)`,
//!   a function of `(i0 mod p, j0 mod q)` only (signed: the secondary
//!   diagonal walks `j` leftward).
//!
//! So all routing for a `(pattern, i0 mod N, j0 mod N)` *residue class* can
//! be compiled once — by running the existing [`Agu`] → [`ModuleAssignment`]
//! → [`AddressingFunction`] → [`crate::Crossbar`] blocks — into a one-access
//! [`RegionPlan`] ([`RegionPlan::compile_access`]) whose canonical order is
//! the AGU lane order: per-lane flat storage offsets relative to the
//! origin's aligned tile. Replaying it turns a parallel access into a bounds
//! check, one tile address computation, and a single gather/scatter loop
//! with one add per lane — no per-lane div/mod, no crossbar traversal.
//! Whole regions compile per `(shape, residue)` class by composing the
//! cached single-access plans of their accesses ([`RegionPlan::compile`]).
//!
//! The Table I check is periodic too: support depends on the pattern
//! alone, and every alignment rule is modulo `p` or `q`, both of which
//! divide `N`. So a caller that keeps a copy of its last class's plan (an
//! [`crate::AccessReplay`]) replays the next access of that class after a
//! bounds check alone, without the check or the cache probe.
//!
//! [`PlanCache`] memoises both kinds in one map under one [`PlanKey`]. The
//! interpreted pipeline stays in [`crate::mem`] as the oracle: plans are
//! verified against it at compile time, and `proptest` equivalence suites
//! assert bit-identical behaviour across every (scheme, pattern) pair.

use crate::addressing::AddressingFunction;
use crate::agu::Agu;
use crate::banks::BankLayout;
use crate::error::{PolyMemError, Result};
use crate::maf::ModuleAssignment;
use crate::region::{Region, RegionShape};
use crate::region_plan::RegionPlan;
use crate::scheme::{AccessPattern, ParallelAccess};
use crate::telemetry::{Counter, Histogram, Label, TelemetryRegistry};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiply-rotate hasher (the rustc-hash construction) for [`PlanKey`]s.
/// The key is a few small integers, so the default SipHash costs more than
/// the gather it guards; plan-cache lookups are on every planned access.
#[derive(Default)]
pub struct PlanKeyHasher {
    hash: u64,
}

impl PlanKeyHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for PlanKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.add(x as u64);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }
}

type PlanMap = HashMap<PlanKey, RegionPlan, BuildHasherDefault<PlanKeyHasher>>;

/// What a plan moves: one parallel access, or a whole region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanShape {
    /// One parallel access of the pattern. A transposed rectangle has no
    /// region shape, and a rectangle access stays apart from a
    /// `Block { rows: p, cols: q }` region: the two kinds count separately.
    Access(AccessPattern),
    /// A whole region, sizes included.
    Region(RegionShape),
}

/// Tally index of every region plan; single accesses tally per pattern
/// below it.
const REGIONS: usize = AccessPattern::COUNT;

impl PlanShape {
    /// The statistics tally this shape counts into.
    #[inline]
    fn tally(self) -> usize {
        match self {
            PlanShape::Access(pattern) => pattern.index(),
            PlanShape::Region(_) => REGIONS,
        }
    }
}

/// Identity of one residue class: the same [`PlanShape`] at origins
/// congruent mod `p*q` in both coordinates shares identical routing. The
/// key carries its hash, computed once by [`Self::of`], so a cache probe
/// under a lock does not rehash it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanKey {
    /// What the plan moves.
    pub shape: PlanShape,
    /// `i0 mod (p*q)`.
    pub ri: u32,
    /// `j0 mod (p*q)`.
    pub rj: u32,
    hash: u64,
}

impl Hash for PlanKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PlanKey {
    /// The residue class of `target` for a memory with `period = p*q`.
    #[inline]
    pub fn of(target: PlanTarget<'_>, period: usize) -> Self {
        let (shape, i, j) = match target {
            PlanTarget::Access(a) => (PlanShape::Access(a.pattern), a.i, a.j),
            PlanTarget::Region(r) => (PlanShape::Region(r.shape), r.i, r.j),
        };
        let (ri, rj) = (residue(i, period) as u32, residue(j, period) as u32);
        let mut h = PlanKeyHasher::default();
        (shape, ri, rj).hash(&mut h);
        Self {
            shape,
            ri,
            rj,
            hash: h.finish(),
        }
    }
}

/// `x mod period`. Every planned access reduces its origin, and the
/// paper's grids have power-of-two periods, where a mask replaces the
/// division.
#[inline]
pub(crate) fn residue(x: usize, period: usize) -> usize {
    if period.is_power_of_two() {
        x & (period - 1)
    } else {
        x % period
    }
}

/// The transfer a plan is compiled for: its origin is the representative
/// of the residue class.
#[derive(Debug, Clone, Copy)]
pub enum PlanTarget<'a> {
    /// One parallel access.
    Access(ParallelAccess),
    /// A whole region.
    Region(&'a Region),
}

/// Activity of one kind of plan (single accesses or regions) in a
/// [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served by an already-compiled plan.
    pub hits: u64,
    /// Lookups that triggered a compilation (failed ones included).
    pub misses: u64,
    /// Plans evicted to stay under the region capacity cap.
    pub evictions: u64,
    /// Plans currently cached.
    pub entries: usize,
    /// Maximum number of region plans the cache holds.
    pub capacity: usize,
    /// Heap bytes held by the cached plans' run tables.
    pub bytes: u64,
}

/// Shared handles on a [`PlanCache`]'s hit counters ([`PlanCache::hits`]):
/// a caller that looks plans up under a lock counts each hit after letting
/// go of it, so the counter's cache line never moves inside the critical
/// section.
#[derive(Debug, Clone)]
pub struct PlanHits([Counter; AccessPattern::COUNT + 1]);

impl PlanHits {
    /// Count one hit on `key`'s class.
    #[inline]
    pub fn count(&self, key: &PlanKey) {
        self.0[key.shape.tally()].inc();
    }
}

/// Counters of one tally. The hit/miss/eviction counters are atomic
/// ([`Counter`]) so a shared-`&self` lookup can count a hit, and so a
/// [`TelemetryRegistry`] can export them live; the rest only changes under
/// `&mut self`.
#[derive(Debug, Default)]
struct Tally {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    entries: usize,
    bytes: u64,
}

impl Clone for Tally {
    fn clone(&self) -> Self {
        // Counters copy by value: the clone starts with the same counts but
        // its own atomics (a registry watching the original keeps watching
        // only the original).
        let copy = |c: &Counter| Counter::from_value(c.get());
        Self {
            hits: copy(&self.hits),
            misses: copy(&self.misses),
            evictions: copy(&self.evictions),
            entries: self.entries,
            bytes: self.bytes,
        }
    }
}

/// Lazy cache of compiled [`RegionPlan`]s, single-access and region, keyed
/// per residue class ([`PlanKey`]).
///
/// Single-access classes are bounded by `6 patterns * (p*q)^2` and never
/// evicted. Region shapes carry sizes, so that key space is unbounded and
/// the cache holds at most `capacity` region plans: a compile at the cap
/// evicts an arbitrary other region plan first (applications use a small
/// fixed set of region shapes, so the default cap of
/// [`Self::DEFAULT_CAPACITY`] is effectively "never evict" — the cap exists
/// so adversarially varied shapes cannot grow the cache without bound).
/// A hit writes nothing but its hit counter.
#[derive(Debug)]
pub struct PlanCache {
    /// Names the cache's current access plans: unique per cache and
    /// renewed by [`Self::clear`], so a copy of a plan taken under it (an
    /// [`crate::AccessReplay`]) is known to be the resident plan while the
    /// two agree.
    generation: u64,
    period: usize,
    depth: usize,
    layout: BankLayout,
    capacity: usize,
    map: PlanMap,
    /// One tally per access pattern, then [`REGIONS`].
    tallies: [Tally; AccessPattern::COUNT + 1],
    /// When telemetry is attached: the length of every motif run a region
    /// compile emits (plans are immutable, so compile time is the one place
    /// run shapes are decided).
    run_hist: Option<Histogram>,
}

impl PlanCache {
    /// Default region capacity: far above any realistic working set of
    /// region shape classes, but finite.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Histogram bucket bounds for motif-run lengths in elements (powers of
    /// two up to a full STREAM-sized row; the overflow bucket catches the
    /// rest).
    pub const RUN_LENGTH_BOUNDS: &'static [u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

    /// Empty cache for a memory with `p*q == period` lanes and banks of
    /// `depth` elements laid out by `layout`, holding at most
    /// [`Self::DEFAULT_CAPACITY`] region plans.
    pub fn new(period: usize, depth: usize, layout: BankLayout) -> Self {
        Self::with_capacity(period, depth, layout, Self::DEFAULT_CAPACITY)
    }

    /// Empty cache bounded to `capacity` region plans (minimum 1: the
    /// current plan must be resident to replay).
    pub fn with_capacity(period: usize, depth: usize, layout: BankLayout, capacity: usize) -> Self {
        Self {
            generation: next_generation(),
            period,
            depth,
            layout,
            capacity: capacity.max(1),
            map: PlanMap::default(),
            tallies: Default::default(),
            run_hist: None,
        }
    }

    /// The generation of the cached access plans (see [`Self::clear`]).
    #[inline]
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// The flat backing layout plans are compiled against.
    #[inline]
    pub fn layout(&self) -> BankLayout {
        self.layout
    }

    /// Lanes per access (`p * q`): the period of every residue class.
    #[inline]
    pub(crate) fn period(&self) -> usize {
        self.period
    }

    /// The cached plan of `key`, without compiling; counts a hit when
    /// present (misses are counted by the compile path). Callable through
    /// `&self`: the hit counter is the only state it writes.
    #[inline]
    pub fn get(&self, key: &PlanKey) -> Option<&RegionPlan> {
        let plan = self.peek(key)?;
        self.tallies[key.shape.tally()].hits.inc();
        Some(plan)
    }

    /// [`Self::get`] without counting the hit, for callers that count it
    /// through [`Self::hits`] once they have let go of the lock guarding
    /// the cache.
    #[inline]
    pub fn peek(&self, key: &PlanKey) -> Option<&RegionPlan> {
        self.map.get(key)
    }

    /// Count `n` hits on `shape`'s tally at once, for accesses replayed
    /// from a copy of its plan ([`crate::AccessReplay`]).
    #[inline]
    pub(crate) fn count_hits(&self, shape: PlanShape, n: u64) {
        self.tallies[shape.tally()].hits.add(n);
    }

    /// Shared handles on this cache's hit counters.
    pub fn hits(&self) -> PlanHits {
        PlanHits(std::array::from_fn(|t| self.tallies[t].hits.clone()))
    }

    /// The plan for `target`'s residue class, compiling it on first use,
    /// and whether this call compiled it.
    ///
    /// `target`'s origin serves as the class representative, so a single
    /// access must be bounds-checked by the caller first (compilation
    /// re-checks via the AGU; hits do not), and a region's concrete origin
    /// is checked on every replay through [`RegionPlan::check_bounds`].
    /// Failed compiles count a miss and are not cached.
    pub fn get_or_compile(
        &mut self,
        target: PlanTarget<'_>,
        agu: &Agu,
        maf: &ModuleAssignment,
        afn: &AddressingFunction,
    ) -> Result<(&RegionPlan, bool)> {
        let compiled = self.ensure(target, None, agu, maf, afn)?;
        Ok((self.resident(&PlanKey::of(target, self.period))?, compiled))
    }

    /// The plans of a copy's source and destination regions, compiling
    /// either on first use, with whether each call compiled, and the cache
    /// itself, read-only: a copy replay reads the one-access plans the
    /// region compiles left resident. Compiling the destination never
    /// evicts the source.
    pub fn get_or_compile_pair(
        &mut self,
        [src, dst]: [&Region; 2],
        agu: &Agu,
        maf: &ModuleAssignment,
        afn: &AddressingFunction,
    ) -> Result<([(&RegionPlan, bool); 2], &Self)> {
        let skey = PlanKey::of(PlanTarget::Region(src), self.period);
        let dkey = PlanKey::of(PlanTarget::Region(dst), self.period);
        let s = self.ensure(PlanTarget::Region(src), None, agu, maf, afn)?;
        let d = self.ensure(PlanTarget::Region(dst), Some(&skey), agu, maf, afn)?;
        let this = &*self;
        Ok((
            [(this.resident(&skey)?, s), (this.resident(&dkey)?, d)],
            this,
        ))
    }

    /// Make `target`'s plan resident, counting a hit or a miss; returns
    /// whether it compiled. A region compile composes cached single-access
    /// plans, and at the cap it evicts a region plan other than `keep`.
    fn ensure(
        &mut self,
        target: PlanTarget<'_>,
        keep: Option<&PlanKey>,
        agu: &Agu,
        maf: &ModuleAssignment,
        afn: &AddressingFunction,
    ) -> Result<bool> {
        let key = PlanKey::of(target, self.period);
        let t = key.shape.tally();
        if self.map.contains_key(&key) {
            self.tallies[t].hits.inc();
            return Ok(false);
        }
        self.tallies[t].misses.inc();
        let plan = match target {
            PlanTarget::Access(access) => {
                RegionPlan::compile_access(access, agu, maf, afn, self.depth, self.layout)?
            }
            PlanTarget::Region(region) => {
                let plan = RegionPlan::compile(region, agu, maf, afn, self)?;
                self.make_room(keep);
                if let Some(hist) = &self.run_hist {
                    observe_run_lengths(hist, &plan);
                }
                plan
            }
        };
        let tally = &mut self.tallies[t];
        tally.entries += 1;
        tally.bytes += plan.heap_bytes() as u64;
        self.map.insert(key, plan);
        Ok(true)
    }

    /// A plan this call made resident.
    fn resident(&self, key: &PlanKey) -> Result<&RegionPlan> {
        self.map
            .get(key)
            .ok_or_else(|| PolyMemError::InvalidGeometry {
                reason: format!(
                    "plan cache lost the {:?} plan it just made resident",
                    key.shape
                ),
            })
    }

    /// Evict region plans other than `keep` until one more fits under the
    /// cap.
    fn make_room(&mut self, keep: Option<&PlanKey>) {
        while self.tallies[REGIONS].entries >= self.capacity {
            let victim = self
                .map
                .keys()
                .find(|k| matches!(k.shape, PlanShape::Region(_)) && Some(*k) != keep)
                .copied();
            let Some(plan) = victim.and_then(|k| self.map.remove(&k)) else {
                return;
            };
            let tally = &mut self.tallies[REGIONS];
            tally.entries -= 1;
            tally.bytes -= plan.heap_bytes() as u64;
            tally.evictions.inc();
        }
    }

    /// Drop every cached plan (they recompile lazily; counters keep
    /// running) and renew the generation.
    pub fn clear(&mut self) {
        self.generation = next_generation();
        self.map.clear();
        for t in &mut self.tallies {
            (t.entries, t.bytes) = (0, 0);
        }
    }

    /// Drop every region plan (they recompile lazily; counters keep
    /// running, bytes reset).
    pub fn clear_regions(&mut self) {
        self.map
            .retain(|k, _| matches!(k.shape, PlanShape::Access(_)));
        let t = &mut self.tallies[REGIONS];
        (t.entries, t.bytes) = (0, 0);
    }

    fn stats_of(&self, tallies: &[Tally]) -> PlanCacheStats {
        let mut s = PlanCacheStats {
            capacity: self.capacity,
            ..PlanCacheStats::default()
        };
        for t in tallies {
            s.hits += t.hits.get();
            s.misses += t.misses.get();
            s.evictions += t.evictions.get();
            s.entries += t.entries;
            s.bytes += t.bytes;
        }
        s
    }

    /// Single-access activity, summed over the six patterns.
    pub fn access_stats(&self) -> PlanCacheStats {
        self.stats_of(&self.tallies[..REGIONS])
    }

    /// Region activity, size/capacity and heap footprint.
    pub fn region_stats(&self) -> PlanCacheStats {
        self.stats_of(&self.tallies[REGIONS..])
    }

    /// Export the counters through `registry`: per access label
    /// `access(pattern)`, `polymem_plan_cache_{hits,misses}_total` (patterns
    /// sharing a label export their sum); under `region`, the region hit,
    /// miss and eviction counters, and the motif-run lengths (`reps *
    /// lanes` elements) of every region compile into
    /// `polymem_region_run_length`. The registry holds live handles to the
    /// same atomics the stats read, so exported values track lookups with
    /// no extra work on the lookup path; the histogram costs one
    /// observation per run per *compilation* (never per replay).
    pub fn register_telemetry(
        &mut self,
        registry: &TelemetryRegistry,
        access: impl Fn(AccessPattern) -> String,
        region: &str,
    ) {
        let labels: Vec<String> = AccessPattern::ALL.iter().map(|&p| access(p)).collect();
        for (k, label) in labels.iter().enumerate() {
            if labels[..k].contains(label) {
                continue;
            }
            let group: Vec<&Tally> = (k..REGIONS)
                .filter(|&m| labels[m] == *label)
                .map(|m| &self.tallies[m])
                .collect();
            let cache: Vec<Label> = vec![("cache", label.clone())];
            let hits: Vec<&Counter> = group.iter().map(|t| &t.hits).collect();
            let misses: Vec<&Counter> = group.iter().map(|t| &t.misses).collect();
            registry.register_stat("polymem_plan_cache_hits_total", cache.clone(), &hits);
            registry.register_stat("polymem_plan_cache_misses_total", cache, &misses);
        }
        let cache: Vec<Label> = vec![("cache", region.to_string())];
        let t = &self.tallies[REGIONS];
        registry.register_stat("polymem_plan_cache_hits_total", cache.clone(), &[&t.hits]);
        registry.register_stat(
            "polymem_plan_cache_misses_total",
            cache.clone(),
            &[&t.misses],
        );
        registry.register_stat(
            "polymem_plan_cache_evictions_total",
            cache.clone(),
            &[&t.evictions],
        );
        let hist = registry.histogram("polymem_region_run_length", cache, Self::RUN_LENGTH_BOUNDS);
        // Region plans compiled before attachment are already resident;
        // record them so the histogram reflects the cache, not just future
        // compiles.
        for (key, plan) in &self.map {
            if matches!(key.shape, PlanShape::Region(_)) {
                observe_run_lengths(&hist, plan);
            }
        }
        self.run_hist = Some(hist);
    }
}

impl Clone for PlanCache {
    fn clone(&self) -> Self {
        Self {
            // The clone holds the same plans.
            generation: self.generation,
            period: self.period,
            depth: self.depth,
            layout: self.layout,
            capacity: self.capacity,
            map: self.map.clone(),
            tallies: self.tallies.clone(),
            // Histogram handles are registry-owned; the clone re-attaches
            // if it wants its own recording (same policy as PolyMem).
            run_hist: None,
        }
    }
}

/// A generation no cache has had yet. Not part of the concurrency
/// protocol (a relaxed counter read once per cache build or clear), so it
/// stays outside [`crate::sync`].
fn next_generation() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Observe each motif run's length in elements (`reps * lanes`).
fn observe_run_lengths(hist: &Histogram, plan: &RegionPlan) {
    for run in &plan.motif_runs {
        hist.observe(run.reps as u64 * plan.lanes as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{AccessScheme, ParallelAccess as PA};

    fn blocks(
        scheme: AccessScheme,
        p: usize,
        q: usize,
        rows: usize,
        cols: usize,
    ) -> (Agu, ModuleAssignment, AddressingFunction) {
        (
            Agu::new(p, q, rows, cols),
            ModuleAssignment::new(scheme, p, q),
            AddressingFunction::new(p, q, rows, cols),
        )
    }

    fn compile(
        access: PA,
        (agu, maf, afn): &(Agu, ModuleAssignment, AddressingFunction),
        depth: usize,
    ) -> Result<RegionPlan> {
        RegionPlan::compile_access(access, agu, maf, afn, depth, BankLayout::BankMajor)
    }

    #[test]
    fn plan_matches_interpreted_pipeline() {
        // Every lane's fold slot decodes, through either layout, to the
        // MAF's bank and the addressing function's intra-bank address.
        let (agu, maf, afn) = blocks(AccessScheme::ReRo, 2, 4, 16, 16);
        let depth = (16 / 2) * (16 / 4);
        let access = PA::row(3, 5);
        for layout in [BankLayout::BankMajor, BankLayout::AddrInterleaved] {
            let plan = RegionPlan::compile_access(access, &agu, &maf, &afn, depth, layout).unwrap();
            assert_eq!((plan.accesses, plan.lanes, plan.len()), (1, 8, 8));
            // One access is one group, its lanes in AGU lane order.
            assert_eq!(plan.motif_runs.len(), 1);
            let (offset, motif) = plan.access_lanes();
            let fbase = plan.flat_base(afn.address(3, 5) as isize) + offset;
            for (&(i, j), &m) in agu.expand(access).unwrap().iter().zip(motif) {
                let slot = fbase as usize + m;
                assert_eq!(layout.bank_of(slot, 8, depth), maf.assign_linear(i, j));
                assert_eq!(layout.addr_of(slot, 8, depth), afn.address(i, j));
            }
        }
    }

    #[test]
    fn secondary_diagonal_has_negative_deltas() {
        // Negative deltas need the leftward walk to cross a j-tile boundary
        // while the origin's tile row is still current — i.e. q < p and an
        // origin with small j0 % q: lane (k, j0-k) for k < p then has
        // address floor((j0%q - k)/q) < 0 relative to the origin tile.
        let b = blocks(AccessScheme::ReRo, 4, 2, 16, 16);
        let depth = 32;
        let plan = compile(PA::new(0, 9, AccessPattern::SecondaryDiagonal), &b, depth).unwrap();
        let base = b.2.address(0, 9);
        let fbase = plan.flat_base(base as isize);
        let addrs: Vec<usize> = plan
            .offsets()
            .map(|f| BankLayout::BankMajor.addr_of((fbase + f) as usize, 8, depth))
            .collect();
        assert!(
            addrs.iter().any(|&a| a < base),
            "leftward walk must produce negative address deltas from {base}: {addrs:?}"
        );
    }

    #[test]
    fn plan_is_invariant_across_residue_class() {
        // Origins congruent mod p*q compile to the identical plan.
        let b = blocks(AccessScheme::RoCo, 2, 4, 32, 32);
        let depth = (32 / 2) * (32 / 4);
        let a = compile(PA::row(3, 5), &b, depth).unwrap();
        let c = compile(PA::row(3 + 8, 5 + 16), &b, depth).unwrap();
        assert_eq!(a.motif_runs, c.motif_runs);
        assert_eq!(a.motifs, c.motifs);
        assert_eq!(a.store_runs, c.store_runs);
    }

    #[test]
    fn conflict_is_surfaced() {
        // RoCo unaligned rectangle conflicts (the scheme's documented gap);
        // compiling it must surface BankConflict, like the crossbar would.
        let b = blocks(AccessScheme::RoCo, 2, 2, 8, 8);
        let err = compile(PA::rect(1, 1), &b, 16).unwrap_err();
        assert!(matches!(err, PolyMemError::BankConflict { .. }));
    }

    #[test]
    fn cache_hits_and_misses_counted() {
        let (agu, maf, afn) = blocks(AccessScheme::ReRo, 2, 4, 16, 16);
        let mut cache = PlanCache::new(8, 32, BankLayout::BankMajor);
        let get = |cache: &mut PlanCache, a: PA| {
            cache
                .get_or_compile(PlanTarget::Access(a), &agu, &maf, &afn)
                .unwrap()
                .1
        };
        assert!(get(&mut cache, PA::row(0, 0)));
        assert!(!get(&mut cache, PA::row(8, 8)), "same class");
        assert!(get(&mut cache, PA::row(1, 0)), "new class");
        let s = cache.access_stats();
        assert_eq!((s.misses, s.hits, s.entries), (2, 1, 2));
        assert!(s.bytes > 0);
        assert_eq!(cache.region_stats().entries, 0, "regions count apart");
        let key = |a| PlanKey::of(PlanTarget::Access(a), 8);
        assert!(cache.get(&key(PA::row(16, 0))).is_some());
        assert!(cache.get(&key(PA::col(0, 0))).is_none());
        assert_eq!(cache.access_stats().hits, 2);
        cache.clear();
        assert_eq!(
            (cache.access_stats().entries, cache.access_stats().bytes),
            (0, 0)
        );
    }

    #[test]
    fn access_and_region_keys_stay_apart() {
        // A rectangle access and a p x q block region move the same cells in
        // the same order, but they are different classes; a transposed
        // rectangle has no region shape at all.
        let rect = PlanKey::of(PlanTarget::Access(PA::rect(2, 4)), 8);
        let block = Region::new("b", 2, 4, RegionShape::Block { rows: 2, cols: 4 });
        let transposed = PA::new(2, 4, AccessPattern::TransposedRectangle);
        let tr = PlanKey::of(PlanTarget::Access(transposed), 8);
        let q_by_p = Region::new("t", 2, 4, RegionShape::Block { rows: 4, cols: 2 });
        assert_ne!(rect, PlanKey::of(PlanTarget::Region(&block), 8));
        assert_ne!(tr, PlanKey::of(PlanTarget::Region(&q_by_p), 8));
        assert_ne!(rect, tr);
    }

    #[test]
    fn validate_accepts_compiled_plans_and_catches_corruption() {
        let b = blocks(AccessScheme::ReRo, 2, 4, 16, 16);
        let depth = (16 / 2) * (16 / 4);
        let plan = compile(PA::row(3, 5), &b, depth).unwrap();
        let base = b.2.address(3, 5) as isize;
        plan.validate(base, depth).unwrap();

        // The access's motif, at pool index 1 (a bank-major access never
        // sits in consecutive slots, so it is not the identity).
        assert_eq!(plan.motif_runs[0].motif, 1);
        let lane = |k: usize| plan.lanes + k;

        // Lane 1 moved to another address of lane 0's bank: the storage
        // image no longer matches the store runs.
        let mut dup = plan.clone();
        dup.motifs[lane(1)] = dup.motifs[lane(0)] + 1;
        assert!(matches!(
            dup.validate(base, depth),
            Err(PolyMemError::InvalidGeometry { .. })
        ));

        // Lane 2 onto lane 3's slot: two lanes gather from one slot.
        let mut twice = plan.clone();
        twice.motifs[lane(2)] = twice.motifs[lane(3)];
        assert!(twice.validate(base, depth).is_err());

        // Two lanes swapped keep the storage image: structurally sound, so
        // only the verifier's model check can tell (by design).
        let mut swapped = plan.clone();
        swapped.motifs.swap(lane(0), lane(1));
        assert!(swapped.validate(base, depth).is_ok());

        // A single access replays its pool's last motif, so a run naming
        // another one is rejected even when the image matches.
        let mut hidden = plan.clone();
        hidden.motifs.extend_from_within(..plan.lanes);
        let err = hidden.validate(base, depth).unwrap_err().to_string();
        assert!(err.contains("last motif"), "{err}");
    }

    #[test]
    fn key_of_reduces_mod_period() {
        let k = PlanKey::of(PlanTarget::Access(PA::rect(10, 13)), 8);
        assert_eq!((k.ri, k.rj), (2, 5));
    }
}
