//! Compiled plans: whole-region transfers as one flat gather/scatter.
//!
//! A [`RegionPlan`] compiles everything a transfer needs once per *(shape,
//! origin residue class)* (see [`crate::plan`] for the periodicity
//! argument). A single parallel access is the one-access case
//! ([`RegionPlan::compile_access`]): its canonical order is its AGU lane
//! order. Real workloads move [`Region`]s — many accesses plus a
//! canonical-order permutation — and [`RegionPlan::compile`] folds those in
//! too:
//!
//! * the access decomposition ([`Region::plan_accesses`]) is shape+residue
//!   periodic: access origins sit at fixed offsets from the region origin
//!   that are multiples of `p`/`q`/`p*q`, so each access's aligned-tile
//!   address `A(acc) - A(origin)` telescopes exactly (the same argument as
//!   the single-access plan, lifted to whole regions);
//! * each access's per-lane routing comes from its cached one-access plan
//!   in the [`PlanCache`] (crossbar-verified at compile);
//! * the canonical-order permutation is folded in at compile time via
//!   [`Region::canonical_index`] (closed form, no `HashMap`): `fold[c]` is
//!   the flat-storage offset of canonical element `c` relative to
//!   `A(origin)`.
//!
//! Replay does not walk `fold` element by element. The compiler segments it
//! into [`MotifRun`]s: each run covers `reps` consecutive groups of `lanes`
//! canonical elements that repeat one lane pattern (a *motif*, pooled per
//! plan) at a constant flat step — the way PolyMem drives its crossbar
//! with one fixed permutation per parallel access (paper Fig. 3). A
//! row-major `Block` under a row-periodic scheme is one run per row.
//! [`RegionPlan::gather_into`]/[`RegionPlan::scatter_from`] replay the
//! table with one kernel, instantiated at a fixed 8 lanes for the 2x4 grid
//! and as a runtime-width loop for every other grid; an identity motif
//! stepping by `lanes` is a single `copy_from_slice`.

use crate::addressing::AddressingFunction;
use crate::agu::Agu;
use crate::banks::BankLayout;
use crate::error::{PolyMemError, Result};
use crate::maf::ModuleAssignment;
use crate::plan::{residue, PlanCache, PlanShape, PlanTarget};
use crate::region::Region;
use crate::scheme::ParallelAccess;
use crate::shuffle::Crossbar;
use std::collections::HashMap;

#[cfg(test)]
use crate::{
    region::RegionShape,
    scheme::{AccessPattern, AccessScheme},
};

/// One lane-wide motif run of the canonical gather map: `reps` consecutive
/// groups of `lanes` canonical elements from `start` on, where lane `k` of
/// group `t` sits at flat offset `offset + t * step + m[k]`, `m` being
/// motif number [`Self::motif`] of the plan's [`RegionPlan::motifs`] pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MotifRun {
    /// First canonical element of the run (a multiple of `lanes`).
    pub start: u32,
    /// Groups of `lanes` elements covered (>= 1).
    pub reps: u32,
    /// Flat offset of group 0's lowest slot, relative to the base.
    pub offset: isize,
    /// Flat-slot distance between consecutive groups (`lanes` for a
    /// single-group run).
    pub step: isize,
    /// Pool index of the run's motif; motif 0 is the identity.
    pub motif: u32,
}

impl MotifRun {
    /// Whether the run is one unit-stride block move: the identity motif
    /// stepping by `lanes`, so its `reps * lanes` elements occupy
    /// consecutive flat slots.
    #[inline]
    pub fn is_block_move(&self, lanes: usize) -> bool {
        self.motif == 0 && self.step == lanes as isize
    }
}

/// One maximal unit-stride interval of the *sorted* storage image: the
/// region touches exactly the flat slots `offset .. offset + len`
/// (relative to the base), with no other interval adjacent to it. A
/// same-plan `copy_region` is a pure `copy_within` per interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRun {
    /// First flat offset (relative to the base) of the interval.
    pub offset: isize,
    /// Contiguous flat slots covered (>= 1).
    pub len: u32,
}

/// A compiled transfer: every index a single access, `read_region`,
/// `write_region` or `copy_region` needs, in flat precomputed arrays.
///
/// All offsets are relative to `A(i0, j0)` of the *region origin*; a replay
/// computes that one address and gathers/scatters through [`Self::fold`].
#[derive(Debug, Clone)]
pub struct RegionPlan {
    /// What this plan moves (for diagnostics).
    pub shape: PlanShape,
    /// The flat backing layout `fold`/`afold` were compiled against. All
    /// flat offsets below are relative to `A(origin) * layout.base_scale`.
    pub layout: BankLayout,
    /// Per canonical element `c`: flat storage offset
    /// (`layout.fold(bank, addr_delta)`) relative to the scaled origin
    /// address. The gather map of reads and, read right-to-left, the
    /// scatter map of writes. The owning bank and intra-bank address of a
    /// slot decode through [`BankLayout::bank_of`]/[`BankLayout::addr_of`].
    pub fold: Vec<isize>,
    /// Access-major mirror of [`Self::fold`]: slot `a * lanes + k` is the
    /// flat offset of lane `k` of access `a`, in AGU lane order. `copy_region`
    /// pairs source and destination slots positionally through this, which
    /// preserves the per-access interleaved overlap semantics of the naive
    /// read-one-access/write-one-access loop.
    pub afold: Vec<isize>,
    /// Motif-run table of [`Self::fold`], in canonical order, tiling
    /// `0..len` exactly (proven by [`Self::validate`]): what
    /// [`Self::gather_into`] and [`Self::scatter_from`] replay.
    pub motif_runs: Vec<MotifRun>,
    /// Motif pool of [`Self::motif_runs`]: `lanes` flat offsets per motif,
    /// each relative to its group's lowest slot. Motif 0 is the identity
    /// `0..lanes`, whose runs stepping by `lanes` are one block move.
    pub motifs: Vec<usize>,
    /// Maximal unit-stride intervals of the sorted storage image (the
    /// flat slots the region touches, merged). Same-plan copies replay
    /// these as pure block moves.
    pub store_runs: Vec<StoreRun>,
    /// Elements covered by block-move motif runs
    /// ([`MotifRun::is_block_move`]); the remaining `len - contiguous_elems`
    /// replay lane by lane. Cached for the coalesced-bytes telemetry
    /// counters.
    pub contiguous_elems: usize,
    /// Number of parallel accesses the region decomposes into.
    pub accesses: usize,
    /// Lanes per access (`p * q`).
    pub lanes: usize,
}

/// Marks a canonical element no access of a region compile has covered.
const UNCOVERED: isize = isize::MIN;

/// The gather maps of a region compile as its accesses fill them in.
struct Cover<'r> {
    region: &'r Region,
    /// [`RegionPlan::fold`], [`UNCOVERED`] where no access has landed yet.
    fold: Vec<isize>,
    /// [`RegionPlan::afold`], one access after the other.
    afold: Vec<isize>,
}

impl Cover<'_> {
    /// Store the next lane, at flat offset `f`, as canonical element `c`.
    #[inline]
    fn put(&mut self, c: usize, f: isize) -> Result<()> {
        let slot = &mut self.fold[c];
        if *slot != UNCOVERED {
            return Err(PolyMemError::InvalidGeometry {
                reason: format!(
                    "region {}: canonical element {c} covered twice",
                    self.region.name
                ),
            });
        }
        *slot = f;
        self.afold.push(f);
        Ok(())
    }

    /// Store every lane of access `a`, lane `k` at `coords[k]` and flat
    /// offset `fold[k] + abase`, placing each through
    /// [`Region::canonical_index`]. Returns the lanes' canonical indices.
    fn put_lanes(
        &mut self,
        coords: &[(usize, usize)],
        fold: &[isize],
        abase: isize,
        a: usize,
    ) -> Result<Vec<usize>> {
        let mut canon = Vec::with_capacity(coords.len());
        for (k, (&(i, j), &f)) in coords.iter().zip(fold).enumerate() {
            let Some(c) = self.region.canonical_index(i, j) else {
                return Err(PolyMemError::InvalidGeometry {
                    reason: format!(
                        "region {}: access {a} lane {k} at ({i}, {j}) falls outside the \
                         region",
                        self.region.name
                    ),
                });
            };
            self.put(c, f + abase)?;
            canon.push(c);
        }
        Ok(canon)
    }
}

/// One access class `(i0 mod p·q, j0 mod p·q, pattern)` of a region
/// compile, resolved at its first access.
struct AccessClass {
    /// The class's one-access plan: lane `k`'s flat offset from its
    /// access's tile.
    fold: Vec<isize>,
    /// Lane `k`'s canonical index minus lane 0's.
    canon: Vec<isize>,
    /// Coordinates of lane `p·q − 1` minus those of lane 0, the access
    /// origin.
    reach: (isize, isize),
}

impl AccessClass {
    /// The class of `acc`, whose lanes sit at `coords` and canonical
    /// indices `canon`, routed by the one-access plan `fold`.
    fn new(
        acc: ParallelAccess,
        fold: &[isize],
        canon: &[usize],
        coords: &[(usize, usize)],
    ) -> Self {
        let c0 = canon.first().copied().unwrap_or(0);
        let (i, j) = coords.last().copied().unwrap_or((acc.i, acc.j));
        Self {
            fold: fold.to_vec(),
            canon: canon.iter().map(|&c| c.wrapping_sub(c0) as isize).collect(),
            reach: (
                i.wrapping_sub(acc.i) as isize,
                j.wrapping_sub(acc.j) as isize,
            ),
        }
    }

    /// Canonical index of `acc`'s lane 0, when `acc` is of this class and
    /// its lanes 0 and `p·q − 1` sit inside `region` at the canonical
    /// offsets this class proved. The pattern of every region shape spans
    /// the box or segment between those two lanes, so its other lanes then
    /// sit at their proved offsets too.
    #[inline]
    fn place(&self, region: &Region, acc: ParallelAccess) -> Option<usize> {
        let c0 = region.canonical_index(acc.i, acc.j)?;
        let (i, j) = (
            acc.i.checked_add_signed(self.reach.0)?,
            acc.j.checked_add_signed(self.reach.1)?,
        );
        let last = c0.checked_add_signed(*self.canon.last()?)?;
        (region.canonical_index(i, j)? == last).then_some(c0)
    }
}

/// Greedy segmentation of the canonical gather map into motif runs: a
/// group of `lanes` elements joins the current run while every lane sits
/// exactly `step` flat slots past the same lane of the previous group.
/// Motifs are pooled (identity first). Returns the run table and the pool.
fn build_motif_runs(fold: &[isize], lanes: usize) -> (Vec<MotifRun>, Vec<usize>) {
    let mut motifs: Vec<usize> = (0..lanes).collect();
    let mut pool: HashMap<Vec<usize>, u32> = HashMap::from([(motifs.clone(), 0)]);
    let mut runs = Vec::new();
    let mut motif = vec![0usize; lanes];
    let groups = fold.len() / lanes;
    let group = |g: usize| &fold[g * lanes..(g + 1) * lanes];
    let mut g = 0usize;
    while g < groups {
        let head = group(g);
        let offset = head.iter().copied().min().unwrap_or(0);
        for (m, &f) in motif.iter_mut().zip(head) {
            *m = (f - offset) as usize;
        }
        let mut reps = 1usize;
        let mut step = lanes as isize;
        if g + 1 < groups {
            let s = group(g + 1)[0] - head[0];
            while g + reps < groups
                && group(g + reps)
                    .iter()
                    .zip(group(g + reps - 1))
                    .all(|(&b, &a)| b - a == s)
            {
                reps += 1;
            }
            if reps > 1 {
                step = s;
            }
        }
        let id = match pool.get(motif.as_slice()) {
            Some(&id) => id,
            None => {
                let id = pool.len() as u32;
                pool.insert(motif.clone(), id);
                motifs.extend_from_slice(&motif);
                id
            }
        };
        runs.push(MotifRun {
            start: (g * lanes) as u32,
            reps: reps as u32,
            offset,
            step,
            motif: id,
        });
        g += reps;
    }
    (runs, motifs)
}

/// Merge the storage image of the injective map `fold` into maximal
/// unit-stride intervals, in ascending order: one bit per slot of its span
/// marks what it touches, and the runs read off the bitmap a word at a
/// time. Where that bitmap would outgrow `fold` itself (a span of more
/// than 64 slots per element, such as a short column of a deep bank-major
/// memory), sorting a copy is cheaper.
fn build_store_runs(fold: &[isize]) -> Vec<StoreRun> {
    let Some(&first) = fold.first() else {
        return Vec::new();
    };
    let (lo, hi) = fold
        .iter()
        .fold((first, first), |(lo, hi), &f| (lo.min(f), hi.max(f)));
    let span = hi.abs_diff(lo) + 1;
    if span > fold.len().saturating_mul(64) {
        return sorted_store_runs(fold);
    }
    let mut bits = vec![0u64; span.div_ceil(64)];
    for &f in fold {
        let s = f.abs_diff(lo);
        bits[s / 64] |= 1 << (s % 64);
    }
    let end = bits.len() * 64;
    let mut runs = Vec::new();
    let mut s = 0usize;
    while s < end {
        let word = bits[s / 64] >> (s % 64);
        if word == 0 {
            s = (s / 64 + 1) * 64;
            continue;
        }
        s += word.trailing_zeros() as usize;
        let start = s;
        // Count the run's ones, a word at a time while it fills words to
        // their last bit.
        loop {
            let r = s % 64;
            let ones = (bits[s / 64] >> r).trailing_ones() as usize;
            s += ones;
            if ones < 64 - r || s == end {
                break;
            }
        }
        runs.push(StoreRun {
            offset: lo + start as isize,
            len: (s - start) as u32,
        });
    }
    runs
}

/// [`build_store_runs`] by sorting a copy of `fold` and merging neighbours.
fn sorted_store_runs(fold: &[isize]) -> Vec<StoreRun> {
    let mut sorted = fold.to_vec();
    sorted.sort_unstable();
    let mut runs: Vec<StoreRun> = Vec::new();
    for &f in &sorted {
        match runs.last_mut() {
            Some(run) if run.offset + run.len as isize == f => run.len += 1,
            _ => runs.push(StoreRun { offset: f, len: 1 }),
        }
    }
    runs
}

impl RegionPlan {
    /// Compile the one-access plan for `access`'s residue class by running
    /// the interpreted blocks once: canonical order is the AGU lane order,
    /// and `fold[k] = layout.fold(bank_k, A(lane k) - A(origin))`.
    ///
    /// `depth` is the bank depth of the backing storage. The routing is
    /// cross-checked against the Address Shuffle before the plan is
    /// admitted: scattering the lane addresses through a [`Crossbar`] must
    /// hand every bank exactly the address its lane's fold slot decodes to.
    pub fn compile_access(
        access: ParallelAccess,
        agu: &Agu,
        maf: &ModuleAssignment,
        afn: &AddressingFunction,
        depth: usize,
        layout: BankLayout,
    ) -> Result<Self> {
        let coords = agu.expand(access)?;
        let lanes = coords.len();
        let base = afn.address(access.i, access.j);
        let mut route = Vec::with_capacity(lanes);
        let mut lane_addrs = Vec::with_capacity(lanes);
        let mut fold = Vec::with_capacity(lanes);
        let mut owner = vec![usize::MAX; lanes];
        for (k, &(i, j)) in coords.iter().enumerate() {
            let (bank, addr) = (maf.assign_linear(i, j), afn.address(i, j));
            if owner[bank] != usize::MAX {
                return Err(PolyMemError::BankConflict {
                    bank,
                    lane_a: owner[bank],
                    lane_b: k,
                });
            }
            owner[bank] = k;
            route.push(bank);
            lane_addrs.push(addr);
            fold.push(layout.fold(bank as isize, addr as isize - base as isize, lanes, depth));
        }
        let mut bank_addrs = vec![0usize; lanes];
        Crossbar::new(lanes).scatter(&lane_addrs, &route, &mut bank_addrs)?;
        let fbase = base as isize * layout.base_scale(lanes);
        for (bank, &addr) in bank_addrs.iter().enumerate() {
            let slot = usize::try_from(fbase + fold[owner[bank]]).unwrap_or(usize::MAX);
            if layout.bank_of(slot, lanes, depth) != bank
                || layout.addr_of(slot, lanes, depth) != addr
            {
                return Err(PolyMemError::InvalidGeometry {
                    reason: format!(
                        "plan verification failed for {:?} at ({}, {}): bank {bank} expects \
                         address {addr}, plan folds to slot {slot}",
                        access.pattern, access.i, access.j
                    ),
                });
            }
        }
        let afold = fold.clone();
        Ok(Self::assemble(
            PlanShape::Access(access.pattern),
            layout,
            lanes,
            (fold, afold),
            1,
        ))
    }

    /// Compile the plan for `region`'s residue class.
    ///
    /// The region's accesses fall into a few access classes `(i0 mod p·q,
    /// j0 mod p·q, pattern)` (see [`crate::plan`]), and each class is
    /// resolved once, at its first access: its one-access plan through
    /// `cache` (compiled and crossbar-verified on a miss) and one AGU
    /// expansion through [`Region::canonical_index`]. Every access still
    /// passes its own scheme/alignment and bounds checks, and its lanes
    /// are checked into canonical order: a later access of a class whose
    /// lanes 0 and `p·q − 1` sit inside the region at the offsets the class
    /// proved has every lane there too, since each shape's own pattern
    /// spans the box or segment between those two lanes. The cache probes a
    /// per-access loop would make count as hits, failed compiles included,
    /// and errors surface in the order that loop would hit them.
    pub fn compile(
        region: &Region,
        agu: &Agu,
        maf: &ModuleAssignment,
        afn: &AddressingFunction,
        cache: &mut PlanCache,
    ) -> Result<Self> {
        let mut hits = 0;
        let plan = Self::compile_classes(region, agu, maf, afn, cache, &mut hits);
        if hits > 0 {
            cache.count_hits(PlanShape::Access(region.shape.pattern()), hits);
        }
        plan
    }

    /// [`Self::compile`]'s access loop, tallying into `hits` the probes of
    /// accesses whose class was already resolved.
    fn compile_classes(
        region: &Region,
        agu: &Agu,
        maf: &ModuleAssignment,
        afn: &AddressingFunction,
        cache: &mut PlanCache,
        hits: &mut u64,
    ) -> Result<Self> {
        let (p, q) = (agu.p(), agu.q());
        let accesses = region.plan_accesses(p, q)?;
        let lanes = agu.lanes();
        let base0 = afn.address(region.i, region.j) as isize;
        let layout = cache.layout();
        // Under an interleaved layout one intra-bank address step moves
        // `lanes` flat slots, so access-base offsets scale before folding.
        let scale = layout.base_scale(lanes);

        let mut cover = Cover {
            region,
            fold: vec![UNCOVERED; region.len()],
            afold: Vec::with_capacity(region.len()),
        };
        // `class_of[ri * lanes + rj]` indexes `classes` by the residues of
        // an access origin: every access of a region has its pattern.
        let mut class_of = vec![u32::MAX; lanes * lanes];
        let mut classes: Vec<AccessClass> = Vec::new();
        let mut coords = Vec::with_capacity(lanes);
        for (a, &acc) in accesses.iter().enumerate() {
            maf.scheme().check_access(acc, p, q)?;
            agu.check_bounds(acc)?;
            let abase = (afn.address(acc.i, acc.j) as isize - base0) * scale;
            let key = residue(acc.i, lanes) * lanes + residue(acc.j, lanes);
            if let Some(class) = classes.get(class_of[key] as usize) {
                *hits += 1;
                if let Some(c0) = class.place(region, acc) {
                    for (&f, &dc) in class.fold.iter().zip(&class.canon) {
                        cover.put(c0.wrapping_add_signed(dc), f + abase)?;
                    }
                } else {
                    agu.expand_into(acc, &mut coords)?;
                    cover.put_lanes(&coords, &class.fold, abase, a)?;
                }
                continue;
            }
            let (plan, _) = cache.get_or_compile(PlanTarget::Access(acc), agu, maf, afn)?;
            agu.expand_into(acc, &mut coords)?;
            let canon = cover.put_lanes(&coords, &plan.fold, abase, a)?;
            class_of[key] = classes.len() as u32;
            classes.push(AccessClass::new(acc, &plan.fold, &canon, &coords));
        }
        if let Some(c) = cover.fold.iter().position(|&f| f == UNCOVERED) {
            return Err(PolyMemError::InvalidGeometry {
                reason: format!(
                    "region {}: canonical element {c} not covered by any access",
                    region.name
                ),
            });
        }
        Ok(Self::assemble(
            PlanShape::Region(region.shape),
            layout,
            lanes,
            (cover.fold, cover.afold),
            accesses.len(),
        ))
    }

    /// The layout/coalescing pass both compilers end with: segment the
    /// gather map into motif runs once, so every replay moves whole lane
    /// groups, and merge the storage image into block-move intervals.
    fn assemble(
        shape: PlanShape,
        layout: BankLayout,
        lanes: usize,
        (fold, afold): (Vec<isize>, Vec<isize>),
        accesses: usize,
    ) -> Self {
        let (motif_runs, motifs) = build_motif_runs(&fold, lanes);
        let store_runs = build_store_runs(&fold);
        let contiguous_elems = motif_runs
            .iter()
            .filter(|r| r.is_block_move(lanes))
            .map(|r| r.reps as usize * lanes)
            .sum();
        Self {
            shape,
            layout,
            fold,
            afold,
            motif_runs,
            motifs,
            store_runs,
            contiguous_elems,
            accesses,
            lanes,
        }
    }

    /// Elements the plan moves (the region length).
    #[inline]
    pub fn len(&self) -> usize {
        self.fold.len()
    }

    /// Whether the plan moves nothing (zero-sized region).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fold.is_empty()
    }

    /// Bounds-check the concrete origin of `region`, whose residue class
    /// this plan serves, against the logical space. Plans are shared across
    /// a residue class, so the actual origin must be re-checked on every
    /// replay, exactly like the single-access plan's [`Agu::check_bounds`].
    /// Empty regions are always in bounds (the naive path issues no access
    /// for them). Origins whose reach overflows `usize` are out of bounds
    /// too.
    pub fn check_bounds(&self, region: &Region, rows: usize, cols: usize) -> Result<()> {
        if self.is_empty() {
            return Ok(());
        }
        let (max_down, max_right, max_left) = region.extents();
        let coord = |x: Option<usize>| x.map_or(i64::MAX, |x| i64::try_from(x).unwrap_or(i64::MAX));
        let oob = |i: i64, j: i64| Err(PolyMemError::OutOfBounds { i, j, rows, cols });
        let down = region.i.checked_add(max_down);
        if down.is_none_or(|d| d >= rows) {
            return oob(coord(down), coord(Some(region.j)));
        }
        let right = region.j.checked_add(max_right);
        if right.is_none_or(|r| r >= cols) {
            return oob(coord(Some(region.i)), coord(right));
        }
        if region.j < max_left {
            return oob(coord(down), coord(Some(region.j)) - max_left as i64);
        }
        Ok(())
    }

    /// Flat slot of logical base address `base` under this plan's layout —
    /// the origin every `fold`/`afold`/`store_runs` offset is relative to.
    #[inline]
    pub fn flat_base(&self, base: isize) -> isize {
        base * self.layout.base_scale(self.lanes)
    }

    /// Motif-run gather: replay the whole region out of `flat` (at logical
    /// base address `base`) into `out` in canonical order. Equivalent to
    /// the per-element `out[c] = flat[base + fold[c]]` oracle, element for
    /// element.
    #[inline]
    pub fn gather_into<T: Copy>(&self, flat: &[T], base: isize, out: &mut [T]) {
        let fbase = self.flat_base(base);
        // The 2x4 grid gets a fixed-width kernel: on `perfbench`'s
        // `stream-host` it lifts `host_gibs` from 8.6 to 9.5 GiB/s over the
        // runtime-width loop (ten alternated 20-s pairs, 2-vCPU x86-64 VM).
        if self.lanes == 8 {
            self.gather_motifs::<T, 8>(flat, fbase, out)
        } else {
            self.gather_motifs::<T, 0>(flat, fbase, out)
        }
    }

    /// Motif-run scatter: the write mirror of [`Self::gather_into`].
    #[inline]
    pub fn scatter_from<T: Copy>(&self, flat: &mut [T], base: isize, values: &[T]) {
        self.scatter_from_map(flat, base, values, |v| v)
    }

    /// [`Self::scatter_from`] storing `map(v)` for each value `v`, so host
    /// data of another type converts as it moves, with no staging copy.
    #[inline]
    pub fn scatter_from_map<S: Copy, T>(
        &self,
        flat: &mut [T],
        base: isize,
        values: &[S],
        map: impl Fn(S) -> T + Copy,
    ) {
        let fbase = self.flat_base(base);
        if self.lanes == 8 {
            self.scatter_motifs::<S, T, 8>(flat, fbase, values, map)
        } else {
            self.scatter_motifs::<S, T, 0>(flat, fbase, values, map)
        }
    }

    /// The gather kernel for lane width `L` (`0`: the plan's width, read
    /// at run time). A fixed `L` lets the compiler unroll each group into
    /// `L` independent loads.
    #[inline]
    fn gather_motifs<T: Copy, const L: usize>(&self, flat: &[T], fbase: isize, out: &mut [T]) {
        let lanes = if L == 0 { self.lanes } else { L };
        for run in &self.motif_runs {
            let start = run.start as usize;
            let len = run.reps as usize * lanes;
            let dst = &mut out[start..start + len];
            let mut src = fbase + run.offset;
            if run.is_block_move(lanes) {
                let s = src as usize;
                dst.copy_from_slice(&flat[s..s + len]);
                continue;
            }
            let m0 = run.motif as usize * lanes;
            let motif = &self.motifs[m0..m0 + lanes];
            for group in dst.chunks_exact_mut(lanes) {
                let s = src as usize;
                for (o, &m) in group.iter_mut().zip(motif) {
                    *o = flat[s + m];
                }
                src += run.step;
            }
        }
    }

    /// The scatter kernel for lane width `L`: the write mirror of
    /// [`Self::gather_motifs`].
    #[inline]
    fn scatter_motifs<S: Copy, T, const L: usize>(
        &self,
        flat: &mut [T],
        fbase: isize,
        values: &[S],
        map: impl Fn(S) -> T + Copy,
    ) {
        let lanes = if L == 0 { self.lanes } else { L };
        for run in &self.motif_runs {
            let start = run.start as usize;
            let len = run.reps as usize * lanes;
            let src = &values[start..start + len];
            let mut dst = fbase + run.offset;
            if run.is_block_move(lanes) {
                let d = dst as usize;
                for (o, &v) in flat[d..d + len].iter_mut().zip(src) {
                    *o = map(v);
                }
                continue;
            }
            let m0 = run.motif as usize * lanes;
            let motif = &self.motifs[m0..m0 + lanes];
            for group in src.chunks_exact(lanes) {
                let d = dst as usize;
                for (&v, &m) in group.iter().zip(motif) {
                    flat[d + m] = map(v);
                }
                dst += run.step;
            }
        }
    }

    /// Same-plan region copy as pure block moves: for a source replay at
    /// logical base `sbase` and a destination replay of the *same plan* at
    /// `dbase`, every touched flat slot shifts by the same amount, so the
    /// copy is one `copy_within` per merged storage interval. Only valid
    /// when the two replays do not overlap (callers check; overlapping
    /// copies keep the access-interleaved path for its ordering
    /// semantics).
    #[inline]
    pub fn copy_store_runs_within<T: Copy>(&self, flat: &mut [T], sbase: isize, dbase: isize) {
        let sflat = self.flat_base(sbase);
        let dflat = self.flat_base(dbase);
        for run in &self.store_runs {
            let s = (sflat + run.offset) as usize;
            let d = (dflat + run.offset) as usize;
            flat.copy_within(s..s + run.len as usize, d);
        }
    }

    /// Bytes of `T` one replay of this plan moves by block moves
    /// ([`Self::contiguous_elems`]) vs lane by lane: the coalesced/strided
    /// telemetry split.
    #[inline]
    pub fn byte_split<T>(&self) -> (u64, u64) {
        let elem = size_of::<T>() as u64;
        let coalesced = self.contiguous_elems as u64;
        (coalesced * elem, (self.len() as u64 - coalesced) * elem)
    }

    /// Structural soundness check: prove this plan is a true permutation of
    /// the region for a replay at flat base address `base` (`A(origin)`)
    /// into banks of `depth` elements.
    ///
    /// Verifies, without touching any memory:
    /// * every canonical element's gather slot `base + fold[c]` is in
    ///   bounds;
    /// * `fold` is injective (the gather is a permutation, so a scatter
    ///   through it can never lose a write);
    /// * `afold` is a bijective rearrangement of `fold` whose `lanes` slots
    ///   are bank-disjoint within every access — each replayed cycle still
    ///   hits `p*q` distinct banks (so every bank serves exactly
    ///   `accesses` elements of the region);
    /// * the motif-run table exactly tiles the fold map — `motif_runs`
    ///   covers `0..len` contiguously with no overlap and no gap, every run
    ///   names a pooled motif, and every run expands to precisely the fold
    ///   offsets it claims; the pool's motif 0 is the identity (the
    ///   block-move replay relies on it) and every motif has a lane at 0;
    /// * `store_runs` exactly tiles the sorted storage image (maximal
    ///   intervals: adjacent intervals never merge).
    ///
    /// Compiled plans satisfy this by construction; the `polymem-verify`
    /// static analyzer re-proves it per cached class and trips it on
    /// deliberately corrupted plans in `--inject` mode.
    pub fn validate(&self, base: isize, depth: usize) -> Result<()> {
        let len = self.len();
        let structural = |reason: String| PolyMemError::InvalidGeometry { reason };
        let nm = |what: &str| format!("region plan for {:?}: {what}", self.shape);
        if self.afold.len() != len || self.accesses * self.lanes != len || self.lanes == 0 {
            return Err(structural(nm(
                "array lengths disagree with the region size",
            )));
        }
        let total = (self.lanes * depth) as isize;
        let fbase = self.flat_base(base);
        for (c, &f) in self.fold.iter().enumerate() {
            let abs = fbase + f;
            if abs < 0 || abs >= total {
                return Err(structural(nm(&format!(
                    "element {c} gathers from flat slot {abs} outside storage of {total}"
                ))));
            }
        }
        // fold injective + afold a permutation of fold.
        let mut sorted_fold = self.fold.clone();
        sorted_fold.sort_unstable();
        if sorted_fold.windows(2).any(|w| w[0] == w[1]) {
            return Err(structural(nm(
                "two elements gather from the same flat slot",
            )));
        }
        let mut sorted_afold = self.afold.clone();
        sorted_afold.sort_unstable();
        if sorted_fold != sorted_afold {
            return Err(structural(nm(
                "afold is not a rearrangement of the canonical gather map",
            )));
        }
        // Per-access (per-cycle) bank disjointness through afold.
        for a in 0..self.accesses {
            let mut seen = vec![false; self.lanes];
            for k in 0..self.lanes {
                let bank = self.layout.bank_of(
                    (fbase + self.afold[a * self.lanes + k]) as usize,
                    self.lanes,
                    depth,
                );
                if seen[bank] {
                    return Err(PolyMemError::BankConflict {
                        bank,
                        lane_a: a * self.lanes,
                        lane_b: a * self.lanes + k,
                    });
                }
                seen[bank] = true;
            }
        }
        // Motif-run table tiles the fold map: identity motif first, every
        // motif anchored at its group's lowest slot (so replay bases never
        // go negative), contiguous cover of 0..len, no overlap, no gap, and
        // every run expands to exactly the fold offsets it claims.
        let lanes = self.lanes;
        if !self.motifs.len().is_multiple_of(lanes)
            || !self.motifs.iter().take(lanes).copied().eq(0..lanes)
            || !self.motifs.chunks(lanes).all(|m| m.contains(&0))
        {
            return Err(structural(nm(
                "motif pool must open with the identity and anchor every motif at 0",
            )));
        }
        let mut next = 0usize;
        for (r, run) in self.motif_runs.iter().enumerate() {
            if run.reps == 0 {
                return Err(structural(nm(&format!("motif run {r} is empty"))));
            }
            if run.start as usize != next {
                return Err(structural(nm(&format!(
                    "motif run {r} starts at element {} but the previous run ended at \
                     {next} (mis-tiled run table)",
                    run.start
                ))));
            }
            let m0 = run.motif as usize * lanes;
            let Some(motif) = self.motifs.get(m0..m0 + lanes) else {
                return Err(structural(nm(&format!(
                    "motif run {r} names motif {} outside the pool",
                    run.motif
                ))));
            };
            let span = run.reps as usize * lanes;
            if next + span > len {
                return Err(structural(nm(&format!(
                    "motif run {r} overruns the region's {len} elements (mis-tiled run table)"
                ))));
            }
            for t in 0..run.reps as usize {
                for (k, &m) in motif.iter().enumerate() {
                    let c = next + t * lanes + k;
                    let want = run.offset + t as isize * run.step + m as isize;
                    if self.fold[c] != want {
                        return Err(structural(nm(&format!(
                            "motif run {r} claims element {c} gathers from offset {want} but \
                             the fold map says {}",
                            self.fold[c]
                        ))));
                    }
                }
            }
            next += span;
        }
        if next != len {
            return Err(structural(nm(&format!(
                "run table covers {next} of {len} elements (mis-tiled run table)"
            ))));
        }
        // store_runs tile the sorted storage image exactly, as maximal
        // (non-mergeable) intervals.
        let mut expanded = 0usize;
        for (r, run) in self.store_runs.iter().enumerate() {
            if run.len == 0 {
                return Err(structural(nm(&format!("storage interval {r} is empty"))));
            }
            if r > 0 {
                let prev = self.store_runs[r - 1];
                if run.offset <= prev.offset + prev.len as isize {
                    return Err(structural(nm(&format!(
                        "storage intervals {} and {r} overlap or fail to merge",
                        r - 1
                    ))));
                }
            }
            for t in 0..run.len as usize {
                let slot = run.offset + t as isize;
                if expanded + t >= len || sorted_fold[expanded + t] != slot {
                    return Err(structural(nm(&format!(
                        "storage interval {r} claims flat offset {slot} the region does \
                         not gather from"
                    ))));
                }
            }
            expanded += run.len as usize;
        }
        if expanded != len {
            return Err(structural(nm(&format!(
                "storage intervals cover {expanded} of {len} touched slots"
            ))));
        }
        Ok(())
    }

    /// Approximate heap footprint of the precomputed arrays, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.fold.len() * size_of::<isize>()
            + self.afold.len() * size_of::<isize>()
            + self.motif_runs.len() * size_of::<MotifRun>()
            + self.motifs.len() * size_of::<usize>()
            + self.store_runs.len() * size_of::<StoreRun>()
    }
}

/// Replay `copy_region(src, dst)` over one flat store through the two
/// compiled plans: the copy selection both [`crate::PolyMem`] and
/// [`crate::ConcurrentPolyMem`] run. Lane `k` of source access `t` lands in
/// lane `k` of destination access `t`; the cheapest replay that keeps
/// those semantics wins:
///
/// * disjoint regions sharing one plan (same residue class) touch
///   congruent storage images: one `copy_within` per store run;
/// * other disjoint same-shape pairs gather canonically through the
///   source's motif runs into `scratch` and scatter through the
///   destination's (same-shape regions decompose at fixed offsets from
///   their origins, so canonical pairing is the per-access pairing);
/// * overlapping or cross-shape pairs walk the access-interleaved
///   [`RegionPlan::afold`] order, element for element the per-access loop.
///
/// Callers check that both plans have the same access count and both
/// origins are in bounds. Returns the coalesced/strided byte split.
pub(crate) fn replay_copy<T: Copy + Default>(
    flat: &mut [T],
    afn: &AddressingFunction,
    (src, sp): (&Region, &RegionPlan),
    (dst, dp): (&Region, &RegionPlan),
    scratch: &mut Vec<T>,
) -> (u64, u64) {
    let sbase = afn.address(src.i, src.j) as isize;
    let dbase = afn.address(dst.i, dst.j) as isize;
    // Both directions of the whole region, as block moves or lane by lane.
    let both = 2 * sp.len() as u64 * size_of::<T>() as u64;
    let overlap = src.overlaps(dst);
    if !overlap && std::ptr::eq(sp, dp) {
        sp.copy_store_runs_within(flat, sbase, dbase);
        return (both, 0);
    }
    // Every staged element is written before it is read (the motif runs
    // tile `0..len`, as `validate` proves), so the scratch only resizes.
    if !overlap && src.shape == dst.shape {
        scratch.resize(sp.len(), T::default());
        sp.gather_into(flat, sbase, scratch);
        dp.scatter_from(flat, dbase, scratch);
        let ((sc, ss), (dc, ds)) = (sp.byte_split::<T>(), dp.byte_split::<T>());
        return (sc + dc, ss + ds);
    }
    let lanes = sp.lanes;
    let (sfb, dfb) = (sp.flat_base(sbase), dp.flat_base(dbase));
    scratch.resize(lanes, T::default());
    for (sa, da) in sp
        .afold
        .chunks_exact(lanes)
        .zip(dp.afold.chunks_exact(lanes))
    {
        for (v, &f) in scratch.iter_mut().zip(sa) {
            *v = flat[(sfb + f) as usize];
        }
        for (&f, &v) in da.iter().zip(scratch.iter()) {
            flat[(dfb + f) as usize] = v;
        }
    }
    (0, both)
}

/// The replay test matrix: the 2x4 grid of the fixed 8-lane kernel and
/// the 4/16/32-lane grids of the runtime-width loop under all five
/// schemes, plus a 12-lane grid under `ReO`, each with one region per
/// shape on a `4·lanes`-square space. Rows span two lane groups so runs repeat;
/// the `p x q` tile is a single-group block move under `ReO`. Shared by
/// the plan-level and `PolyMem`-level oracle tests.
#[cfg(test)]
pub(crate) fn replay_matrix() -> Vec<((usize, usize), AccessScheme, Vec<Region>)> {
    let grids = [(2, 2), (2, 4), (4, 4), (2, 8), (4, 8)];
    let mut cases: Vec<_> = grids
        .iter()
        .flat_map(|&g| AccessScheme::ALL.map(|s| (g, s)))
        .collect();
    cases.push(((3, 4), AccessScheme::ReO));
    cases
        .into_iter()
        .map(|((p, q), scheme)| {
            let n = p * q;
            let regions = vec![
                Region::new(
                    "block",
                    p,
                    q,
                    RegionShape::Block {
                        rows: 2 * p,
                        cols: 2 * n,
                    },
                ),
                Region::new("tile", p, q, RegionShape::Block { rows: p, cols: q }),
                Region::new("row", 1, 3, RegionShape::Row { len: 2 * n }),
                Region::new("col", 3, 1, RegionShape::Col { len: 2 * n }),
                Region::new("diag", 1, 2, RegionShape::MainDiag { len: 2 * n }),
                // Origin is the top-right end: the diagonal ends at column 0.
                Region::new(
                    "anti",
                    1,
                    2 * n - 1,
                    RegionShape::SecondaryDiag { len: 2 * n },
                ),
            ];
            ((p, q), scheme, regions)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanKey;

    fn blocks(
        scheme: AccessScheme,
        p: usize,
        q: usize,
        rows: usize,
        cols: usize,
    ) -> (Agu, ModuleAssignment, AddressingFunction, PlanCache) {
        (
            Agu::new(p, q, rows, cols),
            ModuleAssignment::new(scheme, p, q),
            AddressingFunction::new(p, q, rows, cols),
            PlanCache::new(p * q, (rows / p) * (cols / q), BankLayout::BankMajor),
        )
    }

    #[test]
    fn block_plan_matches_interpreted_addressing() {
        // Every gather slot decodes, through the layout, to exactly the
        // MAF's bank and the addressing function's intra-bank address.
        let r = Region::new("b", 2, 4, RegionShape::Block { rows: 4, cols: 8 });
        let maf = ModuleAssignment::new(AccessScheme::ReO, 2, 4);
        let afn = AddressingFunction::new(2, 4, 16, 16);
        for layout in [BankLayout::BankMajor, BankLayout::AddrInterleaved] {
            let (plan, base, depth) =
                compile_in((2, 4), 16, AccessScheme::ReO, layout, &r).unwrap();
            assert_eq!(plan.len(), 32);
            assert_eq!(plan.accesses, 4);
            let fbase = plan.flat_base(base);
            for (c, (i, j)) in r.coords_iter().unwrap().enumerate() {
                let slot = (fbase + plan.fold[c]) as usize;
                assert_eq!(
                    layout.bank_of(slot, 8, depth),
                    maf.assign_linear(i, j),
                    "{layout:?}"
                );
                assert_eq!(
                    layout.addr_of(slot, 8, depth),
                    afn.address(i, j),
                    "{layout:?}"
                );
            }
        }
    }

    #[test]
    fn plan_is_invariant_across_residue_class() {
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::ReRo, 2, 4, 64, 64);
        let a = Region::new("a", 3, 8, RegionShape::Row { len: 16 });
        let b = Region::new("b", 3 + 8, 8 + 16, RegionShape::Row { len: 16 });
        let pa = RegionPlan::compile(&a, &agu, &maf, &afn, &mut cache).unwrap();
        let pb = RegionPlan::compile(&b, &agu, &maf, &afn, &mut cache).unwrap();
        assert_eq!(pa.fold, pb.fold);
        assert_eq!(pa.afold, pb.afold);
    }

    #[test]
    fn bank_elems_is_a_rectangular_cover() {
        // Decoding every fold slot through the layout groups the region's
        // elements by bank: each bank owns exactly `accesses` of them.
        let r = Region::new("b", 2, 0, RegionShape::Block { rows: 4, cols: 8 });
        for layout in [BankLayout::BankMajor, BankLayout::AddrInterleaved] {
            let (plan, base, depth) =
                compile_in((2, 4), 16, AccessScheme::RoCo, layout, &r).unwrap();
            let fbase = plan.flat_base(base);
            let mut per_bank = vec![0usize; plan.lanes];
            for &f in &plan.fold {
                per_bank[layout.bank_of((fbase + f) as usize, plan.lanes, depth)] += 1;
            }
            assert_eq!(per_bank, vec![plan.accesses; plan.lanes], "{layout:?}");
        }
    }

    #[test]
    fn check_bounds_replays_origin() {
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::ReRo, 2, 4, 16, 16);
        let r = Region::new("row", 0, 0, RegionShape::Row { len: 16 });
        let plan = RegionPlan::compile(&r, &agu, &maf, &afn, &mut cache).unwrap();
        assert!(plan
            .check_bounds(&Region::new("x", 15, 0, r.shape), 16, 16)
            .is_ok());
        assert!(plan
            .check_bounds(&Region::new("x", 16, 0, r.shape), 16, 16)
            .is_err());
        assert!(plan
            .check_bounds(&Region::new("x", 0, 8, r.shape), 16, 16)
            .is_err());
    }

    #[test]
    fn secondary_diag_left_reach_checked() {
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::ReRo, 2, 4, 32, 32);
        let r = Region::new("d", 0, 15, RegionShape::SecondaryDiag { len: 16 });
        let plan = RegionPlan::compile(&r, &agu, &maf, &afn, &mut cache).unwrap();
        assert!(plan.check_bounds(&r, 32, 32).is_ok());
        let shifted = Region::new("d", 8, 15 + 8, RegionShape::SecondaryDiag { len: 16 });
        // Same residue class mod 8? 15 vs 23 -> both 7 mod 8; in bounds.
        assert!(plan.check_bounds(&shifted, 32, 32).is_ok());
        let tight = Region::new("d", 0, 7, RegionShape::SecondaryDiag { len: 16 });
        assert!(matches!(
            plan.check_bounds(&tight, 32, 32),
            Err(PolyMemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn cache_counts_and_bytes() {
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::ReRo, 2, 4, 32, 32);
        let get = |cache: &mut PlanCache, r: &Region| {
            cache
                .get_or_compile(PlanTarget::Region(r), &agu, &maf, &afn)
                .unwrap()
                .1
        };
        let r = Region::new("r", 0, 0, RegionShape::Row { len: 16 });
        assert!(get(&mut cache, &r));
        // Same class: hit.
        assert!(!get(&mut cache, &Region::new("r2", 8, 16, r.shape)));
        // Different size: new class.
        assert!(get(
            &mut cache,
            &Region::new("r3", 0, 0, RegionShape::Row { len: 8 })
        ));
        let s = cache.region_stats();
        assert_eq!((s.misses, s.hits, s.entries), (2, 1, 2));
        assert!(s.bytes > 0);
        // The region compiles composed one cached row-access class.
        let a = cache.access_stats();
        assert_eq!((a.misses, a.hits, a.entries), (1, 2, 1));
        assert!(cache.get(&PlanKey::of(PlanTarget::Region(&r), 8)).is_some());
        assert_eq!(cache.region_stats().hits, 2);
        cache.clear_regions();
        assert_eq!(
            (cache.region_stats().entries, cache.region_stats().bytes),
            (0, 0)
        );
        assert_eq!(cache.access_stats().entries, 1, "access plans stay");
    }

    #[test]
    fn failed_compile_not_cached() {
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::ReO, 2, 4, 16, 16);
        // ReO serves rectangles only; a Row region cannot compile.
        let r = Region::new("r", 0, 0, RegionShape::Row { len: 16 });
        assert!(cache
            .get_or_compile(PlanTarget::Region(&r), &agu, &maf, &afn)
            .is_err());
        let s = cache.region_stats();
        assert_eq!((s.misses, s.entries), (1, 0));
        assert!(cache.get(&PlanKey::of(PlanTarget::Region(&r), 8)).is_none());
    }

    #[test]
    fn validate_accepts_compiled_plans_and_catches_corruption() {
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::ReRo, 2, 4, 32, 32);
        let depth = (32 / 2) * (32 / 4);
        let r = Region::new("d", 2, 15, RegionShape::SecondaryDiag { len: 16 });
        let plan = RegionPlan::compile(&r, &agu, &maf, &afn, &mut cache).unwrap();
        let base = afn.address(r.i, r.j) as isize;
        plan.validate(base, depth).unwrap();

        let mut dup = plan.clone();
        dup.fold[1] = dup.fold[0];
        assert!(dup.validate(base, depth).is_err());

        let mut outside = plan.clone();
        outside.fold[3] += (plan.lanes * depth) as isize;
        assert!(outside.validate(base, depth).is_err());

        let mut bad_afold = plan.clone();
        bad_afold.afold[0] += 1;
        assert!(bad_afold.validate(base, depth).is_err());

        // Swapping lanes across two accesses keeps afold a permutation of
        // fold but puts two slots of one bank into the same cycle.
        let mut clash = plan.clone();
        let (lanes, fbase) = (plan.lanes, plan.flat_base(base));
        let bank = |f: isize| plan.layout.bank_of((fbase + f) as usize, lanes, depth);
        let k = (0..lanes)
            .find(|&k| bank(plan.afold[lanes + k]) != bank(plan.afold[0]))
            .unwrap();
        clash.afold.swap(0, lanes + k);
        assert!(matches!(
            clash.validate(base, depth),
            Err(PolyMemError::BankConflict { .. })
        ));
    }

    #[test]
    fn eviction_respects_capacity_and_spares_copy_source() {
        let (agu, maf, afn, _) = blocks(AccessScheme::ReRo, 2, 4, 64, 64);
        let mut cache = PlanCache::with_capacity(8, (64 / 2) * (64 / 4), BankLayout::BankMajor, 2);
        let row = |len: usize| Region::new("r", 0, 0, RegionShape::Row { len });
        for len in [8, 16, 24] {
            cache
                .get_or_compile(PlanTarget::Region(&row(len)), &agu, &maf, &afn)
                .unwrap();
        }
        let s = cache.region_stats();
        assert_eq!((s.entries, s.capacity, s.evictions), (2, 2, 1));
        // Single-access plans are never evicted and do not count against
        // the region cap.
        assert_eq!(cache.access_stats().entries, 1);
        // A copy's destination compile never evicts its source.
        for (src, dst) in [(32, 40), (48, 56), (8, 16)] {
            let [(sp, _), (dp, _)] = cache
                .get_or_compile_pair([&row(src), &row(dst)], &agu, &maf, &afn)
                .unwrap();
            assert_eq!((sp.len(), dp.len()), (src, dst));
        }
        let s = cache.region_stats();
        assert_eq!((s.entries, s.evictions), (2, 7));
        // Bytes accounting survives eviction churn: it equals the resident
        // plans' footprint, and clearing zeroes it.
        let resident: u64 = [8, 16]
            .iter()
            .map(|&len| {
                let key = PlanKey::of(PlanTarget::Region(&row(len)), 8);
                cache.get(&key).map_or(0, |p| p.heap_bytes() as u64)
            })
            .sum();
        assert_eq!(s.bytes, resident);
        cache.clear_regions();
        assert_eq!(cache.region_stats().bytes, 0);
    }

    #[test]
    fn empty_region_compiles_to_empty_plan() {
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::ReO, 2, 4, 16, 16);
        let r = Region::new("e", 3, 3, RegionShape::Block { rows: 0, cols: 4 });
        let plan = RegionPlan::compile(&r, &agu, &maf, &afn, &mut cache).unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.accesses, 0);
        assert!(plan.motif_runs.is_empty());
        assert!(
            plan.motifs.iter().copied().eq(0..plan.lanes),
            "identity only"
        );
        assert!(plan.store_runs.is_empty());
        // An empty region is in bounds anywhere (no access is issued).
        assert!(plan
            .check_bounds(&Region::new("e", 999, 999, r.shape), 16, 16)
            .is_ok());
    }

    fn compile_in(
        (p, q): (usize, usize),
        n: usize,
        scheme: AccessScheme,
        layout: BankLayout,
        region: &Region,
    ) -> Result<(RegionPlan, isize, usize)> {
        let agu = Agu::new(p, q, n, n);
        let maf = ModuleAssignment::new(scheme, p, q);
        let afn = AddressingFunction::new(p, q, n, n);
        let depth = (n / p) * (n / q);
        let mut cache = PlanCache::new(p * q, depth, layout);
        let plan = RegionPlan::compile(region, &agu, &maf, &afn, &mut cache)?;
        Ok((plan, afn.address(region.i, region.j) as isize, depth))
    }

    fn compile_on(
        scheme: AccessScheme,
        layout: BankLayout,
        region: &Region,
    ) -> (RegionPlan, isize, usize) {
        compile_in((2, 4), 32, scheme, layout, region).unwrap()
    }

    #[test]
    fn runs_tile_fold_and_coalesced_replay_matches_oracle() {
        let (mut widths, mut block_moves) = (Vec::new(), 0usize);
        for (grid, scheme, regions) in replay_matrix() {
            let n = 4 * grid.0 * grid.1;
            for layout in [BankLayout::BankMajor, BankLayout::AddrInterleaved] {
                for region in &regions {
                    let ctx = format!("{grid:?} {scheme} {layout:?} {}", region.name);
                    // Shapes the scheme cannot serve fail to compile; the
                    // PolyMem-level test checks that error parity.
                    let Ok((plan, base, depth)) = compile_in(grid, n, scheme, layout, region)
                    else {
                        continue;
                    };
                    plan.validate(base, depth).unwrap();
                    widths.push(plan.lanes);
                    // Motif runs tile the canonical range and mirror fold.
                    let lanes = plan.lanes;
                    let mut covered = 0usize;
                    for run in &plan.motif_runs {
                        assert_eq!(run.start as usize, covered, "{ctx}");
                        let motif = &plan.motifs[run.motif as usize * lanes..][..lanes];
                        for t in 0..run.reps as usize {
                            for (k, &m) in motif.iter().enumerate() {
                                assert_eq!(
                                    plan.fold[covered + t * lanes + k],
                                    run.offset + t as isize * run.step + m as isize,
                                    "{ctx}"
                                );
                            }
                        }
                        if run.is_block_move(lanes) {
                            block_moves += 1;
                        }
                        covered += run.reps as usize * lanes;
                    }
                    assert_eq!(covered, plan.len(), "{ctx}");
                    // Motif-run gather == per-element oracle.
                    let total = plan.lanes * depth;
                    let flat: Vec<u64> = (0..total as u64).map(|x| x * 7 + 3).collect();
                    let mut out = vec![0u64; plan.len()];
                    plan.gather_into(&flat, base, &mut out);
                    let fbase = plan.flat_base(base);
                    let oracle: Vec<u64> = plan
                        .fold
                        .iter()
                        .map(|&f| flat[(fbase + f) as usize])
                        .collect();
                    assert_eq!(out, oracle, "{ctx}");
                    // Motif-run scatter == per-element oracle.
                    let values: Vec<u64> = (0..plan.len() as u64).map(|x| x + 1000).collect();
                    let mut flat_a = flat.clone();
                    plan.scatter_from(&mut flat_a, base, &values);
                    let mut flat_b = flat;
                    for (c, &f) in plan.fold.iter().enumerate() {
                        flat_b[(fbase + f) as usize] = values[c];
                    }
                    assert_eq!(flat_a, flat_b, "{ctx}");
                }
            }
        }
        // Both kernels ran at every grid width, and the block-move branch
        // was taken.
        for lanes in [4, 8, 16, 32, 12] {
            assert!(widths.contains(&lanes), "no {lanes}-lane plan compiled");
        }
        assert!(block_moves > 0, "no identity block-move run replayed");
    }

    #[test]
    fn same_plan_copy_store_runs_matches_element_copy() {
        // Two origins in the same residue class: the store-run copy must
        // equal the per-element dst[fold] = src[fold] oracle.
        let region = Region::new("b", 0, 0, RegionShape::Block { rows: 4, cols: 8 });
        let shifted = Region::new("b2", 16, 8, region.shape);
        for layout in [BankLayout::BankMajor, BankLayout::AddrInterleaved] {
            let (plan, sbase, depth) = compile_on(AccessScheme::RoCo, layout, &region);
            let (_, dbase, _) = compile_on(AccessScheme::RoCo, layout, &shifted);
            let total = plan.lanes * depth;
            let mut flat_a: Vec<u64> = (0..total as u64).map(|x| x * 13 + 1).collect();
            let mut flat_b = flat_a.clone();
            plan.copy_store_runs_within(&mut flat_a, sbase, dbase);
            let (sf, df) = (plan.flat_base(sbase), plan.flat_base(dbase));
            for &f in &plan.fold {
                flat_b[(df + f) as usize] = flat_b[(sf + f) as usize];
            }
            assert_eq!(flat_a, flat_b, "{layout:?}");
        }
    }

    #[test]
    fn interleaved_layout_lengthens_unit_stride_runs() {
        // The point of the knob: under the bank-major layout no lane group
        // lines up in adjacent slots, the interleaved layout turns groups
        // in identity lane order into unit-stride block moves.
        let region = Region::new("b", 0, 0, RegionShape::Block { rows: 4, cols: 8 });
        let (bm, base_bm, depth_bm) =
            compile_on(AccessScheme::RoCo, BankLayout::BankMajor, &region);
        let (il, base_il, depth_il) =
            compile_on(AccessScheme::RoCo, BankLayout::AddrInterleaved, &region);
        bm.validate(base_bm, depth_bm).unwrap();
        il.validate(base_il, depth_il).unwrap();
        assert!(
            il.contiguous_elems > bm.contiguous_elems,
            "interleaved {} vs bank-major {}",
            il.contiguous_elems,
            bm.contiguous_elems
        );
        // Only row 1 of the block keeps identity lane order: row 0 splits
        // across two tile addresses and the `i/p` rotation in RoCo's `h`
        // component permutes rows 2 and 3, which replay lane by lane.
        assert_eq!(il.contiguous_elems, 8, "one 8-lane block move of 32");
        // Longest block move one run makes.
        let longest = |p: &RegionPlan| {
            p.motif_runs
                .iter()
                .filter(|r| r.is_block_move(p.lanes))
                .map(|r| r.reps as usize * p.lanes)
                .max()
                .unwrap_or(0)
        };
        assert!(
            longest(&il) >= 4 * longest(&bm).max(1),
            "interleaved longest {} vs bank-major {}",
            longest(&il),
            longest(&bm)
        );
    }

    #[test]
    fn validate_catches_mistiled_run_tables() {
        // Two lane groups per row, so rows are multi-group motif runs.
        let region = Region::new("b", 2, 4, RegionShape::Block { rows: 4, cols: 16 });
        let (plan, base, depth) = compile_on(AccessScheme::RoCo, BankLayout::BankMajor, &region);
        plan.validate(base, depth).unwrap();

        // A run that starts early (overlap with its predecessor).
        let mut overlap = plan.clone();
        assert!(
            overlap.motif_runs.len() >= 2,
            "block plan has multiple runs"
        );
        overlap.motif_runs[1].start -= 1;
        assert!(overlap.validate(base, depth).is_err());

        // A run whose expansion disagrees with the fold map: a wrong group
        // step, a wrong motif lane, a motif outside the pool.
        let mut skew = plan.clone();
        let long = skew.motif_runs.iter().position(|r| r.reps >= 2).unwrap();
        skew.motif_runs[long].step += 1;
        assert!(skew.validate(base, depth).is_err());
        let mut bad_lane = plan.clone();
        assert!(
            bad_lane.motifs.len() > plan.lanes,
            "block plan pools a motif"
        );
        bad_lane.motifs[plan.lanes + 1] += 1;
        assert!(bad_lane.validate(base, depth).is_err());
        let mut dangling = plan.clone();
        dangling.motif_runs[0].motif = (plan.motifs.len() / plan.lanes) as u32;
        assert!(dangling.validate(base, depth).is_err());

        // A pool whose motif 0 is not the identity (block moves trust it),
        // and a motif shifted off its anchor (offset lowered to match).
        let mut no_identity = plan.clone();
        no_identity.motifs.swap(0, 1);
        assert!(no_identity.validate(base, depth).is_err());
        let mut unanchored = plan.clone();
        for m in &mut unanchored.motifs[plan.lanes..2 * plan.lanes] {
            *m += 1;
        }
        for run in unanchored.motif_runs.iter_mut().filter(|r| r.motif == 1) {
            run.offset -= 1;
        }
        assert!(unanchored.validate(base, depth).is_err());

        // A dropped run (gap: table covers too few elements).
        let mut gap = plan.clone();
        gap.motif_runs.pop();
        assert!(gap.validate(base, depth).is_err());

        // A storage interval claiming a slot the region never touches.
        let mut ghost = plan.clone();
        ghost.store_runs[0].offset -= 1;
        assert!(ghost.validate(base, depth).is_err());

        // Mergeable (non-maximal) storage intervals.
        let mut split = plan.clone();
        let first = split.store_runs[0];
        assert!(first.len >= 2, "block plan has a real interval");
        split.store_runs[0].len = 1;
        split.store_runs.insert(
            1,
            StoreRun {
                offset: first.offset + 1,
                len: first.len - 1,
            },
        );
        assert!(split.validate(base, depth).is_err());
    }

    /// The access classes `(pattern, i0 mod p·q, j0 mod p·q)` a per-access
    /// compile loop probes, in order, and what it builds: a plan assembled
    /// element by element, or the first error it returns. A bank conflict
    /// fails the last probe's compile.
    struct Reference {
        probes: Vec<(AccessPattern, usize, usize)>,
        plan: Result<RegionPlan>,
    }

    fn reference(
        region: &Region,
        (agu, maf, afn): (&Agu, &ModuleAssignment, &AddressingFunction),
        depth: usize,
        layout: BankLayout,
    ) -> Reference {
        let mut probes = Vec::new();
        let plan = (|| {
            let (p, q, lanes) = (agu.p(), agu.q(), agu.lanes());
            let accesses = region.plan_accesses(p, q)?;
            let base = afn.address(region.i, region.j) as isize;
            // Each element's flat slot straight from the MAF's bank and the
            // addressing function's intra-bank address.
            let slot = |(i, j): (usize, usize)| {
                let delta = afn.address(i, j) as isize - base;
                layout.fold(maf.assign_linear(i, j) as isize, delta, lanes, depth)
            };
            let mut afold = Vec::new();
            let mut covered = vec![false; region.len()];
            for &acc in &accesses {
                maf.scheme().check_access(acc, p, q)?;
                agu.check_bounds(acc)?;
                probes.push((acc.pattern, acc.i % lanes, acc.j % lanes));
                let coords = agu.expand(acc)?;
                let banks: Vec<usize> = coords
                    .iter()
                    .map(|&(i, j)| maf.assign_linear(i, j))
                    .collect();
                for (k, &bank) in banks.iter().enumerate() {
                    if let Some(lane_a) = banks[..k].iter().position(|&b| b == bank) {
                        return Err(PolyMemError::BankConflict {
                            bank,
                            lane_a,
                            lane_b: k,
                        });
                    }
                }
                for &(i, j) in &coords {
                    let c = region.canonical_index(i, j).expect("accesses stay inside");
                    assert!(!std::mem::replace(&mut covered[c], true), "tiled once");
                    afold.push(slot((i, j)));
                }
            }
            assert!(covered.iter().all(|&c| c), "accesses cover the region");
            let fold: Vec<isize> = region.coords_iter()?.map(slot).collect();
            let mut sorted = fold.clone();
            sorted.sort_unstable();
            let mut store_runs: Vec<StoreRun> = Vec::new();
            for f in sorted {
                match store_runs.last_mut() {
                    Some(run) if run.offset + run.len as isize == f => run.len += 1,
                    _ => store_runs.push(StoreRun { offset: f, len: 1 }),
                }
            }
            let (motif_runs, motifs) = build_motif_runs(&fold, lanes);
            let contiguous_elems = motif_runs
                .iter()
                .filter(|r| r.is_block_move(lanes))
                .map(|r| r.reps as usize * lanes)
                .sum();
            Ok(RegionPlan {
                shape: PlanShape::Region(region.shape),
                layout,
                fold,
                afold,
                motif_runs,
                motifs,
                store_runs,
                contiguous_elems,
                accesses: accesses.len(),
                lanes,
            })
        })();
        Reference { probes, plan }
    }

    /// Which classes a cache holds and the hits and misses it has
    /// counted, as the per-access loop would leave them.
    #[derive(Default)]
    struct Expected {
        access: std::collections::HashSet<(AccessPattern, usize, usize)>,
        /// Each compiled region class, with the region it compiled for.
        regions: HashMap<(RegionShape, usize, usize), Region>,
        access_hm: (u64, u64),
        region_hm: (u64, u64),
    }

    /// Compile `region` through `cache` and check the plan (or error) and
    /// both kinds of cache statistics against [`reference`].
    fn check_compile(
        cache: &mut PlanCache,
        blocks: (&Agu, &ModuleAssignment, &AddressingFunction),
        depth: usize,
        region: &Region,
        expected: &mut Expected,
    ) {
        let (agu, maf, afn) = blocks;
        let lanes = agu.lanes();
        let ctx = format!("{} {:?} {region:?}", maf.scheme(), cache.layout());
        let got = cache
            .get_or_compile(PlanTarget::Region(region), agu, maf, afn)
            .map(|(plan, compiled)| (plan.clone(), compiled));
        let key = (region.shape, region.i % lanes, region.j % lanes);
        // A hit serves the plan of the region that compiled the class,
        // whatever this origin's bounds.
        let rep = expected.regions.get(&key).unwrap_or(region);
        let want = reference(rep, blocks, depth, cache.layout());
        let hit = expected.regions.contains_key(&key);
        if hit {
            expected.region_hm.0 += 1;
        } else {
            expected.region_hm.1 += 1;
            let conflict = matches!(want.plan, Err(PolyMemError::BankConflict { .. }));
            for (n, class) in want.probes.iter().enumerate() {
                if expected.access.contains(class) {
                    expected.access_hm.0 += 1;
                } else {
                    expected.access_hm.1 += 1;
                    if !(conflict && n + 1 == want.probes.len()) {
                        expected.access.insert(*class);
                    }
                }
            }
            if want.plan.is_ok() {
                expected.regions.insert(key, region.clone());
            }
        }
        match (got, want.plan) {
            (Ok((plan, compiled)), Ok(want)) => {
                assert_eq!(compiled, !hit, "{ctx}");
                assert_eq!(
                    (plan.shape, plan.layout, plan.accesses, plan.lanes),
                    (want.shape, want.layout, want.accesses, want.lanes),
                    "{ctx}"
                );
                assert_eq!(plan.fold, want.fold, "{ctx}");
                assert_eq!(plan.afold, want.afold, "{ctx}");
                assert_eq!(plan.motif_runs, want.motif_runs, "{ctx}");
                assert_eq!(plan.motifs, want.motifs, "{ctx}");
                assert_eq!(plan.store_runs, want.store_runs, "{ctx}");
                assert_eq!(plan.contiguous_elems, want.contiguous_elems, "{ctx}");
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "{ctx}"),
            (got, want) => panic!(
                "{ctx}: compiled {:?}, reference {:?}",
                got.err(),
                want.err()
            ),
        }
        let (a, r) = (cache.access_stats(), cache.region_stats());
        assert_eq!(
            (a.hits, a.misses, a.entries),
            (
                expected.access_hm.0,
                expected.access_hm.1,
                expected.access.len()
            ),
            "access stats after {ctx}"
        );
        assert_eq!(
            (r.hits, r.misses, r.entries),
            (
                expected.region_hm.0,
                expected.region_hm.1,
                expected.regions.len()
            ),
            "region stats after {ctx}"
        );
    }

    /// Compile `regions` in order on a fresh `rows x cols` memory, checking
    /// each against [`reference`]; returns what the cache should hold.
    fn check_compiles(
        (p, q): (usize, usize),
        (rows, cols): (usize, usize),
        maf: ModuleAssignment,
        layout: BankLayout,
        regions: &[Region],
    ) -> Expected {
        let agu = Agu::new(p, q, rows, cols);
        let afn = AddressingFunction::new(p, q, rows, cols);
        let depth = (rows / p) * (cols / q);
        let mut cache = PlanCache::new(p * q, depth, layout);
        let mut expected = Expected::default();
        for region in regions {
            check_compile(&mut cache, (&agu, &maf, &afn), depth, region, &mut expected);
        }
        expected
    }

    #[test]
    fn compile_builds_the_per_access_plan() {
        let layouts = [BankLayout::BankMajor, BankLayout::AddrInterleaved];
        for (grid, scheme, regions) in replay_matrix() {
            let n = 4 * grid.0 * grid.1;
            // Each region, again in its class (a region hit), then one row
            // and one column further (new classes, misaligned for RoCo
            // blocks).
            let mut calls = Vec::new();
            for r in &regions {
                for (di, dj) in [(0, 0), (n / 2, n / 2), (1, 0), (0, 1)] {
                    calls.push(Region::new(r.name.clone(), r.i + di, r.j + dj, r.shape));
                }
            }
            for layout in layouts {
                let maf = ModuleAssignment::new(scheme, grid.0, grid.1);
                check_compiles(grid, (n, n), maf, layout, &calls);
            }
        }
        let roco = ModuleAssignment::new(AccessScheme::RoCo, 2, 4);
        let vector = |i, rows| Region::new("v", i, 0, RegionShape::Block { rows, cols: 512 });
        for layout in layouts {
            // `stream-host`'s vectors, and the paper-size ones in three
            // classes.
            let host = [vector(0, 160), vector(160, 160), vector(320, 160)];
            let e = check_compiles((2, 4), (480, 512), roco, layout, &host);
            assert_eq!((e.regions.len(), e.region_hm), (1, (2, 1)));
            let paper = [vector(0, 170), vector(170, 170), vector(340, 170)];
            let e = check_compiles((2, 4), (510, 512), roco, layout, &paper);
            assert_eq!(e.regions.len(), 3);

            // Failing compiles: an unsupported pattern, a misaligned class,
            // a block whose second row of accesses leaves the space after
            // the first row's hits, and a bank conflict (the MAF of the
            // transposed grid).
            let reo = ModuleAssignment::new(AccessScheme::ReO, 2, 4);
            let row = Region::new("row", 0, 0, RegionShape::Row { len: 16 });
            let e = check_compiles((2, 4), (32, 32), reo, layout, &[row]);
            assert_eq!((e.access_hm, e.region_hm), ((0, 0), (0, 1)));
            let block = |i, j| Region::new("b", i, j, RegionShape::Block { rows: 4, cols: 16 });
            let e = check_compiles((2, 4), (32, 32), roco, layout, &[block(1, 0)]);
            assert_eq!(e.access_hm, (0, 0));
            let e = check_compiles((2, 4), (32, 32), reo, layout, &[block(28, 0), block(30, 8)]);
            assert_eq!((e.access_hm, e.regions.len()), ((4 + 4, 4), 1));
            let transposed = ModuleAssignment::new(AccessScheme::ReO, 4, 2);
            let e = check_compiles((2, 4), (32, 32), transposed, layout, &[block(0, 0)]);
            assert_eq!((e.access_hm, e.access.len()), ((0, 1), 0));
        }
    }

    #[test]
    fn a_class_places_an_access_only_when_both_end_lanes_fit() {
        // The rectangle class proved at the top-left tile of a 4x8 block.
        let region = Region::new("b", 0, 0, RegionShape::Block { rows: 4, cols: 8 });
        let first = ParallelAccess::rect(0, 0);
        let coords = Agu::new(2, 4, 16, 16).expand(first).unwrap();
        let canon: Vec<usize> = coords
            .iter()
            .map(|&(i, j)| region.canonical_index(i, j).unwrap())
            .collect();
        let class = AccessClass::new(first, &[0; 8], &canon, &coords);
        assert_eq!(
            class.place(&region, ParallelAccess::rect(2, 4)),
            Some(2 * 8 + 4)
        );
        // Lane 0 inside, the last lane past the right or the bottom edge.
        assert_eq!(class.place(&region, ParallelAccess::rect(2, 6)), None);
        assert_eq!(class.place(&region, ParallelAccess::rect(3, 0)), None);
        // Lane 0 outside.
        assert_eq!(class.place(&region, ParallelAccess::rect(4, 0)), None);
    }

    #[test]
    fn store_runs_from_bitmap_match_sort() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let runs = |fold: &[isize]| {
            let got = build_store_runs(fold);
            assert_eq!(got, sorted_store_runs(fold), "{fold:?}");
            got
        };
        let run = |offset, len| StoreRun { offset, len };
        // Negative offsets, single slots and a run across a word boundary.
        assert_eq!(
            runs(&[-70, -3, -5, -4, 60, 61, 62, 63, 64, 65]),
            [run(-70, 1), run(-5, 3), run(60, 6)]
        );
        // Runs that end on bit 63 of a word, and one that fills whole
        // words to the bitmap's last bit.
        assert_eq!(
            runs(&[0, 61, 62, 63, 65]),
            [run(0, 1), run(61, 3), run(65, 1)]
        );
        assert_eq!(runs(&(0..128).rev().collect::<Vec<_>>()), [run(0, 128)]);
        assert_eq!(runs(&[127, 0]), [run(0, 1), run(127, 1)]);
        assert!(runs(&[]).is_empty());
        // A sparse fold: its span exceeds 64 slots per element, so the
        // sort builds its runs.
        let sparse = [5, -1_000_000, 6, 1_000_000];
        assert!(2_000_001 > 64 * sparse.len());
        assert_eq!(
            runs(&sparse),
            [run(-1_000_000, 1), run(5, 2), run(1_000_000, 1)]
        );
        // Random injective folds: a shuffled subset of a window, at
        // densities from sparse to full, around a random (often negative)
        // origin.
        let mut rng = StdRng::seed_from_u64(27);
        for _ in 0..500 {
            let span = rng.gen_range(1..600usize);
            let lo = rng.gen_range(-300..300isize);
            let density = rng.gen_range(0.0..1.0);
            let mut fold: Vec<isize> = (0..span as isize)
                .filter(|_| rng.gen_bool(density))
                .map(|s| lo + s)
                .collect();
            for i in (1..fold.len()).rev() {
                fold.swap(i, rng.gen_range(0..i + 1));
            }
            runs(&fold);
        }
    }
}
