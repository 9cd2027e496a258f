//! Compiled region plans: whole-region transfers as one flat gather/scatter.
//!
//! [`crate::plan`] made single parallel accesses cheap (per-residue-class
//! routing compiled once). Real workloads move [`Region`]s — many accesses
//! plus a canonical-order permutation — and the naive bulk path still paid a
//! per-access plan lookup, a per-access `Vec`, and a coordinate `HashMap`
//! rebuilt per call. A [`RegionPlan`] compiles all of that once per
//! *(region shape, origin residue class)*:
//!
//! * the access decomposition ([`Region::plan_accesses`]) is shape+residue
//!   periodic: access origins sit at fixed offsets from the region origin
//!   that are multiples of `p`/`q`/`p*q`, so each access's aligned-tile
//!   address `A(acc) - A(origin)` telescopes exactly (the same argument as
//!   the single-access plan, lifted to whole regions);
//! * each access's per-lane routing comes from the existing
//!   [`PlanCache`] (crossbar-verified at compile);
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
//! [`RegionPlanCache`] memoises plans with hit/miss/bytes counters,
//! mirroring [`PlanCache`].

use crate::addressing::AddressingFunction;
use crate::agu::Agu;
use crate::banks::BankLayout;
use crate::error::{PolyMemError, Result};
use crate::maf::ModuleAssignment;
use crate::plan::{PlanCache, PlanKeyHasher};
use crate::region::{Region, RegionShape};
use crate::scheme::AccessScheme;
use crate::sync::{AtomicU64, Ordering};
use crate::telemetry::{Histogram, Label, StatCounter, TelemetryRegistry};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// Fixed width of the strided-replay inner loop of the per-bank run tables
/// ([`BankRun`], replayed by [`crate::concurrent::ConcurrentPolyMem`]).
/// Segments whose stride is not 1 are replayed in chunks of this many
/// elements with a fully unrolled body of independent loads/stores — a
/// shape LLVM's autovectorizer turns into gather/scatter vector code on
/// every release target we build. The `chunk_shape` golden test pins the
/// decomposition so the loop shape cannot silently drift back to
/// one-element-at-a-time.
pub const STRIDE_CHUNK: usize = 4;

/// How a strided run of `len` elements decomposes into the fixed-width
/// replay loop: `(full_chunks, tail_elems)`.
#[inline]
pub const fn chunk_shape(len: usize) -> (usize, usize) {
    (len / STRIDE_CHUNK, len % STRIDE_CHUNK)
}

/// Strided gather inner loop: `out[t] = flat[src0 + t * stride]`,
/// executed as [`STRIDE_CHUNK`]-wide chunks with an unrolled body of
/// independent loads (the autovectorizable shape) plus a scalar tail.
#[inline]
pub(crate) fn gather_strided<T: Copy>(flat: &[T], src0: isize, stride: isize, out: &mut [T]) {
    let (chunks, _tail) = chunk_shape(out.len());
    let mut src = src0;
    let step = stride * STRIDE_CHUNK as isize;
    for chunk in out.chunks_exact_mut(STRIDE_CHUNK) {
        chunk[0] = flat[src as usize];
        chunk[1] = flat[(src + stride) as usize];
        chunk[2] = flat[(src + 2 * stride) as usize];
        chunk[3] = flat[(src + 3 * stride) as usize];
        src += step;
    }
    for (t, o) in out[chunks * STRIDE_CHUNK..].iter_mut().enumerate() {
        *o = flat[(src + t as isize * stride) as usize];
    }
}

/// Strided scatter inner loop: the write mirror of [`gather_strided`].
#[inline]
pub(crate) fn scatter_strided<T: Copy>(flat: &mut [T], dst0: isize, stride: isize, values: &[T]) {
    let (chunks, _tail) = chunk_shape(values.len());
    let mut dst = dst0;
    let step = stride * STRIDE_CHUNK as isize;
    for chunk in values.chunks_exact(STRIDE_CHUNK) {
        flat[dst as usize] = chunk[0];
        flat[(dst + stride) as usize] = chunk[1];
        flat[(dst + 2 * stride) as usize] = chunk[2];
        flat[(dst + 3 * stride) as usize] = chunk[3];
        dst += step;
    }
    for (t, &v) in values[chunks * STRIDE_CHUNK..].iter().enumerate() {
        flat[(dst + t as isize * stride) as usize] = v;
    }
}

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

/// One maximal dual-constant-stride segment of a bank's element list
/// (bank-major view, independent of the flat layout): for `t < len`, the
/// segment covers canonical element `c0 + t * c_stride` at intra-bank
/// address delta `d0 + t * d_stride`. Lets per-bank-locked replay move a
/// whole segment under one guard, as a block move when both strides are 1
/// and as the chunked strided loop otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankRun {
    /// First canonical element of the segment.
    pub c0: u32,
    /// Elements covered (>= 1).
    pub len: u32,
    /// Intra-bank address delta of the first element.
    pub d0: isize,
    /// Canonical-index distance between consecutive elements (bank
    /// element lists ascend, so this is positive).
    pub c_stride: u32,
    /// Intra-bank address distance between consecutive elements.
    pub d_stride: isize,
}

/// One cached plan plus its recency stamp. The stamp is atomic so shared
/// `&self` lookups can refresh it without a write lock on the map.
#[derive(Debug)]
struct CacheSlot {
    plan: Arc<RegionPlan>,
    last_used: AtomicU64,
}

impl Clone for CacheSlot {
    fn clone(&self) -> Self {
        Self {
            plan: Arc::clone(&self.plan),
            last_used: AtomicU64::new(self.last_used.load(Ordering::Relaxed)),
        }
    }
}

type RegionPlanMap = HashMap<RegionPlanKey, CacheSlot, BuildHasherDefault<PlanKeyHasher>>;

/// Identity of one residue class of regions: same shape (including sizes)
/// and origins congruent mod `p*q` in both coordinates share identical
/// decomposition and routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionPlanKey {
    /// The region shape, sizes included.
    pub shape: RegionShape,
    /// `i0 mod (p*q)`.
    pub ri: u32,
    /// `j0 mod (p*q)`.
    pub rj: u32,
}

impl RegionPlanKey {
    /// The residue class of `region` for a memory with `period = p*q`.
    #[inline]
    pub fn of(region: &Region, period: usize) -> Self {
        Self {
            shape: region.shape,
            ri: (region.i % period) as u32,
            rj: (region.j % period) as u32,
        }
    }
}

/// A compiled region transfer: every index a `read_region`/`write_region`/
/// `copy_region` needs, in flat precomputed arrays.
///
/// All offsets are relative to `A(i0, j0)` of the *region origin*; a replay
/// computes that one address and gathers/scatters through [`Self::fold`].
#[derive(Debug, Clone)]
pub struct RegionPlan {
    /// The shape this plan serves (for diagnostics).
    pub shape: RegionShape,
    /// The flat backing layout `fold`/`afold` were compiled against. All
    /// flat offsets below are relative to `A(origin) * layout.base_scale`.
    pub layout: BankLayout,
    /// Per canonical element `c`: flat storage offset
    /// (`layout.fold(bank, addr_delta)`) relative to the scaled origin
    /// address. The gather map of reads and, read right-to-left, the
    /// scatter map of writes.
    pub fold: Vec<isize>,
    /// Per canonical element: owning bank (for per-bank-locked storage that
    /// has no flat view, i.e. [`crate::concurrent::ConcurrentPolyMem`]).
    pub banks: Vec<u32>,
    /// Per canonical element: signed intra-bank address delta relative to
    /// `A(origin)` (companion of [`Self::banks`]).
    pub deltas: Vec<isize>,
    /// Access-major mirror of [`Self::fold`]: slot `a * lanes + k` is the
    /// flat offset of lane `k` of access `a`, in AGU lane order. `copy_region`
    /// pairs source and destination slots positionally through this, which
    /// preserves the per-access interleaved overlap semantics of the naive
    /// read-one-access/write-one-access loop.
    pub afold: Vec<isize>,
    /// Canonical element indices grouped by bank: bank `b` owns
    /// `bank_elems[b * accesses .. (b + 1) * accesses]` (every conflict-free
    /// access touches each bank exactly once, so the grouping is rectangular).
    /// Lets a concurrent write take each bank lock once per region.
    pub bank_elems: Vec<u32>,
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
    /// Per-bank run table over [`Self::bank_elems`]: bank `b` owns
    /// `bank_runs[bank_run_index[b] .. bank_run_index[b + 1]]`.
    pub bank_runs: Vec<BankRun>,
    /// CSR index into [`Self::bank_runs`], `lanes + 1` entries.
    pub bank_run_index: Vec<u32>,
    /// Elements covered by block-move motif runs
    /// ([`MotifRun::is_block_move`]); the remaining `len - contiguous_elems`
    /// replay lane by lane. Cached for the coalesced-bytes telemetry
    /// counters.
    pub contiguous_elems: usize,
    /// Elements covered by bank runs whose intra-bank stride is 1 — the
    /// per-bank-locked replay's block-move share (the concurrent façade's
    /// counterpart of [`Self::contiguous_elems`]).
    pub bank_contiguous_elems: usize,
    /// Number of parallel accesses the region decomposes into.
    pub accesses: usize,
    /// Lanes per access (`p * q`).
    pub lanes: usize,
    max_down: usize,
    max_right: usize,
    max_left: usize,
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

/// Merge the sorted storage image into maximal unit-stride intervals.
fn build_store_runs(fold: &[isize]) -> Vec<StoreRun> {
    let mut sorted = fold.to_vec();
    sorted.sort_unstable();
    let mut runs = Vec::new();
    let mut i = 0usize;
    while i < sorted.len() {
        let mut last = i;
        while last + 1 < sorted.len() && sorted[last + 1] == sorted[last] + 1 {
            last += 1;
        }
        runs.push(StoreRun {
            offset: sorted[i],
            len: (last - i + 1) as u32,
        });
        i = last + 1;
    }
    runs
}

/// Greedy maximal dual-stride segmentation of each bank's element list.
/// Returns the flat run table plus its `lanes + 1`-entry CSR index.
fn build_bank_runs(
    bank_elems: &[u32],
    deltas: &[isize],
    lanes: usize,
    accesses: usize,
) -> (Vec<BankRun>, Vec<u32>) {
    let mut runs = Vec::new();
    let mut index = Vec::with_capacity(lanes + 1);
    index.push(0u32);
    for b in 0..lanes {
        let elems = &bank_elems[b * accesses..(b + 1) * accesses];
        let mut t = 0usize;
        while t < elems.len() {
            let c0 = elems[t];
            let d0 = deltas[c0 as usize];
            if t + 1 == elems.len() {
                runs.push(BankRun {
                    c0,
                    len: 1,
                    d0,
                    c_stride: 1,
                    d_stride: 1,
                });
                break;
            }
            let c_stride = elems[t + 1] - elems[t];
            let d_stride = deltas[elems[t + 1] as usize] - d0;
            let mut last = t + 1;
            while last + 1 < elems.len()
                && elems[last + 1] - elems[last] == c_stride
                && deltas[elems[last + 1] as usize] - deltas[elems[last] as usize] == d_stride
            {
                last += 1;
            }
            runs.push(BankRun {
                c0,
                len: (last - t + 1) as u32,
                d0,
                c_stride,
                d_stride,
            });
            t = last + 1;
        }
        index.push(runs.len() as u32);
    }
    (runs, index)
}

impl RegionPlan {
    /// Compile the plan for `region`'s residue class.
    ///
    /// Runs the full checked pipeline once per access — scheme/alignment
    /// check, AGU bounds check, per-access plan compile through `cache`
    /// (crossbar-verified) — then splices every lane into canonical order.
    /// Errors surface in the same order the naive per-access loop would hit
    /// them. Failed compiles are not cached.
    pub fn compile(
        region: &Region,
        scheme: AccessScheme,
        agu: &Agu,
        maf: &ModuleAssignment,
        afn: &AddressingFunction,
        cache: &mut PlanCache,
    ) -> Result<Self> {
        let (p, q) = (agu.p(), agu.q());
        let accesses = region.plan_accesses(p, q)?;
        let lanes = agu.lanes();
        let len = region.len();
        let base0 = afn.address(region.i, region.j) as isize;
        let layout = cache.layout();
        // Under an interleaved layout one intra-bank address step moves
        // `lanes` flat slots, so access-base offsets scale before folding.
        let scale = layout.base_scale(lanes);

        let mut fold = vec![0isize; len];
        let mut banks = vec![0u32; len];
        let mut deltas = vec![0isize; len];
        let mut afold = vec![0isize; len];
        let mut seen = vec![false; len];
        let mut coords = Vec::with_capacity(lanes);
        for (a, &acc) in accesses.iter().enumerate() {
            scheme.check_access(acc, p, q)?;
            agu.check_bounds(acc)?;
            let abase = afn.address(acc.i, acc.j) as isize - base0;
            // Borrow the plan out of the cache, then expand coordinates
            // (compile-time only; replays never expand).
            let plan = cache.get_or_compile(acc, agu, maf, afn)?.clone();
            agu.expand_into(acc, &mut coords)?;
            for (k, &(i, j)) in coords.iter().enumerate() {
                let c =
                    region
                        .canonical_index(i, j)
                        .ok_or_else(|| PolyMemError::InvalidGeometry {
                            reason: format!(
                                "region {}: access {a} lane {k} at ({i}, {j}) falls \
                             outside the region",
                                region.name
                            ),
                        })?;
                if seen[c] {
                    return Err(PolyMemError::InvalidGeometry {
                        reason: format!(
                            "region {}: canonical element {c} covered twice",
                            region.name
                        ),
                    });
                }
                seen[c] = true;
                fold[c] = plan.fold[k] + abase * scale;
                banks[c] = plan.banks[k];
                deltas[c] = plan.deltas[k] + abase;
                afold[a * lanes + k] = plan.fold[k] + abase * scale;
            }
        }
        if let Some(c) = seen.iter().position(|&s| !s) {
            return Err(PolyMemError::InvalidGeometry {
                reason: format!(
                    "region {}: canonical element {c} not covered by any access",
                    region.name
                ),
            });
        }

        // CSR-by-bank grouping for merged per-bank writes.
        let n_acc = accesses.len();
        let mut bank_elems = vec![0u32; len];
        let mut filled = vec![0usize; lanes.max(1)];
        for (c, &b) in banks.iter().enumerate() {
            let b = b as usize;
            bank_elems[b * n_acc + filled[b]] = c as u32;
            filled[b] += 1;
        }

        // The layout/coalescing pass: segment the gather map into motif
        // runs once, so every replay moves whole lane groups.
        let (motif_runs, motifs) = build_motif_runs(&fold, lanes);
        let store_runs = build_store_runs(&fold);
        let (bank_runs, bank_run_index) = build_bank_runs(&bank_elems, &deltas, lanes, n_acc);
        let contiguous_elems = motif_runs
            .iter()
            .filter(|r| r.is_block_move(lanes))
            .map(|r| r.reps as usize * lanes)
            .sum();
        let bank_contiguous_elems = bank_runs
            .iter()
            .filter(|r| r.d_stride == 1)
            .map(|r| r.len as usize)
            .sum();

        let (max_down, max_right, max_left) = region.extents();
        Ok(Self {
            shape: region.shape,
            layout,
            fold,
            banks,
            deltas,
            afold,
            bank_elems,
            motif_runs,
            motifs,
            store_runs,
            bank_runs,
            bank_run_index,
            contiguous_elems,
            bank_contiguous_elems,
            accesses: n_acc,
            lanes,
            max_down,
            max_right,
            max_left,
        })
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

    /// Bounds-check a concrete origin against the logical space. Plans are
    /// shared across a residue class, so the actual origin must be re-checked
    /// on every replay, exactly like the single-access plan's
    /// [`Agu::check_bounds`]. Empty regions are always in bounds (the naive
    /// path issues no access for them).
    pub fn check_bounds(&self, region: &Region, rows: usize, cols: usize) -> Result<()> {
        if self.is_empty() {
            return Ok(());
        }
        let oob = |i: i64, j: i64| Err(PolyMemError::OutOfBounds { i, j, rows, cols });
        if region.i + self.max_down >= rows {
            return oob((region.i + self.max_down) as i64, region.j as i64);
        }
        if region.j + self.max_right >= cols {
            return oob(region.i as i64, (region.j + self.max_right) as i64);
        }
        if region.j < self.max_left {
            return oob(
                (region.i + self.max_down) as i64,
                region.j as i64 - self.max_left as i64,
            );
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
        let fbase = self.flat_base(base);
        if self.lanes == 8 {
            self.scatter_motifs::<T, 8>(flat, fbase, values)
        } else {
            self.scatter_motifs::<T, 0>(flat, fbase, values)
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
    fn scatter_motifs<T: Copy, const L: usize>(&self, flat: &mut [T], fbase: isize, values: &[T]) {
        let lanes = if L == 0 { self.lanes } else { L };
        for run in &self.motif_runs {
            let start = run.start as usize;
            let len = run.reps as usize * lanes;
            let src = &values[start..start + len];
            let mut dst = fbase + run.offset;
            if run.is_block_move(lanes) {
                let d = dst as usize;
                flat[d..d + len].copy_from_slice(src);
                continue;
            }
            let m0 = run.motif as usize * lanes;
            let motif = &self.motifs[m0..m0 + lanes];
            for group in src.chunks_exact(lanes) {
                let d = dst as usize;
                for (&v, &m) in group.iter().zip(motif) {
                    flat[d + m] = v;
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

    /// Structural soundness check: prove this plan is a true permutation of
    /// the region for a replay at flat base address `base` (`A(origin)`)
    /// into banks of `depth` elements.
    ///
    /// Verifies, without touching any memory:
    /// * every canonical element's gather slot `base + fold[c]` is in bounds
    ///   and lands inside the bank recorded in `banks[c]`, at the intra-bank
    ///   address `base + deltas[c]` (gather and per-bank views agree);
    /// * `fold` is injective (the gather is a permutation, so a scatter
    ///   through it can never lose a write);
    /// * `afold` is a bijective rearrangement of `fold` whose `lanes` slots
    ///   are bank-disjoint within every access — each replayed cycle still
    ///   hits `p*q` distinct banks;
    /// * `bank_elems` partitions the canonical range rectangularly by bank;
    /// * the motif-run table exactly tiles the fold map — `motif_runs`
    ///   covers `0..len` contiguously with no overlap and no gap, every run
    ///   names a pooled motif, and every run expands to precisely the fold
    ///   offsets it claims; the pool's motif 0 is the identity (the
    ///   block-move replay relies on it) and every motif has a lane at 0;
    /// * `store_runs` exactly tiles the sorted storage image (maximal
    ///   intervals: adjacent intervals never merge);
    /// * `bank_runs` (+ its CSR index) expands positionally to exactly
    ///   each bank's `bank_elems` list with matching address deltas.
    ///
    /// Compiled plans satisfy this by construction; the `polymem-verify`
    /// static analyzer re-proves it per cached class and trips it on
    /// deliberately corrupted plans in `--inject` mode.
    pub fn validate(&self, base: isize, depth: usize) -> Result<()> {
        let len = self.len();
        let structural = |reason: String| PolyMemError::InvalidGeometry { reason };
        let nm = |what: &str| format!("region plan for {:?}: {what}", self.shape);
        if self.banks.len() != len
            || self.deltas.len() != len
            || self.afold.len() != len
            || self.bank_elems.len() != len
            || self.accesses * self.lanes != len
            || self.lanes == 0
        {
            return Err(structural(nm(
                "array lengths disagree with the region size",
            )));
        }
        let total = (self.lanes * depth) as isize;
        let fbase = self.flat_base(base);
        for c in 0..len {
            let abs = fbase + self.fold[c];
            if abs < 0 || abs >= total {
                return Err(structural(nm(&format!(
                    "element {c} gathers from flat slot {abs} outside storage of {total}"
                ))));
            }
            let bank = self.layout.bank_of(abs as usize, self.lanes, depth);
            if bank != self.banks[c] as usize {
                return Err(structural(nm(&format!(
                    "element {c} gathers from bank {bank} but records bank {}",
                    self.banks[c]
                ))));
            }
            let addr = self.layout.addr_of(abs as usize, self.lanes, depth) as isize;
            if addr != base + self.deltas[c] {
                return Err(structural(nm(&format!(
                    "element {c}: intra-bank address {addr} disagrees with delta view {}",
                    base + self.deltas[c]
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
        // bank_elems: rectangular grouping covering every element once, each
        // group owned by its bank.
        let mut covered = vec![false; len];
        for b in 0..self.lanes {
            for &c in &self.bank_elems[b * self.accesses..(b + 1) * self.accesses] {
                let c = c as usize;
                if c >= len || covered[c] {
                    return Err(structural(nm(&format!(
                        "bank_elems group {b} repeats or overruns element {c}"
                    ))));
                }
                covered[c] = true;
                if self.banks[c] as usize != b {
                    return Err(structural(nm(&format!(
                        "bank_elems group {b} claims element {c} owned by bank {}",
                        self.banks[c]
                    ))));
                }
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
        // bank_runs expand positionally to each bank's element list with
        // matching deltas.
        if self.bank_run_index.len() != self.lanes + 1
            || self.bank_run_index.first() != Some(&0)
            || self.bank_run_index.last().copied() != Some(self.bank_runs.len() as u32)
        {
            return Err(structural(nm("bank run index is not a CSR over the banks")));
        }
        for b in 0..self.lanes {
            let (lo, hi) = (
                self.bank_run_index[b] as usize,
                self.bank_run_index[b + 1] as usize,
            );
            if lo > hi || hi > self.bank_runs.len() {
                return Err(structural(nm(&format!(
                    "bank run index for bank {b} is out of order"
                ))));
            }
            let elems = &self.bank_elems[b * self.accesses..(b + 1) * self.accesses];
            let mut pos = 0usize;
            for run in &self.bank_runs[lo..hi] {
                if run.len == 0 {
                    return Err(structural(nm(&format!("bank {b} has an empty run"))));
                }
                for t in 0..run.len as usize {
                    let c = run.c0 as usize + t * run.c_stride as usize;
                    let d = run.d0 + t as isize * run.d_stride;
                    if pos + t >= elems.len() || elems[pos + t] as usize != c || self.deltas[c] != d
                    {
                        return Err(structural(nm(&format!(
                            "bank {b} run expands to element {c} delta {d}, disagreeing \
                             with the bank element list"
                        ))));
                    }
                }
                pos += run.len as usize;
            }
            if pos != elems.len() {
                return Err(structural(nm(&format!(
                    "bank {b} runs cover {pos} of {} elements",
                    elems.len()
                ))));
            }
        }
        Ok(())
    }

    /// Approximate heap footprint of the precomputed arrays, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.fold.len() * size_of::<isize>()
            + self.banks.len() * size_of::<u32>()
            + self.deltas.len() * size_of::<isize>()
            + self.afold.len() * size_of::<isize>()
            + self.bank_elems.len() * size_of::<u32>()
            + self.motif_runs.len() * size_of::<MotifRun>()
            + self.motifs.len() * size_of::<usize>()
            + self.store_runs.len() * size_of::<StoreRun>()
            + self.bank_runs.len() * size_of::<BankRun>()
            + self.bank_run_index.len() * size_of::<u32>()
    }
}

/// Observe each motif run's length in elements (`reps * lanes`).
fn observe_run_lengths(hist: &Histogram, plan: &RegionPlan) {
    for run in &plan.motif_runs {
        hist.observe(run.reps as u64 * plan.lanes as u64);
    }
}

/// Snapshot of a [`RegionPlanCache`]'s activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionPlanCacheStats {
    /// Region operations served by an already-compiled plan.
    pub hits: u64,
    /// Region operations that triggered a compilation.
    pub misses: u64,
    /// Plans evicted to stay under the capacity cap.
    pub evictions: u64,
    /// Plans currently cached.
    pub entries: usize,
    /// Maximum number of plans the cache will hold.
    pub capacity: usize,
    /// Total heap bytes held by cached plans' index arrays.
    pub bytes: u64,
}

/// Lazy cache of [`RegionPlan`]s, keyed per (shape, origin-residue) class.
///
/// Unlike [`PlanCache`] the key space is unbounded (shapes carry sizes), so
/// the cache is capacity-bounded: once `capacity` classes are resident, the
/// least-recently-used plan is evicted to make room (applications use a
/// small fixed set of region shapes, so the default cap of
/// [`Self::DEFAULT_CAPACITY`] is effectively "never evict" — the cap exists
/// so adversarially varied shapes cannot grow the cache without bound).
/// Counters and recency stamps are atomic so shared-`&self` users can count
/// and touch lookups.
#[derive(Debug)]
pub struct RegionPlanCache {
    period: usize,
    capacity: usize,
    map: RegionPlanMap,
    tick: AtomicU64,
    hits: StatCounter,
    misses: StatCounter,
    evictions: StatCounter,
    bytes: AtomicU64,
    /// When telemetry is attached: the length of every motif run the
    /// coalescing pass emits, observed once per compilation (plans are immutable, so
    /// compile time is the one place run shapes are decided).
    run_hist: Option<Histogram>,
}

impl RegionPlanCache {
    /// Default capacity cap: far above any realistic working set of region
    /// shape classes, but finite.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Histogram bucket bounds for motif-run lengths in elements (powers of
    /// two up to a full STREAM-sized row; the overflow bucket catches the
    /// rest).
    pub const RUN_LENGTH_BOUNDS: &'static [u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

    /// Empty cache for a memory with `p*q == period` lanes, holding at most
    /// [`Self::DEFAULT_CAPACITY`] plans.
    pub fn new(period: usize) -> Self {
        Self::with_capacity(period, Self::DEFAULT_CAPACITY)
    }

    /// Empty cache bounded to `capacity` plans (minimum 1: the current plan
    /// must be resident to replay).
    pub fn with_capacity(period: usize, capacity: usize) -> Self {
        Self {
            period,
            capacity: capacity.max(1),
            map: RegionPlanMap::default(),
            tick: AtomicU64::new(0),
            hits: StatCounter::new(),
            misses: StatCounter::new(),
            evictions: StatCounter::new(),
            bytes: AtomicU64::new(0),
            run_hist: None,
        }
    }

    /// Record a freshly compiled plan's run lengths, if telemetry is on.
    fn observe_runs(&self, plan: &RegionPlan) {
        if let Some(h) = &self.run_hist {
            observe_run_lengths(h, plan);
        }
    }

    /// The residue period (`p*q`).
    #[inline]
    pub fn period(&self) -> usize {
        self.period
    }

    /// Maximum number of plans the cache will hold before evicting.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Next recency stamp (monotonic; shared lookups may interleave, which
    /// only perturbs LRU order between concurrent touches — harmless).
    #[inline]
    fn stamp(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Look up the plan for `region`'s residue class without compiling.
    /// Counts a hit and refreshes recency when present (misses are counted
    /// by the compile path).
    pub fn lookup(&self, region: &Region) -> Option<Arc<RegionPlan>> {
        let found = self.map.get(&RegionPlanKey::of(region, self.period));
        if let Some(slot) = found {
            slot.last_used.store(self.stamp(), Ordering::Relaxed);
            self.hits.inc();
        }
        found.map(|slot| Arc::clone(&slot.plan))
    }

    /// Evict least-recently-used plans until an insert fits under the cap.
    fn make_room(&mut self) {
        while self.map.len() >= self.capacity {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(key, _)| *key)
            else {
                return;
            };
            if let Some(slot) = self.map.remove(&oldest) {
                self.bytes
                    .fetch_sub(slot.plan.heap_bytes() as u64, Ordering::Relaxed);
                self.evictions.inc();
            }
        }
    }

    /// The plan for `region`'s residue class, compiling through `cache` on
    /// first use (evicting the least-recently-used plan when full). The
    /// caller still bounds-checks the concrete origin via
    /// [`RegionPlan::check_bounds`] (compilation checks the representative;
    /// cache hits do not).
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_compile(
        &mut self,
        region: &Region,
        scheme: AccessScheme,
        agu: &Agu,
        maf: &ModuleAssignment,
        afn: &AddressingFunction,
        cache: &mut PlanCache,
    ) -> Result<Arc<RegionPlan>> {
        let key = RegionPlanKey::of(region, self.period);
        if let Some(slot) = self.map.get(&key) {
            slot.last_used.store(self.stamp(), Ordering::Relaxed);
            self.hits.inc();
            return Ok(Arc::clone(&slot.plan));
        }
        self.misses.inc();
        let plan = Arc::new(RegionPlan::compile(region, scheme, agu, maf, afn, cache)?);
        self.observe_runs(&plan);
        self.make_room();
        self.bytes
            .fetch_add(plan.heap_bytes() as u64, Ordering::Relaxed);
        self.map.insert(
            key,
            CacheSlot {
                plan: Arc::clone(&plan),
                last_used: AtomicU64::new(self.stamp()),
            },
        );
        Ok(plan)
    }

    /// Insert a pre-compiled plan (used by shared-cache wrappers that
    /// compile outside the map borrow), evicting the least-recently-used
    /// plan when full.
    pub fn insert(&mut self, key: RegionPlanKey, plan: Arc<RegionPlan>) {
        self.misses.inc();
        self.observe_runs(&plan);
        self.make_room();
        self.bytes
            .fetch_add(plan.heap_bytes() as u64, Ordering::Relaxed);
        let slot = CacheSlot {
            plan,
            last_used: AtomicU64::new(self.stamp()),
        };
        if let Some(old) = self.map.insert(key, slot) {
            // Re-insert over an existing class: the old plan leaves.
            self.bytes
                .fetch_sub(old.plan.heap_bytes() as u64, Ordering::Relaxed);
        }
    }

    /// Drop every cached plan (counters keep running, bytes resets).
    pub fn clear(&mut self) {
        self.map.clear();
        self.bytes.store(0, Ordering::Relaxed);
    }

    /// Activity counters, current size/capacity, and heap footprint.
    pub fn stats(&self) -> RegionPlanCacheStats {
        RegionPlanCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            entries: self.map.len(),
            capacity: self.capacity,
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Export the hit/miss/eviction counters through `registry` as
    /// `polymem_plan_cache_{hits,misses,evictions}_total` with the given
    /// labels, and start recording the motif-run lengths (`reps * lanes`
    /// elements) into `polymem_region_run_length`. The registry holds live handles to
    /// the same atomics [`Self::stats`] reads, so exported values track
    /// lookups with no extra work on the lookup path; the histogram costs
    /// one observation per run per *compilation* (never per replay).
    pub fn register_telemetry(&mut self, registry: &TelemetryRegistry, labels: Vec<Label>) {
        registry.register_stat("polymem_plan_cache_hits_total", labels.clone(), &self.hits);
        registry.register_stat(
            "polymem_plan_cache_misses_total",
            labels.clone(),
            &self.misses,
        );
        registry.register_stat(
            "polymem_plan_cache_evictions_total",
            labels.clone(),
            &self.evictions,
        );
        let hist = registry.histogram("polymem_region_run_length", labels, Self::RUN_LENGTH_BOUNDS);
        // Plans compiled before attachment are already resident; record
        // them so the histogram reflects the cache, not just future
        // compiles.
        for slot in self.map.values() {
            observe_run_lengths(&hist, &slot.plan);
        }
        self.run_hist = Some(hist);
    }
}

impl Clone for RegionPlanCache {
    fn clone(&self) -> Self {
        // Counters copy by value: the clone starts with the same counts but
        // its own atomics (a registry watching the original keeps watching
        // only the original).
        Self {
            period: self.period,
            capacity: self.capacity,
            map: self.map.clone(),
            tick: AtomicU64::new(self.tick.load(Ordering::Relaxed)),
            hits: StatCounter::from_value(self.hits.get()),
            misses: StatCounter::from_value(self.misses.get()),
            evictions: StatCounter::from_value(self.evictions.get()),
            bytes: AtomicU64::new(self.bytes.load(Ordering::Relaxed)),
            // Histogram handles are registry-owned; the clone re-attaches
            // if it wants its own recording (same policy as PolyMem).
            run_hist: None,
        }
    }
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
    use crate::scheme::AccessScheme;

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
            PlanCache::new(p * q, (rows / p) * (cols / q)),
        )
    }

    #[test]
    fn block_plan_matches_interpreted_addressing() {
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::ReO, 2, 4, 16, 16);
        let depth = (16 / 2) * (16 / 4);
        let r = Region::new("b", 2, 4, RegionShape::Block { rows: 4, cols: 8 });
        let plan =
            RegionPlan::compile(&r, AccessScheme::ReO, &agu, &maf, &afn, &mut cache).unwrap();
        assert_eq!(plan.len(), 32);
        assert_eq!(plan.accesses, 4);
        let base0 = afn.address(2, 4) as isize;
        for (c, (i, j)) in r.coords_iter().unwrap().enumerate() {
            let bank = maf.assign_linear(i, j);
            let addr = afn.address(i, j) as isize;
            assert_eq!(plan.banks[c] as usize, bank);
            assert_eq!(base0 + plan.deltas[c], addr);
            assert_eq!(plan.fold[c], bank as isize * depth as isize + addr - base0);
        }
    }

    #[test]
    fn plan_is_invariant_across_residue_class() {
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::ReRo, 2, 4, 64, 64);
        let a = Region::new("a", 3, 8, RegionShape::Row { len: 16 });
        let b = Region::new("b", 3 + 8, 8 + 16, RegionShape::Row { len: 16 });
        let pa = RegionPlan::compile(&a, AccessScheme::ReRo, &agu, &maf, &afn, &mut cache).unwrap();
        let pb = RegionPlan::compile(&b, AccessScheme::ReRo, &agu, &maf, &afn, &mut cache).unwrap();
        assert_eq!(pa.fold, pb.fold);
        assert_eq!(pa.deltas, pb.deltas);
        assert_eq!(pa.afold, pb.afold);
    }

    #[test]
    fn bank_elems_is_a_rectangular_cover() {
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::RoCo, 2, 4, 16, 16);
        let r = Region::new("b", 2, 0, RegionShape::Block { rows: 4, cols: 8 });
        let plan =
            RegionPlan::compile(&r, AccessScheme::RoCo, &agu, &maf, &afn, &mut cache).unwrap();
        let mut all: Vec<u32> = plan.bank_elems.clone();
        all.sort_unstable();
        let want: Vec<u32> = (0..plan.len() as u32).collect();
        assert_eq!(all, want, "every canonical element appears exactly once");
        for b in 0..plan.lanes {
            for &c in &plan.bank_elems[b * plan.accesses..(b + 1) * plan.accesses] {
                assert_eq!(plan.banks[c as usize] as usize, b);
            }
        }
    }

    #[test]
    fn check_bounds_replays_origin() {
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::ReRo, 2, 4, 16, 16);
        let r = Region::new("row", 0, 0, RegionShape::Row { len: 16 });
        let plan =
            RegionPlan::compile(&r, AccessScheme::ReRo, &agu, &maf, &afn, &mut cache).unwrap();
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
        let plan =
            RegionPlan::compile(&r, AccessScheme::ReRo, &agu, &maf, &afn, &mut cache).unwrap();
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
        let (agu, maf, afn, mut acc_cache) = blocks(AccessScheme::ReRo, 2, 4, 32, 32);
        let mut cache = RegionPlanCache::new(8);
        let r = Region::new("r", 0, 0, RegionShape::Row { len: 16 });
        cache
            .get_or_compile(&r, AccessScheme::ReRo, &agu, &maf, &afn, &mut acc_cache)
            .unwrap();
        // Same class: hit.
        let r2 = Region::new("r2", 8, 16, RegionShape::Row { len: 16 });
        cache
            .get_or_compile(&r2, AccessScheme::ReRo, &agu, &maf, &afn, &mut acc_cache)
            .unwrap();
        // Different size: new class.
        let r3 = Region::new("r3", 0, 0, RegionShape::Row { len: 8 });
        cache
            .get_or_compile(&r3, AccessScheme::ReRo, &agu, &maf, &afn, &mut acc_cache)
            .unwrap();
        let s = cache.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.entries, 2);
        assert!(s.bytes > 0);
        assert!(cache.lookup(&r).is_some());
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn failed_compile_not_cached() {
        let (agu, maf, afn, mut acc_cache) = blocks(AccessScheme::ReO, 2, 4, 16, 16);
        let mut cache = RegionPlanCache::new(8);
        // ReO serves rectangles only; a Row region cannot compile.
        let r = Region::new("r", 0, 0, RegionShape::Row { len: 16 });
        assert!(cache
            .get_or_compile(&r, AccessScheme::ReO, &agu, &maf, &afn, &mut acc_cache)
            .is_err());
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.lookup(&r).is_none());
    }

    #[test]
    fn validate_accepts_compiled_plans_and_catches_corruption() {
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::ReRo, 2, 4, 32, 32);
        let depth = (32 / 2) * (32 / 4);
        let r = Region::new("d", 2, 15, RegionShape::SecondaryDiag { len: 16 });
        let plan =
            RegionPlan::compile(&r, AccessScheme::ReRo, &agu, &maf, &afn, &mut cache).unwrap();
        let base = afn.address(r.i, r.j) as isize;
        plan.validate(base, depth).unwrap();

        let mut dup = plan.clone();
        dup.fold[1] = dup.fold[0];
        assert!(dup.validate(base, depth).is_err());

        let mut skew = plan.clone();
        skew.banks[3] = (skew.banks[3] + 1) % skew.lanes as u32;
        assert!(skew.validate(base, depth).is_err());

        let mut bad_afold = plan.clone();
        bad_afold.afold[0] += 1;
        assert!(bad_afold.validate(base, depth).is_err());

        let mut bad_groups = plan.clone();
        bad_groups.bank_elems[1] = bad_groups.bank_elems[0];
        assert!(bad_groups.validate(base, depth).is_err());
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let (agu, maf, afn, mut acc_cache) = blocks(AccessScheme::ReRo, 2, 4, 64, 64);
        let mut cache = RegionPlanCache::with_capacity(8, 2);
        let row = |len: usize| Region::new("r", 0, 0, RegionShape::Row { len });
        cache
            .get_or_compile(
                &row(8),
                AccessScheme::ReRo,
                &agu,
                &maf,
                &afn,
                &mut acc_cache,
            )
            .unwrap();
        cache
            .get_or_compile(
                &row(16),
                AccessScheme::ReRo,
                &agu,
                &maf,
                &afn,
                &mut acc_cache,
            )
            .unwrap();
        // Touch len-8 so len-16 becomes the LRU victim.
        assert!(cache.lookup(&row(8)).is_some());
        cache
            .get_or_compile(
                &row(24),
                AccessScheme::ReRo,
                &agu,
                &maf,
                &afn,
                &mut acc_cache,
            )
            .unwrap();
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.capacity, 2);
        assert_eq!(s.evictions, 1);
        assert!(cache.lookup(&row(8)).is_some(), "recently used plan kept");
        assert!(cache.lookup(&row(16)).is_none(), "LRU plan evicted");
        // Evicted classes recompile transparently.
        cache
            .get_or_compile(
                &row(16),
                AccessScheme::ReRo,
                &agu,
                &maf,
                &afn,
                &mut acc_cache,
            )
            .unwrap();
        assert_eq!(cache.stats().evictions, 2);
        // Bytes accounting survives eviction churn: clear and it zeroes.
        cache.clear();
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn empty_region_compiles_to_empty_plan() {
        let (agu, maf, afn, mut cache) = blocks(AccessScheme::ReO, 2, 4, 16, 16);
        let r = Region::new("e", 3, 3, RegionShape::Block { rows: 0, cols: 4 });
        let plan =
            RegionPlan::compile(&r, AccessScheme::ReO, &agu, &maf, &afn, &mut cache).unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.accesses, 0);
        assert!(plan.motif_runs.is_empty());
        assert!(
            plan.motifs.iter().copied().eq(0..plan.lanes),
            "identity only"
        );
        assert!(plan.store_runs.is_empty());
        assert!(plan.bank_runs.is_empty());
        assert_eq!(plan.bank_run_index, vec![0u32; plan.lanes + 1]);
        // An empty region is in bounds anywhere (no access is issued).
        assert!(plan
            .check_bounds(&Region::new("e", 999, 999, r.shape), 16, 16)
            .is_ok());
    }

    #[test]
    fn strided_chunk_shape_golden() {
        // The vectorization contract: strided runs replay as 4-wide
        // chunks with an unrolled body plus a scalar tail. Changing the
        // width or the decomposition breaks this golden on purpose.
        assert_eq!(STRIDE_CHUNK, 4);
        assert_eq!(chunk_shape(0), (0, 0));
        assert_eq!(chunk_shape(1), (0, 1));
        assert_eq!(chunk_shape(3), (0, 3));
        assert_eq!(chunk_shape(4), (1, 0));
        assert_eq!(chunk_shape(7), (1, 3));
        assert_eq!(chunk_shape(64), (16, 0));
        assert_eq!(chunk_shape(1023), (255, 3));
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
        let mut cache = PlanCache::with_layout(p * q, depth, layout);
        let plan = RegionPlan::compile(region, scheme, &agu, &maf, &afn, &mut cache)?;
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

        // A bank run expanding to the wrong delta.
        let mut bad_bank = plan.clone();
        let wide = bad_bank.bank_runs.iter().position(|r| r.len >= 2).unwrap();
        bad_bank.bank_runs[wide].d_stride += 1;
        assert!(bad_bank.validate(base, depth).is_err());

        // A broken CSR index over the bank runs.
        let mut bad_index = plan.clone();
        bad_index.bank_run_index[1] = bad_index.bank_run_index[plan.lanes];
        assert!(bad_index.validate(base, depth).is_err());
    }
}
