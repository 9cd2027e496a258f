//! Bulk operations: whole-region transfers and runtime polymorphism.
//!
//! The paper's polymorphism is per-access (multiview). This module adds the
//! coarser operations an application layer wants on top:
//!
//! * [`PolyMem::read_region`] / [`PolyMem::write_region`] — move an entire
//!   [`Region`] through the minimum sequence of parallel accesses (the
//!   Fig. 2 "R0 takes several accesses" decomposition);
//! * [`PolyMem::copy_region`] — region-to-region copy through the ports
//!   (the STREAM-Copy inner loop as a library call);
//! * [`PolyMem::convert_scheme`] — re-materialise the memory under another
//!   scheme (the "runtime partial reconfiguration" the paper mentions as a
//!   deployment option: same data, different conflict-free view set).
//!
//! By default every operation replays a compiled [`RegionPlan`]
//! (see [`crate::region_plan`]): one bounds check, one origin address, then
//! the plan's *motif-run table* — each run moves whole groups of `p*q`
//! lanes through one lane pattern at a constant step, and same-class
//! copies are `copy_within` block moves over the storage intervals. No
//! per-access plan lookups, no coordinate reordering, no allocation beyond
//! the caller's output buffer (copies between distinct plans stage through
//! one scratch vector). The per-access path survives behind
//! [`PolyMem::set_region_planning`] as the differential-testing oracle and
//! the tracing path.

use crate::banks::BankArray;
use crate::config::PolyMemConfig;
use crate::error::{PolyMemError, Result};
use crate::mem::PolyMem;
use crate::plan::{PlanKey, PlanTarget};
use crate::region::{Region, RegionShape};
use crate::region_plan::{replay_copy, RegionPlan};
use crate::scheme::ParallelAccess;
use crate::tracing::SpanId;
use crate::AccessScheme;

impl<T: Copy + Default> PolyMem<T> {
    /// The planned path of a region read (`port` is `Some`) or write
    /// (`None`): look the plan of `region` up (compiling it on a miss),
    /// check the concrete origin, run `replay` on it at the origin's base
    /// address inside a `region-replay` span, and count the traffic.
    fn replay_region(
        &mut self,
        region: &Region,
        port: Option<usize>,
        replay: impl FnOnce(&RegionPlan, &mut BankArray<T>, isize),
    ) -> Result<()> {
        let Self {
            config,
            agu,
            maf,
            afn,
            banks,
            plans,
            stats,
            tlm,
            trc,
            ..
        } = self;
        // A hit takes one probe; only a miss goes through the compile path.
        let target = PlanTarget::Region(region);
        let (plan, compiled) = match plans.get(&PlanKey::of(target, config.lanes())) {
            Some(plan) => (plan, false),
            None => plans.get_or_compile(target, agu, maf, afn)?,
        };
        if let Some(tr) = trc.as_ref() {
            tr.lookup(compiled);
        }
        plan.check_bounds(region, config.rows, config.cols)?;
        let base = afn.address(region.i, region.j) as isize;
        let span = trc
            .as_ref()
            .map(|tr| tr.writer.begin(tr.replay, SpanId::NONE));
        replay(plan, banks, base);
        if let (Some(tr), Some(s)) = (trc.as_ref(), span) {
            tr.writer.end(tr.replay, s);
        }
        let (ops, elems) = match port {
            Some(_) => (&mut stats.reads, &mut stats.elements_read),
            None => (&mut stats.writes, &mut stats.elements_written),
        };
        *ops += plan.accesses as u64;
        *elems += plan.len() as u64;
        if let Some(t) = tlm.as_ref() {
            match port {
                Some(port) => t.region_read(port, plan.accesses, plan.len()),
                None => t.region_write(plan.accesses, plan.len()),
            }
            let (c, s) = plan.byte_split::<T>();
            t.region_bytes(c, s);
        }
        Ok(())
    }

    /// Read a whole region through parallel accesses, in the region's
    /// canonical element order, into `out` (which must hold exactly
    /// [`Region::len`] elements). The region must tile the access geometry
    /// (use the `scheduler` crate for ragged covers).
    pub fn read_region_into(&mut self, port: usize, region: &Region, out: &mut [T]) -> Result<()> {
        if port >= self.config.read_ports {
            return Err(PolyMemError::InvalidPort {
                port,
                ports: self.config.read_ports,
            });
        }
        if out.len() != region.len() {
            return Err(PolyMemError::WrongLaneCount {
                got: out.len(),
                expected: region.len(),
            });
        }
        if self.use_region_plan() {
            let gather = |plan: &RegionPlan, banks: &mut BankArray<T>, base| {
                plan.gather_into(banks.flat(), base, out)
            };
            return self.replay_region(region, Some(port), gather);
        }
        // Per-access oracle path: one parallel read per access, lanes
        // splayed to canonical positions through the closed-form index.
        let cfg = *self.config();
        let accesses = region.plan_accesses(cfg.p, cfg.q)?;
        let order = region_order_indices(region, &accesses, cfg.p, cfg.q);
        let lanes = cfg.lanes();
        let mut buf = vec![T::default(); lanes];
        for (a, access) in accesses.iter().enumerate() {
            self.read_into(port, *access, &mut buf)?;
            for (k, &v) in buf.iter().enumerate() {
                out[order[a * lanes + k]] = v;
            }
        }
        Ok(())
    }

    /// Allocating convenience wrapper around [`Self::read_region_into`].
    pub fn read_region(&mut self, port: usize, region: &Region) -> Result<Vec<T>> {
        let mut out = vec![T::default(); region.len()];
        self.read_region_into(port, region, &mut out)?;
        Ok(out)
    }

    /// Write a whole region (values in the region's canonical order).
    pub fn write_region(&mut self, region: &Region, values: &[T]) -> Result<()> {
        if values.len() != region.len() {
            return Err(PolyMemError::WrongLaneCount {
                got: values.len(),
                expected: region.len(),
            });
        }
        if self.use_region_plan() {
            let scatter = |plan: &RegionPlan, banks: &mut BankArray<T>, base| {
                plan.scatter_from(banks.flat_mut(), base, values)
            };
            return self.replay_region(region, None, scatter);
        }
        let cfg = *self.config();
        let accesses = region.plan_accesses(cfg.p, cfg.q)?;
        // Map canonical region order -> per-access lane order.
        let order = region_order_indices(region, &accesses, cfg.p, cfg.q);
        let lanes = cfg.lanes();
        let mut buf = vec![T::default(); lanes];
        for (a, access) in accesses.iter().enumerate() {
            for (k, slot) in buf.iter_mut().enumerate() {
                *slot = values[order[a * lanes + k]];
            }
            self.write(*access, &buf)?;
        }
        Ok(())
    }

    /// Copy `src` to `dst` through the ports (the STREAM-Copy inner loop as
    /// a library call). Regions must decompose into the same number of
    /// accesses; lane `k` of source access `t` lands in lane `k` of
    /// destination access `t`, so overlapping regions behave exactly like
    /// the explicit per-access loop.
    ///
    /// The planned path replays through `region_plan::replay_copy`,
    /// which picks the cheapest replay that preserves those semantics:
    /// `copy_within` block moves for disjoint same-residue-class copies, a
    /// canonical gather+scatter for other disjoint same-shape copies, and
    /// the exact access-interleaved loop for overlapping or cross-shape
    /// ones.
    pub fn copy_region(&mut self, port: usize, src: &Region, dst: &Region) -> Result<()> {
        if port >= self.config.read_ports {
            return Err(PolyMemError::InvalidPort {
                port,
                ports: self.config.read_ports,
            });
        }
        if self.use_region_plan() {
            let Self {
                config,
                agu,
                maf,
                afn,
                banks,
                plans,
                stats,
                tlm,
                trc,
                ..
            } = self;
            let [(sp, s_compiled), (dp, d_compiled)] =
                plans.get_or_compile_pair([src, dst], agu, maf, afn)?;
            if let Some(tr) = trc.as_ref() {
                tr.lookup(s_compiled);
                tr.lookup(d_compiled);
            }
            if sp.accesses != dp.accesses {
                return Err(copy_shape_mismatch(src, sp.accesses, dst, dp.accesses));
            }
            sp.check_bounds(src, config.rows, config.cols)?;
            dp.check_bounds(dst, config.rows, config.cols)?;
            let span = trc
                .as_ref()
                .map(|tr| tr.writer.begin(tr.copy_replay, SpanId::NONE));
            let (coalesced, strided) =
                replay_copy(banks.flat_mut(), afn, (src, sp), (dst, dp), &mut Vec::new());
            if let (Some(tr), Some(s)) = (trc.as_ref(), span) {
                tr.writer.end(tr.copy_replay, s);
            }
            stats.reads += sp.accesses as u64;
            stats.writes += dp.accesses as u64;
            stats.elements_read += sp.len() as u64;
            stats.elements_written += dp.len() as u64;
            if let Some(t) = tlm.as_ref() {
                t.region_read(port, sp.accesses, sp.len());
                t.region_write(dp.accesses, dp.len());
                t.region_bytes(coalesced, strided);
            }
            return Ok(());
        }
        let cfg = *self.config();
        let src_acc = src.plan_accesses(cfg.p, cfg.q)?;
        let dst_acc = dst.plan_accesses(cfg.p, cfg.q)?;
        if src_acc.len() != dst_acc.len() {
            return Err(copy_shape_mismatch(src, src_acc.len(), dst, dst_acc.len()));
        }
        let mut buf = vec![T::default(); cfg.lanes()];
        for (s, d) in src_acc.iter().zip(&dst_acc) {
            self.read_into(port, *s, &mut buf)?;
            self.write(*d, &buf)?;
        }
        Ok(())
    }

    /// Rebuild this memory under a different scheme, preserving every
    /// element. This models the paper's "runtime partial reconfiguration":
    /// the logical content is unchanged, the conflict-free pattern set
    /// switches to the new scheme's.
    ///
    /// With region planning on, the whole logical space is treated as one
    /// `rows x cols` Block region on each side: both memories compile one
    /// region plan (cached for repeat conversions on the source side) and
    /// the transfer is a single fused gather/scatter loop. The fallback
    /// walks aligned `p x q` rectangle tiles, which every scheme serves
    /// conflict-free (Table I; RoCo needs alignment, which tile origins
    /// satisfy by construction).
    pub fn convert_scheme(&mut self, scheme: AccessScheme) -> Result<PolyMem<T>> {
        let mut cfg: PolyMemConfig = *self.config();
        cfg.scheme = scheme;
        cfg.validate()?;
        let mut out = PolyMem::new(cfg)?;
        let (p, q) = (cfg.p, cfg.q);
        if self.use_region_plan() {
            let whole = Region::new(
                "__convert",
                0,
                0,
                RegionShape::Block {
                    rows: cfg.rows,
                    cols: cfg.cols,
                },
            );
            let target = PlanTarget::Region(&whole);
            let mut buf = vec![T::default(); whole.len()];
            let accesses = self.with_plan(target, |sp, banks| {
                sp.gather_into(banks.flat(), 0, &mut buf);
                sp.accesses as u64
            })?;
            out.with_plan(target, |dp, banks| {
                dp.scatter_from(banks.flat_mut(), 0, &buf)
            })?;
            let len = buf.len() as u64;
            self.stats.reads += accesses;
            self.stats.elements_read += len;
            out.stats.writes += accesses;
            out.stats.elements_written += len;
            return Ok(out);
        }
        let mut buf = vec![T::default(); cfg.lanes()];
        for ti in (0..cfg.rows).step_by(p) {
            for tj in (0..cfg.cols).step_by(q) {
                let tile = ParallelAccess::rect(ti, tj);
                self.read_into(0, tile, &mut buf)?;
                out.write(tile, &buf)?;
            }
        }
        Ok(out)
    }
}

/// The error both façades return when `copy_region`'s regions decompose
/// into different access counts.
pub(crate) fn copy_shape_mismatch(src: &Region, n: usize, dst: &Region, m: usize) -> PolyMemError {
    PolyMemError::InvalidGeometry {
        reason: format!(
            "copy_region: {} decomposes into {n} accesses but {} into {m}",
            src.name, dst.name
        ),
    }
}

/// For each access (in order) and lane, the index into the region's
/// canonical element order. Uses the closed-form
/// [`Region::canonical_index`] — no coordinate `HashMap`.
fn region_order_indices(
    region: &Region,
    accesses: &[ParallelAccess],
    p: usize,
    q: usize,
) -> Vec<usize> {
    let agu = crate::agu::Agu::new(p, q, usize::MAX, usize::MAX);
    let mut out = Vec::with_capacity(accesses.len() * p * q);
    for access in accesses {
        for (i, j) in agu.expand(*access).expect("planned access expands") {
            out.push(
                region
                    .canonical_index(i, j)
                    .expect("planned access stays in region"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionShape;
    use crate::scheme::ParallelAccess;

    fn mem(scheme: AccessScheme) -> PolyMem<u64> {
        let cfg = PolyMemConfig::new(16, 16, 2, 4, scheme, 1).unwrap();
        let mut m = PolyMem::new(cfg).unwrap();
        let data: Vec<u64> = (0..256).collect();
        m.load_row_major(&data).unwrap();
        m
    }

    #[test]
    fn read_region_block_canonical_order() {
        let mut m = mem(AccessScheme::ReO);
        let r = Region::new("b", 2, 4, RegionShape::Block { rows: 4, cols: 8 });
        let vals = m.read_region(0, &r).unwrap();
        let want: Vec<u64> = r
            .coords()
            .unwrap()
            .iter()
            .map(|&(i, j)| (i * 16 + j) as u64)
            .collect();
        assert_eq!(vals, want);
    }

    #[test]
    fn read_region_row_strip() {
        let mut m = mem(AccessScheme::ReRo);
        let r = Region::new("row", 5, 0, RegionShape::Row { len: 16 });
        let vals = m.read_region(0, &r).unwrap();
        let want: Vec<u64> = (0..16).map(|j| (5 * 16 + j) as u64).collect();
        assert_eq!(vals, want);
    }

    #[test]
    fn planned_and_per_access_paths_agree() {
        for scheme in [AccessScheme::ReRo, AccessScheme::RoCo, AccessScheme::ReO] {
            let mut m = mem(scheme);
            let regions = [
                Region::new("b", 2, 4, RegionShape::Block { rows: 4, cols: 8 }),
                Region::new("b2", 0, 0, RegionShape::Block { rows: 2, cols: 4 }),
            ];
            for r in &regions {
                let planned = m.read_region(0, r).unwrap();
                m.set_region_planning(false);
                let naive = m.read_region(0, r).unwrap();
                m.set_region_planning(true);
                assert_eq!(planned, naive, "{scheme} {}", r.name);
            }
        }
    }

    #[test]
    fn region_plan_compiles_once_per_class() {
        let mut m = mem(AccessScheme::ReRo);
        let r = Region::new("row", 5, 0, RegionShape::Row { len: 16 });
        for _ in 0..4 {
            m.read_region(0, &r).unwrap();
        }
        // Same class, shifted by the period (8): still one plan.
        let shifted = Region::new("row2", 13, 0, RegionShape::Row { len: 16 });
        m.read_region(0, &shifted).unwrap();
        let s = m.region_plan_stats();
        // Two compiles: the whole-space plan `load_row_major` builds in
        // `mem()`, plus one for the row's residue class.
        assert_eq!(s.misses, 2, "whole-space + one row class: {s:?}");
        assert_eq!(s.hits, 4);
        assert_eq!(s.entries, 2);
        assert!(s.bytes > 0);
        m.clear_region_plans();
        assert_eq!(m.region_plan_stats().entries, 0);
    }

    #[test]
    fn region_ops_emit_balanced_spans_and_cache_instants() {
        use crate::tracing::{TraceEventKind, TraceJournal};
        let journal = TraceJournal::new(256);
        let mut m = mem(AccessScheme::ReRo);
        m.attach_tracing(&journal, "pm");
        let r = Region::new("row", 5, 0, RegionShape::Row { len: 16 });
        m.read_region(0, &r).unwrap();
        m.read_region(0, &r).unwrap();
        let dst = Region::new("row2", 13, 0, RegionShape::Row { len: 16 });
        m.copy_region(0, &r, &dst).unwrap();
        let s = journal.snapshot();
        assert!(s.validate_spans().is_empty(), "{:?}", s.validate_spans());
        let by_name = |name: &str, kind: TraceEventKind| {
            s.events
                .iter()
                .filter(|e| e.name == name && e.kind == kind)
                .count()
        };
        // First read misses (one compile span), the rest hit the cache.
        assert_eq!(by_name("region-plan-miss", TraceEventKind::Instant), 1);
        assert_eq!(by_name("region-plan-hit", TraceEventKind::Instant), 3);
        assert_eq!(by_name("region-plan-compile", TraceEventKind::Begin), 1);
        assert_eq!(by_name("region-replay", TraceEventKind::Begin), 2);
        assert_eq!(by_name("copy-replay", TraceEventKind::Begin), 1);
        // Detach stops recording.
        m.detach_tracing();
        m.read_region(0, &r).unwrap();
        assert_eq!(journal.snapshot().events.len(), s.events.len());
    }

    #[test]
    fn read_region_into_checks_output_length() {
        let mut m = mem(AccessScheme::ReO);
        let r = Region::new("b", 0, 0, RegionShape::Block { rows: 2, cols: 4 });
        let mut small = vec![0u64; 4];
        assert!(matches!(
            m.read_region_into(0, &r, &mut small),
            Err(PolyMemError::WrongLaneCount {
                got: 4,
                expected: 8
            })
        ));
    }

    #[test]
    fn region_port_checked_up_front() {
        let mut m = mem(AccessScheme::ReO);
        let r = Region::new("b", 0, 0, RegionShape::Block { rows: 2, cols: 4 });
        assert!(matches!(
            m.read_region(1, &r),
            Err(PolyMemError::InvalidPort { port: 1, ports: 1 })
        ));
        assert!(matches!(
            m.copy_region(1, &r, &r),
            Err(PolyMemError::InvalidPort { .. })
        ));
    }

    #[test]
    fn write_region_roundtrip() {
        let mut m = mem(AccessScheme::RoCo);
        let r = Region::new("col", 0, 7, RegionShape::Col { len: 16 });
        let vals: Vec<u64> = (0..16).map(|k| 9000 + k).collect();
        m.write_region(&r, &vals).unwrap();
        assert_eq!(m.read_region(0, &r).unwrap(), vals);
        // Neighbours untouched.
        assert_eq!(m.get(0, 6).unwrap(), 6);
    }

    #[test]
    fn write_region_length_checked() {
        let mut m = mem(AccessScheme::ReO);
        let r = Region::new("b", 0, 0, RegionShape::Block { rows: 2, cols: 4 });
        assert!(m.write_region(&r, &[1, 2, 3]).is_err());
    }

    #[test]
    fn copy_region_matches_manual() {
        let mut m = mem(AccessScheme::RoCo);
        let src = Region::new("src", 0, 0, RegionShape::Row { len: 16 });
        let dst = Region::new("dst", 9, 0, RegionShape::Row { len: 16 });
        m.copy_region(0, &src, &dst).unwrap();
        for j in 0..16 {
            assert_eq!(m.get(9, j).unwrap(), j as u64);
        }
    }

    #[test]
    fn copy_region_overlap_matches_per_access_path() {
        // Overlapping src/dst exercise the read-chunk-then-write-chunk
        // interleaving; planned and per-access paths must agree exactly.
        let src = Region::new("s", 2, 0, RegionShape::Block { rows: 4, cols: 8 });
        let dst = Region::new("d", 4, 0, RegionShape::Block { rows: 4, cols: 8 });
        let mut planned = mem(AccessScheme::ReO);
        planned.copy_region(0, &src, &dst).unwrap();
        let mut naive = mem(AccessScheme::ReO);
        naive.set_region_planning(false);
        naive.copy_region(0, &src, &dst).unwrap();
        assert_eq!(planned.dump_row_major(), naive.dump_row_major());
    }

    #[test]
    fn copy_region_cross_shape_matches_per_access_path() {
        // Row strip into column strip: same access count, different lane
        // geometry — pairing is positional, like the explicit loop.
        let src = Region::new("s", 1, 0, RegionShape::Row { len: 8 });
        let dst = Region::new("d", 0, 11, RegionShape::Col { len: 8 });
        let mut planned = mem(AccessScheme::RoCo);
        planned.copy_region(0, &src, &dst).unwrap();
        let mut naive = mem(AccessScheme::RoCo);
        naive.set_region_planning(false);
        naive.copy_region(0, &src, &dst).unwrap();
        assert_eq!(planned.dump_row_major(), naive.dump_row_major());
    }

    #[test]
    fn copy_region_shape_mismatch_rejected() {
        let mut m = mem(AccessScheme::RoCo);
        let src = Region::new("src", 0, 0, RegionShape::Row { len: 16 });
        let dst = Region::new("dst", 0, 0, RegionShape::Col { len: 8 });
        assert!(m.copy_region(0, &src, &dst).is_err());
    }

    #[test]
    fn region_stats_match_per_access_path() {
        let r = Region::new("b", 2, 4, RegionShape::Block { rows: 4, cols: 8 });
        let mut a = mem(AccessScheme::ReO);
        a.reset_stats();
        let _ = a.read_region(0, &r).unwrap();
        let mut b = mem(AccessScheme::ReO);
        b.set_region_planning(false);
        b.reset_stats();
        let _ = b.read_region(0, &r).unwrap();
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn convert_scheme_preserves_data_and_switches_views() {
        let mut rero = mem(AccessScheme::ReRo);
        // ReRo cannot serve columns...
        assert!(rero.read(0, ParallelAccess::col(0, 3)).is_err());
        // ...convert to ReCo: same data, columns now conflict-free.
        let mut reco = rero.convert_scheme(AccessScheme::ReCo).unwrap();
        assert_eq!(reco.dump_row_major(), rero.dump_row_major());
        let col = reco.read(0, ParallelAccess::col(0, 3)).unwrap();
        let want: Vec<u64> = (0..8).map(|i| (i * 16 + 3) as u64).collect();
        assert_eq!(col, want);
        // ...and rows are gone.
        assert!(reco.read(0, ParallelAccess::row(0, 0)).is_err());
    }

    #[test]
    fn coalesced_replay_matches_oracle_under_both_layouts() {
        use crate::banks::BankLayout;
        for (grid, scheme, mut regions) in crate::region_plan::replay_matrix() {
            let (p, q) = grid;
            let n = 4 * p * q;
            // A ragged strip (error parity) and the whole space.
            regions.push(Region::new("one", 3, 3, RegionShape::Row { len: 1 }));
            regions.push(Region::new(
                "whole",
                0,
                0,
                RegionShape::Block { rows: n, cols: n },
            ));
            for layout in [BankLayout::BankMajor, BankLayout::AddrInterleaved] {
                let ctx = format!("{grid:?} {scheme} {layout:?}");
                let cfg = PolyMemConfig::new(n, n, p, q, scheme, 1)
                    .unwrap()
                    .with_layout(layout);
                let mut m = PolyMem::<u64>::new(cfg).unwrap();
                let data: Vec<u64> = (0..(n * n) as u64).map(|k| k * 31 + 7).collect();
                m.load_row_major(&data).unwrap();
                assert_eq!(m.dump_row_major(), data, "{ctx} roundtrip");
                let mut served = 0usize;
                for r in &regions {
                    let planned = m.read_region(0, r);
                    m.set_region_planning(false);
                    let oracle = m.read_region(0, r);
                    m.set_region_planning(true);
                    match (&planned, &oracle) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a, b, "{ctx} {}", r.name)
                        }
                        (Err(_), Err(_)) => {}
                        _ => panic!("{ctx} {}: {planned:?} vs {oracle:?}", r.name),
                    }
                    // Write parity too: scatter the reversed values through
                    // both paths and compare full dumps.
                    if let Ok(vals) = &planned {
                        served += 1;
                        let rev: Vec<u64> = vals.iter().rev().copied().collect();
                        m.write_region(r, &rev).unwrap();
                        let planned_dump = m.dump_row_major();
                        m.load_row_major(&data).unwrap();
                        m.set_region_planning(false);
                        m.write_region(r, &rev).unwrap();
                        let oracle_dump = m.dump_row_major();
                        m.set_region_planning(true);
                        assert_eq!(planned_dump, oracle_dump, "{ctx} {} write", r.name);
                        m.load_row_major(&data).unwrap();
                    }
                }
                // Every scheme serves at least the blocks and the whole space.
                assert!(served >= 3, "{ctx}: only {served} regions served");
            }
        }
    }

    #[test]
    fn copy_region_same_class_fast_path_matches_oracle() {
        // src and dst share a residue class (origins 8 rows apart, period
        // 8) => the same Arc'd plan => the store-run copy_within path.
        let src = Region::new("s", 0, 0, RegionShape::Block { rows: 2, cols: 8 });
        let dst = Region::new("d", 8, 0, RegionShape::Block { rows: 2, cols: 8 });
        let mut planned = mem(AccessScheme::ReRo);
        planned.copy_region(0, &src, &dst).unwrap();
        let mut naive = mem(AccessScheme::ReRo);
        naive.set_region_planning(false);
        naive.copy_region(0, &src, &dst).unwrap();
        assert_eq!(planned.dump_row_major(), naive.dump_row_major());
    }

    #[test]
    fn copy_region_same_shape_cross_class_matches_oracle() {
        // Same shape, different residue class, disjoint: the canonical
        // gather/scatter path must equal the positional per-access oracle.
        let src = Region::new("s", 0, 0, RegionShape::Block { rows: 2, cols: 8 });
        let dst = Region::new("d", 3, 5, RegionShape::Block { rows: 2, cols: 8 });
        for scheme in AccessScheme::ALL {
            let mut planned = mem(scheme);
            let mut naive = mem(scheme);
            naive.set_region_planning(false);
            let a = planned.copy_region(0, &src, &dst);
            let b = naive.copy_region(0, &src, &dst);
            assert_eq!(a.is_ok(), b.is_ok(), "{scheme}");
            assert_eq!(planned.dump_row_major(), naive.dump_row_major(), "{scheme}");
        }
    }

    #[test]
    fn convert_scheme_all_pairs_identity() {
        let mut base = mem(AccessScheme::ReO);
        let snapshot = base.dump_row_major();
        for scheme in AccessScheme::ALL {
            let converted = base.convert_scheme(scheme).unwrap();
            assert_eq!(converted.dump_row_major(), snapshot, "{scheme}");
            // The fused path must also agree with the tile-walk fallback.
            base.set_region_planning(false);
            let tiled = base.convert_scheme(scheme).unwrap();
            base.set_region_planning(true);
            assert_eq!(tiled.dump_row_major(), snapshot, "{scheme} tiled");
        }
    }
}
