//! Set-covering formulation of schedule search (paper §III-A, ref \[10\]).
//!
//! *"To determine the optimal schedule we formulate the problem as a set
//! covering problem, using ILP for the search itself."* Given an
//! application trace and a PolyMem geometry, the **universe** is the set of
//! trace coordinates and each **candidate** is one conflict-free parallel
//! access (pattern + position) of the chosen scheme; its cover set is the
//! trace elements it touches. A schedule is a family of candidates covering
//! the universe; the optimal schedule is a minimum one.

use crate::bitset::BitSet;
use crate::pattern::AccessTrace;
use polymem::{AccessScheme, Agu, ParallelAccess};

/// One candidate parallel access and the trace elements it covers.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The access (pattern + origin).
    pub access: ParallelAccess,
    /// Universe elements covered.
    pub cover: BitSet,
}

/// A set-covering instance.
#[derive(Debug, Clone)]
pub struct CoverInstance {
    /// The trace being scheduled.
    pub trace: AccessTrace,
    /// Candidate accesses.
    pub candidates: Vec<Candidate>,
    /// Scheme used to generate candidates.
    pub scheme: AccessScheme,
    /// Bank-grid rows.
    pub p: usize,
    /// Bank-grid cols.
    pub q: usize,
}

/// A schedule: the chosen sequence of parallel accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Selected accesses, in selection order.
    pub accesses: Vec<ParallelAccess>,
    /// Whether the schedule covers the whole trace.
    pub complete: bool,
}

impl Schedule {
    /// Number of parallel accesses (cycles) in the schedule.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }
}

impl CoverInstance {
    /// Build an instance: enumerate every in-bounds access of every pattern
    /// the scheme supports (honouring alignment restrictions) over a logical
    /// space of `rows x cols`, keeping candidates that cover at least one
    /// trace element.
    pub fn build(
        trace: AccessTrace,
        scheme: AccessScheme,
        p: usize,
        q: usize,
        rows: usize,
        cols: usize,
    ) -> Self {
        let agu = Agu::new(p, q, rows, cols);
        let n = trace.len();
        let mut candidates = Vec::new();
        let mut coords = Vec::with_capacity(p * q);
        for pattern in scheme.supported_patterns(p, q) {
            let aligned = scheme.requires_alignment(pattern);
            for i in 0..rows {
                for j in 0..cols {
                    if aligned && (i % p != 0 || j % q != 0) {
                        continue;
                    }
                    let access = ParallelAccess::new(i, j, pattern);
                    if agu.expand_into(access, &mut coords).is_err() {
                        continue;
                    }
                    let mut cover = BitSet::new(n);
                    for &(ci, cj) in &coords {
                        if let Some(ix) = trace.index_of((ci, cj)) {
                            cover.insert(ix);
                        }
                    }
                    if !cover.is_empty() {
                        candidates.push(Candidate { access, cover });
                    }
                }
            }
        }
        Self {
            trace,
            candidates,
            scheme,
            p,
            q,
        }
    }

    /// Remove candidates whose cover is a subset of another candidate's
    /// (dominated candidates never help a minimum cover). Returns how many
    /// were removed. Quadratic — intended for exact-solver preprocessing on
    /// small instances.
    pub fn prune_dominated(&mut self) -> usize {
        let n = self.candidates.len();
        let mut keep = vec![true; n];
        for a in 0..n {
            if !keep[a] {
                continue;
            }
            for b in 0..n {
                if a == b || !keep[b] {
                    continue;
                }
                let ca = &self.candidates[a].cover;
                let cb = &self.candidates[b].cover;
                let inter = ca.intersection_count(cb);
                // a subset of b (strictly smaller, or equal with higher index).
                if inter == ca.count() && (ca.count() < cb.count() || a > b) {
                    keep[a] = false;
                    break;
                }
            }
        }
        let mut it = keep.iter();
        self.candidates.retain(|_| *it.next().unwrap());
        n - self.candidates.len()
    }

    /// Verify that `schedule` covers the whole trace.
    pub fn verify(&self, schedule: &Schedule) -> bool {
        let n = self.trace.len();
        let mut covered = BitSet::new(n);
        for access in &schedule.accesses {
            if let Some(c) = self.candidates.iter().find(|c| c.access == *access) {
                covered.union_with(&c.cover);
            } else {
                return false;
            }
        }
        covered.count() == n
    }

    /// The trivial upper bound: one access per trace element is never
    /// needed; `ceil(n / (p*q))` is the dense lower bound.
    pub fn lower_bound(&self) -> usize {
        self.trace.len().div_ceil(self.p * self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_generates_covering_candidates() {
        let trace = AccessTrace::block(0, 0, 4, 8);
        let inst = CoverInstance::build(trace, AccessScheme::ReO, 2, 4, 8, 16);
        assert!(!inst.candidates.is_empty());
        // Every candidate covers at least one element.
        assert!(inst.candidates.iter().all(|c| !c.cover.is_empty()));
        // A perfectly tiled block admits full-cover candidates of 8 elements.
        assert!(inst.candidates.iter().any(|c| c.cover.count() == 8));
    }

    #[test]
    fn lower_bound_is_dense_bound() {
        let trace = AccessTrace::block(0, 0, 4, 8); // 32 elements
        let inst = CoverInstance::build(trace, AccessScheme::ReO, 2, 4, 8, 16);
        assert_eq!(inst.lower_bound(), 4);
    }

    #[test]
    fn alignment_respected_for_roco() {
        let trace = AccessTrace::block(1, 1, 2, 4);
        let inst = CoverInstance::build(trace, AccessScheme::RoCo, 2, 4, 8, 16);
        for c in &inst.candidates {
            if c.access.pattern == polymem::AccessPattern::Rectangle {
                assert_eq!(c.access.i % 2, 0);
                assert_eq!(c.access.j % 4, 0);
            }
        }
    }

    #[test]
    fn prune_dominated_shrinks() {
        let trace = AccessTrace::block(0, 0, 2, 4);
        let mut inst = CoverInstance::build(trace, AccessScheme::ReRo, 2, 4, 8, 16);
        let before = inst.candidates.len();
        let removed = inst.prune_dominated();
        assert!(
            removed > 0,
            "rows fully covering the block dominate partial rects"
        );
        assert_eq!(inst.candidates.len(), before - removed);
        // The full-cover candidate must survive.
        assert!(inst.candidates.iter().any(|c| c.cover.count() == 8));
    }

    #[test]
    fn verify_detects_incomplete() {
        let trace = AccessTrace::block(0, 0, 4, 4);
        let inst = CoverInstance::build(trace, AccessScheme::ReO, 2, 4, 8, 16);
        let partial = Schedule {
            accesses: vec![inst.candidates[0].access],
            complete: true,
        };
        assert!(!inst.verify(&partial));
    }
}
