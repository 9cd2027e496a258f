//! Crossbar shuffles — the `Address Shuffle`, `Write Data Shuffle` and
//! `Read Data Shuffle` blocks of Fig. 3.
//!
//! A *shuffle* is a full `n x n` crossbar steered by a reordering signal: the
//! per-lane bank assignment computed by the MAF. Given lane `k` of a parallel
//! access mapped to bank `b_k`:
//!
//! * the **forward** direction scatters lane-ordered values into bank order
//!   (`out[b_k] = in[k]`) — used for addresses and write data heading *into*
//!   the bank array (the paper implements the write-data path as an *inverse*
//!   shuffle, which is this scatter);
//! * the **inverse** direction gathers bank-ordered values back into lane
//!   order (`out[k] = in[b_k]`) — used for read data leaving the banks.
//!
//! Conflict-freedom makes the reordering signal a *permutation* of the banks
//! touched; [`Crossbar::scatter`] detects violations (two lanes steering to
//! one bank) and reports them instead of silently corrupting data, which the
//! fault-injection tests rely on.

use crate::error::{PolyMemError, Result};

/// A reusable `n`-lane crossbar. Holds scratch state (`claimed`) so repeated
/// shuffles are allocation-free; one `Crossbar` per port in the hot path.
#[derive(Debug, Clone)]
pub struct Crossbar {
    n: usize,
    /// Epoch-stamped claim marks, avoiding an O(n) clear per access:
    /// `claimed[b] == epoch` means bank `b` was already steered to this access.
    claimed: Vec<u64>,
    epoch: u64,
}

impl Crossbar {
    /// Build an `n`-lane crossbar (`n = p*q` in PolyMem; the number of
    /// crossbar ports grows quadratically in hardware, which is what the
    /// FPGA model charges for).
    pub fn new(n: usize) -> Self {
        Self {
            n,
            claimed: vec![0; n],
            epoch: 0,
        }
    }

    /// Number of lanes.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.n
    }

    /// Scatter `values[k]` to `out[route[k]]` (lane order → bank order).
    ///
    /// `out` must have length `n`, or [`PolyMemError::WrongLaneCount`] is
    /// returned and `out` is left untouched; entries for banks not addressed
    /// keep their previous contents (in PolyMem every bank is addressed
    /// exactly once per access, so all entries are overwritten).
    ///
    /// Returns [`PolyMemError::BankConflict`] if two lanes route to the same
    /// bank — the hardware analogue would be a bus fight.
    pub fn scatter<T: Copy>(&mut self, values: &[T], route: &[usize], out: &mut [T]) -> Result<()> {
        debug_assert_eq!(values.len(), route.len());
        if out.len() != self.n {
            return Err(PolyMemError::WrongLaneCount {
                got: out.len(),
                expected: self.n,
            });
        }
        self.epoch += 1;
        for (k, (&v, &b)) in values.iter().zip(route).enumerate() {
            if self.claimed[b] == self.epoch {
                // Find the earlier lane for the diagnostic.
                let lane_a = route[..k].iter().position(|&x| x == b).unwrap_or(0);
                return Err(PolyMemError::BankConflict {
                    bank: b,
                    lane_a,
                    lane_b: k,
                });
            }
            self.claimed[b] = self.epoch;
            out[b] = v;
        }
        Ok(())
    }

    /// Gather `out[k] = values[route[k]]` (bank order → lane order).
    ///
    /// The same `route` used for scattering restores the original lane order,
    /// i.e. `gather ∘ scatter == id` (the paper's regular-vs-inverse shuffle
    /// pairing; property-tested below).
    pub fn gather<T: Copy>(&self, values: &[T], route: &[usize], out: &mut [T]) {
        debug_assert_eq!(values.len(), self.n);
        debug_assert_eq!(route.len(), out.len());
        for (o, &b) in out.iter_mut().zip(route) {
            *o = values[b];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scatter_routes_lane_to_bank() {
        let mut xb = Crossbar::new(4);
        let mut out = [0u64; 4];
        xb.scatter(&[10, 11, 12, 13], &[2, 0, 3, 1], &mut out)
            .unwrap();
        assert_eq!(out, [11, 13, 10, 12]);
    }

    #[test]
    fn gather_inverts_scatter() {
        let mut xb = Crossbar::new(4);
        let route = [2, 0, 3, 1];
        let mut banked = [0u64; 4];
        xb.scatter(&[10, 11, 12, 13], &route, &mut banked).unwrap();
        let mut back = [0u64; 4];
        xb.gather(&banked, &route, &mut back);
        assert_eq!(back, [10, 11, 12, 13]);
    }

    #[test]
    fn conflict_detected() {
        let mut xb = Crossbar::new(4);
        let mut out = [0u64; 4];
        let err = xb
            .scatter(&[1, 2, 3, 4], &[0, 1, 1, 2], &mut out)
            .unwrap_err();
        match err {
            PolyMemError::BankConflict {
                bank,
                lane_a,
                lane_b,
            } => {
                assert_eq!(bank, 1);
                assert_eq!(lane_a, 1);
                assert_eq!(lane_b, 2);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn epoch_reset_between_accesses() {
        let mut xb = Crossbar::new(2);
        let mut out = [0u64; 2];
        // Same banks may be reused across successive accesses.
        xb.scatter(&[1, 2], &[0, 1], &mut out).unwrap();
        xb.scatter(&[3, 4], &[1, 0], &mut out).unwrap();
        assert_eq!(out, [4, 3]);
    }

    #[test]
    fn wrong_output_width_is_an_error() {
        let mut xb = Crossbar::new(4);
        let mut out = [9u64; 3];
        let err = xb
            .scatter(&[1, 2, 3, 4], &[0, 1, 2, 3], &mut out)
            .unwrap_err();
        assert!(
            matches!(
                err,
                PolyMemError::WrongLaneCount {
                    got: 3,
                    expected: 4
                }
            ),
            "{err:?}"
        );
        assert_eq!(out, [9; 3], "out is untouched");
    }

    proptest! {
        #[test]
        fn scatter_gather_roundtrip(route in Just((0..16usize).collect::<Vec<_>>()).prop_shuffle(), vals in prop::collection::vec(any::<u64>(), 16)) {
            let mut xb = Crossbar::new(16);
            let mut banked = vec![0u64; 16];
            xb.scatter(&vals, &route, &mut banked).unwrap();
            let mut back = vec![0u64; 16];
            xb.gather(&banked, &route, &mut back);
            prop_assert_eq!(back, vals);
        }

        #[test]
        fn duplicate_routes_always_rejected(dup in 0..15usize) {
            let mut route: Vec<usize> = (0..16).collect();
            route[dup + 1] = route[dup];
            let vals = vec![0u64; 16];
            let mut out = vec![0u64; 16];
            let mut xb = Crossbar::new(16);
            prop_assert!(xb.scatter(&vals, &route, &mut out).is_err());
        }
    }
}
