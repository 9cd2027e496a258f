//! The `p x q` Memory Banks of Fig. 3 (`M0`..`M7` in the paper's example).
//!
//! Each bank is an independently addressable linear store of `bank_depth`
//! elements. In hardware these are BRAM blocks; here they are contiguous
//! slices carved out of one allocation (bank-major layout), which keeps each
//! bank's data cache-local while still modelling per-bank independence.

use crate::error::{PolyMemError, Result};

/// How the flat backing store interleaves banks (Ferry et al.'s
/// burst-friendly layouts, arXiv 2202.05933).
///
/// The choice is invisible at the bank/address interface — `read(bank,
/// addr)` means the same thing under either layout — but it decides which
/// *logical* walks become contiguous bursts in the flat store, and
/// therefore which compiled region plans coalesce into long
/// `copy_from_slice` runs:
///
/// * [`BankLayout::BankMajor`] (the default): bank `b` owns the contiguous slab
///   `data[b*depth .. (b+1)*depth]`. Walks that stay inside one bank
///   (strided intra-bank sweeps) are contiguous.
/// * [`BankLayout::AddrInterleaved`]: address `a` of every bank sits in
///   the contiguous stripe `data[a*banks .. (a+1)*banks]`. Walks that
///   sweep all banks at one address — exactly what a conflict-free
///   full-lane access does — become contiguous, so canonical-order region
///   replays of lane-dense schemes coalesce into maximal runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BankLayout {
    /// `flat[bank * depth + addr]` — bank slabs are contiguous.
    #[default]
    BankMajor,
    /// `flat[addr * banks + bank]` — per-address stripes are contiguous.
    AddrInterleaved,
}

impl BankLayout {
    /// Flat index of `(bank, addr)` in a `banks x depth` store.
    #[inline]
    pub fn flatten(self, bank: usize, addr: usize, banks: usize, depth: usize) -> usize {
        match self {
            BankLayout::BankMajor => bank * depth + addr,
            BankLayout::AddrInterleaved => {
                let _ = depth;
                addr * banks + bank
            }
        }
    }

    /// The compiled-plan fold term for `(bank, addr-delta)`: the signed
    /// flat offset a plan stores so replay is `flat[base_flat + fold]`.
    #[inline]
    pub fn fold(self, bank: isize, delta: isize, banks: usize, depth: usize) -> isize {
        match self {
            BankLayout::BankMajor => bank * depth as isize + delta,
            BankLayout::AddrInterleaved => delta * banks as isize + bank,
        }
    }

    /// Flat-index multiplier for a pure intra-bank address term: replays
    /// turn a logical base address into `base * base_scale` before adding
    /// fold offsets.
    #[inline]
    pub fn base_scale(self, banks: usize) -> isize {
        match self {
            BankLayout::BankMajor => 1,
            BankLayout::AddrInterleaved => banks as isize,
        }
    }

    /// Which bank owns flat slot `flat`.
    #[inline]
    pub fn bank_of(self, flat: usize, banks: usize, depth: usize) -> usize {
        match self {
            BankLayout::BankMajor => flat / depth,
            BankLayout::AddrInterleaved => {
                let _ = depth;
                flat % banks
            }
        }
    }

    /// Which intra-bank address flat slot `flat` holds.
    #[inline]
    pub fn addr_of(self, flat: usize, banks: usize, depth: usize) -> usize {
        match self {
            BankLayout::BankMajor => flat % depth,
            BankLayout::AddrInterleaved => {
                let _ = depth;
                flat / banks
            }
        }
    }
}

/// The physical storage: `banks` independent linear memories of `depth`
/// elements each.
#[derive(Debug, Clone)]
pub struct BankArray<T> {
    banks: usize,
    depth: usize,
    layout: BankLayout,
    /// Flat storage; `layout` decides where `(bank, addr)` lands.
    data: Vec<T>,
}

impl<T: Copy + Default> BankArray<T> {
    /// Allocate `banks` banks of `depth` elements, zero/default-initialised,
    /// in the default bank-major layout.
    pub fn new(banks: usize, depth: usize) -> Self {
        Self::with_layout(banks, depth, BankLayout::BankMajor)
    }

    /// Allocate with an explicit backing layout.
    pub fn with_layout(banks: usize, depth: usize, layout: BankLayout) -> Self {
        Self {
            banks,
            depth,
            layout,
            data: vec![T::default(); banks * depth],
        }
    }

    /// Number of banks.
    #[inline]
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Elements per bank.
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total capacity in elements.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// The backing layout this array was allocated with.
    #[inline]
    pub fn layout(&self) -> BankLayout {
        self.layout
    }

    /// Read element `addr` of `bank`.
    #[inline]
    pub fn read(&self, bank: usize, addr: usize) -> T {
        debug_assert!(bank < self.banks && addr < self.depth);
        self.data[self.layout.flatten(bank, addr, self.banks, self.depth)]
    }

    /// Write element `addr` of `bank`.
    #[inline]
    pub fn write(&mut self, bank: usize, addr: usize, value: T) {
        debug_assert!(bank < self.banks && addr < self.depth);
        self.data[self.layout.flatten(bank, addr, self.banks, self.depth)] = value;
    }

    /// Parallel read: for each bank `b`, fetch `addrs[b]` into `out[b]`.
    /// This models one clock edge on all banks' read ports simultaneously.
    #[inline]
    pub fn read_all(&self, addrs: &[usize], out: &mut [T]) {
        debug_assert_eq!(addrs.len(), self.banks);
        debug_assert_eq!(out.len(), self.banks);
        for b in 0..self.banks {
            out[b] = self.data[self.layout.flatten(b, addrs[b], self.banks, self.depth)];
        }
    }

    /// Parallel write: for each bank `b`, store `values[b]` at `addrs[b]`.
    #[inline]
    pub fn write_all(&mut self, addrs: &[usize], values: &[T]) {
        debug_assert_eq!(addrs.len(), self.banks);
        debug_assert_eq!(values.len(), self.banks);
        for b in 0..self.banks {
            self.data[self.layout.flatten(b, addrs[b], self.banks, self.depth)] = values[b];
        }
    }

    /// Checked single-element read, for host-side debug access.
    pub fn try_read(&self, bank: usize, addr: usize) -> Result<T> {
        if bank >= self.banks || addr >= self.depth {
            return Err(PolyMemError::InvalidGeometry {
                reason: format!(
                    "bank access ({bank}, {addr}) outside {} banks x {} depth",
                    self.banks, self.depth
                ),
            });
        }
        Ok(self.data[self.layout.flatten(bank, addr, self.banks, self.depth)])
    }

    /// Fill every location with `value` (test/reset helper).
    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }

    /// Raw view of one bank's storage. Only the bank-major layout keeps a
    /// bank contiguous; under [`BankLayout::AddrInterleaved`] a bank's
    /// elements are strided through the store and no slice view exists.
    pub fn bank_slice(&self, bank: usize) -> &[T] {
        debug_assert_eq!(
            self.layout,
            BankLayout::BankMajor,
            "bank_slice requires the bank-major layout"
        );
        &self.data[bank * self.depth..(bank + 1) * self.depth]
    }

    /// Layout-ordered flat view of the whole storage (slot of `(b, a)` is
    /// `layout().flatten(b, a, banks, depth)`) — the gather surface of
    /// compiled plans.
    #[inline]
    pub(crate) fn flat(&self) -> &[T] {
        &self.data
    }

    /// Mutable layout-ordered flat view — the scatter surface of compiled
    /// plans.
    #[inline]
    pub(crate) fn flat_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let b = BankArray::<u64>::new(8, 16);
        assert_eq!(b.banks(), 8);
        assert_eq!(b.depth(), 16);
        assert_eq!(b.capacity(), 128);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut b = BankArray::<u64>::new(4, 8);
        b.write(2, 5, 42);
        assert_eq!(b.read(2, 5), 42);
        assert_eq!(b.read(2, 4), 0, "neighbours untouched");
        assert_eq!(b.read(1, 5), 0, "other banks untouched");
    }

    #[test]
    fn parallel_read_write() {
        let mut b = BankArray::<u64>::new(4, 8);
        let addrs = [1, 2, 3, 4];
        let vals = [10, 20, 30, 40];
        b.write_all(&addrs, &vals);
        let mut out = [0u64; 4];
        b.read_all(&addrs, &mut out);
        assert_eq!(out, vals);
        // Different addresses in the same banks are independent.
        let mut out2 = [0u64; 4];
        b.read_all(&[0, 0, 0, 0], &mut out2);
        assert_eq!(out2, [0, 0, 0, 0]);
    }

    #[test]
    fn try_read_bounds() {
        let b = BankArray::<u64>::new(4, 8);
        assert!(b.try_read(3, 7).is_ok());
        assert!(b.try_read(4, 0).is_err());
        assert!(b.try_read(0, 8).is_err());
    }

    #[test]
    fn fill_and_slice() {
        let mut b = BankArray::<u32>::new(2, 4);
        b.fill(7);
        assert!(b.bank_slice(0).iter().all(|&x| x == 7));
        assert_eq!(b.bank_slice(1).len(), 4);
    }

    #[test]
    fn bank_major_layout_is_contiguous() {
        let mut b = BankArray::<u64>::new(2, 4);
        for a in 0..4 {
            b.write(1, a, a as u64 + 100);
        }
        assert_eq!(b.bank_slice(1), &[100, 101, 102, 103]);
    }

    #[test]
    fn interleaved_layout_roundtrips_and_stripes() {
        let mut b = BankArray::<u64>::with_layout(4, 8, BankLayout::AddrInterleaved);
        assert_eq!(b.layout(), BankLayout::AddrInterleaved);
        for bank in 0..4 {
            for a in 0..8 {
                b.write(bank, a, (bank * 100 + a) as u64);
            }
        }
        for bank in 0..4 {
            for a in 0..8 {
                assert_eq!(b.read(bank, a), (bank * 100 + a) as u64);
                assert_eq!(b.try_read(bank, a).unwrap(), (bank * 100 + a) as u64);
            }
        }
        // Address stripe a holds all banks' element a contiguously.
        let stripe: Vec<u64> = (0..4).map(|bank| b.read(bank, 3)).collect();
        assert_eq!(stripe, vec![3, 103, 203, 303]);
        assert_eq!(&b.flat()[3 * 4..4 * 4], &stripe[..]);
    }

    #[test]
    fn layout_flatten_decode_agree() {
        for layout in [BankLayout::BankMajor, BankLayout::AddrInterleaved] {
            for bank in 0..4 {
                for addr in 0..8 {
                    let f = layout.flatten(bank, addr, 4, 8);
                    assert_eq!(layout.bank_of(f, 4, 8), bank, "{layout:?}");
                    assert_eq!(layout.addr_of(f, 4, 8), addr, "{layout:?}");
                    let fold = layout.fold(bank as isize, addr as isize, 4, 8);
                    assert_eq!(fold, f as isize, "fold at delta=addr, base=0");
                }
            }
        }
    }
}
