//! PolyMem configuration — the compile-time parameters of the MaxJ design
//! (paper §III-A: capacity, `p x q` lanes, access scheme, read ports).

use crate::banks::BankLayout;
use crate::error::{PolyMemError, Result};
use crate::scheme::AccessScheme;

/// Complete configuration of one PolyMem instance.
///
/// The logical address space is `rows x cols` elements of `element_bytes`
/// each, distributed over a `p x q` bank grid; `read_ports` independent read
/// ports and one write port are available every cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PolyMemConfig {
    /// Logical rows.
    pub rows: usize,
    /// Logical columns.
    pub cols: usize,
    /// Bank-grid rows.
    pub p: usize,
    /// Bank-grid columns.
    pub q: usize,
    /// The PRF access scheme.
    pub scheme: AccessScheme,
    /// Number of independent read ports (>= 1).
    pub read_ports: usize,
    /// Element width in bytes (the paper uses 8 = 64-bit throughout).
    pub element_bytes: usize,
    /// Flat backing layout of the bank array (burst-friendliness knob;
    /// defaults to bank-major, the layout every release before this field
    /// existed used).
    pub layout: BankLayout,
}

impl PolyMemConfig {
    /// The paper's default element width: 64-bit.
    pub const DEFAULT_ELEMENT_BYTES: usize = 8;

    /// Construct and validate a configuration.
    pub fn new(
        rows: usize,
        cols: usize,
        p: usize,
        q: usize,
        scheme: AccessScheme,
        read_ports: usize,
    ) -> Result<Self> {
        let cfg = Self {
            rows,
            cols,
            p,
            q,
            scheme,
            read_ports,
            element_bytes: Self::DEFAULT_ELEMENT_BYTES,
            layout: BankLayout::BankMajor,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// The same configuration with a different flat backing layout.
    pub fn with_layout(mut self, layout: BankLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Build a configuration from a target capacity in bytes (as the paper's
    /// DSE does: 512 KB .. 4096 KB). The logical space is shaped as close to
    /// square as possible while tiling the `p x q` grid.
    pub fn from_capacity(
        capacity_bytes: usize,
        p: usize,
        q: usize,
        scheme: AccessScheme,
        read_ports: usize,
    ) -> Result<Self> {
        if p == 0 || q == 0 {
            return Err(PolyMemError::InvalidGeometry {
                reason: "bank grid must be non-empty".into(),
            });
        }
        let elems = capacity_bytes / Self::DEFAULT_ELEMENT_BYTES;
        if elems == 0 {
            return Err(PolyMemError::InvalidGeometry {
                reason: format!("capacity {capacity_bytes} B holds no 64-bit elements"),
            });
        }
        // Near-square factorisation with rows % p == 0 and cols % q == 0.
        let mut best: Option<(usize, usize)> = None;
        let mut r = (elems as f64).sqrt() as usize;
        // Round rows down to a multiple of p, then grow cols to fit.
        while r >= p {
            let rows = r - (r % p);
            if rows == 0 {
                break;
            }
            if elems.is_multiple_of(rows) {
                let cols = elems / rows;
                if cols.is_multiple_of(q) {
                    best = Some((rows, cols));
                    break;
                }
            }
            r -= 1;
        }
        let (rows, cols) = best.unwrap_or({
            // Fallback: p x (elems / p) shaped strip, truncated to tile.
            let cols = (elems / p) / q * q;
            (p, cols.max(q))
        });
        if rows * cols != elems {
            return Err(PolyMemError::InvalidGeometry {
                reason: format!(
                    "capacity {capacity_bytes} B has no {p}x{q}-tileable factorization                      (closest shape {rows}x{cols} holds {} B)",
                    rows * cols * Self::DEFAULT_ELEMENT_BYTES
                ),
            });
        }
        Self::new(rows, cols, p, q, scheme, read_ports)
    }

    /// Validate all geometry invariants.
    pub fn validate(&self) -> Result<()> {
        let fail = |reason: String| Err(PolyMemError::InvalidGeometry { reason });
        if self.p == 0 || self.q == 0 {
            return fail("bank grid must be non-empty".into());
        }
        if self.rows == 0 || self.cols == 0 {
            return fail("logical space must be non-empty".into());
        }
        if !self.rows.is_multiple_of(self.p) {
            return fail(format!("rows {} not divisible by p {}", self.rows, self.p));
        }
        if !self.cols.is_multiple_of(self.q) {
            return fail(format!("cols {} not divisible by q {}", self.cols, self.q));
        }
        if self.read_ports == 0 {
            return fail("at least one read port is required".into());
        }
        if self.element_bytes == 0 {
            return fail("element width must be positive".into());
        }
        if self.scheme == AccessScheme::ReTr
            && !self.p.is_multiple_of(self.q)
            && !self.q.is_multiple_of(self.p)
        {
            return fail(format!(
                "ReTr requires p | q or q | p, got {} x {}",
                self.p, self.q
            ));
        }
        Ok(())
    }

    /// Number of lanes: elements transferred per port per cycle.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.p * self.q
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.rows * self.cols * self.element_bytes
    }

    /// Total capacity in elements.
    #[inline]
    pub fn capacity_elems(&self) -> usize {
        self.rows * self.cols
    }

    /// Elements stored in each bank.
    #[inline]
    pub fn bank_depth(&self) -> usize {
        (self.rows / self.p) * (self.cols / self.q)
    }

    /// Bytes stored in each bank.
    #[inline]
    pub fn bank_bytes(&self) -> usize {
        self.bank_depth() * self.element_bytes
    }

    /// Peak bandwidth of one port at `freq_mhz`, in MB/s
    /// (`lanes * element_bytes * f`): the paper's Fig. 4 metric.
    pub fn port_bandwidth_mbps(&self, freq_mhz: f64) -> f64 {
        self.lanes() as f64 * self.element_bytes as f64 * freq_mhz
    }

    /// Aggregated read bandwidth over all read ports (Fig. 5 metric).
    pub fn read_bandwidth_mbps(&self, freq_mhz: f64) -> f64 {
        self.port_bandwidth_mbps(freq_mhz) * self.read_ports as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_paper_config() {
        let c = PolyMemConfig::new(256, 256, 2, 4, AccessScheme::ReRo, 1).unwrap();
        assert_eq!(c.lanes(), 8);
        assert_eq!(c.capacity_bytes(), 512 * 1024);
        assert_eq!(c.bank_depth(), 128 * 64);
    }

    #[test]
    fn from_capacity_hits_target_exactly_for_paper_sizes() {
        for kb in [512usize, 1024, 2048, 4096] {
            for &(p, q) in &[(2usize, 4usize), (2, 8)] {
                let c =
                    PolyMemConfig::from_capacity(kb * 1024, p, q, AccessScheme::ReO, 1).unwrap();
                assert_eq!(c.capacity_bytes(), kb * 1024, "{kb}KB {p}x{q}");
                assert_eq!(c.rows % p, 0);
                assert_eq!(c.cols % q, 0);
            }
        }
    }

    #[test]
    fn from_capacity_square_ish() {
        let c = PolyMemConfig::from_capacity(512 * 1024, 2, 4, AccessScheme::ReO, 1).unwrap();
        // 65536 elements -> 256 x 256.
        assert_eq!((c.rows, c.cols), (256, 256));
    }

    #[test]
    fn rejects_untileable() {
        assert!(PolyMemConfig::new(255, 256, 2, 4, AccessScheme::ReO, 1).is_err());
        assert!(PolyMemConfig::new(256, 255, 2, 4, AccessScheme::ReO, 1).is_err());
    }

    #[test]
    fn rejects_zero_ports_and_empty_grid() {
        assert!(PolyMemConfig::new(256, 256, 2, 4, AccessScheme::ReO, 0).is_err());
        assert!(PolyMemConfig::new(256, 256, 0, 4, AccessScheme::ReO, 1).is_err());
    }

    #[test]
    fn rejects_retr_nondivisible() {
        assert!(PolyMemConfig::new(12, 12, 3, 4, AccessScheme::ReTr, 1).is_err());
        assert!(PolyMemConfig::new(12, 12, 3, 4, AccessScheme::ReO, 1).is_ok());
    }

    #[test]
    fn bandwidth_formulas_match_paper_stream_example() {
        // Paper §V: 8 lanes x 8 B x 120 MHz = 7680 MB/s per port;
        // read + write aggregated = 15360 MB/s.
        let c = PolyMemConfig::new(340, 512, 2, 4, AccessScheme::RoCo, 1).unwrap();
        assert!((c.port_bandwidth_mbps(120.0) - 7680.0).abs() < 1e-9);
        assert!((2.0 * c.port_bandwidth_mbps(120.0) - 15360.0).abs() < 1e-9);
    }

    #[test]
    fn read_bandwidth_scales_with_ports() {
        let c = PolyMemConfig::new(256, 256, 2, 4, AccessScheme::ReO, 4).unwrap();
        assert!((c.read_bandwidth_mbps(137.0) - 4.0 * c.port_bandwidth_mbps(137.0)).abs() < 1e-9);
    }
}
