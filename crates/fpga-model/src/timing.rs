//! Clock-frequency (Fmax) estimation — substitutes for Xilinx place & route.
//!
//! The model estimates the critical path in nanoseconds as a sum of
//! structural terms and inverts it:
//!
//! ```text
//! path(cfg) = T_BASE                                  pipeline + BRAM access
//!           + T_LANE   * log2(lanes)                  crossbar mux-tree depth
//!           + T_ROUTE  * bram_utilization             placement spread: more
//!                                                     BRAM -> longer routes
//!           + T_WIRE   * (lanes/8)^3 * (ports - 1)    replicated-crossbar
//!                                                     wiring congestion
//!           + T_SCHEME                                MAF arithmetic depth
//! fmax = 1000 / path
//! ```
//!
//! The five structural constants and four scheme offsets were fitted by
//! random-restart coordinate descent against all 90 cells of the paper's
//! Table IV (constrained to non-negative physical values). Fit quality on
//! Table IV: **mean |rel. error| ≈ 6%, median ≈ 4%** (checked in
//! `calibration`). The worst cells are the paper's own non-monotonic
//! outliers (e.g. 512 KB/16 lanes/2 ports is *slower* than the larger
//! 1024 KB/16/2 in every scheme — run-to-run P&R variance), which a
//! deterministic model cannot and should not chase.
//!
//! An optional deterministic "P&R noise" term reproduces the ±few-percent
//! jitter visible in the paper's table for DSE realism experiments.

use crate::resources;
use polymem::{AccessScheme, PolyMemConfig};

/// Fitted critical-path constants (ns).
pub mod constants {
    /// Base pipeline + BRAM clock-to-out.
    pub const T_BASE: f64 = 3.50;
    /// Per-mux-tree-level delay (multiplied by `log2(lanes)`).
    pub const T_LANE: f64 = 0.25;
    /// Routing penalty at 100% BRAM utilization.
    pub const T_ROUTE: f64 = 7.04;
    /// Replicated-crossbar wiring congestion per extra read port at 8 lanes,
    /// scaling with `(lanes/8)^WIRE_EXPONENT`.
    pub const T_WIRE: f64 = 0.165;
    /// Lane-scaling exponent of the congestion term (the fit lands on a
    /// cubic: area x fanout of the replicated crossbars).
    pub const WIRE_EXPONENT: f64 = 3.0;
    /// Half-width of the optional deterministic P&R jitter (uniform). The
    /// value is calibrated to Table IV's residual spread around the fitted
    /// structural model: RMSE ≈ 0.71 ns on ≈ 8.5 ns paths ⇒ σ ≈ 8.7%,
    /// i.e. a uniform half-width of `0.087 * sqrt(3) ≈ 0.15`.
    pub const NOISE_MAG: f64 = 0.15;
}

/// MAF arithmetic depth offsets (ns), fitted per scheme. `ReO`'s pure
/// modulo-by-power-of-two MAF is the baseline.
pub fn scheme_delay(scheme: AccessScheme) -> f64 {
    match scheme {
        AccessScheme::ReO => 0.0,
        AccessScheme::ReRo => 0.183,
        AccessScheme::ReCo => 0.158,
        AccessScheme::RoCo => -0.009,
        AccessScheme::ReTr => 0.095,
    }
}

/// A parameterized critical-path model. [`CriticalPathModel::DEFAULT`]
/// holds the Table IV fit; sensitivity studies perturb individual fields
/// and re-measure the fit (see `polymem-repro sensitivity`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalPathModel {
    /// Base pipeline + BRAM clock-to-out (ns).
    pub t_base: f64,
    /// Per-mux-tree-level delay (ns per `log2(lanes)`).
    pub t_lane: f64,
    /// Routing penalty at 100% BRAM utilization (ns).
    pub t_route: f64,
    /// Replicated-crossbar congestion per extra port at 8 lanes (ns).
    pub t_wire: f64,
    /// Lane exponent of the congestion term.
    pub wire_exponent: f64,
}

impl CriticalPathModel {
    /// The Table IV fit.
    pub const DEFAULT: CriticalPathModel = CriticalPathModel {
        t_base: constants::T_BASE,
        t_lane: constants::T_LANE,
        t_route: constants::T_ROUTE,
        t_wire: constants::T_WIRE,
        wire_exponent: constants::WIRE_EXPONENT,
    };

    /// Critical path (ns) of `cfg` on `device` under this model. The
    /// routing term scales with the *target device's* BRAM utilization: the
    /// same design spreads over proportionally more of a smaller part.
    pub fn critical_path_ns(&self, cfg: &PolyMemConfig, device: &crate::device::FpgaDevice) -> f64 {
        let est = resources::estimate(cfg);
        let util = est.bram_blocks / device.bram36 as f64;
        let lanes = cfg.lanes() as f64;
        let ports = cfg.read_ports as f64;
        self.t_base
            + self.t_lane * lanes.log2()
            + self.t_route * util
            + self.t_wire * (lanes / 8.0).powf(self.wire_exponent) * (ports - 1.0)
            + scheme_delay(cfg.scheme)
    }

    /// Fmax (MHz) under this model.
    pub fn fmax_mhz(&self, cfg: &PolyMemConfig, device: &crate::device::FpgaDevice) -> f64 {
        1000.0 / self.critical_path_ns(cfg, device)
    }
}

/// Estimated critical path (ns) of `cfg` on `device`, noise-free, under
/// the default (Table IV-fitted) model.
pub fn critical_path_ns_on(cfg: &PolyMemConfig, device: &crate::device::FpgaDevice) -> f64 {
    CriticalPathModel::DEFAULT.critical_path_ns(cfg, device)
}

/// Estimated critical path (ns) on the paper's Vectis device.
pub fn critical_path_ns(cfg: &PolyMemConfig) -> f64 {
    critical_path_ns_on(cfg, &crate::device::FpgaDevice::VIRTEX6_SX475T)
}

/// Noise-free Fmax (MHz) on `device`.
pub fn fmax_mhz_on(cfg: &PolyMemConfig, device: &crate::device::FpgaDevice) -> f64 {
    1000.0 / critical_path_ns_on(cfg, device)
}

/// Noise-free Fmax (MHz) on the Vectis.
pub fn fmax_mhz(cfg: &PolyMemConfig) -> f64 {
    1000.0 / critical_path_ns(cfg)
}

/// Fmax with deterministic pseudo-random P&R jitter (a seeded hash of the
/// configuration), reproducing the kind of non-monotonicity Table IV shows.
pub fn fmax_mhz_noisy(cfg: &PolyMemConfig, seed: u64) -> f64 {
    let h = config_hash(cfg) ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // Map hash to [-1, 1).
    let unit = ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
    fmax_mhz(cfg) * (1.0 + constants::NOISE_MAG * unit)
}

fn config_hash(cfg: &PolyMemConfig) -> u64 {
    // FNV-1a over the distinguishing fields.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    mix(cfg.rows as u64);
    mix(cfg.cols as u64);
    mix(cfg.p as u64);
    mix(cfg.q as u64);
    mix(cfg.read_ports as u64);
    mix(cfg.scheme as u64);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(kb: usize, lanes: usize, ports: usize, scheme: AccessScheme) -> PolyMemConfig {
        let (p, q) = if lanes == 8 { (2, 4) } else { (2, 8) };
        PolyMemConfig::from_capacity(kb * 1024, p, q, scheme, ports).unwrap()
    }

    #[test]
    fn peak_frequency_is_about_202mhz() {
        // Paper: highest frequency 202 MHz for 512 KB, 8-lane, 1-port ReO.
        // The fitted model lands within 10% (the paper's fastest cell sits
        // above the structural trend of its own table).
        let f = fmax_mhz(&cfg(512, 8, 1, AccessScheme::ReO));
        assert!((f - 202.0).abs() / 202.0 < 0.10, "got {f}");
    }

    #[test]
    fn frequency_falls_with_capacity() {
        let mut prev = f64::INFINITY;
        for kb in [512usize, 1024, 2048, 4096] {
            let f = fmax_mhz(&cfg(kb, 8, 1, AccessScheme::ReO));
            assert!(f < prev, "{kb} KB: {f} !< {prev}");
            prev = f;
        }
    }

    #[test]
    fn frequency_falls_with_ports() {
        let mut prev = f64::INFINITY;
        for ports in 1..=4usize {
            let f = fmax_mhz(&cfg(512, 8, ports, AccessScheme::ReRo));
            assert!(f < prev);
            prev = f;
        }
    }

    #[test]
    fn frequency_falls_with_lanes() {
        let f8 = fmax_mhz(&cfg(512, 8, 1, AccessScheme::ReO));
        let f16 = fmax_mhz(&cfg(512, 16, 1, AccessScheme::ReO));
        assert!(f16 < f8);
    }

    #[test]
    fn minimum_feasible_frequency_near_paper_floor() {
        // Paper: minimum clock frequency is 77 MHz (1024 KB, 16 L... worst cells).
        let mut min = f64::INFINITY;
        for kb in [512usize, 1024, 2048, 4096] {
            for lanes in [8usize, 16] {
                for ports in 1..=4 {
                    for scheme in AccessScheme::ALL {
                        let c = cfg(kb, lanes, ports, scheme);
                        if crate::resources::estimate(&c)
                            .feasible(&crate::device::FpgaDevice::VIRTEX6_SX475T)
                        {
                            min = min.min(fmax_mhz(&c));
                        }
                    }
                }
            }
        }
        assert!(min > 65.0 && min < 100.0, "floor {min}");
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let c = cfg(512, 8, 1, AccessScheme::ReO);
        let a = fmax_mhz_noisy(&c, 1);
        let b = fmax_mhz_noisy(&c, 1);
        assert_eq!(a, b);
        let clean = fmax_mhz(&c);
        assert!((a - clean).abs() / clean <= constants::NOISE_MAG + 1e-12);
        // Different seeds perturb differently (overwhelmingly likely).
        assert_ne!(fmax_mhz_noisy(&c, 1), fmax_mhz_noisy(&c, 2));
    }

    #[test]
    fn stream_anchor_2048kb_single_port_roco() {
        // Paper §V: STREAM synthesized at 120 MHz, "just 2 MHz lower than the
        // maximum clock frequency for a 2048 KB configuration with a single
        // read port" (= 122 MHz, RoCo). Model should land nearby.
        let f = fmax_mhz(&cfg(2048, 8, 1, AccessScheme::RoCo));
        assert!((f - 122.0).abs() / 122.0 < 0.10, "got {f}");
    }
}
