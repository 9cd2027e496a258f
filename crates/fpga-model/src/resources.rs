//! Resource estimation for a MAX-PolyMem configuration.
//!
//! Substitutes for Xilinx ISE synthesis (the paper's toolchain). The model
//! is *structural*: each block of the paper's Fig. 3 contributes a term
//! whose form follows its hardware structure —
//!
//! * **Memory banks**: BRAM36 blocks, `ceil(bank_bytes / 4.5 KB)` per bank,
//!   replicated once per read port (the paper: *"increasing the number of
//!   read ports involved duplicating data in BRAMs"*);
//! * **Crossbar shuffles**: slice cost quadratic-ish in the lane count
//!   (`(lanes/8)^1.7` — the paper observes a *supra-linear* increase when
//!   doubling lanes); the design instantiates `2 + 2*ports` crossbars
//!   (address + write-data on the write path, address + read-data per read
//!   port);
//! * **AGU / MAF**: linear in lanes;
//! * **Maxeler infrastructure** (manager, PCIe, stream FIFOs): a fixed base
//!   plus per-lane / per-port terms.
//!
//! The free constants are calibrated against every utilization number the
//! paper quotes in §IV-C; `calibration` re-checks them in tests.

use crate::device::FpgaDevice;
use polymem::{AccessScheme, PolyMemConfig};

/// Per-block resource breakdown (slices).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SliceBreakdown {
    /// Maxeler manager + PCIe + stream infrastructure.
    pub infrastructure: f64,
    /// All crossbar shuffles (address, write-data, per-port read paths).
    pub crossbars: f64,
    /// Per-read-port control (FIFOs, scheduling).
    pub port_control: f64,
    /// BRAM addressing / decoding logic.
    pub bram_glue: f64,
    /// AGU + module assignment function logic.
    pub agu_maf: f64,
}

impl SliceBreakdown {
    /// Total slices.
    pub fn total(&self) -> f64 {
        self.infrastructure + self.crossbars + self.port_control + self.bram_glue + self.agu_maf
    }
}

/// Complete resource estimate for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceEstimate {
    /// BRAM36 blocks required (data + infrastructure).
    pub bram_blocks: f64,
    /// Occupied slices ("logic utilization" numerator, Fig. 6).
    pub slices: f64,
    /// Occupied LUT6s (Fig. 7).
    pub luts: f64,
    /// Occupied flip-flops.
    pub flip_flops: f64,
    /// Per-block slice breakdown.
    pub breakdown: SliceBreakdown,
}

/// Calibrated model constants. All anchors are §IV-C of the paper.
pub mod constants {
    /// Data bytes modelled per BRAM36 (full 36 Kb usable via cascading).
    pub const BRAM_DATA_BYTES: f64 = 4608.0;
    /// Fixed infrastructure BRAMs (Maxeler manager + PCIe FIFOs).
    pub const BRAM_INFRA_BASE: f64 = 15.0;
    /// Infrastructure BRAMs per lane (stream width buffers).
    pub const BRAM_INFRA_PER_LANE: f64 = 2.25;
    /// Infrastructure BRAMs per port (output FIFOs).
    pub const BRAM_INFRA_PER_PORT: f64 = 9.5;
    /// Infrastructure BRAMs per lane*port (port data-path buffers).
    pub const BRAM_INFRA_PER_LANE_PORT: f64 = 1.0625;

    /// Fixed slice cost: manager, PCIe, host interface.
    pub const SLICE_BASE: f64 = 3_247.0;
    /// Slice cost of one 8-lane, 64-bit full crossbar.
    pub const SLICE_XBAR_8: f64 = 1_035.0;
    /// Crossbar growth exponent in lanes (supra-linear, §IV-C).
    pub const XBAR_EXPONENT: f64 = 1.7;
    /// Slices per extra read port (control, FIFOs).
    pub const SLICE_PER_EXTRA_PORT: f64 = 477.0;
    /// Slices of glue logic per BRAM block (addressing, decode).
    pub const SLICE_PER_BRAM: f64 = 2.3;
    /// AGU + MAF slices per lane.
    pub const SLICE_PER_LANE: f64 = 30.0;

    /// LUT packing: LUTs per slice at low congestion...
    pub const LUT_PER_SLICE_BASE: f64 = 2.65;
    /// ...plus this much more per `slices / LUT_PRESSURE_SCALE` of pressure
    /// (packing density drops as the device fills).
    pub const LUT_PRESSURE_COEFF: f64 = 0.45;
    /// Normalisation for the pressure term.
    pub const LUT_PRESSURE_SCALE: f64 = 27_000.0;
    /// Flip-flops per LUT (pipelining ratio; not reported by the paper,
    /// provided for completeness).
    pub const FF_PER_LUT: f64 = 1.1;
}

/// Slight per-scheme area factor: ReO's trivial MAF synthesizes a bit
/// smaller; RoCo's double skew a bit larger on small configs (visible in the
/// paper's 10.58% ReO vs 10.78% ReRo anchor).
pub fn scheme_area_factor(scheme: AccessScheme) -> f64 {
    match scheme {
        AccessScheme::ReO => 0.98,
        AccessScheme::ReRo | AccessScheme::ReCo => 1.0,
        AccessScheme::RoCo => 0.99,
        AccessScheme::ReTr => 1.0,
    }
}

/// Number of full crossbars in the design: address + write-data shuffles on
/// the write path, plus an address and a read-data shuffle per read port.
pub fn crossbar_count(read_ports: usize) -> usize {
    2 + 2 * read_ports
}

/// BRAM36 blocks holding the data of one configuration: per-bank ceiling,
/// replicated per read port.
pub fn data_bram_blocks(cfg: &PolyMemConfig) -> f64 {
    let per_bank = (cfg.bank_bytes() as f64 / constants::BRAM_DATA_BYTES).ceil();
    per_bank * cfg.lanes() as f64 * cfg.read_ports as f64
}

/// Implementation style of the MaxJ design (paper §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignStyle {
    /// Single fused kernel (the paper's final, resource-efficient version).
    Fused,
    /// One kernel per Fig. 3 block, linked by a custom manager. The paper:
    /// *"the modular version consumes twice as many resources, mainly due
    /// to the additional inter-kernel communication infrastructure."*
    Modular,
}

/// Estimate resources for `cfg` built in the given style. `Modular` doubles
/// the logic-side resources (inter-kernel stream infrastructure around every
/// block) and adds per-block stream FIFOs in BRAM; bank data is unaffected.
pub fn estimate_with_style(cfg: &PolyMemConfig, style: DesignStyle) -> ResourceEstimate {
    let base = estimate(cfg);
    match style {
        DesignStyle::Fused => base,
        DesignStyle::Modular => {
            // Seven Fig. 3 blocks become kernels; each inter-kernel edge is a
            // stream with width-matched FIFOs.
            let lanes = cfg.lanes() as f64;
            let extra_bram = 1.5 * lanes * (1.0 + cfg.read_ports as f64);
            let breakdown = SliceBreakdown {
                infrastructure: base.breakdown.infrastructure * 2.2,
                crossbars: base.breakdown.crossbars * 1.6,
                port_control: base.breakdown.port_control * 2.0,
                bram_glue: base.breakdown.bram_glue * 1.6,
                agu_maf: base.breakdown.agu_maf * 2.0,
            };
            let factor = scheme_area_factor(cfg.scheme);
            let slices = breakdown.total() * factor;
            let luts = slices
                * (constants::LUT_PER_SLICE_BASE
                    + constants::LUT_PRESSURE_COEFF * slices / constants::LUT_PRESSURE_SCALE);
            ResourceEstimate {
                bram_blocks: base.bram_blocks + extra_bram,
                slices,
                luts,
                flip_flops: luts * constants::FF_PER_LUT,
                breakdown,
            }
        }
    }
}

/// Estimate all resources for `cfg`. The estimate is deterministic; the
/// paper's run-to-run P&R variance is modelled separately in `timing`.
pub fn estimate(cfg: &PolyMemConfig) -> ResourceEstimate {
    use constants::*;
    let lanes = cfg.lanes() as f64;
    let ports = cfg.read_ports as f64;
    let width_factor = cfg.element_bytes as f64 / 8.0;

    let bram_infra = BRAM_INFRA_BASE
        + BRAM_INFRA_PER_LANE * lanes
        + BRAM_INFRA_PER_PORT * ports
        + BRAM_INFRA_PER_LANE_PORT * lanes * ports;
    // data_bram_blocks already accounts element width via bank_bytes;
    // width_factor applies only to logic that scales with datapath width.
    let bram_blocks = data_bram_blocks(cfg) + bram_infra;

    let xbar_unit = SLICE_XBAR_8 * (lanes / 8.0).powf(XBAR_EXPONENT) * width_factor;
    let factor = scheme_area_factor(cfg.scheme);
    let breakdown = SliceBreakdown {
        infrastructure: SLICE_BASE,
        crossbars: crossbar_count(cfg.read_ports) as f64 * xbar_unit,
        port_control: SLICE_PER_EXTRA_PORT * (ports - 1.0),
        bram_glue: SLICE_PER_BRAM * bram_blocks,
        agu_maf: SLICE_PER_LANE * lanes,
    };
    let slices = breakdown.total() * factor;
    let luts = slices * (LUT_PER_SLICE_BASE + LUT_PRESSURE_COEFF * slices / LUT_PRESSURE_SCALE);
    ResourceEstimate {
        bram_blocks,
        slices,
        luts,
        flip_flops: luts * FF_PER_LUT,
        breakdown,
    }
}

/// Utilization percentages against a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    /// Fig. 6: slice occupancy, percent.
    pub logic_pct: f64,
    /// Fig. 7: LUT occupancy, percent.
    pub lut_pct: f64,
    /// Fig. 8: BRAM occupancy, percent.
    pub bram_pct: f64,
    /// Flip-flop occupancy, percent.
    pub ff_pct: f64,
}

impl ResourceEstimate {
    /// Percent utilization of `device`.
    pub fn utilization(&self, device: &FpgaDevice) -> Utilization {
        Utilization {
            logic_pct: 100.0 * self.slices / device.slices as f64,
            lut_pct: 100.0 * self.luts / device.luts as f64,
            bram_pct: 100.0 * self.bram_blocks / device.bram36 as f64,
            ff_pct: 100.0 * self.flip_flops / device.flip_flops as f64,
        }
    }

    /// Whether this estimate fits (and can be routed on) the device.
    ///
    /// BRAM is a hard capacity limit. The slice bound (40%) is the
    /// calibrated routability cutoff: PolyMem's full crossbars are wiring-
    /// dominated, and configurations past this point failed to synthesize in
    /// the paper's DSE (this cutoff reproduces exactly the 18 feasible
    /// configurations of Table IV).
    pub fn feasible(&self, device: &FpgaDevice) -> bool {
        let u = self.utilization(device);
        u.bram_pct <= 100.0 && u.logic_pct <= 40.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymem::AccessScheme;

    fn cfg(kb: usize, lanes: usize, ports: usize, scheme: AccessScheme) -> PolyMemConfig {
        let (p, q) = match lanes {
            8 => (2, 4),
            16 => (2, 8),
            32 => (4, 8),
            other => panic!("unsupported lane count {other}"),
        };
        PolyMemConfig::from_capacity(kb * 1024, p, q, scheme, ports).unwrap()
    }

    const DEV: FpgaDevice = FpgaDevice::VIRTEX6_SX475T;

    #[test]
    fn anchor_logic_512_8_1_rero() {
        // Paper: 10.78% logic for ReRo 512 KB, 8 lanes, 1 port.
        let u = estimate(&cfg(512, 8, 1, AccessScheme::ReRo)).utilization(&DEV);
        assert!((u.logic_pct - 10.78).abs() < 0.5, "got {}", u.logic_pct);
    }

    #[test]
    fn anchor_logic_512_8_4_rero() {
        // Paper: 22.34% for the 4-port variant ("logic utilization doubles").
        let u = estimate(&cfg(512, 8, 4, AccessScheme::ReRo)).utilization(&DEV);
        assert!((u.logic_pct - 22.34).abs() < 1.0, "got {}", u.logic_pct);
    }

    #[test]
    fn anchor_logic_512_16_1_rero() {
        // Paper: 23.73% for 16 lanes (supra-linear vs 10.78% at 8 lanes).
        let u = estimate(&cfg(512, 16, 1, AccessScheme::ReRo)).utilization(&DEV);
        assert!((u.logic_pct - 23.73).abs() < 1.0, "got {}", u.logic_pct);
    }

    #[test]
    fn anchor_logic_reo_slightly_below_rero() {
        let reo = estimate(&cfg(512, 8, 1, AccessScheme::ReO)).utilization(&DEV);
        let rero = estimate(&cfg(512, 8, 1, AccessScheme::ReRo)).utilization(&DEV);
        assert!(reo.logic_pct < rero.logic_pct);
        assert!((reo.logic_pct - 10.58).abs() < 0.5, "got {}", reo.logic_pct);
    }

    #[test]
    fn anchor_bram_percentages() {
        // Paper §IV-C: 16.07% (512/8/1), 19.31% (512/16/1), 29.04% (512/8/2),
        // ~97% (2048/16/2).
        let cases = [
            (512, 8, 1, 16.07),
            (512, 16, 1, 19.31),
            (512, 8, 2, 29.04),
            (2048, 16, 2, 97.0),
        ];
        for (kb, lanes, ports, want) in cases {
            let u = estimate(&cfg(kb, lanes, ports, AccessScheme::ReRo)).utilization(&DEV);
            assert!(
                (u.bram_pct - want).abs() < 1.5,
                "{kb}KB/{lanes}L/{ports}P: got {} want {want}",
                u.bram_pct
            );
        }
    }

    #[test]
    fn bram_independent_of_scheme() {
        for scheme in AccessScheme::ALL {
            let e = estimate(&cfg(1024, 8, 2, scheme));
            let base = estimate(&cfg(1024, 8, 2, AccessScheme::ReO));
            assert_eq!(e.bram_blocks, base.bram_blocks, "{scheme}");
        }
    }

    #[test]
    fn capacity_barely_moves_logic() {
        // Paper: 8 lanes, 1 port: 10.58% (512 KB ReO) .. 13.05% (4096 KB RoCo).
        let small = estimate(&cfg(512, 8, 1, AccessScheme::ReO)).utilization(&DEV);
        let large = estimate(&cfg(4096, 8, 1, AccessScheme::RoCo)).utilization(&DEV);
        assert!(large.logic_pct - small.logic_pct < 3.5);
        assert!(
            (large.logic_pct - 13.05).abs() < 0.7,
            "got {}",
            large.logic_pct
        );
    }

    #[test]
    fn supra_linear_lane_scaling() {
        let l8 = estimate(&cfg(512, 8, 1, AccessScheme::ReRo)).slices;
        let l16 = estimate(&cfg(512, 16, 1, AccessScheme::ReRo)).slices;
        assert!(
            l16 / l8 > 2.0,
            "lane doubling must be supra-linear: {}",
            l16 / l8
        );
    }

    #[test]
    fn lut_range_matches_paper() {
        // Paper: LUT utilization varies between ~7% and ~28% over the DSE.
        let lo = estimate(&cfg(512, 8, 1, AccessScheme::ReO)).utilization(&DEV);
        let hi = estimate(&cfg(2048, 16, 2, AccessScheme::ReRo)).utilization(&DEV);
        assert!(lo.lut_pct > 6.0 && lo.lut_pct < 9.0, "low {}", lo.lut_pct);
        assert!(
            hi.lut_pct > 24.0 && hi.lut_pct < 30.0,
            "high {}",
            hi.lut_pct
        );
    }

    #[test]
    fn feasibility_reproduces_table4_grid() {
        // The exact 18 configurations of Table IV must be feasible and all
        // others in the DSE space infeasible.
        let mut feasible = Vec::new();
        for kb in [512usize, 1024, 2048, 4096] {
            for lanes in [8usize, 16] {
                for ports in 1..=4usize {
                    let e = estimate(&cfg(kb, lanes, ports, AccessScheme::ReO));
                    if e.feasible(&DEV) {
                        feasible.push((kb, lanes, ports));
                    }
                }
            }
        }
        let expect = vec![
            (512, 8, 1),
            (512, 8, 2),
            (512, 8, 3),
            (512, 8, 4),
            (512, 16, 1),
            (512, 16, 2),
            (1024, 8, 1),
            (1024, 8, 2),
            (1024, 8, 3),
            (1024, 8, 4),
            (1024, 16, 1),
            (1024, 16, 2),
            (2048, 8, 1),
            (2048, 8, 2),
            (2048, 16, 1),
            (2048, 16, 2),
            (4096, 8, 1),
            (4096, 16, 1),
        ];
        let mut want = expect;
        want.sort_unstable();
        feasible.sort_unstable();
        assert_eq!(feasible, want);
    }

    #[test]
    fn max_feasible_logic_under_38pct() {
        // Paper: "keeping the logic utilization under 38%".
        let mut max = 0.0f64;
        for kb in [512usize, 1024, 2048, 4096] {
            for lanes in [8usize, 16] {
                for ports in 1..=4usize {
                    for scheme in AccessScheme::ALL {
                        let e = estimate(&cfg(kb, lanes, ports, scheme));
                        if e.feasible(&DEV) {
                            max = max.max(e.utilization(&DEV).logic_pct);
                        }
                    }
                }
            }
        }
        assert!(max < 38.0, "max feasible logic {max}");
        assert!(
            max > 30.0,
            "densest design should be wiring-heavy, got {max}"
        );
    }

    #[test]
    fn modular_roughly_doubles_resources() {
        // Paper §III-C: "the modular version consumes twice as many
        // resources" as the fused one.
        let c = cfg(512, 8, 1, AccessScheme::ReRo);
        let fused = estimate_with_style(&c, DesignStyle::Fused);
        let modular = estimate_with_style(&c, DesignStyle::Modular);
        let ratio = modular.slices / fused.slices;
        assert!(ratio > 1.7 && ratio < 2.3, "slice ratio {ratio}");
        assert!(modular.bram_blocks > fused.bram_blocks);
        assert_eq!(
            estimate_with_style(&c, DesignStyle::Fused),
            estimate(&c),
            "fused is the default estimate"
        );
    }

    #[test]
    fn breakdown_sums_to_total() {
        let e = estimate(&cfg(1024, 16, 2, AccessScheme::RoCo));
        let sum = e.breakdown.total();
        assert!((sum * scheme_area_factor(AccessScheme::RoCo) - e.slices).abs() < 1e-6);
    }
}
