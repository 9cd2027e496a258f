//! End-to-end "synthesis": configuration → report.
//!
//! [`synthesize`] glues the resource and timing models together into the
//! record the paper's DSE produces per design: feasibility, Fmax, resource
//! utilization, and the derived bandwidth figures of Figs. 4 and 5.

use crate::device::FpgaDevice;
use crate::resources::{self, ResourceEstimate, Utilization};
use crate::timing;
use polymem::PolyMemConfig;

/// Complete synthesis outcome for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisReport {
    /// The synthesized configuration.
    pub config: PolyMemConfig,
    /// Whether the design fits and routes on the device.
    pub feasible: bool,
    /// Achieved clock frequency (MHz); meaningful only if `feasible`.
    pub fmax_mhz: f64,
    /// Resource estimate.
    pub resources: ResourceEstimate,
    /// Utilization percentages.
    pub utilization: Utilization,
    /// Single-port bandwidth (MB/s) = write bandwidth (Fig. 4).
    pub write_bandwidth_mbps: f64,
    /// Aggregated read bandwidth over all read ports (MB/s, Fig. 5).
    pub read_bandwidth_mbps: f64,
}

impl SynthesisReport {
    /// Total read+write data rate when both directions stream every cycle
    /// (the paper's STREAM-Copy aggregate metric).
    pub fn aggregate_bandwidth_mbps(&self) -> f64 {
        self.write_bandwidth_mbps + self.read_bandwidth_mbps
    }

    /// Bandwidth figures in GB/s (as plotted in Figs. 4-5).
    pub fn write_bandwidth_gbps(&self) -> f64 {
        self.write_bandwidth_mbps / 1000.0
    }

    /// Aggregated read bandwidth in GB/s.
    pub fn read_bandwidth_gbps(&self) -> f64 {
        self.read_bandwidth_mbps / 1000.0
    }
}

/// Synthesize `cfg` for `device` (noise-free; see
/// [`timing::fmax_mhz_noisy`] for P&R-jitter studies).
pub fn synthesize(cfg: &PolyMemConfig, device: &FpgaDevice) -> SynthesisReport {
    let res = resources::estimate(cfg);
    let fmax = timing::fmax_mhz_on(cfg, device);
    SynthesisReport {
        config: *cfg,
        feasible: res.feasible(device),
        fmax_mhz: fmax,
        resources: res,
        utilization: res.utilization(device),
        write_bandwidth_mbps: cfg.port_bandwidth_mbps(fmax),
        read_bandwidth_mbps: cfg.read_bandwidth_mbps(fmax),
    }
}

/// Synthesize on the paper's device (Vectis / Virtex-6 SX475T).
pub fn synthesize_vectis(cfg: &PolyMemConfig) -> SynthesisReport {
    synthesize(cfg, &FpgaDevice::VIRTEX6_SX475T)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::config_for;
    use polymem::AccessScheme;

    #[test]
    fn peak_read_bandwidth_exceeds_32gbps() {
        // Paper abstract: max read bandwidth ~32 GB/s (512 KB, 4 ports).
        // Paper Fig. 5 peak: 512 KB, 8 lanes, 4-port ReTr.
        let mut best = 0.0f64;
        for &(kb, lanes, ports) in &crate::calibration::TABLE4_COLUMNS {
            for scheme in AccessScheme::ALL {
                let r = synthesize_vectis(&config_for(kb, lanes, ports, scheme));
                if r.feasible {
                    best = best.max(r.read_bandwidth_gbps());
                }
            }
        }
        assert!(best > 30.0 && best < 38.0, "peak read bw {best} GB/s");
    }

    #[test]
    fn peak_write_bandwidth_exceeds_20gbps() {
        // Paper: peak write bandwidth > 22 GB/s (512 KB, 16 lanes, ReO).
        let r = synthesize_vectis(&config_for(512, 16, 1, AccessScheme::ReO));
        assert!(
            r.write_bandwidth_gbps() > 20.0,
            "got {}",
            r.write_bandwidth_gbps()
        );
    }

    #[test]
    fn write_bandwidth_scales_linearly_with_lanes() {
        // Paper: "single-port bandwidth scales linearly when doubling number
        // of memory banks from 8 to 16" (frequency drop is modest).
        let w8 = synthesize_vectis(&config_for(512, 8, 1, AccessScheme::ReO));
        let w16 = synthesize_vectis(&config_for(512, 16, 1, AccessScheme::ReO));
        let ratio = w16.write_bandwidth_mbps / w8.write_bandwidth_mbps;
        assert!(ratio > 1.5 && ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn read_port_scaling_has_diminishing_returns() {
        // Paper Fig. 5: good scaling 1->2 ports, diminishing 3->4 (because
        // frequency falls as BRAM fills).
        let bw: Vec<f64> = (1..=4)
            .map(|ports| {
                synthesize_vectis(&config_for(512, 8, ports, AccessScheme::ReRo))
                    .read_bandwidth_gbps()
            })
            .collect();
        assert!(bw[1] > bw[0] * 1.4, "1->2 ports should scale well");
        let gain_34 = bw[3] / bw[2];
        let gain_12 = bw[1] / bw[0];
        assert!(gain_34 < gain_12, "3->4 gain must be smaller than 1->2");
    }

    #[test]
    fn infeasible_configs_flagged() {
        let r = synthesize_vectis(&config_for(4096, 8, 2, AccessScheme::ReO));
        assert!(!r.feasible);
        let r = synthesize_vectis(&config_for(4096, 8, 1, AccessScheme::ReO));
        assert!(r.feasible);
    }

    #[test]
    fn aggregate_is_read_plus_write() {
        let r = synthesize_vectis(&config_for(512, 8, 2, AccessScheme::RoCo));
        assert!(
            (r.aggregate_bandwidth_mbps() - (r.read_bandwidth_mbps + r.write_bandwidth_mbps)).abs()
                < 1e-9
        );
    }

    #[test]
    fn capacity_increase_reduces_bandwidth_at_fixed_geometry() {
        // Paper: "bandwidth is reduced if the number of lanes and ports is
        // kept constant, but the capacity of PolyMem is increased".
        let mut prev = f64::INFINITY;
        for kb in [512usize, 1024, 2048, 4096] {
            let r = synthesize_vectis(&config_for(kb, 8, 1, AccessScheme::ReCo));
            assert!(r.read_bandwidth_mbps < prev);
            prev = r.read_bandwidth_mbps;
        }
    }
}
