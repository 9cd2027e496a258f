//! FPGA device database.
//!
//! The paper's experiments all target the Maxeler Vectis board, which
//! carries a **Xilinx Virtex-6 SX475T** (XC6VSX475T). The counts below come
//! from the Virtex-6 family overview (DS150) that the paper cites.

/// Static description of an FPGA part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpgaDevice {
    /// Marketing name.
    pub name: &'static str,
    /// Logic cells (marketing count).
    pub logic_cells: usize,
    /// Physical slices (each: 4 LUT6 + 8 FF). "Logic utilization" in the
    /// paper's Fig. 6 is slice occupancy.
    pub slices: usize,
    /// 6-input LUTs (Fig. 7's denominator).
    pub luts: usize,
    /// Flip-flops.
    pub flip_flops: usize,
    /// 36 Kb block RAMs (Fig. 8's denominator). Each can also be used as two
    /// independent 18 Kb BRAMs.
    pub bram36: usize,
    /// DSP48E1 slices.
    pub dsp48: usize,
}

impl FpgaDevice {
    /// The Xilinx Virtex-6 SX475T on the Maxeler Vectis DFE.
    pub const VIRTEX6_SX475T: FpgaDevice = FpgaDevice {
        name: "Virtex-6 SX475T (Maxeler Vectis)",
        logic_cells: 476_160,
        slices: 74_400,
        luts: 297_600,
        flip_flops: 595_200,
        bram36: 1_064,
        dsp48: 2_016,
    };

    /// Virtex-6 SX315T — the smaller SXT sibling (DS150).
    pub const VIRTEX6_SX315T: FpgaDevice = FpgaDevice {
        name: "Virtex-6 SX315T",
        logic_cells: 314_880,
        slices: 49_200,
        luts: 196_800,
        flip_flops: 393_600,
        bram36: 704,
        dsp48: 1_344,
    };

    /// Virtex-6 LX240T — the common logic-oriented mid-range part (DS150).
    pub const VIRTEX6_LX240T: FpgaDevice = FpgaDevice {
        name: "Virtex-6 LX240T",
        logic_cells: 241_152,
        slices: 37_680,
        luts: 150_720,
        flip_flops: 301_440,
        bram36: 416,
        dsp48: 768,
    };

    /// Virtex-6 LX550T — large logic, mid BRAM (DS150).
    pub const VIRTEX6_LX550T: FpgaDevice = FpgaDevice {
        name: "Virtex-6 LX550T",
        logic_cells: 549_888,
        slices: 85_920,
        luts: 343_680,
        flip_flops: 687_360,
        bram36: 632,
        dsp48: 864,
    };

    /// The Virtex-6 parts modelled, largest BRAM first.
    pub const ALL: [FpgaDevice; 4] = [
        Self::VIRTEX6_SX475T,
        Self::VIRTEX6_SX315T,
        Self::VIRTEX6_LX550T,
        Self::VIRTEX6_LX240T,
    ];

    /// Total on-chip BRAM capacity in bytes (raw, including parity width):
    /// `bram36 * 36 Kb / 8`. The paper quotes "4 MB of on-chip BRAMs" for
    /// the SX475T, i.e. the usable 64-bit-data capacity.
    pub fn bram_bytes_raw(&self) -> usize {
        self.bram36 * 36 * 1024 / 8
    }

    /// Usable data bytes per BRAM36 when storing 64-bit words: the block is
    /// configured `512 x 72`, with 64 of the 72 bits carrying data — but the
    /// PolyMem banks pack data across the full 36 Kb through depth
    /// cascading, so we account 4.5 KB of data per block (36 Kb), matching
    /// the paper's "4 MB parallel memory fills the device" observation.
    pub const BYTES_PER_BRAM36: f64 = 4608.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sx475t_counts() {
        let d = FpgaDevice::VIRTEX6_SX475T;
        assert_eq!(d.slices * 4, d.luts);
        assert_eq!(d.slices * 8, d.flip_flops);
        assert_eq!(d.bram36, 1064);
    }

    #[test]
    fn bram_capacity_is_about_4mb() {
        let d = FpgaDevice::VIRTEX6_SX475T;
        let mb = d.bram_bytes_raw() as f64 / (1024.0 * 1024.0);
        // 1064 * 4.5 KB = 4.67 MB raw; the paper rounds the usable capacity
        // to "4 MB", and indeed a 4 MB PolyMem fits (synthesis tests).
        assert!(mb > 4.0 && mb < 5.0, "got {mb} MB");
    }
}
