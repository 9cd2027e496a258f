//! **Methodology experiment** — place-and-route variance. Table IV contains
//! non-monotonic cells (512KB/16L/2P is slower than the larger 1024KB/16L/2P
//! in every scheme). This experiment adds the model's deterministic ±15% "P&R
//! jitter" and counts how many monotonicity violations appear per seed —
//! showing the paper's anomalies are the expected artefact of synthesis
//! noise, not structure.

use fpga_model::calibration::{config_for, PAPER_TABLE4, TABLE4_COLUMNS};
use fpga_model::fmax_mhz_noisy;
use polymem::AccessScheme;

/// Count capacity-monotonicity violations in a table of Fmax values
/// (a violation: a larger memory at identical lanes/ports is faster).
fn violations(fmax: impl Fn(AccessScheme, usize, usize, usize) -> f64) -> usize {
    let mut v = 0;
    for scheme in AccessScheme::ALL {
        for lanes in [8usize, 16] {
            for ports in 1..=4usize {
                let sizes: Vec<usize> = [512usize, 1024, 2048, 4096]
                    .into_iter()
                    .filter(|&kb| TABLE4_COLUMNS.contains(&(kb, lanes, ports)))
                    .collect();
                for w in sizes.windows(2) {
                    if fmax(scheme, w[1], lanes, ports) > fmax(scheme, w[0], lanes, ports) {
                        v += 1;
                    }
                }
            }
        }
    }
    v
}

pub fn run() {
    // The paper's own table.
    let paper = |scheme: AccessScheme, kb: usize, lanes: usize, ports: usize| -> f64 {
        let row = PAPER_TABLE4.iter().find(|(s, _)| *s == scheme).unwrap();
        let col = TABLE4_COLUMNS
            .iter()
            .position(|&c| c == (kb, lanes, ports))
            .unwrap();
        row.1[col]
    };
    let paper_v = violations(paper);
    println!("capacity-monotonicity violations in the paper's Table IV: {paper_v}");

    // The clean model: zero violations by construction.
    let clean = |scheme: AccessScheme, kb: usize, lanes: usize, ports: usize| {
        fpga_model::fmax_mhz(&config_for(kb, lanes, ports, scheme))
    };
    println!(
        "violations in the noise-free model:                        {}",
        violations(clean)
    );

    // The jittered model across seeds.
    println!("\nwith deterministic +/-15% P&R jitter (calibrated to Table IV residuals):");
    let mut total = 0usize;
    for seed in 0..10u64 {
        let noisy = |scheme: AccessScheme, kb: usize, lanes: usize, ports: usize| {
            fmax_mhz_noisy(&config_for(kb, lanes, ports, scheme), seed)
        };
        let v = violations(noisy);
        total += v;
        println!("  seed {seed}: {v} violations");
    }
    println!(
        "\nmean {:.1} violations/seed — the same order as the paper's {paper_v}: \
         Table IV's anomalies look like ordinary synthesis variance.",
        total as f64 / 10.0
    );
}
