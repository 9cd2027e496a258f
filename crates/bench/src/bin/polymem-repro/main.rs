//! **polymem-repro** — regenerate one table, figure or study of the paper:
//! `polymem-repro <experiment>`, one of `EXPERIMENTS`, each a module of
//! this binary. The only flag is `dse_full --quick` (the reduced CI grid).
//! A missing or unknown experiment, or an argument it does not take,
//! prints the usage line and exits 2. An experiment that `assert!`s its
//! headline claim exits non-zero when the claim fails.

mod ablation_latency;
mod ablation_modular;
mod ablation_scheduler;
mod device_sweep;
mod dse_full;
mod fig10_stream_copy;
mod fig1_cache_benefit;
mod fig4_write_bw;
mod fig5_read_bw;
mod fig6_logic;
mod fig7_lut;
mod fig8_bram;
mod fig9_trace;
mod noise_dse;
mod pareto;
mod pcie_overhead;
mod sensitivity;
mod stream_full;
mod stream_staged;
mod table1_schemes;
mod table2_productivity;
mod table4_fmax;
mod toolchain;

use Entry::{Flag, Plain};

/// How an experiment starts: with no argument, or with one optional flag,
/// passed as whether it was given.
enum Entry {
    Plain(fn()),
    Flag(&'static str, fn(bool)),
}

/// Every experiment, by name.
const EXPERIMENTS: &[(&str, Entry)] = &[
    ("table1_schemes", Plain(table1_schemes::run)),
    ("table2_productivity", Plain(table2_productivity::run)),
    ("dse_full", Flag("--quick", dse_full::run)),
    ("table4_fmax", Plain(table4_fmax::run)),
    ("fig1_cache_benefit", Plain(fig1_cache_benefit::run)),
    ("fig4_write_bw", Plain(fig4_write_bw::run)),
    ("fig5_read_bw", Plain(fig5_read_bw::run)),
    ("fig6_logic", Plain(fig6_logic::run)),
    ("fig7_lut", Plain(fig7_lut::run)),
    ("fig8_bram", Plain(fig8_bram::run)),
    ("fig9_trace", Plain(fig9_trace::run)),
    ("fig10_stream_copy", Plain(fig10_stream_copy::run)),
    ("stream_full", Plain(stream_full::run)),
    ("stream_staged", Plain(stream_staged::run)),
    ("ablation_modular", Plain(ablation_modular::run)),
    ("ablation_scheduler", Plain(ablation_scheduler::run)),
    ("ablation_latency", Plain(ablation_latency::run)),
    ("noise_dse", Plain(noise_dse::run)),
    ("pcie_overhead", Plain(pcie_overhead::run)),
    ("sensitivity", Plain(sensitivity::run)),
    ("device_sweep", Plain(device_sweep::run)),
    ("pareto", Plain(pareto::run)),
    ("toolchain", Plain(toolchain::run)),
];

/// Run the experiment `args` names; `Err` with the usage text when they
/// name none or pass an argument the experiment does not take.
fn start(args: &[String]) -> Result<(), String> {
    let entry = args
        .first()
        .and_then(|a| EXPERIMENTS.iter().find(|(n, _)| n == a));
    match (entry, args.get(1..).unwrap_or_default()) {
        (Some((_, Plain(run))), []) => run(),
        (Some((_, Flag(_, run))), []) => run(false),
        (Some((_, Flag(flag, run))), [arg]) if arg == flag => run(true),
        _ => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            let usage = "usage: polymem-repro <experiment>  (dse_full also takes --quick)";
            return Err(format!("{usage}\nexperiments: {}", names.join(" ")));
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(usage) = start(&args) {
        eprintln!("{usage}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start_line(line: &[&str]) -> Result<(), String> {
        start(&line.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn every_experiment_runs() {
        for (name, _) in EXPERIMENTS {
            eprintln!("running {name}");
            start_line(&[name]).unwrap();
        }
        start_line(&["dse_full", "--quick"]).unwrap();
    }

    #[test]
    fn bad_command_lines_get_the_usage() {
        let lines: [&[&str]; 6] = [
            &[],
            &["nope"],
            &["dse_full", "--extended"],
            &["dse_full", "--quik"],
            &["dse_full", "--quick", "--quick"],
            &["fig4_write_bw", "--quick"],
        ];
        for line in lines {
            let usage = start_line(line).expect_err("rejected");
            assert!(EXPERIMENTS.iter().all(|(n, _)| usage.contains(n)));
        }
    }
}
