//! `perfbench --workload <stream-host|readings-mix|stream-dfe> --seed <n>
//! --seconds <s> --trace <0|1> [--tiny]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

use perfbench::harness::Config;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = perfbench::run(&cfg).expect("Config::parse accepts only known workloads");
    println!("{}", report.to_json(cfg.trace));
}
