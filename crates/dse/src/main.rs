//! `polymem-dse` — run the design-space sweep, print the Pareto front and
//! trend claims, optionally write the committed `DSE_report.json`.
//!
//! ```text
//! polymem-dse [--quick] [--workers N] [--chunks N] [--report FILE]
//! ```
//!
//! * `--quick`   reduced CI grid (trend-complete; see `DseGrid::quick`)
//! * `--workers` worker threads (default: available parallelism)
//! * `--chunks`  simulation pass length in chunks (default per grid)
//! * `--report`  write the deterministic JSON artifact to FILE
//!
//! Exits 1 if any trend claim fails, so the CI drift gate also guards the
//! claims themselves, and 2 with the usage line on a bad command line.

use polymem::telemetry::TelemetryRegistry;
use polymem_dse::{claims, engine, pareto, report};
use std::process::ExitCode;

const USAGE: &str = "usage: polymem-dse [--quick] [--workers N] [--chunks N] [--report FILE]";

/// What the command line asks for.
#[derive(Debug, Default, PartialEq)]
struct Args {
    quick: bool,
    workers: Option<usize>,
    chunks: Option<usize>,
    report: Option<String>,
    help: bool,
}

/// Parse the arguments after the program name; `Err` names the first bad
/// one: an unknown flag, or a flag whose value is missing or, for
/// `--workers` and `--chunks`, not a number.
fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        let number = |v: &String| {
            v.parse()
                .map_err(|_| format!("{arg} takes a number, got {v:?}"))
        };
        match arg.as_str() {
            "--quick" => out.quick = true,
            "--workers" => out.workers = Some(number(value()?)?),
            "--chunks" => out.chunks = Some(number(value()?)?),
            "--report" => out.report = Some(value()?.clone()),
            "--help" | "-h" => out.help = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(args) if args.help => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(args) => args,
        Err(bad) => {
            // 1 is a failed trend claim; a usage error is 2.
            eprintln!("{bad}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut cfg = if args.quick {
        engine::SweepConfig::quick()
    } else {
        engine::SweepConfig::full()
    };
    if let Some(w) = args.workers {
        cfg = cfg.with_workers(w);
    }
    if let Some(c) = args.chunks {
        cfg.sim_chunks = c;
    }

    let registry = TelemetryRegistry::new();
    let result = engine::sweep(&cfg, &registry);
    let claims = claims::evaluate(&result);

    println!(
        "swept {} cells ({} evaluated, {} feasible, {} skipped) on {}",
        result.grid.len(),
        result.points.len(),
        result.feasible().count(),
        result.skipped.len(),
        result.device_name,
    );
    println!(
        "scheduler: {} ticked, {} jumps covering {} cycles",
        result.sched.ticked_cycles, result.sched.jumps, result.sched.skipped_cycles
    );

    println!("\npareto front (read GiB/s vs BRAM vs Fmax):");
    for &i in &pareto::front(&result.points) {
        let p = &result.points[i];
        let o = pareto::objectives(p).unwrap();
        println!(
            "  {:>4}KB {:>2}L {}P {:<4}  {:>7.2} GiB/s  {:>6.1} BRAM  {:>6.2} MHz",
            p.size_kb,
            p.lanes,
            p.read_ports,
            p.scheme.name(),
            o.read_gibps,
            o.bram_blocks,
            o.fmax_mhz
        );
    }

    println!("\nclaims:");
    let mut ok = true;
    for c in &claims {
        let mark = if c.holds { "PASS" } else { "FAIL" };
        println!("  [{mark}] {}: {}", c.id, c.details);
        ok &= c.holds;
    }

    if let Some(path) = args.report {
        let text = report::render(&result, &claims);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote {path}");
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("\nFAILED claims: {:?}", claims::failing(&claims));
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &[&str]) -> Result<Args, String> {
        parse(&line.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn bad_command_lines_get_the_usage() {
        for (line, names) in [
            (&["--extended"][..], "--extended"),
            (&["--quick", "--quik"], "--quik"),
            (&["--workers"], "--workers needs a value"),
            (&["--chunks"], "--chunks needs a value"),
            (&["--report"], "--report needs a value"),
            (&["--workers", "two"], "\"two\""),
            (&["--chunks", "-1"], "\"-1\""),
            (&["--quick", "--workers", "2", "--chunks", "1e3"], "\"1e3\""),
        ] {
            let bad = parse_line(line).expect_err("rejected");
            assert!(bad.contains(names), "{line:?}: {bad}");
        }
        let args = parse_line(&[
            "--quick",
            "--workers",
            "2",
            "--chunks",
            "64",
            "--report",
            "r",
        ]);
        let want = Args {
            quick: true,
            workers: Some(2),
            chunks: Some(64),
            report: Some("r".into()),
            help: false,
        };
        assert_eq!(args, Ok(want));
        assert_eq!(parse_line(&[]), Ok(Args::default()));
    }
}
