//! # perfbench — the end-to-end, layer-attributed PolyMem benchmark
//!
//! One binary, three workloads, each run in its own process:
//!
//! * [`stream_host`] — STREAM Copy/Scale/Add/Triad on the host
//!   [`polymem::PolyMem`] (region gather → compute → scatter);
//! * [`readings_mix`] — the Co/Ro/Re readings microbenchmark on
//!   [`polymem::ConcurrentPolyMem`], a reader and a writer thread;
//! * [`stream_dfe`] — the simulated Fig. 9 design
//!   ([`stream_bench::StreamApp`] on `dfe_sim`), per-chunk and burst
//!   drivers.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics of
//! [`metrics::END_TO_END`]. A traced run (`--trace 1`) records one span per
//! call into a layer's public functions, nested under one span per pass
//! ([`spans`]), and reports [`metrics::PER_LAYER`]: per-layer times, shares
//! that add up to the pass wall time with an explicit `untracked`
//! residual, counters, and the tracing overhead. See `README.md` for which
//! end-to-end metric each layer metric should move.
//!
//! `stream-host` and `stream-dfe` time a fixed [`reference`] kernel after
//! every pass and report their times at reference speed, so that a phase
//! of a shared host does not read as a change in the program.

pub mod harness;
pub mod metrics;
pub mod readings_mix;
pub mod reference;
pub mod spans;
pub mod stream_dfe;
pub mod stream_host;

use harness::Config;
use metrics::Report;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["stream-host", "readings-mix", "stream-dfe"];

/// Run one workload and return its report (`None` for an unknown name).
pub fn run(cfg: &Config) -> Option<Report> {
    let report = match cfg.workload.as_str() {
        "stream-host" => stream_host::run(cfg),
        "readings-mix" => readings_mix::run(cfg),
        "stream-dfe" => stream_dfe::run(cfg),
        _ => return None,
    };
    Some(report)
}
