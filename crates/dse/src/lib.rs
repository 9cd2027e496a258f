//! # polymem-dse — parallel design-space exploration for MAX-PolyMem
//!
//! The paper's evaluation is a DSE over capacity × lanes × read ports ×
//! scheme (Table III, Figs. 6-8). This crate turns that one-off sweep into
//! an engine:
//!
//! * [`engine`] — fans the grid over `std::thread::scope` workers and
//!   evaluates every point on **two axes**: the analytic synthesis model
//!   (`fpga_model::synthesize` — Fmax, BRAM, logic, feasibility) and a
//!   **measured** pass through the event-driven `dfe_sim` simulator
//!   (`stream_bench::probe_burst_copy` — cycles → GiB/s at the modeled
//!   Fmax). Results are byte-deterministic regardless of worker count;
//! * [`pareto`] — the feasible non-dominated front over measured bandwidth
//!   (max), BRAM blocks (min) and Fmax (max);
//! * [`claims`] — the paper's qualitative conclusions (which scheme wins
//!   where, the lane/port crossover, the 32-lane routability wall),
//!   machine-checked against every sweep;
//! * [`report`] — the committed `DSE_report.json` artifact, written through
//!   the shared `polymem::json` codec and drift-gated in CI exactly like
//!   `VERIFY_report.json`;
//! * [`recommend`] — the auto-configurator:
//!   [`recommend::recommend`]`(workload_trace) -> PolyMemConfig` picks
//!   scheme + geometry for a described access mix.
//!
//! The `polymem-dse` binary drives all of it; `--quick` runs the reduced
//! CI grid, the default runs the full Table III grid plus the 32-lane arm.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod claims;
pub mod engine;
pub mod measure;
pub mod pareto;
pub mod recommend;
pub mod report;

pub use claims::{evaluate as evaluate_claims, Claim};
pub use engine::{default_workers, sweep, EvalPoint, SweepConfig, SweepResult};
pub use measure::SimMeasure;
pub use pareto::{dominates, front, front_of, objectives, Objectives};
pub use recommend::{recommend, recommend_from, WorkloadTrace};
pub use report::render as render_report;
