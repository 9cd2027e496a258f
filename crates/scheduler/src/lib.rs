//! # polymem-scheduler — access-schedule optimization for PolyMem
//!
//! The design-flow half of the paper (§III-A, expanded in the authors'
//! companion work "The Case for Custom Parallel Memories"): given the memory
//! access pattern of an application, find the **optimal parallel access
//! schedule** — the shortest sequence of conflict-free parallel accesses
//! that covers it — and use it to pick the best PolyMem configuration.
//!
//! * [`pattern`] — application access traces;
//! * [`cover`] — the set-covering formulation (ref \[10\] of the paper);
//! * [`greedy`] — the `H_n`-approximate baseline;
//! * [`bnb`] — exact branch-and-bound (substituting for the paper's ILP
//!   solver), with a brute-force ground-truth checker for tests;
//! * [`metrics`] — speedup and efficiency, on one read port or several;
//! * [`dse`] — configuration sweep and selection.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod anneal;
pub mod bitset;
pub mod bnb;
pub mod cover;
pub mod dse;
pub mod greedy;
pub mod lp;
pub mod metrics;
pub mod pattern;

pub use anneal::{solve as solve_anneal, AnnealOptions};
pub use bitset::BitSet;
pub use bnb::{brute_force, solve as solve_exact, ExactResult};
pub use cover::{Candidate, CoverInstance, Schedule};
pub use dse::{best, sweep, ConfigResult, SweepOptions};
pub use greedy::solve as solve_greedy;
pub use lp::{dual_bound, lower_bound};
pub use metrics::{evaluate, multiport_speedup, ScheduleMetrics};
pub use pattern::AccessTrace;
