//! # polymem — a Polymorphic Parallel Memory
//!
//! A from-scratch Rust implementation of **PolyMem**, the polymorphic
//! parallel memory of *"MAX-PolyMem: High-Bandwidth Polymorphic Parallel
//! Memories for DFEs"* (Ciobanu, Stramondo, de Laat, Varbanescu — 2018),
//! itself built on the Polymorphic Register File (PRF) conflict-free
//! storage theory (Ciobanu, 2013).
//!
//! PolyMem is a **2D-addressed, multi-bank memory**: data is distributed
//! over a `p x q` grid of independent banks by a *module assignment
//! function* so that an entire shaped group of `p*q` elements — a row, a
//! column, a rectangle, a diagonal, or a transposed rectangle — can be read
//! or written **in a single parallel access**, every lane hitting a
//! different bank. *Polymorphism* means one instance supports several such
//! shapes at once (multiview), selected per access with no reconfiguration.
//!
//! ## Quick start
//!
//! ```
//! use polymem::{AccessScheme, ParallelAccess, PolyMem, PolyMemConfig};
//!
//! // 8 x 16 logical space, 2 x 4 bank grid (8 lanes), row+column multiview.
//! let cfg = PolyMemConfig::new(8, 16, 2, 4, AccessScheme::RoCo, 1).unwrap();
//! let mut mem = PolyMem::<u64>::new(cfg).unwrap();
//!
//! // One parallel access moves p*q = 8 elements.
//! mem.write(ParallelAccess::row(3, 0), &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
//! let col = mem.read(0, ParallelAccess::col(0, 2)).unwrap();
//! assert_eq!(col[3], 3); // row 3, column 2 holds the 3rd written element
//! ```
//!
//! ## Crate map (paper Fig. 3)
//!
//! | block | module |
//! |---|---|
//! | AGU | [`agu`] |
//! | `M` (module assignment) | [`maf`] |
//! | `A` (intra-bank addressing) | [`addressing`] |
//! | Shuffles (crossbars) | [`shuffle`] |
//! | Memory banks | [`banks`] |
//! | ports / façade | [`mem`], [`concurrent`] |
//! | the plan cache (one-access and region plans per residue class) | [`plan`] |
//! | compiled plans (gather/scatter replay) | [`region_plan`] |
//! | access schemes & patterns (Table I, Fig. 2) | [`scheme`], [`region`] |
//! | conflict-freedom theorems | [`theory`] |
//!
//! The sibling crates `polymem-fpga-model` (synthesis estimates),
//! `polymem-dfe-sim` (cycle-level simulation), `polymem-scheduler`
//! (access-schedule optimisation) and `polymem-stream-bench` (STREAM)
//! complete the paper's system.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod addressing;
pub mod agu;
pub mod analysis;
pub mod banded;
pub mod banks;
pub mod bulk;
pub mod concurrent;
pub mod config;
pub mod error;
pub mod json;
pub mod maf;
pub mod matrix;
pub mod mem;
pub mod plan;
pub mod region;
pub mod region_plan;
pub mod scheme;
pub mod shuffle;
pub mod sync;
pub mod telemetry;
pub mod theory;
pub mod tracing;

pub use addressing::AddressingFunction;
pub use agu::Agu;
pub use analysis::{analyse, bank_heatmap, rank_schemes, ConflictReport};
pub use banded::BandedMatrix;
pub use banks::{BankArray, BankLayout};
pub use concurrent::ConcurrentPolyMem;
pub use config::PolyMemConfig;
pub use error::{PolyMemError, Result};
pub use maf::{BankId, ModuleAssignment};
pub use matrix::PolyMatrix;
pub use mem::{AccessReplay, AccessStats, PolyMem};
pub use plan::{PlanCache, PlanCacheStats, PlanKey, PlanShape, PlanTarget};
pub use region::{Region, RegionShape};
pub use region_plan::RegionPlan;
pub use scheme::{AccessPattern, AccessScheme, ParallelAccess};
pub use shuffle::Crossbar;
pub use telemetry::{
    Counter, Gauge, Histogram, Label, MetricSample, SampleValue, TelemetryRegistry,
    TelemetrySnapshot,
};
pub use tracing::{SpanId, TraceJournal, TraceSnapshot, TraceWriter};

/// Glob-import convenience: `use polymem::prelude::*;` brings in the types
/// nearly every user needs.
pub mod prelude {
    pub use crate::config::PolyMemConfig;
    pub use crate::error::{PolyMemError, Result};
    pub use crate::matrix::PolyMatrix;
    pub use crate::mem::PolyMem;
    pub use crate::region::{Region, RegionShape};
    pub use crate::scheme::{AccessPattern, AccessScheme, ParallelAccess};
}
