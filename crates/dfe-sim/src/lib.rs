//! # polymem-dfe-sim — a cycle-level dataflow-engine simulator
//!
//! A Maxeler-like substrate for running PolyMem designs without hardware:
//!
//! * [`clock`] — cycle counting and cycle ↔ nanosecond conversion;
//! * [`stream`](mod@stream) — bounded typed FIFOs with backpressure (the edges of a
//!   MaxJ dataflow graph);
//! * [`kernel`] — the ticked-kernel trait, plus [`kernel::DelayLine`]
//!   pipeline registers;
//! * [`manager`] — wires kernels together and drives the clock
//!   deterministically;
//! * [`sched`] — the event-driven scheduling engine: kernels declare their
//!   next-interesting cycle and quiescent spans are fast-forwarded in O(1),
//!   with bulk stall attribution keeping cycle semantics bit-identical;
//! * [`pcie`] — the host link with the ~300 ns per-call overhead the paper
//!   measured (§V) and bulk-transfer bandwidth;
//! * [`components`] — [`Generator`] and [`Sink`] endpoints that feed a
//!   graph from host data and collect its output;
//! * [`dram`] — the off-chip LMem timing model PolyMem is designed to
//!   shield applications from, and the DRAM-vs-PolyMem access cost model
//!   of the paper's Fig. 1;
//! * [`polymem_kernel`] — PolyMem wrapped as a pipelined kernel with the
//!   paper's 14-cycle read latency and read-old port semantics.
//!
//! The `polymem-stream-bench` crate builds the paper's STREAM design
//! (Fig. 9) on top of these pieces.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod components;
pub mod dram;
pub mod kernel;
pub mod manager;
pub mod pcie;
pub mod polymem_kernel;
pub mod sched;
pub mod stream;
pub mod vcd;

pub use clock::SimClock;
pub use components::{Generator, Sink};
pub use dram::{AccessCostModel, DramParams};
pub use kernel::{DelayLine, FnKernel, Kernel};
pub use manager::{Manager, StallReport};
pub use pcie::{Host, HostStats, PcieLink};
pub use polymem_kernel::{
    LaneWord, PolyMemKernel, ReadRequest, ReadResponse, RowRun, RunWords, WriteRequest,
    PAPER_READ_LATENCY,
};
pub use sched::{SchedulerMode, SchedulerStats};
pub use stream::{stream, stream_stats, Fifo, IntoItem, StreamRef, StreamStats};
pub use vcd::VcdRecorder;
