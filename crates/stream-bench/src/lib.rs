//! # polymem-stream-bench — the STREAM benchmark on MAX-PolyMem
//!
//! A faithful model of the paper's Fig. 9 design: a host-orchestrated
//! STREAM benchmark whose vectors live in PolyMem's three regions and whose
//! compute stage streams one 8-element chunk per cycle through the memory's
//! read port(s), feeding the write port from the memory's own output.
//!
//! * [`layout`] — vector placement (the paper's exact 170 x 512 x 8 B
//!   geometry is [`StreamLayout::paper_geometry`](layout::StreamLayout::paper_geometry))
//!   and each vector's region cover ([`vector_regions`]);
//! * [`op`] — Copy (measured in the paper), Scale, Sum, Triad (the paper's
//!   future work, implemented as the extension);
//! * [`controller`] — the Fig. 9 Controller FSM as a simulator kernel, the
//!   per-chunk cycle oracle;
//! * [`burst`] — the region-burst controller: whole-region bursts on the
//!   PolyMem kernel's region/copy/write ports instead of per-chunk
//!   requests. Copy and Scale on a `Block` cover match the per-chunk cycle
//!   count within a few cycles; two-operand ops read their operand bursts
//!   one after the other on the single region read port, and each burst of
//!   a ragged (`Row`) cover pays the read latency;
//! * [`graph`] — the declared stream graph of both designs, for the
//!   verifier's `streams` pass;
//! * [`staged`] — Load and Offload as per-chunk kernels on the memory's
//!   write and read ports, PCIe-paced;
//! * [`probe`] — a headless one-call burst-Copy harness for design-space
//!   sweeps (measured cycles per configuration, any scheme);
//! * [`app`] — the assembled design with Load / Compute / Offload staging
//!   and the paper's measurement methodology (1000 blocking runs, ~300 ns
//!   host-call overhead, 14-cycle read latency);
//! * [`report`] — STREAM-standard output and the Fig. 10 series.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod app;
pub mod burst;
pub mod controller;
pub mod graph;
pub mod layout;
pub mod op;
pub mod probe;
pub mod report;
pub mod staged;

pub use app::{scalar_reference, StageTiming, StreamApp, PAPER_STREAM_FREQ_MHZ};
pub use burst::BurstController;
pub use controller::{Controller, ControllerState};
pub use layout::{vector_regions, StreamLayout, VectorLayout};
pub use op::StreamOp;
pub use probe::{probe_burst_copy, ProbeResult};
pub use report::{fig10_default_sizes, fig10_series, fig10_series_burst, Fig10Point, StreamRow};
pub use staged::{pcie_chunk_interval, LoadKernel, OffloadKernel};
