//! Checkable synchronization facade for the concurrent datapath.
//!
//! Every atomic and lock used by [`crate::concurrent`] and
//! [`crate::telemetry`] (whose counters include the plan cache's hit and
//! miss tallies) is imported from this module instead of
//! `parking_lot`/`std` directly. In a normal build the
//! re-exports below *are* the raw types — the facade is pure naming with
//! identical codegen, so the lock-free hot paths cost exactly what they did
//! before.
//!
//! Under `--features race-check` the re-exports switch to
//! [`interleave::sync`]: model types whose every load/store/RMW and guard
//! acquire/release is a scheduling point of the vendored bounded
//! interleaving explorer and feeds its vector-clock happens-before checker.
//! That build is for the `races` verification suite only
//! (`cargo test -p polymem --features race-check`, the CI `race-check`
//! job); it is never enabled by dependents in production builds.
//!
//! The declared memory-model contract for every call site routed through
//! here (which counters are legitimately Relaxed, which flags need
//! Acquire/Release pairs) lives in `crates/verifier/src/races.rs` and is
//! enforced by `polymem-verify`'s `races` pass.

/// Memory orderings are always the raw `std` enum — the model types accept
/// and honor the same orderings they check.
pub use std::sync::atomic::Ordering;

#[cfg(not(feature = "race-check"))]
pub use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(not(feature = "race-check"))]
pub use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize};

#[cfg(feature = "race-check")]
pub use interleave::sync::{
    AtomicBool, AtomicI64, AtomicU64, AtomicUsize, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
