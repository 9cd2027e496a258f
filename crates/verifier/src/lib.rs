//! `polymem-verify`: static conflict-freedom, plan-soundness and
//! lock-order analyzer for the PolyMem workspace.
//!
//! Everything here is *static*: no memory accesses are executed. The key
//! observation making the proofs exhaustive rather than sampled is
//! periodicity — every MAF, addressing function and compiled plan is
//! invariant under origin shifts by `p·q`, so each property only has
//! `(p·q)²` residue classes to check per (scheme, pattern, geometry):
//!
//! * [`schemes`] — reports [`polymem::theory::prove_pair`]'s proof of
//!   every Table I support claim over all residue classes, the
//!   serialization bound of every unclaimed pair, and unclaimed pairs that
//!   are conflict-free anyway;
//! * [`plans`] — compiles every one-access and region plan class through
//!   the production plan cache and proves each a true permutation that
//!   matches the ground-truth MAF + addressing model, proves the compile
//!   gates reject unclaimed/misaligned requests, and exercises the cache's
//!   region capacity cap;
//! * [`locks`] — extracts the lock-acquisition structure of
//!   `ConcurrentPolyMem` from source, proves no storage guard is taken
//!   under another and no lock under the storage guard, and flags any
//!   thread the datapath spawns (port aliasing);
//! * [`streams`] — proves the declared STREAM wiring graphs deadlock-free:
//!   no wait-cycle over unregistered (non-delay-line) stream edges, the
//!   static-graph complement to the event scheduler's runtime `Stuck`
//!   detection;
//! * [`lint`] — rejects panicking constructs in plan-replay hot paths,
//!   modulo a tracked allowlist;
//! * [`telemetry`] — proves instrumentation inside held storage-guard
//!   scopes uses only lock-free atomic counter handles (no registry calls
//!   or journal writes under the storage lock, no single-writer `*_owned`
//!   ops in multi-writer code);
//! * [`races`] — checks every atomic operation in the lock-free datapath
//!   against a declared memory-ordering contract table and audits `unsafe`
//!   blocks for held-guard scoping (the race scenarios themselves run
//!   against the real types under `polymem`'s `race-check` feature);
//! * [`inject`] — mutation-tests the analyzer itself by seeding one
//!   violation per hazard class and requiring each to be caught.
//!
//! The binary (`cargo run -p verifier`) runs all of the above, writes
//! `VERIFY_report.json`, and exits non-zero on any error (or warning,
//! under `--deny-warnings`). See `DESIGN.md` ("Hazard taxonomy") for the
//! mapping from hazard to proof.

#![warn(missing_docs)]

pub mod findings;
pub mod inject;
pub mod lint;
pub mod locks;
pub mod plans;
pub mod races;
pub mod schemes;
pub mod streams;
pub mod telemetry;
