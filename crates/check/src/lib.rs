//! `paella-check`: the verification layer for the Paella reproduction.
//!
//! Correctness of this codebase leans on four properties that `cargo test`
//! alone cannot establish, and this crate attacks each with a dedicated
//! tool:
//!
//! 1. **Memory-ordering correctness of the lock-free channels** — the
//!    [`mc`] module is a self-contained stateless model checker (in the
//!    spirit of `loom`) that exhaustively explores bounded-preemption
//!    interleavings of small models of the `notifQ`, the SPSC ring, and the
//!    doorbell under a view-based release/acquire memory model. The
//!    [`models`] module defines those models plus a corpus of *seeded
//!    mutants* (ordering downgrades, dropped flow control, lost-wakeup
//!    windows) that the checker must catch — a self-test that the checker
//!    itself has teeth.
//! 2. **Bookkeeping invariants of the dispatcher** — the [`oracle`] module
//!    provides brute-force reference implementations of CUDA stream
//!    semantics and Table-1 block conservation, cross-checked by property
//!    tests against the production `KernelDag` predecessor counts (each
//!    job's waitlist) and `OccupancyTracker`.
//! 3. **Source-level contracts** — the [`lint`] module enforces repo rules
//!    no off-the-shelf linter knows: no wall clock in the virtual-time
//!    stack, justified `Relaxed` orderings, no `unwrap()` on the dispatcher
//!    hot path, no `thread::sleep` in library code.
//! 4. **Determinism & accounting dataflow** — the [`analysis`] module is a
//!    std-only AST-lite engine (token trees, item/scope recognition,
//!    struct-field classification) hosting rules R1–R9: the lints above
//!    plus no hash-order leakage into decision paths (R6), no unchecked
//!    counter subtraction in accounting code (R7), per-operation atomic
//!    ordering justifications (R8), and total float comparators (R9), with
//!    a byte-sorted stale-checked allowlist and a graft-mutant self-test
//!    ([`analysis::selftest`]) proving every rule fires.
//!
//! The `paella-check` binary wires all four into CI:
//! `cargo run -p paella-check` exits nonzero on any violation, finding,
//! surviving mutant, or non-exhausted model.

pub mod analysis;
pub mod atomic;
pub mod lint;
pub mod mc;
pub mod models;
pub mod oracle;

pub use analysis::{analyze, analyze_sources, Analysis};
pub use atomic::AtomicCell;
pub use lint::{lint_source, Violation};
pub use mc::{Checker, Config, Report};
pub use models::{clean_models, mutants, ModelCheck, Mutant};
pub use oracle::{
    check_journeys, check_kv, ConservationOracle, KvOracle, StreamKind, StreamOracle,
};
