#![warn(missing_docs)]

//! # paella-sim
//!
//! Discrete-event simulation kernel underpinning the Paella (SOSP '23)
//! reproduction. It provides:
//!
//! * [`time`] — nanosecond-resolution virtual time ([`SimTime`],
//!   [`SimDuration`]).
//! * [`event`] — a deterministic event queue with stable tie-breaking
//!   ([`EventQueue`]).
//! * [`hash`] — a fixed, seedless hasher for integer-keyed hot maps
//!   ([`IdBuildHasher`]).
//! * [`fault`] — seeded fault schedules ([`FaultPlan`]) for deterministic
//!   fault-injection runs.
//! * [`rng`] — seedable, version-stable PRNGs ([`Xoshiro256pp`]).
//! * [`dist`] — the distributions the paper's workloads need (lognormal
//!   arrivals with σ ∈ {1.5, 2}, exponential, normal, uniform).
//! * [`stats`] — streaming statistics (p99, CDFs, utilization trackers).
//!
//! All higher layers (the GPU simulator, the Paella dispatcher, the baseline
//! serving systems, the experiment harness) build on these primitives, and
//! identical seeds yield bit-identical experiment output.

pub mod dist;
pub mod event;
pub mod fault;
pub mod hash;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{Constant, Distribution, Exponential, Geometric, LogNormal, Normal, Uniform};
pub use event::{EventId, EventQueue};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultSpec};
pub use hash::{IdBuildHasher, IdHasher};
pub use rng::{SplitMix64, Xoshiro256pp};
pub use stats::{BusyTracker, Histogram, OnlineStats, Percentiles};
pub use time::{SimDuration, SimTime};
