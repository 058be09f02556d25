#![warn(missing_docs)]

//! # paella-core
//!
//! The paper's primary contribution: a model-serving dispatcher that lifts
//! GPU scheduling out of the hardware and into software.
//!
//! * [`occupancy`] — the software mirror of per-SM resource usage (Table 1),
//!   fed by instrumented-kernel notifications.
//! * [`sched`] — the scheduling policies of Table 3: FIFO, SJF, round-robin,
//!   and the default SRPT + deficit-counter fairness algorithm (§6).
//! * [`dispatcher`] — the single-core serving loop tying everything
//!   together: ingest from shared-memory rings, per-job waitlists (Fig. 7)
//!   as predecessor counts over each model's pre-validated
//!   [`KernelDag`](paella_compiler::KernelDag) with pipelined release on
//!   full placement, dispatch under the occupancy budget, hybrid
//!   interrupt-then-poll result delivery (§5).
//! * [`types`] — requests, completions, and the Fig. 10 latency-breakdown
//!   categories.

pub mod batching;
pub mod dispatcher;
pub mod mig;
pub mod occupancy;
pub mod remote;
pub mod sched;
pub mod serve;
pub mod types;

pub use batching::{BatchPolicy, SaturationBatcher};
pub use dispatcher::{
    Dispatcher, DispatcherConfig, Granularity, ReleasedSet, StreamPolicy, WakeupMode,
};
pub use mig::{partition_device, MigServing};
pub use occupancy::OccupancyTracker;
pub use remote::{RemoteGateway, RpcNetModel};
pub use sched::{
    FifoScheduler, JobInfo, RrScheduler, Scheduler, SjfScheduler, SrptDeficitScheduler,
};
pub use serve::ServingSystem;
pub use types::{
    ClientId, FailureReason, InferenceRequest, JobCompletion, JobFailure, JobId, LatencyBreakdown,
    ModelId,
};
