//! The typed trace-event vocabulary.
//!
//! Events carry raw ids (`u64` jobs, `u64` kernels, `u32` SMs/streams)
//! rather than the domain newtypes of `paella-core`/`paella-gpu`, so this
//! crate sits below both in the dependency graph and either side can record
//! into the same [`Tracer`](crate::Tracer).

use paella_sim::SimTime;

/// Which host-side CPU charge a [`TraceEvent::HostOp`] span covers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HostOpKind {
    /// Pulling one request off the client ring.
    Ingest,
    /// One scheduling decision plus launch overhead.
    Sched,
    /// Folding one device notification into the occupancy mirror.
    Notif,
    /// Posting one completed result back to the client.
    Completion,
}

impl HostOpKind {
    /// Stable display name.
    pub fn as_str(self) -> &'static str {
        match self {
            HostOpKind::Ingest => "ingest",
            HostOpKind::Sched => "sched",
            HostOpKind::Notif => "notif",
            HostOpKind::Completion => "completion",
        }
    }
}

/// Why the dispatcher stopped dispatching in this pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HoldReason {
    /// The occupancy mirror predicts the kernel would not place within the
    /// lookahead slack (§6's `B`).
    OccupancyBudget,
    /// Dispatching would over-commit the device→host notifQ ring.
    NotifqBackpressure,
    /// The job is waiting for free pool streams.
    StreamPool,
    /// The job's next op depends on an earlier op that has not completed;
    /// nothing of it is schedulable until the dependency retires.
    DepWait,
}

impl HoldReason {
    /// Stable display name.
    pub fn as_str(self) -> &'static str {
        match self {
            HoldReason::OccupancyBudget => "occupancy-budget",
            HoldReason::NotifqBackpressure => "notifq-backpressure",
            HoldReason::StreamPool => "stream-pool",
            HoldReason::DepWait => "dep-wait",
        }
    }
}

/// Why a scheduling policy picked the job it picked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PickRationale {
    /// Oldest arrival (FIFO).
    ArrivalOrder,
    /// Smallest total estimate (SJF).
    ShortestTotal,
    /// Smallest remaining estimate (SRPT's common case).
    ShortestRemaining,
    /// Round-robin rotation.
    RoundRobin,
    /// A client exceeded the fairness threshold; its oldest job overrides
    /// the SRPT winner.
    DeficitOverride,
}

impl PickRationale {
    /// Stable display name.
    pub fn as_str(self) -> &'static str {
        match self {
            PickRationale::ArrivalOrder => "arrival-order",
            PickRationale::ShortestTotal => "shortest-total",
            PickRationale::ShortestRemaining => "shortest-remaining",
            PickRationale::RoundRobin => "round-robin",
            PickRationale::DeficitOverride => "deficit-override",
        }
    }
}

/// One virtual-time-stamped observation. The timestamp lives in the
/// enclosing [`TracedEvent`](crate::TracedEvent); span-shaped events carry
/// their own `start` so begin/end pairs stay self-describing.
#[derive(Clone, PartialEq, Debug)]
pub enum TraceEvent {
    /// A request was ingested; opens the job's end-to-end span (anchored at
    /// the client's `submitted_at`, which precedes the ingest timestamp by
    /// the ring-crossing latency).
    JobBegin {
        /// Dispatcher-assigned job id.
        job: u64,
        /// Submitting client.
        client: u32,
        /// Registered model name (interned; shared with the model artifact).
        model: std::sync::Arc<str>,
        /// Client-side submission instant.
        submitted_at: SimTime,
    },
    /// The job's result became client-visible; closes the end-to-end span.
    /// Breakdown components are nanoseconds and sum to the end-to-end JCT.
    JobEnd {
        /// Dispatcher-assigned job id.
        job: u64,
        /// Submitting client.
        client: u32,
        /// End-to-end JCT in nanoseconds.
        jct_ns: u64,
        /// Client send/receive channel time.
        client_send_recv_ns: u64,
        /// PCIe/launch/notification communication time.
        communication_ns: u64,
        /// Queuing + scheduling time.
        queuing_scheduling_ns: u64,
        /// Framework (dispatcher CPU) time.
        framework_ns: u64,
        /// Device execution time.
        device_ns: u64,
    },
    /// The journey record: the request's JCT decomposed into the full phase
    /// taxonomy (DESIGN §12). Emitted alongside [`TraceEvent::JobEnd`];
    /// where `JobEnd` keeps the paper's legacy 5-category breakdown, the
    /// journey further splits the queuing remainder into retry backoff,
    /// dependency wait, occupancy/flow-control wait, and scheduler
    /// head-of-line wait. All fields are nanoseconds and the eight phases
    /// sum *exactly* to `jct_ns` (conservation is oracle-enforced).
    JobJourney {
        /// Dispatcher-assigned job id.
        job: u64,
        /// Submitting client — the tenant for SLO accounting.
        client: u32,
        /// End-to-end JCT in nanoseconds.
        jct_ns: u64,
        /// Client send/receive channel time.
        client_send_recv_ns: u64,
        /// PCIe/launch/notification communication time.
        communication_ns: u64,
        /// Framework (dispatcher CPU) time.
        framework_ns: u64,
        /// Device execution time.
        device_ns: u64,
        /// Time parked in retry backoff after injected kernel faults.
        retry_backoff_ns: u64,
        /// Time the job's frontier was blocked on its own dependencies.
        queue_dep_ns: u64,
        /// Time held by dispatcher flow control (occupancy budget, notifQ
        /// backpressure, stream-pool exhaustion).
        queue_occupancy_ns: u64,
        /// Residual queuing: runnable but not picked — scheduler
        /// head-of-line wait plus unattributed overlap.
        queue_hol_ns: u64,
        /// Device time spent in the prefill phase (prompt processing), for
        /// autoregressive jobs; zero for fixed-trace jobs. Together with
        /// `device_decode_ns` this sub-splits `device_ns` exactly:
        /// `device_prefill_ns + device_decode_ns == device_ns`.
        device_prefill_ns: u64,
        /// Device time spent in per-token decode iterations; zero for
        /// fixed-trace jobs.
        device_decode_ns: u64,
    },
    /// A host CPU charge: `start..` the event timestamp.
    HostOp {
        /// What the CPU time paid for.
        kind: HostOpKind,
        /// Dispatcher core (shard) the work ran on.
        core: u32,
        /// When the work started on that core.
        start: SimTime,
    },
    /// The scheduler chose `job`'s next kernel for dispatch.
    SchedDecision {
        /// Chosen job.
        job: u64,
        /// Policy name (`Scheduler::name`).
        policy: &'static str,
        /// Why this job won the pick.
        rationale: PickRationale,
        /// Ready-queue length at decision time.
        ready: u32,
    },
    /// The dispatcher declined to dispatch (flow control).
    OccupancyHold {
        /// The job whose kernel was held.
        job: u64,
        /// Why it was held.
        reason: HoldReason,
    },
    /// A launch reached its hardware queue on the device.
    KernelQueued {
        /// Launch uid.
        kernel: u64,
        /// CUDA stream.
        stream: u32,
        /// Hardware queue the stream maps to.
        hw_queue: u32,
    },
    /// A hardware queue is head-of-line blocked: its head kernel's stream
    /// predecessor has not completed, so nothing behind it may place.
    HwQueueStall {
        /// The stalled hardware queue.
        hw_queue: u32,
        /// The blocked head kernel.
        kernel: u64,
    },
    /// The dispatcher launched a kernel (flow step between the job span and
    /// its per-SM execution spans).
    KernelDispatched {
        /// Owning job.
        job: u64,
        /// Launch uid.
        kernel: u64,
        /// CUDA stream.
        stream: u32,
        /// Grid size in blocks.
        grid_blocks: u32,
    },
    /// A kernel's last block finished on the device.
    KernelCompleted {
        /// Launch uid.
        kernel: u64,
    },
    /// A group of blocks was placed on one SM (one allocation of a wave).
    SmSpanBegin {
        /// Owning kernel uid.
        kernel: u64,
        /// Wave index within the kernel (0-based placement pass).
        wave: u32,
        /// The SM the group landed on.
        sm: u32,
        /// Blocks in the group.
        blocks: u32,
        /// Kernel name, for slice labels (interned; shared with the kernel).
        name: std::sync::Arc<str>,
    },
    /// The matching end of an [`TraceEvent::SmSpanBegin`] group.
    SmSpanEnd {
        /// Owning kernel uid.
        kernel: u64,
        /// Wave index within the kernel.
        wave: u32,
        /// The SM the group ran on.
        sm: u32,
        /// Blocks in the group.
        blocks: u32,
    },
    /// The host folded one notifQ word into the occupancy mirror.
    NotifBatch {
        /// Kernel the word belongs to.
        kernel: u64,
        /// Reporting SM.
        sm: u32,
        /// `true` for placement words, `false` for completion words.
        placement: bool,
        /// Blocks aggregated into this word.
        blocks: u32,
    },
    /// The almost-finished doorbell fired: the client switches from
    /// interrupt wait to polling (§4.2).
    DoorbellWake {
        /// The nearly-done job.
        job: u64,
    },
    /// A cluster router sent a request to a node (the cluster tier's
    /// analogue of [`TraceEvent::SchedDecision`]).
    RouteDecision {
        /// Public (cluster-level) model id of the routed request.
        model: u32,
        /// The node the request was sent to.
        node: u32,
        /// Balancing policy name.
        policy: &'static str,
        /// Requests outstanding on the chosen node at decision time.
        outstanding: u64,
        /// Replica-set size the policy chose from.
        candidates: u32,
    },
    /// A kernel execution faulted on the device (injected); the dispatcher
    /// will retry it with backoff until the retry budget runs out.
    KernelFault {
        /// Owning job.
        job: u64,
        /// Faulted launch uid.
        kernel: u64,
        /// 1-based attempt number that faulted.
        attempt: u32,
    },
    /// A faulted kernel's retry was scheduled: the job parks for the
    /// backoff interval starting at this event's timestamp.
    RetryBackoff {
        /// Owning job.
        job: u64,
        /// Faulted launch uid.
        kernel: u64,
        /// 1-based attempt number that faulted.
        attempt: u32,
        /// Exponential backoff interval before the retry, nanoseconds.
        backoff_ns: u64,
    },
    /// The cluster frontend re-routed a crash-lost request to another
    /// replica (a cross-node failover hop on the request's critical path).
    FailoverHop {
        /// Submitting client.
        client: u32,
        /// Public (cluster-level) model id of the rerouted request.
        model: u32,
        /// 1-based failover attempt (bounded by the crash-retry budget).
        attempt: u32,
    },
    /// A job was cancelled mid-flight (deadline, disconnect, retry budget,
    /// or node crash); its queued ops and occupancy were reclaimed.
    JobCancelled {
        /// Cancelled job id.
        job: u64,
        /// Stable reason label (`FailureReason::as_str`).
        reason: &'static str,
    },
    /// Admission control refused a request because the load signal exceeded
    /// the shed watermark.
    RequestShed {
        /// Submitting client.
        client: u32,
        /// Requested model id.
        model: u32,
    },
    /// A cluster node crashed: its queued and in-flight work was lost.
    NodeCrash {
        /// Crashed node index.
        node: u32,
    },
    /// A crashed cluster node came back and began a cold start.
    NodeRecover {
        /// Recovering node index.
        node: u32,
    },
    /// An autoregressive job began its prefill phase (prompt processing) on
    /// the device. TTFT is measured from the client's `submitted_at` to the
    /// end of the last prefill chunk.
    PrefillStart {
        /// Engine-assigned job id.
        job: u64,
        /// Prompt length in tokens.
        prompt_tokens: u32,
    },
    /// One iteration-level decode step retired: the batch of compatible
    /// decode-phase jobs each produced one token. Recorded per iteration
    /// (not per job) to bound trace volume.
    DecodeStep {
        /// Monotone iteration counter within the engine.
        iter: u64,
        /// Jobs co-batched in this iteration.
        batch: u32,
        /// Tokens produced this iteration (== batch for pure decode).
        tokens: u32,
    },
    /// KV-cache pages moved between the free pool and a job's working set.
    /// The conservation oracle replays these: at every event,
    /// `allocated_total == freed_total + resident`.
    KvAlloc {
        /// Owning job id.
        job: u64,
        /// Pages allocated (`freed == false`) or released (`freed == true`).
        pages: u64,
        /// `true` when pages return to the pool (completion, preemption,
        /// cancellation); `false` for an allocation.
        freed: bool,
        /// Pool-wide resident page count *after* this event.
        resident: u64,
    },
    /// An event-triggered DAG release: a completed op's successors were
    /// activated directly off the GPU completion notification, with no
    /// scheduler invocation (SET-style whole-DAG submission; DESIGN §15).
    DagRelease {
        /// Owning job.
        job: u64,
        /// The released op's token (index into the model's op list).
        token: u64,
        /// Successor ops activated by this release.
        activated: u32,
    },
    /// The dispatcher entered the event-triggered fast path for `job`: it
    /// is the only runnable job and the device is below the occupancy
    /// watermark, so per-kernel SRPT arbitration is bypassed.
    FastPathEnter {
        /// The job now dispatched event-triggered.
        job: u64,
    },
    /// The dispatcher left the fast path and handed `job` back to full
    /// SRPT-with-deficit arbitration.
    FastPathExit {
        /// The job handed back to the scheduler.
        job: u64,
        /// Stable reason label (`"contended"`, `"occupancy"`, `"finished"`,
        /// `"cancelled"`).
        reason: &'static str,
    },
    /// A periodic virtual-time counter sample (also rendered as a Chrome
    /// counter track).
    CounterSample {
        /// Counter name.
        name: &'static str,
        /// Sampled value.
        value: u64,
    },
}

impl TraceEvent {
    /// Stable kind label (summaries, tests).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::JobBegin { .. } => "job-begin",
            TraceEvent::JobEnd { .. } => "job-end",
            TraceEvent::JobJourney { .. } => "job-journey",
            TraceEvent::HostOp { .. } => "host-op",
            TraceEvent::SchedDecision { .. } => "sched-decision",
            TraceEvent::OccupancyHold { .. } => "occupancy-hold",
            TraceEvent::KernelQueued { .. } => "kernel-queued",
            TraceEvent::HwQueueStall { .. } => "hw-queue-stall",
            TraceEvent::KernelDispatched { .. } => "kernel-dispatched",
            TraceEvent::KernelCompleted { .. } => "kernel-completed",
            TraceEvent::SmSpanBegin { .. } => "sm-span-begin",
            TraceEvent::SmSpanEnd { .. } => "sm-span-end",
            TraceEvent::NotifBatch { .. } => "notif-batch",
            TraceEvent::DoorbellWake { .. } => "doorbell-wake",
            TraceEvent::RouteDecision { .. } => "route-decision",
            TraceEvent::KernelFault { .. } => "kernel-fault",
            TraceEvent::RetryBackoff { .. } => "retry-backoff",
            TraceEvent::FailoverHop { .. } => "failover-hop",
            TraceEvent::JobCancelled { .. } => "job-cancelled",
            TraceEvent::RequestShed { .. } => "request-shed",
            TraceEvent::NodeCrash { .. } => "node-crash",
            TraceEvent::NodeRecover { .. } => "node-recover",
            TraceEvent::PrefillStart { .. } => "prefill-start",
            TraceEvent::DecodeStep { .. } => "decode-step",
            TraceEvent::KvAlloc { .. } => "kv-alloc",
            TraceEvent::DagRelease { .. } => "dag-release",
            TraceEvent::FastPathEnter { .. } => "fastpath-enter",
            TraceEvent::FastPathExit { .. } => "fastpath-exit",
            TraceEvent::CounterSample { .. } => "counter-sample",
        }
    }
}
