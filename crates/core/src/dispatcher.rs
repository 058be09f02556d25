//! The Paella dispatcher (§5): a single-core serving loop that ingests
//! requests from client shared-memory rings, runs each job's adaptor under
//! the CUDA-emulation waitlist (a per-job copy of the model's [`KernelDag`]
//! predecessor counts), dispatches kernels per the configured
//! scheduler and occupancy budget, folds device notifications into the
//! occupancy mirror, and returns results through the hybrid wake-up channel.
//!
//! The same component, reconfigured, implements every Paella ablation of
//! Table 3 (Paella-SS, Paella-MS-jbj, Paella-MS-kbk, Paella-SJF, Paella-RR)
//! and serves as the submission engine for the direct-CUDA baselines.

use std::collections::{HashMap, VecDeque};

use paella_channels::{ChannelConfig, KernelUid, NotifKind, Notification};
use paella_compiler::{
    bootstrap_profile, instrumented, measure_uncontended, CompiledModel, DagResources, KernelDag,
    ModelProfile,
};
use paella_gpu::{
    CopyDir, DeviceConfig, GpuOutput, GpuSim, InstrumentationSpec, KernelDesc, KernelLaunch,
    MemcpyOp, MemcpyUid, StreamId,
};
use paella_sim::{EventQueue, SimDuration, SimTime, Xoshiro256pp};
use paella_telemetry::{
    HoldReason, HostOpKind, MetricsRegistry, MetricsSnapshot, TraceEvent, TraceLog, Tracer,
};

use crate::occupancy::OccupancyTracker;
use crate::sched::{JobInfo, Scheduler};
use crate::types::{
    ClientId, FailureReason, InferenceRequest, JobCompletion, JobFailure, JobId, LatencyBreakdown,
    ModelId,
};

/// Dispatch granularity (Table 3's "Dispatch" column).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Granularity {
    /// One kernel at a time, gated by the scheduler and occupancy budget.
    Kernel,
    /// The whole job's op sequence at submission time (job-by-job).
    Job,
}

/// Stream assignment policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamPolicy {
    /// All jobs share one stream (single-stream systems).
    Single,
    /// Every job gets a fresh stream id; ids beyond the hardware queue count
    /// alias queues — the CUDA-MS behaviour.
    PerJobUnbounded,
    /// A pool of up to N real streams, reused so that no two live jobs share
    /// a hardware queue — Paella's virtual-stream replacement (§5.2).
    Pool(u32),
}

/// How results reach the client (Fig. 14's three client protocols).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakeupMode {
    /// Hybrid interrupt-then-poll (Paella's default, §5.3).
    Hybrid,
    /// Client polls shared memory continuously.
    Polling,
    /// Plain Unix-socket notification.
    Socket,
}

/// Dispatcher configuration. Defaults reproduce the full Paella system.
#[derive(Clone, Copy, Debug)]
pub struct DispatcherConfig {
    /// Dispatch granularity.
    pub granularity: Granularity,
    /// The §6 lookahead slack `B`, in blocks.
    pub lookahead_blocks: u64,
    /// Release a job's next op when its predecessor is *fully placed*
    /// (pipelined, requires instrumentation) instead of completed. Only
    /// applied when the predecessor's expected runtime is within
    /// `pipeline_window`, so a dependent kernel is dispatched only when it
    /// can be placed "soon" (§3) rather than parking at a hardware-queue
    /// head.
    pub release_on_placement: bool,
    /// Maximum expected predecessor runtime for pipelined release.
    pub pipeline_window: SimDuration,
    /// Gate kernel dispatch on the occupancy mirror. When `false`, active
    /// kernels dispatch immediately (the -kbk ablation).
    pub hold_for_occupancy: bool,
    /// Instrument kernels with the compiler pass.
    pub instrument: bool,
    /// Stream assignment.
    pub streams: StreamPolicy,
    /// Client wake-up protocol.
    pub wakeup: WakeupMode,
    /// Injected per-decision scheduling delay (Fig. 9's sweep variable).
    pub injected_delay: SimDuration,
    /// CPU cost to ingest one request from the client ring.
    pub ingest_cost: SimDuration,
    /// CPU cost of one scheduling decision.
    pub sched_cost: SimDuration,
    /// CPU cost to process one notification.
    pub notif_cost: SimDuration,
    /// CPU cost to process a completion and post the result.
    pub completion_cost: SimDuration,
    /// Whether host-side costs serialize on one dispatcher core (serving
    /// systems) or per client (direct CUDA submission).
    pub central_cpu: bool,
    /// Refine per-kernel profiles online from observed placement→completion
    /// spans (§6: "these profiles can be further refined online").
    pub online_profiling: bool,
    /// Capacity of the device→host notifQ in slots. The ring does not detect
    /// overruns, so the dispatcher reserves slots at kernel dispatch and
    /// delays dispatches that would exceed the capacity (§5.2 flow control).
    pub notifq_capacity: u64,
    /// Dispatcher threads in central-CPU mode (§4.2: "it can be parallelized
    /// by sharding jobs across threads"). Jobs shard by client id; each
    /// shard gets its own notifQ (§5.2: "a single notifQ for each dispatcher
    /// thread").
    pub dispatcher_cores: u32,
    /// Injected per-kernel fault probability (DESIGN §11): each kernel
    /// completion is independently declared a fault with this probability,
    /// rolled on the dispatcher's own seeded RNG in DES order so same-seed
    /// runs fault identically. `0.0` disables injection.
    pub kernel_fault_rate: f64,
    /// How many times a faulted kernel is re-dispatched before the whole job
    /// fails with [`FailureReason::RetryBudgetExhausted`].
    pub retry_budget: u32,
    /// Base backoff before a faulted kernel's first retry; doubles per
    /// subsequent fault of the same op (exponential backoff).
    pub retry_backoff: SimDuration,
    /// Per-request deadline as a multiple of the model's profiled total
    /// estimate, anchored at `submitted_at`; the job is cancelled and its
    /// resources reclaimed when it passes. `None` disables deadlines.
    pub deadline_factor: Option<f64>,
    /// Lower bound on the deadline budget, so tiny models are not cancelled
    /// on queueing noise.
    pub deadline_floor: SimDuration,
    /// Admission-control watermark: a request arriving while
    /// `load_signal().outstanding()` is at or above this is shed instead of
    /// queued. `None` disables shedding.
    pub shed_watermark: Option<u64>,
    /// Whole-DAG submission with event-triggered release (DESIGN §15): when
    /// exactly one job is in flight and the device sits below
    /// `fastpath_occupancy_pct`, its successors activate directly off GPU
    /// completion notifications via the model's pre-validated [`KernelDag`]
    /// with no scheduler invocation. Falls back to full
    /// SRPT-with-deficit arbitration the moment the device is contended.
    /// Off by default: the fast path skips per-kernel deficit charges, so
    /// enabling it is an explicit serving-policy choice.
    pub dag_dispatch: bool,
    /// Occupancy watermark (percent of device block capacity, from the
    /// software mirror) above which the DAG fast path hands the job back to
    /// the arbitrating scheduler even if it is alone.
    pub fastpath_occupancy_pct: u64,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        DispatcherConfig {
            granularity: Granularity::Kernel,
            // One device fill of slack (T4: 40 SMs x ~8 blocks): enough
            // queued work to ride out notification latency without deep
            // hardware queues. The Criterion lookahead ablation sweeps this.
            lookahead_blocks: 320,
            release_on_placement: true,
            // Covers typical inference kernels (tens of µs) so intra-job
            // boundaries are gap-hidden; long synthetic kernels (hundreds
            // of µs) stay completion-released to avoid parking dep-blocked
            // kernels at hardware-queue heads.
            pipeline_window: SimDuration::from_micros(100),
            hold_for_occupancy: true,
            instrument: true,
            // Virtual streams bound to real streams at launch (§5.2): the
            // pool is large because Paella's occupancy gating ensures queued
            // kernels place promptly, making hardware-queue sharing benign.
            streams: StreamPolicy::Pool(512),
            wakeup: WakeupMode::Hybrid,
            injected_delay: SimDuration::ZERO,
            ingest_cost: SimDuration::from_nanos(800),
            sched_cost: SimDuration::from_nanos(300),
            notif_cost: SimDuration::from_nanos(120),
            completion_cost: SimDuration::from_nanos(700),
            central_cpu: true,
            online_profiling: true,
            notifq_capacity: 65_536,
            dispatcher_cores: 1,
            kernel_fault_rate: 0.0,
            retry_budget: 3,
            retry_backoff: SimDuration::from_micros(20),
            deadline_factor: None,
            deadline_floor: SimDuration::from_micros(500),
            shed_watermark: None,
            dag_dispatch: false,
            fastpath_occupancy_pct: 75,
        }
    }
}

impl DispatcherConfig {
    /// The full Paella system (default scheduler supplied separately).
    pub fn paella() -> Self {
        Self::default()
    }

    /// Paella-SS: Paella's frontend, single stream, job-by-job FIFO.
    pub fn paella_ss() -> Self {
        DispatcherConfig {
            granularity: Granularity::Job,
            streams: StreamPolicy::Single,
            release_on_placement: false,
            hold_for_occupancy: false,
            instrument: true,
            ..Self::default()
        }
    }

    /// Paella-MS-jbj: job-by-job to a unique stream; the GPU schedules.
    pub fn paella_ms_jbj() -> Self {
        DispatcherConfig {
            granularity: Granularity::Job,
            streams: StreamPolicy::PerJobUnbounded,
            release_on_placement: false,
            hold_for_occupancy: false,
            instrument: true,
            ..Self::default()
        }
    }

    /// Paella-MS-kbk: kernel-by-kernel, dispatched as soon as active.
    pub fn paella_ms_kbk() -> Self {
        DispatcherConfig {
            granularity: Granularity::Kernel,
            streams: StreamPolicy::PerJobUnbounded,
            release_on_placement: false,
            hold_for_occupancy: false,
            instrument: true,
            ..Self::default()
        }
    }

    /// Direct CUDA submission (no serving system): per-client CPUs, no
    /// ingest path, job-by-job.
    pub fn direct(streams: StreamPolicy) -> Self {
        DispatcherConfig {
            granularity: Granularity::Job,
            streams,
            release_on_placement: false,
            hold_for_occupancy: false,
            instrument: false,
            central_cpu: false,
            ingest_cost: SimDuration::ZERO,
            ..Self::default()
        }
    }
}

/// A model registered with the dispatcher.
struct RegisteredModel {
    model: CompiledModel,
    profile: ModelProfile,
    /// Uncontended device execution time (for breakdown reporting).
    uncontended: SimDuration,
    /// Per-kernel-location `Σ_jobs max(0, C̄_i − done_i)` over this model's
    /// in-flight jobs — the expected executions still owed to the device.
    /// Maintained at ingest / kernel dispatch / job retire so the
    /// [`LoadSignal`](crate::types::LoadSignal) remaining-work aggregate
    /// updates in O(1) per event instead of rescanning every job per poll.
    left: Vec<f64>,
    /// The pre-validated kernel DAG (dense successor lists + predecessor
    /// counts, per-op streams and resources), built once here: the only
    /// dependency structure at runtime. Each kernel-granularity job copies
    /// its counts at ingest.
    dag: KernelDag,
    /// The distinct vstreams of the DAG, sorted: slot `i` of a
    /// kernel-granularity job's real streams backs `vstreams[i]`.
    vstreams: Vec<u32>,
    /// Kernel descriptors indexed by kernel location, for O(1) lookup on
    /// the dispatch hot path (`model.kernels().nth(loc)` is O(K)).
    kernel_descs: Vec<KernelDesc>,
}

/// One in-flight job. Everything per-model (op kinds, streams, edges) is
/// read from the registered model's [`KernelDag`]; a token is an op index.
struct Job {
    request: InferenceRequest,
    /// Tokens currently active (released predecessors) and not dispatched.
    /// Kernel granularity only: job granularity dispatches every op at
    /// ingest and does no activation bookkeeping.
    active_undispatched: VecDeque<u64>,
    /// Ops dispatched but not completed.
    outstanding: usize,
    /// Ops completed.
    completed: usize,
    /// Per-kernel-location dispatch counts (for remaining-time estimates).
    done_counts: Vec<u32>,
    /// Real CUDA streams backing this job's virtual streams, in vstream
    /// order (index i backs the model's i-th distinct vstream; one stream in
    /// job granularity). Empty until a pool stream is available.
    streams: Vec<StreamId>,
    total_estimate: SimDuration,
    almost_finished_at: Option<SimTime>,
    ingested_at: SimTime,
    /// Whether the last op has been dispatched.
    last_dispatched: bool,
    /// Accumulated framework CPU time attributed to this job.
    framework: SimDuration,
    /// Tokens already released: a dense bitset, one bit per op. Makes
    /// release idempotent (placement and completion may both release).
    released_ops: ReleasedSet,
    /// Fig. 7's waitlist: per-op unreleased-predecessor counts over the
    /// model's [`KernelDag`] (kernel granularity only; empty in job mode).
    /// An op activates exactly when its count hits zero.
    preds_left: Vec<u32>,
    /// Dispatched, not yet completed kernels and memcpys, ascending by uid,
    /// so cancellation reclaims without scanning the global uid maps.
    inflight_kernels: Vec<KernelUid>,
    inflight_memcpys: Vec<MemcpyUid>,
    /// Fault count per op token, for retry budgeting and backoff doubling.
    fault_attempts: Vec<(u64, u32)>,
    /// Deadline instant, when a deadline factor is configured (SLO ledger).
    deadline_at: Option<SimTime>,
    /// -- journey accumulators (DESIGN §12): raw per-cause wait time, -----
    /// -- clamped into the queuing remainder at completion ----------------
    /// Nanoseconds parked in retry backoff after injected kernel faults.
    backoff_ns: u64,
    /// When the job's frontier became dependency-blocked (open interval).
    dep_since: Option<SimTime>,
    /// Accumulated dependency-blocked nanoseconds.
    dep_wait_ns: u64,
    /// When the job was first held by flow control (open interval).
    occ_since: Option<SimTime>,
    /// Accumulated flow-control hold nanoseconds.
    occ_wait_ns: u64,
}

impl Job {
    /// Whether real streams have been assigned.
    fn has_streams(&self) -> bool {
        !self.streams.is_empty()
    }

    fn next_active(&self) -> Option<u64> {
        self.active_undispatched.front().copied()
    }

    /// The front active op, if it is a kernel: `(token, kernel location)`.
    /// A job is ready for the scheduler exactly when this is `Some`; active
    /// memcpys are not scheduled, they auto-dispatch.
    fn front_kernel(&self, dag: &KernelDag) -> Option<(u64, usize)> {
        let token = self.next_active()?;
        match dag.node(token as usize).resources {
            DagResources::Kernel { loc, .. } => Some((token, loc as usize)),
            DagResources::H2D(_) | DagResources::D2H(_) => None,
        }
    }

    fn released(&self, token: u64) -> bool {
        self.released_ops.contains(token)
    }
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// A request finished crossing the client→dispatcher ring. Carries the
    /// work estimate charged to `queued_work` at submit time so the exact
    /// amount is released at ingest even if the profile refines in between.
    Ingest(InferenceRequest, SimDuration),
    /// The job's deadline passed; cancel it if still in flight. Stale
    /// deadlines (job already finished) are harmless: job ids never reuse.
    Deadline(JobId),
    /// Re-dispatch op `token` of a job whose kernel faulted, after backoff.
    Retry(JobId, u64),
}

/// The dispatcher plus the device it drives.
pub struct Dispatcher {
    cfg: DispatcherConfig,
    channels: ChannelConfig,
    gpu: GpuSim,
    scheduler: Box<dyn Scheduler>,
    models: Vec<RegisteredModel>,
    jobs: HashMap<JobId, Job>,
    events: EventQueue<Ev>,
    /// Jobs waiting for a free pool stream.
    stream_waiters: VecDeque<JobId>,
    free_streams: Vec<StreamId>,
    next_stream: u32,
    occupancy: OccupancyTracker,
    kernel_to_job: HashMap<KernelUid, (JobId, u64)>,
    memcpy_to_job: HashMap<MemcpyUid, (JobId, u64)>,
    next_kernel_uid: KernelUid,
    next_memcpy_uid: u64,
    next_job: u64,
    /// Single-core CPU availability (central mode).
    cpu_free_at: Vec<SimTime>,
    /// Per-client CPU availability (direct mode).
    client_cpu_free_at: HashMap<ClientId, SimTime>,
    completions: Vec<JobCompletion>,
    gpu_out: Vec<GpuOutput>,
    /// Scratch buffer for one notification run (reused across steps).
    notif_run: Vec<Notification>,
    /// Scratch buffer for the ops one release activates (reused).
    activated: Vec<u32>,
    /// Jobs in flight per client (for deficit resets on idle).
    client_inflight: HashMap<ClientId, usize>,
    /// First-placement time per in-flight kernel (online profiling).
    kernel_started: HashMap<KernelUid, SimTime>,
    /// notifQ slots reserved by in-flight kernels minus consumed
    /// notifications (flow control).
    notifq_outstanding: u64,
    /// Reserved-but-unconsumed slots per kernel (released at completion).
    notifq_reserved: HashMap<KernelUid, u64>,
    /// Total dispatcher CPU busy time (for utilization reports).
    cpu_busy: SimDuration,
    /// Requests submitted but not yet ingested off the ring, with the sum of
    /// their profiled total estimates (the queued half of [`LoadSignal`]).
    queued_ingest: u64,
    queued_work: SimDuration,
    /// The in-flight half of [`LoadSignal`]: `Σ_jobs Σ_i max(0, C̄_i −
    /// done_i) · T̄_i` in microseconds, maintained incrementally alongside
    /// each model's `left` vector (invariant: `inflight_work_us = Σ_models
    /// Σ_i left_i · T̄_i`). Updated at ingest (+fresh estimate), kernel
    /// dispatch (−one execution), online profile refinement (±left·ΔT̄),
    /// and job retire (−residual), so `load_signal()` is O(1) instead of
    /// O(in-flight jobs) per router poll.
    inflight_work_us: f64,
    now: SimTime,
    /// Bernoulli source for injected kernel faults, independent of the GPU's
    /// own RNG so enabling faults never perturbs device timing draws.
    fault_rng: Xoshiro256pp,
    /// Terminal failures (shed, deadline, disconnect, crash loss) awaiting
    /// [`drain_failures`](Self::drain_failures).
    failures: Vec<JobFailure>,
    /// Clients that disconnected: their in-flight jobs were cancelled and
    /// later submissions are refused.
    disconnected: std::collections::HashSet<ClientId>,
    /// Structured telemetry sink for host-side events (no-op by default).
    tracer: Tracer,
    /// Metrics registry, allocated only when telemetry is enabled.
    metrics: Option<Box<MetricsRegistry>>,
    /// Next virtual-time series sample instant.
    next_sample: SimTime,
    /// `(core, start)` of the most recent CPU charge (telemetry span data).
    last_charge: (u32, SimTime),
    /// Rendered flight-recorder dumps from terminal failures, awaiting
    /// [`take_postmortems`](Self::take_postmortems).
    postmortems: Vec<String>,
    /// The job currently served by the event-triggered DAG fast path, if
    /// any (`dag_dispatch` only). `None` whenever the device is contended.
    fast_job: Option<JobId>,
}

/// Flight-recorder ring depth: the last N traced events kept for post-mortem
/// dumps on terminal failures.
const FLIGHT_CAPACITY: usize = 64;

/// Virtual-time spacing of periodic metric samples.
const SAMPLE_INTERVAL: SimDuration = SimDuration::from_micros(50);

impl Dispatcher {
    /// Creates a dispatcher over a fresh device.
    pub fn new(
        device: DeviceConfig,
        channels: ChannelConfig,
        scheduler: Box<dyn Scheduler>,
        cfg: DispatcherConfig,
        seed: u64,
    ) -> Self {
        let occupancy = OccupancyTracker::new(device.num_sms, device.sm_limits);
        let free_streams = match cfg.streams {
            StreamPolicy::Pool(n) => (1..=n).map(StreamId).collect(),
            _ => Vec::new(),
        };
        Dispatcher {
            cfg,
            channels,
            gpu: GpuSim::new(device, seed),
            scheduler,
            models: Vec::new(),
            jobs: HashMap::new(),
            events: EventQueue::new(),
            stream_waiters: VecDeque::new(),
            free_streams,
            next_stream: 1,
            occupancy,
            kernel_to_job: HashMap::new(),
            memcpy_to_job: HashMap::new(),
            next_kernel_uid: 1,
            next_memcpy_uid: 1,
            next_job: 1,
            cpu_free_at: vec![SimTime::ZERO; cfg.dispatcher_cores.max(1) as usize],
            client_cpu_free_at: HashMap::new(),
            completions: Vec::new(),
            gpu_out: Vec::new(),
            notif_run: Vec::new(),
            activated: Vec::new(),
            client_inflight: HashMap::new(),
            kernel_started: HashMap::new(),
            notifq_outstanding: 0,
            notifq_reserved: HashMap::new(),
            cpu_busy: SimDuration::ZERO,
            queued_ingest: 0,
            queued_work: SimDuration::ZERO,
            inflight_work_us: 0.0,
            now: SimTime::ZERO,
            fault_rng: Xoshiro256pp::seed_from_u64(seed ^ 0xFA_0175),
            failures: Vec::new(),
            disconnected: std::collections::HashSet::new(),
            tracer: Tracer::disabled(),
            metrics: None,
            next_sample: SimTime::ZERO,
            last_charge: (0, SimTime::ZERO),
            postmortems: Vec::new(),
            fast_job: None,
        }
    }

    /// Turns on structured telemetry: the dispatcher and its device record
    /// typed events, and a metrics registry starts counting. Costs nothing
    /// until called — the default sinks are no-ops.
    pub fn enable_telemetry(&mut self) {
        self.tracer = Tracer::enabled();
        self.tracer.set_flight_capacity(FLIGHT_CAPACITY);
        self.gpu.set_tracer(Tracer::enabled());
        self.metrics = Some(Box::new(MetricsRegistry::new()));
    }

    /// Takes the flight-recorder dumps rendered on terminal failures so far
    /// (empty unless telemetry is enabled and a terminal failure occurred).
    pub fn take_postmortems(&mut self) -> Vec<String> {
        std::mem::take(&mut self.postmortems)
    }

    /// Renders the flight-recorder ring plus a fixed-order snapshot of
    /// queue/occupancy state into a deterministic post-mortem dump.
    fn record_postmortem(&mut self, trigger: &str, at: SimTime) {
        if !self.tracer.is_enabled() {
            return;
        }
        let state = [
            ("jobs_inflight", self.jobs.len() as u64),
            ("queued_ingest", self.queued_ingest),
            ("notifq_outstanding", self.notifq_outstanding),
            ("stream_waiters", self.stream_waiters.len() as u64),
            ("free_streams", self.free_streams.len() as u64),
        ];
        let events = self.tracer.flight_snapshot();
        self.postmortems.push(paella_telemetry::flight::render(
            trigger, at, &state, &events,
        ));
    }

    /// Whether telemetry is currently recording.
    pub fn telemetry_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Takes the merged host + device trace recorded so far (empty when
    /// telemetry is off). Merge order is fixed — dispatcher events sort
    /// before device events at equal timestamps — so output is
    /// deterministic.
    pub fn take_trace_log(&mut self) -> TraceLog {
        TraceLog::merged(vec![self.tracer.take(), self.gpu.take_trace_log()])
    }

    /// A frozen copy of the metrics registry, if telemetry is enabled.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.metrics.as_ref().map(|m| m.snapshot())
    }

    /// Registers a model, applying the instrumentation pass if configured,
    /// and bootstrapping its profile ("a series of simple profiling runs").
    ///
    /// # Panics
    ///
    /// Panics if the model's multi-stream schedule is malformed (shape
    /// mismatch, out-of-range dependency) or contains a stream/dependency
    /// wait cycle: every job of such a model would wedge at ingest, so the
    /// bad artifact is rejected once, here, where the failure names the
    /// model.
    pub fn register_model(&mut self, model: &CompiledModel) -> ModelId {
        let compiled = if self.cfg.instrument {
            instrumented(model, InstrumentationSpec::default())
        } else {
            model.clone()
        };
        // Dense successor lists + predecessor counts, shape/range/cycle
        // checked once here so every later per-job use (pred-count copies at
        // ingest, successor walks at release) can trust it unconditionally.
        let dag = match KernelDag::build(&compiled) {
            Ok(d) => d,
            Err(e) => panic!("model {:?}: unschedulable stream plan: {e}", compiled.name),
        };
        let mut vstreams: Vec<u32> = (0..dag.len()).map(|t| dag.node(t).vstream).collect();
        vstreams.sort_unstable();
        vstreams.dedup();
        let kernel_descs: Vec<KernelDesc> = compiled.kernels().cloned().collect();
        let profile = bootstrap_profile(model);
        let uncontended = measure_uncontended(&compiled, self.gpu.config());
        let id = ModelId(self.models.len() as u32);
        let left = vec![0.0; profile.kernels.len()];
        self.models.push(RegisteredModel {
            model: compiled,
            profile,
            uncontended,
            left,
            dag,
            vstreams,
            kernel_descs,
        });
        id
    }

    /// The scheduler in use (diagnostics).
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// Adjusts the injected per-kernel fault probability at runtime (the
    /// cluster tier applies a [`FaultPlan`](paella_sim::FaultPlan)'s rate to
    /// nodes built before the plan existed).
    pub fn set_kernel_fault_rate(&mut self, rate: f64) {
        self.cfg.kernel_fault_rate = rate;
    }

    /// Total dispatcher CPU busy time so far.
    pub fn cpu_busy(&self) -> SimDuration {
        self.cpu_busy
    }

    /// The current profiled total-time estimate for a model (bootstrap plus
    /// any online refinement).
    ///
    /// # Panics
    ///
    /// Panics if `model` is unknown.
    pub fn profile_estimate(&self, model: ModelId) -> SimDuration {
        self.models[model.0 as usize].profile.total_estimate()
    }

    /// Number of jobs in flight.
    pub fn inflight(&self) -> usize {
        self.jobs.len()
    }

    /// The dispatcher's ground-truth load: queued + in-flight request counts
    /// and the SRPT estimated-remaining-time summed over all of them. This is
    /// the same per-job `profile.remaining(done_counts)` quantity the
    /// scheduler ranks on, so a cluster router reading it routes on exactly
    /// what the node's scheduler will see.
    /// O(1): the remaining-work sum is maintained incrementally (see
    /// [`Self::inflight_work_us`]) rather than recomputed by scanning every
    /// in-flight job — this sits on the cluster router's per-poll path.
    pub fn load_signal(&self) -> crate::types::LoadSignal {
        crate::types::LoadSignal {
            queued: self.queued_ingest,
            inflight: self.jobs.len() as u64,
            remaining_work: self.queued_work
                + SimDuration::from_micros_f64(self.inflight_work_us.max(0.0)),
            // Fixed-trace serving has no KV budget; the LLM tier reports one.
            kv_pages_used: 0,
            kv_pages_total: 0,
        }
    }

    /// From-scratch recomputation of the in-flight remaining-work sum, in
    /// microseconds: the O(in-flight jobs) scan `load_signal` used to do.
    /// Kept as the verification oracle for the incremental aggregate (the
    /// two are equal up to float-summation-order rounding). Summed in
    /// job-id order: float addition doesn't commute exactly, so summing in
    /// `jobs`' seeded-hash order would make the oracle itself vary across
    /// processes (R6).
    #[doc(hidden)]
    pub fn inflight_work_scratch_us(&self) -> f64 {
        let mut ids: Vec<JobId> = self.jobs.keys().copied().collect();
        ids.sort_unstable();
        ids.iter()
            .map(|id| {
                let job = &self.jobs[id];
                let idx = job.request.model.0 as usize;
                self.models[idx]
                    .profile
                    .remaining(&job.done_counts)
                    .as_micros_f64()
            })
            .sum()
    }

    /// The incrementally-maintained in-flight remaining-work sum, in
    /// microseconds (verification hook for tests).
    #[doc(hidden)]
    pub fn inflight_work_incremental_us(&self) -> f64 {
        self.inflight_work_us
    }

    /// Kernels the occupancy mirror still tracks (conservation test hook).
    #[doc(hidden)]
    pub fn occupancy_tracked_kernels(&self) -> usize {
        self.occupancy.tracked_kernels()
    }

    /// Blocks the occupancy mirror counts resident (conservation test hook).
    #[doc(hidden)]
    pub fn occupancy_resident_blocks(&self) -> u64 {
        self.occupancy.resident_blocks()
    }

    // -- incremental LoadSignal maintenance ---------------------------------

    /// Credits a freshly ingested job of `model_idx`: every kernel location
    /// still owes its full expected executions.
    fn load_add_job(&mut self, model_idx: usize) {
        let rm = &mut self.models[model_idx];
        for loc in 0..rm.profile.kernels.len() {
            let kp = &rm.profile.kernels[loc];
            let owed = kp.count.mean().max(0.0);
            let t = kp.time_us.mean();
            rm.left[loc] += owed;
            self.inflight_work_us += owed * t;
        }
    }

    /// Debits one dispatched execution of kernel `loc`: `done` is the
    /// pre-dispatch count, so the clamped expected-executions delta is
    /// `max(0, C̄−done) − max(0, C̄−done−1)`.
    fn load_on_kernel_dispatch(&mut self, model_idx: usize, loc: usize, done: u32) {
        let rm = &mut self.models[model_idx];
        let kp = &rm.profile.kernels[loc];
        let cbar = kp.count.mean();
        let d = (cbar - f64::from(done)).max(0.0) - (cbar - f64::from(done + 1)).max(0.0);
        let t = kp.time_us.mean();
        rm.left[loc] -= d;
        self.inflight_work_us -= d * t;
    }

    /// Debits a retired job's residual (usually zero: every kernel has
    /// dispatched by completion) and, once the dispatcher is fully idle,
    /// snaps the aggregate back to exactly zero so float rounding from one
    /// burst can never drift into the next.
    fn load_remove_job(&mut self, model_idx: usize, done_counts: &[u32]) {
        let rm = &mut self.models[model_idx];
        for (loc, &done) in done_counts.iter().enumerate() {
            let kp = &rm.profile.kernels[loc];
            let d = (kp.count.mean() - f64::from(done)).max(0.0);
            let t = kp.time_us.mean();
            rm.left[loc] -= d;
            self.inflight_work_us -= d * t;
        }
        if self.jobs.is_empty() {
            self.inflight_work_us = 0.0;
            for rm in &mut self.models {
                rm.left.fill(0.0);
            }
        }
    }

    /// Reprices `left[loc]` executions after an online profile refinement
    /// moved kernel `loc`'s mean time from `old_us` to its current value.
    fn load_on_profile_refined(&mut self, model_idx: usize, loc: usize, old_us: f64) {
        let rm = &self.models[model_idx];
        let new_us = rm.profile.kernels[loc].time_us.mean();
        self.inflight_work_us += rm.left[loc] * (new_us - old_us);
    }

    /// Submits an inference request (the client's `paella.predict`). The
    /// request crosses the shared-memory ring and is ingested when the
    /// dispatcher polls it.
    pub fn submit(&mut self, req: InferenceRequest) {
        if self.disconnected.contains(&req.client) {
            self.failures.push(JobFailure {
                request: req,
                reason: FailureReason::Disconnected,
                at: req.submitted_at,
            });
            return;
        }
        if let Some(w) = self.cfg.shed_watermark {
            if self.load_signal().outstanding() >= w {
                self.tracer
                    .record_with(req.submitted_at, || TraceEvent::RequestShed {
                        client: req.client.0,
                        model: req.model.0,
                    });
                if let Some(m) = self.metrics.as_mut() {
                    m.inc("requests_shed", 1);
                    m.slo_fail(req.client.0, FailureReason::Shed.as_str());
                }
                self.failures.push(JobFailure {
                    request: req,
                    reason: FailureReason::Shed,
                    at: req.submitted_at,
                });
                return;
            }
        }
        let arrive = req
            .submitted_at
            .saturating_add(self.channel_submit_latency())
            .max(self.events.now());
        let est = self
            .models
            .get(req.model.0 as usize)
            .map_or(SimDuration::ZERO, |m| m.profile.total_estimate());
        self.queued_ingest += 1;
        self.queued_work += est;
        self.events.schedule_at(arrive, Ev::Ingest(req, est));
    }

    fn channel_submit_latency(&self) -> SimDuration {
        if self.cfg.central_cpu {
            self.channels.shm.one_way()
        } else {
            SimDuration::ZERO // direct submission: no serving channel
        }
    }

    /// Earliest pending work (GPU or dispatcher).
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        let tg = self.gpu.next_time();
        let te = self.events.peek_time();
        match (tg, te) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Processes all work with timestamp ≤ `t`.
    pub fn advance_until(&mut self, t: SimTime) {
        loop {
            let tg = self.gpu.next_time();
            let te = self.events.peek_time();
            let next = match (tg, te) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            if next > t {
                break;
            }
            self.now = next.max(self.now);
            self.maybe_sample();
            if tg.is_some_and(|a| te.is_none_or(|b| a <= b)) {
                let mut buf = std::mem::take(&mut self.gpu_out);
                self.gpu.advance_until(next, &mut buf);
                self.handle_gpu_outputs(&mut buf);
                self.gpu_out = buf;
            } else {
                // invariant: this branch is taken only when next_event_time
                // peeked a host event, and nothing pops between peek and here.
                let (at, ev) = self.events.pop().expect("peeked event");
                self.now = self.now.max(at);
                match ev {
                    Ev::Ingest(req, est) => self.ingest(at, req, est),
                    Ev::Deadline(id) => self.cancel_job(id, at, FailureReason::DeadlineExceeded),
                    Ev::Retry(id, token) => self.retry_kernel(id, token, at),
                }
            }
            self.try_dispatch();
        }
        self.now = self.now.max(t);
    }

    /// Emits periodic virtual-time metric samples (and matching counter
    /// trace events) on a fixed grid, so series are seed-stable.
    fn maybe_sample(&mut self) {
        if self.metrics.is_none() {
            return;
        }
        let capacity = u64::from(self.gpu.config().num_sms)
            * u64::from(self.gpu.config().sm_limits.max_blocks);
        while self.next_sample <= self.now {
            let at = self.next_sample;
            self.next_sample = at + SAMPLE_INTERVAL;
            // The fast-path job is deregistered from the scheduler but still
            // runnable; count it so the ready series stays honest.
            let mut ready = self.scheduler.ready_len() as u64;
            if let Some(id) = self.fast_job {
                if self.jobs.get(&id).is_some_and(|j| {
                    j.front_kernel(&self.models[j.request.model.0 as usize].dag)
                        .is_some()
                }) {
                    ready += 1;
                }
            }
            let inflight = self.jobs.len() as u64;
            let waiters = self.stream_waiters.len() as u64;
            let backlog = self.notifq_outstanding;
            let resident = self.gpu.resident_blocks();
            let occupancy_pct = resident * 100 / capacity.max(1);
            let samples: [(&'static str, u64); 6] = [
                ("ready_jobs", ready),
                ("inflight_jobs", inflight),
                ("stream_waiters", waiters),
                ("notifq_backlog", backlog),
                ("resident_blocks", resident),
                ("occupancy_pct", occupancy_pct),
            ];
            // invariant: the is_none() guard at function entry returned, and
            // nothing in this loop clears the registry.
            let m = self.metrics.as_mut().expect("checked above");
            for (name, value) in samples {
                m.sample(name, at, value);
            }
            for (name, value) in samples {
                self.tracer
                    .record_with(at, || TraceEvent::CounterSample { name, value });
            }
        }
    }

    /// Runs until fully idle (drains all in-flight work).
    pub fn run_to_idle(&mut self) {
        while let Some(t) = self.next_event_time() {
            self.advance_until(t);
        }
    }

    /// Takes all completions recorded so far.
    pub fn drain_completions(&mut self) -> Vec<JobCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Takes all terminal failures recorded so far.
    pub fn drain_failures(&mut self) -> Vec<JobFailure> {
        std::mem::take(&mut self.failures)
    }

    // -- CPU accounting -----------------------------------------------------

    /// Charges `cost` of CPU work that can start no earlier than `ready`;
    /// returns the completion instant of that work.
    fn charge_cpu(&mut self, client: ClientId, ready: SimTime, cost: SimDuration) -> SimTime {
        let (core, free) = if self.cfg.central_cpu {
            // Central mode: jobs shard across dispatcher cores by client.
            let shard = client.0 as usize % self.cpu_free_at.len();
            (shard as u32, &mut self.cpu_free_at[shard])
        } else {
            (
                client.0,
                self.client_cpu_free_at
                    .entry(client)
                    .or_insert(SimTime::ZERO),
            )
        };
        let start = ready.max(*free);
        let done = start + cost;
        *free = done;
        self.cpu_busy += cost;
        self.last_charge = (core, start);
        done
    }

    /// Like [`charge_cpu`](Self::charge_cpu), also recording the span as a
    /// telemetry [`HostOp`](TraceEvent::HostOp) on the charged core's track.
    fn charge_cpu_traced(
        &mut self,
        client: ClientId,
        ready: SimTime,
        cost: SimDuration,
        kind: HostOpKind,
    ) -> SimTime {
        let done = self.charge_cpu(client, ready, cost);
        let (core, start) = self.last_charge;
        self.tracer
            .record_with(done, || TraceEvent::HostOp { kind, core, start });
        done
    }

    // -- ingest & job construction ------------------------------------------

    fn ingest(&mut self, at: SimTime, req: InferenceRequest, charged: SimDuration) {
        self.queued_ingest = self.queued_ingest.saturating_sub(1);
        self.queued_work = self.queued_work.saturating_sub(charged);
        // A request queued on the ring when its client disconnected fails
        // here, without ever becoming a job.
        if self.disconnected.contains(&req.client) {
            if let Some(m) = self.metrics.as_mut() {
                m.slo_fail(req.client.0, FailureReason::Disconnected.as_str());
            }
            self.failures.push(JobFailure {
                request: req,
                reason: FailureReason::Disconnected,
                at,
            });
            return;
        }
        let t_ingested =
            self.charge_cpu_traced(req.client, at, self.cfg.ingest_cost, HostOpKind::Ingest);
        *self.client_inflight.entry(req.client).or_insert(0) += 1;
        let model_idx = req.model.0 as usize;
        assert!(
            model_idx < self.models.len(),
            "unknown model {:?}",
            req.model
        );
        let id = JobId(self.next_job);
        self.next_job += 1;
        if self.tracer.is_enabled() {
            let model = self.models[model_idx].model.name.clone();
            let (job, client, submitted_at) = (id.0, req.client.0, req.submitted_at);
            self.tracer
                .record_with(t_ingested, || TraceEvent::JobBegin {
                    job,
                    client,
                    model,
                    submitted_at,
                });
        }
        if let Some(m) = self.metrics.as_mut() {
            m.inc("jobs_ingested", 1);
        }

        // The adaptor's run() issues every CUDA call up front (the coroutine
        // yields at the final sync), so the job's waitlist starts as a copy
        // of the model's predecessor counts with its roots active. Models
        // with a multi-stream schedule get per-op virtual streams and
        // cudaStreamWaitEvent-style joins. Multi-stream schedules need the
        // kernel-granularity dispatcher to realize cross-stream joins (there
        // is no device-side event in job-by-job submission), so job-mode
        // configs run every model sequentially on one stream and track no
        // activations.
        let rm = &self.models[model_idx];
        let (preds_left, active_undispatched) = match self.cfg.granularity {
            Granularity::Kernel => (
                rm.dag.pred_counts().to_vec(),
                rm.dag.roots().map(|t| t as u64).collect(),
            ),
            Granularity::Job => (Vec::new(), VecDeque::new()),
        };
        let kernel_count = rm.kernel_descs.len();
        let total_estimate = rm.profile.total_estimate();
        let job = Job {
            request: req,
            active_undispatched,
            outstanding: 0,
            completed: 0,
            done_counts: vec![0; kernel_count],
            streams: Vec::new(),
            total_estimate,
            almost_finished_at: None,
            ingested_at: t_ingested,
            last_dispatched: false,
            framework: self.cfg.ingest_cost,
            released_ops: ReleasedSet::with_capacity(rm.dag.len()),
            preds_left,
            inflight_kernels: Vec::new(),
            inflight_memcpys: Vec::new(),
            fault_attempts: Vec::new(),
            deadline_at: None,
            backoff_ns: 0,
            dep_since: None,
            dep_wait_ns: 0,
            occ_since: None,
            occ_wait_ns: 0,
        };
        self.jobs.insert(id, job);
        self.load_add_job(model_idx);
        self.assign_stream(id);
        if let Some(f) = self.cfg.deadline_factor {
            let budget = total_estimate.mul_f64(f).max(self.cfg.deadline_floor);
            let deadline = req.submitted_at.saturating_add(budget);
            if let Some(j) = self.jobs.get_mut(&id) {
                j.deadline_at = Some(deadline);
            }
            self.events
                .schedule_at(deadline.max(self.events.now()), Ev::Deadline(id));
        }

        match self.cfg.granularity {
            Granularity::Job => self.dispatch_whole_job(id, t_ingested),
            Granularity::Kernel => {
                self.dispatch_auto_ops(id, t_ingested);
                self.update_readiness(id);
            }
        }
    }

    /// How many real streams a job of `model_idx` needs: one per distinct
    /// vstream in kernel granularity, one in job granularity.
    fn stream_slots(&self, model_idx: usize) -> usize {
        match self.cfg.granularity {
            Granularity::Kernel => self.models[model_idx].vstreams.len().max(1),
            Granularity::Job => 1,
        }
    }

    /// The real stream backing op `token` of `j`.
    fn real_stream(&self, j: &Job, token: u64) -> StreamId {
        match self.cfg.granularity {
            Granularity::Kernel => {
                let m = &self.models[j.request.model.0 as usize];
                let vs = m.dag.node(token as usize).vstream;
                // invariant: `vstreams` is the sorted dedup of this DAG's
                // node vstreams, built at register_model.
                let idx = m.vstreams.binary_search(&vs).expect("vstream registered");
                j.streams[idx]
            }
            Granularity::Job => j.streams[0],
        }
    }

    fn assign_stream(&mut self, id: JobId) {
        let want = self
            .jobs
            .get(&id)
            .map_or(1, |j| self.stream_slots(j.request.model.0 as usize));
        let streams: Vec<StreamId> = match self.cfg.streams {
            // A single shared stream backs every virtual stream (correct but
            // serialized — deps still hold because dispatch order respects
            // the waitlist).
            StreamPolicy::Single => vec![StreamId(1); want],
            StreamPolicy::PerJobUnbounded => (0..want)
                .map(|_| {
                    let s = StreamId(self.next_stream);
                    self.next_stream += 1;
                    s
                })
                .collect(),
            StreamPolicy::Pool(_) => {
                if self.free_streams.len() >= want {
                    // invariant: the len() >= want guard above bounds the
                    // number of pops.
                    (0..want)
                        .map(|_| self.free_streams.pop().expect("checked"))
                        .collect()
                } else {
                    self.stream_waiters.push_back(id);
                    Vec::new()
                }
            }
        };
        if let Some(j) = self.jobs.get_mut(&id) {
            j.streams = streams;
        }
    }

    // -- dispatch paths -----------------------------------------------------

    /// Job-granularity: push the entire op sequence to the device at once.
    fn dispatch_whole_job(&mut self, id: JobId, ready: SimTime) {
        for token in 0..self.job_dag(id).len() as u64 {
            // In job mode every op is "released" logically; stream ordering
            // on the device enforces execution order.
            self.dispatch_op(id, token, ready, true);
        }
        // invariant: callers pass an id freshly inserted into self.jobs, and
        // dispatch_op never removes the job.
        self.jobs.get_mut(&id).expect("job exists").last_dispatched = true;
    }

    /// Dispatches any active non-kernel ops (memcpys run on copy engines and
    /// are not scheduled).
    fn dispatch_auto_ops(&mut self, id: JobId, ready: SimTime) {
        loop {
            let Some(j) = self.jobs.get(&id) else { return };
            if !j.has_streams() {
                return; // waiting for pool streams
            }
            let Some(token) = j.next_active() else { return };
            match self.models[j.request.model.0 as usize]
                .dag
                .node(token as usize)
                .resources
            {
                DagResources::Kernel { .. } => return,
                DagResources::H2D(_) | DagResources::D2H(_) => {
                    // invariant: the get() at loop top just returned Some for
                    // this id.
                    let j = self.jobs.get_mut(&id).expect("job exists");
                    j.active_undispatched.pop_front();
                    self.dispatch_op(id, token, ready, false);
                }
            }
        }
    }

    /// Dispatches one op to the device, charging host costs.
    fn dispatch_op(&mut self, id: JobId, token: u64, ready: SimTime, whole_job: bool) {
        // Close any open flow-control hold interval: the op is leaving now,
        // so everything since the first hold was occupancy wait.
        if let Some(j) = self.jobs.get_mut(&id) {
            if let Some(s) = j.occ_since.take() {
                j.occ_wait_ns += ready.saturating_since(s).as_nanos();
            }
        }
        let (kind, stream, client) = {
            let j = &self.jobs[&id];
            assert!(j.has_streams(), "dispatch without streams");
            let dag = &self.models[j.request.model.0 as usize].dag;
            (
                dag.node(token as usize).resources,
                self.real_stream(j, token),
                j.request.client,
            )
        };
        match kind {
            DagResources::H2D(bytes) | DagResources::D2H(bytes) => {
                let dir = if matches!(kind, DagResources::H2D(_)) {
                    CopyDir::HostToDevice
                } else {
                    CopyDir::DeviceToHost
                };
                // Almost-finished: fired before the final D2H (§4.2).
                if matches!(kind, DagResources::D2H(_)) && self.is_last_op(id, token) {
                    self.fire_almost_finished(id, ready);
                }
                let done = self.charge_cpu(client, ready, self.channels.cuda.memcpy_overhead);
                let uid = MemcpyUid(self.next_memcpy_uid);
                self.next_memcpy_uid += 1;
                self.memcpy_to_job.insert(uid, (id, token));
                let at = done.max(self.now);
                self.gpu.enqueue_memcpy(
                    at,
                    MemcpyOp {
                        uid,
                        stream,
                        bytes,
                        dir,
                    },
                );
                // invariant: the indexing borrow of self.jobs[&id] at function
                // entry proved the job present; nothing above removes it.
                let j = self.jobs.get_mut(&id).expect("job exists");
                j.outstanding += 1;
                j.framework += self.channels.cuda.memcpy_overhead;
                j.inflight_memcpys.push(uid);
                if self.is_last_op(id, token) {
                    // invariant: same job as three lines up.
                    self.jobs.get_mut(&id).expect("job").last_dispatched = true;
                }
            }
            DagResources::Kernel { loc, .. } => {
                let loc = loc as usize;
                let cost = if whole_job {
                    self.channels.cuda.launch_overhead
                } else {
                    self.cfg.sched_cost
                        + self.cfg.injected_delay
                        + self.channels.cuda.launch_overhead
                };
                let done = self.charge_cpu_traced(client, ready, cost, HostOpKind::Sched);
                let uid = self.next_kernel_uid;
                self.next_kernel_uid += 1;
                let desc = {
                    let j = &self.jobs[&id];
                    // invariant: ingest derived `loc` by enumerating this
                    // same model's kernels, and models are append-only.
                    self.models[j.request.model.0 as usize].kernel_descs[loc].clone()
                };
                {
                    let grid_blocks = desc.grid_blocks;
                    self.tracer
                        .record_with(done, || TraceEvent::KernelDispatched {
                            job: id.0,
                            kernel: u64::from(uid),
                            stream: stream.0,
                            grid_blocks,
                        });
                }
                if let Some(m) = self.metrics.as_mut() {
                    m.inc("kernels_dispatched", 1);
                }
                // The occupancy mirror only works when instrumented kernels
                // report back; without instrumentation there is nothing to
                // clean the tracker up, so skip it entirely.
                if self.cfg.instrument {
                    self.occupancy
                        .on_launch(uid, desc.footprint, desc.grid_blocks);
                    // Reserve worst-case notifQ slots: two phases, at most
                    // one word per block per phase.
                    let words = 2 * u64::from(desc.grid_blocks);
                    self.notifq_outstanding += words;
                    self.notifq_reserved.insert(uid, words);
                }
                self.kernel_to_job.insert(uid, (id, token));
                let at = (done + self.channels.cuda.launch_latency).max(self.now);
                self.gpu
                    .launch_kernel(at, KernelLaunch { uid, stream, desc });
                let last = self.is_last_op(id, token);
                // Debit the load aggregate with the pre-dispatch count.
                let done_before = self.jobs[&id].done_counts[loc];
                let model_idx = self.jobs[&id].request.model.0 as usize;
                self.load_on_kernel_dispatch(model_idx, loc, done_before);
                // invariant: the indexing borrow of self.jobs[&id] at function
                // entry proved the job present; nothing above removes it.
                let j = self.jobs.get_mut(&id).expect("job exists");
                j.outstanding += 1;
                j.done_counts[loc] += 1;
                j.framework += cost;
                j.inflight_kernels.push(uid);
                if last {
                    j.last_dispatched = true;
                    // The last op is this kernel, so the output is pinned:
                    // the almost-finished wakeup fires when the kernel
                    // *starts* (placement notification) — see
                    // `handle_notif_run`. Without instrumentation there is
                    // no placement signal, so fall back to firing at launch.
                    if !self.cfg.instrument {
                        self.fire_almost_finished(id, done);
                    }
                }
            }
        }
    }

    fn is_last_op(&self, id: JobId, token: u64) -> bool {
        token as usize + 1 == self.job_dag(id).len()
    }

    /// The registered model's DAG for job `id`.
    fn job_dag(&self, id: JobId) -> &KernelDag {
        &self.models[self.jobs[&id].request.model.0 as usize].dag
    }

    fn fire_almost_finished(&mut self, id: JobId, at: SimTime) {
        let wake = at + self.channels.socket.one_way();
        if let Some(j) = self.jobs.get_mut(&id) {
            if j.almost_finished_at.is_none() {
                j.almost_finished_at = Some(wake);
                self.tracer
                    .record_with(wake, || TraceEvent::DoorbellWake { job: id.0 });
            }
        }
    }

    /// The kernel-granularity dispatch loop (§6's overall strategy).
    fn try_dispatch(&mut self) {
        if self.cfg.granularity != Granularity::Kernel {
            return;
        }
        if self.cfg.dag_dispatch {
            self.fastpath_transition();
            if let Some(id) = self.fast_job {
                self.fast_dispatch(id);
                return;
            }
        }
        let mut spin_guard = 0u64;
        while let Some((job, rationale)) = self.scheduler.pick_next_explained() {
            spin_guard += 1;
            debug_assert!(spin_guard < 10_000_000, "try_dispatch spinning on {job:?}");
            let Some(j) = self.jobs.get(&job).filter(|j| j.next_active().is_some()) else {
                // Stale readiness; clear and retry.
                self.scheduler.job_blocked(job);
                continue;
            };
            let Some((token, loc)) = j.front_kernel(&self.models[j.request.model.0 as usize].dag)
            else {
                // Non-kernel ops auto-dispatch.
                self.dispatch_auto_ops(job, self.now);
                self.update_readiness(job);
                continue;
            };
            if !self.jobs[&job].has_streams() {
                // Waiting for pool streams; skip until they free.
                self.tracer
                    .record_with(self.now, || TraceEvent::OccupancyHold {
                        job: job.0,
                        reason: HoldReason::StreamPool,
                    });
                self.mark_occ_hold(job);
                self.scheduler.job_blocked(job);
                continue;
            }
            if self.cfg.hold_for_occupancy {
                let (fp, blocks) = {
                    let j = &self.jobs[&job];
                    // invariant: `loc` was enumerated from this model's
                    // kernels at ingest (see dispatch_op).
                    let k = &self.models[j.request.model.0 as usize].kernel_descs[loc];
                    (k.footprint, k.grid_blocks)
                };
                if !self
                    .occupancy
                    .should_dispatch(&fp, self.cfg.lookahead_blocks)
                {
                    self.tracer
                        .record_with(self.now, || TraceEvent::OccupancyHold {
                            job: job.0,
                            reason: HoldReason::OccupancyBudget,
                        });
                    if let Some(m) = self.metrics.as_mut() {
                        m.inc("occupancy_holds", 1);
                    }
                    self.mark_occ_hold(job);
                    break;
                }
                // notifQ flow control: never reserve past the ring capacity.
                if self.cfg.instrument
                    && self.notifq_outstanding + 2 * u64::from(blocks) > self.cfg.notifq_capacity
                {
                    self.tracer
                        .record_with(self.now, || TraceEvent::OccupancyHold {
                            job: job.0,
                            reason: HoldReason::NotifqBackpressure,
                        });
                    if let Some(m) = self.metrics.as_mut() {
                        m.inc("notifq_holds", 1);
                    }
                    self.mark_occ_hold(job);
                    break;
                }
            }
            if self.tracer.is_enabled() {
                let policy = self.scheduler.name();
                let ready = self.scheduler.ready_len() as u32;
                self.tracer
                    .record_with(self.now, || TraceEvent::SchedDecision {
                        job: job.0,
                        policy,
                        rationale,
                        ready,
                    });
            }
            if let Some(m) = self.metrics.as_mut() {
                m.inc("sched_picks", 1);
            }
            self.scheduler.on_dispatched(job);
            {
                // invariant: the next_active() guard at loop top returned
                // Some for this job, so it is still in self.jobs.
                let j = self.jobs.get_mut(&job).expect("job exists");
                j.active_undispatched.pop_front();
            }
            self.dispatch_op(job, token, self.now, false);
            self.dispatch_auto_ops(job, self.now);
            self.update_readiness(job);
        }
    }

    // -- event-triggered DAG fast path (DESIGN §15) -------------------------

    /// Whether the software occupancy mirror sits at or above the fast-path
    /// watermark — "contended" even with a single job in flight.
    fn occupancy_above_watermark(&self) -> bool {
        let capacity = u64::from(self.gpu.config().num_sms)
            * u64::from(self.gpu.config().sm_limits.max_blocks);
        self.occupancy.resident_blocks() * 100 >= self.cfg.fastpath_occupancy_pct * capacity.max(1)
    }

    /// The fast-path state machine, evaluated once per dispatch pass:
    /// enter when exactly one job is in flight and the device is below the
    /// occupancy watermark; exit the moment either stops holding. Finish
    /// and cancel clear the state on their own paths.
    fn fastpath_transition(&mut self) {
        let contended = self.jobs.len() > 1 || self.occupancy_above_watermark();
        match self.fast_job {
            Some(id) => {
                if !self.jobs.contains_key(&id) {
                    // Finished/cancelled under us; exit already traced there.
                    self.fast_job = None;
                } else if contended {
                    let reason = if self.jobs.len() > 1 {
                        "contended"
                    } else {
                        "occupancy"
                    };
                    self.fastpath_exit(reason);
                }
            }
            None => {
                if !contended && self.jobs.len() == 1 {
                    // invariant: the guard above checked len == 1; min() is
                    // an order-insensitive terminal, so hash order never
                    // leaks into the decision (R6).
                    let id = *self.jobs.keys().min().expect("len == 1");
                    self.fast_job = Some(id);
                    // The fast path owns dispatch now; deregister so the
                    // arbitration loop never sees a phantom ready job.
                    self.scheduler.job_blocked(id);
                    self.tracer
                        .record_with(self.now, || TraceEvent::FastPathEnter { job: id.0 });
                    if let Some(m) = self.metrics.as_mut() {
                        m.inc("fastpath_enters", 1);
                    }
                }
            }
        }
    }

    /// Leaves the fast path and hands the job back to the arbitrating
    /// scheduler: trace, count, and re-register its readiness.
    fn fastpath_exit(&mut self, reason: &'static str) {
        if let Some(id) = self.fast_job.take() {
            self.tracer
                .record_with(self.now, || TraceEvent::FastPathExit { job: id.0, reason });
            if let Some(m) = self.metrics.as_mut() {
                m.inc("fastpath_exits", 1);
            }
            self.update_readiness(id);
        }
    }

    /// The event-triggered dispatch loop: structurally [`try_dispatch`]'s
    /// single-job iteration with the scheduler pick/charge removed. Every
    /// gate (stream pool, occupancy budget, notifQ backpressure) holds with
    /// the same traces, counters, and wait accounting, so an uncontended
    /// job's completion schedule and journey are byte-identical to the
    /// arbitrated path's (pinned by proptest).
    ///
    /// [`try_dispatch`]: Self::try_dispatch
    fn fast_dispatch(&mut self, id: JobId) {
        loop {
            // Non-kernel ops auto-dispatch, exactly as the slow loop does
            // before consulting the occupancy gate.
            self.dispatch_auto_ops(id, self.now);
            let Some(j) = self.jobs.get(&id) else { return };
            let Some((token, loc)) = j.front_kernel(&self.models[j.request.model.0 as usize].dag)
            else {
                return;
            };
            if !j.has_streams() {
                self.tracer
                    .record_with(self.now, || TraceEvent::OccupancyHold {
                        job: id.0,
                        reason: HoldReason::StreamPool,
                    });
                self.mark_occ_hold(id);
                return;
            }
            if self.cfg.hold_for_occupancy {
                let (fp, blocks) = {
                    let j = &self.jobs[&id];
                    let k = &self.models[j.request.model.0 as usize].kernel_descs[loc];
                    (k.footprint, k.grid_blocks)
                };
                if !self
                    .occupancy
                    .should_dispatch(&fp, self.cfg.lookahead_blocks)
                {
                    self.tracer
                        .record_with(self.now, || TraceEvent::OccupancyHold {
                            job: id.0,
                            reason: HoldReason::OccupancyBudget,
                        });
                    if let Some(m) = self.metrics.as_mut() {
                        m.inc("occupancy_holds", 1);
                    }
                    self.mark_occ_hold(id);
                    return;
                }
                if self.cfg.instrument
                    && self.notifq_outstanding + 2 * u64::from(blocks) > self.cfg.notifq_capacity
                {
                    self.tracer
                        .record_with(self.now, || TraceEvent::OccupancyHold {
                            job: id.0,
                            reason: HoldReason::NotifqBackpressure,
                        });
                    if let Some(m) = self.metrics.as_mut() {
                        m.inc("notifq_holds", 1);
                    }
                    self.mark_occ_hold(id);
                    return;
                }
            }
            {
                // invariant: front_kernel above proved the job is present
                // with a non-empty active queue.
                let j = self.jobs.get_mut(&id).expect("job exists");
                j.active_undispatched.pop_front();
            }
            self.dispatch_op(id, token, self.now, false);
            self.dispatch_auto_ops(id, self.now);
            self.update_readiness(id);
        }
    }

    /// Syncs a job's readiness with the scheduler, closing/opening the
    /// dependency-wait interval on the transition. For the fast-path job the
    /// dependency accounting (and its DepWait trace) runs identically but
    /// the scheduler registration — and the O(kernels) remaining-estimate
    /// recompute feeding it — is skipped: the fast path dispatches without
    /// arbitration, and `fastpath_exit` re-registers on handoff.
    fn update_readiness(&mut self, id: JobId) {
        let fast = self.fast_job == Some(id);
        let Some(j) = self.jobs.get_mut(&id) else {
            self.scheduler.job_blocked(id);
            return;
        };
        let ready = j
            .front_kernel(&self.models[j.request.model.0 as usize].dag)
            .is_some();
        if ready {
            if let Some(s) = j.dep_since.take() {
                j.dep_wait_ns += self.now.saturating_since(s).as_nanos();
            }
            if !fast {
                let remaining = {
                    let m = &self.models[j.request.model.0 as usize];
                    m.profile.remaining(&j.done_counts)
                };
                self.scheduler.job_ready(JobInfo {
                    job: id,
                    client: j.request.client,
                    arrival: j.ingested_at,
                    total_estimate: j.total_estimate,
                    remaining_estimate: remaining,
                });
            }
        } else {
            let newly_blocked = j.dep_since.is_none();
            if newly_blocked {
                j.dep_since = Some(self.now);
            }
            if !fast {
                self.scheduler.job_blocked(id);
            }
            if newly_blocked {
                self.tracer
                    .record_with(self.now, || TraceEvent::OccupancyHold {
                        job: id.0,
                        reason: HoldReason::DepWait,
                    });
            }
        }
    }

    /// Opens the flow-control hold interval for a held job, if not already
    /// open. Closed (and accumulated) when the op finally dispatches.
    fn mark_occ_hold(&mut self, id: JobId) {
        if let Some(j) = self.jobs.get_mut(&id) {
            if j.occ_since.is_none() {
                j.occ_since = Some(self.now);
            }
        }
    }

    // -- device feedback ----------------------------------------------------

    /// Handles one device step's outputs in order. Consecutive notification
    /// words that share (kernel, kind, visibility instant) form a run — the
    /// device posts one per (kernel, wave) — and are handled as one step.
    fn handle_gpu_outputs(&mut self, buf: &mut Vec<GpuOutput>) {
        let mut outs = buf.drain(..).peekable();
        while let Some(out) = outs.next() {
            match out {
                GpuOutput::Notif { n, at } => {
                    let mut run = std::mem::take(&mut self.notif_run);
                    run.push(n);
                    while let Some(&GpuOutput::Notif { n: m, at: m_at }) = outs.peek() {
                        if m.kernel != n.kernel || m.kind != n.kind || m_at != at {
                            break;
                        }
                        run.push(m);
                        outs.next();
                    }
                    self.handle_notif_run(&run, at);
                    run.clear();
                    self.notif_run = run;
                }
                GpuOutput::KernelCompleted { uid, at } => self.on_kernel_completed(uid, at),
                GpuOutput::MemcpyCompleted { uid, at } => {
                    if let Some((job, token)) = self.memcpy_to_job.remove(&uid) {
                        if let Some(j) = self.jobs.get_mut(&job) {
                            remove_uid(&mut j.inflight_memcpys, uid);
                        }
                        self.complete_op(job, token, at);
                    }
                }
            }
        }
    }

    /// Handles a run of notification words for one kernel and kind, all
    /// visible at `at`, with the same virtual-time effect as handling them
    /// one by one (DESIGN §4b):
    ///
    /// * Every word is charged `notif_cost` to the same owner from the same
    ///   ready instant, so one charge of `k × notif_cost` ends where `k`
    ///   sequential charges would.
    /// * The only word whose handling reads `self.now` is the one that makes
    ///   the kernel fully placed under pipelined release. The run splits
    ///   right after it, so the release sees that word's own done instant
    ///   and later words are charged after whatever the release charged.
    /// * With telemetry on, each word still records its own `HostOp` and
    ///   `NotifBatch` at its own start and done instants.
    fn handle_notif_run(&mut self, words: &[Notification], at: SimTime) {
        let kuid = words[0].kernel;
        let placement = matches!(words[0].kind, NotifKind::Placement);
        let total = words.len() as u64;
        // Each dispatcher thread polls its own notifQ (§5.2), so the
        // processing cost lands on the owning job's shard.
        let op = self.kernel_to_job.get(&kuid).copied();
        let owner = op
            .and_then(|(job, _)| self.jobs.get(&job))
            .map(|j| j.request.client);
        if let Some(m) = self.metrics.as_mut() {
            m.inc("notifs_processed", total);
            if owner.is_none() {
                // A word whose kernel has no job (cancelled, or already
                // retired) is charged to client 0's shard: counted so the
                // fallback is never silent.
                m.inc("notif_unowned_words", total);
            }
        }
        let owner = owner.unwrap_or(ClientId(0));
        if let Some(r) = self.notifq_reserved.get_mut(&kuid) {
            // Each word consumes one reserved slot while any remain.
            let consumed = (*r).min(total);
            *r = r.saturating_sub(consumed);
            debug_assert!(
                self.notifq_outstanding >= consumed,
                "notifq_outstanding underflow: reservation held with zero outstanding"
            );
            self.notifq_outstanding -= consumed;
        }
        // Pipelined release: successor activates on full placement, but only
        // for kernels that will finish "soon" — otherwise a dependent
        // successor would park at a hardware-queue head for the
        // predecessor's whole runtime. Nothing in the run changes whether
        // the op is still unreleased, so this is decided once.
        let mut release = op.filter(|&(job, token)| {
            placement
                && self.cfg.release_on_placement
                && self.jobs.get(&job).is_some_and(|j| !j.released(token))
                && self.kernel_expected_runtime(job, token) <= self.cfg.pipeline_window
        });
        let mut rest = words;
        let mut first_segment = true;
        while !rest.is_empty() {
            let folded = self.occupancy.on_notification_run(rest, release.is_some());
            let (segment, tail) = rest.split_at(folded);
            rest = tail;
            let cost = self.cfg.notif_cost * segment.len() as u64;
            let done = self.charge_cpu(owner, at, cost);
            self.now = self.now.max(done);
            let (core, start) = self.last_charge;
            if first_segment {
                // The placement side effects are idempotent, so only the
                // run's first word has any; they follow that word's trace
                // events, as in word-by-word handling.
                self.trace_notif_words(&segment[..1], core, start);
                if placement {
                    // First placement starts the online-profiling clock.
                    if self.cfg.online_profiling {
                        self.kernel_started.entry(kuid).or_insert(at);
                    }
                    // Pinned-output wakeup: the job's final kernel started.
                    if let Some((job, token)) = op {
                        if self.is_last_op(job, token) {
                            self.fire_almost_finished(job, at);
                        }
                    }
                }
                let next = start + self.cfg.notif_cost;
                self.trace_notif_words(&segment[1..], core, next);
                first_segment = false;
            } else {
                self.trace_notif_words(segment, core, start);
            }
            if let Some((job, token)) = release {
                if self.occupancy.fully_placed(kuid) {
                    release = None;
                    self.release_op(job, token);
                }
            }
        }
    }

    /// Records one `HostOp` and one `NotifBatch` per word, for words charged
    /// back to back on `core` from `start`.
    fn trace_notif_words(&mut self, words: &[Notification], core: u32, start: SimTime) {
        if !self.tracer.is_enabled() {
            return;
        }
        let cost = self.cfg.notif_cost;
        let mut start = start;
        for n in words {
            let done = start + cost;
            self.tracer.record_with(done, || TraceEvent::HostOp {
                kind: HostOpKind::Notif,
                core,
                start,
            });
            self.tracer.record_with(done, || TraceEvent::NotifBatch {
                kernel: u64::from(n.kernel),
                sm: u32::from(n.sm_id),
                placement: matches!(n.kind, NotifKind::Placement),
                blocks: u32::from(n.group),
            });
            start = done;
        }
    }

    /// The host observed a kernel finish through the CUDA runtime.
    fn on_kernel_completed(&mut self, uid: KernelUid, at: SimTime) {
        if let Some(rest) = self.notifq_reserved.remove(&uid) {
            debug_assert!(
                self.notifq_outstanding >= rest,
                "notifq_outstanding underflow: releasing more than reserved"
            );
            self.notifq_outstanding -= rest;
        }
        // Reconcile the occupancy mirror: if any of this kernel's
        // notifications were lost, its leaked accounting would otherwise
        // wedge the dispatch gate.
        if self.cfg.instrument {
            self.occupancy.on_kernel_completed(uid);
        }
        if let Some((job, token)) = self.kernel_to_job.remove(&uid) {
            if let Some(j) = self.jobs.get_mut(&job) {
                remove_uid(&mut j.inflight_kernels, uid);
            }
            // Injected kernel fault (DESIGN §11): the execution's results are
            // discarded and the op is retried with backoff. Rolled per
            // completion in DES order, so same seed ⇒ identical fault sets.
            if self.cfg.kernel_fault_rate > 0.0 && self.fault_rng.chance(self.cfg.kernel_fault_rate)
            {
                self.kernel_started.remove(&uid);
                self.on_kernel_fault(job, token, uid, at);
                return;
            }
            // Online profile refinement from the observed span.
            if let Some(started) = self.kernel_started.remove(&uid) {
                let model = self.jobs[&job].request.model.0 as usize;
                if let DagResources::Kernel { loc, .. } =
                    self.models[model].dag.node(token as usize).resources
                {
                    let loc = loc as usize;
                    let old_us = self.models[model].profile.kernels[loc].time_us.mean();
                    self.models[model]
                        .profile
                        .observe_kernel(loc, at.saturating_since(started));
                    // The refined mean reprices everyone's still-owed
                    // executions of this kernel in the load aggregate.
                    self.load_on_profile_refined(model, loc, old_us);
                }
            }
            self.complete_op(job, token, at);
        }
    }

    /// Expected runtime of a dispatched kernel op, from the model profile.
    fn kernel_expected_runtime(&self, id: JobId, token: u64) -> SimDuration {
        let Some(j) = self.jobs.get(&id) else {
            return SimDuration::ZERO;
        };
        let m = &self.models[j.request.model.0 as usize];
        let DagResources::Kernel { loc, .. } = m.dag.node(token as usize).resources else {
            return SimDuration::ZERO;
        };
        SimDuration::from_micros_f64(m.profile.kernels[loc as usize].time_us.mean())
    }

    /// The release bookkeeping shared by every path: marks `token` released
    /// and, in kernel granularity, decrements its successors' predecessor
    /// counts over the model's [`KernelDag`], appending the ops that reach
    /// zero (in vstream order) to the job's dispatch queue. Returns whether
    /// the op was actually released (`false` = already released, an
    /// idempotent no-op). The fast path differs only in its `DagRelease`
    /// trace event and counter.
    fn apply_release(&mut self, id: JobId, token: u64) -> bool {
        let Some(j) = self.jobs.get_mut(&id) else {
            return false;
        };
        if !j.released_ops.insert(token) {
            return false;
        }
        if !j.preds_left.is_empty() {
            let dag = &self.models[j.request.model.0 as usize].dag;
            dag.release(&mut j.preds_left, token as usize, &mut self.activated);
        }
        let activated = self.activated.len() as u32;
        j.active_undispatched
            .extend(self.activated.drain(..).map(u64::from));
        if self.fast_job == Some(id) {
            self.tracer
                .record_with(self.now, || TraceEvent::DagRelease {
                    job: id.0,
                    token,
                    activated,
                });
            if let Some(m) = self.metrics.as_mut() {
                m.inc("dag_releases", 1);
            }
        }
        true
    }

    /// Releases an op and dispatches what it activates (idempotent per op).
    fn release_op(&mut self, id: JobId, token: u64) {
        if !self.apply_release(id, token) {
            return;
        }
        if self.cfg.granularity == Granularity::Kernel {
            self.dispatch_auto_ops(id, self.now);
            self.update_readiness(id);
        }
    }

    fn complete_op(&mut self, id: JobId, token: u64, at: SimTime) {
        self.apply_release(id, token);
        {
            let Some(j) = self.jobs.get_mut(&id) else {
                return;
            };
            debug_assert!(
                j.outstanding >= 1,
                "job outstanding underflow: completion without a dispatch"
            );
            j.outstanding -= 1;
            j.completed += 1;
        }
        if self.cfg.granularity == Granularity::Kernel {
            self.dispatch_auto_ops(id, self.now);
            self.update_readiness(id);
        }
        if self.jobs[&id].completed == self.job_dag(id).len() {
            self.finish_job(id, at);
        }
    }

    fn finish_job(&mut self, id: JobId, device_done: SimTime) {
        if self.fast_job == Some(id) {
            self.fast_job = None;
            self.tracer
                .record_with(self.now, || TraceEvent::FastPathExit {
                    job: id.0,
                    reason: "finished",
                });
            if let Some(m) = self.metrics.as_mut() {
                m.inc("fastpath_exits", 1);
            }
        }
        // invariant: the only caller just indexed self.jobs[&id] to test
        // done(), and jobs are removed nowhere else.
        let j = self.jobs.remove(&id).expect("finishing unknown job");
        self.load_remove_job(j.request.model.0 as usize, &j.done_counts);
        self.scheduler.job_done(id);
        if let Some(n) = self.client_inflight.get_mut(&j.request.client) {
            debug_assert!(*n >= 1, "client_inflight underflow on job finish");
            *n -= 1;
            if *n == 0 {
                self.client_inflight.remove(&j.request.client);
                self.scheduler.client_idle(j.request.client);
            }
        }
        self.return_streams(&j, device_done);

        // Completion path: dispatcher posts the result, client picks it up.
        let t_posted = self.charge_cpu_traced(
            j.request.client,
            device_done,
            self.cfg.completion_cost,
            HostOpKind::Completion,
        );
        let ring = self.channels.shm.one_way();
        let client_visible = match self.cfg.wakeup {
            WakeupMode::Polling => t_posted + ring,
            WakeupMode::Hybrid => {
                // If the almost-finished interrupt landed in time the client
                // is already polling; otherwise it eats a socket wakeup.
                match j.almost_finished_at {
                    Some(w) if w <= t_posted => t_posted + ring,
                    _ => t_posted + self.channels.socket.one_way() + ring,
                }
            }
            WakeupMode::Socket => t_posted + self.channels.socket.one_way() + ring,
        };

        let model = &self.models[j.request.model.0 as usize];
        let total = client_visible.saturating_since(j.request.submitted_at);
        // Normalize the breakdown so the categories always sum to the total
        // JCT. Device time is taken first — the paper defines overhead as
        // end-to-end latency minus the CUDA work — and host costs that
        // overlapped device execution (pipelined dispatch) are clamped to
        // whatever critical-path time remains.
        let mut remaining = total;
        let mut take = |d: SimDuration| {
            let t = d.min(remaining);
            remaining -= t;
            t
        };
        let device = take(model.uncontended);
        let client_send_recv = take(self.channel_submit_latency() + ring);
        let communication = take(
            self.channels.cuda.launch_latency
                + self.gpu.config().notif_visibility
                + match self.cfg.wakeup {
                    WakeupMode::Socket => self.channels.socket.one_way(),
                    _ => SimDuration::ZERO,
                },
        );
        let framework = take(j.framework + self.cfg.completion_cost);
        let queuing = remaining;
        // Second-level decomposition (DESIGN §12): split the queuing
        // remainder by cause with the same clamped-take discipline, so the
        // eight journey phases still sum exactly to the JCT. Attribution is
        // best-effort under overlap; conservation is exact by construction.
        let mut queue_rem = queuing.as_nanos();
        let mut take_ns = |x: u64| {
            let t = x.min(queue_rem);
            queue_rem -= t;
            t
        };
        let retry_backoff_ns = take_ns(j.backoff_ns);
        let queue_dep_ns = take_ns(j.dep_wait_ns);
        let queue_occupancy_ns = take_ns(j.occ_wait_ns);
        let queue_hol_ns = queue_rem;
        self.tracer
            .record_with(client_visible, || TraceEvent::JobEnd {
                job: id.0,
                client: j.request.client.0,
                jct_ns: total.as_nanos(),
                client_send_recv_ns: client_send_recv.as_nanos(),
                communication_ns: communication.as_nanos(),
                queuing_scheduling_ns: queuing.as_nanos(),
                framework_ns: framework.as_nanos(),
                device_ns: device.as_nanos(),
            });
        self.tracer
            .record_with(client_visible, || TraceEvent::JobJourney {
                job: id.0,
                client: j.request.client.0,
                jct_ns: total.as_nanos(),
                client_send_recv_ns: client_send_recv.as_nanos(),
                communication_ns: communication.as_nanos(),
                framework_ns: framework.as_nanos(),
                device_ns: device.as_nanos(),
                retry_backoff_ns,
                queue_dep_ns,
                queue_occupancy_ns,
                queue_hol_ns,
                // Fixed-trace jobs: the whole device pass is the degenerate
                // "prefill"; decode time is an LLM-tier concept.
                device_prefill_ns: device.as_nanos(),
                device_decode_ns: 0,
            });
        if let Some(m) = self.metrics.as_mut() {
            m.inc("jobs_completed", 1);
            m.observe("jct_ns", total.as_nanos());
            let (met, burn_ns) = match j.deadline_at {
                Some(d) if client_visible > d => {
                    (false, client_visible.saturating_since(d).as_nanos())
                }
                _ => (true, 0),
            };
            m.slo_complete(j.request.client.0, met, burn_ns);
        }
        self.completions.push(JobCompletion {
            job: id,
            request: j.request,
            almost_finished_at: j.almost_finished_at,
            device_done_at: device_done,
            client_visible_at: client_visible,
            breakdown: LatencyBreakdown {
                client_send_recv,
                communication,
                queuing_scheduling: queuing,
                framework,
                device,
            },
        });
    }

    /// Returns a retiring job's pool streams and re-kicks waiters, oldest
    /// first. Shared by the completion and cancellation paths.
    fn return_streams(&mut self, j: &Job, ready: SimTime) {
        if matches!(self.cfg.streams, StreamPolicy::Pool(_)) && j.has_streams() {
            self.free_streams.extend(j.streams.iter().copied());
            while let Some(&waiter) = self.stream_waiters.front() {
                let Some(w) = self.jobs.get(&waiter) else {
                    self.stream_waiters.pop_front();
                    continue;
                };
                let want = self.stream_slots(w.request.model.0 as usize);
                if self.free_streams.len() < want {
                    break;
                }
                self.stream_waiters.pop_front();
                // invariant: the len() < want break above bounds the pops.
                let streams: Vec<StreamId> = (0..want)
                    .map(|_| self.free_streams.pop().expect("checked"))
                    .collect();
                if let Some(w) = self.jobs.get_mut(&waiter) {
                    w.streams = streams;
                }
                // Kick the waiter's pending ops now that it can run.
                self.dispatch_auto_ops(waiter, ready);
                self.update_readiness(waiter);
            }
        }
    }

    // -- failure handling (DESIGN §11) --------------------------------------

    /// A dispatched kernel's execution faulted: schedule a backoff retry, or
    /// give the whole job up once the retry budget is spent.
    fn on_kernel_fault(&mut self, id: JobId, token: u64, uid: KernelUid, at: SimTime) {
        // invariant: the faulted kernel was still mapped to this job, and
        // a job with an in-flight kernel is neither finished nor cancelled.
        let j = self.jobs.get_mut(&id).expect("faulted kernel's job exists");
        let attempt = match j.fault_attempts.iter_mut().find(|(t, _)| *t == token) {
            Some((_, n)) => {
                *n += 1;
                *n
            }
            None => {
                j.fault_attempts.push((token, 1));
                1
            }
        };
        self.tracer.record_with(at, || TraceEvent::KernelFault {
            job: id.0,
            kernel: u64::from(uid),
            attempt,
        });
        if let Some(m) = self.metrics.as_mut() {
            m.inc("kernel_faults", 1);
        }
        if attempt > self.cfg.retry_budget {
            self.cancel_job(id, at, FailureReason::RetryBudgetExhausted);
            return;
        }
        if let Some(m) = self.metrics.as_mut() {
            m.inc("kernel_retries", 1);
        }
        // Exponential backoff, shift-capped so the doubling can't overflow.
        let backoff = self.cfg.retry_backoff * (1u64 << (attempt - 1).min(16));
        let backoff_ns = backoff.as_nanos();
        self.tracer.record_with(at, || TraceEvent::RetryBackoff {
            job: id.0,
            kernel: u64::from(uid),
            attempt,
            backoff_ns,
        });
        if let Some(j) = self.jobs.get_mut(&id) {
            j.backoff_ns += backoff_ns;
        }
        self.events.schedule_at(
            at.saturating_add(backoff).max(self.events.now()),
            Ev::Retry(id, token),
        );
    }

    /// Re-dispatches a faulted op after its backoff elapsed.
    fn retry_kernel(&mut self, id: JobId, token: u64, at: SimTime) {
        if !self.jobs.contains_key(&id) {
            return; // cancelled while backing off
        }
        // dispatch_op re-increments `outstanding` and the per-location done
        // count, but the faulted attempt never decremented `outstanding`
        // (its completion was discarded), so compensate here. The done-count
        // over-increment is harmless: every consumer clamps remaining work
        // with max(0, C̄ − done).
        self.dispatch_op(id, token, at, false);
        if let Some(j) = self.jobs.get_mut(&id) {
            debug_assert!(
                j.outstanding >= 1,
                "job outstanding underflow: retry compensation without a dispatch"
            );
            j.outstanding -= 1;
        }
    }

    /// Cancels one in-flight job and reclaims everything it holds: its
    /// waitlist, scheduler state, stream-pool slots, notifQ reservations,
    /// and the occupancy mirror's accounting for its in-flight kernels. The
    /// device runs already-placed kernels to completion, but their outputs no
    /// longer map to a job, so late notifications and completions fall
    /// through the uid lookups harmlessly.
    fn cancel_job(&mut self, id: JobId, at: SimTime, reason: FailureReason) {
        let Some(j) = self.jobs.remove(&id) else {
            return; // already finished or cancelled (e.g. a stale deadline)
        };
        if self.fast_job == Some(id) {
            self.fast_job = None;
            self.tracer.record_with(at, || TraceEvent::FastPathExit {
                job: id.0,
                reason: "cancelled",
            });
            if let Some(m) = self.metrics.as_mut() {
                m.inc("fastpath_exits", 1);
            }
        }
        self.load_remove_job(j.request.model.0 as usize, &j.done_counts);
        self.scheduler.job_done(id);
        if let Some(n) = self.client_inflight.get_mut(&j.request.client) {
            debug_assert!(*n >= 1, "client_inflight underflow on job cancel");
            *n -= 1;
            if *n == 0 {
                self.client_inflight.remove(&j.request.client);
                self.scheduler.client_idle(j.request.client);
            }
        }
        // Reclaim in-flight kernels in ascending uid order (the order they
        // were dispatched in).
        for &uid in &j.inflight_kernels {
            self.kernel_to_job.remove(&uid);
            self.kernel_started.remove(&uid);
            if let Some(rest) = self.notifq_reserved.remove(&uid) {
                debug_assert!(
                    self.notifq_outstanding >= rest,
                    "notifq_outstanding underflow: cancel releasing more than reserved"
                );
                self.notifq_outstanding -= rest;
            }
            if self.cfg.instrument {
                self.occupancy.on_kernel_completed(uid);
            }
        }
        for uid in &j.inflight_memcpys {
            self.memcpy_to_job.remove(uid);
        }
        self.return_streams(&j, at);
        let reason_str = reason.as_str();
        self.tracer.record_with(at, || TraceEvent::JobCancelled {
            job: id.0,
            reason: reason_str,
        });
        if let Some(m) = self.metrics.as_mut() {
            m.inc("jobs_cancelled", 1);
            m.slo_fail(j.request.client.0, reason_str);
        }
        // A spent retry budget is a terminal, single-node failure: snapshot
        // the flight-recorder ring into a post-mortem dump (DESIGN §12).
        if reason == FailureReason::RetryBudgetExhausted {
            self.record_postmortem("retry-budget-exhausted", at);
        }
        self.failures.push(JobFailure {
            request: j.request,
            reason,
            at,
        });
    }

    /// A client disconnected: cancel its in-flight jobs and refuse its later
    /// submissions (including requests already queued on its ring).
    pub fn cancel_client(&mut self, client: ClientId, at: SimTime) {
        self.disconnected.insert(client);
        let mut ids: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.request.client == client)
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        for id in ids {
            self.cancel_job(id, at, FailureReason::Disconnected);
        }
    }

    /// Fails everything the dispatcher holds — queued ingests and in-flight
    /// jobs alike — with the given reason. The cluster tier calls this when
    /// the node crashes, then drains the failures for re-routing.
    pub fn cancel_all(&mut self, at: SimTime, reason: FailureReason) {
        // Pending host events: queued ingests become failures (the ring's
        // contents are lost with the node); stale deadlines/retries are moot.
        for (_, ev) in self.events.drain() {
            if let Ev::Ingest(req, est) = ev {
                self.queued_ingest = self.queued_ingest.saturating_sub(1);
                self.queued_work = self.queued_work.saturating_sub(est);
                if let Some(m) = self.metrics.as_mut() {
                    m.slo_fail(req.client.0, reason.as_str());
                }
                self.failures.push(JobFailure {
                    request: req,
                    reason,
                    at,
                });
            }
        }
        let mut ids: Vec<JobId> = self.jobs.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            self.cancel_job(id, at, reason);
        }
    }
}

/// Dense released-token set: one bit per op, indexed by the compact token.
/// This is the per-job structure behind release idempotency — it replaced a
/// `HashSet<u64>` on the per-kernel release path, so a property test pins
/// its semantics against the hash-set reference it displaced.
#[doc(hidden)]
#[derive(Clone, Debug, Default)]
pub struct ReleasedSet {
    bits: Vec<u64>,
}

impl ReleasedSet {
    /// An empty set sized for `ops` tokens (`0..ops`).
    #[must_use]
    pub fn with_capacity(ops: usize) -> Self {
        ReleasedSet {
            bits: vec![0u64; ops.div_ceil(64)],
        }
    }

    /// Whether `token` has been released.
    #[must_use]
    pub fn contains(&self, token: u64) -> bool {
        let (word, bit) = ((token / 64) as usize, token % 64);
        self.bits.get(word).is_some_and(|&w| (w >> bit) & 1 == 1)
    }

    /// Marks `token` released; returns whether it was newly inserted
    /// (mirrors `HashSet::insert`).
    pub fn insert(&mut self, token: u64) -> bool {
        let (word, bit) = ((token / 64) as usize, token % 64);
        let fresh = (self.bits[word] >> bit) & 1 == 0;
        self.bits[word] |= 1 << bit;
        fresh
    }

    /// Number of released tokens.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no token has been released.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }
}

/// Removes `uid` from a job's ascending in-flight list, keeping the order.
fn remove_uid<T: PartialEq>(list: &mut Vec<T>, uid: T) {
    if let Some(i) = list.iter().position(|u| *u == uid) {
        list.remove(i);
    }
}
