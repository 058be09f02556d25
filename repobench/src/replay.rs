//! The traced run's recording, and its replay through a standalone
//! `GpuSim` and a standalone `OccupancyTracker`.
//!
//! The driver steps the system one event instant at a time and takes the
//! trace after every `advance_until(t)`. Inside a step the system first
//! lets its device run every event at or before `t`, then issues new device
//! work, so "advance the device to `t`, then issue what the step issued"
//! reproduces the device's inputs exactly. The trace names every kernel
//! launch (`KernelDispatched`, at the end of its host launch charge); the
//! copies are not traced and are rebuilt from the model and the host
//! charges:
//!
//! * the input copy is issued in the job's ingest step, one copy charge
//!   after the ingest charge ends (the `JobBegin` instant);
//! * the output copy is the job's last device op, so it ends at the
//!   completion's `device_done_at` and starts one copy time earlier; it is
//!   issued just before that start.
//!
//! A replay is valid only if it reproduces every traced kernel completion
//! instant and the dispatcher's notification-word count.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use paella_channels::{ChannelConfig, Notification};
use paella_compiler::CompiledModel;
use paella_core::{JobCompletion, OccupancyTracker};
use paella_gpu::{
    BlockFootprint, CopyDir, DeviceConfig, GpuOutput, GpuSim, KernelDesc, KernelLaunch, MemcpyOp,
    MemcpyUid, StreamId,
};
use paella_sim::{SimDuration, SimTime};
use paella_telemetry::{HoldReason, TraceEvent, TraceLog};

use crate::workload::copy_bytes;

/// Deterministic work counts from the traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Kernels launched.
    pub kernels: u64,
    /// Per-SM block groups placed.
    pub sm_groups: u64,
    /// Hardware-queue head-of-line stalls.
    pub hwq_stalls: u64,
    /// Notification words the dispatcher folded into its mirror.
    pub notif_words: u64,
    /// Scheduler picks.
    pub sched_picks: u64,
    /// Sum of the ready-queue length over picks.
    pub ready_sum: u64,
    /// Dispatches held by the occupancy budget.
    pub occupancy_holds: u64,
    /// Dispatches held by notifQ back-pressure.
    pub notifq_holds: u64,
    /// Host CPU charges.
    pub hostops: u64,
    /// Trace events of every kind.
    pub events: u64,
}

/// Summed journey phases, nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    /// Summed JCT.
    pub jct: u64,
    /// Device execution.
    pub device: u64,
    /// Scheduler head-of-line wait.
    pub queue_hol: u64,
    /// Flow-control (occupancy, notifQ, stream pool) wait.
    pub queue_occupancy: u64,
    /// Own-dependency wait.
    pub queue_dep: u64,
    /// Dispatcher CPU.
    pub framework: u64,
    /// PCIe, launch and notification latency.
    pub communication: u64,
    /// Client channel time.
    pub client_send_recv: u64,
    /// Journeys seen.
    pub journeys: u64,
    /// Journeys whose eight phases did not sum to their JCT.
    pub unbalanced: u64,
}

struct Launch {
    uid: u32,
    stream: u32,
    done: SimTime,
    desc: KernelDesc,
}

#[derive(Default)]
struct Step {
    t: SimTime,
    /// `(charge end, job)` of input copies issued this step.
    inputs: Vec<(SimTime, u64)>,
    launches: Vec<Launch>,
}

struct JobRec {
    model: usize,
    stream: Option<u32>,
    kernels: usize,
}

#[derive(Clone, Copy)]
enum OccCmd {
    Launch(u32, BlockFootprint, u32),
    Notif(Notification),
    Done(u32),
}

/// The replay input, folded step by step out of the traced run.
pub struct Recording {
    /// Per model: kernel descriptors as served, and copy sizes.
    served: Vec<(Vec<KernelDesc>, usize, usize)>,
    names: HashMap<std::sync::Arc<str>, usize>,
    steps: Vec<Step>,
    jobs: HashMap<u64, JobRec>,
    /// Instrumented kernels launched and not yet completed: the ones the
    /// dispatcher's own mirror tracks.
    mirrored: std::collections::HashSet<u32>,
    /// Traced completion instant of every kernel.
    completed: HashMap<u32, SimTime>,
    occ: Vec<OccCmd>,
    /// Work counts.
    pub counts: Counts,
    /// Journey phase sums.
    pub phases: Phases,
    /// First inconsistency found while folding, if any.
    pub error: Option<String>,
}

impl Recording {
    /// An empty recording for a system serving `served` (the models as the
    /// system compiled them).
    pub fn new(served: &[CompiledModel]) -> Result<Recording, String> {
        let mut models = Vec::new();
        for m in served {
            let (input, output) =
                copy_bytes(m).ok_or_else(|| format!("model {} has no replayable shape", m.name))?;
            models.push((m.kernels().cloned().collect(), input, output));
        }
        Ok(Recording {
            served: models,
            names: served
                .iter()
                .enumerate()
                .map(|(i, m)| (m.name.clone(), i))
                .collect(),
            steps: Vec::new(),
            jobs: HashMap::new(),
            mirrored: std::collections::HashSet::new(),
            completed: HashMap::new(),
            occ: Vec::new(),
            counts: Counts::default(),
            phases: Phases::default(),
            error: None,
        })
    }

    fn fail(&mut self, msg: String) {
        self.error.get_or_insert(msg);
    }

    /// Folds the events of the step that advanced the system to `t`.
    pub fn fold(&mut self, t: SimTime, log: TraceLog) {
        let mut step = Step {
            t,
            ..Step::default()
        };
        let (mut notifs, mut done) = (Vec::new(), Vec::new());
        // Jobs begin before anything else of theirs happens in a step.
        for e in &log.events {
            if let TraceEvent::JobBegin { job, model, .. } = &e.event {
                let Some(&m) = self.names.get(model) else {
                    self.fail(format!("job {job} runs unknown model {model}"));
                    continue;
                };
                self.jobs.insert(
                    *job,
                    JobRec {
                        model: m,
                        stream: None,
                        kernels: 0,
                    },
                );
                step.inputs.push((e.at, *job));
            }
        }
        self.counts.events += log.events.len() as u64;
        for e in log.events {
            match e.event {
                TraceEvent::KernelDispatched {
                    job,
                    kernel,
                    stream,
                    grid_blocks,
                } => {
                    self.counts.kernels += 1;
                    let Some(j) = self.jobs.get_mut(&job) else {
                        self.fail(format!("kernel {kernel} of unknown job {job}"));
                        continue;
                    };
                    let desc = self.served[j.model].0.get(j.kernels).cloned();
                    j.kernels += 1;
                    if *j.stream.get_or_insert(stream) != stream {
                        self.fail(format!("job {job} launched on two streams"));
                    }
                    match desc {
                        Some(desc) if desc.grid_blocks == grid_blocks => {
                            step.launches.push(Launch {
                                uid: kernel as u32,
                                stream,
                                done: e.at,
                                desc,
                            });
                        }
                        _ => self.fail(format!(
                            "kernel {kernel} of job {job} matches no model kernel"
                        )),
                    }
                }
                TraceEvent::KernelCompleted { kernel } => {
                    self.completed.insert(kernel as u32, e.at);
                    done.push(kernel as u32);
                }
                TraceEvent::NotifBatch {
                    kernel,
                    sm,
                    placement,
                    blocks,
                } => {
                    self.counts.notif_words += 1;
                    let (sm, uid, g) = (sm as u8, kernel as u32, blocks as u16);
                    notifs.push(if placement {
                        Notification::placement(sm, uid, g)
                    } else {
                        Notification::completion(sm, uid, g)
                    });
                }
                TraceEvent::SmSpanBegin { .. } => self.counts.sm_groups += 1,
                TraceEvent::HwQueueStall { .. } => self.counts.hwq_stalls += 1,
                TraceEvent::SchedDecision { ready, .. } => {
                    self.counts.sched_picks += 1;
                    self.counts.ready_sum += u64::from(ready);
                }
                TraceEvent::OccupancyHold { reason, .. } => match reason {
                    HoldReason::OccupancyBudget => self.counts.occupancy_holds += 1,
                    HoldReason::NotifqBackpressure => self.counts.notifq_holds += 1,
                    HoldReason::StreamPool | HoldReason::DepWait => {}
                },
                TraceEvent::HostOp { .. } => self.counts.hostops += 1,
                TraceEvent::JobJourney {
                    jct_ns,
                    client_send_recv_ns,
                    communication_ns,
                    framework_ns,
                    device_ns,
                    retry_backoff_ns,
                    queue_dep_ns,
                    queue_occupancy_ns,
                    queue_hol_ns,
                    ..
                } => {
                    let p = &mut self.phases;
                    p.journeys += 1;
                    let sum = client_send_recv_ns
                        + communication_ns
                        + framework_ns
                        + device_ns
                        + retry_backoff_ns
                        + queue_dep_ns
                        + queue_occupancy_ns
                        + queue_hol_ns;
                    if sum != jct_ns {
                        p.unbalanced += 1;
                    }
                    p.jct += jct_ns;
                    p.device += device_ns;
                    p.queue_hol += queue_hol_ns;
                    p.queue_occupancy += queue_occupancy_ns;
                    p.queue_dep += queue_dep_ns;
                    p.framework += framework_ns;
                    p.communication += communication_ns;
                    p.client_send_recv += client_send_recv_ns;
                }
                _ => {}
            }
        }
        // The dispatcher handles a step's device outputs (notifications,
        // then completions) before it dispatches.
        self.occ.extend(notifs.into_iter().map(OccCmd::Notif));
        for uid in done {
            if self.mirrored.remove(&uid) {
                self.occ.push(OccCmd::Done(uid));
            }
        }
        for l in &step.launches {
            if l.desc.instrumentation.is_some() {
                self.mirrored.insert(l.uid);
                self.occ
                    .push(OccCmd::Launch(l.uid, l.desc.footprint, l.desc.grid_blocks));
            }
        }
        if !step.inputs.is_empty() || !step.launches.is_empty() {
            self.steps.push(step);
        }
    }

    /// Builds the device-side replay: the launches and copies the system
    /// issued, each preceded by the device advance that preceded it.
    pub fn gpu_replay(
        &self,
        device: &DeviceConfig,
        channels: &ChannelConfig,
        completions: &[JobCompletion],
    ) -> Result<GpuReplay, String> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let copy_charge = channels.cuda.memcpy_overhead;
        let launch_latency = channels.cuda.launch_latency;
        let one_ns = SimDuration::from_nanos(1);
        let stream_of = |job: u64| -> Result<StreamId, String> {
            self.jobs
                .get(&job)
                .and_then(|j| j.stream)
                .map(StreamId)
                .ok_or_else(|| format!("job {job} never launched a kernel"))
        };
        let mut next_copy = 0u64;
        let mut copy = |stream, bytes, dir| {
            next_copy += 1;
            MemcpyOp {
                uid: MemcpyUid(next_copy),
                stream,
                bytes,
                dir,
            }
        };
        // (device advance target, class, command); steps sort before the
        // output copies issued at the same instant.
        let mut timeline: Vec<(SimTime, u8, Vec<GpuCmd>)> = Vec::new();
        for s in &self.steps {
            let mut issued: Vec<(SimTime, u8, u32, GpuCmd)> = Vec::new();
            for &(ingested, job) in &s.inputs {
                let bytes = self.served[self.jobs[&job].model].1;
                let at = ingested.saturating_add(copy_charge);
                let op = copy(stream_of(job)?, bytes, CopyDir::HostToDevice);
                issued.push((at, 0, 0, GpuCmd::Copy(at, op)));
            }
            for l in &s.launches {
                let launch = KernelLaunch {
                    uid: l.uid,
                    stream: StreamId(l.stream),
                    desc: l.desc.clone(),
                };
                let at = l.done.saturating_add(launch_latency);
                issued.push((l.done, 1, l.uid, GpuCmd::Launch(at, launch)));
            }
            issued.sort_by_key(|c| (c.0, c.1, c.2));
            let mut cmds = vec![GpuCmd::Advance(s.t)];
            cmds.extend(issued.into_iter().map(|c| c.3));
            timeline.push((s.t, 0, cmds));
        }
        let mut outputs_done = HashMap::new();
        for c in completions {
            let job = c.job.0;
            let Some(j) = self.jobs.get(&job) else {
                return Err(format!("completion for unrecorded job {job}"));
            };
            let bytes = self.served[j.model].2;
            let dur = device.copy_time(bytes).max(one_ns);
            let start =
                SimTime::from_nanos(c.device_done_at.as_nanos().saturating_sub(dur.as_nanos()));
            let op = copy(stream_of(job)?, bytes, CopyDir::DeviceToHost);
            outputs_done.insert(op.uid, c.device_done_at);
            let before = SimTime::from_nanos(start.as_nanos().saturating_sub(1));
            timeline.push((
                before,
                1,
                vec![GpuCmd::Advance(before), GpuCmd::Copy(start, op)],
            ));
        }
        timeline.sort_by_key(|e| (e.0, e.1));
        Ok(GpuReplay {
            cmds: timeline.into_iter().flat_map(|e| e.2).collect(),
            outputs_done,
        })
    }

    /// Builds the occupancy-mirror replay.
    pub fn occupancy_replay(&self) -> OccReplay {
        OccReplay {
            cmds: self.occ.clone(),
        }
    }

    /// Compares a device replay's outputs with the traced run.
    pub fn check_gpu(
        &self,
        replay: &GpuReplay,
        out: &GpuRun,
        notifs_processed: u64,
    ) -> Result<(), String> {
        if out.completed.len() != self.completed.len() {
            return Err(format!(
                "replay completed {} kernels, the traced run {}",
                out.completed.len(),
                self.completed.len()
            ));
        }
        for (uid, at) in &out.completed {
            match self.completed.get(uid) {
                Some(t) if t == at => {}
                Some(t) => {
                    return Err(format!(
                        "kernel {uid} completed at {} ns in replay, {} ns traced",
                        at.as_nanos(),
                        t.as_nanos()
                    ))
                }
                None => return Err(format!("replay completed untraced kernel {uid}")),
            }
        }
        for (uid, at) in &out.copies_done {
            if let Some(want) = replay.outputs_done.get(uid) {
                if want != at {
                    return Err(format!(
                        "output copy ended at {} ns in replay, {} ns traced",
                        at.as_nanos(),
                        want.as_nanos()
                    ));
                }
            }
        }
        if out.notif_words != notifs_processed || out.notif_words != self.counts.notif_words {
            return Err(format!(
                "replay emitted {} notification words, dispatcher processed {notifs_processed}, trace holds {}",
                out.notif_words, self.counts.notif_words
            ));
        }
        Ok(())
    }
}

/// One device-side replay command.
#[derive(Clone)]
pub enum GpuCmd {
    /// Run the device's events up to and including this instant.
    Advance(SimTime),
    /// Submit a launch at this instant.
    Launch(SimTime, KernelLaunch),
    /// Submit a copy at this instant.
    Copy(SimTime, MemcpyOp),
}

/// A prepared device replay.
#[derive(Clone)]
pub struct GpuReplay {
    cmds: Vec<GpuCmd>,
    /// End instant of every output copy, as the traced run saw it.
    outputs_done: HashMap<MemcpyUid, SimTime>,
}

/// What a device replay produced.
pub struct GpuRun {
    /// Host time in `GpuSim` calls.
    pub wall: Duration,
    /// Completion instant per kernel.
    pub completed: HashMap<u32, SimTime>,
    /// End instant per copy.
    pub copies_done: HashMap<MemcpyUid, SimTime>,
    /// Notification words emitted.
    pub notif_words: u64,
}

impl GpuReplay {
    /// Runs the replay on a fresh device built like the system's own.
    pub fn run(self, device: &DeviceConfig, seed: u64) -> GpuRun {
        let mut gpu = GpuSim::new(device.clone(), seed);
        let mut sink = Vec::with_capacity(self.cmds.len() * 4);
        let t0 = Instant::now();
        for cmd in self.cmds {
            match cmd {
                GpuCmd::Advance(t) => gpu.advance_until(t, &mut sink),
                GpuCmd::Launch(at, l) => gpu.launch_kernel(at, l),
                GpuCmd::Copy(at, op) => gpu.enqueue_memcpy(at, op),
            }
        }
        while let Some(t) = gpu.next_time() {
            gpu.advance_until(t, &mut sink);
        }
        let wall = t0.elapsed();
        std::hint::black_box(&gpu);
        let mut run = GpuRun {
            wall,
            completed: HashMap::new(),
            copies_done: HashMap::new(),
            notif_words: 0,
        };
        for o in sink {
            match o {
                GpuOutput::KernelCompleted { uid, at } => {
                    run.completed.insert(uid, at);
                }
                GpuOutput::MemcpyCompleted { uid, at } => {
                    run.copies_done.insert(uid, at);
                }
                GpuOutput::Notif { .. } => run.notif_words += 1,
            }
        }
        run
    }
}

/// A prepared occupancy-mirror replay.
pub struct OccReplay {
    cmds: Vec<OccCmd>,
}

/// What an occupancy replay produced.
pub struct OccRun {
    /// Host time in `OccupancyTracker` calls.
    pub wall: Duration,
    /// Words folded.
    pub words: u64,
    /// Blocks the mirror still holds resident at the end.
    pub resident_blocks: u64,
    /// Kernels the mirror still tracks at the end.
    pub tracked_kernels: usize,
}

impl OccReplay {
    /// Runs the replay on a fresh mirror of `device`.
    pub fn run(self, device: &DeviceConfig) -> OccRun {
        let mut occ = OccupancyTracker::new(device.num_sms, device.sm_limits);
        let mut words = 0u64;
        let t0 = Instant::now();
        for cmd in self.cmds {
            match cmd {
                OccCmd::Launch(uid, fp, blocks) => occ.on_launch(uid, fp, blocks),
                OccCmd::Notif(n) => {
                    words += 1;
                    occ.on_notification(n);
                }
                OccCmd::Done(uid) => occ.on_kernel_completed(uid),
            }
        }
        let wall = t0.elapsed();
        OccRun {
            wall,
            words,
            resident_blocks: occ.resident_blocks(),
            tracked_kernels: occ.tracked_kernels(),
        }
    }
}
