//! The discrete-event GPU engine.
//!
//! This module simulates the scheduling behaviour of an NVIDIA GPU as
//! documented in §2.1 of the paper and the real-time-systems literature it
//! cites:
//!
//! * Kernel launches enter one of a fixed number of **hardware queues**
//!   (stream → queue per [`Microarch`](crate::config::Microarch)).
//! * Each queue is **strictly FIFO**: the block scheduler only examines the
//!   queue's *head* kernel; a head whose stream dependency is unsatisfied
//!   stalls the whole queue (Head-of-Line blocking).
//! * Placing a block statically allocates its footprint on an SM until the
//!   block finishes ([`SmUsage`]).
//! * **Stream semantics**: operations on the same stream execute in issue
//!   order; an op starts only after its predecessor on that stream completed.
//! * Memory copies run on copy engines, FIFO per engine, overlapping compute.
//!
//! Blocks are placed in *groups* — the run of identical blocks that fits on
//! one SM at one instant — which keeps the event count per kernel at
//! O(#SMs) instead of O(#blocks) without changing any resource accounting.
//!
//! The engine is driven by its host: call [`GpuSim::launch_kernel`] /
//! [`GpuSim::enqueue_memcpy`], then [`GpuSim::advance_until`] to pump
//! simulated time forward and collect host-visible [`GpuOutput`]s.

use std::collections::{HashMap, VecDeque};

use paella_channels::{KernelUid, Notification};
use paella_sim::rng::Xoshiro256pp;
use paella_sim::{EventQueue, IdBuildHasher, SimDuration, SimTime};
use paella_telemetry::{TraceEvent, TraceLog, Tracer};

use crate::config::DeviceConfig;
use crate::kernel::{KernelLaunch, StreamId};
use crate::resources::SmUsage;

/// Identifier of a memory-copy operation, assigned by the host.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MemcpyUid(pub u64);

/// Direction of a PCIe copy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CopyDir {
    /// Host → device.
    HostToDevice,
    /// Device → host.
    DeviceToHost,
}

/// A memory-copy command submitted to a stream.
#[derive(Clone, Copy, Debug)]
pub struct MemcpyOp {
    /// Host-assigned id, echoed in the completion output.
    pub uid: MemcpyUid,
    /// Stream the copy is ordered on.
    pub stream: StreamId,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Copy direction (selects the copy engine on 2-engine parts).
    pub dir: CopyDir,
}

/// Host-visible outputs of the device, in timestamp order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GpuOutput {
    /// A kernel's last block finished at `at` (host observes this through
    /// stream queries/synchronization, which add their own cost).
    KernelCompleted {
        /// The launch's unique id.
        uid: KernelUid,
        /// Completion time on the device.
        at: SimTime,
    },
    /// An instrumented-kernel notification became visible to a polling host
    /// thread at `at` (device write + PCIe visibility already included).
    Notif {
        /// The decoded notification word.
        n: Notification,
        /// Host visibility time.
        at: SimTime,
    },
    /// A memory copy finished at `at`.
    MemcpyCompleted {
        /// The op's host-assigned id.
        uid: MemcpyUid,
        /// Completion time.
        at: SimTime,
    },
}

/// One entry in the execution trace (for tests, Fig. 1, and debugging).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Kernel that the block group belongs to.
    pub uid: KernelUid,
    /// Kernel name.
    pub name: std::sync::Arc<str>,
    /// SM the group was placed on.
    pub sm: u32,
    /// Number of blocks in the group.
    pub blocks: u32,
    /// Placement time.
    pub start: SimTime,
    /// Completion time.
    pub end: SimTime,
}

#[derive(Clone, Debug)]
enum Ev {
    /// A launch reached its hardware queue and may now be considered.
    QueueArrival { uid: KernelUid },
    /// A placed wave of block groups finished; `allocs` holds the per-SM
    /// block counts, `start` the placement time (for tracing).
    GroupFinish {
        uid: KernelUid,
        wave: u32,
        start: SimTime,
        allocs: Vec<(u32, u32)>,
    },
    /// A memcpy finished on its engine.
    CopyFinish { uid: MemcpyUid, engine: u32 },
}

/// Per-stream op, in issue order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StreamOp {
    Kernel(KernelUid),
    Copy(MemcpyUid),
}

#[derive(Debug, Default)]
struct StreamState {
    /// Ops issued on this stream that have not yet *completed*, in order.
    /// Only the front op may run.
    pending: VecDeque<StreamOp>,
}

struct KernelState {
    launch: KernelLaunch,
    /// Blocks not yet placed.
    unplaced: u32,
    /// Blocks placed but not finished.
    running: u32,
    /// Whether the launch has reached its hardware queue.
    in_queue: bool,
    /// Blocks that have finished.
    finished_blocks: u32,
    /// Placement waves issued so far (telemetry span key).
    waves: u32,
}

struct CopyEngine {
    /// Queue of (uid, bytes) waiting, front is running.
    queue: VecDeque<(MemcpyUid, usize)>,
    /// When the currently running copy finishes (if any).
    busy_until: Option<SimTime>,
}

/// The simulated GPU.
pub struct GpuSim {
    cfg: DeviceConfig,
    rng: Xoshiro256pp,
    events: EventQueue<Ev>,
    sms: Vec<SmUsage>,
    /// Hardware queues of kernels, in arrival order.
    queues: Vec<VecDeque<KernelUid>>,
    kernels: HashMap<KernelUid, KernelState, IdBuildHasher>,
    streams: HashMap<StreamId, StreamState, IdBuildHasher>,
    copy_engines: Vec<CopyEngine>,
    outputs: Vec<GpuOutput>,
    rr_sm: usize,
    resident_blocks: u64,
    /// Integral of resident blocks over time (block·ns), for utilization
    /// reporting.
    occupancy_integral: u128,
    /// Wall time of the last `resident_blocks` change.
    last_resident_change: SimTime,
    /// Aggregate free resources across all SMs — a cheap upper bound that
    /// lets the block scheduler skip the per-SM scan when nothing can fit.
    free_slots: u64,
    free_threads: u64,
    free_regs: u64,
    free_shmem: u64,
    trace: Option<Vec<TraceEntry>>,
    /// Structured telemetry sink (no-op unless enabled by the host).
    tracer: Tracer,
    /// Round-robin cursor over the hardware queues.
    rr_queue: usize,
    /// Copies submitted but not yet at the front of their stream.
    pending_copies: Vec<(MemcpyOp, SimTime)>,
    /// Stream of each copy currently queued on an engine.
    copy_streams: HashMap<MemcpyUid, StreamId, IdBuildHasher>,
    /// Last hardware-queue arrival time per stream: same-stream launches
    /// reach the queue in issue order even if host timestamps interleave
    /// (the CUDA runtime serializes per-stream submission).
    last_arrival: HashMap<StreamId, SimTime, IdBuildHasher>,
}

impl GpuSim {
    /// Creates a device in the idle state.
    pub fn new(cfg: DeviceConfig, seed: u64) -> Self {
        let num_sms = cfg.num_sms as usize;
        let num_queues = cfg.num_hw_queues as usize;
        let engines = cfg.copy_engines.max(1) as usize;
        let lim = cfg.sm_limits;
        GpuSim {
            cfg,
            rng: Xoshiro256pp::seed_from_u64(seed),
            events: EventQueue::new(),
            sms: vec![SmUsage::default(); num_sms],
            queues: vec![VecDeque::new(); num_queues],
            kernels: HashMap::default(),
            streams: HashMap::default(),
            copy_engines: (0..engines)
                .map(|_| CopyEngine {
                    queue: VecDeque::new(),
                    busy_until: None,
                })
                .collect(),
            outputs: Vec::new(),
            rr_sm: 0,
            resident_blocks: 0,
            occupancy_integral: 0,
            last_resident_change: SimTime::ZERO,
            free_slots: num_sms as u64 * u64::from(lim.max_blocks),
            free_threads: num_sms as u64 * u64::from(lim.max_threads),
            free_regs: num_sms as u64 * u64::from(lim.max_registers),
            free_shmem: num_sms as u64 * u64::from(lim.max_shmem),
            trace: None,
            tracer: Tracer::disabled(),
            rr_queue: 0,
            pending_copies: Vec::new(),
            last_arrival: HashMap::default(),
            copy_streams: HashMap::default(),
        }
    }

    /// Enables trace recording (see [`GpuSim::take_trace`]).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Takes the recorded trace, leaving recording enabled.
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Enables structured telemetry: hardware-queue, per-SM placement, and
    /// completion events flow into the given sink.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Takes everything the telemetry sink recorded so far.
    pub fn take_trace_log(&mut self) -> TraceLog {
        self.tracer.take()
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Ground-truth count of currently resident (placed, unfinished) blocks.
    pub fn resident_blocks(&self) -> u64 {
        self.resident_blocks
    }

    fn account_occupancy(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_resident_change).as_nanos();
        self.occupancy_integral += u128::from(dt) * u128::from(self.resident_blocks);
        self.last_resident_change = self.last_resident_change.max(now);
    }

    /// Average resident blocks over `[0, until]` — the device-utilization
    /// ground truth behind the paper's 32/176 = 18 % HoL claim.
    pub fn mean_occupancy(&self, until: SimTime) -> f64 {
        let dt = until.saturating_since(self.last_resident_change).as_nanos();
        let integral = self.occupancy_integral + u128::from(dt) * u128::from(self.resident_blocks);
        if until == SimTime::ZERO {
            0.0
        } else {
            integral as f64 / until.as_nanos() as f64
        }
    }

    /// Ground-truth usage of one SM.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range.
    pub fn sm_usage(&self, sm: u32) -> SmUsage {
        self.sms[sm as usize]
    }

    /// Number of kernels the device still knows about (queued or running).
    pub fn inflight_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// Whether all queues, SMs, and copy engines are idle.
    pub fn is_idle(&self) -> bool {
        self.kernels.is_empty()
            && self
                .copy_engines
                .iter()
                .all(|e| e.busy_until.is_none() && e.queue.is_empty())
    }

    /// Submits a kernel launch at time `now`. Host-side launch overhead must
    /// already be accounted by the caller; the kernel becomes schedulable
    /// after the device's internal `queue_to_scheduler` delay.
    ///
    /// # Panics
    ///
    /// Panics if the launch's `uid` is already in flight.
    pub fn launch_kernel(&mut self, now: SimTime, launch: KernelLaunch) {
        assert!(
            !self.kernels.contains_key(&launch.uid),
            "kernel uid {:?} already in flight",
            launch.uid
        );
        self.catch_up(now);
        let uid = launch.uid;
        let stream = launch.stream;
        let blocks = launch.desc.grid_blocks;
        assert!(blocks > 0, "kernel must have at least one block");
        self.streams
            .entry(stream)
            .or_default()
            .pending
            .push_back(StreamOp::Kernel(uid));
        self.kernels.insert(
            uid,
            KernelState {
                launch,
                unplaced: blocks,
                running: 0,
                in_queue: false,
                finished_blocks: 0,
                waves: 0,
            },
        );
        let delay = self.cfg.queue_to_scheduler;
        let mut at = now.saturating_add(delay).max(self.events.now());
        // Same-stream launches reach the hardware queue in issue order even
        // when host-side timestamps interleave across submitting threads.
        if let Some(&prev) = self.last_arrival.get(&stream) {
            at = at.max(prev);
        }
        self.last_arrival.insert(stream, at);
        self.events.schedule_at(at, Ev::QueueArrival { uid });
    }

    /// Submits an async memory copy at time `now`.
    pub fn enqueue_memcpy(&mut self, now: SimTime, op: MemcpyOp) {
        self.catch_up(now);
        self.streams
            .entry(op.stream)
            .or_default()
            .pending
            .push_back(StreamOp::Copy(op.uid));
        // Stash the op so it can start when it reaches the stream front.
        self.pending_copies.push((op, now));
        self.try_start_copies(now);
    }

    /// Earliest pending internal event, if any.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Processes all internal events with timestamp ≤ `t` and appends
    /// host-visible outputs (in timestamp order) to `sink`.
    pub fn advance_until(&mut self, t: SimTime, sink: &mut Vec<GpuOutput>) {
        while let Some(next) = self.events.peek_time() {
            if next > t {
                break;
            }
            let (at, ev) = self.events.pop().expect("peeked event");
            self.handle(at, ev);
        }
        sink.append(&mut self.outputs);
    }

    /// Advances internal time to at least `now` without processing events
    /// beyond it (used so `schedule_at` never fires into the past).
    fn catch_up(&mut self, now: SimTime) {
        debug_assert!(
            self.events
                .peek_time()
                .is_none_or(|t| t >= self.events.now()),
            "event queue corrupt"
        );
        // `EventQueue::now` only advances on pop; nothing to do here other
        // than assert the host is not travelling backwards.
        let _ = now;
    }

    fn handle(&mut self, at: SimTime, ev: Ev) {
        match ev {
            Ev::QueueArrival { uid } => {
                let k = self
                    .kernels
                    .get_mut(&uid)
                    .expect("arrival for unknown kernel");
                k.in_queue = true;
                let stream = k.launch.stream.0;
                let q = self.cfg.queue_for_stream(stream) as usize;
                self.queues[q].push_back(uid);
                self.tracer.record_with(at, || TraceEvent::KernelQueued {
                    kernel: u64::from(uid),
                    stream,
                    hw_queue: q as u32,
                });
                self.schedule_blocks(at);
            }
            Ev::GroupFinish {
                uid,
                wave,
                start,
                allocs,
            } => {
                self.on_group_finish(at, uid, wave, start, &allocs);
            }
            Ev::CopyFinish { uid, engine } => {
                self.on_copy_finish(at, uid, engine);
            }
        }
    }

    /// The hardware block scheduler: one pass over the queue heads, placing
    /// whatever fits, strictly FIFO within each queue. A single pass is
    /// complete because placements only *consume* resources — a queue head
    /// becomes eligible through completions or arrivals, both of which call
    /// back into this scheduler.
    fn schedule_blocks(&mut self, now: SimTime) {
        let nq = self.queues.len();
        for i in 0..nq {
            let qi = (self.rr_queue + i) % nq;
            while let Some(&head) = self.queues[qi].front() {
                if !self.stream_ready(head) {
                    // HoL blocking: an ineligible head stalls this queue.
                    self.tracer.record_with(now, || TraceEvent::HwQueueStall {
                        hw_queue: qi as u32,
                        kernel: u64::from(head),
                    });
                    break;
                }
                self.place_head_blocks(now, head);
                let k = &self.kernels[&head];
                if k.unplaced == 0 {
                    // Fully placed: the kernel leaves the hardware queue;
                    // the next kernel in this queue may now be considered.
                    self.queues[qi].pop_front();
                } else {
                    // Strict FIFO: cannot look past a partially placed head.
                    break;
                }
            }
        }
        self.rr_queue = (self.rr_queue + 1) % nq;
    }

    /// Whether `uid` is at the front of its stream (its predecessor finished).
    fn stream_ready(&self, uid: KernelUid) -> bool {
        let k = &self.kernels[&uid];
        self.streams
            .get(&k.launch.stream)
            .and_then(|s| s.pending.front())
            .is_some_and(|&front| front == StreamOp::Kernel(uid))
    }

    /// Places as many blocks of `uid` as fit right now, as one *wave*: a
    /// single pass over the SMs allocating per-SM groups, scheduled as one
    /// finish event. This keeps the event count per kernel at O(waves)
    /// instead of O(per-SM groups) without changing resource accounting.
    fn place_head_blocks(&mut self, now: SimTime, uid: KernelUid) {
        let (mut unplaced, fp, instr, total_blocks) = {
            let k = &self.kernels[&uid];
            (
                k.unplaced,
                k.launch.desc.footprint,
                k.launch.desc.instrumentation,
                k.launch.desc.grid_blocks,
            )
        };
        if unplaced == 0 {
            return;
        }
        // Cheap aggregate bound: if even the device-wide free resources
        // cannot host a worthwhile wave, skip the per-SM scan entirely (the
        // common case on a saturated device). Waves are quantized to 1/8 of
        // a device fill so a large kernel back-fills in a handful of events
        // instead of block-by-block; the resulting timing shift is bounded
        // by one wave's drain time, far below the latencies measured.
        let per_sm_fit = u64::from(crate::resources::blocks_per_sm(&fp, &self.cfg.sm_limits));
        let quantum = u64::from(unplaced).min((per_sm_fit * self.sms.len() as u64 / 8).max(1));
        if self.free_slots < quantum
            || self.free_threads < quantum * u64::from(fp.threads)
            || self.free_regs < quantum * u64::from(fp.registers())
            || self.free_shmem < quantum * u64::from(fp.shmem)
        {
            return;
        }
        // Round-robin wave over the SMs.
        let num_sms = self.sms.len();
        let mut allocs: Vec<(u32, u32)> = Vec::new();
        for i in 0..num_sms {
            if unplaced == 0 {
                break;
            }
            let smi = (self.rr_sm + i) % num_sms;
            let fit = self.sms[smi].fit_count(&fp, &self.cfg.sm_limits);
            if fit == 0 {
                continue;
            }
            let group = fit.min(unplaced);
            self.sms[smi].allocate(&fp, group, &self.cfg.sm_limits);
            debug_assert!(
                self.free_slots >= u64::from(group)
                    && self.free_threads >= u64::from(group) * u64::from(fp.threads)
                    && self.free_regs >= u64::from(group) * u64::from(fp.registers())
                    && self.free_shmem >= u64::from(group) * u64::from(fp.shmem),
                "free-resource gauge underflow: fit_count over-reported"
            );
            self.free_slots -= u64::from(group);
            self.free_threads -= u64::from(group) * u64::from(fp.threads);
            self.free_regs -= u64::from(group) * u64::from(fp.registers());
            self.free_shmem -= u64::from(group) * u64::from(fp.shmem);
            unplaced -= group;
            allocs.push((smi as u32, group));
        }
        if allocs.is_empty() {
            return;
        }
        self.rr_sm = (self.rr_sm + 1) % num_sms;
        let placed: u32 = allocs.iter().map(|&(_, g)| g).sum();
        self.account_occupancy(now);
        self.resident_blocks += u64::from(placed);

        // Sample one duration for the wave and add instrumentation overhead.
        let mut dur = {
            let k = &self.kernels[&uid];
            k.launch.desc.duration.sample(&mut self.rng)
        };
        if let Some(spec) = instr {
            // The notification epilogue serializes blocks on the queue-tail
            // atomic and the start/end counters. In short waves every block
            // hits the atomics nearly simultaneously and the serialization
            // lands on the critical path in full — the Fig. 15 regime of
            // (near-)empty kernels. In longer waves the block starts/ends
            // spread out, the atomic queue stays drained, and only a small
            // residue reaches the critical path.
            let _ = total_blocks;
            let oh = spec.kernel_overhead(placed);
            dur += if dur <= SimDuration::from_micros(15) {
                oh
            } else {
                oh / 8
            };
        }

        let wave = {
            let k = self.kernels.get_mut(&uid).expect("placing unknown kernel");
            debug_assert!(
                k.unplaced >= placed,
                "kernel unplaced underflow: wave placed more than remained"
            );
            k.unplaced -= placed;
            k.running += placed;
            let wave = k.waves;
            k.waves += 1;
            wave
        };

        if self.tracer.is_enabled() {
            let name = self.kernels[&uid].launch.desc.name.clone();
            for &(sm, group) in &allocs {
                let name = name.clone();
                self.tracer.record_with(now, || TraceEvent::SmSpanBegin {
                    kernel: u64::from(uid),
                    wave,
                    sm,
                    blocks: group,
                    name,
                });
            }
        }

        // Placement notifications, attributed to the SM each group landed
        // on. Aggregation batches a group's blocks into one word (groups are
        // ≤ blocks-per-SM ≈ the paper's aggregation factor of 16);
        // unaggregated instrumentation posts one word per block.
        if let Some(spec) = instr {
            for &(sm, group) in &allocs {
                self.emit_notif_words(now, uid, sm, group, spec.aggregation, true);
            }
        }

        self.events.schedule_at(
            now + dur,
            Ev::GroupFinish {
                uid,
                wave,
                start: now,
                allocs,
            },
        );
    }

    /// Emits start/end notifications for `blocks` blocks of one per-SM group.
    /// With aggregation > 1 the group posts a single batched word; without
    /// it, one word per block (Fig. 6 semantics applied per group).
    fn emit_notif_words(
        &mut self,
        now: SimTime,
        uid: KernelUid,
        sm: u32,
        blocks: u32,
        aggregation: u32,
        start: bool,
    ) {
        let visible = now + self.cfg.notif_visibility;
        let word_size = if aggregation <= 1 {
            1
        } else {
            blocks.min(u16::MAX as u32)
        };
        let mut remaining = blocks;
        while remaining > 0 {
            let g = remaining.min(word_size).max(1) as u16;
            remaining -= u32::from(g);
            // Fault injection: a dropped word models a notifQ overrun.
            if self.cfg.notif_drop_rate > 0.0 && self.rng.chance(self.cfg.notif_drop_rate) {
                continue;
            }
            let n = if start {
                Notification::placement((sm % 256) as u8, uid, g)
            } else {
                Notification::completion((sm % 256) as u8, uid, g)
            };
            self.outputs.push(GpuOutput::Notif { n, at: visible });
        }
    }

    fn on_group_finish(
        &mut self,
        at: SimTime,
        uid: KernelUid,
        wave: u32,
        start: SimTime,
        allocs: &[(u32, u32)],
    ) {
        let (fp, instr) = {
            let k = &self.kernels[&uid];
            (k.launch.desc.footprint, k.launch.desc.instrumentation)
        };
        let blocks: u32 = allocs.iter().map(|&(_, g)| g).sum();
        for &(sm, group) in allocs {
            self.sms[sm as usize].release(&fp, group);
        }
        self.free_slots += u64::from(blocks);
        self.free_threads += u64::from(blocks) * u64::from(fp.threads);
        self.free_regs += u64::from(blocks) * u64::from(fp.registers());
        self.free_shmem += u64::from(blocks) * u64::from(fp.shmem);
        self.account_occupancy(at);
        debug_assert!(
            self.resident_blocks >= u64::from(blocks),
            "resident_blocks underflow: finishing blocks that never placed"
        );
        self.resident_blocks -= u64::from(blocks);

        if self.trace.is_some() {
            let name = self.kernels[&uid].launch.desc.name.clone();
            if let Some(trace) = self.trace.as_mut() {
                for &(sm, group) in allocs {
                    trace.push(TraceEntry {
                        uid,
                        name: name.clone(),
                        sm,
                        blocks: group,
                        start,
                        end: at,
                    });
                }
            }
        }
        for &(sm, group) in allocs {
            self.tracer.record_with(at, || TraceEvent::SmSpanEnd {
                kernel: u64::from(uid),
                wave,
                sm,
                blocks: group,
            });
        }

        let kernel_done = {
            let k = self
                .kernels
                .get_mut(&uid)
                .expect("finish for unknown kernel");
            debug_assert!(
                k.running >= blocks,
                "kernel running underflow: more blocks finished than ran"
            );
            k.running -= blocks;
            k.finished_blocks += blocks;
            k.finished_blocks == k.launch.desc.grid_blocks && k.running == 0 && k.unplaced == 0
        };

        if let Some(spec) = instr {
            for &(sm, group) in allocs {
                self.emit_notif_words(at, uid, sm, group, spec.aggregation, false);
            }
        }
        if kernel_done {
            self.complete_kernel(at, uid);
        }
        // Freed resources: let the block scheduler try again.
        self.schedule_blocks(at);
    }

    fn complete_kernel(&mut self, at: SimTime, uid: KernelUid) {
        let k = self
            .kernels
            .remove(&uid)
            .expect("completing unknown kernel");
        debug_assert!(k.in_queue, "kernel completed before reaching its queue");
        let stream = k.launch.stream;
        let s = self
            .streams
            .get_mut(&stream)
            .expect("kernel without stream");
        debug_assert_eq!(s.pending.front(), Some(&StreamOp::Kernel(uid)));
        s.pending.pop_front();
        if s.pending.is_empty() {
            self.streams.remove(&stream);
        }
        self.tracer.record_with(at, || TraceEvent::KernelCompleted {
            kernel: u64::from(uid),
        });
        self.outputs.push(GpuOutput::KernelCompleted { uid, at });
        // The stream's next op may now start.
        self.try_start_copies(at);
        self.schedule_blocks(at);
    }

    // ---- memcpy machinery ----

    fn try_start_copies(&mut self, now: SimTime) {
        // Move stream-ready pending copies onto their engines.
        let mut i = 0;
        while i < self.pending_copies.len() {
            let (op, _submitted) = self.pending_copies[i];
            let ready = self
                .streams
                .get(&op.stream)
                .and_then(|s| s.pending.front())
                .is_some_and(|&front| front == StreamOp::Copy(op.uid));
            if ready {
                self.pending_copies.remove(i);
                let engine = self.engine_for(op.dir);
                self.copy_engines[engine as usize]
                    .queue
                    .push_back((op.uid, op.bytes));
                self.copy_streams.insert(op.uid, op.stream);
                self.pump_engine(now, engine);
            } else {
                i += 1;
            }
        }
    }

    fn engine_for(&self, dir: CopyDir) -> u32 {
        if self.copy_engines.len() >= 2 {
            match dir {
                CopyDir::HostToDevice => 0,
                CopyDir::DeviceToHost => 1,
            }
        } else {
            0
        }
    }

    fn pump_engine(&mut self, now: SimTime, engine: u32) {
        let e = &mut self.copy_engines[engine as usize];
        if e.busy_until.is_some() {
            return;
        }
        let Some(&(uid, bytes)) = e.queue.front() else {
            return;
        };
        let dur = self.cfg.copy_time(bytes).max(SimDuration::from_nanos(1));
        let done = now + dur;
        e.busy_until = Some(done);
        self.events
            .schedule_at(done, Ev::CopyFinish { uid, engine });
    }

    fn on_copy_finish(&mut self, at: SimTime, uid: MemcpyUid, engine: u32) {
        let e = &mut self.copy_engines[engine as usize];
        let (front, _) = e
            .queue
            .pop_front()
            .expect("engine finished with empty queue");
        debug_assert_eq!(front, uid);
        e.busy_until = None;
        let stream = self.copy_streams.remove(&uid).expect("copy without stream");
        let s = self
            .streams
            .get_mut(&stream)
            .expect("copy's stream missing");
        debug_assert_eq!(s.pending.front(), Some(&StreamOp::Copy(uid)));
        s.pending.pop_front();
        if s.pending.is_empty() {
            self.streams.remove(&stream);
        }
        self.outputs.push(GpuOutput::MemcpyCompleted { uid, at });
        self.pump_engine(at, engine);
        self.try_start_copies(at);
        self.schedule_blocks(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Microarch;
    use crate::kernel::{DurationModel, InstrumentationSpec, KernelDesc};
    use crate::resources::BlockFootprint;
    use paella_channels::NotifKind;

    fn kernel(name: &str, blocks: u32, threads: u32, dur_us: u64) -> KernelDesc {
        KernelDesc {
            name: name.to_string().into(),
            grid_blocks: blocks,
            footprint: BlockFootprint {
                threads,
                regs_per_thread: 9,
                shmem: 0,
            },
            duration: DurationModel::fixed(SimDuration::from_micros(dur_us)),
            instrumentation: None,
        }
    }

    fn drain_all(gpu: &mut GpuSim) -> Vec<GpuOutput> {
        let mut out = Vec::new();
        while let Some(t) = gpu.next_time() {
            gpu.advance_until(t, &mut out);
        }
        out
    }

    fn completion_time(out: &[GpuOutput], uid: KernelUid) -> SimTime {
        out.iter()
            .find_map(|o| match o {
                GpuOutput::KernelCompleted { uid: u, at } if *u == uid => Some(*at),
                _ => None,
            })
            .expect("kernel completed")
    }

    #[test]
    fn single_kernel_runs_and_completes() {
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 1,
                stream: StreamId(1),
                desc: kernel("k", 40, 128, 100),
            },
        );
        let out = drain_all(&mut gpu);
        let t = completion_time(&out, 1);
        // 40 blocks over 40 SMs: one wave of 100 µs plus queue delay.
        assert_eq!(
            t,
            SimTime::ZERO + gpu.config().queue_to_scheduler + SimDuration::from_micros(100)
        );
        assert!(gpu.is_idle());
        assert_eq!(gpu.resident_blocks(), 0);
    }

    #[test]
    fn stream_serializes_kernels() {
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
        for uid in 1..=3 {
            gpu.launch_kernel(
                SimTime::ZERO,
                KernelLaunch {
                    uid,
                    stream: StreamId(1),
                    desc: kernel("k", 1, 128, 100),
                },
            );
        }
        let out = drain_all(&mut gpu);
        let t1 = completion_time(&out, 1);
        let t2 = completion_time(&out, 2);
        let t3 = completion_time(&out, 3);
        assert!(t2 >= t1 + SimDuration::from_micros(100));
        assert!(t3 >= t2 + SimDuration::from_micros(100));
    }

    #[test]
    fn independent_streams_run_concurrently() {
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
        for uid in 1..=4u32 {
            gpu.launch_kernel(
                SimTime::ZERO,
                KernelLaunch {
                    uid,
                    stream: StreamId(uid),
                    desc: kernel("k", 1, 128, 100),
                },
            );
        }
        let out = drain_all(&mut gpu);
        let last = (1..=4).map(|u| completion_time(&out, u)).max().unwrap();
        // All four fit simultaneously; total ≈ one kernel duration.
        assert!(last < SimTime::from_micros(110), "last = {last}");
    }

    #[test]
    fn hol_blocking_in_shared_queue() {
        // Two streams mapped to the same hardware queue (1-queue device):
        // the second stream's kernel waits even though SMs are idle.
        let cfg = DeviceConfig::tiny(4, 1, Microarch::Fermi);
        let mut gpu = GpuSim::new(cfg, 1);
        // Stream 1: two dependent kernels (the second blocks the queue head).
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 1,
                stream: StreamId(1),
                desc: kernel("a1", 1, 1024, 100),
            },
        );
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 2,
                stream: StreamId(1),
                desc: kernel("a2", 1, 1024, 100),
            },
        );
        // Stream 2: independent kernel, issued after, same queue.
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 3,
                stream: StreamId(2),
                desc: kernel("b1", 1, 1024, 100),
            },
        );
        let out = drain_all(&mut gpu);
        let t3 = completion_time(&out, 3);
        // b1 is stuck behind a2, which waits for a1: it completes only in the
        // second "round" despite 3 idle SMs.
        assert!(
            t3 >= SimTime::from_micros(200),
            "t3 = {t3} (no HoL blocking?)"
        );
    }

    #[test]
    fn multi_queue_avoids_false_dependency() {
        // Same workload, 32-queue device: b1 runs immediately.
        let cfg = DeviceConfig::tiny(4, 32, Microarch::KeplerPlus);
        let mut gpu = GpuSim::new(cfg, 1);
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 1,
                stream: StreamId(1),
                desc: kernel("a1", 1, 1024, 100),
            },
        );
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 2,
                stream: StreamId(1),
                desc: kernel("a2", 1, 1024, 100),
            },
        );
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 3,
                stream: StreamId(2),
                desc: kernel("b1", 1, 1024, 100),
            },
        );
        let out = drain_all(&mut gpu);
        assert!(completion_time(&out, 3) <= SimTime::from_micros(101));
    }

    #[test]
    fn resource_waves_when_oversubscribed() {
        // 88 blocks of 128 threads on a 22-SM Turing part: 8 blocks/SM → 176
        // capacity, so all 88 run in one wave; 352 blocks need two waves.
        let cfg = DeviceConfig::gtx_1660_super();
        let mut gpu = GpuSim::new(cfg, 1);
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 1,
                stream: StreamId(1),
                desc: kernel("one-wave", 176, 128, 100),
            },
        );
        let out = drain_all(&mut gpu);
        let t = completion_time(&out, 1);
        assert!(t <= SimTime::from_micros(101), "one wave expected, t = {t}");

        let mut gpu = GpuSim::new(DeviceConfig::gtx_1660_super(), 1);
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 2,
                stream: StreamId(1),
                desc: kernel("two-waves", 352, 128, 100),
            },
        );
        let out = drain_all(&mut gpu);
        let t = completion_time(&out, 2);
        assert!(
            t >= SimTime::from_micros(200),
            "two waves expected, t = {t}"
        );
        assert!(t <= SimTime::from_micros(201));
    }

    #[test]
    fn instrumented_kernel_emits_paired_notifications() {
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
        let desc = kernel("instr", 33, 128, 50).instrumented(InstrumentationSpec::default());
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 9,
                stream: StreamId(1),
                desc,
            },
        );
        let out = drain_all(&mut gpu);
        let mut started = 0u32;
        let mut finished = 0u32;
        for o in &out {
            if let GpuOutput::Notif { n, .. } = o {
                assert_eq!(n.kernel, 9);
                match n.kind {
                    NotifKind::Placement => started += u32::from(n.group),
                    NotifKind::Completion => finished += u32::from(n.group),
                }
            }
        }
        assert_eq!(
            started, 33,
            "placement notifications must cover every block"
        );
        assert_eq!(
            finished, 33,
            "completion notifications must cover every block"
        );
    }

    #[test]
    fn uninstrumented_kernel_emits_no_notifications() {
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 9,
                stream: StreamId(1),
                desc: kernel("plain", 16, 128, 50),
            },
        );
        let out = drain_all(&mut gpu);
        assert!(!out.iter().any(|o| matches!(o, GpuOutput::Notif { .. })));
    }

    #[test]
    fn instrumentation_overhead_slows_completion() {
        let run = |instr: Option<InstrumentationSpec>| {
            let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
            let mut desc = kernel("k", 160, 32, 10);
            desc.instrumentation = instr;
            gpu.launch_kernel(
                SimTime::ZERO,
                KernelLaunch {
                    uid: 1,
                    stream: StreamId(1),
                    desc,
                },
            );
            let out = drain_all(&mut gpu);
            completion_time(&out, 1)
        };
        let plain = run(None);
        let noagg = run(Some(InstrumentationSpec::without_aggregation()));
        let agg = run(Some(InstrumentationSpec::default()));
        assert!(noagg > plain);
        assert!(agg > noagg, "aggregation conditional costs device time");
    }

    #[test]
    fn memcpy_respects_stream_order() {
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
        let s = StreamId(1);
        gpu.enqueue_memcpy(
            SimTime::ZERO,
            MemcpyOp {
                uid: MemcpyUid(1),
                stream: s,
                bytes: 1 << 20,
                dir: CopyDir::HostToDevice,
            },
        );
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 1,
                stream: s,
                desc: kernel("k", 1, 128, 100),
            },
        );
        gpu.enqueue_memcpy(
            SimTime::ZERO,
            MemcpyOp {
                uid: MemcpyUid(2),
                stream: s,
                bytes: 1 << 20,
                dir: CopyDir::DeviceToHost,
            },
        );
        let out = drain_all(&mut gpu);
        let t_in = out
            .iter()
            .find_map(|o| match o {
                GpuOutput::MemcpyCompleted {
                    uid: MemcpyUid(1),
                    at,
                } => Some(*at),
                _ => None,
            })
            .unwrap();
        let t_k = completion_time(&out, 1);
        let t_out = out
            .iter()
            .find_map(|o| match o {
                GpuOutput::MemcpyCompleted {
                    uid: MemcpyUid(2),
                    at,
                } => Some(*at),
                _ => None,
            })
            .unwrap();
        assert!(t_in < t_k, "H2D before kernel");
        assert!(t_k < t_out, "kernel before D2H");
        assert!(gpu.is_idle());
    }

    #[test]
    fn copies_on_different_streams_overlap_on_two_engines() {
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
        let mb = 1 << 20;
        gpu.enqueue_memcpy(
            SimTime::ZERO,
            MemcpyOp {
                uid: MemcpyUid(1),
                stream: StreamId(1),
                bytes: mb,
                dir: CopyDir::HostToDevice,
            },
        );
        gpu.enqueue_memcpy(
            SimTime::ZERO,
            MemcpyOp {
                uid: MemcpyUid(2),
                stream: StreamId(2),
                bytes: mb,
                dir: CopyDir::DeviceToHost,
            },
        );
        let out = drain_all(&mut gpu);
        let times: Vec<SimTime> = out
            .iter()
            .filter_map(|o| match o {
                GpuOutput::MemcpyCompleted { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        assert_eq!(times.len(), 2);
        // Both directions overlap: completion times are equal, not stacked.
        assert_eq!(times[0], times[1]);
    }

    #[test]
    fn trace_records_block_groups() {
        let mut gpu = GpuSim::new(DeviceConfig::tiny(2, 2, Microarch::KeplerPlus), 1);
        gpu.enable_trace();
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 1,
                stream: StreamId(1),
                desc: kernel("t", 2, 1024, 100),
            },
        );
        drain_all(&mut gpu);
        let trace = gpu.take_trace();
        assert_eq!(trace.len(), 2, "two single-block groups on two SMs");
        let sms: Vec<u32> = trace.iter().map(|t| t.sm).collect();
        assert!(sms.contains(&0) && sms.contains(&1));
        for t in &trace {
            assert_eq!((t.end - t.start).as_micros_f64(), 100.0);
        }
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn duplicate_uid_panics() {
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
        let l = KernelLaunch {
            uid: 1,
            stream: StreamId(1),
            desc: kernel("k", 1, 128, 1),
        };
        gpu.launch_kernel(SimTime::ZERO, l.clone());
        gpu.launch_kernel(SimTime::ZERO, l);
    }

    #[test]
    fn mean_occupancy_integrates_residency() {
        // One kernel: 40 blocks resident for 100 µs, then idle for 100 µs.
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 1);
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelLaunch {
                uid: 1,
                stream: StreamId(1),
                desc: kernel("k", 40, 128, 100),
            },
        );
        drain_all(&mut gpu);
        let end = SimTime::from_micros(100) + gpu.config().queue_to_scheduler;
        let m = gpu.mean_occupancy(end);
        assert!(
            (m - 40.0).abs() < 0.5,
            "full residency ≈ 40 blocks, got {m}"
        );
        let m2 = gpu.mean_occupancy(SimTime::from_micros(200));
        assert!(
            (m2 - 20.0).abs() < 0.5,
            "half-idle window ≈ 20 blocks, got {m2}"
        );
        assert_eq!(gpu.mean_occupancy(SimTime::ZERO), 0.0);
    }

    #[test]
    fn fig2_utilization_bound_job_by_job() {
        // The §2.1 experiment: 32 hardware queues full of 8-deep dependent
        // chains use at most 32 of 176 block slots → ~18 % utilization.
        let cfg = DeviceConfig::gtx_1660_super();
        let mut gpu = GpuSim::new(cfg, 7);
        // 64 jobs, each 8 kernels of 1 block × 128 threads, distinct streams.
        let mut uid = 0u32;
        for job in 0..64u32 {
            for _k in 0..8 {
                uid += 1;
                gpu.launch_kernel(
                    SimTime::ZERO,
                    KernelLaunch {
                        uid,
                        stream: StreamId(job + 1),
                        desc: kernel("syn", 1, 128, 300),
                    },
                );
            }
        }
        // After the initial placement settles, at most one kernel per
        // hardware queue can be resident (each stream's next kernel depends
        // on its predecessor; streams ≥ queues share queues).
        let mut out = Vec::new();
        gpu.advance_until(SimTime::from_micros(10), &mut out);
        assert!(
            gpu.resident_blocks() <= 32,
            "at most one block per hardware queue, got {}",
            gpu.resident_blocks()
        );
        assert!(gpu.resident_blocks() >= 30, "queues should all be busy");
    }
}
