//! Lockstep proofs for whole-DAG submission and event-triggered dispatch
//! (DESIGN §15).
//!
//! Two layers:
//!
//! * **Structure** — for random stream plans, [`KernelDag::release`] (the
//!   one release path both dispatch paths share) is replayed in lockstep
//!   against the brute-force [`StreamOracle`], releasing a random active op
//!   each step. Release may never activate an op before the oracle does (a
//!   DAG-edge violation), and may never lose or duplicate a token.
//! * **Behavior** — a real dispatcher runs the same workload with DAG
//!   dispatch on and off. A single uncontended job must produce a
//!   byte-identical completion schedule and journey; a contended burst must
//!   fall back to SRPT arbitration, conserve every kernel across the
//!   handoff, and still satisfy the journey-conservation oracle.

use proptest::prelude::*;

use paella_check::{check_journeys, StreamKind, StreamOracle};
use paella_compiler::{CompiledModel, DeviceOp, JobSchedule, KernelDag};
use paella_core::{
    ClientId, Dispatcher, DispatcherConfig, InferenceRequest, ServingSystem, SrptDeficitScheduler,
};
use paella_gpu::{DeviceConfig, KernelDesc};
use paella_models::synthetic;
use paella_sim::{SimDuration, SimTime};
use paella_telemetry::{extract_journeys, TraceEvent, TraceLog};

/// Cheap deterministic stream of choices derived from one generated seed.
fn nx(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

/// Stream id → kind. The `KernelDag` treats every non-zero stream as
/// blocking (CUDA's default), so the oracle must too.
fn kind_of(stream: u32) -> StreamKind {
    if stream == 0 {
        StreamKind::Default
    } else {
        StreamKind::Blocking
    }
}

/// An all-kernel model with the given per-op stream plan and explicit
/// backward dependencies (op index == token).
fn plan_model(streams: &[u32], deps: &[Vec<usize>]) -> CompiledModel {
    CompiledModel {
        name: "dag-prop".into(),
        ops: (0..streams.len())
            .map(|i| DeviceOp::Kernel(KernelDesc::empty(&format!("k{i}"), 1)))
            .collect(),
        schedule: Some(JobSchedule {
            streams: streams.to_vec(),
            deps: deps.to_vec(),
        }),
        input_bytes: 0,
        output_bytes: 0,
        weight_bytes: 0,
        flops: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pred-count release never violates a DAG edge and loses no tokens:
    /// for random stream plans, `KernelDag::release` and the brute-force
    /// oracle agree on every activation, and every op releases exactly
    /// once.
    #[test]
    fn kernel_dag_release_matches_stream_oracle(
        plan in proptest::collection::vec((0u32..4, 0usize..3), 1..40),
        drive in any::<u64>(),
    ) {
        let n = plan.len();
        let mut s = drive ^ 0x9E37_79B9_7F4A_7C15;
        let mut streams: Vec<u32> = Vec::with_capacity(n);
        let mut deps: Vec<Vec<usize>> = Vec::with_capacity(n);
        for (i, &(st, nd)) in plan.iter().enumerate() {
            streams.push(st);
            let mut d: Vec<usize> = Vec::new();
            for _ in 0..nd.min(i) {
                let j = (nx(&mut s) as usize) % i;
                if !d.contains(&j) {
                    d.push(j);
                }
            }
            deps.push(d);
        }
        let model = plan_model(&streams, &deps);
        let dag = KernelDag::build(&model).expect("backward deps are acyclic");
        prop_assert_eq!(dag.len(), n);

        let mut oracle = StreamOracle::new();
        let mut preds: Vec<u32> = dag.pred_counts().to_vec();
        for i in 0..n {
            let d64: Vec<u64> = deps[i].iter().map(|&j| j as u64).collect();
            oracle
                .push(streams[i], kind_of(streams[i]), i as u64, &d64)
                .expect("acyclic by construction");
        }

        // The DAG's roots are exactly the initially-active frontier.
        let mut active: Vec<u64> = dag.roots().map(|t| t as u64).collect();
        let mut oracle_active = oracle.active();
        oracle_active.sort_unstable();
        prop_assert_eq!(&active, &oracle_active, "initial frontier diverges");

        let mut released = 0usize;
        while !active.is_empty() {
            let pick = active.remove((nx(&mut s) as usize) % active.len());
            let o_newly = oracle.release(pick);
            let mut d_newly: Vec<u32> = Vec::new();
            dag.release(&mut preds, pick as usize, &mut d_newly);
            let d_newly: Vec<u64> = d_newly.into_iter().map(u64::from).collect();
            prop_assert_eq!(
                &d_newly, &o_newly,
                "DAG edge violated releasing op {}", pick
            );
            oracle.retire(pick);
            released += 1;
            active.extend(d_newly);
        }
        prop_assert_eq!(released, n, "release lost tokens");
        prop_assert!(oracle.is_empty(), "oracle still tracks ops");
        prop_assert!(preds.iter().all(|&p| p == 0), "unreleased predecessors remain");
    }
}

struct RunOut {
    schedule: String,
    journeys: String,
    kernels_completed: usize,
    completed: usize,
    log: TraceLog,
    sched_picks: u64,
    dag_releases: u64,
    fastpath_enters: u64,
    fastpath_exits: u64,
}

/// Runs `n` requests against a telemetry-enabled Paella dispatcher with DAG
/// dispatch on or off, returning a byte-comparable completion schedule and
/// journey transcript plus the fast-path counters.
fn run_dispatcher(seed: u64, n: usize, gap_ns: u64, dag: bool) -> RunOut {
    let mut cfg = DispatcherConfig::paella();
    cfg.dag_dispatch = dag;
    let mut d = Dispatcher::new(
        DeviceConfig::tesla_t4(),
        paella_channels::ChannelConfig::default(),
        Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
        cfg,
        seed,
    );
    d.enable_telemetry();
    let a = ServingSystem::register_model(&mut d, &synthetic::fig2_job());
    let b = ServingSystem::register_model(
        &mut d,
        &synthetic::uniform_job("small", 3, SimDuration::from_micros(60), 4),
    );
    let mut s = seed;
    let mut at = 0u64;
    for i in 0..n {
        let model = if i == 0 || nx(&mut s).is_multiple_of(2) {
            a
        } else {
            b
        };
        d.submit(InferenceRequest {
            client: ClientId((i % 4) as u32),
            model,
            submitted_at: SimTime::from_nanos(at),
        });
        at += gap_ns;
    }
    d.run_to_idle();
    let mut done = d.drain_completions();
    done.sort_by_key(|c| (c.client_visible_at, c.job.0));
    let schedule = done
        .iter()
        .map(|c| {
            format!(
                "{} vis={} jct={} dev={} q={} fw={} comm={} client={}",
                c.job.0,
                c.client_visible_at.as_nanos(),
                c.jct().as_nanos(),
                c.breakdown.device.as_nanos(),
                c.breakdown.queuing_scheduling.as_nanos(),
                c.breakdown.framework.as_nanos(),
                c.breakdown.communication.as_nanos(),
                c.breakdown.client_send_recv.as_nanos(),
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    let log = Dispatcher::take_trace_log(&mut d);
    let journeys = extract_journeys(&log)
        .iter()
        .map(|j| format!("{j:?}"))
        .collect::<Vec<_>>()
        .join("\n");
    let snap = d.metrics_snapshot().expect("telemetry on");
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    };
    RunOut {
        schedule,
        journeys,
        kernels_completed: log
            .events
            .iter()
            .filter(|te| matches!(te.event, TraceEvent::KernelCompleted { .. }))
            .count(),
        completed: done.len(),
        log,
        sched_picks: counter("sched_picks"),
        dag_releases: counter("dag_releases"),
        fastpath_enters: counter("fastpath_enters"),
        fastpath_exits: counter("fastpath_exits"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A single uncontended job takes the event-triggered fast path and
    /// produces a byte-identical completion schedule and journey to the
    /// per-kernel scheduler loop it bypasses.
    #[test]
    fn uncontended_job_is_byte_identical_across_fast_path(seed in 0u64..500) {
        let fast = run_dispatcher(seed, 1, 0, true);
        let slow = run_dispatcher(seed, 1, 0, false);
        prop_assert_eq!(fast.completed, 1);
        prop_assert_eq!(&fast.schedule, &slow.schedule, "completion schedules diverge");
        prop_assert_eq!(&fast.journeys, &slow.journeys, "journeys diverge");
        prop_assert!(fast.fastpath_enters >= 1, "fast path never engaged");
        prop_assert!(fast.dag_releases > 0, "no event-triggered release fired");
        prop_assert_eq!(fast.fastpath_enters, fast.fastpath_exits, "unbalanced handoff");
        prop_assert_eq!(slow.fastpath_enters, 0, "fast path ran with DAG dispatch off");
        check_journeys(&fast.log).expect("journey conservation (dag on)");
        check_journeys(&slow.log).expect("journey conservation (dag off)");
    }

    /// A contended burst falls back to SRPT-with-deficit arbitration, and
    /// the fast↔arbitration handoff conserves every kernel: both modes
    /// complete the same jobs and the same kernel count, and the journey
    /// ledger stays exact.
    #[test]
    fn contended_burst_falls_back_and_conserves(seed in 0u64..200) {
        let n = 12;
        let fast = run_dispatcher(seed, n, 5_000, true);
        let slow = run_dispatcher(seed, n, 5_000, false);
        prop_assert_eq!(fast.completed, n, "jobs lost with DAG dispatch on");
        prop_assert_eq!(slow.completed, n);
        prop_assert!(fast.sched_picks > 0, "arbitration never engaged under contention");
        prop_assert_eq!(
            fast.kernels_completed, slow.kernels_completed,
            "kernel count not conserved across the handoff"
        );
        check_journeys(&fast.log).expect("journey conservation (dag on)");
    }
}
