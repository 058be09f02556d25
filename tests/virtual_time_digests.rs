//! Pinned virtual-time digests of small Paella scenarios.
//!
//! Each scenario runs twice through the public constructors: once untraced
//! and once with telemetry on. The untraced run yields an FNV-1a digest over
//! every completion (job id, client-visible instant) and failure, plus
//! the dispatcher's total CPU busy time. The traced run must reproduce the
//! same digest and also yields `notifs_processed` and a digest of the whole
//! merged trace. All four numbers are committed, so a host-side refactor of
//! notification handling, the occupancy mirror or the device engine must
//! keep simulated behaviour (and the per-word trace) byte-identical.
//!
//! The scenarios cover paths the repository benchmark does not: dropped
//! notification words, deadlines with cancellation, injected kernel faults,
//! unaggregated instrumentation, per-client vs sharded central CPU, and the
//! Paella-MS-kbk / -MS-jbj ablations.

use paella_channels::ChannelConfig;
use paella_compiler::{instrumented, CompiledModel};
use paella_core::{
    ClientId, Dispatcher, DispatcherConfig, FifoScheduler, InferenceRequest, Scheduler,
    SrptDeficitScheduler,
};
use paella_gpu::{DeviceConfig, InstrumentationSpec};
use paella_models::synthetic;
use paella_sim::{SimDuration, SimTime};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// What one scenario pins.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    /// FNV-1a over completions (job id, client-visible ns) in job order,
    /// then failures (client, submitted ns, failed ns, reason) in order.
    vt: u64,
    /// Total dispatcher CPU busy time, ns.
    cpu_busy_ns: u64,
    /// Notification words the dispatcher handled (traced run).
    notifs_processed: u64,
    /// FNV-1a over the Debug form of every merged trace event.
    trace: u64,
}

struct Scenario {
    cfg: DispatcherConfig,
    device: DeviceConfig,
    fifo: bool,
    models: Vec<CompiledModel>,
    /// (client, model index, submit µs)
    requests: Vec<(u32, usize, u64)>,
}

fn scheduler(fifo: bool) -> Box<dyn Scheduler> {
    if fifo {
        Box::new(FifoScheduler::new())
    } else {
        Box::new(SrptDeficitScheduler::new(Some(2_000.0)))
    }
}

fn run(s: &Scenario, seed: u64, traced: bool) -> (u64, u64, Dispatcher) {
    let mut d = Dispatcher::new(
        s.device.clone(),
        ChannelConfig::default(),
        scheduler(s.fifo),
        s.cfg,
        seed,
    );
    if traced {
        d.enable_telemetry();
    }
    let ids: Vec<_> = s.models.iter().map(|m| d.register_model(m)).collect();
    let mut trace = FNV_OFFSET;
    for &(client, model, at_us) in &s.requests {
        let at = SimTime::from_micros(at_us);
        while let Some(t) = d.next_event_time() {
            if t > at {
                break;
            }
            d.advance_until(t);
        }
        d.submit(InferenceRequest {
            client: ClientId(client),
            model: ids[model],
            submitted_at: at,
        });
    }
    while let Some(t) = d.next_event_time() {
        d.advance_until(t);
        if traced {
            for e in d.take_trace_log().events {
                trace = fnv(trace, format!("{:?}", e).as_bytes());
            }
        }
    }
    if traced {
        for e in d.take_trace_log().events {
            trace = fnv(trace, format!("{:?}", e).as_bytes());
        }
    }
    let mut done = d.drain_completions();
    done.sort_by_key(|c| c.job);
    let mut vt = FNV_OFFSET;
    for c in &done {
        vt = fnv(vt, &c.job.0.to_le_bytes());
        vt = fnv(vt, &c.client_visible_at.as_nanos().to_le_bytes());
    }
    for f in d.drain_failures() {
        vt = fnv(vt, &f.request.client.0.to_le_bytes());
        vt = fnv(vt, &f.request.submitted_at.as_nanos().to_le_bytes());
        vt = fnv(vt, &f.at.as_nanos().to_le_bytes());
        vt = fnv(vt, f.reason.as_str().as_bytes());
    }
    (vt, trace, d)
}

fn digest(s: &Scenario, seed: u64) -> Digest {
    let (vt, _, plain) = run(s, seed, false);
    let (vt_traced, trace, traced) = run(s, seed, true);
    assert_eq!(vt, vt_traced, "telemetry perturbed the simulation");
    assert_eq!(plain.cpu_busy(), traced.cpu_busy());
    let notifs_processed = traced
        .metrics_snapshot()
        .expect("telemetry on")
        .counter("notifs_processed");
    Digest {
        vt,
        cpu_busy_ns: plain.cpu_busy().as_nanos(),
        notifs_processed,
        trace,
    }
}

/// Three models with waves of very different widths: a device-filling
/// 320-block kernel chain, a 4-block one and the one-block Fig. 2 job, so a
/// wave posts anywhere from 1 to 40 words per phase.
fn mix() -> Vec<CompiledModel> {
    vec![
        synthetic::uniform_job("wide", 4, SimDuration::from_micros(30), 320),
        synthetic::uniform_job("narrow", 6, SimDuration::from_micros(12), 4),
        synthetic::fig2_job(),
    ]
}

/// A burst of `n` requests from `clients` clients, `gap_us` apart, cycling
/// through `models` models.
fn burst(n: u32, clients: u32, models: usize, gap_us: u64) -> Vec<(u32, usize, u64)> {
    (0..n)
        .map(|i| (i % clients, i as usize % models, u64::from(i) * gap_us))
        .collect()
}

fn paella(cfg: DispatcherConfig) -> Scenario {
    Scenario {
        cfg,
        device: DeviceConfig::tesla_t4(),
        fifo: false,
        models: mix(),
        requests: burst(48, 4, 3, 15),
    }
}

fn check(name: &str, s: Scenario, want: Digest) {
    let got = digest(&s, 42);
    assert_eq!(got, want, "scenario {name} diverged");
}

#[test]
fn steady_paella_is_pinned() {
    check(
        "steady",
        paella(DispatcherConfig::paella()),
        Digest {
            vt: 72519127184371825,
            cpu_busy_ns: 2437920,
            notifs_processed: 6996,
            trace: 5964311837406053893,
        },
    );
}

#[test]
fn dropped_notification_words_are_pinned() {
    let mut s = paella(DispatcherConfig::paella());
    s.device.notif_drop_rate = 0.05;
    check(
        "notif-drop",
        s,
        Digest {
            vt: 12111502986108346364,
            cpu_busy_ns: 2332200,
            notifs_processed: 6115,
            trace: 10398843366176140798,
        },
    );
}

#[test]
fn deadline_cancellation_is_pinned() {
    let mut cfg = DispatcherConfig::paella();
    cfg.deadline_factor = Some(1.5);
    cfg.deadline_floor = SimDuration::from_micros(100);
    let mut s = paella(cfg);
    s.requests = burst(24, 4, 3, 0);
    check(
        "deadline",
        s,
        Digest {
            vt: 5016427046860540512,
            cpu_busy_ns: 578540,
            notifs_processed: 912,
            trace: 9611128603669716306,
        },
    );
}

#[test]
fn kernel_faults_are_pinned() {
    let mut cfg = DispatcherConfig::paella();
    cfg.kernel_fault_rate = 0.1;
    cfg.retry_budget = 2;
    check(
        "faults",
        paella(cfg),
        Digest {
            vt: 6590748876343423845,
            cpu_busy_ns: 2582220,
            notifs_processed: 6986,
            trace: 7135118060748736867,
        },
    );
}

#[test]
fn unaggregated_instrumentation_is_pinned() {
    // One word per block. The dispatcher's own pass would apply the default
    // (aggregated) spec, so the models arrive pre-instrumented and the
    // mirror is off: every placement word then finds its kernel untracked.
    let mut cfg = DispatcherConfig::paella();
    cfg.instrument = false;
    let mut s = paella(cfg);
    s.models = mix()
        .iter()
        .map(|m| instrumented(m, InstrumentationSpec::without_aggregation()))
        .collect();
    s.requests = burst(12, 4, 3, 15);
    check(
        "unaggregated",
        s,
        Digest {
            vt: 14273723151887241442,
            cpu_busy_ns: 1659120,
            notifs_processed: 10496,
            trace: 12895350723894977467,
        },
    );
}

#[test]
fn per_client_and_sharded_cpu_are_pinned() {
    let mut per_client = DispatcherConfig::paella();
    per_client.central_cpu = false;
    check(
        "per-client-cpu",
        paella(per_client),
        Digest {
            vt: 508602702161064738,
            cpu_busy_ns: 2467440,
            notifs_processed: 7242,
            trace: 6926453651143640269,
        },
    );
    let mut sharded = DispatcherConfig::paella();
    sharded.dispatcher_cores = 2;
    check(
        "sharded-cpu",
        paella(sharded),
        Digest {
            vt: 11659835616007099441,
            cpu_busy_ns: 2456880,
            notifs_processed: 7154,
            trace: 15265989058251369879,
        },
    );
}

#[test]
fn ms_ablations_are_pinned() {
    let mut kbk = paella(DispatcherConfig::paella_ms_kbk());
    kbk.fifo = true;
    check(
        "ms-kbk",
        kbk,
        Digest {
            vt: 15419491458911610965,
            cpu_busy_ns: 2553840,
            notifs_processed: 7962,
            trace: 4846652640876028530,
        },
    );
    let mut jbj = paella(DispatcherConfig::paella_ms_jbj());
    jbj.fifo = true;
    check(
        "ms-jbj",
        jbj,
        Digest {
            vt: 5736634557324088792,
            cpu_busy_ns: 2346240,
            notifs_processed: 6952,
            trace: 11304372031856701199,
        },
    );
}
