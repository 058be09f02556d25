//! The repository benchmark.
//!
//! ```text
//! repobench --workload <t2mix_paella|t2mix_cudams|chain64> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it serves the workload's whole trace again and again for
//! `--seconds` and reports the end-to-end metrics: host wall time per
//! simulated request (median over passes), set-up time, peak RSS, and the
//! simulated JCT and throughput. With `--trace 1` it reports the per-layer
//! metrics from a traced prefix of the trace, a replay of that prefix's
//! device inputs through a standalone `GpuSim` and `OccupancyTracker`, and
//! untraced passes over the same prefix with the benchmark's own spans
//! around each driver call. Every run checks the system's outputs; the last
//! line of standard output is the result object.

mod drive;
mod replay;
mod report;
mod workload;

use std::time::{Duration, Instant};

use drive::{run_plain, run_spanned, visible_times, Spans};
use replay::Recording;
use report::{median, Report};
use workload::{Setup, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Replays of each layer per traced run; the per-layer times are medians.
const REPLAY_REPS: usize = 5;
/// Untraced passes over the prefix are repeated at least this often.
const MIN_PREFIX_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// What one run serves: the workload, its run seed, how long to measure,
/// and the trace and traced-prefix lengths.
#[derive(Clone, Copy)]
struct Plan {
    workload: Workload,
    seed: u64,
    seconds: f64,
    requests: usize,
    prefix: usize,
}

impl Plan {
    fn new(a: &Args) -> Plan {
        Plan {
            workload: a.workload,
            seed: a.seed,
            seconds: a.seconds,
            requests: a.workload.requests(),
            prefix: a.workload.traced_prefix(),
        }
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3_600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A run's metrics, the checks it made, and its request tallies.
#[derive(Default)]
struct Outcome {
    report: Report,
    checks: Vec<(&'static str, Result<(), String>)>,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn check(&mut self, name: &'static str, r: Result<(), String>) {
        self.checks.push((name, r));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1.is_ok())
    }
}

/// One run: the end-to-end metrics, or with `trace` the per-layer ones,
/// and every check on the system's outputs.
fn run(p: &Plan, trace: bool) -> Outcome {
    let mut o = Outcome::default();
    if trace {
        per_layer(p, &mut o);
    } else {
        end_to_end(p, &mut o);
    }
    let bad = o.report.bad_names().join(", ");
    o.check(
        "metric names are well formed",
        if bad.is_empty() { Ok(()) } else { Err(bad) },
    );
    o
}

fn setups(p: &Plan) -> (Setup, Vec<workload::SetupTimes>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let s = workload::setup(p.workload, p.requests, p.seed);
        times.push(s.times);
        last = Some(s);
    }
    (last.expect("at least one set-up"), times)
}

fn end_to_end(a: &Plan, o: &mut Outcome) {
    let w = a.workload;
    let (setup, times) = setups(a);
    let arrivals = &setup.arrivals;
    let n = arrivals.len() as u64;
    let budget = Duration::from_secs_f64(a.seconds);
    let start = Instant::now();
    let mut host_ms = Vec::new();
    let mut first: Option<(u64, drive::VtStats)> = None;
    let mut diverged = None;
    let mut lost = None;
    loop {
        let pass_start = Instant::now();
        let (mut sys, _) = workload::system(w, &setup.models, a.seed);
        let out = run_plain(sys.as_mut(), arrivals);
        drop(sys);
        host_ms.push(out.wall.as_secs_f64() * 1e3 / n as f64);
        o.attempted += n;
        match visible_times(arrivals, &out) {
            Ok(v) => {
                let d = drive::digest(&v);
                match first {
                    None => first = Some((d, drive::vt_stats(arrivals, &out))),
                    Some((d0, _)) if d0 != d => {
                        diverged.get_or_insert(format!(
                            "pass {} digest {d:016x} != {d0:016x}",
                            host_ms.len()
                        ));
                    }
                    Some(_) => {}
                }
            }
            Err(e) => {
                let done = out.completions.len() as u64;
                o.failed += n.saturating_sub(done).max(out.failures as u64);
                lost.get_or_insert(e);
            }
        }
        // Stop before a pass that would end past the budget.
        if start.elapsed() + pass_start.elapsed() > budget {
            break;
        }
    }
    o.check(
        "every request completes, none fails",
        lost.map_or(Ok(()), Err),
    );
    o.check(
        "passes are simulated identically",
        diverged.map_or(Ok(()), Err),
    );
    let vt = first.map(|f| f.1);
    if let Some((d, vt)) = first {
        println!("vt_digest {} {d:016x}", w.name());
        println!(
            "vt_tail percentile p{:.0} over {} samples (warmup {} of {n})",
            vt.tail_q * 100.0,
            vt.samples,
            n / 10
        );
    }
    println!(
        "requests sent {} succeeded {} failed {} over {} passes",
        o.attempted,
        o.attempted - o.failed,
        o.failed,
        host_ms.len()
    );
    println!("host_ms_per_req per pass {host_ms:?}");
    let r = &mut o.report;
    r.add("host_ms_per_req", "ms", median(&host_ms));
    r.add(
        "setup_s",
        "s",
        median(&times.iter().map(|t| t.total()).collect::<Vec<_>>()),
    );
    r.add("peak_rss_mb", "MiB", report::peak_rss_mb());
    let vt = vt.map_or((f64::NAN, f64::NAN, f64::NAN), |v| {
        (v.p50_ms, v.tail_ms, v.throughput_rps)
    });
    r.add("vt_p50_ms", "ms", vt.0);
    r.add("vt_p99_ms", "ms", vt.1);
    r.add("vt_throughput_rps", "1/s", vt.2);
}

fn per_layer(a: &Plan, o: &mut Outcome) {
    let w = a.workload;
    let (setup, times) = setups(a);
    let prefix = &setup.arrivals[..a.prefix.min(setup.arrivals.len())];
    let n = prefix.len() as f64;
    o.attempted = prefix.len() as u64;
    let served = workload::as_served(w, &setup.models);
    let device = paella_bench::device();
    let channels = paella_bench::channels();

    // Untraced passes over the prefix, with the benchmark's spans only.
    let budget = Duration::from_secs_f64(a.seconds);
    let start = Instant::now();
    let mut last_pass = Duration::ZERO;
    let mut passes: Vec<(Spans, f64)> = Vec::new();
    let mut untraced_visible = None;
    let mut untraced_err = None;
    while passes.len() < MIN_PREFIX_PASSES || start.elapsed() + last_pass <= budget {
        let pass_start = Instant::now();
        let (mut sys, _) = workload::system(w, &setup.models, a.seed);
        let mut spans = Spans::default();
        let out = run_spanned(sys.as_mut(), prefix, &mut spans, &mut |_, _| Duration::ZERO);
        passes.push((spans, out.wall.as_secs_f64()));
        last_pass = pass_start.elapsed();
        match (visible_times(prefix, &out), &untraced_visible) {
            (Ok(v), None) => untraced_visible = Some(v),
            (Ok(v), Some(v0)) if &v != v0 => {
                untraced_err.get_or_insert("untraced passes disagree".to_string());
            }
            (Ok(_), Some(_)) => {}
            (Err(e), _) => {
                untraced_err.get_or_insert(e);
            }
        }
    }
    let med = |f: &dyn Fn(&(Spans, f64)) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let submit = med(&|p| p.0.submit.as_secs_f64());
    let advance = med(&|p| p.0.advance.as_secs_f64());
    let next_event = med(&|p| p.0.next_event.as_secs_f64());
    let driver_total = med(&|p| p.0.total().as_secs_f64());
    let untraced_wall = med(&|p| p.1);
    let advance_calls = passes[0].0.advance_calls as f64;

    // The traced pass: program telemetry on, trace taken after every step.
    let rss_before = report::rss_mb();
    let (mut sys, _) = workload::system(w, &setup.models, a.seed);
    sys.enable_telemetry();
    let mut rec = match Recording::new(&served) {
        Ok(r) => r,
        Err(e) => {
            o.check("replay input recorded", Err(e));
            return;
        }
    };
    let mut spans = Spans::default();
    let traced = run_spanned(sys.as_mut(), prefix, &mut spans, &mut |sys, t| {
        let log = sys.take_trace_log().unwrap_or_default();
        let s = Instant::now();
        rec.fold(t, log);
        s.elapsed()
    });
    let rss_per_req = (report::peak_rss_mb() - rss_before).max(0.0) / n;
    let leftover = sys.take_trace_log().unwrap_or_default();
    o.check(
        "no trace events outside a step",
        if leftover.is_empty() {
            Ok(())
        } else {
            Err(format!("{} events", leftover.len()))
        },
    );
    let snapshot = sys.metrics_snapshot();
    drop(sys);
    let counter = |name: &str| snapshot.as_ref().map_or(0, |s| s.counter(name));
    o.check(
        "accounting_underflow reads 0",
        match counter("accounting_underflow") {
            0 => Ok(()),
            k => Err(format!("{k} underflows")),
        },
    );
    let traced_visible = visible_times(prefix, &traced);
    if traced_visible.is_err() {
        o.failed = (prefix.len() as u64).saturating_sub(traced.completions.len() as u64);
    }
    o.check(
        "every request completes, none fails",
        match (&traced_visible, untraced_err) {
            (Err(e), _) => Err(e.clone()),
            (Ok(_), Some(e)) => Err(e),
            (Ok(_), None) => Ok(()),
        },
    );
    o.check(
        "telemetry does not perturb the simulation",
        match (&traced_visible, &untraced_visible) {
            (Ok(t), Some(u)) if t == u => Ok(()),
            _ => Err("traced and untraced completion instants differ".into()),
        },
    );
    let ph = rec.phases;
    o.check(
        "every journey's phases sum to its JCT",
        if ph.unbalanced == 0 && ph.journeys == prefix.len() as u64 {
            Ok(())
        } else {
            Err(format!(
                "{} of {} journeys unbalanced, {} requests",
                ph.unbalanced,
                ph.journeys,
                prefix.len()
            ))
        },
    );

    // Layer replays.
    let (mut gpu_walls, mut occ_walls) = (Vec::new(), Vec::new());
    let mut replay_words = 0;
    match rec.gpu_replay(&device, &channels, &traced.completions) {
        Ok(gr) => {
            for i in 0..REPLAY_REPS {
                let out = gr.clone().run(&device, a.seed);
                if i == 0 {
                    replay_words = out.notif_words;
                    o.check(
                        "GpuSim replay reproduces the traced run",
                        rec.check_gpu(&gr, &out, counter("notifs_processed")),
                    );
                }
                gpu_walls.push(out.wall.as_secs_f64());
            }
        }
        Err(e) => o.check("GpuSim replay reproduces the traced run", Err(e)),
    }
    let mut occ_words = 0;
    for i in 0..REPLAY_REPS {
        let out = rec.occupancy_replay().run(&device);
        if i == 0 {
            occ_words = out.words;
            o.check(
                "OccupancyTracker replay drains to empty",
                if out.resident_blocks == 0 && out.tracked_kernels == 0 {
                    Ok(())
                } else {
                    Err(format!(
                        "{} blocks resident, {} kernels tracked",
                        out.resident_blocks, out.tracked_kernels
                    ))
                },
            );
        }
        occ_walls.push(out.wall.as_secs_f64());
    }
    let gpu_wall = median(&gpu_walls);
    let occ_wall = median(&occ_walls);

    let c = rec.counts;
    let k = c.kernels.max(1) as f64;
    println!(
        "traced prefix {} requests, {} kernels, {} trace events; {} untraced passes",
        prefix.len(),
        c.kernels,
        c.events,
        passes.len()
    );
    let r = &mut o.report;
    r.add("driver.submit_us_per_req", "us", submit * 1e6 / n);
    r.add("driver.advance_us_per_req", "us", advance * 1e6 / n);
    r.add("driver.next_event_us_per_req", "us", next_event * 1e6 / n);
    r.add("driver.advance_calls_per_req", "count", advance_calls / n);
    r.add("gpu.replay_us_per_kernel", "us", gpu_wall * 1e6 / k);
    r.add("gpu.share_bp", "bp", gpu_wall / advance * 1e4);
    r.add("gpu.sm_groups_per_kernel", "count", c.sm_groups as f64 / k);
    r.add(
        "gpu.hwq_stalls_per_kernel",
        "count",
        c.hwq_stalls as f64 / k,
    );
    r.add(
        "gpu.notif_words_per_kernel",
        "count",
        replay_words as f64 / k,
    );
    r.add(
        "occupancy.replay_ns_per_word",
        "ns",
        if occ_words > 0 {
            occ_wall * 1e9 / occ_words as f64
        } else {
            0.0
        },
    );
    r.add("occupancy.share_bp", "bp", occ_wall / advance * 1e4);
    r.add("occupancy.words_per_kernel", "count", occ_words as f64 / k);
    r.add(
        "dispatcher.self_us_per_kernel",
        "us",
        (driver_total - gpu_wall - occ_wall) * 1e6 / k,
    );
    r.add(
        "dispatcher.sched_picks_per_kernel",
        "count",
        c.sched_picks as f64 / k,
    );
    r.add(
        "dispatcher.occupancy_holds_per_kernel",
        "count",
        c.occupancy_holds as f64 / k,
    );
    r.add(
        "dispatcher.notifq_holds_per_kernel",
        "count",
        c.notifq_holds as f64 / k,
    );
    r.add(
        "dispatcher.hostops_per_kernel",
        "count",
        c.hostops as f64 / k,
    );
    r.add(
        "dispatcher.ready_mean",
        "count",
        if c.sched_picks > 0 {
            c.ready_sum as f64 / c.sched_picks as f64
        } else {
            0.0
        },
    );
    let ms = |f: &dyn Fn(&workload::SetupTimes) -> f64| {
        median(&times.iter().map(f).collect::<Vec<_>>()) * 1e3
    };
    r.add("setup.zoo_ms", "ms", ms(&|t| t.zoo));
    r.add("setup.register_ms", "ms", ms(&|t| t.register));
    r.add("setup.generate_ms", "ms", ms(&|t| t.generate));
    r.add(
        "telemetry.overhead_x",
        "x",
        traced.wall.as_secs_f64() / untraced_wall,
    );
    r.add("telemetry.events_per_req", "count", c.events as f64 / n);
    r.add("telemetry.rss_mb_per_req", "MiB", rss_per_req);
    let jct = ph.jct.max(1) as f64;
    for (name, v) in [
        ("vt.phase.device_bp", ph.device),
        ("vt.phase.queue_hol_bp", ph.queue_hol),
        ("vt.phase.queue_occupancy_bp", ph.queue_occupancy),
        ("vt.phase.queue_dep_bp", ph.queue_dep),
        ("vt.phase.framework_bp", ph.framework),
        ("vt.phase.communication_bp", ph.communication),
        ("vt.phase.client_send_recv_bp", ph.client_send_recv),
    ] {
        r.add(name, "bp", v as f64 * 1e4 / jct);
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}");
            eprintln!(
                "usage: repobench --workload <t2mix_paella|t2mix_cudams|chain64> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let o = run(&Plan::new(&args), args.trace);
    let correct = o.correct();
    for (name, r) in &o.checks {
        match r {
            Ok(()) => println!("check ok   {name}"),
            Err(e) => println!("check FAIL {name}: {e}"),
        }
    }
    println!(
        "{} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    o.report.print_table();
    println!("{}", o.report.json(correct, o.attempted.max(1), o.failed));
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload, seed: u64) -> Plan {
        Plan {
            workload,
            seed,
            seconds: 0.01,
            requests: 40,
            prefix: 12,
        }
    }

    fn names(o: &Outcome) -> Vec<&str> {
        o.report.metrics.iter().map(|m| m.name.as_str()).collect()
    }

    #[test]
    fn tiny_runs_pass_every_check() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let o = run(&tiny(w, 3), trace);
                for (name, r) in &o.checks {
                    assert!(r.is_ok(), "{} trace {trace}: {name}: {r:?}", w.name());
                }
                assert!(o.attempted > 0 && o.failed == 0);
            }
        }
    }

    #[test]
    fn every_metric_is_emitted_with_a_valid_name() {
        let e2e = run(&tiny(Workload::Chain64, 1), false);
        assert_eq!(
            names(&e2e),
            [
                "host_ms_per_req",
                "setup_s",
                "peak_rss_mb",
                "vt_p50_ms",
                "vt_p99_ms",
                "vt_throughput_rps"
            ]
        );
        let layers = run(&tiny(Workload::Chain64, 1), true);
        assert_eq!(layers.report.metrics.len(), 31);
        for n in names(&e2e).into_iter().chain(names(&layers)) {
            assert!(report::valid_name(n), "{n}");
        }
        assert!(layers.report.bad_names().is_empty());
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload chain64 --seed 5 --seconds 2 --trace 1").expect("valid");
        assert!(a.trace && a.seed == 5 && a.workload == Workload::Chain64);
        assert!(args("--workload chain64 --seed 5 --seconds 2").is_err());
        assert!(args("--workload nope --seed 5 --seconds 2 --trace 0").is_err());
        assert!(args("--workload chain64 --seed 5 --seconds 0 --trace 0").is_err());
        assert!(args("--workload chain64 --seed 5 --seconds 2 --trace 2").is_err());
    }
}
