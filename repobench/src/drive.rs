//! The driver layer: the benchmark's own loop over the public
//! `ServingSystem` API, and the checks on what the system returns.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use paella_core::{InferenceRequest, JobCompletion, ServingSystem};
use paella_sim::{Percentiles, SimTime};
use paella_workload::Arrival;

/// What one pass over a trace returned.
pub struct RunOut {
    /// Every completion, in the order the system reported them.
    pub completions: Vec<JobCompletion>,
    /// Terminal failures the system reported.
    pub failures: usize,
    /// Host wall time of the pass (hook time excluded).
    pub wall: Duration,
}

/// Host time spent in each driver call, summed over a pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spans {
    /// `submit`.
    pub submit: Duration,
    /// `advance_until`, including the drain-to-idle steps.
    pub advance: Duration,
    /// `next_event_time`.
    pub next_event: Duration,
    /// `drain_completions` and `drain_failures`.
    pub drain: Duration,
    /// `advance_until` calls made.
    pub advance_calls: u64,
}

impl Spans {
    /// Time in all driver calls.
    pub fn total(&self) -> Duration {
        self.submit + self.advance + self.next_event + self.drain
    }
}

fn request(a: &Arrival) -> InferenceRequest {
    InferenceRequest {
        client: a.client,
        model: a.model,
        submitted_at: a.at,
    }
}

/// Serves `arrivals` open-loop in virtual time: before each submission the
/// system catches up to the arrival instant, and after the last it runs to
/// idle. `host_ms_per_req` times this loop as a whole.
pub fn run_plain(sys: &mut dyn ServingSystem, arrivals: &[Arrival]) -> RunOut {
    let t0 = Instant::now();
    let mut completions = Vec::with_capacity(arrivals.len());
    for a in arrivals {
        while let Some(t) = sys.next_event_time() {
            if t > a.at {
                break;
            }
            sys.advance_until(t);
        }
        sys.submit(request(a));
        completions.append(&mut sys.drain_completions());
    }
    sys.run_to_idle();
    completions.append(&mut sys.drain_completions());
    let failures = sys.drain_failures().len();
    RunOut {
        completions,
        failures,
        wall: t0.elapsed(),
    }
}

/// The same loop as [`run_plain`], with every call timed into `spans` and
/// `after_step` called after each `advance_until`. The drain to idle is
/// stepped by hand (as `run_to_idle` does) so each step can be observed.
/// `after_step` returns the part of its own time to leave out of `wall`.
pub fn run_spanned(
    sys: &mut dyn ServingSystem,
    arrivals: &[Arrival],
    spans: &mut Spans,
    after_step: &mut dyn FnMut(&mut dyn ServingSystem, SimTime) -> Duration,
) -> RunOut {
    let t0 = Instant::now();
    let mut excluded = Duration::ZERO;
    let mut completions = Vec::with_capacity(arrivals.len());
    let mut step =
        |sys: &mut dyn ServingSystem, spans: &mut Spans, limit: Option<SimTime>| -> bool {
            let s = Instant::now();
            let next = sys.next_event_time();
            spans.next_event += s.elapsed();
            match next {
                Some(t) if limit.is_none_or(|l| t <= l) => {
                    let s = Instant::now();
                    sys.advance_until(t);
                    spans.advance += s.elapsed();
                    spans.advance_calls += 1;
                    excluded += after_step(sys, t);
                    true
                }
                _ => false,
            }
        };
    for a in arrivals {
        while step(sys, spans, Some(a.at)) {}
        let s = Instant::now();
        sys.submit(request(a));
        spans.submit += s.elapsed();
        let s = Instant::now();
        completions.append(&mut sys.drain_completions());
        spans.drain += s.elapsed();
    }
    while step(sys, spans, None) {}
    let s = Instant::now();
    completions.append(&mut sys.drain_completions());
    let failures = sys.drain_failures().len();
    spans.drain += s.elapsed();
    RunOut {
        completions,
        failures,
        wall: t0.elapsed().saturating_sub(excluded),
    }
}

/// Each arrival's client-visible completion instant, in arrival order;
/// `Err` names the first request that was lost, duplicated or failed.
pub fn visible_times(arrivals: &[Arrival], out: &RunOut) -> Result<Vec<SimTime>, String> {
    if out.failures > 0 {
        return Err(format!("{} requests failed", out.failures));
    }
    let index: HashMap<(u64, u32), usize> = arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| ((a.at.as_nanos(), a.client.0), i))
        .collect();
    let mut seen: Vec<Option<SimTime>> = vec![None; arrivals.len()];
    for c in &out.completions {
        let key = (c.request.submitted_at.as_nanos(), c.request.client.0);
        let Some(&i) = index.get(&key) else {
            return Err(format!("completion for a request never sent: {key:?}"));
        };
        if arrivals[i].model != c.request.model {
            return Err(format!("request {i} completed as the wrong model"));
        }
        if seen[i].replace(c.client_visible_at).is_some() {
            return Err(format!("request {i} completed twice"));
        }
    }
    seen.iter()
        .enumerate()
        .map(|(i, t)| t.ok_or_else(|| format!("request {i} never completed")))
        .collect()
}

/// FNV-1a digest of `(request index, client_visible_at)` over the trace:
/// equal digests mean byte-identical simulated completion instants.
pub fn digest(visible: &[SimTime]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, t) in visible.iter().enumerate() {
        for b in (i as u64)
            .to_le_bytes()
            .into_iter()
            .chain(t.as_nanos().to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Simulated-time results of one pass.
#[derive(Clone, Copy, Debug)]
pub struct VtStats {
    /// Median JCT after warmup, ms.
    pub p50_ms: f64,
    /// Tail JCT after warmup, ms, at [`VtStats::tail_q`].
    pub tail_ms: f64,
    /// The tail percentile used: 0.99, or the highest percentile with at
    /// least ten samples beyond it.
    pub tail_q: f64,
    /// JCT samples after warmup.
    pub samples: usize,
    /// Completions per simulated second from first submission to last
    /// completion.
    pub throughput_rps: f64,
}

/// Reduces a pass to its simulated-time results, skipping the first tenth
/// of completions (in completion order) as the Fig. 11 runner does.
pub fn vt_stats(arrivals: &[Arrival], out: &RunOut) -> VtStats {
    let mut done: Vec<&JobCompletion> = out.completions.iter().collect();
    done.sort_by_key(|c| {
        (
            c.client_visible_at,
            c.request.submitted_at,
            c.request.client.0,
        )
    });
    let warmup = arrivals.len() / 10;
    let mut jct = Percentiles::new();
    for c in done.iter().skip(warmup) {
        jct.push(c.jct().as_micros_f64());
    }
    let samples = done.len().saturating_sub(warmup);
    let tail_q = tail_quantile(samples);
    let first = arrivals.first().map_or(SimTime::ZERO, |a| a.at);
    let last = done.last().map_or(first, |c| c.client_visible_at);
    let span = last.saturating_since(first).as_secs_f64();
    VtStats {
        p50_ms: jct.p50().unwrap_or(f64::NAN) / 1_000.0,
        tail_ms: jct.quantile(tail_q).unwrap_or(f64::NAN) / 1_000.0,
        tail_q,
        samples,
        throughput_rps: if span > 0.0 {
            done.len() as f64 / span
        } else {
            0.0
        },
    }
}

/// 0.99 when at least ten of `n` samples lie beyond it, else the highest
/// whole percentile that keeps ten beyond it (0.5 at the least).
pub fn tail_quantile(n: usize) -> f64 {
    (50..=99)
        .rev()
        .map(|p| f64::from(p) / 100.0)
        .find(|q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(1_080), 0.99);
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(500), 0.98);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(5), 0.5);
    }

    #[test]
    fn digest_sees_order_and_value() {
        let a = [SimTime::from_nanos(1), SimTime::from_nanos(2)];
        let b = [SimTime::from_nanos(2), SimTime::from_nanos(1)];
        assert_eq!(digest(&a), digest(&a));
        assert_ne!(digest(&a), digest(&b));
    }
}
