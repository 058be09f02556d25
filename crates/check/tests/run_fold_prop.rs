//! Equivalence of the occupancy tracker's run-fold with its word-by-word
//! fold.
//!
//! The dispatcher folds each run of notification words that share a kernel
//! and a kind in one `on_notification_run` call, optionally stopping right
//! after the word that leaves the kernel fully placed. These properties
//! generate device-like word streams — interleaved kernels, per-SM waves,
//! host-side kernel-completed reconciliations mid-stream — optionally
//! corrupt them (duplicated, over-counted, dropped and unknown-uid words),
//! and require the run-fold to leave exactly the state the word-by-word
//! fold leaves after every segment. Well-formed streams are also checked
//! against the `ConservationOracle` ground truth; corrupted ones against its
//! safety bounds.

use proptest::prelude::*;

use paella_channels::{NotifKind, Notification};
use paella_check::ConservationOracle;
use paella_core::OccupancyTracker;
use paella_gpu::{BlockFootprint, SmLimits};

const NUM_SMS: u32 = 6;
/// Uids at or above this are never launched.
const UNKNOWN_UID: u32 = 1_000;

fn nx(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

fn footprint(big: bool) -> BlockFootprint {
    if big {
        BlockFootprint {
            threads: 256,
            regs_per_thread: 32,
            shmem: 16 * 1024,
        }
    } else {
        BlockFootprint {
            threads: 128,
            regs_per_thread: 9,
            shmem: 0,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    Word(Notification),
    /// The host observed the kernel finish (`on_kernel_completed`).
    Done(u32),
}

/// Generates a well-formed stream: every placement fits the ground truth,
/// every completion retires placed blocks, and no word names a kernel after
/// its `Done`. Ends with a `Done` for every kernel.
fn well_formed(kernels: &[(u32, bool)], seed: u64) -> Vec<Ev> {
    struct K {
        fp: BlockFootprint,
        total: u32,
        placed: u32,
        completed: u32,
        per_sm: [u32; NUM_SMS as usize],
        done: bool,
    }
    let mut truth = ConservationOracle::new(NUM_SMS, SmLimits::TURING);
    let mut ks: Vec<K> = Vec::new();
    for (uid, &(blocks, big)) in kernels.iter().enumerate() {
        let fp = footprint(big);
        truth.on_launch(uid as u32, fp, blocks);
        ks.push(K {
            fp,
            total: blocks,
            placed: 0,
            completed: 0,
            per_sm: [0; NUM_SMS as usize],
            done: false,
        });
    }
    let mut s = seed;
    let mut out = Vec::new();
    for _ in 0..80 {
        let ki = (nx(&mut s) as usize) % ks.len();
        let uid = ki as u32;
        if ks[ki].done {
            continue;
        }
        match nx(&mut s) % 10 {
            0..=4 => {
                // One placement wave over the SMs from a random start.
                let start = nx(&mut s) % u64::from(NUM_SMS);
                for off in 0..u64::from(NUM_SMS) {
                    let sm = ((start + off) % u64::from(NUM_SMS)) as u8;
                    let k = &ks[ki];
                    let fit = truth.sm_usage(sm).fit_count(&k.fp, &SmLimits::TURING);
                    let g = (k.total - k.placed)
                        .min(fit)
                        .min(1 + (nx(&mut s) % 6) as u32);
                    if g > 0 {
                        out.push(Ev::Word(Notification::placement(sm, uid, g as u16)));
                        truth.on_placement(sm, uid, g as u16);
                        ks[ki].placed += g;
                        ks[ki].per_sm[sm as usize] += g;
                    }
                }
            }
            5..=8 => {
                // One completion wave over some of the resident groups.
                for sm in 0..NUM_SMS as u8 {
                    let on_sm = ks[ki].per_sm[sm as usize];
                    if on_sm == 0 || nx(&mut s).is_multiple_of(4) {
                        continue;
                    }
                    let g = 1 + (nx(&mut s) as u32) % on_sm;
                    out.push(Ev::Word(Notification::completion(sm, uid, g as u16)));
                    truth.on_completion(sm, uid, g as u16);
                    ks[ki].per_sm[sm as usize] -= g;
                    ks[ki].completed += g;
                }
                if ks[ki].completed == ks[ki].total {
                    ks[ki].done = true;
                }
            }
            _ => {
                out.push(Ev::Done(uid));
                truth.on_kernel_completed(uid);
                ks[ki].done = true;
            }
        }
    }
    // The host finally observes every kernel finish (a no-op for kernels
    // whose completion words already retired them).
    out.extend((0..ks.len() as u32).map(Ev::Done));
    out
}

/// Duplicates, over-counts, drops and injects unknown-uid words at random.
fn corrupt(events: &[Ev], seed: u64) -> Vec<Ev> {
    let mut s = seed;
    let mut out = Vec::new();
    for &e in events {
        let Ev::Word(n) = e else {
            out.push(e);
            continue;
        };
        match nx(&mut s) % 12 {
            0 => {} // dropped
            1 => {
                out.push(e);
                out.push(e); // duplicated
            }
            2 => {
                let mut m = n;
                m.group = m.group.saturating_add(1 + (nx(&mut s) % 8) as u16);
                out.push(Ev::Word(m)); // over-counted
            }
            3 => {
                // A run of up to three words naming a kernel never launched.
                out.push(e);
                let uid = UNKNOWN_UID + (nx(&mut s) % 3) as u32;
                for k in 0..1 + nx(&mut s) % 3 {
                    let mut m = n;
                    m.kernel = uid;
                    m.sm_id = ((u64::from(n.sm_id) + k) % u64::from(NUM_SMS)) as u8;
                    out.push(Ev::Word(m));
                }
            }
            _ => out.push(e),
        }
    }
    out
}

/// The two trackers agree on everything observable.
fn same_state(a: &OccupancyTracker, b: &OccupancyTracker, kernels: usize) -> Result<(), String> {
    for sm in 0..NUM_SMS as u8 {
        if a.sm_usage(sm) != b.sm_usage(sm) {
            return Err(format!(
                "SM {sm}: word-by-word {:?} != run-fold {:?}",
                a.sm_usage(sm),
                b.sm_usage(sm)
            ));
        }
    }
    let pairs = [
        ("resident", a.resident_blocks(), b.resident_blocks()),
        ("unplaced", a.unplaced_blocks(), b.unplaced_blocks()),
        (
            "tracked",
            a.tracked_kernels() as u64,
            b.tracked_kernels() as u64,
        ),
    ];
    for (name, x, y) in pairs {
        if x != y {
            return Err(format!("{name}: word-by-word {x} != run-fold {y}"));
        }
    }
    for uid in (0..kernels as u32).chain(UNKNOWN_UID..UNKNOWN_UID + 3) {
        if a.fully_placed(uid) != b.fully_placed(uid) {
            return Err(format!("fully_placed({uid}) differs"));
        }
    }
    Ok(())
}

/// Folds `events` word by word into `a` and run by run into `b` (stopping
/// at full placement on runs where `stops` says so), comparing after every
/// segment. With `oracle`, also feeds it and verifies both trackers.
fn check_stream(
    kernels: &[(u32, bool)],
    events: &[Ev],
    stops: u64,
    mut oracle: Option<ConservationOracle>,
) -> Result<(), String> {
    let mut a = OccupancyTracker::new(NUM_SMS, SmLimits::TURING);
    let mut b = OccupancyTracker::new(NUM_SMS, SmLimits::TURING);
    for (uid, &(blocks, big)) in kernels.iter().enumerate() {
        a.on_launch(uid as u32, footprint(big), blocks);
        b.on_launch(uid as u32, footprint(big), blocks);
        if let Some(o) = oracle.as_mut() {
            o.on_launch(uid as u32, footprint(big), blocks);
        }
    }
    let mut s = stops;
    let mut i = 0;
    while i < events.len() {
        let run: Vec<Notification> = match events[i] {
            Ev::Done(uid) => {
                a.on_kernel_completed(uid);
                b.on_kernel_completed(uid);
                if let Some(o) = oracle.as_mut() {
                    o.on_kernel_completed(uid);
                }
                i += 1;
                Vec::new()
            }
            Ev::Word(first) => {
                let mut run = Vec::new();
                while let Some(&Ev::Word(n)) = events.get(i) {
                    if n.kernel != first.kernel || n.kind != first.kind {
                        break;
                    }
                    run.push(n);
                    i += 1;
                }
                run
            }
        };
        let stop = nx(&mut s).is_multiple_of(2);
        let mut rest = &run[..];
        while !rest.is_empty() {
            let folded = b.on_notification_run(rest, stop);
            if folded == 0 || folded > rest.len() || (!stop && folded != rest.len()) {
                return Err(format!("folded {folded} of {} (stop {stop})", rest.len()));
            }
            let mut first_full = None;
            for (j, &n) in rest[..folded].iter().enumerate() {
                a.on_notification(n);
                if let Some(o) = oracle.as_mut() {
                    match n.kind {
                        NotifKind::Placement => o.on_placement(n.sm_id, n.kernel, n.group),
                        NotifKind::Completion => o.on_completion(n.sm_id, n.kernel, n.group),
                    }
                }
                if first_full.is_none() && a.fully_placed(n.kernel) {
                    first_full = Some(j);
                }
            }
            if stop {
                let want = first_full.map_or(rest.len(), |j| j + 1);
                if folded != want {
                    return Err(format!(
                        "stopping fold took {folded} words, expected {want}"
                    ));
                }
            }
            rest = &rest[folded..];
            same_state(&a, &b, kernels.len())?;
            match oracle.as_ref() {
                Some(o) => {
                    o.verify(&a).map_err(|e| format!("word-by-word: {e}"))?;
                    o.verify(&b).map_err(|e| format!("run-fold: {e}"))?;
                }
                None => {
                    ConservationOracle::check_safety(&a, NUM_SMS, &SmLimits::TURING)?;
                    ConservationOracle::check_safety(&b, NUM_SMS, &SmLimits::TURING)?;
                }
            }
        }
    }
    if a.tracked_kernels() != 0 || b.tracked_kernels() != 0 || b.resident_blocks() != 0 {
        return Err("trackers did not drain after every kernel completed".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Well-formed streams: the run-fold equals the word-by-word fold and
    /// both equal the oracle's ground truth after every segment.
    #[test]
    fn run_fold_matches_word_fold_and_oracle(
        kernels in proptest::collection::vec((1u32..=40, any::<bool>()), 1..6),
        seed in any::<u64>(),
        stops in any::<u64>(),
    ) {
        let events = well_formed(&kernels, seed);
        let oracle = ConservationOracle::new(NUM_SMS, SmLimits::TURING);
        let r = check_stream(&kernels, &events, stops, Some(oracle));
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// Corrupted streams (duplicated, over-counted, dropped and unknown-uid
    /// words): the two folds still agree exactly and stay within Table-1
    /// limits.
    #[test]
    fn run_fold_matches_word_fold_on_corrupted_streams(
        kernels in proptest::collection::vec((1u32..=40, any::<bool>()), 1..6),
        seed in any::<u64>(),
        noise in any::<u64>(),
        stops in any::<u64>(),
    ) {
        let events = corrupt(&well_formed(&kernels, seed), noise);
        let r = check_stream(&kernels, &events, stops, None);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}
