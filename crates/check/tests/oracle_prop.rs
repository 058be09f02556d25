//! Lockstep property tests: the production bookkeeping structures versus
//! the brute-force oracles in `paella_check::oracle`.
//!
//! Each test generates a random but *valid* event script, feeds it to both
//! implementations, and requires bit-identical answers at every step. A
//! divergence is a bug in one of the two — and since the oracle is the
//! naive transcription of the CUDA/Table-1 rules, almost always in the
//! incremental one.

use proptest::prelude::*;

use paella_channels::Notification;
use paella_check::{ConservationOracle, StreamKind, StreamOracle};
use paella_compiler::{CompiledModel, DagError, DeviceOp, JobSchedule, KernelDag};
use paella_core::OccupancyTracker;
use paella_gpu::{BlockFootprint, KernelDesc, SmLimits};

/// Cheap deterministic stream of choices derived from one generated seed.
fn nx(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

/// Stream id → kind: 0 is the default stream, everything else blocking
/// (CUDA's default; the dispatcher declares no non-blocking streams).
fn kind_of(stream: u32) -> StreamKind {
    if stream == 0 {
        StreamKind::Default
    } else {
        StreamKind::Blocking
    }
}

/// An all-kernel model with the given per-op stream plan and dependencies
/// (op index == token).
fn plan_model(streams: &[u32], deps: &[Vec<usize>]) -> CompiledModel {
    CompiledModel {
        name: "oracle-prop".into(),
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

/// Drains a job's waitlist (a copy of `dag`'s predecessor counts) by
/// completing a pseudo-randomly chosen active op each step, in lockstep
/// with `o`: the active set (in stream-id order) and every completion's
/// newly-active set must match. Returns how many ops completed.
fn drain_in_lockstep(
    dag: &KernelDag,
    o: &mut StreamOracle,
    drive: u64,
) -> Result<usize, TestCaseError> {
    let by_stream = |mut v: Vec<u64>| {
        v.sort_unstable_by_key(|&t| dag.node(t as usize).vstream);
        v
    };
    let mut preds = dag.pred_counts().to_vec();
    let mut active: Vec<u64> = dag.roots().map(|t| t as u64).collect();
    let mut seed = drive;
    let mut completed = 0usize;
    loop {
        prop_assert_eq!(by_stream(active.clone()), o.active(), "active set");
        if active.is_empty() {
            return Ok(completed);
        }
        let t = active.remove((nx(&mut seed) as usize) % active.len());
        let mut newly = Vec::new();
        dag.release(&mut preds, t as usize, &mut newly);
        let newly: Vec<u64> = newly.into_iter().map(u64::from).collect();
        prop_assert_eq!(&newly, &o.complete(t), "newly active after {}", t);
        active.extend(newly);
        completed += 1;
        prop_assert!(completed <= dag.len(), "completed more ops than exist");
    }
}

fn small_fp() -> BlockFootprint {
    BlockFootprint {
        threads: 128,
        regs_per_thread: 9,
        shmem: 0,
    }
}

fn big_fp() -> BlockFootprint {
    BlockFootprint {
        threads: 256,
        regs_per_thread: 32,
        shmem: 16 * 1024,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random backward-dep op sequences: the initial frontier, the active
    /// set, and the newly-activated set of every completion all match
    /// between the `KernelDag` predecessor counts and the brute-force
    /// `StreamOracle`.
    #[test]
    fn kernel_dag_matches_stream_oracle(
        ops in proptest::collection::vec((0u32..4, any::<bool>(), any::<u64>()), 1..40),
        drive in any::<u64>(),
    ) {
        let mut o = StreamOracle::new();
        let mut streams = Vec::new();
        let mut deps = Vec::new();
        for (i, &(stream, has_dep, dep_pick)) in ops.iter().enumerate() {
            // Backward deps only (on an earlier token): never a cycle.
            let d: Vec<usize> = if has_dep && i > 0 {
                vec![(dep_pick % i as u64) as usize]
            } else {
                Vec::new()
            };
            let d64: Vec<u64> = d.iter().map(|&t| t as u64).collect();
            o.push(stream, kind_of(stream), i as u64, &d64)
                .expect("backward deps cannot cycle");
            streams.push(stream);
            deps.push(d);
        }
        let dag = KernelDag::build(&plan_model(&streams, &deps))
            .expect("backward deps cannot cycle");
        let completed = drain_in_lockstep(&dag, &mut o, drive)?;
        prop_assert_eq!(completed, ops.len(), "livelock: ops left inactive");
        prop_assert!(o.is_empty());
    }

    /// With forward dependencies in the mix, wait cycles become possible:
    /// `KernelDag::build` rejects a plan exactly when the oracle rejects
    /// one of its pushes, and an accepted plan drains in lockstep. A dep
    /// naming no op of the model is rejected outright, where the oracle
    /// would leave its op waiting forever.
    #[test]
    fn kernel_dag_cycle_rejection_matches_oracle(
        ops in proptest::collection::vec((0u32..4, 0u32..3, any::<u64>()), 2..30),
        oob in any::<u64>(),
        drive in any::<u64>(),
    ) {
        let n = ops.len();
        let mut streams = Vec::new();
        let mut deps: Vec<Vec<usize>> = Vec::new();
        for (i, &(stream, dep_mode, dep_pick)) in ops.iter().enumerate() {
            let d = match dep_mode {
                // Forward dep on a later op up to 3 ahead.
                0 if i + 1 < n => vec![(i + 1 + (dep_pick % 3) as usize).min(n - 1)],
                1 if i > 0 => vec![(dep_pick % i as u64) as usize],
                _ => Vec::new(),
            };
            streams.push(stream);
            deps.push(d);
        }
        // One case in four: one op also names an op past the model's end.
        let stray = oob
            .is_multiple_of(4)
            .then(|| ((oob >> 2) as usize % n, n + (oob >> 8) as usize % 3));
        if let Some((op, dep)) = stray {
            deps[op].push(dep);
        }
        let mut o = StreamOracle::new();
        let mut rejected = 0usize;
        for i in 0..n {
            let d64: Vec<u64> = deps[i].iter().map(|&t| t as u64).collect();
            if o.push(streams[i], kind_of(streams[i]), i as u64, &d64).is_err() {
                rejected += 1;
            }
        }
        let built = KernelDag::build(&plan_model(&streams, &deps));
        if let Some((op, dep)) = stray {
            prop_assert_eq!(built.unwrap_err(), DagError::DepOutOfRange { token: op, dep });
            // The oracle admits the stray dep as a forward wait that never
            // resolves: unless its push was refused, that op never runs.
            let mut seed = drive;
            loop {
                let active = o.active();
                if active.is_empty() {
                    break;
                }
                o.complete(active[(nx(&mut seed) as usize) % active.len()]);
            }
            prop_assert!(
                !o.is_empty() || rejected > 0,
                "op {} ran with an unsatisfiable dep", op
            );
            return Ok(());
        }
        match built {
            Err(e) => {
                prop_assert!(matches!(e, DagError::Cycle { .. }), "unexpected {e:?}");
                prop_assert!(rejected > 0, "DAG found a cycle the oracle admitted");
            }
            Ok(dag) => {
                prop_assert_eq!(rejected, 0, "oracle found a cycle the DAG admitted");
                let completed = drain_in_lockstep(&dag, &mut o, drive)?;
                prop_assert_eq!(completed, n, "livelock: ops left inactive");
            }
        }
    }

    /// Valid placement/completion scripts: the occupancy tracker's mirror
    /// equals the conservation oracle's ground truth after every event.
    #[test]
    fn occupancy_matches_conservation_oracle(
        kernels in proptest::collection::vec((1u32..=24, any::<bool>()), 1..8),
        script in proptest::collection::vec(any::<u64>(), 10..80),
    ) {
        const NUM_SMS: u32 = 4;
        let mut t = OccupancyTracker::new(NUM_SMS, SmLimits::TURING);
        let mut o = ConservationOracle::new(NUM_SMS, SmLimits::TURING);
        // Test-local ground truth used only to *generate* valid events.
        struct K { fp: BlockFootprint, total: u32, placed: u32, per_sm: [u32; NUM_SMS as usize] }
        let mut ks: Vec<K> = Vec::new();
        for (uid, &(blocks, big)) in kernels.iter().enumerate() {
            let fp = if big { big_fp() } else { small_fp() };
            t.on_launch(uid as u32, fp, blocks);
            o.on_launch(uid as u32, fp, blocks);
            ks.push(K { fp, total: blocks, placed: 0, per_sm: [0; NUM_SMS as usize] });
            prop_assert!(o.verify(&t).is_ok(), "after launch {uid}: {:?}", o.verify(&t));
        }
        for &word in &script {
            let mut seed = word;
            let place = nx(&mut seed).is_multiple_of(2);
            let mut acted = false;
            if place {
                // Place up to 4 blocks of some kernel on the first SM (from
                // a random start) with room.
                let ki = (nx(&mut seed) as usize) % ks.len();
                let uid = ki as u32;
                let remaining = ks[ki].total - ks[ki].placed;
                if remaining > 0 {
                    let start = nx(&mut seed) % u64::from(NUM_SMS);
                    for off in 0..NUM_SMS {
                        let sm = ((start + u64::from(off)) % u64::from(NUM_SMS)) as u8;
                        let fit = o.sm_usage(sm).fit_count(&ks[ki].fp, &SmLimits::TURING);
                        let g = remaining.min(fit).min(1 + (nx(&mut seed) % 4) as u32);
                        if g > 0 {
                            t.on_notification(Notification::placement(sm, uid, g as u16));
                            o.on_placement(sm, uid, g as u16);
                            ks[ki].placed += g;
                            ks[ki].per_sm[sm as usize] += g;
                            acted = true;
                            break;
                        }
                    }
                }
            }
            if !acted {
                // Complete some resident group instead.
                let ki = (nx(&mut seed) as usize) % ks.len();
                let uid = ki as u32;
                for off in 0..NUM_SMS {
                    let sm = ((nx(&mut seed) + u64::from(off)) % u64::from(NUM_SMS)) as u8;
                    let on_sm = ks[ki].per_sm[sm as usize];
                    if on_sm > 0 {
                        let g = 1 + (nx(&mut seed) % u64::from(on_sm)) as u32;
                        t.on_notification(Notification::completion(sm, uid, g as u16));
                        o.on_completion(sm, uid, g as u16);
                        ks[ki].per_sm[sm as usize] -= g;
                        // A fully-completed kernel is dropped by both sides;
                        // re-launching the uid is out of scope, so just let
                        // its ground truth go stale at zero.
                        break;
                    }
                }
            }
            let check = o.verify(&t);
            prop_assert!(check.is_ok(), "mirror diverged: {}", check.unwrap_err());
        }
        // Host-side reconciliation drains everything that remains.
        for uid in 0..ks.len() as u32 {
            t.on_kernel_completed(uid);
            o.on_kernel_completed(uid);
        }
        prop_assert!(o.verify(&t).is_ok());
        prop_assert_eq!(t.unplaced_blocks(), 0);
        prop_assert_eq!(t.resident_blocks(), 0);
        prop_assert_eq!(t.tracked_kernels(), 0);
    }

    /// Adversarial notifications — wrong uids, absurd group counts, random
    /// SMs, duplicated completions — must never push the tracker past the
    /// Table-1 safety bounds, thanks to its clamping.
    #[test]
    fn occupancy_stays_safe_under_garbage(
        events in proptest::collection::vec(
            (any::<bool>(), 0u8..4, 0u32..8, 0u16..512, 0u32..20),
            1..120,
        ),
    ) {
        const NUM_SMS: u32 = 4;
        let mut t = OccupancyTracker::new(NUM_SMS, SmLimits::TURING);
        let mut next_uid = 100u32; // launches use a disjoint uid space
        for (i, &(is_completion, sm, uid, group, launch_blocks)) in events.iter().enumerate() {
            match i % 5 {
                // Periodically launch a real kernel so clamps have targets.
                0 if launch_blocks > 0 => {
                    t.on_launch(next_uid, small_fp(), launch_blocks);
                    next_uid += 1;
                }
                // And periodically reconcile one away.
                4 => t.on_kernel_completed(100 + u32::from(group % 8)),
                _ => {
                    // Garbage word: uid may be unknown, recently launched,
                    // or already gone; the group count is unconstrained.
                    let target = if uid < 4 { 100 + uid } else { uid };
                    let n = if is_completion {
                        Notification::completion(sm, target, group)
                    } else {
                        Notification::placement(sm, target, group)
                    };
                    t.on_notification(n);
                }
            }
            let safe = ConservationOracle::check_safety(&t, NUM_SMS, &SmLimits::TURING);
            prop_assert!(safe.is_ok(), "event {i} broke safety: {}", safe.unwrap_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reclamation invariant (DESIGN §11): reclaiming a random subset of
    /// kernels mid-flight — some blocks placed, some still pending, exactly
    /// what job cancellation does via `on_kernel_completed` — keeps the
    /// occupancy mirror and the conservation oracle's per-SM ground truth in
    /// balance, and reclaiming the rest returns the device to zero.
    #[test]
    fn conservation_holds_after_midflight_reclamation(
        kernels in proptest::collection::vec((1u32..=24, any::<bool>()), 1..8),
        place_script in proptest::collection::vec(any::<u64>(), 4..40),
        reclaim in any::<u64>(),
    ) {
        const NUM_SMS: u32 = 4;
        let mut t = OccupancyTracker::new(NUM_SMS, SmLimits::TURING);
        let mut o = ConservationOracle::new(NUM_SMS, SmLimits::TURING);
        let mut placed_left: Vec<(BlockFootprint, u32)> = Vec::new();
        for (uid, &(blocks, big)) in kernels.iter().enumerate() {
            let fp = if big { big_fp() } else { small_fp() };
            t.on_launch(uid as u32, fp, blocks);
            o.on_launch(uid as u32, fp, blocks);
            placed_left.push((fp, blocks));
        }
        // Place what fits, pseudo-randomly, so reclamation hits kernels in
        // every phase: unplaced, partially placed, fully resident.
        for &word in &place_script {
            let mut seed = word;
            let ki = (nx(&mut seed) as usize) % placed_left.len();
            let (fp, remaining) = placed_left[ki];
            if remaining == 0 {
                continue;
            }
            let sm = (nx(&mut seed) % u64::from(NUM_SMS)) as u8;
            let fit = o.sm_usage(sm).fit_count(&fp, &SmLimits::TURING);
            let g = remaining.min(fit).min(1 + (nx(&mut seed) % 4) as u32);
            if g > 0 {
                t.on_notification(Notification::placement(sm, ki as u32, g as u16));
                o.on_placement(sm, ki as u32, g as u16);
                placed_left[ki].1 -= g;
            }
        }
        prop_assert!(o.verify(&t).is_ok(), "{:?}", o.verify(&t));
        // Mid-flight reclamation of a random subset (the cancellation path).
        let mut seed = reclaim;
        let mut gone = Vec::new();
        for uid in 0..kernels.len() as u32 {
            if nx(&mut seed).is_multiple_of(2) {
                t.on_kernel_completed(uid);
                o.on_kernel_completed(uid);
                gone.push(uid);
                let check = o.verify(&t);
                prop_assert!(check.is_ok(), "after reclaiming {uid}: {}", check.unwrap_err());
            }
        }
        // Reclaiming is idempotent: a late duplicate changes nothing.
        for &uid in &gone {
            t.on_kernel_completed(uid);
            o.on_kernel_completed(uid);
        }
        prop_assert!(o.verify(&t).is_ok());
        // Reclaim the survivors: the device must return to exactly zero.
        for uid in 0..kernels.len() as u32 {
            t.on_kernel_completed(uid);
            o.on_kernel_completed(uid);
        }
        prop_assert!(o.verify(&t).is_ok());
        prop_assert_eq!(t.unplaced_blocks(), 0);
        prop_assert_eq!(t.resident_blocks(), 0);
        prop_assert_eq!(t.tracked_kernels(), 0);
        prop_assert_eq!(o.resident(), 0);
        prop_assert_eq!(o.unplaced(), 0);
    }
}
