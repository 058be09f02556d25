//! The dispatcher's software occupancy tracker (§4.1 + §5.2).
//!
//! Paella never asks the GPU what is running — it *knows*, by folding the
//! instrumented placement/completion notifications into a per-SM mirror of
//! the Table 1 resource accounting. Combined with the static footprint of
//! every launched kernel, the tracker answers the only question the
//! dispatcher needs: *can another kernel's blocks be placed right now (or
//! very soon)?*
//!
//! Because notifications lag reality by the device→host visibility delay,
//! the dispatcher keeps the hardware queue primed with a slack of `B` blocks
//! beyond estimated full utilization (§6 "(3) Full utilization").

use std::collections::HashMap;

use paella_channels::{KernelUid, NotifKind, Notification};
use paella_gpu::{BlockFootprint, SmLimits, SmUsage};
use paella_sim::IdBuildHasher;

/// Tracker state for one launched kernel.
#[derive(Clone, Debug)]
struct TrackedKernel {
    footprint: BlockFootprint,
    total_blocks: u32,
    placed: u32,
    completed: u32,
    /// Blocks placed and not yet completed, per SM (needed to release the
    /// right SM on completion when notifications arrive out of order across
    /// SMs). Dense: one slot per SM of the device.
    per_sm: Vec<u32>,
}

/// The occupancy tracker.
#[derive(Clone, Debug)]
pub struct OccupancyTracker {
    limits: SmLimits,
    sms: Vec<SmUsage>,
    kernels: HashMap<KernelUid, TrackedKernel, IdBuildHasher>,
    /// Blocks launched but with no placement notification yet — the
    /// "hardware queue depth" proxy the B-slack controls.
    unplaced_blocks: u64,
    /// Blocks placed and not yet completed.
    resident_blocks: u64,
}

impl OccupancyTracker {
    /// Creates a tracker for a device with `num_sms` SMs of the given limits.
    pub fn new(num_sms: u32, limits: SmLimits) -> Self {
        OccupancyTracker {
            limits,
            sms: vec![SmUsage::default(); num_sms as usize],
            kernels: HashMap::default(),
            unplaced_blocks: 0,
            resident_blocks: 0,
        }
    }

    /// Registers a kernel launch the dispatcher just submitted.
    ///
    /// # Panics
    ///
    /// Panics if `uid` is already tracked.
    pub fn on_launch(&mut self, uid: KernelUid, footprint: BlockFootprint, blocks: u32) {
        let prev = self.kernels.insert(
            uid,
            TrackedKernel {
                footprint,
                total_blocks: blocks,
                placed: 0,
                completed: 0,
                per_sm: vec![0; self.sms.len()],
            },
        );
        assert!(prev.is_none(), "kernel {uid} launched twice");
        self.unplaced_blocks += u64::from(blocks);
    }

    /// Folds one notification into the mirror. Unknown kernel uids are
    /// ignored (stale notifications after a reset), and counts are clamped
    /// so a lost or duplicated word can never corrupt the accounting — the
    /// mirror may drift, but [`on_kernel_completed`] reconciles it when the
    /// runtime observes the kernel finish.
    ///
    /// [`on_kernel_completed`]: Self::on_kernel_completed
    pub fn on_notification(&mut self, n: Notification) {
        self.on_notification_run(std::slice::from_ref(&n), false);
    }

    /// Folds a run of words that share one kernel and one kind, in order,
    /// with exactly the per-word clamping of [`on_notification`]: the result
    /// equals folding the words one at a time. The kernel is looked up once
    /// per run instead of once per word.
    ///
    /// With `stop_when_placed`, folding stops right after the first word
    /// after which [`fully_placed`] holds for the run's kernel (for an
    /// untracked kernel, that is the first word), so the caller can act on
    /// the placement at that word's instant. Returns how many words were
    /// folded; without `stop_when_placed`, always `words.len()`.
    ///
    /// [`on_notification`]: Self::on_notification
    /// [`fully_placed`]: Self::fully_placed
    pub fn on_notification_run(&mut self, words: &[Notification], stop_when_placed: bool) -> usize {
        let Some(first) = words.first() else {
            return 0;
        };
        debug_assert!(
            words
                .iter()
                .all(|w| w.kernel == first.kernel && w.kind == first.kind),
            "a run shares one kernel and one kind"
        );
        let uid = first.kernel;
        let Some(k) = self.kernels.get_mut(&uid) else {
            return if stop_when_placed { 1 } else { words.len() };
        };
        let mut folded = 0;
        let mut retired = false;
        match first.kind {
            NotifKind::Placement => {
                for n in words {
                    folded += 1;
                    let sm = n.sm_id as usize;
                    let g = u32::from(n.group)
                        .min(k.total_blocks - k.placed)
                        .min(self.sms[sm].fit_count(&k.footprint, &self.limits));
                    if g > 0 {
                        k.placed += g;
                        k.per_sm[sm] += g;
                        self.sms[sm].allocate(&k.footprint, g, &self.limits);
                        self.unplaced_blocks = self.unplaced_blocks.saturating_sub(u64::from(g));
                        self.resident_blocks += u64::from(g);
                    }
                    if stop_when_placed && k.placed == k.total_blocks {
                        break;
                    }
                }
            }
            NotifKind::Completion => {
                for n in words {
                    folded += 1;
                    let sm = n.sm_id as usize;
                    let on_sm = k.per_sm.get(sm).copied().unwrap_or(0);
                    let g = u32::from(n.group)
                        .min(k.total_blocks - k.completed)
                        .min(on_sm);
                    if g > 0 {
                        k.completed += g;
                        k.per_sm[sm] -= g;
                        self.sms[sm].release(&k.footprint, g);
                        self.resident_blocks = self.resident_blocks.saturating_sub(u64::from(g));
                        if k.completed == k.total_blocks {
                            retired = true;
                            break;
                        }
                    }
                    if stop_when_placed && k.placed == k.total_blocks {
                        break;
                    }
                }
            }
        }
        if retired {
            // The rest of the run names a kernel no longer tracked: ignored,
            // and reported fully placed (so a stopping fold stops here).
            self.kernels.remove(&uid);
            if !stop_when_placed {
                folded = words.len();
            }
        }
        folded
    }

    /// Whether all blocks of `uid` have been placed (used to release the
    /// job's next op in pipelined mode). Unknown uids report `true` (the
    /// kernel already fully completed and was dropped).
    pub fn fully_placed(&self, uid: KernelUid) -> bool {
        self.kernels
            .get(&uid)
            .is_none_or(|k| k.placed == k.total_blocks)
    }

    /// How many more blocks with footprint `fp` fit on the device right now,
    /// per the mirror.
    pub fn fit_count(&self, fp: &BlockFootprint) -> u64 {
        self.sms
            .iter()
            .map(|sm| u64::from(sm.fit_count(fp, &self.limits)))
            .sum()
    }

    /// Blocks launched but not yet observed placed.
    pub fn unplaced_blocks(&self) -> u64 {
        self.unplaced_blocks
    }

    /// Blocks observed resident.
    pub fn resident_blocks(&self) -> u64 {
        self.resident_blocks
    }

    /// The §6 dispatch predicate: dispatch another kernel with footprint
    /// `fp` iff the device has room for its blocks *after* the already
    /// launched-but-unplaced backlog lands (pessimistically assuming the
    /// backlog consumes same-shaped slots), or the backlog is below the
    /// slack `b` (keeping the hardware queue primed despite notification
    /// lag).
    pub fn should_dispatch(&self, fp: &BlockFootprint, b: u64) -> bool {
        self.unplaced_blocks < b || self.fit_count(fp) > self.unplaced_blocks
    }

    /// Reconciles the mirror when the host observes a kernel's completion
    /// through the CUDA runtime (e.g. a stream callback) even though some of
    /// its notifications were lost: any blocks still accounted as resident
    /// or unplaced for `uid` are released. Without this, a lost completion
    /// word would leak SM capacity forever and eventually wedge dispatching.
    pub fn on_kernel_completed(&mut self, uid: KernelUid) {
        let Some(k) = self.kernels.remove(&uid) else {
            return;
        };
        // Blocks never seen placing still count against the backlog.
        let never_placed = u64::from(k.total_blocks - k.placed);
        self.unplaced_blocks = self.unplaced_blocks.saturating_sub(never_placed);
        // Blocks placed but whose completion word was lost still occupy SMs
        // in the mirror.
        for (sm, &blocks) in k.per_sm.iter().enumerate() {
            if blocks > 0 {
                self.sms[sm].release(&k.footprint, blocks);
                self.resident_blocks = self.resident_blocks.saturating_sub(u64::from(blocks));
            }
        }
    }

    /// Mirror of one SM's usage (for tests and debugging).
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range.
    pub fn sm_usage(&self, sm: u8) -> SmUsage {
        self.sms[sm as usize]
    }

    /// Number of kernels still tracked.
    pub fn tracked_kernels(&self) -> usize {
        self.kernels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> BlockFootprint {
        BlockFootprint {
            threads: 128,
            regs_per_thread: 9,
            shmem: 0,
        }
    }

    fn tracker() -> OccupancyTracker {
        OccupancyTracker::new(4, SmLimits::TURING)
    }

    #[test]
    fn launch_then_place_then_complete() {
        let mut t = tracker();
        t.on_launch(1, fp(), 16);
        assert_eq!(t.unplaced_blocks(), 16);
        assert_eq!(t.resident_blocks(), 0);
        // 128-thread blocks: 8 per Turing SM, so hardware spreads over 2 SMs.
        t.on_notification(Notification::placement(0, 1, 8));
        t.on_notification(Notification::placement(1, 1, 8));
        assert_eq!(t.unplaced_blocks(), 0);
        assert_eq!(t.resident_blocks(), 16);
        assert!(t.fully_placed(1));
        assert_eq!(t.sm_usage(0).blocks, 8);
        t.on_notification(Notification::completion(0, 1, 8));
        t.on_notification(Notification::completion(1, 1, 8));
        assert_eq!(t.resident_blocks(), 0);
        assert_eq!(t.tracked_kernels(), 0);
        assert!(t.sm_usage(0).is_idle());
    }

    #[test]
    fn partial_placement_tracked() {
        let mut t = tracker();
        t.on_launch(1, fp(), 10);
        t.on_notification(Notification::placement(0, 1, 4));
        t.on_notification(Notification::placement(1, 1, 6));
        assert!(t.fully_placed(1));
        assert_eq!(t.sm_usage(0).blocks, 4);
        assert_eq!(t.sm_usage(1).blocks, 6);
        t.on_notification(Notification::completion(1, 1, 6));
        assert_eq!(t.resident_blocks(), 4);
        assert!(t.sm_usage(1).is_idle());
    }

    #[test]
    fn fit_count_respects_mirror() {
        let mut t = tracker();
        // Empty 4-SM Turing device fits 8 × 4 = 32 blocks of 128 threads.
        assert_eq!(t.fit_count(&fp()), 32);
        t.on_launch(1, fp(), 8);
        t.on_notification(Notification::placement(2, 1, 8));
        assert_eq!(t.fit_count(&fp()), 24);
    }

    #[test]
    fn should_dispatch_slack_logic() {
        let mut t = tracker();
        // Fill the device completely.
        t.on_launch(1, fp(), 32);
        t.on_notification(Notification::placement(0, 1, 8));
        t.on_notification(Notification::placement(1, 1, 8));
        t.on_notification(Notification::placement(2, 1, 8));
        t.on_notification(Notification::placement(3, 1, 8));
        assert_eq!(t.fit_count(&fp()), 0);
        // Nothing fits, backlog 0 < B → dispatch allowed by slack.
        assert!(t.should_dispatch(&fp(), 4));
        t.on_launch(2, fp(), 8);
        // Backlog is now 8 ≥ B and nothing fits → hold.
        assert!(!t.should_dispatch(&fp(), 4));
        // A completion frees 8 slots, but the 8-block backlog will consume
        // them → still hold.
        t.on_notification(Notification::completion(0, 1, 8));
        assert!(!t.should_dispatch(&fp(), 4));
        // Once the backlog places, the slack reopens dispatching.
        t.on_notification(Notification::placement(0, 2, 8));
        assert!(t.should_dispatch(&fp(), 4));
        // And freeing more room than the (now empty) backlog also works.
        t.on_notification(Notification::completion(1, 1, 8));
        assert!(t.should_dispatch(&fp(), 100));
    }

    #[test]
    fn unknown_kernel_notifications_ignored() {
        let mut t = tracker();
        t.on_notification(Notification::placement(0, 99, 4));
        t.on_notification(Notification::completion(0, 99, 4));
        assert_eq!(t.resident_blocks(), 0);
        assert!(t.fully_placed(99), "unknown ⇒ treated as long gone");
    }

    #[test]
    #[should_panic(expected = "launched twice")]
    fn duplicate_launch_panics() {
        let mut t = tracker();
        t.on_launch(1, fp(), 1);
        t.on_launch(1, fp(), 1);
    }

    #[test]
    fn kernel_completed_reconciles_lost_notifications() {
        let mut t = tracker();
        t.on_launch(1, fp(), 16);
        // Only half the placements and none of the completions arrive.
        t.on_notification(Notification::placement(0, 1, 8));
        assert_eq!(t.unplaced_blocks(), 8);
        assert_eq!(t.resident_blocks(), 8);
        // The host sees the kernel complete through the runtime anyway.
        t.on_kernel_completed(1);
        assert_eq!(t.unplaced_blocks(), 0, "backlog reconciled");
        assert_eq!(t.resident_blocks(), 0, "leaked residency released");
        assert!(t.sm_usage(0).is_idle());
        assert_eq!(t.tracked_kernels(), 0);
        // Idempotent for unknown kernels.
        t.on_kernel_completed(1);
        t.on_kernel_completed(99);
    }

    #[test]
    fn mixed_footprints_account_correctly() {
        let mut t = tracker();
        let big = BlockFootprint {
            threads: 512,
            regs_per_thread: 32,
            shmem: 16 * 1024,
        };
        t.on_launch(1, big, 2);
        t.on_notification(Notification::placement(0, 1, 2));
        // SM 0 now holds 1024 threads → nothing else fits there.
        assert_eq!(t.sm_usage(0).threads, 1024);
        assert_eq!(t.fit_count(&fp()), 24, "three free SMs × 8");
    }
}
