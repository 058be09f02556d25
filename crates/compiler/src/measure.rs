//! The uncontended execution measurement shared by calibration and the
//! dispatcher's latency breakdown.

use paella_gpu::{CopyDir, DeviceConfig, GpuSim, KernelLaunch, MemcpyOp, MemcpyUid, StreamId};
use paella_sim::{SimDuration, SimTime};

use crate::module::{CompiledModel, DeviceOp};

/// Simulates one uncontended execution: H2D copy, all kernels on one stream,
/// D2H copy, on an idle device with a fixed seed. Returns the end-to-end
/// device time.
pub fn measure_uncontended(model: &CompiledModel, device: &DeviceConfig) -> SimDuration {
    let mut gpu = GpuSim::new(device.clone(), 0xCA11B);
    let stream = StreamId(1);
    let mut kuid = 0u32;
    let mut muid = 0u64;
    for op in &model.ops {
        match op {
            DeviceOp::InputCopy { bytes } | DeviceOp::OutputCopy { bytes } => {
                muid += 1;
                let dir = if matches!(op, DeviceOp::InputCopy { .. }) {
                    CopyDir::HostToDevice
                } else {
                    CopyDir::DeviceToHost
                };
                gpu.enqueue_memcpy(
                    SimTime::ZERO,
                    MemcpyOp {
                        uid: MemcpyUid(muid),
                        stream,
                        bytes: *bytes,
                        dir,
                    },
                );
            }
            DeviceOp::Kernel(k) => {
                kuid += 1;
                gpu.launch_kernel(
                    SimTime::ZERO,
                    KernelLaunch {
                        uid: kuid,
                        stream,
                        desc: k.clone(),
                    },
                );
            }
        }
    }
    let mut out = Vec::new();
    let mut last = SimTime::ZERO;
    while let Some(t) = gpu.next_time() {
        gpu.advance_until(t, &mut out);
        out.clear();
        last = t;
    }
    debug_assert!(gpu.is_idle());
    last - SimTime::ZERO
}
