//! # sn-sim — discrete-event simulated GPU substrate
//!
//! SuperNeurons (PPoPP'18) is a *memory scheduling runtime*: its behaviour is
//! determined by byte-accurate allocation bookkeeping and by how data
//! transfers overlap with kernel execution, not by actual arithmetic on a
//! physical GPU. This crate provides the substrate the runtime schedules on:
//!
//! * a **virtual clock** ([`SimTime`]) in integer nanoseconds, deterministic
//!   across runs;
//! * a **multi-stream timeline** ([`Timeline`]) mirroring a CUDA device:
//!   per-device compute, host-to-device and device-to-host streams (plus any
//!   extra via [`Timeline::add_stream`]), each serializing its own operations
//!   while running concurrently with the others, with [`Event`]-based
//!   cross-stream waits and per-stream busy timelines from which
//!   [`Timeline::overlap`] derives how much DMA time was hidden under
//!   kernels — exactly the overlap structure the paper's prefetch/offload
//!   design exploits;
//! * [`DeviceSpec`] describing a concrete card (DRAM capacity, arithmetic
//!   throughput, memory and PCIe bandwidths, allocation latencies) with
//!   presets for the NVIDIA K40c and TITAN Xp used in the paper;
//! * the [`DeviceAllocator`] trait plus [`CudaAllocator`], a latency-modelled
//!   stand-in for `cudaMalloc`/`cudaFree` that the heap pool of `sn-mempool`
//!   is benchmarked against (Table 2).
//!
//! Everything here is exact-integer and single-threaded on purpose: the
//! simulation must be reproducible so that the experiment harness regenerates
//! identical tables on every run.

pub mod alloc;
pub mod engine;
pub mod group;
pub mod spec;
pub mod time;
pub mod trace;

pub use alloc::{AllocError, AllocGrant, AllocId, CudaAllocator, DeviceAllocator};
pub use engine::{
    Dma, EngineKind, Event, OverlapStats, SpanLabel, StreamId, Timeline, TimelineStats,
    TransferDirection,
};
pub use group::{group_collective, group_now, group_sync, DeviceGroup, GroupEngine};
pub use sn_telemetry::{SpanId, TraceSink};
pub use spec::{DeviceSpec, SpecKey};
pub use time::SimTime;
pub use trace::{StepRecord, StepTrace};
