//! Device descriptions. A [`DeviceSpec`] carries every hardware parameter the
//! simulation depends on. Two presets mirror the cards used in the paper's
//! evaluation: the 12 GB K40c (Tables 4/5) and the 12 GB TITAN Xp (Fig. 14).

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

pub const KB: u64 = 1024;
pub const MB: u64 = 1024 * KB;
pub const GB: u64 = 1024 * MB;

/// Static description of the simulated accelerator and its host link.
///
/// Bandwidths are decimal GB/s (the unit vendors quote and the paper uses:
/// "a practical speed of 8 GB/s" for pinned PCIe transfers).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human-readable card name, reported by the experiment harness.
    pub name: String,
    /// Device DRAM capacity in bytes. The runtime can never exceed this.
    pub dram_bytes: u64,
    /// Peak single-precision throughput in GFLOP/s.
    pub peak_gflops: f64,
    /// Device memory bandwidth in GB/s — bounds bandwidth-bound layers
    /// (activations, pooling, batch-norm).
    pub mem_bw_gbps: f64,
    /// Pinned host→device PCIe bandwidth, GB/s.
    pub pcie_h2d_gbps: f64,
    /// Pinned device→host PCIe bandwidth, GB/s.
    pub pcie_d2h_gbps: f64,
    /// Multiplier applied to PCIe bandwidth when the host buffer is pageable
    /// (not pinned). The paper notes unpinned transfers compromise "at least
    /// 50% of communication speed" — hence 0.5.
    pub unpinned_factor: f64,
    /// Fixed cost of a `cudaMalloc` call.
    pub malloc_base: SimTime,
    /// Additional `cudaMalloc` cost per MiB requested (zeroing + page table
    /// work grows with size).
    pub malloc_per_mib: SimTime,
    /// Fixed cost of a `cudaFree` call (synchronizes the device).
    pub free_base: SimTime,
    /// Fixed kernel launch overhead added to every compute operation.
    pub kernel_launch: SimTime,
}

impl DeviceSpec {
    /// NVIDIA Tesla K40c: 12 GB GDDR5, 4.29 TFLOP/s FP32, 288 GB/s.
    ///
    /// The malloc/free latencies are calibrated so that a ResNet-50 training
    /// iteration run with raw `cudaMalloc`/`cudaFree` wastes roughly a third
    /// of its time in allocation (the paper measured 36.28%, §3.2.1), and so
    /// the Table 2 pool speedups land in the paper's 1.1×–1.8× band.
    pub fn k40c() -> Self {
        DeviceSpec {
            name: "NVIDIA Tesla K40c".into(),
            dram_bytes: 12 * GB,
            peak_gflops: 4290.0,
            mem_bw_gbps: 288.0,
            pcie_h2d_gbps: 8.0,
            pcie_d2h_gbps: 8.0,
            unpinned_factor: 0.5,
            malloc_base: SimTime::from_us(30),
            malloc_per_mib: SimTime::from_us(1),
            free_base: SimTime::from_us(25),
            kernel_launch: SimTime::from_us(5),
        }
    }

    /// NVIDIA TITAN Xp: 12 GB GDDR5X, 12.15 TFLOP/s FP32, 547 GB/s.
    pub fn titan_xp() -> Self {
        DeviceSpec {
            name: "NVIDIA TITAN Xp".into(),
            dram_bytes: 12 * GB,
            peak_gflops: 12150.0,
            mem_bw_gbps: 547.0,
            pcie_h2d_gbps: 8.0,
            pcie_d2h_gbps: 8.0,
            unpinned_factor: 0.5,
            malloc_base: SimTime::from_us(30),
            malloc_per_mib: SimTime::from_us(1),
            free_base: SimTime::from_us(25),
            kernel_launch: SimTime::from_us(5),
        }
    }

    /// A copy of this spec with a different DRAM capacity — used by the
    /// workspace experiments that constrain the memory pool to 3 GB / 5 GB
    /// (Fig. 12) and by tests that shrink the device to force eviction.
    pub fn with_dram(mut self, bytes: u64) -> Self {
        self.dram_bytes = bytes;
        self
    }

    /// Effective PCIe bandwidth for a transfer, honouring pinned/pageable.
    pub fn pcie_gbps(&self, h2d: bool, pinned: bool) -> f64 {
        let base = if h2d {
            self.pcie_h2d_gbps
        } else {
            self.pcie_d2h_gbps
        };
        if pinned {
            base
        } else {
            base * self.unpinned_factor
        }
    }

    /// Cost model for a `cudaMalloc` of `bytes`.
    pub fn malloc_cost(&self, bytes: u64) -> SimTime {
        let mib = bytes.div_ceil(MB);
        SimTime(self.malloc_base.0 + self.malloc_per_mib.0 * mib)
    }

    /// Cost model for a `cudaFree`.
    pub fn free_cost(&self) -> SimTime {
        self.free_base
    }

    /// This spec as a memo key: every field, floats folded bit-exactly.
    pub fn key(&self) -> SpecKey {
        // Destructured so a field added to the spec cannot be left out.
        let DeviceSpec {
            name,
            dram_bytes,
            peak_gflops,
            mem_bw_gbps,
            pcie_h2d_gbps,
            pcie_d2h_gbps,
            unpinned_factor,
            malloc_base,
            malloc_per_mib,
            free_base,
            kernel_launch,
        } = self;
        SpecKey {
            name: name.clone(),
            dram_bytes: *dram_bytes,
            rate_bits: [
                peak_gflops.to_bits(),
                mem_bw_gbps.to_bits(),
                pcie_h2d_gbps.to_bits(),
                pcie_d2h_gbps.to_bits(),
                unpinned_factor.to_bits(),
            ],
            costs: [*malloc_base, *malloc_per_mib, *free_base, *kernel_launch],
        }
    }
}

/// A [`DeviceSpec`] folded into a hashable value ([`DeviceSpec::key`]).
/// Every cache whose answer depends on the device keys on this, so two
/// specs share an entry only when all their fields are identical.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpecKey {
    name: String,
    dram_bytes: u64,
    rate_bits: [u64; 5],
    costs: [SimTime; 4],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_12gb() {
        assert_eq!(DeviceSpec::k40c().dram_bytes, 12 * GB);
        assert_eq!(DeviceSpec::titan_xp().dram_bytes, 12 * GB);
        assert!(DeviceSpec::titan_xp().peak_gflops > DeviceSpec::k40c().peak_gflops);
    }

    #[test]
    fn with_dram_overrides_capacity() {
        let d = DeviceSpec::k40c().with_dram(3 * GB);
        assert_eq!(d.dram_bytes, 3 * GB);
        assert_eq!(d.name, "NVIDIA Tesla K40c");
    }

    #[test]
    fn unpinned_transfers_are_slower() {
        let d = DeviceSpec::k40c();
        assert_eq!(d.pcie_gbps(true, true), 8.0);
        assert_eq!(d.pcie_gbps(true, false), 4.0);
    }

    #[test]
    fn spec_keys_separate_specs_differing_in_one_field() {
        let base = DeviceSpec::k40c();
        assert_eq!(base.key(), DeviceSpec::k40c().key());
        let variants = [
            base.clone().with_dram(GB),
            DeviceSpec {
                unpinned_factor: 0.25,
                ..base.clone()
            },
            DeviceSpec {
                malloc_per_mib: SimTime::from_us(2),
                ..base.clone()
            },
            DeviceSpec {
                kernel_launch: SimTime::from_us(6),
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(v.key(), base.key(), "{v:?}");
        }
    }

    #[test]
    fn malloc_cost_grows_with_size() {
        let d = DeviceSpec::k40c();
        let small = d.malloc_cost(KB);
        let big = d.malloc_cost(256 * MB);
        assert!(big > small);
        // Fixed part dominates tiny allocations.
        assert_eq!(small, SimTime::from_us(30) + SimTime::from_us(1));
    }
}
