//! Memory-aware admission control.
//!
//! Before a job touches a device, the scheduler predicts its peak device
//! bytes under each candidate policy preset by **compiling a
//! [`sn_runtime::MemoryPlan`]** ([`sn_runtime::plan_prediction`] /
//! [`sn_runtime::plan_prediction_inference`]) — no simulated iteration runs
//! on the admission hot path. The plan's peak walks the paper's `peak_m`
//! progression (baseline `Σ l_f + Σ l_b` down to `max_i(l_i)` for the full
//! stack) and is **exact**: the executor replays the plan's alloc/free
//! sequence, so the reservation equals the runtime high-water to the byte.
//! A job is only placed where that peak fits the device's *unreserved*
//! bytes, so the sum of reservations on a device can never exceed its DRAM
//! — the central multi-tenancy invariant.
//!
//! Predictions are made against a device capped to the candidate budget
//! (`spec.with_dram(budget)`), because the runtime adapts to pressure: the
//! dynamic workspace policy and the Tensor Cache shrink their footprint when
//! memory is scarce. The returned peak is the high-water mark of that exact
//! adaptive plan, so reserving it is sound by construction.
//!
//! Gang replicas reserve the same per-replica plan peak: the group runtime's
//! collectives stage through `GroupPlan::comm_workspace_bytes`, which is
//! modeled *outside* the heap pool (that separation is what keeps the peak
//! byte-identical to the single-device plan). The comm staging is reported,
//! not reserved — a deployment sizing real NCCL-style ring buffers would
//! add that fixed figure to each gang replica's reservation.

use sn_runtime::{
    plan_prediction, plan_prediction_inference, GroupConfig, GroupExecutor, Interconnect,
    InterconnectKey, Memo, PeakPrediction,
};
use sn_sim::{DeviceSpec, SimTime, SpecKey};

use crate::job::{JobKind, JobSpec, PolicyPreset, Workload};

/// Memoization key: everything the prediction depends on. The device is
/// folded whole through its [`SpecKey`], so heterogeneous fleets that reuse
/// a card name cannot alias — and it is the **capped** device
/// (`spec.with_dram(budget)`) the prediction was compiled against: the
/// planner adapts its evictions and workspaces to that cap, so a peak
/// compiled for a larger device must never be reused for a smaller one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ProfileKey {
    workload: Workload,
    batch: usize,
    preset: PolicyPreset,
    kind: JobKind,
    capped: SpecKey,
}

impl ProfileKey {
    fn new(
        w: Workload,
        batch: usize,
        preset: PolicyPreset,
        kind: JobKind,
        capped: &DeviceSpec,
    ) -> Self {
        ProfileKey {
            workload: w,
            batch,
            preset,
            kind,
            capped: capped.key(),
        }
    }
}

/// Gang measurement key: the replica's profile key extended with the gang
/// size and the fabric — replica counts can never alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GangKey {
    profile: ProfileKey,
    replicas: usize,
    interconnect: InterconnectKey,
}

/// Memoizing wrapper around the plan compiler: the cluster loop re-evaluates
/// queued jobs at every event, but distinct (workload, batch, preset, kind,
/// capped device) tuples are few, so each prediction compiles at most once
/// while the memo holds it. `None` records "does not fit within this
/// budget".
///
/// Both caches are [`Memo`]s, which makes the profiler `Sync`: admission
/// sweeps evaluate ladder candidates for many devices concurrently over the
/// rayon shim, all sharing this memo. A concurrent miss may compile the
/// same prediction twice; compilation is deterministic and the first insert
/// wins.
pub struct Profiler {
    /// Capped at 4096 predictions; a fleet holds at most 32 budgets per
    /// distinct device (see [`quantized_budget`]).
    cache: Memo<ProfileKey, Option<PeakPrediction>>,
    /// Measured gang step times: one group execution per distinct
    /// (workload, batch, preset, capped device, replicas, fabric) tuple.
    /// Capped at 1024 measurements.
    gang: Memo<GangKey, Option<SimTime>>,
}

impl Default for Profiler {
    fn default() -> Profiler {
        Profiler::new()
    }
}

impl Profiler {
    pub fn new() -> Profiler {
        Profiler {
            cache: Memo::new(4096),
            gang: Memo::new(1024),
        }
    }

    /// Predicted cost of one replica of (`workload`, `batch`, `kind`) under
    /// `preset` on `spec` given `budget` bytes of device memory, or `None`
    /// if it cannot run within the budget. Compile-only: no iteration is
    /// simulated.
    pub fn profile_kind(
        &self,
        workload: Workload,
        batch: usize,
        preset: PolicyPreset,
        kind: JobKind,
        spec: &DeviceSpec,
        budget: u64,
    ) -> Option<PeakPrediction> {
        let capped = spec.clone().with_dram(budget);
        let key = ProfileKey::new(workload, batch, preset, kind, &capped);
        self.cache
            .get_or_insert_with(key, || {
                let net = workload.build(batch);
                match kind {
                    JobKind::Training => plan_prediction(&net, &capped, preset.policy()).ok(),
                    JobKind::Inference => {
                        plan_prediction_inference(&net, &capped, preset.policy()).ok()
                    }
                }
            })
            .0
    }

    /// Is this prediction already memoized? One hash lookup — the cluster
    /// loop uses it to decide whether a candidate sweep has any cold
    /// compiles worth fanning out worker threads for (a warm sweep is a
    /// handful of map hits; spawning threads for it costs more than it
    /// saves).
    pub fn is_cached(
        &self,
        workload: Workload,
        batch: usize,
        preset: PolicyPreset,
        kind: JobKind,
        spec: &DeviceSpec,
        budget: u64,
    ) -> bool {
        let capped = spec.clone().with_dram(budget);
        self.cache
            .contains(&ProfileKey::new(workload, batch, preset, kind, &capped))
    }

    /// [`Profiler::profile_kind`] for training jobs (the historical entry
    /// point, kept for tests and benches).
    pub fn profile(
        &self,
        workload: Workload,
        batch: usize,
        preset: PolicyPreset,
        spec: &DeviceSpec,
        budget: u64,
    ) -> Option<PeakPrediction> {
        self.profile_kind(workload, batch, preset, JobKind::Training, spec, budget)
    }

    /// Measured step time of a `replicas`-wide gang of (`workload`,
    /// `batch`) under `preset` on `spec` (the *capped* device the replica
    /// profile was compiled against): compiles the
    /// [`sn_runtime::GroupPlan`] — whose per-replica bytes are the exact
    /// plan the reservation came from — and drives the group interpreter
    /// for a cold and a warm iteration, returning the warm gang step
    /// (slowest replica + overlapped bucketed all-reduce). Memoized; the
    /// gang key carries the replica count, so gang sizes never alias.
    /// `None` means the gang cannot run within the budget.
    pub fn gang_step_time(
        &self,
        workload: Workload,
        batch: usize,
        preset: PolicyPreset,
        replicas: usize,
        spec: &DeviceSpec,
        interconnect: Interconnect,
    ) -> Option<SimTime> {
        let key = GangKey {
            profile: ProfileKey::new(workload, batch, preset, JobKind::Training, spec),
            replicas,
            interconnect: interconnect.key(),
        };
        self.gang
            .get_or_insert_with(key, || {
                let net = workload.build(batch);
                // Tuned presets carry their own all-reduce bucket target; the
                // gang must be measured with it or the tuned step time would
                // be fiction.
                let cfg = GroupConfig::new(replicas, interconnect)
                    .with_bucket_bytes(preset.bucket_bytes());
                GroupExecutor::new(&net, spec.clone(), preset.policy(), cfg)
                    .ok()
                    .and_then(|mut gx| {
                        gx.run_iteration().ok()?; // cold (allocator warm-up)
                        let warm = gx.run_iteration().ok()?;
                        debug_assert!(warm.peaks_match, "gang replica diverged from its plan");
                        Some(warm.step_time)
                    })
            })
            .0
    }

    /// Number of distinct predictions memoized (every one compiled so far,
    /// until the memo's cap resets it).
    pub fn simulated(&self) -> usize {
        self.cache.len()
    }

    /// Number of distinct gang step measurements memoized.
    pub fn gangs_measured(&self) -> usize {
        self.gang.len()
    }
}

/// One replica's placement: the concrete device, the quantized budget its
/// plan was compiled against, and the prediction read off that plan. The
/// budget rides along so gang execution can be measured against the *exact*
/// capped device the reservation was predicted on.
#[derive(Debug, Clone)]
pub struct Placement {
    pub device: usize,
    pub budget: u64,
    pub prediction: PeakPrediction,
}

/// A successful admission: the preset the job will actually run under (may
/// be memory-stronger than requested) and one [`Placement`] per replica on
/// distinct devices (gang scheduling).
#[derive(Debug, Clone)]
pub struct Grant {
    pub preset: PolicyPreset,
    pub placements: Vec<Placement>,
}

impl Grant {
    /// The slowest replica's iteration time — the gang's lockstep pace.
    pub fn replica_iter_time(&self) -> sn_sim::SimTime {
        self.placements
            .iter()
            .map(|p| p.prediction.iter_time)
            .max()
            .unwrap_or(sn_sim::SimTime::ZERO)
    }

    /// Gradient payload for the gang's per-iteration all-reduce.
    pub fn weight_bytes(&self) -> u64 {
        self.placements
            .first()
            .map(|p| p.prediction.weight_bytes)
            .unwrap_or(0)
    }

    /// The placement that paces the gang (largest predicted iteration
    /// time; ties break toward the lowest device index for determinism).
    pub fn slowest(&self) -> Option<&Placement> {
        self.placements
            .iter()
            .min_by_key(|p| (std::cmp::Reverse(p.prediction.iter_time), p.device))
    }
}

/// Prediction budget for a device with `free` unreserved bytes: rounded
/// *down* to a 1/32-of-DRAM quantum. Sound (the predicted peak fits under
/// the real free space) and it collapses the profiler's memo key space to at
/// most 32 budgets per device. Admission and the idle-fleet feasibility
/// check MUST use the same rounding, or a boundary job could be judged
/// feasible yet never admitted.
pub fn quantized_budget(spec: &DeviceSpec, free: u64) -> u64 {
    let quantum = (spec.dram_bytes / 32).max(1);
    free - free % quantum
}

/// Check whether `job` could run on an *idle* fleet — the "reject vs queue"
/// discriminator. Walks the same preset ladder (and budget rounding) that
/// admission uses.
pub fn feasible_on_idle_fleet(
    profiler: &Profiler,
    fleet: &crate::fleet::Fleet,
    job: &JobSpec,
) -> bool {
    if job.replicas == 0 || job.replicas > fleet.len() {
        return false;
    }
    for preset in ladder_for(job) {
        // One compile per distinct device spec. Cold predictions are swept
        // concurrently; when everything is already memoized (the common
        // case — the cluster loop re-asks at every event) the sweep is a
        // few map hits and runs inline rather than spawning workers.
        let check = |spec: &DeviceSpec| {
            let budget = quantized_budget(spec, spec.dram_bytes);
            budget > 0
                && profiler
                    .profile_kind(job.workload, job.batch, preset, job.kind, spec, budget)
                    .is_some()
        };
        let any_cold = rayon::current_num_threads() > 1
            && fleet.devices.iter().any(|spec| {
                let budget = quantized_budget(spec, spec.dram_bytes);
                budget > 0
                    && !profiler.is_cached(job.workload, job.batch, preset, job.kind, spec, budget)
            });
        let fitting = if any_cold {
            rayon::par_map(&fleet.devices, check)
                .into_iter()
                .filter(|ok| *ok)
                .count()
        } else {
            fleet.devices.iter().filter(|spec| check(spec)).count()
        };
        if fitting >= job.replicas {
            return true;
        }
    }
    false
}

/// [`feasible_on_idle_fleet`] restricted to an arbitrary device subset —
/// the live (non-failed) devices, under fault injection. Discriminates
/// "wait for the fleet to heal" (feasible on the full fleet but not here:
/// backoff and retry) from "wait for reservations to drain" (feasible here:
/// stay queued). Serial: it runs only when the live set shrank, which is
/// rare next to admission passes.
pub fn feasible_on_device_subset(
    profiler: &Profiler,
    devices: &[&DeviceSpec],
    job: &JobSpec,
) -> bool {
    if job.replicas == 0 || job.replicas > devices.len() {
        return false;
    }
    for preset in ladder_for(job) {
        let fitting = devices
            .iter()
            .filter(|spec| {
                let budget = quantized_budget(spec, spec.dram_bytes);
                budget > 0
                    && profiler
                        .profile_kind(job.workload, job.batch, preset, job.kind, spec, budget)
                        .is_some()
            })
            .count();
        if fitting >= job.replicas {
            return true;
        }
    }
    false
}

/// The preset sequence admission tries for `job`.
pub fn ladder_for(job: &JobSpec) -> Vec<PolicyPreset> {
    if job.allow_downgrade {
        job.preset.ladder().collect()
    } else {
        vec![job.preset]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::Fleet;
    use sn_runtime::Interconnect;

    fn tiny_fleet(dram: u64) -> Fleet {
        Fleet::homogeneous(2, DeviceSpec::k40c().with_dram(dram), Interconnect::pcie())
    }

    #[test]
    fn profiler_memoizes() {
        let p = Profiler::new();
        let w = Workload::Synthetic { width: 8, depth: 2 };
        let spec = DeviceSpec::k40c();
        let a = p.profile(w, 8, PolicyPreset::Superneurons, &spec, spec.dram_bytes);
        let b = p.profile(w, 8, PolicyPreset::Superneurons, &spec, spec.dram_bytes);
        assert_eq!(a, b);
        assert_eq!(p.simulated(), 1);
        p.profile(w, 8, PolicyPreset::Baseline, &spec, spec.dram_bytes);
        assert_eq!(p.simulated(), 2);
    }

    #[test]
    fn prediction_respects_budget() {
        let p = Profiler::new();
        let w = Workload::Synthetic {
            width: 32,
            depth: 6,
        };
        let spec = DeviceSpec::k40c();
        let full = p
            .profile(w, 32, PolicyPreset::Superneurons, &spec, spec.dram_bytes)
            .expect("fits a 12 GB device");
        assert!(full.peak_bytes <= spec.dram_bytes);
        // Within a tiny budget the same job must either adapt below the
        // budget or be declared infeasible — never "fit" above it.
        let budget = 16 << 20;
        if let Some(tight) = p.profile(w, 32, PolicyPreset::Superneurons, &spec, budget) {
            assert!(tight.peak_bytes <= budget);
        }
    }

    #[test]
    fn stronger_presets_predict_smaller_peaks() {
        let p = Profiler::new();
        let w = Workload::Synthetic {
            width: 32,
            depth: 8,
        };
        let spec = DeviceSpec::k40c();
        let base = p
            .profile(w, 16, PolicyPreset::Baseline, &spec, spec.dram_bytes)
            .unwrap();
        let sn = p
            .profile(w, 16, PolicyPreset::Superneurons, &spec, spec.dram_bytes)
            .unwrap();
        assert!(
            sn.peak_bytes < base.peak_bytes,
            "superneurons {} must undercut baseline {}",
            sn.peak_bytes,
            base.peak_bytes
        );
    }

    #[test]
    fn memo_key_includes_the_device_cap() {
        // Satellite regression: heterogeneous fleets reuse card names, and
        // the planner adapts to the capped DRAM — a peak compiled for a
        // larger cap must never be served for a smaller one. Two budgets on
        // the "same" card must produce two cache entries (and, under real
        // pressure, different adaptive peaks).
        let p = Profiler::new();
        let w = Workload::Synthetic {
            width: 64,
            depth: 8,
        };
        let spec = DeviceSpec::k40c();
        let roomy = p
            .profile(w, 32, PolicyPreset::Superneurons, &spec, spec.dram_bytes)
            .expect("fits uncapped");
        let tight = p
            .profile(w, 32, PolicyPreset::Superneurons, &spec, 48 << 20)
            .expect("adapts under a 48 MB cap");
        assert_eq!(p.simulated(), 2, "distinct caps must not share an entry");
        assert!(tight.peak_bytes <= 48 << 20);
        assert!(
            tight.peak_bytes < roomy.peak_bytes,
            "the adaptive plan must shrink under the cap: {} vs {}",
            tight.peak_bytes,
            roomy.peak_bytes
        );
    }

    #[test]
    fn inference_profiles_reserve_less_than_training() {
        let p = Profiler::new();
        let w = Workload::Synthetic {
            width: 32,
            depth: 6,
        };
        let spec = DeviceSpec::k40c();
        let train = p
            .profile_kind(
                w,
                32,
                PolicyPreset::Superneurons,
                JobKind::Training,
                &spec,
                spec.dram_bytes,
            )
            .unwrap();
        let infer = p
            .profile_kind(
                w,
                32,
                PolicyPreset::Superneurons,
                JobKind::Inference,
                &spec,
                spec.dram_bytes,
            )
            .unwrap();
        assert_eq!(p.simulated(), 2, "kinds must not alias in the memo key");
        assert!(
            infer.peak_bytes < train.peak_bytes,
            "forward-only {} must undercut training {}",
            infer.peak_bytes,
            train.peak_bytes
        );
        assert!(infer.iter_time < train.iter_time);
    }

    #[test]
    fn tuned_and_hand_presets_never_alias_in_the_memo() {
        // A tuned bundle whose policy happens to coincide with the full
        // superneurons stack: the preset rides in the memo key, so the two
        // predictions must occupy distinct entries (and a later change to
        // the tuned policy could never be served a stale hand compile).
        let id = sn_runtime::tune::register(sn_runtime::TunedPolicy {
            policy: sn_runtime::Policy::superneurons(),
            bucket_bytes: 8 << 20,
            step_time: SimTime::from_us(10),
            plan_peak_bytes: 1,
            executed_peak_bytes: 1,
            hand_step_time: SimTime::from_us(12),
            hand_name: "superneurons",
            seed: 0,
            evals: 0,
            pruned: 0,
            trace_digest: 0,
        });
        let p = Profiler::new();
        let w = Workload::Synthetic { width: 8, depth: 2 };
        let spec = DeviceSpec::k40c();
        let hand = p
            .profile(w, 8, PolicyPreset::Superneurons, &spec, spec.dram_bytes)
            .unwrap();
        let tuned = p
            .profile(w, 8, PolicyPreset::Tuned(id), &spec, spec.dram_bytes)
            .unwrap();
        assert_eq!(hand, tuned, "identical policies predict identically");
        assert_eq!(p.simulated(), 2, "but they must never share a memo entry");
        // The gang path must measure tuned gangs with their tuned bucket.
        assert_eq!(PolicyPreset::Tuned(id).bucket_bytes(), 8 << 20);
        let step = p.gang_step_time(
            w,
            8,
            PolicyPreset::Tuned(id),
            2,
            &spec,
            Interconnect::pcie(),
        );
        assert!(step.is_some());
        assert_eq!(p.gangs_measured(), 1);
    }

    #[test]
    fn infeasible_jobs_are_detected_on_idle_fleet() {
        let profiler = Profiler::new();
        // 32 MB devices: a wide synthetic net under pure baseline won't fit
        // (peak ≈ 262 MB), but the adaptive full stack squeezes under the
        // cap (peak ≈ 30 MB).
        let fleet = tiny_fleet(32 << 20);
        let job = JobSpec::new(
            "big",
            Workload::Synthetic {
                width: 64,
                depth: 8,
            },
            32,
        )
        .with_preset(PolicyPreset::Baseline)
        .with_downgrade(false);
        assert!(!feasible_on_idle_fleet(&profiler, &fleet, &job));
        // With the downgrade ladder the full memory stack squeezes it in.
        let job = job.with_downgrade(true);
        assert!(feasible_on_idle_fleet(&profiler, &fleet, &job));
        // More replicas than devices is never feasible.
        let gang = JobSpec::new("gang", Workload::LeNet, 8).with_replicas(3);
        assert!(!feasible_on_idle_fleet(&profiler, &fleet, &gang));
    }
}
