//! High-level session APIs: build a network, pick a device and a policy,
//! measure — [`Session`] for training iterations, [`InferenceSession`] for
//! forward-only serving. Used by the examples and the experiment harness.
//!
//! Also home of the peak predictor: [`plan_prediction`] only *compiles* a
//! [`crate::MemoryPlan`] — no timeline, no DMA events, no trace — and reads
//! the exact peak off the plan. [`predict_run`] measures a full simulated
//! iteration instead; it is kept as the oracle tests and the `plan` bench
//! compare the compiled peak against (the two agree by construction).

use sn_graph::Net;
use sn_sim::{DeviceSpec, SimTime};

use crate::executor::{finite_rate, ExecError, Executor, IterationReport};
use crate::plan;
use crate::policy::Policy;

/// A measured training session.
pub struct Session {
    pub net: Net,
    pub spec: DeviceSpec,
    pub policy: Policy,
    /// Warm-up iterations before measurement (allocator/cache warm state).
    pub warmup: usize,
    /// Measured iterations (averaged).
    pub iters: usize,
}

/// Aggregated results of a session.
#[derive(Debug, Clone)]
pub struct SessionReport {
    pub net_name: String,
    pub batch: usize,
    pub iter_time: SimTime,
    pub imgs_per_sec: f64,
    pub peak_bytes: u64,
    pub h2d_bytes_per_iter: u64,
    pub d2h_bytes_per_iter: u64,
    pub recompute_forwards: u64,
    pub alloc_time: SimTime,
    pub alloc_calls: u64,
    pub stall: SimTime,
    /// Per-iteration compute-stream busy time (averaged).
    pub compute_busy: SimTime,
    /// Per-iteration DMA busy time (averaged).
    pub transfer_busy: SimTime,
    /// Per-iteration DMA time hidden under kernels (averaged).
    pub overlapped: SimTime,
    pub last: IterationReport,
}

impl SessionReport {
    /// Total PCIe traffic per iteration (Table 3's quantity).
    pub fn traffic_per_iter(&self) -> u64 {
        self.h2d_bytes_per_iter + self.d2h_bytes_per_iter
    }

    /// Fraction of transfer time hidden under compute across the measured
    /// iterations, in `[0, 1]` (zero when nothing moved).
    pub fn overlap_fraction(&self) -> f64 {
        sn_sim::OverlapStats {
            compute_busy: self.compute_busy,
            transfer_busy: self.transfer_busy,
            overlapped: self.overlapped,
        }
        .fraction()
    }
}

/// What a policy is predicted to cost on a device: the admission-control
/// quantities a cluster scheduler needs *before* committing device memory to
/// a job (peak bytes to reserve, steady-state iteration time, and the
/// gradient bytes a data-parallel gang exchanges per step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeakPrediction {
    /// High-water device bytes over a cold + a warm iteration — the number a
    /// reservation must cover so the job never exceeds its grant.
    pub peak_bytes: u64,
    /// Warm (steady-state) iteration time.
    pub iter_time: SimTime,
    /// Total weight-gradient bytes (the per-iteration all-reduce payload).
    pub weight_bytes: u64,
}

/// Predict what training `net` under `policy` costs on `spec` by *running*
/// the interpreter: one cold and one warm virtual iteration (no numeric
/// compute). The oracle for [`plan_prediction`], which returns the same
/// `peak_bytes` from a compile alone and is what every production path
/// calls. Errors mean the job cannot run within `spec.dram_bytes` at all.
pub fn predict_run(
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
) -> Result<PeakPrediction, ExecError> {
    let mut ex = Executor::new(net, spec.clone(), policy)?;
    let cold = ex.run_iteration()?;
    let warm = ex.run_iteration()?;
    Ok(PeakPrediction {
        peak_bytes: cold.peak_bytes.max(warm.peak_bytes),
        iter_time: warm.iter_time,
        weight_bytes: ex.cost.total_weight_bytes(),
    })
}

/// The admission-control hot path: compile a training [`crate::MemoryPlan`]
/// and read the quantities off it — no simulated iteration, no timeline.
/// `peak_bytes` is **exact** (the interpreter replays the plan's alloc/free
/// sequence, so the executed high-water equals it to the byte); `iter_time`
/// is the plan's analytic busiest-engine estimate, a pacing hint rather
/// than a measurement.
///
/// Goes through the plan memo ([`plan::compile_memo`]): a repeated
/// prediction for the same `(net, policy, device)` triple is a hash lookup,
/// not a compile.
pub fn plan_prediction(
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
) -> Result<PeakPrediction, ExecError> {
    let c = plan::compile_memo(net, spec, policy)?;
    Ok(PeakPrediction {
        peak_bytes: c.plan.peak_bytes,
        iter_time: c.plan.iter_time_estimate(),
        weight_bytes: c.plan.weight_bytes,
    })
}

/// [`plan_prediction`] for a forward-only inference plan: the peak a serving
/// replica reserves and the per-batch latency estimate. `weight_bytes` is
/// still the resident parameter footprint — inference exchanges no
/// gradients, so schedulers must not budget an all-reduce from it.
pub fn plan_prediction_inference(
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
) -> Result<PeakPrediction, ExecError> {
    let c = plan::compile_inference_memo(net, spec, policy)?;
    Ok(PeakPrediction {
        peak_bytes: c.plan.peak_bytes,
        iter_time: c.plan.iter_time_estimate(),
        weight_bytes: c.plan.weight_bytes,
    })
}

impl Session {
    pub fn new(net: Net, spec: DeviceSpec, policy: Policy) -> Session {
        Session {
            net,
            spec,
            policy,
            warmup: 1,
            iters: 3,
        }
    }

    /// Predicted peak device bytes for this session's configuration — the
    /// reservation a multi-tenant scheduler must hold. See
    /// [`plan_prediction`].
    pub fn predicted_peak_bytes(&self) -> Result<u64, ExecError> {
        plan_prediction(&self.net, &self.spec, self.policy).map(|p| p.peak_bytes)
    }

    /// Run the session and aggregate.
    pub fn run(&self) -> Result<SessionReport, ExecError> {
        let mut ex = Executor::new(&self.net, self.spec.clone(), self.policy)?;
        for _ in 0..self.warmup {
            ex.run_iteration()?;
        }
        let mut total_time = SimTime::ZERO;
        let mut peak = 0u64;
        let mut h2d = 0u64;
        let mut d2h = 0u64;
        let mut recomputes = 0u64;
        let mut alloc_time = SimTime::ZERO;
        let mut alloc_calls = 0u64;
        let mut stall = SimTime::ZERO;
        let mut compute_busy = SimTime::ZERO;
        let mut transfer_busy = SimTime::ZERO;
        let mut overlapped = SimTime::ZERO;
        let mut last = None;
        let iters = self.iters.max(1);
        for _ in 0..iters {
            let r = ex.run_iteration()?;
            total_time += r.iter_time;
            peak = peak.max(r.peak_bytes);
            h2d += r.h2d_bytes;
            d2h += r.d2h_bytes;
            recomputes += r.counters.recompute_forwards;
            alloc_time += r.alloc_time;
            alloc_calls += r.alloc_calls;
            stall += r.stall;
            compute_busy += r.compute_busy;
            transfer_busy += r.transfer_busy;
            overlapped += r.overlapped;
            last = Some(r);
        }
        let iter_time = SimTime::from_ns(total_time.as_ns() / iters as u64);
        let batch = self.net.batch();
        Ok(SessionReport {
            net_name: self.net.name.clone(),
            batch,
            iter_time,
            imgs_per_sec: finite_rate(batch, iter_time),
            peak_bytes: peak,
            h2d_bytes_per_iter: h2d / iters as u64,
            d2h_bytes_per_iter: d2h / iters as u64,
            recompute_forwards: recomputes / iters as u64,
            alloc_time: SimTime::from_ns(alloc_time.as_ns() / iters as u64),
            alloc_calls: alloc_calls / iters as u64,
            stall: SimTime::from_ns(stall.as_ns() / iters as u64),
            compute_busy: SimTime::from_ns(compute_busy.as_ns() / iters as u64),
            transfer_busy: SimTime::from_ns(transfer_busy.as_ns() / iters as u64),
            overlapped: SimTime::from_ns(overlapped.as_ns() / iters as u64),
            last: last.expect("iters >= 1"),
        })
    }
}

/// Does `net` train successfully on `spec` under `policy`? Answered by
/// *compiling* the memory plan alone: the planner performs every allocation
/// the iteration would, so compile success is execution success — and the
/// feasibility searches behind Tables 4/5 never touch a timeline. Memoized
/// ([`plan::compile_memo`]): re-asking about a triple is a hash lookup.
pub fn feasible(net: &Net, spec: &DeviceSpec, policy: Policy) -> bool {
    plan::compile_memo(net, spec, policy).is_ok()
}

/// Largest `x` in `[lo, hi]` such that `build(x)` trains on `spec` under
/// `policy`, by exponential probing + a parallel multi-section search.
/// Returns 0 when even `lo` fails.
///
/// With `k` worker threads each search round compiles `k` interior probe
/// points concurrently over the rayon shim and narrows the bracket to the
/// feasible/infeasible boundary they straddle; with one thread it is the
/// classic bisection. For the monotone feasibility curves these searches
/// walk (bigger batch ⇒ more memory) every variant converges to the same
/// knee — the parallelism buys wall-clock, not different answers.
pub fn max_feasible_param(
    build: &(dyn Fn(usize) -> Net + Sync),
    spec: &DeviceSpec,
    policy: Policy,
    lo: usize,
    hi: usize,
) -> usize {
    if !feasible(&build(lo), spec, policy) {
        return 0;
    }
    // Exponential growth from lo until failure or hi.
    let mut good = lo;
    let mut bad = None;
    let mut probe = (lo * 2).max(lo + 1);
    while probe <= hi {
        if feasible(&build(probe), spec, policy) {
            good = probe;
            probe *= 2;
        } else {
            bad = Some(probe);
            break;
        }
    }
    let mut high = match bad {
        Some(b) => b,
        None => {
            return good.min(hi).max(if feasible(&build(hi), spec, policy) {
                hi
            } else {
                good
            })
        }
    };
    // Multi-section search in (good, high): k evenly spaced interior cuts
    // per round, compiled concurrently. Every cut either raises `good` or
    // lowers `high`, so each round strictly narrows the bracket.
    let k = rayon::current_num_threads().clamp(1, 8);
    while high - good > 1 {
        let span = high - good;
        if k == 1 || span <= 2 {
            let mid = good + span / 2;
            if feasible(&build(mid), spec, policy) {
                good = mid;
            } else {
                high = mid;
            }
            continue;
        }
        let mut cuts: Vec<usize> = (1..=k)
            .map(|i| good + span * i / (k + 1))
            .filter(|&x| x > good && x < high)
            .collect();
        cuts.dedup();
        if cuts.is_empty() {
            cuts.push(good + span / 2);
        }
        let oks = rayon::par_map(&cuts, |x| feasible(&build(*x), spec, policy));
        for (x, ok) in cuts.iter().zip(oks) {
            if ok {
                good = good.max(*x);
            } else {
                high = high.min(*x);
            }
        }
        if high <= good {
            // Only reachable if feasibility is non-monotone inside the
            // bracket; `good` is a verified-feasible point, return it.
            break;
        }
    }
    good
}

/// A forward-only serving session: the same network, device, and policy
/// vocabulary as [`Session`], executed over an inference [`crate::MemoryPlan`]
/// — no backward half, no gradients, every activation freed at its last
/// forward reader. One "iteration" serves one batch.
pub struct InferenceSession {
    pub net: Net,
    pub spec: DeviceSpec,
    pub policy: Policy,
    /// Warm-up batches before measurement.
    pub warmup: usize,
    /// Measured batches (averaged).
    pub batches: usize,
}

/// Aggregated results of an inference session.
#[derive(Debug, Clone)]
pub struct InferenceReport {
    pub net_name: String,
    pub batch: usize,
    /// Per-batch forward latency.
    pub batch_time: SimTime,
    pub imgs_per_sec: f64,
    pub peak_bytes: u64,
    pub last: IterationReport,
}

impl InferenceSession {
    pub fn new(net: Net, spec: DeviceSpec, policy: Policy) -> InferenceSession {
        InferenceSession {
            net,
            spec,
            policy,
            warmup: 1,
            batches: 3,
        }
    }

    /// The exact peak a serving replica of this session reserves —
    /// compile-only, see [`plan_prediction_inference`].
    pub fn predicted_peak_bytes(&self) -> Result<u64, ExecError> {
        plan_prediction_inference(&self.net, &self.spec, self.policy).map(|p| p.peak_bytes)
    }

    /// Serve `warmup + batches` batches and aggregate.
    pub fn run(&self) -> Result<InferenceReport, ExecError> {
        let mut ex = Executor::new_inference(&self.net, self.spec.clone(), self.policy)?;
        for _ in 0..self.warmup {
            ex.run_iteration()?;
        }
        let mut total = SimTime::ZERO;
        let mut peak = 0u64;
        let mut last = None;
        let batches = self.batches.max(1);
        for _ in 0..batches {
            let r = ex.run_iteration()?;
            total += r.iter_time;
            peak = peak.max(r.peak_bytes);
            last = Some(r);
        }
        let batch_time = SimTime::from_ns(total.as_ns() / batches as u64);
        let batch = self.net.batch();
        Ok(InferenceReport {
            net_name: self.net.name.clone(),
            batch,
            batch_time,
            imgs_per_sec: finite_rate(batch, batch_time),
            peak_bytes: peak,
            last: last.expect("batches >= 1"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_graph::Shape4;

    fn netb(batch: usize) -> Net {
        let mut net = Net::new("n", Shape4::new(batch, 3, 16, 16));
        let d = net.data();
        let c = net.conv(d, 8, 3, 1, 1);
        let a = net.relu(c);
        let f = net.fc(a, 10);
        net.softmax(f);
        net
    }

    #[test]
    fn session_reports_throughput() {
        let s = Session::new(netb(32), DeviceSpec::k40c(), Policy::superneurons());
        let r = s.run().unwrap();
        assert!(r.imgs_per_sec > 0.0);
        assert_eq!(r.batch, 32);
        assert!(r.peak_bytes > 0);
    }

    #[test]
    fn max_feasible_param_finds_the_knee() {
        // Tiny DRAM: find the max batch; then check batch+1 fails.
        let spec = DeviceSpec::k40c().with_dram(24 << 20);
        let best = max_feasible_param(&netb, &spec, Policy::liveness_only(), 1, 4096);
        assert!(best >= 1);
        assert!(feasible(&netb(best), &spec, Policy::liveness_only()));
        assert!(!feasible(&netb(best + 1), &spec, Policy::liveness_only()));
    }

    #[test]
    fn superneurons_beats_baseline_on_max_batch() {
        let spec = DeviceSpec::k40c().with_dram(24 << 20);
        let base = max_feasible_param(&netb, &spec, Policy::baseline(), 1, 4096);
        let sn = max_feasible_param(&netb, &spec, Policy::superneurons(), 1, 4096);
        assert!(sn > base, "superneurons {sn} must beat baseline {base}");
    }

    #[test]
    fn infeasible_lo_returns_zero() {
        let spec = DeviceSpec::k40c().with_dram(64 << 10);
        assert_eq!(
            max_feasible_param(&netb, &spec, Policy::baseline(), 1, 64),
            0
        );
    }

    #[test]
    fn predict_run_reports_the_admission_quantities() {
        let net = netb(32);
        let spec = DeviceSpec::k40c();
        let p = predict_run(&net, &spec, Policy::superneurons()).unwrap();
        assert!(p.peak_bytes > 0 && p.peak_bytes <= spec.dram_bytes);
        assert!(p.iter_time > SimTime::ZERO);
        assert!(p.weight_bytes > 0);
        // The session's compiled prediction agrees with the oracle.
        let s = Session::new(netb(32), spec, Policy::superneurons());
        assert_eq!(s.predicted_peak_bytes().unwrap(), p.peak_bytes);
    }

    #[test]
    fn predicted_peak_shrinks_with_policy_strength_under_pressure() {
        // Under a tight budget the adaptive stack must predict a smaller
        // peak than the keep-everything baseline does uncapped. Needs a deep
        // chain: offload/recompute can only trim what spans many layers.
        let deep = |batch: usize| {
            let mut net = Net::new("deep", sn_graph::Shape4::new(batch, 3, 32, 32));
            let mut prev = net.data();
            for _ in 0..8 {
                let c = net.conv(prev, 32, 3, 1, 1);
                prev = net.relu(c);
            }
            let f = net.fc(prev, 10);
            net.softmax(f);
            net
        };
        let spec = DeviceSpec::k40c();
        let peak = |spec: &DeviceSpec, policy| plan_prediction(&deep(32), spec, policy).unwrap();
        let base = peak(&spec, Policy::baseline()).peak_bytes;
        let tight = spec.with_dram(base / 2);
        let sn = peak(&tight, Policy::superneurons()).peak_bytes;
        assert!(sn < base, "superneurons {sn} must undercut baseline {base}");
        assert!(sn <= tight.dram_bytes, "prediction must respect the budget");
    }

    #[test]
    fn prediction_errors_signal_rejection() {
        let spec = DeviceSpec::k40c().with_dram(64 << 10);
        assert!(predict_run(&netb(32), &spec, Policy::baseline()).is_err());
        assert!(plan_prediction(&netb(32), &spec, Policy::baseline()).is_err());
    }

    #[test]
    fn plan_prediction_peak_matches_the_simulated_one_exactly() {
        // The tentpole contract at the session level: the compile-only
        // predictor and the full simulated iteration agree on peak bytes,
        // byte for byte, across the preset ladder.
        let net = netb(32);
        let spec = DeviceSpec::k40c();
        for policy in [
            Policy::baseline(),
            Policy::liveness_only(),
            Policy::liveness_offload(),
            Policy::full_memory(),
            Policy::superneurons(),
        ] {
            let simulated = predict_run(&net, &spec, policy).unwrap();
            let planned = plan_prediction(&net, &spec, policy).unwrap();
            assert_eq!(planned.peak_bytes, simulated.peak_bytes);
            assert_eq!(planned.weight_bytes, simulated.weight_bytes);
            assert!(planned.iter_time > SimTime::ZERO);
        }
    }

    #[test]
    fn inference_session_serves_under_the_training_peak() {
        let net = netb(32);
        let spec = DeviceSpec::k40c();
        let train = Session::new(netb(32), spec.clone(), Policy::superneurons())
            .run()
            .unwrap();
        let inf = InferenceSession::new(net.clone(), spec.clone(), Policy::superneurons())
            .run()
            .unwrap();
        assert!(
            inf.imgs_per_sec > train.imgs_per_sec,
            "forward-only is faster"
        );
        assert!(inf.peak_bytes < train.peak_bytes, "forward-only is smaller");
        assert!(inf.imgs_per_sec.is_finite());
        // The session's predicted peak is the measured one, exactly.
        let s = InferenceSession::new(net, spec, Policy::superneurons());
        assert_eq!(s.predicted_peak_bytes().unwrap(), inf.peak_bytes);
    }
}
