//! Layer probes: direct calls into one layer's public functions, timed from
//! outside. A workload's traced run takes a layer's numbers from its own ops
//! where those ops call the layer, and from these probes otherwise, on the
//! workload's own net where the layer accepts one and on the fixed serving
//! catalog where it does not (admission and the cluster loop take catalog
//! jobs, not nets).

use std::time::Instant;

use sn_cluster::{JobKind, PolicyPreset, Profiler};
use sn_graph::liveness::LivenessPlan;
use sn_graph::{Net, NetCost, Route};
use sn_mempool::HeapPool;
use sn_runtime::tune::{search, TuneConfig};
use sn_runtime::{
    plan, CompiledPlan, Executor, GroupConfig, GroupExecutor, Interconnect, PlanOp, Policy,
    RecomputePlan,
};
use sn_sim::{AllocId, DeviceAllocator, DeviceSpec};

use crate::common::{median, ms_since, quantile, ratio, tail_quantile, timed, Json, Rng};
use crate::serve;

/// Median milliseconds of `reps` calls of `f`.
fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            ms_since(t)
        })
        .collect();
    median(&v)
}

/// Graph analyses, warm compiles, memo hits and the pool replay of `net`'s
/// plan. With `cold`, the first compile in this process is timed as
/// `plan.compile_cold_ms` (the caller guarantees nothing compiled `net`
/// before).
pub fn graph_plan_mempool(
    out: &mut Json,
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
    cold: bool,
) {
    if cold {
        let (_, ms) = timed(|| plan::compile(net, spec, policy));
        out.num("plan.compile_cold_ms", ms);
    }
    let reps = if net.len() > 10_000 { 3 } else { 7 };
    let options = policy.liveness_options();
    let route_ms = median_ms(reps, || Route::construct(net));
    let route = Route::construct(net);
    let cost_ms = median_ms(reps, || NetCost::with_precision(net, options.precision));
    let cost = NetCost::with_precision(net, options.precision);
    let liveness_ms = median_ms(reps, || LivenessPlan::analyze(net, &route, options));
    let recompute_ms = median_ms(reps, || {
        RecomputePlan::build(net, &route, &cost, policy.recompute)
    });
    let graph_ms = route_ms + cost_ms + liveness_ms + recompute_ms;
    out.num("graph.route_ms", route_ms)
        .num("graph.liveness_ms", liveness_ms)
        .num("graph.cost_ms", cost_ms)
        .num("graph.recompute_ms", recompute_ms)
        .num("graph.layers_per_s", net.len() as f64 / (graph_ms / 1e3));

    let compile_ms = median_ms(reps, || plan::compile(net, spec, policy));
    let compiled = plan::compile_memo(net, spec, policy).expect("probe net fits its device");
    let hit_ms = median_ms(200, || plan::compile_memo(net, spec, policy));
    out.num("plan.compile_ms", compile_ms)
        .num("plan.memo_hit_us", hit_ms * 1e3)
        .num(
            "plan.ops_per_s",
            compiled.plan.n_ops() as f64 / (compile_ms / 1e3),
        );

    // Best of three replays: the pool work is deterministic, the host is not.
    let mut best = (f64::MAX, Replay::default());
    for _ in 0..3 {
        let (r, ms) = timed(|| replay(&compiled, spec.dram_bytes));
        if ms < best.0 {
            best = (ms, r);
        }
    }
    let (ms, r) = best;
    out.num("mempool.ops_per_s", r.calls as f64 / (ms / 1e3))
        .num("mempool.alloc_fail", r.fails as f64)
        .num("mempool.largest_fragment", r.largest_at_peak as f64);
}

#[derive(Default)]
struct Replay {
    calls: u64,
    fails: u64,
    high_water: u64,
    largest_at_peak: u64,
}

/// Replay a compiled plan's alloc/free sequence through a fresh `HeapPool`
/// via the `DeviceAllocator` trait: the resident weights first, then every
/// op that grants or releases device bytes, in plan order.
fn replay(c: &CompiledPlan, capacity: u64) -> Replay {
    let mut pool = HeapPool::with_capacity(capacity);
    let mut r = Replay::default();
    let mut live: Vec<Option<AllocId>> = vec![None; c.liveness.tensors.len()];
    let mut scratch: Vec<AllocId> = Vec::new();
    let alloc = |pool: &mut HeapPool, r: &mut Replay, bytes: u64| -> Option<AllocId> {
        r.calls += 1;
        match pool.alloc(bytes) {
            Ok(g) => {
                if pool.used() >= r.high_water {
                    r.high_water = pool.used();
                    r.largest_at_peak = pool.largest_fragment();
                }
                Some(g.id)
            }
            Err(_) => {
                r.fails += 1;
                None
            }
        }
    };
    let free = |pool: &mut HeapPool, r: &mut Replay, id: AllocId| {
        r.calls += 1;
        if pool.free(id).is_err() {
            r.fails += 1;
        }
    };
    if c.plan.weight_bytes > 0 {
        alloc(&mut pool, &mut r, c.plan.weight_bytes);
    }
    for op in &c.plan.ops {
        match *op {
            PlanOp::Alloc(t) | PlanOp::Fetch(t) => {
                live[t.0] = alloc(&mut pool, &mut r, c.liveness.tensors[t.0].bytes);
            }
            PlanOp::ReleaseDevice(t) | PlanOp::Free(t) => {
                if let Some(id) = live[t.0].take() {
                    free(&mut pool, &mut r, id);
                }
            }
            PlanOp::AllocWorkspace(b) | PlanOp::AllocTransient(b) => {
                if let Some(id) = alloc(&mut pool, &mut r, b) {
                    scratch.push(id);
                }
            }
            PlanOp::FreeTransients => {
                for id in scratch.drain(..) {
                    free(&mut pool, &mut r, id);
                }
            }
            PlanOp::Offload { .. } | PlanOp::Recompute(_) | PlanOp::Collective { .. } => {}
        }
    }
    if pool.high_water() != c.plan.peak_bytes {
        // The replay must reach exactly the plan's peak; anything else is
        // an allocator defect and is counted as such.
        r.fails += 1;
    }
    r
}

/// One cold and several warm iterations of `net` through a fresh
/// `Executor`.
pub fn executor(out: &mut Json, net: &Net, spec: &DeviceSpec, policy: Policy) {
    let mut ex = Executor::new(net, spec.clone(), policy).expect("probe net fits its device");
    let (_, cold_ms) = timed(|| ex.run_iteration().expect("cold iteration"));
    let mut warm = Vec::new();
    let mut last = None;
    for _ in 0..30 {
        let (r, ms) = timed(|| ex.run_iteration().expect("warm iteration"));
        warm.push(ms);
        last = Some(r);
    }
    let c = last.expect("thirty warm iterations").counters;
    let p50 = median(&warm);
    out.num("executor.cold_iter_ms", cold_ms)
        .num("executor.iter_ms", p50)
        .num(
            "executor.iter_tail_ms",
            quantile(&warm, tail_quantile(warm.len())),
        )
        .num("executor.ns_per_step", p50 * 1e6 / (2 * net.len()) as f64)
        .num(
            "utp.cache_hit_ratio",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
        )
        .num("utp.evictions", c.evictions as f64)
        .num("utp.offloads", c.offloads as f64)
        .num("utp.prefetches", c.prefetches as f64)
        .num("executor.recompute_forwards", c.recompute_forwards as f64)
        .num("executor.ladder_rungs", c.ladder_rungs as f64);
}

/// A two-replica NVLink gang of `net`: the warm `GroupExecutor` iteration.
pub fn group(out: &mut Json, net: &Net, spec: &DeviceSpec, policy: Policy) {
    group_with(
        out,
        net,
        spec,
        policy,
        GroupConfig::new(2, Interconnect::nvlink()),
    );
}

pub fn group_with(out: &mut Json, net: &Net, spec: &DeviceSpec, policy: Policy, cfg: GroupConfig) {
    let mut gx = GroupExecutor::new(net, spec.clone(), policy, cfg).expect("probe gang fits");
    gx.run_iteration().expect("cold gang iteration");
    let mut warm = Vec::new();
    let mut overlap = 0.0;
    for _ in 0..3 {
        let (r, ms) = timed(|| gx.run_iteration().expect("warm gang iteration"));
        warm.push(ms);
        overlap = r.allreduce_overlap_fraction();
    }
    out.num("group.iter_ms", median(&warm))
        .num("group.allreduce_overlap", overlap);
}

/// One single-device policy search over `net` with a seed drawn from the
/// benchmark seed.
pub fn tune(out: &mut Json, net: &Net, spec: &DeviceSpec, seed: u64) {
    let cfg = TuneConfig::new(1, Interconnect::pcie())
        .with_seed(Rng::new(seed).next_u64())
        .with_workers(1);
    let o = search(net, spec, &cfg).expect("probe net tunes");
    tune_fields(out, &[o]);
}

/// `tune.*` from a set of search outcomes.
pub fn tune_fields(out: &mut Json, outcomes: &[sn_runtime::SearchOutcome]) {
    let wall: f64 = outcomes.iter().map(|o| o.wall.as_secs_f64() * 1e3).sum();
    let ms: Vec<f64> = outcomes
        .iter()
        .map(|o| o.wall.as_secs_f64() * 1e3)
        .collect();
    let evals: u64 = outcomes.iter().map(|o| o.tuned.evals).sum();
    let pruned: u64 = outcomes.iter().map(|o| o.tuned.pruned).sum();
    let hits: u64 = outcomes.iter().map(|o| o.memo_hits).sum();
    let lookups: u64 = outcomes.iter().map(|o| o.memo_lookups).sum();
    out.num("tune.search_ms", median(&ms))
        .num("tune.evals_per_s", evals as f64 / (wall / 1e3))
        .num(
            "tune.prune_ratio",
            ratio(pruned as f64, (evals + pruned) as f64),
        )
        .num("tune.memo_hit_ratio", ratio(hits as f64, lookups as f64));
}

/// `Profiler` calls over the serving catalog on the serving device, and a
/// short steady stream through the cluster loop with metrics enabled.
pub fn admission_and_cluster(out: &mut Json, seed: u64) {
    admission(out);
    let mut sim = serve::sim();
    let registry = sn_telemetry::MetricsRegistry::new();
    sim.enable_metrics(&registry);
    let mut stream = serve::Stream::new(2_000, Rng::new(seed).next_u64(), serve::STEADY_GAP_NS);
    let t = Instant::now();
    let rep = sim.run_stream(&mut stream);
    let wall_s = t.elapsed().as_secs_f64();
    serve::cluster_fields(out, &rep, &registry, &stream, wall_s);
}

/// `admission.*` from cold and memoized `Profiler` calls over the catalog.
pub fn admission(out: &mut Json) {
    let profiler = Profiler::new();
    let spec = serve::device();
    let budget = spec.dram_bytes;
    let catalog = serve::catalog();
    let mut cold = Vec::new();
    let mut hit = Vec::new();
    for job in &catalog {
        let call =
            || profiler.profile_kind(job.workload, job.batch, job.preset, job.kind, &spec, budget);
        cold.push(timed(call).1);
        for _ in 0..50 {
            hit.push(timed(call).1);
        }
    }
    let mut gang = Vec::new();
    for job in catalog
        .iter()
        .filter(|j| j.replicas > 1 && j.kind == JobKind::Training)
    {
        let (_, ms) = timed(|| {
            profiler.gang_step_time(
                job.workload,
                job.batch,
                PolicyPreset::Superneurons,
                job.replicas,
                &spec,
                Interconnect::pcie(),
            )
        });
        gang.push(ms);
    }
    out.num("admission.profile_cold_ms", median(&cold))
        .num("admission.profile_hit_us", median(&hit) * 1e3)
        .num("admission.gang_step_ms", median(&gang));
}
