//! `train`: ResNet-1034 (3,456 graph layers) trains at batch 16 on a 12 GB
//! K40c under the full SuperNeurons policy through `Executor::run_iteration`.
//! One op is one iteration. The net sits at the device cap, so every
//! iteration runs liveness, recomputation and offload/prefetch traffic.

use std::time::Instant;

use sn_runtime::plan::plan_memo_stats;
use sn_runtime::{plan, Executor, Policy};
use sn_sim::DeviceSpec;

use crate::common::{memo_since, ms_since, quantile, ratio, timed, Json};
use crate::spans::span;
use crate::{probe, Args};

pub fn net() -> sn_graph::Net {
    sn_models::resnet(16, (6, 32, 300, 6))
}

pub fn measure(args: &Args, start: Instant) -> Json {
    let spec = DeviceSpec::k40c();
    let policy = Policy::superneurons();
    let memo0 = plan_memo_stats();
    let mut out = Json::default();
    let mut layers = Json::default();

    let (net, build_ms) = timed(net);
    let (compiled, cold_compile_ms) =
        timed(|| plan::compile_memo(&net, &spec, policy).expect("ResNet-1034 fits a K40c"));
    let plan_peak = compiled.plan.peak_bytes;
    let mut ex = Executor::new(&net, spec.clone(), policy).expect("ResNet-1034 fits a K40c");
    let (cold, cold_ms) = timed(|| ex.run_iteration());
    let mut attempted = 1u64;
    let mut failed = u64::from(!matches!(&cold, Ok(r) if r.peak_bytes == plan_peak));
    let setup_s = start.elapsed().as_secs_f64();
    let memo_setup = memo_since(memo0);
    if args.setup_only {
        return crate::setup_json(setup_s, failed == 0);
    }

    // Measured phase. In a traced run every other iteration is traced, so
    // the traced and untraced samples see the same process state.
    let memo1 = plan_memo_stats();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut sim_iter_ms = 0.0;
    let mut counters = None;
    let t_measure = Instant::now();
    let mut i = 0u64;
    while t_measure.elapsed().as_secs_f64() < args.seconds || untraced.is_empty() {
        let trace_this = args.trace && i % 2 == 1;
        crate::spans::set_enabled(trace_this);
        let t = Instant::now();
        let r = span("executor", "run_iteration", i + 1, || ex.run_iteration());
        let ms = ms_since(t);
        attempted += 1;
        match r {
            Ok(r) if r.peak_bytes == plan_peak => {
                if sim_iter_ms == 0.0 {
                    sim_iter_ms = r.iter_time.as_ns() as f64 / 1e6;
                } else if r.iter_time.as_ns() as f64 / 1e6 != sim_iter_ms {
                    failed += 1; // warm iterations replay one plan: identical timing
                }
                counters = Some(r.counters);
            }
            _ => failed += 1,
        }
        if trace_this {
            traced.push(ms)
        } else {
            untraced.push(ms)
        }
        i += 1;
    }
    crate::spans::set_enabled(false);
    let memo_measured = memo_since(memo1);

    out.num("setup_s", setup_s)
        .arr("op_ms", &untraced)
        .arr("pass_ms", &untraced)
        .int("ops_per_pass", 1)
        .int("attempted", attempted)
        .int("failed", failed)
        .num("sim_peak_bytes", plan_peak as f64)
        .num("sim_iter_ms", sim_iter_ms);
    crate::memo_fields(&mut out, memo_setup, memo_measured);

    if args.trace {
        let all: Vec<f64> = untraced.iter().chain(&traced).copied().collect();
        let c = counters.unwrap_or_default();
        let steps = (2 * net.len()) as f64;
        layers
            .num("models.build_ms", build_ms)
            .num("plan.compile_cold_ms", cold_compile_ms)
            .num("executor.cold_iter_ms", cold_ms)
            .num("executor.iter_ms", quantile(&all, 0.5))
            .num(
                "executor.iter_tail_ms",
                quantile(&all, crate::common::tail_quantile(all.len())),
            )
            .num("executor.ns_per_step", quantile(&all, 0.5) * 1e6 / steps)
            .num(
                "utp.cache_hit_ratio",
                ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            )
            .num("utp.evictions", c.evictions as f64)
            .num("utp.offloads", c.offloads as f64)
            .num("utp.prefetches", c.prefetches as f64)
            .num("executor.recompute_forwards", c.recompute_forwards as f64)
            .num("executor.ladder_rungs", c.ladder_rungs as f64);
        crate::memo_layers(&mut layers, memo_measured);
        layers.num("plan.infeasible_ratio", 0.0);
        let traced_wall_s = traced.iter().sum::<f64>() / 1e3;
        crate::trace_fields(&mut out, &mut layers, &untraced, &traced, traced_wall_s);
        probe::graph_plan_mempool(&mut layers, &net, &spec, policy, false);
        out.obj("layers", &layers);
    }
    out
}

/// Layer numbers this workload does not produce itself, measured on its
/// own net in a fresh process.
pub fn probe(args: &Args) -> Json {
    let mut layers = Json::default();
    let net = net();
    let spec = DeviceSpec::k40c();
    probe::group(&mut layers, &net, &spec, Policy::superneurons());
    probe::tune(&mut layers, &net, &spec, args.seed);
    probe::admission_and_cluster(&mut layers, args.seed);
    layers
}
