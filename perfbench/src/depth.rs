//! `depth`: the Table 4 question. For each framework emulation, the deepest
//! ResNet that trains at batch 16 on a 12 GB K40c, searched up to depth
//! 40,000. One op is one (framework, batch) answer, computed in a fresh
//! process so every answer starts with cold analysis and plan caches.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sn_frameworks::{max_resnet_depth, Framework};
use sn_runtime::plan;
use sn_runtime::plan::plan_memo_stats;
use sn_runtime::session::max_feasible_param;
use sn_sim::DeviceSpec;

use crate::common::{memo_since, ms_since, ratio, timed, Json, MemoDelta};
use crate::spans::span;
use crate::{probe, Args};

pub const BATCH: usize = 16;
pub const SEARCH_CAP: usize = 40_000;

pub fn framework(i: usize) -> Framework {
    Framework::ALL[i % Framework::ALL.len()]
}

fn net(units: usize) -> sn_graph::Net {
    sn_models::resnet(BATCH, (6, 32, units, 6))
}

fn units_of(depth: usize) -> usize {
    (depth - 2) / 3 - 44
}

/// The answer is right when its net compiles and one more unit does not.
fn check(f: Framework, depth: usize, spec: &DeviceSpec) -> bool {
    if depth == 0 {
        return false;
    }
    let u = units_of(depth);
    plan::compile_memo(&net(u), spec, f.policy()).is_ok()
        && plan::compile_memo(&net(u + 1), spec, f.policy()).is_err()
}

/// Set-up of one answer: the search's first probe (the one-unit net) is
/// built and compiled, which is the first compile of the process.
fn setup(f: Framework, spec: &DeviceSpec) {
    let _ = plan::compile_memo(&net(1), spec, f.policy());
}

/// One untraced answer in this process.
pub fn op(args: &Args, start: Instant) -> Json {
    let f = framework(args.framework);
    let spec = DeviceSpec::k40c();
    let memo0 = plan_memo_stats();
    setup(f, &spec);
    let setup_s = start.elapsed().as_secs_f64();
    let memo_setup = memo_since(memo0);
    let memo1 = plan_memo_stats();
    let (depth, ms) = timed(|| max_resnet_depth(f, BATCH, &spec, SEARCH_CAP));
    let memo_measured = memo_since(memo1);
    let ok = check(f, depth, &spec);
    let mut out = Json::default();
    out.num("setup_s", setup_s)
        .num("op_ms", ms)
        .str("framework", f.name())
        .int("answer", depth as u64)
        .bool("ok", ok);
    crate::memo_fields(&mut out, memo_setup, memo_measured);
    out
}

/// One pass in one process: every framework once, in `--order`. Untraced,
/// each answer is `max_resnet_depth`. Traced, each search is driven through
/// `max_feasible_param` with the same bracket and a build closure that
/// records every probe, so model building, probe counts and infeasible
/// probes can be seen from outside.
pub fn pass(args: &Args) -> Json {
    let spec = DeviceSpec::k40c();
    let build_ns = AtomicU64::new(0);
    let probes: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let (mut total_probes, mut infeasible) = (0u64, 0u64);
    let mut memo = MemoDelta::default();
    let mut pass_ms = 0.0;
    let mut failed = 0u64;
    let mut answers = Json::default();
    for (k, i) in args.order.iter().enumerate() {
        let f = framework(*i);
        let op = k as u64 + 1;
        setup(f, &spec);
        probes.lock().expect("probe log").clear();
        let build = |units: usize| {
            let t = Instant::now();
            let n = span("models", "build", op, || net(units));
            build_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            probes.lock().expect("probe log").push(units);
            n
        };
        let hi_units = (SEARCH_CAP.saturating_sub(2) / 3).saturating_sub(44).max(2);
        crate::spans::set_enabled(args.trace);
        let memo0 = plan_memo_stats();
        let t = Instant::now();
        let depth = if args.trace {
            let best = span("plan", "max_feasible_param", op, || {
                max_feasible_param(&build, &spec, f.policy(), 1, hi_units)
            });
            if best == 0 {
                0
            } else {
                3 * (44 + best) + 2
            }
        } else {
            max_resnet_depth(f, BATCH, &spec, SEARCH_CAP)
        };
        pass_ms += ms_since(t);
        let d = memo_since(memo0);
        crate::spans::set_enabled(false);
        memo.hits += d.hits;
        memo.misses += d.misses;
        failed += u64::from(!check(f, depth, &spec));
        answers.int(f.name(), depth as u64);
        let p = probes.lock().expect("probe log");
        total_probes += p.len() as u64;
        infeasible += p
            .iter()
            .filter(|&&u| depth == 0 || u > units_of(depth))
            .count() as u64;
    }
    let mut out = Json::default();
    out.num("pass_ms", pass_ms)
        .int("failed", failed)
        .obj("answers", &answers);
    if args.trace {
        let mut layers = Json::default();
        let build_ms = build_ns.load(Ordering::Relaxed) as f64 / 1e6;
        layers
            .num("models.build_ms", build_ms / total_probes.max(1) as f64)
            .num(
                "plan.infeasible_ratio",
                ratio(infeasible as f64, total_probes as f64),
            );
        crate::memo_layers(&mut layers, memo);
        crate::span_fields(&mut out, &mut layers, pass_ms);
        out.obj("layers", &layers);
    }
    out
}

/// Net-level layers on this workload's answers, in a fresh process: graph,
/// plan and pool on the SuperNeurons answer net (28k layers); interpreter,
/// gang and tuner on the Caffe answer net, the one answer small enough to
/// execute in a probe.
pub fn probe(args: &Args) -> Json {
    let spec = DeviceSpec::k40c();
    let mut layers = Json::default();
    let deep = net(units_of(args.sn_depth));
    probe::graph_plan_mempool(
        &mut layers,
        &deep,
        &spec,
        Framework::SuperNeurons.policy(),
        true,
    );
    drop(deep);
    let small = net(units_of(args.caffe_depth));
    let caffe = Framework::Caffe.policy();
    probe::executor(&mut layers, &small, &spec, caffe);
    probe::group(&mut layers, &small, &spec, caffe);
    probe::tune(&mut layers, &small, &spec, args.seed);
    probe::admission_and_cluster(&mut layers, args.seed);
    layers
}
