//! `tune`: `tune::search` over a fixed matrix of CNNs and a transformer on
//! both device models at gang sizes 1 and 2. One op is one search of one
//! (point, seed) pair; seeds derive from the benchmark seed, so every op is a
//! distinct search while plan-memo entries carry over between searches of
//! the same point.

use std::time::Instant;

use sn_graph::Net;
use sn_models as models;
use sn_runtime::plan::plan_memo_stats;
use sn_runtime::tune::{search, SearchOutcome, TuneConfig};
use sn_runtime::{plan, GroupConfig, GroupExecutor, Interconnect, Policy};
use sn_sim::DeviceSpec;

use crate::common::{median, memo_since, ms_since, timed, Json, Rng};
use crate::spans::span;
use crate::{probe, Args};

pub struct Point {
    pub net: Net,
    pub spec: DeviceSpec,
    pub replicas: usize,
    pub interconnect: Interconnect,
}

fn point(net: Net, spec: DeviceSpec, replicas: usize, interconnect: Interconnect) -> Point {
    Point {
        net,
        spec,
        replicas,
        interconnect,
    }
}

/// The seven matrix points.
pub fn matrix() -> Vec<Point> {
    let k40c = DeviceSpec::k40c;
    let titan = DeviceSpec::titan_xp;
    vec![
        point(models::vgg16(16), k40c(), 1, Interconnect::pcie()),
        point(models::resnet50(16), titan(), 2, Interconnect::nvlink()),
        point(models::gpt_small(2, 128), titan(), 1, Interconnect::pcie()),
        point(models::vgg16(16), titan(), 2, Interconnect::pcie()),
        point(models::resnet50(16), k40c(), 1, Interconnect::pcie()),
        point(models::gpt_small(8, 256), titan(), 1, Interconnect::pcie()),
        point(
            models::vgg16(24),
            k40c().with_dram(4 << 30),
            1,
            Interconnect::pcie(),
        ),
    ]
}

/// Search workers. One: every benchmark process runs on one CPU, and
/// unpinned on two CPUs the per-batch thread start-up cost more than the
/// fan-out saved (about 92 against 114 searches/s).
pub const WORKERS: usize = 1;

pub fn config(p: &Point, seed: u64) -> TuneConfig {
    TuneConfig::new(p.replicas, p.interconnect)
        .with_seed(seed)
        .with_workers(WORKERS)
}

/// A search is right when the tuned step is no slower than the best hand
/// preset and the winner's executed peak equals its plan peak.
fn ok(o: &SearchOutcome) -> bool {
    o.tuned.step_time <= o.tuned.hand_step_time
        && o.tuned.plan_peak_bytes == o.tuned.executed_peak_bytes
}

pub fn measure(args: &Args, start: Instant) -> Json {
    let memo0 = plan_memo_stats();
    let (points, build_ms) = timed(matrix);
    let (_, cold_ms) = timed(|| {
        for p in &points {
            let _ = plan::compile_memo(&p.net, &p.spec, Policy::superneurons());
        }
    });
    let setup_s = start.elapsed().as_secs_f64();
    let memo_setup = memo_since(memo0);
    if args.setup_only {
        return crate::setup_json(setup_s, true);
    }

    let memo1 = plan_memo_stats();
    let mut rng = Rng::new(args.seed);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut untraced_pass, mut traced_pass) = (Vec::new(), Vec::new());
    let mut traced_outcomes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut sim_step_ms = 0.0;
    let t_measure = Instant::now();
    let mut pass = 0u64;
    while t_measure.elapsed().as_secs_f64() < args.seconds || pass == 0 {
        let trace_this = args.trace && pass % 2 == 1;
        crate::spans::set_enabled(trace_this);
        let t_pass = Instant::now();
        for (i, p) in points.iter().enumerate() {
            let op = pass * points.len() as u64 + i as u64 + 1;
            let seed = rng.next_u64();
            let t = Instant::now();
            let r = span("tune", "search", op, || {
                search(&p.net, &p.spec, &config(p, seed))
            });
            let ms = ms_since(t);
            attempted += 1;
            match r {
                Ok(o) => {
                    failed += u64::from(!ok(&o));
                    if pass == 0 {
                        sim_step_ms += o.tuned.step_time.as_ns() as f64 / 1e6;
                    }
                    if trace_this {
                        traced_outcomes.push((i, o));
                    }
                }
                Err(_) => failed += 1,
            }
            if trace_this {
                traced.push(ms)
            } else {
                untraced.push(ms);
            }
        }
        let pass_ms = ms_since(t_pass);
        if trace_this {
            traced_pass.push(pass_ms)
        } else {
            untraced_pass.push(pass_ms)
        }
        pass += 1;
    }
    crate::spans::set_enabled(false);
    let memo_measured = memo_since(memo1);

    let mut out = Json::default();
    out.num("setup_s", setup_s)
        .arr("op_ms", &untraced)
        .arr("pass_ms", &untraced_pass)
        .int("ops_per_pass", points.len() as u64)
        .int("attempted", attempted)
        .int("failed", failed)
        .num("sim_step_ms", sim_step_ms);
    crate::memo_fields(&mut out, memo_setup, memo_measured);
    if args.trace {
        let mut layers = Json::default();
        layers
            .num("models.build_ms", build_ms / points.len() as f64)
            .num("plan.compile_cold_ms", cold_ms / points.len() as f64);
        let outcomes: Vec<SearchOutcome> = traced_outcomes.iter().map(|(_, o)| o.clone()).collect();
        probe::tune_fields(&mut layers, &outcomes);
        let evals: u64 = outcomes.iter().map(|o| o.tuned.evals).sum();
        let infeasible = outcomes
            .iter()
            .flat_map(|o| &o.trace)
            .filter(|l| l.contains(" infeasible "))
            .count();
        crate::memo_layers(&mut layers, memo_measured);
        layers.num(
            "plan.infeasible_ratio",
            crate::common::ratio(infeasible as f64, evals as f64),
        );
        let wall: f64 = traced.iter().sum::<f64>() / 1e3;
        crate::trace_fields(&mut out, &mut layers, &untraced_pass, &traced_pass, wall);
        let first_pass = &traced_outcomes[..points.len().min(traced_outcomes.len())];
        group_rerun(&mut layers, &points, first_pass);
        out.obj("layers", &layers);
    }
    out
}

/// Re-run each tuned winner of one traced pass through
/// `GroupExecutor::run_iteration`: the warm gang iteration's host time, and
/// the all-reduce overlap of the multi-replica points.
fn group_rerun(out: &mut Json, points: &[Point], winners: &[(usize, SearchOutcome)]) {
    let mut iter_ms = Vec::new();
    let mut overlap = Vec::new();
    for (i, o) in winners {
        let p = &points[*i];
        let cfg =
            GroupConfig::new(p.replicas, p.interconnect).with_bucket_bytes(o.tuned.bucket_bytes);
        let Ok(mut gx) = GroupExecutor::new(&p.net, p.spec.clone(), o.tuned.policy, cfg) else {
            continue;
        };
        let _ = gx.run_iteration();
        let (r, ms) = timed(|| gx.run_iteration());
        iter_ms.push(ms);
        if let Ok(r) = r {
            if p.replicas > 1 {
                overlap.push(r.allreduce_overlap_fraction());
            }
        }
    }
    out.num("group.iter_ms", median(&iter_ms))
        .num("group.allreduce_overlap", median(&overlap));
}

/// Net-level layers on the first matrix point, in a fresh process.
pub fn probe(args: &Args) -> Json {
    let _ = args;
    let mut layers = Json::default();
    let p = &matrix()[0];
    let policy = Policy::superneurons();
    probe::graph_plan_mempool(&mut layers, &p.net, &p.spec, policy, true);
    probe::executor(&mut layers, &p.net, &p.spec, policy);
    probe::admission_and_cluster(&mut layers, args.seed);
    layers
}
