//! `serve-steady` and `serve-backlog`: open-loop Poisson streams through
//! `ClusterSim::run_stream` on 64 K40c devices capped to 96 MiB, BestFit
//! placement, the eight-template training + inference catalog. One op is
//! one completed job. The two workloads differ only in the mean arrival gap:
//! at 190 µs of simulated time (ρ≈0.4 of the no-load critical gap) the
//! backlog stays flat; at 84 µs (ρ≈0.9) the queue builds.

use std::time::Instant;

use sn_cluster::{
    ArrivalStream, ClusterSim, Fleet, JobKind, JobSpec, PlacementPolicy, PolicyPreset,
    ServiceReport, Workload,
};
use sn_runtime::plan::plan_memo_stats;
use sn_runtime::{Interconnect, Policy};
use sn_sim::{DeviceSpec, SimTime};
use sn_telemetry::MetricsRegistry;

use crate::common::{median, memo_since, quantile, tail_quantile, Json, Rng};
use crate::spans::span;
use crate::{probe, Args};

pub const STEADY_GAP_NS: u64 = 190_000;
pub const BACKLOG_GAP_NS: u64 = 84_000;
/// Jobs per measured stream: long enough for the backlog regime to build.
const STEADY_JOBS: u64 = 20_000;
const BACKLOG_JOBS: u64 = 5_000;
/// Jobs in the set-up stream that pays each template's first admission.
const WARMUP_JOBS: u64 = 200;
/// `sim_p99_ms` is the median p99 of the first this-many measured streams.
const P99_STREAMS: u64 = 3;
/// Per-job host time is summarized per stream (median and this quantile)
/// and the summaries' medians are reported, so a run holds one stream's
/// samples at a time and the process's peak memory stays the program's.
const JOB_TAIL_Q: f64 = 0.99;

pub fn device() -> DeviceSpec {
    DeviceSpec::k40c().with_dram(96 << 20)
}

pub fn fleet() -> Fleet {
    Fleet::homogeneous(64, device(), Interconnect::pcie())
}

pub fn sim() -> ClusterSim {
    ClusterSim::new(fleet(), PlacementPolicy::BestFit)
}

/// The eight job templates: six training shapes (two of them gangs) and
/// two forward-only serving shapes.
pub fn catalog() -> Vec<JobSpec> {
    let mut out = Vec::new();
    for (width, depth, batch, replicas) in [
        (8, 2, 8, 1),
        (16, 3, 16, 1),
        (24, 4, 16, 2),
        (32, 2, 32, 1),
        (16, 5, 8, 1),
        (8, 3, 32, 4),
    ] {
        out.push(
            JobSpec::new("tmpl", Workload::Synthetic { width, depth }, batch)
                .with_replicas(replicas)
                .with_preset(PolicyPreset::Superneurons)
                .with_downgrade(true),
        );
    }
    for (width, depth, batch) in [(16, 3, 16), (32, 2, 8)] {
        out.push(
            JobSpec::new("tmpl", Workload::Synthetic { width, depth }, batch)
                .with_kind(JobKind::Inference)
                .with_iterations(24)
                .with_preset(PolicyPreset::Superneurons)
                .with_downgrade(true),
        );
    }
    out
}

/// The benchmark's arrival generator: exponential gaps around a fixed mean,
/// templates drawn uniformly, training jobs running 3–10 iterations. It
/// timestamps every pull so the host time the loop spends between arrivals
/// can be separated from the generator's own.
pub struct Stream {
    rng: Rng,
    remaining: u64,
    t_ns: u64,
    mean_gap_ns: f64,
    templates: Vec<JobSpec>,
    seq: u64,
    last_exit: Option<Instant>,
    /// Host µs between the previous pull's return and this pull's entry.
    pub between_us: Vec<f64>,
}

impl Stream {
    pub fn new(n: u64, seed: u64, mean_gap_ns: u64) -> Stream {
        Stream {
            rng: Rng::new(seed),
            remaining: n,
            t_ns: 0,
            mean_gap_ns: mean_gap_ns as f64,
            templates: catalog(),
            seq: 0,
            last_exit: None,
            between_us: Vec::with_capacity(n as usize),
        }
    }
}

impl ArrivalStream for Stream {
    fn next_job(&mut self) -> Option<(SimTime, JobSpec)> {
        let entry = Instant::now();
        if let Some(prev) = self.last_exit {
            self.between_us
                .push(entry.duration_since(prev).as_secs_f64() * 1e6);
        }
        let _g = crate::spans::enter("bench", "generator.next_job", self.seq);
        let out = if self.remaining == 0 {
            None
        } else {
            self.remaining -= 1;
            let gap = -(1.0 - self.rng.unit()).ln() * self.mean_gap_ns;
            self.t_ns += gap as u64;
            let which = self.rng.below(self.templates.len() as u64) as usize;
            let iterations = 3 + self.rng.below(8) as u32;
            let mut job = self.templates[which].clone();
            job.name = format!("pj{:07}", self.seq);
            if job.kind == JobKind::Training {
                job.iterations = iterations;
            }
            self.seq += 1;
            Some((SimTime(self.t_ns), job))
        };
        drop(_g);
        self.last_exit = Some(Instant::now());
        out
    }
}

fn stream_seed(seed: u64, r: u64) -> u64 {
    Rng::new(seed ^ r.wrapping_mul(0x2545_f491_4f6c_dd1d)).next_u64()
}

/// Run one stream; returns the report, its host wall seconds and the stream.
fn run(sim: &mut ClusterSim, n: u64, seed: u64, gap: u64, op: u64) -> (ServiceReport, f64, Stream) {
    let mut stream = Stream::new(n, seed, gap);
    let t = Instant::now();
    let rep = span("cluster", "run_stream", op, || sim.run_stream(&mut stream));
    (rep, t.elapsed().as_secs_f64(), stream)
}

/// `serve-steady`'s `sim_p99_ms` for `seed`, on a fresh simulator, and
/// whether every stream conserved its jobs.
pub fn steady_p99_ms(seed: u64) -> (f64, bool) {
    let mut sim = sim();
    let mut ok = true;
    let p99: Vec<f64> = (0..P99_STREAMS)
        .map(|r| {
            let rep = run(
                &mut sim,
                STEADY_JOBS,
                stream_seed(seed, r),
                STEADY_GAP_NS,
                0,
            )
            .0;
            ok &= failures(&rep, STEADY_JOBS) == 0;
            rep.p99_latency.as_ns() as f64 / 1e6
        })
        .collect();
    (median(&p99), ok)
}

/// Failed jobs of one stream: everything that did not complete, or the
/// whole stream when the report breaks conservation or lost arrivals.
fn failures(rep: &ServiceReport, n: u64) -> u64 {
    if !rep.conservation_holds() || rep.submitted != n {
        return n;
    }
    n - rep.completed
}

pub fn measure(args: &Args, start: Instant, backlog: bool) -> Json {
    let (gap, jobs) = if backlog {
        (BACKLOG_GAP_NS, BACKLOG_JOBS)
    } else {
        (STEADY_GAP_NS, STEADY_JOBS)
    };
    let memo0 = plan_memo_stats();
    let mut plain = sim();
    // The set-up stream is the same for every seed, so set-up does the same
    // work in every run.
    let warm_seed = stream_seed(0, u64::MAX);
    let (w, _, _) = run(&mut plain, WARMUP_JOBS, warm_seed, gap, 0);
    let mut attempted = WARMUP_JOBS;
    let mut failed = failures(&w, WARMUP_JOBS);
    // A traced run also warms a metered simulator: traced streams run with
    // the program's metrics registry on, untraced ones without.
    let registry = MetricsRegistry::new();
    let mut metered = sim();
    metered.enable_metrics(&registry);
    if args.trace {
        let (w, _, _) = run(&mut metered, WARMUP_JOBS, warm_seed, gap, 0);
        attempted += WARMUP_JOBS;
        failed += failures(&w, WARMUP_JOBS);
    }
    let setup_s = start.elapsed().as_secs_f64();
    let memo_setup = memo_since(memo0);
    if args.setup_only {
        return crate::setup_json(setup_s, failed == 0);
    }

    let memo1 = plan_memo_stats();
    let t_measure = Instant::now();
    let (mut untraced_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let (mut job_p50_ms, mut job_tail_ms) = (Vec::new(), Vec::new());
    let mut p99 = Vec::new();
    let mut first_traced = None;
    let mut r = 0u64;
    while t_measure.elapsed().as_secs_f64() < args.seconds || r < P99_STREAMS {
        let trace_this = args.trace && r % 2 == 1;
        crate::spans::set_enabled(trace_this);
        let sim = if trace_this { &mut metered } else { &mut plain };
        let (rep, secs, stream) = run(sim, jobs, stream_seed(args.seed, r), gap, r + 1);
        crate::spans::set_enabled(false);
        attempted += jobs;
        failed += failures(&rep, jobs);
        if r < P99_STREAMS {
            p99.push(rep.p99_latency.as_ns() as f64 / 1e6);
        }
        if trace_this {
            traced_wall.push(secs * 1e3);
            first_traced.get_or_insert((rep, secs, stream));
        } else {
            untraced_wall.push(secs * 1e3);
            job_p50_ms.push(quantile(&stream.between_us, 0.5) / 1e3);
            job_tail_ms.push(quantile(&stream.between_us, JOB_TAIL_Q) / 1e3);
        }
        r += 1;
    }
    let memo_measured = memo_since(memo1);

    let mut out = Json::default();
    out.num("setup_s", setup_s)
        .num("op_p50_ms", median(&job_p50_ms))
        .num("op_tail_ms", median(&job_tail_ms))
        .num("op_tail_q", JOB_TAIL_Q)
        .int("op_samples", job_p50_ms.len() as u64 * jobs)
        .arr("pass_ms", &untraced_wall)
        .int("ops_per_pass", jobs)
        .int("attempted", attempted)
        .int("failed", failed)
        .num("sim_p99_ms", median(&p99));
    crate::memo_fields(&mut out, memo_setup, memo_measured);
    if args.trace {
        let mut layers = Json::default();
        if let Some((rep, secs, stream)) = &first_traced {
            cluster_fields(&mut layers, rep, &registry, stream, *secs);
        }
        crate::memo_layers(&mut layers, memo_measured);
        layers.num("plan.infeasible_ratio", 0.0);
        let wall: f64 = traced_wall.iter().sum::<f64>();
        crate::trace_fields(
            &mut out,
            &mut layers,
            &untraced_wall,
            &traced_wall,
            wall / 1e3,
        );
        out.obj("layers", &layers);
    }
    out
}

/// `cluster.*` and the admission outcome counts of one stream.
pub fn cluster_fields(
    out: &mut Json,
    rep: &ServiceReport,
    registry: &MetricsRegistry,
    stream: &Stream,
    wall_s: f64,
) {
    let snap = registry.snapshot();
    let count = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let gaps = &stream.between_us;
    out.num("cluster.events_per_s", rep.events as f64 / wall_s)
        .num(
            "cluster.events_per_job",
            rep.events as f64 / rep.submitted.max(1) as f64,
        )
        .num("cluster.arrival_us", quantile(gaps, 0.5))
        .num(
            "cluster.arrival_tail_us",
            quantile(gaps, tail_quantile(gaps.len())),
        )
        .num("cluster.peak_live_jobs", rep.peak_live_jobs as f64)
        .num(
            "cluster.peak_concurrent_jobs",
            rep.peak_concurrent_jobs as f64,
        )
        .num("admission.admitted", count("cluster.jobs.admitted"))
        .num("admission.downgraded", count("cluster.jobs.downgraded"))
        .num("admission.rejected", count("cluster.jobs.rejected"));
}

/// Layer numbers the stream does not produce itself: the catalog's largest
/// training gang template for the net-level layers, cold `Profiler` calls.
pub fn probe(args: &Args) -> Json {
    let mut layers = Json::default();
    let net = Workload::Synthetic {
        width: 24,
        depth: 4,
    }
    .build(16);
    let spec = device();
    let policy = Policy::superneurons();
    let builds: Vec<f64> = catalog()
        .iter()
        .map(|j| crate::common::timed(|| j.workload.build(j.batch)).1)
        .collect();
    layers.num("models.build_ms", median(&builds));
    probe::graph_plan_mempool(&mut layers, &net, &spec, policy, true);
    probe::admission(&mut layers);
    probe::executor(&mut layers, &net, &spec, policy);
    probe::group_with(
        &mut layers,
        &net,
        &spec,
        policy,
        sn_runtime::GroupConfig::new(2, Interconnect::pcie()),
    );
    probe::tune(&mut layers, &net, &spec, args.seed);
    layers
}
