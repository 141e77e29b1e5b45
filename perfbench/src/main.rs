//! One benchmark process. `run.py` starts several of these per run, each
//! with cold process-global caches, and combines their JSON lines into the
//! run's result. Roles:
//!
//! * `setup`   — the workload's set-up only; reports `setup_s`.
//! * `measure` — set-up, then ops for `--seconds`; with `--trace 1` every
//!   other op (or pass) is traced and the layer numbers are reported.
//! * `op`      — one `depth` answer for `--framework`.
//! * `pass`    — one `depth` pass over the frameworks in `--order`, in one
//!   process; traced with `--trace 1`.
//! * `probe`   — the layer probes of a workload, in a fresh process.
//! * `paper`   — the simulated paper numbers named by `--need`.
//!
//! The last line of standard output is one JSON object.

mod common;
mod depth;
mod paper;
mod probe;
mod serve;
mod spans;
mod train;
mod tune;

use std::time::Instant;

use common::{median, ratio, Json, MemoDelta};

pub struct Args {
    pub role: String,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_only: bool,
    pub framework: usize,
    pub order: Vec<usize>,
    pub sn_depth: usize,
    pub caffe_depth: usize,
    pub spans_out: Option<std::path::PathBuf>,
    pub need: Vec<String>,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        role: "measure".into(),
        workload: String::new(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        setup_only: false,
        framework: 0,
        order: (0..5).collect(),
        sn_depth: 0,
        caffe_depth: 0,
        spans_out: None,
        need: Vec::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--role" => a.role = v.clone(),
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = num(v)?,
            "--seconds" => a.seconds = v.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--trace" => a.trace = num(v)? != 0,
            "--framework" => a.framework = num(v)? as usize,
            "--order" => {
                a.order = v
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("{flag}: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--sn-depth" => a.sn_depth = num(v)? as usize,
            "--caffe-depth" => a.caffe_depth = num(v)? as usize,
            "--spans-out" => a.spans_out = Some(v.into()),
            "--need" => a.need = v.split(',').map(String::from).collect(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    a.setup_only = a.role == "setup";
    Ok(a)
}

fn main() {
    let start = Instant::now();
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match (args.role.as_str(), args.workload.as_str()) {
        ("setup" | "measure", "train") => train::measure(&args, start),
        ("setup" | "measure", "serve-steady") => serve::measure(&args, start, false),
        ("setup" | "measure", "serve-backlog") => serve::measure(&args, start, true),
        ("setup" | "measure", "tune") => tune::measure(&args, start),
        ("op", "depth") => depth::op(&args, start),
        ("pass", "depth") => depth::pass(&args),
        ("probe", "train") => train::probe(&args),
        ("probe", "serve-steady" | "serve-backlog") => serve::probe(&args),
        ("probe", "tune") => tune::probe(&args),
        ("probe", "depth") => depth::probe(&args),
        ("paper", _) => paper::run(&args),
        (role, w) => {
            eprintln!("perfbench: no role {role:?} for workload {w:?}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.spans_out {
        if let Err(e) = spans::write(path) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    out.num("rss_mb", common::peak_rss_mb());
    println!("{}", out.render());
}

/// The result of a set-up-only process.
pub fn setup_json(setup_s: f64, ok: bool) -> Json {
    let mut out = Json::default();
    out.num("setup_s", setup_s).bool("ok", ok);
    out
}

/// Plan-memo hits and misses in set-up and in the measured phase.
pub fn memo_fields(out: &mut Json, setup: MemoDelta, measured: MemoDelta) {
    let mut m = Json::default();
    m.int("setup_hits", setup.hits)
        .int("setup_misses", setup.misses)
        .int("hits", measured.hits)
        .int("misses", measured.misses);
    out.obj("memo", &m);
}

/// Tracing overhead from the traced and untraced samples of one process,
/// then the span table.
pub fn trace_fields(
    out: &mut Json,
    layers: &mut Json,
    untraced: &[f64],
    traced: &[f64],
    traced_wall_s: f64,
) {
    let base = median(untraced);
    layers
        .num("telemetry.overhead", ratio(median(traced), base))
        .num("telemetry.overhead_base_ms", base);
    span_fields(out, layers, traced_wall_s * 1e3);
}

/// Per-layer self time and span count over the traced ops, and the share
/// of their wall time the program's layers explain (the benchmark's own
/// generator spans are listed but not counted as explained).
pub fn span_fields(out: &mut Json, layers: &mut Json, traced_wall_ms: f64) {
    let mut table = Json::default();
    let mut explained = 0.0;
    for (layer, self_ms, count) in spans::layer_self_times() {
        table.num(&format!("{layer}.self_ms"), self_ms);
        table.int(&format!("{layer}.count"), count);
        if layer != "bench" {
            explained += self_ms;
        }
    }
    table.num("wall_ms", traced_wall_ms);
    out.obj("spans", &table);
    layers.num(
        "telemetry.attributed_share",
        ratio(explained, traced_wall_ms),
    );
}

/// `plan.*` memo counts of the measured phase, with their base.
pub fn memo_layers(layers: &mut Json, measured: MemoDelta) {
    let lookups = (measured.hits + measured.misses) as f64;
    layers
        .num("plan.memo_hits", measured.hits as f64)
        .num("plan.memo_misses", measured.misses as f64)
        .num("plan.memo_hit_ratio", ratio(measured.hits as f64, lookups))
        .num("plan.probes", lookups);
}
