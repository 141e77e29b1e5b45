//! The paper's simulated numbers, for the workloads that do not produce them
//! in their own ops. Each is deterministic for a given seed and is computed
//! in a separate, untimed process, so every run reports every number.

use sn_frameworks::{max_resnet_depth, Framework};
use sn_runtime::tune::search;
use sn_runtime::{plan, Executor, Policy};
use sn_sim::DeviceSpec;

use crate::common::{Json, Rng};
use crate::{depth, serve, train, tune, Args};

pub fn run(args: &Args) -> Json {
    let mut out = Json::default();
    let mut ok = true;
    for need in &args.need {
        match need.as_str() {
            "train" => {
                let net = train::net();
                let spec = DeviceSpec::k40c();
                let policy = Policy::superneurons();
                let peak = plan::compile_memo(&net, &spec, policy)
                    .map(|c| c.plan.peak_bytes)
                    .unwrap_or(0);
                let mut ex = Executor::new(&net, spec, policy).expect("ResNet-1034 fits a K40c");
                let cold = ex.run_iteration();
                let warm = ex.run_iteration();
                match (cold, warm) {
                    (Ok(c), Ok(w)) if c.peak_bytes == peak && w.peak_bytes == peak => {
                        out.num("sim_peak_bytes", peak as f64)
                            .num("sim_iter_ms", w.iter_time.as_ns() as f64 / 1e6);
                    }
                    _ => ok = false,
                }
            }
            "depth" => {
                let d = max_resnet_depth(
                    Framework::SuperNeurons,
                    depth::BATCH,
                    &DeviceSpec::k40c(),
                    depth::SEARCH_CAP,
                );
                out.num("max_depth", d as f64);
            }
            "serve" => {
                let (p99, conserved) = serve::steady_p99_ms(args.seed);
                ok &= conserved;
                out.num("sim_p99_ms", p99);
            }
            "tune" => {
                let mut rng = Rng::new(args.seed);
                let mut step_ms = 0.0;
                for p in tune::matrix() {
                    let cfg = tune::config(&p, rng.next_u64());
                    match search(&p.net, &p.spec, &cfg) {
                        Ok(o) => step_ms += o.tuned.step_time.as_ns() as f64 / 1e6,
                        Err(_) => ok = false,
                    }
                }
                out.num("sim_step_ms", step_ms);
            }
            other => {
                eprintln!("perfbench: unknown paper number {other:?}");
                ok = false;
            }
        }
    }
    out.bool("ok", ok);
    out
}
