//! Ablation studies for the design choices DESIGN.md calls out — the knobs
//! the paper fixes (LRU, pinned staging, overlapped prefetch, a single
//! local-host tier) each get an A/B here. Data-parallel scaling is the
//! `dataparallel` experiment, on the group runtime.

use sn_models as models;
use sn_runtime::{CachePolicy, Executor, Policy, TierConfig};
use sn_sim::spec::GB;
use sn_sim::DeviceSpec;

use crate::table::{gb, TextTable};

/// Cache replacement policy ablation: LRU (the paper's choice) vs FIFO vs
/// MRU under memory pressure. Backward's tail-to-head reuse pattern should
/// favour LRU on traffic.
pub fn ablation_cache_policy() -> String {
    // AlexNet at a batch where the cache must evict on a shrunken device.
    let spec = DeviceSpec::k40c().with_dram(2 * GB);
    let batch = 448usize;
    let mut t = TextTable::new(vec![
        "policy",
        "PCIe traffic (GB/iter)",
        "img/s",
        "evictions",
    ]);
    for (name, cp) in [
        ("LRU (paper)", CachePolicy::Lru),
        ("FIFO", CachePolicy::Fifo),
        ("MRU", CachePolicy::Mru),
    ] {
        let net = models::alexnet(batch);
        let pol = Policy {
            cache_policy: cp,
            ..Policy::superneurons()
        };
        match Executor::new(&net, spec.clone(), pol) {
            Ok(mut ex) => {
                let _ = ex.run_iteration();
                match ex.run_iteration() {
                    Ok(r) => t.row(vec![
                        name.to_string(),
                        gb(r.h2d_bytes + r.d2h_bytes),
                        format!("{:.1}", r.imgs_per_sec(batch)),
                        format!("{}", r.counters.evictions),
                    ]),
                    Err(_) => t.row(vec![name.to_string(), "OOM".into(), "-".into(), "-".into()]),
                };
            }
            Err(_) => {
                t.row(vec![name.to_string(), "OOM".into(), "-".into(), "-".into()]);
            }
        }
    }
    format!(
        "Ablation — Tensor Cache replacement policy (AlexNet@448, 2GB pool)\n{}",
        t.render()
    )
}

/// Prefetch and pinned-staging ablations: the two transfer optimizations
/// the paper credits for hiding UTP traffic.
pub fn ablation_transfers() -> String {
    let spec = DeviceSpec::titan_xp();
    let mut t = TextTable::new(vec!["configuration", "img/s", "stall (ms/iter)"]);
    for (name, prefetch, pinned) in [
        ("prefetch + pinned (paper)", true, true),
        ("no prefetch", false, true),
        ("pageable staging", true, false),
        ("neither", false, false),
    ] {
        let net = models::resnet50(32);
        let pol = Policy {
            prefetch,
            pinned_host: pinned,
            ..Policy::superneurons_no_cache()
        };
        let mut ex = Executor::new(&net, spec.clone(), pol).unwrap();
        let _ = ex.run_iteration();
        let r = ex.run_iteration().unwrap();
        t.row(vec![
            name.to_string(),
            format!("{:.1}", r.imgs_per_sec(32)),
            format!("{:.1}", r.stall.as_ms_f64()),
        ]);
    }
    format!(
        "Ablation — transfer optimizations (ResNet50@32, eager offload active)\n{}",
        t.render()
    )
}

/// UTP tier ablation (Fig. 7): constrain the local host pool so offloads
/// spill to the peer-GPU and remote tiers.
pub fn ablation_tiers() -> String {
    let spec = DeviceSpec::k40c().with_dram(4 * GB);
    let mut t = TextTable::new(vec![
        "external pools",
        "img/s",
        "peer used (GB)",
        "local used (GB)",
        "remote used (GB)",
    ]);
    let configs: Vec<(&str, TierConfig)> = vec![
        ("local host only (paper)", TierConfig::local_only(256 << 30)),
        (
            "1GB local + peer GPU",
            TierConfig::full(8 << 30, 1 << 30, 0),
        ),
        (
            "1GB local + remote RDMA",
            TierConfig::full(0, 1 << 30, 64 << 30),
        ),
        (
            "all three tiers",
            TierConfig::full(2 << 30, 1 << 30, 64 << 30),
        ),
    ];
    for (name, tiers) in configs {
        let net = models::vgg16(48);
        // Eager offload so the UTP actually streams every conv output to
        // the external pools (the Fig. 10b protocol).
        let pol = Policy {
            tiers,
            ..Policy::superneurons_no_cache()
        };
        match Executor::new(&net, spec.clone(), pol) {
            Ok(mut ex) => {
                let _ = ex.run_iteration();
                match ex.run_iteration() {
                    Ok(r) => {
                        let (p, l, rm) = ex.dev.host.high_water();
                        t.row(vec![
                            name.to_string(),
                            format!("{:.1}", r.imgs_per_sec(48)),
                            gb(p),
                            gb(l),
                            gb(rm),
                        ]);
                    }
                    Err(e) => {
                        t.row(vec![
                            name.to_string(),
                            format!("fail: {e}"),
                            "-".into(),
                            "-".into(),
                            "-".into(),
                        ]);
                    }
                }
            }
            Err(e) => {
                t.row(vec![
                    name.to_string(),
                    format!("fail: {e}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    format!(
        "Ablation — Unified Tensor Pool tiers (VGG16@48, 4GB device pool)\n{}",
        t.render()
    )
}

/// All ablations.
pub fn run_ablations() -> String {
    format!(
        "{}\n{}\n{}",
        ablation_cache_policy(),
        ablation_transfers(),
        ablation_tiers()
    )
}
