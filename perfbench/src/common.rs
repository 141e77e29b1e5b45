//! Shared pieces: the seeded generator, sample statistics, the process
//! memory high-water, plan-memo snapshots and the JSON line every child
//! process prints.

use std::time::Instant;

use sn_runtime::plan::{plan_memo_stats, MemoStats};

/// SplitMix64: the benchmark's own seeded generator. Inputs are a pure
/// function of the seed, independent of any generator inside the program.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5bd1_e995_9e37_79b9)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Time `f`, returning its result and the elapsed milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, ms_since(t))
}

/// Linear-interpolated quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest percentile with at least ten samples beyond it, as a
/// quantile in `[0.5, 0.999]` (the median when there are fewer than
/// twenty samples).
pub fn tail_quantile(n: usize) -> f64 {
    if n < 20 {
        return 0.5;
    }
    let q = 1.0 - 10.0 / n as f64;
    // Whole percentiles up to p99, then p99.9.
    if q >= 0.999 {
        0.999
    } else if q >= 0.99 {
        0.99
    } else {
        (q * 100.0).floor() / 100.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Plan-memo hit/miss counts accumulated between two snapshots.
#[derive(Clone, Copy, Default)]
pub struct MemoDelta {
    pub hits: u64,
    pub misses: u64,
}

pub fn memo_since(before: MemoStats) -> MemoDelta {
    let now = plan_memo_stats();
    MemoDelta {
        hits: now.hits - before.hits,
        misses: now.misses - before.misses,
    }
}

/// Ratio with a zero-safe base.
pub fn ratio(num: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        num / base
    }
}

/// A flat JSON object, rendered in insertion order.
#[derive(Default)]
pub struct Json(Vec<(String, String)>);

impl Json {
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() { v } else { 0.0 };
        self.0.push((k.into(), format!("{v:?}")));
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.0.push((k.into(), v.to_string()));
        self
    }

    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.0.push((k.into(), v.to_string()));
        self
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        let esc = v.replace('\\', "\\\\").replace('"', "\\\"");
        self.0.push((k.into(), format!("\"{esc}\"")));
        self
    }

    pub fn arr(&mut self, k: &str, v: &[f64]) -> &mut Self {
        let items: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
        self.0.push((k.into(), format!("[{}]", items.join(","))));
        self
    }

    pub fn obj(&mut self, k: &str, v: &Json) -> &mut Self {
        self.0.push((k.into(), v.render()));
        self
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }
}
