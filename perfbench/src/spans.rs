//! Host-time spans recorded by the benchmark around its own calls into each
//! layer's public functions. Spans stay in memory while the run measures and
//! are written out when it ends.
//!
//! Recording is off unless [`set_enabled`] turned it on, and a disabled
//! [`enter`] is one relaxed atomic load. A span's parent is the innermost
//! open span on the same thread; self time subtracts only same-thread
//! children, so spans on worker threads never hide their parent's time.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::common::Json;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

struct Span {
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
    thread: u32,
}

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

fn recorder() -> &'static Mutex<Recorder> {
    static REC: OnceLock<Mutex<Recorder>> = OnceLock::new();
    REC.get_or_init(|| {
        Mutex::new(Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
        })
    })
}

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

pub fn set_enabled(on: bool) {
    recorder();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; closes when dropped.
pub struct Guard(Option<usize>);

/// Open a span named `name` in `layer` for operation `op`.
pub fn enter(layer: &'static str, name: &'static str, op: u64) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let thread = THREAD.with(|t| *t);
    let mut rec = recorder().lock().expect("span recorder poisoned");
    let start_ns = rec.t0.elapsed().as_nanos() as u64;
    rec.spans.push(Span {
        name,
        layer,
        start_ns,
        end_ns: start_ns,
        parent,
        op,
        thread,
    });
    let id = rec.spans.len() - 1;
    drop(rec);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard(Some(id))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            STACK.with(|s| s.borrow_mut().pop());
            if let Ok(mut rec) = recorder().lock() {
                let end = rec.t0.elapsed().as_nanos() as u64;
                rec.spans[id].end_ns = end;
            }
        }
    }
}

/// Run `f` inside a span.
pub fn span<R>(layer: &'static str, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    let _g = enter(layer, name, op);
    f()
}

/// Per-layer self time (ms) and span count over every recorded span, in
/// first-seen layer order.
pub fn layer_self_times() -> Vec<(&'static str, f64, u64)> {
    let rec = recorder().lock().expect("span recorder poisoned");
    let mut child_ns = vec![0u64; rec.spans.len()];
    for s in &rec.spans {
        if let Some(p) = s.parent {
            if rec.spans[p].thread == s.thread {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
    }
    let mut out: Vec<(&'static str, f64, u64)> = Vec::new();
    for (i, s) in rec.spans.iter().enumerate() {
        let self_ms = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e6;
        match out.iter_mut().find(|(l, _, _)| *l == s.layer) {
            Some(e) => {
                e.1 += self_ms;
                e.2 += 1;
            }
            None => out.push((s.layer, self_ms, 1)),
        }
    }
    out
}

/// Write every span as one JSON object per line.
pub fn write(path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let rec = recorder().lock().expect("span recorder poisoned");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in rec.spans.iter().enumerate() {
        let mut j = Json::default();
        j.int("id", i as u64)
            .str("layer", s.layer)
            .str("name", s.name)
            .int("start_ns", s.start_ns)
            .int("end_ns", s.end_ns)
            .num("parent", s.parent.map_or(-1.0, |p| p as f64))
            .int("op", s.op)
            .int("thread", s.thread as u64);
        writeln!(w, "{}", j.render())?;
    }
    w.flush()
}
