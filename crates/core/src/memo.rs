//! The one cache type behind every compile-time memo.
//!
//! Graph analyses, whole-plan compiles, group plans, tuned policies and the
//! cluster's admission predictions are all deterministic functions of a key,
//! so each is cached the same way, by a [`Memo`]:
//!
//! * the value is computed **outside** the lock, so concurrent sweeps never
//!   wait on each other's compile. Two threads that miss the same key both
//!   compute; the first insert wins and both get that value back;
//! * at a constant entry cap the **whole map resets**. Every value is
//!   recomputable, so a runaway sweep costs recompiles, never memory;
//! * whatever the compute returns is memoized, `Err` outcomes included (a
//!   job that does not fit a budget still does not fit it next time);
//! * every lookup is counted, and [`Memo::get_or_insert_with`] returns a
//!   per-call `hit` flag. Callers count their own lookups from that flag,
//!   never from differences of the shared counters.

use std::hash::{BuildHasherDefault, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use fxhash::FxHashMap;
use sn_telemetry::Counter;

/// Hit, miss and entry counts of one [`Memo`]. Hits and misses are
/// cumulative since the memo was created; [`Memo::clear`] does not reset
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
}

/// A capped, counted, thread-safe memo from `K` to `V` (see the module
/// docs for its rules). `const`-constructible, so process-wide memos are
/// plain `static`s.
pub struct Memo<K, V> {
    map: Mutex<FxHashMap<K, V>>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Metrics-registry prefix: `{name}.hit` / `{name}.miss` mirror the
    /// counters in [`sn_telemetry::global`] when set.
    name: Option<&'static str>,
    registry: OnceLock<(Counter, Counter)>,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// An empty memo that resets once it holds `cap` entries.
    pub const fn new(cap: usize) -> Self {
        Memo {
            map: Mutex::new(FxHashMap::with_hasher(BuildHasherDefault::new())),
            cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            name: None,
            registry: OnceLock::new(),
        }
    }

    /// [`Memo::new`] whose hits and misses also count on the process-wide
    /// metrics registry as `{name}.hit` and `{name}.miss`.
    pub const fn named(cap: usize, name: &'static str) -> Self {
        let mut memo = Memo::new(cap);
        memo.name = Some(name);
        memo
    }

    fn lock(&self) -> MutexGuard<'_, FxHashMap<K, V>> {
        self.map
            .lock()
            .expect("memo lock poisoned: a hash or clone panicked under it")
    }

    /// The value memoized under `key`, computing and inserting it with
    /// `compute` on a miss. The flag is `true` when the value came from the
    /// memo.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> (V, bool) {
        let cached = self.lock().get(&key).cloned();
        if let Some(v) = cached {
            self.count(true);
            return (v, true);
        }
        self.count(false);
        let v = compute();
        let mut map = self.lock();
        if map.len() >= self.cap && !map.contains_key(&key) {
            map.clear();
        }
        (map.entry(key).or_insert(v).clone(), false)
    }

    /// Is `key` memoized? Not counted as a lookup.
    pub fn contains(&self, key: &K) -> bool {
        self.lock().contains_key(key)
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry; the hit and miss counters keep counting.
    pub fn clear(&self) {
        self.lock().clear();
    }

    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    fn count(&self, hit: bool) {
        let local = if hit { &self.hits } else { &self.misses };
        local.fetch_add(1, Ordering::Relaxed);
        if let Some(name) = self.name {
            let (h, m) = self.registry.get_or_init(|| {
                let reg = sn_telemetry::global();
                (
                    reg.counter(&format!("{name}.hit")),
                    reg.counter(&format!("{name}.miss")),
                )
            });
            if hit {
                h.inc()
            } else {
                m.inc()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn the_flag_reports_each_lookup() {
        let memo: Memo<u32, u64> = Memo::new(8);
        assert_eq!(memo.get_or_insert_with(1, || 10), (10, false));
        assert_eq!(memo.get_or_insert_with(1, || unreachable!()), (10, true));
        assert_eq!(memo.get_or_insert_with(2, || 20), (20, false));
        assert_eq!(
            memo.stats(),
            MemoStats {
                hits: 1,
                misses: 2,
                entries: 2
            }
        );
    }

    #[test]
    fn errors_are_memoized() {
        let memo: Memo<&str, Result<u64, String>> = Memo::new(8);
        let (r, hit) = memo.get_or_insert_with("oom", || Err("too big".into()));
        assert_eq!((r, hit), (Err("too big".to_string()), false));
        let (r, hit) = memo.get_or_insert_with("oom", || unreachable!("an Err is not recomputed"));
        assert_eq!((r, hit), (Err("too big".to_string()), true));
    }

    #[test]
    fn the_map_resets_at_the_cap() {
        let memo: Memo<u32, u32> = Memo::new(3);
        for k in 0..3 {
            memo.get_or_insert_with(k, || k);
        }
        assert_eq!(memo.len(), 3);
        // A present key at the cap is a hit and keeps the map.
        assert!(memo.get_or_insert_with(2, || unreachable!()).1);
        assert_eq!(memo.len(), 3);
        // A new key at the cap resets the map, then inserts itself.
        assert!(!memo.get_or_insert_with(3, || 3).1);
        assert_eq!(memo.len(), 1);
        assert!(!memo.contains(&0));
        assert!(!memo.get_or_insert_with(0, || 0).1);
        // Clearing drops entries but not the cumulative counts.
        memo.clear();
        assert!(memo.is_empty());
        assert_eq!((memo.stats().hits, memo.stats().misses), (1, 5));
    }

    #[test]
    fn a_duplicate_concurrent_miss_yields_one_value() {
        let memo: Memo<u32, Arc<u64>> = Memo::new(8);
        let both_computing = Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let lookup = || {
                memo.get_or_insert_with(7, || {
                    // Both threads have missed before either inserts.
                    both_computing.wait();
                    Arc::new(49)
                })
            };
            let a = s.spawn(lookup);
            let b = s.spawn(lookup);
            (
                a.join().expect("lookup thread"),
                b.join().expect("lookup thread"),
            )
        });
        assert!(!a.1 && !b.1, "both lookups missed");
        assert_eq!(a.0, b.0);
        assert!(Arc::ptr_eq(&a.0, &b.0), "the first insert wins for both");
        assert_eq!(
            memo.stats(),
            MemoStats {
                hits: 0,
                misses: 2,
                entries: 1
            }
        );
    }
}
