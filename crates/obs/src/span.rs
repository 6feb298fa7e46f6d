//! Scoped span timers with a thread-safe collector.
//!
//! A [`Span`] is an RAII guard: `collector.enter("sim.iteration")` starts the
//! clock and dropping the guard books the elapsed wall time under that name.
//! The collector aggregates `count / total / max` per phase, producing the
//! per-phase breakdown embedded in run manifests.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;

/// Aggregated timing of one named phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Completed spans.
    pub count: u64,
    /// Total wall time in nanoseconds.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
}

/// Thread-safe aggregation of span timings by phase name.
#[derive(Debug, Clone, Default)]
pub struct SpanCollector {
    inner: Arc<Mutex<BTreeMap<String, PhaseStat>>>,
}

impl SpanCollector {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        SpanCollector::default()
    }

    /// Starts a span; the elapsed time books when the guard drops.
    #[must_use = "dropping the span immediately records a ~zero-length phase"]
    pub fn enter(&self, name: &'static str) -> Span<'_> {
        Span { collector: self, name, start: Instant::now() }
    }

    /// Books `ns` nanoseconds under `name` directly (for externally-measured
    /// durations, e.g. phase timings booked as `PhaseEnd` events).
    pub fn add(&self, name: &str, ns: u64) {
        let mut inner = self.inner.lock().expect("span collector poisoned");
        let stat = inner.entry(name.to_owned()).or_default();
        stat.count += 1;
        stat.total_ns += ns;
        stat.max_ns = stat.max_ns.max(ns);
    }

    /// Folds an already-aggregated stat into `name`: counts and totals add,
    /// maxima take the max. Used to drain per-worker span collectors into
    /// the global one after a parallel run — unlike [`SpanCollector::add`],
    /// which books a single span, this preserves the span *count* exactly.
    pub fn merge_stat(&self, name: &str, stat: PhaseStat) {
        if stat.count == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("span collector poisoned");
        let entry = inner.entry(name.to_owned()).or_default();
        entry.count += stat.count;
        entry.total_ns += stat.total_ns;
        entry.max_ns = entry.max_ns.max(stat.max_ns);
    }

    /// All phases and their aggregated stats, ordered by name.
    #[must_use]
    pub fn report(&self) -> Vec<(String, PhaseStat)> {
        let inner = self.inner.lock().expect("span collector poisoned");
        inner.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// One phase's stats, if any spans completed under it.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<PhaseStat> {
        let inner = self.inner.lock().expect("span collector poisoned");
        inner.get(name).copied()
    }

    /// Serializes the report as a JSON object. With `stable`, the timing
    /// numbers are zeroed so two equivalent runs render identical bytes
    /// (phase *names and counts* still compare).
    #[must_use]
    pub fn to_json(&self, stable: bool) -> Json {
        let mut obj = Json::object();
        for (name, stat) in self.report() {
            let (total, max) = if stable { (0, 0) } else { (stat.total_ns, stat.max_ns) };
            obj = obj.with(
                &name,
                Json::object()
                    .with("count", stat.count)
                    .with("total_ns", total)
                    .with("max_ns", max),
            );
        }
        obj
    }
}

/// RAII guard created by [`SpanCollector::enter`].
#[derive(Debug)]
#[must_use = "a span books its time when dropped; binding it to `_` drops immediately"]
pub struct Span<'a> {
    collector: &'a SpanCollector,
    name: &'static str,
    start: Instant,
}

impl Span<'_> {
    /// Wall time elapsed so far.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.collector.add(self.name, self.elapsed_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_book_on_drop() {
        let collector = SpanCollector::new();
        {
            let _span = collector.enter("phase.a");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let stat = collector.phase("phase.a").expect("phase recorded");
        assert_eq!(stat.count, 1);
        assert!(stat.total_ns >= 1_000_000, "slept 2ms, booked {}ns", stat.total_ns);
        assert_eq!(stat.max_ns, stat.total_ns);
    }

    #[test]
    fn repeated_spans_aggregate() {
        let collector = SpanCollector::new();
        for _ in 0..5 {
            drop(collector.enter("phase.loop"));
        }
        let stat = collector.phase("phase.loop").unwrap();
        assert_eq!(stat.count, 5);
        assert!(stat.max_ns <= stat.total_ns);
    }

    #[test]
    fn collector_is_shareable_across_threads() {
        let collector = SpanCollector::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = collector.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        drop(c.enter("threaded"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(collector.phase("threaded").unwrap().count, 200);
    }

    #[test]
    fn stable_json_is_run_independent() {
        let a = SpanCollector::new();
        let b = SpanCollector::new();
        drop(a.enter("p"));
        std::thread::sleep(std::time::Duration::from_millis(1));
        drop(b.enter("p"));
        assert_eq!(a.to_json(true).render(), b.to_json(true).render());
        crate::json::parse(&a.to_json(false).render()).expect("valid JSON");
    }

    #[test]
    fn report_is_sorted_by_name() {
        let collector = SpanCollector::new();
        collector.add("z", 1);
        collector.add("a", 1);
        collector.add("m", 1);
        let names: Vec<String> = collector.report().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "m", "z"]);
    }
}
