//! The [`Observer`]: an [`EventSink`] that aggregates bookkeeping events
//! into a [`MetricsRegistry`], a [`SpanCollector`] and a [`SeriesRegistry`].
//!
//! A process-wide observer can be installed once via [`install`]; code deep
//! in the stack picks it up with [`current`] without any plumbing through
//! intermediate layers.

use std::sync::{Arc, OnceLock};

use crate::event::Event;
use crate::metrics::{MetricValue, MetricsRegistry, MetricsSnapshot};
use crate::series::SeriesRegistry;
use crate::sink::EventSink;
use crate::span::SpanCollector;
use crate::trace::TraceRecorder;

/// Aggregating sink: counters and histograms land in a registry, phase
/// timings in a span collector, and time-series samples in a series
/// registry. An optional [`TraceRecorder`] rides along so instrumentation
/// sites can open hierarchical spans when tracing is on without any extra
/// plumbing.
#[derive(Debug, Default)]
pub struct Observer {
    metrics: MetricsRegistry,
    spans: SpanCollector,
    series: SeriesRegistry,
    tracer: Option<Arc<TraceRecorder>>,
}

impl Observer {
    /// An empty aggregating observer.
    #[must_use]
    pub fn collecting() -> Self {
        Observer::default()
    }

    /// Attaches a trace recorder: instrumentation that checks
    /// [`Observer::tracer`] starts recording hierarchical spans.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<TraceRecorder>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The attached trace recorder, if tracing is enabled.
    #[must_use]
    pub fn tracer(&self) -> Option<&Arc<TraceRecorder>> {
        self.tracer.as_ref()
    }

    /// The metrics registry fed by [`Event::CounterAdd`] and
    /// [`Event::Observe`] (and usable directly).
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The span collector fed by [`Event::PhaseEnd`] (and usable directly).
    #[must_use]
    pub fn spans(&self) -> &SpanCollector {
        &self.spans
    }

    /// The series registry fed by [`Event::SeriesPoint`] (and usable
    /// directly).
    #[must_use]
    pub fn series(&self) -> &SeriesRegistry {
        &self.series
    }

    /// Point-in-time snapshot of all aggregated metrics.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Merges another observer's aggregated state into this one.
    ///
    /// Parallel simulation workers each record into a private
    /// [`Observer::collecting`] observer; on join, the driver absorbs each
    /// worker in deterministic submission order. Counters (zero-valued ones
    /// included), histogram tallies, per-phase span timings and series
    /// merge **exactly**, so the totals and the set of registered names
    /// equal what a serial run would have booked.
    pub fn absorb(&self, other: &Observer) {
        for (name, value) in &other.metrics.snapshot().metrics {
            match value {
                MetricValue::Counter(total) => self.metrics.counter(name).add(*total),
                MetricValue::Gauge(level) => self.metrics.gauge(name).set(*level),
                MetricValue::Histogram(hist) => self.metrics.histogram(name).merge_snapshot(hist),
            }
        }
        for (phase, stat) in other.spans.report() {
            self.spans.merge_stat(&phase, stat);
        }
        self.series.merge(&other.series.snapshot());
    }
}

impl EventSink for Observer {
    fn record(&self, event: &Event<'_>) {
        match *event {
            Event::CounterAdd { name, delta } => self.metrics.counter(name).add(delta),
            Event::Observe { name, value } => self.metrics.histogram(name).record(value),
            Event::SeriesPoint { series, index, value } => self.series.push(series, index, value),
            Event::PhaseEnd { phase, ns } => self.spans.add(phase, ns),
        }
    }
}

static GLOBAL: OnceLock<Arc<Observer>> = OnceLock::new();

/// Installs the process-wide observer. Returns `Err` (handing the observer
/// back) if one is already installed — installation is once per process.
pub fn install(observer: Observer) -> Result<Arc<Observer>, Observer> {
    let arc = Arc::new(observer);
    if GLOBAL.set(Arc::clone(&arc)).is_ok() {
        Ok(arc)
    } else {
        // `set` consumed (and dropped) the rejected clone, so `arc` is the
        // only reference left and unwrapping it cannot fail.
        Err(Arc::into_inner(arc).expect("unshared observer"))
    }
}

/// The installed process-wide observer, if any. Instrumented code treats
/// `None` as "observability off" and runs against [`NullSink`].
#[must_use]
pub fn current() -> Option<Arc<Observer>> {
    GLOBAL.get().cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observer_routes_events_into_registries() {
        let obs = Observer::collecting();
        obs.record(&Event::CounterAdd { name: "c", delta: 2 });
        obs.record(&Event::CounterAdd { name: "c", delta: 3 });
        obs.record(&Event::Observe { name: "h", value: 7 });
        obs.record(&Event::PhaseEnd { phase: "p", ns: 10 });
        assert_eq!(obs.metrics().counter("c").get(), 5);
        assert_eq!(obs.metrics().histogram("h").snapshot().count, 1);
        assert_eq!(obs.spans().phase("p").unwrap().count, 1);
        assert_eq!(obs.snapshot().counter("c"), Some(5));
        // The observer is always enabled, so emission sites guarded on
        // `enabled()` keep sending it bookkeeping events.
        assert!(obs.enabled());
    }

    #[test]
    fn absorb_merges_workers_exactly() {
        let global = Observer::collecting();
        global.record(&Event::CounterAdd { name: "sim.iterations", delta: 10 });
        global.record(&Event::PhaseEnd { phase: "sim.replay", ns: 5 });

        let worker_a = Observer::collecting();
        worker_a.record(&Event::CounterAdd { name: "sim.iterations", delta: 7 });
        worker_a.record(&Event::Observe { name: "sim.epoch_span_iters", value: 100 });
        worker_a.record(&Event::PhaseEnd { phase: "sim.replay", ns: 20 });
        worker_a.record(&Event::PhaseEnd { phase: "sim.replay", ns: 3 });

        let worker_b = Observer::collecting();
        worker_b.record(&Event::CounterAdd { name: "sim.iterations", delta: 5 });
        worker_b.record(&Event::Observe { name: "sim.epoch_span_iters", value: 50 });
        worker_b.metrics().gauge("sim.load").set(0.5);

        global.absorb(&worker_a);
        global.absorb(&worker_b);

        assert_eq!(global.snapshot().counter("sim.iterations"), Some(22));
        assert_eq!(global.metrics().gauge("sim.load").get(), 0.5);
        let hist = global.metrics().histogram("sim.epoch_span_iters").snapshot();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 150);
        assert_eq!(hist.min, 50);
        assert_eq!(hist.max, 100);
        let replay = global.spans().phase("sim.replay").unwrap();
        assert_eq!(replay.count, 3);
        assert_eq!(replay.total_ns, 28);
        assert_eq!(replay.max_ns, 20);
    }

    #[test]
    fn absorb_registers_zero_counters() {
        // A worker that booked a counter at zero must leave the name
        // registered, exactly as recording into the global observer would.
        let worker = Observer::collecting();
        worker.record(&Event::CounterAdd { name: "array.cell_reads", delta: 0 });
        let global = Observer::collecting();
        global.absorb(&worker);
        assert_eq!(global.snapshot().counter("array.cell_reads"), Some(0));
    }

    #[test]
    fn series_points_route_and_absorb() {
        let global = Observer::collecting();
        global.record(&Event::SeriesPoint { series: "wear.max", index: 0, value: 1.0 });

        let worker = Observer::collecting();
        worker.record(&Event::SeriesPoint { series: "wear.max", index: 100, value: 3.0 });
        worker.record(&Event::SeriesPoint { series: "wear.gini", index: 100, value: 0.5 });

        global.absorb(&worker);
        let snap = global.series().snapshot();
        assert_eq!(snap.series["wear.max"].points.len(), 2);
        assert_eq!(snap.series["wear.gini"].points[0].value, 0.5);
    }

    #[test]
    fn tracer_attaches_via_builder() {
        let obs = Observer::collecting();
        assert!(obs.tracer().is_none());
        let rec = Arc::new(crate::trace::TraceRecorder::new());
        let obs = obs.with_tracer(Arc::clone(&rec));
        drop(obs.tracer().expect("tracer attached").begin_trace("t"));
        assert_eq!(rec.spans().len(), 1);
    }

    #[test]
    fn absorb_of_empty_worker_is_a_noop() {
        let global = Observer::collecting();
        global.record(&Event::CounterAdd { name: "c", delta: 1 });
        global.absorb(&Observer::collecting());
        assert_eq!(global.snapshot().counter("c"), Some(1));
        assert!(global.spans().report().is_empty());
    }

    #[test]
    fn second_install_is_rejected() {
        // GLOBAL is process-wide, so this test exercises whichever install
        // happens second; both orders must behave.
        let first = install(Observer::collecting());
        let second = install(Observer::collecting());
        assert!(second.is_err(), "second install must hand the observer back");
        if let Ok(arc) = first {
            arc.record(&Event::CounterAdd { name: "installed", delta: 1 });
            assert_eq!(current().unwrap().metrics().counter("installed").get(), 1);
        } else {
            assert!(current().is_some());
        }
    }
}
