//! # nvpim-obs — zero-dependency observability for the nvpim stack
//!
//! This crate provides the tracing, metrics, and run-artifact layer used by
//! the endurance simulation workspace. It depends on nothing but `std`.
//!
//! Four pieces compose:
//!
//! - **Metrics** ([`MetricsRegistry`], [`Counter`], [`Gauge`], [`Histogram`]):
//!   named handles backed by relaxed atomics. Registration takes a mutex
//!   once; updates are lock-free. Histograms are log2-bucketed.
//! - **Spans** ([`SpanCollector`], [`Span`]): RAII wall-time guards feeding a
//!   per-phase `count / total / max` breakdown.
//! - **Sinks** ([`EventSink`], [`NullSink`]): instrumented code emits
//!   bookkeeping [`Event`]s into a sink it is *generic* over, so the
//!   disabled path monomorphizes against [`NullSink`] — whose `enabled()`
//!   is a constant `false` — and compiles to nothing. The enabled sink is
//!   the aggregating [`Observer`].
//! - **Manifests** ([`RunManifest`]): a diffable JSON artifact per run,
//!   capturing config, environment, phase timings, metric snapshots, and
//!   lifetime results. [`RunManifest::render_stable`] zeroes wall-time
//!   fields so equal-config, equal-seed runs are byte-identical.
//!
//! A process-wide [`Observer`] (installed via [`observer::install`], found
//! via [`observer::current`]) aggregates bookkeeping events into a metrics
//! registry, a span collector and a series registry; a run's manifest and
//! trace are rendered from those aggregates.
//!
//! ## Example
//!
//! ```
//! use nvpim_obs::{Event, EventSink, Observer, RunManifest};
//!
//! let observer = Observer::collecting();
//! observer.record(&Event::CounterAdd { name: "sim.iterations", delta: 100 });
//! {
//!     let _phase = observer.spans().enter("sim.replay");
//!     // ... work ...
//! }
//! let manifest = RunManifest::new("mul32x1024").with_observer(&observer);
//! assert!(manifest.render().contains("sim.iterations"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod observer;
pub mod prom;
pub mod series;
pub mod sink;
pub mod span;
pub mod trace;
pub mod validate;

pub use event::Event;
pub use json::Json;
pub use manifest::RunManifest;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use observer::Observer;
pub use series::{Series, SeriesPoint, SeriesRegistry, SeriesSnapshot};
pub use sink::{EventSink, NullSink};
pub use span::{PhaseStat, Span, SpanCollector};
pub use trace::{FlameRow, SpanGuard, SpanRecord, TraceContext, TraceId, TraceRecorder};
