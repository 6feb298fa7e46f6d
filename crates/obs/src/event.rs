//! Structured bookkeeping events flowing from instrumented code into the
//! [`Observer`](crate::Observer)'s registries.

/// One observable occurrence inside the simulation stack.
///
/// Events borrow their string payloads so the emitting hot path never
/// allocates; the observer aggregates each one into its registries as it
/// arrives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event<'a> {
    /// A named phase completed, taking `ns` nanoseconds of wall time.
    PhaseEnd {
        /// Phase name (e.g. `sim.replay`).
        phase: &'a str,
        /// Elapsed nanoseconds.
        ns: u64,
    },
    /// A named counter increased (routed into the observer's registry).
    CounterAdd {
        /// Metric name.
        name: &'a str,
        /// Increment.
        delta: u64,
    },
    /// A value was observed into a named histogram.
    Observe {
        /// Metric name.
        name: &'a str,
        /// Observation.
        value: u64,
    },
    /// One sample of a named time-series (routed into the observer's
    /// series registry; e.g. per-epoch wear statistics).
    SeriesPoint {
        /// Series name.
        series: &'a str,
        /// Sample x-coordinate (iteration, epoch, request number, ...).
        index: u64,
        /// Sample value.
        value: f64,
    },
}
