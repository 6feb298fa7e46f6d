//! The event sink interface instrumented code is generic over.
//!
//! Instrumented code is generic over [`EventSink`] so the disabled path
//! monomorphizes away: [`NullSink::enabled`] is a constant `false`, which
//! turns `if sink.enabled() { ... }` guards around high-frequency emissions
//! into dead code the optimizer removes entirely. The one enabled sink is
//! the aggregating [`Observer`](crate::Observer).

use crate::event::Event;

/// Destination for [`Event`]s emitted by instrumented code.
pub trait EventSink {
    /// Whether this sink wants events at all. High-frequency emission sites
    /// guard on this so a disabled sink costs nothing. Defaults to `true`.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Delivers one event.
    fn record(&self, event: &Event<'_>);
}

/// Sink that discards everything. `enabled()` is a constant `false`, so
/// instrumentation guarded on it compiles to nothing when monomorphized
/// against this type.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    #[inline(always)]
    fn record(&self, _event: &Event<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_reports_disabled() {
        assert!(!NullSink.enabled());
        NullSink.record(&Event::CounterAdd { name: "dropped", delta: 1 });
    }
}
