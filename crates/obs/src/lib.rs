//! Structured observability for the phase-marker pipeline: hierarchical
//! timed spans, counters, gauges, histograms, and structured warnings,
//! emitted to a process-global [`Recorder`] with a versioned JSONL
//! encoding.
//!
//! # Design
//!
//! * **Zero cost when disabled.** Every entry point checks one relaxed
//!   atomic flag first; with no recorder installed, a span neither reads
//!   the clock nor allocates, and counters/gauges return immediately.
//! * **One channel.** Stage timings, algorithm statistics, *and*
//!   degradation warnings all flow through the same [`Event`] stream, so
//!   a machine consumer tails a single JSONL file (DESIGN.md §9
//!   documents the schema; [`jsonl::validate_line`] enforces it).
//! * **No dependencies.** Only `std` and `spm-stats` (whose
//!   [`spm_stats::LogHistogram`] is the histogram payload).
//!
//! # Examples
//!
//! ```
//! use spm_obs::{install, uninstall, MemorySink};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! install(sink.clone());
//! {
//!     let mut span = spm_obs::span("demo/stage");
//!     spm_obs::counter("demo/widgets", 3);
//!     span.field("outcome", "ok");
//! }
//! uninstall();
//! let events = sink.events();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[1].name, "demo/stage");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod event;
pub mod jsonl;
pub mod prof;
mod recorder;
mod span;
pub mod summary;

pub use event::{histogram_kind, Event, EventKind, Value, MIN_SCHEMA_VERSION, SCHEMA_VERSION};
pub use jsonl::JsonlSink;
pub use recorder::{
    enabled, flush, install, record, uninstall, warning_event, Fanout, MemorySink, Recorder,
};
pub use span::{clear_thread_label, set_thread_label, span, thread_label, Span};

use spm_stats::LogHistogram;

/// Records a counter event; a no-op when disabled.
pub fn counter(name: &str, value: u64) {
    if enabled() {
        record(&Event::new(name, EventKind::Counter { value }));
    }
}

/// Records a counter event with extra fields; a no-op when disabled.
pub fn counter_with(name: &str, value: u64, fields: &[(&str, Value)]) {
    if enabled() {
        record(&with_fields(
            Event::new(name, EventKind::Counter { value }),
            fields,
        ));
    }
}

/// Records a gauge event; a no-op when disabled.
pub fn gauge(name: &str, value: f64) {
    if enabled() {
        record(&Event::new(name, EventKind::Gauge { value }));
    }
}

/// Records a gauge event with extra fields; a no-op when disabled.
pub fn gauge_with(name: &str, value: f64, fields: &[(&str, Value)]) {
    if enabled() {
        record(&with_fields(
            Event::new(name, EventKind::Gauge { value }),
            fields,
        ));
    }
}

/// Records a histogram snapshot; a no-op when disabled.
pub fn histogram(name: &str, hist: &LogHistogram) {
    if enabled() {
        record(&Event::new(name, histogram_kind(hist)));
    }
}

/// Records a structured warning, deduplicated by `(name, fields)`
/// within the process. Returns `true` on first occurrence — callers
/// that also print a human-readable line can gate it on this, keeping
/// stderr and the event stream consistent. Dedupe state resets on
/// [`install`]. Unlike the other entry points this works (dedupe only)
/// even with no recorder installed.
pub fn warning(name: &str, fields: &[(&str, Value)]) -> bool {
    warning_event(&with_fields(Event::new(name, EventKind::Warning), fields))
}

fn with_fields(mut event: Event, fields: &[(&str, Value)]) -> Event {
    event
        .fields
        .extend(fields.iter().map(|(k, v)| (k.to_string(), v.clone())));
    event
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn convenience_helpers_emit_typed_events() {
        let _guard = recorder::tests::GLOBAL_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        counter("c", 1);
        counter_with("cw", 2, &[("k", Value::U64(3))]);
        gauge("g", 0.5);
        gauge_with("gw", 1.5, &[("why", Value::Str("test".into()))]);
        let mut h = LogHistogram::new();
        h.record(42);
        histogram("h", &h);
        assert!(warning("w", &[("reason", Value::Str("x".into()))]));
        assert!(!warning("w", &[("reason", Value::Str("x".into()))]));
        uninstall();
        let events = sink.events();
        assert_eq!(events.len(), 6);
        assert_eq!(events[1].field("k"), Some(&Value::U64(3)));
        assert!(matches!(
            events[4].kind,
            EventKind::Histogram { count: 1, .. }
        ));
        assert!(matches!(events[5].kind, EventKind::Warning));
    }

    #[test]
    fn disabled_helpers_do_nothing() {
        let _guard = recorder::tests::GLOBAL_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        uninstall();
        counter("c", 1);
        gauge("g", 2.0);
        histogram("h", &LogHistogram::new());
        // Warnings still dedupe without a recorder (stderr gating).
        let key = format!("unique-{}", std::process::id());
        assert!(warning(&key, &[]));
        assert!(!warning(&key, &[]));
    }
}
