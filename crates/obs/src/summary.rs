//! Human-readable stage summary (the CLI's `-v` output): renders a
//! buffered event stream as an indented span tree followed by the
//! counters, gauges, histograms, samples, and warnings observed.
//!
//! Spans render in recorded order (that *is* the tree structure); all
//! other events are stably sorted by name so the metric block is
//! deterministic regardless of emission order — concurrent stages may
//! interleave counters differently run to run, but the summary must
//! diff clean.

use crate::event::{Event, EventKind};
use std::fmt::Write as _;

/// Renders `events` as the `-v` stage summary: spans in recorded order,
/// then every other event sorted by name (stable — same-named events
/// keep their stream order). Every line is prefixed with `# ` so the
/// output can share stderr with other diagnostics.
pub fn render(events: &[Event]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# -- stage summary --");

    let spans: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Span { .. }))
        .collect();
    for span in &spans {
        let EventKind::Span { dur_us } = span.kind else {
            continue;
        };
        let depth = span.name.matches('/').count().saturating_sub(1);
        let indent = "  ".repeat(depth);
        let mut line = format!("# {indent}{} {}", span.name, fmt_duration(dur_us));
        if !span.fields.is_empty() {
            let fields: Vec<String> = span
                .fields
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let _ = write!(line, " ({})", fields.join(", "));
        }
        let _ = writeln!(out, "{line}");
    }

    let mut metrics: Vec<&Event> = events
        .iter()
        .filter(|e| !matches!(e.kind, EventKind::Span { .. }))
        .collect();
    metrics.sort_by(|a, b| a.name.cmp(&b.name));
    for event in metrics {
        match &event.kind {
            EventKind::Span { .. } => {}
            EventKind::Counter { value } => {
                let _ = writeln!(out, "# {} = {value}{}", event.name, fmt_fields(event));
            }
            EventKind::Gauge { value } => {
                let _ = writeln!(out, "# {} = {value:.4}{}", event.name, fmt_fields(event));
            }
            EventKind::Histogram { count, buckets } => {
                let median = median_bucket_lo(buckets, *count);
                let _ = writeln!(
                    out,
                    "# {}: {count} samples, {} non-empty buckets, median bucket >= {median}",
                    event.name,
                    buckets.len()
                );
            }
            EventKind::Warning => {
                let _ = writeln!(out, "# warning {}{}", event.name, fmt_fields(event));
            }
            EventKind::Sample { count } => {
                let _ = writeln!(out, "# {} x{count}{}", event.name, fmt_fields(event));
            }
        }
    }
    out
}

fn fmt_fields(event: &Event) -> String {
    if event.fields.is_empty() {
        return String::new();
    }
    let fields: Vec<String> = event
        .fields
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    format!(" [{}]", fields.join(", "))
}

/// Formats a microsecond duration as `999us`, `1.50ms` or `2.00s`:
/// the one duration format of every human-readable report.
pub fn fmt_duration(dur_us: u64) -> String {
    if dur_us >= 1_000_000 {
        format!("{:.2}s", dur_us as f64 / 1e6)
    } else if dur_us >= 1_000 {
        format!("{:.2}ms", dur_us as f64 / 1e3)
    } else {
        format!("{dur_us}us")
    }
}

fn median_bucket_lo(buckets: &[(u64, u64, u64)], count: u64) -> u64 {
    if count == 0 {
        return 0;
    }
    let mut seen = 0;
    for &(lo, _, c) in buckets {
        seen += c;
        if seen * 2 >= count {
            return lo;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Value;

    #[test]
    fn renders_span_tree_and_metrics() {
        let events = vec![
            Event::new("cli/select/sim/run", EventKind::Span { dur_us: 2_500 })
                .with("instrs", 1_000_000u64),
            Event::new("cli/select", EventKind::Span { dur_us: 1_500_000 }),
            Event::new("select/markers", EventKind::Counter { value: 11 }),
            Event::new("select/cov_threshold", EventKind::Gauge { value: 0.05 })
                .with("avg_cov", 0.04),
            Event {
                name: "partition/vli_lengths".into(),
                kind: EventKind::Histogram {
                    count: 10,
                    buckets: vec![(0, 2, 3), (1024, 2048, 7)],
                },
                fields: vec![],
            },
            Event::new("fallback", EventKind::Warning)
                .with("reason", Value::Str("no-markers".into())),
        ];
        let text = render(&events);
        assert!(text.contains("cli/select 1.50s"));
        assert!(text.contains("  cli/select/sim/run 2.50ms (instrs=1000000)"));
        assert!(text.contains("select/markers = 11"));
        assert!(text.contains("select/cov_threshold = 0.0500 [avg_cov=0.04]"));
        assert!(text.contains("median bucket >= 1024"));
        assert!(text.contains("warning fallback [reason=no-markers]"));
        for line in text.lines() {
            assert!(line.starts_with('#'), "unprefixed line: {line}");
        }
    }

    #[test]
    fn metric_order_is_deterministic_golden() {
        // Golden: the metric block sorts by name regardless of the
        // (nondeterministic, possibly concurrent) emission order; spans
        // stay in stream order. Pinned byte-for-byte.
        let events = vec![
            Event::new("zeta/count", EventKind::Counter { value: 3 }),
            Event::new("cli/run", EventKind::Span { dur_us: 1_000 }),
            Event::new("alpha/rate", EventKind::Gauge { value: 1.0 }),
            Event::new("mid/flag", EventKind::Warning),
            Event::new("alpha/count", EventKind::Counter { value: 9 }),
            Event::new("prof/sample", EventKind::Sample { count: 4 }).with("stack", "cli/run"),
        ];
        let text = render(&events);
        assert_eq!(
            text,
            "# -- stage summary --\n\
             # cli/run 1.00ms\n\
             # alpha/count = 9\n\
             # alpha/rate = 1.0000\n\
             # warning mid/flag\n\
             # prof/sample x4 [stack=cli/run]\n\
             # zeta/count = 3\n"
        );
        // Shuffling the metric emission order must not change the text.
        let mut shuffled = events.clone();
        shuffled.swap(0, 4);
        shuffled.swap(2, 3);
        assert_eq!(render(&shuffled), text);
    }

    #[test]
    fn duration_units_scale() {
        assert_eq!(fmt_duration(999), "999us");
        assert_eq!(fmt_duration(1_500), "1.50ms");
        assert_eq!(fmt_duration(2_000_000), "2.00s");
    }

    #[test]
    fn empty_stream_renders_header_only() {
        let text = render(&[]);
        assert_eq!(text.lines().count(), 1);
    }
}
