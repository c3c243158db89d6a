//! Prometheus-style text metrics for trace rollups.
//!
//! The exposition writer itself lives in [`stash_telemetry::prom`] —
//! one writer (and one strict validator) for every `.prom` artifact the
//! workspace emits. This module re-exports the builder for source
//! compatibility and keeps the canned renderer that turns a
//! [`StallRollup`] into the metric families the `stash trace` CLI dumps.

pub use stash_telemetry::prom::MetricsBuilder;

use crate::rollup::StallRollup;

/// Renders a rollup as the standard `stash_*` metric families:
///
/// * `stash_span_nanoseconds_total{kind,category}` — traced span time,
///   integer nanoseconds, exactly the rollup's reconciled totals;
/// * `stash_trace_events_total{type}` — spans / instants / counters seen.
#[must_use]
pub fn render_rollup(rollup: &StallRollup) -> String {
    let mut b = MetricsBuilder::new();

    b.family(
        "stash_span_nanoseconds_total",
        "counter",
        "Traced span time by track kind and stall category (integer ns).",
    );
    for (kind, category, total) in rollup.kind_totals() {
        b.sample(
            "stash_span_nanoseconds_total",
            &[("kind", kind.label()), ("category", category.label())],
            total.as_nanos() as f64,
        );
    }

    let (spans, instants, counters) = rollup.event_counts();
    b.family(
        "stash_trace_events_total",
        "counter",
        "Trace events recorded, by event type.",
    );
    b.sample(
        "stash_trace_events_total",
        &[("type", "span")],
        spans as f64,
    );
    b.sample(
        "stash_trace_events_total",
        &[("type", "instant")],
        instants as f64,
    );
    b.sample(
        "stash_trace_events_total",
        &[("type", "counter")],
        counters as f64,
    );

    b.finish()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::span::{Category, TraceEvent, Track};
    use stash_simkit::time::SimTime;
    use stash_telemetry::prom::{format_value, validate};

    #[test]
    fn builder_formats_families_and_samples() {
        let mut b = MetricsBuilder::new();
        b.family("x_total", "counter", "Things.");
        b.sample("x_total", &[("k", "v")], 3.0);
        b.sample("x_total", &[], 2.5);
        let text = b.finish();
        assert!(text.contains("# HELP x_total Things."));
        assert!(text.contains("# TYPE x_total counter"));
        assert!(text.contains("x_total{k=\"v\"} 3\n"));
        assert!(text.contains("x_total 2.5\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut b = MetricsBuilder::new();
        b.sample("m", &[("k", "a\"b\\c")], 1.0);
        assert!(b.finish().contains(r#"m{k="a\"b\\c"} 1"#));
    }

    /// Un-escapes one label value the way a Prometheus parser would.
    fn unescape_label(v: &str) -> String {
        let mut out = String::new();
        let mut chars = v.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('\\') => out.push('\\'),
                    Some('"') => out.push('"'),
                    Some('n') => out.push('\n'),
                    Some(other) => out.push(other),
                    None => {}
                }
            } else {
                out.push(c);
            }
        }
        out
    }

    #[test]
    fn hostile_label_value_round_trips() {
        // A value carrying every character the escaper must handle, plus
        // a `# TYPE`-shaped prefix that must not be mistaken for a header.
        let hostile = "# TYPE evil\\path \"quoted\"\nnext{a=\"b\"},c";
        let mut b = MetricsBuilder::new();
        b.family("m_total", "counter", "About m.");
        b.sample("m_total", &[("k", hostile)], 1.0);
        let text = b.finish();

        // The sample stays on one physical line (the newline is escaped),
        // so comment parsing is unaffected.
        let line = text.lines().find(|l| l.starts_with("m_total{")).unwrap();
        assert!(text.lines().filter(|l| l.starts_with('#')).count() == 2);

        // Extract the quoted value back out and un-escape it: we must
        // recover the hostile input byte-for-byte.
        let start = line.find("k=\"").unwrap() + 3;
        let end = line.rfind("\"}").unwrap();
        assert_eq!(unescape_label(&line[start..end]), hostile);
    }

    #[test]
    fn metric_names_are_sanitized() {
        let mut b = MetricsBuilder::new();
        b.family("9bad name-total", "counter", "x");
        b.sample("9bad name-total", &[("bad key", "v")], 2.0);
        let text = b.finish();
        assert!(text.contains("# HELP _9bad_name_total x"));
        assert!(text.contains("# TYPE _9bad_name_total counter"));
        assert!(text.contains("_9bad_name_total{bad_key=\"v\"} 2"));
    }

    #[test]
    fn help_and_type_emitted_once_per_family() {
        let mut b = MetricsBuilder::new();
        b.family("m_total", "counter", "first");
        b.sample("m_total", &[("k", "a")], 1.0);
        b.family("m_total", "counter", "second");
        b.sample("m_total", &[("k", "b")], 2.0);
        let text = b.finish();
        assert_eq!(text.matches("# HELP m_total").count(), 1);
        assert_eq!(text.matches("# TYPE m_total").count(), 1);
        assert!(text.contains("first"));
        assert!(!text.contains("second"));
    }

    #[test]
    fn help_text_escapes_backslash_and_newline() {
        let mut b = MetricsBuilder::new();
        b.family("m_total", "counter", "a\\b\nc");
        let text = b.finish();
        assert!(text.contains("# HELP m_total a\\\\b\\nc\n"));
    }

    #[test]
    fn integer_values_render_exactly() {
        assert_eq!(format_value(1_234_567_890_123.0), "1234567890123");
        assert_eq!(format_value(0.5), "0.5");
    }

    #[test]
    fn rollup_rendering_validates() {
        let events = vec![(
            0,
            TraceEvent::Span {
                track: Track::gpu(0, 0),
                category: Category::Compute,
                name: "forward",
                arg: 0,
                start: SimTime::ZERO,
                end: SimTime::from_nanos(42),
            },
        )];
        let rollup = StallRollup::from_events(&events);
        let text = render_rollup(&rollup);
        validate(&text).unwrap();
        assert!(text.contains("stash_span_nanoseconds_total{kind=\"gpu\",category=\"compute\"} 42"));
        assert!(text.contains("stash_trace_events_total{type=\"span\"} 1"));
    }
}
