//! Prometheus text exposition: the zero-dependency [`PromWriter`] and its
//! float formatter.

use super::histogram::{Exemplar, HistogramSnapshot};

/// Builds a Prometheus text-format (version 0.0.4) exposition body.
///
/// Histograms recorded in nanoseconds are exposed in **seconds** (the
/// Prometheus base unit) via the `scale` argument of
/// [`PromWriter::histogram`]; only non-empty buckets are emitted (valid:
/// `le` bounds stay strictly increasing), followed by the mandatory
/// `+Inf` bucket, `_sum` and `_count`.
#[derive(Debug, Default)]
pub struct PromWriter {
    buf: String,
}

impl PromWriter {
    /// An empty body.
    pub fn new() -> PromWriter {
        PromWriter { buf: String::new() }
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.buf.push_str("# HELP ");
        self.buf.push_str(name);
        self.buf.push(' ');
        self.buf.push_str(help);
        self.buf.push_str("\n# TYPE ");
        self.buf.push_str(name);
        self.buf.push(' ');
        self.buf.push_str(kind);
        self.buf.push('\n');
    }

    /// Appends a counter sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.buf.push_str(name);
        self.buf.push(' ');
        self.buf.push_str(&value.to_string());
        self.buf.push('\n');
    }

    /// Appends a labelled counter sample under an already-written header;
    /// call [`PromWriter::counter_family`] first.
    pub fn counter_sample(&mut self, name: &str, labels: &str, value: u64) {
        self.buf.push_str(name);
        self.buf.push('{');
        self.buf.push_str(labels);
        self.buf.push_str("} ");
        self.buf.push_str(&value.to_string());
        self.buf.push('\n');
    }

    /// Writes a counter family header only (samples follow via
    /// [`PromWriter::counter_sample`]).
    pub fn counter_family(&mut self, name: &str, help: &str) {
        self.header(name, help, "counter");
    }

    /// Appends a gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.buf.push_str(name);
        self.buf.push(' ');
        self.buf.push_str(&fmt_f64(value));
        self.buf.push('\n');
    }

    /// Appends a full histogram family. `scale` converts recorded sample
    /// units to exposition units (`1e-9` for nanoseconds → seconds).
    pub fn histogram(&mut self, name: &str, help: &str, snap: &HistogramSnapshot, scale: f64) {
        self.histogram_with_exemplars(name, help, snap, scale, &[]);
    }

    /// Appends a full histogram family with OpenMetrics-style exemplar
    /// annotations: each emitted bucket whose range contains an exemplar's
    /// value gains a trailing `# {trace_id="..."} value` so a p99 bucket
    /// resolves directly to a retrievable trace. `exemplars` must be
    /// sorted by value ascending (as [`super::Histogram::exemplars`]
    /// returns them); exemplars above every finite bucket attach to `+Inf`.
    pub fn histogram_with_exemplars(
        &mut self,
        name: &str,
        help: &str,
        snap: &HistogramSnapshot,
        scale: f64,
        exemplars: &[Exemplar],
    ) {
        self.header(name, help, "histogram");
        let mut next = exemplars.iter().peekable();
        let mut last_high = 0u64;
        for (high, cum) in snap.cumulative_buckets() {
            self.buf.push_str(name);
            self.buf.push_str("_bucket{le=\"");
            self.buf.push_str(&fmt_f64(high as f64 * scale));
            self.buf.push_str("\"} ");
            self.buf.push_str(&cum.to_string());
            // The largest exemplar at or below this bound annotates the
            // bucket; smaller ones in the same range are superseded.
            let mut chosen = None;
            while next.peek().is_some_and(|e| e.value <= high) {
                chosen = next.next();
            }
            if let Some(ex) = chosen {
                self.exemplar(ex, scale);
            }
            self.buf.push('\n');
            last_high = high;
        }
        self.buf.push_str(name);
        self.buf.push_str("_bucket{le=\"+Inf\"} ");
        self.buf.push_str(&snap.count().to_string());
        if let Some(ex) = exemplars.iter().rev().find(|e| e.value > last_high) {
            self.exemplar(ex, scale);
        }
        self.buf.push('\n');
        self.buf.push_str(name);
        self.buf.push_str("_sum ");
        self.buf.push_str(&fmt_f64(snap.sum() as f64 * scale));
        self.buf.push('\n');
        self.buf.push_str(name);
        self.buf.push_str("_count ");
        self.buf.push_str(&snap.count().to_string());
        self.buf.push('\n');
    }

    fn exemplar(&mut self, ex: &Exemplar, scale: f64) {
        self.buf.push_str(" # {trace_id=\"");
        self.buf.push_str(&format!("{:016x}", ex.trace_id));
        self.buf.push_str("\"} ");
        self.buf.push_str(&fmt_f64(ex.value as f64 * scale));
    }

    /// The finished exposition body.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Formats an `f64` the way Prometheus text format expects: shortest
/// round-trip representation, no exponent for typical magnitudes.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::super::Histogram;
    use super::*;

    #[test]
    fn prometheus_exposition_golden_format() {
        let h = Histogram::new();
        for v in [5u64, 5, 17, 40] {
            h.record(v);
        }
        let mut w = PromWriter::new();
        w.counter("ptrider_requests_submitted_total", "Requests submitted.", 4);
        w.gauge("ptrider_oracle_hit_rate", "Cache hit rate.", 0.75);
        w.counter_family("ptrider_events_cursor_missed_total", "Events lost.");
        w.counter_sample("ptrider_events_cursor_missed_total", "cursor=\"7\"", 3);
        w.histogram(
            "ptrider_stage_duration_seconds_service_submit",
            "Submit latency.",
            &h.snapshot(),
            1.0,
        );
        let got = w.finish();
        let want = "\
# HELP ptrider_requests_submitted_total Requests submitted.
# TYPE ptrider_requests_submitted_total counter
ptrider_requests_submitted_total 4
# HELP ptrider_oracle_hit_rate Cache hit rate.
# TYPE ptrider_oracle_hit_rate gauge
ptrider_oracle_hit_rate 0.75
# HELP ptrider_events_cursor_missed_total Events lost.
# TYPE ptrider_events_cursor_missed_total counter
ptrider_events_cursor_missed_total{cursor=\"7\"} 3
# HELP ptrider_stage_duration_seconds_service_submit Submit latency.
# TYPE ptrider_stage_duration_seconds_service_submit histogram
ptrider_stage_duration_seconds_service_submit_bucket{le=\"5\"} 2
ptrider_stage_duration_seconds_service_submit_bucket{le=\"17\"} 3
ptrider_stage_duration_seconds_service_submit_bucket{le=\"40\"} 4
ptrider_stage_duration_seconds_service_submit_bucket{le=\"+Inf\"} 4
ptrider_stage_duration_seconds_service_submit_sum 67
ptrider_stage_duration_seconds_service_submit_count 4
";
        assert_eq!(got, want);
    }

    #[test]
    fn exemplars_annotate_the_matching_bucket() {
        let h = Histogram::new();
        for v in [5u64, 17, 5000] {
            h.record(v);
        }
        let exemplars = [
            Exemplar {
                value: 17,
                trace_id: 0xab,
            },
            Exemplar {
                value: 5000,
                trace_id: 0xcd,
            },
        ];
        let mut w = PromWriter::new();
        w.histogram_with_exemplars("m", "Help.", &h.snapshot(), 1.0, &exemplars);
        let got = w.finish();
        assert!(
            got.contains("m_bucket{le=\"17\"} 2 # {trace_id=\"00000000000000ab\"} 17\n"),
            "{got}"
        );
        assert!(
            got.contains("# {trace_id=\"00000000000000cd\"} 5000\n"),
            "{got}"
        );
        // The un-annotated buckets keep the plain format.
        assert!(got.contains("m_bucket{le=\"5\"} 1\n"), "{got}");
    }
}
