//! What a workload run produces, and the three ways it is written: the
//! contract's result line, a result file `compare` reads, and a table for
//! people.

use crate::json::Json;
use crate::stats::BlockLatencies;
use crate::sut::RideService;
use crate::trace::{Budget, Tracer};
use crate::world::Tally;
use crate::RunOpts;

/// The gated metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("offer_p50_ms", "ms"),
    ("offer_p99_ms", "ms"),
    ("rides_per_s", "1/s"),
    ("options_per_offer", "count"),
];

/// The layer metrics, in `BENCHMARK.json` order: `(name, unit)`. A workload
/// on which a layer does nothing reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("server.self_ms", "ms"),
    ("server.poll_us", "us"),
    ("server.open_p50_ms", "ms"),
    ("server.open_p99_ms", "ms"),
    ("server.rate_in_slo", "1/s"),
    ("service.self_us", "us"),
    ("service.respond_us", "us"),
    ("service.update_us", "us"),
    ("service.updates_per_ride", "count"),
    ("matching.match_p50_ms", "ms"),
    ("matching.match_p99_ms", "ms"),
    ("matching.verified_per_offer", "count"),
    ("matching.pruned_ratio", "ratio"),
    ("matching.candidates_per_option", "ratio"),
    ("vehicles.insert_us", "us"),
    ("vehicles.schedule_depth", "count"),
    ("roadnet.exact_per_offer", "count"),
    ("roadnet.cache_hit_ratio", "ratio"),
    ("roadnet.exact_us", "us"),
    ("roadnet.bound_ns", "ns"),
    ("roadnet.batch_us", "us"),
    ("journal.append_us", "us"),
    ("journal.bytes_per_op", "count"),
    ("journal.snapshot_s", "s"),
    ("journal.recover_s", "s"),
    ("journal.replay_ops_per_s", "1/s"),
    ("driver.share", "ratio"),
    ("trace_overhead_pct", "%"),
    ("traced_rides_per_s", "1/s"),
];

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Observations behind the value (latency samples, rides, set-ups).
    pub samples: u64,
}

/// Everything one run of one workload found.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Scaled-down sizes: every check runs, no number is comparable.
    pub quick: bool,
    pub inputs_digest: String,
    /// Single-driver workloads: the cumulative digest over every offer so
    /// far, taken at each block boundary. Runs of different length agree
    /// on their common prefix.
    pub block_digests: Vec<String>,
    /// Offers per block of `block_digests`.
    pub block_rides: u64,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub budget: Option<Budget>,
    /// Free-form lines for the table and the file (tail percentile
    /// actually reported, open-loop lateness, …).
    pub notes: Vec<String>,
    /// The traced pass's spans, written beside the result file.
    pub spans: Option<Tracer>,
    /// Worker-pool size and distance backend the served engine resolved
    /// to, for the runtime block.
    pub pool_size: usize,
    pub backend: String,
}

impl Outcome {
    pub fn new(workload: &'static str, opts: &RunOpts) -> Outcome {
        Outcome {
            workload,
            seed: opts.seed,
            traced: opts.traced,
            quick: opts.quick,
            inputs_digest: String::new(),
            block_digests: Vec::new(),
            block_rides: 0,
            tally: Tally::default(),
            metrics: Vec::new(),
            budget: None,
            notes: Vec::new(),
            spans: None,
            pool_size: 0,
            backend: String::new(),
        }
    }

    /// Notes what the engine under test actually runs on.
    pub fn stamp_engine(&mut self, service: &RideService) {
        self.pool_size = service.runtime().parallelism();
        self.backend = service.oracle().backend().to_string();
    }

    /// `offer_p50_ms` and `offer_p99_ms` from a latency series. When the
    /// blocks are too short for a p99 with ten samples beyond it (quick
    /// runs, a very slow machine) the highest percentile they do support
    /// stands in, and a note says which.
    pub fn latency_metrics(&mut self, latencies: &BlockLatencies) {
        let samples = latencies.samples() as u64;
        match latencies.summary() {
            Some(s) => {
                self.metric("offer_p50_ms", s.p50, samples);
                self.metric("offer_p99_ms", s.tail, samples);
                if s.tail_percentile < 0.99 {
                    self.notes.push(format!(
                        "offer_p99_ms holds p{} (blocks too short for p99): not comparable",
                        s.tail_percentile * 100.0
                    ));
                }
                let blocks: Vec<String> = latencies
                    .per_block(s.tail_percentile)
                    .iter()
                    .map(|ms| format!("{ms:.3}"))
                    .collect();
                self.notes.push(format!(
                    "offer latency: {} samples in {} block(s); p{} of each block, ms: {}",
                    s.samples,
                    s.blocks,
                    s.tail_percentile * 100.0,
                    blocks.join(" ")
                ));
            }
            None => self.notes.push(format!(
                "offer latency: {samples} samples are too few to report"
            )),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, samples: u64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in report.rs"))
            .1;
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.tally.violations.is_empty()
    }

    /// The contract's last line: the end-to-end metrics of an untraced
    /// run, the layer metrics of a traced one.
    pub fn result_line(&self) -> String {
        let wanted: &[(&str, &str)] = if self.traced { &PER_LAYER } else { &END_TO_END };
        let metrics = wanted.iter().map(|(name, unit)| {
            let value = self.value(name).unwrap_or(0.0);
            (
                *name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(*unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The result file: everything, stamped with the runtime block.
    pub fn to_json(&self, runtime: &Json) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                    ("samples", Json::Num(m.samples as f64)),
                ]),
            )
        });
        let mut fields = vec![
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("comparable", Json::Bool(!self.quick)),
            ("runtime", runtime.clone()),
            ("inputs_digest", Json::str(&*self.inputs_digest)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            (
                "fail_ratio",
                Json::Num(self.tally.failed as f64 / self.tally.attempted.max(1) as f64),
            ),
            ("metrics", Json::obj(metrics)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
        ];
        if !self.block_digests.is_empty() {
            fields.push((
                "outputs_digest_block_rides",
                Json::Num(self.block_rides as f64),
            ));
            fields.push((
                "outputs_digest_blocks",
                Json::Arr(self.block_digests.iter().map(Json::str).collect()),
            ));
        }
        if let Some(budget) = &self.budget {
            fields.push(("budget", budget.to_json()));
        }
        Json::obj(fields)
    }

    /// The table for people: every metric by name with unit and samples.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} (seed {}{}{})\n",
            self.workload,
            self.seed,
            if self.traced { ", traced" } else { "" },
            if self.quick {
                ", QUICK: numbers not comparable"
            } else {
                ""
            },
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<32}{:>16.6} {:<6} n={}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out.push_str(&format!(
            "  {:<32}{:>16.6} {:<6} failed {} of {} operations\n",
            "fail_ratio",
            self.tally.failed as f64 / self.tally.attempted.max(1) as f64,
            "ratio",
            self.tally.failed,
            self.tally.attempted
        ));
        out.push_str(&format!("  inputs_digest  {}\n", self.inputs_digest));
        if let Some(first) = self.block_digests.first() {
            out.push_str(&format!(
                "  outputs_digest {first} over the first {} offers ({} block digests on file)\n",
                self.block_rides,
                self.block_digests.len()
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        if let Some(budget) = &self.budget {
            out.push_str(&format!(
                "  budget of the traced wall ({:.4} s):\n",
                budget.wall_s
            ));
            out.push_str(&budget.render());
        }
        for v in &self.tally.violations {
            out.push_str(&format!("  VIOLATION: {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(traced: bool) -> Outcome {
        let mut o = Outcome {
            workload: "day.pooled",
            seed: 7,
            traced,
            quick: false,
            inputs_digest: "00ff".into(),
            block_digests: vec!["abcd".into()],
            block_rides: 1000,
            tally: Tally {
                attempted: 10,
                failed: 0,
                violations: vec![],
            },
            metrics: vec![],
            budget: None,
            notes: vec![],
            spans: None,
            pool_size: 2,
            backend: "alt".into(),
        };
        o.metric("setup_s", 0.8127, 3);
        o.metric("driver.share", 0.25, 1);
        o
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = outcome(false).result_line();
        let json = Json::parse(&line).unwrap();
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = json.get("metrics").and_then(Json::as_obj).unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n));
        assert_eq!(
            metrics[0].1.get("value").and_then(Json::as_f64),
            Some(0.8127)
        );
        assert_eq!(metrics[0].1.get("unit").and_then(Json::as_str), Some("s"));

        let traced = Json::parse(&outcome(true).result_line()).unwrap();
        let metrics = traced.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(
            traced
                .get("metrics")
                .unwrap()
                .get("driver.share")
                .unwrap()
                .get("value"),
            Some(&Json::Num(0.25))
        );
    }

    #[test]
    fn declared_names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn a_violation_makes_the_outcome_incorrect() {
        let mut o = outcome(false);
        assert!(o.correct());
        o.tally
            .violation("option 1 is dominated by option 0".into());
        assert!(!o.correct());
        assert!(o.render().contains("VIOLATION"));
        let file = o.to_json(&Json::obj([("nproc", Json::Num(2.0))]));
        assert_eq!(file.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(
            file.get("outputs_digest_block_rides")
                .and_then(Json::as_u64),
            Some(1000)
        );
    }
}
