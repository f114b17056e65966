//! `ptbench compare A… -- B…`: two sets of result files, one verdict per
//! workload × end-to-end metric, by the rules of the choosing-metrics
//! guide (§6 no-regression, §8 the pair rule).
//!
//! Bounds and directions come from `BENCHMARK.json`, the one place they
//! are fixed. A metric whose run-to-run spread (quartile distance over
//! median, on either side) is wider than its bound is `unresolved`, never
//! `same`. Beside the numbers the tool checks what must repeat *exactly*:
//! inputs digests per seed, the outputs digests of single-driver
//! workloads on their common prefix of blocks, and zero failed operations.

use crate::json::Json;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Pairs needed before the pair rule is applied.
const MIN_PAIRS: usize = 10;

#[derive(Clone, Debug, PartialEq)]
struct MetricRule {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

/// One untraced, comparable result file.
#[derive(Clone, Debug)]
struct RunFile {
    path: String,
    workload: String,
    seed: u64,
    failed: u64,
    inputs_digest: String,
    blocks: Vec<String>,
    metrics: BTreeMap<String, f64>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn parse_rules(benchmark: &Json) -> Result<Vec<MetricRule>, String> {
    let metrics = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .ok_or(format!("a metric lacks {key:?}"))
            };
            Ok(MetricRule {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                higher_is_better: match field("better")? {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better must be higher or lower, not {other:?}")),
                },
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("a metric lacks a bound")?,
            })
        })
        .collect()
}

fn parse_run(path: &str, json: &Json) -> Result<Option<RunFile>, String> {
    let text = |key: &str| json.get(key).and_then(Json::as_str).map(str::to_string);
    if json.get("traced").and_then(Json::as_bool) != Some(false) {
        return Ok(None);
    }
    if json.get("comparable").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{path}: a --quick run is not comparable"));
    }
    let metrics = json
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or(format!("{path}: no metrics"))?;
    Ok(Some(RunFile {
        path: path.to_string(),
        workload: text("workload").ok_or(format!("{path}: no workload"))?,
        seed: json
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or(format!("{path}: no seed"))?,
        failed: json
            .get("failed")
            .and_then(Json::as_u64)
            .ok_or(format!("{path}: no failed count"))?,
        inputs_digest: text("inputs_digest").unwrap_or_default(),
        blocks: json
            .get("outputs_digest_blocks")
            .and_then(Json::as_arr)
            .map(|blocks| {
                blocks
                    .iter()
                    .filter_map(Json::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default(),
        metrics: metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    }))
}

fn load_set(paths: &[String]) -> Result<Vec<RunFile>, String> {
    let mut runs = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        runs.extend(parse_run(path, &json)?);
    }
    Ok(runs)
}

/// Quartile distance over the median; `None` with fewer than two values.
fn spread(values: &[f64]) -> Option<f64> {
    (values.len() >= 2).then(|| {
        let [q1, q2, q3] = quartiles(values);
        (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
    })
}

/// By how much of `a`'s median `b`'s median is worse (negative: better).
fn worsening(rule: &MetricRule, a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (median(a), median(b));
    let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    if rule.higher_is_better {
        -change
    } else {
        change
    }
}

fn verdict(rule: &MetricRule, a: &[f64], b: &[f64]) -> Verdict {
    match (spread(a), spread(b)) {
        (Some(sa), Some(sb)) if sa <= rule.bound && sb <= rule.bound => {
            let w = worsening(rule, a, b);
            if w > rule.bound {
                Verdict::Worse
            } else if w < -rule.bound {
                Verdict::Better
            } else {
                Verdict::Same
            }
        }
        _ => Verdict::Unresolved,
    }
}

/// §8: with at least ten pairs (file *i* of A against file *i* of B, as
/// they alternated), a gain is claimed only when B wins nine tenths of
/// all pairs, ties counting for neither, and the medians differ by more
/// than the distance between A's own quartiles.
fn pair_rule(rule: &MetricRule, a: &[f64], b: &[f64]) -> Option<(bool, usize, usize)> {
    let pairs = a.len().min(b.len());
    if pairs < MIN_PAIRS {
        return None;
    }
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| if rule.higher_is_better { y > x } else { y < x })
        .count();
    let [q1, _, q3] = quartiles(&a[..pairs]);
    let apart = (median(&b[..pairs]) - median(&a[..pairs])).abs() > q3 - q1;
    let improved = worsening(rule, a, b) < 0.0;
    Some((wins * 10 >= pairs * 9 && apart && improved, wins, pairs))
}

/// Checks that must hold exactly; returns human-readable findings.
fn exactness(runs: &[&RunFile]) -> Vec<String> {
    let mut findings = Vec::new();
    for run in runs {
        if run.failed > 0 {
            findings.push(format!(
                "{}: {} operations failed (fail_ratio must be 0)",
                run.path, run.failed
            ));
        }
    }
    let mut by_seed: BTreeMap<(String, u64), Vec<&RunFile>> = BTreeMap::new();
    for run in runs {
        by_seed
            .entry((run.workload.clone(), run.seed))
            .or_default()
            .push(run);
    }
    for ((workload, seed), group) in by_seed {
        let first = group[0];
        for other in &group[1..] {
            if other.inputs_digest != first.inputs_digest {
                findings.push(format!(
                    "{workload} seed {seed}: inputs digests differ ({} vs {})",
                    first.path, other.path
                ));
            }
            let common = first.blocks.len().min(other.blocks.len());
            if first.blocks[..common] != other.blocks[..common] {
                findings.push(format!(
                    "{workload} seed {seed}: outputs digests differ within their first {common} blocks ({} vs {})",
                    first.path, other.path
                ));
            }
        }
    }
    findings
}

fn values(runs: &[RunFile], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

fn quartile_text(v: &[f64]) -> String {
    match v.len() {
        0 => "-".to_string(),
        1 => format!("{:.4}", v[0]),
        _ => {
            let [q1, q2, q3] = quartiles(v);
            format!("{q2:.4} [{q1:.4}, {q3:.4}]")
        }
    }
}

/// The comparison table and whether everything agreed.
fn compare(rules: &[MetricRule], a: &[RunFile], b: &[RunFile]) -> (String, bool) {
    let mut out = format!(
        "{:<16}{:<27}{:>6}  {:<34}{:<34}{:>7}  {}\n",
        "workload", "metric", "n", "A median [q1, q3]", "B median [q1, q3]", "bound", "verdict"
    );
    let mut agreed = true;
    let workloads: std::collections::BTreeSet<&str> =
        a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    for workload in workloads {
        for rule in rules {
            let (va, vb) = (
                values(a, workload, &rule.name),
                values(b, workload, &rule.name),
            );
            if va.is_empty() || vb.is_empty() {
                out.push_str(&format!(
                    "{workload:<16}{:<27}  missing on one side\n",
                    rule.name
                ));
                agreed = false;
                continue;
            }
            let v = verdict(rule, &va, &vb);
            agreed &= matches!(v, Verdict::Same | Verdict::Better);
            let mut line = format!(
                "{workload:<16}{:<27}{:>6}  {:<34}{:<34}{:>6.1}%  {}",
                format!("{} ({})", rule.name, rule.unit),
                format!("{}/{}", va.len(), vb.len()),
                quartile_text(&va),
                quartile_text(&vb),
                rule.bound * 100.0,
                v.name()
            );
            if let Some((gain, wins, pairs)) = pair_rule(rule, &va, &vb) {
                line.push_str(&format!(
                    "; pair rule: {} (B won {wins} of {pairs})",
                    if gain { "gain" } else { "no gain" }
                ));
            }
            out.push_str(&line);
            out.push('\n');
        }
    }
    let all: Vec<&RunFile> = a.iter().chain(b).collect();
    for finding in exactness(&all) {
        out.push_str(&format!("EXACTNESS: {finding}\n"));
        agreed = false;
    }
    (out, agreed)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    let mut side = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--benchmark" => benchmark = it.next().ok_or("--benchmark needs a file")?.clone(),
            "--" if side == 0 => side = 1,
            path => sets[side].push(path.to_string()),
        }
    }
    if sets[0].is_empty() || sets[1].is_empty() {
        return Err("usage: ptbench compare [--benchmark FILE] A.json… -- B.json…".to_string());
    }
    let text = std::fs::read_to_string(&benchmark).map_err(|e| format!("{benchmark}: {e}"))?;
    let rules = parse_rules(&Json::parse(&text).map_err(|e| format!("{benchmark}: {e}"))?)?;
    let (table, agreed) = compare(&rules, &load_set(&sets[0])?, &load_set(&sets[1])?);
    print!("{table}");
    println!(
        "{}",
        if agreed {
            "the two sets agree"
        } else {
            "the two sets do NOT agree"
        }
    );
    Ok(if agreed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher_is_better: bool, bound: f64) -> MetricRule {
        MetricRule {
            name: "rides_per_s".into(),
            unit: "1/s".into(),
            higher_is_better,
            bound,
        }
    }

    fn run(path: &str, seed: u64, rides_per_s: f64, blocks: &[&str]) -> RunFile {
        RunFile {
            path: path.into(),
            workload: "day.pooled".into(),
            seed,
            failed: 0,
            inputs_digest: format!("in{seed}"),
            blocks: blocks.iter().map(|s| s.to_string()).collect(),
            metrics: [("rides_per_s".to_string(), rides_per_s)].into(),
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |by: f64| steady.map(|x| x * by);
        let r = rule(true, 0.05);
        assert_eq!(verdict(&r, &steady, &shift(1.0)), Verdict::Same);
        assert_eq!(verdict(&r, &steady, &shift(0.97)), Verdict::Same);
        assert_eq!(verdict(&r, &steady, &shift(0.90)), Verdict::Worse);
        assert_eq!(verdict(&r, &steady, &shift(1.10)), Verdict::Better);
        // Lower-is-better flips the direction.
        assert_eq!(
            verdict(&rule(false, 0.05), &steady, &shift(1.10)),
            Verdict::Worse
        );
        // A spread wider than the bound is never "same".
        let noisy = [80.0, 120.0, 95.0, 110.0, 100.0];
        assert_eq!(verdict(&r, &steady, &noisy), Verdict::Unresolved);
        assert_eq!(
            verdict(&r, &[100.0], &steady),
            Verdict::Unresolved,
            "one run has no spread"
        );
    }

    #[test]
    fn the_pair_rule_needs_ten_pairs_nine_wins_and_daylight() {
        let r = rule(true, 0.05);
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(pair_rule(&r, &a[..9], &faster[..9]), None);
        assert_eq!(pair_rule(&r, &a, &faster), Some((true, 10, 10)));
        // Eight wins of ten is not nine tenths.
        let mut mixed = faster.clone();
        mixed[0] = 90.0;
        mixed[1] = 90.0;
        assert_eq!(pair_rule(&r, &a, &mixed), Some((false, 8, 10)));
        // Winning every pair by less than A's own quartile distance is no gain.
        let barely: Vec<f64> = a.iter().map(|x| x + 0.5).collect();
        assert_eq!(pair_rule(&r, &a, &barely), Some((false, 10, 10)));
        // Ties count for neither side.
        assert_eq!(pair_rule(&r, &a, &a), Some((false, 0, 10)));
    }

    #[test]
    fn exact_things_must_repeat_exactly() {
        let a = run("a.json", 7, 100.0, &["d1", "d2", "d3"]);
        let shorter = run("b.json", 7, 101.0, &["d1", "d2"]);
        assert!(
            exactness(&[&a, &shorter]).is_empty(),
            "a common prefix agrees"
        );
        let other_seed = run("c.json", 8, 100.0, &["x1"]);
        assert!(
            exactness(&[&a, &other_seed]).is_empty(),
            "different seeds are not compared"
        );
        let diverged = run("d.json", 7, 100.0, &["d1", "XX"]);
        assert_eq!(exactness(&[&a, &diverged]).len(), 1);
        let mut failed = run("e.json", 7, 100.0, &["d1"]);
        failed.failed = 2;
        failed.inputs_digest = "other".into();
        assert_eq!(exactness(&[&a, &failed]).len(), 2);
    }

    #[test]
    fn the_table_has_a_row_per_workload_and_metric() {
        let rules = [rule(true, 0.05)];
        let a: Vec<RunFile> = (0..5).map(|i| run("a", i, 100.0 + i as f64, &[])).collect();
        let b: Vec<RunFile> = (0..5).map(|i| run("b", i, 100.5 + i as f64, &[])).collect();
        let (table, agreed) = compare(&rules, &a, &b);
        assert!(agreed, "{table}");
        assert!(
            table.contains("day.pooled")
                && table.contains("rides_per_s (1/s)")
                && table.contains("same")
        );
        let slow: Vec<RunFile> = (0..5).map(|i| run("b", i, 80.0 + i as f64, &[])).collect();
        let (table, agreed) = compare(&rules, &a, &slow);
        assert!(!agreed && table.contains("worse"), "{table}");
    }

    #[test]
    fn rules_and_runs_parse_from_their_files() {
        let benchmark = Json::parse(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25},
                               {"name":"rides_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let rules = parse_rules(&benchmark).unwrap();
        assert_eq!(rules.len(), 2);
        assert!(!rules[0].higher_is_better && rules[1].higher_is_better);
        assert_eq!(rules[0].bound, 0.25);

        let file = Json::parse(
            r#"{"workload":"city.cold","seed":7,"traced":false,"comparable":true,"failed":0,
                "inputs_digest":"ab","outputs_digest_blocks":["x","y"],
                "metrics":{"setup_s":{"value":0.5,"unit":"s","samples":3}}}"#,
        )
        .unwrap();
        let run = parse_run("f.json", &file).unwrap().unwrap();
        assert_eq!(
            (run.workload.as_str(), run.seed, run.blocks.len()),
            ("city.cold", 7, 2)
        );
        assert_eq!(run.metrics["setup_s"], 0.5);
        let traced = Json::parse(r#"{"traced":true}"#).unwrap();
        assert!(
            parse_run("t.json", &traced).unwrap().is_none(),
            "traced files are skipped"
        );
        let quick = Json::parse(r#"{"traced":false,"comparable":false}"#).unwrap();
        assert!(parse_run("q.json", &quick).is_err());
    }
}
