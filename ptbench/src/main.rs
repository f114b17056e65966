//! `ptbench` — PTRider's benchmark: four named workloads, five gated
//! end-to-end metrics, and a traced mode that folds harness-side spans
//! into a per-layer budget. See the README beside `Cargo.toml`.
//!
//! ```text
//! ptbench --workload W --seed N --seconds S --trace 0|1   one workload; last stdout line is the result
//! ptbench run [--quick] [--traced] [--seed N] [--seconds S]   all four workloads, tables for people
//! ptbench compare A.json… -- B.json…                      two sets of result files, one verdict per metric
//! ```

mod compare;
mod digest;
mod inproc;
mod json;
mod layers;
mod report;
mod stats;
mod sut;
mod trace;
mod wire;
mod world;

use json::Json;
use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

/// The date of the paper's Shanghai trace, as everywhere in this repo.
const DEFAULT_SEED: u64 = 20090529;
/// Seconds each workload measures for unless told otherwise.
const DEFAULT_SECONDS: f64 = 15.0;
const WORKLOADS: [&str; 4] = ["day.pooled", "city.cold", "wire.open", "journal.restart"];

/// What every workload run is told.
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    /// A fresh directory of this run's own, removed when the run ends.
    pub scratch: PathBuf,
}

#[cfg(test)]
impl RunOpts {
    pub fn for_tests() -> RunOpts {
        RunOpts {
            seed: 7,
            seconds: 0.5,
            traced: false,
            quick: true,
            scratch: std::env::temp_dir(),
        }
    }
}

fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    let outcome = match name {
        "day.pooled" => inproc::run(&inproc::InprocSpec::day_pooled(opts.quick), opts),
        "city.cold" => inproc::run(&inproc::InprocSpec::city_cold(opts.quick), opts),
        "journal.restart" => inproc::run(&inproc::InprocSpec::journal_restart(opts.quick), opts),
        "wire.open" => wire::run(opts),
        other => {
            return Err(format!(
                "unknown workload {other:?}; the workloads are {WORKLOADS:?}"
            ))
        }
    };
    check_pinned_inputs(&outcome)?;
    Ok(outcome)
}

/// Inputs digests of the default seed at full size. A mismatch means the
/// generators changed under the benchmark: the numbers would describe a
/// different workload, so the run aborts instead of printing them.
const PINNED_INPUTS: [(&str, &str); 4] = [
    ("day.pooled", "f1f2ce798c0378ce"),
    ("city.cold", "92edc56431517199"),
    ("wire.open", "195883d9d5ac629d"),
    ("journal.restart", "f1f2ce798c0378ce"),
];

fn check_pinned_inputs(outcome: &Outcome) -> Result<(), String> {
    if outcome.seed != DEFAULT_SEED || outcome.quick {
        return Ok(());
    }
    let pinned = PINNED_INPUTS
        .iter()
        .find(|(name, _)| *name == outcome.workload)
        .map_or("", |(_, digest)| *digest);
    if pinned == outcome.inputs_digest {
        Ok(())
    } else {
        Err(format!(
            "{}: inputs digest {} differs from the pinned {pinned}: the generated workload changed",
            outcome.workload, outcome.inputs_digest
        ))
    }
}

/// Refuses to run under any `PTRIDER_*` variable: each one silently
/// reconfigures the system under test (backend, TTLs, telemetry, threads).
fn refuse_env_knobs() -> Result<(), String> {
    let mut knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("PTRIDER_"))
        .collect();
    knobs.sort();
    if knobs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to measure with these variables set: {}",
            knobs.join(", ")
        ))
    }
}

/// The honesty block stamped on every result file.
fn runtime_block(opts: &RunOpts, outcome: &Outcome) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    Json::obj([
        ("commit", Json::str(git_commit())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("nproc", Json::Num(nproc as f64)),
        ("pool_size", Json::Num(outcome.pool_size as f64)),
        ("distance_backend", Json::str(&*outcome.backend)),
        ("rustc", Json::str(rustc)),
        (
            "client_threads",
            Json::Num(wire::client_threads(nproc) as f64),
        ),
        (
            "client_connections",
            Json::Num(wire::client_threads(nproc) as f64),
        ),
    ])
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout that is not a repository has none.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        out: PathBuf::from("ptbench/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => parsed.traced = true,
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Runs one workload with a scratch directory of its own and writes its
/// result file (and spans, when traced) under `out`.
fn run_and_record(name: &str, args: &Args) -> Result<Outcome, String> {
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let scratch = args
        .out
        .join(format!("scratch-{}-{stamp}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let opts = RunOpts {
        seed: args.seed,
        // Quick runs are smoke tests: about two seconds per workload.
        seconds: if args.quick {
            args.seconds.min(1.0)
        } else {
            args.seconds
        },
        traced: args.traced,
        quick: args.quick,
        scratch,
    };
    let outcome = run_workload(name, &opts);
    let _ = std::fs::remove_dir_all(&opts.scratch);
    let outcome = outcome?;
    let base = format!(
        "{name}.seed{}.{}.{stamp}",
        opts.seed,
        if opts.traced { "traced" } else { "untraced" }
    );
    let file = args.out.join(format!("{base}.json"));
    std::fs::write(
        &file,
        outcome.to_json(&runtime_block(&opts, &outcome)).render() + "\n",
    )
    .map_err(|e| format!("write {}: {e}", file.display()))?;
    if let Some(spans) = &outcome.spans {
        let file = args.out.join(format!("{base}.spans.jsonl"));
        std::fs::write(&file, spans.dump())
            .map_err(|e| format!("write {}: {e}", file.display()))?;
    }
    eprintln!("ptbench: wrote {}", file.display());
    Ok(outcome)
}

/// The contract mode: one workload, the result as the last stdout line.
fn contract(args: &Args, workload: &str) -> Result<ExitCode, String> {
    let outcome = run_and_record(workload, args)?;
    print!("{}", outcome.render());
    if !outcome.correct() {
        // Wrong answers make numbers meaningless: no result line.
        return Err(format!(
            "{workload}: {} correctness violation(s)",
            outcome.tally.violations.len()
        ));
    }
    println!("{}", outcome.result_line());
    Ok(ExitCode::SUCCESS)
}

/// `ptbench run`: every workload from this one process.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let mut wrong = 0;
    for name in WORKLOADS {
        let outcome = run_and_record(name, args)?;
        print!("{}", outcome.render());
        wrong += outcome.tally.violations.len();
    }
    if wrong > 0 {
        return Err(format!("{wrong} correctness violation(s)"));
    }
    Ok(ExitCode::SUCCESS)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("run") => {
            refuse_env_knobs()?;
            run_all(&parse_args(&args[1..])?)
        }
        _ => {
            refuse_env_knobs()?;
            let parsed = parse_args(args)?;
            let workload = parsed
                .workload
                .clone()
                .ok_or("--workload is required (or use `run` / `compare`)")?;
            contract(&parsed, &workload)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ptbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&args(&[
            "--workload",
            "city.cold",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("city.cold"));
        assert_eq!(
            (a.seed, a.seconds, a.traced, a.quick),
            (7, 10.0, true, false)
        );
        let d = parse_args(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.traced),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(parse_args(&args(&["--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--seconds", "0"])).is_err());
        assert!(parse_args(&args(&["--seed"])).is_err());
        assert!(parse_args(&args(&["--frobnicate"])).is_err());
    }

    /// `BENCHMARK.json` and the code name the same workloads and metrics,
    /// in the same order, with the same units.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            let items = json.get(key).and_then(Json::as_arr).unwrap();
            items
                .iter()
                .map(|m| m.get(field).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads", "name"), WORKLOADS);
        assert_eq!(
            names("end_to_end", "name"),
            report::END_TO_END.map(|(n, _)| n)
        );
        assert_eq!(
            names("end_to_end", "unit"),
            report::END_TO_END.map(|(_, u)| u)
        );
        assert_eq!(
            names("per_layer", "name"),
            report::PER_LAYER.map(|(n, _)| n)
        );
        assert_eq!(
            names("per_layer", "unit"),
            report::PER_LAYER.map(|(_, u)| u)
        );
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        assert_eq!(
            json.get("paths").and_then(Json::as_arr).unwrap(),
            [Json::str("ptbench")]
        );
        for bound in json.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = bound.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    /// `ptbench run --quick`: every workload, scaled down, all checks on.
    /// This is the smoke test the issue asks for.
    #[test]
    fn quick_run_of_every_workload_passes_its_checks() {
        let out = std::env::temp_dir().join(format!("ptbench-quick-{}", std::process::id()));
        for traced in [false, true] {
            let a = Args {
                workload: None,
                seed: 7,
                seconds: 0.6,
                traced,
                quick: true,
                out: out.clone(),
            };
            for name in WORKLOADS {
                let outcome = run_and_record(name, &a).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(outcome.correct(), "{name}: {:?}", outcome.tally.violations);
                assert_eq!(outcome.tally.failed, 0, "{name} failed operations");
                assert!(outcome.tally.attempted > 0);
                let line = Json::parse(&outcome.result_line()).unwrap();
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
                if traced {
                    let budget = outcome.budget.as_ref().expect("a traced run has a budget");
                    let sum = budget.attributed_s() + budget.unattributed_s();
                    assert!(
                        (sum - budget.wall_s).abs() < 1e-9,
                        "{name}: rows sum to the wall"
                    );
                    let journal = budget.row(trace::Layer::Journal);
                    assert_eq!(
                        journal.count > 0,
                        name == "journal.restart",
                        "{name}: journal row"
                    );
                } else {
                    for (metric, _) in report::END_TO_END {
                        let v = outcome
                            .value(metric)
                            .unwrap_or_else(|| panic!("{name} lacks {metric}"));
                        assert!(v > 0.0 && v.is_finite(), "{name}: {metric} = {v}");
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
