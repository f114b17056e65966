//! Every cargo target the CI workflow and the verify notes name must exist.
//!
//! Nothing in this repository executes `.github/workflows/ci.yml`, so a job
//! that calls a deleted binary would rot unseen. This test reads the
//! workflow and `.claude/skills/verify/SKILL.md`, collects every
//! `--bin X`, `--bench X`, `--test X`, `--example X` and
//! `target/release/X`, and checks that a package of this repository (the
//! root, `crates/*`, `ptbench`) has a source file for it — the package the
//! command line names with `-p`/`--package` or `--manifest-path` (or the
//! directory in front of `target/release/`), when it names one.
//!
//! Every `PTRIDER_*` variable those files set must likewise be read by a
//! `std::env::var("…")` call in `crates/` or `src/`: a leg that sets a
//! variable nothing reads runs as a copy of the default leg.

use std::path::{Path, PathBuf};

/// The cargo flag that selects each kind of target, and the directory of a
/// package its sources live in.
const KINDS: [(&str, &str); 4] = [
    ("--bin", BIN_DIR),
    ("--bench", "benches"),
    ("--test", "tests"),
    ("--example", "examples"),
];
const BIN_DIR: &str = "src/bin";

/// The leading run of target-name characters of `s`.
fn name_prefix(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
        .unwrap_or(s.len());
    &s[..end]
}

/// Which packages a command line lets a target come from.
#[derive(Clone, Debug, PartialEq)]
enum Scope {
    /// No package named: any package of the repository.
    Any,
    /// `-p <name>` / `--package <name>`: the package with that name.
    Package(String),
    /// `--manifest-path <dir>/Cargo.toml`, or a `<dir>/target/release/`
    /// path: the package in that directory.
    Dir(String),
}

/// Every `(source directory, name, scope)` a text names on a cargo command
/// line or as a release-binary path. Each line is one command: a `-p` or
/// `--manifest-path` on it scopes every target it names.
fn named_targets(text: &str) -> Vec<(&'static str, String, Scope)> {
    let mut found = Vec::new();
    for line in text.lines() {
        let tokens: Vec<&str> = line
            .split_whitespace()
            .map(|t| t.trim_matches('`'))
            .collect();
        let mut scope = Scope::Any;
        for pair in tokens.windows(2) {
            match pair[0] {
                "-p" | "--package" => scope = Scope::Package(name_prefix(pair[1]).to_string()),
                "--manifest-path" => {
                    let dir = Path::new(pair[1]).parent().unwrap_or(Path::new(""));
                    scope = Scope::Dir(dir.to_string_lossy().into_owned());
                }
                _ => {}
            }
        }
        for (i, token) in tokens.iter().enumerate() {
            let named = KINDS
                .iter()
                .find(|(f, _)| f == token)
                .zip(tokens.get(i + 1));
            if let Some((&(_, dir), next)) = named {
                found.push((dir, name_prefix(next).to_string(), scope.clone()));
            }
            if let Some(at) = token.find("target/release/") {
                let name = name_prefix(&token[at + "target/release/".len()..]);
                let package = token[..at].trim_start_matches("./").trim_end_matches('/');
                let scope = if package.is_empty() {
                    Scope::Any
                } else {
                    Scope::Dir(package.to_string())
                };
                found.push((BIN_DIR, name.to_string(), scope));
            }
        }
    }
    found.retain(|(_, name, _)| !name.is_empty());
    found
}

/// The repository's packages with their names: the root, every `crates/*`,
/// and `ptbench`.
fn packages(root: &Path) -> Vec<(String, PathBuf)> {
    let mut dirs = vec![root.to_path_buf(), root.join("ptbench")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        dirs.push(entry.expect("crates/ entry").path());
    }
    dirs.into_iter()
        .map(|dir| {
            let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
            let name = manifest
                .lines()
                .find_map(|l| l.trim().strip_prefix("name = \""))
                .map_or("", |rest| rest.trim_end_matches('"'))
                .to_string();
            (name, dir)
        })
        .collect()
}

/// Whether a package the scope allows has a source file for the target. A
/// package's `src/main.rs` is the binary named after its directory.
fn resolves(
    root: &Path,
    packages: &[(String, PathBuf)],
    dir: &str,
    name: &str,
    scope: &Scope,
) -> bool {
    let scoped = root.join(match scope {
        Scope::Dir(d) => d.as_str(),
        _ => "",
    });
    packages
        .iter()
        .filter(|(package, path)| match scope {
            Scope::Any => true,
            Scope::Package(p) => package == p,
            Scope::Dir(_) => *path == scoped,
        })
        .any(|(_, package)| {
            package.join(dir).join(format!("{name}.rs")).is_file()
                || (dir == BIN_DIR
                    && package.file_name().is_some_and(|own| own == name)
                    && package.join("src/main.rs").is_file())
        })
}

/// Every `PTRIDER_*` variable a text sets (`PTRIDER_X=…`), in order.
fn set_variables(text: &str) -> Vec<&str> {
    let mut found = Vec::new();
    for (at, _) in text.match_indices("PTRIDER_") {
        let name = name_prefix(&text[at..]);
        if text[at + name.len()..].starts_with('=') {
            found.push(name);
        }
    }
    found
}

/// Appends the text of every `.rs` file under `dir` to `out`, skipping
/// build output.
fn rust_sources(dir: &Path, out: &mut String) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push_str(&std::fs::read_to_string(&path).unwrap_or_default());
        }
    }
}

/// Whether `sources` read `name` with a `std::env::var("name")` call.
fn is_read(sources: &str, name: &str) -> bool {
    sources.contains(&format!("std::env::var(\"{name}\")"))
}

/// The workflow and the verify notes, each with its path. The verify notes
/// are tooling, not source: a checkout without them has nothing there to
/// rot.
fn ci_texts(root: &Path) -> Vec<(&'static str, String)> {
    let mut texts = Vec::new();
    for file in [".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"] {
        match std::fs::read_to_string(root.join(file)) {
            Ok(text) => texts.push((file, text)),
            Err(_) if file.starts_with(".claude") => {}
            Err(e) => panic!("{file} is readable: {e}"),
        }
    }
    texts
}

#[test]
fn every_named_target_has_a_source_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let packages = packages(root);
    let mut checked = 0;
    for (file, text) in ci_texts(root) {
        for (dir, name, scope) in named_targets(&text) {
            assert!(
                resolves(root, &packages, dir, &name, &scope),
                "{file} names `{name}` ({scope:?}), but no such package has {dir}/{name}.rs"
            );
            checked += 1;
        }
    }
    assert!(checked > 10, "the scan found only {checked} targets");
}

#[test]
fn every_variable_set_is_read() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = String::new();
    rust_sources(&root.join("crates"), &mut sources);
    rust_sources(&root.join("src"), &mut sources);
    let mut checked = 0;
    for (file, text) in ci_texts(root) {
        for name in set_variables(&text) {
            assert!(
                is_read(&sources, name),
                "{file} sets `{name}`, but no std::env::var call in crates/ or src/ reads it"
            );
            checked += 1;
        }
    }
    assert!(checked >= 3, "the scan found only {checked} variables");
}

#[test]
fn a_variable_nothing_reads_is_reported() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = String::new();
    rust_sources(&root.join("crates"), &mut sources);
    let legs = "run: PTRIDER_NOPE=1 cargo test -q\n\
                # any `PTRIDER_*` variable is refused\n\
                run: PTRIDER_TELEMETRY=spans cargo test -q";
    assert_eq!(set_variables(legs), ["PTRIDER_NOPE", "PTRIDER_TELEMETRY"]);
    assert!(!is_read(&sources, "PTRIDER_NOPE"));
    assert!(is_read(&sources, "PTRIDER_TELEMETRY"));
}

#[test]
fn a_deleted_binary_is_reported() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let packages = packages(root);
    let stale = "run: cargo build --release -p ptrider-bench --bin no_such_bin\n\
                 run: ./target/release/no_such_bin 400 48 16000\n\
                 run: `cargo run --release --bin wire_smoke`";
    let named = named_targets(stale);
    let bench = Scope::Package("ptrider-bench".to_string());
    assert_eq!(
        named,
        [
            (BIN_DIR, "no_such_bin".to_string(), bench),
            (BIN_DIR, "no_such_bin".to_string(), Scope::Any),
            (BIN_DIR, "wire_smoke".to_string(), Scope::Any),
        ]
    );
    let found = |name: &str, scope: &Scope| resolves(root, &packages, BIN_DIR, name, scope);
    assert!(!found("no_such_bin", &Scope::Any));
    assert!(found("wire_smoke", &Scope::Any));
    assert!(found("ptbench", &Scope::Any));
}

#[test]
fn a_target_resolves_only_inside_the_package_named() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let packages = packages(root);
    let lines = "cargo test -q -p ptrider-roadnet --test traffic_equivalence\n\
                 cargo test -q -p ptrider --test traffic_equivalence\n\
                 cargo run --manifest-path ptbench/Cargo.toml --bin wire_smoke\n\
                 ./ptbench/target/release/ptbench --workload city.cold\n\
                 cargo test -p ptrider-no-such-package --test traffic_equivalence";
    let verdicts: Vec<bool> = named_targets(lines)
        .iter()
        .map(|(dir, name, scope)| resolves(root, &packages, dir, name, scope))
        .collect();
    // `traffic_equivalence` lives in the root package, not in roadnet;
    // `wire_smoke` in crates/bench, not in ptbench.
    assert_eq!(verdicts, [false, true, false, true, false]);
}
