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

#[test]
fn every_named_target_has_a_source_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let packages = packages(root);
    let mut checked = 0;
    for file in [".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"] {
        // The verify notes are tooling, not source: a checkout without them
        // has nothing there to rot.
        let text = match std::fs::read_to_string(root.join(file)) {
            Ok(text) => text,
            Err(_) if file.starts_with(".claude") => continue,
            Err(e) => panic!("{file} is readable: {e}"),
        };
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
