//! Every cargo target the CI workflow and the verify notes name must exist.
//!
//! Nothing in this repository executes `.github/workflows/ci.yml`, so a job
//! that calls a deleted binary would rot unseen. This test reads the
//! workflow and `.claude/skills/verify/SKILL.md`, collects every
//! `--bin X`, `--bench X`, `--test X`, `--example X` and
//! `target/release/X`, and checks that a package of this repository (the
//! root, `crates/*`, `ptbench`) has a source file for it.

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

/// Every `(source directory, name)` a text names on a cargo command line or
/// as a release-binary path.
fn named_targets(text: &str) -> Vec<(&'static str, String)> {
    let mut found = Vec::new();
    let mut tokens = text.split_whitespace().peekable();
    while let Some(token) = tokens.next() {
        let flag = token.trim_start_matches('`');
        let named = KINDS.iter().find(|(f, _)| *f == flag).zip(tokens.peek());
        if let Some((&(_, dir), next)) = named {
            found.push((dir, name_prefix(next).to_string()));
        }
        if let Some(at) = token.find("target/release/") {
            let name = name_prefix(&token[at + "target/release/".len()..]);
            found.push((BIN_DIR, name.to_string()));
        }
    }
    found.retain(|(_, name)| !name.is_empty());
    found
}

/// The repository's packages: the root, every `crates/*`, and `ptbench`.
fn packages(root: &Path) -> Vec<PathBuf> {
    let mut packages = vec![root.to_path_buf(), root.join("ptbench")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        packages.push(entry.expect("crates/ entry").path());
    }
    packages
}

/// Whether some package has a source file for the target. A package's
/// `src/main.rs` is the binary named after its directory. The `-p` of the
/// command line is not read: a target that left its package but shares a
/// name with one elsewhere still resolves.
fn resolves(packages: &[PathBuf], dir: &str, name: &str) -> bool {
    packages.iter().any(|package| {
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
        for (dir, name) in named_targets(&text) {
            assert!(
                resolves(&packages, dir, &name),
                "{file} names `{name}`, but no package has {dir}/{name}.rs"
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
    assert_eq!(
        named,
        [
            (BIN_DIR, "no_such_bin".to_string()),
            (BIN_DIR, "no_such_bin".to_string()),
            (BIN_DIR, "wire_smoke".to_string()),
        ]
    );
    assert!(!resolves(&packages, BIN_DIR, "no_such_bin"));
    assert!(resolves(&packages, BIN_DIR, "wire_smoke"));
    assert!(resolves(&packages, BIN_DIR, "ptbench"));
}
