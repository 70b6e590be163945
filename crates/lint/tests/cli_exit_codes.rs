//! End-to-end exit-code contract for the `detlint` CLI (DESIGN §9):
//! 0 = clean, 1 = unsuppressed findings, 2 = configuration error (bad
//! flags, malformed or stale allowlist, unreadable tree, missing or
//! malformed protocol spec). Each test builds a throwaway workspace
//! under the target directory and drives `lint::cli_main` directly.

use std::path::{Path, PathBuf};

/// A minimal valid R9 spec: a machine with one state and no roles.
const MINIMAL_SPEC: &str =
    "[machine]\nname = \"t\"\ninitial = \"Idle\"\n\n[[state]]\nname = \"Idle\"\n";

/// Creates `<target>/cli-fixtures/<name>` fresh and returns it.
fn workspace(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clear stale fixture root");
    }
    std::fs::create_dir_all(&root).expect("create fixture root");
    root
}

fn write(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    std::fs::write(&path, text).expect("write fixture file");
}

fn run(args: &[&str]) -> i32 {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    lint::cli_main(&args)
}

fn root_arg(root: &Path) -> String {
    root.to_string_lossy().to_string()
}

#[test]
fn clean_workspace_exits_zero() {
    let root = workspace("clean");
    write(&root, "crates/demo/src/lib.rs", "pub fn ok() {}\n");
    write(&root, "specs/recovery-protocol.toml", MINIMAL_SPEC);
    assert_eq!(run(&["--root", &root_arg(&root)]), 0);
    // --fsm-report rides along without changing the code.
    let report = root.join("fsm-report.json");
    assert_eq!(
        run(&[
            "--root",
            &root_arg(&root),
            "--fsm-report",
            &report.to_string_lossy(),
        ]),
        0
    );
    let json = std::fs::read_to_string(&report).expect("fsm report written");
    assert!(json.contains("\"schema\": \"detlint-fsm/1\""), "{json}");
}

#[test]
fn unsuppressed_finding_exits_one() {
    let root = workspace("finding");
    // In the default R10 scope: an unguarded subtraction.
    write(
        &root,
        "crates/giop/src/cdr.rs",
        "pub fn rem(a: usize, b: usize) -> usize {\n    a - b\n}\n",
    );
    write(&root, "specs/recovery-protocol.toml", MINIMAL_SPEC);
    assert_eq!(run(&["--root", &root_arg(&root)]), 1);
}

#[test]
fn stale_allow_entry_exits_two() {
    let root = workspace("stale-allow");
    write(&root, "crates/demo/src/lib.rs", "pub fn ok() {}\n");
    write(&root, "specs/recovery-protocol.toml", MINIMAL_SPEC);
    write(
        &root,
        "lint-allow.toml",
        "[[allow]]\nrule = \"R10\"\npath = \"crates/demo/src/lib.rs\"\npattern = \"nothing\"\njustification = \"stale on purpose\"\n",
    );
    assert_eq!(run(&["--root", &root_arg(&root)]), 2);
}

#[test]
fn unknown_flag_exits_two() {
    assert_eq!(run(&["--frobnicate"]), 2);
    assert_eq!(run(&["--format", "yaml"]), 2);
    // `--timings` is not a flag: wall-clock timing belongs to perfbench.
    assert_eq!(run(&["--timings"]), 2);
}

#[test]
fn missing_spec_exits_two() {
    let root = workspace("no-spec");
    write(&root, "crates/demo/src/lib.rs", "pub fn ok() {}\n");
    assert_eq!(run(&["--root", &root_arg(&root)]), 2);
}

#[test]
fn malformed_spec_exits_two() {
    let root = workspace("bad-spec");
    write(&root, "crates/demo/src/lib.rs", "pub fn ok() {}\n");
    // The initial state is never declared as a [[state]].
    write(
        &root,
        "specs/recovery-protocol.toml",
        "[machine]\nname = \"t\"\ninitial = \"Ghost\"\n\n[[state]]\nname = \"Idle\"\n",
    );
    assert_eq!(run(&["--root", &root_arg(&root)]), 2);
}
