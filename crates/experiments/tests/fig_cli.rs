//! The figure bins touch committed artifacts only under `--write`, and
//! reject arguments they do not understand with exit status 2.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory under the target directory.
fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale dir");
    }
    std::fs::create_dir_all(&dir).expect("create dir");
    dir
}

fn run(bin: &str, dir: &Path, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("bin runs")
}

#[test]
fn unknown_flags_and_extra_arguments_exit_two() {
    let dir = workdir("fig-cli-reject");
    for bin in [
        env!("CARGO_BIN_EXE_fig3"),
        env!("CARGO_BIN_EXE_fig4"),
        env!("CARGO_BIN_EXE_fig5"),
    ] {
        for args in [
            &["--wirte"][..],
            &["20", "--bogus"],
            &["20", "30"],
            &["1e4"],
        ] {
            let out = run(bin, &dir, args);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
            assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
        }
    }
    assert!(!dir.join("results").exists(), "a rejected run wrote files");
}

#[test]
fn fig5_prints_by_default_and_writes_only_under_write() {
    let dir = workdir("fig-cli-write");
    let bin = env!("CARGO_BIN_EXE_fig5");

    let printed = run(bin, &dir, &["--threads", "1", "40"]);
    assert_eq!(printed.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&printed.stdout).to_string();
    assert!(stdout.contains("Figure 5"), "{stdout}");
    assert!(
        !dir.join("results").exists(),
        "fig5 without --write wrote files"
    );

    let written = run(bin, &dir, &["--threads", "1", "--write", "40"]);
    assert_eq!(written.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&written.stdout), stdout);
    let points: Vec<_> = experiments::run_fig5(40, 42, &[20, 40, 60, 80], 1)
        .into_iter()
        .map(|(p, _)| p)
        .collect();
    let csv = std::fs::read_to_string(dir.join("results/fig5.csv")).expect("fig5.csv written");
    assert_eq!(csv, experiments::fig5_csv(&points));
}
