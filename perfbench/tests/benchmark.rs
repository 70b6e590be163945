//! The benchmark's own checks: every metric `BENCHMARK.json` names is
//! printed with its unit, deterministic counts repeat bit for bit, the
//! correctness gate fails on a tampered pin, and the command line
//! rejects what it does not understand. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use perfbench::cli::Args;
use perfbench::pins::Pins;
use perfbench::workloads::{Kind, Size};
use perfbench::Outcome;

fn tiny(workload: Kind, trace: bool) -> Args {
    Args {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
        size: Size::Tiny,
        out: None,
        spans: None,
    }
}

fn run(args: &Args) -> Outcome {
    perfbench::run(args).expect("workload sets up")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("string closes");
        rest[open..open + close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn printed(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_named_metric_prints_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), perfbench::END_TO_END.len());
    for workload in Kind::ALL {
        let plain = run(&tiny(workload, false));
        assert!(plain.correct, "{workload:?}: {:?}", plain.failures);
        assert_eq!(printed(&plain), end_to_end, "{workload:?} end-to-end");
        // Tiny runs end before the injected faults reach a client, so
        // only `failed_frac` may read 0 here.
        for m in plain.metrics.iter() {
            assert!(
                m.value > 0.0 || m.name == "failed_frac",
                "{workload:?}: {} is {}",
                m.name,
                m.value
            );
        }
        let traced = run(&tiny(workload, true));
        assert!(traced.correct, "{workload:?}: {:?}", traced.failures);
        assert_eq!(printed(&traced), per_layer, "{workload:?} per-layer");
        assert!(traced.metrics.get("obs.tracing_overhead").unwrap_or(0.0) > 0.0);
    }
}

#[test]
fn deterministic_counts_repeat_bit_exactly() {
    for workload in [Kind::Paper, Kind::Sweep] {
        let a = run(&tiny(workload, true));
        let b = run(&tiny(workload, true));
        let counts = |o: &Outcome| -> Vec<(String, f64)> {
            o.layers
                .iter()
                .filter(|m| m.unit == "count" || m.unit == "bytes")
                .map(|m| (m.name.clone(), m.value))
                .collect()
        };
        assert!(!counts(&a).is_empty());
        assert_eq!(counts(&a), counts(&b), "{workload:?}");
        assert_eq!(a.passes[0].counts, b.passes[0].counts, "{workload:?}");
        // The pass count follows from the arguments, not the host's
        // speed, so the result line's counts repeat too.
        assert_eq!(a.passes.len(), b.passes.len(), "{workload:?}");
        assert_eq!(a.attempted, b.attempted, "{workload:?}");
        assert_eq!(a.failed, b.failed, "{workload:?}");
    }
}

#[test]
fn the_pass_count_follows_from_seconds() {
    for workload in Kind::ALL {
        let nominal = workload.nominal_pass_s();
        assert_eq!(workload.passes(0.01), 1, "{workload:?}");
        assert_eq!(workload.passes(nominal * 7.0), 7, "{workload:?}");
    }
    let args = Args {
        seconds: Kind::Sweep.nominal_pass_s() * 3.0,
        ..tiny(Kind::Sweep, false)
    };
    let outcome = run(&args);
    assert_eq!(outcome.passes.len(), 3);
    assert_eq!(outcome.attempted, 3 * outcome.passes[0].attempted);
}

#[test]
fn a_tampered_pin_fails_the_gate() {
    let args = Args {
        seconds: 0.01,
        ..tiny(Kind::Analysis, false)
    };
    let honest = perfbench::run_with(&args, &Pins::default()).expect("sets up");
    assert!(honest.correct, "{:?}", honest.failures);
    assert_eq!(honest.failed, 0);

    let pins = Pins {
        witness: Pins::default().witness ^ 1,
        ..Pins::default()
    };
    let tampered = perfbench::run_with(&args, &pins).expect("sets up");
    assert!(!tampered.correct);
    assert!(tampered.failed > 0);
    assert!(tampered.failures.iter().any(|f| f.contains("witness")));
    let frac = |o: &Outcome| o.metrics.get("failed_frac").expect("printed");
    assert!(frac(&tampered) > frac(&honest));

    let pins = Pins {
        corpus: Pins::default().corpus ^ 1,
        ..Pins::default()
    };
    let tampered = perfbench::run_with(&args, &pins).expect("sets up");
    assert!(tampered
        .failures
        .iter()
        .any(|f| f.contains("corpus digest")));
}

fn perfbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

#[test]
fn command_line_rejects_unknown_input_and_writes_nothing() {
    for bad in [
        &["--workload", "paper", "--frobnicate"][..],
        &["--workload", "paper", "--seed", "x"],
        &["--workload", "nope"],
        &[],
    ] {
        let out = perfbench(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?} printed a result");
    }
    let help = perfbench(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).starts_with("usage:"));
}

#[test]
fn result_line_is_the_last_line_of_stdout() {
    let out = perfbench(&[
        "--workload",
        "fleet",
        "--size",
        "tiny",
        "--seed",
        "3",
        "--seconds",
        "0.01",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for (name, unit) in declared("end_to_end") {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": "))
                && last.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} missing from {last}"
        );
    }
    let host = stdout.lines().rev().nth(1).expect("a host line");
    for key in [
        "nproc",
        "cpu_model",
        "rustc",
        "commit",
        "worker_threads\": 1",
    ] {
        assert!(host.contains(key), "{key} missing from {host}");
    }
}
