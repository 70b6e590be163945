//! Round-trip determinism of the checked-in sweep scenarios: parsing a
//! scenario file twice yields identical specs and byte-identical plans,
//! and running the expanded units produces the same digest at 1 and 4
//! worker threads.

use experiments::{expand_sweep, parse_sweep, run_batch_with, run_chaos_plan, SweepOutcome};

fn smoke_source() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/sweep-smoke.toml"
    );
    std::fs::read_to_string(path).expect("checked-in smoke scenario is readable")
}

#[test]
fn parsing_twice_yields_identical_plans() {
    let src = smoke_source();
    let a = parse_sweep(&src).expect("scenario parses");
    let b = parse_sweep(&src).expect("scenario parses");
    let ua = expand_sweep(&a).expect("expansion validates");
    let ub = expand_sweep(&b).expect("expansion validates");
    assert!(!ua.is_empty());
    assert_eq!(ua.len(), ub.len());
    for (x, y) in ua.iter().zip(&ub) {
        assert_eq!(x.cell, y.cell);
        assert_eq!(x.plan, y.plan, "cell {} diverged", x.cell);
    }
    // The matrix covers both generated mixes and the explicit timeline.
    assert!(ua.iter().any(|u| u.cell.ends_with("/classic")));
    assert!(ua.iter().any(|u| u.cell.ends_with("/zoo")));
    assert!(ua.iter().any(|u| u.cell.ends_with("/explicit")));
}

#[test]
fn sweep_digest_is_thread_count_independent() {
    let mut spec = parse_sweep(&smoke_source()).expect("scenario parses");
    // A trimmed workload keeps the debug-mode runtime small; the digest
    // comparison only needs both runs to see the same trimmed spec.
    spec.increments = 40;
    spec.plans_per_cell = 2;
    let units = expand_sweep(&spec).expect("expansion validates");
    let run = |threads: usize| {
        SweepOutcome {
            name: spec.name.clone(),
            results: run_batch_with(&units, threads, |u| {
                (u.cell.clone(), run_chaos_plan(&u.plan, &u.chaos))
            }),
        }
        .digest()
    };
    let one = run(1);
    assert_eq!(one, run(4), "sweep digest depends on thread count");
    // Pinned: the trimmed smoke sweep is the workspace's guard on the
    // chaos world builder, so its digest must not move with a refactor.
    assert_eq!(
        one, 0xa305_75ec_e295_8d6a,
        "trimmed smoke sweep digest moved: {one:#018x}"
    );
}
