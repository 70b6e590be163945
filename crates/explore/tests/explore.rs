//! End-to-end coverage of the exploration pipeline: the empty prefix is
//! FIFO-equivalent, every recorded [`DecisionTrace`] replays bit for bit
//! (as a property, over arbitrary choice vectors), the search digest is
//! thread-count independent, and the seeded known-bug fixture is caught,
//! minimized to a handful of decisions, and replayable by digest.

use experiments::{run_chaos_plan, run_chaos_plan_with};
use explore::{explore, fixtures, minimize, run_prefix, ExploreConfig};
use proptest::strategy::Strategy;
use simnet::{DecisionTrace, ReplayScheduler};

/// An empty choice prefix must reproduce the FIFO schedule exactly: the
/// choosing dispatch path with all-default picks and the FIFO fast path
/// are two implementations of the same total order. The FIFO digests
/// themselves are pinned, covering the chaos world at 2, 3 and 1 slots.
#[test]
fn empty_prefix_is_fifo_equivalent() {
    for (fixture, pinned) in [
        (fixtures::pair(), 0x4ce7_1679_dd96_e600),
        (fixtures::trio(), 0x2209_62ca_2569_a18b),
        (fixtures::seeded_bug(), 0xe8b8_08e0_2455_68a7),
    ] {
        let fifo = run_chaos_plan(&fixture.plan, &fixture.chaos);
        assert_eq!(
            fifo.digest(),
            pinned,
            "fixture {}: FIFO digest moved: {:#018x}",
            fixture.name,
            fifo.digest()
        );
        let run = run_prefix(&fixture.plan, &fixture.chaos, fixture.gate, &[]);
        assert_eq!(
            fifo.digest(),
            run.outcome_digest,
            "fixture {}: all-default exploration diverged from FIFO",
            fixture.name
        );
        assert_eq!(
            run.trace.deviations(),
            0,
            "fixture {}: empty prefix recorded a deviation",
            fixture.name
        );
    }
}

/// The frontier search must not depend on worker-thread count: same
/// budget, same digest, same failure set.
#[test]
fn explore_digest_is_thread_count_independent() {
    let fixture = fixtures::pair();
    let outcome = |threads: usize| {
        explore(
            &fixture.plan,
            &fixture.chaos,
            &ExploreConfig {
                gate: fixture.gate,
                max_runs: 48,
                max_depth: 8,
                threads,
                relation: None,
            },
        )
    };
    let one = outcome(1);
    let four = outcome(4);
    assert_eq!(one.digest, four.digest);
    assert_eq!(one.executed, four.executed);
    assert_eq!(one.outcome_digests, four.outcome_digests);
    assert_eq!(one.failures.len(), four.failures.len());
}

/// Any choice vector — in range, out of range (clamped to default), long
/// or empty — yields a trace that (a) survives the JSONL round trip and
/// (b) replays through the independent [`ReplayScheduler`] to a
/// bit-identical outcome digest. Cases are generated from the vendored
/// proptest strategy API with an explicit small case count (each case
/// costs two full simulation runs).
#[test]
fn decision_trace_replays_bit_identically() {
    let strat = proptest::collection::vec(0u64..4, 0..10usize);
    let fixture = fixtures::pair();
    for case in 0..8u32 {
        let mut rng = proptest::test_runner::new_rng("decision_trace_replays", case);
        let choices: Vec<u64> = Strategy::generate(&strat, &mut rng);
        let run = run_prefix(&fixture.plan, &fixture.chaos, fixture.gate, &choices);

        let parsed = DecisionTrace::parse(&run.trace.to_jsonl())
            .expect("recorded trace round-trips through JSONL");
        assert_eq!(parsed, run.trace, "JSONL round trip for {choices:?}");

        let replayed = run_chaos_plan_with(
            &fixture.plan,
            &fixture.chaos,
            Box::new(ReplayScheduler::from_trace(&run.trace)),
        );
        assert_eq!(
            replayed.digest(),
            run.outcome_digest,
            "replay diverged for choices {choices:?}"
        );
    }
}

/// The acceptance pipeline for the seeded protocol mutation
/// ([`fixtures::seeded_bug`]): dormant under FIFO, caught by the search,
/// minimized to at most ten decisions, and the minimal trace replays by
/// digest with the violation intact.
#[test]
fn seeded_bug_is_caught_minimized_and_replayable() {
    let fixture = fixtures::seeded_bug();

    let fifo = run_prefix(&fixture.plan, &fixture.chaos, fixture.gate, &[]);
    assert!(
        fifo.violations.is_empty(),
        "mutation must stay dormant under FIFO: {:?}",
        fifo.violations
    );

    let outcome = explore(
        &fixture.plan,
        &fixture.chaos,
        &ExploreConfig {
            gate: fixture.gate,
            max_runs: 256,
            max_depth: 12,
            threads: 2,
            relation: None,
        },
    );
    let first = outcome
        .failures
        .first()
        .expect("the search must expose the seeded mutation");
    let witness: Vec<u64> = first.trace.decisions.iter().map(|d| d.chosen).collect();

    let minimal = minimize(&fixture.plan, &fixture.chaos, fixture.gate, &witness, 200)
        .expect("the witness must minimize to a verified failing schedule");
    assert!(
        minimal.choices.len() <= 10,
        "minimal schedule keeps {} decisions",
        minimal.choices.len()
    );
    assert!(!minimal.violations.is_empty());

    let replayed = run_chaos_plan_with(
        &fixture.plan,
        &fixture.chaos,
        Box::new(ReplayScheduler::from_trace(&minimal.trace)),
    );
    assert_eq!(replayed.digest(), minimal.outcome_digest);
    assert_eq!(replayed.violations, minimal.violations);
}
