//! Warm-passive state transfer (extension, DESIGN.md §8): the replicated
//! counter's value must substantially survive proactive fail-overs via
//! checkpoints, with bounded loss per hand-off.

use mead_repro::experiments::{run_counter_scenario, CounterConfig, CounterOutcome};
use mead_repro::simnet::SimDuration;

/// 64-bit FNV-1a over the acknowledged values and every metric counter:
/// a byte-level fingerprint of one counter run.
fn fingerprint(out: &CounterOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in &out.values {
        feed(&v.to_le_bytes());
    }
    for (name, value) in out.metrics.counters() {
        feed(name.as_bytes());
        feed(&value.to_le_bytes());
    }
    h
}

#[test]
fn counter_state_survives_failovers_with_bounded_loss() {
    let out = run_counter_scenario(&CounterConfig::default());
    assert!(out.completed, "all increments must be acknowledged");
    let sent = out.values.len() as u64;
    let rejuvenations = out.metrics.counter("mead.graceful_rejuvenations");
    assert!(
        rejuvenations >= 3,
        "the leak must force several rejuvenations"
    );
    assert!(
        out.metrics.counter("mead.state_restored") > 0,
        "backups must apply checkpoints"
    );
    // Every fail-over shows up as exactly one visible regression...
    assert!(
        out.regressions() as u64 <= rejuvenations + 1,
        "regressions {} vs rejuvenations {}",
        out.regressions(),
        rejuvenations
    );
    // ...and the loss per fail-over is bounded by the checkpoint interval:
    // 50 ms at ~1.75 ms per increment is < 30 lost increments per hand-off.
    let final_value = out.final_value();
    let max_loss = rejuvenations * 45 + 60;
    assert!(
        final_value + max_loss >= sent,
        "loss exceeds the checkpoint bound: final {final_value}, sent {sent}"
    );
    assert!(
        final_value <= sent,
        "counter can never exceed the acknowledged increments"
    );
    // Pinned at the default seed: the counter world must not move.
    assert_eq!(
        (out.values.len(), final_value, out.regressions()),
        (2000, 1927, 6),
        "counter run moved"
    );
    assert_eq!(
        fingerprint(&out),
        0xfc20_088a_b073_6d51,
        "counter fingerprint moved: {:#018x}",
        fingerprint(&out)
    );
}

#[test]
fn fault_free_counter_loses_nothing() {
    let out = run_counter_scenario(&CounterConfig {
        increments: 800,
        fault_free: true,
        ..CounterConfig::default()
    });
    assert!(out.completed);
    assert_eq!(
        out.final_value(),
        out.values.len() as u64,
        "no failures, no loss"
    );
    assert_eq!(out.regressions(), 0);
}

#[test]
fn coarser_checkpoints_lose_more() {
    let fine = run_counter_scenario(&CounterConfig {
        checkpoint_interval: SimDuration::from_millis(25),
        ..CounterConfig::default()
    });
    let coarse = run_counter_scenario(&CounterConfig {
        checkpoint_interval: SimDuration::from_millis(400),
        ..CounterConfig::default()
    });
    assert!(fine.completed && coarse.completed);
    assert!(
        fine.final_value() > coarse.final_value(),
        "finer checkpoints must preserve more state: {} vs {}",
        fine.final_value(),
        coarse.final_value()
    );
}
