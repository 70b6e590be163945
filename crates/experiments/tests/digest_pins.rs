//! Pins the 13 paper-workload scenario digests, and the fleet family's
//! event counts and digests at 100 and 1,000 clients per group, to fixed
//! values.
//!
//! The DESIGN §11 kernel refactor (slab-indexed state tables, timing-
//! wheel event queue) was performed under the obligation that every one
//! of these digests stays bit-identical — the digest folds the workload
//! reports, metrics, observability trace, timestamps and event count, so
//! any drift in RNG draw order, id allocation, or event dispatch order
//! shows up here. If a future change moves one of these values, that is
//! a *semantic* change to the simulation and needs the baselines
//! regenerated deliberately, not silently.

use experiments::{paper_workload, run_fleet, run_scenario, FleetConfig};
use mead::RecoveryScheme;

/// `(label, digest)` of every paper-workload cell at 10,000 invocations.
const PINNED: [(&str, u64); 13] = [
    ("table1/Reactive_Without_Cache", 0x47800b489ed93fe3),
    ("table1/Reactive_With_Cache", 0x1ad5656549033ee1),
    ("table1/NEEDS_ADDRESSING_Mode", 0x52d127518fab14b7),
    ("table1/LOCATION_FORWARD", 0x820130c21c46a4dd),
    ("table1/MEAD_Message", 0x8e5e0417fcd8c135),
    ("fig5/LOCATION_FORWARD@20", 0x9da9f25d7991f221),
    ("fig5/LOCATION_FORWARD@40", 0xfd7ce9dc9761b071),
    ("fig5/LOCATION_FORWARD@60", 0xcc76a92c66f2c2f9),
    ("fig5/LOCATION_FORWARD@80", 0xe8d8c44ccf2b651f),
    ("fig5/MEAD_Message@20", 0xfe86a26a4f19e82b),
    ("fig5/MEAD_Message@40", 0x838e3f85fdc41021),
    ("fig5/MEAD_Message@60", 0xbe5b1b333e4744fa),
    ("fig5/MEAD_Message@80", 0xfbd454d763cad9b9),
];

#[test]
fn paper_workload_digests_match_committed_values() {
    let cells = paper_workload(10_000);
    assert_eq!(cells.len(), PINNED.len(), "workload shape changed");
    let mut failures = Vec::new();
    for ((label, cfg), (pin_label, pin)) in cells.iter().zip(PINNED) {
        assert_eq!(label, pin_label, "workload order changed");
        let digest = run_scenario(cfg).digest();
        if digest != pin {
            failures.push(format!("{label}: got {digest:#018x}, pinned {pin:#018x}"));
        }
    }
    assert!(
        failures.is_empty(),
        "scenario digests drifted from committed baselines:\n{}",
        failures.join("\n")
    );
}

/// `(clients per group, events, digest)` of the MEAD fleet at the default
/// shape (4 groups, 5 invocations per client, seed 42). The event counts
/// are those of the BTreeMap/BinaryHeap kernel the DESIGN §11 kernel
/// replaced; `perfbench`'s pinned fleet digest guards 4,000 clients.
const FLEET_PINNED: [(u32, u64, u64); 2] = [
    (100, 50_382, 0x060d4cba2b71010c),
    (1_000, 5_327_220, 0x137f9b71998a5ea7),
];

#[test]
fn fleet_event_counts_and_digests_match_committed_values() {
    for (clients, events, digest) in FLEET_PINNED {
        let out = run_fleet(&FleetConfig::new(RecoveryScheme::MeadFailover, clients), 1);
        assert_eq!(out.total_events, events, "{clients} clients/group: events");
        assert_eq!(
            out.digest(),
            digest,
            "{clients} clients/group: got {:#018x}",
            out.digest()
        );
    }
}
