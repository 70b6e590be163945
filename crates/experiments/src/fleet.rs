//! Fleet-scale scenarios: thousands of client processes hammering a
//! replicated server group under each recovery scheme.
//!
//! The paper evaluates a single client against one three-way replicated
//! server. The fleet family scales that shape along two axes:
//!
//! * **clients per group** — one simulation hosts `clients` concurrent
//!   client processes (spread over several client nodes, 64 per node)
//!   driving the same warm-passively replicated server group through the
//!   full recovery machinery (leaks, threshold crossings, migrations or
//!   fail-overs, Naming re-resolution);
//! * **replica groups** — a fleet scenario is `groups` *independent*
//!   replica groups, each its own deterministic single-threaded
//!   simulation with a seed derived from the fleet seed. Groups share
//!   nothing, so [`run_fleet`] fans them across worker threads with
//!   [`run_batch_with`](crate::runner::run_batch_with) — the
//!   within-one-scenario counterpart of
//!   [`run_batch`](crate::runner::run_batch)'s across-scenario
//!   parallelism — and the fleet digest is bit-identical at every thread
//!   count.
//!
//! This family is the kernel-bound workload the slab/timing-wheel kernel
//! (DESIGN §11) is built for: tens of thousands of live processes,
//! endpoints and timers make every O(log n) table walk visible. The
//! `fleet` workload of `perfbench/` measures it.

use mead::RecoveryScheme;
use simnet::SimTime;

use crate::chaos::Fnv;
use crate::runner::run_batch_with;
use crate::scenario::{run_scenario, ScenarioConfig, ScenarioOutcome};

/// Clients hosted per simulated client node.
pub const CLIENTS_PER_NODE: u32 = 64;

/// Parameters of one fleet scenario.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Recovery strategy under test.
    pub scheme: RecoveryScheme,
    /// Master seed; each group derives its own seed from it.
    pub seed: u64,
    /// Independent replica groups (each one simulation).
    pub groups: u32,
    /// Concurrent client processes per group.
    pub clients: u32,
    /// Logical invocations per client.
    pub invocations: u32,
    /// Replication degree per group (paper: 3).
    pub replicas: u32,
}

impl FleetConfig {
    /// The default fleet shape: 4 independent groups of `clients`
    /// clients, 5 invocations each, three-way replication.
    pub fn new(scheme: RecoveryScheme, clients: u32) -> Self {
        FleetConfig {
            scheme,
            seed: 42,
            groups: 4,
            clients,
            invocations: 5,
            replicas: 3,
        }
    }
}

/// SplitMix64 step — the standard 64-bit seed expander. Group seeds must
/// be decorrelated (group 0 of seed 43 must not collide with group 1 of
/// seed 42), which a plain `seed + group` offset would not give.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-group scenario configurations of a fleet, in group order.
pub fn group_configs(cfg: &FleetConfig) -> Vec<ScenarioConfig> {
    (0..cfg.groups.max(1))
        .map(|g| {
            let clients = cfg.clients.max(1);
            // Generous completion deadline: boot plus the serialised
            // server-side cost of every invocation in the group. The run
            // loop breaks as soon as all clients report completion, so
            // headroom here never changes a completed run's digest.
            let total_inv = u64::from(clients) * u64::from(cfg.invocations);
            let deadline = SimTime::from_millis(2000 + total_inv * 6);
            ScenarioConfig {
                seed: splitmix64(cfg.seed ^ (u64::from(g) << 32)),
                invocations: cfg.invocations,
                clients,
                replicas: cfg.replicas,
                client_nodes: clients.div_ceil(CLIENTS_PER_NODE),
                deadline_override: Some(deadline),
                ..ScenarioConfig::quick(cfg.scheme, cfg.invocations)
            }
        })
        .collect()
}

/// Everything a fleet run produced, aggregated over its groups.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// Per-group outcome digests, in group order.
    pub group_digests: Vec<u64>,
    /// Kernel events dispatched, summed over groups.
    pub total_events: u64,
    /// Completed invocations, summed over every client of every group.
    pub completed_invocations: u64,
    /// Client-visible failures (COMM_FAILURE + TRANSIENT), summed.
    pub client_failures: u64,
    /// Server-side failures (exhaustion crashes + rejuvenations), summed.
    pub server_failures: u64,
    /// Groups whose every client completed the workload.
    pub groups_completed: u32,
}

impl FleetOutcome {
    /// FNV-1a fold of the per-group digests plus the deterministic
    /// aggregates — the fleet counterpart of
    /// [`ScenarioOutcome::digest`]. Bit-identical across thread counts.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.group_digests.len() as u64);
        for &d in &self.group_digests {
            h.u64(d);
        }
        h.u64(self.total_events);
        h.u64(self.completed_invocations);
        h.u64(self.client_failures);
        h.u64(self.server_failures);
        h.u64(u64::from(self.groups_completed));
        h.finish()
    }

    fn from_groups(outcomes: &[ScenarioOutcome]) -> FleetOutcome {
        let mut fleet = FleetOutcome {
            group_digests: outcomes.iter().map(ScenarioOutcome::digest).collect(),
            total_events: 0,
            completed_invocations: 0,
            client_failures: 0,
            server_failures: 0,
            groups_completed: 0,
        };
        for out in outcomes {
            fleet.total_events += out.events_processed;
            fleet.server_failures += out.server_failures();
            let mut all_done = true;
            for report in &out.all_reports {
                fleet.completed_invocations += report.records.len() as u64;
                fleet.client_failures += u64::from(report.client_failures());
                all_done &= report.completed;
            }
            if all_done {
                fleet.groups_completed += 1;
            }
        }
        fleet
    }
}

/// Runs every group of the fleet on up to `threads` workers and
/// aggregates. Groups are independent simulations, so the outcome — and
/// its digest — is bit-identical for every `threads` value.
pub fn run_fleet(cfg: &FleetConfig, threads: usize) -> FleetOutcome {
    let configs = group_configs(cfg);
    let outcomes = run_batch_with(&configs, threads, run_scenario);
    FleetOutcome::from_groups(&outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetConfig {
        FleetConfig {
            groups: 2,
            clients: 8,
            invocations: 3,
            ..FleetConfig::new(RecoveryScheme::MeadFailover, 8)
        }
    }

    #[test]
    fn group_seeds_are_distinct_and_deterministic() {
        let cfg = tiny();
        let a = group_configs(&cfg);
        let b = group_configs(&cfg);
        assert_eq!(a.len(), 2);
        assert_ne!(a[0].seed, a[1].seed);
        assert_eq!(a[0].seed, b[0].seed);
        assert_eq!(a[1].seed, b[1].seed);
    }

    #[test]
    fn clients_spread_over_nodes() {
        let cfg = FleetConfig::new(RecoveryScheme::LocationForward, 200);
        let groups = group_configs(&cfg);
        assert_eq!(groups[0].client_nodes, 4); // ceil(200 / 64)
        assert_eq!(groups[0].clients, 200);
    }

    #[test]
    fn fleet_digest_is_identical_across_thread_counts() {
        let cfg = tiny();
        let one = run_fleet(&cfg, 1);
        let four = run_fleet(&cfg, 4);
        assert_eq!(one.digest(), four.digest());
        assert_eq!(one.group_digests, four.group_digests);
        assert!(one.total_events > 0);
        assert_eq!(one.groups_completed, cfg.groups);
    }
}
