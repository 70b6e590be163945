//! One experiment on the paper's five-node Emulab topology
//! ([`World`]): the time-of-day servers under a recovery scheme, the
//! Recovery Manager on the infrastructure node, and the measuring
//! client workloads.

use std::cell::RefCell;
use std::rc::Rc;

use mead::{
    ClientInterceptor, MeadConfig, RecoveryManager, RecoveryScheme, ReplicaApp, ReplicaFactory,
    ServerInterceptor,
};
use simnet::{
    LossModel, Metrics, NoiseModel, RunOutcome, SimConfig, SimDuration, SimTime, Simulation,
};

use crate::chaos::Fnv;
use crate::workload::{ClientPolicy, ClientWorkload, ReportHandle, WorkloadConfig, WorkloadReport};
use crate::world::World;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Strategy under test.
    pub scheme: RecoveryScheme,
    /// Master seed (each repetition uses a different seed).
    pub seed: u64,
    /// Logical invocations to run (paper: 10 000).
    pub invocations: u32,
    /// Migrate-threshold override for the Figure 5 sweep (`None` = paper
    /// default 0.9 with launch at 0.8).
    pub threshold: Option<f64>,
    /// Disable fault injection entirely (fault-free baseline).
    pub fault_free: bool,
    /// Enable the OS-noise model (section 5.2.5 jitter); off for clean
    /// calibration runs.
    pub os_noise: bool,
    /// Replication degree (paper: 3).
    pub replicas: u32,
    /// Number of concurrent client processes (paper: 1). Each runs the
    /// full workload; per-connection migration must handle all of them.
    pub clients: u32,
    /// Optional final adjustment applied to the derived [`MeadConfig`]
    /// (ablations: `use_key_hash`, `poll_thresholds`, drain delay, ...).
    pub tweak: Option<fn(&mut MeadConfig)>,
    /// Crash the `i`-th server node at the given time (node-crash fault).
    pub crash_server_node_at: Option<(usize, SimTime)>,
    /// Probability that a transport segment needs a retransmission
    /// (message-loss fault; manifests as added delay on the reliable
    /// streams).
    pub message_loss: f64,
    /// Number of nodes the client processes are spread over (fleet
    /// scenarios). `1` reproduces the paper topology exactly: every
    /// client on the single client node.
    pub client_nodes: u32,
    /// Explicit run deadline (`None` = the paper formula, which assumes a
    /// single client). Fleet scenarios scale the deadline with the total
    /// invocation count instead.
    pub deadline_override: Option<SimTime>,
}

impl ScenarioConfig {
    /// The paper's Table 1 setup for `scheme`.
    pub fn paper(scheme: RecoveryScheme) -> Self {
        ScenarioConfig {
            scheme,
            seed: 42,
            invocations: 10_000,
            threshold: None,
            fault_free: false,
            os_noise: true,
            replicas: 3,
            clients: 1,
            tweak: None,
            crash_server_node_at: None,
            message_loss: 0.0,
            client_nodes: 1,
            deadline_override: None,
        }
    }

    /// A shortened run for tests and benches.
    pub fn quick(scheme: RecoveryScheme, invocations: u32) -> Self {
        ScenarioConfig {
            invocations,
            os_noise: false,
            ..Self::paper(scheme)
        }
    }
}

/// The canonical 13-cell paper workload: every Table 1 row plus the full
/// Figure 5 threshold sweep. Shared by the digest pin test and
/// `perfbench`'s `paper` workload so they can never drift apart.
pub fn paper_workload(invocations: u32) -> Vec<(String, ScenarioConfig)> {
    let mut cells = Vec::new();
    for scheme in RecoveryScheme::ALL {
        cells.push((
            format!("table1/{}", scheme.name().replace(' ', "_")),
            ScenarioConfig {
                invocations,
                ..ScenarioConfig::paper(scheme)
            },
        ));
    }
    for scheme in [
        RecoveryScheme::LocationForward,
        RecoveryScheme::MeadFailover,
    ] {
        for pct in [20u32, 40, 60, 80] {
            cells.push((
                format!("fig5/{}@{pct}", scheme.name().replace(' ', "_")),
                ScenarioConfig {
                    invocations,
                    threshold: Some(pct as f64 / 100.0),
                    ..ScenarioConfig::paper(scheme)
                },
            ));
        }
    }
    cells
}

/// Results of one scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The first client's measurements (the paper's single-client view).
    pub report: WorkloadReport,
    /// Every client's measurements (multi-client runs).
    pub all_reports: Vec<WorkloadReport>,
    /// Full kernel metrics (counters, byte accounting, marks).
    pub metrics: Metrics,
    /// Simulated time at which the run ended.
    pub finished_at: SimTime,
    /// Simulated time at which the workload started.
    pub workload_start: SimTime,
    /// Kernel events dispatched over the whole run (deterministic: a
    /// function of the configuration and seed only).
    pub events_processed: u64,
    /// The observability trace of the run, in emission order
    /// (deterministic; serialise with [`trace_jsonl`](Self::trace_jsonl)).
    pub trace: Vec<obs::TraceEvent>,
}

impl ScenarioOutcome {
    /// Server-side failures: crashes from resource exhaustion plus
    /// graceful proactive rejuvenations.
    pub fn server_failures(&self) -> u64 {
        self.metrics.counter("mead.crash_exhaustion")
            + self.metrics.counter("mead.graceful_rejuvenations")
    }

    /// Client-visible failures per server-side failure, as a percentage
    /// (the Table 1 "Client Failures" column).
    pub fn client_failure_pct(&self) -> f64 {
        let servers = self.server_failures();
        if servers == 0 {
            return 0.0;
        }
        self.report.client_failures() as f64 * 100.0 / servers as f64
    }

    /// The run's trace as JSON lines; equal traces produce equal bytes.
    pub fn trace_jsonl(&self) -> String {
        obs::jsonl::to_jsonl(&self.trace)
    }

    /// The run's fail-over episodes, reconstructed from the trace.
    pub fn episodes(&self) -> Vec<obs::Episode> {
        obs::episodes(&self.trace)
    }

    /// A 64-bit FNV-1a digest over every deterministic observable of the
    /// outcome: all per-invocation records of every client, all metric
    /// counters and byte-record series, the observability trace, the
    /// simulated timestamps and the event count. Two runs of the same
    /// [`ScenarioConfig`] are *bit-identical* exactly when their digests
    /// match — this is what the determinism regression test compares
    /// across thread counts.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.all_reports.len() as u64);
        for report in &self.all_reports {
            h.u64(report.records.len() as u64);
            for r in &report.records {
                h.u64(r.index as u64);
                h.u64(r.start.as_nanos());
                h.u64(r.end.as_nanos());
                h.u64(r.comm_failures as u64);
                h.u64(r.transients as u64);
                h.u64(r.forwards as u64);
                h.u64(r.resents as u64);
            }
            h.u64(report.completed as u64);
            h.u64(report.comm_failures as u64);
            h.u64(report.transients as u64);
            h.u64(report.naming_lookups as u64);
        }
        for (name, value) in self.metrics.counters() {
            h.bytes(name.as_bytes());
            h.u64(value);
        }
        for tag in self.metrics.byte_tags() {
            h.bytes(tag.as_bytes());
            for rec in self.metrics.byte_records(tag) {
                h.u64(rec.at.as_nanos());
                h.u64(rec.len);
            }
        }
        h.jsonl(&self.trace);
        h.u64(self.finished_at.as_nanos());
        h.u64(self.workload_start.as_nanos());
        h.u64(self.events_processed);
        h.finish()
    }
}

/// Builds and runs one scenario to completion (or the safety deadline).
pub fn run_scenario(cfg: &ScenarioConfig) -> ScenarioOutcome {
    let mut mead_cfg = match cfg.threshold {
        Some(t) => MeadConfig::builder(cfg.scheme).migrate_threshold(t).build(),
        None => MeadConfig::builder(cfg.scheme).build(),
    };
    if cfg.fault_free {
        mead_cfg.leak = None;
    }
    if let Some(tweak) = cfg.tweak {
        tweak(&mut mead_cfg);
    }
    let sim_cfg = SimConfig {
        seed: cfg.seed,
        noise: if cfg.os_noise {
            NoiseModel::default()
        } else {
            NoiseModel::none()
        },
        loss: if cfg.message_loss > 0.0 {
            LossModel {
                probability: cfg.message_loss,
                retransmit_delay: SimDuration::from_millis(20),
            }
        } else {
            LossModel::none()
        },
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(sim_cfg);
    sim.set_trace_level(mead_cfg.trace_level);

    let world = World::build(&mut sim, cfg.replicas, cfg.client_nodes);
    let infra = world.infra();

    // Recovery Manager with the replica factory.
    let factory_cfg = mead_cfg.clone();
    let factory: ReplicaFactory = Rc::new(move |spec| {
        let app = ReplicaApp::time_server(spec.slot, spec.port, infra);
        Box::new(ServerInterceptor::new(
            factory_cfg.clone(),
            spec.slot,
            Box::new(app),
        ))
    });
    sim.spawn(
        infra,
        "recovery-manager",
        Box::new(RecoveryManager::new(
            mead_cfg.clone(),
            cfg.replicas,
            world.servers().to_vec(),
            factory,
        )),
    );

    // Let the infrastructure boot and replicas register (paper experiments
    // likewise start servers before the client).
    sim.run_until(SimTime::from_millis(500));

    // Client workloads, each wrapped in its own client-side interceptor
    // when the scheme deploys one.
    let policy = match cfg.scheme {
        RecoveryScheme::ReactiveCache => ClientPolicy::CachedReferences,
        _ => ClientPolicy::ResolveOnFailure,
    };
    let clients = world.clients();
    let mut reports: Vec<ReportHandle> = Vec::new();
    for c in 0..cfg.clients.max(1) {
        let report: ReportHandle = Rc::new(RefCell::new(WorkloadReport::default()));
        let workload = ClientWorkload::new(
            WorkloadConfig {
                invocations: cfg.invocations,
                think_time: SimDuration::from_millis(1),
                policy,
                slots: cfg.replicas,
                naming_node: infra,
            },
            report.clone(),
        );
        let client_proc: Box<dyn simnet::Process> = if cfg.scheme.has_client_interceptor() {
            Box::new(ClientInterceptor::new(mead_cfg.clone(), Box::new(workload)))
        } else {
            Box::new(workload)
        };
        let node = clients[c as usize % clients.len()];
        sim.spawn(node, &format!("client-{c}"), client_proc);
        reports.push(report);
    }
    let workload_start = sim.now();

    // Run until the workload completes; generous safety deadline (~6 ms
    // per invocation worst case, plus boot).
    if let Some((idx, at)) = cfg.crash_server_node_at {
        let servers = world.servers();
        let node = servers[idx % servers.len()];
        sim.run_until(at);
        sim.crash_node(node);
    }
    let deadline = cfg
        .deadline_override
        .unwrap_or_else(|| SimTime::from_millis(1000 + cfg.invocations as u64 * 6));
    loop {
        let slice_end = SimTime::from_nanos(
            (sim.now() + SimDuration::from_millis(250))
                .as_nanos()
                .min(deadline.as_nanos()),
        );
        let outcome = sim.run_until(slice_end);
        let all_done = reports.iter().all(|r| r.borrow().completed);
        if all_done || sim.now() >= deadline || outcome == RunOutcome::Idle {
            break;
        }
    }

    let metrics = sim.with_metrics(|m| m.clone());
    let trace = sim.take_trace();
    let all_reports: Vec<WorkloadReport> = reports.iter().map(|r| r.borrow().clone()).collect();
    ScenarioOutcome {
        report: all_reports[0].clone(),
        all_reports,
        metrics,
        finished_at: sim.now(),
        workload_start,
        events_processed: sim.events_processed(),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_disables_noise() {
        let cfg = ScenarioConfig::quick(RecoveryScheme::MeadFailover, 100);
        assert!(!cfg.os_noise);
        assert_eq!(cfg.invocations, 100);
        assert_eq!(cfg.replicas, 3);
    }
}
