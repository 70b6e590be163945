//! Per-layer attribution: the work counts each layer reports through the
//! kernel's metrics and the trace, and a replay of each workload's frame
//! mix through the public codec API.

use std::collections::BTreeMap;
use std::hint::black_box;

use faults::FaultPlan;
use giop::{Endian, Message, ReplyBody, ReplyMessage, RequestMessage};
use groupcomm::{GcsWire, MESH_TAG};
use mead::{FailoverNotice, GroupMsg, WireCodec};
use obs::{EventKind, TraceEvent};

use crate::measure::SpanLog;
use crate::report::MetricSet;

/// Kernel actions a kernel-level trace names, in dispatch-table order.
pub const DISPATCH_ACTIONS: [&str; 8] = [
    "start_process",
    "connect_attempt",
    "connect_result",
    "deliver_data",
    "deliver_eof",
    "timer_fire",
    "notify",
    "notify_batch",
];

/// Node roles of both topologies: node 0 hosts Naming, the Recovery
/// Manager and the sequencer; the next `servers` nodes host replicas; the
/// rest host clients.
pub const ROLES: [&str; 3] = ["infra", "server", "client"];

/// Fault kinds a plan can schedule (`FaultKind::name`).
pub const FAULT_KINDS: [&str; 13] = [
    "crash_replica",
    "crash_rm",
    "crash_daemon",
    "crash_naming",
    "partition",
    "loss_burst",
    "correlated_crash",
    "flash_crowd",
    "rolling_restart",
    "asymmetric_partition",
    "jittery_link",
    "cpu_exhaustion",
    "fd_leak",
];

/// Codec protocols whose frame mix is replayed.
pub const PROTOCOLS: [&str; 4] = ["giop", "gcs", "mead", "mead-group"];

/// Layer counters taken verbatim from the kernel's metrics:
/// `(metric name, program counter)`.
const COUNTERS: [(&str, &str); 19] = [
    ("orb.server.requests", "orb.server.requests"),
    ("orb.connections_opened", "orb.connections_opened"),
    ("orb.forwarded", "orb.forwarded"),
    ("orb.needs_addressing_resend", "orb.needs_addressing_resend"),
    ("orb.exception.comm_failure", "orb.exception.comm_failure"),
    ("orb.exception.transient", "orb.exception.transient"),
    ("naming.resolve", "naming.resolve"),
    ("gcs.client_reconnects", "gcs.client_reconnects"),
    ("gcs.crash_leave", "gcs.crash_leave"),
    ("mead.migrations", "mead.migrations"),
    ("mead.piggybacks_sent", "mead.piggybacks_sent"),
    ("mead.forwards_sent", "mead.forwards_sent"),
    ("mead.checkpoints_sent", "mead.checkpoints_sent"),
    ("mead.checkpoint_bytes", "mead.checkpoint_bytes"),
    ("rm.launches", "rm.launches"),
    ("rm.leader_elections", "rm.leader_elections"),
    ("faults.leaks_activated", "mead.leak_activated"),
    ("faults.crash_exhaustion", "mead.crash_exhaustion"),
    ("faults.rejuvenations", "mead.graceful_rejuvenations"),
];

fn counter_unit(metric: &str) -> &'static str {
    if metric.ends_with("_bytes") {
        "bytes"
    } else {
        "count"
    }
}

/// The per-layer metrics a traced run prints, with their units. Every
/// one is a count, a ratio, or a time every workload spends; times only
/// one workload spends are in the traced run's full table instead.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("simnet.events".into(), "count"),
        ("simnet.events_per_invocation".into(), "ratio"),
        ("simnet.host_ns_per_event".into(), "ns"),
    ];
    out.extend(
        DISPATCH_ACTIONS
            .iter()
            .map(|a| (format!("simnet.dispatch.{a}"), "count")),
    );
    out.extend(
        ROLES
            .iter()
            .map(|r| (format!("simnet.dispatch_node.{r}"), "count")),
    );
    out.push(("simnet.notify_share".into(), "ratio"));
    out.push(("experiments.digest_ms".into(), "ms"));
    for (name, unit) in [
        ("obs.trace_events", "count"),
        ("obs.jsonl_bytes", "bytes"),
        ("obs.jsonl_ms", "ms"),
        ("obs.episodes_ms", "ms"),
        ("obs.tracing_overhead", "ratio"),
    ] {
        out.push((name.into(), unit));
    }
    for p in PROTOCOLS {
        out.push((format!("codec.{p}.frames"), "count"));
        out.push((format!("codec.{p}.bytes"), "bytes"));
        out.push((format!("codec.{p}.replay_ms"), "ms"));
    }
    out.extend(
        COUNTERS
            .iter()
            .map(|(name, _)| ((*name).into(), counter_unit(name))),
    );
    for (name, unit) in [
        ("orb.useful_ratio", "ratio"),
        ("gcs.bytes", "bytes"),
        ("mead.redirect_ratio", "ratio"),
    ] {
        out.push((name.into(), unit));
    }
    out.extend(
        FAULT_KINDS
            .iter()
            .map(|k| (format!("faults.plan_events.{k}"), "count")),
    );
    for name in [
        "lint.files",
        "lint.lines",
        "lint.findings",
        "lint.suppressed",
        "explore.runs",
        "explore.distinct_outcomes",
        "explore.catch_runs",
        "explore.minimize_runs",
        "explore.witness_decisions",
    ] {
        out.push((name.into(), "count"));
    }
    out
}

/// Layer work counts summed over the outcomes of one traced pass.
#[derive(Clone, Debug, Default)]
pub struct Collector {
    counters: BTreeMap<&'static str, u64>,
    mesh_writes: u64,
    mesh_bytes: u64,
    trace_events: u64,
    dispatch: BTreeMap<&'static str, u64>,
    dispatch_node: [u64; 3],
    plan_events: BTreeMap<&'static str, u64>,
}

impl Collector {
    /// Adds one run's kernel metrics.
    pub fn add_metrics(&mut self, metrics: &simnet::Metrics) {
        for (name, value) in metrics.counters() {
            *self.counters.entry(name).or_default() += value;
        }
        self.mesh_writes += metrics.byte_records(MESH_TAG).len() as u64;
        self.mesh_bytes += metrics.total_bytes(MESH_TAG);
    }

    /// Adds one run's trace; `servers` is its replica node count.
    pub fn add_trace(&mut self, trace: &[TraceEvent], servers: u32) {
        self.trace_events += trace.len() as u64;
        for ev in trace {
            if let EventKind::Dispatch { action } = ev.kind {
                *self.dispatch.entry(action).or_default() += 1;
                let role = match ev.node {
                    0 => 0,
                    n if n <= servers => 1,
                    _ => 2,
                };
                self.dispatch_node[role] += 1;
            }
        }
    }

    /// Adds the scheduled events of one fault plan.
    pub fn add_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            *self.plan_events.entry(ev.kind.name()).or_default() += 1;
        }
    }

    /// A summed program counter.
    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Writes every collected layer metric into `layers` and replays the
    /// frame mix through the codecs (one span per protocol).
    pub fn finish(&self, events: u64, completed: u64, layers: &mut MetricSet, log: &mut SpanLog) {
        layers.set("simnet.events", events as f64, "count");
        layers.set(
            "simnet.events_per_invocation",
            ratio(events, completed),
            "ratio",
        );
        let dispatched: u64 = self.dispatch.values().sum();
        for action in DISPATCH_ACTIONS {
            let n = self.dispatch.get(action).copied().unwrap_or(0);
            layers.set(format!("simnet.dispatch.{action}"), n as f64, "count");
        }
        for (role, n) in ROLES.iter().zip(self.dispatch_node) {
            layers.set(format!("simnet.dispatch_node.{role}"), n as f64, "count");
        }
        let notify = self.dispatch.get("notify").copied().unwrap_or(0)
            + self.dispatch.get("notify_batch").copied().unwrap_or(0);
        layers.set("simnet.notify_share", ratio(notify, dispatched), "ratio");
        layers.set("obs.trace_events", self.trace_events as f64, "count");

        for (metric, counter) in COUNTERS {
            layers.set(metric, self.counter(counter) as f64, counter_unit(metric));
        }
        layers.set("gcs.bytes", self.mesh_bytes as f64, "bytes");
        layers.set(
            "orb.useful_ratio",
            ratio(completed, self.counter("orb.server.requests")),
            "ratio",
        );
        layers.set(
            "mead.redirect_ratio",
            ratio(
                self.counter("mead.client.redirects_completed"),
                self.counter("mead.client.redirects_started"),
            ),
            "ratio",
        );
        for kind in FAULT_KINDS {
            let n = self.plan_events.get(kind).copied().unwrap_or(0);
            layers.set(format!("faults.plan_events.{kind}"), n as f64, "count");
        }
        self.replay_codecs(layers, log);
    }

    /// Encodes and decodes each protocol's frame mix: two GIOP frames
    /// (request and reply) per server request, one GCS frame per mesh
    /// write at the mean write size, one fail-over notice per piggyback,
    /// and one group message per checkpoint, launch request, sync list
    /// and address reply.
    fn replay_codecs(&self, layers: &mut MetricSet, log: &mut SpanLog) {
        let giop_frames = 2 * self.counter("orb.server.requests");
        let giop_bytes = log.scope("codec.giop.replay", "pass", |_| replay_giop(giop_frames));
        record(layers, log, "giop", giop_frames, giop_bytes);

        let mean_write = usize::try_from(self.mesh_bytes / self.mesh_writes.max(1)).unwrap_or(0);
        let empty = GcsWire::OrdDeliver {
            seq: 0,
            group: "mead/servers".into(),
            sender: "replica-s0@node1".into(),
            payload: Vec::new(),
        };
        let gcs = GcsWire::OrdDeliver {
            seq: 0,
            group: "mead/servers".into(),
            sender: "replica-s0@node1".into(),
            payload: vec![0; mean_write.saturating_sub(empty.encode_wire().len())],
        };
        let gcs_bytes = log.scope("codec.gcs.replay", "pass", |_| {
            replay(&gcs, self.mesh_writes)
        });
        record(layers, log, "gcs", self.mesh_writes, gcs_bytes);

        let notices = self.counter("mead.piggybacks_sent");
        let notice = FailoverNotice::new("node2", 20_001, "replica-s0@node1");
        let mead_bytes = log.scope("codec.mead.replay", "pass", |_| replay(&notice, notices));
        record(layers, log, "mead", notices, mead_bytes);

        let checkpoints = self.counter("mead.checkpoints_sent");
        let state = usize::try_from(self.counter("mead.checkpoint_bytes") / checkpoints.max(1))
            .unwrap_or(0);
        let member = || "replica-s0@node1".to_string();
        let mix: [(GroupMsg, u64); 4] = [
            (
                GroupMsg::Checkpoint {
                    member: member(),
                    state: vec![0; state],
                },
                checkpoints,
            ),
            (
                GroupMsg::LaunchRequest { member: member() },
                self.counter("mead.launch_requests"),
            ),
            (
                GroupMsg::SyncList {
                    entries: (1..=3)
                        .map(|n| (format!("replica-s{n}"), format!("node{n}"), 20_000))
                        .collect(),
                },
                self.counter("mead.synclists_sent"),
            ),
            (
                GroupMsg::AddressReply {
                    member: member(),
                    host: "node1".into(),
                    port: 20_000,
                },
                self.counter("mead.address_replies"),
            ),
        ];
        let frames: u64 = mix.iter().map(|(_, n)| n).sum();
        let bytes = log.scope("codec.mead-group.replay", "pass", |_| {
            mix.iter().map(|(msg, n)| replay(msg, *n)).sum()
        });
        record(layers, log, "mead-group", frames, bytes);
    }
}

fn record(layers: &mut MetricSet, log: &SpanLog, protocol: &str, frames: u64, bytes: u64) {
    layers.set(format!("codec.{protocol}.frames"), frames as f64, "count");
    layers.set(format!("codec.{protocol}.bytes"), bytes as f64, "bytes");
    let replay_ms = log.total_ms(&format!("codec.{protocol}.replay"));
    layers.set(format!("codec.{protocol}.replay_ms"), replay_ms, "ms");
}

/// Encodes and decodes `msg` `frames` times; returns the bytes encoded.
fn replay<M: WireCodec>(msg: &M, frames: u64) -> u64 {
    let mut bytes = 0u64;
    for _ in 0..frames {
        let wire = black_box(msg).encode_wire();
        bytes += wire.len() as u64;
        black_box(M::decode_wire(black_box(&wire)).is_ok());
    }
    bytes
}

/// Alternating time-of-day requests and replies, as the ORB sends them.
fn replay_giop(frames: u64) -> u64 {
    let key = mead::time_object_key();
    let mut bytes = 0u64;
    for i in 0..frames {
        let id = u32::try_from(i / 2).unwrap_or(u32::MAX);
        let msg = if i % 2 == 0 {
            Message::Request(RequestMessage {
                request_id: id,
                response_expected: true,
                object_key: key.clone(),
                operation: "time_of_day".into(),
                body: Vec::new(),
            })
        } else {
            Message::Reply(ReplyMessage {
                request_id: id,
                body: ReplyBody::NoException(vec![0; 8]),
            })
        };
        let wire = black_box(msg).encode(Endian::Big);
        bytes += wire.len() as u64;
        black_box(Message::decode(black_box(&wire)).is_ok());
    }
    bytes
}

/// `num / den`, 0.0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
