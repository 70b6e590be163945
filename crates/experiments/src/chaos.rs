//! Deterministic chaos campaign: seeded fault plans against the full
//! MEAD stack, with machine-verified recovery invariants.
//!
//! Each [`run_chaos_plan`] builds the five-node counter topology (a
//! dedup counter servant with exactly-once semantics, commit-before-ack
//! checkpointing, and a hardened client that retries with capped
//! exponential backoff), executes one [`FaultPlan`] — process crashes,
//! GCS-daemon crashes, Naming crashes, link partitions, loss bursts,
//! multi-replica leaks — and then checks the invariants:
//!
//! 1. **No silent hang**: the client either completes all increments or
//!    records a typed give-up before the deadline.
//! 2. **Exactly-once increments**: the acknowledged values are exactly
//!    `1..=N` — no lost, duplicated or reordered increment survives
//!    fail-over — and no replica ever observed an operation-id gap.
//! 3. **Bounded recovery**: once the plan has settled, every replica
//!    slot has a live instance again (at most one migration in flight).
//! 4. **View convergence**: the final server-group membership view
//!    covers every slot.
//!
//! With `rm_instances >= 2` the Recovery Manager is replicated
//! warm-passively and the campaign must pass every plan; with the
//! paper's legacy single instance (`rm_instances = 1`, DESIGN §6.5) a
//! plan that kills the RM and then a replica reproduces the documented
//! stall as an invariant violation.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use faults::{FaultEvent, FaultKind, FaultPlan, PlanSpace, PressureConfig};
use giop::Ior;
use giop::{CdrReader, CdrWriter, Endian};
use groupcomm::{GcsClient, GcsConfig, GcsDaemon, GcsDelivery, GCS_PORT};
use mead::{
    ClientInterceptor, MeadConfig, RecoveryManager, RecoveryScheme, ReplicaApp, ReplicaFactory,
    ServerInterceptor, StateHooks,
};
use orb::{
    decode_counter_reply, decode_resolve_reply, encode_increment_once, encode_name, naming_ior,
    ClientOrb, ClientOrbConfig, Completed, DedupCounterServant, DedupState, NamingConfig,
    NamingService, OrbUpshot, RetryPolicy, RetryState, Servant, SystemException, COUNTER_TYPE_ID,
};
use simnet::{
    Addr, Event, ExitReason, FifoScheduler, LossModel, Metrics, NodeId, NoiseModel, Process,
    Scheduler, SimConfig, SimDuration, SimTime, Simulation, SysApi,
};

use crate::counter::counter_key;
use crate::runner::run_batch_with;

/// Timer tokens of the chaos client (the interceptor namespace starts at
/// `1 << 62`, far above these).
const TOKEN_THINK: u64 = 1;
const TOKEN_RETRY: u64 = 2;
/// Watchdog tokens encode the watched request id: `WATCHDOG_BASE + rid`.
const WATCHDOG_BASE: u64 = 1_000_000;
/// In-flight invocation watchdog: longer than any single honest delay a
/// plan can impose (max partition 500 ms + queueing), shorter than the
/// recovery bound.
const WATCHDOG: SimDuration = SimDuration::from_millis(800);

/// One chaos scenario's parameters.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Increments the client must get acknowledged exactly once.
    pub increments: u32,
    /// Client think time between acknowledged increments.
    pub think_time: SimDuration,
    /// Recovery Manager instances (`1` = the paper's SPOF).
    pub rm_instances: u32,
    /// Replica slots (one server node each; the paper's topology is 3).
    /// Plans must come from a matching [`PlanSpace`]
    /// ([`chaos_plan_space_for`]).
    pub slots: u32,
    /// Recovery scheme deployed at the interceptors.
    pub scheme: RecoveryScheme,
    /// Graceful-degradation budget: the longest the client's goodput may
    /// stay at zero (no acknowledged increment) while it still has work
    /// to do. Plan validation guarantees at least one replica slot stays
    /// nominally live throughout (crash groups never cover every slot,
    /// crashes are [`faults::MIN_CRASH_GAP`]-spaced), so a stall past
    /// this budget means recovery — not the fault itself — was too slow.
    pub goodput_budget: SimDuration,
    /// The client's in-flight invocation watchdog. The default (800 ms)
    /// is longer than any single honest delay a plan can impose; the
    /// schedule-space explorer shortens it towards the round-trip time
    /// so the reply-vs-watchdog race falls inside its reorder window.
    pub watchdog: SimDuration,
    /// Seeded protocol mutation ([`ServantMutation::Intact`] = the
    /// production protocol). Exists so the explorer can prove it catches
    /// and minimizes a real ordering bug.
    pub mutation: ServantMutation,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            increments: 300,
            think_time: SimDuration::from_millis(10),
            rm_instances: 2,
            slots: 3,
            scheme: RecoveryScheme::MeadFailover,
            goodput_budget: SimDuration::from_millis(3_500),
            watchdog: WATCHDOG,
            mutation: ServantMutation::Intact,
        }
    }
}

/// An intentionally seeded protocol mutation, selectable per scenario.
/// Only the explorer's known-bug fixtures set anything but
/// [`Intact`](ServantMutation::Intact): the mutations exist to prove the
/// schedule search catches ordering bugs the FIFO schedule misses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServantMutation {
    /// The production protocol (deduplicating counter servant).
    #[default]
    Intact,
    /// Servant-side operation-id dedup removed: a retried increment
    /// whose first attempt actually committed applies twice. Invisible
    /// under the FIFO schedule (replies beat the watchdog); exposed when
    /// a scheduler fires the watchdog before the in-flight reply.
    DropDedup,
}

/// [`DedupCounterServant`] with the dedup check removed — the
/// [`ServantMutation::DropDedup`] bug. Every well-formed
/// `increment_once` applies unconditionally; checkpoint capture/restore
/// stays byte-compatible via [`DedupState`]'s public snapshot format, so
/// fail-over plumbing is unaffected and only the exactly-once invariant
/// can tell the difference.
struct NoDedupCounterServant {
    state: Rc<DedupState>,
}

impl Servant for NoDedupCounterServant {
    fn invoke(
        &mut self,
        sys: &mut dyn SysApi,
        operation: &str,
        body: &[u8],
    ) -> Result<Vec<u8>, SystemException> {
        let mut reply = CdrWriter::new(Endian::Big);
        match operation {
            "increment_once" => {
                let mut r = CdrReader::new(body.to_vec().into(), Endian::Big);
                let parsed = r
                    .read_u64()
                    .and_then(|op| r.read_u64().map(|delta| (op, delta)));
                let (op_id, delta) = parsed.map_err(|_| SystemException::Other {
                    repo_id: "IDL:omg.org/CORBA/MARSHAL:1.0".into(),
                    completed: Completed::No,
                })?;
                // The bug: no `op_id <= last_op` check, so a retransmit
                // of an already-committed operation applies again.
                let mut snapshot = [0u8; 16];
                let value = self.state.value().wrapping_add(delta);
                let last_op = self.state.last_op().max(op_id);
                snapshot[..8].copy_from_slice(&value.to_be_bytes());
                snapshot[8..].copy_from_slice(&last_op.to_be_bytes());
                self.state.restore(&snapshot);
                sys.count("counter.increments", 1);
                reply.write_u64(self.state.value());
                Ok(reply.finish().to_vec())
            }
            "get" => {
                reply.write_u64(self.state.value());
                Ok(reply.finish().to_vec())
            }
            _ => Err(SystemException::Other {
                repo_id: "IDL:omg.org/CORBA/BAD_OPERATION:1.0".into(),
                completed: Completed::No,
            }),
        }
    }

    fn type_id(&self) -> &str {
        COUNTER_TYPE_ID
    }
}

/// The fault-plan space matching the paper's chaos topology: three
/// replica slots, crashable daemons on the server and client nodes
/// (node 0 hosts the sequencer, which the `f = 1` group stack cannot
/// lose), a crashable Naming Service, and client-side link partitions.
pub fn chaos_plan_space(rm_crashes: u32) -> PlanSpace {
    chaos_plan_space_for(3, rm_crashes)
}

/// [`chaos_plan_space`] generalised over the replica-slot count: the
/// topology is node 0 (infrastructure), nodes `1..=slots` (one replica
/// slot each) and node `slots + 1` (the client).
pub fn chaos_plan_space_for(slots: u32, rm_crashes: u32) -> PlanSpace {
    let client = slots + 1;
    PlanSpace {
        replica_slots: slots,
        daemon_nodes: (1..=client).collect(),
        naming: true,
        rm_crashes,
        partition_pairs: (0..=slots).map(|n| (n, client)).collect(),
        loss: true,
        start: SimTime::from_millis(700),
        end: SimTime::from_millis(4_500),
    }
}

/// Results of one chaos plan run.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// The plan's seed.
    pub seed: u64,
    /// All acknowledged counter values in acknowledgement order.
    pub values: Vec<u64>,
    /// Whether every increment was acknowledged.
    pub completed: bool,
    /// Whether the client exhausted its retry budget (typed give-up).
    pub gave_up: bool,
    /// Total reads acknowledged to flash-crowd clients (0 when the plan
    /// spawned no crowd).
    pub crowd_acked: u64,
    /// Longest observed zero-goodput stretch while the client had work
    /// left (the graceful-degradation measurement).
    pub worst_goodput_gap: SimDuration,
    /// Final server-group membership view seen by the observer.
    pub final_view: Vec<String>,
    /// Live `replica-s<slot>` process labels at the end of the run.
    pub live_replicas: Vec<String>,
    /// Invariant violations (empty = the plan passed).
    pub violations: Vec<String>,
    /// Kernel metrics.
    pub metrics: Metrics,
    /// Simulated end-of-run instant.
    pub finished_at: SimTime,
    /// Kernel events dispatched (deterministic).
    pub events_processed: u64,
    /// The observability trace of the run, in emission order.
    pub trace: Vec<obs::TraceEvent>,
}

impl ChaosOutcome {
    /// FNV-1a digest over every deterministic observable — what the
    /// campaign compares across thread counts.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.seed);
        h.u64(self.values.len() as u64);
        for &v in &self.values {
            h.u64(v);
        }
        h.u64(self.completed as u64);
        h.u64(self.gave_up as u64);
        h.u64(self.crowd_acked);
        h.u64(self.worst_goodput_gap.as_nanos());
        for m in &self.final_view {
            h.bytes(m.as_bytes());
        }
        for l in &self.live_replicas {
            h.bytes(l.as_bytes());
        }
        for v in &self.violations {
            h.bytes(v.as_bytes());
        }
        for (name, value) in self.metrics.counters() {
            h.bytes(name.as_bytes());
            h.u64(value);
        }
        h.u64(self.finished_at.as_nanos());
        h.u64(self.events_processed);
        h.bytes(obs::jsonl::to_jsonl(&self.trace).as_bytes());
        h.finish()
    }
}

/// 64-bit FNV-1a over bytes and little-endian `u64`s: the hash behind
/// every outcome digest in this crate.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// The hardened chaos client: issues `increment_once` operations with
/// client-assigned operation ids, retries until acknowledged with capped
/// exponential backoff (typed give-up on budget exhaustion), and arms a
/// watchdog per in-flight invocation so nothing can hang silently.
struct ChaosClient {
    orb: ClientOrb,
    naming_node: NodeId,
    target: Option<Ior>,
    naming_rid: Option<u32>,
    current_rid: Option<u32>,
    next_op: u64,
    acked: u32,
    total: u32,
    think_time: SimDuration,
    watchdog: SimDuration,
    slot_rr: u32,
    slots: u32,
    policy: RetryPolicy,
    retry: RetryState,
    values: Rc<RefCell<Vec<u64>>>,
    ack_times: Rc<RefCell<Vec<SimTime>>>,
    done: Rc<Cell<bool>>,
    gave_up: Rc<Cell<bool>>,
}

impl ChaosClient {
    fn resolve(&mut self, sys: &mut dyn SysApi) {
        let name = RecoveryManager::slot_binding(mead::Slot(self.slot_rr));
        match self.orb.invoke(
            sys,
            &naming_ior(self.naming_node),
            "resolve",
            &encode_name(&name),
        ) {
            Ok(rid) => {
                self.naming_rid = Some(rid);
                sys.set_timer(self.watchdog, WATCHDOG_BASE + rid as u64);
            }
            Err(_) => self.backoff(sys),
        }
    }

    fn fire(&mut self, sys: &mut dyn SysApi) {
        if self.acked >= self.total {
            self.done.set(true);
            return;
        }
        let Some(target) = self.target.clone() else {
            self.backoff(sys);
            return;
        };
        let body = encode_increment_once(self.next_op, 1);
        match self.orb.invoke(sys, &target, "increment_once", &body) {
            Ok(rid) => {
                self.current_rid = Some(rid);
                sys.set_timer(self.watchdog, WATCHDOG_BASE + rid as u64);
            }
            Err(_) => {
                self.rotate();
                self.backoff(sys);
            }
        }
    }

    fn rotate(&mut self) {
        self.slot_rr = (self.slot_rr + 1) % self.slots.max(1);
        self.target = None;
    }

    /// Schedules the next attempt after a jittered backoff delay, or
    /// records a typed give-up when the budget is spent. Something is
    /// always scheduled — the client can never silently stall.
    fn backoff(&mut self, sys: &mut dyn SysApi) {
        match self.policy.next_delay(&mut self.retry, sys.rng()) {
            Some(delay) => {
                sys.emit(obs::EventKind::Retry {
                    attempt: self.retry.attempts(),
                    delay_ns: delay.as_nanos(),
                });
                sys.set_timer(delay, TOKEN_RETRY);
            }
            None => {
                sys.count("chaos.client_gave_up", 1);
                self.gave_up.set(true);
                self.done.set(true);
            }
        }
    }
}

impl Process for ChaosClient {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.resolve(sys);
    }

    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        if let Event::TimerFired { token, .. } = ev {
            match token {
                TOKEN_THINK => self.fire(sys),
                TOKEN_RETRY => self.resolve(sys),
                t if t >= WATCHDOG_BASE => {
                    let rid = (t - WATCHDOG_BASE) as u32;
                    if Some(rid) == self.current_rid {
                        sys.count("chaos.client_watchdog", 1);
                        self.current_rid = None;
                        self.rotate();
                        self.backoff(sys);
                    } else if Some(rid) == self.naming_rid {
                        sys.count("chaos.client_watchdog", 1);
                        self.naming_rid = None;
                        self.backoff(sys);
                    }
                }
                _ => {}
            }
            return;
        }
        let Some(upshots) = self.orb.handle_event(sys, &ev) else {
            return;
        };
        for upshot in upshots {
            match upshot {
                OrbUpshot::Reply {
                    request_id,
                    payload,
                    ..
                } => {
                    if Some(request_id) == self.naming_rid {
                        self.naming_rid = None;
                        if let Ok(ior) = decode_resolve_reply(&payload) {
                            self.target = Some(ior);
                            self.retry.reset();
                            self.fire(sys);
                        } else {
                            self.rotate();
                            self.backoff(sys);
                        }
                    } else if Some(request_id) == self.current_rid {
                        self.current_rid = None;
                        if let Ok(value) = decode_counter_reply(&payload) {
                            self.values.borrow_mut().push(value);
                        }
                        self.ack_times.borrow_mut().push(sys.now());
                        self.acked += 1;
                        self.next_op += 1;
                        self.retry.reset();
                        if self.acked >= self.total {
                            self.done.set(true);
                        } else {
                            sys.set_timer(self.think_time, TOKEN_THINK);
                        }
                    }
                }
                OrbUpshot::Exception { request_id, .. } => {
                    if Some(request_id) == self.naming_rid {
                        self.naming_rid = None;
                        self.rotate();
                        self.backoff(sys);
                    } else if Some(request_id) == self.current_rid {
                        self.current_rid = None;
                        self.rotate();
                        self.backoff(sys);
                    }
                }
                _ => {}
            }
        }
    }

    fn label(&self) -> &str {
        "chaos-client"
    }
}

/// A flash-crowd arrival: a short-lived read-only client issuing `get`
/// operations (no operation ids — the crowd must not perturb the main
/// client's dedup/op-gap bookkeeping) with the same resolve/retry/
/// watchdog hardening as the main client, then exiting gracefully.
struct CrowdClient {
    orb: ClientOrb,
    naming_node: NodeId,
    target: Option<Ior>,
    naming_rid: Option<u32>,
    current_rid: Option<u32>,
    remaining: u32,
    slot_rr: u32,
    slots: u32,
    policy: RetryPolicy,
    retry: RetryState,
    acked: Rc<Cell<u64>>,
    label: String,
}

impl CrowdClient {
    fn resolve(&mut self, sys: &mut dyn SysApi) {
        let name = RecoveryManager::slot_binding(mead::Slot(self.slot_rr));
        match self.orb.invoke(
            sys,
            &naming_ior(self.naming_node),
            "resolve",
            &encode_name(&name),
        ) {
            Ok(rid) => {
                self.naming_rid = Some(rid);
                sys.set_timer(WATCHDOG, WATCHDOG_BASE + rid as u64);
            }
            Err(_) => self.backoff(sys),
        }
    }

    fn fire(&mut self, sys: &mut dyn SysApi) {
        if self.remaining == 0 {
            sys.exit(ExitReason::Graceful);
            return;
        }
        let Some(target) = self.target.clone() else {
            self.backoff(sys);
            return;
        };
        match self.orb.invoke(sys, &target, "get", &[]) {
            Ok(rid) => {
                self.current_rid = Some(rid);
                sys.set_timer(WATCHDOG, WATCHDOG_BASE + rid as u64);
            }
            Err(_) => {
                self.rotate();
                self.backoff(sys);
            }
        }
    }

    fn rotate(&mut self) {
        self.slot_rr = (self.slot_rr + 1) % self.slots.max(1);
        self.target = None;
    }

    fn backoff(&mut self, sys: &mut dyn SysApi) {
        match self.policy.next_delay(&mut self.retry, sys.rng()) {
            Some(delay) => {
                sys.set_timer(delay, TOKEN_RETRY);
            }
            None => {
                // A crowd member giving up is shed load, not a recovery
                // failure — counted, not an invariant violation.
                sys.count("chaos.crowd_gave_up", 1);
                sys.exit(ExitReason::Graceful);
            }
        }
    }
}

impl Process for CrowdClient {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.resolve(sys);
    }

    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        if let Event::TimerFired { token, .. } = ev {
            match token {
                TOKEN_RETRY => match self.target {
                    Some(_) => self.fire(sys),
                    None => self.resolve(sys),
                },
                t if t >= WATCHDOG_BASE => {
                    let rid = (t - WATCHDOG_BASE) as u32;
                    if Some(rid) == self.current_rid {
                        self.current_rid = None;
                        self.rotate();
                        self.backoff(sys);
                    } else if Some(rid) == self.naming_rid {
                        self.naming_rid = None;
                        self.backoff(sys);
                    }
                }
                _ => {}
            }
            return;
        }
        let Some(upshots) = self.orb.handle_event(sys, &ev) else {
            return;
        };
        for upshot in upshots {
            match upshot {
                OrbUpshot::Reply {
                    request_id,
                    payload,
                    ..
                } => {
                    if Some(request_id) == self.naming_rid {
                        self.naming_rid = None;
                        if let Ok(ior) = decode_resolve_reply(&payload) {
                            self.target = Some(ior);
                            self.retry.reset();
                            self.fire(sys);
                        } else {
                            self.rotate();
                            self.backoff(sys);
                        }
                    } else if Some(request_id) == self.current_rid {
                        self.current_rid = None;
                        if decode_counter_reply(&payload).is_ok() {
                            self.acked.set(self.acked.get() + 1);
                            sys.count("chaos.crowd_acks", 1);
                        }
                        self.remaining = self.remaining.saturating_sub(1);
                        self.retry.reset();
                        self.fire(sys);
                    }
                }
                OrbUpshot::Exception { request_id, .. } => {
                    if Some(request_id) == self.naming_rid {
                        self.naming_rid = None;
                        self.rotate();
                        self.backoff(sys);
                    } else if Some(request_id) == self.current_rid {
                        self.current_rid = None;
                        self.rotate();
                        self.backoff(sys);
                    }
                }
                _ => {}
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}

/// Passive member of the server group recording membership views, so the
/// convergence invariant can be checked from outside the stack.
struct ChaosObserver {
    gcs: Option<GcsClient>,
    group: String,
    view: Rc<RefCell<Vec<String>>>,
}

impl Process for ChaosObserver {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        let mut gcs = GcsClient::new("obs/chaos", 1);
        gcs.start(sys);
        let group = self.group.clone();
        gcs.join(sys, &group);
        self.gcs = Some(gcs);
    }

    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        let Some(deliveries) = self.gcs.as_mut().and_then(|g| g.handle_event(sys, &ev)) else {
            return;
        };
        for d in deliveries {
            if let GcsDelivery::View { group, members, .. } = d {
                if group == self.group {
                    *self.view.borrow_mut() = members;
                }
            }
        }
    }

    fn label(&self) -> &str {
        "chaos-observer"
    }
}

/// A deferred executor action: an injection or the recovery it implies.
enum Action {
    Inject(FaultKind),
    RespawnDaemon(u32),
    RespawnNaming,
    Heal(u32, u32),
    HealOneway(u32, u32),
    ClearJitter(u32, u32),
    /// One unfolded rolling-restart kill (slots after the first).
    CrashSlot(u32),
    /// One flash-crowd arrival.
    SpawnCrowd {
        index: u32,
        reads: u32,
    },
    EndBurst,
}

/// Runs one fault plan against the chaos topology and checks the
/// invariants. Fully deterministic: a pure function of `(plan, cfg)`.
pub fn run_chaos_plan(plan: &FaultPlan, cfg: &ChaosConfig) -> ChaosOutcome {
    run_chaos_plan_with(plan, cfg, Box::new(FifoScheduler))
}

/// [`run_chaos_plan`] under an explicit event-ordering policy: the entry
/// point of the schedule-space explorer (`crates/explore`), which drives
/// the same scenario through recording, replaying and exploring
/// schedulers. Deterministic for any deterministic scheduler: a pure
/// function of `(plan, cfg, scheduler)`.
pub fn run_chaos_plan_with(
    plan: &FaultPlan,
    cfg: &ChaosConfig,
    scheduler: Box<dyn Scheduler>,
) -> ChaosOutcome {
    let mut sim = Simulation::with_scheduler(
        SimConfig {
            seed: plan.seed(),
            noise: NoiseModel::none(),
            ..SimConfig::default()
        },
        scheduler,
    );
    let slots = cfg.slots.max(1);
    let infra = sim.add_node("node0");
    let servers: Vec<NodeId> = (1..=slots)
        .map(|i| sim.add_node(&format!("node{i}")))
        .collect();
    let client_node = sim.add_node(&format!("node{}", slots + 1));
    let nodes: Vec<NodeId> = std::iter::once(infra)
        .chain(servers.iter().copied())
        .chain([client_node])
        .collect();

    let seq = Addr::new(infra, GCS_PORT);
    for &node in &nodes {
        sim.spawn(
            node,
            "gcs-daemon",
            Box::new(GcsDaemon::new(seq, GcsConfig::default())),
        );
    }
    sim.spawn(
        infra,
        "naming",
        Box::new(NamingService::new(NamingConfig::default())),
    );

    let mut mead_cfg = MeadConfig::builder(cfg.scheme).build();
    mead_cfg.checkpoint_interval = SimDuration::from_millis(50);
    mead_cfg.commit_acks = true;
    mead_cfg.rm_instances = cfg.rm_instances;
    if !plan.leak_all() {
        mead_cfg.leak = None;
    }
    // Resource-pressure faults are armed declaratively: the replica
    // factory gives each pressured slot its config, and the interceptor's
    // activation timer (set only on instances started before the
    // activation instant) does the injection.
    let mut pressure_by_slot: BTreeMap<u32, PressureConfig> = BTreeMap::new();
    for FaultEvent { at, kind } in plan.events() {
        match kind {
            FaultKind::CpuExhaustion { slot, ramp_per_sec } => {
                pressure_by_slot.insert(*slot, PressureConfig::cpu(*at, *ramp_per_sec));
            }
            FaultKind::FdLeak { slot, per_request } => {
                pressure_by_slot.insert(*slot, PressureConfig::fd(*at, *per_request));
            }
            _ => {}
        }
    }
    let factory_cfg = mead_cfg.clone();
    let mutation = cfg.mutation;
    let factory: ReplicaFactory = Rc::new(move |spec| {
        let mut factory_cfg = factory_cfg.clone();
        factory_cfg.pressure = pressure_by_slot.get(&spec.slot.0).cloned();
        let state = DedupState::new();
        let servant: Box<dyn Servant> = match mutation {
            ServantMutation::Intact => Box::new(DedupCounterServant::new(state.clone())),
            ServantMutation::DropDedup => Box::new(NoDedupCounterServant {
                state: state.clone(),
            }),
        };
        let app = ReplicaApp::time_server(spec.slot, spec.port, infra)
            .with_servant(counter_key(), COUNTER_TYPE_ID, servant)
            .with_rebind(SimDuration::from_millis(150));
        let capture = state.clone();
        let restore = state;
        Box::new(
            ServerInterceptor::new(factory_cfg.clone(), spec.slot, Box::new(app)).with_state_hooks(
                StateHooks {
                    capture: Box::new(move || capture.snapshot()),
                    restore: Box::new(move |bytes| restore.restore(bytes)),
                },
            ),
        )
    });
    for instance in 0..cfg.rm_instances.max(1) {
        let rm = if cfg.rm_instances <= 1 {
            RecoveryManager::new(mead_cfg.clone(), slots, servers.clone(), factory.clone())
        } else {
            RecoveryManager::replicated(
                mead_cfg.clone(),
                slots,
                servers.clone(),
                factory.clone(),
                instance,
            )
        };
        // Instance 0 on the infrastructure node (the paper's placement);
        // standbys spread over the server nodes.
        let node = if instance == 0 {
            infra
        } else {
            servers[(instance as usize - 1) % servers.len()]
        };
        sim.spawn(node, &format!("recovery-manager-{instance}"), Box::new(rm));
    }

    let view = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        infra,
        "chaos-observer",
        Box::new(ChaosObserver {
            gcs: None,
            group: mead_cfg.server_group.clone(),
            view: view.clone(),
        }),
    );

    // Boot, then start the client just before the fault window opens.
    sim.run_until(SimTime::from_millis(650));
    let client_start = sim.now();
    let values = Rc::new(RefCell::new(Vec::new()));
    let ack_times = Rc::new(RefCell::new(Vec::new()));
    let done = Rc::new(Cell::new(false));
    let gave_up = Rc::new(Cell::new(false));
    let crowd_acked = Rc::new(Cell::new(0u64));
    sim.spawn(
        client_node,
        "chaos-client",
        Box::new(ClientInterceptor::new(
            mead_cfg.clone(),
            Box::new(ChaosClient {
                orb: ClientOrb::new(ClientOrbConfig::default()),
                naming_node: infra,
                target: None,
                naming_rid: None,
                current_rid: None,
                next_op: 1,
                acked: 0,
                total: cfg.increments,
                think_time: cfg.think_time,
                watchdog: cfg.watchdog,
                slot_rr: 0,
                slots,
                policy: RetryPolicy::client_default(),
                retry: RetryState::new(),
                values: values.clone(),
                ack_times: ack_times.clone(),
                done: done.clone(),
                gave_up: gave_up.clone(),
            }),
        )),
    );

    // Unfold the plan into a single sorted timeline of injections and
    // the recoveries they imply, then walk it.
    let mut timeline: Vec<(SimTime, Action)> = Vec::new();
    for FaultEvent { at, kind } in plan.events() {
        match kind {
            FaultKind::CrashGcsDaemon {
                node,
                restart_after,
            } => timeline.push((*at + *restart_after, Action::RespawnDaemon(*node))),
            FaultKind::CrashNaming { restart_after } => {
                timeline.push((*at + *restart_after, Action::RespawnNaming));
            }
            FaultKind::Partition { a, b, heal_after } => {
                timeline.push((*at + *heal_after, Action::Heal(*a, *b)));
            }
            FaultKind::LossBurst { duration, .. } => {
                timeline.push((*at + *duration, Action::EndBurst));
            }
            FaultKind::AsymmetricPartition {
                from,
                to,
                heal_after,
            } => {
                timeline.push((*at + *heal_after, Action::HealOneway(*from, *to)));
            }
            FaultKind::JitteryLink { a, b, duration, .. } => {
                timeline.push((*at + *duration, Action::ClearJitter(*a, *b)));
            }
            FaultKind::RollingRestart { slots, gap } => {
                // The Inject action kills slot 0; later slots unfold here.
                for i in 1..*slots {
                    timeline.push((*at + *gap * i as u64, Action::CrashSlot(i)));
                }
            }
            FaultKind::FlashCrowd {
                clients,
                reads,
                spread,
            } => {
                for i in 0..*clients {
                    let offset = SimDuration::from_nanos(
                        spread.as_nanos().saturating_mul(i as u64) / (*clients).max(1) as u64,
                    );
                    timeline.push((
                        *at + offset,
                        Action::SpawnCrowd {
                            index: i,
                            reads: *reads,
                        },
                    ));
                }
            }
            _ => {}
        }
        timeline.push((*at, Action::Inject(kind.clone())));
    }
    timeline.sort_by_key(|(at, _)| *at);

    for (at, action) in timeline {
        sim.run_until(at);
        if let Action::Inject(kind) = &action {
            // Executor-side trace marker: every injection shows up in the
            // run's observability stream, attributable without metrics.
            let recorder = sim.recorder_handle();
            recorder.borrow_mut().emit(
                sim.now().as_nanos(),
                0,
                0,
                obs::EventKind::FaultInjected { fault: kind.name() },
            );
        }
        apply(&mut sim, &nodes, seq, slots, action, &crowd_acked);
    }
    // Defensive settling: plans guarantee their own heals, but make the
    // post-plan world explicit before judging recovery.
    sim.heal_all();
    sim.set_loss(LossModel::none());

    let deadline = plan.settled_by().max(SimTime::from_millis(4_500)) + SimDuration::from_secs(5);
    while !done.get() && sim.now() < deadline {
        let t = sim.now() + SimDuration::from_millis(250);
        sim.run_until(t);
    }
    let active_end = sim.now();
    // Post-completion settling window: let the Recovery Manager finish
    // restoring the replication degree after the last fault.
    let settle_until = sim.now().max(plan.settled_by()) + SimDuration::from_millis(1_500);
    sim.run_until(settle_until.min(deadline + SimDuration::from_secs(2)));

    // Invariant checks.
    let values: Vec<u64> = values.borrow().clone();
    let metrics = sim.with_metrics(|m| m.clone());
    let final_view = view.borrow().clone();
    let mut live_replicas: Vec<String> = sim
        .live_processes()
        .into_iter()
        .map(|pid| sim.process_label(pid).to_string())
        .filter(|l| l.starts_with("replica-s"))
        .collect();
    live_replicas.sort();

    let mut violations = Vec::new();
    if gave_up.get() {
        violations.push("client exhausted its retry budget (typed give-up)".to_string());
    }
    if !done.get() || (!gave_up.get() && (values.len() as u32) < cfg.increments) {
        violations.push(format!(
            "client incomplete: {}/{} increments acknowledged by deadline",
            values.len(),
            cfg.increments
        ));
    }
    for (i, &v) in values.iter().enumerate() {
        if v != i as u64 + 1 {
            violations.push(format!(
                "increment {} acknowledged value {v} (lost or duplicated state)",
                i + 1
            ));
            break;
        }
    }
    if metrics.counter("counter.op_gap") > 0 {
        violations.push(format!(
            "{} operation-id gap(s) observed at replicas",
            metrics.counter("counter.op_gap")
        ));
    }
    for slot in 0..slots {
        let prefix = format!("replica-s{slot}");
        let n = live_replicas.iter().filter(|l| **l == prefix).count();
        if n == 0 {
            violations.push(format!("slot {slot} has no live replica after settling"));
        } else if n > 2 {
            violations.push(format!(
                "slot {slot} has {n} live replicas (runaway launch)"
            ));
        }
    }
    for slot in 0..slots {
        let prefix = format!("{}{slot}/", mead::REPLICA_PREFIX);
        if !final_view.iter().any(|m| m.starts_with(&prefix)) {
            violations.push(format!("final membership view missing slot {slot}"));
        }
    }
    // Graceful degradation: while the client still had increments to get
    // acknowledged, goodput may dip but never flatline longer than the
    // budget. Plan validation keeps at least one replica slot nominally
    // live at every instant (crash groups spare a survivor, crash-likes
    // are MIN_CRASH_GAP apart), so a longer stall indicts recovery, not
    // the fault load. The typed give-up is judged separately above.
    let mut worst_goodput_gap = SimDuration::ZERO;
    let mut worst_gap_end = client_start;
    {
        let ack_times = ack_times.borrow();
        let mut prev = client_start;
        let active = ack_times
            .iter()
            .copied()
            .chain((!done.get()).then_some(active_end));
        for t in active {
            let gap = t.saturating_since(prev);
            if gap > worst_goodput_gap {
                worst_goodput_gap = gap;
                worst_gap_end = t;
            }
            prev = t;
        }
    }
    if !gave_up.get() && worst_goodput_gap > cfg.goodput_budget {
        violations.push(format!(
            "goodput stalled for {} ms (budget {} ms) ending at t={} ms",
            worst_goodput_gap.as_nanos() / 1_000_000,
            cfg.goodput_budget.as_nanos() / 1_000_000,
            worst_gap_end.as_nanos() / 1_000_000
        ));
    }

    ChaosOutcome {
        seed: plan.seed(),
        values,
        completed: done.get() && !gave_up.get(),
        gave_up: gave_up.get(),
        crowd_acked: crowd_acked.get(),
        worst_goodput_gap,
        final_view,
        live_replicas,
        violations,
        metrics,
        finished_at: sim.now(),
        events_processed: sim.events_processed(),
        trace: sim.with_recorder(|r| r.events().to_vec()),
    }
}

/// Applies one timeline action to the running simulation.
fn apply(
    sim: &mut Simulation,
    nodes: &[NodeId],
    seq: Addr,
    slots: u32,
    action: Action,
    crowd_acked: &Rc<Cell<u64>>,
) {
    match action {
        Action::Inject(FaultKind::CrashReplica { slot }) => {
            let label = format!("replica-s{slot}");
            kill_first_labeled(sim, &label, None);
        }
        Action::Inject(FaultKind::CorrelatedCrash { slots }) => {
            // One correlated failure group: every listed slot dies at the
            // same simulated instant.
            for slot in slots {
                kill_first_labeled(sim, &format!("replica-s{slot}"), None);
            }
        }
        Action::Inject(FaultKind::RollingRestart { .. }) => {
            kill_first_labeled(sim, "replica-s0", None);
        }
        Action::CrashSlot(slot) => {
            kill_first_labeled(sim, &format!("replica-s{slot}"), None);
        }
        Action::Inject(FaultKind::AsymmetricPartition { from, to, .. }) => {
            sim.partition_oneway(nodes[from as usize], nodes[to as usize]);
        }
        Action::HealOneway(from, to) => {
            sim.heal_oneway(nodes[from as usize], nodes[to as usize]);
        }
        Action::Inject(FaultKind::JitteryLink { a, b, bound, .. }) => {
            sim.set_link_jitter(nodes[a as usize], nodes[b as usize], bound);
        }
        Action::ClearJitter(a, b) => {
            sim.set_link_jitter(nodes[a as usize], nodes[b as usize], SimDuration::ZERO);
        }
        Action::Inject(FaultKind::FlashCrowd { .. }) => {
            // Arrivals are unfolded into `SpawnCrowd` entries; the inject
            // instant itself only carries the trace marker.
        }
        Action::Inject(FaultKind::CpuExhaustion { .. } | FaultKind::FdLeak { .. }) => {
            // Armed declaratively through the replica factory's pressure
            // config; the interceptor's activation timer fires at this
            // same instant.
        }
        Action::SpawnCrowd { index, reads } => {
            let client_node = *nodes.last().expect("topology has a client node");
            let infra = nodes[0];
            sim.spawn(
                client_node,
                &format!("crowd-client-{index}"),
                Box::new(CrowdClient {
                    orb: ClientOrb::new(ClientOrbConfig::default()),
                    naming_node: infra,
                    target: None,
                    naming_rid: None,
                    current_rid: None,
                    remaining: reads,
                    slot_rr: index % slots.max(1),
                    slots,
                    policy: RetryPolicy::client_default(),
                    retry: RetryState::new(),
                    acked: crowd_acked.clone(),
                    label: format!("crowd-client-{index}"),
                }),
            );
        }
        Action::Inject(FaultKind::CrashRecoveryManager) => {
            kill_first_labeled(sim, "recovery-manager", None);
        }
        Action::Inject(FaultKind::CrashGcsDaemon { node, .. }) => {
            // A daemon crash is a node-level membership event: the
            // sequencer evicts every member on the node, so replicas
            // there are stranded from the group and must die with the
            // daemon (their slots get relaunched by the RM). The RM
            // standbys survive: their client re-attaches after respawn.
            let node_id = nodes[node as usize];
            kill_first_labeled(sim, "gcs-daemon", Some(node_id));
            while kill_first_labeled(sim, "replica-s", Some(node_id)) {}
        }
        Action::Inject(FaultKind::CrashNaming { .. }) => {
            kill_first_labeled(sim, "naming", None);
        }
        Action::Inject(FaultKind::Partition { a, b, .. }) => {
            sim.partition(nodes[a as usize], nodes[b as usize]);
        }
        Action::Inject(FaultKind::LossBurst { probability, .. }) => {
            sim.set_loss(LossModel {
                probability,
                retransmit_delay: SimDuration::from_millis(20),
            });
        }
        Action::RespawnDaemon(node) => {
            sim.spawn(
                nodes[node as usize],
                "gcs-daemon",
                Box::new(GcsDaemon::new(seq, GcsConfig::default())),
            );
        }
        Action::RespawnNaming => {
            // The naming store is in-memory: the restarted instance
            // comes back empty and relies on replica re-binds.
            sim.spawn(
                nodes[0],
                "naming",
                Box::new(NamingService::new(NamingConfig::default())),
            );
        }
        Action::Heal(a, b) => sim.heal(nodes[a as usize], nodes[b as usize]),
        Action::EndBurst => sim.set_loss(LossModel::none()),
    }
}

/// Kills the lowest-numbered live process whose label starts with
/// `prefix` (optionally restricted to `node`). Returns whether a victim
/// was found.
fn kill_first_labeled(sim: &mut Simulation, prefix: &str, node: Option<NodeId>) -> bool {
    let victim = sim.live_processes().into_iter().find(|&pid| {
        sim.process_label(pid).starts_with(prefix)
            && node.is_none_or(|n| sim.process_node(pid) == Some(n))
    });
    match victim {
        Some(pid) => {
            sim.kill_process(pid, "chaos");
            true
        }
        None => false,
    }
}

/// Campaign parameters: a contiguous block of seeded plans.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// First plan seed.
    pub base_seed: u64,
    /// Number of plans.
    pub plans: u32,
    /// Per-plan scenario parameters.
    pub chaos: ChaosConfig,
    /// Recovery-Manager crashes allowed per plan.
    pub rm_crashes: u32,
    /// Worker threads for the batch.
    pub threads: usize,
}

/// Aggregated campaign results.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// Per-plan outcomes, in seed order.
    pub outcomes: Vec<ChaosOutcome>,
    /// Seeds whose plan crashed the Recovery Manager.
    pub rm_crash_seeds: Vec<u64>,
}

impl CampaignOutcome {
    /// Plans with at least one invariant violation.
    pub fn violated(&self) -> Vec<&ChaosOutcome> {
        self.outcomes
            .iter()
            .filter(|o| !o.violations.is_empty())
            .collect()
    }

    /// FNV-1a fold of the per-plan digests — identical across thread
    /// counts when the campaign is deterministic.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for o in &self.outcomes {
            h.u64(o.digest());
        }
        h.finish()
    }
}

/// Sweeps `cfg.plans` seeded fault plans through the simulator on
/// `cfg.threads` workers. Deterministic: outcomes (and the campaign
/// digest) depend only on `cfg`, never on the thread count.
pub fn run_chaos_campaign(cfg: &CampaignConfig) -> CampaignOutcome {
    let space = chaos_plan_space(cfg.rm_crashes);
    let plans: Vec<FaultPlan> = (0..cfg.plans)
        .map(|i| FaultPlan::generate(cfg.base_seed + i as u64, &space))
        .collect();
    let rm_crash_seeds = plans
        .iter()
        .filter(|p| {
            p.events()
                .iter()
                .any(|e| e.kind == FaultKind::CrashRecoveryManager)
        })
        .map(|p| p.seed())
        .collect();
    let chaos = cfg.chaos.clone();
    let outcomes = run_batch_with(&plans, cfg.threads, move |plan| {
        run_chaos_plan(plan, &chaos)
    });
    CampaignOutcome {
        outcomes,
        rm_crash_seeds,
    }
}

/// Human-readable campaign summary.
pub fn format_campaign(label: &str, campaign: &CampaignOutcome) -> String {
    let mut out = String::new();
    let violated = campaign.violated();
    out.push_str(&format!(
        "{label}: {} plans, {} with violations, {} crashed the RM\n",
        campaign.outcomes.len(),
        violated.len(),
        campaign.rm_crash_seeds.len(),
    ));
    for o in violated.iter().take(10) {
        out.push_str(&format!("  seed {}:\n", o.seed));
        for v in &o.violations {
            out.push_str(&format!("    - {v}\n"));
        }
    }
    if violated.len() > 10 {
        out.push_str(&format!("  ... and {} more\n", violated.len() - 10));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::FaultPlanBuilder;

    #[test]
    fn fault_free_plan_completes_cleanly() {
        let plan = FaultPlanBuilder::new(1)
            .event(FaultEvent {
                at: SimTime::from_millis(900),
                kind: FaultKind::LossBurst {
                    probability: 0.2,
                    duration: SimDuration::from_millis(100),
                },
            })
            .build(&chaos_plan_space(0))
            .expect("valid plan");
        let cfg = ChaosConfig {
            increments: 60,
            ..ChaosConfig::default()
        };
        let out = run_chaos_plan(&plan, &cfg);
        assert!(
            out.violations.is_empty(),
            "violations: {:?}",
            out.violations
        );
        assert_eq!(out.values, (1..=60).collect::<Vec<u64>>());
    }

    #[test]
    fn chaos_plan_is_deterministic() {
        let space = chaos_plan_space(1);
        let plan = FaultPlan::generate(7, &space);
        let cfg = ChaosConfig {
            increments: 40,
            ..ChaosConfig::default()
        };
        let a = run_chaos_plan(&plan, &cfg);
        let b = run_chaos_plan(&plan, &cfg);
        assert_eq!(a.digest(), b.digest());
    }
}
