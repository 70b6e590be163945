//! The four workloads. Each is set up from the seed, then runs whole
//! passes back to back on one thread: the measured loop calls
//! [`Workload::pass`], the traced run calls [`Workload::traced_pass`] once.

use std::collections::BTreeMap;
use std::sync::Arc;

use experiments::{
    expand_sweep, group_configs, paper_workload, parse_sweep, run_chaos_plan, run_chaos_plan_with,
    run_fleet, run_scenario, ChaosOutcome, FleetConfig, ScenarioConfig, ScenarioOutcome,
    SweepOutcome, SweepUnit,
};
use explore::fixtures::{self, Fixture};
use explore::{explore, minimize, run_prefix, ConflictRelation, ExploreConfig};
use lint::{AllowList, CallGraph, Contract, FileAst};
use mead::{MeadConfig, RecoveryScheme};
use simnet::ReplayScheduler;

use crate::corpus::Corpus;
use crate::layers::Collector;
use crate::measure::{timed, Clock, SpanLog};
use crate::pins::{self, Fnv, Gate, Pins};
use crate::report::MetricSet;
use crate::WORKER_THREADS;

/// Which traffic a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Table 1 plus the Fig. 5 sweep: 13 cells of 10⁴ invocations.
    Paper,
    /// 4 groups × 4000 clients × 5 invocations under MEAD fail-over.
    Fleet,
    /// The frozen 508-plan chaos sweep.
    Sweep,
    /// detlint over the frozen corpus, then schedule exploration.
    Analysis,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [Kind::Paper, Kind::Fleet, Kind::Sweep, Kind::Analysis];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper => "paper",
            Kind::Fleet => "fleet",
            Kind::Sweep => "sweep",
            Kind::Analysis => "analysis",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Wall seconds of one full-size pass on a 2-vCPU x86-64 VM, median
    /// of one 20 s run. It turns `--seconds` into a pass count.
    pub fn nominal_pass_s(self) -> f64 {
        match self {
            Kind::Paper => 0.8,
            Kind::Fleet => 2.6,
            Kind::Sweep => 3.2,
            Kind::Analysis => 0.6,
        }
    }

    /// Passes a run of `seconds` makes: at least one. The count depends
    /// only on the arguments, so `attempted` and `failed` do too.
    pub fn passes(self, seconds: f64) -> usize {
        ((seconds / self.nominal_pass_s()).round() as usize).max(1)
    }
}

/// Input size: the benchmark's own, or a tiny one for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` names; pins are checked at these.
    Full,
    /// A small shape of each workload for smoke tests (no pins).
    Tiny,
}

/// What one pass did. Its timing is in the [`Clock`] it ran on.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Operations attempted (invocations, increments, or schedules).
    pub attempted: u64,
    /// Simulated invocations (or increments) completed.
    pub completed: u64,
    /// Operations that failed as a client sees it.
    pub client_failed: u64,
    /// Failed checks and failed operations.
    pub gate: Gate,
    /// Deterministic results: must repeat exactly on every pass.
    pub counts: BTreeMap<&'static str, u64>,
}

/// A set-up workload. Every call a pass makes into the program goes
/// through the clock: [`Clock::call`] for a top-level call that produces
/// one checked outcome, [`Clock::work`] for other pass work.
pub trait Workload {
    /// One untraced pass.
    fn pass(&self, clock: &mut Clock) -> Pass;

    /// One pass with a trace and spans around every layer call. It makes
    /// the same clock calls as an untraced pass, and writes per-layer
    /// metrics (single-workload times included) to `layers`.
    fn traced_pass(&self, clock: &mut Clock, log: &mut SpanLog, layers: &mut MetricSet) -> Pass;
}

/// Builds the workload's inputs from `seed` and warms its code path.
/// Pinned values are checked at [`Size::Full`] and, for the seeded
/// workloads, at their committed seed.
pub fn setup(kind: Kind, size: Size, seed: u64, pins: &Pins) -> Result<Box<dyn Workload>, String> {
    let full = size == Size::Full;
    Ok(match kind {
        Kind::Paper => Box::new(Paper::setup(
            size,
            seed,
            (full && seed == pins::PAPER_SEED).then_some(pins.paper),
        )),
        Kind::Fleet => Box::new(Fleet::setup(
            size,
            seed,
            (full && seed == pins::FLEET_SEED).then_some(pins.fleet),
        )),
        Kind::Sweep => Box::new(Sweep::setup(
            size,
            seed,
            (full && seed == pins::SWEEP_SEED).then_some(pins.sweep),
        )?),
        Kind::Analysis => Box::new(Analysis::setup(pins.clone())?),
    })
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

fn kernel_trace(cfg: &mut MeadConfig) {
    cfg.trace_level = obs::TraceLevel::Kernel;
}

/// Adds one scenario's client accounting to `pass`: every client must
/// complete every invocation.
fn account_scenario(pass: &mut Pass, label: &str, cfg: &ScenarioConfig, out: &ScenarioOutcome) {
    let expected = u64::from(cfg.invocations) * u64::from(cfg.clients.max(1));
    let done: u64 = out.all_reports.iter().map(|r| r.records.len() as u64).sum();
    let failures: u64 = out
        .all_reports
        .iter()
        .map(|r| u64::from(r.client_failures()))
        .sum();
    let all_done = out.all_reports.iter().all(|r| r.completed);
    pass.attempted += expected;
    pass.completed += done;
    pass.client_failed += failures;
    pass.gate.operation(
        done == expected && all_done,
        expected.saturating_sub(done),
        || format!("{label}: {done} of {expected} invocations completed"),
    );
    *pass.counts.entry("events").or_default() += out.events_processed;
}

/// What every traced scenario-based pass collects from one outcome.
#[derive(Default)]
struct Traced {
    collector: Collector,
    events: u64,
    jsonl_bytes: u64,
}

impl Traced {
    /// Serialises and replays the trace of `out` under spans, and adds
    /// its work counts.
    fn add_scenario(&mut self, log: &mut SpanLog, id: &str, out: &ScenarioOutcome, servers: u32) {
        let jsonl = log.scope("obs.trace_jsonl", id, |_| out.trace_jsonl());
        self.jsonl_bytes += jsonl.len() as u64;
        log.scope("obs.episodes", id, |_| out.episodes().len());
        self.events += out.events_processed;
        self.collector.add_metrics(&out.metrics);
        self.collector.add_trace(&out.trace, servers);
    }

    /// The same for one chaos plan.
    fn add_chaos(&mut self, log: &mut SpanLog, id: &str, out: &ChaosOutcome, slots: u32) {
        let jsonl = log.scope("obs.trace_jsonl", id, |_| obs::jsonl::to_jsonl(&out.trace));
        self.jsonl_bytes += jsonl.len() as u64;
        log.scope("obs.episodes", id, |_| obs::episodes(&out.trace).len());
        self.events += out.events_processed;
        self.collector.add_metrics(&out.metrics);
        self.collector.add_trace(&out.trace, slots);
    }

    /// Writes the collected layer metrics and the times every traced
    /// pass reports from its spans.
    fn finish(&self, completed: u64, layers: &mut MetricSet, log: &mut SpanLog) {
        self.collector.finish(self.events, completed, layers, log);
        layers.set(
            "experiments.digest_ms",
            log.total_ms("experiments.digest"),
            "ms",
        );
        layers.set("obs.jsonl_bytes", self.jsonl_bytes as f64, "bytes");
        layers.set("obs.jsonl_ms", log.total_ms("obs.trace_jsonl"), "ms");
        layers.set("obs.episodes_ms", log.total_ms("obs.episodes"), "ms");
    }
}

// ---------------------------------------------------------------- paper

struct Paper {
    cells: Vec<(String, ScenarioConfig)>,
    pins: Option<[(&'static str, u64); 13]>,
}

impl Paper {
    fn setup(size: Size, seed: u64, pins: Option<[(&'static str, u64); 13]>) -> Paper {
        let invocations = match size {
            Size::Full => 10_000,
            Size::Tiny => 200,
        };
        let cells: Vec<(String, ScenarioConfig)> = paper_workload(invocations)
            .into_iter()
            .map(|(label, cfg)| (label, ScenarioConfig { seed, ..cfg }))
            .collect();
        // The warm-up runs at the committed seed, so set-up work does
        // not depend on the seed. It is sized so simulation, not
        // allocation, dominates set-up time: that keeps `setup_s` as
        // steady as the passes.
        let warm = ScenarioConfig {
            invocations: invocations * 3 / 10,
            seed: pins::PAPER_SEED,
            ..cells[cells.len() - 1].1.clone()
        };
        std::hint::black_box(run_scenario(&warm).digest());
        Paper { cells, pins }
    }

    fn check_pin(&self, pass: &mut Pass, index: usize, digest: u64) {
        let Some(pins) = &self.pins else {
            return;
        };
        let (label, cfg) = &self.cells[index];
        let (pin_label, pin) = pins[index];
        pass.gate.check(
            label == pin_label && digest == pin,
            u64::from(cfg.invocations),
            || format!("{label}: digest {digest:016x}, pinned {pin_label} {pin:016x}"),
        );
    }
}

impl Workload for Paper {
    fn pass(&self, clock: &mut Clock) -> Pass {
        let mut pass = Pass::default();
        let mut fold = Fnv::default();
        for (i, (label, cfg)) in self.cells.iter().enumerate() {
            let (out, digest) = clock.call(|| {
                let out = run_scenario(cfg);
                let digest = out.digest();
                (out, digest)
            });
            account_scenario(&mut pass, label, cfg, &out);
            self.check_pin(&mut pass, i, digest);
            fold.u64(digest);
        }
        pass.counts.insert("digest", fold.finish());
        pass.counts.insert("completed", pass.completed);
        pass.counts.insert("client_failed", pass.client_failed);
        pass
    }

    fn traced_pass(&self, clock: &mut Clock, log: &mut SpanLog, layers: &mut MetricSet) -> Pass {
        let mut pass = Pass::default();
        let mut traced = Traced::default();
        log.scope("workload.paper", "pass", |log| {
            for (label, cfg) in &self.cells {
                let kernel = ScenarioConfig {
                    tweak: Some(kernel_trace),
                    ..cfg.clone()
                };
                let id = label.as_str();
                log.scope("experiments.cell", id, |log| {
                    let (out, t) = timed(|| {
                        clock.call(|| {
                            let out = log
                                .scope("experiments.run_scenario", id, |_| run_scenario(&kernel));
                            log.scope("experiments.digest", id, |_| out.digest());
                            out
                        })
                    });
                    layers.set(format!("experiments.cell_ms.{label}"), ms(t), "ms");
                    account_scenario(&mut pass, label, cfg, &out);
                    traced.add_scenario(log, id, &out, cfg.replicas);
                });
            }
            traced.finish(pass.completed, layers, log);
        });
        pass.counts.insert("completed", pass.completed);
        pass
    }
}

// ---------------------------------------------------------------- fleet

struct Fleet {
    cfg: FleetConfig,
    pin: Option<u64>,
}

impl Fleet {
    fn setup(size: Size, seed: u64, pin: Option<u64>) -> Fleet {
        let base = FleetConfig::new(RecoveryScheme::MeadFailover, 4000);
        let cfg = match size {
            Size::Full => FleetConfig { seed, ..base },
            Size::Tiny => FleetConfig {
                seed,
                groups: 2,
                clients: 32,
                invocations: 3,
                ..base
            },
        };
        let warm = FleetConfig {
            seed: pins::FLEET_SEED,
            groups: 1,
            clients: cfg.clients.min(512),
            ..cfg.clone()
        };
        std::hint::black_box(run_fleet(&warm, WORKER_THREADS).digest());
        Fleet { cfg, pin }
    }

    fn expected(&self) -> u64 {
        u64::from(self.cfg.groups) * u64::from(self.cfg.clients) * u64::from(self.cfg.invocations)
    }
}

impl Workload for Fleet {
    fn pass(&self, clock: &mut Clock) -> Pass {
        let out = clock.call(|| run_fleet(&self.cfg, WORKER_THREADS));
        let digest = clock.work(|| out.digest());
        let expected = self.expected();
        let mut pass = Pass {
            attempted: expected,
            completed: out.completed_invocations,
            client_failed: out.client_failures,
            ..Pass::default()
        };
        pass.gate.operation(
            out.completed_invocations == expected && out.groups_completed == self.cfg.groups,
            expected.saturating_sub(out.completed_invocations),
            || {
                format!(
                    "fleet: {} of {expected} invocations, {} of {} groups complete",
                    out.completed_invocations, out.groups_completed, self.cfg.groups
                )
            },
        );
        if let Some(pin) = self.pin {
            pass.gate.check(digest == pin, expected, || {
                format!("fleet digest {digest:016x}, pinned {pin:016x}")
            });
        }
        pass.counts.insert("events", out.total_events);
        pass.counts.insert("digest", digest);
        pass.counts.insert("completed", pass.completed);
        pass.counts.insert("client_failed", pass.client_failed);
        pass
    }

    fn traced_pass(&self, clock: &mut Clock, log: &mut SpanLog, layers: &mut MetricSet) -> Pass {
        let mut pass = Pass::default();
        let mut traced = Traced::default();
        // `run_fleet` holds every group's outcome until it aggregates;
        // so does the traced pass, so both run on a heap of one size.
        let mut outcomes = Vec::new();
        log.scope("workload.fleet", "pass", |log| {
            for (g, cfg) in group_configs(&self.cfg).iter().enumerate() {
                let id = format!("group{g}");
                let id = id.as_str();
                log.scope("experiments.group", id, |log| {
                    let (out, t) = timed(|| {
                        clock.call(|| {
                            let out =
                                log.scope("experiments.run_scenario", id, |_| run_scenario(cfg));
                            log.scope("experiments.digest", id, |_| out.digest());
                            out
                        })
                    });
                    layers.set(format!("experiments.group_ms.{g}"), ms(t), "ms");
                    account_scenario(&mut pass, id, cfg, &out);
                    traced.add_scenario(log, id, &out, cfg.replicas);
                    outcomes.push(out);
                });
            }
            traced.finish(pass.completed, layers, log);
        });
        drop(outcomes);
        pass.counts.insert("completed", pass.completed);
        pass
    }
}

// ---------------------------------------------------------------- sweep

struct Sweep {
    name: String,
    units: Vec<SweepUnit>,
    parse_ms: f64,
    expand_ms: f64,
    pin: Option<u64>,
}

impl Sweep {
    fn setup(size: Size, seed: u64, pin: Option<u64>) -> Result<Sweep, String> {
        let corpus = Corpus::load()?;
        let src = corpus
            .text("scenarios/sweep-full.toml")
            .ok_or("corpus lacks scenarios/sweep-full.toml")?;
        let (spec, parse_s) = timed(|| parse_sweep(src));
        let mut spec = spec.map_err(|e| format!("sweep-full.toml: {e}"))?;
        spec.base_seed = seed;
        if size == Size::Tiny {
            spec.plans_per_cell = 1;
            spec.increments = 20;
        }
        let (units, expand_s) = timed(|| expand_sweep(&spec));
        let units = units.map_err(|e| format!("sweep-full.toml: {e}"))?;
        // The warm-up runs the hand-written timeline of every topology
        // and scheme, whose faults do not depend on the seed.
        if units.is_empty() {
            return Err("sweep expands to no plans".to_string());
        }
        for warm in units.iter().filter(|u| u.cell.ends_with("/explicit")) {
            std::hint::black_box(run_chaos_plan(&warm.plan, &warm.chaos).digest());
        }
        Ok(Sweep {
            name: spec.name.clone(),
            units,
            parse_ms: ms(parse_s),
            expand_ms: ms(expand_s),
            pin,
        })
    }

    /// Checks one plan's invariants and increment accounting.
    fn account(pass: &mut Pass, unit: &SweepUnit, out: &ChaosOutcome) {
        let expected = u64::from(unit.chaos.increments);
        let acked = out.values.len() as u64;
        let ok = out.violations.is_empty() && out.completed && acked == expected;
        pass.attempted += expected;
        pass.completed += acked;
        if ok {
            pass.client_failed += out.metrics.counter("orb.exception.comm_failure")
                + out.metrics.counter("orb.exception.transient");
        }
        pass.gate.operation(ok, expected, || {
            format!(
                "{} seed {}: {acked}/{expected} increments, violations {:?}",
                unit.cell, out.seed, out.violations
            )
        });
        *pass.counts.entry("events").or_default() += out.events_processed;
    }

    fn check_digest(&self, pass: &mut Pass, digest: u64) {
        if let Some(pin) = self.pin {
            pass.gate.check(digest == pin, pass.attempted, || {
                format!("sweep digest {digest:016x}, pinned {pin:016x}")
            });
        }
        pass.counts.insert("digest", digest);
        pass.counts.insert("completed", pass.completed);
        pass.counts.insert("client_failed", pass.client_failed);
    }
}

impl Workload for Sweep {
    fn pass(&self, clock: &mut Clock) -> Pass {
        let mut pass = Pass::default();
        let mut results = Vec::with_capacity(self.units.len());
        for unit in &self.units {
            let out = clock.call(|| run_chaos_plan(&unit.plan, &unit.chaos));
            Self::account(&mut pass, unit, &out);
            results.push((unit.cell.clone(), out));
        }
        let outcome = SweepOutcome {
            name: self.name.clone(),
            results,
        };
        let digest = clock.work(|| outcome.digest());
        self.check_digest(&mut pass, digest);
        pass
    }

    fn traced_pass(&self, clock: &mut Clock, log: &mut SpanLog, layers: &mut MetricSet) -> Pass {
        let mut pass = Pass::default();
        let mut traced = Traced::default();
        let mut cell_ms: BTreeMap<&str, (f64, u32)> = BTreeMap::new();
        log.scope("workload.sweep", "pass", |log| {
            let mut results = Vec::with_capacity(self.units.len());
            for unit in &self.units {
                let id = format!("{}/seed{}", unit.cell, unit.plan.seed());
                let id = id.as_str();
                let (out, t) = timed(|| {
                    clock.call(|| {
                        log.scope("experiments.run_chaos_plan", id, |_| {
                            run_chaos_plan(&unit.plan, &unit.chaos)
                        })
                    })
                });
                let cell = cell_ms.entry(unit.cell.as_str()).or_default();
                cell.0 += ms(t);
                cell.1 += 1;
                Self::account(&mut pass, unit, &out);
                traced.add_chaos(log, id, &out, unit.chaos.slots);
                traced.collector.add_plan(&unit.plan);
                results.push((unit.cell.clone(), out));
            }
            let outcome = SweepOutcome {
                name: self.name.clone(),
                results,
            };
            let digest =
                clock.work(|| log.scope("experiments.digest", "sweep", |_| outcome.digest()));
            self.check_digest(&mut pass, digest);
            traced.finish(pass.completed, layers, log);
        });
        for (cell, (total, n)) in cell_ms {
            let name = format!("experiments.plan_ms.{}", cell.replace('/', "."));
            layers.set(name, total / f64::from(n.max(1)), "ms");
        }
        layers.set("tomlite.parse_ms", self.parse_ms, "ms");
        layers.set("faults.expand_ms", self.expand_ms, "ms");
        pass
    }
}

// ------------------------------------------------------------- analysis

struct Analysis {
    sources: Vec<(String, String)>,
    contract: Contract,
    allow: AllowList,
    pair: Fixture,
    seeded: Fixture,
    pins: Pins,
    corpus_failures: Vec<String>,
}

/// Results of the calls one analysis pass makes.
struct AnalysisRun {
    report: Result<lint::Report, String>,
    pair: explore::ExploreOutcome,
    fifo: explore::RunResult,
    seeded: explore::ExploreOutcome,
    minimal: Option<explore::Minimized>,
    replay_ok: bool,
}

/// Runs `f` under a span when tracing.
fn span<T>(
    log: &mut Option<&mut SpanLog>,
    name: &'static str,
    id: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match log.as_deref_mut() {
        Some(log) => log.scope(name, id, |_| f()),
        None => f(),
    }
}

impl Analysis {
    fn setup(pins: Pins) -> Result<Analysis, String> {
        let corpus = Corpus::load()?;
        let sources = corpus.lint_sources();
        let mut contract = Contract::default();
        if let Some(fsm) = contract.fsm.as_mut() {
            let spec = corpus
                .text(&fsm.spec_path)
                .ok_or_else(|| format!("corpus lacks {}", fsm.spec_path))?;
            fsm.spec_src = Some(spec.to_string());
        }
        let allow_src = corpus
            .text("lint-allow.toml")
            .ok_or("corpus lacks lint-allow.toml")?;
        let allow = AllowList::parse(allow_src).map_err(|e| format!("lint-allow.toml: {e}"))?;
        let pair = fixtures::pair();
        let seeded = fixtures::seeded_bug();
        // The warm-up explores a few schedules of `pair` without a
        // relation, through the same choosing dispatch path a pass takes.
        let warm = ExploreConfig {
            max_runs: 24,
            ..Self::explore_cfg(&pair, None)
        };
        std::hint::black_box(explore(&pair.plan, &pair.chaos, &warm).digest);
        Ok(Analysis {
            sources,
            contract,
            allow,
            pair,
            seeded,
            corpus_failures: corpus.pin_failures(pins.corpus),
            pins,
        })
    }

    fn explore_cfg(fixture: &Fixture, relation: Option<Arc<ConflictRelation>>) -> ExploreConfig {
        ExploreConfig {
            gate: fixture.gate,
            max_runs: 1024,
            max_depth: 12,
            threads: WORKER_THREADS,
            relation,
        }
    }

    /// The pass's three top-level calls, in order: detlint (the full
    /// lint plus its conflict report, as CI runs them), exhaustive
    /// exploration of `pair` under that relation, and the seeded-bug
    /// pipeline (dormancy check, catch, minimization, replay).
    fn run(
        &self,
        pass: &mut Pass,
        clock: &mut Clock,
        mut log: Option<&mut SpanLog>,
    ) -> AnalysisRun {
        let log = &mut log;
        let (report, relation) = clock.call(|| {
            let report = span(log, "lint.lint_files", "corpus", || {
                lint::lint_files(&self.sources, &self.contract, &self.allow)
                    .map_err(|e| e.to_string())
            });
            let relation = span(log, "lint.conflict_report", "corpus", || {
                lint::conflict_report(&self.sources, &self.contract)
                    .map_err(|e| e.to_string())
                    .and_then(|json| ConflictRelation::parse(&json).map_err(|e| e.to_string()))
            });
            (report, relation)
        });
        let relation = match relation {
            Ok(rel) => Some(Arc::new(rel)),
            Err(e) => {
                pass.gate
                    .check(false, 0, || format!("conflict relation: {e}"));
                None
            }
        };
        let (p, s) = (&self.pair, &self.seeded);
        let pair = clock.call(|| {
            span(log, "explore.explore", "pair", || {
                explore(&p.plan, &p.chaos, &Self::explore_cfg(p, relation.clone()))
            })
        });
        let (fifo, seeded, minimal, replay_ok) = clock.call(|| {
            let fifo = span(log, "explore.run_prefix", "seeded_bug", || {
                run_prefix(&s.plan, &s.chaos, s.gate, &[])
            });
            let seeded = span(log, "explore.explore", "seeded_bug", || {
                explore(&s.plan, &s.chaos, &Self::explore_cfg(s, relation.clone()))
            });
            let witness: Vec<u64> = seeded
                .failures
                .first()
                .map(|f| f.trace.decisions.iter().map(|d| d.chosen).collect())
                .unwrap_or_default();
            let minimal = span(log, "explore.minimize", "seeded_bug", || {
                minimize(&s.plan, &s.chaos, s.gate, &witness, 200)
            });
            let replay_ok = span(log, "experiments.run_chaos_plan_with", "seeded_bug", || {
                minimal.as_ref().is_some_and(|m| {
                    let replayed = run_chaos_plan_with(
                        &s.plan,
                        &s.chaos,
                        Box::new(ReplayScheduler::from_trace(&m.trace)),
                    );
                    replayed.digest() == m.outcome_digest && !replayed.violations.is_empty()
                })
            });
            (fifo, seeded, minimal, replay_ok)
        });
        AnalysisRun {
            report,
            pair,
            fifo,
            seeded,
            minimal,
            replay_ok,
        }
    }

    /// Gate and accounting of one pass's results.
    fn check(&self, pass: &mut Pass, run: &AnalysisRun) {
        let gate = &mut pass.gate;
        for failure in &self.corpus_failures {
            gate.check(false, 0, || failure.clone());
        }
        match &run.report {
            Ok(report) => gate.check(
                report.findings.is_empty() && report.stale_allows.is_empty(),
                0,
                || {
                    format!(
                        "detlint: {} finding(s), {} stale allow(s) on the frozen corpus",
                        report.findings.len(),
                        report.stale_allows.len()
                    )
                },
            ),
            Err(e) => gate.check(false, 0, || format!("detlint: {e}")),
        }
        let pair = &run.pair;
        let outcomes: Vec<u64> = pair.outcome_digests.iter().copied().collect();
        gate.check(
            pair.exhausted
                && pair.failures.is_empty()
                && pair.executed == self.pins.pair_runs
                && outcomes == self.pins.pair_outcomes,
            pair.executed as u64,
            || {
                format!(
                    "pair: {} runs (pinned {}), exhausted={}, {} violating, outcomes {outcomes:x?}",
                    pair.executed,
                    self.pins.pair_runs,
                    pair.exhausted,
                    pair.failures.len()
                )
            },
        );
        gate.check(run.fifo.violations.is_empty(), 1, || {
            format!("seeded bug violates under FIFO: {:?}", run.fifo.violations)
        });
        gate.check(!run.seeded.failures.is_empty(), 1, || {
            "seeded bug not caught".to_string()
        });
        let witness = run
            .minimal
            .as_ref()
            .map(|m| (m.choices.len(), m.trace.digest()));
        gate.check(
            matches!(witness, Some((n, d)) if n <= pins::MAX_WITNESS_DECISIONS
                && d == self.pins.witness)
                && run.replay_ok,
            1,
            || {
                format!(
                    "seeded bug witness {witness:x?} (pinned <= {} decisions, digest {:016x}), replay ok {}",
                    pins::MAX_WITNESS_DECISIONS,
                    self.pins.witness,
                    run.replay_ok
                )
            },
        );
        let passing = |o: &explore::ExploreOutcome, f: &Fixture| {
            (o.executed - o.failures.len()) as u64 * u64::from(f.chaos.increments)
        };
        pass.attempted = (pair.executed + run.seeded.executed) as u64;
        pass.client_failed = (pair.failures.len() + run.seeded.failures.len()) as u64;
        pass.completed = passing(pair, &self.pair) + passing(&run.seeded, &self.seeded);
        if let Ok(report) = &run.report {
            pass.counts
                .insert("lint.findings", report.findings.len() as u64);
            pass.counts
                .insert("lint.suppressed", report.suppressed.len() as u64);
        }
        pass.counts.insert("explore.runs", pair.executed as u64);
        pass.counts.insert("explore.digest", pair.digest);
        pass.counts
            .insert("explore.catch_runs", run.seeded.executed as u64);
        if let Some(m) = &run.minimal {
            pass.counts.insert("explore.witness", m.trace.digest());
            pass.counts
                .insert("explore.minimize_runs", m.runs_used as u64);
        }
        pass.counts.insert("completed", pass.completed);
    }

    /// Times each detlint pass once over shared inputs: the corpus read,
    /// lexing, AST and call-graph construction, then every rule pass.
    fn lint_passes(&self, log: &mut SpanLog, layers: &mut MetricSet) {
        let c = &self.contract;
        let sources = log.scope("lint.pass.read", "corpus", |_| {
            Corpus::load().map(|c| c.lint_sources()).unwrap_or_default()
        });
        let trees: Vec<_> = log.scope("lint.pass.lex", "corpus", |_| {
            sources
                .iter()
                .filter_map(|(_, src)| synlite::parse_file(src).ok())
                .collect()
        });
        let asts: Vec<FileAst> = log.scope("lint.pass.ast", "corpus", |_| {
            sources
                .iter()
                .zip(&trees)
                .map(|((rel, src), t)| FileAst::parse(rel, t, src))
                .collect()
        });
        let graph = log.scope("lint.pass.callgraph", "corpus", |_| CallGraph::build(&asts));
        log.scope("lint.pass.rules", "corpus", |_| {
            let mut found = Vec::new();
            for ((rel, _), t) in sources.iter().zip(&trees) {
                lint::rules::run(rel, t, c.rules_for(rel), &c.protocol_enums, &mut found);
            }
            found.len()
        });
        log.scope("lint.pass.taint", "corpus", |_| {
            let files: Vec<FileAst> = asts
                .iter()
                .filter(|f| c.in_r5_scope(&f.path))
                .cloned()
                .collect();
            let r5 = graph.restrict(|file| c.in_r5_scope(file));
            let mut used = vec![false; self.allow.entries().len()];
            lint::taint::check(&r5, &files, &c.r5_sinks, &self.allow, &mut used)
        });
        if let Some(cfg) = &c.conformance {
            log.scope("lint.pass.conformance", "corpus", |_| {
                lint::conformance::check(&asts, cfg)
            });
        }
        let analysis = match &c.fsm {
            Some(cfg) => cfg.spec_src.as_ref().and_then(|spec| {
                log.scope("lint.pass.fsm", "corpus", |_| {
                    lint::fsm::check(&asts, cfg, spec, &graph).ok()
                })
            }),
            None => None,
        };
        if let Some(cfg) = &c.dataflow {
            log.scope("lint.pass.dataflow", "corpus", |_| {
                lint::dataflow::check(&sources, cfg)
            });
        }
        if let (Some(cfg), Some(analysis)) = (&c.effects, &analysis) {
            log.scope("lint.pass.effects", "corpus", |_| {
                lint::effects::check(&graph, analysis, cfg)
            });
            log.scope("lint.pass.conflict_report", "corpus", |_| {
                lint::effects::conflict_report(&graph, &analysis.spec, cfg)
            });
        }
        for pass in [
            "read",
            "lex",
            "ast",
            "callgraph",
            "rules",
            "taint",
            "conformance",
            "fsm",
            "dataflow",
            "effects",
            "conflict_report",
        ] {
            let total = log.total_ms(&format!("lint.pass.{pass}"));
            layers.set(format!("lint.{pass}_ms"), total, "ms");
        }
        layers.set("lint.files", sources.len() as f64, "count");
        let lines: usize = sources.iter().map(|(_, s)| s.lines().count()).sum();
        layers.set("lint.lines", lines as f64, "count");
    }
}

impl Workload for Analysis {
    fn pass(&self, clock: &mut Clock) -> Pass {
        let mut pass = Pass::default();
        let run = self.run(&mut pass, clock, None);
        self.check(&mut pass, &run);
        pass
    }

    fn traced_pass(&self, clock: &mut Clock, log: &mut SpanLog, layers: &mut MetricSet) -> Pass {
        let mut pass = Pass::default();
        let mut traced = Traced::default();
        log.scope("workload.analysis", "pass", |log| {
            let run = log.scope("analysis.calls", "pass", |log| {
                self.run(&mut pass, clock, Some(log))
            });
            self.check(&mut pass, &run);
            let detlint_ms = log.total_ms("lint.lint_files") + log.total_ms("lint.conflict_report");
            let exhaust_ms = log.id_ms("explore.explore", "pair");
            layers.set("detlint_s", detlint_ms / 1e3, "s");
            layers.set("explore_exhaust_s", exhaust_ms / 1e3, "s");
            layers.set(
                "explore.ms_per_run",
                exhaust_ms / run.pair.executed.max(1) as f64,
                "ms",
            );
            if let Ok(report) = &run.report {
                layers.set("lint.findings", report.findings.len() as f64, "count");
                layers.set("lint.suppressed", report.suppressed.len() as f64, "count");
            }
            layers.set("explore.runs", run.pair.executed as f64, "count");
            layers.set(
                "explore.distinct_outcomes",
                run.pair.outcome_digests.len() as f64,
                "count",
            );
            layers.set("explore.catch_runs", run.seeded.executed as f64, "count");
            if let Some(m) = &run.minimal {
                layers.set("explore.minimize_runs", m.runs_used as f64, "count");
                layers.set("explore.witness_decisions", m.choices.len() as f64, "count");
            }
            // The layers below the explorer, seen through the FIFO runs
            // of both fixtures (explored runs expose no metrics).
            for fixture in [&self.pair, &self.seeded] {
                let out = log.scope("experiments.run_chaos_plan", fixture.name, |_| {
                    run_chaos_plan(&fixture.plan, &fixture.chaos)
                });
                log.scope("experiments.digest", fixture.name, |_| out.digest());
                traced.add_chaos(log, fixture.name, &out, fixture.chaos.slots);
                traced.collector.add_plan(&fixture.plan);
            }
            let fifo_ns = log.total_ms("experiments.run_chaos_plan") * 1e6;
            layers.set(
                "simnet.host_ns_per_event",
                fifo_ns / traced.events.max(1) as f64,
                "ns",
            );
            let increments =
                u64::from(self.pair.chaos.increments) + u64::from(self.seeded.chaos.increments);
            traced.finish(increments, layers, log);
            self.lint_passes(log, layers);
        });
        pass
    }
}
