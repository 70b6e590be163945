//! # perfbench — the repository's benchmark
//!
//! Measures simulated invocations per wall-second over four workloads
//! (`paper`, `fleet`, `sweep`, `analysis`), checks every output against
//! the program's recorded results, and attributes a traced pass to the
//! layers it called. It drives the program only through public
//! functions and times every call from its own code; see `README.md` for
//! the metric → layer → workload table.

// The benchmark measures wall-clock time by design.
#![allow(clippy::disallowed_methods)]

pub mod cli;
pub mod corpus;
pub mod layers;
pub mod measure;
pub mod pins;
pub mod report;
pub mod workloads;

use cli::Args;
use measure::{median, peak_rss_mb, percentile, Clock, PassTime, SpanLog};
use pins::{Gate, Pins};
use report::{Host, MetricSet};
use workloads::Pass;

/// Worker threads every simulation runs on. Parallel runs would measure
/// the host's scheduler as much as the program.
pub const WORKER_THREADS: usize = 1;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Seconds of calls between two samples of the host's speed.
pub const SAMPLE_INTERVAL_S: f64 = 0.15;

/// The end-to-end metrics an untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("invocations_per_s", "1/s"),
    ("plan_ms_p50", "ms"),
    ("plan_ms_p98", "ms"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "ratio"),
];

/// Everything one run measured.
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted over all measured passes.
    pub attempted: u64,
    /// Failed operations, plus the operations failed checks cover.
    pub failed: u64,
    /// The printed metrics: end-to-end, or per-layer for a traced run.
    pub metrics: MetricSet,
    /// The end-to-end metrics in unscaled wall time (empty for a traced
    /// run).
    pub raw: MetricSet,
    /// Every per-layer metric of the traced pass, single-workload times
    /// included (empty for an untraced run).
    pub layers: MetricSet,
    /// The failed checks.
    pub failures: Vec<String>,
    /// The failed operations.
    pub op_failures: Vec<String>,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// The measured passes.
    pub passes: Vec<Pass>,
    /// Their timing.
    pub times: Vec<PassTime>,
    /// Spans of the traced pass.
    pub spans: Option<SpanLog>,
    /// Where the run was measured.
    pub host: Host,
}

/// Sets the workload up [`SETUPS`] times, runs
/// [`Kind::passes`](workloads::Kind::passes) whole passes, and, for a
/// traced run, one traced pass.
pub fn run(args: &Args) -> Result<Outcome, String> {
    run_with(args, &Pins::default())
}

/// [`run`] against explicit pinned values.
pub fn run_with(args: &Args, pins: &Pins) -> Result<Outcome, String> {
    let host = Host::collect();
    let mut clock = Clock::sampling(SAMPLE_INTERVAL_S);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        let (w, t, mid) =
            clock.time(|| workloads::setup(args.workload, args.size, args.seed, pins));
        setups.push((t, mid));
        workload = Some(w?);
        clock.sample();
    }
    let workload = workload.ok_or("no set-up ran")?;

    // A fixed pass count, not a deadline: a deadline would make the
    // operation counts, failed ones included, depend on the host's speed.
    let mut passes = Vec::new();
    for _ in 0..args.workload.passes(args.seconds) {
        clock.begin_pass();
        passes.push(workload.pass(&mut clock));
    }
    clock.sample();
    let peak_rss = peak_rss_mb();
    let times = clock.passes();
    let setup_s: Vec<f64> = setups.iter().map(|&(t, _)| t).collect();
    let setup_scaled: Vec<f64> = setups
        .iter()
        .map(|&(t, mid)| t / clock.slowdown_at(mid))
        .collect();

    let mut gate = Gate::default();
    for p in &passes {
        gate.merge(&p.gate);
    }
    for (i, p) in passes.iter().enumerate().skip(1) {
        gate.check(p.counts == passes[0].counts, p.attempted, || {
            format!(
                "pass {i} results {:x?} differ from pass 0 {:x?}",
                p.counts, passes[0].counts
            )
        });
    }
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let client_failed: u64 = passes.iter().map(|p| p.client_failed).sum();
    let walls: Vec<f64> = times.iter().map(|t| t.wall_s).collect();

    let mut metrics = MetricSet::default();
    let mut raw = MetricSet::default();
    let mut layers = MetricSet::default();
    let mut spans = None;
    if args.trace {
        let mut log = SpanLog::default();
        let mut plain = Clock::plain();
        plain.begin_pass();
        let traced = workload.traced_pass(&mut plain, &mut log, &mut layers);
        gate.merge(&traced.gate);
        for key in ["events", "completed"] {
            let (a, b) = (traced.counts.get(key), passes[0].counts.get(key));
            gate.check(a.is_none() || b.is_none() || a == b, 0, || {
                format!("traced pass {key} {a:?} differs from untraced {b:?}")
            });
        }
        let traced_wall: f64 = plain.passes().iter().map(|t| t.wall_s).sum();
        layers.set(
            "obs.tracing_overhead",
            traced_wall / median(&walls),
            "ratio",
        );
        if layers.get("simnet.host_ns_per_event").is_none() {
            let scaled: Vec<f64> = times.iter().map(|t| t.scaled_s).collect();
            let events = layers.get("simnet.events").unwrap_or(0.0);
            let ns = if events > 0.0 {
                median(&scaled) * 1e9 / events
            } else {
                0.0
            };
            layers.set("simnet.host_ns_per_event", ns, "ns");
        }
        for (name, unit) in layers::per_layer_names() {
            let value = layers.get(&name).unwrap_or(0.0);
            metrics.set(name, value, unit);
        }
        spans = Some(log);
    } else {
        let failed_frac = (client_failed + gate.failed_ops) as f64 / attempted.max(1) as f64;
        let e2e = |scaled: bool| {
            let rates: Vec<f64> = passes
                .iter()
                .zip(&times)
                .map(|(p, t)| {
                    let wall = if scaled { t.scaled_s } else { t.wall_s };
                    p.completed as f64 / wall.max(f64::MIN_POSITIVE)
                })
                .collect();
            let plans: Vec<f64> = times
                .iter()
                .flat_map(|t| {
                    if scaled {
                        t.scaled_plans_ms.clone()
                    } else {
                        t.plans_ms.clone()
                    }
                })
                .collect();
            let setup = if scaled { &setup_scaled } else { &setup_s };
            let mut m = MetricSet::default();
            for (name, unit) in END_TO_END {
                let value = match name {
                    "setup_s" => median(setup),
                    "invocations_per_s" => median(&rates),
                    "plan_ms_p50" => percentile(&plans, 0.5),
                    "plan_ms_p98" => percentile(&plans, 0.98),
                    "peak_rss_mb" => peak_rss,
                    _ => failed_frac,
                };
                m.set(name, value, unit);
            }
            m
        };
        metrics = e2e(true);
        raw = e2e(false);
    }

    Ok(Outcome {
        correct: gate.passed(),
        attempted,
        failed: gate.failed_ops,
        metrics,
        raw,
        layers,
        failures: gate.failures,
        op_failures: gate.op_failures,
        setup_s,
        times,
        passes,
        spans,
        host,
    })
}

impl Outcome {
    /// The human-readable per-layer table: every per-layer metric, then
    /// calls, total and self time per span name.
    pub fn layer_table(&self) -> String {
        let mut out = String::from("per-layer metrics (traced pass):\n");
        let mut rows: Vec<_> = self.layers.iter().collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        for m in rows {
            out.push_str(&format!("  {:<48} {:>18.6} {}\n", m.name, m.value, m.unit));
        }
        if let Some(log) = &self.spans {
            out.push_str(&format!(
                "spans: {:<38} {:>7} {:>12} {:>12}\n",
                "name", "calls", "total_ms", "self_ms"
            ));
            for (name, t) in log.totals() {
                out.push_str(&format!(
                    "  {:<45} {:>7} {:>12.3} {:>12.3}\n",
                    name,
                    t.calls,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                ));
            }
        }
        out
    }

    /// The full result document `--out` writes.
    pub fn document(&self, args: &Args) -> String {
        use report::{json_num, json_str, metrics_json};
        let nums = |xs: &[f64]| {
            let v: Vec<String> = xs.iter().map(|x| json_num(*x)).collect();
            format!("[{}]", v.join(", "))
        };
        let passes: Vec<String> = self
            .passes
            .iter()
            .zip(&self.times)
            .map(|(p, t)| {
                format!(
                    "{{\"wall_s\": {}, \"scaled_s\": {}, \"attempted\": {}, \"completed\": {}, \"client_failed\": {}, \"plans\": {}}}",
                    json_num(t.wall_s),
                    json_num(t.scaled_s),
                    p.attempted,
                    p.completed,
                    p.client_failed,
                    t.plans_ms.len()
                )
            })
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"setup_s\": {}, \"passes\": [{}], \"metrics\": {}, \"raw_metrics\": {}, \"layers\": {}}}\n",
            json_str(args.workload.name()),
            args.seed,
            json_num(args.seconds),
            args.trace,
            self.host.to_json(),
            self.correct,
            self.attempted,
            self.failed,
            failures.join(", "),
            nums(&self.setup_s),
            passes.join(", "),
            metrics_json(self.metrics.iter()),
            metrics_json(self.raw.iter()),
            metrics_json(self.layers.iter()),
        )
    }
}
