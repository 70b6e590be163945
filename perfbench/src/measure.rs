//! Wall-clock samples, order statistics, process memory, and the span log
//! of a traced run.

use std::collections::BTreeMap;
use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0.0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of `xs`; 0.0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Peak resident set of this process (`VmHWM`), in MiB; 0.0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nominal wall time of [`reference_ms`]'s kernel, in ms: its median on
/// the host the benchmark was written on (2-vCPU Intel Xeon).
pub const REFERENCE_MS: f64 = 7.3;

/// Wall time of a fixed, program-independent kernel (ordered-map churn
/// over a pseudo-random key stream), in ms. It runs twice and only the
/// second run is timed, so the caches the measured program left behind
/// cost little. Sampled between calls, it tracks how fast the shared
/// host runs at that moment.
pub fn reference_ms() -> f64 {
    fn churn() -> usize {
        let mut map = std::collections::BTreeMap::new();
        let mut x = 1u64;
        for i in 0..30_000u64 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            map.insert(x >> 40, i);
            if i % 3 == 0 {
                map.remove(&(x >> 41));
            }
        }
        map.len()
    }
    std::hint::black_box(churn());
    let t0 = Instant::now();
    std::hint::black_box(churn());
    t0.elapsed().as_secs_f64() * 1e3
}

/// One timed call into the program.
#[derive(Clone, Copy, Debug)]
struct Call {
    start: f64,
    end: f64,
    /// Counts as a `plan_ms` sample (a top-level call producing one
    /// checked outcome), not only as pass work.
    plan: bool,
}

/// Wall time of one pass, unscaled and scaled to the nominal host speed.
#[derive(Clone, Debug, Default)]
pub struct PassTime {
    /// Seconds spent in the pass's calls.
    pub wall_s: f64,
    /// The same, each call divided by the host's slowdown during it.
    pub scaled_s: f64,
    /// Each plan call, in ms.
    pub plans_ms: Vec<f64>,
    /// Each plan call scaled to the nominal host speed, in ms.
    pub scaled_plans_ms: Vec<f64>,
}

/// Times every call a pass makes into the program and, between calls,
/// samples the host's speed with [`reference_ms`] (never inside a
/// call, and never counted as pass time). A call's *slowdown* is the
/// reference time interpolated at the call's midpoint over
/// [`REFERENCE_MS`]; scaled times divide by it, so they read as if the
/// host ran at its nominal speed throughout.
pub struct Clock {
    origin: Instant,
    interval_s: Option<f64>,
    unsampled_s: f64,
    samples: Vec<(f64, f64)>,
    calls: Vec<Call>,
    pass_starts: Vec<usize>,
}

impl Clock {
    /// A clock that samples the host after every `interval_s` seconds of
    /// calls, and once now.
    pub fn sampling(interval_s: f64) -> Clock {
        let mut clock = Clock::plain();
        clock.interval_s = Some(interval_s);
        clock.sample();
        clock
    }

    /// A clock that never samples: scaled equals unscaled.
    pub fn plain() -> Clock {
        Clock {
            origin: Instant::now(),
            interval_s: None,
            unsampled_s: 0.0,
            samples: Vec::new(),
            calls: Vec::new(),
            pass_starts: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Samples the host's speed now.
    pub fn sample(&mut self) {
        if self.interval_s.is_none() {
            return;
        }
        let start = self.now();
        let ms = reference_ms();
        self.samples.push(((start + self.now()) / 2.0, ms));
        self.unsampled_s = 0.0;
    }

    /// Starts the next pass.
    pub fn begin_pass(&mut self) {
        self.pass_starts.push(self.calls.len());
    }

    fn record<T>(&mut self, plan: bool, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.calls.push(Call { start, end, plan });
        self.unsampled_s += end - start;
        if self.interval_s.is_some_and(|i| self.unsampled_s >= i) {
            self.sample();
        }
        out
    }

    /// Times a top-level call that produces one checked outcome: pass
    /// work and a `plan_ms` sample.
    pub fn call<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.record(true, f)
    }

    /// Times other pass work (a digest over the whole pass).
    pub fn work<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.record(false, f)
    }

    /// Times `f` outside any pass (a set-up); returns its result, its
    /// wall seconds and its midpoint for [`Clock::slowdown_at`].
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (out, end - start, (start + end) / 2.0)
    }

    /// The host's slowdown at clock time `t`: the reference time
    /// interpolated between the samples around `t`, over the nominal.
    pub fn slowdown_at(&self, t: f64) -> f64 {
        let ms = match self.samples.iter().position(|&(at, _)| at >= t) {
            None => self.samples.last().map(|s| s.1),
            Some(0) => Some(self.samples[0].1),
            Some(i) => {
                let ((t0, a), (t1, b)) = (self.samples[i - 1], self.samples[i]);
                let w = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.5 };
                Some(a + (b - a) * w)
            }
        };
        ms.map_or(1.0, |ms| ms / REFERENCE_MS)
    }

    /// The timing of every pass so far.
    pub fn passes(&self) -> Vec<PassTime> {
        let mut bounds = self.pass_starts.clone();
        bounds.push(self.calls.len());
        bounds
            .windows(2)
            .map(|w| {
                let mut t = PassTime::default();
                for call in &self.calls[w[0]..w[1]] {
                    let raw = call.end - call.start;
                    let scaled = raw / self.slowdown_at((call.start + call.end) / 2.0);
                    t.wall_s += raw;
                    t.scaled_s += scaled;
                    if call.plan {
                        t.plans_ms.push(raw * 1e3);
                        t.scaled_plans_ms.push(scaled * 1e3);
                    }
                }
                t
            })
            .collect()
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// One recorded call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `experiments.run_scenario`.
    pub name: &'static str,
    /// The cell, group, plan or fixture the call worked on.
    pub id: String,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals derived from a span log.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed duration, in nanoseconds.
    pub total_ns: u64,
    /// Summed self time: duration minus the time covered by child spans.
    pub self_ns: u64,
}

/// In-memory span recorder. Spans nest through [`SpanLog::scope`]; they
/// are kept until the run ends and written out then.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records `f` as a span named `name` on `id`, nested in the span
    /// that is open when it is called.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        id: impl Into<String>,
        f: impl FnOnce(&mut SpanLog) -> T,
    ) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id: id.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall milliseconds summed over the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.totals()
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e6)
    }

    /// Wall milliseconds summed over the spans named `name` on `id`.
    pub fn id_ms(&self, name: &str, id: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.id == id)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Calls, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(span.name).or_default();
            t.calls += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += span.duration_ns().saturating_sub(children);
        }
        out
    }

    /// The log as JSON lines: one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"span\":{i},\"name\":{},\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
                crate::report::json_str(s.name),
                crate::report::json_str(&s.id),
                s.start_ns,
                s.end_ns,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.98), 98.0);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.98), 7.0);
    }

    #[test]
    fn plain_clock_times_passes_and_plans() {
        let mut clock = Clock::plain();
        for _ in 0..2 {
            clock.begin_pass();
            clock.call(|| std::thread::sleep(std::time::Duration::from_millis(2)));
            clock.work(|| ());
        }
        let passes = clock.passes();
        assert_eq!(passes.len(), 2);
        for p in &passes {
            assert_eq!(p.plans_ms.len(), 1);
            assert!(p.plans_ms[0] >= 2.0);
            assert!(p.wall_s >= p.plans_ms[0] / 1e3);
            assert_eq!(p.wall_s, p.scaled_s);
        }
    }

    #[test]
    fn slowdown_interpolates_between_samples() {
        let mut clock = Clock::plain();
        clock.samples = vec![(1.0, REFERENCE_MS), (3.0, 3.0 * REFERENCE_MS)];
        assert_eq!(clock.slowdown_at(0.0), 1.0);
        assert!((clock.slowdown_at(2.0) - 2.0).abs() < 1e-12);
        assert_eq!(clock.slowdown_at(9.0), 3.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::default();
        log.scope("outer", "x", |log| {
            log.scope("inner", "x", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = log.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.calls, 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(log.spans()[1].parent, Some(0));
    }
}
