//! End-to-end integration tests: the full MEAD stack (simulator, GIOP,
//! group communication, ORB, interceptors, Recovery Manager, workload)
//! must exhibit the paper's qualitative results on short runs.

use mead_repro::experiments::{
    failover_episodes_ms, fig5_point, run_scenario, steady_state_rtt_ms, ScenarioConfig,
};
use mead_repro::mead::RecoveryScheme;

fn quick(scheme: RecoveryScheme, invocations: u32) -> ScenarioConfig {
    ScenarioConfig::quick(scheme, invocations)
}

#[test]
fn every_scheme_completes_the_workload_under_faults() {
    for scheme in RecoveryScheme::ALL {
        let out = run_scenario(&quick(scheme, 800));
        assert!(
            out.report.completed,
            "{} did not complete: {} records",
            scheme.name(),
            out.report.records.len()
        );
        assert_eq!(out.report.records.len(), 800, "{}", scheme.name());
        assert!(
            out.server_failures() > 0,
            "{} saw no injected failures",
            scheme.name()
        );
    }
}

#[test]
fn proactive_migration_masks_all_failures_from_the_client() {
    for scheme in [
        RecoveryScheme::LocationForward,
        RecoveryScheme::MeadFailover,
    ] {
        let out = run_scenario(&quick(scheme, 1200));
        assert_eq!(
            out.report.client_failures(),
            0,
            "{}: section 5.2.1 — thresholds below 100% mean the client \
             catches no exceptions at all",
            scheme.name()
        );
        assert!(
            out.metrics.counter("mead.graceful_rejuvenations") > 0,
            "{}: failures must be graceful rejuvenations",
            scheme.name()
        );
        // A replica may still exhaust *after* the workload stops: with no
        // client writes there is no event-driven threshold check (the
        // paper's deliberate design, section 3.1). During the measured
        // window, though, every failure must be a graceful rejuvenation.
        let last_invocation_end = out.report.records.last().expect("records exist").end;
        for crash in out.metrics.byte_records("mead.crash_at") {
            assert!(
                crash.at > last_invocation_end,
                "{}: replica exhausted at {} while the workload was active",
                scheme.name(),
                crash.at
            );
        }
    }
}

#[test]
fn reactive_no_cache_has_one_comm_failure_per_server_crash() {
    let out = run_scenario(&quick(RecoveryScheme::ReactiveNoCache, 1500));
    let crashes = out.metrics.counter("mead.crash_exhaustion");
    assert!(crashes >= 3, "expected several crashes, got {crashes}");
    assert_eq!(
        u64::from(out.report.comm_failures),
        crashes,
        "section 5.2.1: exact 1:1 correspondence between server crashes \
         and client COMM_FAILUREs"
    );
    assert_eq!(out.report.transients, 0, "no TRANSIENTs without a cache");
}

#[test]
fn reactive_schemes_never_migrate_proactively() {
    for scheme in [
        RecoveryScheme::ReactiveNoCache,
        RecoveryScheme::ReactiveCache,
    ] {
        let out = run_scenario(&quick(scheme, 800));
        assert_eq!(
            out.metrics.counter("mead.migrations"),
            0,
            "{}",
            scheme.name()
        );
        assert_eq!(
            out.metrics.counter("mead.graceful_rejuvenations"),
            0,
            "{}",
            scheme.name()
        );
    }
}

#[test]
fn steady_state_overhead_ordering_matches_table1() {
    // LOCATION_FORWARD >> NEEDS_ADDRESSING > MEAD > reactive ≈ baseline.
    let steady = |scheme| steady_state_rtt_ms(&run_scenario(&quick(scheme, 700)));
    let base = steady(RecoveryScheme::ReactiveNoCache);
    let cache = steady(RecoveryScheme::ReactiveCache);
    let na = steady(RecoveryScheme::NeedsAddressing);
    let lf = steady(RecoveryScheme::LocationForward);
    let mead = steady(RecoveryScheme::MeadFailover);
    assert!((cache - base).abs() / base < 0.02, "cache overhead ~0%");
    assert!(
        lf / base > 1.6,
        "LF must pay heavy parsing overhead: {lf} vs {base}"
    );
    assert!(
        na > base && na / base < 1.2,
        "NA overhead moderate: {na} vs {base}"
    );
    assert!(
        mead > base * 0.99 && mead / base < 1.1,
        "MEAD overhead small: {mead} vs {base}"
    );
    assert!(lf > na && na > mead, "overhead ordering LF > NA > MEAD");
}

#[test]
fn mead_failover_is_several_times_faster_than_reactive() {
    let base_out = run_scenario(&quick(RecoveryScheme::ReactiveNoCache, 1200));
    let mead_out = run_scenario(&quick(RecoveryScheme::MeadFailover, 1200));
    let base_eps = failover_episodes_ms(&base_out, RecoveryScheme::ReactiveNoCache);
    let mead_eps = failover_episodes_ms(&mead_out, RecoveryScheme::MeadFailover);
    assert!(!base_eps.is_empty() && !mead_eps.is_empty());
    let base = base_eps.iter().sum::<f64>() / base_eps.len() as f64;
    let mead = mead_eps.iter().sum::<f64>() / mead_eps.len() as f64;
    let reduction = (base - mead) / base;
    assert!(
        (0.60..0.85).contains(&reduction),
        "paper: 73.9% reduction; measured {:.1}% ({} -> {})",
        reduction * 100.0,
        base,
        mead
    );
}

#[test]
fn mead_redirect_fails_over_in_under_half_the_location_forward_time() {
    // The interceptor-level dup2 redirect against the ORB-level reconnect
    // that LOCATION_FORWARD needs (Table 1 fail-over column).
    let mean_failover = |scheme| {
        let eps = failover_episodes_ms(&run_scenario(&quick(scheme, 1500)), scheme);
        assert!(!eps.is_empty(), "{}: no fail-over episodes", scheme.name());
        eps.iter().sum::<f64>() / eps.len() as f64
    };
    let mead = mean_failover(RecoveryScheme::MeadFailover);
    let lf = mean_failover(RecoveryScheme::LocationForward);
    assert!(
        mead * 2.0 < lf,
        "MEAD fail-over {mead:.2} ms must be under half of LOCATION_FORWARD's {lf:.2} ms"
    );
}

#[test]
fn fig5_bandwidth_falls_as_the_threshold_rises() {
    let mut last = f64::INFINITY;
    for pct in [20u32, 40, 60, 80] {
        let out = run_scenario(&ScenarioConfig {
            threshold: Some(f64::from(pct) / 100.0),
            ..quick(RecoveryScheme::MeadFailover, 1500)
        });
        let bandwidth = fig5_point(RecoveryScheme::MeadFailover, pct, &out).bandwidth_bytes_per_sec;
        assert!(
            bandwidth < last,
            "threshold {pct}%: {bandwidth:.0} B/s, not below {last:.0} B/s"
        );
        last = bandwidth;
    }
}

#[test]
fn replication_degree_is_maintained_across_failures() {
    let out = run_scenario(&quick(RecoveryScheme::MeadFailover, 1500));
    let launches = out.metrics.counter("rm.launches");
    let failures = out.server_failures();
    // Initial 3 + one replacement per failure, within slack for in-flight
    // launches at the end of the run.
    assert!(
        launches >= 3 + failures - 1 && launches <= 3 + failures + 2,
        "launches {launches} vs failures {failures}"
    );
}

#[test]
fn fault_free_run_is_clean_and_fast() {
    let cfg = ScenarioConfig {
        fault_free: true,
        ..ScenarioConfig::quick(RecoveryScheme::MeadFailover, 600)
    };
    let out = run_scenario(&cfg);
    assert!(out.report.completed);
    assert_eq!(out.server_failures(), 0);
    assert_eq!(out.report.client_failures(), 0);
    let steady = steady_state_rtt_ms(&out);
    assert!(
        (0.70..0.85).contains(&steady),
        "fault-free steady RTT out of calibration: {steady} ms"
    );
}

#[test]
fn runs_are_deterministic_per_seed() {
    let run = |seed| {
        let out = run_scenario(&ScenarioConfig {
            seed,
            ..ScenarioConfig::quick(RecoveryScheme::LocationForward, 500)
        });
        (
            out.report.rtts_ms(),
            out.server_failures(),
            out.metrics.counter("mead.forwards_sent"),
        )
    };
    let a = run(7);
    let b = run(7);
    let c = run(8);
    assert_eq!(a.0, b.0, "same seed, same RTT series");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_ne!(a.0, c.0, "different seed perturbs the run");
}

#[test]
fn needs_addressing_masks_most_but_not_all_failures() {
    // Run a little longer so the race statistics are meaningful.
    let out = run_scenario(&quick(RecoveryScheme::NeedsAddressing, 2500));
    let failures = out.report.client_failures() as f64;
    let server = out.server_failures() as f64;
    assert!(server >= 5.0);
    let ratio = failures / server;
    assert!(
        ratio < 0.8,
        "NA should mask the majority of failures (paper: 75%), ratio {ratio}"
    );
    // The masking machinery must actually have run.
    assert!(
        out.metrics.counter("mead.client.eof_suppressed") > 0,
        "EOFs must be suppressed"
    );
}

#[test]
fn os_noise_produces_the_papers_jitter_profile() {
    let cfg = ScenarioConfig {
        fault_free: true,
        os_noise: true,
        ..ScenarioConfig::paper(RecoveryScheme::ReactiveNoCache)
    };
    let cfg = ScenarioConfig {
        invocations: 3000,
        ..cfg
    };
    let out = run_scenario(&cfg);
    let rtts: Vec<f64> = out.report.rtts_ms().into_iter().skip(1).collect();
    let s = mead_repro::experiments::Summary::of(&rtts).expect("samples");
    let (_, frac) = s.three_sigma_outliers(&rtts);
    assert!(
        (0.005..0.03).contains(&frac),
        "paper: 1-2.5% outliers; measured {:.2}%",
        frac * 100.0
    );
    assert!(
        s.max < 2.6,
        "paper: fault-free max spike 2.3 ms; measured {}",
        s.max
    );
}
