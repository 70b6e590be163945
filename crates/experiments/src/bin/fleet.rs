//! Fleet-scale scenario driver (DESIGN §11).
//!
//! Runs the fleet scenario family — `groups` independent replica groups,
//! each hammered by `clients` concurrent client processes — under one
//! recovery scheme, reports its event and invocation counts, and
//! cross-checks that the
//! fleet digest is bit-identical at 1, 2 and N worker threads (the
//! within-scenario parallelism contract).
//!
//! Usage: `fleet [--threads N] [--smoke] [--scheme NAME] [clients]`
//! (clients defaults to 1000 per group, `--smoke` runs the short
//! fixed-shape CI configuration). Exits non-zero when any thread count
//! disagrees on the digest.

use experiments::{cli_from_args, run_fleet, FleetConfig};
use mead::RecoveryScheme;

fn scheme_from(name: &str) -> Option<RecoveryScheme> {
    match name {
        "reactive" => Some(RecoveryScheme::ReactiveNoCache),
        "reactive-cache" => Some(RecoveryScheme::ReactiveCache),
        "location-forward" => Some(RecoveryScheme::LocationForward),
        "mead" => Some(RecoveryScheme::MeadFailover),
        _ => None,
    }
}

fn main() {
    let cli = cli_from_args();
    let threads = cli.threads;
    let smoke = cli.args.iter().any(|a| a == "--smoke");
    let mut scheme = RecoveryScheme::MeadFailover;
    let mut positional: Vec<String> = Vec::new();
    let mut it = cli.args.iter().filter(|a| *a != "--smoke");
    while let Some(arg) = it.next() {
        if arg == "--scheme" {
            let name = it.next().map(String::as_str).unwrap_or("");
            match scheme_from(name) {
                Some(s) => scheme = s,
                None => {
                    eprintln!(
                        "unknown scheme {name:?} (expected reactive, \
                         reactive-cache, location-forward or mead)"
                    );
                    std::process::exit(2);
                }
            }
        } else {
            positional.push(arg.clone());
        }
    }

    let clients: u32 = experiments::positional_or(&positional, 0, 1000);
    let cfg = if smoke {
        FleetConfig {
            groups: 2,
            clients: 32,
            invocations: 3,
            ..FleetConfig::new(scheme, 32)
        }
    } else {
        FleetConfig::new(scheme, clients)
    };

    println!(
        "fleet: scheme={:?} groups={} clients/group={} invocations={} seed={}",
        cfg.scheme, cfg.groups, cfg.clients, cfg.invocations, cfg.seed
    );

    let mut failed = false;
    let mut thread_counts = vec![1usize, 2];
    if threads > 2 {
        thread_counts.push(threads);
    }
    let mut reference: Option<u64> = None;
    for &t in &thread_counts {
        let out = run_fleet(&cfg, t);
        println!(
            "  threads={t}: digest {:016x}, {} events, {} invocations done, \
             {} groups complete",
            out.digest(),
            out.total_events,
            out.completed_invocations,
            out.groups_completed
        );
        match reference {
            None => reference = Some(out.digest()),
            Some(d) if d == out.digest() => {}
            Some(d) => {
                println!(
                    "  FAIL: digest {:016x} at {t} threads differs from {:016x}",
                    out.digest(),
                    d
                );
                failed = true;
            }
        }
    }
    if !failed {
        println!(
            "determinism: fleet digest identical at {:?} threads — PASS",
            thread_counts
        );
    }

    if failed {
        std::process::exit(1);
    }
}
