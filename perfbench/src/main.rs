//! `perfbench` command: see [`perfbench::cli::USAGE`].

use std::collections::BTreeSet;
use std::process::exit;

use perfbench::cli::{self, Command, USAGE};
use perfbench::report::result_line;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(Command::Run(args)) => args,
        Ok(Command::Help) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            exit(2);
        }
    };
    let outcome = match perfbench::run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload.name());
            exit(3);
        }
    };
    // Every pass repeats the same failures; print each once.
    let checks: BTreeSet<&String> = outcome.failures.iter().collect();
    for failure in checks {
        eprintln!("perfbench: CHECK FAILED: {failure}");
    }
    let operations: BTreeSet<&String> = outcome.op_failures.iter().collect();
    for failure in operations {
        eprintln!("perfbench: OPERATION FAILED: {failure}");
    }
    if args.trace {
        eprint!("{}", outcome.layer_table());
    }
    let writes = [
        (args.out.as_ref(), Some(outcome.document(&args))),
        (
            args.spans.as_ref(),
            outcome.spans.as_ref().map(|log| log.to_jsonl()),
        ),
    ];
    for (path, body) in writes {
        if let (Some(path), Some(body)) = (path, body) {
            if let Err(e) = std::fs::write(path, body) {
                eprintln!("perfbench: writing {}: {e}", path.display());
                exit(3);
            }
        }
    }
    println!("{{\"host\": {}}}", outcome.host.to_json());
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            outcome.metrics.iter()
        )
    );
    exit(if outcome.correct { 0 } else { 1 });
}
