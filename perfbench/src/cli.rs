//! Command-line parsing. Unknown flags and malformed values are usage
//! errors (exit 2); nothing runs and nothing is written.

use std::path::PathBuf;

use crate::workloads::{Kind, Size};

/// Usage text for `--help` and usage errors.
pub const USAGE: &str = "\
usage: perfbench --workload <paper|fleet|sweep|analysis> [--seed N] [--seconds N]
                 [--trace 0|1] [--size full|tiny] [--out FILE] [--spans FILE]

  --workload   traffic to measure (required)
  --seed       workload seed (default 42; analysis ignores it)
  --seconds    nominal measured duration (default 10): the run makes
               seconds / the workload's nominal pass time whole passes,
               at least one
  --trace      0: end-to-end metrics; 1: one extra traced pass and the
               per-layer metrics (default 0)
  --size       full (default) or tiny, a small shape for smoke tests
  --out        write the full result document (host metadata, every
               sample, every per-layer metric) to FILE
  --spans      write the traced pass's spans to FILE as JSON lines

The last line of standard output is the result:
  {\"correct\": .., \"attempted\": .., \"failed\": .., \"metrics\": {..}}
Exit codes: 0 measured and correct; 1 a correctness check failed;
2 usage error; 3 the workload could not be set up.";

/// Parsed arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Kind,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Where to write the full result document.
    pub out: Option<PathBuf>,
    /// Where to write the span log of a traced run.
    pub spans: Option<PathBuf>,
}

/// What the command line asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Run the benchmark.
    Run(Args),
    /// Print usage and exit 0.
    Help,
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut size = Size::Full;
    let mut out = None;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(Command::Help);
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Kind::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: `{v}` is not a positive number"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                };
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    v => return Err(format!("--size: `{v}` is not full or tiny")),
                };
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
        size,
        out,
        spans,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn benchmark_flags_parse() {
        let cmd = parse(&args(&[
            "--workload",
            "sweep",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        let Command::Run(a) = cmd else {
            panic!("expected a run")
        };
        assert_eq!(a.workload, Kind::Sweep);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert_eq!(a.out, None);
    }

    #[test]
    fn bad_input_is_rejected() {
        for bad in [
            &["--workload", "paper", "--bogus"][..],
            &["--workload", "nope"],
            &["--workload", "paper", "--seed"],
            &["--workload", "paper", "--seed", "-1"],
            &["--workload", "paper", "--trace", "2"],
            &["--workload", "paper", "--seconds", "0"],
            &["--seed", "1"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} accepted");
        }
        assert_eq!(parse(&args(&["--help"])), Ok(Command::Help));
    }
}
