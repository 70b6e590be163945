//! Shared command-line parsing for the experiment bins.
//!
//! Every driver accepts the same flags ahead of its positional arguments:
//! `--threads N` selects the worker count and `--trace PATH` dumps the
//! observability trace of every run as JSON lines. The parsing core
//! ([`parse_args`]) is pure and iterator-based so it is tested once here;
//! the bins call the thin [`cli_from_args`] wrapper, which keeps the
//! historical behaviour of printing a usage message and exiting with
//! status 2 on a malformed flag (these are one-shot CLI tools).

use std::path::PathBuf;

use crate::runner::default_threads;

/// A malformed command line (the message is ready to print).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// The outcome of [`parse_args`]: the common flags plus whatever
/// positional arguments remain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParsedCli {
    /// `--threads N` if present (`None`/`0` mean "caller's default").
    pub threads: Option<usize>,
    /// `--trace PATH` if present.
    pub trace: Option<String>,
    /// Positional arguments with the flags removed.
    pub rest: Vec<String>,
}

/// Extracts the common `--threads N` / `--trace PATH` flags (either
/// `--flag value` or `--flag=value` form) from `args` (program name
/// already stripped). This core never exits — the bins' exit-2 behaviour
/// lives in [`cli_from_args`].
pub fn parse_args<I>(args: I) -> Result<ParsedCli, CliError>
where
    I: IntoIterator<Item = String>,
{
    let mut parsed = ParsedCli::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if let Some(v) = arg.strip_prefix("--threads=") {
            parsed.threads = Some(parse_thread_count(v)?);
        } else if arg == "--threads" {
            let v = args
                .next()
                .ok_or_else(|| CliError("--threads requires a value".to_string()))?;
            parsed.threads = Some(parse_thread_count(&v)?);
        } else if let Some(v) = arg.strip_prefix("--trace=") {
            parsed.trace = Some(v.to_string());
        } else if arg == "--trace" {
            let v = args
                .next()
                .ok_or_else(|| CliError("--trace requires a path".to_string()))?;
            parsed.trace = Some(v);
        } else {
            parsed.rest.push(arg);
        }
    }
    Ok(parsed)
}

fn parse_thread_count(v: &str) -> Result<usize, CliError> {
    v.parse()
        .map_err(|_| CliError(format!("--threads expects a number, got `{v}`")))
}

/// The resolved common command line of one experiment bin.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Worker threads to use ([`default_threads`] when unspecified).
    pub threads: usize,
    /// Where to write the JSONL trace, if `--trace` was given.
    pub trace: Option<PathBuf>,
    /// Positional arguments with the flags removed.
    pub args: Vec<String>,
}

impl Cli {
    /// Writes the labelled run traces to the `--trace` path, if one was
    /// given; a no-op otherwise. Exits with status 1 when the file cannot
    /// be written (one-shot CLI behaviour, like the flag parser).
    pub fn write_trace(&self, sections: &[(String, &[obs::TraceEvent])]) {
        let Some(path) = &self.trace else { return };
        let body = render_trace_sections(sections);
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("error: cannot write trace to {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("trace written to {}", path.display());
    }
}

/// Serialises labelled run traces into one JSONL document: a
/// `{"run":...}` header line per run followed by that run's events.
/// Deterministic — equal traces produce equal bytes.
pub fn render_trace_sections(sections: &[(String, &[obs::TraceEvent])]) -> String {
    let mut out = String::new();
    for (label, events) in sections {
        out.push_str("{\"run\":");
        obs::jsonl::push_json_str(&mut out, label);
        out.push_str(",\"events\":");
        out.push_str(&events.len().to_string());
        out.push_str("}\n");
        out.push_str(&obs::jsonl::to_jsonl(events));
    }
    out
}

/// Parses the process arguments into a [`Cli`]: worker count resolved via
/// [`resolve_threads`], trace path if any, and the remaining positional
/// arguments (program name excluded).
///
/// A missing or non-numeric flag value prints a usage message and exits
/// with status 2.
pub fn cli_from_args() -> Cli {
    match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => Cli {
            threads: resolve_threads(parsed.threads),
            trace: parsed.trace.map(PathBuf::from),
            args: parsed.rest,
        },
        Err(e) => usage(&e.0),
    }
}

/// Maps the parsed flag to an actual worker count: absent or `0` means
/// [`default_threads`].
pub fn resolve_threads(flag: Option<usize>) -> usize {
    match flag {
        None | Some(0) => default_threads(),
        Some(n) => n,
    }
}

/// Parses positional argument `index` as a `T`, falling back to
/// `default` when it is absent. An argument that is present but does not
/// parse (`1e4`, a misspelt flag) prints a usage message and exits with
/// status 2 rather than silently running the default.
pub fn positional_or<T: std::str::FromStr>(args: &[String], index: usize, default: T) -> T {
    parse_positional(args, index, default).unwrap_or_else(|e| usage(&e.0))
}

/// The non-exiting core of [`positional_or`].
fn parse_positional<T: std::str::FromStr>(
    args: &[String],
    index: usize,
    default: T,
) -> Result<T, CliError> {
    match args.get(index) {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| CliError(format!("cannot parse argument `{s}`"))),
    }
}

/// Removes a bin-specific `--flag VALUE` / `--flag=VALUE` pair from the
/// positional remainder and returns the value, or `None` when the flag is
/// absent. A flag present without a value prints a usage message and
/// exits with status 2 (matching the common-flag behaviour).
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let eq_prefix = format!("{flag}=");
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix(&eq_prefix) {
            let v = v.to_string();
            args.remove(i);
            return Some(v);
        }
        if args[i] == flag {
            if i + 1 >= args.len() {
                usage(&format!("{flag} requires a value"));
            }
            args.remove(i);
            return Some(args.remove(i));
        }
        i += 1;
    }
    None
}

/// Removes a boolean `--flag` switch from the positional remainder;
/// `true` when it was present.
pub fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// Rejects arguments a bin does not understand: any `--flag` left after
/// the bin took its own, and more than `max` positional arguments. Prints
/// the usage message and exits with status 2.
pub fn expect_positionals(args: &[String], max: usize) {
    if let Err(e) = check_positionals(args, max) {
        usage(&e.0);
    }
}

/// The non-exiting core of [`expect_positionals`].
fn check_positionals(args: &[String], max: usize) -> Result<(), CliError> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(CliError(format!("unknown flag `{flag}`")));
    }
    if args.len() > max {
        return Err(CliError(format!(
            "expected at most {max} positional argument(s), got {}",
            args.len()
        )));
    }
    Ok(())
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: <bin> [--threads N] [--trace out.jsonl] [args...]\n\
         \x20 --threads N        worker threads (0/default = all cores)\n\
         \x20 --trace out.jsonl  dump the per-run observability traces"
    );
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_flag_leaves_positionals_untouched() {
        let parsed = parse_args(argv(&["500", "extra"])).unwrap();
        assert_eq!(parsed.threads, None);
        assert_eq!(parsed.trace, None);
        assert_eq!(parsed.rest, argv(&["500", "extra"]));
    }

    #[test]
    fn separate_and_equals_forms_parse() {
        let parsed = parse_args(argv(&["--threads", "4", "100"])).unwrap();
        assert_eq!(parsed.threads, Some(4));
        assert_eq!(parsed.rest, argv(&["100"]));
        let parsed = parse_args(argv(&["100", "--threads=8"])).unwrap();
        assert_eq!(parsed.threads, Some(8));
        assert_eq!(parsed.rest, argv(&["100"]));
    }

    #[test]
    fn trace_flag_parses_both_forms() {
        let parsed = parse_args(argv(&["--trace", "out.jsonl", "250"])).unwrap();
        assert_eq!(parsed.trace.as_deref(), Some("out.jsonl"));
        assert_eq!(parsed.rest, argv(&["250"]));
        let parsed = parse_args(argv(&["--trace=t.jsonl", "--threads=2"])).unwrap();
        assert_eq!(parsed.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(parsed.threads, Some(2));
        assert!(parsed.rest.is_empty());
    }

    #[test]
    fn malformed_flag_is_an_error_not_a_panic() {
        assert!(parse_args(argv(&["--threads"])).is_err());
        assert!(parse_args(argv(&["--threads", "many"])).is_err());
        assert!(parse_args(argv(&["--threads=x"])).is_err());
        assert!(parse_args(argv(&["--trace"])).is_err());
    }

    #[test]
    fn zero_and_absent_resolve_to_default() {
        assert_eq!(resolve_threads(None), default_threads());
        assert_eq!(resolve_threads(Some(0)), default_threads());
        assert_eq!(resolve_threads(Some(3)), 3);
    }

    #[test]
    fn positional_parses_defaults_when_absent_and_rejects_garbage() {
        let args = argv(&["250", "nope"]);
        assert_eq!(parse_positional(&args, 0, 10u32), Ok(250));
        assert_eq!(parse_positional(&args, 5, 7u64), Ok(7));
        assert!(parse_positional(&args, 1, 10u32).is_err());
        // `table1 1e4` and `table1 --tracee t.jsonl` must not silently
        // run the default invocation count.
        assert!(parse_positional(&argv(&["1e4"]), 0, 10_000u32).is_err());
        let typo = parse_args(argv(&["--tracee", "t.jsonl"])).unwrap();
        assert!(parse_positional(&typo.rest, 0, 10_000u32).is_err());
    }

    #[test]
    fn switches_are_taken_and_leftovers_rejected() {
        let mut args = argv(&["500", "--write"]);
        assert!(take_switch(&mut args, "--write"));
        assert_eq!(args, argv(&["500"]));
        assert!(!take_switch(&mut args, "--write"));
        assert_eq!(check_positionals(&args, 1), Ok(()));
        assert!(check_positionals(&argv(&["500", "--wirte"]), 1).is_err());
        assert!(check_positionals(&argv(&["500", "600"]), 1).is_err());
        assert_eq!(check_positionals(&[], 1), Ok(()));
    }

    #[test]
    fn take_flag_handles_both_forms_and_absence() {
        let mut args = argv(&["--violations", "v.json", "24"]);
        assert_eq!(
            take_flag(&mut args, "--violations").as_deref(),
            Some("v.json")
        );
        assert_eq!(args, argv(&["24"]));
        let mut args = argv(&["24", "--violations=out/v.json"]);
        assert_eq!(
            take_flag(&mut args, "--violations").as_deref(),
            Some("out/v.json")
        );
        assert_eq!(args, argv(&["24"]));
        let mut args = argv(&["24"]);
        assert_eq!(take_flag(&mut args, "--violations"), None);
        assert_eq!(args, argv(&["24"]));
    }
}
