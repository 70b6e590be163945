//! Regenerates Figure 3: RTT traces of the reactive recovery schemes.
//!
//! Usage: `fig3 [--threads N] [--trace out.jsonl] [--write] [invocations]`
//!
//! Prints ASCII previews; only `--write` (re)writes
//! `results/fig3_<scheme>.csv`, so a quick run at a small count
//! cannot replace the committed data.

use experiments::{
    cli_from_args, expect_positionals, positional_or, run_fig3, take_switch, trace_ascii, trace_csv,
};

fn main() {
    let mut cli = cli_from_args();
    let write = take_switch(&mut cli.args, "--write");
    expect_positionals(&cli.args, 1);
    let invocations: u32 = positional_or(&cli.args, 0, 10_000);
    let traces = run_fig3(invocations, 42, cli.threads);
    if write {
        std::fs::create_dir_all("results").expect("create results dir");
    }
    for trace in &traces {
        let name = trace.scheme.name().replace(' ', "_").to_lowercase();
        let path = format!("results/fig3_{name}.csv");
        let target = if write {
            std::fs::write(&path, trace_csv(&trace.outcome)).expect("write csv");
            format!(" -> {path}")
        } else {
            String::new()
        };
        println!(
            "\n=== Figure 3: {} (RTT, 0-20ms scale){target} ===",
            trace.scheme.name()
        );
        println!("{}", trace_ascii(&trace.outcome, 40, 20.0));
    }
    let sections: Vec<_> = traces
        .iter()
        .map(|t| (t.scheme.name().to_string(), t.outcome.trace.as_slice()))
        .collect();
    cli.write_trace(&sections);
}
