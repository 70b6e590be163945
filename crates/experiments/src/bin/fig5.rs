//! Regenerates Figure 5: inter-server group-communication bandwidth vs.
//! the rejuvenation threshold (20-80 %) for the two proactive schemes.
//!
//! Usage: `fig5 [--threads N] [--trace out.jsonl] [--write] [invocations]`
//!
//! Prints the table; only `--write` (re)writes `results/fig5.csv`, so a
//! quick run at a small count cannot replace the committed data.

use experiments::{
    cli_from_args, expect_positionals, fig5_csv, format_fig5, positional_or, run_fig5, take_switch,
};

fn main() {
    let mut cli = cli_from_args();
    let write = take_switch(&mut cli.args, "--write");
    expect_positionals(&cli.args, 1);
    let invocations: u32 = positional_or(&cli.args, 0, 10_000);
    let cells = run_fig5(invocations, 42, &[20, 40, 60, 80], cli.threads);
    let points: Vec<_> = cells.iter().map(|(p, _)| p.clone()).collect();
    if write {
        std::fs::create_dir_all("results").expect("create results dir");
        std::fs::write("results/fig5.csv", fig5_csv(&points)).expect("write csv");
    }
    println!("\nFigure 5: effect of varying the rejuvenation threshold\n");
    println!("{}", format_fig5(&points));
    println!("(paper: ~6,000 B/s at 80% rising to ~10,000 B/s at 20%)");
    let sections: Vec<_> = cells
        .iter()
        .map(|(p, out)| {
            (
                format!("{}@{}%", p.scheme.name(), p.threshold_pct),
                out.trace.as_slice(),
            )
        })
        .collect();
    cli.write_trace(&sections);
}
