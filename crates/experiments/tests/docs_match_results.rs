//! Numbers in the docs are generated, not typed: the fail-over table in
//! EXPERIMENTS.md §5.2.3 must be the table of the committed
//! `results/failover.txt` (which `--bin failover` regenerates), line for
//! line.

use std::path::Path;

fn read(rel: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The table of a fail-over report: from its `Scheme` header line to the
/// first blank line or code fence.
fn table(text: &str) -> Vec<&str> {
    text.lines()
        .skip_while(|l| !l.starts_with("Scheme "))
        .take_while(|l| !l.trim().is_empty() && !l.starts_with("```"))
        .collect()
}

#[test]
fn experiments_failover_table_is_the_committed_result() {
    let committed = read("results/failover.txt");
    let want = table(&committed);
    assert_eq!(want.len(), 7, "header, rule and one row per scheme");
    let docs = read("EXPERIMENTS.md");
    let section = docs
        .split("## Section 5.2.3")
        .nth(1)
        .expect("EXPERIMENTS.md has a section 5.2.3");
    assert_eq!(
        table(section),
        want,
        "EXPERIMENTS.md section 5.2.3 differs from results/failover.txt"
    );
}
