//! `detlint` — checks the workspace against the determinism contract
//! (DESIGN §9). See `lint::cli_main` for the flags.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(lint::cli_main(&args));
}
