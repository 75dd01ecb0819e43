//! `ccbench --workload <name> [--seed <n>] [--seconds <n>] [--trace 0|1]`
//!
//! Prints progress and provenance, then as its last stdout line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits 0
//! only when every correctness gate passed.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match ccbench::Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("ccbench: {e}\n{}", ccbench::USAGE);
            std::process::exit(2);
        }
    };
    match ccbench::run(&opts) {
        Ok(outcome) => {
            for e in &outcome.errors {
                eprintln!("ccbench: FAILED: {e}");
            }
            println!("{}", outcome.to_json());
            std::process::exit(if outcome.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("ccbench: {e}");
            std::process::exit(1);
        }
    }
}
