//! `finbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints its result as the last line of stdout.
//! Any failed check exits 1 without a result.

fn main() {
    let outcome = finbench::Args::parse(std::env::args().skip(1)).and_then(|a| finbench::run(&a));
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("finbench: {e}");
            std::process::exit(1);
        }
    }
}
