//! The FinSQL benchmark: three workloads run from outside the program
//! through its public functions, an untraced run for the end-to-end
//! metrics and a traced run for the per-layer ones. See `README.md`.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod report;
pub mod schedule;
pub mod serve;
pub mod setup;
pub mod stats;
pub mod sweep;
pub mod trace;

use report::Report;
use setup::Setup;
use trace::Trace;

/// Command-line options: `--workload <name> --seed <n> --seconds <s>
/// --trace <0|1>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| bad("an unsigned integer"))?,
                    )
                }
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("a positive number of seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload: String = workload.ok_or("--workload is required")?;
        if !catalog::is_workload(&workload) {
            let names: Vec<&str> = catalog::WORKLOADS
                .iter()
                .chain(&catalog::UNLISTED)
                .map(|w| w.name)
                .collect();
            return Err(format!(
                "unknown workload {workload:?}; one of {}",
                names.join(", ")
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(25.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Runs one workload and returns its result line.
pub fn run(args: &Args) -> Result<String, String> {
    let setup = Setup::build();
    let mut trace = Trace::new(args.trace);
    let mut report: Report = match args.workload.as_str() {
        "sweep_cold" => sweep::run(&setup, args.seed, args.seconds, &mut trace)?,
        "serve_zipf" => serve::run(
            &setup,
            serve::SERVE_ZIPF,
            args.seed,
            args.seconds,
            &mut trace,
        )?,
        "serve_unique" => serve::run(
            &setup,
            serve::SERVE_UNIQUE,
            args.seed,
            args.seconds,
            &mut trace,
        )?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if args.trace {
        report.set("setup.dataset_s", setup.dataset_s);
        report.set("setup.train_s", setup.train_s);
        fill_unexercised(&mut report);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.tsv", args.workload, args.seed));
        trace
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "finbench: {} spans written to {}",
            trace.spans().len(),
            path.display()
        );
    } else {
        report.set("setup_s", setup.setup_s());
        report.set("rss_mb", setup::peak_rss_mib()?);
    }
    report.to_json(args.trace)
}

/// Per-layer metrics of layers this workload never calls read 0.
fn fill_unexercised(report: &mut Report) {
    for m in catalog::PER_LAYER {
        if report.get(m.name).is_none() {
            report.set(m.name, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload serve_zipf --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "serve_zipf".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload sweep_cold").is_err());
        assert!(parse("--workload sweep_cold --seed 1 --trace 2").is_err());
        assert!(parse("--workload sweep_cold --seed 1 --seconds 0").is_err());
        assert!(parse("--workload sweep_cold --seed 1 --bogus 1").is_err());
    }
}
