//! End-to-end and per-layer benchmark of the evolvable-hardware job server.
//!
//! A run boots an [`ehw_server::EhwServer`] in-process on `127.0.0.1:0`,
//! drives it with seed-pinned closed-loop job traffic over real sockets and
//! prints the end-to-end metrics; `--trace 1` replays the same generated jobs
//! through each layer's public functions and prints the per-layer table
//! instead.  `e2ebench/README.md` maps every metric to its layer and to the
//! workload where it should move.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload mixed --seed 1 --seconds 15 --trace 0
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --steadiness 10 [--workload mixed] [--seed 1] [--seconds 15]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it are
//! the human-readable report.

mod client;
mod digest;
mod host;
mod layers;
mod load;
mod run;
mod stats;
mod steadiness;
mod trace;
mod workload;

#[cfg(test)]
mod tests;

use std::process::ExitCode;

const USAGE: &str = "usage: ehw-e2ebench --workload NAME --seed N --seconds S --trace 0|1\n       \
                     ehw-e2ebench --steadiness RUNS [--workload NAME] [--seed N] [--seconds S]\n\
                     workloads: mixed, tiny-jobs, big-evolve";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    steadiness: Option<usize>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        steadiness: None,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value),
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer")?
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--steadiness" => {
                parsed.steadiness = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&runs: &usize| runs > 0)
                        .ok_or("--steadiness takes a positive run count")?,
                )
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("ehw-e2ebench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.steadiness, args.workload.as_deref()) {
        (Some(runs), only) => steadiness::report(only, runs, args.seed, args.seconds),
        (None, Some(name)) => match workload::by_name(name) {
            Some(w) => {
                run::run(w, args.seed, args.seconds, args.trace).map(|outcome| outcome.print())
            }
            None => Err(format!("unknown workload '{name}'\n{USAGE}")),
        },
        (None, None) => Err(format!("--workload is required\n{USAGE}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("ehw-e2ebench: {why}");
            ExitCode::FAILURE
        }
    }
}
