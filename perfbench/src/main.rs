//! Seeded benchmark of the CrowdLearn simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_stream --seed 15469274 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` measures the per-layer metrics from spans recorded around
//! calls into each crate. Both check the program's outputs and print one
//! JSON result object as the last line of standard output; the process
//! exits non-zero when any check fails. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod checks;
mod e2e;
mod layers;
mod out;
mod probe;
mod stats;
mod trace;
mod traced;
mod workload;

use out::Ops;
use workload::{Workload, PAPER_SEED};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: Workload::PaperStream,
        seed: PAPER_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload =
                    Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?;
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_stream|fleet_contended|chaos_checkpoint> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut ops = Ops::default();
    let metrics = if args.trace {
        traced::measure(args.workload, args.seed, args.seconds, &mut ops)
    } else {
        e2e::measure(args.workload, args.seed, args.seconds, &mut ops)
    };
    metrics.print_table();
    println!(
        "  failed_ops_ratio = {} ({} failed of {} attempted)",
        ops.failed_ratio(),
        ops.failed,
        ops.attempted
    );
    let correct = ops.failed == 0 && metrics.all_finite();
    println!("{}", metrics.result_json(&ops, correct));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "chaos_checkpoint",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::ChaosCheckpoint);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }
}
