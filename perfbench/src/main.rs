//! `perfbench`: end-to-end campaign benchmark of the SATIN simulator with
//! per-layer attribution.
//!
//! ```text
//! perfbench --workload <detect|fig7|sweep|faults> --seed <n> --seconds <s> --trace <0|1> [--held-out]
//! perfbench --record <detect|fig7>
//! ```
//!
//! A run prints the host fingerprint, any failed output check, one line per
//! metric, and last a one-line JSON result. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. `--record` prints a
//! fresh `expected/` record for a deliberate behaviour change. See
//! `WORKLOADS.md` for what each workload measures and why.

mod expected;
mod host;
mod metrics;
mod stats;
mod trace;
mod workloads;

use metrics::{render_result, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workloads::{Opts, Workload};

const USAGE: &str = "usage: perfbench --workload <detect|fig7|sweep|faults> --seed <n> --seconds <s> --trace <0|1> [--held-out]\n       perfbench --record <detect|fig7>";

enum Command {
    Run(Opts),
    Record(Workload),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut record = None;
    let (mut seed, mut seconds, mut trace, mut held_out) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--held-out" {
            held_out = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--record" => record = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if let Some(w) = record {
        return Ok(Command::Record(w));
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Command::Run(Opts {
            workload,
            seed,
            seconds: f64::from(seconds),
            trace,
            held_out,
        })),
        _ => Err("--workload, --seed, --seconds and --trace are required".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Command::Run(opts)) => opts,
        Ok(Command::Record(w)) => {
            return match workloads::record(w) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("host {}", host::Fingerprint::current().to_json());
    println!(
        "run {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"held_out\": {}}}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.held_out
    );
    let report = workloads::run(&opts);
    for e in &report.errors {
        println!("check failed: {e}");
    }
    println!(
        "units: {} measured, wall_s IQR/median {}",
        report.unit_walls.len(),
        stats::spread(&report.unit_walls).map_or("n/a".to_string(), |s| format!("{s:.4}"))
    );
    let walls: Vec<String> = report
        .unit_walls
        .iter()
        .map(|w| format!("{w:.3}"))
        .collect();
    println!("unit wall_s: {}", walls.join(" "));
    for line in report.breakdown.iter().flat_map(|b| b.lines()) {
        println!("breakdown {line}");
    }
    for n in report.sheet.notes() {
        println!("note: {n}");
    }
    let specs = if opts.trace { PER_LAYER } else { END_TO_END };
    for s in specs {
        let v = report.sheet.get(s.name).unwrap_or(f64::NAN);
        println!("{:<30} {v:>20.6} {}", s.name, s.unit);
    }
    let tally = report.tally();
    match render_result(tally, specs, &report.sheet) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if tally.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let Ok(Command::Run(o)) =
            parse_args(&args("--workload sweep --seed 7 --seconds 10 --trace 1"))
        else {
            panic!("should parse");
        };
        assert_eq!(o.workload, Workload::Sweep);
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.held_out),
            (7, 10.0, true, false)
        );
        assert!(parse_args(&args("--workload sweep --seed 7 --seconds 10")).is_err());
        assert!(parse_args(&args("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload sweep --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(matches!(
            parse_args(&args("--record fig7")),
            Ok(Command::Record(Workload::Fig7))
        ));
    }
}
