//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <call-bound|ckpt-write|preempt-restart> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics of one workload; with
//! `--trace 1` it runs the workload once more with spans around every call the
//! benchmark makes into a layer's public API and reports per-layer metrics. Either
//! way it checks the program's outputs against an uninterrupted reference run,
//! prints a human-readable report, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is nonzero when any output was wrong or any operation failed.

mod callmix;
mod measure;
mod report;
mod spec;
mod trace;
mod traced;

use report::Report;
use spec::{Inputs, Workload, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; known: {}", known.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::generate(&args.workload, args.seed);
    let result = if args.trace {
        traced::run(&args.workload, &inputs, args.seconds)
    } else {
        measure::measure(
            &args.workload,
            &inputs,
            args.seconds,
            measure::SETUPS,
            &measure::Mode::Untraced,
        )
        .map(|outcome| Report::end_to_end(&args.workload, &outcome))
    };
    match result {
        Ok(report) => {
            report.print(&args.workload, args.seed, args.trace);
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(error) => {
            eprintln!("perfbench: {} failed: {error}", args.workload.name);
            ExitCode::from(1)
        }
    }
}
