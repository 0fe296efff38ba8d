//! The repository benchmark: runs one workload against the public API of
//! `uv_core` and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload pnn_uniform --seed 1 --seconds 8 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans recorded and prints the per-layer metrics instead,
//! writing the spans to `.bench_trace/<workload>-<seed>.tsv`. The last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. A
//! failed operation — an `Err` from the system or an answer that fails its
//! oracle check — makes the command exit with code 1. `--scale` shrinks
//! the datasets and fleets for quick checks. The workloads and the metrics
//! are described in `BENCHMARK.json` and in `workloads.rs`.

mod deploy;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use workloads::{Args, Outcome};

const USAGE: &str =
    "usage: uv-benchmark --workload <pnn_uniform|churn_mixed|fleet_sharded|dense_lines> \
--seed <n> --seconds <s> --trace <0|1> [--scale <f>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 8.0,
        trace: false,
        scale: 1.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => args.scale = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.scale > 0.0) {
        return Err("--seconds and --scale must be positive".into());
    }
    Ok(args)
}

/// The result line. Values print with every digit Rust's shortest
/// round-trip formatting gives.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workloads::run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &outcome.metrics {
        println!("{:<34} {value:>16.4} {unit}", name);
    }
    println!(
        "{} operations, {} failed",
        outcome.attempted, outcome.failed
    );
    println!("{}", result_json(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
