//! Every workload at a tiny scale: it must run, pass its oracle checks and
//! print exactly the metric names `BENCHMARK.json` lists, untraced and
//! traced. Run with `cargo test --release --manifest-path
//! benchmark/Cargo.toml`.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["pnn_uniform", "churn_mixed", "fleet_sharded", "dense_lines"];

/// The metric names of one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\"")
        .skip(1)
        .map(|entry| entry.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

/// The metric names of a result line, in order.
fn printed(line: &str) -> Vec<String> {
    let pieces: Vec<&str> = line.split("\": {\"value\"").collect();
    pieces[..pieces.len() - 1]
        .iter()
        .map(|p| p.rsplit('"').next().expect("quoted name").to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_uv-benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--scale", "0.05"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_verifies_and_prints_the_listed_metrics() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = listed(section);
        assert!(!want.is_empty());
        for w in WORKLOADS {
            let line = run(w, trace);
            assert!(line.starts_with("{\"correct\": true, "), "{w}: {line}");
            assert_eq!(printed(&line), want, "{w} --trace {trace}");
        }
    }
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_uv-benchmark"))
        .args(["--workload", "nope", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
