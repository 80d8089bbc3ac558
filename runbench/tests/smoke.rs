//! Short-mode smoke test: every workload runs briefly, timed and
//! traced, and reports every metric `BENCHMARK.json` names, with no
//! failed operation and with verification having run.
//!
//! Run with `cargo test --release` from `runbench/` (the debug build
//! works too, more slowly).

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["tcp-mixed-16k", "store-memdev-fua-mixed-16k", "h5-config2"];

/// Metric names of one section of `BENCHMARK.json` (`end_to_end` or
/// `per_layer`), read without a JSON parser: each entry is an object
/// whose first key is `"name"`.
fn names(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .expect("quoted name")
                .to_string()
        })
        .collect()
}

/// Runs one short invocation; returns (record line, result line).
fn run(workload: &str, trace: u8) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_oaf-runbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "9",
            "--seconds",
            "1",
            "--short",
        ])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: too little output:\n{stdout}");
    (
        lines[lines.len() - 2].to_string(),
        lines[lines.len() - 1].to_string(),
    )
}

fn field(line: &str, key: &str) -> u64 {
    let at = line
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    line[at + key.len() + 4..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{key} is not a count in {line}"))
}

fn check(workload: &str, trace: u8, expected: &[String]) {
    let (record, result) = run(workload, trace);
    assert!(
        result.starts_with("{\"correct\": true"),
        "{workload}: {result}"
    );
    assert_eq!(field(&result, "failed"), 0, "{workload}: {result}");
    assert!(field(&result, "attempted") > 0, "{workload}: {result}");
    assert!(
        field(&record, "verified_reads") > 0,
        "{workload}: no read was verified: {record}"
    );
    for name in expected {
        assert!(
            result.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload} trace={trace}: metric {name} missing from {result}"
        );
    }
    let metrics = result.matches("\"value\": ").count();
    assert_eq!(
        metrics,
        expected.len(),
        "{workload}: unexpected metrics in {result}"
    );
    for key in ["nproc", "profile", "rustc", "git_commit", "seed"] {
        assert!(
            record.contains(&format!("\"{key}\": ")),
            "{workload}: no {key} in {record}"
        );
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let expected = names("end_to_end");
    assert!(expected.iter().any(|n| n == "setup_s"));
    for w in WORKLOADS {
        check(w, 0, &expected);
    }
}

#[test]
fn every_workload_traces_every_per_layer_metric() {
    let expected = names("per_layer");
    assert!(expected.iter().any(|n| n == "trace.overhead_ratio"));
    for w in WORKLOADS {
        check(w, 1, &expected);
    }
}
