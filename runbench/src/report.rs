//! Run records: the metadata line and the final result line.

use std::fmt::Write as _;
use std::path::Path;

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a number with every digit it was measured with.
fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            num(m.value),
            json_str(m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The repository root the benchmark was built from.
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
}

/// The commit the checkout is at when it is a git work tree; `"none"`
/// in an exported tree (git is not asked, so nothing outside the
/// checkout is read).
pub fn git_commit() -> String {
    let root = repo_root();
    if !root.join(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "none".into(), |s| s.trim().to_string())
}

/// The run record line: where and how the figures were taken.
pub fn run_line(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    extra: &[(&str, String)],
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = format!(
        "{{\"run\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"profile\": {}, \"rustc\": {}, \"git_commit\": {}",
        json_str(workload),
        num(seconds),
        u8::from(trace),
        json_str(env!("RUNBENCH_PROFILE")),
        json_str(env!("RUNBENCH_RUSTC")),
        json_str(&git_commit()),
    );
    for (k, v) in extra {
        let _ = write!(out, ", {}: {v}", json_str(k));
    }
    out.push_str("}}");
    out
}
