//! `oaf-runbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--short]`
//!
//! Prints human-readable lines, then a run record (`{"run": …}`), then
//! as its last line the result: `correct`, `attempted`, `failed` and the
//! metrics with units. Exits non-zero when any operation failed or any
//! read did not verify.

use oaf_runbench::report::{result_line, run_line};
use oaf_runbench::workloads::{run, Args, WORKLOADS};

#[global_allocator]
static ALLOC: oaf_runbench::alloc::Counting = oaf_runbench::alloc::Counting;

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        short: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--short" {
            args.short = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("runbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("runbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{}: {} ops attempted, {} failed (failed_op_ratio {ratio})",
        args.workload, out.attempted, out.failed
    );
    for m in &out.metrics {
        println!("  {:<42} {:>14.3} {}", m.name, m.value, m.unit);
    }
    let mut info = out.info;
    info.push(("failed_op_ratio", format!("{ratio}")));
    println!(
        "{}",
        run_line(&args.workload, args.seed, args.seconds, args.trace, &info)
    );
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    if !out.correct {
        std::process::exit(1);
    }
}
