//! perfbench: one command for the program's two end-to-end paths — the
//! paper pipeline and the campaign service — with a traced run that breaks
//! each into its layers.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! Workloads: `paper-pipeline`, `serve-fresh`, `serve-repeat`. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and the measured `metrics`; the exit
//! code is 0 only when every correctness check held. `perfbench/run.py`
//! builds this binary and completes the metric set from `BENCHMARK.json`.

mod pipeline;
mod reference;
mod serve;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use util::{Outcome, Sink};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sink = Sink::default();
    let (attempted, failed) = match args.workload.as_str() {
        "paper-pipeline" => pipeline::run(host, args.seed, args.seconds, args.trace, &mut sink),
        "serve-fresh" | "serve-repeat" => {
            let dir = args
                .work_dir
                .join(format!("{}-{}", args.workload, std::process::id()));
            let result = serve::run(
                args.workload == "serve-repeat",
                args.seed,
                args.seconds,
                args.trace,
                &dir,
                &mut sink,
            );
            let _ = std::fs::remove_dir_all(&dir);
            result?
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    Ok(Outcome {
        correct: sink.failures.is_empty(),
        attempted,
        failed,
        metrics: sink.metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("perfbench: before the run, host probe {:.3} ms", util::host_probe_ms());
    let outcome = run(&args);
    eprintln!("perfbench: after the run, host probe {:.3} ms", util::host_probe_ms());
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
