//! `dcn-benchmark` — runs one workload of the benchmark and prints its
//! metrics; the last line of standard output is the JSON result.
//!
//! ```text
//! dcn-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--serve-bin PATH]
//! ```
//!
//! Exit codes: 0 when every output checked was correct, 1 on a wrong
//! output (the result line says `"correct": false`), 2 on a usage or
//! set-up error (no result line).

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use dcn_benchmark::report::{END_TO_END, PER_LAYER};
use dcn_benchmark::tracer::Tracer;
use dcn_benchmark::{commit, nproc, rss, run, RunArgs};

fn parse() -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        serve_bin: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.workload.is_empty() || args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--workload and a positive --seconds are required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("dcn-benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    let tracer = Arc::new(Tracer::new(args.trace));
    let mut report = match run(&args, &tracer) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("dcn-benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.workload != "serve-wire" {
        match rss::self_vm_hwm_mib() {
            Some(mib) => report.set_sampled("peak_rss_mb", mib, None, "VmHWM of this process"),
            None => {
                eprintln!("dcn-benchmark: cannot read VmHWM");
                return ExitCode::from(2);
            }
        }
    }
    let width = nproc();
    let (shards, workers) = match args.workload.as_str() {
        "online-churn" => (width.to_string(), "-".to_string()),
        "serve-wire" => ("-".to_string(), "1".to_string()),
        _ => ("-".to_string(), "-".to_string()),
    };
    report.context.insert(
        0,
        format!(
            "workload {} seed {} seconds {} trace {} | nproc {width} commit {} pool {} \
             shards {shards} workers {workers}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            commit(),
            if args.workload == "offline-fig2" {
                width
            } else {
                1
            },
        ),
    );
    if args.trace {
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => report.context(format!("spans written to {}", path.display())),
            Err(e) => report.context(format!("spans not written: {e}")),
        }
        report.zero_missing_layers();
    }
    for line in report.human_lines() {
        println!("{line}");
    }
    let group: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match report.json(group) {
        Ok(json) => println!("{json}"),
        Err(msg) => {
            eprintln!("dcn-benchmark: {msg}");
            return ExitCode::from(2);
        }
    }
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
