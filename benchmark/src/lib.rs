//! The benchmark of the deadline-constrained scheduling stack.
//!
//! Three workloads drive the program through its public entry points and
//! time each layer from outside:
//!
//! * [`offline`] — `offline-fig2`, the paper's Fig. 2 instances through
//!   `SolverContext` + `AlgorithmRegistry`;
//! * [`online`] — `online-churn`, the `OnlineEngine` with the timing
//!   decorators of [`decor`];
//! * [`serve`] — `serve-wire`, the `dcn-serve` daemon over loopback TCP,
//!   driven by the open-loop generator of [`loadgen`].
//!
//! See `benchmark/README.md` for the workloads, metrics and how to run.

pub mod bound;
pub mod decor;
pub mod loadgen;
pub mod offline;
pub mod online;
pub mod report;
pub mod rss;
pub mod serve;
pub mod stats;
pub mod tracer;

use std::path::PathBuf;
use std::time::Duration;

use report::Report;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["offline-fig2", "online-churn", "serve-wire"];

/// The command line of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// Whether spans are recorded (per-layer metrics) or not (end-to-end).
    pub trace: bool,
    /// The `dcn-serve` binary (serve-wire only).
    pub serve_bin: Option<PathBuf>,
}

/// Worker width of the machine.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A seed for item `index` of input stream `stream`, derived from the run
/// seed (SplitMix64 finaliser, so neighbouring seeds share nothing).
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Records `latency_p50_ms` and `latency_tail_ms` from per-operation
/// times in milliseconds; the tail climbs the ladder no higher than `top`.
pub fn finish_latency(report: &mut Report, samples_ms: &[f64], what: &str, top: f64) {
    let n = samples_ms.len();
    report.set_sampled(
        "latency_p50_ms",
        stats::median(samples_ms).unwrap_or(0.0),
        Some(n),
        &format!("median {what}"),
    );
    match stats::tail_upto(samples_ms, top) {
        Some(t) => report.set_sampled(
            "latency_tail_ms",
            t.value,
            Some(n),
            &format!("p{} {what}, {} samples beyond it", t.percentile, t.beyond),
        ),
        None => report.set_sampled("latency_tail_ms", 0.0, Some(n), "fewer than 20 samples"),
    }
}

/// The commit the checkout was made from, when `.git` is present.
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one workload.
///
/// # Errors
///
/// Names an unknown workload or a missing `--serve-bin`.
pub fn run(args: &RunArgs, tracer: &std::sync::Arc<tracer::Tracer>) -> Result<Report, String> {
    match args.workload.as_str() {
        "offline-fig2" => Ok(offline::run(args, tracer)),
        "online-churn" => Ok(online::run(args, tracer)),
        "serve-wire" => {
            let bin = args
                .serve_bin
                .as_ref()
                .ok_or("serve-wire needs --serve-bin PATH")?;
            serve::run(args, tracer, bin)
        }
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}
