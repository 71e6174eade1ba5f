//! `serve-wire`: the `dcn-serve` daemon on loopback TCP.
//!
//! Every phase spawns a fresh `dcn-serve --listen` (fat-tree(k=8), `edf`,
//! admit-all, one shard worker) and drives it over one connection with
//! the generator of [`crate::loadgen`]:
//!
//! * the base phase, open loop at 1000 req/s, gives the latencies and the
//!   answered-request rate;
//! * the ladder, open loop at fixed rates, gives `max_rate_rps`.
//!
//! Each stream is then replayed through an in-process `Server::start` +
//! `Server::request` with the same configuration; every wire reply must
//! equal the in-process reply byte for byte (`Busy` replies are excepted,
//! and their requests are left out of the replay).

use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dcn_flow::Flow;
use dcn_server::{
    decode_request, encode_frame, RequestBody, ResponseBody, Server, ServerConfig, TopologySpec,
};
use dcn_topology::NodeId;

use crate::bound::fluid_lower_bound;
use crate::loadgen::{classify, drive, schedule, Scheduled, WireOutcome};
use crate::report::Report;
use crate::rss::vm_hwm_mib;
use crate::stats::{mean, median, percentile, tail};
use crate::tracer::Tracer;
use crate::{derive_seed, finish_latency, ms, RunArgs};

/// Topology builds timed per run (the median is reported).
const BUILD_REPS: usize = 31;

/// Fat-tree arity of the daemon's fabric.
const K: usize = 8;
/// Offered rate of the base phase, requests per second.
const BASE_RATE: f64 = 1000.0;
/// Share of the run's seconds the base phase lasts.
const BASE_SHARE: f64 = 0.4;
/// Offered rates of the ladder, requests per second.
const LADDER: [f64; 5] = [2000.0, 4000.0, 8000.0, 16000.0, 32000.0];
/// Share of the run's seconds each ladder rung lasts.
const RUNG_SHARE: f64 = 0.05;
/// Latency limit of the ladder, on the p99 from due time.
const LIMIT_MS: f64 = 10.0;
/// Extra daemons spawned and shut down only to time start-up.
const SETUP_SPAWNS: usize = 15;
/// How long the client waits for a reply before giving up.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// The daemon configuration, as command-line flags and in-process.
fn config(seed: u64) -> (Vec<String>, ServerConfig) {
    let flags = [
        "--topology",
        "fat-tree:8",
        "--shard-workers",
        "1",
        "--policy",
        "edf",
        "--admission",
        "admit-all",
    ];
    let mut flags: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
    flags.extend(["--seed".to_string(), seed.to_string()]);
    let mut config = ServerConfig::new(TopologySpec::FatTree { k: K });
    config.seed = seed;
    (flags, config)
}

/// A spawned daemon with an open connection. Dropping it kills the
/// process if it has not exited, and waits for it.
struct Daemon {
    child: Child,
    stream: Option<TcpStream>,
    setup: Duration,
}

impl Daemon {
    fn spawn(bin: &Path, flags: &[String]) -> Result<Self, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let t = Instant::now();
        let child = Command::new(bin)
            .arg("--listen")
            .arg(&addr)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            stream: None,
            setup: Duration::ZERO,
        };
        loop {
            if let Ok(stream) = TcpStream::connect(&addr) {
                daemon.setup = t.elapsed();
                daemon.stream = Some(stream);
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("dcn-serve exited before accepting: {status}"));
            }
            if t.elapsed() > Duration::from_secs(10) {
                return Err("dcn-serve did not accept within 10 s".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Waits up to 10 s for the daemon to exit after `Shutdown`.
    fn finish(mut self) -> Result<(), String> {
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(10) {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("dcn-serve exited with {status}")),
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        Err("dcn-serve did not exit after Shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One phase over the wire.
struct Phase {
    schedule: Vec<Scheduled>,
    wire: WireOutcome,
    setup: Duration,
    rss_mib: Option<f64>,
}

fn run_phase(bin: &Path, seed: u64, schedule: Vec<Scheduled>) -> Result<Phase, String> {
    let (flags, _) = config(seed);
    let mut daemon = Daemon::spawn(bin, &flags)?;
    let stream = daemon.stream.take().expect("connected");
    let pid = daemon.child.id();
    let rss = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&rss);
    let wire = drive(stream, &schedule, Instant::now(), READ_TIMEOUT, move || {
        *slot.lock().expect("rss slot") = vm_hwm_mib(pid)
    })
    .map_err(|e| format!("connection failed: {e}"))?;
    let setup = daemon.setup;
    daemon.finish()?;
    let rss_mib = *rss.lock().expect("rss slot");
    Ok(Phase {
        schedule,
        wire,
        setup,
        rss_mib,
    })
}

/// Reply tallies of one phase.
#[derive(Default)]
struct Tally {
    sent: usize,
    busy: usize,
    errors: usize,
    unanswered: usize,
}

fn tally(phase: &Phase) -> Tally {
    let mut t = Tally {
        sent: phase.schedule.len(),
        ..Tally::default()
    };
    for i in 0..t.sent {
        match phase.wire.response(i) {
            Some(r) => {
                let (busy, error) = classify(&r);
                t.busy += usize::from(busy);
                t.errors += usize::from(error);
            }
            None => t.unanswered += 1,
        }
    }
    t
}

/// The in-process replay of one phase.
struct Replay {
    /// In-process `Server::request` time per replayed request, in µs.
    request_us: Vec<Option<f64>>,
    /// Decode + encode time per replayed request, in µs.
    codec_us: Vec<f64>,
    /// Wire replies that differ from the in-process ones.
    mismatches: Vec<usize>,
    /// Energy of the committed plans, the fluid bound of the admitted
    /// flows, and admitted / missed counts.
    energy: f64,
    bound: f64,
    admitted: usize,
    missed: usize,
    seconds: f64,
}

fn replay(phase: &Phase, seed: u64, tracer: &Tracer) -> Result<Replay, String> {
    let (_, config) = config(seed);
    let power = config.power;
    let built = config.topology.build();
    let mut server = Server::start(config).map_err(|e| format!("in-process server: {e}"))?;
    let n = phase.schedule.len();
    let mut out = Replay {
        request_us: vec![None; n],
        codec_us: Vec::with_capacity(n),
        mismatches: Vec::new(),
        energy: 0.0,
        bound: 0.0,
        admitted: 0,
        missed: 0,
        seconds: 0.0,
    };
    let mut admitted_flows: Vec<Flow> = Vec::new();
    let begin = Instant::now();
    for (i, s) in phase.schedule.iter().enumerate() {
        let wire = phase.wire.response(i);
        if wire.as_ref().is_some_and(|r| classify(r).0) {
            continue;
        }
        let key = i as u64;
        let root = tracer.open("server.replay", 0, key);
        let frame = encode_frame(&s.request);
        let payload =
            &frame[frame.iter().position(|&b| b == b'\n').expect("prefix") + 1..frame.len() - 1];
        let (request, decode) =
            tracer.time("server.decode", root.id(), key, || decode_request(payload));
        let request = request.map_err(|e| format!("request {i} does not decode: {e:?}"))?;
        let (response, took) =
            tracer.time("server.request", root.id(), key, || server.request(request));
        let (reply, encode) =
            tracer.time("server.encode", root.id(), key, || encode_frame(&response));
        tracer.close(root);
        out.request_us[i] = Some(took.as_secs_f64() * 1e6);
        out.codec_us.push((decode + encode).as_secs_f64() * 1e6);
        if let Some(got) = &phase.wire.replies[i] {
            if *got != reply {
                out.mismatches.push(i);
            }
        }
        if let (RequestBody::SubmitFlow(f), ResponseBody::Admit(a)) =
            (&s.request.body, &response.body)
        {
            if a.admitted {
                admitted_flows.push(
                    Flow::new(
                        admitted_flows.len(),
                        NodeId(f.src),
                        NodeId(f.dst),
                        f.release,
                        f.deadline,
                        f.volume,
                    )
                    .map_err(|e| format!("admitted flow {i} is invalid: {e}"))?,
                );
            }
        }
    }
    out.seconds = begin.elapsed().as_secs_f64();
    let snapshot = server
        .collect_snapshot()
        .map_err(|e| format!("snapshot collection failed: {e}"))?;
    server.shutdown();
    out.missed = snapshot.missed_count();
    out.admitted = admitted_flows.len();
    out.energy = snapshot
        .schedule(&built.network)
        .map_err(|e| format!("committed plans do not form a schedule: {e:?}"))?
        .energy(&power)
        .total();
    out.bound = fluid_lower_bound(&built.csr(), &admitted_flows, &power);
    Ok(out)
}

/// Fails the report on a repeated or unknown reply id, or on a wire reply
/// that differs from the in-process one.
fn check_wire(report: &mut Report, phase: &Phase, replay: &Replay) {
    if phase.wire.stray > 0 {
        report.fail(format!(
            "{} replies to unknown or repeated request ids",
            phase.wire.stray
        ));
    }
    if let Some(&i) = replay.mismatches.first() {
        report.fail(format!(
            "{} wire replies differ from the in-process replies (first: request {i})",
            replay.mismatches.len()
        ));
    }
}

/// Latencies (ms from due time) of the answered, non-`Busy` requests.
fn latencies(phase: &Phase) -> Vec<f64> {
    (0..phase.schedule.len())
        .filter(|&i| phase.wire.response(i).is_some_and(|r| !classify(&r).0))
        .filter_map(|i| phase.wire.latency_ms(i))
        .collect()
}

/// Offered rate of an open-loop schedule, requests per second.
fn offered_rps(phase: &Phase) -> f64 {
    let span = phase.schedule.last().map_or(0, |s| s.due_ns) as f64 / 1e9;
    phase.schedule.len() as f64 / span.max(f64::MIN_POSITIVE)
}

/// Whether a ladder rung met the limit: everything answered, no `Busy`,
/// no error, p99 within [`LIMIT_MS`], and no growing backlog (the last
/// quarter's median latency within twice the first quarter's plus 1 ms).
fn rung_passes(phase: &Phase) -> (bool, f64) {
    let t = tally(phase);
    let lat = latencies(phase);
    let p99 = percentile(&lat, 99.0).unwrap_or(f64::INFINITY);
    let q = lat.len() / 4;
    let growing = q > 0 && {
        let first = median(&lat[..q]).unwrap_or(0.0);
        let last = median(&lat[lat.len() - q..]).unwrap_or(0.0);
        last > 2.0 * first + 1.0
    };
    let ok = t.busy == 0 && t.errors == 0 && t.unanswered == 0 && p99 <= LIMIT_MS && !growing;
    (ok, p99)
}

pub fn run(args: &RunArgs, tracer: &Arc<Tracer>, bin: &Path) -> Result<Report, String> {
    let mut report = Report::new();
    // The daemon builds its fabric with the same call at start-up.
    let builds: Vec<f64> = (0..BUILD_REPS)
        .map(|_| {
            let t = Instant::now();
            drop(TopologySpec::FatTree { k: K }.build());
            ms(t.elapsed())
        })
        .collect();
    report.set_sampled(
        "topology.build_ms",
        median(&builds).unwrap_or(0.0),
        Some(builds.len()),
        "median TopologySpec::build",
    );
    let hosts = TopologySpec::FatTree { k: K }.build().hosts;
    let seed = args.seed;
    report.context(format!(
        "serve-wire: dcn-serve --listen on loopback, fat-tree(k={K}), edf, admit-all, \
         1 shard worker; base {BASE_RATE} req/s open loop, ladder {LADDER:?} req/s; 4:1 SubmitFlow:QueryFlow at load {}",
        crate::loadgen::LOAD
    ));

    let mut setups = Vec::with_capacity(SETUP_SPAWNS + 1 + LADDER.len());
    for _ in 0..SETUP_SPAWNS {
        setups.push(run_phase(bin, seed, Vec::new())?.setup);
    }
    let base_count = (BASE_RATE * BASE_SHARE * args.seconds).round().max(100.0) as usize;
    let base = run_phase(
        bin,
        seed,
        schedule(derive_seed(seed, 3, 0), BASE_RATE, base_count, &hosts),
    )?;
    setups.push(base.setup);

    let mut max_rate: f64 = 0.0;
    let mut rungs = Vec::new();
    for (r, &rate) in LADDER.iter().enumerate() {
        let count = (rate * RUNG_SHARE * args.seconds).round().max(100.0) as usize;
        let phase = run_phase(
            bin,
            seed,
            schedule(derive_seed(seed, 4, r as u64), rate, count, &hosts),
        )?;
        setups.push(phase.setup);
        let (ok, p99) = rung_passes(&phase);
        report.context(format!(
            "ladder {rate} req/s: offered {:.1}, p99 {p99:.3} ms, {}",
            offered_rps(&phase),
            if ok {
                "meets the limit"
            } else {
                "misses the limit"
            }
        ));
        if ok {
            max_rate = max_rate.max(offered_rps(&phase));
        }
        rungs.push(phase);
    }

    // Correctness: one reply per request, and the wire equals the
    // in-process server on the same stream.
    let quiet = Tracer::new(false);
    let base_replay = replay(&base, seed, &quiet)?;
    check_wire(&mut report, &base, &base_replay);
    for phase in &rungs {
        check_wire(&mut report, phase, &replay(phase, seed, &quiet)?);
    }

    let setup_s: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    report.set_sampled(
        "setup_s",
        median(&setup_s).unwrap_or(0.0),
        Some(setup_s.len()),
        "median spawn-to-accept of every daemon started",
    );

    let base_lat = latencies(&base);
    let last_recv = base
        .wire
        .recv_ns
        .iter()
        .flatten()
        .max()
        .copied()
        .unwrap_or(1);
    report.set_sampled(
        "ops_per_s",
        base_lat.len() as f64 / (last_recv as f64 / 1e9),
        Some(base_lat.len()),
        &format!("requests answered per second at {BASE_RATE} req/s offered"),
    );
    finish_latency(
        &mut report,
        &base_lat,
        "from due time at the base rate",
        99.0,
    );
    report.set_sampled(
        "energy_ratio",
        base_replay.energy / base_replay.bound,
        Some(base_replay.admitted),
        "committed-plan energy / fluid per-flow bound, base phase",
    );
    if base_replay.energy < base_replay.bound * (1.0 - 1e-9) {
        report.fail(format!(
            "committed energy {} is below the fluid lower bound {}",
            base_replay.energy, base_replay.bound
        ));
    }
    report.set_sampled(
        "peak_rss_mb",
        base.rss_mib.ok_or("could not read the daemon's VmHWM")?,
        None,
        "VmHWM of the base-phase dcn-serve",
    );

    let base_t = tally(&base);
    let failed = base_t.busy + base_t.errors + base_t.unanswered;
    report.attempted = base_t.sent as u64;
    report.failed = failed as u64;
    report.set_sampled(
        "error_rate",
        failed as f64 / base_t.sent as f64,
        Some(base_t.sent),
        "Busy, error frames and unanswered requests of the base phase",
    );
    report.set_sampled(
        "miss_rate",
        base_replay.missed as f64 / base_replay.admitted.max(1) as f64,
        Some(base_replay.admitted),
        &format!("{} misses", base_replay.missed),
    );
    report.set("reject_rate", 0.0);
    report.set_sampled(
        "max_rate_rps",
        max_rate,
        Some(LADDER.len()),
        &format!("p99 <= {LIMIT_MS} ms"),
    );

    let request_us: Vec<f64> = base_replay.request_us.iter().flatten().copied().collect();
    report.set_sampled(
        "server.request_us_p50",
        median(&request_us).unwrap_or(0.0),
        Some(request_us.len()),
        "in-process Server::request",
    );
    report.set_sampled(
        "server.request_us_p99",
        percentile(&request_us, 99.0).unwrap_or(0.0),
        Some(request_us.len()),
        "in-process Server::request",
    );
    report.set_sampled(
        "server.codec_us",
        mean(&base_replay.codec_us).unwrap_or(0.0),
        Some(base_replay.codec_us.len()),
        "mean decode_request + encode_frame",
    );
    let wire_ms: Vec<f64> = (0..base.schedule.len())
        .filter_map(|i| Some(base.wire.latency_ms(i)? - base_replay.request_us[i]? / 1e3))
        .collect();
    report.set_sampled(
        "server.wire_ms_p50",
        median(&wire_ms).unwrap_or(0.0),
        Some(wire_ms.len()),
        "client latency minus in-process request time",
    );
    report.set("server.busy", base_t.busy as f64);
    report.set("server.errors", base_t.errors as f64);
    report.set("server.unanswered", base_t.unanswered as f64);
    let bytes: Vec<f64> = base
        .wire
        .replies
        .iter()
        .flatten()
        .map(|r| r.len() as f64)
        .collect();
    report.set_sampled(
        "server.reply_bytes",
        mean(&bytes).unwrap_or(0.0),
        Some(bytes.len()),
        "mean frame",
    );
    let late: Vec<f64> = (0..base.schedule.len())
        .map(|i| base.wire.late_ms(i))
        .collect();
    report.set_sampled(
        "client.late_ms_p99",
        percentile(&late, 99.0).unwrap_or(0.0),
        Some(late.len()),
        "sender lateness at the base rate",
    );
    report.set("client.offered_rps", offered_rps(&base));
    report.set("client.sent", base.schedule.len() as f64);
    if let Some(t) = tail(&base_lat) {
        report.context(format!(
            "base phase: {} requests, latency p50 {:.3} ms, p{} {:.3} ms from due time",
            base_lat.len(),
            median(&base_lat).unwrap_or(0.0),
            t.percentile,
            t.value
        ));
    }

    if tracer.enabled() {
        // Replay the base stream once more with spans on; the untraced
        // replay above is the overhead baseline.
        let traced = replay(&base, seed, tracer)?;
        let (with, without) = (
            base.schedule.len() as f64 / traced.seconds,
            base.schedule.len() as f64 / base_replay.seconds,
        );
        report.context(format!(
            "tracing overhead: in-process replay {with:.0} req/s traced vs {without:.0} untraced \
             ({:+.2}%)",
            100.0 * (with - without) / without
        ));
        let totals = tracer.totals();
        let per = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.self_ns as f64 / 1e3 / t.count.max(1) as f64)
        };
        report.context(format!(
            "span self time per request: decode {:.2} us, request {:.2} us, encode {:.2} us",
            per("server.decode"),
            per("server.request"),
            per("server.encode")
        ));
    }
    Ok(report)
}
