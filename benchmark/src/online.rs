//! `online-churn`: the `OnlineEngine` with `resolve` over `dcfsr`,
//! reject-infeasible admission, warm start, an epoch and pod shards, under
//! Poisson arrivals with websearch flow sizes and seeded link churn.
//!
//! The engine is assembled through `EngineConfig` only. The policy is
//! wrapped in a [`TimedPolicy`] (`policy_instance`); the re-solve
//! algorithm is resolved by name from a registry whose `dcfsr` factory
//! wraps each instance in a [`TimedAlgorithm`], so pod shards, which the
//! engine creates from the registry, are timed too.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dcn_bench::{harness_fmcf_config, harness_registry};
use dcn_core::online::{AdmissionRule, OnlineEngine, PolicyRegistry, ShardMode};
use dcn_core::{AlgorithmRegistry, SolverContext};
use dcn_flow::failure::FailureProcess;
use dcn_flow::workload::{ArrivalProcess, SizeDistribution, UniformWorkload};
use dcn_power::PowerFunction;
use dcn_topology::builders;

use crate::bound::volume_bound;
use crate::decor::{OnlineProbe, ProbeCounts, TimedAlgorithm, TimedPolicy};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::tracer::{covered_ns, Tracer};
use crate::{derive_seed, finish_latency, ms, nproc, RunArgs};

/// Fat-tree arity.
const K: usize = 8;
/// Poisson load factor (expected flows in flight).
const LOAD: f64 = 8.0;
/// Arrivals per engine run (a run is repeated until time is up).
const ARRIVALS: usize = 50;
/// Policy registry name.
const POLICY: &str = "resolve";
/// Re-solve epoch of the engine.
const EPOCH: f64 = 0.05;
/// Link failures per link per time unit.
const FAILURE_RATE: f64 = 2e-4;

/// Mean outage length of the churn stream, in time units.
const DOWNTIME: f64 = 1.0;

/// Set-ups timed before the first engine run; three more are timed
/// before every engine run, so the samples span the whole run.
const SETUP_REPS: usize = 5;
const SETUP_REPS_PER_RUN: usize = 3;

/// Share of a traced run spent untraced, as the overhead baseline.
const UNTRACED_SHARE: f64 = 0.3;

/// Sums over the engine runs of one segment (untraced or traced).
#[derive(Default)]
struct Segment {
    runs: usize,
    arrivals: u64,
    run_time: Duration,
    run_rates: Vec<f64>,
    intervals_ms: Vec<f64>,
    probe: ProbeCounts,
    resolve_union_ns: u64,
    events: u64,
    resolves: u64,
    solve_failures: u64,
    topology_events: u64,
    admitted: u64,
    rejected: u64,
    missed: u64,
    energy: f64,
    bound: f64,
}

impl Segment {
    fn absorb(&mut self, mut counts: ProbeCounts) {
        self.intervals_ms.extend(
            counts
                .event_ns
                .windows(2)
                .map(|w| (w[1] - w[0]) as f64 / 1e6),
        );
        // Shard solves run in parallel: count the wall time they cover.
        self.resolve_union_ns += covered_ns(&mut counts.resolve_spans, 0, u64::MAX);
        let p = &mut self.probe;
        p.policy_calls += counts.policy_calls;
        p.policy_ns += counts.policy_ns;
        p.admission_calls += counts.admission_calls;
        p.admission_ns += counts.admission_ns;
        p.admitted += counts.admitted;
        p.resolve_calls += counts.resolve_calls;
        p.live_sum += counts.live_sum;
        p.live_max = p.live_max.max(counts.live_max);
        p.live_samples += counts.live_samples;
    }

    /// Median over engine runs of arrivals per second of run time.
    fn arrivals_per_s(&self) -> f64 {
        median(&self.run_rates).unwrap_or(0.0)
    }
}

/// The algorithm registry of the online workloads: the harness registry
/// with `dcfsr` instances wrapped in [`TimedAlgorithm`].
pub fn timed_registry(probe: &Arc<OnlineProbe>) -> AlgorithmRegistry {
    let mut registry = harness_registry();
    let inner = harness_registry();
    let probe = Arc::clone(probe);
    registry.register("dcfsr", move || {
        Box::new(TimedAlgorithm::new(
            inner.create("dcfsr").expect("dcfsr is registered"),
            Arc::clone(&probe),
        ))
    });
    registry
}

pub fn run(args: &RunArgs, tracer: &Arc<Tracer>) -> Report {
    let mut report = Report::new();
    let width = nproc();

    let mut setup = Vec::new();
    let mut build = Vec::new();
    let time_setup = |setup: &mut Vec<Duration>, build: &mut Vec<Duration>| {
        let t = Instant::now();
        let topo = builders::fat_tree(K);
        build.push(t.elapsed());
        drop(SolverContext::from_network(&topo.network).expect("fat-tree validates"));
        setup.push(t.elapsed());
    };
    for _ in 1..SETUP_REPS {
        time_setup(&mut setup, &mut build);
    }
    let t = Instant::now();
    let topo = builders::fat_tree(K);
    build.push(t.elapsed());
    let mut ctx = SolverContext::from_network(&topo.network).expect("fat-tree validates");
    setup.push(t.elapsed());

    let power = PowerFunction::speed_scaling_only(1.0, 2.0, builders::DEFAULT_CAPACITY);
    let shards = ShardMode::Fixed(width);
    let admission = AdmissionRule::reject_infeasible(harness_fmcf_config());
    report.context(format!(
        "online-churn: {} ({} hosts), policy {POLICY}, admission {}, load {LOAD}, websearch \
         sizes, {ARRIVALS} arrivals per engine run, warm start, epoch {EPOCH}, shards \
         {shards:?}, failure rate {FAILURE_RATE} per link",
        topo.name,
        topo.hosts().len(),
        admission.name(),
    ));

    // Untraced engine runs report into a probe whose tracer records
    // nothing; traced runs into one that records spans.
    let plain_probe = OnlineProbe::new(Arc::new(Tracer::new(false)));
    let traced_probe = OnlineProbe::new(Arc::clone(tracer));
    let plain_registry = timed_registry(&plain_probe);
    let traced_registry = timed_registry(&traced_probe);
    let policies = PolicyRegistry::with_defaults();
    let traced = tracer.enabled();
    let untraced_for = if traced {
        args.seconds * UNTRACED_SHARE
    } else {
        0.0
    };
    let mut plain = Segment::default();
    let mut with_spans = Segment::default();
    let start = Instant::now();
    let mut j = 0u64;
    while j == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let in_trace = traced && start.elapsed().as_secs_f64() >= untraced_for;
        let (seg, probe, registry) = if in_trace {
            (&mut with_spans, &traced_probe, &traced_registry)
        } else {
            (&mut plain, &plain_probe, &plain_registry)
        };
        let seed = derive_seed(args.seed, 2, j);
        j += 1;
        let base = UniformWorkload::paper_defaults(ARRIVALS, seed)
            .generate(topo.hosts())
            .expect("fat-tree has hosts");
        let flows = ArrivalProcess::with_load(LOAD, seed)
            .sizes(SizeDistribution::WebSearch)
            .apply(&base)
            .expect("arrival rewrite keeps flows valid");
        let events = FailureProcess::new(1.0 / FAILURE_RATE, DOWNTIME, seed)
            .generate(topo.network.link_count(), flows.horizon().1);
        for _ in 0..SETUP_REPS_PER_RUN {
            time_setup(&mut setup, &mut build);
        }
        let policy = policies.create(POLICY).expect("policy is registered");
        let mut engine = OnlineEngine::builder()
            .policy_instance(Box::new(TimedPolicy::new(policy, Arc::clone(probe))))
            .algorithm("dcfsr")
            .algorithms(registry.clone())
            .admission(admission.clone())
            .warm_start(true)
            .epoch(EPOCH)
            .shards(shards)
            .seed(seed)
            .build()
            .expect("the workload configuration is valid");

        report.attempted += flows.len() as u64;
        let root = probe.tracer().open("online.run", 0, j);
        probe.set_parent(root.id());
        let t = Instant::now();
        let outcome = engine.run_with_events(&mut ctx, &flows, &power, &events);
        let took = t.elapsed();
        probe.tracer().close(root);
        seg.absorb(probe.take());
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                report.failed += flows.len() as u64;
                report.context(format!("engine run {j} failed: {e}"));
                continue;
            }
        };
        let r = &outcome.report;
        if r.decisions.len() != flows.len() || r.admitted() + r.rejected() != flows.len() {
            report.fail(format!(
                "engine run {j}: {} admitted + {} rejected != {} arrivals",
                r.admitted(),
                r.rejected(),
                flows.len()
            ));
        }
        report.failed += r.solve_failures as u64;
        seg.runs += 1;
        seg.arrivals += flows.len() as u64;
        seg.run_time += took;
        seg.run_rates.push(flows.len() as f64 / took.as_secs_f64());
        seg.events += r.events as u64;
        seg.resolves += r.resolves as u64;
        seg.solve_failures += r.solve_failures as u64;
        seg.topology_events += r.topology_events as u64;
        seg.admitted += r.admitted() as u64;
        seg.rejected += r.rejected() as u64;
        seg.missed += r.missed() as u64;
        seg.energy += r.online_energy;
        // The engine leaves the fabric as it found it, so the bound is
        // taken on the pristine graph, over the volume each admitted flow
        // was actually delivered (a miss moves less than its volume).
        seg.bound += r
            .decisions
            .iter()
            .filter(|d| d.admitted && d.delivered > 0.0)
            .map(|d| volume_bound(ctx.graph(), flows.flow(d.flow), d.delivered, &power))
            .sum::<f64>();
    }

    let setup_s: Vec<f64> = setup.iter().map(Duration::as_secs_f64).collect();
    report.set_sampled(
        "setup_s",
        median(&setup_s).unwrap_or(0.0),
        Some(setup_s.len()),
        "median",
    );
    let build_ms: Vec<f64> = build.iter().map(|d| ms(*d)).collect();
    report.set_sampled(
        "topology.build_ms",
        median(&build_ms).unwrap_or(0.0),
        Some(build_ms.len()),
        "median",
    );

    let seg = if traced { &with_spans } else { &plain };
    report.set_sampled(
        "ops_per_s",
        seg.arrivals_per_s(),
        Some(seg.arrivals as usize),
        &format!(
            "median over {} engine runs of arrivals per second",
            seg.runs
        ),
    );
    finish_latency(&mut report, &seg.intervals_ms, "per event batch", 99.0);
    report.set_sampled(
        "energy_ratio",
        seg.energy / seg.bound,
        Some(seg.admitted as usize),
        "online energy / fluid per-flow bound of the delivered volumes",
    );
    if seg.energy < seg.bound * (1.0 - 1e-9) {
        report.fail(format!(
            "online energy {} is below the fluid lower bound {}",
            seg.energy, seg.bound
        ));
    }
    let submitted = (seg.admitted + seg.rejected).max(1) as f64;
    report.set_sampled(
        "miss_rate",
        seg.missed as f64 / seg.admitted.max(1) as f64,
        Some(seg.admitted as usize),
        &format!("{} misses", seg.missed),
    );
    report.set_sampled(
        "reject_rate",
        seg.rejected as f64 / submitted,
        Some(submitted as usize),
        &format!("{} rejects", seg.rejected),
    );
    report.set_sampled(
        "error_rate",
        seg.solve_failures as f64 / seg.resolves.max(1) as f64,
        Some(seg.resolves as usize),
        "solve failures / re-solves",
    );
    report.set("topology.events", seg.topology_events as f64);

    if traced {
        let per_arrival = |ns: u64| ns as f64 / 1e6 / seg.arrivals.max(1) as f64;
        let p = &seg.probe;
        let run_ns = seg.run_time.as_nanos() as u64;
        report.set("online.run_ms", per_arrival(run_ns));
        report.set("online.events", seg.events as f64);
        report.set_sampled(
            "online.event_ms_p50",
            median(&seg.intervals_ms).unwrap_or(0.0),
            Some(seg.intervals_ms.len()),
            "median",
        );
        report.set_sampled(
            "online.event_ms_p99",
            percentile(&seg.intervals_ms, 99.0).unwrap_or(0.0),
            Some(seg.intervals_ms.len()),
            "p99",
        );
        report.set("online.policy_calls", p.policy_calls as f64);
        report.set("online.policy_ms", per_arrival(p.policy_ns));
        let own = run_ns.saturating_sub(p.policy_ns + p.admission_ns + seg.resolve_union_ns);
        report.set("online.engine_self_ms", per_arrival(own));
        report.set(
            "online.live_mean",
            p.live_sum as f64 / p.live_samples.max(1) as f64,
        );
        report.set("online.live_max", p.live_max as f64);
        report.set("online.admission_calls", p.admission_calls as f64);
        report.set("online.admission_ms", per_arrival(p.admission_ns));
        report.set(
            "online.admit_share",
            p.admitted as f64 / p.admission_calls.max(1) as f64,
        );
        report.set("online.resolve_calls", p.resolve_calls as f64);
        report.set("online.resolve_ms", per_arrival(seg.resolve_union_ns));
        report.set("online.solve_failures", seg.solve_failures as f64);
        if plain.runs > 0 {
            let (base, with) = (plain.arrivals_per_s(), seg.arrivals_per_s());
            report.context(format!(
                "tracing overhead: {with:.1} arrivals/s traced vs {base:.1} untraced ({:+.2}%)",
                100.0 * (with - base) / base
            ));
        }
    }
    report
}
