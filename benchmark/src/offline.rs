//! `offline-fig2`: the paper's Fig. 2 instances on fat-tree(k=8).
//!
//! Each instance is solved by `dcfsr` (Random-Schedule) and `sp-mcf` on one
//! warm `SolverContext` whose pool is as wide as the machine, then both
//! schedules are verified and simulated. With tracing on, `dcfsr` is run as
//! its public composition (relax, round, energy) and `sp-mcf` as route +
//! Most-Critical-First, each call under its own span, and the energies are
//! checked bit for bit against the registry's `solve`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dcn_bench::{harness_fmcf_config, harness_registry};
use dcn_core::{
    most_critical_first, ParallelConfig, RandomSchedule, RandomScheduleConfig, Routing, Schedule,
    ScheduleViolation, SolveError, SolverContext,
};
use dcn_flow::workload::UniformWorkload;
use dcn_flow::FlowSet;
use dcn_power::PowerFunction;
use dcn_sim::Simulator;
use dcn_topology::builders;

use crate::report::Report;
use crate::stats::{mean, median};
use crate::tracer::{SpanTotals, Tracer};
use crate::{derive_seed, finish_latency, ms, nproc, RunArgs};

/// Fat-tree arity of the Fig. 2 fabric (80 switches, 128 hosts).
const K: usize = 8;

/// The repeating instance pattern `(flows, alpha)`: the 40-flow points
/// are the common case and every third instance is an 80-flow point, so
/// the median stays inside the 40-flow mode and the tail inside the
/// 80-flow mode.
const CYCLE: [(usize, f64); 6] = [
    (40, 2.0),
    (40, 4.0),
    (80, 2.0),
    (40, 4.0),
    (40, 2.0),
    (80, 4.0),
];

/// Highest percentile of the latency tail. p90 needs 100 instances, which
/// a run reaches on a fast machine and misses on a slow one, so the tail
/// would move between rungs with the machine's speed; p75 needs 40.
const TAIL_TOP: f64 = 75.0;

/// Set-ups timed before the first instance; one more is timed before
/// every instance, so the samples span the whole run.
const SETUP_REPS: usize = 5;

/// Share of a traced run spent untraced, as the overhead baseline.
const UNTRACED_SHARE: f64 = 0.3;

/// What one instance produced.
struct Solved {
    latency: Duration,
    rs: Schedule,
    sp: Schedule,
    lower_bound: f64,
}

/// Per-layer accumulators of the traced segment.
#[derive(Default)]
struct Layers {
    relax_intervals: u64,
    relax_commodities: u64,
    fw_iterations: u64,
    fw_converged: u64,
    round_attempts: u64,
    paths: u64,
    flows: u64,
    sp_ratio: Vec<f64>,
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
        let ctx = SolverContext::from_network(&topo.network).expect("fat-tree validates");
        drop(ctx.with_parallelism(ParallelConfig::with_threads(width)));
        setup.push(t.elapsed());
    };
    for _ in 1..SETUP_REPS {
        time_setup(&mut setup, &mut build);
    }
    let t = Instant::now();
    let topo = builders::fat_tree(K);
    build.push(t.elapsed());
    let mut ctx = SolverContext::from_network(&topo.network)
        .expect("fat-tree validates")
        .with_parallelism(ParallelConfig::with_threads(width));
    setup.push(t.elapsed());

    report.context(format!(
        "offline-fig2: {} ({} hosts), instances {:?} (flows, alpha), pool width {width}",
        topo.name,
        topo.hosts().len(),
        CYCLE
    ));

    let registry = harness_registry();
    let mut rs = registry.create("dcfsr").expect("dcfsr is registered");
    let mut sp = registry.create("sp-mcf").expect("sp-mcf is registered");

    let traced = tracer.enabled();
    let untraced_for = if traced {
        args.seconds * UNTRACED_SHARE
    } else {
        args.seconds
    };
    let start = Instant::now();
    let mut latencies: Vec<f64> = Vec::new();
    let mut traced_latencies: Vec<f64> = Vec::new();
    let mut busy = Duration::ZERO;
    let mut ratios: Vec<f64> = Vec::new();
    let mut misses = 0usize;
    let mut verify_failures = 0usize;
    let mut over_capacity = 0usize;
    let mut layers = Layers::default();
    let mut verify_time = Duration::ZERO;
    let mut sim_time = Duration::ZERO;
    let quiet = Tracer::new(false);
    let mut i = 0usize;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let in_trace = traced && elapsed >= untraced_for;
        // Stop at the deadline, but always finish a whole cycle.
        if elapsed >= args.seconds && i.is_multiple_of(CYCLE.len()) && i > 0 {
            break;
        }
        let (n, alpha) = CYCLE[i % CYCLE.len()];
        let seed = derive_seed(args.seed, 1, i as u64);
        let power = PowerFunction::speed_scaling_only(1.0, alpha, builders::DEFAULT_CAPACITY);
        let flows = UniformWorkload::paper_defaults(n, seed)
            .generate(topo.hosts())
            .expect("fat-tree has hosts");
        time_setup(&mut setup, &mut build);
        report.attempted += 1;
        let op = Instant::now();
        let solved = if in_trace {
            solve_traced(
                &mut ctx,
                &flows,
                &power,
                seed,
                i as u64,
                tracer,
                &mut layers,
            )
            .map(|(solved, same)| {
                if !same {
                    report.fail(format!(
                        "instance {i}: traced decomposition differs from registry solve"
                    ));
                }
                solved
            })
        } else {
            rs.set_seed(seed);
            let a = rs.solve(&mut ctx, &flows, &power);
            let b = sp.solve(&mut ctx, &flows, &power);
            match (a, b) {
                (Ok(a), Ok(b)) => Some(Solved {
                    latency: op.elapsed(),
                    lower_bound: a.lower_bound.expect("dcfsr reports its bound"),
                    rs: a.schedule.expect("dcfsr schedules"),
                    sp: b.schedule.expect("sp-mcf schedules"),
                }),
                _ => None,
            }
        };
        let Some(solved) = solved else {
            report.failed += 1;
            busy += op.elapsed();
            i += 1;
            continue;
        };
        let simulator = Simulator::new(power);
        let spans = if in_trace { tracer.as_ref() } else { &quiet };
        let open = spans.open("verify", 0, i as u64);
        for (name, schedule) in [("dcfsr", &solved.rs), ("sp-mcf", &solved.sp)] {
            match ctx.verify(schedule, &flows, &power) {
                Ok(()) => {}
                // Most-Critical-First ignores the rate cap by design and
                // rounding may overshoot it; overload is data, not a
                // wrong output.
                Err(SolveError::Verification(e))
                    if e.violations
                        .iter()
                        .all(|v| matches!(v, ScheduleViolation::CapacityExceeded { .. })) =>
                {
                    over_capacity += 1;
                }
                Err(e) => {
                    verify_failures += 1;
                    report.fail(format!(
                        "instance {i}: {name} schedule fails verification: {e}"
                    ));
                }
            }
        }
        let took = spans.close(open);
        if in_trace {
            verify_time += took;
        }
        let open = spans.open("sim", 0, i as u64);
        let rs_sim = simulator.run_ctx(&ctx, &flows, &solved.rs);
        let sp_sim = simulator.run_ctx(&ctx, &flows, &solved.sp);
        let took = spans.close(open);
        busy += op.elapsed();
        if in_trace {
            sim_time += took;
            layers
                .sp_ratio
                .push(sp_sim.energy.total() / solved.lower_bound);
        }
        misses += rs_sim.deadline_misses + sp_sim.deadline_misses;
        if rs_sim.deadline_misses + sp_sim.deadline_misses > 0 {
            report.fail(format!("instance {i}: simulated deadline misses"));
        }
        let energy = rs_sim.energy.total();
        if energy < solved.lower_bound * (1.0 - 1e-9) {
            report.fail(format!(
                "instance {i}: dcfsr energy {energy} is below the lower bound {}",
                solved.lower_bound
            ));
        }
        ratios.push(energy / solved.lower_bound);
        if in_trace {
            traced_latencies.push(ms(solved.latency));
        } else {
            latencies.push(ms(solved.latency));
        }
        i += 1;
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
    let done = report.attempted - report.failed;
    report.set_sampled(
        "ops_per_s",
        done as f64 / busy.as_secs_f64(),
        Some(done as usize),
        "instances per second of solve + verify + simulate",
    );
    let timed = if traced {
        &traced_latencies
    } else {
        &latencies
    };
    finish_latency(&mut report, timed, "per instance, dcfsr + sp-mcf", TAIL_TOP);
    report.set_sampled(
        "energy_ratio",
        mean(&ratios).unwrap_or(0.0),
        Some(ratios.len()),
        "mean simulated dcfsr energy / fractional LB",
    );
    report.set("miss_rate", 0.0);
    report.set("reject_rate", 0.0);
    report.set(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set("sim.misses", misses as f64);
    report.context(format!(
        "{over_capacity} of {} schedules exceed a link capacity (allowed: Most-Critical-First \
         ignores the rate cap, randomized rounding may overshoot it)",
        2 * (report.attempted - report.failed)
    ));
    report.set("verify.failures", verify_failures as f64);

    if traced {
        let totals = tracer.totals();
        let per = |name: &str| -> SpanTotals { totals.get(name).copied().unwrap_or_default() };
        let mean_ms = |t: SpanTotals| t.self_ns as f64 / 1e6 / t.count.max(1) as f64;
        let relax = per("relax");
        report.set("relax.calls", relax.count as f64);
        report.set_sampled(
            "relax.ms",
            mean_ms(relax),
            Some(relax.count as usize),
            "mean self time per call",
        );
        let calls = relax.count.max(1) as f64;
        report.set("relax.intervals", layers.relax_intervals as f64 / calls);
        report.set("relax.commodities", layers.relax_commodities as f64 / calls);
        report.set("relax.fw_iterations", layers.fw_iterations as f64 / calls);
        report.set(
            "relax.fw_converged_share",
            layers.fw_converged as f64 / layers.relax_intervals.max(1) as f64,
        );
        let round = per("round");
        let energy = per("round.energy");
        report.set_sampled(
            "round.ms",
            (round.self_ns + energy.self_ns) as f64 / 1e6 / round.count.max(1) as f64,
            Some(round.count as usize),
            "mean per instance, rounding + energy accounting",
        );
        report.set(
            "round.attempts",
            layers.round_attempts as f64 / round.count.max(1) as f64,
        );
        report.set(
            "round.paths_per_flow",
            layers.paths as f64 / layers.flows.max(1) as f64,
        );
        report.set_sampled(
            "mcf.route_ms",
            mean_ms(per("route")),
            Some(per("route").count as usize),
            "mean",
        );
        report.set_sampled(
            "mcf.ms",
            mean_ms(per("mcf")),
            Some(per("mcf").count as usize),
            "mean",
        );
        report.set_sampled(
            "mcf.energy_ratio",
            mean(&layers.sp_ratio).unwrap_or(0.0),
            Some(layers.sp_ratio.len()),
            "mean simulated sp-mcf energy / fractional LB",
        );
        report.set(
            "verify.ms",
            ms(verify_time) / layers.sp_ratio.len().max(1) as f64,
        );
        report.set("sim.ms", ms(sim_time) / layers.sp_ratio.len().max(1) as f64);
        let (base, with) = (mean(&latencies), mean(&traced_latencies));
        if let (Some(base), Some(with)) = (base, with) {
            report.context(format!(
                "tracing overhead: mean latency {with:.3} ms traced vs {base:.3} ms untraced \
                 ({:+.2}%, n={} / {})",
                100.0 * (with - base) / base,
                traced_latencies.len(),
                latencies.len()
            ));
        }
    }
    report
}

/// Solves one instance through the public composition of `dcfsr` and
/// `sp-mcf`, one span per call, then re-solves it through the registry
/// (outside the measured latency). The flag says whether both energies
/// and the bound agree bit for bit.
fn solve_traced(
    ctx: &mut SolverContext<'_>,
    flows: &FlowSet,
    power: &PowerFunction,
    seed: u64,
    key: u64,
    tracer: &Tracer,
    layers: &mut Layers,
) -> Option<(Solved, bool)> {
    let begin = Instant::now();
    let root = tracer.open("offline.instance", 0, key);
    let config = RandomScheduleConfig {
        fmcf: harness_fmcf_config(),
        seed,
        ..Default::default()
    };
    let (relaxation, _) = tracer.time("relax", root.id(), key, || {
        ctx.relax(flows, power, &config.fmcf)
    });
    let relaxation = relaxation.ok()?;
    let threads = ctx.parallelism().threads;
    let (outcome, _) = tracer.time("round", root.id(), key, || {
        RandomSchedule::new(config).run_with_relaxation_threads(
            ctx.network(),
            flows,
            power,
            &relaxation,
            threads,
        )
    });
    let outcome = outcome.ok()?;
    let (rs_energy, _) = tracer.time("round.energy", root.id(), key, || {
        outcome.schedule.energy(power).total()
    });
    ctx.validate_flow_shape(flows).ok()?;
    let (paths, _) = tracer.time("route", root.id(), key, || {
        ctx.route(&Routing::ShortestPath, flows)
    });
    let paths = paths.ok()?;
    let (sp, _) = tracer.time("mcf", root.id(), key, || {
        most_critical_first(ctx.network(), flows, &paths, power).map(|s| {
            let e = s.energy(power).total();
            (s, e)
        })
    });
    let (sp, sp_energy) = sp.ok()?;
    tracer.close(root);
    let latency = begin.elapsed();

    layers.relax_intervals += relaxation.intervals.len() as u64;
    for interval in &relaxation.intervals {
        layers.relax_commodities += interval.flow_ids.len() as u64;
        layers.fw_iterations += interval.solution.iterations as u64;
        layers.fw_converged += u64::from(interval.solution.converged);
    }
    layers.round_attempts += outcome.attempts as u64;
    layers.paths += outcome.candidates.iter().map(Vec::len).sum::<usize>() as u64;
    layers.flows += outcome.candidates.len() as u64;

    // The decomposition must be exactly what the registry runs.
    let registry = harness_registry();
    let mut dcfsr = registry.create("dcfsr").expect("dcfsr is registered");
    dcfsr.set_seed(seed);
    let check_rs = dcfsr.solve(ctx, flows, power).ok()?;
    let check_sp = registry
        .create("sp-mcf")
        .expect("sp-mcf is registered")
        .solve(ctx, flows, power)
        .ok()?;
    let same = check_rs.total_energy().map(f64::to_bits) == Some(rs_energy.to_bits())
        && check_rs.lower_bound.map(f64::to_bits) == Some(relaxation.lower_bound.to_bits())
        && check_sp.total_energy().map(f64::to_bits) == Some(sp_energy.to_bits());
    Some((
        Solved {
            latency,
            rs: outcome.schedule,
            sp,
            lower_bound: relaxation.lower_bound,
        },
        same,
    ))
}
