//! The timing decorators must not change what the engine decides: a run
//! with every policy and algorithm call wrapped equals the bare run.

use std::sync::Arc;

use dcn_bench::{harness_fmcf_config, harness_registry};
use dcn_benchmark::decor::{OnlineProbe, TimedAlgorithm, TimedPolicy};
use dcn_benchmark::online::timed_registry;
use dcn_benchmark::tracer::Tracer;
use dcn_core::online::{AdmissionRule, OnlineEngine, OnlineOutcome, PolicyRegistry, ShardMode};
use dcn_core::SolverContext;
use dcn_flow::workload::{ArrivalProcess, SizeDistribution, UniformWorkload};
use dcn_flow::FlowSet;
use dcn_power::PowerFunction;
use dcn_topology::builders::{self, BuiltTopology};

fn instance(topo: &BuiltTopology) -> FlowSet {
    let base = UniformWorkload::paper_defaults(14, 11)
        .generate(topo.hosts())
        .unwrap();
    ArrivalProcess::with_load(3.0, 11)
        .sizes(SizeDistribution::WebSearch)
        .apply(&base)
        .unwrap()
}

fn run(topo: &BuiltTopology, flows: &FlowSet, engine: &mut OnlineEngine) -> OnlineOutcome {
    let power = PowerFunction::speed_scaling_only(1.0, 2.0, builders::DEFAULT_CAPACITY);
    let mut ctx = SolverContext::from_network(&topo.network).unwrap();
    engine.run(&mut ctx, flows, &power).unwrap()
}

fn assert_same(bare: &OnlineOutcome, wrapped: &OnlineOutcome, what: &str) {
    assert_eq!(bare.report.decisions, wrapped.report.decisions, "{what}");
    assert_eq!(
        bare.report.online_energy.to_bits(),
        wrapped.report.online_energy.to_bits(),
        "{what}"
    );
    assert_eq!(bare.report.events, wrapped.report.events, "{what}");
    assert_eq!(bare.report.resolves, wrapped.report.resolves, "{what}");
}

#[test]
fn wrapped_runs_equal_bare_runs_for_every_registry_policy() {
    let topo = builders::fat_tree(4);
    let flows = instance(&topo);
    let policies = PolicyRegistry::with_defaults();
    assert_eq!(policies.names().len(), 5);
    for name in policies.names() {
        for traced in [false, true] {
            let admission = AdmissionRule::reject_infeasible(harness_fmcf_config());
            let mut bare = OnlineEngine::builder()
                .policy(name)
                .algorithms(harness_registry())
                .admission(admission.clone())
                .seed(5)
                .build()
                .unwrap();
            let probe = OnlineProbe::new(Arc::new(Tracer::new(traced)));
            let mut wrapped = OnlineEngine::builder()
                .policy_instance(Box::new(TimedPolicy::new(
                    policies.create(name).unwrap(),
                    Arc::clone(&probe),
                )))
                .algorithm_instance(Box::new(TimedAlgorithm::new(
                    harness_registry().create("dcfsr").unwrap(),
                    Arc::clone(&probe),
                )))
                .admission(admission)
                .seed(5)
                .build()
                .unwrap();
            assert_eq!(wrapped.policy().name(), name);
            assert_eq!(wrapped.algorithm().name(), "dcfsr");
            let expect = run(&topo, &flows, &mut bare);
            let got = run(&topo, &flows, &mut wrapped);
            assert_same(&expect, &got, name);
            // Every callback went through the decorators.
            let counts = probe.take();
            assert_eq!(counts.policy_calls as usize, got.report.events, "{name}");
            assert_eq!(counts.event_ns.len(), got.report.events, "{name}");
            assert_eq!(counts.resolve_calls as usize, got.report.resolves, "{name}");
            assert!(
                counts.admission_calls as usize >= got.report.admitted(),
                "{name}"
            );
            assert_eq!(probe.tracer().spans().is_empty(), !traced, "{name}");
        }
    }
}

#[test]
fn the_timed_registry_keeps_sharded_warm_runs_identical() {
    let topo = builders::fat_tree(4);
    let flows = instance(&topo);
    let build = |registry| {
        OnlineEngine::builder()
            .policy("resolve")
            .algorithm("dcfsr")
            .algorithms(registry)
            .admission(AdmissionRule::reject_infeasible(harness_fmcf_config()))
            .warm_start(true)
            .epoch(0.05)
            .shards(ShardMode::Fixed(2))
            .seed(9)
            .build()
            .unwrap()
    };
    let probe = OnlineProbe::new(Arc::new(Tracer::new(false)));
    let expect = run(&topo, &flows, &mut build(harness_registry()));
    let got = run(&topo, &flows, &mut build(timed_registry(&probe)));
    assert_same(&expect, &got, "sharded resolve");
    // Shard instances come from the registry, so they are timed too.
    assert!(probe.take().resolve_calls as usize >= got.report.resolves);
}
