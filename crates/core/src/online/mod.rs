//! Online scheduling: flows are revealed at their release times and an
//! event-driven engine re-plans their rates as the system evolves.
//!
//! The paper's DCFSR model is *clairvoyant*: the whole flow set
//! `[release, deadline, volume]` is known at time zero. Its motivating
//! workloads (partition–aggregate search traffic, MapReduce shuffles)
//! arrive online, so this module evaluates every [`Algorithm`] under
//! dynamic arrivals through a policy-pluggable event loop:
//!
//! * [`engine`] hosts the [`OnlineEngine`]: a typed event queue over
//!   **arrivals**, predicted **flow completions** and **deadline-slack
//!   timers**, driving one warm [`SolverContext`] (CSR view, shortest-path
//!   arenas, Frank–Wolfe buffers — no per-event graph rebuilds) and an
//!   [`AdmissionRule`] deciding which arrivals are accepted;
//! * [`policy`] defines the [`OnlinePolicy`] trait (`name`, `on_event`,
//!   `admission`) and the string-keyed [`PolicyRegistry`] mirroring
//!   [`crate::AlgorithmRegistry`];
//! * [`policies`] ships five implementations: `resolve` (full residual
//!   re-solve at every arrival — the pre-split `OnlineScheduler` behaviour,
//!   bit for bit), preemptive `edf` and `srpt` rate reassignment, `rcd`
//!   (rapid-close-to-deadline deferral) and `hybrid` (EDF until any flow's
//!   slack falls under a threshold, then one DCFSR re-solve);
//! * [`ledger`] exposes the [`InFlightLedger`]: the snapshotable
//!   in-flight residual view that long-lived serving loops (the
//!   `dcn-server` daemon) keep per shard, factored out of the engine's
//!   private per-flow bookkeeping.
//!
//! Only the slice of each policy decision up to the next event is
//! **committed**; the [`OnlineOutcome`] stitches the committed slices into
//! one executable [`crate::Schedule`] and an [`OnlineReport`] records the
//! per-flow admit/miss decisions, the event/re-solve counters and the
//! online energy versus the offline clairvoyant bound.
//!
//! With every flow released at the same instant there is exactly one
//! arrival event, the residual instance *is* the full instance and the
//! `resolve` policy commits the wrapped algorithm's offline schedule,
//! bit for bit — `tests/online_offline.rs` pins that equivalence, and
//! `tests/policy_equivalence.rs` pins `resolve` against the pre-split
//! event loop on staggered arrivals.
//!
//! ```
//! use dcn_core::online::{OnlineEngine, ShardMode};
//! use dcn_core::SolverContext;
//! use dcn_flow::workload::{ArrivalProcess, UniformWorkload};
//! use dcn_power::PowerFunction;
//! use dcn_topology::builders;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topo = builders::fat_tree(4);
//! let base = UniformWorkload::paper_defaults(12, 7).generate(topo.hosts())?;
//! let flows = ArrivalProcess::with_load(2.0, 3).apply(&base)?;
//! let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
//!
//! let mut ctx = SolverContext::from_network(&topo.network)?;
//! let mut online = OnlineEngine::builder()
//!     .algorithm("dcfsr")
//!     .policy("hybrid")
//!     .warm_start(true)
//!     .shards(ShardMode::Auto)
//!     .seed(7)
//!     .build()?;
//! let outcome = online.run_vs_offline(&mut ctx, &flows, &power)?;
//! assert_eq!(outcome.report.decisions.len(), flows.len());
//! assert!(outcome.report.events >= 1);
//! assert!(outcome.report.competitive_ratio().unwrap() > 0.0);
//! # Ok(())
//! # }
//! ```

#[cfg(feature = "legacy-api")]
use crate::algorithm::Algorithm;
use crate::context::SolverContext;
use crate::error::SolveError;
use dcn_flow::{Flow, FlowId, FlowSet};
use dcn_power::PowerFunction;
use dcn_solver::fmcf::FmcfSolverConfig;
use dcn_topology::LinkId;

pub mod engine;
pub mod ledger;
pub mod policies;
pub mod policy;

/// Relative volume tolerance under which an in-flight flow counts as fully
/// delivered, shared by the engine and the ledger so both retire a flow at
/// the same point.
pub(crate) const VOLUME_TOL: f64 = 1e-9;

pub use engine::{
    AdmissionRule, EngineConfig, FlowDecision, OnlineEngine, OnlineEvent, OnlineOutcome,
    OnlineReport, ShardMode, WorldView,
};
pub use ledger::{InFlightLedger, LedgerEntry};
pub use policies::{EdfPolicy, HybridPolicy, RcdPolicy, ResolvePolicy, SrptPolicy};
pub use policy::{
    CapacityLedger, OnlinePolicy, PathCache, PolicyAction, PolicyRegistry, RateAssignment, RatePlan,
};

/// The pre-split online loop, kept as a thin delegate over
/// [`OnlineEngine`] with the [`ResolvePolicy`]: re-solves the full
/// residual instance at every arrival event. Byte-for-byte equivalent to
/// the engine (pinned by `tests/policy_equivalence.rs`). Gated behind the
/// on-by-default `legacy-api` cargo feature.
#[cfg(feature = "legacy-api")]
#[deprecated(
    since = "0.1.0",
    note = "use `OnlineEngine::builder()` with the default \"resolve\" policy instead"
)]
#[derive(Debug)]
pub struct OnlineScheduler {
    engine: OnlineEngine,
}

#[cfg(feature = "legacy-api")]
#[allow(deprecated)]
impl OnlineScheduler {
    /// Creates the online loop around a (registry-created) algorithm.
    pub fn new(algorithm: Box<dyn Algorithm>, policy: AdmissionRule) -> Self {
        Self {
            engine: OnlineEngine::new(algorithm, Box::new(ResolvePolicy), policy),
        }
    }

    /// Re-seeds the loop (see [`OnlineEngine::set_seed`]).
    pub fn set_seed(&mut self, seed: u64) {
        self.engine.set_seed(seed);
    }

    /// The wrapped algorithm.
    pub fn algorithm(&self) -> &dyn Algorithm {
        self.engine.algorithm()
    }

    /// The admission rule in use.
    pub fn policy(&self) -> &AdmissionRule {
        self.engine.admission()
    }

    /// Executes the instance online (see [`OnlineEngine::run`]).
    ///
    /// # Errors
    ///
    /// See [`OnlineEngine::run`].
    pub fn run(
        &mut self,
        ctx: &mut SolverContext<'_>,
        flows: &FlowSet,
        power: &PowerFunction,
    ) -> Result<OnlineOutcome, SolveError> {
        self.engine.run(ctx, flows, power)
    }

    /// Runs online, then solves the clairvoyant instance for comparison
    /// (see [`OnlineEngine::run_vs_offline`]).
    ///
    /// # Errors
    ///
    /// See [`OnlineEngine::run_vs_offline`].
    pub fn run_vs_offline(
        &mut self,
        ctx: &mut SolverContext<'_>,
        flows: &FlowSet,
        power: &PowerFunction,
    ) -> Result<OnlineOutcome, SolveError> {
        self.engine.run_vs_offline(ctx, flows, power)
    }
}

/// The pre-split name of [`AdmissionRule`]. The variants, constructors and
/// names are unchanged — only the type was renamed when admission became
/// one input of the policy-pluggable engine rather than the only policy
/// axis of the loop. Gated behind the on-by-default `legacy-api` feature.
#[cfg(feature = "legacy-api")]
#[deprecated(since = "0.1.0", note = "renamed to `AdmissionRule`")]
pub type AdmissionPolicy = AdmissionRule;

/// Builds the residual copy of `flow` as seen at online time `now`: the
/// release is advanced to `now`, the deadline is kept, and the volume is
/// replaced by `remaining`.
///
/// # Errors
///
/// * [`SolveError::DeadlinePassed`] when the flow's deadline is not
///   strictly after `now` (the residual span would be empty — the naive
///   `Flow::new` call would reject it, and earlier drafts of the loop
///   panicked here).
/// * [`SolveError::InvalidInput`] when `remaining` is not a positive
///   finite volume.
pub fn residual_flow(
    flow: &Flow,
    now: f64,
    remaining: f64,
    residual_id: FlowId,
) -> Result<Flow, SolveError> {
    if flow.deadline <= now {
        return Err(SolveError::DeadlinePassed {
            flow: flow.id,
            time: now,
        });
    }
    Flow::new(
        residual_id,
        flow.src,
        flow.dst,
        flow.release.max(now),
        flow.deadline,
        remaining,
    )
    .map_err(SolveError::from)
}

/// The LP-relaxation feasibility check behind
/// [`AdmissionRule::RejectInfeasible`]: solves the per-interval fractional
/// relaxation of `flows` on the context (warm Frank–Wolfe scratch) and
/// reports whether every interval's fractional link loads fit under
/// `min(link capacity, power capacity) * (1 + slack)`.
///
/// # Errors
///
/// Propagates [`SolverContext::relax`] errors: an empty candidate set is
/// [`SolveError::EmptyFlowSet`], a disconnected commodity is
/// [`SolveError::Unroutable`].
pub fn fractionally_feasible(
    ctx: &mut SolverContext<'_>,
    flows: &FlowSet,
    power: &PowerFunction,
    config: &FmcfSolverConfig,
    slack: f64,
) -> Result<bool, SolveError> {
    let relaxation = ctx.relax(flows, power, config)?;
    let cap = power.capacity();
    for interval in &relaxation.intervals {
        for (index, &load) in interval.solution.total_loads().iter().enumerate() {
            let capacity = ctx.graph().capacity(LinkId(index)).min(cap);
            if load > capacity * (1.0 + slack) {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "legacy-api")]
    use crate::algorithm::AlgorithmRegistry;
    #[cfg(feature = "legacy-api")]
    use dcn_topology::builders;

    #[test]
    fn residual_flow_after_the_deadline_is_a_typed_error() {
        let flow = Flow::new(
            3,
            dcn_topology::NodeId(0),
            dcn_topology::NodeId(1),
            0.0,
            2.0,
            4.0,
        )
        .unwrap();
        assert_eq!(
            residual_flow(&flow, 2.0, 1.0, 0).unwrap_err(),
            SolveError::DeadlinePassed { flow: 3, time: 2.0 }
        );
        assert_eq!(
            residual_flow(&flow, 5.0, 1.0, 0).unwrap_err(),
            SolveError::DeadlinePassed { flow: 3, time: 5.0 }
        );
        // A live flow yields the residual with the advanced release.
        let residual = residual_flow(&flow, 1.0, 2.5, 0).unwrap();
        assert_eq!(residual.release, 1.0);
        assert_eq!(residual.deadline, 2.0);
        assert_eq!(residual.volume, 2.5);
        // A non-positive remaining volume is invalid input, not a panic.
        assert!(matches!(
            residual_flow(&flow, 1.0, 0.0, 0).unwrap_err(),
            SolveError::InvalidInput { .. }
        ));
    }

    #[cfg(feature = "legacy-api")]
    #[test]
    #[allow(deprecated)]
    fn deprecated_delegate_matches_the_engine_bit_for_bit() {
        let topo = builders::fat_tree(4);
        let power = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
        let flows = dcn_flow::workload::UniformWorkload::paper_defaults(12, 9)
            .generate(topo.hosts())
            .unwrap();
        let registry = AlgorithmRegistry::with_defaults();
        let mut ctx = SolverContext::from_network(&topo.network).unwrap();

        let mut legacy =
            OnlineScheduler::new(registry.create("dcfsr").unwrap(), AdmissionRule::AdmitAll);
        legacy.set_seed(9);
        let old = legacy.run(&mut ctx, &flows, &power).unwrap();

        let mut engine = engine::OnlineEngine::builder()
            .algorithm("dcfsr")
            .seed(9)
            .build()
            .unwrap();
        let new = engine.run(&mut ctx, &flows, &power).unwrap();

        assert_eq!(old.schedule, new.schedule);
        assert_eq!(old.report.online_energy, new.report.online_energy);
        assert_eq!(old.report.decisions, new.report.decisions);
        assert_eq!(old.report.events, new.report.events);
        assert_eq!(old.report.resolves, new.report.resolves);
        assert_eq!(legacy.policy().name(), "admit-all");
        assert_eq!(legacy.algorithm().name(), "dcfsr");
    }
}
