//! Timing decorators for the online engine's two plug-in traits.
//!
//! [`TimedPolicy`] wraps an [`OnlinePolicy`] and [`TimedAlgorithm`] an
//! [`Algorithm`]; both forward every trait method unchanged and record
//! into a shared [`OnlineProbe`]: call counts, time spent, the instant of
//! every `on_event` call (consecutive instants give the per-event time),
//! and, when the probe's tracer is enabled, one span per call plus the
//! in-flight population at each callback.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dcn_core::online::{AdmissionRule, OnlineEvent, OnlinePolicy, PolicyAction, WorldView};
use dcn_core::{Algorithm, Solution, SolveError, SolverContext};
use dcn_flow::{FlowId, FlowSet};
use dcn_power::PowerFunction;

use crate::tracer::Tracer;

/// What the decorators measured.
#[derive(Debug, Clone, Default)]
pub struct ProbeCounts {
    /// Instant of each `on_event` call, in tracer nanoseconds.
    pub event_ns: Vec<u64>,
    /// `on_event` calls and the time spent in them.
    pub policy_calls: u64,
    /// Nanoseconds inside `on_event`.
    pub policy_ns: u64,
    /// `admission` calls.
    pub admission_calls: u64,
    /// Nanoseconds inside `admission`.
    pub admission_ns: u64,
    /// `admission` calls that admitted.
    pub admitted: u64,
    /// `solve` calls (re-solves, including per-shard solves).
    pub resolve_calls: u64,
    /// Start and end of each `solve` call, in tracer nanoseconds.
    pub resolve_spans: Vec<(u64, u64)>,
    /// Sum, maximum and count of the in-flight population sampled at each
    /// policy callback (tracing only).
    pub live_sum: u64,
    /// Largest in-flight population seen.
    pub live_max: u64,
    /// Number of in-flight samples.
    pub live_samples: u64,
}

/// Shared sink of both decorators.
#[derive(Debug)]
pub struct OnlineProbe {
    tracer: Arc<Tracer>,
    parent: AtomicU64,
    counts: Mutex<ProbeCounts>,
}

impl OnlineProbe {
    /// A probe recording spans into `tracer` (when it is enabled).
    pub fn new(tracer: Arc<Tracer>) -> Arc<Self> {
        Arc::new(Self {
            tracer,
            parent: AtomicU64::new(0),
            counts: Mutex::new(ProbeCounts::default()),
        })
    }

    /// The tracer spans go to.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Sets the span the decorators' spans are children of.
    pub fn set_parent(&self, span: u64) {
        self.parent.store(span, Ordering::Relaxed);
    }

    /// Takes the counts measured so far and resets them.
    pub fn take(&self) -> ProbeCounts {
        std::mem::take(&mut *self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProbeCounts> {
        self.counts.lock().expect("probe lock")
    }

    fn sample_live(&self, world: &WorldView<'_>) {
        if self.tracer.enabled() {
            let live = world.in_flight().count() as u64;
            let mut c = self.lock();
            c.live_sum += live;
            c.live_max = c.live_max.max(live);
            c.live_samples += 1;
        }
    }
}

/// An [`OnlinePolicy`] that times every call into the wrapped policy.
pub struct TimedPolicy {
    inner: Box<dyn OnlinePolicy>,
    probe: Arc<OnlineProbe>,
}

impl TimedPolicy {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: Box<dyn OnlinePolicy>, probe: Arc<OnlineProbe>) -> Self {
        Self { inner, probe }
    }
}

impl fmt::Debug for TimedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Timed({:?})", self.inner)
    }
}

impl OnlinePolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn set_seed(&mut self, seed: u64) {
        self.inner.set_seed(seed);
    }

    fn on_event(
        &mut self,
        ctx: &mut SolverContext<'_>,
        power: &PowerFunction,
        event: &OnlineEvent,
        world: &WorldView<'_>,
    ) -> Result<PolicyAction, SolveError> {
        let p = &self.probe;
        let at = p.tracer.now_ns();
        p.sample_live(world);
        let open = p.tracer.open(
            "online.policy",
            p.parent.load(Ordering::Relaxed),
            event.index as u64,
        );
        let action = self.inner.on_event(ctx, power, event, world);
        let took = p.tracer.close(open).as_nanos() as u64;
        let mut c = p.lock();
        c.event_ns.push(at);
        c.policy_calls += 1;
        c.policy_ns += took;
        action
    }

    fn admission(
        &mut self,
        ctx: &mut SolverContext<'_>,
        power: &PowerFunction,
        world: &WorldView<'_>,
        candidate: FlowId,
        rule: &AdmissionRule,
    ) -> Result<bool, SolveError> {
        let p = &self.probe;
        p.sample_live(world);
        let open = p.tracer.open(
            "online.admission",
            p.parent.load(Ordering::Relaxed),
            candidate as u64,
        );
        let verdict = self.inner.admission(ctx, power, world, candidate, rule);
        let took = p.tracer.close(open).as_nanos() as u64;
        let mut c = p.lock();
        c.admission_calls += 1;
        c.admission_ns += took;
        c.admitted += u64::from(matches!(verdict, Ok(true)));
        verdict
    }
}

/// An [`Algorithm`] that times every `solve` of the wrapped algorithm.
pub struct TimedAlgorithm {
    inner: Box<dyn Algorithm>,
    probe: Arc<OnlineProbe>,
}

impl TimedAlgorithm {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: Box<dyn Algorithm>, probe: Arc<OnlineProbe>) -> Self {
        Self { inner, probe }
    }
}

impl Algorithm for TimedAlgorithm {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn set_seed(&mut self, seed: u64) {
        self.inner.set_seed(seed);
    }

    fn solve(
        &mut self,
        ctx: &mut SolverContext<'_>,
        flows: &FlowSet,
        power: &PowerFunction,
    ) -> Result<Solution, SolveError> {
        let p = &self.probe;
        let start = p.tracer.now_ns();
        let open = p.tracer.open(
            "online.resolve",
            p.parent.load(Ordering::Relaxed),
            flows.len() as u64,
        );
        let solution = self.inner.solve(ctx, flows, power);
        let took = p.tracer.close(open).as_nanos() as u64;
        let mut c = p.lock();
        c.resolve_calls += 1;
        c.resolve_spans.push((start, start + took));
        solution
    }
}
