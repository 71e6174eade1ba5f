//! A snapshotable ledger of in-flight flows for long-lived serving loops.
//!
//! [`super::engine::OnlineEngine`] keeps its per-flow bookkeeping private
//! because a batch run owns the whole timeline: it sees every arrival up
//! front and retires state as the event queue drains. A *serving* loop
//! (the `dcn-server` daemon) has the opposite shape — flows arrive one
//! request at a time over a wire protocol, the process may be restarted
//! mid-run, and whatever state decides future admissions must be
//! externalizable. [`InFlightLedger`] is that state, factored out of the
//! engine's `FlowState` + live-set bookkeeping:
//!
//! * one [`LedgerEntry`] per admitted flow (original request, volume
//!   delivered so far, retired/missed flags);
//! * [`InFlightLedger::retire`] mirrors the engine's retirement rule —
//!   a live flow leaves the set when it is delivered to within the
//!   volume tolerance or its deadline has passed (the latter marks it
//!   missed);
//! * [`InFlightLedger::residual_set`] builds the dense residual
//!   [`FlowSet`] (remaining volume, clamped release) that admission
//!   checks and re-solves operate on, exactly like the engine's world
//!   view does via [`super::residual_flow`];
//! * [`InFlightLedger::entries`] iterates every entry in flow-id order
//!   and [`InFlightLedger::restore`] rebuilds the ledger from such a
//!   dump, so a snapshot/restore cycle is a plain round-trip.
//!
//! The ledger never touches wall-clock time: `now` is always supplied by
//! the caller, so decisions stay a pure function of the request stream.

use std::collections::{BTreeMap, BTreeSet};

use dcn_flow::{Flow, FlowId, FlowSet};

use super::VOLUME_TOL;
use crate::error::SolveError;

/// One admitted flow tracked by an [`InFlightLedger`].
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// The admitted flow, exactly as requested (full volume).
    pub flow: Flow,
    /// Volume delivered so far, in `[0, flow.volume]`.
    pub delivered: f64,
    /// Whether the flow has left the live set.
    pub retired: bool,
    /// Whether the flow retired with undelivered volume at its deadline.
    pub missed: bool,
}

impl LedgerEntry {
    /// Volume still to deliver (never negative).
    pub fn remaining(&self) -> f64 {
        (self.flow.volume - self.delivered).max(0.0)
    }

    /// Whether the flow is delivered to within the volume tolerance.
    pub fn done(&self) -> bool {
        self.remaining() <= VOLUME_TOL * self.flow.volume
    }
}

/// The in-flight residual state of a serving scheduler: every admitted
/// flow plus how much of it has been delivered. See the module docs for
/// the contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InFlightLedger {
    entries: BTreeMap<FlowId, LedgerEntry>,
    live: BTreeSet<FlowId>,
}

impl InFlightLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits a flow into the live set. Returns `false` (and leaves the
    /// ledger untouched) when an entry with the same id already exists.
    pub fn admit(&mut self, flow: Flow) -> bool {
        if self.entries.contains_key(&flow.id) {
            return false;
        }
        let id = flow.id;
        self.entries.insert(
            id,
            LedgerEntry {
                flow,
                delivered: 0.0,
                retired: false,
                missed: false,
            },
        );
        self.live.insert(id);
        true
    }

    /// Removes a flow entirely (e.g. to roll back a failed admission).
    /// Returns the entry, if one existed.
    pub fn remove(&mut self, id: FlowId) -> Option<LedgerEntry> {
        self.live.remove(&id);
        self.entries.remove(&id)
    }

    /// Credits delivered volume to a live flow, clamped to the flow's
    /// total volume. Delivery to retired or unknown flows is ignored.
    pub fn deliver(&mut self, id: FlowId, volume: f64) {
        if !self.live.contains(&id) {
            return;
        }
        if let Some(entry) = self.entries.get_mut(&id) {
            entry.delivered = (entry.delivered + volume.max(0.0)).min(entry.flow.volume);
        }
    }

    /// Retires every live flow that is done or whose deadline has passed
    /// at `now` (the latter is marked missed). Returns the retired ids in
    /// ascending order.
    pub fn retire(&mut self, now: f64) -> Vec<FlowId> {
        let mut retired = Vec::new();
        for &id in &self.live {
            let entry = &self.entries[&id];
            if entry.done() || entry.flow.deadline <= now {
                retired.push(id);
            }
        }
        for &id in &retired {
            self.live.remove(&id);
            let entry = self.entries.get_mut(&id).expect("retired id exists");
            entry.retired = true;
            entry.missed = !entry.done();
        }
        retired
    }

    /// Looks an entry up by flow id.
    pub fn get(&self, id: FlowId) -> Option<&LedgerEntry> {
        self.entries.get(&id)
    }

    /// Whether the flow is currently live (admitted and not retired).
    pub fn is_live(&self, id: FlowId) -> bool {
        self.live.contains(&id)
    }

    /// The live entries, in ascending flow-id order.
    pub fn live(&self) -> impl Iterator<Item = &LedgerEntry> {
        self.live.iter().map(|id| &self.entries[id])
    }

    /// Number of live flows.
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// Every entry ever admitted (live and retired), in ascending
    /// flow-id order. This is the snapshot view: feeding the cloned
    /// entries to [`InFlightLedger::restore`] reproduces the ledger.
    pub fn entries(&self) -> impl Iterator<Item = &LedgerEntry> {
        self.entries.values()
    }

    /// Total number of entries (live and retired).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ledger has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rebuilds a ledger from dumped entries; the live set is derived
    /// from the `retired` flags.
    pub fn restore(entries: impl IntoIterator<Item = LedgerEntry>) -> Self {
        let mut ledger = Self::new();
        for entry in entries {
            let id = entry.flow.id;
            if !entry.retired {
                ledger.live.insert(id);
            }
            ledger.entries.insert(id, entry);
        }
        ledger
    }

    /// The dense residual instance of the live flows at `now`, optionally
    /// including a not-yet-admitted `candidate`: residual ids are
    /// `0..n` in ascending original-id order (candidate last) and the
    /// returned map translates residual id back to the original.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DeadlinePassed`] when a live flow (or the
    /// candidate) can no longer meet its deadline at `now`, and the
    /// underlying flow-construction error if a residual flow would be
    /// degenerate.
    pub fn residual_set(
        &self,
        now: f64,
        candidate: Option<&Flow>,
    ) -> Result<(FlowSet, Vec<FlowId>), SolveError> {
        let mut flows = Vec::with_capacity(self.live.len() + 1);
        let mut originals = Vec::with_capacity(self.live.len() + 1);
        for entry in self.live() {
            let residual_id = flows.len();
            flows.push(super::residual_flow(
                &entry.flow,
                now,
                entry.remaining(),
                residual_id,
            )?);
            originals.push(entry.flow.id);
        }
        if let Some(flow) = candidate {
            let residual_id = flows.len();
            flows.push(super::residual_flow(flow, now, flow.volume, residual_id)?);
            originals.push(flow.id);
        }
        let set = FlowSet::from_flows(flows)?;
        Ok((set, originals))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::NodeId;

    fn flow(id: usize, release: f64, deadline: f64, volume: f64) -> Flow {
        Flow::new(id, NodeId(0), NodeId(1), release, deadline, volume).expect("valid test flow")
    }

    #[test]
    fn admit_deliver_retire_cycle() {
        let mut ledger = InFlightLedger::new();
        assert!(ledger.admit(flow(0, 0.0, 10.0, 5.0)));
        assert!(!ledger.admit(flow(0, 0.0, 10.0, 5.0)), "duplicate id");
        assert!(ledger.admit(flow(1, 0.0, 2.0, 4.0)));
        assert_eq!(ledger.live_len(), 2);

        ledger.deliver(0, 5.0);
        // Flow 1 misses: deadline 2.0 passes with volume outstanding.
        let retired = ledger.retire(3.0);
        assert_eq!(retired, vec![0, 1]);
        assert!(!ledger.get(0).unwrap().missed);
        assert!(ledger.get(1).unwrap().missed);
        assert_eq!(ledger.live_len(), 0);
        assert_eq!(ledger.len(), 2);
    }

    #[test]
    fn delivery_is_clamped_and_ignores_retired_flows() {
        let mut ledger = InFlightLedger::new();
        ledger.admit(flow(0, 0.0, 10.0, 5.0));
        ledger.deliver(0, 7.0);
        assert_eq!(ledger.get(0).unwrap().delivered, 5.0);
        ledger.retire(1.0);
        ledger.deliver(0, 1.0);
        assert_eq!(ledger.get(0).unwrap().delivered, 5.0);
        // Unknown ids are a no-op, not a panic.
        ledger.deliver(9, 1.0);
    }

    #[test]
    fn residual_set_translates_ids_and_clamps_release() {
        let mut ledger = InFlightLedger::new();
        ledger.admit(flow(3, 0.0, 10.0, 6.0));
        ledger.admit(flow(7, 4.0, 12.0, 2.0));
        ledger.deliver(3, 1.5);

        let candidate = flow(9, 2.0, 8.0, 1.0);
        let (set, originals) = ledger
            .residual_set(2.0, Some(&candidate))
            .expect("residual set builds");
        assert_eq!(originals, vec![3, 7, 9]);
        assert_eq!(set.len(), 3);
        assert_eq!(set.flow(0).volume, 4.5);
        assert_eq!(set.flow(0).release, 2.0, "release clamped to now");
        assert_eq!(set.flow(1).release, 4.0, "future release kept");

        let err = ledger.residual_set(11.0, None).unwrap_err();
        assert!(matches!(err, SolveError::DeadlinePassed { .. }));
    }

    #[test]
    fn restore_round_trips_the_ledger() {
        let mut ledger = InFlightLedger::new();
        ledger.admit(flow(0, 0.0, 10.0, 5.0));
        ledger.admit(flow(1, 0.0, 1.0, 4.0));
        ledger.deliver(0, 2.0);
        ledger.retire(2.0);

        let dumped: Vec<LedgerEntry> = ledger.entries().cloned().collect();
        let restored = InFlightLedger::restore(dumped);
        assert_eq!(restored, ledger);
        assert!(restored.is_live(0));
        assert!(!restored.is_live(1));
    }
}
