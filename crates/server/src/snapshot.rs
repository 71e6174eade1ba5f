//! Snapshot/restore of the daemon's in-flight state as a JSON file.
//!
//! A snapshot captures everything a restarted daemon needs to keep
//! making *bit-identical* decisions: per-bucket logical clocks, event
//! counters (they seed `resolve` re-solves), the full flow ledgers with
//! delivered volumes, the currently committed plans, and the stitched
//! history of what those plans already delivered. The file also pins the
//! configuration the state was produced under (topology, policy,
//! admission, seed); [`crate::Server`] refuses to restore a snapshot
//! whose configuration does not match its own, because the state would
//! silently mean something else.
//!
//! The same dump doubles as the daemon's audit artifact: the serve bench
//! reads the final snapshot back and rebuilds the stitched [`Schedule`]
//! (committed history plus each live flow's remaining plan) to account
//! energy, misses and capacity excess — see [`SnapshotFile::schedule`].

use std::fmt;
use std::path::Path as FsPath;

use dcn_core::{FlowSchedule, Schedule};
use dcn_power::RateProfile;
use dcn_topology::{Network, NodeId, Path};
use serde::{Deserialize, Serialize};

use crate::protocol::PlanSegment;

/// Typed errors of [`SnapshotFile::schedule`] — everything that can make
/// a dump unreconstructable on the restore host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A recorded flow id does not fit the platform's `usize`. Flow ids
    /// are `u64` on the wire; on 32-bit targets an `as usize` cast would
    /// silently truncate and alias two distinct flows, so the overflow is
    /// an error instead.
    FlowIdOverflow {
        /// The id that does not fit.
        id: u64,
    },
    /// A recorded routing path does not exist on the restore network.
    InvalidPath {
        /// The flow whose path is broken.
        flow: u64,
        /// What the path validation rejected.
        reason: String,
    },
    /// The snapshot contains no served flows, so there is no schedule to
    /// rebuild.
    Empty,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::FlowIdOverflow { id } => {
                write!(
                    f,
                    "snapshot flow id {id} does not fit this platform's usize"
                )
            }
            Self::InvalidPath { flow, reason } => {
                write!(f, "snapshot path of flow {flow} is invalid: {reason}")
            }
            Self::Empty => write!(f, "snapshot holds no served flows"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Version stamp of the snapshot layout.
pub const SNAPSHOT_VERSION: u32 = 1;

/// One admitted flow as dumped by a shard: the original request plus its
/// delivery state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Server-assigned flow id.
    pub id: u64,
    /// Source host node id.
    pub src: usize,
    /// Destination host node id.
    pub dst: usize,
    /// Release time (as served; clamped to the shard clock at admission).
    pub release: f64,
    /// Hard deadline.
    pub deadline: f64,
    /// Total volume of the flow.
    pub volume: f64,
    /// Volume delivered as of the bucket's clock.
    pub delivered: f64,
    /// Whether the flow has left the live set.
    pub retired: bool,
    /// Whether it retired with undelivered volume.
    pub missed: bool,
}

/// A rate plan as dumped by a shard: path (node ids) plus constant-rate
/// segments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRecord {
    /// The flow the plan belongs to.
    pub flow: u64,
    /// Node ids of the routing path, source first.
    pub path: Vec<usize>,
    /// Constant-rate segments, in time order.
    pub segments: Vec<PlanSegment>,
}

/// The complete dump of one logical shard (pod bucket).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketState {
    /// The bucket id (pod index, or the cross bucket).
    pub bucket: usize,
    /// Logical clock; `null` when the bucket never saw a submission.
    pub clock: Option<f64>,
    /// Submissions processed (seeds `resolve` re-solves).
    pub events: u64,
    /// Ids of rejected flows (for `QueryFlow` answers).
    pub rejected: Vec<u64>,
    /// Every admitted flow, live and retired, in id order.
    pub flows: Vec<FlowRecord>,
    /// The plan currently committed for each live flow.
    pub plans: Vec<PlanRecord>,
    /// The stitched already-delivered history per flow.
    pub committed: Vec<PlanRecord>,
}

/// The snapshot file: configuration pin plus every bucket's state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotFile {
    /// Layout version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Topology spec string (e.g. `fat-tree:4`).
    pub topology: String,
    /// Serve policy name.
    pub policy: String,
    /// Admission rule name.
    pub admission: String,
    /// Base seed of the daemon.
    pub seed: u64,
    /// Total flow ids assigned so far (the next id continues from here).
    pub flows_assigned: u64,
    /// Bucket owning each assigned flow id, dense by id.
    pub assignments: Vec<usize>,
    /// Per-bucket dumps, in bucket order.
    pub buckets: Vec<BucketState>,
}

impl SnapshotFile {
    /// Total number of flows (live and retired) captured in the dump.
    pub fn flow_count(&self) -> usize {
        self.buckets.iter().map(|b| b.flows.len()).sum()
    }

    /// Number of flows that retired with undelivered volume.
    pub fn missed_count(&self) -> usize {
        self.buckets
            .iter()
            .flat_map(|b| b.flows.iter())
            .filter(|f| f.missed)
            .count()
    }

    /// Serializes and writes the snapshot atomically: the JSON goes to a
    /// sibling temp file, which is synced and then renamed over `path`, so
    /// a crash mid-write leaves the previous snapshot intact.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &FsPath) -> std::io::Result<()> {
        use std::io::Write;

        let mut text = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        text.push('\n');
        let mut temp = path.as_os_str().to_os_string();
        temp.push(".tmp");
        let mut file = std::fs::File::create(&temp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&temp, path)?;
        // The rename itself is durable only once the directory is synced.
        #[cfg(unix)]
        {
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            std::fs::File::open(dir.unwrap_or(FsPath::new(".")))?.sync_all()?;
        }
        Ok(())
    }

    /// Reads and parses a snapshot file.
    ///
    /// # Errors
    ///
    /// Returns a message for unreadable files, invalid JSON, or an
    /// unsupported layout version.
    pub fn load(path: &FsPath) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read snapshot {}: {e}", path.display()))?;
        let snapshot: SnapshotFile = serde_json::from_str(&text)
            .map_err(|e| format!("snapshot {} is not valid JSON: {e}", path.display()))?;
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(format!(
                "snapshot {} has layout version {} (this build reads {SNAPSHOT_VERSION})",
                path.display(),
                snapshot.version
            ));
        }
        Ok(snapshot)
    }

    /// Rebuilds the stitched schedule the daemon has committed to: per
    /// flow, the already-delivered history plus the current plan's
    /// remaining tail (from the bucket clock onwards). The horizon spans
    /// the earliest release to the latest of deadline and plan end, so
    /// idle energy is accounted the same way the batch harness does.
    ///
    /// # Errors
    ///
    /// Rejects snapshots whose paths do not exist on `network`, whose
    /// flow ids overflow `usize`, or that hold no served flows.
    pub fn schedule(&self, network: &Network) -> Result<Schedule, SnapshotError> {
        let mut flow_schedules = Vec::new();
        let mut start = f64::INFINITY;
        let mut end = f64::NEG_INFINITY;
        for bucket in &self.buckets {
            let clock = bucket.clock.unwrap_or(f64::NEG_INFINITY);
            for record in &bucket.flows {
                start = start.min(record.release);
                end = end.max(record.deadline);
                let committed = bucket.committed.iter().find(|p| p.flow == record.id);
                let plan = bucket.plans.iter().find(|p| p.flow == record.id);
                let mut profile = RateProfile::new();
                if let Some(history) = committed {
                    add_segments(&mut profile, &history.segments, f64::NEG_INFINITY, clock);
                }
                if let Some(plan) = plan {
                    // Only the not-yet-delivered tail: the slice before
                    // the clock is already part of the history.
                    add_segments(&mut profile, &plan.segments, clock, f64::INFINITY);
                }
                let path_record = plan.or(committed);
                let Some(path_record) = path_record else {
                    continue; // Admitted but never served (zero-length plan).
                };
                let flow_id = usize::try_from(record.id)
                    .map_err(|_| SnapshotError::FlowIdOverflow { id: record.id })?;
                let nodes: Vec<NodeId> = path_record.path.iter().map(|&n| NodeId(n)).collect();
                let path =
                    Path::from_nodes(network, &nodes).map_err(|e| SnapshotError::InvalidPath {
                        flow: record.id,
                        reason: e.to_string(),
                    })?;
                if let Some((_, profile_end)) = profile.span() {
                    end = end.max(profile_end);
                }
                flow_schedules.push(FlowSchedule::uniform(flow_id, path, profile));
            }
        }
        if flow_schedules.is_empty() {
            return Err(SnapshotError::Empty);
        }
        Ok(Schedule::new(flow_schedules, (start, end)))
    }
}

/// Adds the segments clipped to `[from, to]` to a profile.
fn add_segments(profile: &mut RateProfile, segments: &[PlanSegment], from: f64, to: f64) {
    for segment in segments {
        let start = segment.start.max(from);
        let end = segment.end.min(to);
        if end > start && segment.rate > 0.0 {
            profile.add_rate(start, end, segment.rate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::builders;

    fn snapshot_with(buckets: Vec<BucketState>) -> SnapshotFile {
        SnapshotFile {
            version: SNAPSHOT_VERSION,
            topology: "line:3".to_string(),
            policy: "resolve".to_string(),
            admission: "admit-all".to_string(),
            seed: 1,
            flows_assigned: 1,
            assignments: vec![0],
            buckets,
        }
    }

    #[test]
    fn empty_snapshots_yield_a_typed_error() {
        let built = builders::line(3);
        let err = snapshot_with(Vec::new())
            .schedule(&built.network)
            .unwrap_err();
        assert_eq!(err, SnapshotError::Empty);
        assert!(err.to_string().contains("no served flows"));
    }

    #[test]
    fn broken_paths_yield_a_typed_error_naming_the_flow() {
        let built = builders::line(3);
        let snapshot = snapshot_with(vec![BucketState {
            bucket: 0,
            clock: Some(0.0),
            events: 1,
            rejected: Vec::new(),
            flows: vec![FlowRecord {
                id: 7,
                src: 0,
                dst: 2,
                release: 0.0,
                deadline: 2.0,
                volume: 1.0,
                delivered: 0.0,
                retired: false,
                missed: false,
            }],
            plans: vec![PlanRecord {
                flow: 7,
                // Node 99 does not exist on a 3-node line.
                path: vec![0, 99, 2],
                segments: vec![PlanSegment {
                    start: 0.0,
                    end: 1.0,
                    rate: 1.0,
                }],
            }],
            committed: Vec::new(),
        }]);
        match snapshot.schedule(&built.network).unwrap_err() {
            SnapshotError::InvalidPath { flow, .. } => assert_eq!(flow, 7),
            other => panic!("expected InvalidPath, got {other:?}"),
        }
    }

    #[test]
    fn overflow_errors_render_the_offending_id() {
        // `usize::try_from(u64)` cannot fail on 64-bit hosts, so the
        // variant is exercised directly: what matters is that the error
        // names the id instead of silently truncating it like the old
        // `as usize` cast did on 32-bit targets.
        let err = SnapshotError::FlowIdOverflow { id: u64::MAX };
        assert!(err.to_string().contains(&u64::MAX.to_string()));
    }
}
