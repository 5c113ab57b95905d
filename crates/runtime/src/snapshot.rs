//! Versioned, checksummed runtime snapshots.
//!
//! A [`RuntimeSnapshot`] captures a [`crate::PipelinedSystem`] at an event
//! boundary — the learned module state plus, mid-run, the whole execution
//! state (clock, event queue, HIT board, per-cycle work). Resuming from it
//! replays the remaining events exactly as the original run would have, so
//! the final [`crate::RuntimeReport`] is byte-identical.
//!
//! The wire format frames the payload against corruption and format drift
//! (magic `b"CLSNAP\x00\x01"`, format version, payload length, XXH64
//! checksum with seed 0, [`crate::frame_checksum`] — the frame shared with
//! [`crate::FleetSnapshot`]).
//!
//! The payload itself is the vendored binary codec's output:
//! `RuntimeConfig`, then the core system state
//! ([`crowdlearn::CrowdLearnSystem::encode_state`]), then the optional
//! execution state, then the optional streaming metrics tap
//! ([`crate::MetricsTap`] — version 2; it rides in the snapshot so a
//! resumed run replays the identical metric stream). Floats travel as
//! IEEE-754 bits, so round trips are bit-exact by construction. A
//! [`crate::FleetSnapshot`] carries the same payload inline for each of
//! its shards, under its own single frame.

use crate::frame;
use serde::binary::DecodeError;

/// Leading bytes of every snapshot.
const MAGIC: [u8; 8] = *b"CLSNAP\x00\x01";

/// Current snapshot format version, stamped by both frames (runtime and
/// fleet). Bump on any payload layout change of either.
///
/// Version history: 1 — initial format; 2 — `CycleOutcome` gained exact
/// per-query delays and the payload gained the optional metrics tap;
/// 3 — the `Platform` codec gained the submitter id, and its query
/// accounting gained the repost grid and per-submitter usage (fleet
/// attribution);
/// 4 — `RuntimeConfig` encodes a tagged `WindowPolicy` where the static
/// window used to sit, and the execution state carries the window
/// controller (effective window, cooldown counter, last decision, window
/// trajectory);
/// 5 — fault injection: `RuntimeConfig` carries the `FaultPlan` and
/// `BreakerConfig`, the execution state carries the `FaultInjector`,
/// breaker state/backoff, parked cycles, and rejection/degradation
/// counters, each in-flight HIT carries its `lost` flag, and the metrics
/// tap carries the abandonment/fault/breaker/degradation counters;
/// 6 — the CQC model travels compiled: a tree count, then every node in
/// preorder as a `u16` feature id (`u16::MAX` for a leaf) and its
/// threshold or weight, with no split gains, child indices or per-tree
/// lengths;
/// 7 — the competitor schemes are configurations: `CrowdLearnConfig`
/// leads with a `Model` tag and encodes a tagged `Selection` where ε used
/// to sit, `CalibratorConfig`'s retrain and offload switches are three-way
/// tags, the query selector carries only its RNG, and `GbdtConfig` lost its
/// split-mode tag;
/// 8 — the payoff normalizer's ceiling and the metrics tap's delay-grid
/// configuration are constants and no longer travel: the incentive policy
/// is its tag, the learner's own state and the observation count, and the
/// tap starts at its record counter;
/// 9 — settings with one value in use are constants and no longer travel:
/// `RuntimeConfig` lost the cycle period and `BreakerConfig`,
/// `PlatformConfig` lost the fan-out, the pool size and the
/// incentive→quality table, and each committee member carries only its
/// learned state (its profile is rebuilt from the system's config);
/// 10 — the adaptive window controller's tuning and CQC's boosting
/// configuration are constants and no longer travel: an adaptive
/// `WindowPolicy` is its tag, `min` and `max`, and `QualityController` is
/// its optional model;
/// 11 — the fleet frame stamps this version too (its own counter, last at
/// 2, is gone), and a fleet payload carries each shard's runtime payload
/// inline instead of a framed snapshot per shard, the ledger as per-shard
/// spend alone and the pool as its live state alone (budget, quotas and
/// capacity are rebuilt from the `FleetConfig`). A runtime payload is
/// unchanged;
/// 12 — every committee member travels as its `Classifier::encode_learned`
/// state, so `Model::Ensemble` checkpoints too: the boosted classifier
/// carries its members' learned states, the SAMME alphas and its
/// validation buffer (each sample's image id and visual block means, then
/// the labels). `UcbAlp` lost its exploration scale, now a constant; the
/// other members' bytes are unchanged;
/// 13 — each fact travels once, and what the configuration fixes is
/// rebuilt on resume: the incentive policy is its learner's learned state
/// (no kind tag, `BanditConfig`, ε or pinned action) and the observation
/// count, the Hedge learner is its weights and round count (no η), the
/// fault injector is its loss-stream position (the plan is the
/// `RuntimeConfig`'s), the event queue carries the one virtual clock and
/// its sequence counter (the execution state lost its clock, event count,
/// effective window and admission slots, and the queue its scheduled and
/// popped counters), and the HIT events carry no cycle (a HIT's cycle is
/// its board entry's);
/// 14 — the platform books nothing: the `Platform` codec lost the
/// submitter id and its query accounting, a `CycleWork` lost its cycle index
/// (its `active` key names the cycle), and the fleet payload carries each
/// shard's `ShardUsage` (queries, reposts, worker-seconds, spend) where it
/// carried the shard's spend alone;
/// 15 — the metrics tap lost its five crowd-delay sketches (41 288 B per
/// tap) and its spend-event counter (posts plus reposts): the delays are
/// the outcomes' and the active cycles' own, and the views are built from
/// them. The delay sketch has no codec any more, and the execution
/// state must hold each cycle in exactly one lifecycle state (arriving,
/// waiting, inferring, active or closed);
/// 16 — a HIT is one board entry with one queued resolution: the no-op
/// `HitPosted` marker (tag 2) and the `LateAnswer` event (tag 6) are gone,
/// a waited-out HIT stays on the board until its `HitAnswered`, an
/// in-flight HIT lost its incentive (its pending answer carries it), and
/// resume pairs queued HIT events and board HITs one to one;
/// 17 — the CQC model's trees travel as each feature's cuts (its distinct
/// split thresholds) and, in preorder, every node's `u16` feature, every
/// split's `u16` cut rank and every leaf's weight: four bytes a split where
/// there were ten, and the decoder rebuilds the compiled leaf-mask table;
/// 18 — the frame checksum is XXH64, seed 0 ([`crate::frame_checksum`]),
/// where it was FNV-1a-64; the payload is unchanged;
/// 19 — a live cycle keeps each absorbed answer as one entry: its image, its
/// tally (votes per label, "yes" answers per question and the incentive
/// level, nine bytes) and whether it may offload, where it held the image
/// with CQC's 24-byte distribution and a separate list of the flags, since
/// CQC now scores a cycle's answers together when the cycle closes; a
/// HIT's response decodes only with a query's fan-out of workers.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 19;

/// Why a runtime or fleet snapshot could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with the magic of the snapshot kind asked
    /// for (runtime or fleet).
    BadMagic,
    /// The snapshot was written by a different format version.
    VersionMismatch {
        /// The version recorded in the snapshot.
        found: u32,
    },
    /// The payload checksum does not match — the bytes were corrupted.
    ChecksumMismatch,
    /// The payload failed to decode or failed a state invariant.
    Corrupt(DecodeError),
    /// The stream handed to resume has a different cycle count than the
    /// stream the snapshot was taken against.
    CycleCountMismatch {
        /// Cycles the snapshot expects.
        expected: usize,
        /// Cycles the provided stream has.
        found: usize,
    },
    /// The stream set handed to a fleet resume has a different shard count
    /// than the fleet the snapshot was taken of.
    ShardCountMismatch {
        /// Shards the snapshot expects.
        expected: usize,
        /// Streams provided.
        found: usize,
    },
    /// One shard's payload inside a fleet snapshot failed to decode or
    /// restore.
    Shard {
        /// The failing shard's index.
        shard: usize,
        /// The shard payload's own error.
        error: Box<SnapshotError>,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot of the expected kind (bad magic)"),
            SnapshotError::VersionMismatch { found } => write!(
                f,
                "snapshot format version {found} != supported {SNAPSHOT_FORMAT_VERSION}"
            ),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            SnapshotError::Corrupt(e) => write!(f, "snapshot payload corrupt: {e}"),
            SnapshotError::CycleCountMismatch { expected, found } => write!(
                f,
                "snapshot expects a {expected}-cycle stream, got {found} cycles"
            ),
            SnapshotError::ShardCountMismatch { expected, found } => write!(
                f,
                "fleet snapshot expects {expected} shard streams, got {found}"
            ),
            SnapshotError::Shard { shard, error } => write!(f, "shard {shard} snapshot: {error}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Corrupt(e) => Some(e),
            SnapshotError::Shard { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// A sealed snapshot: an opaque payload plus the framing that lets a later
/// process validate it before trusting a single byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeSnapshot {
    payload: Vec<u8>,
}

impl RuntimeSnapshot {
    /// Wraps a freshly encoded payload (crate-internal: only
    /// [`crate::PipelinedSystem::snapshot`] produces valid payloads).
    pub(crate) fn seal(payload: Vec<u8>) -> Self {
        Self { payload }
    }

    /// The raw payload bytes (already validated when this snapshot came
    /// from [`RuntimeSnapshot::from_bytes`]).
    pub(crate) fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The snapshot's serialized size in bytes, framing included.
    pub fn serialized_len(&self) -> usize {
        frame::HEADER_LEN + self.payload.len()
    }

    /// Serializes the snapshot with its magic/version/length/checksum frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        frame::seal(&MAGIC, &self.payload)
    }

    /// Validates the frame (magic, version, length, checksum) and returns
    /// the snapshot. The payload's *contents* are validated later, when
    /// [`crate::PipelinedSystem::resume`] decodes them.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let payload = frame::open(&MAGIC, bytes)?;
        Ok(Self {
            payload: payload.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let snap = RuntimeSnapshot::seal(vec![1, 2, 3, 4, 5]);
        let bytes = snap.to_bytes();
        assert_eq!(bytes.len(), snap.serialized_len());
        assert_eq!(RuntimeSnapshot::from_bytes(&bytes), Ok(snap));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = RuntimeSnapshot::seal(vec![9; 16]).to_bytes();
        bytes[0] ^= 0xff;
        assert_eq!(
            RuntimeSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        );
    }

    #[test]
    fn rejects_version_mismatch() {
        let mut bytes = RuntimeSnapshot::seal(vec![9; 16]).to_bytes();
        bytes[8] = 0xfe; // version LE low byte
        assert_eq!(
            RuntimeSnapshot::from_bytes(&bytes),
            Err(SnapshotError::VersionMismatch { found: 0xfe })
        );
    }

    #[test]
    fn rejects_corrupted_payload() {
        let mut bytes = RuntimeSnapshot::seal(vec![9; 16]).to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert_eq!(
            RuntimeSnapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch)
        );
    }

    #[test]
    fn rejects_truncation() {
        let bytes = RuntimeSnapshot::seal(vec![9; 16]).to_bytes();
        assert_eq!(
            RuntimeSnapshot::from_bytes(&bytes[..bytes.len() - 3]),
            Err(SnapshotError::Corrupt(DecodeError::Truncated))
        );
        assert_eq!(
            RuntimeSnapshot::from_bytes(&bytes[..10]),
            Err(SnapshotError::Corrupt(DecodeError::Truncated))
        );
    }
}
