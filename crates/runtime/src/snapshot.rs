//! Versioned, checksummed runtime snapshots.
//!
//! A [`RuntimeSnapshot`] captures a [`crate::PipelinedSystem`] at an event
//! boundary — the learned module state plus, mid-run, the whole execution
//! state (clock, event queue, HIT board, per-cycle work). Resuming from it
//! replays the remaining events exactly as the original run would have, so
//! the final [`crate::RuntimeReport`] is byte-identical.
//!
//! The wire format frames the payload against corruption and format drift
//! (magic `b"CLSNAP\x00\x01"`, format version, payload length, FNV-1a-64
//! checksum — the frame shared with [`crate::FleetSnapshot`]).
//!
//! The payload itself is the vendored binary codec's output:
//! `RuntimeConfig`, then the core system state
//! ([`crowdlearn::CrowdLearnSystem::encode_state`]), then the optional
//! execution state, then the optional streaming metrics tap
//! ([`crate::MetricsTap`] — version 2; it rides in the snapshot so a
//! resumed run replays the identical metric stream). Floats travel as
//! IEEE-754 bits, so round trips are bit-exact by construction.

use crate::frame::{self, FrameError};
use crowdlearn::StateError;
use serde::binary::DecodeError;

/// Leading bytes of every snapshot.
const MAGIC: [u8; 8] = *b"CLSNAP\x00\x01";

/// Current snapshot format version. Bump on any payload layout change.
///
/// Version history: 1 — initial format; 2 — `CycleOutcome` gained exact
/// per-query delays and the payload gained the optional metrics tap;
/// 3 — the `Platform` codec gained the submitter id and `PlatformStats`
/// gained the repost grid and per-submitter usage (fleet attribution);
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
/// tap starts at its record counter.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 8;

/// Why a snapshot could not be produced or restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The system holds a component with no serialized form (a committee
    /// member that is not a simulated expert).
    UnsupportedSystem(StateError),
    /// The bytes do not start with the snapshot magic.
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
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnsupportedSystem(e) => write!(f, "system is not checkpointable: {e}"),
            SnapshotError::BadMagic => write!(f, "not a runtime snapshot (bad magic)"),
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
        }
    }
}

impl std::error::Error for SnapshotError {}

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
        frame::seal(&MAGIC, SNAPSHOT_FORMAT_VERSION, &self.payload)
    }

    /// Validates the frame (magic, version, length, checksum) and returns
    /// the snapshot. The payload's *contents* are validated later, when
    /// [`crate::PipelinedSystem::resume`] decodes them.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let payload = frame::open(&MAGIC, SNAPSHOT_FORMAT_VERSION, bytes)?;
        Ok(Self {
            payload: payload.to_vec(),
        })
    }
}

impl From<FrameError> for SnapshotError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::BadMagic => SnapshotError::BadMagic,
            FrameError::VersionMismatch { found } => SnapshotError::VersionMismatch { found },
            FrameError::ChecksumMismatch => SnapshotError::ChecksumMismatch,
            FrameError::Corrupt(e) => SnapshotError::Corrupt(e),
        }
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
