//! The checksummed frame both snapshot kinds travel in:
//!
//! ```text
//! magic                              8 bytes
//! format version                     u32 LE
//! payload length                     u64 LE
//! FNV-1a-64 checksum of the payload  u64 LE
//! payload                            length bytes
//! ```
//!
//! [`crate::RuntimeSnapshot`] and [`crate::FleetSnapshot`] differ only in
//! their magic: both stamp the one [`SNAPSHOT_FORMAT_VERSION`], and each
//! maps [`FrameError`] onto its own public error enum.

use crate::SNAPSHOT_FORMAT_VERSION;
use serde::binary::DecodeError;

/// Bytes of framing in front of the payload.
pub(crate) const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Why bytes failed to open as a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameError {
    /// The bytes do not start with the expected magic.
    BadMagic,
    /// The frame carries another format version.
    VersionMismatch { found: u32 },
    /// The payload does not hash to the recorded checksum.
    ChecksumMismatch,
    /// The header is cut short, or the payload length disagrees with it.
    Corrupt(DecodeError),
}

/// Frames `payload` under `magic` and the current format version.
pub(crate) fn seal(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates the frame (magic, version, length, checksum) and returns the
/// payload it carries. The payload's *contents* are the caller's to
/// validate.
pub(crate) fn open<'a>(magic: &[u8; 8], bytes: &'a [u8]) -> Result<&'a [u8], FrameError> {
    if !bytes.starts_with(magic) {
        return Err(FrameError::BadMagic);
    }
    let Some((header, payload)) = bytes.split_at_checked(HEADER_LEN) else {
        return Err(FrameError::Corrupt(DecodeError::Truncated));
    };
    let field = |at: usize| -> [u8; 8] {
        header[at..at + 8]
            .try_into()
            .expect("invariant: header fields are 8 bytes")
    };
    let found = u32::from_le_bytes(
        header[8..12]
            .try_into()
            .expect("invariant: the version field is 4 bytes"),
    );
    if found != SNAPSHOT_FORMAT_VERSION {
        return Err(FrameError::VersionMismatch { found });
    }
    let len = u64::from_le_bytes(field(12));
    if payload.len() as u64 != len {
        return Err(FrameError::Corrupt(if (payload.len() as u64) < len {
            DecodeError::Truncated
        } else {
            DecodeError::Invalid
        }));
    }
    if fnv1a64(payload) != u64::from_le_bytes(field(20)) {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok(payload)
}

/// FNV-1a 64-bit over the payload — cheap, dependency-free, and plenty to
/// catch torn writes and bit flips (this guards against accidents, not
/// adversaries).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
