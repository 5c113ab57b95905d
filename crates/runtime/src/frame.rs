//! The checksummed frame both snapshot kinds travel in:
//!
//! ```text
//! magic                              8 bytes
//! format version                     u32 LE
//! payload length                     u64 LE
//! XXH64 (seed 0) of the payload      u64 LE
//! payload                            length bytes
//! ```
//!
//! [`crate::RuntimeSnapshot`] and [`crate::FleetSnapshot`] differ only in
//! their magic: both stamp the one [`SNAPSHOT_FORMAT_VERSION`] and report
//! frame defects as the one [`SnapshotError`].

use crate::{SnapshotError, SNAPSHOT_FORMAT_VERSION};
use serde::binary::DecodeError;

/// Bytes of framing in front of the payload.
pub(crate) const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Frames `payload` under `magic` and the current format version.
pub(crate) fn seal(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&frame_checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates the frame (magic, version, length, checksum) and returns the
/// payload it carries. The payload's *contents* are the caller's to
/// validate.
pub(crate) fn open<'a>(magic: &[u8; 8], bytes: &'a [u8]) -> Result<&'a [u8], SnapshotError> {
    if !bytes.starts_with(magic) {
        return Err(SnapshotError::BadMagic);
    }
    let Some((header, payload)) = bytes.split_at_checked(HEADER_LEN) else {
        return Err(SnapshotError::Corrupt(DecodeError::Truncated));
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
        return Err(SnapshotError::VersionMismatch { found });
    }
    let len = u64::from_le_bytes(field(12));
    if payload.len() as u64 != len {
        return Err(SnapshotError::Corrupt(if (payload.len() as u64) < len {
            DecodeError::Truncated
        } else {
            DecodeError::Invalid
        }));
    }
    if frame_checksum(payload) != u64::from_le_bytes(field(20)) {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(payload)
}

const PRIME64_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME64_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME64_3: u64 = 0x1656_67b1_9e37_79f9;
const PRIME64_4: u64 = 0x85eb_ca77_c2b2_ae63;
const PRIME64_5: u64 = 0x27d4_eb2f_1656_67c5;

/// The checksum a snapshot frame carries over its payload: XXH64 with seed
/// 0, as the xxHash specification defines it. Four independent lanes hash
/// each 32-byte stripe, so the hash runs near memory speed; it catches
/// torn writes and bit flips (it guards against accidents, not
/// adversaries).
pub fn frame_checksum(payload: &[u8]) -> u64 {
    fn round(acc: u64, lane: u64) -> u64 {
        acc.wrapping_add(lane.wrapping_mul(PRIME64_2))
            .rotate_left(31)
            .wrapping_mul(PRIME64_1)
    }
    fn merge(acc: u64, lane: u64) -> u64 {
        (acc ^ round(0, lane))
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4)
    }
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("invariant: 8-byte chunk"));
    let stripes = payload.chunks_exact(32);
    let tail = stripes.remainder();
    let mut acc = if payload.len() >= 32 {
        let mut v = [
            PRIME64_1.wrapping_add(PRIME64_2),
            PRIME64_2,
            0,
            PRIME64_1.wrapping_neg(),
        ];
        for stripe in stripes {
            for (v, lane) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *v = round(*v, word(lane));
            }
        }
        let acc = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.into_iter().fold(acc, merge)
    } else {
        PRIME64_5
    };
    acc = acc.wrapping_add(payload.len() as u64);
    let words = tail.chunks_exact(8);
    let mut rest = words.remainder();
    for lane in words {
        acc = (acc ^ round(0, word(lane)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
    }
    if let Some((half, bytes)) = rest.split_first_chunk::<4>() {
        acc = (acc ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = bytes;
    }
    for &b in rest {
        acc = (acc ^ u64::from(b).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(PRIME64_2);
    acc ^= acc >> 29;
    acc = acc.wrapping_mul(PRIME64_3);
    acc ^ (acc >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_matches_the_xxh64_known_answers() {
        let vectors: [(&[u8], u64); 5] = [
            (b"", 0xef46_db37_51d8_e999),
            (b"a", 0xd24e_c4f1_a98c_6e5b),
            (b"abc", 0x44bc_2cf5_ad77_0999),
            // 9 bytes: an 8-byte and a 1-byte tail (`tests/frame.rs`'s pin).
            (b"frame pin", 0xfd8e_c61c_0c52_55a1),
            // 39 bytes: one stripe, then a 4-byte and three 1-byte tails.
            (
                b"Nobody inspects the spammish repetition",
                0xfbce_a83c_8a37_8bf1,
            ),
        ];
        for (input, want) in vectors {
            assert_eq!(frame_checksum(input), want, "{input:?}");
        }
    }
}
