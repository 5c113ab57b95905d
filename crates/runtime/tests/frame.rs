//! Wire pins for the snapshot frame: the exact bytes a fixed payload is
//! framed into under the runtime and fleet magics, and the typed errors
//! (with their `Display` texts) each frame defect decodes to. Both
//! snapshot types share one frame codec, one format version and one error
//! type; these pins hold them to the format already on disk.

use crowdlearn_runtime::{FleetSnapshot, RuntimeSnapshot, SnapshotError};
use serde::binary::DecodeError;

const PAYLOAD: &[u8] = b"frame pin";
/// FNV-1a-64 of `PAYLOAD`.
const CHECKSUM: u64 = 0x581c_b88f_0c02_4f09;

/// An in-place corruption of framed bytes.
type Defect = fn(&mut Vec<u8>);

fn framed(magic: &[u8; 8], version: u32) -> Vec<u8> {
    [
        magic.as_slice(),
        &version.to_le_bytes(),
        &(PAYLOAD.len() as u64).to_le_bytes(),
        &CHECKSUM.to_le_bytes(),
        PAYLOAD,
    ]
    .concat()
}

#[test]
fn runtime_frame_bytes_are_pinned() {
    let bytes = framed(b"CLSNAP\x00\x01", 13);
    let snap = RuntimeSnapshot::from_bytes(&bytes).expect("pinned frame opens");
    assert_eq!(snap.to_bytes(), bytes);
    assert_eq!(snap.serialized_len(), bytes.len());
    // A frame of the previous format is refused by version, not misread.
    assert_eq!(
        RuntimeSnapshot::from_bytes(&framed(b"CLSNAP\x00\x01", 12)),
        Err(SnapshotError::VersionMismatch { found: 12 })
    );
}

#[test]
fn fleet_frame_bytes_are_pinned() {
    let bytes = framed(b"CLFLEET\x00", 13);
    let snap = FleetSnapshot::from_bytes(&bytes).expect("pinned frame opens");
    assert_eq!(snap.to_bytes(), bytes);
    assert_eq!(snap.serialized_len(), bytes.len());
    // The fleet frame's own counter ended at 2; such a frame nests framed
    // shard snapshots and is refused by version.
    assert_eq!(
        FleetSnapshot::from_bytes(&framed(b"CLFLEET\x00", 2)),
        Err(SnapshotError::VersionMismatch { found: 2 })
    );
}

#[test]
fn frame_defects_decode_to_the_same_typed_errors() {
    let runtime = framed(b"CLSNAP\x00\x01", 13);
    let fleet = framed(b"CLFLEET\x00", 13);
    let defects: [(&str, Defect); 5] = [
        ("magic", |b| b[0] ^= 0xff),
        ("version", |b| b[8] = 0xfe),
        ("checksum", |b| *b.last_mut().expect("non-empty") ^= 1),
        ("truncated", |b| b.truncate(b.len() - 3)),
        ("trailing", |b| b.push(0)),
    ];
    let expected = [
        (
            SnapshotError::BadMagic,
            "not a snapshot of the expected kind (bad magic)",
        ),
        (
            SnapshotError::VersionMismatch { found: 0xfe },
            "snapshot format version 254 != supported 13",
        ),
        (
            SnapshotError::ChecksumMismatch,
            "snapshot payload checksum mismatch",
        ),
        (
            SnapshotError::Corrupt(DecodeError::Truncated),
            "snapshot payload corrupt: input truncated mid-value",
        ),
        (
            SnapshotError::Corrupt(DecodeError::Invalid),
            "snapshot payload corrupt: invalid tag or length",
        ),
    ];
    for ((defect, edit), (error, text)) in defects.iter().zip(expected) {
        let mut r = runtime.clone();
        edit(&mut r);
        let err = RuntimeSnapshot::from_bytes(&r).expect_err(defect);
        assert_eq!(err.to_string(), text, "{defect}");
        assert_eq!(err, error, "{defect}");
        let mut f = fleet.clone();
        edit(&mut f);
        assert_eq!(FleetSnapshot::from_bytes(&f).err(), Some(error), "{defect}");
    }
    // A header cut short of its fixed 28 bytes is truncation, not a bad
    // length field.
    assert_eq!(
        RuntimeSnapshot::from_bytes(&runtime[..10]),
        Err(SnapshotError::Corrupt(DecodeError::Truncated))
    );
    assert_eq!(
        FleetSnapshot::from_bytes(&fleet[..10]),
        Err(SnapshotError::Corrupt(DecodeError::Truncated))
    );
    // A fleet resume wraps a shard payload's own error with the shard's
    // index.
    let shard = SnapshotError::Shard {
        shard: 2,
        error: Box::new(SnapshotError::Corrupt(DecodeError::Invalid)),
    };
    assert_eq!(
        shard.to_string(),
        "shard 2 snapshot: snapshot payload corrupt: invalid tag or length"
    );
}
