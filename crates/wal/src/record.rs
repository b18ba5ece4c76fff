//! The on-disk format: segment headers and framed commit records.
//!
//! ```text
//! segment  := header record*
//! header   := magic:[u8;8] first_lsn:u64le          (16 bytes)
//! record   := len:u32le crc:u32le payload           (8 + len bytes)
//! payload  := lsn:u64le ops                          (len bytes)
//! ops      := txboost-wire `encode_ops` encoding
//! ```
//!
//! `crc` is the CRC-32 of the whole payload (LSN included), so a torn
//! or bit-flipped record — length field, checksum, LSN, or op bytes —
//! is always detected. `len` counts payload bytes only.

use crate::crc::crc32;
use txboost_wire::ScriptOp;

/// First bytes of every segment file.
pub const MAGIC: [u8; 8] = *b"TXBWAL1\n";

/// Bytes of a segment header: magic plus the first LSN of the segment.
pub const SEGMENT_HEADER_LEN: usize = 16;

/// Bytes of a record frame before the payload: length plus CRC-32.
pub const RECORD_HEADER_LEN: usize = 8;

/// Cap on a record payload; matches the wire protocol's frame cap, so
/// any script the server accepted fits in one record. A length field
/// above this is corruption, not a large record.
pub const MAX_PAYLOAD_LEN: usize = 1 << 20;

/// Build the 16-byte header that opens the segment whose first record
/// will carry `first_lsn`.
pub fn segment_header(first_lsn: u64) -> [u8; SEGMENT_HEADER_LEN] {
    let mut out = [0u8; SEGMENT_HEADER_LEN];
    out[..8].copy_from_slice(&MAGIC);
    out[8..].copy_from_slice(&first_lsn.to_le_bytes());
    out
}

/// Parse a segment header; `None` if the buffer is too short or the
/// magic does not match (a torn or corrupt segment).
pub fn parse_segment_header(buf: &[u8]) -> Option<u64> {
    if buf.len() < SEGMENT_HEADER_LEN || buf[..8] != MAGIC {
        return None;
    }
    let lsn_bytes: [u8; 8] = buf[8..SEGMENT_HEADER_LEN].try_into().ok()?;
    Some(u64::from_le_bytes(lsn_bytes))
}

/// Bytes a record frame holds before its op bytes: the frame header
/// plus the LSN. A frame is built in one buffer — these bytes reserved,
/// the ops encoded in place after them, then [`seal_record`].
pub const RECORD_PREFIX_LEN: usize = RECORD_HEADER_LEN + 8;

/// Finish a frame whose op bytes (`txboost_wire::encode_ops` output)
/// already follow [`RECORD_PREFIX_LEN`] reserved bytes: write the LSN,
/// then the payload length and the CRC of the payload as written.
pub fn seal_record(frame: &mut [u8], lsn: u64) {
    let len = frame.len() - RECORD_HEADER_LEN;
    debug_assert!((8..=MAX_PAYLOAD_LEN).contains(&len));
    frame[RECORD_HEADER_LEN..RECORD_PREFIX_LEN].copy_from_slice(&lsn.to_le_bytes());
    let crc = crc32(&frame[RECORD_HEADER_LEN..]);
    frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
    frame[4..RECORD_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// Bytes of the sealed frame that starts `frames`, a buffer of frames
/// laid back to back by [`seal_record`] (this process wrote them: the
/// length fields are trusted, unlike recovery's).
pub fn frame_len(frames: &[u8]) -> usize {
    let len = u32::from_le_bytes([frames[0], frames[1], frames[2], frames[3]]);
    RECORD_HEADER_LEN + len as usize
}

/// A sealed frame around raw `ops_bytes` (tests frame payloads that
/// are not op lists).
#[cfg(test)]
pub(crate) fn frame_record(lsn: u64, ops_bytes: &[u8]) -> Vec<u8> {
    let mut frame = vec![0; RECORD_PREFIX_LEN];
    frame.extend_from_slice(ops_bytes);
    seal_record(&mut frame, lsn);
    frame
}

/// Outcome of parsing the bytes at one record boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// A complete, checksum-valid record.
    Record {
        /// The record's log sequence number.
        lsn: u64,
        /// The decoded forward method calls.
        ops: Vec<ScriptOp>,
        /// Total frame bytes consumed (header + payload).
        consumed: usize,
    },
    /// Fewer bytes remain than the frame claims — a torn tail.
    Torn,
    /// The frame is structurally invalid (bad length, bad checksum,
    /// undecodable ops); the reason is a static description.
    Corrupt(&'static str),
}

/// Parse the record starting at `buf[0]`. The caller handles the
/// empty-buffer case (a clean end of segment) before calling.
pub fn parse_record(buf: &[u8]) -> Parsed {
    if buf.len() < RECORD_HEADER_LEN {
        return Parsed::Torn;
    }
    let len_bytes: [u8; 4] = match buf[..4].try_into() {
        Ok(b) => b,
        Err(_) => return Parsed::Torn,
    };
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_PAYLOAD_LEN {
        return Parsed::Corrupt("record length exceeds cap");
    }
    if len < 8 {
        return Parsed::Corrupt("record length shorter than an LSN");
    }
    let total = RECORD_HEADER_LEN + len;
    if buf.len() < total {
        return Parsed::Torn;
    }
    let crc_bytes: [u8; 4] = match buf[4..8].try_into() {
        Ok(b) => b,
        Err(_) => return Parsed::Torn,
    };
    let stored = u32::from_le_bytes(crc_bytes);
    let payload = &buf[RECORD_HEADER_LEN..total];
    if crc32(payload) != stored {
        return Parsed::Corrupt("checksum mismatch");
    }
    let lsn_bytes: [u8; 8] = match payload[..8].try_into() {
        Ok(b) => b,
        Err(_) => return Parsed::Torn,
    };
    let lsn = u64::from_le_bytes(lsn_bytes);
    match txboost_wire::decode_ops(&payload[8..]) {
        Ok(ops) => Parsed::Record {
            lsn,
            ops,
            consumed: total,
        },
        Err(_) => Parsed::Corrupt("undecodable op list"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txboost_wire::{Guard, Op};

    fn sample_ops() -> Vec<ScriptOp> {
        vec![
            ScriptOp {
                op: Op::MapInsert {
                    obj: "bank".into(),
                    key: 3,
                    val: 7,
                },
                guard: Guard::ExpectNone,
            },
            ScriptOp {
                op: Op::CounterAdd {
                    obj: "applied".into(),
                    delta: 1,
                },
                guard: Guard::None,
            },
        ]
    }

    fn sample_frame(lsn: u64) -> Vec<u8> {
        let ops = sample_ops();
        let mut ops_bytes = Vec::new();
        txboost_wire::encode_ops(&mut ops_bytes, &ops);
        frame_record(lsn, &ops_bytes)
    }

    #[test]
    fn record_round_trip() {
        let frame = sample_frame(42);
        match parse_record(&frame) {
            Parsed::Record { lsn, ops, consumed } => {
                assert_eq!(lsn, 42);
                assert_eq!(ops, sample_ops());
                assert_eq!(consumed, frame.len());
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn every_strict_prefix_is_torn() {
        let frame = sample_frame(7);
        for cut in 0..frame.len() {
            assert_eq!(
                parse_record(&frame[..cut]),
                Parsed::Torn,
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let frame = sample_frame(9);
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[i] ^= 1 << bit;
                match parse_record(&bad) {
                    Parsed::Record { .. } => {
                        panic!("flip at byte {i} bit {bit} went undetected")
                    }
                    Parsed::Torn | Parsed::Corrupt(_) => {}
                }
            }
        }
    }

    #[test]
    fn header_round_trip_and_bad_magic() {
        let h = segment_header(1234);
        assert_eq!(parse_segment_header(&h), Some(1234));
        assert_eq!(parse_segment_header(&h[..SEGMENT_HEADER_LEN - 1]), None);
        let mut bad = h;
        bad[0] ^= 0xFF;
        assert_eq!(parse_segment_header(&bad), None);
    }

    #[test]
    fn oversized_length_is_corrupt_not_torn() {
        let mut frame = sample_frame(1);
        frame[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(parse_record(&frame), Parsed::Corrupt(_)));
    }
}
