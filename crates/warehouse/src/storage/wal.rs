//! The write-ahead log: segment format, record codec, and scanner.
//!
//! A segment file `wal-NNNNNNNN.log` is a 20-byte header followed by
//! zero or more frames:
//!
//! ```text
//! header : magic "DWCWAL1\n" (8) | segment id u64 LE | crc32 of the first 16 bytes
//! frame  : payload_len u32 LE | crc32(payload) u32 LE | payload
//! payload: tag u8 (1 = Offered, 2 = Recovered, 3 = Requeued, 4 = Discarded) | body
//! ```
//!
//! An `Offered` body is one envelope; a `Recovered` body is the source
//! id plus the envelope log slice the repair consumed; `Requeued` and
//! `Discarded` bodies are a quarantine index (plus the operator's
//! reason, for discards) — replay re-runs the operator action against
//! the deterministically reconstructed quarantine log. Envelopes and
//! updates use the canonical binary value encoding of
//! [`dwc_relalg::io`] (relations carry their own trailing CRC — defense
//! in depth under the frame CRC).
//!
//! The scanner distinguishes two failure shapes by construction:
//!
//! * **torn tail** — the file ends before a complete frame (fewer than
//!   8 bytes of framing left, or a length pointing past EOF). That is
//!   the signature of a crash mid-append; the tail is truncated and the
//!   event counted, never an error.
//! * **corruption** — a *complete* frame whose payload fails its CRC or
//!   decodes to garbage, or a damaged header. Those are typed
//!   [`StorageError::WalHeader`] / [`StorageError::WalCorruptRecord`].

use super::{StorageError, StorageMedium};
use crate::channel::{Envelope, SourceId};
use dwc_relalg::io::{crc32, decode_relation, encode_relation, ByteReader, ByteWriter};
use dwc_relalg::{Delta, RelalgError, Update};

/// Magic bytes opening every WAL segment.
pub const WAL_MAGIC: [u8; 8] = *b"DWCWAL1\n";

/// One durable log record.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// An envelope offered to the ingestor (whatever the outcome —
    /// replay is idempotent, and quarantines must replay too).
    Offered(Envelope),
    /// A gap repair: the source and the outbox log slice it consumed.
    Recovered {
        /// The source whose gap was repaired.
        source: SourceId,
        /// The log slice passed to the repair, verbatim.
        log: Vec<Envelope>,
    },
    /// An operator re-offered the quarantined envelope at `index`
    /// through the normal ingestion path. Replay is deterministic
    /// because the quarantine log itself is rebuilt record by record.
    Requeued {
        /// Position in the quarantine log at the time of the requeue.
        index: u64,
    },
    /// An operator permanently discarded the quarantined envelope at
    /// `index`, stating a reason.
    Discarded {
        /// Position in the quarantine log at the time of the discard.
        index: u64,
        /// The operator's stated reason.
        reason: String,
    },
}

/// The name of segment `id`.
pub fn segment_name(id: u64) -> String {
    format!("wal-{id:08}.log")
}

/// Creates (and syncs) an empty segment for `id`, returning its name.
pub(crate) fn create_segment<M: StorageMedium>(
    medium: &M,
    id: u64,
) -> Result<String, StorageError> {
    let name = segment_name(id);
    let mut w = ByteWriter::new();
    w.put_bytes(&WAL_MAGIC);
    w.put_u64(id);
    let header = w.into_bytes();
    let mut framed = header.clone();
    framed.extend_from_slice(&crc32(&header).to_le_bytes());
    medium.write_all(&name, &framed)?;
    medium.sync(&name)?;
    Ok(name)
}

/// Encodes `record` as one checksummed frame at the end of `out`
/// (whatever `out` already holds is kept) and returns the frame's
/// length. A group commit encodes all of its frames into one buffer
/// and hands the medium a single append.
pub(crate) fn encode_frame(out: &mut Vec<u8>, record: &WalRecord) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    let mut w = ByteWriter::from_vec(std::mem::take(out));
    put_record(&mut w, record);
    *out = w.into_bytes();
    let payload = &out[start + 8..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    out.len() - start
}

/// Reads a little-endian u32 at `pos`; the caller guarantees bounds.
fn le_u32(data: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]])
}

/// Reads a little-endian u64 at `pos`; the caller guarantees bounds.
fn le_u64(data: &[u8], pos: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[pos..pos + 8]);
    u64::from_le_bytes(b)
}

/// What a segment scan found.
#[derive(Clone, Debug, PartialEq)]
pub struct WalScan {
    /// Every complete, checksum-valid record, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes of torn tail truncated after the last complete frame
    /// (0 on a cleanly closed segment).
    pub torn_bytes: usize,
}

/// Reads and validates a whole segment; see the module docs for the
/// torn-vs-corrupt contract.
pub(crate) fn scan_segment<M: StorageMedium>(
    medium: &M,
    segment: &str,
    expect_id: u64,
) -> Result<WalScan, StorageError> {
    let data = medium.read(segment)?;
    let header_err = |detail: String| StorageError::WalHeader {
        segment: segment.to_owned(),
        detail,
    };
    if data.len() < 20 {
        return Err(header_err(format!("{} bytes, header needs 20", data.len())));
    }
    if data[..8] != WAL_MAGIC {
        return Err(header_err("bad magic".to_owned()));
    }
    let stored_crc = le_u32(&data, 16);
    if crc32(&data[..16]) != stored_crc {
        return Err(header_err("header checksum mismatch".to_owned()));
    }
    let id = le_u64(&data, 8);
    if id != expect_id {
        return Err(header_err(format!("segment id {id}, expected {expect_id}")));
    }
    let mut records = Vec::new();
    let mut pos = 20usize;
    let torn_bytes = loop {
        let remaining = data.len() - pos;
        if remaining == 0 {
            break 0;
        }
        if remaining < 8 {
            break remaining;
        }
        let len = le_u32(&data, pos) as usize;
        let stored = le_u32(&data, pos + 4);
        if len > remaining - 8 {
            // Length points past EOF: an append the crash cut short.
            break remaining;
        }
        let payload = &data[pos + 8..pos + 8 + len];
        if crc32(payload) != stored {
            return Err(StorageError::WalCorruptRecord {
                segment: segment.to_owned(),
                offset: pos,
                detail: "frame checksum mismatch".to_owned(),
            });
        }
        let record = decode_record(payload).map_err(|e| StorageError::WalCorruptRecord {
            segment: segment.to_owned(),
            offset: pos,
            detail: e.to_string(),
        })?;
        records.push(record);
        pos += 8 + len;
    };
    Ok(WalScan { records, torn_bytes })
}

fn put_record(w: &mut ByteWriter, record: &WalRecord) {
    match record {
        WalRecord::Offered(env) => {
            w.put_u8(1);
            put_envelope(w, env);
        }
        WalRecord::Recovered { source, log } => {
            w.put_u8(2);
            w.put_str(source.as_str());
            w.put_u32(log.len() as u32);
            for env in log {
                put_envelope(w, env);
            }
        }
        WalRecord::Requeued { index } => {
            w.put_u8(3);
            w.put_u64(*index);
        }
        WalRecord::Discarded { index, reason } => {
            w.put_u8(4);
            w.put_u64(*index);
            w.put_str(reason);
        }
    }
}

fn decode_record(payload: &[u8]) -> Result<WalRecord, RelalgError> {
    let mut r = ByteReader::new(payload);
    let record = match r.take_u8()? {
        1 => WalRecord::Offered(take_envelope(&mut r)?),
        2 => {
            let source = SourceId::new(r.take_str()?);
            let n = r.take_u32()? as usize;
            if n > r.remaining() {
                return Err(r.corrupt(format!("recovered-log count {n} exceeds payload")));
            }
            let mut log = Vec::with_capacity(n);
            for _ in 0..n {
                log.push(take_envelope(&mut r)?);
            }
            WalRecord::Recovered { source, log }
        }
        3 => WalRecord::Requeued { index: r.take_u64()? },
        4 => {
            let index = r.take_u64()?;
            let reason = r.take_str()?;
            WalRecord::Discarded { index, reason }
        }
        tag => return Err(r.corrupt(format!("unknown WAL record tag {tag}"))),
    };
    r.expect_end()?;
    Ok(record)
}

/// Writes one envelope: source | epoch | seq | report.
pub(crate) fn put_envelope(w: &mut ByteWriter, env: &Envelope) {
    w.put_str(env.source.as_str());
    w.put_u64(env.epoch);
    w.put_u64(env.seq);
    put_update(w, &env.report);
}

/// Reads one envelope written by [`put_envelope`].
pub(crate) fn take_envelope(r: &mut ByteReader<'_>) -> Result<Envelope, RelalgError> {
    let source = SourceId::new(r.take_str()?);
    let epoch = r.take_u64()?;
    let seq = r.take_u64()?;
    let report = take_update(r)?;
    Ok(Envelope { source, epoch, seq, report })
}

/// Writes one update: relation count, then per relation the name and
/// length-prefixed insert/delete relation blobs (each blob is the
/// canonical encoding of [`dwc_relalg::io::encode_relation`], own CRC
/// included).
pub(crate) fn put_update(w: &mut ByteWriter, update: &Update) {
    let rels: Vec<_> = update.iter().collect();
    w.put_u32(rels.len() as u32);
    for (name, delta) in rels {
        w.put_str(name.as_str());
        let ins = encode_relation(delta.inserted());
        w.put_u32(ins.len() as u32);
        w.put_bytes(&ins);
        let del = encode_relation(delta.deleted());
        w.put_u32(del.len() as u32);
        w.put_bytes(&del);
    }
}

/// Reads one update written by [`put_update`].
pub(crate) fn take_update(r: &mut ByteReader<'_>) -> Result<Update, RelalgError> {
    let n = r.take_u32()? as usize;
    if n > r.remaining() {
        return Err(r.corrupt(format!("update relation count {n} exceeds payload")));
    }
    let mut update = Update::new();
    for _ in 0..n {
        let name = r.take_str()?;
        let ins_len = r.take_u32()? as usize;
        let ins = decode_relation(r.take_bytes(ins_len)?)?;
        let del_len = r.take_u32()? as usize;
        let del = decode_relation(r.take_bytes(del_len)?)?;
        let delta = Delta::new(ins, del)?;
        update = update.with(name.as_str(), delta);
    }
    Ok(update)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::DiskMedium;
    use dwc_relalg::rel;

    fn sample_envelope(seq: u64) -> Envelope {
        Envelope {
            source: SourceId::new("paris"),
            epoch: 2,
            seq,
            report: Update::inserting(
                "Sale",
                rel! { ["clerk", "item"] => ("Mary", "PC"), ("John", "Mac") },
            ),
        }
    }

    /// One record, one frame, one append.
    fn append_record(m: &DiskMedium, seg: &str, record: &WalRecord) {
        let mut frame = Vec::new();
        encode_frame(&mut frame, record);
        m.append(seg, &frame).unwrap();
    }

    #[test]
    fn records_roundtrip_through_a_segment() {
        let m = DiskMedium::default();
        let seg = create_segment(&m, 7).unwrap();
        assert_eq!(seg, "wal-00000007.log");
        let records = vec![
            WalRecord::Offered(sample_envelope(0)),
            WalRecord::Recovered {
                source: SourceId::new("paris"),
                log: vec![sample_envelope(1), sample_envelope(2)],
            },
            WalRecord::Offered(sample_envelope(3)),
            WalRecord::Requeued { index: 2 },
            WalRecord::Discarded { index: 0, reason: "ghost relation".to_owned() },
        ];
        for r in &records {
            append_record(&m, &seg, r);
        }
        let scan = scan_segment(&m, &seg, 7).unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn torn_tails_truncate_and_count() {
        let m = DiskMedium::default();
        let seg = create_segment(&m, 1).unwrap();
        append_record(&m, &seg, &WalRecord::Offered(sample_envelope(0)));
        let full = m.read(&seg).unwrap();
        append_record(&m, &seg, &WalRecord::Offered(sample_envelope(1)));
        let longer = m.read(&seg).unwrap();
        // Tear the second frame at every possible length.
        for cut in full.len() + 1..longer.len() {
            m.write_all(&seg, &longer[..cut]).unwrap();
            let scan = scan_segment(&m, &seg, 1).unwrap();
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.torn_bytes, cut - full.len());
        }
    }

    /// A group commit's one buffer holds exactly the frames one append
    /// per record would have written, and a tear anywhere inside it
    /// scans as the longest intact frame prefix.
    #[test]
    fn one_buffer_of_frames_is_byte_identical_and_tears_to_a_frame_prefix() {
        let records: Vec<WalRecord> =
            (0..5).map(|seq| WalRecord::Offered(sample_envelope(seq))).collect();
        let one_by_one = DiskMedium::default();
        let seg = create_segment(&one_by_one, 1).unwrap();
        let mut ends = vec![one_by_one.read(&seg).unwrap().len()];
        for r in &records {
            append_record(&one_by_one, &seg, r);
            ends.push(one_by_one.read(&seg).unwrap().len());
        }
        let mut buf = vec![0xAA];
        let mut lens = 0;
        for r in &records {
            lens += encode_frame(&mut buf, r);
        }
        assert_eq!(buf[0], 0xAA, "encoding must keep what the buffer held");
        assert_eq!(lens, buf.len() - 1);

        let m = DiskMedium::default();
        create_segment(&m, 1).unwrap();
        m.append(&seg, &buf[1..]).unwrap();
        let whole = m.read(&seg).unwrap();
        assert_eq!(whole, one_by_one.read(&seg).unwrap());
        for cut in ends[0]..=whole.len() {
            m.write_all(&seg, &whole[..cut]).unwrap();
            let scan = scan_segment(&m, &seg, 1).unwrap();
            let intact = ends.iter().rposition(|&end| end <= cut).unwrap();
            assert_eq!(scan.records, records[..intact], "cut at {cut}");
            assert_eq!(scan.torn_bytes, cut - ends[intact], "cut at {cut}");
        }
    }

    #[test]
    fn header_and_frame_corruption_are_typed() {
        let m = DiskMedium::default();
        let seg = create_segment(&m, 1).unwrap();
        append_record(&m, &seg, &WalRecord::Offered(sample_envelope(0)));
        let good = m.read(&seg).unwrap();

        // Bit flip in the header.
        let mut bad = good.clone();
        bad[3] ^= 0x40;
        m.write_all(&seg, &bad).unwrap();
        let err = scan_segment(&m, &seg, 1).unwrap_err();
        assert_eq!(err.code(), "DWC-S101");

        // Wrong segment id expectation.
        m.write_all(&seg, &good).unwrap();
        assert_eq!(scan_segment(&m, &seg, 9).unwrap_err().code(), "DWC-S101");

        // Bit flip inside a complete frame's payload.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        m.write_all(&seg, &bad).unwrap();
        let err = scan_segment(&m, &seg, 1).unwrap_err();
        assert_eq!(err.code(), "DWC-S102");

        // Truncated header.
        m.write_all(&seg, &good[..10]).unwrap();
        assert_eq!(scan_segment(&m, &seg, 1).unwrap_err().code(), "DWC-S101");
    }

    #[test]
    fn update_codec_handles_mixed_deltas() {
        let ins = rel! { ["a"] => (1,), (2,) };
        let del = rel! { ["a"] => (3,) };
        let update = Update::new().with("R", Delta::new(ins, del).unwrap()).with(
            "S",
            Delta::insert_only(rel! { ["x", "y"] => ("k", true) }),
        );
        let mut w = ByteWriter::new();
        put_update(&mut w, &update);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = take_update(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, update);
    }
}
