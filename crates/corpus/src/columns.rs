//! Column codec: [`loopscope::TraceRecord`] ⇄ the fixed-width column
//! arrays of one `.ltc` block.
//!
//! Both directions are one pass over a block with a cursor per lane:
//! encoding writes each record's cells into lanes split from the block
//! up front, and decoding builds each record once, shared by the
//! buffered and the mapped read paths. No fingerprint is stored: the decode derives each
//! record's from its replica-key fields
//! ([`TraceRecord::with_fingerprint`], as the pcap decode does), so no
//! file can hand the detectors a wrong one.

use crate::format::{CorpusError, ROW_BYTES, TAG_ICMP, TAG_OTHER, TAG_TCP, TAG_UDP};
use loopscope::{TraceRecord, TransportSummary};
use std::net::Ipv4Addr;
use std::path::Path;

/// Width of the `tp_blob` column.
const BLOB_BYTES: usize = 20;

/// Serialises `records` as one block's column data at the current
/// version, appended to `out`: one pass over the records, each writing
/// its cells through a cursor per lane split from the block up front —
/// the mirror of [`decode_columns_push`]. Their `fingerprint` fields are
/// not read.
pub fn encode_block(records: &[TraceRecord], out: &mut Vec<u8>) {
    let k = records.len();
    let start = out.len();
    out.resize(start + k * ROW_BYTES, 0);
    let (ts, rest) = out[start..].split_at_mut(8 * k);
    let (src, rest) = rest.split_at_mut(4 * k);
    let (dst, rest) = rest.split_at_mut(4 * k);
    let (ident, rest) = rest.split_at_mut(2 * k);
    let (total_len, rest) = rest.split_at_mut(2 * k);
    let (frag_word, rest) = rest.split_at_mut(2 * k);
    let (ip_checksum, rest) = rest.split_at_mut(2 * k);
    let (protocol, rest) = rest.split_at_mut(k);
    let (tos, rest) = rest.split_at_mut(k);
    let (ttl, rest) = rest.split_at_mut(k);
    let (tag, blob) = rest.split_at_mut(k);

    let mut ts = ts.chunks_exact_mut(8);
    let mut src = src.chunks_exact_mut(4);
    let mut dst = dst.chunks_exact_mut(4);
    let mut ident = ident.chunks_exact_mut(2);
    let mut total_len = total_len.chunks_exact_mut(2);
    let mut frag_word = frag_word.chunks_exact_mut(2);
    let mut ip_checksum = ip_checksum.chunks_exact_mut(2);
    let mut blob = blob.chunks_exact_mut(BLOB_BYTES);

    fn cell(lane: Option<&mut [u8]>) -> &mut [u8] {
        lane.expect("lane sized")
    }
    for (i, r) in records.iter().enumerate() {
        cell(ts.next()).copy_from_slice(&r.timestamp_ns.to_le_bytes());
        cell(src.next()).copy_from_slice(&u32::from(r.src).to_le_bytes());
        cell(dst.next()).copy_from_slice(&u32::from(r.dst).to_le_bytes());
        cell(ident.next()).copy_from_slice(&r.ident.to_le_bytes());
        cell(total_len.next()).copy_from_slice(&r.total_len.to_le_bytes());
        cell(frag_word.next()).copy_from_slice(&r.frag_word.to_le_bytes());
        cell(ip_checksum.next()).copy_from_slice(&r.ip_checksum.to_le_bytes());
        protocol[i] = r.protocol;
        tos[i] = r.tos;
        ttl[i] = r.ttl;
        tag[i] = transport_tag(&r.transport);
        encode_blob(&r.transport, cell(blob.next()));
    }
}

fn transport_tag(t: &TransportSummary) -> u8 {
    match t {
        TransportSummary::Tcp { .. } => TAG_TCP,
        TransportSummary::Udp { .. } => TAG_UDP,
        TransportSummary::Icmp { .. } => TAG_ICMP,
        TransportSummary::Other { .. } => TAG_OTHER,
    }
}

/// Writes `t`'s fields into a zeroed `tp_blob` cell.
fn encode_blob(t: &TransportSummary, blob: &mut [u8]) {
    match *t {
        TransportSummary::Tcp {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
            checksum,
            urgent,
        } => {
            blob[0..2].copy_from_slice(&src_port.to_le_bytes());
            blob[2..4].copy_from_slice(&dst_port.to_le_bytes());
            blob[4..8].copy_from_slice(&seq.to_le_bytes());
            blob[8..12].copy_from_slice(&ack.to_le_bytes());
            blob[12..14].copy_from_slice(&window.to_le_bytes());
            blob[14..16].copy_from_slice(&checksum.to_le_bytes());
            blob[16..18].copy_from_slice(&urgent.to_le_bytes());
            blob[18] = flags;
        }
        TransportSummary::Udp {
            src_port,
            dst_port,
            length,
            checksum,
        } => {
            blob[0..2].copy_from_slice(&src_port.to_le_bytes());
            blob[2..4].copy_from_slice(&dst_port.to_le_bytes());
            blob[4..6].copy_from_slice(&length.to_le_bytes());
            blob[6..8].copy_from_slice(&checksum.to_le_bytes());
        }
        TransportSummary::Icmp {
            icmp_type,
            code,
            checksum,
            rest,
        } => {
            blob[0] = icmp_type;
            blob[1] = code;
            blob[2..4].copy_from_slice(&checksum.to_le_bytes());
            blob[4..8].copy_from_slice(&rest);
        }
        TransportSummary::Other { lead, len } => {
            blob[0] = len;
            blob[1..9].copy_from_slice(&lead);
        }
    }
}

fn decode_blob(tag: u8, blob: &[u8]) -> Option<TransportSummary> {
    let u16_at = |i: usize| u16::from_le_bytes(blob[i..i + 2].try_into().expect("2 bytes"));
    let u32_at = |i: usize| u32::from_le_bytes(blob[i..i + 4].try_into().expect("4 bytes"));
    Some(match tag {
        TAG_TCP => TransportSummary::Tcp {
            src_port: u16_at(0),
            dst_port: u16_at(2),
            seq: u32_at(4),
            ack: u32_at(8),
            window: u16_at(12),
            checksum: u16_at(14),
            urgent: u16_at(16),
            flags: blob[18],
        },
        TAG_UDP => TransportSummary::Udp {
            src_port: u16_at(0),
            dst_port: u16_at(2),
            length: u16_at(4),
            checksum: u16_at(6),
        },
        TAG_ICMP => TransportSummary::Icmp {
            icmp_type: blob[0],
            code: blob[1],
            checksum: u16_at(2),
            rest: blob[4..8].try_into().expect("4 bytes"),
        },
        TAG_OTHER => TransportSummary::Other {
            lead: blob[1..9].try_into().expect("8 bytes"),
            len: blob[0],
        },
        _ => return None,
    })
}

/// Decodes one block's column data (exactly `k * row` bytes, `row` being
/// the file version's row width) into records appended to `out`, each
/// record constructed once from `chunks_exact` lane cursors and given the
/// fingerprint its replica-key fields hash to. Whatever a row holds
/// beyond [`ROW_BYTES`] — version 1's stored-fingerprint lane, after the
/// timestamps — is skipped. `bytes` may borrow a mapping or a block
/// buffer. `path` and `data_offset` (the file offset of `bytes[0]`) locate
/// any defect in the error: an out-of-band transport tag of record `i` is
/// reported at `data_offset + 27k + i` at version 2 (`35k + i` at
/// version 1).
pub fn decode_columns_push(
    bytes: &[u8],
    k: usize,
    row: usize,
    out: &mut Vec<TraceRecord>,
    path: &Path,
    data_offset: u64,
) -> Result<(), CorpusError> {
    assert_eq!(bytes.len(), k * row, "caller sizes the block slice");
    let (ts, rest) = bytes.split_at(8 * k);
    let rest = &rest[(row - ROW_BYTES) * k..];
    let tag_offset = data_offset + ((row - 1 - BLOB_BYTES) * k) as u64;
    let (src, rest) = rest.split_at(4 * k);
    let (dst, rest) = rest.split_at(4 * k);
    let (ident, rest) = rest.split_at(2 * k);
    let (total_len, rest) = rest.split_at(2 * k);
    let (frag_word, rest) = rest.split_at(2 * k);
    let (ip_checksum, rest) = rest.split_at(2 * k);
    let (protocol, rest) = rest.split_at(k);
    let (tos, rest) = rest.split_at(k);
    let (ttl, rest) = rest.split_at(k);
    let (tag, blob) = rest.split_at(k);

    let u64_of = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8 bytes"));
    let u32_of = |c: &[u8]| u32::from_le_bytes(c.try_into().expect("4 bytes"));
    let u16_of = |c: &[u8]| u16::from_le_bytes(c.try_into().expect("2 bytes"));

    let mut ts = ts.chunks_exact(8);
    let mut src = src.chunks_exact(4);
    let mut dst = dst.chunks_exact(4);
    let mut ident = ident.chunks_exact(2);
    let mut total_len = total_len.chunks_exact(2);
    let mut frag_word = frag_word.chunks_exact(2);
    let mut ip_checksum = ip_checksum.chunks_exact(2);
    let mut blob = blob.chunks_exact(BLOB_BYTES);

    out.reserve(k);
    for i in 0..k {
        let transport = decode_blob(tag[i], blob.next().expect("blob lane sized"))
            .ok_or_else(|| out_of_band_tag_error(path, tag_offset + i as u64))?;
        let r = TraceRecord {
            timestamp_ns: u64_of(ts.next().expect("ts lane sized")),
            fingerprint: 0,
            src: Ipv4Addr::from(u32_of(src.next().expect("src lane sized"))),
            dst: Ipv4Addr::from(u32_of(dst.next().expect("dst lane sized"))),
            ident: u16_of(ident.next().expect("ident lane sized")),
            total_len: u16_of(total_len.next().expect("total_len lane sized")),
            frag_word: u16_of(frag_word.next().expect("frag lane sized")),
            ip_checksum: u16_of(ip_checksum.next().expect("ip_checksum lane sized")),
            protocol: protocol[i],
            tos: tos[i],
            ttl: ttl[i],
            transport,
        };
        out.push(r.with_fingerprint());
    }
    Ok(())
}

fn out_of_band_tag_error(path: &Path, offset: u64) -> CorpusError {
    CorpusError::Corrupt {
        path: path.to_path_buf(),
        offset,
        what: "unknown transport tag (valid: 1=tcp 2=udp 3=icmp 4=other)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_types::{IcmpHeader, IpProtocol, Packet, TcpFlags, UdpHeader};

    fn sample_records() -> Vec<TraceRecord> {
        let src = Ipv4Addr::new(100, 2, 3, 4);
        let dst = Ipv4Addr::new(203, 0, 113, 77);
        let packets = [
            Packet::tcp_flags(src, dst, 999, 80, TcpFlags::SYN | TcpFlags::ACK, &b"xy"[..]),
            Packet::udp(src, dst, UdpHeader::new(53, 5353), &b"q"[..]),
            Packet::icmp(src, dst, IcmpHeader::echo(true, 7, 3), &b"ping"[..]),
            Packet::opaque(src, dst, IpProtocol::Igmp, vec![0x16, 1, 2, 3]),
        ];
        packets
            .iter()
            .enumerate()
            .map(|(i, p)| TraceRecord::from_packet(i as u64 * 1_000, p))
            .collect()
    }

    /// `records` as one version-1 block's column data: the current
    /// columns with a zeroed stored-fingerprint lane after the timestamps.
    fn v1_block(records: &[TraceRecord]) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_block(records, &mut bytes);
        let at = 8 * records.len();
        bytes.splice(at..at, records.iter().flat_map(|_| [0; 8]));
        bytes
    }

    #[test]
    fn roundtrip_every_transport_variant() {
        let records = sample_records();
        let mut bytes = Vec::new();
        encode_block(&records, &mut bytes);
        assert_eq!(bytes.len(), records.len() * ROW_BYTES);
        let mut back = Vec::new();
        let decode = |bytes: &[u8], back: &mut Vec<TraceRecord>| {
            decode_columns_push(bytes, records.len(), ROW_BYTES, back, Path::new("t.ltc"), 0)
        };
        decode(&bytes, &mut back).unwrap();
        assert_eq!(records, back);
        // A second block appends after the first.
        decode(&bytes, &mut back).unwrap();
        assert_eq!(back[records.len()..], records[..]);
    }

    #[test]
    fn bad_transport_tag_is_located() {
        let records = sample_records();
        let k = records.len();
        let mut v2 = Vec::new();
        encode_block(&records, &mut v2);
        for (bytes, row, tag_lane) in [(v2, ROW_BYTES, 27), (v1_block(&records), 56, 35)] {
            for i in 0..k {
                let mut bad = bytes.clone();
                bad[tag_lane * k + i] = 200;
                let err =
                    decode_columns_push(&bad, k, row, &mut Vec::new(), Path::new("t.ltc"), 48)
                        .unwrap_err();
                match err {
                    CorpusError::Corrupt { offset, .. } => {
                        assert_eq!(
                            offset,
                            48 + (tag_lane * k + i) as u64,
                            "record {i}, row {row}"
                        );
                    }
                    other => panic!("expected Corrupt, got {other}"),
                }
            }
        }
    }

    #[test]
    fn empty_block_is_legal() {
        let mut bytes = Vec::new();
        encode_block(&[], &mut bytes);
        assert!(bytes.is_empty());
        let mut back = Vec::new();
        decode_columns_push(&bytes, 0, ROW_BYTES, &mut back, Path::new("t.ltc"), 0).unwrap();
        assert!(back.is_empty());
    }
}
