//! Columnar on-disk trace corpus (`.ltc` — "loop trace columnar").
//!
//! A compact structure-of-arrays storage format for decoded
//! [`TraceRecord`](loopscope::TraceRecord)s, built for fast *repeated*
//! scans of the same capture: convert a pcap once (`pcap2ltc`), then every
//! detector run ingests fixed-width column arrays instead of re-walking
//! per-packet pcap headers and re-hashing replica keys.
//!
//! Why it is fast to ingest:
//!
//! - **No per-record framing.** Rows are a fixed 56 bytes spread across 13
//!   column arrays; a block's byte length is pure arithmetic, so readers
//!   never parse a header to find the next record and parallel readers
//!   compute their seek offsets directly.
//! - **Fingerprints are precomputed.** The 64-bit replica fingerprint (the
//!   level-0 prefilter probe) is a stored column, computed once at
//!   conversion — a corpus scan does no hashing.
//! - **Block-aligned ingest.** Records travel in 8192-row blocks whose u64
//!   lanes are exactly 64 KiB; `BlockParallelDetector` split points fall on
//!   row boundaries with no snap-forward.
//!
//! Integrity is first-class: a checksummed, versioned header plus a
//! per-block checksum (mixed with the block index, so swapped blocks
//! fail). Every defect — bad magic, wrong version, truncation, checksum
//! mismatch, undecodable cell — surfaces as a typed [`CorpusError`] naming
//! the file and byte offset; nothing panics and nothing short-reads
//! silently.
//!
//! The full byte-level layout is specified in `DESIGN.md` (§ on-disk
//! corpus format).

pub mod columns;
pub mod format;
pub mod mapped;
pub mod reader;
pub mod writer;

pub use format::{
    is_ltc_magic, sniff_is_ltc, ChecksumRegion, CorpusError, LtcHeader, BLOCK_RECORDS, MAGIC,
    ROW_BYTES, VERSION,
};
pub use mapped::{
    open_ltc_source, records_from_ltc_mmap, records_from_ltc_mmap_parallel, records_from_ltc_with,
    IngestMode, MappedColumnarSource, MappedLtc,
};
pub use reader::{records_from_ltc, ColumnarSource, LtcReader};
pub use writer::{ltc_to_vec, write_ltc_file, LtcWriter};

#[cfg(test)]
mod corruption_tests {
    use super::format::{block_offset, ChecksumRegion, CorpusError, HEADER_LEN, MAGIC};
    use super::reader::LtcReader;
    use super::writer::ltc_to_vec;
    use loopscope::{TraceRecord, TransportSummary};
    use std::io::Cursor;
    use std::net::Ipv4Addr;

    /// Deterministic records cycling through every transport variant.
    fn sample_records(n: usize) -> Vec<TraceRecord> {
        (0..n as u64)
            .map(|i| {
                let transport = match i % 4 {
                    0 => TransportSummary::Tcp {
                        src_port: 1000 + i as u16,
                        dst_port: 80,
                        seq: 7 * i as u32,
                        ack: 3 * i as u32,
                        flags: 0x18,
                        window: 65_000,
                        checksum: i as u16,
                        urgent: 0,
                    },
                    1 => TransportSummary::Udp {
                        src_port: 53,
                        dst_port: 2000 + i as u16,
                        length: 64,
                        checksum: !(i as u16),
                    },
                    2 => TransportSummary::Icmp {
                        icmp_type: 8,
                        code: 0,
                        checksum: i as u16,
                        rest: (i as u32).to_be_bytes(),
                    },
                    _ => TransportSummary::Other {
                        lead: (i.wrapping_mul(0x9e37)).to_be_bytes(),
                        len: (i % 9) as u8,
                    },
                };
                TraceRecord {
                    timestamp_ns: i * 1_000,
                    src: Ipv4Addr::from(0x0a00_0000u32 | (i as u32 & 0xffff)),
                    dst: Ipv4Addr::from(0xc0a8_0000u32 | ((i as u32 * 3) & 0xffff)),
                    protocol: [6, 17, 1, 47][(i % 4) as usize],
                    ident: i as u16,
                    total_len: 40 + (i % 1400) as u16,
                    tos: (i % 3) as u8,
                    ttl: 1 + (i % 255) as u8,
                    frag_word: if i % 5 == 0 { 0x4000 } else { 0 },
                    ip_checksum: (i as u16).rotate_left(3),
                    transport,
                    fingerprint: 0,
                }
                .with_fingerprint()
            })
            .collect()
    }

    fn read_all(bytes: Vec<u8>) -> Result<Vec<TraceRecord>, CorpusError> {
        let mut reader = LtcReader::new(Cursor::new(bytes), "test.ltc")?;
        let mut out = Vec::new();
        let mut batch = Vec::new();
        while reader.next_block_into(&mut batch)? {
            out.extend_from_slice(&batch);
        }
        Ok(out)
    }

    #[test]
    fn roundtrip_various_sizes() {
        // 0 records, sub-block, exactly one block, block + partial.
        for n in [0usize, 3, 8192, 8192 + 17] {
            let records = sample_records(n);
            let bytes = ltc_to_vec(&records, 7);
            let reader = LtcReader::new(Cursor::new(bytes.clone()), "t.ltc").unwrap();
            assert_eq!(reader.header().records, n as u64);
            assert_eq!(reader.header().skipped, 7);
            drop(reader);
            assert_eq!(read_all(bytes).unwrap(), records, "n={n}");
        }
    }

    /// Writes corpus bytes to a unique temp file (the mapped reader needs
    /// a real fd); returns the path.
    fn write_temp(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("corpus-map-{}-{tag}.ltc", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    /// The error's variant, offset and checksum region.
    fn locate(e: &CorpusError) -> (&'static str, Option<u64>, Option<ChecksumRegion>) {
        match *e {
            CorpusError::Io { .. } => ("io", None, None),
            CorpusError::BadMagic { .. } => ("bad magic", Some(0), None),
            CorpusError::UnsupportedVersion { .. } => ("version", Some(8), None),
            CorpusError::ChecksumMismatch { offset, region, .. } => {
                ("checksum", Some(offset), Some(region))
            }
            CorpusError::Truncated { offset, .. } => ("truncated", Some(offset), None),
            CorpusError::FingerprintMismatch { offset, .. } => ("fingerprint", Some(offset), None),
            CorpusError::Corrupt { offset, .. } => ("corrupt", Some(offset), None),
        }
    }

    /// One damaged corpus image and what a reader must report for it.
    struct Damage {
        name: &'static str,
        bytes: Vec<u8>,
        expect: fn(&CorpusError),
    }

    /// Every header and block defect the format rules catch.
    fn damaged_images() -> Vec<Damage> {
        let short = ltc_to_vec(&sample_records(8192 + 100), 0);
        let mut bad_sum = ltc_to_vec(&sample_records(8192 + 10), 0);
        bad_sum[block_offset(1) as usize + 8 + 3] ^= 0x10; // a data byte in block 1
                                                           // Two identical blocks swapped: byte-identical payloads, but the
                                                           // block index is mixed into each checksum, so the swap is caught.
        let one_block = sample_records(8192);
        let bytes = ltc_to_vec(&[one_block.clone(), one_block].concat(), 0);
        let (b0, b1) = (block_offset(0) as usize, block_offset(1) as usize);
        let mut swapped = bytes.clone();
        swapped[b0..b1].copy_from_slice(&bytes[b1..]);
        swapped[b1..].copy_from_slice(&bytes[b0..b1]);
        let mut trailing = ltc_to_vec(&sample_records(20), 0);
        trailing.extend_from_slice(b"junk");
        // Record 8192 + 5 (block 1, row 5) claims its neighbour's
        // fingerprint; the block checksum is recomputed over the change.
        let mut tampered = sample_records(8192 + 10);
        tampered[8192 + 5].fingerprint = tampered[8192 + 6].fingerprint;
        let tampered = ltc_to_vec(&tampered, 0);
        let with_header_byte = |i: usize, mask: u8| {
            let mut b = ltc_to_vec(&sample_records(4), 0);
            b[i] ^= mask;
            b
        };
        vec![
            Damage {
                name: "empty",
                bytes: Vec::new(),
                expect: |e| match *e {
                    CorpusError::Truncated {
                        offset,
                        needed,
                        got,
                        ..
                    } => assert_eq!((offset, needed, got), (0, HEADER_LEN as u64, 0)),
                    _ => panic!("expected truncated header, got {e:?}"),
                },
            },
            Damage {
                name: "mid_header",
                bytes: short[..HEADER_LEN - 5].to_vec(),
                expect: |e| match *e {
                    CorpusError::Truncated {
                        offset,
                        needed,
                        got,
                        ..
                    } => assert_eq!(
                        (offset, needed, got),
                        (0, HEADER_LEN as u64, (HEADER_LEN - 5) as u64)
                    ),
                    _ => panic!("expected truncated header, got {e:?}"),
                },
            },
            Damage {
                name: "bad_magic",
                bytes: with_header_byte(0, 0xff),
                expect: |e| assert!(matches!(e, CorpusError::BadMagic { .. }), "{e:?}"),
            },
            Damage {
                name: "wrong_version",
                bytes: with_header_byte(MAGIC.len(), 99 ^ 1), // version u32 LE low byte → 99
                expect: |e| match *e {
                    CorpusError::UnsupportedVersion { found, .. } => assert_eq!(found, 99),
                    _ => panic!("expected unsupported version, got {e:?}"),
                },
            },
            Damage {
                // Flip a record-count bit; the header checksum must catch it.
                name: "header_checksum",
                bytes: with_header_byte(16, 0x01),
                expect: |e| {
                    assert_eq!(
                        locate(e),
                        ("checksum", Some(32), Some(ChecksumRegion::Header))
                    )
                },
            },
            Damage {
                // Cut mid-way through the second block's column data.
                name: "truncated_column_arrays",
                bytes: short[..block_offset(1) as usize + 40].to_vec(),
                expect: |e| match *e {
                    CorpusError::Truncated {
                        offset,
                        needed,
                        got,
                        ..
                    } => {
                        assert_eq!(offset, block_offset(1));
                        assert_eq!(got, 40);
                        assert!(needed > got);
                    }
                    _ => panic!("expected truncated block, got {e:?}"),
                },
            },
            Damage {
                name: "block_checksum",
                bytes: bad_sum,
                expect: |e| {
                    let want = (
                        "checksum",
                        Some(block_offset(1)),
                        Some(ChecksumRegion::Block(1)),
                    );
                    assert_eq!(locate(e), want);
                },
            },
            Damage {
                name: "swapped_blocks",
                bytes: swapped,
                expect: |e| {
                    assert_eq!(locate(e).2, Some(ChecksumRegion::Block(0)), "{e:?}");
                },
            },
            Damage {
                name: "tampered_fingerprint",
                bytes: tampered,
                expect: |e| match *e {
                    CorpusError::FingerprintMismatch { offset, record, .. } => {
                        assert_eq!(record, 8192 + 5);
                        assert_eq!(offset, block_offset(1) + 8 + 8 * 10 + 8 * 5);
                        assert!(e.to_string().contains("stored fingerprint does not match"));
                    }
                    _ => panic!("expected fingerprint mismatch, got {e:?}"),
                },
            },
            Damage {
                name: "trailing_bytes",
                bytes: trailing,
                expect: |e| {
                    let end = super::format::expected_file_len(20);
                    assert_eq!(locate(e), ("corrupt", Some(end), None));
                },
            },
        ]
    }

    #[test]
    fn both_readers_report_each_defect_identically() {
        for damage in damaged_images() {
            let path = write_temp(damage.name, &damage.bytes);
            let buffered = LtcReader::open(&path)
                .and_then(|mut reader| {
                    let mut batch = Vec::new();
                    while reader.next_block_into(&mut batch)? {}
                    Ok(())
                })
                .expect_err(damage.name);
            let mapped = super::mapped::records_from_ltc_mmap(&path).expect_err(damage.name);
            for err in [&buffered, &mapped] {
                (damage.expect)(err);
                let msg = err.to_string();
                assert!(
                    msg.starts_with(path.to_str().unwrap()),
                    "names the file: {msg}"
                );
                if let (_, Some(offset), _) = locate(err) {
                    assert!(msg.contains(&offset.to_string()), "names the offset: {msg}");
                }
            }
            assert_eq!(locate(&buffered), locate(&mapped), "{}", damage.name);
            assert_eq!(buffered.to_string(), mapped.to_string(), "{}", damage.name);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn mmap_read_matches_buffered_at_every_thread_count() {
        let records = sample_records(2 * 8192 + 77);
        let path = write_temp("identity", &ltc_to_vec(&records, 9));
        let (buffered, sk_buf) = super::reader::records_from_ltc(&path).unwrap();
        let (mapped, sk_map) = super::mapped::records_from_ltc_mmap(&path).unwrap();
        assert_eq!(mapped, buffered);
        assert_eq!(mapped, records);
        assert_eq!(sk_map, sk_buf);
        for threads in [1, 2, 4, 8] {
            let (par, sk) = super::mapped::records_from_ltc_mmap_parallel(&path, threads).unwrap();
            assert_eq!(par, buffered, "threads={threads}");
            assert_eq!(sk, 9);
            for mode in [super::IngestMode::Mmap, super::IngestMode::Buffered] {
                let (via, sk) = super::mapped::records_from_ltc_with(&path, threads, mode).unwrap();
                assert_eq!(via, buffered, "threads={threads} mode={mode:?}");
                assert_eq!(sk, 9);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_missing_file_falls_back_to_the_buffered_error() {
        let path = std::env::temp_dir().join("corpus-map-does-not-exist.ltc");
        // The `with` wrapper retries buffered on mapping failure; the
        // buffered path then reports the authoritative io error.
        match super::mapped::records_from_ltc_with(&path, 2, super::IngestMode::Mmap) {
            Err(CorpusError::Io { path: p, .. }) => assert_eq!(p, path),
            other => panic!("expected io error, got {other:?}"),
        }
    }
}
