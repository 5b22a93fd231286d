//! Columnar on-disk trace corpus (`.ltc` — "loop trace columnar").
//!
//! A compact structure-of-arrays storage format for decoded
//! [`TraceRecord`](loopscope::TraceRecord)s, built for fast *repeated*
//! scans of the same capture: convert a pcap once (`pcap2ltc`), then every
//! detector run ingests fixed-width column arrays instead of re-walking
//! per-packet pcap headers.
//!
//! Why it is fast to ingest:
//!
//! - **No per-record framing.** Rows are a fixed 48 bytes spread across 12
//!   column arrays; a block's byte length is pure arithmetic, so readers
//!   never parse a header to find the next record and parallel readers
//!   compute their seek offsets directly.
//! - **Only what a read cannot derive.** The 64-bit replica fingerprint
//!   (the level-0 prefilter probe) is a hash of the key columns, so the
//!   block decode derives it as it builds each record, as the pcap decode
//!   does; no file can hand the detectors a wrong one. Version-1 files,
//!   which stored it in an extra lane, are read with that lane skipped.
//! - **Block-aligned ingest.** Records travel in 8192-row blocks whose u64
//!   lane is exactly 64 KiB; `BlockParallelDetector` split points fall on
//!   row boundaries with no snap-forward.
//!
//! One reader serves every consumer: [`LtcFile`] reads block ranges from
//! a shared memory mapping or, under `--no-mmap` and as the fallback,
//! through buffered reads ([`LtcReader`]), in one block-range loop. The
//! batch engines' parallel range scans, the whole-file decode
//! ([`records_from_ltc_with`]) and the pipeline source's batches
//! ([`open_ltc_source`]) are all that loop.
//!
//! One writer serves every producer: [`LtcWriter`] streams blocks as
//! they arrive and hands back the header, written last because a
//! streamed capture's record count is known only at its end, and
//! [`PendingLtc`] publishes a file by renaming a finished temporary file
//! into place. `pcap2ltc`'s streamed conversion, [`write_ltc_file`] and
//! [`ltc_to_vec`] all ride that block loop.
//!
//! Integrity is first-class: a checksummed, versioned header plus a
//! per-block checksum (mixed with the block index, so swapped blocks
//! fail). Every defect — bad magic, unknown version, truncation, checksum
//! mismatch, undecodable cell — surfaces as a typed [`CorpusError`] naming
//! the file and byte offset; nothing panics and nothing short-reads
//! silently, and a header's record count sizes no allocation the file
//! cannot back.
//!
//! The full byte-level layout is specified in `DESIGN.md` (§ on-disk
//! corpus format).

pub mod columns;
pub mod format;
pub mod reader;
pub mod writer;

pub use format::{
    is_ltc_magic, sniff_is_ltc, ChecksumRegion, CorpusError, LtcHeader, BLOCK_RECORDS, MAGIC,
    ROW_BYTES, VERSION,
};
pub use reader::{open_ltc_source, records_from_ltc_with, IngestMode, LtcFile, LtcReader};
pub use writer::{ltc_to_vec, write_ltc_file, LtcWriter, PendingLtc};

#[cfg(test)]
mod corruption_tests {
    use super::columns::encode_block;
    use super::format::{
        block_checksum, block_len, block_offset, expected_file_len, ChecksumRegion, CorpusError,
        LtcHeader, BLOCK_RECORDS, HEADER_LEN, MAGIC, VERSION,
    };
    use super::reader::LtcReader;
    use super::writer::ltc_to_vec;
    use super::{open_ltc_source, records_from_ltc_with, IngestMode};
    use loopscope::pipeline::{run_pipeline, BlockEngine, PipelineError, SourceError};
    use loopscope::{DetectorConfig, TraceRecord, TransportSummary};
    use proptest::test_runner::TestRng;
    use std::io::Cursor;
    use std::net::Ipv4Addr;
    use std::path::Path;

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

    /// A version-1 image of `records`: the current columns with a stored
    /// fingerprint lane of `lane(record)` after each block's timestamps.
    fn v1_image(
        records: &[TraceRecord],
        skipped: u64,
        lane: impl Fn(&TraceRecord) -> u64,
    ) -> Vec<u8> {
        let header = LtcHeader {
            version: 1,
            ..LtcHeader::new(records.len() as u64, skipped)
        };
        let mut out = header.encode().to_vec();
        for (b, chunk) in records.chunks(BLOCK_RECORDS).enumerate() {
            let mut block = Vec::new();
            encode_block(chunk, &mut block);
            let at = 8 * chunk.len();
            block.splice(at..at, chunk.iter().flat_map(|r| lane(r).to_le_bytes()));
            out.extend_from_slice(&block_checksum(b as u64, &block).to_le_bytes());
            out.extend_from_slice(&block);
        }
        out
    }

    /// An image of `records` at `version`, as its writer would have made
    /// it.
    fn image(version: u32, records: &[TraceRecord], skipped: u64) -> Vec<u8> {
        match version {
            1 => v1_image(records, skipped, |r| r.fingerprint),
            _ => ltc_to_vec(records, skipped),
        }
    }

    /// The row width of `version`.
    fn row(version: u32) -> usize {
        LtcHeader {
            version,
            ..LtcHeader::new(0, 0)
        }
        .row_bytes()
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
            for version in [1, VERSION] {
                let bytes = image(version, &records, 7);
                assert_eq!(
                    bytes.len() as u64,
                    expected_file_len(n as u64, row(version))
                );
                let reader = LtcReader::new(Cursor::new(bytes.clone()), "t.ltc").unwrap();
                assert_eq!(reader.header().records, n as u64);
                assert_eq!(reader.header().skipped, 7);
                assert_eq!(reader.header().version, version);
                drop(reader);
                assert_eq!(read_all(bytes).unwrap(), records, "n={n} v{version}");
            }
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
            CorpusError::Corrupt { offset, .. } => ("corrupt", Some(offset), None),
        }
    }

    /// One damaged corpus image and what a reader must report for it.
    struct Damage {
        name: &'static str,
        bytes: Vec<u8>,
        expect: Box<dyn Fn(&CorpusError)>,
    }

    /// Every header and block defect the format rules catch, in a file of
    /// `version`, each reported at the offset that version's row width
    /// implies.
    fn damaged_images(version: u32) -> Vec<Damage> {
        let row = row(version);
        let at = move |b: u64| block_offset(b, row);
        let short = image(version, &sample_records(8192 + 100), 0);
        let mut bad_sum = image(version, &sample_records(8192 + 10), 0);
        bad_sum[at(1) as usize + 8 + 3] ^= 0x10; // a data byte in block 1

        // Two identical blocks swapped: byte-identical payloads, but the
        // block index is mixed into each checksum, so the swap is caught.
        let one_block = sample_records(8192);
        let bytes = image(version, &[one_block.clone(), one_block].concat(), 0);
        let (b0, b1) = (at(0) as usize, at(1) as usize);
        let mut swapped = bytes.clone();
        swapped[b0..b1].copy_from_slice(&bytes[b1..]);
        swapped[b1..].copy_from_slice(&bytes[b0..b1]);
        let mut trailing = image(version, &sample_records(20), 0);
        trailing.extend_from_slice(b"junk");
        // Record 8192 + 5 (block 1 of 10 records, row 5) gets tag 200;
        // the block checksum is recomputed over the change. The tag lane
        // is the last but the 20-byte blob lane.
        let mut bad_tag = image(version, &sample_records(8192 + 10), 0);
        let data = at(1) as usize + 8..bad_tag.len();
        let tag_at = data.start + (row - 1 - 20) * 10 + 5;
        bad_tag[tag_at] = 200;
        let sum = block_checksum(1, &bad_tag[data.clone()]);
        bad_tag[data.start - 8..data.start].copy_from_slice(&sum.to_le_bytes());
        let with_header_byte = |i: usize, mask: u8| {
            let mut b = image(version, &sample_records(4), 0);
            b[i] ^= mask;
            b
        };
        let huge = |records| {
            let header = LtcHeader {
                version,
                ..LtcHeader::new(records, 0)
            };
            header.encode().to_vec()
        };
        // A header whose record count claims a full first block.
        let truncated_first_block = move |e: &CorpusError| match *e {
            CorpusError::Truncated {
                offset,
                needed,
                got,
                ..
            } => assert_eq!(
                (offset, needed, got),
                (HEADER_LEN as u64, block_len(BLOCK_RECORDS, row) as u64, 0)
            ),
            _ => panic!("expected truncated first block, got {e:?}"),
        };
        vec![
            Damage {
                name: "empty",
                bytes: Vec::new(),
                expect: Box::new(|e| match *e {
                    CorpusError::Truncated {
                        offset,
                        needed,
                        got,
                        ..
                    } => assert_eq!((offset, needed, got), (0, HEADER_LEN as u64, 0)),
                    _ => panic!("expected truncated header, got {e:?}"),
                }),
            },
            Damage {
                name: "mid_header",
                bytes: short[..HEADER_LEN - 5].to_vec(),
                expect: Box::new(|e| match *e {
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
                }),
            },
            Damage {
                name: "bad_magic",
                bytes: with_header_byte(0, 0xff),
                expect: Box::new(|e| assert!(matches!(e, CorpusError::BadMagic { .. }), "{e:?}")),
            },
            Damage {
                name: "wrong_version",
                // The version's u32 LE low byte becomes 99.
                bytes: with_header_byte(MAGIC.len(), 99 ^ version as u8),
                expect: Box::new(|e| match *e {
                    CorpusError::UnsupportedVersion { found, .. } => assert_eq!(found, 99),
                    _ => panic!("expected unsupported version, got {e:?}"),
                }),
            },
            Damage {
                // Flip a record-count bit; the header checksum must catch it.
                name: "header_checksum",
                bytes: with_header_byte(16, 0x01),
                expect: Box::new(|e| {
                    assert_eq!(
                        locate(e),
                        ("checksum", Some(32), Some(ChecksumRegion::Header))
                    )
                }),
            },
            Damage {
                // Cut mid-way through the second block's column data.
                name: "truncated_column_arrays",
                bytes: short[..at(1) as usize + 40].to_vec(),
                expect: Box::new(move |e| match *e {
                    CorpusError::Truncated {
                        offset,
                        needed,
                        got,
                        ..
                    } => assert_eq!(
                        (offset, needed, got),
                        (at(1), block_len(100, row) as u64, 40)
                    ),
                    _ => panic!("expected truncated block, got {e:?}"),
                }),
            },
            Damage {
                name: "block_checksum",
                bytes: bad_sum,
                expect: Box::new(move |e| {
                    let want = ("checksum", Some(at(1)), Some(ChecksumRegion::Block(1)));
                    assert_eq!(locate(e), want);
                }),
            },
            Damage {
                name: "swapped_blocks",
                bytes: swapped,
                expect: Box::new(|e| {
                    assert_eq!(locate(e).2, Some(ChecksumRegion::Block(0)), "{e:?}");
                }),
            },
            Damage {
                name: "bad_transport_tag",
                bytes: bad_tag,
                expect: Box::new(move |e| {
                    assert_eq!(locate(e), ("corrupt", Some(tag_at as u64), None));
                    assert!(e.to_string().contains("unknown transport tag"), "{e}");
                }),
            },
            Damage {
                name: "trailing_bytes",
                bytes: trailing,
                expect: Box::new(move |e| {
                    let end = expected_file_len(20, row);
                    assert_eq!(locate(e), ("corrupt", Some(end), None));
                }),
            },
            Damage {
                // A valid header promising 2^40 records (48 or 56 TiB of
                // rows) over a 40-byte file: no reader may size anything
                // by it.
                name: "header_claims_2^40_records",
                bytes: huge(1 << 40),
                expect: Box::new(truncated_first_block),
            },
            Damage {
                // Block offsets past u64::MAX: no arithmetic may overflow.
                name: "header_claims_u64_max_records",
                bytes: huge(u64::MAX),
                expect: Box::new(truncated_first_block),
            },
        ]
    }

    /// What an entry point made of a file: its records and skip count, or
    /// its error's text.
    type Outcome = Result<(Vec<TraceRecord>, u64), String>;

    /// The outcome in brief, for failure messages.
    fn brief(o: &Outcome) -> String {
        match o {
            Ok((records, skipped)) => format!("{} records, {skipped} skipped", records.len()),
            Err(e) => e.clone(),
        }
    }

    /// The corpus error text a pipeline error carries.
    fn corpus_text(e: PipelineError) -> String {
        match e {
            PipelineError::Source(SourceError::Io(e)) => e.to_string(),
            other => panic!("not a corpus error: {other}"),
        }
    }

    /// The file through the buffered block reader: the reference reading.
    fn read_blocks(path: &Path) -> Result<(Vec<TraceRecord>, u64), CorpusError> {
        let mut reader = LtcReader::open(path)?;
        let (mut records, mut batch) = (Vec::new(), Vec::new());
        while reader.next_block_into(&mut batch)? {
            records.extend_from_slice(&batch);
        }
        Ok((records, reader.header().skipped))
    }

    /// Reads `path` through every `.ltc` entry point — the whole-file
    /// decode in both modes at 1, 2 and 3 threads, a source's batches and
    /// the block engine at 1 and 2 workers — and asserts each gives the
    /// buffered block reader's records and skip count, or its error text.
    /// Returns the reference reading.
    fn assert_every_entry_point_agrees(
        path: &Path,
        name: &str,
    ) -> Result<(Vec<TraceRecord>, u64), CorpusError> {
        let reference = read_blocks(path);
        let want: Outcome = reference.as_ref().map_err(|e| e.to_string()).cloned();
        let check = |got: Outcome, entry: String| {
            assert!(
                got == want,
                "{name}: {entry} read {}, the block reader {}",
                brief(&got),
                brief(&want)
            );
        };
        for mode in [IngestMode::Mmap, IngestMode::Buffered] {
            for threads in 1..=3 {
                let got = records_from_ltc_with(path, threads, mode).map_err(|e| e.to_string());
                check(got, format!("records_from_ltc_with({threads}, {mode:?})"));
            }
            let batches = open_ltc_source(path, mode)
                .map_err(|e| e.to_string())
                .and_then(|mut source| {
                    let mut records = Vec::new();
                    let summary = source
                        .for_each_batch(&mut |batch| {
                            records.extend_from_slice(batch);
                            Ok(())
                        })
                        .map_err(corpus_text)?;
                    assert_eq!(summary.records, records.len() as u64, "{name}");
                    Ok((records, summary.skipped))
                });
            check(batches, format!("for_each_batch({mode:?})"));
            for workers in [1, 2] {
                let got = open_ltc_source(path, mode)
                    .map_err(|e| e.to_string())
                    .and_then(|mut source| {
                        let engine = &mut BlockEngine::new(DetectorConfig::default(), workers);
                        run_pipeline(source.as_mut(), engine, &mut [])
                            .map(|result| (result.records, result.skipped))
                            .map_err(corpus_text)
                    });
                let want = want
                    .as_ref()
                    .map(|(r, skipped)| (r.len() as u64, *skipped))
                    .map_err(String::clone);
                assert!(
                    got == want,
                    "{name}: block engine at {workers} workers ({mode:?}) gave {got:?}, \
                     the block reader {want:?}"
                );
            }
        }
        reference
    }

    #[test]
    fn both_readers_report_each_defect_identically() {
        for version in [1, VERSION] {
            for damage in damaged_images(version) {
                let name = format!("v{version}-{}", damage.name);
                let path = write_temp(&name, &damage.bytes);
                let buffered = assert_every_entry_point_agrees(&path, &name).expect_err(&name);
                let mapped = records_from_ltc_with(&path, 1, IngestMode::Mmap).expect_err(&name);
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
                assert_eq!(locate(&buffered), locate(&mapped), "{name}");
                assert_eq!(buffered.to_string(), mapped.to_string(), "{name}");
                std::fs::remove_file(&path).ok();
            }
        }
    }

    /// No file can hand a reader a wrong fingerprint: a version-1 lane
    /// whose every entry is forged to one value, and a current-version
    /// file written from records whose in-memory fingerprints are forged,
    /// both read as the true records on every entry point.
    #[test]
    fn fingerprints_are_derived_on_every_entry_point() {
        let records = sample_records(BLOCK_RECORDS + 77);
        let forged: Vec<TraceRecord> = records
            .iter()
            .map(|r| TraceRecord {
                fingerprint: records[0].fingerprint,
                ..*r
            })
            .collect();
        let images = [
            (
                "forged-v1-lane",
                v1_image(&records, 5, |_| records[0].fingerprint),
            ),
            ("forged-records", ltc_to_vec(&forged, 5)),
        ];
        for (name, bytes) in images {
            let path = write_temp(name, &bytes);
            let read = assert_every_entry_point_agrees(&path, name).unwrap();
            assert!(read == (records.clone(), 5), "{name}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn mmap_read_matches_buffered_at_every_thread_count() {
        let records = sample_records(2 * 8192 + 77);
        let path = write_temp("identity", &ltc_to_vec(&records, 9));
        let read = assert_every_entry_point_agrees(&path, "identity").unwrap();
        assert_eq!(read, (records.clone(), 9));
        for threads in [4, 8] {
            for mode in [IngestMode::Mmap, IngestMode::Buffered] {
                let (via, sk) = records_from_ltc_with(&path, threads, mode).unwrap();
                assert_eq!(via, records, "threads={threads} mode={mode:?}");
                assert_eq!(sk, 9);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Mutants of a three-block image tried per run of
    /// [`mutated_images_read_the_same_on_every_entry_point`], four of each
    /// kind, two per format version: about 5 s in a debug build.
    const FUZZ_CASES: u64 = 24;

    /// A fixed-seed mutation fuzz of the `.ltc` reader: bit flips in the
    /// header and the blocks, truncation at a random offset, trailing
    /// bytes, a block swap, and record-count and skip-count rewrites
    /// under a recomputed header checksum. Every entry point must give
    /// each mutant the same records and skip count, or the same error
    /// text, and none may panic.
    #[test]
    fn mutated_images_read_the_same_on_every_entry_point() {
        let records = sample_records(2 * BLOCK_RECORDS + 77);
        let n = records.len() as u64;
        let mut rng = TestRng::from_seed(0x17c_f022);
        let mut read = 0;
        for case in 0..FUZZ_CASES {
            let version = if case % 12 < 6 { VERSION } else { 1 };
            let base = image(version, &records, 3);
            let [b0, b1, b2] = [0, 1, 2].map(|b| block_offset(b, row(version)) as usize);
            let mut bytes = base.clone();
            let what = match case % 6 {
                0 => {
                    let i = rng.below(HEADER_LEN as u64) as usize;
                    bytes[i] ^= 1 << rng.below(8);
                    "header bit flip"
                }
                1 => {
                    let i = HEADER_LEN + rng.below((bytes.len() - HEADER_LEN) as u64) as usize;
                    bytes[i] ^= 1 << rng.below(8);
                    "block bit flip"
                }
                2 => {
                    bytes.truncate(rng.below(bytes.len() as u64) as usize);
                    "truncation"
                }
                3 => {
                    let extra = 1 + rng.below(64);
                    bytes.extend((0..extra).map(|_| rng.next_u64() as u8));
                    "trailing bytes"
                }
                4 => {
                    bytes[b0..b1].copy_from_slice(&base[b1..b2]);
                    bytes[b1..b2].copy_from_slice(&base[b0..b1]);
                    "block swap"
                }
                _ => {
                    let claims = [
                        0,
                        1,
                        n - 1,
                        n + 1,
                        BLOCK_RECORDS as u64,
                        2 * BLOCK_RECORDS as u64,
                        1 << 40,
                        u64::MAX,
                        rng.next_u64(),
                        rng.below(4 * n),
                    ];
                    // The first rewrite of each version keeps the count,
                    // so a mutant with only its skip count changed reads
                    // through.
                    let records = match case {
                        5 | 11 => n,
                        _ => claims[rng.below(claims.len() as u64) as usize],
                    };
                    let header = LtcHeader {
                        version,
                        ..LtcHeader::new(records, rng.below(1000))
                    };
                    bytes[..HEADER_LEN].copy_from_slice(&header.encode());
                    "record-count rewrite"
                }
            };
            let name = format!("fuzz-{case}-v{version}");
            let path = write_temp(&name, &bytes);
            let got = assert_every_entry_point_agrees(&path, &format!("{name} ({what})"));
            read += u64::from(got.is_ok());
            std::fs::remove_file(&path).ok();
        }
        // The fuzz compares successful reads too, not only errors.
        assert!(read > 0, "no mutant read through");
    }

    #[test]
    fn mmap_missing_file_falls_back_to_the_buffered_error() {
        let path = std::env::temp_dir().join("corpus-map-does-not-exist.ltc");
        // The mapped open retries buffered on mapping failure; the
        // buffered open then reports the authoritative io error.
        match records_from_ltc_with(&path, 2, IngestMode::Mmap) {
            Err(CorpusError::Io { path: p, .. }) => assert_eq!(p, path),
            other => panic!("expected io error, got {other:?}"),
        }
    }
}
