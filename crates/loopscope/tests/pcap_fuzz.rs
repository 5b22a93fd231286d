//! A fixed-seed mutation fuzz of pcap ingest: the reader's framing loop,
//! the decode, and the range split.
//!
//! Each mutant of a generated capture (bit flips in the file header,
//! record headers and bodies; truncations at and around the reader's
//! 64 KiB block edge; splices; record swaps; `incl_len`/`orig_len`
//! rewrites up to and past the reader's cap) is read through every pcap
//! entry point: [`PcapSource::for_each_record`] over the whole file and
//! over a source that returns 7 bytes per read, [`read_pcap_ranges`] at 1,
//! 2 and 3 parts, [`run_pipeline`] with the block engine at 1 and 2
//! workers, and [`pcaplib::split_ranges`]. Each must give the same records
//! and skip count, or the same error text, and publish the same `pcap.*`
//! counts; none may panic.
//!
//! The `pcap.*` counters are process-wide, so each test here reads them
//! alone: the file holds one test that runs by default and one, with a
//! larger budget, that runs only when asked for (`scripts/check.sh` runs
//! it in release).

use loopscope::segment::{read_pcap_ranges, PcapFileSource};
use loopscope::{
    run_pipeline, BlockEngine, DetectorConfig, OutOfOrder, PcapSource, PipelineError, RecordSource,
    SourceError, TraceRecord,
};
use net_types::{IcmpHeader, IpProtocol, Packet, TcpFlags, UdpHeader};
use pcaplib::format::{FILE_HEADER_LEN, RECORD_HEADER_LEN};
use pcaplib::{CapturedPacket, FileHeader, PcapError, PcapWriter};
use proptest::test_runner::TestRng;
use std::io::{Cursor, Read};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

/// The reader's per-record capture cap (`pcaplib`'s `MAX_SANE_CAPLEN`).
const CAP: u32 = 256 * 1024;

/// The reader's block: the first refill falls this far past the file
/// header.
const BLOCK_LEN: usize = 64 * 1024;

/// A capture of about 2,600 records (about 170 KB, so two block edges):
/// 40-byte captures of TCP, UDP, ICMP and other packets, some longer
/// captures, and non-IPv4 records the decode skips.
fn capture(rng: &mut TestRng) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new(), FileHeader::raw_ip(40)).unwrap();
    let mut ts = 1_000_000_000u64;
    for i in 0..2600u64 {
        ts += rng.below(3_000_000);
        let src = [100, 64, (i >> 8) as u8, i as u8].into();
        let dst = [203, 0, 113, rng.below(8) as u8].into();
        let payload = vec![i as u8; rng.below(1200) as usize];
        let mut p = match rng.below(5) {
            0 | 1 => Packet::tcp_flags(src, dst, 4000, 80, TcpFlags::ACK, payload),
            2 => Packet::udp(src, dst, UdpHeader::new(53, 53), payload),
            3 => Packet::icmp(src, dst, IcmpHeader::echo(true, 7, i as u16), payload),
            _ => Packet::opaque(src, dst, IpProtocol::Other(47), payload),
        };
        p.ip.ident = rng.next_u64() as u16;
        p.ip.ttl = 64 - (i % 8) as u8 * 2;
        p.fill_checksums();
        let mut bytes = p.emit();
        match rng.below(40) {
            // Not IPv4: skipped by the decode.
            0 => bytes[0] = 0x60,
            // A whole packet under a longer snap length than the file
            // says, as some writers produce.
            1 => {
                let data = bytes[..bytes.len().min(300)].to_vec();
                let orig_len = bytes.len() as u32;
                w.write_packet(&CapturedPacket {
                    timestamp_ns: ts,
                    orig_len,
                    data,
                })
                .unwrap();
                continue;
            }
            _ => {}
        }
        w.write_bytes(ts, &bytes).unwrap();
    }
    w.finish().unwrap()
}

/// The byte offset of every record header of a well-formed capture.
fn record_offsets(file: &[u8]) -> Vec<usize> {
    let (mut offsets, mut at) = (Vec::new(), FILE_HEADER_LEN);
    while at < file.len() {
        offsets.push(at);
        let incl = u32::from_le_bytes(file[at + 8..at + 12].try_into().unwrap());
        at += RECORD_HEADER_LEN + incl as usize;
    }
    offsets
}

/// A mutant of `base`, and what was done to it.
fn mutate(base: &[u8], offsets: &[usize], kind: u64, rng: &mut TestRng) -> (Vec<u8>, String) {
    let mut bytes = base.to_vec();
    let pick = |rng: &mut TestRng| offsets[rng.below(offsets.len() as u64) as usize];
    let what = match kind {
        0 => {
            let i = rng.below(FILE_HEADER_LEN as u64) as usize;
            bytes[i] ^= 1 << rng.below(8);
            format!("file header bit flip at {i}")
        }
        1 => {
            let i = pick(rng) + rng.below(RECORD_HEADER_LEN as u64) as usize;
            bytes[i] ^= 1 << rng.below(8);
            format!("record header bit flip at {i}")
        }
        2 => {
            let at = pick(rng);
            let incl = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap()) as u64;
            let i = at + RECORD_HEADER_LEN + rng.below(incl.max(1)) as usize;
            bytes[i] ^= 1 << rng.below(8);
            format!("body bit flip at {i}")
        }
        3 => {
            // At and around the first and second block edges, or anywhere.
            let cut = match rng.below(3) {
                2 => rng.below(bytes.len() as u64) as usize,
                k => FILE_HEADER_LEN + (k as usize + 1) * BLOCK_LEN + rng.below(81) as usize - 40,
            };
            bytes.truncate(cut);
            format!("truncation at {cut}")
        }
        4 => {
            let len = 1 + rng.below(300) as usize;
            let from = rng.below((bytes.len() - len) as u64) as usize;
            let to = rng.below((bytes.len() - len) as u64) as usize;
            let chunk = base[from..from + len].to_vec();
            if rng.below(2) == 0 {
                bytes[to..to + len].copy_from_slice(&chunk);
                format!("splice of {len} bytes from {from} over {to}")
            } else {
                bytes.splice(to..to, chunk);
                format!("splice of {len} bytes from {from} inserted at {to}")
            }
        }
        5 => {
            let n = offsets.len();
            let a = rng.below(n as u64 - 1) as usize;
            let b = a + 1 + rng.below((n - a - 1) as u64) as usize;
            let end = |k: usize| offsets.get(k + 1).copied().unwrap_or(base.len());
            let (ra, rb) = (offsets[a]..end(a), offsets[b]..end(b));
            bytes = [
                &base[..ra.start],
                &base[rb.clone()],
                &base[ra.end..rb.start],
                &base[ra],
                &base[rb.end..],
            ]
            .concat();
            format!("records {a} and {b} swapped")
        }
        _ => {
            let at = pick(rng);
            let incl = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap());
            let orig = u32::from_le_bytes(bytes[at + 12..at + 16].try_into().unwrap());
            let (field, near) = if kind == 6 { (8, incl) } else { (12, orig) };
            let values = [
                0,
                1,
                near.saturating_sub(1),
                near + 1,
                incl.max(orig),
                CAP - 1,
                CAP,
                CAP + 1,
                u32::MAX,
                rng.next_u64() as u32,
            ];
            let value = values[rng.below(values.len() as u64) as usize];
            bytes[at + field..at + field + 4].copy_from_slice(&value.to_le_bytes());
            let name = if kind == 6 { "incl_len" } else { "orig_len" };
            format!("{name} of the record at {at} rewritten to {value}")
        }
    };
    (bytes, what)
}

/// The `pcap.*` counters a read moves: records, truncations, framing
/// errors and unparseable records.
type Counts = [u64; 4];

fn counts() -> Counts {
    let reg = telemetry::global();
    [
        "pcap.records_total",
        "pcap.truncated_records",
        "pcap.malformed_records",
        "pcap.unparseable_records",
    ]
    .map(|name| reg.counter(name).get())
}

/// What an entry point made of a capture — its records and skip count,
/// or its error's text — and the counters it moved.
type Outcome = (Result<(Vec<TraceRecord>, u64), String>, Counts);

/// Runs `read` and records the counters it moved.
fn counted<T>(read: impl FnOnce() -> Result<T, String>) -> (Result<T, String>, Counts) {
    let before = counts();
    let got = read();
    let after = counts();
    (got, std::array::from_fn(|i| after[i] - before[i]))
}

/// A source that returns at most 7 bytes per read, so the reader
/// refills at every offset.
struct Trickle<R>(R);

impl<R: Read> Read for Trickle<R> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = out.len().min(7);
        self.0.read(&mut out[..n])
    }
}

/// The capture through [`PcapSource::for_each_record`] over `source`,
/// and the first record read earlier than the one before it, also when
/// the read then fails.
fn for_each_record(source: impl Read) -> (Outcome, Option<OutOfOrder>) {
    let mut records = Vec::new();
    let outcome = counted(|| {
        let mut source = PcapSource::new(source).map_err(|e| source_text(&e))?;
        let read = source.for_each_record(|rec| {
            records.push(rec);
            Ok::<(), PcapError>(())
        });
        read.map_err(|e| e.to_string())?;
        Ok((records.clone(), source.skipped_hint()))
    });
    (outcome, OutOfOrder::first_in(&records, 0, 0))
}

/// The text of a source error: the pcap error's own text.
fn source_text(e: &SourceError) -> String {
    match e {
        SourceError::Pcap(e) => e.to_string(),
        other => panic!("not a pcap error: {other}"),
    }
}

/// The text of a pipeline error: a source's pcap error text, or the
/// order check's.
fn pipeline_text(e: &PipelineError) -> String {
    match e {
        PipelineError::Source(e) => source_text(e),
        PipelineError::OutOfOrder(e) => format!("out of order: {e}"),
        other => panic!("not a pcap or order error: {other}"),
    }
}

/// The capture's records and skip count through [`read_pcap_ranges`] at
/// `parts` parts.
fn ranges(path: &Path, parts: usize) -> Outcome {
    counted(|| {
        let ranges = read_pcap_ranges(path, parts, &Vec::new, &mut |_| ControlFlow::Continue(()))
            .map_err(|e| e.to_string())?;
        let skipped = ranges.skipped;
        Ok((ranges.concat(), skipped))
    })
}

/// The record and skip counts of a block-engine run at `workers` workers,
/// or its error's text.
fn pipeline(path: &Path, workers: usize) -> (Result<(u64, u64), String>, Counts) {
    counted(|| {
        let mut source = PcapFileSource::open(path).map_err(|e| source_text(&e))?;
        let engine = &mut BlockEngine::new(DetectorConfig::default(), workers);
        let result = run_pipeline(&mut source, engine, &mut []).map_err(|e| pipeline_text(&e))?;
        Ok((result.records, result.skipped))
    })
}

/// The outcome in brief, for failure messages.
fn brief<T>(o: &(Result<(Vec<T>, u64), String>, Counts)) -> String {
    match &o.0 {
        Ok((records, skipped)) => {
            format!(
                "{} records, {skipped} skipped, counts {:?}",
                records.len(),
                o.1
            )
        }
        Err(e) => format!("{e}, counts {:?}", o.1),
    }
}

/// Reads `bytes`, written to `path`, through every entry point and
/// asserts they agree with the reference read (`for_each_record` over the
/// whole file). Returns whether the reference read it through.
fn assert_every_entry_point_agrees(bytes: &[u8], path: &Path, name: &str) -> bool {
    std::fs::write(path, bytes).unwrap();
    let (want, unsorted) = for_each_record(Cursor::new(bytes));
    let same = |got: Outcome, entry: &str| {
        assert!(
            got == want,
            "{name}: {entry} read {}, the reference {}",
            brief(&got),
            brief(&want)
        );
    };
    same(
        for_each_record(Trickle(Cursor::new(bytes))).0,
        "7-byte reads",
    );
    for parts in 1..=3 {
        same(ranges(path, parts), &format!("read_pcap_ranges at {parts}"));
    }

    // The block engine checks order where the records enter detection: a
    // trace read through, but not sorted, is refused at its first record
    // earlier than the one before it, and the read stops there.
    for workers in [1, 2] {
        let (got, moved) = pipeline(path, workers);
        let entry = format!("the block engine at {workers} workers");
        match (&want.0, unsorted) {
            (Ok(_), Some(first)) => {
                assert_eq!(
                    got,
                    Err(format!("out of order: {first}")),
                    "{name}: {entry}"
                );
            }
            (Ok((records, skipped)), None) => {
                assert_eq!(got, Ok((records.len() as u64, *skipped)), "{name}: {entry}");
                assert_eq!(moved, want.1, "{name}: {entry}'s counters");
            }
            (Err(e), None) => assert_eq!(&got.expect_err(name), e, "{name}: {entry}"),
            (Err(e), Some(first)) => {
                // Unsorted records before a framing error: a range reports
                // the error when the chunk holding both is cut short by
                // it, so the outcome depends on where chunks fall.
                let got = got.expect_err(name);
                assert!(
                    &got == e || got == format!("out of order: {first}"),
                    "{name}: {entry} failed with {got}, the reference with {e}"
                );
            }
        }
    }

    if let Some(Ok(header)) = bytes.first_chunk().map(FileHeader::decode) {
        let len = bytes.len() as u64;
        for parts in 1..=4 {
            let split =
                pcaplib::split_ranges(&mut Cursor::new(bytes), &header, len, parts).unwrap();
            assert!(
                split.len() <= parts.max(1),
                "{name}: {parts} parts gave {split:?}"
            );
            assert_eq!(split[0].0, FILE_HEADER_LEN as u64, "{name}: {split:?}");
            assert_eq!(
                split.last().unwrap().1,
                len.max(FILE_HEADER_LEN as u64),
                "{name}"
            );
            assert!(
                split
                    .windows(2)
                    .all(|w| w[0].1 == w[1].0 && w[0].0 < w[0].1),
                "{name}: {parts} parts gave {split:?}"
            );
        }
    }
    want.0.is_ok()
}

/// Runs `cases` mutants of one generated capture from `seed`, every
/// mutation kind in turn.
fn fuzz(seed: u64, cases: u64) {
    let mut rng = TestRng::from_seed(seed);
    let base = capture(&mut rng);
    let offsets = record_offsets(&base);
    let path: PathBuf = std::env::temp_dir().join(format!(
        "loopscope-pcap-fuzz-{}-{seed:x}.pcap",
        std::process::id()
    ));
    assert!(assert_every_entry_point_agrees(
        &base,
        &path,
        "the unmutated capture"
    ));
    let mut read_through = 0;
    for case in 0..cases {
        let (bytes, what) = mutate(&base, &offsets, case % 8, &mut rng);
        let name = format!("mutant {case} ({what})");
        read_through += u64::from(assert_every_entry_point_agrees(&bytes, &path, &name));
    }
    std::fs::remove_file(&path).ok();
    // The fuzz compares successful reads too, not only errors.
    assert!(read_through > 0, "no mutant read through");
}

/// Mutants per default run: five of each kind, about a second in debug.
const CASES: u64 = 40;

#[test]
fn mutated_captures_read_the_same_on_every_entry_point() {
    fuzz(0x9ca9_f022, CASES);
}

/// The larger budget `scripts/check.sh` runs in release: 2,000 mutants
/// of another capture, a few seconds.
#[test]
#[ignore = "larger budget; scripts/check.sh runs it in release"]
fn mutated_captures_read_the_same_on_every_entry_point_at_a_larger_budget() {
    fuzz(0x9ca9_f023, 50 * CASES);
}
