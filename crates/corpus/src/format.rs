//! The `.ltc` ("loop trace columnar") on-disk format: layout constants,
//! header codec, checksums, the read-side block checks both readers
//! share, and the typed error.
//!
//! The format stores exactly what the detector reads — the
//! [`loopscope::ReplicaKey`] fields, timestamp, TTL, lengths, and the
//! ingest-time 64-bit replica fingerprint — as fixed-width column arrays.
//! See DESIGN.md ("On-disk corpus format") for the full layout diagram,
//! endianness, and versioning rules; this module is the normative
//! implementation.
//!
//! ```text
//! file   := header block*
//! header := magic[8] version:u32 block_records:u32 records:u64
//!           skipped:u64 header_checksum:u64                      (40 bytes)
//! block  := block_checksum:u64 columns[k]                        (k = records
//!           in this block: BLOCK_RECORDS for all but the last)
//! ```
//!
//! All integers are little-endian. Within a block the columns are stored
//! back to back in [`COLUMN_LAYOUT`] order; with `BLOCK_RECORDS` = 8192
//! the widest (u64) lanes are exactly 64 KiB, so a block reads as a run
//! of cache-friendly aligned column chunks and record `i` of the file
//! lives at a position computable from `i` alone — no header walk, no
//! snap-forward.

use std::path::{Path, PathBuf};

/// Leading magic. PNG-style: a high bit to catch 7-bit transports, the
/// ASCII name, and a CRLF/LF pair to catch newline translation.
pub const MAGIC: [u8; 8] = *b"\x89LTC\r\n\x1a\n";

/// Current format version. Version bumps are append-only history: a
/// reader must refuse versions it does not know (never guess), and any
/// change to the column layout, checksum scheme, or header fields is a
/// new version.
pub const VERSION: u32 = 1;

/// Header length in bytes.
pub const HEADER_LEN: usize = 40;

/// Records per full block: u64 column lanes come out at exactly 64 KiB.
pub const BLOCK_RECORDS: usize = 8192;

/// Bytes of column data per record (the sum of all column widths).
pub const ROW_BYTES: usize = 56;

/// Bytes of the per-block checksum that precedes the column data.
pub const BLOCK_CHECKSUM_LEN: usize = 8;

/// `(name, width_bytes)` of every column, in on-disk order. Widest first
/// so every lane stays self-aligned within the block.
pub const COLUMN_LAYOUT: [(&str, usize); 13] = [
    ("timestamp_ns", 8),
    ("fingerprint", 8),
    ("src", 4),
    ("dst", 4),
    ("ident", 2),
    ("total_len", 2),
    ("frag_word", 2),
    ("ip_checksum", 2),
    ("protocol", 1),
    ("tos", 1),
    ("ttl", 1),
    ("tp_tag", 1),
    ("tp_blob", 20),
];

/// Transport variant tags in the `tp_tag` column — the same 1/2/3/4
/// numbering [`loopscope::ReplicaKey::fingerprint`] mixes into the
/// fingerprint.
pub const TAG_TCP: u8 = 1;
/// UDP transport tag.
pub const TAG_UDP: u8 = 2;
/// ICMP transport tag.
pub const TAG_ICMP: u8 = 3;
/// Opaque/other transport tag.
pub const TAG_OTHER: u8 = 4;

/// Total on-disk bytes of a block holding `k` records.
pub fn block_len(k: usize) -> usize {
    BLOCK_CHECKSUM_LEN + k * ROW_BYTES
}

/// Byte offset of block `b` for a file of `records` records (blocks
/// before the last are always full).
pub fn block_offset(b: u64) -> u64 {
    HEADER_LEN as u64 + b * block_len(BLOCK_RECORDS) as u64
}

/// Number of blocks a file of `records` records holds.
pub fn block_count(records: u64) -> u64 {
    records.div_ceil(BLOCK_RECORDS as u64)
}

/// Exact file length implied by a record count — the truncation check.
pub fn expected_file_len(records: u64) -> u64 {
    let full = records / BLOCK_RECORDS as u64;
    let rem = (records % BLOCK_RECORDS as u64) as usize;
    let mut len = HEADER_LEN as u64 + full * block_len(BLOCK_RECORDS) as u64;
    if rem > 0 {
        len += block_len(rem) as u64;
    }
    len
}

/// Fx-style multiply-rotate seed (the same constant family the detector's
/// fingerprint uses; the corpus keeps its own copy so the file format
/// never silently changes if the detector retunes its hash).
const CHECKSUM_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(CHECKSUM_SEED)
}

/// 64-bit content checksum: the Fx multiply-rotate mixer folded over
/// 8-byte little-endian words, with the length mixed in last so
/// zero-padding cannot alias.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = [0u8; 8];
        w[..rem.len()].copy_from_slice(rem);
        h = mix(h, u64::from_le_bytes(w));
    }
    mix(h, bytes.len() as u64)
}

/// Per-block checksum: the content checksum with the block index mixed
/// in, so two identical blocks swapped in place still fail verification.
pub fn block_checksum(block: u64, bytes: &[u8]) -> u64 {
    mix(checksum(bytes), block)
}

/// The decoded (and validated) fixed-size header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LtcHeader {
    /// Format version (currently always [`VERSION`]).
    pub version: u32,
    /// Records per full block (currently always [`BLOCK_RECORDS`]).
    pub block_records: u32,
    /// Total records in the file.
    pub records: u64,
    /// Unparseable packets the converter dropped — carried so a corpus
    /// scan reports the same skip count as a streamed read of the source
    /// capture.
    pub skipped: u64,
}

impl LtcHeader {
    /// A header for a finished file.
    pub fn new(records: u64, skipped: u64) -> Self {
        Self {
            version: VERSION,
            block_records: BLOCK_RECORDS as u32,
            records,
            skipped,
        }
    }

    /// Serialises the 40-byte header (checksum computed here).
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&self.version.to_le_bytes());
        out[12..16].copy_from_slice(&self.block_records.to_le_bytes());
        out[16..24].copy_from_slice(&self.records.to_le_bytes());
        out[24..32].copy_from_slice(&self.skipped.to_le_bytes());
        let sum = checksum(&out[..32]);
        out[32..40].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parses and validates a header read from `path` (magic, version,
    /// header checksum, block-records sanity).
    pub fn decode(bytes: &[u8; HEADER_LEN], path: &Path) -> Result<Self, CorpusError> {
        let magic: [u8; 8] = bytes[..8].try_into().expect("8 bytes");
        if magic != MAGIC {
            return Err(CorpusError::BadMagic {
                path: path.to_path_buf(),
                found: magic,
            });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(CorpusError::UnsupportedVersion {
                path: path.to_path_buf(),
                found: version,
            });
        }
        let stored = u64::from_le_bytes(bytes[32..40].try_into().expect("8 bytes"));
        let computed = checksum(&bytes[..32]);
        if stored != computed {
            return Err(CorpusError::ChecksumMismatch {
                path: path.to_path_buf(),
                offset: 32,
                region: ChecksumRegion::Header,
                expected: stored,
                found: computed,
            });
        }
        let block_records = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        if block_records as usize != BLOCK_RECORDS {
            return Err(CorpusError::Corrupt {
                path: path.to_path_buf(),
                offset: 12,
                what: "unsupported block_records (format v1 fixes it at 8192)",
            });
        }
        Ok(Self {
            version,
            block_records,
            records: u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")),
            skipped: u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes")),
        })
    }
}

/// Which checksummed region failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChecksumRegion {
    /// The 40-byte file header.
    Header,
    /// Column-data block `n` (0-based).
    Block(u64),
}

/// A failure reading or validating a `.ltc` corpus file. Every variant
/// names the file, and every on-disk defect names the byte offset — a
/// corrupted corpus must fail loudly and locatably, never panic or
/// silently short-read.
#[derive(Debug)]
pub enum CorpusError {
    /// The operating system failed the read/write.
    Io {
        /// The file being accessed.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The leading 8 bytes are not the `.ltc` magic.
    BadMagic {
        /// The file.
        path: PathBuf,
        /// What was found at offset 0 instead.
        found: [u8; 8],
    },
    /// The file declares a format version this reader does not know.
    UnsupportedVersion {
        /// The file.
        path: PathBuf,
        /// The declared version.
        found: u32,
    },
    /// A stored checksum does not match the bytes it covers.
    ChecksumMismatch {
        /// The file.
        path: PathBuf,
        /// Byte offset of the stored checksum.
        offset: u64,
        /// Which region failed.
        region: ChecksumRegion,
        /// The checksum stored in the file.
        expected: u64,
        /// The checksum computed over the bytes actually read.
        found: u64,
    },
    /// The file ends before the column arrays the header promises.
    Truncated {
        /// The file.
        path: PathBuf,
        /// Byte offset where the short read began.
        offset: u64,
        /// Bytes the format required from that offset.
        needed: u64,
        /// Bytes actually available.
        got: u64,
    },
    /// A record's stored fingerprint is not the one its replica-key
    /// fields hash to. The detectors trust the column: a wrong value
    /// splits a key into two candidates, and a column of equal values
    /// chains every key onto one index entry.
    FingerprintMismatch {
        /// The file.
        path: PathBuf,
        /// Byte offset of the stored fingerprint.
        offset: u64,
        /// The record's index in the file.
        record: u64,
    },
    /// Structurally invalid content at a specific offset (bad transport
    /// tag, trailing bytes after the last block, …).
    Corrupt {
        /// The file.
        path: PathBuf,
        /// Byte offset of the defect.
        offset: u64,
        /// What is wrong there.
        what: &'static str,
    },
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Io { path, source } => {
                write!(f, "{}: io error: {source}", path.display())
            }
            CorpusError::BadMagic { path, found } => write!(
                f,
                "{}: not a .ltc corpus file (magic {found:02x?} at offset 0)",
                path.display()
            ),
            CorpusError::UnsupportedVersion { path, found } => write!(
                f,
                "{}: unsupported .ltc version {found} at offset 8 (this reader knows version {VERSION})",
                path.display()
            ),
            CorpusError::ChecksumMismatch {
                path,
                offset,
                region,
                expected,
                found,
            } => match region {
                ChecksumRegion::Header => write!(
                    f,
                    "{}: header checksum mismatch at offset {offset} (stored {expected:#018x}, computed {found:#018x})",
                    path.display()
                ),
                ChecksumRegion::Block(b) => write!(
                    f,
                    "{}: block {b} checksum mismatch at offset {offset} (stored {expected:#018x}, computed {found:#018x})",
                    path.display()
                ),
            },
            CorpusError::Truncated {
                path,
                offset,
                needed,
                got,
            } => write!(
                f,
                "{}: truncated at offset {offset}: needed {needed} bytes, found {got}",
                path.display()
            ),
            CorpusError::FingerprintMismatch {
                path,
                offset,
                record,
            } => write!(
                f,
                "{}: record {record}: stored fingerprint does not match its replica-key fields (offset {offset})",
                path.display()
            ),
            CorpusError::Corrupt { path, offset, what } => {
                write!(f, "{}: corrupt at offset {offset}: {what}", path.display())
            }
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl CorpusError {
    /// Wraps an io error with the file it struck.
    pub fn io(path: &Path, source: std::io::Error) -> Self {
        CorpusError::Io {
            path: path.to_path_buf(),
            source,
        }
    }
}

/// Whether `prefix` starts with the `.ltc` magic bytes.
pub fn is_ltc_magic(prefix: &[u8]) -> bool {
    prefix.len() >= MAGIC.len() && prefix[..MAGIC.len()] == MAGIC
}

/// Sniffs a file's leading bytes for the `.ltc` magic. Short files (even
/// empty ones) sniff as "not ltc" — the pcap layer then reports its own
/// header error.
pub fn sniff_is_ltc(path: &Path) -> std::io::Result<bool> {
    use std::io::Read;
    let mut prefix = Vec::with_capacity(MAGIC.len());
    std::fs::File::open(path)?
        .take(MAGIC.len() as u64)
        .read_to_end(&mut prefix)?;
    Ok(is_ltc_magic(&prefix))
}

/// A validated header and the file it labels errors with: the one owner
/// of the read-side format rules. Both readers hand it raw bytes — the
/// buffered reader its read buffer, the mapped reader a slice of the
/// mapping — so each rule, and the error and offset it reports, exists
/// once.
#[derive(Clone)]
pub(crate) struct LtcLayout {
    pub(crate) path: PathBuf,
    pub(crate) header: LtcHeader,
}

impl LtcLayout {
    /// Validates the header from the file's leading bytes; `head` shorter
    /// than [`HEADER_LEN`] is a truncated header.
    pub(crate) fn parse(path: PathBuf, head: &[u8]) -> Result<Self, CorpusError> {
        let Some(head) = head.get(..HEADER_LEN) else {
            return Err(CorpusError::Truncated {
                path,
                offset: 0,
                needed: HEADER_LEN as u64,
                got: head.len() as u64,
            });
        };
        let header = LtcHeader::decode(head.try_into().expect("header slice"), &path)?;
        Ok(Self { path, header })
    }

    /// Number of blocks in the file.
    pub(crate) fn blocks(&self) -> u64 {
        block_count(self.header.records)
    }

    /// Records in block `b`.
    pub(crate) fn block_records(&self, b: u64) -> usize {
        let before = b * BLOCK_RECORDS as u64;
        ((self.header.records - before).min(BLOCK_RECORDS as u64)) as usize
    }

    /// Verifies and decodes block `b`, appending its records to `out`.
    /// `avail` holds the file's bytes from the block's offset on; bytes
    /// past the block are ignored, too few is a truncation at the block's
    /// offset, and a stored checksum that does not match is reported for
    /// [`ChecksumRegion::Block`]`(b)` at the same offset. Each decoded
    /// record's stored fingerprint is checked against its replica-key
    /// fields ([`CorpusError::FingerprintMismatch`]): this is the one
    /// place every `.ltc` read path checks it.
    pub(crate) fn decode_block(
        &self,
        b: u64,
        avail: &[u8],
        out: &mut Vec<loopscope::TraceRecord>,
    ) -> Result<(), CorpusError> {
        let k = self.block_records(b);
        let offset = block_offset(b);
        let Some(block) = avail.get(..block_len(k)) else {
            return Err(CorpusError::Truncated {
                path: self.path.clone(),
                offset,
                needed: block_len(k) as u64,
                got: avail.len() as u64,
            });
        };
        let (stored, data) = block.split_at(BLOCK_CHECKSUM_LEN);
        let stored = u64::from_le_bytes(stored.try_into().expect("checksum prefix"));
        let computed = block_checksum(b, data);
        if stored != computed {
            return Err(CorpusError::ChecksumMismatch {
                path: self.path.clone(),
                offset,
                region: ChecksumRegion::Block(b),
                expected: stored,
                found: computed,
            });
        }
        let first = out.len();
        let data_offset = offset + BLOCK_CHECKSUM_LEN as u64;
        if crate::columns::decode_columns_push(data, k, out, &self.path, data_offset)? {
            return Ok(());
        }
        let i = out[first..]
            .iter()
            .position(|r| r.fingerprint != loopscope::ReplicaKey::of(r).fingerprint())
            .expect("the decode found a mismatch");
        Err(CorpusError::FingerprintMismatch {
            path: self.path.clone(),
            // The fingerprint lane follows the k timestamps.
            offset: data_offset + (8 * k + 8 * i) as u64,
            record: b * BLOCK_RECORDS as u64 + i as u64,
        })
    }

    /// Checks that nothing follows the last block: `trailing` is what the
    /// file holds past [`expected_file_len`].
    pub(crate) fn check_end(&self, trailing: &[u8]) -> Result<(), CorpusError> {
        if trailing.is_empty() {
            return Ok(());
        }
        Err(CorpusError::Corrupt {
            path: self.path.clone(),
            offset: expected_file_len(self.header.records),
            what: "trailing bytes after the last block",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_bytes_matches_the_layout() {
        assert_eq!(
            COLUMN_LAYOUT.iter().map(|&(_, w)| w).sum::<usize>(),
            ROW_BYTES
        );
    }

    #[test]
    fn u64_lanes_are_64kib() {
        assert_eq!(BLOCK_RECORDS * 8, 64 * 1024);
    }

    #[test]
    fn header_roundtrip() {
        let h = LtcHeader::new(123_456, 7);
        let bytes = h.encode();
        let back = LtcHeader::decode(&bytes, Path::new("t.ltc")).unwrap();
        assert_eq!(h, back);
    }

    #[test]
    fn header_rejects_bad_magic_version_checksum() {
        let p = Path::new("t.ltc");
        let good = LtcHeader::new(10, 0).encode();

        let mut bad = good;
        bad[0] = b'P';
        assert!(matches!(
            LtcHeader::decode(&bad, p),
            Err(CorpusError::BadMagic { .. })
        ));

        let mut bad = good;
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        // A version bump also breaks the checksum, but version must be
        // checked first so the error says "upgrade", not "corrupt".
        assert!(matches!(
            LtcHeader::decode(&bad, p),
            Err(CorpusError::UnsupportedVersion { found: 99, .. })
        ));

        let mut bad = good;
        bad[20] ^= 1; // flip a record-count bit
        assert!(matches!(
            LtcHeader::decode(&bad, p),
            Err(CorpusError::ChecksumMismatch {
                region: ChecksumRegion::Header,
                offset: 32,
                ..
            })
        ));
    }

    #[test]
    fn expected_len_counts_partial_blocks() {
        assert_eq!(expected_file_len(0), HEADER_LEN as u64);
        assert_eq!(
            expected_file_len(1),
            (HEADER_LEN + BLOCK_CHECKSUM_LEN + ROW_BYTES) as u64
        );
        assert_eq!(
            expected_file_len(BLOCK_RECORDS as u64),
            (HEADER_LEN + block_len(BLOCK_RECORDS)) as u64
        );
        assert_eq!(
            expected_file_len(BLOCK_RECORDS as u64 + 1),
            (HEADER_LEN + block_len(BLOCK_RECORDS) + block_len(1)) as u64
        );
    }

    #[test]
    fn checksum_is_length_and_position_sensitive() {
        assert_ne!(checksum(b"ab"), checksum(b"ab\0"));
        assert_ne!(block_checksum(0, b"same"), block_checksum(1, b"same"));
        let errs = [
            CorpusError::io(Path::new("x.ltc"), std::io::Error::other("boom")),
            CorpusError::BadMagic {
                path: "x.ltc".into(),
                found: [0; 8],
            },
        ];
        for e in errs {
            assert!(e.to_string().contains("x.ltc"), "{e}");
        }
    }
}
