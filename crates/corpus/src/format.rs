//! The `.ltc` ("loop trace columnar") on-disk format: layout constants,
//! header codec, checksums, the read-side block checks both readers
//! share, and the typed error.
//!
//! The format stores exactly what the detector reads and cannot derive —
//! the [`loopscope::ReplicaKey`] fields, timestamp, TTL and lengths — as
//! fixed-width column arrays. The 64-bit replica fingerprint is a hash of
//! the key fields, so the decode derives it rather than storing it.
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
//! the widest (u64) lane is exactly 64 KiB, so a block reads as a run
//! of cache-friendly aligned column chunks and record `i` of the file
//! lives at a position computable from `i` alone — no header walk, no
//! snap-forward.
//!
//! Version 1 rows are 56 bytes: an 8-byte stored-fingerprint lane follows
//! the timestamps. A reader still accepts them and skips that lane (the
//! block checksum covers it; nothing else reads it), so the row width is
//! the one thing that depends on the version ([`LtcHeader::row_bytes`]).

use std::path::{Path, PathBuf};

/// Leading magic. PNG-style: a high bit to catch 7-bit transports, the
/// ASCII name, and a CRLF/LF pair to catch newline translation.
pub const MAGIC: [u8; 8] = *b"\x89LTC\r\n\x1a\n";

/// Current format version. Version bumps are append-only history: a
/// reader must refuse versions it does not know (never guess), and any
/// change to the column layout, checksum scheme, or header fields is a
/// new version. Readers accept `1..=VERSION`; writers write `VERSION`.
pub const VERSION: u32 = 2;

/// Header length in bytes.
pub const HEADER_LEN: usize = 40;

/// Records per full block: the u64 timestamp lane comes out at exactly
/// 64 KiB.
pub const BLOCK_RECORDS: usize = 8192;

/// Bytes of column data per record at [`VERSION`] (the sum of all
/// column widths).
pub const ROW_BYTES: usize = 48;

/// Bytes of column data per record at version 1: [`ROW_BYTES`] plus the
/// stored-fingerprint lane.
const V1_ROW_BYTES: usize = ROW_BYTES + 8;

/// Bytes of the per-block checksum that precedes the column data.
pub const BLOCK_CHECKSUM_LEN: usize = 8;

/// `(name, width_bytes)` of every column, in on-disk order. Widest first
/// so every lane stays self-aligned within the block. (Version 1 has a
/// `("fingerprint", 8)` lane after `timestamp_ns`.)
pub const COLUMN_LAYOUT: [(&str, usize); 12] = [
    ("timestamp_ns", 8),
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

/// Total on-disk bytes of a block holding `k` records of `row` bytes.
pub fn block_len(k: usize, row: usize) -> usize {
    BLOCK_CHECKSUM_LEN + k * row
}

/// Byte offset of block `b` in a file of `row`-byte records (blocks
/// before the last are always full). An offset past `u64::MAX` lies
/// beyond any file, so it saturates there and reads as a truncation: a
/// corrupt record count cannot overflow it.
pub fn block_offset(b: u64, row: usize) -> u64 {
    b.saturating_mul(block_len(BLOCK_RECORDS, row) as u64)
        .saturating_add(HEADER_LEN as u64)
}

/// Number of blocks a file of `records` records holds.
pub fn block_count(records: u64) -> u64 {
    records.div_ceil(BLOCK_RECORDS as u64)
}

/// Exact file length implied by a record count of `row`-byte records —
/// the truncation check (saturating, as [`block_offset`]).
pub fn expected_file_len(records: u64, row: usize) -> u64 {
    let full = records / BLOCK_RECORDS as u64;
    let rem = (records % BLOCK_RECORDS as u64) as usize;
    let tail = if rem > 0 {
        block_len(rem, row) as u64
    } else {
        0
    };
    block_offset(full, row).saturating_add(tail)
}

/// Fx-style multiply-rotate seed of the checksums. The detector's
/// fingerprint uses the same constant family, but the corpus keeps its
/// own copy and stores no fingerprint, so no file depends on the
/// detector's hash.
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
    /// Format version: [`VERSION`] as written, `1..=VERSION` as read.
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

    /// Bytes of column data per record in this header's version.
    pub fn row_bytes(&self) -> usize {
        if self.version == 1 {
            V1_ROW_BYTES
        } else {
            ROW_BYTES
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
        if !(1..=VERSION).contains(&version) {
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
                what: "unsupported block_records (every format version fixes it at 8192)",
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
                "{}: unsupported .ltc version {found} at offset 8 (this reader knows versions 1 to {VERSION})",
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

/// A validated header, its version's row width and the file it labels
/// errors with: the one owner of the read-side format rules. Both readers
/// hand it raw bytes — the buffered reader its read buffer, the mapped
/// reader a slice of the mapping — so each rule, and the error and offset
/// it reports, exists once.
#[derive(Clone)]
pub(crate) struct LtcLayout {
    pub(crate) path: PathBuf,
    pub(crate) header: LtcHeader,
    /// Bytes of column data per record ([`LtcHeader::row_bytes`]).
    pub(crate) row: usize,
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
        let row = header.row_bytes();
        Ok(Self { path, header, row })
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

    /// Byte offset of block `b`.
    pub(crate) fn block_offset(&self, b: u64) -> u64 {
        block_offset(b, self.row)
    }

    /// On-disk bytes of block `b`.
    pub(crate) fn block_len(&self, b: u64) -> usize {
        block_len(self.block_records(b), self.row)
    }

    /// The file's exact length ([`expected_file_len`]).
    pub(crate) fn file_len(&self) -> u64 {
        expected_file_len(self.header.records, self.row)
    }

    /// Verifies and decodes block `b`, appending its records to `out`.
    /// `avail` holds the file's bytes from the block's offset on; bytes
    /// past the block are ignored, too few is a truncation at the block's
    /// offset, and a stored checksum that does not match is reported for
    /// [`ChecksumRegion::Block`]`(b)` at the same offset.
    pub(crate) fn decode_block(
        &self,
        b: u64,
        avail: &[u8],
        out: &mut Vec<loopscope::TraceRecord>,
    ) -> Result<(), CorpusError> {
        let k = self.block_records(b);
        let offset = self.block_offset(b);
        let len = self.block_len(b);
        let Some(block) = avail.get(..len) else {
            return Err(CorpusError::Truncated {
                path: self.path.clone(),
                offset,
                needed: len as u64,
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
        let data_offset = offset + BLOCK_CHECKSUM_LEN as u64;
        crate::columns::decode_columns_push(data, k, self.row, out, &self.path, data_offset)
    }

    /// Checks that nothing follows the last block: `trailing` is what the
    /// file holds past [`LtcLayout::file_len`].
    pub(crate) fn check_end(&self, trailing: &[u8]) -> Result<(), CorpusError> {
        if trailing.is_empty() {
            return Ok(());
        }
        Err(CorpusError::Corrupt {
            path: self.path.clone(),
            offset: self.file_len(),
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
        for version in 1..=VERSION {
            let h = LtcHeader {
                version,
                ..LtcHeader::new(123_456, 7)
            };
            let bytes = h.encode();
            let back = LtcHeader::decode(&bytes, Path::new("t.ltc")).unwrap();
            assert_eq!(h, back);
        }
        assert_eq!(LtcHeader::new(1, 0).row_bytes(), 48);
        let v1 = LtcHeader {
            version: 1,
            ..LtcHeader::new(1, 0)
        };
        assert_eq!(v1.row_bytes(), 56);
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

        // A version bump also breaks the checksum, but version must be
        // checked first so the error says "upgrade", not "corrupt".
        for version in [0, VERSION + 1, 99] {
            let mut bad = good;
            bad[8..12].copy_from_slice(&version.to_le_bytes());
            let err = LtcHeader::decode(&bad, p).unwrap_err();
            assert!(
                matches!(err, CorpusError::UnsupportedVersion { found, .. } if found == version),
                "{err:?}"
            );
            assert!(
                err.to_string().contains(&format!(
                    "version {version} at offset 8 (this reader knows versions 1 to 2)"
                )),
                "{err}"
            );
        }

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
        for row in [ROW_BYTES, V1_ROW_BYTES] {
            assert_eq!(expected_file_len(0, row), HEADER_LEN as u64);
            assert_eq!(
                expected_file_len(1, row),
                (HEADER_LEN + BLOCK_CHECKSUM_LEN + row) as u64
            );
            assert_eq!(
                expected_file_len(BLOCK_RECORDS as u64, row),
                (HEADER_LEN + block_len(BLOCK_RECORDS, row)) as u64
            );
            assert_eq!(
                expected_file_len(BLOCK_RECORDS as u64 + 1, row),
                (HEADER_LEN + block_len(BLOCK_RECORDS, row) + block_len(1, row)) as u64
            );
        }
        // The benchmark's seed-1 offline trace: 485,257 records, 60 blocks.
        assert_eq!(expected_file_len(485_257, ROW_BYTES), 23_292_856);
        assert_eq!(expected_file_len(485_257, V1_ROW_BYTES), 27_174_912);
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
