//! On-disk layout of the columnar store file.
//!
//! The full byte-level specification lives in
//! [`docs/STORAGE_FORMAT.md`](https://github.com/counterminer/counterminer/blob/main/docs/STORAGE_FORMAT.md);
//! this module is its executable counterpart. A version-3 file is a
//! log:
//!
//! ```text
//! +--------+--------+-----+--------+--------+--------+------------+--------+-----+--------------+-----
//! | header | chunk0 | ... | chunkN | slot A | slot B | full index | chunks | ... | index delta  | ...
//! +--------+--------+-----+--------+--------+--------+------------+--------+-----+--------------+-----
//! ```
//!
//! * the fixed-size **header** ([`Superblock`]) carries the magic, the
//!   format version and the position of the slot pair, all guarded by
//!   a CRC-32. It is written once, when a compaction creates the file;
//! * two fixed **superblock slots** ([`Slot`]) each name one committed
//!   generation: its number and the offset and length of its newest
//!   index record, guarded by a CRC-32. A reader takes the valid slot
//!   with the higher generation;
//! * **chunks** are opaque encoded payloads (see [`crate::codec`]),
//!   written back to back with no per-chunk framing — their metadata
//!   (key, encoding, offset, length, CRC) lives in the index records;
//! * an **index record** holds series chain entries, run-table entries
//!   and metadata entries, behind a back-pointer to the previous record
//!   and terminated by its own CRC-32. The record a compaction writes
//!   is a full index; each later commit appends its new chunks and a
//!   delta record holding only what it changed.
//!
//! Every multi-byte integer is little endian. Versions 1 and 2 have no
//! slots: the header points straight at one full index, and every
//! commit rewrote the file under a temporary name. Version 3 keeps that
//! rewrite only for compaction; a leftover `.tmp` is deleted on open
//! (partial-write recovery).

use crate::codec::Encoding;
use crate::StoreError;
use cm_events::SampleMode;

/// File magic: "CounterMiner Columnar Store".
pub(crate) const MAGIC: [u8; 4] = *b"CMCS";

/// Current format version — what [`Store::commit`](crate::Store::commit)
/// writes. Version 2 added per-series *chunk chains* (the streaming
/// append path); version 3 made the file a log of index records behind
/// two superblock slots, so a commit appends only new bytes. Version-1
/// and version-2 files remain readable. See `docs/STORAGE_FORMAT.md`
/// for the version history and compatibility rules.
pub(crate) const VERSION: u32 = 3;

/// Format versions this reader understands.
pub(crate) const SUPPORTED_VERSIONS: &[u32] = &[1, 2, 3];

/// Size of the fixed superblock (the file header) in bytes.
pub(crate) const SUPERBLOCK_LEN: usize = 32;

/// Size of one superblock slot in bytes; a version-3 file has two,
/// side by side.
pub(crate) const SLOT_LEN: usize = 32;

/// Bytes of one chunk reference in an index entry: encoding, value
/// count, offset, length, CRC.
pub(crate) const CHUNK_REF_LEN: usize = 1 + 8 + 8 + 8 + 4;

/// Fewest bytes a series key takes in an index entry (empty program).
pub(crate) const SERIES_KEY_MIN: usize = 2 + 4 + 1 + 8;

/// Bytes of a run-table entry with an empty program name.
pub(crate) const RUN_ENTRY_MIN: usize = 2 + 4 + 1 + 8;

/// Bytes of a metadata entry with an empty key and value.
pub(crate) const META_ENTRY_MIN: usize = 2 + 4;

/// Suffix of the temporary file a compaction writes before renaming it
/// over the store.
pub(crate) const TMP_SUFFIX: &str = ".tmp";

/// The decoded superblock (the file header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Superblock {
    /// Format version of the file.
    pub version: u32,
    /// Byte offset of the index (versions 1–2) or of the slot pair
    /// (version 3).
    pub index_offset: u64,
    /// Length of the index in bytes, including its trailing CRC
    /// (versions 1–2), or of the slot pair (version 3).
    pub index_len: u64,
}

impl Superblock {
    /// Serializes the superblock into its fixed 32-byte form.
    pub fn encode(&self) -> [u8; SUPERBLOCK_LEN] {
        let mut out = [0u8; SUPERBLOCK_LEN];
        out[0..4].copy_from_slice(&MAGIC);
        out[4..8].copy_from_slice(&self.version.to_le_bytes());
        out[8..12].copy_from_slice(&0u32.to_le_bytes()); // flags, reserved
        out[12..20].copy_from_slice(&self.index_offset.to_le_bytes());
        out[20..28].copy_from_slice(&self.index_len.to_le_bytes());
        let crc = crate::codec::crc32(&out[0..28]);
        out[28..32].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and validates a superblock.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotAStore`] for a bad magic, [`StoreError::Truncated`]
    /// when fewer than 32 bytes are available,
    /// [`StoreError::UnsupportedVersion`] for an unknown version, and
    /// [`StoreError::ChecksumMismatch`] when the CRC disagrees.
    pub fn decode(bytes: &[u8], file: &str) -> Result<Self, StoreError> {
        if bytes.len() < SUPERBLOCK_LEN {
            return Err(StoreError::Truncated {
                file: file.to_string(),
                what: format!("superblock needs 32 bytes, file holds {}", bytes.len()),
            });
        }
        if bytes[0..4] != MAGIC {
            return Err(StoreError::NotAStore {
                file: file.to_string(),
            });
        }
        let stored_crc = u32::from_le_bytes(bytes[28..32].try_into().expect("4 bytes"));
        let actual_crc = crate::codec::crc32(&bytes[0..28]);
        if stored_crc != actual_crc {
            return Err(StoreError::ChecksumMismatch {
                file: file.to_string(),
                what: "superblock".to_string(),
            });
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if !SUPPORTED_VERSIONS.contains(&version) {
            return Err(StoreError::UnsupportedVersion {
                file: file.to_string(),
                found: version,
                supported: VERSION,
            });
        }
        Ok(Superblock {
            version,
            index_offset: u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")),
            index_len: u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes")),
        })
    }
}

/// One superblock slot: names the newest index record of one committed
/// generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    /// Commit generation; higher is newer, and 0 never names a commit.
    pub generation: u64,
    /// Byte offset of the generation's newest index record.
    pub record_offset: u64,
    /// Length of that record in bytes, including its trailing CRC.
    pub record_len: u64,
}

impl Slot {
    /// Serializes the slot into its fixed 32-byte form.
    pub fn encode(&self) -> [u8; SLOT_LEN] {
        let mut out = [0u8; SLOT_LEN];
        out[0..8].copy_from_slice(&self.generation.to_le_bytes());
        out[8..16].copy_from_slice(&self.record_offset.to_le_bytes());
        out[16..24].copy_from_slice(&self.record_len.to_le_bytes());
        // 24..28: reserved, zero.
        let crc = crate::codec::crc32(&out[0..28]);
        out[28..32].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses a slot; `None` when its CRC disagrees (a torn or never
    /// written slot) or it names generation 0.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let bytes: &[u8; SLOT_LEN] = bytes.get(..SLOT_LEN)?.try_into().ok()?;
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let stored_crc = u32::from_le_bytes(bytes[28..32].try_into().expect("4 bytes"));
        let slot = Slot {
            generation: word(0),
            record_offset: word(8),
            record_len: word(16),
        };
        (stored_crc == crate::codec::crc32(&bytes[0..28]) && slot.generation > 0).then_some(slot)
    }
}

/// Index-resident metadata of one committed chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChunkRef {
    /// Payload encoding.
    pub encoding: Encoding,
    /// Number of values in the chunk.
    pub count: u64,
    /// Byte offset of the payload within the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC-32 of the payload bytes.
    pub crc: u32,
}

/// Serialization helpers shared by the index writer and reader.
pub(crate) struct IndexWriter {
    buf: Vec<u8>,
}

impl IndexWriter {
    pub fn new() -> Self {
        IndexWriter { buf: Vec::new() }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Length-prefixed UTF-8 (u16 length).
    pub fn str16(&mut self, s: &str) {
        let len = u16::try_from(s.len()).unwrap_or(u16::MAX);
        let s = &s[..len as usize];
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Length-prefixed UTF-8 (u32 length, for metadata values).
    pub fn str32(&mut self, s: &str) {
        self.buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends the CRC of everything written so far and returns the
    /// finished index bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let crc = crate::codec::crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// Cursor over index bytes with typed reads and corruption errors.
pub(crate) struct IndexReader<'a> {
    buf: &'a [u8],
    pos: usize,
    file: &'a str,
}

impl<'a> IndexReader<'a> {
    /// Validates the trailing CRC and returns a cursor over the body.
    pub fn new(buf: &'a [u8], file: &'a str) -> Result<Self, StoreError> {
        if buf.len() < 4 {
            return Err(StoreError::Truncated {
                file: file.to_string(),
                what: "index shorter than its checksum".to_string(),
            });
        }
        let (body, crc_bytes) = buf.split_at(buf.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if stored != crate::codec::crc32(body) {
            return Err(StoreError::ChecksumMismatch {
                file: file.to_string(),
                what: "index".to_string(),
            });
        }
        Ok(IndexReader {
            buf: body,
            pos: 0,
            file,
        })
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.pos + n > self.buf.len() {
            return Err(StoreError::Truncated {
                file: self.file.to_string(),
                what: format!("index ended inside {what}"),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn u8(&mut self, what: &str) -> Result<u8, StoreError> {
        Ok(self.take(1, what)?[0])
    }

    pub fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    pub fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    pub fn f64(&mut self, what: &str) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a `u64` entry count and bounds it by the bytes left: each
    /// entry takes at least `min_entry` of them, so a count the index
    /// cannot hold is corrupt before anything is sized by it.
    pub fn count64(&mut self, what: &str, min_entry: usize) -> Result<usize, StoreError> {
        let n = self.u64(what)?;
        self.bounded(n, what, min_entry)
    }

    /// [`IndexReader::count64`] for a `u32` count.
    pub fn count32(&mut self, what: &str, min_entry: usize) -> Result<usize, StoreError> {
        let n = self.u32(what)?;
        self.bounded(u64::from(n), what, min_entry)
    }

    fn bounded(&self, n: u64, what: &str, min_entry: usize) -> Result<usize, StoreError> {
        let room = (self.buf.len() - self.pos) / min_entry.max(1);
        if n > room as u64 {
            return Err(StoreError::Corrupt {
                file: self.file.to_string(),
                what: format!("{what} {n} exceeds the {room} entries the index has room for"),
            });
        }
        Ok(n as usize)
    }

    pub fn str16(&mut self, what: &str) -> Result<String, StoreError> {
        let len = u16::from_le_bytes(self.take(2, what)?.try_into().expect("2 bytes"));
        self.utf8(len as usize, what)
    }

    pub fn str32(&mut self, what: &str) -> Result<String, StoreError> {
        let len = self.u32(what)?;
        self.utf8(len as usize, what)
    }

    fn utf8(&mut self, len: usize, what: &str) -> Result<String, StoreError> {
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| StoreError::Corrupt {
            file: self.file.to_string(),
            what: format!("{what} is not valid UTF-8"),
        })
    }

    /// Whether the cursor consumed the whole body.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// On-disk tag for a [`SampleMode`].
pub(crate) fn mode_tag(mode: SampleMode) -> u8 {
    match mode {
        SampleMode::Ocoe => 0,
        SampleMode::Mlpx => 1,
    }
}

/// Inverse of [`mode_tag`].
pub(crate) fn mode_from_tag(tag: u8, file: &str) -> Result<SampleMode, StoreError> {
    match tag {
        0 => Ok(SampleMode::Ocoe),
        1 => Ok(SampleMode::Mlpx),
        other => Err(StoreError::Corrupt {
            file: file.to_string(),
            what: format!("unknown sample-mode tag {other}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superblock_round_trips() {
        let sb = Superblock {
            version: VERSION,
            index_offset: 1234,
            index_len: 567,
        };
        let bytes = sb.encode();
        assert_eq!(Superblock::decode(&bytes, "t").unwrap(), sb);
    }

    #[test]
    fn superblock_rejects_corruption() {
        let sb = Superblock {
            version: VERSION,
            index_offset: 32,
            index_len: 4,
        };
        let mut bytes = sb.encode();

        // Wrong magic.
        let mut bad = bytes;
        bad[0] = b'X';
        assert!(matches!(
            Superblock::decode(&bad, "t"),
            Err(StoreError::NotAStore { .. })
        ));

        // Flipped byte inside the covered region.
        bad = bytes;
        bad[13] ^= 0xFF;
        assert!(matches!(
            Superblock::decode(&bad, "t"),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        // Unsupported version (CRC recomputed so it is reached).
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let crc = crate::codec::crc32(&bytes[0..28]);
        bytes[28..32].copy_from_slice(&crc.to_le_bytes());
        match Superblock::decode(&bytes, "t") {
            Err(StoreError::UnsupportedVersion {
                found, supported, ..
            }) => {
                assert_eq!(found, 99);
                assert_eq!(supported, VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }

        // Too short.
        assert!(matches!(
            Superblock::decode(&[0u8; 10], "t"),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn index_writer_reader_round_trip() {
        let mut w = IndexWriter::new();
        w.u8(7);
        w.u32(1000);
        w.u64(1 << 40);
        w.f64(-2.5);
        w.str16("wordcount");
        w.str32("a longer metadata value");
        let bytes = w.finish();

        let mut r = IndexReader::new(&bytes, "t").unwrap();
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 1000);
        assert_eq!(r.u64("c").unwrap(), 1 << 40);
        assert_eq!(r.f64("d").unwrap(), -2.5);
        assert_eq!(r.str16("e").unwrap(), "wordcount");
        assert_eq!(r.str32("f").unwrap(), "a longer metadata value");
        assert!(r.at_end());
    }

    #[test]
    fn index_reader_rejects_bad_crc_and_truncation() {
        let mut w = IndexWriter::new();
        w.u64(42);
        let mut bytes = w.finish();
        bytes[0] ^= 1;
        assert!(matches!(
            IndexReader::new(&bytes, "t"),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        let mut w = IndexWriter::new();
        w.u32(1);
        let bytes = w.finish();
        let mut r = IndexReader::new(&bytes, "t").unwrap();
        assert!(r.u64("too much").is_err());
    }

    #[test]
    fn slot_round_trips_and_rejects_tears() {
        let slot = Slot {
            generation: 9,
            record_offset: 4096,
            record_len: 77,
        };
        let bytes = slot.encode();
        assert_eq!(Slot::decode(&bytes), Some(slot));
        // Never written, torn, generation 0, too short.
        assert_eq!(Slot::decode(&[0u8; SLOT_LEN]), None);
        let mut torn = bytes;
        torn[10] ^= 1;
        assert_eq!(Slot::decode(&torn), None);
        let zero = Slot {
            generation: 0,
            ..slot
        };
        assert_eq!(Slot::decode(&zero.encode()), None);
        assert_eq!(Slot::decode(&bytes[..SLOT_LEN - 1]), None);
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let mut w = IndexWriter::new();
        w.u64(3);
        w.u32(u32::MAX);
        w.u64(0);
        let bytes = w.finish();
        let mut r = IndexReader::new(&bytes, "t").unwrap();
        // 12 bytes remain after the first count: room for 3 four-byte
        // entries but not for 3 five-byte ones.
        assert_eq!(r.count64("a", 4).unwrap(), 3);
        let mut r = IndexReader::new(&bytes, "t").unwrap();
        assert!(matches!(r.count64("a", 5), Err(StoreError::Corrupt { .. })));
        let mut r = IndexReader::new(&bytes, "t").unwrap();
        r.u64("skip").unwrap();
        assert!(matches!(
            r.count32("b", CHUNK_REF_LEN),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn mode_tags_round_trip() {
        for mode in [SampleMode::Ocoe, SampleMode::Mlpx] {
            assert_eq!(mode_from_tag(mode_tag(mode), "t").unwrap(), mode);
        }
        assert!(mode_from_tag(9, "t").is_err());
    }
}
