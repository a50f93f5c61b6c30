//! The persistent chunked columnar store.
//!
//! [`Store`] is one binary file holding every collected series as an
//! independently encoded, CRC-guarded column chunk, plus the run table
//! (execution times) and a string metadata map the pipeline uses for
//! snapshot fingerprints. See [`crate::format`] for the byte layout and
//! `docs/STORAGE_FORMAT.md` for the full specification.
//!
//! Writes are staged in memory and made durable by [`Store::commit`],
//! which appends the new chunks and an index delta to the end of the
//! file and then flips one of two superblock slots, fsyncing before and
//! after the flip. A reader follows the newest valid slot and never
//! looks past the record it names, so a crash mid-commit leaves the
//! previous committed state intact. Rewriting the whole file under a
//! temporary name and renaming it into place is kept for compaction.

use crate::cache::BlockCache;
use crate::codec::{self, Encoding};
use crate::format::{
    mode_from_tag, mode_tag, ChunkRef, IndexReader, IndexWriter, Slot, Superblock, CHUNK_REF_LEN,
    META_ENTRY_MIN, RUN_ENTRY_MIN, SERIES_KEY_MIN, SLOT_LEN, SUPERBLOCK_LEN, TMP_SUFFIX, VERSION,
};
use crate::vfs::{RealFs, Vfs, VfsFile};
use crate::{CacheConfig, CacheStats, StoreError};
use cm_events::{EventId, RunRecord, SampleMode, TimeSeries};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Identifies one stored column: one event's series from one run of one
/// program in one measurement mode.
///
/// # Examples
///
/// ```
/// use cm_events::{EventId, SampleMode};
/// use cm_store::SeriesKey;
///
/// let key = SeriesKey::new("wordcount", 0, SampleMode::Mlpx, EventId::new(3));
/// assert_eq!(key.program, "wordcount");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesKey {
    /// Program (or snapshot namespace) the series belongs to.
    pub program: String,
    /// 0-based run index.
    pub run_index: u32,
    /// Measurement mode of the run.
    pub mode: SampleMode,
    /// The measured event.
    pub event: EventId,
}

impl SeriesKey {
    /// Creates a series key.
    pub fn new(
        program: impl Into<String>,
        run_index: u32,
        mode: SampleMode,
        event: EventId,
    ) -> Self {
        SeriesKey {
            program: program.into(),
            run_index,
            mode,
            event,
        }
    }
}

/// Identifies one run in the store's run table.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunId {
    /// Program name.
    pub program: String,
    /// 0-based run index.
    pub run_index: u32,
    /// Measurement mode.
    pub mode: SampleMode,
}

impl RunId {
    /// Creates a run id.
    pub fn new(program: impl Into<String>, run_index: u32, mode: SampleMode) -> Self {
        RunId {
            program: program.into(),
            run_index,
            mode,
        }
    }
}

/// Longest committed chunk chain a series may keep. A commit that would
/// exceed it *compacts* the series — decodes the chain plus the staged
/// tail and re-encodes everything as one chunk — so streamed appends
/// cannot grow a series into an unbounded list of tiny chunks. Reads
/// therefore touch at most this many chunks per series.
pub const MAX_CHUNK_CHAIN: usize = 8;

/// Longest chain of index deltas a file may carry behind its last full
/// index. A commit that would exceed it *compacts* the file instead —
/// rewrites it with one full index under a temporary name and renames
/// it into place — so opening a store replays at most this many deltas.
pub const MAX_DELTA_CHAIN: usize = 64;

/// Dead bytes (chunks and index records no longer reachable from the
/// newest generation) a file may hold per live byte before the next
/// commit compacts it, so a store appended to forever stays within
/// twice its live size.
pub const MAX_DEAD_PER_LIVE: u64 = 1;

/// An encoded chunk ready to hit disk: encoding, value count, payload.
type EncodedChunk = (Encoding, u64, Vec<u8>);

/// Where one series' values currently live: a chain of committed chunks
/// (in append order) plus, possibly, a staged tail that the next
/// [`Store::commit`] makes durable. Either part may be empty, but never
/// both.
#[derive(Debug, Clone)]
struct SeriesState {
    /// Committed chunks, concatenated in order on read.
    disk: Vec<ChunkRef>,
    /// Values staged by [`Store::append_series`] /
    /// [`Store::extend_series`], not yet durable; logically follows
    /// every committed chunk.
    tail: Option<Arc<Vec<f64>>>,
}

impl SeriesState {
    fn staged(values: Vec<f64>) -> Self {
        SeriesState {
            disk: Vec::new(),
            tail: Some(Arc::new(values)),
        }
    }

    fn has_tail(&self) -> bool {
        self.tail.is_some()
    }

    /// Total values across committed chunks and the staged tail.
    fn len(&self) -> u64 {
        self.disk.iter().map(|c| c.count).sum::<u64>()
            + self.tail.as_ref().map_or(0, |t| t.len() as u64)
    }
}

/// Aggregate facts about a store, as shown by `counterminer store-info`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreInfo {
    /// On-disk format version.
    pub version: u32,
    /// Number of stored series (committed + staged).
    pub series: usize,
    /// Number of staged (uncommitted) series.
    pub staged: usize,
    /// Number of runs in the run table.
    pub runs: usize,
    /// Number of metadata entries.
    pub meta_entries: usize,
    /// Series whose committed values span more than one chunk (streamed
    /// appends that have not been compacted yet).
    pub chained_series: usize,
    /// Total sample values across all series.
    pub total_values: u64,
    /// Committed bytes: the file's size up to the end of its newest
    /// index record (0 before the first commit).
    pub file_bytes: u64,
    /// Committed chunks using the delta+varint encoding.
    pub delta_chunks: usize,
    /// Committed chunks stored as raw `f64` bits.
    pub raw_chunks: usize,
}

/// A persistent, chunked, columnar event store with an LRU block cache.
///
/// # Examples
///
/// ```
/// use cm_events::{EventId, SampleMode};
/// use cm_store::{SeriesKey, Store};
///
/// let dir = std::env::temp_dir().join(format!("cm_store_doc_{}", std::process::id()));
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("doc.cmstore");
/// # let _ = std::fs::remove_file(&path);
///
/// // Write: stage series, then commit atomically.
/// let mut store = Store::open(&path)?;
/// let key = SeriesKey::new("wordcount", 0, SampleMode::Mlpx, EventId::new(3));
/// store.append_series(key.clone(), &[120.0, 118.0, 131.0])?;
/// store.commit()?;
///
/// // Read it back — the decoded chunk lands in the block cache.
/// let reopened = Store::open(&path)?;
/// assert_eq!(*reopened.read_series(&key)?, vec![120.0, 118.0, 131.0]);
/// assert_eq!(reopened.cache_stats().misses, 1);
/// assert_eq!(reopened.read_series(&key)?.len(), 3);
/// assert_eq!(reopened.cache_stats().hits, 1);
/// # std::fs::remove_file(&path)?;
/// # Ok::<(), cm_store::StoreError>(())
/// ```
#[derive(Debug)]
pub struct Store {
    path: PathBuf,
    /// Filesystem all I/O goes through ([`RealFs`] unless injected).
    vfs: Arc<dyn Vfs>,
    /// Open handle to the committed file, if one exists.
    file: Option<Box<dyn VfsFile>>,
    chunks: BTreeMap<SeriesKey, SeriesState>,
    runs: BTreeMap<RunId, f64>,
    meta: BTreeMap<String, String>,
    /// Decoded-chunk cache — private by default, shareable across store
    /// handles (and store files) via [`Store::open_with_cache`].
    cache: Arc<BlockCache>,
    /// This store's identity inside a shared cache; derived from `path`.
    salt: u64,
    /// End of the committed bytes: the newest index record's end (or,
    /// for a version-1/2 file, the file's length). Bytes past it — a
    /// torn or failed append — are never read, and the next append
    /// overwrites them. 0 before the first commit.
    file_bytes: u64,
    /// The committed file's log state. `None` when no file exists or
    /// the file predates version 3: the next commit then compacts.
    log: Option<Log>,
    /// Runs and metadata keys changed since the last commit — the
    /// table entries the next commit's index delta carries.
    dirty_runs: BTreeSet<RunId>,
    dirty_meta: BTreeSet<String>,
    /// Bumped by every mutating call before it mutates (see
    /// [`Store::generation`]).
    generation: u64,
}

/// Where the next append commit links into a version-3 file.
#[derive(Debug, Clone, Copy)]
struct Log {
    /// Byte offset of the slot pair.
    slots_offset: u64,
    /// The slot (0 or 1) naming the newest generation; the next append
    /// overwrites the other one.
    active: usize,
    /// The newest committed generation (what the active slot holds).
    generation: u64,
    /// Offset and length of the newest index record.
    head: (u64, u64),
    /// Deltas between the newest record and the last full index.
    depth: u32,
    /// Bytes of every index record on the replay chain.
    record_bytes: u64,
}

impl Log {
    /// Where slot `which` lives.
    fn slot_offset(&self, which: usize) -> u64 {
        self.slots_offset + (which * SLOT_LEN) as u64
    }
}

impl Store {
    /// Opens (or initializes) a store at `path`, sizing the block cache
    /// from the `CM_STORE_CACHE` environment variable.
    ///
    /// A missing file yields an empty store; the file is created by the
    /// first [`Store::commit`]. A leftover temporary file from an
    /// interrupted commit is removed (the previous committed state wins).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotAStore`], [`StoreError::UnsupportedVersion`],
    /// [`StoreError::ChecksumMismatch`], [`StoreError::Truncated`], or
    /// [`StoreError::Corrupt`] for a damaged file, and [`StoreError::Io`]
    /// for filesystem failures.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(path, CacheConfig::from_env())
    }

    /// Like [`Store::open`] with an explicit cache configuration.
    ///
    /// # Errors
    ///
    /// As for [`Store::open`].
    pub fn open_with(path: impl AsRef<Path>, cache: CacheConfig) -> Result<Self, StoreError> {
        Self::open_with_vfs(path, cache, Arc::new(RealFs))
    }

    /// Like [`Store::open_with`], but with every filesystem operation
    /// routed through `vfs` — the hook fault-injection harnesses use to
    /// exercise the store's error paths (see the `cm-chaos` crate).
    ///
    /// # Errors
    ///
    /// As for [`Store::open`].
    pub fn open_with_vfs(
        path: impl AsRef<Path>,
        cache: CacheConfig,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self, StoreError> {
        Self::open_shared(path, Arc::new(BlockCache::new(cache)), vfs)
    }

    /// Opens a store whose decoded chunks live in `cache`, a
    /// [`BlockCache`] that may be shared with other store handles (of
    /// this file or of others). Entries are keyed by a per-path salt, so
    /// stores sharing one cache never collide, and committing one store
    /// only invalidates its own entries. Two handles opened on the same
    /// path share hits; the same file reached through different path
    /// spellings salts differently (an efficiency caveat, not a
    /// correctness one).
    ///
    /// This is the serving-layer entry point: N concurrent readers stop
    /// duplicating cached blocks the moment they share one `Arc`.
    ///
    /// # Errors
    ///
    /// As for [`Store::open`].
    pub fn open_with_cache(
        path: impl AsRef<Path>,
        cache: Arc<BlockCache>,
    ) -> Result<Self, StoreError> {
        Self::open_shared(path, cache, Arc::new(RealFs))
    }

    /// Like [`Store::open_with_cache`], but with every filesystem
    /// operation routed through `vfs` (see [`Store::open_with_vfs`]).
    ///
    /// # Errors
    ///
    /// As for [`Store::open`].
    pub fn open_shared(
        path: impl AsRef<Path>,
        cache: Arc<BlockCache>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let _span = cm_obs::span!("store.open");

        remove_partial_commit(&*vfs, &path)?;
        let salt = crate::cache::path_salt(&path);
        let mut store = Store {
            path,
            vfs,
            file: None,
            chunks: BTreeMap::new(),
            runs: BTreeMap::new(),
            meta: BTreeMap::new(),
            cache,
            salt,
            file_bytes: 0,
            log: None,
            dirty_runs: BTreeSet::new(),
            dirty_meta: BTreeSet::new(),
            generation: 0,
        };
        if store.vfs.exists(&store.path) {
            store.load()?;
        }
        Ok(store)
    }

    /// File this store commits to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A counter that changes whenever the store's readable contents
    /// may have: every mutating call ([`Store::append_series`],
    /// [`Store::extend_series`], [`Store::append_run`],
    /// [`Store::set_meta`], a [`Store::commit`] that writes, and
    /// [`Store::reload`]) bumps it *before* it mutates, so a call that
    /// fails or panics partway still leaves a new generation behind.
    /// Reads never change it. Two reads of one store handle that see the
    /// same generation therefore see the same contents — the key under
    /// which the serving layer shares finished analyses.
    ///
    /// # Examples
    ///
    /// ```
    /// use cm_events::{EventId, SampleMode};
    /// use cm_store::{SeriesKey, Store};
    ///
    /// let dir = std::env::temp_dir().join(format!("cm_generation_doc_{}", std::process::id()));
    /// std::fs::create_dir_all(&dir)?;
    /// let mut store = Store::open(dir.join("g.cmstore"))?;
    /// let before = store.generation();
    /// let key = SeriesKey::new("sort", 0, SampleMode::Mlpx, EventId::new(1));
    /// store.append_series(key.clone(), &[1.0])?;
    /// assert!(store.generation() > before);
    /// let staged = store.generation();
    /// store.read_series(&key)?;
    /// assert_eq!(store.generation(), staged);
    /// # Ok::<(), cm_store::StoreError>(())
    /// ```
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Drops every staged write and rereads the committed file through
    /// the store's own [`Vfs`], as a fresh [`Store::open_shared`] would,
    /// keeping the handle, its cache and its (bumped) generation. This
    /// is how a store left half-mutated by a panic mid-write returns to
    /// its last committed state, and how a handle whose commit failed
    /// learns which generation the file opens with. A store that was
    /// never committed comes back empty.
    ///
    /// # Errors
    ///
    /// As for [`Store::open`]; after an error the store holds nothing
    /// and may be reloaded again.
    pub fn reload(&mut self) -> Result<(), StoreError> {
        self.generation += 1;
        self.clear_tables();
        // A commit interrupted after its rename may have replaced the
        // file that cached offsets point into.
        self.cache.clear_salt(self.salt);
        remove_partial_commit(&*self.vfs, &self.path)?;
        if self.vfs.exists(&self.path) {
            self.load().inspect_err(|_| self.clear_tables())?;
        }
        Ok(())
    }

    /// Forgets the committed file and every series, run and metadata
    /// entry, staged or not.
    fn clear_tables(&mut self) {
        self.file = None;
        self.chunks.clear();
        self.runs.clear();
        self.meta.clear();
        self.file_bytes = 0;
        self.log = None;
        self.dirty_runs.clear();
        self.dirty_meta.clear();
    }

    fn file_name(&self) -> String {
        self.path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| self.path.display().to_string())
    }

    fn load(&mut self) -> Result<(), StoreError> {
        let name = self.file_name();
        let file = self.vfs.open(&self.path)?;
        let file_len = file.len()?;

        let mut head = vec![0u8; SUPERBLOCK_LEN.min(file_len as usize)];
        file.read_exact_at(&mut head, 0)?;
        let sb = Superblock::decode(&head, &name)?;

        if sb.version < 3 {
            // Versions 1 and 2: the header names one full index.
            let index = read_region(
                &*file,
                sb.index_offset,
                sb.index_len,
                file_len,
                "index",
                &name,
            )?;
            let mut r = IndexReader::new(&index, &name)?;
            self.apply_index(&mut r, sb.version, sb.index_offset, &name)?;
            self.file_bytes = file_len;
            self.file = Some(file);
            return Ok(());
        }

        // Version 3: the header names the slot pair; the newest valid
        // slot names the head of a chain of index records.
        if sb.index_len != 2 * SLOT_LEN as u64 {
            return Err(StoreError::Corrupt {
                file: name,
                what: format!("slot pair is {} bytes, not {}", sb.index_len, 2 * SLOT_LEN),
            });
        }
        let region = read_region(
            &*file,
            sb.index_offset,
            sb.index_len,
            file_len,
            "slot pair",
            &name,
        )?;
        let slots = [0, 1].map(|i| Slot::decode(&region[i * SLOT_LEN..]));
        let active = match slots {
            [Some(a), Some(b)] => usize::from(b.generation > a.generation),
            [Some(_), None] => 0,
            [None, Some(_)] => 1,
            [None, None] => {
                return Err(StoreError::ChecksumMismatch {
                    file: name,
                    what: "superblock slots (neither is valid)".to_string(),
                })
            }
        };
        let slot = slots[active].expect("chosen slot is valid");
        let data_start = sb.index_offset + region.len() as u64;

        // Walk back to the last full index. Each step must land
        // strictly earlier in the file with a depth one lower, so the
        // walk ends within MAX_DELTA_CHAIN + 1 reads.
        let mut records: Vec<(u64, Vec<u8>)> = Vec::new();
        let (mut offset, mut len) = (slot.record_offset, slot.record_len);
        let mut depth = None;
        loop {
            if offset < data_start {
                return Err(StoreError::Corrupt {
                    file: name,
                    what: format!("index record at {offset} precedes the slot pair"),
                });
            }
            let bytes = read_region(&*file, offset, len, file_len, "index record", &name)?;
            let (prev_offset, prev_len, this_depth) =
                record_header(&mut IndexReader::new(&bytes, &name)?)?;
            let want = depth.map_or(this_depth, |d: u32| d - 1);
            if this_depth != want || this_depth as usize > MAX_DELTA_CHAIN {
                return Err(StoreError::Corrupt {
                    file: name,
                    what: format!(
                        "index record at {offset} has depth {this_depth}, expected {want} \
                         (at most {MAX_DELTA_CHAIN})"
                    ),
                });
            }
            depth = Some(this_depth);
            records.push((offset, bytes));
            if this_depth == 0 {
                break;
            }
            if prev_offset.saturating_add(prev_len) > offset {
                return Err(StoreError::Corrupt {
                    file: name,
                    what: format!("index record at {offset} points forward to {prev_offset}"),
                });
            }
            (offset, len) = (prev_offset, prev_len);
        }

        // Replay: the full index first, then every delta in order.
        for (offset, bytes) in records.iter().rev() {
            let mut r = IndexReader::new(bytes, &name)?;
            record_header(&mut r)?;
            self.apply_index(&mut r, sb.version, *offset, &name)?;
        }
        self.file_bytes = slot.record_offset + slot.record_len;
        self.log = Some(Log {
            slots_offset: sb.index_offset,
            active,
            generation: slot.generation,
            head: (slot.record_offset, slot.record_len),
            depth: records.len() as u32 - 1,
            record_bytes: records.iter().map(|(_, b)| b.len() as u64).sum(),
        });
        self.file = Some(file);
        Ok(())
    }

    /// Applies one index body — a full index, or a version-3 delta —
    /// on top of the tables loaded so far. Every chunk it lists must
    /// lie before `limit`, the offset of the index that lists it.
    fn apply_index(
        &mut self,
        r: &mut IndexReader<'_>,
        version: u32,
        limit: u64,
        name: &str,
    ) -> Result<(), StoreError> {
        let corrupt = |what: String| StoreError::Corrupt {
            file: name.to_string(),
            what,
        };
        let n_series = r.count64("series count", SERIES_KEY_MIN)?;
        for _ in 0..n_series {
            let program = r.str16("series program")?;
            let run_index = r.u32("series run index")?;
            let mode = mode_from_tag(r.u8("series mode")?, name)?;
            let event = EventId::new(r.u64("series event")? as usize);
            // Version 1 stored exactly one chunk per series, inline;
            // version 2 prefixes each series with its chain length;
            // version 3 also says how many chunks of the series'
            // previous chain the entry keeps.
            let keep = if version >= 3 {
                r.u32("series kept chunks")? as usize
            } else {
                0
            };
            let n_chunks = if version >= 2 {
                r.count32("series chunk count", CHUNK_REF_LEN)?
            } else {
                1
            };
            let key = SeriesKey {
                program,
                run_index,
                mode,
                event,
            };
            let state = self.chunks.entry(key).or_insert(SeriesState {
                disk: Vec::new(),
                tail: None,
            });
            if keep > state.disk.len() {
                return Err(corrupt(format!(
                    "series entry keeps {keep} chunks of a {}-chunk chain",
                    state.disk.len()
                )));
            }
            state.disk.truncate(keep);
            state.disk.reserve(n_chunks);
            for _ in 0..n_chunks {
                let encoding =
                    Encoding::from_tag(r.u8("series encoding")?).map_err(|e| e.with_file(name))?;
                let count = r.u64("series value count")?;
                let offset = r.u64("series chunk offset")?;
                let len = r.u64("series chunk length")?;
                let crc = r.u32("series chunk crc")?;
                if offset.saturating_add(len) > limit {
                    return Err(corrupt(format!(
                        "chunk at {offset}+{len} overlaps the index"
                    )));
                }
                // The count sizes the decode buffer, so it must fit the
                // payload: eight bytes per raw value, at least one per
                // varint.
                let fits = match encoding {
                    Encoding::RawF64 => count.checked_mul(8) == Some(len),
                    Encoding::DeltaVarint => count <= len,
                };
                if !fits {
                    return Err(corrupt(format!(
                        "chunk at {offset} claims {count} values in {len} bytes"
                    )));
                }
                state.disk.push(ChunkRef {
                    encoding,
                    count,
                    offset,
                    len,
                    crc,
                });
            }
            if state.disk.is_empty() {
                return Err(corrupt("series with an empty chunk chain".to_string()));
            }
        }

        let n_runs = r.count64("run count", RUN_ENTRY_MIN)?;
        for _ in 0..n_runs {
            let program = r.str16("run program")?;
            let run_index = r.u32("run index")?;
            let mode = mode_from_tag(r.u8("run mode")?, name)?;
            let exec_time = r.f64("run exec time")?;
            self.runs.insert(
                RunId {
                    program,
                    run_index,
                    mode,
                },
                exec_time,
            );
        }

        let n_meta = r.count64("meta count", META_ENTRY_MIN)?;
        for _ in 0..n_meta {
            let key = r.str16("meta key")?;
            let value = r.str32("meta value")?;
            self.meta.insert(key, value);
        }
        if !r.at_end() {
            return Err(corrupt("index has trailing bytes".to_string()));
        }
        Ok(())
    }

    /// Stages one series for the next [`Store::commit`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::DuplicateSeries`] if the key is already
    /// stored or staged.
    ///
    /// # Examples
    ///
    /// ```
    /// use cm_events::{EventId, SampleMode};
    /// use cm_store::{SeriesKey, Store};
    ///
    /// let dir = std::env::temp_dir().join(format!("cm_append_doc_{}", std::process::id()));
    /// std::fs::create_dir_all(&dir)?;
    /// let mut store = Store::open(dir.join("a.cmstore"))?;
    /// let key = SeriesKey::new("sort", 0, SampleMode::Ocoe, EventId::new(1));
    /// store.append_series(key.clone(), &[1.0, 2.0])?;
    /// // Staged data is readable before the commit…
    /// assert_eq!(store.read_series(&key)?.len(), 2);
    /// // …but appending the same key twice is rejected.
    /// assert!(store.append_series(key, &[3.0]).is_err());
    /// # Ok::<(), cm_store::StoreError>(())
    /// ```
    pub fn append_series(&mut self, key: SeriesKey, values: &[f64]) -> Result<(), StoreError> {
        if self.chunks.contains_key(&key) {
            return Err(duplicate_series(&key));
        }
        self.generation += 1;
        self.chunks
            .insert(key, SeriesState::staged(values.to_vec()));
        Ok(())
    }

    /// Appends `values` to the end of a series, staging them for the
    /// next [`Store::commit`]. Unlike [`Store::append_series`] the key
    /// may already exist — committed chunks are left untouched and the
    /// new values become (or extend) the series' staged tail, which the
    /// commit writes as a fresh chunk appended to the series' chain.
    /// An unknown key is created, so `extend_series` on a fresh store
    /// behaves exactly like `append_series`.
    ///
    /// This is the streaming-ingest entry point (`cm-stream` calls it
    /// for every arriving chunk): repeated extend/commit cycles grow a
    /// bounded chunk chain that [`Store::commit`] compacts once it
    /// exceeds [`MAX_CHUNK_CHAIN`] links.
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` for parity with
    /// [`Store::append_series`] and future invariants.
    ///
    /// # Examples
    ///
    /// ```
    /// use cm_events::{EventId, SampleMode};
    /// use cm_store::{SeriesKey, Store};
    ///
    /// let dir = std::env::temp_dir().join(format!("cm_extend_doc_{}", std::process::id()));
    /// std::fs::create_dir_all(&dir)?;
    /// let path = dir.join("extend.cmstore");
    /// # let _ = std::fs::remove_file(&path);
    /// let mut store = Store::open(&path)?;
    /// let key = SeriesKey::new("wc", 0, SampleMode::Mlpx, EventId::new(1));
    /// store.extend_series(key.clone(), &[1.0, 2.0])?;
    /// store.commit()?;
    /// store.extend_series(key.clone(), &[3.0])?; // append after the committed chunk
    /// assert_eq!(*store.read_series(&key)?, vec![1.0, 2.0, 3.0]);
    /// store.commit()?;
    /// assert_eq!(*Store::open(&path)?.read_series(&key)?, vec![1.0, 2.0, 3.0]);
    /// # std::fs::remove_file(&path)?;
    /// # Ok::<(), cm_store::StoreError>(())
    /// ```
    pub fn extend_series(&mut self, key: SeriesKey, values: &[f64]) -> Result<(), StoreError> {
        self.generation += 1;
        let state = self
            .chunks
            .entry(key)
            .or_insert_with(|| SeriesState::staged(Vec::new()));
        match &mut state.tail {
            Some(tail) => Arc::make_mut(tail).extend_from_slice(values),
            None => state.tail = Some(Arc::new(values.to_vec())),
        }
        Ok(())
    }

    /// Total number of values in a series (committed + staged), without
    /// decoding anything. `None` for an unknown key.
    pub fn series_len(&self, key: &SeriesKey) -> Option<u64> {
        self.chunks.get(key).map(SeriesState::len)
    }

    /// Stages every series of a [`RunRecord`] plus its run-table entry.
    /// Every key is checked before anything is staged, so a rejected run
    /// leaves the store as it was.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::DuplicateRun`] when the run is already in the
    /// run table (even if it has no series), and
    /// [`StoreError::DuplicateSeries`] when any of its series is already
    /// stored or staged.
    pub fn append_run(&mut self, record: &RunRecord) -> Result<(), StoreError> {
        let id = RunId::new(record.program(), record.run_index(), record.mode());
        if self.runs.contains_key(&id) {
            return Err(StoreError::DuplicateRun {
                program: id.program,
                run_index: id.run_index,
            });
        }
        let key = |event| SeriesKey::new(&*id.program, id.run_index, id.mode, event);
        if let Some(event) = record.events().find(|&e| self.chunks.contains_key(&key(e))) {
            return Err(duplicate_series(&key(event)));
        }
        self.generation += 1;
        for (event, series) in record.iter() {
            self.append_series(key(event), series.values())?;
        }
        self.runs.insert(id.clone(), record.exec_time_secs());
        self.dirty_runs.insert(id);
        Ok(())
    }

    /// Sets one store-level metadata entry (persisted on commit).
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.generation += 1;
        let (key, value) = (key.into(), value.into());
        if self.meta.get(&key) != Some(&value) {
            self.meta.insert(key.clone(), value);
            self.dirty_meta.insert(key);
        }
    }

    /// Reads one store-level metadata entry.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta.get(key).map(String::as_str)
    }

    /// Recorded execution time of one run, if present in the run table.
    pub fn exec_time_secs(&self, id: &RunId) -> Option<f64> {
        self.runs.get(id).copied()
    }

    /// Whether a series is stored (committed or staged).
    pub fn contains_series(&self, key: &SeriesKey) -> bool {
        self.chunks.contains_key(key)
    }

    /// All series keys, in sorted order.
    pub fn series_keys(&self) -> impl Iterator<Item = &SeriesKey> {
        self.chunks.keys()
    }

    /// All run ids in the run table, in sorted order.
    pub fn run_ids(&self) -> impl Iterator<Item = &RunId> {
        self.runs.keys()
    }

    /// Distinct program names across stored series, sorted.
    pub fn programs(&self) -> Vec<String> {
        let mut names: Vec<String> = self.chunks.keys().map(|k| k.program.clone()).collect();
        names.dedup();
        names
    }

    /// Reads one series, consulting the block cache for committed
    /// chunks; staged series are served from memory.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::SeriesNotFound`] for an unknown key,
    /// [`StoreError::ChecksumMismatch`] when the chunk's CRC disagrees
    /// with its payload, and [`StoreError::Corrupt`] /
    /// [`StoreError::Io`] for undecodable or unreadable chunks.
    pub fn read_series(&self, key: &SeriesKey) -> Result<Arc<Vec<f64>>, StoreError> {
        let state = self
            .chunks
            .get(key)
            .ok_or_else(|| StoreError::SeriesNotFound {
                program: key.program.clone(),
                run_index: key.run_index,
                event: key.event.index(),
            })?;
        match (state.disk.as_slice(), &state.tail) {
            // Pure staged series: serve the tail directly.
            ([], Some(tail)) => Ok(tail.clone()),
            ([], None) => Ok(Arc::new(Vec::new())),
            // Single committed chunk, no tail: the zero-copy fast path.
            ([chunk], None) => self.read_chunk(chunk),
            // Chunk chain (and/or tail): concatenate in append order.
            (chunks, tail) => {
                let mut out = Vec::with_capacity(state.len() as usize);
                for chunk in chunks {
                    out.extend_from_slice(&self.read_chunk(chunk)?);
                }
                if let Some(tail) = tail {
                    out.extend_from_slice(tail);
                }
                Ok(Arc::new(out))
            }
        }
    }

    /// Reads many series in one pass: staged series and cache hits are
    /// served from memory; the remaining chunks are fetched with
    /// **coalesced region reads** (adjacent and near-adjacent chunks
    /// share one positioned read) and decoded from borrowed sub-slices
    /// of the region buffers, fanning the per-chunk CRC check + decode
    /// across the [`cm_par`] pool. Element `i` of the result pairs with
    /// `keys[i]`; duplicate keys are allowed.
    ///
    /// Results, cache contents, and the `store.decode.chunks` /
    /// `store.decode.bytes` counters are bit-identical to calling
    /// [`Store::read_series`] per key, at any thread count — only
    /// `store.decode.reads` (one per coalesced region instead of one
    /// per chunk) reflects the batching.
    ///
    /// # Errors
    ///
    /// As for [`Store::read_series`]; when several chunks are bad, the
    /// error is the one the equivalent sequential loop would have hit
    /// first.
    ///
    /// # Examples
    ///
    /// ```
    /// use cm_events::{EventId, SampleMode};
    /// use cm_store::{SeriesKey, Store};
    ///
    /// let dir = std::env::temp_dir().join(format!("cm_batch_doc_{}", std::process::id()));
    /// std::fs::create_dir_all(&dir)?;
    /// let path = dir.join("batch.cmstore");
    /// # let _ = std::fs::remove_file(&path);
    /// let mut store = Store::open(&path)?;
    /// let k1 = SeriesKey::new("wc", 0, SampleMode::Mlpx, EventId::new(1));
    /// let k2 = SeriesKey::new("wc", 0, SampleMode::Mlpx, EventId::new(2));
    /// store.append_series(k1.clone(), &[1.0, 2.0])?;
    /// store.append_series(k2.clone(), &[3.0])?;
    /// store.commit()?;
    ///
    /// let both = store.read_series_batch(&[k1, k2])?;
    /// assert_eq!(*both[0], vec![1.0, 2.0]);
    /// assert_eq!(*both[1], vec![3.0]);
    /// # std::fs::remove_file(&path)?;
    /// # Ok::<(), cm_store::StoreError>(())
    /// ```
    pub fn read_series_batch(&self, keys: &[SeriesKey]) -> Result<Vec<Arc<Vec<f64>>>, StoreError> {
        let _span = cm_obs::span!("store.decode.batch");
        // Each slot assembles from an ordered list of parts: a part is
        // either already in memory (staged tail, cache hit) or a missed
        // chunk awaiting decode.
        enum Part {
            Mem(Arc<Vec<f64>>),
            Miss(usize),
        }
        let mut parts: Vec<Vec<Part>> = Vec::with_capacity(keys.len());
        // One entry per *distinct* missed chunk, in first-occurrence
        // (key) order — duplicate keys (and shared chunks) decode once,
        // exactly as the second of two sequential reads would hit the
        // cache the first one populated.
        let mut misses: Vec<ChunkRef> = Vec::new();
        let mut miss_index: BTreeMap<u64, usize> = BTreeMap::new();
        for key in keys {
            let state = self
                .chunks
                .get(key)
                .ok_or_else(|| StoreError::SeriesNotFound {
                    program: key.program.clone(),
                    run_index: key.run_index,
                    event: key.event.index(),
                })?;
            let mut slot_parts =
                Vec::with_capacity(state.disk.len() + usize::from(state.has_tail()));
            for chunk in &state.disk {
                match self.cache.get(self.salt, chunk.offset) {
                    Some(values) => slot_parts.push(Part::Mem(values)),
                    None => {
                        let m = *miss_index.entry(chunk.offset).or_insert_with(|| {
                            misses.push(*chunk);
                            misses.len() - 1
                        });
                        slot_parts.push(Part::Miss(m));
                    }
                }
            }
            if let Some(tail) = &state.tail {
                slot_parts.push(Part::Mem(tail.clone()));
            }
            parts.push(slot_parts);
        }

        let mut decoded_arcs: Vec<Arc<Vec<f64>>> = Vec::with_capacity(misses.len());
        if !misses.is_empty() {
            let name = self.file_name();
            let file = self.file.as_ref().ok_or_else(|| StoreError::Corrupt {
                file: name.clone(),
                what: "index references a chunk but no file is committed".to_string(),
            })?;

            // Coalesce the missed chunks (sorted by file offset) into
            // contiguous read regions: neighbors within MAX_COALESCE_GAP
            // bytes share one positioned read, so a run-sized batch of
            // adjacent chunks costs one or two syscalls instead of one
            // per chunk. Which regions form depends only on the chunk
            // layout, never on thread scheduling.
            struct Region {
                start: u64,
                len: usize,
            }
            const MAX_COALESCE_GAP: u64 = 4096;
            // Regions are also capped so one batch never allocates a
            // buffer proportional to the whole file (a run-sized batch
            // over adjacent chunks would otherwise coalesce into a
            // single file-length region), and region buffers stay small
            // enough for the allocator to recycle instead of mapping
            // fresh pages per read.
            const MAX_REGION_BYTES: u64 = 1 << 16;
            let mut order: Vec<usize> = (0..misses.len()).collect();
            order.sort_by_key(|&k| misses[k].offset);
            let mut regions: Vec<Region> = Vec::new();
            // Region each miss decodes from, indexed like `misses`.
            let mut region_of = vec![0usize; misses.len()];
            for &k in &order {
                let c = &misses[k];
                let end = c.offset + c.len;
                match regions.last_mut() {
                    Some(r)
                        if c.offset <= r.start + r.len as u64 + MAX_COALESCE_GAP
                            && end - r.start <= MAX_REGION_BYTES =>
                    {
                        r.len = (end.max(r.start + r.len as u64) - r.start) as usize;
                    }
                    _ => regions.push(Region {
                        start: c.offset,
                        len: c.len as usize,
                    }),
                }
                region_of[k] = regions.len() - 1;
            }

            let mut buffers: Vec<Vec<u8>> = Vec::with_capacity(regions.len());
            for r in &regions {
                let mut buf = vec![0u8; r.len];
                file.read_exact_at(&mut buf, r.start)?;
                cm_obs::counter_add("store.decode.reads", 1);
                buffers.push(buf);
            }

            // Checksum + decode every missed chunk from a borrowed slice
            // of its region buffer — no per-chunk payload copy. The fan
            // out is order-preserving, and errors are surfaced in miss
            // order, so failures match the sequential loop exactly.
            let decoded = cm_par::map_range(misses.len(), |k| -> Result<Vec<f64>, StoreError> {
                let chunk = &misses[k];
                let region = &regions[region_of[k]];
                let rel = (chunk.offset - region.start) as usize;
                let payload = &buffers[region_of[k]][rel..rel + chunk.len as usize];
                if codec::crc32(payload) != chunk.crc {
                    return Err(StoreError::ChecksumMismatch {
                        file: name.clone(),
                        what: format!("chunk at offset {}", chunk.offset),
                    });
                }
                codec::decode_chunk(chunk.encoding, payload, chunk.count as usize)
                    .map_err(|e| e.with_file(&name))
            });

            for (chunk, values) in misses.iter().zip(decoded) {
                let values = Arc::new(values?);
                // Insert in first-occurrence key order so the cache's
                // eviction sequence matches sequential reads, and count
                // per chunk so even an error-truncated batch leaves the
                // counters exactly where the sequential loop would.
                self.cache.insert(self.salt, chunk.offset, values.clone());
                cm_obs::counter_add("store.decode.chunks", 1);
                cm_obs::counter_add("store.decode.bytes", chunk.len);
                decoded_arcs.push(values);
            }
        }

        // Assemble each slot from its parts. Single-part slots (the
        // common case: one committed chunk, or a pure staged series)
        // stay zero-copy; chained series concatenate.
        Ok(parts
            .into_iter()
            .map(|slot_parts| {
                let resolve = |p: &Part| -> Arc<Vec<f64>> {
                    match p {
                        Part::Mem(v) => v.clone(),
                        Part::Miss(m) => decoded_arcs[*m].clone(),
                    }
                };
                match slot_parts.as_slice() {
                    [] => Arc::new(Vec::new()),
                    [one] => resolve(one),
                    many => {
                        let total: usize = many.iter().map(|p| resolve(p).len()).sum();
                        let mut joined = Vec::with_capacity(total);
                        for p in many {
                            joined.extend_from_slice(&resolve(p));
                        }
                        Arc::new(joined)
                    }
                }
            })
            .collect())
    }

    /// Reads one series into a [`TimeSeries`] (cloning out of the cache).
    ///
    /// # Errors
    ///
    /// As for [`Store::read_series`].
    pub fn read_series_ts(&self, key: &SeriesKey) -> Result<TimeSeries, StoreError> {
        Ok(TimeSeries::from_values(self.read_series(key)?.to_vec()))
    }

    /// Reassembles a full [`RunRecord`] from the store.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::SeriesNotFound`] when the run is neither in
    /// the run table nor has any series, otherwise as for
    /// [`Store::read_series`].
    pub fn read_run(&self, id: &RunId) -> Result<RunRecord, StoreError> {
        let mut record = RunRecord::new(id.program.clone(), id.run_index, id.mode);
        if let Some(secs) = self.exec_time_secs(id) {
            record.set_exec_time_secs(secs);
        }
        let keys: Vec<SeriesKey> = self
            .chunks
            .range(SeriesKey::new(id.program.clone(), id.run_index, id.mode, EventId::new(0))..)
            .take_while(|(k, _)| {
                k.program == id.program && k.run_index == id.run_index && k.mode == id.mode
            })
            .map(|(k, _)| k.clone())
            .collect();
        if keys.is_empty() && !self.runs.contains_key(id) {
            return Err(StoreError::SeriesNotFound {
                program: id.program.clone(),
                run_index: id.run_index,
                event: 0,
            });
        }
        // One batched read: the run's chunks are adjacent on disk (the
        // index is key-sorted), so this coalesces into a handful of
        // region reads and decodes them in parallel.
        let values = self.read_series_batch(&keys)?;
        for (key, values) in keys.into_iter().zip(values) {
            record.insert_series(key.event, TimeSeries::from_values(values.to_vec()));
        }
        Ok(record)
    }

    fn read_chunk(&self, chunk: &ChunkRef) -> Result<Arc<Vec<f64>>, StoreError> {
        if let Some(values) = self.cache.get(self.salt, chunk.offset) {
            return Ok(values);
        }
        let name = self.file_name();
        let file = self.file.as_ref().ok_or_else(|| StoreError::Corrupt {
            file: name.clone(),
            what: "index references a chunk but no file is committed".to_string(),
        })?;
        let mut payload = vec![0u8; chunk.len as usize];
        file.read_exact_at(&mut payload, chunk.offset)?;
        cm_obs::counter_add("store.decode.reads", 1);
        if codec::crc32(&payload) != chunk.crc {
            return Err(StoreError::ChecksumMismatch {
                file: name,
                what: format!("chunk at offset {}", chunk.offset),
            });
        }
        let values = Arc::new(
            codec::decode_chunk(chunk.encoding, &payload, chunk.count as usize)
                .map_err(|e| e.with_file(&name))?,
        );
        cm_obs::counter_add("store.decode.chunks", 1);
        cm_obs::counter_add("store.decode.bytes", chunk.len);
        self.cache.insert(self.salt, chunk.offset, values.clone());
        Ok(values)
    }

    /// Number of stored series (committed + staged).
    pub fn series_count(&self) -> usize {
        self.chunks.len()
    }

    /// Whether any staged writes await a [`Store::commit`].
    pub fn has_staged(&self) -> bool {
        self.chunks.values().any(SeriesState::has_tail)
    }

    /// Block-cache counters for this store.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Aggregate store facts (version, chunk counts, sizes).
    pub fn info(&self) -> StoreInfo {
        let mut staged = 0;
        let mut chained_series = 0;
        let mut total_values = 0u64;
        let mut delta_chunks = 0;
        let mut raw_chunks = 0;
        for state in self.chunks.values() {
            if state.has_tail() {
                staged += 1;
            }
            if state.disk.len() > 1 {
                chained_series += 1;
            }
            total_values += state.len();
            for c in &state.disk {
                match c.encoding {
                    Encoding::DeltaVarint => delta_chunks += 1,
                    Encoding::RawF64 => raw_chunks += 1,
                }
            }
        }
        StoreInfo {
            version: VERSION,
            series: self.chunks.len(),
            staged,
            runs: self.runs.len(),
            meta_entries: self.meta.len(),
            chained_series,
            total_values,
            file_bytes: self.file_bytes,
            delta_chunks,
            raw_chunks,
        }
    }

    /// Reads and CRC-verifies one committed chunk's raw payload bytes
    /// (no decode) — the byte-copy path compaction uses to carry
    /// unchanged chunks into the new file.
    fn read_committed_payload(&self, chunk: &ChunkRef) -> Result<Vec<u8>, StoreError> {
        let file = self.file.as_ref().ok_or_else(|| StoreError::Corrupt {
            file: self.file_name(),
            what: "committed chunk without a committed file".to_string(),
        })?;
        let mut payload = vec![0u8; chunk.len as usize];
        file.read_exact_at(&mut payload, chunk.offset)?;
        if codec::crc32(&payload) != chunk.crc {
            return Err(StoreError::ChecksumMismatch {
                file: self.file_name(),
                what: format!("chunk at offset {} during commit", chunk.offset),
            });
        }
        Ok(payload)
    }

    /// Makes every staged write durable.
    ///
    /// A commit to a version-3 file writes only new bytes: it appends
    /// each staged tail as a fresh chunk, then an index delta holding
    /// the changed series' chain entries and the changed run-table and
    /// metadata entries, fsyncs, overwrites the older of the file's two
    /// superblock slots to name the delta, and fsyncs again. Committed
    /// chunks are neither read nor copied, so their cached decodes stay
    /// valid.
    ///
    /// The commit *compacts* instead — writes the complete next file,
    /// with one full index, under a temporary name, fsyncs it and
    /// renames it over the store path — when no file exists yet, the
    /// file predates version 3, the delta chain would exceed
    /// [`MAX_DELTA_CHAIN`], dead bytes exceed [`MAX_DEAD_PER_LIVE`]
    /// times the live ones, or the slots no longer name this handle's
    /// newest generation (another handle committed to the file, or a
    /// failed commit's slot write landed).
    ///
    /// A series whose chain would exceed [`MAX_CHUNK_CHAIN`] links is
    /// compacted on its own either way: its committed chunks and staged
    /// tail are decoded, concatenated, and re-encoded as a single
    /// chunk, so streamed appends cannot degrade reads indefinitely.
    ///
    /// A no-op when nothing is staged and the file already exists.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure. On any error
    /// the handle keeps its staged writes and reads at the previously
    /// committed generation, and a fresh open finds either that
    /// generation or the new one.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        if !self.has_staged() && !self.tables_dirty() && self.file.is_some() {
            return Ok(());
        }
        self.generation += 1;
        let _span = cm_obs::span!("store.commit");
        if let Some(log) = self.log.filter(|log| !self.needs_compaction(log)) {
            match self.vfs.open_rw(&self.path) {
                Ok(mut f) if slots_name(&*f, &log)? => return self.append_commit(log, &mut *f),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.compact()
    }

    fn tables_dirty(&self) -> bool {
        !self.dirty_runs.is_empty() || !self.dirty_meta.is_empty()
    }

    /// Whether the delta chain is full or dead bytes outweigh the live
    /// ones (committed chunks, replayed index records, header, slots).
    fn needs_compaction(&self, log: &Log) -> bool {
        let chunk_bytes: u64 = self
            .chunks
            .values()
            .flat_map(|state| &state.disk)
            .map(|c| c.len)
            .sum();
        let live = (SUPERBLOCK_LEN + 2 * SLOT_LEN) as u64 + chunk_bytes + log.record_bytes;
        log.depth as usize >= MAX_DELTA_CHAIN
            || self.file_bytes.saturating_sub(live) > live.saturating_mul(MAX_DEAD_PER_LIVE)
    }

    /// The new chunk a series commits with, if it has a staged tail,
    /// and how many of its committed chunks the chain keeps before it:
    /// all of them, or none when the chain would exceed
    /// [`MAX_CHUNK_CHAIN`] and the series is re-encoded as one chunk.
    fn staged_chunk(
        &self,
        state: &SeriesState,
    ) -> Result<Option<(usize, EncodedChunk)>, StoreError> {
        let Some(tail) = &state.tail else {
            return Ok(None);
        };
        if state.disk.len() < MAX_CHUNK_CHAIN {
            let (encoding, payload) = codec::encode_chunk(tail);
            return Ok(Some((
                state.disk.len(),
                (encoding, tail.len() as u64, payload),
            )));
        }
        let mut values = Vec::with_capacity(state.len() as usize);
        for chunk in &state.disk {
            values.extend_from_slice(&self.read_chunk(chunk)?);
        }
        values.extend_from_slice(tail);
        let (encoding, payload) = codec::encode_chunk(&values);
        cm_obs::counter_add("store.compactions", 1);
        Ok(Some((0, (encoding, values.len() as u64, payload))))
    }

    /// The append commit: new chunks and an index delta at the end of
    /// the committed bytes, then the older slot.
    fn append_commit(&mut self, log: Log, f: &mut dyn VfsFile) -> Result<(), StoreError> {
        // New chunks go out in batches of about WRITE_BATCH bytes, so a
        // commit never buffers all of its payloads at once. `at` is
        // where `pending` starts in the file.
        const WRITE_BATCH: usize = 1 << 16;
        let start = self.file_bytes;
        let (mut at, mut pending) = (start, Vec::new());
        let mut changed: Vec<(SeriesKey, usize, ChunkRef)> = Vec::new();
        for (key, state) in &self.chunks {
            let Some((keep, (encoding, count, payload))) = self.staged_chunk(state)? else {
                continue;
            };
            let chunk = ChunkRef {
                encoding,
                count,
                offset: at + pending.len() as u64,
                len: payload.len() as u64,
                crc: codec::crc32(&payload),
            };
            pending.extend_from_slice(&payload);
            changed.push((key.clone(), keep, chunk));
            if pending.len() >= WRITE_BATCH {
                f.write_all_at(&pending, at)?;
                at += pending.len() as u64;
                pending.clear();
            }
        }

        let record_offset = at + pending.len() as u64;
        let mut w = IndexWriter::new();
        w.u64(log.head.0);
        w.u64(log.head.1);
        w.u32(log.depth + 1);
        w.u64(changed.len() as u64);
        for (key, keep, chunk) in &changed {
            write_series_entry(&mut w, key, *keep, std::slice::from_ref(chunk));
        }
        self.write_tables(&mut w, self.dirty_runs.iter(), self.dirty_meta.iter());
        let record = w.finish();
        pending.extend_from_slice(&record);
        let slot = Slot {
            generation: log.generation + 1,
            record_offset,
            record_len: record.len() as u64,
        };
        let flip = 1 - log.active;

        // The slot names the delta only once the delta is durable. If
        // any write fails, the handle's tables are untouched; a slot
        // left naming the new generation makes the next commit compact
        // (see `slots_name`).
        f.write_all_at(&pending, at)?;
        f.sync_all()?;
        f.write_all_at(&slot.encode(), log.slot_offset(flip))?;
        f.sync_all()?;

        let appended = record_offset + slot.record_len - start;
        cm_obs::counter_add("store.commits", 1);
        cm_obs::counter_add("store.chunks_written", changed.len() as u64);
        cm_obs::counter_add("store.bytes_written", appended + SLOT_LEN as u64);

        // Committed chunks keep their offsets, so the cache stays warm;
        // only the chunks a re-encoded series dropped leave it.
        for (key, keep, chunk) in changed {
            let state = self.chunks.get_mut(&key).expect("changed series exists");
            for dead in &state.disk[keep..] {
                self.cache.remove(self.salt, dead.offset);
            }
            state.disk.truncate(keep);
            state.disk.push(chunk);
            state.tail = None;
        }
        self.file_bytes = record_offset + slot.record_len;
        self.log = Some(Log {
            active: flip,
            generation: slot.generation,
            head: (record_offset, slot.record_len),
            depth: log.depth + 1,
            record_bytes: log.record_bytes + slot.record_len,
            ..log
        });
        self.dirty_runs.clear();
        self.dirty_meta.clear();
        Ok(())
    }

    /// Appends the run-table and metadata entries named by `runs` and
    /// `meta` to an index body.
    fn write_tables<'k>(
        &self,
        w: &mut IndexWriter,
        runs: impl ExactSizeIterator<Item = &'k RunId>,
        meta: impl ExactSizeIterator<Item = &'k String>,
    ) {
        w.u64(runs.len() as u64);
        for id in runs {
            w.str16(&id.program);
            w.u32(id.run_index);
            w.u8(mode_tag(id.mode));
            w.f64(self.runs[id]);
        }
        w.u64(meta.len() as u64);
        for key in meta {
            w.str16(key);
            w.str32(&self.meta[key]);
        }
    }

    /// The compaction commit: writes the whole next file — header,
    /// every chunk (committed ones byte-copied and CRC-verified, staged
    /// tails encoded), the slot pair and one full index — under a
    /// temporary name, fsyncs it, and renames it over the store path.
    fn compact(&mut self) -> Result<(), StoreError> {
        // Plan each series' next chain, in key order: the committed
        // chunks it keeps, then its new chunk.
        let mut plans: Vec<(&SeriesKey, &[ChunkRef], Option<EncodedChunk>)> =
            Vec::with_capacity(self.chunks.len());
        for (key, state) in &self.chunks {
            let (keep, fresh) = match self.staged_chunk(state)? {
                Some((keep, chunk)) => (keep, Some(chunk)),
                None => (state.disk.len(), None),
            };
            plans.push((key, &state.disk[..keep], fresh));
        }

        // Lay the file out: header, chunks, slot pair, full index.
        let mut refs: Vec<Vec<ChunkRef>> = Vec::with_capacity(plans.len());
        let mut offset = SUPERBLOCK_LEN as u64;
        for (_, kept, fresh) in &plans {
            let mut chain = Vec::with_capacity(kept.len() + 1);
            for chunk in *kept {
                chain.push(ChunkRef { offset, ..*chunk });
                offset += chunk.len;
            }
            if let Some((encoding, count, payload)) = fresh {
                chain.push(ChunkRef {
                    encoding: *encoding,
                    count: *count,
                    offset,
                    len: payload.len() as u64,
                    crc: codec::crc32(payload),
                });
                offset += payload.len() as u64;
            }
            refs.push(chain);
        }
        let slots_offset = offset;
        let record_offset = slots_offset + 2 * SLOT_LEN as u64;

        // No previous record: a full index, at depth 0.
        let mut w = IndexWriter::new();
        w.u64(0);
        w.u64(0);
        w.u32(0);
        w.u64(plans.len() as u64);
        for ((key, _, _), chain) in plans.iter().zip(&refs) {
            write_series_entry(&mut w, key, 0, chain);
        }
        self.write_tables(&mut w, self.runs.keys(), self.meta.keys());
        let record = w.finish();
        let header = Superblock {
            version: VERSION,
            index_offset: slots_offset,
            index_len: 2 * SLOT_LEN as u64,
        };
        let slot = Slot {
            generation: self.log.map_or(0, |log| log.generation) + 1,
            record_offset,
            record_len: record.len() as u64,
        };

        // Write, fsync, rename: atomic replacement of the store file.
        // Kept chunks are copied one at a time, so the commit never
        // holds the whole file's payloads in memory.
        let tmp = tmp_path(&self.path);
        {
            let mut f = self.vfs.create(&tmp)?;
            f.write_all(&header.encode())?;
            for (_, kept, fresh) in &plans {
                for chunk in *kept {
                    f.write_all(&self.read_committed_payload(chunk)?)?;
                }
                if let Some((_, _, payload)) = fresh {
                    f.write_all(payload)?;
                }
            }
            let mut slots = [0u8; 2 * SLOT_LEN];
            slots[..SLOT_LEN].copy_from_slice(&slot.encode());
            f.write_all(&slots)?;
            f.write_all(&record)?;
            f.sync_all()?;
        }
        self.vfs.rename(&tmp, &self.path)?;

        let total_bytes = record_offset + record.len() as u64;
        let fresh_chunks = plans.iter().filter(|(_, _, fresh)| fresh.is_some()).count();
        cm_obs::counter_add("store.commits", 1);
        cm_obs::counter_add("store.chunks_written", fresh_chunks as u64);
        cm_obs::counter_add("store.bytes_written", total_bytes);

        // Swap in the new file: every offset changed, so committed
        // chunk refs are rebuilt and this store's cache entries are
        // invalidated (other stores sharing the cache keep theirs).
        let keys: Vec<SeriesKey> = plans.into_iter().map(|(key, _, _)| key.clone()).collect();
        self.file = Some(self.vfs.open(&self.path)?);
        self.file_bytes = total_bytes;
        self.cache.clear_salt(self.salt);
        for (key, chain) in keys.into_iter().zip(refs) {
            self.chunks.insert(
                key,
                SeriesState {
                    disk: chain,
                    tail: None,
                },
            );
        }
        self.log = Some(Log {
            slots_offset,
            active: 0,
            generation: slot.generation,
            head: (record_offset, slot.record_len),
            depth: 0,
            record_bytes: slot.record_len,
        });
        self.dirty_runs.clear();
        self.dirty_meta.clear();
        Ok(())
    }
}

/// Whether the slots of the file behind `f` still name `log`'s newest
/// generation. They do not when another handle has committed to (or
/// replaced) the file since this one loaded it, or a slot write was
/// silently lost; appending after `log`'s newest record could then
/// overwrite bytes a slot names, so the commit compacts instead.
fn slots_name(f: &dyn VfsFile, log: &Log) -> Result<bool, StoreError> {
    let mut slots = [0u8; 2 * SLOT_LEN];
    if f.len()? < log.slots_offset + slots.len() as u64 {
        return Ok(false);
    }
    f.read_exact_at(&mut slots, log.slots_offset)?;
    let on_disk = [0, 1].map(|i| Slot::decode(&slots[i * SLOT_LEN..]));
    let ours = Slot {
        generation: log.generation,
        record_offset: log.head.0,
        record_len: log.head.1,
    };
    let newer = on_disk[1 - log.active].is_some_and(|other| other.generation > log.generation);
    Ok(on_disk[log.active] == Some(ours) && !newer)
}

/// Reads a version-3 index record's header: the previous record's
/// offset and length, and the record's depth.
fn record_header(r: &mut IndexReader<'_>) -> Result<(u64, u64, u32), StoreError> {
    Ok((
        r.u64("record back-pointer")?,
        r.u64("record back-pointer")?,
        r.u32("record depth")?,
    ))
}

/// Appends one version-3 series entry: the key, how many chunks of the
/// series' previous chain it keeps, and the chunks that follow them.
fn write_series_entry(w: &mut IndexWriter, key: &SeriesKey, keep: usize, chunks: &[ChunkRef]) {
    w.str16(&key.program);
    w.u32(key.run_index);
    w.u8(mode_tag(key.mode));
    w.u64(key.event.index() as u64);
    w.u32(keep as u32);
    w.u32(chunks.len() as u32);
    for chunk in chunks {
        w.u8(chunk.encoding.tag());
        w.u64(chunk.count);
        w.u64(chunk.offset);
        w.u64(chunk.len);
        w.u32(chunk.crc);
    }
}

/// Reads `len` bytes at `offset`, or reports the file as truncated when
/// they do not fit inside its `file_len` bytes.
fn read_region(
    file: &dyn VfsFile,
    offset: u64,
    len: u64,
    file_len: u64,
    what: &str,
    name: &str,
) -> Result<Vec<u8>, StoreError> {
    if offset.checked_add(len).is_none_or(|end| end > file_len) {
        return Err(StoreError::Truncated {
            file: name.to_string(),
            what: format!(
                "{what} claims bytes {offset}..{} but the file holds {file_len}",
                offset.saturating_add(len)
            ),
        });
    }
    let mut buf = vec![0u8; len as usize];
    file.read_exact_at(&mut buf, offset)?;
    Ok(buf)
}

fn duplicate_series(key: &SeriesKey) -> StoreError {
    StoreError::DuplicateSeries {
        program: key.program.clone(),
        run_index: key.run_index,
        event: key.event.index(),
    }
}

/// Partial-write recovery: an interrupted commit can only leave a
/// temporary file behind; the committed store is still intact.
fn remove_partial_commit(vfs: &dyn Vfs, path: &Path) -> Result<(), StoreError> {
    let tmp = tmp_path(path);
    if vfs.exists(&tmp) {
        vfs.remove(&tmp)?;
        cm_obs::counter_add("store.recovered_partial", 1);
    }
    Ok(())
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(TMP_SUFFIX);
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cm_columnar_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("test.cmstore")
    }

    fn key(program: &str, run: u32, event: usize) -> SeriesKey {
        SeriesKey::new(program, run, SampleMode::Mlpx, EventId::new(event))
    }

    #[test]
    fn stage_commit_reopen_round_trip() {
        let path = temp_store("roundtrip");
        let mut store = Store::open(&path).unwrap();
        store
            .append_series(key("wc", 0, 1), &[1.0, 2.0, 3.0])
            .unwrap();
        store
            .append_series(key("wc", 0, 2), &[0.5, f64::NAN, -7.25])
            .unwrap();
        store.set_meta("fingerprint", "abc123");
        store.commit().unwrap();

        let reopened = Store::open(&path).unwrap();
        assert_eq!(reopened.series_count(), 2);
        assert_eq!(
            *reopened.read_series(&key("wc", 0, 1)).unwrap(),
            vec![1.0, 2.0, 3.0]
        );
        let nan_chunk = reopened.read_series(&key("wc", 0, 2)).unwrap();
        assert_eq!(nan_chunk[0], 0.5);
        assert!(nan_chunk[1].is_nan());
        assert_eq!(reopened.meta("fingerprint"), Some("abc123"));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_run_round_trips_records() {
        let path = temp_store("runs");
        let mut record = RunRecord::new("sort", 3, SampleMode::Ocoe);
        record.set_exec_time_secs(12.75);
        record.insert_series(EventId::new(5), TimeSeries::from_values(vec![10.0, 20.0]));
        record.insert_series(EventId::new(9), TimeSeries::from_values(vec![]));

        let mut store = Store::open(&path).unwrap();
        store.append_run(&record).unwrap();
        store.commit().unwrap();

        let reopened = Store::open(&path).unwrap();
        let id = RunId::new("sort", 3, SampleMode::Ocoe);
        let got = reopened.read_run(&id).unwrap();
        assert_eq!(got.exec_time_secs(), 12.75);
        assert_eq!(got.event_count(), 2);
        assert_eq!(got.series(EventId::new(5)).unwrap().values(), &[10.0, 20.0]);
        assert!(got.series(EventId::new(9)).unwrap().is_empty());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn generation_moves_with_every_mutation_and_never_with_a_read() {
        let path = temp_store("generation");
        let mut store = Store::open(&path).unwrap();
        let mut last = store.generation();
        let mut bumped = |store: &Store, what: &str| {
            assert!(store.generation() > last, "{what} must bump the generation");
            last = store.generation();
        };

        store.append_series(key("wc", 0, 1), &[1.0, 2.0]).unwrap();
        bumped(&store, "append_series");
        store.extend_series(key("wc", 0, 1), &[3.0]).unwrap();
        bumped(&store, "extend_series");
        let mut record = RunRecord::new("sort", 0, SampleMode::Mlpx);
        record.set_exec_time_secs(1.5);
        record.insert_series(EventId::new(4), TimeSeries::from_values(vec![7.0]));
        store.append_run(&record).unwrap();
        bumped(&store, "append_run");
        store.set_meta("origin", "generation-test");
        bumped(&store, "set_meta");
        store.commit().unwrap();
        bumped(&store, "a commit that writes");

        // Reads and a commit with nothing staged leave the generation
        // and what reads see as they were.
        let committed = store.generation();
        let keys = [key("wc", 0, 1), key("sort", 0, 4)];
        let series = store.read_series(&keys[0]).unwrap();
        assert_eq!(store.read_series_batch(&keys).unwrap()[0], series);
        let run = store
            .read_run(&RunId::new("sort", 0, SampleMode::Mlpx))
            .unwrap();
        let info = store.info();
        store.commit().unwrap();
        assert_eq!(store.generation(), committed);
        assert_eq!(store.read_series(&keys[0]).unwrap(), series);
        assert_eq!(
            store
                .read_run(&RunId::new("sort", 0, SampleMode::Mlpx))
                .unwrap()
                .exec_time_secs(),
            run.exec_time_secs()
        );
        assert_eq!(store.info(), info);

        // Reload drops staged writes, restores the committed contents
        // and moves the generation on.
        store.append_series(key("wc", 1, 1), &[9.0]).unwrap();
        store.set_meta("origin", "staged");
        let staged = store.generation();
        store.reload().unwrap();
        assert!(
            store.generation() > staged,
            "reload must bump the generation"
        );
        assert_eq!(store.info(), info);
        assert_eq!(store.meta("origin"), Some("generation-test"));
        assert_eq!(store.read_series(&keys[0]).unwrap(), series);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_series_rejected() {
        let path = temp_store("dup");
        let mut store = Store::open(&path).unwrap();
        store.append_series(key("a", 0, 1), &[1.0]).unwrap();
        let err = store.append_series(key("a", 0, 1), &[2.0]).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateSeries { .. }));
        // Committed keys are protected too.
        store.commit().unwrap();
        assert!(store.append_series(key("a", 0, 1), &[2.0]).is_err());
        fs::remove_file(&path).unwrap();
    }

    /// A run with no series is still a run: appending it twice is a
    /// typed error, before and after a commit, and it reads back empty.
    #[test]
    fn duplicate_run_rejected_even_without_series() {
        let path = temp_store("dup_run");
        let mut store = Store::open(&path).unwrap();
        let empty = RunRecord::new("idle", 2, SampleMode::Ocoe);
        store.append_run(&empty).unwrap();
        assert!(matches!(
            store.append_run(&empty).unwrap_err(),
            StoreError::DuplicateRun { .. }
        ));
        store.commit().unwrap();

        let mut reopened = Store::open(&path).unwrap();
        assert!(matches!(
            reopened.append_run(&empty).unwrap_err(),
            StoreError::DuplicateRun { .. }
        ));
        let got = reopened
            .read_run(&RunId::new("idle", 2, SampleMode::Ocoe))
            .unwrap();
        assert_eq!(got.event_count(), 0);
        fs::remove_file(&path).unwrap();
    }

    /// A run that collides on its second event stages nothing: neither
    /// its first event nor its run-table entry.
    #[test]
    fn colliding_run_stages_nothing() {
        let path = temp_store("partial");
        let mut store = Store::open(&path).unwrap();
        store.append_series(key("wc", 0, 9), &[1.0]).unwrap();
        let mut record = RunRecord::new("wc", 0, SampleMode::Mlpx);
        record.insert_series(EventId::new(1), TimeSeries::from_values(vec![2.0]));
        record.insert_series(EventId::new(9), TimeSeries::from_values(vec![3.0]));
        assert!(matches!(
            store.append_run(&record).unwrap_err(),
            StoreError::DuplicateSeries { event: 9, .. }
        ));
        assert!(!store.contains_series(&key("wc", 0, 1)));
        assert_eq!(store.series_count(), 1);
        assert_eq!(store.run_ids().count(), 0);
    }

    #[test]
    fn incremental_append_preserves_committed_chunks() {
        let path = temp_store("incremental");
        let mut store = Store::open(&path).unwrap();
        store.append_series(key("a", 0, 1), &[1.0, 2.0]).unwrap();
        store.commit().unwrap();

        // Second session appends more without re-encoding the old chunk.
        let mut store = Store::open(&path).unwrap();
        store.append_series(key("a", 1, 1), &[3.0, 4.0]).unwrap();
        store.commit().unwrap();

        let reopened = Store::open(&path).unwrap();
        assert_eq!(
            *reopened.read_series(&key("a", 0, 1)).unwrap(),
            vec![1.0, 2.0]
        );
        assert_eq!(
            *reopened.read_series(&key("a", 1, 1)).unwrap(),
            vec![3.0, 4.0]
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn staged_series_readable_before_commit() {
        let path = temp_store("staged");
        let mut store = Store::open(&path).unwrap();
        store.append_series(key("a", 0, 7), &[5.0]).unwrap();
        assert!(store.has_staged());
        assert_eq!(*store.read_series(&key("a", 0, 7)).unwrap(), vec![5.0]);
        assert!(!path.exists(), "nothing durable before commit");
    }

    #[test]
    fn missing_series_is_typed() {
        let path = temp_store("missing");
        let store = Store::open(&path).unwrap();
        assert!(matches!(
            store.read_series(&key("nope", 0, 0)).unwrap_err(),
            StoreError::SeriesNotFound { .. }
        ));
    }

    #[test]
    fn info_reports_encodings_and_sizes() {
        let path = temp_store("info");
        let mut store = Store::open(&path).unwrap();
        store.append_series(key("a", 0, 1), &[1.0, 2.0]).unwrap(); // integral -> delta
        store.append_series(key("a", 0, 2), &[1.5, 2.5]).unwrap(); // fractional -> raw
        store.commit().unwrap();
        let info = store.info();
        assert_eq!(info.version, VERSION);
        assert_eq!(info.series, 2);
        assert_eq!(info.staged, 0);
        assert_eq!(info.total_values, 4);
        assert_eq!(info.delta_chunks, 1);
        assert_eq!(info.raw_chunks, 1);
        assert!(info.file_bytes > SUPERBLOCK_LEN as u64);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn extend_series_chains_chunks_across_commits() {
        let path = temp_store("chain");
        let mut store = Store::open(&path).unwrap();
        store.extend_series(key("a", 0, 1), &[1.0, 2.0]).unwrap();
        store.commit().unwrap();
        store.extend_series(key("a", 0, 1), &[3.0]).unwrap();
        // Staged tail is readable before the commit, after the chunk.
        assert_eq!(
            *store.read_series(&key("a", 0, 1)).unwrap(),
            vec![1.0, 2.0, 3.0]
        );
        assert_eq!(store.series_len(&key("a", 0, 1)), Some(3));
        store.commit().unwrap();
        assert_eq!(store.info().chained_series, 1);

        // Reopen: the chain persists and reads concatenated, both via
        // the single-key path and the batched path.
        let reopened = Store::open(&path).unwrap();
        assert_eq!(reopened.info().chained_series, 1);
        assert_eq!(
            *reopened.read_series(&key("a", 0, 1)).unwrap(),
            vec![1.0, 2.0, 3.0]
        );
        let batch = reopened.read_series_batch(&[key("a", 0, 1)]).unwrap();
        assert_eq!(*batch[0], vec![1.0, 2.0, 3.0]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn long_chains_are_compacted_on_commit() {
        let path = temp_store("compact");
        let mut store = Store::open(&path).unwrap();
        let mut expect = Vec::new();
        // One value per commit: chain grows 1, 2, ... and must compact
        // once it would exceed MAX_CHUNK_CHAIN.
        for i in 0..(MAX_CHUNK_CHAIN as u32 + 3) {
            store
                .extend_series(key("a", 0, 1), &[f64::from(i)])
                .unwrap();
            expect.push(f64::from(i));
            store.commit().unwrap();
            let state = store.chunks.get(&key("a", 0, 1)).unwrap();
            assert!(
                state.disk.len() <= MAX_CHUNK_CHAIN,
                "chain length {} exceeds the cap",
                state.disk.len()
            );
        }
        assert_eq!(*store.read_series(&key("a", 0, 1)).unwrap(), expect);
        let reopened = Store::open(&path).unwrap();
        assert_eq!(*reopened.read_series(&key("a", 0, 1)).unwrap(), expect);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn extend_mixes_with_single_chunk_series_in_batches() {
        let path = temp_store("mixed_batch");
        let mut store = Store::open(&path).unwrap();
        store.append_series(key("a", 0, 1), &[1.0, 2.0]).unwrap();
        store.commit().unwrap();
        store.extend_series(key("a", 0, 1), &[3.0]).unwrap();
        store.append_series(key("a", 0, 2), &[9.0]).unwrap();
        // Chained+staged, staged-only, and committed-only all in one
        // batch, with a duplicate key.
        let keys = [key("a", 0, 1), key("a", 0, 2), key("a", 0, 1)];
        let got = store.read_series_batch(&keys).unwrap();
        assert_eq!(*got[0], vec![1.0, 2.0, 3.0]);
        assert_eq!(*got[1], vec![9.0]);
        assert_eq!(*got[2], vec![1.0, 2.0, 3.0]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v1_single_chunk_files_still_load() {
        use crate::format::MAGIC;
        // Hand-craft a version-1 store: superblock + one delta chunk +
        // a v1 index (no chunk-count field).
        let path = temp_store("v1");
        let values = [4.0, 5.0, 6.0];
        let (encoding, payload) = codec::encode_chunk(&values);
        let offset = SUPERBLOCK_LEN as u64;

        let mut w = IndexWriter::new();
        w.u64(1); // one series
        w.str16("legacy");
        w.u32(0);
        w.u8(mode_tag(SampleMode::Mlpx));
        w.u64(7);
        w.u8(encoding.tag());
        w.u64(values.len() as u64);
        w.u64(offset);
        w.u64(payload.len() as u64);
        w.u32(codec::crc32(&payload));
        w.u64(0); // runs
        w.u64(0); // meta
        let index = w.finish();

        let index_offset = offset + payload.len() as u64;
        let mut file = Vec::new();
        // Superblock::encode always stamps the current VERSION, so
        // build the v1 header by hand: magic, version, reserved flags,
        // offsets, crc.
        let mut head = Vec::new();
        head.extend_from_slice(&MAGIC);
        head.extend_from_slice(&1u32.to_le_bytes());
        head.extend_from_slice(&0u32.to_le_bytes());
        head.extend_from_slice(&index_offset.to_le_bytes());
        head.extend_from_slice(&(index.len() as u64).to_le_bytes());
        let crc = codec::crc32(&head);
        head.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(head.len(), SUPERBLOCK_LEN);
        file.extend_from_slice(&head);
        file.extend_from_slice(&payload);
        file.extend_from_slice(&index);
        fs::write(&path, &file).unwrap();

        let store = Store::open(&path).unwrap();
        let k = SeriesKey::new("legacy", 0, SampleMode::Mlpx, EventId::new(7));
        assert_eq!(*store.read_series(&k).unwrap(), values.to_vec());

        // Extending and committing rewrites the file at the current
        // version with a two-link chain.
        let mut store = store;
        store.extend_series(k.clone(), &[7.0]).unwrap();
        store.commit().unwrap();
        let reopened = Store::open(&path).unwrap();
        assert_eq!(reopened.info().version, VERSION);
        assert_eq!(*reopened.read_series(&k).unwrap(), vec![4.0, 5.0, 6.0, 7.0]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn leftover_tmp_file_is_recovered() {
        let path = temp_store("recover");
        let mut store = Store::open(&path).unwrap();
        store.append_series(key("a", 0, 1), &[9.0]).unwrap();
        store.commit().unwrap();

        // Simulate a crash mid-commit: garbage under the tmp name.
        fs::write(tmp_path(&path), b"partial garbage").unwrap();
        let reopened = Store::open(&path).unwrap();
        assert!(!tmp_path(&path).exists(), "tmp cleaned up on open");
        assert_eq!(*reopened.read_series(&key("a", 0, 1)).unwrap(), vec![9.0]);
        fs::remove_file(&path).unwrap();
    }

    /// Everything a reader sees: series values (as bits, so NaN
    /// compares), the run table and the metadata.
    type Contents = (
        Vec<(SeriesKey, Vec<u64>)>,
        Vec<(RunId, u64)>,
        Vec<(String, String)>,
    );

    fn contents(store: &Store) -> Result<Contents, StoreError> {
        let mut series = Vec::new();
        for key in store.series_keys() {
            let values = store.read_series(key)?;
            series.push((key.clone(), values.iter().map(|v| v.to_bits()).collect()));
        }
        let runs = store
            .run_ids()
            .map(|id| (id.clone(), store.exec_time_secs(id).unwrap().to_bits()))
            .collect();
        let meta = store
            .meta
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        Ok((series, runs, meta))
    }

    #[test]
    fn append_commits_write_only_new_bytes() {
        let path = temp_store("append_only");
        let mut store = Store::open(&path).unwrap();
        store.append_series(key("a", 0, 1), &[1.0, 2.0]).unwrap();
        store.append_series(key("a", 0, 2), &[0.5]).unwrap();
        store.commit().unwrap();
        let before = fs::read(&path).unwrap();
        let log = store.log.unwrap();

        store.extend_series(key("a", 0, 1), &[3.0]).unwrap();
        store.set_meta("rows", "3");
        // Big enough that the new chunks go out in several writes.
        let big: Vec<f64> = (0..20_000).map(|i| f64::from(i) + 0.5).collect();
        store.append_series(key("b", 0, 1), &big).unwrap();
        store.append_series(key("c", 0, 1), &big[..9000]).unwrap();
        store.commit().unwrap();
        let after = fs::read(&path).unwrap();

        // Every old byte is as it was, except the slot the commit
        // flipped; the commit's bytes follow the old end.
        let flipped = log.slot_offset(1) as usize..log.slot_offset(1) as usize + SLOT_LEN;
        assert!(after.len() > before.len());
        for (i, (a, b)) in before.iter().zip(&after).enumerate() {
            assert!(a == b || flipped.contains(&i), "byte {i} was rewritten");
        }
        let head = store.log.unwrap();
        assert_eq!(
            (head.active, head.depth, head.generation),
            (1, 1, log.generation + 1)
        );
        // The unchanged series keeps its chunk where it was.
        assert_eq!(
            store.chunks[&key("a", 0, 2)].disk[0].offset,
            SUPERBLOCK_LEN as u64 + store.chunks[&key("a", 0, 1)].disk[0].len
        );

        let reopened = Store::open(&path).unwrap();
        assert_eq!(contents(&reopened).unwrap(), contents(&store).unwrap());
        assert_eq!(reopened.log.unwrap().depth, 1);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn delta_chain_and_dead_bytes_trigger_compaction() {
        let path = temp_store("chain_bound");
        let mut store = Store::open(&path).unwrap();
        store.append_series(key("a", 0, 1), &[0.0]).unwrap();
        // Enough padding that the one series' rewrites stay below the
        // dead-byte bound until the delta chain fills.
        store.append_series(key("pad", 0, 1), &[0.5; 4096]).unwrap();
        store.commit().unwrap();
        let mut expect = vec![0.0];
        for i in 1..=MAX_DELTA_CHAIN + 1 {
            store.extend_series(key("a", 0, 1), &[i as f64]).unwrap();
            expect.push(i as f64);
            store.commit().unwrap();
            let depth = store.log.unwrap().depth as usize;
            assert_eq!(depth, i % (MAX_DELTA_CHAIN + 1), "commit {i}");
        }
        assert_eq!(*store.read_series(&key("a", 0, 1)).unwrap(), expect);

        // Re-encoding a large series whenever its chain fills leaves its
        // old chunks dead; once they outweigh the live bytes, the next
        // commit compacts the file.
        let path = temp_store("dead_bound");
        let mut store = Store::open(&path).unwrap();
        store.append_series(key("a", 0, 1), &[0.5; 512]).unwrap();
        store.commit().unwrap();
        let mut appended = 0;
        while !store.needs_compaction(&store.log.unwrap()) {
            assert!(appended < 3 * MAX_CHUNK_CHAIN, "dead bytes never compacted");
            store.extend_series(key("a", 0, 1), &[0.25]).unwrap();
            store.commit().unwrap();
            appended += 1;
        }
        // One re-encode leaves fewer dead bytes than live ones.
        assert!(appended > MAX_CHUNK_CHAIN);
        assert!(store.log.unwrap().depth > 0);
        store.set_meta("k", "v");
        store.commit().unwrap();
        assert_eq!(store.log.unwrap().depth, 0);
        assert_eq!(store.file_bytes, fs::metadata(&path).unwrap().len());
        assert_eq!(
            store.read_series(&key("a", 0, 1)).unwrap().len(),
            512 + appended
        );
        fs::remove_file(&path).unwrap();
    }

    /// A crash can stop an append commit after any byte of its tail, or
    /// tear the slot it flips. Every such file opens at exactly the
    /// previous generation or the new one, and the next commit from
    /// the reopened handle lands cleanly.
    #[test]
    fn every_crash_point_of_an_append_opens_at_one_generation() {
        let path = temp_store("crash_points");
        let mut store = Store::open(&path).unwrap();
        store.append_series(key("a", 0, 1), &[1.0, 2.0]).unwrap();
        store.append_series(key("a", 0, 2), &[0.5, -1.5]).unwrap();
        store.set_meta("rows", "2");
        store.commit().unwrap();

        // Two appends, so each slot gets flipped once.
        for round in 0..2u32 {
            let old = fs::read(&path).unwrap();
            let previous = contents(&Store::open(&path).unwrap()).unwrap();
            let log = store.log.unwrap();
            let v = f64::from(round + 3);
            store.extend_series(key("a", 0, 1), &[v]).unwrap();
            store.append_series(key("b", round, 1), &[v, 0.25]).unwrap();
            let mut run = RunRecord::new("r", round, SampleMode::Ocoe);
            run.set_exec_time_secs(v);
            store.append_run(&run).unwrap();
            store.set_meta("rows", v.to_string());
            store.commit().unwrap();
            let new = fs::read(&path).unwrap();
            let next = contents(&store).unwrap();
            let tail = &new[old.len()..];
            let slot_at = log.slot_offset(1 - log.active) as usize;
            let (old_slot, new_slot) = (
                &old[slot_at..slot_at + SLOT_LEN],
                &new[slot_at..slot_at + SLOT_LEN],
            );

            let opens_at = |bytes: &[u8]| {
                fs::write(&path, bytes).unwrap();
                contents(&Store::open(&path).unwrap()).unwrap()
            };
            // Torn tail, slot not yet flipped: the previous generation.
            for k in 0..=tail.len() {
                let mut file = old.clone();
                file.extend_from_slice(&tail[..k]);
                assert_eq!(opens_at(&file), previous, "round {round}: tail cut at {k}");
            }
            // Whole tail, slot torn either way round: one of the two.
            for k in 0..=SLOT_LEN {
                for torn in [
                    [&new_slot[..k], &old_slot[k..]].concat(),
                    [&old_slot[..k], &new_slot[k..]].concat(),
                ] {
                    let mut file = new.clone();
                    file[slot_at..slot_at + SLOT_LEN].copy_from_slice(&torn);
                    let got = opens_at(&file);
                    assert!(
                        got == previous || got == next,
                        "round {round}: slot torn at {k}"
                    );
                }
            }

            // A handle opened over a half-written tail appends over it.
            let mut file = old.clone();
            file.extend_from_slice(&tail[..tail.len() / 2]);
            fs::write(&path, &file).unwrap();
            let mut reopened = Store::open(&path).unwrap();
            reopened.extend_series(key("a", 0, 2), &[9.0]).unwrap();
            reopened.commit().unwrap();
            let want = contents(&reopened).unwrap();
            assert_eq!(contents(&Store::open(&path).unwrap()).unwrap(), want);

            // Restore the real new generation for the next round.
            fs::write(&path, &new).unwrap();
            store.reload().unwrap();
            assert_eq!(contents(&store).unwrap(), next);
        }
        fs::remove_file(&path).unwrap();
    }

    /// A handle that missed another handle's commit compacts rather
    /// than appending over bytes the other's slot names: the last
    /// writer wins, as with whole-file rewrites, and the file stays
    /// whole.
    #[test]
    fn stale_handle_compacts_instead_of_appending() {
        let path = temp_store("stale");
        let mut first = Store::open(&path).unwrap();
        first.append_series(key("a", 0, 1), &[1.0]).unwrap();
        first.commit().unwrap();
        let mut stale = Store::open(&path).unwrap();

        first.extend_series(key("a", 0, 1), &[2.0]).unwrap();
        first.commit().unwrap();
        assert_eq!(first.log.unwrap().depth, 1);

        stale.extend_series(key("a", 0, 1), &[3.0]).unwrap();
        stale.commit().unwrap();
        assert_eq!(stale.log.unwrap().depth, 0, "a stale append must compact");
        let reopened = Store::open(&path).unwrap();
        assert_eq!(
            *reopened.read_series(&key("a", 0, 1)).unwrap(),
            vec![1.0, 3.0]
        );
        fs::remove_file(&path).unwrap();
    }

    /// Writes `body` as an index with its CRC, for hand-built files.
    fn index(body: impl FnOnce(&mut IndexWriter)) -> Vec<u8> {
        let mut w = IndexWriter::new();
        body(&mut w);
        w.finish()
    }

    fn chunk_ref(w: &mut IndexWriter, values: &[f64], count: u64, offset: u64) {
        let (encoding, payload) = codec::encode_chunk(values);
        w.u8(encoding.tag());
        w.u64(count);
        w.u64(offset);
        w.u64(payload.len() as u64);
        w.u32(codec::crc32(&payload));
    }

    fn key_entry(w: &mut IndexWriter) {
        w.str16("hostile");
        w.u32(0);
        w.u8(mode_tag(SampleMode::Mlpx));
        w.u64(7);
    }

    fn tables(w: &mut IndexWriter, n_runs: u64, n_meta: u64) {
        w.u64(n_runs);
        w.str16("hostile");
        w.u32(0);
        w.u8(mode_tag(SampleMode::Mlpx));
        w.f64(1.5);
        w.u64(n_meta);
        w.str16("k");
        w.str32("v");
    }

    /// On-disk counts of a hand-built file; `valid()` describes a file
    /// that opens.
    #[derive(Clone, Copy, Debug)]
    struct Counts {
        series: u64,
        keep: u32,
        chunks: u32,
        values: u64,
        runs: u64,
        meta: u64,
        /// Version 3 only: the delta's back-pointer (`None` = the real
        /// full index) and depth.
        prev: Option<(u64, u64)>,
        depth: u32,
    }

    impl Counts {
        fn valid() -> Self {
            Counts {
                series: 1,
                keep: 1,
                chunks: 1,
                values: 1,
                runs: 1,
                meta: 1,
                prev: None,
                depth: 1,
            }
        }
    }

    /// A version-2 file: one series of one chunk, one run, one entry.
    fn v2_file(c: Counts) -> Vec<u8> {
        let values = [4.0];
        let (_, payload) = codec::encode_chunk(&values);
        let offset = SUPERBLOCK_LEN as u64;
        let idx = index(|w| {
            w.u64(c.series);
            key_entry(w);
            w.u32(c.chunks);
            chunk_ref(w, &values, c.values, offset);
            tables(w, c.runs, c.meta);
        });
        let sb = Superblock {
            version: 2,
            index_offset: offset + payload.len() as u64,
            index_len: idx.len() as u64,
        };
        [&sb.encode()[..], &payload, &idx].concat()
    }

    /// A version-3 file of two generations: a full index holding one
    /// chunk, then a delta appending one more plus a run and an entry.
    fn v3_file(c: Counts) -> Vec<u8> {
        let mut file = vec![0u8; SUPERBLOCK_LEN];
        let first = [4.0, 5.0];
        let chunk0 = file.len() as u64;
        file.extend_from_slice(&codec::encode_chunk(&first).1);
        let slots_offset = file.len() as u64;
        file.extend_from_slice(&[0u8; 2 * SLOT_LEN]);
        let full_offset = file.len() as u64;
        let full = index(|w| {
            w.u64(0);
            w.u64(0);
            w.u32(0);
            w.u64(1);
            key_entry(w);
            w.u32(0);
            w.u32(1);
            chunk_ref(w, &first, 2, chunk0);
            w.u64(0);
            w.u64(0);
        });
        file.extend_from_slice(&full);
        let second = [6.0];
        let chunk1 = file.len() as u64;
        file.extend_from_slice(&codec::encode_chunk(&second).1);
        let delta_offset = file.len() as u64;
        let (prev_offset, prev_len) = c.prev.unwrap_or((full_offset, full.len() as u64));
        let delta = index(|w| {
            w.u64(prev_offset);
            w.u64(prev_len);
            w.u32(c.depth);
            w.u64(c.series);
            key_entry(w);
            w.u32(c.keep);
            w.u32(c.chunks);
            chunk_ref(w, &second, c.values, chunk1);
            tables(w, c.runs, c.meta);
        });
        file.extend_from_slice(&delta);
        let sb = Superblock {
            version: 3,
            index_offset: slots_offset,
            index_len: 2 * SLOT_LEN as u64,
        };
        file[..SUPERBLOCK_LEN].copy_from_slice(&sb.encode());
        for (i, (offset, len)) in [(full_offset, full.len()), (delta_offset, delta.len())]
            .into_iter()
            .enumerate()
        {
            let slot = Slot {
                generation: i as u64 + 1,
                record_offset: offset,
                record_len: len as u64,
            };
            let at = slots_offset as usize + i * SLOT_LEN;
            file[at..at + SLOT_LEN].copy_from_slice(&slot.encode());
        }
        file
    }

    /// Hostile counts behind valid CRCs fail typed, in both a
    /// version-2 index and a version-3 delta, before anything is sized
    /// by them.
    #[test]
    fn hostile_counts_with_valid_crcs_fail_typed() {
        let path = temp_store("hostile");
        let hostile_key = SeriesKey::new("hostile", 0, SampleMode::Mlpx, EventId::new(7));
        let open = |bytes: Vec<u8>| {
            fs::write(&path, bytes).unwrap();
            Store::open(&path)
        };
        let v2 = open(v2_file(Counts::valid())).unwrap();
        assert_eq!(*v2.read_series(&hostile_key).unwrap(), vec![4.0]);
        let v3 = open(v3_file(Counts::valid())).unwrap();
        assert_eq!(*v3.read_series(&hostile_key).unwrap(), vec![4.0, 5.0, 6.0]);
        assert_eq!(v3.meta("k"), Some("v"));

        let v = Counts::valid;
        let both = [
            Counts {
                series: u64::MAX,
                ..v()
            },
            Counts {
                series: 1 << 40,
                ..v()
            },
            Counts {
                chunks: u32::MAX,
                ..v()
            },
            Counts { chunks: 0, ..v() },
            Counts {
                values: u64::MAX,
                ..v()
            },
            Counts {
                values: 1 << 32,
                ..v()
            },
            Counts {
                runs: u64::MAX,
                ..v()
            },
            Counts {
                meta: u64::MAX,
                ..v()
            },
            Counts { meta: 2, ..v() },
        ];
        let v3_only = [
            Counts { keep: 2, ..v() },
            Counts {
                keep: u32::MAX,
                ..v()
            },
            Counts {
                depth: u32::MAX,
                ..v()
            },
            Counts { depth: 2, ..v() },
            Counts { depth: 0, ..v() },
            Counts {
                prev: Some((u64::MAX - 8, 64)),
                ..v()
            },
            Counts {
                prev: Some((u64::MAX, u64::MAX)),
                ..v()
            },
            Counts {
                prev: Some((SUPERBLOCK_LEN as u64, 0)),
                ..v()
            },
            Counts {
                prev: Some((0, 16)),
                ..v()
            },
        ];
        let typed = |what: &str, c: Counts, got: Result<Store, StoreError>| match got {
            Err(StoreError::Corrupt { .. } | StoreError::Truncated { .. }) => {}
            other => panic!("{what} {c:?}: expected Corrupt/Truncated, got {other:?}"),
        };
        for c in both {
            typed("v2", c, open(v2_file(c)));
            typed("v3", c, open(v3_file(c)));
        }
        for c in v3_only {
            typed("v3", c, open(v3_file(c)));
        }

        // A slot naming bytes past the end of the file.
        let mut file = v3_file(Counts::valid());
        let slots_offset = u64::from_le_bytes(file[12..20].try_into().unwrap()) as usize;
        let at = slots_offset + SLOT_LEN;
        let far = Slot {
            generation: 9,
            record_offset: u64::MAX - 4,
            record_len: 64,
        };
        file[at..at + SLOT_LEN].copy_from_slice(&far.encode());
        assert!(matches!(open(file), Err(StoreError::Truncated { .. })));
        fs::remove_file(&path).unwrap();
    }
}
