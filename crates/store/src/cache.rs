//! Sharded LRU block cache for decoded column chunks.
//!
//! Reading a series from a committed store means seeking to its chunk,
//! verifying the CRC, and decoding the payload. The pipeline's resume
//! path and the CLI's query tools read the same chunks repeatedly, so
//! every [`crate::Store`] consults a cache of decoded chunks keyed by
//! their file offset. The cache is split into shards, each behind its
//! own mutex, so concurrent readers rarely contend; a chunk's shard is
//! its offset modulo the shard count, which is deterministic, so
//! hit/miss counts are reproducible run to run.
//!
//! By default every store owns a private cache, but a [`BlockCache`]
//! can be shared: [`crate::Store::open_with_cache`] accepts an
//! `Arc<BlockCache>`, so N concurrent readers of one store (or of many
//! stores — entries are salted by store identity) stop duplicating
//! cached blocks. The serving layer (`cm-serve`) uses exactly this to
//! put one cache behind every request.
//!
//! Capacity is byte-based (decoded size) and configured via
//! [`CacheConfig`] or the `CM_STORE_CACHE` environment variable
//! (`0` disables caching, plain bytes or `K`/`M`/`G` suffixes
//! otherwise). Hits, misses, and evictions are visible through
//! [`CacheStats`] — globally via [`BlockCache::stats`] and per shard
//! via [`BlockCache::shard_stats`] — and mirrored to the [`cm_obs`]
//! counters `store.cache.hits`, `store.cache.misses`, and
//! `store.cache.evictions`.

use cm_par::rng::{fnv1a_extend, FNV1A_OFFSET};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Block-cache configuration for one [`BlockCache`].
///
/// # Examples
///
/// ```
/// use cm_store::CacheConfig;
///
/// // 1 MiB across 4 shards.
/// let config = CacheConfig { capacity_bytes: 1 << 20, shards: 4 };
/// assert_eq!(config.capacity_bytes, 1_048_576);
///
/// // The default is 64 MiB over 8 shards.
/// assert_eq!(CacheConfig::default().shards, 8);
///
/// // `CM_STORE_CACHE`-style strings parse with K/M/G suffixes.
/// assert_eq!(CacheConfig::parse_capacity("16M"), Some(16 << 20));
/// assert_eq!(CacheConfig::parse_capacity("0"), Some(0));
/// assert_eq!(CacheConfig::parse_capacity("lots"), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total decoded bytes the cache may hold; `0` disables caching.
    pub capacity_bytes: usize,
    /// Number of independently locked shards (minimum 1).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: 64 << 20,
            shards: 8,
        }
    }
}

impl CacheConfig {
    /// Resolves the configuration from the `CM_STORE_CACHE` environment
    /// variable, falling back to the default capacity when unset or
    /// unparsable.
    pub fn from_env() -> Self {
        let mut config = CacheConfig::default();
        if let Ok(raw) = std::env::var("CM_STORE_CACHE") {
            if let Some(bytes) = Self::parse_capacity(raw.trim()) {
                config.capacity_bytes = bytes;
            }
        }
        config
    }

    /// Parses a capacity string: plain bytes, or `K`/`M`/`G` binary
    /// suffixes (case-insensitive). Returns `None` for anything else.
    pub fn parse_capacity(s: &str) -> Option<usize> {
        if s.is_empty() {
            return None;
        }
        let (digits, shift) = match s.as_bytes()[s.len() - 1].to_ascii_uppercase() {
            b'K' => (&s[..s.len() - 1], 10),
            b'M' => (&s[..s.len() - 1], 20),
            b'G' => (&s[..s.len() - 1], 30),
            _ => (s, 0),
        };
        digits
            .parse::<usize>()
            .ok()
            .and_then(|n| n.checked_shl(shift))
    }
}

/// A point-in-time view of one cache's (or one shard's) counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to decode from disk.
    pub misses: u64,
    /// Entries evicted to stay under capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Decoded bytes currently resident.
    pub bytes: usize,
}

/// Fixed per-entry overhead charged against capacity, covering the map
/// and recency bookkeeping.
const ENTRY_OVERHEAD: usize = 64;

/// A cached chunk's identity: the owning store's salt plus the chunk's
/// file offset. The salt keeps two stores sharing one cache from
/// colliding on equal offsets; shard selection ignores it so a store
/// with a private cache behaves exactly as it did before salting.
type BlockKey = (u64, u64);

#[derive(Default)]
struct Shard {
    /// (salt, offset) -> (recency tick, decoded values).
    map: HashMap<BlockKey, (u64, Arc<Vec<f64>>)>,
    /// recency tick -> key; the smallest tick is the LRU entry.
    recency: BTreeMap<u64, BlockKey>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Shard {
    fn charge(values: &[f64]) -> usize {
        std::mem::size_of_val(values) + ENTRY_OVERHEAD
    }

    fn touch(&mut self, key: BlockKey) -> Option<Arc<Vec<f64>>> {
        let tick = self.tick;
        self.tick += 1;
        let (old_tick, values) = match self.map.get_mut(&key) {
            Some(entry) => entry,
            None => {
                self.misses += 1;
                return None;
            }
        };
        self.hits += 1;
        self.recency.remove(old_tick);
        *old_tick = tick;
        let values = values.clone();
        self.recency.insert(tick, key);
        Some(values)
    }

    fn insert(&mut self, key: BlockKey, values: Arc<Vec<f64>>, capacity: usize) -> u64 {
        let cost = Self::charge(&values);
        if cost > capacity {
            return 0; // would never fit; don't thrash the shard for it
        }
        let tick = self.tick;
        self.tick += 1;
        if let Some((old_tick, old_values)) = self.map.insert(key, (tick, values)) {
            self.recency.remove(&old_tick);
            self.bytes -= Self::charge(&old_values);
        }
        self.recency.insert(tick, key);
        self.bytes += cost;
        let mut evicted = 0;
        while self.bytes > capacity {
            let (&lru_tick, &lru_key) = self
                .recency
                .iter()
                .next()
                .expect("over-capacity shard must have entries");
            // Never evict the entry we just inserted.
            if lru_key == key && self.map.len() == 1 {
                break;
            }
            self.recency.remove(&lru_tick);
            let (_, old) = self.map.remove(&lru_key).expect("recency/map in sync");
            self.bytes -= Self::charge(&old);
            evicted += 1;
        }
        self.evictions += evicted;
        evicted
    }

    fn remove(&mut self, key: BlockKey) {
        if let Some((tick, values)) = self.map.remove(&key) {
            self.recency.remove(&tick);
            self.bytes -= Self::charge(&values);
        }
    }

    fn remove_salt(&mut self, salt: u64) {
        let dead: Vec<BlockKey> = self.map.keys().filter(|k| k.0 == salt).copied().collect();
        for key in dead {
            self.remove(key);
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            bytes: self.bytes,
        }
    }
}

/// The sharded LRU cache of decoded column chunks.
///
/// Every [`crate::Store`] consults one — private by default
/// ([`crate::Store::open`]), or shared across stores and threads via
/// [`crate::Store::open_with_cache`]. Entries are keyed by
/// `(store salt, chunk offset)`; the salt is derived from the store's
/// path, so distinct store files sharing one cache never collide, while
/// shard selection uses the offset alone — a store with a private cache
/// keeps the exact hit/miss/eviction sequence it had before caches
/// became shareable.
///
/// # Examples
///
/// ```
/// use cm_store::{BlockCache, CacheConfig};
/// use std::sync::Arc;
///
/// let cache = Arc::new(BlockCache::new(CacheConfig {
///     capacity_bytes: 1 << 20,
///     shards: 4,
/// }));
/// assert_eq!(cache.stats().entries, 0);
/// assert_eq!(cache.shard_stats().len(), 4);
/// ```
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl BlockCache {
    /// Creates a cache with the given capacity split over its shards.
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        BlockCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard: config.capacity_bytes / shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, offset: u64) -> &Mutex<Shard> {
        &self.shards[(offset % self.shards.len() as u64) as usize]
    }

    /// Whether the cache was configured away (zero capacity). A disabled
    /// cache is fully inert: no storage, no counters, no obs traffic.
    pub fn is_disabled(&self) -> bool {
        self.capacity_per_shard == 0
    }

    /// Looks a chunk up by store salt and file offset, recording a hit
    /// or miss.
    ///
    /// A disabled cache returns `None` without recording anything —
    /// `CM_STORE_CACHE=0` must not pollute the `store.cache.*` counters
    /// with misses that no cache ever had a chance to serve.
    pub fn get(&self, salt: u64, offset: u64) -> Option<Arc<Vec<f64>>> {
        if self.is_disabled() {
            return None;
        }
        let found = self
            .shard(offset)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .touch((salt, offset));
        match &found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                cm_obs::counter_add("store.cache.hits", 1);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                cm_obs::counter_add("store.cache.misses", 1);
            }
        }
        found
    }

    /// Inserts a decoded chunk, evicting LRU entries past capacity.
    pub fn insert(&self, salt: u64, offset: u64, values: Arc<Vec<f64>>) {
        if self.is_disabled() {
            return;
        }
        let evicted = self
            .shard(offset)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert((salt, offset), values, self.capacity_per_shard);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            cm_obs::counter_add("store.cache.evictions", evicted);
        }
    }

    /// Drops every entry, regardless of salt.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock().unwrap_or_else(|e| e.into_inner());
            let (hits, misses, evictions, tick) = (s.hits, s.misses, s.evictions, s.tick);
            *s = Shard {
                hits,
                misses,
                evictions,
                tick,
                ..Shard::default()
            };
        }
    }

    /// Drops one chunk's entry, if cached: the chunk is no longer part
    /// of its store, so nothing will read it again.
    pub(crate) fn remove(&self, salt: u64, offset: u64) {
        self.shard(offset)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove((salt, offset));
    }

    /// Drops every entry belonging to one store (its chunk offsets are
    /// invalidated by a commit) while other stores sharing the cache
    /// keep theirs.
    pub fn clear_salt(&self, salt: u64) {
        for shard in &self.shards {
            shard
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove_salt(salt);
        }
    }

    /// Aggregate counters and residency across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut bytes = 0;
        for shard in &self.shards {
            let s = shard.lock().unwrap_or_else(|e| e.into_inner());
            entries += s.map.len();
            bytes += s.bytes;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }

    /// Per-shard counters and residency, indexed by shard number — the
    /// feed for the serving layer's per-shard hit/miss/eviction gauges.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|shard| shard.lock().unwrap_or_else(|e| e.into_inner()).stats())
            .collect()
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .field("stats", &self.stats())
            .finish()
    }
}

/// FNV-1a salt for a store path: the identity that keeps two stores
/// sharing one [`BlockCache`] from colliding on equal chunk offsets.
pub(crate) fn path_salt(path: &std::path::Path) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, path.to_string_lossy().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(n: usize, fill: f64) -> Arc<Vec<f64>> {
        Arc::new(vec![fill; n])
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = BlockCache::new(CacheConfig {
            capacity_bytes: 1 << 16,
            shards: 2,
        });
        assert!(cache.get(0, 32).is_none());
        cache.insert(0, 32, chunk(10, 1.0));
        assert_eq!(cache.get(0, 32).unwrap().len(), 10);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn lru_eviction_drops_coldest() {
        // One shard, room for ~2 ten-value chunks.
        let cache = BlockCache::new(CacheConfig {
            capacity_bytes: 2 * (10 * 8 + ENTRY_OVERHEAD),
            shards: 1,
        });
        cache.insert(0, 0, chunk(10, 0.0));
        cache.insert(0, 8, chunk(10, 1.0));
        assert!(cache.get(0, 0).is_some()); // 0 is now the most recent
        cache.insert(0, 16, chunk(10, 2.0)); // evicts 8
        assert!(cache.get(0, 8).is_none());
        assert!(cache.get(0, 0).is_some());
        assert!(cache.get(0, 16).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = BlockCache::new(CacheConfig {
            capacity_bytes: 0,
            shards: 4,
        });
        cache.insert(0, 0, chunk(4, 1.0));
        assert!(cache.get(0, 0).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    /// Regression: a disabled cache used to record every lookup as a
    /// miss, so `CM_STORE_CACHE=0` polluted hit-rate statistics with
    /// lookups no cache ever saw. Disabled means *inert*: all counters
    /// stay zero.
    #[test]
    fn disabled_cache_records_no_activity() {
        let cache = BlockCache::new(CacheConfig {
            capacity_bytes: 0,
            shards: 8,
        });
        assert!(cache.is_disabled());
        for offset in [0u64, 8, 16] {
            cache.insert(0, offset, chunk(4, 1.0));
            assert!(cache.get(0, offset).is_none());
        }
        assert_eq!(cache.stats(), CacheStats::default());
    }

    /// Degenerate configurations must size shards without panicking:
    /// zero shards clamp to one, and capacities smaller than a single
    /// entry behave as disabled for every real chunk.
    #[test]
    fn tiny_configs_never_panic_in_shard_sizing() {
        for capacity_bytes in [0usize, 1, 7, 63] {
            for shards in [0usize, 1, 7, 1024] {
                let cache = BlockCache::new(CacheConfig {
                    capacity_bytes,
                    shards,
                });
                cache.insert(0, 12, chunk(16, 2.0));
                let _ = cache.get(0, 12);
                let _ = cache.stats();
            }
        }
    }

    #[test]
    fn oversized_chunk_is_not_cached() {
        let cache = BlockCache::new(CacheConfig {
            capacity_bytes: 100,
            shards: 1,
        });
        cache.insert(0, 0, chunk(1000, 1.0));
        assert!(cache.get(0, 0).is_none());
    }

    #[test]
    fn clear_empties_everything() {
        let cache = BlockCache::new(CacheConfig {
            capacity_bytes: 1 << 16,
            shards: 3,
        });
        for i in 0..9 {
            cache.insert(0, i, chunk(5, i as f64));
        }
        assert_eq!(cache.stats().entries, 9);
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
    }

    /// Two stores sharing one cache must not collide on equal offsets,
    /// and one store's invalidation must not evict the other's entries.
    #[test]
    fn salts_isolate_stores_sharing_one_cache() {
        let cache = BlockCache::new(CacheConfig {
            capacity_bytes: 1 << 16,
            shards: 2,
        });
        cache.insert(1, 64, chunk(4, 1.0));
        cache.insert(2, 64, chunk(4, 2.0));
        assert_eq!(cache.get(1, 64).unwrap()[0], 1.0);
        assert_eq!(cache.get(2, 64).unwrap()[0], 2.0);
        assert_eq!(cache.stats().entries, 2);

        cache.clear_salt(1);
        assert!(cache.get(1, 64).is_none());
        assert_eq!(cache.get(2, 64).unwrap()[0], 2.0);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn shard_stats_attribute_activity_to_the_right_shard() {
        let cache = BlockCache::new(CacheConfig {
            capacity_bytes: 1 << 16,
            shards: 2,
        });
        // Offsets 0 and 2 land in shard 0, offset 1 in shard 1.
        cache.insert(0, 0, chunk(4, 0.0));
        cache.insert(0, 2, chunk(4, 2.0));
        cache.insert(0, 1, chunk(4, 1.0));
        assert!(cache.get(0, 0).is_some());
        assert!(cache.get(0, 1).is_some());
        assert!(cache.get(0, 3).is_none());
        let shards = cache.shard_stats();
        assert_eq!(shards.len(), 2);
        assert_eq!((shards[0].hits, shards[0].misses), (1, 0));
        assert_eq!((shards[1].hits, shards[1].misses), (1, 1));
        assert_eq!(shards[0].entries, 2);
        assert_eq!(shards[1].entries, 1);
        // The aggregate view matches the per-shard sum.
        let total = cache.stats();
        assert_eq!(total.hits, shards.iter().map(|s| s.hits).sum::<u64>());
        assert_eq!(total.entries, shards.iter().map(|s| s.entries).sum());
    }

    #[test]
    fn path_salts_are_pinned() {
        use std::path::Path;
        assert_eq!(
            path_salt(Path::new("/tmp/a.cmstore")),
            0xe5e9_5b6c_de72_9308
        );
        assert_eq!(path_salt(Path::new("runs.cmstore")), 0x6866_8f58_b8b2_3b04);
    }

    #[test]
    fn path_salts_differ_by_path() {
        use std::path::Path;
        let a = path_salt(Path::new("/tmp/a.cmstore"));
        let b = path_salt(Path::new("/tmp/b.cmstore"));
        assert_ne!(a, b);
        assert_eq!(a, path_salt(Path::new("/tmp/a.cmstore")));
    }

    #[test]
    fn capacity_parsing() {
        assert_eq!(CacheConfig::parse_capacity("1024"), Some(1024));
        assert_eq!(CacheConfig::parse_capacity("8k"), Some(8192));
        assert_eq!(CacheConfig::parse_capacity("2G"), Some(2 << 30));
        assert_eq!(CacheConfig::parse_capacity(""), None);
        assert_eq!(CacheConfig::parse_capacity("x"), None);
    }
}
