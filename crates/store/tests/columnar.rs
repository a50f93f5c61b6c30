//! Corruption-path coverage for the columnar store: every damaged-file
//! shape must surface as a *typed* [`StoreError`] — never a panic —
//! and the block cache must behave deterministically.

use cm_events::{EventId, SampleMode};
use cm_store::{CacheConfig, SeriesKey, Store, StoreError, MAX_CHUNK_CHAIN};
use std::fs;
use std::path::PathBuf;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cm_columnar_it_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir.join("store.cmstore")
}

fn key(event: usize) -> SeriesKey {
    SeriesKey::new("wordcount", 0, SampleMode::Mlpx, EventId::new(event))
}

/// Builds a committed store with a few chunks and returns its path.
fn committed_store(tag: &str) -> PathBuf {
    let path = temp_store(tag);
    let mut store = Store::open(&path).unwrap();
    store
        .append_series(key(1), &[100.0, 104.0, 99.0, 101.0])
        .unwrap();
    store.append_series(key(2), &[0.25, -1.5, 3.75]).unwrap();
    store.set_meta("origin", "corruption-tests");
    store.commit().unwrap();
    path
}

#[test]
fn truncated_superblock_is_typed() {
    let path = committed_store("trunc_super");
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..16]).unwrap();
    match Store::open(&path) {
        Err(StoreError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn truncated_body_is_typed() {
    let path = committed_store("trunc_body");
    let bytes = fs::read(&path).unwrap();
    // Keep the superblock but cut the file before the index ends.
    fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
    match Store::open(&path) {
        Err(StoreError::Truncated { .. }) | Err(StoreError::Io(_)) => {}
        other => panic!("expected Truncated/Io, got {other:?}"),
    }
}

#[test]
fn flipped_index_byte_fails_index_checksum() {
    let path = committed_store("bad_index");
    let mut bytes = fs::read(&path).unwrap();
    // The index is at the tail; flip a byte a little before the final CRC.
    let n = bytes.len();
    bytes[n - 12] ^= 0xFF;
    fs::write(&path, &bytes).unwrap();
    match Store::open(&path) {
        Err(StoreError::ChecksumMismatch { what, .. }) => {
            assert!(what.contains("index"), "unexpected region: {what}")
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn flipped_chunk_byte_fails_chunk_checksum_on_read() {
    let path = committed_store("bad_chunk");
    let mut bytes = fs::read(&path).unwrap();
    // Chunks start right after the 32-byte superblock.
    bytes[33] ^= 0xFF;
    fs::write(&path, &bytes).unwrap();
    // Open succeeds (the index is intact) — the damage is detected when
    // the chunk is actually read.
    let store = Store::open(&path).unwrap();
    let failed = [key(1), key(2)].iter().any(|k| {
        matches!(
            store.read_series(k),
            Err(StoreError::ChecksumMismatch { .. })
        )
    });
    assert!(failed, "flipping a chunk byte must fail some read");
}

#[test]
fn wrong_version_is_typed() {
    let path = committed_store("bad_version");
    let mut bytes = fs::read(&path).unwrap();
    bytes[4..8].copy_from_slice(&7u32.to_le_bytes());
    // Recompute the superblock CRC so the version check is what fires.
    let crc = {
        // CRC-32/IEEE over the first 28 bytes, matching the writer.
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    (c >> 1) ^ 0xEDB8_8320
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        let mut c: u32 = 0xFFFF_FFFF;
        for &b in &bytes[..28] {
            c = (c >> 8) ^ table[((c ^ u32::from(b)) & 0xFF) as usize];
        }
        c ^ 0xFFFF_FFFF
    };
    bytes[28..32].copy_from_slice(&crc.to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    match Store::open(&path) {
        Err(StoreError::UnsupportedVersion {
            found, supported, ..
        }) => {
            assert_eq!(found, 7);
            assert_eq!(supported, 3);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn not_a_store_is_typed() {
    let path = temp_store("not_a_store");
    fs::write(&path, b"PK\x03\x04 definitely a zip file, not a store").unwrap();
    match Store::open(&path) {
        Err(StoreError::NotAStore { .. }) => {}
        other => panic!("expected NotAStore, got {other:?}"),
    }
}

#[test]
fn partial_write_recovery_preserves_committed_state() {
    let path = committed_store("partial");
    // A crash mid-commit leaves a temporary file; the committed store
    // must win and the leftover must be removed.
    let tmp = {
        let mut name = path.as_os_str().to_os_string();
        name.push(".tmp");
        PathBuf::from(name)
    };
    fs::write(&tmp, b"half-written garbage from a dying process").unwrap();
    let store = Store::open(&path).unwrap();
    assert!(!tmp.exists());
    assert_eq!(
        *store.read_series(&key(1)).unwrap(),
        vec![100.0, 104.0, 99.0, 101.0]
    );
}

#[test]
fn interrupted_first_commit_leaves_no_store() {
    let path = temp_store("first_commit");
    let tmp = {
        let mut name = path.as_os_str().to_os_string();
        name.push(".tmp");
        PathBuf::from(name)
    };
    fs::write(&tmp, b"garbage").unwrap();
    // No committed file ever existed: recovery yields an empty store.
    let store = Store::open(&path).unwrap();
    assert_eq!(store.series_count(), 0);
    assert!(!tmp.exists());
}

#[test]
fn cache_hit_miss_counts_are_deterministic() {
    let run_once = |tag: &str| {
        let path = temp_store(tag);
        let mut store = Store::open_with(
            &path,
            CacheConfig {
                capacity_bytes: 1 << 20,
                shards: 4,
            },
        )
        .unwrap();
        for e in 0..8 {
            store.append_series(key(e), &[e as f64; 64]).unwrap();
        }
        store.commit().unwrap();

        // Deterministic access pattern: two full sweeps + point reads.
        for _ in 0..2 {
            for e in 0..8 {
                store.read_series(&key(e)).unwrap();
            }
        }
        store.read_series(&key(3)).unwrap();
        store.read_series(&key(3)).unwrap();
        let stats = store.cache_stats();
        (stats.hits, stats.misses, stats.evictions)
    };

    let a = run_once("cache_det_a");
    let b = run_once("cache_det_b");
    assert_eq!(a, b, "cache counters must not depend on run identity");
    // First sweep misses all 8, everything after hits.
    assert_eq!(a.1, 8, "exactly one miss per chunk");
    assert_eq!(a.0, 10, "second sweep + two point reads all hit");
    assert_eq!(a.2, 0, "1 MiB capacity must not evict 8 tiny chunks");
}

#[test]
fn zero_capacity_cache_is_inert() {
    let path = temp_store("cache_off");
    let mut store = Store::open_with(
        &path,
        CacheConfig {
            capacity_bytes: 0,
            shards: 2,
        },
    )
    .unwrap();
    store.append_series(key(1), &[1.0, 2.0]).unwrap();
    store.commit().unwrap();
    for _ in 0..3 {
        let read = store.read_series(&key(1)).unwrap();
        assert_eq!(read.as_slice(), &[1.0, 2.0]);
    }
    // A disabled cache is fully inert: reads still work, but no hit or
    // miss traffic is recorded (counting misses on a cache the user
    // turned off made `CM_STORE_CACHE=0` look like pathological churn).
    let stats = store.cache_stats();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.evictions, 0);
}

#[test]
fn block_cache_survives_append_commits() {
    let path = committed_store("cache_append");
    let mut store = Store::open(&path).unwrap();
    let b = store.read_series(&key(2)).unwrap();
    let before = store.cache_stats();

    // An append commit leaves committed chunks where they are, so the
    // decoded chunk of the untouched series stays cached.
    store.extend_series(key(1), &[102.0]).unwrap();
    store.commit().unwrap();
    assert_eq!(store.read_series(&key(2)).unwrap(), b);
    let after = store.cache_stats();
    assert_eq!(after.hits, before.hits + 1);
    assert_eq!(after.misses, before.misses);
    assert_eq!(
        *store.read_series(&key(1)).unwrap(),
        vec![100.0, 104.0, 99.0, 101.0, 102.0]
    );
}

#[test]
fn re_encoded_chains_leave_the_block_cache() {
    let path = temp_store("cache_chain");
    let mut store = Store::open(&path).unwrap();
    let mut want = Vec::new();
    for i in 0..MAX_CHUNK_CHAIN {
        want.push(i as f64);
        store.extend_series(key(1), &[i as f64]).unwrap();
        store.commit().unwrap();
        assert_eq!(*store.read_series(&key(1)).unwrap(), want);
    }
    assert_eq!(store.cache_stats().entries, MAX_CHUNK_CHAIN);

    // The next commit re-encodes the full chain as one chunk; the old
    // chunks are dead, so their decodes leave the cache.
    want.push(-1.0);
    store.extend_series(key(1), &[-1.0]).unwrap();
    store.commit().unwrap();
    assert_eq!(store.cache_stats().entries, 0);
    assert_eq!(*store.read_series(&key(1)).unwrap(), want);
    assert_eq!(store.cache_stats().entries, 1);
}
