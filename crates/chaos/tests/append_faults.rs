//! Faults against the append commit path.
//!
//! A store holding two committed generations is reopened through a
//! seeded [`FaultFs`] and appended to, commit after commit, until a
//! commit fails. Short, torn and failed positioned writes and failed
//! fsyncs then hit the appended tail and the slot flip. Under every
//! seed:
//!
//! 1. a failed commit leaves the handle reading exactly what it read
//!    before the commit (the previous generation plus its staged
//!    writes), and the same handle commits cleanly once faults stop;
//! 2. a fresh open finds the previous generation or the new one —
//!    never a hybrid — unless a silent bit flip was injected, in which
//!    case it may find any earlier generation or fail typed.

use cm_chaos::{FaultFs, FaultKind};
use cm_events::{EventId, SampleMode};
use cm_store::{CacheConfig, SeriesKey, Store, StoreError};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SEEDS: u64 = 160;
const APPENDS: u32 = 8;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cm_chaos_append_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn key(event: usize) -> SeriesKey {
    SeriesKey::new("append", 0, SampleMode::Mlpx, EventId::new(event))
}

/// Every series' values and the row count, as a reader sees them.
type Contents = (Vec<Vec<f64>>, Option<String>);

fn contents(store: &Store) -> Result<Contents, StoreError> {
    let keys: Vec<SeriesKey> = store.series_keys().cloned().collect();
    let values = store.read_series_batch(&keys)?;
    Ok((
        values.iter().map(|v| v.to_vec()).collect(),
        store.meta("rows").map(str::to_string),
    ))
}

/// Stages append `i`: one integral and one fractional value, so both
/// codecs land in the tail, plus the new row count.
fn stage(store: &mut Store, i: u32) -> Result<(), StoreError> {
    store.extend_series(key(0), &[f64::from(i)])?;
    store.extend_series(key(1), &[f64::from(i) + 0.5])?;
    store.set_meta("rows", (i + 2).to_string());
    Ok(())
}

/// Two clean generations on the real filesystem: a compaction, then
/// an append, so both slots hold a valid generation.
fn two_generations(path: &Path) -> Vec<Contents> {
    let _ = std::fs::remove_file(path);
    let mut store = Store::open(path).unwrap();
    store.append_series(key(0), &[0.0]).unwrap();
    store.append_series(key(1), &[0.5]).unwrap();
    store.commit().unwrap();
    let first = contents(&store).unwrap();
    store.extend_series(key(0), &[1.0]).unwrap();
    store.extend_series(key(1), &[1.5]).unwrap();
    store.set_meta("rows", "2");
    store.commit().unwrap();
    vec![first, contents(&store).unwrap()]
}

#[test]
fn failed_append_commits_keep_one_generation() {
    let dir = temp_dir("sweep");
    let mut kinds = BTreeSet::new();
    let (mut failed, mut committed) = (0u32, 0u32);

    for seed in 0..SEEDS {
        let path = dir.join(format!("a{seed}.cmstore"));
        let mut generations = two_generations(&path);
        let fs = Arc::new(FaultFs::new(seed));
        let Ok(mut store) = Store::open_with_vfs(&path, CacheConfig::default(), fs.clone()) else {
            continue; // an injected read fault: typed, nothing written
        };

        let mut attempt = None;
        for i in 2..2 + APPENDS {
            if stage(&mut store, i).is_err() {
                break;
            }
            let Ok(staged) = contents(&store) else {
                break; // an injected read fault: typed, nothing written
            };
            match store.commit() {
                Ok(()) => {
                    committed += 1;
                    generations.push(staged);
                }
                Err(_) => {
                    failed += 1;
                    // The handle reads as it did before the commit.
                    fs.disarm();
                    match contents(&store) {
                        Ok(now) => assert_eq!(now, staged, "seed {seed}"),
                        Err(e) => assert!(
                            fs.injected_kinds().contains(&FaultKind::BitFlip),
                            "seed {seed}: {e}"
                        ),
                    }
                    attempt = Some(staged);
                    break;
                }
            }
        }
        let flipped = fs.injected_kinds().contains(&FaultKind::BitFlip);
        kinds.extend(fs.injected_kinds().into_iter().map(|k| format!("{k:?}")));
        fs.disarm();

        // A fresh open: the newest generation, or the failed commit's.
        let previous = generations.last().cloned().unwrap();
        match Store::open(&path).map(|s| contents(&s)) {
            Ok(Ok(got)) => assert!(
                got == previous
                    || attempt.as_ref() == Some(&got)
                    || (flipped && generations.contains(&got)),
                "seed {seed}: reopened at no committed generation"
            ),
            Ok(Err(_)) | Err(_) => assert!(flipped, "seed {seed}: clean faults broke the store"),
        }

        // The failed handle recovers on its own once faults stop.
        if let Some(want) = attempt {
            if !flipped {
                store.commit().unwrap();
                let reopened = Store::open(&path).unwrap();
                assert_eq!(contents(&reopened).unwrap(), want, "seed {seed}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    for kind in [
        "ShortWrite",
        "TornWrite",
        "FailWrite",
        "FailSync",
        "BitFlip",
    ] {
        assert!(kinds.contains(kind), "no seed injected {kind}: {kinds:?}");
    }
    assert!(
        failed > 0 && committed > 0,
        "{failed} failed, {committed} committed"
    );
}
