//! Pipeline snapshot/resume over the persistent columnar store.
//!
//! [`CounterMiner::analyze_with_store`](crate::CounterMiner::analyze_with_store)
//! persists what the expensive front half of the pipeline produced — the
//! raw multiplexed series, the cleaned series, and the per-interval IPC —
//! keyed by a fingerprint of every configuration knob that influences
//! collection and cleaning. A later run with a matching fingerprint
//! resumes from the cleaned data and skips PMU simulation and cleaning
//! entirely; because cleaning is deterministic and the store round-trips
//! `f64` values bit-exactly, the resumed analysis is bit-identical to a
//! cold one.
//!
//! On-store layout for a benchmark `wc` with fingerprint `fp`:
//!
//! | program            | contents                                   |
//! |--------------------|--------------------------------------------|
//! | `wc@fp`            | raw multiplexed series, one run per index  |
//! | `wc@fp#cleaned`    | cleaned series, same keys                  |
//! | `wc@fp#ipc`        | per-run IPC under event index 0            |
//!
//! plus `snapshot.wc.*` metadata entries (fingerprint, event list, run
//! count, cleaner tallies). Namespacing programs by fingerprint lets
//! snapshots for different configurations coexist in one store file.

use crate::uncertainty::{decode_aggregates, encode_aggregates};
use crate::{CleanTally, CleanedRuns, CleanerKind, CmError, MinerConfig};
use cm_events::{EventId, RunRecord, SampleMode};
use cm_par::rng::{fnv1a_extend, FNV1A_OFFSET};
use cm_sim::{Benchmark, SimRun};
use cm_store::{RunId, SeriesKey, Store};
use std::collections::BTreeMap;

/// All snapshot series are stored under the multiplexed mode — that is
/// the only mode the pipeline collects in.
const SNAPSHOT_MODE: SampleMode = SampleMode::Mlpx;

/// Fingerprints every knob that influences collection and cleaning,
/// plus the *resolved* event set the collector will measure.
///
/// The event ids are sorted before hashing, so two configurations that
/// measure the same set in a different order share a fingerprint (the
/// collected data is identical), while configurations measuring
/// *different* sets of the same size — which used to collide when only
/// the count was hashed — never do.
///
/// Deliberately excludes the importance/interaction/aggregation settings:
/// those shape the *model* half of the pipeline, which always re-runs, so
/// retuning EIR must not force a re-collection.
///
/// The cleaner *kind* is part of the hash (v3): a point snapshot carries
/// no variance aggregates, so letting a bayes analysis warm-start from
/// one would silently drop the uncertainty it was asked for — cross-kind
/// resume must be a miss.
pub(crate) fn fingerprint(benchmark: Benchmark, config: &MinerConfig, events: &[EventId]) -> u64 {
    let mut ids: Vec<usize> = events.iter().map(|e| e.index()).collect();
    ids.sort_unstable();
    ids.dedup();
    let desc = format!(
        "v3|{:?}|pmu={:?}|cleaner={:?}|kind={:?}|runs={}|events={ids:?}|seed={}",
        benchmark,
        config.pmu,
        config.cleaner,
        config.cleaner_kind,
        config.runs_per_benchmark,
        config.seed,
    );
    fnv1a_extend(FNV1A_OFFSET, desc.as_bytes())
}

fn raw_ns(benchmark: Benchmark, fp: u64) -> String {
    format!("{}@{fp:016x}", benchmark.name())
}

fn cleaned_ns(benchmark: Benchmark, fp: u64) -> String {
    format!("{}#cleaned", raw_ns(benchmark, fp))
}

fn ipc_ns(benchmark: Benchmark, fp: u64) -> String {
    format!("{}#ipc", raw_ns(benchmark, fp))
}

fn meta_key(benchmark: Benchmark, field: &str) -> String {
    format!("snapshot.{}.{field}", benchmark.name())
}

/// Re-keys a record under a namespaced program name, preserving series,
/// run index, mode, and execution time.
fn renamed(record: &RunRecord, program: &str) -> RunRecord {
    let mut out = RunRecord::new(program, record.run_index(), record.mode());
    out.set_exec_time_secs(record.exec_time_secs());
    for (event, series) in record.iter() {
        out.insert_series(event, series.clone());
    }
    out
}

/// Stages a full snapshot (raw + cleaned + IPC + metadata) into the
/// store. The caller commits.
///
/// # Errors
///
/// Returns a store error on key collisions — which cannot happen unless
/// two identically-fingerprinted collections race into one store file.
pub(crate) fn save(
    store: &mut Store,
    benchmark: Benchmark,
    fp: u64,
    raw: &[SimRun],
    snapshot: &CleanedRuns,
) -> Result<(), CmError> {
    let raw_program = raw_ns(benchmark, fp);
    let cleaned_program = cleaned_ns(benchmark, fp);
    let ipc_program = ipc_ns(benchmark, fp);
    for run in raw {
        store.append_run(&renamed(&run.record, &raw_program))?;
    }
    for run in &snapshot.runs {
        store.append_run(&renamed(&run.record, &cleaned_program))?;
        store.append_series(
            SeriesKey::new(
                ipc_program.clone(),
                run.record.run_index(),
                SNAPSHOT_MODE,
                EventId::new(0),
            ),
            run.ipc.values(),
        )?;
    }
    let events: Vec<String> = snapshot
        .events
        .iter()
        .map(|e| e.index().to_string())
        .collect();
    store.set_meta(meta_key(benchmark, "fingerprint"), format!("{fp:016x}"));
    store.set_meta(meta_key(benchmark, "events"), events.join(","));
    store.set_meta(meta_key(benchmark, "runs"), snapshot.runs.len().to_string());
    store.set_meta(
        meta_key(benchmark, "outliers"),
        snapshot.tally.outliers_replaced.to_string(),
    );
    store.set_meta(
        meta_key(benchmark, "missing"),
        snapshot.tally.missing_filled.to_string(),
    );
    let kind = if snapshot.uncertainty.is_some() {
        CleanerKind::Bayes
    } else {
        CleanerKind::Point
    };
    store.set_meta(meta_key(benchmark, "cleaner"), kind.to_string());
    if let Some(aggregates) = &snapshot.uncertainty {
        store.set_meta(
            meta_key(benchmark, "uncertainty"),
            encode_aggregates(aggregates),
        );
    }
    Ok(())
}

fn parsed_meta(store: &Store, benchmark: Benchmark, field: &str) -> Result<usize, CmError> {
    store
        .meta(&meta_key(benchmark, field))
        .and_then(|v| v.parse().ok())
        .ok_or(CmError::Invalid(
            "snapshot metadata is incomplete; re-ingest the benchmark",
        ))
}

/// Loads the snapshot for `benchmark` if one with a matching fingerprint
/// is committed; `Ok(None)` means "no resumable snapshot" (absent or
/// stale fingerprint), which callers treat as a cache miss.
///
/// # Errors
///
/// A matching fingerprint with unreadable data is an error, not a miss:
/// checksum mismatches and truncations surface as
/// [`CmError::Store`] so silent re-collection never masks corruption.
pub(crate) fn load(
    store: &Store,
    benchmark: Benchmark,
    fp: u64,
) -> Result<Option<CleanedRuns>, CmError> {
    match store.meta(&meta_key(benchmark, "fingerprint")) {
        Some(stored) if stored == format!("{fp:016x}") => {}
        _ => return Ok(None),
    }
    let events: Vec<EventId> = store
        .meta(&meta_key(benchmark, "events"))
        .map(|list| {
            list.split(',')
                .map(|tok| tok.parse::<usize>().map(EventId::new))
                .collect::<Result<Vec<_>, _>>()
        })
        .transpose()
        .ok()
        .flatten()
        .ok_or(CmError::Invalid(
            "snapshot metadata is incomplete; re-ingest the benchmark",
        ))?;
    let n_runs = parsed_meta(store, benchmark, "runs")?;
    let outliers_replaced = parsed_meta(store, benchmark, "outliers")?;
    let missing_filled = parsed_meta(store, benchmark, "missing")?;
    // Bayes snapshots carry their column variance aggregates; their
    // absence under a bayes marker is corruption, not a miss.
    let uncertainty = match store.meta(&meta_key(benchmark, "cleaner")) {
        Some("bayes") => {
            let encoded =
                store
                    .meta(&meta_key(benchmark, "uncertainty"))
                    .ok_or(CmError::Invalid(
                        "snapshot metadata is incomplete; re-ingest the benchmark",
                    ))?;
            let aggregates = decode_aggregates(encoded)?;
            if aggregates.len() != events.len() {
                return Err(CmError::Invalid(
                    "snapshot uncertainty does not match its event list; re-ingest the benchmark",
                ));
            }
            Some(aggregates)
        }
        _ => None,
    };

    let cleaned_program = cleaned_ns(benchmark, fp);
    let ipc_program = ipc_ns(benchmark, fp);
    let mut runs = Vec::with_capacity(n_runs);
    for i in 0..n_runs {
        let record = store.read_run(&RunId::new(
            cleaned_program.clone(),
            i as u32,
            SNAPSHOT_MODE,
        ))?;
        let ipc = store.read_series_ts(&SeriesKey::new(
            ipc_program.clone(),
            i as u32,
            SNAPSHOT_MODE,
            EventId::new(0),
        ))?;
        runs.push(SimRun {
            record,
            ipc,
            true_counts: BTreeMap::new(),
        });
    }
    Ok(Some(CleanedRuns {
        runs,
        events,
        tally: CleanTally {
            outliers_replaced,
            missing_filled,
        },
        uncertainty,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarianceAggregate;
    use cm_events::TimeSeries as Ts;

    /// Fingerprints key every committed snapshot, so they must not move:
    /// pinned to the hand-rolled FNV-1a loop's values.
    #[test]
    fn fingerprint_is_pinned() {
        let config = MinerConfig {
            cleaner_kind: CleanerKind::Point,
            ..MinerConfig::default()
        };
        assert_eq!(
            fingerprint(
                Benchmark::Sort,
                &config,
                &[EventId::new(3), EventId::new(1)]
            ),
            0x5f98_f842_a144_e6e5
        );
        assert_eq!(
            fnv1a_extend(FNV1A_OFFSET, b"v3|Sort"),
            0x3580_4fd1_49a4_0cf6
        );
    }

    fn sim_run(program: &str, idx: u32, values: &[f64]) -> SimRun {
        let mut record = RunRecord::new(program, idx, SNAPSHOT_MODE);
        record.set_exec_time_secs(1.5);
        record.insert_series(EventId::new(3), Ts::from_values(values.to_vec()));
        record.insert_series(EventId::new(7), Ts::from_values(vec![0.5; values.len()]));
        SimRun {
            record,
            ipc: Ts::from_values(vec![1.25; values.len()]),
            true_counts: BTreeMap::new(),
        }
    }

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("cm_snapshot_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Store::open(dir.join("snap.cmstore")).unwrap()
    }

    #[test]
    fn fingerprint_tracks_collection_knobs_only() {
        let base = MinerConfig::default();
        let events = [EventId::new(3), EventId::new(7)];
        let fp = fingerprint(Benchmark::Wordcount, &base, &events);
        assert_eq!(fp, fingerprint(Benchmark::Wordcount, &base, &events));
        assert_ne!(fp, fingerprint(Benchmark::Sort, &base, &events));
        let mut reseeded = base;
        reseeded.seed = 99;
        assert_ne!(fp, fingerprint(Benchmark::Wordcount, &reseeded, &events));
        // Model-side settings must not invalidate collected data.
        let mut retuned = base;
        retuned.interaction_top_k = 3;
        retuned.aggregation_window = 4;
        assert_eq!(fp, fingerprint(Benchmark::Wordcount, &retuned, &events));
    }

    /// Regression: the fingerprint used to hash only the *count* of
    /// measured events, so two configurations measuring different
    /// event sets of the same size collided — one would silently resume
    /// from the other's data. It must hash the set, order-invariantly.
    #[test]
    fn fingerprint_covers_the_event_set_order_invariantly() {
        let config = MinerConfig::default();
        let a = [EventId::new(1), EventId::new(2), EventId::new(3)];
        let permuted = [EventId::new(3), EventId::new(1), EventId::new(2)];
        let different = [EventId::new(1), EventId::new(2), EventId::new(4)];
        let fp = fingerprint(Benchmark::Wordcount, &config, &a);
        // Same set, permuted order: identical data, identical fingerprint.
        assert_eq!(fp, fingerprint(Benchmark::Wordcount, &config, &permuted));
        // Different set of the same size: must never collide.
        assert_ne!(fp, fingerprint(Benchmark::Wordcount, &config, &different));
    }

    /// Regression: the fingerprint did not hash the cleaner *kind*, so a
    /// store ingested with the point cleaner warm-started a bayes
    /// analysis (and vice versa) — a stale bit-identical hit with the
    /// uncertainty silently missing.
    #[test]
    fn fingerprint_covers_cleaner_kind() {
        let events = [EventId::new(3), EventId::new(7)];
        let point = MinerConfig {
            cleaner_kind: CleanerKind::Point,
            ..MinerConfig::default()
        };
        let bayes = MinerConfig {
            cleaner_kind: CleanerKind::Bayes,
            ..MinerConfig::default()
        };
        assert_ne!(
            fingerprint(Benchmark::Wordcount, &point, &events),
            fingerprint(Benchmark::Wordcount, &bayes, &events),
        );
    }

    #[test]
    fn bayes_uncertainty_roundtrips_bit_exactly() {
        let mut store = temp_store("uncertainty");
        let fp = 0xBA1E5;
        let raw = vec![sim_run("wordcount", 0, &[1.0, 2.0])];
        let aggregates = vec![
            VarianceAggregate {
                sum_variance: 1.0 / 3.0,
                reconstructed: 2,
                sum_squares: 5.0,
                samples: 2,
            },
            VarianceAggregate::default(),
        ];
        let snap = CleanedRuns {
            runs: vec![sim_run("wordcount", 0, &[1.0, 2.0])],
            events: vec![EventId::new(3), EventId::new(7)],
            tally: CleanTally {
                outliers_replaced: 1,
                missing_filled: 1,
            },
            uncertainty: Some(aggregates.clone()),
        };
        save(&mut store, Benchmark::Wordcount, fp, &raw, &snap).unwrap();
        store.commit().unwrap();
        let loaded = load(&store, Benchmark::Wordcount, fp).unwrap().unwrap();
        let loaded_aggregates = loaded
            .uncertainty
            .expect("bayes snapshot keeps uncertainty");
        assert_eq!(loaded_aggregates.len(), aggregates.len());
        for (a, b) in loaded_aggregates.iter().zip(&aggregates) {
            assert_eq!(a.sum_variance.to_bits(), b.sum_variance.to_bits());
            assert_eq!(a.sum_squares.to_bits(), b.sum_squares.to_bits());
            assert_eq!(a.reconstructed, b.reconstructed);
            assert_eq!(a.samples, b.samples);
        }
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let mut store = temp_store("roundtrip");
        let fp = 0xDEAD_BEEF;
        let raw = vec![sim_run("wordcount", 0, &[900.0, 905.5, 890.0])];
        let snap = CleanedRuns {
            runs: vec![sim_run("wordcount", 0, &[900.0, 901.0, 899.0])],
            events: vec![EventId::new(3), EventId::new(7)],
            tally: CleanTally {
                outliers_replaced: 2,
                missing_filled: 1,
            },
            uncertainty: None,
        };
        save(&mut store, Benchmark::Wordcount, fp, &raw, &snap).unwrap();
        store.commit().unwrap();

        let loaded = load(&store, Benchmark::Wordcount, fp).unwrap().unwrap();
        assert_eq!(loaded.events, snap.events);
        assert_eq!(loaded.tally.outliers_replaced, 2);
        assert_eq!(loaded.tally.missing_filled, 1);
        assert_eq!(loaded.runs.len(), 1);
        assert_eq!(
            loaded.runs[0]
                .record
                .series(EventId::new(3))
                .unwrap()
                .values(),
            &[900.0, 901.0, 899.0]
        );
        assert_eq!(loaded.runs[0].ipc.values(), &[1.25; 3]);
        assert_eq!(loaded.runs[0].record.exec_time_secs(), 1.5);
        // A different fingerprint is a miss, not an error.
        assert!(load(&store, Benchmark::Wordcount, fp + 1)
            .unwrap()
            .is_none());
        assert!(load(&store, Benchmark::Sort, fp).unwrap().is_none());
    }

    #[test]
    fn snapshots_for_two_configs_coexist() {
        let mut store = temp_store("coexist");
        for fp in [1u64, 2u64] {
            let raw = vec![sim_run("wordcount", 0, &[1.0, 2.0])];
            let snap = CleanedRuns {
                runs: vec![sim_run("wordcount", 0, &[1.0, 2.0])],
                events: vec![EventId::new(3), EventId::new(7)],
                tally: CleanTally {
                    outliers_replaced: 0,
                    missing_filled: 0,
                },
                uncertainty: None,
            };
            save(&mut store, Benchmark::Wordcount, fp, &raw, &snap).unwrap();
        }
        store.commit().unwrap();
        // The metadata points at the latest fingerprint; the older
        // snapshot's series are still on disk under their namespace.
        assert!(load(&store, Benchmark::Wordcount, 2).unwrap().is_some());
        assert!(load(&store, Benchmark::Wordcount, 1).unwrap().is_none());
        assert!(store
            .programs()
            .iter()
            .any(|p| p == "wordcount@0000000000000001#cleaned"));
    }
}
