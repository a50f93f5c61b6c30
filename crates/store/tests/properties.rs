//! Property-based tests for the two-level store: arbitrary finite data
//! must survive a commit and reopen exactly, and a run key is accepted
//! once. Each property runs over `CASES` seeded inputs, and a failure
//! names its seed.

use cm_events::{EventId, RunRecord, SampleMode, TimeSeries};
use cm_par::Rng;
use cm_store::{RunId, Store, StoreError};
use std::path::PathBuf;

const CASES: u64 = 24;

/// Up to 39 values, each equally likely to be a wide finite value, `0.0`,
/// `-0.0` or a tiny positive value.
fn series(rng: &mut Rng) -> Vec<f64> {
    let n = rng.range_usize(0..40);
    (0..n)
        .map(|_| match rng.below(4) {
            0 => rng.range_f64(-1.0e12..1.0e12),
            1 => 0.0,
            2 => -0.0,
            _ => rng.range_f64(1.0e-12..1.0e-6),
        })
        .collect()
}

/// A program name: one ASCII letter, then `extra` characters from
/// `[a-zA-Z0-9_+-]`, with `extra` drawn from `0..=max_extra`.
fn program(rng: &mut Rng, max_extra: usize) -> String {
    const LETTERS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_+-";
    let mut name = String::from(LETTERS[rng.range_usize(0..LETTERS.len())] as char);
    for _ in 0..rng.range_usize(0..max_extra + 1) {
        name.push(REST[rng.range_usize(0..REST.len())] as char);
    }
    name
}

/// `1..=max_len` lowercase letters.
fn lowercase(rng: &mut Rng, max_len: usize) -> String {
    (0..rng.range_usize(1..max_len + 1))
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect()
}

/// A fresh store path for one case.
fn store_path(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cm_store_prop_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}_{seed}.cmstore"));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn roundtrip_preserves_arbitrary_runs() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let program = program(&mut rng, 16);
        let exec_time = rng.range_f64(0.0..1.0e6);
        let series_a = series(&mut rng);
        let series_b = series(&mut rng);
        let run_index = rng.below(8) as u32;
        let mode = if rng.chance(0.5) {
            SampleMode::Mlpx
        } else {
            SampleMode::Ocoe
        };
        let mut run = RunRecord::new(program.clone(), run_index, mode);
        run.set_exec_time_secs(exec_time);
        run.insert_series(EventId::new(0), TimeSeries::from_values(series_a));
        run.insert_series(EventId::new(228), TimeSeries::from_values(series_b));

        let path = store_path("roundtrip", seed);
        let mut store = Store::open(&path).unwrap();
        store.append_run(&run).unwrap();
        store.commit().unwrap();
        let loaded = Store::open(&path).unwrap();
        let got = loaded
            .read_run(&RunId::new(program.clone(), run_index, mode))
            .expect("run present");
        std::fs::remove_file(&path).ok();

        assert_eq!(got.exec_time_secs(), exec_time, "seed {seed}");
        for event in [EventId::new(0), EventId::new(228)] {
            let original = run.series(event).unwrap();
            // Bit-level equality: `-0.0` must come back as `-0.0`.
            let bits = |ts: &TimeSeries| ts.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(got.series(event).unwrap()),
                bits(original),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn duplicate_keys_always_rejected() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let program = lowercase(&mut rng, 8);
        let run_index = rng.below(4) as u32;
        let path = store_path("duplicate", seed);
        let mut store = Store::open(&path).unwrap();
        let run = RunRecord::new(program.clone(), run_index, SampleMode::Ocoe);
        store.append_run(&run).unwrap();
        assert!(
            matches!(store.append_run(&run), Err(StoreError::DuplicateRun { .. })),
            "seed {seed}"
        );
        assert_eq!(store.run_ids().count(), 1, "seed {seed}");
    }
}
