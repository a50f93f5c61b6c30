//! Seeded fault injection for the store's filesystem seam.
//!
//! [`FaultFs`] wraps any [`Vfs`] (the real filesystem by default) and
//! injects a deterministic, seed-derived schedule of I/O faults into
//! the files it opens: short reads, failed writes (`ENOSPC`-style),
//! short and torn writes, fsync failures, and silent single-bit
//! corruption of written data. Sequential writes (a compaction's new
//! file) and positioned writes (an append commit's tail and slot flip)
//! are both targets. The schedule is a pure function of the seed, so a
//! failing chaos run replays exactly.
//!
//! Every injected fault is tallied locally (see
//! [`FaultFs::injected`]) and on the [`cm_obs`] counters under the
//! `chaos.*` namespace (`chaos.faults.injected`, plus one counter per
//! kind such as `chaos.faults.bit_flip`).

use cm_par::Rng;
use cm_store::{RealFs, Vfs, VfsFile};
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// What kind of fault was injected into an I/O operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A positioned read reported fewer bytes than requested.
    ShortRead,
    /// A write failed outright, as when the device is out of space.
    FailWrite,
    /// A write persisted only a prefix of the buffer, then failed.
    ShortWrite,
    /// A positioned write persisted only a suffix of the buffer — its
    /// sectors landed out of order — then failed.
    TornWrite,
    /// `fsync` reported failure after the data was buffered.
    FailSync,
    /// One bit of the written payload was flipped — *silently*; the
    /// write itself reports success, modeling firmware/media corruption.
    BitFlip,
}

impl FaultKind {
    fn counter(self) -> &'static str {
        match self {
            FaultKind::ShortRead => "chaos.faults.short_read",
            FaultKind::FailWrite => "chaos.faults.fail_write",
            FaultKind::ShortWrite => "chaos.faults.short_write",
            FaultKind::TornWrite => "chaos.faults.torn_write",
            FaultKind::FailSync => "chaos.faults.fail_sync",
            FaultKind::BitFlip => "chaos.faults.bit_flip",
        }
    }
}

/// One scheduled fault: fires at the `op`-th counted I/O operation.
/// `flavor` picks among the kinds valid for that operation's type and
/// `aux` parameterizes it (bit index, short-write split point).
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    op: u64,
    flavor: u64,
    aux: u64,
}

#[derive(Debug)]
struct State {
    ops: u64,
    armed: bool,
    schedule: Vec<Scheduled>,
    injected: Vec<FaultKind>,
}

impl State {
    /// Returns the fault scheduled for the current operation, if any,
    /// and advances the operation counter.
    fn tick(&mut self) -> Option<Scheduled> {
        let op = self.ops;
        self.ops += 1;
        if !self.armed {
            return None;
        }
        self.schedule.iter().find(|s| s.op == op).copied()
    }

    fn record(&mut self, kind: FaultKind) {
        self.injected.push(kind);
        cm_obs::counter_add("chaos.faults.injected", 1);
        cm_obs::counter_add(kind.counter(), 1);
    }
}

/// How many leading I/O operations the seeded schedule can target.
/// A store open + commit + read-back lands well inside this window.
const SCHEDULE_WINDOW: u64 = 48;

/// A fault-injecting [`Vfs`] wrapper.
///
/// # Examples
///
/// ```
/// use cm_chaos::FaultFs;
/// use cm_store::{CacheConfig, Store};
/// use std::sync::Arc;
///
/// let dir = std::env::temp_dir().join(format!("cm_faultfs_doc_{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let fs = Arc::new(FaultFs::new(1));
/// // Whatever the injected faults do, the store never panics: every
/// // outcome is Ok or a typed StoreError.
/// match Store::open_with_vfs(dir.join("doc.cmstore"), CacheConfig::default(), fs.clone()) {
///     Ok(_) | Err(_) => {}
/// }
/// ```
#[derive(Debug)]
pub struct FaultFs {
    inner: Arc<dyn Vfs>,
    state: Arc<Mutex<State>>,
}

impl FaultFs {
    /// Wraps the real filesystem with the fault schedule derived from
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        Self::wrapping(Arc::new(RealFs), seed)
    }

    /// Wraps an arbitrary inner [`Vfs`] with the schedule for `seed`.
    pub fn wrapping(inner: Arc<dyn Vfs>, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let n = 1 + rng.below(3); // 1..=3 faults per seed
        let mut schedule = Vec::with_capacity(n as usize);
        for _ in 0..n {
            schedule.push(Scheduled {
                op: rng.below(SCHEDULE_WINDOW),
                flavor: rng.next_u64(),
                aux: rng.next_u64(),
            });
        }
        FaultFs {
            inner,
            state: Arc::new(Mutex::new(State {
                ops: 0,
                armed: true,
                schedule,
                injected: Vec::new(),
            })),
        }
    }

    /// Stops injecting; subsequent I/O passes through untouched. Used
    /// by recovery checks that must observe the store's true state.
    pub fn disarm(&self) {
        lock(&self.state).armed = false;
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        lock(&self.state).injected.len() as u64
    }

    /// The kinds injected so far, in injection order.
    pub fn injected_kinds(&self) -> Vec<FaultKind> {
        lock(&self.state).injected.clone()
    }
}

/// Never propagates lock poisoning: a chaos harness must keep working
/// after a panicking test thread.
fn lock(state: &Mutex<State>) -> MutexGuard<'_, State> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

fn injected_err(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

impl Vfs for FaultFs {
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(FaultFile {
            inner: self.inner.open(path)?,
            state: self.state.clone(),
        }))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(FaultFile {
            inner: self.inner.open_rw(path)?,
            state: self.state.clone(),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(FaultFile {
            inner: self.inner.create(path)?,
            state: self.state.clone(),
        }))
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
}

/// A file handle whose data operations consult the shared fault
/// schedule. Operations are counted across every file the owning
/// [`FaultFs`] opened, so one seed exercises one global fault sequence.
#[derive(Debug)]
struct FaultFile {
    inner: Box<dyn VfsFile>,
    state: Arc<Mutex<State>>,
}

impl VfsFile for FaultFile {
    fn len(&self) -> io::Result<u64> {
        // Metadata reads are not interesting fault targets.
        self.inner.len()
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let fired = lock(&self.state).tick();
        if fired.is_some() {
            lock(&self.state).record(FaultKind::ShortRead);
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "injected fault: short read",
            ));
        }
        self.inner.read_exact_at(buf, offset)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let fired = lock(&self.state).tick();
        match fired {
            None => self.inner.write_all(buf),
            Some(s) => match s.flavor % 3 {
                0 => {
                    lock(&self.state).record(FaultKind::FailWrite);
                    Err(injected_err("no space left on device"))
                }
                1 => {
                    lock(&self.state).record(FaultKind::ShortWrite);
                    let keep = (s.aux as usize) % (buf.len() + 1);
                    self.inner.write_all(&buf[..keep])?;
                    Err(injected_err("short write"))
                }
                _ => {
                    lock(&self.state).record(FaultKind::BitFlip);
                    let mut corrupt = buf.to_vec();
                    if !corrupt.is_empty() {
                        let bit = (s.aux as usize) % (corrupt.len() * 8);
                        corrupt[bit / 8] ^= 1 << (bit % 8);
                    }
                    // Silent: the caller sees success.
                    self.inner.write_all(&corrupt)
                }
            },
        }
    }

    fn write_all_at(&mut self, buf: &[u8], offset: u64) -> io::Result<()> {
        let fired = lock(&self.state).tick();
        let Some(s) = fired else {
            return self.inner.write_all_at(buf, offset);
        };
        let split = (s.aux as usize) % (buf.len() + 1);
        match s.flavor % 4 {
            0 => {
                lock(&self.state).record(FaultKind::FailWrite);
                Err(injected_err("no space left on device"))
            }
            1 => {
                lock(&self.state).record(FaultKind::ShortWrite);
                self.inner.write_all_at(&buf[..split], offset)?;
                Err(injected_err("short write"))
            }
            2 => {
                lock(&self.state).record(FaultKind::TornWrite);
                self.inner
                    .write_all_at(&buf[split..], offset + split as u64)?;
                Err(injected_err("torn write"))
            }
            _ => {
                lock(&self.state).record(FaultKind::BitFlip);
                let mut corrupt = buf.to_vec();
                if !corrupt.is_empty() {
                    let bit = (s.aux as usize) % (corrupt.len() * 8);
                    corrupt[bit / 8] ^= 1 << (bit % 8);
                }
                // Silent: the caller sees success.
                self.inner.write_all_at(&corrupt, offset)
            }
        }
    }

    fn sync_all(&mut self) -> io::Result<()> {
        let fired = lock(&self.state).tick();
        if fired.is_some() {
            lock(&self.state).record(FaultKind::FailSync);
            return Err(injected_err("fsync failed"));
        }
        self.inner.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cm_fault_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn shape(seed: u64) -> Vec<(u64, u64, u64)> {
        let fs = FaultFs::new(seed);
        let sched: Vec<_> = lock(&fs.state)
            .schedule
            .iter()
            .map(|s| (s.op, s.flavor, s.aux))
            .collect();
        sched
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        assert_eq!(shape(7), shape(7));
        assert_ne!(shape(7), shape(8));
    }

    /// Pins the schedules of seeds 0–3: a recorded fault sweep replays
    /// only while the schedule a seed draws stays fixed.
    #[test]
    fn schedules_are_pinned() {
        let pinned: [&[(u64, u64, u64)]; 4] = [
            &[
                (36, 0x06c4_5d18_8009_454f, 0xf88b_b8a8_724c_81ec),
                (43, 0x53cb_9f0c_747e_a2ea, 0x2c82_9abe_1f45_32e1),
            ],
            &[
                (7, 0xf893_a2ee_fb32_555e, 0x71c1_8690_ee42_c90b),
                (9, 0xc34d_0bff_9015_0280, 0xe099_ec6c_d736_3ca5),
                (21, 0x4917_18de_357e_3da8, 0xcb43_5c8e_7461_6796),
            ],
            &[
                (2, 0x987b_bcbf_dd7e_532f, 0xc3f2_827a_ffe7_f664),
                (25, 0x58bc_3cb3_7bc7_b2b3, 0xb9f2_4f7b_ae4a_6586),
            ],
            &[(9, 0x9ceb_e8a6_d050_dd01, 0x12a7_64fb_66ab_c9cf)],
        ];
        for (seed, want) in pinned.iter().enumerate() {
            assert_eq!(shape(seed as u64), *want, "seed {seed}");
        }
    }

    #[test]
    fn faults_fire_and_are_tallied() {
        let dir = temp_dir("tally");
        // Scan seeds until one injects on the write path, proving the
        // schedule connects to real I/O (most seeds fire within the
        // first few ops of a small write workload).
        let mut fired = false;
        for seed in 0..32 {
            let fs = FaultFs::new(seed);
            let mut f = Vfs::create(&fs, &dir.join(format!("f{seed}"))).unwrap();
            for _ in 0..SCHEDULE_WINDOW {
                let _ = f.write_all(b"0123456789abcdef");
            }
            let _ = f.sync_all();
            if fs.injected() > 0 {
                fired = true;
                assert!(!fs.injected_kinds().is_empty());
                break;
            }
        }
        assert!(fired, "no seed in 0..32 injected a fault");
    }

    #[test]
    fn disarm_stops_injection() {
        let dir = temp_dir("disarm");
        let fs = FaultFs::new(3);
        fs.disarm();
        let mut f = Vfs::create(&fs, &dir.join("f")).unwrap();
        for _ in 0..SCHEDULE_WINDOW + 8 {
            f.write_all(b"payload").unwrap();
        }
        f.sync_all().unwrap();
        assert_eq!(fs.injected(), 0);
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let dir = temp_dir("flip");
        // Find a seed whose first scheduled fault is a bit flip at op 0.
        for seed in 0..256 {
            let fs = FaultFs::new(seed);
            // Match `State::tick` exactly: the *first* entry for op 0 wins.
            let flips_at_zero = lock(&fs.state)
                .schedule
                .iter()
                .find(|s| s.op == 0)
                .is_some_and(|s| s.flavor % 3 == 2);
            if !flips_at_zero {
                continue;
            }
            let path = dir.join(format!("f{seed}"));
            let payload = vec![0u8; 64];
            {
                let mut f = Vfs::create(&fs, &path).unwrap();
                f.write_all(&payload).unwrap();
                fs.disarm();
                f.sync_all().unwrap();
            }
            let got = std::fs::read(&path).unwrap();
            let flipped: u32 = got
                .iter()
                .zip(&payload)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped, 1, "seed {seed} flipped {flipped} bits");
            assert_eq!(fs.injected_kinds(), vec![FaultKind::BitFlip]);
            return;
        }
        panic!("no seed in 0..256 schedules a bit flip at op 0");
    }
}
