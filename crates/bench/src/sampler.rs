//! A std-only benchmark sampler for the `benches/` targets.
//!
//! Each bench binary builds one [`Sampler`], opens a [`Group`] per
//! benchmark group with that group's sample count, and times closures
//! under `group/function/param` ids. Under `cargo bench` (which passes
//! `--bench`) every closure is warmed up, then timed over the group's
//! samples; the mean time per iteration of each id is printed and
//! written as an `ns_per_iter` map to `<target dir>/cm-bench/<name>.json`,
//! the report format the `perf_gate` binary reads through `--fresh`.
//! Run any other way (`cargo test --benches`), each closure runs once as
//! a smoke test and nothing is written.
//!
//! ```no_run
//! use cm_bench::sampler::Sampler;
//!
//! let mut sampler = Sampler::from_args("example");
//! let mut group = sampler.group("sum", 20);
//! for n in [100u64, 1000] {
//!     group.bench(format!("range/{n}"), || (0..std::hint::black_box(n)).sum::<u64>());
//! }
//! sampler.finish();
//! ```

use std::fmt::Display;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How long each id runs untimed before its samples.
const WARM_UP: Duration = Duration::from_secs(1);

/// Target total time of one id's timed samples.
const MEASURE: Duration = Duration::from_secs(3);

/// Collects the per-iteration times of one bench binary.
#[derive(Debug)]
pub struct Sampler {
    name: String,
    measure: bool,
    results: Vec<(String, f64)>,
}

impl Sampler {
    /// A sampler named after its bench binary; it measures when the
    /// process arguments include `--bench`, as under `cargo bench`.
    pub fn from_args(name: &str) -> Self {
        Sampler {
            name: name.to_string(),
            measure: std::env::args().any(|arg| arg == "--bench"),
            results: Vec::new(),
        }
    }

    /// Opens a benchmark group whose ids each take `sample_size` samples.
    pub fn group(&mut self, name: &str, sample_size: usize) -> Group<'_> {
        Group {
            sampler: self,
            name: name.to_string(),
            sample_size: sample_size.max(1),
        }
    }

    /// Writes the `ns_per_iter` report of a measured run. A report that
    /// cannot be written is a failed bench run, so this panics on I/O
    /// errors.
    pub fn finish(self) {
        if !self.measure || self.results.is_empty() {
            return;
        }
        let dir = report_dir();
        std::fs::create_dir_all(&dir).expect("create the bench report directory");
        let path = dir.join(format!("{}.json", self.name));
        let entries: Vec<String> = self
            .results
            .iter()
            .map(|(id, ns)| format!("    \"{id}\": {}", ns.round() as u64))
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"{}\",\n  \"ns_per_iter\": {{\n{}\n  }}\n}}\n",
            self.name,
            entries.join(",\n")
        );
        std::fs::write(&path, json).expect("write the bench report");
        println!("wrote {}", path.display());
    }
}

/// The directory reports land in: `cm-bench/` under the Cargo target
/// directory, found from the bench executable's own path
/// (`<target>/<profile>/deps/<bench>-<hash>`).
fn report_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("locate the bench executable");
    let target = exe
        .ancestors()
        .nth(3)
        .expect("bench executables live under <target>/<profile>/deps");
    target.join("cm-bench")
}

/// One benchmark group: a name prefix and a sample count.
#[derive(Debug)]
pub struct Group<'a> {
    sampler: &'a mut Sampler,
    name: String,
    sample_size: usize,
}

impl Group<'_> {
    /// Times `routine` under the id `<group>/<id>`.
    pub fn bench<R>(&mut self, id: impl Display, mut routine: impl FnMut() -> R) {
        self.bench_interleaved(&[id], |_| {}, |_| routine());
    }

    /// Times `routine(j)` under the id `<group>/<ids[j]>` for every `j`,
    /// taking the samples in turn (sample 1 of every id, then sample 2,
    /// ...), so a drift in host speed during the group lands on every id
    /// alike instead of on whichever ran last. `prepare(j)` runs, untimed,
    /// before each warm-up and each sample of id `j`: a serial/parallel
    /// pair sets its thread budget there.
    pub fn bench_interleaved<R>(
        &mut self,
        ids: &[impl Display],
        mut prepare: impl FnMut(usize),
        mut routine: impl FnMut(usize) -> R,
    ) {
        let ids: Vec<String> = ids.iter().map(|id| format!("{}/{id}", self.name)).collect();
        if !self.sampler.measure {
            for j in 0..ids.len() {
                prepare(j);
                black_box(routine(j));
            }
            return;
        }

        // Warm up each id, and estimate one iteration's cost while doing it.
        let per_sample = MEASURE.as_secs_f64() / self.sample_size as f64;
        let iters: Vec<u64> = (0..ids.len())
            .map(|j| {
                prepare(j);
                let start = Instant::now();
                let mut warm_iters = 0u64;
                while warm_iters == 0 || start.elapsed() < WARM_UP {
                    black_box(routine(j));
                    warm_iters += 1;
                }
                let per_iter = start.elapsed().as_secs_f64() / warm_iters as f64;
                ((per_sample / per_iter).ceil() as u64).max(1)
            })
            .collect();

        let mut total_ns = vec![0.0; ids.len()];
        for _ in 0..self.sample_size {
            for (j, &iters) in iters.iter().enumerate() {
                prepare(j);
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(routine(j));
                }
                total_ns[j] += t.elapsed().as_nanos() as f64 / iters as f64;
            }
        }
        for ((id, total_ns), iters) in ids.into_iter().zip(total_ns).zip(iters) {
            let ns = total_ns / self.sample_size as f64;
            println!(
                "{id:<48} {:>14.0} ns/iter  ({} x {iters} iters)",
                ns, self.sample_size
            );
            self.sampler.results.push((id, ns));
        }
    }
}
