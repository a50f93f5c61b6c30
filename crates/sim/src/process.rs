//! Per-event stochastic processes.
//!
//! Each event's per-interval activity is an AR(1) process with
//! family-dependent innovations (Gaussian for Gaussian-tagged events,
//! centred Gumbel for long-tail ones), occasional bursts, and phase
//! effects (the cold-start instruction-cache spike of Fig. 2(b), periodic
//! shuffle bursts). The process produces both a *normalized activity*
//! `z` (what the ground-truth IPC model consumes) and a *raw count*
//! (what the PMU measures).

use cm_events::{EventInfo, EventKind, TailFamily};
use cm_par::Rng;

/// Static parameters of one event's activity process for one benchmark.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProcessParams {
    /// Mean per-interval count.
    pub mu: f64,
    /// Coefficient of variation mapping `z` to counts.
    pub cv: f64,
    /// AR(1) autocorrelation.
    pub rho: f64,
    /// Within-interval burst concentration in `[0, 1)`; high values mean
    /// the interval's activity lands in few subslices (what makes MLPX
    /// lossy).
    pub burstiness: f64,
    /// Probability of a burst interval (adds a large positive `z` jump).
    pub burst_prob: f64,
    /// Innovation family.
    pub family: TailFamily,
    /// Cold-start multiplier applied over the first ~5 % of intervals
    /// (1.0 = no cold-start effect).
    pub cold_start: f64,
    /// Amplitude of the periodic phase component (shuffle waves in batch
    /// jobs, request waves in services); 0 disables it.
    pub phase_amplitude: f64,
    /// Period of the phase component, in intervals.
    pub phase_period: f64,
    /// Phase offset, radians.
    pub phase_offset: f64,
}

impl ProcessParams {
    /// Derives process parameters for an event within a benchmark,
    /// deterministically from the event metadata and a benchmark salt.
    pub fn derive(info: &EventInfo, salt: u64) -> Self {
        // Cheap deterministic hash for per-(event, benchmark) variety:
        // the first draw of a generator seeded with the (event, salt) key.
        let h = Rng::new(info.id().index() as u64 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .next_u64();
        let unit = |k: u64| ((h >> k) & 0xFFFF) as f64 / 65535.0;

        let (cv, rho, burstiness, burst_prob) = match info.family() {
            TailFamily::Gaussian => (
                0.10 + 0.10 * unit(0),
                0.55 + 0.25 * unit(16),
                0.05 + 0.20 * unit(32),
                0.002,
            ),
            TailFamily::LongTail => (
                0.25 + 0.25 * unit(0),
                0.45 + 0.30 * unit(16),
                0.45 + 0.40 * unit(32),
                0.02 + 0.03 * unit(48),
            ),
        };
        // Cold caches and TLBs: strong start-of-run transient.
        let cold_start = match info.kind() {
            EventKind::Cache | EventKind::Frontend => 3.0 + 1.5 * unit(8),
            EventKind::Tlb => 2.0 + 2.0 * unit(8),
            _ => 1.0,
        };
        // Memory and cache events ride the workload's phase structure
        // (map/shuffle waves, request bursts); front-end throughput
        // events are steadier.
        let phase_amplitude = match info.kind() {
            EventKind::Memory | EventKind::Cache => 0.45 + 0.45 * unit(40),
            EventKind::Tlb => 0.15 + 0.25 * unit(40),
            _ => 0.1 * unit(40),
        };
        ProcessParams {
            mu: info.base_scale() * (0.5 + unit(24)),
            cv,
            rho,
            burstiness,
            burst_prob,
            family: info.family(),
            cold_start,
            phase_amplitude,
            phase_period: 32.0 + 96.0 * unit(44),
            phase_offset: 2.0 * std::f64::consts::PI * unit(52),
        }
    }
}

impl ProcessParams {
    /// Blends two parameter sets, `weight` toward `self` (the family
    /// component) and `1 - weight` toward `other` (the benchmark's own
    /// component). Every numeric field is a convex combination, so the
    /// blend stays inside the ranges [`ProcessParams::derive`]
    /// guarantees; the innovation family comes from the event metadata
    /// and is identical on both sides.
    pub fn blend(self, other: ProcessParams, weight: f64) -> ProcessParams {
        debug_assert!((0.0..=1.0).contains(&weight));
        debug_assert_eq!(self.family, other.family);
        let mix = |a: f64, b: f64| weight * a + (1.0 - weight) * b;
        ProcessParams {
            mu: mix(self.mu, other.mu),
            cv: mix(self.cv, other.cv),
            rho: mix(self.rho, other.rho),
            burstiness: mix(self.burstiness, other.burstiness),
            burst_prob: mix(self.burst_prob, other.burst_prob),
            family: self.family,
            cold_start: mix(self.cold_start, other.cold_start),
            phase_amplitude: mix(self.phase_amplitude, other.phase_amplitude),
            phase_period: mix(self.phase_period, other.phase_period),
            phase_offset: mix(self.phase_offset, other.phase_offset),
        }
    }
}

/// Smallest per-interval activity an active event can emit, as a
/// fraction of its mean count (see the floor in [`ProcessState::step`]).
const MIN_ACTIVITY: f64 = 1e-3;

/// Evolving state of one event's process during a run.
#[derive(Debug, Clone)]
pub(crate) struct ProcessState {
    params: ProcessParams,
    /// `sqrt(1 - rho²)`: the AR(1) innovation scale, fixed per process.
    innovation_scale: f64,
    ar: f64,
}

impl ProcessState {
    pub fn new(params: ProcessParams) -> Self {
        ProcessState {
            params,
            innovation_scale: (1.0 - params.rho * params.rho).sqrt(),
            ar: 0.0,
        }
    }

    /// Advances `rng` past one interval of this process exactly as
    /// [`ProcessState::step`] would, computing nothing: two draws for a
    /// Gaussian innovation, one for a long-tail one, one for the burst
    /// check and one more when the burst fires. An event nothing reads
    /// skips every interval of a run, so every event after it still
    /// sees the draws it would have seen; its own AR state is left
    /// stale, so one run must not mix `skip` and `step` on one state.
    pub fn skip(&self, rng: &mut Rng) {
        let innovation_draws = match self.params.family {
            TailFamily::Gaussian => 2,
            TailFamily::LongTail => 1,
        };
        for _ in 0..innovation_draws {
            rng.next_u64();
        }
        if rng.next_f64() < self.params.burst_prob {
            rng.next_u64();
        }
    }

    /// Advances one interval; returns `(z, count)`.
    ///
    /// `t` is the interval index and `n` the total interval count of the
    /// run (for phase effects).
    pub fn step(&mut self, t: usize, n: usize, rng: &mut Rng) -> (f64, f64) {
        let p = &self.params;
        let eps = match p.family {
            TailFamily::Gaussian => gaussian(rng),
            // Centred Gumbel: right-skewed innovations with mean 0 and
            // roughly unit variance.
            TailFamily::LongTail => (gumbel_std(rng) - 0.5772) / 1.2825,
        };
        self.ar = p.rho * self.ar + self.innovation_scale * eps;
        let mut z = self.ar;
        if rng.next_f64() < p.burst_prob {
            z += 1.8 + 2.2 * rng.next_f64();
        }
        // Periodic workload phase (shuffle/request waves).
        if p.phase_amplitude > 0.0 {
            z += p.phase_amplitude
                * (2.0 * std::f64::consts::PI * t as f64 / p.phase_period + p.phase_offset).sin();
        }
        // Cold-start transient over the first 5 % of the run, decaying
        // geometrically.
        if p.cold_start > 1.0 {
            let horizon = (n / 20).max(1);
            if t < horizon {
                let decay = 1.0 - t as f64 / horizon as f64;
                z += (p.cold_start - 1.0) * decay;
            }
        }
        // Floor the activity at a small positive fraction of the mean:
        // an *active* event's ground truth must never be exactly zero,
        // because exact zero is reserved as the signature of an
        // unobserved MLPX subslice (Fig. 2(b)'s missing values) and the
        // cleaner's zero-category rule keys on it. Without the floor, a
        // deep AR(1) excursion (`z <= -1/cv`) under a high-CV blend
        // clamps to 0.0 and an exactly-measured OCOE run appears to
        // contain missing samples.
        let count = p.mu * (1.0 + p.cv * z).max(MIN_ACTIVITY);
        (z, count)
    }
}

/// How one interval's activity splits across its subslices.
///
/// Calm intervals spread activity near-uniformly (mild jitter), so
/// time-based extrapolation is only mildly wrong — matching the paper's
/// moderate baseline MLPX error. *Burst* intervals (`z` well above the
/// process mean) concentrate activity: a burst may land entirely in one
/// subslice, which produces a gross over-estimate when that slice is
/// observed (Fig. 2(a)'s outliers) and an exact zero when it is not
/// (Fig. 2(b)'s missing values).
///
/// The split keeps only the raw jitter draws and the shape of the
/// interval; [`SubsliceSplit::weight`] forms one slice's weight on
/// demand, so the PMU pays a division only for the one or two slices
/// its event was scheduled in. Each weight is bit-identical to the
/// materialised weights of `subslice_weights` (kept as the test oracle).
pub(crate) struct SubsliceSplit<'a> {
    raw: &'a [f64],
    shape: Shape,
}

enum Shape {
    /// The whole burst landed in slice `hot`.
    OneHot { hot: usize },
    /// A `gamma` share rides slice `hot`; every slice carries
    /// `raw[k] · scale` besides.
    Partial { hot: usize, scale: f64, gamma: f64 },
    /// `raw[k] / total`.
    Even { total: f64 },
}

impl<'a> SubsliceSplit<'a> {
    /// Draws the split of one interval into `raw`, one jitter weight per
    /// subslice (`raw.len()` is the subslice count), making the same
    /// draws in the same order as the materialising oracle.
    pub fn draw(raw: &'a mut [f64], burstiness: f64, z: f64, rng: &mut Rng) -> Self {
        debug_assert!(!raw.is_empty());
        for w in raw.iter_mut() {
            *w = 1.0 + 0.25 * rng.next_f64();
        }
        let shape = if z > 1.35 {
            let gamma = (burstiness * (z - 1.35) / 2.5).clamp(0.0, 0.95);
            let hot = rng.range_usize(0..raw.len());
            if rng.next_f64() < 0.5 * gamma {
                Shape::OneHot { hot }
            } else {
                // Partial concentration: a mild gamma-fraction rides the
                // hot slice (gross concentrations were handled above).
                let gamma = 0.3 * gamma;
                let total: f64 = raw.iter().sum();
                Shape::Partial {
                    hot,
                    scale: (1.0 - gamma) / total,
                    gamma,
                }
            }
        } else {
            Shape::Even {
                total: raw.iter().sum(),
            }
        };
        SubsliceSplit { raw, shape }
    }

    /// The share of the interval's activity that lands in slice `k`.
    pub fn weight(&self, k: usize) -> f64 {
        match self.shape {
            Shape::OneHot { hot } => {
                if k == hot {
                    1.0
                } else {
                    0.0
                }
            }
            Shape::Partial { hot, scale, gamma } => {
                let w = self.raw[k] * scale;
                if k == hot {
                    w + gamma
                } else {
                    w
                }
            }
            Shape::Even { total } => self.raw[k] / total,
        }
    }
}

/// Splits an interval's activity across `s` subslices, returning weights
/// summing to 1: the materialising form of [`SubsliceSplit`], kept as
/// its oracle.
#[cfg(test)]
pub(crate) fn subslice_weights(s: usize, burstiness: f64, z: f64, rng: &mut Rng) -> Vec<f64> {
    debug_assert!(s > 0);
    let mut w: Vec<f64> = (0..s).map(|_| 1.0 + 0.25 * rng.next_f64()).collect();
    if z > 1.35 {
        let gamma = (burstiness * (z - 1.35) / 2.5).clamp(0.0, 0.95);
        let hot = rng.range_usize(0..s);
        if rng.next_f64() < 0.5 * gamma {
            w.fill(0.0);
            w[hot] = 1.0;
            return w;
        }
        let gamma = 0.3 * gamma;
        let total: f64 = w.iter().sum();
        for x in &mut w {
            *x *= (1.0 - gamma) / total;
        }
        w[hot] += gamma;
        return w;
    }
    let total: f64 = w.iter().sum();
    for x in &mut w {
        *x /= total;
    }
    w
}

fn gaussian(rng: &mut Rng) -> f64 {
    // Box–Muller; one value per call keeps the state simple.
    let u1: f64 = rng.next_f64().max(1e-12);
    let u2: f64 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn gumbel_std(rng: &mut Rng) -> f64 {
    let u: f64 = rng.next_f64().clamp(1e-12, 1.0 - 1e-12);
    -(-u.ln()).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_events::{abbrev, EventCatalog};

    fn catalog() -> EventCatalog {
        EventCatalog::haswell()
    }

    #[test]
    fn params_are_deterministic_per_salt() {
        let c = catalog();
        let info = c.by_abbrev(abbrev::ISF).unwrap();
        let a = ProcessParams::derive(info, 1);
        let b = ProcessParams::derive(info, 1);
        assert_eq!(a.mu, b.mu);
        assert_eq!(a.burstiness, b.burstiness);
        let other = ProcessParams::derive(info, 2);
        assert_ne!(a.mu, other.mu);
    }

    #[test]
    fn long_tail_events_are_burstier() {
        let c = catalog();
        let gaussian_b = ProcessParams::derive(c.by_abbrev(abbrev::BRB).unwrap(), 0).burstiness;
        let longtail_b = ProcessParams::derive(c.by_abbrev(abbrev::MSL).unwrap(), 0).burstiness;
        assert!(longtail_b > gaussian_b);
    }

    #[test]
    fn cache_events_have_cold_start() {
        let c = catalog();
        let icm = ProcessParams::derive(c.by_abbrev(abbrev::ICM).unwrap(), 0);
        assert!(icm.cold_start > 2.0);
        let brb = ProcessParams::derive(c.by_abbrev(abbrev::BRB).unwrap(), 0);
        assert_eq!(brb.cold_start, 1.0);
    }

    #[test]
    fn cold_start_raises_early_counts() {
        let c = catalog();
        let params = ProcessParams::derive(c.by_abbrev(abbrev::ICM).unwrap(), 3);
        let mut early_sum = 0.0;
        let mut late_sum = 0.0;
        for seed in 0..20 {
            let mut state = ProcessState::new(params);
            let mut rng = Rng::new(seed);
            let n = 200;
            for t in 0..n {
                let (_, count) = state.step(t, n, &mut rng);
                if t < 5 {
                    early_sum += count;
                } else if t >= n - 5 {
                    late_sum += count;
                }
            }
        }
        assert!(
            early_sum > 1.5 * late_sum,
            "early {early_sum} vs late {late_sum}"
        );
    }

    #[test]
    fn memory_events_carry_a_periodic_phase() {
        let c = catalog();
        let msl = ProcessParams::derive(c.by_abbrev(abbrev::MSL).unwrap(), 0);
        assert!(msl.phase_amplitude > 0.2);
        assert!(msl.phase_period >= 32.0);
        // Autocorrelation at the phase period should be visible: the
        // series has structure a pure AR(1) would not.
        let mut state = ProcessState::new(msl);
        let mut rng = Rng::new(3);
        let n = 2048;
        let zs: Vec<f64> = (0..n).map(|t| state.step(t, n, &mut rng).0).collect();
        let lag = msl.phase_period.round() as usize;
        let acf = cm_stats::descriptive::autocorrelation(&zs, lag).unwrap();
        let rho_phase = acf[lag];
        // AR(1) with rho ~0.6 would decay to ~0.6^lag ~ 0: a clearly
        // positive value at the full period indicates the wave.
        assert!(rho_phase > 0.03, "lag-{lag} autocorrelation {rho_phase}");
    }

    #[test]
    fn counts_are_nonnegative() {
        let c = catalog();
        for info in c.iter().take(30) {
            let mut state = ProcessState::new(ProcessParams::derive(info, 9));
            let mut rng = Rng::new(1);
            for t in 0..300 {
                let (_, count) = state.step(t, 300, &mut rng);
                assert!(count >= 0.0);
            }
        }
    }

    #[test]
    fn active_events_never_emit_exact_zero_counts() {
        // Exact zero is the MLPX missing-value signature (unobserved
        // subslice); ground truth for an active event must stay above
        // it, even for high-CV processes whose deep AR(1) excursions
        // used to clamp to 0.0. Regression test for the activity floor.
        let c = catalog();
        for salt in 0..8u64 {
            for info in c.iter().take(40) {
                let mut params = ProcessParams::derive(info, salt);
                params.cv = params.cv.max(1.5); // force clamp-prone regime
                let mut state = ProcessState::new(params);
                let mut rng = Rng::new(salt);
                for t in 0..400 {
                    let (_, count) = state.step(t, 400, &mut rng);
                    assert!(
                        count > 0.0,
                        "event {} salt {salt} emitted an exact-zero count",
                        info.id()
                    );
                }
            }
        }
    }

    #[test]
    fn subslice_weights_sum_to_one() {
        let mut rng = Rng::new(5);
        for &(s, b, z) in &[(1usize, 0.0, 0.0), (12, 0.5, 0.0), (12, 0.9, 4.0)] {
            let w = subslice_weights(s, b, z, &mut rng);
            assert_eq!(w.len(), s);
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(w.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn lazy_split_matches_materialised_oracle() {
        let mut raw = [0.0; 24];
        let (mut one_hot, mut partial) = (0, 0);
        for s in [1usize, 2, 15, 24] {
            for burstiness in [0.0, 0.3, 0.9] {
                for z in [-1.0, 0.0, 1.35, 1.36, 2.0, 4.0, 9.0] {
                    for seed in 0..40 {
                        let mut oracle_rng = Rng::new(seed);
                        let mut lazy_rng = Rng::new(seed);
                        let oracle = subslice_weights(s, burstiness, z, &mut oracle_rng);
                        let split =
                            SubsliceSplit::draw(&mut raw[..s], burstiness, z, &mut lazy_rng);
                        match split.shape {
                            Shape::OneHot { .. } => one_hot += 1,
                            Shape::Partial { .. } => partial += 1,
                            Shape::Even { .. } => {}
                        }
                        for (k, w) in oracle.iter().enumerate() {
                            assert_eq!(split.weight(k).to_bits(), w.to_bits(), "s={s} z={z} k={k}");
                        }
                        assert_eq!(lazy_rng, oracle_rng, "same draws, same order");
                    }
                }
            }
        }
        assert!(
            one_hot > 100 && partial > 100,
            "{one_hot} one-hot, {partial} partial"
        );
    }

    #[test]
    fn skip_makes_exactly_the_draws_of_step() {
        let c = catalog();
        for (abbrev, family) in [
            (abbrev::BRB, TailFamily::Gaussian),
            (abbrev::MSL, TailFamily::LongTail),
        ] {
            let derived = ProcessParams::derive(c.by_abbrev(abbrev).unwrap(), 4);
            assert_eq!(derived.family, family);
            // Never, always and sometimes bursting.
            for burst_prob in [0.0, 1.0, 0.5, derived.burst_prob] {
                let params = ProcessParams {
                    burst_prob,
                    ..derived
                };
                for seed in 0..10 {
                    let mut stepped = ProcessState::new(params);
                    let skipped = ProcessState::new(params);
                    let (mut a, mut b) = (Rng::new(seed), Rng::new(seed));
                    for t in 0..60 {
                        stepped.step(t, 60, &mut a);
                        skipped.skip(&mut b);
                        assert_eq!(a, b, "{family:?} p={burst_prob} seed={seed} t={t}");
                    }
                }
            }
        }
    }

    #[test]
    fn high_burstiness_concentrates_weight() {
        // Averaged over draws: bursty intervals put far more weight in
        // their hottest slice than calm ones.
        let mut rng = Rng::new(6);
        let mut mean_max = |burstiness: f64, z: f64| {
            let mut rng2 = Rng::new(rng.next_u64());
            (0..200)
                .map(|_| {
                    subslice_weights(10, burstiness, z, &mut rng2)
                        .into_iter()
                        .fold(0.0, f64::max)
                })
                .sum::<f64>()
                / 200.0
        };
        let flat = mean_max(0.0, 0.0);
        let spiky = mean_max(0.9, 4.0);
        assert!(spiky > 3.0 * flat, "spiky {spiky} vs flat {flat}");
    }

    #[test]
    fn ar_process_is_autocorrelated() {
        let c = catalog();
        let params = ProcessParams::derive(c.by_abbrev(abbrev::BRB).unwrap(), 0);
        let mut state = ProcessState::new(params);
        let mut rng = Rng::new(11);
        let zs: Vec<f64> = (0..4000).map(|t| state.step(t, 4000, &mut rng).0).collect();
        let rho_hat = cm_stats::descriptive::autocorrelation(&zs, 1).unwrap()[1];
        assert!(rho_hat > 0.3, "lag-1 autocorrelation {rho_hat}");
    }
}
