//! Property-based tests for the statistical substrate: each property
//! runs over `CASES` seeded inputs, and a failure names its seed.

use cm_par::Rng;
use cm_stats::{descriptive, dtw, knn, regression, Distribution, Gev, Gumbel, Logistic, Normal};

const CASES: u64 = 64;

/// `len` values drawn uniformly from `range`.
fn values(rng: &mut Rng, range: std::ops::Range<f64>, len: std::ops::Range<usize>) -> Vec<f64> {
    let n = rng.range_usize(len);
    (0..n).map(|_| rng.range_f64(range.clone())).collect()
}

/// A finite series of 1 to `max_len - 1` samples.
fn finite_series(rng: &mut Rng, max_len: usize) -> Vec<f64> {
    values(rng, -1.0e6..1.0e6, 1..max_len)
}

#[test]
fn dtw_identity_is_zero() {
    for seed in 0..CASES {
        let a = finite_series(&mut Rng::new(seed), 64);
        assert!(dtw::distance(&a, &a).abs() < 1e-9, "seed {seed}");
    }
}

#[test]
fn dtw_is_symmetric() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (a, b) = (finite_series(&mut rng, 48), finite_series(&mut rng, 48));
        let ab = dtw::distance(&a, &b);
        let ba = dtw::distance(&b, &a);
        assert!((ab - ba).abs() < 1e-9 * (1.0 + ab.abs()), "seed {seed}");
    }
}

#[test]
fn dtw_is_nonnegative() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (a, b) = (finite_series(&mut rng, 48), finite_series(&mut rng, 48));
        assert!(dtw::distance(&a, &b) >= 0.0, "seed {seed}");
    }
}

#[test]
fn dtw_ignores_duplicated_samples() {
    for seed in 0..CASES {
        let a = finite_series(&mut Rng::new(seed), 32);
        // Warping absorbs repetition: duplicating every sample costs 0.
        let doubled: Vec<f64> = a.iter().flat_map(|&v| [v, v]).collect();
        assert!(dtw::distance(&a, &doubled).abs() < 1e-9, "seed {seed}");
    }
}

#[test]
fn mean_lies_between_min_and_max() {
    for seed in 0..CASES {
        let data = finite_series(&mut Rng::new(seed), 64);
        let mean = descriptive::mean(&data).unwrap();
        let min = descriptive::min(&data).unwrap();
        let max = descriptive::max(&data).unwrap();
        assert!(min <= mean + 1e-9 && mean <= max + 1e-9, "seed {seed}");
    }
}

#[test]
fn quantiles_are_monotone() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let data = finite_series(&mut rng, 64);
        let (q1, q2) = (rng.next_f64(), rng.next_f64());
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = descriptive::quantile(&data, lo).unwrap();
        let b = descriptive::quantile(&data, hi).unwrap();
        assert!(a <= b + 1e-9, "seed {seed}");
    }
}

#[test]
fn fraction_within_is_monotone_in_threshold() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let data = finite_series(&mut rng, 64);
        let t1 = rng.range_f64(-1.0e6..1.0e6);
        let t2 = rng.range_f64(-1.0e6..1.0e6);
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let a = descriptive::fraction_within(&data, lo).unwrap();
        let b = descriptive::fraction_within(&data, hi).unwrap();
        assert!(a <= b, "seed {seed}");
    }
}

/// Location in `location`, scale in `0.1..max_scale`, probability in
/// `0.001..0.999`.
fn location_scale_p(rng: &mut Rng, location: f64, max_scale: f64) -> (f64, f64, f64) {
    (
        rng.range_f64(-location..location),
        rng.range_f64(0.1..max_scale),
        rng.range_f64(0.001..0.999),
    )
}

#[test]
fn normal_quantile_inverts_cdf() {
    for seed in 0..CASES {
        let (mu, sigma, p) = location_scale_p(&mut Rng::new(seed), 100.0, 50.0);
        let d = Normal::new(mu, sigma).unwrap();
        assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-6, "seed {seed}");
    }
}

#[test]
fn gumbel_quantile_inverts_cdf() {
    for seed in 0..CASES {
        let (mu, beta, p) = location_scale_p(&mut Rng::new(seed), 100.0, 50.0);
        let d = Gumbel::new(mu, beta).unwrap();
        assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-9, "seed {seed}");
    }
}

#[test]
fn logistic_quantile_inverts_cdf() {
    for seed in 0..CASES {
        let (mu, s, p) = location_scale_p(&mut Rng::new(seed), 100.0, 50.0);
        let d = Logistic::new(mu, s).unwrap();
        assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-9, "seed {seed}");
    }
}

#[test]
fn gev_quantile_inverts_cdf() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (mu, sigma, p) = location_scale_p(&mut rng, 10.0, 10.0);
        let xi = rng.range_f64(-0.45..0.45);
        let d = Gev::new(mu, sigma, xi).unwrap();
        assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-7, "seed {seed}");
    }
}

#[test]
fn cdfs_are_monotone() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let mu = rng.range_f64(-10.0..10.0);
        let sigma = rng.range_f64(0.1..10.0);
        let x1 = rng.range_f64(-100.0..100.0);
        let x2 = rng.range_f64(-100.0..100.0);
        let d = Normal::new(mu, sigma).unwrap();
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        assert!(d.cdf(lo) <= d.cdf(hi) + 1e-12, "seed {seed}");
    }
}

#[test]
fn knn_prediction_within_target_range() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let ys = values(&mut rng, -1.0e3..1.0e3, 3..32);
        let query = rng.range_f64(-100.0..100.0);
        let k = rng.range_usize(1..4);
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let model = knn::KnnRegressor::fit(&xs, &ys, k).unwrap();
        let pred = model.predict(query);
        let min = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let max = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(pred >= min - 1e-9 && pred <= max + 1e-9, "seed {seed}");
    }
}

#[test]
fn simple_regression_recovers_exact_lines() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let slope = rng.range_f64(-100.0..100.0);
        let intercept = rng.range_f64(-100.0..100.0);
        let n = rng.range_usize(3..32);
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| intercept + slope * x).collect();
        let fit = regression::SimpleLinear::fit(&xs, &ys).unwrap();
        assert!(
            (fit.slope() - slope).abs() < 1e-6 * (1.0 + slope.abs()),
            "seed {seed}"
        );
        assert!(
            (fit.intercept() - intercept).abs() < 1e-5 * (1.0 + intercept.abs()),
            "seed {seed}"
        );
    }
}

#[test]
fn impute_preserves_valid_samples() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let mut values = values(&mut rng, 0.5..1.0e3, 8..48);
        let gap = rng.range_usize(0..8).min(values.len() - 6);
        let missing: Vec<usize> = (0..gap).collect();
        for &i in &missing {
            values[i] = 0.0;
        }
        let original = values.clone();
        knn::impute_series(&mut values, &missing, 5).unwrap();
        // Non-missing positions unchanged; missing ones within range.
        let vmin = original
            .iter()
            .skip(gap)
            .fold(f64::INFINITY, |a, &b| a.min(b));
        let vmax = original.iter().skip(gap).fold(0.0f64, |a, &b| a.max(b));
        for (i, (&now, &before)) in values.iter().zip(&original).enumerate() {
            if missing.contains(&i) {
                assert!(now >= vmin - 1e-9 && now <= vmax + 1e-9, "seed {seed}");
            } else {
                assert_eq!(now, before, "seed {seed}");
            }
        }
    }
}
