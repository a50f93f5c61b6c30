//! Seeded k-medoids clustering over counter signatures.
//!
//! Kadiyala et al. (see PAPERS.md) show that cleaned hardware-counter
//! signatures cluster program behaviour effectively; this module is the
//! statistical kernel behind CounterMiner's cross-benchmark `cluster`
//! analysis mode. It deliberately clusters around **medoids** — real
//! runs, not synthetic centroids — because a medoid is something an
//! engineer can open and inspect, and because medoids only need
//! pairwise distances, which keeps the signature distance pluggable
//! ([`SignatureDistance`]: plain Euclidean over per-event summary
//! vectors, or banded DTW over whole series via the [`dtw`] kernels).
//!
//! # Determinism
//!
//! Everything here is bit-identical at any thread count. The distance
//! matrix is computed by [`cm_par::map`] over a fixed pair order (pure
//! per-entry work, order-preserving collection); the seeded
//! initialization draws only the first medoid from a keyed
//! [`Rng::stream`] and picks the rest by farthest-point refinement with
//! lowest-index tie-breaking; the assignment/update sweeps are plain
//! serial loops over the (deterministic) matrix.
//!
//! # Examples
//!
//! ```
//! use cm_stats::cluster::{k_medoids, pairwise_distances, SignatureDistance};
//!
//! // Two tight groups in 2-D.
//! let signatures = vec![
//!     vec![0.0, 0.0],
//!     vec![0.1, 0.0],
//!     vec![0.0, 0.1],
//!     vec![5.0, 5.0],
//!     vec![5.1, 5.0],
//! ];
//! let d = pairwise_distances(&signatures, SignatureDistance::Euclidean)?;
//! let clustering = k_medoids(&d, 2, 7)?;
//! assert_eq!(clustering.assignments[0], clustering.assignments[1]);
//! assert_eq!(clustering.assignments[3], clustering.assignments[4]);
//! assert_ne!(clustering.assignments[0], clustering.assignments[3]);
//! assert!(clustering.mean_silhouette > 0.8);
//! # Ok::<(), cm_stats::StatsError>(())
//! ```

use crate::{dtw, StatsError};
use cm_par::Rng;

/// How two counter signatures are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureDistance {
    /// Euclidean distance between equal-length summary vectors (the
    /// default: one normalized summary statistic block per event).
    Euclidean,
    /// Banded dynamic time warping between whole series (lengths may
    /// differ), normalized by the warping-path length so short and long
    /// runs are comparable. `radius` is the Sakoe–Chiba band of
    /// [`dtw::distance_banded`] (widened automatically when the length
    /// gap exceeds it).
    Dtw {
        /// Sakoe–Chiba band radius, in samples.
        radius: usize,
    },
}

/// A symmetric pairwise distance matrix over `n` items.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    /// Row-major full matrix; the diagonal is zero.
    values: Vec<f64>,
}

impl DistanceMatrix {
    /// Builds a matrix from the upper triangle in `(0,1), (0,2), …,
    /// (0,n-1), (1,2), …` order.
    fn from_upper(n: usize, upper: &[f64]) -> Self {
        debug_assert_eq!(upper.len(), n * (n - 1) / 2);
        let mut values = vec![0.0; n * n];
        let mut idx = 0;
        for i in 0..n {
            for j in i + 1..n {
                values[i * n + j] = upper[idx];
                values[j * n + i] = upper[idx];
                idx += 1;
            }
        }
        DistanceMatrix { n, values }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is over zero items.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The distance between items `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of range");
        self.values[i * self.n + j]
    }
}

/// The list of `(i, j)` index pairs with `i < j`, in matrix order.
fn upper_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in i + 1..n {
            pairs.push((i, j));
        }
    }
    pairs
}

/// Computes the pairwise [`DistanceMatrix`] of `signatures` under
/// `metric`, parallelized over pairs via [`cm_par::map`] (pure
/// per-entry work, so the matrix is bit-identical at any thread count).
///
/// Under [`SignatureDistance::Euclidean`] all signatures must share one
/// length; under [`SignatureDistance::Dtw`] lengths may differ (each
/// signature is a whole series) and each pair's distance is the banded
/// DTW distance divided by the aligned length `max(|a|, |b|)`.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] when `signatures` is empty or any
/// signature is, [`StatsError::MismatchedLengths`] for ragged Euclidean
/// signatures, and [`StatsError::InvalidParameter`] for non-finite
/// values (NaN poisoning must surface, not propagate — see the
/// NaN-rejecting order statistics in [`descriptive`](crate::descriptive)).
pub fn pairwise_distances(
    signatures: &[Vec<f64>],
    metric: SignatureDistance,
) -> Result<DistanceMatrix, StatsError> {
    if signatures.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    for s in signatures {
        if s.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if s.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::InvalidParameter("signatures must be finite"));
        }
        if metric == SignatureDistance::Euclidean && s.len() != signatures[0].len() {
            return Err(StatsError::MismatchedLengths {
                left: signatures[0].len(),
                right: s.len(),
            });
        }
    }
    let n = signatures.len();
    if n == 1 {
        return Ok(DistanceMatrix {
            n: 1,
            values: vec![0.0],
        });
    }
    let pairs = upper_pairs(n);
    let upper: Vec<f64> = match metric {
        SignatureDistance::Euclidean => cm_par::map(&pairs, |&(i, j)| {
            signatures[i]
                .iter()
                .zip(&signatures[j])
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        }),
        SignatureDistance::Dtw { radius } => cm_par::map(&pairs, |&(i, j)| {
            let (a, b) = (&signatures[i], &signatures[j]);
            dtw::distance_banded(a, b, radius) / a.len().max(b.len()) as f64
        }),
    };
    Ok(DistanceMatrix::from_upper(n, &upper))
}

/// One k-medoids clustering result.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Item index of each cluster's medoid, in cluster order.
    pub medoids: Vec<usize>,
    /// Cluster id (index into `medoids`) of every item.
    pub assignments: Vec<usize>,
    /// Per-item silhouette score in `[-1, 1]` (0 for items in singleton
    /// clusters).
    pub silhouettes: Vec<f64>,
    /// Mean silhouette over all items — the clustering quality summary.
    pub mean_silhouette: f64,
    /// Voronoi iterations until the assignment fixed point.
    pub iterations: usize,
}

impl Clustering {
    /// Each item's distance to its own medoid.
    pub fn medoid_distances(&self, distances: &DistanceMatrix) -> Vec<f64> {
        self.assignments
            .iter()
            .enumerate()
            .map(|(i, &c)| distances.get(i, self.medoids[c]))
            .collect()
    }
}

/// Clusters the items of `distances` into `k` groups around medoids.
///
/// Initialization is seeded farthest-point: the first medoid is drawn
/// from stream 0 of `seed`, each further medoid is the item maximizing
/// the distance to its nearest chosen medoid (ties to the lowest
/// index). Voronoi iterations then alternate assignment (nearest
/// medoid, ties to the lowest cluster id) and medoid update (the
/// member minimizing the within-cluster distance sum, ties to the
/// lowest index) until the assignments stop changing. Every step is a
/// deterministic function of `(distances, k, seed)`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for `k` of zero and
/// [`StatsError::NotEnoughData`] when `k` exceeds the item count.
pub fn k_medoids(
    distances: &DistanceMatrix,
    k: usize,
    seed: u64,
) -> Result<Clustering, StatsError> {
    let n = distances.len();
    if k == 0 {
        return Err(StatsError::InvalidParameter(
            "cluster count must be at least 1",
        ));
    }
    if k > n {
        return Err(StatsError::NotEnoughData {
            required: k,
            available: n,
        });
    }

    // Seeded farthest-point init.
    let mut medoids = Vec::with_capacity(k);
    let first = Rng::stream(seed, 0).below(n as u64) as usize;
    medoids.push(first);
    while medoids.len() < k {
        let mut best = usize::MAX;
        let mut best_dist = f64::NEG_INFINITY;
        for i in 0..n {
            if medoids.contains(&i) {
                continue;
            }
            let nearest = medoids
                .iter()
                .map(|&m| distances.get(i, m))
                .fold(f64::INFINITY, f64::min);
            if nearest > best_dist {
                best_dist = nearest;
                best = i;
            }
        }
        medoids.push(best);
    }

    // Voronoi iterations to the assignment fixed point. Convergence is
    // guaranteed: each sweep weakly decreases the total within-cluster
    // distance and there are finitely many medoid sets; the cap is a
    // backstop for distance ties cycling.
    let assign = |medoids: &[usize]| -> Vec<usize> {
        (0..n)
            .map(|i| {
                let mut best = 0;
                let mut best_dist = f64::INFINITY;
                for (c, &m) in medoids.iter().enumerate() {
                    let d = distances.get(i, m);
                    if d < best_dist {
                        best_dist = d;
                        best = c;
                    }
                }
                best
            })
            .collect()
    };
    let mut assignments = assign(&medoids);
    let mut iterations = 0;
    const MAX_ITER: usize = 64;
    while iterations < MAX_ITER {
        iterations += 1;
        for (c, medoid) in medoids.iter_mut().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&i| assignments[i] == c).collect();
            let mut best = *medoid;
            let mut best_cost = f64::INFINITY;
            for &candidate in &members {
                let cost: f64 = members.iter().map(|&i| distances.get(i, candidate)).sum();
                if cost < best_cost {
                    best_cost = cost;
                    best = candidate;
                }
            }
            *medoid = best;
        }
        let next = assign(&medoids);
        if next == assignments {
            break;
        }
        assignments = next;
    }

    let silhouettes = silhouette_scores(distances, &assignments, k);
    let mean_silhouette = if n == 0 {
        0.0
    } else {
        silhouettes.iter().sum::<f64>() / n as f64
    };
    Ok(Clustering {
        medoids,
        assignments,
        silhouettes,
        mean_silhouette,
        iterations,
    })
}

/// Per-item silhouette scores for a given assignment: `s(i) = (b − a) /
/// max(a, b)` with `a` the mean distance to the item's own cluster and
/// `b` the smallest mean distance to another cluster. Items in
/// singleton clusters score 0 by convention; with one cluster total,
/// every item scores 0.
fn silhouette_scores(distances: &DistanceMatrix, assignments: &[usize], k: usize) -> Vec<f64> {
    let n = distances.len();
    let sizes: Vec<usize> = (0..k)
        .map(|c| assignments.iter().filter(|&&a| a == c).count())
        .collect();
    (0..n)
        .map(|i| {
            let own = assignments[i];
            if sizes[own] <= 1 || k < 2 {
                return 0.0;
            }
            let mut sums = vec![0.0; k];
            for j in 0..n {
                if j != i {
                    sums[assignments[j]] += distances.get(i, j);
                }
            }
            let a = sums[own] / (sizes[own] - 1) as f64;
            let b = (0..k)
                .filter(|&c| c != own && sizes[c] > 0)
                .map(|c| sums[c] / sizes[c] as f64)
                .fold(f64::INFINITY, f64::min);
            if !b.is_finite() {
                return 0.0;
            }
            let denom = a.max(b);
            if denom == 0.0 {
                0.0
            } else {
                (b - a) / denom
            }
        })
        .collect()
}

/// The adjusted Rand index between two labelings of the same items:
/// 1.0 for identical partitions (up to label permutation), ~0.0 for
/// independent ones, negative for worse-than-chance agreement.
///
/// # Errors
///
/// Returns [`StatsError::MismatchedLengths`] when the labelings differ
/// in length and [`StatsError::EmptyInput`] when both are empty.
///
/// # Examples
///
/// ```
/// use cm_stats::cluster::adjusted_rand_index;
///
/// // Identical up to label names.
/// let ari = adjusted_rand_index(&[0, 0, 1, 1], &[5, 5, 2, 2])?;
/// assert!((ari - 1.0).abs() < 1e-12);
/// # Ok::<(), cm_stats::StatsError>(())
/// ```
pub fn adjusted_rand_index(a: &[usize], b: &[usize]) -> Result<f64, StatsError> {
    if a.len() != b.len() {
        return Err(StatsError::MismatchedLengths {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    let n = a.len();
    let ka = a.iter().max().unwrap() + 1;
    let kb = b.iter().max().unwrap() + 1;
    let mut table = vec![0u64; ka * kb];
    let mut rows = vec![0u64; ka];
    let mut cols = vec![0u64; kb];
    for (&x, &y) in a.iter().zip(b) {
        table[x * kb + y] += 1;
        rows[x] += 1;
        cols[y] += 1;
    }
    let choose2 = |c: u64| (c * c.saturating_sub(1) / 2) as f64;
    let index: f64 = table.iter().map(|&c| choose2(c)).sum();
    let row_sum: f64 = rows.iter().map(|&c| choose2(c)).sum();
    let col_sum: f64 = cols.iter().map(|&c| choose2(c)).sum();
    let total = choose2(n as u64);
    let expected = row_sum * col_sum / total;
    let max_index = (row_sum + col_sum) / 2.0;
    if (max_index - expected).abs() < 1e-12 {
        // Degenerate: both partitions are trivial (all-one-cluster or
        // all-singletons). They agree exactly iff they are equal-shaped.
        return Ok(1.0);
    }
    Ok((index - expected) / (max_index - expected))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three planted groups in 3-D with a seeded layout.
    fn planted(per_group: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let centers = [[0.0, 0.0, 0.0], [10.0, 0.0, 5.0], [0.0, 12.0, -4.0]];
        let mut sigs = Vec::new();
        let mut labels = Vec::new();
        let mut stream = Rng::stream(99, 0);
        for (g, c) in centers.iter().enumerate() {
            for _ in 0..per_group {
                sigs.push(c.iter().map(|&x| x + stream.next_f64() - 0.5).collect());
                labels.push(g);
            }
        }
        (sigs, labels)
    }

    #[test]
    fn recovers_planted_groups() {
        let (sigs, truth) = planted(8);
        let d = pairwise_distances(&sigs, SignatureDistance::Euclidean).unwrap();
        let clustering = k_medoids(&d, 3, 1).unwrap();
        let ari = adjusted_rand_index(&clustering.assignments, &truth).unwrap();
        assert!((ari - 1.0).abs() < 1e-12, "ari {ari}");
        assert!(clustering.mean_silhouette > 0.9);
    }

    #[test]
    fn clustering_is_deterministic_per_seed_and_thread_count() {
        let (sigs, _) = planted(6);
        let run = |threads: usize, seed: u64| {
            cm_par::set_max_threads(threads);
            let d = pairwise_distances(&sigs, SignatureDistance::Euclidean).unwrap();
            let c = k_medoids(&d, 3, seed).unwrap();
            cm_par::set_max_threads(0);
            (c, d)
        };
        let (c1, d1) = run(1, 7);
        let (c4, d4) = run(4, 7);
        assert_eq!(c1, c4);
        assert_eq!(d1.values, d4.values);
        // Bit-exact silhouettes, not just equal assignments.
        for (a, b) in c1.silhouettes.iter().zip(&c4.silhouettes) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn different_seeds_still_find_the_planted_optimum() {
        let (sigs, truth) = planted(5);
        let d = pairwise_distances(&sigs, SignatureDistance::Euclidean).unwrap();
        for seed in 0..8 {
            let c = k_medoids(&d, 3, seed).unwrap();
            let ari = adjusted_rand_index(&c.assignments, &truth).unwrap();
            assert!((ari - 1.0).abs() < 1e-12, "seed {seed}: ari {ari}");
        }
    }

    #[test]
    fn dtw_metric_handles_ragged_series() {
        // Same waveform at different lengths vs a different waveform.
        let wave =
            |n: usize, f: f64| -> Vec<f64> { (0..n).map(|t| (t as f64 * f).sin()).collect() };
        let sigs = vec![
            wave(100, 0.3),
            wave(110, 0.3),
            wave(104, 1.7),
            wave(96, 1.7),
        ];
        let d = pairwise_distances(&sigs, SignatureDistance::Dtw { radius: 16 }).unwrap();
        let c = k_medoids(&d, 2, 3).unwrap();
        assert_eq!(c.assignments[0], c.assignments[1]);
        assert_eq!(c.assignments[2], c.assignments[3]);
        assert_ne!(c.assignments[0], c.assignments[2]);
    }

    #[test]
    fn validates_inputs() {
        assert_eq!(
            pairwise_distances(&[], SignatureDistance::Euclidean),
            Err(StatsError::EmptyInput)
        );
        assert_eq!(
            pairwise_distances(&[vec![]], SignatureDistance::Euclidean),
            Err(StatsError::EmptyInput)
        );
        assert!(matches!(
            pairwise_distances(&[vec![1.0], vec![1.0, 2.0]], SignatureDistance::Euclidean),
            Err(StatsError::MismatchedLengths { .. })
        ));
        assert_eq!(
            pairwise_distances(&[vec![1.0], vec![f64::NAN]], SignatureDistance::Euclidean),
            Err(StatsError::InvalidParameter("signatures must be finite"))
        );
        let d = pairwise_distances(&[vec![0.0], vec![1.0]], SignatureDistance::Euclidean).unwrap();
        assert!(k_medoids(&d, 0, 0).is_err());
        assert!(matches!(
            k_medoids(&d, 3, 0),
            Err(StatsError::NotEnoughData {
                required: 3,
                available: 2,
            })
        ));
    }

    #[test]
    fn k_equals_n_is_all_singletons() {
        let (sigs, _) = planted(2);
        let d = pairwise_distances(&sigs, SignatureDistance::Euclidean).unwrap();
        let c = k_medoids(&d, sigs.len(), 5).unwrap();
        let mut seen: Vec<usize> = c.assignments.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), sigs.len());
        // Singleton silhouettes are 0 by convention.
        assert!(c.silhouettes.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn single_item_matrix_works() {
        let d = pairwise_distances(&[vec![1.0, 2.0]], SignatureDistance::Euclidean).unwrap();
        assert_eq!(d.len(), 1);
        let c = k_medoids(&d, 1, 0).unwrap();
        assert_eq!(c.assignments, vec![0]);
        assert_eq!(c.medoids, vec![0]);
    }

    #[test]
    fn ari_of_independent_labelings_is_near_zero() {
        // Alternating vs block labels over 40 items: ARI ~ 0.
        let a: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let b: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let ari = adjusted_rand_index(&a, &b).unwrap();
        assert!(ari.abs() < 0.1, "ari {ari}");
        assert!(adjusted_rand_index(&[0, 1], &[0]).is_err());
        assert!(adjusted_rand_index(&[], &[]).is_err());
    }

    #[test]
    fn medoid_distances_are_zero_at_medoids() {
        let (sigs, _) = planted(4);
        let d = pairwise_distances(&sigs, SignatureDistance::Euclidean).unwrap();
        let c = k_medoids(&d, 3, 2).unwrap();
        let md = c.medoid_distances(&d);
        for &m in &c.medoids {
            assert_eq!(md[m], 0.0);
        }
        assert!(md.iter().all(|&x| x >= 0.0));
    }
}
