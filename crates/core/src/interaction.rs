//! The interaction ranker (Section III-D).
//!
//! The paper's Eq. 12 fits a linear model to each pair of important
//! events with all other events held at their means, and reads the
//! **residual variance** against the performance surface as the pair's
//! interaction intensity. Over a tree ensemble's MAPM that residual
//! also counts each event's own nonlinearity, so the pipeline ranks
//! pairs by the additivity-corrected cross-difference instead
//! ([`InteractionRanker::rank_pairs_additive`]); Eq. 12's literal
//! residual survives for observed series
//! ([`InteractionRanker::observed_intensity`]). Intensities are
//! normalized across pairs (Eq. 13).
//!
//! Every swept surface is the MAPM with all but one or two columns
//! pinned at the mean row. It is computed at *cell* cost: the model is
//! folded at the mean row ([`Sgbrt::fold`]), each row's swept values map
//! to the folded forest's cells, and each distinct cell is predicted
//! once. Rows in one cell reach the same leaves, so the surface is
//! bit-identical to predicting one full probe row per dataset row.

use crate::{CmError, EirResult};
use cm_events::EventId;
use cm_ml::{Dataset, Sgbrt};
use cm_stats::regression::MultipleLinear;

/// One ranked event-pair interaction.
#[derive(Debug, Clone, PartialEq)]
pub struct PairInteraction {
    /// The event pair (in ranking-list order).
    pub pair: (EventId, EventId),
    /// Raw intensity `v`: the pair's squared cross-difference summed
    /// over the observed rows (Eq. 12's role).
    pub intensity: f64,
    /// Normalized share of the total across ranked pairs (Eq. 13), in
    /// percent.
    pub share: f64,
}

/// The interaction ranker.
#[derive(Debug, Clone, Default)]
pub struct InteractionRanker;

impl InteractionRanker {
    /// Creates an interaction ranker.
    pub fn new() -> Self {
        InteractionRanker
    }

    /// Ranks pairs by **additivity-corrected** interaction intensity:
    /// the cross-difference
    /// `f(a, b) - f(a, ·) - f(·, b) + f(·, ·)` of the MAPM surface,
    /// squared and summed over the observed joint values (Friedman's
    /// H-statistic numerator).
    ///
    /// `model` is the MAPM over `model_events` (column order), and
    /// `data` the dataset the model was trained on (same columns). Every
    /// feature outside the swept pair is pinned at its dataset mean.
    /// Returns pairs sorted by descending intensity.
    ///
    /// Eq. 12's pairwise *linear* residual also counts each event's own
    /// nonlinearity — over a tree-ensemble surface, whose main effects
    /// are piecewise constant, that term dominates, so every pair
    /// containing the single most important event ranks high. The
    /// cross-difference cancels main effects exactly and isolates the
    /// joint term, matching the paper's *intent* ("if two events are
    /// orthogonal, the combined effect is predictable from the
    /// individual ones"). The pipeline uses this variant.
    ///
    /// # Errors
    ///
    /// Returns [`CmError::Invalid`] when fewer than two top events are
    /// given, the event list does not match the dataset's columns, or an
    /// event is not a model column.
    pub fn rank_pairs_additive(
        &self,
        model: &Sgbrt,
        model_events: &[EventId],
        data: &Dataset,
        top_events: &[EventId],
    ) -> Result<Vec<PairInteraction>, CmError> {
        if top_events.len() < 2 {
            return Err(CmError::Invalid(
                "interaction ranking needs at least two events",
            ));
        }
        if model_events.len() != data.n_features() {
            return Err(CmError::Invalid(
                "event list must match dataset feature count",
            ));
        }
        let cols = resolve_columns(model_events, top_events)?;

        let means = column_means(data);
        let f0 = model.predict(&means);

        // Univariate partial responses, shared across pairs.
        let partials: Vec<(Vec<f64>, usize)> =
            cm_par::map(&cols, |&c| cell_sweep(model, &means, data, &[c]));

        // The O(P²) cross-difference loop, fanned out per pair. Summation
        // runs in row order within a pair, so intensities are
        // bit-identical to the serial loop at any thread count.
        let pairs = index_pairs(top_events.len());
        let swept: Vec<(f64, usize)> = cm_par::map(&pairs, |&(i, j)| {
            let (f_ab, cells) = cell_sweep(model, &means, data, &[cols[i], cols[j]]);
            let (f_a, f_b) = (&partials[i].0, &partials[j].0);
            let mut v = 0.0;
            for r in 0..data.n_rows() {
                let cross = f_ab[r] - f_a[r] - f_b[r] + f0;
                v += cross * cross;
            }
            (v, cells)
        });
        // Probe rows: one per dataset row for each univariate partial and
        // each pair surface — what a row-by-row sweep would predict.
        let cells = partials.iter().map(|(_, c)| c).sum::<usize>()
            + swept.iter().map(|&(_, c)| c).sum::<usize>();
        record_sweep(
            pairs.len(),
            (cols.len() + pairs.len()) * data.n_rows(),
            cells,
        );
        let intensities = swept.into_iter().map(|(v, _)| v);
        Ok(ranked(top_events, &pairs, intensities))
    }

    /// [`InteractionRanker::rank_pairs_additive`] over an EIR result's
    /// `top_k` events and its MAPM, whose columns are selected from
    /// `data` (columns `events`, the dataset EIR ranked).
    ///
    /// # Errors
    ///
    /// Propagates column-selection and ranking failures.
    pub fn rank_top_additive(
        &self,
        eir: &EirResult,
        events: &[EventId],
        data: &Dataset,
        top_k: usize,
    ) -> Result<Vec<PairInteraction>, CmError> {
        let top: Vec<EventId> = eir.top(top_k).iter().map(|&(e, _)| e).collect();
        let position = |e: &EventId| {
            events
                .iter()
                .position(|x| x == e)
                .expect("every MAPM event is a ranked column")
        };
        let mapm_data =
            data.select_features(&eir.mapm_events.iter().map(position).collect::<Vec<_>>())?;
        self.rank_pairs_additive(&eir.mapm, &eir.mapm_events, &mapm_data, &top)
    }

    /// Interaction intensity between two raw observable series and a
    /// target (Eq. 12 applied directly to observations). Used for the
    /// Spark case study's (configuration parameter, event) pairs where
    /// no MAPM surface exists.
    ///
    /// # Errors
    ///
    /// Propagates regression failures (mismatched lengths, collinear
    /// inputs, too few points).
    pub fn observed_intensity(
        &self,
        xs_a: &[f64],
        xs_b: &[f64],
        target: &[f64],
    ) -> Result<f64, CmError> {
        let rows: Vec<Vec<f64>> = xs_a.iter().zip(xs_b).map(|(&a, &b)| vec![a, b]).collect();
        let linear = MultipleLinear::fit(&rows, target).map_err(CmError::Stats)?;
        linear
            .residual_sum_of_squares(&rows, target)
            .map_err(CmError::Stats)
    }
}

/// One observability record per interaction sweep: how many pairs were
/// ranked, how many probe rows a row-by-row sweep would predict for them,
/// and how many distinct forest cells were actually predicted.
fn record_sweep(pairs: usize, probe_rows: usize, cells: usize) {
    if cm_obs::enabled() {
        cm_obs::counter_add("interaction.pairs", pairs as u64);
        cm_obs::counter_add("interaction.probe_rows", probe_rows as u64);
        cm_obs::counter_add("interaction.cells", cells as u64);
    }
}

/// Builds the ranked output: one [`PairInteraction`] per index pair, its
/// Eq. 13 share of the total, sorted by descending intensity.
fn ranked(
    top_events: &[EventId],
    pairs: &[(usize, usize)],
    intensities: impl Iterator<Item = f64>,
) -> Vec<PairInteraction> {
    let mut out: Vec<PairInteraction> = pairs
        .iter()
        .zip(intensities)
        .map(|(&(i, j), intensity)| PairInteraction {
            pair: (top_events[i], top_events[j]),
            intensity,
            share: 0.0,
        })
        .collect();
    let total: f64 = out.iter().map(|p| p.intensity).sum();
    if total > 0.0 {
        for p in &mut out {
            p.share = p.intensity / total * 100.0;
        }
    }
    out.sort_by(|a, b| b.intensity.total_cmp(&a.intensity));
    out
}

/// The MAPM surface over the swept columns `cols`, every other column
/// pinned at `means`: one prediction per dataset row, in row order, and
/// the number of distinct cells predicted to produce them.
///
/// The model is folded at `means` with `cols` free. Each row's key is its
/// mixed-radix cell tuple; sorting `(key, row)` groups equal keys in
/// O(rows) memory, one representative row per key is predicted through
/// the folded forest, and the result is scattered back to every row of
/// its cell.
fn cell_sweep(model: &Sgbrt, means: &[f64], data: &Dataset, cols: &[usize]) -> (Vec<f64>, usize) {
    let folded = model.fold(means, cols);
    let mut keyed: Vec<(u64, u32)> = data
        .rows()
        .iter()
        .enumerate()
        .map(|(r, row)| {
            let key = cols.iter().enumerate().fold(0u64, |key, (k, &c)| {
                let radix = folded.thresholds(k).len() as u64 + 1;
                key * radix + folded.cell(k, row[c]) as u64
            });
            (key, r as u32)
        })
        .collect();
    keyed.sort_unstable();
    let mut probes = Vec::new();
    let mut cell_of_row = vec![0u32; keyed.len()];
    let mut cells = 0u32;
    for (g, &(key, r)) in keyed.iter().enumerate() {
        if g == 0 || keyed[g - 1].0 != key {
            let row = data.row(r as usize);
            probes.extend(cols.iter().map(|&c| row[c]));
            cells += 1;
        }
        cell_of_row[r as usize] = cells - 1;
    }
    let predicted = folded.predict_packed(&probes);
    let surface = cell_of_row.iter().map(|&i| predicted[i as usize]).collect();
    (surface, cells as usize)
}

/// Per-column means of a dataset — the "mean row" the sweeps pin
/// non-swept features to.
pub(crate) fn column_means(data: &Dataset) -> Vec<f64> {
    let n = data.n_rows() as f64;
    let mut means = vec![0.0; data.n_features()];
    for row in data.rows() {
        for (m, &v) in means.iter_mut().zip(row) {
            *m += v;
        }
    }
    for m in &mut means {
        *m /= n;
    }
    means
}

/// Maps each top event to its model column, erroring on the first event
/// that is not a model input.
fn resolve_columns(
    model_events: &[EventId],
    top_events: &[EventId],
) -> Result<Vec<usize>, CmError> {
    top_events
        .iter()
        .map(|&event| {
            model_events
                .iter()
                .position(|&e| e == event)
                .ok_or(CmError::Invalid("top event is not a model input"))
        })
        .collect()
}

/// All index pairs `(i, j)` with `i < j < len`, in the serial loop's
/// enumeration order.
fn index_pairs(len: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(len * (len - 1) / 2);
    for i in 0..len {
        for j in i + 1..len {
            pairs.push((i, j));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_ml::SgbrtConfig;
    use cm_par::Rng;

    /// y = a·b + c (a,b interact; c is additive).
    fn interacting_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::new(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| rng.range_f64(-1.0..1.0)).collect())
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[1] + 0.8 * r[2]).collect();
        Dataset::new(rows, y).unwrap()
    }

    fn events(n: usize) -> Vec<EventId> {
        (0..n).map(EventId::new).collect()
    }

    #[test]
    fn additive_variant_isolates_the_product_pair() {
        // y = a*b + c^2: the naive Eq. 12 residual flags pairs with c
        // (its own curvature); the cross-difference must not.
        let mut rng = Rng::new(9);
        let rows: Vec<Vec<f64>> = (0..600)
            .map(|_| (0..3).map(|_| rng.range_f64(-1.0..1.0)).collect())
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[1] + r[2] * r[2]).collect();
        let data = Dataset::new(rows, y).unwrap();
        let ev = events(3);
        let model = SgbrtConfig {
            n_trees: 200,
            ..SgbrtConfig::default()
        }
        .fit(&data)
        .unwrap();
        let ranked = InteractionRanker::new()
            .rank_pairs_additive(&model, &ev, &data, &ev)
            .unwrap();
        let top = &ranked[0];
        let pair = (
            top.pair.0.index().min(top.pair.1.index()),
            top.pair.0.index().max(top.pair.1.index()),
        );
        assert_eq!(pair, (0, 1), "expected (e0, e1): {ranked:?}");
        assert!(top.share > 50.0, "top share {}", top.share);
    }

    #[test]
    fn additive_variant_validates_like_the_linear_one() {
        let data = interacting_dataset(50, 10);
        let ev = events(3);
        let model = SgbrtConfig::default().fit(&data).unwrap();
        let ranker = InteractionRanker::new();
        assert!(ranker
            .rank_pairs_additive(&model, &ev, &data, &[EventId::new(0)])
            .is_err());
        assert!(ranker
            .rank_pairs_additive(&model, &ev, &data, &[EventId::new(0), EventId::new(9)])
            .is_err());
    }

    #[test]
    fn column_means_averages_each_feature() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 20.0], vec![5.0, 30.0]];
        let data = Dataset::new(rows, vec![0.0; 3]).unwrap();
        assert_eq!(column_means(&data), vec![3.0, 20.0]);
    }

    #[test]
    fn index_pairs_enumerates_upper_triangle_in_order() {
        assert_eq!(index_pairs(3), vec![(0, 1), (0, 2), (1, 2)]);
        assert!(index_pairs(1).is_empty());
    }

    #[test]
    fn rankings_are_thread_count_invariant() {
        let data = interacting_dataset(300, 11);
        let ev = events(3);
        let model = SgbrtConfig::default().fit(&data).unwrap();
        let ranker = InteractionRanker::new();
        cm_par::set_max_threads(1);
        let serial_add = ranker.rank_pairs_additive(&model, &ev, &data, &ev).unwrap();
        cm_par::set_max_threads(0);
        let parallel_add = ranker.rank_pairs_additive(&model, &ev, &data, &ev).unwrap();
        assert_eq!(serial_add, parallel_add);
    }

    /// The row-by-row sweep the cell sweep replaced, kept as its oracle:
    /// one full probe row per dataset row, pinned at the mean row,
    /// predicted through the whole forest.
    fn row_sweep(model: &Sgbrt, means: &[f64], data: &Dataset, cols: &[usize]) -> Vec<f64> {
        let mut probe = means.to_vec();
        data.rows()
            .iter()
            .map(|row| {
                for &c in cols {
                    probe[c] = row[c];
                }
                model.predict(&probe)
            })
            .collect()
    }

    /// `rank_pairs_additive` as it was before cell sweeps, serial.
    fn rank_pairs_additive_rowwise(
        model: &Sgbrt,
        model_events: &[EventId],
        data: &Dataset,
        top_events: &[EventId],
    ) -> Vec<PairInteraction> {
        let cols = resolve_columns(model_events, top_events).unwrap();
        let means = column_means(data);
        let f0 = model.predict(&means);
        let partials: Vec<Vec<f64>> = cols
            .iter()
            .map(|&c| row_sweep(model, &means, data, &[c]))
            .collect();
        let mut out = Vec::new();
        for (i, j) in index_pairs(top_events.len()) {
            let f_ab = row_sweep(model, &means, data, &[cols[i], cols[j]]);
            let mut v = 0.0;
            for r in 0..data.n_rows() {
                let cross = f_ab[r] - partials[i][r] - partials[j][r] + f0;
                v += cross * cross;
            }
            out.push(PairInteraction {
                pair: (top_events[i], top_events[j]),
                intensity: v,
                share: 0.0,
            });
        }
        let total: f64 = out.iter().map(|p| p.intensity).sum();
        if total > 0.0 {
            for p in &mut out {
                p.share = p.intensity / total * 100.0;
            }
        }
        out.sort_by(|a, b| b.intensity.total_cmp(&a.intensity));
        out
    }

    fn bits(ranked: &[PairInteraction]) -> Vec<((usize, usize), u64, u64)> {
        ranked
            .iter()
            .map(|p| {
                let pair = (p.pair.0.index(), p.pair.1.index());
                (pair, p.intensity.to_bits(), p.share.to_bits())
            })
            .collect()
    }

    /// Seeded sweep cases the cell sweep must match bit for bit: NaN and
    /// signed-zero features, values exactly on a split threshold, a
    /// column no tree splits on (column 4 is constant in training),
    /// repeated rows, `top_k = 2`, a single-tree forest and the exact
    /// trainer.
    #[test]
    fn cell_sweep_matches_the_row_sweep_oracle() {
        use cm_ml::Trainer;
        let nf = 5;
        let ev = events(nf);
        for seed in 0..4u64 {
            let mut rng = Rng::new(100 + seed);
            let mut rows: Vec<Vec<f64>> = (0..160)
                .map(|_| {
                    let mut r: Vec<f64> = (0..nf).map(|_| rng.range_f64(-1.0..1.0)).collect();
                    r[4] = 0.25;
                    if rng.next_f64() < 0.15 {
                        r[2] = f64::NAN;
                    }
                    if rng.next_f64() < 0.1 {
                        r[1] = if rng.next_f64() < 0.5 { 0.0 } else { -0.0 };
                    }
                    r
                })
                .collect();
            rows.extend(rows[..30].to_vec());
            let y: Vec<f64> = rows
                .iter()
                .map(|r| r[0] * r[1] + r[3] - if r[2].is_nan() { 1.0 } else { r[2] * r[3] })
                .collect();
            let train = Dataset::new(rows.clone(), y.clone()).unwrap();
            let configs = [
                SgbrtConfig {
                    n_trees: 40,
                    ..SgbrtConfig::default()
                },
                SgbrtConfig {
                    n_trees: 1,
                    ..SgbrtConfig::default()
                },
                SgbrtConfig {
                    n_trees: 25,
                    trainer: Trainer::Exact,
                    ..SgbrtConfig::default()
                },
            ];
            for config in configs {
                let model = config.with_seed(seed).fit(&train).unwrap();
                // Sweep rows sitting exactly on every split threshold,
                // plus NaN and signed zeros in every column.
                let all: Vec<usize> = (0..nf).collect();
                let unfolded = model.fold(&rows[0], &all);
                let mut sweep_rows = rows.clone();
                for (i, row) in sweep_rows.iter_mut().enumerate().step_by(3) {
                    let c = i % nf;
                    let t = unfolded.thresholds(c);
                    row[c] = match (i / 3) % 4 {
                        0 => f64::NAN,
                        1 => -0.0,
                        _ if t.is_empty() => 0.0,
                        _ => t[i % t.len()],
                    };
                }
                let sweep = Dataset::new(sweep_rows, y.clone()).unwrap();
                let means = column_means(&sweep);
                for cols in [vec![0usize], vec![2], vec![4], vec![1, 0], vec![2, 4]] {
                    let (cells, n_cells) = cell_sweep(&model, &means, &sweep, &cols);
                    let rows = row_sweep(&model, &means, &sweep, &cols);
                    assert!(n_cells <= sweep.n_rows());
                    let cell_bits: Vec<u64> = cells.iter().map(|v| v.to_bits()).collect();
                    let row_bits: Vec<u64> = rows.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(cell_bits, row_bits, "seed {seed} cols {cols:?}");
                }
                for top in [ev.clone(), vec![ev[3], ev[1]]] {
                    let got = InteractionRanker::new()
                        .rank_pairs_additive(&model, &ev, &sweep, &top)
                        .unwrap();
                    let want = rank_pairs_additive_rowwise(&model, &ev, &sweep, &top);
                    assert_eq!(bits(&got), bits(&want), "seed {seed} top {top:?}");
                }
            }
        }
    }

    /// Pins the pipeline's interaction rankings over all 16 benchmarks:
    /// an FNV digest of every ranked pair's events and the bits of its
    /// intensity and share, under a config small enough for a debug
    /// build.
    #[test]
    fn additive_ranking_matches_golden_digest() {
        use crate::{CounterMiner, ImportanceConfig, MinerConfig};
        let config = MinerConfig {
            runs_per_benchmark: 1,
            events_to_measure: Some(20),
            importance: ImportanceConfig {
                sgbrt: SgbrtConfig {
                    n_trees: 30,
                    ..SgbrtConfig::default()
                },
                prune_step: 4,
                min_events: 12,
                seed: 5,
                ..ImportanceConfig::default()
            },
            interaction_top_k: 6,
            seed: 5,
            ..MinerConfig::default()
        };
        let miner = CounterMiner::new(config);
        let mut digest = cm_par::rng::FNV1A_OFFSET;
        for benchmark in cm_sim::ALL_BENCHMARKS {
            let report = miner.analyze(benchmark).unwrap();
            for p in &report.interactions {
                for word in [
                    p.pair.0.index() as u64,
                    p.pair.1.index() as u64,
                    p.intensity.to_bits(),
                    p.share.to_bits(),
                ] {
                    digest = cm_par::rng::fnv1a_extend(digest, &word.to_le_bytes());
                }
            }
        }
        assert_eq!(digest, 0x370e_4010_1cb9_fc72, "{digest:#018x}");
    }

    #[test]
    fn observed_intensity_detects_product_targets() {
        let mut rng = Rng::new(4);
        let a: Vec<f64> = (0..200).map(|_| rng.range_f64(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..200).map(|_| rng.range_f64(-1.0..1.0)).collect();
        let linear_target: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| 2.0 * x - y).collect();
        let product_target: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
        let ranker = InteractionRanker::new();
        let v_linear = ranker.observed_intensity(&a, &b, &linear_target).unwrap();
        let v_product = ranker.observed_intensity(&a, &b, &product_target).unwrap();
        assert!(v_linear < 1e-9, "linear target should fit exactly");
        assert!(v_product > 1.0);
    }
}
