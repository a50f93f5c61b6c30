use crate::binning::{BinnedDataset, BinnedView, MAX_BINS};
use crate::tree::{FlatForest, RegressionTree, TreeConfig};
use crate::{hist, Dataset, MlError};
use cm_par::Rng;

/// Rows per parallel chunk for batch prediction.
const PREDICT_CHUNK: usize = 64;

/// Which split-search algorithm trains each boosting stage.
///
/// # Examples
///
/// ```
/// use cm_ml::{SgbrtConfig, Trainer};
///
/// assert_eq!(Trainer::default(), Trainer::Hist);
/// // The exact trainer is the oracle the hist trainer is checked against.
/// let oracle = SgbrtConfig {
///     trainer: Trainer::Exact,
///     ..SgbrtConfig::default()
/// };
/// assert_eq!(oracle.trainer, Trainer::Exact);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Trainer {
    /// Presorted exact search: every distinct value is a candidate
    /// threshold, O(rows) per feature per node. Slower than `Hist` and
    /// kept as the oracle it is tested against.
    Exact,
    /// Histogram-binned search (the default): features are quantized
    /// once into ≤ [`MAX_BINS`] bins, nodes scan O(bins) candidates over
    /// gradient histograms, and sibling histograms are derived by
    /// subtraction. Same objective, near-identical models, much faster
    /// on EIR-sized data.
    #[default]
    Hist,
}

/// Configuration for the stochastic gradient boosted ensemble
/// (Friedman 2002, the algorithm the paper uses via scikit-learn).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgbrtConfig {
    /// Number of boosting stages.
    pub n_trees: usize,
    /// Shrinkage applied to each stage's contribution.
    pub learning_rate: f64,
    /// Fraction of rows sampled (without replacement) per stage — the
    /// "stochastic" in SGBRT.
    pub subsample: f64,
    /// Per-stage tree shape.
    pub tree: TreeConfig,
    /// RNG seed for the row subsampling, making training reproducible.
    /// Stage `t` subsamples with an independent stream derived from
    /// `(seed, t)`, so the trained model is bit-identical at any thread
    /// count.
    pub seed: u64,
    /// Split-search algorithm. Both trainers draw identical per-stage
    /// subsamples from the same seed streams.
    pub trainer: Trainer,
}

impl Default for SgbrtConfig {
    fn default() -> Self {
        SgbrtConfig {
            n_trees: 120,
            learning_rate: 0.1,
            subsample: 0.7,
            tree: TreeConfig::default(),
            seed: 0,
            trainer: Trainer::default(),
        }
    }
}

impl SgbrtConfig {
    /// Returns the config with a different seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Trains an ensemble on `data`, dispatching on
    /// [`SgbrtConfig::trainer`]. The histogram path quantizes `data`
    /// once ([`BinnedDataset::from_dataset`]) and trains on the binned
    /// view; callers that retrain repeatedly on column subsets (the EIR
    /// loop) should bin once themselves and call
    /// [`SgbrtConfig::fit_binned`] per round instead.
    ///
    /// # Examples
    ///
    /// ```
    /// use cm_ml::{Dataset, SgbrtConfig};
    ///
    /// let rows: Vec<Vec<f64>> = (0..80)
    ///     .map(|i| vec![i as f64, (i % 7) as f64])
    ///     .collect();
    /// let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] + r[1]).collect();
    /// let data = Dataset::new(rows, y)?;
    /// let config = SgbrtConfig { n_trees: 25, ..SgbrtConfig::default() };
    /// let model = config.fit(&data)?;
    /// let pred = model.predict(&[40.0, 5.0]);
    /// assert!((pred - 85.0).abs() < 25.0, "prediction {pred}");
    /// # Ok::<(), cm_ml::MlError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidConfig`] for out-of-range
    /// hyperparameters or [`MlError::EmptyDataset`] via dataset
    /// construction.
    pub fn fit(self, data: &Dataset) -> Result<Sgbrt, MlError> {
        match self.trainer {
            Trainer::Exact => self.fit_exact(data),
            Trainer::Hist => {
                let binned = BinnedDataset::from_dataset(data, MAX_BINS);
                self.fit_binned(&binned.view(), data.targets())
            }
        }
    }

    fn validate(&self) -> Result<(), MlError> {
        if self.n_trees == 0 {
            return Err(MlError::InvalidConfig("n_trees must be at least 1"));
        }
        if !(self.learning_rate > 0.0 && self.learning_rate <= 1.0) {
            return Err(MlError::InvalidConfig("learning_rate must be in (0, 1]"));
        }
        if !(self.subsample > 0.0 && self.subsample <= 1.0) {
            return Err(MlError::InvalidConfig("subsample must be in (0, 1]"));
        }
        Ok(())
    }

    /// The per-stage subsample of stage `t` — shared by both trainers so
    /// switching trainer never changes which rows a stage sees. It is
    /// drawn from stream `(seed, t)`, so it is a pure function of
    /// `(seed, t)`: independent of execution order and thread count.
    fn stage_sample(&self, n: usize, t: usize) -> Vec<usize> {
        let subsample_n = ((n as f64) * self.subsample).round().max(1.0) as usize;
        let mut rng = Rng::stream(self.seed, t as u64);
        let mut sample: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut sample);
        sample.truncate(subsample_n);
        sample
    }

    fn fit_exact(self, data: &Dataset) -> Result<Sgbrt, MlError> {
        self.validate()?;
        record_fit(self.n_trees, 0, "exact");
        let n = data.n_rows();
        let base = data.targets().iter().sum::<f64>() / n as f64;
        let mut residuals: Vec<f64> = data.targets().iter().map(|&y| y - base).collect();
        let mut trees = Vec::with_capacity(self.n_trees);

        for t in 0..self.n_trees {
            let sample = self.stage_sample(n, t);
            // Retarget the feature matrix at the current residuals —
            // no per-stage clone of the rows.
            let tree = RegressionTree::fit_with_targets(data, &residuals, &sample, self.tree)?;
            for (i, r) in residuals.iter_mut().enumerate() {
                *r -= self.learning_rate * tree.predict(data.row(i));
            }
            trees.push(tree);
        }

        Ok(Sgbrt::from_parts(
            base,
            self.learning_rate,
            trees,
            data.n_features(),
        ))
    }

    /// Trains a histogram-binned ensemble directly on a pre-quantized
    /// view, regardless of [`SgbrtConfig::trainer`]. The EIR loop bins
    /// its training split once and calls this with a shrinking
    /// [`BinnedDataset::select`] view each pruning round, so retraining
    /// never re-quantizes — the residual updates run entirely in bin
    /// space via the per-tree router.
    ///
    /// # Examples
    ///
    /// ```
    /// use cm_ml::{BinnedDataset, Dataset, SgbrtConfig, MAX_BINS};
    ///
    /// let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
    /// let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0]).collect();
    /// let data = Dataset::new(rows, y)?;
    /// let binned = BinnedDataset::from_dataset(&data, MAX_BINS);
    /// let config = SgbrtConfig { n_trees: 20, ..SgbrtConfig::default() };
    /// let model = config.fit_binned(&binned.view(), data.targets())?;
    /// assert_eq!(model.n_trees(), 20);
    /// # Ok::<(), cm_ml::MlError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidConfig`] for out-of-range
    /// hyperparameters and [`MlError::InconsistentShape`] when `targets`
    /// does not pair with the view's rows.
    pub fn fit_binned(self, view: &BinnedView<'_>, targets: &[f64]) -> Result<Sgbrt, MlError> {
        self.boost(view, targets, Vec::new())
            .map(|(model, _)| model)
    }

    /// The histogram boosting loop, shared by [`SgbrtConfig::fit_binned`]
    /// and [`Refitter::fit`]. Stage `t < code_trees.len()` takes over
    /// `code_trees[t]` instead of growing a tree; the caller vouches
    /// that growing it would give the same tree. Returns the model and
    /// every stage's tree in code space.
    fn boost(
        self,
        view: &BinnedView<'_>,
        targets: &[f64],
        mut code_trees: Vec<hist::CodeTree>,
    ) -> Result<(Sgbrt, Vec<hist::CodeTree>), MlError> {
        self.validate()?;
        let reused = code_trees.len();
        debug_assert!(reused <= self.n_trees);
        record_fit(self.n_trees - reused, reused, "hist");
        let n = view.n_rows();
        if targets.len() != n {
            return Err(MlError::InconsistentShape {
                expected: n,
                found: targets.len(),
            });
        }
        if n == 0 {
            return Err(MlError::EmptyDataset);
        }
        let base = targets.iter().sum::<f64>() / n as f64;
        let mut residuals: Vec<f64> = targets.iter().map(|&y| y - base).collect();
        let mut trees = Vec::with_capacity(self.n_trees);
        let mut arena = hist::HistArena::default();

        for t in 0..self.n_trees {
            if t >= reused {
                let sample = self.stage_sample(n, t);
                code_trees.push(hist::fit_hist_tree(
                    view, &residuals, &sample, self.tree, &mut arena,
                )?);
            }
            let fitted = &code_trees[t];
            // Route every row through the tree by bin code — no raw
            // feature reads in the training loop.
            for (i, r) in residuals.iter_mut().enumerate() {
                *r -= self.learning_rate * fitted.route(view.dataset(), i);
            }
            trees.push(fitted.to_tree(view));
        }
        if cm_obs::enabled() {
            let (columns, exact) = arena.scan_counts();
            cm_obs::counter_add("ml.split.columns", columns);
            cm_obs::counter_add("ml.split.exact_columns", exact);
        }

        let model = Sgbrt::from_parts(base, self.learning_rate, trees, view.n_features());
        Ok((model, code_trees))
    }
}

/// Refits a histogram-binned ensemble on successive column subsets of
/// one [`BinnedDataset`] with one config and one target vector — the EIR
/// loop's pruning rounds — taking over the previous fit's leading trees
/// where the new fit would grow them again bit for bit.
///
/// Every [`Refitter::fit`] returns exactly what
/// [`SgbrtConfig::fit_binned`] returns on the same column view. A tree
/// is taken over when three things hold:
///
/// - **No dropped column.** The tree, and every tree before it, splits
///   only on columns the new view keeps. The first tree that splits on
///   a dropped column grows fresh, and so does every tree after it: its
///   residuals, and every histogram built from them, differ from there
///   on.
/// - **Same column 0.** A node's total is summed over the bins of view
///   column 0, so the new view's column 0 must be the previous one's.
/// - **Order kept.** The new columns are a subset of the previous
///   (distinct) ones in the same relative order. Each column's best cut
///   depends only on its own histogram, the node total, the node size
///   and the leaf-size floor, and a split goes to the first column with
///   the strictly greatest improvement, lowest column first — which is
///   the same column on any order-keeping subset that still holds it.
///
/// Otherwise the fit takes over nothing. The refitter keeps only the last
/// fit's trees in code space between fits, never a histogram.
///
/// # Examples
///
/// ```
/// use cm_ml::{BinnedDataset, Dataset, Refitter, SgbrtConfig, MAX_BINS};
///
/// let rows: Vec<Vec<f64>> = (0..80)
///     .map(|i| vec![(i % 9) as f64, (i % 7) as f64, (i % 5) as f64])
///     .collect();
/// let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] + r[2]).collect();
/// let data = Dataset::new(rows, y)?;
/// let binned = BinnedDataset::from_dataset(&data, MAX_BINS);
/// let config = SgbrtConfig { n_trees: 20, ..SgbrtConfig::default() };
/// let mut refitter = Refitter::new(config, &binned, data.targets());
/// refitter.fit(&[0, 1, 2])?;
/// // Column 1 is dropped: leading trees that never split on it are
/// // taken over, and the model is the one a fresh fit grows.
/// let pruned = refitter.fit(&[0, 2])?;
/// assert_eq!(pruned, config.fit_binned(&binned.select(&[0, 2])?, data.targets())?);
/// # Ok::<(), cm_ml::MlError>(())
/// ```
#[derive(Debug)]
pub struct Refitter<'a> {
    config: SgbrtConfig,
    binned: &'a BinnedDataset,
    targets: &'a [f64],
    /// The previous fit's columns and its trees in code space.
    last: Option<(Vec<usize>, Vec<hist::CodeTree>)>,
}

impl<'a> Refitter<'a> {
    /// A refitter that trains `config` on column views of `binned`
    /// against `targets` (one per row).
    pub fn new(config: SgbrtConfig, binned: &'a BinnedDataset, targets: &'a [f64]) -> Self {
        Refitter {
            config,
            binned,
            targets,
            last: None,
        }
    }

    /// Trains on the columns `cols` of the dataset, in that order, taking
    /// over the previous fit's leading trees where that is exact.
    ///
    /// # Errors
    ///
    /// As [`BinnedDataset::select`] and [`SgbrtConfig::fit_binned`].
    pub fn fit(&mut self, cols: &[usize]) -> Result<Sgbrt, MlError> {
        self.refit(cols).map(|(model, _)| model)
    }

    /// [`Refitter::fit`], also returning how many trees it took over.
    fn refit(&mut self, cols: &[usize]) -> Result<(Sgbrt, usize), MlError> {
        let view = self.binned.select(cols)?;
        let taken = match self.last.take() {
            Some((last_cols, mut trees)) => {
                let keep = reusable_prefix(&last_cols, cols, &trees, self.binned.n_features());
                trees.truncate(keep);
                trees
            }
            None => Vec::new(),
        };
        let reused = taken.len();
        let (model, trees) = self.config.boost(&view, self.targets, taken)?;
        self.last = Some((cols.to_vec(), trees));
        Ok((model, reused))
    }
}

/// How many leading `trees` of a fit on columns `old` a fit on columns
/// `new` would grow again bit for bit (see [`Refitter`]); `n_cols` is
/// the dataset's column count.
fn reusable_prefix(old: &[usize], new: &[usize], trees: &[hist::CodeTree], n_cols: usize) -> usize {
    // Node totals are summed over view column 0's bins.
    if old.first() != new.first() {
        return 0;
    }
    // A repeated column splits at its first position; dropping that
    // occurrence could hand its splits to a column that tied it.
    let mut seen = vec![false; n_cols];
    if old.iter().any(|&c| std::mem::replace(&mut seen[c], true)) {
        return 0;
    }
    // `new` must be a subsequence of `old`.
    let mut rest = old.iter();
    if !new.iter().all(|c| rest.any(|o| o == c)) {
        return 0;
    }
    let mut kept = vec![false; n_cols];
    for &c in new {
        kept[c] = true;
    }
    trees
        .iter()
        .take_while(|tree| tree.split_columns().all(|c| kept[c]))
        .count()
}

/// One observability record per training run: which trainer ran, how
/// many stages it will grow and how many it takes over from a previous
/// fit. Counted at entry (not per stage) so the totals are independent
/// of how the stages are scheduled.
fn record_fit(grown: usize, reused: usize, trainer: &str) {
    if cm_obs::enabled() {
        cm_obs::counter_add("ml.fits", 1);
        cm_obs::counter_add("ml.trees_grown", grown as u64);
        cm_obs::counter_add("ml.trees_reused", reused as u64);
        cm_obs::label_set("ml.trainer", trainer);
    }
}

/// A trained stochastic gradient boosted regression tree ensemble.
///
/// # Examples
///
/// ```
/// use cm_ml::{Dataset, SgbrtConfig};
///
/// let rows: Vec<Vec<f64>> = (0..80).map(|i| vec![(i % 10) as f64]).collect();
/// let y: Vec<f64> = rows.iter().map(|r| r[0] * r[0]).collect();
/// let data = Dataset::new(rows, y)?;
/// let model = SgbrtConfig::default().with_seed(3).fit(&data)?;
/// // Nonlinear fit: prediction near the true square.
/// assert!((model.predict(&[7.0]) - 49.0).abs() < 5.0);
/// # Ok::<(), cm_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sgbrt {
    base: f64,
    learning_rate: f64,
    trees: Vec<RegressionTree>,
    n_features: usize,
    /// The trees reflattened into one contiguous 16-byte-node array —
    /// every prediction path walks this, never the node enums.
    flat: FlatForest,
}

impl Sgbrt {
    /// Assembles a model, flattening the trees into the compact predictor.
    fn from_parts(
        base: f64,
        learning_rate: f64,
        trees: Vec<RegressionTree>,
        n_features: usize,
    ) -> Self {
        let flat = FlatForest::from_trees(&trees);
        Sgbrt {
            base,
            learning_rate,
            trees,
            n_features,
            flat,
        }
    }

    /// Predicts the target for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the training width.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(
            row.len(),
            self.n_features,
            "feature row length does not match the fitted ensemble"
        );
        self.base + self.learning_rate * self.flat.predict_row(row)
    }

    /// Predicts a batch of rows.
    ///
    /// Chunks fan out across threads; within a chunk the flat forest's
    /// blocked traversal streams the node array once per row block
    /// instead of once per row. Leaf values accumulate in tree order,
    /// so every prediction is bit-identical to [`Sgbrt::predict`].
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from the training width.
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        cm_par::map_chunked(rows.len(), PREDICT_CHUNK, |range| {
            let chunk: Vec<&[f64]> = rows[range]
                .iter()
                .map(|row| {
                    assert_eq!(
                        row.len(),
                        self.n_features,
                        "feature row length does not match the fitted ensemble"
                    );
                    row.as_slice()
                })
                .collect();
            self.finish_block(&chunk)
        })
    }

    /// Runs the blocked forest walk over one chunk of row slices and
    /// applies the boosting affine map `base + learning_rate · sum`.
    fn finish_block(&self, chunk: &[&[f64]]) -> Vec<f64> {
        let mut out = vec![0.0; chunk.len()];
        self.flat.predict_rows_into(chunk, &mut out);
        for v in &mut out {
            *v = self.base + self.learning_rate * *v;
        }
        out
    }

    /// Folds the ensemble at the row `pinned`, keeping only the splits on
    /// the `free` columns (renumbered `0..free.len()`, in tree order).
    ///
    /// [`FoldedForest::predict_packed`] on a row `v` of `free.len()`
    /// values is bit-identical to [`Sgbrt::predict`] on `pinned` with
    /// `v[k]` written at column `free[k]`: both walks reach the same
    /// leaves and sum them in the same order. Sweeping a few columns
    /// over many rows with everything else held fixed (the interaction
    /// ranker's partial-dependence surfaces) then walks only the splits
    /// those columns can change.
    ///
    /// # Panics
    ///
    /// Panics if `pinned.len()` differs from the training width, `free`
    /// is empty, or a free column is out of range or repeated.
    ///
    /// # Examples
    ///
    /// ```
    /// use cm_ml::{Dataset, SgbrtConfig};
    ///
    /// let rows: Vec<Vec<f64>> = (0..60)
    ///     .map(|i| vec![(i % 6) as f64, (i % 5) as f64, (i % 4) as f64])
    ///     .collect();
    /// let y: Vec<f64> = rows.iter().map(|r| r[0] * r[1] + r[2]).collect();
    /// let model = SgbrtConfig::default().fit(&Dataset::new(rows, y)?)?;
    /// let pinned = [2.5, 2.0, 1.5];
    /// let folded = model.fold(&pinned, &[1]);
    /// assert_eq!(folded.predict_packed(&[4.0]), vec![model.predict(&[2.5, 4.0, 1.5])]);
    /// # Ok::<(), cm_ml::MlError>(())
    /// ```
    pub fn fold(&self, pinned: &[f64], free: &[usize]) -> FoldedForest {
        assert_eq!(
            pinned.len(),
            self.n_features,
            "pinned row length does not match the fitted ensemble"
        );
        assert!(!free.is_empty(), "a fold needs at least one free column");
        let (flat, thresholds) = self.flat.fold(pinned, free);
        FoldedForest {
            base: self.base,
            learning_rate: self.learning_rate,
            flat,
            thresholds,
        }
    }

    /// Number of boosting stages.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of features the model was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Friedman relative feature importance, normalized to sum to 100
    /// (Eqs. 10–11 of the paper): each feature's squared-error
    /// improvements are summed over the splits that use it and averaged
    /// over trees.
    ///
    /// Returns all zeros when no tree made any split (constant target).
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_features];
        for tree in &self.trees {
            tree.accumulate_importance(&mut acc);
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for v in &mut acc {
                *v *= 100.0 / total;
            }
        }
        acc
    }
}

/// An [`Sgbrt`] folded at a pinned row by [`Sgbrt::fold`]: a forest over
/// the free columns alone.
///
/// Each free column's split thresholds cut its values into *cells*
/// ([`FoldedForest::cell`]); two rows whose free values share every
/// cell reach the same leaves, so they predict the same bits.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldedForest {
    base: f64,
    learning_rate: f64,
    flat: FlatForest,
    /// Per free column: sorted, deduplicated, non-NaN split thresholds.
    thresholds: Vec<Vec<f64>>,
}

impl FoldedForest {
    /// Number of free columns (the packed row width).
    pub fn n_free(&self) -> usize {
        self.thresholds.len()
    }

    /// The sorted, deduplicated, non-NaN thresholds of the splits on
    /// free column `k` that survive the fold.
    pub fn thresholds(&self, k: usize) -> &[f64] {
        &self.thresholds[k]
    }

    /// The cell of value `x` on free column `k`: the number of
    /// thresholds `t` with `x > t`, in `0..=thresholds(k).len()`. Every
    /// split takes the right branch exactly when `x > t`, so values in
    /// one cell go the same way at every split; NaN lands in cell 0
    /// with the values that go left everywhere.
    pub fn cell(&self, k: usize, x: f64) -> usize {
        self.thresholds[k].partition_point(|&t| x > t)
    }

    /// Predicts rows packed row-major, [`FoldedForest::n_free`] values
    /// each, on the calling thread. Bit-identical to [`Sgbrt::predict`]
    /// on the pinned row with each packed row written into its free
    /// columns.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the free-column count.
    pub fn predict_packed(&self, rows: &[f64]) -> Vec<f64> {
        let width = self.n_free();
        assert_eq!(
            rows.len() % width,
            0,
            "packed buffer length must be a multiple of the free-column count"
        );
        let mut out = vec![0.0; rows.len() / width];
        self.flat.predict_packed_into(rows, width, &mut out);
        for v in &mut out {
            *v = self.base + self.learning_rate * *v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn friedman_like(n: usize, seed: u64) -> Dataset {
        // y = 10·sin(x0) + 5·x1² + x2, x3 irrelevant.
        let mut rng = Rng::new(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..4).map(|_| rng.range_f64(0.0..3.0)).collect())
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| 10.0 * r[0].sin() + 5.0 * r[1] * r[1] + r[2])
            .collect();
        Dataset::new(rows, y).unwrap()
    }

    #[test]
    fn learns_nonlinear_function() {
        let train = friedman_like(400, 1);
        let test = friedman_like(100, 2);
        let model = SgbrtConfig {
            n_trees: 200,
            ..SgbrtConfig::default()
        }
        .fit(&train)
        .unwrap();
        let preds = model.predict_batch(test.rows());
        let err = metrics::relative_error(test.targets(), &preds).unwrap();
        assert!(err < 0.15, "relative error {err}");
    }

    #[test]
    fn importance_ranks_strong_features_first() {
        let data = friedman_like(500, 3);
        let model = SgbrtConfig::default().with_seed(1).fit(&data).unwrap();
        let imp = model.feature_importances();
        assert!((imp.iter().sum::<f64>() - 100.0).abs() < 1e-6);
        // x1 (quadratic, biggest range of effect) dominates; x3 is noise.
        assert!(imp[1] > imp[3]);
        assert!(imp[0] > imp[3]);
        assert!(imp[3] < 5.0, "irrelevant feature importance {}", imp[3]);
    }

    #[test]
    fn constant_target_predicts_constant() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let data = Dataset::new(rows, vec![3.25; 20]).unwrap();
        let model = SgbrtConfig::default().fit(&data).unwrap();
        assert!((model.predict(&[100.0]) - 3.25).abs() < 1e-9);
        assert!(model.feature_importances().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn training_is_seed_deterministic() {
        let data = friedman_like(150, 4);
        let a = SgbrtConfig::default().with_seed(7).fit(&data).unwrap();
        let b = SgbrtConfig::default().with_seed(7).fit(&data).unwrap();
        let c = SgbrtConfig::default().with_seed(8).fit(&data).unwrap();
        let row = data.row(0);
        assert_eq!(a.predict(row), b.predict(row));
        assert_eq!(a, b);
        // Different subsampling almost surely changes the model.
        assert_ne!(a.predict(row), c.predict(row));
    }

    #[test]
    fn training_is_thread_count_invariant() {
        let data = friedman_like(200, 9);
        let config = SgbrtConfig {
            n_trees: 30,
            ..SgbrtConfig::default()
        };
        cm_par::set_max_threads(1);
        let serial = config.fit(&data).unwrap();
        cm_par::set_max_threads(4);
        let parallel = config.fit(&data).unwrap();
        cm_par::set_max_threads(0);
        let default_threads = config.fit(&data).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial, default_threads);
    }

    #[test]
    fn predict_batch_matches_predict_exactly() {
        let data = friedman_like(300, 11);
        let model = SgbrtConfig {
            n_trees: 50,
            ..SgbrtConfig::default()
        }
        .fit(&data)
        .unwrap();
        let batch = model.predict_batch(data.rows());
        assert_eq!(batch.len(), data.n_rows());
        for (row, &b) in data.rows().iter().zip(&batch) {
            assert_eq!(model.predict(row), b);
        }
        assert!(model.predict_batch(&[]).is_empty());
    }

    #[test]
    fn shrinkage_slows_fitting() {
        let data = friedman_like(200, 5);
        let fast = SgbrtConfig {
            n_trees: 10,
            learning_rate: 0.5,
            ..SgbrtConfig::default()
        }
        .fit(&data)
        .unwrap();
        let slow = SgbrtConfig {
            n_trees: 10,
            learning_rate: 0.01,
            ..SgbrtConfig::default()
        }
        .fit(&data)
        .unwrap();
        let fast_err = metrics::mse(data.targets(), &fast.predict_batch(data.rows())).unwrap();
        let slow_err = metrics::mse(data.targets(), &slow.predict_batch(data.rows())).unwrap();
        assert!(fast_err < slow_err);
    }

    #[test]
    fn invalid_configs_rejected() {
        let data = friedman_like(50, 6);
        for cfg in [
            SgbrtConfig {
                n_trees: 0,
                ..SgbrtConfig::default()
            },
            SgbrtConfig {
                learning_rate: 0.0,
                ..SgbrtConfig::default()
            },
            SgbrtConfig {
                learning_rate: 1.5,
                ..SgbrtConfig::default()
            },
            SgbrtConfig {
                subsample: 0.0,
                ..SgbrtConfig::default()
            },
        ] {
            assert!(cfg.fit(&data).is_err(), "{cfg:?} should be rejected");
        }
    }

    /// Held-out relative error (Eq. 14) of each of `k` contiguous
    /// folds, trained serially.
    fn fold_errors(config: SgbrtConfig, data: &Dataset, k: usize) -> Vec<f64> {
        let n = data.n_rows();
        (0..k)
            .map(|fold| {
                let (lo, hi) = (fold * n / k, (fold + 1) * n / k);
                let pick = |idx: Vec<usize>| {
                    Dataset::new(
                        idx.iter().map(|&i| data.row(i).to_vec()).collect(),
                        idx.iter().map(|&i| data.target(i)).collect(),
                    )
                    .unwrap()
                };
                let train = pick((0..n).filter(|i| *i < lo || *i >= hi).collect());
                let test = pick((lo..hi).collect());
                let preds = config.fit(&train).unwrap().predict_batch(test.rows());
                crate::metrics::relative_error(test.targets(), &preds).unwrap()
            })
            .collect()
    }

    /// Oracle: the histogram trainer's cross-validated error must track
    /// the exact trainer's on the Friedman-style dataset — the binning
    /// is an approximation of split *placement*, not of the objective.
    #[test]
    fn hist_cv_error_within_tolerance_of_exact() {
        let data = friedman_like(600, 31);
        let cv_mean = |trainer: Trainer| {
            let cfg = SgbrtConfig {
                n_trees: 60,
                trainer,
                ..SgbrtConfig::default()
            };
            let errs = fold_errors(cfg, &data, 4);
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        let exact = cv_mean(Trainer::Exact);
        let hist = cv_mean(Trainer::Hist);
        assert!(
            (hist - exact).abs() / exact < 0.05,
            "hist CV error {hist} drifted from exact {exact}"
        );
    }

    #[test]
    fn hist_training_is_thread_count_invariant() {
        let data = friedman_like(300, 17);
        let config = SgbrtConfig {
            n_trees: 30,
            trainer: Trainer::Hist,
            ..SgbrtConfig::default()
        };
        cm_par::set_max_threads(1);
        let serial = config.fit(&data).unwrap();
        cm_par::set_max_threads(2);
        let two = config.fit(&data).unwrap();
        cm_par::set_max_threads(0);
        let all = config.fit(&data).unwrap();
        assert_eq!(serial, two);
        assert_eq!(serial, all);
    }

    /// Forcing one worker (the serial fallback path taken by
    /// `--no-default-features` builds) must reproduce the pooled result.
    #[test]
    fn hist_serial_fallback_matches_pooled_run() {
        let data = friedman_like(250, 19);
        let config = SgbrtConfig {
            n_trees: 20,
            trainer: Trainer::Hist,
            ..SgbrtConfig::default()
        };
        cm_par::set_max_threads(1);
        let serial = config.fit(&data).unwrap();
        let serial_preds = serial.predict_batch(data.rows());
        cm_par::set_max_threads(0);
        let pooled = config.fit(&data).unwrap();
        assert_eq!(serial, pooled);
        assert_eq!(serial_preds, pooled.predict_batch(data.rows()));
    }

    /// `fit` with the hist trainer is exactly `fit_binned` over a
    /// freshly binned view — the convenience path adds nothing.
    #[test]
    fn fit_binned_matches_hist_fit() {
        let data = friedman_like(200, 23);
        let config = SgbrtConfig {
            n_trees: 25,
            trainer: Trainer::Hist,
            ..SgbrtConfig::default()
        };
        let via_fit = config.fit(&data).unwrap();
        let binned = BinnedDataset::from_dataset(&data, MAX_BINS);
        let via_view = config.fit_binned(&binned.view(), data.targets()).unwrap();
        assert_eq!(via_fit, via_view);
    }

    /// The EIR reuse contract: training on a zero-copy column view of a
    /// once-binned dataset is bit-identical to re-binning the projected
    /// dataset — pruning rounds can skip re-quantization entirely.
    #[test]
    fn binned_column_view_matches_rebinned_projection() {
        let data = friedman_like(300, 27);
        let config = SgbrtConfig {
            n_trees: 20,
            trainer: Trainer::Hist,
            ..SgbrtConfig::default()
        };
        let binned = BinnedDataset::from_dataset(&data, MAX_BINS);
        for cols in [vec![0usize, 2], vec![3, 1], vec![0, 1, 2, 3]] {
            let view = binned.select(&cols).unwrap();
            let via_view = config.fit_binned(&view, data.targets()).unwrap();
            let projected = data.select_features(&cols).unwrap();
            let via_projection = config.fit(&projected).unwrap();
            assert_eq!(via_view, via_projection, "columns {cols:?}");
        }
    }

    /// FNV-1a of a value's `Debug` text. `f64` debug-prints its
    /// shortest round-trip form, so equal digests mean bit-equal models.
    fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
        cm_par::rng::fnv1a_extend(cm_par::rng::FNV1A_OFFSET, format!("{value:?}").as_bytes())
    }

    /// Golden pin of the histogram trainer: every stage of two
    /// `fit_binned` runs (a 7-column view mixing full 256-bin columns
    /// with low-cardinality ones, and a 3-column projection of it) at
    /// thread budgets 1 and 2. The digest was recorded before the
    /// histogram arena and the four-column lockstep split scan replaced
    /// the per-column histograms and the one-column scan; a change to
    /// split search that is meant to be exact must keep it.
    #[test]
    fn fit_binned_matches_golden_digest() {
        let base = friedman_like(320, 41);
        let rows: Vec<Vec<f64>> = base
            .rows()
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.push((r[0] * 4.0).round());
                r.push((r[3] * 10.0).floor());
                r.push(r[1]);
                r
            })
            .collect();
        let data = Dataset::new(rows, base.targets().to_vec()).unwrap();
        let binned = BinnedDataset::from_dataset(&data, MAX_BINS);
        let configs = [
            SgbrtConfig {
                n_trees: 40,
                ..SgbrtConfig::default()
            }
            .with_seed(5),
            SgbrtConfig {
                n_trees: 20,
                subsample: 0.8,
                tree: TreeConfig {
                    max_depth: 6,
                    min_samples_leaf: 5,
                    min_samples_split: 10,
                },
                ..SgbrtConfig::default()
            }
            .with_seed(6),
        ];
        let mut digests = Vec::new();
        for threads in [1, 2] {
            cm_par::set_max_threads(threads);
            let mut h = cm_par::rng::FNV1A_OFFSET;
            for config in configs {
                for cols in [vec![0usize, 1, 2, 3, 4, 5, 6], vec![5, 1, 4]] {
                    let view = binned.select(&cols).unwrap();
                    let model = config.fit_binned(&view, data.targets()).unwrap();
                    h = cm_par::rng::fnv1a_extend(h, &debug_digest(&model).to_le_bytes());
                }
            }
            digests.push(h);
        }
        cm_par::set_max_threads(0);
        assert_eq!(digests, [0x7c59_a4b5_7c53_ee99; 2], "{digests:#x?}");
    }

    /// `friedman_like` rows with NaN written into about one value in
    /// six (every column, feature 1 most often).
    fn with_nans(data: &Dataset, seed: u64) -> Dataset {
        let mut rng = Rng::new(seed);
        let rows: Vec<Vec<f64>> = data
            .rows()
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(f, &v)| {
                        let p = if f == 1 { 0.4 } else { 0.1 };
                        if rng.next_f64() < p {
                            f64::NAN
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect();
        Dataset::new(rows, data.targets().to_vec()).unwrap()
    }

    /// NaN features route left in every predictor, so the fitted model
    /// is exactly `base + learning_rate · Σ tree.predict` — the sum the
    /// exact trainer's residual updates subtract — on NaN-bearing rows.
    #[test]
    fn nan_rows_predict_like_summed_tree_walks() {
        let data = with_nans(&friedman_like(200, 51), 52);
        for trainer in [Trainer::Exact, Trainer::Hist] {
            let model = SgbrtConfig {
                n_trees: 25,
                trainer,
                ..SgbrtConfig::default()
            }
            .fit(&data)
            .unwrap();
            let mut probes = data.rows().to_vec();
            probes.push(vec![f64::NAN; 4]);
            for row in &probes {
                assert!(model.predict(row).is_finite(), "{trainer:?} {row:?}");
                let walked: f64 = model.trees.iter().map(|t| t.predict(row)).sum();
                let expected = model.base + model.learning_rate * walked;
                assert_eq!(
                    model.predict(row).to_bits(),
                    expected.to_bits(),
                    "{trainer:?}"
                );
            }
        }
    }

    /// Eight columns for the refit oracles: noise in column 0 (rarely a
    /// split, so dropping it leaves long reusable prefixes but moves
    /// every node total), one strong, one stepped and three weaker
    /// signals, more noise, and in column 7 an exact copy of column 1
    /// (every split on one ties the other).
    fn refit_data(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::new(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let mut r = vec![
                    rng.range_f64(0.0..1.0),
                    rng.range_f64(-2.0..2.0),
                    rng.range_usize(0..5) as f64,
                    rng.range_f64(0.0..3.0),
                    rng.range_f64(0.0..1.0),
                    rng.range_usize(0..3) as f64,
                    rng.range_f64(0.0..1.0),
                ];
                r.push(r[1]);
                r
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| {
                3.0 * r[1].sin() + r[2] + 0.5 * r[3] * r[3] + 0.4 * r[4] + 0.3 * r[5] - 0.05 * r[0]
                    + 0.1 * rng.range_f64(-1.0..1.0)
            })
            .collect();
        Dataset::new(rows, y).unwrap()
    }

    /// The trees a fit on `new` columns may take over from `prev`, a fit
    /// on `old` columns, read off the raw trees: none when column 0
    /// changes or `new` is not an order-keeping subset of `old`, else
    /// the leading trees whose splits all use kept columns.
    fn expected_reuse(prev: &Sgbrt, old: &[usize], new: &[usize]) -> usize {
        let mut rest = old.iter();
        if old[0] != new[0] || !new.iter().all(|c| rest.any(|o| o == c)) {
            return 0;
        }
        kept_prefix(prev, old, new)
    }

    /// The leading trees of `prev` (a fit on `old` columns) that split
    /// only on columns `new` keeps. A split's improvement is always
    /// positive, so a column's importance sum is nonzero exactly when a
    /// tree splits on it.
    fn kept_prefix(prev: &Sgbrt, old: &[usize], new: &[usize]) -> usize {
        prev.trees
            .iter()
            .take_while(|tree| {
                let mut used = vec![0.0; old.len()];
                tree.accumulate_importance(&mut used);
                (0..old.len()).all(|f| used[f] == 0.0 || new.contains(&old[f]))
            })
            .count()
    }

    /// Runs `refitter` over each column list in turn. Every fit must
    /// print (`{:?}`, so NaN leaves compare too) exactly as a fresh
    /// `fit_binned` on the same view, and take over exactly
    /// [`expected_reuse`] trees. Returns the trees taken over.
    fn refit_chain(
        refitter: &mut Refitter<'_>,
        binned: &BinnedDataset,
        targets: &[f64],
        chain: &[Vec<usize>],
    ) -> usize {
        let mut prev: Option<(Sgbrt, &[usize])> = None;
        let mut total = 0;
        for cols in chain {
            let (model, reused) = refitter.refit(cols).unwrap();
            let fresh = refitter
                .config
                .fit_binned(&binned.select(cols).unwrap(), targets)
                .unwrap();
            assert_eq!(
                format!("{model:?}"),
                format!("{fresh:?}"),
                "{chain:?} at {cols:?}"
            );
            let expected = prev
                .as_ref()
                .map_or(0, |(p, old)| expected_reuse(p, old, cols));
            assert_eq!(reused, expected, "{chain:?} at {cols:?}");
            total += reused;
            prev = Some((model, cols));
        }
        total
    }

    /// Seeded oracle: chains of column subsets through one refitter —
    /// pruning that keeps column 0, pruning column 0, a reordered subset
    /// (ties between columns 1 and 7 make order matter), a superset, and
    /// `n_trees` 1, 8 and 30 at depths 2–4.
    #[test]
    fn refit_matches_fresh_fit_over_seeded_column_subsets() {
        let mut rng = Rng::new(0x2ef1);
        let (mut reused, mut unguarded_col0, mut unguarded_order) = (0, 0, 0);
        for case in 0..24u64 {
            let data = refit_data(150 + 7 * case as usize, 100 + case);
            let binned = BinnedDataset::from_dataset(&data, MAX_BINS);
            let config = SgbrtConfig {
                n_trees: [1, 8, 30][case as usize % 3],
                learning_rate: [0.1, 0.3][case as usize % 2],
                subsample: [0.7, 1.0][case as usize / 2 % 2],
                tree: TreeConfig {
                    max_depth: 2 + case as usize % 3,
                    ..TreeConfig::default()
                },
                seed: case,
                trainer: Trainer::Hist,
            };
            let mut cols: Vec<usize> = (0..8).collect();
            if case % 4 == 3 {
                rng.shuffle(&mut cols);
            }
            // Drop `k` columns other than the first, keeping the order.
            let mut prune = |cols: &[usize], k: usize| -> Vec<usize> {
                let mut rest = cols[1..].to_vec();
                for _ in 0..k {
                    rest.remove(rng.range_usize(0..rest.len()));
                }
                std::iter::once(cols[0]).chain(rest).collect()
            };
            let s1 = prune(&cols, 2);
            let s2 = prune(&s1, 1);
            let s3 = s2[1..].to_vec();
            let s4: Vec<usize> = std::iter::once(s3[0])
                .chain(s3[1..].iter().rev().copied())
                .collect();
            let mut s5 = s4.clone();
            s5.push(s2[0]);
            let chain = [cols, s1, s2.clone(), s3.clone(), s4.clone(), s5];
            let mut refitter = Refitter::new(config, &binned, data.targets());
            reused += refit_chain(&mut refitter, &binned, data.targets(), &chain);
            // Without the guards, dropping column 0 and reordering would
            // have taken these trees over.
            let fit = |cols: &[usize]| {
                config
                    .fit_binned(&binned.select(cols).unwrap(), data.targets())
                    .unwrap()
            };
            unguarded_col0 += kept_prefix(&fit(&s2), &s2, &s3);
            unguarded_order += kept_prefix(&fit(&s3), &s3, &s4);
        }
        assert!(reused > 30, "only {reused} trees taken over");
        assert!(unguarded_col0 > 20, "column-0 drops: {unguarded_col0}");
        assert!(unguarded_order > 100, "reorders: {unguarded_order}");
    }

    /// The refitter's code-space trees from its last fit.
    fn last_trees<'r>(refitter: &'r Refitter<'_>) -> &'r [hist::CodeTree] {
        &refitter.last.as_ref().expect("a previous fit").1
    }

    /// Dropping the column tree 0's root splits on takes nothing over.
    #[test]
    fn refit_dropping_the_root_column_of_tree_zero_takes_nothing_over() {
        let data = refit_data(240, 7);
        let binned = BinnedDataset::from_dataset(&data, MAX_BINS);
        let config = SgbrtConfig {
            n_trees: 20,
            ..SgbrtConfig::default()
        };
        let all: Vec<usize> = (0..8).collect();
        let mut refitter = Refitter::new(config, &binned, data.targets());
        refitter.refit(&all).unwrap();
        let root = last_trees(&refitter)[0].split_columns().last().unwrap();
        assert_ne!(root, 0, "the noise column should not be tree 0's root");
        let kept: Vec<usize> = all.iter().copied().filter(|&c| c != root).collect();
        let reused = refit_chain(&mut refitter, &binned, data.targets(), &[kept]);
        assert_eq!(reused, 0);
    }

    /// Dropping a column whose first split sits below the root of a
    /// later tree `k` takes over exactly the `k` trees before it.
    #[test]
    fn refit_dropping_a_column_first_used_deep_in_a_later_tree_takes_over_the_trees_before() {
        let mut found = 0;
        for seed in 0..6 {
            let data = refit_data(200, 30 + seed);
            let binned = BinnedDataset::from_dataset(&data, MAX_BINS);
            let config = SgbrtConfig {
                n_trees: 40,
                tree: TreeConfig {
                    max_depth: 4,
                    ..TreeConfig::default()
                },
                ..SgbrtConfig::default()
            }
            .with_seed(seed);
            let all: Vec<usize> = (0..8).collect();
            let mut refitter = Refitter::new(config, &binned, data.targets());
            refitter.refit(&all).unwrap();
            let trees = last_trees(&refitter);
            // (column, tree of its first split) for columns whose first
            // split is not at that tree's root.
            let deep = (1..8).find_map(|c| {
                let k = trees
                    .iter()
                    .position(|t| t.split_columns().any(|s| s == c))?;
                let root = trees[k].split_columns().last();
                (k > 0 && root != Some(c)).then_some((c, k))
            });
            let Some((dropped, k)) = deep else { continue };
            let kept: Vec<usize> = all.iter().copied().filter(|&c| c != dropped).collect();
            let mut chain = Refitter::new(config, &binned, data.targets());
            let reused = refit_chain(&mut chain, &binned, data.targets(), &[all, kept]);
            assert_eq!(reused, k, "seed {seed}: column {dropped}");
            found += 1;
        }
        assert!(found >= 3, "only {found} seeds had a deep first split");
    }

    /// A view that repeats a column: its splits sit at the column's first
    /// position, so dropping that occurrence would move them onto the
    /// column that tied it (column 7 copies column 1). A refit from a
    /// view with a repeated column takes nothing over.
    #[test]
    fn refit_from_a_view_with_a_repeated_column_takes_nothing_over() {
        let data = refit_data(200, 91);
        let binned = BinnedDataset::from_dataset(&data, MAX_BINS);
        let config = SgbrtConfig {
            n_trees: 15,
            ..SgbrtConfig::default()
        };
        let mut refitter = Refitter::new(config, &binned, data.targets());
        refitter.refit(&[0, 1, 7, 1, 2]).unwrap();
        let cols = [0, 7, 1, 2];
        let (model, reused) = refitter.refit(&cols).unwrap();
        assert_eq!(reused, 0);
        let fresh = config
            .fit_binned(&binned.select(&cols).unwrap(), data.targets())
            .unwrap();
        assert_eq!(format!("{model:?}"), format!("{fresh:?}"));
    }

    /// NaN features (bin code 0, left at every split) and targets whose
    /// squared sums overflow in some nodes (infinite and NaN
    /// improvements there) or everywhere (an infinite target makes every
    /// gradient non-finite) refit exactly as fresh fits do.
    #[test]
    fn refit_matches_fresh_fit_on_nan_features_and_non_finite_gradients() {
        let data = with_nans(&refit_data(220, 81), 82);
        let binned = BinnedDataset::from_dataset(&data, MAX_BINS);
        let huge: Vec<f64> = data
            .targets()
            .iter()
            .enumerate()
            .map(|(i, &y)| {
                if i % 17 == 0 {
                    1e155 * (i % 2) as f64 - 5e154
                } else {
                    y
                }
            })
            .collect();
        let mut infinite = data.targets().to_vec();
        infinite[3] = f64::INFINITY;
        let chain = [
            (0..8).collect(),
            vec![0, 1, 2, 3, 5, 7],
            vec![0, 2, 3, 5, 7],
            vec![0, 3, 7],
        ];
        let mut reused = 0;
        for targets in [data.targets(), &huge[..], &infinite[..]] {
            let config = SgbrtConfig {
                n_trees: 25,
                ..SgbrtConfig::default()
            };
            let mut refitter = Refitter::new(config, &binned, targets);
            reused += refit_chain(&mut refitter, &binned, targets, &chain);
        }
        // The all-NaN gradients split nowhere: every later fit takes
        // over all 25 trees.
        assert!(reused >= 75, "only {reused} trees taken over");
    }

    #[test]
    fn fold_matches_predict_on_the_overwritten_pinned_row() {
        let data = with_nans(&friedman_like(160, 61), 62);
        let model = SgbrtConfig {
            n_trees: 30,
            ..SgbrtConfig::default()
        }
        .fit(&data)
        .unwrap();
        let mut rng = Rng::new(63);
        for free in [vec![0usize], vec![1], vec![3, 0], vec![1, 2]] {
            let pinned: Vec<f64> = (0..4).map(|_| rng.range_f64(0.0..3.0)).collect();
            let folded = model.fold(&pinned, &free);
            assert_eq!(folded.n_free(), free.len());
            // Probe values: every threshold exactly, NaN, signed zeros,
            // and the dataset's own values.
            let values: Vec<Vec<f64>> = (0..free.len())
                .map(|k| {
                    let mut v = folded.thresholds(k).to_vec();
                    v.extend([f64::NAN, 0.0, -0.0, 1.5]);
                    v.extend(data.rows().iter().map(|r| r[free[k]]));
                    v
                })
                .collect();
            for (k, t) in values.iter().enumerate() {
                let ts = folded.thresholds(k);
                assert!(ts.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
                assert_eq!(folded.cell(k, f64::NAN), 0);
                assert_eq!(folded.cell(k, ts.first().copied().unwrap_or(0.0)), 0);
                assert!(t.iter().all(|&x| folded.cell(k, x) <= ts.len()));
            }
            for i in 0..values[0].len() {
                let v: Vec<f64> = (0..free.len())
                    .map(|k| values[k][(i * (k + 1)) % values[k].len()])
                    .collect();
                let mut row = pinned.clone();
                for (k, &c) in free.iter().enumerate() {
                    row[c] = v[k];
                }
                let got = folded.predict_packed(&v);
                assert_eq!(
                    got[0].to_bits(),
                    model.predict(&row).to_bits(),
                    "{free:?} {v:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "free columns must be distinct")]
    fn fold_rejects_repeated_free_columns() {
        let data = friedman_like(50, 71);
        let model = SgbrtConfig {
            n_trees: 3,
            ..SgbrtConfig::default()
        }
        .fit(&data)
        .unwrap();
        model.fold(&[0.0; 4], &[2, 2]);
    }

    #[test]
    fn subsample_one_uses_all_rows() {
        let data = friedman_like(100, 7);
        let model = SgbrtConfig {
            subsample: 1.0,
            n_trees: 20,
            ..SgbrtConfig::default()
        }
        .fit(&data)
        .unwrap();
        assert_eq!(model.n_trees(), 20);
        assert_eq!(model.n_features(), 4);
    }
}
