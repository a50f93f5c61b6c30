use crate::{Dataset, MlError};

/// Configuration for a single CART regression tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth; depth 1 is a single split (a stump).
    pub max_depth: usize,
    /// Minimum samples a leaf may hold.
    pub min_samples_leaf: usize,
    /// Minimum samples a node needs to be considered for splitting.
    pub min_samples_split: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 3,
            min_samples_leaf: 2,
            min_samples_split: 4,
        }
    }
}

impl TreeConfig {
    pub(crate) fn validate(&self) -> Result<(), MlError> {
        if self.max_depth == 0 {
            return Err(MlError::InvalidConfig("max_depth must be at least 1"));
        }
        if self.min_samples_leaf == 0 {
            return Err(MlError::InvalidConfig(
                "min_samples_leaf must be at least 1",
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Squared-error improvement contributed by this split — the
        /// `P²(k)` ingredient of the paper's importance measure (Eq. 10).
        improvement: f64,
        left: usize,
        right: usize,
    },
}

/// A CART regression tree with variance-reduction splits.
///
/// Trees record the squared-error improvement of every split so the
/// ensemble can compute Friedman feature importance.
///
/// Split search is *presorted*: per-feature sample orders are sorted
/// once per tree, and every node scans them in O(features · rows) with
/// a stable lockstep partition carrying the orders down the recursion —
/// instead of re-sorting every feature at every node. A fit runs on its
/// calling thread, so the grown tree is a pure function of its inputs.
///
/// # Examples
///
/// ```
/// use cm_ml::{Dataset, RegressionTree, TreeConfig};
///
/// let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
/// let y: Vec<f64> = rows.iter().map(|r| if r[0] < 10.0 { 1.0 } else { 5.0 }).collect();
/// let data = Dataset::new(rows, y)?;
/// let tree = RegressionTree::fit(&data, TreeConfig::default())?;
/// assert!((tree.predict(&[3.0]) - 1.0).abs() < 1e-9);
/// assert!((tree.predict(&[15.0]) - 5.0).abs() < 1e-9);
/// # Ok::<(), cm_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    n_features: usize,
}

impl RegressionTree {
    /// Fits a tree to the full dataset.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidConfig`] for a bad configuration.
    pub fn fit(data: &Dataset, config: TreeConfig) -> Result<Self, MlError> {
        let indices: Vec<usize> = (0..data.n_rows()).collect();
        Self::fit_indices(data, &indices, config)
    }

    /// Fits a tree to a row subset (used by the boosted ensemble's
    /// stochastic subsampling). Rows may repeat.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidConfig`] for a bad configuration or
    /// [`MlError::EmptyDataset`] for an empty index set.
    pub fn fit_indices(
        data: &Dataset,
        indices: &[usize],
        config: TreeConfig,
    ) -> Result<Self, MlError> {
        Self::fit_with_targets(data, data.targets(), indices, config)
    }

    /// Like [`RegressionTree::fit_indices`] but with `targets` replacing
    /// the dataset's own target column — the boosting loop retargets the
    /// same feature matrix at each stage's residuals without cloning it.
    pub(crate) fn fit_with_targets(
        data: &Dataset,
        targets: &[f64],
        indices: &[usize],
        config: TreeConfig,
    ) -> Result<Self, MlError> {
        config.validate()?;
        if indices.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        debug_assert_eq!(targets.len(), data.n_rows());
        let mut ws = SplitWorkspace::new(data, targets, indices);
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            n_features: data.n_features(),
        };
        let m = indices.len();
        tree.build(&mut ws, 0..m, 0, config);
        Ok(tree)
    }

    /// Builds a subtree over the sample segment `seg`, returning its
    /// node id.
    fn build(
        &mut self,
        ws: &mut SplitWorkspace,
        seg: std::ops::Range<usize>,
        depth: usize,
        config: TreeConfig,
    ) -> usize {
        let n = seg.len();
        let mean = ws.segment_sum(seg.clone()) / n as f64;
        if depth >= config.max_depth || n < config.min_samples_split {
            return self.push(Node::Leaf { value: mean });
        }
        match ws.best_split(seg.clone(), config.min_samples_leaf) {
            None => self.push(Node::Leaf { value: mean }),
            Some(split) => {
                // Partition every feature's order in place around the
                // chosen threshold; both children stay presorted.
                let mid = ws.apply_split(seg.clone(), split.feature, split.threshold);
                let left = self.build(ws, seg.start..mid, depth + 1, config);
                let right = self.build(ws, mid..seg.end, depth + 1, config);
                self.push(Node::Split {
                    feature: split.feature,
                    threshold: split.threshold,
                    improvement: split.improvement,
                    left,
                    right,
                })
            }
        }
    }

    /// Assembles a tree from prebuilt nodes (children pushed before
    /// their parent, root last) — how a histogram-grown tree leaves code
    /// space.
    pub(crate) fn from_nodes(nodes: Vec<Node>, n_features: usize) -> Self {
        RegressionTree { nodes, n_features }
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    fn root(&self) -> usize {
        // Children are pushed before their parent, so the root is last.
        self.nodes.len() - 1
    }

    /// Predicts the target for one feature row. A split sends `x` right
    /// when `x > threshold` and left otherwise, so a NaN feature value
    /// always goes left.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the training width.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(
            row.len(),
            self.n_features,
            "feature row length does not match the fitted tree"
        );
        let mut node = self.root();
        loop {
            match &self.nodes[node] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    // `x > t` goes right, anything else — NaN included —
                    // left: the rule `FlatForest` and bin code 0 follow.
                    node = if row[*feature] > *threshold {
                        *right
                    } else {
                        *left
                    };
                }
            }
        }
    }

    /// Number of decision nodes (splits) in the tree.
    pub fn split_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Split { .. }))
            .count()
    }

    /// Accumulates each feature's squared-improvement into `acc`
    /// (`acc.len()` must equal the training feature count).
    pub(crate) fn accumulate_importance(&self, acc: &mut [f64]) {
        debug_assert_eq!(acc.len(), self.n_features);
        for node in &self.nodes {
            if let Node::Split {
                feature,
                improvement,
                ..
            } = node
            {
                acc[*feature] += improvement;
            }
        }
    }
}

/// One node of a [`FlatForest`]: 16 bytes, so an entire node — tag,
/// child link, and payload — lands on a single cache line and four nodes
/// pack per line. (The previous structure-of-arrays layout spread each
/// node over four parallel arrays, touching up to four cache lines per
/// hop; profiles showed that made flat traversal *slower* than walking
/// the nested trees.)
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlatNode {
    /// `feature + 1` for a split node; `0` marks a leaf.
    feat: u32,
    /// Left-child slot (the right child is `left + 1`); unused for
    /// leaves.
    left: u32,
    /// Split threshold, or the leaf's value.
    x: f64,
}

/// Rows per block in [`FlatForest::predict_rows_into`]. Small enough
/// that a block's accumulators and row pointers stay in registers/L1,
/// large enough to amortize streaming the forest once per block.
const ROW_BLOCK: usize = 16;

/// An ensemble of fitted trees flattened into one contiguous node
/// array, every tree laid out breadth-first with sibling children
/// adjacent (`right == left + 1`).
///
/// Traversal touches one flat array of 16-byte [`FlatNode`]s instead of
/// chasing `Vec<Node>` enums through pointer-sized tags, and the branch
/// in the hot loop is a single arithmetic select. Batch prediction
/// ([`FlatForest::predict_rows_into`]) additionally blocks rows so the
/// whole forest streams through cache once per [`ROW_BLOCK`] rows
/// instead of once per row. Every walk takes a split's right child on
/// `x > threshold` and its left child otherwise (NaN goes left), as
/// [`RegressionTree::predict`] does, and accumulates leaf values in tree
/// order, so results are bit-identical to summing
/// [`RegressionTree::predict`] over the same trees, NaN rows included.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FlatForest {
    nodes: Vec<FlatNode>,
    /// Root slot of each tree, in tree order.
    roots: Vec<u32>,
}

impl FlatForest {
    /// Flattens the trees of an ensemble, preserving tree order.
    pub(crate) fn from_trees(trees: &[RegressionTree]) -> Self {
        let total: usize = trees.iter().map(|t| t.nodes.len()).sum();
        let mut flat = FlatForest {
            nodes: Vec::with_capacity(total),
            roots: Vec::with_capacity(trees.len()),
        };
        let mut queue: std::collections::VecDeque<(usize, usize)> =
            std::collections::VecDeque::new();
        for tree in trees {
            let root = flat.alloc();
            flat.roots.push(root as u32);
            queue.clear();
            queue.push_back((tree.root(), root));
            while let Some((node, slot)) = queue.pop_front() {
                match &tree.nodes[node] {
                    Node::Leaf { value } => flat.nodes[slot].x = *value,
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                        ..
                    } => {
                        // Children take adjacent slots so the traversal
                        // can select `left + went_right`.
                        let l = flat.alloc();
                        let _r = flat.alloc();
                        flat.nodes[slot] = FlatNode {
                            feat: *feature as u32 + 1,
                            left: l as u32,
                            x: *threshold,
                        };
                        queue.push_back((*left, l));
                        queue.push_back((*right, l + 1));
                    }
                }
            }
        }
        flat
    }

    /// Appends a placeholder node, returning its slot.
    fn alloc(&mut self) -> usize {
        self.nodes.push(FlatNode {
            feat: 0,
            left: 0,
            x: 0.0,
        });
        self.nodes.len() - 1
    }

    /// Folds every tree at a pinned row. A split on a column outside
    /// `free` is resolved by following `pinned`'s branch under the same
    /// `x > threshold` rule the walks use; a split on `free[k]` is kept
    /// and renumbered to column `k`. Tree order is preserved, so walking
    /// the folded forest with row `v` reaches the leaves the original
    /// reaches with `pinned` overwritten by `v` on the free columns, and
    /// sums them in the same order.
    ///
    /// Also returns, per free column, the sorted, deduplicated, non-NaN
    /// thresholds of the kept splits (a NaN threshold sends nothing
    /// right, so it never separates two values).
    pub(crate) fn fold(&self, pinned: &[f64], free: &[usize]) -> (FlatForest, Vec<Vec<f64>>) {
        let mut renumbered = vec![u32::MAX; pinned.len()];
        for (k, &c) in free.iter().enumerate() {
            assert_eq!(renumbered[c], u32::MAX, "free columns must be distinct");
            renumbered[c] = k as u32;
        }
        let mut out = FlatForest {
            nodes: Vec::new(),
            roots: Vec::with_capacity(self.roots.len()),
        };
        let mut thresholds = vec![Vec::new(); free.len()];
        let mut pending: Vec<(usize, usize)> = Vec::new();
        for &root in &self.roots {
            let slot = out.alloc();
            out.roots.push(slot as u32);
            pending.push((root as usize, slot));
            while let Some((mut i, slot)) = pending.pop() {
                let node = loop {
                    let n = self.nodes[i];
                    if n.feat == 0 || renumbered[(n.feat - 1) as usize] != u32::MAX {
                        break n;
                    }
                    i = n.left as usize + (pinned[(n.feat - 1) as usize] > n.x) as usize;
                };
                if node.feat == 0 {
                    out.nodes[slot] = node;
                    continue;
                }
                let k = renumbered[(node.feat - 1) as usize];
                if !node.x.is_nan() {
                    thresholds[k as usize].push(node.x);
                }
                let left = out.alloc();
                out.alloc();
                out.nodes[slot] = FlatNode {
                    feat: k + 1,
                    left: left as u32,
                    x: node.x,
                };
                pending.push((node.left as usize, left));
                pending.push((node.left as usize + 1, left + 1));
            }
        }
        for t in &mut thresholds {
            // `-0.0` and `0.0` sort adjacent and compare equal, and so
            // do their `x > t` predicates.
            t.sort_by(f64::total_cmp);
            t.dedup();
        }
        (out, thresholds)
    }

    /// Sum of every tree's leaf value for one feature row, in tree
    /// order.
    #[inline]
    pub(crate) fn predict_row(&self, row: &[f64]) -> f64 {
        let mut acc = 0.0;
        for &root in &self.roots {
            let mut i = root as usize;
            loop {
                let n = self.nodes[i];
                if n.feat == 0 {
                    acc += n.x;
                    break;
                }
                let right = (row[(n.feat - 1) as usize] > n.x) as usize;
                i = n.left as usize + right;
            }
        }
        acc
    }

    /// Raw forest sums (no base or learning-rate scaling) for a batch of
    /// rows, written into `out`.
    ///
    /// Rows are processed in [`ROW_BLOCK`]-sized blocks with the *tree*
    /// loop outermost inside a block: each tree's nodes are walked for
    /// all rows of the block while they are hot in cache, so the forest
    /// streams through memory once per block instead of once per row.
    /// Each row's accumulator still receives its leaf values in tree
    /// order, so every output is bit-identical to
    /// [`FlatForest::predict_row`].
    pub(crate) fn predict_rows_into(&self, rows: &[&[f64]], out: &mut [f64]) {
        debug_assert_eq!(rows.len(), out.len());
        for (rows, accs) in rows.chunks(ROW_BLOCK).zip(out.chunks_mut(ROW_BLOCK)) {
            accs.fill(0.0);
            for &root in &self.roots {
                for (row, acc) in rows.iter().zip(accs.iter_mut()) {
                    let mut i = root as usize;
                    loop {
                        let n = self.nodes[i];
                        if n.feat == 0 {
                            *acc += n.x;
                            break;
                        }
                        let right = (row[(n.feat - 1) as usize] > n.x) as usize;
                        i = n.left as usize + right;
                    }
                }
            }
        }
    }

    /// [`FlatForest::predict_rows_into`] for rows packed row-major in
    /// one contiguous buffer of width `n_features` — the walk indexes
    /// the buffer directly, so the flat entry point never materializes
    /// per-row slice references.
    pub(crate) fn predict_packed_into(&self, rows: &[f64], n_features: usize, out: &mut [f64]) {
        debug_assert_eq!(rows.len(), out.len() * n_features);
        for (rows, accs) in rows
            .chunks(ROW_BLOCK * n_features)
            .zip(out.chunks_mut(ROW_BLOCK))
        {
            accs.fill(0.0);
            for &root in &self.roots {
                for (row, acc) in rows.chunks_exact(n_features).zip(accs.iter_mut()) {
                    let mut i = root as usize;
                    loop {
                        let n = self.nodes[i];
                        if n.feat == 0 {
                            *acc += n.x;
                            break;
                        }
                        let right = (row[(n.feat - 1) as usize] > n.x) as usize;
                        i = n.left as usize + right;
                    }
                }
            }
        }
    }
}

struct SplitChoice {
    feature: usize,
    threshold: f64,
    improvement: f64,
}

/// Per-tree presorted state: gathered feature columns, gathered targets,
/// and one sample order per feature, kept partitioned in lockstep so a
/// node's samples occupy the same contiguous segment — already sorted —
/// in every feature's order.
struct SplitWorkspace {
    /// `cols[f][p]`: feature `f` of sample position `p`.
    cols: Vec<Vec<f64>>,
    /// `y[p]`: target of sample position `p`.
    y: Vec<f64>,
    /// `orders[f]`: sample positions sorted ascending by `cols[f]`.
    orders: Vec<Vec<u32>>,
    /// Scratch: side of the pending split per sample position.
    goes_left: Vec<bool>,
}

impl SplitWorkspace {
    fn new(data: &Dataset, targets: &[f64], indices: &[usize]) -> Self {
        let m = indices.len();
        let n_features = data.n_features();
        // Gathering a column and sorting its order is the O(F·m log m)
        // once-per-tree cost replacing the seed algorithm's per-node
        // re-sorts.
        let mut cols = Vec::with_capacity(n_features);
        let mut orders = Vec::with_capacity(n_features);
        for f in 0..n_features {
            let col: Vec<f64> = indices.iter().map(|&i| data.row(i)[f]).collect();
            let mut order: Vec<u32> = (0..m as u32).collect();
            // NaN sorts first: it goes left at every split.
            order.sort_by(|&a, &b| {
                let (x, y) = (col[a as usize], col[b as usize]);
                y.is_nan().cmp(&x.is_nan()).then(x.total_cmp(&y))
            });
            cols.push(col);
            orders.push(order);
        }
        SplitWorkspace {
            cols,
            y: indices.iter().map(|&i| targets[i]).collect(),
            orders,
            goes_left: vec![false; m],
        }
    }

    /// Sum of targets over a node's segment.
    fn segment_sum(&self, seg: std::ops::Range<usize>) -> f64 {
        self.orders[0][seg]
            .iter()
            .map(|&p| self.y[p as usize])
            .sum()
    }

    /// Finds the variance-reduction-optimal split over all features, or
    /// `None` when no split satisfies the leaf-size constraint or
    /// improves the squared error. On exact ties the lowest feature
    /// wins.
    fn best_split(&self, seg: std::ops::Range<usize>, min_leaf: usize) -> Option<SplitChoice> {
        let n = seg.len();
        if n < min_leaf.saturating_mul(2) {
            return None;
        }
        let root_order = &self.orders[0][seg.clone()];
        let total_sum: f64 = root_order.iter().map(|&p| self.y[p as usize]).sum();
        let total_sq: f64 = root_order
            .iter()
            .map(|&p| self.y[p as usize] * self.y[p as usize])
            .sum();
        let parent_sse = total_sq - total_sum * total_sum / n as f64;

        let scan_feature = |feature: usize| -> Option<(f64, f64)> {
            let order = &self.orders[feature][seg.clone()];
            let col = &self.cols[feature];
            let mut best: Option<(f64, f64)> = None;
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for pos in 0..n - 1 {
                let p = order[pos] as usize;
                let y = self.y[p];
                left_sum += y;
                left_sq += y * y;
                let left_n = pos + 1;
                let right_n = n - left_n;
                if left_n < min_leaf || right_n < min_leaf {
                    continue;
                }
                let x_here = col[p];
                let x_next = col[order[pos + 1] as usize];
                if x_here == x_next || x_next.is_nan() {
                    continue; // cannot split between equal values or NaNs
                }
                // Between the last NaN and the first number, the cut that
                // sends every number right is -inf.
                let threshold = if !x_here.is_nan() {
                    0.5 * (x_here + x_next)
                } else if x_next > f64::NEG_INFINITY {
                    f64::NEG_INFINITY
                } else {
                    continue;
                };
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let left_sse = left_sq - left_sum * left_sum / left_n as f64;
                let right_sse = right_sq - right_sum * right_sum / right_n as f64;
                let improvement = parent_sse - left_sse - right_sse;
                if improvement > 1e-12 && best.is_none_or(|(b, _)| improvement > b) {
                    best = Some((improvement, threshold));
                }
            }
            best
        };

        let mut best: Option<SplitChoice> = None;
        for feature in 0..self.cols.len() {
            if let Some((improvement, threshold)) = scan_feature(feature) {
                if best.as_ref().is_none_or(|b| improvement > b.improvement) {
                    best = Some(SplitChoice {
                        feature,
                        threshold,
                        improvement,
                    });
                }
            }
        }
        best
    }

    /// Stably partitions every feature's segment so samples that do not
    /// satisfy `feature > threshold` (NaN included) come first; returns
    /// the boundary position.
    /// Stability keeps each child segment sorted in every feature.
    fn apply_split(
        &mut self,
        seg: std::ops::Range<usize>,
        feature: usize,
        threshold: f64,
    ) -> usize {
        let n = seg.len();
        let mut left_n = 0usize;
        for pos in seg.clone() {
            let p = self.orders[feature][pos] as usize;
            let right = self.cols[feature][p] > threshold;
            self.goes_left[p] = !right;
            left_n += !right as usize;
        }

        let mut kept = Vec::with_capacity(n - left_n);
        for order in &mut self.orders {
            let slice = &mut order[seg.clone()];
            kept.clear();
            let mut write = 0usize;
            for read in 0..n {
                let p = slice[read];
                if self.goes_left[p as usize] {
                    slice[write] = p;
                    write += 1;
                } else {
                    kept.push(p);
                }
            }
            slice[write..].copy_from_slice(&kept);
        }
        seg.start + left_n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, 0.0]).collect();
        let y: Vec<f64> = (0..n).map(|i| if i < n / 2 { -1.0 } else { 1.0 }).collect();
        Dataset::new(rows, y).unwrap()
    }

    #[test]
    fn fits_step_function_exactly() {
        let data = step_data(40);
        let tree = RegressionTree::fit(&data, TreeConfig::default()).unwrap();
        assert_eq!(tree.predict(&[0.0, 0.0]), -1.0);
        assert_eq!(tree.predict(&[39.0, 0.0]), 1.0);
    }

    #[test]
    fn constant_targets_give_single_leaf() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let data = Dataset::new(rows, vec![7.0; 10]).unwrap();
        let tree = RegressionTree::fit(&data, TreeConfig::default()).unwrap();
        assert_eq!(tree.split_count(), 0);
        assert_eq!(tree.predict(&[123.0]), 7.0);
    }

    #[test]
    fn respects_max_depth() {
        let data = step_data(64);
        let tree = RegressionTree::fit(
            &data,
            TreeConfig {
                max_depth: 1,
                ..TreeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(tree.split_count(), 1);
    }

    #[test]
    fn respects_min_samples_leaf() {
        let data = step_data(8);
        let tree = RegressionTree::fit(
            &data,
            TreeConfig {
                max_depth: 10,
                min_samples_leaf: 4,
                min_samples_split: 2,
            },
        )
        .unwrap();
        // Only one split (4 | 4) is legal.
        assert_eq!(tree.split_count(), 1);
    }

    /// `TreeConfig::validate` accepts any positive leaf size; one no
    /// node can satisfy must give a single leaf, not overflow `2 · n`.
    #[test]
    fn unsatisfiable_min_samples_leaf_gives_single_leaf() {
        let data = step_data(40);
        let tree = RegressionTree::fit(
            &data,
            TreeConfig {
                min_samples_leaf: usize::MAX,
                ..TreeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(tree.split_count(), 0);
        assert_eq!(tree.predict(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn importance_lands_on_informative_feature() {
        let data = step_data(40); // feature 1 is constant noise
        let tree = RegressionTree::fit(&data, TreeConfig::default()).unwrap();
        let mut acc = vec![0.0; 2];
        tree.accumulate_importance(&mut acc);
        assert!(acc[0] > 0.0);
        assert_eq!(acc[1], 0.0);
    }

    #[test]
    fn fit_indices_uses_subset_only() {
        let data = step_data(40);
        // All-left subset: the tree never sees a positive target.
        let indices: Vec<usize> = (0..20).collect();
        let tree = RegressionTree::fit_indices(&data, &indices, TreeConfig::default()).unwrap();
        assert_eq!(tree.predict(&[39.0, 0.0]), -1.0);
    }

    #[test]
    fn fit_indices_handles_repeated_rows() {
        let data = step_data(16);
        // Triplicate a lopsided subset; repeats must weight the means.
        let indices: Vec<usize> = (0..16).chain(0..4).chain(0..4).collect();
        let tree = RegressionTree::fit_indices(&data, &indices, TreeConfig::default()).unwrap();
        assert_eq!(tree.predict(&[0.0, 0.0]), -1.0);
        assert_eq!(tree.predict(&[15.0, 0.0]), 1.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let data = step_data(8);
        assert!(RegressionTree::fit(
            &data,
            TreeConfig {
                max_depth: 0,
                ..TreeConfig::default()
            }
        )
        .is_err());
        assert!(RegressionTree::fit_indices(&data, &[], TreeConfig::default()).is_err());
    }

    #[test]
    #[should_panic(expected = "feature row length")]
    fn predict_wrong_width_panics() {
        let data = step_data(8);
        let tree = RegressionTree::fit(&data, TreeConfig::default()).unwrap();
        tree.predict(&[1.0]);
    }

    #[test]
    fn ties_in_feature_values_handled() {
        // All x equal: no legal split, falls back to mean leaf.
        let rows = vec![vec![5.0]; 10];
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let data = Dataset::new(rows, y).unwrap();
        let tree = RegressionTree::fit(&data, TreeConfig::default()).unwrap();
        assert_eq!(tree.split_count(), 0);
        assert!((tree.predict(&[5.0]) - 4.5).abs() < 1e-12);
    }

    #[test]
    fn flat_forest_matches_tree_walks_exactly() {
        use cm_par::Rng;
        let mut rng = Rng::new(3);
        let rows: Vec<Vec<f64>> = (0..80)
            .map(|_| (0..3).map(|_| rng.range_f64(-5.0..5.0)).collect())
            .collect();
        let trees: Vec<RegressionTree> = (0..4)
            .map(|t| {
                let y: Vec<f64> = rows
                    .iter()
                    .map(|r| r[t % 3] * (t as f64 + 1.0) + rng.range_f64(-0.1..0.1))
                    .collect();
                let data = Dataset::new(rows.clone(), y).unwrap();
                RegressionTree::fit(
                    &data,
                    TreeConfig {
                        max_depth: 4,
                        ..TreeConfig::default()
                    },
                )
                .unwrap()
            })
            .collect();
        let flat = FlatForest::from_trees(&trees);
        for row in &rows {
            let walked: f64 = trees.iter().map(|t| t.predict(row)).sum();
            assert_eq!(flat.predict_row(row), walked);
        }
        assert_eq!(FlatForest::from_trees(&[]).predict_row(&[1.0]), 0.0);

        // The blocked batch path must agree bit-for-bit with the
        // per-row walk at every block-boundary batch size (ROW_BLOCK is
        // 16): empty, partial, exact, one-over, and multi-block.
        for n in [0usize, 1, 15, 16, 17, 33] {
            let batch: Vec<&[f64]> = rows.iter().take(n).map(|r| r.as_slice()).collect();
            let mut out = vec![f64::NAN; n];
            flat.predict_rows_into(&batch, &mut out);
            for (row, &got) in batch.iter().zip(&out) {
                assert_eq!(got.to_bits(), flat.predict_row(row).to_bits(), "n={n}");
            }
        }
    }

    /// The seed implementation's split search, kept as a test oracle:
    /// re-sorts the index set per feature per node. The presorted search
    /// must choose the same splits.
    fn oracle_best_split(
        data: &Dataset,
        indices: &[usize],
        min_leaf: usize,
    ) -> Option<(usize, f64)> {
        let n = indices.len();
        if n < min_leaf.saturating_mul(2) {
            return None;
        }
        let total_sum: f64 = indices.iter().map(|&i| data.target(i)).sum();
        let total_sq: f64 = indices
            .iter()
            .map(|&i| data.target(i) * data.target(i))
            .sum();
        let parent_sse = total_sq - total_sum * total_sum / n as f64;
        let mut best: Option<(usize, f64, f64)> = None;
        let mut order: Vec<usize> = indices.to_vec();
        for feature in 0..data.n_features() {
            order.sort_by(|&a, &b| data.row(a)[feature].total_cmp(&data.row(b)[feature]));
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for pos in 0..n - 1 {
                let i = order[pos];
                let y = data.target(i);
                left_sum += y;
                left_sq += y * y;
                let left_n = pos + 1;
                let right_n = n - left_n;
                if left_n < min_leaf || right_n < min_leaf {
                    continue;
                }
                let x_here = data.row(i)[feature];
                let x_next = data.row(order[pos + 1])[feature];
                if x_here == x_next {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let left_sse = left_sq - left_sum * left_sum / left_n as f64;
                let right_sse = right_sq - right_sum * right_sum / right_n as f64;
                let improvement = parent_sse - left_sse - right_sse;
                if improvement > 1e-12 && best.is_none_or(|(_, _, b)| improvement > b) {
                    best = Some((feature, 0.5 * (x_here + x_next), improvement));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }

    #[test]
    fn presorted_search_matches_per_node_resort_oracle() {
        use cm_par::Rng;
        for seed in 0..8u64 {
            let mut rng = Rng::new(seed);
            let rows: Vec<Vec<f64>> = (0..120)
                .map(|_| (0..5).map(|_| rng.range_f64(-10.0..10.0)).collect())
                .collect();
            let y: Vec<f64> = rows
                .iter()
                .map(|r| r[0].sin() * 4.0 + r[2] + rng.range_f64(-0.5..0.5))
                .collect();
            let data = Dataset::new(rows, y).unwrap();
            let indices: Vec<usize> = (0..data.n_rows()).collect();
            let oracle = oracle_best_split(&data, &indices, 2);
            let ws = SplitWorkspace::new(&data, data.targets(), &indices);
            let got = ws
                .best_split(0..indices.len(), 2)
                .map(|s| (s.feature, s.threshold));
            assert_eq!(got, oracle, "seed {seed}");
        }
    }
}
