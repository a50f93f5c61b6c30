//! Histogram-binned regression-tree growth.
//!
//! Split search over a [`BinnedView`] scans per-node **gradient
//! histograms** — (target-sum, count) per bin per feature — instead of
//! per-row presorted orders: building a node's histogram is one O(rows)
//! pass, and the split scan is O(bins) per feature. After a split, only
//! the *smaller* child's histogram is rebuilt; the larger child's is the
//! parent's minus the sibling's (the subtraction trick), so each level of
//! the tree costs roughly half its row count instead of all of it.
//!
//! The variance-reduction objective is identical to the exact trainer's:
//! for a candidate partition into (L, R),
//!
//! ```text
//! improvement = sum_L²/n_L + sum_R²/n_R − sum²/n
//! ```
//!
//! which is algebraically the parent-minus-children SSE the exact scan
//! computes (the squared-target terms cancel). Candidate thresholds are
//! the bin cuts, so when every distinct value has its own bin the search
//! space matches exact search exactly.
//!
//! One tree fit runs on its calling thread: a node's histogram build
//! and split scan are microseconds of work, too little to pay for a pool
//! dispatch. Parallelism lives above the fit (cross-validation folds,
//! interaction pairs). Every reduction is in fixed column-then-bin
//! order, so the grown tree is a pure function of its inputs.
//!
//! Two things keep the fit cheap:
//!
//! - **A histogram arena.** A histogram is two flat buffers, sums and
//!   counts, [`MAX_BINS`] wide per column. A [`HistArena`] shared by the
//!   trees of one boosting run hands them out and takes them back, so
//!   growing a node allocates nothing once the arena holds a tree's
//!   working set (three histograms at depth 3).
//! - **A lockstep split scan.** The scan of one column is one serial
//!   chain per bin — running sum, two divisions, a compare against the
//!   running best — and is bound by that chain's latency, not by its
//!   arithmetic. [`HistWorkspace::best_split`] therefore scans four
//!   columns at once, four independent chains the core overlaps.

use crate::binning::{BinnedView, MAX_BINS};
use crate::tree::{Node, RegressionTree, TreeConfig};
use crate::MlError;

/// Columns a split scan walks in lockstep.
const LANES: usize = 4;

/// Matches the exact trainer's minimum useful squared-error improvement.
const MIN_IMPROVEMENT: f64 = 1e-12;

/// A tree grown on binned codes: the portable raw-threshold
/// [`RegressionTree`] plus a code-space router that classifies any row of
/// the source [`BinnedView`] without touching raw feature values — the
/// boosting loop's residual updates run entirely in bin space.
#[derive(Debug)]
pub(crate) struct HistTree {
    pub(crate) tree: RegressionTree,
    /// Router nodes, children pushed before parents (root last), exactly
    /// mirroring `tree`'s layout.
    router: Vec<RouterNode>,
}

#[derive(Debug)]
enum RouterNode {
    Leaf {
        value: f64,
    },
    Split {
        col: u32,
        cut: u8,
        left: u32,
        right: u32,
    },
}

impl HistTree {
    /// The leaf value `row` of the view routes to.
    pub(crate) fn route(&self, view: &BinnedView<'_>, row: usize) -> f64 {
        let mut i = self.router.len() - 1;
        loop {
            match self.router[i] {
                RouterNode::Leaf { value } => return value,
                RouterNode::Split {
                    col,
                    cut,
                    left,
                    right,
                } => {
                    i = if view.code(col as usize, row) <= cut {
                        left as usize
                    } else {
                        right as usize
                    };
                }
            }
        }
    }
}

/// The (target-sum, count) histogram of one node: bin `b` of view column
/// `j` sits at `j * MAX_BINS + b` in both buffers.
///
/// Every column is [`MAX_BINS`] wide regardless of how many bins it
/// occupies: a `u8` bin code then provably indexes in bounds, so the
/// accumulation scatter carries no bounds checks. Sums and counts stay in
/// *separate* buffers — a count bump is an integer add that issues
/// alongside the sum's floating-point add, where an interleaved
/// `[sum, count]` f64 layout would serialize two FP adds through the same
/// cache line (measurably slower on the build loop).
struct Hist {
    sums: Vec<f64>,
    cnts: Vec<u32>,
}

impl Hist {
    fn col_sums(&self, j: usize) -> &[f64; MAX_BINS] {
        self.sums[j * MAX_BINS..][..MAX_BINS]
            .try_into()
            .expect("a histogram column is MAX_BINS wide")
    }

    fn col_cnts(&self, j: usize) -> &[u32; MAX_BINS] {
        self.cnts[j * MAX_BINS..][..MAX_BINS]
            .try_into()
            .expect("a histogram column is MAX_BINS wide")
    }

    /// Turns `self` (a parent histogram) into the sibling of `child` in
    /// place — the subtraction trick. Slots past a column's occupied bins
    /// are `+0.0` (resp. `0`) in both parent and child, and
    /// `0.0 - 0.0 == +0.0`, so subtracting the whole flat buffer is safe
    /// and branch-free.
    fn subtract(mut self, child: &Hist) -> Hist {
        for (p, c) in self.sums.iter_mut().zip(&child.sums) {
            *p -= c;
        }
        for (p, c) in self.cnts.iter_mut().zip(&child.cnts) {
            *p -= c;
        }
        self
    }
}

/// Histogram buffers shared by the trees of one boosting run. A fit
/// takes histograms from it and gives them back, so only the first tree
/// allocates.
#[derive(Default)]
pub(crate) struct HistArena {
    free: Vec<Hist>,
}

struct BestSplit {
    col: usize,
    cut: u8,
    improvement: f64,
}

/// Fits one regression tree to `gradients` (indexed by view row) over
/// the sampled rows `sample` (repeats allowed), growing by histogram
/// split search with histograms from `arena`.
pub(crate) fn fit_hist_tree(
    view: &BinnedView<'_>,
    gradients: &[f64],
    sample: &[usize],
    config: TreeConfig,
    arena: &mut HistArena,
) -> Result<HistTree, MlError> {
    config.validate()?;
    if sample.is_empty() {
        return Err(MlError::EmptyDataset);
    }
    debug_assert_eq!(gradients.len(), view.n_rows());
    let mut ws = HistWorkspace::new(view, gradients, sample, arena);
    let mut out = HistTree {
        tree: RegressionTree::from_nodes(Vec::new(), view.n_features()),
        router: Vec::new(),
    };
    build(&mut out, &mut ws, view, 0..sample.len(), 0, None, config);
    Ok(out)
}

/// Per-tree gathered state: sample-local code columns, targets, and one
/// position array kept partitioned so a node's samples are contiguous.
struct HistWorkspace<'a> {
    /// `codes[j * m + p]`: bin code of view column `j` at sample
    /// position `p`, for `m` sample positions.
    codes: Vec<u8>,
    /// `n_bins[j]`: occupied bins of view column `j`.
    n_bins: Vec<usize>,
    /// `y[p]`: gradient (residual target) of sample position `p`.
    y: Vec<f64>,
    /// Sample positions, partitioned in place as nodes split.
    positions: Vec<u32>,
    /// Scratch: side of the pending split per sample position.
    goes_left: Vec<bool>,
    /// Scratch: the right side of a segment being partitioned.
    kept: Vec<u32>,
    arena: &'a mut HistArena,
}

impl<'a> HistWorkspace<'a> {
    fn new(
        view: &BinnedView<'_>,
        gradients: &[f64],
        sample: &[usize],
        arena: &'a mut HistArena,
    ) -> Self {
        let m = sample.len();
        let n_cols = view.n_features();
        // One gather per column per tree — O(F·m), replacing the exact
        // trainer's O(F·m log m) per-tree sorts.
        let mut codes = Vec::with_capacity(n_cols * m);
        for j in 0..n_cols {
            let col = view.code_column(j);
            codes.extend(sample.iter().map(|&i| col[i]));
        }
        HistWorkspace {
            codes,
            n_bins: (0..n_cols).map(|j| view.n_bins(j)).collect(),
            y: sample.iter().map(|&i| gradients[i]).collect(),
            positions: (0..m as u32).collect(),
            goes_left: vec![false; m],
            kept: Vec::new(),
            arena,
        }
    }

    fn segment_sum(&self, seg: std::ops::Range<usize>) -> f64 {
        self.positions[seg]
            .iter()
            .map(|&p| self.y[p as usize])
            .sum()
    }

    /// A zeroed histogram from the arena, or a fresh one.
    fn take_hist(&mut self) -> Hist {
        let width = self.n_bins.len() * MAX_BINS;
        match self.arena.free.pop() {
            Some(mut hist) if hist.sums.len() == width => {
                hist.sums.fill(0.0);
                hist.cnts.fill(0);
                hist
            }
            _ => Hist {
                sums: vec![0.0; width],
                cnts: vec![0; width],
            },
        }
    }

    fn recycle(&mut self, hist: Hist) {
        self.arena.free.push(hist);
    }

    /// Builds the (sum, count) histogram of a segment, one pass per
    /// column; rows within a column are accumulated in segment order.
    fn build_hist(&mut self, seg: std::ops::Range<usize>) -> Hist {
        let mut hist = self.take_hist();
        let m = self.y.len();
        let positions = &self.positions[seg];
        let y = self.y.as_slice();
        let columns = hist
            .sums
            .chunks_exact_mut(MAX_BINS)
            .zip(hist.cnts.chunks_exact_mut(MAX_BINS));
        for ((sums, cnts), codes) in columns.zip(self.codes.chunks_exact(m)) {
            // Fixed-length arrays: every `s[b]` / `c[b]` below is
            // provably in bounds for a u8 code, so the scatter loop
            // carries no bounds checks.
            let s: &mut [f64; MAX_BINS] = sums.try_into().expect("MAX_BINS-wide chunk");
            let c: &mut [u32; MAX_BINS] = cnts.try_into().expect("MAX_BINS-wide chunk");
            for &p in positions {
                let b = usize::from(codes[p as usize]);
                s[b] += y[p as usize];
                c[b] += 1;
            }
        }
        hist
    }

    /// Finds the best bin cut over all columns, or `None` when no cut
    /// satisfies the leaf-size constraint and improves the squared
    /// error. Columns are scanned [`LANES`] at a time, the remainder one
    /// at a time; the cross-column reduction prefers the lowest column
    /// (and, within a column, the lowest cut) on exact ties, matching a
    /// sequential column-major scan.
    fn best_split(&self, hist: &Hist, n: usize, min_leaf: usize) -> Option<BestSplit> {
        if n < min_leaf.saturating_mul(2) {
            return None;
        }
        // Total over the *occupied* bins of column 0 in bin order —
        // every column's bins partition the same rows. (Summing the
        // fixed-width tail too would fold extra `+0.0` terms into the
        // total; harmless numerically but not bit-identical when the
        // running sum is `-0.0`.)
        let total: f64 = hist.sums.iter().take(self.n_bins[0]).sum();
        // Positions are u32, so `n` fits, and `min_leaf <= n / 2`.
        let (n, min_leaf) = (n as u32, min_leaf as u32);
        let n_cols = self.n_bins.len();
        let grouped = n_cols - n_cols % LANES;
        let mut best: Option<BestSplit> = None;
        let mut offer = |col: usize, cand: Option<(f64, u8)>| {
            if let Some((improvement, cut)) = cand {
                if best.as_ref().is_none_or(|b| improvement > b.improvement) {
                    best = Some(BestSplit {
                        col,
                        cut,
                        improvement,
                    });
                }
            }
        };
        for first in (0..grouped).step_by(LANES) {
            let cands = self.scan_lanes::<LANES>(hist, first, total, n, min_leaf);
            for (k, cand) in cands.into_iter().enumerate() {
                offer(first + k, cand);
            }
        }
        for col in grouped..n_cols {
            let [cand] = self.scan_lanes::<1>(hist, col, total, n, min_leaf);
            offer(col, cand);
        }
        best
    }

    /// Scans columns `first..first + L` in lockstep, returning each
    /// column's best `(improvement, cut)` — its first strict maximum
    /// above [`MIN_IMPROVEMENT`] — or `None`.
    ///
    /// Every lane does the one-column scan's arithmetic: additions in bin
    /// order, then `ls²/l + rs²/r − base` with `base = total²/n`. All
    /// lanes run to the group's longest column. The extra cuts of a
    /// shorter column come after its last occupied bin, where its left
    /// count is already `n`, so `right_n = 0 < min_leaf` rejects them.
    fn scan_lanes<const L: usize>(
        &self,
        hist: &Hist,
        first: usize,
        total: f64,
        n: u32,
        min_leaf: u32,
    ) -> [Option<(f64, u8)>; L] {
        let sums: [&[f64; MAX_BINS]; L] = std::array::from_fn(|k| hist.col_sums(first + k));
        let cnts: [&[u32; MAX_BINS]; L] = std::array::from_fn(|k| hist.col_cnts(first + k));
        let bins = (first..first + L).map(|j| self.n_bins[j]).max();
        // The last bin cannot be a left side: no cut above it.
        let cuts = bins.unwrap_or(0).saturating_sub(1).min(MAX_BINS - 1);
        let base = total * total / f64::from(n);
        let mut left_sum = [0.0f64; L];
        let mut left_n = [0u32; L];
        let mut best = [MIN_IMPROVEMENT; L];
        let mut best_cut: [Option<u8>; L] = [None; L];
        for b in 0..cuts {
            for k in 0..L {
                left_sum[k] += sums[k][b];
                left_n[k] += cnts[k][b];
                let right_n = n - left_n[k];
                let right_sum = total - left_sum[k];
                let improvement = left_sum[k] * left_sum[k] / f64::from(left_n[k])
                    + right_sum * right_sum / f64::from(right_n)
                    - base;
                if left_n[k] >= min_leaf && right_n >= min_leaf && improvement > best[k] {
                    best[k] = improvement;
                    best_cut[k] = Some(b as u8);
                }
            }
        }
        std::array::from_fn(|k| best_cut[k].map(|cut| (best[k], cut)))
    }

    /// Stably partitions the segment so samples with
    /// `code[col] <= cut` come first; returns the boundary position.
    fn apply_split(&mut self, seg: std::ops::Range<usize>, col: usize, cut: u8) -> usize {
        let m = self.y.len();
        let codes = &self.codes[col * m..][..m];
        let mut left_n = 0usize;
        for pos in seg.clone() {
            let p = self.positions[pos] as usize;
            let left = codes[p] <= cut;
            self.goes_left[p] = left;
            left_n += left as usize;
        }
        let slice = &mut self.positions[seg.clone()];
        self.kept.clear();
        let mut write = 0usize;
        for read in 0..slice.len() {
            let p = slice[read];
            if self.goes_left[p as usize] {
                slice[write] = p;
                write += 1;
            } else {
                self.kept.push(p);
            }
        }
        slice[write..].copy_from_slice(&self.kept);
        seg.start + left_n
    }
}

/// Builds a subtree over `seg`, returning its node id (shared by the
/// tree and the router, which are pushed in lockstep).
///
/// `hist` carries the node's histogram when the parent already computed
/// it (a child derived by subtraction); `None` means "build it fresh if
/// the node can split at all". A histogram goes back to the arena once
/// the node has no more use for it.
fn build(
    out: &mut HistTree,
    ws: &mut HistWorkspace<'_>,
    view: &BinnedView<'_>,
    seg: std::ops::Range<usize>,
    depth: usize,
    hist: Option<Hist>,
    config: TreeConfig,
) -> u32 {
    let n = seg.len();
    let mean = ws.segment_sum(seg.clone()) / n as f64;
    let leaf = |out: &mut HistTree| -> u32 {
        out.tree.push_node(Node::Leaf { value: mean });
        out.router.push(RouterNode::Leaf { value: mean });
        (out.router.len() - 1) as u32
    };
    if depth >= config.max_depth || n < config.min_samples_split {
        return leaf(out);
    }
    let hist = hist.unwrap_or_else(|| ws.build_hist(seg.clone()));
    let Some(split) = ws.best_split(&hist, n, config.min_samples_leaf) else {
        ws.recycle(hist);
        return leaf(out);
    };
    let mid = ws.apply_split(seg.clone(), split.col, split.cut);
    let (left_seg, right_seg) = (seg.start..mid, mid..seg.end);
    let splittable = |s: &std::ops::Range<usize>| {
        depth + 1 < config.max_depth && s.len() >= config.min_samples_split
    };
    // Child histograms: when both children can split, build the smaller
    // fresh and derive the larger by subtraction; otherwise build only
    // the one that can split, if any.
    let (lh, rh) = match (splittable(&left_seg), splittable(&right_seg)) {
        (true, true) => {
            if left_seg.len() <= right_seg.len() {
                let lh = ws.build_hist(left_seg.clone());
                let rh = hist.subtract(&lh);
                (Some(lh), Some(rh))
            } else {
                let rh = ws.build_hist(right_seg.clone());
                let lh = hist.subtract(&rh);
                (Some(lh), Some(rh))
            }
        }
        (left, right) => {
            ws.recycle(hist);
            let lh = left.then(|| ws.build_hist(left_seg.clone()));
            let rh = right.then(|| ws.build_hist(right_seg.clone()));
            (lh, rh)
        }
    };
    let left = build(out, ws, view, left_seg, depth + 1, lh, config);
    let right = build(out, ws, view, right_seg, depth + 1, rh, config);
    out.tree.push_node(Node::Split {
        feature: split.col,
        threshold: view.cut_value(split.col, split.cut as usize),
        improvement: split.improvement,
        left: left as usize,
        right: right as usize,
    });
    out.router.push(RouterNode::Split {
        col: split.col as u32,
        cut: split.cut,
        left,
        right,
    });
    (out.router.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::BinnedDataset;
    use crate::Dataset;

    fn step_data(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, 0.0]).collect();
        let y: Vec<f64> = (0..n).map(|i| if i < n / 2 { -1.0 } else { 1.0 }).collect();
        Dataset::new(rows, y).unwrap()
    }

    fn fit_full(data: &Dataset, config: TreeConfig) -> HistTree {
        let binned = BinnedDataset::from_dataset(data, 256);
        let view = binned.view();
        let indices: Vec<usize> = (0..data.n_rows()).collect();
        fit_hist_tree(
            &view,
            data.targets(),
            &indices,
            config,
            &mut HistArena::default(),
        )
        .unwrap()
    }

    #[test]
    fn fits_step_function_exactly() {
        let data = step_data(40);
        let fit = fit_full(&data, TreeConfig::default());
        assert_eq!(fit.tree.predict(&[0.0, 0.0]), -1.0);
        assert_eq!(fit.tree.predict(&[39.0, 0.0]), 1.0);
        assert!(fit.tree.split_count() >= 1);
    }

    #[test]
    fn router_matches_raw_tree_on_training_rows() {
        let data = step_data(64);
        let binned = BinnedDataset::from_dataset(&data, 256);
        let view = binned.view();
        let indices: Vec<usize> = (0..data.n_rows()).collect();
        let fit = fit_hist_tree(
            &view,
            data.targets(),
            &indices,
            TreeConfig::default(),
            &mut HistArena::default(),
        )
        .unwrap();
        for (i, row) in data.rows().iter().enumerate() {
            assert_eq!(fit.route(&view, i), fit.tree.predict(row), "row {i}");
        }
    }

    /// NaN takes bin code 0 and goes left at every split, in the router
    /// and in the raw tree alike — including splits on a NaN cut.
    #[test]
    fn router_matches_raw_tree_on_nan_training_rows() {
        let rows: Vec<Vec<f64>> = (0..90)
            .map(|i| {
                let x = if i % 4 == 0 {
                    f64::NAN
                } else {
                    (i % 30) as f64
                };
                let z = if i % 7 == 0 {
                    f64::NAN
                } else {
                    -((i % 9) as f64)
                };
                vec![x, z]
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| if r[0].is_nan() { 5.0 } else { r[0] } + (i % 3) as f64)
            .collect();
        let data = Dataset::new(rows, y).unwrap();
        let binned = BinnedDataset::from_dataset(&data, 256);
        let view = binned.view();
        let indices: Vec<usize> = (0..data.n_rows()).collect();
        let fit = fit_hist_tree(
            &view,
            data.targets(),
            &indices,
            TreeConfig {
                max_depth: 5,
                ..TreeConfig::default()
            },
            &mut HistArena::default(),
        )
        .unwrap();
        assert!(fit.tree.split_count() >= 3);
        for (i, row) in data.rows().iter().enumerate() {
            let routed = fit.route(&view, i);
            assert_eq!(routed.to_bits(), fit.tree.predict(row).to_bits(), "row {i}");
        }
    }

    #[test]
    fn respects_leaf_and_depth_constraints() {
        let data = step_data(8);
        let fit = fit_full(
            &data,
            TreeConfig {
                max_depth: 10,
                min_samples_leaf: 4,
                min_samples_split: 2,
            },
        );
        assert_eq!(fit.tree.split_count(), 1);
        let stump = fit_full(
            &step_data(64),
            TreeConfig {
                max_depth: 1,
                ..TreeConfig::default()
            },
        );
        assert_eq!(stump.tree.split_count(), 1);
    }

    /// `TreeConfig::validate` accepts any positive leaf size; one no
    /// node can satisfy must give a single leaf, not overflow `2 · n`.
    #[test]
    fn unsatisfiable_min_samples_leaf_gives_single_leaf() {
        let fit = fit_full(
            &step_data(40),
            TreeConfig {
                min_samples_leaf: usize::MAX,
                ..TreeConfig::default()
            },
        );
        assert_eq!(fit.tree.split_count(), 0);
        assert_eq!(fit.tree.predict(&[0.0, 0.0]), 0.0);
    }

    /// The one-column split scan the lockstep scan replaced, kept as its
    /// oracle: columns one after another, cuts in bin order, first strict
    /// maximum wins. Returns `(col, cut, improvement bits)` and whether
    /// some candidate exactly tied the running best.
    fn reference_best_split(
        ws: &HistWorkspace<'_>,
        hist: &Hist,
        n: usize,
        min_leaf: usize,
    ) -> (Option<(usize, u8, u64)>, bool) {
        if n < min_leaf.saturating_mul(2) {
            return (None, false);
        }
        let total: f64 = hist.col_sums(0).iter().take(ws.n_bins[0]).sum();
        let mut best: Option<(usize, u8, f64)> = None;
        let mut tied = false;
        for j in 0..ws.n_bins.len() {
            let (sums, cnts) = (hist.col_sums(j), hist.col_cnts(j));
            let mut col_best: Option<(f64, u8)> = None;
            let mut left_sum = 0.0;
            let mut left_n = 0usize;
            for b in 0..ws.n_bins[j].saturating_sub(1) {
                left_sum += sums[b];
                left_n += cnts[b] as usize;
                let right_n = n - left_n;
                if left_n < min_leaf || right_n < min_leaf {
                    continue;
                }
                let right_sum = total - left_sum;
                let improvement = left_sum * left_sum / left_n as f64
                    + right_sum * right_sum / right_n as f64
                    - total * total / n as f64;
                tied |= col_best.is_some_and(|(g, _)| improvement == g);
                if improvement > MIN_IMPROVEMENT && col_best.is_none_or(|(g, _)| improvement > g) {
                    col_best = Some((improvement, b as u8));
                }
            }
            if let Some((improvement, cut)) = col_best {
                tied |= best.is_some_and(|(_, _, g)| improvement == g);
                if best.is_none_or(|(_, _, g)| improvement > g) {
                    best = Some((j, cut, improvement));
                }
            }
        }
        (best.map(|(j, cut, g)| (j, cut, g.to_bits())), tied)
    }

    /// Seeded random histograms through both scans: the lockstep scan
    /// must return the reference's `(col, cut, improvement bits)` or
    /// `None`. The cases cover empty bins, count-0 bins holding a
    /// nonzero sum left by subtraction, one group mixing column lengths
    /// (1 to 256 bins), 1–9 and 61 columns, exact ties within and across
    /// columns, `±0.0` and non-finite gradients, and leaf sizes above
    /// `n / 2`.
    #[test]
    fn lockstep_scan_matches_one_column_reference() {
        use cm_par::Rng;
        let mut rng = Rng::new(0x5ca7);
        let (mut found, mut ties, mut zero_count_sums) = (0, 0, 0);
        for case in 0..400usize {
            let n_cols = [1, 2, 3, 4, 5, 6, 7, 8, 9, 61][case % 10];
            let n_rows = rng.range_usize(2..150);
            let cards: Vec<usize> = (0..n_cols)
                .map(|_| [1, 2, 3, 7, 40, 256][rng.range_usize(0..6)])
                .collect();
            // Some columns copy their left neighbour: ties across columns.
            let copies: Vec<bool> = (0..n_cols).map(|j| j > 0 && rng.chance(0.3)).collect();
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n_rows);
            for _ in 0..n_rows {
                let mut row = Vec::with_capacity(n_cols);
                for j in 0..n_cols {
                    let v = if copies[j] {
                        row[j - 1]
                    } else {
                        rng.range_usize(0..cards[j]) as f64
                    };
                    row.push(v);
                }
                rows.push(row);
            }
            // Small integers tie within a column; signed zeros can leave
            // a `-0.0` total; every seventh case carries non-finite ones.
            let gradients: Vec<f64> = (0..n_rows)
                .map(|_| match rng.range_usize(0..10) {
                    0 => -0.0,
                    1 => 0.0,
                    2..=5 => rng.range_usize(0..3) as f64 - 1.0,
                    6 if case % 7 == 0 => {
                        [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.range_usize(0..3)]
                    }
                    _ => rng.range_f64(-4.0..4.0),
                })
                .collect();
            let data = Dataset::new(rows, vec![0.0; n_rows]).unwrap();
            let binned = BinnedDataset::from_dataset(&data, MAX_BINS);
            let view = binned.view();
            let sample: Vec<usize> = (0..rng.range_usize(1..2 * n_rows))
                .map(|_| rng.range_usize(0..n_rows))
                .collect();
            let mut arena = HistArena::default();
            let mut ws = HistWorkspace::new(&view, &gradients, &sample, &mut arena);
            let m = sample.len();
            let mut check = |ws: &HistWorkspace<'_>, hist: &Hist, n: usize| {
                for min_leaf in [1, 2, 3, n / 2, n / 2 + 1, usize::MAX] {
                    let (want, tied) = reference_best_split(ws, hist, n, min_leaf.max(1));
                    let got = ws
                        .best_split(hist, n, min_leaf.max(1))
                        .map(|b| (b.col, b.cut, b.improvement.to_bits()));
                    assert_eq!(got, want, "case {case}, n {n}, min_leaf {min_leaf}");
                    found += usize::from(want.is_some());
                    ties += usize::from(tied);
                }
            };
            let root = ws.build_hist(0..m);
            check(&ws, &root, m);
            let col = rng.range_usize(0..n_cols);
            let cut = rng.range_usize(0..view.n_bins(col)) as u8;
            let mid = ws.apply_split(0..m, col, cut);
            if 0 < mid && mid < m {
                let left = ws.build_hist(0..mid);
                let right = root.subtract(&left);
                zero_count_sums += right
                    .cnts
                    .iter()
                    .zip(&right.sums)
                    .filter(|&(&c, &s)| c == 0 && s != 0.0)
                    .count();
                check(&ws, &left, mid);
                check(&ws, &right, m - mid);
            }
        }
        assert!(found > 1000, "only {found} scans found a split");
        assert!(ties > 100, "only {ties} scans saw an exact tie");
        assert!(zero_count_sums > 0, "no count-0 bin kept a nonzero sum");
    }

    #[test]
    fn constant_targets_give_single_leaf() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let data = Dataset::new(rows, vec![7.0; 10]).unwrap();
        let fit = fit_full(&data, TreeConfig::default());
        assert_eq!(fit.tree.split_count(), 0);
        assert_eq!(fit.tree.predict(&[123.0]), 7.0);
    }

    #[test]
    fn repeated_sample_rows_weight_the_leaves() {
        let data = step_data(16);
        let binned = BinnedDataset::from_dataset(&data, 256);
        let view = binned.view();
        let indices: Vec<usize> = (0..16).chain(0..4).chain(0..4).collect();
        let fit = fit_hist_tree(
            &view,
            data.targets(),
            &indices,
            TreeConfig::default(),
            &mut HistArena::default(),
        )
        .unwrap();
        assert_eq!(fit.tree.predict(&[0.0, 0.0]), -1.0);
        assert_eq!(fit.tree.predict(&[15.0, 0.0]), 1.0);
    }

    #[test]
    fn empty_sample_is_rejected() {
        let data = step_data(8);
        let binned = BinnedDataset::from_dataset(&data, 256);
        let view = binned.view();
        assert!(fit_hist_tree(
            &view,
            data.targets(),
            &[],
            TreeConfig::default(),
            &mut HistArena::default()
        )
        .is_err());
    }

    /// With one bin per distinct value and the whole row set sampled,
    /// histogram search scans the same candidate partitions as exact
    /// presorted search — the chosen split structure must agree with the
    /// exact tree wherever improvements are not rounding-level ties.
    #[test]
    fn matches_exact_tree_on_small_distinct_data() {
        use cm_par::Rng;
        for seed in 0..6u64 {
            let mut rng = Rng::new(seed);
            // Integer-valued features: clean midpoint cuts, no
            // rounding-sensitive near-ties in the gain comparison.
            let rows: Vec<Vec<f64>> = (0..150)
                .map(|_| (0..4).map(|_| rng.range_usize(0..25) as f64).collect())
                .collect();
            let y: Vec<f64> = rows
                .iter()
                .map(|r| (r[0] * 3.0).sin() * 4.0 + r[2] + rng.range_f64(-0.5..0.5))
                .collect();
            let data = Dataset::new(rows, y).unwrap();
            let exact = RegressionTree::fit(&data, TreeConfig::default()).unwrap();
            let hist = fit_full(&data, TreeConfig::default());
            for (i, row) in data.rows().iter().enumerate() {
                let (e, h) = (exact.predict(row), hist.tree.predict(row));
                assert!(
                    (e - h).abs() < 1e-9,
                    "seed {seed} row {i}: exact {e} hist {h}"
                );
            }
        }
    }
}
