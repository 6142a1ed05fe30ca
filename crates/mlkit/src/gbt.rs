//! Gradient-boosted regression trees.
//!
//! AutoTVM's surrogate cost model is an XGBoost ranker; this module is the
//! reproduction's equivalent: depth-limited regression trees fitted to
//! residuals with shrinkage and optional feature subsampling.
//!
//! Splits are found by XGBoost's exact pre-sorted enumeration: each
//! feature column is stably sorted once per boosting call, a tree node is a
//! range of those orders that splitting partitions in place, and a node's
//! best split per feature comes from a two-pass streaming sweep over
//! (sum, sum-of-squares) sufficient statistics — no per-node sort and no
//! per-node allocation besides the node itself. The per-feature searches of
//! large nodes fan out across worker threads via [`crate::parallel`].
//! Feature-subsampling coin flips are drawn *before* the fan-out, so the
//! fitted ensemble is bit-identical at every thread count.
//!
//! [`Gbt::fit_incremental`] warm-starts boosting from an existing forest:
//! new trees are fitted to the residuals of the current predictions, so a
//! tuner can append a handful of trees per round instead of refitting the
//! whole ensemble over the entire history. Training rows are accepted as any
//! `AsRef<[f64]>` (plain `Vec<f64>` or shared `Arc<[f64]>` rows from a
//! feature cache) so callers never have to clone feature matrices to fit.

use crate::parallel::{parallel_map, parallel_map_range, Threads};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyperparameters for [`Gbt`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GbtParams {
    /// Number of boosting rounds.
    pub trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Shrinkage (learning rate).
    pub learning_rate: f64,
    /// Minimum samples to split a node.
    pub min_samples_split: usize,
    /// Fraction of features considered per split (0 < f ≤ 1).
    pub feature_fraction: f64,
}

impl Default for GbtParams {
    fn default() -> Self {
        Self {
            trees: 50,
            max_depth: 4,
            learning_rate: 0.15,
            min_samples_split: 4,
            feature_fraction: 0.9,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            Node::Leaf(v) => *v,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if x[*feature] <= *threshold {
                    left.predict(x)
                } else {
                    right.predict(x)
                }
            }
        }
    }
}

/// A fitted gradient-boosted tree ensemble (squared loss).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gbt {
    base: f64,
    trees: Vec<Node>,
    params: GbtParams,
}

/// Below this many (sample × feature) cells a node's split search runs
/// inline: thread fan-out costs more than it saves on small nodes.
const PARALLEL_SPLIT_CELLS: usize = 8 * 1024;
/// Minimum batch size before predictions fan out across workers.
const PARALLEL_PREDICT_ROWS: usize = 256;

impl Gbt {
    /// Fits the ensemble on `(xs, ys)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use glimpse_mlkit::gbt::{Gbt, GbtParams};
    /// use rand::SeedableRng;
    ///
    /// let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![f64::from(i)]).collect();
    /// let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0).collect();
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    /// let model = Gbt::fit(&xs, &ys, GbtParams::default(), &mut rng);
    /// assert!((model.predict(&[25.0]) - 50.0).abs() < 8.0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty or ragged.
    #[must_use]
    pub fn fit<X: AsRef<[f64]> + Sync, R: Rng + ?Sized>(xs: &[X], ys: &[f64], params: GbtParams, rng: &mut R) -> Self {
        assert!(!xs.is_empty(), "empty training set");
        assert_eq!(xs.len(), ys.len());
        let base = ys.iter().sum::<f64>() / ys.len() as f64;
        let mut residuals: Vec<f64> = ys.iter().map(|y| y - base).collect();
        let mut forest = Self {
            base,
            trees: Vec::with_capacity(params.trees),
            params,
        };
        forest.boost(xs, &mut residuals, params.trees, rng);
        forest
    }

    /// Warm-starts boosting from this forest: fits `extra_trees` new trees
    /// on the residuals of the current predictions over `(xs, ys)` and
    /// returns the extended ensemble. `self` is unchanged.
    ///
    /// The base prediction and hyperparameters are inherited from the
    /// original fit, so with `extra_trees == 0` the returned forest predicts
    /// bit-identically to `self`. Continuing on the same `(xs, ys)` is the
    /// cheap per-round path for a tuner's cost model; a periodic seeded
    /// full [`Gbt::fit`] bounds any drift from the recomputed residuals
    /// (the warm start recomputes `y − predict(x)` in one pass, which can
    /// differ from the scratch fit's iteratively-updated residuals by
    /// float-rounding ulps).
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty, ragged, or narrower than the
    /// rows the forest was fitted on.
    #[must_use]
    pub fn fit_incremental<X: AsRef<[f64]> + Sync, R: Rng + ?Sized>(&self, xs: &[X], ys: &[f64], extra_trees: usize, rng: &mut R) -> Self {
        assert!(!xs.is_empty(), "empty training set");
        assert_eq!(xs.len(), ys.len());
        let preds = self.predict_batch(xs);
        let mut residuals: Vec<f64> = ys.iter().zip(&preds).map(|(y, p)| y - p).collect();
        let mut forest = self.clone();
        forest.trees.reserve(extra_trees);
        forest.boost(xs, &mut residuals, extra_trees, rng);
        forest
    }

    /// Shared boosting loop: appends `rounds` trees fitted on `residuals`,
    /// updating the residuals in place with shrinkage after each round.
    fn boost<X: AsRef<[f64]> + Sync, R: Rng + ?Sized>(&mut self, xs: &[X], residuals: &mut [f64], rounds: usize, rng: &mut R) {
        let width = xs[0].as_ref().len();
        assert!(xs.iter().all(|x| x.as_ref().len() == width), "ragged features");
        if rounds == 0 {
            return;
        }
        let mut presorted = Presorted::new(xs, width);
        for _ in 0..rounds {
            let tree = presorted.grow_tree(residuals, &self.params, rng);
            // Every training row's prediction is the leaf it was routed to
            // while growing: the same `x[feature] <= threshold` walk
            // `Node::predict` takes.
            for (r, p) in residuals.iter_mut().zip(&presorted.leaf_value) {
                *r -= self.params.learning_rate * p;
            }
            self.trees.push(tree);
        }
    }

    /// Predicted value at `x`.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.base + self.params.learning_rate * self.trees.iter().map(|t| t.predict(x)).sum::<f64>()
    }

    /// Predicted values for a batch of rows, fanned out across worker
    /// threads (same order and same values as mapping [`Gbt::predict`]).
    #[must_use]
    pub fn predict_batch<X: AsRef<[f64]> + Sync>(&self, xs: &[X]) -> Vec<f64> {
        let threads = if xs.len() >= PARALLEL_PREDICT_ROWS {
            Threads::AUTO
        } else {
            Threads::fixed(1)
        };
        parallel_map(threads, xs, |_, x| self.predict(x.as_ref()))
    }

    /// Number of fitted trees.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the ensemble has no trees.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// The root split of tree `t` as `(feature, threshold)`, if it split.
    /// Diagnostic hook used by the split-search equivalence tests and the
    /// throughput harness; not part of the modeling API.
    #[doc(hidden)]
    #[must_use]
    pub fn root_split(&self, t: usize) -> Option<(usize, f64)> {
        match self.trees.get(t)? {
            Node::Leaf(_) => None,
            Node::Split { feature, threshold, .. } => Some((*feature, *threshold)),
        }
    }
}

/// Working set of the presorted exact split search, built once per
/// [`Gbt::boost`] call: feature values never change across boosting rounds,
/// only the residuals do.
///
/// Every column of `order` holds a tree node's rows in the same range
/// `lo..hi`. Column `f < width` keeps them stably sorted by feature `f`;
/// column `width` keeps them in ascending row order. Splitting a node
/// stably partitions each column's range in place, so a node's range is
/// exactly the stable sort of its ascending row indices — the order the
/// per-node `sort_by` of the original builder produced — and every sum is
/// accumulated in the same order. Per-node work allocates nothing but the
/// `Box<Node>`.
struct Presorted {
    rows: usize,
    width: usize,
    /// Column-major feature values: `values[f * rows + i]` is `xs[i][f]`.
    values: Vec<f64>,
    /// `width + 1` columns of row indices at the root: stably sorted per
    /// feature, then the identity order.
    sorted: Vec<usize>,
    /// The working copy of `sorted` a tree partitions in place.
    order: Vec<usize>,
    /// Right-hand rows of one column during a partition.
    scratch: Vec<usize>,
    /// Membership mask of the split being applied.
    goes_left: Vec<bool>,
    /// Feature-subsampling mask of the node being split.
    included: Vec<bool>,
    /// The leaf value each training row reached in the last grown tree.
    leaf_value: Vec<f64>,
}

impl Presorted {
    fn new<X: AsRef<[f64]>>(xs: &[X], width: usize) -> Self {
        let rows = xs.len();
        let mut values = vec![0.0; width * rows];
        for (i, x) in xs.iter().enumerate() {
            for (f, &v) in x.as_ref().iter().enumerate() {
                values[f * rows + i] = v;
            }
        }
        let mut sorted: Vec<usize> = Vec::with_capacity((width + 1) * rows);
        for f in 0..=width {
            let start = sorted.len();
            sorted.extend(0..rows);
            if f < width {
                let column = &values[f * rows..(f + 1) * rows];
                sorted[start..].sort_by(|&a, &b| column[a].total_cmp(&column[b]));
            }
        }
        Self {
            rows,
            width,
            order: sorted.clone(),
            sorted,
            values,
            scratch: vec![0; rows],
            goes_left: vec![false; rows],
            included: vec![false; width],
            leaf_value: vec![0.0; rows],
        }
    }

    /// Grows one tree on `targets` from the full training set.
    fn grow_tree<R: Rng + ?Sized>(&mut self, targets: &[f64], params: &GbtParams, rng: &mut R) -> Node {
        self.order.copy_from_slice(&self.sorted);
        self.grow(targets, 0, self.rows, params.max_depth, params, rng)
    }

    /// The node's rows in column `column` (`width` = ascending row order).
    fn segment(&self, column: usize, lo: usize, hi: usize) -> &[usize] {
        &self.order[column * self.rows + lo..column * self.rows + hi]
    }

    fn grow<R: Rng + ?Sized>(&mut self, targets: &[f64], lo: usize, hi: usize, depth: usize, params: &GbtParams, rng: &mut R) -> Node {
        let n = hi - lo;
        let mean: f64 = self.segment(self.width, lo, hi).iter().map(|&i| targets[i]).sum::<f64>() / n.max(1) as f64;
        if depth == 0 || n < params.min_samples_split {
            return self.leaf(lo, hi, mean);
        }
        // Feature-subsampling coin flips happen before the parallel fan-out
        // so the RNG stream (and thus the fitted model) is thread-count
        // invariant.
        for included in &mut self.included {
            *included = !(params.feature_fraction < 1.0 && rng.gen::<f64>() > params.feature_fraction);
        }
        let search = |feature: usize| {
            if self.included[feature] {
                self.best_split(targets, feature, lo, hi)
            } else {
                None
            }
        };
        // Reduce with the legacy tie-break: earliest feature wins on equal gain.
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        let mut consider = |feature: usize, candidate: Option<(f64, f64)>| {
            if let Some((threshold, gain)) = candidate {
                if best.is_none_or(|(_, _, g)| gain > g) && gain > 1e-12 {
                    best = Some((feature, threshold, gain));
                }
            }
        };
        if n * self.width >= PARALLEL_SPLIT_CELLS {
            for (feature, candidate) in parallel_map_range(Threads::AUTO, self.width, search).into_iter().enumerate() {
                consider(feature, candidate);
            }
        } else {
            for feature in 0..self.width {
                consider(feature, search(feature));
            }
        }
        match best {
            None => self.leaf(lo, hi, mean),
            Some((feature, threshold, _)) => {
                let mid = lo + self.partition(lo, hi, feature, threshold);
                let left = self.grow(targets, lo, mid, depth - 1, params, rng);
                let right = self.grow(targets, mid, hi, depth - 1, params, rng);
                Node::Split {
                    feature,
                    threshold,
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }
        }
    }

    fn leaf(&mut self, lo: usize, hi: usize, value: f64) -> Node {
        let identity = self.width * self.rows;
        for &i in &self.order[identity + lo..identity + hi] {
            self.leaf_value[i] = value;
        }
        Node::Leaf(value)
    }

    /// Best `(threshold, gain)` for one feature over a node's presorted
    /// rows, as a two-pass streaming sweep over (sum, sum-of-squares)
    /// sufficient statistics: pass one finds the totals and the number of
    /// distinct-value runs, pass two the running sums at run boundaries.
    ///
    /// Candidate thresholds are the midpoints between consecutive distinct
    /// values, strided so at most ~16 candidates are scored — the set the
    /// original two-pass search visited — and each costs O(1).
    fn best_split(&self, targets: &[f64], feature: usize, lo: usize, hi: usize) -> Option<(f64, f64)> {
        let order = self.segment(feature, lo, hi);
        let values = &self.values[feature * self.rows..(feature + 1) * self.rows];
        let (&first, _) = order.split_first()?;
        let (mut total_sum, mut total_sq) = (0.0f64, 0.0f64);
        let mut runs = 0usize;
        let mut run_value = values[first];
        for &i in order {
            let (v, t) = (values[i], targets[i]);
            total_sum += t;
            total_sq += t * t;
            // `!=` rather than `total_cmp`: -0.0 and 0.0 share a run.
            if runs == 0 || v != run_value {
                runs += 1;
                run_value = v;
            }
        }
        if runs < 2 {
            return None;
        }
        let n = order.len();
        let parent_sse = total_sq - total_sum * total_sum / n as f64;
        let step = (runs / 16).max(1);
        let (mut left_sum, mut left_sq) = (0.0f64, 0.0f64);
        let mut run = 0usize; // index of the run `run_value` opened
        let mut run_value = values[first];
        let mut best: Option<(f64, f64)> = None;
        for (p, &i) in order.iter().enumerate() {
            let v = values[i];
            if p > 0 && v != run_value {
                // Run `run` ends here: the first `p` rows have value ≤ it.
                if run.is_multiple_of(step) {
                    let threshold = (run_value + v) / 2.0;
                    let left_sse = left_sq - left_sum * left_sum / p as f64;
                    let right_sum = total_sum - left_sum;
                    let right_sse = (total_sq - left_sq) - right_sum * right_sum / (n - p) as f64;
                    let gain = parent_sse - (left_sse + right_sse);
                    if best.is_none_or(|(_, g)| gain > g) {
                        best = Some((threshold, gain));
                    }
                }
                run += 1;
                run_value = v;
            }
            let t = targets[i];
            left_sum += t;
            left_sq += t * t;
        }
        best
    }

    /// Stably partitions the node `lo..hi` of every column by
    /// `x[feature] <= threshold`; returns the left child's row count.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, threshold: f64) -> usize {
        let Self {
            rows,
            width,
            values,
            order,
            scratch,
            goes_left,
            ..
        } = self;
        let values = &values[feature * *rows..(feature + 1) * *rows];
        let mut left = 0;
        for &i in &order[*width * *rows + lo..*width * *rows + hi] {
            goes_left[i] = values[i] <= threshold;
            left += usize::from(goes_left[i]);
        }
        for column in order.chunks_exact_mut(*rows) {
            let segment = &mut column[lo..hi];
            let (mut l, mut r) = (0, 0);
            for k in 0..segment.len() {
                let i = segment[k];
                if goes_left[i] {
                    segment[l] = i;
                    l += 1;
                } else {
                    scratch[r] = i;
                    r += 1;
                }
            }
            segment[l..].copy_from_slice(&scratch[..r]);
        }
        left
    }
}

/// Best `(threshold, gain)` of every feature at the root node through the
/// presorted sweep [`Gbt::fit`] runs, exposed so the `search_throughput`
/// harness can time it (presort included) against the two-pass reference.
/// Not part of the modeling API.
#[doc(hidden)]
#[must_use]
pub fn presorted_root_splits(xs: &[Vec<f64>], targets: &[f64]) -> Vec<Option<(f64, f64)>> {
    let width = xs.first().map_or(0, Vec::len);
    let presorted = Presorted::new(xs, width);
    (0..width).map(|f| presorted.best_split(targets, f, 0, xs.len())).collect()
}

/// The original O(n·thresholds) two-pass split search, kept verbatim as the
/// reference implementation for the equivalence tests and the
/// `search_throughput` harness's algorithmic-speedup record. Not part of
/// the modeling API.
#[doc(hidden)]
#[must_use]
pub fn two_pass_best_split(xs: &[Vec<f64>], targets: &[f64], indices: &[usize], feature: usize) -> Option<(f64, f64)> {
    let mut values: Vec<f64> = indices.iter().map(|&i| xs[i][feature]).collect();
    values.sort_by(|a, b| a.total_cmp(b));
    values.dedup();
    if values.len() < 2 {
        return None;
    }
    let n = indices.len();
    let mean: f64 = indices.iter().map(|&i| targets[i]).sum::<f64>() / n.max(1) as f64;
    let parent_sse: f64 = indices.iter().map(|&i| (targets[i] - mean).powi(2)).sum();
    let step = (values.len() / 16).max(1);
    let mut best: Option<(f64, f64)> = None;
    for w in values.windows(2).step_by(step) {
        let threshold = (w[0] + w[1]) / 2.0;
        let (mut ln, mut ls, mut rn, mut rs) = (0usize, 0.0f64, 0usize, 0.0f64);
        for &i in indices {
            if xs[i][feature] <= threshold {
                ln += 1;
                ls += targets[i];
            } else {
                rn += 1;
                rs += targets[i];
            }
        }
        if ln == 0 || rn == 0 {
            continue;
        }
        let (lm, rm) = (ls / ln as f64, rs / rn as f64);
        let mut sse = 0.0;
        for &i in indices {
            let m = if xs[i][feature] <= threshold { lm } else { rm };
            sse += (targets[i] - m).powi(2);
        }
        let gain = parent_sse - sse;
        if best.is_none_or(|(_, g)| gain > g) {
            best = Some((threshold, gain));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-node-sort tree builder the presorted search replaced, kept
    /// as the reference the equivalence tests compare against bit for bit.
    mod reference {
        use super::super::{Gbt, GbtParams, Node};
        use rand::Rng;

        pub fn fit(xs: &[Vec<f64>], ys: &[f64], params: GbtParams, rng: &mut impl Rng) -> Gbt {
            let base = ys.iter().sum::<f64>() / ys.len() as f64;
            let mut residuals: Vec<f64> = ys.iter().map(|y| y - base).collect();
            let mut forest = Gbt {
                base,
                trees: Vec::new(),
                params,
            };
            boost(&mut forest, xs, &mut residuals, params.trees, rng);
            forest
        }

        pub fn fit_incremental(forest: &Gbt, xs: &[Vec<f64>], ys: &[f64], extra_trees: usize, rng: &mut impl Rng) -> Gbt {
            let preds = forest.predict_batch(xs);
            let mut residuals: Vec<f64> = ys.iter().zip(&preds).map(|(y, p)| y - p).collect();
            let mut forest = forest.clone();
            boost(&mut forest, xs, &mut residuals, extra_trees, rng);
            forest
        }

        fn boost(forest: &mut Gbt, xs: &[Vec<f64>], residuals: &mut [f64], rounds: usize, rng: &mut impl Rng) {
            let indices: Vec<usize> = (0..xs.len()).collect();
            for _ in 0..rounds {
                let tree = build_tree(xs, residuals, &indices, forest.params.max_depth, &forest.params, rng);
                for (r, x) in residuals.iter_mut().zip(xs) {
                    *r -= forest.params.learning_rate * tree.predict(x);
                }
                forest.trees.push(tree);
            }
        }

        fn build_tree(xs: &[Vec<f64>], targets: &[f64], indices: &[usize], depth: usize, params: &GbtParams, rng: &mut impl Rng) -> Node {
            let n = indices.len();
            let mean: f64 = indices.iter().map(|&i| targets[i]).sum::<f64>() / n.max(1) as f64;
            if depth == 0 || n < params.min_samples_split {
                return Node::Leaf(mean);
            }
            let width = xs[0].len();
            let included: Vec<bool> = (0..width)
                .map(|_| !(params.feature_fraction < 1.0 && rng.gen::<f64>() > params.feature_fraction))
                .collect();
            let mut best: Option<(usize, f64, f64)> = None;
            for feature in (0..width).filter(|&f| included[f]) {
                if let Some((threshold, gain)) = best_split_for_feature(xs, targets, indices, feature) {
                    if best.is_none_or(|(_, _, g)| gain > g) && gain > 1e-12 {
                        best = Some((feature, threshold, gain));
                    }
                }
            }
            match best {
                None => Node::Leaf(mean),
                Some((feature, threshold, _)) => {
                    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices.iter().partition(|&&i| xs[i][feature] <= threshold);
                    let left = build_tree(xs, targets, &left_idx, depth - 1, params, rng);
                    let right = build_tree(xs, targets, &right_idx, depth - 1, params, rng);
                    Node::Split {
                        feature,
                        threshold,
                        left: Box::new(left),
                        right: Box::new(right),
                    }
                }
            }
        }

        /// Sorts the node's `(value, target)` pairs, then scores the strided
        /// distinct-value boundaries from prefix sums.
        pub fn best_split_for_feature(xs: &[Vec<f64>], targets: &[f64], indices: &[usize], feature: usize) -> Option<(f64, f64)> {
            let n = indices.len();
            let mut pairs: Vec<(f64, f64)> = indices.iter().map(|&i| (xs[i][feature], targets[i])).collect();
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut prefix_sum = vec![0.0f64; n + 1];
            let mut prefix_sq = vec![0.0f64; n + 1];
            let mut runs: Vec<(f64, usize)> = Vec::new(); // (distinct value, samples ≤ it)
            for (i, &(v, t)) in pairs.iter().enumerate() {
                prefix_sum[i + 1] = prefix_sum[i] + t;
                prefix_sq[i + 1] = prefix_sq[i] + t * t;
                match runs.last_mut() {
                    Some(run) if run.0 == v => run.1 = i + 1,
                    _ => runs.push((v, i + 1)),
                }
            }
            if runs.len() < 2 {
                return None;
            }
            let total_sum = prefix_sum[n];
            let total_sq = prefix_sq[n];
            let parent_sse = total_sq - total_sum * total_sum / n as f64;
            let step = (runs.len() / 16).max(1);
            let mut best: Option<(f64, f64)> = None;
            for j in (0..runs.len() - 1).step_by(step) {
                let threshold = (runs[j].0 + runs[j + 1].0) / 2.0;
                let p = runs[j].1;
                let left_sum = prefix_sum[p];
                let left_sse = prefix_sq[p] - left_sum * left_sum / p as f64;
                let right_sum = total_sum - left_sum;
                let right_sse = (total_sq - prefix_sq[p]) - right_sum * right_sum / (n - p) as f64;
                let gain = parent_sse - (left_sse + right_sse);
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((threshold, gain));
                }
            }
            best
        }
    }

    fn friedman_like(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = (0..n).map(|_| (0..4).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] + x[1] * x[2] - 2.0 * (x[3] - 0.5).powi(2)).collect();
        (xs, ys)
    }

    #[test]
    fn fits_nonlinear_function() {
        let (xs, ys) = friedman_like(400, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let gbt = Gbt::fit(&xs, &ys, GbtParams::default(), &mut rng);
        let mse: f64 = xs.iter().zip(&ys).map(|(x, y)| (gbt.predict(x) - y).powi(2)).sum::<f64>() / xs.len() as f64;
        let var = crate::stats::std_dev(&ys).powi(2);
        assert!(mse < 0.05 * var, "mse {mse} vs var {var}");
    }

    #[test]
    fn ranks_better_than_random() {
        // The cost-model role only needs ranking quality: check Spearman-ish
        // agreement on held-out data.
        let (xs, ys) = friedman_like(600, 3);
        let (train_x, test_x) = xs.split_at(400);
        let (train_y, test_y) = ys.split_at(400);
        let mut rng = StdRng::seed_from_u64(4);
        let gbt = Gbt::fit(train_x, train_y, GbtParams::default(), &mut rng);
        let preds: Vec<f64> = test_x.iter().map(|x| gbt.predict(x)).collect();
        // Count concordant pairs.
        let mut concordant = 0usize;
        let mut total = 0usize;
        for i in 0..test_y.len() {
            for j in i + 1..test_y.len() {
                total += 1;
                if (test_y[i] - test_y[j]) * (preds[i] - preds[j]) > 0.0 {
                    concordant += 1;
                }
            }
        }
        let tau = concordant as f64 / total as f64;
        assert!(tau > 0.85, "concordance {tau}");
    }

    #[test]
    fn constant_targets_yield_constant_model() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys = vec![5.0; 20];
        let mut rng = StdRng::seed_from_u64(5);
        let gbt = Gbt::fit(&xs, &ys, GbtParams::default(), &mut rng);
        assert!((gbt.predict(&[100.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn more_trees_do_not_hurt_training_fit() {
        let (xs, ys) = friedman_like(200, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let small = Gbt::fit(
            &xs,
            &ys,
            GbtParams {
                trees: 5,
                ..GbtParams::default()
            },
            &mut rng,
        );
        let mut rng = StdRng::seed_from_u64(7);
        let large = Gbt::fit(
            &xs,
            &ys,
            GbtParams {
                trees: 80,
                ..GbtParams::default()
            },
            &mut rng,
        );
        let mse = |g: &Gbt| xs.iter().zip(&ys).map(|(x, y)| (g.predict(x) - y).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mse(&large) <= mse(&small));
    }

    #[test]
    fn len_reports_tree_count() {
        let (xs, ys) = friedman_like(50, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let gbt = Gbt::fit(
            &xs,
            &ys,
            GbtParams {
                trees: 7,
                ..GbtParams::default()
            },
            &mut rng,
        );
        assert_eq!(gbt.len(), 7);
        assert!(!gbt.is_empty());
    }

    #[test]
    fn presorted_split_matches_two_pass_reference() {
        // The presorted sweep must pick the same threshold as the original
        // re-scanning search on a fixed fixture.
        let (xs, ys) = friedman_like(500, 42);
        let indices: Vec<usize> = (0..xs.len()).collect();
        let width = xs[0].len();
        for (feature, fast) in presorted_root_splits(&xs, &ys).into_iter().enumerate() {
            let slow = two_pass_best_split(&xs, &ys, &indices, feature);
            match (fast, slow) {
                (Some((ft, fg)), Some((st, sg))) => {
                    assert_eq!(ft, st, "feature {feature}: thresholds diverged");
                    assert!((fg - sg).abs() < 1e-6 * sg.abs().max(1.0), "feature {feature}: gains {fg} vs {sg}");
                }
                (None, None) => {}
                other => panic!("feature {feature}: disagreement {other:?}"),
            }
        }
        // And the full-tree argmax across features must agree too: fit one
        // depth-1 tree and check its root against the reference argmax.
        let mut rng = StdRng::seed_from_u64(0);
        let gbt = Gbt::fit(
            &xs,
            &ys,
            GbtParams {
                trees: 1,
                max_depth: 1,
                feature_fraction: 1.0,
                ..GbtParams::default()
            },
            &mut rng,
        );
        let mut reference: Option<(usize, f64, f64)> = None;
        for feature in 0..width {
            if let Some((threshold, gain)) = two_pass_best_split(&xs, &ys, &indices, feature) {
                if reference.is_none_or(|(_, _, g)| gain > g) && gain > 1e-12 {
                    reference = Some((feature, threshold, gain));
                }
            }
        }
        let (rf, rt, _) = reference.expect("fixture has signal");
        assert_eq!(gbt.root_split(0), Some((rf, rt)));
    }

    #[test]
    fn splits_ties_and_duplicate_values() {
        // Columns with a single distinct value must be unsplittable.
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![1.0, (i % 3) as f64]).collect();
        let ys: Vec<f64> = (0..30).map(|i| (i % 3) as f64 * 10.0).collect();
        let splits = presorted_root_splits(&xs, &ys);
        assert_eq!(splits[0], None);
        let (_, gain) = splits[1].expect("feature 1 separates");
        assert!(gain > 0.0);
    }

    /// A random training set: integer columns with few distinct values
    /// (duplicate-heavy), continuous columns, and targets mixing both.
    fn mixed_fixture(rng: &mut StdRng, n: usize, width: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let levels: Vec<Option<u32>> = (0..width).map(|_| rng.gen_bool(0.5).then(|| rng.gen_range(1..6))).collect();
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                levels
                    .iter()
                    .map(|l| match l {
                        Some(k) => f64::from(rng.gen_range(0..*k)),
                        None => rng.gen_range(-1.0..1.0),
                    })
                    .collect()
            })
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| x[0] * 2.0 - x[x.len() / 2] * x[x.len() - 1] + rng.gen_range(-0.1..0.1))
            .collect();
        (xs, ys)
    }

    fn bits(gbt: &Gbt, xs: &[Vec<f64>]) -> Vec<u64> {
        xs.iter().map(|x| gbt.predict(x).to_bits()).collect()
    }

    #[test]
    fn presorted_fit_is_bit_identical_to_per_node_sort_reference() {
        let mut shapes = StdRng::seed_from_u64(0x5eed);
        for case in 0..48 {
            let n = if case < 4 { case + 1 } else { shapes.gen_range(1..600) };
            let width = shapes.gen_range(1..40);
            let (xs, ys) = mixed_fixture(&mut shapes, n, width);
            let params = GbtParams {
                trees: shapes.gen_range(1..12),
                max_depth: shapes.gen_range(1..6),
                min_samples_split: shapes.gen_range(2..8),
                feature_fraction: if shapes.gen_bool(0.5) { 0.9 } else { 1.0 },
                ..GbtParams::default()
            };
            let seed = shapes.gen::<u64>();
            let expected = reference::fit(&xs, &ys, params, &mut StdRng::seed_from_u64(seed));
            let grown = reference::fit_incremental(&expected, &xs, &ys, 3, &mut StdRng::seed_from_u64(seed ^ 1));
            for threads in [1, 4] {
                crate::parallel::set_default_threads(threads);
                let fitted = Gbt::fit(&xs, &ys, params, &mut StdRng::seed_from_u64(seed));
                let extended = expected.fit_incremental(&xs, &ys, 3, &mut StdRng::seed_from_u64(seed ^ 1));
                crate::parallel::set_default_threads(0);
                assert_eq!(
                    bits(&fitted, &xs),
                    bits(&expected, &xs),
                    "case {case}: fit, {n}x{width} at {threads} threads"
                );
                assert_eq!(
                    bits(&extended, &xs),
                    bits(&grown, &xs),
                    "case {case}: fit_incremental at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn presorted_fit_matches_reference_on_signed_zeros_and_nan() {
        // -0.0 and 0.0 share a distinct-value run; NaN sorts last and opens
        // a run of its own per row. Both must route exactly as before.
        let column = [0.0, -0.0, 1.0, f64::NAN, -0.0, 2.0, 0.0, f64::NAN, 1.0, -1.0];
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![column[i % 10], column[(i * 3) % 10], f64::from(i as u32 % 4)])
            .collect();
        let ys: Vec<f64> = (0..40).map(|i| f64::from(i as u32 % 7) - 3.0).collect();
        let params = GbtParams {
            trees: 6,
            min_samples_split: 2,
            ..GbtParams::default()
        };
        let expected = reference::fit(&xs, &ys, params, &mut StdRng::seed_from_u64(1));
        let fitted = Gbt::fit(&xs, &ys, params, &mut StdRng::seed_from_u64(1));
        assert_eq!(bits(&fitted, &xs), bits(&expected, &xs));
    }

    #[test]
    fn fit_is_identical_at_any_thread_count() {
        let (xs, ys) = friedman_like(600, 10);
        let fit_at = |threads: usize| {
            crate::parallel::set_default_threads(threads);
            let mut rng = StdRng::seed_from_u64(3);
            let gbt = Gbt::fit(&xs, &ys, GbtParams::default(), &mut rng);
            crate::parallel::set_default_threads(0);
            xs.iter().map(|x| gbt.predict(x).to_bits()).collect::<Vec<u64>>()
        };
        let one = fit_at(1);
        assert_eq!(one, fit_at(4));
        assert_eq!(one, fit_at(13));
    }

    #[test]
    fn incremental_with_zero_trees_is_bit_identical() {
        let (xs, ys) = friedman_like(300, 20);
        let mut rng = StdRng::seed_from_u64(21);
        let base = Gbt::fit(&xs, &ys, GbtParams::default(), &mut rng);
        let mut rng = StdRng::seed_from_u64(22);
        let same = base.fit_incremental(&xs, &ys, 0, &mut rng);
        assert_eq!(same.len(), base.len());
        for x in &xs {
            assert_eq!(base.predict(x).to_bits(), same.predict(x).to_bits());
        }
    }

    #[test]
    fn incremental_trees_improve_training_fit() {
        let (xs, ys) = friedman_like(400, 23);
        let mut rng = StdRng::seed_from_u64(24);
        let short = Gbt::fit(
            &xs,
            &ys,
            GbtParams {
                trees: 8,
                ..GbtParams::default()
            },
            &mut rng,
        );
        let extended = short.fit_incremental(&xs, &ys, 40, &mut rng);
        assert_eq!(extended.len(), 48);
        assert_eq!(short.len(), 8, "warm start must not mutate the original");
        let mse = |g: &Gbt| xs.iter().zip(&ys).map(|(x, y)| (g.predict(x) - y).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mse(&extended) < mse(&short), "extra residual trees must tighten the fit");
    }

    #[test]
    fn incremental_tracks_scratch_fit_quality() {
        // Warm-start (8 scratch + 42 incremental) must land within a small
        // factor of a 50-tree scratch fit: the residual recurrence is the
        // same, only the RNG stream for the feature-subsampling differs.
        let (xs, ys) = friedman_like(400, 25);
        let mut rng = StdRng::seed_from_u64(26);
        let scratch = Gbt::fit(&xs, &ys, GbtParams::default(), &mut rng);
        let mut rng = StdRng::seed_from_u64(26);
        let short = Gbt::fit(
            &xs,
            &ys,
            GbtParams {
                trees: 8,
                ..GbtParams::default()
            },
            &mut rng,
        );
        let warm = short.fit_incremental(&xs, &ys, 42, &mut rng);
        let mse = |g: &Gbt| xs.iter().zip(&ys).map(|(x, y)| (g.predict(x) - y).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mse(&warm) < 2.0 * mse(&scratch), "warm {} vs scratch {}", mse(&warm), mse(&scratch));
    }

    #[test]
    fn incremental_is_deterministic_and_thread_invariant() {
        let (xs, ys) = friedman_like(600, 27);
        let mut rng = StdRng::seed_from_u64(28);
        let base = Gbt::fit(&xs, &ys, GbtParams::default(), &mut rng);
        let grow_at = |threads: usize| {
            crate::parallel::set_default_threads(threads);
            let mut rng = StdRng::seed_from_u64(29);
            let grown = base.fit_incremental(&xs, &ys, 8, &mut rng);
            crate::parallel::set_default_threads(0);
            xs.iter().map(|x| grown.predict(x).to_bits()).collect::<Vec<u64>>()
        };
        let one = grow_at(1);
        assert_eq!(one, grow_at(4));
        assert_eq!(one, grow_at(13));
    }

    #[test]
    fn fit_accepts_shared_rows() {
        // The row type is generic over AsRef<[f64]> so cached Arc rows feed
        // training without a clone; values must match the Vec path exactly.
        use std::sync::Arc;
        let (xs, ys) = friedman_like(200, 30);
        let shared: Vec<Arc<[f64]>> = xs.iter().map(|x| Arc::from(x.as_slice())).collect();
        let mut rng = StdRng::seed_from_u64(31);
        let from_vecs = Gbt::fit(&xs, &ys, GbtParams::default(), &mut rng);
        let mut rng = StdRng::seed_from_u64(31);
        let from_arcs = Gbt::fit(&shared, &ys, GbtParams::default(), &mut rng);
        for x in &xs {
            assert_eq!(from_vecs.predict(x).to_bits(), from_arcs.predict(x).to_bits());
        }
        let batch = from_arcs.predict_batch(&shared);
        assert_eq!(batch.len(), xs.len());
    }

    #[test]
    fn predict_batch_matches_predict() {
        let (xs, ys) = friedman_like(300, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let gbt = Gbt::fit(&xs, &ys, GbtParams::default(), &mut rng);
        let batch = gbt.predict_batch(&xs);
        assert_eq!(batch.len(), xs.len());
        for (x, b) in xs.iter().zip(&batch) {
            assert_eq!(gbt.predict(x).to_bits(), b.to_bits());
        }
    }
}
