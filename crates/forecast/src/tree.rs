//! Gradient-boosted regression trees with quantile loss.
//!
//! Paper §4.1 models inorganic changes with "a tree-based model with
//! quantile loss (e.g., alpha = 0.5)" over two regressor families: the
//! organically-adjusted traffic of recent months and infrastructure usage
//! (power, flash, disk, server counts). This module implements that model
//! from scratch: depth-limited CART trees boosted on the quantile-loss
//! (pinball) gradient.
//!
//! For α = 0.5 the loss is (half) the absolute error and the model
//! estimates the conditional median, which is robust to the spiky
//! outliers storage services produce.

use serde::{Deserialize, Serialize};

/// Hyper-parameters for the boosted ensemble.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GbdtConfig {
    /// Quantile level α in (0, 1); 0.5 = median regression.
    pub alpha: f64,
    /// Number of boosting rounds.
    pub rounds: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_leaf: usize,
    /// Shrinkage (learning rate).
    pub learning_rate: f64,
}

impl Default for GbdtConfig {
    /// The forecast pipeline's values: monthly training sets are tiny
    /// (a year = 12 rows), so allow single-sample leaves and learn fast.
    fn default() -> Self {
        GbdtConfig {
            alpha: 0.5,
            rounds: 60,
            max_depth: 3,
            min_leaf: 1,
            learning_rate: 0.3,
        }
    }
}

/// One node of a CART tree, stored in a flat arena.
#[derive(Clone, Debug, Serialize, Deserialize)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A single regression tree.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if x[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Fit a tree to residuals with squared-error splits; leaf values are
    /// the α-quantile of the residuals in the leaf (the "line search"
    /// step that makes the ensemble optimize pinball loss).
    fn fit(
        xs: &[Vec<f64>],
        residuals: &[f64],
        indices: &[usize],
        depth: usize,
        cfg: &GbdtConfig,
    ) -> Tree {
        let mut nodes = Vec::new();
        Self::build(xs, residuals, indices, depth, cfg, &mut nodes);
        Tree { nodes }
    }

    fn build(
        xs: &[Vec<f64>],
        residuals: &[f64],
        indices: &[usize],
        depth: usize,
        cfg: &GbdtConfig,
        nodes: &mut Vec<Node>,
    ) -> usize {
        let make_leaf = |nodes: &mut Vec<Node>| {
            let vals: Vec<f64> = indices.iter().map(|&i| residuals[i]).collect();
            let value = entitlement_core::stats::percentile(&vals, cfg.alpha * 100.0);
            let id = nodes.len();
            nodes.push(Node::Leaf {
                value: if value.is_nan() { 0.0 } else { value },
            });
            id
        };

        if depth == 0 || indices.len() < 2 * cfg.min_leaf {
            return make_leaf(nodes);
        }

        // Find the best squared-error split across features.
        let n_features = xs[indices[0]].len();
        let total_sum: f64 = indices.iter().map(|&i| residuals[i]).sum();
        let total_cnt = indices.len() as f64;
        let parent_score = total_sum * total_sum / total_cnt;

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        // `f` is a column index into every row, not a position in one
        // slice — there is no single iterator to replace the range with.
        #[allow(clippy::needless_range_loop)]
        for f in 0..n_features {
            let mut order: Vec<usize> = indices.to_vec();
            order.sort_by(|&a, &b| xs[a][f].partial_cmp(&xs[b][f]).unwrap());
            let mut left_sum = 0.0;
            for (k, &i) in order.iter().enumerate() {
                left_sum += residuals[i];
                let left_cnt = (k + 1) as f64;
                let right_cnt = total_cnt - left_cnt;
                if (k + 1) < cfg.min_leaf || (right_cnt as usize) < cfg.min_leaf {
                    continue;
                }
                // Skip ties: can't split between equal feature values.
                if k + 1 < order.len() && xs[order[k]][f] == xs[order[k + 1]][f] {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let score =
                    left_sum * left_sum / left_cnt + right_sum * right_sum / right_cnt;
                let gain = score - parent_score;
                if best.map_or(gain > 1e-12, |(_, _, g)| gain > g) {
                    let threshold = if k + 1 < order.len() {
                        (xs[order[k]][f] + xs[order[k + 1]][f]) / 2.0
                    } else {
                        xs[order[k]][f]
                    };
                    best = Some((f, threshold, gain));
                }
            }
        }

        let Some((feature, threshold, _)) = best else {
            return make_leaf(nodes);
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| xs[i][feature] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return make_leaf(nodes);
        }

        let id = nodes.len();
        nodes.push(Node::Leaf { value: 0.0 }); // placeholder
        let left = Self::build(xs, residuals, &left_idx, depth - 1, cfg, nodes);
        let right = Self::build(xs, residuals, &right_idx, depth - 1, cfg, nodes);
        nodes[id] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        id
    }
}

/// A gradient-boosted quantile regressor.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QuantileGbdt {
    config: GbdtConfig,
    base: f64,
    trees: Vec<Tree>,
}

impl QuantileGbdt {
    /// Fit on feature rows `xs` and targets `ys`.
    ///
    /// Boosting on quantile loss: each round fits a tree to the residuals
    /// `y - F(x)` and sets leaf values to the residual α-quantile, then
    /// adds it with shrinkage. The initial prediction is the global
    /// α-quantile.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], config: GbdtConfig) -> QuantileGbdt {
        assert_eq!(xs.len(), ys.len());
        assert!(!xs.is_empty(), "empty training set");
        assert!((0.0..1.0).contains(&config.alpha) && config.alpha > 0.0);
        let base = entitlement_core::stats::percentile(ys, config.alpha * 100.0);
        let mut model = QuantileGbdt {
            config: config.clone(),
            base,
            trees: Vec::with_capacity(config.rounds),
        };
        let indices: Vec<usize> = (0..xs.len()).collect();
        let mut preds: Vec<f64> = vec![base; ys.len()];
        for _ in 0..config.rounds {
            let residuals: Vec<f64> = ys.iter().zip(&preds).map(|(y, p)| y - p).collect();
            let tree = Tree::fit(xs, &residuals, &indices, config.max_depth, &config);
            for (i, x) in xs.iter().enumerate() {
                preds[i] += config.learning_rate * tree.predict(x);
            }
            model.trees.push(tree);
        }
        model
    }

    /// Predict for one feature row.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.base
            + self
                .trees
                .iter()
                .map(|t| self.config.learning_rate * t.predict(x))
                .sum::<f64>()
    }

    /// Number of trees in the ensemble.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the ensemble has no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

/// Build the paper's lagged feature rows: for each month `t`, features are
/// `X_{t-1}, X_{t-2}, X_{t-3}` (traffic) and `Y_{t-1}, Y_{t-2}, Y_{t-3}`
/// (flattened inorganic regressors); the target is `X_t`.
///
/// Returns `(features, targets)` with one row per month `t >= 3`.
pub fn lagged_rows(traffic: &[f64], regressors: &[Vec<f64>]) -> (Vec<Vec<f64>>, Vec<f64>) {
    assert_eq!(traffic.len(), regressors.len());
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for t in 3..traffic.len() {
        let mut row = vec![traffic[t - 1], traffic[t - 2], traffic[t - 3]];
        for h in 1..=3 {
            row.extend_from_slice(&regressors[t - h]);
        }
        xs.push(row);
        ys.push(traffic[t]);
    }
    (xs, ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use entitlement_core::DetRng;

    /// A slower, wider ensemble than the pipeline's default, for the
    /// larger training sets these tests fit.
    fn wide() -> GbdtConfig {
        GbdtConfig {
            alpha: 0.5,
            rounds: 100,
            max_depth: 3,
            min_leaf: 2,
            learning_rate: 0.1,
        }
    }

    #[test]
    fn learns_step_function() {
        // y = 10 if x0 > 0.5 else 2.
        let mut rng = DetRng::new(1);
        let xs: Vec<Vec<f64>> = (0..200).map(|_| vec![rng.f64(), rng.f64()]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| if x[0] > 0.5 { 10.0 } else { 2.0 }).collect();
        let model = QuantileGbdt::fit(&xs, &ys, wide());
        assert!((model.predict(&[0.9, 0.1]) - 10.0).abs() < 0.5);
        assert!((model.predict(&[0.1, 0.9]) - 2.0).abs() < 0.5);
        assert_eq!(model.len(), 100);
        assert!(!model.is_empty());
    }

    #[test]
    fn median_is_robust_to_outliers() {
        // Constant 5 with huge positive outliers; the median model should
        // stay near 5 while a mean model would be dragged up.
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 % 10.0]).collect();
        let ys: Vec<f64> = (0..100)
            .map(|i| if i % 10 == 0 { 500.0 } else { 5.0 })
            .collect();
        let model = QuantileGbdt::fit(&xs, &ys, wide());
        let pred = model.predict(&[3.0]);
        assert!((pred - 5.0).abs() < 1.0, "median pred {pred}");
    }

    #[test]
    fn upper_quantile_sits_above_median() {
        let mut rng = DetRng::new(2);
        let xs: Vec<Vec<f64>> = (0..300).map(|_| vec![rng.f64()]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 10.0 + rng.normal()).collect();
        let med = QuantileGbdt::fit(
            &xs,
            &ys,
            GbdtConfig {
                alpha: 0.5,
                ..wide()
            },
        );
        let p90 = QuantileGbdt::fit(
            &xs,
            &ys,
            GbdtConfig {
                alpha: 0.9,
                ..wide()
            },
        );
        let m = med.predict(&[0.5]);
        let u = p90.predict(&[0.5]);
        assert!(u > m, "p90 {u} must exceed median {m}");
    }

    #[test]
    fn learns_linear_relationship_approximately() {
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..200).map(|i| 3.0 * i as f64).collect();
        let model = QuantileGbdt::fit(
            &xs,
            &ys,
            GbdtConfig {
                rounds: 200,
                max_depth: 4,
                ..wide()
            },
        );
        // Interpolation inside the training range.
        let pred = model.predict(&[100.0]);
        assert!((pred - 300.0).abs() < 20.0, "pred {pred}");
    }

    #[test]
    fn lagged_rows_shapes() {
        let traffic = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let regs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 * 10.0, 0.0]).collect();
        let (xs, ys) = lagged_rows(&traffic, &regs);
        assert_eq!(xs.len(), 2);
        assert_eq!(ys, vec![4.0, 5.0]);
        // Row for t=3: [X2, X1, X0, Y2..., Y1..., Y0...]
        assert_eq!(xs[0][..3], [3.0, 2.0, 1.0]);
        assert_eq!(xs[0].len(), 3 + 3 * 2);
        assert_eq!(xs[0][3], 20.0);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_fit_panics() {
        let _ = QuantileGbdt::fit(&[], &[], GbdtConfig::default());
    }
}
