//! Light-weight multi-layer perceptrons with Adam.
//!
//! §3.1 implements the prior generator `H` and the neural acquisition
//! function as "light-weight" networks (small MLPs). This module provides
//! exactly that: dense layers, ReLU/tanh activations, manual backprop, and
//! an Adam optimizer. Callers can train against mean-squared error directly
//! ([`Mlp::train_mse`]) or supply custom output gradients through
//! [`Mlp::train_step`] for softmax/cross-entropy heads and policy-gradient
//! objectives. A training step runs each sample's forward pass once, into
//! buffers reused across the batch.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hidden-layer activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
        }
    }

    fn derivative(self, activated: f64) -> f64 {
        match self {
            Activation::Relu => {
                if activated > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - activated * activated,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Dense {
    rows: usize, // outputs
    cols: usize, // inputs
    w: Vec<f64>,
    b: Vec<f64>,
    // Adam state.
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Dense {
    fn new<R: Rng + ?Sized>(inputs: usize, outputs: usize, rng: &mut R) -> Self {
        // He-style initialization.
        let scale = (2.0 / inputs as f64).sqrt();
        let w = (0..inputs * outputs).map(|_| rng.gen_range(-scale..scale)).collect();
        Self {
            rows: outputs,
            cols: inputs,
            w,
            b: vec![0.0; outputs],
            mw: vec![0.0; inputs * outputs],
            vw: vec![0.0; inputs * outputs],
            mb: vec![0.0; outputs],
            vb: vec![0.0; outputs],
        }
    }

    fn forward(&self, x: &[f64]) -> Vec<f64> {
        (0..self.rows)
            .map(|o| {
                let row = &self.w[o * self.cols..(o + 1) * self.cols];
                self.b[o] + row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>()
            })
            .collect()
    }

    /// The weights input-major: `transposed()[c * rows + o]` is `w[o][c]`.
    fn transposed(&self) -> Vec<f64> {
        let mut t = vec![0.0; self.w.len()];
        for (o, row) in self.w.chunks_exact(self.cols).enumerate() {
            for (c, &w) in row.iter().enumerate() {
                t[c * self.rows + o] = w;
            }
        }
        t
    }

    /// [`Dense::forward`] into `out`, given [`Dense::transposed`] weights.
    /// Each output still sums its input products in input order from the
    /// `-0.0` that `f64: Sum` starts at, so the values are bit-identical;
    /// iterating input-major lets the independent outputs vectorise.
    fn forward_into(&self, transposed: &[f64], x: &[f64], out: &mut [f64]) {
        out.fill(-0.0);
        for (column, &xi) in transposed.chunks_exact(self.rows).zip(x) {
            for (acc, w) in out.iter_mut().zip(column) {
                *acc += w * xi;
            }
        }
        for (acc, b) in out.iter_mut().zip(&self.b) {
            *acc += b;
        }
    }
}

/// A multi-layer perceptron with identity output head.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    activation: Activation,
    step: u64,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `&[16, 32, 32, 4]`.
    /// Hidden layers use `activation`; the output layer is linear.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given or any width is zero.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(widths: &[usize], activation: Activation, rng: &mut R) -> Self {
        assert!(widths.len() >= 2, "an MLP needs input and output widths");
        assert!(widths.iter().all(|w| *w > 0), "layer widths must be positive");
        let layers = widths.windows(2).map(|w| Dense::new(w[0], w[1], rng)).collect();
        Self {
            layers,
            activation,
            step: 0,
        }
    }

    /// Input width.
    #[must_use]
    pub fn input_width(&self) -> usize {
        self.layers[0].cols
    }

    /// Output width.
    // lint:boundary(PANICS) every constructor installs at least one layer, so `last()` cannot be empty
    #[must_use]
    pub fn output_width(&self) -> usize {
        self.layers.last().expect("at least one layer").rows
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_width()`.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_width(), "input width mismatch");
        let mut h = x.to_vec();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            if i != last {
                for v in &mut h {
                    *v = self.activation.apply(*v);
                }
            }
        }
        h
    }

    /// One Adam step on mean-squared error over a batch. Returns the batch
    /// MSE before the update.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches or an empty batch.
    pub fn train_mse<X: AsRef<[f64]>, Y: AsRef<[f64]>>(&mut self, xs: &[X], ys: &[Y], lr: f64) -> f64 {
        assert_eq!(xs.len(), ys.len(), "batch inputs/targets must align");
        let mut loss = 0.0;
        self.train_step(xs, lr, |sample, output, grad| {
            let y = ys[sample].as_ref();
            assert_eq!(output.len(), y.len(), "target width mismatch");
            for ((g, oi), yi) in grad.iter_mut().zip(output).zip(y) {
                let d = oi - yi;
                loss += d * d;
                *g = 2.0 * d / (xs.len() * output.len()) as f64;
            }
        });
        loss / (xs.len().max(1) * self.output_width()) as f64
    }

    /// One Adam step over a batch. Each sample runs a single forward pass;
    /// `output_grad(sample, output, grad)` then writes the gradient of the
    /// loss w.r.t. the network **output** (linear head) into the zeroed
    /// `grad`, and the step backpropagates it. This is the hook for softmax
    /// cross-entropy heads (`∂L/∂logits = p − onehot`) and policy-gradient
    /// objectives; [`Mlp::train_mse`] is the mean-squared-error case.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches or an empty batch.
    pub fn train_step<X: AsRef<[f64]>>(&mut self, xs: &[X], lr: f64, mut output_grad: impl FnMut(usize, &[f64], &mut [f64])) {
        assert!(!xs.is_empty(), "empty training batch");
        let n_layers = self.layers.len();
        // Accumulated gradients.
        let mut gw: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut gb: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        // The weights stay fixed until the Adam update, so each layer is
        // transposed once per batch for the input-major forward pass.
        let transposed: Vec<Vec<f64>> = self.layers.iter().map(Dense::transposed).collect();
        // `acts[i]` is layer `i`'s (activated) output; `deltas[i]` the loss
        // gradient w.r.t. its pre-activation output.
        let mut acts: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.rows]).collect();
        let mut deltas = acts.clone();

        for (sample, x) in xs.iter().enumerate() {
            let x = x.as_ref();
            assert_eq!(x.len(), self.input_width(), "input width mismatch");
            for (i, layer) in self.layers.iter().enumerate() {
                let (done, rest) = acts.split_at_mut(i);
                let input = done.last().map_or(x, Vec::as_slice);
                layer.forward_into(&transposed[i], input, &mut rest[0]);
                if i != n_layers - 1 {
                    for v in &mut rest[0] {
                        *v = self.activation.apply(*v);
                    }
                }
            }
            let (output, grad) = (&acts[n_layers - 1], &mut deltas[n_layers - 1]);
            grad.fill(0.0);
            output_grad(sample, output, grad);
            // Backward.
            for i in (0..n_layers).rev() {
                let layer = &self.layers[i];
                let input = if i == 0 { x } else { &acts[i - 1] };
                let (below, rest) = deltas.split_at_mut(i);
                let delta = &rest[0];
                for (o, d) in delta.iter().enumerate() {
                    gb[i][o] += d;
                    let row = &mut gw[i][o * layer.cols..(o + 1) * layer.cols];
                    for (g, xi) in row.iter_mut().zip(input) {
                        *g += d * xi;
                    }
                }
                if i > 0 {
                    let prev = &mut below[i - 1];
                    prev.fill(0.0);
                    for (d, row) in delta.iter().zip(layer.w.chunks_exact(layer.cols)) {
                        for (p, w) in prev.iter_mut().zip(row) {
                            *p += d * w;
                        }
                    }
                    // Activation derivative uses the *activated* value.
                    for (p, a) in prev.iter_mut().zip(input) {
                        *p *= self.activation.derivative(*a);
                    }
                }
            }
        }

        // Adam update.
        self.step += 1;
        let t = self.step as f64;
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bias1 = 1.0 - b1.powf(t);
        let bias2 = 1.0 - b2.powf(t);
        for (i, layer) in self.layers.iter_mut().enumerate() {
            for (j, g) in gw[i].iter().enumerate() {
                layer.mw[j] = b1 * layer.mw[j] + (1.0 - b1) * g;
                layer.vw[j] = b2 * layer.vw[j] + (1.0 - b2) * g * g;
                layer.w[j] -= lr * (layer.mw[j] / bias1) / ((layer.vw[j] / bias2).sqrt() + eps);
            }
            for (j, g) in gb[i].iter().enumerate() {
                layer.mb[j] = b1 * layer.mb[j] + (1.0 - b1) * g;
                layer.vb[j] = b2 * layer.vb[j] + (1.0 - b2) * g * g;
                layer.b[j] -= lr * (layer.mb[j] / bias1) / ((layer.vb[j] / bias2).sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_are_consistent() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[4, 8, 3], Activation::Relu, &mut rng);
        assert_eq!(mlp.input_width(), 4);
        assert_eq!(mlp.output_width(), 3);
        assert_eq!(mlp.predict(&[0.1, 0.2, 0.3, 0.4]).len(), 3);
    }

    #[test]
    fn learns_a_linear_function() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mlp = Mlp::new(&[2, 16, 1], Activation::Tanh, &mut rng);
        use rand::Rng;
        let xs: Vec<Vec<f64>> = (0..64).map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![0.7 * x[0] - 0.3 * x[1] + 0.1]).collect();
        let mut last = f64::INFINITY;
        for _ in 0..400 {
            last = mlp.train_mse(&xs, &ys, 0.01);
        }
        assert!(last < 1e-3, "final MSE {last}");
    }

    #[test]
    fn learns_xor_with_relu() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mlp = Mlp::new(&[2, 16, 16, 1], Activation::Relu, &mut rng);
        let xs = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
        let ys = vec![vec![0.0], vec![1.0], vec![1.0], vec![0.0]];
        for _ in 0..2000 {
            mlp.train_mse(&xs, &ys, 0.01);
        }
        for (x, y) in xs.iter().zip(&ys) {
            let p = mlp.predict(x)[0];
            assert!((p - y[0]).abs() < 0.2, "xor({x:?}) = {p}");
        }
    }

    #[test]
    fn softmax_head_gradient_decreases_cross_entropy() {
        use crate::stats::softmax;
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&[3, 16, 4], Activation::Relu, &mut rng);
        let xs = vec![vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]];
        let targets = [0usize, 1, 2];
        let ce = |mlp: &Mlp| -> f64 { xs.iter().zip(targets).map(|(x, t)| -softmax(&mlp.predict(x))[t].ln()).sum::<f64>() };
        let before = ce(&mlp);
        for _ in 0..200 {
            mlp.train_step(&xs, 0.01, |sample, logits, grad| {
                let mut p = softmax(logits);
                p[targets[sample]] -= 1.0;
                grad.copy_from_slice(&p);
            });
        }
        let after = ce(&mlp);
        assert!(after < before * 0.2, "CE {before} -> {after}");
    }

    /// The two-forward trainer `train_step` replaced: a `predict` per
    /// sample for the output gradients, then a second forward pass with
    /// per-sample activation vectors before backpropagating.
    fn reference_step(mlp: &mut Mlp, xs: &[Vec<f64>], lr: f64, output_grad: &dyn Fn(usize, &[f64]) -> Vec<f64>) {
        let grads: Vec<Vec<f64>> = xs.iter().enumerate().map(|(s, x)| output_grad(s, &mlp.predict(x))).collect();
        let n_layers = mlp.layers.len();
        let mut gw: Vec<Vec<f64>> = mlp.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut gb: Vec<Vec<f64>> = mlp.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        for (x, out_grad) in xs.iter().zip(&grads) {
            let mut acts: Vec<Vec<f64>> = vec![x.clone()];
            for (i, layer) in mlp.layers.iter().enumerate() {
                let mut h = layer.forward(&acts[i]);
                if i != n_layers - 1 {
                    for v in &mut h {
                        *v = mlp.activation.apply(*v);
                    }
                }
                acts.push(h);
            }
            let mut delta = out_grad.clone();
            for i in (0..n_layers).rev() {
                let layer = &mlp.layers[i];
                for (o, d) in delta.iter().enumerate() {
                    gb[i][o] += d;
                    for (g, xi) in gw[i][o * layer.cols..(o + 1) * layer.cols].iter_mut().zip(&acts[i]) {
                        *g += d * xi;
                    }
                }
                if i > 0 {
                    let mut prev = vec![0.0; layer.cols];
                    for (o, d) in delta.iter().enumerate() {
                        for (p, w) in prev.iter_mut().zip(&layer.w[o * layer.cols..(o + 1) * layer.cols]) {
                            *p += d * w;
                        }
                    }
                    for (p, a) in prev.iter_mut().zip(&acts[i]) {
                        *p *= mlp.activation.derivative(*a);
                    }
                    delta = prev;
                }
            }
        }
        mlp.step += 1;
        let t = mlp.step as f64;
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let (bias1, bias2) = (1.0 - b1.powf(t), 1.0 - b2.powf(t));
        for (i, layer) in mlp.layers.iter_mut().enumerate() {
            let params = [
                (&mut layer.w, &mut layer.mw, &mut layer.vw, &gw[i]),
                (&mut layer.b, &mut layer.mb, &mut layer.vb, &gb[i]),
            ];
            for (w, m, v, g) in params {
                for j in 0..g.len() {
                    m[j] = b1 * m[j] + (1.0 - b1) * g[j];
                    v[j] = b2 * v[j] + (1.0 - b2) * g[j] * g[j];
                    w[j] -= lr * (m[j] / bias1) / ((v[j] / bias2).sqrt() + eps);
                }
            }
        }
    }

    /// Every weight, bias and Adam moment, as bits.
    fn state_bits(mlp: &Mlp) -> Vec<u64> {
        mlp.layers
            .iter()
            .flat_map(|l| [&l.w, &l.b, &l.mw, &l.vw, &l.mb, &l.vb])
            .flat_map(|v| v.iter().map(|x| x.to_bits()))
            .collect()
    }

    #[test]
    fn train_step_is_bit_identical_to_two_forward_reference() {
        use rand::Rng;
        for activation in [Activation::Relu, Activation::Tanh] {
            for batch in [1, 7, 64] {
                let mut rng = StdRng::seed_from_u64(batch as u64);
                let xs: Vec<Vec<f64>> = (0..batch).map(|_| (0..5).map(|_| rng.gen_range(-2.0..2.0)).collect()).collect();
                let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0] * x[1], x[2].sin(), -x[3]]).collect();
                let fresh = Mlp::new(&[5, 12, 9, 3], activation, &mut rng);
                // Mean-squared error through `train_mse`.
                let (mut fast, mut slow) = (fresh.clone(), fresh.clone());
                let mse = |s: usize, o: &[f64]| -> Vec<f64> {
                    o.iter()
                        .zip(&ys[s])
                        .map(|(oi, yi)| 2.0 * (oi - yi) / (xs.len() * o.len()) as f64)
                        .collect()
                };
                for _ in 0..20 {
                    fast.train_mse(&xs, &ys, 0.01);
                    reference_step(&mut slow, &xs, 0.01, &mse);
                }
                assert_eq!(state_bits(&fast), state_bits(&slow), "{activation:?} mse, batch {batch}");
                // A custom softmax cross-entropy gradient through `train_step`.
                let (mut fast, mut slow) = (fresh.clone(), fresh);
                let ce = |s: usize, o: &[f64]| -> Vec<f64> {
                    let mut p = crate::stats::softmax(o);
                    p[s % 3] -= 1.0;
                    p.iter().map(|pi| pi / xs.len() as f64).collect()
                };
                for _ in 0..20 {
                    fast.train_step(&xs, 0.01, |s, o, g| g.copy_from_slice(&ce(s, o)));
                    reference_step(&mut slow, &xs, 0.01, &ce);
                }
                assert_eq!(state_bits(&fast), state_bits(&slow), "{activation:?} cross-entropy, batch {batch}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(9);
            Mlp::new(&[2, 4, 1], Activation::Relu, &mut rng).predict(&[0.5, -0.5])
        };
        assert_eq!(build(), build());
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn predict_checks_width() {
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = Mlp::new(&[3, 4, 1], Activation::Relu, &mut rng);
        let _ = mlp.predict(&[1.0]);
    }
}
