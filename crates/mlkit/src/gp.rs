//! Gaussian-process regression with an RBF kernel.
//!
//! Substrate for the DGP baseline (Sun et al., ICCV '21), which places a
//! Gaussian process over configuration features and transfers its prior
//! mean across tasks.
//!
//! The posterior is evaluated [`LANES`] queries at a time. Each query's
//! kernel row, forward substitution against `L` and variance sum are one
//! serial floating-point chain; a block interleaves independent chains
//! in fixed-width lanes so they overlap instead of waiting on each other.
//! Every lane performs exactly the operations of a lone query in the same
//! order, so results are bit-identical at any block width.

use crate::linalg::{LinalgError, Matrix};
use crate::parallel::{parallel_map_range, Threads};
use serde::{Deserialize, Serialize};

/// Queries the posterior evaluates together.
pub const LANES: usize = 8;

/// Radial-basis-function (squared-exponential) kernel parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RbfKernel {
    /// Signal variance σ_f².
    pub variance: f64,
    /// Isotropic length scale ℓ.
    pub length_scale: f64,
}

impl RbfKernel {
    /// Kernel value `k(a, b) = σ_f² exp(-‖a−b‖² / 2ℓ²)`.
    #[must_use]
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let [d2] = sq_dists(a, b.as_chunks::<1>().0);
        self.of_sq_dist(d2)
    }

    /// Kernel value at squared distance `d2`.
    fn of_sq_dist(&self, d2: f64) -> f64 {
        self.variance * (-d2 / (2.0 * self.length_scale * self.length_scale)).exp()
    }
}

/// Squared distances `‖row − q‖²` from `row` to the `W` points of a
/// transposed block (`qt[f][lane]` is feature `f` of lane `lane`'s point).
/// Each lane sums `(row[f] − q[f])²` in feature order from `-0.0`, as
/// `f64: Sum` does, so a lane never depends on its neighbours or on `W`.
fn sq_dists<const W: usize>(row: &[f64], qt: &[[f64; W]]) -> [f64; W] {
    let mut acc = [-0.0; W];
    for (&x, q) in row.iter().zip(qt) {
        for (a, &y) in acc.iter_mut().zip(q) {
            *a += (x - y).powi(2);
        }
    }
    acc
}

/// Overwrites `qt` with the points `rows` as a transposed `W`-lane block
/// of width `d`; lanes past `rows.len()` are zero.
fn transpose_block<const W: usize, Q: AsRef<[f64]>>(rows: &[Q], d: usize, qt: &mut Vec<[f64; W]>) {
    qt.clear();
    qt.resize(d, [0.0; W]);
    for (lane, row) in rows.iter().enumerate() {
        for (q, &v) in qt.iter_mut().zip(row.as_ref()) {
            q[lane] = v;
        }
    }
}

impl Default for RbfKernel {
    fn default() -> Self {
        Self {
            variance: 1.0,
            length_scale: 1.0,
        }
    }
}

/// A fitted GP regressor (exact inference, Cholesky).
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: RbfKernel,
    noise: f64,
    x: Vec<Vec<f64>>,
    l: Matrix,
    alpha: Vec<f64>,
    mean_offset: f64,
}

impl GaussianProcess {
    /// Fits the GP to `(x, y)` with observation noise `noise` (σ_n²).
    /// The empirical mean of `y` is subtracted and restored at prediction
    /// (a constant mean function).
    ///
    /// # Examples
    ///
    /// ```
    /// use glimpse_mlkit::gp::{GaussianProcess, RbfKernel};
    ///
    /// let xs = vec![vec![0.0], vec![1.0], vec![2.0]];
    /// let ys = [0.0, 1.0, 4.0];
    /// let gp = GaussianProcess::fit(RbfKernel::default(), 1e-6, xs, &ys).unwrap();
    /// let (mean, var) = gp.predict(&[1.5]);
    /// assert!(mean > 1.0 && mean < 4.0);
    /// assert!(var >= 0.0);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError`] if the kernel matrix is numerically singular
    /// even after jitter.
    pub fn fit(kernel: RbfKernel, noise: f64, x: Vec<Vec<f64>>, y: &[f64]) -> Result<Self, LinalgError> {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "GP needs at least one observation");
        let n = x.len();
        let mean_offset = y.iter().sum::<f64>() / n as f64;
        // Kernel rows (upper triangle) build in parallel — each row is a
        // pure function of `x`, so assembly order cannot change the matrix.
        let threads = if n >= 64 { Threads::AUTO } else { Threads::fixed(1) };
        let rows: Vec<Vec<f64>> = parallel_map_range(threads, n, |i| (i..n).map(|j| kernel.eval(&x[i], &x[j])).collect());
        let mut k = Matrix::zeros(n, n);
        for (i, row) in rows.iter().enumerate() {
            for (offset, &v) in row.iter().enumerate() {
                let j = i + offset;
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
            k[(i, i)] += noise;
        }
        // Jittered Cholesky.
        let mut jitter = 1e-10;
        let l = loop {
            match k.cholesky() {
                Ok(l) => break l,
                Err(e) => {
                    if jitter > 1e-2 {
                        return Err(e);
                    }
                    for i in 0..n {
                        k[(i, i)] += jitter;
                    }
                    jitter *= 10.0;
                }
            }
        };
        let centered: Vec<f64> = y.iter().map(|v| v - mean_offset).collect();
        let alpha = l.cholesky_solve(&centered);
        Ok(Self {
            kernel,
            noise,
            x,
            l,
            alpha,
            mean_offset,
        })
    }

    /// Number of observations the GP conditions on.
    #[must_use]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the GP has no observations (never true for a fitted GP).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Predictive mean and variance at `q`.
    #[must_use]
    pub fn predict(&self, q: &[f64]) -> (f64, f64) {
        let [moments] = self.posterior::<1>(q.as_chunks::<1>().0, &mut Vec::with_capacity(self.x.len()));
        moments
    }

    /// Expected improvement of `q` over the incumbent best `best_y`
    /// (maximization form) — a classic Bayesian-optimization acquisition.
    #[must_use]
    pub fn expected_improvement(&self, q: &[f64], best_y: f64) -> f64 {
        let (mu, var) = self.predict(q);
        expected_improvement_of(mu, var, best_y)
    }

    /// [`GaussianProcess::expected_improvement`] of every query against
    /// its own incumbent (`incumbents[i]` for `queries[i]`), in input
    /// order, scoring [`LANES`] queries per pass over `L`. Each value is
    /// bit-identical to the one-query call.
    ///
    /// # Panics
    ///
    /// Panics if `queries` and `incumbents` differ in length, or a query's
    /// width differs from the observations'.
    #[must_use]
    pub fn expected_improvement_batch<Q: AsRef<[f64]>>(&self, queries: &[Q], incumbents: &[f64]) -> Vec<f64> {
        assert_eq!(queries.len(), incumbents.len(), "one incumbent per query");
        let d = self.x[0].len();
        assert!(queries.iter().all(|q| q.as_ref().len() == d), "query and observation widths differ");
        let mut qt = Vec::with_capacity(d);
        let mut buf = Vec::with_capacity(self.x.len());
        let mut out = Vec::with_capacity(queries.len());
        for (block, best) in queries.chunks(LANES).zip(incumbents.chunks(LANES)) {
            transpose_block(block, d, &mut qt);
            let moments = self.posterior::<LANES>(&qt, &mut buf);
            out.extend(
                moments
                    .iter()
                    .zip(best)
                    .map(|(&(mu, var), &best_y)| expected_improvement_of(mu, var, best_y)),
            );
        }
        out
    }

    /// Posterior mean and variance of the `W` points of the transposed
    /// block `qt` (see [`sq_dists`]); `buf` is scratch for the kernel
    /// columns. Lanes are independent: each computes its kernel row and
    /// mean sum in conditioning order, `v = L⁻¹ k` by forward substitution
    /// (each entry subtracting in ascending column order), and `Σ v²` in
    /// row order — the same operations a one-point block performs.
    fn posterior<const W: usize>(&self, qt: &[[f64; W]], buf: &mut Vec<[f64; W]>) -> [(f64, f64); W] {
        buf.clear();
        let mut mean = [-0.0; W];
        for (xi, &a) in self.x.iter().zip(&self.alpha) {
            let k = sq_dists(xi, qt).map(|d2| self.kernel.of_sq_dist(d2));
            for (m, &kl) in mean.iter_mut().zip(&k) {
                *m += kl * a;
            }
            buf.push(k);
        }
        // v = L⁻¹ k_s via forward substitution, in place over `buf`.
        let mut sq = [-0.0; W];
        for (i, row) in self.l.data().chunks_exact(self.l.cols()).enumerate() {
            let (done, rest) = buf.split_at_mut(i);
            let mut sum = rest[0];
            for (&lij, vj) in row.iter().zip(done.iter()) {
                for (s, &v) in sum.iter_mut().zip(vj) {
                    *s -= lij * v;
                }
            }
            for (s, q) in sum.iter_mut().zip(&mut sq) {
                *s /= row[i];
                *q += *s * *s;
            }
            rest[0] = sum;
        }
        std::array::from_fn(|lane| {
            let var = (self.kernel.variance + self.noise - sq[lane]).max(1e-12);
            (self.mean_offset + mean[lane], var)
        })
    }
}

/// Expected improvement over `best_y` of a posterior with mean `mu` and
/// variance `var`.
fn expected_improvement_of(mu: f64, var: f64, best_y: f64) -> f64 {
    let sigma = var.sqrt();
    if sigma < 1e-12 {
        return (mu - best_y).max(0.0);
    }
    let z = (mu - best_y) / sigma;
    sigma * (z * standard_normal_cdf(z) + standard_normal_pdf(z))
}

fn standard_normal_pdf(z: f64) -> f64 {
    (-(z * z) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

fn standard_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Abramowitz–Stegun 7.1.26 rational approximation of erf (|ε| < 1.5e-7).
fn erf(x: f64) -> f64 {
    let sign = x.signum();
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t * (0.254_829_592 + t * (-0.284_496_736 + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// The one-query-at-a-time posterior the lane-blocked one replaced, kept
/// as an equivalence reference for the tests.
#[cfg(test)]
mod reference {
    use super::{standard_normal_cdf, standard_normal_pdf, GaussianProcess, RbfKernel};
    use crate::linalg::{reference, LinalgError, Matrix};

    /// `k(a, b)` summed pairwise through `f64: Sum`.
    pub(super) fn eval(kernel: &RbfKernel, a: &[f64], b: &[f64]) -> f64 {
        let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum();
        kernel.variance * (-d2 / (2.0 * kernel.length_scale * kernel.length_scale)).exp()
    }

    /// Element-by-element kernel assembly and the row-by-row Cholesky.
    pub(super) fn fit(kernel: RbfKernel, noise: f64, x: Vec<Vec<f64>>, y: &[f64]) -> Result<GaussianProcess, LinalgError> {
        let n = x.len();
        let mean_offset = y.iter().sum::<f64>() / n as f64;
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = eval(&kernel, &x[i], &x[j]);
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
            k[(i, i)] += noise;
        }
        let mut jitter = 1e-10;
        let l = loop {
            match reference::cholesky(&k) {
                Ok(l) => break l,
                Err(e) => {
                    if jitter > 1e-2 {
                        return Err(e);
                    }
                    for i in 0..n {
                        k[(i, i)] += jitter;
                    }
                    jitter *= 10.0;
                }
            }
        };
        let centered: Vec<f64> = y.iter().map(|v| v - mean_offset).collect();
        let alpha = reference::cholesky_solve(&l, &centered);
        Ok(GaussianProcess {
            kernel,
            noise,
            x,
            l,
            alpha,
            mean_offset,
        })
    }

    pub(super) fn predict(gp: &GaussianProcess, q: &[f64]) -> (f64, f64) {
        let ks: Vec<f64> = gp.x.iter().map(|xi| eval(&gp.kernel, xi, q)).collect();
        let mean = gp.mean_offset + ks.iter().zip(&gp.alpha).map(|(k, a)| k * a).sum::<f64>();
        let n = gp.x.len();
        let mut v = vec![0.0; n];
        for i in 0..n {
            let mut sum = ks[i];
            #[allow(clippy::needless_range_loop)] // triangular solve: `j` indexes both `l` and `v`
            for j in 0..i {
                sum -= gp.l[(i, j)] * v[j];
            }
            v[i] = sum / gp.l[(i, i)];
        }
        let var = (gp.kernel.variance + gp.noise - v.iter().map(|x| x * x).sum::<f64>()).max(1e-12);
        (mean, var)
    }

    pub(super) fn expected_improvement(gp: &GaussianProcess, q: &[f64], best_y: f64) -> f64 {
        let (mu, var) = predict(gp, q);
        let sigma = var.sqrt();
        if sigma < 1e-12 {
            return (mu - best_y).max(0.0);
        }
        let z = (mu - best_y) / sigma;
        sigma * (z * standard_normal_cdf(z) + standard_normal_pdf(z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64 * 6.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0].sin()).collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points() {
        let (xs, ys) = sine_data(20);
        let gp = GaussianProcess::fit(
            RbfKernel {
                variance: 1.0,
                length_scale: 0.8,
            },
            1e-6,
            xs.clone(),
            &ys,
        )
        .unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let (mu, _) = gp.predict(x);
            assert!((mu - y).abs() < 1e-2, "at {x:?}: {mu} vs {y}");
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let (xs, ys) = sine_data(10);
        let gp = GaussianProcess::fit(RbfKernel::default(), 1e-6, xs, &ys).unwrap();
        let (_, var_near) = gp.predict(&[3.0]);
        let (_, var_far) = gp.predict(&[30.0]);
        assert!(var_far > var_near * 10.0);
    }

    #[test]
    fn predicts_smooth_interpolation() {
        let (xs, ys) = sine_data(30);
        let gp = GaussianProcess::fit(
            RbfKernel {
                variance: 1.0,
                length_scale: 0.8,
            },
            1e-6,
            xs,
            &ys,
        )
        .unwrap();
        let (mu, _) = gp.predict(&[1.55]);
        assert!((mu - 1.55f64.sin()).abs() < 0.05);
    }

    #[test]
    fn expected_improvement_positive_in_unexplored_regions() {
        let (xs, ys) = sine_data(10);
        let best = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let gp = GaussianProcess::fit(RbfKernel::default(), 1e-6, xs, &ys).unwrap();
        assert!(gp.expected_improvement(&[100.0], best) > 0.0);
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-5);
    }

    #[test]
    fn fit_identical_across_thread_counts() {
        // 80 observations crosses the parallel-assembly threshold.
        let (xs, ys) = sine_data(80);
        let predict_at = |threads: usize| {
            crate::parallel::set_default_threads(threads);
            let gp = GaussianProcess::fit(RbfKernel::default(), 1e-6, xs.clone(), &ys).unwrap();
            crate::parallel::set_default_threads(0);
            let (mu, var) = gp.predict(&[1.23]);
            (mu.to_bits(), var.to_bits())
        };
        let one = predict_at(1);
        assert_eq!(one, predict_at(4));
        assert_eq!(one, predict_at(9));
    }

    /// A random point of width `d`: continuous, small-integer (so rows
    /// repeat) and signed-zero coordinates.
    fn random_point(rng: &mut rand::rngs::StdRng, d: usize) -> Vec<f64> {
        use rand::Rng;
        (0..d)
            .map(|_| match rng.gen_range(0..5) {
                0 => f64::from(rng.gen_range(-1i32..=1)),
                1 => -0.0,
                2 => 0.0,
                _ => rng.gen_range(-3.0..3.0),
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Fits the GP both ways, asserts the factor and weights agree bit for
    /// bit, and returns the lane-blocked one (`None` if both fail alike).
    fn fit_both(kernel: RbfKernel, noise: f64, xs: &[Vec<f64>], ys: &[f64], label: &str) -> Option<GaussianProcess> {
        let expected = reference::fit(kernel, noise, xs.to_vec(), ys);
        let actual = GaussianProcess::fit(kernel, noise, xs.to_vec(), ys);
        match (actual, expected) {
            (Ok(gp), Ok(r)) => {
                assert_eq!(bits(gp.l.data()), bits(r.l.data()), "{label}: factor");
                assert_eq!(bits(&gp.alpha), bits(&r.alpha), "{label}: weights");
                assert_eq!(gp.mean_offset.to_bits(), r.mean_offset.to_bits(), "{label}: mean");
                Some(gp)
            }
            (Err(a), Err(e)) => {
                assert_eq!(a, e, "{label}: error");
                None
            }
            (a, e) => panic!("{label}: fit {:?} vs reference {:?}", a.map(|_| ()), e.map(|_| ())),
        }
    }

    /// Asserts `predict`, `expected_improvement` and the batch equal the
    /// one-query reference bit for bit on `pool`.
    fn assert_posterior_matches(gp: &GaussianProcess, pool: &[Vec<f64>], incumbents: &[f64], label: &str) {
        for (q, &best) in pool.iter().zip(incumbents) {
            let (mu, var) = gp.predict(q);
            let (rmu, rvar) = reference::predict(gp, q);
            assert_eq!(
                (mu.to_bits(), var.to_bits()),
                (rmu.to_bits(), rvar.to_bits()),
                "{label}: predict {q:?}"
            );
            let ei = reference::expected_improvement(gp, q, best);
            assert_eq!(gp.expected_improvement(q, best).to_bits(), ei.to_bits(), "{label}: ei {q:?}");
        }
        let expected: Vec<f64> = pool
            .iter()
            .zip(incumbents)
            .map(|(q, &b)| reference::expected_improvement(gp, q, b))
            .collect();
        assert_eq!(
            bits(&gp.expected_improvement_batch(pool, incumbents)),
            bits(&expected),
            "{label}: batch"
        );
    }

    #[test]
    fn lane_blocked_posterior_is_bit_identical_to_one_query_reference() {
        use rand::{Rng, SeedableRng};
        let sizes = (1..=24).chain([31, 32, 33, 63, 64, 65, 127, 128, 129, 199, 200, 201, 255, 256, 257]);
        for threads in [1usize, 4] {
            crate::parallel::set_default_threads(threads);
            for (case, n) in sizes.clone().enumerate() {
                let mut rng = rand::rngs::StdRng::seed_from_u64(case as u64);
                let d = 1 + case % 39;
                let mut xs: Vec<Vec<f64>> = (0..n).map(|_| random_point(&mut rng, d)).collect();
                if n > 2 {
                    // A duplicate row: singular without noise, so the fit
                    // must take the jitter retry.
                    xs[n - 1] = xs[0].clone();
                }
                let ys: Vec<f64> = (0..n)
                    .map(|_| if rng.gen_bool(0.1) { -0.0 } else { rng.gen_range(-1.0..1.0) })
                    .collect();
                let kernel = RbfKernel {
                    variance: 1.0,
                    length_scale: [0.5, 4.0][case % 2],
                };
                let noise = [0.0, 1e-4][case / 2 % 2];
                let label = format!("threads={threads} n={n} d={d} noise={noise}");
                let gp = fit_both(kernel, noise, &xs, &ys, &label).expect("the jittered fit succeeds");
                let pool_size = case * 7 % 51;
                let mut pool: Vec<Vec<f64>> = (0..pool_size).map(|_| random_point(&mut rng, d)).collect();
                if let Some(q) = pool.first_mut() {
                    q.clone_from(&xs[0]);
                }
                let incumbents: Vec<f64> = (0..pool_size).map(|_| rng.gen_range(-1.0..1.0)).collect();
                assert_posterior_matches(&gp, &pool, &incumbents, &label);
            }
        }
        crate::parallel::set_default_threads(0);
    }

    #[test]
    fn batch_matches_reference_at_every_pool_size() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let xs: Vec<Vec<f64>> = (0..37).map(|_| random_point(&mut rng, 6)).collect();
        let ys: Vec<f64> = (0..37).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let gp = fit_both(RbfKernel::default(), 1e-4, &xs, &ys, "pool").expect("noisy kernel matrix is PD");
        for size in 0..=50 {
            let pool: Vec<Vec<f64>> = (0..size).map(|_| random_point(&mut rng, 6)).collect();
            let incumbents: Vec<f64> = (0..size).map(|_| rng.gen_range(-1.0..1.0)).collect();
            assert_posterior_matches(&gp, &pool, &incumbents, &format!("pool size {size}"));
        }
    }

    #[test]
    fn signed_zero_targets_and_underflowing_kernels_match_reference() {
        // All-`-0.0` targets make the mean offset `-0.0`, and a far query
        // underflows every kernel value to zero, so the posterior mean is
        // a sum of signed zeros.
        let xs = vec![vec![0.0, -0.0], vec![1.0, 0.0]];
        let ys = [-0.0, -0.0];
        let gp = fit_both(RbfKernel::default(), 1e-4, &xs, &ys, "zeros").expect("PD");
        let pool = vec![vec![-0.0, 0.0], vec![1e3, -1e3], vec![0.5, -0.0]];
        assert_posterior_matches(&gp, &pool, &[0.0, -0.0, 1.0], "zeros");
    }

    #[test]
    fn duplicate_points_survive_via_jitter() {
        let xs = vec![vec![1.0], vec![1.0], vec![2.0]];
        let ys = vec![0.5, 0.5, 1.0];
        let gp = GaussianProcess::fit(RbfKernel::default(), 0.0, xs, &ys).unwrap();
        assert_eq!(gp.len(), 3);
    }
}
