//! Adam optimizer and parameter storage.
//!
//! The paper trains with a learning rate of 5e-4 (§IV); [`Adam`] implements
//! the standard bias-corrected update. [`ParamStore`] owns named parameter
//! matrices and hands them to tapes by index.

use crate::matrix::Matrix;

/// A named collection of parameter matrices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamStore {
    params: Vec<Matrix>,
    names: Vec<String>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        ParamStore::default()
    }

    /// Registers a parameter, returning its slot index.
    pub fn register(&mut self, name: &str, m: Matrix) -> usize {
        self.params.push(m);
        self.names.push(name.to_string());
        self.params.len() - 1
    }

    /// Parameter at `slot`.
    pub fn get(&self, slot: usize) -> &Matrix {
        &self.params[slot]
    }

    /// Mutable parameter at `slot`.
    pub fn get_mut(&mut self, slot: usize) -> &mut Matrix {
        &mut self.params[slot]
    }

    /// Name of `slot`.
    pub fn name(&self, slot: usize) -> &str {
        &self.names[slot]
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|m| m.len()).sum()
    }

    /// Immutable view of all parameters.
    pub fn all(&self) -> &[Matrix] {
        &self.params
    }
}

/// Sample-weighted gradient accumulator matching a [`ParamStore`] layout.
///
/// Each [`GradAccum::add`] contributes a *shard mean* gradient together
/// with the number of samples it averages over; internally the
/// accumulator keeps the sample-weighted sum `Σ nᵢ·gᵢ` and the total
/// sample count `Σ nᵢ`, so [`GradAccum::mean`] is the exact batch mean
/// regardless of how unevenly the batch was sharded. (An earlier
/// revision divided by the number of `add`/`merge` *calls*, which turned
/// uneven shards — e.g. a 5-graph tail split 3+2 — into an unweighted
/// mean of shard means.)
///
/// Buffers are reusable across steps: [`GradAccum::reset`] zeroes the
/// accumulated sums in place without freeing them, and
/// [`GradAccum::mean_in_place`] produces the mean without consuming the
/// accumulator.
#[derive(Debug, Clone, Default)]
pub struct GradAccum {
    grads: Vec<Option<Matrix>>,
    samples: usize,
}

impl GradAccum {
    /// Accumulator for `n` parameter slots.
    pub fn new(n: usize) -> Self {
        GradAccum {
            grads: vec![None; n],
            samples: 0,
        }
    }

    /// Adds a shard's mean gradient (from [`crate::Tape::backward`] over a
    /// `samples`-sample batch), weighted by its sample count.
    pub fn add(&mut self, shard_mean: Vec<Option<Matrix>>, samples: usize) {
        if self.grads.len() < shard_mean.len() {
            self.grads.resize(shard_mean.len(), None);
        }
        let w = samples as f32;
        for (slot, g) in shard_mean.into_iter().enumerate() {
            if let Some(mut g) = g {
                match &mut self.grads[slot] {
                    Some(acc) => acc.add_scaled(&g, w),
                    s => {
                        g.scale_assign(w);
                        *s = Some(g);
                    }
                }
            }
        }
        self.samples += samples;
    }

    /// Merges another accumulator's weighted sums into `self`, leaving
    /// `other` untouched (reset it with [`GradAccum::reset`] for reuse).
    /// Merge order is caller-controlled: merging shards in ascending shard
    /// index keeps parallel reduction bit-identical to sequential.
    pub fn merge_from(&mut self, other: &GradAccum) {
        if self.grads.len() < other.grads.len() {
            self.grads.resize(other.grads.len(), None);
        }
        for (slot, g) in other.grads.iter().enumerate() {
            if let Some(g) = g {
                match &mut self.grads[slot] {
                    Some(acc) => acc.add_assign(g),
                    s => *s = Some(g.clone()),
                }
            }
        }
        self.samples += other.samples;
    }

    /// Merges another accumulator (consuming form of
    /// [`GradAccum::merge_from`]).
    pub fn merge(&mut self, other: GradAccum) {
        self.merge_from(&other);
    }

    /// Zeroes the accumulated sums in place, keeping the buffers for the
    /// next accumulation round.
    pub fn reset(&mut self) {
        for g in self.grads.iter_mut().flatten() {
            g.fill_zero();
        }
        self.samples = 0;
    }

    /// Sample-weighted mean gradients (`Σ nᵢ·gᵢ / Σ nᵢ`); `None` slots
    /// stay `None`.
    pub fn mean(mut self) -> Vec<Option<Matrix>> {
        self.scale_to_mean();
        self.grads
    }

    /// Scales the weighted sums to the mean in place and returns a view.
    /// The accumulator must be [`GradAccum::reset`] before the next round.
    pub fn mean_in_place(&mut self) -> &[Option<Matrix>] {
        self.scale_to_mean();
        &self.grads
    }

    fn scale_to_mean(&mut self) {
        let k = 1.0 / self.samples.max(1) as f32;
        for g in self.grads.iter_mut().flatten() {
            g.scale_assign(k);
        }
    }

    /// Total number of samples accumulated.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Total number of samples accumulated (alias kept for older call
    /// sites).
    pub fn count(&self) -> usize {
        self.samples
    }
}

/// Adam optimizer state.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    t: i32,
}

impl Adam {
    /// Adam with the paper's learning rate (5e-4) unless overridden.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Applies one update step with mean gradients `grads` (slots align with
    /// `store`). `None` slots are skipped.
    pub fn step(&mut self, store: &mut ParamStore, grads: &[Option<Matrix>]) {
        if self.m.len() < store.len() {
            for i in self.m.len()..store.len() {
                let shape = store.get(i);
                self.m.push(Matrix::zeros(shape.rows, shape.cols));
                self.v.push(Matrix::zeros(shape.rows, shape.cols));
            }
        }
        self.t += 1;
        let b1c = 1.0 - self.beta1.powi(self.t);
        let b2c = 1.0 - self.beta2.powi(self.t);
        for (slot, g) in grads.iter().enumerate() {
            let Some(g) = g else { continue };
            let p = store.get_mut(slot);
            let m = &mut self.m[slot];
            let v = &mut self.v[slot];
            for k in 0..p.len() {
                let gk = g.data[k];
                m.data[k] = self.beta1 * m.data[k] + (1.0 - self.beta1) * gk;
                v.data[k] = self.beta2 * v.data[k] + (1.0 - self.beta2) * gk * gk;
                let mhat = m.data[k] / b1c;
                let vhat = v.data[k] / b2c;
                p.data[k] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use crate::Exec;

    #[test]
    fn store_roundtrip() {
        let mut s = ParamStore::new();
        let a = s.register("w", Matrix::scalar(1.0));
        let b = s.register("b", Matrix::zeros(1, 4));
        assert_eq!(s.len(), 2);
        assert_eq!(s.name(a), "w");
        assert_eq!(s.get(b).cols, 4);
        assert_eq!(s.num_scalars(), 5);
    }

    #[test]
    fn accum_means_gradients() {
        let mut acc = GradAccum::new(1);
        acc.add(vec![Some(Matrix::scalar(2.0))], 1);
        acc.add(vec![Some(Matrix::scalar(4.0))], 1);
        assert_eq!(acc.samples(), 2);
        let mean = acc.mean();
        assert!((mean[0].as_ref().unwrap().data[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn accum_weights_uneven_shards() {
        // Shard of 3 samples with mean 2.0 plus shard of 1 sample with
        // mean 6.0: the batch mean is (3·2 + 1·6)/4 = 3, not the
        // mean-of-means 4.
        let mut acc = GradAccum::new(1);
        acc.add(vec![Some(Matrix::scalar(2.0))], 3);
        acc.add(vec![Some(Matrix::scalar(6.0))], 1);
        assert_eq!(acc.samples(), 4);
        let mean = acc.mean();
        assert_eq!(mean[0].as_ref().unwrap().data[0], 3.0);
    }

    #[test]
    fn accum_merge_combines_counts() {
        let mut a = GradAccum::new(1);
        a.add(vec![Some(Matrix::scalar(1.0))], 1);
        let mut b = GradAccum::new(1);
        b.add(vec![Some(Matrix::scalar(3.0))], 1);
        a.merge(b);
        assert_eq!(a.samples(), 2);
        let mean = a.mean();
        assert!((mean[0].as_ref().unwrap().data[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn accum_merge_is_sample_weighted() {
        // 2-sample shard at mean 1.0 merged with 6-sample shard at mean
        // 5.0: batch mean is (2·1 + 6·5)/8 = 4.
        let mut a = GradAccum::new(1);
        a.add(vec![Some(Matrix::scalar(1.0))], 2);
        let mut b = GradAccum::new(1);
        b.add(vec![Some(Matrix::scalar(5.0))], 6);
        a.merge_from(&b);
        assert_eq!(a.samples(), 8);
        assert_eq!(a.mean()[0].as_ref().unwrap().data[0], 4.0);
    }

    #[test]
    fn accum_reset_reuses_buffers() {
        let mut acc = GradAccum::new(1);
        acc.add(vec![Some(Matrix::scalar(2.0))], 2);
        let first = acc.mean_in_place()[0].as_ref().unwrap().data[0];
        assert_eq!(first, 2.0);
        acc.reset();
        assert_eq!(acc.samples(), 0);
        acc.add(vec![Some(Matrix::scalar(7.0))], 1);
        assert_eq!(acc.mean_in_place()[0].as_ref().unwrap().data[0], 7.0);
    }

    #[test]
    fn adam_minimizes_quadratic() {
        // minimize (w - 3)^2 with Adam
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::scalar(0.0));
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let mut tape = Tape::new();
            let p = tape.param(w, store.get(w));
            let loss = tape.mse_loss(p, &[3.0]);
            let grads = tape.backward(loss);
            opt.step(&mut store, &grads);
        }
        let val = store.get(w).data[0];
        assert!((val - 3.0).abs() < 0.05, "converged to {val}");
    }

    #[test]
    fn adam_skips_none_slots() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::scalar(5.0));
        let mut opt = Adam::new(0.1);
        opt.step(&mut store, &[None]);
        assert_eq!(store.get(w).data[0], 5.0);
    }

    #[test]
    fn linear_regression_converges() {
        // y = 2x + 1 learned from 8 points
        let xs: Vec<f32> = (0..8).map(|i| i as f32 / 4.0).collect();
        let ys: Vec<f32> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::scalar(0.0));
        let b = store.register("b", Matrix::scalar(0.0));
        let mut opt = Adam::new(0.05);
        for _ in 0..2000 {
            let mut tape = Tape::new();
            let x = tape.leaf(&Matrix::from_vec(8, 1, xs.clone()));
            let wv = tape.param(w, store.get(w));
            let bv = tape.param(b, store.get(b));
            let xw = tape.matmul(x, wv);
            let pred = tape.add_row(xw, bv);
            let loss = tape.mse_loss(pred, &ys);
            let grads = tape.backward(loss);
            opt.step(&mut store, &grads);
        }
        assert!((store.get(w).data[0] - 2.0).abs() < 0.1);
        assert!((store.get(b).data[0] - 1.0).abs() < 0.1);
    }
}
