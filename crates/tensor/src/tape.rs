//! Reverse-mode automatic differentiation on matrices.
//!
//! A [`Tape`] records a computation graph of matrix ops; [`Tape::backward`]
//! walks it in reverse, producing gradients for every parameter leaf. The
//! forward ops are the [`Exec`] trait's, shared with the tape-free
//! [`crate::Eval`]; the tape adds row summation, scaling and the two
//! losses. The op set is exactly what the GNN models need: matmul,
//! broadcast bias, ReLU, dropout, column concatenation, row summation,
//! row gather/scatter (the message-passing primitives), per-row scaling
//! (normalized adjacency), and two fused ops — [`Exec::linear_bias_relu`] (`relu(x·W + b)`) and
//! [`Exec::add_row_relu`] (`relu(a + b)`) — that collapse the per-layer
//! `matmul → add_row → relu` chain into one node without materializing the
//! intermediates.
//!
//! # Arena reuse
//!
//! Tapes recycle their buffers: [`Tape::reset`] returns every node value,
//! dropout mask, index list and loss-target buffer to internal pools, and
//! subsequent ops draw from those pools instead of the allocator. Leaves
//! and parameters are copied from borrowed matrices into pooled buffers
//! too, so every buffer `reset` returns was drawn from the pool: the pool
//! settles at a fixed size after the first steps instead of growing by
//! one buffer per leaf and parameter every step. A
//! training loop keeps one long-lived tape per worker and calls `reset`
//! each step, so steady-state forward/backward passes perform no value
//! allocations. Reuse never changes results: every op writes its full
//! output before the node is published.
//!
//! # Tape-boundary finiteness checks
//!
//! The matmul kernels in [`crate::matrix`] are dense and IEEE-faithful —
//! NaN/Inf propagate instead of being masked by sparsity short-circuits.
//! To catch poisoned inputs at the boundary where data enters the graph,
//! the tape's [`Exec::leaf`] and [`Exec::param`] `debug_assert` that the
//! incoming matrix is finite, and [`Tape::backward`] asserts the loss value is
//! finite in debug builds.
//!
//! # Examples
//!
//! ```
//! use pg_tensor::{Exec, Matrix, Tape};
//! let mut t = Tape::new();
//! let x = t.leaf(&Matrix::from_vec(1, 2, vec![1.0, 2.0]));
//! let w = t.param(0, &Matrix::from_vec(2, 1, vec![0.5, -0.25]));
//! let y = t.matmul(x, w);
//! let loss = t.mse_loss(y, &[1.0]);
//! let grads = t.backward(loss);
//! assert!(grads[0].is_some());
//! ```

use crate::exec::{copy_f32, take_f32, Exec, Op, Pool, Var};
use crate::matrix::Matrix;

#[derive(Debug, Clone)]
struct Node {
    value: Matrix,
    op: Op,
}

/// A reverse-mode autodiff tape with pooled (arena-reused) buffers.
#[derive(Debug, Clone, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    num_params: usize,
    pool: Pool,
}

impl Tape {
    /// Empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Clears the recorded graph, returning every node value and op buffer
    /// to the internal pools for reuse by the next step. Parameter slots
    /// reset too; the tape is indistinguishable from a fresh one except
    /// that subsequent ops allocate from the pools.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            self.pool.f32s.push(node.value.data);
            self.pool.recycle(node.op);
        }
        self.num_params = 0;
    }

    /// Column-wise sum over rows: `[n, d] → [1, d]`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let cols = self.nodes[a.0].value.cols;
        let data = take_f32(&mut self.pool.f32s, cols);
        let m = &self.nodes[a.0].value;
        let mut v = Matrix {
            rows: 1,
            cols,
            data,
        };
        for r in 0..m.rows {
            for (o, &x) in v.data.iter_mut().zip(m.row(r)) {
                *o += x;
            }
        }
        self.record(v, Op::SumRows(a))
    }

    /// Scalar multiplication.
    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        let mut v = self.pool.copy(&self.nodes[a.0].value);
        v.scale_assign(k);
        self.record(v, Op::Scale(a, k))
    }

    /// Mean absolute percentage error between the single-column prediction
    /// and `targets`; returns a `1 × 1` loss node.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn mape_loss(&mut self, pred: Var, targets: &[f32]) -> Var {
        let owned_t = copy_f32(&mut self.pool.f32s, targets);
        let mut data = take_f32(&mut self.pool.f32s, 1);
        let p = &self.nodes[pred.0].value;
        assert_eq!(p.cols, 1, "predictions must be a column");
        assert_eq!(p.rows, targets.len(), "target count mismatch");
        let mut acc = 0.0f32;
        for (i, &t) in targets.iter().enumerate() {
            if t.abs() > 1e-12 {
                acc += ((p.data[i] - t) / t).abs();
            }
        }
        data[0] = acc / targets.len().max(1) as f32;
        let v = Matrix {
            rows: 1,
            cols: 1,
            data,
        };
        self.record(v, Op::MapeLoss(pred, owned_t))
    }

    /// Mean squared error; returns a `1 × 1` loss node.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub fn mse_loss(&mut self, pred: Var, targets: &[f32]) -> Var {
        let owned_t = copy_f32(&mut self.pool.f32s, targets);
        let mut data = take_f32(&mut self.pool.f32s, 1);
        let p = &self.nodes[pred.0].value;
        assert_eq!(p.cols, 1, "predictions must be a column");
        assert_eq!(p.rows, targets.len(), "target count mismatch");
        let mut acc = 0.0f32;
        for (i, &t) in targets.iter().enumerate() {
            let d = p.data[i] - t;
            acc += d * d;
        }
        data[0] = acc / targets.len().max(1) as f32;
        let v = Matrix {
            rows: 1,
            cols: 1,
            data,
        };
        self.record(v, Op::MseLoss(pred, owned_t))
    }

    /// Runs backpropagation from `loss` (must be `1 × 1`), returning one
    /// gradient slot per parameter index used (missing slots are `None`).
    ///
    /// Intermediate gradient buffers are recycled into the tape pools as
    /// they are consumed, so steady-state backward passes allocate only
    /// the returned parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not scalar.
    pub fn backward(&mut self, loss: Var) -> Vec<Option<Matrix>> {
        assert_eq!(self.nodes[loss.0].value.len(), 1, "loss must be scalar");
        debug_assert!(
            self.nodes[loss.0].value.is_finite(),
            "non-finite loss at the tape boundary"
        );
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Matrix::scalar(1.0));
        let mut out: Vec<Option<Matrix>> = vec![None; self.num_params];

        for i in (0..=loss.0).rev() {
            let Some(g) = grads[i].take() else { continue };
            match &self.nodes[i].op {
                Op::Leaf { param } => {
                    if let Some(slot) = param {
                        match &mut out[*slot] {
                            Some(acc) => {
                                acc.add_assign(&g);
                                self.pool.f32s.push(g.data);
                            }
                            slot_ref => *slot_ref = Some(g),
                        }
                    } else {
                        self.pool.f32s.push(g.data);
                    }
                }
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    let ga = {
                        let mut ga = Matrix {
                            rows: 0,
                            cols: 0,
                            data: take_f32(&mut self.pool.f32s, 0),
                        };
                        g.matmul_nt_into(&self.nodes[b.0].value, &mut ga);
                        ga
                    };
                    let gb = {
                        let mut gb = Matrix {
                            rows: 0,
                            cols: 0,
                            data: take_f32(&mut self.pool.f32s, 0),
                        };
                        self.nodes[a.0].value.matmul_tn_into(&g, &mut gb);
                        gb
                    };
                    self.pool.f32s.push(g.data);
                    accumulate(&mut self.pool.f32s, &mut grads, a, ga);
                    accumulate(&mut self.pool.f32s, &mut grads, b, gb);
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    let gc = self.pool.copy(&g);
                    accumulate(&mut self.pool.f32s, &mut grads, a, gc);
                    accumulate(&mut self.pool.f32s, &mut grads, b, g);
                }
                Op::AddRow(a, bias) => {
                    let (a, bias) = (*a, *bias);
                    let gb = self.colsum(&g);
                    accumulate(&mut self.pool.f32s, &mut grads, bias, gb);
                    accumulate(&mut self.pool.f32s, &mut grads, a, g);
                }
                Op::AddN(vars) => {
                    let vars = vars.clone();
                    for v in &vars[1..] {
                        let gc = self.pool.copy(&g);
                        accumulate(&mut self.pool.f32s, &mut grads, *v, gc);
                    }
                    accumulate(&mut self.pool.f32s, &mut grads, vars[0], g);
                }
                Op::Relu(a) => {
                    let a = *a;
                    let mut ga = g;
                    for (x, &v) in ga.data.iter_mut().zip(&self.nodes[i].value.data) {
                        if v <= 0.0 {
                            *x = 0.0;
                        }
                    }
                    accumulate(&mut self.pool.f32s, &mut grads, a, ga);
                }
                Op::LinearBiasRelu(a, w, bias) => {
                    let (a, w, bias) = (*a, *w, *bias);
                    // Mask by the fused output (post-ReLU), then split into
                    // the three operand gradients exactly as the unfused
                    // relu → add_row → matmul chain would.
                    let mut gm = g;
                    for (x, &v) in gm.data.iter_mut().zip(&self.nodes[i].value.data) {
                        if v <= 0.0 {
                            *x = 0.0;
                        }
                    }
                    let gb = self.colsum(&gm);
                    let ga = {
                        let mut ga = Matrix {
                            rows: 0,
                            cols: 0,
                            data: take_f32(&mut self.pool.f32s, 0),
                        };
                        gm.matmul_nt_into(&self.nodes[w.0].value, &mut ga);
                        ga
                    };
                    let gw = {
                        let mut gw = Matrix {
                            rows: 0,
                            cols: 0,
                            data: take_f32(&mut self.pool.f32s, 0),
                        };
                        self.nodes[a.0].value.matmul_tn_into(&gm, &mut gw);
                        gw
                    };
                    self.pool.f32s.push(gm.data);
                    accumulate(&mut self.pool.f32s, &mut grads, bias, gb);
                    accumulate(&mut self.pool.f32s, &mut grads, a, ga);
                    accumulate(&mut self.pool.f32s, &mut grads, w, gw);
                }
                Op::AddRowRelu(a, bias) => {
                    let (a, bias) = (*a, *bias);
                    let mut gm = g;
                    for (x, &v) in gm.data.iter_mut().zip(&self.nodes[i].value.data) {
                        if v <= 0.0 {
                            *x = 0.0;
                        }
                    }
                    let gb = self.colsum(&gm);
                    accumulate(&mut self.pool.f32s, &mut grads, bias, gb);
                    accumulate(&mut self.pool.f32s, &mut grads, a, gm);
                }
                Op::Dropout(a, mask) => {
                    let a = *a;
                    let mut ga = g;
                    for (x, &m) in ga.data.iter_mut().zip(mask) {
                        *x *= m;
                    }
                    accumulate(&mut self.pool.f32s, &mut grads, a, ga);
                }
                Op::ConcatCols(a, b) => {
                    let (a, b) = (*a, *b);
                    let (ca, cb) = (self.nodes[a.0].value.cols, self.nodes[b.0].value.cols);
                    let mut ga = Matrix {
                        rows: g.rows,
                        cols: ca,
                        data: take_f32(&mut self.pool.f32s, g.rows * ca),
                    };
                    let mut gb = Matrix {
                        rows: g.rows,
                        cols: cb,
                        data: take_f32(&mut self.pool.f32s, g.rows * cb),
                    };
                    for r in 0..g.rows {
                        ga.row_mut(r).copy_from_slice(&g.row(r)[..ca]);
                        gb.row_mut(r).copy_from_slice(&g.row(r)[ca..]);
                    }
                    self.pool.f32s.push(g.data);
                    accumulate(&mut self.pool.f32s, &mut grads, a, ga);
                    accumulate(&mut self.pool.f32s, &mut grads, b, gb);
                }
                Op::SumRows(a) => {
                    let a = *a;
                    let rows = self.nodes[a.0].value.rows;
                    let mut ga = Matrix {
                        rows,
                        cols: g.cols,
                        data: take_f32(&mut self.pool.f32s, rows * g.cols),
                    };
                    for r in 0..rows {
                        ga.row_mut(r).copy_from_slice(g.row(0));
                    }
                    self.pool.f32s.push(g.data);
                    accumulate(&mut self.pool.f32s, &mut grads, a, ga);
                }
                Op::Gather(a, _) => {
                    let a = *a;
                    let (rows, cols) = {
                        let src = self.value(a);
                        (src.rows, src.cols)
                    };
                    let mut ga = Matrix {
                        rows,
                        cols,
                        data: take_f32(&mut self.pool.f32s, rows * cols),
                    };
                    let Op::Gather(_, idx) = &self.nodes[i].op else {
                        unreachable!()
                    };
                    for (r, &j) in idx.iter().enumerate() {
                        let dst = ga.row_mut(j as usize);
                        for (o, &x) in dst.iter_mut().zip(g.row(r)) {
                            *o += x;
                        }
                    }
                    self.pool.f32s.push(g.data);
                    accumulate(&mut self.pool.f32s, &mut grads, a, ga);
                }
                Op::ScatterAdd(a, _) => {
                    let a = *a;
                    let (rows, cols) = {
                        let src = self.value(a);
                        (src.rows, src.cols)
                    };
                    let mut ga = Matrix {
                        rows,
                        cols,
                        data: take_f32(&mut self.pool.f32s, rows * cols),
                    };
                    let Op::ScatterAdd(_, idx) = &self.nodes[i].op else {
                        unreachable!()
                    };
                    for (r, &j) in idx.iter().enumerate() {
                        ga.row_mut(r).copy_from_slice(g.row(j as usize));
                    }
                    self.pool.f32s.push(g.data);
                    accumulate(&mut self.pool.f32s, &mut grads, a, ga);
                }
                Op::ScaleRows(a, w) => {
                    let a = *a;
                    let mut ga = g;
                    for (r, &k) in w.iter().enumerate() {
                        for x in ga.row_mut(r) {
                            *x *= k;
                        }
                    }
                    accumulate(&mut self.pool.f32s, &mut grads, a, ga);
                }
                Op::Scale(a, k) => {
                    let (a, k) = (*a, *k);
                    let mut ga = g;
                    ga.scale_assign(k);
                    accumulate(&mut self.pool.f32s, &mut grads, a, ga);
                }
                Op::MapeLoss(pred, targets) => {
                    let pred = *pred;
                    let rows = self.nodes[pred.0].value.rows;
                    let n = targets.len().max(1) as f32;
                    let scale = g.data[0] / n;
                    let mut gp = Matrix {
                        rows,
                        cols: 1,
                        data: take_f32(&mut self.pool.f32s, rows),
                    };
                    let Op::MapeLoss(_, targets) = &self.nodes[i].op else {
                        unreachable!()
                    };
                    let p = &self.nodes[pred.0].value;
                    for (r, &t) in targets.iter().enumerate() {
                        if t.abs() > 1e-12 {
                            let sign = if p.data[r] >= t { 1.0 } else { -1.0 };
                            gp.data[r] = scale * sign / t.abs();
                        }
                    }
                    self.pool.f32s.push(g.data);
                    accumulate(&mut self.pool.f32s, &mut grads, pred, gp);
                }
                Op::MseLoss(pred, targets) => {
                    let pred = *pred;
                    let rows = self.nodes[pred.0].value.rows;
                    let n = targets.len().max(1) as f32;
                    let scale = 2.0 * g.data[0] / n;
                    let mut gp = Matrix {
                        rows,
                        cols: 1,
                        data: take_f32(&mut self.pool.f32s, rows),
                    };
                    let Op::MseLoss(_, targets) = &self.nodes[i].op else {
                        unreachable!()
                    };
                    let p = &self.nodes[pred.0].value;
                    for (r, &t) in targets.iter().enumerate() {
                        gp.data[r] = scale * (p.data[r] - t);
                    }
                    self.pool.f32s.push(g.data);
                    accumulate(&mut self.pool.f32s, &mut grads, pred, gp);
                }
                Op::ScatterMax(a, _, _) => {
                    let a = *a;
                    let (rows, cols) = {
                        let src = self.value(a);
                        (src.rows, src.cols)
                    };
                    let mut ga = Matrix {
                        rows,
                        cols,
                        data: take_f32(&mut self.pool.f32s, rows * cols),
                    };
                    let Op::ScatterMax(_, _, argmax) = &self.nodes[i].op else {
                        unreachable!()
                    };
                    // Route each output gradient to the row that won the max.
                    for (slot, &am) in argmax.iter().enumerate() {
                        if am != u32::MAX {
                            let c = slot % cols;
                            ga.row_mut(am as usize)[c] += g.data[slot];
                        }
                    }
                    self.pool.f32s.push(g.data);
                    accumulate(&mut self.pool.f32s, &mut grads, a, ga);
                }
                Op::SegmentSoftmax(a, _) => {
                    let a = *a;
                    let Op::SegmentSoftmax(_, seg) = &self.nodes[i].op else {
                        unreachable!()
                    };
                    let segments = seg.iter().max().map_or(0, |&m| m as usize + 1);
                    let mut dots = take_f32(&mut self.pool.f32s, segments);
                    let y = &self.nodes[i].value;
                    for (r, &s) in seg.iter().enumerate() {
                        dots[s as usize] += y.data[r] * g.data[r];
                    }
                    // dL/dx_i = y_i * (g_i - Σ_{j in segment} y_j g_j)
                    let mut ga = g;
                    for (r, &s) in seg.iter().enumerate() {
                        ga.data[r] = y.data[r] * (ga.data[r] - dots[s as usize]);
                    }
                    self.pool.f32s.push(dots);
                    accumulate(&mut self.pool.f32s, &mut grads, a, ga);
                }
                Op::MulCol(a, w) => {
                    let (a, w) = (*a, *w);
                    let rows = g.rows;
                    let mut gw = Matrix {
                        rows,
                        cols: 1,
                        data: take_f32(&mut self.pool.f32s, rows),
                    };
                    let av = self.value(a);
                    for r in 0..rows {
                        let mut acc = 0.0f32;
                        for (&gx, &ax) in g.row(r).iter().zip(av.row(r)) {
                            acc += gx * ax;
                        }
                        gw.data[r] = acc;
                    }
                    let wv = &self.nodes[w.0].value;
                    let mut ga = g;
                    for (r, &k) in wv.data.iter().enumerate() {
                        for x in ga.row_mut(r) {
                            *x *= k;
                        }
                    }
                    accumulate(&mut self.pool.f32s, &mut grads, a, ga);
                    accumulate(&mut self.pool.f32s, &mut grads, w, gw);
                }
            }
        }
        out
    }

    /// Pool-backed column sum `[n, d] → [1, d]` (bias gradient).
    fn colsum(&mut self, g: &Matrix) -> Matrix {
        let mut gb = Matrix {
            rows: 1,
            cols: g.cols,
            data: take_f32(&mut self.pool.f32s, g.cols),
        };
        for r in 0..g.rows {
            for (o, &x) in gb.data.iter_mut().zip(g.row(r)) {
                *o += x;
            }
        }
        gb
    }

    /// Number of nodes recorded (for memory diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl<'a> Exec<'a> for Tape {
    fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Copies `m` into a pooled buffer. Debug builds assert it is finite —
    /// the matmul kernels are IEEE-faithful, so a NaN entering here
    /// poisons everything downstream.
    fn leaf(&mut self, m: &'a Matrix) -> Var {
        debug_assert!(m.is_finite(), "non-finite leaf entered the tape");
        let v = self.pool.copy(m);
        self.record(v, Op::Leaf { param: None })
    }

    /// Copies `m` into a pooled buffer. Debug builds assert it is finite.
    fn param(&mut self, slot: usize, m: &'a Matrix) -> Var {
        debug_assert!(m.is_finite(), "non-finite parameter entered the tape");
        self.num_params = self.num_params.max(slot + 1);
        let v = self.pool.copy(m);
        self.record(v, Op::Leaf { param: Some(slot) })
    }

    fn pool(&mut self) -> &mut Pool {
        &mut self.pool
    }

    fn record(&mut self, value: Matrix, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }
}

/// Adds `g` into the gradient slot for `v`, recycling `g`'s buffer into
/// the pool when the slot already holds an accumulator.
fn accumulate(pool: &mut Vec<Vec<f32>>, grads: &mut [Option<Matrix>], v: Var, g: Matrix) {
    match &mut grads[v.0] {
        Some(acc) => {
            acc.add_assign(&g);
            pool.push(g.data);
        }
        slot => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_util::Rng64;

    /// Finite-difference gradient check for a scalar function of params.
    fn grad_check<F>(param: Matrix, f: F)
    where
        F: Fn(&mut Tape, Var) -> Var,
    {
        let mut tape = Tape::new();
        let p = tape.param(0, &param);
        let loss = f(&mut tape, p);
        let grads = tape.backward(loss);
        let analytic = grads[0].as_ref().expect("param grad");

        let eps = 1e-3f32;
        for k in 0..param.len() {
            let mut plus = param.clone();
            plus.data[k] += eps;
            let mut tp = Tape::new();
            let vp = tp.param(0, &plus);
            let lp = f(&mut tp, vp);
            let fp = tp.value(lp).data[0];

            let mut minus = param.clone();
            minus.data[k] -= eps;
            let mut tm = Tape::new();
            let vm = tm.param(0, &minus);
            let lm = f(&mut tm, vm);
            let fm = tm.value(lm).data[0];

            let numeric = (fp - fm) / (2.0 * eps);
            let a = analytic.data[k];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "grad[{k}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn grad_matmul_mse() {
        let w = Matrix::from_vec(2, 2, vec![0.3, -0.2, 0.5, 0.7]);
        grad_check(w, |t, p| {
            let x = t.leaf(&Matrix::from_vec(
                3,
                2,
                vec![1.0, 2.0, -1.0, 0.5, 0.3, -0.7],
            ));
            let h = t.matmul(x, p);
            let w2 = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, -1.0]));
            let y = t.matmul(h, w2);
            t.mse_loss(y, &[0.5, -0.2, 0.1])
        });
    }

    #[test]
    fn grad_relu_chain() {
        let w = Matrix::from_vec(2, 1, vec![0.8, -0.6]);
        grad_check(w, |t, p| {
            let x = t.leaf(&Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 1.5]));
            let h = t.matmul(x, p);
            let r = t.relu(h);
            t.mse_loss(r, &[1.0, 0.0])
        });
    }

    #[test]
    fn grad_linear_bias_relu_weight() {
        let w = Matrix::from_vec(2, 3, vec![0.3, -0.2, 0.5, 0.7, -0.4, 0.1]);
        grad_check(w, |t, p| {
            let x = t.leaf(&Matrix::from_vec(
                3,
                2,
                vec![1.0, 2.0, -1.0, 0.5, 0.3, -0.7],
            ));
            let b = t.leaf(&Matrix::from_vec(1, 3, vec![0.05, -0.1, 0.2]));
            let h = t.linear_bias_relu(x, p, b);
            let v = t.leaf(&Matrix::from_vec(3, 1, vec![1.0, -0.5, 0.25]));
            let y = t.matmul(h, v);
            t.mse_loss(y, &[0.5, -0.2, 0.1])
        });
    }

    #[test]
    fn grad_linear_bias_relu_bias() {
        let b = Matrix::from_vec(1, 2, vec![0.15, -0.35]);
        grad_check(b, |t, p| {
            let x = t.leaf(&Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 1.5]));
            let w = t.leaf(&Matrix::from_vec(2, 2, vec![0.6, -0.3, 0.2, 0.9]));
            let h = t.linear_bias_relu(x, w, p);
            let v = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, -1.0]));
            let y = t.matmul(h, v);
            t.mse_loss(y, &[0.3, -0.6])
        });
    }

    #[test]
    fn grad_add_row_relu() {
        let w = Matrix::from_vec(1, 3, vec![0.1, -0.2, 0.3]);
        grad_check(w, |t, p| {
            let x = t.leaf(&Matrix::from_vec(
                2,
                3,
                vec![0.4, -0.6, 1.0, -0.2, 0.8, -1.1],
            ));
            let h = t.add_row_relu(x, p);
            let s = t.sum_rows(h);
            let v = t.leaf(&Matrix::from_vec(3, 1, vec![1.0, 1.0, 1.0]));
            let y = t.matmul(s, v);
            t.mse_loss(y, &[1.0])
        });
    }

    #[test]
    fn fused_ops_match_unfused_chain() {
        let x = Matrix::from_vec(3, 2, vec![1.0, 2.0, -1.0, 0.5, 0.3, -0.7]);
        let w = Matrix::from_vec(2, 2, vec![0.3, -0.2, 0.5, 0.7]);
        let b = Matrix::from_vec(1, 2, vec![0.1, -0.4]);

        let v = Matrix::from_vec(2, 1, vec![1.0, -0.75]);

        let mut fused = Tape::new();
        let (xf, wf, bf) = (fused.leaf(&x), fused.param(0, &w), fused.param(1, &b));
        let hf = fused.linear_bias_relu(xf, wf, bf);
        let vf = fused.leaf(&v);
        let yf = fused.matmul(hf, vf);
        let lf = fused.mse_loss(yf, &[1.0, 0.0, -0.5]);
        let fused_val = fused.value(hf).clone();
        let fused_grads = fused.backward(lf);

        let mut plain = Tape::new();
        let (xp, wp, bp) = (plain.leaf(&x), plain.param(0, &w), plain.param(1, &b));
        let mm = plain.matmul(xp, wp);
        let ar = plain.add_row(mm, bp);
        let hp = plain.relu(ar);
        let vp = plain.leaf(&v);
        let yp = plain.matmul(hp, vp);
        let lp = plain.mse_loss(yp, &[1.0, 0.0, -0.5]);
        assert_eq!(fused_val, *plain.value(hp));
        let plain_grads = plain.backward(lp);
        for (f, p) in fused_grads.iter().zip(&plain_grads) {
            assert_eq!(f, p, "fused gradient diverged from unfused chain");
        }
    }

    #[test]
    fn reset_reuses_buffers_and_preserves_results() {
        let mut t = Tape::new();
        let mut reference: Option<Vec<f32>> = None;
        for _ in 0..3 {
            t.reset();
            let x = t.leaf(&Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 1.5]));
            let w = t.param(0, &Matrix::from_vec(2, 1, vec![0.8, -0.6]));
            let b = t.param(1, &Matrix::from_vec(1, 1, vec![0.1]));
            let h = t.linear_bias_relu(x, w, b);
            let loss = t.mse_loss(h, &[1.0, 0.0]);
            let grads = t.backward(loss);
            let gw = grads[0].as_ref().expect("weight grad").data.clone();
            match &reference {
                None => reference = Some(gw),
                Some(r) => assert_eq!(r, &gw, "tape reuse changed gradients"),
            }
        }
        assert!(t.len() > 0);
        t.reset();
        assert!(t.is_empty());
    }

    #[test]
    fn grad_gather_scatter() {
        let w = Matrix::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        grad_check(w, |t, p| {
            let g = t.gather(p, &[0, 2, 2, 1]);
            let s = t.scatter_add(g, &[1, 0, 1, 1], 2);
            let v = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, -1.0]));
            let y = t.matmul(s, v);
            t.mse_loss(y, &[0.2, -0.1])
        });
    }

    #[test]
    fn grad_sum_rows_concat() {
        let w = Matrix::from_vec(2, 2, vec![0.4, -0.1, 0.2, 0.9]);
        grad_check(w, |t, p| {
            let s = t.sum_rows(p); // [1,2]
            let c = t.concat_cols(s, s); // [1,4]
            let v = t.leaf(&Matrix::from_vec(4, 1, vec![1.0, 0.5, -0.5, 2.0]));
            let y = t.matmul(c, v);
            t.mse_loss(y, &[0.3])
        });
    }

    #[test]
    fn grad_scale_rows_bias() {
        let w = Matrix::from_vec(1, 3, vec![0.1, -0.2, 0.3]);
        grad_check(w, |t, p| {
            let x = t.leaf(&Matrix::from_vec(2, 3, vec![1.0; 6]));
            let h = t.add_row(x, p);
            let sc = t.scale_rows(h, &[0.5, 2.0]);
            let s = t.sum_rows(sc);
            let v = t.leaf(&Matrix::from_vec(3, 1, vec![1.0, 1.0, 1.0]));
            let y = t.matmul(s, v);
            t.mse_loss(y, &[1.0])
        });
    }

    #[test]
    fn grad_mape() {
        let w = Matrix::from_vec(1, 1, vec![0.9]);
        grad_check(w, |t, p| {
            let x = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, 2.0]));
            let y = t.matmul(x, p);
            t.mape_loss(y, &[1.2, 1.5])
        });
    }

    #[test]
    fn grad_add_n_and_scale() {
        let w = Matrix::from_vec(2, 2, vec![0.2, 0.3, -0.4, 0.6]);
        grad_check(w, |t, p| {
            let a = t.scale(p, 0.5);
            let b = t.relu(p);
            let s = t.add_n(vec![a, b, p]);
            let sr = t.sum_rows(s);
            let v = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, -2.0]));
            let y = t.matmul(sr, v);
            t.mse_loss(y, &[0.1])
        });
    }

    #[test]
    fn grad_scatter_max() {
        // Values are well-separated so the argmax is stable under the
        // finite-difference epsilon.
        let w = Matrix::from_vec(4, 2, vec![0.9, 0.1, 0.2, 0.8, 0.5, -0.4, -0.3, 0.6]);
        grad_check(w, |t, p| {
            let s = t.scatter_max(p, &[0, 1, 0, 1], 2);
            let v = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, -1.0]));
            let y = t.matmul(s, v);
            t.mse_loss(y, &[0.2, -0.1])
        });
    }

    #[test]
    fn scatter_max_routes_ties_to_first_row_and_zeroes_empty_segments() {
        let mut t = Tape::new();
        let x = t.param(0, &Matrix::from_vec(3, 1, vec![2.0, 2.0, 1.0]));
        // Rows 0 and 1 tie in segment 0; segment 1 is empty.
        let s = t.scatter_max(x, &[0, 0, 0], 2);
        assert_eq!(t.value(s).data, vec![2.0, 0.0]);
        let loss = t.mse_loss(s, &[0.0, 0.0]);
        let g = t.backward(loss);
        let gx = g[0].as_ref().expect("param grad");
        assert!(gx.data[0] != 0.0, "first tying row must take the gradient");
        assert_eq!(gx.data[1], 0.0, "later tying row must get none");
        assert_eq!(gx.data[2], 0.0, "non-max row must get none");
    }

    #[test]
    fn grad_segment_softmax() {
        let w = Matrix::from_vec(5, 1, vec![0.4, -0.6, 1.1, 0.2, -0.9]);
        grad_check(w, |t, p| {
            let a = t.segment_softmax(p, &[0, 1, 0, 1, 1], 2);
            let v = t.leaf(&Matrix::from_vec(
                5,
                2,
                vec![1.0, 0.3, -0.5, 0.8, 0.2, -0.7, 0.6, 0.1, -0.2, 0.9],
            ));
            let wsum = t.mul_col(v, a);
            let s = t.sum_rows(wsum);
            let u = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, -1.0]));
            let y = t.matmul(s, u);
            t.mse_loss(y, &[0.25])
        });
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let mut t = Tape::new();
        let x = t.leaf(&Matrix::from_vec(4, 1, vec![10.0, -3.0, 10.5, 0.0]));
        let y = t.segment_softmax(x, &[1, 0, 1, 0], 2);
        let d = &t.value(y).data;
        assert!((d[1] + d[3] - 1.0).abs() < 1e-6, "segment 0 sums to 1");
        assert!((d[0] + d[2] - 1.0).abs() < 1e-6, "segment 1 sums to 1");
        assert!(d.iter().all(|&p| p > 0.0 && p < 1.0));
    }

    #[test]
    fn grad_mul_col_weights() {
        let w = Matrix::from_vec(3, 1, vec![0.7, -0.2, 1.3]);
        grad_check(w, |t, p| {
            let a = t.leaf(&Matrix::from_vec(
                3,
                2,
                vec![1.0, 2.0, -1.0, 0.5, 0.3, -0.7],
            ));
            let m = t.mul_col(a, p);
            let s = t.sum_rows(m);
            let v = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, -0.5]));
            let y = t.matmul(s, v);
            t.mse_loss(y, &[0.4])
        });
    }

    #[test]
    fn grad_mul_col_matrix() {
        let w = Matrix::from_vec(2, 3, vec![0.3, -0.2, 0.5, 0.7, -0.4, 0.1]);
        grad_check(w, |t, p| {
            let k = t.leaf(&Matrix::from_vec(2, 1, vec![0.6, -1.2]));
            let m = t.mul_col(p, k);
            let s = t.sum_rows(m);
            let v = t.leaf(&Matrix::from_vec(3, 1, vec![1.0, 0.5, -0.5]));
            let y = t.matmul(s, v);
            t.mse_loss(y, &[0.1])
        });
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut rng = Rng64::new(0);
        let mut t = Tape::new();
        let x = t.leaf(&Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]));
        let d = t.dropout(x, 0.5, false, &mut rng);
        assert_eq!(t.value(d).data, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn dropout_train_masks_and_scales() {
        let mut rng = Rng64::new(7);
        let mut t = Tape::new();
        let x = t.leaf(&Matrix::from_vec(1, 1000, vec![1.0; 1000]));
        let d = t.dropout(x, 0.4, true, &mut rng);
        let kept = t.value(d).data.iter().filter(|&&v| v > 0.0).count();
        assert!((450..750).contains(&kept), "kept {kept}");
        for &v in &t.value(d).data {
            assert!(v == 0.0 || (v - 1.0 / 0.6).abs() < 1e-5);
        }
    }

    #[test]
    fn unused_params_get_none() {
        let mut t = Tape::new();
        let p0 = t.param(0, &Matrix::scalar(1.0));
        let _p1 = t.param(1, &Matrix::scalar(2.0));
        let loss = t.mse_loss(p0, &[0.0]);
        let grads = t.backward(loss);
        assert!(grads[0].is_some());
        assert!(grads[1].is_none());
    }

    #[test]
    fn shared_param_accumulates() {
        let mut t = Tape::new();
        let p = t.param(0, &Matrix::scalar(3.0));
        let s = t.add(p, p); // y = 2p, dy/dp = 2
        let loss = t.mse_loss(s, &[0.0]); // L = (2p)^2, dL/dp = 8p = 24
        let g = t.backward(loss);
        assert!((g[0].as_ref().unwrap().data[0] - 24.0).abs() < 1e-4);
    }

    #[test]
    fn pool_size_is_steady_across_reset_cycles() {
        let x = Matrix::from_vec(64, 32, (0..64 * 32).map(|i| (i % 7) as f32).collect());
        let w = Matrix::from_vec(32, 32, (0..32 * 32).map(|i| (i % 5) as f32 * 0.1).collect());
        let ones = Matrix::from_vec(32, 1, vec![1.0; 32]);
        let targets = vec![1.0f32; 64];
        let mut t = Tape::new();
        // Forward-only (serving) and forward+backward (training) steps.
        for backward in [false, true] {
            let mut sizes = Vec::new();
            for _ in 0..40 {
                t.reset();
                let xv = t.leaf(&x);
                let wv = t.param(0, &w);
                let h = t.matmul(xv, wv);
                let ov = t.leaf(&ones);
                let y = t.matmul(h, ov);
                if backward {
                    let loss = t.mse_loss(y, &targets);
                    t.backward(loss);
                }
                sizes.push((t.pool.f32s.len(), t.pool.u32s.len()));
            }
            let settled = sizes[4];
            assert!(
                sizes[4..].iter().all(|&s| s == settled),
                "pool grew across resets (backward = {backward}): {sizes:?}"
            );
        }
    }
}
