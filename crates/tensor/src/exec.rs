//! Forward executors: one op vocabulary, two ways to run it.
//!
//! A model's forward pass is written once against [`Exec`], the op set
//! the GNN models need. Two executors implement it:
//!
//! * [`Tape`](crate::Tape) records every op and the buffers its backward
//!   pass needs; training runs on it.
//! * [`Eval`] records nothing. Leaves and parameters are borrowed instead
//!   of copied, and every intermediate value is drawn from an arena the calling thread
//!   keeps across calls. Inference runs on it.
//!
//! Every op's arithmetic is a provided method of [`Exec`], so both
//! executors run the same code on the same inputs and produce the same
//! bits by construction. They differ only in where buffers come from and
//! what they keep after an op returns. The trait cannot be implemented
//! outside this crate.

use crate::matrix::Matrix;
use pg_util::Rng64;
use std::cell::RefCell;

/// Handle to a node of an executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// The op an executor recorded, with the buffers its backward pass needs.
#[derive(Debug, Clone)]
pub enum Op {
    Leaf {
        param: Option<usize>,
    },
    MatMul(Var, Var),
    Add(Var, Var),
    AddRow(Var, Var),
    AddN(Vec<Var>),
    Relu(Var),
    /// `relu(a · w + bias)` in one node (no intermediate materialization).
    LinearBiasRelu(Var, Var, Var),
    /// `relu(a + bias)` in one node, for pre-summed layer inputs.
    AddRowRelu(Var, Var),
    Dropout(Var, Vec<f32>),
    ConcatCols(Var, Var),
    SumRows(Var),
    Gather(Var, Vec<u32>),
    ScatterAdd(Var, Vec<u32>),
    ScaleRows(Var, Vec<f32>),
    Scale(Var, f32),
    MapeLoss(Var, Vec<f32>),
    MseLoss(Var, Vec<f32>),
    /// Segment max with argmax routing: second index buffer records, per
    /// output element, the winning input row (`u32::MAX` = empty segment).
    ScatterMax(Var, Vec<u32>, Vec<u32>),
    /// Per-segment softmax over a single-column input.
    SegmentSoftmax(Var, Vec<u32>),
    /// Row-broadcast product: `out[r][c] = a[r][c] * w[r][0]`.
    MulCol(Var, Var),
}

/// Recycled buffers: node values, masks and loss targets (`f32s`), and
/// gather/scatter index lists (`u32s`).
#[derive(Debug, Clone, Default)]
pub struct Pool {
    pub(crate) f32s: Vec<Vec<f32>>,
    pub(crate) u32s: Vec<Vec<u32>>,
}

impl Pool {
    /// An empty `0 × 0` matrix around a recycled buffer.
    pub(crate) fn matrix(&mut self) -> Matrix {
        Matrix {
            rows: 0,
            cols: 0,
            data: take_f32(&mut self.f32s, 0),
        }
    }

    /// A pooled copy of `m`.
    pub(crate) fn copy(&mut self, m: &Matrix) -> Matrix {
        Matrix {
            rows: m.rows,
            cols: m.cols,
            data: copy_f32(&mut self.f32s, &m.data),
        }
    }

    /// Returns every buffer `op` owns to the pool.
    pub(crate) fn recycle(&mut self, op: Op) {
        match op {
            Op::Dropout(_, m) | Op::ScaleRows(_, m) | Op::MapeLoss(_, m) | Op::MseLoss(_, m) => {
                self.f32s.push(m)
            }
            Op::Gather(_, i) | Op::ScatterAdd(_, i) | Op::SegmentSoftmax(_, i) => self.u32s.push(i),
            Op::ScatterMax(_, i, am) => {
                self.u32s.push(i);
                self.u32s.push(am);
            }
            _ => {}
        }
    }
}

/// Pops a buffer from `pool` (or allocates) and resizes it to `len` zeros.
pub(crate) fn take_f32(pool: &mut Vec<Vec<f32>>, len: usize) -> Vec<f32> {
    let mut b = pool.pop().unwrap_or_default();
    b.clear();
    b.resize(len, 0.0);
    b
}

/// Pops a buffer from `pool` (or allocates) and copies `src` into it.
pub(crate) fn copy_f32(pool: &mut Vec<Vec<f32>>, src: &[f32]) -> Vec<f32> {
    let mut b = pool.pop().unwrap_or_default();
    b.clear();
    b.extend_from_slice(src);
    b
}

fn copy_u32(pool: &mut Vec<Vec<u32>>, src: &[u32]) -> Vec<u32> {
    let mut b = pool.pop().unwrap_or_default();
    b.clear();
    b.extend_from_slice(src);
    b
}

/// Pops a buffer from `pool` (or allocates) and resizes it to `len` copies
/// of `fill`.
fn take_u32(pool: &mut Vec<Vec<u32>>, len: usize, fill: u32) -> Vec<u32> {
    let mut b = pool.pop().unwrap_or_default();
    b.clear();
    b.resize(len, fill);
    b
}

/// The forward op set, shared by the recording [`Tape`](crate::Tape) and
/// the tape-free [`Eval`].
///
/// `'a` is the lifetime of borrowed leaves and parameters: an executor
/// may keep a reference to them instead of copying.
pub trait Exec<'a> {
    /// Value of a node.
    fn value(&self, v: Var) -> &Matrix;

    /// Constant leaf (no gradient).
    fn leaf(&mut self, m: &'a Matrix) -> Var;

    /// Parameter leaf; `slot` indexes the gradient vector returned by
    /// [`Tape::backward`](crate::Tape::backward).
    fn param(&mut self, slot: usize, m: &'a Matrix) -> Var;

    #[doc(hidden)]
    fn pool(&mut self) -> &mut Pool;

    /// Publishes an op's output value.
    #[doc(hidden)]
    fn record(&mut self, value: Matrix, op: Op) -> Var;

    /// Inverted dropout with keep-probability `1 - p`. In eval mode
    /// (`train = false`) or with `p <= 0` it is the identity and returns
    /// `a` itself.
    fn dropout(&mut self, a: Var, p: f32, train: bool, rng: &mut Rng64) -> Var {
        if !train || p <= 0.0 {
            return a;
        }
        let keep = 1.0 - p;
        let n = self.value(a).len();
        let mut mask = take_f32(&mut self.pool().f32s, n);
        for m in &mut mask {
            *m = if rng.f32() < keep { 1.0 / keep } else { 0.0 };
        }
        let mut v = self.pool().matrix();
        v.assign(self.value(a));
        for (x, m) in v.data.iter_mut().zip(&mask) {
            *x *= m;
        }
        self.record(v, Op::Dropout(a, mask))
    }

    /// `a · b`.
    fn matmul(&mut self, a: Var, b: Var) -> Var {
        let mut out = self.pool().matrix();
        self.value(a).matmul_into(self.value(b), &mut out);
        self.record(out, Op::MatMul(a, b))
    }

    /// Elementwise `a + b` (same shape).
    fn add(&mut self, a: Var, b: Var) -> Var {
        let mut v = self.pool().matrix();
        v.assign(self.value(a));
        v.add_assign(self.value(b));
        self.record(v, Op::Add(a, b))
    }

    /// Broadcast add of a `1 × d` row vector to every row of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × a.cols`.
    fn add_row(&mut self, a: Var, bias: Var) -> Var {
        let mut v = self.pool().matrix();
        v.assign(self.value(a));
        let b = self.value(bias);
        assert_eq!(b.rows, 1, "bias must be a row vector");
        assert_eq!(b.cols, v.cols, "bias width mismatch");
        for r in 0..v.rows {
            for (x, &bv) in v.row_mut(r).iter_mut().zip(&b.data) {
                *x += bv;
            }
        }
        self.record(v, Op::AddRow(a, bias))
    }

    /// Sum of several same-shape nodes.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or shapes differ.
    fn add_n(&mut self, vars: Vec<Var>) -> Var {
        assert!(!vars.is_empty(), "add_n needs at least one input");
        let mut v = self.pool().matrix();
        v.assign(self.value(vars[0]));
        for x in &vars[1..] {
            v.add_assign(self.value(*x));
        }
        self.record(v, Op::AddN(vars))
    }

    /// Elementwise ReLU.
    fn relu(&mut self, a: Var) -> Var {
        let mut v = self.pool().matrix();
        v.assign(self.value(a));
        for x in &mut v.data {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
        self.record(v, Op::Relu(a))
    }

    /// Fused `relu(a · w + bias)`: the per-layer `matmul → add_row → relu`
    /// chain as a single node, materializing only the final activation.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or if `bias` is not `1 × w.cols`.
    fn linear_bias_relu(&mut self, a: Var, w: Var, bias: Var) -> Var {
        let b = self.value(bias);
        assert_eq!(b.rows, 1, "bias must be a row vector");
        assert_eq!(b.cols, self.value(w).cols, "bias width mismatch");
        let mut out = self.pool().matrix();
        self.value(a).matmul_into(self.value(w), &mut out);
        let bdata = &self.value(bias).data;
        for r in 0..out.rows {
            for (x, &bv) in out.row_mut(r).iter_mut().zip(bdata) {
                let z = *x + bv;
                *x = if z > 0.0 { z } else { 0.0 };
            }
        }
        self.record(out, Op::LinearBiasRelu(a, w, bias))
    }

    /// Fused `relu(a + bias)` for layers whose pre-activation is already
    /// summed (HEC/SAGE/GraphConv aggregation outputs).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × a.cols`.
    fn add_row_relu(&mut self, a: Var, bias: Var) -> Var {
        let mut v = self.pool().matrix();
        v.assign(self.value(a));
        let b = self.value(bias);
        assert_eq!(b.rows, 1, "bias must be a row vector");
        assert_eq!(b.cols, v.cols, "bias width mismatch");
        for r in 0..v.rows {
            for (x, &bv) in v.row_mut(r).iter_mut().zip(&b.data) {
                let z = *x + bv;
                *x = if z > 0.0 { z } else { 0.0 };
            }
        }
        self.record(v, Op::AddRowRelu(a, bias))
    }

    /// Concatenates columns: `[a | b]`.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let mut v = self.pool().matrix();
        let (ma, mb) = (self.value(a), self.value(b));
        assert_eq!(ma.rows, mb.rows, "concat_cols row mismatch");
        let ca = ma.cols;
        v.resize_zeroed(ma.rows, ca + mb.cols);
        for r in 0..ma.rows {
            v.row_mut(r)[..ca].copy_from_slice(ma.row(r));
            v.row_mut(r)[ca..].copy_from_slice(mb.row(r));
        }
        self.record(v, Op::ConcatCols(a, b))
    }

    /// Gathers rows: `out[i] = a[idx[i]]`.
    fn gather(&mut self, a: Var, idx: &[u32]) -> Var {
        let owned_idx = copy_u32(&mut self.pool().u32s, idx);
        let mut v = self.pool().matrix();
        let m = self.value(a);
        v.resize_zeroed(idx.len(), m.cols);
        for (i, &j) in idx.iter().enumerate() {
            v.row_mut(i).copy_from_slice(m.row(j as usize));
        }
        self.record(v, Op::Gather(a, owned_idx))
    }

    /// Scatter-add rows: `out[idx[i]] += a[i]`, `out` has `rows` rows.
    fn scatter_add(&mut self, a: Var, idx: &[u32], rows: usize) -> Var {
        let owned_idx = copy_u32(&mut self.pool().u32s, idx);
        let mut v = self.pool().matrix();
        let m = self.value(a);
        v.resize_zeroed(rows, m.cols);
        for (i, &j) in idx.iter().enumerate() {
            let dst = v.row_mut(j as usize);
            for (o, &x) in dst.iter_mut().zip(m.row(i)) {
                *o += x;
            }
        }
        self.record(v, Op::ScatterAdd(a, owned_idx))
    }

    /// Scatter-max rows: `out[idx[i]] = max(out[idx[i]], a[i])` per column,
    /// with `out` having `rows` rows. Empty segments yield `0.0` and pass
    /// no gradient. Ties route the gradient to the first contributing row
    /// (strict `>` comparison), so results are order-deterministic.
    fn scatter_max(&mut self, a: Var, idx: &[u32], rows: usize) -> Var {
        let cols = self.value(a).cols;
        let owned_idx = copy_u32(&mut self.pool().u32s, idx);
        let mut argmax = take_u32(&mut self.pool().u32s, rows * cols, u32::MAX);
        let mut v = self.pool().matrix();
        v.resize_zeroed(rows, cols);
        let m = self.value(a);
        for (i, &j) in idx.iter().enumerate() {
            let src = m.row(i);
            let dst = v.row_mut(j as usize);
            for c in 0..cols {
                let slot = j as usize * cols + c;
                if argmax[slot] == u32::MAX || src[c] > dst[c] {
                    dst[c] = src[c];
                    argmax[slot] = i as u32;
                }
            }
        }
        self.record(v, Op::ScatterMax(a, owned_idx, argmax))
    }

    /// Per-segment softmax over a single-column input: row `i` belongs to
    /// segment `seg[i]`, and within each segment the outputs form a softmax
    /// of the inputs (max-subtracted for stability). Rows are visited in
    /// order, so results are deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not a column or `seg.len() != a.rows`.
    fn segment_softmax(&mut self, a: Var, seg: &[u32], segments: usize) -> Var {
        let m = self.value(a);
        assert_eq!(m.cols, 1, "segment_softmax input must be a column");
        assert_eq!(seg.len(), m.rows, "segment index count mismatch");
        let owned_seg = copy_u32(&mut self.pool().u32s, seg);
        let mut maxes = take_f32(&mut self.pool().f32s, segments);
        maxes.iter_mut().for_each(|x| *x = f32::NEG_INFINITY);
        let mut sums = take_f32(&mut self.pool().f32s, segments);
        let mut v = self.pool().matrix();
        v.assign(self.value(a));
        let data = &mut v.data;
        for (i, &s) in seg.iter().enumerate() {
            let s = s as usize;
            if data[i] > maxes[s] {
                maxes[s] = data[i];
            }
        }
        for (i, &s) in seg.iter().enumerate() {
            data[i] = (data[i] - maxes[s as usize]).exp();
            sums[s as usize] += data[i];
        }
        for (i, &s) in seg.iter().enumerate() {
            data[i] /= sums[s as usize];
        }
        self.pool().f32s.push(maxes);
        self.pool().f32s.push(sums);
        self.record(v, Op::SegmentSoftmax(a, owned_seg))
    }

    /// Row-broadcast product: `out[r][c] = a[r][c] * w[r][0]`, where `w`
    /// is a column with one weight per row of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not `a.rows × 1`.
    fn mul_col(&mut self, a: Var, w: Var) -> Var {
        let mut v = self.pool().matrix();
        v.assign(self.value(a));
        let wv = self.value(w);
        assert_eq!(wv.cols, 1, "mul_col weights must be a column");
        assert_eq!(wv.rows, v.rows, "mul_col weight count mismatch");
        for (r, &k) in wv.data.iter().enumerate() {
            for x in v.row_mut(r) {
                *x *= k;
            }
        }
        self.record(v, Op::MulCol(a, w))
    }

    /// Multiplies row `i` by `weights[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != a.rows`.
    fn scale_rows(&mut self, a: Var, weights: &[f32]) -> Var {
        let owned_w = copy_f32(&mut self.pool().f32s, weights);
        let mut v = self.pool().matrix();
        v.assign(self.value(a));
        assert_eq!(weights.len(), v.rows, "scale_rows weight count mismatch");
        for (r, &w) in weights.iter().enumerate() {
            for x in v.row_mut(r) {
                *x *= w;
            }
        }
        self.record(v, Op::ScaleRows(a, owned_w))
    }
}

thread_local! {
    /// The arena [`Eval`]s on this thread draw from: taken by
    /// [`Eval::new`], refilled with every buffer when the `Eval` drops.
    static ARENA: RefCell<Pool> = RefCell::new(Pool::default());
}

#[derive(Debug)]
enum Slot<'a> {
    Borrowed(&'a Matrix),
    Owned(Matrix),
}

/// The tape-free inference executor.
///
/// Runs every [`Exec`] op with the same arithmetic as
/// [`Tape`](crate::Tape), but records nothing for backward: leaves and
/// parameters are borrowed for `'a`, and op outputs come from the calling
/// thread's arena. Dropping the
/// `Eval` returns every buffer to that arena, so a thread that serves
/// request after request stops allocating once the arena has grown to
/// its working size.
///
/// # Examples
///
/// ```
/// use pg_tensor::{Eval, Exec, Matrix};
/// let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
/// let w = Matrix::from_vec(2, 1, vec![0.5, -0.25]);
/// let mut ev = Eval::new();
/// let (xv, wv) = (ev.leaf(&x), ev.param(0, &w));
/// let y = ev.matmul(xv, wv);
/// assert_eq!(ev.value(y).data, vec![0.0]);
/// ```
#[derive(Debug)]
pub struct Eval<'a> {
    slots: Vec<Slot<'a>>,
    pool: Pool,
}

impl Eval<'_> {
    /// An executor drawing from this thread's arena.
    pub fn new() -> Self {
        Eval {
            slots: Vec::new(),
            pool: ARENA.with(|a| a.take()),
        }
    }
}

impl Default for Eval<'_> {
    fn default() -> Self {
        Eval::new()
    }
}

impl Drop for Eval<'_> {
    fn drop(&mut self) {
        let mut pool = std::mem::take(&mut self.pool);
        for slot in self.slots.drain(..) {
            if let Slot::Owned(m) = slot {
                pool.f32s.push(m.data);
            }
        }
        // During thread teardown the arena may already be gone; the
        // buffers are then simply freed.
        let _ = ARENA.try_with(|a| a.replace(pool));
    }
}

impl<'a> Exec<'a> for Eval<'a> {
    fn value(&self, v: Var) -> &Matrix {
        match &self.slots[v.0] {
            Slot::Borrowed(m) => m,
            Slot::Owned(m) => m,
        }
    }

    fn leaf(&mut self, m: &'a Matrix) -> Var {
        self.slots.push(Slot::Borrowed(m));
        Var(self.slots.len() - 1)
    }

    fn param(&mut self, _slot: usize, m: &'a Matrix) -> Var {
        self.leaf(m)
    }

    fn pool(&mut self) -> &mut Pool {
        &mut self.pool
    }

    fn record(&mut self, value: Matrix, op: Op) -> Var {
        self.pool.recycle(op);
        self.slots.push(Slot::Owned(value));
        Var(self.slots.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_dropout_aliases_its_input() {
        let x = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        let mut ev = Eval::new();
        let xv = ev.leaf(&x);
        assert_eq!(ev.dropout(xv, 0.5, false, &mut Rng64::new(0)), xv);
    }

    #[test]
    fn eval_arena_settles_across_calls() {
        let x = Matrix::from_vec(6, 4, (0..24).map(|i| (i % 5) as f32 - 2.0).collect());
        let w = Matrix::from_vec(4, 3, (0..12).map(|i| (i % 3) as f32 * 0.5).collect());
        let b = Matrix::from_vec(1, 3, vec![0.1, -0.2, 0.3]);
        let mut sizes = Vec::new();
        for _ in 0..6 {
            let mut ev = Eval::new();
            let (xv, wv, bv) = (ev.leaf(&x), ev.param(0, &w), ev.param(1, &b));
            let h = ev.linear_bias_relu(xv, wv, bv);
            let g = ev.gather(h, &[0, 2, 5, 5]);
            let m = ev.scatter_max(g, &[1, 0, 1, 1], 2);
            let s = ev.scatter_add(g, &[0, 0, 1, 1], 2);
            ev.add_n(vec![m, s]);
            drop(ev);
            sizes.push(ARENA.with(|a| {
                let p = a.borrow();
                (p.f32s.len(), p.u32s.len())
            }));
        }
        assert!(
            sizes.iter().all(|&s| s == sizes[0]),
            "arena grew: {sizes:?}"
        );
    }
}
