//! Minimal tensor + reverse-mode autodiff substrate.
//!
//! The paper builds HEC-GNN and the baseline GNNs on PyTorch Geometric;
//! with no mature Rust equivalent (reproduction band: heavy porting
//! effort), this crate provides the exact numerical machinery those models
//! need and nothing more:
//!
//! * [`Matrix`] — dense row-major `f32` matrices with register-tiled,
//!   autovectorizable matmul kernels (plain, `·ᵀ`, `ᵀ·`) that sum in a
//!   fixed k-ascending order — results are bit-identical across runs,
//!   call sites and thread counts (contract in the [`matrix`] module
//!   docs);
//! * [`Exec`] — the forward op set a model is written against, run by
//!   two executors: [`Tape`] records it for backward, [`Eval`] runs it
//!   with no recording on borrowed leaves and parameters (inference);
//! * [`Tape`] — reverse-mode autodiff over matmul / bias / ReLU / dropout /
//!   concat / sum-pool / **gather & scatter-add rows** (the message-passing
//!   primitives) / row scaling, plus fused `linear_bias_relu` /
//!   `add_row_relu` nodes for the convolution hot path, with MAPE and MSE
//!   losses. [`Tape::reset`] recycles node, value and gradient buffers
//!   into arenas, so steady-state training loops allocate nothing per
//!   step (and [`Eval`] does the same for serving);
//! * [`Adam`], [`ParamStore`], [`GradAccum`] — optimization and
//!   sample-weighted data-parallel gradient accumulation (shard merges
//!   weight each shard by its sample count, so uneven shards average
//!   correctly);
//! * [`init`] — Glorot initialization.
//!
//! Every op's gradient is verified against central finite differences in
//! the test suite, and each fused op against its unfused chain bit for
//! bit.
//!
//! # Examples
//!
//! ```
//! use pg_tensor::{init, Adam, Exec, Matrix, ParamStore, Tape};
//! use pg_util::Rng64;
//!
//! let mut rng = Rng64::new(0);
//! let mut store = ParamStore::new();
//! let w = store.register("w", init::glorot(2, 1, &mut rng));
//! let mut opt = Adam::new(0.05);
//! for _ in 0..200 {
//!     let mut tape = Tape::new();
//!     let x = tape.leaf(&Matrix::from_vec(4, 2, vec![1., 0., 0., 1., 1., 1., 0.5, 0.5]));
//!     let wv = tape.param(w, store.get(w));
//!     let y = tape.matmul(x, wv);
//!     let loss = tape.mse_loss(y, &[1.0, 2.0, 3.0, 1.5]);
//!     let grads = tape.backward(loss);
//!     opt.step(&mut store, &grads);
//! }
//! assert!(store.get(w).is_finite());
//! ```

mod exec;
pub mod init;
pub mod matrix;
pub mod optim;
pub mod tape;

pub use exec::{Eval, Exec, Var};
pub use matrix::Matrix;
pub use optim::{Adam, GradAccum, ParamStore};
pub use tape::Tape;
