//! HEC-GNN and baseline GNN models for HLS power estimation (§III-B).
//!
//! Implements the paper's heterogeneous edge-centric GNN:
//!
//! * **Eq. 4/5** — node update `h_v = ReLU(W_V h_v + Σ_r Σ_u W_r W_E
//!   e_{u,v,r})`, aggregating *edge* features per relation type, fitting the
//!   dynamic-power formula (activity × capacitance weights);
//! * **Eq. 6** — jumping-knowledge sum pooling over all conv layers;
//! * **Eq. 7** — metadata MLP (HLS-report globals) concatenated with the
//!   graph embedding, feeding a two-layer regression head;
//! * MAPE training loss, Adam, mini-batches, and the 10-fold × 3-seed
//!   prediction-averaging ensemble;
//! * baselines GCN, GraphSAGE, GraphConv and GINE on the same outer
//!   architecture (Table I), and the ablation variants of Table II;
//! * a batched, multi-core serving layer ([`predict_heads`]) whose output
//!   is bit-identical to the sequential prediction path.
//!
//! # Examples
//!
//! ```no_run
//! use pg_gnn::{train_ensemble, ModelConfig, TrainConfig};
//! # let samples: Vec<(pg_graphcon::PowerGraph, f64)> = vec![];
//! let data: Vec<(&pg_graphcon::PowerGraph, f64)> =
//!     samples.iter().map(|(g, t)| (g, *t)).collect();
//! let cfg = TrainConfig::quick(ModelConfig::hec(32));
//! let ensemble = train_ensemble(&data, &cfg);
//! let err = ensemble.evaluate(&data);
//! println!("MAPE = {err:.2}%");
//! ```

pub mod ablation;
pub mod admission;
pub mod batch;
pub mod model;
mod pool;
pub mod serve;
pub mod train;

pub use ablation::{table2_variants, zoo_variants, Variant};
pub use admission::AdmissionQueue;
pub use batch::{GraphBatch, RelEdges};
pub use model::{Arch, ModelConfig, Pool, PowerModel};
pub use serve::{predict_heads, ServeConfig};
pub use train::{
    evaluate_model, train_ensemble, train_ensemble_with, train_single, Ensemble, LabelNorm,
    MemberTrained, TrainConfig,
};
