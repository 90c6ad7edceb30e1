//! GNN models for power regression.
//!
//! [`PowerModel`] implements the paper's HEC-GNN (Eq. 4–7) and the four
//! baseline convolutions it is compared against (GCN, GraphSAGE, GraphConv,
//! GINE), sharing the outer architecture: `layers` graph convolutions,
//! jumping-knowledge sum pooling over *all* layer outputs (Eq. 6), an
//! optional metadata MLP (HLS-report globals), and a two-layer regression
//! head (Eq. 7). Ablation switches (edge features / directionality /
//! heterogeneity / metadata) reproduce the variants of Table II.
//!
//! The HEC-GNN aggregation exploits linearity: `Σ_u W_r W_E e_{u,v,r}` is
//! computed as `W_r · W_E · Σ_u e_{u,v,r}`, which is mathematically
//! identical to Eq. 5 and far cheaper. The edge-feature sums are built
//! once per batch and *compacted*: [`GraphBatch::new`] keeps, for every
//! relation group, only the `R_r` destination rows that receive an edge
//! ([`RelEdges::rows`], ascending) and their sums
//! ([`RelEdges::row_sums`], `R_r × 4`). A layer projects those rows —
//! `R_r×4 · W_E · W_r` — and scatters the result to the `N` node rows,
//! so the `h × h` relation matmuls and their backward run on `R_r` rows
//! (typically 20–40% of `N`) instead of all of them.
//!
//! Compaction is bit-identical to scatter-adding all `N` rows first.
//! Each row sum adds the same edges in the same order, from `0.0`, as
//! `Exec::scatter_add` would. Matmul rows are independent, so a kept row
//! projects to the same bits either way. The dropped rows are all zero;
//! their dense projection is `+0.0` (an accumulator that starts at
//! `+0.0` never becomes `-0.0`), which is exactly what the final
//! scatter writes there, and no kept entry is `-0.0`, so `0.0 + x`
//! leaves it unchanged. In backward, with finite gradients, the zero rows
//! of `matmul_tn`'s left operand add `±0.0` products, which leave every
//! sum unchanged, so the `W_E` and `W_r` gradients sum the same nonzero
//! terms in the same ascending row order. `tests/properties.rs` checks the forward value
//! and every parameter gradient bit for bit against the dense composition.

use crate::batch::{GraphBatch, RelEdges};
use pg_graphcon::{PowerGraph, Relation};
use pg_tensor::{init, Eval, Exec, Matrix, ParamStore, Tape, Var};
use pg_util::Rng64;

/// Convolution architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// The paper's heterogeneous edge-centric convolution (Eq. 4–5).
    Hec,
    /// Kipf & Welling GCN (baseline \[13\]).
    Gcn,
    /// GraphSAGE with mean aggregation (baseline \[14\]).
    Sage,
    /// Morris et al. GraphConv with edge weights (baseline \[16\]).
    GraphConv,
    /// GINE with edge-feature injection (baseline \[15\]).
    Gine,
}

/// Graph readout (pooling) mode for the jumping-knowledge stage (Eq. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// Sum pooling — the paper's readout.
    Add,
    /// Mean pooling (sum scaled by 1/|V_g| per graph).
    Mean,
    /// Elementwise max pooling (gradient routes to the argmax node).
    Max,
}

impl Pool {
    /// All pooling modes, in a fixed sweep order.
    pub const ALL: [Pool; 3] = [Pool::Add, Pool::Mean, Pool::Max];

    /// CLI/sweep name.
    pub fn name(self) -> &'static str {
        match self {
            Pool::Add => "add",
            Pool::Mean => "mean",
            Pool::Max => "max",
        }
    }

    /// Parses a CLI/sweep name.
    pub fn parse(s: &str) -> Option<Pool> {
        match s {
            "add" | "sum" => Some(Pool::Add),
            "mean" => Some(Pool::Mean),
            "max" => Some(Pool::Max),
            _ => None,
        }
    }
}

/// Model hyperparameters and ablation switches.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Convolution type.
    pub arch: Arch,
    /// Hidden dimension (paper: 128; scaled defaults are smaller).
    pub hidden: usize,
    /// Number of convolution layers (paper: 3).
    pub layers: usize,
    /// Graph readout mode (paper: sum).
    pub pool: Pool,
    /// Attention heads for the HEC edge aggregation; `0` disables
    /// attention (the paper's unweighted scatter-sum). When nonzero,
    /// `hidden` must be divisible by `heads`.
    pub heads: usize,
    /// Dropout rate (paper: 0.2).
    pub dropout: f32,
    /// Use edge features in aggregation (HEC `w/o e.f.` ablation).
    pub use_edge_feats: bool,
    /// Respect edge direction (HEC `w/o dir.` ablation aggregates both
    /// ways).
    pub directed: bool,
    /// Separate weights per relation type (HEC `w/o hetr.` ablation).
    pub heterogeneous: bool,
    /// Use the metadata MLP (HEC `w/o md.` ablation).
    pub use_metadata: bool,
    /// Node feature width.
    pub node_dim: usize,
    /// Metadata feature width.
    pub meta_dim: usize,
}

impl ModelConfig {
    /// The full HEC-GNN configuration of the paper, at the given hidden
    /// width.
    pub fn hec(hidden: usize) -> Self {
        ModelConfig {
            arch: Arch::Hec,
            hidden,
            layers: 3,
            pool: Pool::Add,
            heads: 0,
            dropout: 0.2,
            use_edge_feats: true,
            directed: true,
            heterogeneous: true,
            use_metadata: true,
            node_dim: PowerGraph::NODE_FEATS,
            meta_dim: 10,
        }
    }

    /// A baseline GNN configuration (node-centric; no metadata branch, as
    /// the baselines in Table I).
    pub fn baseline(arch: Arch, hidden: usize) -> Self {
        ModelConfig {
            arch,
            hidden,
            layers: 3,
            pool: Pool::Add,
            heads: 0,
            dropout: 0.2,
            use_edge_feats: matches!(arch, Arch::GraphConv | Arch::Gine),
            directed: true,
            heterogeneous: false,
            use_metadata: false,
            node_dim: PowerGraph::NODE_FEATS,
            meta_dim: 10,
        }
    }

    /// Returns the config with a different readout mode.
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Returns the config with a different convolution depth.
    pub fn with_layers(mut self, layers: usize) -> Self {
        self.layers = layers;
        self
    }

    /// Returns the config with multi-head edge attention enabled (HEC
    /// only; `0` disables it).
    pub fn with_heads(mut self, heads: usize) -> Self {
        self.heads = heads;
        self
    }

    /// Short zoo identifier, e.g. `hec-p_add-l3-h0`, used in sweep tables.
    pub fn zoo_name(&self) -> String {
        let arch = match self.arch {
            Arch::Hec => "hec",
            Arch::Gcn => "gcn",
            Arch::Sage => "sage",
            Arch::GraphConv => "graphconv",
            Arch::Gine => "gine",
        };
        format!(
            "{arch}-p_{}-l{}-h{}",
            self.pool.name(),
            self.layers,
            self.heads
        )
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
struct Slots {
    wv: Vec<usize>,
    we: Vec<usize>,
    /// Per-layer, per-head attention score vectors (HEC, `heads > 0`).
    wa: Vec<Vec<usize>>,
    /// Per-layer, per-head edge projections (HEC, `heads > 0`).
    weh: Vec<Vec<usize>>,
    wr: Vec<Vec<usize>>,
    w2: Vec<usize>,
    w3: Vec<usize>,
    bias: Vec<usize>,
    meta_w: usize,
    meta_b: usize,
    head_w1: usize,
    head_b1: usize,
    head_w2: usize,
    head_b2: usize,
}

/// A trainable power-regression model.
///
/// The network regresses *normalized* labels: for a raw network output `z`
/// the absolute prediction is `z * target_scale + target_shift`. With
/// `target_shift == 0` this is the paper's mean-scaled MAPE regression; a
/// nonzero shift selects standardized (z-score) MSE regression, which keeps
/// small-epoch training well-conditioned for targets dominated by a large
/// constant offset (total power = dynamic + mostly-constant static).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Hyperparameters.
    pub config: ModelConfig,
    /// Parameters.
    pub store: ParamStore,
    slots: Slots,
    /// Output scale: the model regresses `(power - target_shift) /
    /// target_scale`.
    pub target_scale: f32,
    /// Output shift (0 for the paper's pure mean-scaled regression).
    pub target_shift: f32,
}

impl PowerModel {
    /// Creates a model with Glorot-initialized weights.
    pub fn new(config: ModelConfig, seed: u64) -> Self {
        let mut rng = Rng64::new(seed ^ 0x9e37_79b9);
        let mut store = ParamStore::new();
        let mut slots = Slots::default();
        let h = config.hidden;
        let attention = config.arch == Arch::Hec && config.heads > 0;
        if attention {
            assert!(
                h % config.heads == 0,
                "hidden ({h}) must be divisible by heads ({})",
                config.heads
            );
        }
        for l in 0..config.layers {
            let ind = if l == 0 { config.node_dim } else { h };
            slots
                .wv
                .push(store.register(&format!("wv{l}"), init::glorot(ind, h, &mut rng)));
            // Edge-message input width: raw activity features, or gathered
            // source embeddings when the edge-feature ablation is off.
            let edge_in = if config.use_edge_feats {
                PowerGraph::EDGE_FEATS
            } else {
                ind
            };
            let we_dims = match config.arch {
                Arch::Hec if attention => None, // per-head weh replaces we
                Arch::Hec => Some((edge_in, h)),
                Arch::Gine => Some((PowerGraph::EDGE_FEATS, ind)),
                _ => None,
            };
            if let Some((r, c)) = we_dims {
                slots
                    .we
                    .push(store.register(&format!("we{l}"), init::glorot(r, c, &mut rng)));
            } else {
                slots.we.push(usize::MAX);
            }
            if attention {
                let (mut wa, mut weh) = (Vec::new(), Vec::new());
                for k in 0..config.heads {
                    wa.push(
                        store.register(&format!("wa{l}_{k}"), init::glorot(edge_in, 1, &mut rng)),
                    );
                    weh.push(store.register(
                        &format!("weh{l}_{k}"),
                        init::glorot(edge_in, h / config.heads, &mut rng),
                    ));
                }
                slots.wa.push(wa);
                slots.weh.push(weh);
            } else {
                slots.wa.push(Vec::new());
                slots.weh.push(Vec::new());
            }
            if config.arch == Arch::Hec && config.heterogeneous {
                let mut per_rel = Vec::new();
                for r in 0..Relation::COUNT {
                    per_rel
                        .push(store.register(&format!("wr{l}_{r}"), init::glorot(h, h, &mut rng)));
                }
                slots.wr.push(per_rel);
            } else {
                slots.wr.push(Vec::new());
            }
            if matches!(config.arch, Arch::Sage | Arch::GraphConv) {
                slots
                    .w2
                    .push(store.register(&format!("w2_{l}"), init::glorot(ind, h, &mut rng)));
            } else {
                slots.w2.push(usize::MAX);
            }
            if config.arch == Arch::Gine {
                slots
                    .w3
                    .push(store.register(&format!("w3_{l}"), init::glorot(h, h, &mut rng)));
            } else {
                slots.w3.push(usize::MAX);
            }
            slots
                .bias
                .push(store.register(&format!("b{l}"), init::zeros(1, h)));
        }
        slots.meta_w = store.register("meta_w", init::glorot(config.meta_dim, h, &mut rng));
        slots.meta_b = store.register("meta_b", init::zeros(1, h));
        let head_in = if config.use_metadata { 2 * h } else { h };
        slots.head_w1 = store.register("head_w1", init::glorot(head_in, h, &mut rng));
        slots.head_b1 = store.register("head_b1", init::zeros(1, h));
        slots.head_w2 = store.register("head_w2", init::glorot(h, 1, &mut rng));
        slots.head_b2 = store.register("head_b2", init::constant(1, 1, 1.0));
        PowerModel {
            config,
            store,
            slots,
            target_scale: 1.0,
            target_shift: 0.0,
        }
    }

    fn p<'a, E: Exec<'a>>(&'a self, ex: &mut E, slot: usize) -> Var {
        ex.param(slot, self.store.get(slot))
    }

    /// Forward pass over a batch on any executor — a [`Tape`] to train, an
    /// [`Eval`] to predict; returns the `G × 1` normalized-power
    /// prediction node.
    pub fn forward<'a, E: Exec<'a>>(
        &'a self,
        ex: &mut E,
        batch: &'a GraphBatch,
        train: bool,
        rng: &mut Rng64,
    ) -> Var {
        let n = batch.num_nodes;
        let mut x = ex.leaf(&batch.node_feats);
        let mut layer_outputs = Vec::with_capacity(self.config.layers);
        for l in 0..self.config.layers {
            let h = match self.config.arch {
                Arch::Hec => self.hec_layer(ex, batch, x, l, n),
                Arch::Gcn => self.gcn_layer(ex, batch, x, l, n),
                Arch::Sage => self.sage_layer(ex, batch, x, l, n),
                Arch::GraphConv => self.graphconv_layer(ex, batch, x, l, n),
                Arch::Gine => self.gine_layer(ex, batch, x, l, n),
            };
            let h = ex.dropout(h, self.config.dropout, train, rng);
            layer_outputs.push(h);
            x = h;
        }
        // Eq. 6: jumping-knowledge pooling over all conv layers (the
        // paper uses sum; mean and max are zoo variants).
        let inv_counts: Vec<f32> = if self.config.pool == Pool::Mean {
            let mut counts = vec![0.0f32; batch.num_graphs];
            for &g in &batch.graph_of {
                counts[g as usize] += 1.0;
            }
            counts.iter().map(|&c| 1.0 / c.max(1.0)).collect()
        } else {
            Vec::new()
        };
        let pooled: Vec<Var> = layer_outputs
            .into_iter()
            .map(|h| match self.config.pool {
                Pool::Add => ex.scatter_add(h, &batch.graph_of, batch.num_graphs),
                Pool::Mean => {
                    let s = ex.scatter_add(h, &batch.graph_of, batch.num_graphs);
                    ex.scale_rows(s, &inv_counts)
                }
                Pool::Max => ex.scatter_max(h, &batch.graph_of, batch.num_graphs),
            })
            .collect();
        let hg = ex.add_n(pooled);
        // Eq. 7: optional metadata embedding, then the regression head.
        let joint = if self.config.use_metadata {
            assert_eq!(
                batch.meta.cols, self.config.meta_dim,
                "metadata width mismatch: batch has {}, model expects {}",
                batch.meta.cols, self.config.meta_dim
            );
            let meta = ex.leaf(&batch.meta);
            let mw = self.p(ex, self.slots.meta_w);
            let mb = self.p(ex, self.slots.meta_b);
            let hm = ex.linear_bias_relu(meta, mw, mb);
            ex.concat_cols(hg, hm)
        } else {
            hg
        };
        let w1 = self.p(ex, self.slots.head_w1);
        let b1 = self.p(ex, self.slots.head_b1);
        let z1r = ex.linear_bias_relu(joint, w1, b1);
        let w2 = self.p(ex, self.slots.head_w2);
        let b2 = self.p(ex, self.slots.head_b2);
        let out = ex.matmul(z1r, w2);
        ex.add_row(out, b2)
    }

    /// Relation groups the HEC layer aggregates over, honoring the
    /// heterogeneity and directionality switches.
    fn hec_groups<'a>(&self, batch: &'a GraphBatch) -> Vec<(usize, &'a RelEdges)> {
        let mut groups: Vec<(usize, &RelEdges)> = Vec::new();
        if self.config.heterogeneous {
            for (r, e) in batch.rel.iter().enumerate() {
                groups.push((r, e));
            }
            if !self.config.directed {
                for (r, e) in batch.rel_rev.iter().enumerate() {
                    groups.push((r, e));
                }
            }
        } else {
            groups.push((0, &batch.all));
            if !self.config.directed {
                groups.push((0, &batch.all_rev));
            }
        }
        groups
    }

    fn hec_layer<'a, E: Exec<'a>>(
        &'a self,
        ex: &mut E,
        batch: &'a GraphBatch,
        x: Var,
        l: usize,
        n: usize,
    ) -> Var {
        let wv = self.p(ex, self.slots.wv[l]);
        let mut terms = vec![ex.matmul(x, wv)];
        let we = if self.config.heads == 0 {
            Some(self.p(ex, self.slots.we[l]))
        } else {
            None // attention path projects per head instead
        };
        for (r, edges) in self.hec_groups(batch) {
            if edges.is_empty() {
                continue;
            }
            let msg = match we {
                Some(we) if self.config.use_edge_feats => {
                    // Linearity of Eq. 5 on the compacted rows: project the
                    // batch's precomputed Σ_u e_{u,v,r} (one row per
                    // destination that has in-edges), then scatter to N.
                    let sums = ex.leaf(&edges.row_sums);
                    let projected = ex.matmul(sums, we);
                    let msg = self.relation_proj(ex, projected, l, r);
                    ex.scatter_add(msg, &edges.rows, n)
                }
                Some(we) => {
                    let hs = ex.gather(x, &edges.src);
                    let summed = ex.scatter_add(hs, &edges.dst, n);
                    let agg = ex.matmul(summed, we);
                    self.relation_proj(ex, agg, l, r)
                }
                None => {
                    let agg = self.attention_agg(ex, x, edges, l, n);
                    self.relation_proj(ex, agg, l, r)
                }
            };
            terms.push(msg);
        }
        let s = ex.add_n(terms);
        let b = self.p(ex, self.slots.bias[l]);
        ex.add_row_relu(s, b)
    }

    /// Relation `r`'s `W_r` projection in layer `l` (identity when the
    /// heterogeneity ablation is off).
    fn relation_proj<'a, E: Exec<'a>>(&'a self, ex: &mut E, m: Var, l: usize, r: usize) -> Var {
        if self.config.heterogeneous {
            let wr = self.p(ex, self.slots.wr[l][r]);
            ex.matmul(m, wr)
        } else {
            m
        }
    }

    /// Multi-head attention-weighted edge aggregation for one relation
    /// group: per head, edge messages are softmax-weighted per destination
    /// node before the scatter-sum, and head outputs are concatenated back
    /// to the hidden width. Weighting breaks the linearity shortcut of
    /// Eq. 5, so messages are projected after the weighted sum per head.
    fn attention_agg<'a, E: Exec<'a>>(
        &'a self,
        ex: &mut E,
        x: Var,
        edges: &'a RelEdges,
        l: usize,
        n: usize,
    ) -> Var {
        let ein = if self.config.use_edge_feats {
            ex.leaf(&edges.feats)
        } else {
            ex.gather(x, &edges.src)
        };
        let mut acc: Option<Var> = None;
        for k in 0..self.config.heads {
            let wa = self.p(ex, self.slots.wa[l][k]);
            let score = ex.matmul(ein, wa);
            let alpha = ex.segment_softmax(score, &edges.dst, n);
            let weighted = ex.mul_col(ein, alpha);
            let summed = ex.scatter_add(weighted, &edges.dst, n);
            let weh = self.p(ex, self.slots.weh[l][k]);
            let head = ex.matmul(summed, weh);
            acc = Some(match acc {
                None => head,
                Some(prev) => ex.concat_cols(prev, head),
            });
        }
        acc.expect("heads > 0 on the attention path")
    }

    fn gcn_layer<'a, E: Exec<'a>>(
        &'a self,
        ex: &mut E,
        batch: &'a GraphBatch,
        x: Var,
        l: usize,
        n: usize,
    ) -> Var {
        let hs = ex.gather(x, &batch.gcn_src);
        let hw = ex.scale_rows(hs, &batch.gcn_coeff);
        let agg = ex.scatter_add(hw, &batch.gcn_dst, n);
        let wv = self.p(ex, self.slots.wv[l]);
        let b = self.p(ex, self.slots.bias[l]);
        ex.linear_bias_relu(agg, wv, b)
    }

    fn sage_layer<'a, E: Exec<'a>>(
        &'a self,
        ex: &mut E,
        batch: &'a GraphBatch,
        x: Var,
        l: usize,
        n: usize,
    ) -> Var {
        let inv_deg: Vec<f32> = batch.in_degree.iter().map(|&d| 1.0 / d.max(1.0)).collect();
        let hs = ex.gather(x, &batch.all.src);
        let agg = ex.scatter_add(hs, &batch.all.dst, n);
        let mean = ex.scale_rows(agg, &inv_deg);
        let wv = self.p(ex, self.slots.wv[l]);
        let w2 = self.p(ex, self.slots.w2[l]);
        let self_term = ex.matmul(x, wv);
        let neigh_term = ex.matmul(mean, w2);
        let s = ex.add(self_term, neigh_term);
        let b = self.p(ex, self.slots.bias[l]);
        ex.add_row_relu(s, b)
    }

    fn graphconv_layer<'a, E: Exec<'a>>(
        &'a self,
        ex: &mut E,
        batch: &'a GraphBatch,
        x: Var,
        l: usize,
        n: usize,
    ) -> Var {
        // Edge weight = mean of the 4 activity features (GraphConv consumes
        // scalar edge weights).
        let ew: Vec<f32> = (0..batch.all.len())
            .map(|e| batch.all.feats.row(e).iter().sum::<f32>() / 4.0)
            .collect();
        let hs = ex.gather(x, &batch.all.src);
        let hw = ex.scale_rows(hs, &ew);
        let agg = ex.scatter_add(hw, &batch.all.dst, n);
        let wv = self.p(ex, self.slots.wv[l]);
        let w2 = self.p(ex, self.slots.w2[l]);
        let self_term = ex.matmul(x, wv);
        let neigh_term = ex.matmul(agg, w2);
        let s = ex.add(self_term, neigh_term);
        let b = self.p(ex, self.slots.bias[l]);
        ex.add_row_relu(s, b)
    }

    fn gine_layer<'a, E: Exec<'a>>(
        &'a self,
        ex: &mut E,
        batch: &'a GraphBatch,
        x: Var,
        l: usize,
        n: usize,
    ) -> Var {
        let hs = ex.gather(x, &batch.all.src);
        let ef = ex.leaf(&batch.all.feats);
        let we = self.p(ex, self.slots.we[l]);
        let ep = ex.matmul(ef, we);
        let s = ex.add(hs, ep);
        let r = ex.relu(s);
        let agg = ex.scatter_add(r, &batch.all.dst, n);
        let tot = ex.add(x, agg); // ε = 0
        let wv = self.p(ex, self.slots.wv[l]);
        let b = self.p(ex, self.slots.bias[l]);
        let m1r = ex.linear_bias_relu(tot, wv, b);
        let w3 = self.p(ex, self.slots.w3[l]);
        ex.matmul(m1r, w3)
    }

    /// One training step's loss and gradients for a batch.
    ///
    /// With `target_shift == 0` this is the paper's MAPE loss on
    /// mean-scaled labels; with a shift the labels are standardized and can
    /// straddle zero, so the loss switches to MSE (MAPE is undefined there).
    pub fn loss_and_grads(
        &self,
        batch: &GraphBatch,
        rng: &mut Rng64,
    ) -> (f64, Vec<Option<Matrix>>) {
        let mut tape = Tape::new();
        self.loss_and_grads_in(batch, rng, &mut tape)
    }

    /// [`PowerModel::loss_and_grads`] recording onto a caller-owned tape.
    ///
    /// The tape is [`Tape::reset`] first, so a training loop can hold one
    /// long-lived tape per worker and reuse its arenas every step instead
    /// of reallocating the whole graph.
    pub fn loss_and_grads_in(
        &self,
        batch: &GraphBatch,
        rng: &mut Rng64,
        tape: &mut Tape,
    ) -> (f64, Vec<Option<Matrix>>) {
        tape.reset();
        let pred = self.forward(tape, batch, true, rng);
        let scaled: Vec<f32> = batch
            .targets
            .iter()
            .map(|&t| (t - self.target_shift) / self.target_scale)
            .collect();
        let loss = if self.target_shift == 0.0 {
            tape.mape_loss(pred, &scaled)
        } else {
            tape.mse_loss(pred, &scaled)
        };
        let value = tape.value(loss).data[0] as f64;
        (value, tape.backward(loss))
    }

    /// Predicts absolute power for a set of graphs (eval mode).
    pub fn predict(&self, graphs: &[&PowerGraph]) -> Vec<f64> {
        let targets = vec![0.0; graphs.len()];
        self.predict_batch(&GraphBatch::new(graphs, &targets))
    }

    /// Predicts absolute power on an assembled batch. This is the one
    /// inference path — ensembles, the serving engine and training's
    /// validation all land here — and it runs [`PowerModel::forward`] on
    /// a tape-free [`Eval`].
    ///
    /// Power is strictly positive, so finite outputs are floored at 1 mW.
    /// Non-finite outputs pass through unchanged, so a NaN can never pose
    /// as a plausible wattage, and each one is counted in
    /// `engine_nonfinite_predictions_total`.
    pub fn predict_batch(&self, batch: &GraphBatch) -> Vec<f64> {
        let mut ev = Eval::new();
        let pred = self.forward(&mut ev, batch, false, &mut Rng64::new(0));
        let watts: Vec<f64> = ev
            .value(pred)
            .data
            .iter()
            .map(|&v| {
                let w = (v * self.target_scale + self.target_shift) as f64;
                if w.is_finite() {
                    w.max(1e-3)
                } else {
                    w
                }
            })
            .collect();
        let nonfinite = watts.iter().filter(|w| !w.is_finite()).count();
        if nonfinite > 0 {
            pg_util::metrics::counter("engine_nonfinite_predictions_total").add(nonfinite as u64);
        }
        watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph(seed: u64) -> PowerGraph {
        let mut rng = Rng64::new(seed);
        let nodes = 5 + rng.below(4);
        let f = PowerGraph::NODE_FEATS;
        let mut node_feats = vec![0.0f32; nodes * f];
        for n in 0..nodes {
            node_feats[n * f + rng.below(5)] = 1.0;
            node_feats[n * f + 28 + rng.below(6)] = rng.f32();
        }
        let edges: Vec<(u32, u32)> = (1..nodes as u32).map(|d| (d - 1, d)).collect();
        let ne = edges.len();
        PowerGraph {
            kernel: "t".into(),
            design_id: format!("t{seed}"),
            num_nodes: nodes,
            node_feats,
            edges,
            edge_feats: (0..ne)
                .map(|_| [rng.f32(), rng.f32(), rng.f32() * 0.5, rng.f32() * 0.5])
                .collect(),
            edge_rel: (0..ne)
                .map(|i| match i % 4 {
                    0 => Relation::AA,
                    1 => Relation::AN,
                    2 => Relation::NA,
                    _ => Relation::NN,
                })
                .collect(),
            meta: (0..10).map(|k| 0.1 * k as f32).collect(),
        }
    }

    fn all_archs() -> Vec<ModelConfig> {
        vec![
            ModelConfig::hec(16),
            ModelConfig::baseline(Arch::Gcn, 16),
            ModelConfig::baseline(Arch::Sage, 16),
            ModelConfig::baseline(Arch::GraphConv, 16),
            ModelConfig::baseline(Arch::Gine, 16),
        ]
    }

    #[test]
    fn forward_shapes_for_every_arch() {
        let graphs: Vec<PowerGraph> = (0..3).map(tiny_graph).collect();
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let batch = GraphBatch::new(&refs, &[1.0, 2.0, 3.0]);
        for cfg in all_archs() {
            let model = PowerModel::new(cfg.clone(), 1);
            let mut tape = Tape::new();
            let mut rng = Rng64::new(0);
            let out = model.forward(&mut tape, &batch, false, &mut rng);
            let v = tape.value(out);
            assert_eq!((v.rows, v.cols), (3, 1), "arch {:?}", cfg.arch);
            assert!(v.is_finite(), "arch {:?}", cfg.arch);
        }
    }

    #[test]
    fn gradients_flow_to_all_used_params() {
        let graphs: Vec<PowerGraph> = (0..4).map(tiny_graph).collect();
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let batch = GraphBatch::new(&refs, &[1.0, 1.5, 0.5, 2.0]);
        let model = PowerModel::new(ModelConfig::hec(16), 2);
        let mut rng = Rng64::new(3);
        let (loss, grads) = model.loss_and_grads(&batch, &mut rng);
        assert!(loss.is_finite() && loss > 0.0);
        let with_grad = grads.iter().filter(|g| g.is_some()).count();
        // wv, we, 4 wr, bias per layer x3 + meta 2 + head 4
        assert!(
            with_grad >= 3 * 3 + 2 + 4,
            "only {with_grad} params received gradients"
        );
    }

    #[test]
    fn ablation_switches_change_param_count() {
        let full = PowerModel::new(ModelConfig::hec(16), 1);
        let mut no_het = ModelConfig::hec(16);
        no_het.heterogeneous = false;
        let nh = PowerModel::new(no_het, 1);
        assert!(full.store.len() > nh.store.len());
        let mut no_md = ModelConfig::hec(16);
        no_md.use_metadata = false;
        let nm = PowerModel::new(no_md, 1);
        // metadata params still registered but head shrinks
        assert!(nm.store.get(nm.slots.head_w1).rows < full.store.get(full.slots.head_w1).rows);
    }

    #[test]
    fn zoo_axes_forward_and_train() {
        let graphs: Vec<PowerGraph> = (0..3).map(tiny_graph).collect();
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let batch = GraphBatch::new(&refs, &[1.0, 2.0, 3.0]);
        let mut zoo = Vec::new();
        for pool in Pool::ALL {
            zoo.push(ModelConfig::hec(16).with_pool(pool));
        }
        for layers in [1, 2, 4] {
            zoo.push(ModelConfig::hec(16).with_layers(layers));
        }
        for heads in [1, 2, 4] {
            zoo.push(ModelConfig::hec(16).with_heads(heads));
        }
        zoo.push(
            ModelConfig::hec(16)
                .with_pool(Pool::Max)
                .with_layers(2)
                .with_heads(2),
        );
        zoo.push(ModelConfig::baseline(Arch::Gcn, 16).with_pool(Pool::Mean));
        for cfg in zoo {
            let name = cfg.zoo_name();
            let model = PowerModel::new(cfg, 7);
            let mut rng = Rng64::new(3);
            let mut tape = Tape::new();
            let out = model.forward(&mut tape, &batch, false, &mut rng);
            let v = tape.value(out);
            assert_eq!((v.rows, v.cols), (3, 1), "{name}");
            assert!(v.is_finite(), "{name}");
            let (loss, grads) = model.loss_and_grads(&batch, &mut rng);
            assert!(loss.is_finite(), "{name}");
            assert!(
                grads.iter().any(|g| g.is_some()),
                "{name}: no gradients flowed"
            );
        }
    }

    #[test]
    fn attention_gradients_reach_every_head() {
        let graphs: Vec<PowerGraph> = (0..4).map(tiny_graph).collect();
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let batch = GraphBatch::new(&refs, &[1.0, 1.5, 0.5, 2.0]);
        let cfg = ModelConfig::hec(16).with_heads(2);
        let model = PowerModel::new(cfg, 2);
        let mut rng = Rng64::new(3);
        let (_, grads) = model.loss_and_grads(&batch, &mut rng);
        for l in 0..model.config.layers {
            for k in 0..model.config.heads {
                assert!(
                    grads[model.slots.wa[l][k]].is_some(),
                    "no gradient for wa{l}_{k}"
                );
                assert!(
                    grads[model.slots.weh[l][k]].is_some(),
                    "no gradient for weh{l}_{k}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "divisible by heads")]
    fn heads_must_divide_hidden() {
        PowerModel::new(ModelConfig::hec(16).with_heads(3), 1);
    }

    #[test]
    fn zoo_names_are_distinct() {
        let configs = [
            ModelConfig::hec(16),
            ModelConfig::hec(16).with_pool(Pool::Mean),
            ModelConfig::hec(16).with_pool(Pool::Max),
            ModelConfig::hec(16).with_layers(2),
            ModelConfig::hec(16).with_heads(2),
            ModelConfig::baseline(Arch::Gcn, 16),
            ModelConfig::baseline(Arch::Sage, 16),
        ];
        let mut names: Vec<String> = configs.iter().map(|c| c.zoo_name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), configs.len(), "zoo names collide: {names:?}");
    }

    #[test]
    fn undirected_variant_runs() {
        let graphs: Vec<PowerGraph> = (0..2).map(tiny_graph).collect();
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let batch = GraphBatch::new(&refs, &[1.0, 2.0]);
        let mut cfg = ModelConfig::hec(16);
        cfg.directed = false;
        let model = PowerModel::new(cfg, 1);
        let mut tape = Tape::new();
        let mut rng = Rng64::new(0);
        let out = model.forward(&mut tape, &batch, false, &mut rng);
        assert!(tape.value(out).is_finite());
    }

    #[test]
    fn overfits_two_graphs() {
        // sanity: HEC-GNN can fit two targets exactly
        let graphs: Vec<PowerGraph> = (0..2).map(tiny_graph).collect();
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let batch = GraphBatch::new(&refs, &[0.5, 2.0]);
        let mut cfg = ModelConfig::hec(16);
        cfg.dropout = 0.0;
        let mut model = PowerModel::new(cfg, 4);
        model.target_scale = 1.0;
        let mut opt = pg_tensor::Adam::new(0.01);
        let mut rng = Rng64::new(5);
        let mut last = f64::MAX;
        for _ in 0..300 {
            let (loss, grads) = model.loss_and_grads(&batch, &mut rng);
            opt.step(&mut model.store, &grads);
            last = loss;
        }
        assert!(last < 0.05, "failed to overfit: loss {last}");
        let preds = model.predict(&refs);
        assert!((preds[0] - 0.5).abs() < 0.15, "pred {:?}", preds);
        assert!((preds[1] - 2.0).abs() < 0.3, "pred {:?}", preds);
    }

    #[test]
    fn nan_output_passes_through_and_is_counted() {
        let graphs: Vec<PowerGraph> = (0..3).map(tiny_graph).collect();
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let mut model = PowerModel::new(ModelConfig::hec(16), 1);
        let finite = model.predict(&refs);
        assert!(finite.iter().all(|w| w.is_finite() && *w >= 1e-3));
        let nonfinite = || {
            pg_util::metrics::snapshot()
                .counter_value("engine_nonfinite_predictions_total", &[])
                .unwrap_or(0)
        };
        let before = nonfinite();
        model.store.get_mut(model.slots.head_b2).data[0] = f32::NAN;
        let preds = model.predict(&refs);
        assert!(preds.iter().all(|w| w.is_nan()), "{preds:?}");
        assert!(nonfinite() >= before + 3);
    }

    #[test]
    fn predict_scales_output() {
        let graphs: Vec<PowerGraph> = (0..2).map(tiny_graph).collect();
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let mut model = PowerModel::new(ModelConfig::hec(16), 1);
        let p1 = model.predict(&refs);
        model.target_scale = 2.0;
        let p2 = model.predict(&refs);
        for (a, b) in p1.iter().zip(&p2) {
            // scaling holds wherever the positive-power floor is inactive
            if *a > 1e-3 && *b > 1e-3 {
                assert!((b - 2.0 * a).abs() < 1e-4);
            }
        }
    }
}
