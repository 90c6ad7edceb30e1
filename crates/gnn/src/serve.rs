//! Batched, multi-core inference serving for trained ensembles.
//!
//! PowerGear's DSE loop (§IV-C) calls the power model once per candidate
//! design point; [`Ensemble::predict`] assembles one batch and walks every
//! member sequentially. [`predict_heads`] is the throughput layer on top,
//! and the one scheduler every batched caller shares: the DSE command
//! passes it one ensemble, `PowerGear` passes its total and dynamic power
//! heads together.
//!
//! The input graphs are cut into chunks of `batch_size`, and the **unit of
//! work is one (chunk, ensemble member) forward**, across every head
//! passed in. Workers pull tasks in chunk-major order from one atomic
//! cursor; the calling thread is one of them, and the other `threads − 1`
//! are persistent helpers from a process-wide pool, so a call spawns no
//! thread once the helpers exist. Each chunk's [`GraphBatch`] is
//! assembled once, by the first task that needs it, and read by every
//! member of every head. A single chunk — the serving daemon's usual
//! batch — therefore still spreads its member forwards over all `threads`
//! cores.
//!
//! Every task runs [`PowerModel::predict_batch`], the same tape-free
//! evaluator every other prediction uses, so there is one inference path.
//! Each head's members are then summed in member order and divided by the
//! member count, exactly as [`Ensemble::predict_batch`] does. Every
//! per-graph computation in the forward pass — row-wise matmuls,
//! per-destination scatter adds over a graph's own contiguous nodes and
//! edges, element-wise activations — is independent of which other graphs
//! share the batch, so the output is **bit-identical** to the sequential
//! path for any batch size and thread count (enforced by the workspace's
//! parity property test). Evaluator arenas are per thread, and every
//! worker keeps its own across calls: the calling thread, which serves
//! request after request, and the pool helpers, which park between calls.
//!
//! # Examples
//!
//! ```no_run
//! use pg_gnn::{predict_heads, ServeConfig};
//! # let ensemble = pg_gnn::Ensemble::default();
//! # let graphs: Vec<&pg_graphcon::PowerGraph> = vec![];
//! let [watts] = predict_heads([&ensemble], &graphs, &ServeConfig::new(16, 4));
//! ```

use crate::batch::GraphBatch;
use crate::model::PowerModel;
use crate::pool;
use crate::train::Ensemble;
use pg_graphcon::PowerGraph;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
// pg-lint: allow(wall_clock, reason = "import only; the single use site is the telemetry timer annotated below")
use std::time::Instant;

/// Batching/parallelism knobs for [`predict_heads`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Graphs grouped into one [`GraphBatch`] (tensor-op granularity).
    pub batch_size: usize,
    /// Worker threads, the calling thread included, that share the
    /// (chunk, member) forwards (1 = sequential).
    pub threads: usize,
}

impl ServeConfig {
    /// A configuration with explicit batch size and thread count.
    ///
    /// # Panics
    ///
    /// Panics if either knob is zero.
    pub fn new(batch_size: usize, threads: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(threads > 0, "thread count must be positive");
        ServeConfig {
            batch_size,
            threads,
        }
    }

    /// Single-threaded serving at the given batch size (the reference
    /// configuration the parity tests compare against).
    pub fn sequential(batch_size: usize) -> Self {
        ServeConfig::new(batch_size, 1)
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_size: 32,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Mean prediction of every head in `heads` for every graph, in input
/// order. `graphs` is cut into chunks of
/// `config.batch_size`, and each (chunk, member) forward is one task for
/// up to `config.threads` workers, the calling thread among them (see the
/// module docs). Each head's output is bit-identical to
/// [`Ensemble::predict`] on the same graphs.
///
/// # Panics
///
/// Panics if `graphs` is not empty and a head has no members (matching
/// [`Ensemble::predict`]), and re-raises a panic from any worker.
pub fn predict_heads<const H: usize>(
    heads: [&Ensemble; H],
    graphs: &[&PowerGraph],
    config: &ServeConfig,
) -> [Vec<f64>; H] {
    assert!(
        graphs.is_empty() || heads.iter().all(|h| !h.models.is_empty()),
        "empty ensemble"
    );
    // pg-lint: allow(wall_clock, reason = "serving telemetry (engine_batch_time_us); never feeds model math or artifacts")
    let t0 = Instant::now();
    let chunks: Vec<&[&PowerGraph]> = graphs.chunks(config.batch_size.max(1)).collect();
    // Every member of every head, head by head, in member order.
    let members: Vec<&PowerModel> = heads.iter().flat_map(|h| &h.models).collect();
    let tasks = chunks.len() * members.len();
    let batches: Vec<OnceLock<GraphBatch>> = chunks.iter().map(|_| OnceLock::new()).collect();
    let outputs: Vec<OnceLock<Vec<f64>>> = (0..tasks).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    let work = || loop {
        let task = cursor.fetch_add(1, Ordering::Relaxed);
        if task >= tasks {
            return;
        }
        let (c, m) = (task / members.len(), task % members.len());
        let batch =
            batches[c].get_or_init(|| GraphBatch::new(chunks[c], &vec![0.0; chunks[c].len()]));
        outputs[task].get_or_init(|| members[m].predict_batch(batch));
    };
    let workers = config.threads.max(1).min(tasks);
    // Returns once every helper that joined has left, re-raising a
    // helper's panic.
    pool::run(workers.saturating_sub(1), &work);

    // Per head and chunk: sum the members in member order, then divide —
    // the reduction `Ensemble::predict_batch` performs.
    let mut first_member = 0;
    let preds = heads.map(|head| {
        let n = head.models.len();
        let mut out = Vec::with_capacity(graphs.len());
        for (c, chunk) in chunks.iter().enumerate() {
            let mut acc = vec![0.0f64; chunk.len()];
            for m in first_member..first_member + n {
                let slot = &outputs[c * members.len() + m];
                // pg-lint: allow(panic_path, reason = "every task below `tasks` is claimed by exactly one worker and `pool::run` returned only after every worker left, so every slot is set")
                let member = slot.get().expect("every task ran");
                for (a, p) in acc.iter_mut().zip(member) {
                    *a += p;
                }
            }
            // pg-lint: allow(float_cast, reason = "exact member count; the reduction runs on the calling thread after every worker joined, in fixed member order")
            let count = n as f64;
            out.extend(acc.into_iter().map(|a| a / count));
        }
        first_member += n;
        out
    });

    if !graphs.is_empty() {
        pg_util::metrics::counter("engine_batches_total").add(chunks.len() as u64);
        pg_util::metrics::counter("engine_graphs_total").add(graphs.len() as u64);
        pg_util::metrics::histogram(
            "engine_batch_time_us",
            pg_util::metrics::buckets::LATENCY_US,
        )
        .observe(t0.elapsed().as_micros() as u64);
    }
    preds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelConfig, PowerModel};
    use pg_graphcon::Relation;
    use pg_util::Rng64;

    fn graph(seed: u64) -> PowerGraph {
        let mut rng = Rng64::new(seed);
        let nodes = 4 + rng.below(5);
        let f = PowerGraph::NODE_FEATS;
        let mut node_feats = vec![0.0f32; nodes * f];
        for n in 0..nodes {
            node_feats[n * f + rng.below(5)] = 1.0;
            node_feats[n * f + 30 + rng.below(4)] = rng.f32();
        }
        let edges: Vec<(u32, u32)> = (1..nodes as u32).map(|d| (d - 1, d)).collect();
        let ne = edges.len();
        PowerGraph {
            kernel: "serve".into(),
            design_id: format!("s{seed}"),
            num_nodes: nodes,
            node_feats,
            edges,
            edge_feats: (0..ne)
                .map(|_| [rng.f32(), rng.f32(), rng.f32() * 0.4, rng.f32() * 0.4])
                .collect(),
            edge_rel: (0..ne)
                .map(|i| match i % 4 {
                    0 => Relation::AA,
                    1 => Relation::AN,
                    2 => Relation::NA,
                    _ => Relation::NN,
                })
                .collect(),
            meta: (0..10).map(|k| 0.05 * k as f32).collect(),
        }
    }

    fn ensemble(members: usize) -> Ensemble {
        Ensemble {
            models: (0..members)
                .map(|i| {
                    let mut m = PowerModel::new(ModelConfig::hec(12), 40 + i as u64);
                    m.target_scale = 0.4 + 0.1 * i as f32;
                    m
                })
                .collect(),
        }
    }

    #[test]
    fn matches_sequential_bitwise() {
        let graphs: Vec<PowerGraph> = (0..13).map(graph).collect();
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let ens = ensemble(3);
        let seq = ens.predict(&refs);
        // (13, 2), (13, 4) and (64, 3) are single-chunk inputs, whose
        // member forwards alone are spread over the workers.
        for (bs, threads) in [(1, 1), (3, 1), (4, 2), (13, 2), (13, 4), (2, 4), (64, 3)] {
            let [got] = predict_heads([&ens], &refs, &ServeConfig::new(bs, threads));
            let a: Vec<u64> = seq.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "diverged at batch_size={bs} threads={threads}");
        }
    }

    #[test]
    fn preserves_input_order() {
        let graphs: Vec<PowerGraph> = (0..9).map(graph).collect();
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let ens = ensemble(1);
        let [batched] = predict_heads([&ens], &refs, &ServeConfig::new(2, 3));
        for (i, r) in refs.iter().enumerate() {
            let single = ens.predict(&[*r]);
            assert_eq!(single[0].to_bits(), batched[i].to_bits(), "graph {i}");
        }
    }

    #[test]
    fn empty_input_serves_nothing() {
        let ens = ensemble(1);
        let [a, b] = predict_heads([&ens, &ens], &[], &ServeConfig::default());
        assert!(a.is_empty());
        assert!(b.is_empty());
    }

    #[test]
    fn metrics_count_batches_and_graphs() {
        let graphs: Vec<PowerGraph> = (0..10).map(graph).collect();
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let ens = ensemble(2);
        let batches = pg_util::metrics::counter("engine_batches_total");
        let served = pg_util::metrics::counter("engine_graphs_total");
        let (b0, g0) = (batches.value(), served.value());
        let [preds] = predict_heads([&ens], &refs, &ServeConfig::new(3, 16));
        assert_eq!(preds.len(), 10);
        // The registry is process-global and other tests serve
        // concurrently, so each counter rose by at least this call's
        // share: ceil(10 / 3) batches and 10 graphs.
        assert!(batches.value() - b0 >= 4, "engine_batches_total");
        assert!(served.value() - g0 >= 10, "engine_graphs_total");
    }

    #[test]
    #[should_panic(expected = "empty ensemble")]
    fn empty_ensemble_panics() {
        let g = graph(1);
        predict_heads([&Ensemble::default()], &[&g], &ServeConfig::default());
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_rejected() {
        ServeConfig::new(0, 1);
    }
}
