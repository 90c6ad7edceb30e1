//! Property test for the serving layer: [`predict_heads`] output must be
//! **bit-identical** to the sequential prediction path for arbitrary batch
//! sizes and thread counts (including 1), both against one full-slice
//! `Ensemble::predict` call and against per-graph calls — and so must
//! `PowerGear::estimate_graphs_with`, which runs both heads through the
//! same scheduler.

use proptest::prelude::*;

use powergear_repro::gnn::{predict_heads, Ensemble, ModelConfig, PowerModel, ServeConfig};
use powergear_repro::graphcon::{PowerGraph, Relation};
use powergear_repro::powergear::PowerGear;
use powergear_repro::util::Rng64;

/// A deterministic random valid graph (10-wide metadata, mixed relations).
fn synth_graph(seed: u64) -> PowerGraph {
    let mut rng = Rng64::new(seed.wrapping_mul(0x9E37_79B9) ^ 0x5eed);
    let nodes = 3 + rng.below(7);
    let f = PowerGraph::NODE_FEATS;
    let mut node_feats = vec![0.0f32; nodes * f];
    for n in 0..nodes {
        node_feats[n * f + rng.below(5)] = 1.0;
        node_feats[n * f + 28 + rng.below(6)] = rng.f32();
    }
    let mut edges = Vec::new();
    let mut edge_feats = Vec::new();
    let mut edge_rel = Vec::new();
    for d in 1..nodes as u32 {
        edges.push((rng.below(d as usize) as u32, d));
        edge_feats.push([rng.f32(), rng.f32(), rng.f32() * 0.5, rng.f32() * 0.5]);
        edge_rel.push(match rng.below(4) {
            0 => Relation::AA,
            1 => Relation::AN,
            2 => Relation::NA,
            _ => Relation::NN,
        });
    }
    PowerGraph {
        kernel: "parity".into(),
        design_id: format!("p{seed}"),
        num_nodes: nodes,
        node_feats,
        edges,
        edge_feats,
        edge_rel,
        meta: (0..10).map(|_| rng.f32()).collect(),
    }
}

fn synth_ensemble(members: usize, seed: u64) -> Ensemble {
    Ensemble {
        models: (0..members)
            .map(|i| {
                let mut m = PowerModel::new(ModelConfig::hec(12), seed.wrapping_add(i as u64));
                m.target_scale = 0.2 + 0.15 * i as f32;
                m
            })
            .collect(),
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine output == sequential full-slice output == per-graph output,
    /// bit for bit, for any (graph count, batch size, thread count).
    #[test]
    fn engine_is_bit_identical_to_sequential(
        n_graphs in 1usize..18,
        batch_size in 1usize..24,
        threads in 1usize..5,
        members in 1usize..4,
        seed in 0u64..500,
    ) {
        let graphs: Vec<PowerGraph> =
            (0..n_graphs).map(|i| synth_graph(seed * 100 + i as u64)).collect();
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let ensemble = synth_ensemble(members, seed);

        let sequential = ensemble.predict(&refs);
        prop_assert_eq!(sequential.len(), n_graphs);

        let [batched] =
            predict_heads([&ensemble], &refs, &ServeConfig::new(batch_size, threads));
        prop_assert_eq!(
            bits(&sequential),
            bits(&batched),
            "full-slice divergence at n={} bs={} t={}", n_graphs, batch_size, threads
        );

        let per_graph: Vec<f64> = refs.iter().map(|g| ensemble.predict(&[*g])[0]).collect();
        prop_assert_eq!(
            bits(&per_graph),
            bits(&batched),
            "per-graph divergence at n={} bs={} t={}", n_graphs, batch_size, threads
        );

        // One chunk holding every graph: only the member forwards are
        // left to spread over the workers.
        for single_chunk_threads in [2, 4] {
            let config = ServeConfig::new(n_graphs, single_chunk_threads);
            let [one_chunk] = predict_heads([&ensemble], &refs, &config);
            prop_assert_eq!(
                bits(&sequential),
                bits(&one_chunk),
                "single-chunk divergence at n={} t={}", n_graphs, single_chunk_threads
            );
        }
    }

    /// Serving twice with different configurations is self-consistent:
    /// the engine is a pure function of its inputs.
    #[test]
    fn engine_is_deterministic_across_configs(
        n_graphs in 1usize..12,
        seed in 0u64..200,
    ) {
        let graphs: Vec<PowerGraph> =
            (0..n_graphs).map(|i| synth_graph(seed * 31 + i as u64)).collect();
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let ensemble = synth_ensemble(2, seed);
        let [a] = predict_heads([&ensemble], &refs, &ServeConfig::new(1, 4));
        let [b] = predict_heads([&ensemble], &refs, &ServeConfig::new(64, 1));
        prop_assert_eq!(bits(&a), bits(&b));
    }
}

/// Both heads through one scheduler pass equal each head's own
/// `Ensemble::predict`, bit for bit, at every thread count and for batch
/// sizes from one graph per chunk to one chunk for everything.
#[test]
fn estimate_graphs_with_matches_per_head_predict() {
    let graphs: Vec<PowerGraph> = (0..40).map(|i| synth_graph(7_000 + i)).collect();
    let refs: Vec<&PowerGraph> = graphs.iter().collect();
    let gear = PowerGear {
        total_model: synth_ensemble(3, 11),
        dynamic_model: synth_ensemble(2, 29),
    };
    let total = bits(&gear.total_model.predict(&refs));
    let dynamic = bits(&gear.dynamic_model.predict(&refs));
    for threads in [1, 2, 4] {
        for batch_size in [1, 7, 32, 64] {
            let preds = gear.estimate_graphs_with(&refs, &ServeConfig::new(batch_size, threads));
            let (t, d): (Vec<f64>, Vec<f64>) = preds.into_iter().unzip();
            assert_eq!(bits(&t), total, "total at t={threads} bs={batch_size}");
            assert_eq!(bits(&d), dynamic, "dynamic at t={threads} bs={batch_size}");
        }
    }
}

/// Four callers share the process-wide inference helpers at once; each
/// still gets `Ensemble::predict`'s answer, bit for bit.
#[test]
fn concurrent_predict_heads_match_predict() {
    let graphs: Vec<PowerGraph> = (0..24).map(|i| synth_graph(9_000 + i)).collect();
    let refs: Vec<&PowerGraph> = graphs.iter().collect();
    let ensembles: Vec<Ensemble> = (0..4)
        .map(|c| synth_ensemble(2 + c, 50 + c as u64))
        .collect();
    let start = std::sync::Barrier::new(ensembles.len());
    std::thread::scope(|s| {
        for (c, ensemble) in ensembles.iter().enumerate() {
            let (refs, start) = (&refs, &start);
            s.spawn(move || {
                let expected = bits(&ensemble.predict(refs));
                start.wait();
                for batch_size in [1, 5, 24] {
                    let config = ServeConfig::new(batch_size, 2 + c % 3);
                    let [got] = predict_heads([ensemble], refs, &config);
                    assert_eq!(bits(&got), expected, "caller {c} bs={batch_size}");
                }
            });
        }
    });
}
