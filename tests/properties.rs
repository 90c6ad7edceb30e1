//! Property-based tests over the core invariants of the reproduction.

use proptest::prelude::*;

use powergear_repro::activity::{activation_rate, execute, switching_activity, Stimuli};
use powergear_repro::dse::{adrs, dominates, pareto_frontier, run_dse, DseConfig, Point};
use powergear_repro::gnn::{
    table2_variants, zoo_variants, Arch, GraphBatch, ModelConfig, PowerModel, RelEdges,
};
use powergear_repro::graphcon::GraphFlow;
use powergear_repro::graphcon::{PowerGraph, Relation};
use powergear_repro::hls::{Directives, FuLibrary, HlsFlow};
use powergear_repro::ir::expr::{aff, Expr};
use powergear_repro::ir::{ArrayKind, Kernel, KernelBuilder, Opcode};
use powergear_repro::tensor::{Eval, Exec, GradAccum, Matrix, Tape, Var};
use powergear_repro::util::Rng64;

/// A small random-but-valid kernel family: `y[i] = y[i] + a[i]*x[i] ...`
/// with parameterized trip count and extra terms.
fn kernel_with(trip: usize, terms: usize) -> Kernel {
    KernelBuilder::new("prop")
        .array("a", &[trip], ArrayKind::Input)
        .array("x", &[trip], ArrayKind::Input)
        .array("y", &[trip], ArrayKind::Output)
        .loop_("i", trip, |b| {
            let mut e = Expr::load("y", vec![aff("i")]);
            for _ in 0..terms {
                e = e + Expr::load("a", vec![aff("i")]) * Expr::load("x", vec![aff("i")]);
            }
            b.assign(("y", vec![aff("i")]), e);
        })
        .build()
        .expect("well-formed")
}

fn arb_directives(trip: usize) -> impl Strategy<Value = Directives> {
    (any::<bool>(), 0usize..4, 0usize..4).prop_map(move |(pipe, unroll_pow, part_pow)| {
        let mut d = Directives::new();
        if pipe {
            d.pipeline("i");
        }
        let u = 1 << unroll_pow;
        if u > 1 && u <= trip {
            d.unroll("i", u);
        }
        let p = 1 << part_pow;
        if p > 1 {
            d.partition("a", p).partition("x", p).partition("y", p);
        }
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scheduling respects dataflow dependencies and never oversubscribes
    /// memory ports, for any directive combination.
    #[test]
    fn schedule_invariants(trip in prop::sample::select(vec![4usize, 8, 16]),
                           terms in 1usize..3,
                           d in arb_directives(16)) {
        let kernel = kernel_with(trip, terms);
        let d = {
            // clamp unroll to the actual trip
            let mut dd = Directives::new();
            if d.is_pipelined("i") { dd.pipeline("i"); }
            let u = d.unroll_factor("i").min(trip);
            if u > 1 { dd.unroll("i", u); }
            let p = d.partition_factor("a");
            if p > 1 { dd.partition("a", p).partition("x", p).partition("y", p); }
            dd
        };
        let lib = FuLibrary::default();
        let design = HlsFlow::new().run(&kernel, &d).unwrap();
        // dependencies
        for op in &design.ir.ops {
            let start = design.schedule.op_start(&design.ir, op.id);
            for u in op.value_operands() {
                let def = design.ir.op(u);
                if def.block == op.block {
                    let def_done = design.schedule.op_start(&design.ir, u) + lib.latency(def.opcode);
                    prop_assert!(start >= def_done);
                }
            }
        }
        // latency is positive and grows with trip count
        prop_assert!(design.report.latency_cycles as usize >= trip);
    }

    /// The interpreter computes the same final arrays no matter which
    /// directives are applied (hardware transformations preserve function).
    #[test]
    fn directives_preserve_semantics(d in arb_directives(8)) {
        let kernel = kernel_with(8, 1);
        let stim = Stimuli::for_kernel(&kernel, 3);
        let base = HlsFlow::new().run(&kernel, &Directives::new()).unwrap();
        let opt = HlsFlow::new().run(&kernel, &d).unwrap();
        let r0 = execute(&base, &stim);
        let r1 = execute(&opt, &stim);
        prop_assert_eq!(&r0.final_arrays["y"], &r1.final_arrays["y"]);
    }

    /// SA/AR relationships from Eq. 2/3: AR <= SA <= 32*AR for 32-bit
    /// sequences, both zero for constant sequences.
    #[test]
    fn sa_ar_bounds(values in prop::collection::vec(any::<u32>(), 2..40),
                    latency in 40u64..200) {
        let events: Vec<(u64, u32)> = values.iter().enumerate()
            .map(|(i, &v)| (i as u64, v)).collect();
        let sa = switching_activity(&events, latency);
        let ar = activation_rate(&events, latency);
        prop_assert!(sa >= ar - 1e-12, "SA {sa} < AR {ar}");
        prop_assert!(sa <= 32.0 * ar + 1e-12);
        prop_assert!(ar <= 1.0 + (values.len() as f64 / latency as f64));
    }

    /// The constructed graph is structurally valid for random directive
    /// settings, and trimmable opcodes never survive.
    #[test]
    fn graph_flow_invariants(d in arb_directives(8)) {
        let kernel = kernel_with(8, 2);
        let design = HlsFlow::new().run(&kernel, &d).unwrap();
        let trace = execute(&design, &Stimuli::for_kernel(&kernel, 0));
        let g = GraphFlow::new().build(&design, &trace);
        prop_assert!(g.validate().is_ok());
        // no trimmable opcode slot is hot in any node's one-hot block
        for n in 0..g.num_nodes {
            let f = g.node(n);
            for op in [Opcode::SExt, Opcode::ZExt, Opcode::Trunc, Opcode::Br] {
                prop_assert_eq!(f[5 + op.index()], 0.0);
            }
        }
    }

    /// Pareto frontier members are mutually non-dominating and cover all
    /// other points; ADRS(Γ, Γ) = 0.
    #[test]
    fn pareto_adrs_properties(raw in prop::collection::vec((1u32..1000, 1u32..1000), 3..60)) {
        let pts: Vec<Point> = raw.iter().enumerate()
            .map(|(i, &(l, p))| Point { id: i, latency: l as f64, power: p as f64 })
            .collect();
        let front = pareto_frontier(&pts);
        prop_assert!(!front.is_empty());
        for a in &front {
            for b in &front {
                if a.id != b.id {
                    prop_assert!(!dominates(a, b));
                }
            }
        }
        for p in &pts {
            let covered = front.iter().any(|f|
                dominates(f, p) || (f.latency == p.latency && f.power == p.power));
            prop_assert!(covered || front.iter().any(|f| f.id == p.id));
        }
        prop_assert!(adrs(&front, &front) < 1e-12);
    }

    /// DSE with the exact oracle as predictor and full budget always
    /// reaches ADRS 0; a partial budget never yields negative ADRS.
    #[test]
    fn dse_budget_properties(raw in prop::collection::vec((1u32..500, 1u32..500), 8..40),
                             seed in 0u64..50) {
        let lat: Vec<f64> = raw.iter().map(|&(l, _)| l as f64).collect();
        let pow: Vec<f64> = raw.iter().map(|&(_, p)| p as f64).collect();
        let full = run_dse(&lat, &pow, &pow, &DseConfig::with_budget(1.0, seed));
        prop_assert!(full.adrs < 1e-12);
        let part = run_dse(&lat, &pow, &pow, &DseConfig::with_budget(0.3, seed));
        prop_assert!(part.adrs >= 0.0);
        prop_assert!(part.sampled.len() <= full.sampled.len());
    }

    /// Autograd matches finite differences for a random two-layer network.
    #[test]
    fn autograd_matches_finite_difference(
        w_vals in prop::collection::vec(-0.9f32..0.9, 6),
        x_vals in prop::collection::vec(-1.0f32..1.0, 6)
    ) {
        let w = Matrix::from_vec(3, 2, w_vals.clone());
        let x = Matrix::from_vec(2, 3, x_vals.clone());
        let f = |wm: Matrix| -> f32 {
            let mut t = Tape::new();
            let xv = t.leaf(&x);
            let wv = t.param(0, &wm);
            let h = t.matmul(xv, wv);
            let r = t.relu(h);
            let s = t.sum_rows(r);
            let ones = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, -1.0]));
            let y = t.matmul(s, ones);
            let loss = t.mse_loss(y, &[0.3]);
            t.value(loss).data[0]
        };
        let mut t = Tape::new();
        let xv = t.leaf(&x);
        let wv = t.param(0, &w);
        let h = t.matmul(xv, wv);
        let r = t.relu(h);
        let s = t.sum_rows(r);
        let ones = t.leaf(&Matrix::from_vec(2, 1, vec![1.0, -1.0]));
        let y = t.matmul(s, ones);
        let loss = t.mse_loss(y, &[0.3]);
        let grads = t.backward(loss);
        let g = grads[0].as_ref().unwrap();
        let eps = 1e-2f32;
        for k in 0..w.len() {
            let mut plus = w.clone();
            plus.data[k] += eps;
            let mut minus = w.clone();
            minus.data[k] -= eps;
            let numeric = (f(plus) - f(minus)) / (2.0 * eps);
            prop_assert!(
                (g.data[k] - numeric).abs() < 0.05 * (1.0 + numeric.abs()),
                "grad[{}]: {} vs {}", k, g.data[k], numeric
            );
        }
    }

    /// The tiled matmul kernels agree with a scalar reference on random
    /// shapes, including degenerate ones (0 rows, 1×N, N×1) and shapes
    /// straddling the 4×8 register-tile boundary. `matmul` and `matmul_tn`
    /// promise k-ascending summation, so they must match the reference
    /// *bitwise*; `matmul_nt` folds lanes and is compared within a
    /// tolerance.
    #[test]
    fn tiled_matmul_matches_scalar_reference(
        m in prop::sample::select(vec![0usize, 1, 3, 4, 5, 8, 13]),
        k in prop::sample::select(vec![1usize, 2, 7, 8, 9, 16]),
        n in prop::sample::select(vec![1usize, 3, 7, 8, 9, 17]),
        seed in 0u64..1000
    ) {
        let mut rng = powergear_repro::util::Rng64::new(seed);
        let a = Matrix::from_vec(m, k, (0..m * k).map(|_| rng.f32() * 2.0 - 1.0).collect());
        let b = Matrix::from_vec(k, n, (0..k * n).map(|_| rng.f32() * 2.0 - 1.0).collect());

        // Scalar reference with k-ascending accumulation per element.
        let mut want = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.data[i * k + kk] * b.data[kk * n + j];
                }
                want.data[i * n + j] = acc;
            }
        }

        let got = a.matmul(&b);
        prop_assert_eq!(
            got.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "matmul must be bitwise k-ascending"
        );

        // a = at^T keeps the same product; matmul_tn shares the contract.
        let at = a.transpose();
        let got_tn = at.matmul_tn(&b);
        prop_assert_eq!(
            got_tn.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        // b = bt^T; matmul_nt uses a lane-folded dot, so allow rounding.
        let bt = b.transpose();
        let got_nt = a.matmul_nt(&bt);
        for (g, w) in got_nt.data.iter().zip(&want.data) {
            prop_assert!((g - w).abs() <= 1e-4 * (1.0 + w.abs()), "{} vs {}", g, w);
        }
    }

    /// Sample-weighted gradient accumulation: splitting a batch into
    /// uneven shards and merging must reproduce the per-sample reference
    /// accumulation *exactly*. Gradients are integer-valued and shard
    /// sizes are powers of two, so every intermediate (shard mean, weight
    /// scaling, sums) is exact in f32 and the comparison is bitwise.
    #[test]
    fn grad_accum_weighted_merge_matches_per_sample_reference(
        samples in prop::collection::vec(prop::collection::vec(-8i32..9, 4), 1..25),
        split_seed in 0u64..1000
    ) {
        let n = samples.len();

        // Per-sample reference: every gradient added with weight 1.
        let mut reference = GradAccum::new(1);
        for s in &samples {
            let g = Matrix::from_vec(2, 2, s.iter().map(|&v| v as f32).collect());
            reference.add(vec![Some(g)], 1);
        }

        // Shard the batch into random power-of-two-sized shards (uneven
        // mixes like 8+4+1), add each shard's exact mean with its sample
        // count, and merge the shard accumulators in order.
        let mut rng = powergear_repro::util::Rng64::new(split_seed);
        let mut sizes = Vec::new();
        let mut left = n;
        while left > 0 {
            let mut take = 1usize << rng.below(4); // 1, 2, 4, or 8
            while take > left { take /= 2; }
            sizes.push(take);
            left -= take;
        }
        let mut merged = GradAccum::new(1);
        let mut offset = 0;
        for &sz in &sizes {
            let shard = &samples[offset..offset + sz];
            offset += sz;
            let mut mean = vec![0.0f32; 4];
            for s in shard {
                for (m, &v) in mean.iter_mut().zip(s) {
                    *m += v as f32;
                }
            }
            for m in &mut mean {
                *m /= sz as f32; // exact: power-of-two divisor
            }
            let mut shard_acc = GradAccum::new(1);
            shard_acc.add(vec![Some(Matrix::from_vec(2, 2, mean))], sz);
            merged.merge_from(&shard_acc);
        }

        prop_assert_eq!(merged.samples(), reference.samples());
        let got = merged.mean();
        let want = reference.mean();
        prop_assert_eq!(
            got[0].as_ref().unwrap().data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want[0].as_ref().unwrap().data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "sharded mean must equal the per-sample batch mean exactly (shards {:?})",
            sizes
        );
    }
}

/// A random batch for the HEC compaction property: 1–3 graphs from
/// [`random_graphs`].
fn random_hec_batch(rng: &mut Rng64) -> (Vec<PowerGraph>, Vec<f64>) {
    let graphs = 1 + rng.below(3);
    random_graphs(rng, graphs)
}

/// `graphs` random graphs of 1–8 nodes, each with one extra node that has
/// no edges at all, edges drawn from a random subset of the four relations
/// (so whole relations are often empty), and edge features that include
/// all-zero rows and pairs that cancel exactly at their destination.
fn random_graphs(rng: &mut Rng64, graphs: usize) -> (Vec<PowerGraph>, Vec<f64>) {
    const RELS: [Relation; 4] = [Relation::AA, Relation::AN, Relation::NA, Relation::NN];
    let allowed: Vec<Relation> = RELS.into_iter().filter(|_| rng.below(3) > 0).collect();
    let f = PowerGraph::NODE_FEATS;
    let mut out = Vec::new();
    for gi in 0..graphs {
        let nodes = 2 + rng.below(8); // the last node stays isolated
        let mut node_feats = vec![0.0f32; nodes * f];
        for n in 0..nodes {
            node_feats[n * f + rng.below(5)] = 1.0;
            node_feats[n * f + 28 + rng.below(6)] = rng.f32();
        }
        let (mut edges, mut edge_feats, mut edge_rel) = (Vec::new(), Vec::new(), Vec::new());
        if !allowed.is_empty() && nodes > 2 {
            for _ in 0..rng.below(3 * nodes) {
                let s = rng.below(nodes - 1) as u32;
                let d = rng.below(nodes - 1) as u32;
                let rel = allowed[rng.below(allowed.len())];
                let feats = match rng.below(6) {
                    0 => [0.0; 4],
                    1 => {
                        // A pair that sums to exactly zero at `d`.
                        let e = [rng.f32(), -rng.f32(), 0.0, rng.f32()];
                        edges.push((s, d));
                        edge_feats.push(e);
                        edge_rel.push(rel);
                        e.map(|x| -x)
                    }
                    _ => [rng.f32(), rng.f32(), rng.f32() * 0.5, rng.f32() * 0.5],
                };
                edges.push((s, d));
                edge_feats.push(feats);
                edge_rel.push(rel);
            }
        }
        out.push(PowerGraph {
            kernel: "prop".into(),
            design_id: format!("prop{gi}"),
            num_nodes: nodes,
            node_feats,
            edges,
            edge_feats,
            edge_rel,
            meta: (0..10).map(|_| rng.f32()).collect(),
        });
    }
    let targets = (0..graphs).map(|_| 0.5 + rng.f32() as f64).collect();
    (out, targets)
}

/// The HEC forward with the dense, uncompacted edge aggregation: per
/// relation group, `scatter_add` of the edge-feature leaf over all N
/// nodes, then `W_E` and `W_r` on all N rows. Everything else mirrors
/// `PowerModel::forward` in eval mode for the add-pooled, metadata-on,
/// attention-free configuration.
fn dense_hec_forward(model: &PowerModel, batch: &GraphBatch, tape: &mut Tape) -> Var {
    let cfg = &model.config;
    let p = |tape: &mut Tape, name: String| {
        let slot = (0..model.store.len())
            .find(|&s| model.store.name(s) == name)
            .expect("registered parameter");
        tape.param(slot, model.store.get(slot))
    };
    let n = batch.num_nodes;
    let mut x = tape.leaf(&batch.node_feats);
    let mut outputs = Vec::new();
    for l in 0..cfg.layers {
        let wv = p(tape, format!("wv{l}"));
        let mut terms = vec![tape.matmul(x, wv)];
        let we = p(tape, format!("we{l}"));
        let mut groups: Vec<(usize, &RelEdges)> = Vec::new();
        if cfg.heterogeneous {
            groups.extend(batch.rel.iter().enumerate());
            if !cfg.directed {
                groups.extend(batch.rel_rev.iter().enumerate());
            }
        } else {
            groups.push((0, &batch.all));
            if !cfg.directed {
                groups.push((0, &batch.all_rev));
            }
        }
        for (r, edges) in groups {
            if edges.is_empty() {
                continue;
            }
            let ef = tape.leaf(&edges.feats);
            let summed = tape.scatter_add(ef, &edges.dst, n);
            let mut msg = tape.matmul(summed, we);
            if cfg.heterogeneous {
                let wr = p(tape, format!("wr{l}_{r}"));
                msg = tape.matmul(msg, wr);
            }
            terms.push(msg);
        }
        let sum = tape.add_n(terms);
        let b = p(tape, format!("b{l}"));
        x = tape.add_row_relu(sum, b);
        outputs.push(x);
    }
    let pooled = outputs
        .into_iter()
        .map(|h| tape.scatter_add(h, &batch.graph_of, batch.num_graphs))
        .collect();
    let hg = tape.add_n(pooled);
    let meta = tape.leaf(&batch.meta);
    let (mw, mb) = (p(tape, "meta_w".into()), p(tape, "meta_b".into()));
    let hm = tape.linear_bias_relu(meta, mw, mb);
    let joint = tape.concat_cols(hg, hm);
    let (w1, b1) = (p(tape, "head_w1".into()), p(tape, "head_b1".into()));
    let z1 = tape.linear_bias_relu(joint, w1, b1);
    let w2 = p(tape, "head_w2".into());
    let out = tape.matmul(z1, w2);
    let b2 = p(tape, "head_b2".into());
    tape.add_row(out, b2)
}

/// Forward value and every parameter gradient, as bit patterns.
fn value_and_grad_bits(
    tape: &mut Tape,
    pred: Var,
    targets: &[f32],
) -> (Vec<u32>, Vec<Option<Vec<u32>>>) {
    let value = tape.value(pred).data.iter().map(|v| v.to_bits()).collect();
    let loss = tape.mse_loss(pred, targets);
    let grads = tape
        .backward(loss)
        .into_iter()
        .map(|g| g.map(|m| m.data.iter().map(|v| v.to_bits()).collect()))
        .collect();
    (value, grads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The HEC layer's compacted edge aggregation (project only the rows
    /// that receive edges, then scatter to N) is bit-identical to the dense
    /// composition, in the forward value and in every parameter gradient.
    #[test]
    fn compacted_hec_aggregation_matches_dense_reference(seed in any::<u64>(),
                                                         directed in any::<bool>(),
                                                         heterogeneous in any::<bool>()) {
        let mut rng = Rng64::new(seed);
        let (graphs, targets) = random_hec_batch(&mut rng);
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let batch = GraphBatch::new(&refs, &targets);
        let mut cfg = ModelConfig::hec(8).with_layers(2);
        cfg.directed = directed;
        cfg.heterogeneous = heterogeneous;
        let mut model = PowerModel::new(cfg, seed);
        // Nonzero biases and perturbed weights: a trained-looking model.
        for s in 0..model.store.len() {
            for w in &mut model.store.get_mut(s).data {
                *w += 0.2 * (rng.f32() - 0.5);
            }
        }

        let mut tape = Tape::new();
        let pred = model.forward(&mut tape, &batch, false, &mut Rng64::new(0));
        let got = value_and_grad_bits(&mut tape, pred, &batch.targets);
        let mut tape = Tape::new();
        let pred = dense_hec_forward(&model, &batch, &mut tape);
        let want = value_and_grad_bits(&mut tape, pred, &batch.targets);
        prop_assert_eq!(&got.0, &want.0, "forward differs (directed {}, heterogeneous {})", directed, heterogeneous);
        prop_assert_eq!(got.1.len(), want.1.len());
        for (slot, (g, w)) in got.1.iter().zip(&want.1).enumerate() {
            prop_assert_eq!(g, w, "gradient of `{}` differs", model.store.name(slot));
        }
    }
}

/// Every model configuration the workspace trains: the zoo grid, the
/// Table II ablations and the four baselines, at a small hidden width.
fn every_config() -> Vec<ModelConfig> {
    let mut configs: Vec<ModelConfig> = zoo_variants(8)
        .into_iter()
        .chain(table2_variants(8))
        .map(|v| v.config)
        .collect();
    for arch in [Arch::Gcn, Arch::Sage, Arch::GraphConv, Arch::Gine] {
        configs.push(ModelConfig::baseline(arch, 8));
    }
    configs
}

fn f32_bits(m: &Matrix) -> Vec<u32> {
    m.data.iter().map(|v| v.to_bits()).collect()
}

fn f64_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tape-free evaluator computes exactly what the recording tape
    /// computes, for every configuration, and a graph's prediction does
    /// not depend on which other graphs share its batch.
    #[test]
    fn eval_matches_tape_and_is_batch_invariant(seed in any::<u64>(), graphs in 1usize..9) {
        let mut rng = Rng64::new(seed);
        let (graphs, targets) = random_graphs(&mut rng, graphs);
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let batch = GraphBatch::new(&refs, &targets);
        // A random composition: a shuffled, non-empty subset of the graphs.
        let mut order: Vec<usize> = (0..refs.len()).collect();
        rng.shuffle(&mut order);
        order.truncate(1 + rng.below(refs.len()));
        let subset: Vec<&PowerGraph> = order.iter().map(|&i| refs[i]).collect();
        for cfg in every_config() {
            let name = cfg.zoo_name();
            let mut model = PowerModel::new(cfg, seed);
            for s in 0..model.store.len() {
                for w in &mut model.store.get_mut(s).data {
                    *w += 0.2 * (rng.f32() - 0.5);
                }
            }
            let mut tape = Tape::new();
            let pred = model.forward(&mut tape, &batch, false, &mut Rng64::new(0));
            let mut ev = Eval::new();
            let got = model.forward(&mut ev, &batch, false, &mut Rng64::new(0));
            prop_assert_eq!(f32_bits(ev.value(got)), f32_bits(tape.value(pred)), "{}", name);
            drop(ev);

            let alone: Vec<f64> = refs.iter().map(|g| model.predict(&[*g])[0]).collect();
            prop_assert_eq!(f64_bits(&model.predict(&refs)), f64_bits(&alone), "{}", name);
            let want: Vec<f64> = order.iter().map(|&i| alone[i]).collect();
            prop_assert_eq!(f64_bits(&model.predict(&subset)), f64_bits(&want), "{}", name);
        }
    }
}
