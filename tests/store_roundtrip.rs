//! Property tests for the `pg_store` persistence layer: saved artifacts
//! load back bit-exact, and corrupt containers produce typed errors —
//! never panics.

use proptest::prelude::*;

use powergear_repro::datasets::{
    build_kernel_dataset, load_dataset, polybench, save_dataset, DatasetConfig, PowerTarget,
};
use powergear_repro::gnn::{train_ensemble, Arch, Ensemble, ModelConfig, PowerModel, TrainConfig};
use powergear_repro::graphcon::{PowerGraph, Relation};
use powergear_repro::store::{ArtifactMeta, ModelArtifact, ModelRegistry, StoreError};
use powergear_repro::util::Rng64;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique temp path per call so concurrently running cases never collide.
fn tmp_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "pg_store_rt_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn random_graph(seed: u64) -> PowerGraph {
    let mut rng = Rng64::new(seed);
    let nodes = 4 + rng.below(6);
    let f = PowerGraph::NODE_FEATS;
    let mut node_feats = vec![0.0f32; nodes * f];
    for n in 0..nodes {
        node_feats[n * f + rng.below(5)] = 1.0;
        node_feats[n * f + 28 + rng.below(6)] = rng.f32();
    }
    let edges: Vec<(u32, u32)> = (1..nodes as u32).map(|d| (d - 1, d)).collect();
    let ne = edges.len();
    PowerGraph {
        kernel: "rt".into(),
        design_id: format!("rt{seed}"),
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
        meta: (0..10).map(|_| rng.f32()).collect(),
    }
}

fn arb_config() -> impl Strategy<Value = ModelConfig> {
    (
        prop::sample::select(vec![
            Arch::Hec,
            Arch::Gcn,
            Arch::Sage,
            Arch::GraphConv,
            Arch::Gine,
        ]),
        4usize..12,
        prop::bool::weighted(0.5),
        prop::bool::weighted(0.5),
    )
        .prop_map(|(arch, hidden, het, md)| {
            let mut cfg = if arch == Arch::Hec {
                ModelConfig::hec(hidden)
            } else {
                ModelConfig::baseline(arch, hidden)
            };
            if arch == Arch::Hec {
                cfg.heterogeneous = het;
                cfg.use_metadata = md;
            }
            cfg
        })
}

fn artifact_with(models: Vec<PowerModel>, graphs: &[PowerGraph]) -> ModelArtifact {
    ModelArtifact {
        meta: ArtifactMeta::now("prop", "dynamic"),
        ensembles: vec![("dynamic".into(), Ensemble { models })],
        probe: None,
    }
    .with_probe(graphs, 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Save → load → predictions bit-identical to the in-memory ensemble,
    /// across architectures, widths, member counts and normalizations.
    #[test]
    fn saved_ensemble_predicts_bit_identically(
        cfg in arb_config(),
        members in 1usize..4,
        seed in 0u64..1_000,
        scale in 0.05f32..4.0,
        shift in 0.0f32..2.0,
    ) {
        let models: Vec<PowerModel> = (0..members)
            .map(|i| {
                let mut m = PowerModel::new(cfg.clone(), seed + i as u64);
                m.target_scale = scale;
                m.target_shift = shift * (i % 2) as f32;
                m
            })
            .collect();
        let graphs: Vec<PowerGraph> = (0..5).map(|i| random_graph(seed * 31 + i)).collect();
        let artifact = artifact_with(models, &graphs);

        let path = tmp_path("bits");
        artifact.save(&path).expect("save");
        let loaded = ModelArtifact::load(&path).expect("load");
        std::fs::remove_file(&path).ok();

        loaded.verify().expect("embedded probe must pass");
        prop_assert_eq!(&loaded, &artifact);
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let a: Vec<u64> = artifact.ensembles[0].1.predict(&refs).iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = loaded.ensembles[0].1.predict(&refs).iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(a, b);
    }

    /// Any strict prefix of an artifact fails with a typed error — never a
    /// panic — because section bounds are validated before payloads load.
    #[test]
    fn truncated_artifact_is_a_typed_error(
        seed in 0u64..500,
        frac in 0.0f64..1.0,
    ) {
        let m = PowerModel::new(ModelConfig::hec(6), seed);
        let graphs: Vec<PowerGraph> = (0..2).map(|i| random_graph(seed + i)).collect();
        let bytes = artifact_with(vec![m], &graphs).to_bytes();
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        match ModelArtifact::from_bytes(bytes[..cut].to_vec()) {
            Ok(_) => prop_assert!(false, "strict prefix must not load"),
            Err(e) => {
                // the error renders without panicking too
                let _ = e.to_string();
            }
        }
    }

    /// A single flipped byte anywhere in the container is either caught by
    /// the CRC/structure checks (typed error) or lands in metadata the
    /// checks cover — in no case a panic, and never silently wrong
    /// predictions (the probe re-verifies the weights).
    #[test]
    fn bitflip_never_panics_and_never_corrupts_weights(
        seed in 0u64..500,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let m = PowerModel::new(ModelConfig::hec(6), seed);
        let graphs: Vec<PowerGraph> = (0..2).map(|i| random_graph(seed + 7 * i)).collect();
        let original = artifact_with(vec![m], &graphs);
        let mut bytes = original.to_bytes();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        match ModelArtifact::from_bytes(bytes) {
            Err(e) => {
                let _ = e.to_string();
            }
            Ok(loaded) => {
                // The flip survived structural checks (e.g. it hit a
                // section-table name and effectively dropped a section).
                // The self-verification probe must still hold for whatever
                // ensembles remain intact.
                loaded.verify().expect("loaded artifact must stay bit-exact");
            }
        }
    }
}

#[test]
fn trained_ensemble_roundtrip_through_registry() {
    // The acceptance-criteria path, in-process: train a real (tiny)
    // ensemble, publish it, load it in a fresh registry handle, and check
    // bit-identical predictions on unseen graphs.
    let ds = build_kernel_dataset(&polybench::mvt(6), &DatasetConfig::tiny());
    let data = ds.labeled(PowerTarget::Dynamic);
    let mut tc = TrainConfig::quick(ModelConfig::hec(8));
    tc.epochs = 3;
    tc.folds = 2;
    tc.threads = 1;
    let ensemble = train_ensemble(&data, &tc);

    let root = tmp_path("registry");
    let reg = ModelRegistry::open(&root).unwrap();
    let graphs: Vec<PowerGraph> = ds.samples.iter().map(|s| s.graph.clone()).collect();
    let artifact = ModelArtifact {
        meta: ArtifactMeta::now("mvt", "dynamic"),
        ensembles: vec![("dynamic".into(), ensemble.clone())],
        probe: None,
    }
    .with_probe(&graphs, 6);
    reg.publish("mvt-quick", &artifact).unwrap();

    let fresh = ModelRegistry::open(&root).unwrap();
    let loaded = fresh.load("mvt-quick").unwrap();
    loaded.verify().unwrap();
    let refs: Vec<&PowerGraph> = ds.samples.iter().map(|s| &s.graph).collect();
    let a: Vec<u64> = ensemble
        .predict(&refs)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let b: Vec<u64> = loaded.ensembles[0]
        .1
        .predict(&refs)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(a, b, "registry roundtrip must be bit-identical");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn bad_magic_and_future_version_are_typed() {
    assert!(matches!(
        ModelArtifact::from_bytes(b"GARBAGE!not a container".to_vec()),
        Err(StoreError::BadMagic { .. })
    ));
    let artifact = artifact_with(vec![PowerModel::new(ModelConfig::hec(4), 1)], &[]);
    let mut bytes = artifact.to_bytes();
    bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        ModelArtifact::from_bytes(bytes),
        Err(StoreError::UnsupportedVersion { .. })
    ));
}

#[test]
fn dataset_snapshot_roundtrips_exactly() {
    // Persist a labeled dataset snapshot, restore it, and check the
    // restored dataset is bit-identical.
    let kernel = polybench::bicg(6);
    let cfg = DatasetConfig::tiny();
    let ds = build_kernel_dataset(&kernel, &cfg);
    let snap_path = tmp_path("snap");
    save_dataset(&ds, &snap_path).unwrap();
    let back = load_dataset(&snap_path).unwrap();
    assert_eq!(ds, back, "snapshot must round-trip exactly");

    std::fs::remove_file(&snap_path).ok();
}
