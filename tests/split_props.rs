//! Property tests for the leave-one-kernel-out splits
//! (`pg_datasets::splits`) over randomly generated datasets.
//!
//! The LOKO evaluation harness leans on these invariants for any dataset
//! shape, not just the nine polybench kernels the pipeline builds today:
//!
//! * **partition** — `train`/`test` are disjoint and together cover every
//!   sample of the source datasets exactly once;
//! * **no leakage** — nothing from the held-out kernel ever reaches
//!   `train_labeled`, for either power target;
//! * **label fidelity** — the labeled views carry exactly the source
//!   samples' labels, in source order, for both targets;
//! * **coverage** — `all_splits` holds out every kernel exactly once, in
//!   dataset order.

use proptest::prelude::*;

use powergear_repro::datasets::{all_splits, leave_one_out, KernelDataset, PowerTarget, Sample};
use powergear_repro::graphcon::PowerGraph;
use powergear_repro::hls::{Directives, HlsReport};
use powergear_repro::powersim::PowerBreakdown;

/// A synthetic sample: only the fields the split logic looks at carry
/// signal (kernel name, per-target labels, a distinguishable graph).
fn sample(kernel: &str, id: usize, total: f64, dyn_frac: f64) -> Sample {
    let design_id = format!("{kernel}-d{id}");
    let dynamic = total * dyn_frac;
    Sample {
        kernel: kernel.to_string(),
        design_id: design_id.clone(),
        directives: Directives::new(),
        graph: PowerGraph {
            kernel: kernel.to_string(),
            design_id,
            ..PowerGraph::default()
        },
        power: PowerBreakdown {
            total,
            dynamic,
            static_: total - dynamic,
            nets: 0.0,
            internal: 0.0,
            clock: 0.0,
        },
        latency: 100 + id as u64,
        report: HlsReport {
            lut: 1,
            ff: 1,
            dsp: 0,
            bram: 0,
            latency_cycles: 100 + id as u64,
            clock_ns: 10.0,
        },
    }
}

fn datasets_from(labels: &[Vec<(f64, f64)>]) -> Vec<KernelDataset> {
    labels
        .iter()
        .enumerate()
        .map(|(ki, samples)| {
            let kernel = format!("k{ki}");
            KernelDataset {
                kernel: kernel.clone(),
                size: 8,
                samples: samples
                    .iter()
                    .enumerate()
                    .map(|(si, &(total, frac))| sample(&kernel, si, total, frac))
                    .collect(),
                baseline: HlsReport {
                    lut: 1,
                    ff: 1,
                    dsp: 0,
                    bram: 0,
                    latency_cycles: 100,
                    clock_ns: 10.0,
                },
            }
        })
        .collect()
}

/// 2–6 kernels, each with 1–6 samples of (total power, dynamic fraction).
fn labels_strategy() -> impl Strategy<Value = Vec<Vec<(f64, f64)>>> {
    prop::collection::vec(
        prop::collection::vec((0.5f64..20.0, 0.05f64..0.95), 1..6),
        2..6,
    )
}

proptest! {
    #[test]
    fn split_is_a_disjoint_exhaustive_partition(labels in labels_strategy()) {
        let datasets = datasets_from(&labels);
        let all_ids: Vec<String> = datasets
            .iter()
            .flat_map(|d| d.samples.iter().map(|s| s.design_id.clone()))
            .collect();
        for held in datasets.iter().map(|d| d.kernel.clone()) {
            let split = leave_one_out(&datasets, &held);
            prop_assert_eq!(&split.test_kernel, &held);
            prop_assert!(split.test.iter().all(|s| s.kernel == held));
            prop_assert!(split.train.iter().all(|s| s.kernel != held));
            // Together they are exactly the source samples, each once.
            let mut seen: Vec<String> = split
                .train
                .iter()
                .chain(split.test.iter())
                .map(|s| s.design_id.clone())
                .collect();
            let mut want = all_ids.clone();
            seen.sort();
            want.sort();
            prop_assert_eq!(seen, want);
        }
    }

    #[test]
    fn held_out_kernel_never_leaks_into_training(labels in labels_strategy()) {
        let datasets = datasets_from(&labels);
        for held in datasets.iter().map(|d| d.kernel.clone()) {
            let split = leave_one_out(&datasets, &held);
            for target in [PowerTarget::Total, PowerTarget::Dynamic] {
                for (graph, _) in split.train_labeled(target) {
                    prop_assert_ne!(&graph.kernel, &held);
                }
            }
        }
    }

    #[test]
    fn labeled_views_match_source_labels_per_target(labels in labels_strategy()) {
        let datasets = datasets_from(&labels);
        for held in datasets.iter().map(|d| d.kernel.clone()) {
            let split = leave_one_out(&datasets, &held);
            for target in [PowerTarget::Total, PowerTarget::Dynamic] {
                let train = split.train_labeled(target);
                let test = split.test_labeled(target);
                prop_assert_eq!(train.len(), split.train.len());
                prop_assert_eq!(test.len(), split.test.len());
                // Labels in source order, bit-for-bit.
                for (s, (g, y)) in split.test.iter().zip(&test) {
                    prop_assert_eq!(&s.graph, *g);
                    prop_assert_eq!(s.label(target).to_bits(), y.to_bits());
                }
                for (s, (_, y)) in split.train.iter().zip(&train) {
                    prop_assert_eq!(s.label(target).to_bits(), y.to_bits());
                }
                // Counts per kernel match the source datasets.
                let held_n = datasets
                    .iter()
                    .find(|d| d.kernel == held)
                    .unwrap()
                    .samples
                    .len();
                let rest_n: usize = datasets
                    .iter()
                    .filter(|d| d.kernel != held)
                    .map(|d| d.samples.len())
                    .sum();
                prop_assert_eq!(test.len(), held_n);
                prop_assert_eq!(train.len(), rest_n);
            }
        }
    }

    #[test]
    fn all_splits_hold_out_every_kernel_exactly_once(labels in labels_strategy()) {
        let datasets = datasets_from(&labels);
        let splits = all_splits(&datasets);
        prop_assert_eq!(splits.len(), datasets.len());
        for (ds, split) in datasets.iter().zip(&splits) {
            prop_assert_eq!(&split.test_kernel, &ds.kernel);
            prop_assert_eq!(split.test.len(), ds.samples.len());
        }
    }
}
