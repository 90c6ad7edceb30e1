//! Property and end-to-end tests for the workspace metrics layer
//! (`pg_util::metrics`) and its `StatsV2` wire format.
//!
//! Three layers, mirroring the store/serve corruption suites:
//!
//! 1. **Histogram properties** — bucket counts always sum to the
//!    observation count, and merging per-thread shards is
//!    order-independent and bit-exact (the registry's determinism
//!    contract: integer storage, fixed-order summation).
//! 2. **StatsV2 codec properties** — arbitrary snapshots roundtrip the
//!    wire bit-exactly; truncated or bit-flipped payloads produce typed
//!    errors, never panics.
//! 3. **Socket end-to-end** — a live daemon driven by 4 concurrent
//!    clients reports per-model counters that match the client-side
//!    tallies *exactly* (every request counted once, every graph once).

use proptest::prelude::*;

use powergear_repro::gnn::{Ensemble, ModelConfig, PowerModel};
use powergear_repro::graphcon::{PowerGraph, Relation};
use powergear_repro::powergear::daemon::{Daemon, DaemonConfig, DaemonHandle};
use powergear_repro::powergear::PowerGear;
use powergear_repro::store::frame::{
    self, FrameType, PredictRequest, PredictResponse, RawFrame, StatsV2Response,
};
use powergear_repro::store::{ArtifactMeta, ModelRegistry, StoreError};
use powergear_repro::util::metrics::{
    self, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot,
};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Helpers

/// The registry is process-global and tests run concurrently, so every
/// property case registers under a fresh name.
fn unique(tag: &str) -> String {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    format!("prop_{tag}_{}_us", SEQ.fetch_add(1, Ordering::Relaxed))
}

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pg_metrics_props_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------------
// 1. Histogram properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Per-bucket counts partition the observations: they sum to `count`,
    /// and `sum` is the exact integer sum of the observed values.
    #[test]
    fn bucket_counts_sum_to_observations(
        values in prop::collection::vec(0u64..2_000_000, 1..200),
    ) {
        let name = unique("sum");
        let h = metrics::histogram(&name, metrics::buckets::LATENCY_US);
        for &v in &values {
            h.observe(v);
        }
        let snap = metrics::snapshot();
        let hs = snap.histogram(&name, &[]).expect("histogram registered");
        prop_assert_eq!(hs.count, values.len() as u64);
        prop_assert_eq!(hs.buckets.iter().map(|&(_, c)| c).sum::<u64>(), hs.count);
        prop_assert_eq!(hs.sum, values.iter().sum::<u64>());
        // The final bound is the +inf catch-all, so nothing can escape.
        prop_assert_eq!(hs.buckets.last().map(|&(ub, _)| ub), Some(u64::MAX));
    }

    /// Observing the same multiset of values — sequentially, reversed, or
    /// interleaved across threads — yields bit-identical snapshots: the
    /// shard merge is a fixed-order integer sum, so scheduling can never
    /// leak into the numbers.
    #[test]
    fn merge_is_order_independent_and_bit_exact(
        values in prop::collection::vec(0u64..1_000_000, 1..300),
        threads in 1usize..6,
    ) {
        let seq_name = unique("seq");
        let rev_name = unique("rev");
        let thr_name = unique("thr");
        let seq = metrics::histogram(&seq_name, metrics::buckets::LATENCY_US);
        for &v in &values {
            seq.observe(v);
        }
        let rev = metrics::histogram(&rev_name, metrics::buckets::LATENCY_US);
        for &v in values.iter().rev() {
            rev.observe(v);
        }
        let thr = metrics::histogram(&thr_name, metrics::buckets::LATENCY_US);
        thread::scope(|s| {
            for t in 0..threads {
                let thr = thr.clone();
                let vals: Vec<u64> = values.iter().copied().skip(t).step_by(threads).collect();
                s.spawn(move || {
                    for v in vals {
                        thr.observe(v);
                    }
                });
            }
        });
        let snap = metrics::snapshot();
        let a = snap.histogram(&seq_name, &[]).unwrap();
        let b = snap.histogram(&rev_name, &[]).unwrap();
        let c = snap.histogram(&thr_name, &[]).unwrap();
        prop_assert_eq!((a.count, a.sum, &a.buckets), (b.count, b.sum, &b.buckets));
        prop_assert_eq!((a.count, a.sum, &a.buckets), (c.count, c.sum, &c.buckets));
    }

    /// Percentiles are monotone in `q` and the mean is the exact integer
    /// ratio `sum / count`.
    #[test]
    fn percentiles_are_monotone(
        values in prop::collection::vec(0u64..1_000_000, 1..100),
    ) {
        let name = unique("pct");
        let h = metrics::histogram(&name, metrics::buckets::LATENCY_US);
        for &v in &values {
            h.observe(v);
        }
        let snap = metrics::snapshot();
        let hs = snap.histogram(&name, &[]).unwrap();
        let p50 = hs.percentile(0.5).unwrap();
        let p95 = hs.percentile(0.95).unwrap();
        let p100 = hs.percentile(1.0).unwrap();
        prop_assert!(p50 <= p95 && p95 <= p100);
        let expect_mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
        prop_assert!((hs.mean() - expect_mean).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// 2. StatsV2 codec properties

/// Label pairs from a small pool (the codec treats them as opaque UTF-8).
fn arb_labels() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec(
        (
            prop::sample::select(vec!["model", "kernel", "tier"]),
            prop::sample::select(vec!["bicg", "atax-v2", "m", ""]),
        ),
        0..3,
    )
    .prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    })
}

fn arb_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    (
        prop::collection::vec((0u32..6, arb_labels(), any::<u64>()), 0..5),
        prop::collection::vec((0u32..6, arb_labels(), any::<i64>()), 0..4),
        prop::collection::vec(
            (
                0u32..6,
                arb_labels(),
                prop::collection::vec((any::<u64>(), any::<u64>()), 1..8),
            ),
            0..4,
        ),
    )
        .prop_map(|(cs, gs, hs)| MetricsSnapshot {
            counters: cs
                .into_iter()
                .map(|(i, labels, value)| CounterSnapshot {
                    name: format!("c{i}_total"),
                    labels,
                    value,
                })
                .collect(),
            gauges: gs
                .into_iter()
                .map(|(i, labels, value)| GaugeSnapshot {
                    name: format!("g{i}_depth"),
                    labels,
                    value,
                })
                .collect(),
            histograms: hs
                .into_iter()
                .map(|(i, labels, buckets)| HistogramSnapshot {
                    name: format!("h{i}_us"),
                    labels,
                    count: buckets
                        .iter()
                        .map(|&(_, c)| c)
                        .fold(0u64, u64::wrapping_add),
                    sum: buckets
                        .iter()
                        .map(|&(ub, _)| ub)
                        .fold(0u64, u64::wrapping_add),
                    buckets,
                })
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary snapshots survive the wire bit-exactly, including
    /// negative gauges (two's-complement transport) and +inf bounds.
    #[test]
    fn stats_v2_roundtrips_bit_exactly(
        snapshot in arb_snapshot(),
        uptime_bits in any::<u64>(),
    ) {
        // Any finite uptime; NaN would break PartialEq, not the codec.
        let uptime_s = f64::from_bits(uptime_bits % (1u64 << 62)).abs();
        let uptime_s = if uptime_s.is_finite() { uptime_s } else { 0.0 };
        let v2 = StatsV2Response { uptime_s, snapshot };
        let back = StatsV2Response::from_payload(&v2.to_payload()).unwrap();
        prop_assert_eq!(v2.uptime_s.to_bits(), back.uptime_s.to_bits());
        prop_assert_eq!(v2.snapshot, back.snapshot);
    }

    /// Every proper prefix of a valid payload decodes to a typed error —
    /// never a panic, never a silent partial decode.
    #[test]
    fn stats_v2_truncation_is_typed(snapshot in arb_snapshot()) {
        let payload = StatsV2Response { uptime_s: 1.5, snapshot }.to_payload();
        for cut in 0..payload.len() {
            match StatsV2Response::from_payload(&payload[..cut]) {
                Err(StoreError::Truncated { .. })
                | Err(StoreError::Corrupt { .. })
                | Err(StoreError::UnsupportedVersion { .. }) => {}
                Err(other) => prop_assert!(false, "cut {cut}: unexpected error {other:?}"),
                Ok(_) => prop_assert!(false, "cut {cut}: decoded a truncated payload"),
            }
        }
    }

    /// Single bit flips never panic: they either decode (the flipped bit
    /// landed in a value) or surface as a typed error (it landed in a
    /// length, tag, or the format version). Frame-level CRC catches
    /// flips in transit; this guards the decoder itself.
    #[test]
    fn stats_v2_bit_flips_never_panic(
        snapshot in arb_snapshot(),
        flip_seed in any::<u64>(),
    ) {
        let mut payload = StatsV2Response { uptime_s: 0.25, snapshot }.to_payload();
        let bit = (flip_seed % (payload.len() as u64 * 8)) as usize;
        payload[bit / 8] ^= 1 << (bit % 8);
        let _ = StatsV2Response::from_payload(&payload);
    }
}

// ---------------------------------------------------------------------------
// 3. Socket end-to-end: exact per-model accounting

fn tiny_gear(seed: u64) -> PowerGear {
    let cfg = ModelConfig::hec(8);
    PowerGear {
        total_model: Ensemble {
            models: vec![PowerModel::new(cfg.clone(), seed)],
        },
        dynamic_model: Ensemble {
            models: vec![PowerModel::new(cfg, seed ^ 0xbeef)],
        },
    }
}

fn graph(seed: u64) -> PowerGraph {
    let nodes = 3 + (seed % 4) as usize;
    let f = PowerGraph::NODE_FEATS;
    let mut node_feats = vec![0.0f32; nodes * f];
    for n in 0..nodes {
        node_feats[n * f + (seed as usize + n) % f] = 1.0;
    }
    let edges: Vec<(u32, u32)> = (1..nodes as u32).map(|d| (d - 1, d)).collect();
    let ne = edges.len();
    PowerGraph {
        kernel: "mprops".into(),
        design_id: format!("m{seed}"),
        num_nodes: nodes,
        node_feats,
        edges,
        edge_feats: (0..ne).map(|i| [0.1 * i as f32, 0.2, 0.3, 0.4]).collect(),
        edge_rel: (0..ne)
            .map(|i| match i % 4 {
                0 => Relation::AA,
                1 => Relation::AN,
                2 => Relation::NA,
                _ => Relation::NN,
            })
            .collect(),
        meta: vec![0.5; 10],
    }
}

fn publish(dir: &Path, name: &str, kernel: &str, gear: &PowerGear) {
    let reg = ModelRegistry::open(dir).unwrap();
    let meta = ArtifactMeta::now(kernel, "total+dynamic");
    reg.publish(name, &gear.to_artifact(meta, &[], 0)).unwrap();
}

fn daemon_on(dir: &Path) -> DaemonHandle {
    let mut cfg = DaemonConfig::new("127.0.0.1:0");
    cfg.registry_dir = Some(dir.to_path_buf());
    cfg.poll_interval = Duration::from_millis(10);
    Daemon::bind(cfg).unwrap().spawn()
}

/// 4 concurrent clients, varying request sizes; afterwards the daemon's
/// per-model `StatsV2` counters must equal the client tallies exactly:
/// every request counted once, every graph once, the batch-size
/// histogram internally consistent with the batch counter.
#[test]
fn four_client_workload_is_counted_exactly() {
    let dir = tmp_dir("e2e");
    let gear = tiny_gear(23);
    // Unique model/kernel names: the metrics registry is process-global,
    // so only uniquely-labeled series can be asserted exactly.
    publish(&dir, "mprops-v1", "mprops", &gear);
    let handle = daemon_on(&dir);
    let addr = handle.addr();

    let graphs: Vec<PowerGraph> = (0..5).map(graph).collect();
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 6;
    let mut expected_graphs = 0u64;
    for c in 0..CLIENTS {
        for r in 0..REQUESTS {
            expected_graphs += (1 + (c + r) % 3) as u64;
        }
    }

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let graphs = graphs.clone();
            thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                for r in 0..REQUESTS {
                    let per = 1 + (c + r) % 3;
                    let req = PredictRequest {
                        kernel: "mprops".into(),
                        graphs: (0..per)
                            .map(|i| graphs[(c + r + i) % graphs.len()].clone())
                            .collect(),
                    };
                    frame::write_frame(
                        &mut s,
                        &RawFrame::new(FrameType::Predict, req.to_payload()),
                    )
                    .unwrap();
                    let resp = frame::read_frame(&mut s).unwrap().expect("response");
                    assert_eq!(resp.frame_type(), Some(FrameType::PredictOk));
                    let out = PredictResponse::from_payload(&resp.payload).unwrap();
                    assert_eq!(out.model, "mprops-v1");
                    assert_eq!(out.predictions.len(), per);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // Fetch StatsV2 over the same socket protocol a real client uses.
    let mut s = TcpStream::connect(addr).unwrap();
    frame::write_frame(&mut s, &RawFrame::new(FrameType::StatsV2, Vec::new())).unwrap();
    let resp = frame::read_frame(&mut s).unwrap().expect("stats response");
    assert_eq!(resp.frame_type(), Some(FrameType::StatsV2Ok));
    let v2 = StatsV2Response::from_payload(&resp.payload).unwrap();

    let labels = [("model", "mprops-v1")];
    let total_reqs = (CLIENTS * REQUESTS) as u64;
    assert_eq!(
        v2.snapshot.counter_value("serve_requests_total", &labels),
        Some(total_reqs),
        "every request counted exactly once"
    );
    assert_eq!(
        v2.snapshot.counter_value("serve_graphs_total", &labels),
        Some(expected_graphs),
        "every graph counted exactly once"
    );
    let batches = v2
        .snapshot
        .counter_value("serve_batches_total", &labels)
        .expect("batch counter");
    assert!(batches >= 1 && batches <= total_reqs);
    let bs = v2
        .snapshot
        .histogram("serve_batch_size_graphs", &labels)
        .expect("batch-size histogram");
    assert_eq!(bs.count, batches, "one batch-size sample per batch");
    assert_eq!(
        bs.sum, expected_graphs,
        "batch sizes sum to the graph total"
    );
    let st = v2
        .snapshot
        .histogram("serve_service_time_us", &labels)
        .expect("service-time histogram");
    assert_eq!(st.count, batches, "one service-time sample per batch");
    assert_eq!(
        v2.snapshot.gauge_value("serve_queue_depth", &[]),
        Some(0),
        "queue drained"
    );

    // The daemon's v1 atomic counters and the registry agree.
    let v1 = handle.stats();
    assert_eq!(v1.requests, total_reqs);
    assert_eq!(v1.errors, 0);

    handle.stop().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
