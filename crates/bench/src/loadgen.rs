//! Socket-level load generator for the `powergear serve --listen` daemon.
//!
//! Drives a running daemon over real TCP connections with `PGRPC` Predict
//! frames (`docs/PROTOCOL.md`) from many concurrent clients, and reports
//! the numbers an operator tunes against (`docs/SERVING.md`): p50/p95/p99
//! request latency and sustained graph throughput. The `loadgen` binary
//! is the CLI wrapper.
//!
//! When the caller knows the per-graph ground truth (daemon spawned from
//! the same process against a known model), pass `expected` and the
//! report counts bit-mismatches — under the house invariant, a served
//! prediction must be bit-identical to the in-process sequential path no
//! matter how requests were coalesced into batches.

//! Runs can also be bracketed with `StatsV2` snapshots
//! ([`fetch_stats_v2`] / [`server_delta`]): the daemon's own per-model
//! counters across the run are cross-checked against the client-side
//! tallies, and the server's batch-size distribution (the number the
//! micro-batcher actually achieved) is reported next to client latency.

use pg_graphcon::PowerGraph;
use pg_store::frame::{self, FrameType, PredictRequest, PredictResponse};
use pg_store::StatsV2Response;
use pg_util::metrics::{HistogramSnapshot, MetricsSnapshot};
use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Load shape: `clients` concurrent connections, each sending `requests`
/// back-to-back Predict frames of `graphs_per_request` graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Predict requests per client.
    pub requests: usize,
    /// Graphs per Predict request.
    pub graphs_per_request: usize,
}

/// Aggregated results of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Per-request wall latencies in seconds, sorted ascending.
    pub latencies: Vec<f64>,
    /// Total graphs served successfully.
    pub graphs: u64,
    /// Wall time of the whole run (first connect to last response).
    pub elapsed_s: f64,
    /// Requests that failed (socket error or an `Error` frame).
    pub errors: u64,
    /// Predictions that were not bit-identical to `expected` (0 when no
    /// expectation was provided).
    pub mismatches: u64,
    /// Distinct model names observed across all responses.
    pub models_seen: BTreeSet<String>,
}

impl LoadReport {
    /// Latency percentile in seconds (`q` in 0..=100) by nearest-rank.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let rank = ((q / 100.0) * self.latencies.len() as f64).ceil() as usize;
        self.latencies[rank.saturating_sub(1).min(self.latencies.len() - 1)]
    }

    /// Graphs served per second of wall time.
    pub fn graphs_per_sec(&self) -> f64 {
        self.graphs as f64 / self.elapsed_s.max(1e-9)
    }

    /// Requests answered per second of wall time.
    pub fn requests_per_sec(&self) -> f64 {
        self.latencies.len() as f64 / self.elapsed_s.max(1e-9)
    }
}

/// Per-client results folded into the final [`LoadReport`].
struct ClientOutcome {
    latencies: Vec<f64>,
    graphs: u64,
    errors: u64,
    mismatches: u64,
    models_seen: BTreeSet<String>,
}

/// Runs one load shape against a live daemon.
///
/// Each request rotates its graphs through `graphs` (client- and
/// request-dependent offsets, so concurrent batches mix different
/// compositions). `expected`, when given, must align index-wise with
/// `graphs`: response bit `i` of a request is compared against
/// `expected[index of its graph]`.
///
/// # Errors
///
/// An error string when no request succeeded (daemon unreachable).
pub fn run_load(
    addr: SocketAddr,
    kernel: &str,
    graphs: &[PowerGraph],
    expected: Option<&[(f64, f64)]>,
    cfg: &LoadConfig,
) -> Result<LoadReport, String> {
    if graphs.is_empty() {
        return Err("loadgen needs at least one graph".into());
    }
    let graphs: Arc<[PowerGraph]> = graphs.to_vec().into();
    let expected: Option<Arc<[(f64, f64)]>> = expected.map(|e| e.to_vec().into());
    let kernel = kernel.to_string();
    let t_run = Instant::now();
    let workers: Vec<thread::JoinHandle<ClientOutcome>> = (0..cfg.clients.max(1))
        .map(|c| {
            let graphs = Arc::clone(&graphs);
            let expected = expected.clone();
            let kernel = kernel.clone();
            let cfg = *cfg;
            thread::spawn(move || client_loop(addr, &kernel, &graphs, expected.as_deref(), &cfg, c))
        })
        .collect();

    let mut report = LoadReport {
        latencies: Vec::new(),
        graphs: 0,
        elapsed_s: 0.0,
        errors: 0,
        mismatches: 0,
        models_seen: BTreeSet::new(),
    };
    for w in workers {
        let Ok(out) = w.join() else {
            report.errors += 1;
            continue;
        };
        report.latencies.extend(out.latencies);
        report.graphs += out.graphs;
        report.errors += out.errors;
        report.mismatches += out.mismatches;
        report.models_seen.extend(out.models_seen);
    }
    report.elapsed_s = t_run.elapsed().as_secs_f64();
    report
        .latencies
        .sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    if report.latencies.is_empty() {
        return Err(format!(
            "no request succeeded against {addr} ({} errors)",
            report.errors
        ));
    }
    Ok(report)
}

/// One `StatsV2` round trip against a live daemon on a fresh connection.
///
/// # Errors
///
/// An error string on connect/frame failures, or when the daemon answers
/// with an `Error` frame (a pre-StatsV2 server).
pub fn fetch_stats_v2(addr: SocketAddr) -> Result<StatsV2Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let req = frame::RawFrame::new(FrameType::StatsV2, Vec::new());
    frame::write_frame(&mut stream, &req).map_err(|e| e.to_string())?;
    let resp = frame::read_frame(&mut stream)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "server closed the connection".to_string())?;
    match resp.frame_type() {
        Some(FrameType::StatsV2Ok) => {
            StatsV2Response::from_payload(&resp.payload).map_err(|e| e.to_string())
        }
        Some(FrameType::Error) => Err("server does not speak StatsV2 (older daemon?)".into()),
        other => Err(format!("unexpected response frame {other:?}")),
    }
}

/// Server-side counter movement across one load run, from `StatsV2`
/// snapshots taken before and after. All `serve_*` series are summed
/// across model labels, so the delta is meaningful even when a run
/// touches several models (or an external daemon serves other traffic —
/// in that case the cross-check is advisory, not exact).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerDelta {
    /// Requests the daemon served to completion (`serve_requests_total`).
    pub requests: u64,
    /// Graphs inside those requests (`serve_graphs_total`).
    pub graphs: u64,
    /// Micro-batches the coalescer formed (`serve_batches_total`).
    pub batches: u64,
    /// Requests the daemon rejected (`serve_errors_total`).
    pub errors: u64,
    /// Batch-size distribution over the run (`serve_batch_size_graphs`
    /// summed across models), when the daemon exported one.
    pub batch_size: Option<HistogramSnapshot>,
}

impl ServerDelta {
    /// True when server counters exactly match the client-observed run:
    /// every OK response was counted once server-side, with the same
    /// total graph count.
    pub fn matches_client(&self, report: &LoadReport) -> bool {
        self.requests == report.latencies.len() as u64 && self.graphs == report.graphs
    }
}

/// Sum of every counter series named `name`, across label sets.
fn counter_sum(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value)
        .sum()
}

/// Bucket-wise sum of every histogram series named `name`; all series of
/// one name share bounds by construction (the registry rejects a bound
/// mismatch), so the merge is positional.
fn histogram_sum(snap: &MetricsSnapshot, name: &str) -> Option<HistogramSnapshot> {
    let mut merged: Option<HistogramSnapshot> = None;
    for h in snap.histograms.iter().filter(|h| h.name == name) {
        match &mut merged {
            None => {
                let mut h = h.clone();
                h.labels.clear();
                merged = Some(h);
            }
            Some(m) => {
                m.count += h.count;
                m.sum += h.sum;
                for (dst, src) in m.buckets.iter_mut().zip(&h.buckets) {
                    dst.1 += src.1;
                }
            }
        }
    }
    merged
}

/// Counter/histogram movement from snapshot `before` to `after`.
///
/// Counters are monotonic, so saturating subtraction only loses
/// information if the daemon restarted mid-run (in which case the whole
/// comparison is void anyway).
pub fn server_delta(before: &StatsV2Response, after: &StatsV2Response) -> ServerDelta {
    let (b, a) = (&before.snapshot, &after.snapshot);
    let diff = |name: &str| counter_sum(a, name).saturating_sub(counter_sum(b, name));
    let batch_size = histogram_sum(a, "serve_batch_size_graphs").map(|mut h| {
        if let Some(prev) = histogram_sum(b, "serve_batch_size_graphs") {
            h.count = h.count.saturating_sub(prev.count);
            h.sum = h.sum.saturating_sub(prev.sum);
            for (dst, src) in h.buckets.iter_mut().zip(&prev.buckets) {
                dst.1 = dst.1.saturating_sub(src.1);
            }
        }
        h
    });
    ServerDelta {
        requests: diff("serve_requests_total"),
        graphs: diff("serve_graphs_total"),
        batches: diff("serve_batches_total"),
        errors: diff("serve_errors_total"),
        batch_size,
    }
}

fn client_loop(
    addr: SocketAddr,
    kernel: &str,
    graphs: &[PowerGraph],
    expected: Option<&[(f64, f64)]>,
    cfg: &LoadConfig,
    client_id: usize,
) -> ClientOutcome {
    let mut out = ClientOutcome {
        latencies: Vec::with_capacity(cfg.requests),
        graphs: 0,
        errors: 0,
        mismatches: 0,
        models_seen: BTreeSet::new(),
    };
    let Ok(mut stream) = TcpStream::connect(addr) else {
        out.errors += cfg.requests as u64;
        return out;
    };
    let _ = stream.set_nodelay(true);
    let per = cfg.graphs_per_request.max(1);
    for r in 0..cfg.requests {
        // rotate through the graph pool so concurrent batches coalesce
        // different compositions
        let indices: Vec<usize> = (0..per)
            .map(|i| (client_id * 31 + r * per + i) % graphs.len())
            .collect();
        let request = PredictRequest {
            kernel: kernel.to_string(),
            graphs: indices.iter().map(|&i| graphs[i].clone()).collect(),
        };
        let raw = frame::RawFrame::new(FrameType::Predict, request.to_payload());
        let t = Instant::now();
        let ok = frame::write_frame(&mut stream, &raw).is_ok();
        let resp = if ok {
            frame::read_frame(&mut stream).ok().flatten()
        } else {
            None
        };
        let Some(resp) = resp else {
            out.errors += 1;
            continue;
        };
        let latency = t.elapsed().as_secs_f64();
        if resp.frame_type() != Some(FrameType::PredictOk) {
            out.errors += 1;
            continue;
        }
        let Ok(decoded) = PredictResponse::from_payload(&resp.payload) else {
            out.errors += 1;
            continue;
        };
        if decoded.predictions.len() != indices.len() {
            out.errors += 1;
            continue;
        }
        out.latencies.push(latency);
        out.graphs += indices.len() as u64;
        out.models_seen.insert(decoded.model);
        if let Some(expected) = expected {
            for (&gi, &(t, d)) in indices.iter().zip(&decoded.predictions) {
                let (et, ed) = expected[gi];
                if t.to_bits() != et.to_bits() || d.to_bits() != ed.to_bits() {
                    out.mismatches += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(latencies: Vec<f64>) -> LoadReport {
        LoadReport {
            latencies,
            graphs: 10,
            elapsed_s: 2.0,
            errors: 0,
            mismatches: 0,
            models_seen: BTreeSet::new(),
        }
    }

    #[test]
    fn percentiles_nearest_rank() {
        let r = report((1..=100).map(|i| i as f64).collect());
        assert_eq!(r.percentile(50.0), 50.0);
        assert_eq!(r.percentile(95.0), 95.0);
        assert_eq!(r.percentile(99.0), 99.0);
        assert_eq!(r.percentile(100.0), 100.0);
    }

    #[test]
    fn percentile_of_one_sample() {
        let r = report(vec![0.25]);
        assert_eq!(r.percentile(50.0), 0.25);
        assert_eq!(r.percentile(99.0), 0.25);
    }

    #[test]
    fn throughput_uses_wall_time() {
        let r = report(vec![0.1; 4]);
        assert!((r.graphs_per_sec() - 5.0).abs() < 1e-9);
        assert!((r.requests_per_sec() - 2.0).abs() < 1e-9);
    }

    fn stats(
        series: &[(&str, &str, u64)],
        hist: &[(&str, u64, u64, &[(u64, u64)])],
    ) -> StatsV2Response {
        let mut v2 = StatsV2Response::default();
        for &(name, model, value) in series {
            v2.snapshot
                .counters
                .push(pg_util::metrics::CounterSnapshot {
                    name: name.into(),
                    labels: vec![("model".into(), model.into())],
                    value,
                });
        }
        for &(model, count, sum, buckets) in hist {
            v2.snapshot.histograms.push(HistogramSnapshot {
                name: "serve_batch_size_graphs".into(),
                labels: vec![("model".into(), model.into())],
                count,
                sum,
                buckets: buckets.to_vec(),
            });
        }
        v2
    }

    #[test]
    fn delta_sums_across_models_and_subtracts_before() {
        let before = stats(
            &[
                ("serve_requests_total", "a", 5),
                ("serve_graphs_total", "a", 20),
            ],
            &[("a", 2, 8, &[(4, 2), (u64::MAX, 0)])],
        );
        let after = stats(
            &[
                ("serve_requests_total", "a", 9),
                ("serve_requests_total", "b", 3),
                ("serve_graphs_total", "a", 36),
                ("serve_graphs_total", "b", 12),
                ("serve_batches_total", "a", 4),
            ],
            &[
                ("a", 5, 20, &[(4, 5), (u64::MAX, 0)]),
                ("b", 1, 4, &[(4, 1), (u64::MAX, 0)]),
            ],
        );
        let d = server_delta(&before, &after);
        assert_eq!(d.requests, 7); // (9 - 5) + 3
        assert_eq!(d.graphs, 28); // (36 - 20) + 12
        assert_eq!(d.batches, 4);
        assert_eq!(d.errors, 0);
        let bs = d.batch_size.expect("batch-size histogram");
        assert_eq!(bs.count, 4); // (5 + 1) - 2
        assert_eq!(bs.sum, 16); // (20 + 4) - 8
        assert_eq!(bs.buckets, vec![(4, 4), (u64::MAX, 0)]);
    }

    #[test]
    fn delta_matches_client_checks_requests_and_graphs() {
        let d = ServerDelta {
            requests: 3,
            graphs: 12,
            batches: 2,
            errors: 0,
            batch_size: None,
        };
        let mut r = report(vec![0.1, 0.2, 0.3]);
        r.graphs = 12;
        assert!(d.matches_client(&r));
        r.graphs = 11;
        assert!(!d.matches_client(&r));
    }

    #[test]
    fn delta_without_snapshots_is_zero() {
        let empty = StatsV2Response::default();
        let d = server_delta(&empty, &empty);
        assert_eq!(d.requests, 0);
        assert!(d.batch_size.is_none());
    }
}
