//! The `powergear::daemon` spawned in-process behind a model registry,
//! PGRPC traffic built from prebuilt graphs, and the daemon-side figures
//! read from its `StatsV2` frame before and after a phase. Used by the
//! `serve_open` workload and by the serving probe of the other traced
//! runs.

use crate::common::{self, Busy};
use crate::openloop::{self, PhaseReport};
use crate::{stats, Outcome};
use pg_graphcon::PowerGraph;
use pg_store::frame::{self, FrameType, PredictRequest, PredictResponse, RawFrame};
use pg_store::{ArtifactMeta, ModelArtifact, ModelRegistry, StatsV2Response};
use pg_util::metrics::MetricsSnapshot;
use pg_util::Rng64;
use powergear::daemon::{Daemon, DaemonConfig, DaemonHandle};
use powergear::PowerGear;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Client connections (= cores of the reference machine).
pub const CONNS: usize = 2;
/// Light open-loop rate, requests/s: about 13% of the closed-loop
/// capacity of one connection (≈150 req/s on a 2-core Xeon) measured when
/// this benchmark was introduced.
pub const LIGHT_RATE: f64 = 20.0;
/// Heavy open-loop rate, requests/s: about 30% of that capacity. Closer
/// to saturation, queueing amplifies the run-to-run speed swing of a
/// shared 2-core machine until the tail latency moves by more than any
/// usable regression bound (at 60 req/s its ten-run IQR/median reached
/// 0.21).
pub const HEAVY_RATE: f64 = 45.0;
/// Most graphs one request carries (each carries 1 to this many).
pub const MAX_GRAPHS: usize = 8;
/// Distinct prebuilt requests traffic cycles through: a multiple of
/// 9 kernels × [`MAX_GRAPHS`] sizes, so every kernel and every size is
/// equally represented whatever the seed.
const REQUESTS: usize = 4 * 9 * MAX_GRAPHS;
/// The daemon's `max_batch` (the `DaemonConfig` default).
const MAX_BATCH: usize = 32;

/// A daemon serving a freshly published registry.
pub struct Harness {
    daemon: DaemonHandle,
    dir: PathBuf,
    /// `ModelRegistry::publish` (ops = artifacts).
    pub save: Busy,
    /// `ModelArtifact::load` of each published file (ops = artifacts).
    pub load: Busy,
}

impl Harness {
    /// Publishes `models` as `(name, kernels it serves, estimator)` into a
    /// new registry at `dir` and spawns the daemon on a free local port.
    ///
    /// # Errors
    ///
    /// A message on any registry or bind failure.
    pub fn start(dir: &Path, models: &[(&str, &[String], &PowerGear)]) -> Result<Harness, String> {
        let registry = ModelRegistry::open(dir).map_err(|e| e.to_string())?;
        let (mut save, mut load) = (Busy::default(), Busy::default());
        for &(name, kernels, gear) in models {
            let artifact = gear.to_artifact(
                ArtifactMeta::now(&kernels.join(","), "total+dynamic"),
                &[],
                0,
            );
            let path = save
                .time(1, || registry.publish(name, &artifact))
                .map_err(|e| e.to_string())?;
            load.time(1, || ModelArtifact::load(&path))
                .map_err(|e| e.to_string())?;
        }
        let mut cfg = DaemonConfig::new("127.0.0.1:0");
        cfg.registry_dir = Some(dir.to_path_buf());
        let daemon = Daemon::bind(cfg).map_err(|e| e.to_string())?.spawn();
        Ok(Harness {
            daemon,
            dir: dir.to_path_buf(),
            save,
            load,
        })
    }

    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.daemon.addr()
    }

    /// One `StatsV2` round trip on a fresh connection.
    ///
    /// # Errors
    ///
    /// A message on any socket or decode failure.
    pub fn stats(&self) -> Result<StatsV2Response, String> {
        let mut s = TcpStream::connect(self.addr()).map_err(|e| e.to_string())?;
        frame::write_frame(&mut s, &RawFrame::new(FrameType::StatsV2, Vec::new()))
            .map_err(|e| e.to_string())?;
        let resp = frame::read_frame(&mut s)
            .map_err(|e| e.to_string())?
            .ok_or("daemon closed the stats connection")?;
        if resp.frame_type() != Some(FrameType::StatsV2Ok) {
            return Err(format!("unexpected stats frame {:?}", resp.frame_type()));
        }
        StatsV2Response::from_payload(&resp.payload).map_err(|e| e.to_string())
    }

    /// Stops the daemon, joins it and removes the registry.
    ///
    /// # Errors
    ///
    /// A message when the daemon reports a failure on shutdown.
    pub fn stop(self) -> Result<(), String> {
        let stopped = self.daemon.stop().map_err(|e| e.to_string());
        std::fs::remove_dir_all(&self.dir).map_err(|e| e.to_string())?;
        stopped
    }
}

/// One kernel's graphs and the in-process `(total, dynamic)` estimates the
/// daemon must reproduce bit for bit.
pub struct KernelPool<'a> {
    /// Kernel name (the routing key).
    pub kernel: String,
    /// Graphs of that kernel.
    pub graphs: Vec<&'a PowerGraph>,
    /// `PowerGear::estimate_graphs` for each graph, from the model that
    /// serves the kernel.
    pub expected: Vec<(f64, f64)>,
}

/// A prebuilt Predict request.
pub struct Request {
    /// The request as sent.
    pub request: PredictRequest,
    /// Its encoded frame.
    pub frame: Vec<u8>,
    /// Bit patterns of the expected predictions.
    pub expected: Vec<(u64, u64)>,
}

/// Builds [`REQUESTS`] requests: request `r` carries `1 + r % MAX_GRAPHS`
/// graphs of kernel `r % pools.len()`, the graphs drawn by `rng`.
pub fn make_requests(pools: &[KernelPool<'_>], rng: &mut Rng64) -> Vec<Request> {
    (0..REQUESTS)
        .map(|r| {
            let pool = &pools[r % pools.len()];
            let picks: Vec<usize> = (0..1 + r % MAX_GRAPHS)
                .map(|_| rng.below(pool.graphs.len()))
                .collect();
            let request = PredictRequest {
                kernel: pool.kernel.clone(),
                graphs: picks.iter().map(|&i| pool.graphs[i].clone()).collect(),
            };
            let raw = RawFrame::new(FrameType::Predict, request.to_payload());
            Request {
                frame: frame::encode_frame(&raw),
                expected: common::bits(
                    &picks.iter().map(|&i| pool.expected[i]).collect::<Vec<_>>(),
                ),
                request,
            }
        })
        .collect()
}

/// True when `resp` is a `PredictOk` whose predictions equal `req`'s
/// expected bits.
fn answers(req: &Request, resp: &RawFrame) -> bool {
    resp.frame_type() == Some(FrameType::PredictOk)
        && PredictResponse::from_payload(&resp.payload)
            .is_ok_and(|r| common::bits(&r.predictions) == req.expected)
}

/// Runs one phase of `schedule` (per-connection due times) against the
/// daemon. The requests are sent in a seeded order that walks all of
/// `requests` before repeating one, each connection from its own offset.
pub fn run_phase(
    addr: SocketAddr,
    requests: &[Request],
    schedule: &[Vec<f64>],
    rng: &mut Rng64,
    stop_after_s: Option<f64>,
) -> PhaseReport {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    rng.shuffle(&mut order);
    let offset = requests.len() / schedule.len().max(1);
    let id = |c: usize, i: usize| order[(c * offset + i) % order.len()];
    let frame_of = |c: usize, i: usize| requests[id(c, i)].frame.as_slice();
    let check = |c: usize, i: usize, resp: &RawFrame| answers(&requests[id(c, i)], resp);
    openloop::run_phase(addr, schedule, &frame_of, &check, stop_after_s)
}

/// Closed loop: each of `conns` connections sends back to back for
/// `seconds`.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Request],
    seconds: f64,
    conns: usize,
    rng: &mut Rng64,
) -> PhaseReport {
    // more slots than any machine can use in `seconds`; the rest are dropped
    let slots = (seconds * 20_000.0) as usize + 1;
    let schedule = vec![vec![0.0; slots]; conns];
    run_phase(addr, requests, &schedule, rng, Some(seconds))
}

/// Open loop: Poisson arrivals at `rate` requests/s for `seconds`.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Request],
    rate: f64,
    seconds: f64,
    rng: &mut Rng64,
) -> PhaseReport {
    let schedule = openloop::poisson_schedule(rate, seconds, CONNS, rng);
    run_phase(addr, requests, &schedule, rng, None)
}

/// Daemon counter and histogram movement across one phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DaemonDelta {
    /// `serve_requests_total`.
    pub requests: u64,
    /// `serve_batches_total`.
    pub batches: u64,
    /// `serve_graphs_total`.
    pub graphs: u64,
    /// `serve_admission_wait_us` buckets.
    pub admission_us: Vec<(u64, u64)>,
    /// `serve_service_time_us` buckets, summed over models.
    pub service_us: Vec<(u64, u64)>,
}

fn counter_sum(s: &MetricsSnapshot, name: &str) -> u64 {
    s.counters
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value)
        .sum()
}

fn buckets_sum(s: &MetricsSnapshot, name: &str) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for h in s.histograms.iter().filter(|h| h.name == name) {
        if out.is_empty() {
            out = h.buckets.clone();
        } else {
            for (dst, src) in out.iter_mut().zip(&h.buckets) {
                dst.1 += src.1;
            }
        }
    }
    out
}

impl DaemonDelta {
    /// Movement from `before` to `after`.
    pub fn between(before: &StatsV2Response, after: &StatsV2Response) -> DaemonDelta {
        let (b, a) = (&before.snapshot, &after.snapshot);
        let diff = |name: &str| counter_sum(a, name).saturating_sub(counter_sum(b, name));
        let hist = |name: &str| {
            let prev = buckets_sum(b, name);
            let mut cur = buckets_sum(a, name);
            for (dst, src) in cur.iter_mut().zip(&prev) {
                dst.1 = dst.1.saturating_sub(src.1);
            }
            cur
        };
        DaemonDelta {
            requests: diff("serve_requests_total"),
            batches: diff("serve_batches_total"),
            graphs: diff("serve_graphs_total"),
            admission_us: hist("serve_admission_wait_us"),
            service_us: hist("serve_service_time_us"),
        }
    }
}

/// Per-layer figures of one traced serving phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeTrace {
    /// `PredictRequest::to_payload` (ops = requests).
    pub encode: Busy,
    /// `PredictRequest::from_payload` on the same payloads (ops = requests).
    pub decode: Busy,
    /// Mean request payload bytes.
    pub request_bytes: f64,
    /// Daemon service time p50 (µs).
    pub service_p50_us: f64,
    /// Daemon admission wait p50 and p99 (µs).
    pub admission_p50_us: f64,
    /// See `admission_p50_us`.
    pub admission_p99_us: f64,
    /// Graphs per daemon batch.
    pub batch_graphs_mean: f64,
    /// Requests coalesced per daemon batch.
    pub requests_per_batch: f64,
    /// In-process `estimate_graphs_with` at the mean batch size (µs).
    pub infer_ref_us: f64,
    /// Client p50 minus request encode, decode, admission p50 and service
    /// p50 (µs).
    pub unattributed_p50_us: f64,
    /// Generator lateness p99 (ms).
    pub lag_p99_ms: f64,
}

/// Attributes `phase` (bracketed by the `delta` snapshots) to layers.
/// `gear` serves `ref_graphs` for the in-process reference.
pub fn attribute(
    requests: &[Request],
    phase: &PhaseReport,
    delta: &DaemonDelta,
    gear: &PowerGear,
    ref_graphs: &[&PowerGraph],
) -> ServeTrace {
    let mut t = ServeTrace::default();
    let mut payloads = Vec::with_capacity(requests.len());
    for r in requests {
        payloads.push(t.encode.time(1, || r.request.to_payload()));
    }
    for p in &payloads {
        std::hint::black_box(t.decode.time(1, || PredictRequest::from_payload(p)).is_ok());
    }
    t.request_bytes =
        payloads.iter().map(Vec::len).sum::<usize>() as f64 / payloads.len().max(1) as f64;
    t.service_p50_us = stats::bucket_quantile(&delta.service_us, 0.5).unwrap_or(f64::NAN);
    t.admission_p50_us = stats::bucket_quantile(&delta.admission_us, 0.5).unwrap_or(f64::NAN);
    t.admission_p99_us = stats::bucket_quantile(&delta.admission_us, 0.99).unwrap_or(f64::NAN);
    t.batch_graphs_mean = delta.graphs as f64 / delta.batches.max(1) as f64;
    t.requests_per_batch = delta.requests as f64 / delta.batches.max(1) as f64;

    let b = (t.batch_graphs_mean.round() as usize).max(1);
    let graphs: Vec<&PowerGraph> = ref_graphs.iter().cycle().take(b).copied().collect();
    let cfg = pg_gnn::ServeConfig::new(b.min(MAX_BATCH), 1);
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 20 || start.elapsed().as_secs_f64() < 0.2 {
        let t0 = Instant::now();
        std::hint::black_box(gear.estimate_graphs_with(&graphs, &cfg));
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    t.infer_ref_us = stats::median(&times).unwrap_or(f64::NAN);

    let client_p50_us = stats::median(&phase.latencies_s).unwrap_or(f64::NAN) * 1e6;
    t.unattributed_p50_us = client_p50_us
        - t.encode.us_per_op()
        - t.decode.us_per_op()
        - t.admission_p50_us
        - t.service_p50_us;
    t.lag_p99_ms = stats::percentile(&phase.lags_s, 99.0).unwrap_or(f64::NAN) * 1e3;
    t
}

/// A phase run between two `StatsV2` snapshots; returns the phase, the
/// daemon delta and the seconds the two snapshots took.
///
/// # Errors
///
/// A message when a snapshot fails.
pub fn observed(
    h: &Harness,
    run: impl FnOnce() -> PhaseReport,
) -> Result<(PhaseReport, DaemonDelta, f64), String> {
    let t0 = Instant::now();
    let before = h.stats()?;
    let mut stats_s = t0.elapsed().as_secs_f64();
    let phase = run();
    let t1 = Instant::now();
    let after = h.stats()?;
    stats_s += t1.elapsed().as_secs_f64();
    Ok((phase, DaemonDelta::between(&before, &after), stats_s))
}

/// The serving layers measured on another workload's model and graphs:
/// the model is published alone (serving every kernel of `pools`) and
/// driven at [`LIGHT_RATE`] for a quarter of `run_seconds` (1 to 5 s).
/// Fills every serving per-layer metric of `out` and counts the requests
/// as operations.
///
/// # Errors
///
/// A message on any registry, socket or snapshot failure.
pub fn probe(
    dir: &Path,
    gear: &PowerGear,
    pools: &[KernelPool<'_>],
    run_seconds: f64,
    rng: &mut Rng64,
    out: &mut Outcome,
) -> Result<(), String> {
    let seconds = (run_seconds * 0.25).clamp(1.0, 5.0);
    let kernels: Vec<String> = pools.iter().map(|p| p.kernel.clone()).collect();
    let h = Harness::start(dir, &[("probe", &kernels, gear)])?;
    let requests = make_requests(pools, rng);
    out.count(&closed_loop(h.addr(), &requests, 0.2, CONNS, rng));
    let (phase, delta, _) = observed(&h, || {
        open_loop(h.addr(), &requests, LIGHT_RATE, seconds, rng)
    })?;
    out.count(&phase);
    let t = attribute(&requests, &phase, &delta, gear, &pools[0].graphs);
    out.set_serve(&t, &h);
    out.set_light(&phase);
    h.stop()
}
