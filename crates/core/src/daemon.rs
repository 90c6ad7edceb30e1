//! The persistent `powergear serve --listen` daemon: a TCP server that
//! speaks the `PGRPC` framing protocol (byte-level spec in
//! `docs/PROTOCOL.md`) over [`std::net::TcpListener`].
//!
//! # Request lifecycle
//!
//! ```text
//! client ──TCP──▶ accept ──▶ connection handler (1 thread/conn)
//!                               │  read_frame / decode PredictRequest
//!                               ▼
//!                         AdmissionQueue  ◀── work-conserving: takes all
//!                               │              queued requests at once,
//!                               ▼              up to --max-batch graphs
//!                         batcher thread
//!                               │  route kernel → model snapshot,
//!                               │  reject wrong-width metadata
//!                               ▼
//!                         predict_heads (member forwards of both heads
//!                               │        on --threads workers; bit-identical
//!                               ▼        to the sequential predict path)
//!                         PredictResponse ──▶ handler ──TCP──▶ client
//! ```
//!
//! The batcher never waits for company: a lone request dispatches as soon
//! as it is queued, and requests that arrive while a batch runs coalesce
//! into the next one (see [`pg_gnn::AdmissionQueue`]). Because inference
//! is bit-identical for any batch composition, coalescing never changes a
//! single bit of any response.
//!
//! # Model routing and hot swap
//!
//! Models come from a [`ModelRegistry`] directory and/or a single `.pgm`
//! artifact. A poller thread rescans the sources every
//! [`DaemonConfig::poll_interval`] by file mtime+length stamp and
//! atomically swaps the routing catalog when anything changed. In-flight
//! requests always execute against the snapshot resolved when their batch
//! starts, and one request is always served by exactly one model
//! ([`pg_store::frame::PredictResponse`] carries the model name and
//! fingerprint so clients can attribute responses) — a swap therefore
//! drops zero requests and mixes zero models within a response. Artifacts
//! that fail to load mid-publish keep their previous healthy version until
//! a later poll succeeds.
//!
//! Operational guidance (tuning, troubleshooting) lives in
//! `docs/SERVING.md`; the overall system map in `docs/ARCHITECTURE.md`.
//!
//! # Examples
//!
//! ```no_run
//! use powergear::daemon::{Daemon, DaemonConfig};
//!
//! let mut cfg = DaemonConfig::new("127.0.0.1:7070");
//! cfg.registry_dir = Some("models".into());
//! let daemon = Daemon::bind(cfg)?;
//! daemon.run()?; // blocks until a Shutdown frame arrives
//! # Ok::<(), powergear::daemon::ServeError>(())
//! ```

use crate::PowerGear;
use pg_gnn::{AdmissionQueue, ServeConfig};
use pg_graphcon::PowerGraph;
use pg_store::frame::{self, error_code};
use pg_store::{ModelArtifact, ModelInfo, ModelRegistry, StoreError};
use pg_util::{metrics, trace};
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, PoisonError, RwLock};
use std::thread;
// pg-lint: allow(wall_clock, reason = "import only; uptime telemetry and mtime-based swap detection are annotated at their use sites — neither feeds model arithmetic")
use std::time::{Duration, Instant, SystemTime};

/// Configuration for [`Daemon::bind`]. The CLI maps `serve --listen` flags
/// onto this one-to-one (`docs/SERVING.md` documents the tuning).
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Address to listen on, e.g. `127.0.0.1:7070` (port 0 picks a free
    /// port; see [`Daemon::local_addr`]).
    pub listen: String,
    /// Most graphs one batch carries (`--max-batch`). The batcher takes
    /// everything queued up to this weight as soon as anything is queued;
    /// a request is never split, so a larger one runs alone.
    pub max_batch: usize,
    /// How often the model sources are rescanned for hot swap
    /// (`--poll-ms`).
    pub poll_interval: Duration,
    /// Inference worker threads per batch, the batcher thread included
    /// (`--threads`); they share the batch's ensemble-member forwards.
    pub threads: usize,
    /// Registry directory of `.pgm` artifacts to route between
    /// (`--registry`).
    pub registry_dir: Option<PathBuf>,
    /// A single `.pgm` artifact to serve (`--model`); combinable with
    /// `registry_dir`, which takes precedence on a name collision.
    pub model_path: Option<PathBuf>,
    /// Address for the plain-text Prometheus exposition endpoint
    /// (`--metrics-listen`); `None` disables it.
    pub metrics_listen: Option<String>,
    /// JSONL file receiving one per-request span trace per served Predict
    /// (`--trace-out`); `None` disables tracing.
    pub trace_out: Option<PathBuf>,
}

impl DaemonConfig {
    /// A config for `listen` with the default knobs: batches of up to 32
    /// graphs, sources polled every 200 ms, one inference thread per
    /// core (as [`ServeConfig::default`]).
    pub fn new(listen: impl Into<String>) -> DaemonConfig {
        DaemonConfig {
            listen: listen.into(),
            max_batch: 32,
            poll_interval: Duration::from_millis(200),
            threads: ServeConfig::default().threads,
            registry_dir: None,
            model_path: None,
            metrics_listen: None,
            trace_out: None,
        }
    }
}

/// Errors from binding or running the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (bind, accept, read, write).
    Io(std::io::Error),
    /// Persistence-layer failure loading a model source.
    Store(StoreError),
    /// Invalid [`DaemonConfig`].
    Config(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "socket error: {e}"),
            ServeError::Store(e) => write!(f, "model store error: {e}"),
            ServeError::Config(msg) => write!(f, "daemon config error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

// ---------------------------------------------------------------------------
// Model catalog: routing + hot swap

/// File identity stamp used for swap detection: (mtime nanos, length).
type Stamp = (u128, u64);

/// One loaded, probe-verified model.
struct LoadedModel {
    name: String,
    /// Kernels the model was trained on (split from
    /// [`pg_store::ArtifactMeta::kernel`]); empty = serves any kernel.
    kernels: Vec<String>,
    kernel_csv: String,
    fingerprint: u64,
    gear: PowerGear,
}

/// The immutable routing catalog a batch executes against. Swaps replace
/// the whole catalog atomically (an `Arc` behind a lock); per-entry
/// `Arc`s are reused across rescans when a file's stamp is unchanged.
#[derive(Default)]
struct Catalog {
    entries: BTreeMap<String, (Stamp, Arc<LoadedModel>)>,
}

impl Catalog {
    /// Deterministic per-kernel routing: the lexicographically first model
    /// trained on `kernel`; models with an empty kernel list act as
    /// wildcard fallbacks (again first-by-name).
    fn route(&self, kernel: &str) -> Option<Arc<LoadedModel>> {
        let mut wildcard = None;
        for (_, model) in self.entries.values() {
            if model.kernels.iter().any(|k| k == kernel) {
                return Some(Arc::clone(model));
            }
            if model.kernels.is_empty() && wildcard.is_none() {
                wildcard = Some(Arc::clone(model));
            }
        }
        wildcard
    }

    fn infos(&self) -> Vec<ModelInfo> {
        self.entries
            .values()
            .map(|(_, m)| ModelInfo {
                name: m.name.clone(),
                kernel: m.kernel_csv.clone(),
                fingerprint: m.fingerprint,
            })
            .collect()
    }
}

fn stamp_of(path: &Path) -> Option<Stamp> {
    let meta = std::fs::metadata(path).ok()?;
    let mtime = meta
        .modified()
        .ok()
        // pg-lint: allow(wall_clock, reason = "reads the file's stored mtime for hot-swap change detection — not a clock sample, and never feeds model arithmetic")
        .and_then(|t| t.duration_since(SystemTime::UNIX_EPOCH).ok())
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    Some((mtime, meta.len()))
}

/// Lists `(name, path)` model sources in precedence order: the single
/// `--model` artifact first, then the registry (later names override
/// earlier ones on collision).
fn list_sources(cfg: &DaemonConfig) -> Vec<(String, PathBuf)> {
    let mut out = Vec::new();
    if let Some(path) = &cfg.model_path {
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "model".to_string());
        out.push((name, path.clone()));
    }
    if let Some(dir) = &cfg.registry_dir {
        if let Ok(reg) = ModelRegistry::open(dir) {
            if let Ok(entries) = reg.list() {
                for e in entries {
                    out.push((e.name, e.path));
                }
            }
        }
    }
    out
}

fn load_model(name: &str, path: &Path) -> Result<LoadedModel, StoreError> {
    let artifact = ModelArtifact::load(path)?;
    let gear = PowerGear::from_artifact(&artifact)?;
    let kernel_csv = artifact.meta.kernel.clone();
    let kernels = kernel_csv
        .split(',')
        .map(|k| k.trim().to_string())
        .filter(|k| !k.is_empty())
        .collect();
    Ok(LoadedModel {
        name: name.to_string(),
        kernels,
        kernel_csv,
        fingerprint: artifact.meta.train_fingerprint,
        gear,
    })
}

/// Rescans the model sources, reusing loaded models whose file stamp is
/// unchanged. Returns the fresh catalog, whether it differs from `prev`
/// (membership or any reloaded entry), and the number of load failures
/// (failed entries keep their previous healthy version, so a half-written
/// publish never evicts a serving model).
fn rescan(cfg: &DaemonConfig, prev: &Catalog) -> (Catalog, bool, u64) {
    let mut next = Catalog::default();
    let mut changed = false;
    let mut load_errors = 0u64;
    for (name, path) in list_sources(cfg) {
        let stamp = stamp_of(&path).unwrap_or((0, 0));
        match prev.entries.get(&name) {
            Some((old_stamp, model)) if *old_stamp == stamp => {
                next.entries.insert(name, (stamp, Arc::clone(model)));
            }
            old => match load_model(&name, &path) {
                Ok(model) => {
                    changed = true;
                    next.entries.insert(name, (stamp, Arc::new(model)));
                }
                Err(_) => {
                    load_errors += 1;
                    if let Some((old_stamp, model)) = old {
                        // keep serving the last healthy version
                        next.entries.insert(name, (*old_stamp, Arc::clone(model)));
                    }
                }
            },
        }
    }
    if next.entries.len() != prev.entries.len() || !next.entries.keys().eq(prev.entries.keys()) {
        changed = true;
    }
    (next, changed, load_errors)
}

// ---------------------------------------------------------------------------
// Shared daemon state

/// One admitted Predict request: the unit the batcher never splits.
struct Job {
    kernel: String,
    graphs: Vec<PowerGraph>,
    reply: mpsc::Sender<frame::RawFrame>,
    /// Admission timestamp ([`metrics::monotonic_us`]) for the
    /// admission-wait histogram and the `admission` span.
    admitted_us: u64,
    /// Per-request span trace, present only when `--trace-out` is set.
    trace: Option<trace::Trace>,
}

/// Pre-resolved registry handles for the request-path metrics that are
/// not per-model (per-model handles resolve per batch in
/// [`execute_group`]). The metric catalog is documented in
/// `docs/OBSERVABILITY.md`.
struct ServeMetrics {
    admission_wait_us: metrics::Histogram,
    queue_depth: metrics::Gauge,
    errors_total: metrics::Counter,
    load_errors_total: metrics::Counter,
    swaps_total: metrics::Counter,
}

impl ServeMetrics {
    fn resolve() -> ServeMetrics {
        ServeMetrics {
            admission_wait_us: metrics::histogram(
                "serve_admission_wait_us",
                metrics::buckets::LATENCY_US,
            ),
            queue_depth: metrics::gauge("serve_queue_depth"),
            errors_total: metrics::counter("serve_errors_total"),
            load_errors_total: metrics::counter("serve_load_errors_total"),
            swaps_total: metrics::counter("serve_swaps_total"),
        }
    }
}

struct Shared {
    cfg: DaemonConfig,
    addr: SocketAddr,
    queue: AdmissionQueue<Job>,
    catalog: RwLock<Arc<Catalog>>,
    stop: AtomicBool,
    // pg-lint: allow(wall_clock, reason = "uptime telemetry for the Stats frame only; never feeds model arithmetic")
    started: Instant,
    requests: AtomicU64,
    graphs: AtomicU64,
    batches: AtomicU64,
    errors: AtomicU64,
    swaps: AtomicU64,
    load_errors: AtomicU64,
    metrics: ServeMetrics,
    trace_sink: Option<trace::TraceSink>,
}

impl Shared {
    fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog.read().unwrap_or_else(PoisonError::into_inner))
    }

    fn stats(&self) -> frame::StatsResponse {
        frame::StatsResponse {
            // pg-lint: allow(wall_clock, reason = "uptime telemetry for the Stats frame only; never feeds model arithmetic")
            uptime_s: self.started.elapsed().as_secs_f64(),
            requests: self.requests.load(Ordering::Relaxed),
            graphs: self.graphs.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            models: self.catalog().entries.len() as u64,
        }
    }

    /// A full registry snapshot for the `StatsV2` frame (see
    /// [`metrics::snapshot`]).
    fn stats_v2(&self) -> frame::StatsV2Response {
        frame::StatsV2Response {
            // pg-lint: allow(wall_clock, reason = "uptime telemetry for the Stats frame only; never feeds model arithmetic")
            uptime_s: self.started.elapsed().as_secs_f64(),
            snapshot: metrics::snapshot(),
        }
    }

    /// Counts one served error on both the v1 Stats counter and the
    /// registry.
    fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        self.metrics.errors_total.inc();
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Initiates shutdown: further accepts/admissions are refused, queued
    /// work drains, and the accept loop is woken by a loopback connect.
    fn begin_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue.close();
        // Wake the blocking accept(); listening on a wildcard address
        // still accepts loopback connections to the same port.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST));
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_millis(500));
    }
}

// ---------------------------------------------------------------------------
// The daemon

/// A bound-but-not-yet-running serving daemon. [`Daemon::run`] blocks the
/// calling thread (the CLI path); [`Daemon::spawn`] runs it on a
/// background thread and returns a [`DaemonHandle`] (the test path).
pub struct Daemon {
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    shared: Arc<Shared>,
}

impl Daemon {
    /// Binds the listen socket and loads the initial model catalog.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when no model source is configured or a
    /// batching knob is zero; [`ServeError::Io`] when the bind fails.
    pub fn bind(cfg: DaemonConfig) -> Result<Daemon, ServeError> {
        if cfg.registry_dir.is_none() && cfg.model_path.is_none() {
            return Err(ServeError::Config(
                "no model source: set registry_dir and/or model_path".into(),
            ));
        }
        if cfg.max_batch == 0 {
            return Err(ServeError::Config("max_batch must be positive".into()));
        }
        if cfg.threads == 0 {
            return Err(ServeError::Config("threads must be positive".into()));
        }
        let listener = TcpListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        let metrics_listener = match &cfg.metrics_listen {
            Some(listen) => Some(TcpListener::bind(listen)?),
            None => None,
        };
        let trace_sink = match &cfg.trace_out {
            Some(path) => Some(trace::TraceSink::create(path)?),
            None => None,
        };
        let (catalog, _, load_errors) = rescan(&cfg, &Catalog::default());
        let queue = AdmissionQueue::new(cfg.max_batch);
        let serve_metrics = ServeMetrics::resolve();
        serve_metrics.load_errors_total.add(load_errors);
        let shared = Arc::new(Shared {
            cfg,
            addr,
            queue,
            catalog: RwLock::new(Arc::new(catalog)),
            stop: AtomicBool::new(false),
            // pg-lint: allow(wall_clock, reason = "uptime telemetry for the Stats frame only; never feeds model arithmetic")
            started: Instant::now(),
            requests: AtomicU64::new(0),
            graphs: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            load_errors: AtomicU64::new(load_errors),
            metrics: serve_metrics,
            trace_sink,
        });
        Ok(Daemon {
            listener,
            metrics_listener,
            shared,
        })
    }

    /// The bound Prometheus endpoint address, when `metrics_listen` is
    /// configured (resolves port 0 to the actual port).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The currently loaded models, sorted by name.
    pub fn models(&self) -> Vec<ModelInfo> {
        self.shared.catalog().infos()
    }

    /// Model-source load failures observed so far (initial load + polls).
    pub fn load_errors(&self) -> u64 {
        self.shared.load_errors.load(Ordering::Relaxed)
    }

    /// Runs the daemon on the calling thread until a `Shutdown` frame
    /// arrives (or [`DaemonHandle::stop`] is called on a spawned daemon).
    /// Queued requests drain before shutdown completes — zero admitted
    /// requests are dropped.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] only for fatal listener failures; per-connection
    /// errors are answered with `Error` frames and never stop the daemon.
    pub fn run(self) -> Result<(), ServeError> {
        let shared = self.shared;
        let batcher = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || batcher_loop(&shared))
        };
        let poller = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || poller_loop(&shared))
        };
        let exposition = self.metrics_listener.map(|listener| {
            let shared = Arc::clone(&shared);
            thread::spawn(move || exposition_loop(&shared, &listener))
        });
        for stream in self.listener.incoming() {
            if shared.stopping() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let shared = Arc::clone(&shared);
            // Handlers are detached: one blocked on a silent client must
            // not delay shutdown; it exits on its own read timeout.
            thread::spawn(move || handle_conn(&shared, stream));
        }
        shared.begin_stop();
        let _ = batcher.join();
        let _ = poller.join();
        if let Some(t) = exposition {
            let _ = t.join();
        }
        Ok(())
    }

    /// Runs the daemon on a background thread; the returned handle stops
    /// it and joins.
    pub fn spawn(self) -> DaemonHandle {
        let shared = Arc::clone(&self.shared);
        let metrics_addr = self.metrics_addr();
        let thread = thread::spawn(move || self.run());
        DaemonHandle {
            shared,
            metrics_addr,
            thread,
        }
    }
}

/// Handle to a daemon running via [`Daemon::spawn`].
pub struct DaemonHandle {
    shared: Arc<Shared>,
    metrics_addr: Option<SocketAddr>,
    thread: thread::JoinHandle<Result<(), ServeError>>,
}

impl DaemonHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The Prometheus endpoint address, when one is configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Serving counters so far.
    pub fn stats(&self) -> frame::StatsResponse {
        self.shared.stats()
    }

    /// Stops the daemon (draining queued requests) and joins its threads.
    ///
    /// # Errors
    ///
    /// Propagates the run loop's [`ServeError`], or
    /// [`ServeError::Config`] if the daemon thread panicked.
    pub fn stop(self) -> Result<(), ServeError> {
        self.shared.begin_stop();
        self.thread
            .join()
            .unwrap_or_else(|_| Err(ServeError::Config("daemon thread panicked".into())))
    }
}

// ---------------------------------------------------------------------------
// Connection handling

/// How often a blocked read wakes up to check the stop flag.
const READ_POLL: Duration = Duration::from_millis(100);

fn io_would_block(e: &StoreError) -> bool {
    matches!(
        e,
        StoreError::Io(io) if matches!(
            io.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )
    )
}

fn error_frame(code: u16, message: impl Into<String>) -> frame::RawFrame {
    let payload = frame::ErrorFrame {
        code,
        message: message.into(),
    }
    .to_payload();
    frame::RawFrame::new(frame::FrameType::Error, payload)
}

/// Serves one client connection: a loop of read-frame → respond. Framing
/// errors answer with `Error { BAD_REQUEST }` and close (the byte stream
/// is no longer trustworthy); unknown frame types answer with
/// `Error { UNKNOWN_TYPE }` and keep the connection open (forward
/// compatibility, `docs/PROTOCOL.md` §versioning).
fn handle_conn(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    loop {
        if shared.stopping() {
            return;
        }
        match frame::read_frame(&mut stream) {
            Ok(None) => return, // clean EOF between frames
            Ok(Some(req)) => {
                let closing = matches!(req.frame_type(), Some(frame::FrameType::Shutdown));
                if respond(shared, &mut stream, req).is_err() || closing {
                    return;
                }
            }
            Err(ref e) if io_would_block(e) => continue, // poll the stop flag
            Err(e) => {
                shared.record_error();
                let f = error_frame(error_code::BAD_REQUEST, format!("bad frame: {e}"));
                let _ = frame::write_frame(&mut stream, &f);
                return;
            }
        }
    }
}

/// Dispatches one well-framed request and writes the response frame.
fn respond(
    shared: &Shared,
    stream: &mut TcpStream,
    req: frame::RawFrame,
) -> Result<(), StoreError> {
    let resp = match req.frame_type() {
        Some(frame::FrameType::Ping) => frame::RawFrame::new(frame::FrameType::Pong, Vec::new()),
        Some(frame::FrameType::Stats) => {
            frame::RawFrame::new(frame::FrameType::StatsOk, shared.stats().to_payload())
        }
        Some(frame::FrameType::StatsV2) => {
            frame::RawFrame::new(frame::FrameType::StatsV2Ok, shared.stats_v2().to_payload())
        }
        Some(frame::FrameType::ModelList) => {
            let payload = frame::ModelListResponse {
                models: shared.catalog().infos(),
            }
            .to_payload();
            frame::RawFrame::new(frame::FrameType::ModelListOk, payload)
        }
        Some(frame::FrameType::Shutdown) => {
            shared.begin_stop();
            frame::RawFrame::new(frame::FrameType::ShutdownOk, Vec::new())
        }
        Some(frame::FrameType::Predict) => predict(shared, &req.payload),
        _ => {
            shared.record_error();
            error_frame(
                error_code::UNKNOWN_TYPE,
                format!("unsupported frame type 0x{:02x}", req.tag),
            )
        }
    };
    let _t = metrics::stage("serve.write");
    frame::write_frame(stream, &resp)
}

/// Admits one Predict request and blocks until the batcher replies.
fn predict(shared: &Shared, payload: &[u8]) -> frame::RawFrame {
    let decoded = {
        let _t = metrics::stage("serve.decode");
        frame::PredictRequest::from_payload(payload)
    };
    let request = match decoded {
        Ok(r) => r,
        Err(e) => {
            shared.record_error();
            return error_frame(error_code::BAD_REQUEST, format!("bad predict request: {e}"));
        }
    };
    let (tx, rx) = mpsc::channel();
    let weight = request.graphs.len();
    let job = Job {
        trace: shared
            .trace_sink
            .is_some()
            .then(|| trace::Trace::begin(&request.kernel)),
        kernel: request.kernel,
        graphs: request.graphs,
        reply: tx,
        admitted_us: metrics::monotonic_us(),
    };
    if !shared.queue.push(job, weight) {
        shared.record_error();
        return error_frame(error_code::SHUTTING_DOWN, "daemon is shutting down");
    }
    shared.metrics.queue_depth.add(1);
    shared.requests.fetch_add(1, Ordering::Relaxed);
    match rx.recv() {
        Ok(f) => f,
        Err(_) => {
            shared.record_error();
            error_frame(error_code::INTERNAL, "batcher dropped the request")
        }
    }
}

// ---------------------------------------------------------------------------
// Batcher and poller threads

/// Pulls coalesced batches off the admission queue and executes them.
/// Exits when the queue is closed *and drained* — admitted requests are
/// always answered, which is the "hot swap / shutdown drops zero
/// requests" guarantee the protocol tests enforce.
fn batcher_loop(shared: &Shared) {
    while let Some(mut jobs) = shared.queue.next_batch() {
        if jobs.is_empty() {
            continue;
        }
        shared.metrics.queue_depth.add(-(jobs.len() as i64));
        let pulled_us = metrics::monotonic_us();
        for job in &mut jobs {
            let wait_us = pulled_us.saturating_sub(job.admitted_us);
            shared.metrics.admission_wait_us.observe(wait_us);
            if let Some(t) = &mut job.trace {
                t.span("admission", job.admitted_us, wait_us);
            }
        }
        // One model snapshot per batch: resolved here, so a concurrent
        // swap affects only later batches and never splits a request.
        let catalog = shared.catalog();
        // name → (model, jobs) preserving FIFO job order within a group.
        let mut groups: BTreeMap<String, (Arc<LoadedModel>, Vec<Job>)> = BTreeMap::new();
        for job in jobs {
            let routed = match catalog.route(&job.kernel) {
                None => Err((
                    error_code::NO_MODEL,
                    format!("no loaded model serves kernel `{}`", job.kernel),
                )),
                Some(model) => match metadata_mismatch(&model, &job.graphs) {
                    Some(message) => Err((error_code::BAD_REQUEST, message)),
                    None => Ok(model),
                },
            };
            match routed {
                Ok(model) => groups
                    .entry(model.name.clone())
                    .or_insert_with(|| (model, Vec::new()))
                    .1
                    .push(job),
                Err((code, message)) => {
                    shared.record_error();
                    let _ = job.reply.send(error_frame(code, message));
                }
            }
        }
        let routed_us = metrics::monotonic_us();
        for (name, (model, jobs)) in groups {
            execute_group(shared, &name, &model, jobs, pulled_us, routed_us);
        }
    }
}

/// Why `model` cannot serve `graphs`, if it cannot: the first graph whose
/// metadata width differs from what a member that reads metadata expects.
/// Checked per request at routing time, so the answer never depends on
/// which other requests share the batch.
fn metadata_mismatch(model: &LoadedModel, graphs: &[PowerGraph]) -> Option<String> {
    let heads = [&model.gear.total_model, &model.gear.dynamic_model];
    graphs.iter().enumerate().find_map(|(i, g)| {
        let expected = heads
            .iter()
            .flat_map(|h| &h.models)
            .map(|m| &m.config)
            .find(|c| c.use_metadata && c.meta_dim != g.meta.len())?
            .meta_dim;
        Some(format!(
            "graph {i} carries {} metadata values; model `{}` expects {expected}",
            g.meta.len(),
            model.name
        ))
    })
}

/// Runs one model's share of a micro-batch through the engine and fans
/// the predictions back out to the per-request reply channels.
/// `pulled_us`/`routed_us` bound the batch's grouping phase for the
/// `batching`/`routing` trace spans.
fn execute_group(
    shared: &Shared,
    name: &str,
    model: &LoadedModel,
    jobs: Vec<Job>,
    pulled_us: u64,
    routed_us: u64,
) {
    let refs: Vec<&PowerGraph> = jobs.iter().flat_map(|j| j.graphs.iter()).collect();
    let labels = [("model", name)];
    metrics::counter_with("serve_requests_total", &labels).add(jobs.len() as u64);
    metrics::counter_with("serve_graphs_total", &labels).add(refs.len() as u64);
    metrics::counter_with("serve_batches_total", &labels).inc();
    metrics::histogram_with(
        "serve_batch_size_graphs",
        &labels,
        metrics::buckets::SIZE_POW2,
    )
    .observe(refs.len() as u64);
    let service_timer = metrics::histogram_with(
        "serve_service_time_us",
        &labels,
        metrics::buckets::LATENCY_US,
    )
    .start_timer();
    let infer_start_us = metrics::monotonic_us();
    let preds = if refs.is_empty() {
        Vec::new()
    } else {
        let serve = ServeConfig::new(
            shared.cfg.max_batch.min(refs.len()).max(1),
            shared.cfg.threads,
        );
        model.gear.estimate_graphs_with(&refs, &serve)
    };
    let infer_us = service_timer.stop();
    shared.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .graphs
        .fetch_add(refs.len() as u64, Ordering::Relaxed);
    let mut offset = 0usize;
    for mut job in jobs {
        let n = job.graphs.len();
        let predictions = preds[offset..offset + n].to_vec();
        offset += n;
        let encode_start_us = metrics::monotonic_us();
        let payload = frame::PredictResponse {
            model: name.to_string(),
            fingerprint: model.fingerprint,
            predictions,
        }
        .to_payload();
        let f = frame::RawFrame::new(frame::FrameType::PredictOk, payload);
        if let (Some(sink), Some(t)) = (&shared.trace_sink, &mut job.trace) {
            t.span("batching", pulled_us, routed_us.saturating_sub(pulled_us));
            t.span(
                "routing",
                routed_us,
                infer_start_us.saturating_sub(routed_us),
            );
            t.span("inference", infer_start_us, infer_us);
            t.span(
                "encode",
                encode_start_us,
                metrics::monotonic_us().saturating_sub(encode_start_us),
            );
            sink.record(t);
        }
        let _ = job.reply.send(f);
    }
}

/// Answers every HTTP connection on the metrics listener with the full
/// registry rendered as Prometheus text exposition (HTTP/1.0, one
/// response per connection). Non-blocking accept keeps shutdown prompt.
fn exposition_loop(shared: &Shared, listener: &TcpListener) {
    use std::io::{Read, Write};
    const IDLE: Duration = Duration::from_millis(50);
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shared.stopping() {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                // Drain the request head (best effort; any request path
                // gets the same document).
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                let body = metrics::render_prometheus(&shared.stats_v2().snapshot);
                let head = format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                );
                let _ = stream
                    .write_all(head.as_bytes())
                    .and_then(|()| stream.write_all(body.as_bytes()));
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::sleep(IDLE),
            Err(_) => thread::sleep(IDLE),
        }
    }
}

/// Rescans the model sources every `poll_interval` and atomically swaps
/// the catalog when anything changed (sleeping in short slices so
/// shutdown stays responsive).
fn poller_loop(shared: &Shared) {
    const SLICE: Duration = Duration::from_millis(20);
    loop {
        let mut slept = Duration::ZERO;
        while slept < shared.cfg.poll_interval {
            if shared.stopping() {
                return;
            }
            let step = SLICE.min(shared.cfg.poll_interval - slept);
            thread::sleep(step);
            slept += step;
        }
        let prev = shared.catalog();
        let (next, changed, load_errors) = rescan(&shared.cfg, &prev);
        shared.load_errors.fetch_add(load_errors, Ordering::Relaxed);
        shared.metrics.load_errors_total.add(load_errors);
        if changed {
            let mut slot = shared
                .catalog
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            *slot = Arc::new(next);
            drop(slot);
            shared.swaps.fetch_add(1, Ordering::Relaxed);
            shared.metrics.swaps_total.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_gnn::{Ensemble, ModelConfig, PowerModel};
    use pg_store::ArtifactMeta;
    use std::io::Write;
    use std::sync::atomic::AtomicUsize;

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("pg_daemon_{tag}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A deterministic untrained estimator (seeded Glorot init) — fast to
    /// build, bit-stable to serve.
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
        let nodes = 3 + (seed % 3) as usize;
        let f = PowerGraph::NODE_FEATS;
        let mut node_feats = vec![0.0f32; nodes * f];
        for n in 0..nodes {
            node_feats[n * f + (seed as usize + n) % f] = 1.0;
        }
        let edges: Vec<(u32, u32)> = (1..nodes as u32).map(|d| (d - 1, d)).collect();
        let ne = edges.len();
        PowerGraph {
            kernel: "daemon".into(),
            design_id: format!("d{seed}"),
            num_nodes: nodes,
            node_feats,
            edges,
            edge_feats: (0..ne).map(|i| [0.1 * i as f32, 0.2, 0.3, 0.4]).collect(),
            edge_rel: (0..ne).map(|_| pg_graphcon::Relation::NN).collect(),
            meta: vec![0.5; 10],
        }
    }

    fn publish(dir: &Path, name: &str, kernel: &str, gear: &PowerGear, fp: u64) {
        let reg = ModelRegistry::open(dir).unwrap();
        let mut meta = ArtifactMeta::now(kernel, "total+dynamic");
        meta.train_fingerprint = fp;
        reg.publish(name, &gear.to_artifact(meta, &[], 0)).unwrap();
    }

    fn daemon_on(dir: &Path) -> DaemonHandle {
        let mut cfg = DaemonConfig::new("127.0.0.1:0");
        cfg.registry_dir = Some(dir.to_path_buf());
        cfg.poll_interval = Duration::from_millis(25);
        Daemon::bind(cfg).unwrap().spawn()
    }

    fn rpc(stream: &mut TcpStream, req: &frame::RawFrame) -> frame::RawFrame {
        frame::write_frame(stream, req).unwrap();
        frame::read_frame(stream).unwrap().expect("response frame")
    }

    #[test]
    fn bind_requires_a_model_source() {
        let cfg = DaemonConfig::new("127.0.0.1:0");
        assert!(matches!(Daemon::bind(cfg), Err(ServeError::Config(_))));
    }

    #[test]
    fn bind_rejects_zero_knobs() {
        let dir = tmp_dir("zero");
        let mut cfg = DaemonConfig::new("127.0.0.1:0");
        cfg.registry_dir = Some(dir.clone());
        cfg.max_batch = 0;
        assert!(matches!(Daemon::bind(cfg), Err(ServeError::Config(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ping_stats_models_and_shutdown() {
        let dir = tmp_dir("basic");
        let gear = tiny_gear(1);
        publish(&dir, "mvt-v1", "mvt", &gear, 0xabc);
        let handle = daemon_on(&dir);
        let mut s = TcpStream::connect(handle.addr()).unwrap();

        let pong = rpc(
            &mut s,
            &frame::RawFrame::new(frame::FrameType::Ping, vec![]),
        );
        assert_eq!(pong.frame_type(), Some(frame::FrameType::Pong));

        let resp = rpc(
            &mut s,
            &frame::RawFrame::new(frame::FrameType::ModelList, vec![]),
        );
        assert_eq!(resp.frame_type(), Some(frame::FrameType::ModelListOk));
        let list = frame::ModelListResponse::from_payload(&resp.payload).unwrap();
        assert_eq!(list.models.len(), 1);
        assert_eq!(list.models[0].name, "mvt-v1");
        assert_eq!(list.models[0].kernel, "mvt");
        assert_eq!(list.models[0].fingerprint, 0xabc);

        let resp = rpc(
            &mut s,
            &frame::RawFrame::new(frame::FrameType::Stats, vec![]),
        );
        let stats = frame::StatsResponse::from_payload(&resp.payload).unwrap();
        assert_eq!(stats.models, 1);
        assert!(stats.uptime_s >= 0.0);

        let resp = rpc(
            &mut s,
            &frame::RawFrame::new(frame::FrameType::Shutdown, vec![]),
        );
        assert_eq!(resp.frame_type(), Some(frame::FrameType::ShutdownOk));
        handle.stop().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predict_is_bit_identical_to_in_process_estimates() {
        let dir = tmp_dir("predict");
        let gear = tiny_gear(2);
        publish(&dir, "mvt-v1", "mvt", &gear, 7);
        let handle = daemon_on(&dir);
        let graphs: Vec<PowerGraph> = (0..5).map(graph).collect();
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        let expect = gear.estimate_graphs(&refs);

        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let req = frame::PredictRequest {
            kernel: "mvt".into(),
            graphs: graphs.clone(),
        };
        let resp = rpc(
            &mut s,
            &frame::RawFrame::new(frame::FrameType::Predict, req.to_payload()),
        );
        assert_eq!(resp.frame_type(), Some(frame::FrameType::PredictOk));
        let out = frame::PredictResponse::from_payload(&resp.payload).unwrap();
        assert_eq!(out.model, "mvt-v1");
        assert_eq!(out.fingerprint, 7);
        assert_eq!(out.predictions.len(), expect.len());
        for ((t1, d1), (t2, d2)) in out.predictions.iter().zip(&expect) {
            assert_eq!(t1.to_bits(), t2.to_bits());
            assert_eq!(d1.to_bits(), d2.to_bits());
        }
        handle.stop().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unroutable_kernel_gets_no_model_error() {
        let dir = tmp_dir("nomodel");
        publish(&dir, "mvt-v1", "mvt", &tiny_gear(3), 1);
        let handle = daemon_on(&dir);
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let req = frame::PredictRequest {
            kernel: "gemm".into(),
            graphs: vec![graph(0)],
        };
        let resp = rpc(
            &mut s,
            &frame::RawFrame::new(frame::FrameType::Predict, req.to_payload()),
        );
        assert_eq!(resp.frame_type(), Some(frame::FrameType::Error));
        let err = frame::ErrorFrame::from_payload(&resp.payload).unwrap();
        assert_eq!(err.code, error_code::NO_MODEL);
        handle.stop().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_frame_type_keeps_connection_open() {
        let dir = tmp_dir("unknown");
        publish(&dir, "m", "mvt", &tiny_gear(4), 1);
        let handle = daemon_on(&dir);
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let bogus = frame::RawFrame {
            tag: 0x7e,
            payload: vec![1, 2, 3],
        };
        let resp = rpc(&mut s, &bogus);
        assert_eq!(resp.frame_type(), Some(frame::FrameType::Error));
        let err = frame::ErrorFrame::from_payload(&resp.payload).unwrap();
        assert_eq!(err.code, error_code::UNKNOWN_TYPE);
        // the connection survives: a Ping still works
        let pong = rpc(
            &mut s,
            &frame::RawFrame::new(frame::FrameType::Ping, vec![]),
        );
        assert_eq!(pong.frame_type(), Some(frame::FrameType::Pong));
        handle.stop().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_bytes_get_bad_request_then_close() {
        let dir = tmp_dir("garbage");
        publish(&dir, "m", "mvt", &tiny_gear(5), 1);
        let handle = daemon_on(&dir);
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        // exactly one header's worth of garbage: unread bytes at close
        // would RST the socket and race the error frame away
        s.write_all(b"not a PGRPC hdr!").unwrap();
        let resp = frame::read_frame(&mut s).unwrap().expect("error frame");
        assert_eq!(resp.frame_type(), Some(frame::FrameType::Error));
        let err = frame::ErrorFrame::from_payload(&resp.payload).unwrap();
        assert_eq!(err.code, error_code::BAD_REQUEST);
        // server closes the desynced connection
        assert!(frame::read_frame(&mut s).unwrap().is_none());
        handle.stop().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wildcard_model_serves_any_kernel_and_specific_wins() {
        let dir = tmp_dir("route");
        publish(&dir, "any", "", &tiny_gear(6), 10);
        publish(&dir, "mvt-v1", "mvt", &tiny_gear(7), 20);
        let handle = daemon_on(&dir);
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        for (kernel, want) in [("mvt", "mvt-v1"), ("gemm", "any")] {
            let req = frame::PredictRequest {
                kernel: kernel.into(),
                graphs: vec![graph(1)],
            };
            let resp = rpc(
                &mut s,
                &frame::RawFrame::new(frame::FrameType::Predict, req.to_payload()),
            );
            assert_eq!(resp.frame_type(), Some(frame::FrameType::PredictOk));
            let out = frame::PredictResponse::from_payload(&resp.payload).unwrap();
            assert_eq!(out.model, want, "kernel {kernel}");
        }
        handle.stop().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_v2_metrics_endpoint_and_traces() {
        let dir = tmp_dir("obs");
        // Unique model name: per-model counters are process-global, so
        // exact assertions need a name no other test routes to.
        publish(&dir, "obsd-v1", "obsd", &tiny_gear(11), 42);
        let trace_path = dir.join("traces.jsonl");
        let mut cfg = DaemonConfig::new("127.0.0.1:0");
        cfg.registry_dir = Some(dir.clone());
        cfg.metrics_listen = Some("127.0.0.1:0".into());
        cfg.trace_out = Some(trace_path.clone());
        let daemon = Daemon::bind(cfg).unwrap();
        let metrics_addr = daemon.metrics_addr().expect("metrics listener bound");
        let handle = daemon.spawn();

        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let total_reqs = 3usize;
        let graphs_per_req = 2usize;
        for i in 0..total_reqs {
            let req = frame::PredictRequest {
                kernel: "obsd".into(),
                graphs: (0..graphs_per_req as u64)
                    .map(|g| graph(i as u64 + g))
                    .collect(),
            };
            let resp = rpc(
                &mut s,
                &frame::RawFrame::new(frame::FrameType::Predict, req.to_payload()),
            );
            assert_eq!(resp.frame_type(), Some(frame::FrameType::PredictOk));
        }

        // StatsV2 carries the full registry snapshot.
        let resp = rpc(
            &mut s,
            &frame::RawFrame::new(frame::FrameType::StatsV2, vec![]),
        );
        assert_eq!(resp.frame_type(), Some(frame::FrameType::StatsV2Ok));
        let v2 = frame::StatsV2Response::from_payload(&resp.payload).unwrap();
        assert!(v2.uptime_s >= 0.0);
        let labels = [("model", "obsd-v1")];
        assert_eq!(
            v2.snapshot.counter_value("serve_requests_total", &labels),
            Some(total_reqs as u64)
        );
        assert_eq!(
            v2.snapshot.counter_value("serve_graphs_total", &labels),
            Some((total_reqs * graphs_per_req) as u64)
        );
        let batches = v2
            .snapshot
            .counter_value("serve_batches_total", &labels)
            .unwrap();
        assert!(batches >= 1 && batches <= total_reqs as u64);
        let bs = v2
            .snapshot
            .histogram("serve_batch_size_graphs", &labels)
            .unwrap();
        assert_eq!(bs.count, batches);
        assert_eq!(bs.sum, (total_reqs * graphs_per_req) as u64);
        let st = v2
            .snapshot
            .histogram("serve_service_time_us", &labels)
            .unwrap();
        assert_eq!(st.count, batches);
        // All admitted work is done, so the queue gauge is back to zero.
        assert_eq!(v2.snapshot.gauge_value("serve_queue_depth", &[]), Some(0));
        // Every request was checksummed, decoded and answered under its
        // stage timer. Stage series are process-wide, so other tests can
        // only add to the counts.
        for stage in ["frame.crc", "serve.decode", "serve.write"] {
            let timed = v2
                .snapshot
                .histogram(metrics::STAGE_TIME_US, &[("stage", stage)])
                .unwrap_or_else(|| panic!("no `{stage}` stage"));
            assert!(timed.count >= total_reqs as u64, "{stage}: {timed:?}");
        }

        // The HTTP endpoint serves the same registry as Prometheus text.
        let mut http = TcpStream::connect(metrics_addr).unwrap();
        http.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut text = String::new();
        use std::io::Read;
        http.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(text.contains("text/plain; version=0.0.4"));
        assert!(text.contains("# TYPE serve_requests_total counter"));
        assert!(text.contains("serve_requests_total{model=\"obsd-v1\"}"));
        assert!(text.contains("serve_service_time_us_bucket{model=\"obsd-v1\",le=\"+Inf\"}"));

        handle.stop().unwrap();

        // One JSONL trace per served request, with all five spans.
        let traces = std::fs::read_to_string(&trace_path).unwrap();
        let lines: Vec<&str> = traces.lines().collect();
        assert_eq!(lines.len(), total_reqs);
        for line in lines {
            assert!(line.contains("\"kernel\":\"obsd\""));
            for span in ["admission", "batching", "routing", "inference", "encode"] {
                assert!(line.contains(&format!("\"name\":\"{span}\"")), "{line}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hot_swap_picks_up_republished_model() {
        let dir = tmp_dir("swap");
        publish(&dir, "mvt-v1", "mvt", &tiny_gear(8), 111);
        let handle = daemon_on(&dir);
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let req = frame::PredictRequest {
            kernel: "mvt".into(),
            graphs: vec![graph(2)],
        };
        let raw = frame::RawFrame::new(frame::FrameType::Predict, req.to_payload());
        let before = frame::PredictResponse::from_payload(&rpc(&mut s, &raw).payload).unwrap();
        assert_eq!(before.fingerprint, 111);

        publish(&dir, "mvt-v1", "mvt", &tiny_gear(9), 222);
        // wait for the poller (25 ms interval) to observe the new stamp
        let deadline = 200;
        let mut swapped = false;
        for _ in 0..deadline {
            thread::sleep(Duration::from_millis(10));
            let after = frame::PredictResponse::from_payload(&rpc(&mut s, &raw).payload).unwrap();
            if after.fingerprint == 222 {
                swapped = true;
                break;
            }
        }
        assert!(swapped, "hot swap never observed");
        assert!(handle.stats().swaps >= 1);
        handle.stop().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
