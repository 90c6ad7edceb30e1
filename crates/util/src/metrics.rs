//! Workspace-wide observability: a process-global registry of named
//! counters, gauges, and fixed-bucket histograms.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism stays intact.** Metric values must never feed back
//!    into computation — they are write-only from the hot paths and read
//!    only by telemetry consumers (Stats frames, the Prometheus endpoint,
//!    `powergear stats`). All storage is integer (`u64`/`i64`), sharded
//!    per thread and merged by summation in fixed shard order, so a
//!    snapshot is bit-exact regardless of thread interleaving *given the
//!    same observations*. Wall-clock only enters through [`Timer`] and
//!    [`monotonic_us`], both confined to this file (which is on the
//!    pg-lint `wall_clock` allow-list for exactly that reason).
//! 2. **Near-free when disabled.** Recording is gated on one relaxed
//!    atomic load; the registry ships enabled so the daemon is observable
//!    out of the box, and the bench harness flips it off to measure
//!    instrumentation overhead.
//! 3. **No dependencies.** Hand-rolled registry, snapshot, and Prometheus
//!    text rendering; `std` only.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones
//! resolved once at setup; the hot path never touches the registry lock.
//!
//! Pipeline stages (`HlsFlow::run`, graph construction, the dataset
//! sample builder) are timed with [`stage`] guards, which record into the
//! [`STAGE_TIME_US`] histogram under a `stage` label holding the dotted
//! stage name. Nested stages each record their own wall time, so a parent
//! (`hls`) includes its children (`hls.lower`, ...): the series form an
//! attribution tree flattened by dotted names, not a partition.
//!
//! # Naming convention
//!
//! Metric names are lowercase snake_case. Counters end in `_total`;
//! histograms and gauges carry a unit suffix (`_us`, `_bytes`, `_graphs`,
//! `_depth`). The `metric_name` pg-lint rule enforces this at the call
//! site.
//!
//! # Examples
//!
//! ```
//! use pg_util::metrics;
//! let c = metrics::counter("doc_requests_total");
//! c.inc();
//! let h = metrics::histogram("doc_wait_us", metrics::buckets::LATENCY_US);
//! h.observe(120);
//! let snap = metrics::snapshot();
//! assert_eq!(snap.counter_value("doc_requests_total", &[]), Some(1));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of per-thread shards for counters and histograms. Threads are
/// assigned shards round-robin; contention only occurs when more than
/// `SHARDS` threads hit the *same* metric concurrently, and even then the
/// cost is a contended atomic add, never a lock.
const SHARDS: usize = 8;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Is metric recording currently on? (On by default.)
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off. Off makes every `inc`/`observe` a single
/// relaxed load — used by the bench harness to measure overhead parity.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Monotonic microseconds since the first call in this process. The only
/// sanctioned clock for telemetry timestamps (span start times); keeps
/// `Instant` tokens out of instrumented modules.
pub fn monotonic_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

// ---------------------------------------------------------------------------
// Storage cores
// ---------------------------------------------------------------------------

struct CounterCore {
    shards: [AtomicU64; SHARDS],
}

impl CounterCore {
    fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
    /// Fixed shard order; u64 addition, so the merge is order-independent
    /// and bit-exact by construction.
    fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
    fn zero(&self) {
        for s in &self.shards {
            s.store(0, Ordering::Relaxed);
        }
    }
}

struct GaugeCore {
    value: AtomicI64,
}

struct HistogramCore {
    /// Upper bounds (inclusive), strictly increasing; an implicit +inf
    /// bucket (`u64::MAX`) is appended at registration.
    bounds: Vec<u64>,
    /// `shards[s][b]` = observations in bucket `b` from shard `s`.
    shards: Vec<Vec<AtomicU64>>,
    /// Sum of observed values per shard (integer microseconds / units).
    sums: [AtomicU64; SHARDS],
}

impl HistogramCore {
    fn new(bounds: &[u64]) -> Self {
        let mut b: Vec<u64> = bounds.to_vec();
        b.sort_unstable();
        b.dedup();
        if b.last() != Some(&u64::MAX) {
            b.push(u64::MAX);
        }
        let nb = b.len();
        Self {
            bounds: b,
            shards: (0..SHARDS)
                .map(|_| (0..nb).map(|_| AtomicU64::new(0)).collect())
                .collect(),
            sums: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
    fn observe(&self, v: u64) {
        let b = self.bounds.partition_point(|&ub| ub < v);
        let s = shard_index();
        self.shards[s][b].fetch_add(1, Ordering::Relaxed);
        self.sums[s].fetch_add(v, Ordering::Relaxed);
    }
    fn merged(&self) -> (Vec<(u64, u64)>, u64, u64) {
        let mut buckets: Vec<(u64, u64)> = self.bounds.iter().map(|&ub| (ub, 0u64)).collect();
        for shard in &self.shards {
            for (slot, cell) in buckets.iter_mut().zip(shard.iter()) {
                slot.1 = slot.1.wrapping_add(cell.load(Ordering::Relaxed));
            }
        }
        let count = buckets
            .iter()
            .map(|&(_, c)| c)
            .fold(0u64, u64::wrapping_add);
        let sum = self
            .sums
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add);
        (buckets, count, sum)
    }
    fn zero(&self) {
        for shard in &self.shards {
            for cell in shard {
                cell.store(0, Ordering::Relaxed);
            }
        }
        for s in &self.sums {
            s.store(0, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// (name, sorted label pairs) — BTreeMap keeps snapshots deterministically
/// ordered without a sort pass.
type Key = (String, Vec<(String, String)>);

enum Entry {
    Counter(Arc<CounterCore>),
    Gauge(Arc<GaugeCore>),
    Histogram(Arc<HistogramCore>),
}

fn registry() -> &'static Mutex<BTreeMap<Key, Entry>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<Key, Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn make_key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut l: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    (name.to_string(), l)
}

/// Zeroes every registered metric's value (registrations and live handles
/// stay valid). Test-support only — production code never resets.
pub fn reset() {
    let reg = registry().lock().expect("metrics lock");
    for entry in reg.values() {
        match entry {
            Entry::Counter(c) => c.zero(),
            Entry::Gauge(g) => g.value.store(0, Ordering::Relaxed),
            Entry::Histogram(h) => h.zero(),
        }
    }
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// Monotonically increasing event count. Cheap to clone; resolve once and
/// reuse — `inc` never takes a lock.
#[derive(Clone)]
pub struct Counter {
    core: Arc<CounterCore>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if enabled() {
            self.core.shards[shard_index()].fetch_add(n, Ordering::Relaxed);
        }
    }
    /// Current merged value.
    pub fn value(&self) -> u64 {
        self.core.value()
    }
}

/// A settable signed level (queue depth, loaded-model count).
#[derive(Clone)]
pub struct Gauge {
    core: Arc<GaugeCore>,
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        if enabled() {
            self.core.value.store(v, Ordering::Relaxed);
        }
    }
    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        if enabled() {
            self.core.value.fetch_add(d, Ordering::Relaxed);
        }
    }
    /// Current value.
    pub fn value(&self) -> i64 {
        self.core.value.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket distribution of integer observations (latency in
/// microseconds, batch sizes in graphs, ...).
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        if enabled() {
            self.core.observe(v);
        }
    }
    /// Starts a wall-clock timer that records elapsed microseconds into
    /// this histogram on drop. The only way instrumented code should time
    /// anything — it keeps `Instant` confined to this module.
    pub fn start_timer(&self) -> Timer {
        Timer {
            running: enabled().then(|| (self.clone(), Instant::now())),
        }
    }
}

/// RAII guard from [`Histogram::start_timer`] or [`stage`]; records
/// elapsed microseconds on drop (no-op while recording is disabled).
#[must_use = "a dropped timer records zero time"]
pub struct Timer {
    running: Option<(Histogram, Instant)>,
}

impl Timer {
    /// Stops the timer and returns the elapsed microseconds it recorded
    /// (0 if recording was disabled when it started).
    pub fn stop(mut self) -> u64 {
        self.finish()
    }
    fn finish(&mut self) -> u64 {
        if let Some((hist, start)) = self.running.take() {
            let us = start.elapsed().as_micros() as u64;
            hist.observe(us);
            us
        } else {
            0
        }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.finish();
    }
}

/// The histogram [`stage`] timers record into, one series per `stage`
/// label.
pub const STAGE_TIME_US: &str = "stage_time_us";

/// Times one pipeline stage: the returned guard records its elapsed
/// microseconds into [`STAGE_TIME_US`]`{stage=name}` on drop. Names are
/// dotted by convention (`graph.merge.binding`). Each thread resolves a
/// stage's handle on first use and caches it, so only that first call
/// takes the registry lock and dropping the guard never does. While
/// recording is disabled the call records nothing.
pub fn stage(name: &'static str) -> Timer {
    thread_local! {
        static STAGES: RefCell<Vec<(&'static str, Histogram)>> = const { RefCell::new(Vec::new()) };
    }
    if !enabled() {
        return Timer { running: None };
    }
    STAGES.with(|stages| {
        let mut stages = stages.borrow_mut();
        let i = match stages.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                let h = histogram_with(STAGE_TIME_US, &[("stage", name)], buckets::LATENCY_US);
                stages.push((name, h));
                stages.len() - 1
            }
        };
        stages[i].1.start_timer()
    })
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

/// Returns the counter registered under `name` (no labels), creating it on
/// first use.
pub fn counter(name: &str) -> Counter {
    counter_with(name, &[])
}

/// Returns the counter registered under `name` + `labels`.
pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> Counter {
    let key = make_key(name, labels);
    let mut reg = registry().lock().expect("metrics lock");
    let entry = reg
        .entry(key)
        .or_insert_with(|| Entry::Counter(Arc::new(CounterCore::new())));
    match entry {
        Entry::Counter(c) => Counter {
            core: Arc::clone(c),
        },
        _ => panic!("metric {name:?} already registered with a different type"),
    }
}

/// Returns the gauge registered under `name` (no labels).
pub fn gauge(name: &str) -> Gauge {
    gauge_with(name, &[])
}

/// Returns the gauge registered under `name` + `labels`.
pub fn gauge_with(name: &str, labels: &[(&str, &str)]) -> Gauge {
    let key = make_key(name, labels);
    let mut reg = registry().lock().expect("metrics lock");
    let entry = reg.entry(key).or_insert_with(|| {
        Entry::Gauge(Arc::new(GaugeCore {
            value: AtomicI64::new(0),
        }))
    });
    match entry {
        Entry::Gauge(g) => Gauge {
            core: Arc::clone(g),
        },
        _ => panic!("metric {name:?} already registered with a different type"),
    }
}

/// Returns the histogram registered under `name` (no labels) with the
/// given bucket upper bounds (an implicit +inf bucket is appended).
/// Bounds are fixed at first registration; later callers get the
/// existing buckets.
pub fn histogram(name: &str, bounds: &[u64]) -> Histogram {
    histogram_with(name, &[], bounds)
}

/// Returns the histogram registered under `name` + `labels`.
pub fn histogram_with(name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
    let key = make_key(name, labels);
    let mut reg = registry().lock().expect("metrics lock");
    let entry = reg
        .entry(key)
        .or_insert_with(|| Entry::Histogram(Arc::new(HistogramCore::new(bounds))));
    match entry {
        Entry::Histogram(h) => Histogram {
            core: Arc::clone(h),
        },
        _ => panic!("metric {name:?} already registered with a different type"),
    }
}

/// Standard bucket layouts.
pub mod buckets {
    /// Exponential-ish microsecond latency buckets, 1us .. 1s.
    pub const LATENCY_US: &[u64] = &[
        1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
        250_000, 500_000, 1_000_000,
    ];
    /// Power-of-two size buckets, 1 .. 1024 (batch sizes, graph counts).
    pub const SIZE_POW2: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// One counter's merged value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Merged value.
    pub value: u64,
}

/// One gauge's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Current value.
    pub value: i64,
}

/// One histogram's merged distribution at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Total observations (= sum of bucket counts).
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// `(upper_bound, observations_in_bucket)` — per-bucket counts, not
    /// cumulative; the final bound is `u64::MAX` (+inf).
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Nearest-rank percentile estimate: the upper bound of the first
    /// bucket whose cumulative count reaches `q * count` (`q` in 0..=1).
    /// Returns `None` when empty; the +inf bucket reports `u64::MAX`.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(ub, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return Some(ub);
            }
        }
        self.buckets.last().map(|&(ub, _)| ub)
    }
    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A consistent-enough point-in-time view of every registered metric,
/// sorted by (name, labels). Individual cells are read without a global
/// stop-the-world, so a snapshot taken while writers run may split a
/// logically-atomic pair across cells — fine for telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All counters.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter value by name + labels (labels in any order).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let (_, key) = make_key(name, labels);
        self.counters
            .iter()
            .find(|c| c.name == name && c.labels == key)
            .map(|c| c.value)
    }
    /// Looks up a gauge value by name + labels.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        let (_, key) = make_key(name, labels);
        self.gauges
            .iter()
            .find(|g| g.name == name && g.labels == key)
            .map(|g| g.value)
    }
    /// Looks up a histogram by name + labels.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        let (_, key) = make_key(name, labels);
        self.histograms
            .iter()
            .find(|h| h.name == name && h.labels == key)
    }
}

/// Takes a snapshot of the whole registry.
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    {
        let reg = registry().lock().expect("metrics lock");
        for ((name, labels), entry) in reg.iter() {
            match entry {
                Entry::Counter(c) => snap.counters.push(CounterSnapshot {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: c.value(),
                }),
                Entry::Gauge(g) => snap.gauges.push(GaugeSnapshot {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: g.value.load(Ordering::Relaxed),
                }),
                Entry::Histogram(h) => {
                    let (buckets, count, sum) = h.merged();
                    snap.histograms.push(HistogramSnapshot {
                        name: name.clone(),
                        labels: labels.clone(),
                        count,
                        sum,
                        buckets,
                    });
                }
            }
        }
    }
    snap
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

fn fmt_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, String)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&v.replace('\\', "\\\\").replace('"', "\\\""));
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&v);
        out.push('"');
    }
    out.push('}');
}

/// Renders a snapshot in Prometheus text exposition format (version
/// 0.0.4): `# TYPE` headers, `_bucket`/`_sum`/`_count` series with
/// cumulative `le` bounds for histograms.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_type: Option<(String, &'static str)> = None;
    let mut type_header = |out: &mut String, name: &str, kind: &'static str| {
        if last_type.as_ref().map(|(n, k)| (n.as_str(), *k)) != Some((name, kind)) {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            last_type = Some((name.to_string(), kind));
        }
    };
    for c in &snap.counters {
        type_header(&mut out, &c.name, "counter");
        out.push_str(&c.name);
        fmt_labels(&mut out, &c.labels, None);
        out.push(' ');
        out.push_str(&c.value.to_string());
        out.push('\n');
    }
    for g in &snap.gauges {
        type_header(&mut out, &g.name, "gauge");
        out.push_str(&g.name);
        fmt_labels(&mut out, &g.labels, None);
        out.push(' ');
        out.push_str(&g.value.to_string());
        out.push('\n');
    }
    for h in &snap.histograms {
        type_header(&mut out, &h.name, "histogram");
        let mut cum = 0u64;
        for &(ub, c) in &h.buckets {
            cum += c;
            let le = if ub == u64::MAX {
                "+Inf".to_string()
            } else {
                ub.to_string()
            };
            out.push_str(&h.name);
            out.push_str("_bucket");
            fmt_labels(&mut out, &h.labels, Some(("le", le)));
            out.push(' ');
            out.push_str(&cum.to_string());
            out.push('\n');
        }
        out.push_str(&h.name);
        out.push_str("_sum");
        fmt_labels(&mut out, &h.labels, None);
        out.push(' ');
        out.push_str(&h.sum.to_string());
        out.push('\n');
        out.push_str(&h.name);
        out.push_str("_count");
        fmt_labels(&mut out, &h.labels, None);
        out.push(' ');
        out.push_str(&h.count.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; exercise everything in one test so
    // parallel test threads never race reset().
    // Names are test-unique to avoid collisions with other suites.
    #[test]
    fn registry_end_to_end() {
        let c = counter("mtest_events_total");
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        // Same key resolves to the same cell.
        counter("mtest_events_total").inc();
        assert_eq!(c.value(), 6);

        let cl = counter_with("mtest_labeled_total", &[("model", "a")]);
        cl.add(2);
        // Label order must not matter for identity.
        let cl2 = counter_with("mtest_labeled_total", &[("model", "a")]);
        assert_eq!(cl2.value(), 2);

        let g = gauge("mtest_depth");
        g.set(7);
        g.add(-3);
        assert_eq!(g.value(), 4);

        let h = histogram("mtest_wait_us", buckets::LATENCY_US);
        h.observe(0);
        h.observe(3);
        h.observe(40);
        h.observe(u64::MAX); // lands in +inf bucket

        let snap = snapshot();
        assert_eq!(snap.counter_value("mtest_events_total", &[]), Some(6));
        assert_eq!(
            snap.counter_value("mtest_labeled_total", &[("model", "a")]),
            Some(2)
        );
        assert_eq!(snap.gauge_value("mtest_depth", &[]), Some(4));
        let hs = snap.histogram("mtest_wait_us", &[]).unwrap();
        assert_eq!(hs.count, 4);
        assert_eq!(hs.buckets.iter().map(|&(_, c)| c).sum::<u64>(), hs.count);
        assert_eq!(hs.buckets.last().unwrap(), &(u64::MAX, 1));
        assert_eq!(hs.percentile(0.5), Some(5)); // obs {0,3} covered by le=5
        assert_eq!(hs.percentile(1.0), Some(u64::MAX));

        // Timer records one observation.
        let th = histogram("mtest_timer_us", buckets::LATENCY_US);
        {
            let _t = th.start_timer();
            std::hint::black_box(40 + 2);
        }
        let us = th.start_timer().stop();
        let snap = snapshot();
        let hs = snap.histogram("mtest_timer_us", &[]).unwrap();
        assert_eq!(hs.count, 2);
        assert!(hs.sum >= us);

        // Sharded writes from many threads merge exactly.
        let mc = counter("mtest_mt_total");
        let mh = histogram("mtest_mt_us", buckets::SIZE_POW2);
        std::thread::scope(|s| {
            for t in 0..16 {
                let mc = mc.clone();
                let mh = mh.clone();
                s.spawn(move || {
                    for i in 0..100u64 {
                        mc.inc();
                        mh.observe(t * 100 + i);
                    }
                });
            }
        });
        assert_eq!(mc.value(), 1600);
        let snap = snapshot();
        let hs = snap.histogram("mtest_mt_us", &[]).unwrap();
        assert_eq!(hs.count, 1600);
        assert_eq!(hs.sum, (0..1600u64).sum::<u64>());

        // Disabled => no-ops.
        set_enabled(false);
        mc.inc();
        mh.observe(1);
        let _zero = th.start_timer();
        drop(_zero);
        set_enabled(true);
        assert_eq!(mc.value(), 1600);

        // Prometheus rendering: headers, cumulative buckets, escaping.
        let snap = snapshot();
        let text = render_prometheus(&snap);
        assert!(text.contains("# TYPE mtest_events_total counter"));
        assert!(text.contains("mtest_events_total 6"));
        assert!(text.contains("mtest_labeled_total{model=\"a\"} 2"));
        assert!(text.contains("# TYPE mtest_wait_us histogram"));
        assert!(text.contains("mtest_wait_us_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("mtest_wait_us_count 4"));

        // Stage timers: one series per stage label, shared across threads.
        let stage_count = |name: &str| {
            snapshot()
                .histogram(STAGE_TIME_US, &[("stage", name)])
                .map_or(0, |h| h.count)
        };
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _t = stage("mtest.mt");
                });
            }
        });
        assert_eq!(stage_count("mtest.mt"), 4);
        // Nested stages each record.
        {
            let _outer = stage("mtest.outer");
            let _inner = stage("mtest.outer.inner");
        }
        assert_eq!(stage_count("mtest.outer"), 1);
        assert_eq!(stage_count("mtest.outer.inner"), 1);
        // A stage opened while recording is disabled records nothing,
        // even once recording is back on by the time it drops.
        set_enabled(false);
        let off = stage("mtest.outer");
        set_enabled(true);
        drop(off);
        assert_eq!(stage_count("mtest.outer"), 1);
        let text = render_prometheus(&snapshot());
        assert!(text.contains("stage_time_us_count{stage=\"mtest.mt\"} 4"));

        // reset() zeroes values but keeps handles live.
        reset();
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0);
        c.inc();
        assert_eq!(snapshot().counter_value("mtest_events_total", &[]), Some(1));
    }
}
