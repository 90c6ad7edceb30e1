//! Open-loop load generation over PGRPC connections.
//!
//! Each connection gets its own arrival schedule (due times in seconds
//! from the phase start). Its thread sends a request when it is due, or at
//! once if the previous response came back late, and times every request
//! from its due time — so a stall is charged to the requests queued behind
//! it, not hidden by a client that slowed down. A request that is refused,
//! errors, or fails its check gets an infinite latency: it misses every
//! limit.

use pg_store::frame::{self, RawFrame};
use pg_util::Rng64;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Outcome of one phase across all connections.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseReport {
    /// Seconds from due time to response, one per attempted request;
    /// `f64::INFINITY` for a failed one.
    pub latencies_s: Vec<f64>,
    /// How late the generator itself sent each request: send time minus
    /// the later of its due time and the previous response.
    pub lags_s: Vec<f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Wall seconds from phase start to the last response.
    pub elapsed_s: f64,
}

impl PhaseReport {
    /// Successful requests per second of wall time.
    pub fn completed_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed_s.max(1e-9)
    }
}

/// Poisson arrivals at `rate_per_s` in total over `seconds`, split evenly
/// into `conns` independent per-connection streams. Each stream is
/// conditioned on its expected count (that many uniform arrival times,
/// sorted), so every seed offers exactly the same load and only the
/// spacing of arrivals varies.
pub fn poisson_schedule(
    rate_per_s: f64,
    seconds: f64,
    conns: usize,
    rng: &mut Rng64,
) -> Vec<Vec<f64>> {
    let per_conn = (rate_per_s * seconds / conns as f64).round() as usize;
    (0..conns)
        .map(|_| {
            let mut due: Vec<f64> = (0..per_conn).map(|_| rng.f64() * seconds).collect();
            due.sort_by(f64::total_cmp);
            due
        })
        .collect()
}

/// Runs one phase against `addr`. `frame_bytes(conn, i)` is the encoded
/// request frame for request `i` of connection `conn`; `check(conn, i,
/// response)` says whether the response is right. With `stop_after_s`,
/// requests not yet sent by then are dropped unattempted (closed-loop
/// phases schedule everything at 0 and use this as their length).
pub fn run_phase<'a>(
    addr: SocketAddr,
    schedule: &[Vec<f64>],
    frame_bytes: &(dyn Fn(usize, usize) -> &'a [u8] + Sync),
    check: &(dyn Fn(usize, usize, &RawFrame) -> bool + Sync),
    stop_after_s: Option<f64>,
) -> PhaseReport {
    let start = Instant::now();
    let per_conn: Vec<PhaseReport> = thread::scope(|scope| {
        let handles: Vec<_> = schedule
            .iter()
            .enumerate()
            .map(|(conn, due)| {
                scope.spawn(move || {
                    connection(addr, start, conn, due, frame_bytes, check, stop_after_s)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection thread panicked"))
            .collect()
    });
    let mut out = PhaseReport {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..PhaseReport::default()
    };
    for r in per_conn {
        out.latencies_s.extend(r.latencies_s);
        out.lags_s.extend(r.lags_s);
        out.attempted += r.attempted;
        out.failed += r.failed;
    }
    out
}

fn connection<'a>(
    addr: SocketAddr,
    start: Instant,
    conn: usize,
    due: &[f64],
    frame_bytes: &(dyn Fn(usize, usize) -> &'a [u8] + Sync),
    check: &(dyn Fn(usize, usize, &RawFrame) -> bool + Sync),
    stop_after_s: Option<f64>,
) -> PhaseReport {
    let mut out = PhaseReport::default();
    let fail_rest = |out: &mut PhaseReport, from: usize| {
        let n = due.len() - from;
        out.attempted += n as u64;
        out.failed += n as u64;
        out.latencies_s
            .extend(std::iter::repeat_n(f64::INFINITY, n));
    };
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => {
            fail_rest(&mut out, 0);
            return out;
        }
    };
    let _ = stream.set_nodelay(true);
    let mut ready = 0.0f64;
    for (i, &due_s) in due.iter().enumerate() {
        let now = start.elapsed().as_secs_f64();
        if stop_after_s.is_some_and(|stop| now >= stop) {
            break;
        }
        if due_s > now {
            thread::sleep(Duration::from_secs_f64(due_s - now));
        }
        let sent = start.elapsed().as_secs_f64();
        out.lags_s.push((sent - due_s.max(ready)).max(0.0));
        let resp = stream
            .write_all(frame_bytes(conn, i))
            .ok()
            .and_then(|()| frame::read_frame(&mut stream).ok().flatten());
        ready = start.elapsed().as_secs_f64();
        out.attempted += 1;
        match resp {
            Some(resp) if check(conn, i, &resp) => out.latencies_s.push(ready - due_s),
            Some(_) => {
                out.failed += 1;
                out.latencies_s.push(f64::INFINITY);
            }
            None => {
                // the byte stream is gone: this and every later request fail
                out.failed += 1;
                out.latencies_s.push(f64::INFINITY);
                fail_rest(&mut out, i + 1);
                return out;
            }
        }
    }
    out
}
