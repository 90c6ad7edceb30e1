//! Self-tests of the benchmark's own machinery: percentiles, due-time
//! latency accounting, failure counting and the results file.

use pg_perfbench::openloop::{poisson_schedule, run_phase};
use pg_perfbench::results::{Metric, ResultsFile, RunResult, Value};
use pg_perfbench::stats::{bucket_quantile, median, percentile};
use pg_perfbench::Outcome;
use pg_store::frame::{self, FrameType, RawFrame};
use pg_util::Rng64;
use std::net::TcpListener;
use std::thread;
use std::time::Duration;

#[test]
fn nearest_rank_percentiles_on_known_samples() {
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&samples, 50.0), Some(50.0));
    assert_eq!(percentile(&samples, 90.0), Some(90.0));
    assert_eq!(percentile(&samples, 99.0), Some(99.0));
    assert_eq!(percentile(&samples, 100.0), Some(100.0));
    assert_eq!(percentile(&samples, 0.0), Some(1.0));
    assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.0));
    assert_eq!(median(&[0.25]), Some(0.25));
    assert_eq!(percentile(&[], 50.0), None);
    // a failed operation counts as infinitely slow, above every limit
    let with_failure = [1.0, 2.0, f64::INFINITY];
    assert_eq!(percentile(&with_failure, 99.0), Some(f64::INFINITY));
    assert_eq!(percentile(&with_failure, 50.0), Some(2.0));
}

#[test]
fn bucket_quantile_interpolates_inside_the_bucket() {
    // 10 observations in (0, 10], 10 in (10, 20]
    let buckets = [(10, 10), (20, 10), (u64::MAX, 0)];
    assert_eq!(bucket_quantile(&buckets, 0.5), Some(10.0));
    assert_eq!(bucket_quantile(&buckets, 0.75), Some(15.0));
    assert_eq!(bucket_quantile(&[(5, 0), (u64::MAX, 4)], 0.5), Some(5.0));
    assert_eq!(bucket_quantile(&[(5, 0)], 0.5), None);
}

#[test]
fn poisson_schedule_offers_the_same_load_for_every_seed() {
    for seed in 0..4 {
        let s = poisson_schedule(100.0, 3.0, 2, &mut Rng64::new(seed));
        assert_eq!(s.len(), 2);
        for due in &s {
            assert_eq!(due.len(), 150);
            assert!(due.windows(2).all(|w| w[0] <= w[1]));
            assert!(due.iter().all(|&t| (0.0..3.0).contains(&t)));
        }
    }
}

fn ping() -> Vec<u8> {
    frame::encode_frame(&RawFrame::new(FrameType::Ping, Vec::new()))
}

#[test]
fn a_stall_is_charged_to_the_requests_behind_it() {
    const STALL: f64 = 0.3;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        for i in 0..4 {
            frame::read_frame(&mut conn).unwrap().expect("a request");
            if i == 0 {
                thread::sleep(Duration::from_secs_f64(STALL));
            }
            frame::write_frame(&mut conn, &RawFrame::new(FrameType::Pong, Vec::new())).unwrap();
        }
    });
    let request = ping();
    let due = vec![vec![0.0, 0.05, 0.10, 0.15]];
    let report = run_phase(
        addr,
        &due,
        &|_, _| request.as_slice(),
        &|_, _, resp: &RawFrame| resp.frame_type() == Some(FrameType::Pong),
        None,
    );
    server.join().unwrap();
    assert_eq!((report.attempted, report.failed), (4, 0));
    let l = &report.latencies_s;
    assert!(l[0] >= STALL, "stalled request {l:?}");
    // every later request was due during the stall and is timed from its
    // due time, so it carries the rest of the stall
    for (i, &latency) in l.iter().enumerate().skip(1) {
        assert!(latency >= STALL - due[0][i] - 0.01, "request {i}: {l:?}");
    }
    // the generator itself was on time: waiting for a late response is
    // the server's delay, not generator lag
    assert!(
        report.lags_s.iter().all(|&lag| lag < 0.05),
        "{:?}",
        report.lags_s
    );
}

#[test]
fn a_refused_connection_fails_and_misses_every_limit() {
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let request = ping();
    let report = run_phase(
        addr,
        &[vec![0.0, 0.01, 0.02]],
        &|_, _| request.as_slice(),
        &|_, _, _: &RawFrame| true,
        None,
    );
    assert_eq!((report.attempted, report.failed), (3, 3));
    assert!(report.latencies_s.iter().all(|&l| l == f64::INFINITY));
    assert_eq!(report.completed_per_s(), 0.0);
    assert_eq!(percentile(&report.latencies_s, 50.0), Some(f64::INFINITY));
    let mut out = Outcome::default();
    out.count(&report);
    out.set_common(&[0.5]);
    assert_eq!(out.values["ok_ratio"], 0.0);
}

#[test]
fn results_file_round_trips() {
    let file = ResultsFile {
        provenance: vec![
            ("workload".into(), Value::Str("serve_open".into())),
            (
                "cpu_model".into(),
                Value::Str("Xeon \"v4\" \\ 2.2GHz\n".into()),
            ),
            ("seed".into(), Value::Num(42.0)),
            ("trace".into(), Value::Bool(false)),
            ("light_rate_per_s".into(), Value::Num(30.0)),
            ("note".into(), Value::Null),
        ],
        result: RunResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", 0.812_734_519_2, "s"),
                Metric::new("p50_ms", 1.2e-7, "ms"),
                Metric::new("throughput_per_s", 123_456_789.123_456_78, "1/s"),
            ],
        },
    };
    let text = file.to_json();
    assert_eq!(ResultsFile::parse(&text).unwrap(), file);

    // the printed result line has exactly the four keys
    let line = Value::parse(&file.result.to_json()).unwrap();
    let Value::Obj(fields) = &line else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(RunResult::from_value(&line).unwrap(), file.result);
    assert!(ResultsFile::parse("{\"provenance\": {}, \"result\": {}}").is_err());
}
