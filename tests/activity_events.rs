//! Property tests for the flat event arena and its compressed activity
//! streams (`pg_activity::events`).
//!
//! The arena is the storage layer every edge feature flows through, so
//! this wall pins, over random traces:
//!
//! * **round-trip exactness** — encode → decode reproduces any raw
//!   `(cycle, bits)` sequence bit-for-bit, for adversarial (incompressible)
//!   and repetitive (RLE-friendly) value mixes alike;
//! * **fold parity** — the streaming SA/AR folds over compressed runs are
//!   bit-identical (`f64::to_bits`) to the naive slice math of Eq. 2/3
//!   over the decoded events, as is the raw-column fold the interpreter
//!   uses before encoding;
//! * **merge-fold parity** — folding the time-merge of any number of
//!   streams without materializing it (`merge_fold`: aligned-lane,
//!   time-disjoint and cursor paths) is bit-identical to Eq. 2/3 over the
//!   naive `merge_events` left fold of the decoded members, for fan-in
//!   2..=40, cycle ties across members, const runs and length-1 streams;
//! * **SA/AR invariants** — `AR <= SA <= 32·AR` (every change toggles
//!   1..=32 bits), and constant streams fold to exactly zero.

use proptest::prelude::*;

use powergear_repro::activity::events::{
    decode, encode_affine, event_count, fold_sa_ar, merge_fold, EventArena,
};
use powergear_repro::activity::sa::{merge_events, sa_ar, sa_ar_values};
use powergear_repro::activity::{activation_rate, switching_activity};
use powergear_repro::util::rng::Rng64;

/// Builds a cycle-sorted event sequence from per-event deltas and values.
fn events_from(deltas: &[u32], values: &[u32], start: u64) -> Vec<(u64, u32)> {
    let mut c = start;
    deltas
        .iter()
        .zip(values)
        .map(|(&d, &v)| {
            c += d as u64;
            (c, v)
        })
        .collect()
}

/// Value strategy mixing incompressible noise with RLE-friendly repeats:
/// masked positions collapse onto a 3-value alphabet, so random traces
/// exercise const runs, verbatim runs and the transitions between them.
fn arb_values(len: usize) -> impl Strategy<Value = Vec<u32>> {
    (
        prop::collection::vec(any::<u32>(), len),
        prop::collection::vec(any::<bool>(), len),
    )
        .prop_map(|(raw, mask)| {
            raw.iter()
                .zip(&mask)
                .map(|(&v, &m)| if m { v % 3 } else { v })
                .collect()
        })
}

/// `count` values that are incompressible, on a 3-value alphabet, one
/// constant (a single const run), or constant stretches of random length
/// (const runs that end at different events in different streams).
fn member_values(rng: &mut Rng64, count: usize) -> Vec<u32> {
    match rng.below(4) {
        0 => (0..count).map(|_| rng.next_u64() as u32).collect(),
        1 => (0..count).map(|_| rng.below(3) as u32).collect(),
        2 => vec![rng.next_u64() as u32; count],
        _ => {
            let mut vals = Vec::with_capacity(count);
            while vals.len() < count {
                let v = rng.next_u64() as u32;
                let n = (1 + rng.below(12)).min(count - vals.len());
                vals.extend(std::iter::repeat_n(v, n));
            }
            vals
        }
    }
}

/// `k` sorted event streams for a merge, shaped by `mode`:
/// 0 — aligned lanes of one block (one stride and count, start spread
///     below the stride, equal starts tie);
/// 1 — blocks in disjoint cycle windows, several members per block;
/// 2 — irregular streams with small cycle deltas that tie across members;
/// 3 — a mix of all of the above plus length-1 streams.
fn arb_members(k: usize, mode: usize, seed: u64) -> Vec<Vec<(u64, u32)>> {
    let mut rng = Rng64::new(seed);
    let stride = 2 + rng.below(30) as u64;
    let count = 1 + rng.below(30);
    let aligned = |rng: &mut Rng64, base: u64| -> Vec<(u64, u32)> {
        let phase = base + rng.below(stride.min(4) as usize) as u64;
        let vals = member_values(rng, count);
        (0..count)
            .map(|i| (phase + i as u64 * stride, vals[i]))
            .collect()
    };
    let irregular = |rng: &mut Rng64, base: u64| -> Vec<(u64, u32)> {
        let n = 1 + rng.below(40);
        let vals = member_values(rng, n);
        let mut c = base + rng.below(8) as u64;
        vals.into_iter()
            .map(|v| {
                c += rng.below(5) as u64;
                (c, v)
            })
            .collect()
    };
    (0..k)
        .map(|_| {
            let block = 1_000_000 * rng.below(k.min(6)) as u64;
            let shape = if mode == 3 { rng.below(4) } else { mode };
            match shape {
                0 => aligned(&mut rng, 0),
                1 => irregular(&mut rng, block),
                2 => irregular(&mut rng, 0),
                _ => vec![(rng.below(40) as u64, rng.next_u64() as u32)],
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity on any sorted event sequence.
    #[test]
    fn roundtrip_is_exact(
        deltas in prop::collection::vec(0u32..9, 1..120),
        raw_values in prop::collection::vec(any::<u32>(), 120),
        rep_values in prop::collection::vec(0u32..3, 120),
        start in 0u64..1_000_000,
        repetitive in any::<bool>(),
    ) {
        let values = if repetitive { &rep_values } else { &raw_values };
        let ev = events_from(&deltas, &values[..deltas.len()], start);
        let mut arena = EventArena::new();
        let r = arena.push_events(&ev);
        prop_assert_eq!(arena.decode(r), ev.clone());
        prop_assert_eq!(arena.count(r), ev.len());
    }

    /// The affine fast path (known cycle progression) decodes to exactly
    /// the events the interpreter would have pushed one by one.
    #[test]
    fn affine_encode_matches_naive(
        values in arb_values(90),
        n in 1usize..90,
        start in 0u64..100_000,
        stride in 1u32..50,
    ) {
        let mut out = Vec::new();
        let r = encode_affine(&mut out, start, stride, &values[..n]);
        let stream = &out[r.off as usize..(r.off + r.len) as usize];
        let expect: Vec<(u64, u32)> = values[..n]
            .iter()
            .enumerate()
            .map(|(i, &v)| (start + i as u64 * stride as u64, v))
            .collect();
        prop_assert_eq!(decode(stream), expect);
        prop_assert_eq!(event_count(stream), n);
    }

    /// Streaming folds over compressed runs are bit-identical to the
    /// naive slice math, and so is the raw-column fold.
    #[test]
    fn fold_parity_is_bitwise(
        deltas in prop::collection::vec(0u32..6, 2..100),
        values in arb_values(100),
        latency in 1u64..500,
    ) {
        let ev = events_from(&deltas, &values[..deltas.len()], 3);
        let mut arena = EventArena::new();
        let r = arena.push_events(&ev);
        let (sa_c, ar_c) = arena.sa_ar(r, latency);
        let (sa_n, ar_n) = sa_ar(&ev, latency);
        prop_assert_eq!(sa_c.to_bits(), sa_n.to_bits());
        prop_assert_eq!(ar_c.to_bits(), ar_n.to_bits());
        prop_assert_eq!(sa_c.to_bits(), switching_activity(&ev, latency).to_bits());
        prop_assert_eq!(ar_c.to_bits(), activation_rate(&ev, latency).to_bits());
        // The interpreter's pre-encode column fold agrees too.
        let cols: Vec<u32> = ev.iter().map(|e| e.1).collect();
        let (sa_v, ar_v) = sa_ar_values(&cols, latency);
        prop_assert_eq!(sa_v.to_bits(), sa_n.to_bits());
        prop_assert_eq!(ar_v.to_bits(), ar_n.to_bits());
    }

    /// Two-stream merge folds equal Eq. 2/3 over `merge_events`.
    #[test]
    fn merge_parity_two_streams(
        da in prop::collection::vec(0u32..7, 1..60),
        db in prop::collection::vec(0u32..7, 1..60),
        va in arb_values(60),
        vb in arb_values(60),
        start_a in 0u64..64,
        start_b in 0u64..64,
        latency in 1u64..400,
    ) {
        let a = events_from(&da, &va[..da.len()], start_a);
        let b = events_from(&db, &vb[..db.len()], start_b);
        let mut arena = EventArena::new();
        let ra = arena.push_events(&a);
        let rb = arena.push_events(&b);
        let fold = merge_fold(&[arena.stream(ra), arena.stream(rb)]);
        let naive = merge_events(&a, &b);
        for l in [1, latency] {
            let (sa_c, ar_c) = fold.sa_ar(l);
            let (sa_n, ar_n) = sa_ar(&naive, l);
            prop_assert_eq!(sa_c.to_bits(), sa_n.to_bits());
            prop_assert_eq!(ar_c.to_bits(), ar_n.to_bits());
        }
    }

    /// K-way merge folds of any fan-in (aligned lanes, time-disjoint
    /// blocks, irregular mixes with cycle ties, const runs and length-1
    /// streams) equal Eq. 2/3 over the left fold of pairwise
    /// `merge_events` of the decoded members — the semantics of fusing
    /// parallel edges one pair at a time. At latency 1 the folds are the
    /// raw Hamming and change totals, so those match exactly too.
    #[test]
    fn merge_parity_k_way(
        k in 2usize..41,
        seed in any::<u64>(),
        mode in 0usize..4,
        latency in 1u64..500,
    ) {
        let members = arb_members(k, mode, seed);
        let mut arena = EventArena::new();
        let refs: Vec<_> = members.iter().map(|m| arena.push_events(m)).collect();
        let inputs: Vec<&[u32]> = refs.iter().map(|&r| arena.stream(r)).collect();
        let fold = merge_fold(&inputs);
        let mut naive = arena.decode(refs[0]);
        for &r in &refs[1..] {
            naive = merge_events(&naive, &arena.decode(r));
        }
        for l in [1, latency] {
            let (sa_c, ar_c) = fold.sa_ar(l);
            let (sa_n, ar_n) = sa_ar(&naive, l);
            prop_assert_eq!(sa_c.to_bits(), sa_n.to_bits(), "k={} mode={}", k, mode);
            prop_assert_eq!(ar_c.to_bits(), ar_n.to_bits(), "k={} mode={}", k, mode);
        }
        // One input is the plain stream fold.
        prop_assert_eq!(merge_fold(&inputs[..1]).sa_ar(latency), fold_sa_ar(inputs[0], latency));
    }

    /// Eq. 2/3 invariants on compressed folds: every change toggles
    /// between 1 and 32 bits, so `AR <= SA <= 32·AR`; constant streams
    /// fold to exactly zero.
    #[test]
    fn sa_ar_invariants(
        deltas in prop::collection::vec(1u32..5, 2..80),
        values in arb_values(80),
        constant in any::<u32>(),
        latency in 1u64..300,
    ) {
        let ev = events_from(&deltas, &values[..deltas.len()], 0);
        let mut arena = EventArena::new();
        let r = arena.push_events(&ev);
        let (sa, ar) = arena.sa_ar(r, latency);
        prop_assert!(sa >= ar - 1e-12, "SA {sa} < AR {ar}");
        prop_assert!(sa <= 32.0 * ar + 1e-12, "SA {sa} > 32*AR {ar}");
        prop_assert!(sa >= 0.0 && ar >= 0.0);

        let const_ev: Vec<(u64, u32)> = (0..deltas.len() as u64).map(|c| (c, constant)).collect();
        let rc = arena.push_events(&const_ev);
        prop_assert_eq!(arena.sa_ar(rc, latency), (0.0, 0.0));
        // and the constant stream compresses to a single run
        prop_assert!(rc.len <= 5, "constant stream must collapse to one run");
    }
}
