//! Flat arenas of run-length compressed event streams.
//!
//! The trace interpreter used to allocate one `Vec<(u64, u32)>` per traced
//! stream per design point — at paper scale (500–1000 points/kernel) those
//! per-edge allocations and the 16-byte-per-event folds dominated the cold
//! synthesis path. This module replaces them with a **flat per-design
//! [`EventArena`]**: one contiguous `u32` buffer per design point into
//! which every event stream is appended in compressed form, addressed by
//! copyable [`EventRef`] `(offset, len)` slices.
//!
//! # Stream format
//!
//! A stream is a sequence of *runs* in two shapes, tagged by the top
//! header bit (bits 0..=29 hold the event count, always >= 1; bit 30 is
//! unused):
//!
//! ```text
//! const   (bit 31)  [header, start_lo, start_hi, stride, value]
//!                   `count` events at `start + i*stride`, one repeated
//!                   value — run-length + delta compression in 5 words
//! affine  (clear)   [header, start_lo, start_hi, stride, v0..v_count-1]
//!                   arithmetic cycle progression, verbatim values
//! ```
//!
//! Per-block interpreter streams fire once per loop iteration, so their
//! cycle side is exactly one arithmetic progression and constant value
//! stretches (outer induction variables, re-read addresses) collapse to
//! const runs. An empty stream is `len == 0`; verbatim values cost one
//! word per event versus 3 uncompressed (a cycle sequence with no stride
//! at all, which only tests and synthetic graphs push, costs a 5-word run
//! per event).
//!
//! # Folds
//!
//! Everything downstream folds **directly over the compressed runs**: a
//! constant run of any length contributes at most one value transition,
//! so SA/AR of heavily repetitive streams costs O(runs) instead of
//! O(events). Folds accumulate the same integer Hamming / change counts
//! in the same order as the naive slice math in [`crate::sa`], so results
//! are bit-identical.
//!
//! Time-merged streams (the fused parallel edges of datapath merging) are
//! never materialized: [`merge_fold`] folds the stable time-interleave of
//! any number of streams straight into that accumulator, and
//! [`fold_sa_ar`] is its one-input case. Streams of different blocks
//! occupy disjoint cycle windows and fold run by run, aligned lanes of one
//! block fold by a periodic table walk, and anything else by a cursor
//! merge.

/// Bit 31 of a run header: the payload is one repeated value.
const CONST_BIT: u32 = 1 << 31;
/// Mask of the event count in a run header.
const COUNT_MASK: u32 = (1 << 30) - 1;
/// A constant stretch shorter than this is not worth its own run.
const MIN_CONST_RUN: u32 = 4;

/// A flat buffer of compressed event streams.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventArena {
    words: Vec<u32>,
}

/// A `(offset, len)` slice of an [`EventArena`], in words. Copyable —
/// attaching a stream to another edge is two register moves, not an
/// allocation. Bit 31 of `off` is reserved for the owner to tag what the
/// ref points into (`pg_graphcon` tags extension-arena streams and merge
/// lists); the arena itself never sets it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventRef {
    /// Word offset of the stream start.
    pub off: u32,
    /// Stream length in words (0 = empty stream).
    pub len: u32,
}

impl EventRef {
    /// The empty stream.
    pub const EMPTY: EventRef = EventRef { off: 0, len: 0 };

    /// `true` when the stream holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl EventArena {
    /// An empty arena.
    pub fn new() -> Self {
        EventArena::default()
    }

    /// Wraps an existing word buffer (typically a recycled allocation).
    pub fn from_words(words: Vec<u32>) -> Self {
        EventArena { words }
    }

    /// Releases the word buffer for reuse.
    pub fn into_words(self) -> Vec<u32> {
        self.words
    }

    /// Raw words of the arena.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Words of one stream.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn stream(&self, r: EventRef) -> &[u32] {
        &self.words[r.off as usize..(r.off + r.len) as usize]
    }

    /// Number of events in a stream.
    pub fn count(&self, r: EventRef) -> usize {
        event_count(self.stream(r))
    }

    /// Decodes a stream to raw `(cycle, bits)` events (tests, diagnostics).
    pub fn decode(&self, r: EventRef) -> Vec<(u64, u32)> {
        decode(self.stream(r))
    }

    /// Appends raw events as a compressed stream, returning its ref.
    pub fn push_events(&mut self, events: &[(u64, u32)]) -> EventRef {
        let mut enc = Encoder::new(&mut self.words);
        for &(c, v) in events {
            enc.push(c, v);
        }
        enc.finish()
    }

    /// Eq. 2 / Eq. 3 of one stream, folded over the compressed runs.
    pub fn sa_ar(&self, r: EventRef, latency: u64) -> (f64, f64) {
        fold_sa_ar(self.stream(r), latency)
    }
}

/// Size in words of the run whose header is `h`.
#[inline]
fn run_words(h: u32) -> usize {
    if h & CONST_BIT != 0 {
        5
    } else {
        4 + (h & COUNT_MASK) as usize
    }
}

/// Number of events in an encoded stream.
pub fn event_count(words: &[u32]) -> usize {
    let mut n = 0usize;
    let mut i = 0usize;
    while i < words.len() {
        let h = words[i];
        n += (h & COUNT_MASK) as usize;
        i += run_words(h);
    }
    n
}

/// Decodes an encoded stream to raw `(cycle, bits)` events.
pub fn decode(words: &[u32]) -> Vec<(u64, u32)> {
    let mut out = Vec::with_capacity(event_count(words));
    decode_into(&mut out, words);
    out
}

/// Appends the decoded events of `words` to `out`.
pub fn decode_into(out: &mut Vec<(u64, u32)>, words: &[u32]) {
    let mut i = 0usize;
    while i < words.len() {
        let h = words[i];
        let count = (h & COUNT_MASK) as u64;
        let start = words[i + 1] as u64 | ((words[i + 2] as u64) << 32);
        let stride = words[i + 3] as u64;
        if h & CONST_BIT != 0 {
            let v = words[i + 4];
            for k in 0..count {
                out.push((start + k * stride, v));
            }
        } else {
            for k in 0..count {
                out.push((start + k * stride, words[i + 4 + k as usize]));
            }
        }
        i += run_words(h);
    }
}

/// [`switching_activity`](crate::switching_activity) and
/// [`activation_rate`](crate::activation_rate) of one compressed stream in
/// a single pass over its runs, without materializing events: the
/// one-input case of [`merge_fold`], so bit-identical to the slice math.
pub fn fold_sa_ar(words: &[u32], latency: u64) -> (f64, f64) {
    merge_fold(&[words]).sa_ar(latency)
}

/// Encodes one stream whose cycles are a known arithmetic progression
/// (`start + i * stride`) from a contiguous value buffer — the
/// interpreter's fast path: the cycle side needs no per-event delta
/// detection at all. Values are run-length segmented: a maximal equal
/// stretch of at least `MIN_CONST_RUN` becomes a const run, and each
/// stretch between const runs is one verbatim run, copied as one slice.
pub fn encode_affine(out: &mut Vec<u32>, start_cycle: u64, stride: u32, vals: &[u32]) -> EventRef {
    let begin = out.len();
    let n = vals.len();
    let at = |i: usize| start_cycle + i as u64 * stride as u64;
    // Values `vals[verbatim..i]` wait for the next const run or the end.
    let mut verbatim = 0usize;
    let mut i = 0usize;
    while i < n {
        let v = vals[i];
        let mut j = i + 1;
        while j < n && vals[j] == v {
            j += 1;
        }
        if j - i >= MIN_CONST_RUN as usize {
            if verbatim < i {
                let s = at(verbatim);
                out.extend_from_slice(&[(i - verbatim) as u32, s as u32, (s >> 32) as u32, stride]);
                out.extend_from_slice(&vals[verbatim..i]);
            }
            let s = at(i);
            out.extend_from_slice(&[
                CONST_BIT | (j - i) as u32,
                s as u32,
                (s >> 32) as u32,
                stride,
                v,
            ]);
            verbatim = j;
        }
        i = j;
    }
    if verbatim < n {
        let s = at(verbatim);
        out.extend_from_slice(&[(n - verbatim) as u32, s as u32, (s >> 32) as u32, stride]);
        out.extend_from_slice(&vals[verbatim..n]);
    }
    EventRef {
        off: begin as u32,
        len: (out.len() - begin) as u32,
    }
}

/// Appends a copy of stream `src`, which is already in `out`, with every
/// run's start cycle shifted by `delta` (mod 2^64). Run boundaries depend
/// only on values, so for a stream from [`encode_affine`] this is exactly
/// what encoding the same values `delta` cycles later gives; the trace
/// interpreter encodes each aliased input stream this way.
pub fn copy_shifted(out: &mut Vec<u32>, src: EventRef, delta: u64) -> EventRef {
    let begin = out.len();
    out.extend_from_within(src.off as usize..(src.off + src.len) as usize);
    let mut i = begin;
    while i < out.len() {
        let start = (out[i + 1] as u64 | ((out[i + 2] as u64) << 32)).wrapping_add(delta);
        out[i + 1] = start as u32;
        out[i + 2] = (start >> 32) as u32;
        i += run_words(out[i]);
    }
    EventRef {
        off: begin as u32,
        len: (out.len() - begin) as u32,
    }
}

/// Streaming encoder for arbitrary `(cycle, bits)` sequences (tests,
/// synthetic graphs). Detects arithmetic cycle progressions and constant
/// value stretches on the fly; any push order round-trips exactly, runs
/// just get shorter when cycles are non-decreasing.
pub struct Encoder<'a> {
    out: &'a mut Vec<u32>,
    begin: usize,
    /// Header index of the open run (`usize::MAX` = none).
    run: usize,
    is_const: bool,
    count: u32,
    last_cycle: u64,
    /// Established cycle stride (`None` until the second event).
    stride: Option<u32>,
    const_val: u32,
    last_val: u32,
    /// Trailing equal values inside a verbatim run.
    trail: u32,
}

impl<'a> Encoder<'a> {
    /// Starts a stream at the current end of `out`.
    pub fn new(out: &'a mut Vec<u32>) -> Self {
        let begin = out.len();
        Encoder {
            out,
            begin,
            run: usize::MAX,
            is_const: false,
            count: 0,
            last_cycle: 0,
            stride: None,
            const_val: 0,
            last_val: 0,
            trail: 0,
        }
    }

    fn close_run(&mut self) {
        if self.run != usize::MAX {
            self.out[self.run] = self.count | if self.is_const { CONST_BIT } else { 0 };
            self.out[self.run + 3] = self.stride.unwrap_or(0);
            self.run = usize::MAX;
        }
    }

    fn open_run(&mut self, cycle: u64, bits: u32) {
        self.run = self.out.len();
        self.out
            .extend_from_slice(&[0, cycle as u32, (cycle >> 32) as u32, 0, bits]);
        self.is_const = true;
        self.count = 1;
        self.stride = None;
        self.const_val = bits;
        self.trail = 1;
    }

    /// Appends one event.
    pub fn push(&mut self, cycle: u64, bits: u32) {
        if self.run == usize::MAX {
            self.open_run(cycle, bits);
            self.last_cycle = cycle;
            self.last_val = bits;
            return;
        }
        // Cycle side: the run continues only on a consistent stride.
        let delta = cycle.wrapping_sub(self.last_cycle);
        let fits = cycle >= self.last_cycle && delta <= u32::MAX as u64;
        let stride_ok = match (fits, self.stride) {
            (false, _) => false,
            (true, None) => {
                self.stride = Some(delta as u32);
                true
            }
            (true, Some(s)) => s as u64 == delta,
        };
        if !stride_ok {
            self.close_run();
            self.open_run(cycle, bits);
            self.last_cycle = cycle;
            self.last_val = bits;
            return;
        }
        if self.is_const {
            if bits == self.const_val {
                self.count += 1;
            } else if self.count >= MIN_CONST_RUN {
                // Long constant stretch: keep it as its own run.
                self.close_run();
                self.open_run(cycle, bits);
            } else {
                // Too short to pay a run header: demote to verbatim.
                for _ in 0..self.count - 1 {
                    self.out.push(self.const_val);
                }
                self.out.push(bits);
                self.is_const = false;
                self.count += 1;
                self.trail = 1;
            }
        } else {
            self.out.push(bits);
            self.count += 1;
            self.trail = if bits == self.last_val {
                self.trail + 1
            } else {
                1
            };
            // A constant stretch grew inside the verbatim run: split it out.
            if self.trail == MIN_CONST_RUN && self.count > MIN_CONST_RUN {
                let s = self.stride.expect("run with >1 event has a stride");
                self.out.truncate(self.out.len() - MIN_CONST_RUN as usize);
                self.count -= MIN_CONST_RUN;
                self.close_run();
                let start = cycle - (MIN_CONST_RUN as u64 - 1) * s as u64;
                self.open_run(start, bits);
                self.stride = Some(s);
                self.count = MIN_CONST_RUN;
            }
        }
        self.last_cycle = cycle;
        self.last_val = bits;
    }

    /// Closes the stream and returns its ref.
    pub fn finish(mut self) -> EventRef {
        self.close_run();
        EventRef {
            off: self.begin as u32,
            len: (self.out.len() - self.begin) as u32,
        }
    }
}

/// The integer totals of an Eq. 2 / Eq. 3 fold: the Hamming distance and
/// the value changes between consecutive events, and the event count.
/// Every fold in this module feeds values through this one accumulator in
/// event order, so folding compressed runs, folding a time-merge of many
/// streams and the naive slice math all reach the same totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fold {
    hamming: u64,
    changes: u64,
    events: u64,
    prev: u32,
    have_prev: bool,
}

impl Fold {
    /// Feeds the next value in event order (the caller counts events).
    #[inline]
    fn value(&mut self, v: u32) {
        if self.have_prev {
            let d = (self.prev ^ v).count_ones() as u64;
            self.hamming += d;
            self.changes += (d != 0) as u64;
        }
        self.prev = v;
        self.have_prev = true;
    }

    /// Feeds every event of one stream, run by run: a constant run
    /// transitions at most once, at its boundary.
    fn runs(&mut self, words: &[u32]) {
        let mut i = 0usize;
        while i < words.len() {
            let h = words[i];
            let count = (h & COUNT_MASK) as usize;
            if h & CONST_BIT != 0 {
                self.value(words[i + 4]);
            } else {
                for &v in &words[i + 4..i + 4 + count] {
                    self.value(v);
                }
            }
            self.events += count as u64;
            i += run_words(h);
        }
    }

    /// Eq. 2 / Eq. 3 over `latency` cycles; `(0, 0)` for fewer than two
    /// events or a zero latency.
    pub fn sa_ar(&self, latency: u64) -> (f64, f64) {
        if latency == 0 || self.events < 2 {
            return (0.0, 0.0);
        }
        (
            self.hamming as f64 / latency as f64,
            self.changes as f64 / latency as f64,
        )
    }
}

/// A read cursor over one encoded stream, yielding `(cycle, bits)` events
/// without materializing them.
#[derive(Clone, Copy)]
struct StreamCursor<'a> {
    words: &'a [u32],
    /// Index of the next run header.
    i: usize,
    /// Remaining events in the current run.
    rem: u32,
    cycle: u64,
    stride: u64,
    /// Position of the next value (fixed inside a const run).
    vpos: usize,
    is_const: bool,
}

impl<'a> StreamCursor<'a> {
    fn new(words: &'a [u32]) -> Self {
        StreamCursor {
            words,
            i: 0,
            rem: 0,
            cycle: 0,
            stride: 0,
            vpos: 0,
            is_const: false,
        }
    }

    #[inline]
    fn next(&mut self) -> Option<(u64, u32)> {
        if self.rem == 0 {
            if self.i >= self.words.len() {
                return None;
            }
            let h = self.words[self.i];
            self.rem = h & COUNT_MASK;
            self.cycle = self.words[self.i + 1] as u64 | ((self.words[self.i + 2] as u64) << 32);
            self.stride = self.words[self.i + 3] as u64;
            self.vpos = self.i + 4;
            self.is_const = h & CONST_BIT != 0;
            self.i += run_words(h);
        }
        self.rem -= 1;
        let ev = (self.cycle, self.words[self.vpos]);
        self.cycle += self.stride;
        self.vpos += !self.is_const as usize;
        Some(ev)
    }
}

/// One input stream parsed as a single affine cycle progression:
/// possibly several const/affine runs back to back, all with one stride
/// and contiguous starts. This is the shape every interpreter stream has
/// (one arithmetic progression per block, values segmented into
/// const/verbatim runs).
#[derive(Clone, Copy)]
struct AffineMeta {
    start: u64,
    stride: u32,
    count: u32,
}

fn parse_affine(words: &[u32]) -> Option<AffineMeta> {
    if words.is_empty() {
        return None;
    }
    let start = stream_first(words);
    let stride = words[3];
    let mut count = 0u64;
    let mut i = 0usize;
    while i < words.len() {
        let h = words[i];
        let run_count = (h & COUNT_MASK) as u64;
        // A one-event run's stride is meaningless; any other run must
        // continue the progression exactly.
        if run_count > 1 && words[i + 3] != stride {
            return None;
        }
        let run_start = words[i + 1] as u64 | ((words[i + 2] as u64) << 32);
        if run_start != start + count * stride as u64 {
            return None;
        }
        count += run_count;
        i += run_words(h);
    }
    (count <= COUNT_MASK as u64).then_some(AffineMeta {
        start,
        stride,
        count: count as u32,
    })
}

/// First event cycle of a non-empty encoded stream.
#[inline]
fn stream_first(words: &[u32]) -> u64 {
    words[1] as u64 | ((words[2] as u64) << 32)
}

/// Last event cycle of a non-empty encoded stream.
fn stream_last(words: &[u32]) -> u64 {
    let mut i = 0usize;
    let mut last = 0u64;
    while i < words.len() {
        let h = words[i];
        let count = (h & COUNT_MASK) as u64;
        let start = words[i + 1] as u64 | ((words[i + 2] as u64) << 32);
        last = start + (count - 1) * words[i + 3] as u64;
        i += run_words(h);
    }
    last
}

/// Per-member scratch slots of a merge live on the stack up to this
/// fan-in; wider merges take them from the heap.
const INLINE_FAN_IN: usize = 16;

/// Runs `f` over `k` scratch slots initialised to `fill`.
fn with_slots<T: Copy, R>(k: usize, fill: T, f: impl FnOnce(&mut [T]) -> R) -> R {
    if k <= INLINE_FAN_IN {
        f(&mut [fill; INLINE_FAN_IN][..k])
    } else {
        f(&mut vec![fill; k])
    }
}

/// Folds the stable time-merge of `inputs` without materializing it:
/// equal cycles take the earlier input first, the order of a left fold of
/// pairwise [`crate::sa::merge_events`]. Any fan-in; empty inputs
/// contribute nothing, and one input folds its runs directly.
///
/// Inputs are first partitioned into clusters of time-overlapping
/// streams: streams of *different blocks* occupy disjoint cycle windows
/// (blocks execute in distributed order), so the merge visits whole
/// clusters one after another. A singleton cluster folds run by run
/// (const runs in O(1)), and only genuinely interleaving streams pay for
/// a merge. Strict window disjointness means cycle ties can only occur
/// inside one cluster, where members keep their original relative order,
/// so the tie-break is the pairwise fold's.
pub fn merge_fold(inputs: &[&[u32]]) -> Fold {
    let mut acc = Fold::default();
    if let [w] = inputs {
        acc.runs(w);
        return acc;
    }
    with_slots(inputs.len(), (0u64, 0usize, 0u64), |windows| {
        // (first cycle, input index, last cycle) of every non-empty input.
        let mut m = 0usize;
        for (i, w) in inputs.iter().enumerate().filter(|(_, w)| !w.is_empty()) {
            windows[m] = (stream_first(w), i, stream_last(w));
            m += 1;
        }
        let windows = &mut windows[..m];
        windows.sort_unstable();
        let mut ci = 0usize;
        while ci < m {
            // Grow the cluster while the next stream's window starts at or
            // before the cluster's end (ties must stay inside one cluster).
            let mut cj = ci;
            let mut end = windows[ci].2;
            while cj + 1 < m && windows[cj + 1].0 <= end {
                cj += 1;
                end = end.max(windows[cj].2);
            }
            let cluster = &mut windows[ci..=cj];
            if let [(_, i, _)] = *cluster {
                acc.runs(inputs[i]);
            } else {
                // Cluster members in original input order.
                cluster.sort_unstable_by_key(|w| w.1);
                with_slots(cluster.len(), &[][..], |members| {
                    for (slot, w) in members.iter_mut().zip(cluster.iter()) {
                        *slot = inputs[w.1];
                    }
                    if !fold_aligned(&mut acc, members) {
                        fold_cursors(&mut acc, members);
                    }
                });
            }
            ci = cj + 1;
        }
    });
    acc
}

/// One lane of an aligned walk: a read position in one affine stream.
#[derive(Clone, Copy)]
struct Lane<'a> {
    start: u64,
    member: usize,
    words: &'a [u32],
    /// Header index of the next run.
    next: usize,
    /// Events left in the current run.
    rem: u32,
    /// Position of the current value; it advances by `step` per event,
    /// which is 0 inside a const run.
    vpos: usize,
    step: usize,
}

impl<'a> Lane<'a> {
    fn new(start: u64, member: usize, words: &'a [u32]) -> Self {
        Lane {
            start,
            member,
            words,
            next: 0,
            rem: 0,
            vpos: 0,
            step: 0,
        }
    }

    fn load_run(&mut self) {
        let h = self.words[self.next];
        self.rem = h & COUNT_MASK;
        self.vpos = self.next + 4;
        self.step = (h & CONST_BIT == 0) as usize;
        self.next += run_words(h);
    }
}

/// Aligned-lane fast path: every member is one affine progression with
/// the same stride and count, and the start-cycle spread is smaller than
/// the stride — the shape datapath merging produces when it fuses the
/// parallel lanes of one block. The interleave is then perfectly
/// periodic: iteration `i` visits every lane's `i`-th event in
/// `(start, member index)` order, so the fold is a table walk with no
/// cycle comparisons. It goes chunk by chunk, a chunk being as many
/// iterations as every lane stays inside its current run; when every
/// lane is in a const run, the chunk's iterations all repeat one value
/// pattern and fold in O(lanes). Returns `false`, having folded nothing,
/// when the shape does not hold.
fn fold_aligned(acc: &mut Fold, members: &[&[u32]]) -> bool {
    let Some(first) = parse_affine(members[0]) else {
        return false;
    };
    with_slots(members.len(), Lane::new(0, 0, &[]), |lanes| {
        for (j, (lane, w)) in lanes.iter_mut().zip(members).enumerate() {
            match parse_affine(w) {
                Some(m) if m.stride == first.stride && m.count == first.count => {
                    *lane = Lane::new(m.start, j, w);
                }
                _ => return false,
            }
        }
        lanes.sort_unstable_by_key(|l| (l.start, l.member));
        if lanes[lanes.len() - 1].start - lanes[0].start >= first.stride as u64 {
            return false;
        }
        let mut left = first.count;
        while left > 0 {
            let mut chunk = u32::MAX;
            let mut all_const = true;
            for lane in lanes.iter_mut() {
                if lane.rem == 0 {
                    lane.load_run();
                }
                chunk = chunk.min(lane.rem);
                all_const &= lane.step == 0;
            }
            if all_const {
                // The first iteration enters from the previous value;
                // every later one repeats the same lane-to-lane totals.
                for lane in lanes.iter() {
                    acc.value(lane.words[lane.vpos]);
                }
                let mut pattern = Fold {
                    prev: acc.prev,
                    have_prev: true,
                    ..Fold::default()
                };
                for lane in lanes.iter() {
                    pattern.value(lane.words[lane.vpos]);
                }
                let repeats = (chunk - 1) as u64;
                acc.hamming += repeats * pattern.hamming;
                acc.changes += repeats * pattern.changes;
            } else {
                for i in 0..chunk as usize {
                    for lane in lanes.iter() {
                        acc.value(lane.words[lane.vpos + i * lane.step]);
                    }
                }
                for lane in lanes.iter_mut() {
                    lane.vpos += chunk as usize * lane.step;
                }
            }
            for lane in lanes.iter_mut() {
                lane.rem -= chunk;
            }
            left -= chunk;
        }
        acc.events += first.count as u64 * lanes.len() as u64;
        true
    })
}

/// Cursor merge of one cluster (members in original order). Each step
/// takes the head with the earliest cycle, the earlier member on ties,
/// and keeps taking from that member while it stays ahead of every other
/// head, so long stretches of one member cost one comparison per event.
fn fold_cursors(acc: &mut Fold, members: &[&[u32]]) {
    with_slots(
        members.len(),
        (u64::MAX, 0u32, StreamCursor::new(&[])),
        |heads| {
            for (h, w) in heads.iter_mut().zip(members) {
                let mut c = StreamCursor::new(w);
                // Exhausted cursors park at u64::MAX.
                let (cycle, v) = c.next().unwrap_or((u64::MAX, 0));
                *h = (cycle, v, c);
            }
            loop {
                // Earliest head, then the earliest of the others; strict `<`
                // keeps the lower member index on ties.
                let (mut best, mut next) = (0usize, usize::MAX);
                for s in 1..heads.len() {
                    if heads[s].0 < heads[best].0 {
                        next = best;
                        best = s;
                    } else if next == usize::MAX || heads[s].0 < heads[next].0 {
                        next = s;
                    }
                }
                if heads[best].0 == u64::MAX {
                    break;
                }
                let (bound, bound_member) = (heads[next].0, next);
                let head = &mut heads[best];
                loop {
                    acc.value(head.1);
                    acc.events += 1;
                    match head.2.next() {
                        Some((c, v)) => {
                            head.0 = c;
                            head.1 = v;
                            if c > bound || (c == bound && best > bound_member) {
                                break;
                            }
                        }
                        None => {
                            head.0 = u64::MAX;
                            break;
                        }
                    }
                }
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::{activation_rate, merge_events, sa_ar, switching_activity};

    fn roundtrip(events: &[(u64, u32)]) -> Vec<(u64, u32)> {
        let mut arena = EventArena::new();
        let r = arena.push_events(events);
        arena.decode(r)
    }

    #[test]
    fn empty_stream() {
        let mut arena = EventArena::new();
        let r = arena.push_events(&[]);
        assert!(r.is_empty());
        assert_eq!(arena.count(r), 0);
        assert_eq!(arena.decode(r), vec![]);
        assert_eq!(arena.sa_ar(r, 10), (0.0, 0.0));
    }

    #[test]
    fn roundtrip_exact() {
        let cases: Vec<Vec<(u64, u32)>> = vec![
            vec![(0, 7)],
            vec![(0, 1), (1, 2), (2, 3)],
            vec![(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)],
            vec![(0, 5), (3, 5), (6, 9), (7, 9), (20, 1)],
            vec![
                (0, 0),
                (1, 0),
                (2, 0),
                (3, 0),
                (4, 1),
                (5, 1),
                (6, 1),
                (7, 1),
            ],
            vec![(10, 4), (12, 4), (14, 4), (16, 8), (18, 8), (21, 8)],
            // high-cycle start (start_hi path)
            vec![(1 << 40, 1), ((1 << 40) + 2, 2)],
        ];
        for ev in cases {
            assert_eq!(roundtrip(&ev), ev, "case {ev:?}");
        }
    }

    #[test]
    fn out_of_order_cycles_still_roundtrip() {
        let ev = vec![(5u64, 1u32), (2, 2), (9, 3), (9, 4)];
        assert_eq!(roundtrip(&ev), ev);
    }

    #[test]
    fn constant_stretches_compress() {
        let ev: Vec<(u64, u32)> = (0..1000u64).map(|c| (c, 42)).collect();
        let mut arena = EventArena::new();
        let r = arena.push_events(&ev);
        assert_eq!(r.len, 5, "one const run expected");
        assert_eq!(arena.count(r), 1000);
        assert_eq!(arena.decode(r), ev);
    }

    #[test]
    fn verbatim_trailing_repeats_promote() {
        let mut ev: Vec<(u64, u32)> = vec![(0, 1), (1, 2), (2, 3)];
        ev.extend((3..40u64).map(|c| (c, 9)));
        let rt = roundtrip(&ev);
        assert_eq!(rt, ev);
        let mut arena = EventArena::new();
        let r = arena.push_events(&ev);
        // verbatim prefix + const tail: far smaller than one value per event
        assert!(
            r.len < ev.len() as u32,
            "tail must compress: {} words",
            r.len
        );
    }

    #[test]
    fn fold_bitwise_matches_slice_math() {
        let ev: Vec<(u64, u32)> = vec![
            (0, 0),
            (1, 0xFF),
            (2, 0xFF),
            (3, 0xFF),
            (4, 0xFF),
            (5, 0xFF),
            (6, 0x0F),
            (9, 0xF0),
        ];
        let mut arena = EventArena::new();
        let r = arena.push_events(&ev);
        let (sa_c, ar_c) = arena.sa_ar(r, 13);
        let (sa_n, ar_n) = sa_ar(&ev, 13);
        assert_eq!(sa_c.to_bits(), sa_n.to_bits());
        assert_eq!(ar_c.to_bits(), ar_n.to_bits());
        assert_eq!(sa_c.to_bits(), switching_activity(&ev, 13).to_bits());
        assert_eq!(ar_c.to_bits(), activation_rate(&ev, 13).to_bits());
    }

    /// The encoder `encode_affine` replaced, which appended verbatim values
    /// one at a time; kept to pin the arena words.
    fn encode_affine_per_value(out: &mut Vec<u32>, start_cycle: u64, stride: u32, vals: &[u32]) {
        let n = vals.len();
        let mut open = usize::MAX;
        let mut i = 0usize;
        while i < n {
            let v = vals[i];
            let mut j = i + 1;
            while j < n && vals[j] == v {
                j += 1;
            }
            let run_len = (j - i) as u32;
            if run_len >= MIN_CONST_RUN {
                if open != usize::MAX {
                    out[open] = (out.len() - open - 4) as u32;
                    open = usize::MAX;
                }
                let s = start_cycle + i as u64 * stride as u64;
                out.extend_from_slice(&[
                    CONST_BIT | run_len,
                    s as u32,
                    (s >> 32) as u32,
                    stride,
                    v,
                ]);
            } else {
                if open == usize::MAX {
                    open = out.len();
                    let s = start_cycle + i as u64 * stride as u64;
                    out.extend_from_slice(&[0, s as u32, (s >> 32) as u32, stride]);
                }
                for _ in 0..run_len {
                    out.push(v);
                }
            }
            i = j;
        }
        if open != usize::MAX {
            out[open] = (out.len() - open - 4) as u32;
        }
    }

    #[test]
    fn affine_encode_words_match_per_value_encoder() {
        let mut rng = pg_util::Rng64::new(7);
        for case in 0..400 {
            let n = 1 + rng.below(70);
            let alphabet = 1 + rng.below(if case % 2 == 0 { 3 } else { 1000 });
            let vals: Vec<u32> = (0..n).map(|_| rng.below(alphabet) as u32).collect();
            let (start, stride) = (
                (1u64 << 33) + rng.below(1000) as u64,
                1 + rng.below(9) as u32,
            );
            let mut got = vec![9, 9];
            let r = encode_affine(&mut got, start, stride, &vals);
            let mut want = vec![9, 9];
            encode_affine_per_value(&mut want, start, stride, &vals);
            assert_eq!(got, want, "values {vals:?}");
            assert_eq!((r.off, r.len as usize), (2, want.len() - 2));
        }
    }

    #[test]
    fn copy_shifted_equals_encoding_at_the_shifted_start() {
        let mut rng = pg_util::Rng64::new(11);
        for _ in 0..200 {
            let n = 1 + rng.below(60);
            let vals: Vec<u32> = (0..n).map(|_| rng.below(3) as u32).collect();
            let stride = 1 + rng.below(5) as u32;
            let (from, to) = (rng.below(1 << 20) as u64, rng.below(1 << 20) as u64);
            let mut out = vec![0];
            let first = encode_affine(&mut out, from, stride, &vals);
            let copy = copy_shifted(&mut out, first, to.wrapping_sub(from));
            let mut want = Vec::new();
            encode_affine(&mut want, to, stride, &vals);
            assert_eq!(&out[copy.off as usize..], &want[..]);
        }
    }

    #[test]
    fn merge_fold_matches_folding_merge_events() {
        let cases: Vec<(Vec<(u64, u32)>, Vec<(u64, u32)>)> = vec![
            (vec![(0, 1), (4, 2), (8, 3)], vec![(1, 9), (4, 8), (20, 7)]),
            (vec![], vec![(1, 9), (2, 8)]),
            (vec![(5, 5)], vec![]),
            (
                (0..40u64).map(|c| (c * 2, c as u32)).collect(),
                (0..40u64).map(|c| (c * 2 + 1, 7)).collect(),
            ),
            (
                (0..30u64).map(|c| (c * 3, (c * 17) as u32)).collect(),
                (0..30u64).map(|c| (c * 3 + 1, 0xF0)).collect(),
            ),
        ];
        for (a, b) in cases {
            let mut arena = EventArena::new();
            let ra = arena.push_events(&a);
            let rb = arena.push_events(&b);
            let naive = merge_events(&a, &b);
            let fold = merge_fold(&[arena.stream(ra), arena.stream(rb)]);
            assert_eq!(fold.events, naive.len() as u64, "case a={a:?} b={b:?}");
            for latency in [0, 1, 97] {
                let (sa_c, ar_c) = fold.sa_ar(latency);
                let (sa_n, ar_n) = sa_ar(&naive, latency);
                assert_eq!(sa_c.to_bits(), sa_n.to_bits(), "case a={a:?} b={b:?}");
                assert_eq!(ar_c.to_bits(), ar_n.to_bits(), "case a={a:?} b={b:?}");
            }
        }
    }

    #[test]
    fn aligned_lanes_take_the_table_walk() {
        // Four lanes of one block: one stride and count, starts within a
        // stride, two pairs of equal starts (cycle ties across lanes).
        let lane = |j: u64| -> Vec<(u64, u32)> {
            (0..20u64)
                .map(|i| (100 + j / 2 + i * 8, (i * j % 5) as u32))
                .collect()
        };
        let lanes: Vec<Vec<(u64, u32)>> = (0..4).map(lane).collect();
        let mut arena = EventArena::new();
        let refs: Vec<EventRef> = lanes.iter().map(|l| arena.push_events(l)).collect();
        let inputs: Vec<&[u32]> = refs.iter().map(|&r| arena.stream(r)).collect();
        let mut walked = Fold::default();
        assert!(fold_aligned(&mut walked, &inputs));
        let mut merged = Fold::default();
        fold_cursors(&mut merged, &inputs);
        assert_eq!(walked, merged);
        let naive = lanes[1..]
            .iter()
            .fold(lanes[0].clone(), |acc, l| merge_events(&acc, l));
        assert_eq!(walked.events, naive.len() as u64);
        assert_eq!(walked.sa_ar(1), sa_ar(&naive, 1));
        assert_eq!(merge_fold(&inputs), walked);
        // Const stretches ending at different events in each lane: chunks
        // where every lane is const fold by repeating one pattern.
        let stretch = |j: u64| -> Vec<(u64, u32)> {
            (0..60u64)
                .map(|i| (7 + j + i * 5, ((i + 3 * j) / 9 % 3) as u32 + j as u32))
                .collect()
        };
        let stretches: Vec<Vec<(u64, u32)>> = (0..3).map(stretch).collect();
        let refs3: Vec<EventRef> = stretches.iter().map(|l| arena.push_events(l)).collect();
        let inputs3: Vec<&[u32]> = refs3.iter().map(|&r| arena.stream(r)).collect();
        let mut walked = Fold::default();
        assert!(fold_aligned(&mut walked, &inputs3));
        let mut merged = Fold::default();
        fold_cursors(&mut merged, &inputs3);
        assert_eq!(walked, merged);
        let naive = stretches[1..]
            .iter()
            .fold(stretches[0].clone(), |acc, l| merge_events(&acc, l));
        assert_eq!(walked.sa_ar(1), sa_ar(&naive, 1));
        // A lane a whole stride late is not aligned: nothing is folded.
        let late: Vec<(u64, u32)> = lanes[3].iter().map(|&(c, v)| (c + 8, v)).collect();
        let r = arena.push_events(&late);
        let mut untouched = Fold::default();
        assert!(!fold_aligned(
            &mut untouched,
            &[arena.stream(refs[0]), arena.stream(r)]
        ));
        assert_eq!(untouched, Fold::default());
    }
}
