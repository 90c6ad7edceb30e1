//! Flat arenas of run-length/delta compressed event streams.
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
//! A stream is a sequence of *runs* in three shapes, tagged by the top two
//! header bits (bits 0..=29 hold the event count, always >= 1):
//!
//! ```text
//! const   (bit 31)  [header, start_lo, start_hi, stride, value]
//!                   `count` events at `start + i*stride`, one repeated
//!                   value — run-length + delta compression in 5 words
//! affine  (neither) [header, start_lo, start_hi, stride, v0..v_count-1]
//!                   arithmetic cycle progression, verbatim values
//! delta   (bit 30)  [header, start_lo, start_hi, v0, (d1,v1), (d2,v2)..]
//!                   explicit per-event cycle deltas — the shape stream
//!                   merges emit, because a time-interleave of two affine
//!                   streams has no single stride
//! ```
//!
//! Per-block interpreter streams fire once per loop iteration, so their
//! cycle side is exactly one arithmetic progression and constant value
//! stretches (outer induction variables, re-read addresses) collapse to
//! const runs. An empty stream is `len == 0`; worst case the encoding
//! costs 2 words/event (delta runs) versus 3 uncompressed.
//!
//! Everything downstream folds **directly over the compressed runs**
//! ([`fold_sa_ar`]): a constant run of any length contributes at most one
//! value transition, so SA/AR of heavily repetitive streams costs O(runs)
//! instead of O(events). Folds accumulate the same integer Hamming /
//! change counts in the same order as the naive slice math in
//! [`crate::sa`], so results are bit-identical.

/// Bit 31 of a run header: the payload is one repeated value.
const CONST_BIT: u32 = 1 << 31;
/// Bit 30 of a run header: explicit per-event cycle deltas.
const DELTA_BIT: u32 = 1 << 30;
/// Mask of the event count in a run header.
const COUNT_MASK: u32 = DELTA_BIT - 1;
/// A constant stretch shorter than this is not worth its own run.
const MIN_CONST_RUN: u32 = 4;

/// A flat buffer of compressed event streams.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventArena {
    words: Vec<u32>,
}

/// A `(offset, len)` slice of an [`EventArena`], in words. Copyable —
/// attaching a stream to another edge is two register moves, not an
/// allocation. Bit 31 of `off` is reserved for the owner to tag which of
/// two arenas the slice lives in (see `pg_graphcon`'s base/extension
/// split); the arena itself never sets it.
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

    /// Mutable raw words (encoder entry point).
    pub fn words_mut(&mut self) -> &mut Vec<u32> {
        &mut self.words
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

/// Size in words of the run starting at `words[i]`.
#[inline]
fn run_words(h: u32) -> usize {
    let count = (h & COUNT_MASK) as usize;
    if h & CONST_BIT != 0 {
        5
    } else if h & DELTA_BIT != 0 {
        4 + 2 * (count - 1)
    } else {
        4 + count
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
        if h & CONST_BIT != 0 {
            let stride = words[i + 3] as u64;
            let v = words[i + 4];
            for k in 0..count {
                out.push((start + k * stride, v));
            }
            i += 5;
        } else if h & DELTA_BIT != 0 {
            let mut cycle = start;
            out.push((cycle, words[i + 3]));
            let mut j = i + 4;
            for _ in 1..count {
                cycle += words[j] as u64;
                out.push((cycle, words[j + 1]));
                j += 2;
            }
            i = j;
        } else {
            let stride = words[i + 3] as u64;
            for k in 0..count {
                out.push((start + k * stride, words[i + 4 + k as usize]));
            }
            i += 4 + count as usize;
        }
    }
}

/// [`switching_activity`](crate::switching_activity) and
/// [`activation_rate`](crate::activation_rate) of one compressed stream in
/// a single pass over its runs, without materializing events. Accumulates
/// the identical integer Hamming/change totals as the slice math, so the
/// result is bit-identical.
pub fn fold_sa_ar(words: &[u32], latency: u64) -> (f64, f64) {
    let mut hamming = 0u64;
    let mut changes = 0u64;
    let mut n = 0u64;
    let mut prev = 0u32;
    let mut have_prev = false;
    let mut i = 0usize;
    while i < words.len() {
        let h = words[i];
        let count = (h & COUNT_MASK) as u64;
        if h & CONST_BIT != 0 {
            // A constant run transitions at most once, at its boundary.
            let v = words[i + 4];
            if have_prev {
                let d = (prev ^ v).count_ones() as u64;
                hamming += d;
                changes += (d != 0) as u64;
            }
            prev = v;
            have_prev = true;
            i += 5;
        } else if h & DELTA_BIT != 0 {
            let v0 = words[i + 3];
            if have_prev {
                let d = (prev ^ v0).count_ones() as u64;
                hamming += d;
                changes += (d != 0) as u64;
            }
            prev = v0;
            have_prev = true;
            let mut j = i + 4;
            for _ in 1..count {
                let v = words[j + 1];
                let d = (prev ^ v).count_ones() as u64;
                hamming += d;
                changes += (d != 0) as u64;
                prev = v;
                j += 2;
            }
            i = j;
        } else {
            for k in 0..count as usize {
                let v = words[i + 4 + k];
                if have_prev {
                    let d = (prev ^ v).count_ones() as u64;
                    hamming += d;
                    changes += (d != 0) as u64;
                }
                prev = v;
                have_prev = true;
            }
            i += 4 + count as usize;
        }
        n += count;
    }
    if latency == 0 || n < 2 {
        return (0.0, 0.0);
    }
    (
        hamming as f64 / latency as f64,
        changes as f64 / latency as f64,
    )
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

/// Streaming encoder for arbitrary `(cycle, bits)` sequences (stream
/// merges, tests). Detects arithmetic cycle progressions and constant
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

/// A read cursor over one encoded stream, yielding `(cycle, bits)` events
/// without materializing them — the stream-merge fast path reads both
/// inputs through cursors at 1–2 words per event.
struct StreamCursor<'a> {
    words: &'a [u32],
    /// Index of the next run header.
    i: usize,
    /// Remaining events in the current run.
    rem: u32,
    cycle: u64,
    stride: u64,
    /// 0 = affine verbatim, 1 = const, 2 = delta.
    mode: u8,
    /// Next value position (affine/delta payload walk).
    vpos: usize,
}

impl<'a> StreamCursor<'a> {
    fn new(words: &'a [u32]) -> Self {
        StreamCursor {
            words,
            i: 0,
            rem: 0,
            cycle: 0,
            stride: 0,
            mode: 0,
            vpos: 0,
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
            if h & CONST_BIT != 0 {
                self.mode = 1;
                self.stride = self.words[self.i + 3] as u64;
                self.vpos = self.i + 4;
                self.i += 5;
            } else if h & DELTA_BIT != 0 {
                self.mode = 2;
                self.vpos = self.i + 3;
                self.i += 4 + 2 * (self.rem as usize - 1);
                self.rem -= 1;
                let ev = (self.cycle, self.words[self.vpos]);
                self.vpos += 1;
                return Some(ev);
            } else {
                self.mode = 0;
                self.stride = self.words[self.i + 3] as u64;
                self.vpos = self.i + 4;
                self.i += 4 + self.rem as usize;
            }
        }
        self.rem -= 1;
        match self.mode {
            1 => {
                let ev = (self.cycle, self.words[self.vpos]);
                self.cycle += self.stride;
                Some(ev)
            }
            2 => {
                self.cycle += self.words[self.vpos] as u64;
                let ev = (self.cycle, self.words[self.vpos + 1]);
                self.vpos += 2;
                Some(ev)
            }
            _ => {
                let ev = (self.cycle, self.words[self.vpos]);
                self.cycle += self.stride;
                self.vpos += 1;
                Some(ev)
            }
        }
    }
}

/// Appends one event to an open delta run (see [`MergeScratch`]); returns
/// the updated `(header_index, count, last_cycle)` state.
#[inline]
fn emit_delta(out: &mut Vec<u32>, state: (usize, u32, u64), c: u64, v: u32) -> (usize, u32, u64) {
    let (hdr, count, last_cycle) = state;
    let d = c.wrapping_sub(last_cycle);
    if hdr != usize::MAX && c >= last_cycle && d <= u32::MAX as u64 {
        out.extend_from_slice(&[d as u32, v]);
        (hdr, count + 1, c)
    } else {
        if hdr != usize::MAX {
            out[hdr] = DELTA_BIT | count;
        }
        let new_hdr = out.len();
        out.extend_from_slice(&[0, c as u32, (c >> 32) as u32, v]);
        (new_hdr, 1, c)
    }
}

/// Merges two encoded streams by cycle entirely in the compressed domain
/// (stable: ties take `a` first, like [`crate::sa::merge_events`]),
/// appending the interleave to `out` as delta runs. Both inputs must be
/// non-empty.
pub fn merge_streams(out: &mut Vec<u32>, a: &[u32], b: &[u32]) -> EventRef {
    let begin = out.len();
    let mut ca = StreamCursor::new(a);
    let mut cb = StreamCursor::new(b);
    let mut ea = ca.next();
    let mut eb = cb.next();
    let mut state = (usize::MAX, 0u32, 0u64);
    loop {
        match (ea, eb) {
            (Some((xc, xv)), Some((yc, _))) if xc <= yc => {
                state = emit_delta(out, state, xc, xv);
                ea = ca.next();
            }
            (_, Some((yc, yv))) => {
                state = emit_delta(out, state, yc, yv);
                eb = cb.next();
            }
            (Some((xc, xv)), None) => {
                state = emit_delta(out, state, xc, xv);
                ea = ca.next();
            }
            (None, None) => break,
        }
    }
    out[state.0] = DELTA_BIT | state.1;
    EventRef {
        off: begin as u32,
        len: (out.len() - begin) as u32,
    }
}

/// One input stream parsed as a single affine cycle progression:
/// possibly several const/affine runs back to back, all with one stride
/// and contiguous starts. This is the shape every interpreter stream has
/// (one arithmetic progression per block, values segmented into
/// const/verbatim runs); merged delta streams are not affine.
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
        if h & DELTA_BIT != 0 || (run_count > 1 && words[i + 3] != stride) {
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

/// Sequential value reader over an affine-progression stream (no cycle
/// bookkeeping — the aligned merge derives cycles algebraically).
struct AffineReader<'a> {
    words: &'a [u32],
    /// Next run header index.
    i: usize,
    /// Values left in the current run.
    rem: u32,
    is_const: bool,
    const_val: u32,
    vpos: usize,
}

impl<'a> AffineReader<'a> {
    fn new(words: &'a [u32]) -> Self {
        AffineReader {
            words,
            i: 0,
            rem: 0,
            is_const: false,
            const_val: 0,
            vpos: 0,
        }
    }

    #[inline]
    fn next(&mut self) -> u32 {
        if self.rem == 0 {
            let h = self.words[self.i];
            self.rem = h & COUNT_MASK;
            self.is_const = h & CONST_BIT != 0;
            if self.is_const {
                self.const_val = self.words[self.i + 4];
                self.i += 5;
            } else {
                self.vpos = self.i + 4;
                self.i += 4 + self.rem as usize;
            }
        }
        self.rem -= 1;
        if self.is_const {
            self.const_val
        } else {
            let v = self.words[self.vpos];
            self.vpos += 1;
            v
        }
    }
}

/// First event cycle of a non-empty encoded stream.
#[inline]
fn stream_first(words: &[u32]) -> u64 {
    words[1] as u64 | ((words[2] as u64) << 32)
}

/// Last event cycle of a non-empty encoded stream (walks runs; delta runs
/// cost one add per event).
fn stream_last(words: &[u32]) -> u64 {
    let mut i = 0usize;
    let mut last = 0u64;
    while i < words.len() {
        let h = words[i];
        let count = (h & COUNT_MASK) as u64;
        let start = words[i + 1] as u64 | ((words[i + 2] as u64) << 32);
        if h & DELTA_BIT != 0 {
            let mut c = start;
            let mut j = i + 4;
            for _ in 1..count {
                c += words[j] as u64;
                j += 2;
            }
            last = c;
        } else {
            last = start + (count - 1) * words[i + 3] as u64;
        }
        i += run_words(h);
    }
    last
}

/// Aligned-lane fast path: every input is one affine progression with the
/// same stride and count, and the start-cycle spread is smaller than the
/// stride — the shape datapath merging produces when it fuses the
/// parallel lanes of one block. The interleave is then perfectly
/// periodic: iteration `i` emits every lane's `i`-th event in
/// `(start, input index)` order, so the merge is a tight table walk with
/// no per-event comparisons. Returns `None` when the shape doesn't hold.
fn try_merge_aligned(out: &mut Vec<u32>, inputs: &[&[u32]]) -> Option<EventRef> {
    let k = inputs.len();
    let mut meta: [AffineMeta; MERGE_FAN_IN] = [AffineMeta {
        start: 0,
        stride: 0,
        count: 0,
    }; MERGE_FAN_IN];
    for (slot, w) in meta.iter_mut().zip(inputs.iter()) {
        *slot = parse_affine(w)?;
    }
    let (stride, count) = (meta[0].stride, meta[0].count);
    if count == 0 {
        return None;
    }
    for m in meta.iter().take(k) {
        if m.stride != stride || m.count != count {
            return None;
        }
    }
    // Emission order within one iteration: by (start, input index).
    let mut order: [usize; MERGE_FAN_IN] = [0; MERGE_FAN_IN];
    for (i, o) in order.iter_mut().enumerate() {
        *o = i;
    }
    order[..k].sort_by_key(|&i| (meta[i].start, i));
    let spread = meta[order[k - 1]].start - meta[order[0]].start;
    if spread >= stride as u64 {
        return None;
    }
    // Cycle deltas are periodic: within an iteration the start gaps, and
    // the wrap back to the next iteration's first lane.
    let mut deltas: [u32; MERGE_FAN_IN] = [0; MERGE_FAN_IN];
    for j in 1..k {
        deltas[j] = (meta[order[j]].start - meta[order[j - 1]].start) as u32;
    }
    let wrap = stride - spread as u32;
    let begin = out.len();
    let s0 = meta[order[0]].start;
    out.extend_from_slice(&[DELTA_BIT | (count * k as u32), s0 as u32, (s0 >> 32) as u32]);
    let mut readers: [AffineReader<'_>; MERGE_FAN_IN] =
        std::array::from_fn(|j| AffineReader::new(inputs[order[..k].get(j).copied().unwrap_or(0)]));
    out.push(readers[0].next());
    for j in 1..k {
        out.push(deltas[j]);
        out.push(readers[j].next());
    }
    for _ in 1..count {
        out.push(wrap);
        out.push(readers[0].next());
        for j in 1..k {
            out.push(deltas[j]);
            out.push(readers[j].next());
        }
    }
    Some(EventRef {
        off: begin as u32,
        len: (out.len() - begin) as u32,
    })
}

/// Merges one cluster of time-overlapping inputs (original member order):
/// aligned lanes when the shape allows, cursors otherwise.
fn merge_cluster(out: &mut Vec<u32>, inputs: &[&[u32]]) {
    if try_merge_aligned(out, inputs).is_some() {
        return;
    }
    if let [a, b] = *inputs {
        merge_streams(out, a, b);
        return;
    }
    let k = inputs.len();
    let mut cursors: [StreamCursor<'_>; MERGE_FAN_IN] =
        std::array::from_fn(|i| StreamCursor::new(inputs.get(i).copied().unwrap_or(&[])));
    let mut heads: [(u64, u32); MERGE_FAN_IN] = [(u64::MAX, 0); MERGE_FAN_IN];
    for (h, c) in heads.iter_mut().zip(cursors.iter_mut()) {
        if let Some(ev) = c.next() {
            *h = ev;
        }
    }
    let mut state = (usize::MAX, 0u32, 0u64);
    loop {
        // Strict `<` keeps the earliest stream first on cycle ties;
        // exhausted cursors park at u64::MAX.
        let mut best = 0usize;
        let mut best_c = heads[0].0;
        for (s, h) in heads.iter().enumerate().take(k).skip(1) {
            if h.0 < best_c {
                best_c = h.0;
                best = s;
            }
        }
        if best_c == u64::MAX {
            break;
        }
        state = emit_delta(out, state, heads[best].0, heads[best].1);
        heads[best] = cursors[best].next().unwrap_or((u64::MAX, 0));
    }
    out[state.0] = DELTA_BIT | state.1;
}

/// K-way compressed-domain merge of up to [`MERGE_FAN_IN`] non-empty
/// streams (stable: equal cycles take the earliest stream first —
/// bit-identical to a left-fold of pairwise [`crate::sa::merge_events`]).
/// Appends the interleave to `out`.
///
/// Inputs are first partitioned into clusters of time-overlapping
/// streams: streams of *different blocks* occupy disjoint cycle windows
/// (blocks execute in distributed order), so their merge is pure
/// concatenation of cluster results — singleton clusters are copied
/// verbatim, preserving const/affine runs, and only genuinely
/// interleaving streams pay for a real merge. Strict window disjointness
/// means cycle ties can only occur inside one cluster, where members keep
/// their original relative order — so the tie-break is identical to the
/// pairwise fold.
pub fn merge_streams_k(out: &mut Vec<u32>, inputs: &[&[u32]]) -> EventRef {
    debug_assert!((2..=MERGE_FAN_IN).contains(&inputs.len()));
    let k = inputs.len();
    let begin = out.len();
    let mut order: [(u64, usize); MERGE_FAN_IN] = [(0, 0); MERGE_FAN_IN];
    let mut last: [u64; MERGE_FAN_IN] = [0; MERGE_FAN_IN];
    for (i, w) in inputs.iter().enumerate() {
        order[i] = (stream_first(w), i);
        last[i] = stream_last(w);
    }
    order[..k].sort_unstable();
    let mut ci = 0usize;
    while ci < k {
        // Grow the cluster while the next stream's window starts at or
        // before the cluster's end (ties must stay inside one cluster).
        let mut cj = ci;
        let mut end = last[order[ci].1];
        while cj + 1 < k && order[cj + 1].0 <= end {
            cj += 1;
            end = end.max(last[order[cj].1]);
        }
        if ci == 0 && cj == k - 1 {
            // One cluster spanning everything: merge in the given order.
            merge_cluster(out, inputs);
            break;
        }
        if cj == ci {
            out.extend_from_slice(inputs[order[ci].1]);
        } else {
            // Cluster members in original member order.
            let mut idx: [usize; MERGE_FAN_IN] = [0; MERGE_FAN_IN];
            let m = cj - ci + 1;
            for (slot, &(_, i)) in idx.iter_mut().zip(order[ci..=cj].iter()) {
                *slot = i;
            }
            idx[..m].sort_unstable();
            let mut members: [&[u32]; MERGE_FAN_IN] = [&[]; MERGE_FAN_IN];
            for (slot, &i) in members.iter_mut().zip(idx[..m].iter()) {
                *slot = inputs[i];
            }
            merge_cluster(out, &members[..m]);
        }
        ci = cj + 1;
    }
    EventRef {
        off: begin as u32,
        len: (out.len() - begin) as u32,
    }
}

/// Maximum fan-in of [`merge_streams_k`]; wider groups fall back to the
/// decode-based [`MergeScratch`] path.
pub const MERGE_FAN_IN: usize = 16;

/// Reusable decode buffers for k-way stream merges (one per caller, so a
/// pass fusing hundreds of parallel-edge groups performs no per-merge
/// allocations and decodes every input exactly once — sequential pairwise
/// merging re-decodes the accumulating stream per pair, which is
/// quadratic). Two-phase because the common caller appends to the same
/// arena it reads from: [`MergeScratch::begin`] + [`MergeScratch::add`]
/// decode the inputs (immutable borrows end), then
/// [`MergeScratch::encode_merged`] writes the interleave.
#[derive(Debug, Default)]
pub struct MergeScratch {
    bufs: Vec<Vec<(u64, u32)>>,
    used: usize,
    heads: Vec<usize>,
    /// Staging for compressed-domain merges whose output arena is also an
    /// input (append while reading would alias).
    pub words_tmp: Vec<u32>,
}

impl MergeScratch {
    /// Starts a new merge, dropping previously added inputs (buffer
    /// capacity is kept).
    pub fn begin(&mut self) {
        self.used = 0;
    }

    /// Decodes one more input stream.
    pub fn add(&mut self, words: &[u32]) {
        if self.used == self.bufs.len() {
            self.bufs.push(Vec::new());
        }
        let buf = &mut self.bufs[self.used];
        buf.clear();
        decode_into(buf, words);
        self.used += 1;
    }

    /// Merges the decoded inputs by cycle (stable: equal cycles take the
    /// earliest-added stream first, matching a left-fold of
    /// [`crate::sa::merge_events`]) and encodes the interleave into `out`
    /// as delta runs — a time-interleave of affine streams has no single
    /// stride, and delta runs make the merge a plain pointer walk at
    /// 2 words per event.
    pub fn encode_merged(&mut self, out: &mut Vec<u32>) -> EventRef {
        let begin = out.len();
        let bufs = &self.bufs[..self.used];
        if bufs.iter().all(|b| b.is_empty()) {
            return EventRef {
                off: begin as u32,
                len: 0,
            };
        }
        // One shared delta-run emitter (see [`emit_delta`]).
        let mut state = (usize::MAX, 0u32, 0u64);
        if bufs.len() == 2 {
            // Two-pointer fast path (the overwhelmingly common group size).
            let (ea, eb) = (&bufs[0][..], &bufs[1][..]);
            let (mut i, mut j) = (0, 0);
            while i < ea.len() && j < eb.len() {
                if ea[i].0 <= eb[j].0 {
                    state = emit_delta(out, state, ea[i].0, ea[i].1);
                    i += 1;
                } else {
                    state = emit_delta(out, state, eb[j].0, eb[j].1);
                    j += 1;
                }
            }
            for &(c, v) in &ea[i..] {
                state = emit_delta(out, state, c, v);
            }
            for &(c, v) in &eb[j..] {
                state = emit_delta(out, state, c, v);
            }
        } else {
            // k-way linear-scan merge; strict `<` keeps the earliest-added
            // stream first on cycle ties.
            self.heads.clear();
            self.heads.resize(bufs.len(), 0);
            loop {
                let mut best = usize::MAX;
                let mut best_c = u64::MAX;
                for (s, buf) in bufs.iter().enumerate() {
                    if self.heads[s] < buf.len() {
                        let c = buf[self.heads[s]].0;
                        if c < best_c {
                            best_c = c;
                            best = s;
                        }
                    }
                }
                if best == usize::MAX {
                    break;
                }
                let (c, v) = bufs[best][self.heads[best]];
                state = emit_delta(out, state, c, v);
                self.heads[best] += 1;
            }
        }
        out[state.0] = DELTA_BIT | state.1;
        EventRef {
            off: begin as u32,
            len: (out.len() - begin) as u32,
        }
    }
}

/// One-shot [`MergeScratch`] merge of two encoded streams into `out`.
pub fn merge_encoded(
    out: &mut Vec<u32>,
    a: &[u32],
    b: &[u32],
    scratch: &mut MergeScratch,
) -> EventRef {
    scratch.begin();
    scratch.add(a);
    scratch.add(b);
    scratch.encode_merged(out)
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
    fn merge_encoded_matches_merge_events() {
        let cases: Vec<(Vec<(u64, u32)>, Vec<(u64, u32)>)> = vec![
            (vec![(0, 1), (4, 2), (8, 3)], vec![(1, 9), (4, 8), (20, 7)]),
            (vec![], vec![(1, 9), (2, 8)]),
            (vec![(5, 5)], vec![]),
            (
                (0..40u64).map(|c| (c * 2, c as u32)).collect(),
                (0..40u64).map(|c| (c * 2 + 1, 7)).collect(),
            ),
        ];
        let mut scratch = MergeScratch::default();
        for (a, b) in cases {
            let mut arena = EventArena::new();
            let ra = arena.push_events(&a);
            let rb = arena.push_events(&b);
            let mut out = Vec::new();
            let rm = merge_encoded(&mut out, arena.stream(ra), arena.stream(rb), &mut scratch);
            let merged = decode(&out[rm.off as usize..(rm.off + rm.len) as usize]);
            assert_eq!(merged, merge_events(&a, &b), "case a={a:?} b={b:?}");
        }
    }

    #[test]
    fn merged_stream_folds_bit_identically() {
        let a: Vec<(u64, u32)> = (0..30u64).map(|c| (c * 3, (c * 17) as u32)).collect();
        let b: Vec<(u64, u32)> = (0..30u64).map(|c| (c * 3 + 1, 0xF0)).collect();
        let naive = merge_events(&a, &b);
        let mut arena = EventArena::new();
        let ra = arena.push_events(&a);
        let rb = arena.push_events(&b);
        let mut out = Vec::new();
        let rm = merge_encoded(
            &mut out,
            arena.stream(ra),
            arena.stream(rb),
            &mut MergeScratch::default(),
        );
        let run = &out[rm.off as usize..(rm.off + rm.len) as usize];
        let (sa_c, ar_c) = fold_sa_ar(run, 97);
        let (sa_n, ar_n) = sa_ar(&naive, 97);
        assert_eq!(sa_c.to_bits(), sa_n.to_bits());
        assert_eq!(ar_c.to_bits(), ar_n.to_bits());
        assert_eq!(event_count(run), naive.len());
    }
}
