//! `PGRPC` — the length-prefixed binary framing protocol the `powergear
//! serve --listen` daemon speaks over TCP.
//!
//! The full byte-level specification (every frame type, error code and the
//! versioning/compatibility rules) lives in `docs/PROTOCOL.md`; this module
//! is its executable counterpart. Payloads reuse the crate's [`Enc`]/[`Dec`]
//! codecs, so a [`pg_graphcon::PowerGraph`] travels over a socket in exactly
//! the bytes it is persisted with.
//!
//! # Frame layout (`PGRPC_VERSION` 1)
//!
//! All integers are little-endian. Every frame is a 16-byte header followed
//! by `length` payload bytes:
//!
//! ```text
//! offset 0:  magic     4 bytes   "PGRP"
//!        4:  version   u8        readers reject newer versions
//!        5:  type      u8        frame type tag (see [`FrameType`])
//!        6:  flags     u16       reserved, must be zero
//!        8:  length    u32       payload bytes (<= MAX_PAYLOAD)
//!       12:  crc32     u32       IEEE CRC-32 of the payload
//!       16:  payload   length bytes
//! ```
//!
//! Decoding is defensive end to end: bad magic, a newer version, a length
//! above [`MAX_PAYLOAD`], a CRC mismatch or a truncated payload all surface
//! as typed [`StoreError`]s — never a panic, never an oversized allocation
//! (mirroring the `PGSTORE` container guarantees). An *unknown frame type*
//! is deliberately not a decode error: [`RawFrame`]s carry the raw tag so a
//! server can answer `Error { code: UNKNOWN_TYPE }` and keep the
//! connection alive, which is what lets old servers tolerate new clients.

use crate::codec::{dec_graph, enc_graph, Dec, Enc};
use crate::container::crc32;
use crate::error::StoreError;
use pg_graphcon::PowerGraph;
use pg_util::metrics;
use std::io::{Read, Write};

/// First four bytes of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"PGRP";

/// Protocol version this build speaks; readers reject newer versions.
pub const PGRPC_VERSION: u8 = 1;

/// Frame header size in bytes (magic + version + type + flags + length +
/// crc).
pub const HEADER_LEN: usize = 16;

/// Upper bound on a frame payload (64 MiB): a corrupt or hostile length
/// field must never drive allocation.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Frame type tags. Requests have the high bit clear, responses have it
/// set; `Error` is the universal failure response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Liveness check (empty payload).
    Ping = 0x01,
    /// Inference request: [`PredictRequest`].
    Predict = 0x02,
    /// Server counters request (empty payload).
    Stats = 0x03,
    /// Loaded-model listing request (empty payload).
    ModelList = 0x04,
    /// Graceful shutdown request (empty payload).
    Shutdown = 0x05,
    /// Full metrics-registry snapshot request (empty payload).
    StatsV2 = 0x06,
    /// Response to [`FrameType::Ping`] (empty payload).
    Pong = 0x81,
    /// Response to [`FrameType::Predict`]: [`PredictResponse`].
    PredictOk = 0x82,
    /// Response to [`FrameType::Stats`]: [`StatsResponse`].
    StatsOk = 0x83,
    /// Response to [`FrameType::ModelList`]: [`ModelListResponse`].
    ModelListOk = 0x84,
    /// Response to [`FrameType::Shutdown`] (empty payload), sent before the
    /// server closes the connection.
    ShutdownOk = 0x85,
    /// Response to [`FrameType::StatsV2`]: [`StatsV2Response`].
    StatsV2Ok = 0x86,
    /// Failure response: [`ErrorFrame`].
    Error = 0xFF,
}

impl FrameType {
    /// Parses a raw tag byte; `None` for tags this build does not know.
    pub fn from_tag(tag: u8) -> Option<FrameType> {
        match tag {
            0x01 => Some(FrameType::Ping),
            0x02 => Some(FrameType::Predict),
            0x03 => Some(FrameType::Stats),
            0x04 => Some(FrameType::ModelList),
            0x05 => Some(FrameType::Shutdown),
            0x06 => Some(FrameType::StatsV2),
            0x81 => Some(FrameType::Pong),
            0x82 => Some(FrameType::PredictOk),
            0x83 => Some(FrameType::StatsOk),
            0x84 => Some(FrameType::ModelListOk),
            0x85 => Some(FrameType::ShutdownOk),
            0x86 => Some(FrameType::StatsV2Ok),
            0xFF => Some(FrameType::Error),
            _ => None,
        }
    }
}

/// A decoded frame: the raw type tag plus its CRC-verified payload.
///
/// The tag is kept raw (with a typed view via [`RawFrame::frame_type`]) so
/// receivers can answer unknown types with an [`ErrorFrame`] instead of
/// dropping the connection — the protocol's forward-compatibility rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// Frame type tag as it appeared on the wire.
    pub tag: u8,
    /// CRC-verified payload bytes.
    pub payload: Vec<u8>,
}

impl RawFrame {
    /// A frame of a known type.
    pub fn new(ftype: FrameType, payload: Vec<u8>) -> RawFrame {
        RawFrame {
            tag: ftype as u8,
            payload,
        }
    }

    /// The typed frame tag, if this build knows it.
    pub fn frame_type(&self) -> Option<FrameType> {
        FrameType::from_tag(self.tag)
    }
}

/// The CRC-32 a frame header carries for `payload`, timed as the
/// `frame.crc` stage.
fn payload_crc(payload: &[u8]) -> u32 {
    let _t = metrics::stage("frame.crc");
    crc32(payload)
}

/// Serializes a frame (header + payload) to bytes.
pub fn encode_frame(frame: &RawFrame) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + frame.payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(PGRPC_VERSION);
    out.push(frame.tag);
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(frame.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload_crc(&frame.payload).to_le_bytes());
    out.extend_from_slice(&frame.payload);
    out
}

/// Validates a frame header, returning `(tag, payload_len, crc)`.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, usize, u32), StoreError> {
    if header[..4] != FRAME_MAGIC {
        return Err(StoreError::BadMagic {
            found: header[..4].to_vec(),
        });
    }
    let version = header[4];
    if version > PGRPC_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version as u32,
            supported: PGRPC_VERSION as u32,
        });
    }
    let tag = header[5];
    let flags = u16::from_le_bytes([header[6], header[7]]);
    if flags != 0 {
        return Err(StoreError::corrupt(format!(
            "frame flags {flags:#06x} are reserved and must be zero"
        )));
    }
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(StoreError::corrupt(format!(
            "frame payload length {len} exceeds the {MAX_PAYLOAD}-byte cap"
        )));
    }
    let crc = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
    Ok((tag, len, crc))
}

/// Decodes one frame from the front of `bytes`, returning the frame and the
/// number of bytes consumed.
///
/// # Errors
///
/// [`StoreError::BadMagic`], [`StoreError::UnsupportedVersion`],
/// [`StoreError::Truncated`], [`StoreError::CrcMismatch`] or
/// [`StoreError::Corrupt`]; never panics on malformed input.
pub fn decode_frame(bytes: &[u8]) -> Result<(RawFrame, usize), StoreError> {
    if bytes.len() < HEADER_LEN {
        // Short inputs that do not even start with the magic are foreign
        // data, not a truncated frame.
        if !FRAME_MAGIC.starts_with(&bytes[..bytes.len().min(4)]) {
            return Err(StoreError::BadMagic {
                found: bytes[..bytes.len().min(4)].to_vec(),
            });
        }
        return Err(StoreError::Truncated {
            context: "frame header",
        });
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&bytes[..HEADER_LEN]);
    let (tag, len, crc) = parse_header(&header)?;
    if bytes.len() < HEADER_LEN + len {
        return Err(StoreError::Truncated {
            context: "frame payload",
        });
    }
    let payload = bytes[HEADER_LEN..HEADER_LEN + len].to_vec();
    let actual = payload_crc(&payload);
    if actual != crc {
        return Err(StoreError::CrcMismatch {
            section: "frame payload".to_string(),
            expected: crc,
            actual,
        });
    }
    Ok((RawFrame { tag, payload }, HEADER_LEN + len))
}

/// Writes one frame to `w` and flushes it.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_frame(w: &mut impl Write, frame: &RawFrame) -> Result<(), StoreError> {
    w.write_all(&encode_frame(frame))?;
    w.flush()?;
    Ok(())
}

/// Reads one frame from `r`, or `None` on a clean end-of-stream (the peer
/// closed the connection between frames).
///
/// # Errors
///
/// I/O errors, plus every header/CRC validation error of
/// [`decode_frame`]. EOF in the *middle* of a frame is
/// [`StoreError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<RawFrame>, StoreError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0usize;
    while got < HEADER_LEN {
        let n = r.read(&mut header[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None); // clean close between frames
            }
            return Err(StoreError::Truncated {
                context: "frame header",
            });
        }
        got += n;
    }
    let (tag, len, crc) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Truncated {
                context: "frame payload",
            }
        } else {
            StoreError::Io(e)
        }
    })?;
    let actual = payload_crc(&payload);
    if actual != crc {
        return Err(StoreError::CrcMismatch {
            section: "frame payload".to_string(),
            expected: crc,
            actual,
        });
    }
    Ok(Some(RawFrame { tag, payload }))
}

// ---------------------------------------------------------------------------
// Request/response payloads

/// Error codes carried by [`ErrorFrame`].
pub mod error_code {
    /// The request frame failed to decode (bad payload), or its graphs do
    /// not fit the routed model (metadata width).
    pub const BAD_REQUEST: u16 = 1;
    /// The frame type tag is unknown to this server.
    pub const UNKNOWN_TYPE: u16 = 2;
    /// No loaded model routes the requested kernel.
    pub const NO_MODEL: u16 = 3;
    /// The server failed internally while serving the request.
    pub const INTERNAL: u16 = 4;
    /// The server is shutting down and did not serve the request.
    pub const SHUTTING_DOWN: u16 = 5;
}

/// `Predict` request: the graphs of one design batch plus the kernel name
/// used for per-kernel model routing. All graphs of one request are always
/// served by a single model snapshot (the hot-swap atomicity unit).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Kernel the graphs belong to (routing key).
    pub kernel: String,
    /// Graphs to estimate, in response order.
    pub graphs: Vec<PowerGraph>,
}

impl PredictRequest {
    /// Encodes the request payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.str(&self.kernel);
        e.u32(self.graphs.len() as u32);
        for g in &self.graphs {
            enc_graph(&mut e, g);
        }
        e.into_bytes()
    }

    /// Decodes a request payload.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on any malformed byte (typed, never panics).
    pub fn from_payload(payload: &[u8]) -> Result<PredictRequest, StoreError> {
        let mut d = Dec::new(payload);
        let kernel = d.str("predict kernel")?;
        let n = d.count(8, "predict graph count")?;
        let mut graphs = Vec::with_capacity(n);
        for _ in 0..n {
            graphs.push(dec_graph(&mut d)?);
        }
        d.finish("predict request")?;
        Ok(PredictRequest { kernel, graphs })
    }
}

/// `PredictOk` response: per-target predictions in request order, stamped
/// with the serving model's identity so clients (and the hot-swap tests)
/// can attribute every response to exactly one model snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictResponse {
    /// Registry name of the model that served the request.
    pub model: String,
    /// Training-config fingerprint of that model (see
    /// [`crate::ArtifactMeta::train_fingerprint`]).
    pub fingerprint: u64,
    /// `(total, dynamic)` watts per input graph, in request order.
    pub predictions: Vec<(f64, f64)>,
}

impl PredictResponse {
    /// Encodes the response payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.str(&self.model);
        e.u64(self.fingerprint);
        e.u32(self.predictions.len() as u32);
        for &(t, d) in &self.predictions {
            e.f64(t);
            e.f64(d);
        }
        e.into_bytes()
    }

    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on any malformed byte.
    pub fn from_payload(payload: &[u8]) -> Result<PredictResponse, StoreError> {
        let mut d = Dec::new(payload);
        let model = d.str("response model name")?;
        let fingerprint = d.u64("response fingerprint")?;
        let n = d.count(16, "prediction count")?;
        let mut predictions = Vec::with_capacity(n);
        for _ in 0..n {
            let t = d.f64("total watts")?;
            let dy = d.f64("dynamic watts")?;
            predictions.push((t, dy));
        }
        d.finish("predict response")?;
        Ok(PredictResponse {
            model,
            fingerprint,
            predictions,
        })
    }
}

/// `StatsOk` response: monotonic serving counters since daemon start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsResponse {
    /// Seconds since the daemon started listening.
    pub uptime_s: f64,
    /// Predict requests admitted.
    pub requests: u64,
    /// Graphs served (one request can carry many graphs).
    pub graphs: u64,
    /// Micro-batches executed by the engine.
    pub batches: u64,
    /// Error frames sent.
    pub errors: u64,
    /// Hot model swaps applied.
    pub swaps: u64,
    /// Models currently loaded.
    pub models: u64,
}

impl StatsResponse {
    /// Encodes the response payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.f64(self.uptime_s);
        e.u64(self.requests);
        e.u64(self.graphs);
        e.u64(self.batches);
        e.u64(self.errors);
        e.u64(self.swaps);
        e.u64(self.models);
        e.into_bytes()
    }

    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on any malformed byte.
    pub fn from_payload(payload: &[u8]) -> Result<StatsResponse, StoreError> {
        let mut d = Dec::new(payload);
        let out = StatsResponse {
            uptime_s: d.f64("stats uptime")?,
            requests: d.u64("stats requests")?,
            graphs: d.u64("stats graphs")?,
            batches: d.u64("stats batches")?,
            errors: d.u64("stats errors")?,
            swaps: d.u64("stats swaps")?,
            models: d.u64("stats models")?,
        };
        d.finish("stats response")?;
        Ok(out)
    }
}

/// Payload format version carried *inside* `StatsV2Ok`. The frame type
/// itself rides the protocol's forward-compatibility rule (unknown tags
/// get `Error { UNKNOWN_TYPE }`, no `PGRPC_VERSION` bump needed); this
/// inner version lets the snapshot schema evolve independently — readers
/// reject a newer format the same way the frame header rejects a newer
/// protocol.
pub const STATSV2_FORMAT_VERSION: u32 = 1;

/// `StatsV2Ok` response: a full [`pg_util::metrics`] registry snapshot —
/// every counter, gauge and histogram (with label sets), pipeline stage
/// timers included — superseding the fixed-field [`StatsResponse`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsV2Response {
    /// Seconds since the daemon started listening.
    pub uptime_s: f64,
    /// Point-in-time registry snapshot.
    pub snapshot: pg_util::metrics::MetricsSnapshot,
}

fn enc_labels(e: &mut Enc, labels: &[(String, String)]) {
    e.u32(labels.len() as u32);
    for (k, v) in labels {
        e.str(k);
        e.str(v);
    }
}

fn dec_labels(d: &mut Dec) -> Result<Vec<(String, String)>, StoreError> {
    let n = d.count(8, "metric label count")?;
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        labels.push((d.str("metric label key")?, d.str("metric label value")?));
    }
    Ok(labels)
}

impl StatsV2Response {
    /// Encodes the response payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(STATSV2_FORMAT_VERSION);
        e.f64(self.uptime_s);
        e.u32(self.snapshot.counters.len() as u32);
        for c in &self.snapshot.counters {
            e.str(&c.name);
            enc_labels(&mut e, &c.labels);
            e.u64(c.value);
        }
        e.u32(self.snapshot.gauges.len() as u32);
        for g in &self.snapshot.gauges {
            e.str(&g.name);
            enc_labels(&mut e, &g.labels);
            // i64 travels as its two's-complement bit pattern.
            e.u64(g.value as u64);
        }
        e.u32(self.snapshot.histograms.len() as u32);
        for h in &self.snapshot.histograms {
            e.str(&h.name);
            enc_labels(&mut e, &h.labels);
            e.u64(h.count);
            e.u64(h.sum);
            e.u32(h.buckets.len() as u32);
            for &(ub, c) in &h.buckets {
                e.u64(ub);
                e.u64(c);
            }
        }
        e.into_bytes()
    }

    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnsupportedVersion`] for a newer snapshot format;
    /// otherwise any malformed byte surfaces as a typed [`StoreError`] —
    /// never a panic, never an oversized allocation.
    pub fn from_payload(payload: &[u8]) -> Result<StatsV2Response, StoreError> {
        use pg_util::metrics::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot};
        let mut d = Dec::new(payload);
        let version = d.u32("stats v2 format version")?;
        if version > STATSV2_FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: STATSV2_FORMAT_VERSION,
            });
        }
        let uptime_s = d.f64("stats v2 uptime")?;
        let mut snapshot = pg_util::metrics::MetricsSnapshot::default();
        let nc = d.count(16, "stats v2 counter count")?;
        for _ in 0..nc {
            snapshot.counters.push(CounterSnapshot {
                name: d.str("counter name")?,
                labels: dec_labels(&mut d)?,
                value: d.u64("counter value")?,
            });
        }
        let ng = d.count(16, "stats v2 gauge count")?;
        for _ in 0..ng {
            snapshot.gauges.push(GaugeSnapshot {
                name: d.str("gauge name")?,
                labels: dec_labels(&mut d)?,
                value: d.u64("gauge value")? as i64,
            });
        }
        let nh = d.count(28, "stats v2 histogram count")?;
        for _ in 0..nh {
            let name = d.str("histogram name")?;
            let labels = dec_labels(&mut d)?;
            let count = d.u64("histogram count")?;
            let sum = d.u64("histogram sum")?;
            let nb = d.count(16, "histogram bucket count")?;
            let mut buckets = Vec::with_capacity(nb);
            for _ in 0..nb {
                buckets.push((d.u64("bucket bound")?, d.u64("bucket value")?));
            }
            snapshot.histograms.push(HistogramSnapshot {
                name,
                labels,
                count,
                sum,
                buckets,
            });
        }
        d.finish("stats v2 response")?;
        Ok(StatsV2Response { uptime_s, snapshot })
    }
}

/// One row of a `ModelListOk` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// Registry name.
    pub name: String,
    /// Kernel(s) the model was trained on (comma-separated, as stored in
    /// [`crate::ArtifactMeta::kernel`]).
    pub kernel: String,
    /// Training-config fingerprint.
    pub fingerprint: u64,
}

/// `ModelListOk` response: every model currently loaded, sorted by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModelListResponse {
    /// Loaded models.
    pub models: Vec<ModelInfo>,
}

impl ModelListResponse {
    /// Encodes the response payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.models.len() as u32);
        for m in &self.models {
            e.str(&m.name);
            e.str(&m.kernel);
            e.u64(m.fingerprint);
        }
        e.into_bytes()
    }

    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on any malformed byte.
    pub fn from_payload(payload: &[u8]) -> Result<ModelListResponse, StoreError> {
        let mut d = Dec::new(payload);
        let n = d.count(16, "model list count")?;
        let mut models = Vec::with_capacity(n);
        for _ in 0..n {
            models.push(ModelInfo {
                name: d.str("model name")?,
                kernel: d.str("model kernel")?,
                fingerprint: d.u64("model fingerprint")?,
            });
        }
        d.finish("model list response")?;
        Ok(ModelListResponse { models })
    }
}

/// `Error` response: a stable numeric code (see [`error_code`]) plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// Stable error code.
    pub code: u16,
    /// Human-readable description.
    pub message: String,
}

impl ErrorFrame {
    /// Encodes the response payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.code as u32);
        e.str(&self.message);
        e.into_bytes()
    }

    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on any malformed byte.
    pub fn from_payload(payload: &[u8]) -> Result<ErrorFrame, StoreError> {
        let mut d = Dec::new(payload);
        let code = d.u32("error code")?;
        let code = u16::try_from(code)
            .map_err(|_| StoreError::corrupt(format!("error code {code} exceeds u16")))?;
        let message = d.str("error message")?;
        d.finish("error frame")?;
        Ok(ErrorFrame { code, message })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_graphcon::Relation;

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
            kernel: "frame".into(),
            design_id: format!("f{seed}"),
            num_nodes: nodes,
            node_feats,
            edges,
            edge_feats: (0..ne).map(|i| [0.1 * i as f32, 0.2, 0.3, 0.4]).collect(),
            edge_rel: (0..ne).map(|_| Relation::NN).collect(),
            meta: vec![0.5; 10],
        }
    }

    #[test]
    fn frame_roundtrip_all_types() {
        for (ftype, payload) in [
            (FrameType::Ping, vec![]),
            (FrameType::Predict, vec![1, 2, 3]),
            (FrameType::Error, vec![0; 100]),
        ] {
            let f = RawFrame::new(ftype, payload);
            let bytes = encode_frame(&f);
            let (back, used) = decode_frame(&bytes).unwrap();
            assert_eq!(back, f);
            assert_eq!(used, bytes.len());
            assert_eq!(back.frame_type(), Some(ftype));
        }
    }

    #[test]
    fn unknown_tag_decodes_as_raw() {
        let f = RawFrame {
            tag: 0x42,
            payload: vec![9, 9],
        };
        let (back, _) = decode_frame(&encode_frame(&f)).unwrap();
        assert_eq!(back.tag, 0x42);
        assert_eq!(back.frame_type(), None);
    }

    #[test]
    fn bad_magic_version_flags_length_crc_rejected() {
        let good = encode_frame(&RawFrame::new(FrameType::Ping, vec![7; 8]));

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_frame(&bad),
            Err(StoreError::BadMagic { .. })
        ));

        let mut bad = good.clone();
        bad[4] = PGRPC_VERSION + 1;
        assert!(matches!(
            decode_frame(&bad),
            Err(StoreError::UnsupportedVersion { .. })
        ));

        let mut bad = good.clone();
        bad[6] = 1; // reserved flags
        assert!(matches!(
            decode_frame(&bad),
            Err(StoreError::Corrupt { .. })
        ));

        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&bad),
            Err(StoreError::Corrupt { .. })
        ));

        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        assert!(matches!(
            decode_frame(&bad),
            Err(StoreError::CrcMismatch { .. })
        ));

        for cut in 0..good.len() {
            assert!(decode_frame(&good[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn stream_read_write_roundtrip() {
        let frames = vec![
            RawFrame::new(FrameType::Ping, vec![]),
            RawFrame::new(FrameType::Predict, vec![1; 33]),
            RawFrame::new(FrameType::StatsOk, vec![2; 7]),
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for f in &frames {
            assert_eq!(read_frame(&mut cursor).unwrap().as_ref(), Some(f));
        }
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn mid_frame_eof_is_truncated() {
        let bytes = encode_frame(&RawFrame::new(FrameType::Predict, vec![3; 20]));
        let mut cursor = std::io::Cursor::new(bytes[..bytes.len() - 5].to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn predict_request_roundtrip() {
        let req = PredictRequest {
            kernel: "gemm".into(),
            graphs: (0..3).map(graph).collect(),
        };
        let back = PredictRequest::from_payload(&req.to_payload()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn predict_response_roundtrip_bit_exact() {
        let resp = PredictResponse {
            model: "gemm-v2".into(),
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            predictions: vec![(0.51, 0.22), (1.5e-300, f64::MAX), (-0.0, 3.25)],
        };
        let back = PredictResponse::from_payload(&resp.to_payload()).unwrap();
        assert_eq!(back.model, resp.model);
        assert_eq!(back.fingerprint, resp.fingerprint);
        for ((t1, d1), (t2, d2)) in resp.predictions.iter().zip(&back.predictions) {
            assert_eq!(t1.to_bits(), t2.to_bits());
            assert_eq!(d1.to_bits(), d2.to_bits());
        }
    }

    #[test]
    fn stats_and_model_list_and_error_roundtrip() {
        let stats = StatsResponse {
            uptime_s: 12.5,
            requests: 100,
            graphs: 640,
            batches: 25,
            errors: 2,
            swaps: 1,
            models: 3,
        };
        assert_eq!(
            StatsResponse::from_payload(&stats.to_payload()).unwrap(),
            stats
        );

        let list = ModelListResponse {
            models: vec![
                ModelInfo {
                    name: "atax-v1".into(),
                    kernel: "atax".into(),
                    fingerprint: 7,
                },
                ModelInfo {
                    name: "gemm-v1".into(),
                    kernel: "gemm,mvt".into(),
                    fingerprint: 8,
                },
            ],
        };
        assert_eq!(
            ModelListResponse::from_payload(&list.to_payload()).unwrap(),
            list
        );

        let err = ErrorFrame {
            code: error_code::NO_MODEL,
            message: "no model for kernel `syrk`".into(),
        };
        assert_eq!(ErrorFrame::from_payload(&err.to_payload()).unwrap(), err);
    }

    fn sample_stats_v2() -> StatsV2Response {
        use pg_util::metrics::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot};
        StatsV2Response {
            uptime_s: 3.75,
            snapshot: pg_util::metrics::MetricsSnapshot {
                counters: vec![
                    CounterSnapshot {
                        name: "serve_requests_total".into(),
                        labels: vec![("model".into(), "gemm-v1".into())],
                        value: 123,
                    },
                    CounterSnapshot {
                        name: "serve_errors_total".into(),
                        labels: vec![],
                        value: u64::MAX,
                    },
                ],
                gauges: vec![GaugeSnapshot {
                    name: "serve_queue_depth".into(),
                    labels: vec![],
                    value: -3,
                }],
                histograms: vec![HistogramSnapshot {
                    name: "serve_service_time_us".into(),
                    labels: vec![("model".into(), "gemm-v1".into())],
                    count: 5,
                    sum: 999,
                    buckets: vec![(100, 2), (1_000, 2), (u64::MAX, 1)],
                }],
            },
        }
    }

    #[test]
    fn stats_v2_roundtrip_bit_exact() {
        let resp = sample_stats_v2();
        let back = StatsV2Response::from_payload(&resp.to_payload()).unwrap();
        assert_eq!(back.uptime_s.to_bits(), resp.uptime_s.to_bits());
        assert_eq!(back.snapshot, resp.snapshot);

        // Empty snapshot is valid too.
        let empty = StatsV2Response::default();
        assert_eq!(
            StatsV2Response::from_payload(&empty.to_payload()).unwrap(),
            empty
        );
    }

    #[test]
    fn stats_v2_rejects_newer_format_version() {
        let mut payload = sample_stats_v2().to_payload();
        payload[..4].copy_from_slice(&(STATSV2_FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            StatsV2Response::from_payload(&payload),
            Err(StoreError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn stats_v2_truncation_is_typed_error() {
        let full = sample_stats_v2().to_payload();
        for cut in 0..full.len() {
            assert!(
                StatsV2Response::from_payload(&full[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn truncated_payloads_are_typed_errors() {
        let req = PredictRequest {
            kernel: "bicg".into(),
            graphs: vec![graph(1)],
        };
        let full = req.to_payload();
        for cut in 0..full.len() {
            assert!(
                PredictRequest::from_payload(&full[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        let resp = PredictResponse {
            model: "m".into(),
            fingerprint: 1,
            predictions: vec![(1.0, 2.0)],
        };
        let full = resp.to_payload();
        for cut in 0..full.len() {
            assert!(
                PredictResponse::from_payload(&full[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }
}
