//! Little-endian encode/decode primitives and codecs for the model-side
//! types: matrices, parameter stores, model configurations, trained
//! [`PowerModel`]s, [`Ensemble`]s, power graphs and HLS reports.
//!
//! Floating-point values round-trip through their IEEE bit patterns
//! (`to_bits`/`from_bits`), so a loaded model is *bit-exact*: its
//! predictions are identical, bit for bit, to the in-memory ensemble that
//! was saved. Every decoder validates lengths before allocating and
//! returns [`StoreError`] instead of panicking on malformed input.

use crate::error::StoreError;
use pg_gnn::{Arch, Ensemble, ModelConfig, Pool, PowerModel};
use pg_graphcon::{PowerGraph, Relation};
use pg_hls::{Directives, HlsReport};
use pg_tensor::Matrix;

/// Byte-buffer encoder (little-endian throughout).
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Finishes encoding, yielding the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f32` as its IEEE bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Appends an `f64` as its IEEE bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Byte-buffer decoder over a borrowed payload.
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Starts decoding at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Fails unless the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when trailing bytes remain.
    pub fn finish(self, context: &str) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::corrupt(format!(
                "{context}: {} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated { context });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, StoreError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a fixed-width little-endian word into an array without any
    /// panicking conversion: `take` already guarantees the slice length.
    fn word<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], StoreError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N, context)?);
        Ok(a)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.word(context)?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.word(context)?))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self, context: &'static str) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(self.word(context)?))
    }

    /// Reads a `usize` (stored as `u64`), rejecting values that cannot fit.
    pub fn usize(&mut self, context: &'static str) -> Result<usize, StoreError> {
        usize::try_from(self.u64(context)?)
            .map_err(|_| StoreError::corrupt(format!("{context}: value exceeds usize")))
    }

    /// Reads an `f32` from its bit pattern.
    pub fn f32(&mut self, context: &'static str) -> Result<f32, StoreError> {
        Ok(f32::from_bits(self.u32(context)?))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a bool, rejecting anything but 0/1.
    pub fn bool(&mut self, context: &'static str) -> Result<bool, StoreError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(StoreError::corrupt(format!("{context}: bad bool byte {v}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> Result<String, StoreError> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::corrupt(format!("{context}: invalid UTF-8")))
    }

    /// Reads a `u32` element count, bounding it by the bytes remaining so
    /// corrupt counts can never trigger pathological allocations.
    pub fn count(
        &mut self,
        min_elem_bytes: usize,
        context: &'static str,
    ) -> Result<usize, StoreError> {
        let n = self.u32(context)? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(StoreError::corrupt(format!(
                "{context}: count {n} exceeds remaining payload"
            )));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Matrices and parameter stores

/// Encodes a dense matrix (shape + raw f32 bit patterns).
pub fn enc_matrix(e: &mut Enc, m: &Matrix) {
    e.u32(m.rows as u32);
    e.u32(m.cols as u32);
    for &v in &m.data {
        e.f32(v);
    }
}

/// Decodes a matrix written by [`enc_matrix`].
///
/// # Errors
///
/// [`StoreError`] on truncation or an inconsistent shape.
pub fn dec_matrix(d: &mut Dec<'_>) -> Result<Matrix, StoreError> {
    let rows = d.u32("matrix rows")? as usize;
    let cols = d.u32("matrix cols")? as usize;
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| StoreError::corrupt("matrix shape overflows"))?;
    if n.saturating_mul(4) > d.remaining() {
        return Err(StoreError::corrupt(format!(
            "matrix {rows}x{cols} larger than remaining payload"
        )));
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(d.f32("matrix data")?);
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

// ---------------------------------------------------------------------------
// Model configuration

fn arch_tag(a: Arch) -> u8 {
    match a {
        Arch::Hec => 0,
        Arch::Gcn => 1,
        Arch::Sage => 2,
        Arch::GraphConv => 3,
        Arch::Gine => 4,
    }
}

fn arch_from_tag(t: u8) -> Result<Arch, StoreError> {
    Ok(match t {
        0 => Arch::Hec,
        1 => Arch::Gcn,
        2 => Arch::Sage,
        3 => Arch::GraphConv,
        4 => Arch::Gine,
        _ => return Err(StoreError::corrupt(format!("unknown arch tag {t}"))),
    })
}

fn pool_tag(p: Pool) -> u8 {
    match p {
        Pool::Add => 0,
        Pool::Mean => 1,
        Pool::Max => 2,
    }
}

fn pool_from_tag(t: u8) -> Result<Pool, StoreError> {
    Ok(match t {
        0 => Pool::Add,
        1 => Pool::Mean,
        2 => Pool::Max,
        _ => return Err(StoreError::corrupt(format!("unknown pool tag {t}"))),
    })
}

/// Encodes a [`ModelConfig`].
pub fn enc_model_config(e: &mut Enc, c: &ModelConfig) {
    e.u8(arch_tag(c.arch));
    e.u32(c.hidden as u32);
    e.u32(c.layers as u32);
    e.u8(pool_tag(c.pool));
    e.u32(c.heads as u32);
    e.f32(c.dropout);
    e.bool(c.use_edge_feats);
    e.bool(c.directed);
    e.bool(c.heterogeneous);
    e.bool(c.use_metadata);
    e.u32(c.node_dim as u32);
    e.u32(c.meta_dim as u32);
}

/// Decodes a [`ModelConfig`].
///
/// Dimensions are sanity-bounded (hidden/widths ≤ 4096, layers ≤ 64) so a
/// corrupt config can never drive [`PowerModel::new`] into a pathological
/// allocation during [`dec_model`].
///
/// # Errors
///
/// [`StoreError`] on truncation, unknown enum tags, or out-of-range
/// dimensions.
pub fn dec_model_config(d: &mut Dec<'_>) -> Result<ModelConfig, StoreError> {
    let bounded = |v: u32, cap: u32, what: &str| {
        if v > cap {
            Err(StoreError::corrupt(format!(
                "model config {what} {v} exceeds cap {cap}"
            )))
        } else {
            Ok(v as usize)
        }
    };
    Ok(ModelConfig {
        arch: arch_from_tag(d.u8("arch")?)?,
        hidden: bounded(d.u32("hidden")?, 4096, "hidden width")?,
        layers: bounded(d.u32("layers")?, 64, "layer count")?,
        pool: pool_from_tag(d.u8("pool")?)?,
        heads: bounded(d.u32("heads")?, 64, "attention heads")?,
        dropout: d.f32("dropout")?,
        use_edge_feats: d.bool("use_edge_feats")?,
        directed: d.bool("directed")?,
        heterogeneous: d.bool("heterogeneous")?,
        use_metadata: d.bool("use_metadata")?,
        node_dim: bounded(d.u32("node_dim")?, 4096, "node dim")?,
        meta_dim: bounded(d.u32("meta_dim")?, 4096, "meta dim")?,
    })
}

// ---------------------------------------------------------------------------
// Trained models and ensembles

/// Encodes a trained [`PowerModel`]: config, output normalization and every
/// named parameter matrix.
pub fn enc_model(e: &mut Enc, m: &PowerModel) {
    enc_model_config(e, &m.config);
    e.f32(m.target_scale);
    e.f32(m.target_shift);
    e.u32(m.store.len() as u32);
    for slot in 0..m.store.len() {
        e.str(m.store.name(slot));
        enc_matrix(e, m.store.get(slot));
    }
}

/// Decodes a [`PowerModel`] written by [`enc_model`].
///
/// The parameter *layout* is rebuilt deterministically from the stored
/// config via [`PowerModel::new`]; the saved matrices then overwrite the
/// fresh initialization slot by slot. Names and shapes are cross-checked so
/// a config/weights mismatch surfaces as a typed error instead of silently
/// mis-assigning tensors.
///
/// # Errors
///
/// [`StoreError`] on truncation, unknown tags, or weights that do not
/// match the layout implied by the stored config.
pub fn dec_model(d: &mut Dec<'_>) -> Result<PowerModel, StoreError> {
    let config = dec_model_config(d)?;
    let target_scale = d.f32("target_scale")?;
    let target_shift = d.f32("target_shift")?;
    let mut model = PowerModel::new(config, 0);
    model.target_scale = target_scale;
    model.target_shift = target_shift;
    let n = d.count(8, "param count")?;
    if n != model.store.len() {
        return Err(StoreError::corrupt(format!(
            "model has {n} stored params, config implies {}",
            model.store.len()
        )));
    }
    for slot in 0..n {
        let name = d.str("param name")?;
        if name != model.store.name(slot) {
            return Err(StoreError::corrupt(format!(
                "param {slot} named `{name}`, config implies `{}`",
                model.store.name(slot)
            )));
        }
        let m = dec_matrix(d)?;
        let expect = model.store.get(slot);
        if (m.rows, m.cols) != (expect.rows, expect.cols) {
            return Err(StoreError::corrupt(format!(
                "param `{name}` is {}x{}, config implies {}x{}",
                m.rows, m.cols, expect.rows, expect.cols
            )));
        }
        *model.store.get_mut(slot) = m;
    }
    Ok(model)
}

/// Encodes an [`Ensemble`] (member count + members).
pub fn enc_ensemble(e: &mut Enc, ens: &Ensemble) {
    e.u32(ens.models.len() as u32);
    for m in &ens.models {
        enc_model(e, m);
    }
}

/// Decodes an [`Ensemble`] written by [`enc_ensemble`].
///
/// # Errors
///
/// [`StoreError`] as for [`dec_model`].
pub fn dec_ensemble(d: &mut Dec<'_>) -> Result<Ensemble, StoreError> {
    let n = d.count(1, "ensemble size")?;
    let mut models = Vec::with_capacity(n);
    for _ in 0..n {
        models.push(dec_model(d)?);
    }
    Ok(Ensemble { models })
}

// ---------------------------------------------------------------------------
// Power graphs

fn relation_tag(r: Relation) -> u8 {
    match r {
        Relation::AA => 0,
        Relation::AN => 1,
        Relation::NA => 2,
        Relation::NN => 3,
    }
}

fn relation_from_tag(t: u8) -> Result<Relation, StoreError> {
    Ok(match t {
        0 => Relation::AA,
        1 => Relation::AN,
        2 => Relation::NA,
        3 => Relation::NN,
        _ => return Err(StoreError::corrupt(format!("unknown relation tag {t}"))),
    })
}

/// Encodes a [`PowerGraph`] (features as raw f32 bit patterns).
pub fn enc_graph(e: &mut Enc, g: &PowerGraph) {
    e.str(&g.kernel);
    e.str(&g.design_id);
    e.u32(g.num_nodes as u32);
    e.u32(g.node_feats.len() as u32);
    for &v in &g.node_feats {
        e.f32(v);
    }
    e.u32(g.edges.len() as u32);
    for &(s, t) in &g.edges {
        e.u32(s);
        e.u32(t);
    }
    for f in &g.edge_feats {
        for &v in f {
            e.f32(v);
        }
    }
    for &r in &g.edge_rel {
        e.u8(relation_tag(r));
    }
    e.u32(g.meta.len() as u32);
    for &v in &g.meta {
        e.f32(v);
    }
}

/// Decodes a [`PowerGraph`] written by [`enc_graph`].
///
/// # Errors
///
/// [`StoreError`] on truncation or inconsistent counts.
pub fn dec_graph(d: &mut Dec<'_>) -> Result<PowerGraph, StoreError> {
    let kernel = d.str("graph kernel")?;
    let design_id = d.str("graph design id")?;
    let num_nodes = d.u32("graph node count")? as usize;
    let nf = d.count(4, "node feature count")?;
    let mut node_feats = Vec::with_capacity(nf);
    for _ in 0..nf {
        node_feats.push(d.f32("node feature")?);
    }
    let ne = d.count(8, "edge count")?;
    let mut edges = Vec::with_capacity(ne);
    for _ in 0..ne {
        let s = d.u32("edge src")?;
        let t = d.u32("edge dst")?;
        edges.push((s, t));
    }
    let mut edge_feats = Vec::with_capacity(ne);
    for _ in 0..ne {
        let mut f = [0.0f32; 4];
        for v in &mut f {
            *v = d.f32("edge feature")?;
        }
        edge_feats.push(f);
    }
    let mut edge_rel = Vec::with_capacity(ne);
    for _ in 0..ne {
        edge_rel.push(relation_from_tag(d.u8("edge relation")?)?);
    }
    let nm = d.count(4, "meta feature count")?;
    let mut meta = Vec::with_capacity(nm);
    for _ in 0..nm {
        meta.push(d.f32("meta feature")?);
    }
    let graph = PowerGraph {
        kernel,
        design_id,
        num_nodes,
        node_feats,
        edges,
        edge_feats,
        edge_rel,
        meta,
    };
    // A CRC-valid but internally inconsistent graph (foreign writer,
    // crafted file) must surface as a typed error here — downstream batch
    // assembly indexes node/edge buffers and would panic on it otherwise.
    graph
        .validate()
        .map_err(|e| StoreError::corrupt(format!("graph `{}`: {e}", graph.design_id)))?;
    Ok(graph)
}

// ---------------------------------------------------------------------------
// HLS reports and directives

/// Encodes an [`HlsReport`].
pub fn enc_report(e: &mut Enc, r: &HlsReport) {
    e.u32(r.lut);
    e.u32(r.ff);
    e.u32(r.dsp);
    e.u32(r.bram);
    e.u64(r.latency_cycles);
    e.f64(r.clock_ns);
}

/// Decodes an [`HlsReport`].
///
/// # Errors
///
/// [`StoreError::Truncated`] when the payload is short.
pub fn dec_report(d: &mut Dec<'_>) -> Result<HlsReport, StoreError> {
    Ok(HlsReport {
        lut: d.u32("report lut")?,
        ff: d.u32("report ff")?,
        dsp: d.u32("report dsp")?,
        bram: d.u32("report bram")?,
        latency_cycles: d.u64("report latency")?,
        clock_ns: d.f64("report clock")?,
    })
}

/// Encodes a [`Directives`] configuration (canonical form: only effective
/// entries — enabled pipelines, factors above one — are stored, exactly the
/// entries that feed `Directives::id()`).
pub fn enc_directives(e: &mut Enc, dir: &Directives) {
    let pipes: Vec<&str> = dir.pipelined_loops().collect();
    e.u32(pipes.len() as u32);
    for l in pipes {
        e.str(l);
    }
    let unrolls: Vec<(&str, usize)> = dir.unrolled_loops().collect();
    e.u32(unrolls.len() as u32);
    for (l, k) in unrolls {
        e.str(l);
        e.u32(k as u32);
    }
    let parts: Vec<(&str, usize)> = dir.partitioned_arrays().collect();
    e.u32(parts.len() as u32);
    for (a, k) in parts {
        e.str(a);
        e.u32(k as u32);
    }
}

/// Decodes a [`Directives`] configuration written by [`enc_directives`].
///
/// # Errors
///
/// [`StoreError`] on truncation or zero factors.
pub fn dec_directives(d: &mut Dec<'_>) -> Result<Directives, StoreError> {
    let mut out = Directives::new();
    let np = d.count(4, "pipeline count")?;
    for _ in 0..np {
        let l = d.str("pipeline label")?;
        out.pipeline(&l);
    }
    let nu = d.count(8, "unroll count")?;
    for _ in 0..nu {
        let l = d.str("unroll label")?;
        let k = d.u32("unroll factor")? as usize;
        if k == 0 {
            return Err(StoreError::corrupt("unroll factor 0"));
        }
        out.unroll(&l, k);
    }
    let na = d.count(8, "partition count")?;
    for _ in 0..na {
        let a = d.str("partition array")?;
        let k = d.u32("partition factor")? as usize;
        if k == 0 {
            return Err(StoreError::corrupt("partition factor 0"));
        }
        out.partition(&a, k);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_util::Rng64;

    fn graph(seed: u64) -> PowerGraph {
        let mut rng = Rng64::new(seed);
        let nodes = 4 + rng.below(5);
        let f = PowerGraph::NODE_FEATS;
        let mut node_feats = vec![0.0f32; nodes * f];
        for n in 0..nodes {
            node_feats[n * f + rng.below(5)] = 1.0;
        }
        let edges: Vec<(u32, u32)> = (1..nodes as u32).map(|d| (d - 1, d)).collect();
        let ne = edges.len();
        PowerGraph {
            kernel: "codec".into(),
            design_id: format!("c{seed}"),
            num_nodes: nodes,
            node_feats,
            edges,
            edge_feats: (0..ne).map(|_| [rng.f32(), rng.f32(), 0.2, 0.1]).collect(),
            edge_rel: (0..ne)
                .map(|i| match i % 4 {
                    0 => Relation::AA,
                    1 => Relation::AN,
                    2 => Relation::NA,
                    _ => Relation::NN,
                })
                .collect(),
            meta: (0..10).map(|_| rng.f32()).collect(),
        }
    }

    #[test]
    fn matrix_roundtrip_is_bit_exact() {
        let mut rng = Rng64::new(3);
        let m = pg_tensor::init::glorot(7, 5, &mut rng);
        let mut e = Enc::new();
        enc_matrix(&mut e, &m);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = dec_matrix(&mut d).unwrap();
        d.finish("matrix").unwrap();
        assert_eq!(m, back);
        let a: Vec<u32> = m.data.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = back.data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn model_roundtrip_predicts_identically() {
        for cfg in [
            ModelConfig::hec(12),
            ModelConfig::baseline(Arch::Gcn, 8),
            ModelConfig::baseline(Arch::Gine, 8),
            ModelConfig::hec(12).with_pool(Pool::Mean),
            ModelConfig::hec(12).with_pool(Pool::Max).with_layers(2),
            ModelConfig::hec(12).with_heads(2),
        ] {
            let mut m = PowerModel::new(cfg, 9);
            m.target_scale = 0.731;
            m.target_shift = 0.25;
            let mut e = Enc::new();
            enc_model(&mut e, &m);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            let back = dec_model(&mut d).unwrap();
            d.finish("model").unwrap();
            let graphs: Vec<PowerGraph> = (0..5).map(graph).collect();
            let refs: Vec<&PowerGraph> = graphs.iter().collect();
            let a: Vec<u64> = m.predict(&refs).iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = back.predict(&refs).iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn ensemble_roundtrip() {
        let ens = Ensemble {
            models: (0..3)
                .map(|i| PowerModel::new(ModelConfig::hec(8), i))
                .collect(),
        };
        let mut e = Enc::new();
        enc_ensemble(&mut e, &ens);
        let bytes = e.into_bytes();
        let back = dec_ensemble(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(back.models.len(), 3);
        let graphs: Vec<PowerGraph> = (0..4).map(graph).collect();
        let refs: Vec<&PowerGraph> = graphs.iter().collect();
        assert_eq!(ens.predict(&refs), back.predict(&refs));
    }

    #[test]
    fn model_config_zoo_axes_roundtrip_exactly() {
        for cfg in [
            ModelConfig::hec(16),
            ModelConfig::hec(16).with_pool(Pool::Mean),
            ModelConfig::hec(16).with_pool(Pool::Max),
            ModelConfig::hec(16).with_layers(5).with_heads(4),
            ModelConfig::baseline(Arch::Sage, 8).with_pool(Pool::Max),
        ] {
            let mut e = Enc::new();
            enc_model_config(&mut e, &cfg);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(dec_model_config(&mut d).unwrap(), cfg);
            d.finish("model config").unwrap();
        }
    }

    #[test]
    fn graph_roundtrip_exact() {
        let g = graph(11);
        let mut e = Enc::new();
        enc_graph(&mut e, &g);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(dec_graph(&mut d).unwrap(), g);
        d.finish("graph").unwrap();
    }

    #[test]
    fn directives_roundtrip_preserves_id() {
        let mut dir = Directives::new();
        dir.pipeline("i").unroll("j", 4).partition("A", 2);
        let mut e = Enc::new();
        enc_directives(&mut e, &dir);
        let bytes = e.into_bytes();
        let back = dec_directives(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(back.id(), dir.id());
        assert_eq!(back, dir);
    }

    #[test]
    fn corrupt_model_reports_typed_errors() {
        let m = PowerModel::new(ModelConfig::hec(8), 1);
        let mut e = Enc::new();
        enc_model(&mut e, &m);
        let bytes = e.into_bytes();
        // truncations anywhere must error, never panic
        for cut in 0..bytes.len().min(200) {
            assert!(dec_model(&mut Dec::new(&bytes[..cut])).is_err());
        }
        // bad arch tag
        let mut bad = bytes.clone();
        bad[0] = 250;
        assert!(matches!(
            dec_model(&mut Dec::new(&bad)),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn internally_inconsistent_graph_is_rejected() {
        // CRC-valid but structurally broken graphs (foreign writer) must
        // be typed errors, not later panics in batch assembly.
        let mut g = graph(5);
        g.num_nodes += 3; // node_feats no longer matches
        let mut e = Enc::new();
        enc_graph(&mut e, &g);
        let bytes = e.into_bytes();
        assert!(matches!(
            dec_graph(&mut Dec::new(&bytes)),
            Err(StoreError::Corrupt { .. })
        ));

        let mut g = graph(6);
        g.edges[0].1 = 10_000; // edge endpoint out of range
        let mut e = Enc::new();
        enc_graph(&mut e, &g);
        let bytes = e.into_bytes();
        assert!(matches!(
            dec_graph(&mut Dec::new(&bytes)),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn non_finite_metadata_is_rejected_at_decode() {
        // Without the check, ReLU would turn a NaN/Inf metadata feature
        // into a plausible watt figure downstream.
        for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut g = graph(7);
            g.meta[4] = v;
            let mut e = Enc::new();
            enc_graph(&mut e, &g);
            let bytes = e.into_bytes();
            match dec_graph(&mut Dec::new(&bytes)) {
                Err(StoreError::Corrupt { .. }) => {}
                other => panic!("meta {v}: expected a corrupt-graph error, got {other:?}"),
            }
        }
    }

    #[test]
    fn counts_are_bounded_by_payload() {
        // a u32 count of u32::MAX with a tiny payload must not allocate
        let mut e = Enc::new();
        e.u32(u32::MAX);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(
            d.count(4, "bounded"),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
