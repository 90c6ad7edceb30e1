//! `pg_store` — versioned, checksummed persistence for everything the
//! PowerGear pipeline trains or synthesizes.
//!
//! Nothing upstream of this crate survives a process exit: ensembles are
//! retrained per invocation and the `HlsCache` is memory-only. PowerGear's
//! deployment story (like HL-Pow's before it) is *train once, estimate
//! many* — this crate supplies the missing persistence layer, hand-rolled
//! because the build environment has no crates-registry access (no serde):
//!
//! * [`container`] — the `PGSTORE` binary container;
//! * [`codec`] — little-endian codecs for matrices, model configs, trained
//!   [`pg_gnn::PowerModel`]s/[`pg_gnn::Ensemble`]s, power graphs, HLS
//!   reports and directives;
//! * [`artifact`] — the `.pgm` model artifact: named ensembles + metadata
//!   + an embedded bit-exactness probe;
//! * [`registry`] — a directory of self-describing artifacts;
//! * [`frame`] — the `PGRPC` wire framing the `powergear serve --listen`
//!   daemon speaks over TCP (byte-level spec in `docs/PROTOCOL.md`),
//!   reusing the same codecs so graphs travel over a socket in exactly the
//!   bytes they are persisted with.
//!
//! # On-disk container format (`FORMAT_VERSION` 1)
//!
//! All integers are little-endian; floats are IEEE-754 bit patterns.
//!
//! ```text
//! offset 0:  magic           8 bytes   "PGSTORE\0"
//!            format_version  u32       readers reject newer versions
//!            section_count   u32
//!            section table, one entry per section:
//!              name_len      u16
//!              name          name_len bytes, UTF-8
//!              offset        u64       absolute file offset of payload
//!              length        u64       payload bytes
//!              crc32         u32       IEEE CRC-32 of the payload
//!            payloads, back to back, in table order
//! ```
//!
//! Readers validate the magic, version and every payload's bounds up
//! front, and verify a section's CRC when it is accessed. Corruption
//! anywhere — truncation, bit flips, foreign files, unknown enum tags,
//! counts that exceed the payload — surfaces as a typed [`StoreError`];
//! no decode path panics or over-allocates on malformed input.
//!
//! ## Artifact layout (`.pgm`)
//!
//! A model artifact is a container with sections `meta`
//! ([`ArtifactMeta`]: kernel, target, train-config fingerprint, metrics,
//! created-at, tool version), `ensembles` (named [`pg_gnn::Ensemble`]s —
//! PowerGear stores `total` and `dynamic`) and optionally `probe`
//! (input graphs + the exact prediction bits captured at save time, so a
//! fresh process can prove the loaded weights are bit-identical without
//! the training data).
//!
//! # Examples
//!
//! ```no_run
//! use pg_store::{ArtifactMeta, ModelArtifact, ModelRegistry};
//! # let ensemble = pg_gnn::Ensemble::default();
//! let artifact = ModelArtifact {
//!     meta: ArtifactMeta::now("gemm", "dynamic"),
//!     ensembles: vec![("dynamic".into(), ensemble)],
//!     probe: None,
//! };
//! let registry = ModelRegistry::open("models")?;
//! registry.publish("gemm-v1", &artifact)?;
//! let back = registry.load("gemm-v1")?;
//! back.verify()?; // bit-exactness probe (if embedded)
//! # Ok::<(), pg_store::StoreError>(())
//! ```

pub mod artifact;
pub mod codec;
pub mod container;
pub mod error;
pub mod frame;
pub mod registry;

pub use artifact::{load_meta, train_fingerprint, ArtifactMeta, ModelArtifact, ProbeSet};
pub use codec::{Dec, Enc};
pub use container::{crc32, Reader, Writer, FORMAT_VERSION, MAGIC};
pub use error::StoreError;
pub use frame::{
    decode_frame, encode_frame, read_frame, write_frame, ErrorFrame, FrameType, ModelInfo,
    ModelListResponse, PredictRequest, PredictResponse, RawFrame, StatsResponse, StatsV2Response,
    FRAME_MAGIC, HEADER_LEN, MAX_PAYLOAD, PGRPC_VERSION, STATSV2_FORMAT_VERSION,
};
pub use registry::{ModelRegistry, RegistryEntry, ARTIFACT_EXT};
