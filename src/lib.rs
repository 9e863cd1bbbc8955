//! # huffdec — the public API of the workspace
//!
//! The supported surface is the **session API** re-exported at the crate root: build a
//! [`Codec`] once (it owns the execution device, the worker-thread budget, and the
//! compression configuration), then drive the whole pipeline through it — compress,
//! decompress, batched waves, archive sessions with cached decode state, and one
//! unified error type ([`HfzError`]) with a stable CLI exit-code mapping.
//!
//! ```
//! use huffdec::{Codec, DecoderKind, ErrorBound};
//! use huffdec::datasets::{dataset_by_name, generate};
//!
//! let field = generate(&dataset_by_name("HACC").unwrap(), 20_000, 42);
//!
//! let codec = Codec::builder()
//!     .gpu_config(huffdec::gpu_sim::GpuConfig::test_tiny())
//!     .decoder(DecoderKind::OptimizedGapArray)
//!     .error_bound(ErrorBound::Relative(1e-3))
//!     .host_threads(2)
//!     .build()
//!     .unwrap();
//!
//! let encoded = codec.compress(&field).unwrap();
//! let decoded = codec.decompress(&encoded.archive).unwrap();
//! assert_eq!(decoded.data.len(), field.len());
//! ```
//!
//! The member crates remain available below as **low-level building blocks** — the
//! decoders, the gpu simulator, the container codecs, and the free functions the
//! session API is built from. For kernel-level work (benchmark ablations, ranged decodes)
//! the decoders' surface is `prepare_decode`, `decode_range` and `run_decode_write`,
//! each behind the same payload check as a full decode; new consumers should start from
//! [`Codec`], which everything in-tree (`hfz`/`hfzd`, the daemon, the bench) goes through.

// ----- the session API (the supported surface) -----

pub use huffdec_codec::{
    f32_le_bytes, u16_le_bytes, ArchiveHandle, ArchiveSummary, Backend, BackendKind,
    BatchDecodeOutcome, Codec, CodecBuilder, CpuBackend, DecodeOutcome, EncodeOutcome, FieldHandle,
    FormatVersion, HfzError, Metrics, MetricsSnapshot, BACKEND_ENV,
};

// Companion types the session API speaks in.
pub use datasets::Field;
pub use huffdec_core::DecoderKind;
pub use sz::{Compressed, ErrorBound, SzConfig};

// ----- low-level building blocks (member crates, re-exported wholesale) -----

pub use datasets;
pub use gpu_sim;
pub use huffdec_container as container;
pub use huffdec_core as core_decoders;
pub use huffdec_metrics as metrics;
pub use huffdec_serve as serve;
pub use huffdec_serve::router;
pub use huffman;
pub use sz;
