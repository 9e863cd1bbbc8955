//! # huffdec-codec — the session-style public API of the workspace
//!
//! The pipeline this workspace reproduces (quantize → codebook → encode → gap/chunk
//! decode) is one coherent codec, and this crate is its single seam: a
//! [`CodecBuilder`] → [`Codec`] handle that owns the execution device, the
//! worker-thread budget, and the compression configuration, in the style of cuSZ/phf's
//! session `HuffmanCodec` objects. Consumers — the `hfz` CLI, the `hfzd` daemon, the
//! benchmark harness, examples — build one codec and call methods on it instead of
//! threading `&Gpu` + config tuples through a zoo of free functions.
//!
//! * [`Codec::compress`] / [`Codec::decompress`] — one field, with typed
//!   [`EncodeOutcome`] / [`DecodeOutcome`] carrying the phase breakdowns;
//! * [`Codec::decompress_batch`] — many fields as one wave, each field's decode and
//!   reconstruction one task of the worker pool (a wave of one is the serial decode),
//!   timed once end to end into one `huffdec_core::BatchStats`;
//! * [`Codec::open_archive`] / [`Codec::open_snapshot`] — archive sessions
//!   ([`ArchiveHandle`]) that parse a file exactly once and cache each field's
//!   range-decode index, so [`Codec::decompress_range`] launches only the blocks
//!   overlapping a request;
//! * [`Codec::field_digest`] — the deep check of one field ([`FieldDigest`]), the one
//!   `hfz verify --deep` and the daemon's `VERIFY` run;
//! * [`HfzError`] — the one error type every operation reports, with `From` impls
//!   from each layer's typed errors and a stable CLI exit-code mapping.
//!
//! The lower-level free functions (`sz::compress*`, `huffdec_core::decode*`, …) remain
//! public as building blocks, but this crate is the supported surface.
//!
//! ```
//! use datasets::{dataset_by_name, generate};
//! use huffdec_codec::Codec;
//! use huffdec_core::DecoderKind;
//! use sz::ErrorBound;
//!
//! let field = generate(&dataset_by_name("CESM").unwrap(), 20_000, 7);
//!
//! let codec = Codec::builder()
//!     .gpu_config(gpu_sim::GpuConfig::test_tiny())
//!     .decoder(DecoderKind::OptimizedGapArray)
//!     .error_bound(ErrorBound::Relative(1e-3))
//!     .host_threads(2)
//!     .build()
//!     .unwrap();
//!
//! let encoded = codec.compress(&field).unwrap();
//! let decoded = codec.decompress(&encoded.archive).unwrap();
//! assert_eq!(decoded.data.len(), field.len());
//! assert!(encoded.archive.overall_compression_ratio() > 1.0);
//! ```

#![warn(missing_docs)]

mod codec;
mod error;
mod handle;

pub use codec::{
    f32_le_bytes, u16_le_bytes, BatchDecodeOutcome, Codec, CodecBuilder, DecodeOutcome,
    EncodeOutcome, FieldDigest, GetKind,
};
pub use error::{HfzError, Result};
// The container format-version switch and the auto-hybrid default, re-exported so
// CLI/daemon consumers can speak format v2 without naming the lower crates directly.
pub use handle::{ArchiveHandle, ArchiveSummary, FieldHandle};
pub use huffdec_container::FormatVersion;
pub use huffdec_core::AUTO_HYBRID_ZERO_FRACTION;
// The execution-backend seam, re-exported so CLI/daemon consumers can select and
// inspect backends without naming the backend crate directly.
pub use gpu_sim::{Backend, BackendKind, CpuBackend, BACKEND_ENV};
// The registry every codec records into, re-exported so consumers can hold and render
// snapshots without naming the metrics crate directly.
pub use huffdec_metrics::{Metrics, MetricsSnapshot};
