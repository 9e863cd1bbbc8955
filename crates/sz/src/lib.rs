//! # sz — error-bounded lossy compression substrate (cuSZ model)
//!
//! A from-scratch reimplementation of the compression pipeline the paper's Huffman
//! decoders live inside: cuSZ's Lorenzo-predictor dual-quantization with a configurable
//! point-wise error bound, outlier handling, and Huffman coding of the resulting
//! multi-byte quantization codes.
//!
//! * [`error_bound`] — absolute and range-relative error-bound modes;
//! * [`lorenzo`] — 1D–4D Lorenzo prediction with dual quantization and outliers;
//! * [`pipeline`] — the end-to-end compress / decompress pipeline, parameterized by which
//!   Huffman decoder ([`huffdec_core::DecoderKind`]) the archive targets, with simulated
//!   decompression timing (Huffman kernels + reconstruction kernels + optional PCIe
//!   transfer) for the paper's Figs. 4 and 5;
//! * [`stats`] — error-bound verification and PSNR.
//!
//! ## Example
//!
//! ```
//! use datasets::{dataset_by_name, generate};
//! use gpu_sim::Gpu;
//! use huffdec_core::DecoderKind;
//! use sz::{compress, decompress, SzConfig};
//!
//! let spec = dataset_by_name("HACC").unwrap();
//! let field = generate(&spec, 50_000, 42);
//! let gpu = Gpu::v100();
//!
//! let config = SzConfig::paper_default(DecoderKind::OptimizedGapArray);
//! let compressed = compress(&field, &config);
//! let decompressed = decompress(&gpu, &compressed).unwrap();
//!
//! assert_eq!(decompressed.data.len(), field.len());
//! assert!(sz::verify_error_bound(&field.data, &decompressed.data, 1e-3 * field.range_span() as f64).is_none());
//! ```

#![warn(missing_docs)]

pub mod error_bound;
pub mod lorenzo;
pub mod pipeline;
pub mod stats;

pub use error_bound::ErrorBound;
pub use huffdec_core::DecodeError;
pub use lorenzo::{dequantize, dequantize_codes, quantize, Outlier, Quantized};
pub use pipeline::{
    compress, compress_on, decode_codes, decompress, reconstruct, CompressStats, Compressed,
    DecompressStats, Decompressed, SzConfig, DEFAULT_ALPHABET_SIZE,
};
pub use stats::{psnr, verify_error_bound};
