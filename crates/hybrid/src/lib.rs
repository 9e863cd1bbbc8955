//! # huffdec-hybrid — re-exports of the RLE+Huffman hybrid codec
//!
//! The hybrid encoder and decoder live in `huffdec-core` (`huffdec_core::hybrid`),
//! whose `compress_for`, `compress_on`, `compress_counted_on`, `decode` and
//! `decode_batch` take [`huffdec_core::DecoderKind::RleHybrid`] like every other kind.
//! This crate only keeps the old import path of the three entry points for callers
//! that still name it: the wall-clock benchmark (`benchmark/`) and two workspace
//! tests. It goes away once the benchmark imports them from `huffdec-core`.

pub use huffdec_core::{compress_hybrid, compress_hybrid_on, decode_hybrid};
