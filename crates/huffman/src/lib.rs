//! # huffman — Huffman coding substrate
//!
//! From-scratch Huffman coding machinery for the reproduction of *"Optimizing Huffman
//! Decoding for Error-Bounded Lossy Compression on GPUs"* (IPDPS 2022):
//!
//! * [`freq`] — symbol frequency histograms over multi-byte (`u16`) alphabets;
//! * [`tree`] — optimal (and length-limited) code-length construction;
//! * [`canonical`] — canonical codeword assignment, as used by cuSZ's codebooks;
//! * [`codebook`] — the encode table plus the canonical decode table every decoder reads;
//! * [`bitstream`] — 32-bit-unit bit packing (the "unit" of the paper's stream geometry);
//! * [`encoder`] — flat ("pure") Huffman encoding used by the fine-grained decoders;
//! * [`chunked`] — cuSZ's coarse-grained chunked encoding used by the baseline decoder;
//! * [`gap`] — gap-array construction (Yamamoto et al.);
//! * [`selfsync`] — self-synchronization reference implementations and measurements
//!   (Weißenberger & Schmidt, after Klein & Wiseman);
//! * [`cpu_decoder`] — the sequential reference decoder every GPU decoder is validated
//!   against.
//!
//! ## Example
//!
//! ```
//! use huffman::{Codebook, encode_flat, decode_flat};
//!
//! let symbols: Vec<u16> = vec![5, 5, 5, 2, 5, 7, 5, 5, 2, 5];
//! let codebook = Codebook::from_symbols(&symbols, 16);
//! let encoded = encode_flat(&codebook, &symbols);
//! assert!(encoded.bit_len < symbols.len() as u64 * 16);
//! assert_eq!(decode_flat(&codebook, &encoded).unwrap(), symbols);
//! ```

#![warn(missing_docs)]

pub mod bitstream;
pub mod canonical;
pub mod chunked;
pub mod codebook;
pub mod cpu_decoder;
pub mod encoder;
pub mod freq;
pub mod gap;
pub mod selfsync;
pub mod tree;

pub use bitstream::{BitReader, BitWriter};
pub use canonical::{assign_canonical, is_prefix_free, Codeword};
pub use chunked::{
    decode_chunked, encode_chunked, ChunkMeta, ChunkedEncoded, DEFAULT_CHUNK_SYMBOLS,
};
pub use codebook::Codebook;
pub use cpu_decoder::{count_codewords_in_range, decode_flat, decode_from_bit};
pub use encoder::{encode_flat, encode_flat_with_offsets, FlatEncoded};
pub use freq::FrequencyTable;
pub use gap::{compute_gap_array, GapArray};
pub use selfsync::{
    decode_subsequence, reference_sync_states, subsequences_until_sync, sync_distance_bits,
    SubseqSync,
};
pub use tree::{
    code_lengths, expected_length, kraft_sum, length_limited_code_lengths, MAX_CODE_LEN,
};
