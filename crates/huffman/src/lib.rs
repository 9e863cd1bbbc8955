//! # huffman — Huffman coding substrate
//!
//! From-scratch Huffman coding machinery for the reproduction of *"Optimizing Huffman
//! Decoding for Error-Bounded Lossy Compression on GPUs"* (IPDPS 2022):
//!
//! * [`freq`] — symbol frequency histograms over multi-byte (`u16`) alphabets;
//! * [`tree`] — optimal (and length-limited) code-length construction;
//! * [`canonical`] — canonical codeword assignment, as used by cuSZ's codebooks;
//! * [`codebook`] — the encode table plus the canonical decode table every decoder reads,
//!   and the two decode entry points over it (below);
//! * [`bitstream`] — 32-bit-unit bit packing (the "unit" of the paper's stream geometry);
//! * [`encoder`] — flat ("pure") Huffman encoding used by the fine-grained decoders;
//! * [`chunked`] — cuSZ's coarse-grained chunked encoding used by the baseline decoder;
//! * [`gap`] — gap-array construction (Yamamoto et al.);
//! * [`selfsync`] — the sequential self-synchronization reference: the converged
//!   per-subsequence state (Weißenberger & Schmidt, after Klein & Wiseman);
//! * [`cpu_decoder`] — the sequential reference decoder every GPU decoder is validated
//!   against.
//!
//! ## Decoding
//!
//! [`Codebook::decode_at`] resolves the one codeword that starts at a bit position —
//! `None` when it would end past `limit` or the end of the stream, or when the bits are a
//! prefix of no codeword; it is the per-symbol reference. [`Codebook::decode_run`] is the
//! per-thread step every decoder in the workspace repeats, and the only decode loop: from
//! a start bit it decodes while the next codeword *starts* before `stop`, *ends* at or
//! before `limit` (and the end of the stream), fewer than `max_symbols` have been produced
//! and the bits resolve to a symbol, and returns where it stopped and how many it
//! produced. `stop` is a subsequence boundary that a codeword may straddle; `limit` is
//! where the bits run out. It reads the stream through a register bit buffer and takes
//! up to three codewords per table lookup, falling back to `decode_at`'s own resolve step
//! one codeword at a time wherever a stop condition would split them. Both contracts are
//! spelled out in [`codebook`].
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
pub use chunked::{encode_chunked, ChunkMeta, ChunkedEncoded, DEFAULT_CHUNK_SYMBOLS};
pub use codebook::Codebook;
pub use cpu_decoder::decode_flat;
pub use encoder::{encode_flat, FlatEncoded};
pub use freq::FrequencyTable;
pub use gap::{compute_gap_array, GapArray};
pub use selfsync::{reference_sync_states, SubseqSync};
pub use tree::{code_lengths, kraft_sum, length_limited_code_lengths, MAX_CODE_LEN};
