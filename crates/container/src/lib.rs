//! # huffdec-container — the `HFZ1`/`HFZ2` on-disk archive format
//!
//! Everything upstream of this crate lives in memory: [`sz`] compresses fields into
//! [`sz::Compressed`], [`huffdec_core`] decodes [`huffdec_core::CompressedPayload`]s.
//! This crate gives those structures a persistent, versioned, integrity-checked binary
//! form — the piece a real deployment of this pipeline (cuSZ-style compressors ship
//! header + canonical codebook + bitstream + outliers archives) is defined by, and the
//! prerequisite for serving compressed data between processes and machines.
//!
//! ## Format specification
//!
//! An archive is a fixed little-endian **header** (with its own trailing CRC32)
//! followed by a sequence of framed **sections**, terminated by an end marker. Multiple
//! archives may be concatenated on one stream. A **snapshot archive** additionally
//! leads with a framed [`SectionKind::Manifest`] section indexing every following
//! archive by name and byte extent, so readers seek straight to any field (see
//! [`manifest`] and [`Snapshot`]); manifest-less files keep reading unchanged.
//!
//! Two format versions exist, distinguished by the header magic:
//!
//! * **Version 1** (`"HFZ1"`) — the original format: section tags 0–6 in archives,
//!   tag 7 (manifest) as a snapshot prologue. Still the default on write.
//! * **Version 2** (`"HFZ2"`) — adds the RLE+Huffman **hybrid stream** payload
//!   (tag 10) for sparse fields, the snapshot-level **codebook dictionary** (tag 8)
//!   with per-shard **codebook references** (tag 11) deduplicating identical
//!   codebooks, and advisory **decoder tuning hints** (tag 9). v1 files remain
//!   readable byte-for-byte; a v1 archive containing any v2 section is rejected as
//!   corrupt, not forward-compatible.
//!
//! ### Header (64 bytes + 4-byte CRC32)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `"HFZ1"` (version 1) or `"HFZ2"` (version 2) |
//! | 4      | 2    | format version (must agree with the magic) |
//! | 6      | 1    | decoder kind tag (0 baseline, 1 original self-sync, 2 optimized self-sync, 3 optimized gap-array, 4 rle+huff hybrid — v2 only) |
//! | 7      | 1    | flags — bit 0: field metadata present |
//! | 8      | 1    | error-bound mode (0 absolute, 1 relative) |
//! | 9      | 1    | number of dimensions (1–4; 0 for payload-only archives) |
//! | 10     | 2    | reserved, zero |
//! | 12     | 4    | quantization alphabet size |
//! | 16     | 8    | error-bound value (IEEE-754 f64 bits) |
//! | 24     | 8    | quantization step (IEEE-754 f64 bits) |
//! | 32     | 32   | dimensions, 4 × u64, unused slots zero |
//! | 64     | 4    | CRC32 over bytes 0–63 |
//!
//! Magic and version are checked before the header checksum, so a wrong file type or a
//! future format version report those specific errors; any other header bit flip fails
//! the checksum.
//!
//! ### Sections
//!
//! Each section is framed as `tag (1) | reserved (3, zero) | payload length (u64) |
//! payload | CRC32 (u32)`, where the CRC32 (IEEE 802.3 polynomial) covers the 12 frame
//! bytes **and** the payload, so corruption of either is detected. Section tags:
//!
//! | tag | section | payload |
//! |----:|---------|---------|
//! | 0   | end     | empty; terminates the archive |
//! | 1   | codebook | `count (u32)`, then `count` × (`symbol u16`, `code length u8`) — canonical codes rebuilt from lengths on read |
//! | 2   | flat stream | `bit length u64`, `symbol count u64`, `subseq units u32`, `subseqs/seq u32`, `unit count u64`, units (u32 each) |
//! | 3   | gap array | `subseq bits u64`, `count u64`, one gap byte per subsequence |
//! | 4   | outliers | `count u64`, then `count` × (`index u64`, `prequant i64`), strictly increasing indices |
//! | 5   | chunked stream | `chunk symbols u64`, `symbol count u64`, `chunk count u64`, per-chunk metadata (5 × u64), `unit count u64`, units |
//! | 6   | decoded crc | `symbol count u64`, `CRC32 u32` over the decoded symbol stream (optional trailer; deep verification) |
//! | 7   | manifest | `count u32`, then per field: `name (u16 len + UTF-8)`, `shard offset u64`, `shard length u64`, `decoder tag u8`, `alphabet u32`, `symbol count u64`, `ndim u8` + 4 × u64 dims, `CRC flag u8` + `CRC32 u32` — snapshot index; valid only as a file prologue |
//! | 8   | codebook dict (v2) | `count u32`, then per entry: `alphabet u32`, codebook pair table — deduplicated snapshot-level codebooks; prologue-only, after the manifest |
//! | 9   | tuning hints (v2) | `count u32`, then per hint: `decoder tag u8`, `buffer symbols u32` — advisory shared-memory decode-buffer sizes; prologue-only |
//! | 10  | hybrid stream (v2) | `code count u64`, `run cap u32`, then nonzero-symbol and zero-run substreams (each: geometry, units, inline codebook) |
//! | 11  | codebook ref (v2) | `dictionary id u32` — replaces the inline codebook of a dense shard inside a snapshot with a dictionary |
//!
//! The header's decoder fixes the archive's sections through its stream layout
//! ([`huffdec_core::DecoderKind::layout`]): a `Chunked` archive (baseline decoder)
//! carries {codebook, chunked stream}; a `Flat` one (both self-sync decoders) {codebook,
//! flat stream}; a `FlatWithGaps` one (gap-array decoder) {codebook, flat stream, gap
//! array}; a `Hybrid` one (v2 only, [`FormatVersion::lowest_for`]) a single {hybrid
//! stream} section whose two substreams embed their own codebooks. Inside a v2 snapshot
//! with a codebook dictionary, dense shards may replace the inline codebook with a
//! {codebook ref}. Field archives additionally carry {outliers} and, since the
//! trailer was introduced, {decoded crc} — a digest over the *decoded* quantization
//! codes, which `hfz verify --deep` checks so that archives whose sections are
//! individually CRC-valid but decode to the wrong symbols are caught. Anything else —
//! missing, duplicated, or format-mismatched sections — is rejected.
//!
//! A v2 snapshot's prologue is `[manifest][codebook dict?][tuning hints?]`, then the
//! shards; shard offsets are relative to the first byte after the whole prologue.
//!
//! ### Guarantees
//!
//! * **Round-trip fidelity** — `write → read` reproduces the in-memory structures
//!   exactly: decoding a re-read archive is bit-identical to decoding the original,
//!   and decompression honours the recorded error bound.
//! * **No panics on malformed input** — truncation, bad magic, future versions, bit
//!   flips, lying lengths, and semantically invalid fields (Kraft-violating codebooks,
//!   out-of-range outliers, non-tiling chunks) all surface as typed
//!   [`ContainerError`]s.
//! * **One rule set, on write as on read** — the section parsers ([`codec`]) only read
//!   bytes and bound allocations. The rules live in [`Header::decode`],
//!   [`huffdec_core::CompressedPayload::check_structure`] and
//!   [`sz::Compressed::check_structure`]: the reader runs them on what it assembled,
//!   the writer before its first byte, refusing with the reader's reason.
//! * **Versioning** — readers reject archives with a format version they do not
//!   understand instead of misparsing them; decoder and section tags are append-only.
//!
//! ## Entry points
//!
//! Readers take byte slices and borrow every payload from them; each row is one walk
//! (frame check + one CRC pass) of the bytes it covers. [`inspect`] says which check
//! lives in the walk and which in assembly.
//!
//! | entry point | reads or writes | cost |
//! |---|---|---|
//! | [`read_info`] | one archive's header and section table | walk |
//! | [`ArchiveReader::read_archive`], [`read_one_archive`], [`from_bytes`] | one archive, reassembled | walk + assembly |
//! | [`read_archives_with_info`] | every archive of a manifest-less file, each with its summary | walk + assembly per archive |
//! | [`Snapshot::parse`] | the prologue (manifest, v2 dictionary and hints) | the prologue sections only |
//! | [`Snapshot::read_field`] / `read_field_by_name` | one shard by manifest seek, cross-checked against its entry | walk + assembly of that shard |
//! | [`read_snapshot_with_info`] | a whole file (the daemon's `LOAD`): `parse`, then `read_field`'s shard read per entry | walk + assembly per shard |
//! | [`ArchiveWriter`] (`new` = `HFZ1`, `with_version`) | archives, payloads, snapshots to any `Write` | one encode pass |
//! | [`to_bytes`], [`snapshot_to_bytes`], [`snapshot_to_bytes_v2`] | `to_bytes_as` / `snapshot_to_bytes_as` at a fixed version | same |
//!
//! ## Example
//!
//! ```
//! use datasets::{dataset_by_name, generate};
//! use gpu_sim::Gpu;
//! use huffdec_core::DecoderKind;
//! use sz::{compress, decompress, SzConfig};
//!
//! let field = generate(&dataset_by_name("HACC").unwrap(), 20_000, 1);
//! let compressed = compress(&field, &SzConfig::paper_default(DecoderKind::OptimizedGapArray));
//!
//! // Serialize, then reconstruct from bytes alone.
//! let bytes = huffdec_container::to_bytes(&compressed).unwrap();
//! let restored = huffdec_container::from_bytes(&bytes).unwrap();
//!
//! let gpu = Gpu::with_host_threads(gpu_sim::GpuConfig::test_tiny(), 2);
//! assert_eq!(
//!     decompress(&gpu, &restored).unwrap().data,
//!     decompress(&gpu, &compressed).unwrap().data,
//! );
//! ```

#![warn(missing_docs)]

pub mod archive;
pub mod codec;
pub mod dict;
pub mod error;
pub mod header;
pub mod inspect;
pub mod json;
pub mod manifest;
pub mod section;
pub mod wire;

pub use archive::{
    from_bytes, payload_to_bytes, read_archives_with_info, read_one_archive,
    read_snapshot_with_info, snapshot_to_bytes, snapshot_to_bytes_as, snapshot_to_bytes_v2,
    to_bytes, to_bytes_as, Archive, ArchiveReader, ArchiveWriter, Snapshot,
};
pub use dict::{CodebookDict, TuningHint, TuningHints, MAX_HINT_BUFFER_SYMBOLS};
// The CRC-32 implementation lives in `huffdec_core::crc32` (the pipeline digests
// decoded symbol streams without depending on this crate); the container re-exports
// the names because every frame of the `HFZ1` format is checksummed with it.
pub use error::{ContainerError, Result};
pub use header::{
    FieldMeta, FormatVersion, Header, FORMAT_VERSION, FORMAT_VERSION_V2, HEADER_BYTES,
    HEADER_WIRE_BYTES, MAGIC, MAGIC_V2,
};
pub use huffdec_core::{crc32, crc32_symbols, Crc32};
pub use inspect::{read_info, ArchiveInfo, SectionInfo};
pub use json::JsonWriter;
pub use manifest::{manifest_leads, ManifestEntry, SnapshotManifest};
pub use section::SectionKind;
