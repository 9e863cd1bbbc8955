//! Encoding and defensive decoding of each section payload.
//!
//! Writers serialize in-memory structures; parsers treat every byte as hostile — each
//! read is bounds-checked, every allocation bounded by the section size, and a defect
//! is a typed error, never a panic. Whether the parsed parts fit together is each
//! type's own rule ([`sz::Compressed::check_structure`]), which the archive reader runs.

use huffdec_core::{
    EncodedStream, HybridStream, StreamGeometry, ALPHABET_SIZES, HYBRID_RUN_ALPHABET,
    HYBRID_RUN_CAP,
};
use huffman::{ChunkMeta, ChunkedEncoded, Codebook, GapArray};
use sz::Outlier;

use crate::dict::{CodebookDict, TuningHint, TuningHints};
use crate::error::{invalid, Result};
use crate::wire::{ByteCursor, ByteWriter};

// --- Codebook --------------------------------------------------------------------------

/// Encodes a codebook as `(symbol, code length)` pairs (count-prefixed).
pub fn encode_codebook(codebook: &Codebook) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(4 + codebook.length_pairs().len() * 3);
    encode_codebook_into(&mut w, codebook);
    w.into_bytes()
}

/// Appends the count-prefixed `(symbol, code length)` pair table to `w` (shared by the
/// standalone codebook section, hybrid substream codebooks, and dictionary entries).
fn encode_codebook_into(w: &mut ByteWriter, codebook: &Codebook) {
    let pairs = codebook.length_pairs();
    w.put_u32(pairs.len() as u32);
    for (sym, len) in pairs {
        w.put_u16(sym);
        w.put_u8(len);
    }
}

/// Parses a count-prefixed pair table from the cursor and rebuilds the canonical
/// codebook over `alphabet_size` symbols.
fn parse_codebook_pairs(c: &mut ByteCursor, alphabet_size: u32) -> Result<Codebook> {
    let npairs = c.get_u32()? as usize;
    if npairs > alphabet_size as usize {
        return Err(invalid("more codebook entries than alphabet symbols"));
    }
    // Each pair is 3 payload bytes; bound the allocation by what is actually left.
    if npairs > c.remaining() / 3 {
        return Err(invalid("codebook entry count exceeds the section size"));
    }
    let mut pairs = Vec::with_capacity(npairs);
    for _ in 0..npairs {
        let sym = c.get_u16()?;
        let len = c.get_u8()?;
        pairs.push((sym, len));
    }
    Codebook::from_length_pairs(alphabet_size as usize, &pairs).map_err(invalid)
}

/// Parses and validates a codebook payload for an alphabet of `alphabet_size` symbols.
pub fn parse_codebook(payload: &[u8], alphabet_size: u32) -> Result<Codebook> {
    let mut c = ByteCursor::new(payload, "codebook section");
    let codebook = parse_codebook_pairs(&mut c, alphabet_size)?;
    c.expect_end("trailing bytes in codebook section")?;
    Ok(codebook)
}

// --- Flat stream -----------------------------------------------------------------------

/// Encodes the flat bitstream and its geometry (the gap array travels separately).
pub fn encode_flat_stream(stream: &EncodedStream) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(32 + stream.units.len() * 4);
    encode_flat_prologue_into(&mut w, stream);
    w.into_bytes()
}

/// The flat-stream wire layout — bit length, symbol count, geometry, unit count, packed
/// units — shared by the flat-stream section and both hybrid substreams.
fn encode_flat_prologue_into(w: &mut ByteWriter, stream: &EncodedStream) {
    w.put_u64(stream.bit_len);
    w.put_u64(stream.num_symbols as u64);
    w.put_u32(stream.geometry.subseq_units);
    w.put_u32(stream.geometry.subseqs_per_seq);
    w.put_u64(stream.units.len() as u64);
    for &unit in &stream.units {
        w.put_u32(unit);
    }
}

/// Parses a flat-stream payload and joins it with its codebook (the gap array travels
/// separately): byte reads and an allocation bound only.
pub fn parse_flat_stream(payload: &[u8], codebook: Codebook) -> Result<EncodedStream> {
    let mut c = ByteCursor::new(payload, "flat-stream section");
    let stream = parse_flat_prologue(&mut c, |_| Ok(codebook))?;
    c.expect_end("trailing bytes in flat-stream section")?;
    Ok(stream)
}

/// Reads one flat-stream wire layout (see [`encode_flat_prologue_into`]), then its
/// codebook with `codebook`: byte reads and an allocation bound only. Whether the parts
/// fit together is [`EncodedStream::check_structure`]'s rule.
fn parse_flat_prologue(
    c: &mut ByteCursor,
    codebook: impl FnOnce(&mut ByteCursor) -> Result<Codebook>,
) -> Result<EncodedStream> {
    let bit_len = c.get_u64()?;
    let num_symbols =
        usize::try_from(c.get_u64()?).map_err(|_| invalid("symbol count exceeds usize"))?;
    let geometry = StreamGeometry {
        subseq_units: c.get_u32()?,
        subseqs_per_seq: c.get_u32()?,
    };
    let unit_count =
        usize::try_from(c.get_u64()?).map_err(|_| invalid("unit count exceeds usize"))?;
    // Bound the allocation by what the section can actually hold before reserving: a
    // CRC-valid but hand-crafted count must not drive a huge allocation.
    if unit_count > c.remaining() / 4 {
        return Err(invalid("unit count exceeds the section size"));
    }
    let mut units = Vec::with_capacity(unit_count);
    for _ in 0..unit_count {
        units.push(c.get_u32()?);
    }
    Ok(EncodedStream {
        units,
        bit_len,
        num_symbols,
        codebook: codebook(c)?,
        geometry,
        gap_array: None,
    })
}

// --- Gap array -------------------------------------------------------------------------

/// Encodes a gap array.
pub fn encode_gap_array(gap: &GapArray) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(16 + gap.gaps.len());
    w.put_u64(gap.subseq_bits);
    w.put_u64(gap.gaps.len() as u64);
    w.put_bytes(&gap.gaps);
    w.into_bytes()
}

/// Parses a gap-array payload. Whether it fits the stream is
/// [`EncodedStream::check_structure`]'s rule.
pub fn parse_gap_array(payload: &[u8]) -> Result<GapArray> {
    let mut c = ByteCursor::new(payload, "gap-array section");
    let subseq_bits = c.get_u64()?;
    let count =
        usize::try_from(c.get_u64()?).map_err(|_| invalid("gap array length exceeds usize"))?;
    let gaps = c.get_bytes(count)?.to_vec();
    c.expect_end("trailing bytes in gap-array section")?;
    Ok(GapArray { gaps, subseq_bits })
}

// --- Outliers --------------------------------------------------------------------------

/// Encodes the outlier list.
pub fn encode_outliers(outliers: &[Outlier]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(8 + outliers.len() * 16);
    w.put_u64(outliers.len() as u64);
    for o in outliers {
        w.put_u64(o.index);
        w.put_i64(o.prequant);
    }
    w.into_bytes()
}

/// Reads the outlier list: byte reads and an allocation bound only. The range and
/// order of the indices are [`sz::Compressed::check_structure`]'s rule, which the
/// archive reader runs on the assembled field.
pub fn parse_outliers(payload: &[u8]) -> Result<Vec<Outlier>> {
    let mut c = ByteCursor::new(payload, "outliers section");
    let count =
        usize::try_from(c.get_u64()?).map_err(|_| invalid("outlier count exceeds usize"))?;
    // Each outlier is 16 payload bytes; bound the allocation by the section size.
    if count > c.remaining() / 16 {
        return Err(invalid("outlier count exceeds the section size"));
    }
    let mut outliers = Vec::with_capacity(count);
    for _ in 0..count {
        let index = c.get_u64()?;
        let prequant = c.get_i64()?;
        outliers.push(Outlier { index, prequant });
    }
    c.expect_end("trailing bytes in outliers section")?;
    Ok(outliers)
}

// --- Decoded-stream digest -------------------------------------------------------------

/// Encodes the decoded-CRC trailer: the number of symbols the digest covers and the
/// CRC32 of the decoded symbol stream (LE u16 serialization).
pub fn encode_decoded_crc(num_symbols: u64, crc: u32) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(12);
    w.put_u64(num_symbols);
    w.put_u32(crc);
    w.into_bytes()
}

/// Parses the decoded-CRC trailer, requiring its symbol count to match the stream's
/// (a digest over a different stream length can never validate anything).
pub fn parse_decoded_crc(payload: &[u8], stream_symbols: u64) -> Result<u32> {
    let mut c = ByteCursor::new(payload, "decoded-crc section");
    let num_symbols = c.get_u64()?;
    let crc = c.get_u32()?;
    c.expect_end("trailing bytes in decoded-crc section")?;
    if num_symbols != stream_symbols {
        return Err(invalid(
            "decoded-crc symbol count does not match the stream",
        ));
    }
    Ok(crc)
}

// --- Snapshot manifest -----------------------------------------------------------------

/// Fixed wire bytes per manifest entry, excluding the name bytes: name length (u16) +
/// offset/length (2 × u64) + decoder tag (u8) + alphabet (u32) + symbol count (u64) +
/// dimensionality (u8) + dims (4 × u64) + CRC presence flag (u8) + CRC (u32).
const MANIFEST_ENTRY_FIXED_BYTES: usize = 2 + 8 + 8 + 1 + 4 + 8 + 1 + 32 + 1 + 4;

/// Encodes the snapshot manifest section (count-prefixed entries).
pub fn encode_manifest(manifest: &crate::manifest::SnapshotManifest) -> Vec<u8> {
    let entries = manifest.entries();
    let mut w = ByteWriter::with_capacity(4 + entries.len() * (MANIFEST_ENTRY_FIXED_BYTES + 16));
    w.put_u32(entries.len() as u32);
    for e in entries {
        w.put_u16(e.name.len() as u16);
        w.put_bytes(e.name.as_bytes());
        w.put_u64(e.offset);
        w.put_u64(e.length);
        w.put_u8(e.decoder.tag());
        w.put_u32(e.alphabet_size);
        w.put_u64(e.num_symbols);
        match &e.dims {
            Some(dims) => {
                w.put_u8(dims.ndim() as u8);
                let extents = dims.as_vec();
                for slot in 0..4 {
                    w.put_u64(extents.get(slot).map(|&x| x as u64).unwrap_or(0));
                }
            }
            None => {
                w.put_u8(0);
                for _ in 0..4 {
                    w.put_u64(0);
                }
            }
        }
        match e.decoded_crc {
            Some(crc) => {
                w.put_u8(1);
                w.put_u32(crc);
            }
            None => {
                w.put_u8(0);
                w.put_u32(0);
            }
        }
    }
    w.into_bytes()
}

/// Parses and validates a snapshot-manifest payload. Field-level invariants (unique
/// names, contiguous shard tiling) are enforced by
/// [`SnapshotManifest::new`](crate::manifest::SnapshotManifest::new); this parser adds
/// the byte-level checks (bounded counts, valid tags, consistent dimension slots).
pub fn parse_manifest(payload: &[u8]) -> Result<crate::manifest::SnapshotManifest> {
    let mut c = ByteCursor::new(payload, "manifest section");
    let count = c.get_u32()? as usize;
    // Bound the allocation by what the section can actually hold before reserving.
    if count > payload.len() / MANIFEST_ENTRY_FIXED_BYTES {
        return Err(invalid("manifest entry count exceeds the section size"));
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = c.get_u16()? as usize;
        let name = std::str::from_utf8(c.get_bytes(name_len)?)
            .map_err(|_| invalid("manifest field name is not UTF-8"))?
            .to_string();
        let offset = c.get_u64()?;
        let length = c.get_u64()?;
        let decoder = huffdec_core::DecoderKind::from_tag(c.get_u8()?)
            .ok_or_else(|| invalid("unknown decoder kind tag in the manifest"))?;
        let alphabet_size = c.get_u32()?;
        if !ALPHABET_SIZES.contains(&(alphabet_size as usize)) {
            return Err(invalid("manifest alphabet size out of range"));
        }
        let num_symbols = c.get_u64()?;
        let ndim = c.get_u8()?;
        let mut raw_dims = [0u64; 4];
        for slot in &mut raw_dims {
            *slot = c.get_u64()?;
        }
        let dims = if ndim == 0 {
            if raw_dims.iter().any(|&x| x != 0) {
                return Err(invalid("manifest dimensions set without a dimensionality"));
            }
            None
        } else {
            if !(1..=4).contains(&ndim) {
                return Err(invalid("manifest dimensionality out of range"));
            }
            let extents = &raw_dims[..ndim as usize];
            if extents.contains(&0) {
                return Err(invalid("zero-sized manifest dimension"));
            }
            if raw_dims[ndim as usize..].iter().any(|&x| x != 0) {
                return Err(invalid("non-zero unused manifest dimension slot"));
            }
            let usized: Vec<usize> = extents
                .iter()
                .map(|&x| usize::try_from(x))
                .collect::<std::result::Result<_, _>>()
                .map_err(|_| invalid("manifest dimension exceeds usize"))?;
            Some(datasets::Dims::from_slice(&usized))
        };
        let crc_present = c.get_u8()?;
        let crc_value = c.get_u32()?;
        let decoded_crc = match crc_present {
            0 => {
                if crc_value != 0 {
                    return Err(invalid("manifest CRC value set without its flag"));
                }
                None
            }
            1 => Some(crc_value),
            _ => return Err(invalid("bad manifest CRC presence flag")),
        };
        entries.push(crate::manifest::ManifestEntry {
            name,
            offset,
            length,
            decoder,
            alphabet_size,
            num_symbols,
            dims,
            decoded_crc,
        });
    }
    c.expect_end("trailing bytes in manifest section")?;
    crate::manifest::SnapshotManifest::new(entries)
}

// --- Chunked stream --------------------------------------------------------------------

/// Encodes cuSZ's chunked bitstream with its per-chunk metadata.
pub fn encode_chunked_stream(encoded: &ChunkedEncoded) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(32 + encoded.chunks.len() * 40 + encoded.units.len() * 4);
    w.put_u64(encoded.chunk_symbols as u64);
    w.put_u64(encoded.num_symbols as u64);
    w.put_u64(encoded.chunks.len() as u64);
    for chunk in &encoded.chunks {
        w.put_u64(chunk.unit_offset);
        w.put_u64(chunk.unit_count);
        w.put_u64(chunk.bit_len);
        w.put_u64(chunk.num_symbols);
        w.put_u64(chunk.symbol_offset);
    }
    w.put_u64(encoded.units.len() as u64);
    for &unit in &encoded.units {
        w.put_u32(unit);
    }
    w.into_bytes()
}

/// Parses a chunked-stream payload, bounding every allocation by the section size.
/// Whether the chunks tile the units and the symbols is
/// [`ChunkedEncoded::check_structure`]'s rule, which the archive reader runs on the
/// assembled payload.
pub fn parse_chunked_stream(payload: &[u8]) -> Result<ChunkedEncoded> {
    let mut c = ByteCursor::new(payload, "chunked-stream section");
    let chunk_symbols =
        usize::try_from(c.get_u64()?).map_err(|_| invalid("chunk size exceeds usize"))?;
    let num_symbols =
        usize::try_from(c.get_u64()?).map_err(|_| invalid("symbol count exceeds usize"))?;
    let num_chunks =
        usize::try_from(c.get_u64()?).map_err(|_| invalid("chunk count exceeds usize"))?;
    // Each chunk frame is 40 bytes; reject counts the payload cannot possibly hold
    // before reserving space.
    if num_chunks > payload.len() / 40 {
        return Err(invalid("chunk count exceeds the section size"));
    }

    let mut chunks = Vec::with_capacity(num_chunks);
    for _ in 0..num_chunks {
        chunks.push(ChunkMeta {
            unit_offset: c.get_u64()?,
            unit_count: c.get_u64()?,
            bit_len: c.get_u64()?,
            num_symbols: c.get_u64()?,
            symbol_offset: c.get_u64()?,
        });
    }

    let unit_count =
        usize::try_from(c.get_u64()?).map_err(|_| invalid("unit count exceeds usize"))?;
    // Bound the allocation by what the section can actually hold before reserving.
    if unit_count > c.remaining() / 4 {
        return Err(invalid("unit count exceeds the section size"));
    }
    let mut units = Vec::with_capacity(unit_count);
    for _ in 0..unit_count {
        units.push(c.get_u32()?);
    }
    c.expect_end("trailing bytes in chunked-stream section")?;
    Ok(ChunkedEncoded {
        units,
        chunks,
        chunk_symbols,
        num_symbols,
    })
}

// --- Hybrid stream (format v2) ---------------------------------------------------------

/// Encodes the RLE+Huffman hybrid payload: code count and run cap, then each substream
/// (flat-stream prologue + packed units) immediately followed by its inline codebook.
pub fn encode_hybrid_stream(hybrid: &HybridStream) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(
        12 + 64
            + (hybrid.symbols.units.len() + hybrid.runs.units.len()) * 4
            + 8
            + (hybrid.symbols.codebook.length_pairs().len()
                + hybrid.runs.codebook.length_pairs().len())
                * 3,
    );
    w.put_u64(hybrid.num_codes);
    w.put_u32(HYBRID_RUN_CAP as u32);
    encode_hybrid_substream_into(&mut w, &hybrid.symbols);
    encode_hybrid_substream_into(&mut w, &hybrid.runs);
    w.into_bytes()
}

fn encode_hybrid_substream_into(w: &mut ByteWriter, stream: &EncodedStream) {
    encode_flat_prologue_into(w, stream);
    encode_codebook_into(w, &stream.codebook);
}

/// Parses a hybrid-stream payload for a quant alphabet of `alphabet_size` symbols (the
/// run substream's alphabet is fixed by the format). Whether the substreams fit
/// together is [`HybridStream::check_structure`]'s rule, which the archive reader runs
/// on the assembled payload.
pub fn parse_hybrid_stream(payload: &[u8], alphabet_size: u32) -> Result<HybridStream> {
    let mut c = ByteCursor::new(payload, "hybrid-stream section");
    let num_codes = c.get_u64()?;
    let run_cap = c.get_u32()?;
    if run_cap != HYBRID_RUN_CAP as u32 {
        return Err(invalid("unsupported hybrid run cap"));
    }
    let symbols = parse_flat_prologue(&mut c, |c| parse_codebook_pairs(c, alphabet_size))?;
    let run_alphabet = HYBRID_RUN_ALPHABET as u32;
    let runs = parse_flat_prologue(&mut c, |c| parse_codebook_pairs(c, run_alphabet))?;
    c.expect_end("trailing bytes in hybrid-stream section")?;
    Ok(HybridStream {
        symbols,
        runs,
        num_codes,
    })
}

// --- Codebook dictionary (format v2) ---------------------------------------------------

/// Fixed wire bytes per dictionary entry, excluding its pairs: alphabet size (u32) +
/// pair count (u32).
const DICT_ENTRY_FIXED_BYTES: usize = 4 + 4;

/// Encodes the snapshot codebook dictionary: count-prefixed entries of
/// `alphabet size (u32)`, then the entry's count-prefixed pair table.
pub fn encode_codebook_dict(dict: &CodebookDict) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(4 + dict.len() * 64);
    w.put_u32(dict.len() as u32);
    for entry in dict.entries() {
        w.put_u32(entry.alphabet_size() as u32);
        encode_codebook_into(&mut w, entry);
    }
    w.into_bytes()
}

/// Parses and validates a codebook-dictionary payload. Entry-level invariants (no
/// identical duplicates) are enforced by [`CodebookDict::new`].
pub fn parse_codebook_dict(payload: &[u8]) -> Result<CodebookDict> {
    let mut c = ByteCursor::new(payload, "codebook-dict section");
    let count = c.get_u32()? as usize;
    // Bound the allocation by what the section can actually hold before reserving.
    if count > payload.len() / DICT_ENTRY_FIXED_BYTES {
        return Err(invalid("dictionary entry count exceeds the section size"));
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let alphabet_size = c.get_u32()?;
        if !ALPHABET_SIZES.contains(&(alphabet_size as usize)) {
            return Err(invalid("dictionary codebook alphabet size out of range"));
        }
        entries.push(parse_codebook_pairs(&mut c, alphabet_size)?);
    }
    c.expect_end("trailing bytes in codebook-dict section")?;
    CodebookDict::new(entries)
}

// --- Tuning hints (format v2) ----------------------------------------------------------

/// Wire bytes per tuning hint: decoder tag (u8) + buffer symbols (u32).
const HINT_BYTES: usize = 1 + 4;

/// Encodes the decoder-tuning-hints section (count-prefixed entries).
pub fn encode_tuning_hints(hints: &TuningHints) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(4 + hints.len() * HINT_BYTES);
    w.put_u32(hints.len() as u32);
    for hint in hints.hints() {
        w.put_u8(hint.decoder.tag());
        w.put_u32(hint.buffer_symbols);
    }
    w.into_bytes()
}

/// Parses and validates a tuning-hints payload. Hint-level invariants (bounds, one
/// hint per decoder) are enforced by [`TuningHints::new`].
pub fn parse_tuning_hints(payload: &[u8]) -> Result<TuningHints> {
    let mut c = ByteCursor::new(payload, "tuning-hints section");
    let count = c.get_u32()? as usize;
    // Bound the allocation by what the section can actually hold before reserving.
    if count > payload.len() / HINT_BYTES {
        return Err(invalid("tuning hint count exceeds the section size"));
    }
    let mut hints = Vec::with_capacity(count);
    for _ in 0..count {
        let decoder = huffdec_core::DecoderKind::from_tag(c.get_u8()?)
            .ok_or_else(|| invalid("unknown decoder kind tag in the tuning hints"))?;
        let buffer_symbols = c.get_u32()?;
        hints.push(TuningHint {
            decoder,
            buffer_symbols,
        });
    }
    c.expect_end("trailing bytes in tuning-hints section")?;
    TuningHints::new(hints)
}

// --- Codebook reference (format v2) ----------------------------------------------------

/// Encodes a codebook-reference section: the dictionary entry id.
pub fn encode_codebook_ref(id: u32) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(4);
    w.put_u32(id);
    w.into_bytes()
}

/// Parses a codebook-reference payload. Whether the id resolves is checked against the
/// snapshot's dictionary by the archive reader.
pub fn parse_codebook_ref(payload: &[u8]) -> Result<u32> {
    let mut c = ByteCursor::new(payload, "codebook-ref section");
    let id = c.get_u32()?;
    c.expect_end("trailing bytes in codebook-ref section")?;
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{FieldMeta, FormatVersion, Header};
    use crate::section::{write_section, SectionKind};
    use crate::{read_one_archive, Archive, ContainerError};
    use huffdec_core::DecoderKind;
    use huffman::encode_chunked;

    fn symbols(n: usize) -> Vec<u16> {
        (0..n as u32)
            .map(|i| (512 + ((i.wrapping_mul(2654435761) >> 22) % 16) as i32 - 8) as u16)
            .collect()
    }

    /// Reads the archive of `decoder` over 1,024 symbols with `field` and `sections`,
    /// framed as the writer frames them but without its checks: how the reader meets
    /// the sections these tests corrupt.
    fn read_sections(
        decoder: DecoderKind,
        field: Option<FieldMeta>,
        sections: &[(SectionKind, Vec<u8>)],
    ) -> Result<Archive> {
        let version = FormatVersion::lowest_for(decoder.layout()).number();
        let header = Header {
            version,
            decoder,
            alphabet_size: 1024,
            field,
        };
        let mut bytes = header.encode_with_crc().to_vec();
        for (kind, payload) in sections.iter().chain([&(SectionKind::End, Vec::new())]) {
            write_section(&mut bytes, *kind, payload).unwrap();
        }
        read_one_archive(&bytes)
    }

    /// The reason the reader gives for an archive, or a panic when it accepts it.
    fn refusal<T>(read: Result<T>) -> &'static str {
        match read {
            Err(ContainerError::Invalid { reason }) => reason,
            other => panic!("expected an invalid archive, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn codebook_roundtrip() {
        let syms = symbols(5000);
        let cb = Codebook::from_symbols(&syms, 1024);
        let payload = encode_codebook(&cb);
        let back = parse_codebook(&payload, 1024).unwrap();
        assert_eq!(back.codewords(), cb.codewords());
    }

    #[test]
    fn codebook_with_symbol_outside_alphabet_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(1);
        w.put_u16(5000); // beyond a 1024 alphabet
        w.put_u8(3);
        assert!(parse_codebook(&w.into_bytes(), 1024).is_err());
    }

    #[test]
    fn codebook_kraft_violation_rejected() {
        // Three 1-bit codes: kraft sum 1.5.
        let mut w = ByteWriter::new();
        w.put_u32(3);
        for sym in 0..3u16 {
            w.put_u16(sym);
            w.put_u8(1);
        }
        assert!(parse_codebook(&w.into_bytes(), 16).is_err());
    }

    #[test]
    fn flat_stream_roundtrip() {
        let syms = symbols(20_000);
        let cb = Codebook::from_symbols(&syms, 1024);
        let stream = EncodedStream::encode(&cb, &syms);
        let payload = encode_flat_stream(&stream);
        assert_eq!(parse_flat_stream(&payload, cb).unwrap(), stream);
    }

    #[test]
    fn flat_stream_with_wrong_unit_count_rejected() {
        let syms = symbols(1000);
        let cb = Codebook::from_symbols(&syms, 1024);
        let stream = EncodedStream::encode(&cb, &syms);
        let mut payload = encode_flat_stream(&stream);
        // Halve the claimed bit length; the unit count no longer matches.
        payload[0..8].copy_from_slice(&(stream.bit_len / 2).to_le_bytes());
        let read = read_sections(
            DecoderKind::OptimizedSelfSync,
            None,
            &[
                (SectionKind::Codebook, encode_codebook(&cb)),
                (SectionKind::FlatStream, payload),
            ],
        );
        assert_eq!(refusal(read), "unit count does not cover the bit length");
    }

    #[test]
    fn huge_claimed_counts_rejected_before_allocating() {
        // A tiny section claiming astronomically many units/outliers must be rejected
        // by the size bound, not by attempting the allocation.
        let huge = 1u64 << 45;
        let mut w = ByteWriter::new();
        w.put_u64(huge * 32); // bit_len consistent with the unit count
        w.put_u64(100); // num_symbols
        w.put_u32(4);
        w.put_u32(128);
        w.put_u64(huge); // unit count far beyond the payload size
        let codebook = Codebook::from_symbols(&[0u16], 4);
        assert!(parse_flat_stream(&w.into_bytes(), codebook).is_err());

        let mut w = ByteWriter::new();
        w.put_u64(huge); // outlier count
        assert!(parse_outliers(&w.into_bytes()).is_err());
    }

    #[test]
    fn gap_array_roundtrip() {
        let gap = GapArray {
            gaps: vec![0, 3, 17, 0, 9],
            subseq_bits: 128,
        };
        let parsed = parse_gap_array(&encode_gap_array(&gap)).unwrap();
        assert_eq!(parsed.gaps, gap.gaps);
        assert_eq!(parsed.subseq_bits, gap.subseq_bits);
    }

    /// Reads a field archive of 100 symbols that carries `outliers`.
    fn field_with_outliers(outliers: &[Outlier]) -> Result<sz::Compressed> {
        let syms = symbols(100);
        let cb = Codebook::from_symbols(&syms, 1024);
        let field = FieldMeta {
            error_bound: sz::ErrorBound::Absolute(0.5),
            step: 1.0,
            dims: datasets::Dims::D1(100),
        };
        let sections = [
            (SectionKind::Codebook, encode_codebook(&cb)),
            (
                SectionKind::FlatStream,
                encode_flat_stream(&EncodedStream::encode(&cb, &syms)),
            ),
            (SectionKind::Outliers, encode_outliers(outliers)),
        ];
        let archive = read_sections(DecoderKind::OptimizedSelfSync, Some(field), &sections)?;
        Ok(archive.into_field().expect("a field archive"))
    }

    #[test]
    fn outliers_roundtrip_and_ordering() {
        let outlier = |index, prequant| Outlier { index, prequant };
        let outliers = vec![outlier(3, -1000), outlier(77, 123456789)];
        let payload = encode_outliers(&outliers);
        assert_eq!(parse_outliers(&payload).unwrap(), outliers);
        let mut field = field_with_outliers(&outliers).unwrap();
        assert_eq!(field.outliers, outliers);
        // An out-of-range index and an unsorted list are rejected by the field's rule.
        for bad in [
            vec![outlier(3, -1000), outlier(100, 1)],
            vec![outlier(77, 1), outlier(3, 2)],
        ] {
            field.outliers = bad.clone();
            let rule = field.check_structure().unwrap_err();
            assert_eq!(refusal(field_with_outliers(&bad)), rule);
        }
    }

    #[test]
    fn decoded_crc_roundtrip_and_count_check() {
        let payload = encode_decoded_crc(12_345, 0xDEAD_BEEF);
        assert_eq!(parse_decoded_crc(&payload, 12_345).unwrap(), 0xDEAD_BEEF);
        // A digest claiming a different stream length is rejected.
        assert!(parse_decoded_crc(&payload, 12_346).is_err());
        // Truncated / oversized payloads are rejected.
        assert!(parse_decoded_crc(&payload[..8], 12_345).is_err());
        let mut long = payload.clone();
        long.push(0);
        assert!(parse_decoded_crc(&long, 12_345).is_err());
    }

    #[test]
    fn manifest_roundtrip_and_validation() {
        use crate::manifest::{ManifestEntry, SnapshotManifest};
        use datasets::Dims;
        use huffdec_core::DecoderKind;

        let manifest = SnapshotManifest::new(vec![
            ManifestEntry {
                name: "xx".into(),
                offset: 0,
                length: 100,
                decoder: DecoderKind::OptimizedGapArray,
                alphabet_size: 1024,
                num_symbols: 5000,
                dims: Some(Dims::D2(50, 100)),
                decoded_crc: Some(0x1234_5678),
            },
            ManifestEntry {
                name: "yy".into(),
                offset: 100,
                length: 64,
                decoder: DecoderKind::CuszBaseline,
                alphabet_size: 256,
                num_symbols: 77,
                dims: None,
                decoded_crc: None,
            },
        ])
        .unwrap();
        let payload = encode_manifest(&manifest);
        assert_eq!(parse_manifest(&payload).unwrap(), manifest);

        // Truncated payloads are typed errors.
        for cut in [0, 3, 10, payload.len() - 1] {
            assert!(parse_manifest(&payload[..cut]).is_err(), "cut {}", cut);
        }
        // A tiny section claiming astronomically many entries is rejected before any
        // allocation is attempted.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        assert!(parse_manifest(&w.into_bytes()).is_err());
    }

    #[test]
    fn chunked_stream_roundtrip() {
        let syms = symbols(10_000);
        let cb = Codebook::from_symbols(&syms, 1024);
        let enc = encode_chunked(&cb, &syms, 1024);
        let parsed = parse_chunked_stream(&encode_chunked_stream(&enc)).unwrap();
        assert_eq!(parsed.units, enc.units);
        assert_eq!(parsed.chunks, enc.chunks);
        assert_eq!(parsed.chunk_symbols, enc.chunk_symbols);
        assert_eq!(parsed.num_symbols, enc.num_symbols);
    }

    #[test]
    fn chunked_stream_with_gapped_tiling_rejected() {
        let syms = symbols(5000);
        let cb = Codebook::from_symbols(&syms, 1024);
        let enc = encode_chunked(&cb, &syms, 1024);
        let mut gapped = enc.clone();
        gapped.chunks[1].unit_offset += 1;
        let mut unit_short = enc;
        unit_short.units.pop();
        for bad in [gapped, unit_short] {
            let rule = bad.check_structure().unwrap_err();
            assert_eq!(refusal(read_chunked(&cb, &bad)), rule);
        }
    }

    /// Reads a payload-only baseline archive of `encoded`.
    fn read_chunked(codebook: &Codebook, encoded: &ChunkedEncoded) -> Result<Archive> {
        let sections = [
            (SectionKind::Codebook, encode_codebook(codebook)),
            (SectionKind::ChunkedStream, encode_chunked_stream(encoded)),
        ];
        read_sections(DecoderKind::CuszBaseline, None, &sections)
    }

    #[test]
    fn chunked_stream_with_bad_symbol_total_rejected() {
        let syms = symbols(5000);
        let cb = Codebook::from_symbols(&syms, 1024);
        let mut enc = encode_chunked(&cb, &syms, 1024);
        enc.num_symbols += 1;
        let reason = refusal(read_chunked(&cb, &enc));
        assert_eq!(reason, "chunk symbol counts do not sum to the stream total");
    }

    fn sample_hybrid() -> HybridStream {
        let nonzeros = symbols(300);
        let tokens: Vec<u16> = (0..300u16).map(|i| (i * 7) % 250).collect();
        let symbols = EncodedStream::encode(&Codebook::from_symbols(&nonzeros, 1024), &nonzeros);
        let runs = EncodedStream::encode(
            &Codebook::from_symbols(&tokens, HYBRID_RUN_ALPHABET),
            &tokens,
        );
        let num_codes = 300 + tokens.iter().map(|&t| t as u64).sum::<u64>();
        HybridStream::from_parts(symbols, runs, num_codes).unwrap()
    }

    #[test]
    fn hybrid_stream_roundtrip() {
        let hybrid = sample_hybrid();
        let payload = encode_hybrid_stream(&hybrid);
        // The payload size matches the wire-accounting formula minus the framing.
        assert_eq!(
            payload.len() as u64 + 16,
            hybrid.compressed_bytes(),
            "hybrid wire accounting"
        );
        let back = parse_hybrid_stream(&payload, 1024).unwrap();
        assert_eq!(back, hybrid);

        // Truncations anywhere are typed errors, never panics.
        for cut in [0, 8, 11, 20, 60, payload.len() - 1] {
            assert!(
                parse_hybrid_stream(&payload[..cut], 1024).is_err(),
                "cut {}",
                cut
            );
        }
    }

    #[test]
    fn hybrid_stream_with_bad_run_cap_rejected() {
        let mut payload = encode_hybrid_stream(&sample_hybrid());
        payload[8..12].copy_from_slice(&64u32.to_le_bytes());
        assert!(matches!(
            parse_hybrid_stream(&payload, 1024),
            Err(ContainerError::Invalid {
                reason: "unsupported hybrid run cap"
            })
        ));
    }

    #[test]
    fn hybrid_stream_with_inconsistent_population_rejected() {
        // Claim fewer codes than nonzero symbols: the reader must reject it.
        let mut payload = encode_hybrid_stream(&sample_hybrid());
        payload[0..8].copy_from_slice(&1u64.to_le_bytes());
        let sections = [(SectionKind::HybridStream, payload)];
        let read = read_sections(DecoderKind::RleHybrid, None, &sections);
        let reason = "more nonzero symbols than codes in the hybrid stream";
        assert_eq!(refusal(read), reason);
    }

    #[test]
    fn codebook_dict_roundtrip_and_validation() {
        let a = Codebook::from_symbols(&symbols(4000), 1024);
        let b = Codebook::from_symbols(&symbols(300), 2048);
        let dict = crate::dict::CodebookDict::new(vec![a.clone(), b]).unwrap();
        let payload = encode_codebook_dict(&dict);
        let back = parse_codebook_dict(&payload).unwrap();
        assert_eq!(back, dict);
        assert_eq!(back.find(&a), Some(0));

        for cut in [0, 3, 6, payload.len() - 1] {
            assert!(parse_codebook_dict(&payload[..cut]).is_err(), "cut {}", cut);
        }
        // A tiny section claiming astronomically many entries is rejected before any
        // allocation is attempted.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        assert!(parse_codebook_dict(&w.into_bytes()).is_err());
    }

    #[test]
    fn duplicate_dict_entries_rejected_on_parse() {
        let a = Codebook::from_symbols(&symbols(4000), 1024);
        let mut w = ByteWriter::new();
        w.put_u32(2);
        for _ in 0..2 {
            w.put_u32(1024);
            let encoded = encode_codebook(&a);
            w.put_bytes(&encoded);
        }
        assert!(matches!(
            parse_codebook_dict(&w.into_bytes()),
            Err(ContainerError::Invalid {
                reason: "duplicate codebook dictionary entries"
            })
        ));
    }

    #[test]
    fn tuning_hints_roundtrip_and_validation() {
        use huffdec_core::DecoderKind;
        let hints = crate::dict::TuningHints::new(vec![
            crate::dict::TuningHint {
                decoder: DecoderKind::OptimizedSelfSync,
                buffer_symbols: 4096,
            },
            crate::dict::TuningHint {
                decoder: DecoderKind::RleHybrid,
                buffer_symbols: 2048,
            },
        ])
        .unwrap();
        let payload = encode_tuning_hints(&hints);
        assert_eq!(parse_tuning_hints(&payload).unwrap(), hints);

        // Unknown decoder tag rejected.
        let mut bad = payload.clone();
        bad[4] = 0x7F;
        assert!(parse_tuning_hints(&bad).is_err());
        for cut in [0, 3, 6, payload.len() - 1] {
            assert!(parse_tuning_hints(&payload[..cut]).is_err(), "cut {}", cut);
        }
    }

    #[test]
    fn codebook_ref_roundtrip() {
        let payload = encode_codebook_ref(7);
        assert_eq!(parse_codebook_ref(&payload).unwrap(), 7);
        assert!(parse_codebook_ref(&payload[..3]).is_err());
        let mut long = payload.clone();
        long.push(0);
        assert!(parse_codebook_ref(&long).is_err());
    }
}
