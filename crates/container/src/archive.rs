//! Archive assembly: joining the header and sections into whole archives and back.
//!
//! [`ArchiveWriter`] streams over any [`std::io::Write`]; [`ArchiveReader`] reads a byte
//! slice, and multiple archives can sit back-to-back on one stream (each `read_archive`
//! call consumes exactly one). Every read goes through the one structural walk of
//! [`crate::inspect`] and assembles the decoder structures from the section table it
//! yields. The [`to_bytes`] / [`from_bytes`] pair covers the common whole-buffer case.
//! Writer and reader run one rule set (the crate docs' *Guarantees*): the writer before
//! its first byte, the reader on what it assembled.

use std::io::Write;

use huffdec_core::{CompressedPayload, DecoderKind, StreamLayout};
use huffman::Codebook;
use sz::{Compressed, SzConfig};

use crate::codec;
use crate::dict::{CodebookDict, TuningHint, TuningHints};
use crate::error::{invalid, ContainerError, Result};
use crate::header::{FieldMeta, FormatVersion, Header, FORMAT_VERSION_V2, HEADER_WIRE_BYTES};
use crate::inspect::{walk_archive, ArchiveInfo, ArchiveWalk};
use crate::manifest::{ManifestEntry, SnapshotManifest};
use crate::section::{next_section, write_section, SectionKind};

/// One decoded archive: either a full sz-pipeline field compression or a bare Huffman
/// payload.
#[derive(Debug, Clone)]
pub enum Archive {
    /// A full field archive (header carried field metadata and an outlier section).
    Field(Compressed),
    /// A payload-only archive.
    Payload {
        /// The Huffman payload.
        payload: CompressedPayload,
        /// The decoder the payload targets.
        decoder: DecoderKind,
        /// The quantization alphabet the codebook was built over.
        alphabet_size: usize,
    },
}

impl Archive {
    /// The decoder the archive targets.
    pub fn decoder(&self) -> DecoderKind {
        match self {
            Archive::Field(c) => c.decoder(),
            Archive::Payload { decoder, .. } => *decoder,
        }
    }

    /// The Huffman payload.
    pub fn payload(&self) -> &CompressedPayload {
        match self {
            Archive::Field(c) => &c.payload,
            Archive::Payload { payload, .. } => payload,
        }
    }

    /// The field compression, if this is a field archive.
    pub fn into_field(self) -> Option<Compressed> {
        match self {
            Archive::Field(c) => Some(c),
            Archive::Payload { .. } => None,
        }
    }
}

/// Streaming archive writer. The format version is a property of the writer: what it
/// writes is `HFZ1` or `HFZ2` throughout, except that hybrid payloads — which exist
/// only in v2 — upgrade their own archive (and the snapshot holding them).
#[derive(Debug)]
pub struct ArchiveWriter<W: Write> {
    inner: W,
    version: FormatVersion,
}

impl<W: Write> ArchiveWriter<W> {
    /// Wraps a sink, writing format v1 (byte-identical to what this crate always
    /// produced).
    pub fn new(inner: W) -> Self {
        ArchiveWriter::with_version(inner, FormatVersion::V1)
    }

    /// Wraps a sink, writing `version`.
    pub fn with_version(inner: W, version: FormatVersion) -> Self {
        ArchiveWriter { inner, version }
    }

    /// Writes one framed section; returns the bytes written.
    fn section(&mut self, kind: SectionKind, payload: &[u8]) -> Result<u64> {
        write_section(&mut self.inner, kind, payload)
    }

    /// The wire version an archive of `payload` is written as.
    fn version_for(&self, payload: &CompressedPayload) -> u16 {
        self.version
            .max(FormatVersion::lowest_for(payload.layout()))
            .number()
    }

    /// Writes one full field archive; returns its size in bytes. A field that fails
    /// [`Compressed::check_structure`] is refused before any byte is written.
    pub fn write_compressed(&mut self, compressed: &Compressed) -> Result<u64> {
        self.write_field(compressed, None)
    }

    /// [`ArchiveWriter::write_compressed`] as a snapshot shard: dense codebooks that
    /// `dict` holds are written as references into it.
    fn write_field(&mut self, compressed: &Compressed, dict: Option<&CodebookDict>) -> Result<u64> {
        compressed.check_structure().map_err(invalid)?;
        let meta = FieldMeta {
            error_bound: compressed.config.error_bound,
            step: compressed.step,
            dims: compressed.dims,
        };
        let header = Header {
            version: self.version_for(&compressed.payload),
            decoder: compressed.decoder(),
            alphabet_size: compressed.alphabet_size() as u32,
            field: Some(meta),
        };
        let mut total = self.write_header_and_payload(&header, &compressed.payload, dict)?;
        total += self.section(
            SectionKind::Outliers,
            &codec::encode_outliers(&compressed.outliers),
        )?;
        if let Some(crc) = compressed.decoded_crc {
            total += self.section(
                SectionKind::DecodedCrc,
                &codec::encode_decoded_crc(compressed.payload.num_symbols() as u64, crc),
            )?;
        }
        total += self.section(SectionKind::End, &[])?;
        Ok(total)
    }

    /// Writes one payload-only archive; returns its size in bytes.
    ///
    /// `decoder` must match the payload's stream format (the payload alone cannot
    /// distinguish the two self-synchronization decoders). A payload that fails
    /// [`CompressedPayload::check_structure`] is refused before any byte is written.
    pub fn write_payload(
        &mut self,
        payload: &CompressedPayload,
        decoder: DecoderKind,
    ) -> Result<u64> {
        payload.check_structure().map_err(invalid)?;
        let header = Header {
            version: self.version_for(payload),
            decoder,
            alphabet_size: payload.alphabet_size() as u32,
            field: None,
        };
        let mut total = self.write_header_and_payload(&header, payload, None)?;
        total += self.section(SectionKind::End, &[])?;
        Ok(total)
    }

    fn write_header_and_payload(
        &mut self,
        header: &Header,
        payload: &CompressedPayload,
        dict: Option<&CodebookDict>,
    ) -> Result<u64> {
        // Refuse to write anything the reader would reject, so a write-then-read never
        // fails. The caller ran the structure rule; the header's rules are the reader's
        // own `Header::decode`, run on the bytes about to be written, and assembly reads
        // the decoder's stream layout.
        let header_bytes = header.encode_with_crc();
        Header::decode_with_crc(&header_bytes)?;
        if header.decoder.layout() != payload.layout() {
            return Err(invalid("payload stream format does not match the decoder"));
        }

        self.inner.write_all(&header_bytes)?;
        let mut total = HEADER_WIRE_BYTES as u64;
        match payload {
            CompressedPayload::Chunked { encoded, codebook } => {
                total += self.write_codebook_or_ref(header, codebook, dict)?;
                total += self.section(
                    SectionKind::ChunkedStream,
                    &codec::encode_chunked_stream(encoded),
                )?;
            }
            CompressedPayload::Flat(stream) => {
                total += self.write_codebook_or_ref(header, &stream.codebook, dict)?;
                total +=
                    self.section(SectionKind::FlatStream, &codec::encode_flat_stream(stream))?;
                if let Some(gap) = &stream.gap_array {
                    total += self.section(SectionKind::GapArray, &codec::encode_gap_array(gap))?;
                }
            }
            CompressedPayload::Hybrid(hybrid) => {
                // Both substream codebooks live inline inside the hybrid section; the
                // snapshot dictionary covers only dense codebooks.
                total += self.section(
                    SectionKind::HybridStream,
                    &codec::encode_hybrid_stream(hybrid),
                )?;
            }
        }
        Ok(total)
    }

    /// Writes a dense archive's codebook: a 4-byte dictionary reference when the
    /// snapshot dictionary holds an identical entry (format v2 only), the inline
    /// codebook section otherwise.
    fn write_codebook_or_ref(
        &mut self,
        header: &Header,
        codebook: &Codebook,
        dict: Option<&CodebookDict>,
    ) -> Result<u64> {
        if header.version >= FORMAT_VERSION_V2 {
            if let Some(id) = dict.and_then(|d| d.find(codebook)) {
                return self.section(SectionKind::CodebookRef, &codec::encode_codebook_ref(id));
            }
        }
        self.section(SectionKind::Codebook, &codec::encode_codebook(codebook))
    }

    /// Writes a snapshot-manifest section. Only valid at the very start of a file,
    /// before any archive (readers reject a manifest anywhere else).
    pub fn write_manifest(&mut self, manifest: &SnapshotManifest) -> Result<u64> {
        self.section(SectionKind::Manifest, &codec::encode_manifest(manifest))
    }

    /// Writes a whole snapshot: a manifest section indexing every field, followed by
    /// each field's archive as a contiguous shard. Returns the total bytes written.
    ///
    /// Field names must be unique and non-empty; each field's shard decodes exactly like
    /// the standalone archive [`ArchiveWriter::write_compressed`] would produce.
    ///
    /// A v1 writer holding only dense fields writes `[manifest] [shards…]`. A v2 writer
    /// — or any snapshot containing a hybrid field — writes the v2 layout `[manifest]
    /// [codebook dictionary] [tuning hints] [shards…]`: dense fields' identical
    /// codebooks are deduplicated into the snapshot-level dictionary and their shards
    /// carry 4-byte references instead (hybrid fields keep their codebooks inline in
    /// the hybrid-stream section), and the tuning-hints section records an advisory
    /// shared-memory decode-buffer size for each decoder the snapshot uses (the
    /// quantity Algorithm 2 tunes online).
    pub fn write_snapshot(&mut self, fields: &[(&str, &Compressed)]) -> Result<u64> {
        let version = fields
            .iter()
            .map(|(_, c)| FormatVersion::lowest_for(c.decoder().layout()))
            .fold(self.version, FormatVersion::max);
        let mut dict = None;
        let mut hints: Vec<TuningHint> = Vec::new();
        if version == FormatVersion::V2 {
            dict = CodebookDict::dedup(fields.iter().filter_map(|(_, c)| match &c.payload {
                CompressedPayload::Chunked { codebook, .. } => Some(codebook),
                CompressedPayload::Flat(stream) => Some(&stream.codebook),
                CompressedPayload::Hybrid(_) => None,
            }));
            for (_, c) in fields {
                let decoder = c.decoder();
                if !hints.iter().any(|h| h.decoder == decoder) {
                    hints.push(TuningHint {
                        decoder,
                        buffer_symbols: huffdec_core::HIGH_CR_BUFFER_SYMBOLS,
                    });
                }
            }
        }
        // The manifest leads the file but records every shard's extent, so the shards
        // (each a standalone archive at `version`) are written to a buffer first.
        let mut shards = ArchiveWriter::with_version(Vec::new(), version);
        let mut entries = Vec::with_capacity(fields.len());
        let mut offset = 0u64;
        for (name, compressed) in fields {
            let length = shards.write_field(compressed, dict.as_ref())?;
            entries.push(ManifestEntry {
                name: name.to_string(),
                offset,
                length,
                decoder: compressed.decoder(),
                alphabet_size: compressed.alphabet_size() as u32,
                num_symbols: compressed.payload.num_symbols() as u64,
                dims: Some(compressed.dims),
                decoded_crc: compressed.decoded_crc,
            });
            offset += length;
        }
        let mut total = self.write_manifest(&SnapshotManifest::new(entries)?)?;
        if let Some(dict) = &dict {
            total += self.section(
                SectionKind::CodebookDict,
                &codec::encode_codebook_dict(dict),
            )?;
        }
        if !hints.is_empty() {
            total += self.section(
                SectionKind::TuningHints,
                &codec::encode_tuning_hints(&TuningHints::new(hints)?),
            )?;
        }
        self.inner.write_all(&shards.inner)?;
        Ok(total + offset)
    }

    /// Flushes and returns the underlying sink.
    pub fn into_inner(mut self) -> Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Streaming archive reader over a byte slice.
#[derive(Debug)]
pub struct ArchiveReader<'a> {
    inner: &'a [u8],
}

impl<'a> ArchiveReader<'a> {
    /// Wraps a source.
    pub fn new(inner: &'a [u8]) -> Self {
        ArchiveReader { inner }
    }

    /// Reads, checksums, validates, and reassembles exactly one archive.
    ///
    /// Archives whose codebook is a dictionary reference (format-v2 snapshot shards)
    /// need the snapshot's dictionary — read those through the [`Snapshot`] API, which
    /// owns it.
    pub fn read_archive(&mut self) -> Result<Archive> {
        assemble(&walk_archive(&mut self.inner)?, None)
    }

    /// Returns what is left of the source.
    pub fn into_inner(self) -> &'a [u8] {
        self.inner
    }
}

/// Reassembles the decoder structures from a walked archive's section table. The walk
/// settled framing and the header; here the header's stream layout decides which
/// sections are allowed and which required, each section is parsed, and the assembled
/// field ([`Compressed::check_structure`]) or payload
/// ([`CompressedPayload::check_structure`]) is checked by the rule the writer ran.
/// Codebook-reference sections resolve against `dict`, the owning snapshot's dictionary.
fn assemble(walk: &ArchiveWalk<'_>, dict: Option<&CodebookDict>) -> Result<Archive> {
    use SectionKind::{ChunkedStream, Codebook, CodebookRef, FlatStream, GapArray, HybridStream};
    let header = &walk.header;
    let decoder = header.decoder;
    // Each layout's arm checks every section against its payload sections before any is
    // parsed.
    let only = |payload: &[SectionKind]| {
        let field = |kind| matches!(kind, SectionKind::Outliers | SectionKind::DecodedCrc);
        let allowed = |kind| payload.contains(&kind) || (field(kind) && header.field.is_some());
        match walk.sections.iter().find(|(kind, _)| !allowed(*kind)) {
            Some(&(section, _)) => Err(ContainerError::UnexpectedSection { section }),
            None => Ok(()),
        }
    };
    let require = |section: SectionKind| {
        walk.section(section)
            .ok_or(ContainerError::MissingSection { section })
    };

    let payload = match decoder.layout() {
        StreamLayout::Chunked => {
            only(&[Codebook, CodebookRef, ChunkedStream])?;
            let codebook = dense_codebook(walk, dict)?;
            let encoded = codec::parse_chunked_stream(require(ChunkedStream)?)?;
            CompressedPayload::Chunked { encoded, codebook }
        }
        layout @ (StreamLayout::Flat | StreamLayout::FlatWithGaps) => {
            let gaps = layout == StreamLayout::FlatWithGaps;
            only(if gaps {
                &[Codebook, CodebookRef, FlatStream, GapArray]
            } else {
                &[Codebook, CodebookRef, FlatStream]
            })?;
            let codebook = dense_codebook(walk, dict)?;
            let mut stream = codec::parse_flat_stream(require(FlatStream)?, codebook)?;
            stream.gap_array = gaps
                .then(|| require(GapArray).and_then(codec::parse_gap_array))
                .transpose()?;
            CompressedPayload::Flat(stream)
        }
        StreamLayout::Hybrid => {
            only(&[HybridStream])?;
            CompressedPayload::Hybrid(codec::parse_hybrid_stream(
                require(HybridStream)?,
                header.alphabet_size,
            )?)
        }
    };

    match header.field {
        Some(meta) => {
            let outliers = codec::parse_outliers(require(SectionKind::Outliers)?)?;
            let decoded_crc = walk
                .section(SectionKind::DecodedCrc)
                .map(|p| codec::parse_decoded_crc(p, payload.num_symbols() as u64))
                .transpose()?;
            let config = SzConfig {
                error_bound: meta.error_bound,
                alphabet_size: header.alphabet_size as usize,
                decoder,
            };
            let compressed = Compressed {
                payload,
                outliers,
                dims: meta.dims,
                step: meta.step,
                config,
                decoded_crc,
            };
            compressed.check_structure().map_err(invalid)?;
            Ok(Archive::Field(compressed))
        }
        None => {
            payload.check_structure().map_err(invalid)?;
            Ok(Archive::Payload {
                payload,
                decoder,
                alphabet_size: header.alphabet_size as usize,
            })
        }
    }
}

/// The codebook of a dense archive: its inline codebook section, or the entry of
/// `dict` its codebook-reference section names.
fn dense_codebook(walk: &ArchiveWalk<'_>, dict: Option<&CodebookDict>) -> Result<Codebook> {
    let alphabet_size = walk.header.alphabet_size;
    match (
        walk.section(SectionKind::Codebook),
        walk.section(SectionKind::CodebookRef),
    ) {
        (Some(_), Some(_)) => Err(invalid(
            "both an inline codebook and a dictionary reference",
        )),
        (Some(inline), None) => codec::parse_codebook(inline, alphabet_size),
        (None, Some(reference)) => {
            let id = codec::parse_codebook_ref(reference)?;
            let dict = dict.ok_or(invalid(
                "codebook reference outside a snapshot with a dictionary",
            ))?;
            let entry = dict
                .get(id)
                .ok_or(invalid("dangling codebook dictionary id"))?;
            if entry.alphabet_size() != alphabet_size as usize {
                return Err(invalid(
                    "dictionary codebook alphabet disagrees with the header",
                ));
            }
            Ok(entry.clone())
        }
        (None, None) => Err(ContainerError::MissingSection {
            section: SectionKind::Codebook,
        }),
    }
}

/// Serializes a field compression into a standalone `HFZ1` archive buffer (hybrid
/// payloads upgrade themselves to `HFZ2`).
pub fn to_bytes(compressed: &Compressed) -> Result<Vec<u8>> {
    to_bytes_as(compressed, FormatVersion::V1)
}

/// Serializes a field compression into a standalone archive buffer of `version`.
pub fn to_bytes_as(compressed: &Compressed, version: FormatVersion) -> Result<Vec<u8>> {
    let mut writer = ArchiveWriter::with_version(Vec::new(), version);
    writer.write_compressed(compressed)?;
    writer.into_inner()
}

/// Reads one archive from a buffer, requiring it to be a field archive and to contain
/// nothing else.
pub fn from_bytes(bytes: &[u8]) -> Result<Compressed> {
    match read_one_archive(bytes)? {
        Archive::Field(c) => Ok(c),
        Archive::Payload { .. } => Err(invalid("expected a field archive, found payload-only")),
    }
}

/// Serializes a bare Huffman payload into a standalone archive buffer.
pub fn payload_to_bytes(payload: &CompressedPayload, decoder: DecoderKind) -> Result<Vec<u8>> {
    let mut writer = ArchiveWriter::new(Vec::new());
    writer.write_payload(payload, decoder)?;
    writer.into_inner()
}

/// Reads one archive of either kind from a buffer, rejecting trailing bytes.
pub fn read_one_archive(bytes: &[u8]) -> Result<Archive> {
    Ok(read_whole(bytes, None)?.1)
}

/// Walks and assembles the archive that fills `bytes` exactly.
fn read_whole<'a>(
    bytes: &'a [u8],
    dict: Option<&CodebookDict>,
) -> Result<(ArchiveWalk<'a>, Archive)> {
    let mut rest = bytes;
    let walk = walk_archive(&mut rest)?;
    if !rest.is_empty() {
        return Err(invalid("trailing bytes after the archive"));
    }
    let archive = assemble(&walk, dict)?;
    Ok((walk, archive))
}

/// Parses every archive concatenated in `bytes`, pairing each reassembled [`Archive`]
/// with its structural summary ([`ArchiveInfo`]: header fields, section table, stored
/// sizes), both taken from one walk of the archive.
///
/// This is the load-time path for long-running consumers of manifest-less files: the
/// `hfzd` daemon calls it once when an archive file is loaded and keeps the results in
/// memory, so *serving a request* never re-parses (or re-checksums) the file. An empty
/// input yields an empty vector; any corruption anywhere in the file fails the whole
/// load.
pub fn read_archives_with_info(bytes: &[u8]) -> Result<Vec<(ArchiveInfo, Archive)>> {
    let mut remaining = bytes;
    let mut out = Vec::new();
    while !remaining.is_empty() {
        let walk = walk_archive(&mut remaining)?;
        let archive = assemble(&walk, None)?;
        out.push((walk.info()?, archive));
    }
    Ok(out)
}

/// Serializes a snapshot — a manifest section plus one shard per named field — into a
/// standalone `HFZ1` buffer (a hybrid field upgrades the snapshot to `HFZ2`). See
/// [`ArchiveWriter::write_snapshot`].
pub fn snapshot_to_bytes(fields: &[(&str, &Compressed)]) -> Result<Vec<u8>> {
    snapshot_to_bytes_as(fields, FormatVersion::V1)
}

/// [`snapshot_to_bytes_as`] at [`FormatVersion::V2`].
pub fn snapshot_to_bytes_v2(fields: &[(&str, &Compressed)]) -> Result<Vec<u8>> {
    snapshot_to_bytes_as(fields, FormatVersion::V2)
}

/// Serializes a snapshot of `version` into a standalone buffer. See
/// [`ArchiveWriter::write_snapshot`].
pub fn snapshot_to_bytes_as(
    fields: &[(&str, &Compressed)],
    version: FormatVersion,
) -> Result<Vec<u8>> {
    let mut writer = ArchiveWriter::with_version(Vec::new(), version);
    writer.write_snapshot(fields)?;
    writer.into_inner()
}

/// A parsed view of a snapshot (or plain concatenated) archive buffer.
///
/// When the file leads with a manifest section, field reads **seek**: a
/// [`Snapshot::read_field`] slices the named shard directly and parses only that
/// archive. Manifest-less files (everything written before the manifest existed) still
/// read — field access falls back to the sequential scan the streaming reader always
/// supported, and name-based access reports a typed error.
#[derive(Debug)]
pub struct Snapshot<'a> {
    manifest: Option<SnapshotManifest>,
    /// Format-v2 prologue: the shared codebook dictionary shard codebook-reference
    /// sections resolve against.
    dict: Option<CodebookDict>,
    /// The archive region: everything after the prologue sections (the whole buffer for
    /// manifest-less files).
    shards: &'a [u8],
}

impl<'a> Snapshot<'a> {
    /// Parses the prologue — the manifest plus, for format-v2 snapshots, the codebook
    /// dictionary and tuning-hints sections (verifying framing and checksums) — and
    /// validates the manifest's shard extents against the actual file size. The shards
    /// themselves are *not* parsed — that is the point of the manifest.
    pub fn parse(bytes: &'a [u8]) -> Result<Snapshot<'a>> {
        let mut cursor = bytes;
        let Some(manifest) = prologue_section(&mut cursor, SectionKind::Manifest)? else {
            if SectionKind::CodebookDict.leads(bytes) || SectionKind::TuningHints.leads(bytes) {
                return Err(invalid("format v2 prologue section without a manifest"));
            }
            return Ok(Snapshot {
                manifest: None,
                dict: None,
                shards: bytes,
            });
        };
        let manifest = codec::parse_manifest(manifest)?;
        let dict = prologue_section(&mut cursor, SectionKind::CodebookDict)?
            .map(codec::parse_codebook_dict)
            .transpose()?;
        // The tuning hints are advisory: validated, then not kept.
        prologue_section(&mut cursor, SectionKind::TuningHints)?
            .map(codec::parse_tuning_hints)
            .transpose()?;
        // Every shard must lie inside the file, and the shards must cover it exactly —
        // a manifest pointing past EOF (truncated file, corrupted length) is corruption.
        if manifest.shard_bytes() != cursor.len() as u64 {
            return Err(invalid(
                "manifest shard extents disagree with the file size",
            ));
        }
        Ok(Snapshot {
            manifest: Some(manifest),
            dict,
            shards: cursor,
        })
    }

    /// The manifest, when the file carries one.
    pub fn manifest(&self) -> Option<&SnapshotManifest> {
        self.manifest.as_ref()
    }

    /// The shared codebook dictionary, when this is a format-v2 snapshot that carries
    /// one.
    pub fn codebook_dict(&self) -> Option<&CodebookDict> {
        self.dict.as_ref()
    }

    /// The archive region (everything after the manifest section). Sequential
    /// consumers — `hfz verify`, the structural inspection walk — read from here.
    pub fn archive_bytes(&self) -> &'a [u8] {
        self.shards
    }

    /// Number of fields. Manifest-backed snapshots answer from the index; plain files
    /// pay one structural scan.
    pub fn field_count(&self) -> Result<usize> {
        if let Some(m) = &self.manifest {
            return Ok(m.len());
        }
        let mut rest = self.shards;
        let mut count = 0;
        while !rest.is_empty() {
            crate::inspect::read_info(&mut rest)?;
            count += 1;
        }
        Ok(count)
    }

    /// Reads field `index`, seeking via the manifest when present (sequential scan
    /// otherwise). The reassembled archive is cross-checked against the manifest entry.
    pub fn read_field(&self, index: usize) -> Result<Archive> {
        let not_found = || ContainerError::FieldNotFound {
            name: format!("#{}", index),
        };
        match &self.manifest {
            Some(manifest) => {
                let entry = manifest.entries().get(index).ok_or_else(not_found)?;
                Ok(self.read_shard(entry)?.1)
            }
            None => {
                // Sequential scan. Running out of archives at a clean boundary is a
                // missing field; an error *inside* an archive is genuine corruption
                // and propagates as such.
                let mut reader = ArchiveReader::new(self.shards);
                let mut seen = 0;
                loop {
                    if reader.inner.is_empty() {
                        return Err(not_found());
                    }
                    let archive = reader.read_archive()?;
                    if seen == index {
                        return Ok(archive);
                    }
                    seen += 1;
                }
            }
        }
    }

    /// Reads a field by its manifest name. Manifest-less files report a typed error —
    /// they carry no names to look up.
    pub fn read_field_by_name(&self, name: &str) -> Result<Archive> {
        let manifest = self.manifest.as_ref().ok_or(invalid(
            "archive carries no snapshot manifest; address fields by index",
        ))?;
        let (_, entry) = manifest
            .find(name)
            .ok_or_else(|| ContainerError::FieldNotFound {
                name: name.to_string(),
            })?;
        Ok(self.read_shard(entry)?.1)
    }

    /// The one way a manifest entry's shard is read, by the seek path and the load path
    /// alike: slice by the extent `parse` validated, walk it once (it must hold exactly
    /// one archive), and cross-check the index against what the shard actually holds —
    /// a manifest that disagrees with its shards must never be trusted for decode
    /// planning.
    fn read_shard(&self, entry: &ManifestEntry) -> Result<(ArchiveInfo, Archive)> {
        let lo = entry.offset as usize;
        let hi = (entry.offset + entry.length) as usize;
        let (walk, archive) = read_whole(&self.shards[lo..hi], self.dict.as_ref())?;
        let info = walk.info()?;
        let matches = info.decoder == entry.decoder
            && info.alphabet_size == entry.alphabet_size
            && info.num_symbols == entry.num_symbols
            && info.field.map(|meta| meta.dims) == entry.dims
            && info.decoded_crc == entry.decoded_crc;
        if !matches {
            return Err(invalid("manifest entry disagrees with its shard"));
        }
        Ok((info, archive))
    }
}

/// Reads the prologue section `kind` off the front of `cursor` when its frame leads
/// there; `None` (and `cursor` untouched) when something else does.
fn prologue_section<'a>(cursor: &mut &'a [u8], kind: SectionKind) -> Result<Option<&'a [u8]>> {
    if !kind.leads(cursor) {
        return Ok(None);
    }
    match next_section(cursor)? {
        (found, payload) if found == kind => Ok(Some(payload)),
        _ => Err(invalid("snapshot prologue section out of place")),
    }
}

/// Parses a whole snapshot file for long-running consumers (the daemon's load path):
/// the optional manifest plus every field's `(ArchiveInfo, Archive)` pair, in shard
/// order. Manifest-backed files read each entry's shard exactly as
/// [`Snapshot::read_field`] does, cross-check included; manifest-less files are walked
/// sequentially ([`read_archives_with_info`]).
#[allow(clippy::type_complexity)]
pub fn read_snapshot_with_info(
    bytes: &[u8],
) -> Result<(Option<SnapshotManifest>, Vec<(ArchiveInfo, Archive)>)> {
    let snapshot = Snapshot::parse(bytes)?;
    let fields = match snapshot.manifest() {
        Some(manifest) => manifest
            .entries()
            .iter()
            .map(|entry| snapshot.read_shard(entry))
            .collect::<Result<_>>()?,
        None => read_archives_with_info(snapshot.archive_bytes())?,
    };
    Ok((snapshot.manifest, fields))
}
