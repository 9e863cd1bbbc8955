//! The structural walk every reader shares, and the archive summary computed from it.
//!
//! `walk_archive` is the one place an archive's bytes are framed, checksummed and
//! structurally checked: it reads the header, then every section through
//! [`next_section`] up to the end marker, and yields the header plus the table of
//! borrowed section payloads. [`read_info`] (`hfz inspect`, `hfz verify`) summarises
//! that table; the archive readers assemble the decoder structures from the same table,
//! so `inspect` and `open` cannot disagree on what a well-formed archive is.
//!
//! Which rule lives where:
//!
//! * **The walk** (so `inspect` and `open` alike): header magic, version and CRC; each
//!   section's frame, length and CRC; a snapshot prologue section (manifest, codebook
//!   dictionary, tuning hints) inside an archive; a format-v2 section in a version-1
//!   archive; an end marker that carries a payload; a section stored twice.
//! * **The summary** ([`read_info`] and the load path): a stream section must exist,
//!   because the symbol count is read from it.
//! * **Assembly** (`open` only, in [`crate::archive`]): which sections the header's
//!   decoder kind allows and requires, and everything inside a payload — codebooks and
//!   dictionary references as they are parsed, then stream geometry, tiling and
//!   outliers by the assembled field's own rule (`sz::Compressed::check_structure`),
//!   which the writer runs too.

use std::fmt;

use huffdec_core::DecoderKind;

use crate::error::{invalid, ContainerError, Result};
use crate::header::{FieldMeta, Header, FORMAT_VERSION_V2, HEADER_WIRE_BYTES};
use crate::section::{next_section, take, SectionKind, CRC_BYTES, FRAME_BYTES};
use crate::wire::ByteCursor;

/// Size and identity of one section as stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// Which section.
    pub kind: SectionKind,
    /// Payload size in bytes (excluding the 16 bytes of framing and checksum).
    pub payload_bytes: u64,
}

impl SectionInfo {
    /// Total stored size including framing and checksum.
    pub fn stored_bytes(&self) -> u64 {
        self.payload_bytes + (FRAME_BYTES + CRC_BYTES) as u64
    }
}

/// Everything `hfz inspect` reports about an archive.
#[derive(Debug, Clone)]
pub struct ArchiveInfo {
    /// Container format version (1 for `HFZ1`, 2 for `HFZ2`).
    pub format_version: u16,
    /// The decoder the archive targets.
    pub decoder: DecoderKind,
    /// Quantization alphabet size.
    pub alphabet_size: u32,
    /// Field metadata, when present.
    pub field: Option<FieldMeta>,
    /// Sections in storage order (excluding the end marker).
    pub sections: Vec<SectionInfo>,
    /// Number of encoded symbols (from the stream section).
    pub num_symbols: u64,
    /// CRC32 over the decoded symbol stream, when the archive carries the optional
    /// decoded-CRC trailer (deep verification).
    pub decoded_crc: Option<u32>,
    /// Snapshot codebook-dictionary entry id, when the archive stores a codebook
    /// reference instead of an inline codebook (format-v2 snapshot shards).
    pub dict_id: Option<u32>,
    /// Total archive size in bytes, header and end marker included.
    pub total_bytes: u64,
}

impl ArchiveInfo {
    /// Uncompressed size of what the archive reconstructs: f32 elements for field
    /// archives, u16 quantization codes for payload-only archives.
    pub fn original_bytes(&self) -> u64 {
        match self.field {
            Some(meta) => meta.dims.len() as u64 * 4,
            None => self.num_symbols * 2,
        }
    }

    /// Overall compression ratio of the archive as stored.
    pub fn compression_ratio(&self) -> f64 {
        if self.total_bytes == 0 {
            return 0.0;
        }
        self.original_bytes() as f64 / self.total_bytes as f64
    }

    /// Renders the archive structure as a single JSON object — the machine-readable
    /// form behind `hfz inspect --json` and the daemon's `LIST` response, so tooling
    /// and tests can consume archive metadata without screen-scraping the human report.
    pub fn to_json(&self) -> String {
        let mut w = crate::json::JsonWriter::with_capacity(512);
        w.begin_object();
        w.key("format_version").u64(self.format_version as u64);
        w.key("total_bytes").u64(self.total_bytes);
        w.key("decoder").str(self.decoder.name());
        w.key("decoder_tag").u64(self.decoder.tag() as u64);
        w.key("alphabet_size").u64(self.alphabet_size as u64);
        w.key("num_symbols").u64(self.num_symbols);
        w.key("original_bytes").u64(self.original_bytes());
        w.key("compression_ratio")
            .f64_fixed(self.compression_ratio(), 6);
        match self.decoded_crc {
            Some(crc) => w.key("decoded_crc").u64(crc as u64),
            None => w.key("decoded_crc").null(),
        };
        match self.dict_id {
            Some(id) => w.key("dict_id").u64(id as u64),
            None => w.key("dict_id").null(),
        };
        match &self.field {
            Some(meta) => {
                let (mode, value) = meta.error_bound.wire_parts();
                let mode = if mode == 0 { "absolute" } else { "relative" };
                w.key("field").begin_object();
                w.key("dims").begin_array();
                for extent in meta.dims.as_vec() {
                    w.u64(extent as u64);
                }
                w.end_array();
                w.key("elements").u64(meta.dims.len() as u64);
                w.key("error_bound_mode").str(mode);
                w.key("error_bound").f64_sci(value);
                w.key("quant_step").f64_sci(meta.step);
                w.end_object();
            }
            None => {
                w.key("field").null();
            }
        }
        w.key("sections").begin_array();
        for sec in &self.sections {
            w.begin_object();
            w.key("kind").str(&sec.kind.to_string());
            w.key("payload_bytes").u64(sec.payload_bytes);
            w.key("stored_bytes").u64(sec.stored_bytes());
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

impl fmt::Display for ArchiveInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "HFZ{} archive, {} bytes",
            self.format_version, self.total_bytes
        )?;
        writeln!(f, "  decoder:       {}", self.decoder.name())?;
        writeln!(f, "  alphabet:      {} symbols", self.alphabet_size)?;
        writeln!(f, "  symbols:       {}", self.num_symbols)?;
        match &self.field {
            Some(meta) => {
                let dims = meta
                    .dims
                    .as_vec()
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join("x");
                writeln!(
                    f,
                    "  dims:          {} ({} elements)",
                    dims,
                    meta.dims.len()
                )?;
                let (mode, value) = meta.error_bound.wire_parts();
                let mode = if mode == 0 { "absolute" } else { "relative" };
                writeln!(f, "  error bound:   {} {:e}", mode, value)?;
                writeln!(f, "  quant step:    {:e}", meta.step)?;
            }
            None => writeln!(f, "  payload-only archive (no field metadata)")?,
        }
        if let Some(crc) = self.decoded_crc {
            writeln!(f, "  decoded crc:   {:08x}", crc)?;
        }
        if let Some(id) = self.dict_id {
            writeln!(f, "  codebook:      dictionary entry #{}", id)?;
        }
        writeln!(f, "  sections:")?;
        writeln!(
            f,
            "    {:<16} {:>12}  {:>7}",
            "header", HEADER_WIRE_BYTES, ""
        )?;
        for s in &self.sections {
            writeln!(
                f,
                "    {:<16} {:>12}  {:>6.2}%",
                s.kind.to_string(),
                s.stored_bytes(),
                100.0 * s.stored_bytes() as f64 / self.total_bytes as f64
            )?;
        }
        write!(
            f,
            "  compression:   {} -> {} bytes ({:.2}x)",
            self.original_bytes(),
            self.total_bytes,
            self.compression_ratio()
        )
    }
}

/// One archive as [`walk_archive`] found it: the decoded header and the section table,
/// payloads borrowed from the input.
#[derive(Debug)]
pub(crate) struct ArchiveWalk<'a> {
    pub(crate) header: Header,
    /// Sections in storage order, end marker excluded; no kind appears twice.
    pub(crate) sections: Vec<(SectionKind, &'a [u8])>,
    /// Bytes the archive occupies, header and end marker included.
    total_bytes: u64,
}

/// Walks the archive at the front of `input` — the only loop over archive sections in
/// this crate — and leaves `input` at the first byte after its end marker. The module
/// docs list the rules enforced here.
pub(crate) fn walk_archive<'a>(input: &mut &'a [u8]) -> Result<ArchiveWalk<'a>> {
    let before = input.len();
    let header_bytes = take(input, HEADER_WIRE_BYTES, "header")?;
    let header = Header::decode_with_crc(header_bytes.try_into().expect("header size"))?;
    let mut sections: Vec<(SectionKind, &'a [u8])> = Vec::new();
    loop {
        let (kind, payload) = next_section(input)?;
        if kind.requires_v2() && header.version < FORMAT_VERSION_V2 {
            return Err(invalid("format v2 section in a version-1 archive"));
        }
        match kind {
            SectionKind::Manifest | SectionKind::CodebookDict | SectionKind::TuningHints => {
                return Err(invalid("snapshot prologue section inside an archive"))
            }
            SectionKind::End if payload.is_empty() => break,
            SectionKind::End => return Err(invalid("end section carries a payload")),
            _ if sections.iter().any(|(seen, _)| *seen == kind) => {
                return Err(ContainerError::DuplicateSection { section: kind })
            }
            _ => sections.push((kind, payload)),
        }
    }
    Ok(ArchiveWalk {
        header,
        sections,
        total_bytes: (before - input.len()) as u64,
    })
}

impl<'a> ArchiveWalk<'a> {
    /// The payload of the `kind` section, when the archive stores one.
    pub(crate) fn section(&self, kind: SectionKind) -> Option<&'a [u8]> {
        self.sections
            .iter()
            .find(|(stored, _)| *stored == kind)
            .map(|(_, payload)| *payload)
    }

    /// The structural summary: header fields, section sizes, and the few payload words
    /// a summary needs (symbol count, decoded CRC, dictionary id), each at a fixed
    /// offset of its section layout.
    pub(crate) fn info(&self) -> Result<ArchiveInfo> {
        let mut num_symbols = None;
        let mut decoded_crc = None;
        let mut dict_id = None;
        for &(kind, payload) in &self.sections {
            match kind {
                // Both dense layouts lead with one u64 (bit length, chunk symbols).
                SectionKind::FlatStream | SectionKind::ChunkedStream => {
                    let mut c = ByteCursor::new(payload, "stream section");
                    let _leading = c.get_u64()?;
                    num_symbols = Some(c.get_u64()?);
                }
                SectionKind::HybridStream => {
                    let mut c = ByteCursor::new(payload, "hybrid-stream section");
                    num_symbols = Some(c.get_u64()?);
                }
                SectionKind::DecodedCrc => {
                    let mut c = ByteCursor::new(payload, "decoded-crc section");
                    let _covered_symbols = c.get_u64()?;
                    decoded_crc = Some(c.get_u32()?);
                }
                SectionKind::CodebookRef => {
                    dict_id = Some(crate::codec::parse_codebook_ref(payload)?);
                }
                _ => {}
            }
        }
        Ok(ArchiveInfo {
            format_version: self.header.version,
            decoder: self.header.decoder,
            alphabet_size: self.header.alphabet_size,
            field: self.header.field,
            sections: self
                .sections
                .iter()
                .map(|&(kind, payload)| SectionInfo {
                    kind,
                    payload_bytes: payload.len() as u64,
                })
                .collect(),
            num_symbols: num_symbols.ok_or(ContainerError::MissingSection {
                section: SectionKind::FlatStream,
            })?,
            decoded_crc,
            dict_id,
            total_bytes: self.total_bytes,
        })
    }
}

/// Walks the archive at the front of `input`, verifying framing, checksums and
/// structure, and reports its header and section table.
///
/// This performs the same walk as a full read but skips reassembling the codebook and
/// streams, so it is cheap. `input` is left at the first byte after the archive.
pub fn read_info(input: &mut &[u8]) -> Result<ArchiveInfo> {
    walk_archive(input)?.info()
}
