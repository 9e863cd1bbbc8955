//! Snapshot manifests: the index that turns a concatenated archive file into a
//! seekable, sharded snapshot.
//!
//! The paper's workloads (HACC, GAMESS, QMCPACK) are many-field datasets; a *snapshot
//! archive* packs every field of one snapshot into a single file. Without a manifest,
//! readers must walk the archives sequentially (each `read_archive` consumes one) to
//! reach field *k*. The manifest fixes that: a [`SectionKind::Manifest`] section at the
//! very start of the file records, for every field, its **name**, its **shard** (byte
//! offset and length of its archive, relative to the first byte after the manifest
//! section), and enough decode metadata (decoder kind, alphabet, symbol count, field
//! dimensions, decoded-stream CRC) to plan a batch decode without touching the shards.
//!
//! ```text
//! snapshot file = [manifest section (framed, CRC32)] [archive 0] [archive 1] ...
//! plain file    =                                    [archive 0] [archive 1] ...
//! ```
//!
//! The two layouts are distinguishable from the first bytes (an archive starts with the
//! `HFZ1` magic; a manifest section starts with tag 7 and three zero reserved bytes),
//! so manifest-less files keep reading exactly as before. Shards must tile the region
//! after the manifest contiguously, mirroring the chunked-stream validation: the parser
//! rejects gaps, overlaps, duplicate names, and shard extents past the end of the file.

use std::collections::HashSet;

use datasets::Dims;
use huffdec_core::DecoderKind;

use crate::error::{invalid, Result};
use crate::json::JsonWriter;
use crate::section::SectionKind;

/// One field of a snapshot, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Field name (unique within the snapshot, non-empty).
    pub name: String,
    /// Byte offset of the field's archive, relative to the first byte after the
    /// manifest section.
    pub offset: u64,
    /// Stored size of the field's archive in bytes.
    pub length: u64,
    /// The decoder the field's stream format targets.
    pub decoder: DecoderKind,
    /// Quantization alphabet size.
    pub alphabet_size: u32,
    /// Number of encoded symbols.
    pub num_symbols: u64,
    /// Field dimensions (`None` for payload-only archives).
    pub dims: Option<Dims>,
    /// CRC32 over the decoded symbol stream, when the field archive carries the
    /// decoded-CRC trailer.
    pub decoded_crc: Option<u32>,
}

/// The validated index of a snapshot archive: every field's shard and decode metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotManifest {
    entries: Vec<ManifestEntry>,
}

impl SnapshotManifest {
    /// Validates and wraps a set of entries. Shards must tile the post-manifest region
    /// contiguously starting at offset 0, names must be unique and non-empty, and every
    /// shard must be non-empty — the invariants seeks rely on.
    pub fn new(entries: Vec<ManifestEntry>) -> Result<SnapshotManifest> {
        if entries.is_empty() {
            return Err(invalid("snapshot manifest with no fields"));
        }
        let mut names = HashSet::new();
        let mut expected_offset = 0u64;
        for entry in &entries {
            if entry.name.is_empty() {
                return Err(invalid("empty field name in the snapshot manifest"));
            }
            if entry.name.len() > u16::MAX as usize {
                return Err(invalid("field name exceeds the wire limit"));
            }
            // Names are used as path components by extraction tooling (`hfz decompress
            // --all` writes `<dir>/<name>.f32`), so the format forbids anything that
            // could escape a directory: separators, NUL, and dot-only names.
            if entry.name.contains(['/', '\\', '\0']) || entry.name == "." || entry.name == ".." {
                return Err(invalid("field name contains path components"));
            }
            if !names.insert(entry.name.as_str()) {
                return Err(invalid("duplicate field name in the snapshot manifest"));
            }
            if entry.offset != expected_offset {
                return Err(invalid("manifest shards do not tile the snapshot"));
            }
            if entry.length == 0 {
                return Err(invalid("zero-length shard in the snapshot manifest"));
            }
            expected_offset = expected_offset
                .checked_add(entry.length)
                .ok_or_else(|| invalid("manifest shard extents overflow"))?;
        }
        Ok(SnapshotManifest { entries })
    }

    /// The fields, in shard order.
    pub fn entries(&self) -> &[ManifestEntry] {
        &self.entries
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the manifest has no fields (never constructible via [`Self::new`]).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finds a field by name.
    pub fn find(&self, name: &str) -> Option<(usize, &ManifestEntry)> {
        self.entries
            .iter()
            .enumerate()
            .find(|(_, e)| e.name == name)
    }

    /// The field names, in shard order — the identity a placement layer hashes on
    /// (`archive/field` → shard), so routing stays stable however the daemon indexes
    /// the fields internally.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.name.as_str())
    }

    /// Total bytes of the shard region the manifest describes (offsets tile, so this is
    /// the last shard's end).
    pub fn shard_bytes(&self) -> u64 {
        self.entries
            .last()
            .map(|e| e.offset + e.length)
            .unwrap_or(0)
    }

    /// Renders the manifest as a JSON object (`hfz inspect --json` wraps it with the
    /// snapshot's archives).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(128 + self.entries.len() * 160);
        w.begin_object();
        w.key("fields").u64(self.entries.len() as u64);
        w.key("shard_bytes").u64(self.shard_bytes());
        w.key("entries").begin_array();
        for e in &self.entries {
            w.begin_object();
            w.key("name").str(&e.name);
            w.key("offset").u64(e.offset);
            w.key("length").u64(e.length);
            w.key("decoder").str(e.decoder.name());
            w.key("decoder_tag").u64(e.decoder.tag() as u64);
            w.key("alphabet_size").u64(e.alphabet_size as u64);
            w.key("num_symbols").u64(e.num_symbols);
            w.key("dims");
            match &e.dims {
                Some(d) => {
                    w.begin_array();
                    for x in d.as_vec() {
                        w.u64(x as u64);
                    }
                    w.end_array()
                }
                None => w.null(),
            };
            w.key("decoded_crc");
            match e.decoded_crc {
                Some(c) => w.u64(c as u64),
                None => w.null(),
            };
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

impl std::fmt::Display for SnapshotManifest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "snapshot manifest: {} fields, {} shard bytes",
            self.len(),
            self.shard_bytes()
        )?;
        for (i, e) in self.entries.iter().enumerate() {
            let dims = match &e.dims {
                Some(d) => d
                    .as_vec()
                    .iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join("x"),
                None => "payload-only".to_string(),
            };
            write!(
                f,
                "  [{}] {:<16} offset {:>10}  {:>10} bytes  {}  {} symbols  dims {}",
                i,
                e.name,
                e.offset,
                e.length,
                e.decoder.name(),
                e.num_symbols,
                dims
            )?;
            if i + 1 < self.entries.len() {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// True when `bytes` starts with a manifest section rather than an archive header.
///
/// An archive opens with the `HFZ1` magic; a manifest section frame opens with the
/// manifest tag byte followed by three zero reserved bytes — the two never collide.
pub fn manifest_leads(bytes: &[u8]) -> bool {
    SectionKind::Manifest.leads(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, offset: u64, length: u64) -> ManifestEntry {
        ManifestEntry {
            name: name.to_string(),
            offset,
            length,
            decoder: DecoderKind::OptimizedGapArray,
            alphabet_size: 1024,
            num_symbols: 1000,
            dims: Some(Dims::D1(1000)),
            decoded_crc: Some(0xDEAD_BEEF),
        }
    }

    #[test]
    fn valid_manifest_roundtrips_metadata() {
        let m = SnapshotManifest::new(vec![entry("a", 0, 10), entry("b", 10, 20)]).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.shard_bytes(), 30);
        assert_eq!(m.find("b").unwrap().0, 1);
        assert!(m.find("missing").is_none());
        assert_eq!(m.names().collect::<Vec<_>>(), ["a", "b"]);
        let json = m.to_json();
        assert!(json.contains("\"name\":\"a\""));
        assert!(json.contains("\"shard_bytes\":30"));
        assert!(m.to_string().contains("2 fields"));
    }

    #[test]
    fn invalid_manifests_rejected() {
        assert!(SnapshotManifest::new(vec![]).is_err());
        // Duplicate names.
        assert!(SnapshotManifest::new(vec![entry("a", 0, 10), entry("a", 10, 10)]).is_err());
        // Empty name.
        assert!(SnapshotManifest::new(vec![entry("", 0, 10)]).is_err());
        // Gap between shards.
        assert!(SnapshotManifest::new(vec![entry("a", 0, 10), entry("b", 11, 10)]).is_err());
        // First shard not at offset 0.
        assert!(SnapshotManifest::new(vec![entry("a", 1, 10)]).is_err());
        // Zero-length shard.
        assert!(SnapshotManifest::new(vec![entry("a", 0, 0)]).is_err());
        // Path-escaping names (zip-slip): separators and dot-only names are rejected,
        // so `--all` extraction can never write outside its output directory.
        for name in ["../evil", "a/b", "a\\b", ".", "..", "nul\0byte"] {
            assert!(
                SnapshotManifest::new(vec![entry(name, 0, 10)]).is_err(),
                "name {:?} must be rejected",
                name
            );
        }
    }

    #[test]
    fn manifest_lead_detection() {
        assert!(manifest_leads(&[7, 0, 0, 0, 1, 2]));
        assert!(!manifest_leads(b"HFZ1rest"));
        assert!(!manifest_leads(&[7, 0, 1, 0]));
        assert!(!manifest_leads(&[7, 0]));
    }
}
