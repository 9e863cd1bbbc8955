//! Length-prefixed, CRC32-checksummed section framing.
//!
//! After the fixed header, an archive is a sequence of sections, each framed as:
//!
//! | size | field |
//! |-----:|-------|
//! | 1    | section tag ([`SectionKind`]) |
//! | 3    | reserved (zero) |
//! | 8    | payload length in bytes (u64 LE) |
//! | *n*  | payload |
//! | 4    | CRC32 over the 12 frame bytes and the payload |
//!
//! The sequence ends with an [`SectionKind::End`] section carrying an empty payload.
//! Framing is defensive end to end: a frame that promises more bytes than the input
//! holds surfaces as [`ContainerError::Truncated`] (payloads are borrowed from the
//! input, so a corrupted length allocates nothing), and any bit flip in frame or
//! payload fails the checksum.

use std::fmt;
use std::io::Write;

use crate::error::{invalid, ContainerError, Result};
use huffdec_core::{crc32, Crc32};

/// Tags of the section types (tags 0–7 are format version 1; 8–11 were added by
/// format version 2 and are rejected inside version-1 archives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SectionKind {
    /// Terminates the section sequence (empty payload).
    End = 0,
    /// Canonical codebook as compact `(symbol, code length)` pairs.
    Codebook = 1,
    /// Flat Huffman bitstream with its geometry (fine-grained decoders).
    FlatStream = 2,
    /// Gap array (required by gap-array decoders).
    GapArray = 3,
    /// Outlier list of the sz pipeline.
    Outliers = 4,
    /// cuSZ coarse-grained chunked bitstream (baseline decoder).
    ChunkedStream = 5,
    /// CRC32 over the decoded symbol stream (optional trailer; deep verification).
    DecodedCrc = 6,
    /// Snapshot manifest: per-field name, shard offset/length, and decode metadata.
    /// Only valid as a file prologue (before the first archive), never inside one.
    Manifest = 7,
    /// Snapshot codebook dictionary (v2): deduplicated codebooks that per-field
    /// codebook-reference sections point into. Prologue-only, after the manifest.
    CodebookDict = 8,
    /// Decoder tuning hints (v2): advisory shared-memory buffer sizes per decoder
    /// (Algorithm 2 of the paper). Prologue-only, after the dictionary.
    TuningHints = 9,
    /// RLE+Huffman hybrid stream (v2): paired nonzero-symbol and zero-run substreams,
    /// each with its own inline codebook. Replaces codebook + flat-stream sections in
    /// hybrid archives.
    HybridStream = 10,
    /// Codebook reference (v2): a dictionary entry id replacing the inline codebook of
    /// a dense archive stored inside a snapshot with a codebook dictionary.
    CodebookRef = 11,
}

/// Every section kind with its display name, indexed by wire tag.
const KINDS: [(SectionKind, &str); 12] = [
    (SectionKind::End, "end"),
    (SectionKind::Codebook, "codebook"),
    (SectionKind::FlatStream, "flat-stream"),
    (SectionKind::GapArray, "gap-array"),
    (SectionKind::Outliers, "outliers"),
    (SectionKind::ChunkedStream, "chunked-stream"),
    (SectionKind::DecodedCrc, "decoded-crc"),
    (SectionKind::Manifest, "manifest"),
    (SectionKind::CodebookDict, "codebook-dict"),
    (SectionKind::TuningHints, "tuning-hints"),
    (SectionKind::HybridStream, "hybrid-stream"),
    (SectionKind::CodebookRef, "codebook-ref"),
];

impl SectionKind {
    /// The wire tag byte.
    pub fn tag(&self) -> u8 {
        *self as u8
    }

    /// Inverse of [`SectionKind::tag`].
    pub fn from_tag(tag: u8) -> Option<SectionKind> {
        KINDS.get(tag as usize).map(|&(kind, _)| kind)
    }

    /// True when `bytes` starts with the frame of a section of this kind: the tag byte
    /// and three zero reserved bytes. This is how snapshot readers tell a prologue
    /// section from an archive header, whose `HFZ` magic is never a tag.
    pub fn leads(&self, bytes: &[u8]) -> bool {
        bytes.len() >= 4 && bytes[0] == self.tag() && bytes[1..4] == [0, 0, 0]
    }

    /// True for the section kinds introduced by format version 2 — a version-1 archive
    /// or prologue containing one is corrupt, not forward-compatible.
    pub fn requires_v2(&self) -> bool {
        self.tag() >= SectionKind::CodebookDict.tag()
    }
}

impl fmt::Display for SectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(KINDS[self.tag() as usize].1)
    }
}

/// Frame header size (tag + reserved + length).
pub const FRAME_BYTES: usize = 12;
/// Trailing checksum size.
pub const CRC_BYTES: usize = 4;
/// Hard ceiling on a single section payload (64 GiB) — far above anything the pipeline
/// produces, low enough to reject nonsense lengths from corrupted frames outright.
pub const MAX_SECTION_BYTES: u64 = 1 << 36;

/// Writes one framed section; returns the total bytes written (frame + payload + CRC).
pub fn write_section<W: Write>(w: &mut W, kind: SectionKind, payload: &[u8]) -> Result<u64> {
    let mut frame = [0u8; FRAME_BYTES];
    frame[0] = kind.tag();
    frame[4..12].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&frame);
    crc.update(payload);
    w.write_all(&frame)?;
    w.write_all(payload)?;
    w.write_all(&crc.finish().to_le_bytes())?;
    Ok((FRAME_BYTES + payload.len() + CRC_BYTES) as u64)
}

/// Splits the next `n` bytes off the front of `input`; running out of input is
/// [`ContainerError::Truncated`] naming `context`.
pub(crate) fn take<'a>(input: &mut &'a [u8], n: usize, context: &'static str) -> Result<&'a [u8]> {
    if n > input.len() {
        return Err(ContainerError::Truncated { context });
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

/// Reads one framed section off the front of `input`, verifying the checksum. The
/// payload is borrowed from `input`, which is left at the first byte after the section.
pub fn next_section<'a>(input: &mut &'a [u8]) -> Result<(SectionKind, &'a [u8])> {
    let section = *input;
    let frame = take(input, FRAME_BYTES, "section frame")?;
    let kind =
        SectionKind::from_tag(frame[0]).ok_or(ContainerError::UnknownSection { tag: frame[0] })?;
    if frame[1..4] != [0, 0, 0] {
        return Err(invalid("non-zero reserved frame bytes"));
    }
    let len = u64::from_le_bytes(frame[4..12].try_into().expect("8 bytes"));
    if len > MAX_SECTION_BYTES {
        return Err(invalid("section length exceeds the format limit"));
    }
    // A lying length runs out of input here, before anything is sized by it.
    let len = usize::try_from(len).unwrap_or(usize::MAX);
    let payload = take(input, len, "section payload")?;
    let stored = take(input, CRC_BYTES, "section checksum")?;
    let stored = u32::from_le_bytes(stored.try_into().expect("4 bytes"));
    let computed = crc32(&section[..FRAME_BYTES + len]);
    if stored != computed {
        return Err(ContainerError::ChecksumMismatch {
            section: kind,
            stored,
            computed,
        });
    }
    Ok((kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        for (tag, (kind, _)) in KINDS.into_iter().enumerate() {
            assert_eq!(kind.tag() as usize, tag);
            assert_eq!(SectionKind::from_tag(kind.tag()), Some(kind));
            assert_eq!(kind.requires_v2(), kind.tag() >= 8);
        }
        assert_eq!(SectionKind::from_tag(0xEE), None);
    }

    #[test]
    fn write_read_roundtrip() {
        let payload: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        let written = write_section(&mut buf, SectionKind::Codebook, &payload).unwrap();
        assert_eq!(written as usize, buf.len());
        let (kind, got) = next_section(&mut buf.as_slice()).unwrap();
        assert_eq!(kind, SectionKind::Codebook);
        assert_eq!(got, payload.as_slice());
    }

    #[test]
    fn payload_bit_flip_fails_checksum() {
        let mut buf = Vec::new();
        write_section(&mut buf, SectionKind::GapArray, &[1, 2, 3, 4]).unwrap();
        buf[FRAME_BYTES + 2] ^= 0x10;
        assert!(matches!(
            next_section(&mut buf.as_slice()),
            Err(ContainerError::ChecksumMismatch {
                section: SectionKind::GapArray,
                ..
            })
        ));
    }

    #[test]
    fn frame_bit_flip_fails_checksum_or_tag() {
        let mut buf = Vec::new();
        write_section(&mut buf, SectionKind::Outliers, &[9; 64]).unwrap();
        // Flip the tag to another *valid* tag: the CRC covers the frame, so this is
        // still detected.
        buf[0] = SectionKind::Codebook.tag();
        assert!(matches!(
            next_section(&mut buf.as_slice()),
            Err(ContainerError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncated_payload_reports_truncation() {
        let mut buf = Vec::new();
        write_section(&mut buf, SectionKind::FlatStream, &[7; 300]).unwrap();
        buf.truncate(FRAME_BYTES + 100);
        assert!(matches!(
            next_section(&mut buf.as_slice()),
            Err(ContainerError::Truncated { .. })
        ));
    }

    #[test]
    fn absurd_length_rejected_without_allocation() {
        let mut buf = vec![SectionKind::Codebook.tag(), 0, 0, 0];
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            next_section(&mut buf.as_slice()),
            Err(ContainerError::Invalid { .. })
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut buf = Vec::new();
        write_section(&mut buf, SectionKind::End, &[]).unwrap();
        buf[0] = 0x3A;
        assert!(matches!(
            next_section(&mut buf.as_slice()),
            Err(ContainerError::UnknownSection { tag: 0x3A })
        ));
    }
}
