//! The fixed 64-byte `HFZ1`/`HFZ2` archive header.
//!
//! Layout (all integers little-endian):
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `"HFZ1"` (version 1) or `"HFZ2"` (version 2) |
//! | 4      | 2    | format version (1 or 2; must agree with the magic) |
//! | 6      | 1    | decoder kind tag ([`DecoderKind::tag`]) |
//! | 7      | 1    | flags (bit 0: field metadata present) |
//! | 8      | 1    | error-bound mode (0 absolute, 1 relative) |
//! | 9      | 1    | number of dimensions (1–4; 0 for payload-only archives) |
//! | 10     | 2    | reserved (zero) |
//! | 12     | 4    | quantization alphabet size |
//! | 16     | 8    | error-bound value (f64 bits) |
//! | 24     | 8    | quantization step (f64 bits) |
//! | 32     | 32   | dimensions, 4 × u64 (unused slots zero) |
//!
//! A *field archive* (flags bit 0 set) carries a full [`sz`]-pipeline compression:
//! error-bound mode/value, quantization step, and dataset dimensions are meaningful, and
//! an outlier section follows. A *payload-only archive* (bit 0 clear) stores just a
//! Huffman-encoded symbol stream; those fields are zero.
//!
//! Format version 2 (`HFZ2`) keeps the header layout unchanged; it unlocks the v2
//! section set (RLE+Huffman hybrid streams, snapshot codebook dictionaries, decoder
//! tuning hints). The hybrid decoder's layout is v2-only ([`FormatVersion::lowest_for`]),
//! so a version-1 header carrying its tag is rejected as invalid rather than misread.

use datasets::Dims;
use huffdec_core::{DecoderKind, StreamLayout, ALPHABET_SIZES};
use sz::ErrorBound;

use crate::error::{invalid, ContainerError, Result};
use crate::wire::{ByteCursor, ByteWriter};

/// The four magic bytes opening every version-1 archive.
pub const MAGIC: [u8; 4] = *b"HFZ1";
/// The four magic bytes opening every version-2 archive.
pub const MAGIC_V2: [u8; 4] = *b"HFZ2";
/// The format version this crate writes by default.
pub const FORMAT_VERSION: u16 = 1;
/// The format version that adds hybrid streams, codebook dictionaries, and tuning
/// hints; the highest version this crate reads.
pub const FORMAT_VERSION_V2: u16 = 2;
/// A writable container format version — the type-safe form of the `--format` switch
/// and [`FORMAT_VERSION`]/[`FORMAT_VERSION_V2`]. Later versions order higher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum FormatVersion {
    /// Version 1 (`HFZ1`) — the default; dense streams only.
    #[default]
    V1,
    /// Version 2 (`HFZ2`) — hybrid streams, codebook dictionaries, tuning hints.
    V2,
}

impl FormatVersion {
    /// The wire version number ([`FORMAT_VERSION`] or [`FORMAT_VERSION_V2`]).
    pub fn number(self) -> u16 {
        match self {
            FormatVersion::V1 => FORMAT_VERSION,
            FormatVersion::V2 => FORMAT_VERSION_V2,
        }
    }

    /// The lowest version that holds a stream of `layout`: writers upgrade to it, and the
    /// header reader refuses a decoder whose layout its version cannot hold.
    pub fn lowest_for(layout: StreamLayout) -> FormatVersion {
        match layout {
            StreamLayout::Hybrid => FormatVersion::V2,
            StreamLayout::Chunked | StreamLayout::Flat | StreamLayout::FlatWithGaps => {
                FormatVersion::V1
            }
        }
    }

    /// Parses a `--format` switch value (`"v1"`/`"1"` or `"v2"`/`"2"`).
    pub fn parse(s: &str) -> Option<FormatVersion> {
        match s {
            "v1" | "1" => Some(FormatVersion::V1),
            "v2" | "2" => Some(FormatVersion::V2),
            _ => None,
        }
    }
}

/// Size of the fixed header in bytes.
pub const HEADER_BYTES: usize = 64;
/// Size of the header plus its trailing CRC32 as stored.
pub const HEADER_WIRE_BYTES: usize = HEADER_BYTES + 4;

/// Flag bit: the archive carries field metadata (error bound, step, dims, outliers).
const FLAG_FIELD_METADATA: u8 = 0b0000_0001;
/// Largest element count a header may claim — a storage-format sanity bound
/// (2^40 f32 elements = 4 TiB) that keeps corrupted headers from driving huge
/// allocations downstream.
const MAX_ELEMENTS: u64 = 1 << 40;

/// Compression metadata of a field archive (absent from payload-only archives).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldMeta {
    /// The error bound the archive was compressed under.
    pub error_bound: ErrorBound,
    /// The quantization step (twice the absolute error bound used).
    pub step: f64,
    /// Dimensions of the compressed field.
    pub dims: Dims,
}

/// The decoded archive header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Header {
    /// Container format version (1 or 2); decides the magic and the allowed sections.
    pub version: u16,
    /// Which Huffman decoder the archive's stream format targets.
    pub decoder: DecoderKind,
    /// Quantization alphabet size (number of Huffman symbols).
    pub alphabet_size: u32,
    /// Field metadata, when this is a full-pipeline archive.
    pub field: Option<FieldMeta>,
}

impl Header {
    /// Encodes the header into its fixed 64-byte form.
    ///
    /// # Panics
    /// Panics if `version` is not a version this crate writes (1 or 2) — writers
    /// construct headers from trusted configuration, never from wire bytes.
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let magic = match self.version {
            FORMAT_VERSION => MAGIC,
            FORMAT_VERSION_V2 => MAGIC_V2,
            v => panic!("unwritable container format version {}", v),
        };
        let mut w = ByteWriter::with_capacity(HEADER_BYTES);
        w.put_bytes(&magic);
        w.put_u16(self.version);
        w.put_u8(self.decoder.tag());
        w.put_u8(if self.field.is_some() {
            FLAG_FIELD_METADATA
        } else {
            0
        });
        match &self.field {
            Some(meta) => {
                let (eb_mode, eb_value) = meta.error_bound.wire_parts();
                w.put_u8(eb_mode);
                w.put_u8(meta.dims.ndim() as u8);
                w.put_u16(0); // reserved
                w.put_u32(self.alphabet_size);
                w.put_f64(eb_value);
                w.put_f64(meta.step);
                let extents = meta.dims.as_vec();
                for slot in 0..4 {
                    w.put_u64(extents.get(slot).map(|&e| e as u64).unwrap_or(0));
                }
            }
            None => {
                w.put_u8(0);
                w.put_u8(0);
                w.put_u16(0); // reserved
                w.put_u32(self.alphabet_size);
                w.put_f64(0.0);
                w.put_f64(0.0);
                for _ in 0..4 {
                    w.put_u64(0);
                }
            }
        }
        let bytes = w.into_bytes();
        debug_assert_eq!(bytes.len(), HEADER_BYTES);
        bytes.try_into().expect("header layout is 64 bytes")
    }

    /// Encodes the header followed by its CRC32, as stored on the wire.
    pub fn encode_with_crc(&self) -> [u8; HEADER_WIRE_BYTES] {
        let mut bytes = [0u8; HEADER_WIRE_BYTES];
        bytes[..HEADER_BYTES].copy_from_slice(&self.encode());
        let crc = huffdec_core::crc32(&bytes[..HEADER_BYTES]);
        bytes[HEADER_BYTES..].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Decodes a header and verifies its trailing CRC32. Magic and version are checked
    /// *before* the checksum so a wrong file type or a future format version keep their
    /// specific errors; any other header corruption fails the checksum.
    pub fn decode_with_crc(bytes: &[u8; HEADER_WIRE_BYTES]) -> Result<Header> {
        let header: &[u8; HEADER_BYTES] = bytes[..HEADER_BYTES].try_into().expect("header slice");
        let magic: [u8; 4] = header[..4].try_into().expect("4 bytes");
        let version = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes"));
        check_magic_and_version(magic, version)?;
        let stored = u32::from_le_bytes(bytes[HEADER_BYTES..].try_into().expect("4 bytes"));
        let computed = huffdec_core::crc32(header);
        if stored != computed {
            return Err(ContainerError::HeaderChecksumMismatch { stored, computed });
        }
        Header::decode(header)
    }

    /// Decodes and validates a header from its fixed 64-byte form.
    pub fn decode(bytes: &[u8; HEADER_BYTES]) -> Result<Header> {
        let mut c = ByteCursor::new(bytes, "header");
        let magic: [u8; 4] = c.get_bytes(4)?.try_into().expect("4 bytes");
        let version = c.get_u16()?;
        check_magic_and_version(magic, version)?;
        let decoder_tag = c.get_u8()?;
        let decoder =
            DecoderKind::from_tag(decoder_tag).ok_or(invalid("unknown decoder kind tag"))?;
        if version < FormatVersion::lowest_for(decoder.layout()).number() {
            return Err(invalid("hybrid decoder requires format version 2"));
        }
        let flags = c.get_u8()?;
        if flags & !FLAG_FIELD_METADATA != 0 {
            return Err(invalid("unknown header flag bits"));
        }
        let eb_mode = c.get_u8()?;
        let ndim = c.get_u8()?;
        let reserved = c.get_u16()?;
        if reserved != 0 {
            return Err(invalid("non-zero reserved header bytes"));
        }
        let alphabet_size = c.get_u32()?;
        if !ALPHABET_SIZES.contains(&(alphabet_size as usize)) {
            return Err(invalid("alphabet size out of range"));
        }
        let eb_value = c.get_f64()?;
        let step = c.get_f64()?;
        let mut raw_dims = [0u64; 4];
        for slot in &mut raw_dims {
            *slot = c.get_u64()?;
        }

        let field = if flags & FLAG_FIELD_METADATA != 0 {
            let error_bound = ErrorBound::from_wire_parts(eb_mode, eb_value)
                .ok_or(invalid("invalid error-bound encoding"))?;
            if !step.is_finite() || step <= 0.0 {
                return Err(invalid("non-positive quantization step"));
            }
            if !(1..=4).contains(&ndim) {
                return Err(invalid("dimensionality out of range"));
            }
            let extents = &raw_dims[..ndim as usize];
            if extents.contains(&0) {
                return Err(invalid("zero-sized dimension"));
            }
            if raw_dims[ndim as usize..].iter().any(|&e| e != 0) {
                return Err(invalid("non-zero unused dimension slot"));
            }
            let mut product: u64 = 1;
            for &e in extents {
                product = product
                    .checked_mul(e)
                    .filter(|&p| p <= MAX_ELEMENTS)
                    .ok_or(invalid("element count overflows"))?;
            }
            let usized: Vec<usize> = extents
                .iter()
                .map(|&e| usize::try_from(e))
                .collect::<std::result::Result<_, _>>()
                .map_err(|_| invalid("dimension exceeds usize"))?;
            Some(FieldMeta {
                error_bound,
                step,
                dims: Dims::from_slice(&usized),
            })
        } else {
            if eb_mode != 0 || ndim != 0 || eb_value != 0.0 || step != 0.0 {
                return Err(invalid("field metadata fields set without the field flag"));
            }
            if raw_dims.iter().any(|&e| e != 0) {
                return Err(invalid("dimensions set without the field flag"));
            }
            None
        };

        Ok(Header {
            version,
            decoder,
            alphabet_size,
            field,
        })
    }
}

/// Checks that the magic names a format this crate reads and the version field agrees
/// with it. Each magic pins exactly one version, so a version the magic does not
/// promise is reported as unsupported (a future revision would bump both together).
fn check_magic_and_version(magic: [u8; 4], version: u16) -> Result<()> {
    let expected = match magic {
        MAGIC => FORMAT_VERSION,
        MAGIC_V2 => FORMAT_VERSION_V2,
        _ => return Err(ContainerError::BadMagic { found: magic }),
    };
    if version != expected {
        return Err(ContainerError::UnsupportedVersion {
            found: version,
            supported: expected,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_field_header() -> Header {
        Header {
            version: FORMAT_VERSION,
            decoder: DecoderKind::OptimizedGapArray,
            alphabet_size: 1024,
            field: Some(FieldMeta {
                error_bound: ErrorBound::Relative(1e-3),
                step: 0.002,
                dims: Dims::D3(16, 32, 8),
            }),
        }
    }

    #[test]
    fn roundtrip_field_header() {
        let h = sample_field_header();
        assert_eq!(Header::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn roundtrip_v2_field_header() {
        let mut h = sample_field_header();
        h.version = FORMAT_VERSION_V2;
        let bytes = h.encode();
        assert_eq!(&bytes[..4], b"HFZ2");
        assert_eq!(Header::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn roundtrip_payload_header_for_every_decoder() {
        for kind in DecoderKind::all() {
            let h = Header {
                version: FORMAT_VERSION,
                decoder: kind,
                alphabet_size: 4096,
                field: None,
            };
            assert_eq!(Header::decode(&h.encode()).unwrap(), h);
        }
    }

    #[test]
    fn hybrid_decoder_requires_v2() {
        let v2 = Header {
            version: FORMAT_VERSION_V2,
            decoder: DecoderKind::RleHybrid,
            alphabet_size: 1024,
            field: None,
        };
        assert_eq!(Header::decode(&v2.encode()).unwrap(), v2);
        // The same header downgraded to version 1 (magic and version both patched so
        // the check under test is the decoder/version gate) is invalid.
        let mut bytes = v2.encode();
        bytes[..4].copy_from_slice(&MAGIC);
        bytes[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        assert!(matches!(
            Header::decode(&bytes),
            Err(ContainerError::Invalid {
                reason: "hybrid decoder requires format version 2",
            })
        ));
    }

    #[test]
    fn magic_version_disagreement_rejected() {
        // HFZ2 magic claiming version 1: the magic pins version 2.
        let mut bytes = sample_field_header().encode();
        bytes[..4].copy_from_slice(&MAGIC_V2);
        assert!(matches!(
            Header::decode(&bytes),
            Err(ContainerError::UnsupportedVersion {
                found: 1,
                supported: 2
            })
        ));
    }

    #[test]
    fn future_v2_version_rejected() {
        let mut h = sample_field_header();
        h.version = FORMAT_VERSION_V2;
        let mut bytes = h.encode();
        bytes[4] = 0x03;
        assert!(matches!(
            Header::decode(&bytes),
            Err(ContainerError::UnsupportedVersion {
                found: 3,
                supported: 2
            })
        ));
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = sample_field_header().encode();
        bytes[0] = b'X';
        assert!(matches!(
            Header::decode(&bytes),
            Err(ContainerError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = sample_field_header().encode();
        bytes[4] = 0x02;
        assert!(matches!(
            Header::decode(&bytes),
            Err(ContainerError::UnsupportedVersion {
                found: 2,
                supported: 1
            })
        ));
    }

    #[test]
    fn unknown_decoder_tag_rejected() {
        let mut bytes = sample_field_header().encode();
        bytes[6] = 0x7F;
        assert!(matches!(
            Header::decode(&bytes),
            Err(ContainerError::Invalid { .. })
        ));
    }

    #[test]
    fn unknown_flags_rejected() {
        let mut bytes = sample_field_header().encode();
        bytes[7] |= 0b1000_0000;
        assert!(matches!(
            Header::decode(&bytes),
            Err(ContainerError::Invalid { .. })
        ));
    }

    #[test]
    fn zero_dimension_rejected() {
        let mut h = sample_field_header();
        if let Some(meta) = &mut h.field {
            meta.dims = Dims::D2(0, 5);
        }
        let bytes = h.encode();
        assert!(matches!(
            Header::decode(&bytes),
            Err(ContainerError::Invalid { .. })
        ));
    }

    #[test]
    fn overflowing_dims_rejected() {
        let mut bytes = sample_field_header().encode();
        for slot in 0..3 {
            bytes[32 + slot * 8..40 + slot * 8].copy_from_slice(&u64::MAX.to_le_bytes());
        }
        assert!(matches!(
            Header::decode(&bytes),
            Err(ContainerError::Invalid { .. })
        ));
    }

    #[test]
    fn nonzero_step_without_flag_rejected() {
        let h = Header {
            version: FORMAT_VERSION,
            decoder: DecoderKind::CuszBaseline,
            alphabet_size: 1024,
            field: None,
        };
        let mut bytes = h.encode();
        bytes[24..32].copy_from_slice(&1.0f64.to_le_bytes());
        assert!(matches!(
            Header::decode(&bytes),
            Err(ContainerError::Invalid { .. })
        ));
    }
}
