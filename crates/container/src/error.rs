//! Typed errors for archive reading and writing.
//!
//! Every way an archive can be malformed maps to a [`ContainerError`] variant; readers
//! never panic on untrusted input. Semantic validation failures (a codebook violating the
//! Kraft inequality, a gap array that does not match the stream) surface as
//! [`ContainerError::Invalid`] with a description of the defect.

use std::fmt;

use crate::section::SectionKind;

/// Result alias for container operations.
pub type Result<T> = std::result::Result<T, ContainerError>;

/// The [`ContainerError::Invalid`] of a structure rule's reason.
pub(crate) fn invalid(reason: &'static str) -> ContainerError {
    ContainerError::Invalid { reason }
}

/// Everything that can go wrong reading or writing an `HFZ1` archive.
#[derive(Debug)]
pub enum ContainerError {
    /// An underlying I/O error from the reader or writer.
    Io(std::io::Error),
    /// The input ended before the structure it promised was complete.
    Truncated {
        /// What was being read when the input ran out.
        context: &'static str,
    },
    /// The input does not start with the `HFZ1` magic.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The archive's format version is not supported by this reader.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
        /// The highest version this reader understands.
        supported: u16,
    },
    /// The header's checksum does not match its bytes (bit rot or tampering).
    HeaderChecksumMismatch {
        /// The CRC32 stored after the header.
        stored: u32,
        /// The CRC32 computed over the header actually read.
        computed: u32,
    },
    /// A section's checksum does not match its payload (bit rot or tampering).
    ChecksumMismatch {
        /// Which section failed.
        section: SectionKind,
        /// The CRC32 stored in the archive.
        stored: u32,
        /// The CRC32 computed over the payload actually read.
        computed: u32,
    },
    /// A section carries an unknown tag byte.
    UnknownSection {
        /// The unrecognized tag.
        tag: u8,
    },
    /// The same section appears more than once.
    DuplicateSection {
        /// The repeated section.
        section: SectionKind,
    },
    /// A section the header requires is absent.
    MissingSection {
        /// The absent section.
        section: SectionKind,
    },
    /// A section the header's decoder kind or archive kind does not allow is present.
    UnexpectedSection {
        /// The section that does not belong.
        section: SectionKind,
    },
    /// A header or section field has a structurally valid encoding but an invalid value.
    Invalid {
        /// Description of the defect.
        reason: &'static str,
    },
    /// A snapshot field lookup named a field the manifest does not contain.
    FieldNotFound {
        /// The requested field name (or `#index` for positional lookups).
        name: String,
    },
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Io(e) => write!(f, "archive I/O error: {}", e),
            ContainerError::Truncated { context } => {
                write!(f, "archive truncated while reading {}", context)
            }
            ContainerError::BadMagic { found } => {
                write!(f, "not an HFZ archive (magic bytes {:02x?})", found)
            }
            ContainerError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported archive format version {} (this reader supports up to {})",
                found, supported
            ),
            ContainerError::HeaderChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch in header: stored {:08x}, computed {:08x}",
                stored, computed
            ),
            ContainerError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in {} section: stored {:08x}, computed {:08x}",
                section, stored, computed
            ),
            ContainerError::UnknownSection { tag } => {
                write!(f, "unknown section tag {:#04x}", tag)
            }
            ContainerError::DuplicateSection { section } => {
                write!(f, "duplicate {} section", section)
            }
            ContainerError::MissingSection { section } => {
                write!(f, "missing required {} section", section)
            }
            ContainerError::UnexpectedSection { section } => {
                write!(f, "{} section does not belong in this archive", section)
            }
            ContainerError::Invalid { reason } => write!(f, "invalid archive: {}", reason),
            ContainerError::FieldNotFound { name } => {
                write!(f, "snapshot has no field '{}'", name)
            }
        }
    }
}

impl std::error::Error for ContainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ContainerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ContainerError {
    fn from(e: std::io::Error) -> Self {
        ContainerError::Io(e)
    }
}

impl From<huffdec_core::DecodeError> for ContainerError {
    /// A decode-time payload/decoder mismatch surfaces as an invalid-archive error:
    /// a CRC-valid archive whose section layout disagrees with its decoder tag must be
    /// reported, not unwound through the stack.
    fn from(e: huffdec_core::DecodeError) -> Self {
        ContainerError::Invalid { reason: e.reason() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let cases: Vec<ContainerError> = vec![
            ContainerError::Truncated { context: "header" },
            ContainerError::BadMagic { found: *b"NOPE" },
            ContainerError::UnsupportedVersion {
                found: 9,
                supported: 1,
            },
            ContainerError::ChecksumMismatch {
                section: SectionKind::Codebook,
                stored: 0xdead_beef,
                computed: 0x1234_5678,
            },
            ContainerError::UnknownSection { tag: 0x7f },
            ContainerError::DuplicateSection {
                section: SectionKind::GapArray,
            },
            ContainerError::MissingSection {
                section: SectionKind::FlatStream,
            },
            ContainerError::Invalid {
                reason: "test defect",
            },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn io_error_wraps_with_source() {
        let e: ContainerError = std::io::Error::other("disk on fire").into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("disk on fire"));
    }

    #[test]
    fn decode_error_maps_to_invalid() {
        let e: ContainerError = huffdec_core::DecodeError::PayloadMismatch {
            decoder: huffdec_core::DecoderKind::OptimizedGapArray,
        }
        .into();
        assert!(matches!(e, ContainerError::Invalid { .. }));
        assert!(e.to_string().contains("does not match"));
    }
}
