//! The unified error type of the public API.
//!
//! Every fallible operation of the facade — building a [`crate::Codec`], compressing,
//! decompressing, opening archives, talking to a daemon — reports a [`HfzError`]. The
//! lower-level crates keep their own typed errors ([`DecodeError`], [`ContainerError`],
//! `huffdec_serve::ProtocolError`), and each converts into this enum via `From`, so
//! consumers write `?` end to end and the CLI maps every failure to a stable exit code.

use std::fmt;

use gpu_sim::UnknownBackend;
use huffdec_container::ContainerError;
use huffdec_core::DecodeError;

/// Result alias for facade operations.
pub type Result<T> = std::result::Result<T, HfzError>;

/// Everything that can go wrong in the compression pipeline, behind one type.
///
/// The CLI maps each variant to a stable process exit code ([`HfzError::exit_code`]):
///
/// | variant | exit code | meaning |
/// |---------|----------:|---------|
/// | [`HfzError::Usage`] | 2 | bad invocation: unknown flags, invalid configuration, empty input |
/// | [`HfzError::Io`] | 3 | the operating system failed a read/write |
/// | [`HfzError::Container`] | 4 | a malformed or corrupt `HFZ1` archive |
/// | [`HfzError::Decode`] | 5 | a payload/decoder mismatch, out-of-range decode request, or corrupt stream |
/// | [`HfzError::Protocol`] | 6 | a daemon/transport failure on a remote operation |
/// | [`HfzError::Verify`] | 7 | verification ran and found a real mismatch |
#[derive(Debug)]
pub enum HfzError {
    /// The caller asked for something invalid: bad CLI flags, an invalid codec
    /// configuration (alphabet size, error bound), or an empty input field.
    Usage(String),
    /// An underlying I/O failure, with the path or operation that failed.
    Io {
        /// What was being read or written (may be empty for bare conversions).
        context: String,
        /// The operating-system error.
        source: std::io::Error,
    },
    /// A malformed `HFZ1` archive (truncation, checksum mismatch, invalid sections…).
    Container(ContainerError),
    /// A decode-level defect: payload/decoder mismatch, an out-of-range request, or a
    /// stream that does not decode to its declared symbol count.
    Decode(DecodeError),
    /// A failure talking to a remote `hfzd` daemon (transport, framing, or a daemon
    /// error response). Fed by `From<ProtocolError>` / `From<ClientError>` impls in
    /// `huffdec-serve`.
    Protocol(String),
    /// A verification pass ran to completion and found a genuine mismatch (digest or
    /// error-bound failure). Distinct from [`HfzError::Container`]: the archive is
    /// structurally sound but its contents are wrong.
    Verify(String),
}

impl HfzError {
    /// Wraps an I/O error with the path or operation that failed.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        HfzError::Io {
            context: context.into(),
            source,
        }
    }

    /// The stable process exit code the `hfz` CLI maps this error to (see the
    /// type-level table).
    pub fn exit_code(&self) -> u8 {
        match self {
            HfzError::Usage(_) => 2,
            HfzError::Io { .. } => 3,
            HfzError::Container(_) => 4,
            HfzError::Decode(_) => 5,
            HfzError::Protocol(_) => 6,
            HfzError::Verify(_) => 7,
        }
    }
}

impl fmt::Display for HfzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HfzError::Usage(message) => write!(f, "{}", message),
            HfzError::Io { context, source } if context.is_empty() => write!(f, "{}", source),
            HfzError::Io { context, source } => write!(f, "{}: {}", context, source),
            HfzError::Container(e) => write!(f, "{}", e),
            HfzError::Decode(e) => write!(f, "{}", e),
            HfzError::Protocol(message) => write!(f, "{}", message),
            HfzError::Verify(message) => write!(f, "{}", message),
        }
    }
}

impl std::error::Error for HfzError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HfzError::Io { source, .. } => Some(source),
            HfzError::Container(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for HfzError {
    fn from(e: DecodeError) -> Self {
        HfzError::Decode(e)
    }
}

impl From<ContainerError> for HfzError {
    /// A container-level I/O error stays an I/O error; everything else is a malformed
    /// archive.
    fn from(e: ContainerError) -> Self {
        match e {
            ContainerError::Io(source) => HfzError::Io {
                context: String::new(),
                source,
            },
            other => HfzError::Container(other),
        }
    }
}

impl From<std::io::Error> for HfzError {
    fn from(e: std::io::Error) -> Self {
        HfzError::Io {
            context: String::new(),
            source: e,
        }
    }
}

impl From<String> for HfzError {
    /// Free-form messages (CLI flag parsing and friends) are usage errors.
    fn from(message: String) -> Self {
        HfzError::Usage(message)
    }
}

impl From<UnknownBackend> for HfzError {
    /// A backend name that is neither `sim` nor `cpu` is a usage error.
    fn from(e: UnknownBackend) -> Self {
        HfzError::Usage(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use huffdec_core::DecoderKind;

    #[test]
    fn exit_codes_are_stable_and_distinct() {
        let errors = [
            HfzError::Usage("bad flag".into()),
            HfzError::io("/nope", std::io::Error::other("denied")),
            HfzError::Container(ContainerError::Truncated { context: "header" }),
            HfzError::Decode(DecodeError::PayloadMismatch {
                decoder: DecoderKind::CuszBaseline,
            }),
            HfzError::Protocol("daemon gone".into()),
            HfzError::Verify("digest mismatch".into()),
        ];
        let codes: Vec<u8> = errors.iter().map(|e| e.exit_code()).collect();
        assert_eq!(codes, vec![2, 3, 4, 5, 6, 7]);
        for e in &errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn conversions_preserve_the_source() {
        let e: HfzError = ContainerError::BadMagic { found: *b"NOPE" }.into();
        assert!(matches!(e, HfzError::Container(_)));
        assert_eq!(e.exit_code(), 4);
        // Container-wrapped I/O errors surface as I/O, not as corrupt archives.
        let e: HfzError = ContainerError::Io(std::io::Error::other("disk on fire")).into();
        assert!(matches!(e, HfzError::Io { .. }));
        assert!(e.to_string().contains("disk on fire"));
        let e: HfzError = DecodeError::RangeOutOfBounds {
            start: 9,
            len: 9,
            num_symbols: 3,
        }
        .into();
        assert_eq!(e.exit_code(), 5);
        let e: HfzError = "missing required flag --output".to_string().into();
        assert!(matches!(e, HfzError::Usage(_)));
        let io = HfzError::io("/data/x.hfz", std::io::Error::other("denied"));
        assert!(io.to_string().starts_with("/data/x.hfz: "));
        assert!(std::error::Error::source(&io).is_some());
    }
}
