//! Format-v2 snapshot prologue structures: the shared codebook dictionary and the
//! decoder tuning hints.
//!
//! Snapshots of real scientific datasets (HACC particle arrays, GAMESS integral
//! blocks) hold many fields quantized over the *same* alphabet with near-identical
//! symbol distributions, so their canonical codebooks frequently coincide. Format v2
//! hoists those codebooks into one snapshot-level [`CodebookDict`] section: the writer
//! deduplicates identical `(symbol, code length)` tables, and each dense field's shard
//! stores a 4-byte [`SectionKind::CodebookRef`](crate::SectionKind)
//! instead of its inline codebook.
//!
//! [`TuningHints`] is the second v2 prologue section: an advisory per-decoder
//! shared-memory decode-buffer size (the quantity Algorithm 2 of the paper tunes
//! online). Readers may seed the tuner with it; ignoring it never affects
//! correctness.

use huffdec_core::DecoderKind;
use huffman::Codebook;

use crate::error::{invalid, Result};

/// The deduplicated snapshot-level codebook table of a format-v2 snapshot.
///
/// Entry ids are positions in the table; [`CodebookRef`](crate::SectionKind::CodebookRef)
/// sections index into it. Identical entries (same alphabet and length pairs) are
/// forbidden — a dictionary that fails to deduplicate defeats its purpose and signals
/// a corrupt or adversarial writer.
#[derive(Debug, Clone, PartialEq)]
pub struct CodebookDict {
    entries: Vec<Codebook>,
}

impl CodebookDict {
    /// Validates and wraps dictionary entries: non-empty, no identical duplicates.
    pub fn new(entries: Vec<Codebook>) -> Result<CodebookDict> {
        if entries.is_empty() {
            return Err(invalid("codebook dictionary with no entries"));
        }
        if entries.len() > u32::MAX as usize {
            return Err(invalid(
                "codebook dictionary entry count exceeds the wire limit",
            ));
        }
        for (i, a) in entries.iter().enumerate() {
            for b in &entries[..i] {
                if a.alphabet_size() == b.alphabet_size() && a.length_pairs() == b.length_pairs() {
                    return Err(invalid("duplicate codebook dictionary entries"));
                }
            }
        }
        Ok(CodebookDict { entries })
    }

    /// Builds a dictionary from the dense codebooks of a snapshot, deduplicating
    /// identical tables. Returns `None` when `codebooks` is empty (an all-hybrid
    /// snapshot carries no dictionary — hybrid codebooks stay inline).
    pub fn dedup<'a>(codebooks: impl IntoIterator<Item = &'a Codebook>) -> Option<CodebookDict> {
        let mut entries: Vec<Codebook> = Vec::new();
        for cb in codebooks {
            let seen = entries.iter().any(|e| {
                e.alphabet_size() == cb.alphabet_size() && e.length_pairs() == cb.length_pairs()
            });
            if !seen {
                entries.push(cb.clone());
            }
        }
        if entries.is_empty() {
            None
        } else {
            Some(CodebookDict { entries })
        }
    }

    /// The entries, in id order.
    pub fn entries(&self) -> &[Codebook] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the dictionary has no entries (never constructible via [`Self::new`]).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an entry by id.
    pub fn get(&self, id: u32) -> Option<&Codebook> {
        self.entries.get(id as usize)
    }

    /// Finds the id of an entry identical to `codebook` (what the writer stores in a
    /// codebook-reference section).
    pub fn find(&self, codebook: &Codebook) -> Option<u32> {
        self.entries
            .iter()
            .position(|e| {
                e.alphabet_size() == codebook.alphabet_size()
                    && e.length_pairs() == codebook.length_pairs()
            })
            .map(|i| i as u32)
    }
}

/// Ceiling on an advisory decode-buffer size: far above any simulated shared memory,
/// low enough to reject nonsense from corrupt hints.
pub const MAX_HINT_BUFFER_SYMBOLS: u32 = 1 << 20;

/// One advisory tuning entry: the shared-memory decode-buffer size (in symbols) to
/// seed Algorithm 2's online tuner with for one decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuningHint {
    /// The decoder the hint applies to.
    pub decoder: DecoderKind,
    /// Suggested staged decode/write buffer size, in symbols.
    pub buffer_symbols: u32,
}

/// The validated decoder-tuning-hints section of a format-v2 snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuningHints {
    hints: Vec<TuningHint>,
}

impl TuningHints {
    /// Validates and wraps hints: non-empty, one hint per decoder at most, buffer
    /// sizes in `1..=`[`MAX_HINT_BUFFER_SYMBOLS`].
    pub fn new(hints: Vec<TuningHint>) -> Result<TuningHints> {
        if hints.is_empty() {
            return Err(invalid("tuning-hints section with no hints"));
        }
        for (i, hint) in hints.iter().enumerate() {
            if hint.buffer_symbols == 0 || hint.buffer_symbols > MAX_HINT_BUFFER_SYMBOLS {
                return Err(invalid("tuning hint buffer size out of range"));
            }
            if hints[..i].iter().any(|h| h.decoder == hint.decoder) {
                return Err(invalid("duplicate decoder in the tuning hints"));
            }
        }
        Ok(TuningHints { hints })
    }

    /// The hints, in storage order.
    pub fn hints(&self) -> &[TuningHint] {
        &self.hints
    }

    /// Number of hints.
    pub fn len(&self) -> usize {
        self.hints.len()
    }

    /// True if there are no hints (never constructible via [`Self::new`]).
    pub fn is_empty(&self) -> bool {
        self.hints.is_empty()
    }
}

#[cfg(test)]
impl TuningHints {
    /// The advisory buffer size for `decoder`, when a hint exists.
    pub(crate) fn for_decoder(&self, decoder: DecoderKind) -> Option<u32> {
        self.hints
            .iter()
            .find(|h| h.decoder == decoder)
            .map(|h| h.buffer_symbols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::section::SectionKind;

    /// A codebook over `spread` distinct symbols — different spreads give different
    /// length tables, same spread gives identical ones.
    fn codebook(spread: u32) -> Codebook {
        let symbols: Vec<u16> = (0..4000u32)
            .map(|i| (512 + (i.wrapping_mul(2654435761) >> 20) as i32 % spread as i32 - 8) as u16)
            .collect();
        Codebook::from_symbols(&symbols, 1024)
    }

    #[test]
    fn dict_dedup_and_lookup() {
        let a = codebook(16);
        let b = codebook(5);
        let dict = CodebookDict::dedup([&a, &b, &a, &b, &a]).unwrap();
        assert_eq!(dict.len(), 2);
        assert_eq!(dict.find(&a), Some(0));
        assert_eq!(dict.find(&b), Some(1));
        assert_eq!(dict.get(0).unwrap().length_pairs(), a.length_pairs());
        assert!(dict.get(2).is_none());
        assert!(CodebookDict::dedup(std::iter::empty()).is_none());
    }

    #[test]
    fn duplicate_dict_entries_rejected() {
        let a = codebook(16);
        assert!(CodebookDict::new(vec![a.clone(), a]).is_err());
        assert!(CodebookDict::new(vec![]).is_err());
    }

    #[test]
    fn tuning_hints_validation() {
        let hints = TuningHints::new(vec![
            TuningHint {
                decoder: DecoderKind::OptimizedSelfSync,
                buffer_symbols: 2048,
            },
            TuningHint {
                decoder: DecoderKind::RleHybrid,
                buffer_symbols: 1024,
            },
        ])
        .unwrap();
        assert_eq!(
            hints.for_decoder(DecoderKind::OptimizedSelfSync),
            Some(2048)
        );
        assert_eq!(hints.for_decoder(DecoderKind::CuszBaseline), None);

        assert!(TuningHints::new(vec![]).is_err());
        let dup = TuningHint {
            decoder: DecoderKind::RleHybrid,
            buffer_symbols: 64,
        };
        assert!(TuningHints::new(vec![dup, dup]).is_err());
        assert!(TuningHints::new(vec![TuningHint {
            decoder: DecoderKind::RleHybrid,
            buffer_symbols: 0,
        }])
        .is_err());
        assert!(TuningHints::new(vec![TuningHint {
            decoder: DecoderKind::RleHybrid,
            buffer_symbols: MAX_HINT_BUFFER_SYMBOLS + 1,
        }])
        .is_err());
    }

    #[test]
    fn prologue_sniffing() {
        assert!(SectionKind::CodebookDict.leads(&[8, 0, 0, 0, 9]));
        assert!(!SectionKind::CodebookDict.leads(&[8, 0, 1, 0]));
        assert!(!SectionKind::CodebookDict.leads(b"HFZ2"));
        assert!(SectionKind::TuningHints.leads(&[9, 0, 0, 0]));
        assert!(!SectionKind::TuningHints.leads(&[8, 0, 0, 0]));
    }
}
