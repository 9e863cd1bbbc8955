//! Symbol frequency histograms.
//!
//! Huffman codebook construction starts from the frequency of every input symbol. cuSZ
//! symbols are multi-byte quantization codes (u16 in this reproduction, matching the
//! 16-bit decoders evaluated in the paper), with a configurable number of quantization
//! bins (1024 by default in cuSZ).

/// A frequency table over `u16` symbols with a bounded alphabet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequencyTable {
    counts: Vec<u64>,
}

impl FrequencyTable {
    /// Builds a frequency table for an alphabet of `alphabet_size` symbols, counting the
    /// occurrences in `symbols`.
    ///
    /// # Panics
    /// Panics if any symbol is `>= alphabet_size`.
    pub fn from_symbols(symbols: &[u16], alphabet_size: usize) -> Self {
        assert!(alphabet_size > 0, "alphabet must be non-empty");
        let mut counts = vec![0u64; alphabet_size];
        for &s in symbols {
            assert!(
                (s as usize) < alphabet_size,
                "symbol {} out of alphabet range {}",
                s,
                alphabet_size
            );
            counts[s as usize] += 1;
        }
        FrequencyTable { counts }
    }

    /// Builds a table directly from counts.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        assert!(!counts.is_empty(), "alphabet must be non-empty");
        FrequencyTable { counts }
    }

    /// Number of symbols in the alphabet (including zero-frequency symbols).
    pub fn alphabet_size(&self) -> usize {
        self.counts.len()
    }

    /// The count for a symbol.
    pub fn count(&self, symbol: u16) -> u64 {
        self.counts[symbol as usize]
    }

    /// All counts, indexed by symbol.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of counted symbols.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
impl FrequencyTable {
    /// Shannon entropy of the empirical distribution, in bits per symbol: the lower bound
    /// the code-length tests hold the average Huffman code length against.
    pub(crate) fn entropy_bits(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let total = total as f64;
        self.counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total;
                -p * p.log2()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_symbols() {
        let t = FrequencyTable::from_symbols(&[0, 1, 1, 3, 3, 3], 4);
        assert_eq!(t.counts(), &[1, 2, 0, 3]);
        assert_eq!(t.total(), 6);
        assert_eq!(t.count(2), 0);
        assert_eq!(t.alphabet_size(), 4);
    }

    #[test]
    fn entropy_uniform_two_symbols_is_one_bit() {
        let t = FrequencyTable::from_counts(vec![5, 5]);
        assert!((t.entropy_bits() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_single_symbol_is_zero() {
        let t = FrequencyTable::from_counts(vec![0, 100, 0]);
        assert_eq!(t.entropy_bits(), 0.0);
    }

    #[test]
    fn entropy_empty_is_zero() {
        let t = FrequencyTable::from_counts(vec![0, 0, 0]);
        assert_eq!(t.entropy_bits(), 0.0);
        assert_eq!(t.total(), 0);
    }

    #[test]
    #[should_panic(expected = "out of alphabet range")]
    fn out_of_range_symbol_panics() {
        let _ = FrequencyTable::from_symbols(&[4], 4);
    }
}
