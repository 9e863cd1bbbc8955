//! Per-subsequence decode state.
//!
//! All fine-grained decoders reduce, after their respective preparation phases
//! (self-synchronization or gap-array counting), to the same per-subsequence state: where
//! each thread starts decoding and how many codewords it will produce. The decode/write
//! kernels and the output-index phase operate on this state regardless of which decoder
//! family produced it: a thread's decode is one `Codebook::decode_run` from `start_bit`
//! capped at `num_symbols`.

/// Converged decode state of one subsequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SubseqInfo {
    /// Bit position where this subsequence's thread starts decoding.
    pub(crate) start_bit: u64,
    /// Number of codewords the thread decodes (those that *begin* in this subsequence's
    /// responsibility window, i.e. before the next subsequence's start).
    pub(crate) num_symbols: u64,
}

/// The reference (sequential) per-subsequence state for an encoded stream: the fixed
/// point every parallel preparation phase must converge to, which the simulated kernels
/// are validated against.
#[cfg(test)]
pub(crate) fn reference_subseq_infos(stream: &crate::format::EncodedStream) -> Vec<SubseqInfo> {
    let reader = huffman::BitReader::new(&stream.units, stream.bit_len);
    huffman::reference_sync_states(&stream.codebook, &reader, stream.geometry.subseq_bits())
        .iter()
        .map(|s| SubseqInfo {
            start_bit: s.start_bit,
            num_symbols: s.num_codewords,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::EncodedStream;
    use huffman::Codebook;

    fn stream(n: usize) -> EncodedStream {
        let symbols: Vec<u16> = (0..n as u32)
            .map(|i| {
                let r = i.wrapping_mul(2654435761).rotate_left(9);
                let mag = r.trailing_zeros().min(7) as i32;
                (512 + if r & 1 == 1 { mag } else { -mag }) as u16
            })
            .collect();
        let cb = Codebook::from_symbols(&symbols, 1024);
        EncodedStream::encode(&cb, &symbols)
    }

    #[test]
    fn reference_infos_account_for_every_symbol() {
        let s = stream(30_000);
        let infos = reference_subseq_infos(&s);
        assert_eq!(infos.len(), s.num_subseqs());
        let total: u64 = infos.iter().map(|i| i.num_symbols).sum();
        assert_eq!(total, s.num_symbols as u64);
    }

    #[test]
    fn decoding_all_subseqs_reconstructs_the_stream() {
        let s = stream(20_000);
        let reader = huffman::BitReader::new(&s.units, s.bit_len);
        let mut all = Vec::new();
        for info in reference_subseq_infos(&s) {
            s.codebook.decode_run(
                &reader,
                info.start_bit,
                u64::MAX,
                s.bit_len,
                info.num_symbols,
                |_, sym| all.push(sym),
            );
        }
        let reference = huffman::decode_flat(
            &s.codebook,
            &huffman::FlatEncoded {
                units: s.units.clone(),
                bit_len: s.bit_len,
                num_symbols: s.num_symbols,
            },
        )
        .unwrap();
        assert_eq!(all, reference);
    }

    #[test]
    fn empty_stream_has_no_infos() {
        let cb = Codebook::from_symbols(&[0u16], 4);
        let s = EncodedStream::encode(&cb, &[]);
        assert!(reference_subseq_infos(&s).is_empty());
    }
}
