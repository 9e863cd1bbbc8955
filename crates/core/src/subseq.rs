//! Per-subsequence decode state.
//!
//! All fine-grained decoders reduce, after their respective preparation phases
//! (self-synchronization or gap-array counting), to the same per-subsequence state: where
//! each thread starts decoding and how many codewords it will produce. The decode/write
//! kernels and the output-index phase operate on this state regardless of which decoder
//! family produced it.

use huffman::{BitReader, Codebook};

use crate::format::EncodedStream;

/// Converged decode state of one subsequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubseqInfo {
    /// Bit position where this subsequence's thread starts decoding.
    pub start_bit: u64,
    /// Number of codewords the thread decodes (those that *begin* in this subsequence's
    /// responsibility window, i.e. before the next subsequence's start).
    pub num_symbols: u64,
}

/// Computes the reference (sequential) per-subsequence state for an encoded stream: the
/// fixed point every parallel preparation phase must converge to. Used to validate the
/// simulated kernels and by the CPU fallback path.
pub fn reference_subseq_infos(stream: &EncodedStream) -> Vec<SubseqInfo> {
    let reader = BitReader::new(&stream.units, stream.bit_len);
    let states = huffman::reference_sync_states(
        &stream.codebook,
        &reader,
        stream.geometry.subseq_bits(),
        stream.bit_len,
    );
    states
        .iter()
        .map(|s| SubseqInfo {
            start_bit: s.start_bit,
            num_symbols: s.num_codewords,
        })
        .collect()
}

/// Decodes the symbols of one subsequence given its converged state, handing each to
/// `write` with its index within the subsequence (no intermediate buffer: the kernels
/// write straight to their output). Shared functional core of every decode/write kernel.
pub fn decode_subseq_symbols(
    codebook: &Codebook,
    reader: &BitReader<'_>,
    info: &SubseqInfo,
    mut write: impl FnMut(usize, u16),
) {
    let mut pos = info.start_bit;
    for k in 0..info.num_symbols as usize {
        let Some((sym, n)) = codebook.decode_at(reader, pos, reader.bit_len()) else {
            break;
        };
        write(k, sym);
        pos += n as u64;
    }
}

/// Number of bits of codewords a subsequence's thread consumes (used for decode cost
/// accounting): the distance from its start to the next subsequence's start.
pub fn subseq_bits_consumed(infos: &[SubseqInfo], index: usize, stream_bit_len: u64) -> u64 {
    let start = infos[index].start_bit;
    let end = infos
        .get(index + 1)
        .map(|i| i.start_bit)
        .unwrap_or(stream_bit_len);
    end.saturating_sub(start)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let infos = reference_subseq_infos(&s);
        let reader = BitReader::new(&s.units, s.bit_len);
        let mut all = Vec::new();
        for info in &infos {
            decode_subseq_symbols(&s.codebook, &reader, info, |_, sym| all.push(sym));
        }
        let reference = huffman::decode_flat(
            &s.codebook,
            &huffman::FlatEncoded {
                units: s.units.clone(),
                bit_len: s.bit_len,
                num_symbols: s.num_symbols,
                symbol_bit_offsets: None,
            },
        )
        .unwrap();
        assert_eq!(all, reference);
    }

    #[test]
    fn bits_consumed_partition_the_stream() {
        let s = stream(10_000);
        let infos = reference_subseq_infos(&s);
        let total_bits: u64 = (0..infos.len())
            .map(|i| subseq_bits_consumed(&infos, i, s.bit_len))
            .sum();
        assert_eq!(total_bits, s.bit_len);
    }

    #[test]
    fn empty_stream_has_no_infos() {
        let cb = Codebook::from_symbols(&[0u16], 4);
        let s = EncodedStream::encode(&cb, &[]);
        assert!(reference_subseq_infos(&s).is_empty());
    }
}
