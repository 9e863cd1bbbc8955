//! The full decode of a flat stream on an unmodeled backend: every bit decoded once.
//!
//! A GPU thread cannot know where its symbols land before the threads ahead of it have
//! counted theirs, so the paper's fine-grained decoders decode a stream two or three
//! times: a counting pass (gap array) or the synchronization passes (self-sync), the
//! output-index prefix sum, then the decode/write pass. A host block has no such
//! constraint. [`decode_walk`] launches one block per sequence that walks the sequence's
//! subsequences in order and emits every symbol into the sequence's own region of one
//! scratch buffer; the host then chains the sequences, checks the total and compacts the
//! regions in place into the output.
//!
//! * **Gap array.** Subsequence `i` runs from its gap-array start to the next one's, the
//!   spans the counting kernel decodes.
//! * **Self-sync.** A sequence starts at its bit boundary and every subsequence starts
//!   where the previous one ended: the fixed point intra-sequence synchronization
//!   iterates towards, reached in one pass. The chain then starts sequence `b` at the
//!   true end of sequence `b − 1` and re-decodes its subsequences until the position
//!   meets a start the walk recorded (the inter-sequence rule); those symbols replace the
//!   walk's. A sequence that never meets one is re-decoded whole.
//!
//! A region holds Σ (⌊max(stop − start, 0) / shortest code⌋ + 1) symbols over its
//! subsequences' spans (for self-sync, boundary to boundary). No run exceeds its term:
//! its codewords start in `[start, stop)` and each is at least the shortest code long. A
//! self-sync run starts at or past its boundary unless the run before it stopped short on
//! bits that resolve to no codeword, and from those bits nothing decodes. Every run is
//! also capped at the room left in its region, so no stream, however hostile, writes past
//! it; by the bound, the cap never binds.
//!
//! The result — the symbols, or [`DecodeError::CorruptStream`] when they do not add up
//! to the declared count — is the kernel pipeline's, which the simulator keeps running
//! for its modeled clock.

use std::ops::Range;
use std::time::Instant;

use gpu_sim::{Backend, BlockContext, BlockKernel, DeviceBuffer, LaunchConfig, PhaseTime};
use huffman::BitReader;

use crate::decoder::{DecodeError, DecoderKind};
use crate::format::EncodedStream;
use crate::phases::{DecodeResult, PhaseBreakdown};
use crate::subseq::SubseqInfo;

/// A flat stream's subsequence spans, as the decoder reads them.
struct Spans<'a> {
    stream: &'a EncodedStream,
    /// The gap array's starts, clamped to the stream; `None` for self-sync.
    gap_starts: Option<Vec<u64>>,
}

impl Spans<'_> {
    /// The subsequences of sequence `seq`.
    fn subs(&self, seq: usize) -> Range<usize> {
        let spb = self.stream.geometry.subseqs_per_seq as usize;
        seq * spb..((seq + 1) * spb).min(self.stream.num_subseqs())
    }

    /// Where subsequence `sub`'s run starts when the previous run of its sequence ended
    /// at `prev_end`, and the `stop` before which its codewords start.
    fn run(&self, sub: usize, prev_end: u64) -> (u64, u64) {
        let bit_len = self.stream.bit_len;
        match &self.gap_starts {
            Some(starts) => (starts[sub], starts.get(sub + 1).copied().unwrap_or(bit_len)),
            None => (
                prev_end,
                ((sub as u64 + 1) * self.stream.geometry.subseq_bits()).min(bit_len),
            ),
        }
    }

    /// Where the first run of sequence `seq` starts (self-sync: its bit boundary).
    fn seq_start(&self, seq: usize) -> u64 {
        self.subs(seq).start as u64 * self.stream.geometry.subseq_bits()
    }
}

/// One block per sequence: its runs, in order, into its region of `out`.
struct WalkKernel<'a> {
    spans: &'a Spans<'a>,
    /// `regions[b]..regions[b + 1]` is sequence `b`'s part of `out`.
    regions: &'a [usize],
    out: &'a DeviceBuffer<u16>,
    infos: &'a DeviceBuffer<SubseqInfo>,
    /// Where each sequence's last run ended.
    tails: &'a DeviceBuffer<u64>,
}

impl BlockKernel for WalkKernel<'_> {
    fn name(&self) -> &str {
        "walk::decode_sequence"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let seq = ctx.block_idx() as usize;
        let stream = self.spans.stream;
        let reader = BitReader::new(&stream.units, stream.bit_len);
        let (mut at, end) = (self.regions[seq], self.regions[seq + 1]);
        let mut pos = self.spans.seq_start(seq);
        for sub in self.spans.subs(seq) {
            let (start, stop) = self.spans.run(sub, pos);
            let (run_end, count) = stream.codebook.decode_run(
                &reader,
                start,
                stop,
                stream.bit_len,
                (end - at) as u64,
                |k, symbol| self.out.set(at + k as usize, symbol),
            );
            self.infos.set(
                sub,
                SubseqInfo {
                    start_bit: start,
                    num_symbols: count,
                },
            );
            at += count as usize;
            pos = run_end;
        }
        self.tails.set(seq, pos);
    }
}

/// Decodes every symbol of a flat stream with one launch over its sequences; the
/// decoded symbols and the chained per-subsequence state, or
/// [`DecodeError::CorruptStream`].
fn walk(
    gpu: &dyn Backend,
    kind: DecoderKind,
    stream: &EncodedStream,
) -> Result<(Vec<u16>, Vec<SubseqInfo>, PhaseTime), DecodeError> {
    let clock = Instant::now();
    let corrupt = DecodeError::CorruptStream { decoder: kind };
    let (bit_len, total_subs, num_seqs) = (stream.bit_len, stream.num_subseqs(), stream.num_seqs());
    let gap_starts = match (kind, &stream.gap_array) {
        (DecoderKind::OptimizedGapArray, Some(gap)) => {
            gap.gaps.get(..total_subs).ok_or(corrupt)?;
            Some(
                (0..total_subs)
                    .map(|i| gap.start_bit(i).min(bit_len))
                    .collect(),
            )
        }
        _ => None,
    };
    let chained = gap_starts.is_none();
    let spans = Spans { stream, gap_starts };

    let shortest = stream
        .codebook
        .codewords()
        .iter()
        .map(|c| c.len as u64)
        .filter(|&len| len > 0)
        .min()
        .unwrap_or(1);
    let mut regions = vec![0usize; num_seqs + 1];
    for seq in 0..num_seqs {
        let mut pos = spans.seq_start(seq);
        let mut room = 0;
        for sub in spans.subs(seq) {
            let (start, stop) = spans.run(sub, pos);
            room += stop.saturating_sub(start) / shortest + 1;
            pos = stop;
        }
        regions[seq + 1] = regions[seq] + room as usize;
    }

    let out = DeviceBuffer::<u16>::zeroed(regions[num_seqs]);
    let infos = DeviceBuffer::<SubseqInfo>::zeroed(total_subs);
    let tails = DeviceBuffer::<u64>::zeroed(num_seqs);
    let kernel = WalkKernel {
        spans: &spans,
        regions: &regions,
        out: &out,
        infos: &infos,
        tails: &tails,
    };
    let stats = gpu.launch(
        &kernel,
        LaunchConfig::new(num_seqs as u32, stream.geometry.subseqs_per_seq),
    );
    let (mut out, mut infos, tails) = (out.into_vec(), infos.into_vec(), tails.into_vec());

    // Chain and compact, sequence by sequence: `len` symbols are final, and the next
    // sequence's self-sync decode starts at `prev_tail`.
    let reader = BitReader::new(&stream.units, bit_len);
    let (mut len, mut prev_tail) = (0usize, 0u64);
    let mut chain = Vec::new();
    for (seq, &walk_tail) in tails.iter().enumerate() {
        let (subs, region) = (spans.subs(seq), regions[seq]..regions[seq + 1]);
        let walked: usize = infos[subs.clone()]
            .iter()
            .map(|i| i.num_symbols as usize)
            .sum();
        // The walk's symbols from subsequence `kept` on stay; the `dropped` before it
        // are replaced by `chain`.
        let (mut kept, mut dropped, mut tail) = (subs.start, 0usize, walk_tail);
        chain.clear();
        if chained && seq > 0 {
            let mut pos = prev_tail;
            while kept < subs.end && pos != infos[kept].start_bit {
                dropped += infos[kept].num_symbols as usize;
                let room = region.len() - chain.len() - (walked - dropped);
                let (start, stop) = spans.run(kept, pos);
                let (run_end, count) = stream.codebook.decode_run(
                    &reader,
                    start,
                    stop,
                    bit_len,
                    room as u64,
                    |_, s| chain.push(s),
                );
                infos[kept] = SubseqInfo {
                    start_bit: start,
                    num_symbols: count,
                };
                pos = run_end;
                kept += 1;
            }
            if kept == subs.end {
                tail = pos;
            }
        }
        out.copy_within(
            region.start + dropped..region.start + walked,
            len + chain.len(),
        );
        out[len..len + chain.len()].copy_from_slice(&chain);
        len += chain.len() + walked - dropped;
        prev_tail = tail;
    }
    if len as u64 != stream.num_symbols as u64 {
        return Err(corrupt);
    }
    out.truncate(len);
    out.shrink_to_fit();
    let phase = PhaseTime {
        seconds: clock.elapsed().as_secs_f64(),
        kernels: vec![stats],
    };
    Ok((out, infos, phase))
}

/// The full decode of a flat stream on an unmodeled backend: one `decode_write` phase
/// whose one kernel is the walk and whose seconds cover the walk, the chain and the
/// compaction.
pub(crate) fn decode_walk(
    gpu: &dyn Backend,
    kind: DecoderKind,
    stream: &EncodedStream,
) -> Result<DecodeResult, DecodeError> {
    let (symbols, _, phase) = walk(gpu, kind, stream)?;
    Ok(DecodeResult {
        symbols,
        timings: PhaseBreakdown {
            decode_write: Some(phase),
            ..PhaseBreakdown::default()
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{decode, CompressedPayload};
    use crate::format::StreamGeometry;
    use crate::range::prepare_decode;
    use crate::testutil::{gpu, quant_symbols};
    use gpu_sim::{CpuBackend, GpuConfig};
    use huffman::Codebook;

    const FLAT: [DecoderKind; 3] = [
        DecoderKind::OptimizedGapArray,
        DecoderKind::OptimizedSelfSync,
        DecoderKind::OriginalSelfSync,
    ];

    fn cpu() -> CpuBackend {
        CpuBackend::with_host_threads(GpuConfig::test_tiny(), 3)
    }

    /// Splitmix64 of counter `i` under `seed`.
    fn mix(seed: u64, i: u64) -> u64 {
        let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Decodes `stream` with `kind` through the simulator's kernel pipeline and through
    /// the walk, and asserts they agree: the same symbols or the same error, and on
    /// success the walk's per-subsequence state is `prepare_decode`'s. Returns the result.
    fn same_on_both(kind: DecoderKind, stream: &EncodedStream) -> Result<Vec<u16>, DecodeError> {
        let payload = CompressedPayload::Flat(stream.clone());
        let kernels = decode(&gpu(), kind, &payload).map(|r| r.symbols);
        let walked = decode(&cpu(), kind, &payload).map(|r| r.symbols);
        assert_eq!(walked, kernels, "{:?}: the walk diverged", kind);
        if kernels.is_ok() {
            let (_, infos, _) = walk(&cpu(), kind, stream).unwrap();
            let prepared = prepare_decode(&gpu(), kind, &payload).unwrap();
            assert_eq!(Some(infos.as_slice()), prepared.infos(), "{:?}", kind);
        }
        kernels
    }

    fn geometry(subseq_units: u32, subseqs_per_seq: u32) -> StreamGeometry {
        StreamGeometry::checked(subseq_units, subseqs_per_seq).unwrap()
    }

    #[test]
    fn walk_equals_the_kernels_over_every_geometry() {
        for subseq_units in 1..=4 {
            for spb in [1, 3, 32, 128] {
                for (n, spread) in [(2_500, 1), (4_111, 7)] {
                    let symbols = quant_symbols(n, spread);
                    let cb = Codebook::from_symbols(&symbols, 1024);
                    let stream = EncodedStream::encode_with(
                        &cb,
                        &symbols,
                        geometry(subseq_units, spb),
                        true,
                    );
                    for kind in FLAT {
                        let context = format!("{:?} units {} spb {}", kind, subseq_units, spb);
                        assert_eq!(
                            same_on_both(kind, &stream),
                            Ok(symbols.clone()),
                            "{}",
                            context
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn forged_gap_arrays_get_the_kernels_answer() {
        let symbols = quant_symbols(6_000, 6);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let honest = EncodedStream::encode_with(&cb, &symbols, geometry(1, 3), true);
        let forge = |gap: fn(u64) -> u8| (0..honest.num_subseqs() as u64).map(gap).collect();
        // 255 reaches past the next boundary, so starts stop being monotonic.
        let forgeries = [
            ("zero gaps start mid-codeword", forge(|_| 0)),
            ("gaps past the next boundary", forge(|_| 255)),
            ("alternating", forge(|i| if i % 2 == 0 { 255 } else { 0 })),
            ("random", forge(|i| mix(29, i) as u8)),
        ];
        for (what, gaps) in forgeries {
            let mut forged = honest.clone();
            forged.gap_array.as_mut().unwrap().gaps = gaps;
            assert!(
                same_on_both(DecoderKind::OptimizedGapArray, &forged).is_err(),
                "{}",
                what
            );
        }
        // One forged gap at a time, over the first sequences.
        for sub in 1..12 {
            let mut forged = honest.clone();
            forged.gap_array.as_mut().unwrap().gaps[sub] ^= 0x55;
            let _ = same_on_both(DecoderKind::OptimizedGapArray, &forged);
        }
    }

    #[test]
    fn incomplete_codes_and_cut_streams_get_the_kernels_answer() {
        // Kraft sum < 1: the bits of a damaged stream stop resolving.
        let cb = Codebook::from_length_pairs(8, &[(0, 2), (1, 2), (2, 3), (3, 12)]).unwrap();
        let symbols: Vec<u16> = (0..5_000)
            .map(|i| [0, 1, 2, 0, 1, 3][(mix(3, i) % 6) as usize])
            .collect();
        let honest = EncodedStream::encode_with(&cb, &symbols, geometry(1, 4), true);
        for kind in FLAT {
            assert_eq!(
                same_on_both(kind, &honest),
                Ok(symbols.clone()),
                "{:?}",
                kind
            );
            for seed in 0..6 {
                let mut damaged = honest.clone();
                for k in 0..8 {
                    let unit = (mix(seed, k) % damaged.units.len() as u64) as usize;
                    damaged.units[unit] ^= mix(seed + 100, k) as u32;
                }
                let _ = same_on_both(kind, &damaged);
            }
            // The bit length cut mid-codeword, the gap array trimmed to match.
            for cut in [1, 5, 11, 31, 32, 33, 200] {
                let mut cut_stream = honest.clone();
                cut_stream.bit_len -= cut;
                let subs = cut_stream.num_subseqs();
                cut_stream.gap_array.as_mut().unwrap().gaps.truncate(subs);
                assert!(
                    same_on_both(kind, &cut_stream).is_err(),
                    "{:?} cut {}",
                    kind,
                    cut
                );
            }
            for declared in [symbols.len() - 1, symbols.len() + 1] {
                let mut lying = honest.clone();
                lying.num_symbols = declared;
                assert_eq!(
                    same_on_both(kind, &lying),
                    Err(DecodeError::CorruptStream { decoder: kind })
                );
            }
        }
    }

    /// A code whose codewords are all three bits long never resynchronizes: a decode
    /// that starts off the codeword grid stays off it. With 32-bit subsequences, four
    /// to a sequence, two of every three sequence boundaries are off the grid, so the
    /// chain re-decodes those sequences whole; an aligned 32-bit subsequence holds 11
    /// codeword starts, one more than ⌊32 / 3⌋, so every region needs its per-subsequence
    /// spare slot.
    #[test]
    fn a_sequence_that_never_resynchronizes_is_redecoded_whole() {
        let cb = Codebook::from_lengths(&[3; 8]);
        let symbols: Vec<u16> = (0..3_000).map(|i| (mix(11, i) % 8) as u16).collect();
        let stream = EncodedStream::encode_with(&cb, &symbols, geometry(1, 4), true);
        for kind in FLAT {
            assert_eq!(
                same_on_both(kind, &stream),
                Ok(symbols.clone()),
                "{:?}",
                kind
            );
        }
        let (_, infos, _) = walk(&cpu(), DecoderKind::OptimizedSelfSync, &stream).unwrap();
        // Sequence 1 starts at bit 128; its first codeword starts at 129.
        assert_eq!((infos[4].start_bit, infos[8].start_bit), (129, 258));
    }

    #[test]
    fn empty_and_one_sequence_streams_get_the_kernels_answer() {
        let cb = Codebook::from_symbols(&[0u16], 4);
        let empty = EncodedStream::encode(&cb, &[]);
        let one = EncodedStream::encode(
            &Codebook::from_symbols(&[5u16, 6, 6, 7], 16),
            &[5, 6, 6, 7, 6],
        );
        assert_eq!(one.num_seqs(), 1);
        for kind in [
            DecoderKind::OptimizedSelfSync,
            DecoderKind::OriginalSelfSync,
        ] {
            assert_eq!(same_on_both(kind, &empty), Ok(Vec::new()));
            let mut lying = empty.clone();
            lying.num_symbols = 1;
            assert!(same_on_both(kind, &lying).is_err());
            assert_eq!(same_on_both(kind, &one), Ok(vec![5, 6, 6, 7, 6]));
        }
    }

    #[test]
    fn a_full_decode_is_one_launch_in_one_phase() {
        let symbols = quant_symbols(40_000, 5);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let stream = EncodedStream::encode_with_gap_array(&cb, &symbols);
        for kind in FLAT {
            let t = decode_walk(&cpu(), kind, &stream).unwrap().timings;
            assert_eq!(t.kernel_launches(), 1, "{:?}", kind);
            assert!(t.intra_sync.is_none() && t.inter_sync.is_none());
            assert!(t.output_index.is_none() && t.tune.is_none());
            let phase = t.decode_write.unwrap();
            assert!(phase.seconds >= phase.kernels[0].time_s);
            assert_eq!(phase.kernels[0].grid_dim, stream.num_seqs() as u32);
        }
    }
}
