//! The decode-and-write phase (step 4), in both variants:
//!
//! * **direct write** — the original behaviour of both fine-grained decoders: each thread
//!   decodes its subsequence and writes every symbol straight to global memory at its own
//!   output offset. Adjacent threads' offsets are separated by a whole subsequence's worth
//!   of symbols, so warp-wide stores are badly coalesced — and the more compressible the
//!   data, the larger the stride *and* the more symbols must be written, which is exactly
//!   the collapse Fig. 2 shows;
//! * **shared-memory staged write** (Algorithm 1, §IV-B) — the block first decodes into a
//!   shared-memory buffer of `buffer_symbols` entries, then all threads cooperatively copy
//!   the buffer to global memory with fully coalesced stores. If the block's output is
//!   larger than the buffer, the loop runs multiple windows.
//!
//! Both kernels can operate on an arbitrary subset of sequences (`seq_indices`), which is
//! how the shared-memory tuner launches one kernel per compression-ratio class.

use gpu_sim::{cost, Backend, BlockContext, BlockKernel, DeviceBuffer, KernelStats, LaunchConfig};
use huffman::BitReader;

use crate::format::EncodedStream;
use crate::output_index::OutputIndex;
use crate::subseq::SubseqInfo;

/// How the decode-and-write kernel writes its output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteStrategy {
    /// Direct (strided) global-memory writes, as in the original decoders.
    Direct,
    /// Shared-memory staging with the given buffer capacity in symbols (Algorithm 1).
    Staged {
        /// Shared-memory buffer capacity in u16 symbols.
        buffer_symbols: u32,
    },
}

impl WriteStrategy {
    /// Dynamic shared memory the strategy requires, in bytes.
    pub fn shared_mem_bytes(&self) -> u32 {
        match self {
            WriteStrategy::Direct => 0,
            WriteStrategy::Staged { buffer_symbols } => buffer_symbols * 2,
        }
    }
}

/// The decode-and-write kernel. One block per (selected) sequence.
pub struct DecodeWriteKernel<'a> {
    /// The encoded stream.
    pub stream: &'a EncodedStream,
    /// Converged per-subsequence state.
    pub infos: &'a [SubseqInfo],
    /// Output offsets per subsequence.
    pub output_index: &'a OutputIndex,
    /// Output symbol buffer (length = total symbols).
    pub output: &'a DeviceBuffer<u16>,
    /// Sequences this launch is responsible for; block `i` handles `seq_indices[i]`.
    pub seq_indices: &'a [u32],
    /// Write strategy.
    pub strategy: WriteStrategy,
}

impl DecodeWriteKernel<'_> {
    fn decode_cost_bits(&self, sub: usize) -> u64 {
        let start = self.infos[sub].start_bit;
        let end = self
            .infos
            .get(sub + 1)
            .map(|i| i.start_bit)
            .unwrap_or(self.stream.bit_len)
            .max(start);
        end - start
    }
}

impl BlockKernel for DecodeWriteKernel<'_> {
    fn name(&self) -> &str {
        match self.strategy {
            WriteStrategy::Direct => "decode_write::direct",
            WriteStrategy::Staged { .. } => "decode_write::staged",
        }
    }

    fn block(&self, ctx: &mut BlockContext) {
        let geo = self.stream.geometry;
        let spb = geo.subseqs_per_seq as usize;
        let total_subs = self.stream.num_subseqs();
        let seq = match self.seq_indices.get(ctx.block_idx() as usize) {
            Some(&s) => s as usize,
            None => return,
        };
        let first_sub = seq * spb;
        if first_sub >= total_subs {
            return;
        }
        let n = spb.min(total_subs - first_sub);
        let warp_size = ctx.config().warp_size as usize;
        let reader = BitReader::new(&self.stream.units, self.stream.bit_len);

        // --- Functional decode: every thread decodes its subsequence once and the
        // symbols land at their output offsets (identical for both strategies).
        for t in 0..n {
            let sub = first_sub + t;
            let base = self.output_index.offsets[sub];
            self.stream.codebook.decode_run(
                &reader,
                self.infos[sub].start_bit,
                u64::MAX,
                self.stream.bit_len,
                self.infos[sub].num_symbols,
                |k, sym| self.output.set((base + k) as usize, sym),
            );
        }

        // --- Cost model.
        // Decode compute + unit loads are the same for both strategies.
        // A warp in lock-step pays its slowest lane and stores as many rounds as its
        // longest run; both are running maxima over the warp's lanes.
        let mut warp_cycles = 0.0f64;
        let mut max_syms = 0u64;
        let mut sum_syms = 0u64;
        for t in 0..n {
            let sub = first_sub + t;
            let warp = (t / warp_size) as u32;
            let lane = t % warp_size;
            warp_cycles = warp_cycles.max(self.decode_cost_bits(sub) as f64 * cost::DECODE_PER_BIT);
            max_syms = max_syms.max(self.infos[sub].num_symbols);
            sum_syms += self.infos[sub].num_symbols;
            if lane == warp_size - 1 || t == n - 1 {
                ctx.compute(warp, warp_cycles);
                let active = (lane + 1) as u32;
                for round in 0..geo.subseq_units as u64 {
                    ctx.global_load_strided(
                        warp,
                        (first_sub + t - lane) as u64 * geo.subseq_units as u64 + round,
                        active,
                        geo.subseq_units as u64,
                        4,
                    );
                }

                // Store cost depends on the strategy.
                match self.strategy {
                    WriteStrategy::Direct => {
                        // Each lane writes its own run of symbols; warp-wide store rounds
                        // are strided by the (average) run length. On top of the sector
                        // inefficiency, large strides defeat DRAM row-buffer locality:
                        // with thousands of concurrent warps each streaming to a region
                        // `stride * 2` bytes away from its neighbour, writes hit a fresh
                        // DRAM row far more often as the stride grows. The penalty is
                        // modelled as extra store rounds (traffic + issue) growing with
                        // the stride — this is what makes the original fine-grained
                        // decoders collapse on highly-compressible data (Fig. 2).
                        let stride = (sum_syms / (lane as u64 + 1)).max(1);
                        let row_locality_penalty =
                            (stride as f64 / 24.0).powf(1.5).clamp(1.0, 10.0).round() as u64;
                        let warp_out_base = self.output_index.offsets[first_sub + t - lane];
                        for round in 0..max_syms {
                            for _ in 0..row_locality_penalty {
                                ctx.global_store_strided(
                                    warp,
                                    warp_out_base + round,
                                    active,
                                    stride,
                                    2,
                                );
                            }
                        }
                    }
                    WriteStrategy::Staged { .. } => {
                        // Decoded symbols go to shared memory first: one shared store per
                        // symbol (conflict-free: threads write disjoint runs).
                        for _ in 0..max_syms {
                            ctx.shared_access_contiguous(warp, 1);
                        }
                    }
                }
                warp_cycles = 0.0;
                max_syms = 0;
                sum_syms = 0;
            }
        }

        // Staged strategy: the windowed cooperative copy of the shared buffer to global
        // memory (Algorithm 1's while-loop), fully coalesced.
        if let WriteStrategy::Staged { buffer_symbols } = self.strategy {
            let seq_start_out = self.output_index.offsets[first_sub];
            let last_sub = first_sub + n - 1;
            let seq_end_out =
                self.output_index.offsets[last_sub] + self.infos[last_sub].num_symbols;
            let total_out = seq_end_out - seq_start_out;
            let windows = total_out.div_ceil(buffer_symbols as u64).max(1);
            let block_threads = ctx.block_dim() as u64;
            for w_idx in 0..windows {
                let window_syms =
                    (total_out - w_idx * buffer_symbols as u64).min(buffer_symbols as u64);
                // Window bookkeeping + barrier before the cooperative write.
                for w in 0..ctx.warp_count() {
                    ctx.compute(w, 6.0 * cost::ALU);
                }
                // Algorithm 1 serializes the decode across windows: in each window only
                // the threads whose output range fits decode, while the rest of the block
                // waits at the barrier. Every window beyond the first therefore adds
                // (roughly) one subsequence's decode latency to the block — this is the
                // "allocating too little shared memory can reduce parallelism" half of the
                // §IV-C trade-off.
                if w_idx > 0 {
                    let redo = geo.subseq_bits() as f64 * cost::DECODE_PER_BIT;
                    for w in 0..ctx.warp_count() {
                        ctx.compute(w, redo);
                    }
                }
                ctx.syncthreads();
                // Cooperative copy: each round, every thread moves one symbol; stores are
                // contiguous across the block (perfectly coalesced 2-byte stores).
                let rounds = window_syms.div_ceil(block_threads);
                for w in 0..ctx.warp_count() {
                    for r in 0..rounds {
                        ctx.shared_access_contiguous(w, 1);
                        ctx.global_store_contiguous(
                            w,
                            seq_start_out
                                + w_idx * buffer_symbols as u64
                                + r * block_threads
                                + (w as u64 * warp_size as u64),
                            warp_size as u32,
                            2,
                        );
                    }
                }
                ctx.syncthreads();
            }
        }
    }
}

/// Launches the decode-and-write kernel over the given sequences and returns the kernel
/// statistics. The output buffer is filled functionally for the selected sequences.
pub fn run_decode_write(
    gpu: &dyn Backend,
    stream: &EncodedStream,
    infos: &[SubseqInfo],
    output_index: &OutputIndex,
    output: &DeviceBuffer<u16>,
    seq_indices: &[u32],
    strategy: WriteStrategy,
) -> KernelStats {
    let kernel = DecodeWriteKernel {
        stream,
        infos,
        output_index,
        output,
        seq_indices,
        strategy,
    };
    let cfg = LaunchConfig::new(seq_indices.len() as u32, stream.geometry.subseqs_per_seq)
        .with_shared_mem(strategy.shared_mem_bytes());
    gpu.launch(&kernel, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output_index::compute_output_index;
    use crate::subseq::reference_subseq_infos;
    use crate::testutil::{efficiency, gpu, quant_symbols};
    use huffman::Codebook;

    fn setup(n: usize, spread: u32) -> (EncodedStream, Vec<u16>) {
        let symbols = quant_symbols(n, spread);
        let cb = Codebook::from_symbols(&symbols, 1024);
        (EncodedStream::encode(&cb, &symbols), symbols)
    }

    fn decode_with(
        strategy: WriteStrategy,
        n: usize,
        spread: u32,
    ) -> (Vec<u16>, KernelStats, Vec<u16>) {
        let (stream, symbols) = setup(n, spread);
        let g = gpu();
        let infos = reference_subseq_infos(&stream);
        let (oi, _) = compute_output_index(&g, &infos);
        let output = DeviceBuffer::<u16>::zeroed(oi.total as usize);
        let all_seqs: Vec<u32> = (0..stream.num_seqs() as u32).collect();
        let stats = run_decode_write(&g, &stream, &infos, &oi, &output, &all_seqs, strategy);
        (output.to_vec(), stats, symbols)
    }

    #[test]
    fn direct_write_decodes_exactly() {
        let (decoded, stats, symbols) = decode_with(WriteStrategy::Direct, 60_000, 7);
        assert_eq!(decoded, symbols);
        assert!(stats.time_s > 0.0);
    }

    #[test]
    fn staged_write_decodes_exactly() {
        let (decoded, stats, symbols) = decode_with(
            WriteStrategy::Staged {
                buffer_symbols: 4096,
            },
            60_000,
            7,
        );
        assert_eq!(decoded, symbols);
        assert_eq!(stats.shared_mem_bytes, 8192);
    }

    #[test]
    fn staged_write_with_tiny_buffer_still_correct() {
        let (decoded, _, symbols) = decode_with(
            WriteStrategy::Staged {
                buffer_symbols: 1024,
            },
            30_000,
            7,
        );
        assert_eq!(decoded, symbols);
    }

    #[test]
    fn staged_write_is_more_memory_efficient_than_direct() {
        let (_, direct, _) = decode_with(WriteStrategy::Direct, 100_000, 3);
        let (_, staged, _) = decode_with(
            WriteStrategy::Staged {
                buffer_symbols: 4096,
            },
            100_000,
            3,
        );
        let eff_direct = efficiency(&direct.mem);
        let eff_staged = efficiency(&staged.mem);
        assert!(
            eff_staged > eff_direct,
            "staged efficiency {} should exceed direct {}",
            eff_staged,
            eff_direct
        );
    }

    #[test]
    fn highly_compressible_data_hurts_direct_writes_more() {
        // Spread 2 -> very short codes -> many symbols per subsequence -> large strides.
        let (_, direct_high_cr, _) = decode_with(WriteStrategy::Direct, 150_000, 1);
        let (_, staged_high_cr, _) = decode_with(
            WriteStrategy::Staged {
                buffer_symbols: 8192,
            },
            150_000,
            1,
        );
        // The staged kernel's DRAM traffic should be much smaller.
        assert!(
            direct_high_cr.mem.dram_bytes(32) > 2 * staged_high_cr.mem.dram_bytes(32),
            "direct traffic {} vs staged {}",
            direct_high_cr.mem.dram_bytes(32),
            staged_high_cr.mem.dram_bytes(32)
        );
    }

    #[test]
    fn subset_of_sequences_only_fills_that_subset() {
        let (stream, symbols) = setup(80_000, 7);
        let g = gpu();
        let infos = reference_subseq_infos(&stream);
        let (oi, _) = compute_output_index(&g, &infos);
        let output = DeviceBuffer::<u16>::zeroed(oi.total as usize);
        // Only decode even sequences.
        let seqs: Vec<u32> = (0..stream.num_seqs() as u32)
            .filter(|s| s % 2 == 0)
            .collect();
        run_decode_write(
            &g,
            &stream,
            &infos,
            &oi,
            &output,
            &seqs,
            WriteStrategy::Staged {
                buffer_symbols: 2048,
            },
        );
        let decoded = output.to_vec();
        let spb = stream.geometry.subseqs_per_seq as usize;
        // Check a symbol range covered by sequence 0 matches, and one covered by
        // sequence 1 does not (still zero).
        let seq0_end = oi.offsets[spb.min(oi.offsets.len() - 1)] as usize;
        assert_eq!(&decoded[..seq0_end], &symbols[..seq0_end]);
        if stream.num_seqs() > 1 {
            let seq1_start = seq0_end;
            let seq1_end = oi.offsets[(2 * spb).min(oi.offsets.len() - 1)] as usize;
            assert!(decoded[seq1_start..seq1_end]
                .iter()
                .any(|&v| v == 0 && symbols[seq1_start] != 0));
        }
    }
}
