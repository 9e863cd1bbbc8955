//! Self-synchronization phases (Weißenberger & Schmidt, with the paper's §IV-A
//! optimization).
//!
//! The self-synchronization decoder needs no encoder cooperation: each thread is placed at
//! its subsequence boundary (generally *not* a codeword boundary), decodes speculatively,
//! and relies on the self-synchronization property of Huffman codes to land on true
//! codeword boundaries. Two phases establish the converged per-subsequence state:
//!
//! * **intra-sequence synchronization** — within each sequence (thread block), threads
//!   repeatedly decode their subsequence from the currently-proposed start until every
//!   thread's proposed start stops changing ("the previous thread meets up with the
//!   current thread's synchronization point"). The *original* implementation busy-waits
//!   until the maximum possible iteration count; the *optimized* implementation uses a
//!   block-wide vote (`__all_sync`) to exit as soon as every thread has validated its
//!   synchronization point (§IV-A — ~11% faster on average).
//! * **inter-sequence synchronization** — sequences were synchronized under the assumption
//!   that they start at their own boundary; this phase chains the true end of each
//!   sequence into the next and re-synchronizes the few affected subsequences.

use gpu_sim::{cost, Backend, BlockContext, BlockKernel, DeviceBuffer, LaunchConfig, PhaseTime};
use huffman::BitReader;

use crate::format::EncodedStream;
use crate::subseq::SubseqInfo;

/// Cycles a synchronized thread spends per busy-wait iteration in the original
/// implementation (loop-condition check only; there is no per-iteration barrier while
/// spinning).
const IDLE_SPIN_CYCLES: f64 = 1.5;

/// Which intra-sequence synchronization implementation to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncVariant {
    /// The original Weißenberger & Schmidt kernel: every block runs the maximum possible
    /// number of iterations.
    Original,
    /// The paper's optimized kernel: blocks exit as soon as `__all_sync` reports that all
    /// threads have validated their synchronization points.
    Optimized,
}

/// Result of the synchronization phases.
#[derive(Debug, Clone)]
pub struct SyncResult {
    /// Converged per-subsequence state.
    pub infos: Vec<SubseqInfo>,
    /// Timing of the intra-sequence phase.
    pub intra_phase: PhaseTime,
    /// Timing of the inter-sequence phase.
    pub inter_phase: PhaseTime,
}

/// Per-subsequence working state shared between the kernels.
struct SyncBuffers {
    start: DeviceBuffer<u64>,
    end: DeviceBuffer<u64>,
    count: DeviceBuffer<u64>,
}

struct IntraSyncKernel<'a> {
    stream: &'a EncodedStream,
    bufs: &'a SyncBuffers,
    variant: SyncVariant,
}

impl BlockKernel for IntraSyncKernel<'_> {
    fn name(&self) -> &str {
        match self.variant {
            SyncVariant::Original => "self_sync::intra_original",
            SyncVariant::Optimized => "self_sync::intra_optimized",
        }
    }

    fn block(&self, ctx: &mut BlockContext) {
        let geo = self.stream.geometry;
        let spb = geo.subseqs_per_seq as usize;
        let subseq_bits = geo.subseq_bits();
        let total_subs = self.stream.num_subseqs();
        let first_sub = ctx.block_idx() as usize * spb;
        if first_sub >= total_subs {
            return;
        }
        let n = spb.min(total_subs - first_sub);
        let reader = BitReader::new(&self.stream.units, self.stream.bit_len);
        let warp_size = ctx.config().warp_size as usize;

        // Thread-local working state (the real kernel keeps this in shared memory).
        let mut start: Vec<u64> = (0..n)
            .map(|t| (first_sub + t) as u64 * subseq_bits)
            .collect();
        let mut end = vec![0u64; n];
        let mut count = vec![0u64; n];
        let mut needs_decode = vec![true; n];
        let mut synced = vec![false; n];

        let max_iterations = spb as u32;
        let mut active_iterations = 0u32;

        loop {
            active_iterations += 1;

            // Decode step: every unsynchronized thread decodes its subsequence from its
            // currently-proposed start.
            // A warp in lock-step pays its slowest lane; only the lanes still decoding
            // load units.
            let mut warp_cycles = 0.0f64;
            let mut active = 0u32;
            for t in 0..n {
                let warp = (t / warp_size) as u32;
                let lane = t % warp_size;
                if needs_decode[t] {
                    let boundary =
                        ((first_sub + t + 1) as u64 * subseq_bits).min(self.stream.bit_len);
                    let (e, c) = self.stream.codebook.decode_run(
                        &reader,
                        start[t],
                        boundary,
                        self.stream.bit_len,
                        u64::MAX,
                        |_, _| {},
                    );
                    end[t] = e;
                    count[t] = c;
                    let bits = boundary.saturating_sub(start[t].min(boundary)).max(1);
                    warp_cycles = warp_cycles.max(bits as f64 * cost::DECODE_PER_BIT);
                    active += 1;
                }
                // Flush the warp's cost at warp boundaries and at the end.
                if lane == warp_size - 1 || t == n - 1 {
                    ctx.compute(warp, warp_cycles);
                    // Unit loads for the active lanes: strided by the subsequence size.
                    if active > 0 {
                        for round in 0..geo.subseq_units as u64 {
                            ctx.global_load_strided(
                                warp,
                                (first_sub + t / warp_size * warp_size) as u64
                                    * geo.subseq_units as u64
                                    + round,
                                active,
                                geo.subseq_units as u64,
                                4,
                            );
                        }
                    }
                    warp_cycles = 0.0;
                    active = 0;
                }
            }

            ctx.syncthreads();

            // Validation step: thread t's proposed start is the end reached by thread
            // t-1. A thread is synchronized once its proposal stops changing.
            let mut all_synced = true;
            for t in (1..n).rev() {
                let proposed = end[t - 1];
                if proposed == start[t] {
                    synced[t] = true;
                    needs_decode[t] = false;
                } else {
                    start[t] = proposed;
                    synced[t] = false;
                    needs_decode[t] = true;
                    all_synced = false;
                }
            }
            synced[0] = true;
            needs_decode[0] = false;
            for w in 0..ctx.warp_count() {
                ctx.compute(w, 3.0 * cost::ALU);
                ctx.warp_primitive(w); // __ballot/__all over the warp's synced flags.
            }
            ctx.syncthreads();

            if all_synced || active_iterations >= max_iterations {
                break;
            }
        }

        // The original implementation busy-waits until the maximum possible number of
        // iterations even after every thread has synchronized.
        if self.variant == SyncVariant::Original && active_iterations < max_iterations {
            let idle = (max_iterations - active_iterations) as f64;
            for w in 0..ctx.warp_count() {
                ctx.compute(w, idle * IDLE_SPIN_CYCLES);
            }
            ctx.syncthreads();
        }

        // Publish the converged state.
        for t in 0..n {
            self.bufs.start.set(first_sub + t, start[t]);
            self.bufs.end.set(first_sub + t, end[t]);
            self.bufs.count.set(first_sub + t, count[t]);
        }
        if ctx.warp_count() > 0 {
            for w in 0..ctx.warp_count() {
                ctx.global_store_contiguous(
                    w,
                    (first_sub + w as usize * warp_size) as u64 * 3,
                    warp_size as u32,
                    8,
                );
            }
        }
    }
}

struct InterSyncKernel<'a> {
    stream: &'a EncodedStream,
    /// Where each sequence but the last ended before this pass: `prev_ends[seq - 1]` is
    /// the one entry thread `seq` reads that another thread (`seq - 1`) may write.
    prev_ends: &'a [u64],
    /// The state, updated in place: a thread reads `start` only for the subsequences of
    /// its own sequence, each before it writes it.
    bufs: &'a SyncBuffers,
    /// One flag per sequence: set to 1 if this pass changed anything in that sequence.
    changed: &'a DeviceBuffer<u32>,
}

impl BlockKernel for InterSyncKernel<'_> {
    fn name(&self) -> &str {
        "self_sync::inter"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let geo = self.stream.geometry;
        let spb = geo.subseqs_per_seq as usize;
        let subseq_bits = geo.subseq_bits();
        let total_subs = self.stream.num_subseqs();
        let num_seqs = self.stream.num_seqs();
        let reader = BitReader::new(&self.stream.units, self.stream.bit_len);
        let warp_size = ctx.config().warp_size as usize;

        // One thread per sequence (sequence 0 never needs adjustment).
        let base_seq = (ctx.block_idx() * ctx.block_dim()) as usize + 1;
        let mut warp_cycles = 0.0f64;
        for t in 0..ctx.block_dim() as usize {
            let seq = base_seq + t;
            let warp = (t / warp_size) as u32;
            let lane = t % warp_size;
            if seq < num_seqs {
                let first_sub = seq * spb;
                let mut pos = self.prev_ends[seq - 1];
                let mut sub = first_sub;
                let seq_last_sub = (first_sub + spb).min(total_subs);
                let mut decoded_bits = 0u64;
                let mut any_change = false;
                while sub < seq_last_sub {
                    if pos == self.bufs.start.get(sub) {
                        break;
                    }
                    let boundary = ((sub + 1) as u64 * subseq_bits).min(self.stream.bit_len);
                    let (e, c) = self.stream.codebook.decode_run(
                        &reader,
                        pos,
                        boundary,
                        self.stream.bit_len,
                        u64::MAX,
                        |_, _| {},
                    );
                    self.bufs.start.set(sub, pos);
                    self.bufs.end.set(sub, e);
                    self.bufs.count.set(sub, c);
                    decoded_bits += boundary.saturating_sub(pos.min(boundary));
                    any_change = true;
                    pos = e;
                    sub += 1;
                }
                if any_change {
                    self.changed.set(seq, 1);
                }
                warp_cycles =
                    warp_cycles.max(decoded_bits as f64 * cost::DECODE_PER_BIT + 4.0 * cost::ALU);
            }
            if lane == warp_size - 1 || t == ctx.block_dim() as usize - 1 {
                ctx.compute(warp, warp_cycles);
                // Each active lane loads the state of the previous subsequence and a few
                // units; model one strided load per lane group.
                ctx.global_load_strided(warp, base_seq as u64, warp_size as u32, spb as u64, 8);
                warp_cycles = 0.0;
            }
        }
    }
}

/// Runs the intra- and inter-sequence synchronization phases for `stream` and returns the
/// converged per-subsequence state plus the phase timings.
pub fn synchronize(gpu: &dyn Backend, stream: &EncodedStream, variant: SyncVariant) -> SyncResult {
    let total_subs = stream.num_subseqs();
    let num_seqs = stream.num_seqs();
    if total_subs == 0 {
        return SyncResult {
            infos: Vec::new(),
            intra_phase: PhaseTime::empty(),
            inter_phase: PhaseTime::empty(),
        };
    }

    let bufs = SyncBuffers {
        start: DeviceBuffer::zeroed(total_subs),
        end: DeviceBuffer::zeroed(total_subs),
        count: DeviceBuffer::zeroed(total_subs),
    };

    // Intra-sequence phase: one block per sequence.
    let intra = IntraSyncKernel {
        stream,
        bufs: &bufs,
        variant,
    };
    let intra_stats = gpu.launch(
        &intra,
        LaunchConfig::new(num_seqs as u32, stream.geometry.subseqs_per_seq),
    );
    let intra_phase = PhaseTime::from_kernel(intra_stats);

    // Inter-sequence phase: one thread per sequence, repeated until a fixed point.
    let mut inter_phase = PhaseTime::empty();
    const INTER_BLOCK_DIM: u32 = 128;
    let spb = stream.geometry.subseqs_per_seq as usize;
    loop {
        // A Jacobi pass reads the previous pass's values: gather the sequence tail ends
        // the threads would otherwise race on.
        let prev_ends: Vec<u64> = (1..num_seqs)
            .map(|seq| bufs.end.get(seq * spb - 1))
            .collect();
        let changed = DeviceBuffer::<u32>::zeroed(num_seqs.max(1));
        let inter = InterSyncKernel {
            stream,
            prev_ends: &prev_ends,
            bufs: &bufs,
            changed: &changed,
        };
        let grid = ((num_seqs.saturating_sub(1)) as u32)
            .div_ceil(INTER_BLOCK_DIM)
            .max(1);
        let stats = gpu.launch(&inter, LaunchConfig::new(grid, INTER_BLOCK_DIM));
        inter_phase.push_serial(stats);
        if changed.into_vec().iter().all(|&c| c == 0) {
            break;
        }
    }

    let starts = bufs.start.into_vec();
    let counts = bufs.count.into_vec();
    let infos: Vec<SubseqInfo> = starts
        .into_iter()
        .zip(counts)
        .map(|(start_bit, num_symbols)| SubseqInfo {
            start_bit,
            num_symbols,
        })
        .collect();

    SyncResult {
        infos,
        intra_phase,
        inter_phase,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subseq::reference_subseq_infos;
    use crate::testutil::{gpu, quant_symbols};
    use huffman::Codebook;

    fn stream(n: usize, spread: u32) -> EncodedStream {
        let symbols = quant_symbols(n, spread);
        let cb = Codebook::from_symbols(&symbols, 1024);
        EncodedStream::encode(&cb, &symbols)
    }

    #[test]
    fn optimized_sync_converges_to_reference() {
        let s = stream(60_000, 7);
        let result = synchronize(&gpu(), &s, SyncVariant::Optimized);
        let reference = reference_subseq_infos(&s);
        assert_eq!(result.infos, reference);
        assert!(result.intra_phase.seconds > 0.0);
        assert!(result.inter_phase.seconds > 0.0);
    }

    #[test]
    fn original_sync_converges_to_reference() {
        let s = stream(40_000, 7);
        let result = synchronize(&gpu(), &s, SyncVariant::Original);
        assert_eq!(result.infos, reference_subseq_infos(&s));
    }

    #[test]
    fn original_intra_phase_is_slower_than_optimized() {
        let s = stream(120_000, 5);
        let original = synchronize(&gpu(), &s, SyncVariant::Original);
        let optimized = synchronize(&gpu(), &s, SyncVariant::Optimized);
        assert!(
            original.intra_phase.seconds > optimized.intra_phase.seconds,
            "original {} vs optimized {}",
            original.intra_phase.seconds,
            optimized.intra_phase.seconds
        );
        // Both decode identically.
        assert_eq!(original.infos, optimized.infos);
    }

    #[test]
    fn highly_compressible_stream_syncs_correctly() {
        // Nearly constant symbols: 1-bit codewords everywhere.
        let mut symbols = vec![512u16; 50_000];
        for i in (0..symbols.len()).step_by(503) {
            symbols[i] = 513;
        }
        let cb = Codebook::from_symbols(&symbols, 1024);
        let s = EncodedStream::encode(&cb, &symbols);
        let result = synchronize(&gpu(), &s, SyncVariant::Optimized);
        assert_eq!(result.infos, reference_subseq_infos(&s));
    }

    #[test]
    fn single_sequence_stream_needs_no_inter_adjustment() {
        let s = stream(2_000, 6);
        assert_eq!(s.num_seqs(), 1);
        let result = synchronize(&gpu(), &s, SyncVariant::Optimized);
        assert_eq!(result.infos, reference_subseq_infos(&s));
    }

    #[test]
    fn empty_stream() {
        let cb = Codebook::from_symbols(&[0u16], 4);
        let s = EncodedStream::encode(&cb, &[]);
        let result = synchronize(&gpu(), &s, SyncVariant::Optimized);
        assert!(result.infos.is_empty());
        assert_eq!(result.intra_phase.seconds, 0.0);
    }

    #[test]
    fn symbol_counts_sum_to_stream_total() {
        let s = stream(100_000, 8);
        let result = synchronize(&gpu(), &s, SyncVariant::Optimized);
        let total: u64 = result.infos.iter().map(|i| i.num_symbols).sum();
        assert_eq!(total, s.num_symbols as u64);
    }
}
