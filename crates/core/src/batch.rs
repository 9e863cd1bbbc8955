//! Batched multi-field decoding: N fields' decodes scheduled as one wave.
//!
//! Snapshot archives pack many fields (HACC particle arrays, GAMESS integral blocks)
//! into one file; decoding them one-after-another leaves the device under-occupied
//! whenever a single field's grid cannot fill it, and pays every kernel's launch
//! overhead on the critical path. A **wave** ([`decode_wave`]) instead runs each
//! field's whole job — its decode, and whatever the caller does with the symbols —
//! concurrently on the device's worker pool (the functional side), and models the
//! Huffman timing as kernels launched on independent CUDA streams (the performance
//! side, [`gpu_sim::concurrent_time`]) — the same multi-field batching direction cuSZ
//! takes to keep the GPU saturated across fields. Every field gets its own outcome, so
//! a corrupt stream fails only its own field. A wave of one is the serial decode: it
//! runs on the calling thread and its batched estimate equals its serial time.
//! [`decode_batch`] is the wave over [`decode`], dense and hybrid fields alike; the
//! codec runs the same wave over decode plus reconstruction.
//!
//! The wave is timed here and only here, end to end: each field's whole job is its
//! Huffman phases plus the rest the caller reports (reconstruction, for a data field).
//! On the simulator the stream model overlaps the Huffman kernels and every field's
//! rest is added after; on a real backend the wave's one wall clock is the batched
//! time. Either way the estimate is conservative in both directions: the batched wave
//! can never beat the longest single field's whole job (phases within a field are
//! dependent), and can never be slower than running the fields serially.

use std::sync::OnceLock;
use std::time::Instant;

use gpu_sim::{Backend, KernelStats};

use crate::decoder::{check_payload, decode, CompressedPayload, DecodeError, DecoderKind};
use crate::phases::{throughput_gbs, DecodeResult, PhaseBreakdown};

/// Aggregate timing of one batched decode wave: every finished field's whole job,
/// summed into the serial baseline and overlapped into the batched wave estimate.
/// Per-field phase breakdowns stay with each field's own result.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Number of fields in the wave.
    pub fields: usize,
    /// Total Huffman kernel launches across all fields.
    pub kernel_launches: usize,
    /// What running the fields' jobs one-after-another would cost (sum of per-field
    /// totals).
    pub serial_seconds: f64,
    /// Time of the batched wave: on the simulator, all fields' Huffman kernels
    /// overlapped on independent streams plus every field's rest; on a real backend,
    /// the wave's wall clock. Bounded below by the longest single field's whole job.
    pub batched_seconds: f64,
}

impl BatchStats {
    /// Speedup of the batched wave over serial decoding (≥ 1 by construction).
    pub fn overlap_speedup(&self) -> f64 {
        if self.batched_seconds <= 0.0 {
            1.0
        } else {
            self.serial_seconds / self.batched_seconds
        }
    }

    /// Serial throughput in GB/s relative to `useful_bytes`.
    pub fn serial_throughput_gbs(&self, useful_bytes: u64) -> f64 {
        throughput_gbs(useful_bytes, self.serial_seconds)
    }

    /// Batched throughput in GB/s relative to `useful_bytes`.
    pub fn batched_throughput_gbs(&self, useful_bytes: u64) -> f64 {
        throughput_gbs(useful_bytes, self.batched_seconds)
    }
}

/// Decodes `items` as one batch: every field's payload with its decoder, as one
/// [`decode_wave`] over [`decode`]. Results are returned in input order.
///
/// Payload/decoder mismatches are checked **before** any decode runs, so a bad item
/// fails the whole batch without wasted work, with the same typed
/// [`DecodeError::PayloadMismatch`] the single-field path reports. Like [`decode`], it
/// takes every [`DecoderKind`], hybrid fields riding the wave with the dense ones. The
/// first field (in input order) that fails to decode fails the batch.
pub fn decode_batch(
    gpu: &dyn Backend,
    items: &[(DecoderKind, &CompressedPayload)],
) -> Result<(Vec<DecodeResult>, BatchStats), DecodeError> {
    for &(kind, payload) in items {
        check_payload(kind, payload)?;
    }
    let (fields, stats) = decode_wave(
        gpu,
        items,
        |&(kind, payload)| decode(gpu, kind, payload),
        |r| (&r.timings, 0.0),
    );
    Ok((fields.into_iter().collect::<Result<_, _>>()?, stats))
}

/// Runs `run_field` — one field's whole job — over every item as one wave, and times
/// the fields that succeed into a [`BatchStats`]. Every field gets its own outcome, in
/// input order: a failing field fails only itself. `timing` reads a finished field's
/// Huffman phase breakdown, the part of its job the stream model overlaps, and the
/// seconds of the rest of its job, which nothing overlaps.
///
/// The fields are the tasks of one [`Backend::run_tasks`] call, so they run on the
/// device's own worker pool, which is bounded by its host-thread budget
/// ([`Backend::host_threads`]) and spawns nothing per wave. While the wave holds the
/// pool, each field's own launches run on the thread running that field: fields, not
/// blocks, are the wave's unit of parallelism, exactly like kernels from independent
/// streams. A wave of one, or a wave on a one-thread session, runs on the calling
/// thread and leaves the pool to that field's launches.
///
/// This is the one clock of a wave: on a real backend its wall time, clamped to the
/// longest whole job below and the serial sum above, is the batched time.
pub fn decode_wave<T: Sync, O: Send + Sync, E: Send + Sync>(
    gpu: &dyn Backend,
    items: &[T],
    run_field: impl Fn(&T) -> Result<O, E> + Sync,
    timing: impl Fn(&O) -> (&PhaseBreakdown, f64),
) -> (Vec<Result<O, E>>, BatchStats) {
    let slots: Vec<OnceLock<Result<O, E>>> = items.iter().map(|_| OnceLock::new()).collect();
    let wave_start = Instant::now();
    gpu.run_tasks(items.len(), &|i| {
        let fresh = slots[i].set(run_field(&items[i])).is_ok();
        assert!(fresh, "a field runs once");
    });
    let wave_elapsed = wave_start.elapsed().as_secs_f64();
    let fields: Vec<Result<O, E>> = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every field ran"))
        .collect();
    let finished: Vec<(&PhaseBreakdown, f64)> = fields.iter().flatten().map(timing).collect();
    let stats = batch_stats(gpu, &finished, wave_elapsed);
    (fields, stats)
}

/// Aggregates the finished fields' timings — each its Huffman breakdown and the rest
/// of its job — into the serial baseline and the batched wave time. `wall` is the
/// wave's measured wall clock, the batched time of an unmodeled backend.
fn batch_stats(gpu: &dyn Backend, fields: &[(&PhaseBreakdown, f64)], wall: f64) -> BatchStats {
    // Only the stream model reads the kernels themselves; a real backend counts them.
    let modeled = gpu.is_modeled();
    let (mut kernels, mut kernel_launches) = (Vec::<KernelStats>::new(), 0);
    let mut host_seconds = 0.0f64;
    let (mut huffman_seconds, mut rest_seconds) = (0.0f64, 0.0f64);
    let (mut longest_huffman, mut longest_job) = (0.0f64, 0.0f64);
    for &(huffman, rest) in fields {
        let total = huffman.total_seconds();
        huffman_seconds += total;
        rest_seconds += rest;
        longest_huffman = longest_huffman.max(total);
        longest_job = longest_job.max(total + rest);
        for (_, phase) in huffman.phases() {
            kernel_launches += phase.kernels.len();
            if modeled {
                kernels.extend(phase.kernels.iter().cloned());
            }
            // Phase seconds beyond the kernel times are host/transfer work that does
            // not overlap in the stream model.
            host_seconds +=
                (phase.seconds - phase.kernels.iter().map(|k| k.time_s).sum::<f64>()).max(0.0);
        }
    }
    let serial_seconds = huffman_seconds + rest_seconds;
    let batched_seconds = if modeled {
        // Within a field the phases are serially dependent, so the Huffman wave can
        // never undercut the longest single field; across fields everything may
        // overlap. The rest of every field's job follows, unoverlapped.
        let wave = gpu.concurrent(&kernels);
        let huffman_wave = (wave.time_s + host_seconds)
            .max(longest_huffman)
            .min(huffman_seconds);
        huffman_wave + rest_seconds
    } else {
        // A real backend does not need the stream model: the pool *is* the overlapped
        // wave, so its wall clock is the batched time — clamped to the same invariants
        // the model guarantees.
        wall.max(longest_job).min(serial_seconds)
    };
    BatchStats {
        fields: fields.len(),
        kernel_launches,
        serial_seconds,
        batched_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::compress_for;
    use crate::testutil::gpu;
    use gpu_sim::Gpu;
    use gpu_sim::GpuConfig;

    fn quant_symbols(n: usize, salt: u32) -> Vec<u16> {
        (0..n as u32)
            .map(|i| {
                let r = (i ^ salt).wrapping_mul(2654435761).rotate_left(9);
                (512 + (r.trailing_zeros().min(6) as i32) * if (r >> 1) & 1 == 1 { 1 } else { -1 })
                    as u16
            })
            .collect()
    }

    #[test]
    fn batch_matches_serial_decodes_bit_exactly() {
        let g = gpu();
        let fields: Vec<(DecoderKind, Vec<u16>)> = vec![
            (DecoderKind::OptimizedGapArray, quant_symbols(40_000, 1)),
            (DecoderKind::OptimizedSelfSync, quant_symbols(25_000, 2)),
            (DecoderKind::CuszBaseline, quant_symbols(30_000, 3)),
            (DecoderKind::OriginalSelfSync, quant_symbols(10_000, 4)),
        ];
        let payloads: Vec<_> = fields
            .iter()
            .map(|(kind, symbols)| (*kind, compress_for(*kind, symbols, 1024)))
            .collect();
        let items: Vec<_> = payloads.iter().map(|(k, p)| (*k, p)).collect();
        let (results, stats) = decode_batch(&g, &items).unwrap();
        assert_eq!(results.len(), fields.len());
        for ((_, symbols), result) in fields.iter().zip(&results) {
            assert_eq!(&result.symbols, symbols);
        }
        assert_eq!(stats.fields, 4);
        assert!(stats.kernel_launches > 0);
        assert!(stats.serial_seconds > 0.0);
        assert!(stats.batched_seconds > 0.0);
        // The wave is never slower than serial and never faster than the longest field.
        assert!(stats.batched_seconds <= stats.serial_seconds + 1e-15);
        let longest = results
            .iter()
            .map(|r| r.timings.total_seconds())
            .fold(0.0f64, f64::max);
        assert!(stats.batched_seconds >= longest - 1e-15);
        assert!(stats.overlap_speedup() >= 1.0);
        let bytes: u64 = results.iter().map(|r| r.symbols.len() as u64 * 2).sum();
        assert!(stats.batched_throughput_gbs(bytes) >= stats.serial_throughput_gbs(bytes));
        // Per-field breakdowns agree with a standalone decode of the same payload.
        let solo = decode(&g, items[0].0, items[0].1).unwrap();
        assert!((solo.timings.total_seconds() - results[0].timings.total_seconds()).abs() < 1e-12);
    }

    #[test]
    fn one_thread_session_runs_the_wave_on_the_calling_thread() {
        let g = Gpu::with_host_threads(GpuConfig::test_tiny(), 1);
        let payloads: Vec<CompressedPayload> = (0..4)
            .map(|salt| {
                compress_for(
                    DecoderKind::OptimizedGapArray,
                    &quant_symbols(3_000, salt),
                    1024,
                )
            })
            .collect();
        let caller = std::thread::current().id();
        let (results, _) = decode_wave(
            &g,
            &payloads,
            |payload| {
                assert_eq!(
                    std::thread::current().id(),
                    caller,
                    "a host_threads(1) wave must not spawn"
                );
                decode(&g, DecoderKind::OptimizedGapArray, payload)
            },
            |r| (&r.timings, 0.0),
        );
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(Result::is_ok));
    }

    #[test]
    fn empty_batch_is_trivial() {
        let (results, stats) = decode_batch(&gpu(), &[]).unwrap();
        assert!(results.is_empty());
        assert_eq!(stats.fields, 0);
        assert_eq!(stats.overlap_speedup(), 1.0);
        assert_eq!(stats.batched_throughput_gbs(100), 0.0);
    }

    #[test]
    fn mismatched_item_fails_the_batch_before_decoding() {
        let g = gpu();
        let symbols = quant_symbols(5_000, 9);
        let good = compress_for(DecoderKind::OptimizedGapArray, &symbols, 1024);
        let flat_no_gap = compress_for(DecoderKind::OptimizedSelfSync, &symbols, 1024);
        let err = decode_batch(
            &g,
            &[
                (DecoderKind::OptimizedGapArray, &good),
                (DecoderKind::OptimizedGapArray, &flat_no_gap),
            ],
        )
        .unwrap_err();
        assert_eq!(
            err,
            DecodeError::PayloadMismatch {
                decoder: DecoderKind::OptimizedGapArray
            }
        );
    }
}
