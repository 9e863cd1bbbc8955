//! Batched multi-field decoding: N fields' decodes scheduled as one wave.
//!
//! Snapshot archives pack many fields (HACC particle arrays, GAMESS integral blocks)
//! into one file; decoding them one-after-another leaves the device under-occupied
//! whenever a single field's grid cannot fill it, and pays every kernel's launch
//! overhead on the critical path. A **wave** ([`decode_wave`]) instead runs a per-field
//! decode function over the fields concurrently on the device's worker pool (the
//! functional side) and models the timing as kernels launched on independent CUDA
//! streams (the performance side, [`gpu_sim::concurrent_time`]) — the same multi-field
//! batching direction cuSZ takes to keep the GPU saturated across fields. A wave of one
//! is the serial decode: it runs on the calling thread and its batched estimate equals
//! its serial time. [`decode_batch`] is the wave over [`decode`]; the `sz` layer runs
//! the same wave over its dense-or-hybrid dispatch, so hybrid fields overlap like any
//! other.
//!
//! The model is conservative in both directions: the batched wave can never beat the
//! longest single field's serial phase chain (phases within a field are dependent), and
//! can never be slower than decoding the fields serially.

use std::sync::OnceLock;
use std::time::Instant;

use gpu_sim::{Backend, KernelStats};

use crate::decoder::{check_payload, decode, CompressedPayload, DecodeError, DecoderKind};
use crate::phases::DecodeResult;

/// Aggregate timing of one batched decode wave. Per-field phase breakdowns stay in the
/// corresponding [`DecodeResult::timings`]; this aggregates them into the serial
/// baseline and the batched wave estimate.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Number of fields in the wave.
    pub fields: usize,
    /// Total simulated kernel launches across all fields.
    pub kernel_launches: usize,
    /// What decoding the fields one-after-another would cost (sum of per-field totals).
    pub serial_seconds: f64,
    /// Estimated time of the batched wave: all fields' kernels overlapped on
    /// independent streams, bounded below by the longest single field's phase chain.
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

    /// Serial-decode throughput in GB/s relative to `useful_bytes`.
    pub fn serial_throughput_gbs(&self, useful_bytes: u64) -> f64 {
        throughput(useful_bytes, self.serial_seconds)
    }

    /// Batched-decode throughput in GB/s relative to `useful_bytes`.
    pub fn batched_throughput_gbs(&self, useful_bytes: u64) -> f64 {
        throughput(useful_bytes, self.batched_seconds)
    }
}

fn throughput(useful_bytes: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        useful_bytes as f64 / seconds / 1e9
    }
}

/// Decodes `items` as one batch: every field's payload with its decoder, as one
/// [`decode_wave`] over [`decode`]. Results are returned in input order.
///
/// Payload/decoder mismatches are checked **before** any decode runs, so a bad item
/// fails the whole batch without wasted work, with the same typed
/// [`DecodeError::PayloadMismatch`] the single-field path reports. Hybrid payloads are
/// rejected the same way: like [`decode`], this entry point covers only the dense
/// formats (`sz::decode_payload_batch` is the wave that also takes hybrid fields).
pub fn decode_batch(
    gpu: &dyn Backend,
    items: &[(DecoderKind, &CompressedPayload)],
) -> Result<(Vec<DecodeResult>, BatchStats), DecodeError> {
    for &(kind, payload) in items {
        check_payload(kind, payload)?;
    }
    decode_wave(gpu, items, |&(kind, payload)| decode(gpu, kind, payload))
}

/// Runs `decode_field` over every item as one wave and aggregates the timing into a
/// [`BatchStats`]. Results come back in input order; the first failing field (in input
/// order) fails the wave.
///
/// The fields are the tasks of one [`Backend::run_tasks`] call, so they run on the
/// device's own worker pool, which is bounded by its host-thread budget
/// ([`Backend::host_threads`]) and spawns nothing per wave. While the wave holds the
/// pool, each field's own launches run on the thread decoding that field: fields, not
/// blocks, are the wave's unit of parallelism, exactly like kernels from independent
/// streams. A wave of one, or a wave on a one-thread session, decodes on the calling
/// thread and leaves the pool to that field's launches.
pub fn decode_wave<T: Sync>(
    gpu: &dyn Backend,
    items: &[T],
    decode_field: impl Fn(&T) -> Result<DecodeResult, DecodeError> + Sync,
) -> Result<(Vec<DecodeResult>, BatchStats), DecodeError> {
    let slots: Vec<OnceLock<Result<DecodeResult, DecodeError>>> =
        items.iter().map(|_| OnceLock::new()).collect();
    let wave_start = Instant::now();
    gpu.run_tasks(items.len(), &|i| {
        slots[i]
            .set(decode_field(&items[i]))
            .expect("a field decodes once");
    });
    let wave_elapsed = wave_start.elapsed().as_secs_f64();
    let mut fields = Vec::with_capacity(items.len());
    for slot in slots {
        fields.push(slot.into_inner().expect("every field was decoded")?);
    }

    let mut stats = batch_stats(gpu, &fields);
    if !gpu.is_modeled() {
        // A real backend does not need the stream model: the pool above *is* the
        // overlapped wave, so use its measured wall clock — clamped to the same
        // invariants the model guarantees (never under the longest field's own chain,
        // never over the serial sum).
        let longest_field = fields
            .iter()
            .map(|f| f.timings.total_seconds())
            .fold(0.0f64, f64::max);
        stats.batched_seconds = wave_elapsed.max(longest_field).min(stats.serial_seconds);
    }
    Ok((fields, stats))
}

/// Aggregates per-field decode timings into the serial baseline and the batched wave
/// estimate.
fn batch_stats(gpu: &dyn Backend, fields: &[DecodeResult]) -> BatchStats {
    let mut kernels: Vec<KernelStats> = Vec::new();
    let mut host_seconds = 0.0f64;
    let mut serial_seconds = 0.0f64;
    let mut longest_field = 0.0f64;
    for field in fields {
        let total = field.timings.total_seconds();
        serial_seconds += total;
        longest_field = longest_field.max(total);
        for (_, phase) in field.timings.phases() {
            kernels.extend(phase.kernels.iter().cloned());
            // Phase seconds beyond the kernel times are host/transfer work that does
            // not overlap in the stream model.
            host_seconds +=
                (phase.seconds - phase.kernels.iter().map(|k| k.time_s).sum::<f64>()).max(0.0);
        }
    }
    let wave = gpu.concurrent(&kernels);
    // Within a field the phases are serially dependent, so the wave can never undercut
    // the longest single field; across fields everything may overlap.
    let batched_seconds = (wave.time_s + host_seconds)
        .max(longest_field)
        .min(serial_seconds);
    BatchStats {
        fields: fields.len(),
        kernel_launches: kernels.len(),
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
        let (results, _) = decode_wave(&g, &payloads, |payload| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "a host_threads(1) wave must not spawn"
            );
            decode(&g, DecoderKind::OptimizedGapArray, payload)
        })
        .unwrap();
        assert_eq!(results.len(), 4);
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
