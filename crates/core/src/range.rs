//! The prepare and decode/write phases every decode goes through, and the partial-range
//! decode built on them.
//!
//! The serving workload of the paper's §V GAMESS scenario (snapshots held compressed in
//! memory, fields decoded on demand) rarely needs a whole field at once. Every decoder's
//! stream format already carries enough structure to decode just the blocks that overlap
//! a requested symbol range:
//!
//! * the **chunked** (baseline) format records per-chunk `symbol_offset`/`num_symbols`,
//!   so the overlapping chunks are found by binary search and decoded independently;
//! * the **flat** formats reduce, after their preparation phases (self-synchronization
//!   or gap-array counting + output-index prefix sum), to per-subsequence
//!   [`SubseqInfo`]s and an [`OutputIndex`] — which map any symbol index back to the
//!   sequence (thread block) that produces it, so only those blocks need a
//!   decode/write launch.
//!
//! [`prepare_decode`] picks the preparation for the decoder (both synchronization
//! phases, or the gap-array symbol count; nothing for chunked streams, whose chunk table
//! is the index), runs the one output-index prefix sum, and refuses a stream whose
//! decoded count disagrees with its declared symbol count
//! ([`DecodeError::CorruptStream`]). The decode/write phase then launches over a set of
//! blocks: every block for a full [`crate::decode`] on the simulator (which is exactly
//! `prepare_decode` followed by that launch; an unmodeled backend walks a flat stream
//! instead), the overlapping blocks for [`decode_range`]. A server
//! computes the [`PreparedDecode`] index once per hot field and then answers arbitrarily
//! many range requests by launching the decode/write kernel over only the overlapping
//! blocks.

use gpu_sim::{Backend, DeviceBuffer, PhaseTime};

use crate::baseline::decode_baseline_chunks;
use crate::decode_write::{run_decode_write, WriteStrategy};
use crate::decoder::{check_payload, CheckedPayload, CompressedPayload, DecodeError, DecoderKind};
use crate::gap_decode::gap_count_symbols;
use crate::output_index::{compute_output_index, OutputIndex};
use crate::phases::PhaseBreakdown;
use crate::self_sync::{synchronize, SyncVariant};
use crate::subseq::SubseqInfo;
use crate::tuner::{tuned_decode_write, HIGH_CR_BUFFER_SYMBOLS};

/// The one-time preparation result of [`prepare_decode`]: everything the decode/write
/// phase needs that does not depend on which blocks it launches over.
///
/// `timings` records the simulated cost of the preparation phases — charged once,
/// however many range requests the index later serves.
#[derive(Debug, Clone)]
pub struct PreparedDecode {
    /// The converged per-subsequence state (synchronization or gap counting) and the
    /// output-index prefix sums of a flat stream. `None` for chunked streams: the chunk
    /// table in the payload *is* their index.
    flat: Option<(Vec<SubseqInfo>, OutputIndex)>,
    /// Simulated timing of the preparation phases (empty for chunked streams).
    pub timings: PhaseBreakdown,
}

/// The result of one partial decode.
#[derive(Debug, Clone)]
pub struct RangeDecode {
    /// Exactly the requested symbols (`len` of them).
    pub symbols: Vec<u16>,
    /// Simulated timing of this request's decode/write launch (preparation is *not*
    /// included — it lives in [`PreparedDecode::timings`] and is paid once).
    pub timings: PhaseBreakdown,
    /// Decode blocks (sequences or chunks) this request actually launched.
    pub decoded_blocks: usize,
    /// Total decode blocks in the stream (what a full decode would launch).
    pub total_blocks: usize,
}

/// Runs the range-independent preparation phases for `payload` and returns the reusable
/// decode index.
///
/// Returns [`DecodeError::PayloadMismatch`] when the payload's format does not match the
/// decoder and [`DecodeError::CorruptStream`] when a flat stream's bits decode to a
/// different symbol count than it declares, exactly as [`crate::decode`] would. A
/// hybrid payload is a mismatch here: it decodes whole, so it has no index to prepare.
pub fn prepare_decode(
    gpu: &dyn Backend,
    kind: DecoderKind,
    payload: &CompressedPayload,
) -> Result<PreparedDecode, DecodeError> {
    prepare_checked(gpu, kind, check_payload(kind, payload)?)
}

pub(crate) fn prepare_checked(
    gpu: &dyn Backend,
    kind: DecoderKind,
    payload: CheckedPayload<'_>,
) -> Result<PreparedDecode, DecodeError> {
    let mut timings = PhaseBreakdown::default();
    let stream = match payload {
        CheckedPayload::Chunked { .. } => {
            return Ok(PreparedDecode {
                flat: None,
                timings,
            })
        }
        CheckedPayload::Flat(stream) => stream,
        CheckedPayload::Hybrid(_) => return Err(DecodeError::PayloadMismatch { decoder: kind }),
    };
    let infos = if kind == DecoderKind::OptimizedGapArray {
        let (infos, count_phase) = gap_count_symbols(gpu, stream);
        timings.output_index = Some(count_phase);
        infos
    } else {
        let variant = if kind == DecoderKind::OriginalSelfSync {
            SyncVariant::Original
        } else {
            SyncVariant::Optimized
        };
        let sync = synchronize(gpu, stream, variant);
        timings.intra_sync = Some(sync.intra_phase);
        timings.inter_sync = Some(sync.inter_phase);
        sync.infos
    };
    let (output_index, prefix_phase) = compute_output_index(gpu, &infos);
    timings
        .output_index
        .get_or_insert_with(PhaseTime::empty)
        .extend_serial(prefix_phase);
    if output_index.total != stream.num_symbols as u64 {
        return Err(DecodeError::CorruptStream { decoder: kind });
    }
    Ok(PreparedDecode {
        flat: Some((infos, output_index)),
        timings,
    })
}

/// The decode/write phase: decodes `blocks` (chunks or sequences; `None` = every block)
/// into a device buffer spanning the whole stream, returning it with the phase timing
/// (`decode_write`, plus `tune` when the tuner ran).
///
/// A full decode with an optimized decoder runs the online shared-memory tuner
/// (Algorithm 2) and its per-class staged kernels; a block subset stages through the
/// high-compression-ratio buffer size instead, since tuning a handful of blocks would
/// cost more than it saves. The original self-sync decoder keeps its direct (strided)
/// writes either way, and the baseline launches one thread per chunk.
pub(crate) fn decode_write(
    gpu: &dyn Backend,
    kind: DecoderKind,
    payload: CheckedPayload<'_>,
    prepared: &PreparedDecode,
    blocks: Option<&[u32]>,
) -> Result<(DeviceBuffer<u16>, PhaseBreakdown), DecodeError> {
    let optimized = matches!(
        kind,
        DecoderKind::OptimizedSelfSync | DecoderKind::OptimizedGapArray
    );
    let tuned = blocks.is_none() && optimized;
    // The tuner picks its own per-class launches; every other full decode lists them all.
    let every_block: Vec<u32> = match blocks {
        None if !tuned => (0..payload.num_blocks().unwrap_or(0) as u32).collect(),
        _ => Vec::new(),
    };
    let blocks = blocks.unwrap_or(&every_block);
    let (output, stats) = match (payload, &prepared.flat) {
        (CheckedPayload::Chunked { encoded, codebook }, None) => {
            let output = DeviceBuffer::<u16>::zeroed(encoded.num_symbols);
            let stats = decode_baseline_chunks(gpu, encoded, codebook, blocks, &output)?;
            (output, stats)
        }
        (CheckedPayload::Flat(stream), Some((infos, output_index))) => {
            debug_assert_eq!(infos.len(), stream.num_subseqs(), "index/payload mismatch");
            let output = DeviceBuffer::<u16>::zeroed(output_index.total as usize);
            if tuned {
                let tuned = tuned_decode_write(gpu, stream, infos, output_index, &output);
                let phases = PhaseBreakdown {
                    tune: Some(tuned.tune_phase),
                    decode_write: Some(tuned.decode_phase),
                    ..PhaseBreakdown::default()
                };
                return Ok((output, phases));
            }
            let strategy = if optimized {
                WriteStrategy::Staged {
                    buffer_symbols: HIGH_CR_BUFFER_SYMBOLS,
                }
            } else {
                WriteStrategy::Direct
            };
            let stats =
                run_decode_write(gpu, stream, infos, output_index, &output, blocks, strategy);
            (output, stats)
        }
        _ => return Err(DecodeError::PayloadMismatch { decoder: kind }),
    };
    let phases = PhaseBreakdown {
        decode_write: Some(PhaseTime::from_kernel(stats)),
        ..PhaseBreakdown::default()
    };
    Ok((output, phases))
}

/// Decodes symbols `[start, start + len)` of `payload`, launching the decode/write
/// kernel only over the blocks that overlap the range.
///
/// `prepared` must come from [`prepare_decode`] over the *same* payload and decoder.
/// Returns [`DecodeError::RangeOutOfBounds`] when the range does not fit the stream,
/// and [`DecodeError::PayloadMismatch`] for a hybrid payload, as [`prepare_decode`]
/// does.
pub fn decode_range(
    gpu: &dyn Backend,
    kind: DecoderKind,
    payload: &CompressedPayload,
    prepared: &PreparedDecode,
    start: u64,
    len: u64,
) -> Result<RangeDecode, DecodeError> {
    let checked = check_payload(kind, payload)?;
    let total_blocks = checked
        .num_blocks()
        .ok_or(DecodeError::PayloadMismatch { decoder: kind })?;
    let num_symbols = payload.num_symbols() as u64;
    let end = start.checked_add(len).filter(|&e| e <= num_symbols).ok_or(
        DecodeError::RangeOutOfBounds {
            start,
            len,
            num_symbols,
        },
    )?;

    if len == 0 {
        return Ok(RangeDecode {
            symbols: Vec::new(),
            timings: PhaseBreakdown::default(),
            decoded_blocks: 0,
            total_blocks,
        });
    }
    let blocks: Vec<u32> = match (checked, &prepared.flat) {
        (CheckedPayload::Chunked { encoded, .. }, None) => {
            // Chunks are sorted by symbol_offset and tile the symbol space, so the
            // overlapping run is a contiguous window found by binary search.
            let first = encoded
                .chunks
                .partition_point(|c| c.symbol_offset + c.num_symbols <= start);
            let overlapping = encoded.chunks[first..]
                .iter()
                .take_while(|c| c.symbol_offset < end)
                .count();
            (first as u32..(first + overlapping) as u32).collect()
        }
        (CheckedPayload::Flat(stream), Some((_, output_index))) => {
            // A sequence's output span is [offsets[first subseq], offsets[next seq's
            // first subseq]); pick the sequences whose span overlaps the request.
            let spb = stream.geometry.subseqs_per_seq as usize;
            let seq_start = |s: usize| output_index.offsets[s * spb];
            let seq_end = |s: usize| {
                output_index
                    .offsets
                    .get((s + 1) * spb)
                    .copied()
                    .unwrap_or(output_index.total)
            };
            (0..total_blocks)
                .filter(|&s| seq_start(s) < end && seq_end(s) > start)
                .map(|s| s as u32)
                .collect()
        }
        _ => return Err(DecodeError::PayloadMismatch { decoder: kind }),
    };
    let (output, timings) = decode_write(gpu, kind, checked, prepared, Some(&blocks))?;
    // Copy only the requested window back to the host: a small range over a huge field
    // must not pay a full-field D2H transfer on top of its partial decode.
    let mut symbols = vec![0u16; len as usize];
    output.copy_range_to(start as usize, &mut symbols);
    Ok(RangeDecode {
        symbols,
        timings,
        decoded_blocks: blocks.len(),
        total_blocks,
    })
}

#[cfg(test)]
impl PreparedDecode {
    /// The per-subsequence state of a flat stream (`None` for a chunked one).
    pub(crate) fn infos(&self) -> Option<&[SubseqInfo]> {
        self.flat.as_ref().map(|(infos, _)| infos.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{compress_for, decode};
    use crate::testutil::{gpu, quant_symbols};

    #[test]
    fn range_decode_matches_full_decode_for_every_decoder() {
        let symbols = quant_symbols(60_000, 7);
        let g = gpu();
        for kind in DecoderKind::all() {
            let payload = compress_for(kind, &symbols, 1024);
            let full = decode(&g, kind, &payload).unwrap().symbols;
            let prepared = prepare_decode(&g, kind, &payload).unwrap();
            for (start, len) in [
                (0u64, 100u64),
                (1_000, 5_000),
                (59_000, 1_000),
                (0, symbols.len() as u64),
                (31_337, 1),
            ] {
                let r = decode_range(&g, kind, &payload, &prepared, start, len).unwrap();
                assert_eq!(
                    r.symbols,
                    &full[start as usize..(start + len) as usize],
                    "{:?} range [{}, {})",
                    kind,
                    start,
                    start + len
                );
                assert!(r.decoded_blocks <= r.total_blocks);
                if len > 0 {
                    assert!(r.decoded_blocks > 0);
                    assert!(r.timings.total_seconds() > 0.0, "{:?}", kind);
                }
            }
        }
    }

    #[test]
    fn small_ranges_decode_few_blocks() {
        let symbols = quant_symbols(120_000, 3);
        let g = gpu();
        for kind in DecoderKind::all() {
            let payload = compress_for(kind, &symbols, 1024);
            let prepared = prepare_decode(&g, kind, &payload).unwrap();
            let r = decode_range(&g, kind, &payload, &prepared, 40_000, 64).unwrap();
            assert!(
                r.decoded_blocks * 4 <= r.total_blocks,
                "{:?}: a 64-symbol range decoded {}/{} blocks",
                kind,
                r.decoded_blocks,
                r.total_blocks
            );
        }
    }

    #[test]
    fn partial_decode_is_cheaper_than_full() {
        let symbols = quant_symbols(200_000, 2);
        let g = gpu();
        let kind = DecoderKind::OptimizedGapArray;
        let payload = compress_for(kind, &symbols, 1024);
        let prepared = prepare_decode(&g, kind, &payload).unwrap();
        let small = decode_range(&g, kind, &payload, &prepared, 100_000, 512).unwrap();
        let full = decode_range(&g, kind, &payload, &prepared, 0, symbols.len() as u64).unwrap();
        assert!(
            small.timings.total_seconds() < full.timings.total_seconds(),
            "range decode ({} s) should be cheaper than full ({} s)",
            small.timings.total_seconds(),
            full.timings.total_seconds()
        );
    }

    #[test]
    fn prepare_timings_cover_the_preparation_phases() {
        let symbols = quant_symbols(30_000, 5);
        let g = gpu();
        // Gap array: counting + prefix sum.
        let payload = compress_for(DecoderKind::OptimizedGapArray, &symbols, 1024);
        let p = prepare_decode(&g, DecoderKind::OptimizedGapArray, &payload).unwrap();
        assert!(p.timings.output_index.is_some());
        assert!(p.timings.intra_sync.is_none());
        // Self-sync: both synchronization phases plus the prefix sum.
        let payload = compress_for(DecoderKind::OptimizedSelfSync, &symbols, 1024);
        let p = prepare_decode(&g, DecoderKind::OptimizedSelfSync, &payload).unwrap();
        assert!(p.timings.intra_sync.is_some());
        assert!(p.timings.inter_sync.is_some());
        assert!(p.timings.output_index.is_some());
        // Chunked: the payload carries its own index; preparation is free.
        let payload = compress_for(DecoderKind::CuszBaseline, &symbols, 1024);
        let p = prepare_decode(&g, DecoderKind::CuszBaseline, &payload).unwrap();
        assert_eq!(p.timings.total_seconds(), 0.0);
    }

    #[test]
    fn out_of_bounds_and_mismatches_are_typed_errors() {
        let symbols = quant_symbols(10_000, 5);
        let g = gpu();
        let kind = DecoderKind::OptimizedGapArray;
        let payload = compress_for(kind, &symbols, 1024);
        let prepared = prepare_decode(&g, kind, &payload).unwrap();

        let err = decode_range(&g, kind, &payload, &prepared, 9_999, 2).unwrap_err();
        assert_eq!(
            err,
            DecodeError::RangeOutOfBounds {
                start: 9_999,
                len: 2,
                num_symbols: 10_000
            }
        );
        assert!(!err.to_string().is_empty());
        // Overflowing start + len must not wrap around into a "valid" range.
        assert!(decode_range(&g, kind, &payload, &prepared, u64::MAX, 2).is_err());
        // Empty range at the very end is fine.
        let r = decode_range(&g, kind, &payload, &prepared, 10_000, 0).unwrap();
        assert!(r.symbols.is_empty());
        assert_eq!(r.decoded_blocks, 0);

        // Wrong payload kind for the decoder.
        let chunked = compress_for(DecoderKind::CuszBaseline, &symbols, 1024);
        assert!(prepare_decode(&g, kind, &chunked).is_err());
        // A flat stream without a gap array handed to the gap-array decoder.
        let plain = compress_for(DecoderKind::OptimizedSelfSync, &symbols, 1024);
        assert!(prepare_decode(&g, DecoderKind::OptimizedGapArray, &plain).is_err());
    }
}
