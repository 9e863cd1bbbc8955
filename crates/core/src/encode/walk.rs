//! The encode walk: every symbol encoded once, by the thread that owns its chunk.
//!
//! A GPU thread can encode its own run of symbols serially once it knows the bit its
//! first codeword lands on, so no symbol needs an offset of its own. [`compress_walk`]
//! splits the stream into blocks of [`BLOCK_SYMBOLS`], one thread per
//! [`DEFAULT_CHUNK_SYMBOLS`]-symbol chunk (16 per block), and makes up to three launches
//! over them, holding no per-symbol buffer. Between launches the host does what a GPU
//! would do in one small kernel:
//!
//! 1. **count** — each block counts its symbols into a shared-memory table and stores it
//!    as its own row of a global table; the host sums the rows into the frequencies the
//!    codebook is built from. A caller that already counted the symbols (`sz`'s quantize
//!    pass does) hands the counts in, and this launch does not run;
//! 2. **chunk bits** — each thread sums the codeword lengths of its chunk into one `u64`
//!    total; the host's exclusive scan over the chunk totals gives every chunk its first
//!    bit (the chunked format pads each chunk to a unit boundary, so its scan is over
//!    units);
//! 3. **pack** — each block writes its codewords MSB-first from its first bit through a
//!    `u64` register and stores every unit that lies wholly inside its range. A flat
//!    stream's block can share its first and last unit with its neighbours; it returns
//!    them and the host ORs each shared unit together from its two pieces. A
//!    chunked-format chunk starts on a unit boundary, so its blocks share nothing. For a
//!    gap array, each block writes the gap of every subsequence boundary in
//!    (its first bit, the next block's first bit] from the codeword ends it walks past.
//!
//! Each kernel's cost section runs after its functional loop and makes a fixed number of
//! charge calls per block: the block's symbols read coalesced, issue cycles for each
//! lock-step step of its lanes (a block is as long as its longest chunk), and its stores.
//! On the CPU backend those calls return at once.

use std::ops::Range;
use std::time::Instant;

use gpu_sim::{
    cost, Backend, BlockContext, BlockKernel, DeviceBuffer, KernelStats, LaunchConfig, PhaseTime,
};
use huffman::{ChunkMeta, ChunkedEncoded, Codeword, GapArray, DEFAULT_CHUNK_SYMBOLS};

use super::{build_codebook, check_counts, EncodePhaseBreakdown};
use crate::decoder::CompressedPayload;
use crate::format::{EncodedStream, StreamGeometry, StreamLayout};

/// Chunks per walk block: one per thread, so a block is 16 lanes of one warp.
const CHUNKS_PER_BLOCK: usize = 16;
/// Symbols per walk block.
pub(super) const BLOCK_SYMBOLS: usize = CHUNKS_PER_BLOCK * DEFAULT_CHUNK_SYMBOLS;

/// The symbols of block `block` in a stream of `n`.
fn block_symbols(block: usize, n: usize) -> Range<usize> {
    block * BLOCK_SYMBOLS..((block + 1) * BLOCK_SYMBOLS).min(n)
}

/// Charges what every walk launch does: the block's symbols read coalesced (2 bytes
/// each), and `cycles` of issue per lock-step step of its lanes. Each lane walks one
/// chunk, so the block's one warp steps as often as its longest chunk has symbols.
fn charge_walk(ctx: &mut BlockContext, symbols: &Range<usize>, cycles: f64) -> u64 {
    let steps = symbols.len().min(DEFAULT_CHUNK_SYMBOLS) as u64;
    ctx.global_load_contiguous(0, symbols.start as u64, symbols.len() as u32, 2);
    ctx.compute(0, steps as f64 * cycles);
    steps
}

/// Launch 1: block `b`'s symbol counts into row `b` of `tables`.
struct CountKernel<'a> {
    symbols: &'a [u16],
    tables: &'a DeviceBuffer<u64>,
    bins: usize,
}

impl BlockKernel for CountKernel<'_> {
    fn name(&self) -> &str {
        "encode_walk::count"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let b = ctx.block_idx() as usize;
        let block = block_symbols(b, self.symbols.len());
        // Four counts per bin, taken in turn: a run of one symbol (the common case in
        // quantization codes) is then four independent chains of increments, not one.
        let mut lanes = vec![[0u64; 4]; self.bins];
        for (i, &s) in self.symbols[block.clone()].iter().enumerate() {
            match lanes.get_mut(s as usize) {
                Some(bin) => bin[i % 4] += 1,
                None => panic!("symbol {} out of range ({} bins)", s, self.bins),
            }
        }
        for (bin, counts) in lanes.iter().enumerate() {
            self.tables.set(b * self.bins + bin, counts.iter().sum());
        }

        // Cost: one shared-memory increment per step, plus zeroing the table and reading
        // it out for the row store.
        let steps = charge_walk(ctx, &block, cost::ALU);
        let sweeps = 2 * self.bins.div_ceil(CHUNKS_PER_BLOCK) as u64;
        ctx.shared_access_contiguous(0, steps + sweeps);
        ctx.global_store_contiguous(0, (b * self.bins) as u64, self.bins as u32, 8);
    }
}

/// Launch 2: the codeword bits of every chunk of block `b`.
struct ChunkBitsKernel<'a> {
    symbols: &'a [u16],
    codewords: &'a [Codeword],
    chunk_bits: &'a DeviceBuffer<u64>,
}

impl BlockKernel for ChunkBitsKernel<'_> {
    fn name(&self) -> &str {
        "encode_walk::chunk_bits"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let b = ctx.block_idx() as usize;
        let block = block_symbols(b, self.symbols.len());
        let chunks = self.symbols[block.clone()].chunks(DEFAULT_CHUNK_SYMBOLS);
        let num_chunks = chunks.len();
        for (c, chunk) in chunks.enumerate() {
            let bits = chunk
                .iter()
                .map(|&s| {
                    let len = self.codewords[s as usize].len;
                    assert!(
                        len > 0,
                        "symbol {} has no codeword (was it absent from the frequency table?)",
                        s
                    );
                    len as u64
                })
                .sum();
            self.chunk_bits.set(b * CHUNKS_PER_BLOCK + c, bits);
        }

        // Cost: a codeword-length lookup and an add per step, one `u64` total per chunk.
        charge_walk(ctx, &block, 2.0 * cost::ALU);
        let first = (b * CHUNKS_PER_BLOCK) as u64;
        ctx.global_store_contiguous(0, first, num_chunks as u32, 8);
    }
}

/// Launch 3: block `b`'s codewords, packed from bit `starts[b]`.
struct PackKernel<'a> {
    symbols: &'a [u16],
    codewords: &'a [Codeword],
    /// Block `b` covers bits `starts[b]..starts[b + 1]`; the last entry is the end of the
    /// stream's last unit.
    starts: &'a [u64],
    /// Whether each chunk is padded to a unit boundary (the chunked format).
    pad_chunks: bool,
    units: &'a DeviceBuffer<u32>,
    /// Each block's first and last unit when it shares them with a neighbour.
    edges: &'a DeviceBuffer<[u32; 2]>,
    /// The gap array and its subsequence size, when the stream carries one.
    gaps: Option<(&'a DeviceBuffer<u8>, u64)>,
}

impl BlockKernel for PackKernel<'_> {
    fn name(&self) -> &str {
        "encode_walk::pack"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let b = ctx.block_idx() as usize;
        let block = block_symbols(b, self.symbols.len());
        let (start, end) = (self.starts[b], self.starts[b + 1]);
        let shared_head = (start % 32 != 0).then_some((start / 32) as usize);
        let shared_tail = (end % 32 != 0).then_some((end / 32) as usize);
        let mut edge = [0u32; 2];
        let mut emit = |unit: usize, word: u32| {
            if Some(unit) == shared_head {
                edge[0] = word;
            } else if Some(unit) == shared_tail {
                edge[1] = word;
            } else {
                self.units.set(unit, word);
            }
        };
        // The gap array's first subsequence boundary after `start` (boundary 0 keeps its
        // zeroed gap); without a gap array, none.
        let first_gap = self.gaps.map_or(0, |(_, sb)| start / sb + 1);
        let mut boundary = self.gaps.map_or(u64::MAX, |(_, sb)| first_gap * sb);
        let mut gaps_written = 0u32;

        // `acc` holds the `fill` bits of unit `unit` written so far, left-aligned.
        let (mut unit, mut fill, mut acc) = ((start / 32) as usize, (start % 32) as u32, 0u64);
        let mut pos = start;
        for chunk in self.symbols[block.clone()].chunks(DEFAULT_CHUNK_SYMBOLS) {
            for &s in chunk {
                let cw = self.codewords[s as usize];
                let len = cw.len as u32;
                acc |= (cw.bits as u64) << (64 - fill - len);
                fill += len;
                if fill >= 32 {
                    emit(unit, (acc >> 32) as u32);
                    (unit, fill, acc) = (unit + 1, fill - 32, acc << 32);
                }
                pos += len as u64;
                // Every boundary in (this codeword's start, its end] targets its end.
                while boundary <= pos {
                    let (gaps, subseq_bits) = self.gaps.expect("only a gap array has boundaries");
                    let sub = (boundary / subseq_bits) as usize;
                    if sub < gaps.len() {
                        let gap = pos - boundary;
                        assert!(gap <= u8::MAX as u64, "gap {} does not fit in a byte", gap);
                        gaps.set(sub, gap as u8);
                        gaps_written += 1;
                    }
                    boundary += subseq_bits;
                }
            }
            if self.pad_chunks && fill > 0 {
                emit(unit, (acc >> 32) as u32);
                (unit, fill, acc) = (unit + 1, 0, 0);
            }
        }
        if fill > 0 {
            emit(unit, (acc >> 32) as u32);
        }
        self.edges.set(b, edge);

        // Cost: per step the codeword lookup, its shift and OR into the register, the
        // fill and position adds, and the flush and boundary tests; then the units wholly
        // inside the block, its edge pair and its gap bytes, stored.
        charge_walk(ctx, &block, 6.0 * cost::ALU);
        let (first_unit, end_unit) = (start.div_ceil(32), end / 32);
        let stored = end_unit.saturating_sub(first_unit) as u32;
        ctx.global_store_contiguous(0, first_unit, stored, 4);
        ctx.global_store_contiguous(0, b as u64, 1, 8);
        ctx.global_store_contiguous(0, first_gap, gaps_written, 1);
    }
}

/// The seconds of a host step between launches, charged as the small kernel a GPU would
/// run in its place: `launches` of it, streaming the `bytes` the step touches. The
/// simulator charges that; the CPU backend the step's wall clock since `clock`.
fn host_step(gpu: &dyn Backend, clock: Instant, bytes: usize, launches: u32) -> f64 {
    let modeled = gpu
        .config()
        .streaming_pass_seconds(bytes as f64, 0.0, launches);
    gpu.charge_seconds(modeled, clock.elapsed().as_secs_f64())
}

/// A phase of one launch and the host step after it.
fn phase(kernel: KernelStats, step_seconds: f64) -> PhaseTime {
    let mut phase = PhaseTime::from_kernel(kernel);
    phase.push_seconds(step_seconds);
    phase
}

/// Encodes a non-empty `symbols` in `layout`, one of the dense layouts, with three
/// launches over blocks of [`BLOCK_SYMBOLS`]: the count and the sum of its rows
/// (histogram phase), the chunk bits and their scan (offsets phase), and the pack and the
/// edge OR (scatter phase). Given `counts`, the symbol counts of `symbols`, the count
/// launch is skipped and the histogram phase holds only their check.
pub(super) fn compress_walk(
    gpu: &dyn Backend,
    layout: StreamLayout,
    symbols: &[u16],
    counts: Option<Vec<u64>>,
    alphabet_size: usize,
) -> (CompressedPayload, EncodePhaseBreakdown) {
    let n = symbols.len();
    let grid = n.div_ceil(BLOCK_SYMBOLS);
    let launch = |kernel: &dyn BlockKernel| {
        gpu.launch(
            kernel,
            LaunchConfig::new(grid as u32, CHUNKS_PER_BLOCK as u32),
        )
    };

    let (counts, histogram) = match counts {
        Some(counts) => {
            let clock = Instant::now();
            check_counts(&counts, alphabet_size, n);
            let mut histogram = PhaseTime::empty();
            histogram.push_seconds(host_step(gpu, clock, alphabet_size * 8, 0));
            (counts, histogram)
        }
        None => {
            let tables = DeviceBuffer::<u64>::zeroed(grid * alphabet_size);
            let count = launch(&CountKernel {
                symbols,
                tables: &tables,
                bins: alphabet_size,
            });
            let clock = Instant::now();
            let mut counts = vec![0u64; alphabet_size];
            for table in tables.into_vec().chunks_exact(alphabet_size) {
                counts.iter_mut().zip(table).for_each(|(c, t)| *c += t);
            }
            let sum = host_step(gpu, clock, (grid + 1) * alphabet_size * 8, 1);
            (counts, phase(count, sum))
        }
    };

    let (codebook, codebook_phase) = build_codebook(gpu, counts, alphabet_size);
    let codewords = codebook.codewords();

    let num_chunks = n.div_ceil(DEFAULT_CHUNK_SYMBOLS);
    let chunk_bits = DeviceBuffer::<u64>::zeroed(num_chunks);
    let lengths = launch(&ChunkBitsKernel {
        symbols,
        codewords,
        chunk_bits: &chunk_bits,
    });
    let clock = Instant::now();
    let chunk_bits = chunk_bits.into_vec();
    let chunked = layout == StreamLayout::Chunked;
    let mut chunk_starts = Vec::with_capacity(num_chunks);
    let mut bit_len = 0u64;
    for &bits in &chunk_bits {
        chunk_starts.push(bit_len);
        bit_len += if chunked {
            bits.div_ceil(32) * 32
        } else {
            bits
        };
    }
    let num_units = bit_len.div_ceil(32);
    let starts: Vec<u64> = chunk_starts
        .iter()
        .step_by(CHUNKS_PER_BLOCK)
        .copied()
        .chain([num_units * 32])
        .collect();
    let offsets = phase(lengths, host_step(gpu, clock, 16 * num_chunks, 1));

    let geometry = StreamGeometry::default();
    let with_gaps = layout == StreamLayout::FlatWithGaps;
    let units = DeviceBuffer::<u32>::zeroed(num_units as usize);
    let edges = DeviceBuffer::<[u32; 2]>::zeroed(grid);
    let gaps = DeviceBuffer::<u8>::zeroed(if with_gaps {
        geometry.num_subseqs(bit_len)
    } else {
        0
    });
    let pack = launch(&PackKernel {
        symbols,
        codewords,
        starts: &starts,
        pad_chunks: chunked,
        units: &units,
        edges: &edges,
        gaps: with_gaps.then_some((&gaps, geometry.subseq_bits())),
    });
    let clock = Instant::now();
    let (mut units, edges) = (units.into_vec(), edges.into_vec());
    for b in 1..grid {
        if starts[b] % 32 != 0 {
            units[(starts[b] / 32) as usize] = edges[b - 1][1] | edges[b][0];
        }
    }
    // Each block edge: two edge words read, one unit written.
    let scatter = phase(pack, host_step(gpu, clock, 12 * (grid - 1), 1));

    let payload = if chunked {
        let chunks = (0..num_chunks)
            .map(|c| ChunkMeta {
                unit_offset: chunk_starts[c] / 32,
                unit_count: chunk_bits[c].div_ceil(32),
                bit_len: chunk_bits[c],
                num_symbols: (n - c * DEFAULT_CHUNK_SYMBOLS).min(DEFAULT_CHUNK_SYMBOLS) as u64,
                symbol_offset: (c * DEFAULT_CHUNK_SYMBOLS) as u64,
            })
            .collect();
        CompressedPayload::Chunked {
            encoded: ChunkedEncoded {
                units,
                chunks,
                chunk_symbols: DEFAULT_CHUNK_SYMBOLS,
                num_symbols: n,
            },
            codebook,
        }
    } else {
        CompressedPayload::Flat(EncodedStream {
            units,
            bit_len,
            num_symbols: n,
            codebook,
            geometry,
            gap_array: with_gaps.then(|| GapArray {
                gaps: gaps.into_vec(),
                subseq_bits: geometry.subseq_bits(),
            }),
        })
    };
    let breakdown = EncodePhaseBreakdown {
        histogram,
        codebook: codebook_phase,
        offsets,
        scatter,
    };
    (payload, breakdown)
}
