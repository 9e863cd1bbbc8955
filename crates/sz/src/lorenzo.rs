//! Lorenzo prediction with dual quantization (the cuSZ compression model).
//!
//! cuSZ's prediction/quantization stage works in two steps ("dual quantization"):
//!
//! 1. **Pre-quantization** — every value is rounded to an integer multiple of twice the
//!    error bound: `q = round(v / (2·eb))`, half away from zero. This alone already
//!    guarantees the point-wise error bound on reconstruction. Every compress rounds
//!    here, halos included, so it is one branch-free loop per tile that vectorizes at
//!    the SSE2 baseline: the division, a round through 2⁵², and the integer read from
//!    the bits of a sum with 1.5·2⁵². That is exact while every quotient of the tile is
//!    below 2⁵¹ in magnitude; a tile with a larger, infinite or NaN quotient is done
//!    again one value at a time by the scalar rounding, which stays the reference and
//!    is bit-equal to `f64::round` on every input.
//! 2. **Lorenzo prediction on the integer grid** — each pre-quantized value is predicted
//!    from its already-processed neighbours with the n-dimensional Lorenzo predictor
//!    (inclusion–exclusion over the 2ⁿ−1 preceding corner neighbours), and the integer
//!    residual is mapped into a bounded quantization-code alphabet centred at
//!    `alphabet/2`. Residuals that do not fit are **outliers** and are stored exactly.
//!
//! Because prediction happens on the pre-quantized integers, compression and
//! decompression use exactly the same neighbour values and the scheme is parallelizable —
//! this is the property cuSZ exploits on the GPU. It also makes the inverse a partial
//! sum (cuSZ+): along a row, a value is the signed sum of the neighbour rows at its
//! column (the corner vector) plus the running sum of the row's residuals. `quantize` and
//! `dequantize` share one row walk built on that, which keeps only the rows later rows
//! read back — no full-size plane in either direction.
//!
//! Quantization needs no scan: a code reads only the pre-quantized values of its
//! neighbours, and those come from the data alone. So a compress on a backend quantizes
//! in one launch over blocks fixed by the field's shape (`quantize_on`). A 1-D field splits
//! into column ranges, each starting from the pre-quantized element before it. A taller
//! field splits into blocks of whole rows, each first pre-quantizing its halo (the
//! Σ(outer strides) rows before it, at most a quarter of the block) into its ring without
//! emitting codes. Every block runs the same walk as `quantize`, stores each tile of codes
//! in place in one write, and from the same tiles counts them and checksums them. The
//! host joins the outlier lists in block order, sums the counts, and joins the CRCs with
//! `huffdec_core::crc32_combine`; the counts become the encoder's histogram and the
//! hybrid pick's center-bin fraction, and the CRC the archive's decoded-stream digest.

use std::ops::Range;
use std::sync::{Mutex, OnceLock};

use datasets::Dims;
use gpu_sim::{Backend, BlockContext, BlockKernel, DeviceBuffer, LaunchConfig};
use huffdec_core::{crc32, crc32_combine, Crc32};

/// An outlier: a pre-quantized value whose Lorenzo residual did not fit the code alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outlier {
    /// Flat element index.
    pub index: u64,
    /// The exact pre-quantized integer value.
    pub prequant: i64,
}

/// Output of the prediction/quantization stage.
#[derive(Debug, Clone)]
pub struct Quantized {
    /// One code per element, in `[0, alphabet_size)`; outliers carry the code
    /// `alphabet_size / 2` placeholder and are listed in `outliers`.
    pub codes: Vec<u16>,
    /// Outliers, sorted by index.
    pub outliers: Vec<Outlier>,
    /// The alphabet size used.
    pub alphabet_size: usize,
    /// Twice the absolute error bound (the quantization step).
    pub step: f64,
    /// Field dimensions.
    pub dims: Dims,
}

impl Quantized {
    /// Fraction of elements that are outliers.
    pub fn outlier_ratio(&self) -> f64 {
        if self.codes.is_empty() {
            0.0
        } else {
            self.outliers.len() as f64 / self.codes.len() as f64
        }
    }
}

/// Columns per tile of the row walk: the corner vector and, for a field of one row, the
/// row's values are held one tile at a time.
const TILE: usize = 2048;

/// Walks the n-dimensional Lorenzo predictor over a grid in storage order, one row (the
/// fastest dimension) at a time.
///
/// Of an element's 2ⁿ−1 preceding corner neighbours (inclusion–exclusion, sign (−1)^(k+1)
/// for a corner k steps back; out-of-range neighbours contribute 0), those in its own row
/// are the value just resolved, and the rest pair up with it row by row. With the corner
/// vector `C(x)`, the signed sum of the ≤ 2ⁿ⁻¹−1 in-range neighbour rows at column `x`,
/// the prediction is `v(x−1) + C(x) − C(x−1)`, so `D(x) = v(x) − C(x)` is a running sum of
/// the row's residuals that starts at 0. `C` is elementwise over whole rows, with no
/// loop-carried dependency.
///
/// Only the rows that later rows read are kept, in `ring`: [`ring_rows`] rows, and a
/// new allocation unless it already has that size. The walk writes every ring slot it
/// reads before reading it, so a ring is reused as it is.
///
/// `visit(start, corner, values, carry)` gets one tile of a row at a time: `start` the
/// flat index of its first element, `corner` the tile's `C`, `values` where its resolved
/// pre-quantized values go (the ring slot later rows read), and `carry` the `D` of the
/// element before the tile (0 at a row's start), which `visit` leaves at the `D` of the
/// tile's last element. Arithmetic wraps: sums of extreme pre-quantized values (a
/// hostile outlier list) must not panic.
///
/// The walk covers the flat elements `span`: whole rows, or for a field of one row any
/// range of its columns. What a later span reads from before it is its halo, which
/// `halo(start, values)` fills with the pre-quantized values from flat index `start`
/// (only a quantizer can, since it computes them from the data alone): the one element
/// before a column range, which is its carry, or the [`halo_rows`] rows before a row
/// range, into their ring slots. A walk from element 0 has no halo.
fn lorenzo_walk(
    extents: &[usize],
    span: Range<usize>,
    ring: &mut Vec<i64>,
    mut halo: impl FnMut(usize, &mut [i64]),
    mut visit: impl FnMut(usize, &[i64], &mut [i64], &mut i64),
) {
    let Some((&width, outer)) = extents.split_last() else {
        return;
    };
    let rows: usize = outer.iter().product();
    if width == 0 || rows == 0 || span.is_empty() {
        return;
    }
    let strides = row_strides(outer);
    let halo_rows = halo_rows(outer);
    let ring_rows = ring_rows(outer);
    if ring.len() != ring_rows * width {
        *ring = vec![0i64; ring_rows * width];
    }
    let mut carry_in = 0i64;
    let (row_span, columns) = if ring_rows == 0 {
        if span.start > 0 {
            halo(span.start - 1, std::slice::from_mut(&mut carry_in));
        }
        (0..1, span)
    } else {
        debug_assert!(span.start % width == 0 && span.end % width == 0);
        let row_span = span.start / width..span.end / width;
        for row in row_span.start.saturating_sub(halo_rows)..row_span.start {
            halo(row * width, &mut ring[row % ring_rows * width..][..width]);
        }
        (row_span, 0..width)
    };
    let tile = columns.len().min(TILE);
    let mut scratch = vec![0i64; if ring_rows == 0 { tile } else { 0 }];
    // Row 0 is the only row without an in-range neighbour row, and a walk that holds it
    // starts there, so the corner vector of a row with no neighbours is the buffer's
    // initial zeros.
    let mut corner = vec![0i64; tile];
    let mut coord = vec![0usize; outer.len()];
    let mut rest = row_span.start;
    for d in (0..outer.len()).rev() {
        coord[d] = rest % outer[d];
        rest /= outer[d];
    }
    // (subtract, ring offset) of each in-range neighbour row.
    let mut neighbours: Vec<(bool, usize)> = Vec::with_capacity((1 << outer.len()) - 1);
    for row in row_span {
        neighbours.clear();
        for mask in 1u32..(1 << outer.len()) {
            let selected = |d: &usize| (mask >> d) & 1 == 1;
            if (0..outer.len()).filter(selected).all(|d| coord[d] > 0) {
                let back: usize = (0..outer.len()).filter(selected).map(|d| strides[d]).sum();
                let subtract = mask.count_ones() % 2 == 0;
                neighbours.push((subtract, (row - back) % ring_rows * width));
            }
        }
        let mut carry = carry_in;
        for x in columns.clone().step_by(tile) {
            let len = tile.min(columns.end - x);
            let corner = &mut corner[..len];
            // The first in-range mask is a single dimension (the lowest bit of an in-range
            // mask is in range too, and smaller), so the first neighbour row adds.
            if let Some((&(_, at), rest)) = neighbours.split_first() {
                corner.copy_from_slice(&ring[at + x..][..len]);
                for &(subtract, at) in rest {
                    let next = &ring[at + x..][..len];
                    if subtract {
                        for (c, &q) in corner.iter_mut().zip(next) {
                            *c = c.wrapping_sub(q);
                        }
                    } else {
                        for (c, &q) in corner.iter_mut().zip(next) {
                            *c = c.wrapping_add(q);
                        }
                    }
                }
            }
            let values = if ring_rows == 0 {
                &mut scratch[..len]
            } else {
                &mut ring[row % ring_rows * width + x..][..len]
            };
            visit(row * width + x, corner, values, &mut carry);
        }
        for d in (0..outer.len()).rev() {
            coord[d] += 1;
            if coord[d] < outer[d] {
                break;
            }
            coord[d] = 0;
        }
    }
}

/// Row strides of the outer dimensions `outer`, in rows: one step along dimension `d` is
/// `strides[d]` rows.
fn row_strides(outer: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; outer.len()];
    for d in (0..outer.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * outer[d + 1];
    }
    strides
}

/// The halo of a field with outer dimensions `outer`: how far back its farthest
/// neighbour row lies, Σ(outer strides) rows.
fn halo_rows(outer: &[usize]) -> usize {
    row_strides(outer).iter().sum()
}

/// The rows of the ring a walk over a field with outer dimensions `outer` keeps: the
/// halo and the row itself, or none for a field of one row.
fn ring_rows(outer: &[usize]) -> usize {
    let rows: usize = outer.iter().product();
    if rows > 1 {
        (halo_rows(outer) + 1).min(rows)
    } else {
        0
    }
}

/// `x.round() as i64` for every `f64`: half away from zero, saturating at the ends of
/// `i64`, NaN to 0, with no libm call (`f64::round` is one on the x86-64 baseline). Below
/// 2⁵² adding and subtracting 2⁵² rounds `|x|` to an integer, half to even; the one case
/// where that differs from half away is a tie rounded down, which leaves exactly 0.5 and
/// is moved up. From 2⁵² on every `f64` is an integer already, and ±inf and NaN are left
/// to the cast.
#[inline]
fn round_to_i64(x: f64) -> i64 {
    const TWO_52: f64 = (1u64 << 52) as f64;
    let a = x.abs();
    let rounded = if a < TWO_52 {
        let t = (a + TWO_52) - TWO_52;
        if a - t == 0.5 {
            t + 1.0
        } else {
            t
        }
    } else {
        a
    };
    rounded.copysign(x) as i64
}

/// `values[i] = round_to_i64(data[i] as f64 / step)` for every `i`, a tile of [`TILE`]
/// at a time: [`prequantize_exact`] first, and [`round_to_i64`] again over a tile it
/// could not round exactly.
fn prequantize(data: &[f32], step: f64, values: &mut [i64]) {
    for (data, values) in data.chunks(TILE).zip(values.chunks_mut(TILE)) {
        if !prequantize_exact(data, step, values) {
            for (v, &x) in values.iter_mut().zip(data) {
                *v = round_to_i64(x as f64 / step);
            }
        }
    }
}

/// [`round_to_i64`]`(x as f64 / step)` for each `x` of `data` into `values`, with no
/// branch, so the loop vectorizes. The rounding of `|q|` is `round_to_i64`'s, its tie
/// fix a select; the sign of `q` is OR-ed back in, and the integer is the low bits of
/// `r + 1.5·2⁵²`: for `r` from −2⁵¹ to 2⁵¹ that sum lies in [2⁵², 2⁵³], where every
/// integer is an `f64`, so it is exact and its bits step with `r`. Returns whether
/// every `|q|` was below 2⁵¹ (false for ±inf and NaN), and so every value written
/// equals `round_to_i64`'s; otherwise some need not.
#[inline]
fn prequantize_exact(data: &[f32], step: f64, values: &mut [i64]) -> bool {
    const TWO_51: f64 = (1u64 << 51) as f64;
    const TWO_52: f64 = (1u64 << 52) as f64;
    const TO_INT: f64 = 1.5 * TWO_52;
    const SIGN: u64 = 1 << 63;
    let mut exact = true;
    for (v, &x) in values.iter_mut().zip(data) {
        let q = x as f64 / step;
        let a = q.abs();
        let t = (a + TWO_52) - TWO_52;
        let t = if a - t == 0.5 { t + 1.0 } else { t };
        let r = f64::from_bits(t.to_bits() | q.to_bits() & SIGN);
        *v = (r + TO_INT).to_bits().wrapping_sub(TO_INT.to_bits()) as i64;
        exact &= a < TWO_51;
    }
    exact
}

/// A field to quantize: its data and shape, the quantization step (twice the absolute
/// error bound) and the number of quantization bins.
struct Quantizer<'a> {
    data: &'a [f32],
    dims: Dims,
    extents: Vec<usize>,
    step: f64,
    alphabet_size: usize,
}

impl<'a> Quantizer<'a> {
    fn new(data: &'a [f32], dims: Dims, step: f64, alphabet_size: usize) -> Self {
        assert!(step > 0.0, "quantization step must be positive");
        assert!(
            (4..=65536).contains(&alphabet_size),
            "alphabet size out of range"
        );
        assert_eq!(dims.len(), data.len(), "dims do not match data length");
        Quantizer {
            data,
            dims,
            extents: dims.as_vec(),
            step,
            alphabet_size,
        }
    }

    /// Quantizes the elements `span`: whole rows, or any columns of a field of one row.
    /// Each tile's codes go to `emit(start, codes)` and its outliers onto `outliers`, in
    /// index order. The halo (see [`lorenzo_walk`]) is pre-quantized again from the
    /// data, so a span reads nothing another span computes.
    fn quantize_span(
        &self,
        span: Range<usize>,
        ring: &mut Vec<i64>,
        outliers: &mut Vec<Outlier>,
        mut emit: impl FnMut(usize, &[u16]),
    ) {
        let radius = (self.alphabet_size / 2) as i64;
        let prequantize_at = |start: usize, values: &mut [i64]| {
            prequantize(&self.data[start..][..values.len()], self.step, values)
        };
        let mut codes = [0u16; TILE];
        lorenzo_walk(
            &self.extents,
            span,
            ring,
            prequantize_at,
            |start, corner, values, carry| {
                // Step 1: pre-quantization, into the tile's ring slot.
                prequantize_at(start, values);
                // Step 2: the residual v − prediction is D(x) − D(x−1).
                let codes = &mut codes[..values.len()];
                let mut prev = *carry;
                let tile = codes.iter_mut().zip(values.iter().zip(corner));
                for (i, (code, (&v, &c))) in tile.enumerate() {
                    let d = v.wrapping_sub(c);
                    let residual = d.wrapping_sub(prev);
                    prev = d;
                    *code = if residual >= -radius && residual < radius {
                        (residual + radius) as u16
                    } else {
                        outliers.push(Outlier {
                            index: (start + i) as u64,
                            prequant: v,
                        });
                        radius as u16 // placeholder: decoded as residual 0, then patched.
                    };
                }
                *carry = prev;
                emit(start, codes);
            },
        );
    }

    fn finish(self, codes: Vec<u16>, outliers: Vec<Outlier>) -> Quantized {
        Quantized {
            codes,
            outliers,
            alphabet_size: self.alphabet_size,
            step: self.step,
            dims: self.dims,
        }
    }
}

/// Pre-quantizes, Lorenzo-predicts, and encodes a field into quantization codes, in one
/// serial walk.
///
/// `step` must be twice the absolute error bound. `alphabet_size` is the number of
/// quantization bins (1024 in cuSZ by default).
pub fn quantize(data: &[f32], dims: Dims, step: f64, alphabet_size: usize) -> Quantized {
    let quantizer = Quantizer::new(data, dims, step, alphabet_size);
    let mut codes = Vec::with_capacity(data.len());
    let mut outliers = Vec::new();
    quantizer.quantize_span(0..data.len(), &mut Vec::new(), &mut outliers, |_, tile| {
        codes.extend_from_slice(tile)
    });
    quantizer.finish(codes, outliers)
}

/// Elements a quantize block aims at.
const BLOCK_ELEMENTS: usize = 1 << 16;

/// The element spans of the blocks [`quantize_on`] splits a field of shape `extents`
/// into. The shape alone fixes them, not the thread count. A field of one row splits
/// into column ranges of [`BLOCK_ELEMENTS`]. A taller field splits into blocks of whole
/// rows, at least [`BLOCK_ELEMENTS`] and at least four times the [`halo_rows`], so a
/// block pre-quantizes at most a quarter more rows than it codes (the last block may be
/// shorter).
fn quantize_blocks(extents: &[usize]) -> Vec<Range<usize>> {
    let n: usize = extents.iter().product();
    let Some((&width, outer)) = extents.split_last() else {
        return Vec::new();
    };
    if n == 0 {
        return Vec::new();
    }
    let block = if n == width {
        BLOCK_ELEMENTS
    } else {
        width * (4 * halo_rows(outer)).max(BLOCK_ELEMENTS.div_ceil(width))
    };
    (0..n)
        .step_by(block)
        .map(|start| start..(start + block).min(n))
        .collect()
}

/// What a quantize block returns beside its codes.
#[derive(Debug)]
struct BlockTally {
    /// Its outliers, in index order.
    outliers: Vec<Outlier>,
    /// The count of every code.
    counts: Vec<u64>,
    /// The CRC-32 of its codes, serialized as little-endian u16s.
    crc: u32,
}

/// One [`Quantizer::quantize_span`] per block of [`quantize_blocks`]: codes in place
/// into the field's one code buffer, and from the same tiles the block's [`BlockTally`].
struct QuantizeKernel<'a> {
    quantizer: &'a Quantizer<'a>,
    blocks: &'a [Range<usize>],
    codes: &'a DeviceBuffer<u16>,
    tallies: &'a [OnceLock<BlockTally>],
    /// Rings the launching thread allocated, one per block that can run at once. A
    /// block borrows one for its walk: a ring a worker thread allocated and freed would
    /// stay resident in that thread's allocator arena.
    rings: &'a Mutex<Vec<Vec<i64>>>,
}

impl BlockKernel for QuantizeKernel<'_> {
    fn name(&self) -> &str {
        "sz::quantize"
    }

    fn block(&self, ctx: &mut BlockContext) {
        let b = ctx.block_idx() as usize;
        let take_ring = || {
            self.rings
                .lock()
                .expect("no block panics holding the rings")
        };
        let mut ring = take_ring().pop().unwrap_or_default();
        let mut outliers = Vec::new();
        // Four counts per code, taken in turn: a run of one code (the common case) is
        // then four independent chains of increments, not one.
        let mut lanes = vec![[0u64; 4]; self.quantizer.alphabet_size];
        let mut crc = Crc32::new();
        let span = self.blocks[b].clone();
        self.quantizer
            .quantize_span(span, &mut ring, &mut outliers, |start, codes| {
                self.codes.write_range(start, codes);
                for (i, &code) in codes.iter().enumerate() {
                    lanes[code as usize][i % 4] += 1;
                }
                crc.update_symbols(codes);
            });
        take_ring().push(ring);
        let tally = BlockTally {
            outliers,
            counts: lanes.iter().map(|bin| bin.iter().sum()).collect(),
            crc: crc.finish(),
        };
        self.tallies[b].set(tally).expect("a block runs once");
    }
}

/// [`quantize`] as one launch on `gpu`, over the blocks of [`quantize_blocks`]: the same
/// codes and outliers, plus from the same pass the count of every code and the CRC-32
/// of the codes ([`huffdec_core::crc32_symbols`]). Blocks share nothing, since each
/// pre-quantizes its own halo, so they run in parallel. The host joins the outlier
/// lists in block order, sums the counts, and joins the CRCs with
/// [`huffdec_core::crc32_combine`].
pub(crate) fn quantize_on(
    gpu: &dyn Backend,
    data: &[f32],
    dims: Dims,
    step: f64,
    alphabet_size: usize,
) -> (Quantized, Vec<u64>, u32) {
    let quantizer = Quantizer::new(data, dims, step, alphabet_size);
    let blocks = quantize_blocks(&quantizer.extents);
    let codes = DeviceBuffer::<u16>::zeroed(data.len());
    let tallies: Vec<OnceLock<BlockTally>> = blocks.iter().map(|_| OnceLock::new()).collect();
    if !blocks.is_empty() {
        let (&width, outer) = quantizer.extents.split_last().expect("a non-empty field");
        let at_once = blocks.len().min(gpu.host_threads());
        let rings = (0..at_once).map(|_| vec![0i64; ring_rows(outer) * width]);
        let rings = Mutex::new(rings.collect());
        // A block is one host walk, so one thread.
        gpu.launch(
            &QuantizeKernel {
                quantizer: &quantizer,
                blocks: &blocks,
                codes: &codes,
                tallies: &tallies,
                rings: &rings,
            },
            LaunchConfig::new(blocks.len() as u32, 1),
        );
    }
    let mut outliers = Vec::new();
    let mut counts = vec![0u64; alphabet_size];
    let mut crc = crc32(&[]);
    for (tally, span) in tallies.into_iter().zip(&blocks) {
        let tally = tally.into_inner().expect("every block ran");
        outliers.extend(tally.outliers);
        counts
            .iter_mut()
            .zip(&tally.counts)
            .for_each(|(c, t)| *c += t);
        crc = crc32_combine(crc, tally.crc, span.len() as u64 * 2);
    }
    (quantizer.finish(codes.into_vec(), outliers), counts, crc)
}

/// Reconstructs the field from quantization codes and outliers. The result satisfies the
/// original error bound (`step / 2`) point-wise.
pub fn dequantize(q: &Quantized) -> Vec<f32> {
    dequantize_codes(&q.codes, &q.outliers, q.dims, q.step, q.alphabet_size)
}

/// [`dequantize`] over borrowed parts: `codes` in `[0, alphabet_size)` for a field of
/// shape `dims`, `outliers` sorted by index, `step` twice the absolute error bound.
///
/// Each value is `C(x) + acc`, with `acc` the running sum of `code − radius` along its row
/// and an outlier setting `acc = prequant − C(x)`; the `f32` is written in the same pass.
/// The outlier cursor only moves when the walk reaches its index, so a list out of index
/// order (or one that repeats or overruns an index) patches up to where the order breaks.
pub fn dequantize_codes(
    codes: &[u16],
    outliers: &[Outlier],
    dims: Dims,
    step: f64,
    alphabet_size: usize,
) -> Vec<f32> {
    assert_eq!(dims.len(), codes.len(), "dims do not match the code count");
    let radius = (alphabet_size / 2) as i64;
    let mut data = Vec::with_capacity(codes.len());
    let mut outliers = outliers.iter();
    let mut next_outlier = outliers.next();
    let extents = dims.as_vec();
    let span = 0..codes.len();
    let no_halo = |_: usize, _: &mut [i64]| unreachable!("a walk from element 0 has no halo");
    lorenzo_walk(
        &extents,
        span,
        &mut Vec::new(),
        no_halo,
        |start, corner, values, carry| {
            let end = (start + corner.len()) as u64;
            let mut x = 0;
            loop {
                let patch = next_outlier.filter(|o| ((start + x) as u64..end).contains(&o.index));
                let stop = patch.map_or(corner.len(), |o| (o.index - start as u64) as usize);
                let mut acc = *carry;
                let run = corner[x..stop]
                    .iter()
                    .zip(&codes[start + x..start + stop])
                    .zip(&mut values[x..stop]);
                data.extend(run.map(|((&c, &code), v)| {
                    acc = acc.wrapping_add(code as i64 - radius);
                    *v = c.wrapping_add(acc);
                    (*v as f64 * step) as f32
                }));
                let Some(o) = patch else {
                    *carry = acc;
                    break;
                };
                *carry = o.prequant.wrapping_sub(corner[stop]);
                values[stop] = o.prequant;
                data.push((o.prequant as f64 * step) as f32);
                next_outlier = outliers.next();
                x = stop + 1;
            }
        },
    );
    data
}

#[cfg(test)]
impl Quantized {
    /// Bytes needed to store the outliers (index + value).
    pub(crate) fn outlier_bytes(&self) -> u64 {
        self.outliers.len() as u64 * 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::Rng;

    /// The scan the row walk replaced, kept as the bit-for-bit reference: a full-size
    /// `i64` plane, and per element `prev + corner(x) − corner(x−1)` with the neighbour
    /// rows read from the plane. `resolve(index, prediction, stored)` returns the value to
    /// keep.
    fn plane_scan(
        extents: &[usize],
        q: &mut [i64],
        mut resolve: impl FnMut(usize, i64, i64) -> i64,
    ) {
        let Some((&width, outer)) = extents.split_last() else {
            return;
        };
        let mut strides = vec![1usize; outer.len()];
        for d in (0..outer.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * outer[d + 1];
        }
        let mut coord = vec![0usize; outer.len()];
        let mut neighbours: Vec<(i64, usize)> = Vec::new();
        for row in 0..outer.iter().product() {
            neighbours.clear();
            for mask in 1u32..(1 << outer.len()) {
                let selected = |d: &usize| (mask >> d) & 1 == 1;
                if (0..outer.len()).filter(selected).all(|d| coord[d] > 0) {
                    let back: usize = (0..outer.len()).filter(selected).map(|d| strides[d]).sum();
                    let sign = if mask.count_ones() % 2 == 1 { 1 } else { -1 };
                    neighbours.push((sign, (row - back) * width));
                }
            }
            let base = row * width;
            let (mut prev, mut corner_prev) = (0i64, 0i64);
            for x in 0..width {
                let corner = neighbours.iter().fold(0i64, |sum, &(sign, start)| {
                    sum.wrapping_add(sign.wrapping_mul(q[start + x]))
                });
                let prediction = prev.wrapping_add(corner).wrapping_sub(corner_prev);
                prev = resolve(base + x, prediction, q[base + x]);
                q[base + x] = prev;
                corner_prev = corner;
            }
            for d in (0..outer.len()).rev() {
                coord[d] += 1;
                if coord[d] < outer[d] {
                    break;
                }
                coord[d] = 0;
            }
        }
    }

    fn plane_quantize(
        data: &[f32],
        dims: Dims,
        step: f64,
        alphabet: usize,
    ) -> (Vec<u16>, Vec<Outlier>) {
        let radius = (alphabet / 2) as i64;
        let mut prequant: Vec<i64> = data
            .iter()
            .map(|&v| (v as f64 / step).round() as i64)
            .collect();
        let mut codes = vec![0u16; data.len()];
        let mut outliers = Vec::new();
        plane_scan(&dims.as_vec(), &mut prequant, |idx, pred, stored| {
            let residual = stored.wrapping_sub(pred);
            if residual >= -radius && residual < radius {
                codes[idx] = (residual + radius) as u16;
            } else {
                codes[idx] = radius as u16;
                outliers.push(Outlier {
                    index: idx as u64,
                    prequant: stored,
                });
            }
            stored
        });
        (codes, outliers)
    }

    fn plane_dequantize(
        codes: &[u16],
        outliers: &[Outlier],
        dims: Dims,
        step: f64,
        alphabet: usize,
    ) -> Vec<f32> {
        let radius = (alphabet / 2) as i64;
        let mut plane = vec![0i64; codes.len()];
        let mut data = vec![0f32; codes.len()];
        let mut outliers = outliers.iter();
        let mut next_outlier = outliers.next();
        plane_scan(&dims.as_vec(), &mut plane, |idx, pred, _| {
            let value = match next_outlier {
                Some(o) if o.index == idx as u64 => {
                    next_outlier = outliers.next();
                    o.prequant
                }
                _ => pred.wrapping_add(codes[idx] as i64 - radius),
            };
            data[idx] = (value as f64 * step) as f32;
            value
        });
        data
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `dequantize_codes` against the plane scan, bit for bit.
    fn assert_dequantize_matches(
        codes: &[u16],
        outliers: &[Outlier],
        dims: Dims,
        step: f64,
        alphabet: usize,
    ) {
        assert_eq!(
            bits(&dequantize_codes(codes, outliers, dims, step, alphabet)),
            bits(&plane_dequantize(codes, outliers, dims, step, alphabet)),
            "{:?}, alphabet {}, outliers {:?}",
            dims,
            alphabet,
            outliers
        );
    }

    /// `quantize` and `dequantize` against the plane scan: the same codes, outliers and
    /// `f32` bits. Returns the walk's quantization.
    fn assert_walk_matches(data: &[f32], dims: Dims, step: f64, alphabet: usize) -> Quantized {
        let q = quantize(data, dims, step, alphabet);
        let (codes, outliers) = plane_quantize(data, dims, step, alphabet);
        assert_eq!(q.codes, codes, "codes, {:?}, alphabet {}", dims, alphabet);
        assert_eq!(
            q.outliers, outliers,
            "outliers, {:?}, alphabet {}",
            dims, alphabet
        );
        assert_dequantize_matches(&q.codes, &q.outliers, dims, step, alphabet);
        q
    }

    /// A smooth field with noise of a few steps and a jump far outside a small alphabet at
    /// each index in `jumps`, each three times the one before, so every jump is an outlier.
    fn jumpy_field(rng: &mut Rng, len: usize, step: f64, jumps: &[usize]) -> Vec<f32> {
        let mut data: Vec<f32> = (0..len)
            .map(|i| ((i as f64 * 0.003).sin() + rng.gen_range_f64(-3.0, 3.0) * step) as f32)
            .collect();
        for (k, &at) in jumps.iter().enumerate() {
            data[at] += 10.0 * 3f32.powi(k as i32);
        }
        data
    }

    #[test]
    fn row_walk_matches_the_plane_scan_across_1d_tiles() {
        let mut rng = Rng::seed_from_u64(0x7113);
        let len = 3 * TILE + 5;
        let jumps = [0, TILE - 1, TILE, 2 * TILE + 17, len - 1];
        let step = 2e-3;
        let data = jumpy_field(&mut rng, len, step, &jumps);
        for alphabet in [16, 1024] {
            let q = assert_walk_matches(&data, Dims::D1(len), step, alphabet);
            let at: Vec<u64> = q.outliers.iter().map(|o| o.index).collect();
            assert!(jumps.iter().all(|&j| at.contains(&(j as u64))), "{:?}", at);
        }
    }

    #[test]
    fn row_walk_matches_the_plane_scan_where_the_ring_wraps() {
        let mut rng = Rng::seed_from_u64(0xF1A7);
        // Rings of 2, 6 and 10 rows over 9, 20 and 24 rows; and rows wider than a tile.
        let shapes = [
            Dims::D2(9, 37),
            Dims::D2(3, TILE + 3),
            Dims::D3(5, 4, 13),
            Dims::D3(3, 2, TILE + 1),
            Dims::D4(4, 3, 2, 7),
        ];
        let step = 2e-3;
        for dims in shapes {
            let len = dims.len();
            let mut jumps: Vec<usize> = (0..6).map(|_| rng.gen_index(len)).collect();
            jumps.push(len - 1);
            jumps.sort_unstable();
            jumps.dedup();
            let data = jumpy_field(&mut rng, len, step, &jumps);
            for alphabet in [4, 16, 1024] {
                assert_walk_matches(&data, dims, step, alphabet);
            }
        }
    }

    #[test]
    fn row_walk_wraps_like_the_plane_scan_on_extreme_prequant() {
        let mut rng = Rng::seed_from_u64(0xED6E);
        for dims in [
            Dims::D1(TILE + 9),
            Dims::D2(6, 11),
            Dims::D3(4, 5, 6),
            Dims::D4(3, 3, 4, 5),
        ] {
            let len = dims.len();
            // Pre-quantized values that saturate the cast at both ends, so every sum wraps.
            let data: Vec<f32> = (0..len)
                .map(|_| match rng.gen_index(4) {
                    0 => f32::MAX,
                    1 => f32::MIN,
                    _ => rng.gen_range_f64(-100.0, 100.0) as f32,
                })
                .collect();
            assert_walk_matches(&data, dims, 1.0, 16);
            // Outliers near the ends of i64 on top of random codes.
            let codes: Vec<u16> = (0..len).map(|_| rng.gen_index(16) as u16).collect();
            let mut outliers: Vec<Outlier> = (0..len)
                .filter(|_| rng.gen_index(3) == 0)
                .map(|index| Outlier {
                    index: index as u64,
                    prequant: if index % 2 == 0 {
                        i64::MAX - index as i64
                    } else {
                        i64::MIN + index as i64
                    },
                })
                .collect();
            outliers.dedup_by_key(|o| o.index);
            assert_dequantize_matches(&codes, &outliers, dims, 1.5, 16);
        }
    }

    #[test]
    fn dequantize_takes_a_hostile_outlier_list_like_the_plane_scan() {
        let dims = Dims::D3(3, 4, 5);
        let codes: Vec<u16> = (0..dims.len()).map(|i| (i * 7 % 16) as u16).collect();
        let o = |index: u64, prequant: i64| Outlier { index, prequant };
        let lists = [
            vec![o(9, 100), o(3, -5), o(40, 7)],
            vec![o(3, 1), o(3, 2), o(50, 9)],
            vec![o(10, 1), o(1 << 40, 2), o(59, 3)],
            vec![o(u64::MAX, i64::MIN)],
            vec![o(59, i64::MAX), o(0, 1)],
        ];
        for outliers in &lists {
            assert_dequantize_matches(&codes, outliers, dims, 0.25, 16);
        }
    }

    /// Asserts that [`quantize_on`] equals [`quantize`] plus [`huffdec_core::crc32_symbols`]
    /// and a plain count of its codes, bit for bit, on `CpuBackend` at 1 and 8 host
    /// threads and on the simulator. Returns the serial quantization.
    fn assert_blocks_match(data: &[f32], dims: Dims, step: f64, alphabet: usize) -> Quantized {
        let serial = quantize(data, dims, step, alphabet);
        let mut counts = vec![0u64; alphabet];
        for &c in &serial.codes {
            counts[c as usize] += 1;
        }
        let crc = huffdec_core::crc32_symbols(&serial.codes);
        let tiny = gpu_sim::GpuConfig::test_tiny;
        let backends: [&dyn Backend; 3] = [
            &gpu_sim::CpuBackend::with_host_threads(tiny(), 1),
            &gpu_sim::CpuBackend::with_host_threads(tiny(), 8),
            &gpu_sim::Gpu::with_host_threads(tiny(), 4),
        ];
        for gpu in backends {
            let (q, c, r) = quantize_on(gpu, data, dims, step, alphabet);
            let context = format!("{:?}, alphabet {}, {}", dims, alphabet, gpu.device_name());
            assert_eq!(q.codes, serial.codes, "codes, {}", context);
            assert_eq!(q.outliers, serial.outliers, "outliers, {}", context);
            assert_eq!(c, counts, "counts, {}", context);
            assert_eq!(r, crc, "crc, {}", context);
        }
        serial
    }

    /// The first element of every block but the first.
    fn block_starts(dims: Dims) -> Vec<usize> {
        let blocks = quantize_blocks(&dims.as_vec());
        blocks.iter().skip(1).map(|b| b.start).collect()
    }

    #[test]
    fn round_to_i64_equals_f64_round() {
        let mut inputs = vec![
            0.0,
            f64::from_bits(1),
            0.49999999999999994,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        inputs.extend((0..=1000).map(|k| k as f64 + 0.5));
        for p in [2f64.powi(51), 2f64.powi(52), 2f64.powi(53)] {
            // The ties on both sides (where the spacing is 0.5 or 1) and every neighbour
            // within eight representable steps.
            inputs.extend([p - 1.5, p - 0.5, p + 0.5, p + 1.5]);
            inputs.extend((-8..=8).map(|k| f64::from_bits(p.to_bits().wrapping_add_signed(k))));
        }
        for x in inputs.iter().flat_map(|&x| [x, -x]) {
            assert_eq!(
                round_to_i64(x),
                x.round() as i64,
                "{x:e} ({:#x})",
                x.to_bits()
            );
        }
    }

    /// Pre-quantizes each tile of `tiles` alone, checks every lane bit for bit against
    /// [`round_to_i64`], and checks that the branch-free loop took the tile exactly when
    /// every quotient is below 2⁵¹ in magnitude. Returns how many tiles took the
    /// branch-free loop and how many fell back.
    fn assert_prequantize_exact(tiles: &[Vec<f32>], step: f64) -> [usize; 2] {
        let mut taken = [0, 0];
        for tile in tiles {
            assert!(tile.len() <= TILE);
            let mut values = vec![0i64; tile.len()];
            prequantize(tile, step, &mut values);
            for (&v, &x) in values.iter().zip(tile) {
                let q = x as f64 / step;
                assert_eq!(v, round_to_i64(q), "{x:e} ({:#x}) / {step:e}", x.to_bits());
            }
            let below = tile
                .iter()
                .all(|&x| (x as f64 / step).abs() < (1u64 << 51) as f64);
            let exact = prequantize_exact(tile, step, &mut values);
            assert_eq!(
                exact,
                below,
                "step {step:e}, tile {:?}",
                &tile[..tile.len().min(8)]
            );
            taken[usize::from(!exact)] += 1;
        }
        taken
    }

    #[test]
    fn the_branch_free_prequantize_equals_the_scalar_rounding() {
        let mut rng = Rng::seed_from_u64(0x9E0A);
        // A random f32 of either sign with its biased exponent in `0..=max_exponent`:
        // 0 makes a subnormal or ±0.
        let mut random_f32 = |max_exponent: u32| {
            let bits = rng.next_u64() as u32;
            let exponent = (rng.next_u64() % (u64::from(max_exponent) + 1)) as u32;
            f32::from_bits(bits & 0x807F_FFFF | exponent << 23)
        };
        let mut taken = [0, 0];
        let add = |taken: &mut [usize; 2], more: [usize; 2]| {
            taken[0] += more[0];
            taken[1] += more[1];
        };
        let specials = vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1.5,
            -2.5,
        ];
        let steps = (-30..=30).step_by(3).map(|e| 10f64.powi(e));
        for step in steps.chain([3.7e-7, 0.75, 1.0 / 3.0]) {
            // The largest exponent whose every f32 divides to below 2⁵¹ by `step`.
            let below = (step * (1u64 << 50) as f64).log2().floor() as i64 + 127;
            let below = below.clamp(0, 254) as u32;
            let tiles = vec![
                specials.clone(),
                (0..TILE).map(|_| random_f32(254)).collect(),
                (0..TILE).map(|_| random_f32(below)).collect(),
                (0..TILE - 3).map(|_| random_f32(below)).collect(),
            ];
            add(&mut taken, assert_prequantize_exact(&tiles, step));
        }
        // Exact ties: (2k+1)/2 of a power-of-two step, of either sign.
        for p in -30..=30 {
            let step = 2f64.powi(p);
            let tie = |k: u64, negative: bool| {
                let x = (2 * k + 1) as f64 * step / 2.0;
                (if negative { -x } else { x }) as f32
            };
            let tile: Vec<f32> = (0..TILE)
                .map(|i| tie(rng.next_u64() % (1 << 23), i % 2 == 1))
                .collect();
            assert!(tile.iter().all(|&x| (x as f64 / step).fract().abs() == 0.5));
            add(&mut taken, assert_prequantize_exact(&[tile], step));
        }
        // Quotients within 64 f32 steps of ±2⁵¹ and ±2⁵²: each magnitude's tile, and
        // the part of it below 2⁵¹ alone.
        for step in [1.0, 3.0, 0.75, 1e-3] {
            for target in [51, 52].map(|e| (1u64 << e) as f64) {
                for sign in [1.0, -1.0] {
                    let at = (sign * target * step) as f32;
                    let tile: Vec<f32> = (-64..=64)
                        .map(|k| f32::from_bits(at.to_bits().wrapping_add_signed(k)))
                        .collect();
                    let below: Vec<f32> = tile
                        .iter()
                        .copied()
                        .filter(|&x| (x as f64 / step).abs() < (1u64 << 51) as f64)
                        .collect();
                    add(&mut taken, assert_prequantize_exact(&[tile, below], step));
                }
            }
        }
        // Steps so small that the quotient overflows to ±inf.
        for step in [1e-300, f64::from_bits(1)] {
            let tile = vec![1.0, -1.0, 1e10, f32::MAX, f32::MIN, 0.0];
            assert!(tile.iter().any(|&x| (x as f64 / step).is_infinite()));
            add(&mut taken, assert_prequantize_exact(&[tile], step));
        }
        let [fast, fallback] = taken;
        assert!(
            fast > 0 && fallback > 0,
            "{fast} tiles branch-free, {fallback} fell back"
        );
    }

    #[test]
    fn ties_quantize_half_away_from_zero_like_the_plane_scan() {
        let mut rng = Rng::seed_from_u64(0x71E5);
        let step = 2.0;
        for dims in [
            Dims::D1(2 * BLOCK_ELEMENTS + 333),
            Dims::D2(300, 1000),
            Dims::D3(10, 8, 1900),
        ] {
            // Odd integers, so every value over the step is an exact tie, of either sign.
            let data: Vec<f32> = (0..dims.len())
                .map(|i| {
                    let trend = (300.0 * (i as f64 * 0.01).sin()).round() as i32;
                    (2 * (trend + rng.gen_index(3) as i32) + 1) as f32
                })
                .collect();
            assert!(data.iter().all(|&x| (x as f64 / step).fract().abs() == 0.5));
            for alphabet in [16, 1024] {
                assert_walk_matches(&data, dims, step, alphabet);
                assert_blocks_match(&data, dims, step, alphabet);
            }
        }
    }

    #[test]
    fn blocks_tile_the_field_and_bound_their_halo() {
        for dims in [
            Dims::D1(1),
            Dims::D1(3 * BLOCK_ELEMENTS + 777),
            Dims::D2(1, 70_000),
            Dims::D2(300, 1000),
            Dims::D3(26, 517, 1034),
            Dims::D4(7, 3, 5, 800),
        ] {
            let extents = dims.as_vec();
            let (&width, outer) = extents.split_last().unwrap();
            let blocks = quantize_blocks(&extents);
            assert_eq!(blocks[0].start, 0);
            assert_eq!(blocks.last().unwrap().end, dims.len());
            assert!(blocks.windows(2).all(|w| w[0].end == w[1].start));
            for block in &blocks[..blocks.len() - 1] {
                if width == dims.len() {
                    assert_eq!(block.len(), BLOCK_ELEMENTS, "{:?}", dims);
                } else {
                    assert_eq!(block.len() % width, 0, "{:?}", dims);
                    assert!(block.len() / width >= 4 * halo_rows(outer), "{:?}", dims);
                }
            }
        }
        assert!(quantize_blocks(&[0]).is_empty());
        assert!(quantize_blocks(&[5, 0]).is_empty());
    }

    #[test]
    fn block_quantize_matches_the_serial_walk_across_1d_block_edges() {
        let mut rng = Rng::seed_from_u64(0xB10C);
        let b = BLOCK_ELEMENTS;
        let step = 2e-3;
        for len in [1, b - 1, b, b + 1, 3 * b + 777] {
            // An outlier on both sides of every block edge.
            let dims = Dims::D1(len);
            let jumps: Vec<usize> = block_starts(dims)
                .iter()
                .flat_map(|&s| [s - 1, s])
                .collect();
            let data = jumpy_field(&mut rng, len, step, &jumps);
            for alphabet in [16, 1024] {
                let q = assert_blocks_match(&data, dims, step, alphabet);
                let at: Vec<u64> = q.outliers.iter().map(|o| o.index).collect();
                assert!(jumps.iter().all(|&j| at.contains(&(j as u64))), "{:?}", at);
            }
        }
    }

    #[test]
    fn block_quantize_matches_the_serial_walk_across_row_block_edges() {
        let mut rng = Rng::seed_from_u64(0x4A10);
        let step = 2e-3;
        // Each shape with the first row of every block but the first.
        let shapes = [
            (Dims::D2(300, 1000), vec![66, 132, 198, 264]),
            // Rows wider than a tile.
            (Dims::D2(40, TILE + 3), vec![32]),
            // Planes of 8 rows and a halo of 9: row 36 is mid-plane, row 72 starts one.
            (Dims::D3(10, 8, 1900), vec![36, 72]),
            // Planes of 5 rows, volumes of 15 and a halo of 21: row 84 is mid-plane.
            (Dims::D4(7, 3, 5, 800), vec![84]),
            // Planes of 4 rows, volumes of 12 and a halo of 17: row 68 starts a plane.
            (Dims::D4(8, 3, 4, 1000), vec![68]),
        ];
        for (dims, first_rows) in shapes {
            let extents = dims.as_vec();
            let (&width, outer) = extents.split_last().unwrap();
            let starts = block_starts(dims);
            let rows: Vec<usize> = starts.iter().map(|s| s / width).collect();
            assert_eq!(rows, first_rows, "{:?}", dims);
            // Outliers in each block's first row, its last halo row and its farthest one.
            let halo = halo_rows(outer) * width;
            let mut jumps: Vec<usize> = starts
                .iter()
                .flat_map(|&s| [s, s + width / 2, s - 1, s - halo])
                .collect();
            jumps.sort_unstable();
            let data = jumpy_field(&mut rng, dims.len(), step, &jumps);
            for alphabet in [16, 1024] {
                assert_blocks_match(&data, dims, step, alphabet);
            }
        }
    }

    #[test]
    fn block_quantize_matches_the_serial_walk_on_saturating_inputs() {
        let mut rng = Rng::seed_from_u64(0x5A7);
        for dims in [
            Dims::D1(3 * BLOCK_ELEMENTS + 777),
            Dims::D3(10, 8, 1900),
            Dims::D4(7, 3, 5, 800),
        ] {
            // Pre-quantized values that saturate the cast at both ends, so every sum wraps.
            let data: Vec<f32> = (0..dims.len())
                .map(|_| match rng.gen_index(4) {
                    0 => f32::MAX,
                    1 => f32::MIN,
                    _ => rng.gen_range_f64(-100.0, 100.0) as f32,
                })
                .collect();
            assert_blocks_match(&data, dims, 1.0, 16);
        }
    }

    fn check_roundtrip(data: &[f32], dims: Dims, eb: f64, alphabet: usize) -> Quantized {
        let q = quantize(data, dims, 2.0 * eb, alphabet);
        let rec = dequantize(&q);
        assert_eq!(rec.len(), data.len());
        for (i, (&orig, &r)) in data.iter().zip(rec.iter()).enumerate() {
            // Allow for f32 representation error of the reconstructed value on top of
            // the quantization bound.
            assert!(
                (orig - r).abs() as f64 <= eb * (1.0 + 1e-4) + orig.abs() as f64 * 1e-6 + 1e-9,
                "element {}: |{} - {}| > {}",
                i,
                orig,
                r,
                eb
            );
        }
        q
    }

    #[test]
    fn roundtrip_1d_smooth() {
        let data: Vec<f32> = (0..5000).map(|i| (i as f32 * 0.01).sin()).collect();
        let q = check_roundtrip(&data, Dims::D1(5000), 1e-3, 1024);
        assert!(q.outlier_ratio() < 0.01);
        // Smooth data should produce codes concentrated around the radius.
        let radius = 512u16;
        let near = q
            .codes
            .iter()
            .filter(|&&c| (c as i32 - radius as i32).abs() <= 8)
            .count();
        assert!(near as f64 > 0.9 * q.codes.len() as f64);
    }

    #[test]
    fn roundtrip_2d() {
        let (rows, cols) = (64, 80);
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| {
                let r = (i / cols) as f32;
                let c = (i % cols) as f32;
                (0.05 * r).cos() + (0.03 * c).sin()
            })
            .collect();
        check_roundtrip(&data, Dims::D2(rows, cols), 1e-3, 1024);
    }

    #[test]
    fn roundtrip_3d() {
        let (a, b, c) = (16, 20, 24);
        let data: Vec<f32> = (0..a * b * c)
            .map(|i| {
                let x = (i % c) as f32;
                let y = ((i / c) % b) as f32;
                let z = (i / (b * c)) as f32;
                0.2 * x + 0.1 * (y * 0.3).sin() + 0.05 * z * z / 100.0
            })
            .collect();
        check_roundtrip(&data, Dims::D3(a, b, c), 5e-4, 1024);
    }

    #[test]
    fn roundtrip_4d() {
        let dims = Dims::D4(4, 6, 8, 10);
        let data: Vec<f32> = (0..dims.len())
            .map(|i| ((i as f32) * 0.013).cos())
            .collect();
        check_roundtrip(&data, dims, 1e-3, 1024);
    }

    #[test]
    fn noisy_data_respects_bound_and_produces_outliers_when_needed() {
        // Large jumps relative to the tiny alphabet force outliers.
        let data: Vec<f32> = (0..2000)
            .map(|i| {
                if i % 100 == 0 {
                    100.0
                } else {
                    (i as f32 * 0.001).sin()
                }
            })
            .collect();
        let q = check_roundtrip(&data, Dims::D1(2000), 1e-4, 16);
        assert!(!q.outliers.is_empty());
        assert!(q.outlier_bytes() > 0);
    }

    #[test]
    fn smoother_data_yields_more_concentrated_codes() {
        let smooth: Vec<f32> = (0..20_000).map(|i| (i as f32 * 0.0005).sin()).collect();
        let rough: Vec<f32> = (0..20_000)
            .map(|i| {
                let r = (i as u32).wrapping_mul(2654435761) as f32 / u32::MAX as f32;
                r * 2.0 - 1.0
            })
            .collect();
        let qs = quantize(&smooth, Dims::D1(20_000), 2e-3, 1024);
        let qr = quantize(&rough, Dims::D1(20_000), 2e-3, 1024);
        let spread = |q: &Quantized| {
            let mean = 512.0;
            q.codes
                .iter()
                .map(|&c| (c as f64 - mean).abs())
                .sum::<f64>()
                / q.codes.len() as f64
        };
        assert!(spread(&qs) < spread(&qr));
    }

    #[test]
    fn constant_field_is_all_center_codes() {
        let data = vec![3.5f32; 1000];
        let q = quantize(&data, Dims::D1(1000), 2e-3, 1024);
        // First element predicts from nothing (pred 0) so it may be an outlier; all
        // subsequent elements predict exactly.
        assert!(q.codes[1..].iter().all(|&c| c == 512));
        let rec = dequantize(&q);
        assert!(rec.iter().all(|&v| (v - 3.5).abs() <= 1e-3 + 1e-6));
    }

    #[test]
    fn lorenzo_2d_predicts_planes_exactly() {
        // A plane a*x + b*y is predicted exactly by the 2D Lorenzo predictor (residual 0
        // except on the boundary row/column).
        let (rows, cols) = (32, 32);
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| 0.37 * (i / cols) as f32 + 0.21 * (i % cols) as f32)
            .collect();
        let q = quantize(&data, Dims::D2(rows, cols), 2e-3, 1024);
        let interior_nonzero = (0..rows * cols)
            .filter(|&i| i / cols > 0 && i % cols > 0)
            .filter(|&i| q.codes[i] != 512)
            .count();
        // Allow a few rounding-induced ±1 codes.
        assert!(interior_nonzero < rows * cols / 20);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_panics() {
        let _ = quantize(&[1.0], Dims::D1(1), 0.0, 1024);
    }
}
