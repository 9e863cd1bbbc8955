//! Lorenzo prediction with dual quantization (the cuSZ compression model).
//!
//! cuSZ's prediction/quantization stage works in two steps ("dual quantization"):
//!
//! 1. **Pre-quantization** — every value is rounded to an integer multiple of twice the
//!    error bound: `q = round(v / (2·eb))`. This alone already guarantees the point-wise
//!    error bound on reconstruction.
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

use datasets::Dims;

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
/// Only the rows that later rows read are kept: a ring of Σ(outer strides) + 1 rows, and
/// none for a field of one row. `visit(start, corner, values, carry)` gets one tile of a
/// row at a time: `start` the flat index of its first element, `corner` the tile's `C`,
/// `values` where its resolved pre-quantized values go (the ring slot later rows read),
/// and `carry` the `D` of the element before the tile (0 at a row's start), which `visit`
/// leaves at the `D` of the tile's last element. Arithmetic wraps: sums of extreme
/// pre-quantized values (a hostile outlier list) must not panic.
fn lorenzo_walk(extents: &[usize], mut visit: impl FnMut(usize, &[i64], &mut [i64], &mut i64)) {
    let Some((&width, outer)) = extents.split_last() else {
        return;
    };
    let rows: usize = outer.iter().product();
    if width == 0 || rows == 0 {
        return;
    }
    // Row strides of the outer dimensions, in rows; the farthest neighbour row is their sum.
    let mut strides = vec![1usize; outer.len()];
    for d in (0..outer.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * outer[d + 1];
    }
    let ring_rows = if rows > 1 {
        (strides.iter().sum::<usize>() + 1).min(rows)
    } else {
        0
    };
    let mut ring = vec![0i64; ring_rows * width];
    let tile = width.min(TILE);
    let mut scratch = vec![0i64; if ring_rows == 0 { tile } else { 0 }];
    // Row 0 is the only row without an in-range neighbour row, and it runs first, so the
    // corner vector of a row with no neighbours is the buffer's initial zeros.
    let mut corner = vec![0i64; tile];
    let mut coord = vec![0usize; outer.len()];
    // (subtract, ring offset) of each in-range neighbour row.
    let mut neighbours: Vec<(bool, usize)> = Vec::with_capacity((1 << outer.len()) - 1);
    for row in 0..rows {
        neighbours.clear();
        for mask in 1u32..(1 << outer.len()) {
            let selected = |d: &usize| (mask >> d) & 1 == 1;
            if (0..outer.len()).filter(selected).all(|d| coord[d] > 0) {
                let back: usize = (0..outer.len()).filter(selected).map(|d| strides[d]).sum();
                let subtract = mask.count_ones() % 2 == 0;
                neighbours.push((subtract, (row - back) % ring_rows * width));
            }
        }
        let mut carry = 0i64;
        for x in (0..width).step_by(tile) {
            let len = tile.min(width - x);
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

/// Pre-quantizes, Lorenzo-predicts, and encodes a field into quantization codes.
///
/// `step` must be twice the absolute error bound. `alphabet_size` is the number of
/// quantization bins (1024 in cuSZ by default).
pub fn quantize(data: &[f32], dims: Dims, step: f64, alphabet_size: usize) -> Quantized {
    assert!(step > 0.0, "quantization step must be positive");
    assert!(
        (4..=65536).contains(&alphabet_size),
        "alphabet size out of range"
    );
    assert_eq!(dims.len(), data.len(), "dims do not match data length");

    let radius = (alphabet_size / 2) as i64;
    let mut codes = Vec::with_capacity(data.len());
    let mut outliers = Vec::new();
    lorenzo_walk(&dims.as_vec(), |start, corner, values, carry| {
        // Step 1: pre-quantization, into the tile's ring slot.
        for (v, &x) in values.iter_mut().zip(&data[start..]) {
            *v = (x as f64 / step).round() as i64;
        }
        // Step 2: the residual v − prediction is D(x) − D(x−1).
        let mut prev = *carry;
        codes.extend(values.iter().zip(corner).enumerate().map(|(i, (&v, &c))| {
            let d = v.wrapping_sub(c);
            let residual = d.wrapping_sub(prev);
            prev = d;
            if residual >= -radius && residual < radius {
                (residual + radius) as u16
            } else {
                outliers.push(Outlier {
                    index: (start + i) as u64,
                    prequant: v,
                });
                radius as u16 // placeholder: decoded as residual 0, then patched.
            }
        }));
        *carry = prev;
    });

    Quantized {
        codes,
        outliers,
        alphabet_size,
        step,
        dims,
    }
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
    lorenzo_walk(&dims.as_vec(), |start, corner, values, carry| {
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
    });
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
