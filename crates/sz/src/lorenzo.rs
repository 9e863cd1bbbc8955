//! Lorenzo prediction with dual quantization (the cuSZ compression model).
//!
//! cuSZ's prediction/quantization stage works in two steps ("dual quantization"):
//!
//! 1. **Pre-quantization** — every value is rounded to an integer multiple of twice the
//!    error bound: `q = round(v / (2·eb))`. This alone already guarantees the point-wise
//!    error bound on reconstruction.
//! 2. **Lorenzo prediction on the integer grid** — each pre-quantized value is predicted
//!    from its already-processed neighbours with the n-dimensional Lorenzo predictor
//!    (inclusion–exclusion over the 2ⁿ−1 preceding corner neighbours, streamed row by
//!    row by the one scan `quantize` and `dequantize` share), and the integer
//!    residual is mapped into a bounded quantization-code alphabet centred at
//!    `alphabet/2`. Residuals that do not fit are **outliers** and are stored exactly.
//!
//! Because prediction happens on the pre-quantized integers, compression and
//! decompression use exactly the same neighbour values and the scheme is parallelizable —
//! this is the property cuSZ exploits on the GPU, and what lets reconstruction here be a
//! simple scan.

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

/// Streams the n-dimensional Lorenzo predictor over a grid in storage order. For every
/// element, `resolve(index, prediction, stored)` receives the prediction made from the
/// already-resolved values of `q` and the value `q` holds there now, and returns the
/// pre-quantized value to keep — [`quantize`] returns `stored`, [`dequantize`] rebuilds it
/// from the prediction.
///
/// A row runs along the fastest dimension. Of the 2ⁿ−1 preceding corner neighbours
/// (inclusion–exclusion, sign (−1)^(k+1) for a corner k steps back; out-of-range
/// neighbours contribute 0), those in the same row as the element are `prev`, the value
/// just resolved, and the rest pair up with it row by row: with `corner(x)` the signed sum
/// of the ≤ 2ⁿ⁻¹−1 in-range neighbour rows at column `x`, the prediction is
/// `prev + corner(x) − corner(x−1)`. The neighbour rows are resolved once per row, so the
/// column loop has no division and no mask walk. Arithmetic wraps: sums of extreme
/// pre-quantized values (a hostile outlier list) must not panic.
fn lorenzo_scan(extents: &[usize], q: &mut [i64], mut resolve: impl FnMut(usize, i64, i64) -> i64) {
    let Some((&width, outer)) = extents.split_last() else {
        return;
    };
    // Row strides of the outer dimensions, in rows.
    let mut strides = vec![1usize; outer.len()];
    for d in (0..outer.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * outer[d + 1];
    }
    let mut coord = vec![0usize; outer.len()];
    let mut neighbours: Vec<(i64, usize)> = Vec::with_capacity((1 << outer.len()) - 1);
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

    // Step 1: pre-quantization.
    let mut prequant: Vec<i64> = data
        .iter()
        .map(|&v| (v as f64 / step).round() as i64)
        .collect();

    // Step 2: Lorenzo prediction + residual coding.
    let mut codes = vec![0u16; data.len()];
    let mut outliers = Vec::new();
    lorenzo_scan(&dims.as_vec(), &mut prequant, |idx, pred, stored| {
        let residual = stored.wrapping_sub(pred);
        if residual >= -radius && residual < radius {
            codes[idx] = (residual + radius) as u16;
        } else {
            codes[idx] = radius as u16; // placeholder: decoded as residual 0, then patched.
            outliers.push(Outlier {
                index: idx as u64,
                prequant: stored,
            });
        }
        stored
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
pub fn dequantize_codes(
    codes: &[u16],
    outliers: &[Outlier],
    dims: Dims,
    step: f64,
    alphabet_size: usize,
) -> Vec<f32> {
    assert_eq!(dims.len(), codes.len(), "dims do not match the code count");
    let radius = (alphabet_size / 2) as i64;
    // The plane before the field: it is freed on return, and in this order the allocator
    // reuses its hole for the next decode (the other order measured +6 % peak RSS on a
    // loop of 4 M-element decompressions).
    let mut plane = vec![0i64; codes.len()];
    let mut data = vec![0f32; codes.len()];
    let mut outliers = outliers.iter();
    let mut next_outlier = outliers.next();
    lorenzo_scan(&dims.as_vec(), &mut plane, |idx, pred, _| {
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
