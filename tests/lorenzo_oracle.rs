//! Lorenzo property test: the row-streaming predictor `sz::quantize` and `sz::dequantize`
//! share, against the textbook formulation kept here as a test-only oracle.
//!
//! The oracle predicts each element on its own — recover its coordinates, then sum the
//! 2ⁿ−1 preceding corner neighbours by inclusion–exclusion, out-of-range ones counting 0 —
//! which is slow and obviously right. For `D1`…`D4` shapes, among them extents of 1 and a
//! single row, with outliers forced onto the first element of a row, a plane and a volume,
//! `quantize` must yield the oracle's codes and outliers, `dequantize` the oracle's bits,
//! and the round trip must honour the error bound.

use huffdec::datasets::{Dims, Rng};
use huffdec::sz::{dequantize, quantize, verify_error_bound, Outlier, Quantized};

/// The n-dimensional Lorenzo prediction of the element at flat index `idx` from the
/// pre-quantized grid `q`: each non-empty subset of dimensions contributes the neighbour
/// one step back along those dimensions, with sign (−1)^(|subset|+1).
fn oracle_predict(q: &[i64], idx: usize, extents: &[usize]) -> i64 {
    let ndim = extents.len();
    let mut coord = vec![0usize; ndim];
    let mut strides = vec![1usize; ndim];
    let mut rem = idx;
    for d in (0..ndim).rev() {
        coord[d] = rem % extents[d];
        rem /= extents[d];
        if d + 1 < ndim {
            strides[d] = strides[d + 1] * extents[d + 1];
        }
    }
    let mut pred = 0i64;
    for mask in 1u32..(1 << ndim) {
        let back = |d: usize| (mask >> d) & 1 == 1;
        if (0..ndim).any(|d| back(d) && coord[d] == 0) {
            continue;
        }
        let neighbour: usize = (0..ndim)
            .map(|d| (coord[d] - back(d) as usize) * strides[d])
            .sum();
        let sign = if mask.count_ones() % 2 == 1 { 1 } else { -1 };
        pred += sign * q[neighbour];
    }
    pred
}

fn oracle_quantize(
    data: &[f32],
    dims: Dims,
    step: f64,
    alphabet: usize,
) -> (Vec<u16>, Vec<Outlier>) {
    let radius = (alphabet / 2) as i64;
    let extents = dims.as_vec();
    let prequant: Vec<i64> = data
        .iter()
        .map(|&v| (v as f64 / step).round() as i64)
        .collect();
    let mut outliers = Vec::new();
    let codes = (0..data.len())
        .map(|idx| {
            let residual = prequant[idx] - oracle_predict(&prequant, idx, &extents);
            if (-radius..radius).contains(&residual) {
                (residual + radius) as u16
            } else {
                outliers.push(Outlier {
                    index: idx as u64,
                    prequant: prequant[idx],
                });
                radius as u16
            }
        })
        .collect();
    (codes, outliers)
}

fn oracle_dequantize(q: &Quantized) -> Vec<f32> {
    let radius = (q.alphabet_size / 2) as i64;
    let extents = q.dims.as_vec();
    let mut prequant = vec![0i64; q.codes.len()];
    for idx in 0..q.codes.len() {
        prequant[idx] = match q.outliers.iter().find(|o| o.index == idx as u64) {
            Some(outlier) => outlier.prequant,
            None => oracle_predict(&prequant, idx, &extents) + (q.codes[idx] as i64 - radius),
        };
    }
    prequant
        .iter()
        .map(|&p| (p as f64 * q.step) as f32)
        .collect()
}

/// A smooth field with noise of a few quantization steps, and a jump far outside the
/// alphabet at every index in `jumps` — each three times the one before, so that no signed
/// sum of jumping neighbours predicts another jump and every one of them is an outlier.
fn field(rng: &mut Rng, dims: Dims, step: f64, jumps: &[usize]) -> Vec<f32> {
    let mut data: Vec<f32> = (0..dims.len())
        .map(|i| ((i as f64 * 0.01).sin() + rng.gen_range_f64(-3.0, 3.0) * step) as f32)
        .collect();
    for (k, &at) in jumps.iter().enumerate() {
        data[at] += 1.0e3 * 3f32.powi(k as i32);
    }
    data
}

#[test]
fn quantize_and_dequantize_match_the_inclusion_exclusion_oracle() {
    let mut rng = Rng::seed_from_u64(0x1040_E200);
    let shapes = [
        Dims::D1(1),
        Dims::D1(257),
        Dims::D2(1, 40),
        Dims::D2(40, 1),
        Dims::D2(13, 17),
        Dims::D3(1, 1, 9),
        Dims::D3(5, 1, 7),
        Dims::D3(6, 7, 8),
        Dims::D4(1, 1, 1, 1),
        Dims::D4(2, 1, 3, 1),
        Dims::D4(3, 4, 5, 6),
        Dims::D4(4, 3, 1, 11),
    ];
    for dims in shapes {
        let extents = dims.as_vec();
        // The first element of the field, and of the second row, plane and volume (where
        // the shape has one); then a few anywhere.
        let mut jumps = vec![0];
        for d in 1..extents.len() {
            let start: usize = extents[d..].iter().product();
            if start < dims.len() {
                jumps.push(start);
            }
        }
        for _ in 0..3 {
            jumps.push(rng.gen_index(dims.len()));
        }
        jumps.sort_unstable();
        jumps.dedup();
        for (alphabet, jumps) in [(1024, &jumps[..0]), (16, &jumps[..]), (4, &jumps[..])] {
            let step = 2.0e-3;
            let data = field(&mut rng, dims, step, jumps);
            let case = format!("{:?}, alphabet {}, jumps at {:?}", dims, alphabet, jumps);

            let q = quantize(&data, dims, step, alphabet);
            let (codes, outliers) = oracle_quantize(&data, dims, step, alphabet);
            assert_eq!(q.codes, codes, "codes, {}", case);
            assert_eq!(q.outliers, outliers, "outliers, {}", case);
            assert!(jumps
                .iter()
                .all(|&j| outliers.iter().any(|o| o.index == j as u64)));

            let reconstructed = dequantize(&q);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            assert_eq!(
                bits(&reconstructed),
                bits(&oracle_dequantize(&q)),
                "bits, {}",
                case
            );
            assert_eq!(
                verify_error_bound(&data, &reconstructed, step / 2.0),
                None,
                "{}",
                case
            );
        }
    }
}
