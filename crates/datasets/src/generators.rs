//! Synthetic field generation.
//!
//! Each generated field is the sum of three components:
//!
//! * a **white-noise floor** with standard deviation [`DatasetSpec::noise_sigma`]. Noise
//!   is the part a Lorenzo predictor cannot remove, so its magnitude relative to the
//!   quantization step (2 × error-bound × value-range) determines the spread of the
//!   quantization codes and therefore the Huffman compression ratio;
//! * **sparse localized features** — Gaussian bumps of amplitude up to 1.0 at a density of
//!   [`DatasetSpec::feature_density`] centres per element. Features pin the field's value
//!   range near 1.0 (so relative error bounds translate to stable absolute bounds) and
//!   mimic the sharp structures of real scientific fields, while contributing only a
//!   negligible fraction of the quantization codes;
//! * a **large-scale drift** of very low amplitude, for flavour only.
//!
//! This construction makes the quantization-code statistics — the only thing the Huffman
//! decoders are sensitive to — independent of the generated resolution, so experiments can
//! run on scaled-down fields and still land in each dataset's compression-ratio regime
//! (the per-dataset calibration is the [`DatasetSpec`] parameters in [`crate::registry`]).
//! Physical realism of the values is a non-goal.

use crate::field::{Dims, Field};
use crate::registry::DatasetSpec;
use crate::rng::Rng;

/// A deterministic Gaussian sampler (Box–Muller over a seeded PRNG).
struct Gaussian {
    rng: Rng,
    spare: Option<f64>,
}

impl Gaussian {
    fn new(seed: u64) -> Self {
        Gaussian {
            rng: Rng::seed_from_u64(seed),
            spare: None,
        }
    }

    fn sample(&mut self) -> f64 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        let u1: f64 = self.rng.gen_range_f64(f64::EPSILON, 1.0);
        let u2: f64 = self.rng.gen_range_f64(0.0, 1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }
}

struct Feature {
    /// Centre coordinates.
    center: [f64; 4],
    amplitude: f64,
    /// Inverse of 2 * width^2, precomputed.
    inv_two_w2: f64,
    /// Bounding box (inclusive start, exclusive end) per dimension, to skip far elements.
    lo: [usize; 4],
    hi: [usize; 4],
}

/// Generates a synthetic field for `spec`, scaled down to approximately
/// `target_elements` elements, using `seed` for reproducibility.
///
/// The same `(spec, target_elements, seed)` triple always produces the same field.
pub fn generate(spec: &DatasetSpec, target_elements: usize, seed: u64) -> Field {
    let dims = spec.full_dims.scaled_to_elements(target_elements);
    generate_with_dims(spec, dims, seed)
}

/// Generates a synthetic field for `spec` with explicit dimensions (used by tests and by
/// the truncation experiments that need exact sizes).
pub fn generate_with_dims(spec: &DatasetSpec, dims: Dims, seed: u64) -> Field {
    let n = dims.len();
    let extents = dims.as_vec();
    let ndim = extents.len();

    let mut rng = Rng::seed_from_u64(seed ^ 0xD15E_A5E5_1234_5678);
    let mut gauss = Gaussian::new(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));

    // --- Features -----------------------------------------------------------------
    let num_features = ((spec.feature_density * n as f64).round() as usize).max(2);
    let width = spec.feature_width.max(0.75);
    let mut features: Vec<Feature> = Vec::with_capacity(num_features);
    for f in 0..num_features {
        let mut center = [0.0f64; 4];
        let mut lo = [0usize; 4];
        let mut hi = [0usize; 4];
        for d in 0..ndim {
            let c = rng.gen_range_f64(0.0, extents[d] as f64);
            center[d] = c;
            let reach = (4.0 * width).ceil();
            lo[d] = (c - reach).max(0.0) as usize;
            hi[d] = ((c + reach) as usize + 1).min(extents[d]);
        }
        // The first feature always has full amplitude so the value range is pinned at
        // ~1.0 regardless of how the remaining amplitudes are drawn.
        let amplitude = if f == 0 {
            1.0
        } else {
            rng.gen_range_f64(0.4, 1.0)
        };
        features.push(Feature {
            center,
            amplitude,
            inv_two_w2: 1.0 / (2.0 * width * width),
            lo,
            hi,
        });
    }

    // --- Noise floor + drift --------------------------------------------------------
    // The drift is a single ultra-low-frequency cosine of small amplitude; its per-sample
    // increment is kept at least an order of magnitude below the noise so it does not
    // perturb the quantization-code statistics.
    let drift_amplitude = spec.noise_sigma * 2.0;
    let drift_cycles = 0.5;
    let mut data = vec![0.0f32; n];
    let inv_n = if n > 1 { 1.0 / (n as f64 - 1.0) } else { 0.0 };
    for (idx, value) in data.iter_mut().enumerate() {
        let drift =
            drift_amplitude * (std::f64::consts::TAU * drift_cycles * idx as f64 * inv_n).cos();
        *value = (drift + spec.noise_sigma * gauss.sample()) as f32;
    }

    // --- Stamp the features over their bounding boxes --------------------------------
    let mut strides = vec![1usize; ndim];
    for d in (0..ndim.saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * extents[d + 1];
    }
    for feat in &features {
        stamp_feature(&mut data, &extents, &strides, feat, ndim);
    }

    Field::new(format!("{}-synthetic", spec.name), dims, data)
}

/// Adds one Gaussian bump to the field, iterating only over its bounding box.
fn stamp_feature(
    data: &mut [f32],
    extents: &[usize],
    strides: &[usize],
    feat: &Feature,
    ndim: usize,
) {
    // Iterate the bounding box with an odometer over `ndim` coordinates.
    let mut coord = [0usize; 4];
    coord[..ndim].copy_from_slice(&feat.lo[..ndim]);
    // Empty box guard.
    for d in 0..ndim {
        if feat.lo[d] >= feat.hi[d] {
            return;
        }
    }
    loop {
        // Distance^2 from the centre.
        let mut dist2 = 0.0f64;
        for (d, &c) in coord.iter().enumerate().take(ndim) {
            let delta = c as f64 - feat.center[d];
            dist2 += delta * delta;
        }
        let contrib = feat.amplitude * (-dist2 * feat.inv_two_w2).exp();
        if contrib > 1e-6 {
            let mut idx = 0usize;
            for d in 0..ndim {
                idx += coord[d] * strides[d];
            }
            data[idx] += contrib as f32;
        }

        // Advance the odometer (last dimension fastest).
        let mut d = ndim;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            coord[d] += 1;
            if coord[d] < feat.hi[d] {
                break;
            }
            coord[d] = feat.lo[d];
        }
        let _ = extents;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{all_datasets, dataset_by_name};

    #[test]
    fn generation_is_deterministic() {
        let spec = dataset_by_name("HACC").unwrap();
        let a = generate(&spec, 100_000, 42);
        let b = generate(&spec, 100_000, 42);
        assert_eq!(a.data, b.data);
        assert_eq!(a.dims, b.dims);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = dataset_by_name("CESM").unwrap();
        let a = generate(&spec, 50_000, 1);
        let b = generate(&spec, 50_000, 2);
        assert_ne!(a.data, b.data);
    }

    #[test]
    fn dimensionality_is_preserved_for_every_dataset() {
        for spec in all_datasets() {
            let f = generate(&spec, 60_000, 7);
            assert_eq!(f.dims.ndim(), spec.full_dims.ndim(), "{}", spec.name);
            assert!(
                f.len() > 10_000,
                "{} generated only {} elements",
                spec.name,
                f.len()
            );
            // The per-extent floor of 4 can inflate strongly anisotropic datasets
            // (e.g. CESM's 26-level dimension), but never unboundedly.
            assert!(
                f.len() <= 4 * 60_000,
                "{} generated too many elements: {}",
                spec.name,
                f.len()
            );
        }
    }

    #[test]
    fn values_are_finite_and_range_pinned_by_features() {
        for spec in all_datasets() {
            let f = generate(&spec, 40_000, 3);
            assert!(f.data.iter().all(|v| v.is_finite()), "{}", spec.name);
            let (min, max) = f.value_range();
            // The unit-amplitude feature pins the maximum near 1.0 (overlapping features
            // can push it somewhat higher); the noise floor keeps the minimum near 0.
            assert!(max > 0.8 && max < 2.5, "{}: max = {}", spec.name, max);
            assert!(min > -0.5, "{}: min = {}", spec.name, min);
        }
    }

    #[test]
    fn noise_floor_matches_spec_sigma() {
        // Away from features, consecutive differences are dominated by the noise floor:
        // std(diff) ~ sqrt(2) * sigma. Verify within a factor of two for a low-density
        // dataset where features barely contribute.
        let spec = dataset_by_name("HACC").unwrap();
        let f = generate(&spec, 200_000, 11);
        let diffs: Vec<f64> = f.data.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
        let var = diffs.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / diffs.len() as f64;
        let expected = (2.0f64).sqrt() * spec.noise_sigma;
        let got = var.sqrt();
        assert!(
            got > 0.5 * expected && got < 2.0 * expected,
            "noise std {} vs expected {}",
            got,
            expected
        );
    }

    #[test]
    fn noisier_spec_has_larger_residuals() {
        // EXAALT (high noise) must have much larger first differences than Nyx (low
        // noise): this is the property that drives their very different compression
        // ratios.
        let exaalt = generate(&dataset_by_name("EXAALT").unwrap(), 80_000, 5);
        let nyx = generate(&dataset_by_name("Nyx").unwrap(), 80_000, 5);
        let roughness = |f: &Field| {
            let mut diffs: Vec<f64> = f
                .data
                .windows(2)
                .map(|w| (w[1] - w[0]).abs() as f64)
                .collect();
            // Median, so the sparse features do not dominate.
            diffs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            diffs[diffs.len() / 2]
        };
        assert!(roughness(&exaalt) > 10.0 * roughness(&nyx));
    }

    #[test]
    fn explicit_dims_generation() {
        let spec = dataset_by_name("RTM").unwrap();
        let f = generate_with_dims(&spec, Dims::D3(16, 16, 16), 9);
        assert_eq!(f.len(), 4096);
        assert_eq!(f.dims, Dims::D3(16, 16, 16));
    }

    #[test]
    fn features_are_present_and_localized() {
        let spec = dataset_by_name("Nyx").unwrap();
        let f = generate(&spec, 100_000, 21);
        // Count elements above half amplitude: must be non-zero (features exist) but a
        // tiny fraction (they are sparse).
        let big = f.data.iter().filter(|&&v| v > 0.5).count();
        assert!(big > 0);
        assert!(
            (big as f64) < 0.02 * f.len() as f64,
            "features not sparse: {}",
            big
        );
    }
}
