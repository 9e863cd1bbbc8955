//! Reconstruction-quality statistics: error-bound verification and PSNR.

/// Verifies the point-wise error bound, returning the first violating index if any.
///
/// A small slack proportional to the value magnitude is allowed on top of the bound to
/// account for the `f32` representation error of the reconstructed values (the bound
/// itself is enforced in exact arithmetic by the quantizer).
pub fn verify_error_bound(original: &[f32], reconstructed: &[f32], bound: f64) -> Option<usize> {
    assert_eq!(original.len(), reconstructed.len());
    original
        .iter()
        .zip(reconstructed.iter())
        .position(|(&a, &b)| {
            let tolerance = bound * (1.0 + 1e-4) + a.abs() as f64 * 1e-6 + 1e-9;
            (a as f64 - b as f64).abs() > tolerance
        })
}

/// Peak signal-to-noise ratio in dB, using the original data's value range as the peak.
/// Returns `f64::INFINITY` for an exact reconstruction.
pub fn psnr(original: &[f32], reconstructed: &[f32]) -> f64 {
    assert_eq!(original.len(), reconstructed.len());
    if original.is_empty() {
        return f64::INFINITY;
    }
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    let mut sq_sum = 0.0f64;
    for (&a, &b) in original.iter().zip(reconstructed.iter()) {
        let av = a as f64;
        min = min.min(av);
        max = max.max(av);
        let d = av - b as f64;
        sq_sum += d * d;
    }
    let mse = sq_sum / original.len() as f64;
    if mse == 0.0 {
        return f64::INFINITY;
    }
    let range = (max - min).max(f64::MIN_POSITIVE);
    20.0 * range.log10() - 10.0 * mse.log10()
}

/// Maximum point-wise absolute error between the original and reconstructed data.
#[cfg(test)]
pub(crate) fn max_abs_error(original: &[f32], reconstructed: &[f32]) -> f64 {
    assert_eq!(original.len(), reconstructed.len());
    original
        .iter()
        .zip(reconstructed.iter())
        .map(|(&a, &b)| (a as f64 - b as f64).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_reconstruction() {
        let a = vec![1.0f32, 2.0, 3.0];
        assert_eq!(max_abs_error(&a, &a), 0.0);
        assert_eq!(verify_error_bound(&a, &a, 0.0), None);
        assert!(psnr(&a, &a).is_infinite());
    }

    #[test]
    fn bounded_error_detected() {
        let a = vec![0.0f32, 1.0, 2.0];
        let b = vec![0.05f32, 0.95, 2.2];
        assert!((max_abs_error(&a, &b) - 0.2).abs() < 1e-6);
        assert_eq!(verify_error_bound(&a, &b, 0.25), None);
        assert_eq!(verify_error_bound(&a, &b, 0.1), Some(2));
    }

    #[test]
    fn psnr_decreases_with_larger_error() {
        let a: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).sin()).collect();
        let small: Vec<f32> = a.iter().map(|v| v + 0.001).collect();
        let large: Vec<f32> = a.iter().map(|v| v + 0.01).collect();
        assert!(psnr(&a, &small) > psnr(&a, &large));
        assert!(psnr(&a, &large) > 20.0);
    }

    #[test]
    fn empty_input() {
        assert!(psnr(&[], &[]).is_infinite());
        assert_eq!(max_abs_error(&[], &[]), 0.0);
        assert_eq!(verify_error_bound(&[], &[], 1.0), None);
    }
}
