//! Order statistics and number formatting shared by every report.

/// Sorts in place (timings are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
}

/// Median of an unsorted sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample; 0 for an empty one.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive" method), so the
/// spreads `--check-repeat` prints are the ones an outside harness would compute.
/// Fewer than two values have no spread: all three are the single value (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    if v.len() < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let (n, len) = (4usize, v.len());
    let cut = |i: usize| {
        let j = (i * (len + 1) / n).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Three significant digits, never scientific notation: 0.0312, 4.56, 78.9, 1230.
/// The CLI's "0.0 GB/s" rounding is what this exists to avoid.
pub fn sig3(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{}", x);
    }
    let magnitude = x.abs().log10().floor() as i32;
    let decimals = (2 - magnitude).max(0) as usize;
    format!("{:.*}", decimals, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn sig3_keeps_three_significant_digits() {
        assert_eq!(sig3(0.031234), "0.0312");
        assert_eq!(sig3(4.5678), "4.57");
        assert_eq!(sig3(78.94), "78.9");
        assert_eq!(sig3(1234.6), "1235");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&v), 50.5);
    }
}
