//! Order statistics, the tail-percentile rule and result digests.

use netcrafter::proto::fnv1a64;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so the spreads printed here are the ones the driver computes. `None`
/// below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median (0.0 below two samples or
/// for a zero median).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// The tail sample of `n` ascending samples: the highest one that still
/// has at least ten samples beyond it, as `(index, percentile)`. `None`
/// when that sample would not lie above the median (fewer than 21).
pub fn tail_index(n: usize) -> Option<(usize, f64)> {
    (n >= 21).then(|| (n - 11, 100.0 * (n - 10) as f64 / n as f64))
}

/// FNV-1a digest of a result's text form, as 16 hex digits.
pub fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_index(20), None);
        // 75 fig14 jobs: index 64 leaves samples 65..=74, ten of them.
        let (ix, pct) = tail_index(75).unwrap();
        assert_eq!((ix, 75 - 1 - ix), (64, 10));
        assert!((pct - 86.666).abs() < 0.01);
        let (ix, pct) = tail_index(60).unwrap();
        assert_eq!(60 - 1 - ix, 10);
        assert!((pct - 83.333).abs() < 0.01);
        assert_eq!(tail_index(21), Some((10, 100.0 * 11.0 / 21.0)));
    }

    #[test]
    fn digest_is_stable() {
        // FNV-1a 64 of "a" is a published test vector.
        assert_eq!(digest("a"), "af63dc4c8601ec8c");
        assert_eq!(digest(""), "cbf29ce484222325");
        assert_ne!(digest("exec_cycles = 1\n"), digest("exec_cycles = 2\n"));
    }
}
