//! Order statistics over host-time samples.

/// Sorted copy of `v` (NaN-free input assumed; NaNs sort last).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// First and third quartiles by the "exclusive" method (the default of
/// Python's `statistics.quantiles(v, n=4)`); both equal the single value
/// for fewer than two samples.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: f64| {
        // Position (1-based) m = q·(n+1), clamped to the sample range.
        let m = (q * (n as f64 + 1.0)).clamp(1.0, n as f64);
        let lo = m.floor() as usize;
        let frac = m - lo as f64;
        let a = s[lo - 1];
        let b = s[(lo).min(n - 1)];
        a + frac * (b - a)
    };
    (at(0.25), at(0.75))
}

/// The highest percentile of `v` that still has at least ten samples
/// strictly beyond it: the `(n − 10)`-th order statistic. Returns the value
/// and its percentile; `None` with ten samples or fewer.
pub fn tail_with_ten_beyond(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    if n <= 10 {
        return None;
    }
    let k = n - 10;
    Some((s[k - 1], 100.0 * k as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8], n=4) == [2.25, 4.5, 6.75]
        let (q1, q3) = quartiles(&[8.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert!((q1 - 2.25).abs() < 1e-12 && (q3 - 6.75).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (x, p) = tail_with_ten_beyond(&v).unwrap();
        assert_eq!(x, 30.0);
        assert_eq!(p, 75.0);
        assert_eq!(v.iter().filter(|&&y| y > x).count(), 10);
        assert!(tail_with_ten_beyond(&v[..10]).is_none());
    }
}
