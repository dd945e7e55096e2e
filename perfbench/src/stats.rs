//! Order statistics and the metric-name rule.

/// Percentile `q` (0..=1) of `values` by linear interpolation between the
/// two nearest order statistics (the NumPy default). `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so a spread printed here matches
/// the one a reader computes from the printed values. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, v.len() as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Samples ranked above the percentile-`q` sample among `n` sorted
/// samples, counting that sample by nearest rank (`ceil(q * n)`).
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64 - 1e-9).ceil().max(0.0) as usize;
    n.saturating_sub(rank)
}

/// Fewest samples at which a timing may be reported at percentile `q`:
/// at least ten must lie beyond it.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, q) >= 10)
        .expect("some n suffices")
}

/// Whether `name` is a legal metric or workload name: it starts with a
/// letter or digit and has at most 64 of `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn is_valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.5), Some(3.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(4.6));
        assert_eq!(median(&[1.0, 2.0]), Some(1.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(min_samples_for(0.5), 20);
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn names_follow_the_charset() {
        for ok in ["mteps", "comm.alltoallv_ms", "rmat-diropt", "2d", "a.b-c_d"] {
            assert!(is_valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".x", "-x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!is_valid_name(bad), "{bad}");
        }
    }
}
