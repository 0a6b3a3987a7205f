//! Median and quartile aggregation over repeated measurements.
//!
//! Quartiles use the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, so the spreads this benchmark prints
//! are the ones `compare.py` and any external check compute from the same
//! values.

/// The median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles, as `statistics.quantiles(values, n=4)`
/// returns them; `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    if v.len() < 2 {
        return None;
    }
    Some((exclusive_quantile(&v, 1), exclusive_quantile(&v, 3)))
}

/// Interquartile range as a share of the median (the benchmark's spread
/// measure); `None` with fewer than two values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `i`-th of the three cut points (n = 4) over sorted `data`, per
/// CPython's `quantiles(method='exclusive')`.
fn exclusive_quantile(data: &[f64], i: usize) -> f64 {
    const N: usize = 4;
    let ld = data.len();
    let m = ld + 1;
    let j = (i * m / N).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * N) as f64;
    (data[j - 1] * (N as f64 - delta) + data[j] * delta) / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 100], n=4) == [1.5, 3.0, 52.0]
        assert_eq!(quartiles(&[100.0, 3.0, 1.0, 4.0, 2.0]), Some((1.5, 52.0)));
        assert_eq!(quartiles(&[7.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }
}
