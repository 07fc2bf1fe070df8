//! Order statistics for every timing the benchmark reports.

/// The `q`-quantile (`0.0..=1.0`) of `values`, interpolating linearly
/// between the two closest ranks (the "type 7" definition spreadsheets and
/// NumPy use). `values` need not be sorted; `None` when it is empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    Some(sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64))
}

/// The median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.0), Some(1.0));
        assert_eq!(quantile(&hundred, 1.0), Some(100.0));
        let p99 = quantile(&hundred, 0.99).unwrap();
        assert!((p99 - 99.01).abs() < 1e-9, "{p99}");
        assert_eq!(quantile(&hundred, 0.5), Some(50.5));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn empty_input_has_no_quantile() {
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&[], 0.99), None);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn out_of_range_quantiles_clamp() {
        assert_eq!(quantile(&[1.0, 2.0], -1.0), Some(1.0));
        assert_eq!(quantile(&[1.0, 2.0], 2.0), Some(2.0));
    }
}
