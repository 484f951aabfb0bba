//! Small statistics helpers used by the forecast and evaluation code:
//! percentiles, the share of a sample at or below a threshold, and the
//! sMAPE forecast-accuracy metric from paper §7.1.

/// Percentile of a sample via linear interpolation between order
/// statistics. `p` is in `[0, 100]`. Returns `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_sorted(&v, p)
}

/// Percentile of an already-sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Arithmetic mean; `NaN` for empty input.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population standard deviation; `NaN` for empty input.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Symmetric Mean Absolute Percentage Error (paper §7.1):
///
/// `sMAPE = (1/n) * Σ |A_t - F_t| / ((A_t + F_t) / 2)`
///
/// Range is `[0, 2]` by definition. Pairs where both actual and forecast
/// are zero contribute zero error. Panics if lengths differ.
pub fn smape(actual: &[f64], forecast: &[f64]) -> f64 {
    assert_eq!(actual.len(), forecast.len(), "smape length mismatch");
    if actual.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for (&a, &f) in actual.iter().zip(forecast) {
        let denom = (a + f) / 2.0;
        if denom.abs() > f64::EPSILON {
            total += (a - f).abs() / denom;
        }
    }
    total / actual.len() as f64
}

/// Fraction of samples `<= threshold`.
pub fn cdf_at(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().filter(|&&v| v <= threshold).count() as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&v, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&v, 100.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&v, 50.0) - 2.5).abs() < 1e-12);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn smape_range_and_symmetry() {
        // Perfect forecast.
        assert_eq!(smape(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        // Complete miss: forecast 0 vs actual x gives |x|/(x/2) = 2.
        assert!((smape(&[1.0], &[0.0]) - 2.0).abs() < 1e-12);
        // Symmetric in (A, F).
        let a = smape(&[10.0], &[5.0]);
        let b = smape(&[5.0], &[10.0]);
        assert!((a - b).abs() < 1e-12);
        // Both zero contributes nothing.
        assert_eq!(smape(&[0.0], &[0.0]), 0.0);
    }

    #[test]
    fn smape_paper_range() {
        // sMAPE is bounded by 2 for non-negative data.
        let a = [3.0, 7.0, 0.0, 100.0];
        let f = [0.0, 0.0, 5.0, 1.0];
        let s = smape(&a, &f);
        assert!((0.0..=2.0).contains(&s));
    }

    #[test]
    fn cdf_at_counts_samples_at_or_below() {
        assert!((cdf_at(&[1.0, 2.0, 3.0, 4.0], 2.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_and_std_dev() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((std_dev(&[2.0, 2.0, 2.0])).abs() < 1e-12);
        assert!(std_dev(&[]).is_nan());
    }
}
