//! Order statistics over latency samples.

use std::time::Duration;

/// A duration in (fractional) milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `p`-quantile (nearest rank) of `samples`, or `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The highest percentile with at least ten samples beyond it, as
/// `(label, value)`: p99.9, p99, p90 or, below 100 samples, the maximum.
pub fn tail(samples: &[f64]) -> Option<(&'static str, f64)> {
    let (label, p) = match samples.len() {
        0 => return None,
        n if n >= 10_000 => ("p99.9", 0.999),
        n if n >= 1_000 => ("p99", 0.99),
        n if n >= 100 => ("p90", 0.9),
        _ => ("max", 1.0),
    };
    percentile(samples, p).map(|v| (label, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(median(&[]), None);
        assert_eq!(tail(&xs), Some(("p90", 90.0)));
    }
}
