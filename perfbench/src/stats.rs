//! Order statistics under the benchmark's reporting rule: a timing is
//! reported as its median plus the highest percentile that still has at
//! least ten samples beyond it, always together with its sample count.

use std::fmt;

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile read from `samples` observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile asked for, in `(0, 1)`.
    pub q: f64,
    /// Its value (nearest rank; the mean of the middle two for a median
    /// of an even count).
    pub value: f64,
    /// Observations it was read from.
    pub samples: usize,
}

/// Why a percentile was refused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PercentileError {
    /// No observations at all.
    Empty,
    /// Fewer than [`MIN_BEYOND`] observations lie beyond the rank.
    TooFewBeyond {
        /// The quantile asked for.
        q: f64,
        /// Observations available.
        samples: usize,
        /// Observations beyond the rank.
        beyond: usize,
    },
}

impl fmt::Display for PercentileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PercentileError::Empty => write!(f, "no samples"),
            PercentileError::TooFewBeyond { q, samples, beyond } => write!(
                f,
                "p{} of {samples} samples has only {beyond} beyond it (need {MIN_BEYOND})",
                q * 100.0
            ),
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `samples` with its count.
///
/// # Errors
///
/// [`PercentileError::Empty`] without samples.
pub fn median(samples: &[f64]) -> Result<Percentile, PercentileError> {
    if samples.is_empty() {
        return Err(PercentileError::Empty);
    }
    let v = sorted(samples);
    let n = v.len();
    let value = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Ok(Percentile {
        q: 0.5,
        value,
        samples: n,
    })
}

/// The nearest-rank `q`-quantile of `samples`, refused when fewer than
/// [`MIN_BEYOND`] samples lie beyond its rank (a p99 needs 1000).
///
/// # Errors
///
/// [`PercentileError::Empty`] without samples,
/// [`PercentileError::TooFewBeyond`] when the tail is too thin.
pub fn percentile(samples: &[f64], q: f64) -> Result<Percentile, PercentileError> {
    if samples.is_empty() {
        return Err(PercentileError::Empty);
    }
    let n = samples.len();
    // Nearest rank, guarded against `q * n` landing a hair above an
    // integer through rounding.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(PercentileError::TooFewBeyond {
            q,
            samples: n,
            beyond,
        });
    }
    Ok(Percentile {
        q,
        value: sorted(samples)[rank - 1],
        samples: n,
    })
}

/// Median and interquartile distance of `values`, with the quartiles
/// cut as Python's `statistics.quantiles(values, n=4)` cuts them (the
/// "exclusive" method). Needs at least two values.
pub fn median_and_iqr(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((median(values).ok()?.value, cut(3) - cut(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&samples, 0.99).unwrap();
        assert_eq!(p99.samples, 1000);
        assert_eq!(p99.value, 990.0);
        let p50 = median(&samples).unwrap();
        assert_eq!(p50.samples, 1000);
        assert_eq!(p50.value, 500.5);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            percentile(&samples, 0.99),
            Err(PercentileError::TooFewBeyond {
                q: 0.99,
                samples: 999,
                beyond: 9
            })
        );
        // Nineteen samples cannot carry a nearest-rank p50 either...
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(matches!(
            percentile(&few, 0.5),
            Err(PercentileError::TooFewBeyond { beyond: 9, .. })
        ));
        // ...twenty can.
        let enough: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&enough, 0.5).unwrap().value, 10.0);
        assert_eq!(percentile(&[], 0.5), Err(PercentileError::Empty));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (med, iqr) = median_and_iqr(&values).unwrap();
        assert_eq!(med, 5.5);
        assert!((iqr - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (med, iqr) = median_and_iqr(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(med, 2.0);
        assert!((iqr - 2.0).abs() < 1e-12);
        assert_eq!(median_and_iqr(&[1.0]), None);
    }
}
