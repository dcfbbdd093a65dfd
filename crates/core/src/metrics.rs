//! Empirical performance statistics (Sections IV-A and V of the paper).
//!
//! * [`fairness_stat`] — the paper's `F` statistic, Eq. (3):
//!   `F = (1/N) Σ |log(d_i/u_i)|` (0 is perfectly fair).
//! * [`avg_fairness_ratio`] — the convenience metric the experiments use
//!   instead: `(Σ u_i/d_i)/N` (1 is perfectly fair).
//! * [`efficiency_from_rates`] — Eq. (2): `E = Σ 1/(N·d_i)`, the average
//!   download time for a unit file at equilibrium rates.
//! * [`susceptibility`] — the fraction of upload bandwidth received by
//!   free-riders (Section V's definition).
//! * [`jain_index`] — the standard Jain fairness index, reported alongside
//!   the paper's metrics in our experiment output.
//! * [`Cdf`] and [`TimeSeries`] — the series behind the paper's figures.

use std::fmt;

/// The paper's fairness statistic `F` (Eq. 3) over per-user
/// (upload, download) rate pairs. `F = 0` iff `u_i = d_i` for all users.
///
/// Users with a zero upload or download rate are skipped (their log-ratio
/// is undefined — the paper notes reciprocity is "so inefficient that
/// fairness cannot be defined"); the number of skipped users is returned
/// alongside the statistic.
///
/// # Example
///
/// ```
/// use coop_incentives::metrics::fairness_stat;
/// let (f, skipped) = fairness_stat(&[(10.0, 10.0), (5.0, 5.0)]);
/// assert_eq!(f, 0.0);
/// assert_eq!(skipped, 0);
/// ```
pub fn fairness_stat(rates: &[(f64, f64)]) -> (f64, usize) {
    let mut sum = 0.0;
    let mut counted = 0usize;
    let mut skipped = 0usize;
    for &(u, d) in rates {
        if u > 0.0 && d > 0.0 {
            sum += (d / u).ln().abs();
            counted += 1;
        } else {
            skipped += 1;
        }
    }
    if counted == 0 {
        (f64::INFINITY, skipped)
    } else {
        (sum / counted as f64, skipped)
    }
}

/// The experiments' average fairness `(Σ u_i/d_i)/N` over users with a
/// positive download rate (Section V: "we use the average fairness,
/// `(Σ u_i/d_i)/N`, to measure the system fairness in our experiments").
/// Returns `None` if no user has downloaded anything.
pub fn avg_fairness_ratio(rates: &[(f64, f64)]) -> Option<f64> {
    let ratios: Vec<f64> = rates
        .iter()
        .filter(|&&(_, d)| d > 0.0)
        .map(|&(u, d)| u / d)
        .collect();
    if ratios.is_empty() {
        None
    } else {
        Some(ratios.iter().sum::<f64>() / ratios.len() as f64)
    }
}

/// The paper's efficiency `E = Σ 1/(N·d_i)` (Eq. 2): the average download
/// time of a unit-size file at the given per-user download rates. Lower is
/// better. Returns infinity if any rate is zero (that user never finishes).
///
/// # Panics
///
/// Panics if `rates` is empty.
pub fn efficiency_from_rates(rates: &[f64]) -> f64 {
    assert!(!rates.is_empty(), "efficiency needs at least one user");
    let n = rates.len() as f64;
    rates
        .iter()
        .map(|&d| {
            if d > 0.0 {
                1.0 / (n * d)
            } else {
                f64::INFINITY
            }
        })
        .sum()
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` — 1 when all values are equal,
/// `1/n` when one user takes everything. Returns `None` on empty or
/// all-zero input.
pub fn jain_index(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sum: f64 = values.iter().sum();
    let sq: f64 = values.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return None;
    }
    Some(sum * sum / (values.len() as f64 * sq))
}

/// Free-riding susceptibility (Section V): the fraction of all uploaded
/// bytes that ended up (usable) at free-riders.
///
/// Returns 0 when nothing has been uploaded yet.
pub fn susceptibility(freerider_received: u64, total_uploaded: u64) -> f64 {
    if total_uploaded == 0 {
        0.0
    } else {
        freerider_received as f64 / total_uploaded as f64
    }
}

/// An empirical cumulative distribution function over `f64` samples.
///
/// # Example
///
/// ```
/// use coop_incentives::metrics::Cdf;
/// let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.fraction_at_or_below(2.5), 0.5);
/// assert_eq!(cdf.quantile(0.5), Some(2.0));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from unsorted samples; NaNs are dropped.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaNs removed"));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns true if the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `≤ x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`), or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() as f64 * q).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        Some(self.sorted[idx])
    }

    /// Mean of the samples, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Evaluates the CDF at `points` evenly spaced grid positions between
    /// the min and max sample, returning `(x, fraction ≤ x)` pairs — the
    /// series a figure would plot.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().expect("nonempty");
        (0..points)
            .map(|i| {
                let x = if points == 1 {
                    hi
                } else {
                    lo + (hi - lo) * i as f64 / (points - 1) as f64
                };
                (x, self.fraction_at_or_below(x))
            })
            .collect()
    }
}

/// A sampled time series `(time seconds, value)` — the backing data of the
/// paper's fairness-vs-time and bootstrap-vs-time plots.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample; times must be nondecreasing.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous sample.
    pub fn push(&mut self, t: f64, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "time series must be nondecreasing in time");
        }
        self.points.push((t, value));
    }

    /// The raw samples.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The final value, or `None` when empty.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// The value at the latest sample with `time ≤ t` (step interpolation).
    pub fn value_at(&self, t: f64) -> Option<f64> {
        self.points
            .iter()
            .take_while(|&&(pt, _)| pt <= t)
            .last()
            .map(|&(_, v)| v)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns true when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl fmt::Display for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TimeSeries[{} points]", self.points.len())
    }
}

impl FromIterator<(f64, f64)> for TimeSeries {
    fn from_iter<T: IntoIterator<Item = (f64, f64)>>(iter: T) -> Self {
        let mut ts = TimeSeries::new();
        for (t, v) in iter {
            ts.push(t, v);
        }
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fairness_zero_iff_balanced() {
        let (f, _) = fairness_stat(&[(3.0, 3.0), (7.0, 7.0)]);
        assert_eq!(f, 0.0);
        let (f, _) = fairness_stat(&[(1.0, 2.0)]);
        assert!((f - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn fairness_skips_zero_rates() {
        let (f, skipped) = fairness_stat(&[(0.0, 5.0), (2.0, 2.0)]);
        assert_eq!(f, 0.0);
        assert_eq!(skipped, 1);
        let (f, skipped) = fairness_stat(&[(0.0, 0.0)]);
        assert!(f.is_infinite());
        assert_eq!(skipped, 1);
    }

    #[test]
    fn fairness_is_symmetric_in_ratio_direction() {
        let (f1, _) = fairness_stat(&[(1.0, 4.0)]);
        let (f2, _) = fairness_stat(&[(4.0, 1.0)]);
        assert!((f1 - f2).abs() < 1e-12);
    }

    #[test]
    fn avg_ratio_one_when_balanced() {
        let r = avg_fairness_ratio(&[(2.0, 2.0), (9.0, 9.0)]).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
        assert_eq!(avg_fairness_ratio(&[(1.0, 0.0)]), None);
    }

    #[test]
    fn efficiency_matches_hand_computation() {
        // Two users with rates 1 and 2: E = 1/(2·1) + 1/(2·2) = 0.75.
        let e = efficiency_from_rates(&[1.0, 2.0]);
        assert!((e - 0.75).abs() < 1e-12);
        assert!(efficiency_from_rates(&[1.0, 0.0]).is_infinite());
    }

    #[test]
    fn equal_rates_minimize_efficiency_for_fixed_total() {
        // Lemma 1: with Σd fixed, equal rates minimize Σ 1/(N d_i).
        let equal = efficiency_from_rates(&[2.0, 2.0]);
        let skewed = efficiency_from_rates(&[1.0, 3.0]);
        assert!(equal < skewed);
    }

    #[test]
    fn jain_extremes() {
        assert!((jain_index(&[5.0, 5.0, 5.0]).unwrap() - 1.0).abs() < 1e-12);
        let one_taker = jain_index(&[10.0, 0.0, 0.0, 0.0]).unwrap();
        assert!((one_taker - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[]), None);
        assert_eq!(jain_index(&[0.0, 0.0]), None);
    }

    #[test]
    fn susceptibility_fraction() {
        assert_eq!(susceptibility(0, 0), 0.0);
        assert_eq!(susceptibility(25, 100), 0.25);
    }

    #[test]
    fn cdf_fraction_and_quantiles() {
        let cdf = Cdf::from_samples(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
        assert_eq!(cdf.fraction_at_or_below(10.0), 1.0);
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(4.0));
        assert_eq!(cdf.mean(), Some(2.5));
    }

    #[test]
    fn cdf_handles_nan_and_empty() {
        let cdf = Cdf::from_samples(vec![f64::NAN]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.quantile(0.5), None);
        assert_eq!(cdf.mean(), None);
        assert!(cdf.series(5).is_empty());
    }

    #[test]
    fn cdf_empty_input() {
        let cdf = Cdf::from_samples(Vec::new());
        assert!(cdf.is_empty());
        assert_eq!(cdf.len(), 0);
        assert_eq!(cdf.fraction_at_or_below(0.0), 0.0);
        assert_eq!(cdf.quantile(0.5), None);
        assert_eq!(cdf.mean(), None);
        assert!(cdf.series(10).is_empty());
    }

    #[test]
    fn cdf_single_sample() {
        let cdf = Cdf::from_samples(vec![7.0]);
        assert_eq!(cdf.len(), 1);
        assert!(!cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(6.9), 0.0);
        assert_eq!(cdf.fraction_at_or_below(7.0), 1.0);
        // Every quantile of a single sample is that sample.
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(cdf.quantile(q), Some(7.0), "q = {q}");
        }
        assert_eq!(cdf.mean(), Some(7.0));
        // A degenerate (zero-width) support still yields a plottable series.
        assert_eq!(cdf.series(1), vec![(7.0, 1.0)]);
        let series = cdf.series(3);
        assert_eq!(series.len(), 3);
        assert!(series.iter().all(|&(x, f)| x == 7.0 && f == 1.0));
    }

    #[test]
    fn cdf_quantile_edges() {
        let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        // Out-of-range q clamps instead of panicking.
        assert_eq!(cdf.quantile(-0.5), Some(1.0));
        assert_eq!(cdf.quantile(1.5), Some(4.0));
        // Quantiles step at the k/n boundaries (ceil convention): q just
        // above k/4 selects sample k+1.
        assert_eq!(cdf.quantile(0.25), Some(1.0));
        assert_eq!(cdf.quantile(0.25 + 1e-9), Some(2.0));
        assert_eq!(cdf.quantile(0.75), Some(3.0));
        assert_eq!(cdf.quantile(0.75 + 1e-9), Some(4.0));
    }

    #[test]
    fn time_series_empty_and_single() {
        let empty = TimeSeries::new();
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.last_value(), None);
        assert_eq!(empty.value_at(0.0), None);
        assert!(empty.points().is_empty());
        assert_eq!(empty.to_string(), "TimeSeries[0 points]");

        let mut single = TimeSeries::new();
        single.push(2.0, 9.0);
        assert_eq!(single.len(), 1);
        assert_eq!(single.value_at(1.9), None, "before the first sample");
        assert_eq!(single.value_at(2.0), Some(9.0));
        assert_eq!(single.value_at(f64::INFINITY), Some(9.0));
        assert_eq!(single.last_value(), Some(9.0));
        // Repeated timestamps are allowed (nondecreasing, not increasing).
        single.push(2.0, 10.0);
        assert_eq!(single.value_at(2.0), Some(10.0));
    }

    #[test]
    fn cdf_series_is_monotone() {
        let cdf = Cdf::from_samples((1..=100).map(|i| i as f64).collect());
        let series = cdf.series(10);
        assert_eq!(series.len(), 10);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(series.last().unwrap().1, 1.0);
    }

    #[test]
    fn time_series_step_lookup() {
        let ts: TimeSeries = [(0.0, 1.0), (10.0, 2.0), (20.0, 3.0)].into_iter().collect();
        assert_eq!(ts.value_at(-1.0), None);
        assert_eq!(ts.value_at(0.0), Some(1.0));
        assert_eq!(ts.value_at(15.0), Some(2.0));
        assert_eq!(ts.value_at(100.0), Some(3.0));
        assert_eq!(ts.last_value(), Some(3.0));
        assert_eq!(ts.len(), 3);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn time_series_rejects_time_travel() {
        let mut ts = TimeSeries::new();
        ts.push(5.0, 0.0);
        ts.push(4.0, 0.0);
    }
}
