//! Fixed-interval time series.
//!
//! All monitored and generated data in this workspace is represented as a
//! [`TimeSeries`]: a vector of `f64` samples spaced at a fixed step width.
//! The paper works with hourly averages ("we use hourly averages of the
//! monitored data for the most recent 30 days"), and folds them into
//! consolidation windows of 1, 2 or 4 hours; [`TimeSeries::fold_windows`]
//! and the resampling helpers implement exactly those operations.

use std::fmt;

/// Step width between consecutive samples of a [`TimeSeries`], in seconds.
///
/// A newtype is used so that a step width can never be confused with a
/// sample index or a duration measured in other units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StepSecs(pub u32);

impl StepSecs {
    /// One minute — the collection granularity of the monitoring agent.
    pub const MINUTE: StepSecs = StepSecs(60);
    /// One hour — the granularity of the warehouse aggregates used for
    /// consolidation planning.
    pub const HOUR: StepSecs = StepSecs(3600);

    /// Number of whole steps of `self` that fit in one step of `coarser`.
    ///
    /// Returns `None` when `coarser` is not an integer multiple of `self`.
    #[must_use]
    pub fn steps_per(self, coarser: StepSecs) -> Option<usize> {
        if self.0 == 0 || !coarser.0.is_multiple_of(self.0) {
            None
        } else {
            Some((coarser.0 / self.0) as usize)
        }
    }
}

impl fmt::Display for StepSecs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(3600) {
            write!(f, "{}h", self.0 / 3600)
        } else if self.0.is_multiple_of(60) {
            write!(f, "{}min", self.0 / 60)
        } else {
            write!(f, "{}s", self.0)
        }
    }
}

/// A time series with a fixed step width.
///
/// The series is anchored at sample index 0; the absolute epoch is carried
/// by the surrounding context (the generator and the emulator both treat
/// index 0 as "midnight, Monday, first day of the month" so that diurnal,
/// weekly and monthly structure line up across servers).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    step: StepSecs,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series from raw values.
    #[must_use]
    pub fn new(step: StepSecs, values: Vec<f64>) -> Self {
        Self { step, values }
    }

    /// Creates an empty series with the given step width.
    #[must_use]
    pub fn empty(step: StepSecs) -> Self {
        Self {
            step,
            values: Vec::new(),
        }
    }

    /// Creates a series of `len` copies of `value`.
    #[must_use]
    pub fn constant(step: StepSecs, len: usize, value: f64) -> Self {
        Self {
            step,
            values: vec![value; len],
        }
    }

    /// The step width between samples.
    #[must_use]
    pub fn step(&self) -> StepSecs {
        self.step
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw sample slice.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sample at `idx`, or `None` past the end.
    #[must_use]
    pub fn get(&self, idx: usize) -> Option<f64> {
        self.values.get(idx).copied()
    }

    /// Appends a sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Iterates over the samples.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter().copied()
    }

    /// Consumes the series, returning its raw values.
    #[must_use]
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Returns the sub-series of samples `range.start..range.end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn slice(&self, range: std::ops::Range<usize>) -> TimeSeries {
        TimeSeries {
            step: self.step,
            values: self.values[range].to_vec(),
        }
    }

    /// Element-wise sum of two series.
    ///
    /// The result has the length of the longer operand; missing samples are
    /// treated as zero.
    ///
    /// # Panics
    ///
    /// Panics if the step widths differ.
    #[must_use]
    pub fn add(&self, other: &TimeSeries) -> TimeSeries {
        assert_eq!(
            self.step, other.step,
            "cannot add series with different steps"
        );
        let len = self.len().max(other.len());
        let values = (0..len)
            .map(|i| self.get(i).unwrap_or(0.0) + other.get(i).unwrap_or(0.0))
            .collect();
        TimeSeries {
            step: self.step,
            values,
        }
    }

    /// Returns a new series scaled by `factor`.
    #[must_use]
    pub fn scale(&self, factor: f64) -> TimeSeries {
        TimeSeries {
            step: self.step,
            values: self.values.iter().map(|v| v * factor).collect(),
        }
    }

    /// Folds consecutive windows of `window` samples with `f` and returns
    /// the coarser series of fold results.
    ///
    /// A trailing partial window is folded as well; this matches the paper's
    /// handling of month boundaries (the last, possibly short, consolidation
    /// window still gets a demand estimate).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn fold_windows<F>(&self, window: usize, f: F) -> TimeSeries
    where
        F: FnMut(&[f64]) -> f64,
    {
        assert!(window > 0, "window must be positive");
        let step = StepSecs(self.step.0.saturating_mul(window as u32));
        let values = self.values.chunks(window).map(f).collect();
        TimeSeries { step, values }
    }

    /// Downsamples by averaging consecutive groups of `window` samples.
    #[must_use]
    pub fn resample_mean(&self, window: usize) -> TimeSeries {
        self.fold_windows(window, |c| c.iter().sum::<f64>() / c.len() as f64)
    }

    /// Downsamples by taking the maximum of consecutive groups of `window`
    /// samples.
    #[must_use]
    pub fn resample_max(&self, window: usize) -> TimeSeries {
        self.fold_windows(window, |c| {
            c.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        })
    }

    /// Mean of the samples, or `None` for an empty series.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        crate::stats::mean(&self.values)
    }

    /// Maximum of the samples, or `None` for an empty series.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Minimum of the samples, or `None` for an empty series.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }
}

impl FromIterator<f64> for TimeSeries {
    /// Collects hourly samples into a series (the most common granularity).
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        TimeSeries::new(StepSecs::HOUR, iter.into_iter().collect())
    }
}

impl Extend<f64> for TimeSeries {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        self.values.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hourly(values: &[f64]) -> TimeSeries {
        TimeSeries::new(StepSecs::HOUR, values.to_vec())
    }

    #[test]
    fn steps_per_divides_evenly() {
        assert_eq!(StepSecs::MINUTE.steps_per(StepSecs::HOUR), Some(60));
        assert_eq!(StepSecs::HOUR.steps_per(StepSecs::HOUR), Some(1));
        assert_eq!(StepSecs(7).steps_per(StepSecs::HOUR), None);
        assert_eq!(StepSecs(0).steps_per(StepSecs::HOUR), None);
    }

    #[test]
    fn step_display_uses_natural_units() {
        assert_eq!(StepSecs::HOUR.to_string(), "1h");
        assert_eq!(StepSecs(7200).to_string(), "2h");
        assert_eq!(StepSecs::MINUTE.to_string(), "1min");
        assert_eq!(StepSecs(90).to_string(), "90s");
    }

    #[test]
    fn fold_windows_max_matches_consolidation_window_sizing() {
        let s = hourly(&[1.0, 5.0, 2.0, 3.0, 9.0]);
        let folded = s.resample_max(2);
        assert_eq!(folded.values(), &[5.0, 3.0, 9.0]);
        assert_eq!(folded.step(), StepSecs(7200));
    }

    #[test]
    fn resample_mean_averages_groups() {
        let s = hourly(&[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(s.resample_mean(2).values(), &[3.0, 7.0]);
    }

    #[test]
    fn trailing_partial_window_is_folded() {
        let s = hourly(&[1.0, 2.0, 3.0]);
        assert_eq!(s.resample_mean(2).values(), &[1.5, 3.0]);
    }

    #[test]
    fn add_handles_unequal_lengths() {
        let a = hourly(&[1.0, 2.0]);
        let b = hourly(&[10.0, 20.0, 30.0]);
        assert_eq!(a.add(&b).values(), &[11.0, 22.0, 30.0]);
    }

    #[test]
    #[should_panic(expected = "different steps")]
    fn add_rejects_mismatched_steps() {
        let a = hourly(&[1.0]);
        let b = TimeSeries::new(StepSecs::MINUTE, vec![1.0]);
        let _ = a.add(&b);
    }

    #[test]
    fn scale_multiplies_all_samples() {
        let s = hourly(&[1.0, -2.0]);
        assert_eq!(s.scale(2.5).values(), &[2.5, -5.0]);
    }

    #[test]
    fn min_max_mean_on_empty_are_none() {
        let s = TimeSeries::empty(StepSecs::HOUR);
        assert!(s.mean().is_none());
        assert!(s.max().is_none());
        assert!(s.min().is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn slice_preserves_step() {
        let s = hourly(&[1.0, 2.0, 3.0, 4.0]);
        let sub = s.slice(1..3);
        assert_eq!(sub.values(), &[2.0, 3.0]);
        assert_eq!(sub.step(), StepSecs::HOUR);
    }

    #[test]
    fn collect_and_extend() {
        let mut s: TimeSeries = [1.0, 2.0].into_iter().collect();
        s.extend([3.0]);
        assert_eq!(s.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(s.step(), StepSecs::HOUR);
    }

    #[test]
    fn constant_series() {
        let s = TimeSeries::constant(StepSecs::HOUR, 3, 7.0);
        assert_eq!(s.values(), &[7.0, 7.0, 7.0]);
    }
}
