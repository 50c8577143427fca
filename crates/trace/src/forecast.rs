//! Long-term demand forecasting (§2.1, "Prediction").
//!
//! The paper's Prediction step "uses the historical resource usage data
//! and estimates the resource usage for the future. Prediction may be
//! short-term or long-term in nature." Short-term (per-window) predictors
//! live in the consolidation crate; this module provides the *long-term*
//! side used by semi-static sizing: a linear trend over daily means
//! ([`linear_trend`]) and a trend-adjusted seasonal forecast
//! ([`trend_adjusted_seasonal`]). Organic growth is what makes a
//! placement sized on last month's peak contend this month — the
//! forecast-aware sizing hook in the planner exists to absorb exactly
//! that.

use crate::series::TimeSeries;

/// A fitted linear trend `value ≈ intercept + slope × step`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearTrend {
    /// Value at step 0.
    pub intercept: f64,
    /// Change per step.
    pub slope: f64,
}

impl LinearTrend {
    /// The trend's value at `step` (may be fractional/extrapolated).
    #[must_use]
    pub fn at(&self, step: f64) -> f64 {
        self.intercept + self.slope * step
    }

    /// Multiplicative growth between two steps, clamped to `min_ratio..`
    /// (a shrinking trend still forecasts at least `min_ratio` of the
    /// current level — capacity planners do not *shrink* reservations on
    /// a fitted line alone).
    #[must_use]
    pub fn growth_ratio(&self, from_step: f64, to_step: f64, min_ratio: f64) -> f64 {
        let from = self.at(from_step);
        let to = self.at(to_step);
        if from <= 0.0 {
            return min_ratio.max(1.0);
        }
        (to / from).max(min_ratio)
    }
}

/// Least-squares linear trend over the samples.
///
/// Returns `None` for fewer than 2 samples.
#[must_use]
pub fn linear_trend(values: &[f64]) -> Option<LinearTrend> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let n_f = n as f64;
    let mean_x = (n_f - 1.0) / 2.0;
    let mean_y = values.iter().sum::<f64>() / n_f;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (i, &y) in values.iter().enumerate() {
        let dx = i as f64 - mean_x;
        sxy += dx * (y - mean_y);
        sxx += dx * dx;
    }
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    Some(LinearTrend {
        intercept: mean_y - slope * mean_x,
        slope,
    })
}

/// Linear trend of the *daily means* of an hourly series — the robust way
/// to detect organic growth under strong diurnal structure.
///
/// Returns `None` for series shorter than two full days.
#[must_use]
pub fn daily_trend(series: &TimeSeries) -> Option<LinearTrend> {
    let days = series.len() / 24;
    if days < 2 {
        return None;
    }
    let daily_means: Vec<f64> = series.values()[..days * 24]
        .chunks(24)
        .map(|day| day.iter().sum::<f64>() / 24.0)
        .collect();
    linear_trend(&daily_means)
}

/// Seasonal-naive forecast: repeats the last full `period` of the series
/// for `horizon` samples.
///
/// Returns `None` if the series is shorter than one period.
///
/// # Panics
///
/// Panics if `period == 0`.
#[must_use]
pub fn seasonal_naive(series: &TimeSeries, period: usize, horizon: usize) -> Option<TimeSeries> {
    assert!(period > 0, "period must be positive");
    if series.len() < period {
        return None;
    }
    let last = &series.values()[series.len() - period..];
    let values: Vec<f64> = (0..horizon).map(|i| last[i % period]).collect();
    Some(TimeSeries::new(series.step(), values))
}

/// Seasonal-naive forecast scaled by the fitted daily growth trend: the
/// long-term forecast used by growth-aware semi-static sizing.
///
/// Returns `None` if the series is shorter than one period or two days.
#[must_use]
pub fn trend_adjusted_seasonal(
    series: &TimeSeries,
    period: usize,
    horizon: usize,
) -> Option<TimeSeries> {
    let base = seasonal_naive(series, period, horizon)?;
    let trend = daily_trend(series)?;
    let days = (series.len() / 24) as f64;
    let values: Vec<f64> = base
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let future_day = days + i as f64 / 24.0;
            v * trend.growth_ratio(days - 1.0, future_day, 1.0)
        })
        .collect();
    Some(TimeSeries::new(series.step(), values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::StepSecs;

    fn hourly(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new(StepSecs::HOUR, values)
    }

    #[test]
    fn linear_trend_recovers_exact_line() {
        let values: Vec<f64> = (0..50).map(|i| 3.0 + 0.5 * i as f64).collect();
        let t = linear_trend(&values).unwrap();
        assert!((t.slope - 0.5).abs() < 1e-9);
        assert!((t.intercept - 3.0).abs() < 1e-9);
        assert!((t.at(100.0) - 53.0).abs() < 1e-9);
    }

    #[test]
    fn flat_series_has_zero_slope() {
        let t = linear_trend(&[7.0; 30]).unwrap();
        assert_eq!(t.slope, 0.0);
        assert_eq!(t.intercept, 7.0);
        assert!(linear_trend(&[1.0]).is_none());
    }

    #[test]
    fn growth_ratio_clamps_shrinkage() {
        let shrinking = LinearTrend {
            intercept: 10.0,
            slope: -1.0,
        };
        assert_eq!(shrinking.growth_ratio(0.0, 5.0, 1.0), 1.0);
        let growing = LinearTrend {
            intercept: 10.0,
            slope: 1.0,
        };
        assert!((growing.growth_ratio(0.0, 10.0, 1.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn daily_trend_sees_through_diurnal_swings() {
        // Strong diurnal wave plus 2% daily growth.
        let mut values = Vec::new();
        for day in 0..20 {
            for hour in 0..24 {
                let wave = 1.0 + 0.8 * (hour as f64 / 24.0 * std::f64::consts::TAU).sin();
                values.push(wave * (1.0 + 0.02 * day as f64));
            }
        }
        let t = daily_trend(&hourly(values)).unwrap();
        // Daily means grow by ~0.02 of the base level per day.
        assert!((t.slope - 0.02).abs() < 0.003, "slope {}", t.slope);
    }

    #[test]
    fn seasonal_naive_repeats_last_period() {
        let s = hourly((0..48).map(f64::from).collect());
        let f = seasonal_naive(&s, 24, 30).unwrap();
        assert_eq!(f.len(), 30);
        assert_eq!(f.get(0), Some(24.0));
        assert_eq!(f.get(23), Some(47.0));
        assert_eq!(f.get(24), Some(24.0), "wraps to the period start");
        assert!(seasonal_naive(&hourly(vec![1.0; 10]), 24, 5).is_none());
    }

    #[test]
    fn trend_adjusted_forecast_grows() {
        let mut values = Vec::new();
        for day in 0..10 {
            for _ in 0..24 {
                values.push(10.0 * (1.0 + 0.05 * day as f64));
            }
        }
        let s = hourly(values);
        let f = trend_adjusted_seasonal(&s, 24, 24 * 5).unwrap();
        // Five days out the forecast exceeds the last observed level.
        let last_observed = s.values().last().copied().unwrap();
        assert!(f.values().last().copied().unwrap() > last_observed * 1.1);
        // And forecasts never start below the seasonal base.
        assert!(f.get(0).unwrap() >= last_observed * 0.99);
    }

    #[test]
    fn trend_adjusted_on_flat_series_is_flat() {
        let s = hourly(vec![5.0; 24 * 7]);
        let f = trend_adjusted_seasonal(&s, 24, 48).unwrap();
        assert!(f.iter().all(|v| (v - 5.0).abs() < 1e-9));
    }
}
