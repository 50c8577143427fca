//! Monitoring agent and central data-warehouse substrate.
//!
//! Section 3.1 of the paper: "Each source server periodically collects
//! system usage data and sends it to a central server. The central server
//! acts as a data warehouse for the monitored data and maintains data with
//! policies on retention and expiration. ... The data warehouse uses the
//! monitored data to collect aggregates and stores the aggregate data at
//! different granularity. In our work, we use hourly averages of the
//! monitored data for the most recent 30 days."
//!
//! [`DataWarehouse`] reproduces that pipeline: per-minute samples are
//! ingested, folded into hourly aggregates, and both tiers are expired
//! according to a [`RetentionPolicy`]. Consolidation planning reads
//! [`DataWarehouse::hourly_series`].

use crate::metrics::{Metric, Sample};
use crate::series::{StepSecs, TimeSeries};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Identifier of a monitored source server (physical or virtual).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub u32);

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src-{}", self.0)
    }
}

/// Retention and expiration policy of the warehouse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// How long raw per-minute samples are kept, in days.
    pub raw_days: u32,
    /// How long hourly aggregates are kept, in days.
    pub aggregate_days: u32,
}

impl RetentionPolicy {
    /// The policy used for the paper's consolidation studies: raw data for
    /// 7 days, hourly aggregates for 30 days ("the most recent 30 days").
    #[must_use]
    pub fn planning_default() -> Self {
        Self {
            raw_days: 7,
            aggregate_days: 30,
        }
    }
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        Self::planning_default()
    }
}

/// Aggregate of all samples that fell into one hour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HourlyAggregate {
    /// Mean of the samples.
    pub avg: f64,
    /// Maximum sample.
    pub max: f64,
    /// Minimum sample.
    pub min: f64,
    /// Number of samples aggregated.
    pub count: u32,
}

impl HourlyAggregate {
    fn from_first(value: f64) -> Self {
        Self {
            avg: value,
            max: value,
            min: value,
            count: 1,
        }
    }

    fn absorb(&mut self, value: f64) {
        let n = f64::from(self.count);
        self.avg = (self.avg * n + value) / (n + 1.0);
        self.max = self.max.max(value);
        self.min = self.min.min(value);
        self.count += 1;
    }
}

/// The central data warehouse.
///
/// # Example
///
/// ```
/// use vmcw_trace::metrics::{Metric, Sample};
/// use vmcw_trace::warehouse::{DataWarehouse, SourceId};
///
/// let mut wh = DataWarehouse::new(Default::default());
/// let src = SourceId(1);
/// for minute in 0..120 {
///     wh.ingest(src, Metric::TotalProcessorTime, Sample::new(minute, 10.0));
/// }
/// let hourly = wh.hourly_series(src, Metric::TotalProcessorTime).unwrap();
/// assert_eq!(hourly.len(), 2);
/// assert!((hourly.get(0).unwrap() - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DataWarehouse {
    policy: RetentionPolicy,
    /// Raw per-minute samples, per (source, metric), keyed by minute.
    raw: HashMap<(SourceId, Metric), BTreeMap<u64, f64>>,
    /// Hourly aggregates, per (source, metric), keyed by hour.
    hourly: HashMap<(SourceId, Metric), BTreeMap<u64, HourlyAggregate>>,
    /// Latest minute seen, used by [`Self::expire`].
    now_minute: u64,
}

impl DataWarehouse {
    /// Creates an empty warehouse with the given retention policy.
    #[must_use]
    pub fn new(policy: RetentionPolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// The active retention policy.
    #[must_use]
    pub fn policy(&self) -> RetentionPolicy {
        self.policy
    }

    /// Ingests one monitored sample, updating the hourly aggregate tier.
    ///
    /// A duplicate sample for the same minute overwrites the raw tier but is
    /// still absorbed into the aggregate (matching the at-least-once
    /// delivery of the real agent pipeline).
    pub fn ingest(&mut self, source: SourceId, metric: Metric, sample: Sample) {
        self.now_minute = self.now_minute.max(sample.minute);
        self.raw
            .entry((source, metric))
            .or_default()
            .insert(sample.minute, sample.value);
        self.hourly
            .entry((source, metric))
            .or_default()
            .entry(sample.hour())
            .and_modify(|agg| agg.absorb(sample.value))
            .or_insert_with(|| HourlyAggregate::from_first(sample.value));
    }

    /// Ingests a whole per-minute series starting at `start_minute`.
    ///
    /// # Panics
    ///
    /// Panics if the series step is not one minute.
    pub fn ingest_series(
        &mut self,
        source: SourceId,
        metric: Metric,
        start_minute: u64,
        series: &TimeSeries,
    ) {
        assert_eq!(
            series.step(),
            StepSecs::MINUTE,
            "the monitoring agent collects per-minute samples"
        );
        for (i, value) in series.iter().enumerate() {
            self.ingest(source, metric, Sample::new(start_minute + i as u64, value));
        }
    }

    /// All sources that have reported at least one sample.
    #[must_use]
    pub fn sources(&self) -> Vec<SourceId> {
        let mut out: Vec<SourceId> = self.hourly.keys().map(|(s, _)| *s).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Hourly-average series for a (source, metric), covering every hour
    /// from the first to the last retained aggregate. Hours with no samples
    /// are filled with 0 (the agent reports zero usage when idle).
    ///
    /// Returns `None` when the pair has never reported.
    #[must_use]
    pub fn hourly_series(&self, source: SourceId, metric: Metric) -> Option<TimeSeries> {
        let aggs = self.hourly.get(&(source, metric))?;
        let (&first, _) = aggs.iter().next()?;
        let (&last, _) = aggs.iter().next_back()?;
        let mut values = Vec::with_capacity((last - first + 1) as usize);
        for hour in first..=last {
            values.push(aggs.get(&hour).map_or(0.0, |a| a.avg));
        }
        Some(TimeSeries::new(StepSecs::HOUR, values))
    }

    /// The hourly aggregate for one specific hour, if retained.
    #[must_use]
    pub fn hourly_aggregate(
        &self,
        source: SourceId,
        metric: Metric,
        hour: u64,
    ) -> Option<HourlyAggregate> {
        self.hourly.get(&(source, metric))?.get(&hour).copied()
    }

    /// Raw per-minute samples currently retained for a (source, metric).
    #[must_use]
    pub fn raw_samples(&self, source: SourceId, metric: Metric) -> Vec<Sample> {
        self.raw
            .get(&(source, metric))
            .map(|m| {
                m.iter()
                    .map(|(&minute, &value)| Sample { minute, value })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Applies the retention policy relative to the latest ingested minute,
    /// dropping raw samples older than `raw_days` and aggregates older than
    /// `aggregate_days`.
    ///
    /// Returns the number of (raw, aggregate) records expired.
    pub fn expire(&mut self) -> (usize, usize) {
        let raw_cutoff = self
            .now_minute
            .saturating_sub(u64::from(self.policy.raw_days) * 24 * 60);
        let hour_cutoff =
            (self.now_minute / 60).saturating_sub(u64::from(self.policy.aggregate_days) * 24);
        let mut raw_dropped = 0;
        for map in self.raw.values_mut() {
            let keep = map.split_off(&raw_cutoff);
            raw_dropped += map.len();
            *map = keep;
        }
        let mut agg_dropped = 0;
        for map in self.hourly.values_mut() {
            let keep = map.split_off(&hour_cutoff);
            agg_dropped += map.len();
            *map = keep;
        }
        (raw_dropped, agg_dropped)
    }

    /// Percentile of a source's hourly averages for a metric (the query a
    /// sizing engine issues, e.g. the stochastic planner's P90 body).
    ///
    /// Returns `None` when the pair has never reported.
    #[must_use]
    pub fn hourly_percentile(&self, source: SourceId, metric: Metric, p: f64) -> Option<f64> {
        let series = self.hourly_series(source, metric)?;
        crate::stats::percentile(series.values(), p)
    }

    /// The `k` sources with the highest mean hourly value for `metric`,
    /// descending — the "top consumers" report of a capacity review.
    #[must_use]
    pub fn top_consumers(&self, metric: Metric, k: usize) -> Vec<(SourceId, f64)> {
        let mut out: Vec<(SourceId, f64)> = self
            .sources()
            .into_iter()
            .filter_map(|s| {
                let series = self.hourly_series(s, metric)?;
                Some((s, series.mean()?))
            })
            .collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out.truncate(k);
        out
    }

    /// Monitoring coverage of a (source, metric): the fraction of hours
    /// between the first and last aggregate that actually received
    /// samples. Gaps flag agent outages — the paper filters out servers
    /// "for which monitoring data ... is not available".
    ///
    /// Returns `None` when the pair has never reported.
    #[must_use]
    pub fn coverage(&self, source: SourceId, metric: Metric) -> Option<f64> {
        let aggs = self.hourly.get(&(source, metric))?;
        let (&first, _) = aggs.iter().next()?;
        let (&last, _) = aggs.iter().next_back()?;
        let span = (last - first + 1) as f64;
        Some(aggs.len() as f64 / span)
    }

    /// Total number of retained raw samples (for observability/tests).
    #[must_use]
    pub fn raw_len(&self) -> usize {
        self.raw.values().map(BTreeMap::len).sum()
    }

    /// Total number of retained hourly aggregates.
    #[must_use]
    pub fn hourly_len(&self) -> usize {
        self.hourly.values().map(BTreeMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> Metric {
        Metric::TotalProcessorTime
    }

    #[test]
    fn hourly_aggregation_averages_minutes() {
        let mut wh = DataWarehouse::default();
        let src = SourceId(7);
        // Hour 0: values 0..60 -> mean 29.5; hour 1: constant 5.
        for m in 0..60 {
            wh.ingest(src, cpu(), Sample::new(m, m as f64));
        }
        for m in 60..120 {
            wh.ingest(src, cpu(), Sample::new(m, 5.0));
        }
        let s = wh.hourly_series(src, cpu()).unwrap();
        assert_eq!(s.len(), 2);
        assert!((s.get(0).unwrap() - 29.5).abs() < 1e-9);
        assert!((s.get(1).unwrap() - 5.0).abs() < 1e-9);
        let agg = wh.hourly_aggregate(src, cpu(), 0).unwrap();
        assert_eq!(agg.count, 60);
        assert_eq!(agg.max, 59.0);
        assert_eq!(agg.min, 0.0);
    }

    #[test]
    fn gaps_are_filled_with_zero() {
        let mut wh = DataWarehouse::default();
        let src = SourceId(1);
        wh.ingest(src, cpu(), Sample::new(0, 10.0));
        wh.ingest(src, cpu(), Sample::new(180, 20.0)); // hour 3
        let s = wh.hourly_series(src, cpu()).unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.values()[1], 0.0);
        assert_eq!(s.values()[2], 0.0);
    }

    #[test]
    fn unknown_source_returns_none() {
        let wh = DataWarehouse::default();
        assert!(wh.hourly_series(SourceId(99), cpu()).is_none());
    }

    #[test]
    fn expiration_honours_policy() {
        let policy = RetentionPolicy {
            raw_days: 1,
            aggregate_days: 2,
        };
        let mut wh = DataWarehouse::new(policy);
        let src = SourceId(3);
        // 3 days of hourly-spaced samples (one per hour to keep it small).
        for day in 0..3u64 {
            for hour in 0..24u64 {
                let minute = (day * 24 + hour) * 60;
                wh.ingest(src, cpu(), Sample::new(minute, 1.0));
            }
        }
        let (raw_dropped, agg_dropped) = wh.expire();
        assert!(raw_dropped > 0, "raw samples older than 1 day must expire");
        // now = minute 4260 (hour 71); aggregate cutoff = hour 71 - 48 = 23,
        // so the first day's hours 0..23 expire.
        assert_eq!(agg_dropped, 23);
        // Raw retention window is 1 day = 1440 minutes back from minute 2940.
        let remaining = wh.raw_samples(src, cpu());
        assert!(remaining.iter().all(|s| s.minute >= 2940 - 1440));
    }

    #[test]
    fn ingest_series_requires_minute_step() {
        let mut wh = DataWarehouse::default();
        let s = TimeSeries::new(StepSecs::MINUTE, vec![1.0, 2.0, 3.0]);
        wh.ingest_series(SourceId(1), cpu(), 58, &s);
        // Minutes 58,59 are hour 0, minute 60 is hour 1.
        assert_eq!(wh.hourly_aggregate(SourceId(1), cpu(), 0).unwrap().count, 2);
        assert_eq!(wh.hourly_aggregate(SourceId(1), cpu(), 1).unwrap().count, 1);
    }

    #[test]
    #[should_panic(expected = "per-minute")]
    fn ingest_series_rejects_hourly_step() {
        let mut wh = DataWarehouse::default();
        let s = TimeSeries::new(StepSecs::HOUR, vec![1.0]);
        wh.ingest_series(SourceId(1), cpu(), 0, &s);
    }

    #[test]
    fn sources_lists_reporters() {
        let mut wh = DataWarehouse::default();
        wh.ingest(SourceId(2), cpu(), Sample::new(0, 1.0));
        wh.ingest(SourceId(1), cpu(), Sample::new(0, 1.0));
        wh.ingest(
            SourceId(1),
            Metric::MemoryCommittedMb,
            Sample::new(0, 512.0),
        );
        assert_eq!(wh.sources(), vec![SourceId(1), SourceId(2)]);
    }

    #[test]
    fn hourly_percentile_matches_series() {
        let mut wh = DataWarehouse::default();
        let src = SourceId(4);
        // Hourly values 0..100 (one sample per hour).
        for h in 0..100u64 {
            wh.ingest(src, cpu(), Sample::new(h * 60, h as f64));
        }
        let p90 = wh.hourly_percentile(src, cpu(), 90.0).unwrap();
        assert!((p90 - 89.1).abs() < 1e-9, "p90 {p90}");
        assert!(wh.hourly_percentile(SourceId(99), cpu(), 50.0).is_none());
    }

    #[test]
    fn top_consumers_rank_by_mean() {
        let mut wh = DataWarehouse::default();
        for (id, level) in [(1u32, 10.0), (2, 50.0), (3, 30.0)] {
            for h in 0..24u64 {
                wh.ingest(SourceId(id), cpu(), Sample::new(h * 60, level));
            }
        }
        let top = wh.top_consumers(cpu(), 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, SourceId(2));
        assert_eq!(top[1].0, SourceId(3));
        assert!((top[0].1 - 50.0).abs() < 1e-9);
        // k larger than the population returns everyone.
        assert_eq!(wh.top_consumers(cpu(), 10).len(), 3);
    }

    #[test]
    fn coverage_detects_agent_gaps() {
        let mut wh = DataWarehouse::default();
        let src = SourceId(6);
        // Hours 0, 1 and 4 report; 2 and 3 are an outage.
        for h in [0u64, 1, 4] {
            wh.ingest(src, cpu(), Sample::new(h * 60, 1.0));
        }
        let c = wh.coverage(src, cpu()).unwrap();
        assert!((c - 3.0 / 5.0).abs() < 1e-9, "coverage {c}");
        // A fully covered source reports 1.0.
        let full = SourceId(7);
        for h in 0..10u64 {
            wh.ingest(full, cpu(), Sample::new(h * 60, 1.0));
        }
        assert!((wh.coverage(full, cpu()).unwrap() - 1.0).abs() < 1e-9);
        assert!(wh.coverage(SourceId(99), cpu()).is_none());
    }

    #[test]
    fn duplicate_minute_overwrites_raw() {
        let mut wh = DataWarehouse::default();
        wh.ingest(SourceId(1), cpu(), Sample::new(5, 1.0));
        wh.ingest(SourceId(1), cpu(), Sample::new(5, 9.0));
        let raw = wh.raw_samples(SourceId(1), cpu());
        assert_eq!(raw.len(), 1);
        assert_eq!(raw[0].value, 9.0);
    }
}
