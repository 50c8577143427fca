//! Figure-oriented aggregation of emulation reports.
//!
//! Each function produces exactly one of the series the paper's
//! evaluation plots: cost bars (Fig 7), contention fractions (Fig 8),
//! contention CDFs (Fig 9), utilisation CDFs (Figs 10/11) and the
//! active-server distribution (Fig 12).

use crate::engine::EmulationReport;
use vmcw_cluster::cost::FacilityCostModel;
use vmcw_trace::stats::Cdf;

/// Space and power cost of one emulated plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSummary {
    /// Provisioned servers (max across intervals).
    pub provisioned_hosts: usize,
    /// Facilities + hardware cost.
    pub space_cost: f64,
    /// Total energy, kWh.
    pub energy_kwh: f64,
    /// Energy cost.
    pub power_cost: f64,
}

/// Computes the space and power cost of a report under a cost model.
#[must_use]
pub fn cost_summary(report: &EmulationReport, model: &FacilityCostModel) -> CostSummary {
    CostSummary {
        provisioned_hosts: report.provisioned_hosts,
        space_cost: model.space_cost(report.provisioned_hosts),
        energy_kwh: report.energy_kwh,
        power_cost: model.power_cost(report.energy_kwh),
    }
}

impl CostSummary {
    /// Normalises this summary's costs against a baseline (Fig 7 is
    /// "normalized with respect to the cost of the Vanilla semi-static
    /// approach").
    ///
    /// Returns `(space, power)` ratios; a baseline cost of zero maps to
    /// ratio 0.
    #[must_use]
    pub fn normalized_to(&self, baseline: &CostSummary) -> (f64, f64) {
        let space = if baseline.space_cost > 0.0 {
            self.space_cost / baseline.space_cost
        } else {
            0.0
        };
        let power = if baseline.power_cost > 0.0 {
            self.power_cost / baseline.power_cost
        } else {
            0.0
        };
        (space, power)
    }
}

/// CDF of per-host average CPU utilisation (Fig 10). Hosts that were
/// never active are excluded (they have no utilisation to speak of).
#[must_use]
pub fn avg_util_cdf(report: &EmulationReport) -> Cdf {
    report
        .per_host
        .iter()
        .filter(|h| h.active_hours > 0)
        .map(|h| h.avg_cpu_util)
        .collect()
}

/// CDF of per-host peak CPU utilisation (Fig 11); values above 1 are the
/// "servers crossing 100% CPU utilization" of the paper.
#[must_use]
pub fn peak_util_cdf(report: &EmulationReport) -> Cdf {
    report
        .per_host
        .iter()
        .filter(|h| h.active_hours > 0)
        .map(|h| h.peak_cpu_util)
        .collect()
}

/// CDF of CPU contention magnitude across contended host-hours (Fig 9).
#[must_use]
pub fn contention_cdf(report: &EmulationReport) -> Cdf {
    report.cpu_contention_samples.iter().copied().collect()
}

/// CDF of the fraction of provisioned servers running per interval
/// (Fig 12; only meaningful for dynamic plans — fixed plans give a point
/// mass at 1).
#[must_use]
pub fn active_fraction_cdf(report: &EmulationReport) -> Cdf {
    let n = report.provisioned_hosts.max(1) as f64;
    report
        .per_hour
        .iter()
        .map(|h| h.active_hosts as f64 / n)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcw_consolidation::input::{PlanningInput, VirtualizationModel};
    use vmcw_consolidation::planner::{Planner, PlannerKind};
    use vmcw_emulator_test_support::*;

    // Local helper to build a small emulated report.
    mod vmcw_emulator_test_support {
        use super::*;
        use vmcw_trace::datacenters::{DataCenterId, GeneratorConfig};

        pub fn small_report(dynamic: bool) -> EmulationReport {
            let w = GeneratorConfig::new(DataCenterId::Beverage)
                .scale(0.02)
                .days(9)
                .generate(4);
            let input = PlanningInput::from_workload(&w, 6, VirtualizationModel::baseline());
            let planner = Planner::baseline();
            let plan = if dynamic {
                planner.plan(PlannerKind::Dynamic, &input).unwrap()
            } else {
                planner.plan(PlannerKind::SemiStatic, &input).unwrap()
            };
            crate::engine::emulate(
                &input,
                &plan,
                &crate::engine::EmulatorConfig::default(),
                None,
            )
            .unwrap()
        }
    }

    #[test]
    fn cost_summary_uses_model() {
        let report = small_report(false);
        let model = FacilityCostModel::default();
        let c = cost_summary(&report, &model);
        assert_eq!(c.provisioned_hosts, report.provisioned_hosts);
        assert_eq!(c.space_cost, model.space_cost(report.provisioned_hosts));
        assert!((c.power_cost - report.energy_kwh * model.price_per_kwh).abs() < 1e-9);
    }

    #[test]
    fn normalisation_of_baseline_is_one() {
        let report = small_report(false);
        let c = cost_summary(&report, &FacilityCostModel::default());
        let (s, p) = c.normalized_to(&c);
        assert!((s - 1.0).abs() < 1e-12);
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fixed_plan_active_fraction_is_always_one() {
        let report = small_report(false);
        let cdf = active_fraction_cdf(&report);
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(1.0));
    }

    #[test]
    fn dynamic_plan_active_fraction_varies() {
        let report = small_report(true);
        let cdf = active_fraction_cdf(&report);
        assert!(cdf.quantile(0.05).unwrap() < cdf.quantile(1.0).unwrap() + 1e-12);
        assert!(cdf.quantile(0.05).unwrap() <= 1.0);
    }

    #[test]
    fn util_cdfs_cover_active_hosts() {
        let report = small_report(false);
        let avg = avg_util_cdf(&report);
        let peak = peak_util_cdf(&report);
        assert_eq!(avg.len(), peak.len());
        assert!(avg.len() <= report.provisioned_hosts);
        // Peak dominates average per host, so the medians must order.
        assert!(peak.median().unwrap() >= avg.median().unwrap());
    }

    #[test]
    fn contention_cdf_matches_samples() {
        let report = small_report(true);
        let cdf = contention_cdf(&report);
        assert_eq!(cdf.len(), report.cpu_contention_samples.len());
    }
}
