//! Evaluation tables and figures (§5: Table 3, Figs 7–12).

use super::Suite;
use crate::render::{fnum, Table};
use crate::study::StudyError;
use vmcw_consolidation::planner::PlannerKind;
use vmcw_emulator::report;
use vmcw_trace::datacenters::DataCenterId;
use vmcw_trace::stats::Cdf;

/// Points per CDF written to CSV.
const CDF_POINTS: usize = 120;

/// Table 3: baseline experimental settings.
#[must_use]
pub fn table3(suite: &Suite) -> Table {
    let cfg = suite.config();
    let mut t = Table::new("table3", &["metric", "value"]);
    t.push_row(["Experiment Duration", &format!("{} days", cfg.eval_days)]);
    t.push_row(["Dynamic Consolidation Interval", "2 hours"]);
    t.push_row(["Number of Intervals", &format!("{}", cfg.eval_days * 12)]);
    t.push_row(["CPU reserved for VMotion", "20%"]);
    t.push_row(["Memory reserved for VMotion", "20%"]);
    t.push_row(["Planning history", &format!("{} days", cfg.history_days)]);
    t.push_row(["Server scale", &fnum(cfg.scale, 3)]);
    t
}

/// Fig 7: space and power cost of the three planners, normalised to the
/// vanilla semi-static planner per data center.
///
/// # Errors
///
/// Propagates [`StudyError`] from the planners.
pub fn fig7(suite: &mut Suite) -> Result<Table, StudyError> {
    let mut t = Table::new(
        "fig7",
        &[
            "datacenter",
            "planner",
            "space_cost_norm",
            "power_cost_norm",
            "provisioned_hosts",
            "energy_kwh",
        ],
    );
    for dc in DataCenterId::ALL {
        let baseline = suite.run(dc, PlannerKind::SemiStatic)?.cost;
        for kind in PlannerKind::EVALUATED {
            let run = suite.run(dc, kind)?;
            let (space, power) = run.cost.normalized_to(&baseline);
            let row = [
                dc.industry().to_owned(),
                kind.label().to_owned(),
                fnum(space, 4),
                fnum(power, 4),
                run.cost.provisioned_hosts.to_string(),
                fnum(run.cost.energy_kwh, 1),
            ];
            t.push_row(row);
        }
    }
    Ok(t)
}

/// Fig 8: fraction of provisioned host-hours with resource contention.
///
/// # Errors
///
/// Propagates [`StudyError`] from the planners.
pub fn fig8(suite: &mut Suite) -> Result<Table, StudyError> {
    let mut t = Table::new(
        "fig8",
        &["datacenter", "planner", "contention_time_fraction"],
    );
    for dc in DataCenterId::ALL {
        for kind in PlannerKind::EVALUATED {
            let run = suite.run(dc, kind)?;
            t.push_row([
                dc.industry().to_owned(),
                kind.label().to_owned(),
                fnum(run.report.contention_time_fraction(), 6),
            ]);
        }
    }
    Ok(t)
}

/// Fig 9: CDF of CPU contention magnitude under dynamic consolidation
/// (unmet demand as a fraction of server capacity).
///
/// # Errors
///
/// Propagates [`StudyError`] from the planner.
pub fn fig9(suite: &mut Suite) -> Result<Table, StudyError> {
    let mut t = Table::new("fig9", &["datacenter", "contention", "cdf"]);
    for dc in DataCenterId::ALL {
        let run = suite.run(dc, PlannerKind::Dynamic)?;
        let cdf = report::contention_cdf(&run.report);
        if cdf.is_empty() {
            continue; // "Absence of line for Airline indicates no contention."
        }
        for (x, y) in cdf.points_downsampled(CDF_POINTS) {
            t.push_row([dc.industry().to_owned(), fnum(x, 5), fnum(y, 4)]);
        }
    }
    Ok(t)
}

fn util_cdf_table(
    name: &str,
    suite: &mut Suite,
    extract: fn(&vmcw_emulator::engine::EmulationReport) -> Cdf,
) -> Result<Table, StudyError> {
    let mut t = Table::new(name, &["datacenter", "planner", "cpu_util", "cdf"]);
    for dc in DataCenterId::ALL {
        for kind in PlannerKind::EVALUATED {
            let run = suite.run(dc, kind)?;
            let cdf = extract(&run.report);
            for (x, y) in cdf.points_downsampled(CDF_POINTS) {
                t.push_row([
                    dc.industry().to_owned(),
                    kind.label().to_owned(),
                    fnum(x, 5),
                    fnum(y, 4),
                ]);
            }
        }
    }
    Ok(t)
}

/// Fig 10: CDF of per-server average CPU utilisation.
///
/// # Errors
///
/// Propagates [`StudyError`] from the planners.
pub fn fig10(suite: &mut Suite) -> Result<Table, StudyError> {
    util_cdf_table("fig10", suite, report::avg_util_cdf)
}

/// Fig 11: CDF of per-server peak CPU utilisation (values above 1 are
/// servers crossing 100%).
///
/// # Errors
///
/// Propagates [`StudyError`] from the planners.
pub fn fig11(suite: &mut Suite) -> Result<Table, StudyError> {
    util_cdf_table("fig11", suite, report::peak_util_cdf)
}

/// Fig 12: CDF of the fraction of provisioned servers running per
/// consolidation interval under dynamic consolidation.
///
/// # Errors
///
/// Propagates [`StudyError`] from the planner.
pub fn fig12(suite: &mut Suite) -> Result<Table, StudyError> {
    let mut t = Table::new("fig12", &["datacenter", "running_fraction", "cdf"]);
    for dc in DataCenterId::ALL {
        let run = suite.run(dc, PlannerKind::Dynamic)?;
        let cdf = report::active_fraction_cdf(&run.report);
        for (x, y) in cdf.points_downsampled(CDF_POINTS) {
            t.push_row([dc.industry().to_owned(), fnum(x, 4), fnum(y, 4)]);
        }
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SuiteConfig;

    fn suite() -> Suite {
        Suite::new(SuiteConfig {
            scale: 0.03,
            seed: 6,
            history_days: 7,
            eval_days: 3,
        })
    }

    #[test]
    fn table3_reflects_suite_config() {
        let s = suite();
        let t = table3(&s);
        assert!(t
            .rows
            .iter()
            .any(|r| r[0] == "Experiment Duration" && r[1] == "3 days"));
        assert!(t
            .rows
            .iter()
            .any(|r| r[0] == "Number of Intervals" && r[1] == "36"));
    }

    #[test]
    fn fig7_baseline_rows_are_one() {
        let mut s = suite();
        let t = fig7(&mut s).unwrap();
        assert_eq!(t.len(), 12);
        for row in t.rows.iter().filter(|r| r[1] == "Semi-Static") {
            assert_eq!(row[2], "1.0000");
            assert_eq!(row[3], "1.0000");
        }
    }

    #[test]
    fn fig8_fractions_bounded() {
        let mut s = suite();
        let t = fig8(&mut s).unwrap();
        for row in &t.rows {
            let f: f64 = row[2].parse().unwrap();
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn fig10_and_11_cover_all_planners() {
        let mut s = suite();
        for t in [fig10(&mut s).unwrap(), fig11(&mut s).unwrap()] {
            for kind in PlannerKind::EVALUATED {
                assert!(
                    t.rows.iter().any(|r| r[1] == kind.label()),
                    "{} missing",
                    kind
                );
            }
        }
    }

    #[test]
    fn fig12_fractions_bounded() {
        let mut s = suite();
        let t = fig12(&mut s).unwrap();
        for row in &t.rows {
            let f: f64 = row[1].parse().unwrap();
            assert!((0.0..=1.0 + 1e-9).contains(&f));
        }
    }
}
