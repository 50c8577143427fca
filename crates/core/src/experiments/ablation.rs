//! Ablation of the planners' design choices (`DESIGN.md` §4).
//!
//! Each row swaps one choice of the Table 3 baseline for an alternative
//! and reports the quality it buys on the suite's prepared workloads:
//! hosts provisioned for the packing and sizing choices, migrations
//! planned for the migration-cost weight, and replayed energy for the
//! power curve.

use super::Suite;
use crate::render::{fnum, Table};
use crate::study::StudyError;
use vmcw_cluster::datacenter::DataCenter;
use vmcw_cluster::power::{PowerCurve, PowerModel};
use vmcw_cluster::server::ServerModel;
use vmcw_consolidation::ffd::OrderKey;
use vmcw_consolidation::planner::{Planner, PlannerKind, StochasticVariant};
use vmcw_consolidation::prediction::Predictor;
use vmcw_consolidation::sizing::SizingFunction;
use vmcw_consolidation::PackingAlgorithm;
use vmcw_emulator::engine::emulate;
use vmcw_migration::cost::MigrationCostModel;
use vmcw_trace::datacenters::DataCenterId;

/// Runs every design-choice variant and tabulates its quality metric.
///
/// # Errors
///
/// Propagates [`StudyError`] from the planners and the emulator.
pub fn ablation(suite: &mut Suite) -> Result<Table, StudyError> {
    use DataCenterId::{Banking, Beverage, NaturalResources};
    use PlannerKind::{Dynamic, SemiStatic, Stochastic};

    let base = suite.study(Banking).config().planner;
    let mut t = Table::new(
        "ablation",
        &["choice", "variant", "datacenter", "metric", "value"],
    );
    let mut row = |choice: &str, variant: &str, dc: DataCenterId, kind, planner: Planner| {
        let plan = planner.plan(kind, suite.study(dc).input())?;
        let (metric, value) = if choice == "migration-cost" {
            ("migrations", plan.migrations.len())
        } else {
            ("provisioned_hosts", plan.provisioned_hosts())
        };
        t.push_row([choice, variant, dc.industry(), metric, &value.to_string()]);
        Ok::<_, StudyError>(())
    };
    for pct in [80.0, 90.0, 95.0] {
        let mut p = base;
        p.pcp.body = SizingFunction::Percentile(pct);
        row("pcp-body", &format!("p{pct:.0}"), Banking, Stochastic, p)?;
    }
    for (label, predictor) in [
        ("oracle", Predictor::Oracle),
        ("prev", Predictor::PreviousWindow),
        ("recent+periodic", Predictor::baseline()),
        ("ewma", Predictor::Ewma { alpha: 0.3 }),
    ] {
        let mut p = base;
        p.dynamic.cpu_predictor = predictor;
        row("predictor", label, Banking, Dynamic, p)?;
    }
    for (label, model) in [
        ("free", MigrationCostModel::free()),
        ("calibrated", MigrationCostModel::default_calibration()),
        (
            "heavy",
            MigrationCostModel {
                risk_penalty_wh_per_gb: 15.0,
                ..MigrationCostModel::default_calibration()
            },
        ),
    ] {
        let mut p = base;
        p.dynamic.cost_model = model;
        row("migration-cost", label, Beverage, Dynamic, p)?;
    }
    for (label, order) in [
        ("dominant", OrderKey::Dominant),
        ("cpu", OrderKey::Cpu),
        ("mem", OrderKey::Mem),
        ("l2", OrderKey::L2),
    ] {
        let mut p = base;
        p.order = order;
        row("order-key", label, NaturalResources, SemiStatic, p)?;
    }
    for (label, packing) in [
        ("ffd", PackingAlgorithm::FirstFitDecreasing),
        ("bfd", PackingAlgorithm::BestFitDecreasing),
    ] {
        let mut p = base;
        p.packing = packing;
        row("packing", label, Banking, SemiStatic, p)?;
    }
    for (label, variant) in [
        ("peak-clustering", StochasticVariant::PeakClustering),
        ("correlation-aware", StochasticVariant::CorrelationAware),
    ] {
        let mut p = base;
        p.stochastic_variant = variant;
        row("stochastic-variant", label, Banking, Stochastic, p)?;
    }

    // Power curve: replay the baseline dynamic plan on hosts whose draw
    // follows each curve.
    let plan = suite.run(Banking, Dynamic)?.plan.clone();
    let study = suite.study(Banking);
    let template = plan.dc.template();
    for (label, curve) in [
        ("linear", PowerCurve::Linear),
        ("spec-like", PowerCurve::SpecLike),
    ] {
        let model = ServerModel {
            power: PowerModel::with_curve(template.power.idle_w(), template.power.peak_w(), curve),
            ..template.clone()
        };
        let mut curved = plan.clone();
        curved.dc = DataCenter::with_hosts(
            model,
            base.hosts_per_rack,
            base.subnets,
            plan.dc.len() as u32,
        );
        let report = emulate(study.input(), &curved, &study.config().emulator, None)?;
        let kwh = fnum(report.energy_kwh, 1);
        t.push_row(["power-curve", label, Banking.industry(), "energy_kwh", &kwh]);
    }
    Ok(t)
}
