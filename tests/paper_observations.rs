//! The paper's seven numbered Observations, asserted against the
//! reproduction at 30% scale.

use std::sync::OnceLock;
use vmcw_repro::consolidation::planner::PlannerKind;
use vmcw_repro::core::study::{Study, StudyConfig};
use vmcw_repro::migration::precopy::{HostLoad, PrecopyConfig, VmMigrationProfile};
use vmcw_repro::migration::reliability::derive_min_reservation;
use vmcw_repro::trace::datacenters::DataCenterId;
use vmcw_repro::trace::stats;

fn study(dc: DataCenterId) -> &'static Study {
    static STUDIES: OnceLock<Vec<(DataCenterId, Study)>> = OnceLock::new();
    let studies = STUDIES.get_or_init(|| {
        DataCenterId::ALL
            .iter()
            .map(|&dc| {
                let config = StudyConfig {
                    scale: 0.30,
                    ..StudyConfig::paper_baseline(dc, 31)
                };
                (dc, Study::prepare(&config))
            })
            .collect()
    });
    &studies.iter().find(|(d, _)| *d == dc).expect("prepared").1
}

fn all_servers_stat(
    resource: fn(
        &vmcw_repro::trace::datacenters::SourceServer,
    ) -> &vmcw_repro::trace::series::TimeSeries,
    stat: fn(&[f64]) -> Option<f64>,
) -> Vec<f64> {
    let mut out = Vec::new();
    for dc in DataCenterId::ALL {
        let w = study(dc).workload();
        let hh = 30 * 24;
        out.extend(
            w.servers
                .iter()
                .filter_map(|s| stat(&resource(s).values()[..hh.min(resource(s).len())])),
        );
    }
    out
}

/// Observation 1: "CPU Utilization of servers vary greatly over time with
/// Peak to Average Ratio of 5 and a CoV of 1 or more for more than 25% of
/// servers studied."
#[test]
fn observation_1_cpu_varies_greatly() {
    let pa = all_servers_stat(|s| &s.cpu_used_frac, stats::peak_to_average);
    let cov = all_servers_stat(|s| &s.cpu_used_frac, stats::coefficient_of_variability);
    let frac = pa
        .iter()
        .zip(&cov)
        .filter(|&(&p, &c)| p >= 5.0 && c >= 1.0)
        .count() as f64
        / pa.len() as f64;
    assert!(
        frac > 0.25,
        "only {frac:.2} of servers have P/A>=5 and CoV>=1"
    );
}

/// Observation 2: "Memory demand of servers vary moderately over time with
/// Peak to Average Ratio of 1.5 and a CoV of 0.5 or less for more than 80%
/// of servers studied."
#[test]
fn observation_2_memory_varies_moderately() {
    let pa = all_servers_stat(|s| &s.mem_used_mb, stats::peak_to_average);
    let cov = all_servers_stat(|s| &s.mem_used_mb, stats::coefficient_of_variability);
    let frac = pa
        .iter()
        .zip(&cov)
        .filter(|&(&p, &c)| p <= 1.6 && c <= 0.5)
        .count() as f64
        / pa.len() as f64;
    assert!(
        frac > 0.70,
        "only {frac:.2} of servers have modest memory variation"
    );
}

/// Observation 3: "Data centers with server consolidation are constrained
/// by memory more often than CPU (even after using extended memory blade
/// servers)."
#[test]
fn observation_3_memory_constrains_most_datacenters() {
    let mut memory_bound_dcs = 0;
    for dc in DataCenterId::ALL {
        let w = study(dc).workload();
        let hh = 30 * 24;
        let cpu = w.aggregate_cpu_rpe2();
        let mem = w.aggregate_mem_mb();
        let below_160 = cpu.values()[hh..]
            .iter()
            .zip(&mem.values()[hh..])
            .filter(|&(c, m)| c / (m / 1024.0) < 160.0)
            .count() as f64
            / (cpu.len() - hh) as f64;
        if below_160 > 0.5 {
            memory_bound_dcs += 1;
        }
    }
    assert!(
        memory_bound_dcs >= 3,
        "only {memory_bound_dcs} of 4 DCs memory-bound"
    );
}

/// Observation 4: "In order to support dynamic consolidation, it is
/// recommended to reserve at least 20% of a physical server's resources
/// for live migration." Derived from the pre-copy model rather than
/// asserted.
#[test]
fn observation_4_reservation_rule() {
    // A representative busy enterprise VM on the 2012-era GbE fabric.
    let vm = VmMigrationProfile::new(8192.0, 400.0, 1024.0);
    let derived = derive_min_reservation(&PrecopyConfig::gigabit(), &vm);
    assert!(
        (0.15..=0.35).contains(&derived),
        "derived reservation {derived} outside the paper's 20–30% band"
    );
    // And the thresholds themselves: reliable below, degraded above.
    let cfg = PrecopyConfig::gigabit();
    assert!(cfg.simulate(&vm, HostLoad::new(0.75, 0.80)).converged);
    assert!(!cfg.simulate(&vm, HostLoad::new(0.99, 0.99)).converged);
}

/// Observation 5: "Dynamic consolidation does not lead to space and
/// hardware savings over intelligent semi-static consolidation for many
/// workloads."
#[test]
fn observation_5_no_space_savings_over_stochastic() {
    let mut no_savings = 0;
    for dc in DataCenterId::ALL {
        let stochastic = study(dc)
            .run(PlannerKind::Stochastic, None)
            .unwrap()
            .cost
            .provisioned_hosts;
        let dynamic = study(dc)
            .run(PlannerKind::Dynamic, None)
            .unwrap()
            .cost
            .provisioned_hosts;
        // "does not lead to savings" = dynamic needs at least about as
        // many hosts (within one host of granularity) or more.
        if dynamic + 1 >= stochastic {
            no_savings += 1;
        }
    }
    assert!(
        no_savings >= 3,
        "dynamic saved space over stochastic on {} DCs",
        4 - no_savings
    );
}

/// Observation 6: "Dynamic consolidation leads to power savings for
/// workloads that exhibit high burstiness. However, these savings may be
/// associated with resource contention."
#[test]
fn observation_6_power_savings_with_contention_risk() {
    let banking = study(DataCenterId::Banking);
    let stochastic = banking.run(PlannerKind::Stochastic, None).unwrap();
    let dynamic = banking.run(PlannerKind::Dynamic, None).unwrap();
    assert!(
        dynamic.cost.energy_kwh < stochastic.cost.energy_kwh * 0.75,
        "bursty Banking: dynamic {} kWh vs stochastic {} kWh",
        dynamic.cost.energy_kwh,
        stochastic.cost.energy_kwh
    );
    assert!(
        !dynamic.report.cpu_contention_samples.is_empty(),
        "the savings must come with contention risk"
    );
}

/// Observation 7: "If the resources reserved for live migration can be
/// reduced without impacting the reliability of migration, then dynamic
/// consolidation can achieve space and hardware savings as well."
#[test]
fn observation_7_unreserved_dynamic_saves_space() {
    for dc in [DataCenterId::Banking, DataCenterId::NaturalResources] {
        let s = study(dc);
        let stochastic = s
            .run(PlannerKind::Stochastic, None)
            .unwrap()
            .cost
            .provisioned_hosts;
        let mut config = *s.config();
        config.planner = config.planner.with_utilization_bound(1.0);
        let unreserved = Study::from_workload(&config, s.workload().clone())
            .run(PlannerKind::Dynamic, None)
            .unwrap()
            .cost
            .provisioned_hosts;
        assert!(
            (unreserved as f64) < stochastic as f64 * 0.95,
            "{dc}: unreserved dynamic {unreserved} vs stochastic {stochastic}"
        );
    }
}
