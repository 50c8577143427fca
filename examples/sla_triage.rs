//! SLA triage: which workloads pay for aggressive dynamic consolidation?
//!
//! The paper warns that dynamic consolidation's power savings "were also
//! associated with a higher risk of SLA violations" (§7). This example
//! runs the bursty Banking workload under dynamic consolidation and lists
//! the worst-hit VMs.
//!
//! ```text
//! cargo run --release --example sla_triage
//! ```

use vmcw_repro::core::prelude::*;
use vmcw_repro::emulator::sla;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = StudyConfig {
        scale: 0.15,
        ..StudyConfig::paper_baseline(DataCenterId::Banking, 42)
    };
    let study = Study::prepare(&config);
    let run = study.run(PlannerKind::Dynamic, None)?;
    let report = sla::analyze(study.input(), &run.plan)?;

    println!(
        "Banking × Dynamic: {} VMs on {} hosts over {} hours\n",
        study.input().vms.len(),
        run.cost.provisioned_hosts,
        report.hours,
    );
    println!(
        "{:.1}% of VMs experienced at least one violation hour; total unserved \
         CPU {:.0} RPE2-hours\n",
        report.violator_fraction() * 100.0,
        report.total_unserved(),
    );
    println!(
        "{:<10} {:>16} {:>20}",
        "vm", "violation_hours", "unserved_fraction"
    );
    for v in report.violators().iter().take(10) {
        println!(
            "{:<10} {:>16} {:>19.3}%",
            v.vm.to_string(),
            v.violation_hours,
            v.unserved_fraction() * 100.0,
        );
    }
    println!(
        "\nFor comparison, the stochastic semi-static plan on the same traces \
         has {} violators.",
        sla::analyze(
            study.input(),
            &study.run(PlannerKind::Stochastic, None)?.plan
        )?
        .violators()
        .len(),
    );
    Ok(())
}
