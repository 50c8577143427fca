//! Quickstart: generate a data-center workload, plan it three ways,
//! emulate the plans, and print the headline comparison.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use vmcw_repro::core::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 10%-scale Banking data center: 30 days of planning history plus
    // the paper's 14-day evaluation window (Table 3).
    let config = StudyConfig {
        scale: 0.10,
        ..StudyConfig::paper_baseline(DataCenterId::Banking, 42)
    };
    let study = Study::prepare(&config);
    println!(
        "Generated {} servers of the {} workload ({} days of hourly traces)\n",
        study.workload().servers.len(),
        config.dc,
        config.total_days(),
    );

    let baseline = study.run(PlannerKind::SemiStatic, None)?;
    println!(
        "{:<12} {:>8} {:>12} {:>12} {:>12}",
        "planner", "hosts", "space(norm)", "power(norm)", "migrations"
    );
    for kind in PlannerKind::EVALUATED {
        let run = study.run(kind, None)?;
        let (space, power) = run.cost.normalized_to(&baseline.cost);
        println!(
            "{:<12} {:>8} {:>12.3} {:>12.3} {:>12}",
            kind.label(),
            run.cost.provisioned_hosts,
            space,
            power,
            run.report.migrations,
        );
    }
    println!(
        "\nThe stochastic planner needs the fewest servers (space), while the\n\
         dynamic planner — handicapped by its 20% live-migration reservation —\n\
         wins on power by switching servers off in quiet intervals (§5.4)."
    );
    Ok(())
}
