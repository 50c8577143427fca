//! The adoption path for real monitored traces: export, inspect, re-load,
//! analyse, plan.
//!
//! A user with their own data-center monitoring data writes it in the
//! documented CSV schema (`vmcw_trace::io::HEADER`) and runs exactly this
//! workflow — here the generator stands in for the real data center.
//!
//! ```text
//! cargo run --release --example real_trace_workflow
//! ```

use vmcw_repro::consolidation::planner::PlannerKind;
use vmcw_repro::core::prelude::*;
use vmcw_repro::trace::{analysis, io};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. "Monitor": here, generate a month of traces and dump them as CSV
    //    — the same file a real monitoring warehouse would export.
    let workload = GeneratorConfig::new(DataCenterId::Beverage)
        .scale(0.05)
        .days(21)
        .generate(7);
    let dir = std::env::temp_dir().join("vmcw-real-trace-demo");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("beverage.csv");
    io::save(&workload, &path)?;
    println!(
        "exported {} servers x {} days -> {} ({} KiB)",
        workload.servers.len(),
        workload.days,
        path.display(),
        std::fs::metadata(&path)?.len() / 1024,
    );

    // 2. Load it back, as a user with real traces would.
    let loaded = io::load(DataCenterId::Beverage, &path)?;
    println!(
        "re-loaded {} servers, {} hours each\n",
        loaded.servers.len(),
        loaded.hours()
    );

    // 3. Pre-consolidation analysis (§7: "a comprehensive consolidation
    //    planning analysis prior to VM consolidation in the wild").
    let series: Vec<&vmcw_repro::trace::series::TimeSeries> =
        loaded.servers.iter().map(|s| &s.cpu_used_frac).collect();
    let hist = analysis::peak_hour_histogram(series.iter().copied());
    let peak_hour = (0..24).max_by_key(|&h| hist[h]).unwrap();
    let stability = analysis::correlation_stability(&series, loaded.hours() / 2).unwrap_or(0.0);
    println!(
        "most common peak hour : {peak_hour}:00 ({} of {} servers)",
        hist[peak_hour],
        loaded.servers.len()
    );
    println!("correlation stability : {stability:.3} (>0.5 favours stochastic consolidation)");

    // 4. Plan on the loaded traces.
    let config = StudyConfig {
        scale: 1.0, // the loaded workload is used as-is
        history_days: 14,
        eval_days: 7,
        ..StudyConfig::paper_baseline(DataCenterId::Beverage, 0)
    };
    let study = Study::from_workload(&config, loaded);
    println!();
    for kind in PlannerKind::EVALUATED {
        let run = study.run(kind, None)?;
        println!(
            "{:<12} {:>4} hosts  {:>8.1} kWh  {:>6} migrations",
            kind.label(),
            run.cost.provisioned_hosts,
            run.cost.energy_kwh,
            run.report.migrations,
        );
    }
    Ok(())
}
