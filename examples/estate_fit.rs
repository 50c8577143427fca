//! Estate fit: can the servers we already own hold this workload?
//!
//! The paper's evaluation provisions fresh HS23 blades on demand; a real
//! engagement starts from a fixed, mixed inventory. This example sizes a
//! Beverage workload onto a heterogeneous estate and reports what fits,
//! what is left over for decommissioning, and where the estate runs out.
//!
//! ```text
//! cargo run --release --example estate_fit
//! ```

use vmcw_repro::cluster::constraints::ConstraintSet;
use vmcw_repro::cluster::datacenter::DataCenter;
use vmcw_repro::cluster::server::ServerModel;
use vmcw_repro::consolidation::fixed_pool::{pack_fixed, FixedPoolError};
use vmcw_repro::consolidation::sizing::SizingFunction;
use vmcw_repro::core::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = StudyConfig {
        scale: 0.10,
        ..StudyConfig::paper_baseline(DataCenterId::Beverage, 42)
    };
    let study = Study::prepare(&config);
    let input = study.input();

    // History-peak sizing, as the vanilla semi-static planner would.
    let demands = input
        .vms
        .iter()
        .map(|t| {
            (
                t.vm.id,
                t.size_over(input.history_range(), SizingFunction::Max),
            )
        })
        .collect();
    let net = input.net_demands();

    println!(
        "Fitting {} VMs (history-peak sized) into shrinking mixed estates:\n",
        input.vms.len()
    );
    println!("{:>7} {:>7} | outcome", "HS23", "HS22");
    for (new_blades, old_blades) in [(6u32, 6u32), (4, 4), (2, 4), (1, 2)] {
        let estate = DataCenter::heterogeneous(
            &[
                (ServerModel::hs23_elite(), new_blades),
                // An older blade: half the compute, a quarter the memory.
                (
                    ServerModel {
                        name: "hs22".into(),
                        cpu_rpe2: 12_200.0,
                        mem_mb: 32.0 * 1024.0,
                        ..ServerModel::hs23_elite()
                    },
                    old_blades,
                ),
            ],
            14,
            4,
        );
        match pack_fixed(&demands, &net, &estate, &ConstraintSet::new()) {
            Ok(fit) => println!(
                "{:>7} {:>7} | fits — {} of {} hosts left empty (decommission candidates)",
                new_blades,
                old_blades,
                fit.empty_hosts.len(),
                estate.len(),
            ),
            Err(FixedPoolError::PoolExhausted { vm, demand }) => println!(
                "{:>7} {:>7} | exhausted — first stranded VM {vm} needs {demand}",
                new_blades, old_blades,
            ),
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}
