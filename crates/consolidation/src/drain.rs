//! Host maintenance drains.
//!
//! §1.2: "VM live migration is often employed for high availability and
//! server maintenance but not for dynamic VM consolidation." This module
//! provides that production use case: evacuate one host completely —
//! respecting capacities, the link-bandwidth admission and the deployment
//! constraints — and schedule the transfers so the operator knows how
//! long the drain takes before the maintenance window starts.

use crate::input::PlanningInput;
use crate::placement::Placement;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use vmcw_cluster::datacenter::{DataCenter, HostId};
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::VmId;
use vmcw_migration::precopy::{HostLoad, PrecopyConfig, VmMigrationProfile};
use vmcw_migration::schedule::{schedule, MigrationRequest, MigrationSchedule};

/// Why a drain could not be planned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrainError {
    /// The host is not part of the placement / data center.
    UnknownHost(HostId),
    /// A VM on the host is pinned there and cannot move.
    PinnedVm(VmId),
    /// No other host can take this VM under the capacity bounds and
    /// constraints.
    NoCapacity(VmId),
}

impl fmt::Display for DrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrainError::UnknownHost(h) => write!(f, "{h} is not a provisioned host"),
            DrainError::PinnedVm(vm) => {
                write!(f, "{vm} is pinned to the draining host and cannot move")
            }
            DrainError::NoCapacity(vm) => {
                write!(f, "no destination host has capacity for {vm}")
            }
        }
    }
}

impl Error for DrainError {}

/// A planned drain: where each VM goes and the migration schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainPlan {
    /// The host being drained.
    pub host: HostId,
    /// Planned moves `(vm, destination)` in migration order.
    pub moves: Vec<(VmId, HostId)>,
    /// The simulated, link-serialised migration schedule.
    pub schedule: MigrationSchedule,
}

impl DrainPlan {
    /// Wall-clock duration of the drain, seconds.
    #[must_use]
    pub fn duration_secs(&self) -> f64 {
        self.schedule.makespan_secs
    }
}

/// Plans the evacuation of `host` at evaluation hour `at_hour`.
///
/// Destinations are chosen most-loaded-first among the other provisioned
/// hosts (keeping the footprint tight for the post-maintenance return),
/// under the capacity `bounds`, the host-link bandwidth and the
/// deployment constraints. Anti-colocated VMs naturally spread across
/// destinations.
///
/// # Errors
///
/// See [`DrainError`].
pub fn plan_drain(
    input: &PlanningInput,
    placement: &Placement,
    host: HostId,
    dc: &DataCenter,
    at_hour: usize,
    bounds: (f64, f64),
    precopy: &PrecopyConfig,
) -> Result<DrainPlan, DrainError> {
    if dc.host(host).is_none() {
        return Err(DrainError::UnknownHost(host));
    }
    let eval = input.eval_range();
    let hour = eval.start + at_hour;
    let capacity = dc.template().capacity();
    let effective = dc.template().effective_capacity(bounds);
    let effective_net = dc.template().net_mbps * bounds.0;

    let demand_of = |vm: VmId| -> Resources {
        input
            .vm_trace(vm)
            .map_or(Resources::ZERO, |t| t.demand_at(hour))
    };
    let net_of = |vm: VmId| -> f64 { input.vm_trace(vm).map_or(0.0, |t| t.net_peak_mbps) };

    // Current loads of every other host.
    let mut loads: BTreeMap<HostId, Resources> = BTreeMap::new();
    let mut nets: BTreeMap<HostId, f64> = BTreeMap::new();
    let mut residents: BTreeMap<HostId, Vec<VmId>> = BTreeMap::new();
    for (vm, h) in placement.iter() {
        if h == host {
            continue;
        }
        *loads.entry(h).or_insert(Resources::ZERO) += demand_of(vm);
        *nets.entry(h).or_insert(0.0) += net_of(vm);
        residents.entry(h).or_default().push(vm);
    }

    // Evacuate big VMs first (hardest to place).
    let mut evacuees: Vec<VmId> = placement.vms_on(host).to_vec();
    for &vm in &evacuees {
        if input.constraints.pinned_host(vm) == Some(host) {
            return Err(DrainError::PinnedVm(vm));
        }
    }
    evacuees.sort_by(|&a, &b| {
        demand_of(b)
            .dominant_share(&effective)
            .total_cmp(&demand_of(a).dominant_share(&effective))
            .then_with(|| a.cmp(&b))
    });

    let src_load = {
        let total: Resources = evacuees.iter().map(|&vm| demand_of(vm)).sum();
        HostLoad::new(
            total.cpu_rpe2 / capacity.cpu_rpe2,
            total.mem_mb / capacity.mem_mb,
        )
    };

    let mut moves = Vec::with_capacity(evacuees.len());
    let mut requests = Vec::with_capacity(evacuees.len());
    for vm in evacuees {
        let demand = demand_of(vm);
        // Most-loaded first.
        let mut candidates: Vec<(HostId, Resources)> =
            loads.iter().map(|(&h, &l)| (h, l)).collect();
        candidates.sort_by(|a, b| {
            b.1.dominant_share(&effective)
                .total_cmp(&a.1.dominant_share(&effective))
                .then_with(|| a.0.cmp(&b.0))
        });
        let mut dest = None;
        for (cand, load) in candidates {
            if !(load + demand).fits_within(&effective) {
                continue;
            }
            if effective_net > 0.0
                && nets.get(&cand).copied().unwrap_or(0.0) + net_of(vm) > effective_net
            {
                continue;
            }
            let location = dc.host(cand).expect("provisioned").location();
            let empty = Vec::new();
            let dest_residents = residents.get(&cand).unwrap_or(&empty);
            if !input.constraints.allows(vm, location, dest_residents) {
                continue;
            }
            dest = Some(cand);
            break;
        }
        let Some(dest) = dest else {
            return Err(DrainError::NoCapacity(vm));
        };
        *loads.entry(dest).or_insert(Resources::ZERO) += demand;
        *nets.entry(dest).or_insert(0.0) += net_of(vm);
        residents.entry(dest).or_default().push(vm);
        moves.push((vm, dest));
        let trace = input.vm_trace(vm).expect("placed VM");
        let activity = {
            let peak = trace.cpu_rpe2.max().unwrap_or(1.0).max(1e-9);
            (demand.cpu_rpe2 / peak).clamp(0.0, 1.0)
        };
        requests.push(MigrationRequest {
            vm,
            from: host,
            to: dest,
            profile: VmMigrationProfile::from_demand(demand.mem_mb.max(64.0), activity),
            source_load: src_load,
        });
    }

    Ok(DrainPlan {
        host,
        moves,
        schedule: schedule(&requests, precopy),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::VirtualizationModel;
    use crate::planner::{Planner, PlannerKind};
    use vmcw_cluster::constraints::{Constraint, ConstraintSet};
    use vmcw_trace::datacenters::{DataCenterId, GeneratorConfig};

    fn setup() -> (PlanningInput, crate::planner::ConsolidationPlan) {
        let w = GeneratorConfig::new(DataCenterId::Beverage)
            .scale(0.05)
            .days(12)
            .generate(19);
        let input = PlanningInput::from_workload(&w, 8, VirtualizationModel::baseline());
        let plan = Planner::baseline()
            .plan(PlannerKind::Stochastic, &input)
            .unwrap();
        (input, plan)
    }

    #[test]
    fn drain_moves_every_vm_off_the_host() {
        let (input, plan) = setup();
        let placement = plan.placements.at_hour(0);
        let host = placement.active_hosts()[0];
        let before = placement.vms_on(host).len();
        assert!(before > 0);
        let drain = plan_drain(
            &input,
            placement,
            host,
            &plan.dc,
            0,
            (1.0, 1.0),
            &PrecopyConfig::gigabit(),
        )
        .unwrap();
        assert_eq!(drain.moves.len(), before);
        assert!(drain.moves.iter().all(|&(_, dest)| dest != host));
        assert!(drain.duration_secs() > 0.0);
        assert_eq!(drain.schedule.items.len(), before);
    }

    #[test]
    fn drain_respects_capacity_on_destinations() {
        let (input, plan) = setup();
        let placement = plan.placements.at_hour(0);
        let host = placement.active_hosts()[0];
        let drain = plan_drain(
            &input,
            placement,
            host,
            &plan.dc,
            0,
            (0.9, 0.9),
            &PrecopyConfig::gigabit(),
        )
        .unwrap();
        // Recompute destination loads after the drain.
        let eval = input.eval_range();
        let effective = plan.dc.template().effective_capacity((0.9, 0.9));
        let mut loads: BTreeMap<HostId, Resources> = BTreeMap::new();
        for (vm, h) in placement.iter() {
            let h = if h == host {
                drain.moves.iter().find(|&&(v, _)| v == vm).unwrap().1
            } else {
                h
            };
            *loads.entry(h).or_insert(Resources::ZERO) +=
                input.vm_trace(vm).unwrap().demand_at(eval.start);
        }
        for (h, load) in loads {
            assert!(
                load.fits_within(&(effective * 1.0001)),
                "{h} overloaded after drain: {load}"
            );
        }
    }

    #[test]
    fn pinned_vm_blocks_the_drain() {
        let w = GeneratorConfig::new(DataCenterId::Airlines)
            .scale(0.03)
            .days(10)
            .generate(5);
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::PinToHost(vmcw_cluster::vm::VmId(0), HostId(0)))
            .unwrap();
        let input = PlanningInput::from_workload(&w, 7, VirtualizationModel::baseline())
            .with_constraints(cs);
        let plan = Planner::baseline()
            .plan(PlannerKind::SemiStatic, &input)
            .unwrap();
        let placement = plan.placements.at_hour(0);
        let err = plan_drain(
            &input,
            placement,
            HostId(0),
            &plan.dc,
            0,
            (1.0, 1.0),
            &PrecopyConfig::gigabit(),
        )
        .unwrap_err();
        assert_eq!(err, DrainError::PinnedVm(vmcw_cluster::vm::VmId(0)));
        assert!(err.to_string().contains("pinned"));
    }

    #[test]
    fn unknown_host_is_an_error() {
        let (input, plan) = setup();
        let placement = plan.placements.at_hour(0);
        let err = plan_drain(
            &input,
            placement,
            HostId(9999),
            &plan.dc,
            0,
            (1.0, 1.0),
            &PrecopyConfig::gigabit(),
        )
        .unwrap_err();
        assert_eq!(err, DrainError::UnknownHost(HostId(9999)));
    }

    #[test]
    fn tight_bounds_can_make_a_drain_infeasible() {
        let (input, plan) = setup();
        let placement = plan.placements.at_hour(0);
        let host = placement.active_hosts()[0];
        // Absurdly tight bounds: nothing fits anywhere.
        let result = plan_drain(
            &input,
            placement,
            host,
            &plan.dc,
            0,
            (0.01, 0.01),
            &PrecopyConfig::gigabit(),
        );
        assert!(matches!(result, Err(DrainError::NoCapacity(_))));
    }
}
