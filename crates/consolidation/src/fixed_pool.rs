//! Packing into a fixed, possibly heterogeneous host pool.
//!
//! The paper's evaluation provisions fresh HS23 blades on demand; a real
//! engagement usually starts from the opposite question — *does the
//! estate we already own hold these workloads?* [`pack_fixed`] answers it:
//! first-fit-decreasing over an existing [`DataCenter`] inventory with
//! per-host capacities, the §3.1 link-bandwidth admission and the §2.2.4
//! deployment constraints, and an explicit
//! [`FixedPoolError::PoolExhausted`] when the estate is too small.

use crate::ffd::{attach_network, build_items, OrderKey, PackItem};
use crate::placement::{PackError, Placement};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use vmcw_cluster::constraints::ConstraintSet;
use vmcw_cluster::datacenter::{DataCenter, HostId};
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::VmId;

/// Why a fixed-pool packing failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FixedPoolError {
    /// The estate cannot hold this VM (group) anywhere.
    PoolExhausted {
        /// First VM of the stranded group.
        vm: VmId,
        /// The group's demand.
        demand: Resources,
    },
    /// The constraint set is internally inconsistent (see
    /// [`PackError::InconsistentConstraints`]).
    Constraints(PackError),
}

impl fmt::Display for FixedPoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixedPoolError::PoolExhausted { vm, demand } => {
                write!(f, "the host pool cannot fit {vm} (demand {demand})")
            }
            FixedPoolError::Constraints(e) => write!(f, "{e}"),
        }
    }
}

impl Error for FixedPoolError {}

impl From<PackError> for FixedPoolError {
    fn from(e: PackError) -> Self {
        FixedPoolError::Constraints(e)
    }
}

/// The outcome of a fixed-pool packing.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedPoolPlacement {
    /// The placement over the existing hosts.
    pub placement: Placement,
    /// Hosts of the pool left completely empty (decommission candidates).
    pub empty_hosts: Vec<HostId>,
}

/// Packs per-VM demands into the existing hosts of `dc` (no
/// provisioning), honouring per-host capacities, link bandwidth and
/// constraints. Groups go in decreasing [`OrderKey::Dominant`] order
/// against the biggest host.
///
/// # Errors
///
/// Returns [`FixedPoolError::PoolExhausted`] when a colocation group fits
/// no host, or wraps the usual constraint errors.
pub fn pack_fixed(
    demands: &BTreeMap<VmId, Resources>,
    net: &BTreeMap<VmId, f64>,
    dc: &DataCenter,
    constraints: &ConstraintSet,
) -> Result<FixedPoolPlacement, FixedPoolError> {
    let mut items = build_items(demands, constraints)?;
    attach_network(&mut items, net);

    // Per-host capacities (heterogeneous-aware).
    let capacities: Vec<Resources> = dc.iter().map(|h| h.model.capacity()).collect();
    let net_caps: Vec<f64> = dc.iter().map(|h| h.model.net_mbps).collect();
    let mut used = vec![Resources::ZERO; dc.len()];
    let mut used_net = vec![0.0f64; dc.len()];
    let mut placement = Placement::new();

    // Reference capacity for ordering: the biggest host.
    let reference = capacities
        .iter()
        .copied()
        .fold(Resources::ZERO, |a, b| a.max(&b));

    // Pinned items first.
    let (pinned, mut free): (Vec<PackItem>, Vec<PackItem>) = items
        .into_iter()
        .partition(|it| it.vms.iter().any(|&v| constraints.pinned_host(v).is_some()));
    for item in pinned {
        let host = item
            .vms
            .iter()
            .find_map(|&v| constraints.pinned_host(v))
            .expect("partition guarantees a pin");
        let idx = host.0 as usize;
        let feasible = idx < dc.len()
            && (used[idx] + item.demand).fits_within(&capacities[idx])
            && used_net[idx] + item.net_mbps <= net_caps[idx]
            && constraints.allows_group(
                &item.vms,
                dc.host(host).expect("checked").location(),
                placement.vms_on(host),
            );
        if !feasible {
            return Err(FixedPoolError::PoolExhausted {
                vm: item.vms[0],
                demand: item.demand,
            });
        }
        used[idx] += item.demand;
        used_net[idx] += item.net_mbps;
        for &v in &item.vms {
            placement.assign(v, host);
        }
    }

    let key = |item: &PackItem| OrderKey::Dominant.key(&item.demand, &reference);
    free.sort_by(|a, b| {
        key(b)
            .total_cmp(&key(a))
            .then_with(|| a.vms[0].cmp(&b.vms[0]))
    });

    for item in free {
        let mut placed = false;
        for idx in 0..dc.len() {
            let host = HostId(idx as u32);
            if !(used[idx] + item.demand).fits_within(&capacities[idx]) {
                continue;
            }
            if used_net[idx] + item.net_mbps > net_caps[idx] {
                continue;
            }
            let location = dc.host(host).expect("within len").location();
            if !constraints.allows_group(&item.vms, location, placement.vms_on(host)) {
                continue;
            }
            used[idx] += item.demand;
            used_net[idx] += item.net_mbps;
            for &v in &item.vms {
                placement.assign(v, host);
            }
            placed = true;
            break;
        }
        if !placed {
            return Err(FixedPoolError::PoolExhausted {
                vm: item.vms[0],
                demand: item.demand,
            });
        }
    }

    let empty_hosts = dc
        .iter()
        .map(|h| h.id)
        .filter(|&h| placement.vms_on(h).is_empty())
        .collect();
    Ok(FixedPoolPlacement {
        placement,
        empty_hosts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcw_cluster::constraints::Constraint;
    use vmcw_cluster::power::PowerModel;
    use vmcw_cluster::server::ServerModel;

    fn model(name: &str, cpu: f64, mem: f64) -> ServerModel {
        ServerModel {
            name: name.into(),
            cpu_rpe2: cpu,
            mem_mb: mem,
            net_mbps: 1000.0,
            power: PowerModel::new(100.0, 200.0),
        }
    }

    fn demands(list: &[(u32, f64, f64)]) -> BTreeMap<VmId, Resources> {
        list.iter()
            .map(|&(id, c, m)| (VmId(id), Resources::new(c, m)))
            .collect()
    }

    fn no_net() -> BTreeMap<VmId, f64> {
        BTreeMap::new()
    }

    #[test]
    fn mixed_pool_uses_per_host_capacities() {
        // One big host (200) and one small (50): a 100-unit VM only fits
        // the big one even though it is not first.
        let dc = DataCenter::heterogeneous(
            &[
                (model("small", 50.0, 500.0), 1),
                (model("big", 200.0, 2000.0), 1),
            ],
            4,
            1,
        );
        let d = demands(&[(0, 100.0, 100.0)]);
        let out = pack_fixed(&d, &no_net(), &dc, &ConstraintSet::new()).unwrap();
        assert_eq!(out.placement.host_of(VmId(0)), Some(HostId(1)));
        assert_eq!(out.empty_hosts, vec![HostId(0)]);
    }

    #[test]
    fn exhausted_pool_is_an_error() {
        let dc = DataCenter::heterogeneous(&[(model("small", 50.0, 500.0), 2)], 4, 1);
        let d = demands(&[(0, 40.0, 100.0), (1, 40.0, 100.0), (2, 40.0, 100.0)]);
        let err = pack_fixed(&d, &no_net(), &dc, &ConstraintSet::new()).unwrap_err();
        assert!(matches!(err, FixedPoolError::PoolExhausted { .. }));
        assert!(err.to_string().contains("cannot fit"));
    }

    #[test]
    fn host_capacity_is_the_limit() {
        let dc = DataCenter::heterogeneous(&[(model("m", 100.0, 1000.0), 1)], 4, 1);
        let cs = ConstraintSet::new();
        // 110 > 100 → exhausted; 90 fits.
        assert!(pack_fixed(&demands(&[(0, 110.0, 100.0)]), &no_net(), &dc, &cs).is_err());
        assert!(pack_fixed(&demands(&[(0, 90.0, 100.0)]), &no_net(), &dc, &cs).is_ok());
    }

    #[test]
    fn constraints_apply_in_fixed_pools() {
        let dc = DataCenter::heterogeneous(&[(model("m", 100.0, 1000.0), 2)], 4, 1);
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::AntiColocate(VmId(0), VmId(1))).unwrap();
        let d = demands(&[(0, 10.0, 10.0), (1, 10.0, 10.0)]);
        let out = pack_fixed(&d, &no_net(), &dc, &cs).unwrap();
        assert_ne!(
            out.placement.host_of(VmId(0)),
            out.placement.host_of(VmId(1))
        );
        assert!(out.empty_hosts.is_empty());
    }

    #[test]
    fn pinned_vm_lands_on_its_host_or_fails() {
        let dc = DataCenter::heterogeneous(&[(model("m", 100.0, 1000.0), 2)], 4, 1);
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::PinToHost(VmId(0), HostId(1))).unwrap();
        let d = demands(&[(0, 10.0, 10.0)]);
        let out = pack_fixed(&d, &no_net(), &dc, &cs).unwrap();
        assert_eq!(out.placement.host_of(VmId(0)), Some(HostId(1)));
        // Pin beyond the pool fails cleanly.
        let mut cs2 = ConstraintSet::new();
        cs2.add(Constraint::PinToHost(VmId(0), HostId(5))).unwrap();
        assert!(pack_fixed(&d, &no_net(), &dc, &cs2).is_err());
    }

    #[test]
    fn network_admission_applies_per_host_link() {
        let dc = DataCenter::heterogeneous(&[(model("m", 100.0, 1000.0), 2)], 4, 1);
        let d = demands(&[(0, 1.0, 1.0), (1, 1.0, 1.0), (2, 1.0, 1.0)]);
        let net: BTreeMap<VmId, f64> = (0..3).map(|i| (VmId(i), 600.0)).collect();
        let out = pack_fixed(&d, &net, &dc, &ConstraintSet::new());
        // 3 × 600 Mbit/s over two 1 Gbit/s links: only two fit.
        assert!(matches!(out, Err(FixedPoolError::PoolExhausted { .. })));
    }

    #[test]
    fn decommission_candidates_are_reported() {
        let dc = DataCenter::heterogeneous(&[(model("m", 100.0, 1000.0), 4)], 4, 1);
        let d = demands(&[(0, 60.0, 100.0), (1, 60.0, 100.0)]);
        let out = pack_fixed(&d, &no_net(), &dc, &ConstraintSet::new()).unwrap();
        assert_eq!(
            out.empty_hosts.len(),
            2,
            "two of four hosts can be decommissioned"
        );
    }
}
