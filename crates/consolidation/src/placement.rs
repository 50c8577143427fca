//! Placement representation.
//!
//! A [`Placement`] is an assignment of VMs to hosts at one point in time.
//! Semi-static plans hold one placement for the whole study; the dynamic
//! plan holds one per consolidation interval.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use vmcw_cluster::datacenter::HostId;
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::VmId;

/// An assignment of VMs to physical hosts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Placement {
    forward: BTreeMap<VmId, HostId>,
    reverse: BTreeMap<HostId, Vec<VmId>>,
}

impl Placement {
    /// An empty placement.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns (or re-assigns) a VM to a host. Returns the previous host,
    /// if any.
    pub fn assign(&mut self, vm: VmId, host: HostId) -> Option<HostId> {
        let prev = self.forward.insert(vm, host);
        if let Some(p) = prev {
            if p == host {
                return prev;
            }
            self.remove_from_reverse(vm, p);
        }
        self.reverse.entry(host).or_default().push(vm);
        prev
    }

    /// Removes a VM from the placement. Returns its host, if it was placed.
    pub fn remove(&mut self, vm: VmId) -> Option<HostId> {
        let host = self.forward.remove(&vm)?;
        self.remove_from_reverse(vm, host);
        Some(host)
    }

    fn remove_from_reverse(&mut self, vm: VmId, host: HostId) {
        if let Some(list) = self.reverse.get_mut(&host) {
            list.retain(|&v| v != vm);
            if list.is_empty() {
                self.reverse.remove(&host);
            }
        }
    }

    /// The host a VM is placed on.
    #[must_use]
    pub fn host_of(&self, vm: VmId) -> Option<HostId> {
        self.forward.get(&vm).copied()
    }

    /// The VMs on a host (empty slice if none).
    #[must_use]
    pub fn vms_on(&self, host: HostId) -> &[VmId] {
        self.reverse.get(&host).map_or(&[], Vec::as_slice)
    }

    /// Hosts with at least one VM, ascending by id.
    #[must_use]
    pub fn active_hosts(&self) -> Vec<HostId> {
        self.reverse.keys().copied().collect()
    }

    /// Iterates active hosts and their resident VMs in ascending host
    /// order, without allocating — the replay engine walks this every
    /// emulated hour, so the `Vec` that [`Placement::active_hosts`]
    /// builds is pure churn there.
    pub fn active(&self) -> impl Iterator<Item = (HostId, &[VmId])> + '_ {
        self.reverse.iter().map(|(&h, vms)| (h, vms.as_slice()))
    }

    /// Number of hosts with at least one VM.
    #[must_use]
    pub fn active_host_count(&self) -> usize {
        self.reverse.len()
    }

    /// Number of placed VMs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether no VM is placed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Iterates over `(vm, host)` pairs in VM-id order.
    pub fn iter(&self) -> impl Iterator<Item = (VmId, HostId)> + '_ {
        self.forward.iter().map(|(&v, &h)| (v, h))
    }

    /// The forward map (for constraint validation).
    #[must_use]
    pub fn as_map(&self) -> std::collections::HashMap<VmId, HostId> {
        self.forward.iter().map(|(&v, &h)| (v, h)).collect()
    }

    /// Total demand on a host under a per-VM demand function.
    #[must_use]
    pub fn demand_on<F>(&self, host: HostId, mut demand_of: F) -> Resources
    where
        F: FnMut(VmId) -> Resources,
    {
        self.vms_on(host).iter().map(|&v| demand_of(v)).sum()
    }

    /// The set of VMs whose host differs between `self` (earlier) and
    /// `next` (later) — i.e. the live migrations between two intervals.
    /// VMs present in only one placement are ignored.
    #[must_use]
    pub fn moved_vms(&self, next: &Placement) -> Vec<(VmId, HostId, HostId)> {
        self.forward
            .iter()
            .filter_map(|(&vm, &from)| {
                next.host_of(vm)
                    .and_then(|to| (to != from).then_some((vm, from, to)))
            })
            .collect()
    }
}

impl FromIterator<(VmId, HostId)> for Placement {
    fn from_iter<T: IntoIterator<Item = (VmId, HostId)>>(iter: T) -> Self {
        let mut p = Placement::new();
        for (vm, host) in iter {
            p.assign(vm, host);
        }
        p
    }
}

/// Errors produced by the packing algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum PackError {
    /// A single item's demand exceeds an empty host's effective capacity;
    /// no placement can ever satisfy it.
    ItemTooLarge {
        /// First VM of the offending colocation group.
        vm: VmId,
        /// The group's demand.
        demand: Resources,
        /// The effective (bounded) host capacity.
        capacity: Resources,
    },
    /// A VM is pinned to a host that does not exist or cannot hold it.
    PinnedHostInfeasible {
        /// The pinned VM.
        vm: VmId,
        /// The host it is pinned to.
        host: HostId,
    },
    /// Anti-colocated VMs inside one colocation group — unsatisfiable.
    InconsistentConstraints {
        /// A VM of the offending group.
        vm: VmId,
    },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::ItemTooLarge {
                vm,
                demand,
                capacity,
            } => write!(
                f,
                "{vm} demands {demand}, more than an empty host's effective capacity {capacity}"
            ),
            PackError::PinnedHostInfeasible { vm, host } => {
                write!(f, "{vm} is pinned to {host} which is unavailable or full")
            }
            PackError::InconsistentConstraints { vm } => {
                write!(
                    f,
                    "colocation group of {vm} contains anti-colocated members"
                )
            }
        }
    }
}

impl Error for PackError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm(n: u32) -> VmId {
        VmId(n)
    }
    fn host(n: u32) -> HostId {
        HostId(n)
    }

    #[test]
    fn assign_and_lookup() {
        let mut p = Placement::new();
        assert_eq!(p.assign(vm(1), host(0)), None);
        assert_eq!(p.assign(vm(2), host(0)), None);
        assert_eq!(p.host_of(vm(1)), Some(host(0)));
        assert_eq!(p.vms_on(host(0)), &[vm(1), vm(2)]);
        assert_eq!(p.active_host_count(), 1);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn reassign_moves_between_hosts() {
        let mut p = Placement::new();
        p.assign(vm(1), host(0));
        assert_eq!(p.assign(vm(1), host(1)), Some(host(0)));
        assert_eq!(p.vms_on(host(0)), &[] as &[VmId]);
        assert_eq!(p.vms_on(host(1)), &[vm(1)]);
        assert_eq!(p.active_hosts(), vec![host(1)]);
    }

    #[test]
    fn reassign_to_same_host_is_stable() {
        let mut p = Placement::new();
        p.assign(vm(1), host(0));
        assert_eq!(p.assign(vm(1), host(0)), Some(host(0)));
        assert_eq!(p.vms_on(host(0)), &[vm(1)]);
    }

    #[test]
    fn remove_clears_both_maps() {
        let mut p = Placement::new();
        p.assign(vm(1), host(0));
        assert_eq!(p.remove(vm(1)), Some(host(0)));
        assert_eq!(p.remove(vm(1)), None);
        assert!(p.is_empty());
        assert_eq!(p.active_host_count(), 0);
    }

    #[test]
    fn demand_accumulates_per_host() {
        let p: Placement = [(vm(1), host(0)), (vm(2), host(0)), (vm(3), host(1))]
            .into_iter()
            .collect();
        let d = p.demand_on(host(0), |v| Resources::new(f64::from(v.0), 10.0));
        assert_eq!(d, Resources::new(3.0, 20.0));
    }

    #[test]
    fn moved_vms_detects_migrations() {
        let a: Placement = [(vm(1), host(0)), (vm(2), host(0))].into_iter().collect();
        let b: Placement = [(vm(1), host(1)), (vm(2), host(0))].into_iter().collect();
        assert_eq!(a.moved_vms(&b), vec![(vm(1), host(0), host(1))]);
        assert!(a.moved_vms(&a).is_empty());
    }

    #[test]
    fn moved_vms_ignores_departed() {
        let a: Placement = [(vm(1), host(0))].into_iter().collect();
        let b = Placement::new();
        assert!(a.moved_vms(&b).is_empty());
    }

    #[test]
    fn pack_error_messages() {
        let e = PackError::ItemTooLarge {
            vm: vm(9),
            demand: Resources::new(10.0, 10.0),
            capacity: Resources::new(1.0, 1.0),
        };
        assert!(e.to_string().contains("vm-9"));
        let e = PackError::PinnedHostInfeasible {
            vm: vm(1),
            host: host(2),
        };
        assert!(e.to_string().contains("host-2"));
    }
}
