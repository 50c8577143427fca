//! Real-world deployment constraints (§2.2.4).
//!
//! "Constraints are broadly classified into inclusion and exclusion
//! constraints. Inclusion constraints capture affinity between two
//! entities. ... These may require constraints that place two VMs on the
//! same host/subnet/rack or pin a VM to a specific host/subnet/rack. In
//! our work, we have extended popular consolidation algorithms to also
//! support deployment constraints."
//!
//! The placement algorithms in `vmcw-consolidation` consult a
//! [`ConstraintSet`] on every candidate assignment.

use crate::datacenter::{HostId, HostLocation, RackId, SubnetId};
use crate::vm::VmId;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// A single deployment constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Constraint {
    /// Inclusion: the two VMs must share a host (e.g. an app server and
    /// its in-memory cache).
    Colocate(VmId, VmId),
    /// Exclusion: the two VMs must not share a host (e.g. HA pairs).
    AntiColocate(VmId, VmId),
    /// Inclusion: the VM must run on this specific host (license pinning).
    PinToHost(VmId, HostId),
    /// Inclusion: the VM must run on a host in this subnet.
    PinToSubnet(VmId, SubnetId),
    /// Inclusion: the VM must run on a host in this rack.
    PinToRack(VmId, RackId),
}

/// Error adding a constraint that contradicts the existing set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintConflict {
    /// The pair is already anti-colocated (or colocated, for the reverse).
    ContradictoryPair(VmId, VmId),
    /// The VM is already pinned to a different host.
    ContradictoryHostPin(VmId, HostId, HostId),
    /// The VM is already pinned to a different subnet.
    ContradictorySubnetPin(VmId, SubnetId, SubnetId),
    /// The VM is already pinned to a different rack.
    ContradictoryRackPin(VmId, RackId, RackId),
    /// A VM cannot be (anti-)colocated with itself.
    SelfPair(VmId),
}

impl fmt::Display for ConstraintConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintConflict::ContradictoryPair(a, b) => {
                write!(f, "{a} and {b} are both colocated and anti-colocated")
            }
            ConstraintConflict::ContradictoryHostPin(vm, old, new) => {
                write!(f, "{vm} already pinned to {old}, cannot also pin to {new}")
            }
            ConstraintConflict::ContradictorySubnetPin(vm, old, new) => {
                write!(
                    f,
                    "{vm} already pinned to subnet {}, cannot also pin to subnet {}",
                    old.0, new.0
                )
            }
            ConstraintConflict::ContradictoryRackPin(vm, old, new) => {
                write!(
                    f,
                    "{vm} already pinned to rack {}, cannot also pin to rack {}",
                    old.0, new.0
                )
            }
            ConstraintConflict::SelfPair(vm) => {
                write!(f, "{vm} cannot be paired with itself")
            }
        }
    }
}

impl Error for ConstraintConflict {}

/// A violation found by [`ConstraintSet::violations`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A colocated pair was split across hosts.
    SplitAffinity(VmId, VmId),
    /// An anti-colocated pair shares a host.
    SharedHost(VmId, VmId, HostId),
    /// A host-pinned VM runs elsewhere.
    WrongHost(VmId, HostId, HostId),
    /// A subnet-pinned VM runs on a host in the wrong subnet.
    WrongSubnet(VmId, SubnetId),
    /// A rack-pinned VM runs on a host in the wrong rack.
    WrongRack(VmId, RackId),
}

fn ordered(a: VmId, b: VmId) -> (VmId, VmId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A set of deployment constraints with conflict checking.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConstraintSet {
    colocate: HashSet<(VmId, VmId)>,
    anti: HashSet<(VmId, VmId)>,
    pin_host: HashMap<VmId, HostId>,
    pin_subnet: HashMap<VmId, SubnetId>,
    pin_rack: HashMap<VmId, RackId>,
}

impl ConstraintSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the set contains no constraints.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.colocate.is_empty()
            && self.anti.is_empty()
            && self.pin_host.is_empty()
            && self.pin_subnet.is_empty()
            && self.pin_rack.is_empty()
    }

    /// Number of constraints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.colocate.len()
            + self.anti.len()
            + self.pin_host.len()
            + self.pin_subnet.len()
            + self.pin_rack.len()
    }

    /// Adds a constraint.
    ///
    /// # Errors
    ///
    /// Returns a [`ConstraintConflict`] when the new constraint directly
    /// contradicts an existing one (colocate vs anti-colocate on the same
    /// pair, or conflicting pins). Adding a constraint twice is a no-op.
    pub fn add(&mut self, constraint: Constraint) -> Result<(), ConstraintConflict> {
        match constraint {
            Constraint::Colocate(a, b) => {
                if a == b {
                    return Err(ConstraintConflict::SelfPair(a));
                }
                let key = ordered(a, b);
                if self.anti.contains(&key) {
                    return Err(ConstraintConflict::ContradictoryPair(a, b));
                }
                self.colocate.insert(key);
            }
            Constraint::AntiColocate(a, b) => {
                if a == b {
                    return Err(ConstraintConflict::SelfPair(a));
                }
                let key = ordered(a, b);
                if self.colocate.contains(&key) {
                    return Err(ConstraintConflict::ContradictoryPair(a, b));
                }
                self.anti.insert(key);
            }
            Constraint::PinToHost(vm, host) => {
                if let Some(&existing) = self.pin_host.get(&vm) {
                    if existing != host {
                        return Err(ConstraintConflict::ContradictoryHostPin(vm, existing, host));
                    }
                }
                self.pin_host.insert(vm, host);
            }
            Constraint::PinToSubnet(vm, subnet) => {
                if let Some(&existing) = self.pin_subnet.get(&vm) {
                    if existing != subnet {
                        return Err(ConstraintConflict::ContradictorySubnetPin(
                            vm, existing, subnet,
                        ));
                    }
                }
                self.pin_subnet.insert(vm, subnet);
            }
            Constraint::PinToRack(vm, rack) => {
                if let Some(&existing) = self.pin_rack.get(&vm) {
                    if existing != rack {
                        return Err(ConstraintConflict::ContradictoryRackPin(vm, existing, rack));
                    }
                }
                self.pin_rack.insert(vm, rack);
            }
        }
        Ok(())
    }

    /// The host this VM is pinned to, if any.
    #[must_use]
    pub fn pinned_host(&self, vm: VmId) -> Option<HostId> {
        self.pin_host.get(&vm).copied()
    }

    /// The subnet this VM is pinned to, if any.
    #[must_use]
    pub fn pinned_subnet(&self, vm: VmId) -> Option<SubnetId> {
        self.pin_subnet.get(&vm).copied()
    }

    /// The rack this VM is pinned to, if any.
    #[must_use]
    pub fn pinned_rack(&self, vm: VmId) -> Option<RackId> {
        self.pin_rack.get(&vm).copied()
    }

    /// Whether two VMs are anti-colocated.
    #[must_use]
    pub fn are_anti_colocated(&self, a: VmId, b: VmId) -> bool {
        self.anti.contains(&ordered(a, b))
    }

    /// Whether placing `vm` at `location` alongside `residents` satisfies
    /// all constraints involving `vm`.
    ///
    /// Colocation constraints are *not* checked here: the planners satisfy
    /// them structurally by packing colocation groups as single items (see
    /// [`ConstraintSet::colocation_groups`]).
    #[must_use]
    pub fn allows(&self, vm: VmId, location: HostLocation, residents: &[VmId]) -> bool {
        if let Some(pinned) = self.pinned_host(vm) {
            if pinned != location.host {
                return false;
            }
        }
        if let Some(pinned) = self.pinned_subnet(vm) {
            if pinned != location.subnet {
                return false;
            }
        }
        if let Some(pinned) = self.pinned_rack(vm) {
            if pinned != location.rack {
                return false;
            }
        }
        residents.iter().all(|&r| !self.are_anti_colocated(vm, r))
    }

    /// Whether a whole colocation group may be placed at `location`
    /// alongside `residents`.
    #[must_use]
    pub fn allows_group(&self, group: &[VmId], location: HostLocation, residents: &[VmId]) -> bool {
        group.iter().all(|&vm| self.allows(vm, location, residents))
    }

    /// Partitions `vms` into colocation groups (transitive closure of the
    /// colocate pairs; VMs without affinity form singleton groups).
    ///
    /// Groups preserve the input order of their first member, and members
    /// within a group follow input order, so planners remain deterministic.
    #[must_use]
    pub fn colocation_groups(&self, vms: &[VmId]) -> Vec<Vec<VmId>> {
        // Union-find over positions in `vms`.
        let index: HashMap<VmId, usize> = vms.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut parent: Vec<usize> = (0..vms.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for &(a, b) in &self.colocate {
            if let (Some(&ia), Some(&ib)) = (index.get(&a), index.get(&b)) {
                let ra = find(&mut parent, ia);
                let rb = find(&mut parent, ib);
                if ra != rb {
                    parent[ra.max(rb)] = ra.min(rb);
                }
            }
        }
        let mut groups: HashMap<usize, Vec<VmId>> = HashMap::new();
        for (i, &vm) in vms.iter().enumerate() {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(vm);
        }
        let mut roots: Vec<usize> = groups.keys().copied().collect();
        roots.sort_unstable();
        roots
            .into_iter()
            .map(|r| groups.remove(&r).expect("root present"))
            .collect()
    }

    /// Checks a complete assignment and reports all violations.
    ///
    /// `locate` resolves a host to its location; unresolvable hosts are
    /// skipped for subnet/rack checks (they are reported by capacity
    /// checks elsewhere).
    #[must_use]
    pub fn violations<F>(&self, assignment: &HashMap<VmId, HostId>, locate: F) -> Vec<Violation>
    where
        F: Fn(HostId) -> Option<HostLocation>,
    {
        let mut out = Vec::new();
        for &(a, b) in &self.colocate {
            if let (Some(&ha), Some(&hb)) = (assignment.get(&a), assignment.get(&b)) {
                if ha != hb {
                    out.push(Violation::SplitAffinity(a, b));
                }
            }
        }
        for &(a, b) in &self.anti {
            if let (Some(&ha), Some(&hb)) = (assignment.get(&a), assignment.get(&b)) {
                if ha == hb {
                    out.push(Violation::SharedHost(a, b, ha));
                }
            }
        }
        for (&vm, &host) in &self.pin_host {
            if let Some(&actual) = assignment.get(&vm) {
                if actual != host {
                    out.push(Violation::WrongHost(vm, host, actual));
                }
            }
        }
        for (&vm, &subnet) in &self.pin_subnet {
            if let Some(&actual_host) = assignment.get(&vm) {
                if let Some(location) = locate(actual_host) {
                    if location.subnet != subnet {
                        out.push(Violation::WrongSubnet(vm, subnet));
                    }
                }
            }
        }
        for (&vm, &rack) in &self.pin_rack {
            if let Some(&actual_host) = assignment.get(&vm) {
                if let Some(location) = locate(actual_host) {
                    if location.rack != rack {
                        out.push(Violation::WrongRack(vm, rack));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm(n: u32) -> VmId {
        VmId(n)
    }

    fn loc(host: u32, subnet: u16) -> HostLocation {
        HostLocation {
            host: HostId(host),
            rack: RackId(host / 14),
            subnet: SubnetId(subnet),
        }
    }

    fn loc_rack(host: u32, rack: u32) -> HostLocation {
        HostLocation {
            host: HostId(host),
            rack: RackId(rack),
            subnet: SubnetId(0),
        }
    }

    #[test]
    fn empty_set_allows_everything() {
        let cs = ConstraintSet::new();
        assert!(cs.is_empty());
        assert!(cs.allows(vm(1), loc(0, 0), &[vm(2), vm(3)]));
    }

    #[test]
    fn anti_colocation_blocks_shared_host() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::AntiColocate(vm(1), vm(2))).unwrap();
        assert!(!cs.allows(vm(1), loc(0, 0), &[vm(2)]));
        assert!(cs.allows(vm(1), loc(0, 0), &[vm(3)]));
        // Symmetric regardless of argument order.
        assert!(cs.are_anti_colocated(vm(2), vm(1)));
    }

    #[test]
    fn host_pin_restricts_host() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::PinToHost(vm(1), HostId(5))).unwrap();
        assert!(cs.allows(vm(1), loc(5, 0), &[]));
        assert!(!cs.allows(vm(1), loc(4, 0), &[]));
        assert_eq!(cs.pinned_host(vm(1)), Some(HostId(5)));
    }

    #[test]
    fn subnet_pin_restricts_subnet() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::PinToSubnet(vm(1), SubnetId(2))).unwrap();
        assert!(cs.allows(vm(1), loc(0, 2), &[]));
        assert!(!cs.allows(vm(1), loc(0, 1), &[]));
    }

    #[test]
    fn contradictions_are_rejected() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::Colocate(vm(1), vm(2))).unwrap();
        assert_eq!(
            cs.add(Constraint::AntiColocate(vm(2), vm(1))),
            Err(ConstraintConflict::ContradictoryPair(vm(2), vm(1)))
        );
        cs.add(Constraint::PinToHost(vm(3), HostId(1))).unwrap();
        assert!(matches!(
            cs.add(Constraint::PinToHost(vm(3), HostId(2))),
            Err(ConstraintConflict::ContradictoryHostPin(..))
        ));
        cs.add(Constraint::PinToSubnet(vm(4), SubnetId(1))).unwrap();
        assert!(matches!(
            cs.add(Constraint::PinToSubnet(vm(4), SubnetId(2))),
            Err(ConstraintConflict::ContradictorySubnetPin(..))
        ));
        assert_eq!(
            cs.add(Constraint::Colocate(vm(5), vm(5))),
            Err(ConstraintConflict::SelfPair(vm(5)))
        );
    }

    #[test]
    fn duplicate_constraints_are_idempotent() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::Colocate(vm(1), vm(2))).unwrap();
        cs.add(Constraint::Colocate(vm(2), vm(1))).unwrap();
        cs.add(Constraint::PinToHost(vm(1), HostId(0))).unwrap();
        cs.add(Constraint::PinToHost(vm(1), HostId(0))).unwrap();
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn colocation_groups_are_transitive() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::Colocate(vm(1), vm(2))).unwrap();
        cs.add(Constraint::Colocate(vm(2), vm(3))).unwrap();
        let vms = [vm(0), vm(1), vm(2), vm(3), vm(4)];
        let groups = cs.colocation_groups(&vms);
        assert_eq!(groups.len(), 3);
        assert!(groups.contains(&vec![vm(0)]));
        assert!(groups.contains(&vec![vm(1), vm(2), vm(3)]));
        assert!(groups.contains(&vec![vm(4)]));
    }

    #[test]
    fn colocation_groups_ignore_unknown_vms() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::Colocate(vm(1), vm(99))).unwrap();
        let groups = cs.colocation_groups(&[vm(1), vm(2)]);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn violations_reports_all_kinds() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::Colocate(vm(1), vm(2))).unwrap();
        cs.add(Constraint::AntiColocate(vm(3), vm(4))).unwrap();
        cs.add(Constraint::PinToHost(vm(5), HostId(0))).unwrap();
        cs.add(Constraint::PinToSubnet(vm(6), SubnetId(0))).unwrap();
        let assignment: HashMap<VmId, HostId> = [
            (vm(1), HostId(0)),
            (vm(2), HostId(1)), // split affinity
            (vm(3), HostId(2)),
            (vm(4), HostId(2)), // shared host
            (vm(5), HostId(3)), // wrong host
            (vm(6), HostId(4)), // wrong subnet (subnet 1 below)
        ]
        .into_iter()
        .collect();
        let v = cs.violations(&assignment, |h| {
            Some(HostLocation {
                host: h,
                rack: RackId(0),
                subnet: SubnetId(1),
            })
        });
        assert_eq!(v.len(), 4);
        assert!(v.contains(&Violation::SplitAffinity(vm(1), vm(2))));
        assert!(v.contains(&Violation::SharedHost(vm(3), vm(4), HostId(2))));
        assert!(v.contains(&Violation::WrongHost(vm(5), HostId(0), HostId(3))));
        assert!(v.contains(&Violation::WrongSubnet(vm(6), SubnetId(0))));
    }

    #[test]
    fn violations_empty_for_satisfying_assignment() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::Colocate(vm(1), vm(2))).unwrap();
        let assignment: HashMap<VmId, HostId> = [(vm(1), HostId(0)), (vm(2), HostId(0))]
            .into_iter()
            .collect();
        assert!(cs
            .violations(&assignment, |h| Some(HostLocation {
                host: h,
                rack: RackId(0),
                subnet: SubnetId(0)
            }))
            .is_empty());
    }

    #[test]
    fn group_check_requires_all_members() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::AntiColocate(vm(1), vm(9))).unwrap();
        assert!(!cs.allows_group(&[vm(1), vm(2)], loc(0, 0), &[vm(9)]));
        assert!(cs.allows_group(&[vm(1), vm(2)], loc(0, 0), &[vm(8)]));
    }

    #[test]
    fn rack_pin_restricts_rack() {
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::PinToRack(vm(1), RackId(2))).unwrap();
        assert!(cs.allows(vm(1), loc_rack(0, 2), &[]));
        assert!(!cs.allows(vm(1), loc_rack(0, 1), &[]));
        assert_eq!(cs.pinned_rack(vm(1)), Some(RackId(2)));
        // Conflicting rack pins are rejected.
        assert!(matches!(
            cs.add(Constraint::PinToRack(vm(1), RackId(3))),
            Err(ConstraintConflict::ContradictoryRackPin(..))
        ));
        // Violations report the wrong rack.
        let assignment: HashMap<VmId, HostId> = [(vm(1), HostId(0))].into_iter().collect();
        let v = cs.violations(&assignment, |h| Some(loc_rack(h.0, 9)));
        assert_eq!(v, vec![Violation::WrongRack(vm(1), RackId(2))]);
    }

    #[test]
    fn conflict_messages_are_informative() {
        let c = ConstraintConflict::ContradictoryPair(vm(1), vm(2));
        assert!(c.to_string().contains("vm-1"));
        let c = ConstraintConflict::SelfPair(vm(3));
        assert!(c.to_string().contains("itself"));
    }
}
