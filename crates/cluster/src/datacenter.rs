//! Hosts, racks and subnets.
//!
//! A [`DataCenter`] is the pool of physical virtualisation hosts that a
//! consolidation plan places VMs onto. Hosts live in racks (which drive
//! the facilities cost model) and subnets (which participate in the
//! deployment-constraint framework of §2.2.4).

use crate::server::ServerModel;
use std::fmt;

/// Identifier of a physical host within a data center.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host-{}", self.0)
    }
}

/// Identifier of a rack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RackId(pub u32);

/// Identifier of a network subnet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubnetId(pub u16);

/// A physical virtualisation host.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Identifier.
    pub id: HostId,
    /// Hardware model.
    pub model: ServerModel,
    /// Rack the host is mounted in.
    pub rack: RackId,
    /// Subnet the host is attached to.
    pub subnet: SubnetId,
}

impl Host {
    /// The host's placement-relevant location.
    #[must_use]
    pub fn location(&self) -> HostLocation {
        HostLocation {
            host: self.id,
            rack: self.rack,
            subnet: self.subnet,
        }
    }
}

/// Where a host sits in the data center — everything the deployment
/// constraints of §2.2.4 can refer to ("same host/subnet/rack").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostLocation {
    /// The host itself.
    pub host: HostId,
    /// Its rack.
    pub rack: RackId,
    /// Its subnet.
    pub subnet: SubnetId,
}

/// A pool of physical hosts.
///
/// Planners provision hosts on demand via [`DataCenter::provision`]; the
/// space-cost model then charges for the provisioned count.
#[derive(Debug, Clone, PartialEq)]
pub struct DataCenter {
    template: ServerModel,
    hosts_per_rack: u32,
    subnet_count: u16,
    hosts: Vec<Host>,
}

impl DataCenter {
    /// Creates an empty data center that provisions hosts of `template`.
    ///
    /// # Panics
    ///
    /// Panics if `hosts_per_rack` or `subnet_count` is zero.
    #[must_use]
    pub fn new(template: ServerModel, hosts_per_rack: u32, subnet_count: u16) -> Self {
        assert!(hosts_per_rack > 0, "a rack must hold at least one host");
        assert!(subnet_count > 0, "need at least one subnet");
        Self {
            template,
            hosts_per_rack,
            subnet_count,
            hosts: Vec::new(),
        }
    }

    /// Convenience: an HS23-Elite blade data center with 14 blades per
    /// chassis/rack and 4 subnets — the defaults used by the paper-scale
    /// studies.
    #[must_use]
    pub fn hs23_default() -> Self {
        Self::new(ServerModel::hs23_elite(), 14, 4)
    }

    /// Creates a data center with `n` hosts already provisioned.
    #[must_use]
    pub fn with_hosts(
        template: ServerModel,
        hosts_per_rack: u32,
        subnet_count: u16,
        n: u32,
    ) -> Self {
        let mut dc = Self::new(template, hosts_per_rack, subnet_count);
        for _ in 0..n {
            dc.provision();
        }
        dc
    }

    /// Creates a *heterogeneous* data center from an explicit inventory:
    /// `counts` of each model, in order. The first model doubles as the
    /// provisioning template should a planner grow the pool, but the
    /// fixed-pool packer ([`pack_fixed`]) never provisions — it answers
    /// the engagement question "does the existing estate hold this
    /// workload?".
    ///
    /// [`pack_fixed`]: https://docs.rs/vmcw-consolidation
    ///
    /// # Panics
    ///
    /// Panics if `inventory` is empty or holds no hosts.
    #[must_use]
    pub fn heterogeneous(
        inventory: &[(ServerModel, u32)],
        hosts_per_rack: u32,
        subnet_count: u16,
    ) -> Self {
        assert!(
            inventory.iter().map(|&(_, n)| n).sum::<u32>() > 0,
            "inventory must hold at least one host"
        );
        let mut dc = Self::new(inventory[0].0.clone(), hosts_per_rack, subnet_count);
        for (model, count) in inventory {
            for _ in 0..*count {
                dc.push_host(model.clone());
            }
        }
        dc
    }

    /// Appends one host of an explicit model (heterogeneous pools).
    pub fn push_host(&mut self, model: ServerModel) -> HostId {
        let idx = self.hosts.len() as u32;
        let id = HostId(idx);
        self.hosts.push(Host {
            id,
            model,
            rack: RackId(idx / self.hosts_per_rack),
            subnet: SubnetId((idx % u32::from(self.subnet_count)) as u16),
        });
        id
    }

    /// Whether every host shares the template's specification.
    #[must_use]
    pub fn is_homogeneous(&self) -> bool {
        self.hosts.iter().all(|h| h.model == self.template)
    }

    /// The host hardware template.
    #[must_use]
    pub fn template(&self) -> &ServerModel {
        &self.template
    }

    /// Provisions one more host, assigning it to a rack (filled in order)
    /// and a subnet (round-robin). Returns the new host's id.
    pub fn provision(&mut self) -> HostId {
        let idx = self.hosts.len() as u32;
        let id = HostId(idx);
        self.hosts.push(Host {
            id,
            model: self.template.clone(),
            rack: RackId(idx / self.hosts_per_rack),
            subnet: SubnetId((idx % u32::from(self.subnet_count)) as u16),
        });
        id
    }

    /// Number of provisioned hosts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether no hosts are provisioned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Number of racks in use.
    #[must_use]
    pub fn rack_count(&self) -> usize {
        (self.hosts.len() as u32).div_ceil(self.hosts_per_rack) as usize
    }

    /// Looks up a host by id.
    #[must_use]
    pub fn host(&self, id: HostId) -> Option<&Host> {
        self.hosts.get(id.0 as usize)
    }

    /// The location of a host, if provisioned.
    #[must_use]
    pub fn location(&self, id: HostId) -> Option<HostLocation> {
        self.host(id).map(Host::location)
    }

    /// Iterates over provisioned hosts.
    pub fn iter(&self) -> impl Iterator<Item = &Host> {
        self.hosts.iter()
    }
}

impl<'a> IntoIterator for &'a DataCenter {
    type Item = &'a Host;
    type IntoIter = std::slice::Iter<'a, Host>;
    fn into_iter(self) -> Self::IntoIter {
        self.hosts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisioning_assigns_racks_and_subnets() {
        let mut dc = DataCenter::new(ServerModel::hs23_elite(), 2, 3);
        let ids: Vec<HostId> = (0..5).map(|_| dc.provision()).collect();
        assert_eq!(ids.len(), 5);
        assert_eq!(dc.len(), 5);
        assert_eq!(dc.rack_count(), 3); // 2+2+1
        assert_eq!(dc.host(HostId(0)).unwrap().rack, RackId(0));
        assert_eq!(dc.host(HostId(2)).unwrap().rack, RackId(1));
        assert_eq!(dc.host(HostId(4)).unwrap().rack, RackId(2));
        assert_eq!(dc.host(HostId(0)).unwrap().subnet, SubnetId(0));
        assert_eq!(dc.host(HostId(3)).unwrap().subnet, SubnetId(0));
        assert_eq!(dc.host(HostId(4)).unwrap().subnet, SubnetId(1));
    }

    #[test]
    fn with_hosts_preprovisions() {
        let dc = DataCenter::with_hosts(ServerModel::hs23_elite(), 14, 4, 20);
        assert_eq!(dc.len(), 20);
        assert_eq!(dc.rack_count(), 2);
    }

    #[test]
    fn unknown_host_is_none() {
        let dc = DataCenter::hs23_default();
        assert!(dc.host(HostId(0)).is_none());
        assert!(dc.is_empty());
    }

    #[test]
    fn iteration_visits_all_hosts() {
        let dc = DataCenter::with_hosts(ServerModel::hs23_elite(), 14, 4, 3);
        assert_eq!(dc.iter().count(), 3);
        assert_eq!((&dc).into_iter().count(), 3);
    }

    #[test]
    fn heterogeneous_inventory() {
        let dc = DataCenter::heterogeneous(
            &[(ServerModel::hs23_elite(), 2), (ServerModel::x3550_m3(), 3)],
            4,
            2,
        );
        assert_eq!(dc.len(), 5);
        assert!(!dc.is_homogeneous());
        assert_eq!(dc.host(HostId(0)).unwrap().model.name, "hs23-elite");
        assert_eq!(dc.host(HostId(4)).unwrap().model.name, "x3550-m3");
        // Homogeneous pools report as such.
        let uniform = DataCenter::with_hosts(ServerModel::hs23_elite(), 4, 2, 3);
        assert!(uniform.is_homogeneous());
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn empty_inventory_rejected() {
        let _ = DataCenter::heterogeneous(&[(ServerModel::hs23_elite(), 0)], 4, 2);
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn zero_rack_capacity_rejected() {
        let _ = DataCenter::new(ServerModel::hs23_elite(), 0, 1);
    }
}
