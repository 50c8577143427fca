//! Best-Fit-Decreasing bin packing.
//!
//! A standard baseline next to the paper's FFD: items still pack in
//! decreasing order, but each goes to the *fullest* feasible host rather
//! than the first one. BFD trades a denser final packing on skewed item
//! distributions for more comparisons; on the 2-D enterprise mixes of the
//! paper the two usually land within a host of each other, which is why
//! the paper standardises on FFD — the `ablation` experiment quantifies this.

use crate::ffd::{attach_network, build_items, pack, BinPackModel, FfdModel, OrderKey, PackItem};
use crate::placement::{PackError, Placement};
use std::collections::BTreeMap;
use vmcw_cluster::constraints::ConstraintSet;
use vmcw_cluster::datacenter::DataCenter;
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::VmId;

/// Best-fit model: identical accounting to [`FfdModel`], with a
/// preference for the fullest feasible host.
#[derive(Debug, Clone)]
pub struct BfdModel {
    inner: FfdModel,
}

impl BfdModel {
    /// Creates the model (see [`FfdModel::new`]).
    #[must_use]
    pub fn new(effective_capacity: Resources, order: OrderKey, existing_hosts: usize) -> Self {
        Self {
            inner: FfdModel::new(effective_capacity, order, existing_hosts),
        }
    }

    /// Enables the host-link bandwidth constraint (see
    /// [`FfdModel::with_network_capacity`]).
    #[must_use]
    pub fn with_network_capacity(mut self, net_mbps: f64) -> Self {
        self.inner = self.inner.with_network_capacity(net_mbps);
        self
    }
}

impl BinPackModel for BfdModel {
    type Item = PackItem;

    fn vms<'a>(&self, item: &'a PackItem) -> &'a [VmId] {
        self.inner.vms(item)
    }

    fn sort_key(&self, item: &PackItem) -> f64 {
        self.inner.sort_key(item)
    }

    fn open_host(&mut self) {
        self.inner.open_host();
    }

    fn host_count(&self) -> usize {
        self.inner.host_count()
    }

    fn fits(&self, host: usize, item: &PackItem) -> bool {
        self.inner.fits(host, item)
    }

    fn fits_empty(&self, item: &PackItem) -> bool {
        self.inner.fits_empty(item)
    }

    fn preference(&self, host: usize, _item: &PackItem) -> f64 {
        // Fullest-first: the host's dominant share *before* placing.
        self.inner
            .load(host)
            .dominant_share(&self.inner.effective_capacity())
    }

    fn place(&mut self, host: usize, item: &PackItem) {
        self.inner.place(host, item);
    }

    fn demand(&self, item: &PackItem) -> Resources {
        self.inner.demand(item)
    }

    fn effective_capacity(&self) -> Resources {
        self.inner.effective_capacity()
    }
}

/// Packs per-VM scalar demands with Best-Fit-Decreasing (the counterpart
/// of [`crate::ffd::first_fit_decreasing`]).
///
/// # Errors
///
/// Same as the FFD variant.
pub fn best_fit_decreasing(
    demands: &BTreeMap<VmId, Resources>,
    dc: &mut DataCenter,
    constraints: &ConstraintSet,
    bounds: (f64, f64),
    order: OrderKey,
) -> Result<Placement, PackError> {
    let capacity = dc.template().capacity();
    let effective = Resources::new(capacity.cpu_rpe2 * bounds.0, capacity.mem_mb * bounds.1);
    let items = build_items(demands, constraints)?;
    let mut model = BfdModel::new(effective, order, dc.len());
    pack(&mut model, items, dc, constraints)
}

/// [`best_fit_decreasing`] with the §3.1 host-link bandwidth constraint.
///
/// # Errors
///
/// See [`best_fit_decreasing`].
pub fn best_fit_decreasing_with_network(
    demands: &BTreeMap<VmId, Resources>,
    net: &BTreeMap<VmId, f64>,
    dc: &mut DataCenter,
    constraints: &ConstraintSet,
    bounds: (f64, f64),
    order: OrderKey,
) -> Result<Placement, PackError> {
    let capacity = dc.template().capacity();
    let effective = Resources::new(capacity.cpu_rpe2 * bounds.0, capacity.mem_mb * bounds.1);
    let mut items = build_items(demands, constraints)?;
    attach_network(&mut items, net);
    let mut model =
        BfdModel::new(effective, order, dc.len()).with_network_capacity(dc.template().net_mbps);
    pack(&mut model, items, dc, constraints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffd::first_fit_decreasing;
    use vmcw_cluster::power::PowerModel;
    use vmcw_cluster::server::ServerModel;

    fn dc() -> DataCenter {
        DataCenter::new(
            ServerModel {
                name: "test".into(),
                cpu_rpe2: 100.0,
                mem_mb: 1000.0,
                net_mbps: 1000.0,
                power: PowerModel::new(100.0, 200.0),
            },
            4,
            2,
        )
    }

    fn demands(list: &[(u32, f64, f64)]) -> BTreeMap<VmId, Resources> {
        list.iter()
            .map(|&(id, c, m)| (VmId(id), Resources::new(c, m)))
            .collect()
    }

    #[test]
    fn bfd_prefers_the_fullest_host() {
        // Pack 70 then 20: FFD and BFD agree so far (host 0: 90). Then 25
        // opens host 1 (75). A following 10 fits both; best-fit puts it on
        // host 0 (90 full) — first-fit also picks host 0 here, so craft a
        // case where they differ: after 60 and 50 on separate hosts, a 30
        // fits only host 1 (50+30=80): both agree. Use 35: fits host 1
        // only. Use 25: fits host 0 (60→85) and host 1 (50→75); best-fit
        // picks host 0... as does first-fit. The observable difference
        // needs the *fuller* host to have the *higher id*:
        // items 60, 50 → host0:60, host1:50? No: FFD places 50 on host 0?
        // 60+50 > 100 → host 1. Then item 45: fits host 1 (95) not host 0
        // (105): both agree. Item 38: fits host1 (88) and host0 (98)?
        // 60+38=98 ✓ fits. first-fit → host 0 (98). best-fit → host 0 too
        // (60 > 50). Flip: make host 1 fuller: 45, 55 → FFD sorts desc:
        // 55 → host0, 45 → host0? 55+45=100 ✓ same host. Use 55, 48, then
        // 46: 55→h0, 48→h0 (103 ✗) → h1, 46→ h0? 101 ✗ → h1 (94) ✓.
        // Now 5: first-fit → h0 (60); best-fit → h1 (94, fuller).
        let d = demands(&[
            (0, 55.0, 1.0),
            (1, 48.0, 1.0),
            (2, 46.0, 1.0),
            (3, 5.0, 1.0),
        ]);
        let mut dc_ffd = dc();
        let mut dc_bfd = dc();
        let cs = ConstraintSet::new();
        let ffd = first_fit_decreasing(&d, &mut dc_ffd, &cs, (1.0, 1.0), OrderKey::Cpu).unwrap();
        let bfd = best_fit_decreasing(&d, &mut dc_bfd, &cs, (1.0, 1.0), OrderKey::Cpu).unwrap();
        assert_eq!(
            ffd.host_of(VmId(3)).unwrap().0,
            0,
            "first-fit takes the first hole"
        );
        assert_eq!(
            bfd.host_of(VmId(3)).unwrap().0,
            1,
            "best-fit takes the snuggest hole"
        );
    }

    #[test]
    fn bfd_never_overloads() {
        let d = demands(
            &(0..30)
                .map(|i| (i, 7.0 + f64::from(i % 5), 90.0))
                .collect::<Vec<_>>(),
        );
        let mut dc = dc();
        let p = best_fit_decreasing(
            &d,
            &mut dc,
            &ConstraintSet::new(),
            (0.8, 0.8),
            OrderKey::Dominant,
        )
        .unwrap();
        for host in p.active_hosts() {
            let load = p.demand_on(host, |vm| d[&vm]);
            assert!(load.fits_within(&Resources::new(80.0, 800.0)));
        }
        assert_eq!(p.len(), 30);
    }

    #[test]
    fn bfd_matches_or_beats_ffd_on_host_count_for_1d_instances() {
        // On classical 1-D instances BFD ≤ FFD + small constant; check a
        // handful of deterministic instances.
        for seed in 0..5u32 {
            let items: Vec<(u32, f64, f64)> = (0..40)
                .map(|i| {
                    let size = 10.0 + f64::from((i * 7 + seed * 13) % 45);
                    (i, size, 1.0)
                })
                .collect();
            let d = demands(&items);
            let cs = ConstraintSet::new();
            let mut dc_a = dc();
            let mut dc_b = dc();
            let ffd = first_fit_decreasing(&d, &mut dc_a, &cs, (1.0, 1.0), OrderKey::Cpu).unwrap();
            let bfd = best_fit_decreasing(&d, &mut dc_b, &cs, (1.0, 1.0), OrderKey::Cpu).unwrap();
            assert!(
                bfd.active_host_count() <= ffd.active_host_count() + 1,
                "seed {seed}: bfd {} vs ffd {}",
                bfd.active_host_count(),
                ffd.active_host_count()
            );
        }
    }

    #[test]
    fn bfd_respects_constraints() {
        use vmcw_cluster::constraints::Constraint;
        let mut cs = ConstraintSet::new();
        cs.add(Constraint::AntiColocate(VmId(0), VmId(1))).unwrap();
        let d = demands(&[(0, 10.0, 10.0), (1, 10.0, 10.0)]);
        let mut dc = dc();
        let p = best_fit_decreasing(&d, &mut dc, &cs, (1.0, 1.0), OrderKey::Dominant).unwrap();
        assert_ne!(p.host_of(VmId(0)), p.host_of(VmId(1)));
    }
}
