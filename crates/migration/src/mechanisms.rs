//! Alternative live-migration mechanisms (§7, "Improving live migration
//! efficiency").
//!
//! The paper's discussion section argues that offloading migration work
//! from the (likely overloaded) source host — to the target, or out of
//! the OS entirely via RDMA \[21\] — could shrink the resource reservation
//! that cripples dynamic consolidation. This module models the candidate
//! mechanisms so that the `futurework` experiment can quantify exactly
//! that:
//!
//! * [`MigrationMechanism::PreCopy`] — the 2012 status quo (§4.3).
//! * [`MigrationMechanism::PostCopy`] — resume on the target first, fault
//!   pages over: immune to dirty-rate divergence, tiny downtime, but a
//!   demand-paging degradation window as long as the transfer.
//! * [`MigrationMechanism::RdmaAssisted`] — pre-copy whose copy engine
//!   bypasses the source CPU: bandwidth no longer collapses on a loaded
//!   host.

use crate::precopy::{HostLoad, MigrationOutcome, PrecopyConfig, VmMigrationProfile};

/// A live-migration mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MigrationMechanism {
    /// Iterative pre-copy (Xen/ESX circa 2012).
    PreCopy,
    /// Post-copy with demand paging.
    PostCopy,
    /// Pre-copy with an RDMA-offloaded copy engine.
    RdmaAssisted,
}

impl MigrationMechanism {
    /// All mechanisms, status quo first.
    pub const ALL: [MigrationMechanism; 3] = [
        MigrationMechanism::PreCopy,
        MigrationMechanism::PostCopy,
        MigrationMechanism::RdmaAssisted,
    ];

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MigrationMechanism::PreCopy => "pre-copy",
            MigrationMechanism::PostCopy => "post-copy",
            MigrationMechanism::RdmaAssisted => "rdma-assisted",
        }
    }

    /// Simulates a migration under this mechanism.
    #[must_use]
    pub fn simulate(
        self,
        config: &PrecopyConfig,
        vm: &VmMigrationProfile,
        load: HostLoad,
    ) -> MigrationOutcome {
        match self {
            MigrationMechanism::PreCopy => config.simulate(vm, load),
            MigrationMechanism::PostCopy => {
                // One pass: processor state ships immediately (fixed small
                // downtime), memory follows by demand paging + background
                // prefetch at the effective link rate. Nothing is copied
                // twice, and the guest's dirty rate is irrelevant.
                let copy_mbs = config.effective_copy_mbs(load).max(1e-6);
                let transfer_secs = vm.mem_mb / copy_mbs;
                let downtime_ms = 80.0;
                MigrationOutcome {
                    converged: downtime_ms <= config.downtime_budget_ms,
                    rounds: 1,
                    precopy_secs: 0.0,
                    downtime_ms,
                    total_secs: transfer_secs + downtime_ms / 1000.0,
                    copied_mb: vm.mem_mb,
                    effective_copy_mbs: copy_mbs,
                }
            }
            MigrationMechanism::RdmaAssisted => {
                // The copy engine bypasses the source CPU: run pre-copy
                // with an undegraded link. Memory pressure still inflates
                // the dirty rate (the guest itself pages).
                let undegraded = HostLoad::new(0.0, load.mem_util);
                let mut out = config.simulate(vm, undegraded);
                // RDMA setup/registration adds a small constant.
                out.total_secs += 0.5;
                out
            }
        }
    }

    /// Minimum reservation (5% steps) this mechanism needs for reliable
    /// migration off a host loaded to the corresponding bound — the §7
    /// question "can the reserved resources be reduced without impacting
    /// reliability?".
    #[must_use]
    pub fn min_reservation(self, config: &PrecopyConfig, vm: &VmMigrationProfile) -> f64 {
        for step in 0..=10 {
            let reservation = f64::from(step) * 0.05;
            let bound = 1.0 - reservation;
            let load = HostLoad::new(bound + 0.15, bound + 0.10);
            if self.simulate(config, vm, load).converged {
                return reservation;
            }
        }
        0.50
    }
}

impl std::fmt::Display for MigrationMechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_vm() -> VmMigrationProfile {
        VmMigrationProfile::new(8192.0, 400.0, 1024.0)
    }

    #[test]
    fn postcopy_downtime_is_tiny_and_constant() {
        let cfg = PrecopyConfig::gigabit();
        let calm = MigrationMechanism::PostCopy.simulate(&cfg, &busy_vm(), HostLoad::idle());
        let busy =
            MigrationMechanism::PostCopy.simulate(&cfg, &busy_vm(), HostLoad::new(0.95, 0.95));
        assert_eq!(calm.downtime_ms, busy.downtime_ms);
        assert!(calm.downtime_ms < 100.0);
        assert!(calm.converged && busy.converged);
    }

    #[test]
    fn postcopy_copies_memory_exactly_once() {
        let cfg = PrecopyConfig::gigabit();
        let vm = busy_vm();
        let pre = MigrationMechanism::PreCopy.simulate(&cfg, &vm, HostLoad::idle());
        let post = MigrationMechanism::PostCopy.simulate(&cfg, &vm, HostLoad::idle());
        assert_eq!(post.copied_mb, vm.mem_mb);
        assert!(
            pre.copied_mb > post.copied_mb,
            "pre-copy re-sends dirty pages"
        );
    }

    #[test]
    fn rdma_is_immune_to_source_cpu_load() {
        let cfg = PrecopyConfig::gigabit();
        let vm = busy_vm();
        let idle = MigrationMechanism::RdmaAssisted.simulate(&cfg, &vm, HostLoad::idle());
        let loaded = MigrationMechanism::RdmaAssisted.simulate(&cfg, &vm, HostLoad::new(0.99, 0.5));
        assert!((idle.total_secs - loaded.total_secs).abs() < 1.0);
        assert!(loaded.converged);
        // Plain pre-copy collapses under the same load.
        let precopy = MigrationMechanism::PreCopy.simulate(&cfg, &vm, HostLoad::new(0.99, 0.5));
        assert!(precopy.total_secs > loaded.total_secs);
    }

    #[test]
    fn future_mechanisms_need_less_reservation() {
        let cfg = PrecopyConfig::gigabit();
        let vm = busy_vm();
        let pre = MigrationMechanism::PreCopy.min_reservation(&cfg, &vm);
        let post = MigrationMechanism::PostCopy.min_reservation(&cfg, &vm);
        let rdma = MigrationMechanism::RdmaAssisted.min_reservation(&cfg, &vm);
        assert!(
            pre >= 0.15,
            "status quo needs the Observation-4 reservation, got {pre}"
        );
        assert!(post < pre, "post-copy {post} vs pre-copy {pre}");
        assert!(rdma < pre, "rdma {rdma} vs pre-copy {pre}");
        assert!(post <= 0.05);
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(MigrationMechanism::PreCopy.label(), "pre-copy");
        assert_eq!(MigrationMechanism::PostCopy.to_string(), "post-copy");
        assert_eq!(MigrationMechanism::ALL.len(), 3);
    }
}
