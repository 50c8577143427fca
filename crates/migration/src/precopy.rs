//! Iterative pre-copy live-migration simulation.
//!
//! The model follows the design shared by "all known live migration
//! implementations" (§4.3, citing Xen's \[6\] and VMware's \[18\]):
//!
//! 1. Round 0 copies the VM's entire allocated memory while it keeps
//!    running; pages dirtied during the copy are tracked.
//! 2. Each subsequent round copies the pages dirtied during the previous
//!    round.
//! 3. Pre-copy ends when the dirty set is small enough for a brief
//!    stop-and-copy (convergence), or when rounds stop making progress /
//!    the round budget is exhausted (non-convergence — a "prolonged or
//!    failed" migration in the paper's terms).
//!
//! Host load degrades migration: past the reliability thresholds the
//! hypervisor cannot sustain the copy bandwidth (CPU contention) and the
//! guest dirties pages faster (memory pressure → paging). This reproduces
//! the paper's ESXi measurements that motivate the 20% reservation rule.

/// Load on the source host at migration time, as utilisation fractions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostLoad {
    /// CPU utilisation in `0..=1` (may exceed 1 under contention).
    pub cpu_util: f64,
    /// Committed-memory utilisation in `0..=1`.
    pub mem_util: f64,
}

impl HostLoad {
    /// Creates a host-load descriptor.
    #[must_use]
    pub fn new(cpu_util: f64, mem_util: f64) -> Self {
        Self { cpu_util, mem_util }
    }

    /// An idle host.
    #[must_use]
    pub fn idle() -> Self {
        Self {
            cpu_util: 0.0,
            mem_util: 0.0,
        }
    }
}

/// Migration-relevant profile of a VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmMigrationProfile {
    /// Allocated memory to transfer in the first round, in MB.
    pub mem_mb: f64,
    /// Rate at which the workload dirties pages, in Mbit/s.
    pub dirty_rate_mbps: f64,
    /// Writable working set in MB — the dirty set saturates here (pages
    /// dirtied more than once per round are only copied once).
    pub writable_working_set_mb: f64,
}

impl VmMigrationProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if `mem_mb` is not positive or either rate/working set is
    /// negative.
    #[must_use]
    pub fn new(mem_mb: f64, dirty_rate_mbps: f64, writable_working_set_mb: f64) -> Self {
        assert!(mem_mb > 0.0, "a VM has positive memory");
        assert!(dirty_rate_mbps >= 0.0 && writable_working_set_mb >= 0.0);
        Self {
            mem_mb,
            dirty_rate_mbps,
            writable_working_set_mb,
        }
    }

    /// A profile derived from demand: the working set and dirty rate scale
    /// with how busy the VM is. `cpu_frac` is the VM's CPU utilisation of
    /// its own size.
    #[must_use]
    pub fn from_demand(mem_mb: f64, cpu_frac: f64) -> Self {
        let activity = cpu_frac.clamp(0.0, 1.0);
        Self {
            mem_mb: mem_mb.max(1.0),
            // A busy enterprise VM dirties tens to a few hundred Mbit/s.
            dirty_rate_mbps: 20.0 + 400.0 * activity,
            writable_working_set_mb: (mem_mb * (0.02 + 0.10 * activity)).max(8.0),
        }
    }
}

/// Configuration of the pre-copy engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecopyConfig {
    /// Link bandwidth available to migration, in Mbit/s.
    pub link_mbps: f64,
    /// Maximum number of pre-copy rounds before forcing stop-and-copy.
    pub max_rounds: u32,
    /// Dirty-set size (MB) below which stop-and-copy is triggered.
    pub stop_copy_mb: f64,
    /// A round must shrink the dirty set below this fraction of the
    /// previous round's copy, otherwise pre-copy is declared stuck.
    pub min_progress_ratio: f64,
    /// Downtime budget in ms; a forced stop-and-copy that exceeds it marks
    /// the migration as not converged (an SLA violation in production).
    pub downtime_budget_ms: f64,
}

impl PrecopyConfig {
    /// Gigabit-Ethernet defaults matching 2012-era data centers (and the
    /// paper's 2-hour consolidation interval rationale).
    #[must_use]
    pub fn gigabit() -> Self {
        Self {
            link_mbps: 1_000.0,
            max_rounds: 30,
            stop_copy_mb: 32.0,
            min_progress_ratio: 0.95,
            downtime_budget_ms: 1_000.0,
        }
    }

    /// 10-GbE fabric — the "improvements in network bandwidth" the paper's
    /// discussion section expects to enable shorter consolidation
    /// intervals.
    #[must_use]
    pub fn ten_gigabit() -> Self {
        Self {
            link_mbps: 10_000.0,
            ..Self::gigabit()
        }
    }

    /// Effective copy bandwidth in MB/s under a given host load.
    ///
    /// Below the 80% CPU threshold the link is the bottleneck; above it,
    /// the migration threads starve and throughput collapses (Verma et
    /// al. \[29\] observed exactly this cliff).
    #[must_use]
    pub fn effective_copy_mbs(&self, load: HostLoad) -> f64 {
        let base = self.link_mbps / 8.0;
        let cpu_factor = if load.cpu_util <= 0.8 {
            1.0
        } else {
            (1.0 - 2.5 * (load.cpu_util - 0.8)).max(0.10)
        };
        base * cpu_factor
    }

    /// Effective page-dirty rate in MB/s under a given host load.
    ///
    /// Memory pressure past 85% committed memory triggers paging, which
    /// dirties pages on top of the workload's own writes.
    #[must_use]
    pub fn effective_dirty_mbs(&self, vm: &VmMigrationProfile, load: HostLoad) -> f64 {
        let base = vm.dirty_rate_mbps / 8.0;
        let mem_factor = if load.mem_util <= 0.85 {
            1.0
        } else {
            1.0 + 8.0 * (load.mem_util - 0.85)
        };
        base * mem_factor
    }

    /// Runs the pre-copy simulation.
    #[must_use]
    pub fn simulate(&self, vm: &VmMigrationProfile, load: HostLoad) -> MigrationOutcome {
        let copy_mbs = self.effective_copy_mbs(load).max(1e-6);
        let dirty_mbs = self.effective_dirty_mbs(vm, load);

        let mut to_copy = vm.mem_mb;
        let mut precopy_secs = 0.0;
        let mut copied_mb = 0.0;
        let mut rounds = 0;
        let (converged, final_dirty_mb) = loop {
            rounds += 1;
            let round_secs = to_copy / copy_mbs;
            precopy_secs += round_secs;
            copied_mb += to_copy;
            let dirtied = (dirty_mbs * round_secs).min(vm.writable_working_set_mb);
            if dirtied <= self.stop_copy_mb {
                break (true, dirtied);
            }
            if rounds >= self.max_rounds || dirtied >= to_copy * self.min_progress_ratio {
                // Stuck: forced stop-and-copy with whatever is dirty.
                break (false, dirtied);
            }
            to_copy = dirtied;
        };
        let downtime_ms = final_dirty_mb / copy_mbs * 1000.0;
        copied_mb += final_dirty_mb;
        MigrationOutcome {
            converged: converged && downtime_ms <= self.downtime_budget_ms,
            rounds,
            precopy_secs,
            downtime_ms,
            total_secs: precopy_secs + downtime_ms / 1000.0,
            copied_mb,
            effective_copy_mbs: copy_mbs,
        }
    }
}

impl Default for PrecopyConfig {
    fn default() -> Self {
        Self::gigabit()
    }
}

/// Result of a simulated live migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationOutcome {
    /// Whether pre-copy converged within the downtime budget. A `false`
    /// here is the "prolonged or failed live migration, which is
    /// unacceptable in production data centers" of §1.2.
    pub converged: bool,
    /// Number of pre-copy rounds executed.
    pub rounds: u32,
    /// Duration of the pre-copy phase in seconds.
    pub precopy_secs: f64,
    /// Stop-and-copy downtime in milliseconds.
    pub downtime_ms: f64,
    /// Total migration time in seconds.
    pub total_secs: f64,
    /// Total bytes copied, in MB (≥ the VM's memory).
    pub copied_mb: f64,
    /// Effective copy bandwidth used, MB/s.
    pub effective_copy_mbs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn webserver() -> VmMigrationProfile {
        // SpecWeb-like: 2 GB, busy. Clark et al. report ~60 s migration
        // and ~200 ms downtime for such a VM on GbE.
        VmMigrationProfile::new(2048.0, 300.0, 256.0)
    }

    #[test]
    fn idle_host_converges_like_clark_et_al() {
        let out = PrecopyConfig::gigabit().simulate(&webserver(), HostLoad::idle());
        assert!(out.converged);
        assert!(
            out.total_secs > 10.0 && out.total_secs < 120.0,
            "total {}",
            out.total_secs
        );
        assert!(out.downtime_ms < 500.0, "downtime {}", out.downtime_ms);
        assert!(out.copied_mb >= 2048.0);
        assert!(out.rounds >= 2);
    }

    #[test]
    fn ten_gig_is_faster() {
        let slow = PrecopyConfig::gigabit().simulate(&webserver(), HostLoad::idle());
        let fast = PrecopyConfig::ten_gigabit().simulate(&webserver(), HostLoad::idle());
        assert!(fast.total_secs < slow.total_secs / 5.0);
        assert!(fast.downtime_ms <= slow.downtime_ms);
    }

    #[test]
    fn high_cpu_load_degrades_bandwidth() {
        let cfg = PrecopyConfig::gigabit();
        assert_eq!(cfg.effective_copy_mbs(HostLoad::new(0.5, 0.5)), 125.0);
        assert!(cfg.effective_copy_mbs(HostLoad::new(0.9, 0.5)) < 100.0);
        assert!(cfg.effective_copy_mbs(HostLoad::new(1.0, 0.5)) >= 12.5);
    }

    #[test]
    fn memory_pressure_inflates_dirty_rate() {
        let cfg = PrecopyConfig::gigabit();
        let vm = webserver();
        let calm = cfg.effective_dirty_mbs(&vm, HostLoad::new(0.5, 0.5));
        let pressured = cfg.effective_dirty_mbs(&vm, HostLoad::new(0.5, 0.95));
        assert!(pressured > calm * 1.5);
    }

    #[test]
    fn overloaded_host_fails_to_converge() {
        // Past both thresholds: copy bandwidth collapses while the dirty
        // rate grows — pre-copy cannot keep up.
        let vm = VmMigrationProfile::new(16_384.0, 800.0, 4_096.0);
        let out = PrecopyConfig::gigabit().simulate(&vm, HostLoad::new(0.98, 0.97));
        assert!(!out.converged);
    }

    #[test]
    fn zero_dirty_rate_converges_in_one_round() {
        let vm = VmMigrationProfile::new(1024.0, 0.0, 0.0);
        let out = PrecopyConfig::gigabit().simulate(&vm, HostLoad::idle());
        assert!(out.converged);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.downtime_ms, 0.0);
    }

    #[test]
    fn duration_monotone_in_memory_size() {
        let cfg = PrecopyConfig::gigabit();
        let small = cfg.simulate(
            &VmMigrationProfile::new(1024.0, 100.0, 128.0),
            HostLoad::idle(),
        );
        let large = cfg.simulate(
            &VmMigrationProfile::new(8192.0, 100.0, 128.0),
            HostLoad::idle(),
        );
        assert!(large.total_secs > small.total_secs);
    }

    #[test]
    fn round_budget_is_respected() {
        let cfg = PrecopyConfig {
            max_rounds: 3,
            ..PrecopyConfig::gigabit()
        };
        // Dirty rate exactly balances bandwidth: rounds never shrink much.
        let vm = VmMigrationProfile::new(4096.0, 950.0, 4096.0);
        let out = cfg.simulate(&vm, HostLoad::idle());
        assert!(out.rounds <= 3);
    }

    #[test]
    fn from_demand_scales_with_activity() {
        let idle = VmMigrationProfile::from_demand(4096.0, 0.0);
        let busy = VmMigrationProfile::from_demand(4096.0, 1.0);
        assert!(busy.dirty_rate_mbps > idle.dirty_rate_mbps);
        assert!(busy.writable_working_set_mb > idle.writable_working_set_mb);
        assert_eq!(idle.mem_mb, 4096.0);
    }

    #[test]
    #[should_panic(expected = "positive memory")]
    fn zero_memory_rejected() {
        let _ = VmMigrationProfile::new(0.0, 1.0, 1.0);
    }
}
