//! Cost-aware dynamic consolidation.
//!
//! §5.1: "We use a state-of-the-art dynamic consolidation scheme that
//! compares various adaptation actions possible and selects the one with
//! least cost. The actual sizing function used in this case is the
//! estimated peak demand in the consolidation window." The scheme
//! "captures the salient features of \[26\] (pMapper-style power-aware
//! placement) and \[15\] (cost-sensitive adaptation)" (§2.2.3).
//!
//! Each consolidation interval the planner:
//!
//! 1. **Predicts** every VM's peak demand for the window
//!    ([`crate::prediction::Predictor`]).
//! 2. **Repairs overloads**: hosts whose predicted demand exceeds the
//!    utilization bound shed their cheapest (smallest-memory) groups to
//!    the most-loaded host that still fits — keeping the footprint tight.
//! 3. **Consolidates**: starting from the least-loaded host, it evacuates
//!    hosts entirely whenever the power saved by switching the host off
//!    for one interval exceeds the modelled migration cost
//!    ([`vmcw_migration::MigrationCostModel`]) — the "least cost
//!    adaptation action" comparison.
//!
//! Live migrations are simulated with the pre-copy model against the
//! *source host's* load; migrations launched from hosts beyond the
//! reliability thresholds may fail to converge, which the emulator
//! reports (§4.3's risk in action).

use crate::ffd::{self, OrderKey};
use crate::input::PlanningInput;
use crate::placement::{PackError, Placement};
use crate::prediction::Predictor;
use crate::sizing::SizingFunction;
use std::collections::BTreeMap;
use vmcw_cluster::datacenter::{DataCenter, HostId};
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::VmId;
use vmcw_migration::cost::MigrationCostModel;
use vmcw_migration::precopy::{HostLoad, PrecopyConfig, VmMigrationProfile};
use vmcw_migration::reliability::ReservationPolicy;
use vmcw_trace::workload::HOURS_PER_DAY;

/// Configuration of the dynamic planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicConfig {
    /// Consolidation-interval length in hours (Table 3: 2).
    pub window_hours: usize,
    /// Resources reserved for live migration (Table 3: 20% CPU + memory).
    pub reservation: ReservationPolicy,
    /// Predictor for the window's peak CPU demand.
    pub cpu_predictor: Predictor,
    /// Predictor for the window's peak memory demand. Committed memory is
    /// far less bursty than CPU (Observation 2), so the default carries a
    /// smaller safety margin.
    pub mem_predictor: Predictor,
    /// FFD ordering for the initial placement and eviction destinations.
    pub order: OrderKey,
    /// Only hosts whose dominant-share load is below this fraction of the
    /// effective capacity are considered for evacuation — hysteresis that
    /// keeps the planner from churning VMs between comparably loaded
    /// hosts every interval.
    pub underload_threshold: f64,
    /// Fraction of the interval each host's migration link may be busy
    /// with *consolidation* transfers (overload repair is always allowed).
    /// Keeps the per-interval migration schedule feasible — the §7
    /// practicality constraint ("the time taken by live migration today").
    pub migration_time_budget_frac: f64,
    /// Migration cost model for the least-cost action comparison.
    pub cost_model: MigrationCostModel,
    /// Pre-copy model used to simulate each migration.
    pub precopy: PrecopyConfig,
}

impl DynamicConfig {
    /// The paper's baseline: 2-hour windows, 20% reservation, the
    /// recent+periodic predictor, calibrated migration costs on GbE.
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            window_hours: 2,
            reservation: ReservationPolicy::thumb_rule(),
            cpu_predictor: Predictor::baseline(),
            mem_predictor: Predictor::RecentAndPeriodic { safety: 1.05 },
            order: OrderKey::Dominant,
            underload_threshold: 0.5,
            migration_time_budget_frac: 0.5,
            cost_model: MigrationCostModel::default_calibration(),
            precopy: PrecopyConfig::gigabit(),
        }
    }

    /// Number of consolidation windows per day.
    ///
    /// # Panics
    ///
    /// Panics unless `window_hours` divides 24.
    #[must_use]
    pub fn windows_per_day(&self) -> usize {
        assert!(
            self.window_hours > 0 && HOURS_PER_DAY.is_multiple_of(self.window_hours),
            "window must divide a day, got {}h",
            self.window_hours
        );
        HOURS_PER_DAY / self.window_hours
    }
}

impl Default for DynamicConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// One live migration decided by the dynamic planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationEvent {
    /// Consolidation interval in which the migration runs.
    pub interval: usize,
    /// The migrated VM.
    pub vm: VmId,
    /// Source host.
    pub from: HostId,
    /// Destination host.
    pub to: HostId,
    /// Memory moved, in MB.
    pub mem_mb: f64,
    /// Simulated duration of the migration, seconds.
    pub duration_secs: f64,
    /// Whether the pre-copy converged within the downtime budget.
    pub converged: bool,
    /// Scalar cost charged by the cost model, watt-hour equivalents.
    pub cost_wh: f64,
}

/// Output of the dynamic planner.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicOutcome {
    /// One placement per consolidation interval.
    pub placements: Vec<Placement>,
    /// All migrations, in execution order.
    pub migrations: Vec<MigrationEvent>,
    /// Window length in hours.
    pub window_hours: usize,
}

impl DynamicOutcome {
    /// Active (powered-on) host count per interval.
    #[must_use]
    pub fn active_host_counts(&self) -> Vec<usize> {
        self.placements
            .iter()
            .map(Placement::active_host_count)
            .collect()
    }

    /// Migrations that failed to converge.
    #[must_use]
    pub fn failed_migrations(&self) -> Vec<&MigrationEvent> {
        self.migrations.iter().filter(|m| !m.converged).collect()
    }

    /// Total number of migrations.
    #[must_use]
    pub fn migration_count(&self) -> usize {
        self.migrations.len()
    }
}

/// Internal: a colocation group with per-window predicted demands.
struct Group {
    vms: Vec<VmId>,
    /// Predicted demand per window (filled lazily window by window).
    predicted: Vec<Resources>,
    /// Configured memory of the group (copied on migration).
    mem_mb: f64,
    /// Peak network demand of the group, Mbit/s (link admission).
    net_mbps: f64,
    /// Whether the group is pinned (never migrated).
    pinned: bool,
    /// Peak historical CPU demand (activity normalisation for the
    /// migration dirty-rate model).
    hist_peak_cpu: f64,
}

/// Runs the dynamic planner over the evaluation window of `input`,
/// provisioning hosts in `dc` as needed.
///
/// # Errors
///
/// Propagates [`PackError`] from the initial placement or when a group can
/// no longer fit anywhere (e.g. its predicted demand exceeds an empty
/// host under the reservation bounds).
pub fn plan_dynamic(
    input: &PlanningInput,
    dc: &mut DataCenter,
    config: &DynamicConfig,
) -> Result<DynamicOutcome, PackError> {
    let w = config.window_hours;
    let eval = input.eval_range();
    let eval_hours = eval.len();
    let n_windows = eval_hours.div_ceil(w.max(1));
    let windows_per_day = config.windows_per_day();
    let capacity = dc.template().capacity();
    let bounds = (
        config.reservation.cpu_bound(),
        config.reservation.mem_bound(),
    );
    let effective = Resources::new(capacity.cpu_rpe2 * bounds.0, capacity.mem_mb * bounds.1);
    // The migration reservation also covers the host link: workload
    // traffic may only use the bounded share of it.
    let effective_net = dc.template().net_mbps * bounds.0;

    // Per-VM window-demand series (history + eval) sized with max.
    struct VmWindows {
        hist_cpu: Vec<f64>,
        hist_mem: Vec<f64>,
        eval_cpu: Vec<f64>,
        eval_mem: Vec<f64>,
        hist_peak_cpu: f64,
    }
    let mut windows: BTreeMap<VmId, VmWindows> = BTreeMap::new();
    for t in &input.vms {
        let hist_range = input.history_range();
        let fold = |values: &[f64]| -> Vec<f64> {
            values
                .chunks(w)
                .map(|c| SizingFunction::Max.size(c))
                .collect()
        };
        let hist_cpu = fold(&t.cpu_rpe2.values()[hist_range.clone()]);
        let hist_mem = fold(&t.mem_mb.values()[hist_range.clone()]);
        let eval_cpu = fold(&t.cpu_rpe2.values()[eval.clone()]);
        let eval_mem = fold(&t.mem_mb.values()[eval.clone()]);
        let hist_peak_cpu = hist_cpu.iter().copied().fold(0.0, f64::max);
        windows.insert(
            t.vm.id,
            VmWindows {
                hist_cpu,
                hist_mem,
                eval_cpu,
                eval_mem,
                hist_peak_cpu,
            },
        );
    }

    // Build colocation groups with a dummy demand map (validation only).
    let unit: BTreeMap<VmId, Resources> = input
        .vm_ids()
        .into_iter()
        .map(|v| (v, Resources::ZERO))
        .collect();
    let group_items = ffd::build_items(&unit, &input.constraints)?;
    let mut groups: Vec<Group> = group_items
        .into_iter()
        .map(|it| {
            let mem_mb = it
                .vms
                .iter()
                .map(|v| input.vm_trace(*v).map_or(0.0, |t| t.vm.configured_mem_mb))
                .sum();
            let pinned = it
                .vms
                .iter()
                .any(|&v| input.constraints.pinned_host(v).is_some());
            let hist_peak_cpu = it.vms.iter().map(|v| windows[v].hist_peak_cpu).sum();
            let net_mbps = it
                .vms
                .iter()
                .map(|v| input.vm_trace(*v).map_or(0.0, |t| t.net_peak_mbps))
                .sum();
            Group {
                vms: it.vms,
                predicted: Vec::new(),
                mem_mb,
                net_mbps,
                pinned,
                hist_peak_cpu,
            }
        })
        .collect();

    // Predict all windows for all groups up front (prediction only reads
    // actuals before the predicted index, so this is causal).
    for g in &mut groups {
        g.predicted = (0..n_windows)
            .map(|i| {
                g.vms
                    .iter()
                    .map(|v| {
                        let vw = &windows[v];
                        let cpu = config.cpu_predictor.predict(
                            &vw.hist_cpu,
                            &vw.eval_cpu,
                            i,
                            windows_per_day,
                        );
                        let mem = config.mem_predictor.predict(
                            &vw.hist_mem,
                            &vw.eval_mem,
                            i,
                            windows_per_day,
                        );
                        Resources::new(cpu, mem)
                    })
                    .sum()
            })
            .collect();
    }

    // Initial placement: FFD on window-0 predictions.
    let demands0: BTreeMap<VmId, Resources> = groups
        .iter()
        .flat_map(|g| {
            let share = g.predicted[0] * (1.0 / g.vms.len() as f64);
            g.vms.iter().map(move |&v| (v, share))
        })
        .collect();
    let net_demands: BTreeMap<VmId, f64> = input.net_demands();
    let initial = ffd::first_fit_decreasing_with_network(
        &demands0,
        &net_demands,
        dc,
        &input.constraints,
        bounds,
        config.order,
    )?;

    // Group → host assignment mirrors the per-VM placement.
    let mut assignment: Vec<HostId> = groups
        .iter()
        .map(|g| {
            initial
                .host_of(g.vms[0])
                .expect("initial placement covers all VMs")
        })
        .collect();

    let mut placements = Vec::with_capacity(n_windows);
    let mut migrations = Vec::new();
    placements.push(placement_of(&groups, &assignment));

    let idle_w = dc.template().power.idle_w();
    let interval_saving_wh = idle_w * w as f64;

    for win in 1..n_windows {
        let demand_of = |gi: usize| groups[gi].predicted[win];
        // Current load per host.
        let mut loads: BTreeMap<HostId, Resources> = BTreeMap::new();
        for (gi, &h) in assignment.iter().enumerate() {
            *loads.entry(h).or_insert(Resources::ZERO) += demand_of(gi);
        }
        // Loads under the *previous* window's demand: consolidation
        // actions run at the interval boundary, so a migration executes
        // while its source still carries the old load — this is what the
        // pre-copy simulation must see.
        let mut exec_loads: BTreeMap<HostId, Resources> = BTreeMap::new();
        for (gi, &h) in assignment.iter().enumerate() {
            *exec_loads.entry(h).or_insert(Resources::ZERO) += groups[gi].predicted[win - 1];
        }
        let mut residents: BTreeMap<HostId, Vec<usize>> = BTreeMap::new();
        for (gi, &h) in assignment.iter().enumerate() {
            residents.entry(h).or_default().push(gi);
        }
        let mut net_loads: BTreeMap<HostId, f64> = BTreeMap::new();
        for (gi, &h) in assignment.iter().enumerate() {
            *net_loads.entry(h).or_insert(0.0) += groups[gi].net_mbps;
        }

        // Per-host migration-link busy time committed this interval; the
        // planner keeps every link under `migration_time_budget_frac` of
        // the window so the migration schedule stays feasible (§7).
        let mut link_busy: BTreeMap<HostId, f64> = BTreeMap::new();
        let budget_secs = w as f64 * 3600.0 * config.migration_time_budget_frac;

        // --- Phase 1: repair predicted overloads -----------------------
        let overloaded: Vec<HostId> = loads
            .iter()
            .filter(|(_, &l)| !l.fits_within(&effective))
            .map(|(&h, _)| h)
            .collect();
        for host in overloaded {
            loop {
                let load = loads.get(&host).copied().unwrap_or(Resources::ZERO);
                if load.fits_within(&effective) {
                    break;
                }
                // Cheapest movable group on this host.
                let Some(&gi) = residents.get(&host).and_then(|list| {
                    list.iter()
                        .filter(|&&gi| !groups[gi].pinned)
                        .min_by(|&&a, &&b| {
                            groups[a]
                                .mem_mb
                                .total_cmp(&groups[b].mem_mb)
                                .then_with(|| a.cmp(&b))
                        })
                }) else {
                    break; // only pinned groups left: contention stands
                };
                let dest = find_destination(
                    gi,
                    host,
                    &groups,
                    &loads,
                    &residents,
                    dc,
                    input,
                    &effective,
                    demand_of(gi),
                    &link_busy,
                    budget_secs,
                    &net_loads,
                    effective_net,
                )?;
                record_move(
                    win,
                    gi,
                    host,
                    dest,
                    &mut assignment,
                    &mut loads,
                    &mut residents,
                    &groups,
                    demand_of(gi),
                    capacity,
                    config,
                    &mut migrations,
                    &mut link_busy,
                    &exec_loads,
                    &mut net_loads,
                );
            }
        }

        // --- Phase 2: least-cost consolidation -------------------------
        // Ascending load: cheap-to-evacuate hosts first.
        let mut by_load: Vec<(HostId, Resources)> = loads
            .iter()
            .filter(|(_, &l)| l.cpu_rpe2 > 0.0 || l.mem_mb > 0.0)
            .map(|(&h, &l)| (h, l))
            .collect();
        by_load.sort_by(|a, b| {
            a.1.dominant_share(&effective)
                .total_cmp(&b.1.dominant_share(&effective))
                .then_with(|| a.0.cmp(&b.0))
        });
        for (host, load) in by_load {
            if load.dominant_share(&effective) > config.underload_threshold {
                // This host (and every later one in ascending-load order)
                // is too full to be worth evacuating.
                break;
            }
            let Some(members) = residents.get(&host).cloned() else {
                continue;
            };
            if members.is_empty() || members.iter().any(|&gi| groups[gi].pinned) {
                continue;
            }
            // Tentative: can every group move to another *active* host?
            let mut tentative_loads = loads.clone();
            tentative_loads.remove(&host);
            let mut tentative_net = net_loads.clone();
            tentative_net.remove(&host);
            let mut moves: Vec<(usize, HostId)> = Vec::new();
            let mut ok = true;
            let mut members_sorted = members.clone();
            members_sorted.sort_by(|&a, &b| {
                demand_of(b)
                    .dominant_share(&effective)
                    .total_cmp(&demand_of(a).dominant_share(&effective))
                    .then_with(|| a.cmp(&b))
            });
            for &gi in &members_sorted {
                let mut placed = false;
                // Most-loaded first keeps the footprint minimal.
                let mut candidates: Vec<(HostId, Resources)> = tentative_loads
                    .iter()
                    .filter(|(&h, &l)| h != host && (l.cpu_rpe2 > 0.0 || l.mem_mb > 0.0))
                    .map(|(&h, &l)| (h, l))
                    .collect();
                candidates.sort_by(|a, b| {
                    b.1.dominant_share(&effective)
                        .total_cmp(&a.1.dominant_share(&effective))
                        .then_with(|| a.0.cmp(&b.0))
                });
                for (cand, cand_load) in candidates {
                    if !(cand_load + demand_of(gi)).fits_within(&effective) {
                        continue;
                    }
                    if link_busy.get(&cand).copied().unwrap_or(0.0) > budget_secs {
                        continue; // this destination's link is saturated
                    }
                    if effective_net > 0.0
                        && tentative_net.get(&cand).copied().unwrap_or(0.0) + groups[gi].net_mbps
                            > effective_net
                    {
                        continue; // §3.1 link-bandwidth admission
                    }
                    let location = dc.host(cand).expect("provisioned").location();
                    let dest_residents = residents.get(&cand).map_or_else(Vec::new, |l| {
                        l.iter()
                            .flat_map(|&g| groups[g].vms.iter().copied())
                            .collect()
                    });
                    if !input
                        .constraints
                        .allows_group(&groups[gi].vms, location, &dest_residents)
                    {
                        continue;
                    }
                    *tentative_loads.entry(cand).or_insert(Resources::ZERO) += demand_of(gi);
                    *tentative_net.entry(cand).or_insert(0.0) += groups[gi].net_mbps;
                    moves.push((gi, cand));
                    placed = true;
                    break;
                }
                if !placed {
                    ok = false;
                    break;
                }
            }
            if !ok {
                continue;
            }
            // Least-cost comparison: migration cost vs. interval power
            // saving from switching this host off.
            let src_load = exec_loads.get(&host).copied().unwrap_or(Resources::ZERO);
            let src = HostLoad::new(
                src_load.cpu_rpe2 / capacity.cpu_rpe2,
                src_load.mem_mb / capacity.mem_mb,
            );
            let mut total_cost = 0.0;
            let mut projected: BTreeMap<HostId, f64> = BTreeMap::new();
            let mut within_budget = true;
            for &(gi, dest) in &moves {
                let g = &groups[gi];
                let profile = migration_profile(g, demand_of(gi));
                let report = config.cost_model.estimate(&config.precopy, &profile, src);
                total_cost += report.cost_wh;
                for endpoint in [host, dest] {
                    let busy = projected
                        .entry(endpoint)
                        .or_insert_with(|| link_busy.get(&endpoint).copied().unwrap_or(0.0));
                    *busy += report.outcome.total_secs;
                    if *busy > budget_secs {
                        within_budget = false;
                    }
                }
            }
            if !within_budget || total_cost >= interval_saving_wh {
                continue;
            }
            for (gi, dest) in moves {
                record_move(
                    win,
                    gi,
                    host,
                    dest,
                    &mut assignment,
                    &mut loads,
                    &mut residents,
                    &groups,
                    demand_of(gi),
                    capacity,
                    config,
                    &mut migrations,
                    &mut link_busy,
                    &exec_loads,
                    &mut net_loads,
                );
            }
            let _ = projected;
        }

        placements.push(placement_of(&groups, &assignment));
    }

    Ok(DynamicOutcome {
        placements,
        migrations,
        window_hours: w,
    })
}

/// Builds the migration profile of a group for one window.
fn migration_profile(group: &Group, demand: Resources) -> VmMigrationProfile {
    let activity = if group.hist_peak_cpu > 0.0 {
        (demand.cpu_rpe2 / group.hist_peak_cpu).clamp(0.0, 1.0)
    } else {
        0.0
    };
    // Live migration copies committed memory (demand), bounded below to
    // keep tiny VMs realistic.
    VmMigrationProfile::from_demand(demand.mem_mb.max(64.0), activity)
}

/// Finds a destination for an evicted group: most-loaded active host that
/// fits, else an empty provisioned host, else a newly provisioned one.
#[allow(clippy::too_many_arguments)]
fn find_destination(
    gi: usize,
    from: HostId,
    groups: &[Group],
    loads: &BTreeMap<HostId, Resources>,
    residents: &BTreeMap<HostId, Vec<usize>>,
    dc: &mut DataCenter,
    input: &PlanningInput,
    effective: &Resources,
    demand: Resources,
    link_busy: &BTreeMap<HostId, f64>,
    budget_secs: f64,
    net_loads: &BTreeMap<HostId, f64>,
    effective_net: f64,
) -> Result<HostId, PackError> {
    fn allowed(
        host: HostId,
        dc: &DataCenter,
        residents: &BTreeMap<HostId, Vec<usize>>,
        groups: &[Group],
        gi: usize,
        input: &PlanningInput,
    ) -> bool {
        let location = dc.host(host).expect("provisioned").location();
        let dest_residents: Vec<VmId> = residents.get(&host).map_or_else(Vec::new, |l| {
            l.iter()
                .flat_map(|&g| groups[g].vms.iter().copied())
                .collect()
        });
        input
            .constraints
            .allows_group(&groups[gi].vms, location, &dest_residents)
    }
    // Active hosts, most-loaded first.
    let mut candidates: Vec<(HostId, Resources)> = loads
        .iter()
        .filter(|(&h, &l)| h != from && (l.cpu_rpe2 > 0.0 || l.mem_mb > 0.0))
        .map(|(&h, &l)| (h, l))
        .collect();
    candidates.sort_by(|a, b| {
        b.1.dominant_share(effective)
            .total_cmp(&a.1.dominant_share(effective))
            .then_with(|| a.0.cmp(&b.0))
    });
    for (host, load) in candidates {
        if link_busy.get(&host).copied().unwrap_or(0.0) > budget_secs {
            continue; // saturated migration link: spread arrivals
        }
        if effective_net > 0.0
            && net_loads.get(&host).copied().unwrap_or(0.0) + groups[gi].net_mbps > effective_net
        {
            continue; // §3.1 link-bandwidth admission
        }
        if (load + demand).fits_within(effective) && allowed(host, dc, residents, groups, gi, input)
        {
            return Ok(host);
        }
    }
    // Empty but provisioned hosts (switched off earlier).
    for idx in 0..dc.len() {
        let host = HostId(idx as u32);
        if host == from {
            continue;
        }
        let load = loads.get(&host).copied().unwrap_or(Resources::ZERO);
        if load.cpu_rpe2 == 0.0
            && load.mem_mb == 0.0
            && demand.fits_within(effective)
            && allowed(host, dc, residents, groups, gi, input)
        {
            return Ok(host);
        }
    }
    // Provision a new host.
    if !demand.fits_within(effective) {
        return Err(PackError::ItemTooLarge {
            vm: groups[gi].vms[0],
            demand,
            capacity: *effective,
        });
    }
    let mut attempts = 0;
    loop {
        let host = dc.provision();
        if allowed(host, dc, residents, groups, gi, input) {
            return Ok(host);
        }
        attempts += 1;
        if attempts > 64 {
            return Err(PackError::PinnedHostInfeasible {
                vm: groups[gi].vms[0],
                host,
            });
        }
    }
}

/// Applies a group move and records the migration events.
#[allow(clippy::too_many_arguments)]
fn record_move(
    win: usize,
    gi: usize,
    from: HostId,
    to: HostId,
    assignment: &mut [HostId],
    loads: &mut BTreeMap<HostId, Resources>,
    residents: &mut BTreeMap<HostId, Vec<usize>>,
    groups: &[Group],
    demand: Resources,
    capacity: Resources,
    config: &DynamicConfig,
    migrations: &mut Vec<MigrationEvent>,
    link_busy: &mut BTreeMap<HostId, f64>,
    exec_loads: &BTreeMap<HostId, Resources>,
    net_loads: &mut BTreeMap<HostId, f64>,
) {
    let src_load = exec_loads.get(&from).copied().unwrap_or(Resources::ZERO);
    let src = HostLoad::new(
        src_load.cpu_rpe2 / capacity.cpu_rpe2,
        src_load.mem_mb / capacity.mem_mb,
    );
    let group = &groups[gi];
    let profile = migration_profile(group, demand);
    let report = config.cost_model.estimate(&config.precopy, &profile, src);

    assignment[gi] = to;
    if let Some(l) = loads.get_mut(&from) {
        *l = l.saturating_sub(&demand);
        if l.cpu_rpe2 == 0.0 && l.mem_mb == 0.0 {
            loads.remove(&from);
        }
    }
    *loads.entry(to).or_insert(Resources::ZERO) += demand;
    if let Some(list) = residents.get_mut(&from) {
        list.retain(|&g| g != gi);
        if list.is_empty() {
            residents.remove(&from);
        }
    }
    residents.entry(to).or_default().push(gi);

    *link_busy.entry(from).or_insert(0.0) += report.outcome.total_secs;
    *link_busy.entry(to).or_insert(0.0) += report.outcome.total_secs;
    if let Some(n) = net_loads.get_mut(&from) {
        *n = (*n - group.net_mbps).max(0.0);
    }
    *net_loads.entry(to).or_insert(0.0) += group.net_mbps;

    let per_vm_mem = demand.mem_mb / group.vms.len() as f64;
    for &vm in &group.vms {
        migrations.push(MigrationEvent {
            interval: win,
            vm,
            from,
            to,
            mem_mb: per_vm_mem,
            duration_secs: report.outcome.total_secs,
            converged: report.outcome.converged,
            cost_wh: report.cost_wh / group.vms.len() as f64,
        });
    }
}

/// Materialises the per-VM placement from the group assignment.
fn placement_of(groups: &[Group], assignment: &[HostId]) -> Placement {
    groups
        .iter()
        .zip(assignment)
        .flat_map(|(g, &h)| g.vms.iter().map(move |&v| (v, h)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{PlanningInput, VirtualizationModel};
    use vmcw_trace::datacenters::{DataCenterId, GeneratorConfig};

    fn small_input(dc: DataCenterId) -> PlanningInput {
        let w = GeneratorConfig::new(dc).scale(0.03).days(10).generate(3);
        PlanningInput::from_workload(&w, 7, VirtualizationModel::baseline())
    }

    fn run(input: &PlanningInput, config: &DynamicConfig) -> (DynamicOutcome, DataCenter) {
        let mut dc = DataCenter::hs23_default();
        let out = plan_dynamic(input, &mut dc, config).expect("plan");
        (out, dc)
    }

    #[test]
    fn produces_one_placement_per_window() {
        let input = small_input(DataCenterId::Banking);
        let (out, _) = run(&input, &DynamicConfig::baseline());
        // 3 eval days × 12 two-hour windows.
        assert_eq!(out.placements.len(), 36);
        assert_eq!(out.window_hours, 2);
    }

    #[test]
    fn every_vm_is_always_placed() {
        let input = small_input(DataCenterId::Banking);
        let (out, _) = run(&input, &DynamicConfig::baseline());
        for p in &out.placements {
            assert_eq!(p.len(), input.vms.len());
        }
    }

    #[test]
    fn placements_respect_predicted_bounds_under_oracle() {
        // With the oracle predictor, predicted = actual, so every host's
        // actual window-peak demand must fit the effective capacity.
        let input = small_input(DataCenterId::Airlines);
        let config = DynamicConfig {
            cpu_predictor: Predictor::Oracle,
            mem_predictor: Predictor::Oracle,
            ..DynamicConfig::baseline()
        };
        let (out, dc) = run(&input, &config);
        let capacity = dc.template().capacity();
        let effective = Resources::new(capacity.cpu_rpe2 * 0.8, capacity.mem_mb * 0.8);
        let eval = input.eval_range();
        for (win, p) in out.placements.iter().enumerate() {
            let lo = eval.start + win * 2;
            let hi = (lo + 2).min(eval.end);
            for host in p.active_hosts() {
                let demand = p.demand_on(host, |vm| {
                    let t = input.vm_trace(vm).unwrap();
                    t.size_over(lo..hi, SizingFunction::Max)
                });
                assert!(
                    demand.fits_within(&(effective * 1.0001)),
                    "window {win} host {host}: {demand} exceeds {effective}"
                );
            }
        }
    }

    #[test]
    fn migrations_are_recorded_with_costs() {
        let input = small_input(DataCenterId::Banking);
        let (out, _) = run(&input, &DynamicConfig::baseline());
        // A bursty workload over 36 windows must trigger some migrations.
        assert!(out.migration_count() > 0, "expected migrations");
        for m in &out.migrations {
            assert!(m.interval >= 1);
            assert_ne!(m.from, m.to);
            assert!(m.cost_wh >= 0.0);
            assert!(m.duration_secs > 0.0);
        }
    }

    #[test]
    fn consolidation_switches_hosts_off_at_night() {
        let input = small_input(DataCenterId::Banking);
        let (out, dc) = run(&input, &DynamicConfig::baseline());
        let counts = out.active_host_counts();
        let min = counts.iter().min().copied().unwrap();
        let max = counts.iter().max().copied().unwrap();
        assert!(min < max, "active hosts should vary: min {min}, max {max}");
        assert!(dc.len() >= max);
    }

    #[test]
    fn zero_reservation_uses_fewer_hosts() {
        let input = small_input(DataCenterId::Airlines);
        let reserved = DynamicConfig::baseline();
        let unreserved = DynamicConfig {
            reservation: ReservationPolicy::none(),
            ..DynamicConfig::baseline()
        };
        let mut dc_a = DataCenter::hs23_default();
        let mut dc_b = DataCenter::hs23_default();
        plan_dynamic(&input, &mut dc_a, &reserved).unwrap();
        plan_dynamic(&input, &mut dc_b, &unreserved).unwrap();
        assert!(
            dc_b.len() <= dc_a.len(),
            "no reservation should never need more hosts ({} vs {})",
            dc_b.len(),
            dc_a.len()
        );
    }

    #[test]
    fn free_migrations_consolidate_at_least_as_hard() {
        let input = small_input(DataCenterId::Beverage);
        let costly = DynamicConfig::baseline();
        let free = DynamicConfig {
            cost_model: MigrationCostModel::free(),
            ..DynamicConfig::baseline()
        };
        let (out_costly, _) = run(&input, &costly);
        let (out_free, _) = run(&input, &free);
        let avg = |o: &DynamicOutcome| {
            let c = o.active_host_counts();
            c.iter().sum::<usize>() as f64 / c.len() as f64
        };
        assert!(avg(&out_free) <= avg(&out_costly) + 0.5);
        assert!(out_free.migration_count() >= out_costly.migration_count());
    }

    #[test]
    fn four_hour_windows_are_supported() {
        let input = small_input(DataCenterId::Airlines);
        let config = DynamicConfig {
            window_hours: 4,
            ..DynamicConfig::baseline()
        };
        let (out, _) = run(&input, &config);
        assert_eq!(out.placements.len(), 18); // 72 h / 4 h
    }

    #[test]
    fn link_budget_bounds_consolidation_transfer_time() {
        // With the budget on, no host's recorded migration time within
        // one interval exceeds the budget by more than one repair move.
        let input = small_input(DataCenterId::Banking);
        let config = DynamicConfig::baseline();
        let (out, _) = run(&input, &config);
        let budget = config.window_hours as f64 * 3600.0 * config.migration_time_budget_frac;
        let mut busy: BTreeMap<(usize, HostId), f64> = BTreeMap::new();
        for m in &out.migrations {
            *busy.entry((m.interval, m.from)).or_insert(0.0) += m.duration_secs;
            *busy.entry((m.interval, m.to)).or_insert(0.0) += m.duration_secs;
        }
        let worst = busy.values().copied().fold(0.0, f64::max);
        // Allow one transfer of slack: the budget is checked before
        // committing each move.
        assert!(
            worst <= budget + 600.0,
            "worst per-interval link busy {worst}s exceeds budget {budget}s"
        );
    }

    #[test]
    fn tighter_migration_budget_reduces_churn() {
        let input = small_input(DataCenterId::Banking);
        let loose = DynamicConfig {
            migration_time_budget_frac: 0.5,
            ..DynamicConfig::baseline()
        };
        let tight = DynamicConfig {
            migration_time_budget_frac: 0.05,
            ..DynamicConfig::baseline()
        };
        let (out_loose, _) = run(&input, &loose);
        let (out_tight, _) = run(&input, &tight);
        assert!(
            out_tight.migration_count() <= out_loose.migration_count(),
            "tight {} vs loose {}",
            out_tight.migration_count(),
            out_loose.migration_count()
        );
    }

    #[test]
    fn network_admission_holds_every_interval() {
        // Every interval's per-host summed peak network demand stays
        // within the bounded link.
        let input = small_input(DataCenterId::Banking);
        let config = DynamicConfig::baseline();
        let mut dc = DataCenter::hs23_default();
        let out = plan_dynamic(&input, &mut dc, &config).expect("plan");
        let effective_net = dc.template().net_mbps * config.reservation.cpu_bound();
        for (win, p) in out.placements.iter().enumerate() {
            for host in p.active_hosts() {
                let net: f64 = p
                    .vms_on(host)
                    .iter()
                    .map(|&vm| input.vm_trace(vm).unwrap().net_peak_mbps)
                    .sum();
                assert!(
                    net <= effective_net * 1.0001,
                    "window {win} host {host}: net {net} Mbit/s over {effective_net}"
                );
            }
        }
    }

    #[test]
    fn higher_underload_threshold_consolidates_harder() {
        let input = small_input(DataCenterId::Banking);
        let shy = DynamicConfig {
            underload_threshold: 0.1,
            ..DynamicConfig::baseline()
        };
        let eager = DynamicConfig {
            underload_threshold: 0.9,
            ..DynamicConfig::baseline()
        };
        let (out_shy, _) = run(&input, &shy);
        let (out_eager, _) = run(&input, &eager);
        let mean = |o: &DynamicOutcome| {
            let c = o.active_host_counts();
            c.iter().sum::<usize>() as f64 / c.len() as f64
        };
        assert!(
            mean(&out_eager) <= mean(&out_shy) + 0.5,
            "eager {} vs shy {}",
            mean(&out_eager),
            mean(&out_shy)
        );
    }

    #[test]
    #[should_panic(expected = "window must divide a day")]
    fn irregular_window_rejected() {
        let _ = DynamicConfig {
            window_hours: 5,
            ..DynamicConfig::baseline()
        }
        .windows_per_day();
    }
}
