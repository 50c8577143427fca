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
use std::collections::{BTreeMap, BTreeSet};
use vmcw_cluster::datacenter::{DataCenter, HostId};
use vmcw_cluster::resources::Resources;
use vmcw_cluster::vm::VmId;
use vmcw_migration::cost::{MigrationCostModel, MigrationCostReport};
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
    let bounds = (
        config.reservation.cpu_bound(),
        config.reservation.mem_bound(),
    );
    let capacity = dc.template().capacity();
    let effective = dc.template().effective_capacity(bounds);
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
    let initial = ffd::pack_demands(
        &demands0,
        &net_demands,
        dc,
        &input.constraints,
        bounds,
        config.order,
        ffd::PackingAlgorithm::FirstFitDecreasing,
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
    // Per-host migration-link busy time committed in one interval stays
    // under `migration_time_budget_frac` of the window so the migration
    // schedule stays feasible (§7).
    let budget_secs = w as f64 * 3600.0 * config.migration_time_budget_frac;

    for win in 1..n_windows {
        let ctx = Window {
            win,
            groups: &groups,
            input,
            config,
            capacity,
            effective_net,
            budget_secs,
        };
        let mut state = HostState::new(&ctx, &assignment, dc.len(), effective);

        // --- Phase 1: repair predicted overloads -----------------------
        let overloaded: Vec<HostId> = (0..state.loads.len())
            .map(|i| HostId(i as u32))
            .filter(|&h| !state.load(h).fits_within(&effective))
            .collect();
        for host in overloaded {
            while !state.load(host).fits_within(&effective) {
                // Cheapest movable group on this host.
                let Some(gi) = state
                    .residents(host)
                    .iter()
                    .copied()
                    .filter(|&gi| !groups[gi].pinned)
                    .min_by(|&a, &b| {
                        groups[a]
                            .mem_mb
                            .total_cmp(&groups[b].mem_mb)
                            .then_with(|| a.cmp(&b))
                    })
                else {
                    break; // only pinned groups left: contention stands
                };
                let dest = find_destination(&ctx, &mut state, dc, gi, host)?;
                state.record_move(&ctx, gi, host, dest, &mut assignment, &mut migrations);
            }
        }

        // --- Phase 2: least-cost consolidation -------------------------
        // Ascending load: cheap-to-evacuate hosts first.
        let mut by_load: Vec<(HostId, Resources)> = state
            .by_share
            .iter()
            .map(|&(_, h)| (h, state.load(h)))
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
            let mut members = state.residents(host).to_vec();
            if members.is_empty() || members.iter().any(|&gi| groups[gi].pinned) {
                continue;
            }
            members.sort_by(|&a, &b| {
                ctx.demand(b)
                    .dominant_share(&effective)
                    .total_cmp(&ctx.demand(a).dominant_share(&effective))
                    .then_with(|| a.cmp(&b))
            });
            // Tentative: can every group move to another *active* host?
            let Some(moves) = state.plan_evacuation(&ctx, dc, host, &members) else {
                continue;
            };
            // Least-cost comparison: migration cost vs. interval power
            // saving from switching this host off.
            let mut total_cost = 0.0;
            let mut projected: BTreeMap<HostId, f64> = BTreeMap::new();
            let mut within_budget = true;
            for &(gi, dest) in &moves {
                let report = ctx.migration(gi, state.exec_load(host));
                total_cost += report.cost_wh;
                for endpoint in [host, dest] {
                    let busy = projected
                        .entry(endpoint)
                        .or_insert_with(|| state.link_busy[endpoint.0 as usize]);
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
                state.record_move(&ctx, gi, host, dest, &mut assignment, &mut migrations);
            }
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

/// What stays fixed while one consolidation window is planned.
struct Window<'a> {
    win: usize,
    groups: &'a [Group],
    input: &'a PlanningInput,
    config: &'a DynamicConfig,
    /// Raw host capacity (migration source loads are relative to it).
    capacity: Resources,
    /// Host link bandwidth workloads may use, Mbit/s.
    effective_net: f64,
    /// Per-host migration-link budget for the window, seconds.
    budget_secs: f64,
}

impl Window<'_> {
    /// Predicted demand of group `gi` in this window.
    fn demand(&self, gi: usize) -> Resources {
        self.groups[gi].predicted[self.win]
    }

    /// Simulates migrating group `gi` off a source carrying `src_load`.
    fn migration(&self, gi: usize, src_load: Resources) -> MigrationCostReport {
        let src = HostLoad::new(
            src_load.cpu_rpe2 / self.capacity.cpu_rpe2,
            src_load.mem_mb / self.capacity.mem_mb,
        );
        let profile = migration_profile(&self.groups[gi], self.demand(gi));
        self.config
            .cost_model
            .estimate(&self.config.precopy, &profile, src)
    }
}

/// Whether a host counts as active (powered on) under `load`.
fn is_active(load: Resources) -> bool {
    load.cpu_rpe2 > 0.0 || load.mem_mb > 0.0
}

/// Index key of a dominant share: the share's [`f64::total_cmp`] order
/// as an unsigned integer, inverted so that larger shares sort first.
fn share_key(share: f64) -> u64 {
    let bits = share.to_bits();
    let ascending = if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    };
    !ascending
}

/// Slack on the share bound of [`fit_start`]. The bound's rounding
/// error is a few ulps of 1; this is seven orders of magnitude more.
const SHARE_SLACK: f64 = 1e-9;

/// The smallest index key of a host that may still take `demand`.
///
/// A host fits only if `load_i + demand_i <= effective_i` in every
/// dimension `i`, so its dominant share is at most
/// `1 - min_i(demand_i / effective_i)`. Hosts above that bound (plus
/// [`SHARE_SLACK`]) cannot fit and are never tested. Demands are
/// non-negative; `fits_within` still decides every host that is tested.
fn fit_start(demand: Resources, effective: &Resources) -> u64 {
    if effective.cpu_rpe2 <= 0.0 || effective.mem_mb <= 0.0 {
        return 0; // `dominant_share` is 0 for every host: no bound
    }
    let min_share = (demand.cpu_rpe2 / effective.cpu_rpe2).min(demand.mem_mb / effective.mem_mb);
    share_key(1.0 - min_share + SHARE_SLACK)
}

/// A host's load and network load under tentative moves.
#[derive(Debug, Clone, Copy)]
struct Tentative {
    host: HostId,
    load: Resources,
    net: f64,
}

/// The planner's per-window host state, dense by [`HostId`].
struct HostState {
    /// Bounded host capacity the shares are taken against.
    effective: Resources,
    /// Load under this window's predicted demand.
    loads: Vec<Resources>,
    /// Load under the *previous* window's demand: consolidation actions
    /// run at the interval boundary, so a migration executes while its
    /// source still carries the old load. This is what the pre-copy
    /// simulation must see.
    exec_loads: Vec<Resources>,
    /// Groups resident on each host.
    residents: Vec<Vec<usize>>,
    /// Summed peak network demand per host, Mbit/s.
    net_loads: Vec<f64>,
    /// Migration-link busy time committed this interval, seconds.
    link_busy: Vec<f64>,
    /// The active hosts as `(share_key, id)`: most loaded first, ties by
    /// ascending id.
    by_share: BTreeSet<(u64, HostId)>,
}

impl HostState {
    /// The state at the start of `ctx`'s window for `n_hosts` hosts.
    fn new(ctx: &Window, assignment: &[HostId], n_hosts: usize, effective: Resources) -> Self {
        let mut state = Self {
            effective,
            loads: Vec::new(),
            exec_loads: Vec::new(),
            residents: Vec::new(),
            net_loads: Vec::new(),
            link_busy: Vec::new(),
            by_share: BTreeSet::new(),
        };
        state.grow(n_hosts);
        for (gi, &h) in assignment.iter().enumerate() {
            let i = h.0 as usize;
            let group = &ctx.groups[gi];
            state.loads[i] += group.predicted[ctx.win];
            state.exec_loads[i] += group.predicted[ctx.win - 1];
            state.residents[i].push(gi);
            state.net_loads[i] += group.net_mbps;
        }
        state.by_share = (0..n_hosts)
            .filter(|&i| is_active(state.loads[i]))
            .map(|i| (state.key(state.loads[i]), HostId(i as u32)))
            .collect();
        state
    }

    /// Extends the state to `n_hosts` hosts; new hosts are empty.
    fn grow(&mut self, n_hosts: usize) {
        self.loads.resize(n_hosts, Resources::ZERO);
        self.exec_loads.resize(n_hosts, Resources::ZERO);
        self.residents.resize_with(n_hosts, Vec::new);
        self.net_loads.resize(n_hosts, 0.0);
        self.link_busy.resize(n_hosts, 0.0);
    }

    fn key(&self, load: Resources) -> u64 {
        share_key(load.dominant_share(&self.effective))
    }

    fn load(&self, host: HostId) -> Resources {
        self.loads[host.0 as usize]
    }

    fn exec_load(&self, host: HostId) -> Resources {
        self.exec_loads[host.0 as usize]
    }

    fn residents(&self, host: HostId) -> &[usize] {
        &self.residents[host.0 as usize]
    }

    /// Sets a host's load, keeping the share index current.
    fn set_load(&mut self, host: HostId, load: Resources) {
        let old = self.load(host);
        if is_active(old) {
            self.by_share.remove(&(self.key(old), host));
        }
        self.loads[host.0 as usize] = load;
        if is_active(load) {
            self.by_share.insert((self.key(load), host));
        }
    }

    /// Active hosts other than `skip`, most loaded first (ties by
    /// ascending id), from the first whose key is `>= start`. Hosts in
    /// `overlay` take their tentative load and order by it. Yields
    /// `(host, load, net load)`.
    fn candidates<'s>(
        &'s self,
        start: u64,
        skip: HostId,
        overlay: &'s [Tentative],
    ) -> impl Iterator<Item = (HostId, Resources, f64)> + 's {
        let mut moved: Vec<(u64, HostId)> = overlay
            .iter()
            .filter(|t| is_active(t.load))
            .map(|t| (self.key(t.load), t.host))
            .filter(|&(k, _)| k >= start)
            .collect();
        moved.sort_unstable();
        let mut moved = moved.into_iter().peekable();
        let mut committed = self
            .by_share
            .range((start, HostId(0))..)
            .copied()
            .filter(move |&(_, h)| h != skip && overlay.iter().all(|t| t.host != h))
            .peekable();
        std::iter::from_fn(move || {
            let next = match (committed.peek(), moved.peek()) {
                (Some(c), Some(m)) if m < c => moved.next(),
                (Some(_), _) => committed.next(),
                (None, _) => moved.next(),
            };
            next.map(|(_, h)| h)
        })
        .map(move |h| match overlay.iter().find(|t| t.host == h) {
            Some(t) => (h, t.load, t.net),
            None => (h, self.load(h), self.net_loads[h.0 as usize]),
        })
    }

    /// Whether the deployment constraints let group `gi` join `host`.
    fn allowed(&self, ctx: &Window, dc: &DataCenter, host: HostId, gi: usize) -> bool {
        let location = dc.host(host).expect("provisioned").location();
        let dest_residents: Vec<VmId> = self
            .residents(host)
            .iter()
            .flat_map(|&g| ctx.groups[g].vms.iter().copied())
            .collect();
        ctx.input
            .constraints
            .allows_group(&ctx.groups[gi].vms, location, &dest_residents)
    }

    /// Tentatively re-homes `members` (in order) off `host` onto other
    /// active hosts, each to the most-loaded host that takes it, which
    /// keeps the footprint minimal. Returns
    /// the moves, or `None` if some group fits nowhere. Nothing is
    /// committed: tentative loads live in an overlay on the hosts the
    /// moves touch.
    fn plan_evacuation(
        &self,
        ctx: &Window,
        dc: &DataCenter,
        host: HostId,
        members: &[usize],
    ) -> Option<Vec<(usize, HostId)>> {
        let mut overlay: Vec<Tentative> = Vec::new();
        let mut moves = Vec::with_capacity(members.len());
        for &gi in members {
            let demand = ctx.demand(gi);
            let net = ctx.groups[gi].net_mbps;
            let mut dest = None;
            for (cand, cand_load, cand_net) in
                self.candidates(fit_start(demand, &self.effective), host, &overlay)
            {
                if !(cand_load + demand).fits_within(&self.effective) {
                    continue;
                }
                if self.link_busy[cand.0 as usize] > ctx.budget_secs {
                    continue; // this destination's link is saturated
                }
                if ctx.effective_net > 0.0 && cand_net + net > ctx.effective_net {
                    continue; // §3.1 link-bandwidth admission
                }
                if !self.allowed(ctx, dc, cand, gi) {
                    continue;
                }
                dest = Some((cand, cand_load, cand_net));
                break;
            }
            let (cand, cand_load, cand_net) = dest?;
            match overlay.iter_mut().find(|t| t.host == cand) {
                Some(t) => {
                    t.load += demand;
                    t.net += net;
                }
                None => overlay.push(Tentative {
                    host: cand,
                    load: cand_load + demand,
                    net: cand_net + net,
                }),
            }
            moves.push((gi, cand));
        }
        Some(moves)
    }

    /// Applies a group move and records the migration events.
    fn record_move(
        &mut self,
        ctx: &Window,
        gi: usize,
        from: HostId,
        to: HostId,
        assignment: &mut [HostId],
        migrations: &mut Vec<MigrationEvent>,
    ) {
        let group = &ctx.groups[gi];
        let demand = ctx.demand(gi);
        let report = ctx.migration(gi, self.exec_load(from));

        assignment[gi] = to;
        let left = self.load(from).saturating_sub(&demand);
        let left = if left.cpu_rpe2 == 0.0 && left.mem_mb == 0.0 {
            Resources::ZERO
        } else {
            left
        };
        self.set_load(from, left);
        self.set_load(to, self.load(to) + demand);
        let (f, t) = (from.0 as usize, to.0 as usize);
        self.residents[f].retain(|&g| g != gi);
        self.residents[t].push(gi);

        self.link_busy[f] += report.outcome.total_secs;
        self.link_busy[t] += report.outcome.total_secs;
        self.net_loads[f] = (self.net_loads[f] - group.net_mbps).max(0.0);
        self.net_loads[t] += group.net_mbps;

        let per_vm_mem = demand.mem_mb / group.vms.len() as f64;
        for &vm in &group.vms {
            migrations.push(MigrationEvent {
                interval: ctx.win,
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
}

/// Finds a destination for an evicted group: most-loaded active host that
/// fits, else an empty provisioned host, else a newly provisioned one.
fn find_destination(
    ctx: &Window,
    state: &mut HostState,
    dc: &mut DataCenter,
    gi: usize,
    from: HostId,
) -> Result<HostId, PackError> {
    let demand = ctx.demand(gi);
    let effective = state.effective;
    let net = ctx.groups[gi].net_mbps;
    // Active hosts, most-loaded first.
    for (host, load, host_net) in state.candidates(fit_start(demand, &effective), from, &[]) {
        if state.link_busy[host.0 as usize] > ctx.budget_secs {
            continue; // saturated migration link: spread arrivals
        }
        if ctx.effective_net > 0.0 && host_net + net > ctx.effective_net {
            continue; // §3.1 link-bandwidth admission
        }
        if (load + demand).fits_within(&effective) && state.allowed(ctx, dc, host, gi) {
            return Ok(host);
        }
    }
    // Empty but provisioned hosts (switched off earlier).
    for idx in 0..dc.len() {
        let host = HostId(idx as u32);
        if host == from {
            continue;
        }
        let load = state.load(host);
        if load.cpu_rpe2 == 0.0
            && load.mem_mb == 0.0
            && demand.fits_within(&effective)
            && state.allowed(ctx, dc, host, gi)
        {
            return Ok(host);
        }
    }
    // Provision a new host.
    if !demand.fits_within(&effective) {
        return Err(PackError::ItemTooLarge {
            vm: ctx.groups[gi].vms[0],
            demand,
            capacity: effective,
        });
    }
    let mut attempts = 0;
    loop {
        let host = dc.provision();
        state.grow(dc.len());
        if state.allowed(ctx, dc, host, gi) {
            return Ok(host);
        }
        attempts += 1;
        if attempts > 64 {
            return Err(PackError::PinnedHostInfeasible {
                vm: ctx.groups[gi].vms[0],
                host,
            });
        }
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
        let effective = dc.template().effective_capacity((0.8, 0.8));
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
    fn share_key_orders_like_descending_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.25,
            0.5,
            0.5 + f64::EPSILON,
            1.0,
            7.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    share_key(a).cmp(&share_key(b)),
                    b.total_cmp(&a),
                    "{a} vs {b}"
                );
            }
        }
    }

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vmcw_cluster::constraints::{Constraint, ConstraintSet};

    /// The effective capacity the differential tests pack against.
    const EFFECTIVE: Resources = Resources {
        cpu_rpe2: 80.0,
        mem_mb: 800.0,
    };

    /// A load drawn so that ties in dominant share, zero loads, one-sided
    /// zero loads, exact fills and overloads all come up often.
    fn random_load(rng: &mut StdRng) -> Resources {
        let frac = |rng: &mut StdRng| match rng.random_range(0u8..4) {
            0 => 0.0,
            1 => f64::from(rng.random_range(1u8..6)) * 0.25,
            _ => rng.random_range(0.0..1.2),
        };
        Resources::new(frac(rng) * EFFECTIVE.cpu_rpe2, frac(rng) * EFFECTIVE.mem_mb)
    }

    /// The candidate order before the share index existed: collect every
    /// active host but `from`, then sort most loaded first.
    fn sorted_candidates(
        loads: &BTreeMap<HostId, Resources>,
        from: HostId,
        effective: &Resources,
    ) -> Vec<(HostId, Resources)> {
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
        candidates
    }

    fn empty_state(n_hosts: usize) -> HostState {
        let mut state = HostState {
            effective: EFFECTIVE,
            loads: Vec::new(),
            exec_loads: Vec::new(),
            residents: Vec::new(),
            net_loads: Vec::new(),
            link_busy: Vec::new(),
            by_share: BTreeSet::new(),
        };
        state.grow(n_hosts);
        state
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The share index walks hosts in exactly the order the old
        /// collect-and-sort produced, as hosts leave and re-enter the
        /// active set; the share-bound start only skips hosts that fail
        /// `fits_within`.
        #[test]
        fn host_index_matches_collect_and_sort(
            n_hosts in 1usize..40,
            steps in 1usize..60,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut state = empty_state(n_hosts);
            let mut loads: BTreeMap<HostId, Resources> = BTreeMap::new();
            for _ in 0..steps {
                let host = HostId(rng.random_range(0..n_hosts as u32));
                let load = random_load(&mut rng);
                state.set_load(host, load);
                loads.insert(host, load);

                let from = HostId(rng.random_range(0..n_hosts as u32 + 1));
                let old = sorted_candidates(&loads, from, &EFFECTIVE);
                let walk: Vec<(HostId, Resources)> =
                    state.candidates(0, from, &[]).map(|(h, l, _)| (h, l)).collect();
                prop_assert_eq!(&walk, &old);

                let demand = random_load(&mut rng) * 0.5;
                let bounded: Vec<(HostId, Resources)> = state
                    .candidates(fit_start(demand, &EFFECTIVE), from, &[])
                    .map(|(h, l, _)| (h, l))
                    .collect();
                let skipped = old.len() - bounded.len();
                prop_assert_eq!(&old[skipped..], &bounded[..], "bounded walk is a suffix");
                for (h, l) in &old[..skipped] {
                    prop_assert!(
                        !(*l + demand).fits_within(&EFFECTIVE),
                        "skipped host {} ({}) would take {}", h, l, demand
                    );
                }
            }
        }

        /// Phase 2's overlay picks the same destinations, in the same
        /// order, as the old version that cloned the load maps per
        /// evaluated host and re-sorted them per member.
        #[test]
        fn evacuation_overlay_matches_clone_and_sort(
            n_hosts in 2usize..24,
            n_groups in 1usize..60,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut dc = DataCenter::hs23_default();
            while dc.len() < n_hosts {
                dc.provision();
            }
            let mut constraints = ConstraintSet::new();
            for _ in 0..n_groups / 4 {
                let a = rng.random_range(0..n_groups as u32);
                let b = rng.random_range(0..n_groups as u32);
                if a != b {
                    let _ = constraints.add(Constraint::AntiColocate(VmId(a), VmId(b)));
                }
            }
            let input = PlanningInput {
                vms: Vec::new(),
                history_hours: 0,
                constraints,
            };
            let groups: Vec<Group> = (0..n_groups)
                .map(|g| Group {
                    vms: vec![VmId(g as u32)],
                    predicted: vec![random_load(&mut rng) * 0.3, random_load(&mut rng) * 0.3],
                    mem_mb: 1024.0,
                    net_mbps: rng.random_range(0.0..300.0),
                    pinned: false,
                    hist_peak_cpu: 10.0,
                })
                .collect();
            let mut assignment: Vec<HostId> = (0..n_groups)
                .map(|_| HostId(rng.random_range(0..n_hosts as u32)))
                .collect();
            let config = DynamicConfig::baseline();
            let ctx = Window {
                win: 1,
                groups: &groups,
                input: &input,
                config: &config,
                capacity: dc.template().capacity(),
                effective_net: 800.0,
                budget_secs: 3600.0,
            };
            let mut state = HostState::new(&ctx, &assignment, dc.len(), EFFECTIVE);
            // Committed moves empty some hosts and refill others.
            let mut migrations = Vec::new();
            for _ in 0..rng.random_range(0..2 * n_groups) {
                let gi = rng.random_range(0..n_groups);
                let (from, to) = (assignment[gi], HostId(rng.random_range(0..n_hosts as u32)));
                if from != to {
                    state.record_move(&ctx, gi, from, to, &mut assignment, &mut migrations);
                }
            }
            for busy in &mut state.link_busy {
                *busy = rng.random_range(0.0..4000.0);
            }
            let old_state = OldState::of(&state);
            for h in 0..n_hosts {
                let host = HostId(h as u32);
                let mut members = state.residents(host).to_vec();
                members.sort_by(|&a, &b| {
                    ctx.demand(b)
                        .dominant_share(&EFFECTIVE)
                        .total_cmp(&ctx.demand(a).dominant_share(&EFFECTIVE))
                        .then_with(|| a.cmp(&b))
                });
                let old = old_evacuation(&ctx, &dc, host, &members, &old_state);
                prop_assert_eq!(state.plan_evacuation(&ctx, &dc, host, &members), old);
            }
        }
    }

    /// The per-window host state as the maps it used to be.
    struct OldState {
        loads: BTreeMap<HostId, Resources>,
        net_loads: BTreeMap<HostId, f64>,
        link_busy: BTreeMap<HostId, f64>,
        residents: BTreeMap<HostId, Vec<usize>>,
    }

    impl OldState {
        fn of(state: &HostState) -> Self {
            fn map<T: Clone>(v: &[T]) -> BTreeMap<HostId, T> {
                v.iter()
                    .enumerate()
                    .map(|(i, x)| (HostId(i as u32), x.clone()))
                    .collect()
            }
            Self {
                loads: map(&state.loads),
                net_loads: map(&state.net_loads),
                link_busy: map(&state.link_busy),
                residents: map(&state.residents),
            }
        }
    }

    /// Phase 2's tentative evacuation before the overlay: clone the load
    /// maps per evaluated host and collect and re-sort every active host
    /// per member.
    fn old_evacuation(
        ctx: &Window,
        dc: &DataCenter,
        host: HostId,
        members_sorted: &[usize],
        old: &OldState,
    ) -> Option<Vec<(usize, HostId)>> {
        let OldState {
            loads,
            net_loads,
            link_busy,
            residents,
        } = old;
        let groups = ctx.groups;
        let effective = EFFECTIVE;
        let mut tentative_loads = loads.clone();
        tentative_loads.remove(&host);
        let mut tentative_net = net_loads.clone();
        tentative_net.remove(&host);
        let mut moves: Vec<(usize, HostId)> = Vec::new();
        for &gi in members_sorted {
            let mut placed = false;
            let candidates = sorted_candidates(&tentative_loads, host, &effective);
            for (cand, cand_load) in candidates {
                if !(cand_load + ctx.demand(gi)).fits_within(&effective) {
                    continue;
                }
                if link_busy.get(&cand).copied().unwrap_or(0.0) > ctx.budget_secs {
                    continue;
                }
                if ctx.effective_net > 0.0
                    && tentative_net.get(&cand).copied().unwrap_or(0.0) + groups[gi].net_mbps
                        > ctx.effective_net
                {
                    continue;
                }
                let location = dc.host(cand).expect("provisioned").location();
                let dest_residents: Vec<VmId> = residents.get(&cand).map_or_else(Vec::new, |l| {
                    l.iter()
                        .flat_map(|&g| groups[g].vms.iter().copied())
                        .collect()
                });
                if !ctx
                    .input
                    .constraints
                    .allows_group(&groups[gi].vms, location, &dest_residents)
                {
                    continue;
                }
                *tentative_loads.entry(cand).or_insert(Resources::ZERO) += ctx.demand(gi);
                *tentative_net.entry(cand).or_insert(0.0) += groups[gi].net_mbps;
                moves.push((gi, cand));
                placed = true;
                break;
            }
            if !placed {
                return None;
            }
        }
        Some(moves)
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
