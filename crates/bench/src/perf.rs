//! Wall-clock benchmark suites behind `vmcw bench`.
//!
//! Two suites cover the pipeline's hot paths end to end:
//!
//! * **emulator** — trace generation and plan replay (plain and
//!   fault-injected), the per-hour inner loop of every evaluation figure;
//! * **planners** — one entry per evaluated planner kind, the
//!   placement-search cost that dominates large grids.
//!
//! Each suite times its stages with [`Instant`] at every requested
//! population scale and serialises to a small stable JSON document
//! (`vmcw-bench/v1`) written as `BENCH_emulator.json` /
//! `BENCH_planners.json`, so successive runs can be diffed by scripts
//! without a JSON library on either side. Methodology:
//! docs/PERFORMANCE.md.

use std::time::Instant;

use vmcw_consolidation::input::{PlanningInput, VirtualizationModel};
use vmcw_consolidation::planner::{Planner, PlannerKind};
use vmcw_emulator::engine::{emulate, EmulatorConfig};
use vmcw_emulator::faults::FaultConfig;
use vmcw_trace::datacenters::{DataCenterId, GeneratorConfig};

/// History days fed to the planners by every suite.
pub const HISTORY_DAYS: usize = 7;
/// Evaluation days replayed by the emulator suite.
pub const EVAL_DAYS: usize = 3;

/// One timed stage at one population scale.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Stage name (`trace-gen`, `replay-plain`, a planner label, ...).
    pub stage: String,
    /// Population scale the stage ran at.
    pub scale: f64,
    /// Wall-clock duration of the stage, seconds.
    pub seconds: f64,
    /// Work items processed (VMs generated, VM-hours replayed, moves
    /// planned) — turns the timing into a throughput.
    pub items: usize,
}

/// A completed suite: its entries plus the parameters that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSuite {
    /// Suite name: `emulator` or `planners`.
    pub suite: &'static str,
    /// Generator seed shared by every stage.
    pub seed: u64,
    /// Timed stages, in execution order.
    pub entries: Vec<BenchEntry>,
}

impl BenchSuite {
    /// Serialises the suite as a `vmcw-bench/v1` JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 96 * self.entries.len());
        out.push_str("{\n");
        out.push_str("  \"schema\": \"vmcw-bench/v1\",\n");
        out.push_str(&format!("  \"suite\": \"{}\",\n", self.suite));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"history_days\": {HISTORY_DAYS},\n"));
        out.push_str(&format!("  \"eval_days\": {EVAL_DAYS},\n"));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"stage\": \"{}\", \"scale\": {}, \"seconds\": {:.6}, \"items\": {}}}{}\n",
                e.stage,
                json_f64(e.scale),
                e.seconds,
                e.items,
                if i + 1 < self.entries.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Formats an `f64` as a JSON number (never `NaN`/`inf`, always with
/// enough digits to round-trip a scale like `0.1`).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers like `1` are valid JSON numbers already.
        s
    } else {
        "0".to_string()
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// The data center every suite runs on. Banking is the largest
/// population in Table 2, so it exercises the worst-case grid cell.
pub const BENCH_DC: DataCenterId = DataCenterId::Banking;

/// Times trace generation and plan replay (plain and fault-injected) at
/// each scale.
///
/// # Panics
///
/// Panics if planning or replay fails — benchmark inputs are always
/// well-formed, so a failure is a bug worth surfacing loudly.
#[must_use]
pub fn run_emulator_suite(scales: &[f64], seed: u64) -> BenchSuite {
    let mut entries = Vec::new();
    for &scale in scales {
        let (workload, gen_secs) = timed(|| {
            GeneratorConfig::new(BENCH_DC)
                .scale(scale)
                .days(HISTORY_DAYS + EVAL_DAYS)
                .generate(seed)
        });
        entries.push(BenchEntry {
            stage: "trace-gen".into(),
            scale,
            seconds: gen_secs,
            items: workload.servers.len(),
        });

        let input =
            PlanningInput::from_workload(&workload, HISTORY_DAYS, VirtualizationModel::baseline());
        let planner = Planner::baseline();
        let plan = planner
            .plan(PlannerKind::Dynamic, &input)
            .expect("dynamic plan");
        let cfg = EmulatorConfig::default();

        let (report, replay_secs) = timed(|| emulate(&input, &plan, &cfg, None).expect("replay"));
        entries.push(BenchEntry {
            stage: "replay-plain".into(),
            scale,
            seconds: replay_secs,
            items: input.vms.len() * report.hours,
        });

        let faults = FaultConfig::baseline(seed);
        let (report, faulted_secs) =
            timed(|| emulate(&input, &plan, &cfg, Some(&faults)).expect("faulted replay"));
        entries.push(BenchEntry {
            stage: "replay-faulted".into(),
            scale,
            seconds: faulted_secs,
            items: input.vms.len() * report.hours,
        });
    }
    BenchSuite {
        suite: "emulator",
        seed,
        entries,
    }
}

/// Times each evaluated planner at each scale.
///
/// # Panics
///
/// Panics if a planner fails on the benchmark input (a bug).
#[must_use]
pub fn run_planner_suite(scales: &[f64], seed: u64) -> BenchSuite {
    let mut entries = Vec::new();
    for &scale in scales {
        let workload = GeneratorConfig::new(BENCH_DC)
            .scale(scale)
            .days(HISTORY_DAYS + EVAL_DAYS)
            .generate(seed);
        let input =
            PlanningInput::from_workload(&workload, HISTORY_DAYS, VirtualizationModel::baseline());
        let planner = Planner::baseline();
        for kind in PlannerKind::EVALUATED {
            let (plan, secs) = timed(|| planner.plan(kind, &input).expect("plan"));
            entries.push(BenchEntry {
                stage: kind.label().to_string(),
                scale,
                seconds: secs,
                items: plan.migrations.len().max(input.vms.len()),
            });
        }
    }
    BenchSuite {
        suite: "planners",
        seed,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_cover_every_stage_and_scale() {
        let scales = [0.02, 0.03];
        let emu = run_emulator_suite(&scales, 11);
        assert_eq!(emu.suite, "emulator");
        // trace-gen + replay-plain + replay-faulted per scale.
        assert_eq!(emu.entries.len(), 3 * scales.len());
        let planners = run_planner_suite(&scales, 11);
        assert_eq!(
            planners.entries.len(),
            PlannerKind::EVALUATED.len() * scales.len()
        );
        for e in emu.entries.iter().chain(&planners.entries) {
            assert!(e.seconds >= 0.0);
            assert!(e.items > 0, "{} must report work items", e.stage);
        }
    }

    #[test]
    fn json_is_well_formed_and_stable_in_shape() {
        let suite = BenchSuite {
            suite: "emulator",
            seed: 7,
            entries: vec![
                BenchEntry {
                    stage: "trace-gen".into(),
                    scale: 0.1,
                    seconds: 0.25,
                    items: 42,
                },
                BenchEntry {
                    stage: "replay-plain".into(),
                    scale: 1.0,
                    seconds: 1.5,
                    items: 72,
                },
            ],
        };
        let json = suite.to_json();
        assert!(json.contains("\"schema\": \"vmcw-bench/v1\""));
        assert!(json.contains("\"suite\": \"emulator\""));
        assert!(json.contains("\"scale\": 0.1"));
        // Exactly one trailing comma between the two entries, none after
        // the last — the document must parse as strict JSON.
        assert_eq!(json.matches("}},").count() + json.matches("},\n").count(), 1);
        assert!(balanced(&json), "unbalanced braces/brackets:\n{json}");
    }

    fn balanced(s: &str) -> bool {
        let mut depth = 0i32;
        let mut in_str = false;
        for c in s.chars() {
            match c {
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            if depth < 0 {
                return false;
            }
        }
        depth == 0 && !in_str
    }
}
