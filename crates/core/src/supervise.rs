//! Crash-safe, budgeted execution of multi-cell studies.
//!
//! A *study* here is the planner × data-center grid of the paper's
//! evaluation. [`run_study_opts`] drives every cell through the stepwise
//! [`Replay`] engine under a cooperative [`CancelToken`] and per-cell
//! [`CellBudget`]s, journaling a [`ReplayCheckpoint`] at a fixed cadence
//! and each finished cell's full report. [`resume_study_opts`] rebuilds from
//! the journal after a crash or SIGKILL: completed cells are replayed
//! from their journaled reports (byte-identical by construction), the
//! interrupted cell resumes from its last checkpoint (bit-identical by
//! the engine's resume guarantee), and the rest run normally.
//!
//! Cells that exhaust a budget are *degraded* — their partial report
//! covers the completed hours — and cells whose planner or replay fails
//! are *aborted*; neither kills the rest of the study. Every checkpoint
//! is invariant-checked (capacity, double placement, ledger/hour
//! monotonicity) before it is journaled, failing fast at the boundary
//! where state first went bad.
//!
//! Cells are independent, so [`RunOptions::jobs`] fans them over a pool of
//! worker threads. The journal is a shared append-only log behind a
//! mutex: records from different cells interleave under parallelism, but
//! resume keys every record by its `(data center, planner)` cell, so
//! record *order* never matters for correctness. The final `cells.csv` /
//! `STUDY.md` are merged in grid order (data center major, planner
//! minor), making them byte-identical for any worker count — see
//! docs/PERFORMANCE.md for the determinism argument.
//!
//! The supervisor is *self-healing* (docs/ROBUSTNESS.md has the
//! supervision tree): each cell attempt runs under `catch_unwind`, so a
//! panicking planner becomes a journaled [`CellOutcome::Crashed`]
//! incident instead of killing the run; a monitor thread watches
//! per-cell [`Heartbeat`]s and cooperatively cancels cells that stop
//! beating (hangs become `Degraded`, never wedged studies); crashed and
//! watchdog-stopped cells are retried from their last journaled
//! checkpoint under a [`CellRetryPolicy`] (exponential backoff, jitter
//! keyed on the study seed) and quarantined into `STUDY.md`'s failure
//! matrix once attempts are exhausted. A retry resumes from a
//! checkpoint, so a healed cell's output is *byte-identical* to an
//! uninterrupted run. The monitor also rewrites an atomic
//! `health.json` ([`crate::health`]) so `vmcw health <dir>` can inspect
//! a live or dead run.

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

use vmcw_consolidation::planner::PlannerKind;
use vmcw_emulator::checkpoint::{
    decode_cost, decode_fault_config, decode_report, enc_f64, encode_cost, encode_fault_config,
    encode_report, fnv1a, CheckpointError, Toks,
};
use vmcw_emulator::engine::{EmulationReport, Heartbeat, Replay};
use vmcw_emulator::faults::FaultConfig;
use vmcw_emulator::report::{cost_summary, CostSummary};
use vmcw_emulator::validate::{
    check_checkpoint_with, check_retry_checkpoint, CheckScratch, InvariantViolation,
};
use vmcw_emulator::ReplayCheckpoint;
use vmcw_trace::datacenters::DataCenterId;

use crate::health::{CellHealth, HealthSnapshot, HEALTH_FILE};
use crate::journal::{write_atomic, Journal, JournalError, TailCorruption};
use crate::render::{fnum, Table};
use crate::study::{Study, StudyConfig, StudyError};

/// Cooperative cancellation shared between a supervisor and whoever
/// wants to stop it (a signal handler, a test, a deadline).
///
/// Cancellation is *cooperative*: the supervisor polls the token at
/// every hour boundary, checkpoints, and returns an `Interrupted`
/// report — it never loses state.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    /// Cancel once this many hours have been stepped (u64::MAX = never);
    /// lets tests kill a study at a *deterministic* point.
    limit_hours: AtomicU64,
    stepped: AtomicU64,
    /// Wall-clock deadline past which [`CancelToken::is_cancelled`]
    /// reports true — how `vmcw serve` propagates per-request deadlines
    /// into a replay without any extra sweeper thread.
    deadline: Mutex<Option<Instant>>,
}

impl CancelToken {
    /// A token that never fires until [`cancel`](Self::cancel)ed.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                limit_hours: AtomicU64::new(u64::MAX),
                stepped: AtomicU64::new(0),
                deadline: Mutex::new(None),
            }),
        }
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Arms an externally-supplied deadline: once `deadline` passes,
    /// [`is_cancelled`](Self::is_cancelled) reports true at the next
    /// poll (the supervisor polls at every hour boundary, so a replay
    /// checkpoints and yields within one step of the deadline).
    pub fn cancel_at(&self, deadline: Instant) {
        *self
            .inner
            .deadline
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(deadline);
    }

    /// The armed deadline, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        *self
            .inner
            .deadline
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Whether the armed deadline (if any) has passed.
    #[must_use]
    pub fn deadline_passed(&self) -> bool {
        self.deadline().is_some_and(|d| Instant::now() >= d)
    }

    /// Whether cancellation was requested (explicitly, or implicitly by
    /// an expired [`cancel_at`](Self::cancel_at) deadline).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::SeqCst) {
            return true;
        }
        if self.deadline_passed() {
            self.cancel();
            return true;
        }
        false
    }

    /// Arms the token to cancel after `hours` replay hours have been
    /// stepped across the whole study — a deterministic "kill at hour N".
    pub fn cancel_after_hours(&self, hours: u64) {
        self.inner.limit_hours.store(hours, Ordering::SeqCst);
    }

    /// Records one stepped replay hour (called by the supervisor).
    pub fn note_hour(&self) {
        let stepped = self.inner.stepped.fetch_add(1, Ordering::SeqCst) + 1;
        if stepped >= self.inner.limit_hours.load(Ordering::SeqCst) {
            self.cancel();
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-cell execution budgets. A cell that runs over is *degraded* — it
/// finalises a partial report instead of wedging the study.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CellBudget {
    /// Maximum wall-clock seconds per cell per session.
    pub max_wall_secs: Option<f64>,
    /// Maximum replay hours per cell (deterministic step budget).
    pub max_hours: Option<usize>,
}

impl CellBudget {
    /// No limits.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }
}

/// Bounded re-execution of transiently failed cells (panics and
/// watchdog timeouts). Deterministic failures — typed replay errors,
/// step-budget exhaustion — are *not* retried: they would fail the same
/// way again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellRetryPolicy {
    /// Total attempts per cell per session (1 = no retry).
    pub max_attempts: usize,
    /// Backoff before the second attempt, in seconds.
    pub base_backoff_secs: f64,
    /// Backoff multiplier per further attempt.
    pub backoff_factor: f64,
}

impl CellRetryPolicy {
    /// Three attempts, 100 ms base backoff doubling per attempt.
    #[must_use]
    pub fn default_policy() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_secs: 0.1,
            backoff_factor: 2.0,
        }
    }

    /// A single attempt: the first crash or watchdog stop is terminal.
    #[must_use]
    pub fn no_retry() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default_policy()
        }
    }

    /// Seconds to wait before `next_attempt` (2-based): exponential in
    /// the attempt number with a deterministic jitter factor in
    /// `[0.5, 1.5)` keyed on the study seed and the cell, so two
    /// sessions of the same study back off identically while distinct
    /// cells never thunder in herd.
    #[must_use]
    pub fn backoff_secs(&self, seed: u64, dc: char, planner: &str, next_attempt: usize) -> f64 {
        let exp = next_attempt.saturating_sub(2).min(i32::MAX as usize) as i32;
        let key = fnv1a(format!("retry {seed} {dc} {planner} {next_attempt}").as_bytes());
        let jitter = 0.5 + key as f64 / (u64::MAX as f64 + 1.0);
        self.base_backoff_secs * self.backoff_factor.powi(exp) * jitter
    }
}

impl Default for CellRetryPolicy {
    fn default() -> Self {
        Self::default_policy()
    }
}

/// What a chaos hook does to its target cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Panic in the cell body right before stepping the configured hour.
    Panic,
    /// Stop heartbeating (without stepping) until the watchdog fires.
    Hang,
}

/// A fault-injection hook for the *supervisor itself*: deterministically
/// crash or hang one cell so tests and the CI chaos job can prove that
/// isolation, retry and quarantine work. Never enabled implicitly — the
/// CLI wires it from `VMCW_CHAOS_*` environment variables, tests pass it
/// programmatically via [`RunOptions`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Data-center letter of the target cell.
    pub dc: char,
    /// Planner label of the target cell (as [`PlannerKind::label`]).
    pub planner: String,
    /// Replay hour before which the fault fires.
    pub hour: usize,
    /// Crash or hang.
    pub mode: ChaosMode,
    /// Fire once per study (the retry then succeeds — the self-healing
    /// path) instead of once per attempt (exhausts retries — the
    /// quarantine path).
    pub one_shot: bool,
}

impl ChaosConfig {
    /// Builds a chaos hook from a `<letter>/<planner label>` cell id.
    /// Returns `None` for a malformed id.
    #[must_use]
    pub fn for_cell(cell_id: &str, hour: usize, mode: ChaosMode, one_shot: bool) -> Option<Self> {
        let (letter, planner) = cell_id.split_once('/')?;
        let dc = letter.trim().to_ascii_uppercase().chars().next()?;
        dc_from_letter(dc)?;
        let kind = PlannerKind::parse(planner.trim())?;
        Some(Self {
            dc,
            planner: kind.label().to_owned(),
            hour,
            mode,
            one_shot,
        })
    }

    /// Reads the env-gated chaos hooks: `VMCW_CHAOS_PANIC_CELL=<L>/<planner>`
    /// or `VMCW_CHAOS_HANG_CELL=<L>/<planner>`, with
    /// `VMCW_CHAOS_PANIC_HOUR=<N>` (default 2) and `VMCW_CHAOS_ONE_SHOT=1`.
    /// Returns `None` when no (well-formed) hook is set.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let (cell, mode) = if let Ok(v) = std::env::var("VMCW_CHAOS_PANIC_CELL") {
            (v, ChaosMode::Panic)
        } else if let Ok(v) = std::env::var("VMCW_CHAOS_HANG_CELL") {
            (v, ChaosMode::Hang)
        } else {
            return None;
        };
        let hour = std::env::var("VMCW_CHAOS_PANIC_HOUR")
            .ok()
            .and_then(|h| h.parse().ok())
            .unwrap_or(2);
        let one_shot = std::env::var("VMCW_CHAOS_ONE_SHOT").is_ok_and(|v| v == "1");
        Self::for_cell(&cell, hour, mode, one_shot)
    }

    fn matches(&self, dc: DataCenterId, kind: PlannerKind) -> bool {
        self.dc == dc.letter() && self.planner == kind.label()
    }
}

/// Session-scoped execution options for [`run_study_opts`] /
/// [`resume_study_opts`]. None of these are journaled: like worker
/// count and wall budgets, they shape *how* a session executes, never
/// *what* the study computes — any combination yields byte-identical
/// study outputs (chaos aside, and even a healed chaos run matches).
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads (see [`run_study_opts`]).
    pub jobs: usize,
    /// Retry budget for crashed / watchdog-stopped cells.
    pub retry: CellRetryPolicy,
    /// Watchdog deadline: a cell whose heartbeat goes silent for this
    /// many seconds is cooperatively cancelled. `None` disables the
    /// watchdog (health telemetry still runs). Must comfortably exceed
    /// the cell's planning time — planning beats only at its edges.
    pub heartbeat_timeout_secs: Option<f64>,
    /// Supervisor fault injection for tests and CI.
    pub chaos: Option<ChaosConfig>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            jobs: 1,
            retry: CellRetryPolicy::default_policy(),
            heartbeat_timeout_secs: None,
            chaos: None,
        }
    }
}

/// How one planner × data-center cell ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// Replayed every evaluation hour.
    Completed,
    /// Stopped at a budget; the cell's report is partial.
    Degraded {
        /// Which budget fired.
        reason: String,
        /// Hours actually replayed.
        hours_done: usize,
    },
    /// Planning or replay failed; the error is recorded, the study went
    /// on.
    Aborted {
        /// The failure.
        error: String,
    },
    /// An attempt panicked or was stopped by the watchdog. Transient:
    /// the supervisor retries from the last journaled checkpoint, so
    /// this is only ever a *terminal* outcome in journals written by
    /// defensive paths — normally a crash ends as `Completed` (healed)
    /// or [`Quarantined`](Self::Quarantined) (exhausted).
    Crashed {
        /// Single-line panic or watchdog message.
        message: String,
        /// Captured backtrace of the crash site (may be empty).
        backtrace: String,
    },
    /// Every retry attempt crashed or hung. The cell is excluded from
    /// aggregate results; its incident log feeds `STUDY.md`'s failure
    /// matrix.
    Quarantined {
        /// Attempts spent before giving up.
        attempts: usize,
        /// One line per incident: `attempt N: panic|watchdog: message`.
        incidents: Vec<String>,
    },
}

impl CellOutcome {
    /// Short status word for tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            CellOutcome::Completed => "completed",
            CellOutcome::Degraded { .. } => "degraded",
            CellOutcome::Aborted { .. } => "aborted",
            CellOutcome::Crashed { .. } => "crashed",
            CellOutcome::Quarantined { .. } => "quarantined",
        }
    }
}

/// One cell of the study grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The data center.
    pub dc: DataCenterId,
    /// The planner.
    pub kind: PlannerKind,
    /// How the cell ended.
    pub outcome: CellOutcome,
    /// The (possibly partial) emulation report; `None` for aborted
    /// cells.
    pub report: Option<EmulationReport>,
    /// Costs of the report under the study's cost model.
    pub cost: Option<CostSummary>,
}

/// What a supervised study should run.
#[derive(Debug, Clone, PartialEq)]
pub struct StudySpec {
    /// Data centers to evaluate.
    pub dcs: Vec<DataCenterId>,
    /// Planners to evaluate per data center.
    pub planners: Vec<PlannerKind>,
    /// Server-count scale (1.0 = Table 2 population).
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Planning-history days.
    pub history_days: usize,
    /// Evaluation days.
    pub eval_days: usize,
    /// Fault injection, if any.
    pub faults: Option<FaultConfig>,
    /// Checkpoint cadence in replay hours.
    pub checkpoint_every_hours: usize,
    /// Per-cell budgets.
    pub budget: CellBudget,
}

impl StudySpec {
    /// All four data centers × the three evaluated planners, checkpoint
    /// every 6 replay hours, no budgets, no faults.
    #[must_use]
    pub fn new(scale: f64, seed: u64, history_days: usize, eval_days: usize) -> Self {
        Self {
            dcs: DataCenterId::ALL.to_vec(),
            planners: PlannerKind::EVALUATED.to_vec(),
            scale,
            seed,
            history_days,
            eval_days,
            faults: None,
            checkpoint_every_hours: 6,
            budget: CellBudget::unlimited(),
        }
    }

    /// The per-data-center study configuration the spec induces.
    #[must_use]
    pub fn study_config(&self, dc: DataCenterId) -> StudyConfig {
        StudyConfig {
            scale: self.scale,
            history_days: self.history_days,
            eval_days: self.eval_days,
            ..StudyConfig::paper_baseline(dc, self.seed)
        }
    }

    /// Single-line journal encoding (floats bit-exact).
    #[must_use]
    pub fn encode(&self) -> String {
        let dcs: String = self.dcs.iter().map(|d| d.letter()).collect();
        let planners: Vec<&str> = self.planners.iter().map(|k| k.label()).collect();
        let faults = self
            .faults
            .as_ref()
            .map_or_else(|| "none".to_owned(), encode_fault_config);
        let maxh = self
            .budget
            .max_hours
            .map_or_else(|| "none".to_owned(), |h| h.to_string());
        let maxs = self
            .budget
            .max_wall_secs
            .map_or_else(|| "none".to_owned(), enc_f64);
        format!(
            "spec v1 seed {} scale {} history {} eval {} ckpt {} dcs {} planners {} maxhours {} maxsecs {} faults {}",
            self.seed,
            enc_f64(self.scale),
            self.history_days,
            self.eval_days,
            self.checkpoint_every_hours,
            dcs,
            planners.join(","),
            maxh,
            maxs,
            faults,
        )
    }

    /// Decodes [`encode`](Self::encode) output.
    ///
    /// # Errors
    ///
    /// [`SuperviseError::Spec`] on malformed input.
    pub fn decode(line: &str) -> Result<Self, SuperviseError> {
        let bad = |detail: &str| SuperviseError::Spec {
            detail: detail.to_owned(),
        };
        let mut t = Toks::new(line, 0);
        let take = |t: &mut Toks<'_>, key: &str| -> Result<(), SuperviseError> {
            let k = t.str().map_err(SuperviseError::Checkpoint)?;
            if k == key {
                Ok(())
            } else {
                Err(SuperviseError::Spec {
                    detail: format!("expected `{key}`, found `{k}`"),
                })
            }
        };
        take(&mut t, "spec")?;
        let v = t.str().map_err(SuperviseError::Checkpoint)?;
        if v != "v1" {
            return Err(bad("unsupported spec version"));
        }
        take(&mut t, "seed")?;
        let seed = t.u64().map_err(SuperviseError::Checkpoint)?;
        take(&mut t, "scale")?;
        let scale = t.f64().map_err(SuperviseError::Checkpoint)?;
        take(&mut t, "history")?;
        let history_days = t.usize().map_err(SuperviseError::Checkpoint)?;
        take(&mut t, "eval")?;
        let eval_days = t.usize().map_err(SuperviseError::Checkpoint)?;
        take(&mut t, "ckpt")?;
        let checkpoint_every_hours = t.usize().map_err(SuperviseError::Checkpoint)?;
        take(&mut t, "dcs")?;
        let dcs_tok = t.str().map_err(SuperviseError::Checkpoint)?;
        let dcs = dcs_tok
            .chars()
            .map(|c| dc_from_letter(c).ok_or_else(|| bad("unknown data-center letter")))
            .collect::<Result<Vec<_>, _>>()?;
        take(&mut t, "planners")?;
        let planners_tok = t.str().map_err(SuperviseError::Checkpoint)?;
        let planners = planners_tok
            .split(',')
            .map(|l| PlannerKind::parse(l).ok_or_else(|| bad("unknown planner label")))
            .collect::<Result<Vec<_>, _>>()?;
        take(&mut t, "maxhours")?;
        let maxh = t.str().map_err(SuperviseError::Checkpoint)?;
        let max_hours = if maxh == "none" {
            None
        } else {
            Some(maxh.parse().map_err(|_| bad("bad maxhours"))?)
        };
        take(&mut t, "maxsecs")?;
        let maxs = t.str().map_err(SuperviseError::Checkpoint)?;
        let max_wall_secs = if maxs == "none" {
            None
        } else {
            Some(f64::from_bits(
                u64::from_str_radix(maxs, 16).map_err(|_| bad("bad maxsecs"))?,
            ))
        };
        take(&mut t, "faults")?;
        // The fault config is the remainder of the line: either the
        // literal `none` or the 13-token fault-config encoding.
        let faults_payload = line
            .split_once(" faults ")
            .map(|(_, f)| f.trim())
            .ok_or_else(|| bad("missing faults field"))?;
        let faults = if faults_payload == "none" {
            None
        } else {
            let mut ft = Toks::new(faults_payload, 0);
            Some(decode_fault_config(&mut ft).map_err(SuperviseError::Checkpoint)?)
        };
        Ok(Self {
            dcs,
            planners,
            scale,
            seed,
            history_days,
            eval_days,
            faults,
            checkpoint_every_hours,
            budget: CellBudget {
                max_wall_secs,
                max_hours,
            },
        })
    }
}

fn dc_from_letter(c: char) -> Option<DataCenterId> {
    DataCenterId::ALL.into_iter().find(|d| d.letter() == c)
}

/// Whether the whole grid ran to the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudyStatus {
    /// Every cell reached a terminal outcome; results were written.
    Completed,
    /// Cancelled mid-run; the journal holds a checkpoint to resume from.
    Interrupted,
}

/// The (possibly partial) result of a supervised study.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyReport {
    /// What was asked for.
    pub spec: StudySpec,
    /// Whether the grid finished.
    pub status: StudyStatus,
    /// Cells in grid order (data center major, planner minor). Under
    /// `Interrupted`, only the cells with a terminal outcome so far.
    pub cells: Vec<CellReport>,
    /// A corrupt/truncated journal tail discarded on open, if any.
    pub tail_dropped: Option<TailCorruption>,
}

/// Errors of the supervisor itself (cell-level failures are recorded as
/// [`CellOutcome::Aborted`] instead).
#[derive(Debug)]
pub enum SuperviseError {
    /// Journal I/O or framing.
    Journal(JournalError),
    /// A checkpoint failed to decode or belongs to a different run.
    Checkpoint(CheckpointError),
    /// A replay invariant was violated at a checkpoint boundary.
    Invariant {
        /// The violation.
        violation: InvariantViolation,
        /// Journal record index at which it was detected.
        record: usize,
    },
    /// The study spec (journal config record or CLI) is malformed.
    Spec {
        /// What was wrong.
        detail: String,
    },
    /// The journal has no config record to resume from.
    MissingConfig {
        /// The journal path.
        path: PathBuf,
    },
}

impl fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuperviseError::Journal(e) => e.fmt(f),
            SuperviseError::Checkpoint(e) => e.fmt(f),
            SuperviseError::Invariant { violation, record } => {
                write!(f, "{violation} (journal record {record})")
            }
            SuperviseError::Spec { detail } => write!(f, "invalid study spec: {detail}"),
            SuperviseError::MissingConfig { path } => {
                write!(f, "{} has no study config record", path.display())
            }
        }
    }
}

impl std::error::Error for SuperviseError {}

impl From<JournalError> for SuperviseError {
    fn from(e: JournalError) -> Self {
        SuperviseError::Journal(e)
    }
}

impl From<CheckpointError> for SuperviseError {
    fn from(e: CheckpointError) -> Self {
        SuperviseError::Checkpoint(e)
    }
}

/// Journal file name inside a study directory.
pub const JOURNAL_FILE: &str = "journal.vmcwj";

/// Starts a fresh supervised study in `dir`, journaling to
/// `dir/journal.vmcwj`, under the session [`RunOptions`]: worker count,
/// retry policy, watchdog deadline and (for tests/CI) chaos injection.
///
/// `opts.jobs` worker threads execute independent cells concurrently;
/// `jobs <= 1` is exactly the serial supervisor (identical journal
/// record sequence). Any worker count yields byte-identical `cells.csv`,
/// `STUDY.md` and cell reports; only journal record interleaving and
/// wall-clock time differ.
///
/// # Errors
///
/// [`JournalError::AlreadyExists`] if the directory already holds a
/// journal (resume it instead), plus journal/checkpoint errors.
pub fn run_study_opts(
    spec: &StudySpec,
    dir: &Path,
    token: &CancelToken,
    opts: &RunOptions,
) -> Result<StudyReport, SuperviseError> {
    std::fs::create_dir_all(dir).map_err(|source| {
        SuperviseError::Journal(JournalError::Io {
            path: dir.to_path_buf(),
            source,
        })
    })?;
    let mut journal = Journal::create(&dir.join(JOURNAL_FILE))?;
    journal.append(format!("config {}", spec.encode()).as_bytes())?;
    drive(
        spec.clone(),
        journal,
        BTreeMap::new(),
        BTreeMap::new(),
        false,
        None,
        dir,
        token,
        opts,
    )
}

/// Resumes (or idempotently re-finalises) the study journaled in `dir`
/// under the session [`RunOptions`] (see [`run_study_opts`]).
///
/// Completed cells are restored from their journaled reports, the
/// interrupted cell from its last checkpoint; the final report is
/// byte-identical to an uninterrupted run. `budget` overrides the
/// journaled per-cell budgets for this session when given. A journal
/// written under any worker count resumes under any other: records are
/// keyed by cell, not by position.
///
/// # Errors
///
/// Journal/spec/checkpoint errors; a checkpoint that fails its
/// invariants or fingerprint aborts the resume rather than silently
/// recomputing.
pub fn resume_study_opts(
    dir: &Path,
    budget: Option<CellBudget>,
    token: &CancelToken,
    opts: &RunOptions,
) -> Result<StudyReport, SuperviseError> {
    let path = dir.join(JOURNAL_FILE);
    let (journal, tail) = Journal::open(&path)?;
    let records = journal.records();
    let first = records.first().ok_or_else(|| SuperviseError::MissingConfig {
        path: path.clone(),
    })?;
    let config_line = std::str::from_utf8(first)
        .ok()
        .and_then(|s| s.strip_prefix("config "))
        .ok_or_else(|| SuperviseError::MissingConfig { path: path.clone() })?;
    let mut spec = StudySpec::decode(config_line.trim_end())?;
    if let Some(b) = budget {
        spec.budget = b;
    }

    let mut done: BTreeMap<(char, &'static str), CellReport> = BTreeMap::new();
    let mut ckpts: BTreeMap<(char, &'static str), ReplayCheckpoint> = BTreeMap::new();
    let mut run_done = false;
    for (i, rec) in records.iter().enumerate().skip(1) {
        let text = std::str::from_utf8(rec).map_err(|_| SuperviseError::Spec {
            detail: format!("journal record {i} is not UTF-8"),
        })?;
        let (head, body) = text.split_once('\n').unwrap_or((text, ""));
        let mut toks = head.split_whitespace();
        match toks.next() {
            // Informational records: cell lifecycle markers, retry
            // bookkeeping and heartbeat progress watermarks carry no
            // state that resume needs — checkpoints and cell-done
            // records are authoritative.
            Some("cell-start" | "cell-crashed" | "cell-retried" | "heartbeat") => {}
            Some("run-done") => run_done = true,
            Some("checkpoint") => {
                let (dc, kind) = cell_key(&mut toks, i)?;
                let ckpt = ReplayCheckpoint::decode(body)?;
                ckpts.insert((dc.letter(), kind.label()), ckpt);
            }
            Some("cell-done") => {
                let (dc, kind) = cell_key(&mut toks, i)?;
                let outcome_word = toks.next().ok_or_else(|| SuperviseError::Spec {
                    detail: format!("journal record {i}: missing cell outcome"),
                })?;
                let cell = match outcome_word {
                    "aborted" => CellReport {
                        dc,
                        kind,
                        outcome: CellOutcome::Aborted {
                            error: toks.collect::<Vec<_>>().join(" "),
                        },
                        report: None,
                        cost: None,
                    },
                    "crashed" => CellReport {
                        dc,
                        kind,
                        outcome: CellOutcome::Crashed {
                            message: toks.collect::<Vec<_>>().join(" "),
                            backtrace: body.to_owned(),
                        },
                        report: None,
                        cost: None,
                    },
                    "quarantined" => {
                        let attempts = toks
                            .next()
                            .and_then(|a| a.parse().ok())
                            .ok_or_else(|| SuperviseError::Spec {
                                detail: format!("journal record {i}: bad quarantine attempts"),
                            })?;
                        let incidents = if body.is_empty() {
                            Vec::new()
                        } else {
                            body.lines().map(str::to_owned).collect()
                        };
                        CellReport {
                            dc,
                            kind,
                            outcome: CellOutcome::Quarantined {
                                attempts,
                                incidents,
                            },
                            report: None,
                            cost: None,
                        }
                    }
                    word @ ("completed" | "degraded") => {
                        let outcome = if word == "completed" {
                            CellOutcome::Completed
                        } else {
                            let hours_done = toks
                                .next()
                                .and_then(|h| h.parse().ok())
                                .ok_or_else(|| SuperviseError::Spec {
                                    detail: format!("journal record {i}: bad degraded hours"),
                                })?;
                            CellOutcome::Degraded {
                                reason: toks.collect::<Vec<_>>().join(" "),
                                hours_done,
                            }
                        };
                        let (cost_line, report_wire) =
                            body.split_once('\n').ok_or_else(|| SuperviseError::Spec {
                                detail: format!("journal record {i}: missing cell body"),
                            })?;
                        CellReport {
                            dc,
                            kind,
                            outcome,
                            report: Some(decode_report(report_wire)?),
                            cost: Some(decode_cost(cost_line)?),
                        }
                    }
                    other => {
                        return Err(SuperviseError::Spec {
                            detail: format!("journal record {i}: unknown outcome `{other}`"),
                        })
                    }
                };
                ckpts.remove(&(dc.letter(), kind.label()));
                done.insert((dc.letter(), kind.label()), cell);
            }
            other => {
                return Err(SuperviseError::Spec {
                    detail: format!("journal record {i}: unknown record `{other:?}`"),
                })
            }
        }
    }

    drive(spec, journal, done, ckpts, run_done, tail, dir, token, opts)
}

fn cell_key<'a>(
    toks: &mut impl Iterator<Item = &'a str>,
    record: usize,
) -> Result<(DataCenterId, PlannerKind), SuperviseError> {
    let bad = |detail: String| SuperviseError::Spec { detail };
    let letter = toks
        .next()
        .and_then(|s| (s.len() == 1).then(|| s.chars().next().unwrap()))
        .ok_or_else(|| bad(format!("journal record {record}: missing data-center letter")))?;
    let dc = dc_from_letter(letter)
        .ok_or_else(|| bad(format!("journal record {record}: unknown data center `{letter}`")))?;
    let kind = toks
        .next()
        .and_then(PlannerKind::parse)
        .ok_or_else(|| bad(format!("journal record {record}: unknown planner")))?;
    Ok((dc, kind))
}

thread_local! {
    /// Whether the *current thread* is inside a supervised cell body
    /// (panics are captured instead of printed).
    static PANIC_ARMED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Backtrace captured by the hook for the most recent armed panic.
    static CELL_PANIC: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
}

/// Installs (once, process-wide) a panic hook that captures the
/// backtrace of supervised-cell panics into a thread-local and stays
/// silent, while delegating every other panic to the previous hook
/// untouched.
fn install_cell_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if PANIC_ARMED.with(std::cell::Cell::get) {
                let bt = std::backtrace::Backtrace::force_capture().to_string();
                CELL_PANIC.with(|c| *c.borrow_mut() = Some(bt));
            } else {
                prev(info);
            }
        }));
    });
}

/// Runs `f` with panic isolation: a panic becomes
/// `Err((single-line message, backtrace))` instead of unwinding into
/// the supervisor.
fn catch_cell_panic<T>(f: impl FnOnce() -> T) -> Result<T, (String, String)> {
    install_cell_panic_hook();
    PANIC_ARMED.with(|a| a.set(true));
    let out = catch_unwind(AssertUnwindSafe(f));
    PANIC_ARMED.with(|a| a.set(false));
    match out {
        Ok(v) => Ok(v),
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_owned()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_owned()
            };
            let message = message.replace(['\n', '\r'], " ");
            let backtrace = CELL_PANIC.with(|c| c.borrow_mut().take()).unwrap_or_default();
            Err((message, backtrace))
        }
    }
}

/// Live telemetry and cancellation surface of one running cell attempt,
/// shared between the worker running the cell and the monitor thread.
struct CellWatch {
    dc: char,
    planner: &'static str,
    heartbeat: Arc<Heartbeat>,
    /// Replay hours completed by this attempt so far.
    hours: AtomicUsize,
    started: Instant,
    /// Watchdog verdict; the cell polls this at every hour boundary and
    /// the chaos hang loop.
    fired: AtomicBool,
    /// Why the watchdog fired (written before `fired` is set).
    reason: Mutex<Option<String>>,
    /// True while the attempt is actually executing.
    armed: AtomicBool,
    /// Last journaled heartbeat watermark: (when, hours).
    watermark: Mutex<(Instant, usize)>,
}

impl CellWatch {
    fn new(dc: DataCenterId, kind: PlannerKind) -> Self {
        Self {
            dc: dc.letter(),
            planner: kind.label(),
            heartbeat: Arc::new(Heartbeat::new()),
            hours: AtomicUsize::new(0),
            started: Instant::now(),
            fired: AtomicBool::new(false),
            reason: Mutex::new(None),
            armed: AtomicBool::new(true),
            watermark: Mutex::new((Instant::now(), 0)),
        }
    }
}

/// How one supervised attempt ended, from the supervisor's viewpoint.
enum CellRun {
    /// Terminal outcome, already journaled.
    Done(Box<CellReport>),
    /// Checkpointed and yielded to cancellation / sibling abort.
    Yielded,
    /// Transient failure (watchdog stop); the last checkpoint is intact
    /// and the cell is eligible for retry. Panics take the same path
    /// via [`catch_cell_panic`].
    Transient {
        kind: &'static str,
        message: String,
        backtrace: String,
    },
}

/// Mutable health-board entry for one cell (see [`crate::health`]).
struct CellHealthState {
    state: &'static str,
    attempt: usize,
    hours_done: usize,
    incidents: Vec<String>,
}

/// Shared per-run executor state, borrowed by every worker thread.
struct Executor<'a> {
    spec: &'a StudySpec,
    opts: &'a RunOptions,
    dir: &'a Path,
    journal: Mutex<Journal>,
    token: &'a CancelToken,
    /// Lazily prepared per-data-center studies, indexed as `spec.dcs`.
    /// `OnceLock` blocks racing workers until the first finishes the
    /// (expensive) trace generation, so each DC is prepared exactly
    /// once. A panic inside `get_or_init` leaves the lock uninitialised
    /// (not poisoned), so a retry simply prepares again.
    studies: Vec<OnceLock<Study>>,
    /// Latest known checkpoint per cell: seeded from the journal on
    /// resume, updated as cells checkpoint, and the restart point for
    /// retried attempts.
    latest: Mutex<BTreeMap<(char, &'static str), ReplayCheckpoint>>,
    /// Next position in the pending list to claim.
    next: AtomicUsize,
    /// Set when any worker hits a supervisor-fatal error; others stop at
    /// the next hour boundary (checkpointing first, so no work is lost).
    abort: AtomicBool,
    /// Set when the cancel token stopped a worker mid-grid.
    interrupted: AtomicBool,
    fatal: Mutex<Option<SuperviseError>>,
    finished: Mutex<Vec<(usize, CellReport)>>,
    /// One watch per attempt, newest last; the monitor sweeps these.
    watches: Mutex<Vec<Arc<CellWatch>>>,
    /// Health board keyed by cell, rendered to `health.json`.
    health: Mutex<BTreeMap<(char, &'static str), CellHealthState>>,
    /// One-shot chaos bookkeeping: set once the hook has fired.
    chaos_fired: AtomicBool,
    /// Tells the monitor thread to exit.
    monitor_stop: AtomicBool,
}

impl Executor<'_> {
    fn journal(&self) -> std::sync::MutexGuard<'_, Journal> {
        self.journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Claims and runs pending cells until the grid is drained, the
    /// token fires, or a fatal error (here or in a sibling) stops the
    /// run.
    fn work(&self, grid: &[(DataCenterId, PlannerKind)], pending: &[usize]) {
        loop {
            if self.abort.load(Ordering::SeqCst) {
                return;
            }
            let slot = self.next.fetch_add(1, Ordering::SeqCst);
            let Some(&idx) = pending.get(slot) else {
                return;
            };
            let (dc, kind) = grid[idx];
            if self.token.is_cancelled() {
                self.interrupted.store(true, Ordering::SeqCst);
                return;
            }
            // A resumed spec can disagree with the journaled grid
            // (edited spec file, version skew). Degrade the cell with a
            // typed error instead of panicking and killing this worker.
            let Some(di) = self.spec.dcs.iter().position(|d| *d == dc) else {
                let error = StudyError::SpecMismatch {
                    detail: format!(
                        "grid cell {} {} names a data center absent from the spec",
                        dc.letter(),
                        kind.label()
                    ),
                }
                .to_string();
                let cell = CellReport {
                    dc,
                    kind,
                    outcome: CellOutcome::Aborted { error },
                    report: None,
                    cost: None,
                };
                let journaled = append_cell_done(&mut self.journal(), &cell);
                self.set_health(dc, kind, "aborted", 1, None);
                match journaled {
                    Ok(()) => {
                        self.finished
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push((idx, cell));
                        continue;
                    }
                    Err(e) => {
                        self.fatal
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .get_or_insert(e);
                        self.abort.store(true, Ordering::SeqCst);
                        return;
                    }
                }
            };
            match self.run_cell_supervised(dc, kind, di) {
                Ok(Some(cell)) => self
                    .finished
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push((idx, cell)),
                Ok(None) => return,
                Err(e) => {
                    let mut fatal = self
                        .fatal
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    fatal.get_or_insert(e);
                    self.abort.store(true, Ordering::SeqCst);
                    return;
                }
            }
        }
    }

    /// Runs one cell to a terminal outcome (`Some`) or yields (`None`)
    /// on cancellation / sibling abort, retrying transient failures —
    /// panics and watchdog stops — from the last journaled checkpoint
    /// under the session's [`CellRetryPolicy`], and quarantining the
    /// cell once attempts are exhausted.
    fn run_cell_supervised(
        &self,
        dc: DataCenterId,
        kind: PlannerKind,
        di: usize,
    ) -> Result<Option<CellReport>, SuperviseError> {
        let max_attempts = self.opts.retry.max_attempts.max(1);
        let mut incidents: Vec<String> = Vec::new();
        let mut attempt = 1usize;
        loop {
            self.set_health(dc, kind, "running", attempt, None);
            let watch = Arc::new(CellWatch::new(dc, kind));
            self.watches
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(Arc::clone(&watch));
            let caught = catch_cell_panic(|| {
                let study =
                    self.studies[di].get_or_init(|| Study::prepare(&self.spec.study_config(dc)));
                self.run_attempt(dc, kind, study, &watch, attempt, attempt >= max_attempts)
            });
            watch.armed.store(false, Ordering::SeqCst);
            let run = match caught {
                Ok(r) => r?,
                Err((message, backtrace)) => CellRun::Transient {
                    kind: "panic",
                    message,
                    backtrace,
                },
            };
            match run {
                CellRun::Done(cell) => {
                    let hours = cell.report.as_ref().map_or(0, |r| r.hours);
                    self.set_health(dc, kind, cell.outcome.label(), attempt, Some(hours));
                    return Ok(Some(*cell));
                }
                CellRun::Yielded => {
                    // Record how far the attempt got so health.json
                    // carries partial progress for interrupted cells
                    // (serve's 504 body reads it back).
                    let hours = watch.hours.load(Ordering::SeqCst);
                    self.set_health(dc, kind, "interrupted", attempt, Some(hours));
                    return Ok(None);
                }
                CellRun::Transient {
                    kind: incident_kind,
                    message,
                    backtrace,
                } => {
                    append_cell_crashed(
                        &mut self.journal(),
                        dc,
                        kind,
                        attempt,
                        incident_kind,
                        &message,
                        &backtrace,
                    )?;
                    let incident = format!("attempt {attempt}: {incident_kind}: {message}");
                    incidents.push(incident.clone());
                    self.push_incident(dc, kind, incident);
                    if attempt >= max_attempts {
                        let cell = CellReport {
                            dc,
                            kind,
                            outcome: CellOutcome::Quarantined {
                                attempts: attempt,
                                incidents: incidents.clone(),
                            },
                            report: None,
                            cost: None,
                        };
                        append_cell_done(&mut self.journal(), &cell)?;
                        self.set_health(dc, kind, "quarantined", attempt, None);
                        return Ok(Some(cell));
                    }
                    let next = attempt + 1;
                    append_cell_retried(&mut self.journal(), dc, kind, next)?;
                    self.set_health(dc, kind, "backoff", attempt, None);
                    let delay =
                        self.opts
                            .retry
                            .backoff_secs(self.spec.seed, dc.letter(), kind.label(), next);
                    if !self.backoff(delay) {
                        if self.token.is_cancelled() {
                            self.interrupted.store(true, Ordering::SeqCst);
                        }
                        let hours = watch.hours.load(Ordering::SeqCst);
                        self.set_health(dc, kind, "interrupted", attempt, Some(hours));
                        return Ok(None);
                    }
                    attempt = next;
                }
            }
        }
    }

    /// Sleeps `secs` in small slices so cancellation stays responsive;
    /// `false` means the wait was cut short by the token or an abort.
    fn backoff(&self, secs: f64) -> bool {
        let secs = if secs.is_finite() { secs.max(0.0) } else { 0.0 };
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        while Instant::now() < deadline {
            if self.token.is_cancelled() || self.abort.load(Ordering::SeqCst) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        true
    }

    fn latest_ckpt(&self, dc: DataCenterId, kind: PlannerKind) -> Option<ReplayCheckpoint> {
        self.latest
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&(dc.letter(), kind.label()))
            .cloned()
    }

    fn remember_ckpt(&self, dc: DataCenterId, kind: PlannerKind, ck: ReplayCheckpoint) {
        self.latest
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert((dc.letter(), kind.label()), ck);
    }

    /// Whether the chaos hook should fire now (consumes the one-shot).
    fn chaos_take(&self, chaos: &ChaosConfig) -> bool {
        if chaos.one_shot {
            !self.chaos_fired.swap(true, Ordering::SeqCst)
        } else {
            true
        }
    }

    /// Runs one attempt of one cell. Journal appends take the lock per
    /// record and never hold it across replay work. On a watchdog stop
    /// with retries left, checkpoints and reports `Transient`; on the
    /// final attempt the cell degrades with its partial report instead.
    fn run_attempt(
        &self,
        dc: DataCenterId,
        kind: PlannerKind,
        study: &Study,
        watch: &CellWatch,
        attempt: usize,
        final_attempt: bool,
    ) -> Result<CellRun, SuperviseError> {
        let spec = self.spec;
        let abort_cell = |error: String| CellReport {
            dc,
            kind,
            outcome: CellOutcome::Aborted { error },
            report: None,
            cost: None,
        };
        let config = *study.config();
        let plan = match study.plan(kind) {
            Ok(p) => p,
            Err(e) => {
                let cell = abort_cell(e.to_string());
                append_cell_done(&mut self.journal(), &cell)?;
                return Ok(CellRun::Done(Box::new(cell)));
            }
        };
        let n_hosts = plan.dc.len();
        let mut scratch = CheckScratch::default();
        let mut prev_ckpt = self.latest_ckpt(dc, kind);
        if attempt > 1 {
            // The previous attempt died uncleanly; re-validate the
            // restart point before trusting it.
            if let Some(ck) = prev_ckpt.as_ref() {
                if let Err(violation) = check_retry_checkpoint(ck, n_hosts) {
                    let record = self.journal().records().len();
                    return Err(SuperviseError::Invariant { violation, record });
                }
            }
        }
        let mut replay = match prev_ckpt.as_ref() {
            Some(ck) => Replay::resume(
                study.input(),
                &plan,
                &config.emulator,
                spec.faults.as_ref(),
                ck,
            )?,
            None => {
                if attempt == 1 {
                    self.journal().append(
                        format!("cell-start {} {}", dc.letter(), kind.label()).as_bytes(),
                    )?;
                }
                match Replay::new(
                    study.input(),
                    &plan,
                    &config.emulator,
                    spec.faults.as_ref(),
                ) {
                    Ok(r) => r,
                    Err(e) => {
                        let cell = abort_cell(e.to_string());
                        append_cell_done(&mut self.journal(), &cell)?;
                        return Ok(CellRun::Done(Box::new(cell)));
                    }
                }
            }
        };
        replay.set_heartbeat(Arc::clone(&watch.heartbeat));
        watch.hours.store(replay.hour(), Ordering::SeqCst);
        watch.heartbeat.beat();
        let chaos = self.opts.chaos.as_ref().filter(|c| c.matches(dc, kind));

        let cell_started = Instant::now();
        let outcome = loop {
            if self.token.is_cancelled() || self.abort.load(Ordering::SeqCst) {
                let ck = replay.checkpoint();
                append_checkpoint(&mut self.journal(), dc, kind, &ck)?;
                self.remember_ckpt(dc, kind, ck);
                if self.token.is_cancelled() {
                    self.interrupted.store(true, Ordering::SeqCst);
                }
                return Ok(CellRun::Yielded);
            }
            if watch.fired.load(Ordering::SeqCst) {
                let reason = watch
                    .reason
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .take()
                    .unwrap_or_else(|| "watchdog fired".to_owned());
                if final_attempt {
                    // No retries left: keep the partial work as a
                    // degraded cell instead of quarantining silence.
                    break CellOutcome::Degraded {
                        reason,
                        hours_done: replay.hour(),
                    };
                }
                let ck = replay.checkpoint();
                append_checkpoint(&mut self.journal(), dc, kind, &ck)?;
                self.remember_ckpt(dc, kind, ck);
                return Ok(CellRun::Transient {
                    kind: "watchdog",
                    message: reason,
                    backtrace: String::new(),
                });
            }
            if replay.is_done() {
                break CellOutcome::Completed;
            }
            if let Some(max_hours) = spec.budget.max_hours {
                if replay.hour() >= max_hours {
                    break CellOutcome::Degraded {
                        reason: format!("step budget of {max_hours} hours exhausted"),
                        hours_done: replay.hour(),
                    };
                }
            }
            if let Some(max_secs) = spec.budget.max_wall_secs {
                let elapsed = cell_started.elapsed().as_secs_f64();
                if elapsed > max_secs {
                    break CellOutcome::Degraded {
                        reason: format!("wall-clock budget of {max_secs}s exhausted"),
                        hours_done: replay.hour(),
                    };
                }
            }
            if let Some(c) = chaos {
                if replay.hour() == c.hour && self.chaos_take(c) {
                    match c.mode {
                        ChaosMode::Panic => panic!(
                            "chaos: injected panic in cell {}/{} before hour {}",
                            dc.letter(),
                            kind.label(),
                            c.hour
                        ),
                        ChaosMode::Hang => {
                            // Go silent until the watchdog (or a
                            // cancellation) notices; bounded so a
                            // watchdog-less run cannot wedge forever.
                            let hung = Instant::now();
                            while !watch.fired.load(Ordering::SeqCst)
                                && !self.token.is_cancelled()
                                && !self.abort.load(Ordering::SeqCst)
                                && hung.elapsed() < Duration::from_secs(30)
                            {
                                std::thread::sleep(Duration::from_millis(10));
                            }
                            continue;
                        }
                    }
                }
            }
            if let Err(e) = replay.step() {
                break CellOutcome::Aborted {
                    error: e.to_string(),
                };
            }
            self.token.note_hour();
            watch.hours.store(replay.hour(), Ordering::SeqCst);
            if replay.hour() % spec.checkpoint_every_hours == 0 || replay.is_done() {
                let ck = replay.checkpoint();
                if let Err(violation) =
                    check_checkpoint_with(&mut scratch, &ck, n_hosts, prev_ckpt.as_ref())
                {
                    let record = self.journal().records().len();
                    return Err(SuperviseError::Invariant { violation, record });
                }
                append_checkpoint(&mut self.journal(), dc, kind, &ck)?;
                self.remember_ckpt(dc, kind, ck.clone());
                prev_ckpt = Some(ck);
            }
        };

        let cell = match outcome {
            CellOutcome::Aborted { error } => abort_cell(error),
            outcome => {
                let report = replay.into_report();
                let cost = cost_summary(&report, &config.cost_model);
                CellReport {
                    dc,
                    kind,
                    outcome,
                    report: Some(report),
                    cost: Some(cost),
                }
            }
        };
        append_cell_done(&mut self.journal(), &cell)?;
        Ok(CellRun::Done(Box::new(cell)))
    }

    fn set_health(
        &self,
        dc: DataCenterId,
        kind: PlannerKind,
        state: &'static str,
        attempt: usize,
        hours_done: Option<usize>,
    ) {
        let mut health = self
            .health
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let entry = health
            .entry((dc.letter(), kind.label()))
            .or_insert_with(|| CellHealthState {
                state: "pending",
                attempt: 0,
                hours_done: 0,
                incidents: Vec::new(),
            });
        entry.state = state;
        entry.attempt = attempt;
        if let Some(hours) = hours_done {
            entry.hours_done = hours;
        }
    }

    fn push_incident(&self, dc: DataCenterId, kind: PlannerKind, incident: String) {
        let mut health = self
            .health
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(entry) = health.get_mut(&(dc.letter(), kind.label())) {
            entry.incidents.push(incident);
        }
    }

    /// Composes the health board and live watch telemetry into one
    /// snapshot, grid order.
    fn health_snapshot(&self, status: &str) -> HealthSnapshot {
        let hours_total = self.spec.eval_days * 24;
        let watches = self
            .watches
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let health = self
            .health
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut cells = Vec::new();
        for &dc in &self.spec.dcs {
            for &kind in &self.spec.planners {
                let key = (dc.letter(), kind.label());
                let (state, attempt, mut hours_done, incidents) = match health.get(&key) {
                    Some(h) => (h.state, h.attempt, h.hours_done, h.incidents.clone()),
                    None => ("pending", 0, 0, Vec::new()),
                };
                let mut steps = 0;
                let mut beat_age_secs = 0.0;
                let mut steps_per_sec = 0.0;
                if let Some(w) = watches
                    .iter()
                    .rev()
                    .find(|w| w.dc == key.0 && w.planner == key.1)
                {
                    steps = w.heartbeat.steps();
                    beat_age_secs = w.heartbeat.secs_since_last_beat();
                    let elapsed = w.started.elapsed().as_secs_f64();
                    if elapsed > 0.0 {
                        steps_per_sec = steps as f64 / elapsed;
                    }
                    if state == "running" {
                        hours_done = w.hours.load(Ordering::SeqCst);
                    }
                }
                cells.push(CellHealth {
                    cell: format!("{}/{}", key.0, key.1),
                    state: state.to_owned(),
                    attempt,
                    hours_done,
                    hours_total,
                    steps,
                    beat_age_secs,
                    steps_per_sec,
                    incidents,
                });
            }
        }
        HealthSnapshot {
            status: status.to_owned(),
            cells,
            serve: None,
        }
    }

    /// Atomically (re)writes `health.json`. Telemetry is best-effort by
    /// design: a failed write never fails the study.
    fn write_health(&self, status: &str) {
        let snapshot = self.health_snapshot(status);
        let _ = write_atomic(&self.dir.join(HEALTH_FILE), snapshot.to_json().as_bytes());
    }

    /// Monitor loop: watchdog sweep, heartbeat watermarks, periodic
    /// `health.json` rewrites. Exits when `monitor_stop` is set.
    fn monitor(&self) {
        let mut last_health = Instant::now();
        loop {
            if self.monitor_stop.load(Ordering::SeqCst) {
                return;
            }
            self.sweep_watchdog();
            self.journal_watermarks();
            if last_health.elapsed() >= Duration::from_millis(500) {
                let status = if self.token.is_cancelled() {
                    "interrupted"
                } else {
                    "running"
                };
                self.write_health(status);
                last_health = Instant::now();
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Fires the cooperative watchdog on any armed cell whose heartbeat
    /// is older than the session deadline.
    fn sweep_watchdog(&self) {
        let Some(timeout) = self.opts.heartbeat_timeout_secs else {
            return;
        };
        let watches = self
            .watches
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for w in watches.iter() {
            if !w.armed.load(Ordering::SeqCst) || w.fired.load(Ordering::SeqCst) {
                continue;
            }
            let age = w.heartbeat.secs_since_last_beat();
            if age > timeout {
                *w.reason
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(format!(
                    "watchdog: no heartbeat for {age:.1}s (timeout {timeout}s)"
                ));
                w.fired.store(true, Ordering::SeqCst);
            }
        }
    }

    /// Journals a `heartbeat` progress watermark (at most one per cell
    /// per ~2s, only when hours advanced) so a post-mortem can tell how
    /// far a dead cell actually got between checkpoints. Best-effort.
    fn journal_watermarks(&self) {
        let watches = self
            .watches
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for w in watches.iter() {
            if !w.armed.load(Ordering::SeqCst) {
                continue;
            }
            let hours = w.hours.load(Ordering::SeqCst);
            let mut wm = w
                .watermark
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if wm.0.elapsed() >= Duration::from_secs(2) && hours > wm.1 {
                *wm = (Instant::now(), hours);
                drop(wm);
                let _ = self
                    .journal()
                    .append(format!("heartbeat {} {} {hours}", w.dc, w.planner).as_bytes());
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn drive(
    spec: StudySpec,
    journal: Journal,
    done: BTreeMap<(char, &'static str), CellReport>,
    ckpts: BTreeMap<(char, &'static str), ReplayCheckpoint>,
    run_done: bool,
    tail_dropped: Option<TailCorruption>,
    dir: &Path,
    token: &CancelToken,
    opts: &RunOptions,
) -> Result<StudyReport, SuperviseError> {
    // The grid in output order (data center major, planner minor); done
    // cells slot straight in, the rest are claimed by workers.
    let grid: Vec<(DataCenterId, PlannerKind)> = spec
        .dcs
        .iter()
        .flat_map(|&dc| spec.planners.iter().map(move |&kind| (dc, kind)))
        .collect();
    let mut slots: Vec<Option<CellReport>> = grid
        .iter()
        .map(|&(dc, kind)| done.get(&(dc.letter(), kind.label())).cloned())
        .collect();
    let mut pending: Vec<usize> = (0..grid.len()).filter(|&i| slots[i].is_none()).collect();

    let workers = opts.jobs.max(1).min(pending.len().max(1));
    if workers > 1 {
        // Claim planner-major so concurrent workers start on *different*
        // data centers and their `Study::prepare` calls overlap instead
        // of serialising on one `OnceLock`. Output order is unaffected:
        // finished cells are merged back by grid index.
        let planners = spec.planners.len().max(1);
        pending.sort_by_key(|&idx| (idx % planners, idx / planners));
    }

    let exec = Executor {
        spec: &spec,
        opts,
        dir,
        journal: Mutex::new(journal),
        token,
        studies: spec.dcs.iter().map(|_| OnceLock::new()).collect(),
        latest: Mutex::new(ckpts),
        next: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
        interrupted: AtomicBool::new(false),
        fatal: Mutex::new(None),
        finished: Mutex::new(Vec::new()),
        watches: Mutex::new(Vec::new()),
        health: Mutex::new(BTreeMap::new()),
        chaos_fired: AtomicBool::new(false),
        monitor_stop: AtomicBool::new(false),
    };

    // Seed the health board with terminal outcomes restored from the
    // journal, so a resumed run's health.json covers the whole grid.
    for cell in slots.iter().flatten() {
        let attempt = match &cell.outcome {
            CellOutcome::Quarantined { attempts, .. } => *attempts,
            _ => 1,
        };
        let hours = cell.report.as_ref().map_or(0, |r| r.hours);
        exec.set_health(cell.dc, cell.kind, cell.outcome.label(), attempt, Some(hours));
    }
    exec.write_health(if pending.is_empty() { "completed" } else { "running" });

    if !pending.is_empty() {
        if token.is_cancelled() {
            exec.interrupted.store(true, Ordering::SeqCst);
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| s.spawn(|| exec.work(&grid, &pending)))
                    .collect();
                let monitor = s.spawn(|| exec.monitor());
                let mut worker_panic = None;
                for h in handles {
                    if let Err(p) = h.join() {
                        worker_panic = Some(p);
                    }
                }
                exec.monitor_stop.store(true, Ordering::SeqCst);
                if let Err(p) = monitor.join() {
                    worker_panic = Some(p);
                }
                // Cell panics are caught inside the workers; anything
                // arriving here is a supervisor bug and must surface.
                if let Some(p) = worker_panic {
                    std::panic::resume_unwind(p);
                }
            });
        }
    }

    if let Some(e) = exec
        .fatal
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take()
    {
        exec.write_health("failed");
        return Err(e);
    }
    for (idx, cell) in exec
        .finished
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .drain(..)
    {
        slots[idx] = Some(cell);
    }
    let cells: Vec<CellReport> = slots.into_iter().flatten().collect();

    let status = if exec.interrupted.load(Ordering::SeqCst) {
        StudyStatus::Interrupted
    } else {
        StudyStatus::Completed
    };
    if status == StudyStatus::Completed {
        if !run_done {
            exec.journal().append(b"run-done")?;
        }
        exec.write_health("completed");
        let report = StudyReport {
            spec,
            status,
            cells,
            tail_dropped,
        };
        write_outputs(dir, &report)?;
        return Ok(report);
    }
    exec.write_health("interrupted");
    Ok(StudyReport {
        spec,
        status,
        cells,
        tail_dropped,
    })
}

fn append_checkpoint(
    journal: &mut Journal,
    dc: DataCenterId,
    kind: PlannerKind,
    ck: &ReplayCheckpoint,
) -> Result<(), SuperviseError> {
    let payload = format!(
        "checkpoint {} {}\n{}",
        dc.letter(),
        kind.label(),
        ck.encode()
    );
    journal.append(payload.as_bytes())?;
    Ok(())
}

fn append_cell_done(journal: &mut Journal, cell: &CellReport) -> Result<(), SuperviseError> {
    let head = match &cell.outcome {
        CellOutcome::Completed => {
            format!("cell-done {} {} completed", cell.dc.letter(), cell.kind.label())
        }
        CellOutcome::Degraded { reason, hours_done } => format!(
            "cell-done {} {} degraded {hours_done} {reason}",
            cell.dc.letter(),
            cell.kind.label()
        ),
        CellOutcome::Aborted { error } => format!(
            "cell-done {} {} aborted {error}",
            cell.dc.letter(),
            cell.kind.label()
        ),
        CellOutcome::Crashed { message, .. } => format!(
            "cell-done {} {} crashed {message}",
            cell.dc.letter(),
            cell.kind.label()
        ),
        CellOutcome::Quarantined { attempts, .. } => format!(
            "cell-done {} {} quarantined {attempts}",
            cell.dc.letter(),
            cell.kind.label()
        ),
    };
    let payload = match &cell.outcome {
        CellOutcome::Quarantined { incidents, .. } if !incidents.is_empty() => {
            format!("{head}\n{}", incidents.join("\n"))
        }
        CellOutcome::Crashed { backtrace, .. } if !backtrace.is_empty() => {
            format!("{head}\n{backtrace}")
        }
        _ => match (&cell.cost, &cell.report) {
            (Some(cost), Some(report)) => {
                format!("{head}\n{}\n{}", encode_cost(cost), encode_report(report))
            }
            _ => head,
        },
    };
    journal.append(payload.as_bytes())?;
    Ok(())
}

/// Journals a `cell-crashed` incident: head carries the attempt number,
/// incident kind (`panic` | `watchdog`) and single-line message, the
/// body the backtrace.
fn append_cell_crashed(
    journal: &mut Journal,
    dc: DataCenterId,
    kind: PlannerKind,
    attempt: usize,
    incident_kind: &str,
    message: &str,
    backtrace: &str,
) -> Result<(), SuperviseError> {
    let head = format!(
        "cell-crashed {} {} {attempt} {incident_kind} {message}",
        dc.letter(),
        kind.label()
    );
    let payload = if backtrace.is_empty() {
        head
    } else {
        format!("{head}\n{backtrace}")
    };
    journal.append(payload.as_bytes())?;
    Ok(())
}

/// Journals the decision to re-run a cell as `attempt`.
fn append_cell_retried(
    journal: &mut Journal,
    dc: DataCenterId,
    kind: PlannerKind,
    attempt: usize,
) -> Result<(), SuperviseError> {
    journal.append(format!("cell-retried {} {} {attempt}", dc.letter(), kind.label()).as_bytes())?;
    Ok(())
}

/// Renders the per-cell results table (`cells.csv`). Deterministic: no
/// timestamps or timings, and the digest column is the FNV-1a of the
/// cell report's canonical encoding, so two bit-identical runs produce
/// byte-identical CSVs.
#[must_use]
pub fn cells_table(report: &StudyReport) -> Table {
    let mut t = Table::new(
        "cells",
        &[
            "dc",
            "planner",
            "outcome",
            "hours",
            "hosts",
            "energy_kwh",
            "migrations",
            "crashes",
            "evacuations",
            "downtime_vm_hours",
            "stale_sample_hours",
            "space_cost",
            "power_cost",
            "digest",
        ],
    );
    for cell in &report.cells {
        let (hours, hosts, energy, migrations, crashes, evac, down, stale, digest) =
            match &cell.report {
                Some(r) => (
                    r.hours.to_string(),
                    r.provisioned_hosts.to_string(),
                    fnum(r.energy_kwh, 3),
                    r.migrations.to_string(),
                    r.faults.host_crashes.to_string(),
                    r.faults.evacuations.to_string(),
                    r.faults.downtime_vm_hours.to_string(),
                    r.faults.stale_sample_hours.to_string(),
                    format!("{:016x}", fnv1a(encode_report(r).as_bytes())),
                ),
                None => (
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ),
            };
        let (space, power) = match &cell.cost {
            Some(c) => (fnum(c.space_cost, 2), fnum(c.power_cost, 2)),
            None => ("-".into(), "-".into()),
        };
        t.push_row([
            cell.dc.letter().to_string(),
            cell.kind.label().to_owned(),
            cell.outcome.label().to_owned(),
            hours,
            hosts,
            energy,
            migrations,
            crashes,
            evac,
            down,
            stale,
            space,
            power,
            digest,
        ]);
    }
    t
}

fn write_outputs(dir: &Path, report: &StudyReport) -> Result<(), SuperviseError> {
    let io_err = |path: &Path| {
        let path = path.to_path_buf();
        move |source| {
            SuperviseError::Journal(JournalError::Io {
                path: path.clone(),
                source,
            })
        }
    };
    let csv_path = dir.join("cells.csv");
    write_atomic(&csv_path, cells_table(report).to_csv().as_bytes())
        .map_err(io_err(&csv_path))?;
    let md_path = dir.join("STUDY.md");
    let md = crate::experiments::study_markdown(report);
    write_atomic(&md_path, md.as_bytes()).map_err(io_err(&md_path))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vmcw-supervise-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn jobs(n: usize) -> RunOptions {
        RunOptions {
            jobs: n,
            ..RunOptions::default()
        }
    }

    fn tiny_spec() -> StudySpec {
        StudySpec {
            dcs: vec![DataCenterId::Airlines],
            planners: vec![PlannerKind::SemiStatic, PlannerKind::Dynamic],
            ..StudySpec::new(0.02, 5, 5, 1)
        }
    }

    #[test]
    fn spec_round_trips_through_its_encoding() {
        let mut spec = StudySpec::new(0.05, 42, 7, 5);
        spec.faults = Some(FaultConfig::baseline(31));
        spec.budget = CellBudget {
            max_wall_secs: Some(12.5),
            max_hours: Some(48),
        };
        let decoded = StudySpec::decode(&spec.encode()).unwrap();
        assert_eq!(spec, decoded);
        // And the none-variants too.
        let plain = StudySpec::new(1.0, 0, 30, 14);
        assert_eq!(plain, StudySpec::decode(&plain.encode()).unwrap());
    }

    #[test]
    fn fresh_study_completes_and_writes_outputs() {
        let dir = tmp_dir("fresh");
        let report = run_study_opts(&tiny_spec(), &dir, &CancelToken::new(), &jobs(1)).unwrap();
        assert_eq!(report.status, StudyStatus::Completed);
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert_eq!(cell.outcome, CellOutcome::Completed);
            assert_eq!(cell.report.as_ref().unwrap().hours, 24);
        }
        assert!(dir.join("cells.csv").exists());
        assert!(dir.join("STUDY.md").exists());
        // Starting over in the same directory is refused.
        let err = run_study_opts(&tiny_spec(), &dir, &CancelToken::new(), &jobs(1)).unwrap_err();
        assert!(matches!(
            err,
            SuperviseError::Journal(JournalError::AlreadyExists { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn over_budget_cells_degrade_instead_of_killing_the_study() {
        let dir = tmp_dir("degraded");
        let mut spec = tiny_spec();
        spec.budget.max_hours = Some(10);
        let report = run_study_opts(&spec, &dir, &CancelToken::new(), &jobs(1)).unwrap();
        assert_eq!(report.status, StudyStatus::Completed);
        for cell in &report.cells {
            match &cell.outcome {
                CellOutcome::Degraded { hours_done, .. } => assert_eq!(*hours_done, 10),
                other => panic!("expected degraded, got {other:?}"),
            }
            let r = cell.report.as_ref().unwrap();
            assert_eq!(r.hours, 10, "partial report covers completed hours");
            assert!(cell.cost.is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_study_resumes_to_identical_reports() {
        let clean_dir = tmp_dir("clean");
        let spec = tiny_spec();
        let clean = run_study_opts(&spec, &clean_dir, &CancelToken::new(), &jobs(1)).unwrap();

        let killed_dir = tmp_dir("killed");
        let token = CancelToken::new();
        token.cancel_after_hours(30); // mid second cell
        let partial = run_study_opts(&spec, &killed_dir, &token, &jobs(1)).unwrap();
        assert_eq!(partial.status, StudyStatus::Interrupted);
        assert!(partial.cells.len() < clean.cells.len() || partial.cells.is_empty());

        let resumed = resume_study_opts(&killed_dir, None, &CancelToken::new(), &jobs(1)).unwrap();
        assert_eq!(resumed.status, StudyStatus::Completed);
        assert_eq!(resumed.cells.len(), clean.cells.len());
        for (a, b) in clean.cells.iter().zip(&resumed.cells) {
            assert_eq!(
                encode_report(a.report.as_ref().unwrap()),
                encode_report(b.report.as_ref().unwrap()),
                "cell {}/{} diverged",
                a.dc.letter(),
                a.kind.label()
            );
        }
        // cells.csv must be byte-identical too.
        assert_eq!(
            std::fs::read(clean_dir.join("cells.csv")).unwrap(),
            std::fs::read(killed_dir.join("cells.csv")).unwrap()
        );
        // Resuming a completed journal is idempotent.
        let again = resume_study_opts(&killed_dir, None, &CancelToken::new(), &jobs(1)).unwrap();
        assert_eq!(again.cells.len(), clean.cells.len());
        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&killed_dir);
    }

    #[test]
    fn worker_count_does_not_change_outputs() {
        let spec = StudySpec {
            dcs: vec![DataCenterId::Airlines, DataCenterId::Banking],
            planners: vec![PlannerKind::SemiStatic, PlannerKind::Dynamic],
            ..StudySpec::new(0.02, 5, 5, 1)
        };
        let serial_dir = tmp_dir("jobs-serial");
        let serial = run_study_opts(&spec, &serial_dir, &CancelToken::new(), &jobs(1)).unwrap();
        let parallel_dir = tmp_dir("jobs-parallel");
        let parallel = run_study_opts(&spec, &parallel_dir, &CancelToken::new(), &jobs(4)).unwrap();
        assert_eq!(serial.status, StudyStatus::Completed);
        assert_eq!(parallel.status, StudyStatus::Completed);
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!((a.dc, a.kind), (b.dc, b.kind), "grid order must match");
            assert_eq!(
                encode_report(a.report.as_ref().unwrap()),
                encode_report(b.report.as_ref().unwrap()),
                "cell {}/{} diverged across worker counts",
                a.dc.letter(),
                a.kind.label()
            );
        }
        for file in ["cells.csv", "STUDY.md"] {
            assert_eq!(
                std::fs::read(serial_dir.join(file)).unwrap(),
                std::fs::read(parallel_dir.join(file)).unwrap(),
                "{file} differs between --jobs 1 and --jobs 4"
            );
        }
        let _ = std::fs::remove_dir_all(&serial_dir);
        let _ = std::fs::remove_dir_all(&parallel_dir);
    }

    #[test]
    fn parallel_study_killed_and_resumed_matches_serial() {
        let spec = StudySpec {
            dcs: vec![DataCenterId::Airlines, DataCenterId::Banking],
            planners: vec![PlannerKind::SemiStatic, PlannerKind::Dynamic],
            ..StudySpec::new(0.02, 5, 5, 1)
        };
        let clean_dir = tmp_dir("par-clean");
        let clean = run_study_opts(&spec, &clean_dir, &CancelToken::new(), &jobs(1)).unwrap();

        let killed_dir = tmp_dir("par-killed");
        let token = CancelToken::new();
        token.cancel_after_hours(30); // fires with several cells in flight
        let partial = run_study_opts(&spec, &killed_dir, &token, &jobs(4)).unwrap();
        assert_eq!(partial.status, StudyStatus::Interrupted);

        // Resume under a different worker count than the original run.
        let resumed = resume_study_opts(&killed_dir, None, &CancelToken::new(), &jobs(2)).unwrap();
        assert_eq!(resumed.status, StudyStatus::Completed);
        assert_eq!(resumed.cells.len(), clean.cells.len());
        for (a, b) in clean.cells.iter().zip(&resumed.cells) {
            assert_eq!(
                encode_report(a.report.as_ref().unwrap()),
                encode_report(b.report.as_ref().unwrap()),
                "cell {}/{} diverged after parallel kill+resume",
                a.dc.letter(),
                a.kind.label()
            );
        }
        assert_eq!(
            std::fs::read(clean_dir.join("cells.csv")).unwrap(),
            std::fs::read(killed_dir.join("cells.csv")).unwrap()
        );
        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&killed_dir);
    }

    #[test]
    fn resume_without_journal_fails_cleanly() {
        let dir = tmp_dir("nojournal");
        std::fs::create_dir_all(&dir).unwrap();
        let err = resume_study_opts(&dir, None, &CancelToken::new(), &jobs(1)).unwrap_err();
        assert!(matches!(err, SuperviseError::Journal(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_token_fires_after_armed_hours() {
        let t = CancelToken::new();
        t.cancel_after_hours(3);
        assert!(!t.is_cancelled());
        t.note_hour();
        t.note_hour();
        assert!(!t.is_cancelled());
        t.note_hour();
        assert!(t.is_cancelled());
    }

    #[test]
    fn chaos_cell_ids_parse_and_reject() {
        let c = ChaosConfig::for_cell("B/Dynamic", 3, ChaosMode::Panic, true).unwrap();
        assert_eq!((c.dc, c.planner.as_str(), c.hour), ('B', "Dynamic", 3));
        assert!(c.one_shot);
        // Case-insensitive letter, whitespace tolerated.
        assert!(ChaosConfig::for_cell(" a / Semi-Static ", 0, ChaosMode::Hang, false).is_some());
        for bad in ["", "Dynamic", "Z/Dynamic", "A/NoSuchPlanner", "A/"] {
            assert!(
                ChaosConfig::for_cell(bad, 0, ChaosMode::Panic, false).is_none(),
                "`{bad}` should not parse"
            );
        }
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_jittered() {
        let p = CellRetryPolicy::default_policy();
        let a = p.backoff_secs(5, 'B', "Dynamic", 2);
        assert_eq!(a, p.backoff_secs(5, 'B', "Dynamic", 2), "same key, same wait");
        // Jitter stays within [0.5, 1.5) of the base.
        assert!(a >= p.base_backoff_secs * 0.5 && a < p.base_backoff_secs * 1.5);
        // Distinct cells de-synchronise.
        assert_ne!(a, p.backoff_secs(5, 'A', "Dynamic", 2));
        // Later attempts wait longer on average (factor 2 beats jitter's
        // worst case 1.5/0.5 only after two doublings, so compare 2 vs 4).
        assert!(p.backoff_secs(5, 'B', "Dynamic", 4) > a);
    }

    /// A cell whose every attempt panics is quarantined with its
    /// incident log; its sibling completes untouched; the journal holds
    /// the crash/retry records and resumes idempotently.
    #[test]
    fn panicking_cell_quarantines_and_spares_siblings() {
        let dir = tmp_dir("quarantine");
        let opts = RunOptions {
            retry: CellRetryPolicy {
                max_attempts: 2,
                base_backoff_secs: 0.01,
                backoff_factor: 2.0,
            },
            chaos: ChaosConfig::for_cell("B/Dynamic", 2, ChaosMode::Panic, false),
            ..RunOptions::default()
        };
        let report = run_study_opts(&tiny_spec(), &dir, &CancelToken::new(), &opts).unwrap();
        assert_eq!(report.status, StudyStatus::Completed);
        assert_eq!(report.cells.len(), 2);
        let semi = &report.cells[0];
        assert_eq!(semi.kind, PlannerKind::SemiStatic);
        assert_eq!(semi.outcome, CellOutcome::Completed, "sibling must be spared");
        let dynamic = &report.cells[1];
        match &dynamic.outcome {
            CellOutcome::Quarantined {
                attempts,
                incidents,
            } => {
                assert_eq!(*attempts, 2);
                assert_eq!(incidents.len(), 2);
                assert!(incidents[0].starts_with("attempt 1: panic:"), "{incidents:?}");
                assert!(incidents[1].contains("chaos: injected panic"), "{incidents:?}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(dynamic.report.is_none());

        // The journal narrates the incident.
        let (journal, tail) = Journal::open(&dir.join(JOURNAL_FILE)).unwrap();
        assert!(tail.is_none());
        let texts: Vec<String> = journal
            .records()
            .iter()
            .map(|r| String::from_utf8_lossy(r).into_owned())
            .collect();
        assert_eq!(
            texts.iter().filter(|t| t.starts_with("cell-crashed B Dynamic")).count(),
            2
        );
        assert!(texts.iter().any(|t| t.starts_with("cell-retried B Dynamic 2")));
        assert!(texts.iter().any(|t| t.starts_with("cell-done B Dynamic quarantined 2")));

        // Health telemetry reflects the quarantine.
        let health_text = std::fs::read_to_string(dir.join(HEALTH_FILE)).unwrap();
        let health = HealthSnapshot::parse(&health_text).unwrap();
        assert_eq!(health.status, "completed");
        let cell = health.cells.iter().find(|c| c.cell == "B/Dynamic").unwrap();
        assert_eq!(cell.state, "quarantined");
        assert_eq!(cell.attempt, 2);
        assert_eq!(cell.incidents.len(), 2);

        // STUDY.md carries the failure matrix.
        let md = std::fs::read_to_string(dir.join("STUDY.md")).unwrap();
        assert!(md.contains("## Failure matrix"), "{md}");

        // Resuming the quarantined study is idempotent.
        let again = resume_study_opts(&dir, None, &CancelToken::new(), &jobs(1)).unwrap();
        assert_eq!(again.status, StudyStatus::Completed);
        assert_eq!(again.cells[1].outcome, dynamic.outcome);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One transient panic heals through retry: the final outputs are
    /// byte-identical to a run that never crashed.
    #[test]
    fn one_shot_panic_heals_byte_identically() {
        let clean_dir = tmp_dir("heal-clean");
        let spec = tiny_spec();
        let clean = run_study_opts(&spec, &clean_dir, &CancelToken::new(), &jobs(1)).unwrap();

        let chaos_dir = tmp_dir("heal-chaos");
        let opts = RunOptions {
            retry: CellRetryPolicy {
                max_attempts: 3,
                base_backoff_secs: 0.01,
                backoff_factor: 2.0,
            },
            chaos: ChaosConfig::for_cell("B/Dynamic", 7, ChaosMode::Panic, true),
            ..RunOptions::default()
        };
        let healed = run_study_opts(&spec, &chaos_dir, &CancelToken::new(), &opts).unwrap();
        assert_eq!(healed.status, StudyStatus::Completed);
        for (a, b) in clean.cells.iter().zip(&healed.cells) {
            assert_eq!(a.outcome, CellOutcome::Completed);
            assert_eq!(b.outcome, CellOutcome::Completed, "healed run must complete");
            assert_eq!(
                encode_report(a.report.as_ref().unwrap()),
                encode_report(b.report.as_ref().unwrap()),
                "cell {}/{} diverged after a healed crash",
                a.dc.letter(),
                a.kind.label()
            );
        }
        for file in ["cells.csv", "STUDY.md"] {
            assert_eq!(
                std::fs::read(clean_dir.join(file)).unwrap(),
                std::fs::read(chaos_dir.join(file)).unwrap(),
                "{file} differs between clean and healed runs"
            );
        }
        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&chaos_dir);
    }

    /// A hang is detected by the watchdog, retried, and heals to a
    /// byte-identical result; a *persistent* hang degrades with the
    /// partial report instead of wedging or quarantining silence.
    #[test]
    fn watchdog_turns_hangs_into_retries_or_degraded() {
        let clean_dir = tmp_dir("hang-clean");
        let spec = tiny_spec();
        let clean = run_study_opts(&spec, &clean_dir, &CancelToken::new(), &jobs(1)).unwrap();

        // One-shot hang: watchdog fires, the retry heals the cell.
        let healed_dir = tmp_dir("hang-healed");
        let opts = RunOptions {
            retry: CellRetryPolicy {
                max_attempts: 2,
                base_backoff_secs: 0.01,
                backoff_factor: 2.0,
            },
            heartbeat_timeout_secs: Some(1.5),
            chaos: ChaosConfig::for_cell("B/Dynamic", 2, ChaosMode::Hang, true),
            ..RunOptions::default()
        };
        let healed = run_study_opts(&spec, &healed_dir, &CancelToken::new(), &opts).unwrap();
        assert_eq!(healed.status, StudyStatus::Completed);
        for (a, b) in clean.cells.iter().zip(&healed.cells) {
            assert_eq!(b.outcome, CellOutcome::Completed, "{:?}", b.outcome);
            assert_eq!(
                encode_report(a.report.as_ref().unwrap()),
                encode_report(b.report.as_ref().unwrap())
            );
        }
        assert_eq!(
            std::fs::read(clean_dir.join("cells.csv")).unwrap(),
            std::fs::read(healed_dir.join("cells.csv")).unwrap()
        );
        let (journal, _) = Journal::open(&healed_dir.join(JOURNAL_FILE)).unwrap();
        assert!(
            journal.records().iter().any(|r| {
                std::str::from_utf8(r).is_ok_and(|t| {
                    t.starts_with("cell-crashed B Dynamic 1 watchdog")
                })
            }),
            "watchdog stop must be journaled as a crash incident"
        );

        // Persistent hang: the final attempt keeps the completed prefix.
        let degraded_dir = tmp_dir("hang-degraded");
        let opts = RunOptions {
            chaos: ChaosConfig::for_cell("B/Dynamic", 2, ChaosMode::Hang, false),
            ..opts
        };
        let report = run_study_opts(&spec, &degraded_dir, &CancelToken::new(), &opts).unwrap();
        assert_eq!(report.status, StudyStatus::Completed);
        let dynamic = &report.cells[1];
        match &dynamic.outcome {
            CellOutcome::Degraded { reason, hours_done } => {
                assert!(reason.contains("watchdog"), "{reason}");
                assert_eq!(*hours_done, 2);
            }
            other => panic!("expected watchdog degradation, got {other:?}"),
        }
        assert_eq!(
            dynamic.report.as_ref().unwrap().hours,
            2,
            "partial report covers the completed prefix"
        );
        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&healed_dir);
        let _ = std::fs::remove_dir_all(&degraded_dir);
    }
}
