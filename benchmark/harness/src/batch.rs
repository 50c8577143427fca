//! The batch workloads: `paper-grid`, `fleet-x4` and `crash-resume`.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use vmcw_core::health::{HealthSnapshot, HEALTH_FILE};
use vmcw_core::supervise::{
    resume_study_opts, run_study_opts, CancelToken, CellOutcome, RunOptions, StudyReport,
    StudySpec, StudyStatus, JOURNAL_FILE,
};
use vmcw_emulator::checkpoint::fnv1a;
use vmcw_emulator::faults::FaultConfig;

use crate::err;

/// Worker threads of every timed study.
pub const JOBS: usize = 2;
/// Replay hours after which `crash-resume`'s set-up run is killed:
/// 36 hours short of the paper grid's 4032.
pub const KILL_AFTER_HOURS: u64 = 3996;
/// How often the operator's reads of `health.json` go out. The
/// supervisor rewrites the file every 500 ms (the literal in
/// `supervise.rs`); 45 ms does not divide that, so the reads fall on
/// every phase of the rewrite cycle (100 phases over 4.5 s) instead of
/// locking onto one, and a call makes enough of them for a steady median.
const HEALTH_READ_PERIOD: Duration = Duration::from_millis(45);

/// The paper's experiment: all four data centers and three planners at
/// full scale, 30 + 14 days, baseline faults, checkpoint every 6 hours.
pub fn paper_grid_spec(seed: u64, scale: f64) -> StudySpec {
    let mut spec = StudySpec::new(scale, seed, 30, 14);
    spec.faults = Some(FaultConfig::baseline(seed));
    spec
}

/// The same grid at four times the servers, 7 + 3 days, faults off.
pub fn fleet_spec(seed: u64, scale: f64) -> StudySpec {
    StudySpec::new(scale, seed, 7, 3)
}

fn opts() -> RunOptions {
    RunOptions {
        jobs: JOBS,
        ..RunOptions::default()
    }
}

/// FNV-1a digests of a finished study's `cells.csv` and `STUDY.md`.
pub fn digests(dir: &Path) -> Result<(u64, u64), String> {
    let csv = std::fs::read(dir.join("cells.csv")).map_err(err)?;
    let md = std::fs::read(dir.join("STUDY.md")).map_err(err)?;
    Ok((fnv1a(&csv), fnv1a(&md)))
}

/// Bytes under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Copies the top-level files of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(err)?;
    for e in std::fs::read_dir(from).map_err(err)?.flatten() {
        if e.path().is_file() {
            std::fs::copy(e.path(), to.join(e.file_name())).map_err(err)?;
        }
    }
    Ok(())
}

/// Cells of `report` that did not complete.
pub fn incomplete(report: &StudyReport) -> usize {
    let missing = report.spec.dcs.len() * report.spec.planners.len() - report.cells.len();
    missing
        + report
            .cells
            .iter()
            .filter(|c| c.outcome != CellOutcome::Completed)
            .count()
}

/// `crash-resume`'s set-up: the paper grid on one worker, killed
/// [`KILL_AFTER_HOURS`] replay hours in. Serial, so the journal and the
/// work left to resume are the same on every run.
pub fn prepare_crash(seed: u64, dir: &Path) -> Result<f64, String> {
    let started = Instant::now();
    let token = CancelToken::new();
    token.cancel_after_hours(KILL_AFTER_HOURS);
    let report = run_study_opts(
        &paper_grid_spec(seed, 1.0),
        dir,
        &token,
        &RunOptions::default(),
    )
    .map_err(err)?;
    let secs = started.elapsed().as_secs_f64();
    if report.status != StudyStatus::Interrupted || !dir.join(JOURNAL_FILE).is_file() {
        return Err("the killed set-up run did not leave an interrupted journal".into());
    }
    Ok(secs)
}

/// One timed study call with its outputs checked.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Seconds from spawning the process that made the call until the
    /// call began.
    pub setup: f64,
    /// Peak resident memory of that process, KiB.
    pub rss_kib: u64,
    /// Seconds in the call.
    pub wall: f64,
    /// Replay hours its cells report.
    pub hours: usize,
    /// Cells that did not complete.
    pub incomplete: usize,
    /// Digests of `cells.csv` and `STUDY.md`.
    pub digests: (u64, u64),
    /// Bytes left in the study directory.
    pub disk: u64,
    /// `health.json` read latencies from each read's start, ms.
    pub read_ms: Vec<f64>,
    /// `health.json` reads that failed to parse.
    pub read_failures: usize,
}

/// Reads and parses `dir/health.json`, as one `vmcw health` does, once
/// per [`HEALTH_READ_PERIOD`] from the start of the call until `stop`
/// disconnects. Each read is timed from when it starts: a file has no
/// queue for a late start to wait in, so the poller's own wake-up delay
/// would only add the harness's scheduling noise. Reads before the file
/// first appears are not counted.
fn poll_health(dir: &Path, stop: &Receiver<()>) -> (Vec<f64>, usize) {
    let origin = Instant::now();
    let mut due = Duration::ZERO;
    let mut latencies = Vec::new();
    let mut failures = 0;
    loop {
        let sent = Instant::now();
        if let Ok(bytes) = std::fs::read(dir.join(HEALTH_FILE)) {
            if HealthSnapshot::parse_bytes(&bytes).is_ok() {
                latencies.push(sent.elapsed().as_secs_f64() * 1e3);
            } else {
                failures += 1;
            }
        }
        due += HEALTH_READ_PERIOD;
        let wait = due.saturating_sub(origin.elapsed());
        if stop.recv_timeout(wait) != Err(RecvTimeoutError::Timeout) {
            return (latencies, failures);
        }
    }
}

/// Runs (`spec` given) or resumes (`spec` `None`) the study in `dir`
/// under the timer, with the operator's reads alongside.
pub fn timed(spec: Option<&StudySpec>, dir: &Path) -> Result<Rep, String> {
    let (stop, stopped) = channel();
    let (result, wall, (read_ms, read_failures)) = std::thread::scope(|s| {
        let poller = s.spawn(move || poll_health(dir, &stopped));
        let started = Instant::now();
        let result = match spec {
            Some(spec) => run_study_opts(spec, dir, &CancelToken::new(), &opts()),
            None => resume_study_opts(dir, None, &CancelToken::new(), &opts()),
        };
        let wall = started.elapsed().as_secs_f64();
        drop(stop);
        (result, wall, poller.join().expect("health poller panicked"))
    });
    let report = result.map_err(err)?;
    if report.status != StudyStatus::Completed {
        return Err("study did not complete".into());
    }
    Ok(Rep {
        setup: 0.0,
        rss_kib: 0,
        wall,
        hours: report
            .cells
            .iter()
            .filter_map(|c| c.report.as_ref())
            .map(|r| r.hours)
            .sum(),
        incomplete: incomplete(&report),
        digests: digests(dir)?,
        disk: dir_bytes(dir),
        read_ms,
        read_failures,
    })
}

/// Where a batch workload's timed call starts from.
pub enum Start<'a> {
    /// A fresh study of this spec.
    Fresh(&'a StudySpec),
    /// A copy of the killed study in this directory.
    Resume(&'a Path),
}

impl Start<'_> {
    /// Makes `dir` ready for one timed call (untimed).
    pub fn stage(&self, dir: &Path) -> Result<(), String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(err)?;
        }
        match self {
            Start::Fresh(_) => Ok(()),
            Start::Resume(base) => copy_dir(base, dir),
        }
    }

    /// The spec to pass to [`timed`].
    pub fn spec(&self) -> Option<&StudySpec> {
        match self {
            Start::Fresh(spec) => Some(spec),
            Start::Resume(_) => None,
        }
    }
}

/// Seconds since the Unix epoch, comparable across processes.
pub fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// Peak resident memory of this process, KiB (`VmHWM`).
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

impl Rep {
    /// One line for the parent process: everything but `setup`, with the
    /// Unix time the call began in its place.
    pub fn to_line(&self, began_unix: f64) -> String {
        let mut line = format!(
            "{began_unix:.6} {} {} {} {} {:016x} {:016x} {} {}",
            self.rss_kib,
            self.wall,
            self.hours,
            self.incomplete,
            self.digests.0,
            self.digests.1,
            self.disk,
            self.read_failures
        );
        for r in &self.read_ms {
            line.push_str(&format!(" {r}"));
        }
        line
    }

    /// Inverse of [`to_line`](Self::to_line); `setup` is measured from
    /// `spawned_unix`.
    pub fn parse(line: &str, spawned_unix: f64) -> Result<Self, String> {
        let bad = || format!("malformed timed-call line `{line}`");
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 9 {
            return Err(bad());
        }
        let num = |i: usize| f[i].parse::<f64>().map_err(|_| bad());
        let int = |i: usize| f[i].parse::<u64>().map_err(|_| bad());
        let hex = |i: usize| u64::from_str_radix(f[i], 16).map_err(|_| bad());
        Ok(Self {
            setup: num(0)? - spawned_unix,
            rss_kib: int(1)?,
            wall: num(2)?,
            hours: int(3)? as usize,
            incomplete: int(4)? as usize,
            digests: (hex(5)?, hex(6)?),
            disk: int(7)?,
            read_failures: int(8)? as usize,
            read_ms: f[9..]
                .iter()
                .map(|r| r.parse().map_err(|_| bad()))
                .collect::<Result<_, _>>()?,
        })
    }
}

/// The timed call of one process: the study in `dir`, then one line
/// for [`reps`] on standard output.
pub fn child(spec: Option<&StudySpec>, dir: &Path) -> Result<String, String> {
    let began = unix_now();
    let mut rep = timed(spec, dir)?;
    rep.rss_kib = peak_rss_kib();
    Ok(rep.to_line(began))
}

/// Seconds from spawning a timed call's process until the call would
/// begin, `n` times: each child does everything a timed call's child
/// does before it (`child_args` plus `--setup-only 1`), prints that
/// instant and exits.
fn setup_probes(child_args: &[String], n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(err)?;
    (0..n)
        .map(|_| {
            let spawned = unix_now();
            let child = Command::new(&exe)
                .args(child_args)
                .args(["--setup-only", "1"])
                .stderr(Stdio::inherit())
                .output()
                .map_err(err)?;
            if !child.status.success() {
                return Err(format!("set-up probe exited with {}", child.status));
            }
            let began: f64 = String::from_utf8_lossy(&child.stdout)
                .trim()
                .parse()
                .map_err(|_| "malformed set-up probe line".to_owned())?;
            Ok(began - spawned)
        })
        .collect()
}

/// Timed calls until `seconds` are used up (at least one). Each runs
/// in a fresh process on a freshly staged `work/rep`, the way a user
/// runs one study per `vmcw study`, so nothing one call leaves in
/// memory helps the next. `child_args` make the child run [`child`].
/// Before each call, `probes_per_call` set-up probes time the start-up
/// alone, so the start-up's median rests on many samples spread over
/// the run, not on the few calls or on one moment of the host; they
/// come back as the second value.
pub fn reps(
    start: &Start<'_>,
    child_args: &[String],
    work: &Path,
    seconds: f64,
    probes_per_call: usize,
) -> Result<(Vec<Rep>, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(err)?;
    let began = Instant::now();
    let dir = work.join("rep");
    let mut out: Vec<Rep> = Vec::new();
    let mut probes = Vec::new();
    loop {
        probes.extend(setup_probes(child_args, probes_per_call)?);
        start.stage(&dir)?;
        let spawned = unix_now();
        let child = Command::new(&exe)
            .args(child_args)
            .stderr(Stdio::inherit())
            .output()
            .map_err(err)?;
        if !child.status.success() {
            return Err(format!("timed call exited with {}", child.status));
        }
        out.push(Rep::parse(
            String::from_utf8_lossy(&child.stdout).trim(),
            spawned,
        )?);
        let per_rep = began.elapsed().as_secs_f64() / out.len() as f64;
        if began.elapsed().as_secs_f64() + per_rep > seconds {
            break;
        }
    }
    std::fs::remove_dir_all(&dir).map_err(err)?;
    Ok((out, probes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_call_lines_round_trip() {
        let rep = Rep {
            setup: 0.0,
            rss_kib: 1234,
            wall: 2.5,
            hours: 4032,
            incomplete: 0,
            digests: (0xdead_beef, 7),
            disk: 41_000_000,
            read_ms: vec![0.25, 1.5],
            read_failures: 1,
        };
        let back = Rep::parse(&rep.to_line(100.5), 100.0).expect("parses");
        assert_eq!(
            back,
            Rep {
                setup: 0.5,
                ..rep.clone()
            }
        );
        assert!(Rep::parse("1 2 3", 0.0).is_err());
    }
}
