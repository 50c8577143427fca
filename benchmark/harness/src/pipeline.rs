//! The traced study: the same work `run_study_opts` and
//! `resume_study_opts` do, driven from here through each layer's public
//! calls so that every call can be wrapped in a span.
//!
//! It writes the same journal records (minus the supervisor's periodic
//! heartbeat watermarks), validates every cadence checkpoint the same
//! way, and renders `cells.csv` and `STUDY.md` with the program's own
//! renderers, so its outputs can be compared byte for byte with the
//! untraced run's.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use vmcw_consolidation::planner::{ConsolidationPlan, PlannerKind};
use vmcw_core::experiments::study_markdown;
use vmcw_core::journal::{write_atomic, Journal};
use vmcw_core::study::Study;
use vmcw_core::supervise::{
    cells_table, CellOutcome, CellReport, StudyReport, StudySpec, StudyStatus, JOURNAL_FILE,
};
use vmcw_emulator::checkpoint::{decode_cost, decode_report, encode_cost, encode_report};
use vmcw_emulator::report::cost_summary;
use vmcw_emulator::validate::{check_checkpoint_with, CheckScratch};
use vmcw_emulator::{Replay, ReplayCheckpoint};
use vmcw_trace::datacenters::DataCenterId;

use crate::err;
use crate::spans::{Recorder, Trace};

type CellKey = (char, &'static str);

/// Span name of each planner's planning call.
pub fn plan_span(kind: PlannerKind) -> &'static str {
    match kind {
        PlannerKind::Static => "plan.static",
        PlannerKind::SemiStatic => "plan.semi_static",
        PlannerKind::Stochastic => "plan.stochastic",
        PlannerKind::Dynamic => "plan.dynamic",
    }
}

/// What a traced study leaves behind for checks and probes.
pub struct Traced {
    /// The study report, cells in grid order.
    pub report: StudyReport,
    /// Spans of the run.
    pub trace: Trace,
    /// Wall-clock seconds of the run.
    pub wall: f64,
    /// Worker threads used.
    pub workers: usize,
    /// The prepared studies, per data center that ran a cell.
    pub studies: BTreeMap<char, Study>,
    /// The plans of the cells that ran.
    pub plans: BTreeMap<CellKey, ConsolidationPlan>,
    /// Source servers generated, summed over the prepared studies.
    pub servers: usize,
    /// Bytes of the encoded checkpoints the run journaled.
    pub checkpoint_bytes: u64,
}

fn key(dc: DataCenterId, kind: PlannerKind) -> CellKey {
    (dc.letter(), kind.label())
}

fn cell_id(spec: &StudySpec, dc: DataCenterId, kind: PlannerKind) -> u64 {
    let d = spec.dcs.iter().position(|&x| x == dc).unwrap_or(0);
    let p = spec.planners.iter().position(|&x| x == kind).unwrap_or(0);
    (d * spec.planners.len() + p) as u64
}

/// Shared state of the traced workers.
struct Grid<'a> {
    spec: &'a StudySpec,
    journal: Mutex<Journal>,
    studies: Vec<OnceLock<Study>>,
    latest: Mutex<BTreeMap<CellKey, ReplayCheckpoint>>,
    next: AtomicUsize,
    finished: Mutex<Vec<(usize, CellReport, ConsolidationPlan)>>,
    failure: Mutex<Option<String>>,
    checkpoint_bytes: AtomicU64,
}

impl Grid<'_> {
    fn append(&self, rec: &mut Recorder, id: u64, payload: &[u8]) -> Result<(), String> {
        rec.span("journal.append", id, |_| {
            self.journal
                .lock()
                .expect("journal lock poisoned by a panicking worker")
                .append(payload)
        })
        .map_err(err)
    }

    /// One cell, from the prepared study to its journaled report.
    fn run_cell(
        &self,
        rec: &mut Recorder,
        dc: DataCenterId,
        kind: PlannerKind,
        di: usize,
    ) -> Result<(CellReport, ConsolidationPlan), String> {
        let spec = self.spec;
        let id = cell_id(spec, dc, kind);
        let study = rec.span("trace.gen", id, |_| {
            self.studies[di].get_or_init(|| Study::prepare(&spec.study_config(dc)))
        });
        let plan = rec
            .span(plan_span(kind), id, |_| study.plan(kind))
            .map_err(err)?;
        let config = *study.config();
        let n_hosts = plan.dc.len();
        let resume_from = self
            .latest
            .lock()
            .expect("checkpoint map lock poisoned")
            .get(&key(dc, kind))
            .cloned();
        let mut replay = match resume_from.as_ref() {
            Some(ck) => rec
                .span("checkpoint.resume", id, |_| {
                    Replay::resume(
                        study.input(),
                        &plan,
                        &config.emulator,
                        spec.faults.as_ref(),
                        ck,
                    )
                })
                .map_err(err)?,
            None => {
                let start = format!("cell-start {} {}", dc.letter(), kind.label());
                self.append(rec, id, start.as_bytes())?;
                rec.span("replay.new", id, |_| {
                    Replay::new(study.input(), &plan, &config.emulator, spec.faults.as_ref())
                })
                .map_err(err)?
            }
        };
        let mut scratch = CheckScratch::default();
        let mut prev = resume_from;
        while !replay.is_done() {
            rec.span("replay.step", id, |_| replay.step())
                .map_err(err)?;
            if replay.hour() % spec.checkpoint_every_hours == 0 || replay.is_done() {
                let ck = rec.span("checkpoint.take", id, |_| replay.checkpoint());
                rec.span("validate.check", id, |_| {
                    check_checkpoint_with(&mut scratch, &ck, n_hosts, prev.as_ref())
                })
                .map_err(err)?;
                let payload = rec.span("checkpoint.encode", id, |_| {
                    format!(
                        "checkpoint {} {}\n{}",
                        dc.letter(),
                        kind.label(),
                        ck.encode()
                    )
                });
                self.checkpoint_bytes
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                self.append(rec, id, payload.as_bytes())?;
                self.latest
                    .lock()
                    .expect("checkpoint map lock poisoned")
                    .insert(key(dc, kind), ck.clone());
                prev = Some(ck);
            }
        }
        let (report, cost) = rec.span("replay.report", id, |_| {
            let report = replay.into_report();
            let cost = cost_summary(&report, &config.cost_model);
            (report, cost)
        });
        let done = rec.span("journal.encode", id, |_| {
            format!(
                "cell-done {} {} completed\n{}\n{}",
                dc.letter(),
                kind.label(),
                encode_cost(&cost),
                encode_report(&report)
            )
        });
        self.append(rec, id, done.as_bytes())?;
        let cell = CellReport {
            dc,
            kind,
            outcome: CellOutcome::Completed,
            report: Some(report),
            cost: Some(cost),
        };
        Ok((cell, plan))
    }

    fn work(&self, rec: &mut Recorder, grid: &[(DataCenterId, PlannerKind)], pending: &[usize]) {
        loop {
            if self
                .failure
                .lock()
                .expect("failure lock poisoned")
                .is_some()
            {
                return;
            }
            let Some(&idx) = pending.get(self.next.fetch_add(1, Ordering::SeqCst)) else {
                return;
            };
            let (dc, kind) = grid[idx];
            let di = self.spec.dcs.iter().position(|&d| d == dc).unwrap_or(0);
            let id = cell_id(self.spec, dc, kind);
            match rec.span("supervise.cell", id, |rec| self.run_cell(rec, dc, kind, di)) {
                Ok((cell, plan)) => self
                    .finished
                    .lock()
                    .expect("finished lock poisoned")
                    .push((idx, cell, plan)),
                Err(e) => {
                    self.failure
                        .lock()
                        .expect("failure lock poisoned")
                        .get_or_insert(format!("cell {}/{}: {e}", dc.letter(), kind.label()));
                    return;
                }
            }
        }
    }
}

/// A `checkpoint` or `cell-done` journal record.
struct CellRecord<'a> {
    word: &'a str,
    dc: DataCenterId,
    kind: PlannerKind,
    /// Head tokens after the cell.
    rest: std::str::SplitWhitespace<'a>,
    body: &'a str,
}

/// Parses a journal record; `None` for records that name no cell.
fn cell_record(raw: &[u8]) -> Result<Option<CellRecord<'_>>, String> {
    let text = std::str::from_utf8(raw).map_err(err)?;
    let (head, body) = text.split_once('\n').unwrap_or((text, ""));
    let mut rest = head.split_whitespace();
    let word = match rest.next() {
        Some(w @ ("checkpoint" | "cell-done")) => w,
        _ => return Ok(None),
    };
    let letter = rest.next().and_then(|s| s.chars().next());
    let dc = DataCenterId::ALL
        .into_iter()
        .find(|d| Some(d.letter()) == letter)
        .ok_or("journal record names an unknown data center")?;
    let kind = rest
        .next()
        .and_then(PlannerKind::parse)
        .ok_or("journal record names an unknown planner")?;
    Ok(Some(CellRecord {
        word,
        dc,
        kind,
        rest,
        body,
    }))
}

/// Journal contents a resume starts from.
struct Restored {
    spec: StudySpec,
    done: BTreeMap<CellKey, CellReport>,
    ckpts: BTreeMap<CellKey, ReplayCheckpoint>,
}

/// Reads a journal the way `resume_study_opts` does: every checkpoint
/// record is decoded, completed cells are restored from their reports.
fn restore(rec: &mut Recorder, journal: &Journal) -> Result<Restored, String> {
    let records = journal.records();
    let config = records
        .first()
        .and_then(|r| std::str::from_utf8(r).ok())
        .and_then(|s| s.strip_prefix("config "))
        .ok_or("journal has no config record")?;
    let spec = StudySpec::decode(config.trim_end()).map_err(err)?;
    let mut done = BTreeMap::new();
    let mut ckpts = BTreeMap::new();
    for raw in &records[1..] {
        let Some(CellRecord {
            word,
            dc,
            kind,
            mut rest,
            body,
        }) = cell_record(raw)?
        else {
            continue;
        };
        if word == "checkpoint" {
            let ck = rec
                .span("checkpoint.decode", cell_id(&spec, dc, kind), |_| {
                    ReplayCheckpoint::decode(body)
                })
                .map_err(err)?;
            ckpts.insert(key(dc, kind), ck);
        } else {
            if rest.next() != Some("completed") {
                return Err(format!(
                    "cell {}/{} did not complete",
                    dc.letter(),
                    kind.label()
                ));
            }
            let cell = rec.span("journal.read", cell_id(&spec, dc, kind), |_| {
                let (cost, report) = body.split_once('\n').ok_or("cell-done without body")?;
                Ok::<_, String>(CellReport {
                    dc,
                    kind,
                    outcome: CellOutcome::Completed,
                    report: Some(decode_report(report).map_err(err)?),
                    cost: Some(decode_cost(cost).map_err(err)?),
                })
            })?;
            ckpts.remove(&key(dc, kind));
            done.insert(key(dc, kind), cell);
        }
    }
    Ok(Restored { spec, done, ckpts })
}

/// Runs (`spec` given) or resumes (`spec` `None`, journal in `dir`) a
/// study on `jobs` worker threads, with every layer call in a span when
/// `traced`.
pub fn run(
    spec: Option<&StudySpec>,
    dir: &Path,
    jobs: usize,
    traced: bool,
) -> Result<Traced, String> {
    let origin = Instant::now();
    let mut main = if traced {
        Recorder::new(origin, 0, None)
    } else {
        Recorder::off(origin)
    };
    let mut worker_recs = Vec::new();
    let started = Instant::now();
    let result = main.span("supervise.run", 0, |rec| -> Result<_, String> {
        let path = dir.join(JOURNAL_FILE);
        let (journal, restored) = match spec {
            Some(spec) => {
                std::fs::create_dir_all(dir).map_err(err)?;
                let mut journal = rec
                    .span("journal.create", 0, |_| Journal::create(&path))
                    .map_err(err)?;
                let config = format!("config {}", spec.encode());
                rec.span("journal.append", 0, |_| journal.append(config.as_bytes()))
                    .map_err(err)?;
                let fresh = Restored {
                    spec: spec.clone(),
                    done: BTreeMap::new(),
                    ckpts: BTreeMap::new(),
                };
                (journal, fresh)
            }
            None => {
                let (journal, _tail) = rec
                    .span("journal.open", 0, |_| Journal::open(&path))
                    .map_err(err)?;
                let restored = restore(rec, &journal)?;
                (journal, restored)
            }
        };
        let spec = &restored.spec;
        let grid: Vec<(DataCenterId, PlannerKind)> = spec
            .dcs
            .iter()
            .flat_map(|&dc| spec.planners.iter().map(move |&kind| (dc, kind)))
            .collect();
        let mut slots: Vec<Option<CellReport>> = grid
            .iter()
            .map(|&(dc, kind)| restored.done.get(&key(dc, kind)).cloned())
            .collect();
        let mut pending: Vec<usize> = (0..grid.len()).filter(|&i| slots[i].is_none()).collect();
        let workers = jobs.max(1).min(pending.len().max(1));
        if workers > 1 {
            // The supervisor's claim order: planner-major, so concurrent
            // workers prepare different data centers.
            let planners = spec.planners.len().max(1);
            pending.sort_by_key(|&idx| (idx % planners, idx / planners));
        }
        let shared = Grid {
            spec,
            journal: Mutex::new(journal),
            studies: spec.dcs.iter().map(|_| OnceLock::new()).collect(),
            latest: Mutex::new(restored.ckpts),
            next: AtomicUsize::new(0),
            finished: Mutex::new(Vec::new()),
            failure: Mutex::new(None),
            checkpoint_bytes: AtomicU64::new(0),
        };
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (shared, grid, pending) = (&shared, &grid, &pending);
                    let mut wr = rec.fork(w + 1);
                    s.spawn(move || {
                        wr.span("supervise.worker", w as u64, |wr| {
                            shared.work(wr, grid, pending);
                        });
                        wr
                    })
                })
                .collect();
            for h in handles {
                worker_recs.push(h.join().expect("traced worker panicked"));
            }
        });
        if let Some(e) = shared.failure.lock().expect("failure lock poisoned").take() {
            return Err(e);
        }
        let mut plans = BTreeMap::new();
        for (idx, cell, plan) in shared
            .finished
            .into_inner()
            .expect("finished lock poisoned")
        {
            plans.insert(key(cell.dc, cell.kind), plan);
            slots[idx] = Some(cell);
        }
        let mut journal = shared.journal.into_inner().expect("journal lock poisoned");
        rec.span("journal.append", 0, |_| journal.append(b"run-done"))
            .map_err(err)?;
        let report = StudyReport {
            spec: spec.clone(),
            status: StudyStatus::Completed,
            cells: slots.into_iter().flatten().collect(),
            tail_dropped: None,
        };
        rec.span("render.write", 0, |_| -> Result<(), String> {
            write_atomic(
                &dir.join("cells.csv"),
                cells_table(&report).to_csv().as_bytes(),
            )
            .map_err(err)?;
            write_atomic(&dir.join("STUDY.md"), study_markdown(&report).as_bytes()).map_err(err)
        })?;
        let studies: BTreeMap<char, Study> = spec
            .dcs
            .iter()
            .zip(shared.studies)
            .filter_map(|(dc, lock)| lock.into_inner().map(|s| (dc.letter(), s)))
            .collect();
        let checkpoint_bytes = shared.checkpoint_bytes.load(Ordering::Relaxed);
        Ok((report, studies, plans, workers, checkpoint_bytes))
    });
    let wall = started.elapsed().as_secs_f64();
    let mut trace = Trace::default();
    trace.absorb(main);
    for wr in worker_recs {
        trace.absorb(wr);
    }
    let (report, studies, plans, workers, checkpoint_bytes) = result?;
    let servers = studies.values().map(|s| s.workload().servers.len()).sum();
    Ok(Traced {
        report,
        trace,
        wall,
        workers,
        studies,
        plans,
        servers,
        checkpoint_bytes,
    })
}

/// Reads a finished study's journal back: opens it, decodes every
/// checkpoint and resumes each cell from its last one. The resumed
/// replays must report exactly what the cells reported.
pub fn read_back(traced: &Traced, dir: &Path) -> Result<Trace, String> {
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, 0, None);
    let spec = &traced.report.spec;
    let outcome = rec.span("probe.read_back", 0, |rec| -> Result<(), String> {
        let (journal, _) = rec
            .span("journal.open", 0, |_| {
                Journal::open(&dir.join(JOURNAL_FILE))
            })
            .map_err(err)?;
        let mut last: BTreeMap<CellKey, ReplayCheckpoint> = BTreeMap::new();
        for raw in &journal.records()[1..] {
            let Some(CellRecord {
                word: "checkpoint",
                dc,
                kind,
                body,
                ..
            }) = cell_record(raw)?
            else {
                continue;
            };
            let ck = rec
                .span("checkpoint.decode", 0, |_| ReplayCheckpoint::decode(body))
                .map_err(err)?;
            last.insert(key(dc, kind), ck);
        }
        for cell in &traced.report.cells {
            let k = key(cell.dc, cell.kind);
            let (Some(ck), Some(study), Some(plan)) =
                (last.get(&k), traced.studies.get(&k.0), traced.plans.get(&k))
            else {
                continue;
            };
            let id = cell_id(spec, cell.dc, cell.kind);
            let config = *study.config();
            let replay = rec
                .span("checkpoint.resume", id, |_| {
                    Replay::resume(
                        study.input(),
                        plan,
                        &config.emulator,
                        spec.faults.as_ref(),
                        ck,
                    )
                })
                .map_err(err)?;
            if !replay.is_done() || Some(replay.into_report()) != cell.report {
                return Err(format!("cell {}/{} does not read back", k.0, k.1));
            }
        }
        Ok(())
    });
    let mut trace = Trace::default();
    trace.absorb(rec);
    outcome.map(|()| trace)
}
