//! Benchmark harness for the vmcw workspace.
//!
//! `vmcw-benchmark run --workload W --seed N --seconds S --trace 0|1
//! --work DIR` measures one workload and prints one JSON line:
//! end-to-end metrics with `--trace 0`, per-layer metrics from spans
//! recorded around each layer's public calls with `--trace 1`.
//! A batch workload runs each timed call in a child process (`rep`),
//! `prepare` builds `crash-resume`'s killed journal in its own process,
//! and `pin` prints the output digests `expected.tsv` holds. `run.py`
//! in the parent directory builds this crate and drives these modes.

mod batch;
mod pipeline;
mod serve_mix;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use batch::{fleet_spec, paper_grid_spec, Start, JOBS};
use pipeline::Traced;
use serve_mix::{ServeLayer, NOMINAL, RATES};
use spans::Trace;
use stats::{median, percentile, tail};
use vmcw_core::supervise::{StudySpec, JOURNAL_FILE};

/// Error text of any failure; every failure ends the run.
fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Pinned `cells.csv` and `STUDY.md` digests, per seed and workload.
const EXPECTED: &str = include_str!("../../expected.tsv");

/// Scale divisor of the scaling probe's smaller run.
const SCALE_STEP: f64 = 4.0;
/// Seconds of nominal-rate traffic in a batch workload's serve probe.
const SERVE_PROBE_SECONDS: f64 = 3.0;
/// Set-up probes before each timed call of `paper-grid` and `fleet-x4`.
const SETUP_PROBES_PER_CALL: usize = 10;
/// Bytes in the `MB` of `disk_mb` and `peak_rss_mb`.
const MIB: f64 = 1024.0 * 1024.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    PaperGrid,
    Fleet,
    Crash,
    ServeMix,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Self::PaperGrid => "paper-grid",
            Self::Fleet => "fleet-x4",
            Self::Crash => "crash-resume",
            Self::ServeMix => "serve-mix",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        [Self::PaperGrid, Self::Fleet, Self::Crash, Self::ServeMix]
            .into_iter()
            .find(|w| w.name() == name)
    }

    /// The workload whose pinned digests this one's outputs must match:
    /// a resumed grid must equal an uninterrupted one.
    fn pinned_as(self) -> &'static str {
        match self {
            Self::Fleet => "fleet-x4",
            _ => "paper-grid",
        }
    }

    /// The forward study this workload's batch runs are made of.
    fn spec(self, seed: u64, scale_div: f64) -> StudySpec {
        match self {
            Self::Fleet => fleet_spec(seed, 4.0 / scale_div),
            _ => paper_grid_spec(seed, 1.0 / scale_div),
        }
    }
}

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    setup_s: Option<f64>,
    setup_only: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it
        .next()
        .ok_or("usage: vmcw-benchmark run|prepare|pin [flags]")?;
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or(format!("unexpected `{flag}`"))?;
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(key.to_owned(), value);
    }
    let get = |k: &str, default: &str| flags.get(k).cloned().unwrap_or_else(|| default.into());
    let workload = get("workload", "paper-grid");
    Ok(Args {
        mode,
        workload: Workload::parse(&workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: get("seed", "42").parse().map_err(|_| "bad --seed")?,
        seconds: get("seconds", "10").parse().map_err(|_| "bad --seconds")?,
        trace: get("trace", "0") == "1",
        work: PathBuf::from(get("work", ".bench_work/manual")),
        setup_s: flags.get("setup-s").and_then(|s| s.parse().ok()),
        setup_only: get("setup-only", "0") == "1",
        spans: flags.get("spans").map(PathBuf::from),
    })
}

/// The result line.
#[derive(Default)]
struct Out {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Out {
    fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Counts `attempted` operations of which `failed` failed.
    fn tally(&mut self, attempted: usize, failed: usize, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.invalid(&what());
        }
    }

    /// Counts one checked operation.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally(1, usize::from(!ok), what);
    }

    /// Marks the run's outputs as wrong.
    fn invalid(&mut self, why: &str) {
        self.correct = false;
        eprintln!("check failed: {why}");
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.metrics.iter().all(|m| m.1.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Pinned digests of a workload's outputs for `seed`, if any.
fn pinned(seed: u64, workload: &str) -> Option<(u64, u64)> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 4 && f[0] == seed.to_string() && f[1] == workload)
        .and_then(|f| {
            Some((
                u64::from_str_radix(f[2], 16).ok()?,
                u64::from_str_radix(f[3], 16).ok()?,
            ))
        })
}

/// The digests a batch workload's outputs must have: pinned for the
/// seed; for another seed, an uninterrupted run's for `crash-resume`,
/// and `None` (every call must match the first) otherwise.
fn expected_digests(
    workload: Workload,
    seed: u64,
    work: &Path,
) -> Result<Option<(u64, u64)>, String> {
    if let Some(d) = pinned(seed, workload.pinned_as()) {
        return Ok(Some(d));
    }
    if workload != Workload::Crash {
        eprintln!("seed {seed} is not pinned: outputs are checked for equality across runs");
        return Ok(None);
    }
    eprintln!(
        "seed {seed} is not pinned: resumed outputs are checked against an uninterrupted run"
    );
    let dir = work.join("uninterrupted");
    let rep = batch::timed(Some(&paper_grid_spec(seed, 1.0)), &dir)?;
    std::fs::remove_dir_all(&dir).map_err(err)?;
    Ok(Some(rep.digests))
}

fn batch_start<'a>(workload: Workload, spec: &'a StudySpec, base: &'a Path) -> Start<'a> {
    if workload == Workload::Crash {
        Start::Resume(base)
    } else {
        Start::Fresh(spec)
    }
}

fn batch_plain(a: &Args) -> Result<Out, String> {
    let spec = a.workload.spec(a.seed, 1.0);
    let base = a.work.join("base");
    let child_args: Vec<String> = [
        "rep",
        "--workload",
        a.workload.name(),
        "--seed",
        &a.seed.to_string(),
        "--work",
        &a.work.to_string_lossy(),
    ]
    .map(str::to_owned)
    .to_vec();
    // crash-resume's set-up is the killed first half, not start-up.
    let probes_per_call = match a.workload {
        Workload::Crash => 0,
        _ => SETUP_PROBES_PER_CALL,
    };
    let (reps, probes) = batch::reps(
        &batch_start(a.workload, &spec, &base),
        &child_args,
        &a.work,
        a.seconds,
        probes_per_call,
    )?;
    let setup_s = match a.workload {
        Workload::Crash => a
            .setup_s
            .ok_or("crash-resume needs --setup-s from `prepare`")?,
        _ => median(
            &probes
                .iter()
                .copied()
                .chain(reps.iter().map(|r| r.setup))
                .collect::<Vec<_>>(),
        ),
    };
    let expected = expected_digests(a.workload, a.seed, &a.work)?.unwrap_or(reps[0].digests);
    let mut out = Out::new();
    let cells = spec.dcs.len() * spec.planners.len();
    for (i, rep) in reps.iter().enumerate() {
        out.tally(cells, rep.incomplete, || {
            format!("call {i}: {} cells did not complete", rep.incomplete)
        });
        out.check(rep.digests == expected, || {
            format!(
                "call {i}: cells.csv/STUDY.md digests {:016x}/{:016x}",
                rep.digests.0, rep.digests.1
            )
        });
        out.tally(
            rep.read_ms.len() + rep.read_failures,
            rep.read_failures,
            || {
                format!(
                    "call {i}: {} health.json reads failed to parse",
                    rep.read_failures
                )
            },
        );
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    let reads: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.read_ms.iter().copied())
        .collect();
    let wall = median(&walls);
    let (job_tail, job_p) = tail(&walls, 90.0);
    let (read_tail, read_p) = tail(&reads, 90.0);
    eprintln!(
        "{} timed calls: {walls:.3?} s; job p90 taken at p{job_p:.0} of {}; \
         {} health reads, p90 taken at p{read_p:.1}",
        reps.len(),
        walls.len(),
        reads.len()
    );
    out.put("setup_s", setup_s, "s");
    out.put("wall_s", wall, "s");
    out.put("cell_hours_per_s", reps[0].hours as f64 / wall, "h/s");
    out.put(
        "disk_mb",
        median(&reps.iter().map(|r| r.disk as f64).collect::<Vec<_>>()) / MIB,
        "MB",
    );
    out.put("job_p50_ms", wall * 1e3, "ms");
    out.put("job_p90_ms", job_tail * 1e3, "ms");
    out.put("read_p50_ms", median(&reads), "ms");
    out.put("read_p90_ms", read_tail, "ms");
    out.put("max_ok_rps", 1.0 / wall, "1/s");
    let rss = reps.iter().map(|r| r.rss_kib).max().unwrap_or(0);
    out.put("peak_rss_mb", rss as f64 * 1024.0 / MIB, "MB");
    Ok(out)
}

/// The spans of a traced run, by phase.
type Phases = Vec<(&'static str, Trace)>;

/// Wall seconds of the same work three ways.
#[derive(Default)]
struct Walls {
    /// The program's own entry point, `run_study_opts` or
    /// `resume_study_opts`.
    program: Vec<f64>,
    /// The benchmark's replica of it with spans off.
    replica: Vec<f64>,
    /// The replica with spans on.
    traced: Vec<f64>,
}

impl std::fmt::Display for Walls {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "program {:.3?} s, untraced replica {:.3?} s, traced replica {:.3?} s",
            self.program, self.replica, self.traced
        )
    }
}

/// Spans and counts of one traced phase, possibly of several studies.
#[derive(Default)]
struct Phase {
    trace: Trace,
    self_s: BTreeMap<&'static str, f64>,
    wall: f64,
    workers: usize,
    servers: usize,
    migrations: usize,
    checkpoint_bytes: u64,
    journal_bytes: u64,
}

impl Phase {
    fn add(&mut self, t: &mut Traced, dir: &Path) {
        self.trace.extend(std::mem::take(&mut t.trace));
        self.wall += t.wall;
        self.workers = self.workers.max(t.workers);
        self.servers += t.servers;
        self.migrations += t.plans.values().map(|p| p.migrations.len()).sum::<usize>();
        self.checkpoint_bytes += t.checkpoint_bytes;
        self.journal_bytes += std::fs::metadata(dir.join(JOURNAL_FILE)).map_or(0, |m| m.len());
    }

    fn of_trace(trace: Trace) -> Self {
        Self {
            trace,
            ..Self::default()
        }
    }

    fn seal(mut self) -> Self {
        self.self_s = self.trace.self_by_name();
        self
    }

    fn has(&self, name: &str) -> bool {
        self.self_s.contains_key(name)
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.trace.named(name).map(|s| s.end - s.start).collect()
    }
}

/// The phase a layer is read from: the workload's own run where it
/// exercises the layer, else the first probe that does.
struct Views<'a> {
    phases: Vec<&'a Phase>,
}

impl Views<'_> {
    fn pick(&self, name: &str) -> &Phase {
        self.phases
            .iter()
            .copied()
            .find(|p| p.has(name))
            .unwrap_or(self.phases[0])
    }

    fn self_s(&self, name: &str) -> f64 {
        self.pick(name).self_s.get(name).copied().unwrap_or(0.0)
    }

    fn count(&self, name: &str) -> f64 {
        self.pick(name).trace.named(name).count() as f64
    }
}

/// Per-item cost at the larger scale over that at the smaller: 1.0 is
/// linear in servers.
fn scale_ratio(hi: &Phase, lo: &Phase, name: &str) -> f64 {
    let per = |p: &Phase| p.self_s.get(name).copied().unwrap_or(0.0) / p.servers.max(1) as f64;
    per(hi) / per(lo)
}

fn layer_metrics(
    out: &mut Out,
    main: &Phase,
    probes: &[&Phase],
    scale: (&Phase, &Phase),
    serve: &ServeLayer,
    walls: &Walls,
) {
    let mut phases = vec![main];
    phases.extend_from_slice(probes);
    let v = Views { phases };
    let hours_us: Vec<f64> = v
        .pick("replay.step")
        .durations("replay.step")
        .iter()
        .map(|d| d * 1e6)
        .collect();
    let appends_us: Vec<f64> = v
        .pick("journal.append")
        .durations("journal.append")
        .iter()
        .map(|d| d * 1e6)
        .collect();
    let (hour_tail, hour_p) = tail(&hours_us, 99.0);
    let (append_tail, append_p) = tail(&appends_us, 99.0);
    eprintln!(
        "replay hour tail at p{hour_p:.2} of {}; journal append tail at p{append_p:.2} of {}",
        hours_us.len(),
        appends_us.len()
    );
    let cells = main.durations("supervise.cell");
    let glue = ["supervise.run", "supervise.worker", "supervise.cell"];
    let total: f64 = main.self_s.values().sum();
    let covered: f64 = main
        .self_s
        .iter()
        .filter(|(k, _)| !glue.contains(k))
        .map(|(_, t)| t)
        .sum();

    out.put("trace.gen_s", v.self_s("trace.gen"), "s");
    out.put("trace.servers", main.servers as f64, "count");
    out.put("plan.semi_static_s", v.self_s("plan.semi_static"), "s");
    out.put("plan.stochastic_s", v.self_s("plan.stochastic"), "s");
    out.put("plan.dynamic_s", v.self_s("plan.dynamic"), "s");
    out.put("plan.migrations", main.migrations as f64, "count");
    out.put("replay.step_s", v.self_s("replay.step"), "s");
    out.put("replay.hours", v.count("replay.step"), "count");
    out.put("replay.hour_p50_us", median(&hours_us), "us");
    out.put("replay.hour_p99_us", hour_tail, "us");
    out.put("checkpoint.take_s", v.self_s("checkpoint.take"), "s");
    out.put("checkpoint.encode_s", v.self_s("checkpoint.encode"), "s");
    out.put("checkpoint.count", v.count("checkpoint.take"), "count");
    out.put("checkpoint.bytes", main.checkpoint_bytes as f64, "bytes");
    out.put("checkpoint.decode_s", v.self_s("checkpoint.decode"), "s");
    out.put("checkpoint.resume_s", v.self_s("checkpoint.resume"), "s");
    out.put("validate.check_s", v.self_s("validate.check"), "s");
    out.put("journal.append_s", v.self_s("journal.append"), "s");
    out.put("journal.append_p99_us", append_tail, "us");
    out.put("journal.appends", v.count("journal.append"), "count");
    out.put("journal.bytes", main.journal_bytes as f64, "bytes");
    out.put("journal.open_s", v.self_s("journal.open"), "s");
    out.put("render.write_s", v.self_s("render.write"), "s");
    out.put(
        "supervise.critical_path_s",
        cells.iter().copied().fold(0.0, f64::max),
        "s",
    );
    out.put(
        "supervise.busy_frac",
        cells.iter().sum::<f64>() / (main.workers.max(1) as f64 * main.wall),
        "ratio",
    );
    out.put("serve.bind_s", serve.bind_s, "s");
    out.put("serve.readyz_p50_ms", serve.readyz_p50_ms, "ms");
    out.put("serve.job_overhead_ms", serve.job_overhead_ms, "ms");
    out.put(
        "serve.queue_depth_max",
        serve.queue_depth_max as f64,
        "count",
    );
    out.put("serve.gen_late_p90_ms", serve.gen_late_p90_ms, "ms");
    out.put(
        "scale.replay_step_ratio",
        scale_ratio(scale.0, scale.1, "replay.step"),
        "ratio",
    );
    out.put(
        "scale.plan_dynamic_ratio",
        scale_ratio(scale.0, scale.1, "plan.dynamic"),
        "ratio",
    );
    out.put(
        "scale.trace_gen_ratio",
        scale_ratio(scale.0, scale.1, "trace.gen"),
        "ratio",
    );
    let (program, replica, traced) = (
        median(&walls.program),
        median(&walls.replica),
        median(&walls.traced),
    );
    out.put("tracing.overhead_frac", traced / replica - 1.0, "ratio");
    out.put("tracing.coverage_frac", covered / total, "ratio");
    out.put("tracing.replica_frac", replica / program, "ratio");
}

/// A short nominal-rate serve session for workloads that do not serve.
fn serve_probe(seed: u64, work: &Path) -> Result<(ServeLayer, Trace), String> {
    let reference = serve_mix::reference(seed, work)?;
    let dir = serve_mix::state_dir(work);
    let (server, bind_s) = serve_mix::start(&dir, seed)?;
    let (nominal, trace) = serve_mix::run_rate(
        &dir,
        server.port(),
        seed,
        RATES[NOMINAL],
        SERVE_PROBE_SECONDS,
        0,
        &reference,
        true,
    );
    serve_mix::stop(server);
    std::fs::remove_dir_all(&dir).map_err(err)?;
    eprintln!("serve probe: {}", nominal.summary());
    if nominal.failed > 0 {
        return Err("serve probe requests failed".into());
    }
    let trace = trace.unwrap_or_default();
    Ok((
        serve_mix::layer(bind_s, &nominal, &trace, &reference),
        trace,
    ))
}

/// A traced forward study in `dir`, as a sealed phase.
fn traced_phase(spec: &StudySpec, dir: &Path, jobs: usize) -> Result<Phase, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(err)?;
    }
    let mut t = pipeline::run(Some(spec), dir, jobs, true)?;
    let mut phase = Phase::default();
    phase.add(&mut t, dir);
    std::fs::remove_dir_all(dir).map_err(err)?;
    Ok(phase.seal())
}

fn batch_traced(a: &Args) -> Result<(Out, Phases), String> {
    let spec = a.workload.spec(a.seed, 1.0);
    let base = a.work.join("base");
    let start = batch_start(a.workload, &spec, &base);
    let [program_dir, replica_dir, traced_dir] =
        ["program", "replica", "traced"].map(|d| a.work.join(d));
    let mut out = Out::new();
    let began = Instant::now();
    let mut walls = Walls::default();
    let mut main: Option<Traced> = None;
    for round in 0.. {
        // Rotate the order so no variant always runs first in the process.
        for step in (0..3).map(|i| (i + round) % 3) {
            match step {
                0 => {
                    start.stage(&program_dir)?;
                    walls
                        .program
                        .push(batch::timed(start.spec(), &program_dir)?.wall);
                }
                1 => {
                    start.stage(&replica_dir)?;
                    let t = pipeline::run(start.spec(), &replica_dir, JOBS, false)?;
                    walls.replica.push(t.wall);
                }
                _ => {
                    start.stage(&traced_dir)?;
                    // Free the previous traced run before the next one starts.
                    main.take();
                    let t = pipeline::run(start.spec(), &traced_dir, JOBS, true)?;
                    walls.traced.push(t.wall);
                    out.check(batch::incomplete(&t.report) == 0, || {
                        "a traced cell did not complete".into()
                    });
                    main = Some(t);
                }
            }
        }
        let program = batch::digests(&program_dir)?;
        for (what, dir) in [
            ("untraced replica", &replica_dir),
            ("traced replica", &traced_dir),
        ] {
            let digests = batch::digests(dir)?;
            out.check(digests == program, || {
                format!("{what}'s cells.csv/STUDY.md differ from the program's")
            });
        }
        let per_round = began.elapsed().as_secs_f64() / walls.program.len() as f64;
        if began.elapsed().as_secs_f64() + per_round > a.seconds {
            break;
        }
    }
    let mut main = main.expect("at least one traced run");
    eprintln!("{walls}");
    let read_back = match start {
        Start::Fresh(_) => Some(Phase::of_trace(pipeline::read_back(&main, &traced_dir)?).seal()),
        Start::Resume(_) => None,
    };
    let mut main_phase = Phase::default();
    main_phase.add(&mut main, &traced_dir);
    let main_phase = main_phase.seal();
    drop(main);
    let probe_dir = a.work.join("probe");
    let hi = match a.workload {
        Workload::Crash => Some(traced_phase(
            &a.workload.spec(a.seed, 1.0),
            &probe_dir,
            JOBS,
        )?),
        _ => None,
    };
    let lo = traced_phase(&a.workload.spec(a.seed, SCALE_STEP), &probe_dir, JOBS)?;
    let (serve, serve_trace) = serve_probe(a.seed, &a.work)?;
    let mut probes: Vec<&Phase> = Vec::new();
    probes.extend(read_back.as_ref());
    probes.extend(hi.as_ref());
    layer_metrics(
        &mut out,
        &main_phase,
        &probes,
        (hi.as_ref().unwrap_or(&main_phase), &lo),
        &serve,
        &walls,
    );
    let mut traces = vec![
        ("main", main_phase.trace),
        ("scale-lo", lo.trace),
        ("serve", serve_trace),
    ];
    if let Some(r) = read_back {
        traces.push(("read-back", r.trace));
    }
    if let Some(h) = hi {
        traces.push(("scale-hi", h.trace));
    }
    Ok((out, traces))
}

/// `serve-mix` set-up: direct reference runs, then bind until ready.
fn serve_setup(
    a: &Args,
) -> Result<(serve_mix::Reference, vmcw_core::serve::Server, f64, f64), String> {
    let started = Instant::now();
    let reference = serve_mix::reference(a.seed, &a.work)?;
    let (server, bind_s) = serve_mix::start(&serve_mix::state_dir(&a.work), a.seed)?;
    Ok((reference, server, bind_s, started.elapsed().as_secs_f64()))
}

fn serve_plain(a: &Args) -> Result<Out, String> {
    let (reference, server, _, setup_s) = serve_setup(a)?;
    let dir = serve_mix::state_dir(&a.work);
    let results = serve_mix::run_ladder(&dir, server.port(), a.seed, a.seconds, &reference);
    serve_mix::stop(server);
    let disk = batch::dir_bytes(&dir);
    let mut out = Out::new();
    for (i, played) in results.iter().enumerate() {
        for r in played {
            eprintln!("{}", r.summary());
            if r.mismatched > 0 {
                out.invalid(&format!(
                    "{} jobs at {} jobs/s differ from direct runs",
                    r.mismatched, r.rate
                ));
            }
            // Rates above nominal probe for the limit: their refusals
            // are the measurement, not failures. Up to the nominal rate
            // any failure fails the run, so shed jobs cannot flatter the
            // job latencies, which count answered jobs only.
            if i <= NOMINAL {
                out.tally(r.sent, r.failed, || {
                    format!("{} requests failed at {} jobs/s", r.failed, r.rate)
                });
            }
        }
    }
    let lowest: Vec<f64> = results[0]
        .iter()
        .flat_map(|r| r.late_ms.iter().copied())
        .collect();
    let late_p90 = percentile(&lowest, 90.0);
    if late_p90 > serve_mix::LOW_RATE_LATE_LIMIT_MS {
        out.invalid(&format!(
            "generator already {late_p90:.1} ms late at the lowest rate"
        ));
    }
    let rounds = &results[NOMINAL];
    let pooled = |f: fn(&serve_mix::RateResult) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let (jobs, reads) = (pooled(|r| &r.job_ms), pooled(|r| &r.read_ms));
    let (job_p90, job_p) = tail(&jobs, 90.0);
    let (read_p90, read_p) = tail(&reads, 90.0);
    eprintln!(
        "nominal: job p90 taken at p{job_p:.1} of {}, read p90 at p{read_p:.1} of {}",
        jobs.len(),
        reads.len()
    );
    let makespan: f64 = rounds.iter().map(|r| r.makespan).sum();
    let hours: usize = rounds.iter().map(|r| r.hours).sum();
    let max_ok = results
        .iter()
        .filter(|played| serve_mix::meets_limits_mostly(played))
        .map(|played| played[0].rate)
        .fold(0.0, f64::max);
    out.put("setup_s", setup_s, "s");
    out.put("wall_s", makespan, "s");
    out.put("cell_hours_per_s", hours as f64 / makespan, "h/s");
    out.put("disk_mb", disk as f64 / MIB, "MB");
    out.put("job_p50_ms", median(&jobs), "ms");
    out.put("job_p90_ms", job_p90, "ms");
    out.put("read_p50_ms", median(&reads), "ms");
    out.put("read_p90_ms", read_p90, "ms");
    out.put("max_ok_rps", max_ok, "1/s");
    out.put(
        "peak_rss_mb",
        batch::peak_rss_kib() as f64 * 1024.0 / MIB,
        "MB",
    );
    Ok(out)
}

fn serve_traced(a: &Args) -> Result<(Out, Phases), String> {
    let (reference, server, bind_s, _) = serve_setup(a)?;
    let state = serve_mix::state_dir(&a.work);
    let nominal_seconds = a.seconds * serve_mix::SHARES[NOMINAL];
    let (nominal, requests) = serve_mix::run_rate(
        &state,
        server.port(),
        a.seed,
        RATES[NOMINAL],
        nominal_seconds,
        0,
        &reference,
        true,
    );
    serve_mix::stop(server);
    eprintln!("{}", nominal.summary());
    let requests = requests.unwrap_or_default();
    let serve = serve_mix::layer(bind_s, &nominal, &requests, &reference);
    let mut out = Out::new();
    out.check(nominal.failed == 0, || {
        format!("{} requests failed at the nominal rate", nominal.failed)
    });

    let (mut main, mut read_back, mut lo) = (Phase::default(), Trace::default(), Phase::default());
    let mut walls = Walls {
        program: vec![reference.walls.iter().sum()],
        ..Walls::default()
    };
    let (mut replica, mut traced) = (0.0, 0.0);
    for (dc, replay) in serve_mix::job_kinds() {
        let spec = serve_mix::job_spec(a.seed, dc, replay, serve_mix::JOB_SCALE);
        let want = reference.cells.get(&(dc.letter(), replay));
        let dir = a.work.join(format!("replica-{}-{replay}", dc.letter()));
        replica += pipeline::run(Some(&spec), &dir, 1, false)?.wall;
        let csv = std::fs::read(dir.join("cells.csv")).map_err(err)?;
        out.check(Some(&csv) == want, || {
            format!(
                "untraced replica's {}/{replay} cells.csv differs from the direct run's",
                dc.letter()
            )
        });
        std::fs::remove_dir_all(&dir).map_err(err)?;
        let mut t = pipeline::run(Some(&spec), &dir, 1, true)?;
        traced += t.wall;
        let csv = std::fs::read(dir.join("cells.csv")).map_err(err)?;
        out.check(Some(&csv) == want, || {
            format!(
                "traced replica's {}/{replay} cells.csv differs from the direct run's",
                dc.letter()
            )
        });
        read_back.extend(pipeline::read_back(&t, &dir)?);
        main.add(&mut t, &dir);
        std::fs::remove_dir_all(&dir).map_err(err)?;
        let small = serve_mix::job_spec(a.seed, dc, replay, serve_mix::JOB_SCALE / SCALE_STEP);
        let lo_dir = a.work.join("probe");
        let mut t = pipeline::run(Some(&small), &lo_dir, 1, true)?;
        lo.add(&mut t, &lo_dir);
        std::fs::remove_dir_all(&lo_dir).map_err(err)?;
    }
    walls.replica.push(replica);
    walls.traced.push(traced);
    eprintln!("{walls}");
    let (main, lo, read_back) = (main.seal(), lo.seal(), Phase::of_trace(read_back).seal());
    layer_metrics(&mut out, &main, &[&read_back], (&main, &lo), &serve, &walls);
    Ok((
        out,
        vec![
            ("main", main.trace),
            ("scale-lo", lo.trace),
            ("read-back", read_back.trace),
            ("serve", requests),
        ],
    ))
}

fn run(a: &Args) -> Result<Out, String> {
    std::fs::create_dir_all(&a.work).map_err(err)?;
    if !a.trace {
        return match a.workload {
            Workload::ServeMix => serve_plain(a),
            _ => batch_plain(a),
        };
    }
    let (out, traces) = match a.workload {
        Workload::ServeMix => serve_traced(a)?,
        _ => batch_traced(a)?,
    };
    if let Some(path) = &a.spans {
        let phases: Vec<(&str, &Trace)> = traces.iter().map(|(n, t)| (*n, t)).collect();
        spans::write_spans(path, &phases).map_err(err)?;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| match a.mode.as_str() {
        "run" => run(&a).map(|out| println!("{}", out.json())),
        "rep" => {
            let spec = a.workload.spec(a.seed, 1.0);
            let fresh = (a.workload != Workload::Crash).then_some(&spec);
            if a.setup_only {
                println!("{:.6}", batch::unix_now());
                return Ok(());
            }
            batch::child(fresh, &a.work.join("rep")).map(|line| println!("{line}"))
        }
        "prepare" => batch::prepare_crash(a.seed, &a.work.join("base"))
            .map(|secs| println!("{{\"setup_s\": {secs}}}")),
        "pin" => {
            for w in [Workload::PaperGrid, Workload::Fleet] {
                let dir = a.work.join("pin");
                let rep = batch::timed(Some(&w.spec(a.seed, 1.0)), &dir)?;
                std::fs::remove_dir_all(&dir).map_err(err)?;
                println!(
                    "{}\t{}\t{:016x}\t{:016x}",
                    a.seed,
                    w.pinned_as(),
                    rep.digests.0,
                    rep.digests.1
                );
            }
            Ok(())
        }
        other => Err(format!("unknown mode `{other}`")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
