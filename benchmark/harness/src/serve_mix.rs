//! The `serve-mix` workload: an in-process `vmcw serve` driven by an
//! open loop of small studies with status reads in between.
//!
//! Two client threads share one schedule, so at most two connections
//! are open at a time. Every request is timed from when it was due,
//! which charges a stall to the requests queued behind it, and the
//! generator's own lateness is reported next to the latencies.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vmcw_core::serve::{ServeConfig, Server, JOBS_DIR};
use vmcw_core::supervise::{run_study_opts, CancelToken, RunOptions, StudySpec};
use vmcw_emulator::faults::FaultConfig;
use vmcw_trace::datacenters::DataCenterId;

use crate::err;
use crate::spans::{Recorder, Trace};
use crate::stats::{median, percentile};

/// Job rates tried, jobs per second; the middle one is nominal. A job
/// `POST` holds one of the two client threads for the whole job (about
/// 70 ms), so the client pool saturates between 10 and 14 jobs/s,
/// depending on how much of the shared host the run gets. Near that
/// knee a small slowdown of the host turns into queueing and multiplies
/// every latency, and a rate there would pass the limits in one run and
/// miss them in the next. So no rate sits there: at 6 jobs/s the two
/// threads are about 40% busy, and 16 jobs/s is past the knee on a quiet
/// host too.
pub const RATES: [f64; 3] = [3.0, 6.0, 16.0];
/// Index of the nominal rate in [`RATES`].
pub const NOMINAL: usize = 1;
/// Share of the measured seconds each rate runs for, in all.
pub const SHARES: [f64; 3] = [0.1, 0.8, 0.1];
/// Rounds the rates up to nominal are split into, played alternately,
/// so that a burst of outside load over one round does not move
/// `max_ok_rps`. Rates above nominal overload the client and server and
/// run once, last, so the backlog they leave cannot spill into a round
/// that must not fail.
pub const ROUNDS: usize = 3;
/// Limits a rate must meet to count towards `max_ok_rps`.
pub const JOB_P90_LIMIT_MS: f64 = 250.0;
/// Read p90 limit, ms.
pub const READ_P90_LIMIT_MS: f64 = 50.0;
/// How much later the last third of a schedule may run than the first
/// before the generator counts as falling behind, ms.
pub const LATENESS_SLACK_MS: f64 = 25.0;
/// Generator lateness p90 at the lowest rate beyond which the client,
/// not the server, is the bottleneck and the run is invalid, ms.
pub const LOW_RATE_LATE_LIMIT_MS: f64 = 25.0;

/// Scale, history and evaluation days of one job.
pub const JOB_SCALE: f64 = 0.1;
const JOB_HISTORY_DAYS: usize = 7;
const JOB_EVAL_DAYS: usize = 2;

/// The study one job asks for: one data center, all three planners,
/// faults on for `/v1/replay`.
pub fn job_spec(seed: u64, dc: DataCenterId, replay: bool, scale: f64) -> StudySpec {
    let mut spec = StudySpec::new(scale, seed, JOB_HISTORY_DAYS, JOB_EVAL_DAYS);
    spec.dcs = vec![dc];
    if replay {
        spec.faults = Some(FaultConfig::baseline(seed));
    }
    spec
}

/// Every distinct job: the four data centers, plan and replay.
pub fn job_kinds() -> Vec<(DataCenterId, bool)> {
    DataCenterId::ALL
        .into_iter()
        .flat_map(|dc| [(dc, false), (dc, true)])
        .collect()
}

/// `cells.csv` of a direct `run_study_opts` of every distinct job.
pub struct Reference {
    /// Bytes of `cells.csv`, by (data-center letter, replay).
    pub cells: BTreeMap<(char, bool), Vec<u8>>,
    /// Wall seconds of each direct run.
    pub walls: Vec<f64>,
}

/// Runs every distinct job directly, as a serve worker would (one
/// worker thread per job).
pub fn reference(seed: u64, work: &Path) -> Result<Reference, String> {
    let mut cells = BTreeMap::new();
    let mut walls = Vec::new();
    for (dc, replay) in job_kinds() {
        let dir = work.join(format!("direct-{}-{replay}", dc.letter()));
        let spec = job_spec(seed, dc, replay, JOB_SCALE);
        let opts = RunOptions::default();
        let t = Instant::now();
        run_study_opts(&spec, &dir, &CancelToken::new(), &opts).map_err(err)?;
        walls.push(t.elapsed().as_secs_f64());
        cells.insert(
            (dc.letter(), replay),
            std::fs::read(dir.join("cells.csv")).map_err(err)?,
        );
        std::fs::remove_dir_all(&dir).map_err(err)?;
    }
    Ok(Reference { cells, walls })
}

/// One `Connection: close` request to the server on `port`:
/// `(status, body)`.
pub fn http(port: u16, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).map_err(err)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(err)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(err)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(err)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response without header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response without status")?;
    Ok((status, body.to_owned()))
}

/// A bound server and the seconds from `Server::bind` to its first
/// `/readyz` 200.
pub fn start(dir: &Path, seed: u64) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let mut config = ServeConfig::new(dir, 0);
    config.workers = 2;
    config.queue_depth = 8;
    config.seed = seed;
    let server = Server::bind(config).map_err(err)?;
    loop {
        if let Ok((200, _)) = http(server.port(), "GET", "/readyz", "") {
            return Ok((server, started.elapsed().as_secs_f64()));
        }
        if started.elapsed() > Duration::from_secs(10) {
            stop(server);
            return Err("server never became ready".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Drains the server and waits for all its threads.
pub fn stop(server: Server) {
    server.drain_handle().drain();
    server.join();
}

#[derive(Debug, Clone)]
enum Request {
    Job {
        id: String,
        dc: DataCenterId,
        replay: bool,
    },
    Ready,
    Health,
    Status {
        id: String,
    },
}

/// One due request.
#[derive(Debug, Clone)]
struct Due {
    at: f64,
    request: Request,
}

/// Jobs at `rate` for `seconds`, rotating over the data centers from a
/// seed-chosen start and alternating plan and replay, each followed by
/// the three reads spaced evenly before the next job.
fn schedule(rate: f64, seconds: f64, seed: u64, tag: &str) -> Vec<Due> {
    let jobs = (rate * seconds).round().max(1.0) as usize;
    let mut out = Vec::with_capacity(jobs * 4);
    for k in 0..jobs {
        let id = format!("{tag}-{k:04}");
        let dc = DataCenterId::ALL[(seed as usize + k / 2) % DataCenterId::ALL.len()];
        let at = k as f64 / rate;
        out.push(Due {
            at,
            request: Request::Job {
                id: id.clone(),
                dc,
                replay: k % 2 == 1,
            },
        });
        let reads = [Request::Ready, Request::Health, Request::Status { id }];
        for (j, request) in reads.into_iter().enumerate() {
            out.push(Due {
                at: at + (j + 1) as f64 / (4.0 * rate),
                request,
            });
        }
    }
    out
}

/// What happened to one request.
#[derive(Debug, Clone)]
struct Sample {
    due: Due,
    sent: f64,
    done: f64,
    reply: Result<(u16, String), String>,
}

/// Plays `sched` against `port` from two client threads; spans per
/// request when `trace` is set.
fn play(port: u16, seed: u64, sched: &[Due], trace: bool) -> (Vec<Sample>, Option<Trace>) {
    let origin = Instant::now();
    let next = AtomicUsize::new(0);
    let samples: Mutex<Vec<(usize, Sample)>> = Mutex::new(Vec::new());
    let recorders: Vec<Recorder> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let (next, samples) = (&next, &samples);
                s.spawn(move || {
                    let mut rec = if trace {
                        Recorder::new(origin, t, None)
                    } else {
                        Recorder::off(origin)
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(due) = sched.get(i) else {
                            return rec;
                        };
                        let wait = due.at - origin.elapsed().as_secs_f64();
                        if wait > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(wait));
                        }
                        let sent = origin.elapsed().as_secs_f64();
                        let send = || match &due.request {
                            Request::Job { id, dc, replay } => {
                                let body = format!(
                                    "{{\"id\": \"{id}\", \"dcs\": \"{}\", \"scale\": {JOB_SCALE}, \
                                     \"history_days\": {JOB_HISTORY_DAYS}, \
                                     \"eval_days\": {JOB_EVAL_DAYS}, \"seed\": {seed}, \
                                     \"faults\": {replay}}}",
                                    dc.letter()
                                );
                                let path = if *replay { "/v1/replay" } else { "/v1/plan" };
                                http(port, "POST", path, &body)
                            }
                            Request::Ready => http(port, "GET", "/readyz", ""),
                            Request::Health => http(port, "GET", "/healthz", ""),
                            Request::Status { id } => {
                                http(port, "GET", &format!("/v1/jobs/{id}"), "")
                            }
                        };
                        let name = match due.request {
                            Request::Job { .. } => "serve.job",
                            _ => "serve.read",
                        };
                        let reply = rec.span(name, i as u64, |_| send());
                        let done = origin.elapsed().as_secs_f64();
                        let sample = Sample {
                            due: due.clone(),
                            sent,
                            done,
                            reply,
                        };
                        samples
                            .lock()
                            .expect("sample lock poisoned")
                            .push((i, sample));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut samples = samples.into_inner().expect("sample lock poisoned");
    samples.sort_by_key(|(i, _)| *i);
    let trace = trace.then(|| {
        let mut t = Trace::default();
        for r in recorders {
            t.absorb(r);
        }
        t
    });
    (samples.into_iter().map(|(_, s)| s).collect(), trace)
}

/// Figures of one rate.
#[derive(Debug, Clone, Default)]
pub struct RateResult {
    /// Jobs per second.
    pub rate: f64,
    /// Requests sent.
    pub sent: usize,
    /// Requests answered 200 whose outputs matched.
    pub ok: usize,
    /// Requests that failed: transport error, non-200, or a job whose
    /// `cells.csv` differs from the direct run.
    pub failed: usize,
    /// Jobs answered 200 whose `cells.csv` differs from the direct run.
    pub mismatched: usize,
    /// Job latencies from due, ms (successful jobs).
    pub job_ms: Vec<f64>,
    /// Read latencies from due, ms (successful reads).
    pub read_ms: Vec<f64>,
    /// Generator lateness per request in schedule order, ms.
    pub late_ms: Vec<f64>,
    /// Largest admission-queue depth `/healthz` reported.
    pub queue_depth_max: usize,
    /// Replay hours of the successful jobs.
    pub hours: usize,
    /// First due to last answer, seconds.
    pub makespan: f64,
}

impl RateResult {
    /// Whether this rate meets every limit `max_ok_rps` asks for.
    pub fn meets_limits(&self) -> bool {
        self.failed == 0
            && !self.job_ms.is_empty()
            && percentile(&self.job_ms, 90.0) <= JOB_P90_LIMIT_MS
            && percentile(&self.read_ms, 90.0) <= READ_P90_LIMIT_MS
            && !crate::stats::lateness_growing(&self.late_ms, LATENESS_SLACK_MS)
    }

    /// One line for the run's log.
    pub fn summary(&self) -> String {
        format!(
            "rate {:>4} jobs/s: sent {} ok {} failed {}; job p50 {:.1} ms p90 {:.1} ms (n={}); \
             read p50 {:.1} ms p90 {:.1} ms (n={}); late p50 {:.1} ms p90 {:.1} ms; \
             queue max {}; meets limits: {}",
            self.rate,
            self.sent,
            self.ok,
            self.failed,
            median(&self.job_ms),
            percentile(&self.job_ms, 90.0),
            self.job_ms.len(),
            median(&self.read_ms),
            percentile(&self.read_ms, 90.0),
            self.read_ms.len(),
            median(&self.late_ms),
            percentile(&self.late_ms, 90.0),
            self.queue_depth_max,
            self.meets_limits()
        )
    }
}

fn number_after(body: &str, key: &str) -> Option<usize> {
    let rest = &body[body.find(key)? + key.len()..];
    let digits: String = rest
        .trim_start_matches([':', ' ', '"'])
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Runs one rate for `seconds` and checks every answered job's
/// `cells.csv` against the direct run. `round` keeps job ids unique
/// when a rate is played more than once against one server.
#[allow(clippy::too_many_arguments)]
pub fn run_rate(
    server_dir: &Path,
    port: u16,
    seed: u64,
    rate: f64,
    seconds: f64,
    round: usize,
    reference: &Reference,
    trace: bool,
) -> (RateResult, Option<Trace>) {
    let tag = format!("r{}-{round}", rate as u64);
    let sched = schedule(rate, seconds, seed, &tag);
    let (samples, spans) = play(port, seed, &sched, trace);
    let mut out = RateResult {
        rate,
        ..RateResult::default()
    };
    let first_due = sched.first().map_or(0.0, |d| d.at);
    let mut last_done: f64 = 0.0;
    for s in &samples {
        out.sent += 1;
        out.late_ms.push((s.sent - s.due.at) * 1e3);
        last_done = last_done.max(s.done);
        let latency = (s.done - s.due.at) * 1e3;
        let ok = match (&s.reply, &s.due.request) {
            (Ok((200, body)), Request::Job { id, dc, replay }) => {
                let path = server_dir.join(JOBS_DIR).join(id).join("cells.csv");
                let same = std::fs::read(path).ok().as_ref()
                    == reference.cells.get(&(dc.letter(), *replay));
                if same {
                    out.job_ms.push(latency);
                    out.hours += number_after(body, "\"hours_done\"").unwrap_or(0);
                } else {
                    out.mismatched += 1;
                }
                same
            }
            (Ok((200, body)), request) => {
                if matches!(request, Request::Health) {
                    let depth = number_after(body, "\"queue_depth\"").unwrap_or(0);
                    out.queue_depth_max = out.queue_depth_max.max(depth);
                }
                out.read_ms.push(latency);
                true
            }
            _ => false,
        };
        if ok {
            out.ok += 1;
        } else {
            out.failed += 1;
        }
    }
    out.makespan = last_done - first_due;
    (out, spans)
}

/// Plays every rate against the server on `port` for `seconds` in all:
/// [`ROUNDS`] rounds of the rates up to nominal, then each rate above
/// it once. The results of each rate, one per time it was played.
pub fn run_ladder(
    server_dir: &Path,
    port: u16,
    seed: u64,
    seconds: f64,
    reference: &Reference,
) -> Vec<Vec<RateResult>> {
    let play = |i: usize, rounds: usize, round: usize| {
        let secs = seconds * SHARES[i] / rounds as f64;
        run_rate(
            server_dir, port, seed, RATES[i], secs, round, reference, false,
        )
        .0
    };
    let mut out = vec![Vec::new(); RATES.len()];
    for round in 0..ROUNDS {
        for (i, rounds) in out.iter_mut().enumerate().take(NOMINAL + 1) {
            rounds.push(play(i, ROUNDS, round));
        }
    }
    for (i, rounds) in out.iter_mut().enumerate().skip(NOMINAL + 1) {
        rounds.push(play(i, 1, 0));
    }
    out
}

/// Whether most of the times a rate was played met every limit.
pub fn meets_limits_mostly(played: &[RateResult]) -> bool {
    2 * played.iter().filter(|r| r.meets_limits()).count() > played.len()
}

/// The state directory of a serve session under `work`.
pub fn state_dir(work: &Path) -> PathBuf {
    work.join("serve-state")
}

/// Figures the serve layer contributes to a traced run.
#[derive(Debug, Clone, Default)]
pub struct ServeLayer {
    /// Median seconds from `Server::bind` to the first `/readyz` 200.
    pub bind_s: f64,
    /// Median `/readyz` latency at the nominal rate, ms.
    pub readyz_p50_ms: f64,
    /// Job p50 at the nominal rate minus the direct run's p50, ms.
    pub job_overhead_ms: f64,
    /// Largest queue depth `/healthz` reported.
    pub queue_depth_max: usize,
    /// Generator lateness p90 at the nominal rate, ms.
    pub gen_late_p90_ms: f64,
}

/// The serve layer's figures from a nominal-rate run.
pub fn layer(
    bind_s: f64,
    nominal: &RateResult,
    trace: &Trace,
    reference: &Reference,
) -> ServeLayer {
    let readyz: Vec<f64> = trace
        .named("serve.read")
        .filter(|s| s.id % 4 == 1)
        .map(|s| (s.end - s.start) * 1e3)
        .collect();
    ServeLayer {
        bind_s,
        readyz_p50_ms: median(&readyz),
        job_overhead_ms: median(&nominal.job_ms) - median(&reference.walls) * 1e3,
        queue_depth_max: nominal.queue_depth_max,
        gen_late_p90_ms: percentile(&nominal.late_ms, 90.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rate_counts_when_most_rounds_meet_the_limits() {
        let ok = RateResult {
            job_ms: vec![70.0; 20],
            read_ms: vec![20.0; 20],
            late_ms: vec![0.5; 20],
            ..RateResult::default()
        };
        let slow = RateResult {
            read_ms: vec![READ_P90_LIMIT_MS + 1.0; 20],
            ..ok.clone()
        };
        let failed = RateResult {
            failed: 1,
            ..ok.clone()
        };
        assert!(ok.meets_limits() && !slow.meets_limits() && !failed.meets_limits());
        assert!(meets_limits_mostly(&[ok.clone(), slow.clone(), ok.clone()]));
        assert!(!meets_limits_mostly(&[ok.clone(), slow, failed]));
        assert!(meets_limits_mostly(std::slice::from_ref(&ok)));
        assert!(!meets_limits_mostly(&[
            ok.clone(),
            ok.clone(),
            RateResult::default(),
            RateResult::default()
        ]));
        assert!(!meets_limits_mostly(&[]));
    }

    #[test]
    fn rounds_of_a_rate_get_distinct_job_ids() {
        let ids = |tag: &str| -> Vec<String> {
            schedule(12.0, 1.0, 7, tag)
                .into_iter()
                .filter_map(|d| match d.request {
                    Request::Job { id, .. } => Some(id),
                    _ => None,
                })
                .collect()
        };
        let (a, b) = (ids("r12-0"), ids("r12-1"));
        assert_eq!(a.len(), 12);
        assert!(a.iter().all(|id| !b.contains(id)));
    }
}
