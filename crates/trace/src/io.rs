//! CSV import/export of workload traces.
//!
//! The generator stands in for proprietary traces, but a downstream user
//! with *real* monitoring data should be able to feed it straight into
//! the planners. This module defines a simple, documented CSV schema and
//! round-trip serialisation for [`GeneratedWorkload`]:
//!
//! ```csv
//! server,class,cpu_capacity_rpe2,mem_capacity_mb,net_peak_mbps,hour,cpu_used_frac,mem_used_mb
//! bank-0000,web,6100,8192,72.5,0,0.031,1742.0
//! ```
//!
//! One row per server-hour; servers may appear in any order but each
//! server's hours must be dense (0..n). [`write_csv`]/[`read_csv`] work
//! on any `io::Write`/`io::Read`; [`save`]/[`load`] wrap files.

use crate::datacenters::{DataCenterId, GeneratedWorkload, SourceServer};
use crate::series::{StepSecs, TimeSeries};
use crate::warehouse::SourceId;
use crate::workload::{WorkloadClass, HOURS_PER_DAY};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Hard cap on per-server trace hours accepted from an external CSV
/// (five leap years of hourly samples — far beyond any study horizon).
pub const MAX_TRACE_HOURS: usize = 24 * 366 * 5;

/// Hard cap on distinct servers accepted from an external CSV.
pub const MAX_TRACE_SERVERS: usize = 100_000;

/// Hard cap on total data rows accepted from an external CSV.
pub const MAX_TRACE_ROWS: usize = 10_000_000;

/// Errors produced when parsing a trace CSV.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed row (line number, message).
    Parse(usize, String),
    /// Structural problem after parsing (e.g. ragged hour ranges).
    Structure(String),
    /// The input exceeds a hard resource cap. Untrusted CSVs are sized
    /// before they are buffered, so a hostile or corrupt file fails with
    /// a typed error instead of exhausting memory.
    TooLarge {
        /// Which dimension blew the cap (`hours`, `servers`, `rows`).
        what: &'static str,
        /// The offending value.
        value: usize,
        /// The cap it exceeded.
        cap: usize,
    },
    /// A failure reading a specific file, carrying its path.
    File {
        /// The file being read.
        path: PathBuf,
        /// What went wrong.
        source: Box<TraceIoError>,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O failed: {e}"),
            TraceIoError::Parse(line, msg) => write!(f, "line {line}: {msg}"),
            TraceIoError::Structure(msg) => write!(f, "inconsistent trace: {msg}"),
            TraceIoError::TooLarge { what, value, cap } => write!(
                f,
                "trace too large: {what} {value} exceeds the hard cap of {cap}"
            ),
            TraceIoError::File { path, source } => {
                write!(f, "failed to read {}: {source}", path.display())
            }
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::File { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// The CSV header line.
pub const HEADER: &str =
    "server,class,cpu_capacity_rpe2,mem_capacity_mb,net_peak_mbps,hour,cpu_used_frac,mem_used_mb";

/// Writes a workload as CSV.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_csv<W: Write>(workload: &GeneratedWorkload, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "{HEADER}")?;
    for server in &workload.servers {
        for (hour, (cpu, mem)) in server
            .cpu_used_frac
            .iter()
            .zip(server.mem_used_mb.iter())
            .enumerate()
        {
            writeln!(
                w,
                "{},{},{},{},{:.3},{},{:.6},{:.3}",
                server.name,
                server.class.label(),
                server.cpu_capacity_rpe2,
                server.mem_capacity_mb,
                server.net_peak_mbps,
                hour,
                cpu,
                mem
            )?;
        }
    }
    w.flush()
}

/// Reads a workload from CSV.
///
/// The resulting workload is tagged with `dc` (the CSV schema carries no
/// data-center identity). Trace length is rounded down to whole days.
///
/// # Errors
///
/// Returns [`TraceIoError`] for I/O failures, malformed rows, ragged
/// per-server hour ranges, or inputs exceeding the [`MAX_TRACE_HOURS`] /
/// [`MAX_TRACE_SERVERS`] / [`MAX_TRACE_ROWS`] hard caps.
pub fn read_csv<R: Read>(dc: DataCenterId, reader: R) -> Result<GeneratedWorkload, TraceIoError> {
    struct Partial {
        class: WorkloadClass,
        cpu_capacity_rpe2: f64,
        mem_capacity_mb: f64,
        net_peak_mbps: f64,
        cpu: Vec<(usize, f64)>,
        mem: Vec<(usize, f64)>,
    }
    let mut servers: BTreeMap<String, Partial> = BTreeMap::new();
    let mut rows = 0usize;
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        if idx == 0 {
            if line.trim() != HEADER {
                return Err(TraceIoError::Parse(
                    lineno,
                    format!("expected header `{HEADER}`"),
                ));
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        rows += 1;
        if rows > MAX_TRACE_ROWS {
            return Err(TraceIoError::TooLarge {
                what: "rows",
                value: rows,
                cap: MAX_TRACE_ROWS,
            });
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 8 {
            return Err(TraceIoError::Parse(
                lineno,
                format!("expected 8 fields, got {}", fields.len()),
            ));
        }
        let parse_f = |s: &str, what: &str| -> Result<f64, TraceIoError> {
            s.trim()
                .parse()
                .map_err(|e| TraceIoError::Parse(lineno, format!("bad {what} `{s}`: {e}")))
        };
        let class = match fields[1].trim() {
            "web" => WorkloadClass::Web,
            "batch" => WorkloadClass::Batch,
            other => {
                return Err(TraceIoError::Parse(
                    lineno,
                    format!("unknown class `{other}`"),
                ));
            }
        };
        let cpu_capacity = parse_f(fields[2], "cpu capacity")?;
        let mem_capacity = parse_f(fields[3], "mem capacity")?;
        let net_peak = parse_f(fields[4], "network peak")?;
        let hour: usize = fields[5]
            .trim()
            .parse()
            .map_err(|e| TraceIoError::Parse(lineno, format!("bad hour `{}`: {e}", fields[5])))?;
        let cpu = parse_f(fields[6], "cpu fraction")?;
        let mem = parse_f(fields[7], "memory")?;
        // `f64::parse` happily accepts "NaN" and "inf"; a single such
        // sample would silently poison every downstream aggregate, so
        // reject non-finite and negative values here with a line number.
        let finite = |v: f64, what: &str| -> Result<(), TraceIoError> {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(TraceIoError::Parse(
                    lineno,
                    format!("{what} `{v}` is not a finite non-negative number"),
                ))
            }
        };
        finite(cpu_capacity, "cpu capacity")?;
        finite(mem_capacity, "mem capacity")?;
        finite(net_peak, "network peak")?;
        finite(mem, "memory")?;
        if !(0.0..=1.0).contains(&cpu) {
            return Err(TraceIoError::Parse(
                lineno,
                format!("cpu fraction {cpu} outside 0..=1"),
            ));
        }
        // Size checks before buffering: the hour bound caps what any one
        // server can allocate, the server bound caps the map itself.
        if hour >= MAX_TRACE_HOURS {
            return Err(TraceIoError::TooLarge {
                what: "hours",
                value: hour.saturating_add(1),
                cap: MAX_TRACE_HOURS,
            });
        }
        let name = fields[0].trim();
        if !servers.contains_key(name) && servers.len() >= MAX_TRACE_SERVERS {
            return Err(TraceIoError::TooLarge {
                what: "servers",
                value: servers.len() + 1,
                cap: MAX_TRACE_SERVERS,
            });
        }
        let entry = servers.entry(name.to_owned()).or_insert_with(|| Partial {
            class,
            cpu_capacity_rpe2: cpu_capacity,
            mem_capacity_mb: mem_capacity,
            net_peak_mbps: net_peak,
            cpu: Vec::new(),
            mem: Vec::new(),
        });
        entry.cpu.push((hour, cpu));
        entry.mem.push((hour, mem));
    }
    if servers.is_empty() {
        return Err(TraceIoError::Structure("no servers in trace".to_owned()));
    }

    let mut out = Vec::with_capacity(servers.len());
    let mut hours_seen: Option<usize> = None;
    for (i, (name, mut p)) in servers.into_iter().enumerate() {
        p.cpu.sort_by_key(|&(h, _)| h);
        p.mem.sort_by_key(|&(h, _)| h);
        for (expected, &(h, _)) in p.cpu.iter().enumerate() {
            if h != expected {
                return Err(TraceIoError::Structure(format!(
                    "server {name}: hour {expected} missing or duplicated"
                )));
            }
        }
        let n = p.cpu.len();
        match hours_seen {
            None => hours_seen = Some(n),
            Some(m) if m != n => {
                return Err(TraceIoError::Structure(format!(
                    "server {name} has {n} hours, others have {m}"
                )));
            }
            _ => {}
        }
        out.push(SourceServer {
            id: SourceId(i as u32),
            name,
            class: p.class,
            cpu_capacity_rpe2: p.cpu_capacity_rpe2,
            mem_capacity_mb: p.mem_capacity_mb,
            net_peak_mbps: p.net_peak_mbps,
            cpu_used_frac: TimeSeries::new(
                StepSecs::HOUR,
                p.cpu.into_iter().map(|(_, v)| v).collect(),
            ),
            mem_used_mb: TimeSeries::new(
                StepSecs::HOUR,
                p.mem.into_iter().map(|(_, v)| v).collect(),
            ),
        });
    }
    let days = hours_seen.unwrap_or(0) / HOURS_PER_DAY;
    if days == 0 {
        return Err(TraceIoError::Structure(
            "trace shorter than one day".to_owned(),
        ));
    }
    // Truncate to whole days so calendar-based analysis stays aligned.
    for s in &mut out {
        s.cpu_used_frac = s.cpu_used_frac.slice(0..days * HOURS_PER_DAY);
        s.mem_used_mb = s.mem_used_mb.slice(0..days * HOURS_PER_DAY);
    }
    Ok(GeneratedWorkload {
        dc,
        days,
        servers: out,
    })
}

/// Saves a workload to a CSV file, atomically (see [`write_atomic`]):
/// a crash mid-save never leaves a torn trace behind.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn save(workload: &GeneratedWorkload, path: &Path) -> io::Result<()> {
    let mut csv = Vec::new();
    write_csv(workload, &mut csv)?;
    write_atomic(path, &csv)
}

/// Writes `bytes` to `path` atomically: a sibling temp file is written,
/// fsynced, and renamed over the target, so readers (and crashes) see
/// either the old content or the new — never a truncated file. The temp
/// name is unique per process and per call, so concurrent writers to
/// one path never share a temp file; the last rename wins, whole.
///
/// Parent directories are created as needed.
///
/// # Errors
///
/// Any underlying I/O error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = path.with_file_name(format!(
        ".{}.{}.{}.tmp",
        file_name.to_string_lossy(),
        std::process::id(),
        NEXT_TMP.fetch_add(1, Ordering::Relaxed)
    ));
    let written = std::fs::File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Loads a workload from a CSV file.
///
/// # Errors
///
/// See [`read_csv`]; every error is wrapped in
/// [`TraceIoError::File`] so it names the offending path end-to-end
/// (`failed to read <path>: <cause>`).
pub fn load(dc: DataCenterId, path: &Path) -> Result<GeneratedWorkload, TraceIoError> {
    let wrap = |source: TraceIoError| TraceIoError::File {
        path: path.to_path_buf(),
        source: Box::new(source),
    };
    let file = std::fs::File::open(path).map_err(|e| wrap(TraceIoError::Io(e)))?;
    read_csv(dc, file).map_err(wrap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacenters::GeneratorConfig;

    fn sample() -> GeneratedWorkload {
        GeneratorConfig::new(DataCenterId::Beverage)
            .scale(0.005)
            .days(2)
            .generate(3)
    }

    #[test]
    fn round_trip_preserves_structure() {
        let original = sample();
        let mut buf = Vec::new();
        write_csv(&original, &mut buf).unwrap();
        let loaded = read_csv(DataCenterId::Beverage, buf.as_slice()).unwrap();
        assert_eq!(loaded.days, original.days);
        assert_eq!(loaded.servers.len(), original.servers.len());
        // Server identity is by name after a round trip; values match to
        // the serialised precision.
        for s in &original.servers {
            let l = loaded
                .servers
                .iter()
                .find(|x| x.name == s.name)
                .expect("name kept");
            assert_eq!(l.class, s.class);
            assert_eq!(l.cpu_used_frac.len(), s.cpu_used_frac.len());
            for (a, b) in l.cpu_used_frac.iter().zip(s.cpu_used_frac.iter()) {
                assert!((a - b).abs() < 1e-5);
            }
            for (a, b) in l.mem_used_mb.iter().zip(s.mem_used_mb.iter()) {
                assert!((a - b).abs() < 5e-3);
            }
        }
    }

    #[test]
    fn header_mismatch_is_rejected() {
        let err = read_csv(DataCenterId::Banking, "wrong,header\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(1, _)));
    }

    #[test]
    fn ragged_hours_are_rejected() {
        let csv = format!(
            "{HEADER}\n\
             a,web,1000,4096,50,0,0.1,100\n\
             a,web,1000,4096,50,2,0.1,100\n"
        );
        let err = read_csv(DataCenterId::Banking, csv.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Structure(_)), "{err}");
    }

    #[test]
    fn unequal_server_lengths_are_rejected() {
        let mut csv = format!("{HEADER}\n");
        for h in 0..24 {
            csv.push_str(&format!("a,web,1000,4096,50,{h},0.1,100\n"));
        }
        for h in 0..25 {
            csv.push_str(&format!("b,web,1000,4096,50,{h},0.1,100\n"));
        }
        let err = read_csv(DataCenterId::Banking, csv.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Structure(_)));
    }

    #[test]
    fn cpu_fraction_bounds_are_enforced() {
        let csv = format!("{HEADER}\na,web,1000,4096,50,0,1.5,100\n");
        let err = read_csv(DataCenterId::Banking, csv.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(2, _)));
    }

    #[test]
    fn unknown_class_is_rejected() {
        let csv = format!("{HEADER}\na,gpu,1000,4096,50,0,0.5,100\n");
        let err = read_csv(DataCenterId::Banking, csv.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(2, _)));
    }

    #[test]
    fn sub_day_traces_are_rejected() {
        let mut csv = format!("{HEADER}\n");
        for h in 0..12 {
            csv.push_str(&format!("a,web,1000,4096,50,{h},0.1,100\n"));
        }
        let err = read_csv(DataCenterId::Banking, csv.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Structure(_)));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("vmcw-trace-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        let original = sample();
        save(&original, &path).unwrap();
        let loaded = load(DataCenterId::Beverage, &path).unwrap();
        assert_eq!(loaded.servers.len(), original.servers.len());
    }

    #[test]
    fn concurrent_atomic_writes_to_one_path_each_land_whole() {
        let dir = std::env::temp_dir().join(format!("vmcw-trace-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("shared.txt");
        let payloads: Vec<Vec<u8>> = (0..8u8)
            .map(|i| vec![b'a' + i; 4096 * (1 + usize::from(i))])
            .collect();
        std::thread::scope(|s| {
            for payload in &payloads {
                let path = &path;
                s.spawn(move || {
                    for _ in 0..25 {
                        write_atomic(path, payload).unwrap();
                    }
                });
            }
        });
        let got = std::fs::read(&path).unwrap();
        assert!(payloads.contains(&got), "torn file of {} bytes", got.len());
        // Every temp file was renamed away.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_display_is_informative() {
        let err = TraceIoError::Parse(7, "bad hour".into());
        assert!(err.to_string().contains("line 7"));
        let err = TraceIoError::Structure("ragged".into());
        assert!(err.to_string().contains("inconsistent"));
        let err = TraceIoError::TooLarge {
            what: "hours",
            value: 99,
            cap: 10,
        };
        assert!(err.to_string().contains("hard cap"), "{err}");
    }

    #[test]
    fn absurd_hour_indices_are_capped() {
        let csv = format!("{HEADER}\na,web,1000,4096,50,{},0.1,100\n", usize::MAX);
        let err = read_csv(DataCenterId::Banking, csv.as_bytes()).unwrap_err();
        assert!(
            matches!(err, TraceIoError::TooLarge { what: "hours", .. }),
            "{err}"
        );
    }

    #[test]
    fn load_errors_carry_the_file_path() {
        let path = std::env::temp_dir().join("vmcw-no-such-trace.csv");
        let err = load(DataCenterId::Banking, &path).unwrap_err();
        match &err {
            TraceIoError::File { path: p, source } => {
                assert_eq!(p, &path);
                assert!(matches!(**source, TraceIoError::Io(_)));
            }
            other => panic!("expected File error, got {other:?}"),
        }
        assert!(err.to_string().contains("vmcw-no-such-trace.csv"), "{err}");
        assert!(std::error::Error::source(&err).is_some());
    }
}
