//! In-memory span recording for the traced run.
//!
//! Each thread owns a [`Recorder`]; a span nests under whatever span is
//! open on that thread, and a thread's root spans can name a parent on
//! another thread (workers under the study's root span). Recorders are
//! merged into a [`Trace`] when their threads end and written out once,
//! after the measured region.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `replay.step`.
    pub name: &'static str,
    /// Shared by all spans of one cell or request.
    pub id: u64,
    /// Index of the enclosing span in the merged [`Trace`].
    pub parent: Option<usize>,
    /// Recording thread, 0 for the thread that owns the run.
    pub thread: usize,
    /// Seconds since the trace origin.
    pub start: f64,
    /// Seconds since the trace origin.
    pub end: f64,
}

/// The spans of one thread, in the order they were opened.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    thread: usize,
    root_parent: Option<usize>,
    /// Off: `span` only runs its closure, so the same code runs untraced.
    on: bool,
    /// Spans with their parent still local (`true`) or already global.
    spans: Vec<(Span, bool)>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder for `thread` whose root spans hang under
    /// `root_parent`, an index into the trace the main thread's spans
    /// are merged into first.
    pub fn new(origin: Instant, thread: usize, root_parent: Option<usize>) -> Self {
        Self {
            origin,
            thread,
            root_parent,
            on: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off(origin: Instant) -> Self {
        Self {
            on: false,
            ..Self::new(origin, 0, None)
        }
    }

    /// A recorder for another thread of the same run: recording if this
    /// one is, its root spans under this one's innermost open span.
    pub fn fork(&self, thread: usize) -> Self {
        Self {
            on: self.on,
            ..Self::new(self.origin, thread, self.current())
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let local = self.open.last().copied();
        let span = Span {
            name,
            id,
            parent: local.or(self.root_parent),
            thread: self.thread,
            start: self.origin.elapsed().as_secs_f64(),
            end: 0.0,
        };
        self.spans.push((span, local.is_some()));
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].0.end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Index of the innermost open span, as seen by a recorder absorbed
    /// after this one (valid when this recorder is absorbed first).
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }
}

/// Merged spans of one traced phase.
#[derive(Debug, Default)]
pub struct Trace {
    /// All spans; parents are indices into this list.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Appends a finished recorder's spans.
    pub fn absorb(&mut self, rec: Recorder) {
        let offset = self.spans.len();
        for (mut s, local) in rec.spans {
            if local {
                s.parent = s.parent.map(|p| p + offset);
            }
            self.spans.push(s);
        }
    }

    /// Appends another trace's spans, keeping its parent links.
    pub fn extend(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Each span's duration minus the part of it its children cover
    /// (children on other threads included, overlapping ones counted
    /// once).
    pub fn self_times(&self) -> Vec<f64> {
        let mut kids: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids.entry(p).or_default().push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut covered = 0.0;
                if let Some(ivs) = kids.get_mut(&i) {
                    ivs.sort_by(|a, b| a.0.total_cmp(&b.0));
                    let mut cur: Option<(f64, f64)> = None;
                    for &(a, b) in ivs.iter() {
                        let (a, b) = (a.max(s.start), b.min(s.end));
                        if b <= a {
                            continue;
                        }
                        cur = match cur {
                            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                            Some((ca, cb)) => {
                                covered += cb - ca;
                                Some((a, b))
                            }
                            None => Some((a, b)),
                        };
                    }
                    if let Some((ca, cb)) = cur {
                        covered += cb - ca;
                    }
                }
                (s.end - s.start - covered).max(0.0)
            })
            .collect()
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Sum of self time per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
        out
    }

    /// Writes one tab-separated line per span, tagged with `phase`.
    pub fn write_tsv(&self, out: &mut impl Write, phase: &str) -> std::io::Result<()> {
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            writeln!(
                out,
                "{phase}\t{}\t{}\t{}\t{}\t{:.9}\t{:.9}\t{:.9}",
                s.name,
                s.id,
                s.thread,
                s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string()),
                s.start,
                s.end,
                own
            )?;
        }
        Ok(())
    }
}

/// Writes the spans of every phase to `path` (header line first).
pub fn write_spans(path: &Path, phases: &[(&str, &Trace)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "phase\tname\tid\tthread\tparent\tstart_s\tend_s\tself_s"
    )?;
    for (phase, trace) in phases {
        trace.write_tsv(&mut out, phase)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            thread: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let trace = Trace {
            spans: vec![
                span("root", None, 0.0, 10.0),
                span("a", Some(0), 1.0, 4.0),
                span("b", Some(0), 3.0, 6.0),
                span("c", Some(0), 8.0, 9.0),
                span("d", Some(1), 1.0, 2.0),
            ],
        };
        let own = trace.self_times();
        assert!((own[0] - 4.0).abs() < 1e-12);
        assert!((own[1] - 2.0).abs() < 1e-12);
        assert!((own[2] - 3.0).abs() < 1e-12);
        assert!((own[4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recorders_nest_and_merge_across_threads() {
        let origin = Instant::now();
        let mut main = Recorder::new(origin, 0, None);
        let mut worker = None;
        main.span("root", 0, |m| {
            let mut w = m.fork(1);
            w.span("worker", 1, |w| w.span("leaf", 1, |_| ()));
            worker = Some(w);
        });
        let mut trace = Trace::default();
        trace.absorb(main);
        trace.absorb(worker.expect("worker recorded"));
        let parents: Vec<Option<usize>> = trace.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1)]);
        assert_eq!(trace.named("leaf").count(), 1);
    }

    #[test]
    fn an_off_recorder_runs_the_work_and_records_nothing() {
        let mut rec = Recorder::off(Instant::now());
        assert_eq!(rec.span("a", 0, |r| r.span("b", 0, |_| 7)), 7);
        let mut trace = Trace::default();
        trace.absorb(rec);
        assert!(trace.spans.is_empty());
    }
}
