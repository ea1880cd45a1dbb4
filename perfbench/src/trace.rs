//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end and a parent (the span open when it
//! began). [`Tracer::span`] times a call into a layer; [`Tracer::group`]
//! only groups such calls (a job, a set-up, a load phase) and covers no
//! layer time of its own. Spans stay in memory and are written as JSONL at
//! the end of a traced run; self times and coverage are derived from them.
//! With tracing off, both only run their closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    layer: bool,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Span totals of one traced run.
pub struct Summary {
    /// Share of the run's wall time, from the tracer's creation to the
    /// summary, spent inside layer spans.
    pub coverage: f64,
    /// The run's wall time outside every layer span, in seconds.
    pub uncovered_s: f64,
    /// Share of the `job` spans' time spent in their layer-call children.
    pub job_coverage: f64,
    /// Self time per span name, in seconds.
    pub self_s: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Run `f`, a call into a layer, inside a span named `name`, child of
    /// the innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(name, true, f)
    }

    /// Run `f` inside a grouping span named `name`.
    pub fn group<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(name, false, f)
    }

    fn record<T>(&self, name: &'static str, layer: bool, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                layer,
                parent: self.open.borrow().last().copied(),
                start: Instant::now(),
                end: None,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end = Some(Instant::now());
        out
    }

    /// Self times and coverage. A span's self time is its duration minus
    /// its children's; children of one span never overlap because every
    /// span is opened and closed on this one thread. A layer span inside
    /// another layer span adds no coverage.
    pub fn summary(&self) -> Summary {
        let wall = self.origin.elapsed().as_secs_f64();
        let spans = self.spans.borrow();
        let dur = |s: &Span| s.end.map_or(0.0, |e| (e - s.start).as_secs_f64());
        let mut child_sum = vec![0.0f64; spans.len()];
        let mut layer_child_sum = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_sum[p] += dur(s);
                if s.layer {
                    layer_child_sum[p] += dur(s);
                }
            }
        }
        let (mut job_s, mut job_layers_s) = (0.0, 0.0);
        for (i, s) in spans.iter().enumerate() {
            if s.name == "job" {
                job_s += dur(s);
                job_layers_s += layer_child_sum[i];
            }
        }
        // Whether a span is, or lies inside, a layer span; parents precede
        // their children.
        let mut in_layer = vec![false; spans.len()];
        let mut self_s = BTreeMap::new();
        let mut covered = 0.0;
        for (i, s) in spans.iter().enumerate() {
            *self_s.entry(s.name).or_insert(0.0) += dur(s) - child_sum[i];
            let outer = s.parent.is_some_and(|p| in_layer[p]);
            in_layer[i] = s.layer || outer;
            if s.layer && !outer {
                covered += dur(s);
            }
        }
        Summary {
            coverage: covered / wall.max(1e-9),
            uncovered_s: wall - covered,
            job_coverage: if job_s > 0.0 {
                job_layers_s / job_s
            } else {
                0.0
            },
            self_s,
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let micros = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                micros(s.start),
                micros(s.end.unwrap_or(s.start)),
            )?;
        }
        out.flush()
    }
}
