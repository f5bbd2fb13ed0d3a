//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! simulator's public functions — never inside the program. Each span
//! has a name, start and end (nanoseconds since the recorder's epoch),
//! an optional parent and an optional request id. Nothing is written
//! until [`Spans::write_json`] at the end of the run, so recording costs
//! one `Instant::now()` pair and a `Vec` push per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `pointcloud.voxel_filter`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Request id, for spans that belong to one served request.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A span recorder. `enabled == false` records nothing, so untraced runs
/// pay a branch per call site.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Spans {
        Spans { epoch, enabled, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a child of the innermost
    /// open span).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let parent = self.open.last().copied();
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request: None });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured interval (e.g. a request's life from
    /// its scheduled send time to its result frame), under `parent` or
    /// else the innermost open span.
    /// Returns the span's index (a parent handle for its children).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: Option<u64>,
        parent: Option<usize>,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        if self.enabled {
            let parent = parent.or_else(|| self.open.last().copied());
            self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent, request });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Every recorded span.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Self time of span `idx`: its duration minus the union of its
    /// direct children's intervals.
    pub fn self_secs(&self, idx: usize) -> f64 {
        let span = &self.spans[idx];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, span.start_ns);
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (span.end_ns - span.start_ns).saturating_sub(covered) as f64 / 1e9
    }

    /// Per-name totals: (count, total seconds, self seconds).
    pub fn totals(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.secs();
            e.2 += self.self_secs(i);
        }
        out
    }

    /// Renders every span plus the per-name self-time table as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request.map_or("null".to_string(), |r| r.to_string())
            );
        }
        out.push_str("],\"totals\":{");
        for (i, (name, (count, total, own))) in self.totals().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{count},\"total_s\":{total},\"self_s\":{own}}}"
            );
        }
        out.push_str("}}\n");
        out
    }

    /// Writes [`Spans::to_json`] to `path`, creating parent directories.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }
}

/// Calibrated cost of recording one span, seconds: the benchmark's own
/// tracing overhead is this times the number of spans it recorded.
pub fn span_cost_secs() -> f64 {
    const N: usize = 20_000;
    let mut spans = Spans::new(Instant::now(), true);
    let started = Instant::now();
    for _ in 0..N {
        spans.time("calibrate", |_| std::hint::black_box(0u64));
    }
    started.elapsed().as_secs_f64() / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(Instant::now(), true);
        s.time("outer", |s| {
            s.time("inner", |_| std::thread::sleep(std::time::Duration::from_millis(20)));
        });
        let outer = s.all().iter().position(|x| x.name == "outer").unwrap();
        let inner = s.all().iter().position(|x| x.name == "inner").unwrap();
        assert_eq!(s.all()[inner].parent, Some(outer));
        assert!(s.self_secs(outer) < s.all()[outer].secs() - 0.015);
    }
}
