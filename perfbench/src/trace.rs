//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public entry point in a
//! span (name = the layer's module, start, end, parent span). Spans stay
//! in memory until the run ends, then are written out as JSON lines and
//! reduced to per-layer self time and the share of each root span that
//! no layer span covers. With tracing off, [`Tracer::span`] only calls
//! its closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id to pass to its own children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("a traced thread panicked");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            spans.len() - 1
        };
        let r = f(Some(id));
        let end_ns = self.now_ns();
        self.spans.lock().expect("a traced thread panicked")[id].end_ns = end_ns;
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a traced thread panicked").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    kids
}

fn uncovered_ns(spans: &[Span], kids: &[Vec<usize>], i: usize) -> u64 {
    let s = &spans[i];
    let iv = kids[i]
        .iter()
        .map(|&k| (spans[k].start_ns, spans[k].end_ns))
        .collect();
    s.dur() - covered(iv, s.start_ns, s.end_ns)
}

/// Seconds each span name spent outside its children, summed over
/// spans. Children running in parallel count once (their union).
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let kids = children(spans);
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *out.entry(s.name).or_insert(0.0) += uncovered_ns(spans, &kids, i) as f64 * 1e-9;
    }
    out
}

/// Share of the root spans named `root` that no child span covers.
pub fn uncovered_share(spans: &[Span], root: &str) -> f64 {
    let kids = children(spans);
    let (mut gap, mut total) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if s.name == root {
            gap += uncovered_ns(spans, &kids, i);
            total += s.dur();
        }
    }
    if total == 0 {
        0.0
    } else {
        gap as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp("run", 0, 100, None),
            // Two overlapping parallel children cover [10, 70).
            sp("sweep", 10, 60, Some(0)),
            sp("sweep", 30, 70, Some(0)),
            sp("simx", 20, 40, Some(1)),
        ];
        let st = self_seconds(&spans);
        assert!((st["run"] - 40e-9).abs() < 1e-15);
        assert!((st["sweep"] - (30e-9 + 40e-9)).abs() < 1e-15);
        assert!((st["simx"] - 20e-9).abs() < 1e-15);
        assert!((uncovered_share(&spans, "run") - 0.4).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, |id| id), None);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let inner = t.span("outer", None, |id| t.span("inner", id, |j| j));
        assert_eq!(inner, Some(1));
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
