//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Spans inside the product are a later change (ROADMAP item 1).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one request share this.
    pub request: u32,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded recorder. When `enabled` is false [`Tracer::span`] only
/// calls the closure, which is how the untraced re-drive runs the same code.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new request: spans recorded from here on carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\
                 \"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (children clipped to the parent, overlaps counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Median self time per span name, in microseconds.
pub fn median_self_us(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        by_name
            .entry(s.name)
            .or_default()
            .push(self_ns as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, v)| (name, crate::stats::median(&v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),  // overlaps the previous child by 10
            span(90, 120, Some(0)), // clipped to the parent's end
            span(15, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 25, 30, 30, 5]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_still_runs_the_closure() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a", |t| t.span("b", |_| 7)), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_request_ids() {
        let mut t = Tracer::new(true);
        t.next_request();
        t.span("outer", |t| t.span("inner", |_| ()));
        t.next_request();
        t.span("next", |_| ());
        let s = t.spans();
        assert_eq!(
            s.iter()
                .map(|s| (s.name, s.parent, s.request))
                .collect::<Vec<_>>(),
            vec![("outer", None, 1), ("inner", Some(0), 1), ("next", None, 2)]
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
