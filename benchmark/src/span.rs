//! In-memory span recorder for the traced run. Spans are taken around
//! calls the harness makes into the program (client calls, ladder rungs,
//! hand-driven layer calls); nothing inside the program is instrumented.
//! They stay in memory until the run ends and are then written as JSONL.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval. `parent_id` 0 means "no parent"; spans of one
/// operation share a `request_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer or call name.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// 1-based identifier.
    pub span_id: u32,
    /// The span that was open when this one started, or 0.
    pub parent_id: u32,
    /// The operation this span belongs to.
    pub request_id: u64,
}

/// A span that has started but not ended.
pub struct Open {
    t0: Instant,
    idx: Option<usize>,
}

/// Single-threaded recorder. With recording off, [`Recorder::start`] and
/// [`Recorder::end`] still time the call (the rungs need the duration
/// either way) but keep nothing — the difference between a rung measured
/// on and off is the tracing overhead.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// A recorder; `enabled` = keep spans.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Switch span keeping on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Open a span under whichever span is currently open.
    pub fn start(&mut self, name: &'static str, request_id: u64) -> Open {
        let t0 = Instant::now();
        if !self.enabled {
            return Open { t0, idx: None };
        }
        let span_id = self.spans.len() as u32 + 1;
        let start_ns = t0.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            span_id,
            parent_id: self.stack.last().copied().unwrap_or(0),
            request_id,
        });
        self.stack.push(span_id);
        Open { t0, idx: Some(span_id as usize - 1) }
    }

    /// Close a span; returns its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let t1 = Instant::now();
        if let Some(idx) = open.idx {
            self.spans[idx].end_ns = t1.duration_since(self.epoch).as_nanos() as u64;
            self.stack.pop();
        }
        t1.duration_since(open.t0).as_nanos() as u64
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median, over requests, of the self time spent in spans called
    /// `name` (summed within a request), in nanoseconds.
    pub fn median_self_ns(&self, name: &str) -> f64 {
        let selfs = self_times(&self.spans);
        let mut per_request: BTreeMap<u64, u64> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(selfs) {
            if span.name == name {
                *per_request.entry(span.request_id).or_default() += own;
            }
        }
        let values: Vec<f64> = per_request.values().map(|v| *v as f64).collect();
        crate::stats::median(&values)
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"span_id\":{},\
                 \"parent_id\":{},\"request_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.span_id, s.parent_id, s.request_id
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children that overlap each other are
/// counted once, and a child reaching outside its parent is clipped.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent_id != 0 {
            children.entry(s.parent_id).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.span_id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name: "s",
            start_ns: start,
            end_ns: end,
            span_id: id,
            parent_id: parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // 1 [0,100) has children 2 [10,40) and 3 [50,90); 3 has child 4 [60,70).
        let spans =
            [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 50, 90), span(4, 3, 60, 70)];
        assert_eq!(self_times(&spans), [30, 30, 30, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        // Children [10,60) and [40,80) overlap on [40,60); [90,130) overhangs.
        let spans =
            [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 80), span(4, 1, 90, 130)];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn recorder_links_parents_and_keeps_nothing_when_off() {
        let mut rec = Recorder::new(true);
        let outer = rec.start("outer", 7);
        let inner = rec.start("inner", 7);
        rec.end(inner);
        rec.end(outer);
        let next = rec.start("next", 8);
        rec.end(next);
        let ids: Vec<(u32, u32, u64)> =
            rec.spans().iter().map(|s| (s.span_id, s.parent_id, s.request_id)).collect();
        assert_eq!(ids, [(1, 0, 7), (2, 1, 7), (3, 0, 8)]);
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);

        rec.set_enabled(false);
        let off = rec.start("off", 9);
        rec.end(off);
        assert_eq!(rec.spans().len(), 3);
    }
}
