//! In-memory spans around the calls into each layer.
//!
//! The harness records a span (name, start, end, parent) at every layer
//! boundary it can reach from outside, keeps them in memory, and writes
//! them out once the run is over. A span's **self time** is its duration
//! minus the part of that interval its direct children cover — overlapping
//! children (there are none on a single thread, but the rule is general)
//! are counted once.

use std::io::{self, Write};
use std::time::Instant;

pub type SpanId = u32;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Work done inside the span, in the unit its name implies (events
    /// dispatched, streams sent, packets paced); 0 when not counted.
    pub count: u64,
}

/// The span store of one traced pass. All spans of a pass share the
/// recorder's epoch, so their times are directly comparable.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span starting now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.push(name, now, now, parent)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record an interval that was timed elsewhere (against this
    /// recorder's epoch).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            count: 0,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn set_count(&mut self, id: SpanId, count: u64) {
        self.spans[id as usize].count = count;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Recorder::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                (s.end_ns - s.start_ns).saturating_sub(cover(kids, s.start_ns, s.end_ns))
            })
            .collect()
    }

    /// `(count, total duration, total self time)` over the spans named
    /// `name`.
    pub fn totals(&self, name: &str) -> (u64, u64, u64) {
        let selfs = self.self_times();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .fold((0, 0, 0), |(n, dur, own), (s, self_ns)| {
                (n + 1, dur + (s.end_ns - s.start_ns), own + self_ns)
            })
    }

    /// Write every span as one JSON line: name, start, end, parent, self
    /// time, work count and the workload that produced it.
    pub fn write_jsonl<W: Write>(&self, w: &mut W, workload: &str) -> io::Result<()> {
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"self_ns\": {self_ns}, \"count\": {}, \
                 \"workload\": \"{}\"}}",
                crate::json::escape(s.name),
                s.start_ns,
                s.end_ns,
                s.count,
                crate::json::escape(workload),
            )?;
        }
        Ok(())
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn cover(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut r = Recorder::new();
        let root = r.push("root", 0, 100, None);
        // Two siblings, one with a nested child of its own.
        let a = r.push("a", 10, 40, Some(root));
        r.push("a.inner", 15, 25, Some(a));
        r.push("b", 50, 70, Some(root));
        let own = r.self_times();
        assert_eq!(own[root as usize], 100 - 30 - 20);
        assert_eq!(own[a as usize], 30 - 10);
        // Grandchildren are the child's business, not the root's.
        assert_eq!(r.totals("root"), (1, 100, 50));
        assert_eq!(r.totals("a.inner"), (1, 10, 10));
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let mut r = Recorder::new();
        let root = r.push("root", 100, 200, None);
        r.push("x", 110, 150, Some(root));
        r.push("y", 140, 160, Some(root)); // overlaps x by 10
        r.push("z", 190, 260, Some(root)); // overhangs the parent by 60
        assert_eq!(r.self_times()[root as usize], 100 - 50 - 10);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut r = Recorder::new();
        let root = r.push("root", 0, 10, None);
        r.push("kid", 2, 5, Some(root));
        let mut out = Vec::new();
        r.write_jsonl(&mut out, "w\"1").unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let kid = crate::json::Json::parse(lines[1]).unwrap();
        assert_eq!(kid.get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(kid.get("self_ns").and_then(|p| p.as_f64()), Some(3.0));
        assert_eq!(kid.get("workload").and_then(|p| p.as_str()), Some("w\"1"));
    }
}
