//! In-memory spans around the benchmark's calls into the program.
//!
//! A span is one public call (or a group of them): its name, start, end,
//! the span that caused it, and the pass and world it belongs to. Spans
//! stay in memory while the run measures and are written out at exit.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
    /// Index of the world within the workload; `None` for a pass span.
    pub world: Option<u32>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        pass: u32,
        world: Option<u32>,
    ) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            pass,
            world,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        pass: u32,
        world: u32,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, Some(parent), pass, Some(world));
        let r = f();
        self.close(id);
        (r, self.spans[id].secs())
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.clamp(reach, s.end_ns), b.clamp(reach, s.end_ns));
                covered += b - a;
                reach = reach.max(b);
            }
            (s.end_ns - s.start_ns - covered) as f64 / 1e9
        })
        .collect()
}

/// The spans and per-name self time as JSON lines, followed by `extra`
/// lines (already JSON).
pub fn dump(spans: &[Span], extra: &[String]) -> String {
    let selfs = self_times(spans);
    let mut per_name: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    let mut out = String::new();
    for (id, (s, self_s)) in spans.iter().zip(&selfs).enumerate() {
        let e = per_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += self_s;
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let world = s.world.map_or("null".to_string(), |w| w.to_string());
        let _ = writeln!(
            out,
            "{{\"kind\":\"span\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"parent\":{parent},\"pass\":{},\"world\":{world},\"self_s\":{self_s}}}",
            s.name, s.start_ns, s.end_ns, s.pass
        );
    }
    for (name, (count, self_s)) in per_name {
        let _ = writeln!(
            out,
            "{{\"kind\":\"self_time\",\"name\":\"{name}\",\"spans\":{count},\"self_s\":{self_s}}}"
        );
    }
    for line in extra {
        let _ = writeln!(out, "{line}");
    }
    out
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
            pass: 0,
            world: None,
        }
    }

    #[test]
    fn self_time_subtracts_covered_part() {
        // Root 0..100 with children 10..30 and 25..50 (overlapping) and
        // a grandchild inside the first child.
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(25, 50, Some(0)),
            span(12, 20, Some(1)),
        ];
        let s = self_times(&spans);
        assert_eq!(s[0], 60e-9);
        assert_eq!(s[1], 12e-9);
        assert_eq!(s[2], 25e-9);
        assert_eq!(s[3], 8e-9);
    }
}
