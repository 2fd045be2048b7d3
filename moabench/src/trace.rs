//! Spans recorded by the benchmark's own code around calls into the
//! layers. They stay in memory during a run and are written out once,
//! as one JSON object per line, when the workload ends.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval. `query` is the identifier every span of one
/// request shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub query: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An append-only span log.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn start(&mut self, name: &'static str, query: u64, parent: Option<u32>) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            query,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        query: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.start(name, query, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A closed span's duration in µs.
    pub fn micros(&self, id: u32) -> f64 {
        let s = &self.spans[id as usize];
        (s.end_ns - s.start_ns) as f64 / 1e3
    }

    /// Write one JSON object per span. The error is returned, not
    /// swallowed by the buffered writer's drop.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let selfs = self_times(&self.spans);
        for (id, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"query\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.query, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another and
/// may stick out of the parent; the union is taken inside the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            query: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(None, 0, 100),     // root
            span(Some(0), 10, 40),  // child a
            span(Some(0), 30, 60),  // child b overlaps a: union is 10..60
            span(Some(0), 90, 130), // child c sticks out: clipped to 90..100
            span(Some(1), 15, 20),  // grandchild counts against a only
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 50 - 10);
        assert_eq!(selfs[1], 30 - 5);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 40);
        assert_eq!(selfs[4], 5);
    }

    #[test]
    fn within_nests_and_closes() {
        let mut t = Tracer::new();
        let root = t.start("root", 7, None);
        let got = t.within("child", 7, Some(root), || 42);
        t.end(root);
        assert_eq!(got, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(root));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
