//! Spans recorded from the benchmark's own files around calls into the
//! product's crates. They live in memory and are written out once, as a
//! Chrome trace, when the run ends. With the recorder off (every untraced
//! pass) `scope` is a plain call.

use std::time::Instant;

use crate::json::J;

/// One timed interval. `parent` is the index of the span that caused it,
/// `job` the identifier shared by all spans of one simulation (0 for
/// spans that belong to no job).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u32,
}

pub struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, child of the innermost open
    /// span. `f` gets the recorder back to open spans of its own.
    pub fn scope<R>(&mut self, name: &str, job: u32, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let depth = self.open.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        let out = f(self);
        // Not `pop`: a panic caught inside `f` leaves its spans open.
        self.open.truncate(depth);
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Adds a span whose interval was measured elsewhere (a `JobStat`
    /// wall), as a child of the innermost open span.
    pub fn add(&mut self, name: &str, start_ns: u64, end_ns: u64, job: u32) {
        if self.on {
            self.spans.push(Span {
                name: name.to_owned(),
                start_ns,
                end_ns,
                parent: self.open.last().copied(),
                job,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, microsecond timestamps, self time and causing span
    /// in `args`.
    pub fn to_chrome_json(&self) -> String {
        let spans = &self.spans;
        let events = spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                J::obj([
                    ("name", J::str(&*s.name)),
                    ("ph", J::str("X")),
                    ("ts", J::Num(s.start_ns as f64 / 1e3)),
                    ("dur", J::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", J::Int(1)),
                    ("tid", J::Int(1)),
                    (
                        "args",
                        J::obj([
                            ("id", J::Int(id as u64)),
                            ("parent", s.parent.map_or(J::Null, |p| J::Int(p as u64))),
                            ("job", J::Int(u64::from(s.job))),
                            ("self_us", J::Num(self_ns(spans, id) as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        J::obj([
            ("displayTimeUnit", J::str("ms")),
            ("traceEvents", J::Arr(events)),
        ])
        .pretty()
    }
}

/// A span's duration minus the part of its interval its direct children
/// cover. Children may overlap each other (two sweep workers) or stick out
/// of the parent (a reconstructed start); only covered time inside the
/// parent is subtracted, and only once.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_ns - me.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcrafter::sim::trace::json::parse;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            job: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("job", 0, 100, None),
            span("build", 10, 30, Some(0)),
            span("run", 30, 90, Some(0)),
            span("inner", 40, 50, Some(2)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 20 - 60);
        // A grandchild is the child's business, not the root's.
        assert_eq!(self_ns(&spans, 2), 60 - 10);
        assert_eq!(self_ns(&spans, 3), 10);
    }

    #[test]
    fn self_time_with_overlapping_and_protruding_children() {
        let spans = vec![
            span("sweep", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)), // overlaps a by 10
            span("c", 120, 130, Some(0)), // inside a
            span("d", 190, 250, Some(0)), // sticks out by 50
            span("e", 50, 105, Some(0)),  // starts before the parent
        ];
        // Covered: [100,105] + [110,170] + [190,200] = 5 + 60 + 10.
        assert_eq!(self_ns(&spans, 0), 100 - 75);
    }

    #[test]
    fn recorder_nests_and_sums() {
        let mut rec = Recorder::new(true);
        rec.scope("job", 7, |rec| {
            rec.scope("build", 7, |_| ());
            rec.scope("run", 7, |rec| rec.add("stat", 1, 2, 7));
        });
        rec.scope("build", 8, |_| ());
        let s = rec.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(
            (s[1].parent, s[2].parent, s[3].parent, s[4].parent),
            (Some(0), Some(0), Some(2), None)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let builds = (s[1].end_ns - s[1].start_ns) + (s[4].end_ns - s[4].start_ns);
        assert_eq!(rec.total_s("build"), builds as f64 / 1e9);
        let v = parse(&rec.to_chrome_json()).expect("chrome trace parses");
        assert_eq!(v.get("traceEvents").unwrap().as_arr().unwrap().len(), 5);
    }

    #[test]
    fn recorder_off_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.scope("x", 0, |rec| rec.scope("y", 0, |_| 5)), 5);
        rec.add("z", 0, 1, 0);
        assert!(rec.spans().is_empty());
    }
}
