//! Wall-clock access and in-memory spans.
//!
//! Every wall-clock read of the benchmark goes through [`now`]. Spans are
//! recorded around calls into the crates' public functions, kept in
//! memory, and written out once at the end of a traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The current wall-clock instant.
// Timing harnesses read the wall clock by design; clippy.toml mirrors the
// determinism rule D2 repository-wide, so the exemption is restated here.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    // detlint: allow(wall-clock): the benchmark's single timing source
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now();
    let out = f();
    (out, secs_since(start))
}

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.absorb_answer`.
    pub name: &'static str,
    /// Run the span belongs to; spans of one run share it.
    pub run: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder for one traced benchmark run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    fn ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new run id for the spans that follow.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let id = self.spans.len();
        let start_ns = self.ns();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn end(&mut self) -> f64 {
        let id = self.open.pop().expect("end() matches a begin()");
        self.spans[id].end_ns = self.ns();
        self.spans[id].secs()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Seconds since the tracer's origin.
    pub fn elapsed_secs(&self) -> f64 {
        self.ns() as f64 * 1e-9
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders every span as tab-separated lines:
    /// `index run parent name start_ns end_ns` (parent `-` for roots).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\trun\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Per-span self time: the span's duration minus the part its direct
/// children cover (children of one span never overlap on one thread).
pub fn self_secs(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own
}

/// Per-name durations of every span, in recording order.
pub fn durations_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name).or_default().push(s.secs());
    }
    out
}

/// Summed self time of every span named `name` that has children: the
/// part of that layer's time its named sub-spans do not cover.
pub fn uncovered_secs(spans: &[Span], name: &str) -> f64 {
    let own = self_secs(spans);
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    spans
        .iter()
        .zip(&own)
        .zip(&has_child)
        .filter(|((s, _), &c)| c && s.name == name)
        .map(|((_, &t), _)| t)
        .sum()
}

/// Seconds covered by root spans (those without a parent).
pub fn root_secs(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::secs)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            run: 1,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0, 100) with children [10, 30) and [40, 90); the second
        // child has a grandchild [50, 60).
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 90),
            span("c", Some(2), 50, 60),
        ];
        let own = self_secs(&spans);
        let ns = |x: f64| (x * 1e9).round() as i64;
        assert_eq!(ns(own[0]), 30);
        assert_eq!(ns(own[1]), 20);
        assert_eq!(ns(own[2]), 40);
        assert_eq!(ns(own[3]), 10);
        // Only spans with children report an uncovered part.
        assert_eq!(ns(uncovered_secs(&spans, "root")), 30);
        assert_eq!(ns(uncovered_secs(&spans, "b")), 40);
        assert_eq!(uncovered_secs(&spans, "a"), 0.0);
        assert_eq!(ns(root_secs(&spans)), 100);
    }

    #[test]
    fn tracer_nests_spans_and_tags_runs() {
        let mut t = Tracer::new();
        t.begin("outer");
        t.span("inner", || ());
        t.end();
        t.next_run();
        t.span("later", || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert_eq!((s[0].run, s[1].run, s[2].run), (0, 0, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(durations_by_name(s)["inner"].len(), 1);
        assert_eq!(t.to_tsv().lines().count(), 4);
    }
}
