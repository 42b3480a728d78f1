//! Span and counter recorder for the traced run.
//!
//! Spans wrap the benchmark's calls into one layer of the library. Each
//! records its name (`<layer>.<what>`), start and end on the process CPU
//! clock (the clock the end-to-end figures read) relative to the
//! recorder's creation, its parent (the span open around it, if any) and
//! the id of the operation it belongs to. Spans stay in memory until
//! [`Recorder::write_jsonl`] writes them out at the end of the run.
//! Counters are named totals (or peaks) added at the same call sites.
//!
//! A disabled recorder reads no clock and stores nothing, so the untraced
//! run that produces the end-to-end numbers pays only a branch per call.

use crate::measure::cpu_ns;
use std::collections::BTreeMap;
use std::io::Write;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `seer.answer_hit`.
    pub name: &'static str,
    /// Operation (step, campaign, batch) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
    /// Start, CPU nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, CPU nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An open span; close it with [`Recorder::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Per-name totals of the span table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotal {
    /// Self time: span time not covered by child spans, seconds.
    pub self_s: f64,
    /// Spans recorded under the name.
    pub count: u64,
}

/// The span and counter store.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch_ns: u64,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Recorder {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch_ns: cpu_ns(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Whether spans and counters are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Tag spans opened from now on with operation id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        cpu_ns().saturating_sub(self.epoch_ns)
    }

    /// Open a span named `name` inside the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close `open`, keeping the name it was opened with.
    pub fn end(&mut self, open: Open) {
        self.end_as(open, None);
    }

    /// Close `open`, renaming it when `name` is given (for spans whose
    /// kind is only known once the call has returned).
    pub fn end_as(&mut self, open: Open, name: Option<&'static str>) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
        let span = &mut self.spans[idx];
        span.end_ns = end;
        if let Some(name) = name {
            span.name = name;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Add `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    /// Raise counter `name` to at least `v` (a high-water mark).
    pub fn peak(&mut self, name: &'static str, v: f64) {
        if self.on {
            let c = self.counters.entry(name).or_insert(0.0);
            *c = c.max(v);
        }
    }

    /// Value of counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Every counter, by name.
    pub fn counters(&self) -> &BTreeMap<&'static str, f64> {
        &self.counters
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and count per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_s) {
            let t = out.entry(s.name).or_default();
            t.self_s += s.secs() - child;
            t.count += 1;
        }
        out
    }

    /// Total duration of spans with no parent, seconds: the traced time
    /// some span covers.
    pub fn covered_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut r = Recorder::new(false);
        let o = r.begin("a.b");
        r.add("a.n", 1.0);
        r.end(o);
        assert!(r.spans().is_empty() && r.counters().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(true);
        let outer = r.begin("a.outer");
        let inner = r.begin("b.inner");
        let t = crate::measure::CpuTimer::start();
        while t.elapsed_s() < 0.005 {
            std::hint::black_box(0);
        }
        r.end(inner);
        r.end(outer);
        let t = r.totals();
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(t["b.inner"].self_s >= 0.005);
        assert!(t["a.outer"].self_s < t["b.inner"].self_s);
        let total = t["a.outer"].self_s + t["b.inner"].self_s;
        assert!((total - r.covered_s()).abs() < 1e-9);
    }
}
