//! Host-clock spans recorded around each call the benchmark makes into
//! a layer of the program.
//!
//! Spans are kept in memory and written once, when the run ends, as a
//! Chrome trace file of their own: they are host wall-clock, and never
//! share a file with the simulated-cycle traces of `hipe-trace`. A
//! disabled recorder keeps no spans, so the untraced runs that produce
//! the end-to-end numbers make the same calls with nothing recorded.

use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (module) the call went into, e.g. `compiler`.
    pub layer: &'static str,
    /// Call name, e.g. `compile`.
    pub name: &'static str,
    /// Architecture or leg the call served (empty when none).
    pub tag: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `on: false` records nothing.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` inside a span named `layer`/`name`/`tag`.
    pub fn call<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let idx = self.open(layer, name, tag);
        let out = f(self);
        self.close(idx);
        out
    }

    /// Opens a span that [`close`](Self::close) ends; spans opened in
    /// between become its children. Returns `None` when off.
    pub fn open(
        &mut self,
        layer: &'static str,
        name: &'static str,
        tag: &'static str,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            tag,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Ends the span [`open`](Self::open) returned.
    pub fn close(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
            self.open.pop();
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index the next recorded span will get.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Milliseconds spent in spans named `name` (and tagged `tag`, when
    /// given) among the spans with indices in `range`.
    pub fn total_ms(&self, range: Range<usize>, name: &str, tag: Option<&str>) -> f64 {
        self.spans[range]
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Self time of `layer`, in milliseconds, over the spans with
    /// indices in `range`: each span's duration minus the time its
    /// direct children cover (children run inside their parent, one at
    /// a time).
    pub fn self_ms(&self, range: Range<usize>, layer: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans[range.clone()] {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        range
            .filter(|&i| self.spans[i].layer == layer)
            .map(|i| (self.spans[i].dur_ns() - child_ns[i]) as f64 / 1e6)
            .sum()
    }

    /// Renders the spans as a Chrome trace (complete events, host
    /// microseconds).
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"name\": \"{}{}{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"workload\": \"{workload}\"}}}}{sep}",
                s.name,
                if s.tag.is_empty() { "" } else { "." },
                s.tag,
                s.layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut spans = Spans::new(true);
        spans.call("bench", "pass", "", |s| {
            s.call("core", "run_plan", "x86", |s| {
                s.call("db", "inner", "", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
        });
        let total: f64 = ["bench", "core", "db"]
            .iter()
            .map(|l| spans.self_ms(0..spans.mark(), l))
            .sum();
        let root = spans.spans()[0].dur_ns() as f64 / 1e6;
        assert!(
            (total - root).abs() < 1e-6,
            "self times {total} vs root {root}"
        );
        assert!(spans.self_ms(0..spans.mark(), "db") >= 2.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        let v = spans.call("core", "run_plan", "x86", |_| 7);
        assert_eq!(v, 7);
        assert!(spans.spans().is_empty());
    }
}
