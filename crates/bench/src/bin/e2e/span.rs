//! Spans recorded by the harness around its own calls into each layer.
//!
//! A traced run keeps every span in memory — name, start, end, the span
//! that was open when it started, the run (round) it belongs to — and
//! writes them out as JSONL only after measuring. Calls too frequent to
//! record one by one (a protocol's `plan`/`commit`, invoked per node per
//! cycle from inside `drive`) arrive as *aggregates*: one record per
//! parent span carrying a call count and the summed busy time.
//!
//! A span's **self time** is its duration minus what its children cover;
//! [`Tracer::self_seconds`] sums that per name, which is how an end-to-end
//! timed region decomposes into layers.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    run: u64,
    start_ns: u64,
    /// Wall time of a span; summed busy time of an aggregate.
    duration_ns: u64,
    /// `Some(calls)` marks an aggregate of that many untraced calls.
    calls: Option<u64>,
}

/// The in-memory span log. Disabled, every method is a plain call-through
/// that never reads the clock, so the untraced run pays nothing for it.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next run: spans recorded from now on carry its id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            run: self.run,
            start_ns: (start - self.origin).as_nanos() as u64,
            duration_ns: 0,
            calls: None,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].duration_ns = start.elapsed().as_nanos() as u64;
        out
    }

    /// Records `calls` untraced calls that together kept a worker busy for
    /// `busy_ns`, as a child of the innermost open span. `lanes` is the
    /// number of workers the calls were spread over: their busy time is
    /// divided by it so that children never cover more than their parent's
    /// wall time.
    pub fn aggregate(&mut self, name: &'static str, calls: u64, busy_ns: u64, lanes: usize) {
        if !self.enabled || calls == 0 {
            return;
        }
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            parent,
            run: self.run,
            start_ns: parent.map_or(0, |p| self.spans[p].start_ns),
            duration_ns: busy_ns / lanes.max(1) as u64,
            calls: Some(calls),
        });
    }

    /// Self time per span name, in seconds, over every recorded run.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            *out.entry(span.name).or_insert(0.0) +=
                span.duration_ns.saturating_sub(covered) as f64 / 1e9;
        }
        out
    }

    /// Seconds covered by top-level spans (those opened with no span open).
    pub fn top_level_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration_ns as f64 / 1e9)
            .sum()
    }

    /// Writes one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let mut fields = vec![
                ("id", Json::from(id)),
                ("name", Json::from(span.name)),
                ("run", Json::from(span.run)),
                ("parent", span.parent.map_or(Json::Null, Json::from)),
                ("start_ns", Json::from(span.start_ns)),
                ("end_ns", Json::from(span.start_ns + span.duration_ns)),
            ];
            if let Some(calls) = span.calls {
                fields.push(("aggregate_calls", Json::from(calls)));
                fields.push(("busy_ns", Json::from(span.duration_ns)));
            }
            writeln!(out, "{}", Json::obj(fields).render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        t.next_run();
        let nap = || std::thread::sleep(std::time::Duration::from_millis(2));
        t.span("outer", |t| {
            nap();
            t.span("inner", |_| nap());
            t.aggregate("calls", 10, 1_000_000, 2);
        });
        let selfs = t.self_seconds();
        assert!(selfs["inner"] >= 0.002);
        assert_eq!(selfs["calls"], 0.0005);
        let outer_total = t.top_level_seconds();
        let parts = selfs["outer"] + selfs["inner"] + selfs["calls"];
        assert!(
            (outer_total - parts).abs() < 1e-9,
            "{outer_total} vs {parts}"
        );
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        t.aggregate("y", 1, 1, 1);
        assert_eq!(t.len(), 0);
        assert!(t.self_seconds().is_empty());
    }
}
