//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, start and end (nanoseconds since the tracer was
//! created), the id of the span that caused it and an instance / event /
//! request key. Spans stay in memory and are written out once, when the
//! benchmark ends. A disabled tracer still times every call (callers need
//! the durations) but records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (starting at 1).
    pub id: u64,
    /// Id of the causing span; 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `relax` or `online.policy`.
    pub name: &'static str,
    /// Instance, event or request id the span belongs to.
    pub key: u64,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

/// A span that has been opened but not yet closed.
#[derive(Debug)]
#[must_use]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    key: u64,
    start: Instant,
}

impl Open {
    /// The id children of this span should name as their parent (0 when
    /// the tracer is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus child coverage).
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span; time starts now.
    pub fn open(&self, name: &'static str, parent: u64, key: u64) -> Open {
        let id = if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            parent,
            name,
            key,
            start: Instant::now(),
        }
    }

    /// Closes a span, records it when enabled and returns its duration.
    pub fn close(&self, open: Open) -> Duration {
        let end = Instant::now();
        if self.enabled {
            let span = Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                key: open.key,
                start_ns: self.ns(open.start),
                end_ns: self.ns(end),
            };
            self.spans.lock().expect("tracer lock").push(span);
        }
        end - open.start
    }

    /// Times `f` as a span and returns its result and duration.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u64,
        key: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.open(name, parent, key);
        let out = f();
        (out, self.close(open))
    }

    /// Every recorded span, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock").clone()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        totals(&self.spans())
    }

    /// Writes the spans as JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Count, total and self time per span name. A span's self time is its
/// duration minus the part of its interval that the union of its
/// children's intervals covers (children may overlap when they ran on
/// parallel threads).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            key: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = [
            span(1, 0, "root", 0, 100),
            // Two overlapping children (parallel workers) cover [10, 50].
            span(2, 1, "child", 10, 40),
            span(3, 1, "child", 30, 50),
            // A child poking out of its parent only counts inside it.
            span(4, 1, "late", 90, 120),
            span(5, 2, "leaf", 10, 20),
        ];
        let t = totals(&spans);
        assert_eq!(t["root"].self_ns, 100 - 40 - 10);
        assert_eq!(t["child"].count, 2);
        assert_eq!(t["child"].total_ns, 50);
        assert_eq!(t["child"].self_ns, 50 - 10);
        assert_eq!(t["late"].self_ns, 30);
        assert_eq!(t["leaf"].self_ns, 10);
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let off = Tracer::new(false);
        let (v, d) = off.time("x", 0, 0, || 7);
        assert_eq!(v, 7);
        assert!(d.as_nanos() < 1_000_000_000);
        assert!(off.spans().is_empty());
        let on = Tracer::new(true);
        let outer = on.open("outer", 0, 3);
        let _ = on.time("inner", outer.id(), 3, || ());
        on.close(outer);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(on.totals()["outer"].count, 1);
    }
}
