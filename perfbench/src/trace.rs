//! In-memory spans recorded by the harness around its calls into each
//! layer's public functions. Nothing here reaches inside the program:
//! a span is the wall time of one call as seen from outside.
//!
//! Spans are kept in memory and read once the run ends, so the cost of
//! tracing is one clock read and one short lock per span.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (1-based, in opening order).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer name, e.g. `place.seed`.
    pub name: &'static str,
    /// Open time, ns.
    pub start_ns: u64,
    /// Close time, ns.
    pub end_ns: u64,
}

/// Collects spans when enabled; every call is a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// An open span; records itself when dropped.
pub struct Span<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under `parent`.
    #[must_use]
    pub fn span(&self, name: &'static str, parent: Option<&Span<'_>>) -> Span<'_> {
        let (id, start_ns) = if self.enabled {
            // Relaxed: the id is a label; the spans lock publishes the record.
            (self.next_id.fetch_add(1, Ordering::Relaxed), self.now_ns())
        } else {
            (0, 0)
        };
        Span {
            tracer: self,
            id,
            parent: parent.map(|p| p.id),
            name,
            start_ns,
        }
    }

    /// Records a top-level span whose interval the caller measured.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        let rec = SpanRecord {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: None,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span store poisoned").push(rec);
    }

    /// All closed spans, in closing order.
    #[must_use]
    pub fn records(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let rec = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(rec);
        }
    }
}

/// Self time of every span, ns, keyed by span id: the span's duration
/// minus the part of its interval that its child spans cover (children
/// that overlap each other are counted once).
#[must_use]
pub fn self_times(records: &[SpanRecord]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for r in records {
        if let Some(p) = r.parent {
            children.entry(p).or_default().push((r.start_ns, r.end_ns));
        }
    }
    records
        .iter()
        .map(|r| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&r.id) {
                kids.sort_unstable();
                // Union of child intervals, clipped to the parent's.
                let mut cur: Option<(u64, u64)> = None;
                for &(s, e) in kids.iter() {
                    let (s, e) = (s.max(r.start_ns), e.min(r.end_ns));
                    if e <= s {
                        continue;
                    }
                    cur = match cur {
                        Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                        Some((cs, ce)) => {
                            covered += ce - cs;
                            Some((s, e))
                        }
                        None => Some((s, e)),
                    };
                }
                if let Some((cs, ce)) = cur {
                    covered += ce - cs;
                }
            }
            (r.id, (r.end_ns - r.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Self times in milliseconds, grouped by span name.
#[must_use]
pub fn self_ms_by_name(records: &[SpanRecord]) -> BTreeMap<&'static str, Vec<f64>> {
    let selfs = self_times(records);
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in records {
        out.entry(r.name)
            .or_default()
            .push(selfs[&r.id] as f64 / 1e6);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            rec(1, None, 0, 100),
            rec(2, Some(1), 10, 30),
            rec(3, Some(1), 50, 90),
            rec(4, Some(3), 60, 70),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 20 - 40);
        assert_eq!(s[&2], 20);
        assert_eq!(s[&3], 40 - 10);
        assert_eq!(s[&4], 10);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = [
            rec(1, None, 100, 200),
            // Overlaps the next child and starts before the parent.
            rec(2, Some(1), 90, 140),
            rec(3, Some(1), 120, 160),
            rec(4, Some(1), 190, 250),
        ];
        let s = self_times(&spans);
        // Covered: [100, 160) + [190, 200) = 70.
        assert_eq!(s[&1], 30);
    }

    #[test]
    fn recorded_spans_nest_and_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        {
            let outer = t.span("outer", None);
            let _inner = t.span("inner", Some(&outer));
        }
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        let outer = recs.iter().find(|r| r.name == "outer").unwrap();
        let inner = recs.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let off = Tracer::new(false);
        drop(off.span("outer", None));
        assert!(off.records().is_empty());
    }
}
