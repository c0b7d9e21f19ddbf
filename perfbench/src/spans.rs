//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: name, start, end and the span
//! that caused it. Spans are kept in memory while the run executes and
//! written out when it ends; a layer's self time is its duration minus
//! the part of its interval that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (unique within one [`Recorder`]).
pub type SpanId = u32;

/// One finished span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// The span that caused it (`None` for a root).
    pub parent: Option<SpanId>,
    /// Layer name, e.g. `rr.verify`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects spans from any number of threads.
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserve an id for a span whose end is recorded later (its children
    /// need the id while it is still open).
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open { id, parent, name, start: self.now() }
    }

    /// Finish an open span now.
    pub fn close(&self, open: Open) {
        let end = self.now();
        let Open { id, parent, name, start } = open;
        self.push(Span { id, parent, name, start, end });
    }

    /// Time `f` as a span under `parent`.
    pub fn time<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, Some(parent));
        let out = f();
        self.close(open);
        out
    }

    /// Record a span whose start was taken earlier with [`Recorder::now`].
    pub fn record(&self, name: &'static str, parent: SpanId, start: u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let end = self.now();
        self.push(Span { id, parent: Some(parent), name, start, end });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("a span recorder thread panicked").push(span);
    }

    /// All finished spans, sorted by id.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("a span recorder thread panicked");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// A span that has started but not yet been closed.
#[derive(Debug)]
pub struct Open {
    /// Its reserved id.
    pub id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start: u64,
}

/// Self time of every span, by id: duration minus the union of its
/// children's intervals. Children of one span may overlap (they can run
/// on different threads), so the union, not the sum, is subtracted.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, s.duration().saturating_sub(covered))
        })
        .collect()
}

/// Why a span tree is malformed, if it is: every parent must exist, and
/// every child must lie within its parent's interval.
pub fn check_tree(spans: &[Span]) -> Result<(), String> {
    let by_id: BTreeMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    if by_id.len() != spans.len() {
        return Err("duplicate span id".into());
    }
    for s in spans {
        if s.end < s.start {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        if let Some(p) = s.parent {
            let parent = by_id.get(&p).ok_or(format!("span {} has no parent {p}", s.id))?;
            if s.start < parent.start || s.end > parent.end {
                return Err(format!(
                    "span {} ({}) lies outside its parent {} ({})",
                    s.id, s.name, p, parent.name
                ));
            }
        }
    }
    Ok(())
}

/// Per-name totals: (count, total ns, self ns).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration();
        e.2 += selfs[&s.id];
    }
    out
}

/// Write every span as a TSV row (`id parent name start_us end_us
/// self_us`) to `path`.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tname\tstart_us\tend_us\tself_us")?;
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{}\t{parent}\t{}\t{:.3}\t{:.3}\t{:.3}",
            s.id,
            s.name,
            s.start as f64 / 1e3,
            s.end as f64 / 1e3,
            selfs[&s.id] as f64 / 1e3
        )?;
    }
    w.flush()
}

/// The per-name table (count, total, self, self share of `wall_ns`) as
/// text, heaviest self time first.
pub fn render_table(spans: &[Span], wall_ns: u64) -> String {
    let mut rows: Vec<_> = totals(spans).into_iter().collect();
    rows.sort_by(|a, b| b.1 .2.cmp(&a.1 .2).then(a.0.cmp(b.0)));
    let mut out = format!(
        "{:<22} {:>8} {:>11} {:>11} {:>7}\n",
        "span", "count", "total_s", "self_s", "self%"
    );
    for (name, (count, total, own)) in rows {
        out.push_str(&format!(
            "{name:<22} {count:>8} {:>11.4} {:>11.4} {:>6.1}%\n",
            total as f64 / 1e9,
            own as f64 / 1e9,
            100.0 * own as f64 / wall_ns.max(1) as f64
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span { id, parent, name: "x", start, end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70), // overlaps span 1 (another thread)
            span(3, Some(1), 20, 30),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&0], 40); // 100 - |[10, 70)|
        assert_eq!(selfs[&1], 30);
        assert_eq!(selfs[&2], 40);
        assert_eq!(selfs[&3], 10);
    }

    #[test]
    fn tree_check_rejects_a_child_outside_its_parent() {
        assert!(check_tree(&[span(0, None, 0, 10), span(1, Some(0), 5, 11)]).is_err());
        assert!(check_tree(&[span(0, None, 0, 10), span(1, Some(7), 5, 6)]).is_err());
        assert!(check_tree(&[span(0, None, 0, 10), span(1, Some(0), 0, 10)]).is_ok());
    }
}
