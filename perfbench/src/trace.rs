//! The benchmark's own spans: name, start, end, parent, and one trace id
//! per request. Kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans of one thread, or of a whole run once merged. A span's id is
/// its index.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

/// Per span name: count, total time and self time.
#[derive(Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace { origin, spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, trace, parent, start_ns, end_ns });
        self.spans.len() - 1
    }

    /// Opens a span now; [`Trace::close`] ends it.
    pub fn open(&mut self, name: &'static str, trace: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, trace, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, trace, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Moves another thread's spans in.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        let shift = other.origin.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..s
        }));
    }

    /// Count, total and self time per span name. Self time is a span's
    /// duration minus the part of it its children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += total;
            t.self_ns += total - covered.min(total);
        }
        out
    }

    /// The per-span table: count, total, self time and self share.
    pub fn table(&self) -> Vec<String> {
        let totals = self.totals();
        let all_self: u64 = totals.values().map(|t| t.self_ns).sum();
        let mut rows: Vec<_> = totals.iter().collect();
        rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        let mut out = vec![format!(
            "  {:<32} {:>9} {:>12} {:>12} {:>7}",
            "span", "count", "total_ms", "self_ms", "self%"
        )];
        out.extend(rows.into_iter().map(|(name, t)| {
            format!(
                "  {:<32} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / all_self.max(1) as f64
            )
        }));
        out
    }

    /// Writes one JSON array per span — `[id, parent, name, trace,
    /// start_ns, end_ns]`, parent -1 for a root — one span per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "[{id},{parent},\"{}\",{},{},{}]",
                s.name, s.trace, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
