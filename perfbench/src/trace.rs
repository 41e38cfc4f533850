//! In-memory spans around the benchmark's calls into each layer's public API.
//!
//! A span carries its name (`<layer>.<call>`), start and end, parent span, rank
//! (`-1` for the main thread) and workload. Spans stay in memory until the run
//! ends, when [`Tracer::write_json`] writes them out and [`Tracer::self_time_table`]
//! folds them into per-layer self time: a span's duration minus the part of it that
//! its child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent of a root span.
pub const ROOT: u64 = 0;
/// Rank of spans recorded on the main thread.
pub const MAIN_THREAD: i64 = -1;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u64,
    pub rank: i64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            epoch: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserve a span id, for a span whose children are recorded before it ends.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span under a reserved id.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        rank: i64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            rank,
        };
        // A push leaves the list valid at every step, so a guard poisoned by a
        // panicking rank thread is safe to reuse.
        self.spans
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(span);
    }

    /// Run `call` inside a new span; returns its result and the span's duration in ms.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        rank: i64,
        call: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.reserve();
        let start = Instant::now();
        let result = call();
        let end = Instant::now();
        self.record(id, name, parent, rank, start, end);
        (result, (end - start).as_secs_f64() * 1e3)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Per-layer self time over every span recorded so far, widest layer first.
    pub fn self_time_table(&self) -> Vec<String> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for span in &spans {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
        let mut by_layer: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        let mut total = 0.0;
        for span in &spans {
            let covered = children
                .get(&span.id)
                .map_or(0, |c| covered_ns(c, span.start_ns, span.end_ns));
            let own = span
                .end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(covered) as f64
                / 1e6;
            let entry = by_layer.entry(span.layer()).or_default();
            entry.0 += own;
            entry.1 += 1;
            total += own;
        }
        let mut rows: Vec<_> = by_layer.into_iter().collect();
        rows.sort_by(|a, b| b.1 .0.total_cmp(&a.1 .0));
        let mut lines = vec![format!(
            "  per-layer self time ({}; summed over ranks and the main thread)",
            self.workload
        )];
        lines.push(format!(
            "    {:<12} {:>12} {:>7} {:>9}",
            "layer", "self ms", "share", "spans"
        ));
        for (layer, (own, count)) in rows {
            lines.push(format!(
                "    {layer:<12} {own:>12.2} {:>6.1}% {count:>9}",
                100.0 * own / total.max(1e-9)
            ));
        }
        lines
    }

    /// Write every span as JSON to `path` (creating its directory).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        let mut out = String::with_capacity(spans.len() * 120 + 64);
        out.push_str(&format!(
            "{{\"workload\": \"{}\", \"spans\": [\n",
            self.workload
        ));
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            out.push_str(&format!(
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"rank\": {}, \"workload\": \"{}\"}}{sep}\n",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.rank, self.workload
            ));
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(intervals: &[(u64, u64)], start: u64, end: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}
