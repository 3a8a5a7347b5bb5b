//! Benchmark-side spans around each timed call into a layer.
//!
//! A span has a name `<layer>.<call>`, a start and end on the host clock,
//! its parent (the span open when it started) and the grid cell it
//! belongs to; spans of one cell share that cell's ID. Spans stay in
//! memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished or open span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index in the tracer.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// The grid cell the span works for; `None` for probes.
    pub cell: Option<usize>,
    /// `<layer>.<call>`, e.g. `core.env_new`.
    pub name: String,
    /// Host ns since the tracer was created.
    pub start_ns: u64,
    /// Host ns since the tracer was created; equal to `start_ns` while
    /// the span is open.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    /// Duration in host seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one. `cell: None` inherits
    /// the parent's cell.
    pub fn open(&mut self, name: &str, cell: Option<usize>) -> usize {
        let parent = self.open.last().copied();
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            cell: cell.or_else(|| parent.and_then(|p| self.spans[p].cell)),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one, and
    /// returns its duration in host seconds.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order: a bug in the caller.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].seconds()
    }

    /// Every span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer: each span's duration minus the part its
    /// children cover (children of one span never overlap), summed by
    /// layer.
    pub fn self_seconds_by_layer(&self) -> BTreeMap<String, f64> {
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.seconds();
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.layer().to_string()).or_insert(0.0) += s.seconds() - children[s.id];
        }
        out
    }

    /// One JSON object per span and line.
    pub fn jsonl(&self) -> String {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"cell\": {}, \"name\": \"{}\", \
                     \"start_ns\": {}, \"end_ns\": {}}}\n",
                    s.id,
                    opt(s.parent),
                    opt(s.cell),
                    s.name,
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_cells_and_self_time() {
        let mut t = Tracer::new();
        let cell = t.open("core.cell", Some(4));
        let child = t.open("workloads.execute", None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(child);
        t.close(cell);
        let probe = t.open("mem.probe.hot", None);
        t.close(probe);

        let s = t.spans();
        assert_eq!(s[child].parent, Some(cell));
        assert_eq!(s[child].cell, Some(4));
        assert_eq!(s[probe].parent, None);
        assert_eq!(s[probe].cell, None);
        let by_layer = t.self_seconds_by_layer();
        let core = by_layer["core"];
        assert!((core - (s[cell].seconds() - s[child].seconds())).abs() < 1e-12);
        assert!(by_layer["workloads"] >= 0.002);
        assert_eq!(t.jsonl().lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn out_of_order_close_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.open("a.x", None);
        let _b = t.open("b.y", None);
        t.close(a);
    }
}
