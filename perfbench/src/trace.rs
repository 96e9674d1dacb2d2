//! Aggregated spans of a traced run, kept in memory and written once at
//! the end. A span node is identified by (name, parent); every interval
//! recorded under it adds to its count and total, and widens its
//! [start, end] window. A node's self time is its total minus its
//! children's totals.

use crate::engine::nanos;
use crate::workloads::Rep;
use std::fmt::Write as _;
use std::time::Instant;

/// One aggregated span node.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`run`, `setup.start`, `EventQueue::pop`, ...).
    pub name: String,
    /// Parent node index (None for the root).
    pub parent: Option<usize>,
    /// Intervals recorded.
    pub count: u64,
    /// Summed duration, host nanoseconds.
    pub total_ns: u64,
    /// Earliest start, ns after the tracer's epoch.
    pub start_ns: u64,
    /// Latest end, ns after the tracer's epoch.
    pub end_ns: u64,
}

/// In-memory span aggregator.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The node for (name, parent), created on first use.
    pub fn node(&mut self, name: &str, parent: Option<usize>) -> usize {
        if let Some(i) = self
            .spans
            .iter()
            .position(|s| s.name == name && s.parent == parent)
        {
            return i;
        }
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            count: 0,
            total_ns: 0,
            start_ns: u64::MAX,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Record `count` intervals totalling `total_ns` that all fell inside
    /// [start, start + window_ns].
    pub fn add(&mut self, id: usize, count: u64, total_ns: u64, start: Instant, window_ns: u64) {
        let from = nanos(start.saturating_duration_since(self.epoch));
        let s = &mut self.spans[id];
        s.count += count;
        s.total_ns += total_ns;
        s.start_ns = s.start_ns.min(from);
        s.end_ns = s.end_ns.max(from.saturating_add(window_ns));
    }

    /// Record one traced rep under a `run` root: its set-up phases, its
    /// event loops with `EventQueue::pop` and `World::handle` per event
    /// kind, and its gate.
    pub fn record_rep(&mut self, rep: &Rep) {
        let Some(first) = rep.phases.first() else {
            return;
        };
        let root = self.node("run", None);
        let total: u64 = rep.phases.iter().map(|p| p.ns).sum();
        self.add(root, 1, total, first.start, total);
        let mut loop_id = None;
        let mut loop_start: Option<Instant> = None;
        for p in &rep.phases {
            let id = self.node(p.name, Some(root));
            self.add(id, 1, p.ns, p.start, p.ns);
            if p.name == "loop" {
                loop_id.get_or_insert(id);
                loop_start.get_or_insert(p.start);
            }
        }
        let (Some(loop_id), Some(loop_start), Some(times)) = (loop_id, loop_start, &rep.times)
        else {
            return;
        };
        let window = times.loop_ns;
        let pop = self.node("EventQueue::pop", Some(loop_id));
        self.add(pop, rep.counts.pops, times.pop_ns, loop_start, window);
        let handle = self.node("World::handle", Some(loop_id));
        let handle_total: u64 = times.handle_ns.iter().map(|&(_, ns)| ns).sum();
        self.add(handle, rep.counts.pops, handle_total, loop_start, window);
        for &(kind, ns) in &times.handle_ns {
            let n = rep.counts.kind(kind);
            if n > 0 {
                let id = self.node(kind, Some(handle));
                self.add(id, n, ns, loop_start, window);
            }
        }
    }

    /// The aggregated nodes.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A node's total minus its children's totals.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.total_ns)
            .sum();
        self.spans[id].total_ns.saturating_sub(children)
    }

    /// Render every node as JSON, with `header` fields (already-rendered
    /// JSON values) in front.
    pub fn to_json(&self, header: &[(&str, String)]) -> String {
        let mut out = String::from("{\n");
        for (k, v) in header {
            let _ = writeln!(out, "  \"{k}\": {v},");
        }
        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| {
                format!("\"{}\"", self.spans[p].name)
            });
            let _ = write!(
                out,
                "    {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.count,
                s.total_ns,
                self.self_ns(i),
                s.start_ns,
                s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}
