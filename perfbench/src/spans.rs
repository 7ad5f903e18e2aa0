//! Spans recorded from outside the program, around the calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it; spans of
//! one replayed op share the op's number. Spans stay in memory and are
//! written out once, when the run ends.

use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer (module) the span covers, e.g. `core.assign`.
    pub name: &'static str,
    /// The replayed op the span belongs to.
    pub op: u32,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created (`start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// Length of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder with an explicit open-span stack.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }
}

impl Recorder {
    /// Starts the next op: later spans carry its number.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already measured interval as a closed child of the
    /// innermost open span.
    #[cfg(test)]
    pub fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span `id`.
    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Ids of the spans in the subtree under `root`, `root` excluded. Spans
    /// open and close innermost first, so a subtree is the contiguous run of
    /// spans after its root whose parent lies inside that run.
    pub fn descendants(&self, root: usize) -> std::ops::Range<usize> {
        let end = self.spans[root + 1..]
            .iter()
            .position(|s| s.parent.is_none_or(|p| p < root))
            .map_or(self.spans.len(), |offset| root + 1 + offset);
        root + 1..end
    }

    /// Self time of span `id`: its duration minus the part of its interval its
    /// child spans cover (overlapping children are counted once, and any part
    /// of a child outside the parent is ignored).
    pub fn self_ns(&self, id: usize) -> u64 {
        let parent = self.spans[id];
        let mut covered: Vec<(u64, u64)> = self.spans[self.descendants(id)]
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(start, end)| start < end)
            .collect();
        covered.sort_unstable();
        let mut total = 0;
        let mut reach = parent.start_ns;
        for (start, end) in covered {
            let start = start.max(reach);
            if end > start {
                total += end - start;
                reach = end;
            }
        }
        parent.duration_ns() - total
    }

    /// Sum of the self times of every span named `name` under `root`.
    pub fn self_ns_named(&self, root: usize, name: &str) -> u64 {
        self.descendants(root)
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self.self_ns(id))
            .sum()
    }

    /// The spans as one JSON array, in recording order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            ));
        }
        out.push_str("\n]");
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_the_part_children_cover() {
        let mut rec = Recorder::default();
        let root = rec.push("op", 0, 100);
        rec.open.push(root);
        // Two overlapping children covering 10..50, one sticking out past the
        // parent's end (only 90..100 counts), and one grandchild that must
        // not count against the root.
        let first = rec.push("a", 10, 30);
        rec.open.push(first);
        rec.push("grandchild", 12, 28);
        rec.open.pop();
        rec.push("b", 20, 50);
        rec.push("c", 90, 120);
        rec.open.clear();

        assert_eq!(rec.self_ns(root), 100 - 40 - 10);
        assert_eq!(rec.self_ns(first), 20 - 16);
        assert_eq!(rec.descendants(root).len(), 4);
        assert_eq!(rec.self_ns_named(root, "grandchild"), 16);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        let mut rec = Recorder::default();
        let leaf = rec.push("leaf", 5, 25);
        assert_eq!(rec.self_ns(leaf), 20);
    }

    #[test]
    fn nested_enter_exit_links_parents_and_closes_in_order() {
        let mut rec = Recorder::default();
        rec.next_op();
        let outer = rec.enter("outer");
        let inner = rec.leaf("inner", || 7);
        rec.exit(outer);
        assert_eq!(inner, 7);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.span(1).parent, Some(outer));
        assert_eq!(rec.span(1).op, 1);
        assert!(rec.span(outer).end_ns >= rec.span(1).end_ns);
        assert!(rec.self_ns(outer) <= rec.span(outer).duration_ns());
        assert!(rec.to_json().contains("\"name\":\"inner\""));
    }
}
