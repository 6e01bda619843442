//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing here reaches into the crates: a span is two clock reads
//! around a public function.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One timed interval. Spans of one operation share `op_id`; `parent` is the
/// index of the span that was open when this one started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

/// Span recorder of one thread. Spans nest strictly (a stack), so a child
/// never outlives its parent and siblings never overlap.
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Trace {
    /// A recorder whose timestamps count from `epoch` (shared between the
    /// threads of one run so their spans line up in the written file).
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// Number operations from `first_op` on, so the threads of one run
    /// hand out distinct ids.
    pub fn numbered_from(mut self, first_op: u64) -> Self {
        self.op_id = first_op;
        self
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the next operation: later spans carry a fresh `op_id`.
    pub fn next_op(&mut self) {
        self.op_id += 1;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Time `f` as a leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Record an interval the crate under `parent` timed with its own clock
    /// (`SearchStats::elapsed_micros`) as a child at the end of that closed
    /// span, so the parent's self time excludes it.
    pub fn nest(&mut self, parent: usize, name: &'static str, ns: u64) {
        let (start_ns, end_ns) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        self.spans.push(Span {
            name,
            start_ns: end_ns - ns.min(end_ns - start_ns),
            end_ns,
            parent: Some(parent),
            op_id: self.spans[parent].op_id,
        });
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Trace) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }
}

/// Time `f` as a leaf span when tracing is on; just run it when off.
pub fn span_if<T>(trace: &mut Option<&mut Trace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match trace.as_deref_mut() {
        Some(trace) => trace.span(name, f),
        None => f(),
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus the
/// part of it its direct children cover, summed over spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *by_name.entry(s.name).or_insert(0) += ns;
    }
    by_name
}

/// The spans as a JSON array of `{name, start_ns, end_ns, parent, op_id}`.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Array(
        spans
            .iter()
            .map(|s| {
                Json::object([
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                    ),
                    ("op_id", Json::from(s.op_id)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        // op 0..100 { ground 10..30, search 30..90 { bound 40..50 } }
        let spans = vec![
            span("op", 0, 100, None),
            span("ground", 10, 30, Some(0)),
            span("search", 30, 90, Some(0)),
            span("bound", 40, 50, Some(2)),
        ];
        let own = self_times(&spans);
        assert_eq!(own["op"], 20);
        assert_eq!(own["ground"], 20);
        assert_eq!(own["search"], 50);
        assert_eq!(own["bound"], 10);
        // the lines sum to the operation
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_absorbs() {
        let epoch = Instant::now();
        let mut a = Trace::new(epoch);
        a.next_op();
        let op = a.enter("op");
        let leaf = a.enter("leaf");
        std::hint::black_box(1 + 1);
        a.exit(leaf);
        a.exit(op);
        // a crate-side clock reading longer than its span is clipped to it
        a.nest(leaf, "inner", u64::MAX);
        assert_eq!(a.spans[1].parent, Some(0));
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[2].op_id, 1);
        assert_eq!(self_times(&a.spans)["leaf"], 0);
        assert!(a.spans[0].end_ns >= a.spans[1].end_ns);

        let mut b = Trace::new(epoch).numbered_from(7);
        b.next_op();
        let op = b.enter("op");
        b.span("leaf", || ());
        b.exit(op);
        assert_eq!(b.spans[0].op_id, 8);
        a.absorb(b);
        assert_eq!(a.spans[4].parent, Some(3));
        let roots: u64 = a
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(self_times(&a.spans).values().sum::<u64>(), roots);
    }
}
