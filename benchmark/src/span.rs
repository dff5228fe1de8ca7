//! In-memory spans for the traced replay.
//!
//! A span is recorded around each call into a layer: name, start, end, the
//! span that caused it and the batch it belongs to. Spans stay in memory
//! until the replay ends; a layer's self time is its span minus the part
//! its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u32>,
    pub name: &'static str,
    /// The planned batch being replayed when the span opened. Spans opened
    /// by background threads (the prefetcher) carry none.
    pub batch: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counted at this boundary: bytes moved and items handled
    /// (blocks for reads, samples for wire and pipeline calls); 0 when the
    /// call site counts nothing.
    pub bytes: u64,
    pub items: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct ThreadCtx {
    open: Vec<u32>,
    batch: Option<u64>,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx::default());
}

/// Collects spans from every thread of one replay pass. Switched off, it
/// costs one relaxed load per call site, which is how the untraced pass
/// runs the same code.
pub struct Tracer {
    on: AtomicBool,
    origin: Instant,
    next_id: AtomicU32,
    done: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            done: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start or stop recording. Spans open at the moment of the switch
    /// still close and are kept.
    pub fn switch(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Tag every span this thread opens from now on with `batch`.
    pub fn set_batch(&self, batch: Option<u64>) {
        if self.on.load(Ordering::Relaxed) {
            CTX.with(|c| c.borrow_mut().batch = batch);
        }
    }

    /// Open a span; it closes when the guard drops.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.on.load(Ordering::Relaxed) {
            return SpanGuard {
                tracer: self,
                open: None,
                counted: (0, 0),
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, batch) = CTX.with(|c| {
            let mut c = c.borrow_mut();
            let parent = c.open.last().copied();
            c.open.push(id);
            (parent, c.batch)
        });
        SpanGuard {
            tracer: self,
            open: Some(Span {
                id,
                parent,
                name,
                batch,
                start_ns: self.now_ns(),
                end_ns: 0,
                bytes: 0,
                items: 0,
            }),
            counted: (0, 0),
        }
    }

    /// Every span recorded so far, ordered by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .done
                .lock()
                .expect("span buffer lock is never held across a panic"),
        );
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    open: Option<Span>,
    counted: (u64, u64),
}

impl SpanGuard<'_> {
    /// Attach the amount of work done inside the span.
    pub fn count(&mut self, bytes: u64, items: u64) {
        self.counted = (bytes, items);
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(mut span) = self.open.take() else {
            return;
        };
        span.end_ns = self.tracer.now_ns();
        (span.bytes, span.items) = self.counted;
        CTX.with(|c| {
            c.borrow_mut().open.pop();
        });
        // A poisoned buffer only loses spans; never panic in drop.
        if let Ok(mut done) = self.tracer.done.lock() {
            done.push(span);
        }
    }
}

/// Totals for every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus what child spans cover.
    pub self_ns: u64,
    /// Sums of the work counted at the spans.
    pub bytes: u64,
    pub items: u64,
}

/// Self time per span name. A child's interval is clipped to its parent's
/// before it is subtracted, so a child that outlives its parent (it cannot
/// on one thread, but the data does not promise that) never drives a self
/// time below zero.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| by_id.get(&p)) {
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            *covered.entry(parent.id).or_default() += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s
            .dur_ns()
            .saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        t.bytes += s.bytes;
        t.items += s.items;
    }
    out
}

/// `trace.json`: the raw spans plus the per-layer totals derived from them.
pub fn to_json(
    workload: &str,
    spans: &[Span],
    layers: &BTreeMap<&'static str, LayerTime>,
) -> String {
    let mut s = String::with_capacity(spans.len() * 96 + 1024);
    let _ = write!(
        s,
        "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"layers\":{{"
    );
    for (i, (name, t)) in layers.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{name}\":{{\"calls\":{},\"total_ns\":{},\"self_ns\":{},\"bytes\":{},\"items\":{}}}",
            if i == 0 { "" } else { "," },
            t.calls,
            t.total_ns,
            t.self_ns,
            t.bytes,
            t.items
        );
    }
    s.push_str("},\"spans\":[\n");
    for (i, sp) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let _ = writeln!(
            s,
            "{}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"batch\":{},\"start\":{},\"end\":{},\"bytes\":{},\"items\":{}}}",
            if i == 0 { "" } else { "," },
            sp.id,
            opt(sp.parent.map(u64::from)),
            sp.name,
            opt(sp.batch),
            sp.start_ns,
            sp.end_ns,
            sp.bytes,
            sp.items
        );
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            batch: Some(0),
            start_ns: start,
            end_ns: end,
            bytes: 0,
            items: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(0, None, "batch", 0, 100),
            span(1, Some(0), "read", 10, 60),
            span(2, Some(1), "cache", 20, 50),
            span(3, Some(0), "encode", 60, 90),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["batch"].self_ns, 100 - 50 - 30);
        assert_eq!(t["read"].self_ns, 50 - 30);
        assert_eq!(t["cache"].self_ns, 30);
        assert_eq!(t["encode"].self_ns, 30);
        // Self times of a tree sum to its root's duration.
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn child_overhang_is_clipped() {
        let spans = vec![span(0, None, "p", 10, 20), span(1, Some(0), "c", 5, 50)];
        let t = layer_times(&spans);
        assert_eq!(t["p"].self_ns, 0);
        assert_eq!(t["c"].self_ns, 45);
    }

    #[test]
    fn guards_nest_and_tag_batches() {
        let tracer = Tracer::new(true);
        tracer.set_batch(Some(7));
        {
            let _outer = tracer.enter("outer");
            let mut inner = tracer.enter("inner");
            inner.count(300, 3);
        }
        tracer.set_batch(None);
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!((inner.batch, inner.bytes, inner.items), (Some(7), 300, 3));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn switched_off_records_nothing() {
        let tracer = Tracer::new(false);
        drop(tracer.enter("x"));
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn json_lists_layers_and_spans() {
        let spans = vec![span(0, None, "batch", 0, 9)];
        let json = to_json("w", &spans, &layer_times(&spans));
        assert!(json.contains("\"batch\":{\"calls\":1,\"total_ns\":9,\"self_ns\":9"));
        assert!(json.contains("\"parent\":null"));
    }
}
