//! Wall-clock spans recorded by the benchmark around its calls into each
//! layer. Spans live in a per-thread buffer in memory, are collected when
//! a traced phase ends, and never enter an `ff_obs::Recorder`, so no
//! trace digest of the program can move because the benchmark traced it.
//!
//! A span records its name, start, end and the span that was open on the
//! same thread when it began (its cause). A layer's self time is the
//! span's duration minus the durations of its children; children run on
//! the span's own thread, one after another, so they never overlap.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the process's first span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the process.
    pub id: u64,
    /// The span open on this thread when this one began.
    pub parent: Option<u64>,
    /// The layer boundary, e.g. `"fabric.send"`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Whether `span` records. A statistic with no data behind it, so
/// `Relaxed` suffices; it is only flipped between phases, while no
/// workload thread runs.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Source of per-thread id prefixes.
static THREAD_SEQ: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

#[derive(Default)]
struct ThreadBuf {
    prefix: u64,
    next: u64,
    open: Vec<u64>,
    spans: Vec<Span>,
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        prefix: THREAD_SEQ.fetch_add(1, Ordering::Relaxed) << 40,
        ..ThreadBuf::default()
    });
}

/// Turn recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Run `f`, recording it as a span named `name` when tracing is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let (id, parent) = BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.next += 1;
        let id = b.prefix | b.next;
        let parent = b.open.last().copied();
        b.open.push(id);
        (id, parent)
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.open.pop();
        b.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    });
    out
}

/// Drain the spans this thread recorded.
pub fn take() -> Vec<Span> {
    BUF.with(|b| std::mem::take(&mut b.borrow_mut().spans))
}

/// Time attributed to one layer across a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: u64,
    /// Σ span durations, ns.
    pub total_ns: u64,
    /// Σ (span duration − its children's durations), ns.
    pub self_ns: u64,
}

/// Per-layer totals and self times, keyed by span name.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        let lt = out.entry(s.name).or_default();
        lt.count += 1;
        lt.total_ns += s.dur_ns();
        lt.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Write up to `max` spans as a Chrome trace-event file, noting how many
/// were left out.
pub fn write_chrome(path: &std::path::Path, spans: &[Span], max: usize) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"otherData\":{{\"spans\":{},\"written\":{}}},\"traceEvents\":[",
        spans.len(),
        spans.len().min(max)
    )?;
    for (i, s) in spans.iter().take(max).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        writeln!(
            w,
            "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.id >> 40,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_link_to_their_cause_and_self_time_fits_inside() {
        set_enabled(true);
        span("outer", || {
            spin(200);
            span("inner", || spin(300));
            span("inner", || span("leaf", || spin(100)));
        });
        let spans = take();
        assert_eq!(spans.len(), 4);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, None);
        for s in spans.iter().filter(|s| s.name == "inner") {
            assert_eq!(s.parent, Some(outer.id));
            assert!(s.start_ns >= outer.start_ns && s.end_ns <= outer.end_ns);
        }
        let times = layer_times(&spans);
        for (name, lt) in &times {
            assert!(lt.self_ns <= lt.total_ns, "{name}: self exceeds span");
        }
        let o = times["outer"];
        let i = times["inner"];
        assert_eq!(o.count, 1);
        assert_eq!(i.count, 2);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert!(o.self_ns >= 200_000);
        assert_eq!(times["leaf"].self_ns, times["leaf"].total_ns);
    }

    #[test]
    fn spans_from_different_threads_have_distinct_ids() {
        set_enabled(true);
        let a = std::thread::spawn(|| {
            span("x", || ());
            take()
        })
        .join()
        .unwrap();
        let b = std::thread::spawn(|| {
            span("x", || ());
            take()
        })
        .join()
        .unwrap();
        assert_ne!(a[0].id, b[0].id);
    }
}
