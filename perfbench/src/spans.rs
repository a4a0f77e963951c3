//! Host-time spans recorded from the benchmark's own code.
//!
//! Every span is opened and closed by the benchmark around one call into
//! a crate's public API, so the program itself is never modified. Spans
//! stay in memory and are written out once, at the end of the run.
//!
//! Rank polls are too many to keep one span each (a full-machine job
//! resumes ranks millions of times), so [`PollTimer`] sums them and the
//! sum is recorded as one *collapsed* child span: its duration is the
//! total poll time and `count` the number of polls. With one simulator
//! worker the polls never overlap, so the collapsed span covers exactly
//! the time the individual ones would.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

/// One closed span. Times are offsets from the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `mpi.run`.
    pub name: &'static str,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Operations the span stands for (1, or the polls a collapsed
    /// span sums).
    pub count: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder for one thread of the benchmark.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Record `f` as a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.open_span(name);
        let out = f(self);
        self.close_span(id);
        out
    }

    /// Open a span; close it with [`Tracer::close_span`].
    pub fn open_span(&mut self, name: &'static str) -> usize {
        let at = self.origin.elapsed();
        self.push(name, at, at, 1)
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close_span(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.origin.elapsed();
    }

    /// Record an already-measured interval `[start, end]` of the
    /// monotonic clock under the innermost open span; returns its index.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        let s = start.saturating_duration_since(self.origin);
        let e = end.saturating_duration_since(self.origin);
        let id = self.push(name, s, e, 1);
        self.open.pop();
        id
    }

    /// Record a collapsed child of `parent`: `count` operations taking
    /// `total` together, laid out from the parent's start.
    pub fn collapsed(&mut self, name: &'static str, parent: usize, total: Duration, count: u64) {
        let start = self.spans[parent].start;
        self.spans.push(Span {
            name,
            start,
            end: start + total,
            parent: Some(parent),
            count,
        });
    }

    fn push(&mut self, name: &'static str, start: Duration, end: Duration, count: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
            count,
        });
        self.open.push(id);
        id
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array (`name`, `start_us`, `end_us`,
    /// `parent`, `count`).
    pub fn to_json(&self) -> String {
        let mut arr = bgp_trace::json::Arr::new();
        for s in &self.spans {
            let obj = bgp_trace::json::Obj::new()
                .field_str("name", s.name)
                .field_f64("start_us", s.start.as_secs_f64() * 1e6)
                .field_f64("end_us", s.end.as_secs_f64() * 1e6);
            let obj = match s.parent {
                Some(p) => obj.field_u64("parent", p as u64),
                None => obj.field_raw("parent", "null"),
            };
            arr = arr.push_raw(&obj.field_u64("count", s.count).finish());
        }
        arr.finish()
    }
}

/// Self time of every span: its duration minus the time its children
/// cover. Children of one span never overlap (they are recorded by one
/// thread, or collapsed from one simulator worker), so the covered
/// time is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut covered = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration().saturating_sub(c))
        .collect()
}

/// Total self time of the subtree rooted at `root` (inclusive). It
/// equals the root's duration exactly when the children of every span
/// in it fit inside their parent without overlapping.
pub fn subtree_self_time(spans: &[Span], root: usize) -> Duration {
    self_times(spans)
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| descends_from(spans, i, root))
        .map(|(_, t)| t)
        .sum()
}

fn descends_from(spans: &[Span], mut i: usize, root: usize) -> bool {
    loop {
        if i == root {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    }
}

/// Total time and count of the polls of every future wrapped by
/// [`PollTimer::wrap`].
#[derive(Default)]
pub struct PollTimer {
    nanos: AtomicU64,
    polls: AtomicU64,
}

impl PollTimer {
    /// Wrap a rank's kernel future so each of its polls is timed.
    pub fn wrap<F: Future>(&self, fut: F) -> Timed<'_, F> {
        Timed {
            inner: Box::pin(fut),
            timer: self,
        }
    }

    /// Summed poll time.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    /// Number of polls.
    pub fn polls(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }

    /// Add one poll that started at `t0`.
    fn record(&self, t0: Instant) {
        let nanos = t0.elapsed().as_nanos() as u64;
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.polls.fetch_add(1, Ordering::Relaxed);
    }
}

/// Host time the poll wrapper adds to one poll — two clock reads and
/// two counter updates — timed on this host as the median of a few
/// batches. A traced job pays this once per `mpi.polls`; the untraced
/// job does not.
pub fn poll_overhead() -> Duration {
    const N: u32 = 100_000;
    let timer = PollTimer::default();
    let mut batches: Vec<Duration> = (0..7)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..N {
                timer.record(std::hint::black_box(Instant::now()));
            }
            start.elapsed() / N
        })
        .collect();
    batches.sort();
    batches[batches.len() / 2]
}

/// A future whose polls are timed into a [`PollTimer`].
pub struct Timed<'a, F> {
    inner: Pin<Box<F>>,
    timer: &'a PollTimer,
}

impl<F: Future> Future for Timed<'_, F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let t0 = Instant::now();
        let out = self.inner.as_mut().poll(cx);
        self.timer.record(t0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::task::{Wake, Waker};

    /// Pending `left` times, sleeping `nap` inside each poll, then ready.
    struct Stepper {
        left: u32,
        nap: Duration,
    }

    impl Future for Stepper {
        type Output = u32;
        fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<u32> {
            std::thread::sleep(self.nap);
            if self.left == 0 {
                Poll::Ready(7)
            } else {
                self.left -= 1;
                Poll::Pending
            }
        }
    }

    struct Noop;
    impl Wake for Noop {
        fn wake(self: Arc<Self>) {}
    }

    #[test]
    fn poll_wrapper_sums_time_and_counts_polls() {
        let timer = PollTimer::default();
        let nap = Duration::from_millis(2);
        let mut fut = timer.wrap(Stepper { left: 3, nap });
        let waker = Waker::from(Arc::new(Noop));
        let mut cx = Context::from_waker(&waker);
        let mut pendings = 0;
        let out = loop {
            match Pin::new(&mut fut).poll(&mut cx) {
                Poll::Ready(v) => break v,
                Poll::Pending => pendings += 1,
            }
        };
        assert_eq!((out, pendings), (7, 3));
        assert_eq!(timer.polls(), 4);
        assert!(timer.total() >= nap * 4, "summed {:?}", timer.total());
        assert!(timer.total() < Duration::from_secs(2));
    }

    #[test]
    fn poll_overhead_is_a_few_clock_reads() {
        let cost = poll_overhead();
        assert!(cost > Duration::ZERO);
        assert!(cost < Duration::from_micros(5), "{cost:?} per poll");
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        let ms = Duration::from_millis;
        Span {
            name,
            start: ms(start),
            end: ms(end),
            parent,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_at_every_level() {
        let spans = vec![
            span("job", 0, 100, None),
            span("mpi.run", 10, 80, Some(0)),
            span("node.poll", 10, 60, Some(1)),
            span("core.collect", 80, 90, Some(0)),
            span("mpi.run", 200, 230, None),
        ];
        let ms = |t: u64| Duration::from_millis(t);
        assert_eq!(
            self_times(&spans),
            vec![ms(20), ms(20), ms(50), ms(10), ms(30)]
        );
        assert_eq!(subtree_self_time(&spans, 0), ms(100), "adds up to the root");
        assert_eq!(subtree_self_time(&spans, 1), ms(70));
        assert_eq!(subtree_self_time(&spans, 4), ms(30), "other roots stay out");
    }

    #[test]
    fn tracer_nests_spans_and_collapsed_children() {
        let mut t = Tracer::default();
        t.span("job", |t| {
            let run = t.open_span("mpi.run");
            t.collapsed("node.poll", run, Duration::ZERO, 5);
            t.close_span(run);
            t.span("postproc.aggregate", |_| ());
        });
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["job", "mpi.run", "node.poll", "postproc.aggregate"]
        );
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(1), Some(0)]
        );
        assert_eq!(s[2].count, 5);
        assert!(t.to_json().starts_with("[{\"name\":\"job\""));
    }
}
