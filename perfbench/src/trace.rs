//! The traced run: spans recorded from the benchmark's own code around
//! calls into each layer's public functions, a timing [`Node`] wrapper for
//! the simulator, and a timing [`ZoneSource`] wrapper for the refresh loop.
//!
//! Spans live in memory while the run lasts and are written out once at
//! the end (`perfbench/traces/<workload>-seed<n>.spans.jsonl`, one span
//! per line with its self time, plus `….layers.json` with the per-layer
//! metrics). A span's self time is its duration minus the time its
//! children cover.

use std::cell::RefCell;
use std::fs;
use std::io::{BufWriter, Write};
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

use rootless_core::manager::{FetchedZone, ZoneSource};
use rootless_netsim::sim::{Ctx, Datagram, Node};
use rootless_util::digest::StateDigest;
use rootless_util::time::SimTime;

use crate::report::Outcome;

/// Nanoseconds since the first call in this process (the trace epoch).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store.
#[derive(Debug, Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Runs `f` inside a span named `name` under `parent`; `f` gets the new
    /// span's id for its own children.
    pub fn span<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<u32>,
        f: impl FnOnce(&mut Tracer, u32) -> R,
    ) -> R {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns: now_ns(),
            end_ns: 0,
        });
        let r = f(self, id);
        self.spans[id as usize].end_ns = now_ns();
        r
    }

    /// Records an already-measured interval.
    pub fn record(&mut self, name: &str, parent: Option<u32>, start_ns: u64, end_ns: u64) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
    }

    /// Duration in ms of span `id`.
    pub fn ms(&self, id: u32) -> f64 {
        let s = &self.spans[id as usize];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = BufWriter::new(fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns, self_ns
            )?;
        }
        out.flush()
    }
}

/// A simulator node wrapped so every handler call is timed. The wrapper is
/// transparent to the simulation: same callbacks, same state digest.
pub struct Timed<N> {
    pub inner: N,
    /// `(start, end)` of every handler call, in trace-epoch nanoseconds.
    pub calls: Vec<(u64, u64)>,
}

impl<N> Timed<N> {
    pub fn new(inner: N) -> Timed<N> {
        Timed {
            inner,
            calls: Vec::new(),
        }
    }
}

impl<N: Node> Node for Timed<N> {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        let start = now_ns();
        self.inner.on_datagram(ctx, dgram);
        self.calls.push((start, now_ns()));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let start = now_ns();
        self.inner.on_timer(ctx, token);
        self.calls.push((start, now_ns()));
    }

    fn state_digest(&self, digest: &mut StateDigest) {
        self.inner.state_digest(digest);
    }
}

/// Borrows the `T` behind a node, whether or not it is wrapped in
/// [`Timed`].
pub fn inner<T: Node>(node: &dyn Node) -> &T {
    let any = node as &dyn std::any::Any;
    any.downcast_ref::<T>()
        .or_else(|| any.downcast_ref::<Timed<T>>().map(|t| &t.inner))
        .expect("node has the type its world registered")
}

/// One timed `fetch` call of a [`TimedSource`].
#[derive(Clone, Copy, Debug)]
pub struct FetchRecord {
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A zone source wrapped so every `fetch` is timed; the log is shared with
/// the benchmark because the manager owns the boxed source.
pub struct TimedSource<S> {
    inner: S,
    log: Rc<RefCell<Vec<FetchRecord>>>,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S, log: Rc<RefCell<Vec<FetchRecord>>>) -> TimedSource<S> {
        TimedSource { inner, log }
    }
}

impl<S: ZoneSource> ZoneSource for TimedSource<S> {
    fn latest_serial(&mut self, now: SimTime) -> Option<u32> {
        self.inner.latest_serial(now)
    }

    fn fetch(&mut self, now: SimTime, have: Option<u32>) -> Option<FetchedZone> {
        let start_ns = now_ns();
        let fetched = self.inner.fetch(now, have);
        self.log.borrow_mut().push(FetchRecord {
            start_ns,
            end_ns: now_ns(),
        });
        fetched
    }
}

/// The traced run: every layer's probe, whatever the workload named (the
/// per-layer table is the same for all three), then spans and metrics to
/// `perfbench/traces/`.
pub fn run_traced(workload: &str, seed: u64) -> Outcome {
    let mut tracer = Tracer::default();
    let mut outcome = Outcome::default();
    crate::serve::traced(seed, &mut tracer, &mut outcome);
    crate::resolve::traced(seed, &mut tracer, &mut outcome);
    crate::zone_update::traced(seed, &mut tracer, &mut outcome);

    let dir = "perfbench/traces";
    let stem = format!("{dir}/{workload}-seed{seed}");
    let written = fs::create_dir_all(dir)
        .and_then(|()| tracer.write_jsonl(&format!("{stem}.spans.jsonl")))
        .and_then(|()| fs::write(format!("{stem}.layers.json"), outcome.to_json() + "\n"));
    if let Err(e) = written {
        outcome.failures.push(format!("writing {stem}.*: {e}"));
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        t.spans.push(Span {
            id: 0,
            parent: None,
            name: "run".into(),
            start_ns: 0,
            end_ns: 100,
        });
        t.record("a", Some(0), 10, 30);
        t.record("b", Some(0), 40, 70);
        t.record("c", Some(2), 50, 60);
        assert_eq!(t.self_ns(), vec![50, 20, 20, 10]);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::default();
        t.span("outer", None, |t, id| t.span("inner", Some(id), |_, _| ()));
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
    }
}
