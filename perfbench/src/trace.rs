//! The benchmark's own spans around each call into a library layer, plus
//! the rim-obs counter deltas of the ops those calls belong to.
//!
//! Spans are recorded from this package only: every op is a root span
//! named `op`, and each library call inside it is a child span named
//! after its layer, sharing the op's id. Spans stay in memory and are
//! folded into per-layer totals as they close; a capped copy is written
//! out when the run ends. A disabled tracer records nothing, so the
//! untraced phase pays only the closure call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// At most this many spans are kept for the span log.
const LOG_CAP: usize = 100_000;

struct Span {
    op: u64,
    name: &'static str,
    /// `None` for the op's root span and for calls made between ops.
    parent: Option<&'static str>,
    start_ns: u64,
    end_ns: u64,
}

/// Time spent in one layer and how often it was entered.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    pub ns: u64,
    pub calls: u64,
}

impl Layer {
    /// Mean milliseconds per call; 0 if never called.
    pub fn ms_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / 1e6 / self.calls as f64
        }
    }
}

pub struct Tracer {
    on: bool,
    base: Instant,
    op: u64,
    in_op: bool,
    log: Vec<Span>,
    layers: BTreeMap<&'static str, Layer>,
    /// Counts the benchmark itself observes at layer boundaries.
    counts: BTreeMap<&'static str, u64>,
    /// Wall time of all ops, and the part of it inside layer spans.
    op_ns: u64,
    covered_ns: u64,
    /// Counter values when tracing started, and the deltas of work done
    /// outside ops (output checks, side measurements).
    start_counts: BTreeMap<String, u64>,
    excluded: BTreeMap<String, u64>,
}

/// Current rim-obs counters, plus each histogram's sample sum as
/// `<name>.sum`; empty while no recorder is installed.
fn read_counts() -> BTreeMap<String, u64> {
    let Some(rec) = rim_obs::global() else {
        return BTreeMap::new();
    };
    let snap = rec.snapshot();
    let mut out = snap.counters;
    for (name, h) in snap.histograms {
        out.insert(format!("{name}.sum"), h.sum);
    }
    out
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            base: Instant::now(),
            op: 0,
            in_op: false,
            log: Vec::new(),
            layers: BTreeMap::new(),
            counts: BTreeMap::new(),
            op_ns: 0,
            covered_ns: 0,
            start_counts: BTreeMap::new(),
            excluded: BTreeMap::new(),
        }
    }

    /// A recording tracer. Installs the process-wide rim-obs recorder,
    /// which stays on for the rest of the process.
    pub fn on() -> Self {
        rim_obs::install_recorder();
        Tracer {
            on: true,
            start_counts: read_counts(),
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn close(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        let layer = self.layers.entry(name).or_default();
        layer.ns += end_ns - start_ns;
        layer.calls += 1;
        if self.log.len() < LOG_CAP {
            self.log.push(Span {
                op: self.op,
                name,
                parent,
                start_ns,
                end_ns,
            });
        }
    }

    /// Runs one call into layer `name` under a span.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let parent = self.in_op.then_some("op");
        self.close(name, parent, start, end);
        if self.in_op {
            self.covered_ns += end - start;
        }
        out
    }

    /// Runs one op under a root span and returns its result with its
    /// wall time in nanoseconds, which is measured whether or not the
    /// tracer records.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> (T, u64) {
        self.op += 1;
        self.in_op = true;
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.in_op = false;
        if self.on {
            self.close("op", None, start, end);
            self.op_ns += end - start;
        }
        (out, end - start)
    }

    /// Runs work that belongs to no op (checks, side measurements) and
    /// keeps its counter increments out of the per-op counters.
    pub fn aside<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let before = read_counts();
        let out = f(self);
        for (name, v) in read_counts() {
            let delta = v - before.get(&name).copied().unwrap_or(0);
            *self.excluded.entry(name).or_default() += delta;
        }
        out
    }

    /// Whether this tracer records.
    pub fn recording(&self) -> bool {
        self.on
    }

    /// Adds `v` to the benchmark-side count `name` (while recording).
    pub fn count(&mut self, name: &'static str, v: u64) {
        if self.on {
            *self.counts.entry(name).or_default() += v;
        }
    }

    /// Total of the benchmark-side count `name`.
    pub fn count_total(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Totals for layer `name`.
    pub fn layer_total(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Counter increments made inside ops since tracing started.
    pub fn op_counters(&self) -> BTreeMap<String, u64> {
        let mut out = read_counts();
        for (name, v) in out.iter_mut() {
            *v -= self.start_counts.get(name).copied().unwrap_or(0)
                + self.excluded.get(name).copied().unwrap_or(0);
        }
        out
    }

    /// Share of op wall time that no layer span covers.
    pub fn unattributed_ratio(&self) -> f64 {
        if self.op_ns == 0 {
            return 0.0;
        }
        1.0 - self.covered_ns as f64 / self.op_ns as f64
    }

    /// The span log as JSONL: one object per span, times in nanoseconds
    /// from the start of tracing.
    pub fn log_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.log {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            let _ = writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
