//! In-memory spans recorded around calls into the layers, from outside the
//! program: a timing [`Policy`] wrapper, a timing [`ArrivalSource`] wrapper,
//! and a counting [`TraceSink`]. Each layer's span totals and call counts
//! are kept together; the first few spans of each layer are kept verbatim
//! and written out at the end of the run.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use hcq_common::{Nanos, TupleId};
use hcq_core::{Policy, QueueView, Selection, UnitId, UnitStatics};
use hcq_engine::{TraceEvent, TraceSink};
use hcq_streams::{ArrivalSource, SourceFaultStats};

/// Spans kept verbatim per layer.
const SAMPLE: usize = 64;

/// One recorded span: a layer call between two instants of the run clock,
/// and the layer whose span encloses it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Count and total duration of one layer's spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub calls: u64,
    pub ns: u64,
}

impl Tally {
    pub fn ns_per_call(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

/// Span totals per layer plus a verbatim sample.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    tallies: BTreeMap<&'static str, Tally>,
    sample: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            tallies: BTreeMap::new(),
            sample: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        layer: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let ns = end.duration_since(start).as_nanos() as u64;
        let tally = self.tallies.entry(layer).or_default();
        tally.calls += 1;
        tally.ns += ns;
        if tally.calls <= SAMPLE as u64 {
            self.sample.push(Span {
                layer,
                parent,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            });
        }
    }

    pub fn tally(&self, layer: &str) -> Tally {
        self.tallies.get(layer).copied().unwrap_or_default()
    }

    /// Add another log's totals and sample (runs are recorded one log each).
    pub fn absorb(&mut self, other: &SpanLog) {
        for (layer, t) in &other.tallies {
            let mine = self.tallies.entry(layer).or_default();
            mine.calls += t.calls;
            mine.ns += t.ns;
        }
        for s in &other.sample {
            if self.sample.iter().filter(|m| m.layer == s.layer).count() < SAMPLE {
                self.sample.push(*s);
            }
        }
    }

    /// Per layer: calls, total and self time (total minus the spans of
    /// layers whose parent it is), then the sampled spans.
    pub fn json(&self) -> String {
        let mut s = String::from("{\"layers\": {");
        for (i, (layer, t)) in self.tallies.iter().enumerate() {
            let children: u64 = self
                .sample
                .iter()
                .filter(|sp| sp.parent == *layer)
                .map(|sp| sp.layer)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .map(|c| self.tally(c).ns)
                .sum();
            let _ = write!(
                s,
                "{}{layer:?}: {{\"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                if i > 0 { ", " } else { "" },
                t.calls,
                t.ns,
                t.ns.saturating_sub(children)
            );
        }
        s.push_str("}, \"spans\": [");
        for (i, sp) in self.sample.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"layer\": {:?}, \"parent\": {:?}, \"start_ns\": {}, \"end_ns\": {}}}",
                if i > 0 { ", " } else { "" },
                sp.layer,
                sp.parent,
                sp.start_ns,
                sp.end_ns
            );
        }
        s.push_str("]}");
        s
    }
}

pub type SharedLog = Rc<RefCell<SpanLog>>;

/// Time `f` as one span of `layer` inside the simulator run.
fn timed<R>(log: &SharedLog, layer: &'static str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    log.borrow_mut().record(layer, "engine.run", start, end);
    r
}

/// The non-empty set size the policy saw at the latest scheduling point,
/// summed over sheds: `exec::shed_victim` scans that set on every shed.
#[derive(Debug, Default, Clone, Copy)]
pub struct NonemptyAtShed {
    last: usize,
    pub sum: u64,
    pub sheds: u64,
}

impl NonemptyAtShed {
    /// Mean non-empty set size at a shed; 0 without sheds.
    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.sheds.max(1) as f64
    }
}

/// A [`Policy`] that forwards every call to `inner`, times the ones made
/// during the run, and notes the non-empty set size at each shed.
pub struct TimedPolicy {
    pub inner: Box<dyn Policy>,
    pub log: SharedLog,
    pub nonempty: Rc<Cell<NonemptyAtShed>>,
}

impl Policy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// Not timed here: registration happens before the run starts, and
    /// `core.register.s` is measured on its own.
    fn on_register(&mut self, units: &[UnitStatics]) {
        self.inner.on_register(units)
    }

    fn on_enqueue(&mut self, unit: UnitId, tuple: TupleId, arrival: Nanos, now: Nanos) {
        timed(&self.log, "core.enqueue", || {
            self.inner.on_enqueue(unit, tuple, arrival, now)
        })
    }

    fn on_shed(&mut self, unit: UnitId, tuple: TupleId) {
        timed(&self.log, "core.shed", || self.inner.on_shed(unit, tuple));
        let mut n = self.nonempty.get();
        n.sum += n.last as u64;
        n.sheds += 1;
        self.nonempty.set(n);
    }

    fn on_statics_update(&mut self, unit: UnitId, statics: &UnitStatics) {
        self.inner.on_statics_update(unit, statics)
    }

    fn on_domain_refreeze(&mut self) -> bool {
        self.inner.on_domain_refreeze()
    }

    fn memory_footprint(&self) -> Option<usize> {
        self.inner.memory_footprint()
    }

    fn select(&mut self, queues: &dyn QueueView, now: Nanos) -> Option<Selection> {
        let picked = timed(&self.log, "core.select", || self.inner.select(queues, now));
        let mut n = self.nonempty.get();
        n.last = queues.nonempty().len();
        self.nonempty.set(n);
        picked
    }
}

/// An [`ArrivalSource`] that forwards every call to `inner` and times
/// `next_arrival`.
pub struct TimedSource {
    pub inner: Box<dyn ArrivalSource>,
    pub log: SharedLog,
}

impl ArrivalSource for TimedSource {
    fn next_arrival(&mut self) -> Option<Nanos> {
        timed(&self.log, "streams.next_arrival", || {
            self.inner.next_arrival()
        })
    }

    fn mean_gap_hint(&self) -> Option<Nanos> {
        self.inner.mean_gap_hint()
    }

    fn fault_stats(&self) -> SourceFaultStats {
        self.inner.fault_stats()
    }
}

/// Counts trace events by kind, and unit runs per unit.
#[derive(Debug, Default, Clone)]
pub struct CountingSink {
    pub events: u64,
    pub sched_points: u64,
    pub unit_runs: u64,
    pub emits: u64,
    pub sheds: u64,
    pub runs_per_unit: Vec<u64>,
}

impl TraceSink for CountingSink {
    fn event(&mut self, event: &TraceEvent) {
        self.events += 1;
        match *event {
            TraceEvent::SchedulingPoint { .. } => self.sched_points += 1,
            TraceEvent::UnitRun { unit, .. } => {
                self.unit_runs += 1;
                let u = unit as usize;
                if self.runs_per_unit.len() <= u {
                    self.runs_per_unit.resize(u + 1, 0);
                }
                self.runs_per_unit[u] += 1;
            }
            TraceEvent::Emit { .. } => self.emits += 1,
            TraceEvent::Shed { .. } => self.sheds += 1,
            _ => {}
        }
    }
}
