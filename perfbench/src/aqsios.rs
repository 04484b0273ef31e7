//! The `aqsios` workload: the embeddable DSMS (`hcq_aqsios::Dsms` on its
//! wall clock) running 32 select+project queries with real predicates over
//! generated records, driven closed-loop for saturation throughput and
//! open-loop at a fixed rate for latency.

use std::time::{Duration, Instant};

use hcq_aqsios::{
    Clock, Cmp, Dsms, DsmsConfig, Emission, ManualClock, Predicate, Record, RtOp, RtPlan,
    RuntimePolicy,
};
use hcq_common::{det, Nanos, StreamId};

use crate::report::Report;
use crate::spans::SpanLog;
use crate::stats::{quantile_sorted, Samples};

/// Registered queries.
pub const QUERIES: usize = 32;
/// Open-loop arrival rate, records per second: about a sixth of the
/// closed-loop saturation rate on a 2 GHz core.
pub const RATE: f64 = 20_000.0;
/// Records pushed per closed-loop batch before draining.
pub const BATCH: usize = 64;
/// Closed-loop batches per throughput sample.
pub const BATCHES_PER_BLOCK: usize = 16;
/// Declared cost of every query's select. A decision that drops its tuple
/// ran the select alone, whichever query it served, so the replay knows its
/// cost without knowing the query.
pub const SELECT_COST: Nanos = Nanos(250);
/// The replay's maximum slowdown is the median over windows of this many
/// due seconds.
pub const WINDOW_S: f64 = 0.5;
/// After the last due time, how long the open loop may take to finish the
/// work already pushed before what is left counts as failed. At saturation
/// the DSMS clears the backlog a stall of a few hundred ms leaves well
/// within it; a backlog that needs longer has been growing.
pub const DRAIN_LIMIT: Duration = Duration::from_millis(500);
/// Field values are uniform in `[0, FIELD_RANGE)`.
const FIELD_RANGE: u64 = 1_000;
/// Fields per record: the sequence number, then three attributes.
const ARITY: usize = 4;

fn stream() -> StreamId {
    StreamId::new(0)
}

/// One query as the benchmark itself understands it, so the oracle does not
/// rely on the DSMS's own operators: σ then π.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// The select's `(field, cmp, value)`.
    pub filter: (usize, Cmp, i64),
    /// Projected fields; field 0 (the sequence number) always first.
    pub keep: Vec<usize>,
    /// Declared cost of the project.
    pub project_cost: Nanos,
}

/// The fixed query population: a cycle of comparison operators over the
/// three attributes, and four cost classes set by the project's cost.
pub fn queries() -> Vec<QuerySpec> {
    const CMPS: [Cmp; 6] = [Cmp::Lt, Cmp::Ge, Cmp::Le, Cmp::Gt, Cmp::Ne, Cmp::Lt];
    (0..QUERIES)
        .map(|q| {
            let h = det::splitmix64(0xAE50 + q as u64);
            QuerySpec {
                filter: (
                    1 + q % 3,
                    CMPS[q % CMPS.len()],
                    det::unit_range(h, 100, 900) as i64,
                ),
                keep: vec![0, 1 + (q + 2) % 3],
                project_cost: Nanos::from_nanos(250 + 500 * (q % 4) as u64),
            }
        })
        .collect()
}

fn cmp_holds(v: i64, cmp: Cmp, c: i64) -> bool {
    match cmp {
        Cmp::Lt => v < c,
        Cmp::Le => v <= c,
        Cmp::Gt => v > c,
        Cmp::Ge => v >= c,
        Cmp::Eq => v == c,
        Cmp::Ne => v != c,
    }
}

impl QuerySpec {
    /// The oracle: whether this query emits a record with `fields`.
    pub fn passes(&self, fields: &[i64]) -> bool {
        let (f, cmp, c) = self.filter;
        cmp_holds(fields[f], cmp, c)
    }

    /// The ideal processing time `T`: every operator's declared cost, which
    /// is also what a decision that emits for this query ran.
    pub fn ideal(&self) -> Nanos {
        SELECT_COST + self.project_cost
    }

    fn plan(&self) -> RtPlan {
        let (f, cmp, c) = self.filter;
        RtPlan::single(
            stream(),
            vec![
                RtOp::select(Predicate::new(f, cmp, c), SELECT_COST, 0.5),
                RtOp::project(self.keep.clone(), self.project_cost),
            ],
        )
    }
}

/// Generated inputs of one run.
pub struct AqInput {
    pub queries: Vec<QuerySpec>,
    /// Closed-loop records, cycled.
    pub closed: Records,
    /// Open-loop records.
    pub open: Records,
    /// When each open-loop record is due, ns after the start: Poisson
    /// arrivals at [`RATE`].
    pub due_ns: Vec<u64>,
}

/// Generated records, stored flat: record `i` is `fields[i * ARITY..]`,
/// its field 0 the sequence number `i`, its attributes uniform from the
/// seed.
pub struct Records {
    fields: Vec<i64>,
}

impl Records {
    fn generate(seed: u64, n: usize) -> Self {
        let mut fields = Vec::with_capacity(n * ARITY);
        for seq in 0..n {
            fields.push(seq as i64);
            for f in 1..ARITY {
                let h = det::mix3(seed, seq as u64, f as u64);
                fields.push(det::unit_range(h, 0, FIELD_RANGE - 1) as i64);
            }
        }
        Records { fields }
    }

    pub fn len(&self) -> usize {
        self.fields.len() / ARITY
    }

    pub fn get(&self, i: usize) -> Option<&[i64]> {
        self.fields.get(i * ARITY..(i + 1) * ARITY)
    }

    fn record(&self, i: usize) -> Record {
        Record::new(self.fields[i * ARITY..(i + 1) * ARITY].to_vec())
    }
}

impl AqInput {
    pub fn generate(seed: u64, closed: usize, open_seconds: f64) -> Self {
        let open = (RATE * open_seconds).ceil() as usize;
        AqInput {
            queries: queries(),
            closed: Records::generate(seed, closed),
            open: Records::generate(det::mix2(seed, 0x0FE), open),
            due_ns: (0..open as u64)
                .scan(0.0f64, |t, i| {
                    let u = det::unit_f64(det::mix3(seed, 0xD0E, i)).max(1e-12);
                    *t += -u.ln() * 1e9 / RATE;
                    Some(*t as u64)
                })
                .collect(),
        }
    }
}

/// A DSMS with every query registered.
pub fn register(queries: &[QuerySpec], cfg: DsmsConfig) -> Result<Dsms, String> {
    let mut dsms = Dsms::new(cfg).map_err(|e| e.to_string())?;
    for q in queries {
        dsms.register(q.plan()).map_err(|e| e.to_string())?;
    }
    Ok(dsms)
}

/// HNR on the wall clock.
fn wall_clock() -> DsmsConfig {
    DsmsConfig::new(RuntimePolicy::Hnr)
}

/// One set-up: `records` records generated and every query registered.
/// The record count is fixed per workload, not scaled with the run length.
pub fn setup_once(seed: u64, records: usize) -> Result<(), String> {
    let records = Records::generate(seed, records);
    let dsms = register(&queries(), wall_clock())
        .map_err(|e| format!("aqsios: registration failed: {e}"))?;
    std::hint::black_box((records, dsms));
    Ok(())
}

/// Checks emissions against the oracle: per-query counts and projected
/// values.
pub struct Oracle<'a> {
    queries: &'a [QuerySpec],
    emitted: Vec<u64>,
    expected: Vec<u64>,
    wrong: u64,
}

impl<'a> Oracle<'a> {
    pub fn new(queries: &'a [QuerySpec]) -> Self {
        Oracle {
            queries,
            emitted: vec![0; queries.len()],
            expected: vec![0; queries.len()],
            wrong: 0,
        }
    }

    /// A record was pushed: every query that should emit it owes one
    /// emission.
    pub fn pushed(&mut self, fields: &[i64]) {
        for (q, spec) in self.queries.iter().enumerate() {
            if spec.passes(fields) {
                self.expected[q] += 1;
            }
        }
    }

    /// An emission came back for a record from `source`.
    pub fn emitted(&mut self, e: &Emission, source: &Records) {
        let q = e.query.index();
        self.emitted[q] += 1;
        let spec = &self.queries[q];
        let fields = e.record.fields();
        let ok = fields
            .first()
            .and_then(|&seq| usize::try_from(seq).ok().and_then(|i| source.get(i)))
            .is_some_and(|r| {
                spec.passes(r)
                    && fields.len() == spec.keep.len()
                    && spec.keep.iter().zip(fields).all(|(&f, &v)| r[f] == v)
            });
        if !ok {
            self.wrong += 1;
        }
    }

    pub fn verdict(&self, phase: &str, report: &mut Report) {
        let total: u64 = self.expected.iter().sum();
        report.check(self.emitted == self.expected && self.wrong == 0, || {
            format!(
                "aqsios {phase}: emissions disagree with the oracle ({} of {total} expected, {} wrong)",
                self.emitted.iter().sum::<u64>(),
                self.wrong
            )
        });
    }
}

pub struct ClosedRun {
    /// Outcomes of one pass through the records over the sum of each
    /// block's fastest time: a block of the same records repeats identical
    /// work, so its slower times measured the host's other tenants.
    pub outcomes_per_s: f64,
    pub pushed: u64,
    pub decisions: u64,
    pub push_ns: f64,
    pub run_once_ns: f64,
    /// Time inside the timed blocks.
    pub wall_s: f64,
    /// `aqsios.push` and `aqsios.run_once` spans (when asked for).
    pub spans: SpanLog,
}

/// Closed loop: push a batch, drain it, repeat until `budget` has passed
/// and every block of records has run at least once.
/// `spans` times every `push` and `run_once` call separately; `between`
/// runs after every block, outside the timed region.
pub fn closed_loop(
    input: &AqInput,
    budget: Duration,
    spans: bool,
    report: &mut Report,
    between: &mut dyn FnMut(),
) -> ClosedRun {
    let mut run = ClosedRun {
        outcomes_per_s: 0.0,
        pushed: 0,
        decisions: 0,
        push_ns: 0.0,
        run_once_ns: 0.0,
        wall_s: 0.0,
        spans: SpanLog::new(),
    };
    let mut dsms = match register(&input.queries, wall_clock()) {
        Ok(d) => d,
        Err(e) => {
            report.fail(format!("aqsios: registration failed: {e}"));
            return run;
        }
    };
    let mut oracle = Oracle::new(&input.queries);
    let n = input.closed.len();
    let slots = (n / (BATCH * BATCHES_PER_BLOCK)).max(1);
    let mut fastest = vec![f64::INFINITY; slots];
    let mut pass_outcomes = 0u64;
    let start = Instant::now();
    let (mut next, mut blocks) = (0usize, 0usize);
    let mut out_block: Vec<Emission> = Vec::new();
    while blocks < slots || start.elapsed() < budget {
        between();
        let first = next;
        let before = dsms.stats();
        let block = Instant::now();
        for _ in 0..BATCHES_PER_BLOCK {
            for _ in 0..BATCH {
                let record = input.closed.record(next % n);
                if spans {
                    let t = Instant::now();
                    dsms.push(stream(), record);
                    run.spans
                        .record("aqsios.push", "aqsios.closed_loop", t, Instant::now());
                } else {
                    dsms.push(stream(), record);
                }
                next += 1;
            }
            loop {
                let t = spans.then(Instant::now);
                let Some(out) = dsms.run_once() else {
                    break;
                };
                if let Some(t) = t {
                    run.spans
                        .record("aqsios.run_once", "aqsios.closed_loop", t, Instant::now());
                }
                out_block.extend(out);
            }
        }
        let wall = block.elapsed().as_secs_f64();
        run.wall_s += wall;
        for i in first..next {
            oracle.pushed(input.closed.get(i % n).expect("cycled index in range"));
        }
        for e in out_block.drain(..) {
            oracle.emitted(&e, &input.closed);
        }
        let after = dsms.stats();
        let outcomes = (after.emitted + after.dropped + after.shed)
            - (before.emitted + before.dropped + before.shed);
        if blocks < slots {
            pass_outcomes += outcomes;
        }
        let slot = &mut fastest[blocks % slots];
        *slot = slot.min(wall);
        blocks += 1;
    }
    run.outcomes_per_s = pass_outcomes as f64 / fastest.iter().sum::<f64>();
    let stats = dsms.stats();
    report.check(
        stats.emitted + stats.dropped == stats.pushed * QUERIES as u64 && stats.shed == 0,
        || {
            format!(
                "aqsios closed loop: conservation broken: {} pushed x {QUERIES} vs {} emitted + {} dropped",
                stats.pushed, stats.emitted, stats.dropped
            )
        },
    );
    oracle.verdict("closed loop", report);
    run.pushed = stats.pushed;
    run.decisions = stats.decisions;
    run.push_ns = run.spans.tally("aqsios.push").ns_per_call();
    run.run_once_ns = run.spans.tally("aqsios.run_once").ns_per_call();
    run
}

pub struct OpenRun {
    /// Response from due time, ns, over every emission.
    pub response_ns: Vec<u64>,
    /// How late the generator pushed each record, ns.
    pub late_ns: Vec<u64>,
    pub pushed: u64,
    pub pending_peak: usize,
    pub unfinished: u64,
    /// From the last due time until nothing was pending, ns.
    pub drain_ns: u64,
}

/// Open loop: each record is pushed as soon as the benchmark thread sees it
/// due, whatever the DSMS backlog, and the backlog is drained after the last
/// one. Responses are timed from the due time, drained ones included.
pub fn open_loop(input: &AqInput, report: &mut Report) -> OpenRun {
    let mut run = OpenRun {
        response_ns: Vec::new(),
        late_ns: Vec::with_capacity(input.open.len()),
        pushed: 0,
        pending_peak: 0,
        unfinished: 0,
        drain_ns: 0,
    };
    let mut dsms = match register(&input.queries, wall_clock()) {
        Ok(d) => d,
        Err(e) => {
            report.fail(format!("aqsios: registration failed: {e}"));
            return run;
        }
    };
    let n = input.open.len();
    let mut oracle = Oracle::new(&input.queries);
    let last_due = input.due_ns.last().copied().unwrap_or(0);
    let end = Duration::from_nanos(last_due) + DRAIN_LIMIT;
    let start = Instant::now();
    let mut next = 0usize;
    loop {
        let now = start.elapsed();
        let now_ns = now.as_nanos() as u64;
        while next < n && input.due_ns[next] <= now_ns {
            dsms.push(stream(), input.open.record(next));
            run.late_ns.push(now_ns - input.due_ns[next]);
            next += 1;
        }
        run.pending_peak = run.pending_peak.max(dsms.pending());
        if now >= end || (next == n && dsms.pending() == 0) {
            break;
        }
        match dsms.run_once() {
            Some(out) => {
                let seen = start.elapsed().as_nanos() as u64;
                for e in &out {
                    oracle.emitted(e, &input.open);
                    let seq = e.record.fields()[0] as usize;
                    run.response_ns.push(seen.saturating_sub(input.due_ns[seq]));
                }
            }
            None => std::hint::spin_loop(),
        }
    }
    run.pushed = next as u64;
    run.drain_ns = (start.elapsed().as_nanos() as u64).saturating_sub(last_due);
    for i in 0..next {
        oracle.pushed(input.open.get(i).expect("pushed index in range"));
    }
    run.unfinished = dsms.pending() as u64;
    report.check_many(run.pushed * QUERIES as u64, run.unfinished, || {
        format!(
            "aqsios open loop: {} tuple copies still pending {DRAIN_LIMIT:?} after the last due time",
            run.unfinished
        )
    });
    if run.unfinished == 0 {
        oracle.verdict("open loop", report);
    }
    run.response_ns.sort_unstable();
    run.late_ns.sort_unstable();
    run
}

pub struct ReplayRun {
    /// Definition 2 over every emission.
    pub slowdown_mean: f64,
    /// Root mean square slowdown over every emission.
    pub slowdown_rms: f64,
    /// Per-window maximum slowdown (Definition 3).
    pub slowdown_max: Samples,
}

/// The open-loop schedule replayed on a manual clock: records are pushed at
/// their due times, each decision costs the declared cost of the operators
/// it ran (the select alone when it drops its tuple, `T` when it emits),
/// and slowdown is response from due time over the query's `T`. The same
/// seed gives the same decisions and the same QoS on any host. The DSMS's
/// own QoS cannot serve here: it times an emission at the start of its
/// decision, before the cost is charged, and from the push, not the due
/// time.
pub fn replay(input: &AqInput, report: &mut Report) -> ReplayRun {
    let mut run = ReplayRun {
        slowdown_mean: 0.0,
        slowdown_rms: 0.0,
        slowdown_max: Samples::default(),
    };
    let clock = ManualClock::new();
    let cfg = DsmsConfig::new(RuntimePolicy::Hnr).with_clock(Box::new(clock.clone()));
    let mut dsms = match register(&input.queries, cfg) {
        Ok(d) => d,
        Err(e) => {
            report.fail(format!("aqsios: registration failed: {e}"));
            return run;
        }
    };
    let n = input.open.len();
    let due = &input.due_ns;
    let window_of = |i: usize| (due[i] as f64 / (WINDOW_S * 1e9)) as usize;
    let mut window_max = vec![0.0f64; n.checked_sub(1).map_or(0, window_of) + 1];
    let (mut count, mut sum, mut sq) = (0u64, 0.0, 0.0);
    let mut oracle = Oracle::new(&input.queries);
    let mut next = 0usize;
    loop {
        while next < n && due[next] <= clock.now().as_nanos() {
            oracle.pushed(input.open.get(next).expect("index in range"));
            dsms.push(stream(), input.open.record(next));
            next += 1;
        }
        let Some(out) = dsms.run_once() else {
            if next == n {
                break;
            }
            clock.set(Nanos::from_nanos(due[next]));
            continue;
        };
        if out.is_empty() {
            clock.advance(SELECT_COST);
        }
        for e in &out {
            // The emission is timed once its operators' cost is charged,
            // so its response is at least `T`.
            let spec = &input.queries[e.query.index()];
            clock.advance(spec.ideal());
            let done = clock.now().as_nanos();
            oracle.emitted(e, &input.open);
            let seq = e.record.fields()[0] as usize;
            let slowdown = done.saturating_sub(due[seq]) as f64 / spec.ideal().as_nanos() as f64;
            count += 1;
            sum += slowdown;
            sq += slowdown * slowdown;
            let w = &mut window_max[window_of(seq)];
            *w = w.max(slowdown);
        }
    }
    oracle.verdict("replay", report);
    let n = count.max(1) as f64;
    run.slowdown_mean = sum / n;
    run.slowdown_rms = (sq / n).sqrt();
    run.slowdown_max = Samples(window_max);
    run
}

/// `q`-quantile of sorted nanoseconds, in microseconds.
pub fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    quantile_sorted(sorted_ns, q) as f64 / 1e3
}
