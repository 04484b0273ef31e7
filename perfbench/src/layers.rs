//! The traced run: per-layer costs and counts, and the cost ledger that
//! compares Σ(layer cost × layer count) with the measured wall time.
//!
//! Every workload reports every per-layer metric. Layers on the workload's
//! own executor are measured in place, around that executor's calls; the
//! layers of the other executors come from short reference passes over the
//! `unary` and `aqsios` inputs, so each metric is always a measurement.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use hcq_common::Nanos;
use hcq_engine::{NoTrace, SimModel, Simulator};
use hcq_plan::CompiledOpKind;
use hcq_streams::ArrivalSource;

use crate::aqsios::{self, AqInput};
use crate::probes;
use crate::report::{Fingerprint, Report};
use crate::runtime;
use crate::simulator::{self, SimWorkload, MEAN_GAP};
use crate::spans::{CountingSink, NonemptyAtShed, SharedLog, SpanLog, TimedPolicy, TimedSource};
use crate::stats::median;
use crate::Sizes;

/// The per-layer metrics every workload reports with `--trace 1`.
pub const PER_LAYER: [&str; 46] = [
    "core.select.ns",
    "core.select.calls",
    "core.enqueue.ns",
    "core.enqueue.calls",
    "core.shed.ns",
    "core.shed.calls",
    "core.evals_per_point",
    "core.register.s",
    "engine.self.share",
    "engine.queues.push.ns",
    "engine.queues.pop.ns",
    "engine.queues.shed_tail.ns",
    "engine.exec.unary_passes.ns",
    "engine.exec.shed_victim.ns",
    "engine.exec.pair_passes.ns",
    "engine.sched_points",
    "engine.pending.peak",
    "engine.model_build.s",
    "engine.shed_share",
    "streams.next_arrival.ns",
    "streams.next_arrival.calls",
    "join.insert_probe.ns",
    "join.matches_per_probe",
    "join.window_tuples",
    "metrics.qos_record.ns",
    "metrics.histogram_record.ns",
    "metrics.records",
    "trace.events",
    "trace.event.ns",
    "trace.overhead_share",
    "runtime.ring.push_pop.ns",
    "runtime.ring.handoff.ns",
    "runtime.selections",
    "runtime.stolen",
    "runtime.steal_share",
    "aqsios.push.ns",
    "aqsios.run_once.ns",
    "aqsios.decisions_per_record",
    "aqsios.pending.peak",
    "aqsios.generator_late.p99_us",
    "aqsios.response_p50_us",
    "aqsios.response_p99_us",
    "ledger.sim.residual_share",
    "ledger.rt.residual_share",
    "ledger.aq.residual_share",
    "timer.ns",
];

/// Fixed reps of the traced simulator pass per workload, so per-rep counts
/// repeat exactly for a seed.
fn layer_reps(wl: &SimWorkload) -> u64 {
    match wl.name {
        "largeq-shed" => 3,
        "join" => 6,
        _ => 10,
    }
}

/// Reference-pass sizes for the executors a workload does not run.
const REF_SIM_REPS: u64 = 3;
const RT_REPS: u64 = 5;
const REF_AQ_CLOSED: Duration = Duration::from_millis(300);
const REF_AQ_OPEN_S: f64 = 0.5;

/// Costs shared between the passes and the ledgers.
struct Costs {
    timer_ns: f64,
    qos_ns: f64,
    hist_ns: f64,
    ring_handoff_ns: f64,
}

/// Per-call costs measured on the simulator pass, reused by the runtime
/// ledger (the runtime's shards run the same policy on the same statics).
#[derive(Default, Clone, Copy)]
struct SimCosts {
    select_ns: f64,
    enqueue_ns: f64,
    push_ns: f64,
    pop_ns: f64,
    passes_ns: f64,
    passes_per_run: f64,
}

pub fn run(
    workload: &str,
    seed: u64,
    budget: Duration,
    sizes: Sizes,
    fp: &Fingerprint,
    report: &mut Report,
) -> SpanLog {
    let mut log = SpanLog::new();
    let (qos_ns, hist_ns) = probes::qos_record();
    let costs = Costs {
        timer_ns: probes::timer_ns(),
        qos_ns,
        hist_ns,
        ring_handoff_ns: probes::ring_handoff(),
    };
    report.metric("timer.ns", costs.timer_ns, "ns");
    report.metric("metrics.qos_record.ns", costs.qos_ns, "ns");
    report.metric("metrics.histogram_record.ns", costs.hist_ns, "ns");
    report.metric("runtime.ring.handoff.ns", costs.ring_handoff_ns, "ns");
    report.metric("runtime.ring.push_pop.ns", probes::ring_push_pop(), "ns");
    join_probe(seed, sizes, report);

    // The runtime always runs the `unary` input, priced with the policy
    // and queue costs the simulator pass measures on that same input. A
    // workload's own simulator pass runs last, so its layer metrics stand.
    let Some(unary) = ok(SimWorkload::unary(seed, sizes.unary_arrivals), report) else {
        return log;
    };
    let own_sim = match workload {
        "aqsios" | "unary" => None,
        _ => ok(crate::sim_workload(workload, seed, sizes), report),
    };
    let unary_reps = if workload == "unary" {
        layer_reps(&unary)
    } else {
        REF_SIM_REPS
    };
    let unary_costs = sim_pass(&unary, unary_reps, &costs, report, &mut log);
    rt_pass(&unary, fp.runtime_workers, unary_costs, &costs, report);
    if let Some(wl) = &own_sim {
        sim_pass(wl, layer_reps(wl), &costs, report, &mut log);
    }
    let (aq_open_s, aq_closed) = if workload == "aqsios" {
        (budget.as_secs_f64() * 0.4, budget.mul_f64(0.4))
    } else {
        (REF_AQ_OPEN_S, REF_AQ_CLOSED)
    };
    let input = AqInput::generate(seed, sizes.aq_closed_records, aq_open_s);
    aq_pass(&input, aq_closed, &costs, report, &mut log);
    log
}

pub fn ok<T>(r: hcq_common::Result<T>, report: &mut Report) -> Option<T> {
    r.map_err(|e| report.fail(format!("workload generation failed: {e}")))
        .ok()
}

/// The symmetric hash join fed the `join` population's windows, one join
/// per query, each over one rep's worth of arrivals.
fn join_probe(seed: u64, sizes: Sizes, report: &mut Report) {
    let Some(wl) = ok(
        SimWorkload::join(seed, sizes.join_queries, sizes.join_arrivals),
        report,
    ) else {
        return;
    };
    let windows: Vec<Nanos> =
        wl.w.plan
            .queries
            .iter()
            .filter_map(|q| {
                hcq_plan::CompiledQuery::compile(q)
                    .ops
                    .iter()
                    .find_map(|op| match op.kind {
                        CompiledOpKind::Join(j) => Some(j.window),
                        _ => None,
                    })
            })
            .collect();
    let j = probes::join(&windows, MEAN_GAP, wl.arrivals, seed);
    report.metric("join.insert_probe.ns", j.insert_probe_ns, "ns");
    report.metric("join.matches_per_probe", j.matches_per_probe, "count");
    report.metric("join.window_tuples", j.window_tuples, "count");
}

/// Wall times and counts summed over the traced simulator pass.
#[derive(Default)]
struct SimTotals {
    plain_ns: f64,
    wrapped_ns: f64,
    traced_ns: f64,
    sink: CountingSink,
    sched_points: u64,
    evals_per_point: f64,
    peak_pending: usize,
    shed: u64,
    fates: u64,
}

/// Three runs per rep seed: plain, wrapped (policy and sources timed), and
/// wrapped plus a counting trace sink. Decisions are identical in all
/// three, so the trace's counts price the wrapped run's wall time.
fn sim_pass(
    wl: &SimWorkload,
    reps: u64,
    costs: &Costs,
    report: &mut Report,
    log: &mut SpanLog,
) -> SimCosts {
    let shared: SharedLog = Rc::new(RefCell::new(SpanLog::new()));
    // Only the wrapped run's non-empty sizes are kept, like its spans.
    let nonempty = Rc::new(Cell::new(NonemptyAtShed::default()));
    let wrap = |rep: u64,
                nonempty: &Rc<Cell<NonemptyAtShed>>|
     -> (Vec<Box<dyn ArrivalSource>>, Box<dyn hcq_core::Policy>) {
        let sources = wl
            .sources(rep)
            .into_iter()
            .map(|s| {
                Box::new(TimedSource {
                    inner: s,
                    log: shared.clone(),
                }) as Box<dyn ArrivalSource>
            })
            .collect();
        let policy = Box::new(TimedPolicy {
            inner: wl.sched.build(),
            log: shared.clone(),
            nonempty: nonempty.clone(),
        });
        (sources, policy)
    };
    let mut t = SimTotals::default();
    for rep in 0..reps {
        let j = rep % wl.rep_seeds;
        let plain = wl.simulator(j, wl.sched.build());
        let (sources, policy) = wrap(j, &nonempty);
        let wrapped = Simulator::with_sink(
            &wl.w.plan,
            &wl.w.rates,
            sources,
            policy,
            wl.config(j),
            NoTrace,
        );
        let (sources, policy) = wrap(j, &Rc::default());
        let traced = Simulator::with_sink(
            &wl.w.plan,
            &wl.w.rates,
            sources,
            policy,
            wl.config(j),
            CountingSink::default(),
        );
        let (Ok(plain), Ok(wrapped), Ok(traced)) = (plain, wrapped, traced) else {
            report.fail(format!("{}: traced simulator set-up failed", wl.name));
            continue;
        };
        let start = Instant::now();
        let r_plain = plain.run();
        let plain_ns = start.elapsed().as_nanos() as f64;
        // Only the wrapped run's spans are priced by the ledger.
        let start = Instant::now();
        let r_wrapped = wrapped.run_with_sink().map(|(r, _)| r);
        let end = Instant::now();
        shared
            .borrow_mut()
            .record("engine.run", "bench", start, end);
        let wrapped_ns = end.duration_since(start).as_nanos() as f64;
        let mut traced_log = SpanLog::new();
        std::mem::swap(&mut traced_log, &mut shared.borrow_mut());
        let start = Instant::now();
        let r_traced = traced.run_with_sink();
        let traced_ns = start.elapsed().as_nanos() as f64;
        // Keep the traced run's spans out of the wrapped run's tallies.
        std::mem::swap(&mut traced_log, &mut shared.borrow_mut());
        let (Ok(a), Ok(b), Ok((c, sink))) = (r_plain, r_wrapped, r_traced) else {
            report.fail(format!("{}: traced simulator run failed", wl.name));
            continue;
        };
        simulator::check_conservation(wl, &a, report);
        report.check(
            a.qos.avg_slowdown.to_bits() == b.qos.avg_slowdown.to_bits()
                && b.qos.avg_slowdown.to_bits() == c.qos.avg_slowdown.to_bits()
                && a.emitted == c.emitted
                && a.sched_points == c.sched_points
                && sink.sched_points == c.sched_points,
            || {
                format!(
                    "{}: instrumentation changed the simulator's decisions",
                    wl.name
                )
            },
        );
        t.plain_ns += plain_ns;
        t.wrapped_ns += wrapped_ns;
        t.traced_ns += traced_ns;
        t.sched_points += a.sched_points;
        t.evals_per_point += a.evals_per_sched_point();
        t.peak_pending = t.peak_pending.max(a.peak_pending);
        t.shed += a.shed;
        t.fates += simulator::outcomes(&a) + a.pending_end as u64;
        t.sink.events += sink.events;
        t.sink.unit_runs += sink.unit_runs;
        t.sink.emits += sink.emits;
        t.sink.sheds += sink.sheds;
        if t.sink.runs_per_unit.len() < sink.runs_per_unit.len() {
            t.sink.runs_per_unit.resize(sink.runs_per_unit.len(), 0);
        }
        for (a, b) in t.sink.runs_per_unit.iter_mut().zip(&sink.runs_per_unit) {
            *a += b;
        }
    }
    let spans = shared.borrow();
    log.absorb(&spans);
    let n = reps.max(1) as f64;
    // A span holds one clock read besides the call it times; take it out.
    let cost = |layer: &str| {
        let t = spans.tally(layer);
        let ns = (t.ns as f64 - costs.timer_ns * t.calls as f64).max(0.0);
        (t.calls, ns, ns / t.calls.max(1) as f64)
    };
    let select = cost("core.select");
    let enqueue = cost("core.enqueue");
    let shed = cost("core.shed");
    let source = cost("streams.next_arrival");

    // Set-up pieces, timed apart.
    let (mut build_s, mut register_s) = (Vec::new(), Vec::new());
    let mut model: Option<SimModel> = None;
    for _ in 0..5 {
        let t0 = Instant::now();
        let m = SimModel::build(
            &wl.w.plan,
            &wl.w.rates,
            hcq_engine::SchedulingLevel::Query,
            hcq_core::SharingStrategy::Pdt,
        );
        build_s.push(t0.elapsed().as_secs_f64());
        let Ok(m) = m else {
            report.fail(format!("{}: model build failed", wl.name));
            return SimCosts::default();
        };
        let statics = m.unit_statics();
        let mut p = wl.sched.build();
        let t0 = Instant::now();
        p.on_register(&statics);
        register_s.push(t0.elapsed().as_secs_f64());
        model = Some(m);
    }
    let Some(model) = model else {
        return SimCosts::default();
    };
    let q = probes::queues(model.unit_count(), t.peak_pending);
    let passes_ns = probes::unary_passes(&model);
    let passes_per_run = probes::passes_per_run(&model);
    let pair_ns = probes::pair_passes();
    // Priced at the mean size of the set it scans at a shed.
    let victim_ns = probes::shed_victim(&model, nonempty.get().mean().round() as usize);

    report.metric("core.select.ns", select.2, "ns");
    report.metric("core.select.calls", select.0 as f64 / n, "count");
    report.metric("core.enqueue.ns", enqueue.2, "ns");
    report.metric("core.enqueue.calls", enqueue.0 as f64 / n, "count");
    report.metric("core.shed.ns", shed.2, "ns");
    report.metric("core.shed.calls", shed.0 as f64 / n, "count");
    report.metric("core.evals_per_point", t.evals_per_point / n, "count");
    report.metric("core.register.s", median(&register_s), "s");
    report.metric("engine.model_build.s", median(&build_s), "s");
    report.metric("engine.queues.push.ns", q.push_ns, "ns");
    report.metric("engine.queues.pop.ns", q.pop_ns, "ns");
    report.metric("engine.queues.shed_tail.ns", q.shed_tail_ns, "ns");
    report.metric("engine.exec.unary_passes.ns", passes_ns, "ns");
    report.metric("engine.exec.shed_victim.ns", victim_ns, "ns");
    report.metric("engine.exec.pair_passes.ns", pair_ns, "ns");
    report.metric("engine.sched_points", t.sched_points as f64 / n, "count");
    report.metric("engine.pending.peak", t.peak_pending as f64, "count");
    report.metric(
        "engine.shed_share",
        t.shed as f64 / t.fates.max(1) as f64,
        "ratio",
    );
    report.metric("streams.next_arrival.ns", source.2, "ns");
    report.metric("streams.next_arrival.calls", source.0 as f64 / n, "count");
    report.metric("metrics.records", t.sink.emits as f64 / n, "count");
    report.metric("trace.events", t.sink.events as f64 / n, "count");
    let trace_ns = t.traced_ns - t.wrapped_ns;
    report.metric(
        "trace.event.ns",
        trace_ns / t.sink.events.max(1) as f64,
        "ns",
    );
    report.metric(
        "trace.overhead_share",
        trace_ns / t.wrapped_ns.max(1.0),
        "ratio",
    );

    // The ledger prices the plain run: span costs net of the clock reads.
    let policy_ns = select.1 + enqueue.1 + shed.1;
    report.metric(
        "engine.self.share",
        (t.plain_ns - policy_ns - source.1) / t.plain_ns.max(1.0),
        "ratio",
    );
    println!(
        "{}: plain {:.3} s, wrapped {:.3} s, traced {:.3} s over {reps} reps; {:.0} non-empty units per shed",
        wl.name,
        t.plain_ns / 1e9,
        t.wrapped_ns / 1e9,
        t.traced_ns / 1e9,
        nonempty.get().mean()
    );
    let runs = t.sink.unit_runs as f64;
    let sheds = t.sink.sheds as f64;
    let join_runs: f64 = t
        .sink
        .runs_per_unit
        .iter()
        .enumerate()
        .map(|(u, &r)| r as f64 * join_reach(&model, u))
        .sum();
    let join_ns = report.get("join.insert_probe.ns").unwrap_or(0.0);
    let pairs = join_runs * report.get("join.matches_per_probe").unwrap_or(0.0);
    let items = [
        ("policy", policy_ns),
        ("source", source.1),
        (
            "queues",
            q.push_ns * (runs + sheds) + q.pop_ns * runs + q.shed_tail_ns * sheds,
        ),
        ("exec", passes_ns * runs * passes_per_run),
        ("shed_victim", victim_ns * sheds),
        ("join", join_ns * join_runs),
        ("join_pairs", pair_ns * pairs),
        (
            "metrics",
            (costs.qos_ns + costs.hist_ns) * t.sink.emits as f64,
        ),
    ];
    ledger(
        "ledger.sim.residual_share",
        wl.name,
        t.plain_ns,
        &items,
        report,
    );
    SimCosts {
        select_ns: select.2,
        enqueue_ns: enqueue.2,
        push_ns: q.push_ns,
        pop_ns: q.pop_ns,
        passes_ns,
        passes_per_run,
    }
}

/// Expected share of unit `u`'s runs that reach a window join: the
/// selectivity of the select its query applies before the join (each
/// §9.1.7 leaf has one). 0 for units of join-free queries.
fn join_reach(model: &SimModel, u: usize) -> f64 {
    let Some(hcq_engine::UnitDesc {
        kind: hcq_engine::UnitKind::Leaf { query, .. },
        ..
    }) = model.units.get(u)
    else {
        return 0.0;
    };
    let ops = &model.compiled[*query].ops;
    if !ops
        .iter()
        .any(|op| matches!(op.kind, CompiledOpKind::Join(_)))
    {
        return 0.0;
    }
    ops.iter()
        .find_map(|op| match op.kind {
            CompiledOpKind::Unary(spec) => Some(spec.selectivity),
            _ => None,
        })
        .unwrap_or(1.0)
}

/// Print the ledger lines and report its residual as `metric`.
fn ledger(
    metric: &'static str,
    executor: &str,
    wall_ns: f64,
    items: &[(&str, f64)],
    report: &mut Report,
) {
    let explained: f64 = items.iter().map(|(_, ns)| ns).sum();
    for (name, ns) in items {
        println!(
            "ledger {executor} {name:<16} {:>10.4} s {:>6.1}%",
            ns / 1e9,
            100.0 * ns / wall_ns.max(1.0)
        );
    }
    let residual = 1.0 - explained / wall_ns.max(1.0);
    println!(
        "ledger {executor} wall {:.4} s, explained {:.4} s, residual {:.1}%",
        wall_ns / 1e9,
        explained / 1e9,
        100.0 * residual
    );
    report.metric(metric, residual, "ratio");
}

/// Runtime reps on `wl`, priced with the costs `c` the simulator pass
/// measured on the same input.
fn rt_pass(wl: &SimWorkload, workers: usize, c: SimCosts, costs: &Costs, report: &mut Report) {
    let (mut wall_ns, mut selections, mut stolen, mut injected, mut emitted, mut fates) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for rep in 0..RT_REPS {
        let j = rep % wl.rep_seeds;
        let Some(r) = runtime::run_rep(wl, j, workers, report) else {
            continue;
        };
        if rep == 0 {
            runtime::check_differential(wl, j, &r, report);
        }
        wall_ns += r.wall_ns;
        selections += r.selections;
        stolen += r.stolen;
        injected += r.injected;
        emitted += r.emitted;
        fates += r.emitted + r.dropped + r.shed;
    }
    let n = RT_REPS as f64;
    report.metric("runtime.selections", selections as f64 / n, "count");
    report.metric("runtime.stolen", stolen as f64 / n, "count");
    report.metric(
        "runtime.steal_share",
        stolen as f64 / fates.max(1) as f64,
        "ratio",
    );
    let copies = injected as f64;
    let items = [
        (
            "policy",
            c.select_ns * selections as f64 + c.enqueue_ns * copies,
        ),
        ("ring", costs.ring_handoff_ns * copies),
        ("queues", (c.push_ns + c.pop_ns) * copies),
        ("exec", c.passes_ns * copies * c.passes_per_run),
        ("metrics", costs.qos_ns * emitted as f64),
    ];
    ledger(
        "ledger.rt.residual_share",
        "runtime",
        wall_ns as f64,
        &items,
        report,
    );
}

/// The aqsios layers: push and decision spans in the closed loop, backlog
/// and lateness in the open loop.
fn aq_pass(
    input: &AqInput,
    closed_budget: Duration,
    costs: &Costs,
    report: &mut Report,
    log: &mut SpanLog,
) {
    let closed = aqsios::closed_loop(input, closed_budget, true, report, &mut || {});
    let open = aqsios::open_loop(input, report);
    report.metric("aqsios.push.ns", closed.push_ns, "ns");
    report.metric("aqsios.run_once.ns", closed.run_once_ns, "ns");
    report.metric(
        "aqsios.decisions_per_record",
        closed.decisions as f64 / closed.pushed.max(1) as f64,
        "count",
    );
    report.metric("aqsios.pending.peak", open.pending_peak as f64, "count");
    report.metric(
        "aqsios.generator_late.p99_us",
        aqsios::quantile_us(&open.late_ns, 0.99),
        "us",
    );
    report.metric(
        "aqsios.response_p50_us",
        aqsios::quantile_us(&open.response_ns, 0.5),
        "us",
    );
    report.metric(
        "aqsios.response_p99_us",
        aqsios::quantile_us(&open.response_ns, 0.99),
        "us",
    );
    log.absorb(&closed.spans);
    let calls = (closed.pushed + closed.decisions) as f64;
    let items = [
        ("push", closed.push_ns * closed.pushed as f64),
        ("run_once", closed.run_once_ns * closed.decisions as f64),
        ("instrumentation", costs.timer_ns * calls),
    ];
    ledger(
        "ledger.aq.residual_share",
        "aqsios",
        closed.wall_s * 1e9,
        &items,
        report,
    );
}
