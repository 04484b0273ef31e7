//! Per-call costs of single layers, timed by calling their public functions
//! in tight loops at a workload's sizes. Each probe repeats its loop and
//! reports the median nanoseconds per call.

use std::hint::black_box;
use std::time::Instant;

use hcq_common::{det, Nanos, TupleId};
use hcq_engine::{exec, queues::UnitQueues, SimModel, SimTuple};
use hcq_join::{Side, SymmetricHashJoin};
use hcq_metrics::{QosAccumulator, SlowdownHistogram};
use hcq_plan::CompiledOpKind;
use hcq_runtime::ring::Ring;

use crate::stats::median;

/// Timed repetitions per probe.
const REPEATS: usize = 7;

/// Median over [`REPEATS`] of the per-call time of `calls` calls made by
/// `body` (which receives the repetition index).
fn per_call(calls: u64, mut body: impl FnMut(usize)) -> f64 {
    let mut xs = Vec::with_capacity(REPEATS);
    for rep in 0..REPEATS {
        let t = Instant::now();
        body(rep);
        xs.push(t.elapsed().as_nanos() as f64 / calls.max(1) as f64);
    }
    median(&xs)
}

fn tuple(i: u64) -> SimTuple {
    let t = Nanos::from_nanos(i * 1_000);
    SimTuple {
        id: TupleId::new(i),
        arrival: t,
        ts: t,
        key: det::unit_range(det::splitmix64(i), 1, 100),
        ideal_depart: t + Nanos::from_micros(50),
        lineage: TupleId::new(i),
    }
}

/// Cost of one `Instant::now()` read: the instrumentation's own price per
/// span edge.
pub fn timer_ns() -> f64 {
    const N: u64 = 200_000;
    per_call(N, |_| {
        for _ in 0..N {
            black_box(Instant::now());
        }
    })
}

/// `UnitQueues` costs at `units` queues holding `depth` tuples in total.
pub struct QueueCosts {
    pub push_ns: f64,
    pub pop_ns: f64,
    pub shed_tail_ns: f64,
}

pub fn queues(units: usize, depth: usize) -> QueueCosts {
    const N: usize = 50_000;
    let units = units.max(1);
    let mut q = UnitQueues::new(units);
    for i in 0..depth {
        q.push((i % units) as u32, tuple(i as u64));
    }
    let batch: Vec<(u32, SimTuple)> = (0..N as u64)
        .map(|i| {
            let u = det::unit_range(det::splitmix64(i), 0, units as u64 - 1) as u32;
            (u, tuple(i))
        })
        .collect();
    let (mut push, mut pop, mut shed) = (Vec::new(), Vec::new(), Vec::new());
    let per = |t: Instant| t.elapsed().as_nanos() as f64 / N as f64;
    // Push a batch, then take it back out, alternating the two ways a
    // tuple leaves a queue, so the depth returns to `depth` every time.
    for rep in 0..2 * REPEATS {
        let t = Instant::now();
        for &(u, tuple) in &batch {
            q.push(u, tuple);
        }
        push.push(per(t));
        let t = Instant::now();
        if rep % 2 == 0 {
            for &(u, _) in &batch {
                black_box(q.pop(u).ok());
            }
            pop.push(per(t));
        } else {
            for &(u, _) in batch.iter().rev() {
                black_box(q.shed_tail(u));
            }
            shed.push(per(t));
        }
    }
    QueueCosts {
        push_ns: median(&push),
        pop_ns: median(&pop),
        shed_tail_ns: median(&shed),
    }
}

/// Every unary operator of the model as `(query, op index, spec)`.
fn unary_ops(model: &SimModel) -> Vec<(usize, usize, hcq_plan::OperatorSpec)> {
    let mut ops = Vec::new();
    for (q, cq) in model.compiled.iter().enumerate() {
        for (i, op) in cq.ops.iter().enumerate() {
            if let CompiledOpKind::Unary(spec) = op.kind {
                ops.push((q, i, spec));
            }
        }
    }
    ops
}

/// One `exec::unary_passes` coin, cycling over the model's operators.
pub fn unary_passes(model: &SimModel) -> f64 {
    const N: u64 = 200_000;
    let ops = unary_ops(model);
    if ops.is_empty() {
        return 0.0;
    }
    per_call(N, |rep| {
        for i in 0..N {
            let (q, o, spec) = &ops[i as usize % ops.len()];
            let t = tuple(i + rep as u64 * N);
            black_box(exec::unary_passes(7, *q, *o, spec, spec.selectivity, &t));
        }
    })
}

/// One `exec::pair_passes` join-predicate coin for a candidate pair.
pub fn pair_passes() -> f64 {
    const N: u64 = 500_000;
    per_call(N, |rep| {
        for i in 0..N {
            let (a, b) = (tuple(i), tuple(i + 1 + rep as u64));
            black_box(exec::pair_passes(7, (i % 100) as usize, 1, 0.5, &a, &b));
        }
    })
}

/// Expected `unary_passes` calls per unit run: evaluation stops at the first
/// operator that drops the tuple.
pub fn passes_per_run(model: &SimModel) -> f64 {
    let ops = unary_ops(model);
    let mut total = 0.0;
    for cq in 0..model.compiled.len() {
        let mut reach = 1.0;
        for (_, _, spec) in ops.iter().filter(|(q, _, _)| *q == cq) {
            total += reach;
            reach *= spec.selectivity;
        }
    }
    total / model.compiled.len().max(1) as f64
}

/// One `exec::shed_victim` scan over `nonempty` non-empty units.
pub fn shed_victim(model: &SimModel, nonempty: usize) -> f64 {
    let prio: Vec<f64> = model
        .unit_statics()
        .iter()
        .map(|u| u.hnr_priority())
        .collect();
    let units = prio.len().max(1);
    let set: Vec<u32> = (0..nonempty.clamp(1, units) as u32).collect();
    let n = (2_000_000 / set.len() as u64).clamp(100, 200_000);
    per_call(n, |_| {
        for i in 0..n {
            let arriving = (i as usize % units) as u32;
            black_box(exec::shed_victim(&set, &prio, arriving));
        }
    })
}

/// `QosAccumulator::record_emission` and `SlowdownHistogram::record`.
pub fn qos_record() -> (f64, f64) {
    const N: u64 = 500_000;
    let mut acc = QosAccumulator::new();
    let qos = per_call(N, |_| {
        for i in 0..N {
            let a = Nanos::from_nanos(i * 1_000);
            acc.record_emission(
                a,
                a + Nanos::from_nanos(5_000 + (i % 97) * 300),
                Nanos::from_micros(3),
            );
        }
    });
    black_box(acc.summary());
    let mut h = SlowdownHistogram::new(2.0);
    let hist = per_call(N, |_| {
        for i in 0..N {
            h.record(1.0 + (i % 1_000) as f64 * 0.37);
        }
    });
    black_box(h.total());
    (qos, hist)
}

/// Symmetric hash join fed `arrivals` tuples alternating between two Poisson
/// streams with the given mean gap, one join per window: ns per
/// `insert_probe_into`, matches per probe, and live window tuples per probe.
pub struct JoinCosts {
    pub insert_probe_ns: f64,
    pub matches_per_probe: f64,
    pub window_tuples: f64,
}

pub fn join(windows: &[Nanos], mean_gap: Nanos, arrivals: u64, seed: u64) -> JoinCosts {
    let per_join = arrivals.max(2);
    let windows: Vec<Nanos> = if windows.is_empty() {
        vec![Nanos::from_secs(1)]
    } else {
        windows.to_vec()
    };
    let calls = per_join * windows.len() as u64;
    let mut matches = 0u64;
    let mut live = 0u64;
    let mut out = Vec::new();
    let ns = per_call(calls, |rep| {
        for (w, window) in windows.iter().enumerate() {
            let mut shj = SymmetricHashJoin::<SimTuple>::new(*window);
            let mut clock = [0u64; 2];
            for i in 0..per_join {
                let side = (i % 2) as usize;
                let h = det::mix3(seed, (rep * windows.len() + w) as u64, i);
                // Exponential gaps with the stream's mean.
                let u = det::unit_f64(h).max(1e-12);
                clock[side] += (-u.ln() * mean_gap.as_nanos() as f64) as u64;
                let mut t = tuple(i);
                t.arrival = Nanos::from_nanos(clock[side]);
                t.ts = t.arrival;
                let s = if side == 0 { Side::Left } else { Side::Right };
                shj.insert_probe_into(s, &t, &mut out);
                if rep == 0 {
                    matches += out.len() as u64;
                    live += (shj.left_len() + shj.right_len()) as u64;
                }
            }
            black_box(&shj);
        }
    });
    JoinCosts {
        insert_probe_ns: ns,
        matches_per_probe: matches as f64 / calls as f64,
        window_tuples: live as f64 / calls as f64,
    }
}

/// A ring item the size of the runtime's: unit, tuple, enqueue instant.
type Item = (u32, SimTuple, u64);

/// Uncontended `try_push` + `try_pop` pair on one thread.
pub fn ring_push_pop() -> f64 {
    const N: u64 = 500_000;
    let ring: Ring<Item> = Ring::new(1024);
    per_call(N, |_| {
        for i in 0..N {
            let _ = ring.try_push((i as u32, tuple(i), i));
            black_box(ring.try_pop());
        }
    })
}

/// One item handed from a producer thread to a consumer thread through a
/// ring, per item.
pub fn ring_handoff() -> f64 {
    const N: u64 = 200_000;
    let ring: Ring<Item> = Ring::new(1024);
    per_call(N, |_| {
        std::thread::scope(|s| {
            let r = &ring;
            s.spawn(move || {
                for i in 0..N {
                    let mut item = (i as u32, tuple(i), i);
                    while let Err(back) = r.try_push(item) {
                        item = back;
                        std::hint::spin_loop();
                    }
                }
            });
            let mut got = 0;
            while got < N {
                match ring.try_pop() {
                    Some(x) => {
                        black_box(x);
                        got += 1;
                    }
                    None => std::hint::spin_loop(),
                }
            }
        });
    })
}
