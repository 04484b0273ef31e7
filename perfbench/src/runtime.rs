//! The `unary` population and arrival reps run on `hcq_runtime`'s worker
//! threads instead of the simulator, checked against the simulator.

use std::time::{Duration, Instant};

use hcq_core::PolicyKind;
use hcq_runtime::differential::{runtime_aggregates, simulator_aggregates};
use hcq_runtime::{RuntimeConfig, RuntimeReport};

use crate::report::Report;
use crate::simulator::{rep_seed, SimWorkload};
use crate::stats::Samples;

/// Reps whose emission multiset is compared against the simulator's.
const DIFFERENTIAL_REPS: u64 = 5;

pub struct RtRun {
    pub outcomes_per_s: Samples,
    pub reps: u64,
}

fn config(wl: &SimWorkload, rep: u64, workers: usize) -> RuntimeConfig {
    RuntimeConfig::new(wl.arrivals)
        .with_seed(rep_seed(wl.seed, rep))
        .with_threads(workers)
}

/// One runtime rep, with its conservation check.
pub fn run_rep(
    wl: &SimWorkload,
    rep: u64,
    workers: usize,
    report: &mut Report,
) -> Option<RuntimeReport> {
    let r = match hcq_runtime::run(
        &wl.w.plan,
        &wl.w.rates,
        wl.sources(rep),
        PolicyKind::Hnr,
        &config(wl, rep, workers),
    ) {
        Ok(r) => r,
        Err(e) => {
            report.fail(format!("unary: runtime run failed: {e}"));
            return None;
        }
    };
    report.check(
        r.conserved() && r.shed == 0 && r.arrivals == wl.arrivals,
        || {
            format!(
                "unary: runtime conservation broken: injected {} vs emitted {} + dropped {} + shed {}",
                r.injected, r.emitted, r.dropped, r.shed
            )
        },
    );
    Some(r)
}

/// The runtime and the simulator must emit the same multiset on rep `rep`.
pub fn check_differential(wl: &SimWorkload, rep: u64, r: &RuntimeReport, report: &mut Report) {
    match simulator_aggregates(
        &wl.w.plan,
        &wl.w.rates,
        wl.sources(rep),
        PolicyKind::Hnr,
        &wl.config(rep),
    ) {
        Ok(sim) => report.check(sim == runtime_aggregates(r), || {
            format!("unary: runtime rep {rep} emission multiset differs from the simulator's")
        }),
        Err(e) => report.fail(format!(
            "unary: runtime differential simulator run failed: {e}"
        )),
    }
}

/// Run reps until `budget` has passed, timing each run by the runtime's own
/// run clock (worker start-up, ingest and execution; model compilation and
/// schedule generation excluded).
pub fn measure(
    wl: &SimWorkload,
    workers: usize,
    budget: Duration,
    report: &mut Report,
    between: &mut dyn FnMut(),
) -> RtRun {
    let mut run = RtRun {
        outcomes_per_s: Samples::default(),
        reps: 0,
    };
    let start = Instant::now();
    let mut i = 0u64;
    while i < DIFFERENTIAL_REPS || start.elapsed() < budget {
        let j = i % wl.rep_seeds;
        i += 1;
        between();
        let Some(r) = run_rep(wl, j, workers, report) else {
            continue;
        };
        if i <= DIFFERENTIAL_REPS {
            check_differential(wl, j, &r, report);
        }
        let outcomes = r.emitted + r.dropped + r.shed;
        run.outcomes_per_s
            .push(outcomes as f64 / (r.wall_ns as f64 / 1e9));
    }
    run.reps = i;
    run
}
