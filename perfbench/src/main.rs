//! The repository benchmark.
//!
//! ```text
//! hcq-perfbench --workload <unary|largeq-shed|join|aqsios>
//!               --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--tiny]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! instrumentation in the measured loop; with `--trace 1` it instead runs
//! the traced passes that yield the per-layer metrics and the cost ledger.
//! Either way it checks every output, prints human-readable lines, and
//! ends with one JSON line: `correct`, `attempted`, `failed`, `metrics`.
//! It exits non-zero when any check failed. See `README.md` beside this
//! package for what each workload and metric is for.

mod aqsios;
mod layers;
mod probes;
mod report;
mod runtime;
mod simulator;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Fingerprint, Report};
use simulator::SimWorkload;
use stats::{HostSpeed, SetupTimer};

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "outcomes_per_s",
    "slowdown_mean",
    "slowdown_rms",
    "slowdown_max",
    "peak_rss_mib",
];

pub const WORKLOADS: [&str; 4] = ["unary", "largeq-shed", "join", "aqsios"];

/// Input sizes. `tiny` is the smoke-test scale.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub unary_arrivals: u64,
    pub largeq_queries: usize,
    pub largeq_arrivals: u64,
    pub join_queries: usize,
    pub join_arrivals: u64,
    pub aq_closed_records: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        unary_arrivals: 4_000,
        largeq_queries: 5_000,
        largeq_arrivals: 50,
        join_queries: 100,
        join_arrivals: 300,
        aq_closed_records: 1 << 16,
    };
    pub const TINY: Sizes = Sizes {
        unary_arrivals: 200,
        largeq_queries: 300,
        largeq_arrivals: 20,
        join_queries: 10,
        join_arrivals: 60,
        aq_closed_records: 1 << 10,
    };
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hcq-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let sizes = if args.tiny { Sizes::TINY } else { Sizes::FULL };
    let fingerprint = Fingerprint::of_host();
    println!("fingerprint {}", fingerprint.json());
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut report = Report::default();
    if args.trace {
        let spans = layers::run(
            &args.workload,
            args.seed,
            budget,
            sizes,
            &fingerprint,
            &mut report,
        );
        if let Some(dir) = &args.out {
            let path = dir.join(format!("{}-seed{}-spans.json", args.workload, args.seed));
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.json()))
            {
                eprintln!("hcq-perfbench: could not write {}: {e}", path.display());
            }
        }
    } else {
        end_to_end(
            &args.workload,
            args.seed,
            budget,
            sizes,
            &fingerprint,
            &mut report,
        );
    }
    for f in &report.failures {
        println!("FAILED {f}");
    }
    for &(name, value, unit) in report.metrics() {
        println!("{:<32} {value:>18.6} {unit}", name);
    }
    println!(
        "failed_share {} ({} of {} checked operations), wall {:.1} s",
        report.failed_share(),
        report.failed,
        report.attempted,
        started.elapsed().as_secs_f64()
    );
    let names: Vec<&str> = if args.trace {
        layers::PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let line = report.result_json(&names);
    if let Some(dir) = &args.out {
        if let Err(e) = write_result(dir, &args, &fingerprint, &line, &report) {
            eprintln!(
                "hcq-perfbench: could not write results to {}: {e}",
                dir.display()
            );
        }
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Keep one result file per run, with its fingerprint, for `compare.py`.
fn write_result(
    dir: &std::path::Path,
    args: &Args,
    fingerprint: &Fingerprint,
    line: &str,
    report: &Report,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    let all: Vec<&str> = report.metrics().iter().map(|m| m.0).collect();
    let body = format!(
        "{{\"workload\": {:?}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"fingerprint\": {}, \"result\": {}, \"all_metrics\": {}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        fingerprint.json(),
        line,
        report.result_json(&all)
    );
    std::fs::write(path, body)
}

fn sim_workload(name: &str, seed: u64, sizes: Sizes) -> hcq_common::Result<SimWorkload> {
    match name {
        "largeq-shed" => {
            SimWorkload::largeq_shed(seed, sizes.largeq_queries, sizes.largeq_arrivals)
        }
        "join" => SimWorkload::join(seed, sizes.join_queries, sizes.join_arrivals),
        _ => SimWorkload::unary(seed, sizes.unary_arrivals),
    }
}

/// How long the `unary` run drives the runtime after the simulator.
const RUNTIME_BUDGET: Duration = Duration::from_millis(1_500);
/// How often a batch of set-ups is timed while the measured loop runs.
const SETUP_EVERY: Duration = Duration::from_millis(100);

/// The untraced run: every end-to-end metric of one workload.
fn end_to_end(
    workload: &str,
    seed: u64,
    budget: Duration,
    sizes: Sizes,
    fp: &Fingerprint,
    report: &mut Report,
) {
    if workload == "aqsios" {
        let records = sizes.aq_closed_records;
        let mut setup = SetupTimer::new(SETUP_EVERY, || aqsios::setup_once(seed, records));
        let mut speed = HostSpeed::new();
        let input = aqsios::AqInput::generate(seed, records, budget.as_secs_f64() * 0.4);
        let closed = aqsios::closed_loop(&input, budget.mul_f64(0.45), false, report, &mut || {
            setup.tick();
            speed.sample();
        });
        let open = aqsios::open_loop(&input, report);
        let replay = aqsios::replay(&input, report);
        report_timings(&setup, &speed, closed.outcomes_per_s, report);
        report.metric("slowdown_mean", replay.slowdown_mean, "ratio");
        report.metric("slowdown_rms", replay.slowdown_rms, "ratio");
        report.metric("slowdown_max", replay.slowdown_max.median(), "ratio");
        let us = |sorted: &[u64], q| aqsios::quantile_us(sorted, q);
        report.metric("aq_response_p50_us", us(&open.response_ns, 0.5), "us");
        report.metric("aq_response_p99_us", us(&open.response_ns, 0.99), "us");
        report.metric("aq_generator_late_p99_us", us(&open.late_ns, 0.99), "us");
        report.metric("aq_drain_ms", open.drain_ns as f64 / 1e6, "ms");
        report.metric(
            "aq_response_samples",
            open.response_ns.len() as f64,
            "count",
        );
    } else {
        let make = || sim_workload(workload, seed, sizes);
        let mut setup = SetupTimer::new(SETUP_EVERY, || simulator::setup_once(make));
        let mut speed = HostSpeed::new();
        let Some(wl) = layers::ok(make(), report) else {
            return;
        };
        let run = simulator::measure(&wl, budget, report, &mut || {
            setup.tick();
            speed.sample();
        });
        report.metric("slowdown_mean", run.slowdown_mean, "ratio");
        report.metric("slowdown_rms", run.slowdown_rms, "ratio");
        report.metric("slowdown_max", run.slowdown_max.median(), "ratio");
        report.metric("sim_reps", run.reps as f64, "count");
        report.metric("shed_share", run.shed_share, "ratio");
        if workload == "unary" {
            // The same inputs on the wall-clock runtime: its throughput is
            // printed but not gated, because it moves by a fifth between
            // runs on a shared host; its emissions must match the
            // simulator's exactly.
            let rt = runtime::measure(&wl, fp.runtime_workers, RUNTIME_BUDGET, report, &mut || {
                setup.tick()
            });
            report.metric("rt_outcomes_per_s", rt.outcomes_per_s.median(), "1/s");
            report.metric("rt_reps", rt.reps as f64, "count");
        }
        report_timings(&setup, &speed, run.outcomes_per_s, report);
    }
    report.metric("peak_rss_mib", report::peak_rss_mib(), "MiB");
    report.metric("failed_share", report.failed_share(), "ratio");
}

/// The timed end-to-end metrics, at the reference speed: the fastest
/// batch's time per set-up (every batch does the same work, so the slower
/// ones measured the host's other tenants) and the executor's measured
/// throughput, each scaled by the host's speed during the run.
fn report_timings<F: FnMut() -> Result<(), String>>(
    setup: &SetupTimer<F>,
    speed: &HostSpeed,
    outcomes_per_s: f64,
    report: &mut Report,
) {
    for e in &setup.errors {
        report.fail(e.clone());
    }
    let wall_setup_s = setup.samples.min();
    report.metric("setup_s", wall_setup_s * speed.factor(), "s");
    report.metric("outcomes_per_s", outcomes_per_s / speed.factor(), "1/s");
    report.metric("wall_setup_s", wall_setup_s, "s");
    report.metric("wall_outcomes_per_s", outcomes_per_s, "1/s");
    report.metric("host_speed", speed.factor(), "ratio");
    report.metric("setup_batches", setup.samples.len() as f64, "count");
}
