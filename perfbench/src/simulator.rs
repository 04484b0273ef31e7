//! The three simulator workloads (`unary`, `largeq-shed`, `join`): a
//! generated arrival schedule replayed through `hcq_engine::Simulator` as
//! fast as the host allows.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use hcq_common::{det, Nanos, Result, TupleId};
use hcq_core::{
    ClusterConfig, ClusteredBsdPolicy, Policy, PolicyKind, QueueView, Selection, SharingStrategy,
    UnitId, UnitStatics,
};
use hcq_engine::{AdmissionMode, SchedulingLevel, SimConfig, SimModel, SimReport, Simulator};
use hcq_streams::{ArrivalSource, ConstantSource, PoissonSource};
use hcq_workload::{
    multi_stream, single_stream, MultiStreamConfig, PaperWorkload, SingleStreamConfig,
};

use crate::report::Report;
use crate::stats::Samples;

/// Mean inter-arrival gap of every generated stream.
pub const MEAN_GAP: Nanos = Nanos(10_000_000);

/// Which scheduler a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Sched {
    Kind(PolicyKind),
    /// Clustered BSD with logarithmic clustering over this many clusters.
    ClusteredBsd(usize),
}

impl Sched {
    pub fn build(self) -> Box<dyn Policy> {
        match self {
            Sched::Kind(k) => k.build(),
            Sched::ClusteredBsd(m) => {
                Box::new(ClusteredBsdPolicy::new(ClusterConfig::logarithmic(m)))
            }
        }
    }
}

/// One generated simulator input: the query population plus how each rep's
/// arrivals, coins and admission are configured.
pub struct SimWorkload {
    pub name: &'static str,
    pub w: PaperWorkload,
    /// Source arrivals per rep, summed over streams.
    pub arrivals: u64,
    pub sched: Sched,
    /// Fixed rep seeds, each run once for the QoS.
    pub rep_seeds: u64,
    /// The first this many rep seeds are then repeated for the timing.
    pub timed_seeds: u64,
    /// Policy calls per timed segment of a rep (see [`measure`]).
    pub segment: usize,
    /// `(capacity per unit, global watermark)` for QoS-aware shedding.
    pub shed: Option<(usize, usize)>,
    /// Evenly spaced arrivals instead of Poisson ones.
    pub even: bool,
    pub seed: u64,
}

/// The seed of rep `j` of a run seeded `seed`.
pub fn rep_seed(seed: u64, j: u64) -> u64 {
    det::mix2(seed, j + 1)
}

impl SimWorkload {
    /// §8 single-stream population: 60 queries, 5 cost classes, ρ = 0.9,
    /// Poisson arrivals, HNR.
    pub fn unary(seed: u64, arrivals: u64) -> Result<Self> {
        Ok(SimWorkload {
            name: "unary",
            w: single_stream(&SingleStreamConfig {
                queries: 60,
                cost_classes: 5,
                utilization: 0.9,
                mean_gap: MEAN_GAP,
                seed: 0xA1,
            })?,
            arrivals,
            sched: Sched::Kind(PolicyKind::Hnr),
            rep_seeds: 50,
            timed_seeds: 2,
            segment: 2048,
            shed: None,
            even: false,
            seed,
        })
    }

    /// 5 000 single-stream queries under clustered logarithmic BSD, offered
    /// above capacity with QoS-aware shedding armed.
    pub fn largeq_shed(seed: u64, queries: usize, arrivals: u64) -> Result<Self> {
        Ok(SimWorkload {
            name: "largeq-shed",
            w: single_stream(&SingleStreamConfig {
                queries,
                cost_classes: 5,
                utilization: 1.3,
                mean_gap: MEAN_GAP,
                seed: 0xB2,
            })?,
            arrivals,
            sched: Sched::ClusteredBsd(64),
            rep_seeds: 10,
            timed_seeds: 6,
            segment: 16,
            shed: Some((4, 2 * queries)),
            // At q = 5 000 a run affords only a few hundred arrivals; under
            // Poisson gaps their bursts set the shed share, and with it the
            // cost per outcome, differently for every seed.
            even: true,
            seed,
        })
    }

    /// §9.1.7 two-stream window join: σ ⋈_V σ → π, windows 1–10 s, HNR.
    pub fn join(seed: u64, queries: usize, arrivals: u64) -> Result<Self> {
        let mut cfg = MultiStreamConfig::paper(0.9, MEAN_GAP);
        cfg.queries = queries;
        cfg.seed = 0xC3;
        Ok(SimWorkload {
            name: "join",
            w: multi_stream(&cfg)?,
            arrivals,
            sched: Sched::Kind(PolicyKind::Hnr),
            rep_seeds: 40,
            timed_seeds: 1,
            segment: 256,
            shed: None,
            even: false,
            seed,
        })
    }

    pub fn queries(&self) -> usize {
        self.w.plan.queries.len()
    }

    /// One source per stream, seeded per rep.
    pub fn sources(&self, rep: u64) -> Vec<Box<dyn ArrivalSource>> {
        self.w
            .streams
            .iter()
            .map(|s| -> Box<dyn ArrivalSource> {
                if self.even {
                    Box::new(ConstantSource::new(MEAN_GAP))
                } else {
                    let seed = det::mix3(self.seed, rep, s.index() as u64);
                    Box::new(PoissonSource::new(MEAN_GAP, seed))
                }
            })
            .collect()
    }

    pub fn config(&self, rep: u64) -> SimConfig {
        let cfg = SimConfig::new(self.arrivals).with_seed(rep_seed(self.seed, rep));
        match self.shed {
            Some((capacity, watermark)) => cfg
                .with_admission(AdmissionMode::QosShed, capacity)
                .with_watermark(watermark),
            None => cfg,
        }
    }

    /// Compile the plan and register it with a fresh policy: the set-up a
    /// simulator pays before its first arrival.
    pub fn build_model(&self) -> Result<(SimModel, Box<dyn Policy>)> {
        let model = SimModel::build(
            &self.w.plan,
            &self.w.rates,
            SchedulingLevel::Query,
            SharingStrategy::Pdt,
        )?;
        let mut policy = self.sched.build();
        policy.on_register(&model.unit_statics());
        Ok((model, policy))
    }

    /// A ready-to-run simulator for rep `rep` with the given policy.
    pub fn simulator(&self, rep: u64, policy: Box<dyn Policy>) -> Result<Simulator> {
        Simulator::new(
            &self.w.plan,
            &self.w.rates,
            self.sources(rep),
            policy,
            self.config(rep),
        )
    }
}

/// Per-copy outcomes of a simulator run: every copy that reached a final
/// fate.
pub fn outcomes(r: &SimReport) -> u64 {
    r.emitted + r.dropped + r.shed + r.expired
}

/// The QoS and counters a repeated rep must reproduce exactly.
fn qos_bits(r: &SimReport) -> [u64; 8] {
    [
        r.qos.count,
        r.qos.avg_slowdown.to_bits(),
        r.qos.max_slowdown.to_bits(),
        r.qos.l2_slowdown.to_bits(),
        r.qos.avg_response_ms.to_bits(),
        r.emitted,
        r.dropped,
        r.shed,
    ]
}

/// Check the conservation identity of one run. Single-stream plans give
/// every admitted copy exactly one fate; join plans give every leaf copy
/// exactly one scheduling point, shed or pending slot.
pub fn check_conservation(wl: &SimWorkload, r: &SimReport, report: &mut Report) {
    let copies = r.arrivals * wl.queries() as u64;
    let (lhs, what) = if wl.w.streams.len() == 1 {
        (
            outcomes(r) + r.pending_end as u64,
            "emitted + dropped + shed + expired + pending",
        )
    } else {
        (
            r.sched_points + r.shed + r.expired + r.pending_end as u64,
            "leaf runs + shed + expired + pending",
        )
    };
    report.check(lhs == copies && r.arrivals == wl.arrivals, || {
        format!(
            "{}: conservation broken: {what} = {lhs}, arrivals x queries = {copies} ({} arrivals)",
            wl.name, r.arrivals
        )
    });
}

/// One set-up: population generation plus model compilation and policy
/// registration.
pub fn setup_once(make: impl Fn() -> Result<SimWorkload>) -> std::result::Result<(), String> {
    let built = make()
        .and_then(|wl| wl.build_model().map(|m| (wl, m)))
        .map_err(|e| format!("set-up failed: {e}"))?;
    std::hint::black_box(built);
    Ok(())
}

/// Forwards every call to `inner` and stamps the wall clock at every
/// `every`-th call of `on_enqueue`, `on_shed` or `select`, so a timed run
/// splits into short segments of identical work on every repeat of its rep
/// seed.
struct StampedPolicy {
    inner: Box<dyn Policy>,
    every: usize,
    calls: usize,
    stamps: Rc<RefCell<Vec<Instant>>>,
}

impl Policy for StampedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_register(&mut self, units: &[UnitStatics]) {
        self.inner.on_register(units)
    }

    fn on_enqueue(&mut self, unit: UnitId, tuple: TupleId, arrival: Nanos, now: Nanos) {
        self.tick();
        self.inner.on_enqueue(unit, tuple, arrival, now)
    }

    fn on_shed(&mut self, unit: UnitId, tuple: TupleId) {
        self.tick();
        self.inner.on_shed(unit, tuple)
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
        self.tick();
        self.inner.select(queues, now)
    }
}

impl StampedPolicy {
    fn tick(&mut self) {
        self.calls += 1;
        if self.calls == self.every {
            self.calls = 0;
            self.stamps.borrow_mut().push(Instant::now());
        }
    }
}

/// Seconds between consecutive boundaries: the run's start, each stamp, and
/// its end.
fn segments(start: Instant, stamps: &[Instant], end: Instant) -> Vec<f64> {
    let mut bounds = vec![start];
    bounds.extend_from_slice(stamps);
    bounds.push(end);
    bounds
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64())
        .collect()
}

/// What the untraced measurement of a simulator workload yields.
pub struct SimRun {
    /// Outcomes of one run of each timed rep seed over the sum of the
    /// fastest runs of their segments: a rep seed repeats identical work,
    /// so the slower runs of a segment measured the host's other tenants.
    pub outcomes_per_s: f64,
    /// Simulator runs timed.
    pub reps: u64,
    /// Definition 2 over every emission of one run of each rep seed.
    pub slowdown_mean: f64,
    /// Root mean square slowdown over those emissions.
    pub slowdown_rms: f64,
    /// Maximum slowdown (Definition 3) of each rep seed.
    pub slowdown_max: Samples,
    /// Shed copies over all copies of one run of each rep seed.
    pub shed_share: f64,
}

/// Run each of the [`SimWorkload::rep_seeds`] rep seeds once for the QoS,
/// then repeat the first [`SimWorkload::timed_seeds`] of them in turn until
/// `budget` has passed, timing `Simulator::run` only. A repeat does
/// identical work, which it checks by reproducing the first run's QoS bit
/// for bit. Each run is timed in segments of [`SimWorkload::segment`]
/// policy calls, and a timed rep seed's time is the sum of the fastest run of
/// each of its segments: the host's speed changes within a run, and a short
/// segment repeated many times catches a fast moment. `between` runs after
/// every rep, outside the timed region.
pub fn measure(
    wl: &SimWorkload,
    budget: Duration,
    report: &mut Report,
    between: &mut dyn FnMut(),
) -> SimRun {
    let mut run = SimRun {
        outcomes_per_s: 0.0,
        reps: 0,
        slowdown_mean: 0.0,
        slowdown_rms: 0.0,
        slowdown_max: Samples::default(),
        shed_share: 0.0,
    };
    let mut first: Vec<Option<[u64; 8]>> = vec![None; wl.rep_seeds as usize];
    let mut fastest: Vec<Vec<f64>> = vec![Vec::new(); wl.timed_seeds as usize];
    let stamps = Rc::new(RefCell::new(Vec::new()));
    let mut timed_outcomes = 0u64;
    let (mut count, mut sum, mut sq, mut shed, mut fates) = (0u64, 0.0, 0.0, 0u64, 0u64);
    let start = Instant::now();
    while run.reps < wl.rep_seeds || start.elapsed() < budget {
        let j = match run.reps.checked_sub(wl.rep_seeds) {
            None => run.reps,
            Some(k) => k % wl.timed_seeds,
        };
        between();
        let policy = Box::new(StampedPolicy {
            inner: wl.sched.build(),
            every: wl.segment,
            calls: 0,
            stamps: stamps.clone(),
        });
        let r = wl.simulator(j, policy).and_then(|sim| {
            stamps.borrow_mut().clear();
            let t = Instant::now();
            let r = sim.run();
            let end = Instant::now();
            r.map(|r| (r, segments(t, &stamps.borrow(), end)))
        });
        let (r, segs) = match r {
            Ok(r) => r,
            Err(e) => {
                report.fail(format!("{}: simulation failed: {e}", wl.name));
                return run;
            }
        };
        run.reps += 1;
        check_conservation(wl, &r, report);
        if let Some(best) = fastest.get_mut(j as usize) {
            if best.is_empty() {
                *best = segs;
            } else {
                report.check(best.len() == segs.len(), || {
                    format!(
                        "{}: rep seed {j} ran {} segments, not {}",
                        wl.name,
                        segs.len(),
                        best.len()
                    )
                });
                best.iter_mut().zip(segs).for_each(|(b, s)| *b = b.min(s));
            }
        }
        let bits = qos_bits(&r);
        match first[j as usize] {
            None => {
                first[j as usize] = Some(bits);
                if j < wl.timed_seeds {
                    timed_outcomes += outcomes(&r);
                }
                count += r.qos.count;
                sum += r.qos.avg_slowdown * r.qos.count as f64;
                sq += r.qos.l2_slowdown * r.qos.l2_slowdown;
                run.slowdown_max.push(r.qos.max_slowdown);
                shed += r.shed;
                fates += outcomes(&r) + r.pending_end as u64;
            }
            Some(want) => report.check(want == bits, || {
                format!(
                    "{}: rep seed {j} did not reproduce its QoS bit for bit",
                    wl.name
                )
            }),
        }
    }
    run.outcomes_per_s = timed_outcomes as f64 / fastest.iter().flatten().sum::<f64>();
    let n = count.max(1) as f64;
    run.slowdown_mean = sum / n;
    run.slowdown_rms = (sq / n).sqrt();
    run.shed_share = shed as f64 / fates.max(1) as f64;
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_cover_the_run_between_stamps() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let stamps = [at(1), at(2), at(4), at(7), at(11)];
        let ms = |v: Vec<f64>| {
            v.iter()
                .map(|s| (s * 1e3).round() as u64)
                .collect::<Vec<_>>()
        };
        assert_eq!(ms(segments(t0, &stamps, at(20))), [1, 1, 2, 3, 4, 9]);
        assert_eq!(ms(segments(t0, &[], at(20))), [20]);
    }
}
