//! What one benchmark run reports: named metrics with units, the tally of
//! checked operations, and the host fingerprint results are keyed by.

use std::fmt::Write as _;

/// Metrics and correctness tallies of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Runs and operations whose outputs were checked.
    pub attempted: u64,
    /// Of those, the ones that errored or failed a check.
    pub failed: u64,
    /// One line per failure, printed before the result.
    pub failures: Vec<String>,
}

impl Report {
    /// Record a metric. A non-finite value is a failed check (JSON cannot
    /// carry it) and is reported as 0.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() {
            value
        } else {
            self.fail(format!("{name} is not finite"));
            0.0
        };
        match self.metrics.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.metrics.push((name, value, unit)),
        }
    }

    /// Count one checked operation; `ok == false` marks it failed and
    /// records `what()` as the reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Count `n` checked operations of which `bad` failed.
    pub fn check_many(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.failures.push(what());
        }
    }

    /// Record an operation that errored outright.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(why);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn metrics(&self) -> &[(&'static str, f64, &'static str)] {
        &self.metrics
    }

    /// Every output checked and none failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Share of checked operations that failed.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The one-line JSON result, restricted to the metrics in `names`.
    pub fn result_json(&self, names: &[&str]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for &(name, value, unit) in &self.metrics {
            if !names.contains(&name) {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Where a result was measured. Results are comparable only when every
/// field matches.
#[derive(Debug)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub runtime_workers: usize,
}

impl Fingerprint {
    pub fn of_host() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc,
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            runtime_workers: runtime_workers(nproc),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {:?}, \"rustc\": {:?}, \"profile\": {:?}, \"runtime_workers\": {}}}",
            self.nproc, self.cpu_model, self.rustc, self.profile, self.runtime_workers
        )
    }
}

/// Runtime worker threads: one core is left to the runtime's ingest thread,
/// so the run never has more busy threads than cores.
pub fn runtime_workers(nproc: usize) -> usize {
    nproc.saturating_sub(1).max(1)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_keeps_requested_metrics_in_order() {
        let mut r = Report::default();
        r.metric("a", 1.5, "s");
        r.metric("b", 2.0, "count");
        r.check(true, String::new);
        assert_eq!(
            r.result_json(&["b", "a"]),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.check(false, || "bad".into());
        r.metric("x", f64::NAN, "s");
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (3, 2));
        assert_eq!(r.get("x"), Some(0.0));
    }

    #[test]
    fn one_core_is_left_for_ingest() {
        assert_eq!(runtime_workers(1), 1);
        assert_eq!(runtime_workers(2), 1);
        assert_eq!(runtime_workers(8), 7);
    }
}
