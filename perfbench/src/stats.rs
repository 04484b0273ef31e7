//! Small order statistics over measured samples.

use std::time::{Duration, Instant};

/// Median of `xs` (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile of an already sorted slice; 0 when empty.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Per-rep values of one quantity.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    /// The smallest sample; 0 when empty.
    pub fn min(&self) -> f64 {
        self.0.iter().copied().reduce(f64::min).unwrap_or(0.0)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Times a set-up while a longer loop runs: at most once per `every`, a
/// batch of back-to-back set-ups long enough (`BATCH`) that the clock and
/// one-off stalls do not set its time. The batch size is fixed by timing
/// one set-up after a warm-up one, so every batch does the same work.
pub struct SetupTimer<F: FnMut() -> Result<(), String>> {
    setup: F,
    every: Duration,
    per_batch: usize,
    last: Option<Instant>,
    /// Mean seconds per set-up of each batch.
    pub samples: Samples,
    pub errors: Vec<String>,
}

/// The shortest batch a [`SetupTimer`] times.
const BATCH: Duration = Duration::from_millis(10);

impl<F: FnMut() -> Result<(), String>> SetupTimer<F> {
    pub fn new(every: Duration, setup: F) -> Self {
        SetupTimer {
            setup,
            every,
            per_batch: 0,
            last: None,
            samples: Samples::default(),
            errors: Vec::new(),
        }
    }

    /// Time one batch now.
    pub fn sample(&mut self) {
        if self.per_batch == 0 {
            let mut one = Duration::ZERO;
            for _ in 0..2 {
                let t = Instant::now();
                if let Err(e) = (self.setup)() {
                    self.errors.push(e);
                    self.per_batch = 1;
                    return;
                }
                one = t.elapsed();
            }
            let n = BATCH.as_nanos() / one.as_nanos().max(1) + 1;
            self.per_batch = n.min(10_000) as usize;
        }
        let t = Instant::now();
        for _ in 0..self.per_batch {
            if let Err(e) = (self.setup)() {
                self.errors.push(e);
                return;
            }
        }
        self.samples
            .push(t.elapsed().as_secs_f64() / self.per_batch as f64);
        self.last = Some(Instant::now());
    }

    /// Time a batch if `every` has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= self.every) {
            self.sample();
        }
    }
}

/// The calibration kernel's time at the reference speed: its fastest run on
/// a 2-core Intel Xeon guest at that host's faster clock level.
pub const REFERENCE_KERNEL: Duration = Duration::from_micros(120);

/// Entries of the kernel's table: 512 KiB, so it reaches past the L1 cache
/// as the simulators do.
const KERNEL_TABLE: usize = 1 << 16;

/// The host's speed, from a fixed calibration kernel that shares no code
/// with the program and is timed between reps. A virtual CPU on a shared
/// host changes speed in steps of up to 1.5x that last minutes, and every
/// timing in the run moves with it; the kernel moves by the same factor.
pub struct HostSpeed {
    table: Vec<u64>,
    state: u64,
    /// The kernel's fastest run so far.
    pub fastest: Duration,
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed {
            table: vec![0; KERNEL_TABLE],
            state: 0x9E37_79B9_7F4A_7C15,
            fastest: Duration::MAX,
        }
    }

    /// Time the kernel a few times: random read-modify-writes over the
    /// table with a data-dependent branch.
    pub fn sample(&mut self) {
        for _ in 0..4 {
            let t = Instant::now();
            let mut acc = 0u64;
            for _ in 0..20_000 {
                self.state ^= self.state << 13;
                self.state ^= self.state >> 7;
                self.state ^= self.state << 17;
                let k = self.state as usize % KERNEL_TABLE;
                self.table[k] = self.table[k].wrapping_add(self.state);
                if self.table[k] & 1 == 0 {
                    acc ^= self.table[(k * 7) % KERNEL_TABLE];
                }
            }
            std::hint::black_box(acc);
            self.fastest = self.fastest.min(t.elapsed());
        }
    }

    /// Reference seconds per measured second: below 1 when the host ran
    /// slower than the reference speed.
    pub fn factor(&self) -> f64 {
        REFERENCE_KERNEL.as_secs_f64() / self.fastest.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
        let f = Samples((1..=10).rev().map(f64::from).collect());
        assert_eq!(f.min(), 1.0);
        assert_eq!(Samples::default().min(), 0.0);
    }

    #[test]
    fn setup_timer_batches_at_most_once_per_period() {
        let mut calls = 0u64;
        let mut p = SetupTimer::new(Duration::from_secs(3600), || {
            calls += 1;
            Ok(())
        });
        p.tick();
        p.tick();
        p.sample();
        let per_batch = p.per_batch as u64;
        drop(p);
        assert!(per_batch > 1, "a no-op set-up needs many per batch");
        // Two calibration calls, then two batches.
        assert_eq!(calls, 2 + 2 * per_batch);
    }

    #[test]
    fn host_speed_scales_by_the_fastest_kernel_run() {
        let mut h = HostSpeed::new();
        h.sample();
        assert!(h.fastest < Duration::MAX);
        h.fastest = REFERENCE_KERNEL * 2;
        assert_eq!(h.factor(), 0.5);
    }

    #[test]
    fn setup_timer_keeps_errors() {
        let mut p = SetupTimer::new(Duration::ZERO, || Err("boom".to_string()));
        p.tick();
        p.tick();
        assert!(p.samples.0.is_empty());
        assert_eq!(p.errors.len(), 2);
    }
}
