//! Host speed: a fixed reference kernel run between ops, whose times
//! scale the run's time metrics to a nominal host speed.
//!
//! The benchmark shares its host with other guests, whose load sets how
//! fast this VM's cores run: how often a core's sibling thread or memory
//! is busy, at what clock. That speed moves by 20% and more within minutes
//! and moves every workload with it. In ten interleaved 35-second runs of
//! each workload on a 2-vCPU VM, all three workloads' median ops got 15 to
//! 20% faster together between one run and the next, with at most 1.1 s
//! of steal in any of those runs. Over eight interleaved 12-second runs
//! per workload, the interquartile range over median of the median op
//! (already less steal) fell from 0.30 to 0.14 (`pipeline-20k`), 0.26 to
//! 0.09 (`stream-1m`) and 0.20 to 0.06 (`churn-4096`) once divided by
//! this kernel's time. References that chase pointers through 4 MiB or
//! stream 32 MiB tracked worse (0.25 to 0.37), because the memory
//! contention they saw moved far more than the workloads did.

use crate::stats::Samples;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iterations of the reference kernel, about 1 ms on the host the
/// benchmark was defined on.
const REF_ITERS: u64 = 150_000;
/// The reference kernel's time at nominal host speed, in nanoseconds:
/// 1 ms, near its lower-quartile time on the host the benchmark was
/// defined on. It only fixes the unit: scaled times read as if the
/// reference kernel took exactly this long.
const NOMINAL_NS: f64 = 1_000_000.0;
/// The kernel runs once each time this much wall time has passed, about
/// 1% of a run.
const PERIOD: Duration = Duration::from_millis(100);

/// One run of the reference kernel: a dependent floating-point division
/// chain beside an integer multiply chain, in registers only, so that no
/// cache or memory state the program leaves behind changes its speed and
/// no change to the program can.
fn reference_ns() -> u64 {
    let t0 = Instant::now();
    let (mut a, mut b) = (1.0f64, 0u64);
    for i in 0..black_box(REF_ITERS) {
        a = a * 1.000_001 + 0.5 / (1.0 + a);
        b = b.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    black_box((a, b));
    t0.elapsed().as_nanos() as u64
}

/// The reference kernel's times over a run.
pub struct HostSpeed {
    times: Samples,
    last: Instant,
}

impl HostSpeed {
    /// Starts with one reference run.
    pub fn new() -> Self {
        let mut s = HostSpeed {
            times: Samples::default(),
            last: Instant::now(),
        };
        s.sample();
        s
    }

    fn sample(&mut self) {
        self.times.push(reference_ns());
        self.last = Instant::now();
    }

    /// Runs the reference kernel if a period has passed since it last ran.
    /// Called between ops, never inside one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= PERIOD {
            self.sample();
        }
    }

    /// The reference kernel's typical time this run: the lower quartile of
    /// its times, since steal and interrupts only ever lengthen a sample.
    pub fn reference_ns(&mut self) -> f64 {
        self.times.lower_quartile()
    }

    /// Factor that takes a time measured this run to nominal host speed:
    /// below 1 on a host slower than nominal. Divide rates by it.
    pub fn time_scale(&mut self) -> f64 {
        NOMINAL_NS / self.reference_ns()
    }

    /// Reference runs so far.
    pub fn samples(&self) -> usize {
        self.times.len()
    }
}
