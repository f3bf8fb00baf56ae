//! Time-series sampling of the simulated machine.
//!
//! Used for Fig. 1 (energy over a workload's lifetime) and Fig. 5 (P-state
//! residency sampled every interval while EIST is on).

use crate::dvfs::PState;
use crate::energy::{RaplReading, Rounds};

/// One sample point.
#[derive(Debug, Clone, Copy)]
pub struct TimelineSample {
    /// Simulated time of the sample (seconds).
    pub t_s: f64,
    /// Operating point at the sample.
    pub pstate: PState,
    /// Non-idle fraction of the window ending at this sample.
    pub utilization: f64,
    /// Cumulative energy at the sample.
    pub rapl: RaplReading,
}

/// Fixed-interval sampler driven by the CPU's internal clock.
#[derive(Debug, Clone)]
pub struct TimelineSampler {
    /// Sampling interval in simulated seconds.
    pub interval_s: f64,
    next_t: f64,
    window_active_s: f64,
    /// Collected samples.
    pub samples: Vec<TimelineSample>,
}

impl TimelineSampler {
    /// Sampler that fires every `interval_s`, starting at `now`.
    pub fn new(interval_s: f64, now: f64) -> Self {
        assert!(interval_s > 0.0, "sampling interval must be positive");
        TimelineSampler {
            interval_s,
            next_t: now + interval_s,
            window_active_s: 0.0,
            samples: Vec::new(),
        }
    }

    /// Record `dt` seconds of wall time, `active` of which were non-idle,
    /// emitting samples for every boundary crossed.
    pub(crate) fn advance(
        &mut self,
        now: f64,
        dt: f64,
        active: bool,
        pstate: PState,
        rapl: RaplReading,
    ) {
        if active {
            self.credit_active(dt);
        }
        while now >= self.next_tick() {
            let util = (self.window_active_s / self.interval_s).clamp(0.0, 1.0);
            self.samples.push(TimelineSample {
                t_s: self.next_t,
                pstate,
                utilization: util,
                rapl,
            });
            self.window_active_s = 0.0;
            self.next_t += self.interval_s;
        }
    }

    /// The earliest clock value at which [`TimelineSampler::advance`] emits
    /// a sample: below it, an advance only credits active time.
    pub(crate) fn next_tick(&self) -> f64 {
        self.next_t - 1e-12
    }

    /// Credit `dt` seconds of non-idle time to the current window — all an
    /// active [`TimelineSampler::advance`] does while the clock stays below
    /// [`TimelineSampler::next_tick`].
    #[inline]
    pub(crate) fn credit_active(&mut self, dt: f64) {
        self.window_active_s += dt;
    }

    /// `k` calls of [`TimelineSampler::credit_active`] with the same `dt`,
    /// through `sum`'s closed form.
    #[inline]
    pub(crate) fn credit_active_run(&mut self, dt: f64, k: u64, sum: &mut Rounds) {
        sum.add(&mut self.window_active_s, [dt], k);
    }

    /// Fraction of samples at the given P-state (Fig. 5's x-axis quantity).
    pub fn residency(&self, ps: PState) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let n = self.samples.iter().filter(|s| s.pstate == ps).count();
        n as f64 / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_fire_on_interval_boundaries() {
        let mut s = TimelineSampler::new(0.1, 0.0);
        s.advance(0.05, 0.05, true, PState::P36, RaplReading::default());
        assert!(s.samples.is_empty());
        s.advance(0.25, 0.20, true, PState::P36, RaplReading::default());
        assert_eq!(s.samples.len(), 2);
        assert!((s.samples[0].t_s - 0.1).abs() < 1e-12);
        assert!((s.samples[1].t_s - 0.2).abs() < 1e-12);
    }

    #[test]
    fn residency_counts_pstates() {
        let mut s = TimelineSampler::new(0.1, 0.0);
        s.advance(0.1, 0.1, true, PState::P36, RaplReading::default());
        s.advance(0.2, 0.1, true, PState::P36, RaplReading::default());
        s.advance(0.3, 0.1, false, PState::P12, RaplReading::default());
        assert!((s.residency(PState::P36) - 2.0 / 3.0).abs() < 1e-12);
    }
}
