//! Search budgets: wall-clock and sample-count limits.
//!
//! The paper's experiments match baselines either on runtime ("-1" variants)
//! or on the number of observed samples ("-2" variants); [`Budget`] expresses
//! both.

use std::time::{Duration, Instant};

/// A composite stop condition for searchers.
#[derive(Debug, Clone)]
pub struct Budget {
    started: Instant,
    max_wall: Option<Duration>,
    max_samples: Option<u64>,
    samples: u64,
}

impl Budget {
    /// A budget with no limits (searcher-internal stop rules apply).
    pub fn unlimited() -> Self {
        Self {
            started: Instant::now(),
            max_wall: None,
            max_samples: None,
            samples: 0,
        }
    }

    /// Limits wall-clock time.
    pub fn with_wall_clock(mut self, limit: Duration) -> Self {
        self.max_wall = Some(limit);
        self
    }

    /// Limits the number of samples.
    pub fn with_samples(mut self, limit: u64) -> Self {
        self.max_samples = Some(limit);
        self
    }

    /// Records `n` consumed samples.
    pub fn record_samples(&mut self, n: u64) {
        self.samples += n;
    }

    /// Samples left under the sample limit (`None` without one).
    pub fn remaining_samples(&self) -> Option<u64> {
        self.max_samples.map(|m| m.saturating_sub(self.samples))
    }

    /// Samples consumed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Real elapsed wall-clock.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// `true` once any limit is hit.
    pub fn exhausted(&self) -> bool {
        if let Some(w) = self.max_wall {
            if self.started.elapsed() >= w {
                return true;
            }
        }
        if let Some(s) = self.max_samples {
            if self.samples >= s {
                return true;
            }
        }
        false
    }
}

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let mut b = Budget::unlimited();
        b.record_samples(1_000_000);
        assert!(!b.exhausted());
        assert_eq!(b.remaining_samples(), None);
    }

    #[test]
    fn sample_limit_trips() {
        let mut b = Budget::unlimited().with_samples(10);
        b.record_samples(9);
        assert!(!b.exhausted());
        assert_eq!(b.remaining_samples(), Some(1));
        b.record_samples(1);
        assert!(b.exhausted());
    }

    #[test]
    fn wall_clock_limit_trips() {
        let b = Budget::unlimited().with_wall_clock(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.exhausted());
    }
}
