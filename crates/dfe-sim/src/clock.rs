//! Simulation clock: cycle counting and cycle ↔ wall-time conversion.

/// A clock domain with a fixed frequency, counting elapsed cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimClock {
    freq_mhz: f64,
    cycle: u64,
}

impl SimClock {
    /// A clock at `freq_mhz` megahertz, at cycle 0.
    pub fn new(freq_mhz: f64) -> Self {
        assert!(freq_mhz > 0.0, "clock frequency must be positive");
        Self { freq_mhz, cycle: 0 }
    }

    /// Clock frequency in MHz.
    #[inline]
    pub fn freq_mhz(&self) -> f64 {
        self.freq_mhz
    }

    /// Current cycle number.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advance one cycle.
    #[inline]
    pub fn tick(&mut self) {
        self.cycle += 1;
    }

    /// Advance `n` cycles.
    #[inline]
    pub fn advance(&mut self, n: u64) {
        self.cycle += n;
    }

    /// Nanoseconds per cycle.
    #[inline]
    pub fn period_ns(&self) -> f64 {
        1000.0 / self.freq_mhz
    }

    /// Elapsed wall time in nanoseconds.
    #[inline]
    pub fn elapsed_ns(&self) -> f64 {
        self.cycle as f64 * self.period_ns()
    }

    /// Convert a duration in nanoseconds to whole cycles (rounding up — a
    /// partial cycle still occupies the clock edge).
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns / self.period_ns()).ceil() as u64
    }

    /// Reset the cycle counter (e.g. between measurement stages).
    pub fn reset(&mut self) {
        self.cycle = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_and_elapsed() {
        let mut c = SimClock::new(120.0);
        assert!((c.period_ns() - 8.3333).abs() < 1e-3);
        c.advance(120);
        assert!((c.elapsed_ns() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn ns_to_cycles_rounds_up() {
        let c = SimClock::new(120.0); // 8.33 ns/cycle
        assert_eq!(c.ns_to_cycles(300.0), 36);
        assert_eq!(c.ns_to_cycles(8.34), 2);
        assert_eq!(c.ns_to_cycles(0.0), 0);
    }

    #[test]
    fn tick_and_reset() {
        let mut c = SimClock::new(100.0);
        c.tick();
        c.tick();
        assert_eq!(c.cycle(), 2);
        c.reset();
        assert_eq!(c.cycle(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        let _ = SimClock::new(0.0);
    }
}
