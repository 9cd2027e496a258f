//! The kernel abstraction: a node of the dataflow graph.
//!
//! A [`Kernel`] is ticked once per clock cycle by the [`crate::manager`].
//! Within a tick it may pop from input streams, compute, and push to output
//! streams, honouring FIFO backpressure. This mirrors MaxJ's model where a
//! kernel advances when its inputs are available and outputs have room.

/// A dataflow kernel.
pub trait Kernel {
    /// Kernel name (diagnostics).
    fn name(&self) -> &str;

    /// Advance one clock cycle. `cycle` is the global cycle number.
    fn tick(&mut self, cycle: u64);

    /// Whether this kernel has outstanding work (used by the manager's
    /// run-to-quiescence loop). Default: never idle (pure pipeline stages).
    fn is_idle(&self) -> bool {
        false
    }

    /// One-line detail of why the kernel is not idle, for stall diagnosis
    /// ([`crate::manager::Manager::diagnose_stall`]). Default: no detail.
    fn busy_reason(&self) -> Option<String> {
        None
    }

    /// The next cycle at which ticking this kernel could change state —
    /// the event-driven scheduler's fast-forward contract
    /// ([`crate::sched`]).
    ///
    /// * `Some(c)` with `c` less than or equal to the current cycle means
    ///   "tick me now" (the kernel can act this cycle).
    /// * `Some(c)` in the future is a **self-scheduled wake-up**: absent any
    ///   external input, ticking this kernel before cycle `c` is a no-op
    ///   (no state change). Reporting a wake *earlier* than necessary is
    ///   always safe (it degenerates toward per-cycle ticking); reporting
    ///   one *later* than the first cycle the kernel would act is a
    ///   correctness bug.
    /// * `None` means the kernel has no self-scheduled wake: it is either
    ///   idle or waiting purely on external input (another kernel pushing
    ///   to / popping from a shared stream). Since the scheduler only
    ///   fast-forwards when **no** kernel can act, nothing changes during a
    ///   skipped span, so `None` is safe for externally-blocked kernels.
    ///
    /// The default is maximally conservative — always "tick me now" — so
    /// any kernel that does not opt in keeps bit-identical per-cycle
    /// semantics under the event-driven scheduler.
    fn next_event(&self) -> Option<u64> {
        Some(0)
    }

    /// Observe a fast-forwarded span: the scheduler skipped cycles
    /// `from..to` (exclusive of `to`) because no kernel could act. Kernels
    /// that account per-cycle state (stall-attribution counters, pacing
    /// flags read by downstream kernels) reproduce here, in bulk, exactly
    /// what `to - from` no-op ticks would have recorded. Called in
    /// registration order, so upstream kernels (e.g. paced loaders setting
    /// a PCIe-wait flag) run before downstream ones that read their flags.
    /// Default: nothing to account.
    fn skip_to(&mut self, from: u64, to: u64) {
        let _ = (from, to);
    }
}

/// A simple function-backed kernel, convenient for tests and small designs.
pub struct FnKernel<F: FnMut(u64)> {
    name: String,
    f: F,
}

impl<F: FnMut(u64)> FnKernel<F> {
    /// Wrap a closure as a kernel.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        Self {
            name: name.into(),
            f,
        }
    }
}

impl<F: FnMut(u64)> Kernel for FnKernel<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: u64) {
        (self.f)(cycle);
    }
}

/// A fixed-latency pipeline register chain: values pushed in emerge exactly
/// `latency` ticks later. This is the building block used to model the
/// paper's 14-cycle PolyMem read latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayLine<T> {
    latency: u64,
    /// (ready_cycle, value) in insertion order; ready cycles are monotone.
    slots: std::collections::VecDeque<(u64, T)>,
}

impl<T> DelayLine<T> {
    /// A delay line of `latency` cycles.
    pub fn new(latency: u64) -> Self {
        Self {
            latency,
            slots: std::collections::VecDeque::new(),
        }
    }

    /// The configured latency.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Insert a value at `cycle`; it becomes available at `cycle + latency`.
    pub fn push(&mut self, cycle: u64, value: T) {
        self.slots.push_back((cycle + self.latency, value));
    }

    /// Pop the next value if it is ready at `cycle`.
    pub fn pop_ready(&mut self, cycle: u64) -> Option<T> {
        if let Some(&(ready, _)) = self.slots.front() {
            if ready <= cycle {
                return self.slots.pop_front().map(|(_, v)| v);
            }
        }
        None
    }

    /// Values currently in flight.
    pub fn in_flight(&self) -> usize {
        self.slots.len()
    }

    /// The cycle at which the oldest in-flight value becomes ready — the
    /// delay line's contribution to [`Kernel::next_event`]. `None` when
    /// drained.
    pub fn next_ready(&self) -> Option<u64> {
        self.slots.front().map(|&(ready, _)| ready)
    }

    /// The ready cycles of the in-flight values, oldest first.
    pub fn ready_cycles(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().map(|&(ready, _)| ready)
    }

    /// Take every in-flight value out, oldest first. Their ready cycles
    /// are dropped: [`Self::push`] a value back at the cycle it was issued
    /// to restore its ready cycle.
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.slots.drain(..).map(|(_, v)| v)
    }

    /// Whether the pipeline is drained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_kernel_ticks() {
        let mut count = 0u64;
        {
            let mut k = FnKernel::new("counter", |_| count += 1);
            assert_eq!(k.name(), "counter");
            for c in 0..5 {
                k.tick(c);
            }
            assert!(!k.is_idle());
        }
        assert_eq!(count, 5);
    }

    #[test]
    fn delay_line_exact_latency() {
        let mut d = DelayLine::new(14);
        d.push(0, "a");
        for c in 0..14 {
            assert!(d.pop_ready(c).is_none(), "cycle {c}");
        }
        assert_eq!(d.pop_ready(14), Some("a"));
    }

    #[test]
    fn delay_line_pipelining() {
        // One value per cycle in -> one per cycle out, shifted by latency.
        let mut d = DelayLine::new(3);
        let mut out = Vec::new();
        for c in 0..10u64 {
            if c < 5 {
                d.push(c, c);
            }
            if let Some(v) = d.pop_ready(c) {
                out.push((c, v));
            }
        }
        assert_eq!(out, vec![(3, 0), (4, 1), (5, 2), (6, 3), (7, 4)]);
        assert!(d.is_empty());
    }

    #[test]
    fn zero_latency_is_same_cycle() {
        let mut d = DelayLine::new(0);
        d.push(7, 99);
        assert_eq!(d.pop_ready(7), Some(99));
    }

    #[test]
    fn next_ready_tracks_oldest_slot() {
        let mut d = DelayLine::new(14);
        assert_eq!(d.next_ready(), None);
        d.push(3, "a");
        d.push(5, "b");
        assert_eq!(d.next_ready(), Some(17));
        let _ = d.pop_ready(17);
        assert_eq!(d.next_ready(), Some(19));
    }

    #[test]
    fn drain_and_push_back_restores_ready_cycles() {
        let mut d = DelayLine::new(4);
        d.push(3, "a");
        d.push(5, "b");
        assert_eq!(d.ready_cycles().collect::<Vec<_>>(), vec![7, 9]);
        let mut back = d.clone();
        assert_eq!(back.drain().collect::<Vec<_>>(), vec!["a", "b"]);
        assert!(back.is_empty());
        back.push(3, "a");
        back.push(5, "b");
        assert_eq!(back, d);
    }

    #[test]
    fn in_flight_count() {
        let mut d = DelayLine::new(5);
        d.push(0, 1);
        d.push(1, 2);
        assert_eq!(d.in_flight(), 2);
        let _ = d.pop_ready(5);
        assert_eq!(d.in_flight(), 1);
    }
}
