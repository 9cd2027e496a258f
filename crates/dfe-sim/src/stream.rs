//! Typed dataflow streams (the edges of a MaxJ kernel graph).
//!
//! A [`Fifo`] is a bounded queue with backpressure: producers check
//! [`Fifo::can_push`] (a full FIFO stalls the upstream kernel, exactly as
//! Maxeler's stream interconnect stalls a kernel whose output is not
//! drained). [`StreamRef`] is the shared handle kernels hold, and
//! [`stream_stats`] snapshots its health (throughput, stalls, depth) for
//! bottleneck hunting.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// What [`Fifo::push`] accepts: the element itself, or a value the
/// element's module converts into it (a write request whose lanes are a
/// `Vec<u64>`, see [`crate::polymem_kernel::LaneWord`]).
pub trait IntoItem<T> {
    /// The FIFO element this value becomes.
    fn into_item(self) -> T;
}

impl<T> IntoItem<T> for T {
    #[inline]
    fn into_item(self) -> T {
        self
    }
}

/// A bounded FIFO of `T` with occupancy statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fifo<T> {
    name: String,
    queue: VecDeque<T>,
    capacity: usize,
    /// Total elements ever pushed (for throughput accounting).
    pushed: u64,
    /// Total elements ever popped.
    popped: u64,
    /// Number of rejected pushes (backpressure events).
    stalls: u64,
}

impl<T> Fifo<T> {
    /// Create a FIFO with the given capacity.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "FIFO capacity must be positive");
        Self {
            name: name.into(),
            queue: VecDeque::with_capacity(capacity),
            capacity,
            pushed: 0,
            popped: 0,
            stalls: 0,
        }
    }

    /// Stream name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Elements currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the FIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether the FIFO is full.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots available before backpressure kicks in.
    pub fn free_slots(&self) -> usize {
        self.capacity - self.queue.len()
    }

    /// Whether a push would be accepted.
    pub fn can_push(&self) -> bool {
        !self.is_full()
    }

    /// Push one element; returns `false` (and records a stall) when full.
    pub fn push(&mut self, value: impl IntoItem<T>) -> bool {
        if self.is_full() {
            self.stalls += 1;
            return false;
        }
        self.queue.push_back(value.into_item());
        self.pushed += 1;
        true
    }

    /// Pop one element.
    pub fn pop(&mut self) -> Option<T> {
        let v = self.queue.pop_front();
        if v.is_some() {
            self.popped += 1;
        }
        v
    }

    /// Account `n` elements that went from producer to consumer without
    /// being queued (a lockstep window hands them over directly, see
    /// [`crate::PolyMemKernel::lockstep`]): the pushed and popped totals
    /// both grow by `n`, the queue and its stall count stay as they are.
    pub fn bypass(&mut self, n: u64) {
        self.pushed += n;
        self.popped += n;
    }

    /// Peek at the head element.
    pub fn peek(&self) -> Option<&T> {
        self.queue.front()
    }

    /// Total elements pushed over the FIFO's lifetime.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total elements popped.
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Backpressure events observed.
    pub fn stall_count(&self) -> u64 {
        self.stalls
    }
}

/// Shared stream handle: the simulator is single-threaded and deterministic,
/// so `Rc<RefCell<...>>` is the right tool (no atomics on the hot path).
pub type StreamRef<T> = Rc<RefCell<Fifo<T>>>;

/// Create a shared stream.
pub fn stream<T>(name: impl Into<String>, capacity: usize) -> StreamRef<T> {
    Rc::new(RefCell::new(Fifo::new(name, capacity)))
}

/// A point-in-time snapshot of one stream's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Elements pushed over the stream's lifetime.
    pub pushed: u64,
    /// Elements popped.
    pub popped: u64,
    /// Rejected pushes (backpressure events).
    pub stalls: u64,
    /// Current queue depth.
    pub depth: usize,
}

/// Snapshot a stream's counters.
pub fn stream_stats<T>(s: &StreamRef<T>) -> StreamStats {
    let f = s.borrow();
    StreamStats {
        pushed: f.total_pushed(),
        popped: f.total_popped(),
        stalls: f.stall_count(),
        depth: f.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut f = Fifo::new("s", 4);
        assert!(f.push(1));
        assert!(f.push(2));
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn backpressure() {
        let mut f = Fifo::new("s", 2);
        assert!(f.push(1));
        assert!(f.push(2));
        assert!(f.is_full());
        assert!(!f.push(3));
        assert_eq!(f.stall_count(), 1);
        f.pop();
        assert!(f.can_push());
        assert!(f.push(3));
    }

    #[test]
    fn counters() {
        let mut f = Fifo::new("s", 8);
        for i in 0..5 {
            f.push(i);
        }
        f.pop();
        f.pop();
        assert_eq!(f.total_pushed(), 5);
        assert_eq!(f.total_popped(), 2);
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn bypass_counts_without_queueing() {
        let mut f = Fifo::new("s", 2);
        f.push(1);
        f.bypass(5);
        assert_eq!((f.total_pushed(), f.total_popped()), (6, 5));
        assert_eq!((f.len(), f.stall_count()), (1, 0));
        assert_eq!(f.pop(), Some(1));
    }

    #[test]
    fn capacity_and_free_slots() {
        let mut f = Fifo::new("s", 3);
        assert_eq!(f.capacity(), 3);
        assert_eq!(f.free_slots(), 3);
        f.push(1);
        f.push(2);
        assert_eq!(f.free_slots(), 1);
        f.pop();
        assert_eq!(f.free_slots(), 2);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut f = Fifo::new("s", 2);
        f.push(42);
        assert_eq!(f.peek(), Some(&42));
        assert_eq!(f.len(), 1);
        assert_eq!(f.pop(), Some(42));
    }

    #[test]
    fn shared_handle() {
        let s = stream::<u64>("x", 4);
        s.borrow_mut().push(7);
        let t = Rc::clone(&s);
        assert_eq!(t.borrow_mut().pop(), Some(7));
    }

    #[test]
    fn stream_stats_snapshot() {
        let s = stream::<u64>("s", 2);
        s.borrow_mut().push(1);
        s.borrow_mut().push(2);
        s.borrow_mut().push(3); // stall
        s.borrow_mut().pop();
        let st = stream_stats(&s);
        assert_eq!(st.pushed, 2);
        assert_eq!(st.popped, 1);
        assert_eq!(st.stalls, 1);
        assert_eq!(st.depth, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = Fifo::<u8>::new("bad", 0);
    }
}
