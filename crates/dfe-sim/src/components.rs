//! Generic dataflow endpoints: [`Generator`] feeds a manager graph from
//! host data and [`Sink`] collects what reaches a stream, for tests and
//! examples.
//!
//! The paper's Fig. 9 STREAM design routes PolyMem's write-port input
//! through two MUXes and its output through a DEMUX, all steered by the
//! controller's `Mode`. No MUX or DEMUX kernel exists here: the STREAM
//! `Controller` computes the write-port input itself, with its `Mode` as
//! the select.

use crate::kernel::Kernel;
use crate::stream::StreamRef;

/// Emits one element of a preloaded sequence per cycle.
pub struct Generator<T: Copy> {
    name: String,
    data: Vec<T>,
    pos: usize,
    out: StreamRef<T>,
}

impl<T: Copy> Generator<T> {
    /// A generator over `data` writing into `out`.
    pub fn new(name: impl Into<String>, data: Vec<T>, out: StreamRef<T>) -> Self {
        Self {
            name: name.into(),
            data,
            pos: 0,
            out,
        }
    }

    /// Elements not yet emitted.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

impl<T: Copy> Kernel for Generator<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, _cycle: u64) {
        if self.pos < self.data.len() && self.out.borrow().can_push() {
            self.out.borrow_mut().push(self.data[self.pos]);
            self.pos += 1;
        }
    }

    fn is_idle(&self) -> bool {
        self.pos >= self.data.len()
    }

    fn next_event(&self) -> Option<u64> {
        // Done, or blocked on a full output: only an external pop can
        // unblock us, so there is no self-scheduled wake.
        if self.pos >= self.data.len() || !self.out.borrow().can_push() {
            None
        } else {
            Some(0)
        }
    }
}

/// Collects everything arriving on a stream.
pub struct Sink<T> {
    name: String,
    input: StreamRef<T>,
    collected: Vec<T>,
}

impl<T> Sink<T> {
    /// A sink draining `input`.
    pub fn new(name: impl Into<String>, input: StreamRef<T>) -> Self {
        Self {
            name: name.into(),
            input,
            collected: Vec::new(),
        }
    }

    /// Everything collected so far.
    pub fn collected(&self) -> &[T] {
        &self.collected
    }

    /// Take the collected elements out.
    pub fn take(&mut self) -> Vec<T> {
        std::mem::take(&mut self.collected)
    }
}

impl<T> Kernel for Sink<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, _cycle: u64) {
        if let Some(v) = self.input.borrow_mut().pop() {
            self.collected.push(v);
        }
    }

    fn is_idle(&self) -> bool {
        self.input.borrow().is_empty()
    }

    fn next_event(&self) -> Option<u64> {
        // Anything queued can be drained immediately; an empty input is a
        // pure wait on upstream.
        if self.input.borrow().is_empty() {
            None
        } else {
            Some(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Manager;
    use crate::stream::stream;
    use std::rc::Rc;

    #[test]
    fn generator_to_sink() {
        let s = stream::<u64>("s", 8);
        let mut m = Manager::new(100.0);
        m.add_kernel(Box::new(Generator::new(
            "gen",
            vec![1, 2, 3],
            Rc::clone(&s),
        )));
        let sink_stream = Rc::clone(&s);
        let mut sink = Sink::new("sink", sink_stream);
        for c in 0..10 {
            m.run_cycles(1);
            sink.tick(c);
        }
        assert_eq!(sink.collected(), &[1, 2, 3]);
        assert_eq!(sink.take(), vec![1, 2, 3]);
        assert!(sink.collected().is_empty());
    }

    #[test]
    fn generator_respects_backpressure() {
        let s = stream::<u64>("s", 2);
        let mut g = Generator::new("gen", vec![1, 2, 3, 4], Rc::clone(&s));
        for c in 0..10 {
            g.tick(c);
        }
        assert_eq!(s.borrow().len(), 2, "capacity-2 FIFO holds two");
        assert_eq!(g.remaining(), 2);
        s.borrow_mut().pop();
        g.tick(11);
        assert_eq!(g.remaining(), 1);
    }
}
