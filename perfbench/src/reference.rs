//! The machine-speed reference: a fixed kernel, independent of every crate
//! under test, timed beside the passes.
//!
//! On the shared 2-vCPU virtual machine the benchmark was built on, the
//! same `stream-host` pass takes 1.2 ms in one phase and 2.1 ms in
//! another, and a phase can outlast a whole run: another tenant's load, not
//! the program, decides which. A run's median alone therefore moves with
//! the neighbours. So every timed pass is followed by one round of this
//! kernel, and the workloads report their times *at reference speed*:
//! `t × nominal / r`, where `r` is the median of the latest
//! [`WINDOW`] rounds and `nominal` is what a round takes in the fast phase
//! (the [`Reference::new`] argument). A change to the program moves `t`
//! and not `r`, so it shows in full; a phase of the machine moves both.
//!
//! The kernel mimics the host datapath's memory behaviour, which is what
//! the phases slow down most: STREAM Scale, Add and Triad over three
//! vectors stored bank-major in one flat array (element `k` of a vector in
//! bank `k % 8` at offset `k / 8`), each operand gathered at the bank
//! stride, computed and scattered back. It maps `[1, 2)` into itself, so
//! its values stay finite and normal however many rounds run. A dependent
//! arithmetic chain follows, which the phases barely slow: its length sets
//! how strongly a round responds to them, fitted per workload to how
//! strongly that workload's passes do.

use crate::harness::{median, ns_since};
use std::time::Instant;

/// Banks of the reference layout.
const BANKS: usize = 8;

/// Rounds the scale is the median of.
pub const WINDOW: usize = 5;

/// Weight of the first operand in the reference's Add and Triad.
const Q: f64 = 0.375;

/// The reference kernel's state and its latest round times.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Three `len`-element vectors, bank-major: vector `v`, element `k` at
    /// `(k % BANKS) * depth + v * len / BANKS + k / BANKS`.
    flat: Vec<f64>,
    depth: usize,
    len: usize,
    /// Steps of the arithmetic chain run after the memory kernel.
    chase: usize,
    x: Vec<f64>,
    y: Vec<f64>,
    out: Vec<f64>,
    /// Nominal round time, ns.
    nominal_ns: f64,
    /// The latest round times, ns (at most [`WINDOW`]).
    recent: Vec<f64>,
}

impl Reference {
    /// A reference over three `len`-element vectors (`len` a multiple of
    /// 8), plus `chase` chain steps, whose round takes `nominal_ns` at full
    /// speed.
    pub fn new(len: usize, chase: usize, nominal_ns: f64) -> Self {
        assert!(
            len.is_multiple_of(BANKS) && len > 0,
            "len {len} must be a positive multiple of {BANKS}"
        );
        let flat: Vec<f64> = (0..3 * len)
            .map(|k| 1.0 + (k % 1000) as f64 / 1000.0)
            .collect();
        Reference {
            depth: flat.len() / BANKS,
            flat,
            len,
            chase,
            x: vec![0.0; len],
            y: vec![0.0; len],
            out: vec![0.0; len],
            nominal_ns,
            recent: Vec::with_capacity(WINDOW),
        }
    }

    /// Run and time one round; returns its ns.
    pub fn round(&mut self) -> f64 {
        let t = Instant::now();
        self.stream();
        self.chase();
        let ns = ns_since(t);
        if self.recent.len() == WINDOW {
            self.recent.remove(0);
        }
        self.recent.push(ns);
        ns
    }

    /// `nominal / median of the latest rounds`: what a time measured now is
    /// multiplied by to read at reference speed. 1 before the first round.
    pub fn scale(&self) -> f64 {
        if self.recent.is_empty() {
            1.0
        } else {
            self.nominal_ns / median(&self.recent)
        }
    }

    /// Time `f` and return its result with its duration at reference speed,
    /// in seconds: a fresh window of [`WINDOW`] rounds follows it and sets
    /// the scale.
    pub fn timed<S>(&mut self, f: impl FnOnce() -> S) -> (S, f64) {
        let t = Instant::now();
        let s = f();
        let secs = t.elapsed().as_secs_f64();
        for _ in 0..WINDOW {
            self.round();
        }
        (s, secs * self.scale())
    }

    /// A dependent chain of `chase` multiply-xorshift steps: latency-bound
    /// arithmetic in registers, which the machine's phases barely move.
    fn chase(&mut self) {
        let mut z = self.flat.len() as u64;
        for k in 0..self.chase as u64 {
            z = z.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(k) ^ (z >> 29);
        }
        std::hint::black_box(z);
    }

    fn stream(&mut self) {
        let Reference {
            flat,
            depth,
            len,
            x,
            y,
            out,
            ..
        } = self;
        let (depth, base) = (*depth, *len / BANKS);
        let gather = |flat: &[f64], v: usize, dst: &mut [f64]| {
            for (k, d) in dst.iter_mut().enumerate() {
                *d = flat[(k % BANKS) * depth + v * base + k / BANKS];
            }
        };
        let scatter = |flat: &mut [f64], v: usize, src: &[f64]| {
            for (k, &s) in src.iter().enumerate() {
                flat[(k % BANKS) * depth + v * base + k / BANKS] = s;
            }
        };
        // Scale: B = (C + 1) / 2.
        gather(flat, 2, x);
        for (o, &xv) in out.iter_mut().zip(x.iter()) {
            *o = 0.5 * xv + 0.5;
        }
        scatter(flat, 1, out);
        // Add: C = Q·A + (1 − Q)·B.
        gather(flat, 0, x);
        gather(flat, 1, y);
        for ((o, &xv), &yv) in out.iter_mut().zip(x.iter()).zip(y.iter()) {
            *o = Q * xv + (1.0 - Q) * yv;
        }
        scatter(flat, 2, out);
        // Triad: A = (1 − Q)·B + Q·C.
        gather(flat, 1, x);
        gather(flat, 2, y);
        for ((o, &xv), &yv) in out.iter_mut().zip(x.iter()).zip(y.iter()) {
            *o = (1.0 - Q) * xv + Q * yv;
        }
        scatter(flat, 0, out);
        std::hint::black_box(&mut *flat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_stay_in_range() {
        let mut r = Reference::new(64, 100, 1.0);
        for _ in 0..200 {
            r.round();
        }
        assert!(r.flat.iter().all(|v| (1.0..2.0).contains(v)));
        assert_eq!(r.recent.len(), WINDOW);
    }

    #[test]
    fn scale_is_nominal_over_recent_median() {
        let mut r = Reference::new(8, 0, 10.0);
        assert_eq!(r.scale(), 1.0);
        r.recent = vec![5.0, 20.0, 4.0];
        assert_eq!(r.scale(), 2.0);
    }
}
