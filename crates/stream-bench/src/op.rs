//! The four STREAM operations (paper §V).
//!
//! The paper's definitions: Copy `c(i) = a(i)`; Scale `a(i) = q*b(i)`;
//! Sum `a(i) = b(i) + c(i)`; Triad `a(i) = b(i) + q*c(i)`. The paper
//! synthesizes and measures **Copy**; Scale/Sum/Triad are listed as future
//! work and implemented here as the extension.

/// One STREAM kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamOp {
    /// `c(i) = a(i)` — one read, one write per element.
    Copy,
    /// `a(i) = q * b(i)` — one read, one write, one multiply.
    Scale(f64),
    /// `a(i) = b(i) + c(i)` — two reads, one write, one add.
    Sum,
    /// `a(i) = b(i) + q * c(i)` — two reads, one write, mul + add.
    Triad(f64),
}

impl StreamOp {
    /// Benchmark-standard name.
    pub fn name(&self) -> &'static str {
        match self {
            StreamOp::Copy => "Copy",
            StreamOp::Scale(_) => "Scale",
            StreamOp::Sum => "Sum",
            StreamOp::Triad(_) => "Triad",
        }
    }

    /// Read streams needed per element (1 or 2) — i.e. read ports used.
    pub fn reads(&self) -> usize {
        match self {
            StreamOp::Copy | StreamOp::Scale(_) => 1,
            StreamOp::Sum | StreamOp::Triad(_) => 2,
        }
    }

    /// Memory traffic per element in bytes (STREAM counting: each read and
    /// each write of a 64-bit element moves 8 bytes).
    pub fn bytes_per_element(&self) -> usize {
        8 * (self.reads() + 1)
    }

    /// Floating-point operations per element.
    pub fn flops_per_element(&self) -> usize {
        match self {
            StreamOp::Copy => 0,
            StreamOp::Scale(_) | StreamOp::Sum => 1,
            StreamOp::Triad(_) => 2,
        }
    }

    /// Combine the raw 64-bit lanes of a chunk, run or burst in place over
    /// the first operand's `x`; `y` holds the second operand's lanes for
    /// Sum and Triad.
    pub fn combine(&self, x: &mut [u64], y: Option<&[u64]>) {
        let op = |xb: u64, yv: f64| self.apply(f64::from_bits(xb), yv).to_bits();
        match y {
            Some(y) => {
                for (x, &yb) in x.iter_mut().zip(y) {
                    *x = op(*x, f64::from_bits(yb));
                }
            }
            None => {
                for x in x.iter_mut() {
                    *x = op(*x, 0.0);
                }
            }
        }
    }

    /// Combine one element's operands. `x` is the first operand (A for
    /// Copy, B otherwise); `y` the second (C), ignored for 1-read ops.
    #[inline]
    pub fn apply(&self, x: f64, y: f64) -> f64 {
        match *self {
            StreamOp::Copy => x,
            StreamOp::Scale(q) => q * x,
            StreamOp::Sum => x + y,
            StreamOp::Triad(q) => x + q * y,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_counting() {
        assert_eq!(StreamOp::Copy.bytes_per_element(), 16);
        assert_eq!(StreamOp::Scale(2.0).bytes_per_element(), 16);
        assert_eq!(StreamOp::Sum.bytes_per_element(), 24);
        assert_eq!(StreamOp::Triad(2.0).bytes_per_element(), 24);
    }

    #[test]
    fn flops() {
        assert_eq!(StreamOp::Copy.flops_per_element(), 0);
        assert_eq!(StreamOp::Triad(3.0).flops_per_element(), 2);
    }

    #[test]
    fn apply_semantics() {
        assert_eq!(StreamOp::Copy.apply(5.0, 99.0), 5.0);
        assert_eq!(StreamOp::Scale(3.0).apply(5.0, 99.0), 15.0);
        assert_eq!(StreamOp::Sum.apply(5.0, 7.0), 12.0);
        assert_eq!(StreamOp::Triad(3.0).apply(5.0, 7.0), 26.0);
    }

    #[test]
    fn names_and_reads() {
        assert_eq!(StreamOp::Sum.name(), "Sum");
        assert_eq!(StreamOp::Copy.reads(), 1);
        assert_eq!(StreamOp::Triad(1.0).reads(), 2);
    }
}
