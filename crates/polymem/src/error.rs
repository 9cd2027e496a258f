//! Error types for the `polymem` crate.

use crate::scheme::{AccessPattern, AccessScheme};
use core::fmt;

/// Errors produced by PolyMem configuration and access operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolyMemError {
    /// The bank-grid geometry is invalid (zero-sized, or capacity not
    /// divisible into the grid).
    InvalidGeometry {
        /// Human-readable description of the geometry violation.
        reason: String,
    },
    /// The requested access scheme cannot serve the requested pattern
    /// conflict-free (see Table I of the paper).
    UnsupportedPattern {
        /// The configured scheme.
        scheme: AccessScheme,
        /// The requested pattern.
        pattern: AccessPattern,
    },
    /// The access starts at, or extends, outside the logical 2D address space.
    OutOfBounds {
        /// Row coordinate of the offending element.
        i: i64,
        /// Column coordinate of the offending element.
        j: i64,
        /// Logical rows of the memory.
        rows: usize,
        /// Logical columns of the memory.
        cols: usize,
    },
    /// The access is supported by the scheme only at aligned positions,
    /// and the requested position is not aligned (e.g. RoCo rectangles).
    Misaligned {
        /// The configured scheme.
        scheme: AccessScheme,
        /// The requested pattern.
        pattern: AccessPattern,
        /// Row coordinate of the access origin.
        i: usize,
        /// Column coordinate of the access origin.
        j: usize,
    },
    /// A read was issued on a port index that does not exist.
    InvalidPort {
        /// The requested port index.
        port: usize,
        /// The number of read ports in the configuration.
        ports: usize,
    },
    /// A caller's buffer has the wrong length: write data or a read's
    /// output that is not `p*q` lanes, a region buffer that is not the
    /// region's length, or host rows that are not whole rows.
    WrongLaneCount {
        /// Number of elements the buffer holds.
        got: usize,
        /// Number of elements expected.
        expected: usize,
    },
    /// Internal invariant violation: two lanes of one parallel access mapped
    /// to the same bank. This indicates a broken module-assignment function
    /// and is surfaced (rather than panicking) for fault-injection tests.
    BankConflict {
        /// Linear bank index that was hit twice.
        bank: usize,
        /// First lane that mapped to the bank.
        lane_a: usize,
        /// Second lane that mapped to the bank.
        lane_b: usize,
    },
}

impl fmt::Display for PolyMemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolyMemError::InvalidGeometry { reason } => {
                write!(f, "invalid PolyMem geometry: {reason}")
            }
            PolyMemError::UnsupportedPattern { scheme, pattern } => write!(
                f,
                "scheme {scheme} does not support conflict-free {pattern} accesses"
            ),
            // rows == cols == 0 marks a check made before any memory is
            // involved (e.g. a secondary diagonal under-running column 0
            // during region validation), where no extent exists to print.
            PolyMemError::OutOfBounds {
                i,
                j,
                rows: 0,
                cols: 0,
            } => write!(f, "access element ({i}, {j}) outside the logical space"),
            PolyMemError::OutOfBounds { i, j, rows, cols } => write!(
                f,
                "access element ({i}, {j}) outside logical space {rows}x{cols}"
            ),
            PolyMemError::Misaligned {
                scheme,
                pattern,
                i,
                j,
            } => write!(
                f,
                "scheme {scheme} supports {pattern} only at aligned positions; ({i}, {j}) is misaligned"
            ),
            PolyMemError::InvalidPort { port, ports } => {
                write!(f, "read port {port} out of range (memory has {ports} ports)")
            }
            PolyMemError::WrongLaneCount { got, expected } => {
                write!(f, "buffer holds {got} elements, expected {expected}")
            }
            PolyMemError::BankConflict {
                bank,
                lane_a,
                lane_b,
            } => write!(
                f,
                "internal bank conflict: lanes {lane_a} and {lane_b} both mapped to bank {bank}"
            ),
        }
    }
}

impl std::error::Error for PolyMemError {}

/// Convenience alias used across the crate.
pub type Result<T> = core::result::Result<T, PolyMemError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PolyMemError::OutOfBounds {
            i: -1,
            j: 9,
            rows: 8,
            cols: 9,
        };
        let s = e.to_string();
        assert!(s.contains("(-1, 9)"));
        assert!(s.contains("8x9"));
    }

    #[test]
    fn unsupported_pattern_names_both_sides() {
        let e = PolyMemError::UnsupportedPattern {
            scheme: AccessScheme::ReO,
            pattern: AccessPattern::Row,
        };
        let s = e.to_string();
        assert!(s.contains("ReO"));
        assert!(s.contains("row"));
    }

    #[test]
    fn wrong_lane_count_names_no_direction() {
        // Reads, region buffers and host rows return it too, not only
        // write data.
        let e = PolyMemError::WrongLaneCount {
            got: 4,
            expected: 8,
        };
        assert_eq!(e.to_string(), "buffer holds 4 elements, expected 8");
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> =
            Box::new(PolyMemError::InvalidPort { port: 4, ports: 2 });
        assert!(e.to_string().contains("port 4"));
    }
}
