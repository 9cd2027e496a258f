//! PRF access schemes and parallel access patterns (paper Table I, Fig. 2).
//!
//! A *scheme* decides how elements of the 2D logical address space are
//! distributed over the `p x q` bank grid (the module assignment function,
//! [`crate::maf`]). Each scheme guarantees **conflict-free** parallel access —
//! every lane of an access hits a distinct bank — for a specific set of
//! *patterns*: dense shapes of `p*q` elements.

use core::fmt;

/// The five PRF multi-bank storage schemes (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessScheme {
    /// Rectangle Only: conflict-free unaligned `p x q` rectangles.
    ReO,
    /// Rectangle + Row (+ both diagonals).
    ReRo,
    /// Rectangle + Column (+ both diagonals).
    ReCo,
    /// Row + Column (+ aligned rectangles).
    RoCo,
    /// Rectangle + Transposed rectangle.
    ReTr,
}

impl AccessScheme {
    /// All five schemes, in the paper's canonical order.
    pub const ALL: [AccessScheme; 5] = [
        AccessScheme::ReO,
        AccessScheme::ReRo,
        AccessScheme::ReCo,
        AccessScheme::RoCo,
        AccessScheme::ReTr,
    ];

    /// Short name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            AccessScheme::ReO => "ReO",
            AccessScheme::ReRo => "ReRo",
            AccessScheme::ReCo => "ReCo",
            AccessScheme::RoCo => "RoCo",
            AccessScheme::ReTr => "ReTr",
        }
    }

    /// The patterns this scheme serves conflict-free on a `p x q` bank grid,
    /// in Table I's listing order: the patterns of [`AccessPattern::ALL`]
    /// that [`Self::supports`] accepts, except that `RoCo` lists its row and
    /// column patterns before its (aligned) rectangles.
    pub fn supported_patterns(self, p: usize, q: usize) -> Vec<AccessPattern> {
        use AccessPattern::*;
        let order: &[AccessPattern] = match self {
            AccessScheme::RoCo => &[Row, Column, Rectangle],
            _ => &AccessPattern::ALL,
        };
        order
            .iter()
            .copied()
            .filter(|&pattern| self.supports(pattern, p, q))
            .collect()
    }

    /// Whether `pattern` is conflict-free under this scheme for a `p x q`
    /// bank grid (at *some* position — possibly alignment-restricted).
    ///
    /// This is Table I of the paper, refined with the exact arithmetic
    /// conditions under which the module assignment functions are
    /// conflict-free (all paper configurations use powers of two, where every
    /// listed pattern is available):
    ///
    /// * `ReRo` diagonals require `gcd(q+1, p) == 1` (main) and
    ///   `gcd(q-1, p) == 1` (secondary);
    /// * `ReCo` diagonals require the mirrored conditions on `p±1` and `q`;
    /// * `ReTr` requires `p | q` or `q | p`;
    /// * `RoCo` rectangles are only available *aligned* (see
    ///   [`Self::requires_alignment`]).
    ///
    /// The outside reference is the scheme comments of the HLS PolyMem
    /// header (`hls_polymem.h`), which state the same conditions; every
    /// claim is proved over all origin residue classes by
    /// [`crate::theory::prove_pair`].
    ///
    /// Answered from the scheme and the grid alone, without allocating: every
    /// planned access checks it.
    pub fn supports(self, pattern: AccessPattern, p: usize, q: usize) -> bool {
        use AccessPattern::*;
        match (self, pattern) {
            (AccessScheme::ReO, Rectangle) => true,
            (AccessScheme::ReRo, Rectangle | Row) => true,
            (AccessScheme::ReRo, MainDiagonal) => gcd(q + 1, p) == 1,
            // gcd(0, p) == p, so a 1-column grid is (correctly) rejected
            // unless p == 1: with q == 1 every lane of a secondary diagonal
            // lands in the same bank column.
            (AccessScheme::ReRo, SecondaryDiagonal) => gcd(q.saturating_sub(1), p) == 1,
            (AccessScheme::ReCo, Rectangle | Column) => true,
            (AccessScheme::ReCo, MainDiagonal) => gcd(p + 1, q) == 1,
            (AccessScheme::ReCo, SecondaryDiagonal) => gcd(p.saturating_sub(1), q) == 1,
            (AccessScheme::RoCo, Row | Column | Rectangle) => true,
            (AccessScheme::ReTr, Rectangle | TransposedRectangle) => {
                p.is_multiple_of(q) || q.is_multiple_of(p)
            }
            _ => false,
        }
    }

    /// Whether the scheme serves `pattern` only at bank-grid-aligned
    /// positions. Only `RoCo` rectangles are alignment-restricted: the
    /// combined row+column skew breaks unaligned rectangle accesses (a
    /// counterexample is checked in `theory` tests).
    pub fn requires_alignment(self, pattern: AccessPattern) -> bool {
        matches!(
            (self, pattern),
            (AccessScheme::RoCo, AccessPattern::Rectangle)
        )
    }

    /// Validate that `access` is conflict-free under this scheme on a
    /// `p x q` bank grid: pattern supported (Table I) and, where required,
    /// aligned. The single source of the check shared by [`crate::mem`],
    /// [`crate::concurrent`] and [`crate::region_plan`].
    pub fn check_access(
        self,
        access: ParallelAccess,
        p: usize,
        q: usize,
    ) -> crate::error::Result<()> {
        if !self.supports(access.pattern, p, q) {
            return Err(crate::error::PolyMemError::UnsupportedPattern {
                scheme: self,
                pattern: access.pattern,
            });
        }
        if self.requires_alignment(access.pattern)
            && (!access.i.is_multiple_of(p) || !access.j.is_multiple_of(q))
        {
            return Err(crate::error::PolyMemError::Misaligned {
                scheme: self,
                pattern: access.pattern,
                i: access.i,
                j: access.j,
            });
        }
        Ok(())
    }
}

impl fmt::Display for AccessScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The six parallel access pattern shapes of Fig. 2. Every pattern denotes a
/// dense set of `p*q` elements; the origin `(i, j)` is the top-left element
/// (for [`AccessPattern::SecondaryDiagonal`], the top-*right* element).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessPattern {
    /// `p x q` block at `(i, j)`.
    Rectangle,
    /// `1 x p*q` horizontal strip at `(i, j)`.
    Row,
    /// `p*q x 1` vertical strip at `(i, j)`.
    Column,
    /// `(i+k, j+k)` for `k in 0..p*q`.
    MainDiagonal,
    /// `(i+k, j-k)` for `k in 0..p*q`.
    SecondaryDiagonal,
    /// `q x p` block at `(i, j)`.
    TransposedRectangle,
}

impl AccessPattern {
    /// Number of patterns (for sizing per-pattern shard arrays).
    pub const COUNT: usize = 6;

    /// Dense index of the pattern in [`Self::ALL`] order. Always
    /// `< Self::COUNT`; used to pick per-pattern cache shards.
    pub fn index(self) -> usize {
        match self {
            AccessPattern::Rectangle => 0,
            AccessPattern::Row => 1,
            AccessPattern::Column => 2,
            AccessPattern::MainDiagonal => 3,
            AccessPattern::SecondaryDiagonal => 4,
            AccessPattern::TransposedRectangle => 5,
        }
    }

    /// All six patterns.
    pub const ALL: [AccessPattern; 6] = [
        AccessPattern::Rectangle,
        AccessPattern::Row,
        AccessPattern::Column,
        AccessPattern::MainDiagonal,
        AccessPattern::SecondaryDiagonal,
        AccessPattern::TransposedRectangle,
    ];

    /// Lower-case human name.
    pub fn name(self) -> &'static str {
        match self {
            AccessPattern::Rectangle => "rectangle",
            AccessPattern::Row => "row",
            AccessPattern::Column => "column",
            AccessPattern::MainDiagonal => "main diagonal",
            AccessPattern::SecondaryDiagonal => "secondary diagonal",
            AccessPattern::TransposedRectangle => "transposed rectangle",
        }
    }

    /// The bounding-box extent (`rows`, `cols`) of the pattern on a `p x q`
    /// bank grid, measured from the origin. For the secondary diagonal the
    /// column extent grows *leftwards* from the origin.
    pub fn extent(self, p: usize, q: usize) -> (usize, usize) {
        let n = p * q;
        match self {
            AccessPattern::Rectangle => (p, q),
            AccessPattern::Row => (1, n),
            AccessPattern::Column => (n, 1),
            AccessPattern::MainDiagonal | AccessPattern::SecondaryDiagonal => (n, n),
            AccessPattern::TransposedRectangle => (q, p),
        }
    }
}

impl fmt::Display for AccessPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A parallel access request: the `AccType`, `i`, `j` signals of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelAccess {
    /// Row coordinate of the access origin in the 2D logical space.
    pub i: usize,
    /// Column coordinate of the access origin.
    pub j: usize,
    /// The access shape.
    pub pattern: AccessPattern,
}

impl ParallelAccess {
    /// Construct an access request.
    pub fn new(i: usize, j: usize, pattern: AccessPattern) -> Self {
        Self { i, j, pattern }
    }

    /// Shorthand for a rectangle access.
    pub fn rect(i: usize, j: usize) -> Self {
        Self::new(i, j, AccessPattern::Rectangle)
    }

    /// Shorthand for a row access.
    pub fn row(i: usize, j: usize) -> Self {
        Self::new(i, j, AccessPattern::Row)
    }

    /// Shorthand for a column access.
    pub fn col(i: usize, j: usize) -> Self {
        Self::new(i, j, AccessPattern::Column)
    }
}

/// Greatest common divisor (Euclid). `gcd(0, n) == n`.
pub(crate) fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 8), 4);
        assert_eq!(gcd(8, 12), 4);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(1, 1), 1);
    }

    #[test]
    fn table1_reo() {
        let pats = AccessScheme::ReO.supported_patterns(2, 4);
        assert_eq!(pats, vec![AccessPattern::Rectangle]);
    }

    #[test]
    fn table1_rero_power_of_two() {
        // 2x4 grid: q+1 = 5, q-1 = 3, both coprime with p = 2.
        let pats = AccessScheme::ReRo.supported_patterns(2, 4);
        assert!(pats.contains(&AccessPattern::Rectangle));
        assert!(pats.contains(&AccessPattern::Row));
        assert!(pats.contains(&AccessPattern::MainDiagonal));
        assert!(pats.contains(&AccessPattern::SecondaryDiagonal));
        assert!(!pats.contains(&AccessPattern::Column));
    }

    #[test]
    fn table1_reco_power_of_two() {
        let pats = AccessScheme::ReCo.supported_patterns(2, 8);
        assert!(pats.contains(&AccessPattern::Rectangle));
        assert!(pats.contains(&AccessPattern::Column));
        assert!(pats.contains(&AccessPattern::MainDiagonal));
        assert!(pats.contains(&AccessPattern::SecondaryDiagonal));
        assert!(!pats.contains(&AccessPattern::Row));
    }

    #[test]
    fn table1_roco() {
        let pats = AccessScheme::RoCo.supported_patterns(2, 4);
        assert!(pats.contains(&AccessPattern::Row));
        assert!(pats.contains(&AccessPattern::Column));
        assert!(pats.contains(&AccessPattern::Rectangle));
        assert!(AccessScheme::RoCo.requires_alignment(AccessPattern::Rectangle));
        assert!(!AccessScheme::RoCo.requires_alignment(AccessPattern::Row));
    }

    #[test]
    fn table1_retr_requires_divisibility() {
        assert!(AccessScheme::ReTr.supports(AccessPattern::TransposedRectangle, 2, 4));
        assert!(AccessScheme::ReTr.supports(AccessPattern::TransposedRectangle, 4, 2));
        assert!(!AccessScheme::ReTr.supports(AccessPattern::TransposedRectangle, 3, 4));
    }

    #[test]
    fn supports_agrees_with_supported_patterns_exhaustively() {
        for scheme in AccessScheme::ALL {
            for p in 1..=8 {
                for q in 1..=8 {
                    let listed = scheme.supported_patterns(p, q);
                    for pat in AccessPattern::ALL {
                        assert_eq!(
                            scheme.supports(pat, p, q),
                            listed.contains(&pat),
                            "{scheme} {pat} on {p}x{q}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn supported_patterns_order_is_pinned() {
        use AccessPattern::*;
        let cases: [(AccessScheme, usize, usize, &[AccessPattern]); 10] = [
            (AccessScheme::ReO, 2, 4, &[Rectangle]),
            (
                AccessScheme::ReRo,
                2,
                4,
                &[Rectangle, Row, MainDiagonal, SecondaryDiagonal],
            ),
            (
                AccessScheme::ReRo,
                3,
                5,
                &[Rectangle, Row, SecondaryDiagonal],
            ),
            (AccessScheme::ReRo, 2, 1, &[Rectangle, Row]),
            (
                AccessScheme::ReCo,
                2,
                8,
                &[Rectangle, Column, MainDiagonal, SecondaryDiagonal],
            ),
            (
                AccessScheme::ReCo,
                5,
                3,
                &[Rectangle, Column, SecondaryDiagonal],
            ),
            (AccessScheme::RoCo, 2, 4, &[Row, Column, Rectangle]),
            (AccessScheme::RoCo, 3, 5, &[Row, Column, Rectangle]),
            (AccessScheme::ReTr, 4, 2, &[Rectangle, TransposedRectangle]),
            (AccessScheme::ReTr, 3, 4, &[]),
        ];
        for (scheme, p, q, want) in cases {
            assert_eq!(scheme.supported_patterns(p, q), want, "{scheme} {p}x{q}");
        }
    }

    #[test]
    fn rero_diagonal_gcd_condition() {
        // p = 3, q = 5: q+1 = 6, gcd(6, 3) = 3 != 1 -> no main diagonal.
        let pats = AccessScheme::ReRo.supported_patterns(3, 5);
        assert!(!pats.contains(&AccessPattern::MainDiagonal));
        // q - 1 = 4, gcd(4, 3) = 1 -> secondary diagonal OK.
        assert!(pats.contains(&AccessPattern::SecondaryDiagonal));
    }

    #[test]
    fn extents() {
        assert_eq!(AccessPattern::Rectangle.extent(2, 4), (2, 4));
        assert_eq!(AccessPattern::Row.extent(2, 4), (1, 8));
        assert_eq!(AccessPattern::Column.extent(2, 4), (8, 1));
        assert_eq!(AccessPattern::MainDiagonal.extent(2, 4), (8, 8));
        assert_eq!(AccessPattern::TransposedRectangle.extent(2, 4), (4, 2));
    }

    #[test]
    fn display_names() {
        assert_eq!(AccessScheme::ReRo.to_string(), "ReRo");
        assert_eq!(
            AccessPattern::SecondaryDiagonal.to_string(),
            "secondary diagonal"
        );
    }

    #[test]
    fn pattern_index_is_dense_and_matches_all_order() {
        for (k, p) in AccessPattern::ALL.iter().enumerate() {
            assert_eq!(p.index(), k);
        }
        assert_eq!(AccessPattern::COUNT, AccessPattern::ALL.len());
    }

    #[test]
    fn scheme_check_access_matches_support_and_alignment() {
        // RoCo: rows anywhere, rectangles only aligned.
        let s = AccessScheme::RoCo;
        assert!(s.check_access(ParallelAccess::row(3, 5), 2, 4).is_ok());
        assert!(s.check_access(ParallelAccess::rect(2, 4), 2, 4).is_ok());
        assert!(s.check_access(ParallelAccess::rect(1, 4), 2, 4).is_err());
        // ReO: no rows at all.
        assert!(AccessScheme::ReO
            .check_access(ParallelAccess::row(0, 0), 2, 4)
            .is_err());
    }

    #[test]
    fn parallel_access_shorthands() {
        assert_eq!(ParallelAccess::rect(1, 2).pattern, AccessPattern::Rectangle);
        assert_eq!(ParallelAccess::row(1, 2).pattern, AccessPattern::Row);
        assert_eq!(ParallelAccess::col(1, 2).pattern, AccessPattern::Column);
    }

    #[test]
    fn serde_roundtrip() {
        let a = ParallelAccess::new(3, 4, AccessPattern::MainDiagonal);
        let s = serde_json_like(&a);
        assert!(s.contains("MainDiagonal"));
    }

    // Pins the `Debug` rendering, which names the access pattern.
    fn serde_json_like(a: &ParallelAccess) -> String {
        format!("{a:?}")
    }
}
