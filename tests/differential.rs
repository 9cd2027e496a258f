//! Differential testing: every PolyMem implementation — the
//! single-threaded façade, the thread-safe port wrapper and the cycle-level
//! pipelined kernel — must produce, for every (deterministically generated)
//! op program, exactly what a naive row-major `Vec<u64>` produces.
//!
//! Whole-API programs mix single reads and writes, region reads and writes
//! on all five shapes (the secondary diagonal's column-0 edge included),
//! `copy_region` with overlap in both directions and across shapes,
//! whole-row fills and drains, whole-space loads and dumps, and scheme
//! conversions there and back. They run on `PolyMem` (compiled region
//! plans, the per-access path and the interpreted pipeline) and on
//! `ConcurrentPolyMem` (planned and interpreted), under both `BankLayout`s
//! on a 2x4 and a 4x2 bank grid. The pipelined kernel runs the programs'
//! single reads and writes.

use dfe_sim::Kernel as _;
use polymem::{
    AccessPattern, AccessScheme, BankLayout, ConcurrentPolyMem, ParallelAccess, PolyMem,
    PolyMemConfig, Region, RegionShape,
};
use proptest::prelude::*;
use std::collections::HashSet;
use std::rc::Rc;

/// Logical space of the programs: room for two-access regions and
/// overlapping copies of every shape on an 8-lane grid.
const SPACE: usize = 32;

/// The two bank grids: the 2x4 grid and its non-square transpose.
const GRIDS: [(usize, usize); 2] = [(2, 4), (4, 2)];

const LAYOUTS: [BankLayout; 2] = [BankLayout::BankMajor, BankLayout::AddrInterleaved];

/// One operation of a whole-API program.
#[derive(Debug, Clone)]
enum Op {
    Read(ParallelAccess),
    Write(ParallelAccess, Vec<u64>),
    ReadRegion(Region),
    WriteRegion(Region, Vec<u64>),
    Copy(Region, Region),
    /// `load_rows(first, data)`: whole rows from `first` on.
    LoadRows(usize, Vec<u64>),
    /// `dump_rows_into(first, ..)` of `rows` whole rows.
    DumpRows(usize, usize),
    /// `load_row_major(data)`: the whole space.
    LoadRowMajor(Vec<u64>),
    /// `dump_row_major()`.
    DumpRowMajor,
    /// `convert_scheme` to this scheme, a dump there, and back.
    ConvertScheme(AccessScheme),
}

/// The cells one parallel access of `pattern` covers, as a region whose
/// canonical order is the access's lane order (Fig. 2).
fn access_shape(pattern: AccessPattern, p: usize, q: usize) -> RegionShape {
    let len = p * q;
    match pattern {
        AccessPattern::Rectangle => RegionShape::Block { rows: p, cols: q },
        AccessPattern::TransposedRectangle => RegionShape::Block { rows: q, cols: p },
        AccessPattern::Row => RegionShape::Row { len },
        AccessPattern::Column => RegionShape::Col { len },
        AccessPattern::MainDiagonal => RegionShape::MainDiag { len },
        AccessPattern::SecondaryDiagonal => RegionShape::SecondaryDiag { len },
    }
}

/// A region's cells in canonical order, from the shape definitions alone:
/// row-major for blocks, from the origin along the strip otherwise.
fn region_coords(r: &Region) -> Vec<(usize, usize)> {
    let (i, j) = (r.i, r.j);
    match r.shape {
        RegionShape::Block { rows, cols } => (0..rows)
            .flat_map(|a| (0..cols).map(move |b| (i + a, j + b)))
            .collect(),
        RegionShape::Row { len } => (0..len).map(|k| (i, j + k)).collect(),
        RegionShape::Col { len } => (0..len).map(|k| (i + k, j)).collect(),
        RegionShape::MainDiag { len } => (0..len).map(|k| (i + k, j + k)).collect(),
        RegionShape::SecondaryDiag { len } => (0..len).map(|k| (i + k, j - k)).collect(),
    }
}

fn access_coords(a: ParallelAccess, p: usize, q: usize) -> Vec<(usize, usize)> {
    region_coords(&Region::new("a", a.i, a.j, access_shape(a.pattern, p, q)))
}

/// A region's decomposition into parallel accesses, each in lane order:
/// `p x q` tiles row by row for blocks, consecutive `p*q`-cell pieces for
/// strips. `copy_region` pairs these chunks positionally.
fn region_chunks(r: &Region, p: usize, q: usize) -> Vec<Vec<(usize, usize)>> {
    match r.shape {
        RegionShape::Block { rows, cols } => (0..rows)
            .step_by(p)
            .flat_map(|a| {
                (0..cols)
                    .step_by(q)
                    .map(move |b| access_coords(ParallelAccess::rect(r.i + a, r.j + b), p, q))
            })
            .collect(),
        _ => region_coords(r).chunks(p * q).map(<[_]>::to_vec).collect(),
    }
}

/// Whether every cell of `r` lies in the `SPACE x SPACE` square.
fn fits(r: &Region) -> bool {
    let (down, right, left) = r.extents();
    r.i + down < SPACE && r.j + right < SPACE && r.j >= left
}

/// The naive memory: a row-major `Vec<u64>`.
struct Model(Vec<u64>);

impl Model {
    fn gather(&self, coords: &[(usize, usize)]) -> Vec<u64> {
        coords.iter().map(|&(i, j)| self.0[i * SPACE + j]).collect()
    }

    fn scatter(&mut self, coords: &[(usize, usize)], values: &[u64]) {
        for (&(i, j), &v) in coords.iter().zip(values) {
            self.0[i * SPACE + j] = v;
        }
    }
}

/// Generator of whole-API programs for one scheme and grid, driven by an
/// LCG.
struct ProgramGen {
    scheme: AccessScheme,
    p: usize,
    q: usize,
    lcg: u64,
    stamp: u64,
}

impl ProgramGen {
    fn below(&mut self, n: usize) -> usize {
        self.lcg = self
            .lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.lcg >> 11) % n as u64) as usize
    }

    /// Fresh values that name the op that wrote them.
    fn values(&mut self, len: usize) -> Vec<u64> {
        self.stamp += 1;
        (0..len as u64).map(|k| self.stamp << 16 | k).collect()
    }

    /// An in-bounds region of `shape`, on the tile grid when the scheme
    /// serves `pattern` only aligned (RoCo rectangles); secondary
    /// diagonals end on column 0 one time in three.
    fn region(&mut self, shape: RegionShape, pattern: AccessPattern) -> Region {
        loop {
            let (mut i, mut j) = (self.below(SPACE), self.below(SPACE));
            if let RegionShape::SecondaryDiag { len } = shape {
                if self.below(3) == 0 {
                    j = len - 1;
                }
            }
            if self.scheme.requires_alignment(pattern) {
                (i, j) = (i / self.p * self.p, j / self.q * self.q);
            }
            let r = Region::new("r", i, j, shape);
            if fits(&r) {
                return r;
            }
        }
    }

    fn access(&mut self) -> ParallelAccess {
        let patterns = self.scheme.supported_patterns(self.p, self.q);
        let pattern = patterns[self.below(patterns.len())];
        let r = self.region(access_shape(pattern, self.p, self.q), pattern);
        ParallelAccess::new(r.i, r.j, pattern)
    }

    /// A supported region of `k` accesses.
    fn shaped(&mut self, k: usize) -> Option<Region> {
        let (p, q, n) = (self.p, self.q, self.p * self.q);
        let mut shapes = vec![
            RegionShape::Row { len: k * n },
            RegionShape::Col { len: k * n },
            RegionShape::MainDiag { len: k * n },
            RegionShape::SecondaryDiag { len: k * n },
            RegionShape::Block {
                rows: p,
                cols: k * q,
            },
        ];
        if k == 2 {
            shapes.push(RegionShape::Block {
                rows: 2 * p,
                cols: q,
            });
        }
        shapes.retain(|s| self.scheme.supports(s.pattern(), p, q));
        let shape = *shapes.get(self.below(shapes.len().max(1)))?;
        Some(self.region(shape, shape.pattern()))
    }

    /// A copy whose destination is its source shifted along itself by one
    /// tile (or `p` cells for strips), in either direction.
    fn overlapping_copy(&mut self) -> Option<Op> {
        let (p, q) = (self.p as isize, self.q as isize);
        for _ in 0..64 {
            let src = self.shaped(2)?;
            let (di, dj) = match src.shape {
                RegionShape::Block { .. } => [(p, 0), (0, q), (p, q)][self.below(3)],
                RegionShape::Row { .. } => (0, q),
                RegionShape::Col { .. } => (p, 0),
                RegionShape::MainDiag { .. } => (p, p),
                RegionShape::SecondaryDiag { .. } => (p, -p),
            };
            let (Some(i), Some(j)) = (src.i.checked_add_signed(di), src.j.checked_add_signed(dj))
            else {
                continue;
            };
            let dst = Region::new("d", i, j, src.shape);
            if fits(&dst) {
                // Forward (dst after src) or backward (dst before src).
                let forward = self.below(2) == 0;
                return Some(if forward {
                    Op::Copy(src, dst)
                } else {
                    Op::Copy(dst, src)
                });
            }
        }
        None
    }

    fn op(&mut self) -> Option<Op> {
        let (n, k) = (self.p * self.q, 1 + self.below(2));
        let rows = 1 + self.below(2 * self.p + 1);
        Some(match self.below(13) {
            0 => Op::Read(self.access()),
            1 => Op::Write(self.access(), self.values(n)),
            2 => Op::ReadRegion(self.shaped(k)?),
            3 => {
                let r = self.shaped(k)?;
                let len = r.len();
                Op::WriteRegion(r, self.values(len))
            }
            4 | 5 => self.overlapping_copy()?,
            // Two regions of the same access count: cross-shape when the
            // shapes differ, same-shape disjoint or overlapping otherwise.
            6 => Op::Copy(self.shaped(k)?, self.shaped(k)?),
            7 => {
                // Same shape, origins a whole period apart: one plan.
                let src = self.shaped(1)?;
                let dst = Region::new("d", src.i + n, src.j, src.shape);
                fits(&dst).then_some(Op::Copy(src, dst))?
            }
            8 => {
                let first = self.below(SPACE - rows + 1);
                Op::LoadRows(first, self.values(rows * SPACE))
            }
            9 => Op::DumpRows(self.below(SPACE - rows + 1), rows),
            10 => Op::LoadRowMajor(self.values(SPACE * SPACE)),
            11 => Op::DumpRowMajor,
            _ => {
                let others: Vec<_> = AccessScheme::ALL
                    .into_iter()
                    .filter(|&s| s != self.scheme)
                    .collect();
                Op::ConvertScheme(others[self.below(others.len())])
            }
        })
    }
}

/// A deterministic whole-API program of about `len` ops.
fn program(scheme: AccessScheme, (p, q): (usize, usize), seed: u64, len: usize) -> Vec<Op> {
    let mut gen = ProgramGen {
        scheme,
        p,
        q,
        lcg: seed | 1,
        stamp: 0,
    };
    (0..len).filter_map(|_| gen.op()).collect()
}

fn space_cfg(scheme: AccessScheme, (p, q): (usize, usize), layout: BankLayout) -> PolyMemConfig {
    PolyMemConfig::new(SPACE, SPACE, p, q, scheme, 2)
        .unwrap()
        .with_layout(layout)
}

/// The starting content: every cell holds its own row-major index.
fn initial() -> Vec<u64> {
    (0..(SPACE * SPACE) as u64).collect()
}

/// Run `ops` on the model: every read's result in order, then the final
/// row-major content (the shape of every runner's result).
fn run_model(ops: &[Op], (p, q): (usize, usize)) -> Vec<Vec<u64>> {
    let mut m = Model(initial());
    let mut reads = Vec::new();
    for op in ops {
        match op {
            Op::Read(a) => reads.push(m.gather(&access_coords(*a, p, q))),
            Op::Write(a, v) => m.scatter(&access_coords(*a, p, q), v),
            Op::ReadRegion(r) => reads.push(m.gather(&region_coords(r))),
            Op::WriteRegion(r, v) => m.scatter(&region_coords(r), v),
            // Chunk `t` of the source is read, then written to chunk `t`
            // of the destination, so overlapping copies see earlier
            // chunks' writes.
            Op::Copy(s, d) => {
                for (s, d) in region_chunks(s, p, q).iter().zip(region_chunks(d, p, q)) {
                    let v = m.gather(s);
                    m.scatter(&d, &v);
                }
            }
            Op::LoadRows(first, data) => {
                m.0[first * SPACE..first * SPACE + data.len()].copy_from_slice(data)
            }
            Op::DumpRows(first, rows) => {
                reads.push(m.0[first * SPACE..(first + rows) * SPACE].to_vec())
            }
            Op::LoadRowMajor(data) => m.0.copy_from_slice(data),
            Op::DumpRowMajor | Op::ConvertScheme(_) => reads.push(m.0.clone()),
        }
    }
    reads.push(m.0);
    reads
}

/// Run `ops` on `PolyMem` with the given plan switches.
fn run_polymem(ops: &[Op], cfg: PolyMemConfig, planning: bool, regions: bool) -> Vec<Vec<u64>> {
    let switched = |mut mem: PolyMem<u64>| {
        mem.set_planning(planning);
        mem.set_region_planning(regions);
        mem
    };
    let mut mem = switched(PolyMem::<u64>::new(cfg).unwrap());
    mem.load_row_major(&initial()).unwrap();
    let mut reads = Vec::new();
    for op in ops {
        let ctx = format!("{op:?}");
        match op {
            Op::Read(a) => reads.push(mem.read(1, *a).expect(&ctx)),
            Op::Write(a, v) => mem.write(*a, v).expect(&ctx),
            Op::ReadRegion(r) => reads.push(mem.read_region(0, r).expect(&ctx)),
            Op::WriteRegion(r, v) => mem.write_region(r, v).expect(&ctx),
            Op::Copy(s, d) => mem.copy_region(1, s, d).expect(&ctx),
            Op::LoadRows(first, data) => mem.load_rows(*first, data).expect(&ctx),
            Op::DumpRows(first, rows) => {
                let mut out = vec![0; rows * SPACE];
                mem.dump_rows_into(*first, &mut out).expect(&ctx);
                reads.push(out);
            }
            Op::LoadRowMajor(data) => mem.load_row_major(data).expect(&ctx),
            Op::DumpRowMajor => reads.push(mem.dump_row_major()),
            Op::ConvertScheme(scheme) => {
                let mut there = switched(mem.convert_scheme(*scheme).expect(&ctx));
                reads.push(there.dump_row_major());
                mem = switched(there.convert_scheme(cfg.scheme).expect(&ctx));
            }
        }
    }
    reads.push(mem.dump_row_major());
    reads
}

/// Run `ops` on `ConcurrentPolyMem`; row fills and drains go through the
/// host-side scalar ports it offers for them.
fn run_concurrent_mem(ops: &[Op], cfg: PolyMemConfig, planning: bool) -> Vec<Vec<u64>> {
    let mem = ConcurrentPolyMem::<u64>::new(cfg).unwrap();
    mem.set_planning(planning);
    let (set, get) = (
        |k: usize, v: u64| mem.set(k / SPACE, k % SPACE, v),
        |k: usize| mem.get(k / SPACE, k % SPACE),
    );
    for (k, v) in initial().into_iter().enumerate() {
        set(k, v).unwrap();
    }
    let mut reads = Vec::new();
    for op in ops {
        let ctx = format!("{op:?}");
        match op {
            Op::Read(a) => reads.push(mem.read(*a).expect(&ctx)),
            Op::Write(a, v) => mem.write(*a, v).expect(&ctx),
            Op::ReadRegion(r) => reads.push(mem.read_region(r).expect(&ctx)),
            Op::WriteRegion(r, v) => mem.write_region(r, v).expect(&ctx),
            Op::Copy(s, d) => mem.copy_region(s, d).expect(&ctx),
            Op::LoadRows(first, data) => {
                for (k, &v) in data.iter().enumerate() {
                    set(first * SPACE + k, v).expect(&ctx);
                }
            }
            Op::DumpRows(first, rows) => reads.push(
                (first * SPACE..(first + rows) * SPACE)
                    .map(|k| get(k).expect(&ctx))
                    .collect(),
            ),
            Op::LoadRowMajor(data) => {
                for (k, &v) in data.iter().enumerate() {
                    set(k, v).expect(&ctx);
                }
            }
            // It has no whole-space operations: check the content instead.
            Op::DumpRowMajor | Op::ConvertScheme(_) => {
                reads.push((0..SPACE * SPACE).map(|k| get(k).expect(&ctx)).collect())
            }
        }
    }
    reads.push((0..SPACE * SPACE).map(|k| get(k).unwrap()).collect());
    reads
}

/// Run the single reads and writes of `ops` on the pipelined kernel, one
/// op at a time so program order holds between reads and writes.
fn run_kernel(ops: &[Op], cfg: PolyMemConfig) -> Vec<Vec<u64>> {
    let rq = vec![dfe_sim::stream("rq", 4), dfe_sim::stream("rq1", 4)];
    let rs = vec![dfe_sim::stream("rs", 4), dfe_sim::stream("rs1", 4)];
    let wq = dfe_sim::stream("wq", 4);
    let mut k =
        dfe_sim::PolyMemKernel::new("pm", cfg, 1, rq.clone(), rs.clone(), Rc::clone(&wq)).unwrap();
    k.mem().load_row_major(&initial()).unwrap();
    let mut reads = Vec::new();
    let mut cycle = 0u64;
    for op in ops {
        let queued = match op {
            Op::Write(a, v) => wq.borrow_mut().push((*a, v.clone())),
            Op::Read(a) => rq[0].borrow_mut().push(*a),
            _ => panic!("the kernel runs single accesses only: {op:?}"),
        };
        assert!(queued, "request stream full");
        k.tick(cycle);
        cycle += 1;
        if let Op::Read(_) = op {
            // At latency 1 the response emerges on the following cycle.
            k.tick(cycle);
            cycle += 1;
            let word = rs[0].borrow_mut().pop().expect("read response due");
            reads.push(word.to_vec());
        }
    }
    assert!(k.errors().is_empty(), "kernel errors: {:?}", k.errors());
    reads.push(k.mem().dump_row_major());
    reads
}

/// Fail with the first result where `got` leaves the model.
fn assert_model(what: &str, got: &[Vec<u64>], want: &[Vec<u64>]) {
    assert!(
        got == want,
        "{what} diverges from the model at result {:?} of {}",
        got.iter().zip(want).position(|(a, b)| a != b),
        want.len()
    );
}

/// Run one program on every `PolyMem` and `ConcurrentPolyMem` path, and
/// its single reads and writes on the pipelined kernel, and compare each
/// against the model.
fn check_program(scheme: AccessScheme, grid: (usize, usize), layout: BankLayout, seed: u64) {
    let ops = program(scheme, grid, seed, 48);
    let want = run_model(&ops, grid);
    let cfg = space_cfg(scheme, grid, layout);
    let ctx = format!("{scheme} {grid:?} {layout:?} seed {seed}");
    for (planning, regions) in [(true, true), (true, false), (false, false)] {
        let got = run_polymem(&ops, cfg, planning, regions);
        let what = format!("{ctx}: PolyMem (planning {planning}, region planning {regions})");
        assert_model(&what, &got, &want);
    }
    let singles: Vec<Op> = ops
        .iter()
        .filter(|op| matches!(op, Op::Read(_) | Op::Write(..)))
        .cloned()
        .collect();
    let kernel = run_kernel(&singles, cfg);
    assert_model(
        &format!("{ctx}: PolyMemKernel"),
        &kernel,
        &run_model(&singles, grid),
    );
    for planning in [true, false] {
        let got = run_concurrent_mem(&ops, cfg, planning);
        assert_model(
            &format!("{ctx}: ConcurrentPolyMem (planning {planning})"),
            &got,
            &want,
        );
    }
}

/// Every scheme x grid x layout, two fixed programs each. Together they
/// exercise every operation kind, the column-0 edge and overlapping copies
/// in both directions.
#[test]
fn deterministic_case_all_schemes() {
    let mut ops = Vec::new();
    for scheme in AccessScheme::ALL {
        for grid in GRIDS {
            for seed in [11, 12] {
                for layout in LAYOUTS {
                    check_program(scheme, grid, layout, seed);
                }
                ops.extend(program(scheme, grid, seed, 48));
            }
        }
    }
    let kinds: HashSet<_> = ops.iter().map(std::mem::discriminant).collect();
    assert_eq!(kinds.len(), 10, "operation kinds generated");
    let edge = |r: &Region| matches!(r.shape, RegionShape::SecondaryDiag { len } if r.j + 1 == len);
    let copy = |forward: bool| {
        ops.iter().any(|op| {
            matches!(op, Op::Copy(s, d) if s.shape == d.shape && s.overlaps(d)
                && ((d.i, d.j) > (s.i, s.j)) == forward)
        })
    };
    let edged = ops.iter().any(|op| match op {
        Op::ReadRegion(r) | Op::WriteRegion(r, _) => edge(r),
        Op::Copy(s, d) => edge(s) || edge(d),
        _ => false,
    });
    assert!(edged, "no secondary diagonal ends on column 0");
    assert!(
        copy(true) && copy(false),
        "overlapping copies in both directions"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn three_implementations_agree(
        scheme_idx in 0..5usize,
        grid_idx in 0..2usize,
        layout_idx in 0..2usize,
        seed in any::<u64>(),
    ) {
        check_program(
            AccessScheme::ALL[scheme_idx],
            GRIDS[grid_idx],
            LAYOUTS[layout_idx],
            seed,
        );
    }
}
