//! The allocation contract of the per-access datapath: once its plans are
//! compiled, a single planned access, an interleaved region copy and a
//! steady-state per-chunk STREAM pass make no heap allocation, host staging
//! allocates only the offloaded result, and a burst pass allocates nothing
//! vector-sized.
//!
//! A counting global allocator tallies allocations, and the largest one,
//! per thread, so the test harness's other threads (and other tests
//! running beside these) never count against the thread being measured.

use dfe_sim::SchedulerMode;
use polymem::{
    AccessScheme, ConcurrentPolyMem, ParallelAccess, PolyMem, PolyMemConfig, Region, RegionShape,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stream_bench::{StreamApp, StreamLayout, StreamOp, PAPER_STREAM_FREQ_MHZ};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    // `try_with` fails only while the thread is being torn down; a const
    // initialised `Cell` has no destructor, so counting never allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on the calling thread.
fn allocations(f: impl FnOnce()) -> u64 {
    sized_allocations(f).0
}

/// Heap allocations `f` makes on the calling thread, and the size in bytes
/// of the largest.
fn sized_allocations(f: impl FnOnce()) -> (u64, usize) {
    LARGEST.with(|l| l.set(0));
    let before = ALLOCATIONS.with(Cell::get);
    f();
    (
        ALLOCATIONS.with(Cell::get) - before,
        LARGEST.with(Cell::get),
    )
}

/// Every access of the scheme's supported patterns with its origin in the
/// top-left 16x16 window of the space that the memory accepts: at least
/// one per plan residue class of each pattern on the 2x4 grid.
fn legal_accesses(cfg: PolyMemConfig) -> Vec<ParallelAccess> {
    let mut probe = PolyMem::<u64>::new(cfg).unwrap();
    let mut out = vec![0u64; cfg.lanes()];
    let mut legal = Vec::new();
    for pattern in cfg.scheme.supported_patterns(cfg.p, cfg.q) {
        for i in 0..16 {
            for j in 0..16 {
                let access = ParallelAccess::new(i, j, pattern);
                if probe.read_into(0, access, &mut out).is_ok() {
                    legal.push(access);
                }
            }
        }
    }
    assert!(!legal.is_empty(), "{} serves no access", cfg.scheme);
    legal
}

#[test]
fn warmed_planned_reads_and_writes_do_not_allocate() {
    for scheme in AccessScheme::ALL {
        let cfg = PolyMemConfig::new(32, 32, 2, 4, scheme, 2).unwrap();
        let accesses = legal_accesses(cfg);
        let mut mem = PolyMem::<u64>::new(cfg).unwrap();
        let mut out = vec![0u64; cfg.lanes()];
        let data: Vec<u64> = (0..cfg.lanes() as u64).collect();
        let mut sweep = |mem: &mut PolyMem<u64>| {
            for &access in &accesses {
                mem.write(access, &data).unwrap();
                mem.read_into(1, access, &mut out).unwrap();
            }
        };
        sweep(&mut mem);
        assert_eq!(allocations(|| sweep(&mut mem)), 0, "{scheme}");
    }
}

#[test]
fn warmed_concurrent_writes_do_not_allocate() {
    for scheme in AccessScheme::ALL {
        let cfg = PolyMemConfig::new(32, 32, 2, 4, scheme, 1).unwrap();
        let accesses = legal_accesses(cfg);
        let mem = ConcurrentPolyMem::<u64>::new(cfg).unwrap();
        let data: Vec<u64> = (0..cfg.lanes() as u64).collect();
        let sweep = || {
            for &access in &accesses {
                mem.write(access, &data).unwrap();
            }
        };
        sweep();
        assert_eq!(allocations(sweep), 0, "{scheme}");
    }
}

/// Copies that take the interleaved replay, access by access: an
/// overlapping block, a block into a transposed block, and a row into a
/// column, each pair with the same access count.
fn interleaved_copies() -> [(Region, Region); 3] {
    let block = |i, j, rows, cols| Region::new("b", i, j, RegionShape::Block { rows, cols });
    [
        (block(0, 0, 16, 16), block(2, 4, 16, 16)),
        (block(32, 0, 8, 16), block(32, 32, 16, 8)),
        (
            Region::new("r", 56, 0, RegionShape::Row { len: 16 }),
            Region::new("c", 40, 56, RegionShape::Col { len: 16 }),
        ),
    ]
}

#[test]
fn warmed_interleaved_copies_do_not_allocate() {
    // Each access's lanes come from its class's one-access plan, read out
    // of the plan cache once and kept by the memory.
    let cfg = PolyMemConfig::new(64, 64, 2, 4, AccessScheme::RoCo, 1).unwrap();
    let copies = interleaved_copies();
    let mut mem = PolyMem::<f64>::new(cfg).unwrap();
    let sweep = |mem: &mut PolyMem<f64>| {
        for (src, dst) in &copies {
            mem.copy_region(0, src, dst).unwrap();
        }
    };
    sweep(&mut mem);
    assert_eq!(allocations(|| sweep(&mut mem)), 0);

    let mem = ConcurrentPolyMem::<f64>::new(cfg).unwrap();
    let mut scratch = Vec::new();
    let mut sweep = || {
        for (src, dst) in &copies {
            mem.copy_region_with(src, dst, &mut scratch).unwrap();
        }
    };
    sweep();
    assert_eq!(allocations(sweep), 0);
}

/// A paper-size STREAM design for `op`, per-chunk or burst, loaded.
fn paper_app(op: StreamOp, burst: bool) -> StreamApp {
    let layout = StreamLayout::paper_geometry(StreamLayout::PAPER_MAX_LEN).unwrap();
    let mut app = if burst {
        StreamApp::new_burst(op, layout, PAPER_STREAM_FREQ_MHZ)
    } else {
        StreamApp::new(op, layout, PAPER_STREAM_FREQ_MHZ)
    }
    .unwrap();
    let (a, b, c) = vectors();
    app.load(&a, &b, &c).unwrap();
    app
}

/// Three paper-size vectors.
fn vectors() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = StreamLayout::PAPER_MAX_LEN;
    let v = |s: f64| (0..n).map(|k| s + k as f64).collect::<Vec<_>>();
    (v(1.0), v(2.0), v(3.0))
}

/// Run one pass of `app` to warm its plans, queues, lockstep buffers and
/// burst buffers, and count the second pass's allocations (and the size
/// of the largest).
fn second_pass_allocations(app: &mut StreamApp) -> (u64, usize) {
    let warm = app.run_pass();
    let mut cycles = 0;
    let count = sized_allocations(|| cycles = app.run_pass());
    assert_eq!(cycles, warm, "{} passes are deterministic", app.op().name());
    assert!(app.errors().is_empty(), "{:?}", app.errors());
    count
}

/// [`second_pass_allocations`] of a per-chunk design driven by `mode`.
fn steady_pass_allocations(op: StreamOp, mode: SchedulerMode) -> u64 {
    let mut app = paper_app(op, false);
    app.set_scheduler_mode(mode);
    second_pass_allocations(&mut app).0
}

#[test]
fn paper_size_per_chunk_copy_pass_does_not_allocate() {
    assert_eq!(
        steady_pass_allocations(StreamOp::Copy, SchedulerMode::EventDriven),
        0
    );
}

#[test]
fn paper_size_per_chunk_triad_pass_does_not_allocate() {
    assert_eq!(
        steady_pass_allocations(StreamOp::Triad(3.0), SchedulerMode::EventDriven),
        0
    );
}

#[test]
fn paper_size_ticked_passes_do_not_allocate() {
    // The ticked loop is the lockstep window's reference; it is held to
    // the same contract.
    for op in [StreamOp::Copy, StreamOp::Triad(3.0)] {
        assert_eq!(
            steady_pass_allocations(op, SchedulerMode::Ticked),
            0,
            "{}",
            op.name()
        );
    }
}

#[test]
fn paper_size_burst_passes_make_no_vector_sized_allocation() {
    // The region engine reads each burst into a spent buffer, Triad
    // combines over its first operand, and the second goes back to the
    // kernel. What still allocates is each burst's `Region` clone: its
    // name, a few bytes.
    for op in [StreamOp::Copy, StreamOp::Triad(3.0)] {
        let (count, largest) = second_pass_allocations(&mut paper_app(op, true));
        assert!(
            largest < 64,
            "{}: {count} allocations, up to {largest} B",
            op.name()
        );
    }
}

#[test]
fn warmed_host_staging_allocates_only_the_offloaded_result() {
    // Load converts each vector as it scatters; offload gathers strips
    // into a reused scratch and extends its result.
    let (a, b, c) = vectors();
    for burst in [false, true] {
        let mut app = paper_app(StreamOp::Triad(3.0), burst);
        app.offload();
        let mut load = || {
            app.load(&a, &b, &c).unwrap();
        };
        assert_eq!(allocations(&mut load), 0);
        let mut out = Vec::new();
        assert_eq!(allocations(|| out = app.offload().0), 1);
        assert_eq!(out, a, "no pass ran: Triad's destination A reads back");
    }
}
