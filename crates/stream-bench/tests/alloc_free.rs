//! The allocation contract of the per-access datapath: once its plans are
//! compiled, a single planned access and a steady-state per-chunk STREAM
//! pass make no heap allocation.
//!
//! A counting global allocator tallies allocations per thread, so the test
//! harness's other threads (and other tests running beside these) never
//! count against the thread being measured.

use dfe_sim::SchedulerMode;
use polymem::{AccessScheme, ConcurrentPolyMem, ParallelAccess, PolyMem, PolyMemConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stream_bench::{StreamApp, StreamLayout, StreamOp, PAPER_STREAM_FREQ_MHZ};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is being torn down; a const
    // initialised `Cell` has no destructor, so counting never allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
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

/// Load a paper-size STREAM design driven by `mode`, run one pass to warm
/// its plans, queues and lockstep rings, and count the second pass's
/// allocations.
fn steady_pass_allocations(op: StreamOp, mode: SchedulerMode) -> u64 {
    let layout = StreamLayout::paper_geometry(StreamLayout::PAPER_MAX_LEN).unwrap();
    let mut app = StreamApp::new(op, layout, PAPER_STREAM_FREQ_MHZ).unwrap();
    app.set_scheduler_mode(mode);
    let n = layout.a.len;
    let v = |s: f64| (0..n).map(|k| s + k as f64).collect::<Vec<_>>();
    app.load(&v(1.0), &v(2.0), &v(3.0)).unwrap();
    let warm = app.run_pass();
    let mut cycles = 0;
    let count = allocations(|| cycles = app.run_pass());
    assert_eq!(cycles, warm, "{} passes are deterministic", op.name());
    assert!(app.errors().is_empty(), "{:?}", app.errors());
    count
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
