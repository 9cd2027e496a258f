//! A standalone tour of the DFE simulator: build a three-kernel dataflow
//! graph (generator → windowed-average kernel → sink), run it under a
//! manager, record its events on a trace-journal track, and dump a VCD
//! waveform — the debugging workflow the paper wished MaxJ's toolchain had
//! (§III-C complains about the lack of design visualisation).
//!
//! Run with: `cargo run -p polymem-apps --example dataflow_pipeline`

use dfe_sim::kernel::{FnKernel, Kernel};
use dfe_sim::{stream, stream_stats, Generator, Manager, Sink, VcdRecorder};
use polymem::tracing::{TraceEventKind, TraceJournal};
use std::rc::Rc;

fn main() {
    let input = stream::<u64>("input", 8);
    let averaged = stream::<u64>("averaged", 8);
    // Event names are interned once; recording moves only integers.
    let journal = TraceJournal::new(256);
    let track = journal.writer("avg4");
    let (emit, stall) = (journal.intern("emit"), journal.intern("stalled on output"));
    let mut vcd = VcdRecorder::new();
    vcd.declare("input_depth", 8);
    vcd.declare("averaged_depth", 8);

    let mut mgr = Manager::new(100.0);
    // Source: a noisy ramp.
    let data: Vec<u64> = (0..24).map(|k| 10 * k + (k * 7) % 5).collect();
    mgr.add_kernel(Box::new(Generator::new(
        "source",
        data.clone(),
        Rc::clone(&input),
    )));

    // A 4-tap moving-average kernel with an internal shift register.
    let (inp, out) = (Rc::clone(&input), Rc::clone(&averaged));
    let mut window = [0u64; 4];
    let mut filled = 0usize;
    mgr.add_kernel(Box::new(FnKernel::new("avg4", move |cycle| {
        if !out.borrow().can_push() {
            track.instant_at(cycle, stall);
            return;
        }
        if let Some(v) = inp.borrow_mut().pop() {
            window.rotate_left(1);
            window[3] = v;
            filled = (filled + 1).min(4);
            if filled == 4 {
                let avg = window.iter().sum::<u64>() / 4;
                out.borrow_mut().push(avg);
                track.instant_at(cycle, emit);
            }
        }
    })));

    // Sink collecting results.
    let mut sink = Sink::new("sink", Rc::clone(&averaged));

    // Drive the graph, sampling FIFO depths into the VCD each cycle.
    for c in 0..40u64 {
        mgr.run_cycles(1);
        sink.tick(c);
        vcd.sample("input_depth", c, input.borrow().len() as u64);
        vcd.sample("averaged_depth", c, averaged.borrow().len() as u64);
    }

    let got = sink.take();
    println!(
        "4-tap moving average over {} samples -> {} outputs",
        data.len(),
        got.len()
    );
    assert_eq!(got.len(), data.len() - 3);
    // Verify against the scalar filter.
    for (k, &g) in got.iter().enumerate() {
        let want = data[k..k + 4].iter().sum::<u64>() / 4;
        assert_eq!(g, want, "output {k}");
    }
    println!("verified against the scalar reference");

    let snap = journal.snapshot();
    let instants: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.kind == TraceEventKind::Instant && e.track == "avg4")
        .collect();
    let emitted = instants.iter().filter(|e| e.name == "emit").count();
    assert_eq!(emitted, got.len(), "one emit instant per output");
    assert_eq!(snap.dropped, 0);
    println!(
        "\njournal: {} avg4 instants ({emitted} emit); last 5:",
        instants.len()
    );
    for e in instants.iter().rev().take(5).rev() {
        println!("  [{:>3}] {:<6} {}", e.cycle, e.track, e.name);
    }

    for (name, s) in [("input", &input), ("averaged", &averaged)] {
        let st = stream_stats(s);
        println!(
            "stream {name:<9}: pushed {:>3}, popped {:>3}, stalls {}, depth {}",
            st.pushed, st.popped, st.stalls, st.depth
        );
    }

    let doc = vcd.render("pipeline", 10.0);
    println!(
        "\nVCD waveform: {} lines (open in GTKWave); first change records:",
        doc.lines().count()
    );
    for line in doc.lines().skip_while(|l| !l.starts_with('#')).take(6) {
        println!("  {line}");
    }
}
