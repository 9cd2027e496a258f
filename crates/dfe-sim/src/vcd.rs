//! VCD (Value Change Dump) export of simulation activity.
//!
//! Hardware engineers debug dataflow designs in a waveform viewer; this
//! module renders recorded per-cycle signal values into IEEE-1364 VCD text
//! that GTKWave & co. open directly — the missing visualisation the paper's
//! §III-C complains about ("the lack of a graphical representation of the
//! blocks in a design").

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A recorded multi-bit signal.
#[derive(Debug, Clone)]
struct Signal {
    id: String,
    width: u32,
    /// (cycle, value) change list, strictly increasing cycles.
    changes: Vec<(u64, u64)>,
}

/// Collects signal samples and renders a VCD document.
#[derive(Debug, Clone, Default)]
pub struct VcdRecorder {
    signals: BTreeMap<String, Signal>,
    max_cycle: u64,
}

impl VcdRecorder {
    /// New empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a signal (idempotent). `width` in bits, 1..=64.
    pub fn declare(&mut self, name: &str, width: u32) {
        assert!((1..=64).contains(&width), "signal width 1..=64");
        let next_id = idcode(self.signals.len());
        self.signals.entry(name.to_string()).or_insert(Signal {
            id: next_id,
            width,
            changes: Vec::new(),
        });
    }

    /// Sample `name` at `cycle`; only changes are stored. Signals must be
    /// declared first and cycles sampled in non-decreasing order.
    pub fn sample(&mut self, name: &str, cycle: u64, value: u64) {
        let sig = self
            .signals
            .get_mut(name)
            .unwrap_or_else(|| panic!("signal {name} not declared"));
        if let Some(&(last_c, last_v)) = sig.changes.last() {
            assert!(cycle >= last_c, "samples must be time-ordered");
            if last_v == value {
                return;
            }
        }
        sig.changes.push((cycle, value));
        self.max_cycle = self.max_cycle.max(cycle);
    }

    /// Render the VCD document. `timescale_ns` is the clock period.
    pub fn render(&self, module: &str, timescale_ns: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$date polymem-dfe-sim $end");
        let _ = writeln!(out, "$timescale {}ns $end", timescale_ns.max(1.0) as u64);
        let _ = writeln!(out, "$scope module {module} $end");
        for (name, sig) in &self.signals {
            let _ = writeln!(out, "$var wire {} {} {} $end", sig.width, sig.id, name);
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");

        // Merge all changes into a time-ordered dump.
        let mut by_cycle: BTreeMap<u64, Vec<(&Signal, u64)>> = BTreeMap::new();
        for sig in self.signals.values() {
            for &(c, v) in &sig.changes {
                by_cycle.entry(c).or_default().push((sig, v));
            }
        }
        for (cycle, changes) in by_cycle {
            let _ = writeln!(out, "#{cycle}");
            for (sig, v) in changes {
                if sig.width == 1 {
                    let _ = writeln!(out, "{}{}", v & 1, sig.id);
                } else {
                    let _ = writeln!(out, "b{:b} {}", v, sig.id);
                }
            }
        }
        out
    }

    /// Sample a telemetry gauge (e.g. a FIFO-occupancy gauge) as a signal
    /// value, clamping negative readings to zero — waveform viewers show
    /// unsigned wires. Declare the signal first, as with [`Self::sample`].
    pub fn sample_metric(&mut self, name: &str, cycle: u64, gauge: &polymem::telemetry::Gauge) {
        self.sample(name, cycle, gauge.get().max(0) as u64);
    }

    /// Number of declared signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Last sampled cycle.
    pub fn max_cycle(&self) -> u64 {
        self.max_cycle
    }
}

/// VCD identifier codes: printable ASCII 33..=126, base-94.
fn idcode(mut n: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((33 + (n % 94)) as u8 as char);
        n /= 94;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_changes() {
        let mut v = VcdRecorder::new();
        v.declare("write_enable", 1);
        v.declare("data", 64);
        v.sample("write_enable", 0, 0);
        v.sample("write_enable", 3, 1);
        v.sample("data", 3, 0xAB);
        let doc = v.render("polymem", 8.0);
        assert!(doc.contains("$timescale 8ns $end"));
        assert!(doc.contains("$var wire 1"));
        assert!(doc.contains("$var wire 64"));
        assert!(doc.contains("#3"));
        assert!(doc.contains("b10101011"));
    }

    #[test]
    fn deduplicates_unchanged_samples() {
        let mut v = VcdRecorder::new();
        v.declare("s", 1);
        v.sample("s", 0, 1);
        v.sample("s", 1, 1);
        v.sample("s", 2, 0);
        let doc = v.render("m", 10.0);
        assert!(doc.contains("#0"));
        assert!(!doc.contains("#1\n"), "unchanged sample must be dropped");
        assert!(doc.contains("#2"));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_time_travel() {
        let mut v = VcdRecorder::new();
        v.declare("s", 1);
        v.sample("s", 5, 1);
        v.sample("s", 3, 0);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn rejects_undeclared() {
        let mut v = VcdRecorder::new();
        v.sample("ghost", 0, 1);
    }

    #[test]
    fn idcodes_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..500 {
            let id = idcode(n);
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn declare_idempotent() {
        let mut v = VcdRecorder::new();
        v.declare("s", 8);
        v.declare("s", 8);
        assert_eq!(v.signal_count(), 1);
    }

    #[test]
    fn sample_metric_tracks_a_gauge() {
        use polymem::telemetry::TelemetryRegistry;
        let reg = TelemetryRegistry::new();
        let occ = reg.gauge("fifo_occupancy", vec![("stream", "out".to_string())]);
        let mut v = VcdRecorder::new();
        v.declare("occupancy", 16);
        for c in 0..4u64 {
            occ.add(2);
            v.sample_metric("occupancy", c, &occ);
        }
        occ.add(-100); // clamped to zero in the waveform
        v.sample_metric("occupancy", 5, &occ);
        let doc = v.render("m", 8.0);
        assert!(doc.contains("b1000 "), "gauge value 8 sampled: {doc}");
        assert!(doc.contains("b0 "), "negative reading clamps to 0");
    }

    #[test]
    fn traces_a_real_pipeline() {
        // Record a delay line's occupancy as a waveform.
        let mut v = VcdRecorder::new();
        v.declare("in_flight", 8);
        let mut dl = crate::kernel::DelayLine::new(3);
        for c in 0..10u64 {
            if c < 4 {
                dl.push(c, c);
            }
            let _ = dl.pop_ready(c);
            v.sample("in_flight", c, dl.in_flight() as u64);
        }
        assert!(v.max_cycle() >= 6);
        let doc = v.render("pipe", 8.0);
        assert!(doc.lines().count() > 8);
    }
}
