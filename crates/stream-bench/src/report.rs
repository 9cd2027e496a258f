//! STREAM-standard reporting, plus the Fig. 10 bandwidth-vs-size series.

use crate::app::{StageTiming, StreamApp, PAPER_STREAM_FREQ_MHZ};
use crate::layout::StreamLayout;
use crate::op::StreamOp;

/// One row of the STREAM summary table.
#[derive(Debug, Clone)]
pub struct StreamRow {
    /// Operation name.
    pub function: String,
    /// Best (and, deterministically, only) rate in MB/s.
    pub best_rate_mbps: f64,
    /// Average time per run, seconds.
    pub avg_time_s: f64,
    /// Minimum time per run, seconds.
    pub min_time_s: f64,
    /// Maximum time per run, seconds.
    pub max_time_s: f64,
}

impl StreamRow {
    /// Build from a stage timing (deterministic: avg == min == max).
    pub fn from_timing(op: StreamOp, t: &StageTiming) -> Self {
        let secs = t.time_per_run_ns * 1e-9;
        Self {
            function: op.name().to_string(),
            best_rate_mbps: t.bandwidth_mbps,
            avg_time_s: secs,
            min_time_s: secs,
            max_time_s: secs,
        }
    }

    /// Format in the layout of the reference STREAM benchmark output.
    pub fn format(&self) -> String {
        format!(
            "{:<10}{:>14.1}{:>14.6}{:>14.6}{:>14.6}",
            self.function, self.best_rate_mbps, self.avg_time_s, self.min_time_s, self.max_time_s
        )
    }
}

/// The header matching [`StreamRow::format`].
pub fn header() -> String {
    format!(
        "{:<10}{:>14}{:>14}{:>14}{:>14}",
        "Function", "Best MB/s", "Avg time", "Min time", "Max time"
    )
}

/// One point of the Fig. 10 series.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Point {
    /// Data copied per run, KB (the x-axis).
    pub copied_kb: f64,
    /// Measured aggregated bandwidth, MB/s (the y-axis).
    pub bandwidth_mbps: f64,
    /// Fraction of the 15360 MB/s theoretical peak.
    pub fraction_of_peak: f64,
}

/// Reproduce Fig. 10: sweep the copied-vector size over the paper geometry
/// and measure Copy bandwidth with `runs` blocking runs per point.
pub fn fig10_series(sizes_elems: &[usize], runs: usize) -> Vec<Fig10Point> {
    fig10_series_mode(sizes_elems, runs, false)
}

/// The Fig. 10 sweep driven by the region-burst controller instead of the
/// per-chunk FSM. The cycle model is shared, so the simulated bandwidth
/// matches [`fig10_series`]; this variant exists so the bench suite can
/// compare the host-side cost of the two controllers on identical sweeps.
pub fn fig10_series_burst(sizes_elems: &[usize], runs: usize) -> Vec<Fig10Point> {
    fig10_series_mode(sizes_elems, runs, true)
}

fn fig10_series_mode(sizes_elems: &[usize], runs: usize, burst: bool) -> Vec<Fig10Point> {
    sizes_elems
        .iter()
        .map(|&n| {
            let layout = StreamLayout::paper_geometry(n).expect("size within paper geometry");
            let mut app = if burst {
                StreamApp::new_burst(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ)
            } else {
                StreamApp::new(StreamOp::Copy, layout, PAPER_STREAM_FREQ_MHZ)
            }
            .expect("valid app");
            let a: Vec<f64> = (0..n).map(|k| k as f64).collect();
            let zeros = vec![0.0; n];
            app.load(&a, &zeros, &zeros).expect("load");
            let t = app.measure(runs);
            Fig10Point {
                copied_kb: (n * 8) as f64 / 1024.0,
                bandwidth_mbps: t.bandwidth_mbps,
                fraction_of_peak: t.fraction_of_peak(),
            }
        })
        .collect()
}

/// The default Fig. 10 x-axis: vector sizes from 4 KB to the paper's
/// ~680 KB maximum.
pub fn fig10_default_sizes() -> Vec<usize> {
    // Multiples of 512 elements (one logical row) up to 170 rows.
    [1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 160, 170]
        .iter()
        .map(|rows| rows * 512)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_format_is_aligned() {
        let t = StageTiming {
            cycles_per_run: 100,
            runs: 10,
            time_per_run_ns: 1133.3,
            bandwidth_mbps: 14_500.0,
            peak_mbps: 15_360.0,
        };
        let row = StreamRow::from_timing(StreamOp::Copy, &t);
        let s = row.format();
        assert!(s.starts_with("Copy"));
        assert!(s.contains("14500.0"));
        assert!(header().len() >= s.len() - 5);
    }

    #[test]
    fn fig10_series_rises_to_99_percent() {
        let pts = fig10_series(&[512, 8 * 512, 170 * 512], 1000);
        assert_eq!(pts.len(), 3);
        assert!(
            pts[0].bandwidth_mbps < pts[1].bandwidth_mbps
                && pts[1].bandwidth_mbps < pts[2].bandwidth_mbps,
            "bandwidth must rise with size"
        );
        assert!(pts[2].fraction_of_peak > 0.99, "paper headline");
        assert!((pts[2].copied_kb - 680.0).abs() < 1.0);
    }

    #[test]
    fn burst_series_matches_per_chunk_bandwidth() {
        let sizes = [8 * 512, 64 * 512];
        let chunked = fig10_series(&sizes, 10);
        let burst = fig10_series_burst(&sizes, 10);
        for (c, b) in chunked.iter().zip(&burst) {
            let rel = (c.bandwidth_mbps - b.bandwidth_mbps).abs() / c.bandwidth_mbps;
            assert!(
                rel < 0.02,
                "shared cycle model: {} vs {} MB/s",
                c.bandwidth_mbps,
                b.bandwidth_mbps
            );
        }
    }

    #[test]
    fn default_sizes_within_geometry() {
        for n in fig10_default_sizes() {
            assert!(n <= StreamLayout::PAPER_MAX_LEN);
            assert_eq!(n % 512, 0);
        }
    }
}
