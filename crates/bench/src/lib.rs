//! # polymem-bench — the experiment harness
//!
//! One front end, `polymem-repro <experiment>`, regenerates every table and
//! figure of the paper (see `src/bin/polymem-repro/`), beside Criterion
//! benches measuring the Rust PolyMem as a CPU-side data structure
//! (`benches/`). This library holds the shared plumbing: the DSE grid
//! labels, grid-point lookups and fixed-width table rendering.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gate;
pub mod telemetry_gate;
pub mod toolchain;

use fpga_model::{DsePoint, TABLE4_COLUMNS};
use polymem::AccessScheme;

/// The column label used in the paper's figures:
/// `"<capacity KB>,<lanes>,<ports>"`.
pub fn grid_label(size_kb: usize, lanes: usize, ports: usize) -> String {
    format!("{size_kb},{lanes}L,{ports}P")
}

/// Render a fixed-width table: a header row plus data rows.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    fn fmt_row<S: AsRef<str>>(cells: &[S], widths: &[usize]) -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{:>w$}", c.as_ref()))
            .collect::<Vec<_>>()
            .join("  ")
    }
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = fmt_row(headers, &widths);
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// The point of `points` with `scheme` at `(size_kb, lanes, read_ports)`,
/// if the sweep reached it.
pub fn find_point(
    points: &[DsePoint],
    scheme: AccessScheme,
    at: (usize, usize, usize),
) -> Option<&DsePoint> {
    points
        .iter()
        .find(|p| p.scheme == scheme && (p.size_kb, p.lanes, p.read_ports) == at)
}

/// The smallest and largest `metric` over the feasible points (the largest
/// is at least 0).
pub fn feasible_range(points: &[DsePoint], metric: impl Fn(&DsePoint) -> f64) -> (f64, f64) {
    points
        .iter()
        .filter(|p| p.report.feasible)
        .map(metric)
        .fold((f64::INFINITY, 0.0), |(lo, hi), u| (lo.min(u), hi.max(u)))
}

/// Render one metric of the paper-grid DSE points as a
/// scheme-by-configuration table (the layout of the paper's Table IV and
/// Figures 4-8); a cell the sweep did not reach reads `-`.
pub fn scheme_by_config_table<F: Fn(&DsePoint) -> String>(
    points: &[DsePoint],
    metric: F,
) -> String {
    let labels = TABLE4_COLUMNS.map(|(kb, lanes, ports)| grid_label(kb, lanes, ports));
    let mut headers = vec!["Scheme"];
    headers.extend(labels.iter().map(String::as_str));
    let rows: Vec<Vec<String>> = AccessScheme::ALL
        .iter()
        .map(|&scheme| {
            std::iter::once(scheme.name().to_string())
                .chain(TABLE4_COLUMNS.iter().map(|&at| {
                    find_point(points, scheme, at).map_or_else(|| "-".to_string(), &metric)
                }))
                .collect()
        })
        .collect();
    render_table(&headers, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(grid_label(512, 8, 1), "512,8L,1P");
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["A", "BBB"],
            &[
                vec!["1".into(), "2".into()],
                vec!["10".into(), "200".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[3].ends_with("200"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = render_table(&["A"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn scheme_table_covers_paper_grid() {
        let pts = fpga_model::explore_paper();
        let table = scheme_by_config_table(&pts, |p| format!("{:.0}", p.report.fmax_mhz));
        let rows: Vec<Vec<&str>> = table
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(rows[0].len(), 19); // Scheme + 18 configs
        assert_eq!(rows.len(), 2 + 5); // header, rule, one row per scheme
        assert!(rows[2..].iter().all(|r| !r[1..].contains(&"-")));
    }
}
