//! **Future-work demo (§VII)** — the application-to-configuration
//! toolchain: feed three application archetypes through trace analysis,
//! schedule optimization, configuration selection and synthesis, and print
//! the recommended PolyMem instantiation for each.

use polymem_bench::render_table;
use polymem_bench::toolchain::{recommend, Requirements};
use scheduler::AccessTrace;

pub fn run() {
    let apps: Vec<(&str, AccessTrace)> = vec![
        ("dense tile sweep", AccessTrace::block(0, 0, 16, 16)),
        ("row+column kernel", {
            let mut c: Vec<(usize, usize)> = (0..16).map(|j| (4usize, j)).collect();
            c.extend((0..16).map(|i| (i, 4usize)));
            AccessTrace::from_coords(c)
        }),
        ("stride-2 sparse sweep", AccessTrace::strided(8, 16, 2)),
    ];

    println!("PolyMem toolchain: application -> recommended configuration\n");
    let headers = [
        "Application",
        "Scheme",
        "Grid",
        "Accesses",
        "Speedup",
        "Eff.",
        "Fmax MHz",
        "Proj. GB/s",
    ];
    let mut rows = Vec::new();
    for (name, trace) in apps {
        match recommend(&Requirements {
            trace,
            capacity_bytes: 512 * 1024,
            read_ports: 2,
        }) {
            Ok(rec) => rows.push(vec![
                name.to_string(),
                rec.config.scheme.to_string(),
                format!("{}x{}", rec.config.p, rec.config.q),
                rec.schedule_len.to_string(),
                format!("{:.1}", rec.speedup),
                format!("{:.2}", rec.efficiency),
                format!("{:.0}", rec.synthesis.fmax_mhz),
                format!("{:.1}", rec.projected_mbps / 1000.0),
            ]),
            Err(e) => {
                let mut row = vec![name.to_string(), format!("ERROR: {e}")];
                row.resize(headers.len(), String::new());
                rows.push(row);
            }
        }
    }
    println!("{}", render_table(&headers, &rows));
    println!("Each recommendation is schedule-proven (branch-and-bound) and synthesis-checked.");
}
