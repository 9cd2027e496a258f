//! **Table II** — productivity analysis. The paper reports per-module MaxJ
//! effort (days) and LOC; the reproduction reports the LOC of our Rust
//! equivalent of each Fig. 3 block side by side with the paper's MaxJ LOC.
//! (Effort-in-days has no Rust analogue and is shown for the paper only.)

use polymem_bench::render_table;

/// Count non-empty, non-`//` lines — a rough LOC in the spirit of Table II.
fn loc(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("//!"))
        .count()
}

pub fn run() {
    // (paper module, paper effort days, paper MaxJ LOC, our module, our source)
    let rows_data: [(&str, u32, u32, &str, &str); 7] = [
        (
            "AGU",
            2,
            194,
            "polymem/src/agu.rs",
            include_str!("../../../../polymem/src/agu.rs"),
        ),
        (
            "A",
            3,
            292,
            "polymem/src/addressing.rs",
            include_str!("../../../../polymem/src/addressing.rs"),
        ),
        (
            "Shuffle",
            10,
            335,
            "polymem/src/shuffle.rs",
            include_str!("../../../../polymem/src/shuffle.rs"),
        ),
        (
            "M",
            4,
            399,
            "polymem/src/maf.rs",
            include_str!("../../../../polymem/src/maf.rs"),
        ),
        (
            "Memory banks",
            3,
            242,
            "polymem/src/banks.rs",
            include_str!("../../../../polymem/src/banks.rs"),
        ),
        (
            "Inv Shuffle",
            4,
            346,
            "polymem/src/shuffle.rs (gather)",
            "", // the inverse shuffle shares shuffle.rs; counted once above
        ),
        (
            "Multiple Read Ports",
            1,
            127,
            "polymem/src/mem.rs (ports)",
            include_str!("../../../../polymem/src/mem.rs"),
        ),
    ];

    println!("Table II: productivity analysis — paper's MaxJ vs this Rust reproduction\n");
    let headers = ["Module", "MaxJ days", "MaxJ LOC", "Rust module", "Rust LOC"];
    let mut total_maxj = 0u32;
    let mut total_rust = 0usize;
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|(module, days, maxj_loc, rust_mod, src)| {
            let rust_loc = loc(src);
            total_maxj += maxj_loc;
            total_rust += rust_loc;
            vec![
                module.to_string(),
                days.to_string(),
                maxj_loc.to_string(),
                rust_mod.to_string(),
                if src.is_empty() {
                    "(shared)".to_string()
                } else {
                    rust_loc.to_string()
                },
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    println!("Totals: paper MaxJ {total_maxj} LOC; Rust equivalents {total_rust} LOC");
    println!("(Rust counts include in-module unit tests; the paper's MaxJ counts do not.)");
}
