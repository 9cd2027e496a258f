//! **Table I** — the PRF memory access schemes and their conflict-free
//! patterns, *verified in-process*: every claimed (scheme, pattern) pair is
//! proved over all origin residue classes (so at every position) by
//! [`polymem::theory::prove_pair`] before being printed.

use polymem::theory::verify_table1;
use polymem::{AccessPattern, AccessScheme};
use polymem_bench::render_table;

pub fn run() {
    let (p, q) = (2, 4);
    let verified = verify_table1(p, q);

    println!("Table I: PRF access schemes (verified on a {p}x{q} bank grid)\n");
    let headers: Vec<&str> = std::iter::once("Scheme")
        .chain(AccessPattern::ALL.iter().map(|pat| pat.name()))
        .collect();
    let rows: Vec<Vec<String>> = verified
        .iter()
        .map(|(scheme, pats)| {
            let mut row = vec![scheme.name().to_string()];
            for pat in AccessPattern::ALL {
                let mark = if pats.contains(&pat) {
                    if scheme.requires_alignment(pat) {
                        "aligned"
                    } else {
                        "yes"
                    }
                } else {
                    "-"
                };
                row.push(mark.to_string());
            }
            row
        })
        .collect();
    println!("{}", render_table(&headers, &rows));

    println!("Paper Table I claims:");
    for scheme in AccessScheme::ALL {
        let claimed: Vec<&str> = scheme
            .supported_patterns(p, q)
            .iter()
            .map(|pt| pt.name())
            .collect();
        println!("  {:<5} {}", scheme.name(), claimed.join(", "));
    }
    let all_match = verified
        .iter()
        .all(|(s, pats)| *pats == s.supported_patterns(p, q));
    println!(
        "\nVerification: every claimed pattern checked conflict-free at every position: {}",
        if all_match { "PASS" } else { "FAIL" }
    );
    assert!(all_match);
}
