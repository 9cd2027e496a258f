//! `DSE_report.json`: the committed, byte-deterministic sweep artifact.
//!
//! Every float is rendered with a fixed decimal count ([`Json::num`]), every
//! collection is emitted in grid order (or claim-definition order), and
//! nothing host-dependent (worker count, timestamps, hostnames) enters the
//! document — the same contract `VERIFY_report.json` follows, enforced in CI
//! by `git diff --exit-code DSE_report.json` after a fresh `--quick` run.

use crate::claims::Claim;
use crate::engine::{EvalPoint, SweepResult};
use crate::pareto;
use polymem::json::Json;

/// Report schema identifier (bump on layout changes).
pub const SCHEMA: &str = "polymem-dse-report/v1";

fn point_json(p: &EvalPoint) -> Json {
    let mut fields = vec![
        ("size_kb".into(), Json::Int(p.size_kb as i128)),
        ("lanes".into(), Json::Int(p.lanes as i128)),
        ("read_ports".into(), Json::Int(p.read_ports as i128)),
        ("scheme".into(), Json::s(p.scheme.name())),
        ("feasible".into(), Json::Bool(p.feasible())),
        ("fmax_mhz".into(), Json::num(p.synth.fmax_mhz, 2)),
        (
            "bram_blocks".into(),
            Json::num(p.synth.resources.bram_blocks, 1),
        ),
        (
            "logic_pct".into(),
            Json::num(p.synth.utilization.logic_pct, 2),
        ),
        (
            "static_read_gbps".into(),
            Json::num(p.synth.read_bandwidth_gbps(), 3),
        ),
        (
            "static_write_gbps".into(),
            Json::num(p.synth.write_bandwidth_gbps(), 3),
        ),
    ];
    match &p.sim {
        Some(m) => {
            fields.push((
                "sim".into(),
                Json::Obj(vec![
                    ("cycles".into(), Json::Int(m.cycles.into())),
                    ("ideal_cycles".into(), Json::Int(m.ideal_cycles.into())),
                    ("efficiency".into(), Json::num(m.efficiency, 4)),
                    ("copy_gibps".into(), Json::num(m.copy_gibps, 3)),
                    ("read_gibps".into(), Json::num(m.read_gibps, 3)),
                ]),
            ));
        }
        None => fields.push(("sim".into(), Json::Null)),
    }
    Json::Obj(fields)
}

fn front_entry(p: &EvalPoint) -> Json {
    let o = pareto::objectives(p).expect("front point has objectives");
    Json::Obj(vec![
        ("size_kb".into(), Json::Int(p.size_kb as i128)),
        ("lanes".into(), Json::Int(p.lanes as i128)),
        ("read_ports".into(), Json::Int(p.read_ports as i128)),
        ("scheme".into(), Json::s(p.scheme.name())),
        ("read_gibps".into(), Json::num(o.read_gibps, 3)),
        ("bram_blocks".into(), Json::num(o.bram_blocks, 1)),
        ("fmax_mhz".into(), Json::num(o.fmax_mhz, 2)),
    ])
}

/// Render the full report text (with trailing newline).
pub fn render(result: &SweepResult, claims: &[Claim]) -> String {
    let front = pareto::front(&result.points);
    let feasible = result.feasible().count();

    let grid = Json::Obj(vec![
        (
            "sizes_kb".into(),
            Json::Arr(
                result
                    .grid
                    .sizes_kb
                    .iter()
                    .map(|&s| Json::Int(s as i128))
                    .collect(),
            ),
        ),
        (
            "lanes".into(),
            Json::Arr(
                result
                    .grid
                    .lanes
                    .iter()
                    .map(|&l| Json::Int(l as i128))
                    .collect(),
            ),
        ),
        (
            "read_ports".into(),
            Json::Arr(
                result
                    .grid
                    .read_ports
                    .iter()
                    .map(|&p| Json::Int(p as i128))
                    .collect(),
            ),
        ),
        (
            "schemes".into(),
            Json::Arr(
                result
                    .grid
                    .schemes
                    .iter()
                    .map(|s| Json::s(s.name()))
                    .collect(),
            ),
        ),
        ("cells".into(), Json::Int(result.grid.len() as i128)),
    ]);

    let skipped = Json::Arr(
        result
            .skipped
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("size_kb".into(), Json::Int(s.size_kb as i128)),
                    ("lanes".into(), Json::Int(s.lanes as i128)),
                    ("read_ports".into(), Json::Int(s.read_ports as i128)),
                    ("scheme".into(), Json::s(s.scheme.name())),
                    ("reason".into(), Json::s(&s.reason)),
                ])
            })
            .collect(),
    );

    let scheduler = Json::Obj(vec![
        (
            "ticked_cycles".into(),
            Json::Int(result.sched.ticked_cycles.into()),
        ),
        ("jumps".into(), Json::Int(result.sched.jumps.into())),
        (
            "skipped_cycles".into(),
            Json::Int(result.sched.skipped_cycles.into()),
        ),
    ]);

    let claims_json = Json::Arr(
        claims
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("id".into(), Json::s(c.id)),
                    ("description".into(), Json::s(c.description)),
                    ("holds".into(), Json::Bool(c.holds)),
                    ("details".into(), Json::s(&c.details)),
                ])
            })
            .collect(),
    );

    let doc = Json::Obj(vec![
        ("schema".into(), Json::s(SCHEMA)),
        ("device".into(), Json::s(result.device_name)),
        ("grid".into(), grid),
        ("sim_chunks".into(), Json::Int(result.sim_chunks as i128)),
        (
            "points_evaluated".into(),
            Json::Int(result.points.len() as i128),
        ),
        ("points_feasible".into(), Json::Int(feasible as i128)),
        ("points_skipped".into(), skipped),
        ("scheduler".into(), scheduler),
        (
            "pareto_front".into(),
            Json::Arr(
                front
                    .iter()
                    .map(|&i| front_entry(&result.points[i]))
                    .collect(),
            ),
        ),
        ("claims".into(), claims_json),
        (
            "points".into(),
            Json::Arr(result.points.iter().map(point_json).collect()),
        ),
    ]);
    doc.to_pretty()
}

#[cfg(test)]
mod tests {
    use crate::claims;
    use crate::engine::{sweep, SweepConfig};
    use polymem::telemetry::TelemetryRegistry;

    #[test]
    fn report_renders_and_rerenders_identically() {
        let r = sweep(
            &SweepConfig::quick().with_workers(2),
            &TelemetryRegistry::new(),
        );
        let c = claims::evaluate(&r);
        let a = super::render(&r, &c);
        let b = super::render(&r, &c);
        assert_eq!(a, b);
        assert!(a.starts_with("{\n"));
        assert!(a.ends_with("}\n"));
        assert!(a.contains("\"schema\": \"polymem-dse-report/v1\""));
        assert!(a.contains("\"pareto_front\""));
        // No host-dependent fields.
        assert!(!a.contains("worker"));
    }
}
