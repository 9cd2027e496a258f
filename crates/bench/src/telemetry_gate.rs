//! The CI telemetry-schema gate.
//!
//! The repo commits `TELEMETRY_schema.json` — the set of metric IDs the
//! unified telemetry layer must export (name + kind). CI runs `polymem-top
//! --json --schema TELEMETRY_schema.json` on a small workload; a metric
//! that disappears (renamed counter, dropped instrumentation point) fails
//! the step, the same contract the bench gate enforces for baselines.
//!
//! The schema is deliberately a *floor*, not an exact match: new metrics
//! may appear freely (they get added to the schema when they become load
//! bearing), but nothing listed may vanish or change kind.

use polymem::json::{self, Json};
use polymem::telemetry::{SampleValue, TelemetrySnapshot};

/// One required metric: its stable name and expected kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaEntry {
    /// Metric name (`polymem_reads_total`, ...).
    pub name: String,
    /// Expected kind: `counter`, `gauge` or `histogram`.
    pub kind: String,
}

/// Parse `TELEMETRY_schema.json`: a `required` array of
/// `{"name": ..., "kind": ...}` objects. Other top-level and per-entry
/// fields are ignored, so the file can carry documentation.
pub fn parse_schema(text: &str) -> Result<Vec<SchemaEntry>, String> {
    let doc = json::parse(text)?;
    let required = doc
        .get("required")
        .and_then(Json::as_arr)
        .ok_or("schema has no `required` array")?;
    let mut out = Vec::with_capacity(required.len());
    for (n, entry) in required.iter().enumerate() {
        let field = |key: &str| {
            entry
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("required[{n}]: missing string `{key}`"))
        };
        let name = field("name")?;
        let kind = field("kind")?;
        if !matches!(kind, "counter" | "gauge" | "histogram") {
            return Err(format!("{name}: unknown kind {kind:?}"));
        }
        out.push(SchemaEntry {
            name: name.to_string(),
            kind: kind.to_string(),
        });
    }
    if out.is_empty() {
        return Err("schema lists no required metrics".to_string());
    }
    Ok(out)
}

fn kind_of(v: &SampleValue) -> &'static str {
    match v {
        SampleValue::Counter(_) => "counter",
        SampleValue::Gauge(_) => "gauge",
        SampleValue::Histogram(_) => "histogram",
    }
}

/// Check a snapshot against the schema. Returns one message per problem
/// (missing metric ID, or a metric exported under a different kind);
/// empty means the snapshot satisfies the schema.
pub fn check(snapshot: &TelemetrySnapshot, schema: &[SchemaEntry]) -> Vec<String> {
    let mut problems = Vec::new();
    for entry in schema {
        let found: Vec<&'static str> = snapshot
            .metrics
            .iter()
            .filter(|m| m.name == entry.name)
            .map(|m| kind_of(&m.value))
            .collect();
        if found.is_empty() {
            problems.push(format!(
                "MISSING   {}: required {} not exported",
                entry.name, entry.kind
            ));
        } else if !found.iter().all(|&k| k == entry.kind) {
            problems.push(format!(
                "KIND      {}: schema says {}, exported as {}",
                entry.name, entry.kind, found[0]
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymem::TelemetryRegistry;

    const SCHEMA: &str = r#"{
      "version": 1,
      "required": [
        {"name": "polymem_reads_total", "kind": "counter"},
        {"name": "fifo_depth", "kind": "gauge"},
        {"name": "pass_cycles", "kind": "histogram"}
      ]
    }"#;

    fn populated_registry() -> TelemetryRegistry {
        static BOUNDS: [u64; 2] = [10, 100];
        let reg = TelemetryRegistry::new();
        reg.counter("polymem_reads_total", vec![("port", "0".into())])
            .inc();
        reg.gauge("fifo_depth", vec![]).add(3);
        reg.histogram("pass_cycles", vec![], &BOUNDS).observe(42);
        reg
    }

    #[test]
    fn parses_committed_style_schema() {
        let entries = parse_schema(SCHEMA).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].name, "polymem_reads_total");
        assert_eq!(entries[2].kind, "histogram");
    }

    #[test]
    fn rejects_unknown_kind_and_empty_schema() {
        assert!(parse_schema(r#"{"required":[{"name":"x","kind":"meter"}]}"#).is_err());
        assert!(parse_schema(r#"{"required":[]}"#).is_err());
        // A truncated file must fail, not shrink the gate to what survived.
        assert!(parse_schema(r#"{"required": [{"name": "a", "kind": "counter"}"#).is_err());
    }

    #[test]
    fn complete_snapshot_passes() {
        let snap = populated_registry().snapshot();
        let schema = parse_schema(SCHEMA).unwrap();
        assert!(check(&snap, &schema).is_empty());
    }

    #[test]
    fn missing_metric_id_fails() {
        let reg = populated_registry();
        let schema = parse_schema(SCHEMA).unwrap();
        let mut snap = reg.snapshot();
        snap.metrics.retain(|m| m.name != "fifo_depth");
        let problems = check(&snap, &schema);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("MISSING") && problems[0].contains("fifo_depth"));
    }

    #[test]
    fn kind_drift_fails() {
        let reg = populated_registry();
        // Re-export the histogram name as a counter: the gate must notice.
        reg.counter("pass_cycles", vec![]).inc();
        let mut snap = reg.snapshot();
        snap.metrics
            .retain(|m| m.name != "pass_cycles" || matches!(m.value, SampleValue::Counter(_)));
        let schema = parse_schema(SCHEMA).unwrap();
        let problems = check(&snap, &schema);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("KIND"), "{problems:?}");
    }

    #[test]
    fn schema_check_survives_json_round_trip() {
        let snap = populated_registry().snapshot();
        let round = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(round, snap);
        let schema = parse_schema(SCHEMA).unwrap();
        assert!(check(&round, &schema).is_empty());
    }

    #[test]
    fn committed_schema_file_is_valid_and_satisfiable() {
        // The real committed schema must parse, and a small instrumented
        // STREAM run must satisfy it — the exact check CI performs through
        // `polymem-top --json --schema`.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .to_path_buf();
        let text = std::fs::read_to_string(root.join("TELEMETRY_schema.json")).unwrap();
        let schema = parse_schema(&text).unwrap();
        assert!(schema.len() >= 10, "schema should pin the core metric set");

        use stream_bench::app::StreamApp;
        use stream_bench::layout::StreamLayout;
        use stream_bench::op::StreamOp;
        let layout = StreamLayout::new(512, 64, 2, 4, polymem::AccessScheme::RoCo, 2).unwrap();
        let mut app = StreamApp::new_burst(StreamOp::Copy, layout, 120.0).unwrap();
        let reg = TelemetryRegistry::new();
        app.attach_telemetry(&reg);
        let vals: Vec<f64> = (0..512).map(|k| k as f64).collect();
        app.load(&vals, &vals, &vals).unwrap();
        app.run_pass();
        let problems = check(&reg.snapshot(), &schema);
        assert!(problems.is_empty(), "{problems:?}");
    }
}
