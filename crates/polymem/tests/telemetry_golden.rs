//! Golden-file tests for the telemetry exporters.
//!
//! A fixed registry is exported through both wire formats and compared
//! byte-for-byte against the committed files in `testdata/`. The goldens
//! pin the exposition formats themselves — metric ordering, label
//! rendering, histogram bucket layout, escaping — so an accidental format
//! change fails loudly instead of silently breaking downstream scrapers.
//!
//! After an *intentional* format change, regenerate with:
//!
//! ```text
//! TELEMETRY_BLESS=1 cargo test -p polymem --test telemetry_golden
//! ```
#![cfg(not(feature = "telemetry-off"))]

use polymem::telemetry::{TelemetryRegistry, TelemetrySnapshot};
use std::path::PathBuf;

/// A registry with one of everything, at fixed values: two labelled
/// counters, a counter with a fold-in base, a (negative) gauge and a
/// histogram with observations below, inside and above its bounds.
fn golden_registry() -> TelemetryRegistry {
    static BOUNDS: [u64; 3] = [10, 100, 1000];
    let reg = TelemetryRegistry::new();
    reg.counter("polymem_reads_total", vec![("port", "0".into())])
        .add(41);
    reg.counter("polymem_reads_total", vec![("port", "1".into())])
        .add(7);
    let base = reg.counter("polymem_uniform_accesses_total", vec![]);
    base.add(5);
    reg.counter_with_base(
        "polymem_bank_elements_total",
        vec![("bank", "0".into())],
        &base,
    )
    .add(3);
    reg.gauge("stream_burst_credit", vec![("op", "Copy".into())])
        .set(-2);
    let h = reg.histogram("stream_pass_cycles", vec![("op", "Copy".into())], &BOUNDS);
    h.observe(4);
    h.observe(64);
    h.observe(64);
    h.observe(5000);
    reg
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("testdata")
        .join(name)
}

/// Compare `actual` against the committed golden, or rewrite it when
/// `TELEMETRY_BLESS` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("TELEMETRY_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); see module docs", path.display()));
    assert_eq!(
        actual, expected,
        "{name} drifted from the committed golden; if intentional, re-bless (see module docs)"
    );
}

#[test]
fn json_export_matches_committed_golden() {
    assert_golden(
        "telemetry_golden.json",
        &golden_registry().snapshot().to_json(),
    );
}

#[test]
fn prometheus_export_matches_committed_golden() {
    assert_golden(
        "telemetry_golden.prom",
        &golden_registry().snapshot().to_prometheus(),
    );
}

/// The committed JSON golden parses back into the exact snapshot the
/// fixed registry produces — a round trip against a file that has been
/// at rest, not just an in-memory echo.
#[test]
fn golden_json_round_trips_to_the_same_snapshot() {
    let text = std::fs::read_to_string(golden_path("telemetry_golden.json")).unwrap();
    let parsed = TelemetrySnapshot::from_json(&text).unwrap();
    assert_eq!(parsed, golden_registry().snapshot());
    // And the round trip is a fixed point: re-serializing reproduces the
    // golden byte-for-byte.
    assert_eq!(parsed.to_json(), text);
}
