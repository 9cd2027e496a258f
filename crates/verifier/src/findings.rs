//! Findings, severities, and their rendering for `VERIFY_report.json`
//! (a [`Json`] tree from the shared `polymem::json` codec).

use polymem::json::Json;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Observation worth recording (e.g. provable-but-unclaimed support).
    Info,
    /// Suspicious but not a soundness violation; fails `--deny-warnings`.
    Warning,
    /// A violated invariant; always fails the run.
    Error,
}

impl Severity {
    /// Lower-case name used in the report and human output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which analysis produced it (`schemes`, `plans`, `locks`, `lint`).
    pub analysis: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable code, e.g. `bank-conflict`.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Where it was found (geometry, residue class, file:line, ...).
    pub location: String,
}

impl Finding {
    /// Build a finding.
    pub fn new(
        analysis: &'static str,
        severity: Severity,
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            analysis,
            severity,
            code,
            message: message.into(),
            location: location.into(),
        }
    }

    /// One-line human rendering.
    pub fn render(&self) -> String {
        format!(
            "[{}] {}/{} at {}: {}",
            self.severity.name(),
            self.analysis,
            self.code,
            self.location,
            self.message
        )
    }
}

/// Render a finding list as a JSON array.
pub fn findings_json(findings: &[Finding]) -> Json {
    Json::Arr(
        findings
            .iter()
            .map(|f| {
                Json::Obj(vec![
                    ("analysis".into(), Json::s(f.analysis)),
                    ("severity".into(), Json::s(f.severity.name())),
                    ("code".into(), Json::s(f.code)),
                    ("location".into(), Json::s(&f.location)),
                    ("message".into(), Json::s(&f.message)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering_gates() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn finding_renders_all_parts() {
        let f = Finding::new(
            "schemes",
            Severity::Error,
            "bank-conflict",
            "ReO 2x4",
            "boom",
        );
        let r = f.render();
        assert!(r.contains("[error]"));
        assert!(r.contains("schemes/bank-conflict"));
        assert!(r.contains("ReO 2x4"));
    }
}
