//! `polymem-verify` CLI: run the static analyses, print findings, write
//! `VERIFY_report.json`, gate CI via the exit code.

use polymem::json::Json;
use polymem::theory::PairProof;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use verifier::findings::{findings_json, Finding, Severity};
use verifier::{inject, lint, locks, plans, races, schemes, streams, telemetry};

/// Analysis passes selectable as positional arguments.
const PASSES: &[&str] = &[
    "schemes",
    "plans",
    "locks",
    "streams",
    "telemetry",
    "lint",
    "races",
];

struct Options {
    root: PathBuf,
    report: Option<PathBuf>,
    deny_warnings: bool,
    inject: bool,
    passes: Vec<String>,
}

impl Options {
    /// Whether the named pass should run (no filter = run everything).
    fn selected(&self, pass: &str) -> bool {
        self.passes.is_empty() || self.passes.iter().any(|p| p == pass)
    }
}

fn usage(code: u8) -> ExitCode {
    eprintln!(
        "polymem-verify: static conflict-freedom, plan-soundness and lock-order analyzer\n\
         \n\
         USAGE: polymem-verify [--deny-warnings] [--inject] [--root <dir>] [--report <file>] [PASS..]\n\
         \n\
           --deny-warnings   exit non-zero on warnings as well as errors\n\
           --inject          run the mutation suite instead of the analyses;\n\
                             exits non-zero unless every seeded violation is caught\n\
         --root <dir>       repository root (default: auto-detected)\n\
         --report <file>    report path (default: <root>/VERIFY_report.json)\n\
         PASS              run only the named pass(es): schemes, plans, locks,\n\
                           streams, telemetry, lint, races. Filtered runs do not\n\
                           write the default report (pass --report to get one)."
    );
    ExitCode::from(code)
}

fn detect_root() -> PathBuf {
    let marker = "crates/polymem/src/concurrent.rs";
    if Path::new(marker).exists() {
        return PathBuf::from(".");
    }
    let from_manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if from_manifest.join(marker).exists() {
        return from_manifest;
    }
    PathBuf::from(".")
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        root: detect_root(),
        report: None,
        deny_warnings: false,
        inject: false,
        passes: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-warnings" => opts.deny_warnings = true,
            "--inject" => opts.inject = true,
            "--root" => match args.next() {
                Some(dir) => opts.root = PathBuf::from(dir),
                None => return Err(usage(2)),
            },
            "--report" => match args.next() {
                Some(file) => opts.report = Some(PathBuf::from(file)),
                None => return Err(usage(2)),
            },
            "--help" | "-h" => return Err(usage(0)),
            other if PASSES.contains(&other) => opts.passes.push(other.to_string()),
            other => {
                eprintln!("unknown argument `{other}`\n");
                return Err(usage(2));
            }
        }
    }
    Ok(opts)
}

fn pairs_json(pairs: &[PairProof]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("scheme".into(), Json::s(r.scheme.to_string())),
                    ("pattern".into(), Json::s(r.pattern.to_string())),
                    ("p".into(), Json::Int(r.p as i128)),
                    ("q".into(), Json::Int(r.q as i128)),
                    ("supported".into(), Json::Bool(r.claimed)),
                    ("aligned_only".into(), Json::Bool(r.aligned_only)),
                    ("classes".into(), Json::Int(r.classes as i128)),
                    ("admissible".into(), Json::Int(r.admissible as i128)),
                    (
                        "conflict_classes".into(),
                        Json::Int(r.conflicts.len() as i128),
                    ),
                    ("worst_cycles".into(), Json::Int(r.worst_cycles as i128)),
                ])
            })
            .collect(),
    )
}

fn plans_json(out: &plans::PlansOutput) -> Json {
    let mut fields = vec![
        ("access_plans".into(), Json::Int(out.access_plans.into())),
        ("region_plans".into(), Json::Int(out.region_plans.into())),
        ("keys".into(), Json::Int(out.keys.into())),
        (
            "hash_collisions".into(),
            Json::Int(out.hash_collisions.into()),
        ),
    ];
    if let Some(cap) = &out.cap_stats {
        fields.push((
            "capacity_exercise".into(),
            Json::Obj(vec![
                ("capacity".into(), Json::Int(cap.capacity as i128)),
                ("entries".into(), Json::Int(cap.entries as i128)),
                ("hits".into(), Json::Int(cap.hits.into())),
                ("misses".into(), Json::Int(cap.misses.into())),
                ("evictions".into(), Json::Int(cap.evictions.into())),
                ("bytes".into(), Json::Int(cap.bytes.into())),
            ]),
        ));
    }
    Json::Obj(fields)
}

fn locks_json(graph: &locks::LockGraph) -> Json {
    Json::Obj(vec![
        ("functions".into(), Json::Int(graph.functions as i128)),
        (
            "acquisitions".into(),
            Json::Int(graph.acquisitions.len() as i128),
        ),
        ("spawns".into(), Json::Int(graph.spawns as i128)),
        (
            "edges".into(),
            Json::Arr(
                graph
                    .edges
                    .iter()
                    .map(|e| {
                        Json::Obj(vec![
                            ("from".into(), Json::s(e.from.name())),
                            ("to".into(), Json::s(e.to.name())),
                            ("location".into(), Json::s(&e.location)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn streams_json(reports: &[streams::GraphReport]) -> Json {
    Json::Arr(
        reports
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("design".into(), Json::s(r.label)),
                    ("kernels".into(), Json::Int(r.kernels as i128)),
                    ("streams".into(), Json::Int(r.streams as i128)),
                    ("registered".into(), Json::Int(r.registered as i128)),
                    ("cyclic".into(), Json::Bool(r.cyclic)),
                ])
            })
            .collect(),
    )
}

fn telemetry_json(out: &telemetry::TelemetryGuardReport) -> Json {
    Json::Obj(vec![
        (
            "storage_guard_scopes".into(),
            Json::Int(out.storage_guard_scopes as i128),
        ),
        (
            "telemetry_sites".into(),
            Json::Int(out.telemetry_sites as i128),
        ),
        ("atomic_sites".into(), Json::Int(out.atomic_sites as i128)),
        ("locked_sites".into(), Json::Int(out.locked_sites as i128)),
        ("owned_ops".into(), Json::Int(out.owned_ops as i128)),
        ("trace_sites".into(), Json::Int(out.trace_sites as i128)),
        (
            "trace_in_guard".into(),
            Json::Int(out.trace_in_guard as i128),
        ),
        (
            "trace_alloc_sites".into(),
            Json::Int(out.trace_alloc_sites as i128),
        ),
        (
            "spans_validated".into(),
            Json::Int(out.spans_validated as i128),
        ),
        (
            "unbalanced_spans".into(),
            Json::Int(out.unbalanced_spans as i128),
        ),
    ])
}

fn lint_json(out: &lint::LintOutput) -> Json {
    Json::Obj(vec![
        (
            "functions_checked".into(),
            Json::Int(out.functions_checked as i128),
        ),
        ("tokens_found".into(), Json::Int(out.tokens_found as i128)),
        ("allowed".into(), Json::Int(out.allowed as i128)),
    ])
}

fn mutations_json(mutations: &[inject::Mutation]) -> Json {
    Json::Arr(
        mutations
            .iter()
            .map(|m| {
                Json::Obj(vec![
                    ("name".into(), Json::s(m.name)),
                    ("hazard".into(), Json::s(m.hazard)),
                    ("pass".into(), Json::s(m.pass)),
                    ("expected_code".into(), Json::s(m.expected_code)),
                    ("caught".into(), Json::Bool(m.caught)),
                    ("detail".into(), Json::s(&m.detail)),
                ])
            })
            .collect(),
    )
}

fn races_json(out: &races::RacesOutput) -> Json {
    Json::Obj(vec![
        ("files".into(), Json::Int(out.files as i128)),
        ("atomic_sites".into(), Json::Int(out.atomic_sites as i128)),
        (
            "contract_rules".into(),
            Json::Int(out.contract_rules as i128),
        ),
        ("unsafe_blocks".into(), Json::Int(out.unsafe_blocks as i128)),
    ])
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(code) => return code,
    };
    let mut findings: Vec<Finding> = Vec::new();
    let mut sections: Vec<(String, Json)> = vec![
        ("tool".into(), Json::s("polymem-verify")),
        (
            "mode".into(),
            Json::s(if opts.inject { "inject" } else { "analyze" }),
        ),
    ];

    if opts.inject {
        println!("polymem-verify --inject: seeding violations the analyzer must catch");
        let mutations = inject::run(&opts.root, &mut findings);
        for m in &mutations {
            println!(
                "  [{}] {} hazard={} caught-by={} expects={}: {}",
                if m.caught { "caught" } else { "MISSED" },
                m.name,
                m.hazard,
                m.pass,
                m.expected_code,
                m.detail
            );
        }
        let uncaught: Vec<&str> = mutations
            .iter()
            .filter(|m| !m.caught)
            .map(|m| m.name)
            .collect();
        let caught = mutations.len() - uncaught.len();
        if uncaught.is_empty() {
            println!("  {caught}/{} seeded mutations caught", mutations.len());
        } else {
            println!(
                "  {caught}/{} seeded mutations caught; UNCAUGHT: {}",
                mutations.len(),
                uncaught.join(", ")
            );
        }
        sections.push(("mutations".into(), mutations_json(&mutations)));
    } else {
        println!("polymem-verify: exhaustive static verification by residue-class periodicity");
        if !opts.passes.is_empty() {
            println!("  (pass filter: {})", opts.passes.join(", "));
        }

        if opts.selected("schemes") {
            let pairs = schemes::run(&mut findings);
            let proven = pairs
                .iter()
                .filter(|r| r.claimed && r.conflicts.is_empty())
                .count();
            let claimed = pairs.iter().filter(|r| r.claimed).count();
            let classes: u64 = pairs.iter().map(|r| r.classes as u64).sum();
            println!(
                "  schemes: {proven}/{claimed} claimed (scheme, pattern, geometry) pairs proven \
                 conflict-free over {classes} residue classes"
            );
            sections.push(("schemes".into(), pairs_json(&pairs)));
        }

        if opts.selected("plans") {
            let plan_out = plans::run(&mut findings);
            println!(
                "  plans:   {} access plans and {} region plans compiled, validated and \
                 cross-checked against the MAF/addressing model",
                plan_out.access_plans, plan_out.region_plans
            );
            sections.push(("plans".into(), plans_json(&plan_out)));
        }

        // The telemetry guard-scope pass consumes the lock graph; build it
        // quietly (no lock findings) when `locks` itself is filtered out.
        let graph = if opts.selected("locks") {
            let graph = locks::run(&opts.root, &mut findings);
            println!(
                "  locks:   {} acquisitions in {} functions, {} nesting edge(s), graph acyclic, \
                 {} spawn site(s) in the datapath",
                graph.acquisitions.len(),
                graph.functions,
                graph.edges.len(),
                graph.spawns
            );
            sections.push(("locks".into(), locks_json(&graph)));
            Some(graph)
        } else if opts.selected("telemetry") {
            let mut scratch = Vec::new();
            Some(locks::run(&opts.root, &mut scratch))
        } else {
            None
        };

        if opts.selected("streams") {
            let stream_reports = streams::check_all(&mut findings);
            let total_streams: usize = stream_reports.iter().map(|r| r.streams).sum();
            let total_registered: usize = stream_reports.iter().map(|r| r.registered).sum();
            println!(
                "  streams: {} declared design graph(s), {} stream(s) ({} register-backed), \
                 wait graphs acyclic — no static deadlock",
                stream_reports.len(),
                total_streams,
                total_registered
            );
            sections.push(("streams".into(), streams_json(&stream_reports)));
        }

        if opts.selected("telemetry") {
            let graph = graph.as_ref().expect("lock graph built above");
            let tlm_out = telemetry::run(&opts.root, graph, &mut findings);
            println!(
                "  telemetry: {} storage-guard scope(s) scanned, {} atomic counter site(s) \
                 verified lock-free, {} registry call(s) under a guard, {} owned op(s)",
                tlm_out.storage_guard_scopes,
                tlm_out.atomic_sites,
                tlm_out.locked_sites,
                tlm_out.owned_ops
            );
            println!(
                "  tracing: {} emission site(s) audited ({} under a guard, {} allocating), \
                 {} live span(s) validated, {} unbalanced",
                tlm_out.trace_sites,
                tlm_out.trace_in_guard,
                tlm_out.trace_alloc_sites,
                tlm_out.spans_validated,
                tlm_out.unbalanced_spans
            );
            sections.push(("telemetry".into(), telemetry_json(&tlm_out)));
        }

        if opts.selected("lint") {
            let lint_out = lint::run(&opts.root, &mut findings);
            println!(
                "  lint:    {} hot functions scanned, {} panicking token(s) found, {} allowed",
                lint_out.functions_checked, lint_out.tokens_found, lint_out.allowed
            );
            sections.push(("lint".into(), lint_json(&lint_out)));
        }

        if opts.selected("races") {
            let races_out = races::run(&opts.root, &mut findings);
            println!(
                "  races:   {} atomic site(s) in {} file(s) checked against {} contract rule(s), \
                 {} unsafe block(s) audited",
                races_out.atomic_sites,
                races_out.files,
                races_out.contract_rules,
                races_out.unsafe_blocks,
            );
            sections.push(("races".into(), races_json(&races_out)));
        }
    }

    // Deterministic report ordering: severity (desc), then every stable key.
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.analysis.cmp(b.analysis))
            .then_with(|| a.code.cmp(b.code))
            .then_with(|| a.location.cmp(&b.location))
            .then_with(|| a.message.cmp(&b.message))
    });
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    let warnings = findings
        .iter()
        .filter(|f| f.severity == Severity::Warning)
        .count();
    let infos = findings
        .iter()
        .filter(|f| f.severity == Severity::Info)
        .count();
    if !findings.is_empty() {
        println!();
        for f in &findings {
            println!("{}", f.render());
        }
    }

    let failed = errors > 0 || (opts.deny_warnings && warnings > 0);
    sections.push((
        "summary".into(),
        Json::Obj(vec![
            ("errors".into(), Json::Int(errors as i128)),
            ("warnings".into(), Json::Int(warnings as i128)),
            ("infos".into(), Json::Int(infos as i128)),
            ("deny_warnings".into(), Json::Bool(opts.deny_warnings)),
            (
                "verdict".into(),
                Json::s(if failed { "fail" } else { "pass" }),
            ),
        ]),
    ));
    sections.push(("findings".into(), findings_json(&findings)));

    // A filtered run covers only part of the surface: never clobber the
    // committed full report with it unless a path was given explicitly.
    let report_path = match (&opts.report, opts.passes.is_empty()) {
        (Some(path), _) => Some(path.clone()),
        (None, true) => Some(opts.root.join("VERIFY_report.json")),
        (None, false) => None,
    };
    if let Some(path) = &report_path {
        let report = Json::Obj(sections).to_pretty();
        if let Err(e) = std::fs::write(path, report) {
            eprintln!("cannot write report to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    println!(
        "\n{}: {errors} error(s), {warnings} warning(s), {infos} info(s); {}",
        if failed { "FAIL" } else { "PASS" },
        match &report_path {
            Some(path) => format!("report at {}", path.display()),
            None => "no report written (filtered run; pass --report to write one)".into(),
        }
    );
    ExitCode::from(u8::from(failed))
}
