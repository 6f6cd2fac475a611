//! Property tests for the telemetry diff engine: `diff(x, x)` must be
//! clean for the profile and metrics documents generated from *every*
//! sample program, under a manual clock (so the documents themselves are
//! bit-reproducible). The bench-document property lives in the bench
//! crate next to its renderer; the two-process property (independent
//! `maglog profile` runs diff clean) lives in the CLI tests, where no
//! concurrently running test shares the allocator's high-water mark.

use maglog_datalog::{parse_program, Program};
use maglog_engine::{
    alloc, diff_texts, parse_document, render_profile_json, DocKind, Edb, ManualClock, MetricsSink,
    MonotonicEngine, Strategy,
};

/// Installed so allocator-backed memory figures in the documents are
/// real rather than zero.
#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Every sample program, by (label, source).
fn sample_programs() -> Vec<(String, Program)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs");
    let mut out = Vec::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("programs directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mgl"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no sample programs found");
    for path in paths {
        let src = std::fs::read_to_string(&path).unwrap();
        let program = parse_program(&src).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        out.push((path.file_name().unwrap().to_string_lossy().into_owned(), program));
    }
    out
}

fn profile_doc(label: &str, program: &Program) -> String {
    let mut reports = Vec::new();
    for strategy in [Strategy::SemiNaive, Strategy::Naive, Strategy::Greedy] {
        let mut sink =
            MetricsSink::with_clock(program, strategy, Box::new(ManualClock::with_step(1)));
        MonotonicEngine::with_options(
            program,
            maglog_engine::EvalOptions {
                strategy,
                ..Default::default()
            },
        )
        .evaluate_with_sink(&Edb::new(), &mut sink)
        .unwrap_or_else(|e| panic!("{label} [{strategy:?}]: {e}"));
        reports.push(sink.finish());
    }
    render_profile_json(label, &reports)
}

fn metrics_doc(program: &Program) -> String {
    let mut sink = MetricsSink::new(program, Strategy::SemiNaive);
    MonotonicEngine::new(program)
        .evaluate_with_sink(&Edb::new(), &mut sink)
        .unwrap();
    sink.metric_set(&[]).render_openmetrics()
}

#[test]
fn profile_self_diff_is_clean_for_every_sample_program() {
    for (label, program) in sample_programs() {
        let doc = profile_doc(&label, &program);
        assert_eq!(parse_document(&doc).unwrap().kind(), DocKind::Profile);
        let report = diff_texts(&doc, &doc).unwrap();
        assert!(report.is_clean(), "{label}: {report:?}");
        assert!(report.compared > 0, "{label}: nothing compared");
        assert_eq!(report.unchanged, report.compared, "{label}");
        assert!(report.context.is_empty(), "{label}: {:?}", report.context);
    }
}

#[test]
fn metrics_self_diff_is_clean_for_every_sample_program() {
    for (label, program) in sample_programs() {
        let doc = metrics_doc(&program);
        assert_eq!(parse_document(&doc).unwrap().kind(), DocKind::Metrics);
        let report = diff_texts(&doc, &doc).unwrap();
        assert!(report.is_clean(), "{label}: {report:?}");
        assert!(report.compared > 0, "{label}: nothing compared");
    }
}

#[test]
fn cross_kind_diff_is_rejected() {
    let (label, program) = sample_programs().into_iter().next().unwrap();
    let profile = profile_doc(&label, &program);
    let metrics = metrics_doc(&program);
    let err = diff_texts(&profile, &metrics).unwrap_err();
    assert!(err.contains("kinds differ"), "{err}");
}

#[test]
fn a_doctored_counter_is_attributed_to_its_rule() {
    // Force a per-rule regression into a real profile document and check
    // the diff names the rule, not just the total.
    let (label, program) = sample_programs()
        .into_iter()
        .find(|(l, _)| l == "shortest_path.mgl")
        .unwrap();
    let doc = profile_doc(&label, &program);
    let doctored = doc.replacen("\"firings\": 9", "\"firings\": 14", 1);
    assert_ne!(doc, doctored, "fixture drifted: expected a 9-firing total");
    let report = diff_texts(&doc, &doctored).unwrap();
    assert!(!report.regressions.is_empty());
    assert!(report
        .regressions
        .iter()
        .all(|e| e.metric == "firings" && e.noise == 0.0));
}
