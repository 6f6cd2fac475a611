//! Smoke, determinism and failure-accounting tests of the benchmark,
//! through the library entry point with small request counts.

use maglog_engine::jsonish::{self, JsonValue};
use maglog_engine::validate_chrome_trace;
use maglog_reqbench::workloads::{
    Answer, Instrument, Pass, Request, Served, Spec, Workload, SPECS,
};
use maglog_reqbench::{
    render_result_line, run, Budget, Config, Report, END_TO_END, PER_LAYER, RUN_SECONDS,
};

fn small(seed: u64) -> Config {
    Config {
        seed,
        budget: Budget::Requests(3),
        setups: 1,
        trace: true,
        warmup: Some(1),
        traced: Some(2),
        instances: Some(2),
    }
}

fn every_workload() -> Vec<&'static Spec> {
    SPECS.iter().collect()
}

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    jsonish::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric a section of `BENCHMARK.json` lists.
fn listed(doc: &JsonValue, section: &str) -> Vec<(String, String)> {
    let field = |m: &JsonValue, k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
    doc.get(section)
        .and_then(|v| v.as_arr())
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let doc = benchmark_json();
    let defs = |defs: &[maglog_reqbench::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into()))
            .collect()
    };
    assert_eq!(listed(&doc, "end_to_end"), defs(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), defs(&PER_LAYER));
    // Harnesses pass `--seconds <run_seconds>`; a bare run times the same.
    assert_eq!(
        doc.get("run_seconds").and_then(|v| v.as_f64()),
        Some(RUN_SECONDS)
    );
    let names: Vec<String> = doc
        .get("workloads")
        .and_then(|v| v.as_arr())
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
        .collect();
    assert_eq!(names, SPECS.iter().map(|s| s.name).collect::<Vec<_>>());
}

#[test]
fn every_workload_emits_every_metric_and_a_valid_trace() {
    let doc = benchmark_json();
    let reports = run(&every_workload(), &small(7));
    assert_eq!(reports.len(), SPECS.len());
    for r in &reports {
        assert!(r.correct(), "{} answered wrongly", r.workload);
        assert_eq!(r.error_rate(), 0.0, "{}", r.workload);
        assert_eq!(r.timed_requests, 3, "{}", r.workload);
        assert_eq!(r.end_to_end.len(), END_TO_END.len(), "{}", r.workload);
        assert_eq!(r.per_layer.len(), PER_LAYER.len(), "{}", r.workload);
        for section in ["end_to_end", "per_layer"] {
            for (name, unit) in listed(&doc, section) {
                let m = r
                    .metric(&name)
                    .unwrap_or_else(|| panic!("{} does not emit {name}", r.workload));
                assert_eq!(m.unit, unit, "{} {name}", r.workload);
                assert!(m.value.is_finite(), "{} {name}", r.workload);
            }
        }
        // A time that reads 0 on every run measures nothing on that
        // workload; every listed time is spent by every workload.
        for m in r.end_to_end.iter().chain(&r.per_layer) {
            if m.unit == "ms" || m.unit == "s" {
                assert!(m.value > 0.0, "{} {} is 0", r.workload, m.name);
            }
        }
        let trace = r.trace.as_ref().expect("traced run keeps its trace");
        let check = validate_chrome_trace(&trace.json).expect("trace validates");
        assert_eq!(check.dropped, 0, "{}", r.workload);
        assert!(!trace.collapsed.is_empty(), "{}", r.workload);
    }
    // The workload-specific layers show up where they run.
    let par = &reports[1];
    assert!(par.metric("engine.par.barrier_wait_ms").unwrap().value > 0.0);
    assert!(
        reports[2]
            .metric("engine.aggregate.elements")
            .unwrap()
            .value
            > 0.0
    );

    for traced in [false, true] {
        let line = jsonish::parse(&render_result_line(&reports[..1], traced)).unwrap();
        assert!(matches!(line.get("correct"), Some(JsonValue::Bool(true))));
        assert_eq!(line.get("failed").and_then(|v| v.as_f64()), Some(0.0));
        let metrics = line.get("metrics").unwrap();
        let section = if traced { "per_layer" } else { "end_to_end" };
        for (name, unit) in listed(&doc, section) {
            let m = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("line lacks {name}"));
            assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some(unit.as_str()));
        }
    }
}

/// The per-layer counts of a report, by name.
fn counts(r: &Report) -> Vec<(&'static str, f64)> {
    r.per_layer
        .iter()
        .filter(|m| m.unit == "count")
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn a_seed_fixes_the_instance_and_the_counters() {
    let cfg = small(11);
    let first = run(&every_workload(), &cfg);
    let again = run(&every_workload(), &cfg);
    for ((a, b), spec) in first.iter().zip(&again).zip(&SPECS) {
        assert_eq!(a.instance_digest, b.instance_digest, "{}", a.workload);
        assert_eq!(counts(a), counts(b), "{}", a.workload);
        let other = (spec.build)(12, cfg.instances.unwrap());
        assert_ne!(a.instance_digest, other.instance_digest(), "{}", a.workload);
    }
}

/// The query workload with an oracle that rejects every read.
struct Doctored(Box<dyn Workload>);

impl Workload for Doctored {
    fn start_pass(&mut self, pass: Pass) {
        self.0.start_pass(pass)
    }
    fn next_request(&mut self) -> Request {
        self.0.next_request()
    }
    fn serve(&mut self, req: &Request, instrument: Instrument<'_>) -> Result<Served, String> {
        self.0.serve(req, instrument)
    }
    fn verify_setup(&mut self) -> bool {
        self.0.verify_setup()
    }
    fn verify(&self, req: &Request, answer: &Answer) -> bool {
        !req.is_read() && self.0.verify(req, answer)
    }
    fn inputs(&self, req: &Request) -> (&maglog_datalog::Program, &maglog_engine::Edb) {
        self.0.inputs(req)
    }
    fn instance_digest(&self) -> u64 {
        self.0.instance_digest()
    }
}

static DOCTORED: Spec = Spec {
    name: "doctored",
    warmup: 1,
    traced: 2,
    build: |seed, n| Box::new(Doctored((SPECS[3].build)(seed, n))),
};

#[test]
fn wrong_answers_count_as_errors_and_the_run_completes() {
    let reports = run(&[&DOCTORED], &small(5));
    let r = &reports[0];
    assert_eq!(r.timed_requests, 3);
    assert!(r.failed > 0);
    assert!(r.error_rate() > 0.0);
    assert!(!r.correct());
    assert!(r.metric("latency_p50_ms").is_some());
    let line = jsonish::parse(&render_result_line(&reports, false)).unwrap();
    assert!(matches!(line.get("correct"), Some(JsonValue::Bool(false))));
}
