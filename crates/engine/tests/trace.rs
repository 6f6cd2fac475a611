//! Golden tests for the span-trace subsystem: the full Chrome trace-event
//! rendering is pinned for Example 3.1's shortest-path instance, both
//! sequential and under `--parallel=2`, using a `ManualClock` so every
//! timestamp is deterministic.
//!
//! This test binary deliberately does *not* install the counting
//! allocator: `alloc::current_bytes()`/`peak_bytes()` then read 0, so the
//! heap counter samples in the goldens are byte-stable.
//!
//! When a rendering change is intentional, regenerate with
//!
//! ```text
//! MAGLOG_UPDATE_GOLDEN=1 cargo test -p maglog-engine --test trace
//! ```
//!
//! and review the diff.

use maglog_datalog::parse_program;
use maglog_engine::{
    validate_chrome_trace, Edb, EvalOptions, Fanout, ManualClock, MetricsSink, MonotonicEngine,
    SpanSink, Strategy, Tracer,
};
use std::path::Path;

/// Example 3.1's shortest-path instance: arcs a→b (1) and b→b (0).
const SHORTEST_PATH: &str = r#"
    declare pred arc/3 cost min_real.
    declare pred path/4 cost min_real.
    declare pred s/3 cost min_real.
    path(X, direct, Y, C) :- arc(X, Y, C).
    path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
    s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
    constraint :- arc(direct, Z, C).
    arc(a, b, 1). arc(b, b, 0).
"#;

/// Evaluate shortest-path under a manual clock, returning the rendered
/// trace. `step == 0` for the parallel run: every reading is 0 no matter
/// how worker threads interleave their clock reads, so the document is
/// byte-deterministic; event order is the orchestrator's push order.
fn traced_eval(workers: usize, step: u64) -> String {
    let program = parse_program(SHORTEST_PATH).unwrap();
    let engine = MonotonicEngine::with_options(
        &program,
        EvalOptions {
            workers,
            ..Default::default()
        },
    );
    let tracer = Tracer::with_clock(Box::new(ManualClock::with_step(step)));
    let mut sink = SpanSink::new(&program, tracer);
    engine.evaluate_with_sink(&Edb::new(), &mut sink).unwrap();
    sink.tracer().render_chrome_json("shortest_path")
}

/// Compare `actual` against `tests/golden/<name>`, or rewrite the golden
/// file when `MAGLOG_UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("MAGLOG_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {}; run with MAGLOG_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, want,
        "trace rendering drifted from {name}; if intentional, regenerate with \
         MAGLOG_UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn sequential_trace_is_golden_and_valid() {
    let json = traced_eval(1, 1);
    let check = validate_chrome_trace(&json).expect("sequential trace validates");
    assert_eq!(check.lanes, 1, "sequential run uses only the main lane");
    assert!(check.heap_samples > 0);
    assert_eq!(check.dropped, 0);
    assert_golden("trace_seq.json", &json);
}

#[test]
fn parallel_trace_is_golden_and_valid() {
    let json = traced_eval(2, 0);
    let check = validate_chrome_trace(&json).expect("parallel trace validates");
    assert_eq!(check.lanes, 3, "main lane plus one lane per worker");
    assert!(json.contains("\"worker 0\""));
    assert!(json.contains("\"worker 1\""));
    assert!(json.contains("\"barrier-wait\""));
    assert!(json.contains("\"merge\""));
    assert_golden("trace_par2.json", &json);
}

#[test]
fn tracing_does_not_perturb_the_model() {
    // The A/B guarantee at the engine level: evaluating with a span sink
    // attached produces exactly the model an untraced run produces, both
    // sequentially and in parallel.
    let program = parse_program(SHORTEST_PATH).unwrap();
    let plain = MonotonicEngine::new(&program).evaluate(&Edb::new()).unwrap();
    for workers in [1usize, 2] {
        let engine = MonotonicEngine::with_options(
            &program,
            EvalOptions {
                workers,
                ..Default::default()
            },
        );
        let tracer = Tracer::with_clock(Box::new(ManualClock::with_step(1)));
        let mut sink = Fanout(
            SpanSink::new(&program, tracer),
            MetricsSink::new(&program, Strategy::SemiNaive),
        );
        let traced = engine.evaluate_with_sink(&Edb::new(), &mut sink).unwrap();
        assert_eq!(
            traced.render(&program),
            plain.render(&program),
            "workers={workers}"
        );
        // Both arms read one barrier record on the tracer's clock: each
        // worker lane's `fire` spans add up to that worker's fire
        // histogram.
        let Fanout(spans, metrics) = sink;
        let samples = metrics.metric_set(&[]).samples();
        let top = spans.tracer().top_spans(usize::MAX);
        for w in 0..workers {
            let lane_nanos: u64 = top
                .iter()
                .filter(|s| s.name == "fire" && s.lane == w as u32 + 1)
                .map(|s| s.nanos)
                .sum();
            let hist_nanos = samples
                .iter()
                .find(|s| {
                    s.name == "maglog_worker_fire_duration_seconds_sum"
                        && s.labels.contains(&("worker".into(), w.to_string()))
                })
                .map_or(0, |s| (s.value * 1e9).round() as u64);
            assert_eq!(lane_nanos, hist_nanos, "workers={workers} worker {w}");
            assert_eq!(lane_nanos > 0, workers > 1, "workers={workers} worker {w}");
        }
    }
}
