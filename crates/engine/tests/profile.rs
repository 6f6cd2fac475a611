//! Integration tests for the observability layer: deterministic counter
//! values under every strategy, no-op-sink equivalence, and the enriched
//! non-termination diagnostics.
//!
//! The counter pins below are *exact*. They are deterministic because (a)
//! every counter is a sum over events whose multiset does not depend on
//! hash-map iteration order, and (b) rule attribution goes to the lowest
//! rule index that derives a key within a round (rules execute in a fixed
//! order). If an engine change legitimately shifts the evaluation (e.g. a
//! different join plan), re-derive the numbers with
//! `maglog profile --format=json` and update the pins alongside the change.

use maglog_datalog::{parse_program, Program};
use maglog_engine::{
    alloc, Edb, EvalError, EvalOptions, Fanout, ManualClock, MetricsSink, Model, MonotonicEngine,
    NoopSink, Optimize, ProfileReport, SpanSink, Strategy, Tracer,
};

/// Installed for the whole test binary so the memory-accounting tests can
/// check the structural estimates against real allocator figures.
#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

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

fn profile(strategy: Strategy) -> ProfileReport {
    evaluate(SHORTEST_PATH, strategy).2
}

/// Evaluate `src` under `strategy` into a profile.
fn evaluate(src: &str, strategy: Strategy) -> (Program, Model, ProfileReport) {
    let program = parse_program(src).unwrap();
    let options = EvalOptions {
        strategy,
        ..Default::default()
    };
    // Step-1 manual clock: every rule firing costs exactly 1 "nanosecond",
    // so wall-clock attribution is pinned too (nanos == firings).
    let mut sink = MetricsSink::with_clock(&program, strategy, Box::new(ManualClock::with_step(1)));
    let model = MonotonicEngine::with_options(&program, options)
        .evaluate_with_sink(&Edb::new(), &mut sink)
        .unwrap();
    let report = sink.finish();
    (program, model, report)
}

/// Sum of (probes, hits, lazy builds) over every relation's index stats.
fn index_totals(report: &ProfileReport) -> (u64, u64, u64) {
    report.indexes.iter().fold((0, 0, 0), |(p, h, b), i| {
        (
            p + i.stats.probes,
            h + i.stats.hits,
            b + i.stats.lazy_builds,
        )
    })
}

#[test]
fn seminaive_profile_is_deterministic() {
    let r = profile(Strategy::SemiNaive);
    assert_eq!(r.strategy, "seminaive");
    assert_eq!(r.total_rounds(), 4);
    assert_eq!(r.total_firings(), 9);
    assert_eq!(r.total_derivations(), 8);
    assert_eq!(r.total_outcomes(), (6, 0, 2));

    // Per-rule: r0 copies arcs into path once; r1 extends paths through
    // the delta; r2 re-aggregates the touched groups.
    let by_rule: Vec<(u64, u64, u64)> = r
        .rules
        .iter()
        .map(|rule| (rule.firings, rule.derivations, rule.inserted))
        .collect();
    assert_eq!(by_rule, vec![(1, 2, 2), (3, 2, 2), (5, 4, 2)]);
    // The manual clock makes wall-clock deterministic: 1 ns per firing.
    for rule in &r.rules {
        assert_eq!(rule.nanos, rule.firings, "rule {}", rule.rule);
    }

    // One component {path, s}; round-by-round delta sizes.
    assert_eq!(r.components.len(), 1);
    let c = &r.components[0];
    assert_eq!(c.preds, vec!["path".to_string(), "s".to_string()]);
    assert_eq!(c.rounds, 4);
    let deltas: Vec<Vec<(String, usize)>> = c
        .rounds_detail
        .iter()
        .map(|round| round.deltas.clone())
        .collect();
    assert_eq!(
        deltas,
        vec![
            vec![("path".to_string(), 2)],
            vec![("s".to_string(), 2)],
            vec![("path".to_string(), 2)],
            vec![],
        ]
    );

    // Index telemetry: only `arc` is probed (r1's join), once per
    // delta-joining round, and its lone index is registered up front.
    assert_eq!(index_totals(&r), (2, 2, 0));
    let arc = r.indexes.iter().find(|i| i.pred == "arc").unwrap();
    assert_eq!(arc.sigs, 1);
    assert_eq!(arc.stats.log_replays, 1);
    assert_eq!(arc.stats.replayed_entries, 2);
}

#[test]
fn naive_profile_is_deterministic() {
    let r = profile(Strategy::Naive);
    assert_eq!(r.strategy, "naive");
    assert_eq!(r.total_rounds(), 4);
    // Every rule refires from scratch each round: 3 rules × 4 rounds.
    assert_eq!(r.total_firings(), 12);
    assert_eq!(r.total_derivations(), 18);
    assert_eq!(r.total_outcomes(), (6, 0, 12));
    assert_eq!(index_totals(&r), (4, 4, 0));
    // Full-evaluation aggregation visits every group each round.
    assert_eq!(r.agg_groups, 6);
    assert_eq!(r.agg_elements, 8);
    for rule in &r.rules {
        assert_eq!(rule.nanos, rule.firings, "rule {}", rule.rule);
    }
}

#[test]
fn greedy_profile_is_deterministic() {
    let r = profile(Strategy::Greedy);
    assert_eq!(r.strategy, "greedy");
    assert_eq!(r.components.len(), 1);
    assert_eq!(r.components[0].strategy, "greedy");
    // Each round settles one cost level: the b-cycle (cost 0) before a's
    // paths (cost 1), one derivation step per round, then the closing
    // round.
    assert_eq!(r.total_rounds(), 7);
    assert_eq!(r.total_firings(), 9);
    assert_eq!(r.total_derivations(), 8);

    // With two arcs of weight 1 out of `a`, both `path` atoms tie at the
    // least cost and settle in round 1.
    let tie = SHORTEST_PATH.replace("arc(b, b, 0).", "arc(a, c, 1).");
    let (_, _, r) = evaluate(&tie, Strategy::Greedy);
    let first = &r.components[0].rounds_detail[0];
    assert_eq!(first.deltas, vec![("path".to_string(), 2)]);

    for src in [SHORTEST_PATH, tie.as_str()] {
        let (program, model, r) = evaluate(src, Strategy::Greedy);
        let c = &r.components[0];
        // Every settle is one insert of a new tuple.
        let tuples: usize = c.preds.iter().map(|p| model.count(&program, p)).sum();
        assert_eq!(r.total_outcomes(), (tuples as u64, 0, 0));
        // Walk the rounds in order: each round's settled tuples (its
        // delta) all sit at the least cost not yet settled, so a round
        // is one cost level and costs never decrease across rounds.
        let mut unsettled: Vec<(f64, &str)> = Vec::new();
        for pred in &c.preds {
            for (_, cost) in model.tuples_of(&program, pred) {
                unsettled.push((cost.and_then(|v| v.as_f64()).unwrap(), pred));
            }
        }
        for round in &c.rounds_detail {
            let least = unsettled.iter().map(|a| a.0).fold(f64::INFINITY, f64::min);
            for (pred, n) in &round.deltas {
                for _ in 0..*n {
                    let at = unsettled
                        .iter()
                        .position(|&(cost, p)| cost == least && p == pred)
                        .unwrap_or_else(|| {
                            panic!("round {}: a {pred} settle above cost {least}", round.round)
                        });
                    unsettled.remove(at);
                }
            }
        }
        assert!(unsettled.is_empty(), "never settled: {unsettled:?}");
    }
}

#[test]
fn memory_accounting_is_internally_consistent() {
    // The per-structure estimates are deliberately conservative
    // (under-counting hash-control and allocator slack), so their sum must
    // stay at or below what the real allocator measured at its peak.
    for strategy in [Strategy::Naive, Strategy::SemiNaive, Strategy::Greedy] {
        let program = parse_program(SHORTEST_PATH).unwrap();
        let engine = MonotonicEngine::with_options(
            &program,
            EvalOptions {
                strategy,
                ..Default::default()
            },
        );
        let mut sink = MetricsSink::new(&program, strategy);
        alloc::reset_peak();
        engine.evaluate_with_sink(&Edb::new(), &mut sink).unwrap();
        let r = sink.finish();

        assert!(alloc::installed(), "test binary installs the allocator");
        assert!(r.alloc_peak_bytes > 0, "{}: peak not captured", r.strategy);
        assert!(r.alloc_current_bytes > 0);
        assert!(
            r.alloc_current_bytes <= r.alloc_peak_bytes,
            "{}: live {} exceeds peak {}",
            r.strategy,
            r.alloc_current_bytes,
            r.alloc_peak_bytes
        );

        // Every touched relation reports a breakdown whose parts sum to
        // its total, and the database estimate fits under the real peak.
        assert_eq!(r.memory.len(), 3, "{}: arc, path, s", r.strategy);
        let mut relation_total = 0;
        for m in &r.memory {
            assert_eq!(
                m.memory.total(),
                m.memory.tuple_bytes + m.memory.map_bytes + m.memory.log_bytes
                    + m.memory.index_bytes,
                "{}: {} breakdown does not sum",
                r.strategy,
                m.pred
            );
            assert!(m.memory.total() > 0, "{}: {} empty", r.strategy, m.pred);
            relation_total += m.memory.total();
        }
        assert_eq!(relation_total as u64, r.total_heap_bytes());
        assert!(
            relation_total as u64 + r.agg_peak_bytes <= r.alloc_peak_bytes,
            "{}: estimated {} + agg {} exceeds allocator peak {}",
            r.strategy,
            relation_total,
            r.agg_peak_bytes,
            r.alloc_peak_bytes
        );

        // Only naive rebuilds accumulator tables (semi-naive and greedy
        // relax this min-aggregate into a join-fold, so no groups exist).
        match strategy {
            Strategy::Naive => {
                assert!(r.agg_peak_bytes > 0, "naive: no aggregate peak")
            }
            _ => assert_eq!(r.agg_peak_bytes, 0, "{}: unexpected groups", r.strategy),
        }
    }
}

#[test]
fn noop_sink_and_instrumented_runs_agree_byte_for_byte() {
    let program = parse_program(SHORTEST_PATH).unwrap();
    for strategy in [Strategy::Naive, Strategy::SemiNaive, Strategy::Greedy] {
        let options = EvalOptions {
            strategy,
            ..Default::default()
        };
        let plain = MonotonicEngine::with_options(&program, options.clone())
            .evaluate_with_sink(&Edb::new(), &mut NoopSink)
            .unwrap();
        let mut sink = Fanout(
            SpanSink::new(&program, Tracer::new()),
            MetricsSink::new(&program, strategy),
        );
        let instrumented = MonotonicEngine::with_options(&program, options)
            .evaluate_with_sink(&Edb::new(), &mut sink)
            .unwrap();
        assert_eq!(
            plain.render(&program),
            instrumented.render(&program),
            "{} model drifted under instrumentation",
            strategy.name()
        );
        assert_eq!(plain.stats().rounds, instrumented.stats().rounds);
    }
}

/// Profile one run and return its human trace text.
fn trace(strategy: Strategy) -> String {
    profile(strategy).render_trace()
}

// The golden traces below pin the exact human text of `render_trace` (it
// carries no timing, so it is deterministic byte for byte). If an engine
// change legitimately shifts the evaluation, regenerate with
// `maglog profile --strategy=<s>` and update the goldens with the change.

#[test]
fn seminaive_trace_text_is_golden() {
    assert_eq!(
        trace(Strategy::SemiNaive),
        "\
component 0 [seminaive] {path, s}
  round 1 (full): 3 firing(s), 2 derivation(s), 2 changed | Δ path +2
  round 2: 2 firing(s), 2 derivation(s), 2 changed | Δ s +2
  round 3: 2 firing(s), 2 derivation(s), 2 changed | Δ path +2
  round 4: 2 firing(s), 2 derivation(s), 0 changed
  fixpoint after 4 round(s)
"
    );
}

#[test]
fn naive_trace_text_is_golden() {
    assert_eq!(
        trace(Strategy::Naive),
        "\
component 0 [naive] {path, s}
  round 1 (full): 3 firing(s), 2 derivation(s), 2 changed | Δ path +2
  round 2 (full): 3 firing(s), 4 derivation(s), 2 changed | Δ s +2
  round 3 (full): 3 firing(s), 6 derivation(s), 2 changed | Δ path +2
  round 4 (full): 3 firing(s), 6 derivation(s), 0 changed
  fixpoint after 4 round(s)
"
    );
}

#[test]
fn greedy_trace_text_is_golden() {
    assert_eq!(
        trace(Strategy::Greedy),
        "\
component 0 [greedy] {path, s}
  round 1 (full): 3 firing(s), 2 derivation(s), 1 changed | Δ path +1
  round 2: 1 firing(s), 1 derivation(s), 1 changed | Δ s +1
  round 3: 1 firing(s), 1 derivation(s), 1 changed | Δ path +1
  round 4: 1 firing(s), 1 derivation(s), 1 changed | Δ path +1
  round 5: 1 firing(s), 1 derivation(s), 1 changed | Δ s +1
  round 6: 1 firing(s), 1 derivation(s), 1 changed | Δ path +1
  round 7: 1 firing(s), 1 derivation(s), 0 changed
  fixpoint after 7 round(s)
"
    );
}

#[test]
fn optimized_trace_text_is_golden() {
    let program = parse_program(SHORTEST_PATH).unwrap();
    let mut sink = MetricsSink::new(&program, Strategy::SemiNaive);
    MonotonicEngine::with_options(
        &program,
        EvalOptions {
            optimize: Optimize {
                prem: true,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .evaluate_with_sink(&Edb::new(), &mut sink)
    .unwrap();
    assert_eq!(
        sink.finish().render_trace(),
        "\
optimize: prem: {path, s} premappable — dominance pruning enabled
component 0 [seminaive] {path, s}
  round 1 (full): 3 firing(s), 2 derivation(s), 2 changed | Δ path +2
  round 2: 2 firing(s), 2 derivation(s), 2 changed | Δ s +2
  round 3: 2 firing(s), 2 derivation(s), 2 changed | Δ path +2
  round 4: 2 firing(s), 0 derivation(s), 0 changed
component 0: 2 derivation(s) pruned by optimization
  fixpoint after 4 round(s)
"
    );
}

#[test]
fn long_traces_elide_rounds_past_fifty() {
    // An 80-arc chain needs 81 semi-naive rounds: more than the profile's
    // per-round detail keeps, so the elided count spans both caps.
    let mut src: String = (0..80).map(|i| format!("e(n{i}, n{}). ", i + 1)).collect();
    src.push_str("tc(X, Y) :- e(X, Y). tc(X, Y) :- tc(X, Z), e(Z, Y).");
    let program = parse_program(&src).unwrap();
    let mut sink = MetricsSink::new(&program, Strategy::SemiNaive);
    MonotonicEngine::new(&program)
        .evaluate_with_sink(&Edb::new(), &mut sink)
        .unwrap();
    let trace = sink.finish().render_trace();
    let lines: Vec<&str> = trace.lines().collect();
    assert_eq!(lines.len(), 1 + 50 + 2, "{trace}");
    assert!(lines[50].starts_with("  round 50: "), "{trace}");
    assert_eq!(lines[51], "  ... 31 more round(s) elided");
    assert_eq!(lines[52], "  fixpoint after 81 round(s)");
}

#[test]
fn non_termination_names_the_component_and_its_delta() {
    let program = parse_program(
        r#"
        declare pred n/2 cost max_real.
        n(z, 0).
        n(X, C) :- n(X, C1), C = C1 + 1.
        "#,
    )
    .unwrap();
    let engine = MonotonicEngine::with_options(
        &program,
        EvalOptions {
            max_rounds: 30,
            ..Default::default()
        },
    );
    match engine.evaluate(&Edb::new()) {
        Err(EvalError::NonTermination {
            rounds,
            preds,
            last_delta,
            ..
        }) => {
            assert_eq!(rounds, 30);
            assert_eq!(preds, vec!["n".to_string()]);
            assert_eq!(last_delta, 1, "the counter keeps improving one tuple");
            let msg = EvalError::NonTermination {
                rounds,
                component: 0,
                preds,
                last_delta,
            }
            .to_string();
            assert!(msg.contains("{n}"), "{msg}");
            assert!(msg.contains("1 tuple(s)"), "{msg}");
        }
        other => panic!("expected NonTermination, got {other:?}"),
    }
}

/// The deterministic per-rule and per-round counters of one profiled run:
/// per rule (firings, derivations, inserted, improved, noop), per round
/// (firings, derivations, inserted, improved, noop, changed, deltas).
type Counters = (
    Vec<(usize, u64, u64, u64, u64, u64)>,
    Vec<(u64, usize, u64, u64, u64, usize, Vec<(String, usize)>)>,
);

fn counters(report: &ProfileReport) -> Counters {
    let rules = report
        .rules
        .iter()
        .map(|r| (r.rule, r.firings, r.derivations, r.inserted, r.improved, r.noop))
        .collect();
    let rounds = report
        .components
        .iter()
        .flat_map(|c| &c.rounds_detail)
        .map(|r| {
            let deltas = r.deltas.clone();
            (r.firings, r.derivations, r.inserted, r.improved, r.noop, r.changed, deltas)
        })
        .collect();
    (rules, rounds)
}

#[test]
fn sharded_rounds_attribute_every_counter_like_one_shard() {
    // The barrier keeps the smallest exec slot for a key several shards
    // derived, so insert outcomes land on the same rule as in the one-shard
    // round, and the per-rule and per-round counters match exactly.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("programs/ exists") {
        let path = entry.expect("read programs/ entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("mgl") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("read sample program");
        let program = parse_program(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for strategy in [Strategy::SemiNaive, Strategy::Naive] {
            let run = |workers: usize| {
                let engine = MonotonicEngine::with_options(
                    &program,
                    EvalOptions {
                        strategy,
                        workers,
                        ..Default::default()
                    },
                );
                let mut sink = MetricsSink::new(&program, strategy);
                engine.evaluate_with_sink(&Edb::new(), &mut sink).unwrap();
                counters(&sink.finish())
            };
            let one = run(1);
            for workers in [2, 4] {
                assert_eq!(
                    one,
                    run(workers),
                    "{} {} at {workers} workers",
                    path.display(),
                    strategy.name()
                );
            }
        }
        checked += 1;
    }
    assert!(checked >= 4, "expected several sample programs, saw {checked}");
}
