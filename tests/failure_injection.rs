//! Failure injection: every rejection path must produce a precise
//! diagnostic rather than a wrong answer or a panic.

use maglog::engine::{EvalError, EvalOptions, Strategy};
use maglog::prelude::*;

// ---- Parse errors carry locations ----

#[test]
fn parse_errors_point_at_the_offence() {
    let err = parse_program("p(a).\nq(b) :- r(X)\ns(c).").unwrap_err();
    assert!(err.to_string().contains("3:"), "{err}");

    let err = parse_program("p(a, ].").unwrap_err();
    assert!(err.to_string().contains("1:"), "{err}");
}

#[test]
fn unknown_aggregates_and_domains_are_named() {
    let err = parse_program("p(C) :- C =r median D : q(X, D).").unwrap_err();
    assert!(err.to_string().contains("median"), "{err}");
    let err = parse_program("declare pred p/2 cost imaginary.").unwrap_err();
    assert!(err.to_string().contains("imaginary"), "{err}");
}

// ---- EDB loading rejects domain violations ----

#[test]
fn negative_share_fraction_is_rejected_at_load() {
    let p = parse_program(
        r#"
        declare pred s/3 cost nonneg_real.
        declare pred m/3 cost nonneg_real.
        m(X, Y, N) :- N =r sum M2 : s2(X, Y, M2).
        declare pred s2/3 cost nonneg_real.
        "#,
    )
    .unwrap();
    let mut edb = Edb::new();
    edb.push_cost_fact(&p, "s2", &["a", "b"], -0.25);
    match MonotonicEngine::new(&p).evaluate(&edb) {
        Err(EvalError::Domain(msg)) => assert!(msg.contains("nonnegative"), "{msg}"),
        other => panic!("expected Domain error, got {other:?}"),
    }
}

#[test]
fn non_boolean_wire_value_is_rejected() {
    let p = parse_program(
        r#"
        declare pred input/2 cost bool_or.
        declare pred t/2 cost bool_or default.
        t(W, C) :- input(W, C).
        "#,
    )
    .unwrap();
    let mut edb = Edb::new();
    edb.push_cost_fact(&p, "input", &["w1"], 0.5);
    match MonotonicEngine::new(&p).evaluate(&edb) {
        Err(EvalError::Domain(msg)) => assert!(msg.contains("boolean"), "{msg}"),
        other => panic!("expected Domain error, got {other:?}"),
    }
}

#[test]
fn conflicting_edb_facts_are_rejected() {
    // Two facts for the same key with different costs violate the
    // Section 2.3.1 functional dependency.
    let p = parse_program(
        r#"
        declare pred arc/3 cost min_real.
        reach(X, Y) :- arc(X, Y, C).
        arc(a, b, 1).
        arc(a, b, 2).
        "#,
    )
    .unwrap();
    match MonotonicEngine::new(&p).evaluate(&Edb::new()) {
        Err(EvalError::CostConflict { .. }) => {}
        other => panic!("expected CostConflict, got {other:?}"),
    }
}

// ---- Static gate diagnostics ----

#[test]
fn not_certified_error_contains_the_summary() {
    let p = parse_program(
        r#"
        declare pred q/3 cost max_real.
        declare pred p/2 cost max_real.
        p(X, C) :- q(X, Y, C).
        "#,
    )
    .unwrap();
    match MonotonicEngine::new(&p).evaluate(&Edb::new()) {
        Err(EvalError::NotCertified(summary)) => {
            assert!(summary.contains("conflict-free:    no"), "{summary}");
            assert!(summary.contains("not cost-respecting"), "{summary}");
        }
        other => panic!("expected NotCertified, got {other:?}"),
    }
}

#[test]
fn unchecked_mode_bypasses_the_gate_but_not_runtime_checks() {
    // The same non-cost-respecting program evaluated unchecked: the
    // runtime Definition 2.6 check still fires when two q rows share x.
    let p = parse_program(
        r#"
        declare pred q/3 cost max_real.
        declare pred p/2 cost max_real.
        q(x, u, 1). q(x, v, 2).
        p(X, C) :- q(X, Y, C).
        "#,
    )
    .unwrap();
    let engine = MonotonicEngine::with_options(
        &p,
        EvalOptions {
            allow_unchecked: true,
            ..Default::default()
        },
    );
    match engine.evaluate(&Edb::new()) {
        Err(EvalError::CostConflict { pred, .. }) => assert_eq!(pred, "p"),
        other => panic!("expected CostConflict, got {other:?}"),
    }
}

#[test]
fn lenient_mode_resolves_conflicts_by_join() {
    let p = parse_program(
        r#"
        declare pred q/3 cost max_real.
        declare pred p/2 cost max_real.
        q(x, u, 1). q(x, v, 2).
        p(X, C) :- q(X, Y, C).
        "#,
    )
    .unwrap();
    // The colliding pushes meet in one round buffer or at the shard
    // barrier depending on the worker count; both resolve by the join.
    for workers in [1usize, 2, 4] {
        let engine = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                allow_unchecked: true,
                check_consistency: false,
                workers,
                ..Default::default()
            },
        );
        let m = engine.evaluate(&Edb::new()).unwrap();
        // max_real join: the larger value wins.
        assert_eq!(
            m.cost_of(&p, "p", &["x"]).unwrap().as_f64(),
            Some(2.0),
            "workers={workers}"
        );
    }
}

// ---- Divergence ----

#[test]
fn divergent_arithmetic_reports_rounds_and_component() {
    let p = parse_program(
        r#"
        declare pred n/2 cost max_real.
        n(z, 0).
        n(X, C) :- n(X, C1), C = C1 + 1.
        "#,
    )
    .unwrap();
    // The round cap, the component and the last delta are the same at
    // every worker count.
    for workers in [1usize, 2, 4] {
        let engine = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                max_rounds: 30,
                workers,
                ..Default::default()
            },
        );
        match engine.evaluate(&Edb::new()) {
            Err(EvalError::NonTermination {
                rounds,
                component,
                last_delta,
                ..
            }) => assert_eq!((rounds, component, last_delta), (30, 0, 1), "workers={workers}"),
            other => panic!("workers={workers}: expected NonTermination, got {other:?}"),
        }
    }
    // And the termination analysis predicted it.
    let report = check_program(&p);
    assert!(!report.is_termination_guaranteed());
}

#[test]
fn greedy_violation_names_the_predicate() {
    let p = parse_program(
        r#"
        declare pred arc/3 cost min_real.
        declare pred path/4 cost min_real.
        declare pred s/3 cost min_real.
        arc(a, b, 10). arc(b, c, -8).
        path(X, direct, Y, C) :- arc(X, Y, C).
        path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
        s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
        constraint :- arc(direct, Z, C).
        "#,
    )
    .unwrap();
    let engine = MonotonicEngine::with_options(
        &p,
        EvalOptions {
            strategy: Strategy::Greedy,
            ..Default::default()
        },
    );
    match engine.evaluate(&Edb::new()) {
        Err(EvalError::GreedyViolation { detail }) => {
            assert!(detail.contains("semi-naive"), "{detail}");
        }
        other => panic!("expected GreedyViolation, got {other:?}"),
    }
    // The same instance is fine under semi-naive.
    let m = MonotonicEngine::new(&p).evaluate(&Edb::new()).unwrap();
    assert_eq!(m.cost_of(&p, "s", &["a", "c"]).unwrap().as_f64(), Some(2.0));
}

// ---- Non-monotonic constructs are rejected with the right reason ----

#[test]
fn recursive_negation_is_named_in_the_summary() {
    let p = parse_program("win(X) :- move(X, Y), ! win(Y).").unwrap();
    match MonotonicEngine::new(&p).evaluate(&Edb::new()) {
        Err(EvalError::NotCertified(summary)) => {
            assert!(summary.contains("negative subgoal"), "{summary}");
        }
        other => panic!("expected NotCertified, got {other:?}"),
    }
}

#[test]
fn wrong_direction_guard_is_named() {
    let p = parse_program(
        r#"
        declare pred cv/4 cost nonneg_real.
        declare pred s/3 cost nonneg_real.
        cv(X, X, Y, N) :- s(X, Y, N).
        cv(X, Z, Y, N) :- c(X, Z), s(Z, Y, N).
        c(X, Y) :- N =r sum M : cv(X, Z, Y, M), N < 0.5.
        "#,
    )
    .unwrap();
    match MonotonicEngine::new(&p).evaluate(&Edb::new()) {
        Err(EvalError::NotCertified(summary)) => {
            assert!(summary.contains("not monotone"), "{summary}");
        }
        other => panic!("expected NotCertified, got {other:?}"),
    }
}
