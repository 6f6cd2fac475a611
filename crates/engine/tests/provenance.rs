//! Integration tests for derivation provenance, explain trees, and
//! why-not probing.

use maglog_datalog::{parse_program, AggFunc, Program};
use maglog_engine::{
    explain_tree, parse_goal, render_explain_dot, render_explain_human, render_explain_json,
    render_why_not_human, why_not, Edb, EvalOptions, ExplainKind, Interp, Model, MonotonicEngine,
    Provenance, ProvenanceSink, RuleProbe, Strategy, Tuple, Value,
};
use maglog_workloads::{programs, random_digraph};
use std::collections::BTreeSet;

const SHORTEST_PATH: &str = r#"
    declare pred arc/3 cost min_real.
    declare pred path/4 cost min_real.
    declare pred s/3 cost min_real.
    path(X, direct, Y, C) :- arc(X, Y, C).
    path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
    s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
    constraint :- arc(direct, Z, C).
"#;

const WIDEST_PATH: &str = r#"
    declare pred link/3 cost max_real.
    declare pred wpath/4 cost max_real.
    declare pred w/3 cost max_real.
    link(a, b, 5). link(b, c, 3). link(a, c, 1). link(c, a, 4).
    wpath(X, direct, Y, C) :- link(X, Y, C).
    wpath(X, Z, Y, C) :- w(X, Z, C1), link(Z, Y, C2), C = min(C1, C2).
    w(X, Y, C) :- C =r max D : wpath(X, Z, Y, D).
    constraint :- link(direct, Z, C).
"#;

/// Evaluate through a provenance sink: the model and its derivation DAG.
fn explained(engine: &MonotonicEngine<'_>, p: &Program) -> (Model, Provenance) {
    let mut sink = ProvenanceSink::new(p);
    let model = engine.evaluate_with_sink(&Edb::new(), &mut sink).unwrap();
    (model, sink.finish())
}

fn key(p: &Program, args: &[&str]) -> Tuple {
    Tuple::new(
        args.iter()
            .map(|a| match a.parse::<f64>() {
                Ok(n) => Value::num(n),
                Err(_) => Value::Sym(p.symbols.intern(a)),
            })
            .collect(),
    )
}

#[test]
fn shortest_path_derivation_records_rule_body_and_witness() {
    let src = format!("{SHORTEST_PATH}\narc(a, b, 1).\narc(b, c, 2).\narc(a, c, 5).\n");
    let p = parse_program(&src).unwrap();
    let (model, prov) = explained(&MonotonicEngine::new(&p), &p);
    assert!(!prov.is_empty());

    let s = p.find_pred("s").unwrap();
    let node = prov.node(s, &key(&p, &["a", "c"])).expect("s(a,c) derived");
    assert_eq!(node.rule, 2, "the aggregate rule derives s");
    assert_eq!(node.cost.as_ref().and_then(|v| v.as_f64()), Some(3.0));
    let agg = node.aggs.first().expect("aggregate witness recorded");
    assert_eq!(agg.func, AggFunc::Min);
    assert_eq!(agg.result.as_f64(), Some(3.0));
    // The winning element is backed by a `path` tuple of cost 3.
    let (elem, atoms) = agg.witnesses.first().expect("min has a winner");
    assert_eq!(elem.as_f64(), Some(3.0));
    assert!(atoms.iter().any(|a| a.pred == p.find_pred("path").unwrap()
        && a.cost.as_ref().and_then(|v| v.as_f64()) == Some(3.0)));

    // The model agrees with the plain evaluation.
    assert_eq!(model.cost_of(&p, "s", &["a", "c"]).unwrap().as_f64(), Some(3.0));
}

#[test]
fn improvement_chains_record_the_refinement_history() {
    // s(a,b) is first derived at 5 (direct arc), then refined to 2 via c.
    let src = format!("{SHORTEST_PATH}\narc(a, b, 5).\narc(a, c, 1).\narc(c, b, 1).\n");
    let p = parse_program(&src).unwrap();
    let (_, prov) = explained(&MonotonicEngine::new(&p), &p);
    let s = p.find_pred("s").unwrap();
    let history = prov.history(s, &key(&p, &["a", "b"]));
    assert!(history.len() >= 2, "expected a refinement chain, got {}", history.len());
    assert_eq!(
        history.first().unwrap().cost.as_ref().and_then(|v| v.as_f64()),
        Some(5.0),
        "first derivation carries the direct-arc cost"
    );
    let last = history.last().unwrap();
    assert_eq!(last.cost.as_ref().and_then(|v| v.as_f64()), Some(2.0));
    assert!(last.improved, "the final link is a strict improvement");
    assert!(!history.first().unwrap().improved);
}

#[test]
fn widest_path_max_witness_is_tracked() {
    let p = parse_program(WIDEST_PATH).unwrap();
    let (model, prov) = explained(&MonotonicEngine::new(&p), &p);
    assert_eq!(model.cost_of(&p, "w", &["a", "c"]).unwrap().as_f64(), Some(3.0));
    let w = p.find_pred("w").unwrap();
    let node = prov.node(w, &key(&p, &["a", "c"])).expect("w(a,c) derived");
    let agg = node.aggs.first().expect("max witness recorded");
    assert_eq!(agg.func, AggFunc::Max);
    assert_eq!(agg.result.as_f64(), Some(3.0));
    let (elem, _) = agg.witnesses.first().expect("max has a winner");
    assert_eq!(elem.as_f64(), Some(3.0));
}

#[test]
fn count_aggregates_record_joint_witnesses() {
    let p = parse_program(
        r#"
        requires(ann, 0). requires(bob, 1).
        knows(bob, ann).
        coming(X) :- requires(X, K), N = count : kc(X, Y), N >= K.
        kc(X, Y) :- knows(X, Y), coming(Y).
        "#,
    )
    .unwrap();
    let (model, prov) = explained(&MonotonicEngine::new(&p), &p);
    assert!(model.holds(&p, "coming", &["bob"]));
    let coming = p.find_pred("coming").unwrap();
    let ann = prov.node(coming, &key(&p, &["ann"])).expect("coming(ann)");
    let ann_agg = ann.aggs.first().expect("count witness");
    assert_eq!(ann_agg.func, AggFunc::Count);
    assert_eq!(ann_agg.elements, 0, "ann requires nobody: empty group");
    let bob = prov.node(coming, &key(&p, &["bob"])).expect("coming(bob)");
    let bob_agg = bob.aggs.first().expect("count witness");
    assert_eq!(bob_agg.elements, 1);
    assert_eq!(bob_agg.witnesses_total, 1);
    let kc = p.find_pred("kc").unwrap();
    assert!(bob_agg.witnesses[0].1.iter().any(|a| a.pred == kc));
}

#[test]
fn provenance_mode_computes_the_same_model_under_every_strategy() {
    for strategy in [Strategy::Naive, Strategy::SemiNaive, Strategy::Greedy] {
        for src in [
            format!("{SHORTEST_PATH}\narc(a, b, 1).\narc(b, b, 0).\n"),
            WIDEST_PATH.to_string(),
        ] {
            let p = parse_program(&src).unwrap();
            let engine = MonotonicEngine::with_options(
                &p,
                EvalOptions {
                    strategy,
                    ..Default::default()
                },
            );
            let plain = engine.evaluate(&Edb::new()).unwrap();
            let (traced, prov) = explained(&engine, &p);
            assert_eq!(
                plain.interp(),
                traced.interp(),
                "provenance capture changed the model under {strategy:?}"
            );
            assert!(!prov.is_empty());
        }
    }
}

#[test]
fn why_not_names_the_failing_subgoal() {
    let src = format!("{SHORTEST_PATH}\narc(a, b, 1).\narc(b, b, 0).\n");
    let p = parse_program(&src).unwrap();
    let model = MonotonicEngine::new(&p).evaluate(&Edb::new()).unwrap();
    let goal = parse_goal(&p, "s(b, a)").unwrap();
    let report = why_not(&p, model.interp(), &goal);
    assert!(report.present.is_none(), "s(b,a) is not in the model");
    let probe = report
        .rules
        .iter()
        .find(|r| r.rule == 2)
        .expect("the aggregate rule unifies with s(b,a)");
    assert!(probe.unified);
    let failed = probe.failed.as_deref().expect("a failing subgoal is named");
    assert!(failed.contains("path(b, Z, a"), "got: {failed}");
    let human = render_why_not_human(&report);
    assert!(human.contains("why not s(b, a)?"));
    assert!(human.contains("fails at subgoal"), "got: {human}");
}

#[test]
fn why_not_on_a_present_key_reports_the_held_cost() {
    let src = format!("{SHORTEST_PATH}\narc(a, b, 1).\narc(b, b, 0).\n");
    let p = parse_program(&src).unwrap();
    let model = MonotonicEngine::new(&p).evaluate(&Edb::new()).unwrap();
    let goal = parse_goal(&p, "s(a, b, 7)").unwrap();
    let report = why_not(&p, model.interp(), &goal);
    assert_eq!(report.present, Some(Some("1".to_string())));
}

#[test]
fn explain_tree_renders_human_json_and_dot() {
    let src = format!("{SHORTEST_PATH}\narc(a, b, 1).\narc(b, c, 2).\narc(a, c, 5).\n");
    let p = parse_program(&src).unwrap();
    let (model, prov) = explained(&MonotonicEngine::new(&p), &p);
    let s = p.find_pred("s").unwrap();
    let node = explain_tree(&p, &prov, model.interp(), s, &key(&p, &["a", "c"]), 8);

    let human = render_explain_human(&node);
    assert!(human.starts_with("s(a, c) = 3"), "got: {human}");
    assert!(human.contains("via rule 2"), "got: {human}");
    assert!(human.contains("witness element 3"), "got: {human}");
    assert!(human.contains("[input]"), "got: {human}");

    let json = render_explain_json("test.mgl", "s(a, c)", &node, 8);
    assert!(json.contains("\"schema\": \"maglog-explain-v1\""));
    assert!(json.contains("\"mode\": \"why\""));
    assert!(json.contains("\"found\": true"));
    assert!(json.contains("\"kind\": \"derived\""));
    assert!(json.contains("\"kind\": \"input\""));

    let dot = render_explain_dot(&node);
    assert!(dot.starts_with("digraph explain {"));
    assert!(dot.trim_end().ends_with('}'));
    assert!(dot.contains("style=dashed"), "witness edges are dashed: {dot}");
}

#[test]
fn explain_tree_is_depth_bounded_and_cycle_safe() {
    // The b-loop gives an unboundedly deep refinement structure; the tree
    // must cut at the depth limit and mark re-expanded ancestors.
    let src = format!("{SHORTEST_PATH}\narc(a, b, 1).\narc(b, b, 0).\n");
    let p = parse_program(&src).unwrap();
    let (model, prov) = explained(&MonotonicEngine::new(&p), &p);
    let s = p.find_pred("s").unwrap();
    let shallow = explain_tree(&p, &prov, model.interp(), s, &key(&p, &["a", "b"]), 1);
    assert!(matches!(shallow.kind, ExplainKind::Derived { .. }));
    let human = render_explain_human(&shallow);
    assert!(human.contains("[depth limit]"), "got: {human}");

    // A deep tree terminates (cycle detection) and renders.
    let deep = explain_tree(&p, &prov, model.interp(), s, &key(&p, &["b", "b"]), 64);
    let rendered = render_explain_human(&deep);
    assert!(rendered.starts_with("s(b, b) = 0"), "got: {rendered}");
}

#[test]
fn explaining_a_missing_fact_says_so() {
    let src = format!("{SHORTEST_PATH}\narc(a, b, 1).\n");
    let p = parse_program(&src).unwrap();
    let (model, prov) = explained(&MonotonicEngine::new(&p), &p);
    let s = p.find_pred("s").unwrap();
    let node = explain_tree(&p, &prov, model.interp(), s, &key(&p, &["b", "a"]), 8);
    assert!(matches!(node.kind, ExplainKind::Missing));
    let json = render_explain_json("test.mgl", "s(b, a)", &node, 8);
    assert!(json.contains("\"found\": false"));
}

/// Explain `goal` after each of twenty fresh evaluations of `src` (every
/// hash map iterates in a new order each time) and require one rendering.
fn explains_alike_every_time(src: &str, goal: &str) -> String {
    let p = parse_program(src).unwrap();
    let goal = parse_goal(&p, goal).unwrap();
    let renderings: BTreeSet<String> = (0..20)
        .map(|_| {
            let (model, prov) = explained(&MonotonicEngine::new(&p), &p);
            let tree = explain_tree(&p, &prov, model.interp(), goal.pred, &goal.key, 8);
            render_explain_human(&tree)
        })
        .collect();
    assert_eq!(renderings.len(), 1, "{renderings:#?}");
    renderings.into_iter().next().unwrap()
}

#[test]
fn tied_derivations_explain_alike_every_time() {
    // Three equal-cost routes a → {b, c, e} → d: path(a, b, d),
    // path(a, c, d) and path(a, e, d) each decide s(a, d) = 2. The
    // canonical order credits the least, through b.
    let diamond = format!(
        "{SHORTEST_PATH}\narc(a, b, 1). arc(a, c, 1). arc(a, e, 1).\n\
         arc(b, d, 1). arc(c, d, 1). arc(e, d, 1). arc(d, f, 1).\n"
    );
    let tree = explains_alike_every_time(&diamond, "s(a, f)");
    assert!(tree.contains("path(a, b, d) = 2"), "{tree}");
    assert!(!tree.contains("path(a, c, d)") && !tree.contains("path(a, e, d)"), "{tree}");
}

#[test]
fn joint_witnesses_are_the_least_elements_every_time() {
    // Twelve f tuples, inserted in hash-map order, are counted: the
    // rendering shows the eight least.
    let facts: Vec<String> = (1..=12).map(|i| format!("e(a, b{i}).")).collect();
    let fan = format!(
        "declare pred deg/2 cost nat.\n{}\n\
         f(X, Y) :- e(X, Y).\n\
         deg(X, N) :- N =r count : f(X, Y).\n",
        facts.join(" ")
    );
    let tree = explains_alike_every_time(&fan, "deg(a)");
    assert!(tree.contains("(8 of 12 witnesses shown)"), "{tree}");
    for i in 1..=12 {
        assert_eq!(tree.contains(&format!("f(a, b{i})")), i <= 8, "b{i}: {tree}");
    }
}

/// The probe of rule `ri` in the why-not report of the absent `goal`
/// over the database `model`.
fn probe_of(p: &Program, model: &Interp, goal: &str, ri: usize) -> RuleProbe {
    let goal = parse_goal(p, goal).unwrap();
    let report = why_not(p, model, &goal);
    assert!(report.present.is_none(), "{goal:?} is not in the model");
    report
        .rules
        .into_iter()
        .find(|r| r.rule == ri)
        .unwrap_or_else(|| panic!("rule {ri} is probed"))
}

fn model_of(src: &str) -> (Program, Model) {
    let p = parse_program(src).unwrap();
    let model = MonotonicEngine::new(&p).evaluate(&Edb::new()).unwrap();
    (p, model)
}

#[test]
fn why_not_names_a_failing_comparison() {
    let (p, model) = model_of(
        r#"
        declare pred arc/3 cost min_real.
        arc(a, b, 5).
        cheap(X, Y) :- arc(X, Y, C), C < 3.
        "#,
    );
    let probe = probe_of(&p, model.interp(), "cheap(a, b)", 0);
    assert!(probe.unified && probe.derivable.is_none());
    assert_eq!((probe.reached, probe.total), (1, 2));
    assert_eq!(probe.failed.as_deref(), Some("5 < 3"));
}

#[test]
fn why_not_names_a_failing_assignment() {
    // `N + 1` has no value for the symbol `x`, so the assignment fails. A
    // cost computed from a key is not cost-respecting: evaluate unchecked.
    let p = parse_program(
        r#"
        declare pred next/2 cost max_real.
        num(a, x).
        next(X, C) :- num(X, N), C = N + 1.
        "#,
    )
    .unwrap();
    let options = EvalOptions {
        allow_unchecked: true,
        ..Default::default()
    };
    let model = MonotonicEngine::with_options(&p, options).evaluate(&Edb::new()).unwrap();
    let probe = probe_of(&p, model.interp(), "next(a)", 0);
    assert!(probe.unified && probe.derivable.is_none());
    assert_eq!((probe.reached, probe.total), (1, 2));
    assert_eq!(probe.failed.as_deref(), Some("C = x + 1"));
}

#[test]
fn why_not_names_a_failing_negation() {
    let (p, model) = model_of(
        r#"
        edge(a, b). blocked(b).
        open(X, Y) :- edge(X, Y), ! blocked(Y).
        "#,
    );
    let probe = probe_of(&p, model.interp(), "open(a, b)", 0);
    assert!(probe.unified && probe.derivable.is_none());
    // The goal binds every variable, so the negation is planned first.
    assert_eq!((probe.reached, probe.total), (0, 2));
    assert_eq!(probe.failed.as_deref(), Some("! blocked(b)"));
}

#[test]
fn why_not_names_a_total_aggregate_the_goal_leaves_ungrouped() {
    // The grouping variable `G` occurs outside the aggregate only in the
    // head's cost argument, so the goal `tally(a)` cannot bind it and no
    // plan can reach the `=` aggregate. The program cannot be evaluated,
    // so the probe runs against an empty database.
    let p = parse_program(
        r#"
        declare pred tally/2 cost max_real.
        tally(X, G) :- N = count : item(X, G).
        "#,
    )
    .unwrap();
    let probe = probe_of(&p, &Interp::new(), "tally(a)", 0);
    assert!(probe.unified && probe.derivable.is_none());
    let failed = probe.failed.expect("the refusal is named");
    assert!(failed.contains("unbound `=`-aggregate grouping"), "got: {failed}");
    assert!(failed.contains("N = count : item(X, G)"), "got: {failed}");
}

/// `T_P(M) = M` through why-not: on random shortest-path instances, a key
/// of `s` or `path` is in the model exactly when some rule's probe finds
/// its body satisfiable, and the model cost is the least derivable cost.
#[test]
fn why_not_derivable_costs_reproduce_the_model() {
    let p = parse_program(programs::SHORTEST_PATH).unwrap();
    for seed in 0..4u64 {
        let g = random_digraph(10 + seed as usize % 3, 2.0, (0.5, 6.0), 40 + seed);
        let model = MonotonicEngine::new(&p).evaluate(&g.to_edb(&p)).unwrap();
        let nodes: Vec<String> = (0..g.n).map(|i| format!("n{i}")).collect();
        let mut vias = nodes.clone();
        vias.push("direct".to_string());
        let mut keys = Vec::new();
        for x in &nodes {
            for y in &nodes {
                keys.push(("s", vec![x.clone(), y.clone()]));
                for z in &vias {
                    keys.push(("path", vec![x.clone(), z.clone(), y.clone()]));
                }
            }
        }
        let mut derived = 0;
        for (pred, args) in keys {
            let goal = parse_goal(&p, &format!("{pred}({})", args.join(", "))).unwrap();
            let report = why_not(&p, model.interp(), &goal);
            let least = report
                .rules
                .iter()
                .filter_map(|r| r.derivable.as_deref())
                .map(|c| c.parse::<f64>().unwrap())
                .reduce(f64::min);
            let held = model
                .interp()
                .cost(&p, goal.pred, &goal.key)
                .map(|c| c.and_then(|v| v.as_f64()).unwrap());
            assert_eq!(held, least, "seed {seed}: {}", report.goal);
            derived += usize::from(held.is_some());
        }
        assert!(derived > g.arcs.len(), "seed {seed}: a trivial instance");
    }
}
