//! Derivation provenance: why a fact holds, and why another does not.
//!
//! ```text
//! cargo run --example explain
//! ```
//!
//! Evaluates the widest-path program (max aggregate, min(.,.) combiner)
//! with capture on, walks the provenance chain of one fact by hand, then
//! renders the explain tree and a why-not report — the same machinery
//! behind `maglog explain`.

use maglog::engine::{
    explain_tree, parse_goal, render_explain_human, render_why_not_human, why_not, NoopSink,
};
use maglog::prelude::*;

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

fn main() {
    let program = parse_program(WIDEST_PATH).expect("widest-path program parses");

    // Evaluate with derivation capture on: same model, plus a provenance
    // DAG of every accepted insert and improvement.
    let (model, prov) = MonotonicEngine::new(&program)
        .evaluate_with_provenance(&Edb::new(), &mut NoopSink)
        .expect("widest-path program evaluates");
    println!("minimal model:\n{}", model.render(&program));
    println!("{} derivations committed\n", prov.len());

    // The widest a→c path is refined: first the direct link (bottleneck
    // 1), then through b (bottleneck 3). The chain records both.
    let goal = parse_goal(&program, "w(a, c)").expect("goal parses");
    let history = prov.history(goal.pred, &goal.key);
    println!("cost-refinement history of w(a, c):");
    for node in &history {
        let cost = node.cost.as_ref().map_or("true".into(), |c| c.display(&program));
        println!(
            "  round {}: rule {} gave {}{}",
            node.round,
            node.rule,
            cost,
            if node.improved { "  (improvement)" } else { "" }
        );
    }

    // The explain tree grounds the final value out in EDB inputs, with
    // the max-aggregate witness at each step.
    println!("\nwhy w(a, c)?");
    let tree = explain_tree(&program, &prov, model.interp(), goal.pred, &goal.key, 8);
    print!("{}", render_explain_human(&tree));

    // And the counterfactual: no link leaves d, so every rule fails.
    let absent = parse_goal(&program, "w(d, a)").expect("goal parses");
    println!();
    print!("{}", render_why_not_human(&why_not(&program, model.interp(), &absent)));
}
