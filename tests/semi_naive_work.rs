//! Work guards for semi-naive aggregate drivers on Example 4.4's circuit.
//!
//! A changed `t(W)` binds only the wire `W`, not the gate `G` that groups
//! `C = or D : [connect(G, W), t(W, D)]`. Semi-naive evaluation must still
//! re-fold only the gates the changed wire feeds (group discovery through
//! `connect`), so it does a fraction of naive's work, probes only indexes
//! registered at plan time, and records complete aggregate witnesses.

use maglog::engine::{
    explain_tree, EvalOptions, ExplainKind, MetricsSink, MonotonicEngine, NoopSink, Strategy, Value,
};
use maglog::prelude::*;
use maglog::workloads::{programs, random_circuit};

fn derivations(p: &Program, edb: &Edb, strategy: Strategy) -> u64 {
    let engine = MonotonicEngine::with_options(
        p,
        EvalOptions {
            strategy,
            ..Default::default()
        },
    );
    engine.evaluate(edb).unwrap().stats().derivations
}

#[test]
fn seminaive_circuit_derivations_are_a_fraction_of_naive() {
    let p = parse_program(programs::CIRCUIT).unwrap();
    let edb = random_circuit(16, 1024, 2, 0.3, 1031).to_edb(&p);
    let semi = derivations(&p, &edb, Strategy::SemiNaive);
    let naive = derivations(&p, &edb, Strategy::Naive);
    // Re-folding every gate each round would put semi-naive at ~98% of
    // naive here; re-folding only the affected gates puts it near 12%.
    assert!(
        semi * 4 <= naive,
        "semi-naive did {semi} derivations against naive's {naive} (> 1/4)"
    );
}

#[test]
fn seminaive_circuit_probes_only_plan_registered_indexes() {
    let p = parse_program(programs::CIRCUIT).unwrap();
    let edb = random_circuit(16, 256, 2, 0.3, 263).to_edb(&p);
    let mut sink = MetricsSink::new(&p, Strategy::SemiNaive);
    MonotonicEngine::new(&p)
        .evaluate_with_sink(&edb, &mut sink)
        .unwrap();
    let report = sink.finish();
    let probes: u64 = report.indexes.iter().map(|i| i.stats.probes).sum();
    assert!(probes > 0, "the discovery join probes connect by wire");
    for index in &report.indexes {
        assert_eq!(index.stats.lazy_builds, 0, "lazy index build on {}", index.pred);
    }
}

#[test]
fn circuit_provenance_has_complete_aggregate_witnesses() {
    let p = parse_program(programs::CIRCUIT).unwrap();
    let inst = random_circuit(16, 64, 2, 0.3, 71);
    let (model, prov) = MonotonicEngine::new(&p)
        .evaluate_with_provenance(&inst.to_edb(&p), &mut NoopSink)
        .unwrap();
    let t = p.find_pred("t").unwrap();
    let rel = model.interp().relation(t).expect("t is derived");
    let mut gates = 0;
    for (key, cost) in rel.iter() {
        if cost != &Some(Value::Bool(true)) {
            continue; // the default: no derivation is recorded
        }
        let tree = explain_tree(&p, &prov, model.interp(), t, key, 1);
        let ExplainKind::Derived { rule, aggs, .. } = tree.kind else {
            panic!("no derivation tree for t({:?}): {:?}", key, tree.kind);
        };
        if rule == 0 {
            continue; // an input wire
        }
        gates += 1;
        assert!(!aggs.is_empty(), "gate t({key:?}) has no aggregate witness");
        assert!(aggs.iter().all(|a| !a.partial), "partial witness for t({key:?})");
        let node = prov.node(t, key).expect("derivation node");
        assert!(node.aggs.iter().all(|a| !a.partial && a.elements > 0));
    }
    assert!(gates > 0, "degenerate circuit: no gate is on");
}
