//! The experiments binary: regenerates the semantics tables in
//! EXPERIMENTS.md and the P6 aggregate microbenchmarks.
//!
//! ```text
//! cargo run --release -p maglog-bench --bin experiments                # all
//! cargo run --release -p maglog-bench --bin experiments -- fig1       # one
//! cargo run --release -p maglog-bench --bin experiments -- aggregates # P6
//! ```
//!
//! Engine timings (the P1–P4 tables and `BENCH_engine.json`) come from
//! `maglog bench`; the `aggregates` section times through the same
//! sample loop ([`maglog_bench::v2::time_samples`]). Unknown sections or
//! flags are usage errors (exit 2).

use maglog_analysis::rmono::r_monotonicity_report;
use maglog_analysis::{check_program, conflict_free_report, is_cost_respecting};
use maglog_baselines::direct::{
    all_pairs_dijkstra, company_control, eval_circuit_minimal, party_attendance,
};
use maglog_baselines::ggz::{evaluate_ggz, GgzOutcome};
use maglog_baselines::kemp_stuckey::{ks_well_founded, AtomStatus};
use maglog_baselines::stable::is_stable_model;
use maglog_baselines::stratified::evaluate_stratified;
use maglog_bench::v2::time_samples;
use maglog_bench::{fmt_secs, program, run_seminaive};
use maglog_datalog::{parse_program, AggFunc, DomainSpec};
use maglog_engine::aggregate::apply;
use maglog_engine::value::RuntimeDomain;
use maglog_engine::{Edb, Interp, MonotonicEngine, Tuple, Value};
use maglog_lattice::Multiset;
use maglog_workloads::{
    grid_graph, layered_dag, programs, random_circuit, random_digraph, random_ownership,
    random_party, ring_with_chords,
};
use maglog_prng::rngs::StdRng;
use maglog_prng::{Rng, SeedableRng};

const SECTIONS: [&str; 14] = [
    "fig1",
    "ex3_1",
    "shortest_path",
    "company",
    "party",
    "circuit",
    "halfsum",
    "nonmono",
    "grades",
    "conflict",
    "rmono",
    "prop6_1",
    "termination",
    "aggregates",
];

fn usage_exit(msg: &str) -> ! {
    eprintln!("experiments: {msg}");
    eprintln!("usage: experiments [SECTION...]");
    eprintln!("sections: {}", SECTIONS.join(" "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for a in &args {
        if a.starts_with('-') {
            usage_exit(&format!("unknown flag {a:?}"));
        }
        if !SECTIONS.contains(&a.as_str()) {
            usage_exit(&format!("unknown section {a:?}"));
        }
    }
    let pick = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    if pick("fig1") {
        exp_fig1();
    }
    if pick("ex3_1") {
        exp_ex3_1();
    }
    if pick("shortest_path") {
        exp_shortest_path();
    }
    if pick("company") {
        exp_company();
    }
    if pick("party") {
        exp_party();
    }
    if pick("circuit") {
        exp_circuit();
    }
    if pick("halfsum") {
        exp_halfsum();
    }
    if pick("nonmono") {
        exp_nonmono();
    }
    if pick("grades") {
        exp_grades();
    }
    if pick("conflict") {
        exp_conflict();
    }
    if pick("rmono") {
        exp_rmono();
    }
    if pick("prop6_1") {
        exp_prop6_1();
    }
    if pick("termination") {
        exp_termination();
    }
    if pick("aggregates") {
        exp_aggregates();
    }
}

// ---------------------------------------------------------------- E1

/// Randomized verification of Figure 1: every listed aggregate function is
/// monotonic on its listed structure; the pseudo-monotonic structures of
/// Section 4.1.1 pass the fixed-cardinality check and (where applicable)
/// fail full monotonicity.
fn exp_fig1() {
    println!("== E1 (Figure 1): monotonic aggregate functions, 10k trials each ==");
    println!(
        "{:<11} {:<14} {:<14} {:>10} {:>12} {:>14}",
        "F", "domain ⊑_D", "range ⊑_R", "monotonic", "pseudo-mono", "growth breaks"
    );
    // (func, domain, monotonic-per-Figure-1)
    let rows: &[(AggFunc, DomainSpec, bool)] = &[
        (AggFunc::Max, DomainSpec::MaxReal, true),
        (AggFunc::Max, DomainSpec::NonNegReal, true),
        (AggFunc::Min, DomainSpec::MinReal, true),
        (AggFunc::Sum, DomainSpec::NonNegReal, true),
        (AggFunc::And, DomainSpec::BoolAnd, true),
        (AggFunc::Or, DomainSpec::BoolOr, true),
        (AggFunc::Product, DomainSpec::PosNat, true),
        (AggFunc::Count, DomainSpec::BoolOr, true),
        (AggFunc::Union, DomainSpec::SetUnion, true),
        (AggFunc::Intersect, DomainSpec::SetIntersect, true),
        // Pseudo-monotonic structures (Section 4.1.1):
        (AggFunc::And, DomainSpec::BoolOr, false),
        (AggFunc::Min, DomainSpec::MaxReal, false),
        (AggFunc::Avg, DomainSpec::MaxReal, false),
        (AggFunc::HalfSum, DomainSpec::NonNegReal, true),
    ];
    let mut rng = StdRng::seed_from_u64(1992);
    for &(func, domain, expect_mono) in rows {
        let (mono, pseudo, growth_witness) = trial_monotonicity(func, domain, &mut rng);
        assert!(pseudo, "{func:?} on {domain:?} must be pseudo-monotonic");
        assert_eq!(
            mono, expect_mono,
            "{func:?} on {domain:?}: Figure 1 says monotonic = {expect_mono}"
        );
        println!(
            "{:<11} {:<14} {:<14} {:>10} {:>12} {:>14}",
            func.name(),
            domain.name(),
            range_of(func, domain).name(),
            yes(mono),
            yes(pseudo),
            if mono {
                "-".to_string()
            } else {
                growth_witness
            }
        );
    }
    println!();
}

fn range_of(func: AggFunc, domain: DomainSpec) -> DomainSpec {
    match func {
        AggFunc::Count => DomainSpec::Nat,
        _ => domain,
    }
}

/// Returns (fully monotonic over 10k trials, pseudo-monotonic over 10k
/// trials, a textual growth counterexample when not monotonic).
fn trial_monotonicity(
    func: AggFunc,
    domain: DomainSpec,
    rng: &mut StdRng,
) -> (bool, bool, String) {
    let d = RuntimeDomain::new(domain);
    let range = RuntimeDomain::new(range_of(func, domain));
    let mut mono = true;
    let mut pseudo = true;
    let mut witness = String::new();
    for _ in 0..10_000 {
        let base: Vec<Value> = (0..rng.gen_range(0..6))
            .map(|_| random_value(domain, rng))
            .collect();
        // Raise elements pointwise (same cardinality).
        let raised: Vec<Value> = base
            .iter()
            .map(|v| d.join(v, &random_value(domain, rng)))
            .collect();
        let (Some(fb), Some(fr)) = (
            apply(func, &base),
            apply(func, &raised),
        ) else {
            continue; // empty avg etc.
        };
        if !range.leq(&fb, &fr) {
            pseudo = false;
            mono = false;
        }
        // Grow the multiset.
        let mut grown = raised.clone();
        for _ in 0..rng.gen_range(1..4) {
            grown.push(random_value(domain, rng));
        }
        if let (Some(fr2), Some(fg)) = (
            apply(func, &raised),
            apply(func, &grown),
        ) {
            if !range.leq(&fr2, &fg) && mono {
                mono = false;
                witness = format!("F{fr2} ⋢ F{fg}");
            }
        }
    }
    (mono, pseudo, witness)
}

fn random_value(domain: DomainSpec, rng: &mut StdRng) -> Value {
    match domain {
        DomainSpec::MaxReal | DomainSpec::MinReal => {
            Value::num((rng.gen_range(-40..40) as f64) / 4.0)
        }
        DomainSpec::NonNegReal => Value::num((rng.gen_range(0..64) as f64) / 4.0),
        DomainSpec::Nat => Value::num(rng.gen_range(0..20) as f64),
        DomainSpec::PosNat => Value::num(rng.gen_range(1..10) as f64),
        DomainSpec::BoolOr | DomainSpec::BoolAnd => Value::Bool(rng.gen()),
        DomainSpec::SetUnion | DomainSpec::SetIntersect => Value::set(
            (0..8).filter(|_| rng.gen::<bool>()).map(|i| Value::num(i as f64)),
        ),
    }
}

// ---------------------------------------------------------------- E2

fn exp_ex3_1() {
    println!("== E2 (Example 3.1): arc(a,b,1), arc(b,b,0) ==");
    let src = format!("{}\narc(a, b, 1). arc(b, b, 0).", programs::SHORTEST_PATH);
    let p = parse_program(&src).unwrap();
    let model = run_seminaive(&p, &Edb::new());
    println!("engine minimal model:");
    for line in model.render(&p).lines() {
        if line.starts_with("s(") || line.starts_with("path(") {
            println!("  {line}");
        }
    }
    // Build M2 and compare.
    let mut m2 = Interp::new();
    let sym = |s: &str| Value::Sym(p.symbols.intern(s));
    let rows: &[(&str, Vec<Value>, f64)] = &[
        ("arc", vec![sym("a"), sym("b")], 1.0),
        ("arc", vec![sym("b"), sym("b")], 0.0),
        ("path", vec![sym("a"), sym("direct"), sym("b")], 1.0),
        ("path", vec![sym("b"), sym("direct"), sym("b")], 0.0),
        ("path", vec![sym("a"), sym("b"), sym("b")], 0.0),
        ("path", vec![sym("b"), sym("b"), sym("b")], 0.0),
        ("s", vec![sym("a"), sym("b")], 0.0),
        ("s", vec![sym("b"), sym("b")], 0.0),
    ];
    for (pred, key, cost) in rows {
        m2.relation_mut(p.find_pred(pred).unwrap())
            .insert(Tuple::new(key.clone()), Some(Value::num(*cost)));
    }
    let m1_stable = is_stable_model(&p, &Edb::new(), model.interp()).unwrap();
    let m2_stable = is_stable_model(&p, &Edb::new(), &m2).unwrap();
    println!("M1 stable: {m1_stable}   M2 stable: {m2_stable}");
    println!(
        "M1 ⊑ M2: {}   M2 ⊑ M1: {}   (least model is M1, as the paper states)\n",
        model.interp().leq(&m2, &p),
        m2.leq(model.interp(), &p)
    );
    assert!(m1_stable && m2_stable);
}

// ---------------------------------------------------------------- E3

fn exp_shortest_path() {
    println!("== E3 (Example 2.6 / §5.3 / §5.4): shortest path across semantics ==");
    let p = program(programs::SHORTEST_PATH);
    println!(
        "{:<26} {:>7} {:>9} {:>12} {:>14} {:>12}",
        "instance", "nodes", "s-atoms", "engine", "Kemp-Stuckey", "GGZ+WFS"
    );
    let cases: Vec<(&str, maglog_workloads::GraphInstance)> = vec![
        ("grid 6x6 (acyclic)", grid_graph(6, 6, 21)),
        ("layered DAG 8x4", layered_dag(8, 4, 0.4, 22)),
        ("ring+chords n=12 (cyclic)", ring_with_chords(12, 10, 23)),
        ("random n=16 (cyclic)", random_digraph(16, 2.5, (1.0, 9.0), 24)),
    ];
    for (name, g) in cases {
        let edb = g.to_edb(&p);
        let model = run_seminaive(&p, &edb);
        let ks = ks_well_founded(&p, &edb).unwrap();
        let undef = ks.count(AtomStatus::Undefined);
        let ggz = match evaluate_ggz(&p, &edb, 2_000).unwrap() {
            GgzOutcome::Model(wf) => {
                if wf.undefined_atoms(&p).is_empty() {
                    "2-valued".to_string()
                } else {
                    "3-valued".to_string()
                }
            }
            GgzOutcome::Diverged(_) => "diverges".to_string(),
        };
        // Verify engine against Dijkstra.
        let dist = all_pairs_dijkstra(g.n, &g.arcs);
        let mut ok = true;
        for &(u, w, c) in &g.arcs {
            for (v, rest) in dist[w].iter().enumerate() {
                if let Some(rest) = *rest {
                    let got = model
                        .cost_of(&p, "s", &[&format!("n{u}"), &format!("n{v}")])
                        .and_then(|x| x.as_f64())
                        .unwrap_or(f64::INFINITY);
                    ok &= got <= c + rest + 1e-9;
                }
            }
        }
        assert!(ok, "engine distance above a witnessed path on {name}");
        println!(
            "{:<26} {:>7} {:>9} {:>12} {:>14} {:>12}",
            name,
            g.n,
            model.count(&p, "s"),
            "all decided",
            if undef == 0 {
                "2-valued".to_string()
            } else {
                format!("{undef} undef")
            },
            ggz
        );
    }
    println!();
}

// ---------------------------------------------------------------- E4

fn exp_company() {
    println!("== E4 (Example 2.7 / §5.6): company control ==");
    let p = program(programs::COMPANY_CONTROL);
    let mut edb = Edb::new();
    for (o, c, f) in [("a", "b", 0.3), ("a", "c", 0.3), ("b", "c", 0.6), ("c", "b", 0.6)] {
        edb.push_cost_fact(&p, "s", &[o, c], f);
    }
    let model = run_seminaive(&p, &edb);
    let ks = ks_well_founded(&p, &edb).unwrap();
    println!("Van Gelder EDB {{s(a,b,.3), s(a,c,.3), s(b,c,.6), s(c,b,.6)}}:");
    println!("{:<10} {:>14} {:>16}", "atom", "minimal model", "K&S WFS");
    for (x, y) in [("a", "b"), ("a", "c"), ("b", "c"), ("c", "b")] {
        println!(
            "{:<10} {:>14} {:>16}",
            format!("c({x},{y})"),
            if model.holds(&p, "c", &[x, y]) { "true" } else { "false" },
            format!("{:?}", ks.status(&p, "c", &[x, y]))
        );
    }
    // Random networks: engine ≡ direct solver; K&S undefined counts grow
    // with planted cyclicity.
    println!("\nrandom ownership networks (n=30, seeds 0..3):");
    println!(
        "{:<6} {:>9} {:>14} {:>16} {:>12}",
        "seed", "holdings", "control pairs", "K&S undefined", "agree"
    );
    for seed in 0..3u64 {
        let inst = random_ownership(30, 4, 0.5, 0.4, seed);
        let edb = inst.to_edb(&p);
        let model = run_seminaive(&p, &edb);
        let ks = ks_well_founded(&p, &edb).unwrap();
        let (controls, _) = company_control(inst.n, &inst.shares);
        let mut agree = true;
        let mut pairs = 0;
        for x in 0..inst.n {
            for y in 0..inst.n {
                let ours = model.holds(&p, "c", &[&format!("co{x}"), &format!("co{y}")]);
                agree &= ours == controls.contains(&(x, y));
                pairs += ours as usize;
            }
        }
        println!(
            "{:<6} {:>9} {:>14} {:>16} {:>12}",
            seed,
            inst.shares.len(),
            pairs,
            ks.count(AtomStatus::Undefined),
            yes(agree)
        );
        assert!(agree);
    }
    println!();
}

// ---------------------------------------------------------------- E5

fn exp_party() {
    println!("== E5 (Example 4.3): party invitations on cyclic knows ==");
    let p = program(programs::PARTY);
    let report = check_program(&p);
    println!(
        "verdicts: monotonic={} r-monotonic={} agg-stratified={}",
        yes(report.is_monotonic()),
        yes(report.is_r_monotonic()),
        yes(report.is_aggregate_stratified())
    );
    println!(
        "{:<6} {:>7} {:>9} {:>10} {:>16} {:>10}",
        "seed", "guests", "coming", "direct ok", "K&S undefined", "stratified"
    );
    for seed in 0..3u64 {
        let inst = random_party(60, 5.0, 0.15, seed);
        let edb = inst.to_edb(&p);
        let model = run_seminaive(&p, &edb);
        let direct = party_attendance(&inst.knows, &inst.requires);
        let mut agree = true;
        let mut coming = 0;
        for (x, &want) in direct.iter().enumerate() {
            let ours = model.holds(&p, "coming", &[&format!("g{x}")]);
            agree &= ours == want;
            coming += ours as usize;
        }
        let ks = ks_well_founded(&p, &edb).unwrap();
        let stratified = match evaluate_stratified(&p, &edb) {
            Err(_) => "rejected",
            Ok(_) => "accepted",
        };
        println!(
            "{:<6} {:>7} {:>9} {:>10} {:>16} {:>10}",
            seed,
            inst.n(),
            coming,
            yes(agree),
            ks.count(AtomStatus::Undefined),
            stratified
        );
        assert!(agree);
    }
    println!();
}

// ---------------------------------------------------------------- E6

fn exp_circuit() {
    println!("== E6 (Example 4.4): cyclic circuits, pseudo-monotonic AND ==");
    let p = program(programs::CIRCUIT);
    println!(
        "{:<6} {:>7} {:>8} {:>10} {:>16}",
        "seed", "gates", "true", "direct ok", "K&S undefined"
    );
    for seed in 0..3u64 {
        let inst = random_circuit(10, 50, 2, 0.35, seed);
        let edb = inst.to_edb(&p);
        let model = run_seminaive(&p, &edb);
        let want = eval_circuit_minimal(&inst.to_circuit());
        let mut agree = true;
        let mut trues = 0;
        for wire in 0..(inst.n_inputs + inst.n_gates) {
            let ours = model
                .cost_of(&p, "t", &[&format!("w{wire}")])
                .map(|v| v == Value::Bool(true))
                .unwrap_or(false);
            agree &= ours == *want.get(&wire).unwrap_or(&false);
            trues += ours as usize;
        }
        let ks = ks_well_founded(&p, &edb).unwrap();
        println!(
            "{:<6} {:>7} {:>8} {:>10} {:>16}",
            seed,
            inst.n_gates,
            trues,
            yes(agree),
            ks.undefined_keys(&p, "t").len()
        );
        assert!(agree);
    }
    println!();
}

// ---------------------------------------------------------------- E7

fn exp_halfsum() {
    println!("== E7 (Example 5.1): halfsum — T_P monotone, not continuous ==");
    let p = program(programs::HALFSUM);
    let model = run_seminaive(&p, &Edb::new());
    let rounds: usize = model.stats().rounds.iter().sum();
    println!(
        "least model: p(a) = {}, p(b) = {}",
        model.cost_of(&p, "p", &["a"]).unwrap(),
        model.cost_of(&p, "p", &["b"]).unwrap()
    );
    println!("rounds to the ω-limit: {rounds} (IEEE-754 halving bottoms out exactly)\n");
    assert_eq!(model.cost_of(&p, "p", &["a"]).unwrap().as_f64(), Some(1.0));
}

// ---------------------------------------------------------------- E8

fn exp_nonmono() {
    println!("== E8 (Section 3): the two-minimal-models program ==");
    let p = program(programs::NONMONO_TWO_MODELS);
    let report = check_program(&p);
    println!("admissible: {}", yes(report.is_monotonic()));
    let refused = MonotonicEngine::new(&p).evaluate(&Edb::new()).is_err();
    println!("engine refuses to evaluate: {}", yes(refused));

    let mk = |atoms: &[(&str, &str)]| {
        let mut m = Interp::new();
        for (pred, k) in atoms {
            m.relation_mut(p.find_pred(pred).unwrap()).insert(
                Tuple::new(vec![Value::Sym(p.symbols.intern(k))]),
                None,
            );
        }
        m
    };
    let ma = mk(&[("p", "a"), ("p", "b"), ("q", "b")]);
    let mb = mk(&[("q", "a"), ("p", "b"), ("q", "b")]);
    println!(
        "{{p(a),p(b),q(b)}} stable: {}   {{q(a),p(b),q(b)}} stable: {}\n",
        yes(is_stable_model(&p, &Edb::new(), &ma).unwrap()),
        yes(is_stable_model(&p, &Edb::new(), &mb).unwrap())
    );
}

// ---------------------------------------------------------------- E9

fn exp_grades() {
    println!("== E9 (Examples 2.1/2.2): grades; `=` vs `=r`; range restriction ==");
    let src = format!(
        "{}\nrecord(john, db, 80). record(john, os, 60).\n\
         record(mary, db, 90). record(mary, ai, 70).\n\
         courses(db). courses(os). courses(ai). courses(logic).",
        programs::GRADES
    );
    let p = parse_program(&src).unwrap();
    let model = run_seminaive(&p, &Edb::new());
    println!("s_avg(john) = {}", model.cost_of(&p, "s_avg", &["john"]).unwrap());
    println!("c_avg(db)   = {}", model.cost_of(&p, "c_avg", &["db"]).unwrap());
    println!("all_avg     = {}", model.cost_of(&p, "all_avg", &[]).unwrap());
    println!(
        "class_count(logic) = {:?} (`=r`: empty classes absent)",
        model.cost_of(&p, "class_count", &["logic"]).map(|v| v.to_string())
    );
    println!(
        "alt_class_count(logic) = {} (`=`: empty classes count 0)",
        model.cost_of(&p, "alt_class_count", &["logic"]).unwrap()
    );

    // Example 2.2's non-range-restricted variants are rejected.
    for (label, bad) in [
        (
            "alt-class-count without courses(C)",
            "declare pred record/3 cost max_real.\ndeclare pred acc/2 cost nat.\n\
             acc(C, N) :- N = count : record(S, C, G).",
        ),
        (
            "s via `=` min (unlimited groupings)",
            "declare pred path/4 cost min_real.\ndeclare pred s/3 cost min_real.\n\
             s(X, Y, C) :- C = min D : path(X, Z, Y, D).",
        ),
    ] {
        let bp = parse_program(bad).unwrap();
        let r = check_program(&bp);
        println!("rejected ({label}): {}", yes(!r.is_range_restricted()));
        assert!(!r.is_range_restricted());
    }
    println!();
}

// ---------------------------------------------------------------- E10

fn exp_conflict() {
    println!("== E10 (Examples 2.3–2.5): cost-respecting / conflict-freedom ==");
    // Example 2.3.
    let not_respecting = parse_program(
        "declare pred p/2 cost max_real.\ndeclare pred q/3 cost max_real.\n\
         p(X, C) :- q(X, Y, C).",
    )
    .unwrap();
    println!(
        "p(X,C) :- q(X,Y,C)                 cost-respecting: {}",
        yes(is_cost_respecting(&not_respecting, &not_respecting.rules[0]))
    );
    let path_rule = parse_program(
        "declare pred s/3 cost min_real.\ndeclare pred arc/3 cost min_real.\n\
         declare pred path/4 cost min_real.\n\
         path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.",
    )
    .unwrap();
    println!(
        "path rule with C = C1 + C2         cost-respecting: {}",
        yes(is_cost_respecting(&path_rule, &path_rule.rules[0]))
    );
    // Example 2.5 + the constraint.
    let with = program(programs::SHORTEST_PATH);
    let without_src = programs::SHORTEST_PATH.replace("constraint :- arc(direct, Z, C).", "");
    let without = parse_program(&without_src).unwrap();
    println!(
        "shortest path w/ integrity constraint  conflict-free: {}",
        yes(conflict_free_report(&with).is_conflict_free())
    );
    println!(
        "shortest path w/o constraint           conflict-free: {}",
        yes(conflict_free_report(&without).is_conflict_free())
    );
    let cc = program(programs::COMPANY_CONTROL);
    println!(
        "company control (containment mapping)  conflict-free: {}\n",
        yes(conflict_free_report(&cc).is_conflict_free())
    );
}

// ---------------------------------------------------------------- E11

fn exp_rmono() {
    println!("== E11 (Section 5.2): r-monotonicity verdicts ==");
    for (name, src, expect) in [
        ("company control (split)", programs::COMPANY_CONTROL, false),
        ("company control (merged)", programs::COMPANY_CONTROL_MERGED, true),
        ("shortest path", programs::SHORTEST_PATH, false),
        ("party invitations", programs::PARTY, false),
    ] {
        let p = program(src);
        let issues = r_monotonicity_report(&p);
        let verdict = issues.is_empty();
        assert_eq!(verdict, expect, "{name}");
        println!(
            "{:<26} r-monotonic: {:<4} {}",
            name,
            yes(verdict),
            issues.first().map(|(_, m)| m.as_str()).unwrap_or("")
        );
    }
    println!();
}

// ---------------------------------------------------------------- E12

fn exp_prop6_1() {
    println!("== E12 (Proposition 6.1): agreement with the K&S WFS where defined ==");
    let p = program(programs::SHORTEST_PATH);
    let cc = program(programs::COMPANY_CONTROL);
    let mut compared = 0usize;
    let mut disagreements = 0usize;
    // Acyclic shortest-path instances: K&S is two-valued and must match.
    for seed in 0..4u64 {
        let g = layered_dag(6, 3, 0.5, seed);
        let edb = g.to_edb(&p);
        let model = run_seminaive(&p, &edb);
        let ks = ks_well_founded(&p, &edb).unwrap();
        for u in 0..g.n {
            for v in 0..g.n {
                let keys = [format!("n{u}"), format!("n{v}")];
                let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
                match ks.status(&p, "s", &keys) {
                    AtomStatus::True => {
                        compared += 1;
                        let ours = model.cost_of(&p, "s", &keys);
                        let theirs = ks.true_cost(&p, "s", &keys);
                        if ours != theirs {
                            disagreements += 1;
                        }
                    }
                    AtomStatus::False => {
                        compared += 1;
                        if model.cost_of(&p, "s", &keys).is_some() {
                            disagreements += 1;
                        }
                    }
                    AtomStatus::Undefined => { /* Prop 6.1 says nothing */ }
                }
            }
        }
    }
    // Cyclic company-control instances: compare only on decided atoms.
    for seed in 0..3u64 {
        let inst = random_ownership(20, 3, 0.5, 0.4, seed);
        let edb = inst.to_edb(&cc);
        let model = run_seminaive(&cc, &edb);
        let ks = ks_well_founded(&cc, &edb).unwrap();
        for x in 0..inst.n {
            for y in 0..inst.n {
                let keys = [format!("co{x}"), format!("co{y}")];
                let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
                match ks.status(&cc, "c", &keys) {
                    AtomStatus::True => {
                        compared += 1;
                        disagreements += !model.holds(&cc, "c", &keys) as usize;
                    }
                    AtomStatus::False => {
                        compared += 1;
                        disagreements += model.holds(&cc, "c", &keys) as usize;
                    }
                    AtomStatus::Undefined => {}
                }
            }
        }
    }
    println!(
        "compared {compared} K&S-decided atoms across 7 instances: {disagreements} \
         disagreements\n"
    );
    assert_eq!(disagreements, 0);
}

// ---------------------------------------------------------------- E13

fn exp_termination() {
    println!("== E13 (Section 6.2): termination verdicts (cost-flow analysis) ==");
    println!("{:<28} {:>12}  reason", "program", "verdict");
    for (name, src) in [
        ("shortest path", programs::SHORTEST_PATH),
        ("company control", programs::COMPANY_CONTROL),
        ("party invitations", programs::PARTY),
        ("circuit", programs::CIRCUIT),
        ("widest path", programs::WIDEST_PATH),
        ("grades", programs::GRADES),
        ("halfsum", programs::HALFSUM),
    ] {
        let p = program(src);
        let report = check_program(&p);
        let guaranteed = report.is_termination_guaranteed();
        let reason = report
            .termination
            .iter()
            .find(|v| !v.is_guaranteed())
            .map(|v| v.reason().to_string())
            .unwrap_or_else(|| "all cost-flow cycles selective / finite".into());
        println!(
            "{:<28} {:>12}  {}",
            name,
            if guaranteed { "guaranteed" } else { "unknown" },
            truncate(&reason, 70)
        );
    }
    println!();
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n).collect();
        format!("{cut}…")
    }
}

// ---------------------------------------------------------------- P6

/// P6: `apply` over multisets of growing size, and the two multiset-order
/// decision procedures (the sorted sweep vs. Hopcroft–Karp matching).
fn exp_aggregates() {
    const SAMPLES: usize = 30;
    println!("== P6: aggregate microbenchmarks (median of {SAMPLES} samples) ==");
    let row = |group: &str, name: &str, size: usize, median: f64| {
        println!("{group:<16} {name:<14} {size:>6} {:>12}", fmt_secs(median));
    };
    println!("{:<16} {:<14} {:>6} {:>12}", "group", "function", "size", "median");
    let mut rng = StdRng::seed_from_u64(42);
    for size in [16usize, 256, 4096] {
        let nums: Vec<Value> = (0..size)
            .map(|_| Value::num(rng.gen_range(0..1000) as f64 / 4.0))
            .collect();
        let bools: Vec<Value> = (0..size).map(|_| Value::Bool(rng.gen())).collect();
        for (func, input) in [
            (AggFunc::Min, &nums),
            (AggFunc::Sum, &nums),
            (AggFunc::Avg, &nums),
            (AggFunc::Count, &nums),
            (AggFunc::And, &bools),
        ] {
            let stats = time_samples(SAMPLES, || apply(func, input).unwrap());
            row("apply", func.name(), size, stats.median);
        }
    }
    let mut rng = StdRng::seed_from_u64(43);
    for size in [16usize, 64, 256] {
        let base: Multiset<i64> = (0..size).map(|_| rng.gen_range(0..100)).collect();
        let bigger: Multiset<i64> = base.iter().map(|&v| v + rng.gen_range(0..5i64)).collect();
        let sweep = time_samples(SAMPLES, || base.leq_total_order(&bigger, |a, b| a <= b));
        let matching = time_samples(SAMPLES, || base.leq_by_matching(&bigger, |a, b| a <= b));
        row("multiset_order", "sorted_sweep", size, sweep.median);
        row("multiset_order", "hopcroft_karp", size, matching.median);
    }
    println!();
}

fn yes(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}
