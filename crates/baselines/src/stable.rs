//! Kemp & Stuckey's stable models (Sections 5.3 and 5.5).
//!
//! K&S treat aggregate subgoals like negative subgoals: given a candidate
//! model `M`, the *reduct* keeps a rule instance iff its aggregate and
//! negative subgoals are satisfied **in `M`**, deleting those subgoals;
//! `M` is stable iff it is the least model of the remaining positive
//! program. We check this without grounding by evaluating the positive
//! part bottom-up while aggregates and negation read from the fixed
//! candidate (`Src::Fixed` in [`crate::naive`]).
//!
//! The paper's Section 5.5 observations this module reproduces:
//! incomparable stable models exist even for monotonic programs (both
//! `M1` and `M2` of Example 3.1 are stable), so stability alone does not
//! select the intended model — minimality in the lattice order does.

use crate::naive::{load_base, NaiveEval, Src};
use crate::telemetry::BaselineStats;
use maglog_datalog::{Program, Rule};
use maglog_engine::{Edb, Interp};

/// Is `candidate` (CDB atoms only, or CDB∪EDB) a K&S-stable model of
/// `program` over `edb`?
///
/// `candidate` must contain the EDB facts as well: the check compares full
/// interpretations.
pub fn is_stable_model(
    program: &Program,
    edb: &Edb,
    candidate: &Interp,
) -> Result<bool, String> {
    is_stable_model_traced(program, edb, candidate).map(|(stable, _)| stable)
}

/// Like [`is_stable_model`], but also reports how much work the reduct's
/// least fixpoint did (rounds and the least model's relation sizes).
pub fn is_stable_model_traced(
    program: &Program,
    edb: &Edb,
    candidate: &Interp,
) -> Result<(bool, BaselineStats), String> {
    let base = load_base(program, edb)?;
    // Merge EDB into the candidate for fixed-source lookups.
    let full_candidate = base.join(candidate, program);

    let rules: Vec<&Rule> = program.rules.iter().collect();
    let mut eval = NaiveEval::new(program);
    eval.neg_src = Src::Fixed;
    eval.agg_src = Src::Fixed;
    let (least, _, rounds) = eval.run_traced(&rules, base, &full_candidate, false)?;

    let stats = BaselineStats::from_interp(program, &least, rounds);
    Ok((least == full_candidate, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maglog_datalog::parse_program;
    use maglog_engine::{MonotonicEngine, Tuple, Value};

    fn interp_of(
        program: &Program,
        atoms: &[(&str, &[&str], Option<f64>)],
    ) -> Interp {
        let mut out = Interp::new();
        for (pred, keys, cost) in atoms {
            let p = program.find_pred(pred).unwrap();
            let key = Tuple::new(
                keys.iter()
                    .map(|k| match k.parse::<f64>() {
                        Ok(n) => Value::num(n),
                        Err(_) => Value::Sym(program.symbols.intern(k)),
                    })
                    .collect(),
            );
            out.relation_mut(p).insert(key, cost.map(Value::num));
        }
        out
    }

    const SHORTEST_PATH_31: &str = r#"
        declare pred arc/3 cost min_real.
        declare pred path/4 cost min_real.
        declare pred s/3 cost min_real.
        arc(a, b, 1).
        arc(b, b, 0).
        path(X, direct, Y, C) :- arc(X, Y, C).
        path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
        s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
        constraint :- arc(direct, Z, C).
    "#;

    #[test]
    fn both_models_of_example_3_1_are_stable() {
        let p = parse_program(SHORTEST_PATH_31).unwrap();
        // M1 (the minimal model, with s(a,b,1)).
        let m1 = interp_of(
            &p,
            &[
                ("path", &["a", "direct", "b"], Some(1.0)),
                ("path", &["b", "direct", "b"], Some(0.0)),
                ("path", &["a", "b", "b"], Some(1.0)),
                ("path", &["b", "b", "b"], Some(0.0)),
                ("s", &["a", "b"], Some(1.0)),
                ("s", &["b", "b"], Some(0.0)),
            ],
        );
        // M2 (the paper's second stable model, with s(a,b,0)).
        let m2 = interp_of(
            &p,
            &[
                ("path", &["a", "direct", "b"], Some(1.0)),
                ("path", &["b", "direct", "b"], Some(0.0)),
                ("path", &["a", "b", "b"], Some(0.0)),
                ("path", &["b", "b", "b"], Some(0.0)),
                ("s", &["a", "b"], Some(0.0)),
                ("s", &["b", "b"], Some(0.0)),
            ],
        );
        assert!(is_stable_model(&p, &Edb::new(), &m1).unwrap());
        assert!(is_stable_model(&p, &Edb::new(), &m2).unwrap());

        // And the engine picks M1: the ⊑-least of the two.
        let model = MonotonicEngine::new(&p).evaluate(&Edb::new()).unwrap();
        assert_eq!(
            model.cost_of(&p, "s", &["a", "b"]).unwrap().as_f64(),
            Some(1.0)
        );
        assert!(m1.leq(&m2, &p));
    }

    #[test]
    fn wrong_costs_are_not_stable() {
        let p = parse_program(SHORTEST_PATH_31).unwrap();
        let bogus = interp_of(
            &p,
            &[
                ("path", &["a", "direct", "b"], Some(1.0)),
                ("path", &["b", "direct", "b"], Some(0.0)),
                ("path", &["a", "b", "b"], Some(7.0)),
                ("path", &["b", "b", "b"], Some(0.0)),
                ("s", &["a", "b"], Some(7.0)),
                ("s", &["b", "b"], Some(0.0)),
            ],
        );
        assert!(!is_stable_model(&p, &Edb::new(), &bogus).unwrap());
    }

    #[test]
    fn missing_atoms_are_not_stable() {
        let p = parse_program(SHORTEST_PATH_31).unwrap();
        let partial = interp_of(
            &p,
            &[
                ("path", &["a", "direct", "b"], Some(1.0)),
                ("s", &["a", "b"], Some(1.0)),
            ],
        );
        assert!(!is_stable_model(&p, &Edb::new(), &partial).unwrap());
    }

    #[test]
    fn section_3_nonmono_program_has_two_stable_models() {
        // p(b). q(b). p(a) :- 1 =r count : q(X). q(a) :- 1 =r count : p(X).
        let p = parse_program(
            r#"
            p(b).
            q(b).
            p(a) :- C =r count : q(X), C = 1.
            q(a) :- C =r count : p(X), C = 1.
            "#,
        )
        .unwrap();
        let ma = interp_of(&p, &[("p", &["a"], None), ("p", &["b"], None), ("q", &["b"], None)]);
        let mb = interp_of(&p, &[("q", &["a"], None), ("p", &["b"], None), ("q", &["b"], None)]);
        let both = interp_of(
            &p,
            &[
                ("p", &["a"], None),
                ("q", &["a"], None),
                ("p", &["b"], None),
                ("q", &["b"], None),
            ],
        );
        assert!(is_stable_model(&p, &Edb::new(), &ma).unwrap());
        assert!(is_stable_model(&p, &Edb::new(), &mb).unwrap());
        // The union is a model but not stable (each count is now 2, so the
        // reduct derives neither p(a) nor q(a)).
        assert!(!is_stable_model(&p, &Edb::new(), &both).unwrap());
    }

    #[test]
    fn minimal_model_of_company_control_is_stable() {
        let p = parse_program(
            r#"
            declare pred s/3 cost nonneg_real.
            declare pred cv/4 cost nonneg_real.
            declare pred m/3 cost nonneg_real.
            s(a, b, 0.6).
            cv(X, X, Y, N) :- s(X, Y, N).
            cv(X, Z, Y, N) :- c(X, Z), s(Z, Y, N).
            m(X, Y, N) :- N =r sum M : cv(X, Z, Y, M).
            c(X, Y) :- m(X, Y, N), N > 0.5.
            "#,
        )
        .unwrap();
        let model = MonotonicEngine::new(&p).evaluate(&Edb::new()).unwrap();
        // Strip the EDB? is_stable_model joins it back in; pass the full
        // interpretation.
        assert!(is_stable_model(&p, &Edb::new(), model.interp()).unwrap());
    }
}
