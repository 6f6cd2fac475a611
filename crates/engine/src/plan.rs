//! Rule evaluation planning.
//!
//! Before evaluation, each rule body is ordered into a sequence of
//! [`Step`]s so that every literal runs with the variable bindings it
//! needs: built-in tests as early as possible, assignments once their
//! inputs are bound, negation and `=`-aggregates only when their
//! grouping/argument variables are bound, and positive atoms greedily by
//! how many of their arguments are already bound (so indexed scans apply).
//!
//! Range-restricted rules (Definition 2.5) always admit a plan; the
//! planner reports an error otherwise (reachable only with
//! `allow_unchecked`).
//!
//! Each [`Step::Atom`] and each aggregate conjunct also records the **join
//! signature** it will probe — the bitmask of key positions bound at that
//! point of the plan (constants and already-bound variables). The engine
//! registers these signatures on the relations before evaluation, so every
//! planned probe hits a matching multi-column index
//! ([`crate::interp::Relation::probe`]).

use crate::interp::Sig;
use maglog_analysis::AnalysisReport;
use maglog_datalog::{AggEq, Atom, Expr, Literal, Program, Rule, Term, Var};
use std::collections::BTreeSet;

/// Opt-in optimizing rewrites, each gated on a static proof from
/// `maglog-analysis`. Off by default: `--optimize` turns everything on,
/// `--optimize=prem,demand` selects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Optimize {
    /// Premappability-proven aggregate pushdown: dominated derivations of
    /// a proven component are pruned at emit time instead of buffered.
    pub prem: bool,
    /// Demand restriction for point queries
    /// ([`crate::MonotonicEngine::evaluate_goal`]): skip components
    /// outside the goal's derivation cone and filter the goal's component
    /// to tuples carrying the demanded constant.
    pub demand: bool,
}

impl Optimize {
    /// Every rewrite on.
    pub fn all() -> Optimize {
        Optimize {
            prem: true,
            demand: true,
        }
    }

    /// Parse a comma-separated rewrite list (`prem`, `demand`).
    pub fn parse(s: &str) -> Option<Optimize> {
        let mut opt = Optimize::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match part {
                "prem" => opt.prem = true,
                "demand" => opt.demand = true,
                _ => return None,
            }
        }
        Some(opt)
    }

    /// Is any rewrite enabled?
    pub fn any(self) -> bool {
        self.prem || self.demand
    }

    /// Names of the enabled rewrites, for stats and profile output.
    pub fn names(self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.prem {
            out.push("prem");
        }
        if self.demand {
            out.push("demand");
        }
        out
    }
}

/// The PreM rewrite decisions for a program, index-aligned with
/// [`maglog_datalog::graph::components`]: which components may prune
/// dominated derivations at emit time, and why (or why not), as recorded
/// in [`crate::EvalStats::optimizations`] and profile reports.
#[derive(Clone, Debug, Default)]
pub struct Rewrites {
    /// Per-component: dominance pruning is proven sound and enabled.
    pub prune: Vec<bool>,
    /// Per-component decision line (None for components without a
    /// recursive aggregate, where there is nothing to decide).
    pub decisions: Vec<Option<String>>,
}

/// Decide the PreM pushdown per component from a finished analysis
/// report. Pruning bypasses the same-round Definition 2.6 conflict check
/// for dominated derivations, so it is additionally gated on the program
/// being certified evaluable (statically conflict-free).
pub fn prem_rewrites(program: &Program, report: &AnalysisReport) -> Rewrites {
    let certified = report.evaluable();
    let mut out = Rewrites::default();
    for comp in &report.prem {
        let preds: Vec<String> = comp.preds.iter().map(|p| program.pred_name(*p)).collect();
        let preds = preds.join(", ");
        if !comp.recursive_aggregation {
            out.prune.push(false);
            out.decisions.push(None);
            continue;
        }
        if comp.premappable() && certified {
            out.prune.push(true);
            out.decisions.push(Some(format!(
                "prem: {{{preds}}} premappable — dominance pruning enabled"
            )));
        } else {
            let why = if !certified {
                "program not certified evaluable".to_string()
            } else {
                comp.refusals
                    .first()
                    .map(|r| r.reason.clone())
                    .unwrap_or_else(|| "unproven".to_string())
            };
            out.prune.push(false);
            out.decisions
                .push(Some(format!("prem: {{{preds}}} pushdown refused — {why}")));
        }
    }
    out
}

/// One evaluation step.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// Join/scan a positive atom at body index `lit`, probing the index
    /// for signature `sig` (0 = full scan).
    Atom { lit: usize, sig: Sig },
    /// Evaluate one side of an `=` builtin and bind the other (a single
    /// variable). At runtime, if the target is already bound this becomes
    /// an equality test.
    Assign { lit: usize, target: Var, target_is_lhs: bool },
    /// Check a fully bound builtin.
    Test { lit: usize },
    /// Check a fully bound negative literal.
    Neg { lit: usize },
    /// Evaluate an aggregate subgoal; `groupings` are its grouping
    /// variables ([`Rule::aggregate_grouping_vars`]), `conjunct_order` is
    /// the join order of its conjunction given the variables bound at this
    /// point, and `conjunct_sigs[i]` the signature conjunct
    /// `conjunct_order[i]` will probe.
    Agg {
        lit: usize,
        groupings: Vec<Var>,
        conjunct_order: Vec<usize>,
        conjunct_sigs: Vec<Sig>,
    },
}

/// The signature (bitmask of bound key positions) `atom` would probe under
/// `bound`: constants and bound variables contribute their position.
fn atom_sig(program: &Program, atom: &Atom, bound: &BTreeSet<Var>) -> Sig {
    let has_cost = program.is_cost_pred(atom.pred);
    let mut sig = 0;
    for (i, t) in atom.key_args(has_cost).iter().enumerate() {
        let is_bound = match t {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
        };
        if is_bound && i < 32 {
            sig |= 1 << i;
        }
    }
    sig
}

/// An ordered evaluation plan for one rule body.
#[derive(Clone, Debug, Default)]
pub struct Plan {
    pub steps: Vec<Step>,
}

impl Plan {
    /// Every (predicate, signature) this plan's probes want indexed —
    /// the engine registers these on the relations before evaluating.
    pub fn probe_sigs(&self, rule: &Rule) -> Vec<(maglog_datalog::Pred, Sig)> {
        let mut out = Vec::new();
        for step in &self.steps {
            match step {
                Step::Atom { lit, sig } => {
                    if let Literal::Pos(a) = &rule.body[*lit] {
                        out.push((a.pred, *sig));
                    }
                }
                Step::Agg {
                    lit,
                    conjunct_order,
                    conjunct_sigs,
                    ..
                } => {
                    if let Literal::Agg(agg) = &rule.body[*lit] {
                        for (ci, sig) in conjunct_order.iter().zip(conjunct_sigs) {
                            out.push((agg.conjuncts[*ci].pred, *sig));
                        }
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// A one-line human rendering of the plan for profiler reports:
    /// `pred[sig=0b101] ; C := expr ; test ; !neg ; agg{...}`, in step
    /// order. Signatures are shown in binary (bit i = key position i
    /// bound), `scan` for an unindexed full scan.
    pub fn summary(&self, program: &Program, rule: &Rule) -> String {
        fn sig_str(sig: Sig) -> String {
            if sig == 0 {
                "scan".to_string()
            } else {
                format!("sig=0b{sig:b}")
            }
        }
        let pred_of = |lit: usize| -> String {
            match &rule.body[lit] {
                Literal::Pos(a) | Literal::Neg(a) => program.pred_name(a.pred),
                _ => "?".to_string(),
            }
        };
        let parts: Vec<String> = self
            .steps
            .iter()
            .map(|step| match step {
                Step::Atom { lit, sig } => {
                    format!("{}[{}]", pred_of(*lit), sig_str(*sig))
                }
                Step::Assign { .. } => ":=".to_string(),
                Step::Test { .. } => "test".to_string(),
                Step::Neg { lit } => format!("!{}", pred_of(*lit)),
                Step::Agg {
                    lit,
                    conjunct_order,
                    conjunct_sigs,
                    ..
                } => {
                    let inner: Vec<String> = match &rule.body[*lit] {
                        Literal::Agg(agg) => conjunct_order
                            .iter()
                            .zip(conjunct_sigs)
                            .map(|(ci, sig)| {
                                format!(
                                    "{}[{}]",
                                    program.pred_name(agg.conjuncts[*ci].pred),
                                    sig_str(*sig)
                                )
                            })
                            .collect(),
                        _ => vec!["?".to_string()],
                    };
                    format!("agg{{{}}}", inner.join(" "))
                }
            })
            .collect();
        parts.join(" ; ")
    }
}

/// Compute a plan for `rule`, assuming `initially_bound` variables are
/// bound on entry and that the literal `skip` (if any) has already been
/// consumed by a semi-naive driver.
pub fn plan_rule(
    program: &Program,
    rule: &Rule,
    initially_bound: &BTreeSet<Var>,
    skip: Option<usize>,
) -> Result<Plan, String> {
    let mut bound = initially_bound.clone();
    let mut remaining: Vec<usize> = (0..rule.body.len())
        .filter(|i| Some(*i) != skip)
        .collect();
    let mut steps = Vec::new();

    while !remaining.is_empty() {
        let Some((pos_in_remaining, step)) =
            pick_next(program, rule, &remaining, &bound)
        else {
            return Err(format!(
                "cannot order rule body (unbound `=`-aggregate grouping or free \
                 builtin variable): {}",
                program.display_rule(rule)
            ));
        };
        // Update bound variables.
        match &step {
            Step::Atom { lit, .. } => {
                if let Literal::Pos(a) = &rule.body[*lit] {
                    bound.extend(a.vars());
                }
            }
            Step::Assign { target, .. } => {
                bound.insert(*target);
            }
            Step::Test { .. } | Step::Neg { .. } => {}
            Step::Agg { lit, groupings, .. } => {
                if let Literal::Agg(agg) = &rule.body[*lit] {
                    bound.extend(groupings.iter().copied());
                    if let Term::Var(v) = agg.result {
                        bound.insert(v);
                    }
                }
            }
        }
        steps.push(step);
        remaining.remove(pos_in_remaining);
    }
    Ok(Plan { steps })
}

/// Pick the best ready literal; returns its index within `remaining` and
/// its step.
fn pick_next(
    program: &Program,
    rule: &Rule,
    remaining: &[usize],
    bound: &BTreeSet<Var>,
) -> Option<(usize, Step)> {
    // Priority tiers: lower is better.
    let mut best: Option<(u32, usize, Step)> = None;
    for (ri, &li) in remaining.iter().enumerate() {
        let candidate = match &rule.body[li] {
            Literal::Builtin(b) => {
                let lhs_vars = b.lhs.vars();
                let rhs_vars = b.rhs.vars();
                let lhs_bound = lhs_vars.iter().all(|v| bound.contains(v));
                let rhs_bound = rhs_vars.iter().all(|v| bound.contains(v));
                if lhs_bound && rhs_bound {
                    Some((0, Step::Test { lit: li }))
                } else if b.op == maglog_datalog::CmpOp::Eq {
                    // One side a single unbound variable, other side bound.
                    let as_assign = |target: &Expr, source_bound: bool, is_lhs: bool| {
                        target.as_var().and_then(|v| {
                            (!bound.contains(&v) && source_bound).then_some(Step::Assign {
                                lit: li,
                                target: v,
                                target_is_lhs: is_lhs,
                            })
                        })
                    };
                    as_assign(&b.lhs, rhs_bound, true)
                        .or_else(|| as_assign(&b.rhs, lhs_bound, false))
                        .map(|s| (1, s))
                } else {
                    None
                }
            }
            Literal::Neg(a) => {
                let ready = a.vars().all(|v| bound.contains(&v));
                ready.then_some((2, Step::Neg { lit: li }))
            }
            Literal::Pos(a) => {
                let total = a.args.len();
                let bound_args = a
                    .args
                    .iter()
                    .filter(|t| match t {
                        Term::Const(_) => true,
                        Term::Var(v) => bound.contains(v),
                    })
                    .count();
                let tier = if total == bound_args {
                    3 // pure membership test
                } else if bound_args > 0 {
                    // Prefer more-bound atoms: tier 4 block, refined below.
                    4
                } else {
                    6
                };
                // Encode bound count into priority: more bound = better.
                let refint = (total - bound_args) as u32;
                let sig = atom_sig(program, a, bound);
                Some((tier * 16 + refint, Step::Atom { lit: li, sig }))
            }
            Literal::Agg(agg) => {
                let groupings = rule.aggregate_grouping_vars(li);
                let all_bound = groupings.iter().all(|v| bound.contains(v));
                let ready = all_bound || agg.eq == AggEq::Restricted;
                if !ready {
                    None
                } else {
                    let tier = if all_bound { 5 } else { 7 };
                    plan_conjuncts(program, rule, li, bound, None).map(|(order, sigs)| {
                        (
                            tier * 16,
                            Step::Agg {
                                lit: li,
                                groupings,
                                conjunct_order: order,
                                conjunct_sigs: sigs,
                            },
                        )
                    })
                }
            }
        };
        if let Some((prio, step)) = candidate {
            // Normalize tiers without the *16 encoding applied above.
            let prio = match step {
                Step::Test { .. } => 0,
                Step::Assign { .. } => 16,
                Step::Neg { .. } => 32,
                _ => 48 + prio,
            };
            if best.as_ref().is_none_or(|(bp, _, _)| prio < *bp) {
                best = Some((prio, ri, step));
            }
        }
    }
    best.map(|(_, ri, step)| (ri, step))
}

/// Order the conjuncts of the aggregate at body index `li`, assuming
/// `bound` plus whatever earlier conjuncts bind, and record the probe
/// signature of each conjunct in that order. The conjunct `skip` (if any)
/// is left out: a semi-naive driver has already matched it. Default-value
/// predicates must have all non-cost arguments bound before they are
/// matched (otherwise their infinite extension would be enumerated).
pub(crate) fn plan_conjuncts(
    program: &Program,
    rule: &Rule,
    li: usize,
    bound: &BTreeSet<Var>,
    skip: Option<usize>,
) -> Option<(Vec<usize>, Vec<Sig>)> {
    let Literal::Agg(agg) = &rule.body[li] else {
        return None;
    };
    let mut bound = bound.clone();
    let mut order = Vec::new();
    let mut sigs = Vec::new();
    let mut remaining: Vec<usize> = (0..agg.conjuncts.len())
        .filter(|ci| Some(*ci) != skip)
        .collect();
    while !remaining.is_empty() {
        let mut best: Option<(usize, usize, usize)> = None; // (unbound count, pos, idx)
        for (pos, &ci) in remaining.iter().enumerate() {
            let atom = &agg.conjuncts[ci];
            let has_default = program.has_default(atom.pred);
            let key_args = atom.key_args(program.is_cost_pred(atom.pred));
            let unbound = atom
                .args
                .iter()
                .filter(|t| matches!(t, Term::Var(v) if !bound.contains(v)))
                .count();
            if has_default {
                // All key (non-cost) variables must be bound.
                let key_ok = key_args
                    .iter()
                    .all(|t| !matches!(t, Term::Var(v) if !bound.contains(v)));
                if !key_ok {
                    continue;
                }
            }
            if best.is_none_or(|(bu, _, _)| unbound < bu) {
                best = Some((unbound, pos, ci));
            }
        }
        let (_, pos, ci) = best?;
        sigs.push(atom_sig(program, &agg.conjuncts[ci], &bound));
        bound.extend(agg.conjuncts[ci].vars());
        order.push(ci);
        remaining.remove(pos);
    }
    Some((order, sigs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maglog_datalog::parse_program;

    fn plan_first_rule(src: &str) -> (maglog_datalog::Program, Plan) {
        let p = parse_program(src).unwrap();
        let plan = plan_rule(&p, &p.rules[0], &BTreeSet::new(), None).unwrap();
        (p, plan)
    }

    #[test]
    fn path_rule_orders_join_then_arith() {
        let (_, plan) = plan_first_rule(
            r#"
            declare pred s/3 cost min_real.
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            "#,
        );
        assert!(matches!(plan.steps[0], Step::Atom { lit: 0, .. }));
        assert!(matches!(plan.steps[1], Step::Atom { lit: 1, .. }));
        assert!(matches!(plan.steps[2], Step::Assign { lit: 2, .. }));
    }

    #[test]
    fn restricted_aggregate_can_lead() {
        let (_, plan) = plan_first_rule(
            r#"
            declare pred path/4 cost min_real.
            declare pred s/3 cost min_real.
            s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
            "#,
        );
        assert!(matches!(plan.steps[0], Step::Agg { lit: 0, .. }));
    }

    #[test]
    fn total_aggregate_requires_bound_groupings() {
        // `=` count with grouping bound by requires: plan succeeds with
        // requires first.
        let (_, plan) = plan_first_rule(
            "coming(X) :- requires(X, K), N = count : kc(X, Y), N >= K.",
        );
        assert!(matches!(plan.steps[0], Step::Atom { lit: 0, .. }));
        assert!(matches!(plan.steps[1], Step::Agg { lit: 1, .. }));
        assert!(matches!(plan.steps[2], Step::Test { lit: 2 }));
    }

    #[test]
    fn unplannable_total_aggregate_is_an_error() {
        let p = parse_program(
            r#"
            declare pred q/2 cost max_real.
            declare pred p/2 cost max_real.
            p(X, C) :- C = max D : q(X, D).
            "#,
        )
        .unwrap();
        // X is a grouping var with nothing to bind it: no plan.
        assert!(plan_rule(&p, &p.rules[0], &BTreeSet::new(), None).is_err());
    }

    #[test]
    fn default_pred_conjunct_is_ordered_after_binder() {
        let (_, plan) = plan_first_rule(
            r#"
            declare pred t/2 cost bool_or default.
            t(G, C) :- gate(G, and), C = and D : [t(W, D), connect(G, W)].
            "#,
        );
        // Inside the aggregate, connect(G, W) must run before t(W, D).
        let Step::Agg { conjunct_order, .. } = &plan.steps[1] else {
            panic!("expected aggregate step, got {:?}", plan.steps);
        };
        assert_eq!(conjunct_order, &vec![1, 0]);
    }

    #[test]
    fn discovery_order_skips_the_driving_conjunct() {
        let (p, _) = plan_first_rule(
            r#"
            declare pred t/2 cost bool_or default.
            t(G, C) :- gate(G, or), C = or D : [connect(G, W), t(W, D)].
            "#,
        );
        let rule = &p.rules[0];
        let Literal::Agg(agg) = &rule.body[1] else {
            panic!("expected an aggregate");
        };
        // A changed t(W, D) binds W: the groups are found by probing
        // connect on its second position.
        let w = agg.conjuncts[1].args[0].as_var().unwrap();
        let found = plan_conjuncts(&p, rule, 1, &BTreeSet::from([w]), Some(1));
        assert_eq!(found, Some((vec![0], vec![0b10])));
    }

    #[test]
    fn negation_waits_for_bindings() {
        let (_, plan) =
            plan_first_rule("p(X, Y) :- q(X), ! r(X, Y), e(X, Y).");
        // Neg must come after e(X, Y) binds Y.
        let neg_pos = plan
            .steps
            .iter()
            .position(|s| matches!(s, Step::Neg { .. }))
            .unwrap();
        let e_pos = plan
            .steps
            .iter()
            .position(|s| matches!(s, Step::Atom { lit: 2, .. }))
            .unwrap();
        assert!(neg_pos > e_pos);
    }

    #[test]
    fn summary_renders_steps_in_order() {
        let (p, plan) = plan_first_rule(
            r#"
            declare pred s/3 cost min_real.
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            "#,
        );
        let rule = &p.rules[0];
        assert_eq!(plan.summary(&p, rule), "s[scan] ; arc[sig=0b1] ; :=");
    }

    #[test]
    fn seeded_plan_skips_driver_literal() {
        let p = parse_program(
            r#"
            declare pred s/3 cost min_real.
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            "#,
        )
        .unwrap();
        let rule = &p.rules[0];
        let seed_vars: BTreeSet<_> = match &rule.body[0] {
            Literal::Pos(a) => a.vars().collect(),
            _ => unreachable!(),
        };
        let plan = plan_rule(&p, rule, &seed_vars, Some(0)).unwrap();
        assert_eq!(plan.steps.len(), 2);
        assert!(matches!(plan.steps[0], Step::Atom { lit: 1, .. }));
    }
}
