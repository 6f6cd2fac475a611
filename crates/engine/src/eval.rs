//! Bottom-up evaluation: `T_P`, naive and semi-naive fixpoints, and the
//! iterated minimal-model construction.
//!
//! For each program component (in dependency order, Section 6.3) the
//! engine iterates `J ← J ⊔ T_P(J, I)` from `J_∅`. For monotonic programs
//! this inflationary iteration converges to the least fixpoint of `T_P`
//! (Tarski / Proposition 3.3), i.e. the component's unique minimal model.
//!
//! The **semi-naive** strategy tracks the *delta* — keys that appeared or
//! whose cost strictly grew in `⊑` — and re-fires a rule only from
//! occurrences of changed atoms: positive body atoms are re-joined seeded
//! by the delta tuple, and aggregates are re-folded only for the affected
//! groups. When the changed conjunct's key binds every grouping variable,
//! matching the delta tuple against it yields the one affected group.
//! Otherwise (Example 4.4's `[connect(G, W), t(W, D)]`, where a changed
//! `t(W)` binds only `W`) the driver runs a plan-time *group-discovery*
//! join: the delta tuple's key, joined through the aggregate's other
//! conjuncts, enumerates every group the tuple belongs to, and each group
//! is re-folded on its own seed. This is the lattice generalization of
//! classical semi-naive evaluation and is benchmarked against naive
//! iteration as an ablation.

use crate::edb::Edb;
use crate::error::EvalError;
use crate::events::{Event, EventSink, InsertOutcome, NoopSink};
use crate::fire::{
    buffer_derivation, emit_head, enumerate_conjuncts, exec_steps, note, render_key, unify_atom,
    AggCounters, Binding, Ctx, Derived, DerivedEntry, RoundBuffer,
};
use crate::interp::{Interp, Sig, Tuple};
use crate::model::Model;
use crate::plan::{plan_conjuncts, plan_rule, prem_rewrites, Optimize, Plan, Rewrites};
use crate::provenance::Goal;
use crate::value::{RuntimeDomain, Value};
use maglog_analysis::{check_program, derivation_cone, key_arity, uniform_binding};
use maglog_datalog::graph::{components, Component};
use maglog_datalog::{AggEq, AggFunc, Literal, Pred, Program, Rule, Term, Var};
use crate::par::{self, FireTally};
use maglog_lattice::Real;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

/// Per-round dedup of aggregate-driver re-evaluations: one entry per
/// (rule index, driver discriminator, seed binding).
type SeenSeeds = HashSet<(usize, u64, Vec<(Var, Value)>)>;

/// Per-predicate emit-time demand filter: (key position, demanded
/// constant). Only predicates of the goal's component appear.
pub(crate) type DemandFilter = HashMap<Pred, (usize, Value)>;

/// The runtime demand restriction derived from a point query
/// ([`MonotonicEngine::evaluate_goal`] under `--optimize=demand`).
struct DemandPlan {
    /// Predicates the goal transitively depends on; components disjoint
    /// from the cone are skipped.
    cone: BTreeSet<Pred>,
    /// Constant filters applied at emit time within the goal's component.
    filter: DemandFilter,
    /// Human-readable decision line for stats and profile output.
    decision: String,
}

/// Fixpoint strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Re-fire every rule fully each round.
    Naive,
    /// Delta-driven re-firing.
    #[default]
    SemiNaive,
    /// Best-first (Dijkstra-style) settling for *cost-inflationary*
    /// `min_real` components — the greedy technique of Ganguly, Greco &
    /// Zaniolo that Section 7 discusses. It runs the semi-naive round
    /// loop, but candidate derivations wait in a priority queue ordered by
    /// cost, and each round applies only the unsettled candidates tied at
    /// the least cost. Each key settles exactly once, so zero-weight
    /// cycles terminate and no dominated tuple is ever expanded.
    /// Components that are not eligible (non-`min_real` CDB domains,
    /// non-`min` recursive aggregates, non-cost CDB predicates) fall back
    /// to semi-naive; instances that violate the inflation assumption at
    /// runtime (a derivation cheaper than the settling frontier — negative
    /// weights) abort with [`EvalError::GreedyViolation`].
    Greedy,
}

impl Strategy {
    /// Stable lowercase name, used by profile reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Naive => "naive",
            Strategy::SemiNaive => "seminaive",
            Strategy::Greedy => "greedy",
        }
    }

    /// Parse a CLI strategy name (the inverse of [`Strategy::name`]).
    pub fn parse(s: &str) -> Option<Strategy> {
        match s {
            "naive" => Some(Strategy::Naive),
            "seminaive" | "semi-naive" => Some(Strategy::SemiNaive),
            "greedy" => Some(Strategy::Greedy),
            _ => None,
        }
    }
}

/// Evaluation options.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    pub strategy: Strategy,
    /// Cap on fixpoint rounds per component (Section 6.2: termination is
    /// only guaranteed on well-founded cost descents).
    pub max_rounds: usize,
    /// Detect cost conflicts within a `T_P` application (Definition 2.6).
    /// When false, conflicting derivations are resolved by the lattice
    /// join instead of erroring.
    pub check_consistency: bool,
    /// Skip the static certification gate (range restriction,
    /// conflict-freedom, admissibility). The fixpoint of a non-monotonic
    /// program — if it terminates — is *some* pre-model, not necessarily
    /// the least one.
    pub allow_unchecked: bool,
    /// Opt-in optimizing rewrites, each applied only where its static
    /// proof (premappability, uniform stable binding) succeeds. The
    /// computed model is identical with or without them.
    pub optimize: Optimize,
    /// Worker threads for the sharded parallel evaluator: `1` (the
    /// default) evaluates sequentially, `0` means "use available
    /// parallelism", and `N > 1` runs each component's rounds across `N`
    /// workers. The computed model — tuples and costs — is
    /// identical at every worker count; see `docs/parallelism.md`.
    pub workers: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            strategy: Strategy::SemiNaive,
            max_rounds: 100_000,
            check_consistency: true,
            allow_unchecked: false,
            optimize: Optimize::default(),
            workers: 1,
        }
    }
}

/// Evaluation statistics.
#[derive(Clone, Debug, Default)]
pub struct EvalStats {
    /// Rounds used by each component, in evaluation order.
    pub rounds: Vec<usize>,
    /// Total number of head derivations (including re-derivations).
    pub derivations: u64,
    /// Total number of rule firings attempted.
    pub firings: u64,
    /// Optimizing-rewrite decisions taken this run (empty without
    /// [`EvalOptions::optimize`]), one human-readable line each.
    pub optimizations: Vec<String>,
    /// Derivations skipped by proven-sound filters (PreM dominance
    /// pruning, demand restriction) before they were buffered.
    pub pruned: u64,
}

/// The monotonic-aggregation engine.
pub struct MonotonicEngine<'p> {
    program: &'p Program,
    options: EvalOptions,
}

impl<'p> MonotonicEngine<'p> {
    pub fn new(program: &'p Program) -> Self {
        MonotonicEngine {
            program,
            options: EvalOptions::default(),
        }
    }

    pub fn with_options(program: &'p Program, options: EvalOptions) -> Self {
        MonotonicEngine { program, options }
    }

    /// Compute the iterated minimal model of the program over `edb`.
    pub fn evaluate(&self, edb: &Edb) -> Result<Model, EvalError> {
        self.evaluate_with_sink(edb, &mut NoopSink)
    }

    /// Like [`evaluate`](Self::evaluate), reporting instrumentation events
    /// into `sink` as the fixpoint runs. With [`NoopSink`] this
    /// monomorphizes to the uninstrumented evaluator.
    pub fn evaluate_with_sink<S: EventSink>(
        &self,
        edb: &Edb,
        sink: &mut S,
    ) -> Result<Model, EvalError> {
        self.evaluate_inner(edb, sink, None)
    }

    /// Evaluate a ground point query. Without
    /// [`EvalOptions::optimize`]`.demand` this is a plain
    /// [`evaluate`](Self::evaluate) (the caller reads the answer out of
    /// the full model); with it, components disjoint from the goal's
    /// derivation cone are skipped outright and the goal's own component
    /// is restricted to tuples carrying the demanded constant whenever
    /// the demand analysis proves a uniform stable binding. The answer
    /// for the queried fact is identical either way.
    pub fn evaluate_goal(&self, edb: &Edb, goal: &Goal) -> Result<Model, EvalError> {
        self.evaluate_goal_with_sink(edb, goal, &mut NoopSink)
    }

    /// [`evaluate_goal`](Self::evaluate_goal) with instrumentation.
    pub fn evaluate_goal_with_sink<S: EventSink>(
        &self,
        edb: &Edb,
        goal: &Goal,
        sink: &mut S,
    ) -> Result<Model, EvalError> {
        self.evaluate_inner(edb, sink, Some(goal))
    }

    fn evaluate_inner<S: EventSink>(
        &self,
        edb: &Edb,
        sink: &mut S,
        query: Option<&Goal>,
    ) -> Result<Model, EvalError> {
        // The PreM rewrite needs the analysis report even when the
        // certification gate is bypassed: pruning is only sound on a
        // certified (statically conflict-free) program.
        let report = (!self.options.allow_unchecked || self.options.optimize.prem)
            .then(|| check_program(self.program));
        if !self.options.allow_unchecked {
            let report = report.as_ref().expect("gate computed the report");
            if !report.evaluable() {
                return Err(EvalError::NotCertified(report.summary(self.program)));
            }
        }
        let rewrites = match &report {
            Some(report) if self.options.optimize.prem => {
                prem_rewrites(self.program, report)
            }
            _ => Rewrites::default(),
        };

        let mut db = Interp::new();
        self.load_facts(&mut db, edb)?;

        let comps = components(self.program);
        let demand = match query {
            Some(goal) if self.options.optimize.demand => {
                Some(self.demand_plan(&comps, goal))
            }
            _ => None,
        };

        let mut stats = EvalStats::default();
        for line in rewrites.decisions.iter().flatten() {
            sink.on(&Event::Optimization { decision: line });
            stats.optimizations.push(line.clone());
        }
        if let Some(d) = &demand {
            sink.on(&Event::Optimization {
                decision: &d.decision,
            });
            stats.optimizations.push(d.decision.clone());
        }

        let mut skipped = 0usize;
        for (ci, comp) in comps.iter().enumerate() {
            if let Some(d) = &demand {
                // A component disjoint from the derivation cone cannot
                // influence the query's answer: skip it wholesale. The
                // zero keeps `stats.rounds` index-aligned with components.
                if comp.preds.is_disjoint(&d.cone) {
                    stats.rounds.push(0);
                    skipped += 1;
                    continue;
                }
            }
            let prune = rewrites.prune.get(ci).copied().unwrap_or(false);
            let rounds = self
                .eval_component(
                    &mut db,
                    &comp.preds,
                    &comp.rule_indices,
                    ci,
                    prune,
                    demand.as_ref().map(|d| &d.filter),
                    &mut stats,
                    sink,
                )
                .map_err(|e| match e {
                    EvalError::NonTermination {
                        rounds,
                        preds,
                        last_delta,
                        ..
                    } => EvalError::NonTermination {
                        rounds,
                        component: ci,
                        preds,
                        last_delta,
                    },
                    other => other,
                })?;
            stats.rounds.push(rounds);
        }
        if skipped > 0 {
            let line = format!("demand: skipped {skipped} component(s) outside the cone");
            sink.on(&Event::Optimization { decision: &line });
            stats.optimizations.push(line);
        }
        for pred in db.preds().collect::<Vec<_>>() {
            if let Some(rel) = db.relation(pred) {
                sink.on(&Event::IndexStats {
                    pred,
                    sigs: rel.index_sigs().len(),
                    stats: rel.index_stats(),
                });
                // The deep-size walk is O(db); only pay it for sinks that
                // report memory.
                if sink.wants_relation_memory() {
                    sink.on(&Event::RelationMemory {
                        pred,
                        memory: rel.heap_bytes(),
                    });
                }
            }
        }
        Ok(Model::new(db, stats))
    }

    fn load_facts(&self, db: &mut Interp, edb: &Edb) -> Result<(), EvalError> {
        // Inline program facts.
        for atom in &self.program.facts {
            let spec = self.program.cost_spec(atom.pred);
            let has_cost = spec.is_some();
            let key: Vec<Value> = atom
                .key_args(has_cost)
                .iter()
                .map(|t| match t {
                    Term::Const(c) => Value::from_const(*c),
                    Term::Var(_) => unreachable!("facts are ground"),
                })
                .collect();
            let cost = match (spec, atom.cost_arg(has_cost)) {
                (Some(spec), Some(Term::Const(c))) => {
                    let domain = RuntimeDomain::new(spec.domain);
                    Some(
                        domain
                            .coerce(Value::from_const(*c))
                            .map_err(EvalError::Domain)?,
                    )
                }
                _ => None,
            };
            self.store_fact(db, atom.pred, Tuple::new(key), cost)?;
        }
        // External EDB.
        for (pred, key, cost) in edb.coerced(self.program).map_err(EvalError::Domain)? {
            self.store_fact(db, pred, key, cost)?;
        }
        Ok(())
    }

    fn store_fact(
        &self,
        db: &mut Interp,
        pred: Pred,
        key: Tuple,
        cost: Option<Value>,
    ) -> Result<(), EvalError> {
        let rel = db.relation_mut(pred);
        match (rel.get(&key), &cost) {
            (Some(Some(old)), Some(new)) if old != new => {
                if self.options.check_consistency {
                    return Err(EvalError::CostConflict {
                        pred: self.program.pred_name(pred),
                        key: render_key(self.program, &key),
                        value_a: old.display(self.program),
                        value_b: new.display(self.program),
                    });
                }
                let domain = RuntimeDomain::new(
                    self.program.cost_spec(pred).expect("cost value").domain,
                );
                let joined = domain.join(old, new);
                rel.insert(key, Some(joined));
            }
            _ => {
                rel.insert(key, cost);
            }
        }
        Ok(())
    }

    /// Build the runtime demand restriction for one point query: the
    /// goal's derivation cone, plus per-predicate constant filters on the
    /// goal's own component when [`uniform_binding`] proves one of the
    /// goal's key positions stable.
    fn demand_plan(&self, comps: &[Component], goal: &Goal) -> DemandPlan {
        let cone = derivation_cone(self.program, goal.pred);
        let gname = self.program.pred_name(goal.pred);
        let mut filter = HashMap::new();
        let mut restricted = None;
        if let Some(comp) = comps.iter().find(|c| c.preds.contains(&goal.pred)) {
            for pos in 0..key_arity(self.program, goal.pred) {
                let Some(want) = goal.key.0.get(pos) else { break };
                if let Some(assign) = uniform_binding(self.program, comp, goal.pred, pos) {
                    for (p, j) in assign {
                        filter.insert(p, (j, want.clone()));
                    }
                    restricted = Some((pos, want.clone()));
                    break;
                }
            }
        }
        let decision = match restricted {
            Some((pos, v)) => format!(
                "demand: restricted the component of {gname} to {gname}[{pos}] = {}",
                v.display(self.program)
            ),
            None => format!("demand: no stable binding for {gname}; cone restriction only"),
        };
        DemandPlan {
            cone,
            filter,
            decision,
        }
    }

    /// Evaluate one component to fixpoint. Returns the number of rounds.
    #[allow(clippy::too_many_arguments)]
    fn eval_component<S: EventSink>(
        &self,
        db: &mut Interp,
        cdb: &BTreeSet<Pred>,
        rule_indices: &[usize],
        ci: usize,
        prune: bool,
        demand: Option<&DemandFilter>,
        stats: &mut EvalStats,
        sink: &mut S,
    ) -> Result<usize, EvalError> {
        // A provenance sink gets semi-naive in place of greedy: a greedy
        // candidate settles rounds after the round that derived it, past
        // the sink's per-round pending heads. The model is the same.
        let greedy = self.options.strategy == Strategy::Greedy
            && !sink.wants_provenance()
            && greedy_eligible(self.program, cdb, rule_indices);
        // Loaded before any index is registered: it empties the CDB
        // relations.
        let mut frontier = greedy.then(|| Frontier::load(db, cdb));

        // Precompute plans.
        let mut execs: Vec<RuleExec> = Vec::new();
        for &ri in rule_indices {
            let rule = &self.program.rules[ri];
            let plan = plan_rule(self.program, rule, &BTreeSet::new(), None)
                .map_err(EvalError::Aggregate)?;
            let mut drivers = Vec::new();
            for (li, lit) in rule.body.iter().enumerate() {
                match lit {
                    Literal::Pos(a) if cdb.contains(&a.pred) => {
                        let seed_vars: BTreeSet<Var> = a.vars().collect();
                        let seeded = plan_rule(self.program, rule, &seed_vars, Some(li))
                            .map_err(EvalError::Aggregate)?;
                        drivers.push(Driver {
                            pred: a.pred,
                            lit: li,
                            conjunct: None,
                            plan: seeded,
                            relax: None,
                            groupings: Vec::new(),
                            discover: None,
                        });
                    }
                    Literal::Agg(agg) => {
                        // Join-fold relaxation eligibility (see Driver):
                        // single-conjunct `=r` fold whose result variable is
                        // exactly the head cost argument and occurs nowhere
                        // else in the rule.
                        let relax_plan = relaxation_plan(self.program, rule, li, agg);
                        let mut groupings = rule.aggregate_grouping_vars(li);
                        groupings.sort_unstable();
                        for (ci, conj) in agg.conjuncts.iter().enumerate() {
                            if !cdb.contains(&conj.pred) {
                                continue;
                            }
                            // Group discovery (see Driver): unless the
                            // element is relaxed, a conjunct whose key
                            // variables miss a grouping variable reaches
                            // its groups through the other conjuncts.
                            let has_cost = self.program.is_cost_pred(conj.pred);
                            let key_vars: BTreeSet<Var> = conj
                                .key_args(has_cost)
                                .iter()
                                .filter_map(|t| t.as_var())
                                .collect();
                            let discover = if relax_plan.is_some()
                                || groupings.iter().all(|v| key_vars.contains(v))
                            {
                                None
                            } else {
                                plan_conjuncts(self.program, rule, li, &key_vars, Some(ci)).map(
                                    |(order, sigs)| {
                                        for (c, sig) in order.iter().zip(sigs) {
                                            db.relation_mut(agg.conjuncts[*c].pred)
                                                .ensure_index(sig);
                                        }
                                        order
                                    },
                                )
                            };
                            drivers.push(Driver {
                                pred: conj.pred,
                                lit: li,
                                conjunct: Some(ci),
                                // Aggregate drivers re-run the default
                                // plan with grouping vars pre-bound.
                                plan: plan.clone(),
                                relax: relax_plan.clone(),
                                groupings: groupings.clone(),
                                discover,
                            });
                        }
                    }
                    _ => {}
                }
            }
            execs.push(RuleExec { ri, rule, plan, drivers });
        }

        // Register every plan-selected probe signature on its relation so
        // the join indexes exist before the first probe (plan-time index
        // selection; group-discovery joins registered theirs above).
        // Aggregate-driver reruns that bind extra grouping positions fall
        // back to lazily created indexes for their wider signatures.
        for exec in &execs {
            let mut wanted: Vec<(Pred, Sig)> = exec.plan.probe_sigs(exec.rule);
            for driver in &exec.drivers {
                wanted.extend(driver.plan.probe_sigs(exec.rule));
                if let Some(relax) = &driver.relax {
                    wanted.extend(relax.probe_sigs(exec.rule));
                }
            }
            for (pred, sig) in wanted {
                db.relation_mut(pred).ensure_index(sig);
            }
        }

        let used = if greedy {
            Strategy::Greedy
        } else if self.options.strategy == Strategy::Naive {
            Strategy::Naive
        } else {
            // A requested greedy strategy falls back to semi-naive on
            // ineligible components.
            Strategy::SemiNaive
        };
        let cdb_preds: Vec<Pred> = cdb.iter().copied().collect();
        sink.on(&Event::ComponentStart {
            component: ci,
            strategy: used,
            cdb: &cdb_preds,
        });

        // Per-exec-slot head-derivation counts, flushed as
        // `RuleDerivations` events at component end.
        let mut rule_pushes = vec![0u64; execs.len()];
        // Aggregate-evaluation totals (interior mutability: `Ctx` is shared
        // immutably down the recursive step executor).
        let agg_counters = AggCounters::default();

        // A greedy round's buffer neither checks Definition 2.6 nor prunes:
        // a dominated derivation there is evidence of a frontier violation
        // (negative weights), which must surface as `GreedyViolation`, not
        // be silently discarded. Its round cap scales with the settle
        // granularity: a round settles at least one key.
        let (check, prune, max_rounds) = if greedy {
            (false, false, self.options.max_rounds.saturating_mul(64))
        } else {
            (
                self.options.check_consistency,
                prune,
                self.options.max_rounds,
            )
        };
        // Provenance events nest in firing order, so a provenance sink
        // gets one shard.
        let shards = if sink.wants_provenance() {
            1
        } else {
            par::resolve_workers(self.options.workers)
        };
        let pruned_before = stats.pruned;
        let mut rounds = 0usize;
        // Per-round delta, batched per predicate: each driver iterates only
        // the changes of its own predicate instead of rescanning the whole
        // round delta per occurrence.
        let mut delta: HashMap<Pred, Vec<Arc<Tuple>>> = HashMap::new();
        loop {
            if rounds >= max_rounds {
                return Err(EvalError::NonTermination {
                    rounds,
                    component: 0,
                    preds: cdb.iter().map(|p| self.program.pred_name(*p)).collect(),
                    last_delta: delta.values().map(Vec::len).sum(),
                });
            }
            let full = rounds == 0 || self.options.strategy == Strategy::Naive;
            sink.on(&Event::RoundStart {
                round: rounds + 1,
                full,
            });
            let derived = if shards == 1 {
                // The one-shard round fires inline, into the real sink.
                let mut buffer =
                    RoundBuffer::new(self.program, check, prune, demand, &mut rule_pushes);
                let ctx = Ctx {
                    program: self.program,
                    db,
                    agg: &agg_counters,
                };
                self.fire_shard(&ctx, &execs, full, &delta, (0, 1), &mut buffer, stats, sink)?;
                stats.pruned += buffer.pruned;
                buffer.map
            } else {
                self.fire_sharded(
                    db,
                    &execs,
                    full,
                    &delta,
                    rounds + 1,
                    shards,
                    check,
                    prune,
                    demand,
                    &mut rule_pushes,
                    &agg_counters,
                    stats,
                    sink,
                )?
            };
            let derived_count = derived.len();
            stats.derivations += derived_count as u64;
            // Greedy applies only the next settled batch.
            let derived = match &mut frontier {
                Some(f) => f.settle_batch(self.program, db, derived)?,
                None => derived,
            };

            // Apply derivations: join into db, recording changed keys.
            let mut new_delta = self.apply_round(db, derived, &execs, sink);
            if sink.wants_provenance() {
                // A relaxed seed fires once, from the first delta tuple that
                // reaches it, and that tuple is its witness: take the delta
                // in canonical order, not the round buffer's hash order.
                new_delta.values_mut().for_each(|keys| keys.sort_unstable());
            }

            rounds += 1;
            let changed: usize = new_delta.values().map(Vec::len).sum();
            for (pred, keys) in &new_delta {
                sink.on(&Event::Delta {
                    pred: *pred,
                    size: keys.len(),
                });
            }
            sink.on(&Event::RoundEnd {
                round: rounds,
                derivations: derived_count,
                changed,
            });
            if new_delta.is_empty() {
                // A semi-naive pass that saw no changes is a genuine
                // fixpoint: every rule was either re-fired through a driver
                // or has no dependency on the component. A greedy round
                // changes nothing only once its queue is spent.
                for (exec, &n) in execs.iter().zip(&rule_pushes) {
                    sink.on(&Event::RuleDerivations {
                        rule: exec.ri,
                        derivations: n,
                    });
                }
                sink.on(&Event::AggregateTotals {
                    groups: agg_counters.groups.get(),
                    elements: agg_counters.elements.get(),
                    peak_bytes: agg_counters.peak_bytes.get(),
                });
                let pruned = stats.pruned - pruned_before;
                if pruned > 0 {
                    sink.on(&Event::Pruned {
                        component: ci,
                        count: pruned,
                    });
                }
                sink.on(&Event::ComponentEnd {
                    component: ci,
                    rounds,
                });
                return Ok(rounds);
            }
            delta = new_delta;
        }
    }

    /// Join one round's buffered derivations into the database, emitting
    /// per-derivation insert outcomes and returning the next round's
    /// delta. The buffered `Arc` keys flow straight into the relation and
    /// the delta — no re-cloning of tuple storage.
    fn apply_round<S: EventSink>(
        &self,
        db: &mut Interp,
        derived: Derived,
        execs: &[RuleExec<'_>],
        sink: &mut S,
    ) -> HashMap<Pred, Vec<Arc<Tuple>>> {
        let mut new_delta: HashMap<Pred, Vec<Arc<Tuple>>> = HashMap::new();
        for ((pred, key), entry) in derived {
            let DerivedEntry { cost, slot, .. } = entry;
            let domain = self
                .program
                .cost_spec(pred)
                .map(|c| RuntimeDomain::new(c.domain));
            let rel = db.relation_mut(pred);
            // Each outcome is reported with the value the relation holds
            // once it is applied, before that value moves into it.
            let mut report = |outcome, cost: &Option<Value>| {
                sink.on(&Event::Insert {
                    rule: execs[slot].ri,
                    pred,
                    key: &key,
                    cost,
                    outcome,
                })
            };
            match rel.get(&key) {
                None => {
                    // For default-value predicates, an explicit entry at
                    // the default value is not a change.
                    let is_default_entry = self.program.has_default(pred)
                        && domain
                            .as_ref()
                            .is_some_and(|d| cost.as_ref() == Some(&d.bottom()));
                    if is_default_entry {
                        report(InsertOutcome::Noop, &cost);
                        rel.insert_arc(key, cost);
                    } else {
                        report(InsertOutcome::New, &cost);
                        rel.insert_arc(key.clone(), cost);
                        new_delta.entry(pred).or_default().push(key);
                    }
                }
                Some(existing) => {
                    let joined = match (existing, &cost, &domain) {
                        (Some(old), Some(new), Some(d)) => {
                            Some(d.join(old, new)).filter(|joined| joined != old)
                        }
                        _ => None,
                    };
                    match joined {
                        Some(joined) => {
                            let joined = Some(joined);
                            report(InsertOutcome::Improved, &joined);
                            rel.insert_arc(key.clone(), joined);
                            new_delta.entry(pred).or_default().push(key);
                        }
                        None => report(InsertOutcome::Noop, existing),
                    }
                }
            }
        }
        new_delta
    }

    /// The firing phase of one `T_P` round for one shard. A full round
    /// (round 1, and every naive round) fires the shard's exec slots, which
    /// round-robin across shards; a semi-naive round walks the whole delta
    /// and fires only the seeds the shard owns ([`claim_seed`]). The one
    /// shard `(0, 1)` owns every slot and seed.
    #[allow(clippy::too_many_arguments)]
    fn fire_shard<S: EventSink>(
        &self,
        ctx: &Ctx<'_>,
        execs: &[RuleExec<'_>],
        full: bool,
        delta: &HashMap<Pred, Vec<Arc<Tuple>>>,
        shard: (usize, usize),
        derived: &mut RoundBuffer<'_>,
        stats: &mut EvalStats,
        sink: &mut S,
    ) -> Result<(), EvalError> {
        if full {
            let (me, shards) = shard;
            for (slot, exec) in execs.iter().enumerate().skip(me).step_by(shards) {
                stats.firings += 1;
                sink.on(&Event::FireStart { rule: exec.ri });
                derived.current = slot;
                let mut binding = Binding::new();
                exec_steps(ctx, exec.rule, &exec.plan.steps, &mut binding, sink, &mut |b, sink| {
                    emit_head(ctx, exec.rule, b, derived, sink)
                })?;
                sink.on(&Event::FireEnd { rule: exec.ri });
            }
            return Ok(());
        }
        let mut seen_seeds = SeenSeeds::new();
        for (ei, exec) in execs.iter().enumerate() {
            for driver in &exec.drivers {
                let Some(changed) = delta.get(&driver.pred) else {
                    continue;
                };
                for dkey in changed {
                    self.fire_driver(
                        ctx,
                        ei,
                        exec,
                        driver,
                        dkey,
                        &mut seen_seeds,
                        derived,
                        stats,
                        sink,
                        shard,
                    )?;
                }
            }
        }
        Ok(())
    }

    /// The firing phase of one round across `shards` scoped threads
    /// (`--parallel[=N]`). Each thread runs [`Self::fire_shard`] for its
    /// shard against the shared database, with a [`FireTally`] sink, into a
    /// local round buffer. At the barrier the shards' counters fold into
    /// the component totals and their buffers merge, in shard order,
    /// through [`buffer_derivation`], the rule one buffer applies to a
    /// repeated key, so the merged buffer is the one-shard round's buffer.
    /// Each shard's report then reaches `sink` once, in the round's
    /// [`Event::ParallelRound`], also when the round fails: only then is
    /// the error returned, the lowest failing shard's own error before
    /// the first merge conflict.
    #[allow(clippy::too_many_arguments)]
    fn fire_sharded<S: EventSink>(
        &self,
        db: &Interp,
        execs: &[RuleExec<'_>],
        full: bool,
        delta: &HashMap<Pred, Vec<Arc<Tuple>>>,
        round: usize,
        shards: usize,
        check: bool,
        prune: bool,
        demand: Option<&DemandFilter>,
        rule_pushes: &mut [u64],
        agg_counters: &AggCounters,
        stats: &mut EvalStats,
        sink: &mut S,
    ) -> Result<Derived, EvalError> {
        // Clock reads are opt-in per sink; `None` (the default) keeps every
        // one out of the shards and the barrier.
        let meter = sink.worker_meter();
        let shard_rounds: Vec<ShardRound> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..shards)
                .map(|me| {
                    let meter = meter.clone();
                    s.spawn(move || {
                        let mut tally = FireTally::new(me, meter);
                        let mut pushes = vec![0u64; execs.len()];
                        let mut stats = EvalStats::default();
                        let agg = AggCounters::default();
                        let ctx = Ctx {
                            program: self.program,
                            db,
                            agg: &agg,
                        };
                        let mut buffer =
                            RoundBuffer::new(self.program, check, prune, demand, &mut pushes);
                        let fired = self.fire_shard(
                            &ctx,
                            execs,
                            full,
                            delta,
                            (me, shards),
                            &mut buffer,
                            &mut stats,
                            &mut tally,
                        );
                        stats.pruned += buffer.pruned;
                        let entries = fired.map(|()| buffer.map).map_err(Box::new);
                        ShardRound {
                            entries,
                            pushes,
                            stats,
                            agg,
                            sample: tally.finish(),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        });
        let collect = meter.as_ref().map(|m| m.now_nanos());
        let mut samples = Vec::with_capacity(shards);
        let mut merged = Derived::new();
        let mut merges = 0u64;
        // The lowest shard's own error wins, then the first merge
        // conflict: deterministic for a fixed shard count.
        let mut failed = None;
        let mut conflict = None;
        for r in shard_rounds {
            stats.firings += r.stats.firings;
            stats.pruned += r.stats.pruned;
            for (total, n) in rule_pushes.iter_mut().zip(&r.pushes) {
                *total += n;
            }
            agg_counters.absorb(&r.agg);
            let mut sample = r.sample;
            if let (Some(readings), Some(collect)) = (&mut sample.readings, collect) {
                readings.collect = collect;
            }
            samples.push(sample);
            let entries = match r.entries {
                Ok(entries) => entries,
                Err(e) => {
                    failed.get_or_insert(*e);
                    continue;
                }
            };
            for ((pred, key), entry) in entries {
                match buffer_derivation(self.program, check, &mut merged, pred, key, entry) {
                    Ok(repeated) => merges += repeated as u64,
                    Err(e) => {
                        conflict.get_or_insert(e);
                    }
                }
            }
        }
        // A failing round still reports its barrier before it fails.
        sink.on(&Event::ParallelRound {
            round,
            workers: shards,
            merges,
            samples: &samples,
        });
        failed.or(conflict).map_or(Ok(merged), Err)
    }

    /// Fire one semi-naive driver for one delta tuple, once per seed that
    /// `shard` (the `(shard, shards)` pair of [`Self::fire_shard`]) owns.
    /// A positive-atom driver has one seed, the delta tuple's binding; an
    /// aggregate driver has one seed per group the tuple affects.
    #[allow(clippy::too_many_arguments)]
    fn fire_driver<S: EventSink>(
        &self,
        ctx: &Ctx<'_>,
        exec_index: usize,
        exec: &RuleExec<'_>,
        driver: &Driver,
        delta_key: &Tuple,
        seen_seeds: &mut SeenSeeds,
        derived: &mut RoundBuffer<'_>,
        stats: &mut EvalStats,
        sink: &mut S,
        shard: (usize, usize),
    ) -> Result<(), EvalError> {
        let rule = exec.rule;
        // Match the driver atom against the delta tuple to get a seed.
        let atom = match (&rule.body[driver.lit], driver.conjunct) {
            (Literal::Pos(a), None) => a,
            (Literal::Agg(agg), Some(ci)) => &agg.conjuncts[ci],
            _ => return Ok(()),
        };
        let cost = ctx
            .db
            .cost(ctx.program, driver.pred, delta_key)
            .unwrap_or(None);
        let has_cost = ctx.program.is_cost_pred(atom.pred);
        let mut binding = Binding::new();
        let disc = driver.lit as u64 * 1024 + driver.conjunct.unwrap_or(1023) as u64;
        let seeds: Vec<Vec<(Var, Value)>> = if let Some(order) = &driver.discover {
            // Group discovery: match only the key, so a group that held
            // the element under its old cost is reached too, then join the
            // other conjuncts to enumerate the groups the tuple is in.
            if !unify_atom(atom, has_cost, delta_key, None, &mut binding) {
                return Ok(());
            }
            let Literal::Agg(agg) = &rule.body[driver.lit] else {
                unreachable!("discovering driver on non-aggregate")
            };
            let mut seeds = Vec::new();
            enumerate_conjuncts(ctx, agg, order, 0, &mut binding, &mut NoopSink, &mut |b, _| {
                seeds.push(grouping_seed(&driver.groupings, b));
            })?;
            seeds
        } else {
            if !unify_atom(atom, has_cost, delta_key, Some(&cost), &mut binding) {
                return Ok(());
            }
            if driver.relax.is_some() {
                return self.fire_relaxed(
                    ctx, exec_index, exec, driver, delta_key, &cost, &binding, seen_seeds,
                    derived, stats, sink, shard,
                );
            }
            // An aggregate driver keeps only the grouping variables: the
            // aggregate recomputes its group in full.
            let seed = if driver.conjunct.is_some() {
                grouping_seed(&driver.groupings, &binding)
            } else {
                let mut all: Vec<(Var, Value)> = binding.map.into_iter().collect();
                all.sort_by_key(|(v, _)| *v);
                all
            };
            vec![seed]
        };
        for seed in seeds {
            let mut b = Binding {
                map: seed.iter().cloned().collect(),
                ..Binding::default()
            };
            if !claim_seed(seen_seeds, shard, exec_index, disc, seed) {
                continue;
            }
            stats.firings += 1;
            sink.on(&Event::FireStart { rule: exec.ri });
            // A positive-atom driver's seeded plan skips re-matching the
            // delta atom, so report its match by hand. (Aggregate drivers
            // re-run the full plan: their matches are all reported.)
            let seeded = driver.conjunct.is_none();
            if seeded {
                let (pred, key, cost) = (driver.pred, delta_key, &cost);
                note(sink, Event::Match { pred, key, cost });
            }
            derived.current = exec_index;
            let r = exec_steps(ctx, rule, &driver.plan.steps, &mut b, sink, &mut |b, sink| {
                emit_head(ctx, rule, b, derived, sink)
            });
            if seeded {
                note(sink, Event::Unmatch);
            }
            sink.on(&Event::FireEnd { rule: exec.ri });
            r?;
        }
        Ok(())
    }

    /// Join-fold relaxation of one delta element (see [`Driver::relax`]):
    /// bind the result variable to the element and skip the aggregate
    /// entirely.
    #[allow(clippy::too_many_arguments)]
    fn fire_relaxed<S: EventSink>(
        &self,
        ctx: &Ctx<'_>,
        exec_index: usize,
        exec: &RuleExec<'_>,
        driver: &Driver,
        delta_key: &Tuple,
        cost: &Option<Value>,
        binding: &Binding,
        seen_seeds: &mut SeenSeeds,
        derived: &mut RoundBuffer<'_>,
        stats: &mut EvalStats,
        sink: &mut S,
        shard: (usize, usize),
    ) -> Result<(), EvalError> {
        let rule = exec.rule;
        let (Some(relax), Literal::Agg(rule_agg)) = (&driver.relax, &rule.body[driver.lit]) else {
            unreachable!("relax driver on non-aggregate")
        };
        let Term::Var(result) = rule_agg.result else {
            unreachable!("relaxation requires a variable result")
        };
        let Some(element) = cost else {
            return Ok(());
        };
        let mut seed_vec = grouping_seed(&driver.groupings, binding);
        seed_vec.push((result, element.clone()));
        seed_vec.sort_by_key(|(v, _)| *v);
        let mut b = Binding {
            map: seed_vec.iter().cloned().collect(),
            ..Binding::default()
        };
        let disc = driver.lit as u64 * 1024 + 1022;
        if !claim_seed(seen_seeds, shard, exec_index, disc, seed_vec) {
            return Ok(());
        }
        stats.firings += 1;
        sink.on(&Event::FireStart { rule: exec.ri });
        // The relaxed derivation's aggregate is the delta element alone:
        // the group was not rescanned, the lattice join resolves the rest
        // (marked `partial`).
        let (lit, func, group): (_, _, &[Value]) = (driver.lit, rule_agg.func, &[]);
        note(sink, Event::AggBegin);
        note(sink, Event::Match { pred: driver.pred, key: delta_key, cost });
        note(sink, Event::AggElement { group, element });
        note(sink, Event::Unmatch);
        note(sink, Event::AggResult { lit, func, group, result: element, partial: true });
        derived.current = exec_index;
        derived.joining = true;
        let r = exec_steps(ctx, rule, &relax.steps, &mut b, sink, &mut |b, sink| {
            emit_head(ctx, rule, b, derived, sink)
        });
        derived.joining = false;
        note(sink, Event::AggEnd);
        sink.on(&Event::FireEnd { rule: exec.ri });
        r
    }
}

/// The seed of an aggregate driver: the bound grouping variables (sorted,
/// as `groupings` is) with their values.
fn grouping_seed(groupings: &[Var], binding: &Binding) -> Vec<(Var, Value)> {
    groupings
        .iter()
        .filter_map(|v| binding.get(*v).map(|val| (*v, val.clone())))
        .collect()
}

/// Claim a semi-naive seed for `shard`: a seed hashing to another shard
/// ([`par::shard_of`]) is skipped *before* dedup, so each seed fires on
/// exactly one shard and shard-local dedup is global. One shard owns
/// every seed, so the hash is skipped.
fn claim_seed(
    seen_seeds: &mut SeenSeeds,
    shard: (usize, usize),
    exec_index: usize,
    disc: u64,
    seed: Vec<(Var, Value)>,
) -> bool {
    let (me, shards) = shard;
    (shards == 1 || par::shard_of(exec_index, disc, &seed, shards) == me)
        && seen_seeds.insert((exec_index, disc, seed))
}

/// One shard's contribution to a round barrier: its round buffer (or the
/// error that stopped its firing, boxed so the record stays as small as
/// the buffer), the counters the barrier folds into the component totals,
/// and its report for the caller's sink.
struct ShardRound {
    entries: Result<Derived, Box<EvalError>>,
    /// Per-exec-slot head derivations this round.
    pushes: Vec<u64>,
    /// This round's firings and pruned derivations.
    stats: EvalStats,
    agg: AggCounters,
    sample: crate::metrics::WorkerSample,
}

/// Build the relaxation plan for an aggregate at body index `li` if the
/// join-fold conditions hold (see [`Driver::relax`]).
fn relaxation_plan(
    program: &Program,
    rule: &Rule,
    li: usize,
    agg: &maglog_datalog::Aggregate,
) -> Option<Plan> {
    if agg.eq != AggEq::Restricted || agg.conjuncts.len() != 1 {
        return None;
    }
    let Term::Var(result) = agg.result else {
        return None;
    };
    // The head cost argument must be exactly the result variable.
    let spec = program.cost_spec(rule.head.pred)?;
    if rule.head.cost_arg(true) != Some(&Term::Var(result)) {
        return None;
    }
    if !maglog_analysis::prem::is_join_fold(agg.func, spec.domain) {
        return None;
    }
    // The conjunct's cost domain must match the head domain.
    let conj = &agg.conjuncts[0];
    let conj_spec = program.cost_spec(conj.pred)?;
    if conj_spec.domain != spec.domain {
        return None;
    }
    // The result variable must not occur anywhere else in the body.
    for (i, lit) in rule.body.iter().enumerate() {
        let used = match lit {
            Literal::Pos(a) | Literal::Neg(a) => a.vars().any(|v| v == result),
            Literal::Builtin(b) => b.vars().contains(&result),
            Literal::Agg(a2) => {
                (i != li && a2.result == Term::Var(result))
                    || a2.inner_vars().contains(&result)
            }
        };
        if used {
            return None;
        }
    }
    // Seed: grouping vars plus the result var (bound to the delta element).
    let mut seed: BTreeSet<Var> = rule.aggregate_grouping_vars(li).into_iter().collect();
    seed.insert(result);
    plan_rule(program, rule, &seed, Some(li)).ok()
}

/// Is a component eligible for the greedy strategy? All CDB predicates
/// must be `min_real` cost predicates and every recursive aggregate must
/// be `min`.
fn greedy_eligible(
    program: &Program,
    cdb: &BTreeSet<Pred>,
    rule_indices: &[usize],
) -> bool {
    let all_min = cdb.iter().all(|p| {
        program
            .cost_spec(*p)
            .is_some_and(|c| c.domain == maglog_datalog::DomainSpec::MinReal)
    });
    if !all_min {
        return false;
    }
    rule_indices.iter().all(|&ri| {
        program.rules[ri].body.iter().all(|lit| match lit {
            Literal::Agg(agg) => {
                let recursive = agg.conjuncts.iter().any(|a| cdb.contains(&a.pred));
                !recursive || agg.func == AggFunc::Min
            }
            Literal::Neg(a) => !cdb.contains(&a.pred),
            _ => true,
        })
    })
}

/// A queued greedy candidate: `(cost, pred, key, exec slot)`.
type Candidate = (Real, Pred, Arc<Tuple>, usize);

/// Greedy's frontier step, run between a round's firing and its apply:
/// the round's derivations join a queue ordered by cost, and the round
/// applies only the unsettled candidates tied at the least queued cost.
/// That batch is exact: with nonnegative increments, a derivation fired
/// from an atom settled at cost `f` costs at least `f`, so it cannot
/// undercut the batch. An instance that breaks the assumption fails with
/// [`EvalError::GreedyViolation`].
struct Frontier {
    /// Candidates, cheapest first. Keys stay shared `Arc`s throughout the
    /// queue, the cost table and the relation.
    queue: BinaryHeap<Reverse<Candidate>>,
    /// The best cost queued per key.
    best: HashMap<(Pred, Arc<Tuple>), Real>,
    /// The cost of the last settled batch.
    level: Real,
}

impl Frontier {
    /// Move the component's pre-loaded CDB facts into the queue, so that
    /// rule-derived cheaper values can still win. A fact settles under the
    /// component's first rule (exec slot 0).
    fn load(db: &mut Interp, cdb: &BTreeSet<Pred>) -> Frontier {
        let mut frontier = Frontier {
            queue: BinaryHeap::new(),
            best: HashMap::new(),
            level: Real::NEG_INFINITY,
        };
        for &pred in cdb {
            let rel = std::mem::take(db.relation_mut(pred));
            for (key, cost) in rel.iter_arcs() {
                if let Some(Value::Num(r)) = cost {
                    frontier.queue.push(Reverse((*r, pred, key.clone(), 0)));
                    frontier.best.insert((pred, key.clone()), *r);
                }
            }
        }
        frontier
    }

    /// Queue one round's buffered derivations, then pop the next batch:
    /// every unsettled candidate at the least queued cost, as the buffer
    /// the round applies. An empty batch is the fixpoint.
    fn settle_batch(
        &mut self,
        program: &Program,
        db: &Interp,
        derived: Derived,
    ) -> Result<Derived, EvalError> {
        for ((pred, key), entry) in derived {
            let Some(Value::Num(r)) = entry.cost else {
                continue;
            };
            // Re-derivations of settled atoms are fine as long as they do
            // not *improve* them (alternative equal-cost paths, or
            // dominated ones re-found through a new route).
            if let Some(Some(Value::Num(old))) = db.relation(pred).and_then(|rel| rel.get(&key)) {
                if r >= *old {
                    continue;
                }
                return Err(EvalError::GreedyViolation {
                    detail: format!(
                        "settled atom of {} at {} improved to {} \
                         (negative weights? use the semi-naive strategy)",
                        program.pred_name(pred),
                        old,
                        r
                    ),
                });
            }
            if r < self.level {
                return Err(EvalError::GreedyViolation {
                    detail: format!(
                        "derivation for {} at cost {} undercuts the settled frontier {} \
                         (negative weights? use the semi-naive strategy)",
                        program.pred_name(pred),
                        r,
                        self.level
                    ),
                });
            }
            let best = self.best.entry((pred, key.clone())).or_insert(r);
            if r <= *best {
                *best = r;
                self.queue.push(Reverse((r, pred, key, entry.slot)));
            }
        }
        let mut batch = Derived::new();
        while let Some(top) = self.queue.peek_mut() {
            if !batch.is_empty() && top.0 .0 > self.level {
                break;
            }
            let Reverse((cost, pred, key, slot)) = PeekMut::pop(top);
            // Already settled, with an equal or better value?
            if db.relation(pred).is_some_and(|rel| rel.contains(&key)) {
                continue;
            }
            self.level = cost;
            // A tied duplicate keeps the first (lowest) slot.
            batch.entry((pred, key)).or_insert(DerivedEntry {
                cost: Some(Value::Num(cost)),
                slot,
                joined: false,
            });
        }
        Ok(batch)
    }
}

struct RuleExec<'p> {
    /// Index of the rule in `program.rules` (event attribution).
    ri: usize,
    rule: &'p Rule,
    plan: Plan,
    drivers: Vec<Driver>,
}

struct Driver {
    pred: Pred,
    lit: usize,
    conjunct: Option<usize>,
    plan: Plan,
    /// Join-fold relaxation: when the aggregate is a pure lattice fold
    /// (`=r min/max/or/and/union/intersect` matching the domain) whose
    /// result variable flows straight into the head cost argument, a
    /// changed element can be *relaxed* into the head directly — the
    /// accumulated lattice join over all relaxations equals the aggregate
    /// of the full group, at O(1) per delta instead of a group rescan.
    relax: Option<Plan>,
    /// The driven aggregate's grouping variables, sorted (empty for a
    /// positive-atom driver).
    groupings: Vec<Var>,
    /// Group discovery: when the conjunct's key variables miss a grouping
    /// variable, the join order of the aggregate's *other* conjuncts with
    /// the delta tuple's key bound. Enumerating it finds every group the
    /// delta tuple belongs to, and each group is re-folded on its own
    /// seed; without it the seed would bind no grouping at all and the
    /// whole rule would be re-folded.
    discover: Option<Vec<usize>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use maglog_datalog::parse_program;

    fn run(src: &str) -> (maglog_datalog::Program, Model) {
        let p = parse_program(src).unwrap();
        let model = MonotonicEngine::new(&p).evaluate(&Edb::new()).unwrap();
        (p, model)
    }

    #[test]
    fn plain_datalog_transitive_closure() {
        let (p, m) = run(
            r#"
            e(a, b). e(b, c). e(c, d).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- tc(X, Z), e(Z, Y).
            "#,
        );
        assert!(m.holds(&p, "tc", &["a", "d"]));
        assert!(m.holds(&p, "tc", &["b", "d"]));
        assert!(!m.holds(&p, "tc", &["d", "a"]));
        assert_eq!(m.tuples_of(&p, "tc").len(), 6);
    }

    #[test]
    fn example_3_1_shortest_path_minimal_model() {
        let (p, m) = run(
            r#"
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            declare pred s/3 cost min_real.
            arc(a, b, 1).
            arc(b, b, 0).
            path(X, direct, Y, C) :- arc(X, Y, C).
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
            constraint :- arc(direct, Z, C).
            "#,
        );
        // The paper's M1: s(a,b,1), s(b,b,0) — NOT M2's s(a,b,0).
        assert_eq!(m.cost_of(&p, "s", &["a", "b"]).unwrap().as_f64(), Some(1.0));
        assert_eq!(m.cost_of(&p, "s", &["b", "b"]).unwrap().as_f64(), Some(0.0));
        assert_eq!(
            m.cost_of(&p, "path", &["a", "b", "b"]).unwrap().as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn naive_and_seminaive_agree() {
        let src = r#"
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            declare pred s/3 cost min_real.
            arc(a, b, 2). arc(b, c, 3). arc(c, a, 4). arc(a, c, 10).
            path(X, direct, Y, C) :- arc(X, Y, C).
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
            constraint :- arc(direct, Z, C).
        "#;
        let p = parse_program(src).unwrap();
        let naive = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                strategy: Strategy::Naive,
                ..Default::default()
            },
        )
        .evaluate(&Edb::new())
        .unwrap();
        let semi = MonotonicEngine::new(&p).evaluate(&Edb::new()).unwrap();
        assert_eq!(naive.render(&p), semi.render(&p));
        assert_eq!(
            semi.cost_of(&p, "s", &["a", "c"]).unwrap().as_f64(),
            Some(5.0)
        );
    }

    #[test]
    fn company_control_example_2_7() {
        // a owns 40% of b directly; a owns 60% of c; c owns 20% of b.
        // a controls c (0.6 > 0.5), hence controls 0.4 + 0.2 of b.
        let (p, m) = run(
            r#"
            declare pred s/3 cost nonneg_real.
            declare pred cv/4 cost nonneg_real.
            declare pred m/3 cost nonneg_real.
            s(a, b, 0.4). s(a, c, 0.6). s(c, b, 0.2).
            cv(X, X, Y, N) :- s(X, Y, N).
            cv(X, Z, Y, N) :- c(X, Z), s(Z, Y, N).
            m(X, Y, N) :- N =r sum M : cv(X, Z, Y, M).
            c(X, Y) :- m(X, Y, N), N > 0.5.
            "#,
        );
        assert!(m.holds(&p, "c", &["a", "c"]));
        assert!(m.holds(&p, "c", &["a", "b"]));
        let frac = m.cost_of(&p, "m", &["a", "b"]).unwrap().as_f64().unwrap();
        assert!((frac - 0.6).abs() < 1e-12, "got {frac}");
    }

    #[test]
    fn party_example_4_3_with_cyclic_knows() {
        // ann requires 0; bob requires 1 and knows ann; cal and dan know
        // only each other and require 1: they stay undecided... no — in the
        // minimal model they simply do not come.
        let (p, m) = run(
            r#"
            requires(ann, 0). requires(bob, 1). requires(cal, 1). requires(dan, 1).
            knows(bob, ann). knows(cal, dan). knows(dan, cal).
            coming(X) :- requires(X, K), N = count : kc(X, Y), N >= K.
            kc(X, Y) :- knows(X, Y), coming(Y).
            "#,
        );
        assert!(m.holds(&p, "coming", &["ann"]));
        assert!(m.holds(&p, "coming", &["bob"]));
        assert!(!m.holds(&p, "coming", &["cal"]));
        assert!(!m.holds(&p, "coming", &["dan"]));
    }

    #[test]
    fn circuit_example_4_4_with_cycle() {
        // AND gate g1 feeding itself evaluates to false (minimal behaviour);
        // OR gate g2 with a true input is true even on a cycle with g3.
        let (p, m) = run(
            r#"
            declare pred t/2 cost bool_or default.
            declare pred input/2 cost bool_or.
            input(w1, 1). input(w2, 0).
            gate(g1, and). gate(g2, or). gate(g3, or).
            connect(g1, g1). connect(g1, w1).
            connect(g2, w1). connect(g2, g3).
            connect(g3, g2). connect(g3, w2).
            t(W, C) :- input(W, C).
            t(G, C) :- gate(G, or), C = or D : [connect(G, W), t(W, D)].
            t(G, C) :- gate(G, and), C = and D : [connect(G, W), t(W, D)].
            constraint :- gate(G, or), gate(G, and).
            constraint :- gate(G, T), input(G, C).
            "#,
        );
        assert_eq!(m.cost_of(&p, "t", &["g1"]), Some(Value::Bool(false)));
        assert_eq!(m.cost_of(&p, "t", &["g2"]), Some(Value::Bool(true)));
        assert_eq!(m.cost_of(&p, "t", &["g3"]), Some(Value::Bool(true)));
        assert_eq!(m.cost_of(&p, "t", &["w2"]), Some(Value::Bool(false)));
    }

    #[test]
    fn halfsum_example_5_1_reaches_the_limit() {
        // The paper's least model is {p(a,1), p(b,1)}; T_P is monotonic but
        // not continuous, so ω iterations are needed — IEEE-754 rounding
        // reaches the limit exactly after ~55 rounds (the ulp near 1.0 is
        // 2^-53, and round-to-even closes the final gap).
        let (p, m) = run(
            r#"
            declare pred p/2 cost nonneg_real.
            p(b, 1).
            p(a, C) :- C =r halfsum D : p(X, D).
            "#,
        );
        assert_eq!(m.cost_of(&p, "p", &["a"]).unwrap().as_f64(), Some(1.0));
        assert_eq!(m.cost_of(&p, "p", &["b"]).unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn negative_cycle_hits_round_cap() {
        let p = parse_program(
            r#"
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            declare pred s/3 cost min_real.
            arc(a, b, 1). arc(b, a, -2).
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
                max_rounds: 50,
                ..Default::default()
            },
        );
        match engine.evaluate(&Edb::new()) {
            Err(EvalError::NonTermination { .. }) => {}
            other => panic!("expected NonTermination, got {other:?}"),
        }
    }

    #[test]
    fn greedy_matches_seminaive_on_nonneg_graphs() {
        let src = r#"
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            declare pred s/3 cost min_real.
            arc(a, b, 2). arc(b, c, 3). arc(c, a, 4). arc(a, c, 10). arc(c, c, 0).
            path(X, direct, Y, C) :- arc(X, Y, C).
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
            constraint :- arc(direct, Z, C).
        "#;
        let p = parse_program(src).unwrap();
        let semi = MonotonicEngine::new(&p).evaluate(&Edb::new()).unwrap();
        let greedy = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                strategy: Strategy::Greedy,
                ..Default::default()
            },
        )
        .evaluate(&Edb::new())
        .unwrap();
        assert_eq!(semi.render(&p), greedy.render(&p));
    }

    #[test]
    fn greedy_rejects_negative_weights() {
        let src = r#"
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            declare pred s/3 cost min_real.
            arc(a, b, 5). arc(b, c, -3).
            path(X, direct, Y, C) :- arc(X, Y, C).
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
            constraint :- arc(direct, Z, C).
        "#;
        let p = parse_program(src).unwrap();
        let engine = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                strategy: Strategy::Greedy,
                ..Default::default()
            },
        );
        match engine.evaluate(&Edb::new()) {
            Err(EvalError::GreedyViolation { .. }) => {}
            other => panic!("expected GreedyViolation, got {other:?}"),
        }
    }

    #[test]
    fn greedy_falls_back_on_ineligible_components() {
        // Company control: nonneg_real sums — not greedy-eligible; the
        // strategy silently falls back to semi-naive and stays correct.
        let src = r#"
            declare pred s/3 cost nonneg_real.
            declare pred cv/4 cost nonneg_real.
            declare pred m/3 cost nonneg_real.
            s(a, b, 0.4). s(a, c, 0.6). s(c, b, 0.2).
            cv(X, X, Y, N) :- s(X, Y, N).
            cv(X, Z, Y, N) :- c(X, Z), s(Z, Y, N).
            m(X, Y, N) :- N =r sum M : cv(X, Z, Y, M).
            c(X, Y) :- m(X, Y, N), N > 0.5.
        "#;
        let p = parse_program(src).unwrap();
        let greedy = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                strategy: Strategy::Greedy,
                ..Default::default()
            },
        )
        .evaluate(&Edb::new())
        .unwrap();
        assert!(greedy.holds(&p, "c", &["a", "b"]));
        assert!(greedy.holds(&p, "c", &["a", "c"]));
    }

    #[test]
    fn greedy_handles_cdb_edb_facts() {
        // A pre-loaded s fact competes with derived values; the cheaper
        // derived value must win.
        let src = r#"
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            declare pred s/3 cost min_real.
            arc(a, b, 1).
            path(X, direct, Y, C) :- arc(X, Y, C).
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
            constraint :- arc(direct, Z, C).
        "#;
        let p = parse_program(src).unwrap();
        let mut edb = Edb::new();
        edb.push_cost_fact(&p, "s", &["a", "b"], 9.0);
        let greedy = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                strategy: Strategy::Greedy,
                ..Default::default()
            },
        )
        .evaluate(&edb)
        .unwrap();
        assert_eq!(
            greedy.cost_of(&p, "s", &["a", "b"]).unwrap().as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn uncertified_program_is_refused() {
        let p = parse_program(
            r#"
            declare pred q/3 cost max_real.
            declare pred p/2 cost max_real.
            p(X, C) :- q(X, Y, C).
            "#,
        )
        .unwrap();
        match MonotonicEngine::new(&p).evaluate(&Edb::new()) {
            Err(EvalError::NotCertified(_)) => {}
            other => panic!("expected NotCertified, got {other:?}"),
        }
    }

    #[test]
    fn cost_conflict_is_detected_when_unchecked() {
        let p = parse_program(
            r#"
            declare pred q/2 cost min_real.
            declare pred r/2 cost min_real.
            declare pred p/2 cost min_real.
            q(x, 1). r(x, 2).
            p(X, C) :- q(X, C).
            p(X, C) :- r(X, C).
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
            Err(EvalError::CostConflict { .. }) => {}
            other => panic!("expected CostConflict, got {other:?}"),
        }
    }

    #[test]
    fn grades_example_2_1() {
        let (p, m) = run(
            r#"
            declare pred record/3 cost max_real.
            declare pred s_avg/2 cost max_real.
            declare pred c_avg/2 cost max_real.
            declare pred all_avg/1 cost max_real.
            declare pred class_count/2 cost nat.
            record(john, db, 80). record(john, os, 60).
            record(mary, db, 90). record(mary, ai, 70).
            s_avg(S, G) :- G =r avg G2 : record(S, C, G2).
            c_avg(C, G) :- G =r avg G2 : record(S, C, G2).
            all_avg(G) :- G =r avg G2 : c_avg(S, G2).
            class_count(C, N) :- N =r count : record(S, C, G).
            "#,
        );
        assert_eq!(
            m.cost_of(&p, "s_avg", &["john"]).unwrap().as_f64(),
            Some(70.0)
        );
        assert_eq!(
            m.cost_of(&p, "c_avg", &["db"]).unwrap().as_f64(),
            Some(85.0)
        );
        // all_avg over class averages {85, 60, 70} = 71.666...
        let g = m.cost_of(&p, "all_avg", &[]).unwrap().as_f64().unwrap();
        assert!((g - (85.0 + 60.0 + 70.0) / 3.0).abs() < 1e-9);
        assert_eq!(
            m.cost_of(&p, "class_count", &["db"]).unwrap().as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn alt_class_count_counts_empty_classes() {
        let (p, m) = run(
            r#"
            declare pred record/3 cost max_real.
            declare pred alt_class_count/2 cost nat.
            courses(db). courses(logic).
            record(john, db, 80).
            alt_class_count(C, N) :- courses(C), N = count : record(S, C, G).
            "#,
        );
        assert_eq!(
            m.cost_of(&p, "alt_class_count", &["db"]).unwrap().as_f64(),
            Some(1.0)
        );
        assert_eq!(
            m.cost_of(&p, "alt_class_count", &["logic"])
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    const OPT_SHORTEST: &str = r#"
        declare pred arc/3 cost min_real.
        declare pred path/4 cost min_real.
        declare pred s/3 cost min_real.
        arc(a, b, 2). arc(b, c, 3). arc(c, a, 4). arc(a, c, 10).
        arc(b, d, 1). arc(d, c, 1).
        path(X, direct, Y, C) :- arc(X, Y, C).
        path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
        s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
        constraint :- arc(direct, Z, C).
    "#;

    fn run_opt(src: &str, optimize: Optimize) -> (maglog_datalog::Program, Model) {
        let p = parse_program(src).unwrap();
        let model = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                optimize,
                ..Default::default()
            },
        )
        .evaluate(&Edb::new())
        .unwrap();
        (p, model)
    }

    #[test]
    fn prem_pruning_preserves_the_model_and_cuts_derivations() {
        let (p, plain) = run(OPT_SHORTEST);
        let (p2, optimized) = run_opt(
            OPT_SHORTEST,
            Optimize {
                prem: true,
                demand: false,
            },
        );
        assert_eq!(plain.render(&p), optimized.render(&p2));
        assert_eq!(plain.stats().pruned, 0);
        assert!(plain.stats().optimizations.is_empty());
        assert!(optimized.stats().pruned > 0);
        assert!(
            optimized.stats().derivations < plain.stats().derivations,
            "{} !< {}",
            optimized.stats().derivations,
            plain.stats().derivations
        );
        assert!(optimized
            .stats()
            .optimizations
            .iter()
            .any(|l| l.contains("premappable")));
    }

    #[test]
    fn refused_pushdown_is_never_pruned_nonlinear_recursion() {
        // Doubling (non-linear) recursion: the PreM proof refuses the
        // pushdown, so `--optimize=prem` must change nothing.
        let src = r#"
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            declare pred s/3 cost min_real.
            arc(a, b, 2). arc(b, c, 3). arc(c, d, 4).
            path(X, direct, Y, C) :- arc(X, Y, C).
            path(X, Z, Y, C) :- s(X, Z, C1), s(Z, Y, C2), C = C1 + C2.
            s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
            constraint :- arc(direct, Z, C).
            constraint :- s(direct, Z, C).
        "#;
        let (p, plain) = run(src);
        let (p2, optimized) = run_opt(
            src,
            Optimize {
                prem: true,
                demand: false,
            },
        );
        assert_eq!(plain.render(&p), optimized.render(&p2));
        assert_eq!(optimized.stats().pruned, 0);
        assert_eq!(
            optimized.stats().derivations,
            plain.stats().derivations,
            "a refused pushdown must not change the evaluation"
        );
        assert!(optimized
            .stats()
            .optimizations
            .iter()
            .any(|l| l.contains("refused")));
    }

    #[test]
    fn refused_pushdown_is_never_pruned_total_aggregate() {
        // Example 4.3's party program: the count aggregate uses total
        // equality, which is not a join fold — refusal, no pruning.
        let src = r#"
            requires(ann, 0). requires(bob, 1). requires(cal, 1). requires(dan, 1).
            knows(bob, ann). knows(cal, dan). knows(dan, cal).
            coming(X) :- requires(X, K), N = count : kc(X, Y), N >= K.
            kc(X, Y) :- knows(X, Y), coming(Y).
        "#;
        let (p, plain) = run(src);
        let (p2, optimized) = run_opt(
            src,
            Optimize {
                prem: true,
                demand: false,
            },
        );
        assert_eq!(plain.render(&p), optimized.render(&p2));
        assert_eq!(optimized.stats().pruned, 0);
        assert!(optimized
            .stats()
            .optimizations
            .iter()
            .any(|l| l.contains("refused")));
    }

    #[test]
    fn demand_restricted_goal_agrees_with_the_full_model() {
        use crate::provenance::parse_goal;
        let src = r#"
            declare pred arc/3 cost min_real.
            declare pred path/4 cost min_real.
            declare pred s/3 cost min_real.
            arc(a, b, 2). arc(b, c, 3). arc(c, a, 4). arc(a, c, 10).
            arc(b, d, 1). arc(d, c, 1).
            path(X, direct, Y, C) :- arc(X, Y, C).
            path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
            s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
            e(p, q). e(q, r).
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- tc(X, Z), e(Z, Y).
            constraint :- arc(direct, Z, C).
        "#;
        let p = parse_program(src).unwrap();
        let full = MonotonicEngine::new(&p).evaluate(&Edb::new()).unwrap();
        let goal = parse_goal(&p, "s(a, c)").unwrap();
        let engine = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                optimize: Optimize {
                    prem: false,
                    demand: true,
                },
                ..Default::default()
            },
        );
        let m = engine.evaluate_goal(&Edb::new(), &goal).unwrap();
        // Every s-fact from the demanded source survives, at its exact
        // full-model cost.
        for target in ["b", "c", "d"] {
            assert_eq!(
                m.cost_of(&p, "s", &["a", target]),
                full.cost_of(&p, "s", &["a", target]),
                "s(a, {target})"
            );
        }
        // The unrelated tc component was skipped outright...
        assert!(m.stats().rounds.contains(&0));
        assert!(m.tuples_of(&p, "tc").is_empty());
        // ...and derivations from other sources were filtered.
        assert!(m.stats().pruned > 0);
        assert!(m.stats().derivations < full.stats().derivations);
        assert!(m
            .stats()
            .optimizations
            .iter()
            .any(|l| l.contains("demand: restricted")));
    }

    #[test]
    fn demand_goal_without_a_stable_binding_still_answers() {
        use crate::provenance::parse_goal;
        // The party component admits no uniform binding: the engine must
        // fall back to cone-only restriction and still answer correctly.
        let src = r#"
            requires(ann, 0). requires(bob, 1). requires(cal, 1). requires(dan, 1).
            knows(bob, ann). knows(cal, dan). knows(dan, cal).
            coming(X) :- requires(X, K), N = count : kc(X, Y), N >= K.
            kc(X, Y) :- knows(X, Y), coming(Y).
        "#;
        let p = parse_program(src).unwrap();
        let goal = parse_goal(&p, "coming(bob)").unwrap();
        let engine = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                optimize: Optimize {
                    prem: false,
                    demand: true,
                },
                ..Default::default()
            },
        );
        let m = engine.evaluate_goal(&Edb::new(), &goal).unwrap();
        assert!(m.holds(&p, "coming", &["bob"]));
        assert!(!m.holds(&p, "coming", &["cal"]));
        assert!(m
            .stats()
            .optimizations
            .iter()
            .any(|l| l.contains("no stable binding")));
    }

    /// Evaluate `src` at `workers` workers under `strategy`.
    fn run_parallel(src: &str, strategy: Strategy, workers: usize) -> (Program, Model) {
        let p = parse_program(src).unwrap();
        let m = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                strategy,
                workers,
                ..Default::default()
            },
        )
        .evaluate(&Edb::new())
        .unwrap();
        (p, m)
    }

    const SHORTEST_PATH_SRC: &str = r#"
        declare pred arc/3 cost min_real.
        declare pred path/4 cost min_real.
        declare pred s/3 cost min_real.
        arc(a, b, 2). arc(b, c, 3). arc(c, a, 4). arc(a, c, 10).
        arc(c, d, 1). arc(d, b, 2). arc(b, d, 7).
        path(X, direct, Y, C) :- arc(X, Y, C).
        path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
        s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
        constraint :- arc(direct, Z, C).
    "#;

    #[test]
    fn parallel_matches_sequential_on_shortest_path() {
        let (p, seq) = run_parallel(SHORTEST_PATH_SRC, Strategy::SemiNaive, 1);
        for workers in [2, 3, 4] {
            let (_, par) = run_parallel(SHORTEST_PATH_SRC, Strategy::SemiNaive, workers);
            assert_eq!(seq.render(&p), par.render(&p), "workers={workers}");
        }
    }

    #[test]
    fn parallel_naive_matches_sequential_naive() {
        let (p, seq) = run_parallel(SHORTEST_PATH_SRC, Strategy::Naive, 1);
        let (_, par) = run_parallel(SHORTEST_PATH_SRC, Strategy::Naive, 4);
        assert_eq!(seq.render(&p), par.render(&p));
    }

    #[test]
    fn parallel_counters_match_sequential() {
        // Seed-hash sharding fires each seed on exactly one worker, so
        // the derivation/firing counters — not just the model — are equal.
        // Greedy settles after the barrier merge, from the same buffer.
        for strategy in [Strategy::SemiNaive, Strategy::Greedy] {
            let (_, seq) = run_parallel(SHORTEST_PATH_SRC, strategy, 1);
            let (_, par) = run_parallel(SHORTEST_PATH_SRC, strategy, 4);
            let name = strategy.name();
            assert_eq!(seq.stats().derivations, par.stats().derivations, "{name}");
            assert_eq!(seq.stats().firings, par.stats().firings, "{name}");
            assert_eq!(seq.stats().rounds, par.stats().rounds, "{name}");
            assert_eq!(seq.stats().pruned, par.stats().pruned, "{name}");
        }
    }

    #[test]
    fn parallel_zero_workers_means_available_parallelism() {
        // `workers: 0` resolves to the machine; whatever that is, the
        // model matches the sequential one.
        let (p, seq) = run_parallel(SHORTEST_PATH_SRC, Strategy::SemiNaive, 1);
        let (_, auto) = run_parallel(SHORTEST_PATH_SRC, Strategy::SemiNaive, 0);
        assert_eq!(seq.render(&p), auto.render(&p));
    }

    #[test]
    fn parallel_surfaces_cost_conflicts() {
        // Two rules derive p(a) at different costs in the same round; the
        // Definition 2.6 check must fire at whatever worker count, whether
        // the colliding pushes meet at the barrier (the first program: its
        // two rules go to shards 0 and 1) or inside one shard (the second:
        // exec slots 0 and 2 share shard 0).
        let at_the_barrier = r#"
            declare pred p/2 cost min_real.
            base(a).
            seed(X) :- base(X).
            p(X, 1) :- seed(X).
            p(X, 2) :- seed(X).
        "#;
        let in_one_shard = r#"
            declare pred p/2 cost min_real.
            base(a).
            seed(X) :- base(X).
            p(X, 1) :- seed(X).
            p(X, 1) :- seed(X), base(X).
            p(X, 2) :- seed(X).
        "#;
        /// The round starts and barrier records, in order.
        struct BarrierSpy(Vec<(&'static str, usize)>);
        impl EventSink for BarrierSpy {
            fn on(&mut self, event: &Event<'_>) {
                match *event {
                    Event::RoundStart { round, .. } => self.0.push(("start", round)),
                    Event::ParallelRound { round, .. } => self.0.push(("barrier", round)),
                    _ => {}
                }
            }
        }
        for src in [at_the_barrier, in_one_shard] {
            let p = parse_program(src).unwrap();
            for workers in [1usize, 2, 4] {
                let mut spy = BarrierSpy(Vec::new());
                let r = MonotonicEngine::with_options(
                    &p,
                    EvalOptions {
                        workers,
                        allow_unchecked: true,
                        ..Default::default()
                    },
                )
                .evaluate_with_sink(&Edb::new(), &mut spy);
                assert!(
                    matches!(r, Err(EvalError::CostConflict { .. })),
                    "workers={workers}: {r:?}"
                );
                // The barrier still reports the failing round.
                if workers > 1 {
                    assert_eq!(spy.0[spy.0.len() - 2..], [("start", 1), ("barrier", 1)]);
                }
            }
        }
    }

    #[test]
    fn parallel_round_events_report_shards() {
        struct ParSpy {
            rounds: usize,
            workers: Vec<usize>,
            firings_via_shards: usize,
        }
        impl EventSink for ParSpy {
            fn on(&mut self, event: &Event<'_>) {
                if let Event::ParallelRound {
                    workers, samples, ..
                } = *event
                {
                    self.rounds += 1;
                    self.workers.push(workers);
                    assert_eq!(samples.len(), workers);
                    // One report per shard, in shard order, unmetered.
                    for (w, sample) in samples.iter().enumerate() {
                        assert_eq!(sample.worker, w);
                        assert_eq!(sample.readings, None);
                    }
                    let fired: u64 = samples.iter().map(|s| s.firings()).sum();
                    self.firings_via_shards += fired as usize;
                }
            }
        }
        let p = parse_program(SHORTEST_PATH_SRC).unwrap();
        let mut spy = ParSpy {
            rounds: 0,
            workers: Vec::new(),
            firings_via_shards: 0,
        };
        let m = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                workers: 3,
                ..Default::default()
            },
        )
        .evaluate_with_sink(&Edb::new(), &mut spy)
        .unwrap();
        assert!(spy.rounds > 0, "no ParallelRound events fired");
        assert!(spy.workers.iter().all(|&w| w == 3));
        assert_eq!(spy.firings_via_shards as u64, m.stats().firings);
    }
}
