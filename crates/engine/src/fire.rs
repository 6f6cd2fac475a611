//! The step interpreter: one application of a rule's plan under a
//! variable binding, as `T_P` (Definition 3.7) fires it. [`exec_steps`]
//! is the only code that executes a plan step; the firing paths end it in
//! [`emit_head`], which buffers head derivations in a [`RoundBuffer`],
//! and why-not ([`crate::provenance::why_not`]) runs it on plan prefixes.
//! [`Binding::unify`] and [`Binding::undo`] are its one bind-or-compare.

use crate::aggregate;
use crate::error::EvalError;
use crate::eval::DemandFilter;
use crate::events::{Event, EventSink};
use crate::interp::{Interp, Sig, Tuple};
use crate::plan::Step;
use crate::value::{RuntimeDomain, Value};
use maglog_datalog::{AggEq, Atom, BinOp, CmpOp, Expr, Literal, Pred, Program, Rule, Term, Var};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-component aggregate-evaluation totals. `Cell`s because `Ctx` flows
/// immutably through the recursive step executor.
#[derive(Debug, Default)]
pub(crate) struct AggCounters {
    /// Streaming accumulators created (one per enumerated group).
    pub(crate) groups: Cell<u64>,
    /// Multiset elements folded across all groups.
    pub(crate) elements: Cell<u64>,
    /// Largest estimated footprint of a live accumulator table seen by
    /// any single aggregate evaluation (struct + set working states).
    pub(crate) peak_bytes: Cell<u64>,
}

impl AggCounters {
    /// Fold one shard's round totals into the component's.
    pub(crate) fn absorb(&self, shard: &AggCounters) {
        self.groups.set(self.groups.get() + shard.groups.get());
        self.elements.set(self.elements.get() + shard.elements.get());
        self.peak_bytes
            .set(self.peak_bytes.get().max(shard.peak_bytes.get()));
    }
}

/// Evaluation context: the program and the current database view (`J ∪ I`
/// merged, since CDB and LDB predicates are disjoint).
pub(crate) struct Ctx<'a> {
    pub(crate) program: &'a Program,
    pub(crate) db: &'a Interp,
    pub(crate) agg: &'a AggCounters,
}

/// A variable binding environment. Its trail lists the variables that
/// unification bound, latest last, so that a caller can undo back to a
/// mark (the trail's length when it started).
#[derive(Clone, Debug, Default)]
pub(crate) struct Binding {
    pub(crate) map: HashMap<Var, Value>,
    pub(crate) trail: Vec<Var>,
}

impl Binding {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn get(&self, v: Var) -> Option<&Value> {
        self.map.get(&v)
    }

    /// Unify `t` with `val`: a constant or a bound variable must equal it
    /// under `eq`, and a free variable is bound to it and trailed.
    pub(crate) fn unify(&mut self, t: &Term, val: &Value, eq: impl Fn(&Value, &Value) -> bool) -> bool {
        match t {
            Term::Const(c) => eq(&Value::from_const(*c), val),
            Term::Var(v) => match self.map.get(v) {
                Some(bound) => eq(bound, val),
                None => {
                    self.map.insert(*v, val.clone());
                    self.trail.push(*v);
                    true
                }
            },
        }
    }

    /// Unbind the variables trailed since `mark`.
    pub(crate) fn undo(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.map.remove(&v);
        }
    }
}

/// Buffered derivations of one `T_P` application, keyed by `(pred, key)`.
pub(crate) type Derived = HashMap<(Pred, Arc<Tuple>), DerivedEntry>;

/// One shard's buffered derivations of a `T_P` application, with the
/// Definition 2.6 consistency check. Each buffered (pred, key) remembers
/// the exec slot of the rule that first derived it this round, so the
/// apply loop can attribute insert outcomes; `pushes` accumulates per-slot
/// derivation counts across the whole component.
pub(crate) struct RoundBuffer<'a> {
    pub(crate) program: &'a Program,
    pub(crate) check: bool,
    /// Relaxed (join-fold) derivations are intentionally partial values:
    /// pushes made while this is set are marked `joined`.
    pub(crate) joining: bool,
    /// Exec slot of the rule currently firing (set before `exec_steps`).
    pub(crate) current: usize,
    /// PreM dominance pruning (`--optimize=prem`, proven component only):
    /// discard derivations whose cost is already dominated by the
    /// database value instead of buffering them. Such a derivation would
    /// be a no-op at apply time, so the model is unchanged; it does
    /// bypass the same-round Definition 2.6 check for the discarded
    /// value, which is why the rewrite additionally requires the program
    /// to be certified conflict-free.
    pub(crate) prune: bool,
    /// Demand filter (`--optimize=demand`): discard derivations not
    /// carrying the demanded constant at their predicate's stable
    /// position.
    pub(crate) demand: Option<&'a DemandFilter>,
    /// Derivations discarded by either filter.
    pub(crate) pruned: u64,
    /// Per-exec-slot head-derivation counts (component lifetime).
    pub(crate) pushes: &'a mut [u64],
    pub(crate) map: Derived,
}

/// One buffered derivation of a round: the (possibly already joined)
/// cost, the exec slot of the first rule to derive the key this round
/// (insert-outcome attribution), and whether any contributing push came
/// from a join-fold relaxation.
#[derive(Clone, Debug)]
pub(crate) struct DerivedEntry {
    pub(crate) cost: Option<Value>,
    pub(crate) slot: usize,
    pub(crate) joined: bool,
}

impl DerivedEntry {
    /// Combine another derivation of the same `(pred, key)` in the same
    /// `T_P` application, from the same shard or another one. Attribution
    /// keeps the smallest exec slot: slots fire in ascending order, so that
    /// is the first deriver however the round was sharded. Divergent costs
    /// on a checked run are a Definition 2.6 conflict unless either side
    /// came from a join-fold relaxation, whose partial value the lattice
    /// join resolves (the PreM property); on a conflict the rejected cost
    /// comes back and `self` is left as it was.
    pub(crate) fn combine(
        &mut self,
        other: DerivedEntry,
        program: &Program,
        check: bool,
        pred: Pred,
    ) -> Result<(), Option<Value>> {
        if self.cost != other.cost {
            if check && !self.joined && !other.joined {
                return Err(other.cost);
            }
            let domain = program.cost_spec(pred).map(|c| RuntimeDomain::new(c.domain));
            if let (Some(old), Some(new), Some(d)) = (&self.cost, &other.cost, &domain) {
                self.cost = Some(d.join(old, new));
            }
        }
        self.slot = self.slot.min(other.slot);
        self.joined |= other.joined;
        Ok(())
    }
}

/// Buffer one derivation into `derived`: a new key is inserted, a repeated
/// key combines through [`DerivedEntry::combine`]. This is the one
/// same-key rule, for a shard's own pushes and for the barrier merge of
/// shard buffers alike. Returns whether the key was already buffered.
pub(crate) fn buffer_derivation(
    program: &Program,
    check: bool,
    derived: &mut Derived,
    pred: Pred,
    key: Arc<Tuple>,
    entry: DerivedEntry,
) -> Result<bool, EvalError> {
    use std::collections::hash_map::Entry;
    match derived.entry((pred, key)) {
        Entry::Vacant(slot) => {
            slot.insert(entry);
            Ok(false)
        }
        Entry::Occupied(mut slot) => match slot.get_mut().combine(entry, program, check, pred) {
            Ok(()) => Ok(true),
            Err(rejected) => {
                let show = |cost: &Option<Value>| {
                    cost.as_ref().map(|v| v.display(program)).unwrap_or_default()
                };
                Err(EvalError::CostConflict {
                    pred: program.pred_name(pred),
                    key: render_key(program, &slot.key().1),
                    value_a: show(&slot.get().cost),
                    value_b: show(&rejected),
                })
            }
        },
    }
}

impl<'a> RoundBuffer<'a> {
    pub(crate) fn new(
        program: &'a Program,
        check: bool,
        prune: bool,
        demand: Option<&'a DemandFilter>,
        pushes: &'a mut [u64],
    ) -> Self {
        RoundBuffer {
            program,
            check,
            joining: false,
            current: 0,
            prune,
            demand,
            pruned: 0,
            pushes,
            map: Derived::new(),
        }
    }

    pub(crate) fn push(
        &mut self,
        pred: Pred,
        key: Arc<Tuple>,
        cost: Option<Value>,
    ) -> Result<(), EvalError> {
        self.pushes[self.current] += 1;
        let entry = DerivedEntry {
            cost,
            slot: self.current,
            joined: self.joining,
        };
        buffer_derivation(self.program, self.check, &mut self.map, pred, key, entry).map(drop)
    }
}

pub(crate) fn render_key(program: &Program, key: &Tuple) -> String {
    key.0
        .iter()
        .map(|v| v.display(program))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Report a per-binding provenance event, to a sink that
/// [wants it](EventSink::wants_provenance). For every other sink the call
/// compiles to nothing.
#[inline(always)]
pub(crate) fn note<S: EventSink>(sink: &mut S, event: Event<'_>) {
    if sink.wants_provenance() {
        sink.on(&event);
    }
}

/// The continuation [`exec_steps`] calls once per binding that satisfies
/// every step: [`emit_head`] when firing.
type HeadCont<'a, S> = dyn FnMut(&Binding, &mut S) -> Result<(), EvalError> + 'a;

/// Execute the remaining plan steps under `binding`, calling `head` for
/// each binding that satisfies them all, and reporting matched body
/// tuples and aggregate results to a `sink` that wants provenance.
pub(crate) fn exec_steps<S: EventSink>(
    ctx: &Ctx<'_>,
    rule: &Rule,
    steps: &[Step],
    binding: &mut Binding,
    sink: &mut S,
    head: &mut HeadCont<'_, S>,
) -> Result<(), EvalError> {
    let Some((step, rest)) = steps.split_first() else {
        return head(binding, sink);
    };
    match step {
        Step::Atom { lit, .. } => {
            let Literal::Pos(atom) = &rule.body[*lit] else {
                unreachable!("Atom step on non-positive literal")
            };
            for_each_match(ctx, atom, binding, &mut |b, key, cost| {
                note(sink, Event::Match { pred: atom.pred, key, cost });
                let r = exec_steps(ctx, rule, rest, b, sink, head);
                note(sink, Event::Unmatch);
                r
            })
        }
        Step::Assign {
            lit,
            target,
            target_is_lhs,
        } => {
            let Literal::Builtin(b) = &rule.body[*lit] else {
                unreachable!("Assign step on non-builtin")
            };
            let source = if *target_is_lhs { &b.rhs } else { &b.lhs };
            let Some(value) = eval_expr(source, binding) else {
                return Ok(()); // type mismatch: unsatisfiable
            };
            let mark = binding.trail.len();
            let mut r = Ok(());
            if binding.unify(&Term::Var(*target), &value, values_equal) {
                r = exec_steps(ctx, rule, rest, binding, sink, head);
            }
            binding.undo(mark);
            r
        }
        Step::Test { lit } => {
            let Literal::Builtin(b) = &rule.body[*lit] else {
                unreachable!("Test step on non-builtin")
            };
            let (Some(l), Some(r)) = (eval_expr(&b.lhs, binding), eval_expr(&b.rhs, binding))
            else {
                return Ok(());
            };
            if compare_values(b.op, &l, &r) {
                exec_steps(ctx, rule, rest, binding, sink, head)
            } else {
                Ok(())
            }
        }
        Step::Neg { lit } => {
            let Literal::Neg(atom) = &rule.body[*lit] else {
                unreachable!("Neg step on non-negative literal")
            };
            if atom_holds(ctx, atom, binding) {
                Ok(())
            } else {
                exec_steps(ctx, rule, rest, binding, sink, head)
            }
        }
        Step::Agg {
            lit,
            groupings,
            conjunct_order,
            ..
        } => {
            let Literal::Agg(agg) = &rule.body[*lit] else {
                unreachable!("Agg step on non-aggregate")
            };
            eval_aggregate(
                ctx,
                rule,
                *lit,
                agg,
                groupings,
                conjunct_order,
                binding,
                sink,
                &mut |b, sink| exec_steps(ctx, rule, rest, b, sink, head),
            )
        }
    }
}

pub(crate) fn emit_head<S: EventSink>(
    ctx: &Ctx<'_>,
    rule: &Rule,
    binding: &Binding,
    out: &mut RoundBuffer<'_>,
    sink: &mut S,
) -> Result<(), EvalError> {
    let spec = ctx.program.cost_spec(rule.head.pred);
    let has_cost = spec.is_some();
    let mut key = Vec::with_capacity(rule.head.args.len());
    for t in rule.head.key_args(has_cost) {
        key.push(resolve_term(t, binding).ok_or_else(|| {
            EvalError::Aggregate(format!(
                "unbound head variable in {}",
                ctx.program.display_rule(rule)
            ))
        })?);
    }
    let cost = match (spec, rule.head.cost_arg(has_cost)) {
        (Some(spec), Some(t)) => {
            let raw = resolve_term(t, binding).ok_or_else(|| {
                EvalError::Aggregate(format!(
                    "unbound head cost variable in {}",
                    ctx.program.display_rule(rule)
                ))
            })?;
            let domain = RuntimeDomain::new(spec.domain);
            Some(domain.coerce(raw).map_err(EvalError::Domain)?)
        }
        _ => None,
    };
    let key = Arc::new(Tuple::new(key));
    if let Some(filter) = out.demand {
        if let Some((pos, want)) = filter.get(&rule.head.pred) {
            if !key.0.get(*pos).is_some_and(|v| values_equal(v, want)) {
                out.pruned += 1;
                return Ok(());
            }
        }
    }
    if out.prune {
        if let (Some(new), Some(spec)) = (&cost, spec) {
            if let Some(Some(old)) = ctx.db.relation(rule.head.pred).and_then(|rel| rel.get(&key))
            {
                let domain = RuntimeDomain::new(spec.domain);
                if &domain.join(old, new) == old {
                    out.pruned += 1;
                    return Ok(());
                }
            }
        }
    }
    note(sink, Event::Head { pred: rule.head.pred, key: &key, cost: &cost });
    out.push(rule.head.pred, key, cost)
}

pub(crate) fn resolve_term(t: &Term, binding: &Binding) -> Option<Value> {
    match t {
        Term::Const(c) => Some(Value::from_const(*c)),
        Term::Var(v) => binding.get(*v).cloned(),
    }
}

/// Continuation invoked once per match with the extended binding, the
/// matched key, and its stored cost.
type MatchCont<'a> = dyn FnMut(&mut Binding, &Tuple, &Option<Value>) -> Result<(), EvalError> + 'a;

/// Enumerate matches of `atom` against the database under `binding`,
/// calling `k` for each extension with the matched key and its stored
/// cost. Handles default-value predicates: a fully-keyed lookup that
/// misses the core yields the default cost.
fn for_each_match(
    ctx: &Ctx<'_>,
    atom: &Atom,
    binding: &mut Binding,
    k: &mut MatchCont<'_>,
) -> Result<(), EvalError> {
    let has_cost = ctx.program.is_cost_pred(atom.pred);
    let key_args = atom.key_args(has_cost);
    let key_vals: Vec<Option<Value>> = key_args
        .iter()
        .map(|t| resolve_term(t, binding))
        .collect();
    let all_keys_bound = key_vals.iter().all(Option::is_some);
    // Unify with one stored tuple and continue under the extension.
    let mark = binding.trail.len();
    let mut visit = |binding: &mut Binding, key: &Tuple, cost: &Option<Value>| {
        let r = if unify_atom(atom, has_cost, key, Some(cost), binding) {
            k(binding, key, cost)
        } else {
            Ok(())
        };
        binding.undo(mark);
        r
    };

    // Fast path: fully bound key — direct lookup (with default fallback).
    if all_keys_bound {
        let key = Tuple::new(key_vals.into_iter().map(Option::unwrap).collect());
        let Some(cost) = ctx.db.cost(ctx.program, atom.pred, &key) else {
            return Ok(());
        };
        return visit(binding, &key, &cost);
    }

    let Some(rel) = ctx.db.relation(atom.pred) else {
        return Ok(());
    };

    // Indexed probe on the signature of every bound key position: the
    // postings hold exactly the keys matching all bound positions, so the
    // per-key unification below only confirms (and binds the free
    // positions). Plan-registered signatures hit a warm index; anything
    // else (e.g. aggregate-driver reruns with pre-bound groupings) builds
    // its index lazily. Sig 0 (nothing bound) walks the insertion log
    // directly.
    let mut sig: Sig = 0;
    let mut projection: Vec<Value> = Vec::new();
    for (i, v) in key_vals.iter().enumerate() {
        if let Some(val) = v {
            if i < 32 {
                sig |= 1 << i;
                projection.push(val.clone());
            }
        }
    }
    let postings;
    let candidates: &[Arc<Tuple>] = if sig != 0 {
        match rel.probe(sig, &projection) {
            Some(hits) => {
                postings = hits;
                &postings
            }
            None => return Ok(()),
        }
    } else {
        rel.arc_keys()
    };

    for key in candidates {
        visit(binding, key, rel.get(key).unwrap_or(&None))?;
    }
    Ok(())
}

/// Unify `atom` with a stored tuple: its key arguments with `key` under
/// `==` and, given the stored `cost`, its cost argument with that cost
/// under [`values_equal`] (a missing cost unifies with nothing). Used by
/// [`for_each_match`], and by semi-naive drivers against a delta tuple; a
/// group-discovering driver passes no cost, leaving the cost argument
/// unbound.
pub(crate) fn unify_atom(
    atom: &Atom,
    has_cost: bool,
    key: &Tuple,
    cost: Option<&Option<Value>>,
    binding: &mut Binding,
) -> bool {
    let key_args = atom.key_args(has_cost);
    key_args.len() == key.arity()
        && key_args
            .iter()
            .zip(key.0.iter())
            .all(|(t, v)| binding.unify(t, v, Value::eq))
        && match (cost, atom.cost_arg(has_cost)) {
            (Some(cost), Some(t)) => cost
                .as_ref()
                .is_some_and(|cv| binding.unify(t, cv, values_equal)),
            _ => true,
        }
}

/// Does a ground atom hold in the database (with default fallback)?
fn atom_holds(ctx: &Ctx<'_>, atom: &Atom, binding: &Binding) -> bool {
    let has_cost = ctx.program.is_cost_pred(atom.pred);
    let key: Option<Vec<Value>> = atom
        .key_args(has_cost)
        .iter()
        .map(|t| resolve_term(t, binding))
        .collect();
    let Some(key) = key else { return false };
    let key = Tuple::new(key);
    let Some(cost) = ctx.db.cost(ctx.program, atom.pred, &key) else {
        return false;
    };
    if !has_cost {
        return true;
    }
    let Some(want) = atom
        .cost_arg(true)
        .and_then(|t| resolve_term(t, binding))
    else {
        return false;
    };
    cost.is_some_and(|cv| values_equal(&cv, &want))
}

/// Evaluate the aggregate subgoal: enumerate the conjunction, group, apply
/// the function, and continue per satisfying (grouping, result) binding.
#[allow(clippy::too_many_arguments)]
fn eval_aggregate<S: EventSink>(
    ctx: &Ctx<'_>,
    rule: &Rule,
    lit: usize,
    agg: &maglog_datalog::Aggregate,
    grouping_vars: &[Var],
    conjunct_order: &[usize],
    binding: &mut Binding,
    sink: &mut S,
    k: &mut dyn FnMut(&mut Binding, &mut S) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    // Enumerate all assignments of the conjunction (restricted by the
    // current binding), folding each multiset element straight into its
    // group's streaming accumulator — no per-group element buffering. The
    // fold order per group is the enumeration order, same as before.
    // A provenance sink sees every element, after the conjunct matches
    // that supplied it, and buffers them itself.
    note(sink, Event::AggBegin);
    let mut groups: HashMap<Vec<Value>, aggregate::Accumulator> = HashMap::new();
    {
        let mut scratch = binding.clone();
        enumerate_conjuncts(
            ctx,
            agg,
            conjunct_order,
            0,
            &mut scratch,
            sink,
            &mut |b: &Binding, sink: &mut S| {
                let gv: Vec<Value> = grouping_vars
                    .iter()
                    .map(|v| b.get(*v).cloned().expect("grouping bound at collection"))
                    .collect();
                let element = match agg.multiset_var {
                    Some(e) => b.get(e).cloned().expect("multiset var bound"),
                    None => Value::Bool(true),
                };
                note(sink, Event::AggElement { group: &gv, element: &element });
                groups
                    .entry(gv)
                    .or_insert_with(|| aggregate::Accumulator::new(agg.func))
                    .push(&element);
            },
        )?;
    }

    // For `=` with fully bound groupings, the (possibly empty) group for
    // the bound values must be considered even if no tuple matched.
    let groupings_bound = grouping_vars.iter().all(|v| binding.get(*v).is_some());
    if agg.eq == AggEq::Total {
        if !groupings_bound {
            return Err(EvalError::Aggregate(format!(
                "`=` aggregate with unbound grouping variables in {}",
                ctx.program.display_rule(rule)
            )));
        }
        let gv: Vec<Value> = grouping_vars
            .iter()
            .map(|v| binding.get(*v).cloned().unwrap())
            .collect();
        groups
            .entry(gv)
            .or_insert_with(|| aggregate::Accumulator::new(agg.func));
    }

    ctx.agg.groups.set(ctx.agg.groups.get() + groups.len() as u64);
    let mut elements = 0u64;
    let mut live_bytes =
        (groups.len() * std::mem::size_of::<aggregate::Accumulator>()) as u64;
    for acc in groups.values() {
        elements += acc.count() as u64;
        live_bytes += acc.heap_bytes() as u64;
    }
    ctx.agg.elements.set(ctx.agg.elements.get() + elements);
    ctx.agg
        .peak_bytes
        .set(ctx.agg.peak_bytes.get().max(live_bytes));

    for (gv, acc) in groups {
        let Some(result) = acc.finish() else {
            continue; // undefined (empty avg / type error): unsatisfiable
        };
        // Bind the grouping variables (fresh ones only) and the result.
        let mark = binding.trail.len();
        if grouping_vars
            .iter()
            .zip(&gv)
            .all(|(v, val)| binding.unify(&Term::Var(*v), val, Value::eq))
        {
            let func = agg.func;
            note(sink, Event::AggResult { lit, func, group: &gv, result: &result, partial: false });
            if binding.unify(&agg.result, &result, values_equal) {
                k(binding, sink)?;
            }
        }
        binding.undo(mark);
    }
    note(sink, Event::AggEnd);
    Ok(())
}

/// Enumerate all satisfying assignments of the aggregate's conjunction in
/// the planned order.
pub(crate) fn enumerate_conjuncts<S: EventSink>(
    ctx: &Ctx<'_>,
    agg: &maglog_datalog::Aggregate,
    order: &[usize],
    depth: usize,
    binding: &mut Binding,
    sink: &mut S,
    emit: &mut dyn FnMut(&Binding, &mut S),
) -> Result<(), EvalError> {
    if depth == order.len() {
        emit(binding, sink);
        return Ok(());
    }
    let atom = &agg.conjuncts[order[depth]];
    for_each_match(ctx, atom, binding, &mut |b, key, cost| {
        note(sink, Event::Match { pred: atom.pred, key, cost });
        let r = enumerate_conjuncts(ctx, agg, order, depth + 1, b, sink, emit);
        note(sink, Event::Unmatch);
        r
    })
}

/// Evaluate an arithmetic expression. `None` on unbound variables or type
/// mismatches (the branch is then unsatisfiable).
fn eval_expr(e: &Expr, binding: &Binding) -> Option<Value> {
    match e {
        Expr::Term(t) => resolve_term(t, binding),
        Expr::Neg(inner) => {
            let v = eval_expr(inner, binding)?;
            Some(Value::num(-v.as_f64()?))
        }
        Expr::Bin(op, l, r) => {
            let lv = eval_expr(l, binding)?;
            let rv = eval_expr(r, binding)?;
            let (a, b) = (lv.as_f64()?, rv.as_f64()?);
            let out = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Min => a.min(b),
                BinOp::Max => a.max(b),
                BinOp::Div => {
                    if b == 0.0 {
                        return None;
                    }
                    a / b
                }
            };
            if out.is_nan() {
                None
            } else {
                Some(Value::num(out))
            }
        }
    }
}

/// Structural equality with numeric/boolean bridging (`1 = true`).
pub(crate) fn values_equal(a: &Value, b: &Value) -> bool {
    if a == b {
        return true;
    }
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

fn compare_values(op: CmpOp, a: &Value, b: &Value) -> bool {
    match op {
        CmpOp::Eq => values_equal(a, b),
        CmpOp::Ne => !values_equal(a, b),
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
                return false;
            };
            match op {
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
                _ => unreachable!(),
            }
        }
    }
}
