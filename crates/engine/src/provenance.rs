//! Derivation provenance: who derived what, from which body tuples, and
//! which aggregate elements won the fold.
//!
//! [`ProvenanceSink`] is one more [`EventSink`], composed with the others
//! through [`crate::events::Fanout`]. It asks for the per-binding events
//! ([`EventSink::wants_provenance`]), and from them keeps its own trail
//! of the body tuples the current firing matched, the elements each
//! aggregate group folded with the tuples that supplied them, the stack
//! of aggregate results the firing continues under, and the round's
//! pending heads. When the apply phase accepts a head (a new tuple, or a
//! strict lattice improvement), its pending snapshot is committed as a
//! [`DerivationNode`]. Improvements chain: a key's nodes form its full
//! cost-refinement history down the lattice, and the last node per key is
//! its derivation in the final model, so the committed set is a
//! derivation DAG rooted at the EDB.
//!
//! Every choice among equal candidates — two derivations of one key at
//! the same cost, two elements that each decide a `min`, the sample of a
//! joint fold's elements — follows a canonical order of rule index, body
//! atoms and witness atoms, never the evaluator's hash-map iteration
//! order, so one program always explains the same way.

use crate::aggregate;
use crate::events::{Event, EventSink, InsertOutcome, NoopSink};
use crate::fire::{exec_steps, resolve_term, values_equal, AggCounters, Binding, Ctx};
use crate::plan::{plan_rule, Step};
use crate::interp::{Interp, Tuple};
use crate::jsonish::json_str;
use crate::value::{RuntimeDomain, Value};
use maglog_datalog::{AggEq, AggFunc, Atom, BinOp, CmpOp, Expr, Literal, Pred, Program, Rule, Term, Var};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Cap on recorded witnesses per aggregate group when every element is
/// jointly responsible (`sum`, `count`, …). The total is always recorded.
pub const MAX_JOINT_WITNESSES: usize = 8;

/// One body tuple a derivation joined (a positive subgoal match or an
/// aggregate witness's supporting atom). Ordered by predicate, key, cost:
/// the canonical order of tie-breaks.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct BodyAtom {
    pub pred: Pred,
    pub key: Arc<Tuple>,
    pub cost: Option<Value>,
}

/// The witness record of one aggregate subgoal evaluation.
#[derive(Clone, Debug)]
pub struct AggWitness {
    /// Body literal index of the aggregate in its rule.
    pub lit: usize,
    pub func: AggFunc,
    /// The group's folded result (what the subgoal bound or tested).
    pub result: Value,
    /// Multiset elements folded into the group.
    pub elements: usize,
    /// The element(s) that produced the result, each with the conjunct
    /// tuples that supplied it, in canonical order. A decisive fold
    /// (`min`/`max`/`or`/`and`) records exactly its decisive element;
    /// joint folds record the [`MAX_JOINT_WITNESSES`] least elements.
    pub witnesses: Vec<(Value, Vec<BodyAtom>)>,
    /// How many elements are actually responsible (≥ `witnesses.len()`).
    pub witnesses_total: usize,
    /// True for a join-fold relaxation record: the delta element was
    /// relaxed straight into the head (O(1) semi-naive path), so this
    /// witness is the improving element, not a full group rescan.
    pub partial: bool,
}

/// One accepted derivation: a node of the provenance DAG.
#[derive(Clone, Debug)]
pub struct DerivationNode {
    /// Program rule index.
    pub rule: usize,
    pub pred: Pred,
    pub key: Arc<Tuple>,
    /// The cost the database held *after* applying this derivation (the
    /// lattice join with whatever was there before).
    pub cost: Option<Value>,
    pub component: usize,
    pub round: usize,
    /// False for the key's first derivation, true for each strict
    /// improvement chained after it.
    pub improved: bool,
    /// Positive body tuples joined, in plan execution order.
    pub body: Vec<BodyAtom>,
    /// Aggregate subgoal witnesses, in plan execution order.
    pub aggs: Vec<AggWitness>,
}

/// The committed derivation DAG of one evaluation.
#[derive(Debug, Default)]
pub struct Provenance {
    nodes: Vec<DerivationNode>,
    /// Per (pred, key): indices into `nodes`, in commit order — the cost
    /// refinement chain. The last entry derives the final model's value.
    chains: HashMap<(Pred, Arc<Tuple>), Vec<usize>>,
}

impl Provenance {
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn nodes(&self) -> &[DerivationNode] {
        &self.nodes
    }

    /// The full refinement chain for a key, oldest first.
    pub fn history(&self, pred: Pred, key: &Tuple) -> Vec<&DerivationNode> {
        self.chains
            .get(&(pred, Arc::new(key.clone())))
            .map(|idxs| idxs.iter().map(|&i| &self.nodes[i]).collect())
            .unwrap_or_default()
    }

    /// The derivation of the key's final value (last link of the chain).
    pub fn node(&self, pred: Pred, key: &Tuple) -> Option<&DerivationNode> {
        self.chains
            .get(&(pred, Arc::new(key.clone())))
            .and_then(|idxs| idxs.last())
            .map(|&i| &self.nodes[i])
    }

    /// Estimated heap bytes owned by the committed DAG: node storage,
    /// body/witness vectors, and the per-key chain table. Keys are
    /// `Arc<Tuple>`s shared with the relations that derived them, so they
    /// are *not* counted here (the relation owns them); like the other
    /// `heap_bytes` estimates this stays at or below the allocator's view.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.nodes.capacity() * size_of::<DerivationNode>()
            + self.chains.capacity()
                * (size_of::<(Pred, Arc<Tuple>)>() + size_of::<Vec<usize>>() + 1);
        for idxs in self.chains.values() {
            bytes += idxs.capacity() * size_of::<usize>();
        }
        for node in &self.nodes {
            bytes += node.body.capacity() * size_of::<BodyAtom>();
            bytes += node.aggs.capacity() * size_of::<AggWitness>();
            bytes += node.cost.iter().map(Value::heap_bytes).sum::<usize>();
            for agg in &node.aggs {
                bytes += agg.witnesses.capacity() * size_of::<(Value, Vec<BodyAtom>)>();
                for (value, atoms) in &agg.witnesses {
                    bytes += value.heap_bytes()
                        + atoms.capacity() * size_of::<BodyAtom>();
                }
            }
        }
        bytes
    }

    fn commit(&mut self, node: DerivationNode) {
        let idx = self.nodes.len();
        self.chains
            .entry((node.pred, node.key.clone()))
            .or_default()
            .push(idx);
        self.nodes.push(node);
    }
}

/// One buffered aggregate element with the conjunct tuples that supplied it.
type Element = (Value, Vec<BodyAtom>);

/// One aggregate evaluation in progress.
#[derive(Debug, Default)]
struct Frame {
    /// The trail length at its `AggBegin`.
    mark: usize,
    /// Each group's elements, in push order.
    groups: HashMap<Vec<Value>, Vec<Element>>,
    /// The group result the firing currently continues under.
    result: Option<AggWitness>,
}

/// The canonical order of candidate derivations of one key: rule index,
/// then body atoms, then the aggregate witnesses' atoms.
fn rank(node: &DerivationNode) -> (usize, &[BodyAtom], Vec<&[BodyAtom]>) {
    let witnesses = node.aggs.iter().flat_map(|a| &a.witnesses);
    (node.rule, &node.body, witnesses.map(|(_, atoms)| &atoms[..]).collect())
}

/// The provenance recorder: builds a [`Provenance`] DAG from the events of
/// one evaluation. Read it with [`ProvenanceSink::finish`] once the
/// evaluation returns.
#[derive(Debug)]
pub struct ProvenanceSink<'p> {
    program: &'p Program,
    component: usize,
    round: usize,
    rule: usize,
    /// The body tuples the current firing has matched, in join order.
    trail: Vec<BodyAtom>,
    /// The aggregates being evaluated, outermost first.
    frames: Vec<Frame>,
    /// Each key's best head emission this round, awaiting the apply phase.
    pending: HashMap<(Pred, Arc<Tuple>), DerivationNode>,
    graph: Provenance,
}

impl<'p> ProvenanceSink<'p> {
    pub fn new(program: &'p Program) -> Self {
        ProvenanceSink {
            program,
            component: 0,
            round: 0,
            rule: 0,
            trail: Vec::new(),
            frames: Vec::new(),
            pending: HashMap::new(),
            graph: Provenance::default(),
        }
    }

    pub fn finish(self) -> Provenance {
        self.graph
    }

    /// Record a head emission as its key's pending derivation, unless the
    /// round already holds a better one: a candidate whose cost the lattice
    /// join adopts over this one's, or, at an equal or incomparable cost,
    /// one that comes first in the canonical [`rank`] order.
    fn head(&mut self, pred: Pred, key: &Arc<Tuple>, cost: &Option<Value>) {
        let node = DerivationNode {
            rule: self.rule,
            pred,
            key: key.clone(),
            cost: cost.clone(),
            component: self.component,
            round: self.round,
            improved: false,
            body: self.trail.clone(),
            aggs: self.frames.iter().filter_map(|f| f.result.clone()).collect(),
        };
        if let Some(old) = self.pending.get(&(pred, key.clone())) {
            let (old_wins, new_wins) = match (self.program.cost_spec(pred), &old.cost, cost) {
                (Some(spec), Some(a), Some(b)) => {
                    let joined = RuntimeDomain::new(spec.domain).join(a, b);
                    (joined == *a && joined != *b, joined == *b && joined != *a)
                }
                _ => (false, false),
            };
            if old_wins || !(new_wins || rank(&node) < rank(old)) {
                return;
            }
        }
        self.pending.insert((pred, key.clone()), node);
    }
}

impl EventSink for ProvenanceSink<'_> {
    fn on(&mut self, event: &Event<'_>) {
        match *event {
            Event::ComponentStart { component, .. } => self.component = component,
            Event::RoundStart { round, .. } => self.round = round,
            Event::FireStart { rule } => self.rule = rule,
            Event::Match { pred, key, cost } => self.trail.push(BodyAtom {
                pred,
                key: Arc::new(key.clone()),
                cost: cost.clone(),
            }),
            Event::Unmatch => {
                self.trail.pop();
            }
            Event::AggBegin => self.frames.push(Frame {
                mark: self.trail.len(),
                ..Frame::default()
            }),
            Event::AggElement { group, element } => {
                let frame = self.frames.last_mut().expect("element outside an aggregate");
                let support = self.trail[frame.mark..].to_vec();
                let elements = frame.groups.entry(group.to_vec()).or_default();
                elements.push((element.clone(), support));
            }
            Event::AggResult {
                lit,
                func,
                group,
                result,
                partial,
            } => {
                let frame = self.frames.last_mut().expect("result outside an aggregate");
                let buffered = frame.groups.remove(group).unwrap_or_default();
                let elements = buffered.len();
                let (witnesses, witnesses_total) = select_witnesses(func, result, buffered);
                frame.result = Some(AggWitness {
                    lit,
                    func,
                    result: result.clone(),
                    elements,
                    witnesses,
                    witnesses_total,
                    partial,
                });
            }
            Event::AggEnd => {
                self.frames.pop();
            }
            Event::Head { pred, key, cost } => self.head(pred, key, cost),
            Event::Insert {
                pred,
                key,
                cost,
                outcome,
                ..
            } if outcome != InsertOutcome::Noop => {
                // A key is applied at most once per round, so its pending
                // derivation moves into the DAG.
                if let Some(mut node) = self.pending.remove(&(pred, key.clone())) {
                    node.cost = cost.clone();
                    node.improved = outcome == InsertOutcome::Improved;
                    self.graph.commit(node);
                }
            }
            // Pending heads the round did not accept are stale.
            Event::RoundEnd { .. } => self.pending.clear(),
            _ => {}
        }
    }

    fn wants_provenance(&self) -> bool {
        true
    }
}

/// Select an aggregate group's witnesses from its buffered elements, put
/// in canonical order (supporting atoms, then the element itself): a
/// decisive fold's [`decisive`] element alone, or the
/// [`MAX_JOINT_WITNESSES`] least elements of a joint fold. Returns
/// `(selected, total_responsible)`.
fn select_witnesses(
    func: AggFunc,
    result: &Value,
    mut elements: Vec<Element>,
) -> (Vec<Element>, usize) {
    elements.sort_by(|(a, atoms_a), (b, atoms_b)| atoms_a.cmp(atoms_b).then_with(|| a.cmp(b)));
    match decisive(func, result, elements.iter().map(|(v, _)| v)) {
        Some(i) => (vec![elements.swap_remove(i)], 1),
        None => {
            let total = elements.len();
            elements.truncate(MAX_JOINT_WITNESSES);
            (elements, total)
        }
    }
}

/// The decisive element of a `min`, `max`, `or` or `and` fold of `values`
/// to `result`: the first at which the fold strictly moved to its final
/// value, compared through the fold's own numeric or boolean view. For
/// these folds the result equals one of the elements, and every element
/// before it was strictly worse. `None` for the joint folds, and when the
/// result is still the fold's identity.
fn decisive<'v>(
    func: AggFunc,
    result: &Value,
    mut values: impl Iterator<Item = &'v Value>,
) -> Option<usize> {
    if aggregate::apply(func, &[]).as_ref() == Some(result) {
        return None;
    }
    match func {
        AggFunc::Min | AggFunc::Max => {
            let want = result.as_num()?;
            values.position(|v| v.as_num() == Some(want))
        }
        AggFunc::Or | AggFunc::And => {
            let want = result.as_bool()?;
            values.position(|v| v.as_bool() == Some(want))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Goal parsing
// ---------------------------------------------------------------------

/// A parsed `maglog explain` goal: `pred(arg, ...)`, optionally with the
/// cost as the last argument for cost predicates.
#[derive(Debug)]
pub struct Goal {
    pub pred: Pred,
    pub key: Tuple,
    /// The cost the user asked about, when they supplied one.
    pub cost: Option<Value>,
}

/// Parse a goal fact like `s(a, b)` or `s(a, b, 1)` against the program's
/// declarations. For a cost predicate of declared arity `n`, both the
/// key-only form (`n - 1` args) and the full form (`n` args, last one the
/// cost) are accepted.
pub fn parse_goal(program: &Program, text: &str) -> Result<Goal, String> {
    let text = text.trim();
    let (name, rest) = text
        .split_once('(')
        .ok_or_else(|| format!("goal '{text}' is not of the form pred(arg, ...)"))?;
    let name = name.trim();
    let inner = rest
        .strip_suffix(')')
        .ok_or_else(|| format!("goal '{text}' is missing the closing ')'"))?;
    let pred = program
        .find_pred(name)
        .ok_or_else(|| format!("unknown predicate '{name}'"))?;
    let args: Vec<Value> = if inner.trim().is_empty() {
        Vec::new()
    } else {
        inner
            .split(',')
            .map(|a| parse_goal_value(program, a.trim()))
            .collect()
    };
    let declared = program.arity(pred).unwrap_or(args.len());
    let key_arity = if program.is_cost_pred(pred) {
        declared - 1
    } else {
        declared
    };
    if args.len() == key_arity {
        return Ok(Goal {
            pred,
            key: Tuple::new(args),
            cost: None,
        });
    }
    if program.is_cost_pred(pred) && args.len() == declared {
        let mut args = args;
        let cost = args.pop();
        return Ok(Goal {
            pred,
            key: Tuple::new(args),
            cost,
        });
    }
    Err(format!(
        "'{name}' takes {key_arity} key argument(s){}; goal has {}",
        if program.is_cost_pred(pred) {
            " (plus an optional cost)"
        } else {
            ""
        },
        args.len()
    ))
}

/// Parse one goal argument: a number, else an interned symbol.
pub fn parse_goal_value(program: &Program, text: &str) -> Value {
    match text.parse::<f64>() {
        Ok(n) if !n.is_nan() => Value::num(n),
        _ => Value::Sym(program.symbols.intern(text)),
    }
}

// ---------------------------------------------------------------------
// Explain trees
// ---------------------------------------------------------------------

/// A depth-bounded rendering-ready derivation tree for one fact.
#[derive(Debug)]
pub struct ExplainNode {
    pub pred: String,
    pub args: Vec<String>,
    /// Final cost in the model, rendered (None for non-cost predicates).
    pub cost: Option<String>,
    pub kind: ExplainKind,
}

#[derive(Debug)]
pub enum ExplainKind {
    /// Present with no recorded derivation: an EDB / inline fact (or a
    /// default-value tuple).
    Input,
    /// Not in the final model at all.
    Missing,
    /// Already expanded higher up this branch (the DAG loops through the
    /// component; the cost chain is still well-founded).
    Cycle,
    /// The depth bound cut expansion here.
    Truncated,
    Derived {
        rule: usize,
        rule_text: String,
        component: usize,
        round: usize,
        /// Earlier committed costs for this key, oldest first (the
        /// refinement chain before the final value).
        history: Vec<String>,
        body: Vec<ExplainNode>,
        aggs: Vec<ExplainAgg>,
    },
}

#[derive(Debug)]
pub struct ExplainAgg {
    pub func: String,
    pub result: String,
    pub elements: usize,
    pub partial: bool,
    pub witnesses_total: usize,
    pub witnesses: Vec<(String, Vec<ExplainNode>)>,
}

/// Build the depth-bounded derivation tree of `pred(key)` from a captured
/// provenance DAG and the final model database.
pub fn explain_tree(
    program: &Program,
    prov: &Provenance,
    db: &Interp,
    pred: Pred,
    key: &Tuple,
    depth: usize,
) -> ExplainNode {
    let mut path: Vec<(Pred, Tuple)> = Vec::new();
    build_node(program, prov, db, pred, key, depth, &mut path)
}

fn atom_parts(program: &Program, pred: Pred, key: &Tuple) -> (String, Vec<String>) {
    (
        program.pred_name(pred),
        key.0.iter().map(|v| v.display(program)).collect(),
    )
}

fn build_node(
    program: &Program,
    prov: &Provenance,
    db: &Interp,
    pred: Pred,
    key: &Tuple,
    depth: usize,
    path: &mut Vec<(Pred, Tuple)>,
) -> ExplainNode {
    let (name, args) = atom_parts(program, pred, key);
    let present = db.cost(program, pred, key);
    let cost = present
        .clone()
        .flatten()
        .map(|v| v.display(program));
    let mut node = ExplainNode {
        pred: name,
        args,
        cost,
        kind: ExplainKind::Input,
    };
    if present.is_none() {
        node.kind = ExplainKind::Missing;
        return node;
    }
    let chain = prov.history(pred, key);
    let Some(last) = chain.last() else {
        return node; // input leaf (EDB, inline fact, or default value)
    };
    if path.iter().any(|(p, k)| *p == pred && k == key) {
        node.kind = ExplainKind::Cycle;
        return node;
    }
    if depth == 0 {
        node.kind = ExplainKind::Truncated;
        return node;
    }
    path.push((pred, key.clone()));
    let body = last
        .body
        .iter()
        .map(|b| build_node(program, prov, db, b.pred, &b.key, depth - 1, path))
        .collect();
    let aggs = last
        .aggs
        .iter()
        .map(|w| ExplainAgg {
            func: w.func.name().to_string(),
            result: w.result.display(program),
            elements: w.elements,
            partial: w.partial,
            witnesses_total: w.witnesses_total,
            witnesses: w
                .witnesses
                .iter()
                .map(|(elem, atoms)| {
                    (
                        elem.display(program),
                        atoms
                            .iter()
                            .map(|b| {
                                build_node(program, prov, db, b.pred, &b.key, depth - 1, path)
                            })
                            .collect(),
                    )
                })
                .collect(),
        })
        .collect();
    path.pop();
    let history = chain[..chain.len() - 1]
        .iter()
        .map(|n| {
            n.cost
                .as_ref()
                .map(|v| v.display(program))
                .unwrap_or_else(|| "true".into())
        })
        .collect();
    node.kind = ExplainKind::Derived {
        rule: last.rule,
        rule_text: program.display_rule(&program.rules[last.rule]),
        component: last.component,
        round: last.round,
        history,
        body,
        aggs,
    };
    node
}

impl ExplainNode {
    fn atom_text(&self) -> String {
        let head = if self.args.is_empty() {
            self.pred.clone()
        } else {
            format!("{}({})", self.pred, self.args.join(", "))
        };
        match &self.cost {
            Some(c) => format!("{head} = {c}"),
            None => head,
        }
    }
}

/// Render the tree as indented human-readable text.
pub fn render_explain_human(node: &ExplainNode) -> String {
    let mut out = String::new();
    render_human_node(&mut out, node, 0);
    out
}

fn indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn render_human_node(out: &mut String, node: &ExplainNode, level: usize) {
    indent(out, level);
    out.push_str(&node.atom_text());
    match &node.kind {
        ExplainKind::Input => out.push_str("  [input]\n"),
        ExplainKind::Missing => out.push_str("  [not in the model]\n"),
        ExplainKind::Cycle => out.push_str("  [cycle: expanded above]\n"),
        ExplainKind::Truncated => out.push_str("  [depth limit]\n"),
        ExplainKind::Derived {
            rule,
            rule_text,
            component,
            round,
            history,
            body,
            aggs,
        } => {
            out.push('\n');
            indent(out, level + 1);
            out.push_str(&format!(
                "via rule {rule}: {rule_text}  [component {component}, round {round}]"
            ));
            if !history.is_empty() {
                out.push_str(&format!(
                    "  (refined: {} \u{2192} final)",
                    history.join(" \u{2192} ")
                ));
            }
            out.push('\n');
            for child in body {
                render_human_node(out, child, level + 2);
            }
            for agg in aggs {
                indent(out, level + 2);
                out.push_str(&format!(
                    "{} over {} element(s) = {}{}",
                    agg.func,
                    agg.elements,
                    agg.result,
                    if agg.partial { "  [delta relaxation]" } else { "" }
                ));
                if agg.witnesses_total > agg.witnesses.len() {
                    out.push_str(&format!(
                        "  ({} of {} witnesses shown)",
                        agg.witnesses.len(),
                        agg.witnesses_total
                    ));
                }
                out.push('\n');
                for (elem, atoms) in &agg.witnesses {
                    indent(out, level + 3);
                    out.push_str(&format!("witness element {elem}:\n"));
                    for a in atoms {
                        render_human_node(out, a, level + 4);
                    }
                }
            }
        }
    }
}

/// Render the tree as a `maglog-explain-v1` JSON document.
pub fn render_explain_json(path: &str, goal: &str, node: &ExplainNode, depth: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"maglog-explain-v1\",\n");
    out.push_str(&format!("  \"program\": {},\n", json_str(path)));
    out.push_str("  \"mode\": \"why\",\n");
    out.push_str(&format!("  \"goal\": {},\n", json_str(goal)));
    out.push_str(&format!(
        "  \"found\": {},\n",
        !matches!(node.kind, ExplainKind::Missing)
    ));
    out.push_str(&format!("  \"depth\": {depth},\n"));
    out.push_str("  \"tree\": ");
    render_json_node(&mut out, node, 1);
    out.push_str("\n}\n");
    out
}

fn render_json_node(out: &mut String, node: &ExplainNode, level: usize) {
    let pad = "  ".repeat(level);
    let inner = "  ".repeat(level + 1);
    out.push_str("{\n");
    out.push_str(&format!("{inner}\"atom\": {},\n", json_str(&node.atom_text())));
    out.push_str(&format!("{inner}\"pred\": {},\n", json_str(&node.pred)));
    let args: Vec<String> = node.args.iter().map(|a| json_str(a)).collect();
    out.push_str(&format!("{inner}\"args\": [{}],\n", args.join(", ")));
    out.push_str(&format!(
        "{inner}\"cost\": {},\n",
        node.cost.as_deref().map(json_str).unwrap_or_else(|| "null".into())
    ));
    let kind = match &node.kind {
        ExplainKind::Input => "input",
        ExplainKind::Missing => "missing",
        ExplainKind::Cycle => "cycle",
        ExplainKind::Truncated => "depth-limit",
        ExplainKind::Derived { .. } => "derived",
    };
    out.push_str(&format!("{inner}\"kind\": {}", json_str(kind)));
    if let ExplainKind::Derived {
        rule,
        rule_text,
        component,
        round,
        history,
        body,
        aggs,
    } = &node.kind
    {
        out.push_str(",\n");
        out.push_str(&format!("{inner}\"rule\": {rule},\n"));
        out.push_str(&format!("{inner}\"rule_text\": {},\n", json_str(rule_text)));
        out.push_str(&format!("{inner}\"component\": {component},\n"));
        out.push_str(&format!("{inner}\"round\": {round},\n"));
        let hist: Vec<String> = history.iter().map(|h| json_str(h)).collect();
        out.push_str(&format!("{inner}\"history\": [{}],\n", hist.join(", ")));
        out.push_str(&format!("{inner}\"body\": ["));
        for (i, child) in body.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            render_json_node(out, child, level + 1);
        }
        out.push_str("],\n");
        out.push_str(&format!("{inner}\"aggregates\": ["));
        for (i, agg) in aggs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\n");
            let apad = "  ".repeat(level + 2);
            out.push_str(&format!("{apad}\"func\": {},\n", json_str(&agg.func)));
            out.push_str(&format!("{apad}\"result\": {},\n", json_str(&agg.result)));
            out.push_str(&format!("{apad}\"elements\": {},\n", agg.elements));
            out.push_str(&format!("{apad}\"partial\": {},\n", agg.partial));
            out.push_str(&format!(
                "{apad}\"witnesses_total\": {},\n",
                agg.witnesses_total
            ));
            out.push_str(&format!("{apad}\"witnesses\": ["));
            for (j, (elem, atoms)) in agg.witnesses.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{{\"element\": {}, \"atoms\": [", json_str(elem)));
                for (k, a) in atoms.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    render_json_node(out, a, level + 2);
                }
                out.push_str("]}");
            }
            out.push_str("]\n");
            out.push_str(&format!("{inner}}}"));
        }
        out.push(']');
    }
    out.push('\n');
    out.push_str(&format!("{pad}}}"));
}

/// Render the tree as a graphviz digraph (`--format=dot`). Edges point
/// from each derived fact to its supports; witness edges are dashed.
pub fn render_explain_dot(node: &ExplainNode) -> String {
    let mut out = String::new();
    out.push_str("digraph explain {\n");
    out.push_str("  rankdir=\"LR\";\n");
    out.push_str("  node [shape=box, fontname=\"monospace\"];\n");
    let mut counter = 0usize;
    render_dot_node(&mut out, node, &mut counter);
    out.push_str("}\n");
    out
}

fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Emit this node (returns its id) and recursively its children.
fn render_dot_node(out: &mut String, node: &ExplainNode, counter: &mut usize) -> usize {
    let id = *counter;
    *counter += 1;
    let suffix = match &node.kind {
        ExplainKind::Input => "\\n[input]",
        ExplainKind::Missing => "\\n[missing]",
        ExplainKind::Cycle => "\\n[cycle]",
        ExplainKind::Truncated => "\\n[depth limit]",
        ExplainKind::Derived { .. } => "",
    };
    out.push_str(&format!(
        "  n{id} [label=\"{}{suffix}\"];\n",
        dot_escape(&node.atom_text())
    ));
    if let ExplainKind::Derived { rule, body, aggs, .. } = &node.kind {
        for child in body {
            let cid = render_dot_node(out, child, counter);
            out.push_str(&format!("  n{id} -> n{cid} [label=\"rule {rule}\"];\n"));
        }
        for agg in aggs {
            for (elem, atoms) in &agg.witnesses {
                for a in atoms {
                    let cid = render_dot_node(out, a, counter);
                    out.push_str(&format!(
                        "  n{id} -> n{cid} [style=dashed, label=\"{} witness {}\"];\n",
                        agg.func,
                        dot_escape(elem)
                    ));
                }
            }
        }
    }
    id
}

// ---------------------------------------------------------------------
// Why-not reports
// ---------------------------------------------------------------------

/// Why an absent fact could not be derived: one probe per candidate rule.
#[derive(Debug)]
pub struct WhyNotReport {
    pub goal: String,
    /// `Some(cost)` when the key *is* in the model (so the question is a
    /// cost mismatch, not absence).
    pub present: Option<Option<String>>,
    pub rules: Vec<RuleProbe>,
}

/// The outcome of probing one rule against the final model.
#[derive(Debug)]
pub struct RuleProbe {
    pub rule: usize,
    pub rule_text: String,
    /// Did the head unify with the goal constants?
    pub unified: bool,
    /// Plan steps the probe satisfied along its deepest prefix.
    pub reached: usize,
    pub total: usize,
    /// The first subgoal no binding could get past, rendered with the
    /// bindings that reached it.
    pub failed: Option<String>,
    /// The probe satisfied the whole body: the rule derives the key (at
    /// this cost) — the goal differs only in its cost argument.
    pub derivable: Option<String>,
}

/// Render a why-not report for humans.
pub fn render_why_not_human(report: &WhyNotReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("why not {}?\n", report.goal));
    if let Some(cost) = &report.present {
        match cost {
            Some(c) => out.push_str(&format!(
                "  the key IS in the model, with cost {c} (the goal asked about a \
                 different value)\n"
            )),
            None => out.push_str("  the fact IS in the model\n"),
        }
    }
    if report.rules.is_empty() {
        out.push_str("  no rule has a matching head predicate (EDB-only)\n");
    }
    for probe in &report.rules {
        out.push_str(&format!("  rule {}: {}\n", probe.rule, probe.rule_text));
        if !probe.unified {
            out.push_str("    head does not unify with the goal\n");
            continue;
        }
        if let Some(cost) = &probe.derivable {
            out.push_str(&format!(
                "    body satisfiable: derives the key with cost {cost}\n"
            ));
            continue;
        }
        match &probe.failed {
            Some(desc) => out.push_str(&format!(
                "    fails at subgoal {} of {}: {desc}\n",
                probe.reached + 1,
                probe.total
            )),
            None => out.push_str("    body unsatisfiable\n"),
        }
    }
    out
}

/// Render a why-not report as `maglog-explain-v1` JSON (`"mode": "why-not"`).
pub fn render_why_not_json(path: &str, report: &WhyNotReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"maglog-explain-v1\",\n");
    out.push_str(&format!("  \"program\": {},\n", json_str(path)));
    out.push_str("  \"mode\": \"why-not\",\n");
    out.push_str(&format!("  \"goal\": {},\n", json_str(&report.goal)));
    out.push_str(&format!("  \"found\": {},\n", report.present.is_some()));
    out.push_str(&format!(
        "  \"present_cost\": {},\n",
        match &report.present {
            Some(Some(c)) => json_str(c),
            Some(None) => "true".into(),
            None => "null".into(),
        }
    ));
    out.push_str("  \"rules\": [");
    for (i, probe) in report.rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n");
        out.push_str(&format!("      \"rule\": {},\n", probe.rule));
        out.push_str(&format!(
            "      \"rule_text\": {},\n",
            json_str(&probe.rule_text)
        ));
        out.push_str(&format!("      \"unifies\": {},\n", probe.unified));
        out.push_str(&format!("      \"reached\": {},\n", probe.reached));
        out.push_str(&format!("      \"total\": {},\n", probe.total));
        out.push_str(&format!(
            "      \"failed_subgoal\": {},\n",
            probe.failed.as_deref().map(json_str).unwrap_or_else(|| "null".into())
        ));
        out.push_str(&format!(
            "      \"derivable_cost\": {}\n",
            probe
                .derivable
                .as_deref()
                .map(json_str)
                .unwrap_or_else(|| "null".into())
        ));
        out.push_str("    }");
    }
    out.push_str("\n  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Why-not probing
// ---------------------------------------------------------------------

/// Probe every rule whose head predicate matches an absent (or
/// differently-costed) goal against the *final* model: unify the head with
/// the goal constants, then walk the rule's plan recording the deepest
/// subgoal any binding reached — the first failing subgoal is the why-not
/// answer.
pub fn why_not(program: &Program, db: &Interp, goal: &Goal) -> WhyNotReport {
    let goal_text = format!(
        "{}({})",
        program.pred_name(goal.pred),
        goal.key
            .0
            .iter()
            .map(|v| v.display(program))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let present = db
        .cost(program, goal.pred, &goal.key)
        .map(|c| c.map(|v| v.display(program)));
    let counters = AggCounters::default();
    let ctx = Ctx {
        program,
        db,
        agg: &counters,
    };
    let has_cost = program.is_cost_pred(goal.pred);
    let mut rules = Vec::new();
    for (ri, rule) in program.rules.iter().enumerate() {
        if rule.head.pred != goal.pred {
            continue;
        }
        let rule_text = program.display_rule(rule);
        let mut binding = Binding::new();
        let key_args = rule.head.key_args(has_cost);
        let unified = key_args.len() == goal.key.arity()
            && key_args
                .iter()
                .zip(goal.key.0.iter())
                .all(|(t, val)| binding.unify(t, val, values_equal));
        if !unified {
            rules.push(RuleProbe {
                rule: ri,
                rule_text,
                unified: false,
                reached: 0,
                total: 0,
                failed: None,
                derivable: None,
            });
            continue;
        }
        let seed: BTreeSet<Var> = binding.map.keys().copied().collect();
        let plan = match plan_rule(program, rule, &seed, None) {
            Ok(p) => p,
            Err(e) => {
                rules.push(RuleProbe {
                    rule: ri,
                    rule_text,
                    unified: true,
                    reached: 0,
                    total: 0,
                    failed: Some(format!("(unplannable: {e})")),
                    derivable: None,
                });
                continue;
            }
        };
        // Run the firing interpreter on ever longer plan prefixes, each from
        // the head-unified binding, keeping the first binding (in DFS order)
        // that satisfies the prefix. The deepest satisfiable prefix is
        // `reached`; a prefix that fails (e.g. a `=` aggregate whose
        // groupings the goal left unbound) is one no binding got past.
        let total = plan.steps.len();
        let mut reached = 0;
        let mut witness = binding.clone();
        while reached < total {
            let mut first = None;
            let ran = exec_steps(
                &ctx,
                rule,
                &plan.steps[..=reached],
                &mut binding.clone(),
                &mut NoopSink,
                &mut |b, _| {
                    first.get_or_insert_with(|| b.clone());
                    Ok(())
                },
            );
            match (ran, first) {
                (Ok(()), Some(b)) => {
                    reached += 1;
                    witness = b;
                }
                _ => break,
            }
        }
        let failed = plan.steps.get(reached);
        let derivable = failed.is_none().then(|| {
            rule.head
                .cost_arg(has_cost)
                .and_then(|t| resolve_term(t, &witness))
                .map_or_else(|| "true".to_string(), |v| v.display(program))
        });
        rules.push(RuleProbe {
            rule: ri,
            rule_text,
            unified: true,
            reached,
            total,
            failed: failed.map(|step| describe_step(program, rule, step, &witness)),
            derivable,
        });
    }
    WhyNotReport {
        goal: goal_text,
        present,
        rules,
    }
}

fn describe_step(program: &Program, rule: &Rule, step: &Step, binding: &Binding) -> String {
    subst_literal(program, &rule.body[step.lit()], binding)
}

/// Render a term with the probe's current bindings substituted in.
fn subst_term(program: &Program, t: &Term, binding: &Binding) -> String {
    match t {
        Term::Const(c) => Value::from_const(*c).display(program),
        Term::Var(v) => match binding.get(*v) {
            Some(val) => val.display(program),
            None => program.var_name(*v),
        },
    }
}

fn subst_atom(program: &Program, atom: &Atom, binding: &Binding) -> String {
    format!(
        "{}({})",
        program.pred_name(atom.pred),
        atom.args
            .iter()
            .map(|t| subst_term(program, t, binding))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

fn subst_expr(program: &Program, e: &Expr, binding: &Binding) -> String {
    match e {
        Expr::Term(t) => subst_term(program, t, binding),
        Expr::Neg(inner) => format!("-({})", subst_expr(program, inner, binding)),
        Expr::Bin(op, l, r) => {
            let ls = subst_expr(program, l, binding);
            let rs = subst_expr(program, r, binding);
            match op {
                BinOp::Add => format!("{ls} + {rs}"),
                BinOp::Sub => format!("{ls} - {rs}"),
                BinOp::Mul => format!("{ls} * {rs}"),
                BinOp::Div => format!("{ls} / {rs}"),
                BinOp::Min => format!("min({ls}, {rs})"),
                BinOp::Max => format!("max({ls}, {rs})"),
            }
        }
    }
}

fn subst_literal(program: &Program, lit: &Literal, binding: &Binding) -> String {
    match lit {
        Literal::Pos(a) => subst_atom(program, a, binding),
        Literal::Neg(a) => format!("! {}", subst_atom(program, a, binding)),
        Literal::Builtin(b) => {
            let op = match b.op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "!=",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            format!(
                "{} {op} {}",
                subst_expr(program, &b.lhs, binding),
                subst_expr(program, &b.rhs, binding)
            )
        }
        Literal::Agg(agg) => {
            let eq = match agg.eq {
                AggEq::Total => "=",
                AggEq::Restricted => "=r",
            };
            let mvar = agg
                .multiset_var
                .map(|v| format!(" {}", program.var_name(v)))
                .unwrap_or_default();
            let conj: Vec<String> = agg
                .conjuncts
                .iter()
                .map(|a| subst_atom(program, a, binding))
                .collect();
            let conj = if conj.len() == 1 {
                conj[0].clone()
            } else {
                format!("[{}]", conj.join(", "))
            };
            format!(
                "{} {eq} {}{mvar} : {conj}",
                subst_term(program, &agg.result, binding),
                agg.func.name()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maglog_datalog::parse_program;

    #[test]
    fn goal_parsing_accepts_key_and_full_forms() {
        let p = parse_program(
            "declare pred s/3 cost min_real.\ns(a, b, 1).\ne(a, b).\n",
        )
        .unwrap();
        let g = parse_goal(&p, "s(a, b)").unwrap();
        assert_eq!(g.key.arity(), 2);
        assert!(g.cost.is_none());
        let g = parse_goal(&p, "s(a, b, 1)").unwrap();
        assert_eq!(g.key.arity(), 2);
        assert_eq!(g.cost, Some(Value::num(1.0)));
        let g = parse_goal(&p, "e(a, b)").unwrap();
        assert_eq!(g.key.arity(), 2);
        assert!(parse_goal(&p, "s(a)").is_err());
        assert!(parse_goal(&p, "nosuch(a)").is_err());
        assert!(parse_goal(&p, "s a b").is_err());
    }

    #[test]
    fn witness_selection_caps_joint_folds_in_canonical_order() {
        let p = parse_program("e(a).").unwrap();
        let e = p.find_pred("e").unwrap();
        let atom = |i: usize| BodyAtom {
            pred: e,
            key: Arc::new(Tuple::new(vec![Value::num(i as f64)])),
            cost: None,
        };
        // Buffered in reverse: selection sorts by supporting atoms.
        let buffered: Vec<Element> = (0..20)
            .rev()
            .map(|i| (Value::num(i as f64), vec![atom(i)]))
            .collect();
        let (sel, total) = select_witnesses(AggFunc::Min, &Value::num(0.0), buffered.clone());
        assert_eq!((sel.len(), total), (1, 1));
        assert_eq!(sel[0], (Value::num(0.0), vec![atom(0)]));
        let (sel, total) = select_witnesses(AggFunc::Count, &Value::num(20.0), buffered);
        assert_eq!(total, 20);
        let firsts: Vec<Value> = sel.into_iter().map(|(v, _)| v).collect();
        let least: Vec<Value> = (0..MAX_JOINT_WITNESSES).map(|i| Value::num(i as f64)).collect();
        assert_eq!(firsts, least);
    }

    #[test]
    fn decisive_element_is_the_first_to_reach_the_result() {
        let decided = |func, values: &[Value]| {
            let result = aggregate::apply(func, values).unwrap();
            decisive(func, &result, values.iter())
        };
        let nums = |vs: &[f64]| vs.iter().map(|&v| Value::num(v)).collect::<Vec<_>>();
        let (t, f) = (Value::Bool(true), Value::Bool(false));
        // min: the first strict improvement to the result; later ties do
        // not steal it.
        assert_eq!(decided(AggFunc::Min, &nums(&[3.0, 1.0, 2.0, 1.0])), Some(1));
        assert_eq!(decided(AggFunc::Max, &nums(&[3.0, 5.0, 5.0])), Some(1));
        // or: the first true; an all-false fold is still its identity.
        assert_eq!(decided(AggFunc::Or, &[f.clone(), t.clone(), t.clone()]), Some(1));
        assert_eq!(decided(AggFunc::Or, std::slice::from_ref(&f)), None);
        assert_eq!(decided(AggFunc::And, &[t, f]), Some(1));
        // Joint folds never name one element.
        assert_eq!(decided(AggFunc::Sum, &nums(&[1.0, 2.0])), None);
    }
}
