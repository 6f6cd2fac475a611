//! Aggregate function application (Definition 2.4 + Figure 1).
//!
//! [`Accumulator`] folds a finite multiset of cost values into the
//! aggregate's result one element at a time, so group enumeration can
//! stream elements instead of buffering each group in a `Vec`. [`apply`]
//! is the one-shot form over a slice. Empty multisets are meaningful only
//! for the `=` subgoal form; each function's `F(∅)` is the bottom of its
//! monotonic range (so that `=`-aggregation over an empty group stays
//! monotone), except `avg`, whose mean of nothing is undefined — an
//! `=`-aggregate over an empty group with `avg` is simply unsatisfiable.
//!
//! The fold is left-to-right in push order, exactly matching the previous
//! buffered evaluation (IEEE-754 addition order is preserved bit for bit).

use crate::value::Value;
use maglog_datalog::AggFunc;
use maglog_lattice::Real;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Streaming state of one group's aggregate.
#[derive(Clone, Debug)]
pub struct Accumulator {
    func: AggFunc,
    /// Elements pushed so far (`count` and the `avg` divisor).
    count: usize,
    state: State,
    /// Push index of the element that alone determines the current value
    /// (first argmin/argmax, first decisive boolean); `None` when every
    /// element contributes (`sum`, `count`, ties on the initial bound, a
    /// boolean fold that never left its identity).
    winner: Option<usize>,
}

#[derive(Clone, Debug)]
enum State {
    Num(Real),
    Bool(bool),
    Union(BTreeSet<Value>),
    /// `None` until the first operand (intersect(∅) is undefined here —
    /// the caller substitutes the domain bottom when one is declared).
    Intersect(Option<BTreeSet<Value>>),
    /// A type error the static checks did not cover (unchecked programs):
    /// the result is undefined.
    Undefined,
}

impl Accumulator {
    pub fn new(func: AggFunc) -> Self {
        let state = match func {
            AggFunc::Count => State::Num(Real::ZERO),
            AggFunc::Min => State::Num(Real::INFINITY),
            AggFunc::Max => State::Num(Real::NEG_INFINITY),
            AggFunc::Sum | AggFunc::HalfSum | AggFunc::Avg => State::Num(Real::ZERO),
            AggFunc::Product => State::Num(Real::new(1.0)),
            AggFunc::And => State::Bool(true),
            AggFunc::Or => State::Bool(false),
            AggFunc::Union => State::Union(BTreeSet::new()),
            AggFunc::Intersect => State::Intersect(None),
        };
        Accumulator {
            func,
            count: 0,
            state,
            winner: None,
        }
    }

    /// Number of multiset elements folded so far (profiler telemetry and
    /// the `avg` divisor).
    pub fn count(&self) -> usize {
        self.count
    }

    /// The aggregate function this accumulator folds.
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// Push index of the single element that determines the current value
    /// — the first argmin/argmax for `min`/`max`, the first `true` of a
    /// true `or`, the first `false` of a false `and`. `None` means every
    /// pushed element is jointly responsible (`sum`, `count`, `avg`,
    /// `product`, set folds, or a fold still at its identity). Tracking is
    /// observation-only: the fold itself is bit-for-bit unchanged.
    pub fn winner(&self) -> Option<usize> {
        self.winner
    }

    /// Estimated heap bytes owned by the streaming state — zero for the
    /// scalar folds, the working set for `union`/`intersect`. The
    /// `Accumulator` struct itself is counted by the owner.
    pub fn heap_bytes(&self) -> usize {
        let set_bytes = |s: &BTreeSet<Value>| {
            s.iter()
                .map(|v| std::mem::size_of::<Value>() + v.heap_bytes())
                .sum::<usize>()
        };
        match &self.state {
            State::Union(s) => set_bytes(s),
            State::Intersect(Some(s)) => set_bytes(s),
            _ => 0,
        }
    }

    /// Fold one multiset element into the running state.
    pub fn push(&mut self, v: &Value) {
        let idx = self.count;
        self.count += 1;
        match (&mut self.state, self.func) {
            (State::Undefined, _) => {}
            (_, AggFunc::Count) => {} // count ignores element types
            (State::Num(acc), func) => match v.as_num() {
                Some(n) => {
                    match func {
                        AggFunc::Min if n < *acc => self.winner = Some(idx),
                        AggFunc::Max if n > *acc => self.winner = Some(idx),
                        _ => {}
                    }
                    *acc = match func {
                        AggFunc::Min => (*acc).min(n),
                        AggFunc::Max => (*acc).max(n),
                        AggFunc::Sum | AggFunc::HalfSum | AggFunc::Avg => *acc + n,
                        AggFunc::Product => Real::new(acc.get() * n.get()),
                        _ => unreachable!("numeric state on non-numeric func"),
                    };
                }
                None => self.state = State::Undefined,
            },
            (State::Bool(acc), func) => match v.as_bool() {
                Some(b) => {
                    match func {
                        AggFunc::Or if b && !*acc => self.winner = Some(idx),
                        AggFunc::And if !b && *acc => self.winner = Some(idx),
                        _ => {}
                    }
                    *acc = match func {
                        AggFunc::And => *acc && b,
                        AggFunc::Or => *acc || b,
                        _ => unreachable!("boolean state on non-boolean func"),
                    };
                }
                None => self.state = State::Undefined,
            },
            (State::Union(acc), _) => match v.as_set() {
                Some(s) => acc.extend(s.iter().cloned()),
                None => self.state = State::Undefined,
            },
            (State::Intersect(acc), _) => match (v.as_set(), acc) {
                (Some(s), Some(out)) => out.retain(|x| s.contains(x)),
                (Some(s), acc @ None) => *acc = Some(s.clone()),
                (None, _) => self.state = State::Undefined,
            },
        }
    }

    /// Combine a partial fold into this one: `a.merge(b)` leaves `a` in
    /// the state it would have reached had `b`'s elements been pushed
    /// after `a`'s, in `b`'s push order. This is the `merge` half of the
    /// create/process/**merge**/convert interface: folds of two partitions
    /// of a multiset combine into the fold of the whole.
    ///
    /// Exactness: for the lattice folds (`min`/`max`/`and`/`or`/`union`/
    /// `intersect`) and `count`, merge is *bit-for-bit* equal to the
    /// sequential fold, and associative/commutative (idempotent too,
    /// ignoring `count`'s divisor — see the law tests). For the additive
    /// folds (`sum`/`halfsum`/`avg`/`product`) merge adds/multiplies the
    /// partial states, which reassociates IEEE-754 operations: equal to
    /// the sequential fold up to float rounding, exact on integral data.
    /// The sharded evaluator therefore never splits one group's fold
    /// across shards (groups are always folded whole, in enumeration
    /// order), and the lattice-law tests certify the algebra.
    ///
    /// Winner attribution shifts `other`'s indices by `self.count`, so
    /// provenance witnesses keep pointing at the decisive element of the
    /// concatenated push sequence.
    pub fn merge(&mut self, other: Accumulator) {
        debug_assert_eq!(self.func, other.func, "merge requires matching functions");
        let offset = self.count;
        self.count += other.count;
        if matches!(self.func, AggFunc::Count) {
            return; // count ignores element types; the divisor is merged
        }
        match (&mut self.state, other.state) {
            (State::Undefined, _) => {}
            (s, State::Undefined) => *s = State::Undefined,
            (State::Num(a), State::Num(b)) => match self.func {
                AggFunc::Min => {
                    if b < *a {
                        *a = b;
                        self.winner = other.winner.map(|i| i + offset);
                    }
                }
                AggFunc::Max => {
                    if b > *a {
                        *a = b;
                        self.winner = other.winner.map(|i| i + offset);
                    }
                }
                AggFunc::Sum | AggFunc::HalfSum | AggFunc::Avg => *a = *a + b,
                AggFunc::Product => *a = Real::new(a.get() * b.get()),
                _ => unreachable!("numeric state on non-numeric func"),
            },
            (State::Bool(a), State::Bool(b)) => match self.func {
                AggFunc::Or => {
                    if b && !*a {
                        *a = true;
                        self.winner = other.winner.map(|i| i + offset);
                    }
                }
                AggFunc::And => {
                    if !b && *a {
                        *a = false;
                        self.winner = other.winner.map(|i| i + offset);
                    }
                }
                _ => unreachable!("boolean state on non-boolean func"),
            },
            (State::Union(a), State::Union(b)) => a.extend(b),
            (State::Intersect(a), State::Intersect(b)) => {
                if let Some(s) = b {
                    match a {
                        Some(out) => out.retain(|x| s.contains(x)),
                        None => *a = Some(s),
                    }
                }
            }
            // Mixed concrete states cannot arise from one function; keep
            // the type-error semantics of `push` for unchecked inputs.
            _ => self.state = State::Undefined,
        }
    }

    /// The aggregate's value, or `None` if undefined for this input (empty
    /// `avg`/`intersect`, or a type mismatch).
    pub fn finish(self) -> Option<Value> {
        match (self.state, self.func) {
            (_, AggFunc::Count) => Some(Value::num(self.count as f64)),
            (State::Undefined, _) => None,
            (State::Num(n), AggFunc::HalfSum) => {
                Some(Value::Num(Real::new(n.get() / 2.0)))
            }
            (State::Num(n), AggFunc::Avg) => {
                if self.count == 0 {
                    return None;
                }
                Some(Value::Num(Real::new(n.get() / self.count as f64)))
            }
            (State::Num(n), _) => Some(Value::Num(n)),
            (State::Bool(b), _) => Some(Value::Bool(b)),
            (State::Union(s), _) => Some(Value::Set(Arc::new(s))),
            (State::Intersect(s), _) => s.map(|s| Value::Set(Arc::new(s))),
        }
    }
}

/// Apply `func` to a multiset of values in one shot. `None` means the
/// result is undefined for this input.
pub fn apply(func: AggFunc, values: &[Value]) -> Option<Value> {
    let mut acc = Accumulator::new(func);
    for v in values {
        acc.push(v);
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nums(vals: &[f64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::num(v)).collect()
    }

    #[test]
    fn figure_1_empty_multiset_values() {
        assert_eq!(apply(AggFunc::Min, &[]), Some(Value::Num(Real::INFINITY)));
        assert_eq!(
            apply(AggFunc::Max, &[]),
            Some(Value::Num(Real::NEG_INFINITY))
        );
        assert_eq!(apply(AggFunc::Sum, &[]), Some(Value::num(0.0)));
        assert_eq!(apply(AggFunc::Count, &[]), Some(Value::num(0.0)));
        assert_eq!(apply(AggFunc::Product, &[]), Some(Value::num(1.0)));
        assert_eq!(apply(AggFunc::And, &[]), Some(Value::Bool(true)));
        assert_eq!(apply(AggFunc::Or, &[]), Some(Value::Bool(false)));
        assert_eq!(
            apply(AggFunc::Union, &[]),
            Some(Value::set(std::iter::empty()))
        );
        assert_eq!(apply(AggFunc::Avg, &[]), None);
        assert_eq!(apply(AggFunc::Intersect, &[]), None);
        assert_eq!(apply(AggFunc::HalfSum, &[]), Some(Value::num(0.0)));
    }

    #[test]
    fn numeric_aggregates() {
        let vs = nums(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(apply(AggFunc::Min, &vs), Some(Value::num(1.0)));
        assert_eq!(apply(AggFunc::Max, &vs), Some(Value::num(3.0)));
        assert_eq!(apply(AggFunc::Sum, &vs), Some(Value::num(8.0)));
        assert_eq!(apply(AggFunc::Count, &vs), Some(Value::num(4.0)));
        assert_eq!(apply(AggFunc::Product, &vs), Some(Value::num(12.0)));
        assert_eq!(apply(AggFunc::Avg, &vs), Some(Value::num(2.0)));
        assert_eq!(apply(AggFunc::HalfSum, &vs), Some(Value::num(4.0)));
    }

    #[test]
    fn duplicates_are_retained() {
        // The SQL-style projection of Definition 2.4 keeps duplicates: the
        // sum of {3, 3} is 6, not 3.
        assert_eq!(apply(AggFunc::Sum, &nums(&[3.0, 3.0])), Some(Value::num(6.0)));
    }

    #[test]
    fn boolean_aggregates() {
        let tf = vec![Value::Bool(true), Value::Bool(false)];
        let tt = vec![Value::Bool(true), Value::Bool(true)];
        assert_eq!(apply(AggFunc::And, &tf), Some(Value::Bool(false)));
        assert_eq!(apply(AggFunc::And, &tt), Some(Value::Bool(true)));
        assert_eq!(apply(AggFunc::Or, &tf), Some(Value::Bool(true)));
        // Numeric 0/1 coerce.
        assert_eq!(
            apply(AggFunc::Or, &nums(&[0.0, 0.0])),
            Some(Value::Bool(false))
        );
    }

    #[test]
    fn set_aggregates() {
        let s1 = Value::set(nums(&[1.0, 2.0]));
        let s2 = Value::set(nums(&[2.0, 3.0]));
        assert_eq!(
            apply(AggFunc::Union, &[s1.clone(), s2.clone()]),
            Some(Value::set(nums(&[1.0, 2.0, 3.0])))
        );
        assert_eq!(
            apply(AggFunc::Intersect, &[s1, s2]),
            Some(Value::set(nums(&[2.0])))
        );
    }

    #[test]
    fn infinities_propagate() {
        let vs = vec![Value::num(1.0), Value::Num(Real::INFINITY)];
        assert_eq!(apply(AggFunc::Sum, &vs), Some(Value::Num(Real::INFINITY)));
        assert_eq!(apply(AggFunc::Min, &vs), Some(Value::num(1.0)));
        assert_eq!(apply(AggFunc::Max, &vs), Some(Value::Num(Real::INFINITY)));
    }

    #[test]
    fn type_errors_yield_none() {
        let bad = vec![Value::set(std::iter::empty())];
        assert_eq!(apply(AggFunc::Sum, &bad), None);
        assert_eq!(apply(AggFunc::And, &nums(&[0.5])), None);
        assert_eq!(apply(AggFunc::Union, &nums(&[1.0])), None);
    }

    #[test]
    fn winner_tracks_the_determining_element() {
        // min: first strict improvement wins; later ties do not steal it.
        let mut acc = Accumulator::new(AggFunc::Min);
        for v in nums(&[3.0, 1.0, 2.0, 1.0]) {
            acc.push(&v);
        }
        assert_eq!(acc.winner(), Some(1));
        assert_eq!(acc.finish(), Some(Value::num(1.0)));

        let mut acc = Accumulator::new(AggFunc::Max);
        for v in nums(&[3.0, 5.0, 5.0]) {
            acc.push(&v);
        }
        assert_eq!(acc.winner(), Some(1));

        // or: the first true is the witness; an all-false fold has none.
        let mut acc = Accumulator::new(AggFunc::Or);
        for v in [Value::Bool(false), Value::Bool(true), Value::Bool(true)] {
            acc.push(&v);
        }
        assert_eq!(acc.winner(), Some(1));
        let mut acc = Accumulator::new(AggFunc::Or);
        acc.push(&Value::Bool(false));
        assert_eq!(acc.winner(), None);

        let mut acc = Accumulator::new(AggFunc::And);
        for v in [Value::Bool(true), Value::Bool(false)] {
            acc.push(&v);
        }
        assert_eq!(acc.winner(), Some(1));

        // Joint-responsibility folds never name a winner.
        let mut acc = Accumulator::new(AggFunc::Sum);
        for v in nums(&[1.0, 2.0]) {
            acc.push(&v);
        }
        assert_eq!(acc.winner(), None);
    }

    #[test]
    fn streaming_equals_one_shot() {
        // Push order is the fold order: a streaming accumulator must agree
        // with the slice form bit for bit (0.1 + 0.2 + 0.3 associativity).
        let vs = nums(&[0.1, 0.2, 0.3, 1e16, 1.0]);
        for func in [
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::HalfSum,
            AggFunc::Product,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Count,
        ] {
            let mut acc = Accumulator::new(func);
            for v in &vs {
                acc.push(v);
            }
            assert_eq!(acc.finish(), apply(func, &vs), "{func:?}");
        }
        // Count still counts mistyped elements.
        let mixed = vec![Value::num(1.0), Value::set(std::iter::empty())];
        assert_eq!(apply(AggFunc::Count, &mixed), Some(Value::num(2.0)));
    }
}
