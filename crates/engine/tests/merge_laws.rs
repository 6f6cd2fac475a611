//! Lattice-law property tests for `Accumulator::merge` — the `merge` half
//! of the create/process/merge/convert aggregate interface the parallel
//! evaluator relies on (cf. `crates/lattice/src/laws.rs` for the domain
//! half).
//!
//! Laws, per aggregate function:
//!
//! - **merge = fold order**: `a.merge(b)` equals pushing `b`'s elements
//!   after `a`'s, for every split point of every sample vector. Exact for
//!   the lattice folds
//!   (`min`/`max`/`and`/`or`/`union`/`intersect`) and `count`; exact on
//!   integral data and within relative epsilon on fractional data for the
//!   additive folds (`sum`/`halfsum`/`avg`/`product`), whose merge
//!   reassociates IEEE-754 operations.
//! - **associativity**: `(a ⋅ b) ⋅ c = a ⋅ (b ⋅ c)` (same exactness split).
//! - **commutativity**: `a ⋅ b = b ⋅ a` in the finished value — exact for
//!   every function (IEEE addition/multiplication commute bit for bit).
//! - **idempotence**: `a ⋅ a = a` for the idempotent lattice folds; the
//!   counting folds are asserted *non*-idempotent so nobody ever swaps a
//!   sharded `sum` onto the dedup path by accident.
//! - **identity**: the fresh accumulator is a two-sided identity.
//! - **undefined absorption**: a type error on either side poisons the
//!   merge, exactly as it poisons a sequential fold.

use maglog_datalog::AggFunc;
use maglog_engine::aggregate::{apply, Accumulator};
use maglog_engine::Value;

const ALL_FUNCS: [AggFunc; 11] = [
    AggFunc::Count,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Sum,
    AggFunc::HalfSum,
    AggFunc::Avg,
    AggFunc::Product,
    AggFunc::And,
    AggFunc::Or,
    AggFunc::Union,
    AggFunc::Intersect,
];

/// Lattice folds: merge must be bit-for-bit the sequential fold and
/// idempotent.
const LATTICE_FUNCS: [AggFunc; 6] = [
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::And,
    AggFunc::Or,
    AggFunc::Union,
    AggFunc::Intersect,
];

/// Additive folds: merge reassociates float ops, so cross-split equality
/// holds exactly on integral data and within epsilon on fractional data.
const ADDITIVE_FUNCS: [AggFunc; 4] = [
    AggFunc::Sum,
    AggFunc::HalfSum,
    AggFunc::Avg,
    AggFunc::Product,
];

fn nums(vals: &[f64]) -> Vec<Value> {
    vals.iter().map(|&v| Value::num(v)).collect()
}

fn bools(vals: &[bool]) -> Vec<Value> {
    vals.iter().map(|&b| Value::Bool(b)).collect()
}

fn sets(vals: &[&[f64]]) -> Vec<Value> {
    vals.iter().map(|vs| Value::set(nums(vs))).collect()
}

/// Deterministic sample vectors for one function's element type —
/// including empties, singletons, ties, and absorbing elements, which is
/// where merge bugs hide.
fn samples(func: AggFunc) -> Vec<Vec<Value>> {
    match func {
        AggFunc::And | AggFunc::Or => vec![
            bools(&[]),
            bools(&[true]),
            bools(&[false]),
            bools(&[false, true, false]),
            bools(&[true, true]),
            bools(&[false, false, false, true]),
        ],
        AggFunc::Union | AggFunc::Intersect => vec![
            sets(&[]),
            sets(&[&[1.0, 2.0]]),
            sets(&[&[2.0, 3.0], &[3.0, 4.0]]),
            sets(&[&[], &[1.0]]),
            sets(&[&[1.0, 2.0, 3.0], &[2.0], &[2.0, 5.0]]),
        ],
        _ => vec![
            nums(&[]),
            nums(&[4.0]),
            nums(&[3.0, 1.0, 2.0, 1.0]),
            nums(&[-2.0, 7.0, -2.0]),
            nums(&[0.0, 5.0, 5.0, 1.0]),
            nums(&[9.0, 8.0, 10.0, 8.0, 12.0]),
        ],
    }
}

/// Fractional samples exercising the epsilon path of the additive folds.
fn fractional_samples() -> Vec<Vec<Value>> {
    vec![
        nums(&[0.1, 0.2, 0.3]),
        nums(&[1e16, 1.0, -1e16, 2.5]),
        nums(&[0.5, 0.25, 0.125, 3.7]),
    ]
}

fn acc_of(func: AggFunc, values: &[Value]) -> Accumulator {
    let mut acc = Accumulator::new(func);
    for v in values {
        acc.push(v);
    }
    acc
}

fn merged(mut a: Accumulator, b: Accumulator) -> Accumulator {
    a.merge(b);
    a
}

/// Epsilon scale for a reassociated additive fold over `sample`: rounding
/// error accumulates relative to the *intermediate* magnitudes (sum of
/// absolute elements — catastrophic cancellation can make the result tiny
/// while the roundoff stays proportional to the operands), except
/// `product`, whose relative error tracks the result itself.
fn float_scale(func: AggFunc, sample: &[Value]) -> f64 {
    let abs: Vec<f64> = sample
        .iter()
        .map(|v| v.as_num().expect("numeric sample").get().abs())
        .collect();
    match func {
        AggFunc::Product => abs.iter().product::<f64>().max(1.0),
        _ => abs.iter().sum::<f64>().max(1.0),
    }
}

/// Value equality within `1e-9 * scale` for reassociated float folds;
/// `None`s must match exactly.
fn assert_close(got: &Option<Value>, want: &Option<Value>, scale: f64, ctx: &str) {
    if got == want {
        return;
    }
    match (got, want) {
        (Some(g), Some(w)) => {
            let (g, w) = (
                g.as_num().expect("numeric").get(),
                w.as_num().expect("numeric").get(),
            );
            let tol = 1e-9 * scale;
            assert!((g - w).abs() <= tol, "{ctx}: {g} vs {w} (tol {tol})");
        }
        _ => assert_eq!(got, want, "{ctx}"),
    }
}

#[test]
fn merge_equals_sequential_fold_at_every_split() {
    for func in ALL_FUNCS {
        for sample in samples(func) {
            let want = acc_of(func, &sample).finish();
            for split in 0..=sample.len() {
                let (lo, hi) = sample.split_at(split);
                let m = merged(acc_of(func, lo), acc_of(func, hi));
                assert_eq!(m.count(), sample.len(), "{func:?} count at {split}");
                // Integral sample data: every function is exact here.
                assert_eq!(m.finish(), want, "{func:?} merge != fold at split {split}");
            }
        }
    }
}

#[test]
fn merge_on_fractional_data_is_close_at_every_split() {
    for func in ADDITIVE_FUNCS {
        for sample in fractional_samples() {
            let want = apply(func, &sample);
            let scale = float_scale(func, &sample);
            for split in 0..=sample.len() {
                let (lo, hi) = sample.split_at(split);
                let got = merged(acc_of(func, lo), acc_of(func, hi)).finish();
                assert_close(
                    &got,
                    &want,
                    scale,
                    &format!("{func:?} fractional split {split}"),
                );
            }
        }
    }
}

#[test]
fn merge_is_associative() {
    for func in ALL_FUNCS {
        let pool = samples(func);
        for a in &pool {
            for b in &pool {
                for c in &pool {
                    let left = merged(
                        merged(acc_of(func, a), acc_of(func, b)),
                        acc_of(func, c),
                    );
                    let right = merged(
                        acc_of(func, a),
                        merged(acc_of(func, b), acc_of(func, c)),
                    );
                    assert_eq!(left.count(), right.count(), "{func:?} count assoc");
                    // Integral pools: exact for every function.
                    assert_eq!(left.finish(), right.finish(), "{func:?} not associative");
                }
            }
        }
    }
    // Fractional data reassociates sums/products: close, not bit-equal.
    for func in ADDITIVE_FUNCS {
        let pool = fractional_samples();
        for a in &pool {
            for b in &pool {
                for c in &pool {
                    let all: Vec<Value> =
                        a.iter().chain(b).chain(c).cloned().collect();
                    let scale = float_scale(func, &all);
                    let left = merged(
                        merged(acc_of(func, a), acc_of(func, b)),
                        acc_of(func, c),
                    )
                    .finish();
                    let right = merged(
                        acc_of(func, a),
                        merged(acc_of(func, b), acc_of(func, c)),
                    )
                    .finish();
                    assert_close(&left, &right, scale, &format!("{func:?} frac assoc"));
                }
            }
        }
    }
}

#[test]
fn merge_is_commutative_in_the_finished_value() {
    // IEEE addition and multiplication commute bit for bit, so this holds
    // exactly for every function.
    for func in ALL_FUNCS {
        let pool = samples(func);
        for a in &pool {
            for b in &pool {
                let ab = merged(acc_of(func, a), acc_of(func, b));
                let ba = merged(acc_of(func, b), acc_of(func, a));
                assert_eq!(ab.count(), ba.count(), "{func:?} count comm");
                assert_eq!(
                    ab.finish(),
                    ba.finish(),
                    "{func:?} not commutative on {a:?} / {b:?}"
                );
            }
        }
    }
}

#[test]
fn lattice_folds_are_idempotent_and_counting_folds_are_not() {
    for func in LATTICE_FUNCS {
        for sample in samples(func) {
            let a = acc_of(func, &sample);
            let doubled = merged(a.clone(), a.clone());
            assert_eq!(
                doubled.clone().finish(),
                a.clone().finish(),
                "{func:?} not idempotent on {sample:?}"
            );
        }
    }
    // The counting folds must NOT be idempotent — merging a shard with
    // itself double-counts, which is exactly why the parallel evaluator
    // deduplicates derivations *before* the fold, never after.
    for (func, sample) in [
        (AggFunc::Count, nums(&[1.0, 2.0])),
        (AggFunc::Sum, nums(&[1.0, 2.0])),
        (AggFunc::Product, nums(&[2.0, 3.0])),
        (AggFunc::HalfSum, nums(&[4.0])),
    ] {
        let a = acc_of(func, &sample);
        assert_ne!(
            merged(a.clone(), a.clone()).finish(),
            a.finish(),
            "{func:?} unexpectedly idempotent"
        );
    }
}

#[test]
fn fresh_accumulator_is_a_two_sided_identity() {
    for func in ALL_FUNCS {
        for sample in samples(func) {
            let a = acc_of(func, &sample);
            let left = merged(Accumulator::new(func), a.clone());
            let right = merged(a.clone(), Accumulator::new(func));
            assert_eq!(left.count(), sample.len(), "{func:?} left identity count");
            assert_eq!(right.count(), sample.len(), "{func:?} right identity count");
            assert_eq!(
                left.finish(),
                a.clone().finish(),
                "{func:?} left identity value"
            );
            assert_eq!(right.finish(), a.finish(), "{func:?} right identity value");
        }
    }
}

#[test]
fn undefined_states_absorb_through_merge() {
    // A type error on either side of the split must poison the merged
    // state exactly as it poisons a sequential fold (count excepted: it
    // ignores element types entirely).
    let poison = Value::set(std::iter::empty::<Value>());
    for func in [AggFunc::Min, AggFunc::Sum, AggFunc::Avg] {
        let mut bad = Accumulator::new(func);
        bad.push(&poison);
        bad.push(&Value::num(1.0));
        let good = acc_of(func, &nums(&[2.0, 3.0]));
        assert_eq!(merged(good.clone(), bad.clone()).finish(), None, "{func:?}");
        assert_eq!(merged(bad, good).finish(), None, "{func:?}");
    }
    let mut bad = Accumulator::new(AggFunc::And);
    bad.push(&Value::num(0.5));
    assert_eq!(
        merged(bad, acc_of(AggFunc::And, &bools(&[true]))).finish(),
        None
    );
    // Count keeps counting through mistyped elements, merged or not.
    let mut c = Accumulator::new(AggFunc::Count);
    c.push(&poison);
    let c = merged(c, acc_of(AggFunc::Count, &nums(&[1.0, 2.0])));
    assert_eq!(c.finish(), Some(Value::num(3.0)));
}

#[test]
fn uneven_splits_merge_to_the_fold_value() {
    // min: the global minimum lives in the right shard.
    let left = acc_of(AggFunc::Min, &nums(&[5.0, 4.0]));
    let right = acc_of(AggFunc::Min, &nums(&[9.0, 1.0]));
    assert_eq!(merged(left, right).finish(), Some(Value::num(1.0)));

    // or: the one true element is the right shard's last.
    let left = acc_of(AggFunc::Or, &bools(&[false, false]));
    let right = acc_of(AggFunc::Or, &bools(&[false, true]));
    assert_eq!(merged(left, right).finish(), Some(Value::Bool(true)));
}
