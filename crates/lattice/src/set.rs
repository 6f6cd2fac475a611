//! Powerset cost domains (rows 9–11 of Figure 1).
//!
//! [`PowerSet<T>`] is `2^S` ordered by inclusion: join = `∪`, meet = `∩`,
//! bottom = `∅`. It is the domain/range of the `union` aggregate and, via
//! [`crate::Dual`], of the `intersection` aggregate. The `⊇-ordered` row of
//! Figure 1 needs a greatest element (the universe `S`); since Rust types
//! cannot carry an arbitrary runtime universe in a `top()` constant, the
//! dual's `BoundedJoin` is provided by complement-free dual
//! semantics in the engine, which tracks the universe explicitly. Here we
//! give `PowerSet` itself the full `CompleteLattice` structure only when the
//! element type enumerates a finite universe via [`FiniteUniverse`].

use crate::traits::{BoundedJoin, BoundedMeet, JoinSemiLattice, MeetSemiLattice, Poset};
use std::collections::BTreeSet;
use std::fmt;

/// An element type with a known finite universe, enabling `top()` for
/// `⊆-ordered` powersets and `bottom()` for `⊇-ordered` ones.
pub trait FiniteUniverse: Ord + Clone {
    fn universe() -> BTreeSet<Self>;
}

/// A finite subset of `S`, ordered by `⊆`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PowerSet<T: Ord + Clone>(pub BTreeSet<T>);

impl<T: Ord + Clone> FromIterator<T> for PowerSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        PowerSet(items.into_iter().collect())
    }
}

impl<T: Ord + Clone> PowerSet<T> {
    pub fn empty() -> Self {
        PowerSet(BTreeSet::new())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn contains(&self, item: &T) -> bool {
        self.0.contains(item)
    }

    pub fn union(&self, other: &Self) -> Self {
        PowerSet(self.0.union(&other.0).cloned().collect())
    }

    pub fn intersection(&self, other: &Self) -> Self {
        PowerSet(self.0.intersection(&other.0).cloned().collect())
    }
}

impl<T: Ord + Clone> Poset for PowerSet<T> {
    fn leq(&self, other: &Self) -> bool {
        self.0.is_subset(&other.0)
    }
}
impl<T: Ord + Clone> JoinSemiLattice for PowerSet<T> {
    fn join(&self, other: &Self) -> Self {
        self.union(other)
    }
}
impl<T: Ord + Clone> MeetSemiLattice for PowerSet<T> {
    fn meet(&self, other: &Self) -> Self {
        self.intersection(other)
    }
}
impl<T: Ord + Clone> BoundedJoin for PowerSet<T> {
    fn bottom() -> Self {
        PowerSet::empty()
    }
}
impl<T: FiniteUniverse> BoundedMeet for PowerSet<T> {
    fn top() -> Self {
        PowerSet(T::universe())
    }
}

impl<T: Ord + Clone + fmt::Display> fmt::Display for PowerSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::Dual;

    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Small(u8);
    impl FiniteUniverse for Small {
        fn universe() -> BTreeSet<Self> {
            (0..4).map(Small).collect()
        }
    }
    impl fmt::Display for Small {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}", self.0)
        }
    }

    fn ps(items: &[u8]) -> PowerSet<Small> {
        PowerSet::from_iter(items.iter().map(|&b| Small(b)))
    }

    #[test]
    fn subset_order() {
        assert!(ps(&[1]).leq(&ps(&[1, 2])));
        assert!(!ps(&[1, 3]).leq(&ps(&[1, 2])));
        assert!(PowerSet::<Small>::bottom().leq(&ps(&[0])));
    }

    #[test]
    fn join_is_union_meet_is_intersection() {
        assert_eq!(ps(&[1, 2]).join(&ps(&[2, 3])), ps(&[1, 2, 3]));
        assert_eq!(ps(&[1, 2]).meet(&ps(&[2, 3])), ps(&[2]));
    }

    #[test]
    fn top_is_universe() {
        assert_eq!(PowerSet::<Small>::top(), ps(&[0, 1, 2, 3]));
        assert!(ps(&[1, 3]).leq(&PowerSet::<Small>::top()));
    }

    #[test]
    fn dual_powerset_models_superset_order() {
        // Row 10 of Figure 1: (2^S, ⊇), bottom = S, join = ∩.
        let a = Dual(ps(&[0, 1, 2]));
        let b = Dual(ps(&[1, 2, 3]));
        assert_eq!(a.join(&b), Dual(ps(&[1, 2])));
        assert_eq!(Dual::<PowerSet<Small>>::bottom(), Dual(ps(&[0, 1, 2, 3])));
        assert!(Dual::<PowerSet<Small>>::bottom().leq(&a));
    }

    #[test]
    fn display_formats_sets() {
        assert_eq!(ps(&[2, 1]).to_string(), "{1, 2}");
        assert_eq!(ps(&[]).to_string(), "{}");
    }
}
