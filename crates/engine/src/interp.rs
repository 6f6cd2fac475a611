//! Aggregate Herbrand interpretations (Definition 3.3).
//!
//! An interpretation maps each predicate to a [`Relation`]: a set of keyed
//! tuples, each cost predicate's key carrying exactly one cost value (the
//! functional dependency of Section 2.3.1 is enforced by construction).
//! Default-value cost predicates are stored by their *core* (Section
//! 2.3.3): keys at the default value `⊥` are implicit, and lookups fall
//! back to the declared domain's bottom.
//!
//! ## Storage layout
//!
//! Keys are stored once, as shared [`Arc<Tuple>`]s: the primary map, the
//! append-only insertion log, every index posting, and the engine's
//! per-round delta all point at the same allocation, so inserts and join
//! probes never deep-clone a `Box<[Value]>`.
//!
//! Joins probe **signature-keyed indexes**: a [`Sig`] is a bitmask of
//! bound key positions, and the index for a signature maps the projection
//! of a key onto those positions to the postings (keys with that
//! projection). Signatures are selected at plan time (`plan.rs` records
//! the signature each atom/conjunct will probe and the engine registers
//! them via [`Relation::ensure_index`]); a probe with a signature nobody
//! registered builds its index lazily by the same mechanism. Indexes are
//! maintained incrementally under a generation counter: each index
//! remembers how many entries of the insertion log it has ingested
//! (`built_upto`) and catches up on the next probe, so `insert` stays
//! O(1) regardless of how many indexes exist.
//!
//! `Interp` also provides the lifted order `⊑` and join of Theorem 3.1,
//! used by the engine's fixpoint and by the property-based test suites.

use crate::value::{RuntimeDomain, Value};
use maglog_datalog::{Pred, Program};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A snapshot of one relation's join-index telemetry (see
/// [`Relation::index_stats`]). Counters cover the relation's whole
/// lifetime; diff two snapshots to scope a phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Index probes issued ([`Relation::probe`] calls).
    pub probes: u64,
    /// Probes that found a non-empty postings list.
    pub hits: u64,
    /// Probes that had to create their `SigIndex` on the spot (signature
    /// not registered via [`Relation::ensure_index`]).
    pub lazy_builds: u64,
    /// Catch-up passes that actually replayed log entries (generation
    /// counter behind the insertion log).
    pub log_replays: u64,
    /// Total log entries ingested across all catch-up passes and
    /// signatures.
    pub replayed_entries: u64,
    /// Posting lists copied on write because a caller still held the
    /// shared `Arc` from an earlier probe.
    pub cow_clones: u64,
}

/// Always-on interior-mutability counters behind [`IndexStats`]. Relaxed
/// atomic bumps on the probe path cost one uncontended RMW — cheap
/// enough to keep unconditionally instead of threading an `EventSink`
/// into `&self` probes, and (unlike the `Cell`s they replace) safe to
/// bump from the parallel evaluator's worker threads. Counters are pure
/// telemetry, so `Relaxed` ordering suffices: nothing synchronizes on
/// them.
#[derive(Debug, Default)]
struct IndexCounters {
    probes: AtomicU64,
    hits: AtomicU64,
    lazy_builds: AtomicU64,
    log_replays: AtomicU64,
    replayed_entries: AtomicU64,
    cow_clones: AtomicU64,
}

impl IndexCounters {
    fn snapshot(&self) -> IndexStats {
        IndexStats {
            probes: self.probes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            lazy_builds: self.lazy_builds.load(Ordering::Relaxed),
            log_replays: self.log_replays.load(Ordering::Relaxed),
            replayed_entries: self.replayed_entries.load(Ordering::Relaxed),
            cow_clones: self.cow_clones.load(Ordering::Relaxed),
        }
    }
}

impl Clone for IndexCounters {
    fn clone(&self) -> Self {
        let s = self.snapshot();
        IndexCounters {
            probes: AtomicU64::new(s.probes),
            hits: AtomicU64::new(s.hits),
            lazy_builds: AtomicU64::new(s.lazy_builds),
            log_replays: AtomicU64::new(s.log_replays),
            replayed_entries: AtomicU64::new(s.replayed_entries),
            cow_clones: AtomicU64::new(s.cow_clones),
        }
    }
}

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// The non-cost arguments of an atom, as a hashable key.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(pub Box<[Value]>);

impl Tuple {
    pub fn new(args: Vec<Value>) -> Self {
        Tuple(args.into_boxed_slice())
    }

    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Estimated heap bytes of the value slice (plus any set-valued
    /// components). The `Tuple` struct itself is counted by the owner.
    pub fn heap_bytes(&self) -> usize {
        self.0.len() * std::mem::size_of::<Value>()
            + self.0.iter().map(Value::heap_bytes).sum::<usize>()
    }
}

impl std::ops::Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

/// A join-index signature: bit `i` set ⇔ key position `i` is bound at the
/// probe. `0` means "no position bound" (a full scan; never indexed).
pub type Sig = u32;

/// Compute the signature covering the given bound positions.
pub fn sig_of_positions(positions: impl IntoIterator<Item = usize>) -> Sig {
    positions.into_iter().fold(0, |s, p| s | (1u32 << p))
}

/// Project `key` onto the positions of `sig`, in ascending position order.
fn project(key: &Tuple, sig: Sig) -> Box<[Value]> {
    let mut out = Vec::with_capacity(sig.count_ones() as usize);
    let mut bits = sig;
    while bits != 0 {
        let pos = bits.trailing_zeros() as usize;
        out.push(key.0[pos].clone());
        bits &= bits - 1;
    }
    out.into_boxed_slice()
}

/// One signature's index: projection → postings. `built_upto` is the
/// generation counter — the number of insertion-log entries already
/// ingested; probes catch up before reading.
#[derive(Clone, Debug, Default)]
struct SigIndex {
    built_upto: usize,
    postings: HashMap<Box<[Value]>, Arc<Vec<Arc<Tuple>>>>,
}

impl SigIndex {
    fn catch_up(&mut self, sig: Sig, log: &[Arc<Tuple>], counters: &IndexCounters) {
        bump(&counters.log_replays);
        counters
            .replayed_entries
            .fetch_add((log.len() - self.built_upto) as u64, Ordering::Relaxed);
        for key in &log[self.built_upto..] {
            // Keys too short for this signature (possible only in
            // heterogeneous test relations) don't participate in it.
            if key.arity() < 32 && (sig >> key.arity()) != 0 {
                continue;
            }
            let entry = self.postings.entry(project(key, sig)).or_default();
            if Arc::strong_count(entry) > 1 {
                bump(&counters.cow_clones);
            }
            Arc::make_mut(entry).push(key.clone());
        }
        self.built_upto = log.len();
    }
}

/// One predicate's extension: key → optional cost value. `None` cost for
/// predicates without a cost argument.
#[derive(Debug, Default)]
pub struct Relation {
    map: HashMap<Arc<Tuple>, Option<Value>>,
    /// Append-only log of distinct keys, in insertion order. Indexes catch
    /// up against this log under their generation counter.
    log: Vec<Arc<Tuple>>,
    /// Signature-keyed join indexes (interior mutability: probes through
    /// `&self` catch indexes up lazily). An `RwLock` rather than a
    /// `RefCell` so `Relation` is `Sync` and parallel workers can probe
    /// concurrently; uncontended lock acquisition is a single atomic op.
    indexes: RwLock<HashMap<Sig, SigIndex>>,
    /// Lifetime index telemetry (see [`IndexStats`]).
    counters: IndexCounters,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            map: self.map.clone(),
            log: self.log.clone(),
            indexes: RwLock::new(self.indexes.read().unwrap().clone()),
            counters: self.counters.clone(),
        }
    }
}

impl Relation {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn get(&self, key: &Tuple) -> Option<&Option<Value>> {
        self.map.get(key)
    }

    pub fn contains(&self, key: &Tuple) -> bool {
        self.map.contains_key(key)
    }

    /// Insert or replace the cost for `key`. Returns the previous cost
    /// binding (outer `None` = key was absent). The key is taken by value
    /// and shared from then on — no clone.
    pub fn insert(&mut self, key: Tuple, cost: Option<Value>) -> Option<Option<Value>> {
        if let Some(slot) = self.map.get_mut(&key) {
            return Some(std::mem::replace(slot, cost));
        }
        let arc = Arc::new(key);
        self.log.push(arc.clone());
        self.map.insert(arc, cost);
        None
    }

    /// Like [`insert`](Self::insert), but the caller already holds the key
    /// in an `Arc` (e.g. from a round buffer): the same allocation is
    /// shared by the map, the log, and every index posting.
    pub fn insert_arc(&mut self, key: Arc<Tuple>, cost: Option<Value>) -> Option<Option<Value>> {
        if let Some(slot) = self.map.get_mut(&*key) {
            return Some(std::mem::replace(slot, cost));
        }
        self.log.push(key.clone());
        self.map.insert(key, cost);
        None
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &Option<Value>)> {
        self.map.iter().map(|(k, v)| (&**k, v))
    }

    /// Iterate with shared keys (cheap `Arc` clones for the caller).
    pub fn iter_arcs(&self) -> impl Iterator<Item = (&Arc<Tuple>, &Option<Value>)> {
        self.map.iter()
    }

    /// All keys, shared, in insertion order — the unindexed-scan path.
    pub fn arc_keys(&self) -> &[Arc<Tuple>] {
        &self.log
    }

    /// Register the index for `sig` ahead of probing (plan-time signature
    /// selection). Idempotent; the index is filled lazily on first probe.
    pub fn ensure_index(&self, sig: Sig) {
        if sig != 0 {
            self.indexes.write().unwrap().entry(sig).or_default();
        }
    }

    /// Keys whose projection onto `sig`'s positions equals `projection`
    /// (values in ascending position order). Returns a shared postings
    /// list — O(1) to hand out, no per-probe allocation. `None` means no
    /// key matches.
    pub fn probe(&self, sig: Sig, projection: &[Value]) -> Option<Arc<Vec<Arc<Tuple>>>> {
        debug_assert_eq!(sig.count_ones() as usize, projection.len());
        bump(&self.counters.probes);
        let mut indexes = self.indexes.write().unwrap();
        let index = match indexes.entry(sig) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                bump(&self.counters.lazy_builds);
                e.insert(SigIndex::default())
            }
        };
        if index.built_upto < self.log.len() {
            index.catch_up(sig, &self.log, &self.counters);
        }
        let hit = index.postings.get(projection).cloned();
        if hit.is_some() {
            bump(&self.counters.hits);
        }
        hit
    }

    /// Keys whose `pos`-th component equals `value` — the single-column
    /// probe, kept for callers without a plan (baselines, tests).
    pub fn scan_eq(&self, pos: usize, value: &Value) -> Arc<Vec<Arc<Tuple>>> {
        self.probe(1 << pos, std::slice::from_ref(value))
            .unwrap_or_default()
    }

    /// The signatures currently registered (for diagnostics and the index
    /// consistency property tests).
    pub fn index_sigs(&self) -> Vec<Sig> {
        self.indexes.read().unwrap().keys().copied().collect()
    }

    /// Snapshot this relation's lifetime index telemetry.
    pub fn index_stats(&self) -> IndexStats {
        self.counters.snapshot()
    }

    /// Estimate this relation's heap footprint, broken down by component.
    /// Every figure is a conservative (under-)estimate: hash-table control
    /// bytes are modeled at one byte per slot and allocator slack not at
    /// all, so sums stay at or below the counting allocator's peak.
    pub fn heap_bytes(&self) -> RelationMemory {
        use std::mem::size_of;
        // Shared key allocations, counted once however many owners (map,
        // log, postings) point at them: Arc refcount header + the Tuple
        // struct + its value slice.
        let tuple_bytes: usize = self
            .log
            .iter()
            .map(|k| 2 * size_of::<usize>() + size_of::<Tuple>() + k.heap_bytes())
            .sum();
        let cost_heap: usize = self
            .map
            .values()
            .flatten()
            .map(Value::heap_bytes)
            .sum();
        let map_bytes = self.map.capacity()
            * (size_of::<Arc<Tuple>>() + size_of::<Option<Value>>() + 1)
            + cost_heap;
        let log_bytes = self.log.capacity() * size_of::<Arc<Tuple>>();
        let mut index_bytes = 0usize;
        for index in self.indexes.read().unwrap().values() {
            index_bytes += index.postings.capacity()
                * (size_of::<Box<[Value]>>() + size_of::<Arc<Vec<Arc<Tuple>>>>() + 1);
            for (projection, postings) in &index.postings {
                index_bytes += projection.len() * size_of::<Value>()
                    + projection.iter().map(Value::heap_bytes).sum::<usize>();
                // Arc header + the Vec's pointer array.
                index_bytes += 2 * size_of::<usize>() + size_of::<Vec<Arc<Tuple>>>()
                    + postings.capacity() * size_of::<Arc<Tuple>>();
            }
        }
        RelationMemory {
            tuple_bytes,
            map_bytes,
            log_bytes,
            index_bytes,
        }
    }
}

/// Estimated heap footprint of one [`Relation`], by storage component
/// (see [`Relation::heap_bytes`] for the estimate's direction of error).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RelationMemory {
    /// Shared `Arc<Tuple>` key allocations, counted once.
    pub tuple_bytes: usize,
    /// Primary map: per-slot key pointer + cost value + control byte,
    /// plus the heap owned by stored cost values.
    pub map_bytes: usize,
    /// Append-only insertion log (pointer array).
    pub log_bytes: usize,
    /// Join indexes: projections and CoW postings across all signatures.
    pub index_bytes: usize,
}

impl RelationMemory {
    pub fn total(&self) -> usize {
        self.tuple_bytes + self.map_bytes + self.log_bytes + self.index_bytes
    }
}

/// A (partial) aggregate Herbrand interpretation.
#[derive(Clone, Debug, Default)]
pub struct Interp {
    rels: HashMap<Pred, Relation>,
}

impl Interp {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn relation(&self, pred: Pred) -> Option<&Relation> {
        self.rels.get(&pred)
    }

    pub fn relation_mut(&mut self, pred: Pred) -> &mut Relation {
        self.rels.entry(pred).or_default()
    }

    pub fn preds(&self) -> impl Iterator<Item = Pred> + '_ {
        self.rels.keys().copied()
    }

    /// Total number of (explicit, core) tuples.
    pub fn size(&self) -> usize {
        self.rels.values().map(Relation::len).sum()
    }

    /// Estimated heap bytes across every relation (see
    /// [`Relation::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.rels.values().map(|r| r.heap_bytes().total()).sum()
    }

    /// The stored cost of `pred(key)`, falling back to the domain default
    /// for default-value cost predicates.
    pub fn cost(&self, program: &Program, pred: Pred, key: &Tuple) -> Option<Option<Value>> {
        if let Some(rel) = self.rels.get(&pred) {
            if let Some(stored) = rel.get(key) {
                return Some(stored.clone());
            }
        }
        if program.has_default(pred) {
            let spec = program.cost_spec(pred).expect("default implies cost");
            return Some(Some(RuntimeDomain::new(spec.domain).bottom()));
        }
        None
    }

    /// The lifted interpretation order of Definition 3.3: `self ⊑ other`
    /// iff every atom of `self` has a `⊒` counterpart in `other` (equal
    /// key, cost `⊑` in the declared domain; non-cost atoms must simply be
    /// present). Default-value predicates compare their cores against the
    /// other side's lookup-with-default.
    pub fn leq(&self, other: &Interp, program: &Program) -> bool {
        for (&pred, rel) in &self.rels {
            let domain = program
                .cost_spec(pred)
                .map(|c| RuntimeDomain::new(c.domain));
            for (key, cost) in rel.iter() {
                let Some(other_cost) = other.cost(program, pred, key) else {
                    return false;
                };
                match (cost, &other_cost, &domain) {
                    (None, _, _) => {}
                    (Some(a), Some(b), Some(d)) => {
                        if !d.leq(a, b) {
                            return false;
                        }
                    }
                    (Some(_), _, _) => return false,
                }
            }
        }
        true
    }

    /// Pointwise join (the `⊔S` of Theorem 3.1, for two operands).
    pub fn join(&self, other: &Interp, program: &Program) -> Interp {
        let mut out = self.clone();
        for (&pred, rel) in &other.rels {
            let domain = program
                .cost_spec(pred)
                .map(|c| RuntimeDomain::new(c.domain));
            let out_rel = out.relation_mut(pred);
            for (key, cost) in rel.iter_arcs() {
                match out_rel.get(key) {
                    None => {
                        out_rel.insert_arc(key.clone(), cost.clone());
                    }
                    Some(existing) => {
                        if let (Some(a), Some(b), Some(d)) = (existing, cost, &domain) {
                            let joined = d.join(a, b);
                            out_rel.insert_arc(key.clone(), Some(joined));
                        }
                    }
                }
            }
        }
        out
    }

    /// Deterministic rendering for golden tests: one `pred(args[, cost])`
    /// per line, sorted.
    pub fn render(&self, program: &Program) -> String {
        let mut lines: Vec<String> = Vec::new();
        let mut rels: BTreeMap<String, &Relation> = BTreeMap::new();
        for (&pred, rel) in &self.rels {
            rels.insert(program.pred_name(pred), rel);
        }
        for (name, rel) in rels {
            let mut rows: Vec<String> = rel
                .iter()
                .map(|(key, cost)| {
                    let mut parts: Vec<String> =
                        key.0.iter().map(|v| v.display(program)).collect();
                    if let Some(c) = cost {
                        parts.push(c.display(program));
                    }
                    format!("{name}({})", parts.join(", "))
                })
                .collect();
            rows.sort();
            lines.extend(rows);
        }
        lines.join("\n")
    }
}

/// Equality of interpretations up to stored content (used for fixpoint
/// detection): an empty relation equals an absent one, such as those
/// [`Relation::ensure_index`] registration leaves behind.
impl PartialEq for Interp {
    fn eq(&self, other: &Self) -> bool {
        let covered_by = |a: &Interp, b: &Interp| {
            a.rels.iter().filter(|(_, rel)| !rel.is_empty()).all(|(pred, rel)| {
                b.rels.get(pred).is_some_and(|brel| {
                    rel.len() == brel.len() && rel.iter().all(|(k, c)| brel.get(k) == Some(c))
                })
            })
        };
        covered_by(self, other) && covered_by(other, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maglog_datalog::parse_program;

    fn t(vals: &[f64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::num(v)).collect())
    }

    #[test]
    fn relation_insert_and_lookup() {
        let mut rel = Relation::new();
        assert_eq!(rel.insert(t(&[1.0]), Some(Value::num(5.0))), None);
        assert_eq!(
            rel.insert(t(&[1.0]), Some(Value::num(3.0))),
            Some(Some(Value::num(5.0)))
        );
        assert_eq!(rel.get(&t(&[1.0])), Some(&Some(Value::num(3.0))));
        assert_eq!(rel.len(), 1);
        // Replacement does not grow the insertion log.
        assert_eq!(rel.arc_keys().len(), 1);
    }

    #[test]
    fn scan_eq_uses_lazy_index_and_stays_fresh() {
        let mut rel = Relation::new();
        rel.insert(t(&[1.0, 10.0]), None);
        rel.insert(t(&[2.0, 20.0]), None);
        // Build the index with a first scan.
        assert_eq!(rel.scan_eq(0, &Value::num(1.0)).len(), 1);
        // Insert after the index exists: must show up (generation catch-up).
        rel.insert(t(&[1.0, 30.0]), None);
        assert_eq!(rel.scan_eq(0, &Value::num(1.0)).len(), 2);
        assert_eq!(rel.scan_eq(1, &Value::num(20.0)).len(), 1);
        assert!(rel.scan_eq(0, &Value::num(9.0)).is_empty());
    }

    #[test]
    fn multi_column_probe_matches_exactly() {
        let mut rel = Relation::new();
        rel.insert(t(&[1.0, 10.0, 5.0]), None);
        rel.insert(t(&[1.0, 20.0, 5.0]), None);
        rel.insert(t(&[2.0, 10.0, 5.0]), None);
        let sig = sig_of_positions([0, 2]);
        rel.ensure_index(sig);
        let hits = rel.probe(sig, &[Value::num(1.0), Value::num(5.0)]).unwrap();
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|k| k[0] == Value::num(1.0) && k[2] == Value::num(5.0)));
        assert!(rel.probe(sig, &[Value::num(3.0), Value::num(5.0)]).is_none());
        // Catch-up after the index exists.
        rel.insert(t(&[1.0, 30.0, 5.0]), None);
        assert_eq!(
            rel.probe(sig, &[Value::num(1.0), Value::num(5.0)]).unwrap().len(),
            3
        );
    }

    #[test]
    fn index_stats_count_probes_builds_and_replays() {
        let mut rel = Relation::new();
        rel.insert(t(&[1.0, 10.0]), None);
        rel.insert(t(&[2.0, 20.0]), None);
        assert_eq!(rel.index_stats(), IndexStats::default());

        // First probe on an unregistered signature: lazy build + replay of
        // the whole log, and a hit.
        let hold = rel.probe(1 << 0, &[Value::num(1.0)]).unwrap();
        let s = rel.index_stats();
        assert_eq!((s.probes, s.hits, s.lazy_builds), (1, 1, 1));
        assert_eq!((s.log_replays, s.replayed_entries), (1, 2));

        // A miss counts the probe but not a hit, and replays nothing.
        assert!(rel.probe(1 << 0, &[Value::num(9.0)]).is_none());
        let s = rel.index_stats();
        assert_eq!((s.probes, s.hits, s.lazy_builds, s.log_replays), (2, 1, 1, 1));

        // Catch-up while a caller still holds the postings Rc: CoW clone.
        rel.insert(t(&[1.0, 30.0]), None);
        assert_eq!(rel.probe(1 << 0, &[Value::num(1.0)]).unwrap().len(), 2);
        let s = rel.index_stats();
        assert_eq!((s.log_replays, s.replayed_entries, s.cow_clones), (2, 3, 1));
        drop(hold);

        // A registered signature's first probe is not a lazy build.
        rel.ensure_index(1 << 1);
        rel.probe(1 << 1, &[Value::num(10.0)]);
        assert_eq!(rel.index_stats().lazy_builds, 1);
    }

    #[test]
    fn insert_arc_shares_the_allocation() {
        let mut rel = Relation::new();
        let key = Arc::new(t(&[7.0]));
        rel.insert_arc(key.clone(), None);
        assert!(rel.contains(&key));
        // Map + log + caller: the same allocation, not copies.
        assert!(Arc::ptr_eq(&key, &rel.arc_keys()[0]));
        // Replacing the cost must not duplicate the key.
        rel.insert_arc(key.clone(), Some(Value::num(1.0)));
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.arc_keys().len(), 1);
    }

    #[test]
    fn interp_cost_falls_back_to_default() {
        let p = parse_program(
            r#"
            declare pred t/2 cost bool_or default.
            declare pred u/2 cost bool_or.
            t(W, C) :- input(W, C).
            "#,
        )
        .unwrap();
        let tp = p.find_pred("t").unwrap();
        let up = p.find_pred("u").unwrap();
        let interp = Interp::new();
        let key = Tuple::new(vec![Value::Sym(p.symbols.intern("w1"))]);
        // Default pred: bottom.
        assert_eq!(
            interp.cost(&p, tp, &key),
            Some(Some(Value::Bool(false)))
        );
        // Non-default pred: absent.
        assert_eq!(interp.cost(&p, up, &key), None);
    }

    #[test]
    fn interp_order_follows_example_3_1() {
        // M1 ⊑ M2 in (MinReal): s(a,b,1) ⊑ s(a,b,0).
        let p = parse_program(
            r#"
            declare pred s/3 cost min_real.
            s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
            declare pred path/4 cost min_real.
            "#,
        )
        .unwrap();
        let s = p.find_pred("s").unwrap();
        let a = Value::Sym(p.symbols.intern("a"));
        let b = Value::Sym(p.symbols.intern("b"));
        let key = Tuple::new(vec![a, b]);

        let mut m1 = Interp::new();
        m1.relation_mut(s).insert(key.clone(), Some(Value::num(1.0)));
        let mut m2 = Interp::new();
        m2.relation_mut(s).insert(key.clone(), Some(Value::num(0.0)));

        assert!(m1.leq(&m2, &p), "longer path is ⊑ shorter path");
        assert!(!m2.leq(&m1, &p));
        // Note: M1 ⊑ M2 although M1 ⊄ M2 as sets — the paper's remark.
        assert_ne!(m1, m2);
    }

    #[test]
    fn join_is_least_upper_bound() {
        let p = parse_program(
            r#"
            declare pred v/2 cost max_real.
            v(X, C) :- w(X, C).
            declare pred w/2 cost max_real.
            "#,
        )
        .unwrap();
        let v = p.find_pred("v").unwrap();
        let key = Tuple::new(vec![Value::num(0.0)]);
        let mut a = Interp::new();
        a.relation_mut(v).insert(key.clone(), Some(Value::num(1.0)));
        let mut b = Interp::new();
        b.relation_mut(v).insert(key.clone(), Some(Value::num(4.0)));
        let j = a.join(&b, &p);
        assert_eq!(
            j.relation(v).unwrap().get(&key),
            Some(&Some(Value::num(4.0)))
        );
        assert!(a.leq(&j, &p) && b.leq(&j, &p));
    }

    #[test]
    fn render_is_deterministic() {
        let p = parse_program("e(a, b).\ne(b, c).").unwrap();
        let e = p.find_pred("e").unwrap();
        let mut i = Interp::new();
        let a = Value::Sym(p.symbols.intern("a"));
        let b = Value::Sym(p.symbols.intern("b"));
        let c = Value::Sym(p.symbols.intern("c"));
        i.relation_mut(e)
            .insert(Tuple::new(vec![b.clone(), c.clone()]), None);
        i.relation_mut(e).insert(Tuple::new(vec![a, b]), None);
        assert_eq!(i.render(&p), "e(a, b)\ne(b, c)");
    }

    #[test]
    fn empty_relations_do_not_affect_equality() {
        let p = parse_program("p(a). q(a). r(a).").unwrap();
        let [pp, q, r] = ["p", "q", "r"].map(|n| p.find_pred(n).unwrap());
        let x = Tuple::new(vec![Value::Sym(p.symbols.intern("x"))]);

        // {p: ∅} = {}: registering an index creates the empty relation.
        let mut a = Interp::new();
        a.relation_mut(pp).ensure_index(1);
        assert_eq!(a, Interp::new());
        assert_eq!(Interp::new(), a);

        // {p: ∅, q: x} = {q: x, r: ∅}.
        a.relation_mut(q).insert(x.clone(), None);
        let mut b = Interp::new();
        b.relation_mut(q).insert(x.clone(), None);
        b.relation_mut(r).ensure_index(1);
        assert_eq!(a, b);
        assert_eq!(b, a);

        // Content still counts, in both directions.
        b.relation_mut(r).insert(x, None);
        assert_ne!(a, b);
        assert_ne!(b, a);
    }
}
