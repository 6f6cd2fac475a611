//! Engine observability: the [`EventSink`] instrumentation interface.
//!
//! The evaluator reports its fixpoint progress — component boundaries,
//! per-round deltas, rule firings, insert outcomes, aggregate folds, and
//! index telemetry — into an `EventSink`. The default sink, [`NoopSink`],
//! has empty inlineable methods, and every evaluation entry point is
//! generic over the sink, so an uninstrumented run monomorphizes to
//! exactly the code it had before this layer existed: zero cost when off.
//!
//! Events carry interned ids ([`Pred`], program rule indices) rather than
//! rendered names; sinks that need text (the trace and metrics sinks in
//! [`crate::profile`]) hold a `&Program` and resolve lazily.
//!
//! Wall-clock is *not* measured by the engine. Sinks that want timings
//! bracket [`EventSink::rule_fire_start`] / [`EventSink::rule_fire_end`]
//! with their own [`Clock`], which is injectable ([`ManualClock`]) so
//! tests pin deterministic values.

use crate::eval::Strategy;
use crate::interp::{IndexStats, RelationMemory, Tuple};
use maglog_datalog::Pred;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How an applied derivation changed the database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The key was absent: a genuinely new tuple.
    New,
    /// The key existed and the lattice join strictly improved its cost.
    Improved,
    /// The derivation changed nothing (re-derivation at an equal or
    /// dominated cost, or an explicit entry at a default value).
    Noop,
}

/// Receiver for evaluator instrumentation events.
///
/// Every method has an empty default body; implement only what you need.
/// Event order per component: `component_start`, then per round
/// `round_start` → (`rule_fire_start`/`rule_fire_end`)* →
/// (`insert_outcome`)* → (`delta`)* → `round_end`, then once
/// `aggregate_totals`, (`rule_derivations`)*, `component_end`. After all
/// components, `index_stats` fires once per touched predicate. Greedy
/// components treat each queue pop as a round and additionally emit
/// `greedy_settle` for the settled atom.
#[allow(unused_variables)]
pub trait EventSink {
    /// A component's fixpoint begins. `strategy` is the strategy actually
    /// used (greedy requests fall back to semi-naive when ineligible).
    fn component_start(&mut self, component: usize, strategy: Strategy, cdb: &[Pred]) {}
    /// A `T_P` round begins. `full` = every rule re-fires from scratch
    /// (round 1, and every naive round).
    fn round_start(&mut self, round: usize, full: bool) {}
    /// A rule firing begins. `rule` is the program rule index.
    fn rule_fire_start(&mut self, rule: usize) {}
    /// The matching rule firing completed.
    fn rule_fire_end(&mut self, rule: usize) {}
    /// Bulk report of `count` completed firings of `rule` whose individual
    /// begin/end interleaving is unavailable (the parallel barrier replays
    /// worker-side tallies through this). The default expands to
    /// `rule_fire_start`/`rule_fire_end` pairs so counting sinks observe
    /// identical totals either way; span-recording sinks override it to
    /// avoid synthesizing `count` zero-width spans.
    fn rule_firings(&mut self, rule: usize, count: u64) {
        for _ in 0..count {
            self.rule_fire_start(rule);
            self.rule_fire_end(rule);
        }
    }
    /// One buffered derivation was applied to the database. `rule` is the
    /// program rule index that first derived the tuple this round.
    fn insert_outcome(&mut self, rule: usize, pred: Pred, outcome: InsertOutcome) {}
    /// `pred` contributed `size` changed tuples to this round's delta.
    fn delta(&mut self, pred: Pred, size: usize) {}
    /// The round ended: `derivations` distinct (pred, key) derivations
    /// were buffered, `changed` of them changed the database.
    fn round_end(&mut self, round: usize, derivations: usize, changed: usize) {}
    /// Parallel-evaluator barrier telemetry for one round (`--parallel`
    /// only; fired between the firing phase and the apply phase).
    /// `shard_sizes[w]` is worker `w`'s firing count, `merges` the number
    /// of same-key collisions combined across shards at the barrier, and
    /// `barrier_wait_nanos` the time from the first shard finishing its
    /// firing phase to the last one finishing (shard imbalance).
    fn parallel_round(
        &mut self,
        round: usize,
        workers: usize,
        shard_sizes: &[usize],
        merges: u64,
        barrier_wait_nanos: u64,
    ) {
    }
    /// Total head derivations (including same-key re-derivations) a rule
    /// attempted over the whole component. Fired once per rule at
    /// component end.
    fn rule_derivations(&mut self, rule: usize, derivations: u64) {}
    /// Aggregate evaluation totals for the component: `groups` streaming
    /// accumulators created, `elements` multiset elements folded,
    /// `peak_bytes` the largest estimated footprint of the live
    /// accumulator table observed across the component's rounds.
    fn aggregate_totals(&mut self, groups: u64, elements: u64, peak_bytes: u64) {}
    /// The greedy strategy settled `pred(key)` at `cost`.
    fn greedy_settle(&mut self, pred: Pred, key: &Tuple, cost: f64) {}
    /// An optimizing-rewrite decision (`--optimize`): one human-readable
    /// line per decision — PreM pushdown proven or refused per component,
    /// demand restriction chosen for a point query. Fired before any
    /// component evaluates.
    fn optimization(&mut self, decision: &str) {}
    /// Derivations discarded by proven-sound filters (PreM dominance
    /// pruning, demand restriction) over the whole component. Fired just
    /// before [`EventSink::component_end`], and only when non-zero.
    fn pruned(&mut self, component: usize, count: u64) {}
    /// The component reached its fixpoint after `rounds` rounds (queue
    /// pops for greedy components).
    fn component_end(&mut self, component: usize, rounds: usize) {}
    /// Join-index telemetry for one predicate's relation, reported once
    /// after evaluation. `sigs` is the number of distinct signatures
    /// indexed.
    fn index_stats(&mut self, pred: Pred, sigs: usize, stats: IndexStats) {}
    /// Estimated heap footprint of one predicate's relation, reported
    /// once after evaluation alongside [`EventSink::index_stats`] — but
    /// only when [`EventSink::wants_relation_memory`] returns true, since
    /// the deep-size walk behind it is O(database).
    fn relation_memory(&mut self, pred: Pred, memory: RelationMemory) {}
    /// Opt-in gate for [`EventSink::relation_memory`]; the default sink
    /// keeps evaluation free of the deep-size walk.
    fn wants_relation_memory(&self) -> bool {
        false
    }
    /// Opt-in handle for worker-side span recording under `--parallel`.
    /// The round loop asks the sink for a [`crate::trace::Tracer`] once
    /// per sharded round; `None` (the default) keeps the shards free of
    /// any clock reads, preserving the zero-cost-when-off property.
    fn worker_tracer(&self) -> Option<crate::trace::Tracer> {
        None
    }
    /// Opt-in handle for worker-side latency recording under `--parallel`
    /// — the metrics analogue of [`EventSink::worker_tracer`]. `None`
    /// (the default) keeps workers free of clock reads and histogram
    /// bookkeeping.
    fn worker_meter(&self) -> Option<crate::metrics::Meter> {
        None
    }
    /// One worker's round-local measurements, delivered by the parallel
    /// orchestrator at the round barrier (only when
    /// [`EventSink::worker_meter`] returned `Some`). Workers record into
    /// local histograms; this merge point is the only synchronization.
    fn worker_sample(&mut self, sample: &crate::metrics::WorkerSample) {}
}

/// The default sink: does nothing, compiles to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl EventSink for NoopSink {}

/// Broadcast every event to two sinks (e.g. a trace and a metrics sink in
/// the same run). Nest for more than two.
#[derive(Debug)]
pub struct Fanout<A, B>(pub A, pub B);

impl<A: EventSink, B: EventSink> EventSink for Fanout<A, B> {
    fn component_start(&mut self, component: usize, strategy: Strategy, cdb: &[Pred]) {
        self.0.component_start(component, strategy, cdb);
        self.1.component_start(component, strategy, cdb);
    }
    fn round_start(&mut self, round: usize, full: bool) {
        self.0.round_start(round, full);
        self.1.round_start(round, full);
    }
    fn rule_fire_start(&mut self, rule: usize) {
        self.0.rule_fire_start(rule);
        self.1.rule_fire_start(rule);
    }
    fn rule_fire_end(&mut self, rule: usize) {
        self.0.rule_fire_end(rule);
        self.1.rule_fire_end(rule);
    }
    fn rule_firings(&mut self, rule: usize, count: u64) {
        self.0.rule_firings(rule, count);
        self.1.rule_firings(rule, count);
    }
    fn insert_outcome(&mut self, rule: usize, pred: Pred, outcome: InsertOutcome) {
        self.0.insert_outcome(rule, pred, outcome);
        self.1.insert_outcome(rule, pred, outcome);
    }
    fn delta(&mut self, pred: Pred, size: usize) {
        self.0.delta(pred, size);
        self.1.delta(pred, size);
    }
    fn round_end(&mut self, round: usize, derivations: usize, changed: usize) {
        self.0.round_end(round, derivations, changed);
        self.1.round_end(round, derivations, changed);
    }
    fn parallel_round(
        &mut self,
        round: usize,
        workers: usize,
        shard_sizes: &[usize],
        merges: u64,
        barrier_wait_nanos: u64,
    ) {
        self.0
            .parallel_round(round, workers, shard_sizes, merges, barrier_wait_nanos);
        self.1
            .parallel_round(round, workers, shard_sizes, merges, barrier_wait_nanos);
    }
    fn rule_derivations(&mut self, rule: usize, derivations: u64) {
        self.0.rule_derivations(rule, derivations);
        self.1.rule_derivations(rule, derivations);
    }
    fn aggregate_totals(&mut self, groups: u64, elements: u64, peak_bytes: u64) {
        self.0.aggregate_totals(groups, elements, peak_bytes);
        self.1.aggregate_totals(groups, elements, peak_bytes);
    }
    fn greedy_settle(&mut self, pred: Pred, key: &Tuple, cost: f64) {
        self.0.greedy_settle(pred, key, cost);
        self.1.greedy_settle(pred, key, cost);
    }
    fn optimization(&mut self, decision: &str) {
        self.0.optimization(decision);
        self.1.optimization(decision);
    }
    fn pruned(&mut self, component: usize, count: u64) {
        self.0.pruned(component, count);
        self.1.pruned(component, count);
    }
    fn component_end(&mut self, component: usize, rounds: usize) {
        self.0.component_end(component, rounds);
        self.1.component_end(component, rounds);
    }
    fn index_stats(&mut self, pred: Pred, sigs: usize, stats: IndexStats) {
        self.0.index_stats(pred, sigs, stats);
        self.1.index_stats(pred, sigs, stats);
    }
    fn relation_memory(&mut self, pred: Pred, memory: RelationMemory) {
        self.0.relation_memory(pred, memory);
        self.1.relation_memory(pred, memory);
    }
    fn wants_relation_memory(&self) -> bool {
        self.0.wants_relation_memory() || self.1.wants_relation_memory()
    }
    fn worker_tracer(&self) -> Option<crate::trace::Tracer> {
        self.0.worker_tracer().or_else(|| self.1.worker_tracer())
    }
    fn worker_meter(&self) -> Option<crate::metrics::Meter> {
        self.0.worker_meter().or_else(|| self.1.worker_meter())
    }
    fn worker_sample(&mut self, sample: &crate::metrics::WorkerSample) {
        self.0.worker_sample(sample);
        self.1.worker_sample(sample);
    }
}

/// `None` behaves exactly like [`NoopSink`]; `Some(sink)` forwards. This
/// lets callers compose an *optional* sink into a [`Fanout`] without
/// duplicating the evaluation call per configuration (the CLI's
/// `--trace` wiring).
impl<S: EventSink> EventSink for Option<S> {
    fn component_start(&mut self, component: usize, strategy: Strategy, cdb: &[Pred]) {
        if let Some(s) = self {
            s.component_start(component, strategy, cdb);
        }
    }
    fn round_start(&mut self, round: usize, full: bool) {
        if let Some(s) = self {
            s.round_start(round, full);
        }
    }
    fn rule_fire_start(&mut self, rule: usize) {
        if let Some(s) = self {
            s.rule_fire_start(rule);
        }
    }
    fn rule_fire_end(&mut self, rule: usize) {
        if let Some(s) = self {
            s.rule_fire_end(rule);
        }
    }
    fn rule_firings(&mut self, rule: usize, count: u64) {
        if let Some(s) = self {
            s.rule_firings(rule, count);
        }
    }
    fn insert_outcome(&mut self, rule: usize, pred: Pred, outcome: InsertOutcome) {
        if let Some(s) = self {
            s.insert_outcome(rule, pred, outcome);
        }
    }
    fn delta(&mut self, pred: Pred, size: usize) {
        if let Some(s) = self {
            s.delta(pred, size);
        }
    }
    fn round_end(&mut self, round: usize, derivations: usize, changed: usize) {
        if let Some(s) = self {
            s.round_end(round, derivations, changed);
        }
    }
    fn parallel_round(
        &mut self,
        round: usize,
        workers: usize,
        shard_sizes: &[usize],
        merges: u64,
        barrier_wait_nanos: u64,
    ) {
        if let Some(s) = self {
            s.parallel_round(round, workers, shard_sizes, merges, barrier_wait_nanos);
        }
    }
    fn rule_derivations(&mut self, rule: usize, derivations: u64) {
        if let Some(s) = self {
            s.rule_derivations(rule, derivations);
        }
    }
    fn aggregate_totals(&mut self, groups: u64, elements: u64, peak_bytes: u64) {
        if let Some(s) = self {
            s.aggregate_totals(groups, elements, peak_bytes);
        }
    }
    fn greedy_settle(&mut self, pred: Pred, key: &Tuple, cost: f64) {
        if let Some(s) = self {
            s.greedy_settle(pred, key, cost);
        }
    }
    fn optimization(&mut self, decision: &str) {
        if let Some(s) = self {
            s.optimization(decision);
        }
    }
    fn pruned(&mut self, component: usize, count: u64) {
        if let Some(s) = self {
            s.pruned(component, count);
        }
    }
    fn component_end(&mut self, component: usize, rounds: usize) {
        if let Some(s) = self {
            s.component_end(component, rounds);
        }
    }
    fn index_stats(&mut self, pred: Pred, sigs: usize, stats: IndexStats) {
        if let Some(s) = self {
            s.index_stats(pred, sigs, stats);
        }
    }
    fn relation_memory(&mut self, pred: Pred, memory: RelationMemory) {
        if let Some(s) = self {
            s.relation_memory(pred, memory);
        }
    }
    fn wants_relation_memory(&self) -> bool {
        self.as_ref().is_some_and(EventSink::wants_relation_memory)
    }
    fn worker_tracer(&self) -> Option<crate::trace::Tracer> {
        self.as_ref().and_then(EventSink::worker_tracer)
    }
    fn worker_meter(&self) -> Option<crate::metrics::Meter> {
        self.as_ref().and_then(EventSink::worker_meter)
    }
    fn worker_sample(&mut self, sample: &crate::metrics::WorkerSample) {
        if let Some(s) = self {
            s.worker_sample(sample);
        }
    }
}

/// Forward through a mutable reference, so an owned sink can ride a
/// [`Fanout`] by `&mut` and still be consumed (`finish()`) after the
/// evaluation returns — the CLI's `--metrics` wiring.
impl<S: EventSink + ?Sized> EventSink for &mut S {
    fn component_start(&mut self, component: usize, strategy: Strategy, cdb: &[Pred]) {
        (**self).component_start(component, strategy, cdb);
    }
    fn round_start(&mut self, round: usize, full: bool) {
        (**self).round_start(round, full);
    }
    fn rule_fire_start(&mut self, rule: usize) {
        (**self).rule_fire_start(rule);
    }
    fn rule_fire_end(&mut self, rule: usize) {
        (**self).rule_fire_end(rule);
    }
    fn rule_firings(&mut self, rule: usize, count: u64) {
        (**self).rule_firings(rule, count);
    }
    fn insert_outcome(&mut self, rule: usize, pred: Pred, outcome: InsertOutcome) {
        (**self).insert_outcome(rule, pred, outcome);
    }
    fn delta(&mut self, pred: Pred, size: usize) {
        (**self).delta(pred, size);
    }
    fn round_end(&mut self, round: usize, derivations: usize, changed: usize) {
        (**self).round_end(round, derivations, changed);
    }
    fn parallel_round(
        &mut self,
        round: usize,
        workers: usize,
        shard_sizes: &[usize],
        merges: u64,
        barrier_wait_nanos: u64,
    ) {
        (**self).parallel_round(round, workers, shard_sizes, merges, barrier_wait_nanos);
    }
    fn rule_derivations(&mut self, rule: usize, derivations: u64) {
        (**self).rule_derivations(rule, derivations);
    }
    fn aggregate_totals(&mut self, groups: u64, elements: u64, peak_bytes: u64) {
        (**self).aggregate_totals(groups, elements, peak_bytes);
    }
    fn greedy_settle(&mut self, pred: Pred, key: &Tuple, cost: f64) {
        (**self).greedy_settle(pred, key, cost);
    }
    fn optimization(&mut self, decision: &str) {
        (**self).optimization(decision);
    }
    fn pruned(&mut self, component: usize, count: u64) {
        (**self).pruned(component, count);
    }
    fn component_end(&mut self, component: usize, rounds: usize) {
        (**self).component_end(component, rounds);
    }
    fn index_stats(&mut self, pred: Pred, sigs: usize, stats: IndexStats) {
        (**self).index_stats(pred, sigs, stats);
    }
    fn relation_memory(&mut self, pred: Pred, memory: RelationMemory) {
        (**self).relation_memory(pred, memory);
    }
    fn wants_relation_memory(&self) -> bool {
        (**self).wants_relation_memory()
    }
    fn worker_tracer(&self) -> Option<crate::trace::Tracer> {
        (**self).worker_tracer()
    }
    fn worker_meter(&self) -> Option<crate::metrics::Meter> {
        (**self).worker_meter()
    }
    fn worker_sample(&mut self, sample: &crate::metrics::WorkerSample) {
        (**self).worker_sample(sample);
    }
}

/// A monotone nanosecond clock, injectable so profile tests are
/// deterministic.
pub trait Clock {
    fn now_nanos(&self) -> u64;
}

/// Wall clock: nanoseconds since construction.
#[derive(Clone, Debug)]
pub struct SystemClock(Instant);

impl SystemClock {
    pub fn new() -> Self {
        SystemClock(Instant::now())
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// A deterministic clock: every reading advances by a fixed step, so the
/// n-th call returns `(n - 1) * step`. The counter is atomic so a shared
/// `ManualClock` can be read from parallel workers (with `step == 0` every
/// reading is `0` regardless of thread interleaving, which is how the
/// parallel golden-trace tests stay byte-deterministic).
#[derive(Debug)]
pub struct ManualClock {
    now: AtomicU64,
    step: u64,
}

impl ManualClock {
    pub fn with_step(step: u64) -> Self {
        ManualClock {
            now: AtomicU64::new(0),
            step,
        }
    }
}

impl Clone for ManualClock {
    fn clone(&self) -> Self {
        ManualClock {
            now: AtomicU64::new(self.now.load(Ordering::Relaxed)),
            step: self.step,
        }
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.now.fetch_add(self.step, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_is_deterministic() {
        let c = ManualClock::with_step(7);
        assert_eq!(c.now_nanos(), 0);
        assert_eq!(c.now_nanos(), 7);
        assert_eq!(c.now_nanos(), 14);
    }

    #[test]
    fn system_clock_is_monotone() {
        let c = SystemClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn noop_sink_accepts_every_event() {
        // Also exercises the default bodies and the fanout forwarding.
        let mut s = Fanout(NoopSink, NoopSink);
        s.component_start(0, Strategy::SemiNaive, &[]);
        s.round_start(1, true);
        s.rule_fire_start(0);
        s.rule_fire_end(0);
        s.rule_firings(0, 3);
        assert!(s.worker_tracer().is_none());
        s.round_end(1, 0, 0);
        s.parallel_round(1, 2, &[3, 4], 1, 250);
        s.aggregate_totals(0, 0, 0);
        s.optimization("prem: {p} premappable — dominance pruning enabled");
        s.pruned(0, 3);
        s.component_end(0, 1);
        s.relation_memory(Pred(maglog_datalog::Sym(0)), RelationMemory::default());
    }
}
