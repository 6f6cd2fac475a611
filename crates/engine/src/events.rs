//! Engine observability: the [`EventSink`] instrumentation interface.
//!
//! The evaluator reports its fixpoint progress — component boundaries,
//! per-round deltas, rule firings, insert outcomes, aggregate folds, and
//! index telemetry — as [`Event`] records through one [`EventSink::on`]
//! hook. The default sink, [`NoopSink`], has an empty inlined `on`, and
//! every evaluation entry point is generic over the sink, so an
//! uninstrumented run monomorphizes to exactly the code it had before this
//! layer existed: zero cost when off.
//!
//! Events carry interned ids ([`Pred`], program rule indices) rather than
//! rendered names; sinks that need text (the metrics sink in
//! [`crate::profile`]) hold a `&Program` and resolve lazily.
//!
//! Wall-clock is *not* measured by the engine. Sinks that want timings
//! bracket [`Event::FireStart`] / [`Event::FireEnd`] with their own
//! [`Clock`], which is injectable ([`ManualClock`]) so tests pin
//! deterministic values. Parallel shards read the clock only through the
//! meter a sink hands out ([`EventSink::worker_meter`]).

use crate::eval::Strategy;
use crate::interp::{IndexStats, RelationMemory};
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

/// One evaluator instrumentation event.
///
/// Event order per component: `ComponentStart`, then per round
/// `RoundStart` → (`FireStart`/`FireEnd`)* → (`Insert`)* → (`Delta`)* →
/// `RoundEnd`, where a sharded round (`--parallel`) replaces the firing
/// pairs with one `ParallelRound` that carries every shard's report; then
/// once `RuleDerivations`*,
/// `AggregateTotals`, `Pruned` (when non-zero), `ComponentEnd`. After all
/// components, `IndexStats` (and, on request, `RelationMemory`) fires once
/// per touched predicate.
#[derive(Clone, Copy, Debug)]
pub enum Event<'a> {
    /// A component's fixpoint begins. `strategy` is the strategy actually
    /// used (greedy requests fall back to semi-naive when ineligible).
    ComponentStart {
        component: usize,
        strategy: Strategy,
        cdb: &'a [Pred],
    },
    /// A `T_P` round begins. `full` = every rule re-fires from scratch
    /// (round 1, and every naive round).
    RoundStart { round: usize, full: bool },
    /// A rule firing begins. `rule` is the program rule index.
    FireStart { rule: usize },
    /// The matching rule firing completed.
    FireEnd { rule: usize },
    /// One buffered derivation was applied to the database. `rule` is the
    /// program rule index that first derived the tuple this round.
    Insert {
        rule: usize,
        pred: Pred,
        outcome: InsertOutcome,
    },
    /// `pred` contributed `size` changed tuples to this round's delta.
    Delta { pred: Pred, size: usize },
    /// The round ended: `derivations` distinct (pred, key) derivations
    /// were buffered, `changed` of them changed the database.
    RoundEnd {
        round: usize,
        derivations: usize,
        changed: usize,
    },
    /// The one barrier record of a sharded round (`--parallel` only;
    /// fired between the firing phase and the apply phase, in place of
    /// the round's firing pairs). `merges` counts the same-key collisions
    /// combined across shards at the barrier; `samples[w]` is worker `w`'s
    /// report: its firings and, when a sink handed out a meter
    /// ([`EventSink::worker_meter`]), its latency histograms and clock
    /// readings.
    ParallelRound {
        round: usize,
        workers: usize,
        merges: u64,
        samples: &'a [crate::metrics::WorkerSample],
    },
    /// Total head derivations (including same-key re-derivations) a rule
    /// attempted over the whole component. Fired once per rule at
    /// component end.
    RuleDerivations { rule: usize, derivations: u64 },
    /// Aggregate evaluation totals for the component: `groups` streaming
    /// accumulators created, `elements` multiset elements folded,
    /// `peak_bytes` the largest estimated footprint of the live
    /// accumulator table observed across the component's rounds.
    AggregateTotals {
        groups: u64,
        elements: u64,
        peak_bytes: u64,
    },
    /// An optimizing-rewrite decision (`--optimize`): one human-readable
    /// line per decision — PreM pushdown proven or refused per component,
    /// demand restriction chosen for a point query. Fired before any
    /// component evaluates (a demand skip summary follows the last one).
    Optimization { decision: &'a str },
    /// Derivations discarded by proven-sound filters (PreM dominance
    /// pruning, demand restriction) over the whole component. Fired just
    /// before `ComponentEnd`, and only when non-zero.
    Pruned { component: usize, count: u64 },
    /// The component reached its fixpoint after `rounds` rounds (for
    /// greedy components, one per batch settled at one cost, plus the
    /// closing round).
    ComponentEnd { component: usize, rounds: usize },
    /// Join-index telemetry for one predicate's relation, reported once
    /// after evaluation. `sigs` is the number of distinct signatures
    /// indexed.
    IndexStats {
        pred: Pred,
        sigs: usize,
        stats: IndexStats,
    },
    /// Estimated heap footprint of one predicate's relation, reported
    /// once after evaluation alongside `IndexStats` — but only when
    /// [`EventSink::wants_relation_memory`] returns true, since the
    /// deep-size walk behind it is O(database).
    RelationMemory { pred: Pred, memory: RelationMemory },
}

/// Receiver for evaluator instrumentation events: one [`EventSink::on`]
/// hook plus two opt-in queries the evaluator asks before doing work
/// that only some sinks want.
pub trait EventSink {
    /// Observe one event.
    fn on(&mut self, event: &Event<'_>);
    /// Opt-in gate for [`Event::RelationMemory`]; the default sink keeps
    /// evaluation free of the deep-size walk.
    fn wants_relation_memory(&self) -> bool {
        false
    }
    /// Opt-in clock for the shards under `--parallel`, asked once per
    /// sharded round: each worker's fire start, fire end and firings, and
    /// the barrier collect, are read on it and reported in
    /// [`Event::ParallelRound`]. `None` (the default) keeps the shards and
    /// the barrier free of clock reads and histogram bookkeeping.
    fn worker_meter(&self) -> Option<crate::metrics::Meter> {
        None
    }
}

/// The default sink: does nothing, compiles to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl EventSink for NoopSink {
    #[inline(always)]
    fn on(&mut self, _event: &Event<'_>) {}
}

/// Broadcast every event to two sinks (e.g. a span and a metrics sink in
/// the same run). Nest for more than two. The shards are timed on the
/// first arm's meter, so a span sink goes first: its worker lanes then
/// share its clock, and both arms read the same barrier record.
#[derive(Debug)]
pub struct Fanout<A, B>(pub A, pub B);

impl<A: EventSink, B: EventSink> EventSink for Fanout<A, B> {
    fn on(&mut self, event: &Event<'_>) {
        self.0.on(event);
        self.1.on(event);
    }
    fn wants_relation_memory(&self) -> bool {
        self.0.wants_relation_memory() || self.1.wants_relation_memory()
    }
    fn worker_meter(&self) -> Option<crate::metrics::Meter> {
        self.0.worker_meter().or_else(|| self.1.worker_meter())
    }
}

/// `None` behaves exactly like [`NoopSink`]; `Some(sink)` forwards. This
/// lets callers compose an *optional* sink into a [`Fanout`] without
/// duplicating the evaluation call per configuration (the CLI's
/// `--trace` wiring).
impl<S: EventSink> EventSink for Option<S> {
    fn on(&mut self, event: &Event<'_>) {
        if let Some(s) = self {
            s.on(event);
        }
    }
    fn wants_relation_memory(&self) -> bool {
        self.as_ref().is_some_and(EventSink::wants_relation_memory)
    }
    fn worker_meter(&self) -> Option<crate::metrics::Meter> {
        self.as_ref().and_then(EventSink::worker_meter)
    }
}

/// Forward through a mutable reference, so an owned sink can ride a
/// [`Fanout`] by `&mut` and still be consumed (`finish()`) after the
/// evaluation returns — the CLI's `--metrics` wiring.
impl<S: EventSink + ?Sized> EventSink for &mut S {
    fn on(&mut self, event: &Event<'_>) {
        (**self).on(event);
    }
    fn wants_relation_memory(&self) -> bool {
        (**self).wants_relation_memory()
    }
    fn worker_meter(&self) -> Option<crate::metrics::Meter> {
        (**self).worker_meter()
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

    /// Records every event as text. It hands out no meter, so the barrier
    /// record carries no clock readings and every field is deterministic.
    #[derive(Default)]
    struct Recorder(Vec<String>);

    impl EventSink for Recorder {
        fn on(&mut self, event: &Event<'_>) {
            self.0.push(format!("{event:?}"));
        }
    }

    impl Recorder {
        /// The recorded sequence with each run of same-kind events sorted:
        /// insert, delta and index events follow hash-map order, which
        /// differs between evaluations.
        fn canonical(mut self) -> Vec<String> {
            let kind = |e: &String| e.split([' ', '(']).next().unwrap_or_default().to_string();
            let mut start = 0;
            while start < self.0.len() {
                let k = kind(&self.0[start]);
                let end = start + self.0[start..].iter().take_while(|e| kind(e) == k).count();
                self.0[start..end].sort();
                start = end;
            }
            self.0
        }
    }

    #[test]
    fn wrappers_forward_every_event_and_query() {
        use crate::edb::Edb;
        use crate::eval::{EvalOptions, MonotonicEngine};
        use crate::profile::MetricsSink;
        use crate::trace::{SpanSink, Tracer};
        use maglog_datalog::parse_program;

        let p = parse_program(
            "e(a, b). e(b, c). e(c, d). e(d, a).\n\
             tc(X, Y) :- e(X, Y).\n\
             tc(X, Y) :- tc(X, Z), e(Z, Y).",
        )
        .unwrap();
        let engine = MonotonicEngine::with_options(
            &p,
            EvalOptions {
                workers: 2,
                ..Default::default()
            },
        );
        let mut alone = Recorder::default();
        engine.evaluate_with_sink(&Edb::new(), &mut alone).unwrap();
        let (mut a, mut b) = (Recorder::default(), Recorder::default());
        engine
            .evaluate_with_sink(&Edb::new(), &mut Fanout(Some(&mut a), &mut b))
            .unwrap();
        assert_eq!(a.0, b.0, "both fanout arms see one sequence");
        let alone = alone.canonical();
        // Each barrier record carries both shards' reports, and the
        // shards' firings reach the sink through them: the full first
        // round fires each rule once, on its own shard.
        let rounds: Vec<_> = alone
            .iter()
            .filter(|e| e.starts_with("ParallelRound"))
            .collect();
        assert!(!rounds.is_empty(), "{alone:?}");
        assert!(
            rounds
                .iter()
                .all(|e| e.contains("worker: 0") && e.contains("worker: 1")),
            "{rounds:?}"
        );
        assert!(
            rounds.iter().any(|e| e.contains("rules: [(1")),
            "{rounds:?}"
        );
        assert_eq!(a.canonical(), alone);

        // Each opt-in query resolves through `Option`, `&mut` and either
        // arm of a `Fanout`, and stays off for the no-op sink.
        let mut metrics = MetricsSink::new(&p, Strategy::SemiNaive);
        let mut spans = SpanSink::new(&p, Tracer::new());
        assert!(Fanout(NoopSink, Some(&mut metrics)).wants_relation_memory());
        assert!(Fanout(&mut spans, NoopSink).worker_meter().is_some());
        assert!(Fanout(NoopSink, Fanout(None::<NoopSink>, &mut metrics))
            .worker_meter()
            .is_some());
        let off = Fanout(Some(NoopSink), Fanout(None::<MetricsSink>, &mut NoopSink));
        assert!(!off.wants_relation_memory());
        assert!(off.worker_meter().is_none());
    }
}
