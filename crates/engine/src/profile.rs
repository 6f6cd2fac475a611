//! Profiling built on [`EventSink`]: a [`MetricsSink`] aggregates every
//! event into a [`ProfileReport`], which renders as `maglog-profile-v1`
//! JSON ([`render_profile_json`]), a compact human summary
//! ([`ProfileReport::render_human`]), or a round-by-round fixpoint trace
//! ([`ProfileReport::render_trace`]).
//!
//! Counter semantics (see also `DESIGN.md` §4d):
//!
//! * **firings** — rule firings attempted (full-pass executions plus
//!   delta-driven driver firings surviving the per-round seed dedup).
//! * **derivations** — head derivations pushed into the round buffer,
//!   including same-key re-derivations within a round.
//! * **inserted / improved / noop** — how each distinct buffered
//!   (pred, key) changed the database when applied: a new tuple, a strict
//!   lattice improvement, or no change. A greedy round applies only the
//!   batch it settled, so each settled tuple counts once, as inserted.
//! * **nanos** — wall-clock spent inside rule firings: the sum of the
//!   rule's firing-latency histogram, so it includes the worker-timed
//!   firings of `--parallel` rounds (inject a
//!   [`crate::events::ManualClock`] for deterministic tests: nanos ==
//!   firings at step 1, sequentially).
//! * **index counters** — see [`IndexStats`]; lifetime totals per
//!   relation, reported once after evaluation.
//!
//! All collections in the report are deterministically ordered (deltas
//! and indexes sorted by predicate name, rules by program index), so two
//! runs of the same program produce identical JSON up to `nanos`.

use crate::eval::Strategy;
use crate::events::{Clock, Event, EventSink, InsertOutcome};
use crate::interp::{IndexStats, RelationMemory};
use crate::jsonish::json_str;
use crate::metrics::{Histogram, HistogramBlock, Labels, Meter, MetricSet, Unit, WorkerSample};
use crate::plan::plan_rule;
use maglog_datalog::Program;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Per-round detail rows kept per component in the report; further rounds
/// are only counted (`rounds_elided`). Keeps greedy profiles (one round
/// per settled cost batch) bounded.
const MAX_ROUND_DETAIL: usize = 64;

/// Round lines per component in [`ProfileReport::render_trace`]; further
/// rounds are summarized as elided.
const MAX_TRACE_ROUNDS: usize = 50;

/// One round's counters in a component profile.
#[derive(Clone, Debug, Default)]
pub struct RoundProfile {
    pub round: usize,
    /// Full re-firing pass (round 1, or any naive round).
    pub full: bool,
    pub firings: u64,
    /// Distinct (pred, key) derivations buffered this round.
    pub derivations: usize,
    pub inserted: u64,
    pub improved: u64,
    pub noop: u64,
    /// Tuples that changed the database this round.
    pub changed: usize,
    /// Per-predicate delta sizes, sorted by predicate name.
    pub deltas: Vec<(String, usize)>,
}

/// One component's profile.
#[derive(Clone, Debug, Default)]
pub struct ComponentProfile {
    pub component: usize,
    /// The strategy actually used (greedy falls back to semi-naive on
    /// ineligible components).
    pub strategy: &'static str,
    /// Recursive (CDB) predicate names, sorted.
    pub preds: Vec<String>,
    /// Rounds to fixpoint (for greedy components, one per batch settled at
    /// one cost, plus the closing round).
    pub rounds: usize,
    /// Detail for the first [`MAX_ROUND_DETAIL`] rounds.
    pub rounds_detail: Vec<RoundProfile>,
    /// Rounds beyond the detail cap (counted, not detailed).
    pub rounds_elided: usize,
    /// Derivations this component's optimization filters discarded (trace
    /// text; the JSON reports the run total).
    pub pruned: u64,
}

impl ComponentProfile {
    /// ` {p, q}` for the recursive predicates, or empty.
    fn preds_suffix(&self) -> String {
        if self.preds.is_empty() {
            String::new()
        } else {
            format!(" {{{}}}", self.preds.join(", "))
        }
    }
}

/// One rule's counters, with its rendered text and plan summary.
#[derive(Clone, Debug, Default)]
pub struct RuleProfile {
    /// Index into `program.rules`.
    pub rule: usize,
    pub text: String,
    pub plan: String,
    pub firings: u64,
    pub derivations: u64,
    pub inserted: u64,
    pub improved: u64,
    pub noop: u64,
    /// Wall-clock inside this rule's firings: the sum of its
    /// firing-latency histogram, worker-timed firings included.
    pub nanos: u64,
}

/// One relation's index telemetry, by predicate name.
#[derive(Clone, Debug)]
pub struct IndexProfile {
    pub pred: String,
    /// Distinct signatures indexed.
    pub sigs: usize,
    pub stats: IndexStats,
}

/// One relation's estimated heap footprint, by predicate name (see
/// [`RelationMemory`] for the per-component breakdown).
#[derive(Clone, Debug)]
pub struct MemoryProfile {
    pub pred: String,
    pub memory: RelationMemory,
}

/// Parallel-evaluator telemetry (`--parallel`), summed over every
/// parallel round of the run.
#[derive(Clone, Debug, Default)]
pub struct ParallelProfile {
    /// Worker pool size.
    pub workers: usize,
    /// Rounds executed by the parallel evaluator (components small enough
    /// to stay sequential are not counted).
    pub rounds: usize,
    /// Per-worker firing totals across all parallel rounds
    /// (`len() == workers`); the spread shows shard balance.
    pub shard_firings: Vec<u64>,
    /// Same-key derivations merged across shards at round barriers.
    pub merges: u64,
    /// Total time from the first worker finishing each round's firing
    /// phase to the last one finishing, read on the sink's meter.
    pub barrier_wait_nanos: u64,
}

/// Aggregated profile of one evaluation.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// The *requested* strategy (components record the one actually used).
    pub strategy: &'static str,
    pub components: Vec<ComponentProfile>,
    /// Rules that fired at least once, by program index.
    pub rules: Vec<RuleProfile>,
    /// Index telemetry, sorted by predicate name.
    pub indexes: Vec<IndexProfile>,
    /// Per-relation heap estimates, sorted by predicate name.
    pub memory: Vec<MemoryProfile>,
    /// Streaming aggregate accumulators created across all components.
    pub agg_groups: u64,
    /// Multiset elements folded across all accumulators.
    pub agg_elements: u64,
    /// Largest estimated live accumulator-table footprint seen by any
    /// single aggregate evaluation.
    pub agg_peak_bytes: u64,
    /// Live heap per the counting allocator when the report was taken
    /// (zero when [`crate::alloc::CountingAlloc`] is not installed).
    pub alloc_current_bytes: u64,
    /// Allocator high-water mark at report time — per-strategy when the
    /// host calls [`crate::alloc::reset_peak`] before each run.
    pub alloc_peak_bytes: u64,
    /// Optimizing-rewrite decisions (`--optimize`), one line each; empty
    /// when no rewrite ran.
    pub optimizations: Vec<String>,
    /// Derivations discarded by proven-sound optimization filters.
    pub pruned: u64,
    /// Parallel-evaluator telemetry; `None` for sequential runs.
    pub parallel: Option<ParallelProfile>,
    /// Latency-distribution summaries of [`MetricsSink::metric_set`]
    /// (attached by the host when it exports metrics; empty otherwise,
    /// and then absent from both renderings).
    pub histograms: Vec<HistogramBlock>,
}

impl ProfileReport {
    /// Sum of component rounds.
    pub fn total_rounds(&self) -> usize {
        self.components.iter().map(|c| c.rounds).sum()
    }

    pub fn total_firings(&self) -> u64 {
        self.rules.iter().map(|r| r.firings).sum()
    }

    pub fn total_derivations(&self) -> u64 {
        self.rules.iter().map(|r| r.derivations).sum()
    }

    /// Summed insert outcomes over all rules as `(inserted, improved, noop)`.
    pub fn total_outcomes(&self) -> (u64, u64, u64) {
        self.rules.iter().fold((0, 0, 0), |(a, b, c), r| {
            (a + r.inserted, b + r.improved, c + r.noop)
        })
    }

    fn total_nanos(&self) -> u64 {
        self.rules.iter().map(|r| r.nanos).sum()
    }

    /// Sum of the per-relation heap estimates (excludes the aggregate
    /// accumulators, whose peak is transient).
    pub fn total_heap_bytes(&self) -> u64 {
        self.memory.iter().map(|m| m.memory.total() as u64).sum()
    }

    /// The `maglog-profile-v1` JSON object for one strategy run (no
    /// schema wrapper — see [`render_profile_json`]).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let (inserted, improved, noop) = self.total_outcomes();
        s.push_str("{\n");
        s.push_str(&format!("      \"strategy\": {},\n", json_str(self.strategy)));
        s.push_str(&format!(
            "      \"totals\": {{\"components\": {}, \"rounds\": {}, \"firings\": {}, \
             \"derivations\": {}, \"inserted\": {}, \"improved\": {}, \"noop\": {}, \
             \"rule_nanos\": {}}},\n",
            self.components.len(),
            self.total_rounds(),
            self.total_firings(),
            self.total_derivations(),
            inserted,
            improved,
            noop,
            self.total_nanos(),
        ));
        s.push_str("      \"components\": [\n");
        for (i, c) in self.components.iter().enumerate() {
            let preds: Vec<String> = c.preds.iter().map(|p| json_str(p)).collect();
            s.push_str(&format!(
                "        {{\"component\": {}, \"strategy\": {}, \"preds\": [{}], \
                 \"rounds\": {}, \"rounds_elided\": {}, \"rounds_detail\": [",
                c.component,
                json_str(c.strategy),
                preds.join(", "),
                c.rounds,
                c.rounds_elided,
            ));
            for (j, r) in c.rounds_detail.iter().enumerate() {
                let deltas: Vec<String> = r
                    .deltas
                    .iter()
                    .map(|(p, n)| format!("{}: {}", json_str(p), n))
                    .collect();
                s.push_str(&format!(
                    "\n          {{\"round\": {}, \"full\": {}, \"firings\": {}, \
                     \"derivations\": {}, \"inserted\": {}, \"improved\": {}, \
                     \"noop\": {}, \"changed\": {}, \"deltas\": {{{}}}}}{}",
                    r.round,
                    r.full,
                    r.firings,
                    r.derivations,
                    r.inserted,
                    r.improved,
                    r.noop,
                    r.changed,
                    deltas.join(", "),
                    if j + 1 < c.rounds_detail.len() { "," } else { "" },
                ));
            }
            if !c.rounds_detail.is_empty() {
                s.push_str("\n        ");
            }
            s.push_str("]}");
            s.push_str(if i + 1 < self.components.len() { ",\n" } else { "\n" });
        }
        s.push_str("      ],\n");
        s.push_str("      \"rules\": [\n");
        for (i, r) in self.rules.iter().enumerate() {
            s.push_str(&format!(
                "        {{\"rule\": {}, \"text\": {}, \"plan\": {}, \"firings\": {}, \
                 \"derivations\": {}, \"inserted\": {}, \"improved\": {}, \"noop\": {}, \
                 \"nanos\": {}}}{}\n",
                r.rule,
                json_str(&r.text),
                json_str(&r.plan),
                r.firings,
                r.derivations,
                r.inserted,
                r.improved,
                r.noop,
                r.nanos,
                if i + 1 < self.rules.len() { "," } else { "" },
            ));
        }
        s.push_str("      ],\n");
        s.push_str("      \"indexes\": [\n");
        for (i, x) in self.indexes.iter().enumerate() {
            s.push_str(&format!(
                "        {{\"pred\": {}, \"sigs\": {}, \"probes\": {}, \"hits\": {}, \
                 \"lazy_builds\": {}, \"log_replays\": {}, \"replayed_entries\": {}, \
                 \"cow_clones\": {}}}{}\n",
                json_str(&x.pred),
                x.sigs,
                x.stats.probes,
                x.stats.hits,
                x.stats.lazy_builds,
                x.stats.log_replays,
                x.stats.replayed_entries,
                x.stats.cow_clones,
                if i + 1 < self.indexes.len() { "," } else { "" },
            ));
        }
        s.push_str("      ],\n");
        s.push_str("      \"memory\": {\n");
        s.push_str(&format!(
            "        \"alloc_current_bytes\": {},\n",
            self.alloc_current_bytes
        ));
        s.push_str(&format!(
            "        \"alloc_peak_bytes\": {},\n",
            self.alloc_peak_bytes
        ));
        s.push_str(&format!(
            "        \"relation_heap_bytes\": {},\n",
            self.total_heap_bytes()
        ));
        s.push_str(&format!(
            "        \"agg_peak_bytes\": {},\n",
            self.agg_peak_bytes
        ));
        s.push_str("        \"relations\": [\n");
        for (i, m) in self.memory.iter().enumerate() {
            s.push_str(&format!(
                "          {{\"pred\": {}, \"heap_bytes\": {}, \"tuple_bytes\": {}, \
                 \"map_bytes\": {}, \"log_bytes\": {}, \"index_bytes\": {}}}{}\n",
                json_str(&m.pred),
                m.memory.total(),
                m.memory.tuple_bytes,
                m.memory.map_bytes,
                m.memory.log_bytes,
                m.memory.index_bytes,
                if i + 1 < self.memory.len() { "," } else { "" },
            ));
        }
        s.push_str("        ]\n      },\n");
        s.push_str(&format!(
            "      \"aggregates\": {{\"groups\": {}, \"elements\": {}, \"peak_bytes\": {}}},\n",
            self.agg_groups, self.agg_elements, self.agg_peak_bytes
        ));
        if let Some(par) = &self.parallel {
            let shards: Vec<String> =
                par.shard_firings.iter().map(|n| n.to_string()).collect();
            s.push_str(&format!(
                "      \"parallel\": {{\"workers\": {}, \"rounds\": {}, \
                 \"shard_firings\": [{}], \"merges\": {}, \"barrier_wait_nanos\": {}}},\n",
                par.workers,
                par.rounds,
                shards.join(", "),
                par.merges,
                par.barrier_wait_nanos,
            ));
        }
        if !self.histograms.is_empty() {
            s.push_str("      \"histograms\": [\n");
            for (i, h) in self.histograms.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"metric\": {}, \"unit\": {}, \"count\": {}, \"p50\": {}, \
                     \"p90\": {}, \"p99\": {}, \"max\": {}}}{}\n",
                    json_str(&h.metric),
                    json_str(raw_unit_name(h.unit)),
                    h.count,
                    h.p50,
                    h.p90,
                    h.p99,
                    h.max,
                    if i + 1 < self.histograms.len() { "," } else { "" },
                ));
            }
            s.push_str("      ],\n");
        }
        let decisions: Vec<String> = self.optimizations.iter().map(|d| json_str(d)).collect();
        s.push_str(&format!(
            "      \"optimizations\": [{}],\n",
            decisions.join(", ")
        ));
        s.push_str(&format!("      \"pruned\": {}\n", self.pruned));
        s.push_str("    }");
        s
    }

    /// The human round-by-round fixpoint trace: optimization decisions,
    /// then per component its header, up to 50 round lines, the pruned
    /// count, and the round total.
    pub fn render_trace(&self) -> String {
        let mut s = String::new();
        for decision in &self.optimizations {
            s.push_str(&format!("optimize: {decision}\n"));
        }
        for c in &self.components {
            s.push_str(&format!(
                "component {} [{}]{}\n",
                c.component,
                c.strategy,
                c.preds_suffix()
            ));
            for r in c.rounds_detail.iter().take(MAX_TRACE_ROUNDS) {
                let deltas = if r.deltas.is_empty() {
                    String::new()
                } else {
                    let parts: Vec<String> =
                        r.deltas.iter().map(|(p, n)| format!("{p} +{n}")).collect();
                    format!(" | Δ {}", parts.join(", "))
                };
                s.push_str(&format!(
                    "  round {}{}: {} firing(s), {} derivation(s), {} changed{deltas}\n",
                    r.round,
                    if r.full { " (full)" } else { "" },
                    r.firings,
                    r.derivations,
                    r.changed
                ));
            }
            if c.pruned > 0 {
                s.push_str(&format!(
                    "component {}: {} derivation(s) pruned by optimization\n",
                    c.component, c.pruned
                ));
            }
            // Every round is either detailed or counted in `rounds_elided`.
            let elided = (c.rounds_detail.len() + c.rounds_elided).saturating_sub(MAX_TRACE_ROUNDS);
            if elided > 0 {
                s.push_str(&format!("  ... {elided} more round(s) elided\n"));
            }
            s.push_str(&format!("  fixpoint after {} round(s)\n", c.rounds));
        }
        s
    }

    /// A compact human summary (totals, components, per-rule counters,
    /// index telemetry).
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        let (inserted, improved, noop) = self.total_outcomes();
        s.push_str(&format!("== profile [{}] ==\n", self.strategy));
        s.push_str(&format!(
            "totals: {} component(s), {} rounds, {} firings, {} derivations \
             ({} new, {} improved, {} no-op), {} ns in rules\n",
            self.components.len(),
            self.total_rounds(),
            self.total_firings(),
            self.total_derivations(),
            inserted,
            improved,
            noop,
            self.total_nanos(),
        ));
        s.push_str("components:\n");
        for c in &self.components {
            s.push_str(&format!(
                "  #{} [{}]{}: {} round(s)\n",
                c.component,
                c.strategy,
                c.preds_suffix(),
                c.rounds
            ));
        }
        s.push_str("rules:\n");
        for r in &self.rules {
            s.push_str(&format!("  r{}: {}\n", r.rule, r.text));
            s.push_str(&format!("      plan: {}\n", r.plan));
            s.push_str(&format!(
                "      {} firings, {} derivations ({} new, {} improved, {} no-op), {} ns\n",
                r.firings, r.derivations, r.inserted, r.improved, r.noop, r.nanos
            ));
        }
        if !self.indexes.is_empty() {
            s.push_str("indexes:\n");
            for x in &self.indexes {
                s.push_str(&format!(
                    "  {}: {} sig(s), {} probes ({} hits, {} lazy builds), \
                     {} replays ({} entries), {} CoW clones\n",
                    x.pred,
                    x.sigs,
                    x.stats.probes,
                    x.stats.hits,
                    x.stats.lazy_builds,
                    x.stats.log_replays,
                    x.stats.replayed_entries,
                    x.stats.cow_clones,
                ));
            }
        }
        if !self.memory.is_empty() {
            s.push_str(&format!(
                "memory: ~{} in relations",
                fmt_bytes(self.total_heap_bytes())
            ));
            if self.alloc_peak_bytes > 0 {
                s.push_str(&format!(
                    " (allocator: {} live, {} peak)",
                    fmt_bytes(self.alloc_current_bytes),
                    fmt_bytes(self.alloc_peak_bytes),
                ));
            }
            s.push('\n');
            for m in &self.memory {
                s.push_str(&format!(
                    "  {}: ~{} (tuples {}, map {}, log {}, indexes {})\n",
                    m.pred,
                    fmt_bytes(m.memory.total() as u64),
                    fmt_bytes(m.memory.tuple_bytes as u64),
                    fmt_bytes(m.memory.map_bytes as u64),
                    fmt_bytes(m.memory.log_bytes as u64),
                    fmt_bytes(m.memory.index_bytes as u64),
                ));
            }
        }
        s.push_str(&format!(
            "aggregates: {} group(s), {} element(s), peak ~{}\n",
            self.agg_groups,
            self.agg_elements,
            fmt_bytes(self.agg_peak_bytes)
        ));
        if let Some(par) = &self.parallel {
            let shards: Vec<String> =
                par.shard_firings.iter().map(|n| n.to_string()).collect();
            s.push_str(&format!(
                "parallel: {} worker(s), {} round(s), shard firings [{}], \
                 {} barrier merge(s), {} ns waiting at barriers\n",
                par.workers,
                par.rounds,
                shards.join(", "),
                par.merges,
                par.barrier_wait_nanos,
            ));
            let max = par.shard_firings.iter().copied().max().unwrap_or(0);
            let total: u64 = par.shard_firings.iter().sum();
            if max > 0 && !par.shard_firings.is_empty() {
                let mean = total as f64 / par.shard_firings.len() as f64;
                s.push_str(&format!(
                    "shard imbalance: max/mean {:.2} (max {max}, mean {mean:.1})\n",
                    max as f64 / mean
                ));
            }
        }
        if !self.histograms.is_empty() {
            s.push_str("histograms:\n");
            for h in &self.histograms {
                let v = |x: u64| match h.unit {
                    Unit::Seconds => fmt_nanos(x),
                    Unit::Bytes => fmt_bytes(x),
                    _ => x.to_string(),
                };
                s.push_str(&format!(
                    "  {}: n={} p50={} p90={} p99={} max={}\n",
                    h.metric,
                    h.count,
                    v(h.p50),
                    v(h.p90),
                    v(h.p99),
                    v(h.max),
                ));
            }
        }
        if !self.optimizations.is_empty() || self.pruned > 0 {
            s.push_str(&format!(
                "optimizations ({} derivation(s) pruned):\n",
                self.pruned
            ));
            for d in &self.optimizations {
                s.push_str(&format!("  {d}\n"));
            }
        }
        s
    }
}

/// The unit histogram block values are *recorded* in — seconds-unit
/// families record nanoseconds (scaling happens only at OpenMetrics
/// exposition), so the profile JSON labels them honestly.
fn raw_unit_name(unit: Unit) -> &'static str {
    match unit {
        Unit::None => "",
        Unit::Seconds => "nanoseconds",
        Unit::Bytes => "bytes",
        Unit::Tuples => "tuples",
    }
}

/// Render a nanosecond count for humans: `512 ns`, `1.4 µs`, `3.2 ms`,
/// `1.5 s`.
pub fn fmt_nanos(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.1} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.1} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2} s", nanos as f64 / 1e9)
    }
}

/// Render a byte count for humans: `512 B`, `1.4 KiB`, `3.2 MiB`, …
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

/// Wrap per-strategy reports into the top-level `maglog-profile-v1`
/// document.
pub fn render_profile_json(program_label: &str, reports: &[ProfileReport]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"maglog-profile-v1\",\n");
    s.push_str(&format!("  \"program\": {},\n", json_str(program_label)));
    s.push_str("  \"strategies\": [\n");
    for (i, r) in reports.iter().enumerate() {
        s.push_str("    ");
        s.push_str(&r.to_json());
        s.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

// OpenMetrics family names and help text of the exposition.
const RULE_FIRE: &str = "maglog_rule_fire_duration_seconds";
const RULE_FIRE_HELP: &str = "Wall-clock latency of individual rule firings.";
const ROUND_DURATION: &str = "maglog_round_duration_seconds";
const ROUND_DURATION_HELP: &str = "Duration of fixpoint rounds (firing plus apply phase).";
const BARRIER_WAIT: &str = "maglog_barrier_wait_seconds";
const BARRIER_WAIT_HELP: &str =
    "Time spent waiting at the parallel round barrier (orchestrator straggler wait, and per-worker wait when labeled).";
const WORKER_FIRE: &str = "maglog_worker_fire_duration_seconds";
const WORKER_FIRE_HELP: &str = "Per-worker firing-phase duration per parallel round.";
const ROUND_BUFFER: &str = "maglog_round_buffer_tuples";
const ROUND_BUFFER_HELP: &str =
    "Distinct derivations buffered per round (the merged buffer size under --parallel).";
const HEAP_LIVE: &str = "maglog_heap_live_bytes";
const HEAP_LIVE_HELP: &str =
    "Live heap sampled at round boundaries (zero when the counting allocator is absent).";
const HEAP_PEAK: &str = "maglog_heap_peak_bytes";
const HEAP_PEAK_HELP: &str = "Allocator high-water mark at the last snapshot.";
const ROUNDS: &str = "maglog_rounds";
const ROUNDS_HELP: &str = "Fixpoint rounds executed.";
const FIRINGS: &str = "maglog_firings";
const FIRINGS_HELP: &str = "Rule firings attempted.";
const DERIVATIONS: &str = "maglog_derivations";
const DERIVATIONS_HELP: &str = "Distinct derivations buffered across all rounds.";
const MERGES: &str = "maglog_barrier_merges";
const MERGES_HELP: &str = "Same-key derivations merged across shards at round barriers.";

/// [`EventSink`] that records one evaluation: the counters and round
/// detail of a [`ProfileReport`] ([`finish`](Self::finish)) and the
/// latency/size histograms of its OpenMetrics exposition
/// ([`metric_set`](Self::metric_set)). Every timing comes from one
/// [`Meter`], so the two views cannot disagree: a rule's `nanos` is its
/// firing histogram's sum.
///
/// Sequential firings are timed by bracketing
/// [`Event::FireStart`]/[`Event::FireEnd`]; parallel shards time their
/// firings worker-locally with the same meter
/// ([`EventSink::worker_meter`]) and report once per round in
/// [`Event::ParallelRound`], so the hot loops never touch a shared lock.
/// The barrier wait, the worker histograms and the shard firings are all
/// derived from that one record.
pub struct MetricsSink<'p> {
    program: &'p Program,
    strategy: Strategy,
    meter: Meter,
    components: Vec<ComponentProfile>,
    /// Keyed by program rule index: the rule's counters (text, plan and
    /// nanos are resolved in [`finish`](Self::finish)) and its
    /// firing-latency histogram.
    rules: Vec<(usize, RuleProfile, Histogram)>,
    indexes: Vec<IndexProfile>,
    memory: Vec<MemoryProfile>,
    agg_groups: u64,
    agg_elements: u64,
    agg_peak_bytes: u64,
    optimizations: Vec<String>,
    pruned: u64,
    parallel: Option<ParallelProfile>,
    cur_round: Option<RoundProfile>,
    round_duration: Histogram,
    /// Distinct derivations buffered per round: its count is the round
    /// total and its sum the derivation total of the exposition.
    round_buffer: Histogram,
    heap_live: Histogram,
    barrier_wait: Histogram,
    /// Per-worker firing phase and barrier wait, indexed by worker.
    worker_fire: Vec<Histogram>,
    worker_wait: Vec<Histogram>,
    round_started: u64,
    fire_started: u64,
}

impl<'p> MetricsSink<'p> {
    /// Metrics with real wall-clock rule timings.
    pub fn new(program: &'p Program, strategy: Strategy) -> Self {
        Self::with_meter(program, strategy, Meter::system())
    }

    /// Metrics with an injected clock (deterministic tests).
    pub fn with_clock(
        program: &'p Program,
        strategy: Strategy,
        clock: Box<dyn Clock + Send + Sync>,
    ) -> Self {
        Self::with_meter(program, strategy, Meter::with_clock(Arc::from(clock)))
    }

    fn with_meter(program: &'p Program, strategy: Strategy, meter: Meter) -> Self {
        MetricsSink {
            program,
            strategy,
            meter,
            components: Vec::new(),
            rules: Vec::new(),
            indexes: Vec::new(),
            memory: Vec::new(),
            agg_groups: 0,
            agg_elements: 0,
            agg_peak_bytes: 0,
            optimizations: Vec::new(),
            pruned: 0,
            parallel: None,
            cur_round: None,
            round_duration: Histogram::new(),
            round_buffer: Histogram::new(),
            heap_live: Histogram::new(),
            barrier_wait: Histogram::new(),
            worker_fire: Vec::new(),
            worker_wait: Vec::new(),
            round_started: 0,
            fire_started: 0,
        }
    }

    fn rule_slot(&mut self, ri: usize) -> &mut (usize, RuleProfile, Histogram) {
        if let Some(pos) = self.rules.iter().position(|(i, ..)| *i == ri) {
            return &mut self.rules[pos];
        }
        self.rules
            .push((ri, RuleProfile::default(), Histogram::new()));
        self.rules.last_mut().unwrap()
    }

    fn rule_entry(&mut self, ri: usize) -> &mut RuleProfile {
        &mut self.rule_slot(ri).1
    }

    /// Credit `count` firings of `rule` to the rule and the current round.
    fn count_firings(&mut self, rule: usize, count: u64) {
        self.rule_entry(rule).firings += count;
        if let Some(r) = &mut self.cur_round {
            r.firings += count;
        }
    }

    /// Fold one shard's report: its firings and latency histograms per
    /// rule, and (when metered) its fire phase and barrier wait.
    fn record_worker(&mut self, sample: &WorkerSample) {
        let shards = self.parallel.as_mut().map(|p| &mut p.shard_firings);
        if let Some(slot) = shards.and_then(|s| s.get_mut(sample.worker)) {
            *slot += sample.firings();
        }
        for (ri, (n, h)) in sample.rules.iter().enumerate().filter(|(_, (n, _))| *n > 0) {
            self.count_firings(ri, *n);
            self.rule_slot(ri).2.merge(h);
        }
        let Some(r) = sample.readings else {
            return;
        };
        for (by_worker, nanos) in [
            (
                &mut self.worker_fire,
                r.fire_end.saturating_sub(r.fire_start),
            ),
            (&mut self.worker_wait, r.collect.saturating_sub(r.fire_end)),
        ] {
            if by_worker.len() <= sample.worker {
                by_worker.resize_with(sample.worker + 1, Histogram::new);
            }
            by_worker[sample.worker].record(nanos);
        }
    }

    /// The recorded histograms and work counters as OpenMetrics families.
    /// Every series carries a `strategy` label plus `labels`; per-rule
    /// series add `rule` and `head`, per-worker series `worker`. Callable
    /// after a failed evaluation, so aborted runs can be diagnosed.
    pub fn metric_set(&self, labels: &[(&str, &str)]) -> MetricSet {
        let base = |extra: &[(&str, &str)]| -> Labels {
            let mut l: Labels = [("strategy", self.strategy.name())]
                .iter()
                .chain(labels)
                .chain(extra)
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            l.sort();
            l
        };
        let mut set = MetricSet::new();
        for (ri, _, h) in self.rules.iter().filter(|(.., h)| !h.is_empty()) {
            let head = self
                .program
                .rules
                .get(*ri)
                .map(|r| self.program.pred_name(r.head.pred))
                .unwrap_or_default();
            let labels = base(&[("rule", &ri.to_string()), ("head", &head)]);
            set.merge_histogram(RULE_FIRE, RULE_FIRE_HELP, Unit::Seconds, labels, h);
        }
        for (name, help, unit, h) in [
            (ROUND_DURATION, ROUND_DURATION_HELP, Unit::Seconds, &self.round_duration),
            (ROUND_BUFFER, ROUND_BUFFER_HELP, Unit::Tuples, &self.round_buffer),
            (HEAP_LIVE, HEAP_LIVE_HELP, Unit::Bytes, &self.heap_live),
            (BARRIER_WAIT, BARRIER_WAIT_HELP, Unit::Seconds, &self.barrier_wait),
        ] {
            if !h.is_empty() {
                set.merge_histogram(name, help, unit, base(&[]), h);
            }
        }
        for (name, help, by_worker) in [
            (WORKER_FIRE, WORKER_FIRE_HELP, &self.worker_fire),
            (BARRIER_WAIT, BARRIER_WAIT_HELP, &self.worker_wait),
        ] {
            for (w, h) in by_worker.iter().enumerate() {
                let labels = base(&[("worker", &w.to_string())]);
                set.merge_histogram(name, help, Unit::Seconds, labels, h);
            }
        }
        let firings = self.rules.iter().map(|(_, r, _)| r.firings).sum();
        set.counter(ROUNDS, ROUNDS_HELP, base(&[]), self.round_buffer.count());
        set.counter(FIRINGS, FIRINGS_HELP, base(&[]), firings);
        set.counter(
            DERIVATIONS,
            DERIVATIONS_HELP,
            base(&[]),
            self.round_buffer.sum(),
        );
        let merges = self.parallel.as_ref().map_or(0, |p| p.merges);
        if merges > 0 {
            set.counter(MERGES, MERGES_HELP, base(&[]), merges);
        }
        let peak = crate::alloc::peak_bytes();
        if peak > 0 {
            set.gauge(HEAP_PEAK, HEAP_PEAK_HELP, base(&[]), peak as f64);
        }
        set
    }

    /// Consume the sink into its report, resolving rule texts and plan
    /// summaries against the program.
    pub fn finish(mut self) -> ProfileReport {
        self.rules.sort_by_key(|(ri, ..)| *ri);
        let rules = self
            .rules
            .into_iter()
            .map(|(ri, mut prof, fire)| {
                let rule = &self.program.rules[ri];
                prof.rule = ri;
                prof.text = self.program.display_rule(rule);
                prof.plan = plan_rule(self.program, rule, &BTreeSet::new(), None)
                    .map(|p| p.summary(self.program, rule))
                    .unwrap_or_else(|_| "<unplannable>".to_string());
                prof.nanos = fire.sum();
                prof
            })
            .collect();
        self.indexes.sort_by(|a, b| a.pred.cmp(&b.pred));
        self.memory.sort_by(|a, b| a.pred.cmp(&b.pred));
        ProfileReport {
            strategy: self.strategy.name(),
            components: self.components,
            rules,
            indexes: self.indexes,
            memory: self.memory,
            agg_groups: self.agg_groups,
            agg_elements: self.agg_elements,
            agg_peak_bytes: self.agg_peak_bytes,
            alloc_current_bytes: crate::alloc::current_bytes() as u64,
            alloc_peak_bytes: crate::alloc::peak_bytes() as u64,
            optimizations: self.optimizations,
            pruned: self.pruned,
            parallel: self.parallel,
            histograms: Vec::new(),
        }
    }
}

impl EventSink for MetricsSink<'_> {
    fn on(&mut self, event: &Event<'_>) {
        match *event {
            Event::ComponentStart {
                component,
                strategy,
                cdb,
            } => {
                let mut preds: Vec<String> =
                    cdb.iter().map(|p| self.program.pred_name(*p)).collect();
                preds.sort();
                self.components.push(ComponentProfile {
                    component,
                    strategy: strategy.name(),
                    preds,
                    ..Default::default()
                });
            }
            Event::RoundStart { round, full } => {
                self.round_started = self.meter.now_nanos();
                self.cur_round = Some(RoundProfile {
                    round,
                    full,
                    ..Default::default()
                });
            }
            Event::FireStart { rule } => {
                self.fire_started = self.meter.now_nanos();
                self.count_firings(rule, 1);
            }
            Event::FireEnd { rule } => {
                let elapsed = self.meter.now_nanos().saturating_sub(self.fire_started);
                self.rule_slot(rule).2.record(elapsed);
            }
            Event::Insert { rule, outcome, .. } => {
                let entry = self.rule_entry(rule);
                let slot = match outcome {
                    InsertOutcome::New => &mut entry.inserted,
                    InsertOutcome::Improved => &mut entry.improved,
                    InsertOutcome::Noop => &mut entry.noop,
                };
                *slot += 1;
                if let Some(r) = &mut self.cur_round {
                    match outcome {
                        InsertOutcome::New => r.inserted += 1,
                        InsertOutcome::Improved => r.improved += 1,
                        InsertOutcome::Noop => r.noop += 1,
                    }
                }
            }
            Event::Delta { pred, size } => {
                if let Some(r) = &mut self.cur_round {
                    r.deltas.push((self.program.pred_name(pred), size));
                }
            }
            Event::RoundEnd {
                derivations,
                changed,
                ..
            } => {
                let elapsed = self.meter.now_nanos().saturating_sub(self.round_started);
                self.round_duration.record(elapsed);
                self.round_buffer.record(derivations as u64);
                self.heap_live.record(crate::alloc::current_bytes() as u64);
                let Some(mut r) = self.cur_round.take() else {
                    return;
                };
                r.derivations = derivations;
                r.changed = changed;
                r.deltas.sort();
                if let Some(c) = self.components.last_mut() {
                    if c.rounds_detail.len() < MAX_ROUND_DETAIL {
                        c.rounds_detail.push(r);
                    } else {
                        c.rounds_elided += 1;
                    }
                }
            }
            Event::ParallelRound {
                workers,
                merges,
                samples,
                ..
            } => {
                // The straggler wait: from the first shard finishing its
                // firing phase to the last one finishing.
                let ends = || {
                    samples
                        .iter()
                        .filter_map(|s| s.readings.map(|r| r.fire_end))
                };
                let wait = ends().max().unwrap_or(0) - ends().min().unwrap_or(0);
                self.barrier_wait.record(wait);
                let par = self.parallel.get_or_insert_with(|| ParallelProfile {
                    workers,
                    shard_firings: vec![0; workers],
                    ..Default::default()
                });
                par.rounds += 1;
                par.merges += merges;
                par.barrier_wait_nanos += wait;
                for s in samples {
                    self.record_worker(s);
                }
            }
            Event::RuleDerivations { rule, derivations } => {
                self.rule_entry(rule).derivations += derivations;
            }
            Event::AggregateTotals {
                groups,
                elements,
                peak_bytes,
            } => {
                self.agg_groups += groups;
                self.agg_elements += elements;
                self.agg_peak_bytes = self.agg_peak_bytes.max(peak_bytes);
            }
            Event::Optimization { decision } => self.optimizations.push(decision.to_string()),
            Event::Pruned { count, .. } => {
                self.pruned += count;
                if let Some(c) = self.components.last_mut() {
                    c.pruned += count;
                }
            }
            Event::ComponentEnd { rounds, .. } => {
                if let Some(c) = self.components.last_mut() {
                    c.rounds = rounds;
                }
                self.cur_round = None;
            }
            Event::IndexStats { pred, sigs, stats } => self.indexes.push(IndexProfile {
                pred: self.program.pred_name(pred),
                sigs,
                stats,
            }),
            Event::RelationMemory { pred, memory } => self.memory.push(MemoryProfile {
                pred: self.program.pred_name(pred),
                memory,
            }),
        }
    }

    fn wants_relation_memory(&self) -> bool {
        true
    }

    fn worker_meter(&self) -> Option<Meter> {
        Some(self.meter.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edb::Edb;
    use crate::eval::{EvalOptions, MonotonicEngine};
    use crate::events::ManualClock;
    use maglog_datalog::parse_program;

    const TC: &str = "e(a, b). e(b, c). e(c, d).\n\
                      tc(X, Y) :- e(X, Y).\n\
                      tc(X, Y) :- tc(X, Z), e(Z, Y).";

    #[test]
    fn metrics_sink_produces_a_report() {
        let p = parse_program(TC).unwrap();
        let mut sink = MetricsSink::with_clock(
            &p,
            Strategy::SemiNaive,
            Box::new(ManualClock::with_step(1)),
        );
        MonotonicEngine::new(&p)
            .evaluate_with_sink(&Edb::new(), &mut sink)
            .unwrap();
        let report = sink.finish();
        assert_eq!(report.strategy, "seminaive");
        assert!(report.total_firings() > 0);
        assert!(report.total_rounds() > 0);
        // ManualClock at step 1: one nanosecond per firing.
        assert_eq!(report.total_nanos(), report.total_firings());
        // tc is derived: 6 tuples inserted across the run.
        let (inserted, _, _) = report.total_outcomes();
        assert_eq!(inserted, 6);
        // The recursive rule probes e's index.
        let e = report.indexes.iter().find(|x| x.pred == "e").unwrap();
        assert!(e.stats.probes > 0);
        assert!(e.stats.hits > 0);
    }

    #[test]
    fn profile_json_has_schema_and_sections() {
        let p = parse_program(TC).unwrap();
        let mut sink = MetricsSink::with_clock(
            &p,
            Strategy::SemiNaive,
            Box::new(ManualClock::with_step(1)),
        );
        MonotonicEngine::new(&p)
            .evaluate_with_sink(&Edb::new(), &mut sink)
            .unwrap();
        let json = render_profile_json("tc", &[sink.finish()]);
        assert!(json.contains("\"schema\": \"maglog-profile-v1\""));
        assert!(json.contains("\"strategies\""));
        assert!(json.contains("\"rounds_detail\""));
        assert!(json.contains("\"probes\""));
        assert!(json.contains("\"deltas\""));
    }

    #[test]
    fn trace_renders_rounds_and_fixpoint() {
        let p = parse_program(TC).unwrap();
        let mut sink = MetricsSink::new(&p, Strategy::SemiNaive);
        MonotonicEngine::new(&p)
            .evaluate_with_sink(&Edb::new(), &mut sink)
            .unwrap();
        let trace = sink.finish().render_trace();
        assert!(trace.contains("component 0"));
        assert!(trace.contains("round 1 (full)"));
        assert!(trace.contains("fixpoint after"));
        assert!(trace.contains("Δ"));
    }

    #[test]
    fn report_carries_relation_memory() {
        let p = parse_program(TC).unwrap();
        let mut sink = MetricsSink::with_clock(
            &p,
            Strategy::SemiNaive,
            Box::new(ManualClock::with_step(1)),
        );
        MonotonicEngine::new(&p)
            .evaluate_with_sink(&Edb::new(), &mut sink)
            .unwrap();
        let report = sink.finish();
        // Both relations report a breakdown whose parts sum to the total.
        assert_eq!(report.memory.len(), 2);
        for m in &report.memory {
            assert!(m.memory.tuple_bytes > 0, "{}: no tuple bytes", m.pred);
            assert!(m.memory.map_bytes > 0, "{}: no map bytes", m.pred);
            assert_eq!(
                m.memory.total(),
                m.memory.tuple_bytes
                    + m.memory.map_bytes
                    + m.memory.log_bytes
                    + m.memory.index_bytes
            );
        }
        assert!(report.total_heap_bytes() > 0);
        let json = render_profile_json("tc", &[report]);
        assert!(json.contains("\"memory\""));
        assert!(json.contains("\"heap_bytes\""));
        assert!(json.contains("\"alloc_peak_bytes\""));
    }

    #[test]
    fn parallel_runs_report_shard_telemetry() {
        let p = parse_program(TC).unwrap();
        let mut sink = MetricsSink::with_clock(
            &p,
            Strategy::SemiNaive,
            Box::new(ManualClock::with_step(1)),
        );
        MonotonicEngine::with_options(
            &p,
            EvalOptions {
                workers: 2,
                ..Default::default()
            },
        )
        .evaluate_with_sink(&Edb::new(), &mut sink)
        .unwrap();
        let report = sink.finish();
        let par = report.parallel.as_ref().expect("parallel block missing");
        assert_eq!(par.workers, 2);
        assert_eq!(par.shard_firings.len(), 2);
        assert!(par.rounds > 0);
        // Every firing happened on exactly one shard.
        assert_eq!(
            par.shard_firings.iter().sum::<u64>(),
            report.total_firings()
        );
        let human = report.render_human();
        assert!(human.contains("shard imbalance: max/mean"), "{human}");
        let json = render_profile_json("tc", &[report]);
        assert!(json.contains("\"parallel\""));
        assert!(json.contains("\"shard_firings\""));
        assert!(json.contains("\"barrier_wait_nanos\""));
    }

    #[test]
    fn sequential_runs_omit_the_parallel_block() {
        let p = parse_program(TC).unwrap();
        let mut sink = MetricsSink::with_clock(
            &p,
            Strategy::SemiNaive,
            Box::new(ManualClock::with_step(1)),
        );
        MonotonicEngine::new(&p)
            .evaluate_with_sink(&Edb::new(), &mut sink)
            .unwrap();
        let report = sink.finish();
        assert!(report.parallel.is_none());
        assert!(!render_profile_json("tc", &[report]).contains("\"parallel\""));
    }

    #[test]
    fn fmt_bytes_picks_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(1536), "1.5 KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0 MiB");
    }

    #[test]
    fn fmt_nanos_picks_units() {
        assert_eq!(fmt_nanos(512), "512 ns");
        assert_eq!(fmt_nanos(1_500), "1.5 µs");
        assert_eq!(fmt_nanos(2_500_000), "2.5 ms");
        assert_eq!(fmt_nanos(1_500_000_000), "1.50 s");
    }

    #[test]
    fn histogram_blocks_render_in_both_formats() {
        let mut report = ProfileReport {
            strategy: "seminaive",
            ..Default::default()
        };
        // Absent: neither rendering mentions histograms.
        assert!(!report.render_human().contains("histograms"));
        assert!(!report.to_json().contains("\"histograms\""));
        report.histograms = vec![
            HistogramBlock {
                metric: "maglog_round_duration_seconds".into(),
                unit: Unit::Seconds,
                count: 4,
                p50: 1_500,
                p90: 2_000,
                p99: 2_000,
                max: 2_100,
            },
            HistogramBlock {
                metric: "maglog_round_buffer_tuples".into(),
                unit: Unit::Tuples,
                count: 4,
                p50: 3,
                p90: 6,
                p99: 6,
                max: 6,
            },
        ];
        let human = report.render_human();
        assert!(human.contains("histograms:"), "{human}");
        assert!(
            human.contains("maglog_round_duration_seconds: n=4 p50=1.5 µs"),
            "{human}"
        );
        assert!(human.contains("p99=6 max=6"), "{human}");
        let json = report.to_json();
        assert!(json.contains("\"histograms\""), "{json}");
        assert!(json.contains("\"unit\": \"nanoseconds\""), "{json}");
        assert!(json.contains("\"p50\": 1500"), "{json}");
    }
}
