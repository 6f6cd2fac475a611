//! The per-layer split of the traced pass: self times from the spans,
//! counters from the engine's metrics sink, and the static-layer probes.
//!
//! Every figure is per traced read, so the layers of one workload add up
//! against that workload's read latency.

use std::collections::BTreeSet;

use maglog_analysis::check_program;
use maglog_datalog::Program;
use maglog_engine::plan::plan_rule;
use maglog_engine::trace::{NameRef, MAIN_LANE};
use maglog_engine::{Edb, ProfileReport, Tracer};

use crate::workloads::span;

/// Nanoseconds of self time per layer, summed over a whole trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTimes {
    pub parse: f64,
    pub check: f64,
    pub plan: f64,
    pub coerce: f64,
    /// The `engine.eval` span minus its component spans: the static
    /// battery, fact load, demand plan and model assembly.
    pub pre_fixpoint: f64,
    /// Component spans minus their rounds.
    pub component: f64,
    /// Round spans minus their rule and merge spans: apply, delta and
    /// index catch-up (and, at 2 workers, the barrier wait).
    pub round: f64,
    /// Main-lane rule spans: join probes plus aggregate folds.
    pub fire: f64,
    /// Main-lane merge spans of the parallel evaluator.
    pub merge: f64,
    pub render: f64,
    /// `fire` spans on the parallel workers' lanes, where the rules of a
    /// 2-worker evaluation fire.
    pub worker_fire: f64,
}

impl LayerTimes {
    /// The whole fixpoint: every component span, on the main lane.
    pub fn evaluate(&self) -> f64 {
        self.component + self.round + self.fire + self.merge
    }
}

/// Sort the collapsed stacks of a trace (`lane;frame;… <self ns>` per
/// line, as `render_collapsed_stacks` writes them) into layers by the
/// frame that owns the self time.
pub fn self_times(collapsed: &str) -> LayerTimes {
    let mut t = LayerTimes::default();
    for line in collapsed.lines() {
        let Some((path, ns)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(ns) = ns.parse::<f64>() else { continue };
        let frames: Vec<&str> = path.split(';').collect();
        let (lane, leaf) = (frames[0], frames[frames.len() - 1]);
        let slot = if lane != "main" {
            match leaf {
                "fire" => &mut t.worker_fire,
                _ => continue,
            }
        } else if frames.iter().any(|f| f.starts_with("component ")) {
            match leaf {
                "round" => &mut t.round,
                "merge" => &mut t.merge,
                l if l.starts_with("component ") => &mut t.component,
                _ => &mut t.fire,
            }
        } else {
            match leaf {
                "datalog.parse" => &mut t.parse,
                "analysis.check" => &mut t.check,
                "engine.plan" => &mut t.plan,
                "engine.edb.coerce" => &mut t.coerce,
                "engine.eval" => &mut t.pre_fixpoint,
                "engine.model.render" => &mut t.render,
                _ => continue,
            }
        };
        *slot += ns;
    }
    t
}

/// Time the static layers the evaluator runs before any fixpoint, off the
/// request path: the analysis battery, planning every rule, and EDB
/// coercion. Returns the number of facts loaded (inline plus EDB).
pub fn probe_static(tracer: &Tracer, program: &Program, edb: &Edb) -> usize {
    let t = Some(tracer);
    tracer.begin(MAIN_LANE, "probe", NameRef::Static("probe"));
    std::hint::black_box(span(t, "analysis.check", || check_program(program)));
    span(t, "engine.plan", || {
        for rule in &program.rules {
            std::hint::black_box(plan_rule(program, rule, &BTreeSet::new(), None).ok());
        }
    });
    let coerced = span(t, "engine.edb.coerce", || {
        edb.coerced(program).map_or(0, |f| f.len())
    });
    tracer.end(MAIN_LANE, "probe", NameRef::Static("probe"));
    program.facts.len() + coerced
}

/// Counters of the traced reads, summed.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub reads: u64,
    pub rounds: u64,
    pub firings: u64,
    pub derivations: u64,
    pub inserted: u64,
    pub improved: u64,
    pub noop: u64,
    pub pruned: u64,
    pub index_probes: u64,
    pub index_hits: u64,
    pub lazy_builds: u64,
    pub log_replays: u64,
    pub replayed_entries: u64,
    pub cow_clones: u64,
    pub relation_heap_bytes: u64,
    pub agg_groups: u64,
    pub agg_elements: u64,
    /// Largest accumulator table of any read.
    pub agg_peak_bytes: u64,
    pub barrier_wait_nanos: u64,
    pub merges: u64,
    /// Firings per parallel worker.
    pub shard_firings: Vec<u64>,
    pub tuples: u64,
    pub render_bytes: u64,
    pub edb_facts: u64,
}

impl Counters {
    /// Add one read's metrics-sink report.
    pub fn add(&mut self, report: &ProfileReport) {
        let (inserted, improved, noop) = report.total_outcomes();
        self.rounds += report.total_rounds() as u64;
        self.firings += report.total_firings();
        self.derivations += report.total_derivations();
        self.inserted += inserted;
        self.improved += improved;
        self.noop += noop;
        self.pruned += report.pruned;
        for ix in &report.indexes {
            self.index_probes += ix.stats.probes;
            self.index_hits += ix.stats.hits;
            self.lazy_builds += ix.stats.lazy_builds;
            self.log_replays += ix.stats.log_replays;
            self.replayed_entries += ix.stats.replayed_entries;
            self.cow_clones += ix.stats.cow_clones;
        }
        self.relation_heap_bytes += report.total_heap_bytes();
        self.agg_groups += report.agg_groups;
        self.agg_elements += report.agg_elements;
        self.agg_peak_bytes = self.agg_peak_bytes.max(report.agg_peak_bytes);
        if let Some(par) = &report.parallel {
            self.barrier_wait_nanos += par.barrier_wait_nanos;
            self.merges += par.merges;
            self.shard_firings
                .resize(par.shard_firings.len().max(self.shard_firings.len()), 0);
            for (sum, n) in self.shard_firings.iter_mut().zip(&par.shard_firings) {
                *sum += n;
            }
        }
    }

    /// Largest worker's firings over the mean worker's (1 = balanced; 0
    /// when no round ran in parallel).
    pub fn shard_imbalance(&self) -> f64 {
        let total: u64 = self.shard_firings.iter().sum();
        let max = self.shard_firings.iter().copied().max().unwrap_or(0);
        ratio(max as f64 * self.shard_firings.len() as f64, total as f64)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maglog_engine::trace::Ph;
    use maglog_engine::{render_collapsed_stacks, ManualClock};

    /// A hand-built request: parse, then an evaluation with one component
    /// of one round of one rule firing, then render; plus one worker lane
    /// and a probe.
    #[test]
    fn self_time_is_span_minus_children() {
        let t = Tracer::with_clock(Box::new(ManualClock::with_step(0)));
        let ev = |ts: u64, lane: u32, ph: Ph, name: &'static str| {
            let name = if name.starts_with("component") || name.starts_with("r0") {
                t.intern(name)
            } else {
                NameRef::Static(name)
            };
            t.push_at(ts, lane, ph, "test", name, Vec::new());
        };
        ev(0, MAIN_LANE, Ph::Begin, "request");
        ev(0, MAIN_LANE, Ph::Begin, "datalog.parse");
        ev(100, MAIN_LANE, Ph::End, "datalog.parse");
        ev(100, MAIN_LANE, Ph::Begin, "engine.eval");
        ev(200, MAIN_LANE, Ph::Begin, "component 0 [seminaive] s");
        ev(250, MAIN_LANE, Ph::Begin, "round");
        ev(300, MAIN_LANE, Ph::Begin, "r0 s(X) :- e(X).");
        ev(500, MAIN_LANE, Ph::End, "r0 s(X) :- e(X).");
        ev(600, MAIN_LANE, Ph::Begin, "merge");
        ev(650, MAIN_LANE, Ph::End, "merge");
        ev(750, MAIN_LANE, Ph::End, "round");
        t.push_at(
            760,
            MAIN_LANE,
            Ph::Counter,
            "counter",
            NameRef::Static("heap"),
            vec![("live", 1)],
        );
        ev(800, MAIN_LANE, Ph::End, "component 0 [seminaive] s");
        ev(900, MAIN_LANE, Ph::End, "engine.eval");
        ev(900, MAIN_LANE, Ph::Begin, "engine.model.render");
        ev(1000, MAIN_LANE, Ph::End, "engine.model.render");
        ev(1000, MAIN_LANE, Ph::End, "request");
        ev(1000, MAIN_LANE, Ph::Begin, "probe");
        ev(1000, MAIN_LANE, Ph::Begin, "analysis.check");
        ev(1030, MAIN_LANE, Ph::End, "analysis.check");
        ev(1030, MAIN_LANE, Ph::End, "probe");
        ev(260, 1, Ph::Begin, "fire");
        ev(460, 1, Ph::End, "fire");
        ev(460, 1, Ph::Begin, "barrier-wait");
        ev(560, 1, Ph::End, "barrier-wait");

        let collapsed = render_collapsed_stacks(&t.render_chrome_json("unit")).unwrap();
        let got = self_times(&collapsed);
        assert_eq!(
            got,
            LayerTimes {
                parse: 100.0,
                check: 30.0,
                pre_fixpoint: 200.0,
                component: 100.0,
                round: 250.0,
                fire: 200.0,
                merge: 50.0,
                render: 100.0,
                worker_fire: 200.0,
                ..LayerTimes::default()
            }
        );
        assert_eq!(got.evaluate(), 600.0);
    }

    #[test]
    fn shard_imbalance_is_max_over_mean() {
        let c = Counters {
            shard_firings: vec![30, 10],
            ..Counters::default()
        };
        assert_eq!(c.shard_imbalance(), 1.5);
        assert_eq!(Counters::default().shard_imbalance(), 0.0);
    }
}
