//! Sharding support for the round loop: the deterministic seed-to-shard
//! assignment and the worker-side event tally.
//!
//! Every round of a naive or semi-naive component runs through one round
//! loop in `eval.rs`; sequential evaluation is its one-shard case. With
//! `--parallel[=N]` each round's firing phase splits into `N` shards on
//! scoped threads: every shard walks the full round delta but fires only
//! the seeds whose hash lands in it ([`shard_of`]). A given seed always
//! hashes to the same shard, so shard-local seed dedup is global dedup and
//! the union of the shard firings is exactly the one-shard firing set. The
//! shards' round buffers meet at the round barrier, where a key buffered by
//! several shards combines by the same rule a single buffer applies to a
//! repeated push, so the merged buffer is the one-shard buffer.

use crate::events::{Event, EventSink};
use crate::metrics::{BarrierReadings, Meter, WorkerSample};
use crate::value::Value;
use maglog_datalog::Var;
use std::hash::{Hash, Hasher};

/// Worker count actually available on this machine (the `--parallel`
/// default, and the meaning of `workers == 0` in
/// [`EvalOptions`](crate::eval::EvalOptions)).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve a requested worker count: `0` means "use the machine".
pub fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        available_workers()
    } else {
        requested
    }
}

/// The shard (worker index in `0..workers`) that owns a semi-naive seed.
///
/// The hash runs over the same `(exec slot, driver discriminator, sorted
/// seed binding)` triple the round loop deduplicates on, through
/// `DefaultHasher::new()` — SipHash with fixed keys, so the assignment is
/// stable within a run and across runs of the same binary. Determinism of
/// the *result* never depends on the hash values: any assignment yields
/// the same model, this one just makes runs reproducible to observe.
pub(crate) fn shard_of(
    exec_index: usize,
    disc: u64,
    seed: &[(Var, Value)],
    workers: usize,
) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    exec_index.hash(&mut h);
    disc.hash(&mut h);
    seed.hash(&mut h);
    (h.finish() % workers as u64) as usize
}

/// Worker-side event sink: builds the shard's [`WorkerSample`] for the
/// round's barrier record. Shard threads cannot share the caller's sink
/// (it is `&mut` on the calling thread), so each counts its firings per
/// program rule. When the caller's sink hands out a [`Meter`], the tally
/// also reads it around the firing phase and times each firing into a
/// worker-local [`Histogram`](crate::metrics::Histogram) — per-firing
/// *ordering* is meaningless under interleaving, but the latency
/// *distribution* is exactly what the sinks want, and histograms merge
/// losslessly.
#[derive(Debug)]
pub(crate) struct FireTally {
    meter: Option<Meter>,
    started: u64,
    sample: WorkerSample,
}

impl FireTally {
    /// Open worker `worker`'s firing phase (reading the meter, if any).
    pub(crate) fn new(worker: usize, meter: Option<Meter>) -> FireTally {
        let readings = meter.as_ref().map(|m| BarrierReadings {
            fire_start: m.now_nanos(),
            ..BarrierReadings::default()
        });
        FireTally {
            meter,
            started: 0,
            sample: WorkerSample {
                worker,
                rules: Vec::new(),
                readings,
            },
        }
    }

    /// Close the firing phase; the orchestrator stamps the barrier's
    /// `collect` reading.
    pub(crate) fn finish(mut self) -> WorkerSample {
        if let (Some(m), Some(r)) = (&self.meter, &mut self.sample.readings) {
            r.fire_end = m.now_nanos();
        }
        self.sample
    }

    fn rule(&mut self, rule: usize) -> &mut (u64, crate::metrics::Histogram) {
        if self.sample.rules.len() <= rule {
            self.sample.rules.resize_with(rule + 1, Default::default);
        }
        &mut self.sample.rules[rule]
    }
}

impl EventSink for FireTally {
    fn on(&mut self, event: &Event<'_>) {
        match *event {
            Event::FireStart { rule } => {
                self.rule(rule).0 += 1;
                if let Some(m) = &self.meter {
                    self.started = m.now_nanos();
                }
            }
            Event::FireEnd { rule } => {
                if let Some(m) = &self.meter {
                    let elapsed = m.now_nanos().saturating_sub(self.started);
                    self.rule(rule).1.record(elapsed);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maglog_datalog::Sym;

    #[test]
    fn shard_assignment_is_deterministic_and_in_range() {
        let seed = vec![
            (Var(Sym(3)), Value::num(1.0)),
            (Var(Sym(7)), Value::num(2.5)),
        ];
        for workers in 1..=8 {
            let s = shard_of(2, 1022, &seed, workers);
            assert!(s < workers);
            assert_eq!(s, shard_of(2, 1022, &seed, workers));
        }
        // Every component of the triple discriminates.
        assert!(
            (0..64).any(|i| shard_of(i, 0, &seed, 8) != shard_of(0, 0, &seed, 8))
                || (0..64).any(|d| shard_of(0, d, &seed, 8) != shard_of(0, 0, &seed, 8))
        );
    }

    #[test]
    fn shards_spread_across_workers() {
        // 256 distinct seeds over 4 workers: every worker owns some.
        let mut owned = [0usize; 4];
        for i in 0..256 {
            let seed = vec![(Var(Sym(0)), Value::num(i as f64))];
            owned[shard_of(0, 1023, &seed, 4)] += 1;
        }
        assert!(owned.iter().all(|&n| n > 0), "degenerate spread: {owned:?}");
    }

    #[test]
    fn fire_tally_counts_per_rule() {
        let mut t = FireTally::new(1, None);
        t.on(&Event::FireStart { rule: 3 });
        t.on(&Event::FireStart { rule: 3 });
        t.on(&Event::FireStart { rule: 5 });
        t.on(&Event::FireEnd { rule: 3 }); // ends are not counted
        let sample = t.finish();
        assert_eq!(sample.worker, 1);
        assert_eq!(sample.rules[3].0, 2);
        assert_eq!(sample.rules[5].0, 1);
        assert_eq!(sample.rules[0].0, 0);
        assert_eq!(sample.firings(), 3);
        // Unmetered: no readings and no latency histograms.
        assert_eq!(sample.readings, None);
        assert!(sample.rules.iter().all(|(_, h)| h.is_empty()));
    }

    #[test]
    fn metered_fire_tally_times_each_firing() {
        use crate::events::ManualClock;
        use std::sync::Arc;
        let meter = Meter::with_clock(Arc::new(ManualClock::with_step(10)));
        let mut t = FireTally::new(0, Some(meter)); // clock: 0
        t.on(&Event::FireStart { rule: 3 }); // clock: 10
        t.on(&Event::FireEnd { rule: 3 }); // clock: 20 → elapsed 10
        t.on(&Event::FireStart { rule: 5 }); // clock: 30
        t.on(&Event::FireEnd { rule: 5 }); // clock: 40 → elapsed 10
        let sample = t.finish(); // clock: 50
        assert_eq!(sample.rules[3].0, 1);
        assert_eq!(sample.rules[3].1.max(), Some(10));
        assert_eq!(sample.rules[5].1.count(), 1);
        assert!(sample.rules[4].1.is_empty());
        let r = sample.readings.expect("metered");
        assert_eq!((r.fire_start, r.fire_end, r.collect), (0, 50, 0));
    }
}
