//! A closed-loop request benchmark for maglog.
//!
//! One client sends a workload's requests one at a time, each only after
//! the previous one returned, and checks every answer against an
//! independent baseline. The timed pass is untraced and gives the
//! end-to-end metrics; a separate traced pass gives the per-layer split.
//! See `README.md` beside this crate for the workloads, the metrics and
//! how to compare two commits.

pub mod layers;
pub mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use maglog_bench::v2::{environment, sample_stats, BenchConfig};
use maglog_engine::jsonish::JsonValue;
use maglog_engine::trace::{NameRef, MAIN_LANE};
use maglog_engine::{alloc, render_collapsed_stacks, Tracer};

use layers::{probe_static, ratio, self_times, Counters};
use workloads::{Instrument, Pass, Request, Served, Spec, Workload};

/// Schema tag of the document a run writes.
const SCHEMA: &str = "maglog-benchmark-v1";

/// The timed pass is split into this many blocks. With several
/// workloads the blocks interleave, so a noisy stretch of the host hits
/// every workload alike; the spread of the block medians is the run's
/// own noise figure.
pub const BLOCKS: usize = 10;

/// Length of each workload's timed pass, `run_seconds` in
/// `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;

/// Instances a materialize workload rotates through. The median latency
/// of one instance differs from another's by about 9% (coefficient of
/// variation); over a rotation of 64 the mean varies by about 1% from seed
/// to seed.
pub const INSTANCES: usize = 64;

const MIB: f64 = (1 << 20) as f64;

/// A metric as listed in `BENCHMARK.json`, which also records whether
/// higher or lower is better.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The end-to-end metrics, from the untraced timed pass.
pub const END_TO_END: [MetricDef; 4] = [
    def("setup_s", "s"),
    def("latency_p50_ms", "ms"),
    def("throughput_rps", "req/s"),
    def("peak_heap_mib", "MiB"),
];

/// The per-layer metrics, from the traced pass; each is per traced read.
pub const PER_LAYER: [MetricDef; 36] = [
    def("datalog.parse_ms", "ms"),
    def("analysis.check_ms", "ms"),
    def("engine.plan.plan_ms", "ms"),
    def("engine.edb.coerce_ms", "ms"),
    def("engine.edb.facts", "count"),
    def("engine.eval.pre_fixpoint_ms", "ms"),
    def("engine.eval.evaluate_ms", "ms"),
    def("engine.eval.fire_ms", "ms"),
    def("engine.eval.round_self_ms", "ms"),
    def("engine.eval.rounds", "count"),
    def("engine.eval.firings", "count"),
    def("engine.eval.derivations", "count"),
    def("engine.eval.inserted", "count"),
    def("engine.eval.improved", "count"),
    def("engine.eval.noop", "count"),
    def("engine.eval.pruned", "count"),
    def("engine.eval.useful_ratio", "ratio"),
    def("engine.interp.index_probes", "count"),
    def("engine.interp.index_hit_ratio", "ratio"),
    def("engine.interp.lazy_builds", "count"),
    def("engine.interp.log_replays", "count"),
    def("engine.interp.replayed_entries", "count"),
    def("engine.interp.cow_clones", "count"),
    def("engine.interp.relation_heap_mib", "MiB"),
    def("engine.aggregate.groups", "count"),
    def("engine.aggregate.elements", "count"),
    def("engine.aggregate.peak_kib", "KiB"),
    def("engine.par.merges", "count"),
    def("engine.par.shard_imbalance", "ratio"),
    def("engine.model.render_ms", "ms"),
    def("engine.model.tuples", "count"),
    def("engine.model.render_kib", "KiB"),
    def("engine.alloc.mib_per_request", "MiB"),
    def("bench.trace_overhead", "ratio"),
    def("bench.verify_ms", "ms"),
    def("bench.p50_block_spread", "ratio"),
];

/// How long the timed pass of each workload runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Wall-clock seconds, split evenly over the blocks.
    Seconds(f64),
    /// A fixed number of requests, split evenly over the blocks.
    Requests(usize),
}

/// What one run does.
#[derive(Clone, Debug)]
pub struct Config {
    /// Every instance and request stream derives from this seed.
    pub seed: u64,
    pub budget: Budget,
    /// Builds per workload; `setup_s` is their median.
    pub setups: usize,
    /// Run the traced pass, which gives the per-layer metrics.
    pub trace: bool,
    /// Warm-up requests per build, reads in the traced pass and instances
    /// per materialize workload; `None` keeps the benchmark's own counts.
    pub warmup: Option<usize>,
    pub traced: Option<usize>,
    pub instances: Option<usize>,
}

/// One measured figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The traced pass's artefacts.
#[derive(Clone, Debug)]
pub struct TraceArtefacts {
    /// Chrome trace-event JSON (`maglog-trace-v1`).
    pub json: String,
    /// Collapsed stacks of the same trace, for flame-graph tools.
    pub collapsed: String,
    pub events: usize,
    /// Events the tracer's buffer cap discarded.
    pub dropped: u64,
}

/// Everything one workload's run measured.
#[derive(Clone, Debug)]
pub struct Report {
    pub workload: &'static str,
    /// Requests sent after set-up, timed and traced.
    pub attempted: u64,
    /// Of those, the ones that returned an error, panicked or answered
    /// wrongly.
    pub failed: u64,
    /// Whether the set-up instance agreed with its baseline.
    pub setup_ok: bool,
    /// Requests of the timed pass.
    pub timed_requests: u64,
    pub instance_digest: u64,
    pub end_to_end: Vec<Metric>,
    /// Printed and written but not listed in `BENCHMARK.json`: the p90
    /// read latency, whose run-to-run spread on a shared host is wider
    /// than any bound the benchmark may set; the number of reads the
    /// latencies are taken over; and, when traced, the parallel
    /// evaluator's barrier-wait and merge times.
    pub reported: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    pub trace: Option<TraceArtefacts>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.setup_ok && self.failed == 0
    }

    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.reported)
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// `name`'s value, with the unit `defs` lists for it.
fn metric(defs: &[MetricDef], name: &'static str, value: f64) -> Metric {
    let d = defs
        .iter()
        .find(|d| d.name == name)
        .expect("metric is listed");
    Metric {
        name,
        unit: d.unit,
        value,
    }
}

/// Nearest-rank quantile of a non-empty sample, the rank rule
/// `sample_stats` uses for its percentiles.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Interquartile range over the median.
fn relative_iqr(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    ratio(
        quantile(samples, 0.75) - quantile(samples, 0.25),
        sample_stats(samples).median,
    )
}

/// One request as the client saw it.
struct Sent {
    secs: f64,
    /// Allocator high-water mark during the request above the live bytes
    /// before it.
    peak_heap: usize,
    /// Bytes allocated during the request.
    allocated: usize,
    /// The answer, when it was correct.
    served: Option<Served>,
}

/// One block of the timed pass.
#[derive(Clone, Debug, Default)]
struct Block {
    /// Read latencies in seconds.
    reads: Vec<f64>,
    /// Requests, writes included.
    requests: u64,
    /// Summed wall time of the requests.
    busy_secs: f64,
}

/// One workload in flight: the set-up instance and what the timed pass
/// has recorded so far.
struct WorkloadRun {
    spec: &'static Spec,
    w: Box<dyn Workload>,
    setup_secs: Vec<f64>,
    setup_ok: bool,
    verify_secs: f64,
    attempted: u64,
    failed: u64,
    blocks: Vec<Block>,
    /// Largest allocator high-water mark of a request above the live
    /// bytes before it.
    peak_heap: usize,
    /// Bytes allocated by the timed reads.
    read_allocated: usize,
}

impl WorkloadRun {
    fn setup(spec: &'static Spec, cfg: &Config) -> WorkloadRun {
        let warmup = cfg.warmup.unwrap_or(spec.warmup);
        let mut setup_secs = Vec::new();
        let mut built = None;
        for _ in 0..cfg.setups.max(1) {
            let start = Instant::now();
            let mut w = (spec.build)(cfg.seed, cfg.instances.unwrap_or(INSTANCES));
            w.start_pass(Pass::Warmup);
            for _ in 0..warmup {
                let req = w.next_request();
                std::hint::black_box(w.serve(&req, Instrument::Off).ok());
            }
            setup_secs.push(start.elapsed().as_secs_f64());
            built = Some(w);
        }
        let mut w = built.expect("at least one set-up");
        let start = Instant::now();
        let setup_ok = catch_unwind(AssertUnwindSafe(|| w.verify_setup())).unwrap_or(false);
        if !setup_ok {
            eprintln!("{}: set-up instance disagrees with its baseline", spec.name);
        }
        w.start_pass(Pass::Timed);
        WorkloadRun {
            spec,
            w,
            setup_secs,
            setup_ok,
            verify_secs: start.elapsed().as_secs_f64(),
            attempted: 0,
            failed: 0,
            blocks: vec![Block::default(); BLOCKS],
            peak_heap: 0,
            read_allocated: 0,
        }
    }

    /// Serve `req` and check the answer; neither the check nor the drop
    /// of the answer is timed.
    fn send(&mut self, req: &Request, instrument: Instrument<'_>) -> Sent {
        let live = alloc::current_bytes();
        let allocated = alloc::total_allocated_bytes();
        alloc::reset_peak();
        let start = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| self.w.serve(req, instrument)));
        let secs = start.elapsed().as_secs_f64();
        let peak_heap = alloc::peak_bytes().saturating_sub(live);
        let allocated = alloc::total_allocated_bytes().saturating_sub(allocated);
        let check = Instant::now();
        let served = match out {
            Ok(Ok(served)) if self.w.verify(req, &served.answer) => Some(served),
            Ok(Ok(_)) => {
                eprintln!("{}: wrong answer to {req:?}", self.spec.name);
                None
            }
            Ok(Err(e)) => {
                eprintln!("{}: {req:?} failed: {e}", self.spec.name);
                None
            }
            Err(_) => {
                eprintln!("{}: {req:?} panicked", self.spec.name);
                None
            }
        };
        self.verify_secs += check.elapsed().as_secs_f64();
        self.attempted += 1;
        self.failed += u64::from(served.is_none());
        Sent {
            secs,
            peak_heap,
            allocated,
            served,
        }
    }

    fn run_block(&mut self, block: usize, budget: Budget) {
        let start = Instant::now();
        let mut sent = 0;
        loop {
            let done = match budget {
                Budget::Seconds(s) => {
                    sent > 0 && start.elapsed().as_secs_f64() >= s / BLOCKS as f64
                }
                Budget::Requests(n) => sent >= n * (block + 1) / BLOCKS - n * block / BLOCKS,
            };
            if done {
                break;
            }
            sent += 1;
            let req = self.w.next_request();
            let out = self.send(&req, Instrument::Off);
            self.peak_heap = self.peak_heap.max(out.peak_heap);
            let b = &mut self.blocks[block];
            b.requests += 1;
            b.busy_secs += out.secs;
            if req.is_read() {
                b.reads.push(out.secs);
                self.read_allocated += out.allocated;
            }
        }
    }

    /// The traced pass: each read once under spans (timed, for the trace
    /// overhead), once more under the metrics sink for its counters, and
    /// then the static probes, both off the request path.
    fn traced_pass(&mut self, reads: usize) -> (Vec<f64>, Counters, Tracer) {
        let tracer = Tracer::new();
        let mut latencies = Vec::new();
        let mut counters = Counters::default();
        self.w.start_pass(Pass::Traced);
        while latencies.len() < reads {
            let req = self.w.next_request();
            tracer.begin(MAIN_LANE, "request", NameRef::Static("request"));
            let out = self.send(&req, Instrument::Spans(&tracer));
            tracer.end(MAIN_LANE, "request", NameRef::Static("request"));
            if !req.is_read() {
                continue;
            }
            latencies.push(out.secs);
            counters.reads += 1;
            if let Some(served) = out.served {
                counters.tuples += served.tuples as u64;
                counters.render_bytes += served.rendered_bytes as u64;
            }
            if let Some(Served {
                profile: Some(p), ..
            }) = self.send(&req, Instrument::Counters).served
            {
                counters.add(&p);
            }
            let (program, edb) = self.w.inputs(&req);
            counters.edb_facts += probe_static(&tracer, program, edb) as u64;
        }
        (latencies, counters, tracer)
    }

    fn report(mut self, cfg: &Config) -> Report {
        let blocks: Vec<&Block> = self.blocks.iter().filter(|b| !b.reads.is_empty()).collect();
        let reads: Vec<f64> = blocks
            .iter()
            .flat_map(|b| b.reads.iter().copied())
            .collect();
        // Medians over the blocks keep a burst of host interference that
        // hits a few blocks from moving the figure.
        let over_blocks = |f: &dyn Fn(&Block) -> f64| {
            let per_block: Vec<f64> = blocks.iter().map(|b| f(b)).collect();
            if per_block.is_empty() {
                0.0
            } else {
                sample_stats(&per_block).median
            }
        };
        let ms = |secs: f64| secs * 1e3;
        let e2e = |name, value| metric(&END_TO_END, name, value);
        let end_to_end = vec![
            e2e("setup_s", sample_stats(&self.setup_secs).median),
            e2e(
                "latency_p50_ms",
                ms(if reads.is_empty() {
                    0.0
                } else {
                    sample_stats(&reads).p50
                }),
            ),
            e2e(
                "throughput_rps",
                over_blocks(&|b| ratio(b.requests as f64, b.busy_secs)),
            ),
            e2e("peak_heap_mib", self.peak_heap as f64 / MIB),
        ];
        let mut reported = vec![
            Metric {
                name: "latency_p90_ms",
                unit: "ms",
                value: ms(if reads.is_empty() {
                    0.0
                } else {
                    sample_stats(&reads).p90
                }),
            },
            Metric {
                name: "reads",
                unit: "count",
                value: reads.len() as f64,
            },
        ];
        let untraced_p50 = end_to_end[1].value / 1e3;
        let block_medians: Vec<f64> = blocks
            .iter()
            .map(|b| sample_stats(&b.reads).median)
            .collect();
        let mib_per_read = ratio(self.read_allocated as f64 / MIB, reads.len() as f64);

        let mut per_layer = Vec::new();
        let mut trace = None;
        if cfg.trace {
            let (traced, c, tracer) = self.traced_pass(cfg.traced.unwrap_or(self.spec.traced));
            let json = tracer.render_chrome_json(self.spec.name);
            // A full buffer would undercount every self time below.
            if tracer.events_dropped() > 0 {
                eprintln!(
                    "{}: the trace dropped {} events",
                    self.spec.name,
                    tracer.events_dropped()
                );
                self.failed += 1;
            }
            // Collapsing validates the trace first.
            let collapsed = render_collapsed_stacks(&json).unwrap_or_else(|e| {
                eprintln!("{}: invalid trace: {e}", self.spec.name);
                self.failed += 1;
                String::new()
            });
            let t = self_times(&collapsed);
            let n = c.reads as f64;
            let per_read = |x: f64| ratio(x, n);
            let ns_ms = |ns: f64| per_read(ns) / 1e6;
            let traced_p50 = if traced.is_empty() {
                0.0
            } else {
                sample_stats(&traced).p50
            };
            per_layer = [
                ("datalog.parse_ms", ns_ms(t.parse)),
                ("analysis.check_ms", ns_ms(t.check)),
                ("engine.plan.plan_ms", ns_ms(t.plan)),
                ("engine.edb.coerce_ms", ns_ms(t.coerce)),
                ("engine.edb.facts", per_read(c.edb_facts as f64)),
                ("engine.eval.pre_fixpoint_ms", ns_ms(t.pre_fixpoint)),
                ("engine.eval.evaluate_ms", ns_ms(t.evaluate())),
                ("engine.eval.fire_ms", ns_ms(t.fire + t.worker_fire)),
                ("engine.eval.round_self_ms", ns_ms(t.round)),
                ("engine.eval.rounds", per_read(c.rounds as f64)),
                ("engine.eval.firings", per_read(c.firings as f64)),
                ("engine.eval.derivations", per_read(c.derivations as f64)),
                ("engine.eval.inserted", per_read(c.inserted as f64)),
                ("engine.eval.improved", per_read(c.improved as f64)),
                ("engine.eval.noop", per_read(c.noop as f64)),
                ("engine.eval.pruned", per_read(c.pruned as f64)),
                (
                    "engine.eval.useful_ratio",
                    ratio((c.inserted + c.improved) as f64, c.derivations as f64),
                ),
                (
                    "engine.interp.index_probes",
                    per_read(c.index_probes as f64),
                ),
                (
                    "engine.interp.index_hit_ratio",
                    ratio(c.index_hits as f64, c.index_probes as f64),
                ),
                ("engine.interp.lazy_builds", per_read(c.lazy_builds as f64)),
                ("engine.interp.log_replays", per_read(c.log_replays as f64)),
                (
                    "engine.interp.replayed_entries",
                    per_read(c.replayed_entries as f64),
                ),
                ("engine.interp.cow_clones", per_read(c.cow_clones as f64)),
                (
                    "engine.interp.relation_heap_mib",
                    per_read(c.relation_heap_bytes as f64) / MIB,
                ),
                ("engine.aggregate.groups", per_read(c.agg_groups as f64)),
                ("engine.aggregate.elements", per_read(c.agg_elements as f64)),
                (
                    "engine.aggregate.peak_kib",
                    c.agg_peak_bytes as f64 / 1024.0,
                ),
                ("engine.par.merges", per_read(c.merges as f64)),
                ("engine.par.shard_imbalance", c.shard_imbalance()),
                ("engine.model.render_ms", ns_ms(t.render)),
                ("engine.model.tuples", per_read(c.tuples as f64)),
                (
                    "engine.model.render_kib",
                    per_read(c.render_bytes as f64) / 1024.0,
                ),
                ("engine.alloc.mib_per_request", mib_per_read),
                (
                    "bench.trace_overhead",
                    ratio(traced_p50, untraced_p50) - 1.0,
                ),
                ("bench.verify_ms", ms(self.verify_secs)),
                ("bench.p50_block_spread", relative_iqr(&block_medians)),
            ]
            .into_iter()
            .map(|(name, value)| metric(&PER_LAYER, name, value))
            .collect();
            // Times of the parallel evaluator only: 0 on the sequential
            // workloads, so they stay out of the per-layer result line.
            reported.extend([
                Metric {
                    name: "engine.par.barrier_wait_ms",
                    unit: "ms",
                    value: per_read(c.barrier_wait_nanos as f64) / 1e6,
                },
                Metric {
                    name: "engine.par.merge_ms",
                    unit: "ms",
                    value: ns_ms(t.merge),
                },
            ]);
            trace = Some(TraceArtefacts {
                json,
                collapsed,
                events: tracer.events_recorded(),
                dropped: tracer.events_dropped(),
            });
        }
        Report {
            workload: self.spec.name,
            attempted: self.attempted,
            failed: self.failed,
            setup_ok: self.setup_ok,
            timed_requests: self.blocks.iter().map(|b| b.requests).sum(),
            instance_digest: self.w.instance_digest(),
            end_to_end,
            reported,
            per_layer,
            trace,
        }
    }
}

/// Run `specs`: set each up, then the timed pass in [`BLOCKS`] blocks,
/// interleaved across the workloads, then (when configured) each
/// workload's traced pass.
pub fn run(specs: &[&'static Spec], cfg: &Config) -> Vec<Report> {
    let mut runs: Vec<WorkloadRun> = specs.iter().map(|s| WorkloadRun::setup(s, cfg)).collect();
    for block in 0..BLOCKS {
        for r in &mut runs {
            r.run_block(block, cfg.budget);
        }
    }
    runs.into_iter().map(|r| r.report(cfg)).collect()
}

// ---------------------------------------------------------------- output

/// The one-line JSON result: the end-to-end metrics untraced, the
/// per-layer ones traced. With several workloads each metric name is
/// prefixed `<workload>/`.
pub fn render_result_line(reports: &[Report], traced: bool) -> String {
    let mut metrics = Vec::new();
    for r in reports {
        for m in if traced { &r.per_layer } else { &r.end_to_end } {
            let name = if reports.len() == 1 {
                m.name.to_string()
            } else {
                format!("{}/{}", r.workload, m.name)
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        reports.iter().all(Report::correct),
        reports.iter().map(|r| r.attempted).sum::<u64>(),
        reports.iter().map(|r| r.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

/// A human-readable table of every metric of every workload.
pub fn render_table(reports: &[Report]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&format!(
            "== {}  ({} timed requests, {} attempted, {} failed, error_rate {} fraction{})\n",
            r.workload,
            r.timed_requests,
            r.attempted,
            r.failed,
            r.error_rate(),
            if r.setup_ok { "" } else { ", SET-UP WRONG" }
        ));
        for m in r.end_to_end.iter().chain(&r.reported).chain(&r.per_layer) {
            out.push_str(&format!("  {:<34} {:>14.4} {}\n", m.name, m.value, m.unit));
        }
        if let Some(t) = &r.trace {
            out.push_str(&format!(
                "  trace: {} events, {} dropped\n",
                t.events, t.dropped
            ));
        }
    }
    out
}

/// The `maglog-benchmark-v1` document of a run.
pub fn render_document(reports: &[Report], cfg: &Config) -> String {
    let env = environment(&BenchConfig::default());
    let metrics = |ms: &[Metric]| {
        JsonValue::Arr(
            ms.iter()
                .map(|m| {
                    JsonValue::Obj(vec![
                        ("name".into(), JsonValue::str(m.name)),
                        ("unit".into(), JsonValue::str(m.unit)),
                        ("value".into(), JsonValue::Num(m.value)),
                    ])
                })
                .collect(),
        )
    };
    let budget = match cfg.budget {
        Budget::Seconds(s) => ("seconds".to_string(), JsonValue::Num(s)),
        Budget::Requests(n) => ("requests".to_string(), JsonValue::int(n as u64)),
    };
    let doc = JsonValue::Obj(vec![
        ("schema".into(), JsonValue::str(SCHEMA)),
        (
            "environment".into(),
            JsonValue::Obj(vec![
                ("commit".into(), JsonValue::str(env.commit)),
                ("rustc".into(), JsonValue::str(env.rustc)),
                ("cpus".into(), JsonValue::int(env.cpus as u64)),
                ("seed".into(), JsonValue::int(cfg.seed)),
                budget,
                ("setups".into(), JsonValue::int(cfg.setups as u64)),
                ("traced".into(), JsonValue::Bool(cfg.trace)),
                (
                    "requests".into(),
                    JsonValue::Obj(
                        reports
                            .iter()
                            .map(|r| (r.workload.to_string(), JsonValue::int(r.timed_requests)))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "workloads".into(),
            JsonValue::Arr(
                reports
                    .iter()
                    .map(|r| {
                        JsonValue::Obj(vec![
                            ("name".into(), JsonValue::str(r.workload)),
                            ("correct".into(), JsonValue::Bool(r.correct())),
                            ("attempted".into(), JsonValue::int(r.attempted)),
                            ("failed".into(), JsonValue::int(r.failed)),
                            ("error_rate".into(), JsonValue::Num(r.error_rate())),
                            ("end_to_end".into(), metrics(&r.end_to_end)),
                            ("reported".into(), metrics(&r.reported)),
                            ("per_layer".into(), metrics(&r.per_layer)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    doc.render()
}
