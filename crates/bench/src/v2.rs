//! The `maglog bench` harness: statistically sound measurement with
//! regression gating (the `maglog-bench-v2` schema). It is the one place
//! in the workspace that times workloads.
//!
//! Each (workload, size, strategy) cell is measured as: `warmup` untimed
//! runs (the last one doubles as the peak-heap run, bracketed by
//! [`maglog_engine::alloc::reset_peak`]), then `samples` timed runs
//! summarized by **median**, **min**, and **MAD** (median absolute
//! deviation — robust against scheduler noise, unlike mean/stddev), then
//! one untimed instrumented run for the work counters (firings,
//! derivations). Throughput is tuples-per-second and
//! derivations-per-second at the median. Each (workload, size) cell also
//! times its `reference`: the direct algorithm from `maglog-baselines`
//! that answers the same question on the same instance, through the same
//! sample loop.
//!
//! The regression gate diffs a committed `maglog-bench-v2` baseline
//! against the current run with [`maglog_engine::diff_texts`] and flags
//! every strategy cell whose median regressed past the threshold.

use std::time::Instant;

use maglog_baselines::direct::{
    all_pairs_dijkstra, company_control, eval_circuit_minimal, party_attendance,
};
use maglog_datalog::Program;
use maglog_engine::trace::MAIN_LANE;
use maglog_engine::jsonish::JsonValue;
use maglog_engine::{
    alloc, diff_texts, fmt_bytes, DiffEntry, Edb, EvalOptions, Fanout, MetricSet, MetricsSink,
    Model, MonotonicEngine, Optimize, ProfileReport, SpanSink, Strategy, Tracer,
};
use maglog_workloads::{
    programs, random_circuit, random_digraph, random_ownership, random_party,
};

use crate::{fmt_secs, program};

/// Strategy labels in measurement order (also the JSON field order).
pub const STRATEGIES: [&str; 3] = ["seminaive", "naive", "greedy"];

// ---------------------------------------------------------------- registry

/// One benchmarkable workload: a paper program plus a seeded instance
/// generator. The sizes and seeds have stayed the same since the first
/// bench schema, so numbers stay comparable across versions.
pub struct Workload {
    pub name: &'static str,
    pub sizes: &'static [usize],
    builder: fn(usize) -> Instance,
}

impl Workload {
    /// Build the instance for `size`. Deterministic: the generator seed is
    /// a function of the size.
    pub fn build(&self, size: usize) -> Instance {
        (self.builder)(size)
    }
}

/// A workload instance: the program, its EDB, and the direct algorithm
/// that computes the same answer without the engine.
pub struct Instance {
    pub program: Program,
    pub edb: Edb,
    /// Name of the direct algorithm in `maglog_baselines::direct`.
    pub reference: &'static str,
    solve: Box<dyn Fn()>,
}

impl Instance {
    fn new<T>(
        program: Program,
        edb: Edb,
        reference: &'static str,
        solve: impl Fn() -> T + 'static,
    ) -> Instance {
        Instance {
            program,
            edb,
            reference,
            solve: Box::new(move || drop(std::hint::black_box(solve()))),
        }
    }
}

fn build_shortest_path(n: usize) -> Instance {
    let p = program(programs::SHORTEST_PATH);
    let g = random_digraph(n, 3.0, (1.0, 9.0), 77 + n as u64);
    let edb = g.to_edb(&p);
    Instance::new(p, edb, "all_pairs_dijkstra", move || {
        all_pairs_dijkstra(g.n, &g.arcs)
    })
}

fn build_company_control(n: usize) -> Instance {
    let p = program(programs::COMPANY_CONTROL);
    let inst = random_ownership(n, 4, 0.5, 0.3, 99 + n as u64);
    let edb = inst.to_edb(&p);
    Instance::new(p, edb, "company_control", move || {
        company_control(inst.n, &inst.shares)
    })
}

fn build_circuit(gates: usize) -> Instance {
    let p = program(programs::CIRCUIT);
    let inst = random_circuit(16, gates, 2, 0.3, 7 + gates as u64);
    let edb = inst.to_edb(&p);
    // The gate-list conversion is setup, not part of the timed solve.
    let circuit = inst.to_circuit();
    Instance::new(p, edb, "eval_circuit_minimal", move || {
        eval_circuit_minimal(&circuit)
    })
}

fn build_party(n: usize) -> Instance {
    let p = program(programs::PARTY);
    let inst = random_party(n, 6.0, 0.15, 13 + n as u64);
    let edb = inst.to_edb(&p);
    Instance::new(p, edb, "party_attendance", move || {
        party_attendance(&inst.knows, &inst.requires)
    })
}

/// The benchmark matrix, smallest sizes first within each workload.
pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "shortest_path",
        sizes: &[16, 32, 64],
        builder: build_shortest_path,
    },
    Workload {
        name: "company_control",
        sizes: &[16, 32, 64],
        builder: build_company_control,
    },
    Workload {
        name: "circuit",
        sizes: &[64, 256, 1024],
        builder: build_circuit,
    },
    Workload {
        name: "party",
        sizes: &[64, 256, 1024],
        builder: build_party,
    },
];

// ---------------------------------------------------------------- config

/// Harness configuration (what `maglog bench` flags parse into).
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Timed samples per (workload, size, strategy) cell; at least 1.
    pub samples: usize,
    /// Untimed warm-up runs before sampling (0 allowed; the peak-heap
    /// run always happens and warms the cell anyway).
    pub warmup: usize,
    /// Workload-name filter; empty means every workload.
    pub workloads: Vec<String>,
    /// Size filter; empty means every size of each selected workload.
    pub sizes: Vec<usize>,
    /// Proven rewrites to enable (`maglog bench --optimize[=prem,demand]`).
    /// When any rewrite is on, each cell additionally records the pruned
    /// derivation count and an unoptimized derivation figure from one
    /// extra untimed run, so the win is visible in the document.
    pub optimize: Optimize,
    /// Requested worker count (`maglog bench --parallel[=N]`), recorded as
    /// `environment.workers`: the top of the scaling curve, which
    /// [`scaling_curve`] derives from it. Strategy cells always time the
    /// sequential evaluator; only `scaling` runs sharded.
    pub workers: usize,
    /// Span tracer attached to each cell's untimed *instrumented* run
    /// (`maglog bench --trace`). Timed samples always run untraced, so
    /// tracing never perturbs the medians; `None` records nothing.
    pub trace: Option<Tracer>,
    /// Export the instrumented runs' latency/size histograms
    /// (`maglog bench --metrics`) into [`WorkloadMeasurement::metrics`],
    /// one series set per (workload, size, strategy) label combination.
    /// Timed samples stay uninstrumented, like `trace`.
    pub metrics: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            samples: 5,
            warmup: 1,
            workloads: Vec::new(),
            sizes: Vec::new(),
            optimize: Optimize::default(),
            workers: 1,
            trace: None,
            metrics: false,
        }
    }
}

/// The worker counts `--parallel=N` measures for the scaling section:
/// powers of two from 1 up to `workers`, plus `workers` itself when it is
/// not a power of two. A sequential run (`workers <= 1`) has no curve.
pub fn scaling_curve(workers: usize) -> Vec<usize> {
    if workers <= 1 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut w = 1;
    while w < workers {
        out.push(w);
        w *= 2;
    }
    out.push(workers);
    out
}

/// Resolve the config's filters against the registry. Unknown workload
/// names and sizes that match nothing are errors (the CLI reports them as
/// usage errors), as is a filter combination selecting zero cells.
pub fn plan(cfg: &BenchConfig) -> Result<Vec<(&'static Workload, usize)>, String> {
    for name in &cfg.workloads {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name:?} (known: {})",
                known.join(", ")
            ));
        }
    }
    let selected: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| cfg.workloads.is_empty() || cfg.workloads.iter().any(|n| n == w.name))
        .collect();
    for &size in &cfg.sizes {
        if !selected.iter().any(|w| w.sizes.contains(&size)) {
            return Err(format!(
                "size {size} matches no selected workload (sizes: {})",
                selected
                    .iter()
                    .map(|w| format!("{} {:?}", w.name, w.sizes))
                    .collect::<Vec<_>>()
                    .join("; ")
            ));
        }
    }
    let mut out = Vec::new();
    for w in selected {
        for &size in w.sizes {
            if cfg.sizes.is_empty() || cfg.sizes.contains(&size) {
                out.push((w, size));
            }
        }
    }
    if out.is_empty() {
        return Err("filters select no (workload, size) cells".into());
    }
    Ok(out)
}

// ---------------------------------------------------------------- stats

/// Robust summary of one cell's timed samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SampleStats {
    pub median: f64,
    pub min: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
    /// Nearest-rank percentiles of the timed samples. `p50` is the
    /// textbook nearest-rank median (ceil-rank), which differs from
    /// `median` (upper-middle element) on even sample counts — both are
    /// reported so baselines keep gating on the historical figure.
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

/// Median / min / MAD / nearest-rank percentiles of a non-empty sample
/// vector.
pub fn sample_stats(samples: &[f64]) -> SampleStats {
    assert!(!samples.is_empty(), "sample_stats needs at least one sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let median = s[s.len() / 2];
    let mut dev: Vec<f64> = s.iter().map(|x| (x - median).abs()).collect();
    dev.sort_by(f64::total_cmp);
    let pct = |q: f64| {
        let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
        s[rank - 1]
    };
    SampleStats {
        median,
        min: s[0],
        mad: dev[dev.len() / 2],
        p50: pct(0.50),
        p90: pct(0.90),
        p99: pct(0.99),
    }
}

/// Time `n` runs of `f` (at least one) and summarize them. Each result is
/// dropped after its clock stops, so deallocation stays out of the sample.
/// Every timing in the harness goes through this loop.
pub fn time_samples<T>(n: usize, mut f: impl FnMut() -> T) -> SampleStats {
    let samples: Vec<f64> = (0..n.max(1))
        .map(|_| {
            let start = Instant::now();
            let out = f();
            let secs = start.elapsed().as_secs_f64();
            drop(std::hint::black_box(out));
            secs
        })
        .collect();
    sample_stats(&samples)
}

// ---------------------------------------------------------------- measure

/// One strategy's measurements for one workload instance.
#[derive(Clone, Debug)]
pub struct StrategyMeasurement {
    pub strategy: &'static str,
    /// Rounds summed over components (for greedy components, one per
    /// batch settled at one cost, plus the closing round).
    pub rounds: usize,
    /// Rule firings from the untimed instrumented run.
    pub firings: u64,
    /// Head derivations from the untimed instrumented run.
    pub derivations: u64,
    pub stats: SampleStats,
    /// Fixpoint tuples divided by the median sample.
    pub tuples_per_sec: f64,
    /// Derivations divided by the median sample.
    pub derivations_per_sec: f64,
    /// Allocator high-water delta over one run (0 when the host binary
    /// has no [`maglog_engine::alloc::CountingAlloc`] installed).
    pub peak_heap_bytes: u64,
    /// Derivations discarded by proven rewrites (0 unless the config
    /// enables `--optimize` and a rewrite applied).
    pub pruned: u64,
    /// Derivation count of an extra unoptimized instrumented run; `Some`
    /// only when the config enables a rewrite, so the optimized
    /// `derivations` figure has a before/after companion.
    pub derivations_unoptimized: Option<u64>,
}

fn run_with(
    p: &Program,
    edb: &Edb,
    strategy: Strategy,
    optimize: Optimize,
    workers: usize,
) -> Model {
    MonotonicEngine::with_options(
        p,
        EvalOptions {
            strategy,
            optimize,
            workers,
            ..Default::default()
        },
    )
    .evaluate(edb)
    .expect("evaluation succeeds")
}

/// One untimed instrumented run: the profile report, plus the cell's
/// OpenMetrics series when `cell` names its (workload, size) labels.
fn profile_with(
    p: &Program,
    edb: &Edb,
    strategy: Strategy,
    optimize: Optimize,
    trace: Option<(&Tracer, &str)>,
    cell: Option<(&str, usize)>,
) -> (ProfileReport, MetricSet) {
    let engine = MonotonicEngine::with_options(
        p,
        EvalOptions {
            strategy,
            optimize,
            ..Default::default()
        },
    );
    let mut sink = Fanout(
        trace.map(|(t, _)| SpanSink::new(p, t.clone())),
        MetricsSink::new(p, strategy),
    );
    if let Some((t, label)) = trace {
        t.begin(MAIN_LANE, "bench", t.intern(label));
    }
    engine
        .evaluate_with_sink(edb, &mut sink)
        .expect("evaluation succeeds");
    if let Some((t, label)) = trace {
        t.end(MAIN_LANE, "bench", t.intern(label));
    }
    let Fanout(_span, metrics) = sink;
    let set = cell
        .map(|(workload, size)| {
            metrics.metric_set(&[("workload", workload), ("size", &size.to_string())])
        })
        .unwrap_or_default();
    (metrics.finish(), set)
}

/// One point on a cell's semi-naive scaling curve.
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    pub workers: usize,
    pub stats: SampleStats,
    /// One-worker median divided by this point's median (>1 = faster
    /// than sequential). 1.0 by construction on the first point.
    pub speedup: f64,
}

/// The direct algorithm's timing on a cell's instance.
#[derive(Clone, Debug)]
pub struct ReferenceMeasurement {
    /// The `maglog_baselines::direct` function that was timed.
    pub name: &'static str,
    pub stats: SampleStats,
}

/// One (workload, size) cell: instance shape plus all three strategies.
#[derive(Clone, Debug)]
pub struct WorkloadMeasurement {
    pub workload: String,
    pub size: usize,
    pub edb_facts: usize,
    /// Stored tuples in the fixpoint model (strategies are asserted to
    /// agree tuple-for-tuple before this is recorded).
    pub tuples: usize,
    pub strategies: Vec<StrategyMeasurement>,
    /// The direct algorithm on the same instance, timed like a strategy.
    pub reference: ReferenceMeasurement,
    /// Semi-naive wall clock at each [`scaling_curve`] worker count
    /// (empty when the run measured no curve).
    pub scaling: Vec<ScalingPoint>,
    /// The instrumented runs' OpenMetrics series, labeled
    /// workload/size/strategy (empty unless [`BenchConfig::metrics`]).
    pub metrics: MetricSet,
}

fn measure_strategy(
    label: &'static str,
    strategy: Strategy,
    p: &Program,
    edb: &Edb,
    cfg: &BenchConfig,
    workload: &str,
    size: usize,
) -> (Model, StrategyMeasurement, MetricSet) {
    // Strategy cells time one worker; `scaling` holds the sharded timings.
    let run = || run_with(p, edb, strategy, cfg.optimize, 1);
    for _ in 1..cfg.warmup.max(1) {
        std::hint::black_box(run());
    }
    // The final warm-up doubles as the peak-heap run: re-seat the
    // allocator peak at the current live level and read the high-water
    // delta the evaluation adds on top.
    let live_before = alloc::current_bytes();
    alloc::reset_peak();
    let model = run();
    let peak_heap_bytes = alloc::peak_bytes().saturating_sub(live_before) as u64;

    let stats = time_samples(cfg.samples, run);

    // Untimed instrumented run for the work counters, so the timed
    // samples stay free of sink overhead (the span tracer, when on,
    // rides this run for the same reason). With rewrites on, one more
    // unoptimized instrumented run supplies the before figure.
    let span_label = format!("{workload}/{size} {label}");
    let (report, metrics) = profile_with(
        p,
        edb,
        strategy,
        cfg.optimize,
        cfg.trace.as_ref().map(|t| (t, span_label.as_str())),
        cfg.metrics.then_some((workload, size)),
    );
    let derivations_unoptimized = cfg.optimize.any().then(|| {
        profile_with(p, edb, strategy, Optimize::default(), None, None)
            .0
            .total_derivations()
    });
    let measurement = StrategyMeasurement {
        strategy: label,
        rounds: model.stats().rounds.iter().sum(),
        firings: report.total_firings(),
        derivations: report.total_derivations(),
        stats,
        tuples_per_sec: 0.0,       // filled once the model size is known
        derivations_per_sec: 0.0,  // filled once the model size is known
        peak_heap_bytes,
        pruned: report.pruned,
        derivations_unoptimized,
    };
    (model, measurement, metrics)
}

/// Measure one (workload, size) cell across all three strategies,
/// asserting the strategies agree on the model, then time the direct
/// reference algorithm and the scaling curve.
pub fn run_workload(w: &Workload, size: usize, cfg: &BenchConfig) -> WorkloadMeasurement {
    let inst = w.build(size);
    let (p, edb) = (&inst.program, &inst.edb);
    let runners: [(&'static str, Strategy); 3] = [
        ("seminaive", Strategy::SemiNaive),
        ("naive", Strategy::Naive),
        ("greedy", Strategy::Greedy),
    ];
    let mut models = Vec::new();
    let mut strategies = Vec::new();
    let mut metrics = MetricSet::new();
    for (label, strategy) in runners {
        let (model, m, set) = measure_strategy(label, strategy, p, edb, cfg, w.name, size);
        models.push(model);
        strategies.push(m);
        metrics.merge(&set);
    }
    let expected = models[0].render(p);
    for (i, model) in models.iter().enumerate().skip(1) {
        assert_eq!(
            expected,
            model.render(p),
            "{} and seminaive disagree on {}/{size}",
            STRATEGIES[i],
            w.name
        );
    }
    let tuples = models[0].interp().size();
    for s in &mut strategies {
        if s.stats.median > 0.0 {
            s.tuples_per_sec = tuples as f64 / s.stats.median;
            s.derivations_per_sec = s.derivations as f64 / s.stats.median;
        }
    }
    for _ in 0..cfg.warmup.max(1) {
        (inst.solve)();
    }
    let direct = ReferenceMeasurement {
        name: inst.reference,
        stats: time_samples(cfg.samples, || (inst.solve)()),
    };
    // The scaling curve: the semi-naive fixpoint timed at each worker
    // count, each multi-worker point's warm-up model checked against the
    // sequential model (determinism is part of what's measured). The
    // 1-worker point is the semi-naive strategy cell, which already timed
    // this exact run, so it is reused rather than re-timed.
    let mut scaling = Vec::new();
    for workers in scaling_curve(cfg.workers) {
        let stats = if workers == 1 {
            strategies[0].stats
        } else {
            let run = || run_with(p, edb, Strategy::SemiNaive, cfg.optimize, workers);
            assert_eq!(
                expected,
                run().render(p),
                "{workers}-worker seminaive disagrees on {}/{size}",
                w.name
            );
            time_samples(cfg.samples, run)
        };
        scaling.push(ScalingPoint {
            workers,
            stats,
            speedup: 0.0, // filled against the first point below
        });
    }
    if let Some(base) = scaling.first().map(|pt| pt.stats.median) {
        for pt in &mut scaling {
            pt.speedup = if pt.stats.median > 0.0 {
                base / pt.stats.median
            } else {
                0.0
            };
        }
    }
    WorkloadMeasurement {
        workload: w.name.to_string(),
        size,
        edb_facts: edb.len(),
        tuples,
        strategies,
        reference: direct,
        scaling,
        metrics,
    }
}

/// Run the full configured matrix, reporting per-cell progress lines
/// through `progress` (pass `|_| {}` for silence).
pub fn run_config(
    cfg: &BenchConfig,
    mut progress: impl FnMut(&str),
) -> Result<Vec<WorkloadMeasurement>, String> {
    let cells = plan(cfg)?;
    let mut out = Vec::with_capacity(cells.len());
    for (w, size) in cells {
        let m = run_workload(w, size, cfg);
        let semi = &m.strategies[0];
        progress(&format!(
            "{:<18} size={:<5} tuples={:<7} semi median {} (min {}, ±{})",
            m.workload,
            m.size,
            m.tuples,
            fmt_secs(semi.stats.median),
            fmt_secs(semi.stats.min),
            fmt_secs(semi.stats.mad),
        ));
        out.push(m);
    }
    Ok(out)
}

// ---------------------------------------------------------------- environment

/// Provenance header for a bench document: where and how the numbers
/// were measured.
#[derive(Clone, Debug)]
pub struct BenchEnv {
    pub commit: String,
    pub rustc: String,
    pub cpus: usize,
    pub warmup: usize,
    pub samples: usize,
    /// Names of the proven rewrites the run enabled (empty = plain run).
    pub optimize: Vec<&'static str>,
    /// Top of the scaling curve the run requested (1 = no curve;
    /// `--parallel` resolves 0 before this is recorded). Strategy cells
    /// are timed at one worker regardless.
    pub workers: usize,
}

/// The maglog commit benchmarks run against (short hash, `-dirty` suffix
/// when the tree has local changes; `"unknown"` outside git).
pub fn git_commit() -> String {
    let out = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match out(&["rev-parse", "--short", "HEAD"]) {
        Some(hash) if !hash.is_empty() => {
            let dirty = out(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{hash}-dirty")
            } else {
                hash
            }
        }
        _ => "unknown".to_string(),
    }
}

/// `rustc --version` of the toolchain on PATH (an approximation of the
/// compiling toolchain, which is not recorded in the binary).
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Snapshot the measurement environment for `cfg`.
pub fn environment(cfg: &BenchConfig) -> BenchEnv {
    BenchEnv {
        commit: git_commit(),
        rustc: rustc_version(),
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        warmup: cfg.warmup,
        samples: cfg.samples,
        optimize: cfg.optimize.names(),
        workers: maglog_engine::resolve_workers(cfg.workers),
    }
}

// ---------------------------------------------------------------- render

/// Render the `maglog-bench-v2` document.
pub fn render_v2(env: &BenchEnv, measurements: &[WorkloadMeasurement]) -> String {
    let environment = JsonValue::Obj(vec![
        ("commit".into(), JsonValue::str(&env.commit)),
        ("rustc".into(), JsonValue::str(&env.rustc)),
        ("cpus".into(), JsonValue::int(env.cpus as u64)),
        ("warmup".into(), JsonValue::int(env.warmup as u64)),
        ("samples".into(), JsonValue::int(env.samples as u64)),
        ("workers".into(), JsonValue::int(env.workers as u64)),
        (
            "optimize".into(),
            JsonValue::Arr(env.optimize.iter().map(|n| JsonValue::str(*n)).collect()),
        ),
    ]);
    let workloads = measurements
        .iter()
        .map(|m| {
            let strategies = m
                .strategies
                .iter()
                .map(|s| {
                    let mut fields = vec![
                        ("rounds".into(), JsonValue::int(s.rounds as u64)),
                        ("firings".into(), JsonValue::int(s.firings)),
                        ("derivations".into(), JsonValue::int(s.derivations)),
                    ];
                    if let Some(d) = s.derivations_unoptimized {
                        fields.push(("derivations_unoptimized".into(), JsonValue::int(d)));
                        fields.push(("pruned".into(), JsonValue::int(s.pruned)));
                    }
                    fields.extend([
                        ("median_secs".into(), JsonValue::Num(s.stats.median)),
                        ("min_secs".into(), JsonValue::Num(s.stats.min)),
                        ("mad_secs".into(), JsonValue::Num(s.stats.mad)),
                        // Schema-additive (v2 readers key on median_secs):
                        // nearest-rank percentiles of the timed samples.
                        ("p50_secs".into(), JsonValue::Num(s.stats.p50)),
                        ("p90_secs".into(), JsonValue::Num(s.stats.p90)),
                        ("p99_secs".into(), JsonValue::Num(s.stats.p99)),
                        ("tuples_per_sec".into(), JsonValue::Num(s.tuples_per_sec)),
                        (
                            "derivations_per_sec".into(),
                            JsonValue::Num(s.derivations_per_sec),
                        ),
                        (
                            "peak_heap_bytes".into(),
                            JsonValue::int(s.peak_heap_bytes),
                        ),
                    ]);
                    (s.strategy.to_string(), JsonValue::Obj(fields))
                })
                .collect();
            let mut fields = vec![
                ("workload".into(), JsonValue::str(&m.workload)),
                ("size".into(), JsonValue::int(m.size as u64)),
                ("edb_facts".into(), JsonValue::int(m.edb_facts as u64)),
                ("tuples".into(), JsonValue::int(m.tuples as u64)),
                ("strategies".into(), JsonValue::Obj(strategies)),
                (
                    "reference".into(),
                    JsonValue::Obj(vec![
                        ("name".into(), JsonValue::str(m.reference.name)),
                        ("median_secs".into(), JsonValue::Num(m.reference.stats.median)),
                        ("min_secs".into(), JsonValue::Num(m.reference.stats.min)),
                        ("mad_secs".into(), JsonValue::Num(m.reference.stats.mad)),
                    ]),
                ),
            ];
            if !m.scaling.is_empty() {
                fields.push((
                    "scaling".into(),
                    JsonValue::Arr(
                        m.scaling
                            .iter()
                            .map(|pt| {
                                JsonValue::Obj(vec![
                                    ("workers".into(), JsonValue::int(pt.workers as u64)),
                                    ("median_secs".into(), JsonValue::Num(pt.stats.median)),
                                    ("min_secs".into(), JsonValue::Num(pt.stats.min)),
                                    ("mad_secs".into(), JsonValue::Num(pt.stats.mad)),
                                    ("speedup".into(), JsonValue::Num(pt.speedup)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            JsonValue::Obj(fields)
        })
        .collect();
    JsonValue::Obj(vec![
        ("schema".into(), JsonValue::str("maglog-bench-v2")),
        ("environment".into(), environment),
        ("workloads".into(), JsonValue::Arr(workloads)),
    ])
    .render()
}

fn fmt_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.1}M/s", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}k/s", r / 1e3)
    } else {
        format!("{r:.0}/s")
    }
}

/// Render the human table (what `maglog bench` prints by default).
pub fn render_human(env: &BenchEnv, measurements: &[WorkloadMeasurement]) -> String {
    let optimize = if env.optimize.is_empty() {
        String::new()
    } else {
        format!(", optimize {}", env.optimize.join(","))
    };
    let workers = if env.workers > 1 {
        format!(", workers {}", env.workers)
    } else {
        String::new()
    };
    let mut out = format!(
        "maglog bench: commit {}, {}, {} cpus, warmup {}, samples {}{optimize}{workers}\n\n",
        env.commit, env.rustc, env.cpus, env.warmup, env.samples
    );
    out.push_str(&format!(
        "{:<18} {:>5} {:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "workload", "size", "strategy", "median", "min", "±MAD", "p50", "p90", "p99",
        "tuples/s", "deriv/s", "peak heap"
    ));
    for m in measurements {
        for s in &m.strategies {
            out.push_str(&format!(
                "{:<18} {:>5} {:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                m.workload,
                m.size,
                s.strategy,
                fmt_secs(s.stats.median),
                fmt_secs(s.stats.min),
                fmt_secs(s.stats.mad),
                fmt_secs(s.stats.p50),
                fmt_secs(s.stats.p90),
                fmt_secs(s.stats.p99),
                fmt_rate(s.tuples_per_sec),
                fmt_rate(s.derivations_per_sec),
                if s.peak_heap_bytes > 0 {
                    fmt_bytes(s.peak_heap_bytes)
                } else {
                    "-".to_string()
                },
            ));
        }
        let r = &m.reference.stats;
        out.push_str(&format!(
            "{:<18} {:>5} reference  {} {} (min {}, ±{})\n",
            m.workload,
            m.size,
            m.reference.name,
            fmt_secs(r.median),
            fmt_secs(r.min),
            fmt_secs(r.mad)
        ));
        if !m.scaling.is_empty() {
            let points: Vec<String> = m
                .scaling
                .iter()
                .map(|pt| {
                    format!(
                        "{}w {} ({:.2}x)",
                        pt.workers,
                        fmt_secs(pt.stats.median),
                        pt.speedup
                    )
                })
                .collect();
            out.push_str(&format!(
                "{:<18} {:>5} scaling    {}\n",
                m.workload,
                m.size,
                points.join("  ")
            ));
        }
    }
    out
}

// ---------------------------------------------------------------- gate

/// The work counters a gate failure reports when diff finds them moved:
/// the attribution a bare timing ratio lacks. `peak_heap_bytes` moves
/// only beyond diff's allocator noise floor.
const COUNTERS: [&str; 5] = ["rounds", "firings", "derivations", "pruned", "peak_heap_bytes"];

/// The gate verdict over a whole run.
#[derive(Clone, Debug)]
pub struct GateVerdict {
    pub threshold: f64,
    /// Strategy cells present in both the run and the baseline.
    pub compared: usize,
    /// Measured strategy cells the baseline has no median for (never a
    /// failure: new workloads must be able to land before their baseline).
    pub missing: usize,
    /// Each failing cell's `median_secs` delta, with the counters that
    /// moved on the same cell in [`COUNTERS`] order.
    pub failures: Vec<(DiffEntry, Vec<DiffEntry>)>,
}

impl GateVerdict {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Render the verdict for the terminal.
    pub fn render(&self) -> String {
        let threshold = self.threshold;
        let mut out = format!(
            "gate: compared {} cells against baseline (threshold {threshold}x)",
            self.compared
        );
        if self.missing > 0 {
            out.push_str(&format!(", {} cells missing from baseline", self.missing));
        }
        out.push('\n');
        for (median, counters) in &self.failures {
            out.push_str(&format!(
                "REGRESSION {}: {} vs {} baseline ({:.2}x > {threshold}x)\n",
                median.path,
                fmt_secs(median.after),
                fmt_secs(median.before),
                median.after / median.before
            ));
            if counters.is_empty() {
                out.push_str("  counters unchanged: same work, slower — timing-only regression\n");
                continue;
            }
            let deltas: Vec<String> = counters
                .iter()
                .map(|c| {
                    let (b, a) = (c.before as u64, c.after as u64);
                    let (b_text, a_text) = if c.metric == "peak_heap_bytes" {
                        (fmt_bytes(b), fmt_bytes(a))
                    } else {
                        (b.to_string(), a.to_string())
                    };
                    if b > 0 {
                        format!("{} {b_text} -> {a_text} ({:.2}x)", c.metric, a as f64 / b as f64)
                    } else {
                        format!("{} {b_text} -> {a_text}", c.metric)
                    }
                })
                .collect();
            out.push_str(&format!("  counters: {}\n", deltas.join(", ")));
        }
        let n = self.failures.len();
        if n == 0 {
            out.push_str("gate: OK\n");
        } else {
            out.push_str(&format!(
                "gate: FAIL ({n} regression{})\n",
                if n == 1 { "" } else { "s" }
            ));
        }
        out
    }
}

/// Gate the run against a baseline `maglog-bench-v2` document: diff the
/// baseline against the run's own document, and fail every strategy cell
/// whose `median_secs` diff lists as a regression by more than
/// `threshold` (a delta inside diff's MAD noise budget never fails).
pub fn gate(
    baseline: &str,
    env: &BenchEnv,
    measurements: &[WorkloadMeasurement],
    threshold: f64,
) -> Result<GateVerdict, String> {
    let report = diff_texts(baseline, &render_v2(env, measurements))?;
    let moved = |path: &str, metric: &str| {
        report
            .regressions
            .iter()
            .chain(&report.improvements)
            .find(|e| e.path == path && e.metric == metric)
            .cloned()
    };
    let mut verdict = GateVerdict {
        threshold,
        compared: 0,
        missing: 0,
        failures: Vec::new(),
    };
    for m in measurements {
        let cell = format!("{}/{}", m.workload, m.size);
        for s in &m.strategies {
            let path = format!("{cell} {}", s.strategy);
            let absent = [format!("cell {cell}"), path.clone(), format!("{path} median_secs")];
            if report.only_after.iter().any(|e| absent.contains(e)) {
                verdict.missing += 1;
                continue;
            }
            verdict.compared += 1;
            let failed = report.regressions.iter().find(|e| {
                e.path == path && e.metric == "median_secs" && e.severity() > threshold
            });
            if let Some(median) = failed {
                let counters = COUNTERS.iter().filter_map(|c| moved(&path, c)).collect();
                verdict.failures.push((median.clone(), counters));
            }
        }
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_stats_is_median_min_mad() {
        let s = sample_stats(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.mad, 1.0); // deviations 2,1,0,1,2 → median 1
        let one = sample_stats(&[0.25]);
        assert_eq!(one.median, 0.25);
        assert_eq!(one.mad, 0.0);
        assert_eq!(one.p50, 0.25);
        assert_eq!(one.p99, 0.25);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        // 10 samples 1..=10: nearest-rank p50 = ceil(5) = 5th value,
        // p90 = 9th, p99 = ceil(9.9) = 10th.
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let s = sample_stats(&v);
        assert_eq!(s.p50, 5.0);
        assert_eq!(s.p90, 9.0);
        assert_eq!(s.p99, 10.0);
        // The historical median stays the upper-middle element.
        assert_eq!(s.median, 6.0);
        // Odd count: p50 and median agree.
        let odd = sample_stats(&[3.0, 1.0, 2.0]);
        assert_eq!(odd.p50, odd.median);
    }

    #[test]
    fn plan_validates_filters() {
        let all = plan(&BenchConfig::default()).unwrap();
        assert_eq!(all.len(), 12); // 4 workloads × 3 sizes

        let cfg = BenchConfig {
            workloads: vec!["shortest_path".into()],
            sizes: vec![16, 32],
            ..Default::default()
        };
        let cells = plan(&cfg).unwrap();
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|(w, _)| w.name == "shortest_path"));

        assert!(plan(&BenchConfig {
            workloads: vec!["nope".into()],
            ..Default::default()
        })
        .is_err());
        assert!(plan(&BenchConfig {
            sizes: vec![7],
            ..Default::default()
        })
        .is_err());
        // 16 is a shortest-path size, not a circuit size.
        assert!(plan(&BenchConfig {
            workloads: vec!["circuit".into()],
            sizes: vec![16],
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn scaling_curve_is_the_power_of_two_ladder() {
        assert!(scaling_curve(0).is_empty());
        assert!(scaling_curve(1).is_empty());
        assert_eq!(scaling_curve(2), [1, 2]);
        assert_eq!(scaling_curve(4), [1, 2, 4]);
        assert_eq!(scaling_curve(6), [1, 2, 4, 6]);
        assert_eq!(scaling_curve(8), [1, 2, 4, 8]);
    }

    #[test]
    fn scaling_sections_render_and_survive_baselines() {
        // A 2-worker curve on the smallest shortest_path instance: real
        // measurement, one sample — exercises the scaling loop's model
        // equality check end to end.
        let cfg = BenchConfig {
            samples: 1,
            warmup: 0,
            workloads: vec!["shortest_path".into()],
            sizes: vec![16],
            workers: 2,
            ..Default::default()
        };
        let m = run_workload(&WORKLOADS[0], 16, &cfg);
        assert_eq!(
            m.scaling.iter().map(|p| p.workers).collect::<Vec<_>>(),
            [1, 2]
        );
        assert!((m.scaling[0].speedup - 1.0).abs() < 1e-9);
        assert!(m.scaling.iter().all(|p| p.stats.median > 0.0));
        let env = environment(&cfg);
        assert_eq!(env.workers, 2);
        let human = render_human(&env, std::slice::from_ref(&m));
        assert!(human.contains("workers 2"), "{human}");
        assert!(human.contains("scaling"), "{human}");
        // Documents carrying the scaling section still gate as baselines.
        let m = [m];
        let verdict = gate(&render_v2(&env, &m), &env, &m, 1.25).unwrap();
        assert_eq!(verdict.compared, 3);
    }

    #[test]
    fn registry_builds_deterministic_instances() {
        let w = &WORKLOADS[0];
        let (a, b) = (w.build(16), w.build(16));
        assert_eq!(a.edb.len(), b.edb.len());
        assert!(!a.edb.is_empty());
        assert_eq!(a.reference, "all_pairs_dijkstra");
    }

    #[test]
    fn every_cell_times_its_direct_reference() {
        let cfg = BenchConfig {
            samples: 2,
            warmup: 0,
            ..Default::default()
        };
        let names: Vec<(&str, &str)> = WORKLOADS
            .iter()
            .map(|w| {
                let m = run_workload(w, w.sizes[0], &cfg);
                let r = &m.reference.stats;
                assert!(0.0 < r.min && r.min <= r.median, "{}: {r:?}", w.name);
                (w.name, m.reference.name)
            })
            .collect();
        assert_eq!(
            names,
            [
                ("shortest_path", "all_pairs_dijkstra"),
                ("company_control", "company_control"),
                ("circuit", "eval_circuit_minimal"),
                ("party", "party_attendance"),
            ]
        );
    }

    fn fake_measurement(median: f64) -> WorkloadMeasurement {
        let stats = SampleStats {
            median,
            min: median * 0.9,
            mad: median * 0.05,
            p50: median,
            p90: median * 1.1,
            p99: median * 1.2,
        };
        let strat = |name: &'static str| StrategyMeasurement {
            strategy: name,
            rounds: 4,
            firings: 9,
            derivations: 8,
            stats,
            tuples_per_sec: 100.0,
            derivations_per_sec: 80.0,
            peak_heap_bytes: 4096,
            pruned: 0,
            derivations_unoptimized: None,
        };
        WorkloadMeasurement {
            workload: "shortest_path".into(),
            size: 16,
            edb_facts: 48,
            tuples: 120,
            strategies: vec![strat("seminaive"), strat("naive"), strat("greedy")],
            reference: ReferenceMeasurement {
                name: "all_pairs_dijkstra",
                stats,
            },
            scaling: Vec::new(),
            metrics: MetricSet::new(),
        }
    }

    fn test_env() -> BenchEnv {
        BenchEnv {
            commit: "x".into(),
            rustc: "r".into(),
            cpus: 1,
            warmup: 1,
            samples: 1,
            optimize: Vec::new(),
            workers: 1,
        }
    }

    #[test]
    fn v2_document_round_trips_into_baseline() {
        let env = BenchEnv {
            commit: "abc1234".into(),
            rustc: "rustc 1.75.0".into(),
            cpus: 8,
            warmup: 1,
            samples: 5,
            optimize: vec!["prem"],
            workers: 4,
        };
        let mut m = fake_measurement(0.0125);
        m.strategies[0].pruned = 42;
        m.strategies[0].derivations_unoptimized = Some(50);
        m.scaling = vec![
            ScalingPoint {
                workers: 1,
                stats: SampleStats {
                    median: 0.0125,
                    min: 0.012,
                    mad: 0.0005,
                    ..Default::default()
                },
                speedup: 1.0,
            },
            ScalingPoint {
                workers: 4,
                stats: SampleStats {
                    median: 0.005,
                    min: 0.0048,
                    mad: 0.0002,
                    ..Default::default()
                },
                speedup: 2.5,
            },
        ];
        let m = [m];
        let doc = render_v2(&env, &m);
        assert!(doc.contains("\"schema\": \"maglog-bench-v2\""));
        assert!(doc.contains("\"median_secs\": 0.0125"));
        assert!(doc.contains("\"p50_secs\": 0.0125"));
        assert!(doc.contains("\"p90_secs\""));
        assert!(doc.contains("\"p99_secs\""));
        assert!(doc.contains("\"peak_heap_bytes\": 4096"));
        assert!(doc.contains("\"workers\": 4"));
        assert!(doc.contains("\"scaling\""));
        assert!(doc.contains("\"speedup\": 2.5"));
        let parsed = maglog_engine::jsonish::parse(&doc).unwrap();
        let opt = parsed.get("environment").unwrap().get("optimize").unwrap();
        let names: Vec<_> = opt
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(JsonValue::as_str)
            .collect();
        assert_eq!(names, ["prem"]);
        assert!(doc.contains("\"derivations_unoptimized\": 50"));
        assert!(doc.contains("\"pruned\": 42"));
        // The cell carries the full attribution counter set a baseline
        // gate reads back.
        let w = &parsed.get("workloads").unwrap().as_arr().unwrap()[0];
        let semi = w.get("strategies").unwrap().get("seminaive").unwrap();
        let num = |key: &str| semi.get(key).and_then(JsonValue::as_f64);
        assert_eq!(num("median_secs"), Some(0.0125));
        assert_eq!(num("firings"), Some(9.0));
        assert_eq!(num("derivations"), Some(8.0));
        assert_eq!(num("rounds"), Some(4.0));
        assert_eq!(num("pruned"), Some(42.0));
        assert_eq!(num("peak_heap_bytes"), Some(4096.0));
        assert_eq!(num("mad_secs"), Some(0.0125 * 0.05));
        let reference = w.get("reference").unwrap();
        assert_eq!(
            reference.get("name").and_then(JsonValue::as_str),
            Some("all_pairs_dijkstra")
        );
        // The document gates cleanly against itself, cell for cell.
        let verdict = gate(&doc, &env, &m, 1.25).unwrap();
        assert_eq!((verdict.compared, verdict.missing), (3, 0));
        assert!(verdict.passed());
    }

    #[test]
    fn gate_rejects_bad_baselines() {
        let m = [fake_measurement(0.010)];
        for bad in [
            "not json",
            "{\"workloads\": []}",
            "{\"schema\": \"maglog-bench-v9\", \"workloads\": []}",
        ] {
            assert!(gate(bad, &test_env(), &m, 1.25).is_err(), "{bad}");
        }
    }

    #[test]
    fn gate_flags_only_cells_past_threshold() {
        let env = test_env();
        let m = [fake_measurement(0.010)];
        // Baseline identical to the run: within the gate.
        let ok = gate(&render_v2(&env, &m), &env, &m, 1.25).unwrap();
        assert_eq!(ok.compared, 3);
        assert_eq!(ok.missing, 0);
        assert!(ok.passed());

        // Doctored baseline half as slow: every cell regresses.
        let fast = render_v2(&env, &[fake_measurement(0.005)]);
        let fail = gate(&fast, &env, &m, 1.25).unwrap();
        assert!(!fail.passed());
        assert_eq!(fail.failures.len(), 3);
        let (median, _) = &fail.failures[0];
        assert!((median.after / median.before - 2.0).abs() < 1e-9);
        let text = fail.render();
        assert!(text.contains("REGRESSION shortest_path/16 seminaive"));
        assert!(text.contains("gate: FAIL (3 regressions)"));
        // Identical counters on both sides: the attribution line says so
        // rather than staying silent.
        assert!(
            text.contains("counters unchanged: same work, slower"),
            "{text}"
        );
        // Every offending cell is enumerated, not just the first.
        for strat in STRATEGIES {
            assert!(
                text.contains(&format!("REGRESSION shortest_path/16 {strat}")),
                "{text}"
            );
        }

        // Cells the baseline lacks are reported, not failed.
        let none = gate(&render_v2(&env, &[]), &env, &m, 1.25).unwrap();
        assert!(none.passed());
        assert_eq!(none.missing, 3);
        assert!(none.render().contains("3 cells missing from baseline"));
    }

    #[test]
    fn gate_attributes_which_counters_moved() {
        let env = test_env();
        // The baseline run did less work: fewer firings, smaller heap.
        let mut slow = fake_measurement(0.005);
        for s in &mut slow.strategies {
            s.firings = 5;
            s.peak_heap_bytes = 2048;
        }
        let base = render_v2(&env, &[slow]);
        let m = [fake_measurement(0.010)];
        let fail = gate(&base, &env, &m, 1.25).unwrap();
        assert_eq!(fail.failures.len(), 3);
        for (_, counters) in &fail.failures {
            let names: Vec<&str> = counters.iter().map(|c| c.metric.as_str()).collect();
            assert_eq!(names, ["firings", "peak_heap_bytes"]);
        }
        let text = fail.render();
        assert!(
            text.contains(
                "  counters: firings 5 -> 9 (1.80x), \
                 peak_heap_bytes 2.0 KiB -> 4.0 KiB (2.00x)"
            ),
            "{text}"
        );
    }

    #[test]
    fn rendered_v2_documents_self_diff_clean() {
        let env = BenchEnv {
            samples: 3,
            ..test_env()
        };
        let mut m = fake_measurement(0.010);
        m.strategies[0].pruned = 7;
        m.scaling = vec![ScalingPoint {
            workers: 1,
            stats: SampleStats {
                median: 0.010,
                min: 0.009,
                mad: 0.0005,
                ..Default::default()
            },
            speedup: 1.0,
        }];
        let doc = render_v2(&env, &[m]);
        let report = maglog_engine::diff_texts(&doc, &doc).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert!(report.compared > 0);
        assert_eq!(report.unchanged, report.compared);
    }
}
