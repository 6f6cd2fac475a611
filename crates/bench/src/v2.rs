//! The `maglog bench` harness: statistically sound measurement with
//! regression gating (the `maglog-bench-v2` schema).
//!
//! Each (workload, size, strategy) cell is measured as: `warmup` untimed
//! runs (the last one doubles as the peak-heap run, bracketed by
//! [`maglog_engine::alloc::reset_peak`]), then `samples` timed runs
//! summarized by **median**, **min**, and **MAD** (median absolute
//! deviation — robust against scheduler noise, unlike mean/stddev), then
//! one untimed instrumented run for the work counters (firings,
//! derivations). Throughput is tuples-per-second and
//! derivations-per-second at the median.
//!
//! The regression gate compares current medians against a committed
//! baseline document — either `maglog-bench-v2` or the legacy
//! `maglog-bench-v1` (whose single `seconds.<strategy>` figure is read as
//! the median) — and flags every cell whose ratio exceeds the threshold.

use std::collections::BTreeMap;

use maglog_datalog::Program;
use maglog_engine::jsonish::{self, JsonValue};
use maglog_engine::trace::MAIN_LANE;
use maglog_engine::{
    alloc, fmt_bytes, Edb, EvalOptions, Fanout, HistogramSink, MetricsSink, Model,
    MonotonicEngine, Optimize, ProfileReport, Registry, SpanSink, Strategy, Tracer,
};
use maglog_workloads::{
    programs, random_circuit, random_digraph, random_ownership, random_party,
};

use crate::{fmt_secs, profile_run, program, timed};

/// Strategy labels in measurement order (also the JSON field order).
pub const STRATEGIES: [&str; 3] = ["seminaive", "naive", "greedy"];

// ---------------------------------------------------------------- registry

/// One benchmarkable workload: a paper program plus a seeded instance
/// generator, sized by the same parameters `experiments --json` has
/// always used, so numbers stay comparable across schema versions.
pub struct Workload {
    pub name: &'static str,
    pub sizes: &'static [usize],
    builder: fn(usize) -> (Program, Edb),
}

impl Workload {
    /// Build the (program, instance) pair for `size`. Deterministic: the
    /// generator seed is a function of the size.
    pub fn build(&self, size: usize) -> (Program, Edb) {
        (self.builder)(size)
    }
}

fn build_shortest_path(n: usize) -> (Program, Edb) {
    let p = program(programs::SHORTEST_PATH);
    let edb = random_digraph(n, 3.0, (1.0, 9.0), 77 + n as u64).to_edb(&p);
    (p, edb)
}

fn build_company_control(n: usize) -> (Program, Edb) {
    let p = program(programs::COMPANY_CONTROL);
    let edb = random_ownership(n, 4, 0.5, 0.3, 99 + n as u64).to_edb(&p);
    (p, edb)
}

fn build_circuit(gates: usize) -> (Program, Edb) {
    let p = program(programs::CIRCUIT);
    let edb = random_circuit(16, gates, 2, 0.3, 7 + gates as u64).to_edb(&p);
    (p, edb)
}

fn build_party(n: usize) -> (Program, Edb) {
    let p = program(programs::PARTY);
    let edb = random_party(n, 6.0, 0.15, 13 + n as u64).to_edb(&p);
    (p, edb)
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
    /// `environment.workers`: the top of the scaling curve. Strategy cells
    /// always time the sequential evaluator; only `scaling` runs sharded.
    pub workers: usize,
    /// Extra semi-naive worker counts to measure per cell (the scaling
    /// curve; empty = no scaling section). [`scaling_curve`] builds the
    /// conventional 1, 2, 4, ..., N ladder.
    pub scaling: Vec<usize>,
    /// Span tracer attached to each cell's untimed *instrumented* run
    /// (`maglog bench --trace`). Timed samples always run untraced, so
    /// tracing never perturbs the medians; `None` records nothing.
    pub trace: Option<Tracer>,
    /// Metrics registry the instrumented runs publish their latency/size
    /// histograms into (`maglog bench --metrics`), one series set per
    /// (workload, size, strategy) label combination. Timed samples stay
    /// uninstrumented, like `trace`; `None` records nothing.
    pub metrics: Option<Registry>,
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
            scaling: Vec::new(),
            trace: None,
            metrics: None,
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

// ---------------------------------------------------------------- measure

/// One strategy's measurements for one workload instance.
#[derive(Clone, Debug)]
pub struct StrategyMeasurement {
    pub strategy: &'static str,
    /// Rounds summed over components (queue pops for greedy components).
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

fn profile_with(
    p: &Program,
    edb: &Edb,
    strategy: Strategy,
    optimize: Optimize,
    trace: Option<(&Tracer, &str)>,
    // Registry plus the (workload, size) labels for this cell's series.
    metrics: Option<(&Registry, &str, usize)>,
) -> ProfileReport {
    let engine = MonotonicEngine::with_options(
        p,
        EvalOptions {
            strategy,
            optimize,
            ..Default::default()
        },
    );
    let hist = metrics.map(|(reg, workload, size)| {
        HistogramSink::new(
            p,
            &[
                ("workload", workload),
                ("size", &size.to_string()),
                ("strategy", strategy.name()),
            ],
        )
        .publish_to(reg.clone())
    });
    let mut sink = Fanout(
        Fanout(
            trace.map(|(t, _)| SpanSink::new(p, t.clone())),
            MetricsSink::new(p, strategy),
        ),
        hist,
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
    let Fanout(Fanout(_span, report), hist) = sink;
    if let Some(h) = hist {
        // Publishes the final cumulative snapshot into the registry.
        h.finish();
    }
    report.finish()
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
    /// Semi-naive wall clock at each `BenchConfig::scaling` worker count
    /// (empty when the run measured no curve).
    pub scaling: Vec<ScalingPoint>,
}

fn measure_strategy(
    label: &'static str,
    strategy: Strategy,
    p: &Program,
    edb: &Edb,
    cfg: &BenchConfig,
    workload: &str,
    size: usize,
) -> (Model, StrategyMeasurement) {
    // Strategy cells time one worker; `scaling` holds the sharded timings.
    let run = |p: &Program, edb: &Edb| run_with(p, edb, strategy, cfg.optimize, 1);
    for _ in 1..cfg.warmup.max(1) {
        std::hint::black_box(run(p, edb));
    }
    // The final warm-up doubles as the peak-heap run: re-seat the
    // allocator peak at the current live level and read the high-water
    // delta the evaluation adds on top.
    let live_before = alloc::current_bytes();
    alloc::reset_peak();
    let model = run(p, edb);
    let peak_heap_bytes = alloc::peak_bytes().saturating_sub(live_before) as u64;

    let mut samples = Vec::with_capacity(cfg.samples);
    for _ in 0..cfg.samples.max(1) {
        let (m, secs) = timed(|| run(p, edb));
        std::hint::black_box(m);
        samples.push(secs);
    }
    let stats = sample_stats(&samples);

    // Untimed instrumented run for the work counters, so the timed
    // samples stay free of sink overhead (the span tracer, when on,
    // rides this run for the same reason). With rewrites on, one more
    // unoptimized instrumented run supplies the before figure.
    let span_label = format!("{workload}/{size} {label}");
    let report = profile_with(
        p,
        edb,
        strategy,
        cfg.optimize,
        cfg.trace.as_ref().map(|t| (t, span_label.as_str())),
        cfg.metrics.as_ref().map(|reg| (reg, workload, size)),
    );
    let derivations_unoptimized = cfg
        .optimize
        .any()
        .then(|| profile_run(p, edb, strategy).total_derivations());
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
    (model, measurement)
}

/// Measure one (workload, size) cell across all three strategies,
/// asserting the strategies agree on the model.
pub fn run_workload(w: &Workload, size: usize, cfg: &BenchConfig) -> WorkloadMeasurement {
    let (p, edb) = w.build(size);
    let runners: [(&'static str, Strategy); 3] = [
        ("seminaive", Strategy::SemiNaive),
        ("naive", Strategy::Naive),
        ("greedy", Strategy::Greedy),
    ];
    let mut models = Vec::new();
    let mut strategies = Vec::new();
    for (label, strategy) in runners {
        let (model, m) = measure_strategy(label, strategy, &p, &edb, cfg, w.name, size);
        models.push(model);
        strategies.push(m);
    }
    let reference = models[0].render(&p);
    for (i, model) in models.iter().enumerate().skip(1) {
        assert_eq!(
            reference,
            model.render(&p),
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
    // The scaling curve: the semi-naive fixpoint re-timed at each
    // requested worker count, each point's model checked against the
    // sequential reference (determinism is part of what's measured).
    let mut scaling = Vec::new();
    for &workers in &cfg.scaling {
        let run = || run_with(&p, &edb, Strategy::SemiNaive, cfg.optimize, workers);
        std::hint::black_box(run()); // warm the point (thread pool, caches)
        let mut samples = Vec::with_capacity(cfg.samples);
        let mut model = None;
        for _ in 0..cfg.samples.max(1) {
            let (m, secs) = timed(run);
            model = Some(m);
            samples.push(secs);
        }
        assert_eq!(
            reference,
            model.expect("at least one sample").render(&p),
            "{workers}-worker seminaive disagrees on {}/{size}",
            w.name
        );
        scaling.push(ScalingPoint {
            workers,
            stats: sample_stats(&samples),
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
        scaling,
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

// ---------------------------------------------------------------- baseline

/// One baseline cell: the gated median plus whatever attribution figures
/// the baseline document carried. v1 documents only have a timing figure
/// (and round counts); v2 documents carry the full work-counter set, so a
/// gate failure against them can say *which* counters moved.
#[derive(Clone, Debug, Default)]
pub struct BaselineCell {
    pub median_secs: f64,
    pub mad_secs: Option<f64>,
    pub rounds: Option<u64>,
    pub firings: Option<u64>,
    pub derivations: Option<u64>,
    pub pruned: Option<u64>,
    pub peak_heap_bytes: Option<u64>,
}

/// Per-(workload, size, strategy) baseline figures read from a committed
/// document.
#[derive(Clone, Debug)]
pub struct Baseline {
    pub schema: String,
    pub cells: BTreeMap<(String, usize, String), BaselineCell>,
}

fn workload_key(w: &JsonValue) -> Result<(String, usize), String> {
    let name = w
        .get("workload")
        .and_then(|v| v.as_str())
        .ok_or("workload entry missing \"workload\"")?
        .to_string();
    let size = w
        .get("size")
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("workload {name:?} missing \"size\""))? as usize;
    Ok((name, size))
}

/// Parse a baseline document in either schema. v1's min-of-samples
/// `seconds.<strategy>` figure stands in for the median.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let doc = jsonish::parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(|v| v.as_str())
        .ok_or("baseline missing \"schema\"")?
        .to_string();
    let workloads = doc
        .get("workloads")
        .and_then(|v| v.as_arr())
        .ok_or("baseline missing \"workloads\" array")?;
    let mut cells = BTreeMap::new();
    let counter = |s: &JsonValue, key: &str| s.get(key).and_then(|v| v.as_f64()).map(|x| x as u64);
    match schema.as_str() {
        "maglog-bench-v1" => {
            for w in workloads {
                let (name, size) = workload_key(w)?;
                let seconds = w
                    .get("seconds")
                    .ok_or_else(|| format!("workload {name:?} missing \"seconds\""))?;
                for strat in STRATEGIES {
                    if let Some(x) = seconds.get(strat).and_then(|v| v.as_f64()) {
                        let rounds = w
                            .get("rounds")
                            .and_then(|r| r.get(strat))
                            .and_then(|v| v.as_f64())
                            .map(|x| x as u64);
                        cells.insert(
                            (name.clone(), size, strat.to_string()),
                            BaselineCell {
                                median_secs: x,
                                rounds,
                                ..BaselineCell::default()
                            },
                        );
                    }
                }
            }
        }
        "maglog-bench-v2" => {
            for w in workloads {
                let (name, size) = workload_key(w)?;
                let strategies = w
                    .get("strategies")
                    .ok_or_else(|| format!("workload {name:?} missing \"strategies\""))?;
                for strat in STRATEGIES {
                    let Some(s) = strategies.get(strat) else { continue };
                    let Some(x) = s.get("median_secs").and_then(|v| v.as_f64()) else {
                        continue;
                    };
                    cells.insert(
                        (name.clone(), size, strat.to_string()),
                        BaselineCell {
                            median_secs: x,
                            mad_secs: s.get("mad_secs").and_then(|v| v.as_f64()),
                            rounds: counter(s, "rounds"),
                            firings: counter(s, "firings"),
                            derivations: counter(s, "derivations"),
                            pruned: counter(s, "pruned"),
                            peak_heap_bytes: counter(s, "peak_heap_bytes"),
                        },
                    );
                }
            }
        }
        other => return Err(format!("unsupported baseline schema {other:?}")),
    }
    Ok(Baseline { schema, cells })
}

// ---------------------------------------------------------------- gate

/// A work counter that moved between the baseline and the current run —
/// the attribution a bare timing ratio lacks.
#[derive(Clone, Debug)]
pub struct CounterDelta {
    pub name: &'static str,
    pub baseline: u64,
    pub current: u64,
}

/// One cell whose current median exceeds the gated baseline.
#[derive(Clone, Debug)]
pub struct Regression {
    pub workload: String,
    pub size: usize,
    pub strategy: String,
    pub baseline_secs: f64,
    pub current_secs: f64,
    pub ratio: f64,
    /// Counters that moved against the baseline (empty when none did, or
    /// when the baseline carries no counters).
    pub counters: Vec<CounterDelta>,
    /// Whether the baseline carried any counters to compare at all — a
    /// v1 timing-only baseline can't distinguish "more work" from
    /// "same work, slower".
    pub counters_available: bool,
}

/// The gate verdict over a whole run.
#[derive(Clone, Debug)]
pub struct GateOutcome {
    /// Cells present in both the run and the baseline.
    pub compared: usize,
    /// Measured cells the baseline has no figure for (never a failure —
    /// new workloads must be able to land before their baseline does).
    pub missing: usize,
    pub regressions: Vec<Regression>,
}

impl GateOutcome {
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compare current medians against the baseline: a cell regresses when
/// `current > baseline * threshold`.
pub fn gate(
    measurements: &[WorkloadMeasurement],
    baseline: &Baseline,
    threshold: f64,
) -> GateOutcome {
    let mut outcome = GateOutcome {
        compared: 0,
        missing: 0,
        regressions: Vec::new(),
    };
    for m in measurements {
        for s in &m.strategies {
            let key = (m.workload.clone(), m.size, s.strategy.to_string());
            match baseline.cells.get(&key) {
                Some(cell) if cell.median_secs > 0.0 => {
                    outcome.compared += 1;
                    let ratio = s.stats.median / cell.median_secs;
                    if ratio > threshold {
                        outcome.regressions.push(Regression {
                            workload: m.workload.clone(),
                            size: m.size,
                            strategy: s.strategy.to_string(),
                            baseline_secs: cell.median_secs,
                            current_secs: s.stats.median,
                            ratio,
                            counters: counter_deltas(cell, s),
                            counters_available: cell.firings.is_some()
                                || cell.derivations.is_some()
                                || cell.rounds.is_some()
                                || cell.pruned.is_some()
                                || cell.peak_heap_bytes.is_some(),
                        });
                    }
                }
                _ => outcome.missing += 1,
            }
        }
    }
    outcome
}

/// The baseline counters the current measurement disagrees with.
fn counter_deltas(cell: &BaselineCell, s: &StrategyMeasurement) -> Vec<CounterDelta> {
    let pairs = [
        ("rounds", cell.rounds, s.rounds as u64),
        ("firings", cell.firings, s.firings),
        ("derivations", cell.derivations, s.derivations),
        ("pruned", cell.pruned, s.pruned),
        ("peak_heap_bytes", cell.peak_heap_bytes, s.peak_heap_bytes),
    ];
    pairs
        .into_iter()
        .filter_map(|(name, base, current)| {
            base.filter(|&b| b != current).map(|baseline| CounterDelta {
                name,
                baseline,
                current,
            })
        })
        .collect()
}

/// Render the gate verdict for the terminal.
pub fn render_gate(outcome: &GateOutcome, threshold: f64) -> String {
    let mut out = format!(
        "gate: compared {} cells against baseline (threshold {threshold}x)",
        outcome.compared
    );
    if outcome.missing > 0 {
        out.push_str(&format!(", {} cells missing from baseline", outcome.missing));
    }
    out.push('\n');
    for r in &outcome.regressions {
        out.push_str(&format!(
            "REGRESSION {}/{} {}: {} vs {} baseline ({:.2}x > {threshold}x)\n",
            r.workload,
            r.size,
            r.strategy,
            fmt_secs(r.current_secs),
            fmt_secs(r.baseline_secs),
            r.ratio
        ));
        if !r.counters.is_empty() {
            let deltas: Vec<String> = r
                .counters
                .iter()
                .map(|c| {
                    let (b, cur) = if c.name == "peak_heap_bytes" {
                        (fmt_bytes(c.baseline), fmt_bytes(c.current))
                    } else {
                        (c.baseline.to_string(), c.current.to_string())
                    };
                    if c.baseline > 0 {
                        format!(
                            "{} {b} -> {cur} ({:.2}x)",
                            c.name,
                            c.current as f64 / c.baseline as f64
                        )
                    } else {
                        format!("{} {b} -> {cur}", c.name)
                    }
                })
                .collect();
            out.push_str(&format!("  counters: {}\n", deltas.join(", ")));
        } else if r.counters_available {
            out.push_str("  counters unchanged: same work, slower — timing-only regression\n");
        }
    }
    if outcome.passed() {
        out.push_str("gate: OK\n");
    } else {
        out.push_str(&format!(
            "gate: FAIL ({} regression{})\n",
            outcome.regressions.len(),
            if outcome.regressions.len() == 1 { "" } else { "s" }
        ));
    }
    out
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
            scaling: scaling_curve(2),
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
        // Baselines still parse documents carrying the scaling section.
        let base = parse_baseline(&render_v2(&env, &[m])).unwrap();
        assert_eq!(base.cells.len(), 3);
    }

    #[test]
    fn registry_builds_deterministic_instances() {
        let w = &WORKLOADS[0];
        let (_, a) = w.build(16);
        let (_, b) = w.build(16);
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
    }

    fn fake_measurement(median: f64) -> WorkloadMeasurement {
        let strat = |name: &'static str| StrategyMeasurement {
            strategy: name,
            rounds: 4,
            firings: 9,
            derivations: 8,
            stats: SampleStats {
                median,
                min: median * 0.9,
                mad: median * 0.05,
                p50: median,
                p90: median * 1.1,
                p99: median * 1.2,
            },
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
            scaling: Vec::new(),
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
        let doc = render_v2(&env, &[m]);
        assert!(doc.contains("\"schema\": \"maglog-bench-v2\""));
        assert!(doc.contains("\"median_secs\": 0.0125"));
        assert!(doc.contains("\"p50_secs\": 0.0125"));
        assert!(doc.contains("\"p90_secs\""));
        assert!(doc.contains("\"p99_secs\""));
        assert!(doc.contains("\"peak_heap_bytes\": 4096"));
        assert!(doc.contains("\"workers\": 4"));
        assert!(doc.contains("\"scaling\""));
        assert!(doc.contains("\"speedup\": 2.5"));
        let parsed = jsonish::parse(&doc).unwrap();
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
        let base = parse_baseline(&doc).unwrap();
        assert_eq!(base.schema, "maglog-bench-v2");
        let cell = base
            .cells
            .get(&("shortest_path".into(), 16, "seminaive".into()))
            .unwrap();
        assert_eq!(cell.median_secs, 0.0125);
        // v2 baselines carry the full attribution counter set.
        assert_eq!(cell.firings, Some(9));
        assert_eq!(cell.derivations, Some(8));
        assert_eq!(cell.rounds, Some(4));
        assert_eq!(cell.pruned, Some(42));
        assert_eq!(cell.peak_heap_bytes, Some(4096));
        assert_eq!(cell.mad_secs, Some(0.0125 * 0.05));
        assert_eq!(base.cells.len(), 3);
    }

    #[test]
    fn v1_documents_still_read_as_baselines() {
        let doc = r#"{"schema": "maglog-bench-v1", "commit": "abc1234", "samples": 3, "workloads": [
  {"workload": "shortest_path", "size": 16, "edb_facts": 48, "tuples": 120,
   "rounds": {"seminaive": 4, "naive": 4, "greedy": 40},
   "seconds": {"seminaive": 0.01, "naive": 0.02, "greedy": 0.015}}]}"#;
        let base = parse_baseline(doc).unwrap();
        assert_eq!(base.schema, "maglog-bench-v1");
        let cell = base
            .cells
            .get(&("shortest_path".into(), 16, "naive".into()))
            .unwrap();
        assert_eq!(cell.median_secs, 0.020);
        // v1 has rounds but no work counters: attribution degrades.
        assert_eq!(cell.rounds, Some(4));
        assert_eq!(cell.firings, None);
        assert_eq!(base.cells.len(), 3);
    }

    #[test]
    fn parse_baseline_rejects_bad_documents() {
        assert!(parse_baseline("not json").is_err());
        assert!(parse_baseline("{\"workloads\": []}").is_err());
        assert!(parse_baseline("{\"schema\": \"maglog-bench-v9\", \"workloads\": []}").is_err());
    }

    #[test]
    fn gate_flags_only_cells_past_threshold() {
        let m = fake_measurement(0.010);
        let env = BenchEnv {
            commit: "x".into(),
            rustc: "r".into(),
            cpus: 1,
            warmup: 1,
            samples: 1,
            optimize: Vec::new(),
            workers: 1,
        };
        // Baseline identical to the run: within the gate.
        let base = parse_baseline(&render_v2(&env, std::slice::from_ref(&m))).unwrap();
        let ok = gate(std::slice::from_ref(&m), &base, 1.25);
        assert_eq!(ok.compared, 3);
        assert_eq!(ok.missing, 0);
        assert!(ok.passed());

        // Doctored baseline half as slow: every cell regresses.
        let fast = parse_baseline(&render_v2(&env, &[fake_measurement(0.005)])).unwrap();
        let fail = gate(std::slice::from_ref(&m), &fast, 1.25);
        assert!(!fail.passed());
        assert_eq!(fail.regressions.len(), 3);
        assert!((fail.regressions[0].ratio - 2.0).abs() < 1e-9);
        let text = render_gate(&fail, 1.25);
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
        let empty = Baseline {
            schema: "maglog-bench-v2".into(),
            cells: BTreeMap::new(),
        };
        let none = gate(&[m], &empty, 1.25);
        assert!(none.passed());
        assert_eq!(none.missing, 3);
    }

    #[test]
    fn gate_attributes_which_counters_moved() {
        let env = BenchEnv {
            commit: "x".into(),
            rustc: "r".into(),
            cpus: 1,
            warmup: 1,
            samples: 1,
            optimize: Vec::new(),
            workers: 1,
        };
        // The baseline run did less work: fewer firings, smaller heap.
        let mut slow = fake_measurement(0.005);
        for s in &mut slow.strategies {
            s.firings = 5;
            s.peak_heap_bytes = 2048;
        }
        let base = parse_baseline(&render_v2(&env, &[slow])).unwrap();
        let m = fake_measurement(0.010);
        let fail = gate(std::slice::from_ref(&m), &base, 1.25);
        assert_eq!(fail.regressions.len(), 3);
        for r in &fail.regressions {
            assert!(r.counters_available);
            let names: Vec<&str> = r.counters.iter().map(|c| c.name).collect();
            assert_eq!(names, ["firings", "peak_heap_bytes"]);
        }
        let text = render_gate(&fail, 1.25);
        assert!(
            text.contains(
                "  counters: firings 5 -> 9 (1.80x), \
                 peak_heap_bytes 2.0 KiB -> 4.0 KiB (2.00x)"
            ),
            "{text}"
        );

        // A v1 baseline has rounds but no work counters; when rounds
        // agree the regression reports no counter attribution at all.
        let v1 = parse_baseline(
            r#"{"schema": "maglog-bench-v1", "commit": "abc", "samples": 1, "workloads": [
  {"workload": "shortest_path", "size": 16, "edb_facts": 48, "tuples": 120,
   "rounds": {"seminaive": 4, "naive": 4, "greedy": 4},
   "seconds": {"seminaive": 0.005, "naive": 0.005, "greedy": 0.005}}]}"#,
        )
        .unwrap();
        let fail = gate(std::slice::from_ref(&m), &v1, 1.25);
        assert_eq!(fail.regressions.len(), 3);
        assert!(fail.regressions.iter().all(|r| r.counters.is_empty()));
        assert!(fail.regressions.iter().all(|r| r.counters_available));
    }

    #[test]
    fn rendered_v2_documents_self_diff_clean() {
        let env = BenchEnv {
            commit: "x".into(),
            rustc: "r".into(),
            cpus: 1,
            warmup: 1,
            samples: 3,
            optimize: Vec::new(),
            workers: 1,
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
