//! `maglog` — command-line driver for the monotonic-aggregation engine.
//!
//! ```text
//! maglog check  [opts] <program.mgl>     run the static battery and report
//! maglog run    [opts] <program.mgl> [pred...]  evaluate; print the model
//! maglog profile [opts] <program.mgl>    fixpoint profiler (maglog-profile-v1)
//! maglog bench  [opts]                   benchmark matrix (maglog-bench-v2)
//! maglog compare <program.mgl>           minimal model vs Kemp–Stuckey WFS
//! maglog explain <program.mgl>           components, CDB/LDB, plans-eye view
//! maglog explain [opts] <program.mgl> '<fact>'   why / why-not a fact
//! maglog diff [opts] <before> <after>    compare two telemetry documents
//! maglog trace-validate <trace.json>     check a maglog-trace-v1 document
//! maglog trace-flame <trace.json>        collapsed stacks for flame-graph tools
//! maglog metrics-validate <out.prom>     check an OpenMetrics 1.0 exposition
//! ```
//!
//! `diff` options:
//!
//! ```text
//! --format=human|json   ranked report, or the maglog-diff-v1 document
//! --gate RATIO          exit 1 when any regression exceeds RATIO
//! ```
//!
//! `check` options:
//!
//! ```text
//! --format=human|json   rendering of the diagnostics (default: human)
//! --deny <CODE|all>     escalate a lint code to deny (all/warnings: every warning)
//! --allow <CODE>        silence a lint code entirely
//! --explain <CODE>      print the long-form description of a lint code
//! ```
//!
//! `profile` options:
//!
//! ```text
//! --format=human|json          human trace+report, or maglog-profile-v1 JSON
//! --strategy=naive|seminaive|greedy   profile one strategy (default: all three)
//! --parallel[=N]               evaluate with N workers (bare: every core)
//! --trace <FILE>               span timeline as Chrome trace JSON (docs/tracing.md)
//! --metrics <FILE>             latency/size histograms as OpenMetrics 1.0 text
//! ```
//!
//! `explain` options (goal form):
//!
//! ```text
//! --why-not                    report why the fact was NOT derived
//! --format=human|json|dot      tree text, maglog-explain-v1 JSON, or Graphviz
//! --depth <N>                  bound the rendered derivation tree (default 8)
//! ```
//!
//! `run` options: `--stats` (profiler report on stderr, plus a per-phase
//! parse/analyze/plan/eval wall-clock and allocation split), `--explain
//! <pred>` (dump derivations + aggregate witnesses of every tuple of
//! `pred`), `--max-rounds <N>` (per-component fixpoint cap),
//! `--optimize[=prem,demand]` (opt-in proven rewrites; decisions are
//! reported on stderr), `--parallel[=N]` (shard rounds across N workers;
//! bare `--parallel` uses every core; the model is identical either way),
//! `--query '<fact>'` (answer one ground point query; with
//! `--optimize=demand` only the goal's derivation cone is computed),
//! `--trace <FILE>` (write a `maglog-trace-v1` span timeline — phases,
//! components, rounds, rule firings, worker lanes — loadable in Perfetto),
//! `--metrics <FILE>` (write per-rule/round/worker latency histograms as
//! OpenMetrics 1.0 text; see docs/metrics.md).
//!
//! `bench` options:
//!
//! ```text
//! --samples N           timed samples per cell (default 5)
//! --warmup N            untimed warm-up runs per cell (default 1)
//! --workloads a,b       restrict to these workloads
//! --sizes n,m           restrict to these sizes
//! --format=human|json   table, or the maglog-bench-v2 document on stdout
//! --out FILE            also write the v2 document to FILE
//! --baseline FILE       gate medians against a v2 baseline document
//! --gate RATIO          regression threshold (default 1.25; needs --baseline)
//! --parallel[=N]        N-worker evaluation plus a 1,2,4,...,N scaling curve
//! --trace FILE          trace the per-cell instrumented runs (timed samples
//!                       stay untraced, so medians are unperturbed)
//! --metrics FILE        OpenMetrics histograms from the instrumented runs
//!                       (labeled workload/size/strategy; timed samples stay
//!                       uninstrumented)
//! ```
//!
//! Programs are text files in the maglog rule language; facts can be given
//! inline (`arc(a, b, 1).`). Exit codes: 0 on success, 1 when `check`
//! finds deny-level diagnostics (or evaluation fails), 2 on usage errors —
//! so `maglog check --deny all` works in CI.

use maglog::analysis::diag::{
    check_source, render_human, render_json, Code, LintConfig, Severity, SourceCheck,
};
use maglog::baselines::kemp_stuckey::{ks_well_founded, AtomStatus};
use maglog::bench::v2;
use maglog::datalog::{graph::components, parse_program, Program};
use maglog::engine::trace::{NameRef, MAIN_LANE};
use maglog::engine::{
    alloc, available_workers, diff_documents, explain_tree, fmt_bytes, parse_document,
    parse_goal, parse_openmetrics, render_collapsed_stacks, render_explain_dot,
    render_explain_human, render_explain_json, render_profile_json, render_why_not_human,
    render_why_not_json, validate_chrome_trace, why_not, Document, Edb, EvalOptions, Fanout,
    MetricSet, MetricsSink, Model, MonotonicEngine, NoopSink, Optimize, SpanSink, Strategy,
    Tracer, Tuple, TRACE_SCHEMA,
};
use std::process::ExitCode;

/// Count heap traffic so `profile`, `run --stats`, and `bench` report real
/// allocator figures (library code reads zeros without this install).
#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "\
usage: maglog <check|run|profile|bench|diff|compare|explain> [args]

  check   [--format=human|json] [--deny <CODE|all|warnings>] [--allow <CODE>] <program.mgl>
  check   --explain <CODE>
  run     [--stats] [--explain <pred>] [--max-rounds <N>] [--optimize[=prem,demand]]
          [--parallel[=N]] [--query '<fact>'] [--trace <FILE>] [--metrics <FILE>]
          <program.mgl> [pred...]
  profile [--format=human|json] [--strategy=naive|seminaive|greedy]
          [--optimize[=prem,demand]] [--parallel[=N]] [--trace <FILE>]
          [--metrics <FILE>] <program.mgl>
  bench   [--samples <N>] [--warmup <N>] [--workloads <a,b>] [--sizes <n,m>]
          [--format=human|json] [--out <FILE>] [--baseline <FILE>] [--gate <RATIO>]
          [--optimize[=prem,demand]] [--parallel[=N]] [--trace <FILE>] [--metrics <FILE>]
  diff    [--format=human|json] [--gate <RATIO>] <before> <after>
  compare <program.mgl>
  explain <program.mgl>
  explain [--why-not] [--format=human|json|dot] [--depth <N>] <program.mgl> '<fact>'
  trace-validate <trace.json>
  trace-flame <trace.json>
  metrics-validate <metrics.prom>

profile evaluates under every strategy (or just --strategy) and reports
per-round deltas, per-rule counters, index telemetry, and memory (per-
relation heap estimates plus allocator peaks); --format=json emits the
maglog-profile-v1 document. run --stats appends the same report for the
default strategy to stderr; run --explain <pred> dumps the derivation
(with aggregate witnesses) of every tuple of <pred>.

bench measures the built-in workload matrix (shortest_path,
company_control, circuit, party) under all three strategies, plus each
instance's direct algorithm: median, min, and MAD over --samples timed
runs, throughput, and peak heap per cell. --format=json prints the
maglog-bench-v2 document; with --baseline the run is diffed against a
committed v2 document (as by diff) and any cell whose median regressed
past baseline x RATIO (default 1.25) fails the run; the failure
enumerates every offending cell and which work counters moved.

diff compares two telemetry captures of the same kind — maglog-profile-v1
or maglog-bench-v2 JSON, or an OpenMetrics exposition (the kind is
sniffed) — and reports what changed, worst regressions first, with
noise-aware significance (bench deltas below the measured MAD, allocator
figures within 2%, and histogram quantiles within bucket resolution are
not flagged); see docs/diffing.md. --format=json emits the stable
maglog-diff-v1 document; --gate RATIO exits 1 when any regression exceeds
RATIO. Exit codes: 0 clean (or no gate), 1 gated regression, 2 on
unreadable/mismatched documents.

trace-flame folds a maglog-trace-v1 timeline into collapsed-stack lines
(lane;span;...;span <self-nanos>) for inferno or speedscope; it accepts
exactly the documents trace-validate accepts.

explain with a quoted fact answers WHY it holds — a depth-bounded
derivation tree with rule firings, cost-refinement history, and aggregate
witnesses (--format=json emits maglog-explain-v1; dot emits Graphviz).
With --why-not it reports, per candidate rule, the first body subgoal that
fails. A goal is written like s(a, b) or s(a, b, 3) (cost optional).

Lint codes are the stable MAGxxxx identifiers listed in docs/lint-codes.md;
check --explain MAGxxxx prints the long-form description of any code.
--deny warnings (or all) escalates warn-level findings to errors; notes
are never escalated, so an all-notes program still exits 0.

--optimize enables proven rewrites (see docs/optimization.md): prem prunes
derivations dominated under a premappable aggregate, demand restricts a
--query point goal to its derivation cone. Both are gated on their static
proofs and never change the computed model.

--parallel[=N] shards each fixpoint round across N workers (bare
--parallel uses every core; see docs/parallelism.md). The computed model
and every counter are identical at any worker count. On bench, --parallel=N
additionally measures a 1, 2, 4, ... N scaling curve per workload.

--trace <FILE> records a span timeline — phases, components, rounds, rule
firings, and (under --parallel) per-worker fire/barrier-wait/merge lanes,
plus heap and delta counter tracks — as Chrome trace-event JSON
(maglog-trace-v1), loadable in Perfetto or chrome://tracing; see
docs/tracing.md. trace-validate checks such a document structurally
(balanced spans per lane, monotone timestamps, named lanes).

--metrics <FILE> records log-linear latency/size histograms (per-rule
firing latency, round duration, barrier wait, merged-buffer sizes, heap)
plus work counters, and writes them as OpenMetrics 1.0 text — even when
evaluation fails, so aborted runs can be diagnosed; see docs/metrics.md.
profile additionally summarizes the histograms as p50/p90/p99/max blocks.
metrics-validate checks an exposition against the bundled OpenMetrics
parser and exits 1 on any violation, so CI can hard-fail malformed output.";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
}

struct CheckOpts {
    format: Format,
    config: LintConfig,
    /// Print the long-form description of this code instead of checking.
    explain: Option<Code>,
}

enum ArgError {
    Usage(String),
}

/// Split flags from operands. Flags take their value either as
/// `--flag=value` or from the next argument.
fn parse_check_opts(args: &[String]) -> Result<(CheckOpts, Vec<String>), ArgError> {
    let mut opts = CheckOpts {
        format: Format::Human,
        config: LintConfig::new(),
        explain: None,
    };
    let mut operands = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let (flag, inline_value) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        let mut value = |name: &str| -> Result<String, ArgError> {
            match inline_value.clone().or_else(|| it.next().cloned()) {
                Some(v) => Ok(v),
                None => Err(ArgError::Usage(format!("{name} requires a value"))),
            }
        };
        match flag {
            "--format" => {
                opts.format = match value("--format")?.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => {
                        return Err(ArgError::Usage(format!("unknown format '{other}'")))
                    }
                };
            }
            "--deny" => {
                let v = value("--deny")?;
                // `warnings` is the CI-friendly spelling of `all`: both
                // escalate warn-level codes only, never notes.
                if v == "all" || v == "warnings" {
                    opts.config.set_deny_all(true);
                } else {
                    let code = parse_code(&v)?;
                    opts.config.set(code, Severity::Deny);
                }
            }
            "--allow" => {
                let code = parse_code(&value("--allow")?)?;
                opts.config.set(code, Severity::Allow);
            }
            "--explain" => {
                opts.explain = Some(parse_code(&value("--explain")?)?);
            }
            f if f.starts_with('-') => {
                return Err(ArgError::Usage(format!("unknown flag '{f}'")));
            }
            _ => operands.push(arg.clone()),
        }
    }
    Ok((opts, operands))
}

fn parse_code(s: &str) -> Result<Code, ArgError> {
    Code::parse(s).ok_or_else(|| ArgError::Usage(format!("unknown lint code '{s}'")))
}

/// Parse `--parallel`'s inline value. A bare `--parallel` (no value)
/// uses every available core; like `--optimize`, the flag never consumes
/// the next argument. `--parallel=1` is the sequential evaluator.
fn parse_parallel(inline_value: Option<&str>) -> Result<usize, ArgError> {
    match inline_value {
        None => Ok(available_workers()),
        Some(v) if v.trim().is_empty() => Ok(available_workers()),
        Some(v) => v
            .trim()
            .parse()
            .ok()
            .filter(|&n: &usize| n >= 1)
            .ok_or_else(|| {
                ArgError::Usage(format!(
                    "--parallel wants a positive worker count, got '{v}'"
                ))
            }),
    }
}

/// Validate an output-file destination (`--trace`, `--metrics`) up
/// front: a missing or unwritable path is a usage error (exit 2, like
/// every other bad flag value), not something to discover only after a
/// long evaluation. Opens the file for writing (creating it, truncating
/// nothing) so permission problems surface before any work runs.
fn check_out_path(flag: &str, path: &str) -> Result<(), ArgError> {
    if path.trim().is_empty() {
        return Err(ArgError::Usage(format!("{flag} requires a file path")));
    }
    std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map(drop)
        .map_err(|e| ArgError::Usage(format!("{flag}: cannot write {path}: {e}")))
}

/// Parse `--optimize`'s inline value. A bare `--optimize` (no value)
/// enables every rewrite; the flag never consumes the next argument, so
/// `maglog run --optimize prog.mgl` does the expected thing.
fn parse_optimize(inline_value: Option<&str>) -> Result<Optimize, ArgError> {
    match inline_value {
        None => Ok(Optimize::all()),
        Some(v) if v.trim().is_empty() => Ok(Optimize::all()),
        Some(v) => Optimize::parse(v).ok_or_else(|| {
            ArgError::Usage(format!(
                "unknown rewrite in '--optimize={v}' (expected a comma list of: prem, demand)"
            ))
        }),
    }
}

fn usage_exit(msg: &str) -> ExitCode {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage_exit(""),
    };
    if cmd == "check" {
        let (opts, operands) = match parse_check_opts(rest) {
            Ok(x) => x,
            Err(ArgError::Usage(msg)) => return usage_exit(&msg),
        };
        if let Some(code) = opts.explain {
            if !operands.is_empty() {
                return usage_exit("check --explain takes no program file");
            }
            print!("{}", explain_code(code));
            return ExitCode::SUCCESS;
        }
        let [path] = operands.as_slice() else {
            return usage_exit("check takes exactly one program file");
        };
        return match cmd_check(path, &opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "profile" {
        let (opts, operands) = match parse_profile_opts(rest) {
            Ok(x) => x,
            Err(ArgError::Usage(msg)) => return usage_exit(&msg),
        };
        let [path] = operands.as_slice() else {
            return usage_exit("profile takes exactly one program file");
        };
        return match cmd_profile(path, &opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "run" {
        let (opts, operands) = match parse_run_opts(rest) {
            Ok(x) => x,
            Err(ArgError::Usage(msg)) => return usage_exit(&msg),
        };
        let Some((path, preds)) = operands.split_first() else {
            return usage_exit("run requires a program file");
        };
        return match cmd_run(path, preds, &opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "bench" {
        let opts = match parse_bench_opts(rest) {
            Ok(x) => x,
            Err(ArgError::Usage(msg)) => return usage_exit(&msg),
        };
        let cfg = v2::BenchConfig {
            samples: opts.samples,
            warmup: opts.warmup,
            workloads: opts.workloads.clone(),
            sizes: opts.sizes.clone(),
            optimize: opts.optimize,
            workers: opts.parallel,
            trace: opts.trace.as_ref().map(|_| Tracer::new()),
            metrics: opts.metrics.is_some(),
        };
        // Filter problems (unknown workloads, sizes matching nothing) are
        // usage errors, caught before any measurement runs.
        if let Err(msg) = v2::plan(&cfg) {
            return usage_exit(&msg);
        }
        return match cmd_bench(&cfg, &opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "explain" {
        let (opts, operands) = match parse_explain_opts(rest) {
            Ok(x) => x,
            Err(ArgError::Usage(msg)) => return usage_exit(&msg),
        };
        let result = match operands.as_slice() {
            [path, goal] => cmd_explain_goal(path, goal, &opts),
            [path] if !opts.why_not && opts.format == ExplainFormat::Human => {
                // Structure view (components, CDB/LDB, rules) — no goal.
                cmd_explain(path)
            }
            [_path] => {
                return usage_exit("explain flags require a goal fact, e.g. 's(a, b)'")
            }
            _ => return usage_exit("explain takes a program file and an optional goal fact"),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "diff" {
        let (opts, operands) = match parse_diff_opts(rest) {
            Ok(x) => x,
            Err(ArgError::Usage(msg)) => return usage_exit(&msg),
        };
        let [before, after] = operands.as_slice() else {
            return usage_exit("diff takes exactly two telemetry documents");
        };
        return cmd_diff(before, after, &opts);
    }
    // The other subcommands take no flags.
    if let Some(flag) = rest.iter().find(|a| a.starts_with('-')) {
        return usage_exit(&format!("unknown flag '{flag}'"));
    }
    let result = match (cmd, rest) {
        ("compare", [path]) => cmd_compare(path),
        ("compare", _) => return usage_exit("compare requires a program file"),
        ("trace-validate", [path]) => cmd_trace_validate(path),
        ("trace-validate", _) => return usage_exit("trace-validate requires a trace file"),
        ("trace-flame", [path]) => cmd_trace_flame(path),
        ("trace-flame", _) => return usage_exit("trace-flame requires a trace file"),
        ("metrics-validate", [path]) => cmd_metrics_validate(path),
        ("metrics-validate", _) => {
            return usage_exit("metrics-validate requires an OpenMetrics file")
        }
        _ => return usage_exit(&format!("unknown subcommand '{cmd}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct ProfileOpts {
    format: Format,
    /// `None` profiles all three strategies.
    strategy: Option<Strategy>,
    optimize: Optimize,
    /// Worker count for the parallel evaluator (1 = sequential).
    parallel: usize,
    /// Write a `maglog-trace-v1` span timeline here.
    trace: Option<String>,
    /// Write an OpenMetrics 1.0 exposition here.
    metrics: Option<String>,
}

fn parse_profile_opts(args: &[String]) -> Result<(ProfileOpts, Vec<String>), ArgError> {
    let mut opts = ProfileOpts {
        format: Format::Human,
        strategy: None,
        optimize: Optimize::default(),
        parallel: 1,
        trace: None,
        metrics: None,
    };
    let mut operands = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let (flag, inline_value) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        let mut value = |name: &str| -> Result<String, ArgError> {
            match inline_value.clone().or_else(|| it.next().cloned()) {
                Some(v) => Ok(v),
                None => Err(ArgError::Usage(format!("{name} requires a value"))),
            }
        };
        match flag {
            "--format" => {
                opts.format = match value("--format")?.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => {
                        return Err(ArgError::Usage(format!("unknown format '{other}'")))
                    }
                };
            }
            "--strategy" => {
                let v = value("--strategy")?;
                opts.strategy = Some(Strategy::parse(&v).ok_or_else(|| {
                    ArgError::Usage(format!("unknown strategy '{v}'"))
                })?);
            }
            "--optimize" => opts.optimize = parse_optimize(inline_value.as_deref())?,
            "--parallel" => opts.parallel = parse_parallel(inline_value.as_deref())?,
            "--trace" => {
                let v = value("--trace")?;
                check_out_path("--trace", &v)?;
                opts.trace = Some(v);
            }
            "--metrics" => {
                let v = value("--metrics")?;
                check_out_path("--metrics", &v)?;
                opts.metrics = Some(v);
            }
            f if f.starts_with('-') => {
                return Err(ArgError::Usage(format!("unknown flag '{f}'")));
            }
            _ => operands.push(arg.clone()),
        }
    }
    Ok((opts, operands))
}

struct BenchOpts {
    samples: usize,
    warmup: usize,
    workloads: Vec<String>,
    sizes: Vec<usize>,
    format: Format,
    out: Option<String>,
    baseline: Option<String>,
    gate: f64,
    optimize: Optimize,
    /// Worker count for the parallel evaluator (1 = sequential). Values
    /// above 1 also measure the scaling curve 1, 2, 4, … up to this count.
    parallel: usize,
    /// Write a `maglog-trace-v1` span timeline of the instrumented runs.
    trace: Option<String>,
    /// Write an OpenMetrics exposition of the instrumented runs.
    metrics: Option<String>,
}

fn parse_bench_opts(args: &[String]) -> Result<BenchOpts, ArgError> {
    let mut opts = BenchOpts {
        samples: 5,
        warmup: 1,
        workloads: Vec::new(),
        sizes: Vec::new(),
        format: Format::Human,
        out: None,
        baseline: None,
        gate: 1.25,
        optimize: Optimize::default(),
        parallel: 1,
        trace: None,
        metrics: None,
    };
    let mut gate_set = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let (flag, inline_value) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        let mut value = |name: &str| -> Result<String, ArgError> {
            match inline_value.clone().or_else(|| it.next().cloned()) {
                Some(v) => Ok(v),
                None => Err(ArgError::Usage(format!("{name} requires a value"))),
            }
        };
        match flag {
            "--samples" => {
                let v = value("--samples")?;
                opts.samples = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| {
                        ArgError::Usage(format!("--samples needs a positive integer, got '{v}'"))
                    })?;
            }
            "--warmup" => {
                let v = value("--warmup")?;
                opts.warmup = v.parse().map_err(|_| {
                    ArgError::Usage(format!("--warmup needs a non-negative integer, got '{v}'"))
                })?;
            }
            "--workloads" => {
                let v = value("--workloads")?;
                opts.workloads = v
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
                if opts.workloads.is_empty() {
                    return Err(ArgError::Usage("--workloads needs at least one name".into()));
                }
            }
            "--sizes" => {
                let v = value("--sizes")?;
                let mut sizes = Vec::new();
                for part in v.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    sizes.push(part.parse().ok().filter(|&n: &usize| n >= 1).ok_or_else(
                        || {
                            ArgError::Usage(format!(
                                "--sizes wants positive integers, got '{part}'"
                            ))
                        },
                    )?);
                }
                if sizes.is_empty() {
                    return Err(ArgError::Usage("--sizes needs at least one size".into()));
                }
                opts.sizes = sizes;
            }
            "--format" => {
                opts.format = match value("--format")?.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => {
                        return Err(ArgError::Usage(format!("unknown format '{other}'")))
                    }
                };
            }
            "--out" => opts.out = Some(value("--out")?),
            "--baseline" => opts.baseline = Some(value("--baseline")?),
            "--optimize" => opts.optimize = parse_optimize(inline_value.as_deref())?,
            "--parallel" => opts.parallel = parse_parallel(inline_value.as_deref())?,
            "--trace" => {
                let v = value("--trace")?;
                check_out_path("--trace", &v)?;
                opts.trace = Some(v);
            }
            "--metrics" => {
                let v = value("--metrics")?;
                check_out_path("--metrics", &v)?;
                opts.metrics = Some(v);
            }
            "--gate" => {
                let v = value("--gate")?;
                opts.gate = v
                    .parse()
                    .ok()
                    .filter(|r: &f64| r.is_finite() && *r > 0.0)
                    .ok_or_else(|| {
                        ArgError::Usage(format!("--gate needs a positive ratio, got '{v}'"))
                    })?;
                gate_set = true;
            }
            f if f.starts_with('-') => {
                return Err(ArgError::Usage(format!("unknown flag '{f}'")));
            }
            other => {
                return Err(ArgError::Usage(format!(
                    "bench takes no positional arguments, got '{other}'"
                )));
            }
        }
    }
    if gate_set && opts.baseline.is_none() {
        return Err(ArgError::Usage("--gate requires --baseline".into()));
    }
    Ok(opts)
}

/// Run the configured benchmark matrix; emit the table or the
/// `maglog-bench-v2` document; optionally gate against a baseline.
fn cmd_bench(cfg: &v2::BenchConfig, opts: &BenchOpts) -> Result<(), String> {
    let measurements = v2::run_config(cfg, |line| eprintln!("{line}"))?;
    let env = v2::environment(cfg);
    let doc = v2::render_v2(&env, &measurements);
    match opts.format {
        Format::Human => print!("{}", v2::render_human(&env, &measurements)),
        Format::Json => print!("{doc}"),
    }
    if let (Some(t), Some(out)) = (cfg.trace.as_ref(), opts.trace.as_deref()) {
        // The tracer rode the untimed instrumented pass of every cell, so
        // the timeline covers the whole matrix without touching the
        // medians.
        write_trace(t, "bench", out)?;
    }
    if let Some(out) = opts.metrics.as_deref() {
        // Likewise: the histograms rode the untimed instrumented runs,
        // labeled workload/size/strategy, without touching the samples.
        let mut set = MetricSet::new();
        for m in &measurements {
            set.merge(&m.metrics);
        }
        write_metrics(&set, out)?;
    }
    if let Some(path) = &opts.out {
        std::fs::write(path, &doc).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = &opts.baseline {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let verdict = v2::gate(&text, &env, &measurements, opts.gate)
            .map_err(|e| format!("{path}: {e}"))?;
        eprint!("{}", verdict.render());
        if !verdict.passed() {
            return Err(format!(
                "{} benchmark regression(s) against {path}",
                verdict.failures.len()
            ));
        }
    }
    Ok(())
}

struct RunOpts {
    stats: bool,
    /// Dump the derivation of every tuple of this predicate after the run.
    explain: Option<String>,
    max_rounds: Option<usize>,
    optimize: Optimize,
    /// Answer one ground point query (`--query 's(a, b)'`).
    query: Option<String>,
    /// Worker count for the parallel evaluator (1 = sequential).
    parallel: usize,
    /// Write a `maglog-trace-v1` span timeline here.
    trace: Option<String>,
    /// Write an OpenMetrics 1.0 exposition here.
    metrics: Option<String>,
}

fn parse_run_opts(args: &[String]) -> Result<(RunOpts, Vec<String>), ArgError> {
    let mut opts = RunOpts {
        stats: false,
        explain: None,
        max_rounds: None,
        optimize: Optimize::default(),
        query: None,
        parallel: 1,
        trace: None,
        metrics: None,
    };
    let mut operands = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let (flag, inline_value) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        let mut value = |name: &str| -> Result<String, ArgError> {
            match inline_value.clone().or_else(|| it.next().cloned()) {
                Some(v) => Ok(v),
                None => Err(ArgError::Usage(format!("{name} requires a value"))),
            }
        };
        match flag {
            "--stats" => opts.stats = true,
            "--explain" => opts.explain = Some(value("--explain")?),
            "--max-rounds" => {
                let v = value("--max-rounds")?;
                opts.max_rounds = Some(v.parse().map_err(|_| {
                    ArgError::Usage(format!("--max-rounds needs a number, got '{v}'"))
                })?);
            }
            "--optimize" => opts.optimize = parse_optimize(inline_value.as_deref())?,
            "--parallel" => opts.parallel = parse_parallel(inline_value.as_deref())?,
            "--query" => opts.query = Some(value("--query")?),
            "--trace" => {
                let v = value("--trace")?;
                check_out_path("--trace", &v)?;
                opts.trace = Some(v);
            }
            "--metrics" => {
                let v = value("--metrics")?;
                check_out_path("--metrics", &v)?;
                opts.metrics = Some(v);
            }
            f if f.starts_with('-') => {
                return Err(ArgError::Usage(format!("unknown flag '{f}'")));
            }
            _ => operands.push(arg.clone()),
        }
    }
    Ok((opts, operands))
}

#[derive(Clone, Copy, PartialEq)]
enum ExplainFormat {
    Human,
    Json,
    Dot,
}

struct ExplainOpts {
    why_not: bool,
    format: ExplainFormat,
    depth: usize,
}

fn parse_explain_opts(args: &[String]) -> Result<(ExplainOpts, Vec<String>), ArgError> {
    let mut opts = ExplainOpts {
        why_not: false,
        format: ExplainFormat::Human,
        depth: 8,
    };
    let mut operands = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let (flag, inline_value) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        let mut value = |name: &str| -> Result<String, ArgError> {
            match inline_value.clone().or_else(|| it.next().cloned()) {
                Some(v) => Ok(v),
                None => Err(ArgError::Usage(format!("{name} requires a value"))),
            }
        };
        match flag {
            "--why-not" => opts.why_not = true,
            "--format" => {
                opts.format = match value("--format")?.as_str() {
                    "human" => ExplainFormat::Human,
                    "json" => ExplainFormat::Json,
                    "dot" => ExplainFormat::Dot,
                    other => {
                        return Err(ArgError::Usage(format!("unknown format '{other}'")))
                    }
                };
            }
            "--depth" => {
                let v = value("--depth")?;
                opts.depth = v.parse().map_err(|_| {
                    ArgError::Usage(format!("--depth needs a number, got '{v}'"))
                })?;
            }
            f if f.starts_with('-') => {
                return Err(ArgError::Usage(format!("unknown flag '{f}'")));
            }
            _ => operands.push(arg.clone()),
        }
    }
    Ok((opts, operands))
}

fn load(path: &str) -> Result<Program, String> {
    let src = read_source(path)?;
    parse_program(&src).map_err(|e| format!("{path}: {e}"))
}

fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// The long-form description of a lint code, as printed by `maglog check
/// --explain MAGxxxx`. The text comes from [`Code::explain`], the one
/// table shared with `docs/lint-codes.md`.
fn explain_code(code: Code) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{}: {}", code, code.title());
    let _ = writeln!(out, "default severity: {}", code.default_severity().label());
    let _ = writeln!(out, "reference: {}", code.paper_ref());
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", code.explain());
    if let Some(help) = code.help() {
        let _ = writeln!(out);
        let _ = writeln!(out, "help: {help}");
    }
    out
}

fn cmd_check(path: &str, opts: &CheckOpts) -> Result<(), String> {
    let src = read_source(path)?;
    let chk: SourceCheck = check_source(&src, &opts.config);

    match opts.format {
        Format::Json => {
            print!("{}", render_json(&src, path, &chk.diagnostics));
        }
        Format::Human => {
            // Legacy battery summary first (when the battery ran), then the
            // span-carrying diagnostics.
            if let (Some(program), Some(report)) = (&chk.program, &chk.report) {
                print!("{}", report.summary(program));
            }
            if !chk.diagnostics.is_empty() {
                println!();
                print!("{}", render_human(&src, path, &chk.diagnostics));
            }
            if let Some(report) = &chk.report {
                if report.evaluable() {
                    println!("verdict: evaluable (unique minimal model exists)");
                } else if chk.deny_count() == 0 {
                    println!("verdict: not evaluable, but all findings are allowed");
                }
            }
        }
    }

    match chk.deny_count() {
        0 => Ok(()),
        _ if chk.report.is_some() => Err("program is not certified monotonic".into()),
        n => Err(format!("{path}: {n} error(s)")),
    }
}

/// One `run` pipeline phase's wall clock and allocation traffic
/// (cumulative-allocation delta, so freed memory still counts as work).
struct Phase {
    name: &'static str,
    secs: f64,
    alloc_bytes: usize,
}

fn run_phase<T>(
    phases: &mut Vec<Phase>,
    tracer: Option<&Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let start = std::time::Instant::now();
    let before = alloc::total_allocated_bytes();
    if let Some(t) = tracer {
        t.begin(MAIN_LANE, "phase", NameRef::Static(name));
    }
    let out = f();
    if let Some(t) = tracer {
        t.end(MAIN_LANE, "phase", NameRef::Static(name));
    }
    phases.push(Phase {
        name,
        secs: start.elapsed().as_secs_f64(),
        alloc_bytes: alloc::total_allocated_bytes().saturating_sub(before),
    });
    out
}

/// Render and write a `--trace` timeline, with a stderr note mirroring
/// `bench --out`'s convention.
fn write_trace(tracer: &Tracer, label: &str, path: &str) -> Result<(), String> {
    let json = tracer.render_chrome_json(label);
    std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
    let dropped = tracer.events_dropped();
    let drop_note = if dropped > 0 {
        format!(", {dropped} dropped at the buffer cap")
    } else {
        String::new()
    };
    eprintln!(
        "-- trace: wrote {path} ({} event(s){drop_note})",
        tracer.events_recorded()
    );
    Ok(())
}

/// Render and write a `--metrics` OpenMetrics exposition, with a stderr
/// note mirroring `--trace`'s convention. Like the trace, this runs even
/// when evaluation failed, so aborted runs can be diagnosed.
fn write_metrics(set: &MetricSet, path: &str) -> Result<(), String> {
    let text = set.render_openmetrics();
    std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("-- metrics: wrote {path} ({} sample(s))", set.samples().len());
    Ok(())
}

/// Anchor the allocator counter track at t0, so even a run that aborts
/// before its first round produces a validator-clean document.
fn trace_heap_anchor(t: &Tracer) {
    t.counter(
        MAIN_LANE,
        NameRef::Static("heap"),
        vec![
            ("live", alloc::current_bytes() as u64),
            ("peak", alloc::peak_bytes() as u64),
        ],
    );
}

fn cmd_run(path: &str, preds: &[String], opts: &RunOpts) -> Result<(), String> {
    let mut phases = Vec::new();
    let tracer = opts.trace.as_ref().map(|_| Tracer::new());
    let tr = tracer.as_ref();
    if let Some(t) = tr {
        trace_heap_anchor(t);
    }
    let program = run_phase(&mut phases, tr, "parse", || load(path))?;
    if opts.stats {
        // Evaluation doesn't need the static battery, but the phase split
        // should report what the full check-then-run pipeline costs.
        run_phase(&mut phases, tr, "analyze", || {
            std::hint::black_box(maglog::analysis::check_program(&program));
        });
    }
    let mut eval_options = EvalOptions::default();
    if let Some(max_rounds) = opts.max_rounds {
        eval_options.max_rounds = max_rounds;
    }
    eval_options.optimize = opts.optimize;
    eval_options.workers = opts.parallel;
    let goal = opts
        .query
        .as_deref()
        .map(|q| parse_goal(&program, q))
        .transpose()?;
    let engine = run_phase(&mut phases, tr, "plan", || {
        MonotonicEngine::with_options(&program, eval_options)
    });
    let mut provenance = None;
    // `--stats` and `--metrics` both read the one recorder. It rides the
    // sink by `&mut`, so it can be read after the run.
    let mut metrics = (opts.stats || opts.metrics.is_some())
        .then(|| MetricsSink::new(&program, Strategy::SemiNaive));
    let eval_result: Result<Model, String> = run_phase(&mut phases, tr, "eval", || {
        let mut sink = Fanout(tr.map(|t| SpanSink::new(&program, t.clone())), &mut metrics);
        if opts.explain.is_some() {
            // Provenance capture clamps to one worker and semi-naive; the
            // sinks still see the whole run.
            let (model, prov) = engine
                .evaluate_with_provenance(&Edb::new(), &mut sink)
                .map_err(|e| e.to_string())?;
            provenance = Some(prov);
            return Ok(model);
        }
        match &goal {
            Some(goal) => engine.evaluate_goal_with_sink(&Edb::new(), goal, &mut sink),
            None => engine.evaluate_with_sink(&Edb::new(), &mut sink),
        }
        .map_err(|e| e.to_string())
    });
    // Dump the timeline even when evaluation failed: the renderer closes
    // the spans an aborted run left open, so a non-terminating run's
    // trace shows exactly where the rounds went.
    if let (Some(t), Some(out)) = (tr, opts.trace.as_deref()) {
        write_trace(t, path, out)?;
    }
    // Same contract for the metrics: whatever the histograms saw before
    // the abort still gets written.
    if let (Some(m), Some(out)) = (&metrics, opts.metrics.as_deref()) {
        write_metrics(&m.metric_set(&[]), out)?;
    }
    let model = eval_result?;
    let report = metrics
        .filter(|_| opts.stats)
        .map(|m| m.finish().render_human());
    if let Some(goal) = &goal {
        // Answer the point query directly from the computed model. Under
        // `--optimize=demand` only the goal's derivation cone was
        // evaluated, so the full-model dump would be misleading — print
        // the queried fact only.
        let name = program.pred_name(goal.pred);
        match model
            .interp()
            .relation(goal.pred)
            .and_then(|rel| rel.get(&goal.key))
        {
            Some(cost) => {
                let mut parts: Vec<String> =
                    goal.key.0.iter().map(|v| v.display(&program)).collect();
                if let Some(c) = cost {
                    parts.push(c.display(&program));
                }
                println!("{name}({}).", parts.join(", "));
            }
            None => {
                let parts: Vec<String> =
                    goal.key.0.iter().map(|v| v.display(&program)).collect();
                println!("{name}({}) is not in the model.", parts.join(", "));
            }
        }
    } else if preds.is_empty() {
        println!("{}", model.render(&program));
    } else {
        for pred in preds {
            for (key, cost) in model.tuples_of(&program, pred) {
                let mut parts: Vec<String> =
                    key.iter().map(|v| v.display(&program)).collect();
                if let Some(c) = cost {
                    parts.push(c.display(&program));
                }
                println!("{pred}({})", parts.join(", "));
            }
        }
    }
    let per_component = if model.stats().rounds.len() > 1 {
        format!(" ({})", model.rounds_breakdown())
    } else {
        String::new()
    };
    eprintln!(
        "-- {} atoms, {} rounds{}, {} firings",
        model.interp().size(),
        model.total_rounds(),
        per_component,
        model.stats().firings
    );
    for line in &model.stats().optimizations {
        eprintln!("-- optimize: {line}");
    }
    if model.stats().pruned > 0 {
        eprintln!(
            "-- optimize: {} derivation(s) pruned",
            model.stats().pruned
        );
    }
    if opts.stats {
        let parts: Vec<String> = phases
            .iter()
            .map(|p| {
                format!(
                    "{} {} / {}",
                    p.name,
                    maglog::bench::fmt_secs(p.secs),
                    fmt_bytes(p.alloc_bytes as u64)
                )
            })
            .collect();
        eprintln!("-- phases: {}", parts.join(", "));
    }
    if let Some(report) = report {
        eprint!("{report}");
    }
    if let (Some(pred_name), Some(prov)) = (&opts.explain, provenance) {
        let pred = program
            .find_pred(pred_name)
            .ok_or_else(|| format!("--explain: unknown predicate '{pred_name}'"))?;
        eprintln!(
            "-- provenance store: ~{}",
            fmt_bytes(prov.heap_bytes() as u64)
        );
        println!("-- derivations of {pred_name} --");
        for (key, _cost) in model.tuples_of(&program, pred_name) {
            let tuple = Tuple::new(key);
            let node = explain_tree(&program, &prov, model.interp(), pred, &tuple, 2);
            print!("{}", render_explain_human(&node));
        }
    }
    Ok(())
}

/// Explain one goal fact: WHY it was derived (derivation tree with
/// aggregate witnesses) or — with `--why-not` — why it was not.
fn cmd_explain_goal(path: &str, goal_text: &str, opts: &ExplainOpts) -> Result<(), String> {
    let program = load(path)?;
    let goal = parse_goal(&program, goal_text)?;
    if opts.why_not {
        if opts.format == ExplainFormat::Dot {
            return Err("--format=dot is not supported with --why-not".into());
        }
        let model = MonotonicEngine::new(&program)
            .evaluate(&Edb::new())
            .map_err(|e| e.to_string())?;
        let report = why_not(&program, model.interp(), &goal);
        match opts.format {
            ExplainFormat::Human => print!("{}", render_why_not_human(&report)),
            ExplainFormat::Json => print!("{}", render_why_not_json(path, &report)),
            ExplainFormat::Dot => unreachable!("rejected above"),
        }
        return Ok(());
    }
    let (model, prov) = MonotonicEngine::new(&program)
        .evaluate_with_provenance(&Edb::new(), &mut NoopSink)
        .map_err(|e| e.to_string())?;
    let node = explain_tree(&program, &prov, model.interp(), goal.pred, &goal.key, opts.depth);
    match opts.format {
        ExplainFormat::Human => print!("{}", render_explain_human(&node)),
        ExplainFormat::Json => {
            print!("{}", render_explain_json(path, goal_text, &node, opts.depth))
        }
        ExplainFormat::Dot => print!("{}", render_explain_dot(&node)),
    }
    Ok(())
}

/// Evaluate under one or all strategies with profiling sinks, then render
/// the reports (human trace + summary, or the `maglog-profile-v1` JSON).
fn cmd_profile(path: &str, opts: &ProfileOpts) -> Result<(), String> {
    let program = load(path)?;
    let tracer = opts.trace.as_ref().map(|_| Tracer::new());
    if let Some(t) = tracer.as_ref() {
        trace_heap_anchor(t);
    }
    let mut all_metrics = MetricSet::new();
    let strategies: Vec<Strategy> = match opts.strategy {
        Some(s) => vec![s],
        None => vec![Strategy::Naive, Strategy::SemiNaive, Strategy::Greedy],
    };
    let mut reports = Vec::new();
    for strategy in strategies {
        let engine = MonotonicEngine::with_options(
            &program,
            EvalOptions {
                strategy,
                optimize: opts.optimize,
                workers: opts.parallel,
                ..Default::default()
            },
        );
        // One top-level span per strategy, so the strategies are easy to
        // tell apart in the timeline when all three are profiled.
        let span = tracer
            .as_ref()
            .map(|t| t.intern(&format!("eval[{}]", strategy.name())));
        if let (Some(t), Some(name)) = (tracer.as_ref(), span) {
            t.begin(MAIN_LANE, "phase", name);
        }
        let mut sink = Fanout(
            tracer.as_ref().map(|t| SpanSink::new(&program, t.clone())),
            MetricsSink::new(&program, strategy),
        );
        // Scope the allocator peak to this strategy's evaluation, so each
        // report's alloc_peak_bytes is a per-strategy high-water mark.
        alloc::reset_peak();
        let eval_result = engine
            .evaluate_with_sink(&Edb::new(), &mut sink)
            .map_err(|e| format!("[{}] {e}", strategy.name()));
        if let (Some(t), Some(name)) = (tracer.as_ref(), span) {
            t.end(MAIN_LANE, "phase", name);
        }
        let Fanout(_span, metrics) = sink;
        let set = opts.metrics.is_some().then(|| metrics.metric_set(&[]));
        if let Some(set) = &set {
            all_metrics.merge(set);
        }
        if let Err(e) = eval_result {
            // Still dump the partial timeline and exposition; the aborted
            // evaluation is usually exactly what they are wanted for.
            if let (Some(t), Some(out)) = (tracer.as_ref(), opts.trace.as_deref()) {
                let _ = write_trace(t, path, out);
            }
            if let Some(out) = opts.metrics.as_deref() {
                let _ = write_metrics(&all_metrics, out);
            }
            return Err(e);
        }
        let mut report = metrics.finish();
        if let Some(set) = &set {
            report.histograms = set.blocks();
        }
        match opts.format {
            Format::Human => {
                print!("{}", report.render_trace());
                print!("{}", report.render_human());
                println!();
            }
            Format::Json => reports.push(report),
        }
    }
    if opts.format == Format::Json {
        print!("{}", render_profile_json(path, &reports));
    }
    if let (Some(t), Some(out)) = (tracer.as_ref(), opts.trace.as_deref()) {
        if opts.format == Format::Human {
            let widest: Vec<String> = t
                .top_spans(5)
                .into_iter()
                .map(|s| format!("{} {}", s.name, maglog::bench::fmt_secs(s.nanos as f64 / 1e9)))
                .collect();
            if !widest.is_empty() {
                println!("widest spans: {}", widest.join(", "));
            }
        }
        write_trace(t, path, out)?;
    }
    if let Some(out) = opts.metrics.as_deref() {
        write_metrics(&all_metrics, out)?;
    }
    Ok(())
}

/// Check a `--trace` dump against the `maglog-trace-v1` contract: every
/// lane's B/E spans balance, timestamps are monotone per lane, lanes are
/// named, and the heap counter was sampled. CI runs this over every
/// example program's trace.
struct DiffOpts {
    format: Format,
    /// Exit 1 when any regression's direction-corrected factor exceeds
    /// this ratio.
    gate: Option<f64>,
}

fn parse_diff_opts(args: &[String]) -> Result<(DiffOpts, Vec<String>), ArgError> {
    let mut opts = DiffOpts {
        format: Format::Human,
        gate: None,
    };
    let mut operands = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let (flag, inline_value) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        let mut value = |name: &str| -> Result<String, ArgError> {
            match inline_value.clone().or_else(|| it.next().cloned()) {
                Some(v) => Ok(v),
                None => Err(ArgError::Usage(format!("{name} requires a value"))),
            }
        };
        match flag {
            "--format" => {
                opts.format = match value("--format")?.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => {
                        return Err(ArgError::Usage(format!("unknown format '{other}'")))
                    }
                };
            }
            "--gate" => {
                let v = value("--gate")?;
                opts.gate = Some(
                    v.parse()
                        .ok()
                        .filter(|r: &f64| r.is_finite() && *r > 0.0)
                        .ok_or_else(|| {
                            ArgError::Usage(format!("--gate needs a positive ratio, got '{v}'"))
                        })?,
                );
            }
            f if f.starts_with('-') => {
                return Err(ArgError::Usage(format!("unknown flag '{f}'")));
            }
            _ => operands.push(arg.clone()),
        }
    }
    Ok((opts, operands))
}

/// Diff two telemetry captures. Returns the exit code directly because
/// the contract distinguishes gate failures (1) from unreadable or
/// kind-mismatched documents (2) — and the latter should not dump the
/// whole usage blob the way a flag typo does.
fn cmd_diff(before_path: &str, after_path: &str, opts: &DiffOpts) -> ExitCode {
    let load = |path: &str| -> Result<Document, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_document(&text).map_err(|e| format!("{path}: {e}"))
    };
    let report = match (|| {
        let before = load(before_path)?;
        let after = load(after_path)?;
        diff_documents(&before, &after)
    })() {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    match opts.format {
        Format::Human => print!("{}", report.render_human(before_path, after_path)),
        Format::Json => println!("{}", report.to_json(before_path, after_path)),
    }
    if let Some(threshold) = opts.gate {
        let failures = report.gate_failures(threshold);
        if !failures.is_empty() {
            eprintln!(
                "diff gate: FAIL ({} regression(s) beyond {threshold}x)",
                failures.len()
            );
            return ExitCode::FAILURE;
        }
        eprintln!("diff gate: OK (threshold {threshold}x)");
    }
    ExitCode::SUCCESS
}

/// Fold a `maglog-trace-v1` timeline into collapsed-stack lines for
/// flame-graph tools. Validation runs first, so this accepts exactly
/// what `trace-validate` accepts.
fn cmd_trace_flame(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let collapsed = render_collapsed_stacks(&text).map_err(|e| format!("{path}: {e}"))?;
    print!("{collapsed}");
    Ok(())
}

fn cmd_trace_validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let check = validate_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: valid {TRACE_SCHEMA}: {} event(s), {} lane(s), {} heap sample(s), {} dropped",
        check.events, check.lanes, check.heap_samples, check.dropped
    );
    Ok(())
}

/// Check a `--metrics` exposition against the bundled OpenMetrics 1.0
/// parser: metadata shape, family contiguity, histogram bucket
/// invariants, label syntax, and the mandatory `# EOF` terminator. CI
/// runs this over every example program's exposition.
fn cmd_metrics_validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let exp = parse_openmetrics(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: valid OpenMetrics 1.0: {} family(ies), {} sample(s)",
        exp.families.len(),
        exp.total_samples()
    );
    Ok(())
}

fn cmd_compare(path: &str) -> Result<(), String> {
    let program = load(path)?;
    let model = MonotonicEngine::new(&program)
        .evaluate(&Edb::new())
        .map_err(|e| e.to_string())?;
    let ks = ks_well_founded(&program, &Edb::new())?;
    println!(
        "minimal model: {} atoms;  K&S WFS: {} true / {} false / {} undefined",
        model.interp().size(),
        ks.count(AtomStatus::True),
        ks.count(AtomStatus::False),
        ks.count(AtomStatus::Undefined),
    );
    println!(
        "  engine:  {} round(s), {} firing(s)",
        model.total_rounds(),
        model.stats().firings,
    );
    println!("  K&S WFS: {}", ks.stats.render());
    // Show where the minimal model decides what K&S cannot.
    let mut shown = 0;
    for pred in program.all_preds() {
        let name = program.pred_name(pred);
        for key in ks.undefined_keys(&program, &name) {
            if shown >= 20 {
                println!("  ... (more undefined atoms elided)");
                return Ok(());
            }
            let keys: Vec<String> = key.0.iter().map(|v| v.display(&program)).collect();
            let keyrefs: Vec<&str> = keys.iter().map(String::as_str).collect();
            let ours = model
                .cost_of(&program, &name, &keyrefs)
                .map(|v| format!("true ({v})"))
                .unwrap_or_else(|| {
                    if model.holds(&program, &name, &keyrefs) {
                        "true".into()
                    } else {
                        "false".into()
                    }
                });
            println!(
                "  {name}({}) — K&S: undefined, minimal model: {ours}",
                keys.join(", ")
            );
            shown += 1;
        }
    }
    if shown == 0 {
        println!("  (K&S is two-valued here; Proposition 6.1 says the models agree)");
    }
    Ok(())
}

fn cmd_explain(path: &str) -> Result<(), String> {
    let program = load(path)?;
    println!("{} rules, {} constraints, {} inline facts",
        program.rules.len(), program.constraints.len(), program.facts.len());
    for (i, comp) in components(&program).iter().enumerate() {
        let preds: Vec<String> = comp.preds.iter().map(|p| program.pred_name(*p)).collect();
        let ldb: Vec<String> = comp
            .ldb_preds(&program)
            .iter()
            .map(|p| program.pred_name(*p))
            .collect();
        println!(
            "component {i}: CDB {{{}}} over LDB {{{}}}{}{}",
            preds.join(", "),
            ldb.join(", "),
            if comp.recursive_aggregation {
                "  [recursion through aggregation]"
            } else {
                ""
            },
            if comp.recursive_negation {
                "  [recursion through negation]"
            } else {
                ""
            },
        );
        for &ri in &comp.rule_indices {
            println!("    {}", program.display_rule(&program.rules[ri]));
        }
    }
    Ok(())
}
