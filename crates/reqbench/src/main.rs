//! `reqbench`: run the request benchmark and print its metrics.
//!
//! ```text
//! reqbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! Without `--workload` every workload runs, their timed blocks
//! interleaved. `--seconds` defaults to [`RUN_SECONDS`], the
//! `run_seconds` of `BENCHMARK.json`, which harnesses reading that file
//! pass explicitly. The human table goes to stdout, followed by one JSON
//! result line; the `maglog-benchmark-v1` document and, when traced, each
//! workload's trace and collapsed stacks are written under `--out`. Exits
//! 1 when any request failed or answered wrongly, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use maglog_reqbench::workloads::{spec, Spec, SPECS};
use maglog_reqbench::{
    render_document, render_result_line, render_table, run, Budget, Config, RUN_SECONDS,
};

#[global_allocator]
static ALLOC: maglog_engine::alloc::CountingAlloc = maglog_engine::alloc::CountingAlloc;

const USAGE: &str =
    "usage: reqbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

struct Args {
    specs: Vec<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        specs: SPECS.iter().collect(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: true,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                let s = spec(&value)
                    .ok_or_else(|| bad(&format!("expected one of {}", known.join(", "))))?;
                args.specs = vec![s];
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn write(path: PathBuf, text: &str) -> Result<(), String> {
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The environment header asks `git` for the commit; keep it from
    // searching for a repository above the directory the run starts in.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    let cfg = Config {
        seed: args.seed,
        budget: Budget::Seconds(args.seconds),
        setups: 7,
        trace: args.trace,
        warmup: None,
        traced: None,
        instances: None,
    };
    let reports = run(&args.specs, &cfg);

    let label = match reports.as_slice() {
        [one] => one.workload,
        _ => "all",
    };
    let written = std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))
        .and_then(|()| {
            write(
                args.out.join(format!("benchmark-{label}.json")),
                &render_document(&reports, &cfg),
            )?;
            for r in &reports {
                if let Some(t) = &r.trace {
                    write(args.out.join(format!("trace-{}.json", r.workload)), &t.json)?;
                    write(
                        args.out.join(format!("trace-{}.folded", r.workload)),
                        &t.collapsed,
                    )?;
                }
            }
            Ok(())
        });
    if let Err(e) = written {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }

    print!("{}", render_table(&reports));
    println!("{}", render_result_line(&reports, args.trace));
    if reports.iter().all(|r| r.correct()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
