//! Shared helpers for the `maglog bench` harness and the experiments
//! binary.

pub mod v2;

use maglog_datalog::{parse_program, Program};
use maglog_engine::{Edb, Model, MonotonicEngine};

/// Parse a workload program, panicking with context on failure.
pub fn program(src: &str) -> Program {
    parse_program(src).expect("workload program parses")
}

/// Evaluate with the default (semi-naive) engine.
pub fn run_seminaive(program: &Program, edb: &Edb) -> Model {
    MonotonicEngine::new(program)
        .evaluate(edb)
        .expect("evaluation succeeds")
}

/// Format seconds human-readably for the experiment tables.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}
