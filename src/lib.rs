//! # maglog — Monotonic Aggregation in Deductive Databases
//!
//! A Rust implementation of Ross & Sagiv's lattice-based semantics for
//! recursive aggregation (PODS 1992), with the full static-analysis battery
//! of the paper and the competing semantics of its Section 5 as executable
//! baselines.
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`lattice`] — complete lattices (Figure 1 domains) and multisets;
//! * [`datalog`] — AST, parser, and program/component structure;
//! * [`analysis`] — range restriction, cost-respecting / conflict-freedom,
//!   well-formedness, admissibility, r-monotonicity;
//! * [`engine`] — the monotonic fixpoint engine (`T_P`, naive & semi-naive
//!   evaluation, iterated minimal models);
//! * [`baselines`] — stratified evaluation, Kemp–Stuckey well-founded and
//!   stable semantics, Ganguly–Greco–Zaniolo rewriting, and direct
//!   algorithms (Dijkstra et al.);
//! * [`workloads`] — paper programs and synthetic instance generators;
//! * [`bench`](mod@bench) — the measurement harness behind `maglog bench` and the
//!   experiments binary (statistics, the `maglog-bench-v2` schema, and
//!   regression gating).
//!
//! ## Quickstart
//!
//! ```
//! use maglog::prelude::*;
//!
//! let program = parse_program(
//!     r#"
//!     declare pred s/3 cost min_real.
//!     declare pred path/4 cost min_real.
//!     path(X, direct, Y, C) :- arc(X, Y, C).
//!     path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
//!     s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
//!     declare pred arc/3 cost min_real.
//!     constraint :- arc(direct, Z, C).
//!     "#,
//! )
//! .unwrap();
//!
//! let mut edb = Edb::new();
//! edb.push_cost_fact(&program, "arc", &["a", "b"], 1.0);
//! edb.push_cost_fact(&program, "arc", &["b", "b"], 0.0);
//!
//! let model = MonotonicEngine::new(&program).evaluate(&edb).unwrap();
//! let s_ab = model.cost_of(&program, "s", &["a", "b"]).unwrap();
//! assert_eq!(s_ab.as_f64(), Some(1.0));
//! ```

pub use maglog_analysis as analysis;
pub use maglog_baselines as baselines;
pub use maglog_bench as bench;
pub use maglog_datalog as datalog;
pub use maglog_engine as engine;
pub use maglog_lattice as lattice;
pub use maglog_prng as prng;
pub use maglog_workloads as workloads;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::analysis::{admissibility_report, check_program, AnalysisReport};
    pub use crate::datalog::{parse_program, Program};
    pub use crate::engine::{CostValue, Edb, EvalOptions, Model, MonotonicEngine};
    pub use crate::lattice::{CompleteLattice, JoinSemiLattice, Poset};
}
