//! The monotonic-aggregation fixpoint engine.
//!
//! This crate implements Section 3 and Section 6 of Ross & Sagiv
//! (PODS 1992): aggregate Herbrand interpretations ordered by the lifted
//! cost lattice (Definition 3.3, Theorem 3.1), the immediate-consequence
//! operator `T_P(J, I)` (Definition 3.7), bottom-up naive and semi-naive
//! iteration from `J_∅` to the least fixpoint (Section 6.2), and the
//! iterated minimal-model construction across program components
//! (Section 6.3).
//!
//! The engine refuses — by default — to evaluate programs that the static
//! battery of `maglog-analysis` cannot certify (range-restricted,
//! conflict-free, admissible ⇒ monotonic), because only then do
//! Propositions 3.3–3.4 guarantee that what the fixpoint computes *is* the
//! unique minimal model. [`EvalOptions::allow_unchecked`] bypasses the gate
//! for experiments with non-monotonic programs.
//!
//! ```
//! use maglog_datalog::parse_program;
//! use maglog_engine::{Edb, MonotonicEngine};
//!
//! let program = parse_program(
//!     r#"
//!     declare pred arc/3 cost min_real.
//!     declare pred path/4 cost min_real.
//!     declare pred s/3 cost min_real.
//!     path(X, direct, Y, C) :- arc(X, Y, C).
//!     path(X, Z, Y, C) :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
//!     s(X, Y, C) :- C =r min D : path(X, Z, Y, D).
//!     constraint :- arc(direct, Z, C).
//!     "#,
//! )
//! .unwrap();
//! let mut edb = Edb::new();
//! edb.push_cost_fact(&program, "arc", &["a", "b"], 1.0);
//! edb.push_cost_fact(&program, "arc", &["b", "b"], 0.0);
//! let model = MonotonicEngine::new(&program).evaluate(&edb).unwrap();
//! assert_eq!(
//!     model.cost_of(&program, "s", &["a", "b"]).unwrap().as_f64(),
//!     Some(1.0)
//! );
//! ```

pub mod aggregate;
pub mod alloc;
pub mod diff;
pub mod edb;
pub mod error;
pub mod eval;
pub mod events;
mod fire;
pub mod interp;
pub mod jsonish;
pub mod metrics;
pub mod model;
pub mod par;
pub mod plan;
pub mod profile;
pub mod provenance;
pub mod trace;
pub mod value;

pub use alloc::CountingAlloc;
pub use diff::{
    diff_documents, diff_texts, parse_document, DiffEntry, DiffReport, DocKind, Document,
    Figure, DIFF_SCHEMA,
};
pub use edb::Edb;
pub use error::EvalError;
pub use eval::{EvalOptions, EvalStats, MonotonicEngine, Strategy};
pub use plan::{prem_rewrites, Optimize, Rewrites};
pub use events::{
    Clock, Event, EventSink, Fanout, InsertOutcome, ManualClock, NoopSink, SystemClock,
};
pub use interp::{IndexStats, Interp, Relation, RelationMemory, Tuple};
pub use metrics::{
    parse_openmetrics, Histogram, HistogramBlock, Meter, MetricSet, Unit, WorkerSample,
};
pub use model::Model;
pub use par::{available_workers, resolve_workers};
pub use profile::{
    fmt_bytes, fmt_nanos, render_profile_json, MetricsSink, ParallelProfile, ProfileReport,
};
pub use trace::{
    render_collapsed_stacks, validate_chrome_trace, SpanSink, TraceCheck, Tracer, TRACE_SCHEMA,
};
pub use provenance::{
    explain_tree, parse_goal, render_explain_dot, render_explain_human, render_explain_json,
    render_why_not_human, render_why_not_json, why_not, AggWitness, BodyAtom, DerivationNode, ExplainAgg,
    ExplainKind, ExplainNode, Goal, Provenance, ProvenanceSink, RuleProbe, WhyNotReport,
};
pub use value::{CostValue, RuntimeDomain, Value};
