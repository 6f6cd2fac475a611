//! Shared helpers for the maglog benchmark suite and experiments binary.

pub mod v2;

use maglog_datalog::{parse_program, Program};
use maglog_engine::{Edb, EvalOptions, MetricsSink, Model, MonotonicEngine, ProfileReport, Strategy};

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

/// Evaluate with the naive strategy (the ablation arm).
pub fn run_naive(program: &Program, edb: &Edb) -> Model {
    MonotonicEngine::with_options(
        program,
        EvalOptions {
            strategy: Strategy::Naive,
            ..Default::default()
        },
    )
    .evaluate(edb)
    .expect("evaluation succeeds")
}

/// Evaluate with the greedy (best-first) strategy — eligible `min_real`
/// components settle Dijkstra-style.
pub fn run_greedy(program: &Program, edb: &Edb) -> Model {
    MonotonicEngine::with_options(
        program,
        EvalOptions {
            strategy: Strategy::Greedy,
            ..Default::default()
        },
    )
    .evaluate(edb)
    .expect("evaluation succeeds")
}

/// Evaluate once under `strategy` with a [`MetricsSink`] attached and
/// return the profile report. Bench v2 uses it for an extra *untimed*
/// instrumented run, so the timed samples stay free of even the (tiny)
/// instrumented-build overhead.
pub fn profile_run(program: &Program, edb: &Edb, strategy: Strategy) -> ProfileReport {
    let engine = MonotonicEngine::with_options(
        program,
        EvalOptions {
            strategy,
            ..Default::default()
        },
    );
    let mut sink = MetricsSink::new(program, strategy);
    engine
        .evaluate_with_sink(edb, &mut sink)
        .expect("evaluation succeeds");
    sink.finish()
}

/// Wall-clock one closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
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

pub mod harness {
    //! Minimal drop-in benchmark harness with criterion's API shape.
    //!
    //! The workspace must build with no external dependencies, so the
    //! benches use this shim instead of criterion: same `Criterion`,
    //! `benchmark_group`, `bench_with_input`, and `criterion_group!` /
    //! `criterion_main!` surface, but measurement is a plain
    //! median-of-samples wall-clock timer printed to stdout.
    //! Set `MAGLOG_BENCH_SAMPLES` to override the per-group sample count.

    use std::fmt::Display;
    use std::time::Instant;

    pub use std::hint::black_box;

    pub use crate::{criterion_group, criterion_main};

    use crate::fmt_secs;

    #[derive(Default)]
    pub struct Criterion {
        _priv: (),
    }

    impl Criterion {
        pub fn benchmark_group(&mut self, name: impl Display) -> BenchmarkGroup {
            println!("group {name}");
            BenchmarkGroup { sample_size: 30 }
        }
    }

    pub struct BenchmarkGroup {
        sample_size: usize,
    }

    pub struct BenchmarkId {
        label: String,
    }

    impl BenchmarkId {
        pub fn new(name: impl Display, param: impl Display) -> Self {
            BenchmarkId {
                label: format!("{name}/{param}"),
            }
        }
    }

    pub struct Bencher {
        samples: Vec<f64>,
        per_sample: usize,
    }

    impl Bencher {
        pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
            // One untimed warm-up, then the requested samples.
            black_box(f());
            for _ in 0..self.per_sample {
                let start = Instant::now();
                black_box(f());
                self.samples.push(start.elapsed().as_secs_f64());
            }
        }
    }

    impl BenchmarkGroup {
        pub fn sample_size(&mut self, n: usize) -> &mut Self {
            self.sample_size = n;
            self
        }

        pub fn bench_with_input<I: ?Sized, F>(
            &mut self,
            id: BenchmarkId,
            input: &I,
            mut f: F,
        ) -> &mut Self
        where
            F: FnMut(&mut Bencher, &I),
        {
            let per_sample = std::env::var("MAGLOG_BENCH_SAMPLES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(self.sample_size);
            let mut b = Bencher {
                samples: Vec::new(),
                per_sample,
            };
            f(&mut b, input);
            let mut s = b.samples;
            if s.is_empty() {
                println!("  {:40} (no samples)", id.label);
                return self;
            }
            s.sort_by(|a, b| a.total_cmp(b));
            let median = s[s.len() / 2];
            let mean = s.iter().sum::<f64>() / s.len() as f64;
            println!(
                "  {:40} median {:>10}  mean {:>10}  ({} samples)",
                id.label,
                fmt_secs(median),
                fmt_secs(mean),
                s.len()
            );
            self
        }

        pub fn finish(&mut self) {}
    }

    /// Mirror of `criterion_group!`: bundles bench functions into one runner.
    #[macro_export]
    macro_rules! criterion_group {
        ($name:ident, $($target:path),+ $(,)?) => {
            fn $name() {
                let mut c = $crate::harness::Criterion::default();
                $( $target(&mut c); )+
            }
        };
    }

    /// Mirror of `criterion_main!`: entry point invoking each group.
    #[macro_export]
    macro_rules! criterion_main {
        ($($group:path),+ $(,)?) => {
            fn main() {
                $( $group(); )+
            }
        };
    }
}
