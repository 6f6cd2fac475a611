//! End-to-end harness test with a counting allocator installed, so the
//! peak-heap column is real (the lib unit tests run without one and see
//! zeros).

use maglog_bench::v2::{environment, gate, render_human, render_v2, run_config, BenchConfig};
use maglog_engine::jsonish;

#[global_allocator]
static ALLOC: maglog_engine::alloc::CountingAlloc = maglog_engine::alloc::CountingAlloc;

fn tiny_config() -> BenchConfig {
    BenchConfig {
        samples: 1,
        warmup: 0,
        workloads: vec!["shortest_path".into()],
        sizes: vec![16],
        ..Default::default()
    }
}

#[test]
fn harness_measures_and_gates_a_real_run() {
    let cfg = tiny_config();
    let measurements = run_config(&cfg, |_| {}).unwrap();
    assert_eq!(measurements.len(), 1);
    let m = &measurements[0];
    assert_eq!(m.workload, "shortest_path");
    assert_eq!(m.size, 16);
    assert!(m.edb_facts > 0);
    assert!(m.tuples > 0);
    assert_eq!(m.strategies.len(), 3);
    for s in &m.strategies {
        assert!(s.stats.median >= s.stats.min);
        assert!(s.derivations > 0);
        // The allocator is installed here, so the evaluation's transient
        // footprint must be visible.
        assert!(s.peak_heap_bytes > 0, "{} saw no heap growth", s.strategy);
    }

    // The emitted document is valid JSON in the v2 schema...
    let env = environment(&cfg);
    assert_eq!(env.samples, 1);
    assert!(env.cpus >= 1);
    let doc = render_v2(&env, &measurements);
    let parsed = jsonish::parse(&doc).unwrap();
    assert_eq!(
        parsed.get("schema").and_then(|v| v.as_str()),
        Some("maglog-bench-v2")
    );
    assert!(parsed.get("environment").and_then(|e| e.get("commit")).is_some());

    // ...reads back as a baseline the same run passes against...
    let outcome = gate(&doc, &env, &measurements, 1.25).unwrap();
    assert_eq!(outcome.compared, 3);
    assert!(outcome.passed());

    // ...and a doctored much-faster baseline fails the gate — with the
    // attribution machinery seeing identical work counters.
    let mut fast = measurements.clone();
    for s in &mut fast[0].strategies {
        s.stats.median /= 1000.0;
    }
    let failed = gate(&render_v2(&env, &fast), &env, &measurements, 1.25).unwrap();
    assert!(!failed.passed());
    assert_eq!(failed.failures.len(), 3);
    assert!(failed.failures.iter().all(|(_, counters)| counters.is_empty()));

    // The human table renders every strategy row with a real peak column.
    let table = render_human(&env, &measurements);
    assert!(table.contains("seminaive"));
    assert!(table.contains("greedy"));
    assert!(!table.contains(" -\n"));
}
