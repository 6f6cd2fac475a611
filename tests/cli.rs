//! Integration tests for the `maglog` CLI binary against the sample
//! programs under `programs/`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn maglog(args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_maglog");
    Command::new(bin)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("maglog binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn check_certifies_the_shortest_path_program() {
    let out = maglog(&["check", "programs/shortest_path.mgl"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("monotonic:        yes"));
    assert!(text.contains("verdict: evaluable"));
}

#[test]
fn run_prints_the_minimal_model() {
    let out = maglog(&["run", "programs/shortest_path.mgl", "s"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("s(a, b, 1)"), "{text}");
    assert!(text.contains("s(b, b, 0)"), "{text}");
    assert!(stderr(&out).contains("rounds"));
}

#[test]
fn run_stats_appends_a_profile_report() {
    let out = maglog(&["run", "--stats", "programs/shortest_path.mgl", "s"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("s(a, b, 1)"));
    let err = stderr(&out);
    assert!(err.contains("== profile [seminaive] =="), "{err}");
    assert!(err.contains("rules:"), "{err}");
    assert!(err.contains("indexes:"), "{err}");
}

#[test]
fn run_reports_per_component_rounds() {
    let dir = std::env::temp_dir().join("maglog_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("two_components.mgl");
    std::fs::write(
        &file,
        "e(a, b). e(b, c).\n\
         tc(X, Y) :- e(X, Y).\n\
         tc(X, Y) :- tc(X, Z), e(Z, Y).\n\
         up(X, Y) :- tc(X, Y).\n\
         up(X, Y) :- up(Y, X).\n",
    )
    .unwrap();
    let out = maglog(&["run", file.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    // Two recursive components → the summary breaks the total down.
    assert!(err.contains("rounds (3+3)"), "{err}");
}

#[test]
fn profile_emits_all_three_strategies_as_json() {
    let out = maglog(&["profile", "--format=json", "programs/shortest_path.mgl"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"schema\": \"maglog-profile-v1\""), "{text}");
    for strategy in ["naive", "seminaive", "greedy"] {
        assert!(text.contains(&format!("\"strategy\": \"{strategy}\"")), "{text}");
    }
    assert!(text.contains("\"rounds_detail\""), "{text}");
    assert!(text.contains("\"index_hits\"") || text.contains("\"hits\""), "{text}");
    assert!(text.contains("\"plan\""), "{text}");
    // Balanced braces as a cheap well-formedness check (no string in the
    // output contains braces).
    assert_eq!(text.matches('{').count(), text.matches('}').count(), "{text}");
}

#[test]
fn profile_human_traces_rounds_for_one_strategy() {
    let out = maglog(&[
        "profile",
        "--strategy=seminaive",
        "programs/shortest_path.mgl",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("component 0 [seminaive]"), "{text}");
    assert!(text.contains("round 1 (full)"), "{text}");
    assert!(text.contains("fixpoint after"), "{text}");
    assert!(text.contains("== profile [seminaive] =="), "{text}");
    assert!(!text.contains("[naive]"), "{text}");
}

#[test]
fn run_names_fact_cost_conflicts_by_their_key() {
    let file = trace_tmp("fact_conflict.mgl");
    std::fs::write(
        &file,
        "declare pred arc/3 cost min_real.\narc(a, b, 4). arc(a, b, 9).\n",
    )
    .unwrap();
    let out = maglog(&["run", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("cost conflict on arc(a, b)"), "{err}");
}

#[test]
fn profile_rejects_bad_flag_values() {
    let out = maglog(&["profile", "--format=xml", "programs/shortest_path.mgl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage"), "{}", stderr(&out));
    let out = maglog(&["profile", "--strategy=quantum", "programs/shortest_path.mgl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage"), "{}", stderr(&out));
    let out = maglog(&["profile"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn profile_json_reports_memory_accounting() {
    let out = maglog(&["profile", "--format=json", "programs/shortest_path.mgl"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"memory\""), "{text}");
    assert!(text.contains("\"relation_heap_bytes\""), "{text}");
    assert!(text.contains("\"tuple_bytes\""), "{text}");
    assert!(text.contains("\"index_bytes\""), "{text}");
    // The binary installs the counting allocator, so the real allocator
    // figures must be present and nonzero.
    assert!(text.contains("\"alloc_peak_bytes\""), "{text}");
    assert!(!text.contains("\"alloc_peak_bytes\": 0,"), "{text}");
}

#[test]
fn run_stats_reports_the_phase_split() {
    let out = maglog(&["run", "--stats", "programs/shortest_path.mgl", "s"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("-- phases: parse "), "{err}");
    for phase in ["analyze ", "plan ", "eval "] {
        assert!(err.contains(phase), "{err}");
    }
    // Each phase reports wall clock and allocation traffic.
    assert!(err.contains(" / "), "{err}");
    assert!(err.contains("memory:"), "{err}");
}

#[test]
fn bench_rejects_bad_flags_with_exit_2() {
    for args in [
        &["bench", "--samples", "0"][..],
        &["bench", "--samples", "abc"][..],
        &["bench", "--warmup", "-1"][..],
        &["bench", "--sizes", "16,zap"][..],
        &["bench", "--sizes", "7"][..],
        &["bench", "--workloads", "nope"][..],
        &["bench", "--workloads", "circuit", "--sizes", "16"][..],
        &["bench", "--format=xml"][..],
        &["bench", "--gate", "1.25"][..], // --gate without --baseline
        &["bench", "--gate", "-2", "--baseline", "BENCH_engine.json"][..],
        &["bench", "--parallel=0"][..],
        &["bench", "--parallel=lots"][..],
        &["bench", "--frobnicate"][..],
        &["bench", "stray-operand"][..],
    ] {
        let out = maglog(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("usage"), "{args:?}: {}", stderr(&out));
    }
}

/// One tiny measured cell drives the whole bench pipeline: v2 JSON out,
/// self-baseline gating (pass), and a doctored fast baseline (fail with
/// exit 1).
#[test]
fn bench_emits_v2_json_and_gates_against_baselines() {
    let dir = std::env::temp_dir().join("maglog_cli_bench_test");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("self.json");
    let cell = &[
        "--samples",
        "1",
        "--warmup",
        "0",
        "--workloads",
        "shortest_path",
        "--sizes",
        "16",
    ][..];

    // JSON emission: v2 schema with environment header and per-strategy stats.
    let out = maglog(
        &[&["bench", "--format=json", "--out", baseline.to_str().unwrap()], cell].concat(),
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let doc = stdout(&out);
    assert!(doc.contains("\"schema\": \"maglog-bench-v2\""), "{doc}");
    assert!(doc.contains("\"environment\""), "{doc}");
    assert!(doc.contains("\"rustc\""), "{doc}");
    assert!(doc.contains("\"median_secs\""), "{doc}");
    assert!(doc.contains("\"mad_secs\""), "{doc}");
    assert!(doc.contains("\"peak_heap_bytes\""), "{doc}");
    assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "{doc}");
    assert_eq!(doc, std::fs::read_to_string(&baseline).unwrap());

    // Gating the same cell against its own fresh baseline passes (the
    // generous ratio absorbs scheduler noise between the two runs).
    let out = maglog(
        &[
            &["bench", "--baseline", baseline.to_str().unwrap(), "--gate", "1000"],
            cell,
        ]
        .concat(),
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("gate: OK"), "{}", stderr(&out));

    // A doctored v2 baseline claiming near-zero medians fails the gate.
    let doctored = dir.join("fast.json");
    std::fs::write(
        &doctored,
        std::fs::read_to_string(&baseline)
            .unwrap()
            .replace("\"median_secs\": 0.", "\"median_secs\": 0.000000000"),
    )
    .unwrap();
    let out = maglog(&[&["bench", "--baseline", doctored.to_str().unwrap()], cell].concat());
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("REGRESSION shortest_path/16"), "{err}");
    assert!(err.contains("gate: FAIL"), "{err}");
    // Only the medians were doctored, so the attribution line reports a
    // timing-only regression: identical work, slower.
    assert!(err.contains("counters unchanged"), "{err}");

    // An unreadable or corrupt baseline is a runtime failure, not usage.
    let out = maglog(&[&["bench", "--baseline", "/nonexistent/base.json"], cell].concat());
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
}

#[test]
fn bench_human_table_lists_every_strategy() {
    let out = maglog(&[
        "bench",
        "--samples",
        "1",
        "--warmup",
        "0",
        "--workloads",
        "shortest_path",
        "--sizes",
        "16",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("maglog bench: commit "), "{text}");
    for strategy in ["seminaive", "naive", "greedy"] {
        assert!(text.contains(strategy), "{text}");
    }
    assert!(text.contains("peak heap"), "{text}");
}

#[test]
fn compare_reports_undefined_atoms() {
    let out = maglog(&["compare", "programs/company_control.mgl"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("undefined"), "{text}");
    assert!(text.contains("c(a, b)"), "{text}");
}

#[test]
fn explain_shows_components() {
    let out = maglog(&["explain", "programs/party.mgl"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("recursion through aggregation"), "{text}");
    assert!(text.contains("CDB {coming, kc}"), "{text}");
}

#[test]
fn explain_goal_prints_a_derivation_tree() {
    let out = maglog(&["explain", "programs/shortest_path.mgl", "s(a, b)"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("s(a, b) = 1"), "{text}");
    assert!(text.contains("via rule 2"), "{text}");
    assert!(text.contains("witness element 1"), "{text}");
    assert!(text.contains("arc(a, b) = 1  [input]"), "{text}");
}

#[test]
fn explain_goal_emits_versioned_json() {
    let out = maglog(&[
        "explain",
        "--format=json",
        "programs/shortest_path.mgl",
        "s(a, b)",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"schema\": \"maglog-explain-v1\""), "{text}");
    assert!(text.contains("\"mode\": \"why\""), "{text}");
    assert!(text.contains("\"found\": true"), "{text}");
    assert!(text.contains("\"witnesses\""), "{text}");
    assert_eq!(text.matches('{').count(), text.matches('}').count(), "{text}");
}

#[test]
fn explain_goal_emits_graphviz_dot() {
    let out = maglog(&[
        "explain",
        "--format=dot",
        "programs/shortest_path.mgl",
        "s(a, b)",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("digraph explain {"), "{text}");
    assert!(text.contains("->"), "{text}");
    assert!(text.trim_end().ends_with('}'), "{text}");
}

#[test]
fn explain_why_not_names_the_failing_subgoal() {
    let out = maglog(&[
        "explain",
        "--why-not",
        "programs/shortest_path.mgl",
        "s(b, a)",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("why not s(b, a)?"), "{text}");
    assert!(text.contains("fails at subgoal"), "{text}");
    assert!(text.contains("path(b, Z, a"), "{text}");
}

#[test]
fn explain_covers_max_domains() {
    let out = maglog(&["explain", "programs/widest_path.mgl", "w(a, c)"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("w(a, c) = 3"), "{text}");
    assert!(text.contains("max over"), "{text}");
    assert!(text.contains("witness element 3"), "{text}");
}

#[test]
fn explain_depth_flag_bounds_the_tree() {
    let out = maglog(&[
        "explain",
        "--depth",
        "1",
        "programs/widest_path.mgl",
        "w(a, c)",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("[depth limit]"), "{}", stdout(&out));
}

#[test]
fn explain_flags_without_a_goal_are_a_usage_error() {
    let out = maglog(&["explain", "--why-not", "programs/shortest_path.mgl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage"), "{}", stderr(&out));
}

#[test]
fn run_explain_dumps_witnesses_for_a_predicate() {
    let out = maglog(&["run", "--explain", "s", "programs/shortest_path.mgl", "s"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("-- derivations of s --"), "{text}");
    assert!(text.contains("s(a, b) = 1"), "{text}");
    assert!(text.contains("witness element"), "{text}");
}

#[test]
fn evaluation_failure_exits_nonzero_with_an_actionable_hint() {
    let dir = std::env::temp_dir().join("maglog_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("diverging.mgl");
    std::fs::write(
        &file,
        "declare pred n/2 cost max_real.\n\
         n(z, 0).\n\
         n(X, C) :- n(X, C1), C = C1 + 1.\n",
    )
    .unwrap();
    let out = maglog(&["run", "--max-rounds", "30", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("no fixpoint after 30 rounds"), "{err}");
    assert!(err.contains("maglog profile"), "{err}");
    assert!(err.contains("--trace"), "{err}");
    assert!(err.contains("maglog explain --why-not"), "{err}");

    // Taking the hint works: the aborted run still dumps its timeline
    // (open spans are closed at the abort point) and it validates.
    let trace = dir.join("diverging_trace.json");
    let out = maglog(&[
        "run",
        "--max-rounds",
        "30",
        "--trace",
        trace.to_str().unwrap(),
        file.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("-- trace: wrote"), "{}", stderr(&out));
    let check = maglog(&["trace-validate", trace.to_str().unwrap()]);
    assert!(check.status.success(), "{}", stderr(&check));
}

#[test]
fn compare_reports_baseline_rounds_and_sizes() {
    let out = maglog(&["compare", "programs/shortest_path.mgl"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("engine:"), "{text}");
    assert!(text.contains("round(s)"), "{text}");
    assert!(text.contains("K&S WFS:"), "{text}");
    assert!(text.contains("atom(s)"), "{text}");
}

#[test]
fn widest_path_sample_runs() {
    let out = maglog(&["run", "programs/widest_path.mgl", "w"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("w(a, c, 3)"), "{text}");
    assert!(text.contains("w(c, b, 4)"), "{text}");
}

#[test]
fn circuit_sample_runs() {
    let out = maglog(&["run", "programs/circuit.mgl", "t"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("t(g1, 0)"), "{text}");
    assert!(text.contains("t(g2, 1)"), "{text}");
}

#[test]
fn missing_file_fails_with_a_message() {
    let out = maglog(&["check", "programs/nope.mgl"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("nope.mgl"));
}

#[test]
fn bad_subcommand_prints_usage() {
    let out = maglog(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage"));
}

#[test]
fn unknown_flag_prints_usage_and_exits_2() {
    let out = maglog(&["check", "--frobnicate", "programs/shortest_path.mgl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage"), "{}", stderr(&out));
    assert!(stderr(&out).contains("--frobnicate"), "{}", stderr(&out));
}

#[test]
fn missing_operand_prints_usage_and_exits_2() {
    for args in [&["check"][..], &["run"][..], &["compare"][..]] {
        let out = maglog(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("usage"), "{}", stderr(&out));
    }
}

#[test]
fn flag_on_non_check_subcommand_is_rejected() {
    let out = maglog(&["run", "--format=json", "programs/shortest_path.mgl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage"), "{}", stderr(&out));
}

#[test]
fn unknown_lint_code_is_a_usage_error() {
    let out = maglog(&["check", "--deny", "MAG9999", "programs/shortest_path.mgl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("MAG9999"), "{}", stderr(&out));
}

#[test]
fn check_emits_structured_json_diagnostics() {
    let out = maglog(&["check", "--format=json", "programs/shortest_path.mgl"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"code\": \"MAG0501\""), "{text}");
    assert!(text.contains("\"severity\": \"note\""), "{text}");
    assert!(text.contains("\"start_line\""), "{text}");
    assert!(text.contains("\"error_count\": 0"), "{text}");
}

#[test]
fn deny_escalates_a_note_to_an_error() {
    // Shortest path is legitimately outside the r-monotonic class; denying
    // MAG0501 must flip the exit code, allowing it must restore success.
    let out = maglog(&["check", "--deny", "MAG0501", "programs/shortest_path.mgl"]);
    assert_eq!(out.status.code(), Some(1));
    let out = maglog(&[
        "check",
        "--deny",
        "MAG0501",
        "--allow",
        "MAG0501",
        "programs/shortest_path.mgl",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn check_explain_prints_the_long_form_lint_description() {
    let out = maglog(&["check", "--explain", "MAG0701"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("MAG0701:"), "{text}");
    assert!(text.contains("default severity:"), "{text}");
    assert!(text.contains("reference:"), "{text}");
    // The long-form body, not just the one-line summary.
    assert!(text.contains("--optimize=prem"), "{text}");

    // Unknown codes are usage errors naming the code.
    let out = maglog(&["check", "--explain", "MAG9999"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("MAG9999"), "{}", stderr(&out));
}

#[test]
fn deny_warnings_keeps_note_only_programs_passing() {
    // shortest_path.mgl reports only note-level findings (MAG0501/0502/
    // 0601/0701/0703); escalating warnings must not touch notes, so the
    // exit code stays 0.
    for deny in ["warnings", "all"] {
        let out = maglog(&["check", "--deny", deny, "programs/shortest_path.mgl"]);
        assert!(
            out.status.success(),
            "--deny {deny}: {}{}",
            stdout(&out),
            stderr(&out)
        );
    }
}

#[test]
fn run_optimize_prunes_and_preserves_the_model() {
    let plain = maglog(&["run", "programs/shortest_path.mgl"]);
    let opt = maglog(&["run", "--optimize=prem", "programs/shortest_path.mgl"]);
    assert!(opt.status.success(), "{}", stderr(&opt));
    // Same model on stdout, decision lines on stderr.
    assert_eq!(stdout(&plain), stdout(&opt));
    let err = stderr(&opt);
    assert!(err.contains("premappable — dominance pruning enabled"), "{err}");
    assert!(err.contains("derivation(s) pruned"), "{err}");

    // Bare --optimize enables every rewrite and must not eat the operand.
    let out = maglog(&["run", "--optimize", "programs/shortest_path.mgl"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&plain), stdout(&out));

    // Unknown rewrite names are usage errors.
    let out = maglog(&["run", "--optimize=frobnicate", "programs/shortest_path.mgl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("frobnicate"), "{}", stderr(&out));

    // check/compare do not grow the flag.
    for cmd in ["check", "compare"] {
        let out = maglog(&[cmd, "--optimize", "programs/shortest_path.mgl"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {}", stderr(&out));
    }
}

#[test]
fn run_parallel_matches_sequential_bit_for_bit() {
    let plain = maglog(&["run", "programs/shortest_path.mgl"]);
    assert!(plain.status.success(), "{}", stderr(&plain));
    for flag in ["--parallel=2", "--parallel=4"] {
        let par = maglog(&["run", flag, "programs/shortest_path.mgl"]);
        assert!(par.status.success(), "{flag}: {}", stderr(&par));
        // Same model on stdout AND the same atoms/rounds/firings summary:
        // sharding partitions the sequential work, it never changes it.
        assert_eq!(stdout(&plain), stdout(&par), "{flag}");
        assert_eq!(stderr(&plain), stderr(&par), "{flag}");
    }

    // Bare --parallel resolves to the machine and must not eat the operand.
    let par = maglog(&["run", "--parallel", "programs/shortest_path.mgl"]);
    assert!(par.status.success(), "{}", stderr(&par));
    assert_eq!(stdout(&plain), stdout(&par));

    // Composed with the optimizing rewrites the model still matches.
    let opt = maglog(&["run", "--optimize=prem", "programs/shortest_path.mgl"]);
    let both = maglog(&[
        "run",
        "--optimize=prem",
        "--parallel=2",
        "programs/shortest_path.mgl",
    ]);
    assert!(both.status.success(), "{}", stderr(&both));
    assert_eq!(stdout(&opt), stdout(&both));

    // Zero or non-numeric worker counts are usage errors.
    for bad in ["--parallel=0", "--parallel=many"] {
        let out = maglog(&["run", bad, "programs/shortest_path.mgl"]);
        assert_eq!(out.status.code(), Some(2), "{bad}: {}", stderr(&out));
        assert!(stderr(&out).contains("usage"), "{bad}: {}", stderr(&out));
    }

    // check/compare do not grow the flag.
    for cmd in ["check", "compare"] {
        let out = maglog(&[cmd, "--parallel=2", "programs/shortest_path.mgl"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {}", stderr(&out));
    }
}

#[test]
fn profile_parallel_reports_shard_telemetry() {
    let out = maglog(&[
        "profile",
        "--strategy=seminaive",
        "--parallel=2",
        "programs/shortest_path.mgl",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("parallel: 2 worker(s)"), "{text}");
    assert!(text.contains("shard firings"), "{text}");

    let out = maglog(&[
        "profile",
        "--strategy=seminaive",
        "--parallel=2",
        "--format=json",
        "programs/shortest_path.mgl",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"parallel\""), "{text}");
    assert!(text.contains("\"shard_firings\""), "{text}");
    assert!(text.contains("\"barrier_wait_nanos\""), "{text}");
    assert_eq!(text.matches('{').count(), text.matches('}').count(), "{text}");

    // Sequential profiles stay free of the block.
    let out = maglog(&[
        "profile",
        "--strategy=seminaive",
        "--format=json",
        "programs/shortest_path.mgl",
    ]);
    assert!(!stdout(&out).contains("\"parallel\""), "{}", stdout(&out));
}

#[test]
fn bench_parallel_emits_the_scaling_section() {
    let cell = &[
        "--samples",
        "1",
        "--warmup",
        "0",
        "--workloads",
        "shortest_path",
        "--sizes",
        "16",
        "--parallel=2",
    ][..];
    let out = maglog(&[&["bench"], cell].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("workers 2"), "{text}");
    assert!(text.contains("scaling"), "{text}");
    assert!(text.contains("1w "), "{text}");
    assert!(text.contains("2w "), "{text}");

    let out = maglog(&[&["bench", "--format=json"], cell].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    let doc = stdout(&out);
    assert!(doc.contains("\"workers\": 2"), "{doc}");
    assert!(doc.contains("\"scaling\""), "{doc}");
    assert!(doc.contains("\"speedup\""), "{doc}");
    assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "{doc}");
}

#[test]
fn run_query_answers_a_point_goal() {
    let out = maglog(&["run", "--query", "s(a, b)", "programs/shortest_path.mgl"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out).trim(), "s(a, b, 1).");

    // Under --optimize=demand the answer is identical and the restriction
    // decision is reported.
    let out = maglog(&[
        "run",
        "--optimize=demand",
        "--query",
        "s(a, b)",
        "programs/shortest_path.mgl",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out).trim(), "s(a, b, 1).");
    let err = stderr(&out);
    assert!(err.contains("demand: restricted the component of s to s[0] = a"), "{err}");

    // A goal absent from the model says so without failing.
    let out = maglog(&["run", "--query", "s(b, a)", "programs/shortest_path.mgl"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("s(b, a) is not in the model."), "{}", stdout(&out));

    // Unknown predicates in the goal are runtime errors.
    let out = maglog(&["run", "--query", "nope(a)", "programs/shortest_path.mgl"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("nope"), "{}", stderr(&out));
}

#[test]
fn profile_optimize_records_decisions_in_json() {
    let out = maglog(&[
        "profile",
        "--strategy=seminaive",
        "--format=json",
        "--optimize=prem",
        "programs/shortest_path.mgl",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"optimizations\""), "{text}");
    assert!(text.contains("premappable"), "{text}");
    assert!(text.contains("\"pruned\": 2"), "{text}");
}

/// A scratch path under the shared CLI temp dir; `name` must be unique
/// per test because the suite runs in parallel.
fn trace_tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("maglog_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn run_trace_writes_a_valid_timeline() {
    for (flags, file) in [
        (&[][..], "run_seq.json"),
        (&["--parallel=2"][..], "run_par2.json"),
        (&["--parallel=4"][..], "run_par4.json"),
        (&["--parallel=2", "--optimize=prem"][..], "run_par_opt.json"),
    ] {
        let path = trace_tmp(file);
        let args = [
            &["run", "--trace", path.to_str().unwrap()],
            flags,
            &["programs/shortest_path.mgl"],
        ]
        .concat();
        let out = maglog(&args);
        assert!(out.status.success(), "{flags:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("-- trace: wrote"), "{}", stderr(&out));
        let check = maglog(&["trace-validate", path.to_str().unwrap()]);
        assert!(check.status.success(), "{flags:?}: {}", stderr(&check));
        assert!(
            stdout(&check).contains("valid maglog-trace-v1"),
            "{}",
            stdout(&check)
        );
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.contains("\"maglog-trace-v1\""), "{file}");
        assert!(doc.contains("\"heap\""), "{file}");
        if !flags.is_empty() && flags[0].starts_with("--parallel") {
            // One named lane per worker, with the barrier/merge spans the
            // parallel orchestrator records.
            assert!(doc.contains("\"worker 1\""), "{file}");
            assert!(doc.contains("\"barrier-wait\""), "{file}");
            assert!(doc.contains("\"merge\""), "{file}");
        }
    }
}

#[test]
fn run_trace_off_is_byte_identical() {
    // The timeline must be a pure observer: stdout matches exactly, and
    // stderr differs only by the "wrote the file" note.
    let plain = maglog(&["run", "programs/shortest_path.mgl"]);
    let path = trace_tmp("run_ab.json");
    let traced = maglog(&[
        "run",
        "--trace",
        path.to_str().unwrap(),
        "programs/shortest_path.mgl",
    ]);
    assert!(traced.status.success(), "{}", stderr(&traced));
    assert_eq!(stdout(&plain), stdout(&traced));
    let traced_err: String = stderr(&traced)
        .lines()
        .filter(|l| !l.starts_with("-- trace:"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(stderr(&plain), traced_err);
}

#[test]
fn trace_flag_errors_are_usage_errors() {
    // Missing value.
    let out = maglog(&["run", "--trace"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--trace requires a value"), "{}", stderr(&out));

    // Unwritable destinations fail up front on every subcommand that
    // grows the flag, before any evaluation runs.
    for cmd in ["run", "profile", "bench"] {
        let out = maglog(&[
            cmd,
            "--trace",
            "/nonexistent-dir/trace.json",
            "programs/shortest_path.mgl",
        ]);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("--trace: cannot write"),
            "{cmd}: {}",
            stderr(&out)
        );
    }

    // A directory is not a writable trace file.
    let dir = std::env::temp_dir().join("maglog_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let out = maglog(&["run", "--trace", dir.to_str().unwrap(), "programs/shortest_path.mgl"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
}

#[test]
fn trace_validate_checks_documents() {
    // A fresh valid document passes and is summarized.
    let path = trace_tmp("validate_ok.json");
    let out = maglog(&[
        "run",
        "--trace",
        path.to_str().unwrap(),
        "programs/shortest_path.mgl",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let check = maglog(&["trace-validate", path.to_str().unwrap()]);
    assert!(check.status.success(), "{}", stderr(&check));
    let text = stdout(&check);
    assert!(text.contains("valid maglog-trace-v1"), "{text}");
    assert!(text.contains("lane(s)"), "{text}");

    // Structurally broken documents are rejected with the reason.
    let bad = trace_tmp("validate_bad.json");
    std::fs::write(&bad, "{}\n").unwrap();
    let check = maglog(&["trace-validate", bad.to_str().unwrap()]);
    assert_eq!(check.status.code(), Some(1), "{}", stderr(&check));
    assert!(stderr(&check).contains("otherData"), "{}", stderr(&check));

    // Missing files and missing operands are errors, not silence.
    let check = maglog(&["trace-validate", "/nonexistent-dir/trace.json"]);
    assert_eq!(check.status.code(), Some(1), "{}", stderr(&check));
    let check = maglog(&["trace-validate"]);
    assert_eq!(check.status.code(), Some(2), "{}", stderr(&check));
}

#[test]
fn profile_trace_reports_widest_spans() {
    let path = trace_tmp("profile_trace.json");
    let out = maglog(&[
        "profile",
        "--strategy=seminaive",
        "--parallel=2",
        "--trace",
        path.to_str().unwrap(),
        "programs/shortest_path.mgl",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("widest spans:"), "{text}");
    assert!(text.contains("eval[seminaive]"), "{text}");
    assert!(text.contains("shard imbalance: max/mean"), "{text}");
    let check = maglog(&["trace-validate", path.to_str().unwrap()]);
    assert!(check.status.success(), "{}", stderr(&check));

    // The summary lines stay out of the JSON report format.
    let out = maglog(&[
        "profile",
        "--strategy=seminaive",
        "--format=json",
        "--trace",
        trace_tmp("profile_trace_json.json").to_str().unwrap(),
        "programs/shortest_path.mgl",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(!stdout(&out).contains("widest spans:"), "{}", stdout(&out));
}

#[test]
fn bench_trace_covers_the_run() {
    let path = trace_tmp("bench_trace.json");
    let out = maglog(&[
        "bench",
        "--samples",
        "1",
        "--warmup",
        "0",
        "--workloads",
        "shortest_path",
        "--sizes",
        "16",
        "--trace",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("-- trace: wrote"), "{}", stderr(&out));
    let check = maglog(&["trace-validate", path.to_str().unwrap()]);
    assert!(check.status.success(), "{}", stderr(&check));
    // The per-cell bench spans label workload and size.
    let doc = std::fs::read_to_string(&path).unwrap();
    assert!(doc.contains("shortest_path/16"), "bench trace lacks cell spans");
}

#[test]
fn run_metrics_writes_a_valid_exposition_and_stays_invisible() {
    // The exposition validates through the bundled parser, for sequential
    // and parallel runs alike.
    for (flags, file) in [
        (&[][..], "run_metrics_seq.prom"),
        (&["--parallel=2"][..], "run_metrics_par.prom"),
    ] {
        let path = trace_tmp(file);
        let args = [
            &["run", "--metrics", path.to_str().unwrap()],
            flags,
            &["programs/shortest_path.mgl"],
        ]
        .concat();
        let out = maglog(&args);
        assert!(out.status.success(), "{flags:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("-- metrics: wrote"), "{}", stderr(&out));
        let check = maglog(&["metrics-validate", path.to_str().unwrap()]);
        assert!(check.status.success(), "{flags:?}: {}", stderr(&check));
        assert!(
            stdout(&check).contains("valid OpenMetrics 1.0"),
            "{}",
            stdout(&check)
        );
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.contains("maglog_round_duration_seconds"), "{file}");
        assert!(doc.contains("strategy=\"seminaive\""), "{file}");
        assert!(doc.trim_end().ends_with("# EOF"), "{file}");
        if !flags.is_empty() {
            // Worker-labeled series merged in at the round barrier.
            assert!(doc.contains("maglog_barrier_wait_seconds"), "{file}");
            assert!(doc.contains("worker=\"1\""), "{file}");
        }
    }

    // The recorder must be a pure observer: stdout matches exactly, and
    // stderr differs only by the "wrote the file" note.
    let plain = maglog(&["run", "programs/shortest_path.mgl"]);
    let path = trace_tmp("run_metrics_ab.prom");
    let metered = maglog(&[
        "run",
        "--metrics",
        path.to_str().unwrap(),
        "programs/shortest_path.mgl",
    ]);
    assert!(metered.status.success(), "{}", stderr(&metered));
    assert_eq!(stdout(&plain), stdout(&metered));
    let metered_err: String = stderr(&metered)
        .lines()
        .filter(|l| !l.starts_with("-- metrics:"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(stderr(&plain), metered_err);
}

#[test]
fn metrics_survive_an_evaluation_failure() {
    // Like --trace, the exposition captures whatever the aborted run
    // recorded — that is exactly when the latency histograms matter.
    let dir = std::env::temp_dir().join("maglog_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("diverging_metrics.mgl");
    std::fs::write(
        &file,
        "declare pred n/2 cost max_real.\n\
         n(z, 0).\n\
         n(X, C) :- n(X, C1), C = C1 + 1.\n",
    )
    .unwrap();
    let path = trace_tmp("diverging_metrics.prom");
    let out = maglog(&[
        "run",
        "--max-rounds",
        "30",
        "--metrics",
        path.to_str().unwrap(),
        file.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("-- metrics: wrote"), "{}", stderr(&out));
    let check = maglog(&["metrics-validate", path.to_str().unwrap()]);
    assert!(check.status.success(), "{}", stderr(&check));
    // The 30 aborted rounds left real observations behind.
    let doc = std::fs::read_to_string(&path).unwrap();
    assert!(doc.contains("maglog_rounds_total"), "{doc}");
}

#[test]
fn metrics_flag_and_validate_errors() {
    // Unwritable destinations fail up front on every subcommand that
    // grows the flag, before any evaluation runs.
    for cmd in ["run", "profile", "bench"] {
        let out = maglog(&[
            cmd,
            "--metrics",
            "/nonexistent-dir/out.prom",
            "programs/shortest_path.mgl",
        ]);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("--metrics: cannot write"),
            "{cmd}: {}",
            stderr(&out)
        );
    }

    // Malformed expositions are rejected with the reason and exit 1.
    let bad = trace_tmp("metrics_bad.prom");
    std::fs::write(&bad, "# TYPE a counter\na_total 1\n").unwrap();
    let check = maglog(&["metrics-validate", bad.to_str().unwrap()]);
    assert_eq!(check.status.code(), Some(1), "{}", stderr(&check));
    assert!(stderr(&check).contains("# EOF"), "{}", stderr(&check));

    // Missing files and missing operands are errors, not silence.
    let check = maglog(&["metrics-validate", "/nonexistent-dir/out.prom"]);
    assert_eq!(check.status.code(), Some(1), "{}", stderr(&check));
    let check = maglog(&["metrics-validate"]);
    assert_eq!(check.status.code(), Some(2), "{}", stderr(&check));
}

#[test]
fn profile_metrics_reports_histogram_percentiles() {
    let path = trace_tmp("profile_metrics.prom");
    let out = maglog(&[
        "profile",
        "--parallel=2",
        "--metrics",
        path.to_str().unwrap(),
        "programs/shortest_path.mgl",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // Human report gains the percentile blocks for every strategy run.
    assert!(text.contains("histograms:"), "{text}");
    assert!(text.contains("maglog_round_duration_seconds"), "{text}");
    assert!(text.contains("maglog_barrier_wait_seconds"), "{text}");
    assert!(text.contains("p50"), "{text}");
    assert!(text.contains("p99"), "{text}");
    // The merged exposition covers all three strategies and validates.
    let check = maglog(&["metrics-validate", path.to_str().unwrap()]);
    assert!(check.status.success(), "{}", stderr(&check));
    let doc = std::fs::read_to_string(&path).unwrap();
    for strategy in ["naive", "seminaive", "greedy"] {
        assert!(doc.contains(&format!("strategy=\"{strategy}\"")), "{doc}");
    }

    // The JSON report grows a histograms section.
    let out = maglog(&[
        "profile",
        "--strategy=seminaive",
        "--format=json",
        "--metrics",
        trace_tmp("profile_metrics_json.prom").to_str().unwrap(),
        "programs/shortest_path.mgl",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"histograms\""), "{text}");
    assert!(text.contains("\"p50\""), "{text}");
    assert_eq!(text.matches('{').count(), text.matches('}').count(), "{text}");
}

#[test]
fn bench_metrics_labels_series_by_cell() {
    let path = trace_tmp("bench_metrics.prom");
    let out = maglog(&[
        "bench",
        "--samples",
        "1",
        "--warmup",
        "0",
        "--workloads",
        "shortest_path",
        "--sizes",
        "16",
        "--metrics",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("-- metrics: wrote"), "{}", stderr(&out));
    let check = maglog(&["metrics-validate", path.to_str().unwrap()]);
    assert!(check.status.success(), "{}", stderr(&check));
    let doc = std::fs::read_to_string(&path).unwrap();
    assert!(doc.contains("workload=\"shortest_path\""), "{doc}");
    assert!(doc.contains("size=\"16\""), "{doc}");
    // The human table now carries the percentile columns.
    let text = stdout(&out);
    assert!(text.contains("p50"), "{text}");
    assert!(text.contains("p99"), "{text}");
}

#[test]
fn non_monotonic_program_makes_check_fail() {
    let dir = std::env::temp_dir().join("maglog_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file: PathBuf = dir.join("bad.mgl");
    std::fs::write(
        &file,
        "declare pred q/3 cost max_real.\ndeclare pred p/2 cost max_real.\n\
         p(X, C) :- q(X, Y, C).\n",
    )
    .unwrap();
    let out = maglog(&["check", file.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("conflict-free:    no"));
}

// ---------------------------------------------------------------- diff

/// Handcrafted bench-v2 "before" capture for diff tests: one cell, one
/// strategy, MAD small enough that a 2x median move is significant.
const DIFF_BENCH_BEFORE: &str = r#"{
  "schema": "maglog-bench-v2",
  "environment": {"commit": "aaa", "rustc": "r", "cpus": 1, "warmup": 0,
                  "samples": 1, "workers": 1, "optimize": []},
  "workloads": [
    {"workload": "shortest_path", "size": 16, "edb_facts": 48, "tuples": 120,
     "strategies": {
       "seminaive": {"rounds": 4, "firings": 100, "derivations": 80,
         "median_secs": 0.001, "min_secs": 0.0009, "mad_secs": 0.00001,
         "p50_secs": 0.001, "p90_secs": 0.0011, "p99_secs": 0.0012,
         "tuples_per_sec": 120000.0, "derivations_per_sec": 8000.0,
         "peak_heap_bytes": 4096}},
     "scaling": []}
  ]
}"#;

fn diff_fixture(name: &str, text: &str) -> PathBuf {
    let path = trace_tmp(name);
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn diff_self_is_clean_for_all_three_document_kinds() {
    // Profile document.
    let out = maglog(&["profile", "--format=json", "programs/shortest_path.mgl"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let profile = diff_fixture("diff_profile.json", &stdout(&out));

    // OpenMetrics exposition.
    let metrics = trace_tmp("diff_metrics.prom");
    let out = maglog(&[
        "run",
        "--metrics",
        metrics.to_str().unwrap(),
        "programs/shortest_path.mgl",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // Bench document (one tiny cell).
    let bench = trace_tmp("diff_bench.json");
    let out = maglog(&[
        "bench", "--samples", "1", "--warmup", "0", "--workloads", "shortest_path",
        "--sizes", "16", "--format=json", "--out", bench.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    for (path, kind) in [
        (&profile, "maglog-profile-v1"),
        (&bench, "maglog-bench-v2"),
        (&metrics, "openmetrics"),
    ] {
        let p = path.to_str().unwrap();
        let out = maglog(&["diff", p, p]);
        assert!(out.status.success(), "{kind}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains(&format!("maglog diff ({kind})")), "{text}");
        assert!(text.contains("no significant differences"), "{kind}: {text}");

        // Even with a gate, a self-diff exits 0.
        let out = maglog(&["diff", "--gate", "1.01", p, p]);
        assert!(out.status.success(), "{kind}: {}", stderr(&out));
        assert!(stderr(&out).contains("diff gate: OK"), "{}", stderr(&out));
    }
}

#[test]
fn independent_profile_runs_diff_clean() {
    // Two separate processes profile the same program: every figure,
    // allocator memory included, must agree within the diff's noise
    // model. Separate processes keep the allocator high-water mark free
    // of other tests and of the first document.
    let mut programs: Vec<PathBuf> =
        std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/programs"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "mgl"))
            .collect();
    programs.sort();
    assert!(!programs.is_empty(), "no sample programs found");
    for prog in &programs {
        let run = || {
            let out = maglog(&["profile", "--format=json", prog.to_str().unwrap()]);
            assert!(out.status.success(), "{prog:?}: {}", stderr(&out));
            stdout(&out)
        };
        let (a, b) = (run(), run());
        let report = maglog::engine::diff_texts(&a, &b).unwrap();
        assert!(report.is_clean(), "{prog:?}: {report:?}");
        assert!(report.compared > 0, "{prog:?}: nothing compared");
    }
}

#[test]
fn diff_reports_and_gates_a_forced_bench_regression() {
    let before = diff_fixture("diff_before.json", DIFF_BENCH_BEFORE);
    let after_text = DIFF_BENCH_BEFORE
        .replace("\"firings\": 100", "\"firings\": 150")
        .replace("\"median_secs\": 0.001,", "\"median_secs\": 0.002,");
    let after = diff_fixture("diff_after.json", &after_text);
    let (b, a) = (before.to_str().unwrap(), after.to_str().unwrap());

    // Without a gate the diff reports but exits 0.
    let out = maglog(&["diff", b, a]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("regressions (worst first):"), "{text}");
    assert!(text.contains("firings: 100 -> 150"), "{text}");
    assert!(text.contains("median_secs"), "{text}");

    // The JSON rendering is the stable maglog-diff-v1 document with
    // per-cell, per-counter attribution.
    let out = maglog(&["diff", "--format=json", b, a]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("\"schema\": \"maglog-diff-v1\""), "{text}");
    assert!(text.contains("\"metric\": \"firings\""), "{text}");
    assert!(text.contains("\"path\": \"shortest_path/16 seminaive\""), "{text}");
    assert_eq!(text.matches('{').count(), text.matches('}').count(), "{text}");

    // Gate below the 1.5x firings factor: exit 1.
    let out = maglog(&["diff", "--gate", "1.25", b, a]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("diff gate: FAIL"), "{}", stderr(&out));

    // Gate above every observed factor: exit 0 despite the regressions.
    let out = maglog(&["diff", "--gate", "3.0", b, a]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("diff gate: OK"), "{}", stderr(&out));
}

#[test]
fn diff_usage_and_parse_errors_exit_two() {
    let good = diff_fixture("diff_good.json", DIFF_BENCH_BEFORE);
    let g = good.to_str().unwrap();

    // Wrong operand counts and bad flags are usage errors.
    for args in [
        &["diff"][..],
        &["diff", g][..],
        &["diff", g, g, g][..],
        &["diff", "--unknown", g, g][..],
        &["diff", "--gate", "0", g, g][..],
        &["diff", "--gate", "nope", g, g][..],
        &["diff", "--format=xml", g, g][..],
    ] {
        let out = maglog(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("usage"), "{args:?}: {}", stderr(&out));
    }

    // Unreadable or unparseable documents exit 2 with the reason — but
    // without the usage blob (the flags were fine).
    let garbage = diff_fixture("diff_garbage.json", "not a telemetry document");
    for args in [
        &["diff", "/nonexistent/before.json", g][..],
        &["diff", g, garbage.to_str().unwrap()][..],
    ] {
        let out = maglog(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("error:"), "{args:?}: {err}");
        assert!(!err.contains("usage:"), "{args:?}: {err}");
    }

    // Mismatched document kinds are a parse-level error, not a report.
    let metrics = diff_fixture(
        "diff_kind.prom",
        "# TYPE x counter\n# HELP x X.\nx_total 1\n# EOF\n",
    );
    let out = maglog(&["diff", g, metrics.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("kinds differ"), "{}", stderr(&out));
}

#[test]
fn bench_gate_failure_attributes_moved_counters() {
    let dir = std::env::temp_dir().join("maglog_cli_diff_gate_test");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("base.json");
    let cell = &[
        "--samples", "1", "--warmup", "0", "--workloads", "shortest_path", "--sizes", "16",
    ][..];
    let out = maglog(
        &[&["bench", "--format=json", "--out", baseline.to_str().unwrap()], cell].concat(),
    );
    assert!(out.status.success(), "{}", stderr(&out));

    // Doctor the baseline: faster medians AND fewer firings, as if the
    // baseline commit did less work.
    let text = std::fs::read_to_string(&baseline).unwrap();
    let firings: u64 = text
        .split("\"firings\": ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse().ok())
        .expect("bench doc has a firings counter");
    let doctored = dir.join("doctored.json");
    std::fs::write(
        &doctored,
        text.replace("\"median_secs\": 0.", "\"median_secs\": 0.000000000")
            .replace(
                &format!("\"firings\": {firings}"),
                &format!("\"firings\": {}", firings / 2),
            ),
    )
    .unwrap();

    let out = maglog(&[&["bench", "--baseline", doctored.to_str().unwrap()], cell].concat());
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    // Every offending cell is enumerated with counter attribution.
    for strat in ["seminaive", "naive", "greedy"] {
        assert!(err.contains(&format!("REGRESSION shortest_path/16 {strat}")), "{err}");
    }
    assert!(err.contains("counters: firings"), "{err}");
    assert!(err.contains(&format!("firings {} -> {firings}", firings / 2)), "{err}");
}

/// The bench gate is a verdict over `maglog diff`: on the same pair of
/// documents, `bench --baseline B --gate R` and `diff --gate R B current`
/// flag the same cells' medians.
#[test]
fn bench_gate_and_diff_gate_flag_the_same_cells() {
    let dir = std::env::temp_dir().join("maglog_cli_gate_vs_diff_test");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("base.json");
    let current = dir.join("current.json");
    let cell = &[
        "--samples", "1", "--warmup", "0", "--workloads", "shortest_path", "--sizes", "16",
    ][..];
    let out = maglog(
        &[&["bench", "--format=json", "--out", baseline.to_str().unwrap()], cell].concat(),
    );
    assert!(out.status.success(), "{}", stderr(&out));

    // Doctor only the seminaive and greedy medians (the strategies print
    // in seminaive, naive, greedy order) to near zero.
    let text = std::fs::read_to_string(&baseline).unwrap();
    let mut parts: Vec<&str> = text.split("\"median_secs\": 0.").collect();
    assert!(parts.len() > 3, "{text}");
    let mut doctored = parts.remove(0).to_string();
    for (i, rest) in parts.iter().enumerate() {
        let tiny = if i == 0 || i == 2 { "0.000000000" } else { "0." };
        doctored.push_str(&format!("\"median_secs\": {tiny}{rest}"));
    }
    let doctored_path = dir.join("doctored.json");
    std::fs::write(&doctored_path, doctored).unwrap();
    let (b, c) = (doctored_path.to_str().unwrap(), current.to_str().unwrap());

    let out = maglog(&[&["bench", "--baseline", b, "--gate", "1.25", "--out", c], cell].concat());
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let mut bench_cells: Vec<String> = stderr(&out)
        .lines()
        .filter_map(|l| l.strip_prefix("REGRESSION "))
        .map(|l| l.split(':').next().unwrap().to_string())
        .collect();
    bench_cells.sort();
    for strat in ["seminaive", "greedy"] {
        assert!(
            bench_cells.contains(&format!("shortest_path/16 {strat}")),
            "{bench_cells:?}"
        );
    }

    let out = maglog(&["diff", "--gate", "1.25", "--format=json", b, c]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let report = maglog::engine::jsonish::parse(&stdout(&out)).unwrap();
    let mut diff_cells: Vec<String> = report
        .get("regressions")
        .and_then(|r| r.as_arr())
        .unwrap()
        .iter()
        .filter(|e| e.get("metric").and_then(|m| m.as_str()) == Some("median_secs"))
        // A null severity is a regression from zero: infinite.
        .filter(|e| e.get("severity").and_then(|v| v.as_f64()).is_none_or(|f| f > 1.25))
        .map(|e| e.get("path").and_then(|p| p.as_str()).unwrap().to_string())
        .collect();
    diff_cells.sort();
    assert_eq!(bench_cells, diff_cells);
}

// ---------------------------------------------------------------- trace-flame

#[test]
fn trace_flame_renders_collapsed_stacks() {
    let path = trace_tmp("flame.json");
    let out = maglog(&[
        "run",
        "--trace",
        path.to_str().unwrap(),
        "programs/shortest_path.mgl",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let out = maglog(&["trace-flame", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // Every line is `path space nanos`, rooted at the main lane.
    assert!(!text.is_empty());
    for line in text.lines() {
        assert!(line.starts_with("main;"), "{line}");
        let (_, ns) = line.rsplit_once(' ').expect("self-time column");
        ns.parse::<u64>().unwrap_or_else(|_| panic!("bad self-time in {line:?}"));
    }
    assert!(text.contains("main;eval"), "{text}");

    // Corrupt documents are rejected (same contract as trace-validate).
    let bad = trace_tmp("flame_bad.json");
    std::fs::write(&bad, "{}\n").unwrap();
    let out = maglog(&["trace-flame", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));

    // Missing operand is a usage error.
    let out = maglog(&["trace-flame"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
}
