//! Golden tests for the CLI's renderings: the full `maglog check` output
//! (human and JSON renderings) for every sample program under
//! `programs/` and for the deliberately broken programs under
//! `tests/broken/`, and the provenance renderings of every sample
//! program — `maglog run --explain <pred>` for each predicate of its
//! model, and `maglog explain --format=json` of its first model fact.
//!
//! When a rendering change is intentional, regenerate the files with
//!
//! ```text
//! MAGLOG_UPDATE_GOLDEN=1 cargo test --test golden_diagnostics
//! ```
//!
//! and review the diff.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn maglog(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_maglog"))
        .args(args)
        .current_dir(manifest_dir())
        .output()
        .expect("maglog binary runs")
}

/// All `.mgl` files in a manifest-relative directory, sorted by name so
/// the golden pass is deterministic.
fn mgl_files(rel_dir: &str) -> Vec<PathBuf> {
    let dir = manifest_dir().join(rel_dir);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "mgl"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .mgl files under {rel_dir}");
    files
}

fn rel(path: &Path) -> String {
    path.strip_prefix(manifest_dir())
        .unwrap()
        .to_str()
        .unwrap()
        .to_string()
}

fn stem(path: &Path) -> &str {
    path.file_stem().unwrap().to_str().unwrap()
}

/// Compare `actual` against `tests/golden/<name>`, or rewrite the golden
/// file when `MAGLOG_UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = manifest_dir().join("tests/golden").join(name);
    if std::env::var_os("MAGLOG_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {}; run with MAGLOG_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "golden mismatch for {name}; if intentional, regenerate with \
         MAGLOG_UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn golden_human_diagnostics_for_sample_programs() {
    for file in mgl_files("programs") {
        let out = maglog(&["check", &rel(&file)]);
        assert!(
            out.status.success(),
            "{}: {}",
            file.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert_golden(
            &format!("{}.check.txt", stem(&file)),
            &String::from_utf8_lossy(&out.stdout),
        );
    }
}

#[test]
fn golden_json_diagnostics_for_sample_programs() {
    for file in mgl_files("programs") {
        let out = maglog(&["check", "--format=json", &rel(&file)]);
        assert!(out.status.success(), "{}", file.display());
        assert_golden(
            &format!("{}.check.json", stem(&file)),
            &String::from_utf8_lossy(&out.stdout),
        );
    }
}

#[test]
fn golden_human_diagnostics_for_broken_programs() {
    for file in mgl_files("tests/broken") {
        let out = maglog(&["check", &rel(&file)]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{} must fail the check",
            file.display()
        );
        let text = String::from_utf8_lossy(&out.stdout);
        // Every broken program must render a caret-underlined snippet
        // naming a stable code.
        assert!(text.contains("error[MAG"), "{}: {text}", file.display());
        assert!(text.contains('^'), "{}: {text}", file.display());
        assert_golden(&format!("broken_{}.check.txt", stem(&file)), &text);
    }
}

#[test]
fn golden_json_diagnostics_for_broken_programs() {
    for file in mgl_files("tests/broken") {
        let out = maglog(&["check", "--format=json", &rel(&file)]);
        assert_eq!(out.status.code(), Some(1), "{}", file.display());
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(!text.contains("\"error_count\": 0"), "{}: {text}", file.display());
        assert_golden(&format!("broken_{}.check.json", stem(&file)), &text);
    }
}

#[test]
fn deny_all_self_check_passes_on_every_sample_program() {
    // The shipped sample programs must stay clean under the strictest
    // useful configuration: every warning denied. (Informational notes —
    // r-monotonicity, aggregate stratification, termination — are not
    // escalated by `all`; they are class memberships, not defects.)
    for file in mgl_files("programs") {
        let out = maglog(&["check", "--deny", "all", &rel(&file)]);
        assert!(
            out.status.success(),
            "{} fails `maglog check --deny all`:\n{}{}",
            file.display(),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn broken_programs_name_their_expected_codes() {
    let expect = [
        ("range_restriction", "MAG0201"),
        ("conflict", "MAG0211"),
        ("admissible", "MAG0404"),
        ("arity", "MAG0101"),
    ];
    for (name, code) in expect {
        let out = maglog(&["check", &format!("tests/broken/{name}.mgl")]);
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains(&format!("error[{code}]")),
            "{name}: expected {code}, got:\n{text}"
        );
    }
}

/// The lines of `maglog run <prog>`: the rendered model, one fact a line.
fn model_lines(prog: &str) -> Vec<String> {
    let out = maglog(&["run", prog]);
    assert!(out.status.success(), "{prog}");
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn golden_run_explain_for_sample_programs() {
    for file in mgl_files("programs") {
        let prog = rel(&file);
        let mut preds: Vec<String> = Vec::new();
        for line in model_lines(&prog) {
            let pred = line.split('(').next().unwrap().to_string();
            if !preds.contains(&pred) {
                preds.push(pred);
            }
        }
        let mut text = String::new();
        for pred in preds {
            let out = maglog(&["run", "--explain", &pred, &prog]);
            assert!(out.status.success(), "{prog} --explain {pred}");
            text.push_str(&format!("== run --explain {pred}\n"));
            text.push_str(&String::from_utf8_lossy(&out.stdout));
        }
        assert_golden(&format!("{}.run_explain.txt", stem(&file)), &text);
    }
}

#[test]
fn golden_explain_json_for_sample_programs() {
    for file in mgl_files("programs") {
        let prog = rel(&file);
        let fact = model_lines(&prog).into_iter().next().expect("a non-empty model");
        let out = maglog(&["explain", "--format=json", &prog, &fact]);
        assert!(out.status.success(), "{prog}: explain {fact}");
        assert_golden(
            &format!("{}.explain.json", stem(&file)),
            &String::from_utf8_lossy(&out.stdout),
        );
    }
}
