//! Telemetry diffing: structural comparison of two captures of the same
//! telemetry schema into a ranked delta report (`maglog-diff-v1`).
//!
//! Every observability layer in this repo emits a comparable document —
//! [`crate::profile`]'s `maglog-profile-v1` counters, the bench crate's
//! `maglog-bench-v2` matrix, and [`crate::metrics`]'s OpenMetrics
//! expositions — but until this module the only consumer of two such
//! documents was a human with two terminal panes. `maglog diff` parses a
//! *before* and an *after* capture, sniffs the document kind, compares
//! every shared figure under a per-metric significance rule, and ranks
//! what moved: worst regressions first, improvements separated, noise
//! suppressed. The same engine backs the bench gate's attribution output,
//! so a failed `--baseline` gate can say *which* counters moved rather
//! than just that a median did.
//!
//! Significance rules (see `docs/diffing.md` for the full table):
//!
//! - **Deterministic counters** (firings, derivations, rounds, pruned,
//!   index probes, structural memory estimates) compare *exactly* — any
//!   delta is significant, because the evaluator pins these values for a
//!   given program and instance.
//! - **Timed figures** (bench `median_secs` and friends) are significant
//!   only beyond the measured MAD: `|after − before| >
//!   max(MAD_before, MAD_after)` — noise below the run's own dispersion
//!   estimate is never flagged.
//! - **Allocator-measured bytes** (`alloc_peak_bytes`,
//!   `peak_heap_bytes`, byte-unit gauges) get a 2 % relative floor, since
//!   allocator high-water marks can shift across processes without any
//!   code change.
//! - **Histogram quantiles** get a relative floor of two bucket widths
//!   (the log-linear layout's resolution is 2⁻⁵), so quantization flutter
//!   between adjacent buckets is not reported as a shift.
//!
//! Each comparison also tracks direction: for most figures higher is
//! worse, but throughput (`*_per_sec`) and scaling `speedup` improve
//! upward, and the ranking/gating factor ([`DiffEntry::severity`]) is
//! direction-corrected so a 2× throughput *drop* and a 2× latency *rise*
//! rank equally.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::jsonish::{self, JsonValue};
use crate::metrics::{parse_openmetrics, Exposition, Histogram, ParsedFamily};
use crate::profile::{fmt_bytes, fmt_nanos};

/// Schema tag of the JSON diff report (`maglog diff --format=json`).
pub const DIFF_SCHEMA: &str = "maglog-diff-v1";

/// Relative noise floor for allocator-measured byte figures.
const ALLOC_NOISE_FRAC: f64 = 0.02;

/// Relative noise floor for histogram quantile estimates: two bucket
/// widths of the log-linear layout (each bucket is 2⁻⁵ of its value).
const QUANTILE_NOISE_FRAC: f64 = 2.0 / 32.0;

// ---------------------------------------------------------------- documents

/// The telemetry document kinds `maglog diff` understands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DocKind {
    /// `maglog profile --format=json` output (`maglog-profile-v1`).
    Profile,
    /// `maglog bench --format=json` / `--out` output (`maglog-bench-v2`).
    Bench,
    /// An OpenMetrics 1.0 text exposition (`--metrics` output).
    Metrics,
}

impl DocKind {
    /// The stable name written into reports.
    pub fn name(self) -> &'static str {
        match self {
            DocKind::Profile => "maglog-profile-v1",
            DocKind::Bench => "maglog-bench-v2",
            DocKind::Metrics => "openmetrics",
        }
    }
}

/// A parsed telemetry document of a sniffed kind.
#[derive(Clone, Debug)]
pub enum Document {
    Profile(JsonValue),
    Bench(JsonValue),
    Metrics(Exposition),
}

impl Document {
    pub fn kind(&self) -> DocKind {
        match self {
            Document::Profile(_) => DocKind::Profile,
            Document::Bench(_) => DocKind::Bench,
            Document::Metrics(_) => DocKind::Metrics,
        }
    }
}

/// Sniff and parse a telemetry document: JSON documents are routed by
/// their `"schema"` field, everything else is tried as an OpenMetrics
/// exposition (whose comment-led text never starts with `{`).
pub fn parse_document(text: &str) -> Result<Document, String> {
    if text.trim_start().starts_with('{') {
        let doc = jsonish::parse(text)?;
        return match doc.get("schema").and_then(JsonValue::as_str) {
            Some("maglog-profile-v1") => Ok(Document::Profile(doc)),
            Some("maglog-bench-v2") => Ok(Document::Bench(doc)),
            Some(other) => Err(format!(
                "unsupported schema {other:?} (diff reads maglog-profile-v1, \
                 maglog-bench-v2, or OpenMetrics text)"
            )),
            None => Err("JSON document has no \"schema\" field".into()),
        };
    }
    let exp = parse_openmetrics(text)
        .map_err(|e| format!("not JSON and not a valid OpenMetrics exposition: {e}"))?;
    Ok(Document::Metrics(exp))
}

// ---------------------------------------------------------------- entries

/// How a diffed figure renders for humans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Figure {
    /// A wall-clock figure in seconds (bench medians).
    Seconds,
    /// A wall-clock figure in nanoseconds (histogram quantiles).
    Nanos,
    Bytes,
    Count,
    /// A throughput figure (`*_per_sec`).
    Rate,
    /// A dimensionless factor (speedup, shard imbalance).
    Ratio,
}

impl Figure {
    /// The unit token written into the JSON report.
    pub fn unit_name(self) -> &'static str {
        match self {
            Figure::Seconds => "seconds",
            Figure::Nanos => "nanoseconds",
            Figure::Bytes => "bytes",
            Figure::Count => "count",
            Figure::Rate => "per_second",
            Figure::Ratio => "ratio",
        }
    }

    fn render(self, v: f64) -> String {
        match self {
            Figure::Seconds => fmt_nanos((v * 1e9).round().max(0.0) as u64),
            Figure::Nanos => fmt_nanos(v.round().max(0.0) as u64),
            Figure::Bytes => fmt_bytes(v.round().max(0.0) as u64),
            Figure::Count => {
                if v.fract() == 0.0 {
                    format!("{}", v as i64)
                } else {
                    format!("{v:.2}")
                }
            }
            Figure::Rate => {
                if v >= 1e6 {
                    format!("{:.1}M/s", v / 1e6)
                } else if v >= 1e3 {
                    format!("{:.1}k/s", v / 1e3)
                } else {
                    format!("{v:.0}/s")
                }
            }
            Figure::Ratio => format!("{v:.2}"),
        }
    }
}

/// One significantly-changed figure.
#[derive(Clone, Debug)]
pub struct DiffEntry {
    /// Where the figure lives (`shortest_path/16 seminaive`,
    /// `[greedy] r2`, `maglog_firings_total{strategy="seminaive"}`).
    pub path: String,
    /// The figure's name within the path (`median_secs`, `firings`, `p90`).
    pub metric: String,
    pub before: f64,
    pub after: f64,
    /// The noise bound the delta had to clear (0 for exact counters).
    pub noise: f64,
    pub figure: Figure,
    /// Direction: `true` for throughput-like figures that improve upward.
    pub better_high: bool,
}

impl DiffEntry {
    /// Whether the change is for the worse, direction-corrected.
    pub fn is_regression(&self) -> bool {
        if self.better_high {
            self.after < self.before
        } else {
            self.after > self.before
        }
    }

    /// Direction-corrected change factor, always ≥ 1 (infinite when the
    /// smaller side is zero). This is what ranking and `--gate` use.
    pub fn severity(&self) -> f64 {
        let hi = self.before.max(self.after);
        let lo = self.before.min(self.after);
        if lo <= 0.0 {
            f64::INFINITY
        } else {
            hi / lo
        }
    }
}

// ---------------------------------------------------------------- report

/// The outcome of diffing two documents of the same kind.
#[derive(Clone, Debug)]
pub struct DiffReport {
    pub kind: DocKind,
    /// Figures present in both documents and compared.
    pub compared: usize,
    /// Compared figures that were bit-identical.
    pub unchanged: usize,
    /// Compared figures whose delta stayed within the noise bound.
    pub below_noise: usize,
    /// Configuration differences that frame every other delta (commit,
    /// sample counts, worker counts, program label). Never gated on.
    pub context: Vec<String>,
    /// Significant changes for the worse, worst first.
    pub regressions: Vec<DiffEntry>,
    /// Significant changes for the better, biggest first.
    pub improvements: Vec<DiffEntry>,
    /// Structural elements present only in the before document.
    pub only_before: Vec<String>,
    /// Structural elements present only in the after document.
    pub only_after: Vec<String>,
}

impl DiffReport {
    /// No significant deltas and no structural asymmetry. (Context
    /// differences and below-noise flutter do not spoil cleanliness.)
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
            && self.improvements.is_empty()
            && self.only_before.is_empty()
            && self.only_after.is_empty()
    }

    /// The regressions whose severity exceeds `threshold` (what
    /// `maglog diff --gate` exits 1 over).
    pub fn gate_failures(&self, threshold: f64) -> Vec<&DiffEntry> {
        self.regressions
            .iter()
            .filter(|e| e.severity() > threshold)
            .collect()
    }

    fn render_entry(out: &mut String, e: &DiffEntry) {
        let factor = if e.before > 0.0 {
            format!("{:.2}x", e.after / e.before)
        } else {
            "was 0".to_string()
        };
        let noise = if e.noise > 0.0 {
            format!(", noise ±{}", e.figure.render(e.noise))
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  {} {}: {} -> {} ({factor}{noise})",
            e.path,
            e.metric,
            e.figure.render(e.before),
            e.figure.render(e.after),
        );
    }

    /// The ranked human report (`maglog diff`'s default output).
    pub fn render_human(&self, before: &str, after: &str) -> String {
        let mut out = format!("maglog diff ({}): {before} -> {after}\n", self.kind.name());
        let _ = writeln!(
            out,
            "compared {} figure(s): {} regression(s), {} improvement(s), \
             {} unchanged, {} below noise",
            self.compared,
            self.regressions.len(),
            self.improvements.len(),
            self.unchanged,
            self.below_noise,
        );
        if !self.context.is_empty() {
            out.push_str("context:\n");
            for c in &self.context {
                let _ = writeln!(out, "  {c}");
            }
        }
        if self.is_clean() {
            out.push_str("no significant differences\n");
            return out;
        }
        if !self.regressions.is_empty() {
            out.push_str("regressions (worst first):\n");
            for e in &self.regressions {
                Self::render_entry(&mut out, e);
            }
        }
        if !self.improvements.is_empty() {
            out.push_str("improvements:\n");
            for e in &self.improvements {
                Self::render_entry(&mut out, e);
            }
        }
        if !self.only_before.is_empty() {
            out.push_str("only in before:\n");
            for p in &self.only_before {
                let _ = writeln!(out, "  {p}");
            }
        }
        if !self.only_after.is_empty() {
            out.push_str("only in after:\n");
            for p in &self.only_after {
                let _ = writeln!(out, "  {p}");
            }
        }
        out
    }

    fn entry_json(e: &DiffEntry) -> JsonValue {
        JsonValue::Obj(vec![
            ("path".into(), JsonValue::str(&e.path)),
            ("metric".into(), JsonValue::str(&e.metric)),
            ("before".into(), JsonValue::Num(e.before)),
            ("after".into(), JsonValue::Num(e.after)),
            (
                "ratio".into(),
                if e.before > 0.0 {
                    JsonValue::Num(e.after / e.before)
                } else {
                    JsonValue::Null
                },
            ),
            (
                "severity".into(),
                if e.severity().is_finite() {
                    JsonValue::Num(e.severity())
                } else {
                    JsonValue::Null
                },
            ),
            ("noise".into(), JsonValue::Num(e.noise)),
            ("unit".into(), JsonValue::str(e.figure.unit_name())),
        ])
    }

    /// The stable `maglog-diff-v1` JSON document.
    pub fn to_json(&self, before: &str, after: &str) -> String {
        let strings = |v: &[String]| {
            JsonValue::Arr(v.iter().map(|s| JsonValue::str(s.as_str())).collect())
        };
        let entries = |v: &[DiffEntry]| {
            JsonValue::Arr(v.iter().map(Self::entry_json).collect())
        };
        JsonValue::Obj(vec![
            ("schema".into(), JsonValue::str(DIFF_SCHEMA)),
            ("kind".into(), JsonValue::str(self.kind.name())),
            ("before".into(), JsonValue::str(before)),
            ("after".into(), JsonValue::str(after)),
            ("compared".into(), JsonValue::int(self.compared as u64)),
            ("unchanged".into(), JsonValue::int(self.unchanged as u64)),
            ("below_noise".into(), JsonValue::int(self.below_noise as u64)),
            ("context".into(), strings(&self.context)),
            ("regressions".into(), entries(&self.regressions)),
            ("improvements".into(), entries(&self.improvements)),
            ("only_before".into(), strings(&self.only_before)),
            ("only_after".into(), strings(&self.only_after)),
        ])
        .render()
    }
}

// ---------------------------------------------------------------- builder

/// Per-metric comparison rule: rendering figure, direction, and noise.
#[derive(Clone, Copy)]
struct Lens {
    figure: Figure,
    better_high: bool,
    /// Relative noise as a fraction of `max(|before|, |after|)`.
    frac_noise: f64,
    /// Absolute noise floor (a measured MAD).
    abs_noise: f64,
}

impl Lens {
    const fn exact(figure: Figure) -> Lens {
        Lens {
            figure,
            better_high: false,
            frac_noise: 0.0,
            abs_noise: 0.0,
        }
    }

    const fn frac(figure: Figure, frac_noise: f64) -> Lens {
        Lens {
            figure,
            better_high: false,
            frac_noise,
            abs_noise: 0.0,
        }
    }

    const fn better_high(self) -> Lens {
        Lens {
            better_high: true,
            ..self
        }
    }

    const fn abs(self, abs_noise: f64) -> Lens {
        Lens { abs_noise, ..self }
    }
}

struct Builder {
    kind: DocKind,
    compared: usize,
    unchanged: usize,
    below_noise: usize,
    context: Vec<String>,
    entries: Vec<DiffEntry>,
    only_before: Vec<String>,
    only_after: Vec<String>,
}

impl Builder {
    fn new(kind: DocKind) -> Builder {
        Builder {
            kind,
            compared: 0,
            unchanged: 0,
            below_noise: 0,
            context: Vec::new(),
            entries: Vec::new(),
            only_before: Vec::new(),
            only_after: Vec::new(),
        }
    }

    /// Compare one figure present on both sides; figures present on only
    /// one side are recorded as structural asymmetry instead.
    fn num(&mut self, path: &str, metric: &str, lens: Lens, b: Option<f64>, a: Option<f64>) {
        let (b, a) = match (b, a) {
            (Some(b), Some(a)) => (b, a),
            (Some(_), None) => {
                self.only_before.push(format!("{path} {metric}"));
                return;
            }
            (None, Some(_)) => {
                self.only_after.push(format!("{path} {metric}"));
                return;
            }
            (None, None) => return,
        };
        self.compared += 1;
        let delta = (a - b).abs();
        if delta == 0.0 {
            self.unchanged += 1;
            return;
        }
        let noise = (lens.frac_noise * b.abs().max(a.abs())).max(lens.abs_noise);
        if delta <= noise {
            self.below_noise += 1;
            return;
        }
        self.entries.push(DiffEntry {
            path: path.to_string(),
            metric: metric.to_string(),
            before: b,
            after: a,
            noise,
            figure: lens.figure,
            better_high: lens.better_high,
        });
    }

    /// Record a framing difference (environment, program label).
    fn context_diff(&mut self, name: &str, b: &str, a: &str) {
        if b != a {
            self.context.push(format!("{name}: {b} -> {a}"));
        }
    }

    fn finish(self) -> DiffReport {
        let (mut regressions, mut improvements): (Vec<DiffEntry>, Vec<DiffEntry>) =
            self.entries.into_iter().partition(DiffEntry::is_regression);
        let rank = |v: &mut Vec<DiffEntry>| {
            v.sort_by(|x, y| {
                y.severity()
                    .total_cmp(&x.severity())
                    .then_with(|| x.path.cmp(&y.path))
                    .then_with(|| x.metric.cmp(&y.metric))
            });
        };
        rank(&mut regressions);
        rank(&mut improvements);
        DiffReport {
            kind: self.kind,
            compared: self.compared,
            unchanged: self.unchanged,
            below_noise: self.below_noise,
            context: self.context,
            regressions,
            improvements,
            only_before: self.only_before,
            only_after: self.only_after,
        }
    }
}

// ---------------------------------------------------------------- helpers

fn obj_fields(v: &JsonValue) -> &[(String, JsonValue)] {
    match v {
        JsonValue::Obj(fields) => fields,
        _ => &[],
    }
}

fn get_f64(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(JsonValue::as_f64)
}

/// Pull `key` from both sides of a pair of objects.
fn both(b: &JsonValue, a: &JsonValue, key: &str) -> (Option<f64>, Option<f64>) {
    (get_f64(b, key), get_f64(a, key))
}

/// Index a JSON array by a string-or-number key field, in document order.
fn index_by<'a>(
    v: Option<&'a JsonValue>,
    key_field: &str,
) -> BTreeMap<String, &'a JsonValue> {
    let mut out = BTreeMap::new();
    if let Some(items) = v.and_then(JsonValue::as_arr) {
        for item in items {
            let key = match item.get(key_field) {
                Some(JsonValue::Str(s)) => s.clone(),
                Some(JsonValue::Num(n)) => format!("{}", *n as i64),
                _ => continue,
            };
            out.entry(key).or_insert(item);
        }
    }
    out
}

/// Diff two maps of structural elements: shared keys go through `f`,
/// unmatched keys are recorded as only-in-one.
fn diff_keyed<'a>(
    d: &mut Builder,
    before: &BTreeMap<String, &'a JsonValue>,
    after: &BTreeMap<String, &'a JsonValue>,
    describe: impl Fn(&str) -> String,
    mut f: impl FnMut(&mut Builder, &str, &'a JsonValue, &'a JsonValue),
) {
    for (key, b) in before {
        match after.get(key) {
            Some(a) => f(d, key, b, a),
            None => d.only_before.push(describe(key)),
        }
    }
    for key in after.keys() {
        if !before.contains_key(key) {
            d.only_after.push(describe(key));
        }
    }
}

// ---------------------------------------------------------------- profile

const EXACT_COUNT: Lens = Lens::exact(Figure::Count);
const EXACT_BYTES: Lens = Lens::exact(Figure::Bytes);
const ALLOC_BYTES: Lens = Lens::frac(Figure::Bytes, ALLOC_NOISE_FRAC);

fn diff_strategy_profile(d: &mut Builder, strat: &str, b: &JsonValue, a: &JsonValue) {
    let tag = format!("[{strat}]");
    // Totals: every field is a deterministic evaluator counter except
    // rule_nanos, which is wall clock and deliberately not compared.
    if let (Some(tb), Some(ta)) = (b.get("totals"), a.get("totals")) {
        let path = format!("{tag} totals");
        for key in [
            "components",
            "rounds",
            "firings",
            "derivations",
            "inserted",
            "improved",
            "noop",
        ] {
            d.num(&path, key, EXACT_COUNT, get_f64(tb, key), get_f64(ta, key));
        }
    }
    let (pb, pa) = both(b, a, "pruned");
    d.num(&tag, "pruned", EXACT_COUNT, pb, pa);

    // Per-rule counters, matched by rule index (nanos skipped, as above).
    let rules_b = index_by(b.get("rules"), "rule");
    let rules_a = index_by(a.get("rules"), "rule");
    diff_keyed(
        d,
        &rules_b,
        &rules_a,
        |k| format!("{tag} r{k}"),
        |d, k, rb, ra| {
            let path = format!("{tag} r{k}");
            for key in ["firings", "derivations", "inserted", "improved", "noop"] {
                d.num(&path, key, EXACT_COUNT, get_f64(rb, key), get_f64(ra, key));
            }
        },
    );

    // Index telemetry per predicate: all counters are deterministic.
    let idx_b = index_by(b.get("indexes"), "pred");
    let idx_a = index_by(a.get("indexes"), "pred");
    diff_keyed(
        d,
        &idx_b,
        &idx_a,
        |k| format!("{tag} index {k}"),
        |d, k, ib, ia| {
            let path = format!("{tag} index {k}");
            for key in [
                "sigs",
                "probes",
                "hits",
                "lazy_builds",
                "log_replays",
                "replayed_entries",
                "cow_clones",
            ] {
                d.num(&path, key, EXACT_COUNT, get_f64(ib, key), get_f64(ia, key));
            }
        },
    );

    // Memory: structural estimates compare exactly; allocator high-water
    // marks get the 2 % floor; alloc_current_bytes (whatever happened to
    // be live at report time) is not compared.
    if let (Some(mb), Some(ma)) = (b.get("memory"), a.get("memory")) {
        let path = format!("{tag} memory");
        d.num(
            &path,
            "alloc_peak_bytes",
            ALLOC_BYTES,
            get_f64(mb, "alloc_peak_bytes"),
            get_f64(ma, "alloc_peak_bytes"),
        );
        for key in ["relation_heap_bytes", "agg_peak_bytes"] {
            d.num(&path, key, EXACT_BYTES, get_f64(mb, key), get_f64(ma, key));
        }
        let rel_b = index_by(mb.get("relations"), "pred");
        let rel_a = index_by(ma.get("relations"), "pred");
        diff_keyed(
            d,
            &rel_b,
            &rel_a,
            |k| format!("{tag} memory {k}"),
            |d, k, rb, ra| {
                let path = format!("{tag} memory {k}");
                d.num(
                    &path,
                    "heap_bytes",
                    EXACT_BYTES,
                    get_f64(rb, "heap_bytes"),
                    get_f64(ra, "heap_bytes"),
                );
            },
        );
    }

    // Aggregate accumulator totals (peak_bytes already diffed via memory).
    if let (Some(gb), Some(ga)) = (b.get("aggregates"), a.get("aggregates")) {
        let path = format!("{tag} aggregates");
        for key in ["groups", "elements"] {
            d.num(&path, key, EXACT_COUNT, get_f64(gb, key), get_f64(ga, key));
        }
    }

    // Parallel section: workers/merges are deterministic; shard imbalance
    // (max/mean over shard_firings) summarizes the firing distribution;
    // barrier_wait_nanos is a timing and skipped.
    let imbalance = |v: &JsonValue| -> Option<f64> {
        let shards = v.get("shard_firings")?.as_arr()?;
        let vals: Vec<f64> = shards.iter().filter_map(JsonValue::as_f64).collect();
        let max = vals.iter().cloned().fold(0.0_f64, f64::max);
        let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
        (mean > 0.0).then(|| max / mean)
    };
    match (b.get("parallel"), a.get("parallel")) {
        (Some(qb), Some(qa)) => {
            let path = format!("{tag} parallel");
            for key in ["workers", "rounds", "merges"] {
                d.num(&path, key, EXACT_COUNT, get_f64(qb, key), get_f64(qa, key));
            }
            d.num(
                &path,
                "shard_imbalance",
                Lens::frac(Figure::Ratio, 1e-3),
                imbalance(qb),
                imbalance(qa),
            );
        }
        (Some(_), None) => d.only_before.push(format!("{tag} parallel section")),
        (None, Some(_)) => d.only_after.push(format!("{tag} parallel section")),
        (None, None) => {}
    }

    // Histogram summary blocks: counts are exact, quantiles get the
    // bucket-resolution floor, max (an extreme order statistic) skipped.
    let hist_b = index_by(b.get("histograms"), "metric");
    let hist_a = index_by(a.get("histograms"), "metric");
    diff_keyed(
        d,
        &hist_b,
        &hist_a,
        |k| format!("{tag} histogram {k}"),
        |d, k, hb, ha| {
            let path = format!("{tag} histogram {k}");
            let figure = match hb.get("unit").and_then(JsonValue::as_str) {
                Some("nanoseconds") => Figure::Nanos,
                Some("bytes") => Figure::Bytes,
                _ => Figure::Count,
            };
            d.num(&path, "count", EXACT_COUNT, get_f64(hb, "count"), get_f64(ha, "count"));
            for key in ["p50", "p90", "p99"] {
                d.num(
                    &path,
                    key,
                    Lens::frac(figure, QUANTILE_NOISE_FRAC),
                    get_f64(hb, key),
                    get_f64(ha, key),
                );
            }
        },
    );

    // Optimization decisions: a line present on one side only is a plan
    // difference worth surfacing.
    let lines = |v: &JsonValue| -> BTreeSet<String> {
        v.get("optimizations")
            .and_then(JsonValue::as_arr)
            .map(|items| {
                items
                    .iter()
                    .filter_map(JsonValue::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    };
    let (ob, oa) = (lines(b), lines(a));
    for line in ob.difference(&oa) {
        d.only_before.push(format!("{tag} optimization: {line}"));
    }
    for line in oa.difference(&ob) {
        d.only_after.push(format!("{tag} optimization: {line}"));
    }
}

fn diff_profile(b: &JsonValue, a: &JsonValue) -> DiffReport {
    let mut d = Builder::new(DocKind::Profile);
    let label = |v: &JsonValue| {
        v.get("program")
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_string()
    };
    d.context_diff("program", &label(b), &label(a));
    let strat_b = index_by(b.get("strategies"), "strategy");
    let strat_a = index_by(a.get("strategies"), "strategy");
    diff_keyed(
        &mut d,
        &strat_b,
        &strat_a,
        |k| format!("[{k}] strategy"),
        diff_strategy_profile,
    );
    d.finish()
}

// ---------------------------------------------------------------- bench

fn diff_strategy_bench(d: &mut Builder, path: &str, b: &JsonValue, a: &JsonValue) {
    // Work counters are deterministic for a given commit and instance:
    // a moved counter is exactly the attribution a timing delta needs.
    for key in ["rounds", "firings", "derivations", "pruned", "derivations_unoptimized"] {
        let (vb, va) = both(b, a, key);
        d.num(path, key, EXACT_COUNT, vb, va);
    }
    // Timed figures: significant only beyond the larger of the two
    // measured MADs (mad_secs itself is the noise estimate, not a metric).
    let mad = get_f64(b, "mad_secs")
        .unwrap_or(0.0)
        .max(get_f64(a, "mad_secs").unwrap_or(0.0));
    for key in ["median_secs", "min_secs", "p50_secs", "p90_secs", "p99_secs"] {
        let (vb, va) = both(b, a, key);
        d.num(path, key, Lens::exact(Figure::Seconds).abs(mad), vb, va);
    }
    // Throughput improves upward; its noise is the MAD relative to the
    // median, since both numerator and denominator ride the same samples.
    let rel = |v: &JsonValue| {
        let med = get_f64(v, "median_secs").unwrap_or(0.0);
        let mad = get_f64(v, "mad_secs").unwrap_or(0.0);
        if med > 0.0 {
            mad / med
        } else {
            0.0
        }
    };
    let rate = Lens::frac(Figure::Rate, rel(b).max(rel(a))).better_high();
    for key in ["tuples_per_sec", "derivations_per_sec"] {
        let (vb, va) = both(b, a, key);
        d.num(path, key, rate, vb, va);
    }
    let (hb, ha) = both(b, a, "peak_heap_bytes");
    d.num(path, "peak_heap_bytes", ALLOC_BYTES, hb, ha);
}

/// Bench cells keyed `workload/size` — the human table's first column.
fn bench_cells(v: &JsonValue) -> BTreeMap<String, &JsonValue> {
    let mut out = BTreeMap::new();
    if let Some(items) = v.get("workloads").and_then(JsonValue::as_arr) {
        for w in items {
            let name = w.get("workload").and_then(JsonValue::as_str).unwrap_or("?");
            let size = get_f64(w, "size").unwrap_or(0.0) as u64;
            out.entry(format!("{name}/{size}")).or_insert(w);
        }
    }
    out
}

/// A cell's `strategies` object, keyed by strategy name.
fn strategy_map(w: &JsonValue) -> BTreeMap<String, &JsonValue> {
    w.get("strategies")
        .map(obj_fields)
        .unwrap_or(&[])
        .iter()
        .map(|(k, v)| (k.clone(), v))
        .collect()
}

fn diff_bench(b: &JsonValue, a: &JsonValue) -> DiffReport {
    let mut d = Builder::new(DocKind::Bench);
    // Environment differences are context: they explain deltas (different
    // commit, different sample count) without being deltas themselves.
    if let (Some(eb), Some(ea)) = (b.get("environment"), a.get("environment")) {
        for key in ["commit", "rustc", "cpus", "warmup", "samples", "workers"] {
            let text = |v: &JsonValue| match v.get(key) {
                Some(JsonValue::Str(s)) => s.clone(),
                Some(JsonValue::Num(n)) => format!("{}", *n as i64),
                _ => "?".to_string(),
            };
            d.context_diff(&format!("environment.{key}"), &text(eb), &text(ea));
        }
        let opts = |v: &JsonValue| {
            v.get("optimize")
                .and_then(JsonValue::as_arr)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(JsonValue::as_str)
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .unwrap_or_default()
        };
        d.context_diff("environment.optimize", &opts(eb), &opts(ea));
    }

    let (cb, ca) = (bench_cells(b), bench_cells(a));
    diff_keyed(
        &mut d,
        &cb,
        &ca,
        |k| format!("cell {k}"),
        |d, cell, wb, wa| {
            for key in ["edb_facts", "tuples"] {
                let (vb, va) = both(wb, wa, key);
                d.num(cell, key, EXACT_COUNT, vb, va);
            }
            diff_keyed(
                d,
                &strategy_map(wb),
                &strategy_map(wa),
                |s| format!("{cell} {s}"),
                |d, strat, sb, sa| {
                    diff_strategy_bench(d, &format!("{cell} {strat}"), sb, sa);
                },
            );
            // Scaling curve, matched per worker count.
            let points = |w| index_by(w, "workers");
            diff_keyed(
                d,
                &points(wb.get("scaling")),
                &points(wa.get("scaling")),
                |w| format!("{cell} scaling {w}w"),
                |d, workers, pb, pa| {
                    let path = format!("{cell} scaling {workers}w");
                    let mad = get_f64(pb, "mad_secs")
                        .unwrap_or(0.0)
                        .max(get_f64(pa, "mad_secs").unwrap_or(0.0));
                    let (vb, va) = both(pb, pa, "median_secs");
                    d.num(&path, "median_secs", Lens::exact(Figure::Seconds).abs(mad), vb, va);
                    let rel_mad = |p: &JsonValue| {
                        let med = get_f64(p, "median_secs").unwrap_or(0.0);
                        if med > 0.0 {
                            get_f64(p, "mad_secs").unwrap_or(0.0) / med
                        } else {
                            0.0
                        }
                    };
                    let (ub, ua) = both(pb, pa, "speedup");
                    d.num(
                        &path,
                        "speedup",
                        // Speedup is a ratio of two medians: both points'
                        // relative MADs contribute to its noise.
                        Lens::frac(Figure::Ratio, rel_mad(pb) + rel_mad(pa)).better_high(),
                        ub,
                        ua,
                    );
                },
            );
        },
    );
    d.finish()
}

// ---------------------------------------------------------------- metrics

/// A stable series label: family name plus sorted `key="value"` pairs
/// (minus `le`, which indexes buckets within a series).
fn series_label(name: &str, labels: &[(String, String)]) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .filter(|(k, _)| k != "le")
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect();
    if pairs.is_empty() {
        return name.to_string();
    }
    pairs.sort();
    format!("{name}{{{}}}", pairs.join(","))
}

/// Rebuild a [`Histogram`] from a parsed cumulative `le` series, undoing
/// the exposition's unit scaling so the quantile machinery sees the
/// originally recorded values. The `+Inf` residual (zero in our own
/// expositions, whose finite buckets cover every recorded value) is
/// attributed to the last finite bound.
fn rebuild_histogram(buckets: &[(f64, f64)], seconds: bool) -> Histogram {
    let mut h = Histogram::new();
    let mut prev = 0.0_f64;
    let mut last_finite = None;
    for &(le, cum) in buckets {
        let delta = (cum - prev).max(0.0).round() as u64;
        prev = cum;
        let v = if le.is_finite() {
            let raw = if seconds { (le * 1e9).round() } else { le.round() };
            last_finite = Some(raw.max(0.0) as u64);
            last_finite
        } else {
            last_finite
        };
        if let Some(v) = v {
            h.record_n(v, delta);
        }
    }
    h
}

/// Per-series cumulative buckets and count of one histogram family.
type HistSeries = BTreeMap<String, (Vec<(f64, f64)>, Option<f64>)>;

fn histogram_series(f: &ParsedFamily) -> HistSeries {
    let bucket_name = format!("{}_bucket", f.name);
    let count_name = format!("{}_count", f.name);
    let mut out: HistSeries = BTreeMap::new();
    for s in &f.samples {
        let key = series_label(&f.name, &s.labels);
        let entry = out.entry(key).or_default();
        if s.name == bucket_name {
            let le = s
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| if v == "+Inf" { f64::INFINITY } else { v.parse().unwrap_or(0.0) })
                .unwrap_or(f64::INFINITY);
            entry.0.push((le, s.value));
        } else if s.name == count_name {
            entry.1 = Some(s.value);
        }
    }
    out
}

fn diff_metric_family(d: &mut Builder, fb: &ParsedFamily, fa: &ParsedFamily) {
    match fb.kind.as_str() {
        "counter" => {
            // Counters sample as `<family>_total`; every one of ours is a
            // deterministic work counter, so they compare exactly.
            let series = |f: &ParsedFamily| -> BTreeMap<String, f64> {
                f.samples
                    .iter()
                    .filter(|s| s.name.ends_with("_total"))
                    .map(|s| (series_label(&f.name, &s.labels), s.value))
                    .collect()
            };
            let (sb, sa) = (series(fb), series(fa));
            let keys: BTreeSet<&String> = sb.keys().chain(sa.keys()).collect();
            for key in keys {
                d.num(
                    key,
                    "total",
                    EXACT_COUNT,
                    sb.get(key).copied(),
                    sa.get(key).copied(),
                );
            }
        }
        "gauge" => {
            let lens = if fb.unit.as_deref() == Some("bytes") {
                ALLOC_BYTES
            } else {
                EXACT_COUNT
            };
            let series = |f: &ParsedFamily| -> BTreeMap<String, f64> {
                f.samples
                    .iter()
                    .map(|s| (series_label(&f.name, &s.labels), s.value))
                    .collect()
            };
            let (sb, sa) = (series(fb), series(fa));
            let keys: BTreeSet<&String> = sb.keys().chain(sa.keys()).collect();
            for key in keys {
                d.num(key, "value", lens, sb.get(key).copied(), sa.get(key).copied());
            }
        }
        "histogram" => {
            // Quantile shifts via the engine's own histogram machinery:
            // rebuild each series from its cumulative buckets, then
            // compare nearest-rank quantiles at bucket resolution.
            let seconds = fb.unit.as_deref() == Some("seconds");
            let figure = match fb.unit.as_deref() {
                Some("seconds") => Figure::Nanos,
                Some("bytes") => Figure::Bytes,
                _ => Figure::Count,
            };
            let (sb, sa) = (histogram_series(fb), histogram_series(fa));
            let keys: BTreeSet<&String> = sb.keys().chain(sa.keys()).collect();
            for key in keys {
                let (b, a) = (sb.get(key), sa.get(key));
                d.num(
                    key,
                    "count",
                    EXACT_COUNT,
                    b.and_then(|(_, c)| *c),
                    a.and_then(|(_, c)| *c),
                );
                let hb = b.map(|(buckets, _)| rebuild_histogram(buckets, seconds));
                let ha = a.map(|(buckets, _)| rebuild_histogram(buckets, seconds));
                for (metric, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                    d.num(
                        key,
                        metric,
                        Lens::frac(figure, QUANTILE_NOISE_FRAC),
                        hb.as_ref().and_then(|h| h.quantile(q)).map(|v| v as f64),
                        ha.as_ref().and_then(|h| h.quantile(q)).map(|v| v as f64),
                    );
                }
            }
        }
        _ => {}
    }
}

fn family_map(e: &Exposition) -> BTreeMap<String, &ParsedFamily> {
    e.families.iter().map(|f| (f.name.clone(), f)).collect()
}

fn diff_metrics(b: &Exposition, a: &Exposition) -> DiffReport {
    let mut d = Builder::new(DocKind::Metrics);
    let (fb, fa) = (family_map(b), family_map(a));
    for (name, bf) in &fb {
        match fa.get(name) {
            Some(af) if af.kind == bf.kind => diff_metric_family(&mut d, bf, af),
            Some(af) => d.context.push(format!(
                "family {name}: kind changed {} -> {}",
                bf.kind, af.kind
            )),
            None => d.only_before.push(format!("family {name}")),
        }
    }
    for name in fa.keys() {
        if !fb.contains_key(name) {
            d.only_after.push(format!("family {name}"));
        }
    }
    d.finish()
}

// ---------------------------------------------------------------- entry points

/// Diff two parsed documents of the same kind. Mixing kinds is an error
/// (a profile has nothing meaningful to say against an exposition).
pub fn diff_documents(before: &Document, after: &Document) -> Result<DiffReport, String> {
    match (before, after) {
        (Document::Profile(b), Document::Profile(a)) => Ok(diff_profile(b, a)),
        (Document::Bench(b), Document::Bench(a)) => Ok(diff_bench(b, a)),
        (Document::Metrics(b), Document::Metrics(a)) => Ok(diff_metrics(b, a)),
        (b, a) => Err(format!(
            "document kinds differ: before is {}, after is {}",
            b.kind().name(),
            a.kind().name()
        )),
    }
}

/// Parse and diff two telemetry documents from raw text.
pub fn diff_texts(before: &str, after: &str) -> Result<DiffReport, String> {
    let b = parse_document(before).map_err(|e| format!("before: {e}"))?;
    let a = parse_document(after).map_err(|e| format!("after: {e}"))?;
    diff_documents(&b, &a)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH_A: &str = r#"{
      "schema": "maglog-bench-v2",
      "environment": {"commit": "aaa1111", "rustc": "rustc 1.75.0", "cpus": 4,
                      "warmup": 1, "samples": 5, "workers": 1, "optimize": []},
      "workloads": [
        {"workload": "shortest_path", "size": 16, "edb_facts": 48, "tuples": 120,
         "strategies": {
           "seminaive": {"rounds": 4, "firings": 9, "derivations": 8,
             "median_secs": 0.001, "min_secs": 0.0009, "mad_secs": 0.00002,
             "p50_secs": 0.001, "p90_secs": 0.0011, "p99_secs": 0.0012,
             "tuples_per_sec": 120000.0, "derivations_per_sec": 8000.0,
             "peak_heap_bytes": 4096}},
         "scaling": [
           {"workers": 1, "median_secs": 0.00102, "min_secs": 0.0009,
            "mad_secs": 0.00002, "speedup": 1.0},
           {"workers": 2, "median_secs": 0.0006, "min_secs": 0.00055,
            "mad_secs": 0.00002, "speedup": 1.66}
         ]}
      ]
    }"#;

    /// BENCH_A with a 2x median, +200 firings, and a throughput drop.
    const BENCH_B: &str = r#"{
      "schema": "maglog-bench-v2",
      "environment": {"commit": "bbb2222", "rustc": "rustc 1.75.0", "cpus": 4,
                      "warmup": 1, "samples": 5, "workers": 1, "optimize": []},
      "workloads": [
        {"workload": "shortest_path", "size": 16, "edb_facts": 48, "tuples": 120,
         "strategies": {
           "seminaive": {"rounds": 4, "firings": 209, "derivations": 8,
             "median_secs": 0.002, "min_secs": 0.0019, "mad_secs": 0.00002,
             "p50_secs": 0.002, "p90_secs": 0.0021, "p99_secs": 0.0022,
             "tuples_per_sec": 60000.0, "derivations_per_sec": 4000.0,
             "peak_heap_bytes": 4096}},
         "scaling": [
           {"workers": 1, "median_secs": 0.00202, "min_secs": 0.0019,
            "mad_secs": 0.00002, "speedup": 1.0},
           {"workers": 2, "median_secs": 0.0012, "min_secs": 0.0011,
            "mad_secs": 0.00002, "speedup": 1.66}
         ]}
      ]
    }"#;

    const PROFILE_A: &str = r#"{
      "schema": "maglog-profile-v1",
      "program": "programs/shortest_path.mgl",
      "strategies": [
        {"strategy": "seminaive",
         "totals": {"components": 1, "rounds": 4, "firings": 9, "derivations": 8,
                    "inserted": 6, "improved": 0, "noop": 2, "rule_nanos": 9},
         "components": [],
         "rules": [
           {"rule": 0, "text": "r0", "plan": "scan", "firings": 1,
            "derivations": 2, "inserted": 2, "improved": 0, "noop": 0, "nanos": 1}
         ],
         "indexes": [
           {"pred": "arc", "sigs": 1, "probes": 3, "hits": 2, "lazy_builds": 1,
            "log_replays": 0, "replayed_entries": 0, "cow_clones": 0}
         ],
         "memory": {
           "alloc_current_bytes": 10,
           "alloc_peak_bytes": 1000,
           "relation_heap_bytes": 500,
           "agg_peak_bytes": 100,
           "relations": [
             {"pred": "arc", "heap_bytes": 500, "tuple_bytes": 100,
              "map_bytes": 200, "log_bytes": 100, "index_bytes": 100}
           ]},
         "aggregates": {"groups": 2, "elements": 4, "peak_bytes": 100},
         "optimizations": ["prem: rule 2"],
         "pruned": 3}
      ]
    }"#;

    const METRICS_A: &str = "# TYPE maglog_firings counter\n\
        # HELP maglog_firings Rule firings.\n\
        maglog_firings_total{strategy=\"seminaive\"} 9\n\
        # TYPE maglog_round_duration_seconds histogram\n\
        # UNIT maglog_round_duration_seconds seconds\n\
        # HELP maglog_round_duration_seconds Round wall clock.\n\
        maglog_round_duration_seconds_bucket{strategy=\"seminaive\",le=\"0.000001023\"} 3\n\
        maglog_round_duration_seconds_bucket{strategy=\"seminaive\",le=\"+Inf\"} 3\n\
        maglog_round_duration_seconds_count{strategy=\"seminaive\"} 3\n\
        maglog_round_duration_seconds_sum{strategy=\"seminaive\"} 0.000002\n\
        # EOF\n";

    const METRICS_B: &str = "# TYPE maglog_firings counter\n\
        # HELP maglog_firings Rule firings.\n\
        maglog_firings_total{strategy=\"seminaive\"} 14\n\
        # TYPE maglog_round_duration_seconds histogram\n\
        # UNIT maglog_round_duration_seconds seconds\n\
        # HELP maglog_round_duration_seconds Round wall clock.\n\
        maglog_round_duration_seconds_bucket{strategy=\"seminaive\",le=\"0.000001023\"} 1\n\
        maglog_round_duration_seconds_bucket{strategy=\"seminaive\",le=\"0.000032767\"} 3\n\
        maglog_round_duration_seconds_bucket{strategy=\"seminaive\",le=\"+Inf\"} 3\n\
        maglog_round_duration_seconds_count{strategy=\"seminaive\"} 3\n\
        maglog_round_duration_seconds_sum{strategy=\"seminaive\"} 0.00005\n\
        # EOF\n";

    #[test]
    fn parse_document_sniffs_all_three_kinds() {
        assert_eq!(parse_document(BENCH_A).unwrap().kind(), DocKind::Bench);
        assert_eq!(parse_document(PROFILE_A).unwrap().kind(), DocKind::Profile);
        assert_eq!(parse_document(METRICS_A).unwrap().kind(), DocKind::Metrics);
        assert!(parse_document("{\"schema\": \"maglog-trace-v1\"}").is_err());
        assert!(parse_document("{\"no\": \"schema\"}").is_err());
        assert!(parse_document("not a document").is_err());
    }

    #[test]
    fn mixed_kinds_are_an_error() {
        let err = diff_texts(BENCH_A, METRICS_A).unwrap_err();
        assert!(err.contains("kinds differ"), "{err}");
    }

    #[test]
    fn self_diff_is_clean_for_every_kind() {
        for doc in [BENCH_A, PROFILE_A, METRICS_A] {
            let report = diff_texts(doc, doc).unwrap();
            assert!(report.is_clean(), "{:?}", report);
            assert!(report.compared > 0);
            assert_eq!(report.unchanged, report.compared);
            assert!(report.context.is_empty());
        }
    }

    #[test]
    fn bench_diff_ranks_regressions_and_attributes_counters() {
        let report = diff_texts(BENCH_A, BENCH_B).unwrap();
        assert_eq!(report.kind, DocKind::Bench);
        assert!(report
            .context
            .iter()
            .any(|c| c == "environment.commit: aaa1111 -> bbb2222"));
        let metrics: Vec<&str> = report
            .regressions
            .iter()
            .map(|e| e.metric.as_str())
            .collect();
        // The 23x firings jump outranks every 2x timing move.
        assert_eq!(report.regressions[0].metric, "firings");
        assert!(metrics.contains(&"median_secs"));
        assert!(metrics.contains(&"tuples_per_sec"), "{metrics:?}");
        // The throughput drop is a regression even though the value fell.
        let tput = report
            .regressions
            .iter()
            .find(|e| e.metric == "tuples_per_sec")
            .unwrap();
        assert!(tput.after < tput.before);
        assert!((tput.severity() - 2.0).abs() < 1e-9);
        // Unchanged speedup stays out of both lists.
        assert!(!report
            .regressions
            .iter()
            .chain(&report.improvements)
            .any(|e| e.metric == "speedup"));
        assert!(report.improvements.is_empty(), "{:?}", report.improvements);
    }

    #[test]
    fn bench_noise_below_mad_is_not_flagged() {
        // +10µs on a 20µs MAD: within noise. The doc differs textually
        // but no figure clears its significance rule.
        let b = BENCH_A.replace("\"median_secs\": 0.001,", "\"median_secs\": 0.00101,");
        let report = diff_texts(BENCH_A, &b).unwrap();
        assert!(report.is_clean(), "{:?}", report);
        assert!(report.below_noise >= 1);
        // +100µs on the same MAD: significant.
        let b = BENCH_A.replace("\"median_secs\": 0.001,", "\"median_secs\": 0.0011,");
        let report = diff_texts(BENCH_A, &b).unwrap();
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].metric, "median_secs");
    }

    #[test]
    fn gate_failures_apply_the_threshold_to_severity() {
        let report = diff_texts(BENCH_A, BENCH_B).unwrap();
        // Everything moved ~2x except firings (23x).
        assert!(!report.gate_failures(1.25).is_empty());
        let big: Vec<&str> = report
            .gate_failures(10.0)
            .iter()
            .map(|e| e.metric.as_str())
            .collect();
        assert_eq!(big, ["firings"]);
        assert!(report.gate_failures(50.0).is_empty());
    }

    #[test]
    fn profile_diff_attributes_per_rule_and_memory_moves() {
        let b = PROFILE_A
            .replace("\"firings\": 9", "\"firings\": 12")
            .replace(
                "\"rule\": 0, \"text\": \"r0\", \"plan\": \"scan\", \"firings\": 1",
                "\"rule\": 0, \"text\": \"r0\", \"plan\": \"scan\", \"firings\": 4",
            )
            .replace("\"relation_heap_bytes\": 500", "\"relation_heap_bytes\": 700")
            .replace("\"optimizations\": [\"prem: rule 2\"]", "\"optimizations\": []");
        let report = diff_texts(PROFILE_A, &b).unwrap();
        let paths: Vec<String> = report
            .regressions
            .iter()
            .map(|e| format!("{} {}", e.path, e.metric))
            .collect();
        assert!(paths.contains(&"[seminaive] totals firings".to_string()), "{paths:?}");
        assert!(paths.contains(&"[seminaive] r0 firings".to_string()), "{paths:?}");
        assert!(
            paths.contains(&"[seminaive] memory relation_heap_bytes".to_string()),
            "{paths:?}"
        );
        assert!(report
            .only_before
            .iter()
            .any(|p| p == "[seminaive] optimization: prem: rule 2"));
        // A 1.5% allocator-peak wiggle stays under the 2% floor.
        let b = PROFILE_A.replace("\"alloc_peak_bytes\": 1000", "\"alloc_peak_bytes\": 1015");
        let report = diff_texts(PROFILE_A, &b).unwrap();
        assert!(report.is_clean(), "{:?}", report);
        assert_eq!(report.below_noise, 1);
    }

    #[test]
    fn metrics_diff_reports_counter_and_quantile_shifts() {
        let report = diff_texts(METRICS_A, METRICS_B).unwrap();
        let firings = report
            .regressions
            .iter()
            .find(|e| e.path.starts_with("maglog_firings"))
            .expect("counter delta reported");
        assert_eq!(firings.metric, "total");
        assert_eq!((firings.before, firings.after), (9.0, 14.0));
        // Two of three observations moved to the ~32µs bucket: p90 shifts
        // far beyond the bucket-resolution floor.
        let p90 = report
            .regressions
            .iter()
            .find(|e| e.path.starts_with("maglog_round_duration") && e.metric == "p90")
            .expect("quantile shift reported");
        assert!(p90.after > p90.before * 10.0, "{p90:?}");
        assert_eq!(p90.figure, Figure::Nanos);
        // The count itself did not move.
        assert!(!report
            .regressions
            .iter()
            .any(|e| e.metric == "count"));
    }

    #[test]
    fn structural_asymmetry_lands_in_only_lists() {
        let a = BENCH_A.replace("\"workload\": \"shortest_path\"", "\"workload\": \"party\"");
        let report = diff_texts(BENCH_A, &a).unwrap();
        assert_eq!(report.only_before, ["cell shortest_path/16"]);
        assert_eq!(report.only_after, ["cell party/16"]);
        assert!(!report.is_clean());
    }

    #[test]
    fn human_rendering_is_golden() {
        let b = BENCH_A.replace("\"median_secs\": 0.001,", "\"median_secs\": 0.002,");
        let report = diff_texts(BENCH_A, &b).unwrap();
        let human = report.render_human("before.json", "after.json");
        assert_eq!(
            human,
            "maglog diff (maglog-bench-v2): before.json -> after.json\n\
             compared 17 figure(s): 1 regression(s), 0 improvement(s), \
             16 unchanged, 0 below noise\n\
             regressions (worst first):\n\
             \x20 shortest_path/16 seminaive median_secs: 1.0 ms -> 2.0 ms \
             (2.00x, noise ±20.0 µs)\n",
        );
        let clean = diff_texts(BENCH_A, BENCH_A).unwrap();
        let human = clean.render_human("a", "a");
        assert!(human.ends_with("no significant differences\n"), "{human}");
    }

    #[test]
    fn json_rendering_is_stable_maglog_diff_v1() {
        let b = BENCH_A.replace("\"median_secs\": 0.001,", "\"median_secs\": 0.002,");
        let report = diff_texts(BENCH_A, &b).unwrap();
        let json = report.to_json("before.json", "after.json");
        let doc = jsonish::parse(&json).unwrap();
        assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some(DIFF_SCHEMA));
        assert_eq!(doc.get("kind").and_then(JsonValue::as_str), Some("maglog-bench-v2"));
        assert_eq!(doc.get("compared").and_then(JsonValue::as_f64), Some(17.0));
        let regs = doc.get("regressions").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(regs.len(), 1);
        let r = &regs[0];
        assert_eq!(
            r.get("path").and_then(JsonValue::as_str),
            Some("shortest_path/16 seminaive")
        );
        assert_eq!(r.get("metric").and_then(JsonValue::as_str), Some("median_secs"));
        assert_eq!(r.get("ratio").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(r.get("severity").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(r.get("unit").and_then(JsonValue::as_str), Some("seconds"));
        // A zero baseline renders ratio as null, not a division blow-up.
        let z = BENCH_A.replace("\"firings\": 9", "\"firings\": 0");
        let report = diff_texts(&z, BENCH_A).unwrap();
        let json = report.to_json("z", "a");
        let doc = jsonish::parse(&json).unwrap();
        let regs = doc.get("regressions").and_then(JsonValue::as_arr).unwrap();
        let fir = regs
            .iter()
            .find(|r| r.get("metric").and_then(JsonValue::as_str) == Some("firings"))
            .unwrap();
        assert_eq!(fir.get("ratio"), Some(&JsonValue::Null));
        assert_eq!(fir.get("severity"), Some(&JsonValue::Null));
    }

    #[test]
    fn rebuild_histogram_round_trips_quantiles() {
        // Record a known distribution, render its cumulative buckets the
        // way the exposition does, rebuild, and compare quantiles. Values
        // are snapped to bucket upper bounds first: the rebuild can only
        // recover bucket-resolution positions, and `quantile` clamps to
        // the exact tracked max, so upper-bound inputs round-trip exactly.
        let mut h = Histogram::new();
        for v in [100_u64, 100, 100, 5_000, 5_000, 1_000_000] {
            h.record(Histogram::bucket_bounds(Histogram::bucket_index(v)).1);
        }
        let mut cum = 0.0;
        let mut buckets: Vec<(f64, f64)> = h
            .nonzero_buckets()
            .map(|(le, c)| {
                cum += c as f64;
                (le as f64, cum)
            })
            .collect();
        buckets.push((f64::INFINITY, cum));
        let r = rebuild_histogram(&buckets, false);
        assert_eq!(r.count(), h.count());
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(r.quantile(q), h.quantile(q), "q={q}");
        }
    }
}
