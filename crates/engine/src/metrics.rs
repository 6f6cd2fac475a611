//! Latency-distribution observability: a log-linear (HDR-style)
//! [`Histogram`] with lossless [`Histogram::merge`] and a labeled
//! [`MetricSet`] of counters/gauges/histograms. The recorder that fills
//! them while an evaluation runs is [`crate::profile::MetricsSink`].
//!
//! The histogram mirrors the `Accumulator::merge` discipline from the
//! sharded evaluator: workers record into *worker-local* histograms and
//! the round barrier merges them ([`Event::WorkerSample`]), so
//! `--parallel` runs never contend on a shared collector. Merging is
//! lossless — bucket counts add, min/max/count/sum combine — so the
//! merged distribution is exactly what one sequential recorder would
//! have held.
//!
//! Exposition is OpenMetrics 1.0 text ([`MetricSet::render_openmetrics`]),
//! and a line parser for the same dialect lives here too
//! ([`parse_openmetrics`]) so round-trips are property-testable and
//! `maglog metrics-validate` can hard-fail malformed output in CI.
//!
//! Convention: histogram families with [`Unit::Seconds`] record values in
//! **nanoseconds** and are scaled to seconds at exposition; every other
//! unit is exposed raw.

use crate::events::{Clock, SystemClock};
use crate::jsonish::fmt_f64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Sub-bucket resolution: 2^5 = 32 log-linear sub-buckets per power of
/// two, bounding the relative quantile error by 2⁻⁵ ≈ 3.1%.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram over `u64` values (HDR-style): exact buckets
/// below 32, then 32 sub-buckets per power of two, covering all of `u64`
/// in at most 1920 buckets. Only non-empty buckets are stored,
/// and the storage is sized by the observation count alone, never by the
/// values: a timing histogram's heap footprint is the same on every run,
/// so recording one leaves the allocator figures of a profile
/// reproducible. `count` and `sum` saturate instead of wrapping.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// `(bucket index, count)` of every non-empty bucket, by index.
    buckets: Vec<(usize, u64)>,
    count: u64,
    sum: u64,
    /// Exact extrema; meaningful only when `count > 0`.
    min: u64,
    max: u64,
}

/// Buckets needed to cover all of `u64`.
const MAX_BUCKETS: usize = 1920;

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index a value lands in.
    pub fn bucket_index(v: u64) -> usize {
        if v < SUB {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let shift = msb - SUB_BITS;
            ((shift as usize + 1) << SUB_BITS) + (v >> shift) as usize - SUB as usize
        }
    }

    /// The inclusive `(lower, upper)` value range of a bucket.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        if index < SUB as usize {
            return (index as u64, index as u64);
        }
        let shift = (index >> SUB_BITS) as u32 - 1;
        let sub = (index as u64 & (SUB - 1)) + SUB;
        let lower = sub << shift;
        let upper = (((sub as u128 + 1) << shift) - 1).min(u64::MAX as u128) as u64;
        (lower, upper)
    }

    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of the same value at once — equivalent to
    /// `n` calls to [`Histogram::record`] but O(buckets). This is how a
    /// parsed cumulative `le` series is replayed back into a histogram.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.reserve_for_count();
        self.add_to_bucket(Self::bucket_index(v), n);
    }

    /// Fold another histogram into this one, losslessly: bucket counts
    /// add (saturating), extrema take min/max, `count`/`sum` add
    /// (saturating). Associative and commutative, with the empty
    /// histogram as two-sided identity; like the engine's counting
    /// aggregate folds it is deliberately *not* idempotent — merging a
    /// shard with itself double-counts.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.reserve_for_count();
        for &(i, c) in &other.buckets {
            self.add_to_bucket(i, c);
        }
    }

    /// Grow the bucket storage to the next power of two of the
    /// observation count (capped at [`MAX_BUCKETS`]). There are never more
    /// non-empty buckets than observations, so inserts fit without a
    /// value-dependent reallocation.
    fn reserve_for_count(&mut self) {
        let want = usize::try_from(self.count)
            .unwrap_or(MAX_BUCKETS)
            .min(MAX_BUCKETS)
            .next_power_of_two()
            .min(MAX_BUCKETS);
        if self.buckets.capacity() < want {
            self.buckets.reserve_exact(want - self.buckets.len());
        }
    }

    fn add_to_bucket(&mut self, index: usize, n: u64) {
        match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 = self.buckets[pos].1.saturating_add(n),
            Err(pos) => self.buckets.insert(pos, (index, n)),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Nearest-rank quantile estimate, `q` in `[0, 1]`. Reports the upper
    /// bound of the rank's bucket clamped to the exact tracked maximum,
    /// so the estimate always lies inside the true value's bucket: the
    /// error is bounded by the bucket width (relative error ≤ 2⁻⁵).
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            seen = seen.saturating_add(c);
            if seen >= rank {
                let (_, hi) = Self::bucket_bounds(i);
                return Some(hi.min(self.max));
            }
        }
        Some(self.max)
    }

    /// `(upper_bound, count)` for every non-empty bucket, in increasing
    /// bound order — the cumulative `le` series is built from these.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .map(|&(i, c)| (Self::bucket_bounds(i).1, c))
    }
}

/// The base unit of a metric family. Histogram families with
/// [`Unit::Seconds`] record nanoseconds internally and scale at
/// exposition; everything else is exposed raw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Unit {
    #[default]
    None,
    Seconds,
    Bytes,
    Tuples,
}

impl Unit {
    /// The OpenMetrics `# UNIT` token (and required family-name suffix);
    /// empty for unitless families.
    pub fn suffix(self) -> &'static str {
        match self {
            Unit::None => "",
            Unit::Seconds => "seconds",
            Unit::Bytes => "bytes",
            Unit::Tuples => "tuples",
        }
    }

    /// Multiplier from recorded values to exposed values.
    fn scale(self) -> f64 {
        match self {
            Unit::Seconds => 1e-9,
            _ => 1.0,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One labeled series' value.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// A label set, kept sorted by label name so series ordering (and the
/// rendered exposition) is deterministic.
pub type Labels = Vec<(String, String)>;

/// One metric family: a kind, help text, unit, and its labeled series.
#[derive(Clone, Debug, PartialEq)]
pub struct Family {
    pub kind: MetricKind,
    pub help: String,
    pub unit: Unit,
    pub series: BTreeMap<Labels, Metric>,
}

/// A set of metric families, keyed by family name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricSet {
    families: BTreeMap<String, Family>,
}

impl MetricSet {
    pub fn new() -> MetricSet {
        MetricSet::default()
    }

    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    fn family_mut(&mut self, name: &str, kind: MetricKind, help: &str, unit: Unit) -> &mut Family {
        debug_assert!(valid_metric_name(name), "bad metric name {name:?}");
        debug_assert!(
            unit == Unit::None || name.ends_with(&format!("_{}", unit.suffix())),
            "family {name:?} must end with its unit suffix"
        );
        let fam = self.families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            unit,
            series: BTreeMap::new(),
        });
        debug_assert!(fam.kind == kind, "family {name:?} re-declared as {kind:?}");
        fam
    }

    /// Add to a counter series (created at zero on first touch).
    pub fn counter(&mut self, name: &str, help: &str, labels: Labels, add: u64) {
        let fam = self.family_mut(name, MetricKind::Counter, help, Unit::None);
        match fam.series.entry(labels).or_insert(Metric::Counter(0)) {
            Metric::Counter(v) => *v = v.saturating_add(add),
            _ => unreachable!("counter family holds counters"),
        }
    }

    /// Set a gauge series.
    pub fn gauge(&mut self, name: &str, help: &str, labels: Labels, value: f64) {
        let fam = self.family_mut(name, MetricKind::Gauge, help, Unit::None);
        fam.series.insert(labels, Metric::Gauge(value));
    }

    /// Record one value into a histogram series.
    pub fn observe(&mut self, name: &str, help: &str, unit: Unit, labels: Labels, value: u64) {
        let fam = self.family_mut(name, MetricKind::Histogram, help, unit);
        match fam
            .series
            .entry(labels)
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.record(value),
            _ => unreachable!("histogram family holds histograms"),
        }
    }

    /// Merge a whole histogram into a series (the barrier path).
    pub fn merge_histogram(
        &mut self,
        name: &str,
        help: &str,
        unit: Unit,
        labels: Labels,
        hist: &Histogram,
    ) {
        let fam = self.family_mut(name, MetricKind::Histogram, help, unit);
        match fam
            .series
            .entry(labels)
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.merge(hist),
            _ => unreachable!("histogram family holds histograms"),
        }
    }

    /// Fold another set into this one: counters add, gauges overwrite,
    /// histograms merge.
    pub fn merge(&mut self, other: &MetricSet) {
        for (name, fam) in &other.families {
            for (labels, metric) in &fam.series {
                match metric {
                    Metric::Counter(v) => self.counter(name, &fam.help, labels.clone(), *v),
                    Metric::Gauge(v) => self.gauge(name, &fam.help, labels.clone(), *v),
                    Metric::Histogram(h) => {
                        self.merge_histogram(name, &fam.help, fam.unit, labels.clone(), h)
                    }
                }
            }
        }
    }

    /// Per-histogram-family percentile summaries, each family merged
    /// across its series (so the "rule fire" block spans all rules, the
    /// "barrier wait" block spans all workers). Sorted by family name.
    pub fn blocks(&self) -> Vec<HistogramBlock> {
        let mut out = Vec::new();
        for (name, fam) in &self.families {
            if fam.kind != MetricKind::Histogram {
                continue;
            }
            let mut merged = Histogram::new();
            for metric in fam.series.values() {
                if let Metric::Histogram(h) = metric {
                    merged.merge(h);
                }
            }
            if merged.is_empty() {
                continue;
            }
            out.push(HistogramBlock {
                metric: name.clone(),
                unit: fam.unit,
                count: merged.count(),
                p50: merged.quantile(0.50).unwrap(),
                p90: merged.quantile(0.90).unwrap(),
                p99: merged.quantile(0.99).unwrap(),
                max: merged.max().unwrap(),
            });
        }
        out
    }

    /// The flattened exposition samples, exactly as
    /// [`Self::render_openmetrics`] emits them (suffixes, `le` labels,
    /// unit scaling applied) — the round-trip tests compare these against
    /// what [`parse_openmetrics`] reads back.
    pub fn samples(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        for (name, fam) in &self.families {
            for (labels, metric) in &fam.series {
                match metric {
                    Metric::Counter(v) => out.push(Sample {
                        name: format!("{name}_total"),
                        labels: labels.clone(),
                        value: *v as f64,
                    }),
                    Metric::Gauge(v) => out.push(Sample {
                        name: name.clone(),
                        labels: labels.clone(),
                        value: *v,
                    }),
                    Metric::Histogram(h) => {
                        let scale = fam.unit.scale();
                        let mut cum = 0u64;
                        for (upper, c) in h.nonzero_buckets() {
                            cum = cum.saturating_add(c);
                            let mut l = labels.clone();
                            l.push(("le".into(), fmt_f64(upper as f64 * scale)));
                            out.push(Sample {
                                name: format!("{name}_bucket"),
                                labels: l,
                                value: cum as f64,
                            });
                        }
                        let mut l = labels.clone();
                        l.push(("le".into(), "+Inf".into()));
                        out.push(Sample {
                            name: format!("{name}_bucket"),
                            labels: l,
                            value: h.count() as f64,
                        });
                        out.push(Sample {
                            name: format!("{name}_count"),
                            labels: labels.clone(),
                            value: h.count() as f64,
                        });
                        out.push(Sample {
                            name: format!("{name}_sum"),
                            labels: labels.clone(),
                            value: h.sum() as f64 * scale,
                        });
                    }
                }
            }
        }
        out
    }

    /// Render the set as OpenMetrics 1.0 text (terminated by `# EOF`).
    pub fn render_openmetrics(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind.name());
            if fam.unit != Unit::None {
                let _ = writeln!(out, "# UNIT {name} {}", fam.unit.suffix());
            }
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&fam.help));
        }
        // Samples family-by-family, in the same order as the metadata —
        // OpenMetrics requires all of a family's lines to be contiguous,
        // so re-walk via `samples()` grouped by family prefix.
        let mut samples = self.samples().into_iter().peekable();
        let mut rendered = String::new();
        for (name, fam) in &self.families {
            let _ = writeln!(rendered, "# TYPE {name} {}", fam.kind.name());
            if fam.unit != Unit::None {
                let _ = writeln!(rendered, "# UNIT {name} {}", fam.unit.suffix());
            }
            let _ = writeln!(rendered, "# HELP {name} {}", escape_help(&fam.help));
            while let Some(s) = samples.peek() {
                if !sample_belongs_to(&s.name, name, fam.kind) {
                    break;
                }
                let s = samples.next().unwrap();
                rendered.push_str(&s.name);
                if !s.labels.is_empty() {
                    rendered.push('{');
                    for (i, (k, v)) in s.labels.iter().enumerate() {
                        if i > 0 {
                            rendered.push(',');
                        }
                        let _ = write!(rendered, "{k}=\"{}\"", escape_label(v));
                    }
                    rendered.push('}');
                }
                let _ = writeln!(rendered, " {}", fmt_f64(s.value));
            }
        }
        rendered.push_str("# EOF\n");
        rendered
    }
}

/// `sample_name` is a legal sample of family `family` of kind `kind`.
fn sample_belongs_to(sample_name: &str, family: &str, kind: MetricKind) -> bool {
    match kind {
        MetricKind::Counter => {
            sample_name.strip_suffix("_total").is_some_and(|b| b == family)
        }
        MetricKind::Gauge => sample_name == family,
        MetricKind::Histogram => ["_bucket", "_count", "_sum"]
            .iter()
            .any(|sfx| sample_name.strip_suffix(sfx).is_some_and(|b| b == family)),
    }
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn valid_label_name(s: &str) -> bool {
    valid_metric_name(s)
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// A p50/p90/p99/max summary of one histogram family (values in the
/// family's *recorded* unit — nanoseconds for [`Unit::Seconds`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramBlock {
    /// The family name (e.g. `maglog_round_duration_seconds`).
    pub metric: String,
    pub unit: Unit,
    pub count: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

/// A cheap shared clock handle: the one clock of
/// [`crate::profile::MetricsSink`], which parallel workers also use to
/// time their shard locally (the metrics analogue of
/// [`crate::events::EventSink::worker_tracer`]).
#[derive(Clone)]
pub struct Meter {
    clock: Arc<dyn Clock + Send + Sync>,
}

impl Meter {
    pub fn system() -> Meter {
        Meter::with_clock(Arc::new(SystemClock::new()))
    }

    pub fn with_clock(clock: Arc<dyn Clock + Send + Sync>) -> Meter {
        Meter { clock }
    }

    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }
}

impl std::fmt::Debug for Meter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Meter")
    }
}

/// One worker's round-local measurements, merged into the orchestrator's
/// sink at the round barrier ([`Event::WorkerSample`]).
#[derive(Clone, Debug, Default)]
pub struct WorkerSample {
    pub worker: usize,
    /// Firing-phase duration by the worker's [`Meter`].
    pub fire_nanos: u64,
    /// Meter reading when the firing phase ended; the orchestrator
    /// derives `wait_nanos` from this and its own barrier-collect
    /// reading.
    pub fire_end_nanos: u64,
    /// Barrier wait: collect time minus `fire_end_nanos` (filled in by
    /// the orchestrator before the sink sees the sample).
    pub wait_nanos: u64,
    /// Worker-local per-rule firing-latency histograms, keyed by program
    /// rule index.
    pub rule_nanos: Vec<(usize, Histogram)>,
}

// ---------------------------------------------------------------------
// OpenMetrics text parsing / validation.

/// One exposition sample line (name, labels in written order, value).
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Labels,
    pub value: f64,
}

/// One parsed metric family with its metadata and samples.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedFamily {
    pub name: String,
    pub kind: String,
    pub unit: Option<String>,
    pub help: Option<String>,
    pub samples: Vec<Sample>,
}

/// A parsed OpenMetrics exposition.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Exposition {
    pub families: Vec<ParsedFamily>,
}

impl Exposition {
    pub fn total_samples(&self) -> usize {
        self.families.iter().map(|f| f.samples.len()).sum()
    }

    /// Every sample in document order.
    pub fn all_samples(&self) -> Vec<Sample> {
        self.families.iter().flat_map(|f| f.samples.clone()).collect()
    }
}

/// Parse and validate OpenMetrics 1.0 text: metadata shape, family
/// contiguity, sample-name suffixes per type, histogram bucket
/// invariants (`le` present and increasing, cumulative counts monotone,
/// `+Inf` == `_count`, `_sum` present), counter non-negativity, label
/// syntax, duplicate-series detection, and the mandatory `# EOF`
/// terminator. Errors carry a 1-based line number.
pub fn parse_openmetrics(text: &str) -> Result<Exposition, String> {
    let mut families: Vec<ParsedFamily> = Vec::new();
    let mut seen_names: std::collections::BTreeSet<String> = Default::default();
    let mut seen_series: std::collections::BTreeSet<String> = Default::default();
    let mut eof = false;
    if text.is_empty() {
        return Err("empty exposition (missing '# EOF')".into());
    }
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".into());
    }
    for (i, line) in text.lines().enumerate() {
        let ln = i + 1;
        if eof {
            return Err(format!("line {ln}: content after '# EOF'"));
        }
        if line == "# EOF" {
            eof = true;
            continue;
        }
        if line.is_empty() {
            return Err(format!("line {ln}: blank line"));
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let (keyword, rest) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {ln}: truncated metadata line"))?;
            match keyword {
                "TYPE" => {
                    let (name, kind) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("line {ln}: TYPE needs a name and a type"))?;
                    if !valid_metric_name(name) {
                        return Err(format!("line {ln}: bad metric name {name:?}"));
                    }
                    if !["counter", "gauge", "histogram"].contains(&kind) {
                        return Err(format!("line {ln}: unsupported metric type {kind:?}"));
                    }
                    if !seen_names.insert(name.to_string()) {
                        return Err(format!("line {ln}: family {name:?} declared twice"));
                    }
                    if let Some(prev) = families.last() {
                        check_family(prev)?;
                    }
                    families.push(ParsedFamily {
                        name: name.to_string(),
                        kind: kind.to_string(),
                        unit: None,
                        help: None,
                        samples: Vec::new(),
                    });
                }
                "UNIT" => {
                    let (name, unit) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("line {ln}: UNIT needs a name and a unit"))?;
                    let fam = families
                        .last_mut()
                        .filter(|f| f.name == name)
                        .ok_or_else(|| format!("line {ln}: UNIT outside its family"))?;
                    if !fam.samples.is_empty() {
                        return Err(format!("line {ln}: metadata after samples"));
                    }
                    if !name.ends_with(&format!("_{unit}")) {
                        return Err(format!(
                            "line {ln}: family {name:?} does not end with unit {unit:?}"
                        ));
                    }
                    fam.unit = Some(unit.to_string());
                }
                "HELP" => {
                    let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
                    let fam = families
                        .last_mut()
                        .filter(|f| f.name == name)
                        .ok_or_else(|| format!("line {ln}: HELP outside its family"))?;
                    if !fam.samples.is_empty() {
                        return Err(format!("line {ln}: metadata after samples"));
                    }
                    fam.help = Some(unescape_help(help));
                }
                _ => return Err(format!("line {ln}: unknown metadata keyword {keyword:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {ln}: arbitrary comments are not OpenMetrics"));
        }
        // A sample line.
        let sample = parse_sample_line(line).map_err(|e| format!("line {ln}: {e}"))?;
        let fam = families
            .last_mut()
            .ok_or_else(|| format!("line {ln}: sample before any TYPE line"))?;
        let kind = match fam.kind.as_str() {
            "counter" => MetricKind::Counter,
            "gauge" => MetricKind::Gauge,
            _ => MetricKind::Histogram,
        };
        if !sample_belongs_to(&sample.name, &fam.name, kind) {
            return Err(format!(
                "line {ln}: sample {:?} does not belong to {} family {:?}",
                sample.name, fam.kind, fam.name
            ));
        }
        if kind == MetricKind::Counter && !(sample.value.is_finite() && sample.value >= 0.0) {
            return Err(format!("line {ln}: counter value must be finite and >= 0"));
        }
        if !sample.value.is_finite() {
            return Err(format!("line {ln}: non-finite sample value"));
        }
        let series_key = format!("{} {:?}", sample.name, sample.labels);
        if !seen_series.insert(series_key) {
            return Err(format!("line {ln}: duplicate series for {:?}", sample.name));
        }
        fam.samples.push(sample);
    }
    if !eof {
        return Err("missing '# EOF' terminator".into());
    }
    if let Some(prev) = families.last() {
        check_family(prev)?;
    }
    Ok(Exposition { families })
}

/// One histogram series under validation: `(le, count)` buckets plus
/// whether the `_count` / `_sum` samples arrived.
type SeriesChecks = (Vec<(f64, f64)>, Option<f64>, bool);

/// Per-family structural checks run when the family closes.
fn check_family(fam: &ParsedFamily) -> Result<(), String> {
    if fam.kind != "histogram" {
        return Ok(());
    }
    // Group the histogram's samples per label set (minus `le`).
    let mut groups: BTreeMap<String, SeriesChecks> = BTreeMap::new();
    for s in &fam.samples {
        let base: Labels = s
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .cloned()
            .collect();
        let key = format!("{base:?}");
        let entry = groups.entry(key).or_default();
        if s.name.ends_with("_bucket") {
            let le = s
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| format!("{}: bucket sample without le label", fam.name))?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse::<f64>()
                    .map_err(|_| format!("{}: unparseable le {le:?}", fam.name))?
            };
            entry.0.push((bound, s.value));
        } else if s.name.ends_with("_count") {
            entry.1 = Some(s.value);
        } else if s.name.ends_with("_sum") {
            entry.2 = true;
        }
    }
    for (labels, (buckets, count, has_sum)) in groups {
        if buckets.is_empty() {
            return Err(format!("{} {labels}: histogram series without buckets", fam.name));
        }
        for w in buckets.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!("{} {labels}: le bounds not increasing", fam.name));
            }
            if w[1].1 < w[0].1 {
                return Err(format!("{} {labels}: bucket counts not cumulative", fam.name));
            }
        }
        let last = buckets.last().unwrap();
        if last.0 != f64::INFINITY {
            return Err(format!("{} {labels}: missing le=\"+Inf\" bucket", fam.name));
        }
        let count =
            count.ok_or_else(|| format!("{} {labels}: missing _count sample", fam.name))?;
        if count != last.1 {
            return Err(format!(
                "{} {labels}: _count ({count}) != +Inf bucket ({})",
                fam.name, last.1
            ));
        }
        if !has_sum {
            return Err(format!("{} {labels}: missing _sum sample", fam.name));
        }
    }
    Ok(())
}

fn parse_sample_line(line: &str) -> Result<Sample, String> {
    let bytes = line.as_bytes();
    let mut pos = 0;
    while pos < bytes.len() && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_') {
        pos += 1;
    }
    let name = &line[..pos];
    if !valid_metric_name(name) {
        return Err(format!("bad sample name {name:?}"));
    }
    let mut labels: Labels = Vec::new();
    if bytes.get(pos) == Some(&b'{') {
        pos += 1;
        let mut seen: Vec<String> = Vec::new();
        loop {
            let lstart = pos;
            while pos < bytes.len() && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_') {
                pos += 1;
            }
            let lname = &line[lstart..pos];
            if !valid_label_name(lname) {
                return Err(format!("bad label name {lname:?}"));
            }
            if seen.contains(&lname.to_string()) {
                return Err(format!("duplicate label {lname:?}"));
            }
            seen.push(lname.to_string());
            if bytes.get(pos) != Some(&b'=') || bytes.get(pos + 1) != Some(&b'"') {
                return Err("expected ==\"...\" after label name".into());
            }
            pos += 2;
            let mut value = String::new();
            loop {
                match bytes.get(pos) {
                    None => return Err("unterminated label value".into()),
                    Some(b'"') => {
                        pos += 1;
                        break;
                    }
                    Some(b'\\') => {
                        match bytes.get(pos + 1) {
                            Some(b'\\') => value.push('\\'),
                            Some(b'"') => value.push('"'),
                            Some(b'n') => value.push('\n'),
                            _ => return Err("bad escape in label value".into()),
                        }
                        pos += 2;
                    }
                    Some(_) => {
                        let c = line[pos..].chars().next().unwrap();
                        value.push(c);
                        pos += c.len_utf8();
                    }
                }
            }
            labels.push((lname.to_string(), value));
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {
                    pos += 1;
                    break;
                }
                _ => return Err("expected ',' or '}' in label set".into()),
            }
        }
    }
    if bytes.get(pos) != Some(&b' ') {
        return Err("expected space before sample value".into());
    }
    let rest = &line[pos + 1..];
    // A trailing timestamp is legal OpenMetrics; we never emit one, but
    // accept (and ignore) it so the validator stays spec-shaped.
    let (value_text, _ts) = match rest.split_once(' ') {
        Some((v, ts)) if ts.parse::<f64>().is_ok() => (v, Some(ts)),
        Some(_) => return Err("trailing content after sample value".into()),
        None => (rest, None),
    };
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {v:?}"))?,
    };
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn unescape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_n_matches_repeated_record() {
        let mut one = Histogram::new();
        let mut bulk = Histogram::new();
        for (v, n) in [(0u64, 3u64), (7, 1), (100, 5), (1 << 40, 2)] {
            for _ in 0..n {
                one.record(v);
            }
            bulk.record_n(v, n);
        }
        bulk.record_n(999, 0); // no-op, must not disturb extrema
        assert_eq!(one, bulk);
        assert_eq!(bulk.count(), 11);
        assert_eq!(bulk.min(), Some(0));
        assert_eq!(bulk.max(), Some(1 << 40));
    }

    #[test]
    fn bucket_index_is_continuous_and_inverts() {
        // Exact below 32, then log-linear; bounds invert the index.
        for v in 0..4096u64 {
            let i = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} i={i} lo={lo} hi={hi}");
        }
        for v in [u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) + 12345] {
            let i = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo <= v && v <= hi);
        }
        // Indices are monotone in the value.
        let mut prev = 0;
        for v in 0..100_000u64 {
            let i = Histogram::bucket_index(v);
            assert!(i >= prev);
            prev = i;
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), MAX_BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_exact_extrema() {
        let mut h = Histogram::new();
        for v in [3u64, 500, 10_000, 123_456_789] {
            h.record(v);
        }
        assert_eq!(h.min(), Some(3));
        assert_eq!(h.max(), Some(123_456_789));
        assert_eq!(h.quantile(1.0), Some(123_456_789));
        assert_eq!(h.quantile(0.0), Some(3));
        assert!(h.quantile(0.5).unwrap() >= 3);
    }

    #[test]
    fn merge_is_lossless() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..1000u64 {
            let target = if v % 2 == 0 { &mut a } else { &mut b };
            target.record(v * v);
            all.record(v * v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn empty_histogram_renders_and_counts() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), None);
        let mut set = MetricSet::new();
        set.merge_histogram(
            "maglog_round_duration_seconds",
            "help",
            Unit::Seconds,
            vec![],
            &h,
        );
        let text = set.render_openmetrics();
        // An empty histogram still exposes a valid +Inf bucket at zero.
        assert!(text.contains("le=\"+Inf\"} 0"), "{text}");
        let exp = parse_openmetrics(&text).unwrap();
        assert_eq!(exp.total_samples(), 3);
    }

    #[test]
    fn openmetrics_round_trips_through_the_parser() {
        let mut set = MetricSet::new();
        let labels = vec![("strategy".to_string(), "seminaive".to_string())];
        set.counter("maglog_firings", "Rule firings.", labels.clone(), 42);
        set.gauge("maglog_heap_peak_bytes", "Peak heap.", labels.clone(), 123456.0);
        let mut h = Histogram::new();
        for v in [100u64, 1_000, 10_000, 1_000_000, 123] {
            h.record(v);
        }
        set.merge_histogram(
            "maglog_round_duration_seconds",
            "Round durations.",
            Unit::Seconds,
            labels,
            &h,
        );
        let text = set.render_openmetrics();
        let exp = parse_openmetrics(&text).expect(&text);
        assert_eq!(exp.all_samples(), set.samples());
        assert_eq!(exp.families.len(), 3);
    }

    #[test]
    fn parser_rejects_malformed_expositions() {
        // No EOF.
        assert!(parse_openmetrics("# TYPE a counter\na_total 1\n").is_err());
        // Content after EOF.
        assert!(parse_openmetrics("# EOF\na_total 1\n").is_err());
        // Counter sample without _total.
        assert!(parse_openmetrics("# TYPE a counter\na 1\n# EOF\n").is_err());
        // Negative counter.
        assert!(parse_openmetrics("# TYPE a counter\na_total -1\n# EOF\n").is_err());
        // Histogram without +Inf.
        assert!(parse_openmetrics(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\nh_sum 1\n# EOF\n"
        )
        .is_err());
        // Non-cumulative buckets.
        assert!(parse_openmetrics(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_count 1\nh_sum 1\n# EOF\n"
        )
        .is_err());
        // _count mismatch.
        assert!(parse_openmetrics(
            "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 3\nh_sum 1\n# EOF\n"
        )
        .is_err());
        // Duplicate series.
        assert!(parse_openmetrics("# TYPE g gauge\ng 1\ng 2\n# EOF\n").is_err());
        // Interleaved family.
        assert!(parse_openmetrics(
            "# TYPE a counter\n# TYPE b counter\n# TYPE a counter\n# EOF\n"
        )
        .is_err());
        // Sample before TYPE.
        assert!(parse_openmetrics("x 1\n# EOF\n").is_err());
    }

    #[test]
    fn parser_accepts_escapes_and_timestamps() {
        let text = "# TYPE g gauge\n# HELP g a\\nb\ng{p=\"x\\\"y\\\\z\"} 1.5 1234.5\n# EOF\n";
        let exp = parse_openmetrics(text).unwrap();
        assert_eq!(exp.families[0].help.as_deref(), Some("a\nb"));
        assert_eq!(exp.families[0].samples[0].labels[0].1, "x\"y\\z");
    }

    #[test]
    fn blocks_merge_series_within_a_family() {
        let mut set = MetricSet::new();
        let mut a = Histogram::new();
        a.record(10);
        let mut b = Histogram::new();
        b.record(1_000_000);
        set.merge_histogram("f_seconds", "h", Unit::Seconds, vec![("w".into(), "0".into())], &a);
        set.merge_histogram("f_seconds", "h", Unit::Seconds, vec![("w".into(), "1".into())], &b);
        let blocks = set.blocks();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].count, 2);
        assert_eq!(blocks[0].max, 1_000_000);
    }
}
