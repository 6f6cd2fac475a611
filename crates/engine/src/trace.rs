//! Span-based execution tracing with Chrome trace-event export.
//!
//! Where [`crate::profile`] aggregates counters (totals per rule, per
//! round), this module records a *timeline*: begin/end span events per
//! phase, component, round, and rule firing — and, under `--parallel`,
//! per-worker fire / barrier-wait / merge spans — plus allocator and
//! delta-size counter tracks sampled at round boundaries. The result
//! renders as Chrome trace-event JSON (`maglog-trace-v1`) loadable in
//! Perfetto or `chrome://tracing`, with one lane per worker thread.
//!
//! Three pieces:
//!
//! - [`Tracer`]: a cheaply-clonable, thread-safe handle over a bounded
//!   event buffer and an injectable [`Clock`], held as a [`Meter`]; the cap
//!   plus an `events_dropped` footer count means tracing a 10⁵-round
//!   workload degrades instead of OOMing.
//! - [`SpanSink`]: an [`EventSink`] that converts evaluator events into
//!   spans, resolving interned ids against `&Program` once per name. The
//!   worker lanes are drawn from each sharded round's barrier record
//!   ([`Event::ParallelRound`]), whose readings the shards took on the
//!   tracer's meter.
//! - [`validate_chrome_trace`]: the structural validator the tests and
//!   the `maglog trace-validate` subcommand share — per-lane B/E
//!   balance, per-lane monotone timestamps, named lanes, and the
//!   presence of the allocator counter track.
//!
//! Tracing is strictly opt-in: no evaluator path constructs a `Tracer`
//! unless `--trace` is given, and [`EventSink::worker_meter`] defaults
//! to `None`, so the zero-cost-when-off property from the `EventSink`
//! layer extends to every hook point added here.

use crate::alloc;
use crate::events::{Clock, Event, EventSink, SystemClock};
use crate::jsonish::{self, json_escape, JsonValue};
use crate::metrics::{BarrierReadings, Meter};
use maglog_datalog::Program;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Schema tag written into the trace footer.
pub const TRACE_SCHEMA: &str = "maglog-trace-v1";

/// Default event-buffer cap. At ~48 bytes per event this bounds the
/// buffer around 50 MB; past it events are counted in `events_dropped`
/// rather than stored.
pub const DEFAULT_EVENT_CAP: usize = 1_000_000;

/// Lane 0 is the orchestrating thread; parallel worker `w` is lane
/// `w + 1`.
pub const MAIN_LANE: u32 = 0;

/// Chrome trace-event phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ph {
    /// `"B"`: a duration span begins.
    Begin,
    /// `"E"`: the innermost open span on the lane ends.
    End,
    /// `"C"`: a counter sample.
    Counter,
}

impl Ph {
    fn as_str(self) -> &'static str {
        match self {
            Ph::Begin => "B",
            Ph::End => "E",
            Ph::Counter => "C",
        }
    }
}

/// An event name: either a static label or an index into the tracer's
/// intern table (rule text, component labels).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NameRef {
    Static(&'static str),
    Interned(u32),
}

/// One buffered event. Timestamps are clock nanoseconds; rendering
/// converts to the microseconds Chrome's `ts` field expects.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    pub lane: u32,
    pub ph: Ph,
    pub ts: u64,
    pub cat: &'static str,
    pub name: NameRef,
    /// `(series, value)` pairs: counter payloads, and optional numeric
    /// annotations on `B` events (round number, firing counts).
    pub args: Vec<(&'static str, u64)>,
}

/// A span with a resolved name and duration, as reported by
/// [`Tracer::top_spans`].
#[derive(Clone, Debug)]
pub struct SpanStat {
    pub name: String,
    pub lane: u32,
    pub nanos: u64,
}

struct Buffer {
    events: Vec<TraceEvent>,
    names: Vec<String>,
    name_ids: HashMap<String, u32>,
    dropped: u64,
    cap: usize,
}

struct Inner {
    meter: Meter,
    buf: Mutex<Buffer>,
}

/// Thread-safe handle over the bounded trace buffer. Clones share the
/// same buffer and clock, so the parallel orchestrator can hand one to
/// each worker lane.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let buf = self.inner.buf.lock().unwrap();
        f.debug_struct("Tracer")
            .field("events", &buf.events.len())
            .field("dropped", &buf.dropped)
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer over the wall clock with the default event cap.
    pub fn new() -> Tracer {
        Tracer::with_clock(Box::new(SystemClock::new()))
    }

    /// A tracer over an injected clock ([`crate::events::ManualClock`]
    /// makes golden tests deterministic).
    pub fn with_clock(clock: Box<dyn Clock + Send + Sync>) -> Tracer {
        Tracer::with_clock_and_cap(clock, DEFAULT_EVENT_CAP)
    }

    pub fn with_clock_and_cap(clock: Box<dyn Clock + Send + Sync>, cap: usize) -> Tracer {
        Tracer {
            inner: Arc::new(Inner {
                meter: Meter::with_clock(Arc::from(clock)),
                buf: Mutex::new(Buffer {
                    events: Vec::new(),
                    names: Vec::new(),
                    name_ids: HashMap::new(),
                    dropped: 0,
                    cap,
                }),
            }),
        }
    }

    /// Current clock reading in nanoseconds.
    pub fn now(&self) -> u64 {
        self.inner.meter.now_nanos()
    }

    /// Intern `name`, returning a stable reference for repeated spans.
    pub fn intern(&self, name: &str) -> NameRef {
        let mut buf = self.inner.buf.lock().unwrap();
        if let Some(&id) = buf.name_ids.get(name) {
            return NameRef::Interned(id);
        }
        let id = buf.names.len() as u32;
        buf.names.push(name.to_string());
        buf.name_ids.insert(name.to_string(), id);
        NameRef::Interned(id)
    }

    /// Append an event at an explicit timestamp (used for spans measured
    /// on worker threads and reported retroactively at the barrier).
    pub fn push_at(
        &self,
        ts: u64,
        lane: u32,
        ph: Ph,
        cat: &'static str,
        name: NameRef,
        args: Vec<(&'static str, u64)>,
    ) {
        let mut buf = self.inner.buf.lock().unwrap();
        if buf.events.len() >= buf.cap {
            buf.dropped += 1;
            return;
        }
        buf.events.push(TraceEvent {
            lane,
            ph,
            ts,
            cat,
            name,
            args,
        });
    }

    /// Open a span on `lane` at the current clock reading.
    pub fn begin(&self, lane: u32, cat: &'static str, name: NameRef) {
        self.push_at(self.now(), lane, Ph::Begin, cat, name, Vec::new());
    }

    /// Close the innermost open span on `lane`.
    pub fn end(&self, lane: u32, cat: &'static str, name: NameRef) {
        self.push_at(self.now(), lane, Ph::End, cat, name, Vec::new());
    }

    /// Record a counter sample on `lane` at the current clock reading.
    pub fn counter(&self, lane: u32, name: NameRef, args: Vec<(&'static str, u64)>) {
        self.push_at(self.now(), lane, Ph::Counter, "counter", name, args);
    }

    /// Record worker `w`'s round on its own lane: a `fire` span over its
    /// firing phase and a `barrier-wait` span from its last firing to the
    /// barrier collect. [`SpanSink`] calls it in worker order, so parallel
    /// traces are push-order deterministic.
    pub fn worker_round_spans(&self, worker: usize, readings: BarrierReadings) {
        let lane = worker as u32 + 1;
        let (start, end) = (readings.fire_start, readings.fire_end);
        self.push_at(start, lane, Ph::Begin, "worker", NameRef::Static("fire"), Vec::new());
        self.push_at(end, lane, Ph::End, "worker", NameRef::Static("fire"), Vec::new());
        let wait_end = readings.collect.max(end);
        self.push_at(
            end,
            lane,
            Ph::Begin,
            "worker",
            NameRef::Static("barrier-wait"),
            Vec::new(),
        );
        self.push_at(
            wait_end,
            lane,
            Ph::End,
            "worker",
            NameRef::Static("barrier-wait"),
            Vec::new(),
        );
    }

    /// Number of events currently buffered.
    pub fn events_recorded(&self) -> usize {
        self.inner.buf.lock().unwrap().events.len()
    }

    /// Number of events discarded after the buffer hit its cap.
    pub fn events_dropped(&self) -> u64 {
        self.inner.buf.lock().unwrap().dropped
    }

    fn resolve(names: &[String], name: NameRef) -> String {
        match name {
            NameRef::Static(s) => s.to_string(),
            NameRef::Interned(id) => names
                .get(id as usize)
                .cloned()
                .unwrap_or_else(|| format!("?name{id}")),
        }
    }

    /// The `k` widest completed spans (matched `B`/`E` pairs, any lane),
    /// widest first; ties broken by earlier start, then lane.
    pub fn top_spans(&self, k: usize) -> Vec<SpanStat> {
        let buf = self.inner.buf.lock().unwrap();
        let mut events: Vec<&TraceEvent> = buf.events.iter().collect();
        events.sort_by_key(|e| e.ts);
        let mut stacks: HashMap<u32, Vec<(NameRef, u64)>> = HashMap::new();
        let mut spans: Vec<SpanStat> = Vec::new();
        for e in events {
            match e.ph {
                Ph::Begin => stacks.entry(e.lane).or_default().push((e.name, e.ts)),
                Ph::End => {
                    if let Some((name, start)) = stacks.entry(e.lane).or_default().pop() {
                        spans.push(SpanStat {
                            name: Tracer::resolve(&buf.names, name),
                            lane: e.lane,
                            nanos: e.ts.saturating_sub(start),
                        });
                    }
                }
                Ph::Counter => {}
            }
        }
        spans.sort_by(|a, b| {
            b.nanos
                .cmp(&a.nanos)
                .then_with(|| a.lane.cmp(&b.lane))
                .then_with(|| a.name.cmp(&b.name))
        });
        spans.truncate(k);
        spans
    }

    /// Render the buffer as Chrome trace-event JSON (`maglog-trace-v1`).
    ///
    /// Events are stably sorted by timestamp (equal timestamps keep push
    /// order, which preserves nesting), `ts` is emitted in microseconds,
    /// every lane gets a `thread_name` meta event, and the footer
    /// records the schema, `program` label, and drop count. Spans still
    /// open at render time (an evaluation aborted by an error) are
    /// closed at the final timestamp so the document always balances.
    pub fn render_chrome_json(&self, program: &str) -> String {
        let buf = self.inner.buf.lock().unwrap();
        let mut order: Vec<usize> = (0..buf.events.len()).collect();
        order.sort_by_key(|&i| buf.events[i].ts);
        let mut lanes: Vec<u32> = buf.events.iter().map(|e| e.lane).collect();
        lanes.push(MAIN_LANE);
        lanes.sort_unstable();
        lanes.dedup();
        let max_ts = buf.events.iter().map(|e| e.ts).max().unwrap_or(0);
        let mut open: HashMap<u32, Vec<(&'static str, NameRef)>> = HashMap::new();

        let mut out = String::new();
        out.push_str("{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n");
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"maglog\"}}");
        for &lane in &lanes {
            let label = if lane == MAIN_LANE {
                "main".to_string()
            } else {
                format!("worker {}", lane - 1)
            };
            out.push_str(&format!(
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"args\":{{\"name\":\"{}\"}}}}",
                json_escape(&label)
            ));
        }
        let close = |out: &mut String, cat: &str, name: NameRef, lane: u32, ts: u64| {
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":{:.3}}}",
                json_escape(&Tracer::resolve(&buf.names, name)),
                cat,
                lane,
                ts as f64 / 1000.0
            ));
        };
        for &i in &order {
            let e = &buf.events[i];
            let stack = open.entry(e.lane).or_default();
            match e.ph {
                Ph::Begin => stack.push((e.cat, e.name)),
                Ph::End => {
                    // An aborted evaluation can leave inner spans (round,
                    // component) open when an outer phase span closes;
                    // close the children first so the document nests.
                    if let Some(depth) = stack.iter().rposition(|&(_, n)| n == e.name) {
                        while stack.len() > depth + 1 {
                            let (cat, name) = stack.pop().unwrap();
                            close(&mut out, cat, name, e.lane, e.ts);
                        }
                        stack.pop();
                    }
                }
                Ph::Counter => {}
            }
            let name = Tracer::resolve(&buf.names, e.name);
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3}",
                json_escape(&name),
                e.cat,
                e.ph.as_str(),
                e.lane,
                e.ts as f64 / 1000.0
            ));
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in e.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{k}\":{v}"));
                }
                out.push('}');
            }
            out.push('}');
        }
        for &lane in &lanes {
            let mut stack = open.remove(&lane).unwrap_or_default();
            while let Some((cat, name)) = stack.pop() {
                close(&mut out, cat, name, lane, max_ts);
            }
        }
        out.push_str(&format!(
            "\n],\n\"otherData\": {{\"schema\": \"{TRACE_SCHEMA}\", \"program\": \"{}\", \"events_recorded\": {}, \"events_dropped\": {}}}\n}}\n",
            json_escape(program),
            buf.events.len(),
            buf.dropped
        ));
        out
    }
}

/// An [`EventSink`] that records evaluator events as spans in a
/// [`Tracer`]. Component and rule names are resolved against the
/// program once and interned; per-round heap and delta counters are
/// sampled at [`Event::RoundEnd`].
pub struct SpanSink<'p> {
    program: &'p Program,
    tracer: Tracer,
    rule_names: HashMap<usize, NameRef>,
    open_components: Vec<NameRef>,
}

impl<'p> SpanSink<'p> {
    pub fn new(program: &'p Program, tracer: Tracer) -> SpanSink<'p> {
        SpanSink {
            program,
            tracer,
            rule_names: HashMap::new(),
            open_components: Vec::new(),
        }
    }

    /// The shared tracer handle (for rendering after evaluation).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn rule_name(&mut self, rule: usize) -> NameRef {
        if let Some(&name) = self.rule_names.get(&rule) {
            return name;
        }
        let text = self
            .program
            .rules
            .get(rule)
            .map(|r| self.program.display_rule(r))
            .unwrap_or_else(|| format!("rule {rule}"));
        let mut label = format!("r{rule} {text}");
        if label.chars().count() > 64 {
            label = label.chars().take(63).collect::<String>() + "…";
        }
        let name = self.tracer.intern(&label);
        self.rule_names.insert(rule, name);
        name
    }
}

impl EventSink for SpanSink<'_> {
    fn on(&mut self, event: &Event<'_>) {
        match *event {
            Event::ComponentStart {
                component,
                strategy,
                cdb,
            } => {
                let preds: Vec<String> = cdb.iter().map(|p| self.program.pred_name(*p)).collect();
                let label = format!(
                    "component {component} [{}] {}",
                    strategy.name(),
                    preds.join(",")
                );
                let name = self.tracer.intern(&label);
                self.open_components.push(name);
                self.tracer.begin(MAIN_LANE, "component", name);
            }
            Event::RoundStart { round, full } => {
                let args = vec![("round", round as u64), ("full", full as u64)];
                let now = self.tracer.now();
                let name = NameRef::Static("round");
                self.tracer
                    .push_at(now, MAIN_LANE, Ph::Begin, "round", name, args);
            }
            Event::FireStart { rule } => {
                let name = self.rule_name(rule);
                self.tracer.begin(MAIN_LANE, "rule", name);
            }
            Event::FireEnd { rule } => {
                let name = self.rule_name(rule);
                self.tracer.end(MAIN_LANE, "rule", name);
            }
            Event::RoundEnd {
                derivations,
                changed,
                ..
            } => {
                self.tracer
                    .end(MAIN_LANE, "round", NameRef::Static("round"));
                self.tracer.counter(
                    MAIN_LANE,
                    NameRef::Static("heap"),
                    vec![
                        ("live", alloc::current_bytes() as u64),
                        ("peak", alloc::peak_bytes() as u64),
                    ],
                );
                self.tracer.counter(
                    MAIN_LANE,
                    NameRef::Static("delta"),
                    vec![("derived", derivations as u64), ("changed", changed as u64)],
                );
            }
            Event::ComponentEnd { .. } => {
                if let Some(name) = self.open_components.pop() {
                    self.tracer.end(MAIN_LANE, "component", name);
                }
            }
            // One lane per worker in shard order, then the shard merge on
            // the main lane, from the barrier collect to this event.
            Event::ParallelRound { samples, .. } => {
                for s in samples {
                    if let Some(r) = s.readings {
                        self.tracer.worker_round_spans(s.worker, r);
                    }
                }
                if let Some(r) = samples.last().and_then(|s| s.readings) {
                    let t = &self.tracer;
                    let merge = NameRef::Static("merge");
                    t.push_at(r.collect, MAIN_LANE, Ph::Begin, "worker", merge, Vec::new());
                    t.end(MAIN_LANE, "worker", merge);
                }
            }
            _ => {}
        }
    }

    /// The shards read the tracer's own clock, so the worker lanes line
    /// up with the main lane.
    fn worker_meter(&self) -> Option<Meter> {
        Some(self.tracer.inner.meter.clone())
    }
}

/// Summary returned by [`validate_chrome_trace`].
#[derive(Clone, Debug, Default)]
pub struct TraceCheck {
    pub events: usize,
    pub lanes: usize,
    pub dropped: u64,
    pub heap_samples: usize,
}

fn ev_str<'a>(e: &'a JsonValue, key: &str, i: usize) -> Result<&'a str, String> {
    e.get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("event {i}: missing string field `{key}`"))
}

/// Structurally validate a `maglog-trace-v1` document: parseable JSON,
/// schema tag, per-lane balanced `B`/`E` with matching names (only
/// enforced when `events_dropped == 0`), per-lane monotone timestamps,
/// a `thread_name` meta event for every lane, and at least one `heap`
/// counter sample. Shared by the test suite and `maglog trace-validate`.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = jsonish::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let other = doc
        .get("otherData")
        .ok_or_else(|| "missing `otherData` footer".to_string())?;
    let schema = other
        .get("schema")
        .and_then(|v| v.as_str())
        .ok_or_else(|| "footer has no `schema`".to_string())?;
    if schema != TRACE_SCHEMA {
        return Err(format!("schema is `{schema}`, want `{TRACE_SCHEMA}`"));
    }
    let dropped = other
        .get("events_dropped")
        .and_then(|v| v.as_f64())
        .ok_or_else(|| "footer has no `events_dropped`".to_string())? as u64;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| "missing `traceEvents` array".to_string())?;

    let mut lane_names: HashMap<i64, String> = HashMap::new();
    let mut stacks: HashMap<i64, Vec<String>> = HashMap::new();
    let mut last_ts: HashMap<i64, f64> = HashMap::new();
    let mut check = TraceCheck {
        dropped,
        ..TraceCheck::default()
    };

    for (i, e) in events.iter().enumerate() {
        let ph = ev_str(e, "ph", i)?;
        let name = ev_str(e, "name", i)?.to_string();
        let tid = e.get("tid").and_then(|v| v.as_f64()).unwrap_or(0.0) as i64;
        if ph == "M" {
            if name == "thread_name" {
                let label = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| format!("event {i}: thread_name meta without a name"))?;
                lane_names.insert(tid, label.to_string());
            }
            continue;
        }
        check.events += 1;
        let ts = e
            .get("ts")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i}: missing `ts`"))?;
        if let Some(&prev) = last_ts.get(&tid) {
            if ts < prev {
                return Err(format!(
                    "event {i}: lane {tid} timestamp regresses ({ts} < {prev})"
                ));
            }
        }
        last_ts.insert(tid, ts);
        if !lane_names.contains_key(&tid) {
            return Err(format!("event {i}: lane {tid} has no thread_name meta event"));
        }
        match ph {
            "B" => stacks.entry(tid).or_default().push(name),
            "E" => {
                let top = stacks.entry(tid).or_default().pop();
                match top {
                    Some(open) if open == name => {}
                    Some(open) => {
                        return Err(format!(
                            "event {i}: lane {tid} closes `{name}` but `{open}` is open"
                        ))
                    }
                    None if dropped == 0 => {
                        return Err(format!(
                            "event {i}: lane {tid} closes `{name}` with no open span"
                        ))
                    }
                    None => {}
                }
            }
            "C" => {
                if name == "heap" {
                    check.heap_samples += 1;
                }
            }
            "X" => {}
            other => return Err(format!("event {i}: unknown phase `{other}`")),
        }
    }
    if dropped == 0 {
        for (tid, stack) in &stacks {
            if let Some(open) = stack.last() {
                return Err(format!("lane {tid}: span `{open}` never ends"));
            }
        }
    }
    if check.heap_samples == 0 {
        return Err("no `heap` counter samples (allocator track missing)".to_string());
    }
    check.lanes = lane_names.len();
    Ok(check)
}

/// Render a `maglog-trace-v1` document to collapsed-stack format — one
/// line per distinct span path with its summed *self* time in
/// nanoseconds, `lane;span;span… <ns>` — the text format flame-graph
/// tools (inferno, speedscope) load directly. Lanes become root frames
/// (`main`, `worker 0`, …) so a multi-worker trace folds into one graph
/// without timestamp collisions. Counter and meta events carry no
/// duration and are skipped.
///
/// The document is checked with [`validate_chrome_trace`] first, so
/// `trace-flame` and `trace-validate` accept exactly the same inputs.
pub fn render_collapsed_stacks(text: &str) -> Result<String, String> {
    validate_chrome_trace(text)?;
    let doc = jsonish::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| "missing `traceEvents` array".to_string())?;

    // Frame names join with `;`, so a `;` inside a name would split the
    // path; the collapsed format has no escape, the convention is to
    // substitute.
    let clean = |name: &str| name.replace(';', ",");

    struct Frame {
        name: String,
        start: f64,
        /// Microseconds consumed by already-closed children.
        child: f64,
    }
    let mut lane_names: HashMap<i64, String> = HashMap::new();
    let mut stacks: HashMap<i64, Vec<Frame>> = HashMap::new();
    let mut self_us: BTreeMap<String, f64> = BTreeMap::new();

    for e in events {
        let ph = e.get("ph").and_then(|v| v.as_str()).unwrap_or("");
        let name = e.get("name").and_then(|v| v.as_str()).unwrap_or("");
        let tid = e.get("tid").and_then(|v| v.as_f64()).unwrap_or(0.0) as i64;
        let ts = e.get("ts").and_then(|v| v.as_f64()).unwrap_or(0.0);
        match ph {
            "M" if name == "thread_name" => {
                if let Some(label) = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                {
                    lane_names.insert(tid, clean(label));
                }
            }
            "B" => stacks.entry(tid).or_default().push(Frame {
                name: clean(name),
                start: ts,
                child: 0.0,
            }),
            "E" => {
                // The validator already guaranteed balance and name
                // agreement; an unmatched E can only follow drops.
                let stack = stacks.entry(tid).or_default();
                let Some(frame) = stack.pop() else { continue };
                let dur = (ts - frame.start).max(0.0);
                if let Some(parent) = stack.last_mut() {
                    parent.child += dur;
                }
                let mut path = lane_names
                    .get(&tid)
                    .cloned()
                    .unwrap_or_else(|| format!("lane {tid}"));
                for f in stack.iter() {
                    path.push(';');
                    path.push_str(&f.name);
                }
                path.push(';');
                path.push_str(&frame.name);
                *self_us.entry(path).or_insert(0.0) += (dur - frame.child).max(0.0);
            }
            _ => {}
        }
    }

    let mut out = String::new();
    for (path, us) in &self_us {
        // `ts` is µs at nanosecond precision (3 decimals), so this
        // round-trips the original integer nanoseconds exactly.
        out.push_str(&format!("{path} {}\n", (us * 1000.0).round() as u64));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::ManualClock;

    fn manual_tracer(step: u64) -> Tracer {
        Tracer::with_clock(Box::new(ManualClock::with_step(step)))
    }

    #[test]
    fn spans_render_and_validate() {
        let t = manual_tracer(1);
        t.begin(MAIN_LANE, "phase", NameRef::Static("eval"));
        let name = t.intern("component 0 [seminaive] p");
        t.begin(MAIN_LANE, "component", name);
        t.counter(
            MAIN_LANE,
            NameRef::Static("heap"),
            vec![("live", 0), ("peak", 0)],
        );
        t.end(MAIN_LANE, "component", name);
        t.end(MAIN_LANE, "phase", NameRef::Static("eval"));
        let json = t.render_chrome_json("unit");
        let check = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(check.events, 5);
        assert_eq!(check.lanes, 1);
        assert_eq!(check.dropped, 0);
        assert_eq!(check.heap_samples, 1);
    }

    #[test]
    fn worker_spans_get_their_own_named_lane() {
        let t = manual_tracer(1);
        t.counter(
            MAIN_LANE,
            NameRef::Static("heap"),
            vec![("live", 0), ("peak", 0)],
        );
        let at = |fire_start, fire_end| BarrierReadings {
            fire_start,
            fire_end,
            collect: 20,
        };
        t.worker_round_spans(0, at(10, 14));
        t.worker_round_spans(1, at(10, 20));
        let json = t.render_chrome_json("unit");
        let check = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(check.lanes, 3);
        assert!(json.contains("\"worker 0\""));
        assert!(json.contains("\"worker 1\""));
        assert!(json.contains("\"barrier-wait\""));
    }

    /// A hand-crafted document: one named `main` lane plus the given
    /// event objects (the renderer itself can no longer produce
    /// malformed traces, so the rejection paths get raw JSON).
    fn doc(events: &str) -> String {
        format!(
            "{{\"traceEvents\":[{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"main\"}}}},{events}],\
             \"otherData\":{{\"schema\":\"{TRACE_SCHEMA}\",\"events_dropped\":0}}}}"
        )
    }

    #[test]
    fn unbalanced_or_regressing_traces_are_rejected() {
        let heap = "{\"name\":\"heap\",\"ph\":\"C\",\"tid\":0,\"ts\":0}";

        // A span that never ends.
        let err = validate_chrome_trace(&doc(&format!(
            "{heap},{{\"name\":\"eval\",\"ph\":\"B\",\"tid\":0,\"ts\":1}}"
        )))
        .unwrap_err();
        assert!(err.contains("never ends"), "{err}");

        // A close with no matching open.
        let err = validate_chrome_trace(&doc(&format!(
            "{heap},{{\"name\":\"eval\",\"ph\":\"E\",\"tid\":0,\"ts\":1}}"
        )))
        .unwrap_err();
        assert!(err.contains("no open span"), "{err}");

        // A close whose name mismatches the open span.
        let err = validate_chrome_trace(&doc(&format!(
            "{heap},{{\"name\":\"eval\",\"ph\":\"B\",\"tid\":0,\"ts\":1}},\
             {{\"name\":\"parse\",\"ph\":\"E\",\"tid\":0,\"ts\":2}}"
        )))
        .unwrap_err();
        assert!(err.contains("closes"), "{err}");

        // A regressing timestamp on one lane.
        let err = validate_chrome_trace(&doc(&format!(
            "{{\"name\":\"eval\",\"ph\":\"B\",\"tid\":0,\"ts\":5}},{heap},\
             {{\"name\":\"eval\",\"ph\":\"E\",\"tid\":0,\"ts\":9}}"
        )))
        .unwrap_err();
        assert!(err.contains("regresses"), "{err}");

        // A lane no meta event names.
        let err = validate_chrome_trace(&doc(&format!(
            "{heap},{{\"name\":\"fire\",\"ph\":\"B\",\"tid\":7,\"ts\":1}},\
             {{\"name\":\"fire\",\"ph\":\"E\",\"tid\":7,\"ts\":2}}"
        )))
        .unwrap_err();
        assert!(err.contains("thread_name"), "{err}");
    }

    #[test]
    fn collapsed_stacks_sum_self_time_per_path() {
        let t = manual_tracer(1);
        // Explicit timestamps; the manual clock is never consulted.
        t.push_at(0, MAIN_LANE, Ph::Counter, "counter", NameRef::Static("heap"), vec![("live", 0), ("peak", 0)]);
        t.push_at(0, MAIN_LANE, Ph::Begin, "phase", NameRef::Static("eval"), Vec::new());
        t.push_at(100, MAIN_LANE, Ph::Begin, "round", NameRef::Static("round"), Vec::new());
        t.push_at(400, MAIN_LANE, Ph::End, "round", NameRef::Static("round"), Vec::new());
        t.push_at(400, MAIN_LANE, Ph::Begin, "round", NameRef::Static("round"), Vec::new());
        t.push_at(900, MAIN_LANE, Ph::End, "round", NameRef::Static("round"), Vec::new());
        t.push_at(1000, MAIN_LANE, Ph::End, "phase", NameRef::Static("eval"), Vec::new());
        // Worker lane with a `;` in an interned name: substituted, not
        // allowed to split the frame path.
        let merge = t.intern("merge;shard");
        t.push_at(200, 1, Ph::Begin, "worker", merge, Vec::new());
        t.push_at(500, 1, Ph::End, "worker", merge, Vec::new());

        let json = t.render_chrome_json("p");
        let collapsed = render_collapsed_stacks(&json).unwrap();
        // eval self = 1000 − (300 + 500) child ns; the two same-named
        // round spans sum into one line.
        assert_eq!(
            collapsed,
            "main;eval 200\n\
             main;eval;round 800\n\
             worker 0;merge,shard 300\n",
        );
    }

    #[test]
    fn collapsed_stacks_reject_what_the_validator_rejects() {
        let err = render_collapsed_stacks("{\"traceEvents\": []}").unwrap_err();
        assert!(err.contains("otherData"), "{err}");
    }

    #[test]
    fn render_closes_spans_left_open_by_an_aborted_run() {
        let t = manual_tracer(1);
        t.begin(MAIN_LANE, "phase", NameRef::Static("eval"));
        t.begin(MAIN_LANE, "round", NameRef::Static("round"));
        t.counter(
            MAIN_LANE,
            NameRef::Static("heap"),
            vec![("live", 0), ("peak", 0)],
        );
        // No ends: the evaluation error-ed out mid-round. The rendered
        // document still balances (both spans closed at the last ts).
        let json = t.render_chrome_json("unit");
        let check = validate_chrome_trace(&json).expect("auto-closed trace is valid");
        assert_eq!(check.events, 5);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let t = manual_tracer(1);
        let json = t
            .render_chrome_json("unit")
            .replace(TRACE_SCHEMA, "maglog-trace-v0");
        let err = validate_chrome_trace(&json).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn cap_drops_and_reports_instead_of_growing() {
        let t = Tracer::with_clock_and_cap(Box::new(ManualClock::with_step(1)), 4);
        for _ in 0..10 {
            t.begin(MAIN_LANE, "round", NameRef::Static("round"));
            t.end(MAIN_LANE, "round", NameRef::Static("round"));
        }
        assert_eq!(t.events_recorded(), 4);
        assert_eq!(t.events_dropped(), 16);
        let json = t.render_chrome_json("unit");
        assert!(json.contains("\"events_dropped\": 16"));
        // Balance is not enforced once events were dropped, but the heap
        // track requirement still applies.
        let err = validate_chrome_trace(&json).unwrap_err();
        assert!(err.contains("heap"), "{err}");
    }

    #[test]
    fn top_spans_ranks_by_width() {
        let t = manual_tracer(0);
        t.push_at(0, MAIN_LANE, Ph::Begin, "phase", NameRef::Static("eval"), vec![]);
        t.push_at(2, MAIN_LANE, Ph::Begin, "round", NameRef::Static("round"), vec![]);
        t.push_at(5, MAIN_LANE, Ph::End, "round", NameRef::Static("round"), vec![]);
        t.push_at(10, MAIN_LANE, Ph::End, "phase", NameRef::Static("eval"), vec![]);
        let top = t.top_spans(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].name, "eval");
        assert_eq!(top[0].nanos, 10);
        assert_eq!(top[1].name, "round");
        assert_eq!(top[1].nanos, 3);
    }
}
