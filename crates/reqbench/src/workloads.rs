//! The benchmark's four workloads: what one request is, how the instance
//! is generated from the run seed, and the independent oracle each answer
//! is checked against.
//!
//! The materialize workloads send the whole program — rules plus the
//! instance as inline facts — and get the rendered least model back, the
//! `maglog run` path. The query workload keeps one loaded program and EDB
//! and asks demand-restricted point goals against it, the
//! `maglog run --query` path, with a trickle of EDB writes in between.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

use maglog_baselines::direct::{all_pairs_dijkstra, dijkstra, eval_circuit_minimal, Gate};
use maglog_datalog::{parse_program, Program};
use maglog_engine::trace::{NameRef, MAIN_LANE};
use maglog_engine::{
    parse_goal, Edb, EvalOptions, EventSink, Goal, MetricsSink, Model, MonotonicEngine, NoopSink,
    Optimize, ProfileReport, SpanSink, Strategy, Tracer, Value,
};
use maglog_prng::rngs::StdRng;
use maglog_prng::{Rng, SeedableRng};
use maglog_workloads::{programs, random_circuit, random_digraph, CircuitInstance, GraphInstance};

/// Which request stream a workload serves next. Each pass restarts from
/// the base instance with its own seeded stream, so what a pass sees never
/// depends on how many requests an earlier pass managed to send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    Warmup,
    Timed,
    Traced,
}

/// One request of a workload's stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Parse, evaluate and render the whole program of one instance.
    Materialize { instance: usize },
    /// Point goal `s(n<from>, n<to>)`.
    Read { from: usize, to: usize },
    /// Add the arc `n<from> -> n<to>` to the EDB.
    Write { from: usize, to: usize, weight: f64 },
}

impl Request {
    /// Reads are the requests latency is reported for; every materialize
    /// request is a read.
    pub fn is_read(&self) -> bool {
        !matches!(self, Request::Write { .. })
    }
}

/// What the system under test returned for one request.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// The rendered least model.
    Rendered(String),
    /// The goal's cost (`None`: the fact is not in the model).
    Cost(Option<f64>),
    /// A write was applied.
    Ack,
}

/// A served request, plus what the traced pass records about it.
#[derive(Debug)]
pub struct Served {
    pub answer: Answer,
    /// Tuples in the evaluated model (0 for writes).
    pub tuples: usize,
    /// Length of the printed answer: the whole model, or one goal fact.
    pub rendered_bytes: usize,
    /// The evaluator's counters; `Some` only for [`Instrument::Counters`].
    pub profile: Option<ProfileReport>,
}

/// A workload instance after set-up. The runner drives it; a test can
/// wrap one to substitute a doctored oracle.
pub trait Workload {
    /// Restart the request stream for `pass` from the base instance.
    fn start_pass(&mut self, pass: Pass);
    /// The next request of the current stream (untimed).
    fn next_request(&mut self) -> Request;
    /// Serve one request: the timed part. Reads leave the instance as
    /// it was, so the runner may serve one again for its counters.
    fn serve(&mut self, req: &Request, instrument: Instrument<'_>) -> Result<Served, String>;
    /// Check the set-up instance end to end against the independent
    /// baseline, and record the reference later answers are compared to.
    fn verify_setup(&mut self) -> bool;
    /// Check one answer (untimed).
    fn verify(&self, req: &Request, answer: &Answer) -> bool;
    /// The program and EDB `req` was served against, for the static-layer
    /// probes.
    fn inputs(&self, req: &Request) -> (&Program, &Edb);
    /// A digest of the generated instance (seed-determinism checks).
    fn instance_digest(&self) -> u64;
}

/// A workload's registry entry. Why each workload is there is recorded
/// in `BENCHMARK.json` and the README.
pub struct Spec {
    pub name: &'static str,
    /// Untimed requests sent after each build, part of `setup_s`.
    pub warmup: usize,
    /// Reads in the traced pass.
    pub traced: usize,
    /// Build the workload from the run seed. The second argument is the
    /// number of instances a materialize workload rotates through.
    pub build: fn(u64, usize) -> Box<dyn Workload>,
}

pub static SPECS: [Spec; 4] = [
    Spec {
        name: "sp_materialize",
        warmup: 3,
        traced: 3,
        build: |seed, n| Box::new(Materialize::shortest_path(seed, n, 1)),
    },
    Spec {
        name: "sp_materialize_par2",
        warmup: 3,
        traced: 10,
        build: |seed, n| Box::new(Materialize::shortest_path(seed, n, 2)),
    },
    Spec {
        name: "circuit_materialize",
        warmup: 3,
        traced: 10,
        build: |seed, n| Box::new(Materialize::circuit(seed, n)),
    },
    Spec {
        name: "sp_query_mixed",
        warmup: 30,
        traced: 30,
        build: |seed, _| Box::new(Query::new(seed)),
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// `random_digraph(n, 3.0, (1, 9))`, redrawn until it has exactly the
/// expected `3n` arcs. The arc count moves the work of a request more
/// than anything else about the graph; fixing it keeps the instances of
/// different seeds comparable.
fn digraph(n: usize, seed: u64) -> GraphInstance {
    (0..)
        .map(|k| random_digraph(n, 3.0, (1.0, 9.0), derive_seed(seed, k)))
        .find(|g| g.arcs.len() == 3 * n)
        .expect("some draw has the expected arc count")
}

/// Seed of the stream `tag` within run seed `seed`.
fn derive_seed(seed: u64, tag: u64) -> u64 {
    StdRng::seed_from_u64(seed.rotate_left(17) ^ tag).gen()
}

fn digest(value: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Shortest-path costs agree when they are both absent or within 1e-9.
fn same_cost(got: Option<f64>, want: Option<f64>) -> bool {
    match (got, want) {
        (Some(a), Some(b)) => (a - b).abs() <= 1e-9,
        (None, None) => true,
        _ => false,
    }
}

/// How a request is instrumented.
#[derive(Clone, Copy)]
pub enum Instrument<'a> {
    /// The timed pass: no sink, no spans.
    Off,
    /// The traced pass: spans around each layer call, and the engine's
    /// span sink on the evaluation.
    Spans(&'a Tracer),
    /// The engine's metrics sink on the evaluation, for its counters. Run
    /// apart from the spans so the sink's clock reads and heap walk stay
    /// out of the span timings.
    Counters,
}

impl<'a> Instrument<'a> {
    fn tracer(self) -> Option<&'a Tracer> {
        match self {
            Instrument::Spans(t) => Some(t),
            _ => None,
        }
    }
}

/// Evaluate through the engine's public entry points, instrumented as
/// asked; [`Instrument::Counters`] returns the metrics sink's report.
fn evaluate(
    engine: &MonotonicEngine<'_>,
    program: &Program,
    edb: &Edb,
    goal: Option<&Goal>,
    instrument: Instrument<'_>,
) -> Result<(Model, Option<ProfileReport>), String> {
    fn run<S: EventSink>(
        engine: &MonotonicEngine<'_>,
        edb: &Edb,
        goal: Option<&Goal>,
        sink: &mut S,
    ) -> Result<Model, String> {
        match goal {
            Some(goal) => engine.evaluate_goal_with_sink(edb, goal, sink),
            None => engine.evaluate_with_sink(edb, sink),
        }
        .map_err(|e| e.to_string())
    }
    match instrument {
        Instrument::Off => Ok((run(engine, edb, goal, &mut NoopSink)?, None)),
        Instrument::Spans(t) => {
            let mut sink = SpanSink::new(program, t.clone());
            let model = span(Some(t), "engine.eval", || run(engine, edb, goal, &mut sink))?;
            Ok((model, None))
        }
        Instrument::Counters => {
            let mut sink = MetricsSink::new(program, Strategy::default());
            let model = run(engine, edb, goal, &mut sink)?;
            Ok((model, Some(sink.finish())))
        }
    }
}

/// Run `f` inside a main-lane span named `name` when tracing.
pub fn span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let Some(t) = tracer else { return f() };
    t.begin(MAIN_LANE, "layer", NameRef::Static(name));
    let out = f();
    t.end(MAIN_LANE, "layer", NameRef::Static(name));
    out
}

// ---------------------------------------------------------------- materialize

/// The oracle of a materialize instance.
enum Oracle {
    ShortestPath(GraphInstance),
    Circuit(CircuitInstance),
}

/// One program with its instance as inline facts.
struct Instance {
    text: String,
    /// The set-up parse, for the static probes and the oracle.
    program: Program,
    oracle: Oracle,
    /// Digest of the verified rendering every answer must match.
    reference: Option<u64>,
}

impl Instance {
    /// Example 2.6 on `random_digraph(64, 3.0, (1, 9))`.
    fn shortest_path(seed: u64) -> Instance {
        let g = digraph(64, seed);
        let mut text = String::from(programs::SHORTEST_PATH);
        for &(u, v, w) in &g.arcs {
            let _ = writeln!(text, "arc(n{u}, n{v}, {w}).");
        }
        Instance::new(text, Oracle::ShortestPath(g))
    }

    /// Example 4.4 on `random_circuit(16, 1024, 2, 0.3)`.
    fn circuit(seed: u64) -> Instance {
        let c = random_circuit(16, 1024, 2, 0.3, seed);
        let mut text = String::from(programs::CIRCUIT);
        for (i, &bit) in c.inputs.iter().enumerate() {
            let _ = writeln!(text, "input(w{i}, {}).", u8::from(bit));
        }
        for (gi, (kind, fan_in)) in c.gates.iter().enumerate() {
            let g = c.n_inputs + gi;
            let kind = match kind {
                Gate::And => "and",
                Gate::Or => "or",
            };
            let _ = writeln!(text, "gate(w{g}, {kind}).");
            for w in fan_in {
                let _ = writeln!(text, "connect(w{g}, w{w}).");
            }
        }
        Instance::new(text, Oracle::Circuit(c))
    }

    fn new(text: String, oracle: Oracle) -> Instance {
        let program = parse_program(&text).expect("generated program parses");
        Instance {
            text,
            program,
            oracle,
            reference: None,
        }
    }

    fn oracle_agrees(&self, model: &Model) -> bool {
        let p = &self.program;
        match &self.oracle {
            Oracle::ShortestPath(g) => {
                // s(u, v) is the cheapest *non-empty* path: one arc out of
                // u, then a shortest path to v.
                let dist = all_pairs_dijkstra(g.n, &g.arcs);
                let mut present = 0;
                for u in 0..g.n {
                    let mut row: Vec<Option<f64>> = vec![None; g.n];
                    for &(_, w, c) in g.arcs.iter().filter(|a| a.0 == u) {
                        for (best, d) in row.iter_mut().zip(&dist[w]) {
                            if let Some(total) = d.map(|d| c + d) {
                                if best.is_none_or(|b| total < b) {
                                    *best = Some(total);
                                }
                            }
                        }
                    }
                    for (v, want) in row.into_iter().enumerate() {
                        let got = model
                            .cost_of(p, "s", &[&format!("n{u}"), &format!("n{v}")])
                            .and_then(|c| c.as_f64());
                        if !same_cost(got, want) {
                            return false;
                        }
                        present += usize::from(want.is_some());
                    }
                }
                model.count(p, "s") == present
            }
            Oracle::Circuit(c) => {
                let want = eval_circuit_minimal(&c.to_circuit());
                (0..c.n_inputs + c.n_gates).all(|wire| {
                    let got =
                        model.cost_of(p, "t", &[&format!("w{wire}")]) == Some(Value::Bool(true));
                    got == want.get(&wire).copied().unwrap_or(false)
                })
            }
        }
    }
}

/// Whole-program requests: each parses, evaluates and renders one
/// instance, in rotation.
struct Materialize {
    instances: Vec<Instance>,
    options: EvalOptions,
    next: usize,
    empty: Edb,
}

impl Materialize {
    /// Shortest paths, shared by the 1- and 2-worker workloads.
    fn shortest_path(seed: u64, instances: usize, workers: usize) -> Materialize {
        let options = EvalOptions {
            workers,
            ..Default::default()
        };
        Materialize::new(seed, 1, instances, Instance::shortest_path, options)
    }

    fn circuit(seed: u64, instances: usize) -> Materialize {
        Materialize::new(
            seed,
            2,
            instances,
            Instance::circuit,
            EvalOptions::default(),
        )
    }

    fn new(
        seed: u64,
        tag: u64,
        instances: usize,
        make: fn(u64) -> Instance,
        options: EvalOptions,
    ) -> Materialize {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, tag));
        Materialize {
            instances: (0..instances.max(1)).map(|_| make(rng.gen())).collect(),
            options,
            next: 0,
            empty: Edb::new(),
        }
    }
}

impl Workload for Materialize {
    fn start_pass(&mut self, _pass: Pass) {
        self.next = 0;
    }

    fn next_request(&mut self) -> Request {
        let instance = self.next % self.instances.len();
        self.next += 1;
        Request::Materialize { instance }
    }

    fn serve(&mut self, req: &Request, instrument: Instrument<'_>) -> Result<Served, String> {
        let &Request::Materialize { instance } = req else {
            return Err("not a materialize request".into());
        };
        let tracer = instrument.tracer();
        let text = &self.instances[instance].text;
        let program = span(tracer, "datalog.parse", || parse_program(text))
            .map_err(|e| format!("parse: {e}"))?;
        let engine = MonotonicEngine::with_options(&program, self.options.clone());
        let (model, profile) = evaluate(&engine, &program, &self.empty, None, instrument)?;
        let rendered = span(tracer, "engine.model.render", || model.render(&program));
        Ok(Served {
            tuples: model.interp().size(),
            rendered_bytes: rendered.len(),
            answer: Answer::Rendered(rendered),
            profile,
        })
    }

    fn verify_setup(&mut self) -> bool {
        let (options, empty) = (&self.options, &self.empty);
        self.instances.iter_mut().all(|inst| {
            let engine = MonotonicEngine::with_options(&inst.program, options.clone());
            let Ok(model) = engine.evaluate(empty) else {
                return false;
            };
            let ok = inst.oracle_agrees(&model);
            inst.reference = ok.then(|| digest(model.render(&inst.program)));
            ok
        })
    }

    fn verify(&self, req: &Request, answer: &Answer) -> bool {
        match (req, answer) {
            (&Request::Materialize { instance }, Answer::Rendered(text)) => {
                self.instances[instance].reference == Some(digest(text))
            }
            _ => false,
        }
    }

    fn inputs(&self, req: &Request) -> (&Program, &Edb) {
        let instance = match *req {
            Request::Materialize { instance } => instance,
            _ => 0,
        };
        (&self.instances[instance].program, &self.empty)
    }

    fn instance_digest(&self) -> u64 {
        digest(self.instances.iter().map(|i| &i.text).collect::<Vec<_>>())
    }
}

// ---------------------------------------------------------------- query

/// The line `maglog run --query` prints for a point goal: the fact with
/// its cost, or that it is not in the model.
fn render_answer(program: &Program, goal: &Goal, fact: Option<&Option<Value>>) -> String {
    let name = program.pred_name(goal.pred);
    let mut parts: Vec<String> = goal.key.0.iter().map(|v| v.display(program)).collect();
    match fact {
        Some(cost) => {
            parts.extend(cost.iter().map(|c| c.display(program)));
            format!("{name}({}).", parts.join(", "))
        }
        None => format!("{name}({}) is not in the model.", parts.join(", ")),
    }
}

/// Requests per epoch of the query stream. Each epoch starts from the
/// base instance, so the EDB a read sees holds at most this many extra
/// arcs however many requests the run sends.
const EPOCH: usize = 100;

/// Share of query-stream requests that are writes.
const WRITE_SHARE: f64 = 0.1;

/// Point goals against one loaded program and EDB, with arc writes.
struct Query {
    seed: u64,
    program: Program,
    options: EvalOptions,
    /// `n<i>` as a symbol value, by node.
    nodes: Vec<Value>,
    base: GraphInstance,
    base_edb: Edb,
    /// The current instance: the EDB the engine reads, and the same arcs
    /// as a list for the oracle.
    edb: Edb,
    arcs: Vec<(usize, usize, f64)>,
    present: HashSet<(usize, usize)>,
    rng: StdRng,
    in_epoch: usize,
}

impl Query {
    fn new(seed: u64) -> Query {
        let program = parse_program(programs::SHORTEST_PATH).expect("shortest path parses");
        let base = digraph(512, derive_seed(seed, 3));
        let base_edb = base.to_edb(&program);
        let nodes = (0..base.n)
            .map(|i| Value::Sym(program.symbols.intern(&format!("n{i}"))))
            .collect();
        let options = EvalOptions {
            optimize: Optimize {
                demand: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut q = Query {
            seed,
            program,
            options,
            nodes,
            edb: base_edb.clone(),
            arcs: Vec::new(),
            present: HashSet::new(),
            base,
            base_edb,
            rng: StdRng::seed_from_u64(0),
            in_epoch: 0,
        };
        q.start_pass(Pass::Warmup);
        q
    }

    fn reset_instance(&mut self) {
        self.edb = self.base_edb.clone();
        self.arcs = self.base.arcs.clone();
        self.present = self.arcs.iter().map(|&(u, v, _)| (u, v)).collect();
        self.in_epoch = 0;
    }
}

impl Workload for Query {
    fn start_pass(&mut self, pass: Pass) {
        let tag = match pass {
            Pass::Warmup => 10,
            Pass::Timed => 11,
            Pass::Traced => 12,
        };
        self.rng = StdRng::seed_from_u64(derive_seed(self.seed, tag));
        self.reset_instance();
    }

    fn next_request(&mut self) -> Request {
        if self.in_epoch == EPOCH {
            self.reset_instance();
        }
        self.in_epoch += 1;
        let n = self.base.n;
        if self.rng.gen_bool(WRITE_SHARE) {
            loop {
                let (from, to) = (self.rng.gen_range(0..n), self.rng.gen_range(0..n));
                if from != to && self.present.insert((from, to)) {
                    // The generator's quarter grid keeps float sums exact.
                    let weight = (self.rng.gen_range(1.0..9.0) * 4.0_f64).round() / 4.0;
                    self.arcs.push((from, to, weight));
                    return Request::Write { from, to, weight };
                }
            }
        }
        let from = self.rng.gen_range(0..n);
        let to = (from + self.rng.gen_range(1..n)) % n;
        Request::Read { from, to }
    }

    fn serve(&mut self, req: &Request, instrument: Instrument<'_>) -> Result<Served, String> {
        match *req {
            Request::Write { from, to, weight } => {
                let key = vec![self.nodes[from].clone(), self.nodes[to].clone()];
                self.edb
                    .push_value_fact(&self.program, "arc", key, Some(Value::num(weight)));
                Ok(Served {
                    answer: Answer::Ack,
                    tuples: 0,
                    rendered_bytes: 0,
                    profile: None,
                })
            }
            Request::Read { from, to } => {
                // The `maglog run --query` path: parse the goal text,
                // evaluate demand-restricted, print the one answer fact.
                let tracer = instrument.tracer();
                let text = format!("s(n{from}, n{to})");
                let goal = span(tracer, "datalog.parse", || parse_goal(&self.program, &text))?;
                let engine = MonotonicEngine::with_options(&self.program, self.options.clone());
                let (model, profile) =
                    evaluate(&engine, &self.program, &self.edb, Some(&goal), instrument)?;
                let fact = model.interp().cost(&self.program, goal.pred, &goal.key);
                let rendered = span(tracer, "engine.model.render", || {
                    render_answer(&self.program, &goal, fact.as_ref())
                });
                Ok(Served {
                    answer: Answer::Cost(fact.flatten().and_then(|c| c.as_f64())),
                    tuples: model.interp().size(),
                    rendered_bytes: rendered.len(),
                    profile,
                })
            }
            Request::Materialize { .. } => Err("not a query request".into()),
        }
    }

    fn verify_setup(&mut self) -> bool {
        // Every read is checked on its own against the current arcs.
        true
    }

    fn verify(&self, req: &Request, answer: &Answer) -> bool {
        match (req, answer) {
            (Request::Write { .. }, Answer::Ack) => true,
            // `from != to`, so the shortest path is non-empty.
            (&Request::Read { from, to }, &Answer::Cost(got)) => {
                same_cost(got, dijkstra(self.base.n, &self.arcs, from)[to])
            }
            _ => false,
        }
    }

    fn inputs(&self, _req: &Request) -> (&Program, &Edb) {
        (&self.program, &self.edb)
    }

    fn instance_digest(&self) -> u64 {
        digest(format!("{:?}", self.base.arcs))
    }
}
