//! The traced run: what each layer costs per call, and how often the
//! server crossed it.
//!
//! **Pass A** drives the untraced run's schedule into an in-process
//! [`Server`] configured like `cspdb serve`'s defaults, over
//! [`serve_listener`] on loopback (one listener per connection, each
//! serving exactly one, so both accept loops end when the load does).
//! [`ServerConfig::exec_hook`] stamps when each queued request starts
//! executing, and a counting [`TraceSink`] tallies the boundary events
//! the program already emits: cache hits and misses, chosen plans,
//! applied deltas, refreshed views, written snapshots and admissions
//! per lane.
//!
//! **Pass B** replays the request stream pass A sent, in send order, on
//! one thread through the public functions of each layer, over
//! harness-owned [`Catalog`], [`SemanticCache`] and [`ViewSet`]
//! instances. Durable workloads store through [`TimedStorage`], a
//! timing decorator around [`DurableStorage`]. Every call becomes a
//! span `{req, name, parent, start_us, end_us, workload}`; spans stay
//! in memory and are written as JSONL when the run ends.
//!
//! A layer's cost is its self time per call in pass B; multiplied by
//! the number of times pass A's server crossed the same boundary it
//! gives the layer's share of the run, which stays meaningful however
//! the server composes its layers. Tracing overhead is pass A's
//! end-to-end numbers against the untraced run's.

use crate::check::field;
use crate::client::{Phase, Record};
use crate::gen::{self, Expect, Workload};
use crate::run::{self, io, metric, Env, Metric, Result, RunResult};
use crate::stats::{mean, percentile};
use cspdb::core::budget::Budget;
use cspdb::core::trace::{Recorder, TraceEvent, TraceSink, Tracer};
use cspdb::core::{Answer, Structure};
use cspdb::cq::{evaluate_by_join_budgeted, is_contained_in, minimize, ConjunctiveQuery};
use cspdb::ivm::{Delta, IvmError, MaterializedView, ViewSet};
use cspdb::relalg::{estimated_join_peak, NamedRelation};
use cspdb_service::{
    parse_facts, relation_to_json, serve_listener, CacheKey, Catalog, DurableStorage, NetConfig,
    PersistedDb, PersistedDelta, PersistedEntry, Request, RequestBody, SemanticCache, Server,
    ServerConfig, Storage, StorageError, StorageStats,
};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tallies of the boundary events pass A's server emitted. Counting
/// instead of keeping every event bounds memory on long runs.
#[derive(Default)]
struct Crossings {
    events: BTreeMap<&'static str, u64>,
    admitted: BTreeMap<&'static str, u64>,
    wcoj_plans: u64,
    deltas_applied: u64,
}

#[derive(Default)]
struct CountingSink(Mutex<Crossings>);

impl TraceSink for CountingSink {
    fn record(&self, event: &TraceEvent) {
        let mut c = self.0.lock().expect("counting sink lock poisoned");
        *c.events.entry(event.kind()).or_default() += 1;
        match event {
            TraceEvent::RequestAdmitted { lane, .. } => {
                *c.admitted.entry(lane).or_default() += 1;
            }
            TraceEvent::PlanChosen { engine, .. } if *engine == "wcoj" => c.wcoj_plans += 1,
            TraceEvent::DeltaApplied { applied: true, .. } => c.deltas_applied += 1,
            _ => {}
        }
    }
}

impl Crossings {
    fn count(&self, kind: &str) -> u64 {
        self.events.get(kind).copied().unwrap_or(0)
    }
}

/// One timed interval, microseconds since the traced run began.
struct Span {
    req: u64,
    name: &'static str,
    parent: Option<&'static str>,
    start_us: f64,
    end_us: f64,
}

struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    fn push(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            req,
            name,
            parent,
            start_us: us(start),
            end_us: us(end),
        });
    }

    fn write(&self, path: &Path, workload: Workload) -> Result<()> {
        let file = io(std::fs::File::create(path), &path.display().to_string())?;
        let mut out = BufWriter::new(file);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| format!("\"{p}\""));
            io(
                writeln!(
                    out,
                    "{{\"req\":{},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"workload\":\"{}\"}}",
                    s.req,
                    s.name,
                    s.start_us,
                    s.end_us,
                    workload.name()
                ),
                "spans",
            )?;
        }
        io(out.flush(), "spans")
    }
}

fn micros(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What pass A measured.
struct PassA {
    records: Vec<Record>,
    passed: Vec<bool>,
    failures: Vec<String>,
    served: Vec<Metric>,
    late_p99_ms: f64,
    crossings: Crossings,
    exec_start: HashMap<u64, Instant>,
}

/// Drives the schedule into an in-process server. Each connection has
/// its own listener, served on its own thread for exactly one
/// connection, so both accept loops return once the load closes.
fn pass_a(
    env: &Env,
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans: &mut SpanLog,
) -> Result<PassA> {
    let conns = env.conns;
    let mut plan = gen::plan(workload, seed, conns);
    let warm = run::warmups(&mut plan, conns);
    let sink = Arc::new(CountingSink::default());
    let stamps: Arc<Mutex<HashMap<u64, Instant>>> = Arc::default();
    let hook_stamps = Arc::clone(&stamps);
    let data_dir = env
        .work_dir
        .join(format!("traced-a-{}-{seed}", workload.name()));
    let storage: Option<Arc<dyn Storage>> = if workload.durable() {
        let _ = std::fs::remove_dir_all(&data_dir);
        let store = DurableStorage::open(&data_dir).map_err(|e| format!("data dir: {e}"))?;
        Some(Arc::new(store))
    } else {
        None
    };
    let server = Arc::new(Server::start(ServerConfig {
        trace: Some(sink.clone()),
        exec_hook: Some(Arc::new(move |req: &Request| {
            let now = Instant::now();
            hook_stamps
                .lock()
                .expect("exec stamp lock poisoned")
                .insert(req.id, now);
        })),
        storage,
        ..ServerConfig::default()
    }));
    let listeners: Vec<TcpListener> = (0..conns)
        .map(|_| io(TcpListener::bind("127.0.0.1:0"), "bind"))
        .collect::<Result<_>>()?;
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| io(l.local_addr(), "local addr"))
        .collect::<Result<_>>()?;
    let net = NetConfig {
        idle_timeout: None,
        once: true,
        ..NetConfig::default()
    };
    let driven = std::thread::scope(|s| {
        for listener in listeners {
            let (server, net) = (&server, &net);
            s.spawn(move || serve_listener(server, listener, net));
        }
        let driven = run::set_up(&addrs, &plan, &warm)
            .and_then(|lanes| run::drive(lanes, &mut plan, seed, seconds, || {}));
        if driven.is_err() {
            // Release any accept loop whose connection never opened.
            for addr in &addrs {
                let _ = TcpStream::connect(addr);
            }
        }
        driven
    });
    server.shutdown(cspdb_service::ShutdownMode::Drain);
    let _ = std::fs::remove_dir_all(&data_dir);
    let driven = driven?;
    let (passed, failures) = run::verify(&plan, &driven.records);
    let served = run::served(workload, &driven, &passed);
    let late_p99_ms = run::value(&served, "gen.late_p99_ms").unwrap_or(0.0);
    let exec_start = std::mem::take(&mut *stamps.lock().expect("exec stamp lock poisoned"));
    for r in &driven.records {
        let Some(recv) = r.recv else { continue };
        spans.push(r.req.id, "client.rtt", None, r.sent, recv);
        if let Some(&exec) = exec_start.get(&r.req.id) {
            spans.push(
                r.req.id,
                "service.pre_exec",
                Some("client.rtt"),
                r.sent,
                exec,
            );
            spans.push(r.req.id, "service.exec", Some("client.rtt"), exec, recv);
        }
    }
    let crossings = std::mem::take(&mut *sink.0.lock().expect("counting sink lock poisoned"));
    Ok(PassA {
        records: driven.records,
        passed,
        failures,
        served,
        late_p99_ms,
        crossings,
        exec_start,
    })
}

/// One storage call as [`TimedStorage`] saw it.
#[derive(Debug)]
struct StorageCall {
    name: &'static str,
    start: Instant,
    end: Instant,
    compacted: bool,
    bytes: u64,
}

/// Bytes this process has passed to `write(2)` so far.
fn written_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Times every durable write of the storage it wraps.
#[derive(Debug)]
struct TimedStorage {
    inner: DurableStorage,
    calls: Mutex<Vec<StorageCall>>,
}

impl TimedStorage {
    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let compactions = self.inner.stats().log_compactions;
        let bytes = written_bytes();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let call = StorageCall {
            name,
            start,
            end,
            compacted: self.inner.stats().log_compactions > compactions,
            bytes: written_bytes().saturating_sub(bytes),
        };
        self.calls
            .lock()
            .expect("storage call lock poisoned")
            .push(call);
        out
    }

    fn take(&self) -> Vec<StorageCall> {
        std::mem::take(&mut *self.calls.lock().expect("storage call lock poisoned"))
    }
}

impl Storage for TimedStorage {
    fn load(&self) -> std::result::Result<Vec<PersistedDb>, StorageError> {
        self.inner.load()
    }

    fn record_put(
        &self,
        name: &str,
        version: u64,
        structure: &Structure,
    ) -> std::result::Result<(), StorageError> {
        self.timed("storage.record_put", || {
            self.inner.record_put(name, version, structure)
        })
    }

    fn record_delta(
        &self,
        delta: &PersistedDelta,
        post: &Structure,
    ) -> std::result::Result<(), StorageError> {
        self.timed("storage.record_delta", || {
            self.inner.record_delta(delta, post)
        })
    }

    fn load_cache_entries(&self) -> std::result::Result<Vec<PersistedEntry>, StorageError> {
        self.inner.load_cache_entries()
    }

    fn record_cache_entry(&self, entry: &PersistedEntry) -> std::result::Result<(), StorageError> {
        self.timed("storage.record_entry", || {
            self.inner.record_cache_entry(entry)
        })
    }

    fn persists(&self) -> bool {
        self.inner.persists()
    }

    fn stats(&self) -> StorageStats {
        self.inner.stats()
    }

    fn attach_tracer(&self, tracer: Tracer) {
        self.inner.attach_tracer(tracer);
    }
}

/// The admission estimate as the server computes it before queueing a
/// `cq` (its `classify` is private): parse, lower each atom's relation
/// to the query's variables, estimate the peak. Returns the estimate
/// and the rows lowered, or `None` when the query does not fit.
fn admission_estimate(query: &str, db: &Structure) -> Option<(u64, u64)> {
    let q = ConjunctiveQuery::parse(query).ok()?;
    let vars = q.variables();
    let var_index: HashMap<&str, u32> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();
    let mut relations = Vec::with_capacity(q.atoms.len());
    let mut lowered = 0u64;
    for atom in &q.atoms {
        let rel = db.relation_by_name(&atom.predicate).ok()?;
        if rel.arity() != atom.args.len() {
            return None;
        }
        let mut schema: Vec<u32> = Vec::new();
        let mut first_position: Vec<usize> = Vec::new();
        for (i, v) in atom.args.iter().enumerate() {
            let attr = var_index[v.as_str()];
            if !schema.contains(&attr) {
                schema.push(attr);
                first_position.push(i);
            }
        }
        let rows: Vec<Vec<u32>> = rel
            .iter()
            .map(|t| first_position.iter().map(|&i| t[i]).collect())
            .collect();
        lowered += rows.len() as u64;
        relations.push(NamedRelation::new(schema, rows));
    }
    Some((estimated_join_peak(&relations), lowered))
}

/// Pass B's state: the layers, owned by the harness, and what timing
/// them produced.
struct Replayer<'a> {
    catalog: Catalog,
    storage: Option<Arc<TimedStorage>>,
    cache: SemanticCache,
    views: ViewSet,
    budget: Budget,
    /// Evaluation runs under a recording budget so the kernel's own
    /// operator events give intermediate rows.
    eval_budget: Budget,
    recorder: Arc<Recorder>,
    spans: &'a mut SpanLog,
    req: u64,
    /// Self time per call (µs), or a per-call count, by boundary name.
    samples: BTreeMap<&'static str, Vec<f64>>,
    intermediate_rows: u64,
    answer_rows: u64,
    revalidated: u64,
    invalidated: u64,
    errors: Vec<String>,
}

impl Replayer<'_> {
    fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Times `f` as one span under the request root.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.spans.push(self.req, name, Some("request"), start, end);
        self.sample(name, micros(start, end));
        out
    }

    /// Times a catalog call whose storage writes become child spans;
    /// the catalog's sample is its self time.
    fn time_catalog<T>(&mut self, name: &'static str, f: impl FnOnce(&Catalog) -> T) -> T {
        let start = Instant::now();
        let out = f(&self.catalog);
        let end = Instant::now();
        let calls = self.storage.as_ref().map(|s| s.take()).unwrap_or_default();
        let mut child_us = 0.0;
        for c in calls {
            child_us += micros(c.start, c.end);
            self.spans
                .push(self.req, c.name, Some(name), c.start, c.end);
            self.sample(c.name, micros(c.start, c.end));
            if c.name == "storage.record_delta" {
                self.sample("storage.compaction", f64::from(u8::from(c.compacted)));
                self.sample("storage.write_bytes", c.bytes as f64);
            }
        }
        self.spans.push(self.req, name, Some("request"), start, end);
        self.sample(name, micros(start, end) - child_us);
        out
    }

    fn fail(&mut self, what: String) {
        if self.errors.len() < 5 {
            self.errors
                .push(format!("replay of request {}: {what}", self.req));
        }
    }

    fn replay(&mut self, id: u64, line: &str) {
        self.req = id;
        let start = Instant::now();
        match self.time("proto.parse", |_| Request::parse(line)) {
            Ok(request) => match request.body {
                RequestBody::Put { db, facts } => self.put(&db, &facts),
                RequestBody::Cq { db, query } => self.cq(&db, &query),
                RequestBody::Insert { db, fact } => self.delta(&db, &fact, true),
                RequestBody::Delete { db, fact } => self.delta(&db, &fact, false),
                RequestBody::Contain { q1, q2 } => self.contain(&q1, &q2),
                RequestBody::Solve { a, b } => self.solve(&a, &b),
                RequestBody::Stats => {}
            },
            Err(e) => self.fail(e.to_string()),
        }
        self.spans.push(id, "request", None, start, Instant::now());
    }

    fn put(&mut self, db: &str, facts: &str) {
        let structure = match parse_facts(facts) {
            Ok(s) => s,
            Err(e) => return self.fail(e),
        };
        self.cache.invalidate_db(db);
        self.views.drop_db(db);
        self.time_catalog("catalog.put", |c| c.put(db, structure));
    }

    fn cq(&mut self, db_name: &str, query: &str) {
        let Some((version, db)) = self.catalog.get(db_name) else {
            return self.fail(format!("unknown database {db_name}"));
        };
        match self.time("admission.estimate", |_| admission_estimate(query, &db)) {
            Some((_, lowered)) => self.sample("admission.rows_lowered", lowered as f64),
            None => return self.fail("query does not fit its database".into()),
        }
        let q = match ConjunctiveQuery::parse(query) {
            Ok(q) => q,
            Err(e) => return self.fail(e),
        };
        let key = self.time("cache.key", |_| CacheKey::of(&q));
        // Measured by a second call: `CacheKey::of` minimizes inside.
        self.time("cq.minimize", |_| minimize(&q));
        if self
            .time("cache.lookup", |r| r.cache.lookup(db_name, version, &key))
            .is_some()
        {
            return;
        }
        self.recorder.take();
        let budget = self.eval_budget.clone();
        let rel = match self.time("cq.eval", |_| {
            evaluate_by_join_budgeted(&key.core, &db, &budget)
        }) {
            Ok(rel) => rel,
            Err(e) => return self.fail(format!("{e:?}")),
        };
        for event in self.recorder.take() {
            match event {
                TraceEvent::Operator { output_rows, .. } => self.intermediate_rows += output_rows,
                TraceEvent::WcojLevel { matches, .. } => self.intermediate_rows += matches,
                _ => {}
            }
        }
        self.answer_rows += rel.len() as u64;
        if let Some(storage) = self.storage.clone() {
            let entry = PersistedEntry {
                db: db_name.to_owned(),
                version,
                query: key.core.to_string(),
                arity: rel.arity(),
                rows: rel.iter().map(<[u32]>::to_vec).collect(),
            };
            let _ = storage.record_cache_entry(&entry);
            for c in storage.take() {
                self.spans
                    .push(self.req, c.name, Some("request"), c.start, c.end);
                self.sample(c.name, micros(c.start, c.end));
            }
        }
        if self.views.answers(db_name, &key.core.name).is_none() {
            let budget = self.budget.clone();
            let registered = self.time("ivm.register", |r| {
                r.views.register_cq(db_name, &key.core, &db, &budget)
            });
            if let Err(e) = registered {
                self.fail(e.to_string());
            }
        }
        self.time("proto.serialise", |_| relation_to_json(&rel));
        self.time("cache.insert", |r| {
            r.cache.insert(db_name, version, key, rel)
        });
    }

    fn delta(&mut self, db: &str, fact: &str, insert: bool) {
        let mut words = fact.split_whitespace();
        let rel = words.next().unwrap_or_default().to_owned();
        let Ok(tuple) = words
            .map(str::parse)
            .collect::<std::result::Result<Vec<u32>, _>>()
        else {
            return self.fail(format!("bad fact {fact}"));
        };
        let delta = if insert {
            Delta::insert(&rel, &tuple)
        } else {
            Delta::delete(&rel, &tuple)
        };
        let (version, pre, post) =
            match self.time_catalog("catalog.apply_delta", |c| c.apply_delta(db, &delta)) {
                Ok(applied) => applied,
                Err(IvmError::NoOp(_)) => return self.fail("write was a no-op".into()),
                Err(e) => return self.fail(e.to_string()),
            };
        let budget = self.budget.clone();
        self.sample("ivm.views_per_delta", self.views.len(db) as f64);
        self.time("ivm.apply_delta", |r| {
            r.views.apply_delta(db, &delta, &pre, &post, &budget)
        });
        let (revalidated, dropped) = self.time("cache.revalidate", |r| {
            let fresh: Vec<_> = r
                .views
                .views(db)
                .iter()
                .filter_map(|v| match v {
                    MaterializedView::Cq(cq) => {
                        Some((CacheKey::of(cq.query()), cq.answers().clone()))
                    }
                    _ => None,
                })
                .collect();
            r.cache.revalidate_db(db, version, &fresh)
        });
        self.revalidated += revalidated;
        self.invalidated += dropped;
    }

    fn contain(&mut self, q1: &str, q2: &str) {
        let verdict = self.time("cq.contain", |_| {
            let (a, b) = (ConjunctiveQuery::parse(q1)?, ConjunctiveQuery::parse(q2)?);
            Ok::<_, String>((is_contained_in(&a, &b)?, is_contained_in(&b, &a)?))
        });
        if let Err(e) = verdict {
            self.fail(e);
        }
    }

    fn solve(&mut self, a: &str, b: &str) {
        let (Some((_, sa)), Some((_, sb))) = (self.catalog.get(a), self.catalog.get(b)) else {
            return self.fail(format!("unknown database {a} or {b}"));
        };
        // Every solve instance is a graph over `E` alone, so both sides
        // already share one vocabulary.
        if sa.vocabulary() != sb.vocabulary() {
            return self.fail(format!("{a} and {b} differ in vocabulary"));
        }
        let budget = self.budget.clone();
        let report = self.time("solver.solve", |_| {
            cspdb::Solver::new().budget(budget).solve(&sa, &sb)
        });
        if matches!(report.answer, Answer::Unknown(_)) {
            self.fail("solve ended unknown".into());
        }
    }
}

/// What pass B measured.
struct PassB {
    samples: BTreeMap<&'static str, Vec<f64>>,
    replayed: usize,
    rows_per_answer: f64,
    revalidated_ratio: f64,
    errors: Vec<String>,
}

/// Replays pass A's requests in send order until all are replayed or
/// `budget_secs` have passed.
fn pass_b(
    env: &Env,
    workload: Workload,
    seed: u64,
    records: &[Record],
    budget_secs: f64,
    spans: &mut SpanLog,
) -> Result<PassB> {
    let data_dir = env
        .work_dir
        .join(format!("traced-b-{}-{seed}", workload.name()));
    let storage = if workload.durable() {
        let _ = std::fs::remove_dir_all(&data_dir);
        let inner = DurableStorage::open(&data_dir).map_err(|e| format!("data dir: {e}"))?;
        Some(Arc::new(TimedStorage {
            inner,
            calls: Mutex::new(Vec::new()),
        }))
    } else {
        None
    };
    let catalog = match &storage {
        Some(s) => Catalog::open(s.clone()).map_err(|e| format!("catalog: {e}"))?,
        None => Catalog::new(),
    };
    let recorder = Arc::new(Recorder::new());
    let mut replayer = Replayer {
        catalog,
        storage,
        cache: SemanticCache::new(),
        views: ViewSet::new(),
        budget: Budget::unlimited(),
        eval_budget: Budget::unlimited().with_tracer(Tracer::new(recorder.clone())),
        recorder,
        spans,
        req: 0,
        samples: BTreeMap::new(),
        intermediate_rows: 0,
        answer_rows: 0,
        revalidated: 0,
        invalidated: 0,
        errors: Vec::new(),
    };
    let mut order: Vec<&Record> = records.iter().filter(|r| r.recv.is_some()).collect();
    order.sort_by_key(|r| r.sent);
    let start = Instant::now();
    let mut replayed = 0;
    for r in order {
        if start.elapsed().as_secs_f64() > budget_secs {
            break;
        }
        replayer.replay(r.req.id, &r.req.line);
        replayed += 1;
    }
    let _ = std::fs::remove_dir_all(&data_dir);
    Ok(PassB {
        rows_per_answer: ratio(replayer.intermediate_rows, replayer.answer_rows),
        revalidated_ratio: ratio(
            replayer.revalidated,
            replayer.revalidated + replayer.invalidated,
        ),
        samples: replayer.samples,
        replayed,
        errors: replayer.errors,
    })
}

/// Pass A's open-loop round trips (µs), split at the server's own
/// clocks: the `micros` it reports (admission to completion), the rest
/// of the round trip, and send → execution start → response for the
/// requests a lane queued.
#[derive(Default)]
struct RoundTrips {
    rtt: Vec<f64>,
    server: Vec<f64>,
    unaccounted: Vec<f64>,
    pre_exec: Vec<f64>,
    exec: Vec<f64>,
    bytes: Vec<f64>,
}

fn round_trips(a: &PassA) -> RoundTrips {
    let mut t = RoundTrips::default();
    for r in a.records.iter().filter(|r| r.phase == Phase::Open) {
        let (Some(recv), Some(line)) = (r.recv, r.response.as_deref()) else {
            continue;
        };
        let rtt = micros(r.sent, recv);
        t.rtt.push(rtt);
        t.bytes.push(line.len() as f64 + 1.0);
        if let Some(server) = field(line, "micros").and_then(|m| m.parse::<f64>().ok()) {
            t.server.push(server);
            t.unaccounted.push(rtt - server);
        }
        if let Some(&exec) = a.exec_start.get(&r.req.id) {
            t.pre_exec.push(micros(r.sent, exec));
            t.exec.push(micros(exec, recv));
        }
    }
    t
}

/// The per-layer metrics of the result line, in `BENCHMARK.json`
/// order. Every workload crosses each of these boundaries.
fn layer_metrics(untraced: &RunResult, a: &PassA, b: &PassB) -> Vec<Metric> {
    let p50 = |name: &str| b.samples.get(name).map_or(0.0, |xs| percentile(xs, 0.5));
    let trips = round_trips(a);
    let c = &a.crossings;
    let (hits, misses) = (c.count("cache_hit"), c.count("cache_miss"));
    let overhead = run::value(&a.served, "p50_ms").unwrap_or(f64::NAN)
        / untraced.get("p50_ms").unwrap_or(f64::NAN);
    vec![
        metric(
            "net.unaccounted_us",
            percentile(&trips.unaccounted, 0.5),
            "us",
        ),
        metric(
            "service.pre_exec_us",
            percentile(&trips.pre_exec, 0.5),
            "us",
        ),
        metric("service.exec_us", percentile(&trips.exec, 0.5), "us"),
        metric(
            "service.cpu_ms_per_req",
            untraced.get("service.cpu_ms_per_req").unwrap_or(0.0),
            "ms",
        ),
        metric("proto.parse_us", p50("proto.parse"), "us"),
        metric("proto.serialise_us", p50("proto.serialise"), "us"),
        metric(
            "proto.response_bytes",
            percentile(&trips.bytes, 0.5),
            "bytes",
        ),
        metric("admission.estimate_us", p50("admission.estimate"), "us"),
        metric(
            "admission.rows_lowered",
            p50("admission.rows_lowered"),
            "count",
        ),
        metric(
            "admission.rejected",
            c.count("request_rejected") as f64,
            "count",
        ),
        metric(
            "admission.degraded",
            c.count("request_degraded") as f64,
            "count",
        ),
        metric("cache.key_us", p50("cache.key"), "us"),
        metric("cq.minimize_us", p50("cq.minimize"), "us"),
        metric("cache.lookup_us", p50("cache.lookup"), "us"),
        metric("cache.hit_ratio", ratio(hits, hits + misses), "fraction"),
        metric("cq.eval_us", p50("cq.eval"), "us"),
        metric("relalg.rows_per_answer", b.rows_per_answer, "ratio"),
        metric("ivm.register_us", p50("ivm.register"), "us"),
        metric(
            "gen.late_p99_ms",
            untraced.get("gen.late_p99_ms").unwrap_or(0.0),
            "ms",
        ),
        metric(
            "gen.backlog_end",
            untraced.get("gen.backlog_end").unwrap_or(0.0),
            "count",
        ),
        metric("trace.overhead_p50", overhead, "ratio"),
    ]
}

/// Boundaries only some workloads cross (writes, storage, solving),
/// printed and recorded where they occur.
fn workload_layers(a: &PassA, b: &PassB) -> Vec<Metric> {
    let trips = round_trips(a);
    let mut out = vec![
        metric("client.rtt_p50_us", percentile(&trips.rtt, 0.5), "us"),
        metric("server.micros_p50_us", percentile(&trips.server, 0.5), "us"),
    ];
    for (name, key) in [
        ("catalog.put_us", "catalog.put"),
        ("catalog.apply_delta_us", "catalog.apply_delta"),
        ("storage.record_put_us", "storage.record_put"),
        ("storage.record_delta_us", "storage.record_delta"),
        ("storage.record_entry_us", "storage.record_entry"),
        ("ivm.apply_delta_us", "ivm.apply_delta"),
        ("cache.revalidate_us", "cache.revalidate"),
        ("cache.insert_us", "cache.insert"),
        ("solver.solve_us", "solver.solve"),
        ("cq.contain_us", "cq.contain"),
    ] {
        if let Some(xs) = b.samples.get(key) {
            out.push(metric(name, percentile(xs, 0.5), "us"));
            out.push(metric(
                &name.replace("_us", "_p99_us"),
                percentile(xs, 0.99),
                "us",
            ));
        }
    }
    if let Some(xs) = b.samples.get("storage.compaction") {
        out.push(metric("storage.compaction_share", mean(xs), "fraction"));
    }
    if let Some(xs) = b.samples.get("storage.write_bytes") {
        out.push(metric("storage.write_bytes_per_delta", mean(xs), "bytes"));
    }
    let c = &a.crossings;
    let plans = c.count("plan_chosen");
    if plans > 0 {
        out.push(metric(
            "relalg.wcoj_share",
            ratio(c.wcoj_plans, plans),
            "fraction",
        ));
    }
    if c.deltas_applied > 0 {
        out.push(metric(
            "ivm.views_per_delta",
            ratio(c.count("view_refreshed"), c.deltas_applied),
            "count",
        ));
        out.push(metric(
            "cache.revalidated_ratio",
            b.revalidated_ratio,
            "fraction",
        ));
        out.push(metric(
            "storage.snapshots",
            c.count("snapshot_written") as f64,
            "count",
        ));
    }
    for (lane, n) in &c.admitted {
        out.push(metric(
            &format!("admission.lane.{lane}"),
            *n as f64,
            "count",
        ));
    }
    out.push(metric("replay.requests", b.replayed as f64, "count"));
    out
}

/// How often pass A's server crossed a boundary pass B timed.
fn crossings(a: &PassA, b: &PassB, name: &str) -> u64 {
    let c = &a.crossings;
    let requests_where = |f: &dyn Fn(&Expect) -> bool| {
        a.records
            .iter()
            .filter(|r| r.recv.is_some() && f(&r.req.expect))
            .count() as u64
    };
    let cached = c.count("cache_hit") + c.count("cache_miss");
    match name {
        "proto.parse" => requests_where(&|_| true),
        "admission.estimate" => requests_where(&|e| matches!(e, Expect::Read { .. })),
        "cache.key" | "cq.minimize" | "cache.lookup" => cached,
        "cq.eval" => c.count("cache_miss") + c.count("request_degraded"),
        "proto.serialise" | "cache.insert" | "storage.record_entry" => c.count("cache_miss"),
        "catalog.put" | "storage.record_put" => requests_where(&|e| matches!(e, Expect::Put)),
        "catalog.apply_delta" | "storage.record_delta" | "ivm.apply_delta" | "cache.revalidate" => {
            c.deltas_applied
        }
        "solver.solve" => requests_where(&|e| matches!(e, Expect::Solve { .. })),
        "cq.contain" => requests_where(&|e| matches!(e, Expect::Contain { .. })),
        // No event marks a view registration: use the replay's count.
        _ => b.samples.get(name).map_or(0, |xs| xs.len() as u64),
    }
}

/// The per-layer table: cost per call from pass B, crossings from
/// pass A, and their product.
fn table(a: &PassA, b: &PassB) -> Vec<String> {
    let mut lines = vec![format!(
        "  {:<22} {:>8} {:>10} {:>10} {:>10} {:>12}",
        "layer (self time)", "calls B", "p50 us", "p99 us", "crossed A", "total ms"
    )];
    for (name, xs) in &b.samples {
        if matches!(
            *name,
            "admission.rows_lowered"
                | "ivm.views_per_delta"
                | "storage.compaction"
                | "storage.write_bytes"
        ) {
            continue;
        }
        let crossed = crossings(a, b, name);
        lines.push(format!(
            "  {:<22} {:>8} {:>10.1} {:>10.1} {:>10} {:>12.1}",
            name,
            xs.len(),
            percentile(xs, 0.5),
            percentile(xs, 0.99),
            crossed,
            mean(xs) * crossed as f64 / 1e3
        ));
    }
    lines
}

/// The traced run: the untraced run (for the tracing overhead), pass A,
/// pass B, the span file and the per-layer metrics.
pub fn run_traced(
    env: &Env,
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans_path: &Path,
) -> Result<RunResult> {
    let untraced = run::run_untraced(env, workload, seed, seconds)?;
    let mut spans = SpanLog {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let a = pass_a(
        env,
        workload,
        seed,
        seconds / run::ROUNDS as f64,
        &mut spans,
    )?;
    let b = pass_b(env, workload, seed, &a.records, seconds, &mut spans)?;
    spans.write(spans_path, workload)?;

    let mut failures = untraced.failures.clone();
    failures.extend(a.failures.iter().cloned());
    failures.extend(b.errors.iter().cloned());
    let schedule = run::schedule_failure(a.late_p99_ms);
    failures.extend(schedule.clone());
    let failed_a = a.passed.iter().filter(|ok| !**ok).count();
    let traced = |name| run::value(&a.served, name).unwrap_or(f64::NAN);
    let mut extras = workload_layers(&a, &b);
    extras.extend([
        metric("traced.p50_ms", traced("p50_ms"), "ms"),
        metric("traced.p99_ms", traced("p99_ms"), "ms"),
        metric("traced.throughput_rps", traced("throughput_rps"), "req/s"),
    ]);
    extras.extend(untraced.metrics.iter().cloned());
    let mut report = table(&a, &b);
    report.push(format!(
        "  spans: {} written to {}",
        spans.spans.len(),
        spans_path.display()
    ));
    Ok(RunResult {
        workload,
        seed,
        trace: true,
        attempted: untraced.attempted + a.records.len(),
        failed: untraced.failed + failed_a + b.errors.len(),
        valid: untraced.valid && schedule.is_none(),
        metrics: layer_metrics(&untraced, &a, &b),
        extras,
        failures,
        report,
    })
}
