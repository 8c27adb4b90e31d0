//! Structured observability: typed trace events, pluggable sinks, and
//! the zero-cost-when-disabled [`Tracer`] carried alongside the meter.
//!
//! Budgets (see [`crate::budget`]) answer *whether* a run may keep
//! going; this module answers *what the run did* — which governed-ladder
//! tier won, how many rows each join operator produced, how fast the
//! Datalog deltas shrank, where the budget was spent when a run
//! exhausts. Algorithms emit [`TraceEvent`]s through the [`Tracer`]
//! every [`crate::budget::Meter`] carries; the events flow to a
//! [`TraceSink`]:
//!
//! * [`NullSink`] — swallows everything (for overhead measurements);
//! * [`Recorder`] — buffers events in memory (powers `EXPLAIN`);
//! * [`JsonLinesSink`] — writes one JSON object per event.
//!
//! **Cost model.** A disabled tracer (the default) reduces every
//! [`Tracer::emit_with`] call to a single branch on a cached bool: the
//! event-construction closure never runs, no clock is read, nothing
//! allocates. Events are deliberately *aggregate* (one per operator,
//! per sweep, per tier — never per row or per search node), so even an
//! enabled tracer stays off the per-tuple hot path.

use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::budget::ExhaustionReason;

/// Which relational operator produced an [`TraceEvent::Operator`] event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// Hash join of two named relations.
    HashJoin,
    /// Semijoin (left rows filtered by join-compatibility with right).
    Semijoin,
    /// Worst-case-optimal multiway join (leapfrog intersection over
    /// sorted trie views; all inputs joined in one operator).
    MultiwayJoin,
}

impl OperatorKind {
    /// Stable lower-snake name, used in JSON and EXPLAIN output.
    pub fn name(self) -> &'static str {
        match self {
            OperatorKind::HashJoin => "hash_join",
            OperatorKind::Semijoin => "semijoin",
            OperatorKind::MultiwayJoin => "multiway_join",
        }
    }
}

impl fmt::Display for OperatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured observation from a solver run.
///
/// Events are coarse by design — aggregate counters per operator, per
/// propagation pass, per ladder tier — so emitting them never touches a
/// per-row loop. Every variant serialises to one JSON object via
/// [`TraceEvent::to_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A governed-ladder tier is about to run.
    TierStart {
        /// Strategy name (`"yannakakis"`, `"treewidth"`, ...).
        strategy: &'static str,
    },
    /// A governed-ladder tier finished.
    TierEnd {
        /// Strategy name.
        strategy: &'static str,
        /// Outcome summary (`"decided"`, `"skipped: ..."`,
        /// `"exhausted: ..."`, `"inconclusive"`).
        outcome: String,
        /// Wall time the tier consumed, in microseconds.
        micros: u64,
        /// Meter steps the tier consumed.
        steps: u64,
        /// Meter tuples the tier charged.
        tuples: u64,
    },
    /// A phase ran out of budget.
    Exhausted {
        /// Which phase (strategy or algorithm name) was running.
        phase: &'static str,
        /// The latched exhaustion reason.
        reason: ExhaustionReason,
    },
    /// Aggregate statistics of one backtracking-search run.
    Search {
        /// Search nodes expanded.
        nodes: u64,
        /// Backtracks taken.
        backtracks: u64,
        /// Arc/constraint revisions performed during propagation.
        revisions: u64,
        /// Solutions found (0 or 1 for decision runs).
        solutions: u64,
    },
    /// Aggregate statistics of one local-consistency propagation pass.
    Propagation {
        /// Algorithm name (`"ac3"`, ...).
        algorithm: &'static str,
        /// Arc revisions performed.
        revisions: u64,
        /// Candidate values removed from domains.
        removals: u64,
        /// True if some domain was wiped out (inconsistency detected).
        wipeout: bool,
    },
    /// Aggregate statistics of one (strong) k-consistency computation.
    KConsistency {
        /// The `k` of the existential pebble game.
        k: usize,
        /// Candidate partial homomorphisms generated.
        candidates: u64,
        /// Candidates surviving the greatest-fixpoint deletion loop.
        survivors: u64,
    },
    /// A join order chosen by the connectivity-aware planner.
    PlanChosen {
        /// Number of relations planned over.
        relations: usize,
        /// Chosen join order (indices into the planner's input).
        order: Vec<u32>,
        /// Estimated cardinality after each step of `order`.
        est_rows: Vec<u64>,
        /// Positions in `order` the planner was forced to execute as
        /// explicit cross products (disconnected join graph).
        cross_steps: Vec<u32>,
        /// Which join engine executes the plan (`"binary"` for the
        /// left-deep hash-join pipeline, `"wcoj"` for the
        /// worst-case-optimal leapfrog engine).
        engine: &'static str,
        /// Why that engine was chosen (cost comparison or structural
        /// fallback), for `--explain` output.
        reason: String,
    },
    /// One attribute level of a worst-case-optimal (leapfrog) multiway
    /// join: how many candidate bindings the intersection at this depth
    /// produced across the whole run.
    WcojLevel {
        /// Depth in the global attribute order (0 = outermost).
        level: u32,
        /// The attribute bound at this level.
        attr: u32,
        /// Relations participating in the intersection at this level.
        relations: u32,
        /// Bindings that survived the intersection at this level.
        matches: u64,
    },
    /// A hash index was built over a relation's key attributes.
    IndexBuilt {
        /// Width of the index key (number of attributes).
        attrs: usize,
        /// Rows indexed.
        rows: u64,
        /// Distinct key values in the index.
        distinct_keys: u64,
    },
    /// One relational operator application with its cardinalities.
    Operator {
        /// Which operator ran.
        op: OperatorKind,
        /// Rows on the left (probe) input.
        left_rows: u64,
        /// Rows on the right (build) input.
        right_rows: u64,
        /// Rows in the output (for semijoins: surviving left rows).
        output_rows: u64,
        /// Wall time of the operator, in microseconds.
        micros: u64,
    },
    /// One semijoin sweep of the Yannakakis full reducer.
    YannakakisSweep {
        /// `"bottom_up"` or `"top_down"`.
        direction: &'static str,
        /// Number of semijoins applied in the sweep.
        semijoins: u64,
    },
    /// Shape of a tree decomposition handed to the DP solver.
    Decomposition {
        /// Width (largest bag size minus one).
        width: usize,
        /// Number of bags.
        bags: usize,
        /// Size of the largest bag.
        largest_bag: usize,
    },
    /// One bag table materialised by the treewidth DP.
    DpTable {
        /// Bag index in the decomposition.
        bag: usize,
        /// Number of variables in the bag.
        bag_size: usize,
        /// Satisfying assignments stored for the bag.
        rows: u64,
    },
    /// One semi-naive Datalog iteration.
    DatalogIteration {
        /// Iteration number (0 is the initial full round).
        iteration: u64,
        /// Facts newly derived this iteration.
        delta_facts: u64,
        /// Total facts derived so far.
        total_facts: u64,
    },
    /// Summary of a certain-answer computation over RPQ views.
    RpqCertain {
        /// Candidate pairs checked.
        pairs: u64,
        /// Pairs certain under all view instantiations.
        certain: u64,
    },
    /// A service request passed admission control and was queued.
    RequestAdmitted {
        /// Client-assigned request id.
        id: u64,
        /// Which lane the cost gate routed it to (`"normal"`/`"heavy"`).
        lane: &'static str,
    },
    /// A service request was rejected at admission.
    RequestRejected {
        /// Client-assigned request id.
        id: u64,
        /// Why (`"overloaded: ..."`, `"shutting down"`).
        reason: String,
    },
    /// A semantic-cache hit: a stored answer was reused after its key
    /// was confirmed by homomorphic equivalence.
    CacheHit {
        /// Database name the cached answer was computed against.
        db: String,
        /// Database version the entry is keyed by.
        version: u64,
        /// Cheap invariant hash of the query core (bucket key).
        invariant: u64,
    },
    /// A semantic-cache miss: the answer was computed cold.
    CacheMiss {
        /// Database name.
        db: String,
        /// Database version.
        version: u64,
        /// Cheap invariant hash of the query core (bucket key).
        invariant: u64,
    },
    /// Service shutdown began; the queue drains and (in cancel mode)
    /// in-flight work is cancelled through child tokens.
    ShutdownDrain {
        /// Requests still queued when shutdown began.
        queued: u64,
        /// Requests executing when shutdown began.
        inflight: u64,
    },
    /// A worker's request execution panicked; the panic was isolated,
    /// the request answered with a typed internal error, and the worker
    /// thread survived.
    WorkerPanicked {
        /// Client-assigned request id.
        id: u64,
        /// The lane whose worker caught the panic.
        lane: &'static str,
    },
    /// A request was shed because its deadline could not be met —
    /// either estimated at admission or already passed at dequeue.
    RequestExpired {
        /// Client-assigned request id.
        id: u64,
        /// Where the shed happened (`"admission"`/`"dequeue"`).
        at: &'static str,
        /// Microseconds the request had waited when shed.
        waited_micros: u64,
    },
    /// A heavy-lane CQ request was degraded to the normal lane's
    /// budget-sliced cheap tier instead of being rejected.
    RequestDegraded {
        /// Client-assigned request id.
        id: u64,
    },
    /// A durable snapshot of a named database was written to disk.
    SnapshotWritten {
        /// Database name.
        db: String,
        /// Version the snapshot captures.
        version: u64,
        /// Size of the snapshot record in bytes.
        bytes: u64,
    },
    /// A named database's snapshot and append log were replayed at
    /// startup.
    LogReplayed {
        /// Database name.
        db: String,
        /// Version recovered (highest valid record).
        version: u64,
        /// Valid log records replayed on top of the snapshot.
        records: u64,
        /// True when a torn (partially written or corrupt) tail was
        /// found and truncated during replay.
        torn_truncated: bool,
    },
    /// An append log crossed the compaction threshold and was folded
    /// into a fresh snapshot.
    LogCompacted {
        /// Database name.
        db: String,
        /// Version of the fresh snapshot.
        version: u64,
        /// Log records folded away.
        folded: u64,
    },
    /// A client connection was accepted by the service's listener.
    ConnectionOpened {
        /// Server-assigned connection id (monotone per process).
        conn: u64,
        /// Peer address as reported by the socket.
        peer: String,
    },
    /// A client connection ended and its handler exited.
    ConnectionClosed {
        /// Server-assigned connection id.
        conn: u64,
        /// Requests the connection submitted over its lifetime.
        requests: u64,
        /// True when the stream ended in an orderly EOF; false when the
        /// handler dropped it after an I/O error or idle timeout.
        clean: bool,
    },
    /// A client connection sat idle past the read timeout and was
    /// dropped to protect the pool from slowloris-style occupancy.
    ConnectionTimedOut {
        /// Server-assigned connection id.
        conn: u64,
        /// The idle timeout that was exceeded, in milliseconds.
        idle_ms: u64,
    },
    /// A single-tuple delta (insert or delete) was applied to a named
    /// database, bumping its version without a full snapshot put.
    DeltaApplied {
        /// Database name.
        db: String,
        /// Version after the delta.
        version: u64,
        /// Relation the tuple was inserted into / deleted from.
        rel: String,
        /// `"insert"` or `"delete"`.
        op: &'static str,
        /// False when the delta was a no-op (duplicate insert or
        /// delete of an absent tuple); the version is not bumped then.
        applied: bool,
    },
    /// A materialized view absorbed a delta through its incremental
    /// maintenance path (counting for CQs, template-reuse for RPQ).
    ViewRefreshed {
        /// View name (query name or registered label).
        view: String,
        /// Answer tuples the delta added to the view.
        added: u64,
        /// Answer tuples the delta removed from the view.
        removed: u64,
        /// Answer tuples after the refresh.
        total: u64,
    },
    /// A recursive view ran its DRed over-delete/re-derive cycle for a
    /// deletion (deletes may cascade, so over-deletion is followed by
    /// re-derivation of still-supported facts).
    ViewRederived {
        /// View name.
        view: String,
        /// Facts over-deleted in the pessimistic first phase.
        overdeleted: u64,
        /// Over-deleted facts re-derived from surviving support.
        rederived: u64,
        /// Facts in the view's IDB after the cycle.
        total: u64,
    },
}

/// Escapes `s` for embedding in a JSON string literal: `"`, `\` and
/// the control characters become escapes, everything else passes
/// through. The one escaper of the workspace: trace events, `EXPLAIN`
/// JSON and the service protocol all write strings through it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl TraceEvent {
    /// Stable lower-snake event name (the `"event"` field of
    /// [`to_json`](Self::to_json)).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TierStart { .. } => "tier_start",
            TraceEvent::TierEnd { .. } => "tier_end",
            TraceEvent::Exhausted { .. } => "exhausted",
            TraceEvent::Search { .. } => "search",
            TraceEvent::Propagation { .. } => "propagation",
            TraceEvent::KConsistency { .. } => "k_consistency",
            TraceEvent::PlanChosen { .. } => "plan_chosen",
            TraceEvent::WcojLevel { .. } => "wcoj_level",
            TraceEvent::IndexBuilt { .. } => "index_built",
            TraceEvent::Operator { .. } => "operator",
            TraceEvent::YannakakisSweep { .. } => "yannakakis_sweep",
            TraceEvent::Decomposition { .. } => "decomposition",
            TraceEvent::DpTable { .. } => "dp_table",
            TraceEvent::DatalogIteration { .. } => "datalog_iteration",
            TraceEvent::RpqCertain { .. } => "rpq_certain",
            TraceEvent::RequestAdmitted { .. } => "request_admitted",
            TraceEvent::RequestRejected { .. } => "request_rejected",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::CacheMiss { .. } => "cache_miss",
            TraceEvent::ShutdownDrain { .. } => "shutdown_drain",
            TraceEvent::WorkerPanicked { .. } => "worker_panicked",
            TraceEvent::RequestExpired { .. } => "request_expired",
            TraceEvent::RequestDegraded { .. } => "request_degraded",
            TraceEvent::SnapshotWritten { .. } => "snapshot_written",
            TraceEvent::LogReplayed { .. } => "log_replayed",
            TraceEvent::LogCompacted { .. } => "log_compacted",
            TraceEvent::ConnectionOpened { .. } => "connection_opened",
            TraceEvent::ConnectionClosed { .. } => "connection_closed",
            TraceEvent::ConnectionTimedOut { .. } => "connection_timed_out",
            TraceEvent::DeltaApplied { .. } => "delta_applied",
            TraceEvent::ViewRefreshed { .. } => "view_refreshed",
            TraceEvent::ViewRederived { .. } => "view_rederived",
        }
    }

    /// Serialises the event as one self-contained JSON object.
    ///
    /// The encoding is hand-rolled (the workspace has no serde); all
    /// field names are stable snake_case and all numbers are plain
    /// decimal, so the output is line-oriented-tooling friendly.
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"event\":\"{}\"", self.kind());
        match self {
            TraceEvent::TierStart { strategy } => {
                s.push_str(&format!(",\"strategy\":\"{}\"", json_escape(strategy)));
            }
            TraceEvent::TierEnd {
                strategy,
                outcome,
                micros,
                steps,
                tuples,
            } => {
                s.push_str(&format!(
                    ",\"strategy\":\"{}\",\"outcome\":\"{}\",\"micros\":{micros},\"steps\":{steps},\"tuples\":{tuples}",
                    json_escape(strategy),
                    json_escape(outcome)
                ));
            }
            TraceEvent::Exhausted { phase, reason } => {
                s.push_str(&format!(
                    ",\"phase\":\"{}\",\"reason\":\"{}\"",
                    json_escape(phase),
                    json_escape(&reason.to_string())
                ));
            }
            TraceEvent::Search {
                nodes,
                backtracks,
                revisions,
                solutions,
            } => {
                s.push_str(&format!(
                    ",\"nodes\":{nodes},\"backtracks\":{backtracks},\"revisions\":{revisions},\"solutions\":{solutions}"
                ));
            }
            TraceEvent::Propagation {
                algorithm,
                revisions,
                removals,
                wipeout,
            } => {
                s.push_str(&format!(
                    ",\"algorithm\":\"{}\",\"revisions\":{revisions},\"removals\":{removals},\"wipeout\":{wipeout}",
                    json_escape(algorithm)
                ));
            }
            TraceEvent::KConsistency {
                k,
                candidates,
                survivors,
            } => {
                s.push_str(&format!(
                    ",\"k\":{k},\"candidates\":{candidates},\"survivors\":{survivors}"
                ));
            }
            TraceEvent::PlanChosen {
                relations,
                order,
                est_rows,
                cross_steps,
                engine,
                reason,
            } => {
                let join = |xs: &[u64]| xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
                let order_s = order
                    .iter()
                    .map(u32::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                let cross_s = cross_steps
                    .iter()
                    .map(u32::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                s.push_str(&format!(
                    ",\"relations\":{relations},\"order\":[{order_s}],\"est_rows\":[{}],\"cross_steps\":[{cross_s}],\"engine\":\"{}\",\"reason\":\"{}\"",
                    join(est_rows),
                    json_escape(engine),
                    json_escape(reason)
                ));
            }
            TraceEvent::WcojLevel {
                level,
                attr,
                relations,
                matches,
            } => {
                s.push_str(&format!(
                    ",\"level\":{level},\"attr\":{attr},\"relations\":{relations},\"matches\":{matches}"
                ));
            }
            TraceEvent::IndexBuilt {
                attrs,
                rows,
                distinct_keys,
            } => {
                s.push_str(&format!(
                    ",\"attrs\":{attrs},\"rows\":{rows},\"distinct_keys\":{distinct_keys}"
                ));
            }
            TraceEvent::Operator {
                op,
                left_rows,
                right_rows,
                output_rows,
                micros,
            } => {
                s.push_str(&format!(
                    ",\"op\":\"{}\",\"left_rows\":{left_rows},\"right_rows\":{right_rows},\"output_rows\":{output_rows},\"micros\":{micros}",
                    op.name()
                ));
            }
            TraceEvent::YannakakisSweep {
                direction,
                semijoins,
            } => {
                s.push_str(&format!(
                    ",\"direction\":\"{}\",\"semijoins\":{semijoins}",
                    json_escape(direction)
                ));
            }
            TraceEvent::Decomposition {
                width,
                bags,
                largest_bag,
            } => {
                s.push_str(&format!(
                    ",\"width\":{width},\"bags\":{bags},\"largest_bag\":{largest_bag}"
                ));
            }
            TraceEvent::DpTable {
                bag,
                bag_size,
                rows,
            } => {
                s.push_str(&format!(
                    ",\"bag\":{bag},\"bag_size\":{bag_size},\"rows\":{rows}"
                ));
            }
            TraceEvent::DatalogIteration {
                iteration,
                delta_facts,
                total_facts,
            } => {
                s.push_str(&format!(
                    ",\"iteration\":{iteration},\"delta_facts\":{delta_facts},\"total_facts\":{total_facts}"
                ));
            }
            TraceEvent::RpqCertain { pairs, certain } => {
                s.push_str(&format!(",\"pairs\":{pairs},\"certain\":{certain}"));
            }
            TraceEvent::RequestAdmitted { id, lane } => {
                s.push_str(&format!(",\"id\":{id},\"lane\":\"{}\"", json_escape(lane)));
            }
            TraceEvent::RequestRejected { id, reason } => {
                s.push_str(&format!(
                    ",\"id\":{id},\"reason\":\"{}\"",
                    json_escape(reason)
                ));
            }
            TraceEvent::CacheHit {
                db,
                version,
                invariant,
            }
            | TraceEvent::CacheMiss {
                db,
                version,
                invariant,
            } => {
                s.push_str(&format!(
                    ",\"db\":\"{}\",\"version\":{version},\"invariant\":{invariant}",
                    json_escape(db)
                ));
            }
            TraceEvent::ShutdownDrain { queued, inflight } => {
                s.push_str(&format!(",\"queued\":{queued},\"inflight\":{inflight}"));
            }
            TraceEvent::WorkerPanicked { id, lane } => {
                s.push_str(&format!(",\"id\":{id},\"lane\":\"{}\"", json_escape(lane)));
            }
            TraceEvent::RequestExpired {
                id,
                at,
                waited_micros,
            } => {
                s.push_str(&format!(
                    ",\"id\":{id},\"at\":\"{}\",\"waited_micros\":{waited_micros}",
                    json_escape(at)
                ));
            }
            TraceEvent::RequestDegraded { id } => {
                s.push_str(&format!(",\"id\":{id}"));
            }
            TraceEvent::SnapshotWritten { db, version, bytes } => {
                s.push_str(&format!(
                    ",\"db\":\"{}\",\"version\":{version},\"bytes\":{bytes}",
                    json_escape(db)
                ));
            }
            TraceEvent::LogReplayed {
                db,
                version,
                records,
                torn_truncated,
            } => {
                s.push_str(&format!(
                    ",\"db\":\"{}\",\"version\":{version},\"records\":{records},\"torn_truncated\":{torn_truncated}",
                    json_escape(db)
                ));
            }
            TraceEvent::LogCompacted {
                db,
                version,
                folded,
            } => {
                s.push_str(&format!(
                    ",\"db\":\"{}\",\"version\":{version},\"folded\":{folded}",
                    json_escape(db)
                ));
            }
            TraceEvent::ConnectionOpened { conn, peer } => {
                s.push_str(&format!(
                    ",\"conn\":{conn},\"peer\":\"{}\"",
                    json_escape(peer)
                ));
            }
            TraceEvent::ConnectionClosed {
                conn,
                requests,
                clean,
            } => {
                s.push_str(&format!(
                    ",\"conn\":{conn},\"requests\":{requests},\"clean\":{clean}"
                ));
            }
            TraceEvent::ConnectionTimedOut { conn, idle_ms } => {
                s.push_str(&format!(",\"conn\":{conn},\"idle_ms\":{idle_ms}"));
            }
            TraceEvent::DeltaApplied {
                db,
                version,
                rel,
                op,
                applied,
            } => {
                s.push_str(&format!(
                    ",\"db\":\"{}\",\"version\":{version},\"rel\":\"{}\",\"op\":\"{}\",\"applied\":{applied}",
                    json_escape(db),
                    json_escape(rel),
                    json_escape(op)
                ));
            }
            TraceEvent::ViewRefreshed {
                view,
                added,
                removed,
                total,
            } => {
                s.push_str(&format!(
                    ",\"view\":\"{}\",\"added\":{added},\"removed\":{removed},\"total\":{total}",
                    json_escape(view)
                ));
            }
            TraceEvent::ViewRederived {
                view,
                overdeleted,
                rederived,
                total,
            } => {
                s.push_str(&format!(
                    ",\"view\":\"{}\",\"overdeleted\":{overdeleted},\"rederived\":{rederived},\"total\":{total}",
                    json_escape(view)
                ));
            }
        }
        s.push('}');
        s
    }
}

/// Destination for [`TraceEvent`]s.
///
/// Sinks must be shareable across the server's worker threads (events
/// may arrive concurrently), hence the `Send + Sync` bound and the
/// `&self` receiver.
pub trait TraceSink: Send + Sync {
    /// Receives one event. May be called from multiple threads.
    fn record(&self, event: &TraceEvent);

    /// Whether the sink wants events at all. A sink returning `false`
    /// (like [`NullSink`]) makes the whole tracer inert: emit closures
    /// never run and no operator clocks are read — this is what the
    /// "< 2% overhead with tracing disabled" contract measures.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// A sink that drops every event and reports itself disabled, so a
/// tracer built over it behaves exactly like no tracer at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: &TraceEvent) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// An in-memory sink buffering events in arrival order. Powers the
/// `EXPLAIN` report and the trace-accounting property tests.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Mutex<Vec<TraceEvent>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of every event recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("recorder lock poisoned").clone()
    }

    /// Drains and returns the recorded events.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("recorder lock poisoned"))
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("recorder lock poisoned").len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for Recorder {
    fn record(&self, event: &TraceEvent) {
        self.events
            .lock()
            .expect("recorder lock poisoned")
            .push(event.clone());
    }
}

/// A sink writing one JSON object per line to any `Write` target.
pub struct JsonLinesSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps `writer`; each event becomes one `\n`-terminated line.
    pub fn new(writer: W) -> Self {
        Self {
            writer: Mutex::new(writer),
        }
    }

    /// Unwraps the sink, returning the writer (flushing is the
    /// caller's business).
    pub fn into_inner(self) -> W {
        self.writer.into_inner().expect("json sink lock poisoned")
    }
}

impl<W: Write + Send> TraceSink for JsonLinesSink<W> {
    fn record(&self, event: &TraceEvent) {
        let mut w = self.writer.lock().expect("json sink lock poisoned");
        // Tracing is best-effort: a full disk must not abort a solve.
        let _ = writeln!(w, "{}", event.to_json());
    }
}

impl<W: Write + Send> fmt::Debug for JsonLinesSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonLinesSink").finish_non_exhaustive()
    }
}

/// A sink broadcasting every event to several downstream sinks, so one
/// run can feed both a [`Recorder`] (for `EXPLAIN`) and a
/// [`JsonLinesSink`] (for `--trace=FILE`) at once.
///
/// Disabled downstreams are skipped at record time, and a fanout whose
/// downstreams are all disabled reports itself disabled, keeping the
/// tracer inert.
pub struct Fanout {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl Fanout {
    /// Broadcasts to `sinks` (order preserved).
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        Self { sinks }
    }
}

impl TraceSink for Fanout {
    fn record(&self, event: &TraceEvent) {
        for sink in &self.sinks {
            if sink.is_enabled() {
                sink.record(event);
            }
        }
    }

    fn is_enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.is_enabled())
    }
}

impl fmt::Debug for Fanout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fanout")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

/// The handle algorithms emit through, carried by every meter.
///
/// A tracer is either *disabled* (the default — one cached-bool branch
/// per emit site, nothing else) or *active* over a shared
/// [`TraceSink`]. Cloning shares the sink.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<dyn TraceSink>>,
    active: bool,
}

impl Tracer {
    /// The inert tracer: every emit is a single predictable branch.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A tracer delivering events to `sink`. If the sink reports
    /// itself disabled (see [`TraceSink::is_enabled`]), the tracer is
    /// inert exactly like [`Tracer::disabled`].
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        let active = sink.is_enabled();
        Self {
            sink: Some(sink),
            active,
        }
    }

    /// True if emitted events actually reach a sink.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Emits the event built by `f` — but only when active; a disabled
    /// tracer never runs the closure.
    #[inline]
    pub fn emit_with<F: FnOnce() -> TraceEvent>(&self, f: F) {
        if self.active {
            if let Some(sink) = &self.sink {
                sink.record(&f());
            }
        }
    }

    /// Starts a wall-clock span: `Some(now)` when active, `None` when
    /// disabled (so inert tracers never read the clock).
    #[inline]
    pub fn span_start(&self) -> Option<Instant> {
        if self.active {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Microseconds elapsed since [`span_start`](Self::span_start)
    /// (0 for a disabled span).
    #[inline]
    pub fn span_micros(span: Option<Instant>) -> u64 {
        span.map(|t| t.elapsed().as_micros() as u64).unwrap_or(0)
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("active", &self.active)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_runs_closures() {
        let t = Tracer::disabled();
        t.emit_with(|| panic!("closure must not run"));
        assert!(!t.is_active());
        assert_eq!(t.span_start(), None);
        assert_eq!(Tracer::span_micros(None), 0);
    }

    #[test]
    fn null_sink_makes_tracer_inert() {
        let t = Tracer::new(Arc::new(NullSink));
        assert!(!t.is_active());
        t.emit_with(|| panic!("closure must not run under NullSink"));
    }

    #[test]
    fn recorder_buffers_in_order() {
        let rec = Arc::new(Recorder::new());
        let t = Tracer::new(rec.clone());
        assert!(t.is_active());
        t.emit_with(|| TraceEvent::TierStart {
            strategy: "yannakakis",
        });
        t.emit_with(|| TraceEvent::Exhausted {
            phase: "treewidth",
            reason: ExhaustionReason::Cancelled,
        });
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind(), "tier_start");
        assert_eq!(events[1].kind(), "exhausted");
        assert_eq!(rec.take().len(), 2);
        assert!(rec.is_empty());
    }

    #[test]
    fn json_lines_sink_writes_one_object_per_line() {
        let sink = JsonLinesSink::new(Vec::<u8>::new());
        sink.record(&TraceEvent::Operator {
            op: OperatorKind::HashJoin,
            left_rows: 3,
            right_rows: 4,
            output_rows: 5,
            micros: 17,
        });
        sink.record(&TraceEvent::Exhausted {
            phase: "backtracking",
            reason: ExhaustionReason::StepLimitExceeded,
        });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"event\":\"operator\""));
        assert!(lines[0].contains("\"op\":\"hash_join\""));
        assert!(lines[0].contains("\"output_rows\":5"));
        assert!(lines[1].contains("\"reason\":\"step limit exceeded\""));
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let ev = TraceEvent::TierEnd {
            strategy: "backtracking",
            outcome: "skipped: \"winner\"".into(),
            micros: 0,
            steps: 0,
            tuples: 0,
        };
        let json = ev.to_json();
        assert!(json.contains("\\\"winner\\\""));
    }

    #[test]
    fn every_event_kind_serialises() {
        let events = [
            TraceEvent::TierStart { strategy: "s" },
            TraceEvent::TierEnd {
                strategy: "s",
                outcome: "decided".into(),
                micros: 1,
                steps: 2,
                tuples: 3,
            },
            TraceEvent::Exhausted {
                phase: "p",
                reason: ExhaustionReason::DeadlineExceeded,
            },
            TraceEvent::Search {
                nodes: 1,
                backtracks: 2,
                revisions: 3,
                solutions: 1,
            },
            TraceEvent::Propagation {
                algorithm: "ac3",
                revisions: 9,
                removals: 4,
                wipeout: false,
            },
            TraceEvent::KConsistency {
                k: 3,
                candidates: 10,
                survivors: 7,
            },
            TraceEvent::PlanChosen {
                relations: 3,
                order: vec![2, 0, 1],
                est_rows: vec![10, 40, 12],
                cross_steps: vec![1],
                engine: "binary",
                reason: "acyclic join graph".into(),
            },
            TraceEvent::WcojLevel {
                level: 0,
                attr: 2,
                relations: 3,
                matches: 17,
            },
            TraceEvent::IndexBuilt {
                attrs: 2,
                rows: 40,
                distinct_keys: 11,
            },
            TraceEvent::Operator {
                op: OperatorKind::Semijoin,
                left_rows: 5,
                right_rows: 6,
                output_rows: 4,
                micros: 2,
            },
            TraceEvent::YannakakisSweep {
                direction: "bottom_up",
                semijoins: 8,
            },
            TraceEvent::Decomposition {
                width: 2,
                bags: 5,
                largest_bag: 3,
            },
            TraceEvent::DpTable {
                bag: 0,
                bag_size: 3,
                rows: 12,
            },
            TraceEvent::DatalogIteration {
                iteration: 2,
                delta_facts: 5,
                total_facts: 40,
            },
            TraceEvent::RpqCertain {
                pairs: 16,
                certain: 3,
            },
            TraceEvent::RequestAdmitted {
                id: 7,
                lane: "heavy",
            },
            TraceEvent::RequestRejected {
                id: 8,
                reason: "overloaded: heavy lane full".into(),
            },
            TraceEvent::CacheHit {
                db: "g".into(),
                version: 2,
                invariant: 0xbeef,
            },
            TraceEvent::CacheMiss {
                db: "g".into(),
                version: 2,
                invariant: 0xbeef,
            },
            TraceEvent::ShutdownDrain {
                queued: 3,
                inflight: 2,
            },
            TraceEvent::WorkerPanicked {
                id: 11,
                lane: "heavy",
            },
            TraceEvent::RequestExpired {
                id: 12,
                at: "dequeue",
                waited_micros: 1500,
            },
            TraceEvent::RequestDegraded { id: 13 },
            TraceEvent::SnapshotWritten {
                db: "g".into(),
                version: 3,
                bytes: 512,
            },
            TraceEvent::LogReplayed {
                db: "g".into(),
                version: 3,
                records: 2,
                torn_truncated: true,
            },
            TraceEvent::LogCompacted {
                db: "g".into(),
                version: 3,
                folded: 8,
            },
            TraceEvent::ConnectionOpened {
                conn: 4,
                peer: "127.0.0.1:5000".into(),
            },
            TraceEvent::ConnectionClosed {
                conn: 4,
                requests: 17,
                clean: true,
            },
            TraceEvent::ConnectionTimedOut {
                conn: 5,
                idle_ms: 2000,
            },
            TraceEvent::DeltaApplied {
                db: "g".into(),
                version: 4,
                rel: "E".into(),
                op: "insert",
                applied: true,
            },
            TraceEvent::ViewRefreshed {
                view: "Q".into(),
                added: 2,
                removed: 0,
                total: 9,
            },
            TraceEvent::ViewRederived {
                view: "T".into(),
                overdeleted: 5,
                rederived: 3,
                total: 21,
            },
        ];
        for ev in &events {
            let json = ev.to_json();
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            assert!(json.contains(&format!("\"event\":\"{}\"", ev.kind())));
        }
    }

    #[test]
    fn fanout_broadcasts_and_tracks_enablement() {
        let a = Arc::new(Recorder::new());
        let b = Arc::new(Recorder::new());
        let fan = Fanout::new(vec![a.clone(), Arc::new(NullSink), b.clone()]);
        assert!(fan.is_enabled());
        fan.record(&TraceEvent::RequestAdmitted {
            id: 1,
            lane: "normal",
        });
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        let inert = Fanout::new(vec![Arc::new(NullSink)]);
        assert!(!inert.is_enabled());
        let t = Tracer::new(Arc::new(inert));
        t.emit_with(|| panic!("all-disabled fanout must be inert"));
    }
}
