//! One untraced run of one workload: rounds of set-up, open loop and
//! closed loop on a fresh server (and, for `write_storm`, a final
//! kill-and-restart), every response checked against the oracle.

use crate::check::Checker;
use crate::client::{
    closed_loop, cpu_ms_of, latencies, open_loop, GenReport, Lane, Phase, Record, ServerProc,
};
use crate::gen::{self, Class, ConnGen, Expect, Plan, Req, Toggle, Workload};
use crate::oracle::{Atom, Query};
use crate::stats::{median, percentile};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The end-to-end metrics of the result line, as `BENCHMARK.json`
/// lists them. Tail percentiles are printed but not bounded: on a
/// shared two-core machine their run-to-run spread exceeds any bound a
/// regression check could use.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "p50_ms",
    "read_p50_ms",
    "throughput_rps",
    "server_rss_mb",
];
/// Rounds per run. Each starts a fresh server with fresh connections,
/// sets it up and runs both loops over the same input; every metric is
/// the median over rounds, except throughput, which is the best round. On two cores, where the scheduler places a
/// connection's threads moves sub-millisecond latencies by a quarter
/// between otherwise identical runs, and it is decided once per
/// connection: rounds draw it again within a run.
pub const ROUNDS: usize = 5;
/// Requests each closed-loop connection keeps outstanding. Also the
/// warm-up window: a connection's fair share of the heavy lane's queue.
const CLOSED_DEPTH: usize = 4;
/// Share of `--seconds` given to the open loop; the closed loop gets
/// the rest.
const OPEN_SHARE: f64 = 0.6;
/// The generator must send 99% of requests within this of their due
/// time, or the run is invalid.
const MAX_LATE_P99_MS: f64 = 1.0;

/// Where a run finds the server binary and keeps its files.
pub struct Env {
    pub server_bin: PathBuf,
    /// Scratch space of this invocation, removed when it ends.
    pub work_dir: PathBuf,
    /// Where traced runs leave their span files.
    pub out_dir: PathBuf,
    /// Load threads, one connection each: `min(2, nproc)`.
    pub conns: usize,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub attempted: usize,
    pub failed: usize,
    /// The generator stayed on schedule (see [`MAX_LATE_P99_MS`]).
    pub valid: bool,
    /// The metrics of the result line: end-to-end (untraced) or
    /// per-layer (traced).
    pub metrics: Vec<Metric>,
    /// Everything else worth printing: per-class latencies, recovery,
    /// error rate, generator health, workload-specific layers.
    pub extras: Vec<Metric>,
    pub failures: Vec<String>,
    /// Human-readable report lines (the per-layer table).
    pub report: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.valid
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.extras)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

pub type Result<T> = std::result::Result<T, String>;

pub fn io<T>(r: std::io::Result<T>, what: &str) -> Result<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// The writes each database received, merged from the generators that
/// own them (each database is written by at most one connection).
fn merged_writes(gens: &[ConnGen], dbs: usize) -> Vec<Vec<Toggle>> {
    (0..dbs)
        .map(|db| {
            gens.iter()
                .map(|g| g.writes[db].clone())
                .max_by_key(Vec::len)
                .unwrap_or_default()
        })
        .collect()
}

/// Checks every record; returns whether each passed, and the first few
/// failure messages.
pub fn verify(plan: &Plan, records: &[Record]) -> (Vec<bool>, Vec<String>) {
    let writes = merged_writes(&plan.gens, plan.dbs.len());
    let mut checker = Checker::new(&plan.dbs, &writes);
    let mut messages = Vec::new();
    let passed = records
        .iter()
        .map(|rec| match checker.check(rec) {
            Ok(()) => true,
            Err(e) => {
                if messages.len() < 5 {
                    messages.push(e);
                }
                false
            }
        })
        .collect();
    (passed, messages)
}

/// The warm-up requests of every connection, generated once so each
/// repeated set-up sends the same lines.
pub fn warmups(plan: &mut Plan, conns: usize) -> Vec<Vec<Req>> {
    let dbs = &plan.dbs;
    plan.gens.iter_mut().map(|g| g.warmup(dbs, conns)).collect()
}

/// Opens one connection per address and runs set-up on them: every
/// `put` on the first, then each connection's warm-up.
pub fn set_up(addrs: &[SocketAddr], plan: &Plan, warm: &[Vec<Req>]) -> Result<Vec<Lane>> {
    let mut lanes = Vec::with_capacity(addrs.len());
    for &addr in addrs {
        lanes.push(io(Lane::connect(addr, plan.dbs.len()), "connect")?);
    }
    io(
        lanes[0].batch(plan.puts(), Phase::Setup, CLOSED_DEPTH),
        "put",
    )?;
    for (lane, reqs) in lanes.iter_mut().zip(warm) {
        io(
            lane.batch(reqs.clone(), Phase::Setup, CLOSED_DEPTH),
            "warm-up",
        )?;
    }
    Ok(lanes)
}

/// Runs one open-loop phase of `secs` on every lane in parallel.
/// Returns the lanes and what the generator did on all of them.
fn run_open(
    lanes: Vec<Lane>,
    plan: &mut Plan,
    seed: u64,
    secs: f64,
) -> Result<(Vec<Lane>, GenReport)> {
    let conns = lanes.len();
    let dbs = &plan.dbs;
    let schedules: Vec<Vec<(u64, Req)>> = plan
        .gens
        .iter_mut()
        .enumerate()
        .map(|(c, g)| {
            gen::arrivals(seed, plan.workload, c, conns, secs)
                .into_iter()
                .map(|at| (at, g.next(dbs)))
                .collect()
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .zip(schedules)
            .map(|(mut lane, schedule)| {
                s.spawn(move || open_loop(&mut lane, schedule, start).map(|r| (lane, r)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut lanes = Vec::with_capacity(conns);
    let mut total = GenReport::default();
    for r in results {
        let (lane, report) = io(r, "open loop")?;
        total.late_ms.extend(report.late_ms);
        total.held += report.held;
        total.backlog_end += report.backlog_end;
        lanes.push(lane);
    }
    Ok((lanes, total))
}

/// Runs the closed loop until `end` on every lane in parallel.
fn run_closed(lanes: Vec<Lane>, plan: &mut Plan, end: Instant) -> Result<Vec<Lane>> {
    let dbs = &plan.dbs;
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .zip(plan.gens.iter_mut())
            .map(|(mut lane, g)| {
                s.spawn(move || closed_loop(&mut lane, g, dbs, CLOSED_DEPTH, end).map(|()| lane))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    results.into_iter().map(|r| io(r, "closed loop")).collect()
}

/// The timed phases of one round, as the load generator saw them.
pub struct Driven {
    pub records: Vec<Record>,
    /// The open loop's generator report, summed over connections.
    pub gen: GenReport,
    pub closed_secs: f64,
    pub closed_end: Instant,
}

/// Runs the open loop, then `after_open`, then the closed loop on
/// set-up lanes, and closes them.
pub fn drive(
    lanes: Vec<Lane>,
    plan: &mut Plan,
    seed: u64,
    seconds: f64,
    after_open: impl FnOnce(),
) -> Result<Driven> {
    let open_secs = seconds * OPEN_SHARE;
    let (lanes, gen) = run_open(lanes, plan, seed, open_secs)?;
    after_open();
    let closed_secs = seconds - open_secs;
    let closed_end = Instant::now() + Duration::from_secs_f64(closed_secs);
    let lanes = run_closed(lanes, plan, closed_end)?;
    Ok(Driven {
        records: lanes.into_iter().flat_map(Lane::close).collect(),
        gen,
        closed_secs,
        closed_end,
    })
}

/// The metrics of one driven round whose records were checked
/// (`passed`): open-loop latencies, closed-loop throughput, request
/// counts.
pub fn served(workload: Workload, d: &Driven, passed: &[bool]) -> Vec<Metric> {
    let records = &d.records;
    let ok_closed = records
        .iter()
        .zip(passed)
        .filter(|(r, ok)| {
            **ok && r.phase == Phase::Closed && r.recv.is_some_and(|t| t <= d.closed_end)
        })
        .count();
    let all = latencies(records, Phase::Open, None);
    let of = |class| latencies(records, Phase::Open, Some(class));
    let reads = of(Class::Read);
    let mut out = vec![
        metric("p50_ms", percentile(&all, 0.5), "ms"),
        metric("p99_ms", percentile(&all, 0.99), "ms"),
        metric("p90_ms", percentile(&all, 0.9), "ms"),
        metric("read_p50_ms", percentile(&reads, 0.5), "ms"),
        metric("throughput_rps", ok_closed as f64 / d.closed_secs, "req/s"),
        metric("open_rate_rps", workload.rate(), "req/s"),
        metric("open_requests", all.len() as f64, "count"),
        metric("open_reads", reads.len() as f64, "count"),
        metric("read_p99_ms", percentile(&reads, 0.99), "ms"),
        metric("gen.late_p99_ms", percentile(&d.gen.late_ms, 0.99), "ms"),
    ];
    for (name, class) in [("write", Class::Write), ("solve", Class::Solve)] {
        let xs = of(class);
        if !xs.is_empty() {
            out.push(metric(
                &format!("{name}_p50_ms"),
                percentile(&xs, 0.5),
                "ms",
            ));
            out.push(metric(
                &format!("{name}_p99_ms"),
                percentile(&xs, 0.99),
                "ms",
            ));
        }
    }
    out
}

/// The value of `name` in `metrics`.
pub fn value(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

/// A generator that ran late offered another load than the configured
/// one: such a run is invalid.
pub fn schedule_failure(late_p99_ms: f64) -> Option<String> {
    (late_p99_ms > MAX_LATE_P99_MS).then(|| {
        format!(
            "generator ran {late_p99_ms:.3} ms late at p99 (limit {MAX_LATE_P99_MS} ms): the offered load was not the configured one"
        )
    })
}

fn fresh_dir(dir: &Path) -> Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    io(std::fs::create_dir_all(dir), "data dir")
}

/// A read of one whole relation, used to check recovered state.
fn dump_query(rel: &str) -> Query {
    Query {
        name: "Dump".into(),
        head: vec![0, 1],
        atoms: vec![Atom {
            rel: rel.into(),
            a: 0,
            b: 1,
        }],
    }
}

/// Kills the server, restarts it on the same data directory and reads
/// every relation back: each must hold exactly the acknowledged writes.
/// Returns the records and the time from restart to the first answer.
fn recover(
    env: &Env,
    plan: &Plan,
    data_dir: &Path,
    server: ServerProc,
) -> Result<(Vec<Record>, f64)> {
    server.kill();
    let writes = merged_writes(&plan.gens, plan.dbs.len());
    let t0 = Instant::now();
    let server = io(
        ServerProc::spawn(&env.server_bin, Some(data_dir)),
        "restart",
    )?;
    let mut lane = io(Lane::connect(server.addr, plan.dbs.len()), "connect")?;
    let mut reqs = Vec::new();
    for (db, (name, model)) in plan.dbs.iter().enumerate() {
        for rel in model.rels.keys() {
            let id = 1_000_000 + reqs.len() as u64;
            let text = gen::render(&dump_query(rel), &mut gen::Rng::derive(0, "dump"), false);
            reqs.push(Req {
                id,
                line: format!(
                    "{{\"id\":{id},\"op\":\"cq\",\"db\":\"{name}\",\"query\":\"{text}\"}}"
                ),
                expect: Expect::Read {
                    db,
                    query: dump_query(rel),
                },
            });
        }
    }
    io(lane.batch(reqs, Phase::Recovery, 1), "recovery reads")?;
    let mut records = lane.close();
    server.kill();
    for rec in &mut records {
        if let Expect::Read { db, .. } = rec.req.expect {
            (rec.lo, rec.hi) = (writes[db].len(), writes[db].len());
        }
    }
    let first = records
        .iter()
        .filter_map(|r| r.recv)
        .min()
        .map_or(f64::NAN, |t| (t - t0).as_secs_f64());
    Ok((records, first))
}

/// One untraced run: the numbers a client sees, summarised over
/// [`ROUNDS`] rounds of `seconds / ROUNDS` each.
pub fn run_untraced(env: &Env, workload: Workload, seed: u64, seconds: f64) -> Result<RunResult> {
    let conns = env.conns;
    let data_dir = env
        .work_dir
        .join(format!("data-{}-{seed}", workload.name()));
    let durable = workload.durable();
    let mut rounds: Vec<Vec<Metric>> = Vec::new();
    let (mut late_max, mut held, mut backlog) = (0.0f64, 0, 0);
    let (mut attempted, mut failed) = (0, 0);
    let mut failures = Vec::new();
    let mut extras = Vec::new();
    for round in 0..ROUNDS {
        // The same input every round: a fresh plan replays it exactly.
        let mut plan = gen::plan(workload, seed, conns);
        let warm = warmups(&mut plan, conns);
        if durable {
            fresh_dir(&data_dir)?;
        }
        let t0 = Instant::now();
        let server = io(
            ServerProc::spawn(&env.server_bin, durable.then_some(data_dir.as_path())),
            "spawn server",
        )?;
        let lanes = set_up(&vec![server.addr; conns], &plan, &warm)?;
        let setup_s = t0.elapsed().as_secs_f64();
        // Peak memory is read after the open loop, a fixed amount of
        // work, so it does not depend on how many requests the closed
        // loop fits in (each cold read leaves a view behind).
        let mut rss = None;
        let driven = drive(lanes, &mut plan, seed, seconds / ROUNDS as f64, || {
            rss = server.peak_rss_mb();
        })?;
        let rss = rss.ok_or("no VmHWM in /proc/<pid>/status")?;
        let cpu_ms = cpu_ms_of(server.pid()).ok_or("no CPU times in /proc/<pid>/stat")?;
        let recovery = if durable && round + 1 == ROUNDS {
            Some(recover(env, &plan, &data_dir, server)?)
        } else {
            server.kill();
            None
        };
        let (passed, messages) = verify(&plan, &driven.records);
        let mut metrics = served(workload, &driven, &passed);
        metrics.extend([
            metric("setup_s", setup_s, "s"),
            metric("server_rss_mb", rss, "MiB"),
            metric(
                "service.cpu_ms_per_req",
                cpu_ms / driven.records.len().max(1) as f64,
                "ms",
            ),
        ]);
        rounds.push(metrics);
        attempted += passed.len();
        failed += passed.iter().filter(|ok| !**ok).count();
        failures.extend(messages);
        late_max = late_max.max(value(&rounds[round], "gen.late_p99_ms").unwrap_or(0.0));
        held += driven.gen.held;
        backlog = backlog.max(driven.gen.backlog_end);
        if let Some((records, secs)) = recovery {
            let (passed, messages) = verify(&plan, &records);
            attempted += passed.len();
            failed += passed.iter().filter(|ok| !**ok).count();
            failures.extend(messages);
            extras.push(metric("recovery_s", secs, "s"));
        }
    }
    let _ = std::fs::remove_dir_all(&data_dir);
    let summary: Vec<Metric> = rounds[0]
        .iter()
        .map(|m| {
            let values: Vec<f64> = rounds.iter().filter_map(|r| value(r, &m.name)).collect();
            // Interference from the rest of the machine only ever lowers a
            // round's throughput, so the best round estimates capacity.
            let v = if m.name == "throughput_rps" {
                values.iter().copied().fold(f64::MIN, f64::max)
            } else {
                median(&values)
            };
            metric(&m.name, v, m.unit)
        })
        .collect();
    let metrics = END_TO_END
        .iter()
        .filter_map(|name| summary.iter().find(|m| m.name == *name).cloned())
        .collect();
    extras.extend(
        summary
            .into_iter()
            .filter(|m| !END_TO_END.contains(&m.name.as_str())),
    );
    // Like every other metric, lateness is the median round's: a stall
    // of the whole machine during one round does not void the run.
    let late_p99_ms = value(&extras, "gen.late_p99_ms").unwrap_or(0.0);
    extras.extend([
        metric("gen.late_p99_max_ms", late_max, "ms"),
        metric("gen.held", held as f64, "count"),
        metric("gen.backlog_end", backlog as f64, "count"),
        metric(
            "error_rate",
            failed as f64 / attempted.max(1) as f64,
            "fraction",
        ),
    ]);
    let schedule = schedule_failure(late_p99_ms);
    failures.extend(schedule.clone());
    Ok(RunResult {
        workload,
        seed,
        trace: false,
        attempted,
        failed,
        valid: schedule.is_none(),
        metrics,
        extras,
        failures,
        report: Vec::new(),
    })
}
