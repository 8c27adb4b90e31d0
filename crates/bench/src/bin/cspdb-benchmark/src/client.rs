//! The load generator: spawns `cspdb serve`, drives it over TCP and
//! records, for every request, when it was due, sent and answered.
//!
//! One thread owns one connection. In the open loop a thread sends each
//! request at its scheduled time and, between sends, polls for
//! responses until the next send is due; in the closed loop it keeps a
//! fixed number of requests outstanding. Responses are stored verbatim
//! and checked only after the phase, so checking never delays a send.

use crate::gen::{Class, ConnGen, Expect, Req};
use crate::oracle::Db;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long any single wait on the server may take before the request
/// counts as missing.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

/// How long a load thread sleeps between checks of its socket. Socket
/// read timeouts are rounded up to the kernel tick (up to 10 ms), far
/// too coarse for a sub-millisecond schedule, so sockets are
/// non-blocking and threads sleep in steps this short instead. A
/// response is therefore timestamped up to one step (plus timer slack)
/// late; the bias is the same on every commit.
const POLL_STEP: Duration = Duration::from_micros(50);

/// A spawned `cspdb serve --listen` process.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Starts the server with shipped defaults (plus `--data-dir` when
    /// given) and waits until it reports its listening address.
    pub fn spawn(bin: &Path, data_dir: Option<&Path>) -> io::Result<ServerProc> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--idle-timeout-ms", "0"]);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Keep draining stderr for the process lifetime so warnings can
        // never block the server on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("listening on ") {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim().to_owned());
                    }
                }
            }
        });
        let mut proc = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(drain),
        };
        let addr = rx
            .recv_timeout(RESPONSE_TIMEOUT)
            .map_err(|_| io::Error::new(ErrorKind::TimedOut, "server never reported listening"))?;
        proc.addr = addr
            .parse()
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("{addr}: {e}")))?;
        Ok(proc)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// SIGKILL, then wait for the process and its stderr reader.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.reap();
    }
}

/// `utime + stime` of a process from `/proc/<pid>/stat`, in
/// milliseconds (Linux reports clock ticks of 1/100 s).
pub fn cpu_ms_of(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10.0)
}

/// Which part of a run a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Setup,
    Open,
    Closed,
    Recovery,
}

/// One request and what happened to it.
#[derive(Debug, Clone)]
pub struct Record {
    pub req: Req,
    pub phase: Phase,
    /// Scheduled send time (open loop only).
    pub due: Option<Instant>,
    pub sent: Instant,
    pub recv: Option<Instant>,
    pub response: Option<String>,
    /// For reads of a database that receives writes: the writes to it
    /// acknowledged before the read was sent (`lo`) and sent before its
    /// response arrived (`hi`). Any version in between is a valid
    /// answer.
    pub lo: usize,
    pub hi: usize,
}

impl Record {
    /// Latency from when the request was due (or sent, outside the open
    /// loop) to its response, in milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        let start = self.due.unwrap_or(self.sent);
        self.recv
            .map(|r| r.saturating_duration_since(start).as_secs_f64() * 1e3)
    }
}

/// One connection plus its in-flight requests. Responses arrive in
/// submission order, so each line answers the oldest outstanding
/// request.
pub struct Lane {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    partial: Vec<u8>,
    outstanding: VecDeque<Record>,
    done: Vec<Record>,
    writes_sent: Vec<usize>,
    writes_acked: Vec<usize>,
}

impl Lane {
    pub fn connect(addr: SocketAddr, dbs: usize) -> io::Result<Lane> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Lane {
            stream,
            reader,
            partial: Vec::new(),
            outstanding: VecDeque::new(),
            done: Vec::new(),
            writes_sent: vec![0; dbs],
            writes_acked: vec![0; dbs],
        })
    }

    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Outstanding `solve`/`contain` requests: the ones the server
    /// always routes to its heavy lane.
    fn heavy_outstanding(&self) -> usize {
        self.outstanding
            .iter()
            .filter(|r| r.req.class() == Class::Solve)
            .count()
    }

    /// In blocking mode a [`Lane::poll`] sleeps in the kernel until a
    /// whole line arrives (or [`RESPONSE_TIMEOUT`] passes), costing the
    /// server no CPU; for loops that need no schedule.
    fn set_blocking(&self, blocking: bool) -> io::Result<()> {
        self.stream.set_nonblocking(!blocking)?;
        self.stream.set_read_timeout(Some(RESPONSE_TIMEOUT))
    }

    /// Writes one request line; returns the send instant. While the
    /// socket's send buffer is full it keeps reading responses, so a
    /// server blocked on writing to us can always make progress.
    pub fn send(&mut self, req: Req, phase: Phase, due: Option<Instant>) -> io::Result<Instant> {
        let mut line = req.line.clone().into_bytes();
        line.push(b'\n');
        let mut rest = line.as_slice();
        let deadline = Instant::now() + RESPONSE_TIMEOUT;
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(ErrorKind::TimedOut.into());
                    }
                    self.poll(Instant::now() + POLL_STEP)?;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let sent = Instant::now();
        let lo = match req.expect {
            Expect::Write { db, .. } => {
                self.writes_sent[db] += 1;
                0
            }
            Expect::Read { db, .. } => self.writes_acked[db],
            _ => 0,
        };
        self.outstanding.push_back(Record {
            req,
            phase,
            due,
            sent,
            recv: None,
            response: None,
            lo,
            hi: 0,
        });
        Ok(sent)
    }

    /// Waits until `until` for one response line. Returns false when
    /// the wait timed out with no complete line.
    pub fn poll(&mut self, until: Instant) -> io::Result<bool> {
        loop {
            // A read that would block leaves any partial line in
            // `partial`; the next call appends the rest.
            match self.reader.read_until(b'\n', &mut self.partial) {
                Ok(_) if self.partial.last() == Some(&b'\n') => {
                    let recv = Instant::now();
                    let line = String::from_utf8_lossy(&self.partial).trim().to_owned();
                    self.partial.clear();
                    self.complete(line, recv);
                    return Ok(true);
                }
                Ok(_) => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            let now = Instant::now();
            if now >= until {
                return Ok(false);
            }
            std::thread::sleep((until - now).min(POLL_STEP));
        }
    }

    fn complete(&mut self, line: String, recv: Instant) {
        // A line nobody asked for is dropped; with requests outstanding
        // it would answer the oldest one, whose check then fails.
        let Some(mut rec) = self.outstanding.pop_front() else {
            return;
        };
        match rec.req.expect {
            Expect::Write { db, .. } => self.writes_acked[db] += 1,
            Expect::Read { db, .. } => rec.hi = self.writes_sent[db],
            _ => {}
        }
        rec.recv = Some(recv);
        rec.response = Some(line);
        self.done.push(rec);
    }

    /// Reads until nothing is outstanding or `deadline` passes; what is
    /// still outstanding then is recorded without a response.
    pub fn drain(&mut self, deadline: Instant) {
        while !self.outstanding.is_empty() && Instant::now() < deadline {
            if self.poll(deadline).is_err() {
                break;
            }
        }
        self.abandon();
    }

    fn abandon(&mut self) {
        self.done.extend(self.outstanding.drain(..));
    }

    /// Sends `reqs` with at most `window` in flight and waits for all.
    pub fn batch(&mut self, reqs: Vec<Req>, phase: Phase, window: usize) -> io::Result<()> {
        let deadline = Instant::now() + RESPONSE_TIMEOUT;
        for req in reqs {
            while self.outstanding.len() >= window {
                if !self.poll(deadline)? && Instant::now() >= deadline {
                    self.abandon();
                    return Ok(());
                }
            }
            self.send(req, phase, None)?;
        }
        self.drain(deadline);
        Ok(())
    }

    /// Closes the write half (a clean EOF for the server) and waits for
    /// the server to close its side.
    pub fn close(mut self) -> Vec<Record> {
        self.abandon();
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
        let _ = self.stream.set_nonblocking(false);
        let _ = self.stream.set_read_timeout(Some(Duration::from_secs(2)));
        let mut sink = Vec::new();
        let _ = self.reader.read_to_end(&mut sink);
        self.done
    }
}

/// The most requests one connection has in flight in the open loop, and
/// the most of them bound for the heavy lane: its fair share of each
/// lane's queue at the server's default depths (64 and 8) with two
/// connections. Past that the server refuses requests by design. After
/// a stall of the whole machine the generator sends everything overdue
/// at once; such a burst waits at the client instead, and the wait
/// still counts in each request's latency, which runs from its due time.
const MAX_IN_FLIGHT: usize = 32;
const MAX_HEAVY_IN_FLIGHT: usize = 4;

/// What the generator itself did in one open-loop phase.
#[derive(Debug, Clone, Default)]
pub struct GenReport {
    /// Send time minus due time, milliseconds, per request sent as soon
    /// as the generator could.
    pub late_ms: Vec<f64>,
    /// Requests held back by the in-flight limits (not in `late_ms`).
    pub held: usize,
    /// Requests still unanswered when the last scheduled one was sent.
    pub backlog_end: usize,
}

/// Sends `schedule` (offsets in microseconds from `start`, with their
/// requests) on time, reading responses in between, then drains.
pub fn open_loop(
    lane: &mut Lane,
    schedule: Vec<(u64, Req)>,
    start: Instant,
) -> io::Result<GenReport> {
    let mut report = GenReport::default();
    let mut queue: VecDeque<(u64, Req)> = schedule.into();
    let mut held = false;
    while let Some((offset, next)) = queue.front() {
        let due = start + Duration::from_micros(*offset);
        if Instant::now() < due {
            lane.poll(due)?;
            continue;
        }
        if lane.outstanding() >= MAX_IN_FLIGHT
            || (next.class() == Class::Solve && lane.heavy_outstanding() >= MAX_HEAVY_IN_FLIGHT)
        {
            held = true;
            if !lane.poll(Instant::now() + RESPONSE_TIMEOUT)? {
                return Err(io::Error::new(
                    ErrorKind::TimedOut,
                    "server stopped answering",
                ));
            }
            continue;
        }
        let (_, req) = queue.pop_front().expect("front exists");
        let sent = lane.send(req, Phase::Open, Some(due))?;
        if held {
            report.held += 1;
            held = false;
        } else {
            report
                .late_ms
                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
    }
    report.backlog_end = lane.outstanding();
    lane.drain(Instant::now() + RESPONSE_TIMEOUT);
    Ok(report)
}

/// Keeps `depth` requests outstanding until `end`, then drains.
pub fn closed_loop(
    lane: &mut Lane,
    gen: &mut ConnGen,
    dbs: &[(String, Db)],
    depth: usize,
    end: Instant,
) -> io::Result<()> {
    lane.set_blocking(true)?;
    while Instant::now() < end {
        while lane.outstanding() < depth {
            lane.send(gen.next(dbs), Phase::Closed, None)?;
        }
        lane.poll(end)?;
    }
    lane.set_blocking(false)?;
    lane.drain(Instant::now() + RESPONSE_TIMEOUT);
    Ok(())
}

/// Latencies (ms) of the records matching `class` (all classes but
/// `put` when `None`).
pub fn latencies(records: &[Record], phase: Phase, class: Option<Class>) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.phase == phase)
        .filter(|r| match class {
            Some(c) => r.req.class() == c,
            None => r.req.class() != Class::Put,
        })
        .filter_map(Record::latency_ms)
        .collect()
}
