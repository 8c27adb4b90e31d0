//! Seeded input generation: databases, query shapes, textual variants
//! and arrival schedules. The program under test receives only the
//! request lines built here; the same seed always yields the same lines.

use crate::oracle::{Atom, Db, Query};
use std::collections::BTreeSet;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per (seed, purpose), so adding draws to one
    /// stream never shifts another.
    pub fn derive(seed: u64, stream: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given rate (mean `1/rate`).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The four traffic mixes. Why each exists is in the README and in
/// `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadHot,
    ReadCold,
    WriteStorm,
    SolveMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReadHot,
        Workload::ReadCold,
        Workload::WriteStorm,
        Workload::SolveMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read_hot",
            Workload::ReadCold => "read_cold",
            Workload::WriteStorm => "write_storm",
            Workload::SolveMix => "solve_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Open-loop arrival rate over all connections, in requests per
    /// second. Fixed constants measured once against the parent commit
    /// (the README records each beside that commit's closed-loop
    /// throughput); never derived at run time, so a faster or slower
    /// program sees the same offered load. Each sits well inside the
    /// rate at which the generator stays within its lateness limit on a
    /// shared two-core machine.
    pub fn rate(self) -> f64 {
        match self {
            Workload::ReadHot => 1000.0,
            Workload::ReadCold => 250.0,
            Workload::WriteStorm => 600.0,
            Workload::SolveMix => 500.0,
        }
    }

    /// Only `write_storm` runs the server on a data directory.
    pub fn durable(self) -> bool {
        self == Workload::WriteStorm
    }
}

/// What a response to a request must look like; the checker reads it.
#[derive(Debug, Clone)]
pub enum Expect {
    Put,
    /// The answer of `query` on database `db` (at some version the
    /// request could have observed, for databases that receive writes).
    Read {
        db: usize,
        query: Query,
    },
    /// The `seq`-th write (1-based) to database `db`.
    Write {
        db: usize,
        seq: usize,
    },
    /// `solve(a, b)`, satisfiable or not by construction.
    Solve {
        a: usize,
        b: usize,
        sat: bool,
    },
    Contain {
        q1: Query,
        q2: Query,
    },
}

/// The operation classes latency is reported by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
    Solve,
    Put,
}

#[derive(Debug, Clone)]
pub struct Req {
    pub id: u64,
    pub line: String,
    pub expect: Expect,
}

impl Req {
    pub fn class(&self) -> Class {
        match self.expect {
            Expect::Put => Class::Put,
            Expect::Read { .. } => Class::Read,
            Expect::Write { .. } => Class::Write,
            Expect::Solve { .. } | Expect::Contain { .. } => Class::Solve,
        }
    }
}

/// One single-edge write, always effective: an insert of an absent edge
/// or a delete of a present one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Toggle {
    pub rel: &'static str,
    pub edge: (u32, u32),
    pub insert: bool,
}

/// Everything a run sends, minus the per-phase arrival times.
pub struct Plan {
    pub workload: Workload,
    /// Databases `put` during set-up, in order.
    pub dbs: Vec<(String, Db)>,
    /// One request generator per connection.
    pub gens: Vec<ConnGen>,
}

impl Plan {
    /// The set-up `put`s (ids below any connection's id space).
    pub fn puts(&self) -> Vec<Req> {
        self.dbs
            .iter()
            .enumerate()
            .map(|(i, (name, db))| Req {
                id: i as u64 + 1,
                line: format!(
                    "{{\"id\":{},\"op\":\"put\",\"db\":\"{name}\",\"facts\":\"{}\"}}",
                    i + 1,
                    db.to_facts().replace('\n', "\\n")
                ),
                expect: Expect::Put,
            })
            .collect()
    }
}

fn atom(rel: &str, a: u32, b: u32) -> Atom {
    Atom {
        rel: rel.to_owned(),
        a,
        b,
    }
}

/// A query shape as the tables below write it: head variables, then
/// body atoms `(relation, from, to)`.
pub type Shape = (&'static [u32], &'static [(&'static str, u32, u32)]);

fn query(name: String, head: &[u32], atoms: &[(&str, u32, u32)]) -> Query {
    Query {
        name,
        head: head.to_vec(),
        atoms: atoms.iter().map(|&(r, a, b)| atom(r, a, b)).collect(),
    }
}

/// `m` distinct loop-free edges of `rel` over nodes `0..n`.
fn random_edges(rng: &mut Rng, db: &mut Db, rel: &str, n: usize, m: usize) {
    let target = db.rels.get(rel).map_or(0, BTreeSet::len) + m;
    while db.rels.get(rel).map_or(0, BTreeSet::len) < target {
        let (a, b) = (rng.below(n) as u32, rng.below(n) as u32);
        if a != b {
            db.insert(rel, (a, b));
        }
    }
}

fn random_db(rng: &mut Rng, n: usize, rels: &[(&str, usize)]) -> Db {
    let mut db = Db::default();
    for &(rel, m) in rels {
        random_edges(rng, &mut db, rel, n, m);
    }
    db
}

/// Query text. `variant` renames every variable, shuffles the atoms and
/// pads up to two redundant atoms (each a copy of a body atom with one
/// end replaced by a fresh variable, which the core folds back), so the
/// text is new while the query stays equivalent. Without `variant` the
/// atoms keep their given, connected order.
pub fn render(q: &Query, rng: &mut Rng, variant: bool) -> String {
    let mut atoms = q.atoms.clone();
    let mut vars = q.vars();
    if variant {
        for _ in 0..rng.below(3) {
            let base = atoms[rng.below(q.atoms.len())].clone();
            let fresh = vars;
            vars += 1;
            atoms.push(if rng.below(2) == 0 {
                atom(&base.rel, base.a, fresh)
            } else {
                atom(&base.rel, fresh, base.b)
            });
        }
        rng.shuffle(&mut atoms);
    }
    let names: Vec<String> = if variant {
        let mut seen = BTreeSet::new();
        (0..vars)
            .map(|_| loop {
                let name = format!(
                    "{}{}",
                    char::from(b'A' + rng.below(26) as u8),
                    rng.below(1000)
                );
                if seen.insert(name.clone()) {
                    break name;
                }
            })
            .collect()
    } else {
        (0..vars).map(|v| format!("V{v}")).collect()
    };
    let head: Vec<&str> = q.head.iter().map(|&v| names[v as usize].as_str()).collect();
    let body: Vec<String> = atoms
        .iter()
        .map(|a| format!("{}({},{})", a.rel, names[a.a as usize], names[a.b as usize]))
        .collect();
    format!("{}({}) :- {}", q.name, head.join(","), body.join(", "))
}

fn cq_line(id: u64, db: &str, text: &str) -> String {
    format!("{{\"id\":{id},\"op\":\"cq\",\"db\":\"{db}\",\"query\":\"{text}\"}}")
}

/// Per-connection open-loop arrival offsets (microseconds from the
/// phase start): a Poisson process at `rate / conns` for `secs`.
pub fn arrivals(seed: u64, workload: Workload, conn: usize, conns: usize, secs: f64) -> Vec<u64> {
    let mut rng = Rng::derive(seed, &format!("{}/arrivals/{conn}", workload.name()));
    let rate = workload.rate() / conns as f64;
    let mut at = 0.0;
    let mut out = Vec::new();
    loop {
        at += rng.exp(rate);
        if at >= secs {
            return out;
        }
        out.push((at * 1e6) as u64);
    }
}

/// Builds the databases and per-connection generators of `workload`.
pub fn plan(workload: Workload, seed: u64, conns: usize) -> Plan {
    let mut rng = Rng::derive(seed, &format!("{}/data", workload.name()));
    match workload {
        Workload::ReadHot => plan_read_hot(&mut rng, seed, conns),
        Workload::ReadCold => plan_read_cold(&mut rng, seed, conns),
        Workload::WriteStorm => plan_write_storm(&mut rng, seed, conns),
        Workload::SolveMix => plan_solve_mix(&mut rng, seed, conns),
    }
}

fn gen_for(workload: Workload, seed: u64, conn: usize, mix: Mix, dbs: usize) -> ConnGen {
    ConnGen {
        conn,
        rng: Rng::derive(seed, &format!("{}/conn/{conn}", workload.name())),
        next_id: (conn as u64 + 1) << 32,
        mix,
        writes: vec![Vec::new(); dbs],
    }
}

/// The twelve `read_hot` shapes: cores over `E` and `F`, mostly with a
/// one-variable head so answers stay a few kilobytes.
fn hot_shapes() -> Vec<Query> {
    let shapes: [Shape; 12] = [
        (&[0], &[("E", 0, 1)]),
        (&[0], &[("F", 0, 1)]),
        (&[0], &[("E", 0, 1), ("E", 1, 2)]),
        (&[0], &[("E", 0, 1), ("F", 1, 2)]),
        (&[0], &[("F", 0, 1), ("E", 1, 2)]),
        (&[0], &[("E", 0, 1), ("F", 0, 2)]),
        (&[0], &[("E", 1, 0), ("F", 0, 2)]),
        (&[0], &[("E", 0, 1), ("E", 1, 2), ("E", 2, 0)]),
        (&[0], &[("E", 0, 1), ("F", 1, 2), ("E", 2, 3)]),
        (&[0], &[("E", 0, 1), ("E", 1, 2), ("F", 2, 0)]),
        (&[0, 1], &[("E", 0, 1), ("F", 1, 0)]),
        (&[0, 1], &[("E", 0, 1), ("E", 1, 0)]),
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(i, (head, atoms))| query(format!("H{i}"), head, atoms))
        .collect()
}

fn plan_read_hot(rng: &mut Rng, seed: u64, conns: usize) -> Plan {
    let dbs: Vec<(String, Db)> = (0..4)
        .map(|i| {
            (
                format!("hot{i}"),
                random_db(rng, 600, &[("E", 1200), ("F", 600)]),
            )
        })
        .collect();
    let shapes = hot_shapes();
    // Popularity rank k is (db k % 4, shape k / 4) on every seed, so the
    // seed changes data and text, never which shape is hottest.
    let keys: Vec<(usize, usize)> = (0..dbs.len() * shapes.len())
        .map(|k| (k % dbs.len(), k / dbs.len()))
        .collect();
    let gens = (0..conns)
        .map(|c| {
            let mix = Mix::Hot {
                keys: keys.clone(),
                zipf: Zipf::new(keys.len(), 1.1),
                shapes: shapes.clone(),
            };
            gen_for(Workload::ReadHot, seed, c, mix, dbs.len())
        })
        .collect();
    Plan {
        workload: Workload::ReadHot,
        dbs,
        gens,
    }
}

/// Labels of the `read_cold` relations.
const COLD_LABELS: [&str; 4] = ["R0", "R1", "R2", "R3"];
/// Directed paths of length 1..=3 (4 + 16 + 64 label sequences) and
/// cycles of length 3 and 4 (64 + 256), each with a one- and a
/// two-variable head: every member is a core, and no two are
/// equivalent.
const COLD_PATHS: usize = 2 * (4 + 16 + 64);
const COLD_FAMILY: usize = COLD_PATHS + 2 * (64 + 256);

/// Member `idx` of the `read_cold` query family.
fn cold_query(idx: usize) -> Query {
    let two_heads = idx % 2 == 1;
    let (cycle, mut rest) = if idx < COLD_PATHS {
        (false, idx / 2)
    } else {
        (true, (idx - COLD_PATHS) / 2)
    };
    let mut len = if cycle { 3 } else { 1 };
    while rest >= 4usize.pow(len) {
        rest -= 4usize.pow(len);
        len += 1;
    }
    let mut atoms = Vec::with_capacity(len as usize);
    for i in 0..len {
        let label = COLD_LABELS[(rest / 4usize.pow(i)) % 4];
        let next = if cycle { (i + 1) % len } else { i + 1 };
        atoms.push(atom(label, i, next));
    }
    let head = match (two_heads, cycle) {
        (false, _) => vec![0],
        (true, false) => vec![0, len],
        (true, true) => vec![0, 1],
    };
    Query {
        name: format!("C{idx}"),
        head,
        atoms,
    }
}

fn plan_read_cold(rng: &mut Rng, seed: u64, conns: usize) -> Plan {
    // Even databases are dense, so some cyclic shapes pass the cost gate
    // to the worst-case-optimal engine; odd ones are sparse, so shapes
    // stay on the binary pipeline.
    let dbs: Vec<(String, Db)> = (0..40)
        .map(|i| {
            let (n, m) = if i % 2 == 0 { (12, 48) } else { (48, 64) };
            let rels: Vec<(&str, usize)> = COLD_LABELS.iter().map(|&l| (l, m)).collect();
            (format!("cold{i}"), random_db(rng, n, &rels))
        })
        .collect();
    let gens = (0..conns)
        .map(|c| {
            let mut order_rng = Rng::derive(seed, &format!("read_cold/order/{c}"));
            let own: Vec<usize> = (0..dbs.len()).filter(|i| i % conns == c).collect();
            let orders = own
                .iter()
                .map(|_| {
                    let mut order: Vec<u32> = (0..COLD_FAMILY as u32).collect();
                    order_rng.shuffle(&mut order);
                    order
                })
                .collect();
            let mix = Mix::Cold {
                cursor: vec![0; own.len()],
                dbs: own,
                orders,
            };
            gen_for(Workload::ReadCold, seed, c, mix, dbs.len())
        })
        .collect();
    Plan {
        workload: Workload::ReadCold,
        dbs,
        gens,
    }
}

fn storm_shapes() -> Vec<Query> {
    let shapes: [Shape; 8] = [
        (&[0], &[("E", 0, 1)]),
        (&[0], &[("E", 0, 1), ("E", 1, 2)]),
        (&[0], &[("E", 0, 1), ("F", 1, 2)]),
        (&[0], &[("F", 0, 1), ("E", 1, 2)]),
        (&[0], &[("E", 0, 1), ("E", 1, 2), ("E", 2, 0)]),
        (&[0], &[("E", 0, 1), ("F", 0, 2)]),
        (&[0], &[("E", 0, 1), ("F", 1, 2), ("E", 2, 3)]),
        (&[0, 1], &[("E", 0, 1), ("F", 1, 0)]),
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(i, (head, atoms))| query(format!("W{i}"), head, atoms))
        .collect()
}

const STORM_NODES: usize = 100;

fn plan_write_storm(rng: &mut Rng, seed: u64, conns: usize) -> Plan {
    let dbs: Vec<(String, Db)> = (0..4)
        .map(|i| {
            let db = random_db(rng, STORM_NODES, &[("E", 250), ("F", 150)]);
            (format!("storm{i}"), db)
        })
        .collect();
    let gens = (0..conns)
        .map(|c| {
            // Each database's traffic is pinned to one connection, so its
            // writes reach the server in generation order.
            let own: Vec<usize> = (0..dbs.len()).filter(|i| i % conns == c).collect();
            let mix = Mix::Storm {
                state: dbs.iter().map(|(_, db)| db.clone()).collect(),
                dbs: own,
                shapes: storm_shapes(),
            };
            gen_for(Workload::WriteStorm, seed, c, mix, dbs.len())
        })
        .collect();
    Plan {
        workload: Workload::WriteStorm,
        dbs,
        gens,
    }
}

/// Contain-pair bases: cores over `E` with a one-variable head.
fn contain_bases() -> Vec<Query> {
    let shapes: [&[(&str, u32, u32)]; 8] = [
        &[("E", 0, 1)],
        &[("E", 0, 1), ("E", 1, 2)],
        &[("E", 0, 1), ("E", 1, 2), ("E", 2, 3)],
        &[("E", 0, 1), ("E", 1, 2), ("E", 2, 0)],
        &[("E", 0, 1), ("E", 1, 0)],
        &[("E", 1, 0), ("E", 1, 2)],
        &[("E", 0, 1), ("E", 2, 1), ("E", 2, 3)],
        &[("E", 0, 1), ("E", 1, 2), ("E", 2, 3), ("E", 3, 0)],
    ];
    shapes
        .iter()
        .map(|atoms| query("A".into(), &[0], atoms))
        .collect()
}

fn mix_read_shapes() -> Vec<Query> {
    let shapes: [&[(&str, u32, u32)]; 6] = [
        &[("E", 0, 1)],
        &[("F", 0, 1)],
        &[("E", 0, 1), ("F", 1, 2)],
        &[("E", 0, 1), ("E", 1, 2)],
        &[("E", 1, 0), ("F", 0, 2)],
        &[("E", 0, 1), ("E", 1, 2), ("E", 2, 0)],
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(i, atoms)| query(format!("M{i}"), &[0], atoms))
        .collect()
}

fn clique(k: u32) -> Db {
    let mut db = Db::default();
    for a in 0..k {
        for b in 0..k {
            if a != b {
                db.insert("E", (a, b));
            }
        }
    }
    db
}

fn plan_solve_mix(rng: &mut Rng, seed: u64, conns: usize) -> Plan {
    // Instances are planted 3-colourings; every other one also embeds a
    // tournament on four nodes, which no map into K3 can colour. So
    // plain instances are satisfiable into K3 and K4, embedded ones are
    // unsatisfiable into K3, by construction.
    let mut dbs: Vec<(String, Db)> = Vec::new();
    let mut instances = Vec::new();
    for i in 0..24 {
        let n = 20;
        let colour: Vec<usize> = (0..n).map(|_| rng.below(3)).collect();
        let mut db = Db::default();
        while db.fact_count() < 40 {
            let (a, b) = (rng.below(n), rng.below(n));
            if colour[a] != colour[b] {
                db.insert("E", (a as u32, b as u32));
            }
        }
        let k4 = i % 2 == 1;
        if k4 {
            let mut nodes: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut nodes);
            for x in 0..4 {
                for y in x + 1..4 {
                    db.insert("E", (nodes[x], nodes[y]));
                }
            }
        }
        instances.push((dbs.len(), k4));
        dbs.push((format!("s{i}"), db));
    }
    let k3 = dbs.len();
    dbs.push(("k3".into(), clique(3)));
    let k4 = dbs.len();
    dbs.push(("k4".into(), clique(4)));
    let read_db = dbs.len();
    dbs.push(("r".into(), random_db(rng, 50, &[("E", 120), ("F", 60)])));
    let gens = (0..conns)
        .map(|c| {
            let mix = Mix::Solve {
                instances: instances.clone(),
                k3,
                k4,
                read_db,
                reads: mix_read_shapes(),
                bases: contain_bases(),
            };
            gen_for(Workload::SolveMix, seed, c, mix, dbs.len())
        })
        .collect();
    Plan {
        workload: Workload::SolveMix,
        dbs,
        gens,
    }
}

enum Mix {
    Hot {
        keys: Vec<(usize, usize)>,
        zipf: Zipf,
        shapes: Vec<Query>,
    },
    Cold {
        dbs: Vec<usize>,
        orders: Vec<Vec<u32>>,
        cursor: Vec<usize>,
    },
    Storm {
        dbs: Vec<usize>,
        state: Vec<Db>,
        shapes: Vec<Query>,
    },
    Solve {
        instances: Vec<(usize, bool)>,
        k3: usize,
        k4: usize,
        read_db: usize,
        reads: Vec<Query>,
        bases: Vec<Query>,
    },
}

/// One connection's request stream. Each connection owns disjoint ids
/// (and, where it matters, disjoint databases), so its stream depends
/// only on the seed, never on timing.
pub struct ConnGen {
    pub conn: usize,
    rng: Rng,
    next_id: u64,
    mix: Mix,
    /// Writes generated so far, per database (only `write_storm`).
    pub writes: Vec<Vec<Toggle>>,
}

impl ConnGen {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn read(&mut self, db: usize, db_name: &str, q: &Query, variant: bool) -> Req {
        let id = self.id();
        let text = render(q, &mut self.rng, variant);
        Req {
            id,
            line: cq_line(id, db_name, &text),
            expect: Expect::Read {
                db,
                query: q.clone(),
            },
        }
    }

    /// The warm-up requests this connection sends once during set-up:
    /// its keys in canonical (connected) atom order, so the views the
    /// server registers for them are the same on every seed.
    pub fn warmup(&mut self, dbs: &[(String, Db)], conns: usize) -> Vec<Req> {
        let conn = self.conn;
        // (db, shape) keys read once in canonical form, then `extra`
        // requests from the regular stream.
        let (keys, extra): (Vec<(usize, Query)>, usize) = match &self.mix {
            Mix::Hot { keys, shapes, .. } => (
                keys.iter()
                    .enumerate()
                    .filter(|(k, _)| k % conns == conn)
                    .map(|(_, &(db, s))| (db, shapes[s].clone()))
                    .collect(),
                0,
            ),
            Mix::Storm {
                dbs: own, shapes, ..
            } => (
                own.iter()
                    .flat_map(|&db| shapes.iter().map(move |q| (db, q.clone())))
                    .collect(),
                0,
            ),
            Mix::Cold { dbs: own, .. } => (Vec::new(), 2 * own.len()),
            Mix::Solve { read_db, reads, .. } => (
                reads
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % conns == conn)
                    .map(|(_, q)| (*read_db, q.clone()))
                    .collect(),
                4,
            ),
        };
        let mut out: Vec<Req> = keys
            .iter()
            .map(|(db, q)| self.read(*db, &dbs[*db].0, q, false))
            .collect();
        out.extend((0..extra).map(|_| self.next(dbs)));
        out
    }

    /// The next request of this connection's stream.
    pub fn next(&mut self, dbs: &[(String, Db)]) -> Req {
        match &mut self.mix {
            Mix::Hot { keys, zipf, shapes } => {
                let (db, s) = keys[zipf.sample(&mut self.rng)];
                let q = shapes[s].clone();
                self.read(db, &dbs[db].0, &q, true)
            }
            Mix::Cold {
                dbs: own,
                orders,
                cursor,
            } => {
                let slot = self.rng.below(own.len());
                let idx = orders[slot][cursor[slot] % COLD_FAMILY] as usize;
                cursor[slot] += 1;
                let db = own[slot];
                // Connected order and fresh names: the text is new and so
                // is the core, so every read misses the cache.
                self.read(db, &dbs[db].0, &cold_query(idx), false)
            }
            Mix::Storm {
                dbs: own,
                state,
                shapes,
            } => {
                let db = own[self.rng.below(own.len())];
                if self.rng.below(5) > 0 {
                    let q = shapes[self.rng.below(shapes.len())].clone();
                    return self.read(db, &dbs[db].0, &q, true);
                }
                let rel = if self.rng.below(5) < 3 { "E" } else { "F" };
                let current = &mut state[db];
                let insert = self.rng.below(2) == 0;
                let edge = if insert {
                    loop {
                        let e = (
                            self.rng.below(STORM_NODES) as u32,
                            self.rng.below(STORM_NODES) as u32,
                        );
                        if e.0 != e.1 && !current.contains(rel, e) {
                            break e;
                        }
                    }
                } else {
                    let edges = &current.rels[rel];
                    *edges
                        .iter()
                        .nth(self.rng.below(edges.len()))
                        .expect("index below the relation size")
                };
                if insert {
                    current.insert(rel, edge);
                } else {
                    current.remove(rel, edge);
                }
                self.writes[db].push(Toggle { rel, edge, insert });
                let seq = self.writes[db].len();
                let id = self.id();
                let op = if insert { "insert" } else { "delete" };
                Req {
                    id,
                    line: format!(
                        "{{\"id\":{id},\"v\":2,\"op\":\"{op}\",\"db\":\"{}\",\"fact\":\"{rel} {} {}\"}}",
                        dbs[db].0, edge.0, edge.1
                    ),
                    expect: Expect::Write { db, seq },
                }
            }
            Mix::Solve {
                instances,
                k3,
                k4,
                read_db,
                reads,
                bases,
            } => {
                let roll = self.rng.below(10);
                if roll < 6 {
                    let (a, embedded) = instances[self.rng.below(instances.len())];
                    let (b, sat) = if embedded {
                        (*k3, false)
                    } else if self.rng.below(2) == 0 {
                        (*k3, true)
                    } else {
                        (*k4, true)
                    };
                    let id = self.id();
                    Req {
                        id,
                        line: format!(
                            "{{\"id\":{id},\"op\":\"solve\",\"a\":\"{}\",\"b\":\"{}\"}}",
                            dbs[a].0, dbs[b].0
                        ),
                        expect: Expect::Solve { a, b, sat },
                    }
                } else if roll < 8 {
                    let q1 = bases[self.rng.below(bases.len())].clone();
                    let mut q2 = if self.rng.below(2) == 0 {
                        // Extend q1 at a random variable: q2 ⊆ q1.
                        let mut q2 = q1.clone();
                        let from = self.rng.below(q1.vars() as usize) as u32;
                        q2.atoms.push(atom("E", from, q1.vars()));
                        q2
                    } else {
                        bases[self.rng.below(bases.len())].clone()
                    };
                    q2.name = "B".into();
                    let id = self.id();
                    let t1 = render(&q1, &mut self.rng, true);
                    let t2 = render(&q2, &mut self.rng, true);
                    Req {
                        id,
                        line: format!(
                            "{{\"id\":{id},\"op\":\"contain\",\"q1\":\"{t1}\",\"q2\":\"{t2}\"}}"
                        ),
                        expect: Expect::Contain { q1, q2 },
                    }
                } else {
                    let q = reads[self.rng.below(reads.len())].clone();
                    let db = *read_db;
                    self.read(db, &dbs[db].0, &q, true)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{contained_in, evaluate};

    fn stream(workload: Workload, seed: u64) -> String {
        let mut plan = plan(workload, seed, 2);
        let mut out: String = plan.puts().iter().map(|r| r.line.clone() + "\n").collect();
        let dbs = plan.dbs.clone();
        for g in &mut plan.gens {
            for r in g.warmup(&dbs, 2) {
                out.push_str(&r.line);
                out.push('\n');
            }
            for _ in 0..200 {
                out.push_str(&g.next(&dbs).line);
                out.push('\n');
            }
        }
        for c in 0..2 {
            for at in arrivals(seed, workload, c, 2, 1.0) {
                out.push_str(&format!("{at}\n"));
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_request_stream() {
        for w in Workload::ALL {
            assert_eq!(stream(w, 7), stream(w, 7), "{}", w.name());
            assert_ne!(stream(w, 7), stream(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn zipf_prefers_low_ranks_with_the_right_mass() {
        let zipf = Zipf::new(48, 1.1);
        let mut rng = Rng::derive(1, "zipf-test");
        let mut counts = vec![0usize; 48];
        let draws = 200_000;
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // P(rank 0) = 1 / H(48, 1.1).
        let h: f64 = (1..=48).map(|k| (k as f64).powf(-1.1)).sum();
        let p0 = counts[0] as f64 / draws as f64;
        assert!((p0 - 1.0 / h).abs() < 0.01, "p0 = {p0}");
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[47]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn arrivals_follow_the_configured_rate() {
        let n: usize = (0..2)
            .map(|c| arrivals(3, Workload::ReadHot, c, 2, 10.0).len())
            .sum();
        let expected = Workload::ReadHot.rate() * 10.0;
        assert!((n as f64 - expected).abs() < 4.0 * expected.sqrt(), "{n}");
    }

    #[test]
    fn cold_family_members_are_distinct_cores() {
        let all: BTreeSet<String> = (0..COLD_FAMILY).map(|i| cold_query(i).key()).collect();
        assert_eq!(all.len(), COLD_FAMILY);
        // Spot-check inequivalence with the oracle's own containment.
        let (a, b) = (cold_query(0), cold_query(8));
        assert!(!(contained_in(&a, &b) && contained_in(&b, &a)));
    }

    #[test]
    fn variants_are_equivalent_to_their_shape() {
        // Re-parse the rendered variant with a tiny reader and check it
        // has the same answers as the shape on a random database.
        let mut rng = Rng::derive(5, "variant-test");
        let db = random_db(&mut rng, 30, &[("E", 80), ("F", 40)]);
        for q in hot_shapes() {
            let text = render(&q, &mut rng, true);
            let parsed = parse_rendered(&text);
            assert_eq!(evaluate(&parsed, &db), evaluate(&q, &db), "{text}");
        }
    }

    /// Reads back `render` output: `N(H,..) :- R(A,B), ...`.
    fn parse_rendered(text: &str) -> Query {
        let (head, body) = text.split_once(" :- ").unwrap();
        let mut names: Vec<String> = Vec::new();
        let mut var = |n: &str| -> u32 {
            let n = n.trim().to_owned();
            match names.iter().position(|x| *x == n) {
                Some(i) => i as u32,
                None => {
                    names.push(n);
                    names.len() as u32 - 1
                }
            }
        };
        let (name, args) = head.split_once('(').unwrap();
        let head: Vec<u32> = args
            .trim_end_matches(')')
            .split(',')
            .map(&mut var)
            .collect();
        let atoms = body
            .split("), ")
            .map(|a| {
                let (rel, args) = a.split_once('(').unwrap();
                let (x, y) = args.trim_end_matches(')').split_once(',').unwrap();
                atom(rel, var(x), var(y))
            })
            .collect();
        Query {
            name: name.into(),
            head,
            atoms,
        }
    }
}
