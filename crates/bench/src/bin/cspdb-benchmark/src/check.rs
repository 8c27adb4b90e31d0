//! Checks every recorded response against the oracle.

use crate::client::Record;
use crate::gen::{Expect, Toggle};
use crate::oracle::{contained_in, evaluate, is_homomorphism, rows_json, Db};
use std::collections::HashMap;

/// The raw JSON text of `key`'s value in a flat-ish response object:
/// a string's contents, an array with its brackets, or a scalar.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    match rest.as_bytes().first()? {
        b'"' => {
            let body = &rest[1..];
            let mut escaped = false;
            for (i, c) in body.char_indices() {
                match c {
                    '\\' if !escaped => escaped = true,
                    '"' if !escaped => return Some(&body[..i]),
                    _ => escaped = false,
                }
            }
            None
        }
        b'[' => {
            let mut depth = 0usize;
            for (i, b) in rest.bytes().enumerate() {
                match b {
                    b'[' => depth += 1,
                    b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(&rest[..=i]);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        _ => Some(rest[..rest.find([',', '}'])?].trim()),
    }
}

/// Parses a flat array of unsigned integers: `[3,0,2]`.
fn u32_array(text: &str) -> Option<Vec<u32>> {
    let inner = text.strip_prefix('[')?.strip_suffix(']')?;
    if inner.trim().is_empty() {
        return Some(Vec::new());
    }
    inner.split(',').map(|x| x.trim().parse().ok()).collect()
}

/// Memoised answers kept before old versions are pruned.
const MEMO_LIMIT: usize = 20_000;
/// Versions behind a database's current one whose answers survive a
/// prune (a read's window rarely reaches further back).
const MEMO_VERSIONS: usize = 16;

/// Verifies responses against the databases of a plan and the writes
/// its generators made. Expected answers are memoised per database
/// version and query.
pub struct Checker<'a> {
    dbs: &'a [(String, Db)],
    writes: &'a [Vec<Toggle>],
    /// Per database, the version last asked for and its state. Writes
    /// are toggles, so a state moves to any version forwards or back.
    cursors: HashMap<usize, (usize, Db)>,
    answers: HashMap<(usize, usize, String), String>,
    containment: HashMap<(String, String), (bool, bool)>,
}

impl<'a> Checker<'a> {
    pub fn new(dbs: &'a [(String, Db)], writes: &'a [Vec<Toggle>]) -> Checker<'a> {
        Checker {
            dbs,
            writes,
            cursors: HashMap::new(),
            answers: HashMap::new(),
            containment: HashMap::new(),
        }
    }

    /// Database `db` after its first `version` writes.
    fn state(&mut self, db: usize, version: usize) -> &Db {
        let (dbs, writes) = (self.dbs, self.writes);
        let (at, state) = self
            .cursors
            .entry(db)
            .or_insert_with(|| (0, dbs[db].1.clone()));
        let toggle = |state: &mut Db, t: &Toggle, forward: bool| {
            if t.insert == forward {
                state.insert(t.rel, t.edge);
            } else {
                state.remove(t.rel, t.edge);
            }
        };
        while *at < version {
            toggle(state, &writes[db][*at], true);
            *at += 1;
        }
        while *at > version {
            *at -= 1;
            toggle(state, &writes[db][*at], false);
        }
        state
    }

    fn expected(&mut self, db: usize, version: usize, q: &crate::oracle::Query) -> String {
        let key = (db, version, q.key());
        if let Some(hit) = self.answers.get(&key) {
            return hit.clone();
        }
        let rows = rows_json(&evaluate(q, self.state(db, version)));
        if self.answers.len() >= MEMO_LIMIT {
            let cursors = &self.cursors;
            self.answers.retain(|(db, v, _), _| {
                cursors
                    .get(db)
                    .is_none_or(|(at, _)| v + MEMO_VERSIONS >= *at)
            });
        }
        self.answers.insert(key, rows.clone());
        rows
    }

    /// `Ok` when the record got the right answer, else why not.
    pub fn check(&mut self, rec: &Record) -> Result<(), String> {
        let id = rec.req.id;
        let line = rec
            .response
            .as_deref()
            .ok_or_else(|| format!("request {id}: no response"))?;
        if field(line, "id") != Some(id.to_string().as_str()) {
            return Err(format!("request {id}: response out of order: {line}"));
        }
        if field(line, "status") != Some("ok") {
            return Err(format!("request {id}: {line}"));
        }
        let wrong = |what: &str| Err(format!("request {id}: wrong {what}: {line}"));
        match &rec.req.expect {
            Expect::Put => match field(line, "version") {
                Some(_) => Ok(()),
                None => wrong("put outcome"),
            },
            Expect::Read { db, query } => {
                let got = field(line, "answers").unwrap_or("");
                let writes = self.writes.get(*db).map_or(0, Vec::len);
                let (lo, hi) = if writes == 0 {
                    (0, 0)
                } else {
                    (rec.lo, rec.hi.min(writes))
                };
                if (lo..=hi).rev().any(|v| self.expected(*db, v, query) == got) {
                    Ok(())
                } else {
                    wrong(&format!("answer (versions {lo}..={hi})"))
                }
            }
            Expect::Write { seq, .. } => {
                // A put creates version 1; each applied write adds one.
                let version = (seq + 1).to_string();
                if field(line, "applied") == Some("true")
                    && field(line, "version") == Some(version.as_str())
                {
                    Ok(())
                } else {
                    wrong(&format!("write outcome (want version {version})"))
                }
            }
            Expect::Solve { a, b, sat } => {
                let got_sat = field(line, "sat") == Some("true");
                if got_sat != *sat {
                    return wrong("satisfiability");
                }
                if *sat {
                    let witness = field(line, "witness").and_then(u32_array);
                    let ok = witness
                        .is_some_and(|w| is_homomorphism(&self.dbs[*a].1, &self.dbs[*b].1, &w));
                    if !ok {
                        return wrong("witness");
                    }
                }
                Ok(())
            }
            Expect::Contain { q1, q2 } => {
                let key = (q1.key(), q2.key());
                let (forward, backward) = *self
                    .containment
                    .entry(key)
                    .or_insert_with(|| (contained_in(q1, q2), contained_in(q2, q1)));
                let got = (
                    field(line, "forward") == Some("true"),
                    field(line, "backward") == Some("true"),
                );
                if got == (forward, backward) {
                    Ok(())
                } else {
                    wrong("containment")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Phase;
    use crate::gen::Req;
    use crate::oracle::{Atom, Query};
    use std::time::Instant;

    fn record(expect: Expect, response: &str) -> Record {
        Record {
            req: Req {
                id: 7,
                line: String::new(),
                expect,
            },
            phase: Phase::Open,
            due: None,
            sent: Instant::now(),
            recv: Some(Instant::now()),
            response: Some(response.to_owned()),
            lo: 0,
            hi: 0,
        }
    }

    fn path2() -> Query {
        let atom = |a, b| Atom {
            rel: "E".into(),
            a,
            b,
        };
        Query {
            name: "Q".into(),
            head: vec![0, 1],
            atoms: vec![atom(0, 2), atom(2, 1)],
        }
    }

    #[test]
    fn extracts_fields() {
        let line = r#"{"id":3,"status":"ok","cached":true,"answers":[[0,2],[1,3]],"micros":42}"#;
        assert_eq!(field(line, "id"), Some("3"));
        assert_eq!(field(line, "status"), Some("ok"));
        assert_eq!(field(line, "answers"), Some("[[0,2],[1,3]]"));
        assert_eq!(field(line, "micros"), Some("42"));
        assert_eq!(field(line, "missing"), None);
        assert_eq!(u32_array("[3,0,2]"), Some(vec![3, 0, 2]));
        assert_eq!(u32_array("[]"), Some(vec![]));
    }

    #[test]
    fn oracle_rejects_a_corrupted_answer() {
        let mut db = Db::default();
        for e in [(0, 1), (1, 2), (2, 0)] {
            db.insert("E", e);
        }
        let dbs = vec![("g".to_owned(), db)];
        let writes = vec![Vec::new()];
        let mut checker = Checker::new(&dbs, &writes);
        let read = || Expect::Read {
            db: 0,
            query: path2(),
        };
        let good = r#"{"id":7,"status":"ok","cached":false,"answers":[[0,2],[1,0],[2,1]]}"#;
        assert_eq!(checker.check(&record(read(), good)), Ok(()));
        for bad in [
            r#"{"id":7,"status":"ok","cached":false,"answers":[[0,2],[1,0]]}"#,
            r#"{"id":7,"status":"ok","cached":false,"answers":[[0,2],[1,0],[2,2]]}"#,
            r#"{"id":7,"status":"ok","cached":false,"answers":[[1,0],[0,2],[2,1]]}"#,
            r#"{"id":8,"status":"ok","cached":false,"answers":[[0,2],[1,0],[2,1]]}"#,
            r#"{"id":7,"status":"overloaded","lane":"heavy"}"#,
        ] {
            assert!(checker.check(&record(read(), bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn reads_may_see_any_version_in_their_window() {
        let mut db = Db::default();
        db.insert("E", (0, 1));
        db.insert("E", (1, 2));
        let dbs = vec![("g".to_owned(), db)];
        let writes = vec![vec![Toggle {
            rel: "E",
            edge: (2, 0),
            insert: true,
        }]];
        let mut checker = Checker::new(&dbs, &writes);
        let before = r#"{"id":7,"status":"ok","answers":[[0,2]]}"#;
        let after = r#"{"id":7,"status":"ok","answers":[[0,2],[1,0],[2,1]]}"#;
        let mut rec = record(
            Expect::Read {
                db: 0,
                query: path2(),
            },
            before,
        );
        (rec.lo, rec.hi) = (0, 1);
        assert_eq!(checker.check(&rec), Ok(()));
        rec.response = Some(after.into());
        assert_eq!(checker.check(&rec), Ok(()));
        // Once the write was acknowledged before the read was sent, the
        // old answer is stale.
        (rec.lo, rec.hi) = (1, 1);
        rec.response = Some(before.into());
        assert!(checker.check(&rec).is_err());
    }

    #[test]
    fn solve_witnesses_are_checked() {
        let mut a = Db::default();
        a.insert("E", (0, 1));
        a.insert("E", (1, 2));
        let mut k2 = Db::default();
        k2.insert("E", (0, 1));
        k2.insert("E", (1, 0));
        let dbs = vec![("a".to_owned(), a), ("k2".to_owned(), k2)];
        let writes = vec![Vec::new(), Vec::new()];
        let mut checker = Checker::new(&dbs, &writes);
        let solve = || Expect::Solve {
            a: 0,
            b: 1,
            sat: true,
        };
        let ok = r#"{"id":7,"status":"ok","sat":true,"witness":[0,1,0]}"#;
        let bad = r#"{"id":7,"status":"ok","sat":true,"witness":[0,0,1]}"#;
        let unsat = r#"{"id":7,"status":"ok","sat":false}"#;
        assert_eq!(checker.check(&record(solve(), ok)), Ok(()));
        assert!(checker.check(&record(solve(), bad)).is_err());
        assert!(checker.check(&record(solve(), unsat)).is_err());
    }
}
