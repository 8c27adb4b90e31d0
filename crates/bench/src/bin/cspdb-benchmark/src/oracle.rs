//! The answer oracle: the harness's own fact model and evaluator.
//!
//! Nothing here calls into the program under test — no parser, planner,
//! join kernel, view or cache of the repository. Reads are checked
//! against an indexed backtracking evaluator over [`Db`], containment
//! against a homomorphism search built from the same evaluator, and
//! `solve` witnesses by checking every edge.

use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A database of binary relations, as the harness generated it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Db {
    pub rels: BTreeMap<String, BTreeSet<(u32, u32)>>,
}

impl Db {
    pub fn insert(&mut self, rel: &str, edge: (u32, u32)) -> bool {
        self.rels.entry(rel.to_owned()).or_default().insert(edge)
    }

    pub fn remove(&mut self, rel: &str, edge: (u32, u32)) -> bool {
        self.rels.get_mut(rel).is_some_and(|r| r.remove(&edge))
    }

    pub fn contains(&self, rel: &str, edge: (u32, u32)) -> bool {
        self.rels.get(rel).is_some_and(|r| r.contains(&edge))
    }

    /// The `put` payload: one `Rel a b` line per fact.
    pub fn to_facts(&self) -> String {
        let mut out = String::new();
        for (rel, edges) in &self.rels {
            for (a, b) in edges {
                out.push_str(&format!("{rel} {a} {b}\n"));
            }
        }
        out
    }

    pub fn fact_count(&self) -> usize {
        self.rels.values().map(BTreeSet::len).sum()
    }
}

/// One body atom `rel(a, b)` over variable indices.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    pub rel: String,
    pub a: u32,
    pub b: u32,
}

/// A conjunctive query over binary relations, variables numbered
/// `0..vars`. The harness renders it to text with whatever variable
/// names and atom order it likes; the oracle evaluates this form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    pub name: String,
    pub head: Vec<u32>,
    pub atoms: Vec<Atom>,
}

impl Query {
    pub fn vars(&self) -> u32 {
        self.atoms
            .iter()
            .map(|a| a.a.max(a.b) + 1)
            .chain(self.head.iter().map(|&h| h + 1))
            .max()
            .unwrap_or(0)
    }

    /// A stable identity for memoising answers (name excluded: it does
    /// not change the answer).
    pub fn key(&self) -> String {
        let atoms: Vec<String> = self
            .atoms
            .iter()
            .map(|a| format!("{}({},{})", a.rel, a.a, a.b))
            .collect();
        format!("{:?}:{}", self.head, atoms.join(","))
    }
}

/// Per-relation adjacency built once per database state.
struct Index<'a> {
    out: HashMap<&'a str, HashMap<u32, Vec<u32>>>,
    inn: HashMap<&'a str, HashMap<u32, Vec<u32>>>,
    db: &'a Db,
}

impl<'a> Index<'a> {
    fn new(db: &'a Db) -> Index<'a> {
        let mut out: HashMap<&str, HashMap<u32, Vec<u32>>> = HashMap::new();
        let mut inn: HashMap<&str, HashMap<u32, Vec<u32>>> = HashMap::new();
        for (rel, edges) in &db.rels {
            let o = out.entry(rel.as_str()).or_default();
            for &(a, b) in edges {
                o.entry(a).or_default().push(b);
            }
            let i = inn.entry(rel.as_str()).or_default();
            for &(a, b) in edges {
                i.entry(b).or_default().push(a);
            }
        }
        Index { out, inn, db }
    }
}

/// Every binding of the query's head, sorted lexicographically — the
/// same order the wire format promises.
pub fn evaluate(q: &Query, db: &Db) -> BTreeSet<Vec<u32>> {
    let index = Index::new(db);
    let mut binding: Vec<Option<u32>> = vec![None; q.vars() as usize];
    let order = atom_order(q);
    // The depth from which every head variable is bound: past it, a
    // head tuple already found needs no second witness.
    let mut bound: BTreeSet<u32> = BTreeSet::new();
    let head_bound = (0..=order.len())
        .find(|&d| {
            if d > 0 {
                bound.insert(q.atoms[order[d - 1]].a);
                bound.insert(q.atoms[order[d - 1]].b);
            }
            q.head.iter().all(|h| bound.contains(h))
        })
        .unwrap_or(order.len());
    let mut out = BTreeSet::new();
    let search = Search {
        q,
        order: &order,
        head_bound,
        index: &index,
    };
    search.run(0, &mut binding, &mut out);
    out
}

/// Connected greedy order, head variables first: always extend by an
/// atom sharing a variable with the ones already placed, so no level
/// enumerates a cross product, preferring atoms that bind the head.
fn atom_order(q: &Query) -> Vec<usize> {
    let mut placed: Vec<usize> = Vec::new();
    let mut bound: BTreeSet<u32> = BTreeSet::new();
    while placed.len() < q.atoms.len() {
        let next = (0..q.atoms.len())
            .filter(|i| !placed.contains(i))
            .max_by_key(|&i| {
                let a = &q.atoms[i];
                let shared = usize::from(bound.contains(&a.a)) + usize::from(bound.contains(&a.b));
                let head = [a.a, a.b]
                    .iter()
                    .filter(|v| q.head.contains(v) && !bound.contains(v))
                    .count();
                (shared, head)
            })
            .expect("an unplaced atom remains");
        bound.insert(q.atoms[next].a);
        bound.insert(q.atoms[next].b);
        placed.push(next);
    }
    placed
}

struct Search<'a> {
    q: &'a Query,
    order: &'a [usize],
    head_bound: usize,
    index: &'a Index<'a>,
}

impl Search<'_> {
    fn head(&self, binding: &[Option<u32>]) -> Vec<u32> {
        self.q
            .head
            .iter()
            .map(|&h| binding[h as usize].expect("head variables occur in the body"))
            .collect()
    }

    fn run(&self, depth: usize, binding: &mut Vec<Option<u32>>, out: &mut BTreeSet<Vec<u32>>) {
        if depth == self.order.len() {
            out.insert(self.head(binding));
            return;
        }
        if depth >= self.head_bound && out.contains(&self.head(binding)) {
            return;
        }
        let atom = &self.q.atoms[self.order[depth]];
        let (a, b) = (atom.a as usize, atom.b as usize);
        let mut try_edge = |x: u32, y: u32, binding: &mut Vec<Option<u32>>| {
            let (old_a, old_b) = (binding[a], binding[b]);
            if old_a.is_some_and(|v| v != x) {
                return;
            }
            binding[a] = Some(x);
            if binding[b].is_some_and(|v| v != y) {
                binding[a] = old_a;
                return;
            }
            binding[b] = Some(y);
            self.run(depth + 1, binding, out);
            binding[a] = old_a;
            binding[b] = old_b;
        };
        let index = self.index;
        match (binding[a], binding[b]) {
            (Some(x), Some(y)) => {
                if index.db.contains(&atom.rel, (x, y)) {
                    self.run(depth + 1, binding, out);
                }
            }
            (Some(x), None) => {
                if let Some(ys) = index.out.get(atom.rel.as_str()).and_then(|m| m.get(&x)) {
                    for &y in ys {
                        try_edge(x, y, binding);
                    }
                }
            }
            (None, Some(y)) => {
                if let Some(xs) = index.inn.get(atom.rel.as_str()).and_then(|m| m.get(&y)) {
                    for &x in xs {
                        try_edge(x, y, binding);
                    }
                }
            }
            (None, None) => {
                if let Some(edges) = index.db.rels.get(&atom.rel) {
                    for &(x, y) in edges {
                        try_edge(x, y, binding);
                    }
                }
            }
        }
    }
}

/// Renders rows as the wire's answer array: `[[0,2],[1,3]]`.
pub fn rows_json(rows: &BTreeSet<Vec<u32>>) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            let cells: Vec<String> = r.iter().map(u32::to_string).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    format!("[{}]", body.join(","))
}

/// Chandra–Merlin by hand: `q1 ⊆ q2` iff `q2`'s body maps into `q1`'s
/// canonical database with `q2`'s head landing on `q1`'s head.
pub fn contained_in(q1: &Query, q2: &Query) -> bool {
    if q1.head.len() != q2.head.len() {
        return false;
    }
    let mut canonical = Db::default();
    for atom in &q1.atoms {
        canonical.insert(&atom.rel, (atom.a, atom.b));
    }
    evaluate(q2, &canonical).contains(&q1.head)
}

/// True when `witness` maps every edge of `a` onto an edge of `b`.
pub fn is_homomorphism(a: &Db, b: &Db, witness: &[u32]) -> bool {
    a.rels.iter().all(|(rel, edges)| {
        edges.iter().all(
            |&(x, y)| match (witness.get(x as usize), witness.get(y as usize)) {
                (Some(&fx), Some(&fy)) => b.contains(rel, (fx, fy)),
                _ => false,
            },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(edges: &[(u32, u32)]) -> Db {
        let mut db = Db::default();
        for &e in edges {
            db.insert("E", e);
        }
        db
    }

    fn atom(rel: &str, a: u32, b: u32) -> Atom {
        Atom {
            rel: rel.into(),
            a,
            b,
        }
    }

    fn path2() -> Query {
        Query {
            name: "Q".into(),
            head: vec![0, 1],
            atoms: vec![atom("E", 2, 1), atom("E", 0, 2)],
        }
    }

    #[test]
    fn evaluates_paths_and_serialises_sorted() {
        let db = graph(&[(0, 1), (1, 2), (1, 3), (3, 0)]);
        let rows = evaluate(&path2(), &db);
        assert_eq!(rows_json(&rows), "[[0,2],[0,3],[1,0],[3,1]]");
    }

    /// Every assignment of every variable to `0..nodes`, checked atom by
    /// atom: slow, and obviously right.
    fn brute_force(q: &Query, db: &Db, nodes: u32) -> BTreeSet<Vec<u32>> {
        let vars = q.vars() as usize;
        let mut out = BTreeSet::new();
        let mut assignment = vec![0u32; vars];
        loop {
            if q.atoms
                .iter()
                .all(|a| db.contains(&a.rel, (assignment[a.a as usize], assignment[a.b as usize])))
            {
                out.insert(q.head.iter().map(|&h| assignment[h as usize]).collect());
            }
            let Some(i) = (0..vars).find(|&i| assignment[i] + 1 < nodes) else {
                return out;
            };
            assignment[i] += 1;
            assignment[..i].fill(0);
        }
    }

    #[test]
    fn pruned_search_equals_brute_force() {
        let shapes: [crate::gen::Shape; 6] = [
            (&[0], &[("E", 0, 1), ("E", 1, 2)]),
            (&[1], &[("E", 0, 1), ("F", 1, 2), ("E", 2, 3)]),
            (&[0, 2], &[("E", 0, 1), ("F", 1, 2)]),
            (&[2], &[("E", 0, 1), ("E", 1, 2), ("E", 2, 0)]),
            (&[0, 1], &[("F", 2, 0), ("E", 0, 1), ("E", 3, 1)]),
            (
                &[3, 0],
                &[("E", 0, 1), ("F", 1, 2), ("E", 2, 3), ("F", 3, 0)],
            ),
        ];
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |n: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(n)) as u32
        };
        for round in 0..20 {
            let nodes = 4 + round % 3;
            let mut db = Db::default();
            for _ in 0..3 * nodes {
                db.insert("E", (next(nodes), next(nodes)));
                db.insert("F", (next(nodes), next(nodes)));
            }
            for (head, atoms) in shapes {
                let q = Query {
                    name: "Q".into(),
                    head: head.to_vec(),
                    atoms: atoms.iter().map(|&(r, a, b)| atom(r, a, b)).collect(),
                };
                assert_eq!(evaluate(&q, &db), brute_force(&q, &db, nodes), "{q:?}");
            }
        }
    }

    #[test]
    fn containment_by_homomorphism() {
        // Q(X) :- E(X,Y), E(Y,Z)  is contained in  Q(X) :- E(X,Y).
        let long = Query {
            name: "A".into(),
            head: vec![0],
            atoms: vec![atom("E", 0, 1), atom("E", 1, 2)],
        };
        let short = Query {
            name: "B".into(),
            head: vec![0],
            atoms: vec![atom("E", 0, 1)],
        };
        assert!(contained_in(&long, &short));
        assert!(!contained_in(&short, &long));
        assert!(contained_in(&long, &long));
    }

    #[test]
    fn checks_homomorphism_witnesses() {
        let c4 = graph(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let k2 = graph(&[(0, 1), (1, 0)]);
        assert!(is_homomorphism(&c4, &k2, &[0, 1, 0, 1]));
        assert!(!is_homomorphism(&c4, &k2, &[0, 1, 1, 0]));
        assert!(!is_homomorphism(&c4, &k2, &[0, 1]), "short witness");
    }
}
