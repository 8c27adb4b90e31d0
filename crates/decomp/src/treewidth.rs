//! Tree decompositions and treewidth: heuristics and exact computation.
//!
//! The paper (Section 6) defines tree decompositions of relational
//! structures and uses bounded treewidth to obtain tractable CSP classes
//! (Theorem 6.2). The paper cites Bodlaender's linear-time recognition
//! algorithm for fixed `k`; that algorithm is impractical, so — per the
//! substitution table in DESIGN.md — we provide:
//!
//! * elimination-order heuristics (min-degree, min-fill) that produce
//!   *valid* decompositions whose width upper-bounds the treewidth, and
//! * an exact branch-and-bound over elimination orders (with memoization
//!   on eliminated-vertex bitmasks) for graphs with at most 64 vertices,
//!
//! both returning certificates that [`TreeDecomposition::validate`]
//! checks independently.

use crate::graph::Graph;
use cspdb_core::budget::{Budget, ExhaustionReason, Meter};
use cspdb_core::Structure;
use std::collections::{BTreeSet, HashSet};

/// A tree decomposition: bags of vertices connected by tree edges.
///
/// Condition numbering follows the paper: (1) bags are subsets of the
/// domain, (2) every fact/edge is covered by some bag, (3) the bags
/// containing any vertex form a connected subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeDecomposition {
    /// Vertex sets, sorted ascending.
    pub bags: Vec<Vec<u32>>,
    /// Undirected tree edges between bag indices.
    pub edges: Vec<(usize, usize)>,
}

impl TreeDecomposition {
    /// Width: maximum bag size minus one (−1 conventionally for an empty
    /// decomposition, reported as 0-size saturating).
    pub fn width(&self) -> usize {
        self.bags
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
            .saturating_sub(1)
    }

    /// Neighbor lists of the decomposition tree.
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.bags.len()];
        for &(a, b) in &self.edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        adj
    }

    /// Validates the decomposition against a graph:
    /// the tree is a tree (connected, acyclic, when nonempty), every
    /// vertex appears in a bag, every edge is covered by a bag, and each
    /// vertex's bags form a subtree.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        let nb = self.bags.len();
        // Tree shape.
        if nb > 0 {
            if self.edges.len() != nb - 1 {
                return Err(format!(
                    "tree must have {} edges, found {}",
                    nb - 1,
                    self.edges.len()
                ));
            }
            // Connectivity of the bag tree.
            let adj = self.adjacency();
            let mut seen = vec![false; nb];
            let mut stack = vec![0usize];
            seen[0] = true;
            let mut count = 1;
            while let Some(u) = stack.pop() {
                for &v in &adj[u] {
                    if !seen[v] {
                        seen[v] = true;
                        count += 1;
                        stack.push(v);
                    }
                }
            }
            if count != nb {
                return Err("bag tree is disconnected".into());
            }
        }
        let n = g.num_vertices();
        // Condition 1 + vertex coverage.
        let mut holder: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, bag) in self.bags.iter().enumerate() {
            for &v in bag {
                if v as usize >= n {
                    return Err(format!("bag {i} mentions vertex {v} out of range"));
                }
                holder[v as usize].push(i);
            }
        }
        for (v, bags_of_v) in holder.iter().enumerate() {
            if bags_of_v.is_empty() {
                return Err(format!("vertex {v} is in no bag"));
            }
        }
        // Condition 2: edge coverage.
        for (u, v) in g.edges() {
            let covered = self
                .bags
                .iter()
                .any(|bag| bag.binary_search(&u).is_ok() && bag.binary_search(&v).is_ok());
            if !covered {
                return Err(format!("edge ({u},{v}) covered by no bag"));
            }
        }
        // Condition 3: connected subtrees.
        let adj = self.adjacency();
        for (v, bags_of_v) in holder.iter().enumerate() {
            let mine: HashSet<usize> = bags_of_v.iter().copied().collect();
            let start = bags_of_v[0];
            let mut seen = HashSet::new();
            seen.insert(start);
            let mut stack = vec![start];
            while let Some(b) = stack.pop() {
                for &c in &adj[b] {
                    if mine.contains(&c) && seen.insert(c) {
                        stack.push(c);
                    }
                }
            }
            if seen.len() != mine.len() {
                return Err(format!("bags of vertex {v} are not connected"));
            }
        }
        Ok(())
    }

    /// Validates against a relational structure per the paper's
    /// definition: every tuple of every relation must be contained in some
    /// bag, every element in some bag, subtrees connected. (Uses the
    /// Gaifman graph for conditions 1 and 3 and checks tuple coverage
    /// directly.)
    pub fn validate_structure(&self, s: &Structure) -> Result<(), String> {
        self.validate(&Graph::gaifman(s))?;
        for (_, rel) in s.relations() {
            for t in rel.iter() {
                let covered = self
                    .bags
                    .iter()
                    .any(|bag| t.iter().all(|x| bag.binary_search(x).is_ok()));
                if !covered {
                    return Err(format!("tuple {t:?} covered by no bag"));
                }
            }
        }
        Ok(())
    }
}

/// Builds a tree decomposition from an elimination order by simulating
/// the elimination game: eliminating `v` creates the bag
/// `{v} ∪ N_current(v)` and turns `N_current(v)` into a clique.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the vertices.
pub fn from_elimination_order(g: &Graph, order: &[u32]) -> TreeDecomposition {
    let n = g.num_vertices();
    assert_eq!(order.len(), n, "order must cover all vertices");
    let mut position = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        assert!(
            position[v as usize] == usize::MAX,
            "repeated vertex in order"
        );
        position[v as usize] = i;
    }
    if n == 0 {
        return TreeDecomposition {
            bags: vec![],
            edges: vec![],
        };
    }
    let mut adj: Vec<BTreeSet<u32>> = (0..n as u32).map(|v| g.neighbors(v).collect()).collect();
    let mut bags: Vec<Vec<u32>> = Vec::with_capacity(n);
    let mut bag_of_vertex = vec![usize::MAX; n]; // bag created when vertex eliminated
    for (step, &v) in order.iter().enumerate() {
        let neighbors: Vec<u32> = adj[v as usize].iter().copied().collect();
        let mut bag = neighbors.clone();
        bag.push(v);
        bag.sort_unstable();
        bag_of_vertex[v as usize] = step;
        bags.push(bag);
        // Make neighbors a clique and remove v.
        for (i, &a) in neighbors.iter().enumerate() {
            adj[a as usize].remove(&v);
            for &b in &neighbors[i + 1..] {
                adj[a as usize].insert(b);
                adj[b as usize].insert(a);
            }
        }
    }
    // Connect each bag to the bag of the earliest-eliminated later
    // neighbor; bags with no later neighbor attach to the final bag.
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for (step, &v) in order.iter().enumerate() {
        let bag = &bags[step];
        let next = bag
            .iter()
            .filter(|&&u| u != v)
            .map(|&u| position[u as usize])
            .min();
        match next {
            Some(p) => edges.push((step, p)),
            None => {
                if step + 1 < n {
                    edges.push((step, n - 1));
                }
            }
        }
    }
    TreeDecomposition { bags, edges }
}

/// Min-degree elimination order heuristic.
pub fn min_degree_order(g: &Graph) -> Vec<u32> {
    elimination_heuristic(g, |adj, v| adj[v as usize].len())
}

/// Min-fill elimination order heuristic (number of missing edges among
/// current neighbors).
pub fn min_fill_order(g: &Graph) -> Vec<u32> {
    min_fill_order_budgeted(g, &Budget::unlimited()).expect("unlimited budget cannot exhaust")
}

/// [`min_fill_order`] under a [`Budget`]: even *planning* a
/// decomposition is quadratic-plus in the vertex count, so tiered
/// strategies budget it like any other phase. One step is ticked per
/// candidate score evaluation.
pub fn min_fill_order_budgeted(g: &Graph, budget: &Budget) -> Result<Vec<u32>, ExhaustionReason> {
    let mut meter = budget.meter();
    min_fill_order_metered(g, &mut meter)
}

/// Core of [`min_fill_order_budgeted`]: charges the caller's [`Meter`]
/// instead of owning a fresh one,
/// so callers can pool planning with downstream DP on one budget slice.
pub fn min_fill_order_metered(g: &Graph, meter: &mut Meter) -> Result<Vec<u32>, ExhaustionReason> {
    elimination_heuristic_budgeted(g, meter, fill_score)
}

/// Min-fill score: missing edges among the current neighbors of `v`.
fn fill_score(adj: &[BTreeSet<u32>], v: u32) -> usize {
    let ns: Vec<u32> = adj[v as usize].iter().copied().collect();
    let mut fill = 0usize;
    for (i, &a) in ns.iter().enumerate() {
        for &b in &ns[i + 1..] {
            if !adj[a as usize].contains(&b) {
                fill += 1;
            }
        }
    }
    fill
}

fn elimination_heuristic(g: &Graph, score: impl Fn(&[BTreeSet<u32>], u32) -> usize) -> Vec<u32> {
    elimination_heuristic_budgeted(g, &mut Budget::unlimited().meter(), score)
        .expect("unlimited budget cannot exhaust")
}

fn elimination_heuristic_budgeted(
    g: &Graph,
    meter: &mut Meter,
    score: impl Fn(&[BTreeSet<u32>], u32) -> usize,
) -> Result<Vec<u32>, ExhaustionReason> {
    let n = g.num_vertices();
    let mut adj: Vec<BTreeSet<u32>> = (0..n as u32).map(|v| g.neighbors(v).collect()).collect();
    let mut alive: Vec<bool> = vec![true; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let mut best: Option<(usize, u32)> = None;
        for v in (0..n as u32).filter(|&v| alive[v as usize]) {
            meter.tick()?;
            let key = (score(&adj, v), v);
            if best.map(|b| key < b).unwrap_or(true) {
                best = Some(key);
            }
        }
        let (_, v) = best.expect("some vertex alive");
        order.push(v);
        alive[v as usize] = false;
        let ns: Vec<u32> = adj[v as usize].iter().copied().collect();
        for (i, &a) in ns.iter().enumerate() {
            adj[a as usize].remove(&v);
            for &b in &ns[i + 1..] {
                adj[a as usize].insert(b);
                adj[b as usize].insert(a);
            }
        }
        adj[v as usize].clear();
    }
    Ok(order)
}

/// Width of the decomposition induced by an elimination order, without
/// materializing the decomposition.
pub fn order_width(g: &Graph, order: &[u32]) -> usize {
    let n = g.num_vertices();
    let mut adj: Vec<BTreeSet<u32>> = (0..n as u32).map(|v| g.neighbors(v).collect()).collect();
    let mut width = 0usize;
    for &v in order {
        let ns: Vec<u32> = adj[v as usize].iter().copied().collect();
        width = width.max(ns.len());
        for (i, &a) in ns.iter().enumerate() {
            adj[a as usize].remove(&v);
            for &b in &ns[i + 1..] {
                adj[a as usize].insert(b);
                adj[b as usize].insert(a);
            }
        }
        adj[v as usize].clear();
    }
    width
}

/// Heuristic treewidth upper bound: the better of min-degree and
/// min-fill, returned with its decomposition.
pub fn heuristic_decomposition(g: &Graph) -> TreeDecomposition {
    heuristic_decomposition_budgeted(g, &Budget::unlimited())
        .expect("unlimited budget cannot exhaust")
}

/// [`heuristic_decomposition`] under a [`Budget`]. Both elimination
/// heuristics draw from the same meter, so the budget bounds the whole
/// planning phase rather than each heuristic separately.
pub fn heuristic_decomposition_budgeted(
    g: &Graph,
    budget: &Budget,
) -> Result<TreeDecomposition, ExhaustionReason> {
    let mut meter = budget.meter();
    let o1 = elimination_heuristic_budgeted(g, &mut meter, |adj, v| adj[v as usize].len())?;
    let o2 = elimination_heuristic_budgeted(g, &mut meter, fill_score)?;
    let order = if order_width(g, &o1) <= order_width(g, &o2) {
        o1
    } else {
        o2
    };
    Ok(from_elimination_order(g, &order))
}

/// Exact treewidth by iterative deepening over elimination orders with
/// memoization on the set of eliminated vertices. Only supports graphs
/// with at most 64 vertices.
///
/// Returns `(treewidth, witness elimination order)`.
///
/// # Panics
///
/// Panics if the graph has more than 64 vertices.
pub fn exact_treewidth(g: &Graph) -> (usize, Vec<u32>) {
    exact_treewidth_budgeted(g, &Budget::unlimited()).expect("unlimited budget cannot exhaust")
}

/// [`exact_treewidth`] under a [`Budget`]: the branch-and-bound over
/// elimination orders is worst-case exponential, so one step is ticked
/// per candidate elimination attempt and the deadline is honored at
/// amortized checkpoints. `Err` means inconclusive — no bound on the
/// treewidth was established before the budget ran out.
///
/// # Panics
///
/// Panics if the graph has more than 64 vertices.
pub fn exact_treewidth_budgeted(
    g: &Graph,
    budget: &Budget,
) -> Result<(usize, Vec<u32>), ExhaustionReason> {
    let n = g.num_vertices();
    assert!(n <= 64, "exact treewidth limited to 64 vertices");
    if n == 0 {
        return Ok((0, vec![]));
    }
    let mut meter = budget.meter();
    let ub_order = elimination_heuristic_budgeted(g, &mut meter, fill_score)?;
    let ub = order_width(g, &ub_order);
    // Lower bound: maximum over subgraph minimum degrees (degeneracy).
    let lb = degeneracy(g);
    for k in lb..=ub {
        let mut failed: HashSet<u64> = HashSet::new();
        let mut order = Vec::with_capacity(n);
        if feasible(g, k, 0u64, &mut order, &mut failed, &mut meter)? {
            return Ok((k, order));
        }
    }
    Ok((ub, ub_order))
}

/// Degeneracy: a classical treewidth lower bound.
fn degeneracy(g: &Graph) -> usize {
    let n = g.num_vertices();
    let mut alive: Vec<bool> = vec![true; n];
    let mut degree: Vec<usize> = (0..n as u32).map(|v| g.degree(v)).collect();
    let mut best = 0usize;
    for _ in 0..n {
        let v = (0..n)
            .filter(|&v| alive[v])
            .min_by_key(|&v| degree[v])
            .expect("some vertex alive");
        best = best.max(degree[v]);
        alive[v] = false;
        for u in g.neighbors(v as u32) {
            if alive[u as usize] {
                degree[u as usize] -= 1;
            }
        }
    }
    best
}

/// Current neighborhood of `v` given the eliminated-set mask: the
/// non-eliminated vertices reachable from `v` through eliminated ones.
fn current_neighbors(g: &Graph, v: u32, eliminated: u64) -> Vec<u32> {
    let mut out = Vec::new();
    let mut seen = 1u64 << v;
    let mut stack = vec![v];
    while let Some(u) = stack.pop() {
        for w in g.neighbors(u) {
            if seen & (1 << w) != 0 {
                continue;
            }
            seen |= 1 << w;
            if eliminated & (1 << w) != 0 {
                stack.push(w);
            } else {
                out.push(w);
            }
        }
    }
    out
}

fn feasible(
    g: &Graph,
    k: usize,
    eliminated: u64,
    order: &mut Vec<u32>,
    failed: &mut HashSet<u64>,
    meter: &mut Meter,
) -> Result<bool, ExhaustionReason> {
    let n = g.num_vertices();
    let remaining = n - eliminated.count_ones() as usize;
    if remaining <= k + 1 {
        // Eliminate the rest in any order: bags have size <= k+1.
        for v in 0..n as u32 {
            if eliminated & (1 << v) == 0 {
                order.push(v);
            }
        }
        return Ok(true);
    }
    if failed.contains(&eliminated) {
        return Ok(false);
    }
    for v in 0..n as u32 {
        if eliminated & (1 << v) != 0 {
            continue;
        }
        meter.tick()?;
        let ns = current_neighbors(g, v, eliminated);
        if ns.len() <= k {
            order.push(v);
            if feasible(g, k, eliminated | (1 << v), order, failed, meter)? {
                return Ok(true);
            }
            order.pop();
        }
    }
    failed.insert(eliminated);
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle_graph(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as u32).map(|i| (i, (i + 1) % n as u32)))
    }

    fn complete_graph(n: usize) -> Graph {
        Graph::from_edges(
            n,
            (0..n as u32).flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j))),
        )
    }

    fn grid_graph(rows: usize, cols: usize) -> Graph {
        let mut edges = Vec::new();
        let at = |r: usize, c: usize| (r * cols + c) as u32;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((at(r, c), at(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((at(r, c), at(r + 1, c)));
                }
            }
        }
        Graph::from_edges(rows * cols, edges)
    }

    #[test]
    fn elimination_order_yields_valid_decomposition() {
        for g in [cycle_graph(6), complete_graph(4), grid_graph(3, 3)] {
            for order in [min_degree_order(&g), min_fill_order(&g)] {
                let td = from_elimination_order(&g, &order);
                td.validate(&g).expect("valid decomposition");
                assert_eq!(order_width(&g, &order), td.width());
            }
        }
    }

    #[test]
    fn known_treewidths_exact() {
        assert_eq!(exact_treewidth(&Graph::new(1)).0, 0);
        assert_eq!(exact_treewidth(&Graph::from_edges(2, [(0, 1)])).0, 1);
        assert_eq!(exact_treewidth(&cycle_graph(5)).0, 2);
        assert_eq!(exact_treewidth(&complete_graph(5)).0, 4);
        assert_eq!(exact_treewidth(&grid_graph(3, 3)).0, 3);
        assert_eq!(exact_treewidth(&grid_graph(2, 5)).0, 2);
        // Trees have treewidth 1.
        let tree = Graph::from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]);
        assert_eq!(exact_treewidth(&tree).0, 1);
    }

    #[test]
    fn exact_witness_is_consistent() {
        for g in [cycle_graph(7), grid_graph(3, 4), complete_graph(4)] {
            let (w, order) = exact_treewidth(&g);
            assert_eq!(order_width(&g, &order), w);
            let td = from_elimination_order(&g, &order);
            td.validate(&g).expect("exact witness validates");
            assert_eq!(td.width(), w);
        }
    }

    #[test]
    fn heuristics_upper_bound_exact() {
        for g in [cycle_graph(8), grid_graph(3, 3), complete_graph(5)] {
            let td = heuristic_decomposition(&g);
            td.validate(&g).expect("heuristic decomposition validates");
            let (w, _) = exact_treewidth(&g);
            assert!(td.width() >= w);
        }
    }

    #[test]
    fn validate_structure_checks_tuples() {
        let voc = cspdb_core::Vocabulary::new([("T", 3)]).unwrap();
        let mut s = cspdb_core::Structure::new(voc, 3);
        s.insert_by_name("T", &[0, 1, 2]).unwrap();
        let good = TreeDecomposition {
            bags: vec![vec![0, 1, 2]],
            edges: vec![],
        };
        good.validate_structure(&s).expect("covers the tuple");
        let bad = TreeDecomposition {
            bags: vec![vec![0, 1], vec![1, 2], vec![0, 2]],
            edges: vec![(0, 1), (1, 2)],
        };
        // Pairwise covered (so Gaifman validation passes) but the ternary
        // tuple is not inside any single bag... except the Gaifman
        // subtree condition fails first for vertex 0. Either way: error.
        assert!(bad.validate_structure(&s).is_err());
    }

    #[test]
    fn validation_rejects_broken_decompositions() {
        let g = cycle_graph(4);
        // Missing vertex.
        let td = TreeDecomposition {
            bags: vec![vec![0, 1], vec![1, 2]],
            edges: vec![(0, 1)],
        };
        assert!(td.validate(&g).is_err());
        // Uncovered edge.
        let td = TreeDecomposition {
            bags: vec![vec![0, 1], vec![1, 2], vec![2, 3]],
            edges: vec![(0, 1), (1, 2)],
        };
        assert!(td.validate(&g).is_err()); // edge (3,0) uncovered
                                           // Disconnected vertex subtree.
        let g2 = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let td = TreeDecomposition {
            bags: vec![vec![0, 1], vec![1, 2], vec![0]],
            edges: vec![(0, 1), (1, 2)],
        };
        assert!(td.validate(&g2).is_err());
    }

    #[test]
    fn empty_graph_decomposition() {
        let g = Graph::new(0);
        let td = from_elimination_order(&g, &[]);
        td.validate(&g).expect("empty is valid");
        assert_eq!(td.width(), 0);
    }

    #[test]
    fn disconnected_graph_still_forms_tree() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let order = min_degree_order(&g);
        let td = from_elimination_order(&g, &order);
        td.validate(&g)
            .expect("decomposition tree must be connected");
    }
}
