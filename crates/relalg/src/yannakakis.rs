//! Yannakakis' algorithm for acyclic instances, and hypertree-guided
//! solving for bounded hypertree width (Section 6 of the paper).
//!
//! For an α-acyclic CSP instance the GYO reduction yields a join tree;
//! a *full reducer* — one bottom-up and one top-down semijoin sweep —
//! makes the database globally consistent, after which a solution can be
//! assembled greedily top-down without backtracking. The cost is
//! polynomial (each semijoin is linear in the relation sizes), in stark
//! contrast with the exponential worst case of the unrestricted join of
//! Proposition 2.1; Experiment E10 measures exactly this gap.
//!
//! For instances of (generalized) hypertree width `k`, joining each
//! node's ≤`k` guard relations produces an equivalent acyclic instance,
//! which the same machinery then solves — the Gottlob–Leone–Scarcello
//! route to tractability cited at the end of Section 6.

use crate::named::NamedRelation;
use crate::planner::{common_attrs, IndexCache, INDEX_CACHE_CAPACITY};
use cspdb_core::budget::{Budget, ExhaustionReason, Meter};
use cspdb_core::trace::TraceEvent;
use cspdb_core::{CspInstance, Structure};
use cspdb_decomp::{Hypergraph, HypertreeDecomposition};

/// Error: the instance's hypergraph is not α-acyclic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotAcyclic;

impl std::fmt::Display for NotAcyclic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "constraint hypergraph is not alpha-acyclic")
    }
}

impl std::error::Error for NotAcyclic {}

/// Why [`solve_acyclic_budgeted`] produced no verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcyclicSolveError {
    /// The constraint hypergraph failed GYO — the algorithm does not
    /// apply.
    NotAcyclic,
    /// The budget ran out mid-reduction — inconclusive.
    Exhausted(ExhaustionReason),
}

impl std::fmt::Display for AcyclicSolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcyclicSolveError::NotAcyclic => NotAcyclic.fmt(f),
            AcyclicSolveError::Exhausted(r) => write!(f, "budget exhausted: {r}"),
        }
    }
}

impl std::error::Error for AcyclicSolveError {}

/// Runs the full reducer over a forest of relations and, if no relation
/// empties, assembles one solution greedily top-down.
///
/// `parent[i]` is the join-tree parent of relation `i` (`None` = root).
/// Variables not covered by any schema receive value 0 in the witness.
fn solve_along_forest(
    rels: Vec<NamedRelation>,
    parent: &[Option<usize>],
    num_vars: usize,
) -> Option<Vec<u32>> {
    solve_along_forest_metered(rels, parent, num_vars, &mut Budget::unlimited().meter())
        .expect("unlimited budget cannot exhaust")
}

/// Roots and a parents-before-children order for a forest given as a
/// parent array.
struct Forest {
    roots: Vec<usize>,
    /// DFS preorder: every parent precedes its children.
    order: Vec<usize>,
}

impl Forest {
    fn new(parent: &[Option<usize>]) -> Forest {
        let m = parent.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut roots = Vec::new();
        for (i, p) in parent.iter().enumerate() {
            match p {
                Some(p) => children[*p].push(i),
                None => roots.push(i),
            }
        }
        let mut order = Vec::with_capacity(m);
        let mut stack = roots.clone();
        while let Some(u) = stack.pop() {
            order.push(u);
            stack.extend(&children[u]);
        }
        debug_assert_eq!(order.len(), m, "parent array must be a forest");
        Forest { roots, order }
    }
}

/// Greedy witness assembly, top-down: after full reduction every tuple
/// extends to a solution, so picking any row consistent with the parent
/// works.
fn assemble_witness(
    rels: &[NamedRelation],
    order: &[usize],
    num_vars: usize,
    meter: &mut Meter,
) -> Result<Vec<u32>, ExhaustionReason> {
    let mut assignment: Vec<Option<u32>> = vec![None; num_vars];
    for &node in order {
        meter.tick()?;
        let rel = &rels[node];
        let row = rel
            .rows()
            .iter()
            .find(|row| {
                rel.schema()
                    .iter()
                    .enumerate()
                    .all(|(i, &a)| match assignment[a as usize] {
                        Some(v) => row[i] == v,
                        None => true,
                    })
            })
            .expect("full reduction guarantees a consistent row");
        for (i, &a) in rel.schema().iter().enumerate() {
            assignment[a as usize] = Some(row[i]);
        }
    }
    Ok(assignment.into_iter().map(|v| v.unwrap_or(0)).collect())
}

/// Metered full reducer: every semijoin meters per row scanned and per
/// surviving row, so a tuple cap bounds peak relation sizes and a
/// deadline or cancellation is observed *inside* a large sweep, not
/// just between sweeps.
///
/// Each semijoin probes a [`HashIndex`](crate::HashIndex) on its
/// filtering side, fetched from one per-solve [`IndexCache`]: relations
/// are versioned (a rewrite bumps the version, invalidating stale
/// entries), so in the top-down sweep all children of one parent probe
/// a single shared index instead of each rebuilding the parent's key
/// set — on a star join tree that is one build instead of one per leaf.
fn solve_along_forest_metered(
    mut rels: Vec<NamedRelation>,
    parent: &[Option<usize>],
    num_vars: usize,
    meter: &mut Meter,
) -> Result<Option<Vec<u32>>, ExhaustionReason> {
    debug_assert_eq!(parent.len(), rels.len());
    let forest = Forest::new(parent);
    let mut cache = IndexCache::new(INDEX_CACHE_CAPACITY);
    let mut versions = vec![0u64; rels.len()];
    // Indexed semijoin `rels[target] ⋉ rels[filter]`, reusing a cached
    // index of the filter side. Disjoint schemas keep the unindexed
    // path (the edge case charges all-or-nothing, no key set needed).
    let reduce = |rels: &mut Vec<NamedRelation>,
                  versions: &mut Vec<u64>,
                  cache: &mut IndexCache,
                  target: usize,
                  filter: usize,
                  meter: &mut Meter|
     -> Result<(), ExhaustionReason> {
        let common = common_attrs(&rels[target], &rels[filter]);
        let reduced = if common.is_empty() {
            rels[target].semijoin_metered(&rels[filter], meter)?
        } else {
            let index =
                cache.get_or_build(filter, versions[filter], &rels[filter], &common, meter)?;
            rels[target].semijoin_with_index(&index, meter)?
        };
        if reduced.len() != rels[target].len() {
            versions[target] += 1;
        }
        rels[target] = reduced;
        Ok(())
    };
    // Bottom-up: parent ⋉ child (children before parents).
    let mut semijoins = 0u64;
    for &node in forest.order.iter().rev() {
        if let Some(p) = parent[node] {
            meter.tick()?;
            reduce(&mut rels, &mut versions, &mut cache, p, node, meter)?;
            semijoins += 1;
        }
    }
    meter.tracer().emit_with(|| TraceEvent::YannakakisSweep {
        direction: "bottom_up",
        semijoins,
    });
    if forest.roots.iter().any(|&r| rels[r].is_empty()) {
        return Ok(None);
    }
    // Top-down: child ⋉ parent.
    let mut semijoins = 0u64;
    for &node in &forest.order {
        if let Some(p) = parent[node] {
            meter.tick()?;
            reduce(&mut rels, &mut versions, &mut cache, node, p, meter)?;
            semijoins += 1;
            if rels[node].is_empty() {
                meter.tracer().emit_with(|| TraceEvent::YannakakisSweep {
                    direction: "top_down",
                    semijoins,
                });
                return Ok(None);
            }
        }
    }
    meter.tracer().emit_with(|| TraceEvent::YannakakisSweep {
        direction: "top_down",
        semijoins,
    });
    if rels.iter().any(NamedRelation::is_empty) {
        return Ok(None);
    }
    Ok(Some(assemble_witness(
        &rels,
        &forest.order,
        num_vars,
        meter,
    )?))
}

/// Yannakakis' algorithm: solves an α-acyclic CSP instance in polynomial
/// time.
///
/// # Errors
///
/// Returns [`NotAcyclic`] if the constraint hypergraph fails GYO.
pub fn solve_acyclic(instance: &CspInstance) -> Result<Option<Vec<u32>>, NotAcyclic> {
    if instance.num_vars() > 0 && instance.num_values() == 0 {
        return Ok(None);
    }
    let normalized = instance.normalize_distinct().consolidate();
    let rels: Vec<NamedRelation> = normalized
        .constraints()
        .iter()
        .map(|c| NamedRelation::new(c.scope().to_vec(), c.relation().iter().map(|t| t.to_vec())))
        .collect();
    let mut hg = Hypergraph::new(normalized.num_vars());
    for r in &rels {
        hg.add_edge(r.schema().iter().copied());
    }
    let jt = hg.gyo().ok_or(NotAcyclic)?;
    let sol = solve_along_forest(rels, &jt.parent, normalized.num_vars());
    if let Some(ref s) = sol {
        debug_assert!(instance.is_solution(s));
    }
    Ok(sol)
}

/// [`solve_acyclic`] under a [`Budget`]: semijoin sweeps tick the meter
/// and surviving rows are charged against the tuple cap.
///
/// # Errors
///
/// [`AcyclicSolveError::NotAcyclic`] if GYO fails,
/// [`AcyclicSolveError::Exhausted`] if the budget ran out (inconclusive).
pub fn solve_acyclic_budgeted(
    instance: &CspInstance,
    budget: &Budget,
) -> Result<Option<Vec<u32>>, AcyclicSolveError> {
    solve_acyclic_metered(instance, &mut budget.meter())
}

/// [`solve_acyclic`] under a [`Meter`]: the caller keeps
/// the meter, so per-phase resource usage stays readable afterwards
/// (the governed ladder's per-tier trace summaries rely on this).
///
/// # Errors
///
/// [`AcyclicSolveError::NotAcyclic`] if GYO fails,
/// [`AcyclicSolveError::Exhausted`] if the budget ran out (inconclusive).
pub fn solve_acyclic_metered(
    instance: &CspInstance,
    meter: &mut Meter,
) -> Result<Option<Vec<u32>>, AcyclicSolveError> {
    if instance.num_vars() > 0 && instance.num_values() == 0 {
        return Ok(None);
    }
    let normalized = instance.normalize_distinct().consolidate();
    let rels: Vec<NamedRelation> = normalized
        .constraints()
        .iter()
        .map(|c| NamedRelation::new(c.scope().to_vec(), c.relation().iter().map(|t| t.to_vec())))
        .collect();
    let mut hg = Hypergraph::new(normalized.num_vars());
    for r in &rels {
        hg.add_edge(r.schema().iter().copied());
    }
    let jt = hg.gyo().ok_or(AcyclicSolveError::NotAcyclic)?;
    let sol = solve_along_forest_metered(rels, &jt.parent, normalized.num_vars(), meter)
        .map_err(AcyclicSolveError::Exhausted)?;
    if let Some(ref s) = sol {
        debug_assert!(instance.is_solution(s));
    }
    Ok(sol)
}

/// True if the instance's constraint hypergraph is α-acyclic.
pub fn is_acyclic_instance(instance: &CspInstance) -> bool {
    let normalized = instance.normalize_distinct().consolidate();
    let mut hg = Hypergraph::new(normalized.num_vars());
    for c in normalized.constraints() {
        hg.add_edge(c.scope().iter().copied());
    }
    hg.is_acyclic()
}

/// Acyclic homomorphism testing: `A -> B` through Yannakakis.
///
/// # Errors
///
/// Returns [`NotAcyclic`] if **A**'s hypergraph is not α-acyclic.
pub fn solve_acyclic_hom(a: &Structure, b: &Structure) -> Result<Option<Vec<u32>>, NotAcyclic> {
    let instance = CspInstance::from_homomorphism(a, b).expect("same vocabulary");
    solve_acyclic(&instance)
}

/// Solves `A -> B` guided by a generalized hypertree decomposition of
/// **A**'s hypergraph: joins each node's guard relations (cost
/// `O(|B|^k)` per node for width `k`), semijoins in the facts covered by
/// each bag, and runs the acyclic machinery over the decomposition tree.
///
/// # Errors
///
/// Returns a message if the decomposition is invalid for **A**.
pub fn solve_with_hypertree(
    a: &Structure,
    b: &Structure,
    hd: &HypertreeDecomposition,
) -> Result<Option<Vec<u32>>, String> {
    if a.vocabulary() != b.vocabulary() {
        return Err("vocabulary mismatch".into());
    }
    let hg = Hypergraph::of_structure(a);
    hd.validate(&hg)?;
    if a.domain_size() == 0 {
        return Ok(Some(vec![]));
    }
    // Fact relations, in hypergraph-edge order (one per fact of A).
    let instance = CspInstance::from_homomorphism(a, b)
        .expect("same vocabulary")
        .normalize_distinct();
    // normalize_distinct preserves constraint order 1:1 with facts.
    let fact_rels: Vec<NamedRelation> = instance
        .constraints()
        .iter()
        .map(|c| NamedRelation::new(c.scope().to_vec(), c.relation().iter().map(|t| t.to_vec())))
        .collect();
    if fact_rels.len() != hg.num_edges() {
        return Err("internal: fact/edge count mismatch".into());
    }
    // Node relations: join the guards, project to the bag.
    let nb = hd.bags.len();
    let mut node_rels: Vec<NamedRelation> = Vec::with_capacity(nb);
    for (guards, bag) in hd.guards.iter().zip(hd.bags.iter()) {
        let mut acc = NamedRelation::unit();
        for &g in guards {
            acc = acc.natural_join(&fact_rels[g]);
        }
        let keep: Vec<u32> = bag
            .iter()
            .copied()
            .filter(|v| acc.position(*v).is_some())
            .collect();
        node_rels.push(acc.project(&keep));
    }
    // Enforce every fact at some covering node.
    'facts: for (fi, frel) in fact_rels.iter().enumerate() {
        for (node_rel, bag) in node_rels.iter_mut().zip(hd.bags.iter()) {
            if frel.schema().iter().all(|v| bag.binary_search(v).is_ok()) {
                *node_rel = node_rel.semijoin(frel);
                continue 'facts;
            }
        }
        return Err(format!("fact {fi} covered by no bag"));
    }
    // Root the decomposition tree at 0.
    let mut adj = vec![Vec::new(); nb];
    for &(x, y) in &hd.edges {
        adj[x].push(y);
        adj[y].push(x);
    }
    let mut parent: Vec<Option<usize>> = vec![None; nb];
    let mut visited = vec![false; nb];
    if nb > 0 {
        visited[0] = true;
        let mut stack = vec![0usize];
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !visited[v] {
                    visited[v] = true;
                    parent[v] = Some(u);
                    stack.push(v);
                }
            }
        }
    }
    let sol = solve_along_forest(node_rels, &parent, a.domain_size());
    if let Some(ref s) = sol {
        if !cspdb_core::is_homomorphism(s, a, b) {
            return Err("internal: witness failed verification".into());
        }
    }
    Ok(sol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspdb_core::graphs::{clique, cycle, directed_path};
    use cspdb_core::Relation;
    use std::sync::Arc;

    fn neq(d: usize) -> Arc<Relation> {
        Arc::new(
            Relation::from_tuples(
                2,
                (0..d as u32)
                    .flat_map(|i| (0..d as u32).filter_map(move |j| (i != j).then_some([i, j]))),
            )
            .unwrap(),
        )
    }

    #[test]
    fn chain_instances_are_acyclic_and_solved() {
        // Path coloring: acyclic, 2 colors suffice.
        let mut p = CspInstance::new(5, 2);
        let r = neq(2);
        for i in 0..4u32 {
            p.add_constraint([i, i + 1], r.clone()).unwrap();
        }
        assert!(is_acyclic_instance(&p));
        let sol = solve_acyclic(&p).unwrap().expect("2-colorable path");
        assert!(p.is_solution(&sol));
    }

    #[test]
    fn cyclic_instance_rejected() {
        let mut p = CspInstance::new(3, 3);
        let r = neq(3);
        for (u, v) in [(0u32, 1u32), (1, 2), (0, 2)] {
            p.add_constraint([u, v], r.clone()).unwrap();
        }
        assert!(!is_acyclic_instance(&p));
        assert_eq!(solve_acyclic(&p), Err(NotAcyclic));
        assert_eq!(
            solve_acyclic_budgeted(&p, &Budget::unlimited()),
            Err(AcyclicSolveError::NotAcyclic)
        );
    }

    #[test]
    fn unsatisfiable_acyclic_detected() {
        // x != y, y != x with 1 value: star, acyclic, unsat.
        let mut p = CspInstance::new(2, 1);
        p.add_constraint([0, 1], neq(1)).unwrap();
        assert_eq!(solve_acyclic(&p), Ok(None));
    }

    #[test]
    fn directed_path_hom_via_yannakakis() {
        // Directed path into a directed path of equal length: identity.
        let a = directed_path(4);
        let b = directed_path(4);
        let sol = solve_acyclic_hom(&a, &b).unwrap().expect("identity works");
        assert!(cspdb_core::is_homomorphism(&sol, &a, &b));
        // Longer path into shorter directed path: impossible.
        let c = directed_path(3);
        assert_eq!(solve_acyclic_hom(&a, &c), Ok(None));
    }

    #[test]
    fn agreement_with_brute_force_on_acyclic_instances() {
        let mut state = 0x1234567890ABCDEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20 {
            // Random star-shaped (acyclic) instances: center 0.
            let n = 3 + (next() % 3) as usize;
            let d = 2 + (next() % 2) as usize;
            let mut p = CspInstance::new(n, d);
            for leaf in 1..n as u32 {
                let tuples: Vec<[u32; 2]> = (0..d as u32)
                    .flat_map(|i| (0..d as u32).map(move |j| [i, j]))
                    .filter(|_| next() % 3 != 0)
                    .collect();
                p.add_constraint(
                    [0, leaf],
                    Arc::new(Relation::from_tuples(2, tuples).unwrap()),
                )
                .unwrap();
            }
            let via_yannakakis = solve_acyclic(&p).expect("stars are acyclic");
            assert_eq!(
                via_yannakakis.is_some(),
                p.solve_brute_force().is_some(),
                "disagreement on {p:?}"
            );
        }
    }

    #[test]
    fn hypertree_solving_on_cyclic_structure() {
        // Odd cycle into K3: cyclic hypergraph, hypertree width 2 route.
        let a = cycle(5);
        let b = clique(3);
        let hg = Hypergraph::of_structure(&a);
        let hd = cspdb_decomp::hypertree_heuristic(&hg);
        hd.validate(&hg).expect("heuristic valid");
        let sol = solve_with_hypertree(&a, &b, &hd).unwrap();
        assert!(sol.is_some());
        // And into K2: unsatisfiable.
        let sol2 = solve_with_hypertree(&a, &clique(2), &hd).unwrap();
        assert!(sol2.is_none());
    }

    #[test]
    fn hypertree_solving_matches_search_on_random_graphs() {
        let mut state = 0xA5A5A5A55A5A5A5Au64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10 {
            let n = 5 + (next() % 3) as usize;
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if next() % 3 == 0 {
                        edges.push((u, v));
                    }
                }
            }
            let a = cspdb_core::graphs::undirected(n, &edges);
            let hg = Hypergraph::of_structure(&a);
            let hd = cspdb_decomp::hypertree_heuristic(&hg);
            for b in [clique(2), clique(3)] {
                let via_hd = solve_with_hypertree(&a, &b, &hd).unwrap();
                let csp = CspInstance::from_homomorphism(&a, &b).unwrap();
                assert_eq!(via_hd.is_some(), csp.solve_brute_force().is_some());
            }
        }
    }

    #[test]
    fn empty_instance_trivially_solvable() {
        let p = CspInstance::new(0, 2);
        assert_eq!(solve_acyclic(&p), Ok(Some(vec![])));
        let p = CspInstance::new(2, 2); // no constraints
        let sol = solve_acyclic(&p).unwrap().unwrap();
        assert_eq!(sol.len(), 2);
    }

    /// A wide star instance whose reducer sweeps carry thousands of
    /// surviving rows per semijoin.
    fn wide_star(leaves: usize, d: usize) -> CspInstance {
        let mut p = CspInstance::new(leaves + 1, d);
        let r = neq(d);
        for leaf in 1..=leaves as u32 {
            p.add_constraint([0, leaf], r.clone()).unwrap();
        }
        p
    }

    #[test]
    fn tuple_cap_trips_inside_reducer_sweep() {
        // d=60 gives 60·59 = 3540-row constraint relations; a 100-tuple
        // cap must trip *during* a single semijoin, proving the reducer
        // meters per row rather than per sweep.
        let p = wide_star(6, 60);
        let budget = Budget::unlimited().with_tuple_limit(100);
        assert_eq!(
            solve_acyclic_budgeted(&p, &budget),
            Err(AcyclicSolveError::Exhausted(
                ExhaustionReason::TupleLimitExceeded
            ))
        );
        // And with room to breathe the same instance solves.
        let sol = solve_acyclic_budgeted(&p, &Budget::unlimited())
            .unwrap()
            .expect("satisfiable");
        assert!(p.is_solution(&sol));
        // The metered reducer agrees with the unmetered one on stars of
        // every shape, a one-value (unsatisfiable) star included.
        for (leaves, d) in [(5usize, 3usize), (8, 4), (3, 1)] {
            let p = wide_star(leaves, d);
            let metered = solve_acyclic_budgeted(&p, &Budget::unlimited());
            assert_eq!(
                metered,
                Ok(solve_acyclic(&p).unwrap()),
                "star({leaves},{d})"
            );
        }
    }
}
