//! Bounded-treewidth CSP solving by dynamic programming over a tree
//! decomposition (Theorem 6.2 of the paper).
//!
//! The paper proves tractability of `CSP(A(k), F)` by compiling the
//! canonical conjunctive query `φ_A` into a bounded-variable formula
//! (`∃FO^{k+1}`, Proposition 6.1) and evaluating it on **B**. Dynamic
//! programming over a tree decomposition *is* that evaluation, performed
//! bag-by-bag: a bag with `k+1` variables corresponds to the `k+1`
//! variables of the formula, and joining child tables implements the
//! variable re-use that the bounded-variable fragment affords. The
//! per-node cost is `O(|B|^{k+1})`, so the whole run is polynomial for
//! fixed `k` — this is the claim Experiment E9 measures.

use crate::graph::Graph;
use crate::treewidth::{from_elimination_order, min_fill_order_metered, TreeDecomposition};
use cspdb_core::budget::{Budget, ExhaustionReason, Meter};
use cspdb_core::trace::TraceEvent;
use cspdb_core::{RelId, Structure};
use std::collections::HashMap;

/// Error from the budgeted decomposition DP: either the decomposition
/// does not cover **A**, or the budget ran out (inconclusive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompSolveError {
    /// The supplied decomposition is invalid for the structure.
    Invalid(String),
    /// The budget was exhausted before the DP finished.
    Exhausted(ExhaustionReason),
}

impl std::fmt::Display for DecompSolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompSolveError::Invalid(msg) => write!(f, "invalid decomposition: {msg}"),
            DecompSolveError::Exhausted(r) => write!(f, "budget exhausted: {r}"),
        }
    }
}

impl std::error::Error for DecompSolveError {}

impl From<ExhaustionReason> for DecompSolveError {
    fn from(r: ExhaustionReason) -> Self {
        DecompSolveError::Exhausted(r)
    }
}

/// Overflow-safe bound on the DP table of one bag: `d^|bag|`, or `None`
/// if the bound itself overflows `u64` (which any realistic tuple cap
/// should treat as "too big").
pub fn bag_table_bound(domain_size: u64, bag_size: usize) -> Option<u64> {
    u32::try_from(bag_size)
        .ok()
        .and_then(|e| domain_size.checked_pow(e))
}

/// Solves the homomorphism problem `A -> B` using a tree decomposition of
/// **A**. Returns a homomorphism or `None`.
///
/// # Errors
///
/// Returns an error string if the decomposition is invalid for **A**.
pub fn solve_with_decomposition(
    a: &Structure,
    b: &Structure,
    td: &TreeDecomposition,
) -> Result<Option<Vec<u32>>, String> {
    let mut meter = Budget::unlimited().meter();
    solve_with_decomposition_metered(a, b, td, &mut meter).map_err(|e| match e {
        DecompSolveError::Invalid(msg) => msg,
        DecompSolveError::Exhausted(_) => unreachable!("unlimited budget cannot exhaust"),
    })
}

/// [`solve_with_decomposition`] under a [`Budget`]: one step per bag
/// assignment enumerated, one tuple charged per surviving table row, so
/// both time and memory are governed.
pub fn solve_with_decomposition_budgeted(
    a: &Structure,
    b: &Structure,
    td: &TreeDecomposition,
    budget: &Budget,
) -> Result<Option<Vec<u32>>, DecompSolveError> {
    let mut meter = budget.meter();
    solve_with_decomposition_metered(a, b, td, &mut meter)
}

/// The decomposition tree rooted at bag 0, plus each fact of **A**
/// assigned to one covering bag — everything the DP needs besides the
/// tables themselves.
struct DpSetup {
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    /// DFS preorder: parents before children.
    order: Vec<usize>,
    bag_facts: Vec<Vec<(RelId, Vec<u32>)>>,
}

fn dp_setup(a: &Structure, td: &TreeDecomposition) -> DpSetup {
    // Assign each fact of A to one bag that covers it.
    let mut bag_facts: Vec<Vec<(RelId, Vec<u32>)>> = vec![Vec::new(); td.bags.len()];
    for (id, rel) in a.relations() {
        'fact: for t in rel.iter() {
            for (bi, bag) in td.bags.iter().enumerate() {
                if t.iter().all(|x| bag.binary_search(x).is_ok()) {
                    bag_facts[bi].push((id, t.to_vec()));
                    continue 'fact;
                }
            }
            unreachable!("validate_structure guarantees coverage");
        }
    }
    // Root the decomposition tree at 0 and compute a preorder.
    let adj = td.adjacency();
    let nb = td.bags.len();
    let mut parent: Vec<Option<usize>> = vec![None; nb];
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); nb];
    let mut order: Vec<usize> = Vec::with_capacity(nb);
    let mut stack = vec![0usize];
    let mut visited = vec![false; nb];
    visited[0] = true;
    while let Some(u) = stack.pop() {
        order.push(u);
        for &v in &adj[u] {
            if !visited[v] {
                visited[v] = true;
                parent[v] = Some(u);
                children[u].push(v);
                stack.push(v);
            }
        }
    }
    debug_assert_eq!(order.len(), nb, "decomposition tree is connected");
    DpSetup {
        parent,
        children,
        order,
        bag_facts,
    }
}

/// Computes the table of surviving assignments for one bag, given its
/// children's (final) tables. One step is ticked per assignment
/// enumerated, one tuple charged per surviving row.
fn compute_bag_table(
    b: &Structure,
    td: &TreeDecomposition,
    setup: &DpSetup,
    node: usize,
    tables: &[Vec<Vec<u32>>],
    meter: &mut Meter,
) -> Result<Vec<Vec<u32>>, ExhaustionReason> {
    let bag = &td.bags[node];
    // Pre-index child tables by the shared-variable projection:
    // (positions of shared vars in this bag, projection set).
    type ChildIndex = (Vec<usize>, HashMap<Vec<u32>, bool>);
    let mut child_index: Vec<ChildIndex> = Vec::new();
    for &c in &setup.children[node] {
        let shared_pos: Vec<usize> = td.bags[c]
            .iter()
            .enumerate()
            .filter(|(_, v)| bag.binary_search(v).is_ok())
            .map(|(i, _)| i)
            .collect();
        let mut index: HashMap<Vec<u32>, bool> = HashMap::new();
        for row in &tables[c] {
            let key: Vec<u32> = shared_pos.iter().map(|&i| row[i]).collect();
            index.insert(key, true);
        }
        // Positions of the shared variables inside *this* bag, in the
        // same order as shared_pos enumerates the child's bag.
        let shared_vars: Vec<u32> = shared_pos.iter().map(|&i| td.bags[c][i]).collect();
        let my_pos: Vec<usize> = shared_vars
            .iter()
            .map(|v| bag.binary_search(v).expect("shared var in bag"))
            .collect();
        child_index.push((my_pos, index));
    }
    // Enumerate assignments of the bag.
    let d = b.domain_size() as u32;
    let k = bag.len();
    let mut assignment = vec![0u32; k];
    let mut image = Vec::new();
    let mut table = Vec::new();
    'assignments: loop {
        meter.tick()?;
        // Check facts assigned to this bag.
        let ok_facts = setup.bag_facts[node].iter().all(|(id, t)| {
            image.clear();
            for x in t {
                let pos = bag.binary_search(x).expect("fact inside bag");
                image.push(assignment[pos]);
            }
            b.relation(*id).contains(&image)
        });
        if ok_facts {
            // Check each child has a compatible surviving row.
            let ok_children = child_index.iter().all(|(my_pos, index)| {
                let key: Vec<u32> = my_pos.iter().map(|&i| assignment[i]).collect();
                index.contains_key(&key)
            });
            if ok_children {
                meter.charge_tuples(1)?;
                table.push(assignment.clone());
            }
        }
        // Odometer.
        let mut i = k;
        loop {
            if i == 0 {
                break 'assignments;
            }
            i -= 1;
            assignment[i] += 1;
            if assignment[i] < d {
                break;
            }
            assignment[i] = 0;
        }
    }
    meter.tracer().emit_with(|| TraceEvent::DpTable {
        bag: node,
        bag_size: k,
        rows: table.len() as u64,
    });
    Ok(table)
}

/// Top-down witness extraction from the completed bag tables.
fn extract_witness(
    a: &Structure,
    td: &TreeDecomposition,
    setup: &DpSetup,
    tables: &[Vec<Vec<u32>>],
    meter: &mut Meter,
) -> Result<Vec<u32>, ExhaustionReason> {
    let n = a.domain_size();
    let nb = td.bags.len();
    let mut h: Vec<Option<u32>> = vec![None; n];
    let mut chosen: Vec<Option<Vec<u32>>> = vec![None; nb];
    for &node in &setup.order {
        meter.tick()?;
        let bag = &td.bags[node];
        let row = match setup.parent[node] {
            None => tables[node][0].clone(),
            Some(p) => {
                let pbag = &td.bags[p];
                let prow = chosen[p].as_ref().expect("parent processed first");
                tables[node]
                    .iter()
                    .find(|row| {
                        bag.iter()
                            .enumerate()
                            .all(|(i, v)| match pbag.binary_search(v) {
                                Ok(j) => row[i] == prow[j],
                                Err(_) => true,
                            })
                    })
                    .expect("survival implies a compatible row")
                    .clone()
            }
        };
        for (i, &v) in bag.iter().enumerate() {
            debug_assert!(h[v as usize].is_none() || h[v as usize] == Some(row[i]));
            h[v as usize] = Some(row[i]);
        }
        chosen[node] = Some(row);
    }
    Ok(h.into_iter()
        .map(|x| x.expect("every element in some bag"))
        .collect())
}

/// [`solve_with_decomposition`] under a [`Meter`]: same contract as
/// [`solve_with_decomposition_budgeted`], but the caller keeps the meter, so resource usage (and the tracer it carries) stays
/// readable afterwards. Emits one [`TraceEvent::Decomposition`] summary
/// and one [`TraceEvent::DpTable`] per bag table materialised.
pub fn solve_with_decomposition_metered(
    a: &Structure,
    b: &Structure,
    td: &TreeDecomposition,
    meter: &mut Meter,
) -> Result<Option<Vec<u32>>, DecompSolveError> {
    if a.vocabulary() != b.vocabulary() {
        return Err(DecompSolveError::Invalid("vocabulary mismatch".into()));
    }
    td.validate_structure(a)
        .map_err(DecompSolveError::Invalid)?;
    if a.domain_size() == 0 {
        return Ok(Some(vec![]));
    }
    if b.domain_size() == 0 {
        return Ok(None);
    }
    meter.tracer().emit_with(|| TraceEvent::Decomposition {
        width: td.width(),
        bags: td.bags.len(),
        largest_bag: td.bags.iter().map(|b| b.len()).max().unwrap_or(0),
    });
    let setup = dp_setup(a, td);
    // Bottom-up: table of surviving bag assignments per node.
    let nb = td.bags.len();
    let mut tables: Vec<Vec<Vec<u32>>> = vec![Vec::new(); nb];
    for &node in setup.order.iter().rev() {
        tables[node] = compute_bag_table(b, td, &setup, node, &tables, meter)?;
        if tables[node].is_empty() {
            return Ok(None);
        }
    }
    let witness = extract_witness(a, td, &setup, &tables, meter)?;
    debug_assert!(cspdb_core::is_homomorphism(&witness, a, b));
    Ok(Some(witness))
}

/// End-to-end bounded-treewidth solve: build the Gaifman graph of **A**,
/// pick a min-fill elimination order, and run the DP. Returns the
/// decomposition width used and the result.
pub fn solve_by_treewidth(a: &Structure, b: &Structure) -> (usize, Option<Vec<u32>>) {
    solve_by_treewidth_budgeted(a, b, &Budget::unlimited())
        .expect("unlimited budget cannot exhaust")
}

/// [`solve_by_treewidth`] under a [`Budget`]. Planning (min-fill order)
/// and the DP itself draw from one meter, so the budget governs the
/// whole pipeline — important because on large instances the quadratic
/// min-fill pass alone can dwarf a small deadline.
pub fn solve_by_treewidth_budgeted(
    a: &Structure,
    b: &Structure,
    budget: &Budget,
) -> Result<(usize, Option<Vec<u32>>), ExhaustionReason> {
    solve_by_treewidth_metered(a, b, &mut budget.meter())
}

/// [`solve_by_treewidth`] under a [`Meter`]: same contract
/// as [`solve_by_treewidth_budgeted`], but the caller keeps the meter,
/// so resource usage (and the tracer it carries) stays readable
/// afterwards.
pub fn solve_by_treewidth_metered(
    a: &Structure,
    b: &Structure,
    meter: &mut Meter,
) -> Result<(usize, Option<Vec<u32>>), ExhaustionReason> {
    let g = Graph::gaifman(a);
    let order = min_fill_order_metered(&g, meter)?;
    let td = from_elimination_order(&g, &order);
    let res = match solve_with_decomposition_metered(a, b, &td, meter) {
        Ok(res) => res,
        Err(DecompSolveError::Exhausted(r)) => return Err(r),
        Err(DecompSolveError::Invalid(msg)) => {
            unreachable!("constructed decomposition is valid: {msg}")
        }
    };
    Ok((td.width(), res))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspdb_core::graphs::{clique, cycle, path};
    use cspdb_core::is_homomorphism;

    #[test]
    fn dp_agrees_on_coloring_problems() {
        // (A, B, expected solvable)
        let cases = [
            (cycle(5), clique(3), true),
            (cycle(5), clique(2), false),
            (cycle(6), clique(2), true),
            (path(7), clique(2), true),
            (cycle(3), clique(3), true),
            (cycle(3), clique(2), false),
        ];
        for (a, b, expected) in cases {
            let (w, res) = solve_by_treewidth(&a, &b);
            assert!(w <= 2, "cycles/paths have treewidth <= 2");
            assert_eq!(res.is_some(), expected, "failed on {a}");
            if let Some(h) = res {
                assert!(is_homomorphism(&h, &a, &b));
            }
        }
    }

    #[test]
    fn dp_handles_isolated_vertices() {
        let voc = cspdb_core::graphs::graph_vocabulary();
        let mut a = cspdb_core::Structure::new(voc, 4);
        a.insert_by_name("E", &[0, 1]).unwrap();
        // Vertices 2 and 3 are isolated.
        let b = clique(2);
        let (_, res) = solve_by_treewidth(&a, &b);
        let h = res.expect("solvable");
        assert!(is_homomorphism(&h, &a, &b));
    }

    #[test]
    fn dp_on_empty_structures() {
        let voc = cspdb_core::graphs::graph_vocabulary();
        let empty = cspdb_core::Structure::new(voc.clone(), 0);
        let (_, res) = solve_by_treewidth(&empty, &clique(2));
        assert_eq!(res, Some(vec![]));
        let a = path(2);
        let empty_b = cspdb_core::Structure::new(voc, 0);
        let (_, res) = solve_by_treewidth(&a, &empty_b);
        assert!(res.is_none());
    }

    #[test]
    fn invalid_decomposition_rejected() {
        let a = cycle(4);
        let b = clique(2);
        let td = TreeDecomposition {
            bags: vec![vec![0, 1]],
            edges: vec![],
        };
        assert!(solve_with_decomposition(&a, &b, &td).is_err());
    }

    #[test]
    fn dp_with_ternary_relations() {
        // One-in-three style structure: T(x,y,z) with B encoding the
        // allowed combinations.
        let voc = cspdb_core::Vocabulary::new([("T", 3)]).unwrap();
        let mut a = cspdb_core::Structure::new(voc.clone(), 5);
        a.insert_by_name("T", &[0, 1, 2]).unwrap();
        a.insert_by_name("T", &[2, 3, 4]).unwrap();
        let mut b = cspdb_core::Structure::new(voc, 2);
        for t in [[1u32, 0, 0], [0, 1, 0], [0, 0, 1]] {
            b.insert_by_name("T", &t).unwrap();
        }
        let (w, res) = solve_by_treewidth(&a, &b);
        assert!(w <= 2);
        let h = res.expect("satisfiable");
        assert!(is_homomorphism(&h, &a, &b));
    }

    #[test]
    fn dp_observes_step_limit() {
        let budget = Budget::unlimited().with_step_limit(10);
        assert_eq!(
            solve_by_treewidth_budgeted(&cycle(6), &clique(3), &budget),
            Err(ExhaustionReason::StepLimitExceeded)
        );
        // Width above two: K3,3 is bipartite, so it maps to K2.
        let a = cspdb_core::graphs::complete_bipartite(3, 3);
        let (_, res) = solve_by_treewidth(&a, &clique(2));
        assert!(is_homomorphism(&res.expect("bipartite"), &a, &clique(2)));
    }

    #[test]
    fn dp_matches_brute_force_on_random_partial_2trees() {
        // Build small series-parallel-ish structures and compare with the
        // core brute-force oracle through the CSP view.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20 {
            let n = 4 + (next() % 4) as usize;
            let voc = cspdb_core::graphs::graph_vocabulary();
            let mut a = cspdb_core::Structure::new(voc, n);
            // Random partial 2-tree-ish: attach each vertex i >= 2 to two
            // random earlier vertices.
            for i in 2..n as u32 {
                let u = (next() % i as u64) as u32;
                let mut v = (next() % i as u64) as u32;
                if v == u {
                    v = (v + 1) % i;
                }
                a.insert_by_name("E", &[i, u]).unwrap();
                a.insert_by_name("E", &[u, i]).unwrap();
                if next() % 2 == 0 {
                    a.insert_by_name("E", &[i, v]).unwrap();
                    a.insert_by_name("E", &[v, i]).unwrap();
                }
            }
            for b in [clique(2), clique(3)] {
                let (_, res) = solve_by_treewidth(&a, &b);
                let csp = cspdb_core::CspInstance::from_homomorphism(&a, &b).unwrap();
                assert_eq!(res.is_some(), csp.solve_brute_force().is_some());
                if let Some(h) = res {
                    assert!(is_homomorphism(&h, &a, &b));
                }
            }
        }
    }
}
