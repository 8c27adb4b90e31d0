//! # cspdb-relalg
//!
//! In-memory relational algebra for *constraint-db*.
//!
//! Section 2 of the paper recasts constraint satisfaction as a
//! *join-evaluation problem* (Proposition 2.1): viewing each CSP variable
//! as an attribute and each constraint `(t, R)` as a relation `R` over
//! scheme `t`, the instance is solvable iff the natural join of all
//! constraint relations is nonempty. This crate implements that view:
//!
//! * [`NamedRelation`] — attribute-labeled relations with natural join,
//!   semijoin, projection, selection, and renaming;
//! * [`plan_join_order`] / [`HashIndex`] / [`IndexCache`] — a
//!   connectivity-aware greedy join planner with reusable build-side
//!   hash indexes, shared by the join pipeline and the reducer sweeps;
//! * [`wcoj_join_metered`] / [`choose_engine`] — a worst-case-optimal
//!   leapfrog multiway join over sorted trie views, selected cost-wise
//!   (AGM bound vs. System-R peak estimate) for cyclic join cores like
//!   triangles and Loomis–Whitney;
//! * [`solve_by_join`] / [`count_by_join`] — Proposition 2.1 as code;
//! * [`solve_acyclic`] / [`solve_acyclic_hom`] — Yannakakis' polynomial
//!   algorithm for α-acyclic instances via GYO join trees and a full
//!   semijoin reducer (Section 6's "acyclic joins" lineage);
//! * [`solve_with_hypertree`] — solving through a generalized hypertree
//!   decomposition: guard joins turn a width-`k` instance into an
//!   equivalent acyclic one (Gottlob–Leone–Scarcello, end of Section 6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod join_eval;
mod named;
mod planner;
mod wcoj;
mod yannakakis;

pub use join_eval::{
    constraint_relations, count_by_join, join_all, join_all_budgeted, join_all_metered,
    join_all_size_ordered, join_all_size_ordered_metered, solve_by_join, solve_by_join_budgeted,
};
pub use named::NamedRelation;
pub use planner::{
    common_attrs, plan_join_order, HashIndex, IndexCache, JoinOrder, PlanStep, INDEX_CACHE_CAPACITY,
};
pub use wcoj::{
    agm_sqrt_bound, choose_engine, estimated_join_peak, global_attribute_order, is_cyclic_join,
    wcoj_join_metered, wcoj_join_with_order, EngineChoice,
};
pub use yannakakis::{
    is_acyclic_instance, solve_acyclic, solve_acyclic_budgeted, solve_acyclic_hom,
    solve_acyclic_metered, solve_with_hypertree, AcyclicSolveError, NotAcyclic,
};
