//! Connectivity-aware join planning and reusable hash indexes.
//!
//! Proposition 2.1 turns CSP solving into join evaluation, so the join
//! *order* is the solver's query plan. Ordering by ascending size alone
//! — the historical heuristic — happily joins two relations sharing no
//! attributes and materializes an accidental cross product; Yannakakis'
//! analysis (and the whole acyclic/bounded-width theory of Section 6)
//! works precisely because intermediate results stay small. This module
//! supplies the discipline:
//!
//! * [`plan_join_order`] — a greedy System-R-style planner that only
//!   picks relations *connected* to the joined-so-far schema, scored by
//!   estimated output cardinality `|L|·|R| / max distinct key count`
//!   (distinct counts computed once per relation), falling back to
//!   explicit, traced cross products only when the join graph is
//!   disconnected;
//! * [`HashIndex`] — a build-side hash index on a [`NamedRelation`]
//!   keyed by an attribute subset, probed by the join and semijoin
//!   kernels instead of rebuilding a `HashMap` per call;
//! * [`IndexCache`] — an LRU-ish per-solve cache so the Yannakakis
//!   sweeps and the join pipeline share indexes on unchanged relations.

use crate::named::NamedRelation;
use cspdb_core::budget::{ExhaustionReason, Meter};
use cspdb_core::trace::TraceEvent;
use std::collections::HashMap;
use std::sync::Arc;

/// One step of a planned join order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// Index of the relation (into the planner's input slice).
    pub relation: usize,
    /// Estimated cardinality of the join *after* this step.
    pub est_rows: u64,
    /// True if this relation shares no attribute with the prefix — the
    /// join degenerates to an explicit cross product.
    pub cross_product: bool,
}

/// A join order chosen by [`plan_join_order`]: the first step is the
/// starting relation, each later step joins one more relation in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinOrder {
    /// The steps, in execution order.
    pub steps: Vec<PlanStep>,
}

impl JoinOrder {
    /// Relation indices in execution order.
    pub fn order(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.relation).collect()
    }

    /// Number of steps forced to run as explicit cross products.
    pub fn cross_products(&self) -> usize {
        self.steps.iter().filter(|s| s.cross_product).count()
    }

    /// Largest estimated intermediate cardinality along the plan.
    pub fn est_peak(&self) -> u64 {
        self.steps.iter().map(|s| s.est_rows).max().unwrap_or(0)
    }

    /// The [`TraceEvent::PlanChosen`] describing this plan, attributed to
    /// `engine` with the cost/structure `reason` that selected it.
    pub fn trace_event_for(&self, engine: &'static str, reason: String) -> TraceEvent {
        TraceEvent::PlanChosen {
            relations: self.steps.len(),
            order: self.steps.iter().map(|s| s.relation as u32).collect(),
            est_rows: self.steps.iter().map(|s| s.est_rows).collect(),
            cross_steps: self
                .steps
                .iter()
                .enumerate()
                .filter(|(_, s)| s.cross_product)
                .map(|(i, _)| i as u32)
                .collect(),
            engine,
            reason,
        }
    }
}

/// Distinct value count of every column of `rel`, computed in one pass
/// per column.
fn distinct_counts(rel: &NamedRelation) -> Vec<u64> {
    (0..rel.schema().len())
        .map(|c| {
            let mut vals: Vec<u32> = rel.rows().iter().map(|row| row[c]).collect();
            vals.sort_unstable();
            vals.dedup();
            vals.len() as u64
        })
        .collect()
}

/// Greedily orders `relations` for a left-deep join pipeline.
///
/// Start from the smallest relation; at every step consider only the
/// remaining relations sharing at least one attribute with the
/// accumulated schema and pick the one minimizing the estimated output
/// `|acc| · |R| / max over shared attributes of max(V_acc(a), V_R(a))`,
/// where `V` are per-column distinct counts (computed once per input
/// relation; the accumulator keeps the minimum distinct count seen per
/// attribute, since joins only ever shrink a column's value set). When
/// no remaining relation is connected — the join graph is disconnected —
/// the smallest remaining relation is taken as an explicit
/// [`PlanStep::cross_product`].
///
/// The plan depends only on schemas and cardinalities, never on row
/// contents, so planning is cheap relative to the join itself.
pub fn plan_join_order(relations: &[NamedRelation]) -> JoinOrder {
    let m = relations.len();
    let mut steps = Vec::with_capacity(m);
    if m == 0 {
        return JoinOrder { steps };
    }
    let distinct: Vec<Vec<u64>> = relations.iter().map(distinct_counts).collect();
    let mut remaining: Vec<usize> = (0..m).collect();
    let start = remaining
        .iter()
        .copied()
        .min_by_key(|&i| (relations[i].len(), i))
        .expect("nonempty");
    remaining.retain(|&i| i != start);
    // Per-attribute minimum distinct count over the joined prefix.
    let mut acc_distinct: HashMap<u32, u64> = HashMap::new();
    for (c, &a) in relations[start].schema().iter().enumerate() {
        acc_distinct.insert(a, distinct[start][c]);
    }
    let mut est = relations[start].len() as u64;
    steps.push(PlanStep {
        relation: start,
        est_rows: est,
        cross_product: false,
    });
    while !remaining.is_empty() {
        // (estimated output, relation size, index) — min wins; the size
        // and index components make ties deterministic.
        let mut best: Option<(u128, usize, usize)> = None;
        for &i in &remaining {
            let r = &relations[i];
            let divisor = r
                .schema()
                .iter()
                .enumerate()
                .filter_map(|(c, a)| acc_distinct.get(a).map(|&va| va.max(distinct[i][c])))
                .max();
            if let Some(d) = divisor {
                let est_out = (est as u128) * (r.len() as u128) / (d.max(1) as u128);
                let cand = (est_out, r.len(), i);
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            }
        }
        let (next, est_out, cross) = match best {
            Some((est_out, _, i)) => (i, est_out, false),
            None => {
                // Disconnected join graph: cross product, smallest first.
                let i = remaining
                    .iter()
                    .copied()
                    .min_by_key(|&i| (relations[i].len(), i))
                    .expect("nonempty");
                (i, (est as u128) * (relations[i].len() as u128), true)
            }
        };
        est = u64::try_from(est_out).unwrap_or(u64::MAX);
        steps.push(PlanStep {
            relation: next,
            est_rows: est,
            cross_product: cross,
        });
        for (c, &a) in relations[next].schema().iter().enumerate() {
            let v = distinct[next][c];
            acc_distinct
                .entry(a)
                .and_modify(|cur| *cur = (*cur).min(v))
                .or_insert(v);
        }
        remaining.retain(|&i| i != next);
    }
    JoinOrder { steps }
}

/// A hash index over a [`NamedRelation`]: row positions grouped by the
/// values of a key attribute subset. Built once (one metered tick per
/// row), probed many times by the join and semijoin kernels.
#[derive(Debug, Clone)]
pub struct HashIndex {
    key_attrs: Vec<u32>,
    groups: HashMap<Vec<u32>, Vec<usize>>,
    rows: usize,
}

impl HashIndex {
    /// Builds the index of `rel` keyed by `key_attrs` (each must be in
    /// `rel`'s schema). Emits one [`TraceEvent::IndexBuilt`].
    ///
    /// # Errors
    ///
    /// Propagates meter exhaustion (one tick per indexed row).
    ///
    /// # Panics
    ///
    /// Panics if a key attribute is missing from the schema.
    pub fn build(
        rel: &NamedRelation,
        key_attrs: &[u32],
        meter: &mut Meter,
    ) -> Result<HashIndex, ExhaustionReason> {
        let positions: Vec<usize> = key_attrs
            .iter()
            .map(|&a| rel.position(a).expect("index key attribute in schema"))
            .collect();
        let mut groups: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
        for (ri, row) in rel.rows().iter().enumerate() {
            meter.tick()?;
            let key: Vec<u32> = positions.iter().map(|&p| row[p]).collect();
            groups.entry(key).or_default().push(ri);
        }
        let index = HashIndex {
            key_attrs: key_attrs.to_vec(),
            rows: rel.len(),
            groups,
        };
        meter.tracer().emit_with(|| TraceEvent::IndexBuilt {
            attrs: index.key_attrs.len(),
            rows: index.rows as u64,
            distinct_keys: index.groups.len() as u64,
        });
        Ok(index)
    }

    /// The key attributes, in probe order.
    pub fn key_attrs(&self) -> &[u32] {
        &self.key_attrs
    }

    /// Number of rows indexed.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of distinct key values.
    pub fn distinct_keys(&self) -> usize {
        self.groups.len()
    }

    /// Row positions matching `key` (empty if none).
    pub fn probe(&self, key: &[u32]) -> &[usize] {
        self.groups.get(key).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Default capacity of a per-solve [`IndexCache`].
pub const INDEX_CACHE_CAPACITY: usize = 32;

/// An LRU-ish cache of [`HashIndex`]es keyed by `(relation id, version,
/// key attributes)`. Relations mutate during reducer sweeps, so callers
/// bump the version on every rewrite; a stale entry simply stops being
/// hit and ages out.
#[derive(Debug)]
pub struct IndexCache {
    capacity: usize,
    /// Most recently used at the back.
    entries: Vec<(usize, u64, Vec<u32>, Arc<HashIndex>)>,
    hits: u64,
    builds: u64,
}

impl IndexCache {
    /// An empty cache holding at most `capacity` indexes.
    pub fn new(capacity: usize) -> Self {
        IndexCache {
            capacity: capacity.max(1),
            entries: Vec::new(),
            hits: 0,
            builds: 0,
        }
    }

    /// Returns the cached index of relation `rel_id` at `version` keyed
    /// by `key_attrs`, building (and caching) it on a miss.
    ///
    /// # Errors
    ///
    /// Propagates meter exhaustion from the build.
    pub fn get_or_build(
        &mut self,
        rel_id: usize,
        version: u64,
        rel: &NamedRelation,
        key_attrs: &[u32],
        meter: &mut Meter,
    ) -> Result<Arc<HashIndex>, ExhaustionReason> {
        if let Some(pos) = self
            .entries
            .iter()
            .position(|(id, v, k, _)| *id == rel_id && *v == version && k == key_attrs)
        {
            self.hits += 1;
            let entry = self.entries.remove(pos);
            let index = entry.3.clone();
            self.entries.push(entry);
            return Ok(index);
        }
        let index = Arc::new(HashIndex::build(rel, key_attrs, meter)?);
        self.builds += 1;
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
        }
        self.entries
            .push((rel_id, version, key_attrs.to_vec(), index.clone()));
        Ok(index)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Indexes built (cache misses) so far.
    pub fn builds(&self) -> u64 {
        self.builds
    }
}

/// The attributes shared by two relations, sorted ascending — the
/// canonical index key for their join, so differently-ordered schemas
/// still hit the same cache entry.
pub fn common_attrs(left: &NamedRelation, right: &NamedRelation) -> Vec<u32> {
    let mut common: Vec<u32> = left
        .schema()
        .iter()
        .copied()
        .filter(|&a| right.position(a).is_some())
        .collect();
    common.sort_unstable();
    common
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspdb_core::budget::Budget;

    fn rel(schema: &[u32], rows: &[&[u32]]) -> NamedRelation {
        NamedRelation::new(schema.to_vec(), rows.iter().map(|r| r.to_vec()))
    }

    #[test]
    fn planner_prefers_connected_relations() {
        // Chain 0-1-2-3 given out of order with the two chain *ends*
        // smallest: size-only ordering would cross-product them.
        let r01 = rel(&[0, 1], &[&[0, 0]]);
        let r12 = rel(&[1, 2], &[&[0, 0], &[0, 1], &[1, 0]]);
        let r23 = rel(&[2, 3], &[&[0, 0], &[1, 1]]);
        let plan = plan_join_order(&[r01, r12, r23]);
        assert_eq!(plan.order(), vec![0, 1, 2]);
        assert_eq!(plan.cross_products(), 0);
    }

    #[test]
    fn disconnected_graph_yields_explicit_cross_product() {
        let a = rel(&[0], &[&[1], &[2]]);
        let b = rel(&[1], &[&[7]]);
        let plan = plan_join_order(&[a, b]);
        assert_eq!(plan.cross_products(), 1);
        assert!(plan.steps[1].cross_product);
        let ev = plan.trace_event_for("binary", "left-deep hash-join pipeline".into());
        assert_eq!(ev.kind(), "plan_chosen");
        assert!(ev.to_json().contains("\"cross_steps\":[1]"));
    }

    #[test]
    fn estimates_use_distinct_counts() {
        // Joining on an attribute with d distinct values on both sides
        // estimates |L|·|R|/d.
        let l = rel(&[0, 1], &[&[0, 0], &[1, 1], &[2, 2], &[3, 3]]);
        let r = rel(&[1, 2], &[&[0, 9], &[1, 9], &[2, 9], &[3, 9]]);
        let plan = plan_join_order(&[l, r]);
        // 4·4/4 = 4 expected output rows.
        assert_eq!(plan.steps[1].est_rows, 4);
        assert_eq!(plan.est_peak(), 4);
    }

    #[test]
    fn adversarial_products_saturate_instead_of_truncating() {
        // Eight pairwise-disconnected 500-row relations: the running
        // cross-product estimate reaches 500^8 ≈ 3.9e21 > u64::MAX.
        // The u128 → u64 store must saturate — truncation would wrap
        // the peak down to a small number, silently wrecking both the
        // ordering and est_peak-based heavy-lane routing.
        let relations: Vec<NamedRelation> = (0..8u32)
            .map(|a| NamedRelation::new(vec![a], (0..500u32).map(|v| vec![v])))
            .collect();
        let plan = plan_join_order(&relations);
        assert_eq!(plan.cross_products(), 7);
        assert_eq!(
            plan.steps.last().expect("nonempty").est_rows,
            u64::MAX,
            "overflowing estimate must saturate"
        );
        assert_eq!(plan.est_peak(), u64::MAX);
        // Estimates along a pure cross-product plan are monotone;
        // wrap-around truncation broke this invariant.
        for w in plan.steps.windows(2) {
            assert!(w[1].est_rows >= w[0].est_rows, "{:?}", plan.steps);
        }
    }

    #[test]
    fn empty_input_plans_to_nothing() {
        let plan = plan_join_order(&[]);
        assert!(plan.steps.is_empty());
        assert_eq!(plan.est_peak(), 0);
    }

    #[test]
    fn hash_index_probes_by_key() {
        let r = rel(&[0, 1], &[&[1, 2], &[1, 3], &[4, 2]]);
        let mut meter = Budget::unlimited().meter();
        let idx = HashIndex::build(&r, &[0], &mut meter).unwrap();
        assert_eq!(idx.rows(), 3);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.probe(&[1]).len(), 2);
        assert_eq!(idx.probe(&[4]).len(), 1);
        assert!(idx.probe(&[9]).is_empty());
    }

    #[test]
    fn index_cache_hits_and_evicts() {
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        let mut meter = Budget::unlimited().meter();
        let mut cache = IndexCache::new(2);
        cache.get_or_build(0, 0, &r, &[0], &mut meter).unwrap();
        cache.get_or_build(0, 0, &r, &[0], &mut meter).unwrap();
        assert_eq!((cache.builds(), cache.hits()), (1, 1));
        // A version bump misses; capacity 2 evicts the oldest entry.
        cache.get_or_build(0, 1, &r, &[0], &mut meter).unwrap();
        cache.get_or_build(0, 2, &r, &[0], &mut meter).unwrap();
        assert_eq!(cache.builds(), 3);
        cache.get_or_build(0, 0, &r, &[0], &mut meter).unwrap();
        assert_eq!(cache.builds(), 4, "evicted entry must rebuild");
    }

    #[test]
    fn common_attrs_is_sorted_intersection() {
        let a = rel(&[3, 0, 5], &[]);
        let b = rel(&[5, 3, 7], &[]);
        assert_eq!(common_attrs(&a, &b), vec![3, 5]);
    }
}
