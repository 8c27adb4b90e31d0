//! Named relations: relations whose columns are labeled by attributes.
//!
//! Section 2 of the paper views every CSP variable as a relational
//! *attribute*, every constraint scope as a *scheme*, and every
//! constraint as a relation over that scheme — so that solvability
//! becomes non-emptiness of the natural join (Proposition 2.1).
//! [`NamedRelation`] is that view: rows keyed by a schema of distinct
//! attribute ids.

use crate::planner::HashIndex;
use cspdb_core::budget::{Budget, ExhaustionReason, Meter};
use cspdb_core::trace::{OperatorKind, TraceEvent, Tracer};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Column correspondence for `left ⋈ right`, computed once per join.
struct JoinPlan {
    /// `(i, j)`: left column `i` equals right column `j`.
    common: Vec<(usize, usize)>,
    /// Right columns not in the common set, in right-schema order.
    extra: Vec<usize>,
    /// Output schema: left schema then the extra right attributes.
    schema: Vec<u32>,
}

impl JoinPlan {
    fn new(left: &NamedRelation, right: &NamedRelation) -> JoinPlan {
        let common: Vec<(usize, usize)> = left
            .schema
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| right.position(a).map(|j| (i, j)))
            .collect();
        let extra: Vec<usize> = (0..right.schema.len())
            .filter(|&j| !common.iter().any(|&(_, cj)| cj == j))
            .collect();
        let mut schema = left.schema.clone();
        schema.extend(extra.iter().map(|&j| right.schema[j]));
        JoinPlan {
            common,
            extra,
            schema,
        }
    }
}

/// Hash-joins `left` against `right` under `plan`, charging the meter
/// one tick per input row and one tuple per output row.
///
/// Emits one [`TraceEvent::Operator`] per completed call; its
/// `output_rows` equals the tuples charged, which the trace-accounting
/// property test relies on.
fn join_rows(
    left: &[Vec<u32>],
    right: &[Vec<u32>],
    plan: &JoinPlan,
    meter: &mut Meter,
) -> Result<Vec<Vec<u32>>, ExhaustionReason> {
    let span = meter.tracer().span_start();
    let mut index: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
    for (ri, row) in right.iter().enumerate() {
        meter.tick()?;
        let key: Vec<u32> = plan.common.iter().map(|&(_, j)| row[j]).collect();
        index.entry(key).or_default().push(ri);
    }
    let mut rows = Vec::new();
    for row in left {
        meter.tick()?;
        let key: Vec<u32> = plan.common.iter().map(|&(i, _)| row[i]).collect();
        if let Some(matches) = index.get(&key) {
            for &ri in matches {
                meter.charge_tuples(1)?;
                let mut out = row.clone();
                out.extend(plan.extra.iter().map(|&j| right[ri][j]));
                rows.push(out);
            }
        }
    }
    meter.tracer().emit_with(|| TraceEvent::Operator {
        op: OperatorKind::HashJoin,
        left_rows: left.len() as u64,
        right_rows: right.len() as u64,
        output_rows: rows.len() as u64,
        micros: Tracer::span_micros(span),
    });
    Ok(rows)
}

/// A relation with named (attribute-labeled) columns. Rows are
/// deduplicated and kept sorted for canonical equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedRelation {
    schema: Vec<u32>,
    rows: Vec<Vec<u32>>,
}

impl NamedRelation {
    /// Creates an empty relation over the given schema.
    ///
    /// # Panics
    ///
    /// Panics if the schema repeats an attribute.
    pub fn empty(schema: Vec<u32>) -> Self {
        let mut sorted = schema.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            schema.len(),
            "schema attributes must be distinct"
        );
        NamedRelation {
            schema,
            rows: Vec::new(),
        }
    }

    /// Creates a relation from rows.
    ///
    /// # Panics
    ///
    /// Panics if the schema repeats an attribute or a row has the wrong
    /// width.
    pub fn new(schema: Vec<u32>, rows: impl IntoIterator<Item = Vec<u32>>) -> Self {
        let mut r = NamedRelation::empty(schema);
        let width = r.schema.len();
        let mut collected: Vec<Vec<u32>> = rows.into_iter().collect();
        for row in &collected {
            assert_eq!(row.len(), width, "row width must match schema");
        }
        collected.sort_unstable();
        collected.dedup();
        r.rows = collected;
        r
    }

    /// The relation with one empty row over the empty schema — the unit
    /// of natural join.
    pub fn unit() -> Self {
        NamedRelation {
            schema: vec![],
            rows: vec![vec![]],
        }
    }

    /// The schema (attribute ids in column order).
    #[inline]
    pub fn schema(&self) -> &[u32] {
        &self.schema
    }

    /// The rows.
    #[inline]
    pub fn rows(&self) -> &[Vec<u32>] {
        &self.rows
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column position of attribute `attr`, if present.
    pub fn position(&self, attr: u32) -> Option<usize> {
        self.schema.iter().position(|&a| a == attr)
    }

    /// Checked worst-case output cardinality of `self ⋈ other`
    /// (`|self| · |other|`); `None` on `u64` overflow. Planners use this
    /// to refuse joins that cannot fit any tuple budget.
    pub fn join_size_bound(&self, other: &NamedRelation) -> Option<u64> {
        (self.rows.len() as u64).checked_mul(other.rows.len() as u64)
    }

    /// [`natural_join`](Self::natural_join) under a [`Meter`]: every
    /// output row is charged against the tuple cap *as
    /// it is produced*, so a join whose intermediate result would blow
    /// the cap aborts mid-materialisation instead of exhausting memory
    /// first.
    pub fn natural_join_metered(
        &self,
        other: &NamedRelation,
        meter: &mut Meter,
    ) -> Result<NamedRelation, ExhaustionReason> {
        let plan = JoinPlan::new(self, other);
        let rows = join_rows(&self.rows, &other.rows, &plan, meter)?;
        Ok(NamedRelation::new(plan.schema, rows))
    }

    /// Natural join: rows that agree on all common attributes are glued;
    /// with disjoint schemas this is the cartesian product; with equal
    /// schemas it is intersection.
    pub fn natural_join(&self, other: &NamedRelation) -> NamedRelation {
        self.natural_join_metered(other, &mut Budget::unlimited().meter())
            .expect("unlimited budget cannot exhaust")
    }

    /// [`natural_join_metered`](Self::natural_join_metered) probing a
    /// prebuilt build-side [`HashIndex`] instead of hashing `other`
    /// again: the planner's executor and the reducer sweeps reuse one
    /// index across calls (see [`crate::IndexCache`]). The index must
    /// have been built over `other`, keyed by the common attributes of
    /// the two schemas (any order); the result is identical to the
    /// unindexed join.
    ///
    /// # Panics
    ///
    /// Panics if the index key is not the common attribute set, or the
    /// index row count does not match `other`.
    pub fn natural_join_with_index(
        &self,
        other: &NamedRelation,
        index: &HashIndex,
        meter: &mut Meter,
    ) -> Result<NamedRelation, ExhaustionReason> {
        let plan = JoinPlan::new(self, other);
        assert_eq!(
            index.rows(),
            other.len(),
            "index was not built over the build side"
        );
        assert_eq!(
            index.key_attrs().len(),
            plan.common.len(),
            "index key must be the common attribute set"
        );
        let span = meter.tracer().span_start();
        let probe_pos: Vec<usize> = index
            .key_attrs()
            .iter()
            .map(|&a| self.position(a).expect("index key attribute in probe side"))
            .collect();
        let mut rows = Vec::new();
        for row in &self.rows {
            meter.tick()?;
            let key: Vec<u32> = probe_pos.iter().map(|&p| row[p]).collect();
            for &ri in index.probe(&key) {
                meter.charge_tuples(1)?;
                let mut out = row.clone();
                out.extend(plan.extra.iter().map(|&j| other.rows[ri][j]));
                rows.push(out);
            }
        }
        meter.tracer().emit_with(|| TraceEvent::Operator {
            op: OperatorKind::HashJoin,
            left_rows: self.rows.len() as u64,
            right_rows: other.rows.len() as u64,
            output_rows: rows.len() as u64,
            micros: Tracer::span_micros(span),
        });
        Ok(NamedRelation::new(plan.schema, rows))
    }

    /// Semijoin `self ⋉ other` under a [`Meter`]: one tick
    /// per input row scanned on either side, one tuple charged per
    /// surviving row — so a tuple cap bounds the peak size a reducer
    /// sweep can carry, and a deadline is observed *inside* large
    /// semijoins instead of only between them.
    pub fn semijoin_metered(
        &self,
        other: &NamedRelation,
        meter: &mut Meter,
    ) -> Result<NamedRelation, ExhaustionReason> {
        let span = meter.tracer().span_start();
        let emit = |meter: &mut Meter, out: u64, span| {
            meter.tracer().emit_with(|| TraceEvent::Operator {
                op: OperatorKind::Semijoin,
                left_rows: self.rows.len() as u64,
                right_rows: other.rows.len() as u64,
                output_rows: out,
                micros: Tracer::span_micros(span),
            });
        };
        let common: Vec<(usize, usize)> = self
            .schema
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| other.position(a).map(|j| (i, j)))
            .collect();
        if common.is_empty() {
            // Disjoint schemas: cross-product semantics — keep all of
            // `self` iff `other` is nonempty.
            meter.tick()?;
            return if other.is_empty() {
                emit(meter, 0, span);
                Ok(NamedRelation::empty(self.schema.clone()))
            } else {
                meter.charge_tuples(self.rows.len() as u64)?;
                emit(meter, self.rows.len() as u64, span);
                Ok(self.clone())
            };
        }
        let mut keys: HashSet<Vec<u32>> = HashSet::new();
        for row in &other.rows {
            meter.tick()?;
            keys.insert(common.iter().map(|&(_, j)| row[j]).collect());
        }
        let mut rows = Vec::new();
        for row in &self.rows {
            meter.tick()?;
            let key: Vec<u32> = common.iter().map(|&(i, _)| row[i]).collect();
            if keys.contains(&key) {
                meter.charge_tuples(1)?;
                rows.push(row.clone());
            }
        }
        emit(meter, rows.len() as u64, span);
        Ok(NamedRelation {
            schema: self.schema.clone(),
            rows,
        })
    }

    /// [`semijoin_metered`](Self::semijoin_metered) probing a prebuilt
    /// [`HashIndex`] over the filtering side instead of rebuilding its
    /// key set: the Yannakakis top-down sweep probes the same parent
    /// from every child, so one index serves them all. The index must be
    /// keyed by the (nonempty) common attribute set; metering matches
    /// the unindexed semijoin — one tick per probe row, one tuple per
    /// surviving row.
    ///
    /// # Panics
    ///
    /// Panics if an index key attribute is missing from `self`'s schema
    /// (callers handle the disjoint-schema case before indexing).
    pub fn semijoin_with_index(
        &self,
        index: &HashIndex,
        meter: &mut Meter,
    ) -> Result<NamedRelation, ExhaustionReason> {
        assert!(
            !index.key_attrs().is_empty(),
            "disjoint-schema semijoins take the unindexed path"
        );
        let span = meter.tracer().span_start();
        let probe_pos: Vec<usize> = index
            .key_attrs()
            .iter()
            .map(|&a| self.position(a).expect("index key attribute in schema"))
            .collect();
        let mut rows = Vec::new();
        for row in &self.rows {
            meter.tick()?;
            let key: Vec<u32> = probe_pos.iter().map(|&p| row[p]).collect();
            if !index.probe(&key).is_empty() {
                meter.charge_tuples(1)?;
                rows.push(row.clone());
            }
        }
        meter.tracer().emit_with(|| TraceEvent::Operator {
            op: OperatorKind::Semijoin,
            left_rows: self.rows.len() as u64,
            right_rows: index.rows() as u64,
            output_rows: rows.len() as u64,
            micros: Tracer::span_micros(span),
        });
        Ok(NamedRelation {
            schema: self.schema.clone(),
            rows,
        })
    }

    /// Semijoin `self ⋉ other`: rows of `self` that join with at least
    /// one row of `other`.
    pub fn semijoin(&self, other: &NamedRelation) -> NamedRelation {
        self.semijoin_metered(other, &mut Budget::unlimited().meter())
            .expect("unlimited budget cannot exhaust")
    }

    /// Projection onto the listed attributes (must exist; order given).
    ///
    /// # Panics
    ///
    /// Panics if an attribute is missing from the schema.
    pub fn project(&self, attrs: &[u32]) -> NamedRelation {
        let positions: Vec<usize> = attrs
            .iter()
            .map(|&a| self.position(a).expect("attribute in schema"))
            .collect();
        NamedRelation::new(
            attrs.to_vec(),
            self.rows
                .iter()
                .map(|row| positions.iter().map(|&p| row[p]).collect()),
        )
    }

    /// Selection: keeps rows where attribute `attr` equals `value`.
    ///
    /// # Panics
    ///
    /// Panics if the attribute is missing.
    pub fn select_eq(&self, attr: u32, value: u32) -> NamedRelation {
        let p = self.position(attr).expect("attribute in schema");
        NamedRelation {
            schema: self.schema.clone(),
            rows: self
                .rows
                .iter()
                .filter(|row| row[p] == value)
                .cloned()
                .collect(),
        }
    }

    /// Renames attribute `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is missing or `to` already exists.
    pub fn rename(&self, from: u32, to: u32) -> NamedRelation {
        assert!(self.position(to).is_none(), "target attribute exists");
        let p = self.position(from).expect("attribute in schema");
        let mut schema = self.schema.clone();
        schema[p] = to;
        NamedRelation {
            schema,
            rows: self.rows.clone(),
        }
    }

    /// Reads the value of `attr` in `row`.
    ///
    /// # Panics
    ///
    /// Panics if the attribute is missing.
    pub fn value(&self, row: &[u32], attr: u32) -> u32 {
        row[self.position(attr).expect("attribute in schema")]
    }
}

impl fmt::Display for NamedRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.schema.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "x{a}")?;
        }
        write!(f, "): {} rows", self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(schema: &[u32], rows: &[&[u32]]) -> NamedRelation {
        NamedRelation::new(schema.to_vec(), rows.iter().map(|r| r.to_vec()))
    }

    #[test]
    fn join_on_shared_attribute() {
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        let s = rel(&[1, 2], &[&[2, 5], &[2, 6], &[9, 9]]);
        let j = r.natural_join(&s);
        assert_eq!(j.schema(), &[0, 1, 2]);
        assert_eq!(j.rows(), &[vec![1, 2, 5], vec![1, 2, 6]]);
    }

    #[test]
    fn join_disjoint_is_product() {
        let r = rel(&[0], &[&[1], &[2]]);
        let s = rel(&[1], &[&[7]]);
        let j = r.natural_join(&s);
        assert_eq!(j.len(), 2);
        assert_eq!(j.schema(), &[0, 1]);
        // On larger inputs too: every pair, each row the concatenation.
        let r = random_rel(&[0], 400, 50, 13);
        let s = random_rel(&[1], 400, 50, 17);
        let product: Vec<Vec<u32>> = r
            .rows()
            .iter()
            .flat_map(|a| s.rows().iter().map(move |b| vec![a[0], b[0]]))
            .collect();
        assert_eq!(r.natural_join(&s), NamedRelation::new(vec![0, 1], product));
    }

    #[test]
    fn join_same_schema_is_intersection() {
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        let s = rel(&[0, 1], &[&[3, 4], &[5, 6]]);
        let j = r.natural_join(&s);
        assert_eq!(j.rows(), &[vec![3, 4]]);
    }

    #[test]
    fn join_is_commutative_up_to_columns() {
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        let s = rel(&[1, 2], &[&[2, 5], &[4, 6]]);
        let a = r.natural_join(&s);
        let b = s.natural_join(&r).project(&[0, 1, 2]);
        assert_eq!(a, b);
    }

    #[test]
    fn unit_is_join_identity() {
        let r = rel(&[0, 1], &[&[1, 2]]);
        assert_eq!(r.natural_join(&NamedRelation::unit()), r);
        assert_eq!(NamedRelation::unit().natural_join(&r).project(&[0, 1]), r);
    }

    #[test]
    fn semijoin_filters() {
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        let s = rel(&[1], &[&[2]]);
        assert_eq!(r.semijoin(&s).rows(), &[vec![1, 2]]);
        // No common attributes: keep all iff other nonempty.
        let t = rel(&[5], &[&[0]]);
        assert_eq!(r.semijoin(&t), r);
        let empty = NamedRelation::empty(vec![5]);
        assert!(r.semijoin(&empty).is_empty());
    }

    #[test]
    fn project_select_rename() {
        let r = rel(&[0, 1], &[&[1, 2], &[1, 3], &[4, 2]]);
        assert_eq!(r.project(&[0]).rows(), &[vec![1], vec![4]]);
        assert_eq!(r.select_eq(1, 2).len(), 2);
        let rn = r.rename(1, 9);
        assert_eq!(rn.schema(), &[0, 9]);
        assert_eq!(rn.project(&[9]).rows(), &[vec![2], vec![3]]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_schema_rejected() {
        NamedRelation::empty(vec![1, 1]);
    }

    #[test]
    fn rows_dedup() {
        let r = rel(&[0], &[&[1], &[1], &[0]]);
        assert_eq!(r.rows(), &[vec![0], vec![1]]);
    }

    /// Deterministic pseudo-random relation (LCG; no external deps).
    fn random_rel(schema: &[u32], n: usize, domain: u32, seed: u64) -> NamedRelation {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let rows = (0..n)
            .map(|_| schema.iter().map(|_| next() % domain).collect::<Vec<u32>>())
            .collect::<Vec<_>>();
        NamedRelation::new(schema.to_vec(), rows)
    }

    #[test]
    fn budgeted_join_agrees_with_unbudgeted() {
        let r = random_rel(&[0, 1], 300, 20, 7);
        let s = random_rel(&[1, 2], 300, 20, 11);
        let mut meter = Budget::unlimited().meter();
        let budgeted = r.natural_join_metered(&s, &mut meter).unwrap();
        assert_eq!(budgeted, r.natural_join(&s));
        // A tuple cap trips mid-materialisation.
        let r = random_rel(&[0, 1], 800, 40, 19);
        let s = random_rel(&[1, 2], 800, 40, 23);
        let mut capped = Budget::unlimited().with_tuple_limit(100).meter();
        assert_eq!(
            r.natural_join_metered(&s, &mut capped).unwrap_err(),
            ExhaustionReason::TupleLimitExceeded
        );
    }

    #[test]
    fn indexed_join_identical_to_unindexed() {
        let r = random_rel(&[0, 1], 300, 12, 41);
        let s = random_rel(&[1, 2], 300, 12, 43);
        let mut meter = Budget::unlimited().meter();
        let idx = HashIndex::build(&s, &[1], &mut meter).unwrap();
        let via_index = r.natural_join_with_index(&s, &idx, &mut meter).unwrap();
        assert_eq!(via_index, r.natural_join(&s));
    }

    #[test]
    fn indexed_semijoin_identical_to_unindexed() {
        let r = random_rel(&[0, 1], 300, 6, 47);
        let s = random_rel(&[1, 2], 300, 6, 53);
        let mut meter = Budget::unlimited().meter();
        let idx = HashIndex::build(&s, &[1], &mut meter).unwrap();
        let via_index = r.semijoin_with_index(&idx, &mut meter).unwrap();
        assert_eq!(via_index, r.semijoin(&s));
        // Surviving rows are charged as tuples, exactly like the
        // unindexed semijoin.
        let mut capped = Budget::unlimited().with_tuple_limit(1).meter();
        assert_eq!(
            r.semijoin_with_index(&idx, &mut capped).unwrap_err(),
            ExhaustionReason::TupleLimitExceeded
        );
    }

    #[test]
    fn semijoin_budgeted_agrees_and_trips_tuple_cap() {
        let r = random_rel(&[0, 1], 500, 5, 29);
        let s = random_rel(&[1, 2], 500, 5, 31);
        let mut meter = Budget::unlimited().meter();
        assert_eq!(r.semijoin_metered(&s, &mut meter).unwrap(), r.semijoin(&s));
        // With dense keys nearly every row survives; a tiny cap trips.
        let mut capped = Budget::unlimited().with_tuple_limit(10).meter();
        assert_eq!(
            r.semijoin_metered(&s, &mut capped).unwrap_err(),
            ExhaustionReason::TupleLimitExceeded
        );
    }

    #[test]
    fn semijoin_budgeted_disjoint_schema_edge() {
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        // Keep all of self iff other nonempty — and the kept rows are
        // charged as tuples, so a zero cap trips.
        let nonempty = rel(&[5], &[&[0]]);
        let mut meter = Budget::unlimited().meter();
        assert_eq!(r.semijoin_metered(&nonempty, &mut meter).unwrap(), r);
        let empty = NamedRelation::empty(vec![5]);
        assert!(r.semijoin_metered(&empty, &mut meter).unwrap().is_empty());
        let mut capped = Budget::unlimited().with_tuple_limit(1).meter();
        assert_eq!(
            r.semijoin_metered(&nonempty, &mut capped).unwrap_err(),
            ExhaustionReason::TupleLimitExceeded
        );
    }
}
