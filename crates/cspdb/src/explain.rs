//! EXPLAIN-style reporting: a [`GovernedReport`] plus the recorded
//! [`TraceEvent`] stream, rendered as text or JSON.
//!
//! Database engines answer `EXPLAIN ANALYZE` with the executed plan and
//! its per-operator cardinalities; this module is the CSP analogue. The
//! ladder's tiers play the role of plan alternatives, the trace events
//! carry per-operator (join/semijoin) cardinalities, and the phase
//! summary gives per-tier wall time and meter charges.
//!
//! ```
//! use cspdb::{ExplainReport, Solver};
//! use cspdb::core::graphs::{clique, cycle};
//! use cspdb::core::trace::Recorder;
//! use std::sync::Arc;
//!
//! let rec = Arc::new(Recorder::new());
//! let report = Solver::new().trace(rec.clone()).solve(&cycle(5), &clique(3));
//! let explain = ExplainReport::new(report, rec.take());
//! assert!(explain.render_text().contains("treewidth"));
//! assert!(explain.to_json().starts_with('{'));
//! ```

use crate::facade::GovernedReport;
use cspdb_core::budget::Answer;
use cspdb_core::trace::{json_escape, OperatorKind, TraceEvent};
use std::fmt::Write as _;

/// Renders the join-planner section of an EXPLAIN report: for every
/// [`TraceEvent::PlanChosen`] in `events`, the engine the cost gate
/// picked (and why), then the chosen order with the planner's estimated
/// cardinality per step next to the *actual* rows the subsequent
/// hash-join operators produced, plus the number of hash indexes built.
/// Runs executed by the worst-case-optimal engine instead render one
/// line per attribute level with its surviving-binding count. Returns
/// `None` when no plan was recorded (the run never entered the join
/// pipeline).
pub fn render_join_plan(events: &[TraceEvent]) -> Option<String> {
    let mut out = String::new();
    let mut plans = 0usize;
    for (i, event) in events.iter().enumerate() {
        let TraceEvent::PlanChosen {
            relations,
            order,
            est_rows,
            cross_steps,
            engine,
            reason,
        } = event
        else {
            continue;
        };
        plans += 1;
        let _ = writeln!(
            out,
            "join plan: {} relations, {} cross product{}",
            relations,
            cross_steps.len(),
            if cross_steps.len() == 1 { "" } else { "s" },
        );
        let _ = writeln!(out, "  engine: {engine} ({reason})");
        // Events belonging to this plan: everything up to the next one.
        let tail = events[i + 1..]
            .iter()
            .take_while(|e| !matches!(e, TraceEvent::PlanChosen { .. }));
        if *engine == "wcoj" {
            // The leapfrog engine binds one attribute per level; show the
            // surviving-binding count per level instead of per-step
            // hash-join actuals (no binary steps ran).
            for e in tail {
                if let TraceEvent::WcojLevel {
                    level,
                    attr,
                    relations,
                    matches,
                } = e
                {
                    let _ = writeln!(
                        out,
                        "  level {level}  attr {attr:>3}   {relations} relations   {matches:>8} matches"
                    );
                }
            }
            continue;
        }
        // Actual cardinalities: the sequential hash-join operators that
        // ran after this plan, one per step past the first (fewer when
        // an empty intermediate ended the pipeline early).
        let mut actuals = tail.filter_map(|e| match e {
            TraceEvent::Operator {
                op: OperatorKind::HashJoin,
                output_rows,
                ..
            } => Some(*output_rows),
            _ => None,
        });
        for (step, (rel, est)) in order.iter().zip(est_rows.iter()).enumerate() {
            let actual = if step == 0 {
                String::new()
            } else {
                match actuals.next() {
                    Some(rows) => format!("   actual {rows:>8} rows"),
                    None => String::new(),
                }
            };
            let cross = if cross_steps.contains(&(step as u32)) {
                "   (cross product)"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  step {step}  relation {rel:>3}   est {est:>8} rows{actual}{cross}"
            );
        }
    }
    let indexes = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::IndexBuilt { .. }))
        .count();
    if indexes > 0 {
        let _ = writeln!(out, "indexes built: {indexes}");
    }
    (plans > 0).then_some(out)
}

/// A governed run together with its recorded event stream, renderable
/// as an `EXPLAIN ANALYZE`-style report.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The run's answer, attempts, and phase summary.
    pub report: GovernedReport,
    /// The typed events recorded during the run, in emission order.
    pub events: Vec<TraceEvent>,
}

impl ExplainReport {
    /// Pairs a report with the events a
    /// [`Recorder`](cspdb_core::trace::Recorder) captured for it.
    pub fn new(report: GovernedReport, events: Vec<TraceEvent>) -> Self {
        ExplainReport { report, events }
    }

    /// Human-readable plan report: the answer, the winning strategy, every
    /// tier attempt with its per-phase wall time and meter counters, and
    /// the event stream indented under its enclosing tier.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        match &self.report.answer {
            Answer::Sat(w) => {
                let _ = writeln!(out, "answer: sat (witness over {} variables)", w.len());
            }
            Answer::Unsat => {
                let _ = writeln!(out, "answer: unsat");
            }
            Answer::Unknown(r) => {
                let _ = writeln!(out, "answer: unknown ({r})");
            }
        }
        match &self.report.strategy {
            Some(s) => {
                let _ = writeln!(out, "strategy: {s}");
            }
            None => {
                let _ = writeln!(out, "strategy: none (no tier decided)");
            }
        }
        let _ = writeln!(out, "tiers:");
        for (attempt, phase) in self
            .report
            .attempts
            .iter()
            .zip(self.report.trace.phases.iter())
        {
            let _ = writeln!(
                out,
                "  {:<16} {:<40} {:>8} µs {:>10} steps {:>10} tuples",
                attempt.strategy.to_string(),
                attempt.outcome.label(),
                phase.micros,
                phase.steps,
                phase.tuples,
            );
        }
        if let Some(plan) = render_join_plan(&self.events) {
            out.push_str(&plan);
        }
        if self.events.is_empty() {
            let _ = writeln!(out, "events: none recorded");
        } else {
            let _ = writeln!(out, "events ({}):", self.events.len());
            let mut depth = 0usize;
            for event in &self.events {
                if matches!(event, TraceEvent::TierEnd { .. }) {
                    depth = depth.saturating_sub(1);
                }
                let _ = writeln!(
                    out,
                    "  {}{} {}",
                    "  ".repeat(depth),
                    event.kind(),
                    event.to_json(),
                );
                if matches!(event, TraceEvent::TierStart { .. }) {
                    depth += 1;
                }
            }
        }
        out
    }

    /// Machine-readable report: one JSON object with the answer, the
    /// winning strategy, the exhaustion reason (`null` unless the answer
    /// is unknown), the tier attempts, the per-phase timings/counters,
    /// and the raw event objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let (answer, witness_len, reason) = match &self.report.answer {
            Answer::Sat(w) => ("sat", Some(w.len()), None),
            Answer::Unsat => ("unsat", None, None),
            Answer::Unknown(r) => ("unknown", None, Some(r.to_string())),
        };
        let _ = write!(out, "\"answer\":\"{answer}\"");
        match witness_len {
            Some(n) => {
                let _ = write!(out, ",\"witness_len\":{n}");
            }
            None => out.push_str(",\"witness_len\":null"),
        }
        match &self.report.strategy {
            Some(s) => {
                let _ = write!(out, ",\"strategy\":\"{}\"", json_escape(&s.to_string()));
            }
            None => out.push_str(",\"strategy\":null"),
        }
        match reason {
            Some(r) => {
                let _ = write!(out, ",\"exhaustion_reason\":\"{}\"", json_escape(&r));
            }
            None => out.push_str(",\"exhaustion_reason\":null"),
        }
        out.push_str(",\"attempts\":[");
        for (i, attempt) in self.report.attempts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"strategy\":\"{}\",\"outcome\":\"{}\"}}",
                json_escape(&attempt.strategy.to_string()),
                json_escape(&attempt.outcome.label()),
            );
        }
        out.push_str("],\"phases\":[");
        for (i, phase) in self.report.trace.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"phase\":\"{}\",\"micros\":{},\"steps\":{},\"tuples\":{}}}",
                json_escape(&phase.phase),
                phase.micros,
                phase.steps,
                phase.tuples,
            );
        }
        out.push_str("],\"events\":[");
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event.to_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::{SolveStrategy, Solver};
    use cspdb_core::budget::Budget;
    use cspdb_core::graphs::{clique, cycle};
    use cspdb_core::trace::Recorder;
    use std::sync::Arc;

    fn explain(a: &cspdb_core::Structure, b: &cspdb_core::Structure) -> ExplainReport {
        let rec = Arc::new(Recorder::new());
        let report = Solver::new().trace(rec.clone()).solve(a, b);
        ExplainReport::new(report, rec.take())
    }

    #[test]
    fn text_report_names_the_winning_tier() {
        let e = explain(&cycle(5), &clique(3));
        let text = e.render_text();
        assert!(text.contains("answer: sat"), "got:\n{text}");
        assert!(text.contains("strategy: treewidth"), "got:\n{text}");
        assert!(text.contains("tier_start"), "got:\n{text}");
    }

    #[test]
    fn json_report_is_structurally_sound() {
        let e = explain(&cycle(5), &clique(3));
        let json = e.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"answer\":\"sat\""), "got:\n{json}");
        assert!(json.contains("\"exhaustion_reason\":null"));
        assert!(json.contains("\"phases\":["));
        assert!(json.contains("\"event\":\"dp_table\""), "got:\n{json}");
        // Balanced braces and quotes — cheap well-formedness checks that
        // catch missed commas/escapes without a JSON parser dependency.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "got:\n{json}"
        );
        assert_eq!(json.matches('"').count() % 2, 0, "got:\n{json}");
    }

    #[test]
    fn join_plan_section_pairs_estimates_with_actuals() {
        use cspdb_relalg::{join_all_budgeted, NamedRelation};
        let rec = Arc::new(Recorder::new());
        let budget = Budget::unlimited().with_trace(rec.clone());
        let mut meter = budget.meter();
        // A 3-relation chain: R(0,1) ⋈ S(1,2) ⋈ T(2,3).
        let r = NamedRelation::new(vec![0, 1], vec![vec![1, 2], vec![2, 3]]);
        let s = NamedRelation::new(vec![1, 2], vec![vec![2, 4], vec![3, 5]]);
        let t = NamedRelation::new(vec![2, 3], vec![vec![4, 6], vec![5, 7]]);
        let joined = join_all_budgeted(vec![r, s, t], &mut meter).unwrap();
        assert_eq!(joined.len(), 2);
        let events = rec.take();
        let plan = render_join_plan(&events).expect("a plan was recorded");
        assert!(plan.contains("join plan: 3 relations"), "got:\n{plan}");
        assert!(plan.contains("0 cross products"), "got:\n{plan}");
        assert!(plan.contains("engine: binary"), "got:\n{plan}");
        assert!(plan.contains("actual"), "got:\n{plan}");
        assert!(plan.contains("indexes built: 2"), "got:\n{plan}");
        // And the section shows up in a rendered report.
        let report = Solver::new().solve(&cycle(5), &clique(3));
        let text = ExplainReport::new(report, events).render_text();
        assert!(text.contains("join plan:"), "got:\n{text}");
    }

    #[test]
    fn join_plan_section_renders_wcoj_levels() {
        use cspdb_relalg::{join_all_budgeted, NamedRelation};
        let rec = Arc::new(Recorder::new());
        let budget = Budget::unlimited().with_trace(rec.clone());
        let mut meter = budget.meter();
        // A dense cyclic triangle query: R(0,1) ⋈ S(1,2) ⋈ T(2,0) over
        // the complete 8-vertex digraph, where the AGM bound (512)
        // undercuts the binary peak estimate and the cost gate routes
        // to the worst-case-optimal engine.
        let edges: Vec<Vec<u32>> = (0..8u32)
            .flat_map(|a| (0..8u32).filter(move |&b| b != a).map(move |b| vec![a, b]))
            .collect();
        let r = NamedRelation::new(vec![0, 1], edges.clone());
        let s = NamedRelation::new(vec![1, 2], edges.clone());
        let t = NamedRelation::new(vec![2, 0], edges);
        let joined = join_all_budgeted(vec![r, s, t], &mut meter).unwrap();
        assert_eq!(joined.len(), 8 * 7 * 6);
        let events = rec.take();
        let plan = render_join_plan(&events).expect("a plan was recorded");
        assert!(plan.contains("engine: wcoj"), "got:\n{plan}");
        assert!(plan.contains("AGM"), "got:\n{plan}");
        assert!(plan.contains("level 0"), "got:\n{plan}");
        assert!(plan.contains("level 2"), "got:\n{plan}");
        // Each triangle attribute is shared by exactly two relations.
        assert!(plan.contains("2 relations"), "got:\n{plan}");
        // No binary hash-join steps ran, so no per-step actuals.
        assert!(!plan.contains("actual"), "got:\n{plan}");
    }

    #[test]
    fn render_join_plan_is_none_without_a_plan() {
        assert!(render_join_plan(&[]).is_none());
        let e = explain(&cycle(5), &clique(3));
        // The default ladder solves cycle/clique before the join tier, so
        // no PlanChosen event is recorded and the section is omitted.
        let _ = render_join_plan(&e.events);
    }

    #[test]
    fn exhausted_run_reports_reason_in_json() {
        let rec = Arc::new(Recorder::new());
        let report = Solver::new()
            .budget(Budget::new().with_step_limit(1))
            .strategy(SolveStrategy::Ladder)
            .trace(rec.clone())
            .solve(&clique(4), &clique(3));
        let e = ExplainReport::new(report, rec.take());
        let json = e.to_json();
        assert!(json.contains("\"answer\":\"unknown\""), "got:\n{json}");
        assert!(json.contains("\"strategy\":null"));
        assert!(
            json.contains("\"exhaustion_reason\":\"step"),
            "got:\n{json}"
        );
        let text = e.render_text();
        assert!(text.contains("answer: unknown"), "got:\n{text}");
    }
}
