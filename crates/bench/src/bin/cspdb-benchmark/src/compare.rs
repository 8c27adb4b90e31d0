//! `cspdb-benchmark compare PARENT.jsonl CHANGE.jsonl`: the gain and
//! no-regression rules, per workload, from two sets of `--out` records.
//!
//! Runs pair up in file order (run `i` of the parent with run `i` of
//! the change), so record them alternating. A metric is a **gain** when
//! there are at least 10 pairs, the change wins at least 9 in 10 of
//! them (ties count for neither), and the medians differ by more than
//! the parent's interquartile range. Otherwise it is a **regression**
//! when the change's median is worse than the parent's by more than the
//! metric's bound, **unresolved** when either side's spread exceeds the
//! bound (unless every change run beats every parent run), and **ok**
//! otherwise.

use crate::json::{self, Json};
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;
use std::path::Path;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .as_array()
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .into(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// Untraced run records grouped by workload: metric name → values in
/// file order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        if rec.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), n + 1))?;
        let per = runs.entry(workload.to_owned()).or_default();
        for (name, m) in rec.get("metrics").map(Json::entries).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                per.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

fn verdict(b: &Bound, parent: &[f64], change: &[f64]) -> (String, &'static str) {
    let better = |x: f64, y: f64| if b.lower_is_better { x < y } else { x > y };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let (mp, mc) = (median(parent), median(change));
    let [q1, _, q3] = quartiles(parent);
    let worse = if mp == 0.0 {
        0.0
    } else if b.lower_is_better {
        (mc - mp) / mp
    } else {
        (mp - mc) / mp
    };
    let every_run_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict =
        if pairs >= 10 && wins * 10 >= pairs * 9 && (mc - mp).abs() > q3 - q1 && better(mc, mp) {
            "gain"
        } else if (spread(parent) > b.bound || spread(change) > b.bound) && !every_run_better {
            "unresolved"
        } else if worse > b.bound {
            "regression"
        } else {
            "ok"
        };
    let detail = format!(
        "{}: {:.4} -> {:.4} ({:+.1}%, wins {wins}/{pairs}, spread {:.3}/{:.3}, bound {})",
        b.name,
        mp,
        mc,
        if mp == 0.0 {
            0.0
        } else {
            (mc - mp) / mp * 100.0
        },
        spread(parent),
        spread(change),
        b.bound
    );
    (detail, verdict)
}

/// Prints one row per workload; returns false when any metric regressed.
pub fn compare(parent: &Path, change: &Path) -> Result<bool, String> {
    let benchmark = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let bounds = bounds(&json::parse(&benchmark)?)?;
    let (parent, change) = (load(parent)?, load(change)?);
    let mut clean = true;
    for (workload, p) in &parent {
        let Some(c) = change.get(workload) else {
            println!("{workload}: missing from the change's runs");
            continue;
        };
        let mut cells = Vec::new();
        for b in &bounds {
            match (p.get(&b.name), c.get(&b.name)) {
                (Some(pv), Some(cv)) => {
                    let (detail, v) = verdict(b, pv, cv);
                    clean &= v != "regression";
                    cells.push(format!("{v} {detail}"));
                }
                _ => cells.push(format!("missing {}", b.name)),
            }
        }
        println!("{workload}: {}", cells.join(" | "));
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "p50_ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn gain_needs_nine_in_ten_wins_and_a_gap_beyond_the_spread() {
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + f64::from(i) * 0.01).collect();
        let change: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        assert_eq!(verdict(&lower(0.1), &parent, &change).1, "gain");
        // Nine pairs are too few.
        assert_eq!(verdict(&lower(0.1), &parent[..9], &change[..9]).1, "ok");
        // Two losses in ten break the 9/10 rule.
        let mut mixed = change.clone();
        mixed[0] = 20.0;
        mixed[1] = 20.0;
        assert_ne!(verdict(&lower(0.1), &parent, &mixed).1, "gain");
    }

    #[test]
    fn regression_and_unresolved() {
        let parent = vec![10.0; 10];
        let slower = vec![12.0; 10];
        assert_eq!(verdict(&lower(0.1), &parent, &slower).1, "regression");
        assert_eq!(verdict(&lower(0.25), &parent, &slower).1, "ok");
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 5.0 } else { 15.0 })
            .collect();
        assert_eq!(verdict(&lower(0.1), &noisy, &slower).1, "unresolved");
    }
}
