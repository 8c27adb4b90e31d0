//! `cspdb-benchmark`: the client-observed serving benchmark.
//!
//! ```text
//! cspdb-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                 [--repeat N] [--out FILE] [--spans FILE]
//! cspdb-benchmark compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! Run it from the repository root: it builds `cspdb` from source, spawns
//! a fresh `cspdb serve --listen` per round and drives it from two
//! threads, one TCP connection each. Without `--workload` every workload
//! runs. Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). `--trace 1` runs the traced variant instead and reports
//! per-layer metrics. The package's README.md describes the metrics,
//! workloads and trace.

mod check;
mod client;
mod compare;
mod gen;
mod json;
mod layers;
mod oracle;
mod run;
mod stats;

use gen::Workload;
use run::{Env, Metric, RunResult};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: u64,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        repeat: 1,
        out: None,
        spans: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag {
            "--workload" => {
                parsed.workloads = vec![Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value} (one of {})", names.join(", "))
                })?];
            }
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(parsed.seconds >= 2.0 && parsed.seconds <= 120.0) {
                    return Err(bad(&"want 2 to 120 seconds"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            "--repeat" => {
                parsed.repeat = value.parse().map_err(|e| bad(&e))?;
                if parsed.repeat == 0 {
                    return Err(bad(&"want at least 1"));
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            "--spans" => parsed.spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(parsed)
}

/// Builds the server from the checkout in the current directory and
/// prepares a scratch directory inside its target directory.
fn prepare() -> Result<Env, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("Cargo.toml").is_file() || !root.join("src/bin/cspdb.rs").is_file() {
        return Err(format!(
            "{} is not the repository root (no Cargo.toml with src/bin/cspdb.rs)",
            root.display()
        ));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .map(|t| if t.is_relative() { root.join(t) } else { t })
        .unwrap_or_else(|| root.join("target"));
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--bin",
            "cspdb",
        ])
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!(
            "cargo build --release --bin cspdb failed: {status}"
        ));
    }
    let out_dir = target.join("cspdb-benchmark");
    let work_dir = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Ok(Env {
        server_bin: target.join("release").join("cspdb"),
        work_dir,
        out_dir,
        conns: nproc.min(2),
    })
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN: a value that could not be measured is null.
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_owned()
            };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                cspdb_service::escape(&m.name),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(metrics)
    )
}

fn print_run(r: &RunResult) {
    println!(
        "== {} seed={} trace={} ==",
        r.workload.name(),
        r.seed,
        u8::from(r.trace)
    );
    for line in &r.report {
        println!("{line}");
    }
    for m in r.metrics.iter().chain(&r.extras) {
        println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  attempted={} failed={} correct={}",
        r.attempted,
        r.failed,
        r.correct()
    );
    for f in &r.failures {
        eprintln!("FAIL {}: {f}", r.workload.name());
    }
}

fn record_line(r: &RunResult) -> String {
    let all: Vec<Metric> = r.metrics.iter().chain(&r.extras).cloned().collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        r.workload.name(),
        r.seed,
        r.trace,
        r.correct(),
        r.attempted,
        r.failed,
        metrics_json(&all)
    )
}

/// Median and spread (IQR / median) of each metric over repeated runs
/// of one workload, as `(name, unit, median, spread)`.
fn summarise(runs: &[RunResult]) -> Vec<(String, &'static str, f64, f64)> {
    let first = &runs[0];
    first
        .metrics
        .iter()
        .chain(&first.extras)
        .map(|m| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| {
                    r.metrics
                        .iter()
                        .chain(&r.extras)
                        .find(|x| x.name == m.name)
                        .map(|x| x.value)
                })
                .collect();
            (
                m.name.clone(),
                m.unit,
                stats::median(&values),
                stats::spread(&values),
            )
        })
        .collect()
}

fn run_all(args: &Args) -> Result<bool, String> {
    let env = prepare()?;
    let mut out = match &args.out {
        Some(path) => {
            Some(std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?)
        }
        None => None,
    };
    let mut results: Vec<RunResult> = Vec::new();
    let mut summary: Vec<Metric> = Vec::new();
    let outcome = (|| -> Result<(), String> {
        for &w in &args.workloads {
            let mut runs = Vec::new();
            for r in 0..args.repeat {
                let seed = args.seed + r;
                let result = if args.trace {
                    let spans = args.spans.clone().unwrap_or_else(|| {
                        env.out_dir
                            .join(format!("spans-{}-seed{seed}.jsonl", w.name()))
                    });
                    layers::run_traced(&env, w, seed, args.seconds, &spans)?
                } else {
                    run::run_untraced(&env, w, seed, args.seconds)?
                };
                print_run(&result);
                if let Some(f) = out.as_mut() {
                    writeln!(f, "{}", record_line(&result)).map_err(|e| e.to_string())?;
                }
                runs.push(result);
            }
            if args.repeat > 1 {
                println!(
                    "== {} over {} seeds: median, IQR/median ==",
                    w.name(),
                    args.repeat
                );
            }
            for (name, unit, med, spread) in summarise(&runs) {
                if args.repeat > 1 {
                    println!("  {name:<28} {med:>14.4} {unit:<8} spread {spread:.4}");
                }
                let is_line_metric = runs[0].metrics.iter().any(|m| m.name == name);
                if is_line_metric {
                    let key = if args.workloads.len() == 1 {
                        name
                    } else {
                        format!("{}.{name}", w.name())
                    };
                    summary.push(Metric {
                        name: key,
                        value: med,
                        unit,
                    });
                }
            }
            results.extend(runs);
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&env.work_dir);
    outcome?;
    let correct = results.iter().all(RunResult::correct);
    let attempted = results.iter().map(|r| r.attempted).sum();
    let failed = results.iter().map(|r| r.failed).sum();
    println!("{}", result_line(correct, attempted, failed, &summary));
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [parent, change] => compare::compare(parent.as_ref(), change.as_ref()),
            _ => Err("usage: cspdb-benchmark compare PARENT.jsonl CHANGE.jsonl".into()),
        }
    } else {
        parse_args(&args).and_then(|a| run_all(&a))
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cspdb-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
