//! The repo's layered benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run \
//!     [--workload W] [--seed S] [--seconds N] [--trace 0|1 | --traced] \
//!     [--quick] [--reps R] [--reverse] [--out F]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- list [--benchmark-json]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.json B.json
//! ```
//!
//! `run --workload W` measures one workload in this process and ends its
//! standard output with the one-line JSON result. `run` without a
//! workload runs the whole suite, each workload run in a fresh child
//! process (so `peak_rss_mb` is per workload), and writes a result file.

mod catalog;
mod cluster;
mod compare;
mod envelope;
mod inputs;
mod loadgen;
mod probes;
mod report;
mod serve;
mod stats;
mod tail;
mod trace;
mod train;

use catalog::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use report::{Outcome, RunOpts};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: pbg-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1 | --traced] [--quick] [--reps R] [--reverse] [--out F]\n       pbg-benchmark list [--benchmark-json]\n       pbg-benchmark compare A.json B.json";

/// Parsed `run` arguments.
#[derive(Debug, Clone)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    reps: usize,
    reverse: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        quick: false,
        reps: 1,
        reverse: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => parsed.traced = true,
            "--quick" => parsed.quick = true,
            "--reverse" => parsed.reverse = true,
            "--reps" => {
                parsed.reps = value("a count")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a path")?)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if parsed.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    Ok(parsed)
}

/// Where swap files, checkpoints, traces and result files go: the
/// benchmark's own `out/` directory in the checkout the command runs from.
fn out_root() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Measures one workload in this process.
fn run_one(args: &RunArgs, name: &str) -> Result<bool, String> {
    let workload = catalog::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let root = out_root();
    let scratch = root.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let opts = RunOpts {
        workload: workload.name,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        quick: args.quick,
        out_dir: scratch.clone(),
    };
    let (mut outcome, tracer, mut events): (Outcome, _, _) = match workload.name {
        "train_mem_social" => train::run(train::MEM_SOCIAL, &opts),
        "train_disk_kg" => train::run(train::DISK_KG, &opts),
        "train_cluster_loopback" => cluster::run(cluster::LOOPBACK, &opts),
        "serve_topk" => serve::run(serve::TOPK, &opts),
        _ => serve::run(serve::SCORE, &opts),
    };
    std::fs::remove_dir_all(&scratch).ok();
    if opts.traced {
        events.extend(tracer.drain());
        events.sort_by_key(|e| e.t_ns);
        let path = root.join(format!("trace-{}.json", workload.name));
        // the workload creates its tracer first thing: the window starts
        // at 0 on the trace clock
        let report = trace::finish(&events, 0, tracer.now_ns(), Some(&path))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        outcome.set("trace.coverage_share", report.coverage);
        outcome.set("trace.events", report.events as f64);
        outcome.set("trace.window_s", tracer.now_ns() as f64 * 1e-9);
        let probe_s: f64 = report
            .rows
            .iter()
            .filter(|r| r.name == "probes")
            .map(|r| r.total_s)
            .sum();
        outcome.set("bench.probe_s", probe_s);
        let mut table = format!(
            "self time by span ({} events, top-level spans cover {:.1} % of the window; trace: {})\n{:<34} {:>8} {:>12} {:>12}\n",
            report.events,
            report.coverage * 100.0,
            path.display(),
            "span",
            "count",
            "total s",
            "self s"
        );
        for row in &report.rows {
            table.push_str(&format!(
                "{:<34} {:>8} {:>12.4} {:>12.4}\n",
                row.name, row.count, row.total_s, row.self_s
            ));
        }
        let table_path = root.join(format!("selftime-{}.txt", workload.name));
        std::fs::write(&table_path, &table)
            .map_err(|e| format!("{}: {e}", table_path.display()))?;
        outcome.notes.push(table);
    }
    print!("{}", report::render(&opts, &outcome));
    let config =
        serde_json::to_string(&Value::Map(outcome.config.clone())).map_err(|e| e.to_string())?;
    println!("config {config}");
    println!("{}", report::result_line(&opts, &outcome)?);
    Ok(outcome.correct())
}

/// One child run as the suite sees it.
struct ChildRun {
    seed: u64,
    result: Value,
    config: Value,
}

fn run_child(args: &RunArgs, workload: &str, seed: u64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    print!("{stdout}");
    if !output.status.success() && stdout.trim().is_empty() {
        return Err(format!(
            "{workload} seed {seed} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let last = stdout.lines().last().unwrap_or("");
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let config = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("config "))
        .and_then(|c| serde_json::from_str(c).ok())
        .unwrap_or(Value::Null);
    Ok(ChildRun {
        seed,
        result,
        config,
    })
}

fn metric_values(runs: &[ChildRun], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.result["metrics"][name]["value"].as_f64())
        .collect()
}

/// Runs the whole suite, every workload run in a fresh child process,
/// and writes the result file.
fn run_suite(args: &RunArgs) -> Result<bool, String> {
    let mut order: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if args.reverse {
        order.reverse();
    }
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in order {
        let mut runs = Vec::new();
        for rep in 0..args.reps {
            runs.push(run_child(args, name, args.seed + rep as u64, false)?);
        }
        let traced = if args.traced {
            Some(run_child(args, name, args.seed, true)?)
        } else {
            None
        };
        let sum = |key: &str| {
            runs.iter()
                .chain(traced.iter())
                .map(|r| r.result[key].as_u64().unwrap_or(0))
                .sum::<u64>()
        };
        let correct = runs
            .iter()
            .chain(traced.iter())
            .all(|r| r.result["correct"].as_bool() == Some(true));
        all_correct &= correct;
        let end_to_end: Vec<(String, Value)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    compare::summarize(m.unit, &metric_values(&runs, m.name)),
                )
            })
            .collect();
        let per_layer: Vec<(String, Value)> = traced
            .iter()
            .flat_map(|t| {
                PER_LAYER.iter().map(|m| {
                    (
                        m.name.to_string(),
                        compare::summarize(m.unit, &metric_values(std::slice::from_ref(t), m.name)),
                    )
                })
            })
            .collect();
        workloads.push((
            name.to_string(),
            Value::Map(vec![
                ("config".into(), runs[0].config.clone()),
                (
                    "seeds".into(),
                    Value::Seq(runs.iter().map(|r| Value::U64(r.seed)).collect()),
                ),
                ("correct".into(), Value::Bool(correct)),
                ("attempted".into(), Value::U64(sum("attempted"))),
                ("failed".into(), Value::U64(sum("failed"))),
                ("end_to_end".into(), Value::Map(end_to_end)),
                ("per_layer".into(), Value::Map(per_layer)),
            ]),
        ));
    }
    let result = Value::Map(vec![
        ("envelope".into(), envelope::envelope(args.seed)),
        ("quick".into(), Value::Bool(args.quick)),
        ("comparable".into(), Value::Bool(!args.quick)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("reps".into(), Value::U64(args.reps as u64)),
        ("workloads".into(), Value::Map(workloads)),
    ]);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| out_root().join("result.json"));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
    std::fs::write(&out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("result file: {}", out.display());
    warn_if_nproc_differs_from_baseline();
    Ok(all_correct)
}

fn warn_if_nproc_differs_from_baseline() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("baseline.json");
    let Some(baseline) = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| serde_json::from_str::<Value>(&t).ok())
    else {
        return;
    };
    let theirs = baseline["envelope"]["nproc"].as_u64();
    let ours = envelope::nproc() as u64;
    if theirs.is_some_and(|n| n != ours) {
        eprintln!(
            "warning: this host has nproc = {ours}, the committed baseline was measured with nproc = {theirs:?}: thread- and rank-bound numbers will not compare"
        );
    }
}

fn read_result(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            if args.get(1).map(String::as_str) == Some("--benchmark-json") {
                let text = serde_json::to_string_pretty(&catalog::benchmark_json())
                    .map_err(|e| e.to_string())?;
                println!("{text}");
            } else {
                print!("{}", catalog::render_list());
            }
            Ok(true)
        }
        Some("compare") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                return Err(USAGE.to_string());
            };
            let (table, ok) = compare::compare(&read_result(a)?, &read_result(b)?);
            print!("{table}");
            Ok(ok)
        }
        Some("run") => {
            envelope::guard_rails()?;
            let run = parse_run(&args[1..])?;
            match &run.workload {
                Some(name) => run_one(&run, name),
                None => run_suite(&run),
            }
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
