//! What one workload run produces, and how it is printed.

use crate::catalog::{self, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::collections::BTreeMap;

/// How one invocation was asked to run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload name.
    pub workload: &'static str,
    /// Seed for datagen, split, query stream and arrival schedule.
    pub seed: u64,
    /// Seconds to measure; work scales relative to [`catalog::RUN_SECONDS`].
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub traced: bool,
    /// Smoke sizes: every workload within ~2 s, numbers not comparable.
    pub quick: bool,
    /// Directory for swap files, checkpoints and traces.
    pub out_dir: std::path::PathBuf,
}

impl RunOpts {
    /// `--seconds` as a share of the full-size run.
    pub fn scale(&self) -> f64 {
        self.seconds / catalog::RUN_SECONDS as f64
    }

    /// Scales a count calibrated at full size (at least 1).
    pub fn scaled(&self, at_full_size: usize) -> usize {
        ((at_full_size as f64 * self.scale()).round() as usize).max(1)
    }

    /// Set-ups per run, so that `setup_s` is a median: `full` of them in
    /// the end-to-end pass, one in the traced and quick passes, which do
    /// not report it.
    pub fn setups(&self, full: usize) -> usize {
        if self.traced || self.quick {
            1
        } else {
            full
        }
    }
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by catalogue name (end-to-end in the untraced pass,
    /// per-layer in the traced pass).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted (edges to train, queries to rank, requests).
    pub attempted: u64,
    /// Operations that failed, failed checks included.
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// The workload's full configuration.
    pub config: Vec<(String, Value)>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a check; a failed check counts as one failed operation.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check { name, ok, detail });
    }

    /// Records one configuration entry.
    pub fn config(&mut self, key: &str, value: Value) {
        self.config.push((key.to_string(), value));
    }

    /// Whether every correctness check held. A request over its latency
    /// limit counts in `failed` but is a performance failure, not a wrong
    /// output: it shows in `failed`, `quality` and `serve.over_limit`.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// The metrics an invocation must print: every end-to-end metric in the
/// untraced pass, every per-layer metric in the traced pass.
pub fn expected_metrics(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The one-line JSON result: `correct`, `attempted`, `failed`, `metrics`.
/// A per-layer metric the workload never touched reads 0; a missing
/// end-to-end metric is a bug in the workload and fails the run.
pub fn result_line(opts: &RunOpts, outcome: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in expected_metrics(opts.traced) {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if opts.traced => 0.0,
            None => return Err(format!("workload did not report end-to-end metric {name}")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        metrics.push((
            name.to_string(),
            Value::Map(vec![
                ("value".to_string(), Value::F64(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ]),
        ));
    }
    let line = Value::Map(vec![
        ("correct".to_string(), Value::Bool(outcome.correct())),
        (
            "attempted".to_string(),
            Value::U64(outcome.attempted.max(1)),
        ),
        ("failed".to_string(), Value::U64(outcome.failed)),
        ("metrics".to_string(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

/// The human-readable report: every metric by name with its unit, the
/// checks, and the notes.
pub fn render(opts: &RunOpts, outcome: &Outcome) -> String {
    let mut out = format!(
        "== {} seed={} seconds={} pass={}{}\n",
        opts.workload,
        opts.seed,
        opts.seconds,
        if opts.traced { "traced" } else { "end-to-end" },
        if opts.quick {
            " QUICK (smoke sizes: numbers are not comparable)"
        } else {
            ""
        }
    );
    for (name, unit) in expected_metrics(opts.traced) {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let meaning = catalog::end_to_end(name).map_or(String::new(), |m| {
            let text = if catalog::is_serve(opts.workload) {
                m.on_serve
            } else {
                m.on_train
            };
            format!("  # {text}")
        });
        out.push_str(&format!("{name:<42} {value:>16.6} {unit:<6}{meaning}\n"));
    }
    out.push_str(&format!(
        "failed_share {} / {} = {:.6}\n",
        outcome.failed,
        outcome.attempted.max(1),
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    ));
    for c in &outcome.checks {
        out.push_str(&format!(
            "check {:<44} {} ({})\n",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        ));
    }
    for n in &outcome.notes {
        out.push_str(n);
        out.push('\n');
    }
    out
}
