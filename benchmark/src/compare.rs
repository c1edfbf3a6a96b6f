//! Result files of whole-suite runs, and `compare A.json B.json`: one row
//! per (metric, workload) with both medians, quartiles, the ratio with
//! its base, and a verdict against the metric's bound.

use crate::catalog::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use serde_json::Value;

/// Median, quartiles and spread of one metric over the repetitions.
pub fn summarize(unit: &str, values: &[f64]) -> Value {
    let (q1, q3) = quartiles(values);
    Value::Map(vec![
        ("unit".into(), Value::Str(unit.to_string())),
        ("median".into(), Value::F64(median(values))),
        ("q1".into(), Value::F64(q1)),
        ("q3".into(), Value::F64(q3)),
        ("spread".into(), Value::F64(spread(values))),
        ("n".into(), Value::U64(values.len() as u64)),
        (
            "values".into(),
            Value::Seq(values.iter().map(|v| Value::F64(*v)).collect()),
        ),
    ])
}

/// How one (metric, workload) pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The run-to-run spread of A or B is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one metric given both sides' medians and spreads.
pub fn verdict(
    metric: &EndToEnd,
    a_median: f64,
    a_spread: f64,
    b_median: f64,
    b_spread: f64,
) -> Verdict {
    if a_spread > metric.bound || b_spread > metric.bound {
        return Verdict::Unresolved;
    }
    let worse_by = match metric.better {
        Better::Higher => (a_median - b_median) / a_median.abs(),
        Better::Lower => (b_median - a_median) / a_median.abs(),
    };
    if worse_by > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn num(v: &Value, key: &str) -> f64 {
    v[key].as_f64().unwrap_or(0.0)
}

/// Renders the comparison table and reports whether every row is `ok`.
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = true;
    let (na, nb) = (&a["envelope"]["nproc"], &b["envelope"]["nproc"]);
    if na != nb {
        out.push_str(&format!(
            "warning: nproc differs (A: {:?}, B: {:?}); thread- and rank-bound numbers do not compare\n",
            na.as_u64(),
            nb.as_u64()
        ));
    }
    if a["quick"].as_bool() == Some(true) || b["quick"].as_bool() == Some(true) {
        out.push_str("warning: a --quick result is not comparable\n");
    }
    out.push_str(&format!(
        "{:<24} {:<24} {:>14} {:>26} {:>14} {:>26} {:>16} {:>6}  {}\n",
        "workload",
        "metric",
        "A median",
        "A [q1, q3]",
        "B median",
        "B [q1, q3]",
        "B/A (base A)",
        "bound",
        "verdict"
    ));
    for w in &WORKLOADS {
        let (wa, wb) = (&a["workloads"][w.name], &b["workloads"][w.name]);
        if wa.is_null() || wb.is_null() {
            continue;
        }
        for m in &END_TO_END {
            let (ma, mb) = (&wa["end_to_end"][m.name], &wb["end_to_end"][m.name]);
            if ma.is_null() || mb.is_null() {
                continue;
            }
            let v = verdict(
                m,
                num(ma, "median"),
                num(ma, "spread"),
                num(mb, "median"),
                num(mb, "spread"),
            );
            all_ok &= v == Verdict::Ok;
            out.push_str(&format!(
                "{:<24} {:<24} {:>14.5} {:>26} {:>14.5} {:>26} {:>16} {:>6.2}  {}\n",
                w.name,
                m.name,
                num(ma, "median"),
                format!("[{:.5}, {:.5}]", num(ma, "q1"), num(ma, "q3")),
                num(mb, "median"),
                format!("[{:.5}, {:.5}]", num(mb, "q1"), num(mb, "q3")),
                format!(
                    "{:.4} of {:.5}",
                    num(mb, "median") / num(ma, "median"),
                    num(ma, "median")
                ),
                m.bound,
                v.as_str()
            ));
        }
        let share = |w: &Value| num(w, "failed") / num(w, "attempted").max(1.0);
        let ok = share(wb) <= share(wa)
            && wa["correct"].as_bool() == Some(true)
            && wb["correct"].as_bool() == Some(true);
        all_ok &= ok;
        out.push_str(&format!(
            "{:<24} {:<24} {:>14.6} {:>26} {:>14.6} {:>26} {:>16} {:>6}  {}\n",
            w.name,
            "failed_share",
            share(wa),
            format!("{} of {}", num(wa, "failed"), num(wa, "attempted")),
            share(wb),
            format!("{} of {}", num(wb, "failed"), num(wb, "attempted")),
            "-",
            "0",
            if ok { "ok" } else { "regressed" }
        ));
    }
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "1/s",
            better,
            bound: 0.10,
            on_train: "",
            on_serve: "",
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let higher = &metric(Better::Higher);
        assert_eq!(verdict(higher, 100.0, 0.02, 95.0, 0.02), Verdict::Ok);
        assert_eq!(verdict(higher, 100.0, 0.02, 120.0, 0.02), Verdict::Ok);
        assert_eq!(verdict(higher, 100.0, 0.02, 85.0, 0.02), Verdict::Regressed);
        assert_eq!(
            verdict(higher, 100.0, 0.12, 85.0, 0.02),
            Verdict::Unresolved
        );
        let lower = &metric(Better::Lower);
        assert_eq!(verdict(lower, 10.0, 0.01, 10.9, 0.01), Verdict::Ok);
        assert_eq!(verdict(lower, 10.0, 0.01, 11.5, 0.01), Verdict::Regressed);
        assert_eq!(verdict(lower, 10.0, 0.01, 5.0, 0.2), Verdict::Unresolved);
    }

    #[test]
    fn compare_renders_one_row_per_metric_and_flags_regressions() {
        let side = |throughput: f64| {
            let metrics: Vec<(String, Value)> = END_TO_END
                .iter()
                .map(|m| {
                    let v = if m.name == "throughput_per_s" {
                        throughput
                    } else {
                        1.0
                    };
                    (m.name.to_string(), summarize(m.unit, &[v, v, v]))
                })
                .collect();
            Value::Map(vec![
                (
                    "envelope".into(),
                    Value::Map(vec![("nproc".into(), Value::U64(2))]),
                ),
                (
                    "workloads".into(),
                    Value::Map(vec![(
                        "serve_score".into(),
                        Value::Map(vec![
                            ("end_to_end".into(), Value::Map(metrics)),
                            ("correct".into(), Value::Bool(true)),
                            ("failed".into(), Value::U64(0)),
                            ("attempted".into(), Value::U64(10)),
                        ]),
                    )]),
                ),
            ])
        };
        let (table, ok) = compare(&side(100.0), &side(99.0));
        assert!(ok, "{table}");
        assert_eq!(table.lines().count(), 1 + END_TO_END.len() + 1);
        let (table, ok) = compare(&side(100.0), &side(70.0));
        assert!(!ok);
        assert!(table.contains("regressed"));
    }
}
