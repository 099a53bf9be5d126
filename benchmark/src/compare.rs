//! `compare a.json b.json`: the noise-aware diff of two `results.json`.
//!
//! For every (workload, end-to-end metric) the medians of the two files are
//! compared against the metric's bound, in its direction. Where either
//! file's own run-to-run spread (interquartile distance over median of its
//! same-seed repeats) is wider than the bound, or a file has too few runs
//! to have a spread, the pair is `unresolved`, not `same`. A pair a file
//! lacks altogether is an error: a workload that crashed must not pass.

use std::collections::BTreeMap;

use crate::catalog::{Better, MetricDef, BOUND_BASIS, BOUND_CAP, END_TO_END, WORKLOADS};
use crate::json::{parse, Json};
use crate::stats::{median_of, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Values of one results file: `(workload, metric) → one value per run`,
/// and `workload → (attempted, failed)` summed over its untraced runs.
#[derive(Debug, Default)]
pub struct ResultSet {
    pub values: BTreeMap<(String, String), Vec<f64>>,
    pub ops: BTreeMap<String, (f64, f64)>,
}

impl ResultSet {
    pub fn failed_ratio(&self, workload: &str) -> f64 {
        self.ops.get(workload).map_or(0.0, |&(attempted, failed)| failed / attempted.max(1.0))
    }
}

/// Reads the untraced runs of a `results.json` document.
pub fn load(text: &str) -> Result<ResultSet, String> {
    let doc = parse(text)?;
    let runs = doc.get("runs").and_then(Json::as_array).ok_or("no \"runs\" array")?;
    let mut set = ResultSet::default();
    for run in runs {
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run.get("workload").and_then(Json::as_str).ok_or("run without workload")?;
        let num = |key: &str| run.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let ops = set.ops.entry(workload.to_string()).or_default();
        *ops = (ops.0 + num("attempted"), ops.1 + num("failed"));
        let metrics = run.get("metrics").and_then(Json::as_object).ok_or("run without metrics")?;
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).ok_or("metric without value")?;
            set.values.entry((workload.to_string(), name.clone())).or_default().push(value);
        }
    }
    Ok(set)
}

/// Judges `b` against baseline `a` for one metric.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.expect("only end-to-end metrics are judged");
    // One run has no spread, so nothing says whether it is typical.
    if a.len() < 2 || b.len() < 2 || spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median_of(a.to_vec()), median_of(b.to_vec()));
    // Positive when `b` is worse, as a share of the baseline.
    let worse_by = match def.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Prints the table; `Err` when anything is worse or fails more often.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Result<(), String> {
    let mut problems = Vec::new();
    for (def, (_, issue, spread)) in END_TO_END.iter().zip(BOUND_BASIS) {
        println!(
            "{} may worsen by {:.0} %: the issue's {:.0} %, or 1.5 x the {:.1} % spread seen on \
             the reference box, at most {:.0} %",
            def.name,
            def.bound.expect("end-to-end metrics are bounded") * 100.0,
            issue * 100.0,
            spread * 100.0,
            BOUND_CAP * 100.0
        );
    }
    println!(
        "{:<24} {:<14} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "change", "a iqr", "b iqr"
    );
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let key = (workload.to_string(), def.name.to_string());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                problems.push(format!("{workload} {} is missing from a file", def.name));
                continue;
            };
            let verdict = judge(def, va, vb);
            let (ma, mb) = (median_of(va.clone()), median_of(vb.clone()));
            println!(
                "{:<24} {:<14} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {}",
                workload,
                def.name,
                ma,
                mb,
                (mb - ma) / ma.abs() * 100.0,
                spread(va) * 100.0,
                spread(vb) * 100.0,
                format!("{verdict:?}").to_lowercase()
            );
            if verdict == Verdict::Worse {
                problems.push(format!("{workload} {} is worse", def.name));
            }
        }
        let (fa, fb) = (a.failed_ratio(workload), b.failed_ratio(workload));
        if fb > fa {
            problems.push(format!("{workload} failed ratio rose from {fa} to {fb}"));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let def = |better| MetricDef { name: "m", unit: "ms", better, bound: Some(0.10) };
        let lower = &def(Better::Lower);
        let base = [10.0, 10.1, 10.2];
        assert_eq!(judge(lower, &base, &[10.5, 10.6, 10.7]), Verdict::Same);
        assert_eq!(judge(lower, &base, &[11.5, 11.6, 11.7]), Verdict::Worse);
        assert_eq!(judge(lower, &base, &[8.0, 8.1, 8.2]), Verdict::Better);
        let higher = &def(Better::Higher);
        assert_eq!(judge(higher, &[100.0, 101.0], &[85.0, 86.0]), Verdict::Worse);
        assert_eq!(judge(higher, &[100.0, 101.0], &[120.0, 121.0]), Verdict::Better);
        // A single run has no spread to judge it by.
        assert_eq!(judge(lower, &[10.0], &[11.5, 11.6]), Verdict::Unresolved);
        assert_eq!(judge(lower, &base, &[10.0]), Verdict::Unresolved);
        // Runs that disagree with each other by more than the bound cannot
        // resolve a difference of the bound's size.
        let noisy = [8.0, 9.0, 10.0, 11.0, 12.0, 13.0];
        assert_eq!(judge(lower, &noisy, &[10.0, 10.1, 10.2]), Verdict::Unresolved);
    }

    #[test]
    fn load_reads_untraced_runs_only() {
        let text = r#"{"runs": [
            {"workload": "couple_uds_fine", "seed": 1, "trace": 0, "attempted": 10, "failed": 1,
             "metrics": {"op_ms_p50": {"value": 2.5, "unit": "ms"}}},
            {"workload": "couple_uds_fine", "seed": 2, "trace": 0, "attempted": 10, "failed": 0,
             "metrics": {"op_ms_p50": {"value": 3.5, "unit": "ms"}}},
            {"workload": "couple_uds_fine", "seed": 1, "trace": 1, "attempted": 5, "failed": 0,
             "metrics": {"bench.op_span_ns": {"value": 9, "unit": "ns"}}}]}"#;
        let set = load(text).unwrap();
        let key = ("couple_uds_fine".to_string(), "op_ms_p50".to_string());
        assert_eq!(set.values[&key], vec![2.5, 3.5]);
        assert_eq!(set.values.len(), 1);
        assert_eq!(set.failed_ratio("couple_uds_fine"), 0.05);
    }

    /// Two untraced runs of every catalog workload, except `skip`.
    fn full_set(failed: u64, skip: Option<&str>) -> ResultSet {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| format!(r#""{}": {{"value": 1.5, "unit": "{}"}}"#, m.name, m.unit))
            .collect();
        let runs: Vec<String> = WORKLOADS
            .iter()
            .filter(|(w, _)| Some(*w) != skip)
            .flat_map(|(w, _)| {
                let run = format!(
                    r#"{{"workload": "{w}", "trace": 0, "attempted": 10, "failed": {failed}, "metrics": {{{}}}}}"#,
                    metrics.join(", ")
                );
                [run.clone(), run]
            })
            .collect();
        load(&format!(r#"{{"runs": [{}]}}"#, runs.join(", "))).unwrap()
    }

    #[test]
    fn compare_fails_on_more_failures_and_on_missing_workloads() {
        let clean = full_set(0, None);
        assert!(compare(&clean, &full_set(0, None)).is_ok());
        assert!(compare(&full_set(1, None), &clean).is_ok());
        assert!(compare(&clean, &full_set(1, None)).unwrap_err().contains("failed ratio rose"));
        // A results file whose run of a workload crashed must not pass.
        let lacking = full_set(0, Some("couple_uds_bulk"));
        assert!(compare(&clean, &lacking)
            .unwrap_err()
            .contains("couple_uds_bulk setup_s is missing"));
        assert!(compare(&lacking, &clean).is_err());
    }
}
