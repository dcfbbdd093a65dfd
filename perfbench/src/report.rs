//! Metric definitions, the result line, calibration-set files, and the
//! `compare` verdicts between two sets.

use std::fmt::Write as _;
use std::path::Path;

use coop_telemetry::json::{self, write_escaped, Json};

use crate::stats::{median, quartiles, spread};

/// The end-to-end metrics, with units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("peer_rounds_per_s", "1/s"),
    ("cells_per_hour", "1/h"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_escaped(&mut out, name);
        // `{}` prints the shortest string that round-trips: every digit.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, ": {{\"value\": {value}, \"unit\": ");
        write_escaped(&mut out, unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// Prints one row per metric: median, quartiles and sample count.
pub fn print_table(title: &str, rows: &[(String, &str, Vec<f64>)]) {
    println!("{title}");
    println!(
        "  {:<28} {:>16} {:>16} {:>16}  {:<6} {:>3}",
        "metric", "median", "q1", "q3", "unit", "n"
    );
    for (name, unit, values) in rows {
        let (q1, q3) = quartiles(values);
        println!(
            "  {:<28} {:>16.6} {:>16.6} {:>16.6}  {:<6} {:>3}",
            name,
            median(values),
            q1,
            q3,
            unit,
            values.len()
        );
    }
}

/// The machine a set was measured on.
pub fn box_description() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (nproc, cpu)
}

/// One run's end-to-end result as a calibration set records it.
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// The run's seed.
    pub seed: u64,
    /// The run's `correct` flag.
    pub correct: bool,
    /// `(metric, value)` pairs.
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    /// Parses a run's result line.
    pub fn parse(workload: &str, seed: u64, line: &str) -> Option<RunResult> {
        let doc = json::parse(line).ok()?;
        let correct = matches!(doc.get("correct"), Some(Json::Bool(true)));
        let metrics = match doc.get("metrics")? {
            Json::Obj(fields) => fields
                .iter()
                .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(RunResult {
            workload: workload.to_string(),
            seed,
            correct,
            metrics,
        })
    }
}

/// Writes a calibration set: box metadata, the command, and every run's
/// end-to-end values grouped by workload and metric.
pub fn write_set(path: &Path, seconds: f64, runs: &[RunResult]) -> std::io::Result<()> {
    let (nproc, cpu) = box_description();
    let mut out = String::from("{\n  \"schema\": 1,\n  \"command\": ");
    write_escaped(
        &mut out,
        &format!(
            "bash perfbench/run.sh --workload <workload> --seed <seed> --seconds {seconds} --trace 0"
        ),
    );
    let _ = write!(out, ",\n  \"nproc\": {nproc},\n  \"cpu_model\": ");
    write_escaped(&mut out, &cpu);
    let _ = write!(out, ",\n  \"seconds\": {seconds},\n  \"workloads\": {{");
    let mut workloads: Vec<&str> = Vec::new();
    for r in runs {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    for (wi, w) in workloads.iter().enumerate() {
        let of_w: Vec<&RunResult> = runs.iter().filter(|r| r.workload == *w).collect();
        out.push_str(if wi > 0 { ",\n    " } else { "\n    " });
        write_escaped(&mut out, w);
        let seeds: Vec<String> = of_w.iter().map(|r| r.seed.to_string()).collect();
        let correct = of_w.iter().filter(|r| r.correct).count();
        let _ = write!(
            out,
            ": {{\n      \"seeds\": [{}],\n      \"correct_runs\": {correct},",
            seeds.join(", ")
        );
        for (mi, (name, _)) in END_TO_END.iter().enumerate() {
            let values: Vec<String> = of_w
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name))
                .map(|(_, v)| format!("{v}"))
                .collect();
            out.push_str(if mi > 0 { ",\n      " } else { "\n      " });
            write_escaped(&mut out, name);
            let _ = write!(out, ": [{}]", values.join(", "));
        }
        out.push_str("\n    }");
    }
    out.push_str("\n  }\n}\n");
    std::fs::write(path, out)
}

/// Reads a calibration set into `(workload, metric) → values`.
fn read_set(path: &Path) -> Result<Vec<(String, String, Vec<f64>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err(format!("{}: no 'workloads' object", path.display()));
    };
    let mut out = Vec::new();
    for (w, body) in workloads {
        for (name, _) in END_TO_END {
            if let Some(Json::Arr(items)) = body.get(name) {
                let values: Vec<f64> = items.iter().filter_map(Json::as_f64).collect();
                if !values.is_empty() {
                    out.push((w.clone(), name.to_string(), values));
                }
            }
        }
    }
    Ok(out)
}

/// `(metric, bound, better is lower)` from `BENCHMARK.json`.
fn read_bounds(path: &Path) -> Result<Vec<(String, f64, bool)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else {
        return Err(format!("{}: no 'end_to_end' list", path.display()));
    };
    metrics
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
                m.get("better")?.as_str()? == "lower",
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{}: malformed end_to_end entry", path.display()))
}

/// How set B compares with set A on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound, and both
    /// spreads are within it.
    Within,
    /// A spread exceeds the bound, so the sets cannot tell a change of
    /// that size from noise.
    Unresolved,
    /// B's median is worse than A's by more than the bound.
    Regressed,
}

/// The verdict for one metric. `change` is how much worse B's median is
/// than A's, as a share of A's; the spread rule does not apply to
/// `setup_s`, whose bound covers its medians only.
pub fn verdict(change: f64, spreads: (f64, f64), bound: f64, spread_applies: bool) -> Verdict {
    if spread_applies && spreads.0.max(spreads.1) > bound {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

/// `compare A.json B.json`: one row per workload and metric, with bounds
/// from `BENCHMARK.json` in the working directory. Returns whether no
/// metric regressed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let bounds = read_bounds(Path::new("BENCHMARK.json"))?;
    let (set_a, set_b) = (read_set(a)?, read_set(b)?);
    println!(
        "{:<18} {:<18} {:>14} {:>25} {:>14} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change", "bound"
    );
    let mut ok = true;
    for (w, metric, va) in &set_a {
        let Some((_, _, vb)) = set_b.iter().find(|(w2, m2, _)| w2 == w && m2 == metric) else {
            continue;
        };
        let Some((_, bound, lower_better)) = bounds.iter().find(|(n, _, _)| n == metric) else {
            continue;
        };
        let (ma, mb) = (median(va), median(vb));
        let change = if *lower_better {
            (mb - ma) / ma
        } else {
            (ma - mb) / ma
        };
        let v = verdict(
            change,
            (spread(va), spread(vb)),
            *bound,
            metric != "setup_s",
        );
        ok &= v != Verdict::Regressed;
        let quart = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            format!("[{q1:.4}, {q3:.4}]")
        };
        println!(
            "{w:<18} {metric:<18} {ma:>14.4} {:>25} {mb:>14.4} {:>25} {:>+7.2}% {:>5.0}%  {v:?}",
            quart(va),
            quart(vb),
            change * 100.0,
            bound * 100.0
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        assert_eq!(verdict(0.02, (0.01, 0.02), 0.1, true), Verdict::Within);
        assert_eq!(verdict(0.2, (0.01, 0.02), 0.1, true), Verdict::Regressed);
        assert_eq!(verdict(0.0, (0.3, 0.02), 0.1, true), Verdict::Unresolved);
        assert_eq!(verdict(0.0, (0.3, 0.02), 0.1, false), Verdict::Within);
    }

    #[test]
    fn result_line_round_trips() {
        let line = result_line(true, 3, 0, &[("cpu_s".to_string(), "s", 1.25)]);
        let r = RunResult::parse("w", 1, &line).expect("parses");
        assert!(r.correct);
        assert_eq!(r.metrics, vec![("cpu_s".to_string(), 1.25)]);
    }
}
