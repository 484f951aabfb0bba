//! `benchmark noise` and `benchmark compare`: judge saved summaries
//! (the files `--out` writes) by the benchmark's own bounds.

use crate::spec::{self, Better};
use crate::stats::{median, quartiles};
use serde::JsonValue;
use std::collections::BTreeMap;

/// The untraced runs of one side: workload -> metric -> one value per
/// summary file, plus what must repeat exactly on one seed.
#[derive(Default)]
struct Side {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload -> `(seed, what must repeat)` per file.
    exact: BTreeMap<String, Vec<(u64, String)>>,
}

fn number(v: Option<&JsonValue>) -> Option<f64> {
    match v {
        Some(JsonValue::Number(n)) => Some(*n),
        _ => None,
    }
}

fn text(v: Option<&JsonValue>) -> String {
    match v {
        Some(JsonValue::String(s)) => s.clone(),
        _ => String::new(),
    }
}

fn load(files: &[String]) -> Result<Side, String> {
    let mut side = Side::default();
    for file in files {
        let body = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let summary = serde_json::parse(body.trim()).map_err(|e| format!("{file}: {e}"))?;
        let Some(JsonValue::Array(runs)) = summary.get("runs") else {
            return Err(format!("{file}: no \"runs\" array"));
        };
        for run in runs {
            let (Some(detail), Some(result)) = (run.get("detail"), run.get("result")) else {
                return Err(format!("{file}: a run without detail or result"));
            };
            if number(detail.get("trace")) != Some(0.0) {
                continue;
            }
            let workload = text(detail.get("workload"));
            let Some(JsonValue::Object(metrics)) = result.get("metrics") else {
                return Err(format!("{file}: {workload} has no metrics"));
            };
            let per_metric = side.values.entry(workload.clone()).or_default();
            for (name, m) in metrics {
                let value = number(m.get("value"))
                    .ok_or_else(|| format!("{file}: {workload}.{name} has no value"))?;
                per_metric.entry(name.clone()).or_default().push(value);
            }
            let seed = number(detail.get("seed")).unwrap_or(0.0) as u64;
            side.exact.entry(workload).or_default().push((
                seed,
                format!(
                    "ops_per_rep {} failed {} yield_share {} input {} decisions {}",
                    number(detail.get("ops_per_rep")).unwrap_or(-1.0),
                    number(result.get("failed")).unwrap_or(-1.0),
                    number(metrics_value(metrics, "yield_share")).unwrap_or(-1.0),
                    text(detail.get("input_digest")),
                    text(detail.get("decision_digest")),
                ),
            ));
        }
    }
    Ok(side)
}

fn metrics_value<'a>(metrics: &'a [(String, JsonValue)], name: &str) -> Option<&'a JsonValue> {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, m)| m.get("value"))
}

/// Split `a… -- b…` (or exactly two files) into the two sides.
fn sides(args: &[String]) -> Result<(Side, Side), String> {
    let (a, b) = match args.iter().position(|s| s == "--") {
        Some(i) => (&args[..i], &args[i + 1..]),
        None if args.len() == 2 => (&args[..1], &args[1..]),
        None => return Err("usage: <set-A.json…> -- <set-B.json…>".to_string()),
    };
    if a.is_empty() || b.is_empty() {
        return Err("both sides need at least one summary".to_string());
    }
    Ok((load(a)?, load(b)?))
}

/// By how much `b` is worse than `a`, as a share of `a` (negative:
/// better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Interquartile range over the median; 0 with fewer than two runs.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Two sets of runs of one commit must agree within every bound, and
/// on one seed the deterministic outputs must repeat exactly. Exits 1
/// naming the first disagreement.
pub fn noise(args: &[String]) -> i32 {
    let (a, b) = match sides(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("benchmark noise: {e}");
            return 2;
        }
    };
    println!("workload metric median_A median_B drift bound spread_A spread_B");
    let mut first_disagreement = None;
    for (workload, metrics) in &a.values {
        for m in &spec::END_TO_END {
            let (Some(va), Some(vb)) = (
                metrics.get(m.name),
                b.values.get(workload).and_then(|w| w.get(m.name)),
            ) else {
                eprintln!(
                    "benchmark noise: {workload}.{} is missing from a side",
                    m.name
                );
                return 2;
            };
            let (ma, mb) = (median(va), median(vb));
            let drift = worse_by(m.better, ma, mb).abs();
            println!(
                "{workload} {} {ma} {mb} {drift:.4} {} {:.4} {:.4}",
                m.name,
                m.bound,
                spread(va),
                spread(vb)
            );
            if drift > m.bound && first_disagreement.is_none() {
                first_disagreement = Some(format!(
                    "{workload}.{}: medians {ma} and {mb} differ by {drift:.4} > bound {}",
                    m.name, m.bound
                ));
            }
        }
        let mut by_seed: BTreeMap<u64, &String> = BTreeMap::new();
        for (seed, what) in a.exact[workload]
            .iter()
            .chain(b.exact.get(workload).into_iter().flatten())
        {
            let first = by_seed.entry(*seed).or_insert(what);
            if *first != what && first_disagreement.is_none() {
                first_disagreement = Some(format!(
                    "{workload} seed {seed}: deterministic outputs differ: [{first}] vs [{what}]"
                ));
            }
        }
    }
    match first_disagreement {
        Some(d) => {
            println!("DISAGREE {d}");
            1
        }
        None => {
            println!("the two sets agree within every bound");
            0
        }
    }
}

/// One row per (workload, end-to-end metric): the change's median
/// against the parent's. Exits 1 if any row regressed.
pub fn compare(args: &[String]) -> i32 {
    let (parent, change) = match sides(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            return 2;
        }
    };
    println!("workload metric parent change change_vs_parent bound spread verdict");
    let mut regressed = false;
    for (workload, metrics) in &parent.values {
        for m in &spec::END_TO_END {
            let (Some(vp), Some(vc)) = (
                metrics.get(m.name),
                change.values.get(workload).and_then(|w| w.get(m.name)),
            ) else {
                eprintln!(
                    "benchmark compare: {workload}.{} is missing from a side",
                    m.name
                );
                return 2;
            };
            let (mp, mc) = (median(vp), median(vc));
            let worse = worse_by(m.better, mp, mc);
            let wide = spread(vp).max(spread(vc));
            // Worse by more than the bound is a regression; a gain has
            // to clear the runs' own spread as well. A spread wider
            // than the bound resolves neither.
            let verdict = if wide > m.bound {
                "unresolved"
            } else if worse > m.bound {
                regressed = true;
                "regressed"
            } else if -worse > m.bound.max(wide) {
                "improved"
            } else {
                "unchanged"
            };
            println!(
                "{workload} {} {mp} {mc} {:+.4} {} {wide:.4} {verdict}",
                m.name, -worse, m.bound
            );
        }
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(dir: &std::path::Path, name: &str, work_per_s: f64, digest: &str) -> String {
        let metrics: Vec<String> = spec::END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "work_per_s" {
                    work_per_s
                } else {
                    1.0
                };
                format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
            })
            .collect();
        let body = format!(
            "{{\"runs\":[{{\"detail\":{{\"workload\":\"admit_warm\",\"seed\":1,\"trace\":0,\"ops_per_rep\":10,\"input_digest\":\"ab\",\"decision_digest\":\"{digest}\"}},\"result\":{{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{{{}}}}}}}],\"claim\":null}}",
            metrics.join(",")
        );
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn noise_and_compare_apply_the_bounds() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/report-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = summary(&dir, "a.json", 1000.0, "cd");
        let near = summary(&dir, "b.json", 1050.0, "cd");
        let far = summary(&dir, "c.json", 700.0, "cd");
        let other = summary(&dir, "d.json", 1000.0, "ef");
        let sep = "--".to_string();
        assert_eq!(noise(&[base.clone(), sep.clone(), near.clone()]), 0);
        assert_eq!(
            noise(&[base.clone(), sep.clone(), far.clone()]),
            1,
            "30% off"
        );
        assert_eq!(noise(&[base.clone(), sep, other]), 1, "digest must repeat");
        assert_eq!(compare(&[base.clone(), near]), 0);
        assert_eq!(
            compare(&[base.clone(), far]),
            1,
            "work_per_s is higher-better"
        );
        assert_eq!(compare(&[base]), 2, "usage");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
