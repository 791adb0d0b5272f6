//! Steadiness mode: runs one workload `k` times, each with its own seed
//! (`seed`, `seed + 1`, ...), and prints every metric's median and
//! quartiles with its spread — the distance between the quartiles as a
//! share of the median — next to the metric's bound in `BENCHMARK.json`.

use crate::stats::quartiles;
use autopilot_obs::json::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// The `bound` of every end-to-end metric in `BENCHMARK.json`, when the
/// file is in the working directory.
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else { return BTreeMap::new() };
    let Ok(doc) = Value::parse(&text) else { return BTreeMap::new() };
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_owned(), m.get("bound")?.as_f64()?)))
        .collect()
}

/// Runs one child and returns its metrics line's `(name, value)` pairs.
fn one_run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = Value::parse(last).map_err(|e| format!("seed {seed}: no result line ({e})"))?;
    if doc.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("seed {seed}: run reported incorrect output: {last}"));
    }
    let metrics = doc.get("metrics").and_then(Value::as_obj).ok_or("no metrics")?;
    Ok(metrics.iter().filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?))).collect())
}

pub fn run(workload: &str, seed: u64, seconds: u64, trace: bool, k: usize) -> ExitCode {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for i in 0..k as u64 {
        match one_run(workload, seed + i, seconds, trace) {
            Ok(metrics) => {
                let row: Vec<String> = metrics.iter().map(|(n, v)| format!("{n}={v:.6}")).collect();
                println!("run {}/{k} seed {}: {}", i + 1, seed + i, row.join(" "));
                for (name, v) in metrics {
                    values.entry(name).or_default().push(v);
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let bounds = bounds();
    println!(
        "steadiness: {workload}, {k} runs, seeds {seed}..={}, {seconds} s each",
        seed + k as u64 - 1
    );
    println!(
        "{:<36} {:>14} {:>14} {:>14} {:>9} {:>7} {:>10}",
        "metric", "q1", "median", "q3", "spread", "bound", "spread/bd"
    );
    for (name, v) in &values {
        let Some([q1, med, q3]) = quartiles(v) else { continue };
        let spread = (q3 - q1) / med.abs();
        let (bound, ratio) = match bounds.get(name) {
            Some(&b) => (format!("{b:.3}"), format!("{:.2}", spread / b)),
            None => ("-".into(), "-".into()),
        };
        println!(
            "{name:<36} {q1:>14.6} {med:>14.6} {q3:>14.6} {spread:>9.4} {bound:>7} {ratio:>10}"
        );
    }
    ExitCode::SUCCESS
}
