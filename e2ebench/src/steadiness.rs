//! `--steadiness N`: runs each workload N times back to back, each run in a
//! process of its own (so `peak_rss_mb` stays per run) with its own seed,
//! and prints per metric the median, quartiles, min/max and the spread —
//! the distance between the quartiles as a share of the median — against
//! the metric's bound in `BENCHMARK.json`.  This is where the bounds come
//! from: a bound must sit well above the spread measured here.

use std::process::{Command, Stdio};

use ehw_server::json::{self, Value};

use crate::run::format_value;
use crate::stats;
use crate::workload::WORKLOADS;

/// A spread under this share of its bound counts as steady.
const STEADY_SHARE: f64 = 1.0 / 3.0;

/// Metric name → bound, from the `end_to_end` list of `BENCHMARK.json` in
/// the working directory (empty when the file is absent).
fn bounds() -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    let Ok(doc) = json::parse(&text) else {
        return Vec::new();
    };
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|metric| {
            let name = metric.get("name")?.as_str()?.to_string();
            Some((name, metric.get("bound")?.as_f64()?))
        })
        .collect()
}

pub fn report(
    only: Option<&str>,
    runs: usize,
    first_seed: u64,
    seconds: f64,
) -> Result<(), String> {
    let bounds = bounds();
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let workloads: Vec<_> = WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|name| name == w.name))
        .collect();
    if workloads.is_empty() {
        return Err(format!("unknown workload '{}'", only.unwrap_or_default()));
    }
    for w in workloads {
        let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
        for run in 0..runs {
            let seed = first_seed + run as u64;
            let output = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            if !output.status.success() {
                return Err(format!(
                    "{} seed {seed} exited with {}",
                    w.name, output.status
                ));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let doc = json::parse(last)
                .map_err(|e| format!("{} seed {seed}: bad result line: {e}", w.name))?;
            if doc.get("correct").and_then(Value::as_bool) != Some(true) {
                println!("# {} seed {seed}: the run reported correct=false", w.name);
            }
            let Some(Value::Object(metrics)) = doc.get("metrics") else {
                return Err(format!(
                    "{} seed {seed}: result line has no metrics",
                    w.name
                ));
            };
            for (name, metric) in metrics {
                let value = metric
                    .get("value")
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = metric
                    .get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                match series.iter_mut().find(|(known, _, _)| known == name) {
                    Some((_, _, values)) => values.push(value),
                    None => series.push((name.clone(), unit, vec![value])),
                }
            }
            eprintln!(
                "steadiness: {} run {}/{runs} (seed {seed}) done",
                w.name,
                run + 1
            );
        }
        println!(
            "# {}: {runs} runs, seeds {first_seed}..={}, --seconds {seconds}",
            w.name,
            first_seed + runs as u64 - 1
        );
        println!(
            "  {:<16} {:<6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
            "metric", "unit", "median", "q1", "q3", "min", "max", "spread", "bound"
        );
        for (name, unit, values) in &series {
            let [q1, _, q3] = stats::quartiles(values);
            let median = stats::median(values);
            let spread = (q3 - q1) / median.abs();
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let bound = bounds
                .iter()
                .find(|(known, _)| known == name)
                .map(|&(_, b)| b);
            let verdict = match bound {
                None => "no bound",
                // The set-up spread is not gated; only its median is.
                Some(_) if name == "setup_s" => "median gated only",
                Some(bound) if spread > bound => "EXCEEDS BOUND",
                Some(bound) if spread > bound * STEADY_SHARE => "above bound/3",
                Some(_) => "steady",
            };
            println!(
                "  {name:<16} {unit:<6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>7.2}% {:>6}  {verdict}",
                format_value(median),
                format_value(q1),
                format_value(q3),
                format_value(min),
                format_value(max),
                spread * 100.0,
                bound.map_or_else(|| "-".to_string(), |b| format!("{b}")),
            );
        }
    }
    Ok(())
}
