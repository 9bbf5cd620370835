//! Steadiness mode: two sets of untraced runs of one build, compared
//! against the bounds in `BENCHMARK.json`.
//!
//! For each workload and end-to-end metric it prints, per set, the
//! median and quartiles of the runs (each run with its own seed) and the
//! spread (interquartile distance over the median); a metric agrees when
//! each set's spread is within its bound (`setup_s` is exempt) and the
//! second median is not worse than the first by more than the bound.
//! The share of failed operations must be exactly the same in every run.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use pif_daemon::json::{self, Json};

use crate::stats::{median, quartiles};
use crate::Error;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn number(j: &Json) -> Option<f64> {
    match j {
        Json::Num(s) => s.parse().ok(),
        _ => None,
    }
}

fn bounds() -> Result<Vec<Bound>, Error> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    metrics
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(number)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// One run's result line: (attempted, failed, metric values by name).
type RunResult = (u64, u64, Vec<(String, f64)>);

fn one_run(workload: &str, seed: u64, seconds: f64) -> Result<RunResult, Error> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("no result line")?;
    let doc = json::parse(last).map_err(|e| format!("result line: {e:?}"))?;
    let attempted = doc
        .get("attempted")
        .and_then(Json::as_u64)
        .ok_or("no attempted")?;
    let failed = doc
        .get("failed")
        .and_then(Json::as_u64)
        .ok_or("no failed")?;
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("no metrics".into());
    };
    let values = metrics
        .iter()
        .map(|(k, v)| {
            Ok((
                k.clone(),
                v.get("value")
                    .and_then(number)
                    .ok_or("metric without value")?,
            ))
        })
        .collect::<Result<_, Error>>()?;
    Ok((attempted, failed, values))
}

pub fn run(workloads: &[String], runs: usize, seconds: f64) -> ExitCode {
    match compare(workloads, runs.max(2), seconds) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pifbench: steadiness: {e}");
            ExitCode::from(2)
        }
    }
}

fn compare(workloads: &[String], runs: usize, seconds: f64) -> Result<bool, Error> {
    let bounds = bounds()?;
    let mut all_ok = true;
    for workload in workloads {
        let mut sets: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
        for (s, set) in sets.iter_mut().enumerate() {
            for i in 0..runs {
                let seed = 1 + (s * runs + i) as u64;
                eprintln!("pifbench: steadiness: {workload} set {} seed {seed}", s + 1);
                set.push(one_run(workload, seed, seconds)?);
            }
        }
        println!("{workload}");
        let (a0, f0, _) = &sets[0][0];
        let shares_equal = sets
            .iter()
            .flatten()
            .all(|(a, f, _)| u128::from(*f) * u128::from(*a0) == u128::from(*f0) * u128::from(*a));
        println!("  failed share {f0}/{a0} in every run: {shares_equal}");
        all_ok &= shares_equal;
        for b in &bounds {
            let mut row = format!("  {:<22}", b.name);
            let mut medians = [0.0; 2];
            let mut ok = true;
            for (s, set) in sets.iter().enumerate() {
                let values: Vec<f64> = set
                    .iter()
                    .map(|(_, _, m)| {
                        m.iter()
                            .find(|(k, _)| *k == b.name)
                            .map(|(_, v)| *v)
                            .ok_or_else(|| format!("{workload}: no {}", b.name))
                    })
                    .collect::<Result<_, Error>>()?;
                let med = median(&values);
                let (q1, q3) = quartiles(&values);
                let spread = if med == 0.0 {
                    0.0
                } else {
                    (q3 - q1) / med.abs()
                };
                if b.name != "setup_s" && spread > b.bound {
                    ok = false;
                }
                medians[s] = med;
                row.push_str(&format!(
                    " | set{} median {med:.6} q1 {q1:.6} q3 {q3:.6} spread {spread:.4}",
                    s + 1
                ));
            }
            let worse = if b.lower_is_better {
                medians[1] - medians[0]
            } else {
                medians[0] - medians[1]
            };
            let drift = if medians[0] == 0.0 {
                0.0
            } else {
                worse / medians[0].abs()
            };
            if drift > b.bound {
                ok = false;
            }
            row.push_str(&format!(
                " | worse by {drift:.4} | bound {} | agree {ok}",
                b.bound
            ));
            println!("{row}");
            all_ok &= ok;
        }
    }
    println!("{{\"steady\": {all_ok}}}");
    Ok(all_ok)
}
