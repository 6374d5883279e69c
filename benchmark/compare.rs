//! `benchmark compare <parent outputs...> -- <change outputs...>`: judges
//! a change against its parent from saved run outputs (the stdout of
//! `benchmark --workload ...`, one file per run).
//!
//! For each workload × metric it prints each side's median and quartiles
//! and the share of pairs the change won (the i-th parent run against the
//! i-th change run of the same workload; ties count for neither side),
//! then a verdict under the bounds in `./BENCHMARK.json`:
//!
//! * `improved` — the change won at least nine tenths of the pairs and the
//!   medians differ by more than the parent's quartile spread;
//! * `unresolved` — the parent's own quartile spread is wider than the
//!   bound, and not every change run beats every parent run;
//! * `regressed` — the change's median is worse than the parent's by more
//!   than the bound;
//! * `no worse` — otherwise (`no bound` for per-layer metrics).
//!
//! Exits 1 when any pair regressed, 2 on unusable input.

use crate::stats::quartiles;
use crate::WORKLOADS;
use statobd::num::json::Json;

/// One saved run: its workload and its metrics (name, value, unit).
struct Output {
    workload: String,
    metrics: Vec<(String, f64, String)>,
}

fn load(path: &str) -> Result<Output, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let workload = text
        .lines()
        .find_map(|l| l.strip_prefix("# benchmark "))
        .and_then(|h| {
            h.split_whitespace()
                .find_map(|kv| kv.strip_prefix("workload="))
        })
        .ok_or_else(|| format!("{path}: no '# benchmark workload=...' header"))?
        .to_string();
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{path}: empty"))?;
    let json = Json::parse(last).map_err(|e| format!("{path}: last line: {e}"))?;
    let metrics = json
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{path}: no metrics object"))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            (name.clone(), value, unit)
        })
        .collect();
    Ok(Output { workload, metrics })
}

/// `(lower_is_better, bound)` per metric name from `BENCHMARK.json`.
fn directions(doc: &Json) -> Vec<(String, bool, Option<f64>)> {
    ["end_to_end", "per_layer"]
        .iter()
        .filter_map(|key| doc.get(key).and_then(Json::as_array))
        .flatten()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let lower = m.get("better")?.as_str()? == "lower";
            Some((name, lower, m.get("bound").and_then(Json::as_f64)))
        })
        .collect()
}

/// The verdict on one workload × metric (see the module docs).
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: Option<f64>,
) -> &'static str {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let better = |c: f64, p: f64| sign * (c - p) < 0.0;
    let (p1, pm, p3) = quartiles(parent);
    let (_, cm, _) = quartiles(change);
    let pairs = parent.len().min(change.len());
    let won = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    if pairs > 0 && won * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > p3 - p1 {
        return "improved";
    }
    let Some(bound) = bound else {
        return "no bound";
    };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if (p3 - p1) / pm.abs() > bound && !all_better {
        "unresolved"
    } else if sign * (cm - pm) / pm.abs() > bound {
        "regressed"
    } else {
        "no worse"
    }
}

/// `x` to five significant digits.
fn sig(x: f64) -> String {
    if !x.is_normal() {
        return x.to_string();
    }
    let decimals = (4 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.decimals$}")
}

pub fn main(args: &[String]) -> i32 {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: benchmark compare <parent outputs...> -- <change outputs...>");
        return 2;
    };
    let (parent_paths, change_paths) = (&args[..split], &args[split + 1..]);
    let doc = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t).map_err(|e| e.to_string()))
    {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("compare: BENCHMARK.json in the working directory: {e}");
            return 2;
        }
    };
    let rules = directions(&doc);
    let load_all = |paths: &[String]| paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>();
    let (parent, change) = match (load_all(parent_paths), load_all(change_paths)) {
        (Ok(p), Ok(c)) if !p.is_empty() && !c.is_empty() => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
        _ => {
            eprintln!("compare: need at least one output on each side");
            return 2;
        }
    };

    println!(
        "{:<13} {:<28} {:>32} {:>32} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won"
    );
    let mut regressed = false;
    for workload in WORKLOADS {
        let p_runs: Vec<&Output> = parent.iter().filter(|r| r.workload == workload).collect();
        let c_runs: Vec<&Output> = change.iter().filter(|r| r.workload == workload).collect();
        let Some(first) = p_runs.first() else {
            continue;
        };
        for (name, _, unit) in &first.metrics {
            let values = |runs: &[&Output]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.iter().find(|m| &m.0 == name).map(|m| m.1))
                    .collect()
            };
            let (p, c) = (values(&p_runs), values(&c_runs));
            if c.is_empty() {
                continue;
            }
            let (lower, bound) = rules
                .iter()
                .find(|r| &r.0 == name)
                .map_or((true, None), |r| (r.1, r.2));
            let v = verdict(&p, &c, lower, bound);
            regressed |= v == "regressed";
            let won = p
                .iter()
                .zip(&c)
                .filter(|&(&p, &c)| if lower { c < p } else { c > p })
                .count();
            let fmt = |xs: &[f64]| {
                let (q1, med, q3) = quartiles(xs);
                format!("{} [{}, {}] {unit}", sig(med), sig(q1), sig(q3))
            };
            println!(
                "{workload:<13} {name:<28} {:>32} {:>32} {:>6}  {v}",
                fmt(&p),
                fmt(&c),
                format!("{won}/{}", p.len().min(c.len()))
            );
        }
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rules() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        // Faster on every pair and beyond the parent's spread.
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(verdict(&parent, &faster, true, Some(0.1)), "improved");
        // 5 % slower, inside a 10 % bound.
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        assert_eq!(verdict(&parent, &slower, true, Some(0.1)), "no worse");
        // 20 % slower.
        let much_slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(verdict(&parent, &much_slower, true, Some(0.1)), "regressed");
        // Higher is better: the same drop is a regression.
        assert_eq!(verdict(&parent, &faster, false, Some(0.1)), "regressed");
        // A parent spread wider than the bound cannot resolve a small move.
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(&noisy, &slower, true, Some(0.1)), "unresolved");
        assert_eq!(verdict(&parent, &slower, true, None), "no bound");
    }
}
