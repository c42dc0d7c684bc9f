//! `compare <a> <b>`: one row per (workload, end-to-end metric) of two
//! result files, with the verdict the benchmark's own bounds give.

use std::collections::BTreeMap;

use crate::metrics::{Bound, EndToEnd, END_TO_END, WORKLOAD_SPECIFIC};
use crate::plan::Workload;

/// `name → value` of a flat `name<TAB>value<TAB>unit` file; values that
/// are not numbers (digests, configurations) are kept as text.
fn read_flat(path: &str) -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|line| !line.is_empty())
        .map(|line| {
            let mut fields = line.split('\t');
            match (fields.next(), fields.next()) {
                (Some(name), Some(value)) => Ok((name.to_owned(), value.to_owned())),
                _ => Err(format!(
                    "{path}: line '{line}' is not name<TAB>value<TAB>unit"
                )),
            }
        })
        .collect()
}

/// Median, min and max of one metric in one file.
fn stat(file: &BTreeMap<String, String>, key: &str) -> Option<[f64; 3]> {
    let number = |suffix: &str| file.get(&format!("{key}{suffix}"))?.parse::<f64>().ok();
    Some([number("")?, number(".min")?, number(".max")?])
}

fn verdict(def: &EndToEnd, base: [f64; 3], new: [f64; 3]) -> &'static str {
    // Orient so that larger is worse.
    let flip = |[median, min, max]: [f64; 3]| {
        if def.higher_is_better {
            [-median, -max, -min]
        } else {
            [median, min, max]
        }
    };
    let ([b, b_best, b_worst], [n, n_best, n_worst]) = (flip(base), flip(new));
    match def.bound {
        Bound::Absolute(bound) => {
            if n - b > bound {
                "regressed"
            } else {
                "ok"
            }
        }
        Bound::Share(bound) => {
            let allowed = bound * b.abs();
            let spread = (b_worst - b_best).max(n_worst - n_best);
            if spread > allowed {
                // Too noisy to resolve, unless the runs do not even overlap.
                if n_worst < b_best {
                    "ok"
                } else if n_best > b_worst + allowed {
                    "regressed"
                } else {
                    "unresolved"
                }
            } else if n - b > allowed {
                "regressed"
            } else {
                "ok"
            }
        }
    }
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
///
/// # Errors
///
/// Returns a message when a file cannot be read or parsed.
pub fn compare(base_path: &str, new_path: &str) -> Result<bool, String> {
    let (base, new) = (read_flat(base_path)?, read_flat(new_path)?);
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>18} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    let mut clean = true;
    for workload in Workload::ALL {
        for def in END_TO_END.iter().chain(&WORKLOAD_SPECIFIC) {
            let key = format!("{}/{}", workload.name(), def.name);
            let (Some(b), Some(n)) = (stat(&base, &key), stat(&new, &key)) else {
                continue;
            };
            let bound = match def.bound {
                Bound::Share(share) => format!("{:.0}%", share * 100.0),
                Bound::Absolute(amount) => format!("{amount}{}", def.unit),
            };
            let verdict = verdict(def, b, n);
            clean &= verdict != "regressed";
            // Every ratio with its base; a base of zero has no ratio.
            let ratio = if b[0] == 0.0 {
                "-".to_owned()
            } else {
                format!("{:.4} of {:.4}", n[0] / b[0], b[0])
            };
            println!(
                "{:<16} {:<20} {:>14.6} {:>14.6} {ratio:>18} {bound:>8}  {verdict}",
                workload.name(),
                def.name,
                b[0],
                n[0],
            );
        }
        // Counts and digests must repeat exactly.
        const EXACT: [&str; 5] = [
            "output_fnv",
            "sim_cycles",
            "work_units",
            "best_config",
            "steps",
        ];
        let prefix = format!("{}/", workload.name());
        for (key, value) in &base {
            let exact = key.starts_with(&prefix) && EXACT.iter().any(|name| key.ends_with(name));
            if exact && new.get(key).is_some_and(|other| other != value) {
                println!("{key}: {value} -> {} (differs)", new[key]);
            }
        }
    }
    Ok(clean)
}
