//! Printing one run, running the whole suite, and comparing two suites.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::common::{Outcome, RunArgs};
use crate::json::{num, parse, quote, Json};
use crate::spec::{cores, pe_count, Spec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};
use crate::{Flags, DEFAULT_SEED};

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn metrics_json(outcome: &Outcome) -> String {
    let fields: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*value),
                quote(unit_of(name))
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn record_path(out: &Path, workload: &str, traced: bool, seed: u64) -> PathBuf {
    out.join(format!(
        "{workload}.trace{}.seed{seed}.json",
        u8::from(traced)
    ))
}

/// Prints every metric by name with its unit, writes the run's full record
/// (with core count, PE count, seed and sample counts) next to the traces,
/// and ends with the one-line JSON result. Returns whether the run was
/// correct.
pub fn print_run(spec: &Spec, args: &RunArgs, traced: bool, outcome: &Outcome) -> io::Result<bool> {
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "workload {} seed {} seconds {} trace {} cores {} p {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(traced),
        cores(),
        pe_count()
    );
    for (name, value) in &outcome.metrics {
        println!("metric {name} {value} {}", unit_of(name));
    }
    for (name, value) in &outcome.notes {
        println!("note {name} {value}");
    }
    println!("checked {} failed {}", outcome.attempted, outcome.failed);

    let result = format!(
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}",
        outcome.attempted,
        outcome.failed,
        metrics_json(outcome)
    );
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(name, value)| format!("{}: {}", quote(name), num(*value)))
        .collect();
    let record = format!(
        "{{\"workload\": {}, \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \
         \"cores\": {}, \"p\": {}, {result}, \"notes\": {{{}}}}}\n",
        quote(spec.name),
        u8::from(traced),
        args.seed,
        num(args.seconds),
        args.shrink > 0,
        cores(),
        pe_count(),
        notes.join(", ")
    );
    std::fs::write(record_path(&args.out, spec.name, traced, args.seed), record)?;
    println!("{{{result}}}");
    Ok(correct)
}

/// Names `BENCHMARK.json` declares against the names the binary reports;
/// returns one line per disagreement.
fn name_mismatches(spec: &Json) -> Vec<String> {
    let declared = |key: &str| -> Vec<String> {
        spec.get(key)
            .map_or(&[][..], Json::as_arr)
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
            .collect()
    };
    let mut problems = Vec::new();
    let mut check = |what: &str, declared: Vec<String>, reported: Vec<&str>| {
        for name in &declared {
            if !reported.contains(&name.as_str()) {
                problems.push(format!("{what} {name}: in BENCHMARK.json, not reported"));
            }
        }
        for name in reported {
            if !declared.iter().any(|d| d == name) {
                problems.push(format!("{what} {name}: reported, not in BENCHMARK.json"));
            }
        }
    };
    check(
        "workload",
        declared("workloads"),
        WORKLOADS.iter().map(|w| w.name).collect(),
    );
    check(
        "end_to_end",
        declared("end_to_end"),
        END_TO_END.iter().map(|m| m.0).collect(),
    );
    check(
        "per_layer",
        declared("per_layer"),
        PER_LAYER.iter().map(|m| m.0).collect(),
    );
    problems
}

/// Runs workloads, each run in a fresh process, and writes one results
/// file. `--repeat K` runs seeds `seed..seed+K`; `--only-trace 0|1` restricts
/// the suite to one kind of run. Fails if a run is incorrect, if a run's
/// metric names differ from the declared ones, or if `BENCHMARK.json`
/// (`--spec`) disagrees with the binary.
pub fn suite(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.number("seed", DEFAULT_SEED)?;
    let repeat: u64 = flags.number("repeat", 1)?;
    let out = flags.out();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let workloads: Vec<&Spec> = match flags.get("workload") {
        Some(name) => {
            vec![crate::spec::workload(name).ok_or(format!("unknown workload {name:?}"))?]
        }
        None => WORKLOADS.iter().collect(),
    };
    let traces: &[bool] = match flags.get("only-trace") {
        None => &[false, true],
        Some("0") => &[false],
        Some("1") => &[true],
        Some(other) => return Err(format!("--only-trace: expected 0 or 1, got {other:?}")),
    };
    let mut ok = true;

    let spec_path = flags.get("spec").unwrap_or("BENCHMARK.json");
    let spec_text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    for problem in name_mismatches(&parse(&spec_text)?) {
        eprintln!("suite: {problem}");
        ok = false;
    }

    let mut records = Vec::new();
    for seed in seed..seed + repeat {
        for spec in &workloads {
            for &traced in traces {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", spec.name, "--seed", &seed.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&out);
                if let Some(seconds) = flags.get("seconds") {
                    cmd.args(["--seconds", seconds]);
                }
                if flags.smoke {
                    cmd.arg("--smoke");
                }
                let output = cmd
                    .stdin(Stdio::null())
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                let record = std::fs::read_to_string(record_path(&out, spec.name, traced, seed))
                    .ok()
                    .filter(|_| output.status.success())
                    .and_then(|text| parse(&text).ok().map(|json| (text, json)));
                let Some((text, json)) = record else {
                    eprintln!(
                        "suite: {} trace {} seed {seed} failed",
                        spec.name,
                        u8::from(traced)
                    );
                    ok = false;
                    continue;
                };
                let expected = if traced {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                };
                let reported = json.get("metrics").map_or(&[][..], Json::as_obj);
                if !reported
                    .iter()
                    .map(|(n, _)| n.as_str())
                    .eq(expected.iter().map(|m| m.0))
                {
                    eprintln!(
                        "suite: {} trace {}: metric names differ from the declared list",
                        spec.name,
                        u8::from(traced)
                    );
                    ok = false;
                }
                records.push(text.trim_end().to_string());
            }
        }
    }

    let results = format!(
        "{{\"cores\": {}, \"p\": {}, \"seed\": {seed}, \"repeat\": {repeat}, \"smoke\": {}, \"runs\": [\n{}\n]}}\n",
        cores(),
        pe_count(),
        flags.smoke,
        records.join(",\n")
    );
    let path = flags
        .get("results")
        .map_or_else(|| out.join("results.json"), Into::into);
    std::fs::write(&path, &results).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    print!("{}", summary(&parse(&results)?));
    Ok(ok)
}

/// The end-to-end values of one workload × metric over a results file's
/// untraced runs.
fn values(results: &Json, workload: &str, metric: &str) -> Vec<f64> {
    results
        .get("runs")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Json::as_f64) == Some(0.0))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Distance between the quartiles as a share of the median; 0 for a
/// single run, which has no spread to judge.
fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

fn summary(results: &Json) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<20} {:<18} {:>4} {:>14} {:>8}",
        "workload", "metric", "runs", "median", "spread"
    );
    for w in &WORKLOADS {
        for (metric, unit) in &END_TO_END {
            let xs = values(results, w.name, metric);
            if xs.is_empty() {
                continue;
            }
            let _ = writeln!(
                s,
                "{:<20} {:<18} {:>4} {:>14.6} {:>7.2}% {unit}",
                w.name,
                metric,
                xs.len(),
                median(&xs),
                spread(&xs) * 100.0
            );
        }
    }
    s
}

/// Counts that must repeat exactly between two runs of one seed.
const EXACT: [&str; 4] = [
    "core.triangles",
    "core.work_ops",
    "comm.sent_words",
    "comm.sent_messages",
];

/// `compare A.json B.json [--spec BENCHMARK.json]`: one row per workload ×
/// end-to-end metric with both medians, B over A, the bound, and a verdict:
/// `regressed` when B is worse than A by more than the bound, `unresolved`
/// when either side's own quartile spread exceeds the bound, else `ok`.
pub fn compare(flags: &Flags) -> Result<bool, String> {
    let [a_path, b_path] = &flags.positional[..] else {
        return Err("usage: compare A.json B.json [--spec BENCHMARK.json]".into());
    };
    let load = |path: &str| -> Result<Json, String> {
        parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let spec = load(flags.get("spec").unwrap_or("BENCHMARK.json"))?;

    let mut all_ok = true;
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    for w in &WORKLOADS {
        for declared in spec.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let field = |key: &str| declared.get(key).and_then(Json::as_str).unwrap_or("");
            let metric = field("name");
            let bound = declared.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (xa, xb) = (values(&a, w.name, metric), values(&b, w.name, metric));
            if xa.is_empty() || xb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&xa), median(&xb));
            let worse_by = match field("better") {
                "higher" => (ma - mb) / ma,
                _ => (mb - ma) / ma,
            };
            let verdict = if spread(&xa).max(spread(&xb)) > bound {
                "unresolved"
            } else if worse_by > bound {
                "regressed"
            } else {
                "ok"
            };
            all_ok &= verdict == "ok";
            println!(
                "{:<20} {:<18} {:>14.6} {:>14.6} {:>8.4} {:>6.2}  {verdict} ({} vs {} runs, base A)",
                w.name, metric, ma, mb, mb / ma, bound, xa.len(), xb.len()
            );
        }
    }

    // exact counts of the traced runs, paired by workload and seed
    let traced = |results: &Json| -> Vec<(String, f64, Json)> {
        results
            .get("runs")
            .map_or(&[][..], Json::as_arr)
            .iter()
            .filter(|r| r.get("trace").and_then(Json::as_f64) == Some(1.0))
            .filter_map(|r| {
                let workload = r.get("workload")?.as_str()?.to_string();
                Some((
                    workload,
                    r.get("seed")?.as_f64()?,
                    r.get("metrics")?.clone(),
                ))
            })
            .collect()
    };
    let tb = traced(&b);
    for (workload, seed, ma) in traced(&a) {
        let Some((_, _, mb)) = tb.iter().find(|(w, s, _)| *w == workload && *s == seed) else {
            continue;
        };
        for name in EXACT {
            let value = |m: &Json| {
                m.get(name)
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
            };
            let same = value(&ma).is_some() && value(&ma) == value(mb);
            all_ok &= same;
            println!(
                "{workload:<20} {name:<18} seed {seed}: {}",
                if same { "identical" } else { "DIFFERS" }
            );
        }
    }
    Ok(all_ok)
}
