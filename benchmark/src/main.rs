//! The repository's benchmark. One run measures one workload:
//!
//! ```text
//! tricount-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! ```
//!
//! and prints every metric by name, then one JSON object as its last line.
//! `suite` runs every workload in a process of its own and writes a results
//! file; `compare` sets two results files side by side. See README.md.

mod calib;
mod common;
mod inputs;
mod json;
mod layers;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;
mod untraced;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use common::RunArgs;

/// `--key value` pairs, bare `--smoke`, and positional arguments.
pub struct Flags {
    values: BTreeMap<String, String>,
    pub smoke: bool,
    pub positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            values: BTreeMap::new(),
            smoke: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => flags.smoke = true,
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    flags.values.insert(key.to_string(), value.clone());
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    pub fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
        }
    }

    pub fn out(&self) -> PathBuf {
        PathBuf::from(self.get("out").unwrap_or("benchmark/out"))
    }
}

/// The seed every command defaults to.
pub const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 24.0;
/// `--smoke` shrinks every graph 8× and measures for this long.
pub const SMOKE_SHRINK: u32 = 3;
pub const SMOKE_SECONDS: f64 = 1.0;

fn run_one(flags: &Flags) -> Result<bool, String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    let spec = spec::workload(name).ok_or(format!("unknown workload {name:?}"))?;
    let traced = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let default_seconds = if flags.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    };
    let args = RunArgs {
        seed: flags.number("seed", DEFAULT_SEED)?,
        seconds: flags.number("seconds", default_seconds)?,
        shrink: if flags.smoke { SMOKE_SHRINK } else { 0 },
        out: flags.out(),
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let measure = if traced {
        layers::measure
    } else {
        untraced::measure
    };
    let outcome = measure(spec, &args).map_err(|e| format!("{name}: {e}"))?;
    report::print_run(spec, &args, traced, &outcome).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some("suite") => ("suite", &args[1..]),
        Some("compare") => ("compare", &args[1..]),
        _ => ("run", &args[..]),
    };
    let result = Flags::parse(rest).and_then(|flags| match command {
        "suite" => report::suite(&flags),
        "compare" => report::compare(&flags),
        _ => run_one(&flags),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("tricount-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
