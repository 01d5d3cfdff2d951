//! Command-line interface backing the `tricount` binary: graph generation,
//! triangle counting, LCC computation, enumeration and instance inspection
//! from the shell. Argument parsing is hand-rolled (no dependency) and unit
//! tested; the binary in `src/bin/tricount.rs` is a thin wrapper.

use std::cell::Cell;

use tricount_comm::{CostModel, Routing, SimOptions};
use tricount_core::dist::{enumerate, lcc};
use tricount_core::{run_on, seq, Aggregation, Algorithm, DistConfig};
use tricount_gen::{Dataset, Family};
use tricount_graph::stats::{degree_histogram_log2, global_clustering_coefficient, GraphStats};
use tricount_graph::{io, Csr};

/// Where the input graph comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// Load from a file (text edge list or `.bin`).
    File(String),
    /// Generate a synthetic family instance.
    Family {
        /// The family.
        family: Family,
        /// Number of vertices.
        n: u64,
        /// RNG seed.
        seed: u64,
    },
    /// Generate a Table-I proxy dataset.
    Dataset {
        /// The dataset.
        dataset: Dataset,
        /// Number of vertices.
        n: u64,
        /// RNG seed.
        seed: u64,
    },
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a graph and write it to a file.
    Generate {
        /// Input source (must be a generator).
        source: Source,
        /// Output path (`.bin` → binary, else text).
        output: String,
    },
    /// Count triangles.
    Count {
        /// Input source.
        source: Source,
        /// Algorithm (`None` = sequential COMPACT-FORWARD).
        algorithm: Option<Algorithm>,
        /// Simulated PEs.
        p: usize,
        /// Cost model preset.
        model: CostModel,
        /// Config overrides.
        config: DistConfig,
        /// Probe calibration JSON (`tricount-pingpong` /
        /// `tricount-allgather` output) replacing the model's α/β.
        calibration: Option<String>,
    },
    /// Compute per-vertex counts / LCC and print the top-k.
    Lcc {
        /// Input source.
        source: Source,
        /// Simulated PEs.
        p: usize,
        /// How many extreme vertices to print.
        top: usize,
    },
    /// Enumerate triangles.
    Enumerate {
        /// Input source.
        source: Source,
        /// Simulated PEs.
        p: usize,
        /// Print at most this many triples.
        limit: usize,
    },
    /// Print instance statistics.
    Info {
        /// Input source.
        source: Source,
    },
    /// Load the graph into a resident query engine and drive a scripted
    /// mixed workload against it.
    Serve {
        /// Input source.
        source: Source,
        /// Simulated PEs.
        p: usize,
        /// Number of scripted queries to serve.
        queries: usize,
        /// Workload RNG seed.
        seed: u64,
        /// Print the machine-readable stats snapshot instead of the table.
        json: bool,
        /// Write the engine's Prometheus text exposition here after serving.
        metrics_out: Option<String>,
    },
    /// Load the graph into a resident engine and stream batched edge
    /// updates through the incremental triangle-maintenance path.
    Update {
        /// Input source.
        source: Source,
        /// Simulated PEs.
        p: usize,
        /// Path to the update file (`+ u v` / `- u v` lines, blank lines
        /// separate batches).
        batch: String,
        /// Print the machine-readable stats snapshot after applying.
        json: bool,
    },
    /// Run the concurrency checking suite: happens-before analysis and
    /// protocol conformance of a traced run, exhaustive pool-interleaving
    /// and delivery-order exploration, and (when run inside the
    /// workspace) the `tricount-lint` source pass.
    Check {
        /// Input source.
        source: Source,
        /// Distributed algorithm for the traced run.
        algorithm: Algorithm,
        /// Simulated PEs.
        p: usize,
        /// Workspace root to lint (`None` = skip the source pass).
        lint_root: Option<String>,
    },
    /// Run one traced count and export its profile.
    Profile {
        /// Input source.
        source: Source,
        /// Distributed algorithm (`seq` is rejected — nothing to trace).
        algorithm: Algorithm,
        /// Simulated PEs.
        p: usize,
        /// Cost model preset.
        model: CostModel,
        /// Config overrides.
        config: DistConfig,
        /// Write a Chrome-trace / Perfetto JSON file here: a dual-clock
        /// export (modeled + measured).
        chrome_trace: Option<String>,
        /// Print the per-phase modeled/wall breakdown and span summary.
        phase_report: bool,
        /// Write the run's Prometheus text exposition here.
        metrics_out: Option<String>,
        /// Probe calibration JSON (`tricount-pingpong` /
        /// `tricount-allgather` output) replacing the model's α/β.
        calibration: Option<String>,
    },
}

fn parse_family(s: &str) -> Result<Family, String> {
    match s {
        "gnm" => Ok(Family::Gnm),
        "rgg2d" | "rgg" => Ok(Family::Rgg2d),
        "rhg" => Ok(Family::Rhg),
        "rmat" => Ok(Family::Rmat),
        _ => Err(format!("unknown family {s:?} (gnm|rgg2d|rhg|rmat)")),
    }
}

fn parse_dataset(s: &str) -> Result<Dataset, String> {
    Dataset::all()
        .into_iter()
        .find(|d| d.paper_stats().name == s)
        .ok_or_else(|| {
            let names: Vec<&str> = Dataset::all()
                .iter()
                .map(|d| d.paper_stats().name)
                .collect();
            format!("unknown dataset {s:?} (one of {names:?})")
        })
}

/// Applies the shared `--pool-workers` override to a config's kernel
/// policy. `--pool-workers N` with `N > 1` runs the local phase in
/// degree-balanced chunks on an `N`-worker pool.
fn apply_pool_workers(config: &mut DistConfig, pool_workers: Option<&str>) -> Result<(), String> {
    if let Some(w) = pool_workers {
        let workers: usize = w
            .parse()
            .map_err(|e| format!("bad --pool-workers {w:?}: {e}"))?;
        if workers == 0 {
            return Err("--pool-workers must be at least 1".to_string());
        }
        config.kernels.pool_workers = workers;
    }
    Ok(())
}

/// Extracts the first `"key":<number>` field from a JSON document — enough
/// to read the flat calibration reports of the probe binaries without a
/// JSON dependency.
fn json_number_field(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Replaces the preset model's α/β with the measured fit from a probe
/// calibration file (`tricount-pingpong` emits `alpha_seconds` +
/// `beta_seconds_per_word`; `tricount-allgather` emits
/// `alpha_log_seconds`). `t_op` keeps the preset's value — the probes
/// measure the transport, not the intersection kernels.
fn apply_calibration(base: CostModel, path: &str) -> Result<CostModel, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let alpha = json_number_field(&text, "alpha_seconds")
        .or_else(|| json_number_field(&text, "alpha_log_seconds"))
        .ok_or_else(|| {
            format!("{path}: no alpha_seconds / alpha_log_seconds field (not a probe calibration?)")
        })?;
    let beta = json_number_field(&text, "beta_seconds_per_word").unwrap_or(base.beta);
    Ok(CostModel::calibrated(alpha, beta, base.t_op))
}

/// Resolves which calibration file, if any, a run should apply. An explicit
/// `--calibration PATH` always wins; without one, `TRICOUNT_CALIBRATION`
/// (when set and non-empty) is consulted, and finally a `calibration.json`
/// sitting next to a `--input` graph file is picked up automatically — so a
/// probe fit saved beside the dataset feeds every later run without extra
/// flags.
fn resolve_calibration(explicit: Option<String>, source: &Source) -> Option<String> {
    if explicit.is_some() {
        return explicit;
    }
    if let Ok(path) = std::env::var("TRICOUNT_CALIBRATION") {
        if !path.is_empty() {
            return Some(path);
        }
    }
    if let Source::File(graph) = source {
        let sibling = std::path::Path::new(graph).with_file_name("calibration.json");
        if sibling.is_file() {
            return Some(sibling.to_string_lossy().into_owned());
        }
    }
    None
}

fn parse_algorithm(s: &str) -> Result<Option<Algorithm>, String> {
    Ok(Some(match s {
        "seq" => return Ok(None),
        "ditric" => Algorithm::Ditric,
        "ditric2" => Algorithm::Ditric2,
        "cetric" => Algorithm::Cetric,
        "cetric2" => Algorithm::Cetric2,
        "tric" => Algorithm::TricLike,
        "havoqgt" => Algorithm::HavoqgtLike,
        "unagg" => Algorithm::Unaggregated,
        _ => {
            return Err(format!(
                "unknown algorithm {s:?} (seq|ditric|ditric2|cetric|cetric2|tric|havoqgt|unagg)"
            ))
        }
    }))
}

/// Largest `--p` any verb accepts. Every PE is one OS thread whose message
/// queue holds `p` buffers, so an unbounded `p` exhausts the host instead
/// of failing; 1024 is 16× the largest p any bench uses.
pub(crate) const MAX_PES: u64 = 1024;

/// Parses a full argument list (without the binary name). A flag the verb
/// does not read is an error, not a silent no-op.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let verb = it.next().ok_or_else(usage)?;

    // collect --key value pairs
    let mut opts: Vec<(String, String)> = Vec::new();
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i];
        if !key.starts_with("--") && !key.starts_with('-') {
            return Err(format!("unexpected argument {key:?}"));
        }
        let val = rest
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {key}"))?;
        opts.push((key.trim_start_matches('-').to_string(), val.to_string()));
        i += 2;
    }
    // Every pair a lookup touches is marked read; the verb's flags are
    // exactly the keys it looks up.
    let read = vec![Cell::new(false); opts.len()];
    let get = |k: &str| {
        let mut found = None;
        for ((key, v), r) in opts.iter().zip(&read) {
            if key == k {
                r.set(true);
                found = found.or(Some(v.as_str()));
            }
        }
        found
    };
    let parse_u64 = |k: &str, default: u64| -> Result<u64, String> {
        get(k).map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("bad --{k} {v:?}: {e}"))
        })
    };

    let inputs = (get("input"), get("family"), get("dataset"));
    let source = if [inputs.0, inputs.1, inputs.2].iter().flatten().count() > 1 {
        return Err("give one input: --input FILE, --family F or --dataset D".to_string());
    } else if let Some(path) = inputs.0 {
        Source::File(path.to_string())
    } else if let Some(fam) = inputs.1 {
        let family = parse_family(fam)?;
        let n = parse_u64("n", 1 << 12)?;
        if n < family.min_n() {
            return Err(format!(
                "--family {fam} needs --n {} or more (got {n})",
                family.min_n()
            ));
        }
        Source::Family {
            family,
            n,
            seed: parse_u64("seed", 42)?,
        }
    } else if let Some(ds) = inputs.2 {
        Source::Dataset {
            dataset: parse_dataset(ds)?,
            n: parse_u64("n", 1 << 12)?,
            seed: parse_u64("seed", 42)?,
        }
    } else if verb == "generate"
        || verb == "count"
        || verb == "lcc"
        || verb == "info"
        || verb == "enumerate"
        || verb == "serve"
        || verb == "update"
        || verb == "profile"
        || verb == "check"
    {
        return Err("need an input: --input FILE, --family F, or --dataset D".to_string());
    } else {
        return Err(usage());
    };

    let p = parse_u64("p", 4)?;
    if p == 0 {
        return Err("--p must be at least 1".to_string());
    }
    if p > MAX_PES {
        return Err(format!(
            "--p {p} is above the cap of {MAX_PES} PEs (each PE is one OS thread)"
        ));
    }
    let p = p as usize;
    let cmd = match verb.as_str() {
        "generate" => {
            if matches!(source, Source::File(_)) {
                return Err("generate needs --family or --dataset, not --input".to_string());
            }
            Ok(Command::Generate {
                source,
                output: get("o")
                    .or(get("output"))
                    .ok_or("generate needs -o/--output PATH")?
                    .to_string(),
            })
        }
        "count" => {
            let algorithm = parse_algorithm(get("alg").unwrap_or("cetric"))?;
            let mut config = algorithm.map_or_else(DistConfig::default, |a| a.config());
            if let Some(r) = get("routing") {
                config.routing = match r {
                    "direct" => Routing::Direct,
                    "grid" => Routing::Grid,
                    _ => return Err(format!("unknown routing {r:?} (direct|grid)")),
                };
            }
            if let Some(f) = get("delta-factor") {
                let factor: f64 = f
                    .parse()
                    .map_err(|e| format!("bad --delta-factor {f:?}: {e}"))?;
                // δ = factor·|E_i|: infinity would never flush before the
                // end (static aggregation), NaN and ≤ 0 would silently
                // collapse to the 64-word floor
                if !(factor.is_finite() && factor > 0.0) {
                    return Err(format!("bad --delta-factor {f:?}: need a finite value > 0"));
                }
                config.aggregation = Aggregation::Dynamic {
                    delta_factor: factor,
                };
            }
            apply_pool_workers(&mut config, get("pool-workers"))?;
            let model = match get("model").unwrap_or("supermuc") {
                "supermuc" => CostModel::supermuc(),
                "cloud" => CostModel::cloud(),
                m => return Err(format!("unknown model {m:?} (supermuc|cloud)")),
            };
            Ok(Command::Count {
                source,
                algorithm,
                p,
                model,
                config,
                calibration: get("calibration").map(|v| v.to_string()),
            })
        }
        "lcc" => Ok(Command::Lcc {
            source,
            p,
            top: parse_u64("top", 10)? as usize,
        }),
        "enumerate" => Ok(Command::Enumerate {
            source,
            p,
            limit: parse_u64("limit", 20)? as usize,
        }),
        "info" => Ok(Command::Info { source }),
        "serve" => Ok(Command::Serve {
            source,
            p,
            queries: parse_u64("queries", 100)? as usize,
            seed: parse_u64("workload-seed", 42)?,
            json: get("json").is_some_and(|v| v == "true" || v == "1"),
            metrics_out: get("metrics-out").map(|v| v.to_string()),
        }),
        "update" => Ok(Command::Update {
            source,
            p,
            batch: get("batch")
                .ok_or("update needs --batch FILE (`+ u v` / `- u v` lines)")?
                .to_string(),
            json: get("json").is_some_and(|v| v == "true" || v == "1"),
        }),
        "check" => {
            let algorithm = parse_algorithm(get("alg").unwrap_or("cetric"))?
                .ok_or("check needs a distributed algorithm (seq has no schedules to check)")?;
            // Default to linting the workspace we are running inside, if
            // this looks like one.
            let lint_root = get("lint-root").map(|v| v.to_string()).or_else(|| {
                std::path::Path::new("crates")
                    .is_dir()
                    .then(|| ".".to_string())
            });
            Ok(Command::Check {
                source,
                algorithm,
                p,
                lint_root,
            })
        }
        "profile" => {
            let algorithm = parse_algorithm(get("alg").unwrap_or("cetric"))?
                .ok_or("profile needs a distributed algorithm (seq records no trace)")?;
            let mut config = algorithm.config();
            if let Some(r) = get("routing") {
                config.routing = match r {
                    "direct" => Routing::Direct,
                    "grid" => Routing::Grid,
                    _ => return Err(format!("unknown routing {r:?} (direct|grid)")),
                };
            }
            apply_pool_workers(&mut config, get("pool-workers"))?;
            let model = match get("model").unwrap_or("supermuc") {
                "supermuc" => CostModel::supermuc(),
                "cloud" => CostModel::cloud(),
                m => return Err(format!("unknown model {m:?} (supermuc|cloud)")),
            };
            Ok(Command::Profile {
                source,
                algorithm,
                p,
                model,
                config,
                chrome_trace: get("chrome-trace").map(|v| v.to_string()),
                phase_report: get("phase-report").is_some_and(|v| v == "true" || v == "1"),
                metrics_out: get("metrics-out").map(|v| v.to_string()),
                calibration: get("calibration").map(|v| v.to_string()),
            })
        }
        v => Err(format!("unknown command {v:?}\n{}", usage())),
    }?;
    match opts.iter().zip(&read).find(|(_, r)| !r.get()) {
        Some(((key, _), _)) => Err(format!("{verb} does not read --{key} here\n{}", usage())),
        None => Ok(cmd),
    }
}

fn usage() -> String {
    "usage: tricount <generate|count|lcc|enumerate|info|serve|update|profile|check> \
     [--input FILE | --family gnm|rgg2d|rhg|rmat | --dataset NAME] \
     [--n N] [--seed S] [--p P] [--alg A] [--model supermuc|cloud] \
     [--routing direct|grid] [--delta-factor F] \
     [--pool-workers N] \
     [--top K] [--limit K] \
     [--queries Q] [--workload-seed S] [--batch UPDATES.txt] [--json 1] \
     [--lint-root DIR] \
     [-o OUT] [--chrome-trace OUT.json] [--phase-report 1] \
     [--metrics-out OUT.prom] [--calibration PROBE.json]\n\
     calibration is auto-applied from $TRICOUNT_CALIBRATION or a \
     calibration.json next to --input"
        .to_string()
}

/// Materialises the input graph of a command.
pub fn load_source(source: &Source) -> Result<Csr, String> {
    match source {
        Source::File(path) => io::load_graph(path).map_err(|e| format!("loading {path:?}: {e}")),
        Source::Family { family, n, seed } => Ok(family.generate(*n, *seed)),
        Source::Dataset { dataset, n, seed } => Ok(dataset.generate(*n, *seed)),
    }
}

/// Executes a parsed command, printing results to stdout.
pub fn execute(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Generate { source, output } => {
            let g = load_source(&source)?;
            let f = std::fs::File::create(&output).map_err(|e| e.to_string())?;
            if output.ends_with(".bin") {
                io::write_binary(f, &g).map_err(|e| e.to_string())?;
            } else {
                io::write_text_edges(f, &g.to_edge_list()).map_err(|e| e.to_string())?;
            }
            println!(
                "wrote {} (n = {}, m = {})",
                output,
                g.num_vertices(),
                g.num_edges()
            );
        }
        Command::Count {
            source,
            algorithm,
            p,
            model,
            config,
            calibration,
        } => {
            let model = match resolve_calibration(calibration, &source) {
                Some(path) => apply_calibration(model, &path)?,
                None => model,
            };
            let g = load_source(&source)?;
            match algorithm {
                None => {
                    let s = seq::compact_forward(&g);
                    println!("triangles: {} (sequential, {} ops)", s.triangles, s.ops);
                }
                Some(alg) => {
                    let dg = tricount_graph::DistGraph::new(&g, p);
                    let (r, _) = run_on(dg, alg, &config, &SimOptions::default())
                        .map_err(|e| e.to_string())?;
                    println!("triangles: {}", r.triangles);
                    println!(
                        "{} on {p} PEs: modeled {:.3} ms | {} msgs | {} words total | bottleneck {} words | peak buffer {} words",
                        alg.name(),
                        r.modeled_time(&model) * 1e3,
                        r.stats.total_messages(),
                        r.stats.total_volume(),
                        r.stats.bottleneck_volume(),
                        r.stats.max_peak_buffered(),
                    );
                    for ph in &r.stats.phases {
                        println!("  {:<14} {:.3} ms", ph.name, ph.modeled_time(&model) * 1e3);
                    }
                }
            }
        }
        Command::Lcc { source, p, top } => {
            let g = load_source(&source)?;
            let r = lcc::lcc(&g, p, &DistConfig::default());
            println!("triangles: {}", r.triangles);
            let mut by_degree: Vec<u64> = g.vertices().collect();
            by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
            println!(
                "{:>10} {:>8} {:>10} {:>8}",
                "vertex", "degree", "triangles", "lcc"
            );
            for &v in by_degree.iter().take(top) {
                println!(
                    "{:>10} {:>8} {:>10} {:>8.4}",
                    v,
                    g.degree(v),
                    r.per_vertex[v as usize],
                    r.lcc[v as usize]
                );
            }
        }
        Command::Enumerate { source, p, limit } => {
            let g = load_source(&source)?;
            let tris = enumerate::enumerate(&g, p, &DistConfig::default());
            println!("{} triangles", tris.len());
            for (a, b, c) in tris.iter().take(limit) {
                println!("{a} {b} {c}");
            }
            if tris.len() > limit {
                println!("... ({} more)", tris.len() - limit);
            }
        }
        Command::Info { source } => {
            let g = load_source(&source)?;
            let s = GraphStats::of(&g);
            let t = seq::compact_forward(&g).triangles;
            println!("n          = {}", s.n);
            println!("m          = {}", s.m);
            println!("wedges     = {}", s.wedges);
            println!("triangles  = {t}");
            println!("avg degree = {:.2}", s.avg_degree);
            println!("max degree = {} (skew {:.1})", s.max_degree, s.skew());
            println!("global CC  = {:.4}", global_clustering_coefficient(&g, t));
            println!("degree histogram (log2 bins):");
            for (b, count) in degree_histogram_log2(&g).iter().enumerate() {
                if *count > 0 {
                    println!("  [{:>6}, {:>6}) {:>8}", 1u64 << b, 1u64 << (b + 1), count);
                }
            }
        }
        Command::Update {
            source,
            p,
            batch,
            json,
        } => {
            use tricount_delta::parse_batches;
            use tricount_engine::{Engine, EngineConfig};
            let g = load_source(&source)?;
            let text = std::fs::read_to_string(&batch).map_err(|e| format!("{batch}: {e}"))?;
            let batches = parse_batches(&text)?;
            if batches.is_empty() {
                return Err(format!("{batch}: no update operations found"));
            }
            let engine = Engine::build(&g, EngineConfig::new(p));
            println!(
                "resident count before updates: {} (epoch {})",
                engine.resident_triangles(),
                engine.epoch()
            );
            for (i, b) in batches.iter().enumerate() {
                let r = engine.apply_updates(b).map_err(|e| e.to_string())?;
                println!(
                    "batch {i}: {} ins, {} del, {} noop | triangles {} -> {} ({:+}) | \
                     {} words moved",
                    r.inserted,
                    r.deleted,
                    r.noops,
                    r.triangles_before,
                    r.triangles_after,
                    r.delta(),
                    r.comm.sent_words + r.comm.coll_word_units,
                );
            }
            let s = engine.stats();
            if json {
                println!("{}", s.to_json());
            } else {
                println!(
                    "applied {} batch(es): {} insertions, {} deletions, {} no-ops",
                    s.updates_applied, s.edges_inserted, s.edges_deleted, s.update_noops
                );
                println!(
                    "resident count after updates: {} (epoch {})",
                    engine.resident_triangles(),
                    engine.epoch()
                );
            }
        }
        Command::Check {
            source,
            algorithm,
            p,
            lint_root,
        } => {
            use tricount_engine::check::{check_concurrency, CheckOptions};
            let g = load_source(&source)?;
            println!(
                "checking {} on {p} PEs (traced HB/conformance + exhaustive small-fixture schedules)",
                algorithm.name()
            );
            let report = check_concurrency(&g, &CheckOptions::new(p, algorithm))
                .map_err(|e| e.to_string())?;
            print!("{report}");
            let mut failed = !report.passed();
            if let Some(root) = lint_root {
                let lint = tricount_verify::lint_workspace(std::path::Path::new(&root))
                    .map_err(|e| format!("lint scan of {root:?}: {e}"))?;
                print!("{lint}");
                failed |= !lint.is_clean();
            }
            if failed {
                return Err("concurrency check FAILED".to_string());
            }
        }
        Command::Profile {
            source,
            algorithm,
            p,
            model,
            config,
            chrome_trace,
            phase_report,
            metrics_out,
            calibration,
        } => {
            let model = match resolve_calibration(calibration, &source) {
                Some(path) => apply_calibration(model, &path)?,
                None => model,
            };
            let g = load_source(&source)?;
            let dg = tricount_graph::DistGraph::new(&g, p);
            let opts = SimOptions {
                record_trace: true,
                wall_profile: true,
                ..SimOptions::default()
            };
            let (r, trace, dispatch, wall) =
                tricount_core::dist::run_on_profiled(dg, algorithm, &config, &opts)
                    .map_err(|e| e.to_string())?;
            let trace = trace.ok_or("run recorded no trace (trace feature missing?)")?;
            let wall = wall.ok_or("run recorded no wall profile")?;
            let timeline = tricount_obs::WallTimeline::build(&wall);
            println!("triangles: {}", r.triangles);
            println!(
                "{} on {p} PEs: modeled {:.3} ms",
                algorithm.name(),
                r.modeled_time(&model) * 1e3
            );
            let rows: Vec<(&str, Vec<(&str, u64)>)> = dispatch
                .phases
                .iter()
                .map(|(ph, c)| (*ph, c.named().to_vec()))
                .collect();
            println!("kernel dispatch:");
            print!("{}", tricount_obs::dispatch_table(&rows));
            if phase_report {
                print!(
                    "{}",
                    tricount_obs::phase_report(&r.stats, Some(&trace), &model)
                );
                print!("{}", tricount_obs::span_summary(&trace));
            }
            print!("{}", timeline.report());
            let fit = tricount_obs::ModelFitReport::compute(&r.stats, &model, 3.0);
            print!("{}", fit.render());
            if !fit.flagged().is_empty() {
                let cal = fit.calibrated(&model);
                println!(
                    "suggested calibrated model: alpha {:.3e} s, beta {:.3e} s/word, \
                     t_op {:.3e} s (or run tricount-pingpong for a measured fit)",
                    cal.alpha, cal.beta, cal.t_op
                );
            }
            if let Some(path) = chrome_trace {
                let export = tricount_obs::export_dual(&trace, &r.stats, &model, &timeline);
                let recv = r.stats.totals().recv_messages;
                if export.modeled_flows != recv {
                    return Err(format!(
                        "exporter invariant broken: {} modeled flow arrows but {} delivered \
                         messages",
                        export.modeled_flows, recv
                    ));
                }
                std::fs::write(&path, &export.json).map_err(|e| e.to_string())?;
                println!(
                    "wrote {path} (dual-clock: {} tracks, {} modeled + {} measured flow \
                     arrows; open in ui.perfetto.dev)",
                    export.tracks, export.modeled_flows, export.measured_flows
                );
            }
            if let Some(path) = metrics_out {
                let mut reg = tricount_obs::run_metrics(&r.stats, &model, Some(&trace));
                tricount_obs::wall_metrics(&mut reg, &timeline, r.stats.contention.as_ref());
                std::fs::write(&path, reg.render()).map_err(|e| e.to_string())?;
                println!("wrote {path}");
            }
        }
        Command::Serve {
            source,
            p,
            queries,
            seed,
            json,
            metrics_out,
        } => {
            use tricount_engine::{scripted_workload, Engine, EngineConfig};
            let g = load_source(&source)?;
            let engine = Engine::build(&g, EngineConfig::new(p));
            let workload = scripted_workload(queries, g.num_vertices(), seed);
            let mut answered = 0usize;
            let mut failed = 0usize;
            for q in workload {
                loop {
                    match engine.submit(q.clone()) {
                        Ok(_) => break,
                        // closed loop: drain under backpressure, resubmit
                        Err(_) => {
                            for (_, a) in engine.tick() {
                                answered += 1;
                                failed += usize::from(a.is_err());
                            }
                        }
                    }
                }
            }
            while engine.queue_depth() > 0 {
                for (_, a) in engine.tick() {
                    answered += 1;
                    failed += usize::from(a.is_err());
                }
            }
            let s = engine.stats();
            if json {
                println!("{}", s.to_json());
            } else {
                println!(
                    "served {answered} queries on {p} PEs ({failed} failed, {} batches)",
                    s.batches
                );
                println!(
                    "cache: {} hits / {} misses ({:.1}% hit rate, {} resident entries)",
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_hit_rate() * 100.0,
                    s.cache_entries
                );
                println!(
                    "setup ran {} time(s); queries moved {} msgs / {} words",
                    s.setup_runs, s.query_comm.sent_messages, s.query_comm.sent_words
                );
                println!(
                    "modeled query time {:.3} ms | wall {:.3} ms",
                    s.modeled_seconds_total * 1e3,
                    s.wall_seconds_total * 1e3
                );
                println!(
                    "queue wait p50 {:.3} ms | p99 {:.3} ms | max {:.3} ms",
                    s.queue_wait.p50 * 1e3,
                    s.queue_wait.p99 * 1e3,
                    s.queue_wait.max * 1e3
                );
            }
            if let Some(path) = metrics_out {
                std::fs::write(&path, engine.prometheus()).map_err(|e| e.to_string())?;
                println!("wrote {path}");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_count_from_family() {
        let cmd = parse(&args("count --family rmat --n 1024 --p 8 --alg ditric2")).unwrap();
        match cmd {
            Command::Count {
                source,
                algorithm,
                p,
                ..
            } => {
                assert_eq!(
                    source,
                    Source::Family {
                        family: Family::Rmat,
                        n: 1024,
                        seed: 42
                    }
                );
                assert_eq!(algorithm, Some(Algorithm::Ditric2));
                assert_eq!(p, 8);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parse_seq_algorithm() {
        let cmd = parse(&args("count --family gnm --alg seq")).unwrap();
        assert!(matches!(
            cmd,
            Command::Count {
                algorithm: None,
                ..
            }
        ));
    }

    #[test]
    fn parse_generate_and_info() {
        let cmd = parse(&args("generate --dataset orkut --n 512 -o out.bin")).unwrap();
        assert!(matches!(cmd, Command::Generate { .. }));
        let cmd = parse(&args("info --input g.txt")).unwrap();
        assert_eq!(
            cmd,
            Command::Info {
                source: Source::File("g.txt".into())
            }
        );
    }

    #[test]
    fn parse_overrides() {
        let cmd = parse(&args(
            "count --family gnm --alg ditric --routing grid --delta-factor 0.5",
        ))
        .unwrap();
        match cmd {
            Command::Count { config, .. } => {
                assert_eq!(config.routing, Routing::Grid);
                assert_eq!(
                    config.aggregation,
                    Aggregation::Dynamic { delta_factor: 0.5 }
                );
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse(&args("count")).is_err()); // no source
        assert!(parse(&args("frobnicate --family gnm")).is_err()); // bad verb
        assert!(parse(&args("count --family nope")).is_err());
        assert!(parse(&args("count --family gnm --alg nope")).is_err());
        assert!(parse(&args("generate --input x.txt -o y.txt")).is_err());
        assert!(parse(&args("count --family gnm --model dialup")).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn parse_rejects_non_positive_or_non_finite_delta_factor() {
        for f in ["inf", "NaN", "-1", "0"] {
            let err = parse(&args(&format!("count --family gnm --delta-factor {f}"))).unwrap_err();
            assert!(err.contains("--delta-factor"), "{f}: {err}");
        }
    }

    #[test]
    fn parse_rejects_zero_pes() {
        for verb in "count lcc enumerate serve update profile check".split(' ') {
            let err = parse(&args(&format!("{verb} --family gnm --p 0"))).unwrap_err();
            assert!(err.contains("--p"), "{verb}: {err}");
        }
    }

    /// `--p` above [`MAX_PES`] is a usage error naming the cap. Parse level
    /// only: a count at such a p would start that many threads.
    #[test]
    fn parse_rejects_pes_above_the_cap() {
        for verb in "count lcc enumerate serve update profile check".split(' ') {
            let err = parse(&args(&format!("{verb} --family rmat --p 100000"))).unwrap_err();
            assert!(err.contains("--p") && err.contains("1024"), "{verb}: {err}");
        }
        let at_cap = format!("count --family gnm --p {MAX_PES}");
        assert!(parse(&args(&at_cap)).is_ok());
        let above = format!("count --family gnm --p {}", MAX_PES + 1);
        assert!(parse(&args(&above)).is_err());
    }

    /// `--n` below a family's generator precondition is a usage error that
    /// names the smallest valid `n`, not a panic in the generator.
    #[test]
    fn parse_rejects_n_below_the_family_minimum() {
        for (family, n, min) in [
            ("gnm", 32, 33),
            ("gnm", 1, 33),
            ("rgg2d", 10, 11),
            ("rgg2d", 0, 11),
        ] {
            let err = parse(&args(&format!("count --family {family} --n {n}"))).unwrap_err();
            assert!(
                err.contains(&format!("--n {min} or more")),
                "{family} {n}: {err}"
            );
        }
        for (family, n) in [("gnm", 33), ("rgg2d", 11)] {
            let cmd = parse(&args(&format!("count --family {family} --n {n} --p 2"))).unwrap();
            execute(cmd).unwrap();
        }
    }

    /// A flag the verb never reads is rejected, so a leftover `--kernel` or
    /// a typo fails loudly instead of being ignored.
    #[test]
    fn parse_rejects_flags_the_verb_does_not_read() {
        for (line, key) in [
            ("count --family gnm --kernel merge", "--kernel"),
            ("count --family gnm --timed true", "--timed"),
            (
                "profile --family gnm --alg cetric --kernel auto",
                "--kernel",
            ),
            ("count --family gnm --bogus 3", "--bogus"),
            ("info --family gnm --alg cetric", "--alg"),
            ("lcc --input g.txt --n 64", "--n"),
            ("serve --family gnm --tenants 2", "--tenants"),
            ("serve --family gnm --updates 2", "--updates"),
            ("serve --family gnm --host-workers 2", "--host-workers"),
        ] {
            let err = parse(&args(line)).unwrap_err();
            assert!(
                err.contains(&format!("does not read {key}")),
                "{line}: {err}"
            );
        }
        let err = parse(&args("count --family gnm --input g.txt")).unwrap_err();
        assert!(err.contains("give one input"), "{err}");
    }

    /// Every `tricount` command line in the README and the CI workflow
    /// parses, and so does every inline `tricount …` fragment of DESIGN.md
    /// and EXPERIMENTS.md: the documented flags are flags their verbs read.
    #[test]
    fn documented_command_lines_parse() {
        let mut parsed = 0;
        for doc in [
            include_str!("../../../README.md"),
            include_str!("../../../.github/workflows/ci.yml"),
        ] {
            for line in doc.replace("\\\n", " ").lines() {
                let Some((_, rest)) = line.split_once("--bin tricount -- ") else {
                    continue;
                };
                // the arguments end at a shell comment or pipe
                let argv = args(rest.split(['#', '|']).next().unwrap());
                parse(&argv).unwrap_or_else(|e| panic!("{line}: {e}"));
                parsed += 1;
            }
        }
        assert!(parsed >= 20, "found only {parsed} command lines");

        // Prose names commands in fragments (`tricount profile …
        // --phase-report 1`, `tricount serve --metrics-out`). A fragment
        // gets a value for each bare flag and an input if it names none,
        // so only a flag its verb does not read can fail it.
        let mut fragments = 0;
        for doc in [
            include_str!("../../../DESIGN.md"),
            include_str!("../../../EXPERIMENTS.md"),
        ] {
            for line in doc.lines() {
                for span in line.split('`').skip(1).step_by(2) {
                    let Some(rest) = span.strip_prefix("tricount ") else {
                        continue;
                    };
                    let mut argv: Vec<String> = Vec::new();
                    for tok in rest.split_whitespace().filter(|&t| t != "…") {
                        if tok.starts_with('-') && argv.last().is_some_and(|a| a.starts_with('-')) {
                            argv.push("1".to_string());
                        }
                        argv.push(tok.to_string());
                    }
                    if argv.last().is_some_and(|a| a.starts_with('-')) {
                        argv.push("1".to_string());
                    }
                    if !argv
                        .iter()
                        .any(|a| ["--input", "--family", "--dataset"].contains(&a.as_str()))
                    {
                        argv.extend(["--family".to_string(), "gnm".to_string()]);
                    }
                    parse(&argv).unwrap_or_else(|e| panic!("{line}: `{span}`: {e}"));
                    fragments += 1;
                }
            }
        }
        assert!(fragments >= 5, "found only {fragments} inline fragments");
    }

    #[test]
    fn execute_count_on_generated_graph() {
        let cmd = parse(&args("count --family rgg2d --n 512 --p 4 --alg cetric")).unwrap();
        execute(cmd).unwrap();
    }

    /// A grid-routed count at p = 9 on the threads mesh (every count runs
    /// there).
    #[test]
    fn execute_count_on_threads_transport() {
        let cmd = parse(&args("count --family rmat --n 512 --p 9 --alg ditric2")).unwrap();
        execute(cmd).unwrap();
    }

    #[test]
    fn parse_kernel_overrides() {
        let cmd = parse(&args("count --family gnm --alg cetric --pool-workers 4")).unwrap();
        match cmd {
            Command::Count { config, .. } => {
                assert_eq!(config.kernels.pool_workers, 4);
            }
            _ => panic!("wrong command"),
        }
        // one worker leaves the sequential local phase in place
        let cmd = parse(&args("count --family gnm --alg cetric --pool-workers 1")).unwrap();
        match cmd {
            Command::Count { config, .. } => {
                assert_eq!(config.kernels.pool_workers, 1);
            }
            _ => panic!("wrong command"),
        }
        // profile takes the same override
        let cmd = parse(&args("profile --family gnm --alg cetric --pool-workers 2")).unwrap();
        match cmd {
            Command::Profile { config, .. } => {
                assert_eq!(config.kernels.pool_workers, 2);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse(&args("count --family gnm --pool-workers 0")).is_err());
        assert!(parse(&args("count --family gnm --pool-workers x")).is_err());
    }

    #[test]
    fn execute_count_under_kernel_overrides() {
        for flags in ["--pool-workers 1", "--pool-workers 2"] {
            let cmd = parse(&args(&format!(
                "count --family rgg2d --n 512 --p 4 --alg cetric {flags}"
            )))
            .unwrap();
            execute(cmd).unwrap();
        }
    }

    #[test]
    fn parse_and_execute_serve() {
        let cmd = parse(&args("serve --family rgg2d --n 256 --p 3 --queries 40")).unwrap();
        match &cmd {
            Command::Serve {
                p, queries, json, ..
            } => {
                assert_eq!(*p, 3);
                assert_eq!(*queries, 40);
                assert!(!json);
            }
            _ => panic!("wrong command"),
        }
        execute(cmd).unwrap();
        let cmd = parse(&args(
            "serve --family gnm --n 128 --p 2 --queries 10 --json 1",
        ))
        .unwrap();
        execute(cmd).unwrap();
    }

    #[test]
    fn parse_and_execute_profile() {
        let cmd = parse(&args("profile --family rgg2d --n 256 --p 4 --alg cetric2")).unwrap();
        match &cmd {
            Command::Profile {
                algorithm,
                p,
                chrome_trace,
                phase_report,
                ..
            } => {
                assert_eq!(*algorithm, Algorithm::Cetric2);
                assert_eq!(*p, 4);
                assert!(chrome_trace.is_none());
                assert!(!phase_report);
            }
            _ => panic!("wrong command"),
        }
        execute(cmd).unwrap();
        // seq has no trace to export
        assert!(parse(&args("profile --family gnm --alg seq")).is_err());
    }

    #[test]
    fn profile_exports_both_formats() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("tricount_cli_profile.json");
        let prom_path = dir.join("tricount_cli_profile.prom");
        let cmd = parse(&args(&format!(
            "profile --family rmat --n 512 --p 4 --alg cetric --phase-report 1 \
             --chrome-trace {} --metrics-out {}",
            trace_path.display(),
            prom_path.display()
        )))
        .unwrap();
        execute(cmd).unwrap();
        let json = std::fs::read_to_string(&trace_path).unwrap();
        assert!(json.contains("traceEvents"));
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.contains("tricount_run_pes"));
        std::fs::remove_file(trace_path).ok();
        std::fs::remove_file(prom_path).ok();
    }

    #[test]
    fn profile_on_threads_exports_dual_clock() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("tricount_cli_profile_dual.json");
        let prom_path = dir.join("tricount_cli_profile_dual.prom");
        let cmd = parse(&args(&format!(
            "profile --family rgg2d --n 512 --p 4 --alg cetric \
             --chrome-trace {} --metrics-out {}",
            trace_path.display(),
            prom_path.display()
        )))
        .unwrap();
        // the modeled track draws one flow arrow per delivered message
        let Command::Profile {
            source,
            algorithm,
            p,
            config,
            ..
        } = &cmd
        else {
            panic!("parsed {cmd:?}");
        };
        let dg = tricount_graph::DistGraph::new(&load_source(source).unwrap(), *p);
        let (run, _) = run_on(dg, *algorithm, config, &SimOptions::default()).unwrap();
        let delivered = run.stats.totals().recv_messages;
        assert!(delivered > 0);
        execute(cmd).unwrap();
        let json = std::fs::read_to_string(&trace_path).unwrap();
        assert!(json.contains("traceEvents"));
        assert!(json.contains("measured (wall)"), "missing measured track");
        assert!(json.contains("simulated machine"), "missing modeled track");
        let modeled_flows = json
            .lines()
            .filter(|l| l.contains("\"ph\":\"s\"") && l.contains("\"pid\":0,"))
            .count();
        assert_eq!(modeled_flows as u64, delivered);
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.contains("tricount_run_pes"));
        assert!(prom.contains("tricount_wall_queue_dwell_nanos"));
        assert!(prom.contains("tricount_wall_barrier_spin_seconds"));
        std::fs::remove_file(trace_path).ok();
        std::fs::remove_file(prom_path).ok();
    }

    #[test]
    fn calibration_file_replaces_model_constants() {
        let dir = std::env::temp_dir();
        let cal_path = dir.join("tricount_cli_calibration.json");
        std::fs::write(
            &cal_path,
            "{\"probe\":\"pingpong\",\"alpha_seconds\":1.5e-7,\
             \"beta_seconds_per_word\":2.0e-10}",
        )
        .unwrap();
        let model = apply_calibration(CostModel::supermuc(), cal_path.to_str().unwrap()).unwrap();
        assert!((model.alpha - 1.5e-7).abs() < 1e-12);
        assert!((model.beta - 2.0e-10).abs() < 1e-15);
        assert_eq!(model.t_op, CostModel::supermuc().t_op);

        // allgather reports only the logarithmic alpha
        std::fs::write(&cal_path, "{\"alpha_log_seconds\":3.0e-7}").unwrap();
        let model = apply_calibration(CostModel::cloud(), cal_path.to_str().unwrap()).unwrap();
        assert!((model.alpha - 3.0e-7).abs() < 1e-12);
        assert_eq!(model.beta, CostModel::cloud().beta);

        // not a calibration file at all
        std::fs::write(&cal_path, "{\"foo\":1}").unwrap();
        assert!(apply_calibration(CostModel::supermuc(), cal_path.to_str().unwrap()).is_err());

        // end to end through the count verb
        let cmd = parse(&args(&format!(
            "count --family rgg2d --n 256 --p 2 --alg cetric --calibration {}",
            {
                std::fs::write(
                    &cal_path,
                    "{\"alpha_seconds\":1e-7,\"beta_seconds_per_word\":1e-10}",
                )
                .unwrap();
                cal_path.display()
            }
        )))
        .unwrap();
        execute(cmd).unwrap();
        std::fs::remove_file(cal_path).ok();
    }

    #[test]
    fn parse_and_execute_lcc() {
        let cmd = parse(&args("lcc --family rgg2d --n 256 --p 4 --top 3")).unwrap();
        match &cmd {
            Command::Lcc { p, top, .. } => {
                assert_eq!(*p, 4);
                assert_eq!(*top, 3);
            }
            _ => panic!("wrong command"),
        }
        execute(cmd).unwrap();
    }

    #[test]
    fn calibration_is_discovered_next_to_the_graph() {
        let dir = std::env::temp_dir().join("tricount_cli_autocal");
        std::fs::create_dir_all(&dir).unwrap();
        let graph = dir.join("g.bin");
        let graph_s = graph.to_str().unwrap().to_string();
        execute(
            parse(&args(&format!(
                "generate --family gnm --n 128 -o {graph_s}"
            )))
            .unwrap(),
        )
        .unwrap();

        // no sibling file: nothing is discovered
        let src = Source::File(graph_s.clone());
        assert_eq!(resolve_calibration(None, &src), None);

        // a calibration.json next to the graph is picked up and applied
        let cal = dir.join("calibration.json");
        std::fs::write(
            &cal,
            "{\"alpha_seconds\":1e-7,\"beta_seconds_per_word\":1e-10}",
        )
        .unwrap();
        assert_eq!(
            resolve_calibration(None, &src),
            Some(cal.to_str().unwrap().to_string())
        );
        execute(
            parse(&args(&format!(
                "count --input {graph_s} --p 2 --alg cetric"
            )))
            .unwrap(),
        )
        .unwrap();

        // an explicit --calibration always wins over discovery
        assert_eq!(
            resolve_calibration(Some("explicit.json".into()), &src),
            Some("explicit.json".to_string())
        );

        // generated sources have no directory to search
        assert_eq!(
            resolve_calibration(
                None,
                &Source::Family {
                    family: Family::Gnm,
                    n: 64,
                    seed: 1
                }
            ),
            None
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn serve_writes_metrics_exposition() {
        let dir = std::env::temp_dir();
        let path = dir.join("tricount_cli_serve.prom");
        let cmd = parse(&args(&format!(
            "serve --family rgg2d --n 128 --p 2 --queries 10 --metrics-out {}",
            path.display()
        )))
        .unwrap();
        execute(cmd).unwrap();
        let prom = std::fs::read_to_string(&path).unwrap();
        assert!(prom.contains("tricount_engine_submitted_total"));
        assert!(prom.contains("tricount_engine_queue_wait_seconds"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn parse_and_execute_update() {
        let dir = std::env::temp_dir();
        let path = dir.join("tricount_cli_updates.txt");
        std::fs::write(&path, "# two batches\n+ 0 1\n+ 1 2\n+ 0 2\n\n- 0 1\n").unwrap();
        let cmd = parse(&args(&format!(
            "update --family rgg2d --n 128 --p 2 --batch {}",
            path.display()
        )))
        .unwrap();
        match &cmd {
            Command::Update { p, batch, json, .. } => {
                assert_eq!(*p, 2);
                assert_eq!(batch, path.to_str().unwrap());
                assert!(!json);
            }
            _ => panic!("wrong command"),
        }
        execute(cmd).unwrap();
        // --batch is mandatory; garbage batch files are rejected
        assert!(parse(&args("update --family gnm --n 64")).is_err());
        std::fs::write(&path, "* nope\n").unwrap();
        let cmd = parse(&args(&format!(
            "update --family gnm --n 64 --batch {}",
            path.display()
        )))
        .unwrap();
        assert!(execute(cmd).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn execute_roundtrip_through_file() {
        let dir = std::env::temp_dir();
        let path = dir.join("tricount_cli_test.bin");
        let path_s = path.to_str().unwrap().to_string();
        execute(parse(&args(&format!("generate --family gnm --n 256 -o {path_s}"))).unwrap())
            .unwrap();
        execute(parse(&args(&format!("info --input {path_s}"))).unwrap()).unwrap();
        execute(parse(&args(&format!("count --input {path_s} --p 3 --alg ditric"))).unwrap())
            .unwrap();
        std::fs::remove_file(path).ok();
    }
}
