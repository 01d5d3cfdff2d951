//! Inputs: made from the seed, written to files, and read back before any
//! timing. The timed code sees only what was read back.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cetric::core::config::Algorithm;
use cetric::delta::{apply_to_csr, parse_batches, random_batch, UpdateBatch};
use cetric::engine::Query;
use cetric::gen::Rng;
use cetric::graph::Csr;

use crate::spec::{Spec, BATCH_OPS, LCC_VERTICES, SUPPORT_EDGES};
use crate::stats::poisson_schedule;

/// What a serving phase needs beyond the graph.
pub struct ServePlan {
    /// Seconds of open-loop arrivals at the workload's rate (0 = none).
    pub open_seconds: f64,
    /// Reads the closed loop may consume; it ends early if they run out.
    pub closed_reads: usize,
    /// Update batches, each generated against the graph its predecessors
    /// leave behind.
    pub batches: usize,
}

/// A scratch directory holding one run's generated files; removed on drop.
pub struct InputDir {
    path: PathBuf,
}

impl InputDir {
    pub fn create(parent: &Path, tag: &str) -> io::Result<InputDir> {
        let path = parent.join(format!("tmp-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(InputDir { path })
    }

    pub fn graph(&self) -> PathBuf {
        self.path.join("graph.bin")
    }

    fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for InputDir {
    fn drop(&mut self) {
        // best effort: a leftover directory is ignored by git and harmless
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Generates the workload's graph into `dir`; returns the seconds the
/// generator took (`gen.generate_s`) and the graph for further inputs.
pub fn write_graph(spec: &Spec, seed: u64, shrink: u32, dir: &InputDir) -> io::Result<(f64, Csr)> {
    let t0 = Instant::now();
    let g = spec.graph.generate(seed, shrink);
    let generate_s = t0.elapsed().as_secs_f64();
    cetric::graph::io::write_binary(std::fs::File::create(dir.graph())?, &g)?;
    Ok((generate_s, g))
}

/// Generates the serving inputs for `plan` against `g` into `dir`, under a
/// file-name `tag` (a run may hold several plans).
pub fn write_serve_plan(
    spec: &Spec,
    seed: u64,
    g: &Csr,
    plan: &ServePlan,
    dir: &InputDir,
    tag: &str,
) -> io::Result<()> {
    let mut rng = Rng::substream(seed, 0x5e7e);
    let edges: Vec<(u64, u64)> = g.edges().collect();
    assert!(
        edges.len() >= SUPPORT_EDGES,
        "graph too small for the read mix"
    );
    let due = if plan.open_seconds > 0.0 {
        poisson_schedule(&mut rng, spec.load.rate, plan.open_seconds)
    } else {
        Vec::new()
    };
    let mut text = String::new();
    let mut globals = 0usize;
    for i in 0..due.len() + plan.closed_reads {
        // closed-loop reads carry no due time
        match due.get(i) {
            Some(t) => {
                let _ = write!(text, "{t}");
            }
            None => text.push('-'),
        }
        let roll = rng.next_below(100);
        if roll < 80 {
            text.push_str(" S");
            let mut picked: Vec<u64> = Vec::with_capacity(SUPPORT_EDGES);
            while picked.len() < SUPPORT_EDGES {
                let e = rng.next_below(edges.len() as u64);
                if !picked.contains(&e) {
                    picked.push(e);
                    let (a, b) = edges[e as usize];
                    let _ = write!(text, " {a} {b}");
                }
            }
        } else if roll < 95 {
            text.push_str(" L");
            for _ in 0..LCC_VERTICES {
                let _ = write!(text, " {}", rng.next_below(g.num_vertices()));
            }
        } else {
            text.push_str(if globals.is_multiple_of(2) {
                " G cetric"
            } else {
                " G ditric"
            });
            globals += 1;
        }
        text.push('\n');
    }
    std::fs::write(dir.file(&format!("{tag}.reads")), text)?;

    let mut text = String::new();
    let mut current = g.clone();
    for i in 0..plan.batches {
        let batch = random_batch(&current, BATCH_OPS, rng.next_u64());
        for op in &batch.ops {
            let (u, v) = op.endpoints();
            let sign = if op.is_insert() { '+' } else { '-' };
            let _ = writeln!(text, "{sign} {u} {v}");
        }
        text.push('\n');
        if i + 1 < plan.batches {
            current = apply_to_csr(&current, &batch.canonicalize());
        }
    }
    std::fs::write(dir.file(&format!("{tag}.updates")), text)
}

/// A plan read back from its files.
pub struct LoadedPlan {
    /// Open-loop reads with their due times in nanoseconds, ascending.
    pub open: Vec<(u64, Query)>,
    /// Closed-loop reads.
    pub closed: Vec<Query>,
    pub batches: Vec<UpdateBatch>,
}

pub fn load_serve_plan(dir: &InputDir, tag: &str) -> io::Result<LoadedPlan> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let text = std::fs::read_to_string(dir.file(&format!("{tag}.reads")))?;
    let mut plan = LoadedPlan {
        open: Vec::new(),
        closed: Vec::new(),
        batches: Vec::new(),
    };
    for line in text.lines() {
        let mut it = line.split_whitespace();
        let mut next = || {
            it.next()
                .ok_or_else(|| bad(format!("short read line {line:?}")))
        };
        let due = next()?;
        let kind = next()?;
        let ids: Vec<&str> = it.collect();
        let id = |s: &str| s.parse::<u64>().map_err(|e| bad(format!("id {s:?}: {e}")));
        let query = match kind {
            "S" => Query::EdgeSupport {
                edges: ids
                    .chunks_exact(2)
                    .map(|ab| Ok((id(ab[0])?, id(ab[1])?)))
                    .collect::<io::Result<_>>()?,
            },
            "L" => Query::VertexLcc {
                vertices: ids.iter().map(|s| id(s)).collect::<io::Result<_>>()?,
            },
            "G" => Query::GlobalTriangles {
                algorithm: match ids.first().copied() {
                    Some("cetric") => Algorithm::Cetric,
                    Some("ditric") => Algorithm::Ditric,
                    other => return Err(bad(format!("unknown algorithm {other:?}"))),
                },
            },
            other => return Err(bad(format!("unknown read kind {other:?}"))),
        };
        if due == "-" {
            plan.closed.push(query);
        } else {
            let due_ns = due
                .parse()
                .map_err(|e| bad(format!("due time {due:?}: {e}")))?;
            plan.open.push((due_ns, query));
        }
    }
    let text = std::fs::read_to_string(dir.file(&format!("{tag}.updates")))?;
    plan.batches = parse_batches(&text).map_err(bad)?;
    Ok(plan)
}
