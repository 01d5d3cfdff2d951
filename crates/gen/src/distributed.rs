//! Communication-free distributed graph generation — the defining property
//! of KaGen (Funke et al.), which the paper relies on for its weak-scaling
//! experiments ("without the need to load them from the file system").
//!
//! [`rgg2d_distributed`] lets every PE compute exactly the part of the graph
//! it owns, with **zero communication**: the unit square is cut into cells
//! with side ≥ r, each cell's points come from an independent substream
//! (Poissonized occupancy, standard for distributed RGG generation), ids are
//! cell-major, and a PE generates only its own cells plus a one-cell halo.
//! Per-PE work is proportional to its own subgraph. The result is
//! partition-count-independent: the same seed yields the same global graph
//! for every `p` (asserted by tests).

use tricount_graph::dist::LocalGraph;
use tricount_graph::{Partition, VertexId};

use crate::rng::Rng;

/// Deterministic cell geometry of the distributed RGG.
#[derive(Debug, Clone)]
pub struct RggLayout {
    /// Cells per side of the unit square.
    pub cells_per_side: usize,
    /// Connection radius.
    pub radius: f64,
    /// Point count of every cell (row-major), identical on every PE.
    pub cell_counts: Vec<u32>,
    /// Exclusive prefix sums of `cell_counts` (id of each cell's first
    /// point), plus the total as last element.
    pub cell_offsets: Vec<u64>,
    lambda: f64,
}

impl RggLayout {
    /// Computes the layout for an expected `n` points at average degree
    /// `avg_deg`. Costs O(#cells); no point coordinates are generated.
    pub fn new(n: u64, avg_deg: f64, seed: u64) -> Self {
        let radius = crate::rgg::radius_for_avg_degree(n, avg_deg);
        let cells_per_side = ((1.0 / radius).floor() as usize).clamp(1, 1 << 12);
        let num_cells = cells_per_side * cells_per_side;
        let lambda = n as f64 / num_cells as f64;
        let mut cell_counts = Vec::with_capacity(num_cells);
        let mut cell_offsets = Vec::with_capacity(num_cells + 1);
        let mut acc = 0u64;
        for cell in 0..num_cells {
            let mut rng = Rng::substream(seed ^ 0x5247_47AA, cell as u64);
            let count = poisson(&mut rng, lambda);
            cell_counts.push(count);
            cell_offsets.push(acc);
            acc += count as u64;
        }
        cell_offsets.push(acc);
        RggLayout {
            cells_per_side,
            radius,
            cell_counts,
            cell_offsets,
            lambda,
        }
    }

    /// Total number of generated points (Poissonized: ≈ n in expectation).
    pub fn num_vertices(&self) -> u64 {
        *self.cell_offsets.last().unwrap()
    }

    /// The (deterministic) coordinates of cell `cell`'s points.
    pub fn points_of(&self, cell: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut rng = Rng::substream(seed ^ 0x5247_47AA, cell as u64);
        let count = poisson(&mut rng, self.lambda());
        debug_assert_eq!(count, self.cell_counts[cell]);
        let cps = self.cells_per_side as f64;
        let (cy, cx) = (cell / self.cells_per_side, cell % self.cells_per_side);
        (0..count)
            .map(|_| {
                let x = (cx as f64 + rng.next_f64()) / cps;
                let y = (cy as f64 + rng.next_f64()) / cps;
                (x, y)
            })
            .collect()
    }

    fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Splits the cells into `p` contiguous row-major blocks with roughly
    /// equal point counts; returns the vertex-id partition (block boundaries
    /// are cell boundaries, so every PE owns whole cells).
    pub fn partition(&self, p: usize) -> (Partition, Vec<usize>) {
        let total = self.num_vertices();
        let num_cells = self.cell_counts.len();
        let mut bounds = vec![0u64];
        let mut cell_bounds = vec![0usize];
        let mut cell = 0usize;
        for i in 1..p {
            let target = total * i as u64 / p as u64;
            while cell < num_cells && self.cell_offsets[cell] < target {
                cell += 1;
            }
            cell_bounds.push(cell);
            bounds.push(self.cell_offsets[cell]);
        }
        cell_bounds.push(num_cells);
        bounds.push(total);
        (Partition::from_bounds(bounds), cell_bounds)
    }
}

/// Knuth's Poisson sampler (fine for the per-cell λ of ~5–40 used here).
fn poisson(rng: &mut Rng, lambda: f64) -> u32 {
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut prod = 1.0;
    loop {
        prod *= rng.next_f64();
        if prod <= l {
            return k;
        }
        k += 1;
    }
}

/// Generates PE `rank`'s local RGG2D subgraph without communication: its own
/// cells plus a one-cell halo. Returns the global partition (identical on
/// every PE) and the local graph.
pub fn rgg2d_distributed(
    layout: &RggLayout,
    p: usize,
    rank: usize,
    seed: u64,
) -> (Partition, LocalGraph) {
    let (part, cell_bounds) = layout.partition(p);
    let cps = layout.cells_per_side;
    let own_cells = cell_bounds[rank]..cell_bounds[rank + 1];
    let r2 = layout.radius * layout.radius;

    // cells to materialise: own cells + all 8-neighborhoods
    let mut needed: Vec<usize> = Vec::new();
    for cell in own_cells.clone() {
        let (cy, cx) = (cell / cps, cell % cps);
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let (ny, nx) = (cy as i64 + dy, cx as i64 + dx);
                if ny >= 0 && nx >= 0 && (ny as usize) < cps && (nx as usize) < cps {
                    needed.push(ny as usize * cps + nx as usize);
                }
            }
        }
    }
    needed.sort_unstable();
    needed.dedup();

    // materialise points of needed cells, keyed by global vertex id
    let mut ids: Vec<VertexId> = Vec::new();
    let mut pts: Vec<(f64, f64)> = Vec::new();
    let mut cell_of_point: Vec<usize> = Vec::new();
    for &cell in &needed {
        let cell_pts = layout.points_of(cell, seed);
        let base = layout.cell_offsets[cell];
        for (i, pt) in cell_pts.into_iter().enumerate() {
            ids.push(base + i as u64);
            pts.push(pt);
            cell_of_point.push(cell);
        }
    }

    // neighborhoods of owned points: scan the 3×3 halo points
    let owned_range = part.range(rank);
    let mut neighborhoods: Vec<(VertexId, Vec<VertexId>)> = Vec::new();
    for (i, &v) in ids.iter().enumerate() {
        if !owned_range.contains(&v) {
            continue;
        }
        let (x, y) = pts[i];
        let mut ns: Vec<VertexId> = Vec::new();
        for (j, &u) in ids.iter().enumerate() {
            if i == j {
                continue;
            }
            // only points in cells adjacent to v's cell can connect
            let (cy, cx) = (cell_of_point[i] / cps, cell_of_point[i] % cps);
            let (oy, ox) = (cell_of_point[j] / cps, cell_of_point[j] % cps);
            if cy.abs_diff(oy) > 1 || cx.abs_diff(ox) > 1 {
                continue;
            }
            let (dx, dy) = (x - pts[j].0, y - pts[j].1);
            if dx * dx + dy * dy <= r2 {
                ns.push(u);
            }
        }
        ns.sort_unstable();
        neighborhoods.push((v, ns));
    }
    (
        part.clone(),
        LocalGraph::from_neighborhoods(part, rank, neighborhoods),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricount_graph::{Csr, EdgeList};

    fn assemble(layout: &RggLayout, p: usize, seed: u64) -> Csr {
        let mut el = EdgeList::new();
        let mut n = 0;
        for rank in 0..p {
            let (part, lg) = rgg2d_distributed(layout, p, rank, seed);
            n = part.num_vertices();
            for v in lg.owned_vertices() {
                for &u in lg.neighbors(v) {
                    el.push(v, u);
                }
            }
        }
        Csr::from_edges(n, &el)
    }

    #[test]
    fn rgg_layout_is_deterministic_and_near_n() {
        let a = RggLayout::new(2000, 16.0, 5);
        let b = RggLayout::new(2000, 16.0, 5);
        assert_eq!(a.cell_counts, b.cell_counts);
        let n = a.num_vertices() as f64;
        assert!((1400.0..2600.0).contains(&n), "poissonized n = {n}");
    }

    #[test]
    fn rgg_distributed_is_partition_independent() {
        let layout = RggLayout::new(800, 12.0, 11);
        let g1 = assemble(&layout, 1, 11);
        let g4 = assemble(&layout, 4, 11);
        let g7 = assemble(&layout, 7, 11);
        assert_eq!(g1, g4);
        assert_eq!(g1, g7);
        g1.validate_symmetric().unwrap();
        assert!(g1.num_edges() > 0);
    }

    #[test]
    fn rgg_distributed_locals_are_mutually_consistent() {
        // every cut edge seen from one side must be seen from the other
        let layout = RggLayout::new(600, 10.0, 3);
        let p = 5;
        let locals: Vec<_> = (0..p)
            .map(|r| rgg2d_distributed(&layout, p, r, 3).1)
            .collect();
        let part = locals[0].partition().clone();
        for lg in &locals {
            for (v, gst) in lg.cut_edges() {
                let owner = part.rank_of(gst);
                assert!(
                    locals[owner].neighbors(gst).contains(&v),
                    "cut edge ({v},{gst}) missing on owner {owner}"
                );
            }
        }
    }

    #[test]
    fn rgg_distributed_counts_triangles_correctly() {
        // end-to-end: distributed generation feeding the distributed counter
        let layout = RggLayout::new(700, 14.0, 9);
        let p = 4;
        let central = assemble(&layout, p, 9);
        let truth = {
            let mut t = 0u64;
            for v in central.vertices() {
                for &u in central.neighbors(v) {
                    if u <= v {
                        continue;
                    }
                    for &w in central.neighbors(u) {
                        if w > u && central.has_edge(v, w) {
                            t += 1;
                        }
                    }
                }
            }
            t
        };
        assert!(truth > 0, "test instance should contain triangles");
        // verify the per-rank locals agree with the assembled graph
        for rank in 0..p {
            let (_, lg) = rgg2d_distributed(&layout, p, rank, 9);
            for v in lg.owned_vertices() {
                assert_eq!(lg.neighbors(v), central.neighbors(v), "vertex {v}");
            }
        }
    }

    #[test]
    fn poisson_mean_is_lambda() {
        let mut rng = Rng::new(3);
        let lambda = 8.0;
        let trials = 5000;
        let sum: u64 = (0..trials).map(|_| poisson(&mut rng, lambda) as u64).sum();
        let mean = sum as f64 / trials as f64;
        assert!((mean - lambda).abs() < 0.3, "poisson mean {mean}");
    }
}
