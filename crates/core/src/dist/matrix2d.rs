//! A 2D, matrix-multiplication-based distributed triangle counter — the
//! algebraic alternative the paper's related work cites (Tom & Karypis' 2D
//! algorithm; Azad, Buluç & Gilbert's masked SpGEMM) and dismisses because
//! "they only scale up to a couple of hundred PEs" (§III-A2).
//!
//! The count is `sum((L·L) ∘ L)` where `L` is the id-oriented adjacency
//! matrix (edge `(u,v)` stored at row `u`, column `v` for `v < u`): the
//! `(i,j)` entry of `L·L` counts paths `i→k→j` with `j < k < i`, and the
//! mask keeps exactly the closed ones — each triangle once.
//!
//! Execution is SUMMA-style on a `q × q` PE grid (`p = q²`): vertices are
//! split into `q` ranges; PE `(I,J)` owns block `L_{I,J}`. In stage `k` the
//! block `L_{I,k}` travels along row `I` and `L_{k,J}` along column `J`;
//! every PE multiplies the pair masked by its own block. Each block is
//! replicated `q−1` times per stage direction, so the total communication
//! volume is `Θ(m·√p)` — *growing* with the machine size. This is precisely
//! the scaling wall the paper attributes to the 2D algorithms, and the
//! reason its own 1D + aggregation + contraction design wins at scale
//! (compare in `scaling_shapes` tests / `ablations` bench).

use tricount_comm::run;
use tricount_graph::hash::FxHashSet;
use tricount_graph::{Csr, Partition, VertexId};

use crate::dist::phases;
use crate::result::CountResult;

/// One sparse block of `L`, stored row-major as `(row, cols...)` lists.
#[derive(Debug, Clone, Default)]
struct Block {
    /// Sorted rows with their sorted column lists.
    rows: Vec<(VertexId, Vec<VertexId>)>,
}

impl Block {
    fn from_edges(mut edges: Vec<(VertexId, VertexId)>) -> Self {
        edges.sort_unstable();
        let mut rows: Vec<(VertexId, Vec<VertexId>)> = Vec::new();
        for (u, v) in edges {
            match rows.last_mut() {
                Some((r, cols)) if *r == u => cols.push(v),
                _ => rows.push((u, vec![v])),
            }
        }
        Block { rows }
    }

    fn to_words(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (r, cols) in &self.rows {
            out.push(*r);
            out.push(cols.len() as u64);
            out.extend_from_slice(cols);
        }
        out
    }

    fn from_words(words: &[u64]) -> Self {
        let mut rows = Vec::new();
        let mut i = 0;
        while i < words.len() {
            let r = words[i];
            let len = words[i + 1] as usize;
            rows.push((r, words[i + 2..i + 2 + len].to_vec()));
            i += 2 + len;
        }
        Block { rows }
    }

    fn cols_of(&self, row: VertexId) -> Option<&[VertexId]> {
        self.rows
            .binary_search_by_key(&row, |(r, _)| *r)
            .ok()
            .map(|i| self.rows[i].1.as_slice())
    }
}

/// Counts triangles with the 2D masked-SpGEMM algorithm on a `q×q` grid.
/// `p` must be a perfect square. Phases: `"preprocessing"` (block setup) and
/// `"global"` (the q SUMMA stages + reduction).
pub fn count_matrix2d(g: &Csr, p: usize) -> CountResult {
    let q = (p as f64).sqrt().round() as usize;
    assert_eq!(q * q, p, "matrix2d requires a square PE count, got {p}");
    let part = Partition::balanced_vertices(g.num_vertices(), q);

    // carve the oriented matrix into q×q blocks (setup outside the timed
    // region, like graph loading)
    let mut blocks: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); p];
    for (a, b) in g.edges() {
        let (v, u) = (a.min(b), a.max(b)); // row u > col v
        let bi = part.rank_of(u);
        let bj = part.rank_of(v);
        blocks[bi * q + bj].push((u, v));
    }
    let blocks: Vec<Block> = blocks.into_iter().map(Block::from_edges).collect();
    let blocks_ref = &blocks;

    let out = run(p, move |ctx| {
        let me = ctx.rank();
        let (bi, bj) = (me / q, me % q);
        let mine = &blocks_ref[me];
        // mask index of the local block for O(1) closed-wedge checks
        let mask: FxHashSet<(VertexId, VertexId)> = mine
            .rows
            .iter()
            .flat_map(|(r, cols)| cols.iter().map(move |&c| (*r, c)))
            .collect();
        ctx.end_phase(phases::PREPROCESSING);

        let mut count = 0u64;
        for stage in 0..q {
            // distribute: the owner of L_{bi,stage} sends along its row,
            // the owner of L_{stage,bj} along its column
            if bj == stage {
                let words = mine.to_words();
                for j in 0..q {
                    if j != bj {
                        let mut payload = vec![0u64]; // tag 0 = row block
                        payload.extend_from_slice(&words);
                        ctx.send_raw(bi * q + j, payload);
                    }
                }
            }
            if bi == stage {
                let words = mine.to_words();
                for i in 0..q {
                    if i != bi {
                        let mut payload = vec![1u64]; // tag 1 = col block
                        payload.extend_from_slice(&words);
                        ctx.send_raw(i * q + bj, payload);
                    }
                }
            }
            // collect the two operands of this stage
            let mut row_block: Option<Block> = if bj == stage {
                Some(mine.clone())
            } else {
                None
            };
            let mut col_block: Option<Block> = if bi == stage {
                Some(mine.clone())
            } else {
                None
            };
            while row_block.is_none() || col_block.is_none() {
                if let Some(msg) = ctx.try_recv_raw() {
                    let block = Block::from_words(&msg.words[1..]);
                    if msg.words[0] == 0 {
                        row_block = Some(block);
                    } else {
                        col_block = Some(block);
                    }
                } else {
                    std::thread::yield_now();
                }
            }
            let a = row_block.unwrap(); // L_{bi, stage}: rows i, cols k
            let b = col_block.unwrap(); // L_{stage, bj}: rows k, cols j
                                        // masked product: for (i,k) in A, (k,j) in B, count if (i,j) in mask
            for (i, ks) in &a.rows {
                for &k in ks {
                    if let Some(js) = b.cols_of(k) {
                        for &j in js {
                            ctx.add_work(1);
                            if mask.contains(&(*i, j)) {
                                count += 1;
                            }
                        }
                    }
                }
            }
            // stages are bulk-synchronous
            ctx.barrier();
        }
        let total = ctx.allreduce_sum(&[count])[0];
        ctx.end_phase(phases::GLOBAL);
        total
    });
    CountResult {
        triangles: out.results[0],
        stats: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use crate::Algorithm;

    #[test]
    fn matches_sequential_on_families() {
        for (g, ps) in [
            (tricount_gen::gnm(300, 2400, 3), vec![1usize, 4, 9]),
            (tricount_gen::rmat_default(8, 5), vec![4, 16]),
            (tricount_gen::rgg2d_default(300, 2), vec![9]),
            (tricount_gen::road_default(300, 1), vec![4]),
        ] {
            let truth = seq::compact_forward(&g).triangles;
            for p in ps {
                let r = count_matrix2d(&g, p);
                assert_eq!(r.triangles, truth, "p={p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "square PE count")]
    fn rejects_non_square_p() {
        let g = tricount_gen::gnm(50, 200, 1);
        let _ = count_matrix2d(&g, 6);
    }

    #[test]
    fn volume_grows_with_sqrt_p_unlike_ditric() {
        // the §III-A2 claim: 2D algebraic counting replicates blocks √p
        // times, so its volume *grows* with the machine while DITRIC's
        // communication stays input-bound
        let g = tricount_gen::gnm(512, 8192, 7);
        let v4 = count_matrix2d(&g, 4).stats.total_volume();
        let v16 = count_matrix2d(&g, 16).stats.total_volume();
        let v64 = count_matrix2d(&g, 64).stats.total_volume();
        assert!(v16 > 3 * v4 / 2, "volume must grow: {v4} → {v16}");
        assert!(v64 > 3 * v16 / 2, "volume must grow: {v16} → {v64}");
        let d16 = crate::dist::count(&g, 16, Algorithm::Ditric, &Algorithm::Ditric.config())
            .unwrap()
            .stats
            .total_volume();
        let d64 = crate::dist::count(&g, 64, Algorithm::Ditric, &Algorithm::Ditric.config())
            .unwrap()
            .stats
            .total_volume();
        // DITRIC's volume saturates near the input size; the 2D scheme keeps
        // climbing past it
        assert!(
            v64 as f64 / d64 as f64 > v16 as f64 / d16 as f64,
            "2D/1D volume ratio must widen with p: {v16}/{d16} vs {v64}/{d64}"
        );
    }

    #[test]
    fn empty_graph_and_p1() {
        let g = Csr::from_edges(10, &tricount_graph::EdgeList::new());
        assert_eq!(count_matrix2d(&g, 1).triangles, 0);
        let tri = {
            let mut el = tricount_graph::EdgeList::from_pairs(vec![(0, 1), (1, 2), (0, 2)]);
            el.canonicalize();
            Csr::from_edges(3, &el)
        };
        assert_eq!(count_matrix2d(&tri, 1).triangles, 1);
        assert_eq!(count_matrix2d(&tri, 4).triangles, 1);
    }
}
