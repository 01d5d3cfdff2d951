//! Delta/varint-compressed adjacency arrays, after the compressed-graph
//! processing the paper cites (Dhulipala, Blelloch & Shun, §III-A1): each
//! sorted neighborhood is stored as a varint-encoded first id followed by
//! varint gaps. On graphs with id locality (web crawls, RGG) this shrinks
//! the adjacency data several-fold, trading decode work per intersection —
//! the same space/time trade the large-graph literature makes.

use crate::csr::Csr;
use crate::VertexId;

/// A graph with varint/delta-compressed neighborhoods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedCsr {
    /// Byte offset of each vertex's encoded neighborhood (n+1 entries).
    offsets: Vec<usize>,
    /// Varint stream: per vertex `[degree, first, gap, gap, ...]`.
    data: Vec<u8>,
    n: u64,
    m: u64,
}

#[inline]
fn push_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[inline]
fn read_varint(data: &[u8], pos: &mut usize) -> u64 {
    let mut x = 0u64;
    let mut shift = 0;
    loop {
        let byte = data[*pos];
        *pos += 1;
        x |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return x;
        }
        shift += 7;
    }
}

impl CompressedCsr {
    /// Compresses a CSR graph.
    pub fn from_csr(g: &Csr) -> Self {
        let n = g.num_vertices();
        let mut offsets = Vec::with_capacity(n as usize + 1);
        let mut data = Vec::new();
        offsets.push(0);
        for v in g.vertices() {
            let ns = g.neighbors(v);
            push_varint(&mut data, ns.len() as u64);
            let mut prev = 0u64;
            for (i, &u) in ns.iter().enumerate() {
                if i == 0 {
                    push_varint(&mut data, u);
                } else {
                    // sorted unique → gap ≥ 1; store gap − 1
                    push_varint(&mut data, u - prev - 1);
                }
                prev = u;
            }
            offsets.push(data.len());
        }
        CompressedCsr {
            offsets,
            data,
            n,
            m: g.num_edges(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u64 {
        self.n
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> u64 {
        self.m
    }

    /// Degree of `v` (one varint decode).
    pub fn degree(&self, v: VertexId) -> u64 {
        let mut pos = self.offsets[v as usize];
        read_varint(&self.data, &mut pos)
    }

    /// Iterator over the (sorted) neighborhood of `v`, decoding on the fly.
    pub fn neighbors(&self, v: VertexId) -> NeighborIter<'_> {
        let mut pos = self.offsets[v as usize];
        let remaining = read_varint(&self.data, &mut pos);
        NeighborIter {
            data: &self.data,
            pos,
            remaining,
            prev: 0,
            first: true,
        }
    }

    /// Size of the compressed adjacency data in bytes (excluding offsets).
    pub fn data_bytes(&self) -> usize {
        self.data.len()
    }

    /// Bytes an uncompressed adjacency array (`u64` targets) would need.
    pub fn uncompressed_bytes(&self) -> usize {
        2 * self.m as usize * std::mem::size_of::<VertexId>()
    }

    /// Decompresses back to a plain CSR.
    pub fn to_csr(&self) -> Csr {
        let lists: Vec<Vec<VertexId>> = (0..self.n).map(|v| self.neighbors(v).collect()).collect();
        Csr::from_neighbor_lists(lists)
    }
}

/// Streaming decoder over one neighborhood.
#[derive(Debug, Clone)]
pub struct NeighborIter<'a> {
    data: &'a [u8],
    pos: usize,
    remaining: u64,
    prev: u64,
    first: bool,
}

impl Iterator for NeighborIter<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let raw = read_varint(self.data, &mut self.pos);
        let val = if self.first {
            self.first = false;
            raw
        } else {
            self.prev + raw + 1
        };
        self.prev = val;
        Some(val)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;
    use crate::intersect::{merge_count, merge_count_iter};

    fn sample() -> Csr {
        let mut el =
            EdgeList::from_pairs(vec![(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)]);
        el.canonicalize();
        Csr::from_edges(5, &el)
    }

    #[test]
    fn roundtrip_is_exact() {
        let g = sample();
        let c = CompressedCsr::from_csr(&g);
        assert_eq!(c.num_vertices(), g.num_vertices());
        assert_eq!(c.num_edges(), g.num_edges());
        assert_eq!(c.to_csr(), g);
        for v in g.vertices() {
            assert_eq!(c.degree(v), g.degree(v));
            let decoded: Vec<u64> = c.neighbors(v).collect();
            assert_eq!(decoded, g.neighbors(v));
        }
    }

    #[test]
    fn varint_edge_values() {
        let mut buf = Vec::new();
        for x in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            buf.clear();
            push_varint(&mut buf, x);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), x);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn compression_wins_on_local_ids() {
        // chain graph: all gaps are 1 → one byte per edge endpoint
        let n = 2000u64;
        let mut el = EdgeList::from_pairs((0..n - 1).map(|v| (v, v + 1)).collect());
        el.canonicalize();
        let g = Csr::from_edges(n, &el);
        let c = CompressedCsr::from_csr(&g);
        assert!(
            c.data_bytes() * 4 < c.uncompressed_bytes(),
            "compressed {} vs raw {}",
            c.data_bytes(),
            c.uncompressed_bytes()
        );
    }

    #[test]
    fn streaming_intersection_matches_slice_intersection() {
        let g = sample();
        let c = CompressedCsr::from_csr(&g);
        for v in g.vertices() {
            for u in g.vertices() {
                let (want, _) = merge_count(g.neighbors(v), g.neighbors(u));
                let (got, _) = merge_count_iter(c.neighbors(v), c.neighbors(u));
                assert_eq!(got, want, "({v},{u})");
            }
        }
    }

    #[test]
    fn empty_neighborhoods() {
        let g = Csr::from_edges(3, &EdgeList::new());
        let c = CompressedCsr::from_csr(&g);
        assert_eq!(c.degree(1), 0);
        assert_eq!(c.neighbors(1).count(), 0);
        assert_eq!(c.to_csr(), g);
    }
}
