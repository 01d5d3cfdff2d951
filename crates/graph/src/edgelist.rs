//! Undirected edge lists and the normalisation pipeline used before building
//! a [`Csr`](crate::Csr).
//!
//! The paper's preprocessing (§V-C): directed inputs are interpreted as
//! undirected, and duplicate edges and self-loops are dropped.
//! [`EdgeList::canonicalize`] implements that pipeline.
//! [`Csr::from_edges`](crate::Csr::from_edges) applies it on its own, so a
//! list need not be canonical to be built.

use crate::VertexId;

/// An undirected edge list. Edges are stored as `(u, v)` pairs; the list may
/// be unnormalised (duplicates, self loops, both orientations) until
/// [`EdgeList::canonicalize`] is called.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeList {
    edges: Vec<(VertexId, VertexId)>,
}

impl EdgeList {
    /// Creates an empty edge list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an edge list from raw pairs (possibly unnormalised).
    pub fn from_pairs(edges: Vec<(VertexId, VertexId)>) -> Self {
        Self { edges }
    }

    /// Adds a single (possibly unnormalised) edge.
    pub fn push(&mut self, u: VertexId, v: VertexId) {
        self.edges.push((u, v));
    }

    /// Number of stored pairs (before canonicalisation this may include
    /// duplicates and self loops).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the list contains no pairs.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The raw pairs.
    pub fn pairs(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// Normalises to a canonical undirected simple graph edge list:
    /// each edge appears exactly once as `(min, max)`, self loops are
    /// removed, and the list is sorted.
    pub fn canonicalize(&mut self) {
        for e in &mut self.edges {
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
        }
        self.edges.retain(|&(u, v)| u != v);
        self.edges.sort_unstable();
        self.edges.dedup();
    }

    /// Largest vertex id referenced plus one, i.e. the number of vertices of
    /// the graph *including* isolated ids below the maximum. Zero if empty;
    /// `None` when the largest id is `u64::MAX`, which no count can cover.
    pub fn num_vertices(&self) -> Option<u64> {
        self.edges
            .iter()
            .map(|&(u, v)| u.max(v))
            .max()
            .map_or(Some(0), |max| max.checked_add(1))
    }
}

impl FromIterator<(VertexId, VertexId)> for EdgeList {
    fn from_iter<I: IntoIterator<Item = (VertexId, VertexId)>>(iter: I) -> Self {
        Self {
            edges: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalize_dedups_and_orients() {
        let mut el = EdgeList::from_pairs(vec![(2, 1), (1, 2), (1, 1), (0, 2), (2, 0)]);
        el.canonicalize();
        assert_eq!(el.pairs(), &[(0, 2), (1, 2)]);
    }

    #[test]
    fn canonicalize_empty() {
        let mut el = EdgeList::new();
        el.canonicalize();
        assert!(el.is_empty());
        assert_eq!(el.num_vertices(), Some(0));
    }

    #[test]
    fn num_vertices_counts_to_max_id() {
        let mut el = EdgeList::from_pairs(vec![(0, 5)]);
        el.canonicalize();
        assert_eq!(el.num_vertices(), Some(6));
    }

    #[test]
    fn self_loops_only_yields_empty() {
        let mut el = EdgeList::from_pairs(vec![(3, 3), (4, 4)]);
        el.canonicalize();
        assert!(el.is_empty());
    }
}
