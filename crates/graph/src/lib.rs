//! Graph substrate for the distributed triangle counting reproduction.
//!
//! This crate provides everything the algorithms in `tricount-core` need to
//! *represent* graphs, both sequentially and as 1D-partitioned distributed
//! graphs in the sense of Sanders & Uhl (IPDPS 2023), §II-B:
//!
//! * [`Csr`] — the *adjacency array* format: neighborhoods stored compressed
//!   in two arrays, neighborhoods sorted by vertex id.
//! * [`EdgeList`] utilities — deduplication, symmetrization, self-loop
//!   removal, isolated-vertex removal (the paper removes degree-0 vertices).
//! * [`Ordering`](ordering) — the degree-based total order `≺` used by
//!   COMPACT-FORWARD-style orientation, and plain id order.
//! * [`Partition`] — contiguous (globally id-sorted) 1D vertex partitions,
//!   balanced by edge count (the default of `DistGraph::new`), by vertex
//!   count (the paper's ID partition) or by a degree cost function.
//! * [`LocalGraph`] — the per-PE view: owned vertices with
//!   full neighborhoods, *ghost* vertices, *interface* vertices, *cut edges*,
//!   the *expanded local graph* (ghost neighborhoods rewired from incoming
//!   cut edges) and the *contraction* to the cut graph `∂G` (paper §IV-C).
//! * [`intersect`] — counting merge/gallop/binary intersections of sorted id
//!   lists, instrumented so callers can meter local work in "candidate
//!   comparisons".
//! * [`kernels`] — the adaptive dispatch layer above [`intersect`]: a
//!   [`kernels::Dispatcher`] picks merge vs galloping vs binary probing by
//!   a size-ratio cost model, plus degree-aware chunk planning for intra-PE
//!   parallel counting.
//!
//! Vertex ids are global `u64` machine words, matching the machine-word
//! based communication-volume accounting of the paper, wherever they cross
//! a PE boundary. Inside a PE the oriented and contracted graphs number
//! the vertices they can see densely ([`dist::DenseIds`], `u32`), so a
//! head lookup is an array index and a [`kernels::Marker`] flag array
//! stays `O(|E_i|)`; the kernels are generic over both id types.

#![warn(missing_docs)]

pub mod csr;
pub mod dist;
pub mod edgelist;
pub mod hash;
pub mod intersect;
pub mod io;
pub mod kernels;
pub mod ordering;
pub mod partition;
pub mod stats;

pub use csr::Csr;
pub use dist::{DenseIds, DistGraph, GhostInfo, LocalGraph, LocalId};
pub use edgelist::EdgeList;
pub use ordering::{OrdKey, OrderingKind};
pub use partition::Partition;

/// A global vertex identifier (one machine word, as in the paper's model).
pub type VertexId = u64;
