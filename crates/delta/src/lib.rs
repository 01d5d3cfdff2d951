//! # tricount-delta — dynamic graph updates for the resident pipeline
//!
//! The CETRIC/DITRIC pipeline is one-shot: partition → ghost exchange →
//! orient → contract, then count. The resident engine (PR 2) keeps that
//! prepared state alive across queries but cannot *change* it short of a
//! full rebuild. This crate supplies the data layer of the incremental
//! path:
//!
//! * [`batch`] — edge-update batches ([`UpdateBatch`]) with a canonical
//!   form ([`CanonicalBatch`]): undirected edges normalised to `u < v`,
//!   duplicates collapsed, self-loops dropped, and an insert + delete of
//!   the same edge cancelling to a no-op. Plus a text format (`+ u v` /
//!   `- u v`, blank-line separated batches) for the CLI, and a reference
//!   [`batch::apply_to_csr`] rebuild used by equivalence
//!   tests.
//! * [`overlay`] — the per-PE **mutable adjacency overlay**
//!   ([`Overlay`]): sorted insertion/deletion delta lists layered over the
//!   immutable base [`LocalGraph`](tricount_graph::dist::LocalGraph), a
//!   merged-neighborhood iterator feeding the streaming
//!   `graph::intersect` kernels, refreshed ghost-degree overrides, and
//!   compaction (merging the overlay into a fresh base local graph with
//!   no communication).
//! * [`workload`] — a deterministic mixed insert/delete batch generator
//!   for benches, examples and tests.
//!
//! The distributed delta *protocol* (routing updates to owners, counting
//! the triangle delta with same-batch correction terms, targeted ghost
//! refresh) lives in `tricount-core::dist::delta`; the serving surface
//! (`Engine::apply_updates`) in `tricount-engine`. This crate is pure data
//! structure — it depends only on `tricount-graph`.

#![warn(missing_docs)]

pub mod batch;
pub mod overlay;
pub mod workload;

pub use batch::{
    apply_to_csr, parse_batches, CanonicalBatch, CanonicalOp, EdgeUpdate, UpdateBatch,
};
pub use overlay::Overlay;
pub use workload::random_batch;
