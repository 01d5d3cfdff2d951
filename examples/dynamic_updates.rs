//! Dynamic graphs: stream batched edge insertions and deletions through a
//! resident engine, maintaining the global triangle count incrementally —
//! each batch is routed to its owning PEs, the exact triangle delta is
//! counted as distributed intersections with same-batch corrections, and
//! the batch is folded into fresh prepared state before the new epoch is
//! published, so every epoch queries see is sealed.
//!
//! Run with:
//! ```text
//! cargo run --release --example dynamic_updates
//! ```

use cetric::delta::random_batch;
use cetric::engine::{Engine, EngineConfig};
use cetric::prelude::*;

fn main() {
    // 1. Build the engine once; the baseline count seeds the resident
    //    triangle count that apply_updates maintains from here on.
    let g = cetric::gen::rgg2d_default(3_000, 42);
    let p = 4;
    let engine = Engine::build(&g, EngineConfig::new(p));
    println!(
        "resident: n = {}, m = {} on {p} PEs, {} triangles",
        g.num_vertices(),
        g.num_edges(),
        engine.resident_triangles()
    );

    // 2. A hand-written batch: close one wedge, drop one edge. Inserting a
    //    present edge or deleting an absent one is a counted no-op.
    let mut batch = UpdateBatch::new();
    let hub = (0..g.num_vertices())
        .max_by_key(|&v| g.degree(v))
        .expect("non-empty graph");
    let (a, b) = (g.neighbors(hub)[0], g.neighbors(hub)[1]);
    batch.insert(a, b); // closes the wedge a–hub–b (if absent)
    batch.delete(hub, a);
    let receipt = engine.apply_updates(&batch).expect("ids are in range");
    println!(
        "hand batch: {} ins, {} del, {} noop; triangles {} -> {} ({:+})",
        receipt.inserted,
        receipt.deleted,
        receipt.noops,
        receipt.triangles_before,
        receipt.triangles_after,
        receipt.delta()
    );

    // 3. A stream of random mixed batches. The receipt's comm counters show
    //    each increment moves a tiny fraction of a rebuild's volume.
    let build_words = {
        let s = engine.setup_stats().totals();
        let b = engine.baseline_stats().totals();
        s.sent_words + s.coll_word_units + b.sent_words + b.coll_word_units
    };
    for round in 0..5u64 {
        let batch = random_batch(&g, 20, 100 + round);
        let r = engine.apply_updates(&batch).expect("ids are in range");
        let words = r.comm.sent_words + r.comm.coll_word_units;
        println!(
            "round {round}: {:+} triangles, {words} words ({:.1}% of build)",
            r.delta(),
            100.0 * words as f64 / build_words as f64,
        );
    }

    // 4. Queries see the updated graph (each update published its epoch
    //    sealed), and the incremental count matches the full recount.
    let answer = engine
        .query(Query::GlobalTriangles {
            algorithm: Algorithm::Cetric,
        })
        .expect("resident graph cannot OOM");
    if let QueryAnswer::Count(t) = answer {
        assert_eq!(t, engine.resident_triangles());
        println!("fresh distributed recount agrees: {t} triangles");
    }

    // 5. The text format round-trips through the same path as the CLI's
    //    `tricount update --batch FILE`.
    let batches = parse_batches("+ 0 1\n+ 1 2\n+ 0 2\n\n- 0 1\n").expect("well-formed");
    for b in &batches {
        engine.apply_updates(b).expect("ids are in range");
    }
    let s = engine.stats();
    let folds = s.spans.iter().filter(|sp| sp.label == "seal").count();
    println!(
        "total: {} batches applied, {} ins / {} del / {} noop, {folds} fold(s)",
        s.updates_applied, s.edges_inserted, s.edges_deleted, s.update_noops
    );
}
