//! Resident threads: once an engine has served its first tick, reads and
//! updates run on threads it already has.

use tricount_delta::{apply_to_csr, UpdateBatch};
use tricount_engine::{
    Engine, EngineConfig, EngineHost, HostConfig, HostRequest, Query, QueryAnswer,
};
use tricount_graph::Csr;

/// Triangles through edge `{u, v}`, counted directly.
fn support(g: &Csr, u: u64, v: u64) -> u64 {
    let nv = g.neighbors(v);
    g.neighbors(u).iter().filter(|w| nv.contains(w)).count() as u64
}

/// Submits one `EdgeSupport` read per edge group and ticks once; checks
/// every answer against `g`. Returns the reads answered.
fn serve_tick(e: &Engine, g: &Csr, groups: &[Vec<(u64, u64)>]) -> usize {
    for edges in groups {
        e.submit(Query::EdgeSupport {
            edges: edges.clone(),
        })
        .expect("admitted");
    }
    let answers = e.tick();
    assert_eq!(answers.len(), groups.len());
    for (_, answer) in answers {
        let QueryAnswer::Support(per_edge) = answer.expect("answered") else {
            panic!("support query answered with another shape");
        };
        for ((u, v), s) in per_edge {
            assert_eq!(s, support(g, u, v), "support of {{{u}, {v}}}");
        }
    }
    groups.len()
}

#[test]
fn reads_start_no_threads_after_warm_up() {
    let p = 2;
    let workers = 2;
    let mut g = tricount_gen::rgg2d_default(1 << 10, 5);
    let mut cfg = EngineConfig::new(p);
    cfg.workers = workers;
    let e = Engine::build(&g, cfg);
    let edges: Vec<(u64, u64)> = g.edges().collect();
    // Distinct edge lists, so every read is a distinct job, never a
    // cache hit.
    let mut next = edges.chunks(2).map(<[_]>::to_vec);

    let mut reads = serve_tick(&e, &g, &[next.next().unwrap()]);
    let warm = e.stats().threads_started;
    assert!(
        warm <= (workers * (p + 1)) as u64,
        "{warm} threads for {workers} runners of {p} ranks"
    );
    let mut many_job_ticks = 0;
    for round in 0..30 {
        // A one-job tick: the ticking thread runs it, handing off nothing.
        reads += serve_tick(&e, &g, &[next.next().unwrap()]);
        // A tick with more jobs than runners.
        let groups: Vec<_> = next.by_ref().take(workers + 2).collect();
        reads += serve_tick(&e, &g, &groups);
        many_job_ticks += 1;
        if round == 10 {
            let mut batch = UpdateBatch::new();
            let (u, v) = edges[0];
            batch.delete(u, v);
            let receipt = e.apply_updates(&batch).expect("valid batch");
            assert_eq!(receipt.deleted, 1);
            g = apply_to_csr(&g, &batch.canonicalize());
        }
        assert_eq!(e.stats().threads_started, warm, "round {round}");
    }
    assert!(reads >= 100);
    assert!(many_job_ticks > 0);
    let s = e.stats();
    assert_eq!(s.threads_started, warm);
    // Every read's run had p rank jobs, the update's run too, and each
    // many-job tick added `workers − 1` helpers.
    let expected = (reads + 1) * p + many_job_ticks * (workers - 1);
    assert_eq!(s.jobs_run as usize, expected);
}

#[test]
fn host_tenants_share_one_executors_threads() {
    let p = 2;
    let mut hcfg = HostConfig::new();
    hcfg.pool_workers = 2;
    let host = EngineHost::new(hcfg);
    let graphs = [
        tricount_gen::rgg2d_default(256, 1),
        tricount_gen::rgg2d_default(300, 2),
    ];
    for (i, g) in graphs.iter().enumerate() {
        host.add_tenant(&format!("t{i}"), g, EngineConfig::new(p))
            .expect("fresh tenant");
    }
    let started = host.tenant_engine("t0").unwrap().stats().threads_started;
    assert_eq!(
        started,
        (2 * (p + 1) - 1) as u64,
        "the second tenant's reservation is already met"
    );
    for round in 0..20 {
        for (i, g) in graphs.iter().enumerate() {
            let (u, v) = g.edges().nth(round).unwrap();
            host.submit(HostRequest::Query {
                tenant: format!("t{i}"),
                query: Query::EdgeSupport {
                    edges: vec![(u, v)],
                },
            })
            .expect("admitted");
        }
        host.drain();
    }
    assert_eq!(host.poll().len(), 40);
    for t in ["t0", "t1"] {
        assert_eq!(
            host.tenant_engine(t).unwrap().stats().threads_started,
            started
        );
    }
}
