//! Multi-tenant serving acceptance: tenant isolation over one shared
//! executor, two-level admission (global budget + per-tenant quota), the
//! background serve loop, and the per-tenant-labelled Prometheus surface.

use tricount_core::config::Algorithm;
use tricount_core::seq;
use tricount_delta::{apply_to_csr, UpdateBatch};
use tricount_engine::{
    EngineConfig, EngineHost, HostConfig, HostError, HostReply, HostRequest, Query, QueryAnswer,
};
use tricount_graph::Csr;
use tricount_obs::parse_exposition;

fn count_of(g: &Csr) -> u64 {
    seq::compact_forward(g).triangles
}

fn global(tenant: &str) -> HostRequest {
    HostRequest::Query {
        tenant: tenant.to_string(),
        query: Query::GlobalTriangles {
            algorithm: Algorithm::Cetric,
        },
    }
}

/// Two tenants with different graphs on one shared executor: answers route to
/// the right tenant and bit-match each tenant's own graph.
#[test]
fn tenants_are_isolated_over_one_pool() {
    let ga = tricount_gen::rgg2d_default(200, 3);
    let gb = tricount_gen::gnm(64, 256, 42);
    let host = EngineHost::new(HostConfig::new());
    host.add_tenant("alpha", &ga, EngineConfig::new(4))
        .expect("fresh name");
    host.add_tenant("beta", &gb, EngineConfig::new(2))
        .expect("fresh name");
    assert_eq!(
        host.add_tenant("alpha", &gb, EngineConfig::new(1)),
        Err(HostError::DuplicateTenant {
            tenant: "alpha".into()
        })
    );

    host.submit(global("alpha"))
        .expect("admitted")
        .expect("query ticket");
    host.submit(global("beta")).expect("admitted");
    match host.submit(global("nobody")) {
        Err(HostError::UnknownTenant { tenant }) => assert_eq!(tenant, "nobody"),
        other => panic!("expected UnknownTenant, got {other:?}"),
    }

    assert!(host.drain() >= 2, "both tick jobs execute");
    let replies = host.poll();
    assert_eq!(replies.len(), 2);
    for reply in replies {
        let HostReply::Answer { tenant, result, .. } = reply else {
            panic!("expected answers");
        };
        let expected = match tenant.as_str() {
            "alpha" => count_of(&ga),
            "beta" => count_of(&gb),
            other => panic!("unexpected tenant {other}"),
        };
        assert_eq!(result.expect("answers"), QueryAnswer::Count(expected));
    }

    let s = host.stats();
    assert_eq!(s.tenants, 2);
    assert_eq!(s.inflight, 0);
    for t in &s.per_tenant {
        assert_eq!(t.submitted, 1, "tenant {}", t.tenant);
        assert_eq!(t.answered, 1, "tenant {}", t.tenant);
        assert_eq!(t.inflight, 0, "tenant {}", t.tenant);
    }
}

/// Per-tenant quota and global budget both reject with explicit
/// backpressure, and the rejection is counted against the right tenant.
#[test]
fn quotas_and_global_budget_reject_with_backpressure() {
    let g = tricount_gen::gnm(48, 128, 7);
    let mut cfg = HostConfig::new();
    cfg.tenant_quota = 2;
    cfg.global_inflight = 3;
    let host = EngineHost::new(cfg);
    host.add_tenant("a", &g, EngineConfig::new(1))
        .expect("fresh name");
    host.add_tenant("b", &g, EngineConfig::new(1))
        .expect("fresh name");

    // Tenant quota: a's third concurrent query is rejected.
    host.submit(global("a")).expect("under quota");
    host.submit(global("a")).expect("under quota");
    match host.submit(global("a")) {
        Err(HostError::Overloaded {
            tenant,
            inflight,
            limit,
            global,
        }) => {
            assert_eq!(
                (tenant.as_str(), inflight, limit, global),
                ("a", 2, 2, false)
            );
        }
        other => panic!("expected tenant-quota rejection, got {other:?}"),
    }

    // Global budget: b is under its own quota but the process is full.
    host.submit(global("b")).expect("under global budget");
    match host.submit(global("b")) {
        Err(HostError::Overloaded { global, .. }) => assert!(global, "global budget rejected"),
        other => panic!("expected global rejection, got {other:?}"),
    }

    let s = host.stats();
    assert_eq!(s.inflight, 3);
    let rejected: u64 = s.per_tenant.iter().map(|t| t.rejected).sum();
    assert_eq!(rejected, 2);

    // Draining frees the budgets: the same submissions are admitted again.
    host.drain();
    assert_eq!(host.poll().len(), 3);
    host.submit(global("a")).expect("budget freed");
    host.drain();
}

/// The background serve loop answers queries and applies updates from
/// worker threads; with 2+ workers a tenant's reads overlap its own
/// update. Answers stay bit-equal to the per-epoch serial oracle.
#[test]
fn serve_loop_answers_reads_during_updates() {
    let g = tricount_gen::rgg2d_default(220, 9);
    let mut cfg = HostConfig::new();
    cfg.serve_workers = 3;
    cfg.global_inflight = 256;
    cfg.tenant_quota = 128;
    let host = EngineHost::new(cfg);
    host.add_tenant("t", &g, EngineConfig::new(4))
        .expect("fresh name");

    // Truth per epoch: the serial CSR after each batch.
    let mut truth = vec![count_of(&g)];
    let mut cur = g.clone();
    let mut batches = Vec::new();
    for i in 0..3u64 {
        let mut b = UpdateBatch::new();
        b.insert(3 * i, 3 * i + 41);
        b.insert(3 * i + 1, 3 * i + 67);
        b.delete(i, i + 2);
        cur = apply_to_csr(&cur, &b.canonicalize());
        truth.push(count_of(&cur));
        batches.push(b);
    }

    let handle = host.serve();
    let mut submitted = 0u64;
    for b in batches {
        for _ in 0..4 {
            if host.submit(global("t")).is_ok() {
                submitted += 1;
            }
        }
        host.submit(HostRequest::Update {
            tenant: "t".to_string(),
            batch: b,
        })
        .expect("updates always enqueue");
    }
    handle.stop();
    host.drain(); // deterministic flush of anything still queued
    let replies = host.poll();

    let mut answers = 0u64;
    let mut receipts = 0u64;
    for reply in replies {
        match reply {
            HostReply::Answer { epoch, result, .. } => {
                answers += 1;
                assert_eq!(
                    result.expect("answers"),
                    QueryAnswer::Count(truth[epoch as usize]),
                    "answer bit-equals the oracle at its pinned epoch {epoch}"
                );
            }
            HostReply::Receipt { result, .. } => {
                receipts += 1;
                let r = result.expect("valid batches");
                assert_eq!(r.triangles_after, truth[r.epoch as usize]);
            }
        }
    }
    assert_eq!(answers, submitted, "every admitted query was answered");
    assert_eq!(receipts, 3, "every update produced a receipt");
    let s = host.stats();
    assert_eq!(s.inflight, 0);
    assert_eq!(s.per_tenant[0].updates, 3);
    assert_eq!(
        host.tenant_engine("t")
            .expect("exists")
            .resident_triangles(),
        *truth.last().expect("nonempty")
    );
}

/// Regression: queries submitted directly on a tenant engine handle are
/// answered by host ticks too, so a tick can answer more tickets than the
/// host admitted. The global in-flight counter must saturate at zero
/// instead of wrapping to ~u64::MAX — a wrapped counter rejected every
/// later submission as globally overloaded, permanently.
#[test]
fn direct_engine_submits_do_not_wrap_the_global_budget() {
    let g = tricount_gen::gnm(48, 160, 11);
    let host = EngineHost::new(HostConfig::new());
    host.add_tenant("t", &g, EngineConfig::new(2))
        .expect("fresh name");

    // One ticket the host never admitted, one it did: the host tick
    // answers both in a single batch.
    let engine = host.tenant_engine("t").expect("exists");
    engine
        .submit(Query::GlobalTriangles {
            algorithm: Algorithm::Ditric,
        })
        .expect("engine admission");
    host.submit(global("t")).expect("host admission");
    host.drain();

    let s = host.stats();
    assert_eq!(s.inflight, 0, "counter saturates instead of wrapping");
    host.submit(global("t"))
        .expect("admission still works after over-answering");
    host.drain();
    assert_eq!(host.stats().inflight, 0);
}

/// The host's Prometheus exposition parses and carries per-tenant labels
/// for the serving counters and the epoch-lifecycle gauges.
#[test]
fn prometheus_carries_per_tenant_labels() {
    let g = tricount_gen::gnm(48, 160, 3);
    let host = EngineHost::new(HostConfig::new());
    host.add_tenant("red", &g, EngineConfig::new(2))
        .expect("fresh name");
    host.add_tenant("blue", &g, EngineConfig::new(2))
        .expect("fresh name");
    host.submit(global("red")).expect("admitted");
    host.drain();
    host.poll();

    let text = host.prometheus();
    let samples = parse_exposition(&text).expect("exposition parses");
    let labelled = |name: &str, tenant: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.labels.iter().any(|(k, v)| k == "tenant" && v == tenant))
            .unwrap_or_else(|| panic!("missing {name}{{tenant={tenant}}}"))
            .value
    };
    assert_eq!(labelled("tricount_host_submitted_total", "red"), 1.0);
    assert_eq!(labelled("tricount_host_submitted_total", "blue"), 0.0);
    assert_eq!(labelled("tricount_host_answered_total", "red"), 1.0);
    assert_eq!(labelled("tricount_host_tenant_epochs_live", "red"), 1.0);
    assert_eq!(labelled("tricount_host_tenant_readers_pinned", "red"), 0.0);
    assert!(labelled("tricount_host_tenant_resident_triangles", "blue") >= 0.0);
    let tenants = samples
        .iter()
        .find(|s| s.name == "tricount_host_tenants")
        .expect("global gauge");
    assert_eq!(tenants.value, 2.0);
}
