//! The host's round trip: answers route to the right tenant, and names are
//! checked on add and on submit.

use tricount_core::config::Algorithm;
use tricount_core::seq;
use tricount_engine::{
    EngineConfig, EngineHost, HostConfig, HostError, HostReply, HostRequest, Query, QueryAnswer,
};
use tricount_graph::Csr;

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

/// Two tenants with different graphs in one host: answers route to the
/// right tenant and bit-match each tenant's own graph.
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

    host.submit(global("alpha")).expect("admitted");
    host.submit(global("beta")).expect("admitted");
    match host.submit(global("nobody")) {
        Err(HostError::UnknownTenant { tenant }) => assert_eq!(tenant, "nobody"),
        other => panic!("expected UnknownTenant, got {other:?}"),
    }

    assert_eq!(host.drain(), 2, "one tick per tenant");
    let replies = host.poll();
    assert_eq!(replies.len(), 2);
    for reply in replies {
        let HostReply::Answer { tenant, result, .. } = reply;
        let expected = match tenant.as_str() {
            "alpha" => count_of(&ga),
            "beta" => count_of(&gb),
            other => panic!("unexpected tenant {other}"),
        };
        assert_eq!(result.expect("answers"), QueryAnswer::Count(expected));
    }
    assert!(host.poll().is_empty(), "poll hands each answer back once");
}
