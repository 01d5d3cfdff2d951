//! Named engines behind one reply queue: the round trip
//! `submit → drain → poll`.
//!
//! [`EngineHost`] is kept only for the benchmark driver in `benchmark/`,
//! which times one query's trip through it (`host.noop_roundtrip_s`). Each
//! tenant is an ordinary [`Engine`] from [`Engine::build`]; the host adds
//! no serve loop, no admission budget beyond each engine's own queue, and
//! no metrics of its own. [`drain`](EngineHost::drain) ticks on the calling
//! thread.

use std::collections::BTreeMap;
use std::sync::Mutex;

use tricount_graph::Csr;

use crate::query::{EngineError, Query, QueryAnswer, TicketId};
use crate::{Engine, EngineConfig};

/// Configuration of an [`EngineHost`]. It has no settings.
#[derive(Debug, Clone, Default)]
pub struct HostConfig;

impl HostConfig {
    /// The (only) host configuration.
    pub fn new() -> HostConfig {
        HostConfig
    }
}

/// A request routed to a tenant engine.
#[derive(Debug, Clone)]
pub enum HostRequest {
    /// A read, answered at the next [`drain`](EngineHost::drain).
    Query {
        /// Tenant to route to.
        tenant: String,
        /// The query.
        query: Query,
    },
}

/// A completed request, handed back by [`EngineHost::poll`].
#[derive(Debug, Clone)]
pub enum HostReply {
    /// A query answer.
    Answer {
        /// Tenant the query ran against.
        tenant: String,
        /// Ticket returned by the accepting submit.
        ticket: TicketId,
        /// Epoch the answer was computed at (the one pinned at admission).
        epoch: u64,
        /// The answer.
        result: Result<QueryAnswer, EngineError>,
    },
}

/// Why the host refused a request.
#[derive(Debug, Clone, PartialEq)]
pub enum HostError {
    /// No tenant under that name.
    UnknownTenant {
        /// The name requested.
        tenant: String,
    },
    /// A tenant under that name already exists.
    DuplicateTenant {
        /// The name requested.
        tenant: String,
    },
    /// The tenant engine itself rejected the submission.
    Engine(EngineError),
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant:?}"),
            HostError::DuplicateTenant { tenant } => write!(f, "tenant {tenant:?} already exists"),
            HostError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for HostError {}

/// Tenant engines by name, and the answers not yet polled.
pub struct EngineHost {
    tenants: Mutex<BTreeMap<String, Engine>>,
    replies: Mutex<Vec<HostReply>>,
}

impl EngineHost {
    /// Creates a host with no tenants.
    pub fn new(_cfg: HostConfig) -> EngineHost {
        EngineHost {
            tenants: Mutex::new(BTreeMap::new()),
            replies: Mutex::new(Vec::new()),
        }
    }

    /// Builds `g` into a resident engine registered as `name`.
    pub fn add_tenant(&self, name: &str, g: &Csr, cfg: EngineConfig) -> Result<(), HostError> {
        let mut tenants = self.tenants.lock().expect("tenants lock");
        if tenants.contains_key(name) {
            return Err(HostError::DuplicateTenant {
                tenant: name.to_string(),
            });
        }
        tenants.insert(name.to_string(), Engine::build(g, cfg));
        Ok(())
    }

    /// Admits a query on its tenant's engine and returns the ticket; the
    /// answer arrives via [`poll`](Self::poll) after a
    /// [`drain`](Self::drain).
    pub fn submit(&self, request: HostRequest) -> Result<TicketId, HostError> {
        let HostRequest::Query { tenant, query } = request;
        let tenants = self.tenants.lock().expect("tenants lock");
        let engine = tenants
            .get(&tenant)
            .ok_or(HostError::UnknownTenant { tenant })?;
        engine.submit(query).map_err(HostError::Engine)
    }

    /// Ticks every tenant with queued queries on the calling thread until
    /// every queue is empty. Returns the number of ticks run.
    pub fn drain(&self) -> usize {
        let tenants = self.tenants.lock().expect("tenants lock");
        let mut ticks = 0;
        for (tenant, engine) in tenants.iter() {
            while engine.queue_depth() > 0 {
                let answers = engine.tick_pinned();
                ticks += 1;
                let mut replies = self.replies.lock().expect("replies lock");
                replies.extend(answers.into_iter().map(|(ticket, epoch, result)| {
                    HostReply::Answer {
                        tenant: tenant.clone(),
                        ticket,
                        epoch,
                        result,
                    }
                }));
            }
        }
        ticks
    }

    /// Hands back every answer drained so far.
    pub fn poll(&self) -> Vec<HostReply> {
        std::mem::take(&mut *self.replies.lock().expect("replies lock"))
    }
}
