//! MVCC epoch snapshots and their lifecycle.
//!
//! Every committed graph state is an immutable [`EpochSnapshot`]: the
//! prepared per-rank state (CSR + orientation + contraction), the degree
//! vector and the resident triangle count. Every snapshot is published
//! sealed — an update folds its deltas into fresh prepared state before
//! publication — so queries run on it as it stands. Queries *pin* the
//! snapshot they were admitted on and run against it to completion, no
//! matter how many update batches commit in the meantime — reads never
//! block on writes, and never observe a mid-batch state.
//!
//! The [`EpochTable`] tracks the live snapshots with a reader count per
//! epoch. A superseded epoch is retired — dropped from the table, its
//! lifetime recorded — the moment its last reader drains; the current
//! epoch is never retired.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tricount_core::dist::residency::PreparedRank;
use tricount_obs::{LogHistogram, Summary};

/// One immutable committed graph state.
pub(crate) struct EpochSnapshot {
    /// The epoch this snapshot was published as.
    pub epoch: u64,
    /// Per-rank prepared state serving this epoch (shared with older
    /// epochs until an update folds a batch into new state).
    pub ranks: Arc<Vec<PreparedRank>>,
    /// Degree vector of the snapshot's graph.
    pub degrees: Arc<Vec<u64>>,
    /// Exact global triangle count of the snapshot's graph.
    pub triangles: u64,
}

struct EpochEntry {
    snapshot: Arc<EpochSnapshot>,
    readers: u64,
    published: Instant,
}

/// Epoch-lifecycle gauges, snapshotted by [`EpochTable::counts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EpochCounts {
    /// Epochs currently in the table (current + pinned history).
    pub live: u64,
    /// Epochs retired since the engine was built.
    pub retired: u64,
    /// Readers currently pinning a snapshot.
    pub readers_pinned: u64,
}

struct TableInner {
    entries: BTreeMap<u64, EpochEntry>,
    current: u64,
    retired: u64,
    /// Retired-epoch lifetimes (publish → retire), nanoseconds.
    lifetime: LogHistogram,
}

impl TableInner {
    /// Drops every non-current epoch whose last reader has drained,
    /// recording its lifetime. Returns the retired epoch numbers so the
    /// caller can prune per-epoch result-cache entries.
    fn sweep(&mut self) -> Vec<u64> {
        let current = self.current;
        let dead: Vec<u64> = self
            .entries
            .iter()
            .filter(|(e, entry)| **e != current && entry.readers == 0)
            .map(|(e, _)| *e)
            .collect();
        for e in &dead {
            if let Some(entry) = self.entries.remove(e) {
                self.retired += 1;
                self.lifetime
                    .record_seconds(entry.published.elapsed().as_secs_f64());
            }
        }
        dead
    }
}

/// The live epochs with their reader pins — the MVCC retire list.
pub(crate) struct EpochTable {
    inner: Mutex<TableInner>,
}

impl EpochTable {
    pub(crate) fn new(first: EpochSnapshot) -> EpochTable {
        let epoch = first.epoch;
        let mut entries = BTreeMap::new();
        entries.insert(
            epoch,
            EpochEntry {
                snapshot: Arc::new(first),
                readers: 0,
                published: Instant::now(),
            },
        );
        EpochTable {
            inner: Mutex::new(TableInner {
                entries,
                current: epoch,
                retired: 0,
                lifetime: LogHistogram::default(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TableInner> {
        self.inner.lock().expect("epoch table lock")
    }

    /// The current (tip) snapshot.
    pub(crate) fn current(&self) -> Arc<EpochSnapshot> {
        let t = self.lock();
        t.entries[&t.current].snapshot.clone()
    }

    /// The current epoch number.
    pub(crate) fn current_epoch(&self) -> u64 {
        self.lock().current
    }

    /// Pins the current snapshot for a newly admitted reader.
    pub(crate) fn pin(&self) -> Arc<EpochSnapshot> {
        let mut t = self.lock();
        let current = t.current;
        let entry = t.entries.get_mut(&current).expect("current epoch present");
        entry.readers += 1;
        entry.snapshot.clone()
    }

    /// Drops one reader pin from `epoch`. Retires every drained
    /// non-current epoch and returns their numbers (result-cache entries
    /// keyed by them are unreachable now).
    pub(crate) fn unpin(&self, epoch: u64) -> Vec<u64> {
        let mut t = self.lock();
        if let Some(entry) = t.entries.get_mut(&epoch) {
            entry.readers = entry.readers.saturating_sub(1);
        }
        t.sweep()
    }

    /// Publishes `snapshot` as the new current epoch and retires every
    /// older epoch whose readers have already drained (the common case:
    /// the previous tip retires immediately when nothing pins it).
    /// Returns the retired epoch numbers.
    pub(crate) fn publish(&self, snapshot: EpochSnapshot) -> Vec<u64> {
        let mut t = self.lock();
        let epoch = snapshot.epoch;
        debug_assert!(epoch > t.current, "epochs advance monotonically");
        t.entries.insert(
            epoch,
            EpochEntry {
                snapshot: Arc::new(snapshot),
                readers: 0,
                published: Instant::now(),
            },
        );
        t.current = epoch;
        t.sweep()
    }

    /// Lifecycle gauges: live epochs, retired epochs, pinned readers.
    pub(crate) fn counts(&self) -> EpochCounts {
        let t = self.lock();
        EpochCounts {
            live: t.entries.len() as u64,
            retired: t.retired,
            readers_pinned: t.entries.values().map(|e| e.readers).sum(),
        }
    }

    /// Distribution of retired-epoch lifetimes (publish → retire).
    pub(crate) fn lifetime_summary(&self) -> Summary {
        self.lock().lifetime.summary_seconds()
    }

    /// A clone of the lifetime histogram, for Prometheus rendering.
    pub(crate) fn lifetime_histogram(&self) -> LogHistogram {
        self.lock().lifetime.clone()
    }
}
