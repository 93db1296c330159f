//! Transaction handles shared between the transaction manager and objects.

use super::object::TxParticipant;
use hcc_spec::TxnId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The lifecycle phase of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnPhase {
    /// Running; may invoke operations.
    Active,
    /// Committed with the given timestamp.
    Committed(u64),
    /// Aborted.
    Aborted,
}

/// Shared per-transaction state: identity, phase, the Avalon `trans-id`
/// style lower bound on the eventual commit timestamp, the doom flag set by
/// the deadlock detector, and the set of objects touched (for commit/abort
/// fan-out).
pub struct TxnHandle {
    id: TxnId,
    phase: Mutex<TxnPhase>,
    doomed: AtomicBool,
    /// Maximum object clock observed by any of this transaction's
    /// operations; the commit timestamp must exceed it (`precedes ⊆ TS`).
    bound: AtomicU64,
    touched: Mutex<Vec<Arc<dyn TxParticipant>>>,
    /// True for replay transactions: their executions re-install
    /// already-durable history, so self-logging objects must not record
    /// them again.
    replay: bool,
}

impl TxnHandle {
    /// A fresh active handle.
    pub fn new(id: TxnId) -> Arc<TxnHandle> {
        Self::build(id, false)
    }

    /// A handle for *replaying* already-durable history (recovery and
    /// replication replay): identical to [`TxnHandle::new`] except that
    /// self-logging objects skip the redo sink for its executions —
    /// re-logging records that are already in the log would duplicate them.
    pub fn replay(id: TxnId) -> Arc<TxnHandle> {
        Self::build(id, true)
    }

    fn build(id: TxnId, replay: bool) -> Arc<TxnHandle> {
        Arc::new(TxnHandle {
            id,
            phase: Mutex::new(TxnPhase::Active),
            doomed: AtomicBool::new(false),
            bound: AtomicU64::new(0),
            touched: Mutex::new(Vec::new()),
            replay,
        })
    }

    /// Is this a replay handle (its executions bypass the redo
    /// sink)?
    pub fn is_replay(&self) -> bool {
        self.replay
    }

    /// The transaction's identifier.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Current phase.
    pub fn phase(&self) -> TxnPhase {
        *self.phase.lock()
    }

    /// Transition to a new phase (manager use).
    pub fn set_phase(&self, p: TxnPhase) {
        *self.phase.lock() = p;
    }

    /// True once the deadlock detector selected this transaction as a
    /// victim; its next blocking operation returns
    /// [`super::ExecError::Doomed`] and the manager must abort it.
    pub fn is_doomed(&self) -> bool {
        self.doomed.load(Ordering::Acquire)
    }

    /// Mark as deadlock victim.
    pub fn doom(&self) {
        self.doomed.store(true, Ordering::Release);
    }

    /// Raise the commit-timestamp lower bound to an observed object clock.
    pub fn observe_clock(&self, clock: u64) {
        self.bound.fetch_max(clock, Ordering::AcqRel);
    }

    /// The current lower bound (0 = none observed).
    pub fn bound(&self) -> u64 {
        self.bound.load(Ordering::Acquire)
    }

    /// Record that the transaction executed at `obj` (idempotent).
    pub fn register(&self, obj: Arc<dyn TxParticipant>) {
        let mut t = self.touched.lock();
        if !t.iter().any(|o| Arc::ptr_eq(o, &obj)) {
            t.push(obj);
        }
    }

    /// Objects touched so far (commit/abort fan-out set).
    pub fn participants(&self) -> Vec<Arc<dyn TxParticipant>> {
        self.touched.lock().clone()
    }
}

impl std::fmt::Debug for TxnHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnHandle")
            .field("id", &self.id)
            .field("phase", &self.phase())
            .field("doomed", &self.is_doomed())
            .field("bound", &self.bound())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_and_bound() {
        let h = TxnHandle::new(TxnId(1));
        assert_eq!(h.phase(), TxnPhase::Active);
        assert_eq!(h.bound(), 0);
        h.observe_clock(5);
        h.observe_clock(3);
        assert_eq!(h.bound(), 5, "bound is monotone");
        h.set_phase(TxnPhase::Committed(9));
        assert_eq!(h.phase(), TxnPhase::Committed(9));
    }

    #[test]
    fn doom_flag() {
        let h = TxnHandle::new(TxnId(2));
        assert!(!h.is_doomed());
        h.doom();
        assert!(h.is_doomed());
    }
}
