//! The recovery registry: named self-logging objects, and the replay loop
//! that rebuilds them from a recovered log.
//!
//! Self-logging closes the write half of the forget-to-log hole; the
//! registry closes the read half. Callers register each durable object
//! once (by the name it logs under) and recovery dispatches checkpoint
//! snapshots and WAL-tail redo payloads to the right object
//! automatically — there is no hand-written `match object.as_str()`
//! replay loop left to get wrong.

use hcc_core::runtime::{ReplayError, TxnHandle, TxnPhase};
use hcc_spec::TxnId;
use hcc_storage::{CommittedTxn, DurableObject, Recovered, SnapshotError, StorageError};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Commit decisions recovered from a coordinator's log: `txn → ts`.
pub type Decisions = BTreeMap<u64, u64>;

/// Why recovery-into-a-registry failed. All variants are fatal: the log
/// and the registered objects disagree, and guessing would fabricate or
/// drop acknowledged effects.
#[derive(Debug)]
pub enum RecoveryError {
    /// Reading the durable state failed.
    Storage(StorageError),
    /// The log references an object nobody registered.
    UnknownObject {
        /// The name the log knows and the registry does not.
        object: String,
    },
    /// A checkpoint snapshot could not be installed.
    Snapshot(SnapshotError),
    /// A redo payload failed to replay at its object.
    Replay {
        /// The object being replayed into.
        object: String,
        /// What went wrong.
        error: ReplayError,
    },
    /// A coordinator decision resolves an in-doubt transaction at a
    /// timestamp the restored checkpoint already claims to cover — the
    /// snapshot excludes the transaction (it never committed locally), so
    /// replaying it below the watermark would apply it out of timestamp
    /// order. The log and the checkpoint disagree; refusing is the only
    /// honest outcome.
    DecisionBelowCheckpoint {
        /// The in-doubt transaction.
        txn: u64,
        /// Its decided commit timestamp.
        ts: u64,
        /// The restored checkpoint's watermark.
        checkpoint_ts: u64,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Storage(e) => write!(f, "recovery: {e}"),
            RecoveryError::UnknownObject { object } => {
                write!(f, "recovery: log references unregistered object {object:?}")
            }
            RecoveryError::Snapshot(e) => write!(f, "recovery: {e}"),
            RecoveryError::Replay { object, error } => {
                write!(f, "recovery at object {object:?}: {error}")
            }
            RecoveryError::DecisionBelowCheckpoint { txn, ts, checkpoint_ts } => {
                write!(
                    f,
                    "recovery: decided in-doubt txn {txn} at ts {ts} lies at or below the \
                     checkpoint watermark {checkpoint_ts}"
                )
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<StorageError> for RecoveryError {
    fn from(e: StorageError) -> RecoveryError {
        RecoveryError::Storage(e)
    }
}

impl From<SnapshotError> for RecoveryError {
    fn from(e: SnapshotError) -> RecoveryError {
        RecoveryError::Snapshot(e)
    }
}

/// What a registry replay accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The restored checkpoint's watermark (0 = no checkpoint).
    pub checkpoint_ts: u64,
    /// Committed tail transactions replayed.
    pub replayed: usize,
    /// Was a torn tail dropped from the final log segment?
    pub torn_tail: bool,
}

/// A set of named durable objects — everything the transaction manager
/// checkpoints and recovery replays into.
#[derive(Default)]
pub struct Registry {
    objects: BTreeMap<String, Arc<dyn DurableObject>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register a durable object under the name it logs as.
    ///
    /// # Panics
    /// Panics if the name is already registered — two objects logging
    /// under one name would merge their histories at recovery.
    pub fn register(&mut self, obj: Arc<dyn DurableObject>) -> &mut Registry {
        let name = obj.object_name().to_string();
        let prev = self.objects.insert(name.clone(), obj);
        assert!(prev.is_none(), "object {name:?} registered twice");
        self
    }

    /// The object registered under `name`.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn DurableObject>> {
        self.objects.get(name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.objects.keys().map(String::as_str)
    }

    /// The registered objects as checkpointable `(name, snapshot)` pairs.
    pub fn snapshot_refs(&self) -> Vec<(&str, &dyn hcc_storage::Snapshot)> {
        self.objects.iter().map(|(n, o)| (n.as_str(), o.as_ref() as _)).collect()
    }

    /// Rebuild the registered objects from a [`Recovered`] log image —
    /// the one recovery rule, shared with `hcc-db`'s open path: the image
    /// is sliced by object name ([`PendingImage::slice`]) and each
    /// registered object materializes its own slice (checkpoint snapshot,
    /// then its share of the committed tail in timestamp order). In-doubt
    /// transactions with a coordinator `decision` replay as committed at
    /// their decided timestamp (2PC participant recovery); undecided ones
    /// stay dropped, and a decision at or below the checkpoint watermark
    /// is refused as [`RecoveryError::DecisionBelowCheckpoint`]. A logged
    /// name nobody registered is refused as
    /// [`RecoveryError::UnknownObject`].
    pub fn restore_and_replay(
        &self,
        recovered: Recovered,
        decisions: &Decisions,
    ) -> Result<RecoveryReport, RecoveryError> {
        let mut image = PendingImage::slice(recovered, decisions)?;
        for obj in self.objects.values() {
            image.materialize(obj.as_ref())?;
        }
        match image.names().into_iter().min() {
            Some(object) => Err(RecoveryError::UnknownObject { object }),
            None => Ok(image.report()),
        }
    }
}

/// One object's slice of one recovered transaction: `(txn, ts, op
/// payloads in execution order)`.
type TailTxn = (u64, u64, Vec<Vec<u8>>);

/// Durable state recovered from the log but not yet installed into a
/// live object — sliced per object name, consumed (and freed) name by
/// name as objects materialize.
#[derive(Default)]
pub struct PendingImage {
    /// What the slicing recovered: checkpoint watermark, resolved tail
    /// size, torn-tail flag.
    report: RecoveryReport,
    /// Per-name checkpoint snapshot bytes.
    snapshots: HashMap<String, Vec<u8>>,
    /// Per-name slices of the committed tail in replay order:
    /// `name → [(txn, ts, op payloads)]`.
    tail: HashMap<String, Vec<TailTxn>>,
}

impl PendingImage {
    /// Merge decided in-doubt transactions (2PC participant recovery)
    /// into the committed tail ([`RecoveryError::DecisionBelowCheckpoint`]
    /// refusal included) and slice the image by object name once, so
    /// each object materializes from (and frees) exactly its own share.
    /// Every payload is *moved* into its name's slice; nothing is copied.
    pub fn slice(
        mut recovered: Recovered,
        decisions: &Decisions,
    ) -> Result<PendingImage, RecoveryError> {
        let checkpoint_ts = recovered.checkpoint.as_ref().map_or(0, |c| c.last_ts);
        let resolved = resolve_committed(&mut recovered, decisions)?;
        let replayed = resolved.len();
        let mut tail: HashMap<String, Vec<TailTxn>> = HashMap::new();
        for c in resolved {
            // `c.ops` is in execution (ticket) order and the resolved
            // list in timestamp order, so each per-name slice stays in
            // replay order.
            for (name, bytes) in c.ops {
                let slot = tail.entry(name).or_default();
                match slot.last_mut() {
                    Some((txn, _, ops)) if *txn == c.txn => ops.push(bytes),
                    _ => slot.push((c.txn, c.ts, vec![bytes])),
                }
            }
        }
        let report = RecoveryReport { checkpoint_ts, replayed, torn_tail: recovered.torn_tail };
        let mut snapshots: HashMap<String, Vec<u8>> = HashMap::new();
        if let Some(ckpt) = recovered.checkpoint {
            snapshots.extend(ckpt.objects);
        }
        Ok(PendingImage { report, snapshots, tail })
    }

    /// What the image recovered: checkpoint watermark, committed tail
    /// size, torn-tail flag.
    pub fn report(&self) -> RecoveryReport {
        self.report
    }

    /// Every name the image still holds state for.
    pub fn names(&self) -> HashSet<String> {
        self.snapshots.keys().chain(self.tail.keys()).cloned().collect()
    }

    /// Install the image's state for one object: checkpoint snapshot
    /// first, then its slice of the committed tail in replay order, each
    /// replayed operation pinned to its logged response
    /// ([`replay_object_ops`]). The name's share is consumed — freed —
    /// only on success: a failed materialization (replay divergence, a
    /// snapshot the object refuses) leaves it pending, so a retry into a
    /// fresh instance sees the whole share again.
    pub fn materialize(&mut self, obj: &dyn DurableObject) -> Result<(), RecoveryError> {
        let name = obj.object_name();
        if let Some(data) = self.snapshots.get(name) {
            obj.restore(data, self.report.checkpoint_ts)?;
        }
        for (txn, ts, ops) in self.tail.get(name).into_iter().flatten() {
            replay_object_ops(obj, *txn, *ts, ops)?;
        }
        self.snapshots.remove(name);
        self.tail.remove(name);
        Ok(())
    }
}

/// The validity half of the 2PC resolution rule: every *decided* in-doubt
/// transaction must land strictly above the checkpoint watermark (the
/// snapshot excludes it, so replaying below the watermark would apply it
/// out of timestamp order).
fn validate_decisions(recovered: &Recovered, decisions: &Decisions) -> Result<(), RecoveryError> {
    let checkpoint_ts = recovered.checkpoint.as_ref().map_or(0, |c| c.last_ts);
    for in_doubt in &recovered.in_doubt {
        if let Some(&ts) = decisions.get(&in_doubt.txn) {
            if ts <= checkpoint_ts {
                return Err(RecoveryError::DecisionBelowCheckpoint {
                    txn: in_doubt.txn,
                    ts,
                    checkpoint_ts,
                });
            }
        }
    }
    Ok(())
}

/// Merge a [`Recovered`] image's committed tail with its *decided*
/// in-doubt transactions into one replay-ordered list — the single
/// authority on the 2PC resolution rule. In-doubt transactions with a
/// coordinator decision replay as committed at the decided timestamp;
/// undecided ones are dropped (no decision record means abort); a
/// decision at or below the checkpoint watermark is refused as
/// [`RecoveryError::DecisionBelowCheckpoint`]. The committed and
/// decided-in-doubt payloads are *moved* out of `recovered` (whose
/// checkpoint and flags are left untouched), not copied.
fn resolve_committed(
    recovered: &mut Recovered,
    decisions: &Decisions,
) -> Result<Vec<CommittedTxn>, RecoveryError> {
    validate_decisions(recovered, decisions)?;
    let mut committed = std::mem::take(&mut recovered.committed);
    for in_doubt in std::mem::take(&mut recovered.in_doubt) {
        if let Some(&ts) = decisions.get(&in_doubt.txn) {
            committed.push(CommittedTxn { ts, txn: in_doubt.txn, ops: in_doubt.ops });
        }
    }
    committed.sort_by_key(|c| (c.ts, c.txn));
    Ok(committed)
}

/// Replay one recovered transaction's operations **at a single object**
/// — the only place a logged payload re-enters an object, shared by
/// [`PendingImage::materialize`] (which recovers each object separately,
/// so a multi-object transaction replays at each of its objects under
/// the same protocol) and the replication follower's apply path: every
/// payload replays pinned to its logged response, then the commit event
/// is delivered at the recovered timestamp.
pub fn replay_object_ops(
    obj: &dyn DurableObject,
    txn: u64,
    ts: u64,
    ops: &[Vec<u8>],
) -> Result<(), RecoveryError> {
    let t = TxnHandle::replay(TxnId(txn));
    for bytes in ops {
        obj.replay_op(&t, bytes).map_err(|error| RecoveryError::Replay {
            object: obj.object_name().to_string(),
            error,
        })?;
    }
    t.set_phase(TxnPhase::Committed(ts));
    for p in t.participants() {
        p.commit_at(t.id(), ts);
    }
    Ok(())
}
