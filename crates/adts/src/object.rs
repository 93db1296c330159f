//! [`Object`]: the one transactional handle every data type runs under.
//!
//! A type's serial specification and conflict relation are the only
//! per-type parts of concurrency control; the handle around them is
//! type-independent. [`Object<A>`] wraps a named [`TxObject<A>`] for any
//! [`ObjectAdt`] — a [`RuntimeAdt`] that also states its checkpoint-image
//! codec and its canonical lock relation — and supplies, once for every
//! type:
//!
//! * construction under the canonical relation or any other scheme;
//! * [`Snapshot`]: fuzzy-checkpoint images at a watermark, and restore,
//!   which decodes the image and installs it as the object's committed
//!   state ([`TxObject::install_version`]) — nothing is re-executed;
//! * [`DurableObject`]: the name and redo replay the recovery registry
//!   and `Db` drive.
//!
//! The built-in handles are aliases (`AccountObject = Object<AccountAdt>`,
//! `QueueObject<T> = Object<QueueAdt<T>>`, …, and
//! `SpecObject<D> = Object<SpecAdt<D>>` for declaratively defined types);
//! each type module adds only its typed operations (`credit`, `enq`, …).

use hcc_core::runtime::{
    ExecError, LockSpec, RedoDecodeError, ReplayError, RuntimeAdt, RuntimeOptions, SnapshotStale,
    TxObject, TxnHandle,
};
use hcc_storage::{DurableObject, Snapshot, SnapshotError};
use std::sync::Arc;

/// A runtime data type an [`Object`] can run: its [`RuntimeAdt`]
/// semantics plus the two things a durable handle needs beyond them.
pub trait ObjectAdt: RuntimeAdt + Default {
    /// The type's canonical lock relation: the paper's conflict table for
    /// the type (or, for a declaratively defined type, the relation its
    /// [`AdtDef::conflict_spec`](hcc_core::runtime::AdtDef::conflict_spec)
    /// names). `Db` handles are built under it.
    fn canonical_locks() -> Arc<dyn LockSpec<Self>>;

    /// Serialize a committed version as a checkpoint image.
    fn encode_version(&self, version: &Self::Version) -> Vec<u8>;

    /// Decode an image produced by [`ObjectAdt::encode_version`].
    fn decode_version(&self, bytes: &[u8]) -> Result<Self::Version, RedoDecodeError>;
}

/// A named transactional object of type `A`.
pub struct Object<A: ObjectAdt> {
    obj: Arc<TxObject<A>>,
}

impl<A: ObjectAdt> Object<A> {
    /// An object under the type's canonical (hybrid) relation, with
    /// default runtime options.
    pub fn hybrid(name: impl Into<String>) -> Object<A> {
        Self::with_options(name, RuntimeOptions::default())
    }

    /// An object under the canonical relation and caller-supplied
    /// runtime options (what `Db::object` builds handles with).
    pub fn with_options(name: impl Into<String>, opts: RuntimeOptions) -> Object<A> {
        Self::with(name, A::canonical_locks(), opts)
    }

    /// An object under an arbitrary lock relation — a baseline scheme, an
    /// alternative table — and options.
    pub fn with(
        name: impl Into<String>,
        locks: Arc<dyn LockSpec<A>>,
        opts: RuntimeOptions,
    ) -> Object<A> {
        Object { obj: TxObject::new(name, A::default(), locks, opts) }
    }

    /// The underlying runtime object.
    pub fn inner(&self) -> &Arc<TxObject<A>> {
        &self.obj
    }

    /// Execute one operation under `txn`, blocking until its lock is
    /// granted, the wait times out, or the transaction is doomed.
    pub fn execute(&self, txn: &Arc<TxnHandle>, inv: A::Inv) -> Result<A::Res, ExecError> {
        self.obj.execute(txn, inv)
    }

    /// The committed state (diagnostics; no isolation).
    pub fn committed_state(&self) -> A::Version {
        self.obj.committed_snapshot()
    }

    /// The state as of commit timestamp `watermark` — the wait-free
    /// snapshot-read accessor: no lock acquisition, no conflict with
    /// writers. Refused when compaction has folded past `watermark`.
    pub fn state_at(&self, watermark: u64) -> Result<A::Version, SnapshotStale> {
        self.obj.snapshot_read(watermark)
    }
}

impl<A: ObjectAdt> Snapshot for Object<A> {
    fn snapshot_at(&self, watermark: u64) -> Vec<u8> {
        self.obj.adt().encode_version(&self.obj.committed_snapshot_at(watermark))
    }

    fn pin_horizon(&self, watermark: u64) {
        self.obj.pin_horizon(watermark)
    }

    fn unpin_horizon(&self) {
        self.obj.unpin_horizon()
    }

    fn restore(&self, bytes: &[u8], ts: u64) -> Result<(), SnapshotError> {
        let version = self
            .obj
            .adt()
            .decode_version(bytes)
            .map_err(|e| SnapshotError::new(format!("checkpoint image: {}", e.0)))?;
        // A used instance (one handed to `Db::attach`) is refused, and the
        // refusal flows back as a failed materialization.
        self.obj.install_version(version, ts).map_err(|e| SnapshotError::new(e.to_string()))
    }
}

impl<A: ObjectAdt> DurableObject for Object<A> {
    fn object_name(&self) -> &str {
        self.obj.name()
    }

    fn replay_op(&self, txn: &Arc<TxnHandle>, op: &[u8]) -> Result<(), ReplayError> {
        self.obj.replay_redo(txn, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::AccountObject;
    use hcc_core::runtime::TxParticipant;
    use hcc_spec::{Rational, TxnId};

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }

    fn t(n: u64) -> Arc<TxnHandle> {
        TxnHandle::new(TxnId(n))
    }

    #[test]
    fn snapshot_excludes_active_transactions() {
        let a = AccountObject::hybrid("a");
        let committed = t(1);
        a.credit(&committed, r(10)).unwrap();
        a.inner().commit_at(committed.id(), 1);
        let active = t(2);
        a.credit(&active, r(999)).unwrap(); // never committed
        let b = AccountObject::hybrid("b");
        b.restore(&a.snapshot(), 1).unwrap();
        assert_eq!(b.committed_balance(), r(10), "active credit must not leak");
    }

    /// `decode_redo` is the exact inverse of `redo` for every type: the
    /// write path and the recovery path can never disagree on the payload
    /// format.
    #[test]
    fn redo_roundtrips_for_every_type() {
        use hcc_core::runtime::RuntimeAdt;

        fn roundtrip<A: RuntimeAdt>(adt: &A, inv: A::Inv, res: A::Res)
        where
            A::Inv: PartialEq + std::fmt::Debug,
        {
            let bytes = adt.redo(&inv, &res).expect("mutating op has a redo payload");
            let (inv2, res2) = adt.decode_redo(&bytes).expect("payload decodes");
            assert_eq!(inv2, inv, "invocation roundtrips");
            assert_eq!(res2, res, "response roundtrips");
        }

        use crate::account::{AccountAdt, AccountInv, AccountRes};
        roundtrip(&AccountAdt, AccountInv::Credit(Rational::new(5, 2)), AccountRes::Ok);
        roundtrip(&AccountAdt, AccountInv::Post(r(5)), AccountRes::Ok);
        roundtrip(&AccountAdt, AccountInv::Debit(r(3)), AccountRes::Debited);
        roundtrip(&AccountAdt, AccountInv::Debit(r(9)), AccountRes::Overdraft);

        use crate::counter::{CounterAdt, CounterInv, CounterRes};
        roundtrip(&CounterAdt, CounterInv::Inc(7), CounterRes::Ok);
        roundtrip(&CounterAdt, CounterInv::Dec(2), CounterRes::Ok);
        assert!(CounterAdt.redo(&CounterInv::Read, &CounterRes::Val(0)).is_none());

        use crate::fifo_queue::{QueueAdt, QueueInv, QueueRes};
        let q: QueueAdt<i64> = QueueAdt::default();
        roundtrip(&q, QueueInv::Enq(42), QueueRes::Ok);
        roundtrip(&q, QueueInv::Deq, QueueRes::Item(42));

        use crate::semiqueue::{SemiqueueAdt, SqInv, SqRes};
        let sq: SemiqueueAdt<String> = SemiqueueAdt::default();
        roundtrip(&sq, SqInv::Ins("x".into()), SqRes::Ok);
        roundtrip(&sq, SqInv::Rem, SqRes::Item("x".to_string()));

        use crate::file::{FileAdt, FileInv, FileRes};
        let f: FileAdt<i64> = FileAdt::default();
        roundtrip(&f, FileInv::Write(9), FileRes::Ok);
        assert!(f.redo(&FileInv::Read, &FileRes::Val(0)).is_none());

        use crate::set::{SetAdt, SetInv};
        let s: SetAdt<i64> = SetAdt::default();
        roundtrip(&s, SetInv::Add(1), true);
        roundtrip(&s, SetInv::Add(1), false);
        roundtrip(&s, SetInv::Remove(1), true);
        assert!(s.redo(&SetInv::Contains(1), &true).is_none());

        use crate::directory::{DirInv, DirRes, DirectoryAdt};
        let d: DirectoryAdt<String, i64> = DirectoryAdt::default();
        roundtrip(&d, DirInv::Insert("k".into(), 1), DirRes::Inserted);
        roundtrip(&d, DirInv::Insert("k".into(), 1), DirRes::Duplicate);
        roundtrip(&d, DirInv::Remove("k".into()), DirRes::Val(1));
        roundtrip(&d, DirInv::Remove("k".into()), DirRes::Missing);
        assert!(d.redo(&DirInv::Lookup("k".into()), &DirRes::Missing).is_none());
    }
}
