//! Differential acceptance tests for the declarative ADT surface: the
//! **ported** Counter and Set (`SpecObject<CounterDef>` /
//! `SpecObject<SetDef<i64>>`, defined only through the public `AdtDef`
//! path) against their hand-written twins (`CounterObject` /
//! `SetObject`), proving
//!
//! 1. **byte-identical WAL traces and checkpoint images**: one
//!    deterministic workload driven through both flavors produces
//!    bit-for-bit identical store directories — segments, checkpoint
//!    files, everything;
//! 2. **identical lock-grant decisions**: the derived `SpecLock` answers
//!    exactly as the hand-written hybrid relation on an exhaustive
//!    operation domain;
//! 3. **interchangeable recovery**: a log written by one flavor recovers
//!    through the other, because the bytes *are* the same format.

use hybrid_cc::adts::counter::{CounterDef, CounterHybrid, CounterInv, CounterObject, CounterRes};
use hybrid_cc::adts::set::{SetDef, SetHybrid, SetInv, SetObject};
use hybrid_cc::adts::{AccountObject, QueueObject, SpecObject};
use hybrid_cc::core::runtime::{LockSpec, SpecLock, TxParticipant};
use hybrid_cc::core::{ExecError, TxnHandle};
use hybrid_cc::spec::{Rational, TxnId};
use hybrid_cc::storage::CompactionPolicy;
use hybrid_cc::{Db, HccError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hcc-defined-{}-{}-{}",
        std::process::id(),
        name,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn open_db(dir: &Path) -> Db {
    Db::builder()
        .segment_max_bytes(1024)
        .compaction(CompactionPolicy::never())
        .env_overrides()
        .open(dir)
        .expect("open database")
}

/// The deterministic op script both flavors run: `(round, counter inv,
/// set inv)` — covers updates, reads, no-op refusals, and a mid-run
/// checkpoint.
fn script() -> Vec<(i64, Vec<CounterInv>, Vec<SetInv<i64>>)> {
    (0..24)
        .map(|i| {
            let mut c = vec![CounterInv::Inc(i)];
            if i % 3 == 0 {
                c.push(CounterInv::Dec(2 * i));
            }
            if i % 4 == 0 {
                c.push(CounterInv::Read);
            }
            let s = vec![SetInv::Add(i % 6), SetInv::Remove((i + 2) % 7), SetInv::Contains(i % 5)];
            (i, c, s)
        })
        .collect()
}

/// The two implementation flavors under one interface, so the
/// differential runs *one* driver — any change to the script or its
/// bookkeeping applies to both sides by construction.
enum Flavor {
    Hand(std::sync::Arc<CounterObject>, std::sync::Arc<SetObject<i64>>),
    Ported(std::sync::Arc<SpecObject<CounterDef>>, std::sync::Arc<SpecObject<SetDef<i64>>>),
}

impl Flavor {
    fn open(db: &Db, ported: bool) -> Flavor {
        if ported {
            Flavor::Ported(
                db.object::<SpecObject<CounterDef>>("c").unwrap(),
                db.object::<SpecObject<SetDef<i64>>>("s").unwrap(),
            )
        } else {
            Flavor::Hand(
                db.object::<CounterObject>("c").unwrap(),
                db.object::<SetObject<i64>>("s").unwrap(),
            )
        }
    }

    fn counter(
        &self,
        tx: &std::sync::Arc<hybrid_cc::core::TxnHandle>,
        op: CounterInv,
    ) -> Result<CounterRes, hybrid_cc::core::ExecError> {
        match self {
            Flavor::Hand(c, _) => c.inner().execute(tx, op),
            Flavor::Ported(c, _) => c.execute(tx, op),
        }
    }

    fn set(
        &self,
        tx: &std::sync::Arc<hybrid_cc::core::TxnHandle>,
        op: SetInv<i64>,
    ) -> Result<bool, hybrid_cc::core::ExecError> {
        match self {
            Flavor::Hand(_, s) => s.inner().execute(tx, op),
            Flavor::Ported(_, s) => s.execute(tx, op),
        }
    }
}

/// Drive the script through one flavor; return the response transcript.
fn drive(dir: &Path, ported: bool) -> Vec<String> {
    let db = open_db(dir);
    let flavor = Flavor::open(&db, ported);
    let mut transcript = Vec::new();
    for (i, c_ops, s_ops) in script() {
        db.transact(|tx| {
            for op in &c_ops {
                let res = flavor.counter(tx, op.clone())?;
                transcript.push(format!("{op:?}->{res:?}"));
            }
            for op in &s_ops {
                let res = flavor.set(tx, op.clone())?;
                transcript.push(format!("{op:?}->{res:?}"));
            }
            Ok(())
        })
        .unwrap();
        if i == 11 {
            db.checkpoint().unwrap().expect("mid-run checkpoint");
        }
    }
    transcript
}

/// Every file under `dir`, relative path → contents.
fn dir_image(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_string_lossy().into_owned();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

#[test]
fn ported_counter_and_set_write_byte_identical_wal_traces() {
    let (dir_a, dir_b) = (tmp("hand"), tmp("ported"));
    let transcript_a = drive(&dir_a, false);
    let transcript_b = drive(&dir_b, true);
    assert_eq!(transcript_a, transcript_b, "same script, same responses");

    let (image_a, image_b) = (dir_image(&dir_a), dir_image(&dir_b));
    assert_eq!(
        image_a.keys().collect::<Vec<_>>(),
        image_b.keys().collect::<Vec<_>>(),
        "same files on disk"
    );
    assert!(image_a.keys().any(|f| f.contains("seg-")), "segments were written");
    assert!(image_a.keys().any(|f| f.contains("ckpt") || f.contains("HCC")), "checkpoint saved");
    for (file, bytes_a) in &image_a {
        assert_eq!(
            bytes_a, &image_b[file],
            "file {file} differs between the hand-written and ported runs"
        );
    }
}

/// A log written by the ported flavor is *the same format*: it recovers
/// through the hand-written twin, and vice versa — plus the crash shape:
/// both dirs truncated identically recover to identical states.
#[test]
fn ported_logs_recover_interchangeably_and_after_a_crash() {
    let (dir_a, dir_b) = (tmp("hand-x"), tmp("ported-x"));
    drive(&dir_a, false);
    drive(&dir_b, true);

    // Crash both at the same point.
    for dir in [&dir_a, &dir_b] {
        hybrid_cc::workload::crash::truncate_tail(dir, 300).unwrap();
    }

    // Cross-recovery: the hand-written dir through the ported types...
    let db = open_db(&dir_a);
    let c_ported = db.object::<SpecObject<CounterDef>>("c").unwrap();
    let s_ported = db.object::<SpecObject<SetDef<i64>>>("s").unwrap();
    // ...and the ported dir through the hand-written types.
    let db_b = open_db(&dir_b);
    let c_hand = db_b.object::<CounterObject>("c").unwrap();
    let s_hand = db_b.object::<SetObject<i64>>("s").unwrap();

    assert_eq!(c_ported.committed_state(), c_hand.committed_value(), "counter states agree");
    let ported_set: Vec<i64> = s_ported.committed_state().into_iter().collect();
    let hand_set: Vec<i64> = s_hand.inner().committed_snapshot().into_iter().collect();
    assert_eq!(ported_set, hand_set, "set states agree");
    assert_eq!(
        db.recovery_report().replayed,
        db_b.recovery_report().replayed,
        "identical bytes, identical tails"
    );
}

/// The dirty-attach rule, for any handle type. `seed` puts state under
/// `name` in a checkpointed log. `used` is a standalone instance with
/// committed history of its own, so it is not fresh: `Db::attach` must
/// refuse it as a failed materialization (and poison the name) instead
/// of panicking or installing the image over its history —
/// `TxObject::install_version` refuses a used object. `Db::object`
/// (always a fresh instance) then still recovers the logged state, which
/// `recovered` checks.
fn a_used_handle_is_refused_on_attach<T: hybrid_cc::DbObject>(
    name: &str,
    seed: impl Fn(&T, &Arc<TxnHandle>) -> Result<(), ExecError>,
    used: Arc<T>,
    fresh: Arc<T>,
    recovered: impl Fn(&T),
) {
    let dir = tmp("dirty-attach");
    {
        let db = open_db(&dir);
        let obj = db.object::<T>(name).unwrap();
        db.transact(|tx| seed(&obj, tx).map_err(Into::into)).unwrap();
        db.checkpoint().unwrap().expect("checkpoint so recovery restores a snapshot");
    }
    let db = open_db(&dir);
    let err = db.attach(used).err().expect("used instance must be refused");
    assert!(matches!(err, HccError::Recovery(_)), "failed materialization, not a panic: {err}");
    // The name is poisoned for further attaches...
    assert!(matches!(db.attach(fresh), Err(HccError::PoisonedRecovery { .. })));
    // ...but `Db::object` (always a fresh instance) still recovers.
    recovered(&db.object::<T>(name).unwrap());
}

/// A standalone transaction for building a used instance.
fn standalone() -> Arc<TxnHandle> {
    TxnHandle::new(TxnId(1))
}

#[test]
fn attaching_a_used_spec_object_fails_cleanly_instead_of_panicking() {
    let dirty = Arc::new(SpecObject::<CounterDef>::hybrid("c"));
    let t = standalone();
    dirty.execute(&t, CounterInv::Inc(1)).unwrap();
    dirty.inner().commit_at(t.id(), 1);
    a_used_handle_is_refused_on_attach(
        "c",
        |c: &SpecObject<CounterDef>, tx| c.execute(tx, CounterInv::Inc(5)).map(|_| ()),
        dirty,
        Arc::new(SpecObject::<CounterDef>::hybrid("c")),
        |c| assert_eq!(c.committed_state(), 5, "recovered in full despite the failed attach"),
    );
}

/// The built-in handles follow the same rule: a used account or queue
/// is refused, not restored on top of its own history (which would
/// yield balance 6 below, or a queue holding both item sets).
#[test]
fn attaching_a_used_built_in_handle_fails_cleanly() {
    let dirty = Arc::new(AccountObject::hybrid("acct"));
    let t = standalone();
    dirty.credit(&t, Rational::from_int(1)).unwrap();
    dirty.inner().commit_at(t.id(), 100);
    a_used_handle_is_refused_on_attach(
        "acct",
        |a: &AccountObject, tx| a.credit(tx, Rational::from_int(5)),
        dirty,
        Arc::new(AccountObject::hybrid("acct")),
        |a| assert_eq!(a.committed_balance(), Rational::from_int(5)),
    );

    let dirty: Arc<QueueObject<i64>> = Arc::new(QueueObject::hybrid("q"));
    let t = standalone();
    dirty.enq(&t, 99).unwrap();
    dirty.inner().commit_at(t.id(), 100);
    a_used_handle_is_refused_on_attach(
        "q",
        |q: &QueueObject<i64>, tx| (1..=3).try_for_each(|i| q.enq(tx, i)),
        dirty,
        Arc::new(QueueObject::hybrid("q")),
        |q| {
            let items: Vec<i64> = q.inner().committed_snapshot().into_iter().collect();
            assert_eq!(items, [1, 2, 3]);
        },
    );
}

#[test]
fn ported_counter_lock_decisions_match_hand_written_exhaustively() {
    let derived = SpecLock::<CounterDef>::from_def();
    let hand = CounterHybrid;
    let mut domain: Vec<(CounterInv, CounterRes)> = Vec::new();
    for n in [-7i64, -1, 0, 1, 2, 9] {
        domain.push((CounterInv::Inc(n), CounterRes::Ok));
        domain.push((CounterInv::Dec(n), CounterRes::Ok));
    }
    for v in [-3i64, 0, 5] {
        domain.push((CounterInv::Read, CounterRes::Val(v)));
    }
    let mut conflicts = 0;
    for a in &domain {
        for b in &domain {
            let (got, want) = (derived.conflicts(a, b), hand.conflicts(a, b));
            assert_eq!(got, want, "lock-grant decision differs on {a:?} vs {b:?}");
            conflicts += want as usize;
        }
    }
    assert!(conflicts > 0, "vacuous agreement");
    assert_eq!(derived.name(), "hybrid-derived");
}

#[test]
fn ported_set_lock_decisions_match_hand_written_exhaustively() {
    let derived = SpecLock::<SetDef<i64>>::from_def();
    let hand = SetHybrid;
    let mut domain: Vec<(SetInv<i64>, bool)> = Vec::new();
    for x in 0..4i64 {
        for ok in [true, false] {
            domain.push((SetInv::Add(x), ok));
            domain.push((SetInv::Remove(x), ok));
            domain.push((SetInv::Contains(x), ok));
        }
    }
    let mut conflicts = 0;
    for a in &domain {
        for b in &domain {
            let (got, want) = (derived.conflicts(a, b), hand.conflicts(a, b));
            assert_eq!(got, want, "lock-grant decision differs on {a:?} vs {b:?}");
            conflicts += want as usize;
        }
    }
    assert!(conflicts > 0, "vacuous agreement");
}
