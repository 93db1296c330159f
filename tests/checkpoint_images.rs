//! The checkpoint image of every built-in type, pinned byte for byte.
//!
//! A checkpoint file outlives the binary that wrote it, so each type's
//! image format is a compatibility promise: a change to a codec must
//! show up here as a changed golden, never as a silent format drift.
//! Each case builds a small committed state, checks the exact bytes
//! `Snapshot::snapshot` writes, restores those bytes into a fresh object
//! and checks the state (and the re-taken image) comes back unchanged.
//!
//! A second group pins *how* restore installs an image: the decoded
//! state goes straight into the object, so restoring executes no
//! operation and takes no lock, whatever the image's size.

use hybrid_cc::adts::account::{AccountHybrid, AccountObject};
use hybrid_cc::adts::counter::CounterObject;
use hybrid_cc::adts::directory::DirectoryObject;
use hybrid_cc::adts::fifo_queue::{QueueObject, QueueTableII};
use hybrid_cc::adts::file::FileObject;
use hybrid_cc::adts::semiqueue::{SemiqueueHybrid, SemiqueueObject};
use hybrid_cc::adts::set::SetObject;
use hybrid_cc::core::runtime::{RuntimeOptions, TxParticipant};
use hybrid_cc::core::TxnHandle;
use hybrid_cc::obs::Registry;
use hybrid_cc::spec::{Rational, TxnId};
use hybrid_cc::storage::Snapshot;
use std::sync::Arc;

/// The commit timestamp every case commits (and restores) at.
const TS: u64 = 7;

fn txn() -> Arc<TxnHandle> {
    TxnHandle::new(TxnId(1))
}

/// Check `obj`'s image is `golden`, restore `golden` into `fresh`, and
/// check the restored object writes the same image back.
fn pin(obj: &impl Snapshot, fresh: &impl Snapshot, golden: &str) {
    let image = obj.snapshot();
    assert_eq!(String::from_utf8_lossy(&image), golden, "checkpoint image bytes");
    fresh.restore(golden.as_bytes(), TS).expect("golden image decodes");
    assert_eq!(String::from_utf8_lossy(&fresh.snapshot()), golden, "restored image bytes");
}

#[test]
fn account_image_is_pinned() {
    let a = AccountObject::hybrid("a");
    let t = txn();
    a.credit(&t, Rational::from_int(100)).unwrap();
    assert!(a.debit(&t, Rational::from_int(30)).unwrap());
    a.post(&t, Rational::from_int(5)).unwrap();
    a.inner().commit_at(t.id(), TS);
    let b = AccountObject::hybrid("b");
    pin(&a, &b, r#"{"num":147,"den":2}"#);
    assert_eq!(b.committed_balance(), Rational::new(147, 2));
}

#[test]
fn counter_image_is_pinned() {
    let c = CounterObject::hybrid("c");
    let t = txn();
    c.inc(&t, 3).unwrap();
    c.dec(&t, 10).unwrap();
    c.inner().commit_at(t.id(), TS);
    let d = CounterObject::hybrid("d");
    pin(&c, &d, "-7");
    assert_eq!(d.committed_value(), -7);
}

#[test]
fn queue_image_is_pinned() {
    let q: QueueObject<i64> = QueueObject::hybrid("q");
    let t = txn();
    for i in [3, 1, 4, 1, 5] {
        q.enq(&t, i).unwrap();
    }
    assert_eq!(q.deq(&t).unwrap(), 3);
    q.inner().commit_at(t.id(), TS);
    let p: QueueObject<i64> = QueueObject::hybrid("p");
    pin(&q, &p, "[1,4,1,5]");
    let rd = TxnHandle::new(TxnId(2));
    let order: Vec<i64> = (0..4).map(|_| p.deq(&rd).unwrap()).collect();
    assert_eq!(order, [1, 4, 1, 5], "FIFO order survives the image");
}

#[test]
fn semiqueue_image_is_pinned() {
    let q: SemiqueueObject<i64> = SemiqueueObject::hybrid("sq");
    let t = txn();
    for i in [9, 7, 7] {
        q.ins(&t, i).unwrap();
    }
    q.inner().commit_at(t.id(), TS);
    let p: SemiqueueObject<i64> = SemiqueueObject::hybrid("sp");
    pin(&q, &p, "[[7,2],[9,1]]");
    assert_eq!(p.committed_len(), 3, "multiplicity survives the image");
}

#[test]
fn file_image_is_pinned() {
    let f: FileObject<String> = FileObject::hybrid("f");
    let t = txn();
    f.write(&t, "a \"quoted\" line".to_string()).unwrap();
    f.inner().commit_at(t.id(), TS);
    let g: FileObject<String> = FileObject::hybrid("g");
    pin(&f, &g, r#""a \"quoted\" line""#);
    assert_eq!(g.committed_value(), "a \"quoted\" line");
}

#[test]
fn set_image_is_pinned() {
    let s: SetObject<i64> = SetObject::hybrid("s");
    let t = txn();
    for x in [2, 1, 3] {
        assert!(s.add(&t, x).unwrap());
    }
    assert!(s.remove(&t, 3).unwrap());
    s.inner().commit_at(t.id(), TS);
    let z: SetObject<i64> = SetObject::hybrid("z");
    pin(&s, &z, "[1,2]");
    assert_eq!(z.committed_len(), 2);
}

#[test]
fn directory_image_is_pinned() {
    let d: DirectoryObject<String, i64> = DirectoryObject::hybrid("d");
    let t = txn();
    assert!(d.insert(&t, "b".into(), 2).unwrap());
    assert!(d.insert(&t, "a".into(), 1).unwrap());
    d.inner().commit_at(t.id(), TS);
    let e: DirectoryObject<String, i64> = DirectoryObject::hybrid("e");
    pin(&d, &e, r#"[["a",1],["b",2]]"#);
    let rd = TxnHandle::new(TxnId(2));
    assert_eq!(e.lookup(&rd, "b".into()).unwrap(), Some(2));
}

/// Options that count into a registry of the test's own, so "no lock
/// counter moved" is checkable.
fn counted() -> (Arc<Registry>, RuntimeOptions) {
    let metrics = Arc::new(Registry::new());
    (metrics.clone(), RuntimeOptions::default().with_metrics(metrics))
}

#[test]
fn restoring_a_large_queue_image_executes_nothing() {
    let items: Vec<i64> = (0..1000).collect();
    let image = serde_json::to_vec(&items).unwrap();
    let (metrics, opts) = counted();
    let q: QueueObject<i64> = QueueObject::with("q", Arc::new(QueueTableII), opts);
    let before = metrics.snapshot();
    q.restore(&image, TS).unwrap();
    assert_eq!(q.committed_len(), 1000);
    assert_eq!(q.inner().stats().executed, 0, "restore installs the image, it executes no enq");
    let moved = metrics.snapshot().delta(&before);
    assert_eq!(moved.sum_prefix("lock."), 0, "restore takes no lock");
}

#[test]
fn restoring_a_semiqueue_image_executes_nothing() {
    let (metrics, opts) = counted();
    let q: SemiqueueObject<i64> = SemiqueueObject::with("sq", Arc::new(SemiqueueHybrid), opts);
    let before = metrics.snapshot();
    q.restore(b"[[7,300],[9,2]]", TS).unwrap();
    assert_eq!(q.committed_len(), 302);
    assert_eq!(q.inner().stats().executed, 0, "restore installs the image, it executes no ins");
    let moved = metrics.snapshot().delta(&before);
    assert_eq!(moved.sum_prefix("lock."), 0, "restore takes no lock");
}

/// The restored image is the object's whole history up to `TS`: its
/// clock sits at the image's timestamp, so the next commit lands above
/// it, and the object refuses a second image.
#[test]
fn a_restored_object_continues_above_the_image_and_refuses_another() {
    let (_, opts) = counted();
    let a = AccountObject::with("a", Arc::new(AccountHybrid), opts);
    a.restore(br#"{"num":40,"den":1}"#, TS).unwrap();
    let t = txn();
    a.credit(&t, Rational::from_int(2)).unwrap();
    assert!(t.bound() >= TS, "the transaction observed the image's timestamp");
    a.inner().commit_at(t.id(), TS + 1);
    assert_eq!(a.committed_balance(), Rational::from_int(42));
    assert!(a.restore(br#"{"num":1,"den":1}"#, TS + 2).is_err(), "a used object is not fresh");
    assert_eq!(a.committed_balance(), Rational::from_int(42));
}

#[test]
fn garbage_images_are_refused() {
    assert!(AccountObject::hybrid("a").restore(b"not json", TS).is_err());
    let q: QueueObject<i64> = QueueObject::hybrid("q");
    assert!(q.restore(br#"{"wrong":"shape"}"#, TS).is_err());
}
