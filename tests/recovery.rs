//! Crash recovery through the write-ahead log: replaying the committed
//! operations in timestamp order rebuilds the committed state — which is
//! exactly the serialization order hybrid atomicity guarantees.
//!
//! Covers the `hcc-storage` durable store (segmented CRC-framed WAL +
//! checkpoints + compaction), including the randomized kill-point
//! property test.

use hybrid_cc::adts::account::AccountObject;
use hybrid_cc::adts::fifo_queue::QueueObject;
use hybrid_cc::db::{Db, HccError};
use hybrid_cc::spec::Rational;
use hybrid_cc::storage::{DurableStore, Snapshot, StorageError, StorageOptions};
use hybrid_cc::txn::manager::TxnManager;
use hybrid_cc::txn::registry::{Decisions, RecoveryError, RecoveryReport, Registry};
use hybrid_cc::txn::sim::recover_site;
use hybrid_cc::workload::crash::{
    crash_point_holds, recover_and_verify, run_crash_workload, CrashScenarioOptions,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hcc-recovery-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn money(n: i64) -> Rational {
    Rational::from_int(n)
}

/// Drive a manager-with-storage banking session; returns the live
/// committed state. The session ends in a "crash" with one transaction
/// whose op record reached the log but whose commit record never did.
///
/// Note what is *absent*: no logging call anywhere. The objects are built
/// with the manager's options, so every mutating operation serializes its
/// own redo record into the WAL.
fn run_durable_session(dir: &PathBuf, opts: StorageOptions) -> (Rational, usize) {
    let mgr = TxnManager::with_storage(dir, opts).unwrap();
    let acct = AccountObject::with(
        "acct",
        Arc::new(hybrid_cc::adts::account::AccountHybrid),
        mgr.object_options(),
    );
    let queue: QueueObject<i64> = QueueObject::with(
        "q",
        Arc::new(hybrid_cc::adts::fifo_queue::QueueTableII),
        mgr.object_options(),
    );

    let run = |ops: Vec<(&str, i64)>, commit: bool| {
        let t = mgr.begin();
        for (kind, v) in ops {
            match kind {
                "credit" => {
                    acct.credit(&t, money(v)).unwrap();
                }
                "debit" => {
                    acct.debit(&t, money(v)).unwrap();
                }
                "enq" => {
                    queue.enq(&t, v).unwrap();
                }
                other => panic!("unknown op {other}"),
            }
        }
        if commit {
            mgr.commit(t).unwrap();
        } else {
            mgr.abort(t);
        }
    };

    run(vec![("credit", 100), ("enq", 1)], true);
    run(vec![("credit", 999)], false); // aborted: must not recover
    run(vec![("debit", 30), ("enq", 2)], true);
    run(vec![("credit", 5)], true);
    // Crash between phases: the credit is logged, its commit never is.
    let t = mgr.begin();
    acct.credit(&t, money(1_000)).unwrap();
    (acct.committed_balance(), queue.committed_len())
}

#[test]
fn durable_store_recovery_rebuilds_committed_state() {
    let dir = tmp("store-basic");
    let (balance, qlen) = run_durable_session(&dir, StorageOptions::default());
    assert_eq!(balance, money(75));
    assert_eq!(qlen, 2);
    let state = recover_and_verify(&dir).unwrap();
    assert_eq!(state.balance, balance);
    assert_eq!(state.queue.len(), qlen);
}

/// Crash mid-append: write `bytes` at the tail of the last segment of the
/// (single) stripe.
fn append_to_final_segment(dir: &Path, bytes: &[u8]) {
    use std::io::Write;
    let stripe = &hybrid_cc::storage::wal::stripe_dirs(dir).unwrap()[0].1;
    let segments = hybrid_cc::storage::wal::list_segments(stripe).unwrap();
    let last = &segments.last().unwrap().1;
    std::fs::OpenOptions::new().append(true).open(last).unwrap().write_all(bytes).unwrap();
}

#[test]
fn durable_store_survives_torn_final_record() {
    let dir = tmp("store-torn");
    let (balance, qlen) = run_durable_session(&dir, StorageOptions::default());
    append_to_final_segment(&dir, &[0x20, 0x00, 0x00, 0x00, 0xAB]); // torn header
    let state = recover_and_verify(&dir).unwrap();
    assert_eq!(state.balance, balance);
    assert_eq!(state.queue.len(), qlen);
}

// ---- The same session recovered through `Db::open` ---------------------

/// Open the session's log as a `Db` and read back the committed state.
fn db_state(dir: &PathBuf) -> (Rational, usize, RecoveryReport) {
    let db = Db::open(dir).unwrap();
    let balance = db.object::<AccountObject>("acct").unwrap().committed_balance();
    let qlen = db.object::<QueueObject<i64>>("q").unwrap().committed_len();
    (balance, qlen, db.recovery_report())
}

#[test]
fn recovery_rebuilds_committed_state() {
    let dir = tmp("db-basic");
    let (balance, qlen) = run_durable_session(&dir, StorageOptions::default());
    assert_eq!(balance, money(75)); // 100 - 30 + 5
    assert_eq!(qlen, 2);
    let (rbalance, rqlen, report) = db_state(&dir);
    assert_eq!(rbalance, balance, "recovered balance differs");
    assert_eq!(rqlen, qlen, "recovered queue length differs");
    assert_eq!(report.replayed, 3, "the three committed transactions replay");
    assert!(!report.torn_tail);
}

#[test]
fn recovery_survives_torn_tail() {
    let dir = tmp("db-torn");
    let (balance, qlen) = run_durable_session(&dir, StorageOptions::default());
    // A complete `len|crc|seq` header promising a 64-byte payload, of
    // which only 10 bytes reached the segment.
    let torn = [&64u32.to_le_bytes()[..], &[0xAB; 4 + 8 + 10]].concat();
    append_to_final_segment(&dir, &torn);
    assert!(DurableStore::recover(&dir).unwrap().torn_tail, "the read-only scan sees the tear");
    let (rbalance, rqlen, _) = db_state(&dir);
    assert_eq!(rbalance, balance);
    assert_eq!(rqlen, qlen);
    // Opening repaired the stripe: the tear is gone from the segment.
    assert!(!DurableStore::recover(&dir).unwrap().torn_tail, "open truncates the tear");
}

#[test]
fn recovery_is_idempotent() {
    let dir = tmp("db-idem");
    let _ = run_durable_session(&dir, StorageOptions::default());
    let first = db_state(&dir);
    let second = db_state(&dir);
    assert_eq!(first, second, "recovering the same log twice rebuilds the same state");
    let state = recover_and_verify(&dir).unwrap();
    assert_eq!((state.balance, state.queue.len()), (first.0, first.1));
}

#[test]
fn uncommitted_tail_transaction_is_dropped() {
    let dir = tmp("db-uncommitted");
    // The session ends with a credit of 1000 whose op record is logged
    // but whose commit record never is: the crash hit between phases.
    let (balance, _) = run_durable_session(&dir, StorageOptions::default());
    let raw = DurableStore::recover(&dir).unwrap();
    assert_eq!(raw.in_doubt.len(), 1, "the uncommitted credit reached the log");
    let (rbalance, _, _) = db_state(&dir);
    assert_eq!(rbalance, balance, "uncommitted operations must not be replayed");
}

#[test]
fn durable_store_reports_commit_with_missing_ops_as_incomplete() {
    let dir = tmp("store-missing");
    {
        let store = DurableStore::open(
            &dir,
            StorageOptions { segment_max_bytes: 128, ..StorageOptions::default() },
        )
        .unwrap();
        // Establish history and a checkpoint, so the registry binding for
        // "acct" survives in the checkpoint file no matter which segments
        // disappear.
        let acct = AccountObject::hybrid("acct");
        store.log_begin(1).unwrap();
        store
            .publish_op(
                store.reserve_ticket(),
                1,
                "acct",
                br#"{"op":"credit","v":{"den":1,"num":7}}"#,
            )
            .unwrap();
        store.log_commit(1, 1).unwrap();
        store.checkpoint(&[("acct", &acct)]).unwrap();
        // Txn 2's Begin/Op records land in the post-checkpoint segment...
        store.log_begin(2).unwrap();
        store
            .publish_op(
                store.reserve_ticket(),
                2,
                "acct",
                br#"{"op":"credit","v":{"den":1,"num":9}}"#,
            )
            .unwrap();
        for filler in 3..20 {
            store.log_begin(filler).unwrap();
            store.publish_op(store.reserve_ticket(), filler, "acct", &[0u8; 64]).unwrap();
            store.log_abort(filler).unwrap();
        }
        // ...and its commit record in a later one.
        store.log_commit(2, 10).unwrap();
    }
    // Delete the segment holding txn 2's Begin/Op behind the store's back
    // (simulating a pruning bug or lost file): the commit record's
    // stamped op count (1) exceeds the surviving ops (0), so recovery
    // must drop txn 2 and *report* it — never replay half of it and
    // never refuse the rest of the log (the same shape arises from an
    // honest per-stripe crash tail, which must stay recoverable).
    let stripe = &hybrid_cc::storage::wal::stripe_dirs(&dir).unwrap()[0].1;
    let segments = hybrid_cc::storage::wal::list_segments(stripe).unwrap();
    assert!(segments.len() > 1, "scenario needs several segments");
    std::fs::remove_file(&segments[0].1).unwrap();
    let recovered = DurableStore::recover(&dir).unwrap();
    assert_eq!(recovered.incomplete, vec![2], "txn 2's effects are reported lost");
    assert!(
        recovered.committed.iter().all(|t| t.txn != 2),
        "txn 2 must not replay half-recovered: {:?}",
        recovered.committed
    );
}

#[test]
fn durable_store_refuses_ops_whose_registry_binding_is_lost() {
    let dir = tmp("store-unregistered");
    {
        let store = DurableStore::open(
            &dir,
            StorageOptions { segment_max_bytes: 128, ..StorageOptions::default() },
        )
        .unwrap();
        // The Register record for "acct" lands in the first segment with
        // the first op; later segments hold ops referencing its id.
        for txn in 1..20 {
            store.log_begin(txn).unwrap();
            store.publish_op(store.reserve_ticket(), txn, "acct", &[0u8; 64]).unwrap();
            store.log_commit(txn, txn).unwrap();
        }
    }
    // Losing the first segment loses the binding (no checkpoint carried
    // it): recovery must refuse rather than guess which object the
    // surviving ops belong to.
    let stripe = &hybrid_cc::storage::wal::stripe_dirs(&dir).unwrap()[0].1;
    let segments = hybrid_cc::storage::wal::list_segments(stripe).unwrap();
    assert!(segments.len() > 1, "scenario needs several segments");
    std::fs::remove_file(&segments[0].1).unwrap();
    match DurableStore::recover(&dir) {
        Err(StorageError::UnknownObjectId { id: 1, .. }) => {}
        other => panic!("expected UnknownObjectId, got {other:?}"),
    }
}

#[test]
fn replay_orders_interleaved_transactions_by_timestamp() {
    let dir = tmp("store-interleaved");
    {
        let mgr = TxnManager::with_storage(&dir, StorageOptions::default()).unwrap();
        let acct = AccountObject::with(
            "acct",
            Arc::new(hybrid_cc::adts::account::AccountHybrid),
            mgr.object_options(),
        );
        // Two transactions with interleaved (self-logged) op records;
        // t_late begins first but commits second. Replay must apply
        // credit(10) then debit(60): debiting first would overdraft and
        // fail replay with a divergence.
        let t_late = mgr.begin();
        let t_early = mgr.begin();
        acct.credit(&t_early, money(10)).unwrap();
        acct.credit(&t_late, money(50)).unwrap();
        mgr.commit(t_early).unwrap();
        let ok = acct.debit(&t_late, money(60)).unwrap();
        assert!(ok);
        mgr.commit(t_late).unwrap();
    }
    let state = recover_and_verify(&dir).unwrap();
    assert_eq!(state.balance, money(0));
    assert_eq!(state.tail_ts.len(), 2);
    assert!(state.tail_ts[0] < state.tail_ts[1], "replay is timestamp-ordered");
}

#[test]
fn checkpoint_plus_tail_equals_full_replay() {
    let opts = CrashScenarioOptions { seed: 0xE0_0A11, ..CrashScenarioOptions::default() };
    // Same deterministic workload, once compacting every 10 commits, once
    // never compacting.
    let dir_ckpt = tmp("store-eq-ckpt");
    let w1 =
        run_crash_workload(&dir_ckpt, CrashScenarioOptions { checkpoint_every: Some(10), ..opts })
            .unwrap();
    assert!(w1.checkpoints >= 2, "checkpointing run must actually checkpoint");
    let dir_full = tmp("store-eq-full");
    let w2 = run_crash_workload(&dir_full, opts).unwrap();
    assert_eq!(w1.oracle, w2.oracle, "same seed, same committed effects");

    let from_ckpt = recover_and_verify(&dir_ckpt).unwrap();
    let from_full = recover_and_verify(&dir_full).unwrap();
    assert_eq!(from_ckpt.balance, from_full.balance);
    assert_eq!(from_ckpt.queue, from_full.queue);
    assert!(from_ckpt.checkpoint_ts > 0);
    assert_eq!(from_full.checkpoint_ts, 0);
    assert!(
        from_ckpt.tail_ts.len() < from_full.tail_ts.len(),
        "checkpointed recovery replays a strictly shorter tail"
    );
}

/// The acceptance property: randomized workloads of transactional
/// mutations — with **no explicit logging call anywhere** (the objects
/// self-log through the manager) — killed at arbitrary crash points
/// recover exactly the committed prefix, checked against the oracle and
/// `hcc-verify`'s hybrid atomicity inside `crash_point_holds`. Forgetting
/// to log is no longer expressible. `HCC_DURABILITY` (CI matrix) selects
/// the durability level.
#[test]
fn randomized_crash_points_recover_exactly_the_committed_state() {
    for seed in [1u64, 7, 42, 1234, 0xDEAD] {
        for (i, cut) in [0u64, 13, 97, 256, 911, 4096].into_iter().enumerate() {
            let dir = tmp(&format!("store-prop-{seed}-{i}"));
            for checkpoint_every in [None, Some(12)] {
                let dir = dir.join(format!("ck{}", checkpoint_every.is_some()));
                let opts = CrashScenarioOptions {
                    seed,
                    txns: 60,
                    checkpoint_every,
                    ..CrashScenarioOptions::default()
                }
                .env_overrides();
                let (committed, survived) = crash_point_holds(&dir, opts, cut).unwrap();
                assert!(survived <= committed);
                if cut == 0 && opts.durability != hybrid_cc::core::runtime::Durability::None {
                    assert_eq!(survived, committed, "no cut, no loss (seed {seed})");
                }
            }
        }
    }
}

#[test]
fn snapshot_restore_is_what_checkpoint_recovery_uses() {
    // A checkpoint taken mid-run restores into fresh objects bit-for-bit.
    let dir = tmp("store-snapshot");
    let mgr = TxnManager::with_storage(&dir, StorageOptions::default()).unwrap();
    let acct = AccountObject::with(
        "acct",
        Arc::new(hybrid_cc::adts::account::AccountHybrid),
        mgr.object_options(),
    );
    let t = mgr.begin();
    acct.credit(&t, money(123)).unwrap();
    mgr.commit(t).unwrap();
    let ckpt = mgr.checkpoint(&[("acct", &acct)]).unwrap().expect("store attached");
    let fresh = AccountObject::hybrid("fresh");
    fresh.restore(&ckpt.objects[0].1, ckpt.last_ts).unwrap();
    assert_eq!(fresh.committed_balance(), money(123));
}

// ---- Recovery refusals, through both entry points ----------------------
//
// `sim::recover_site` (the recovery `Registry`) and `Db::open` share one
// rule: the same slicing, the same 2PC resolution, the same refusals.

const CREDIT_5: &[u8] = br#"{"op":"credit","v":{"den":1,"num":5}}"#;
const CREDIT_10: &[u8] = br#"{"op":"credit","v":{"den":1,"num":10}}"#;

/// A 2PC participant's log: txn 1 voted yes (its credit of 5 is logged)
/// and crashed before phase 2; txn 2 (credit of 10) committed locally at
/// ts 5, and a checkpoint covers it (watermark 5).
fn in_doubt_below_checkpoint_log(dir: &PathBuf) {
    let store = DurableStore::open(dir, StorageOptions::default()).unwrap();
    store.log_begin(1).unwrap();
    store.publish_op(store.reserve_ticket(), 1, "acct", CREDIT_5).unwrap();
    store.log_begin(2).unwrap();
    store.publish_op(store.reserve_ticket(), 2, "acct", CREDIT_10).unwrap();
    store.log_commit(2, 5).unwrap();
    let acct = AccountObject::hybrid("acct");
    acct.restore(&serde_json::to_vec(&money(10)).unwrap(), 5).unwrap();
    assert_eq!(store.checkpoint(&[("acct", &acct)]).unwrap().last_ts, 5);
}

fn fresh_site_registry() -> (Arc<AccountObject>, Registry) {
    let acct = Arc::new(AccountObject::hybrid("acct"));
    let mut registry = Registry::new();
    registry.register(acct.clone());
    (acct, registry)
}

#[test]
fn decision_below_the_checkpoint_is_refused_by_both_entry_points() {
    let dir = tmp("refuse-below-ckpt");
    in_doubt_below_checkpoint_log(&dir);
    let below: Decisions = [(1, 3)].into();
    let refused = |err: &RecoveryError| {
        matches!(err, RecoveryError::DecisionBelowCheckpoint { txn: 1, ts: 3, checkpoint_ts: 5 })
    };

    let (_, registry) = fresh_site_registry();
    let err = recover_site(&dir, &registry, &below).unwrap_err();
    assert!(refused(&err), "recover_site: expected DecisionBelowCheckpoint, got {err:?}");
    match Db::builder().decisions(below).open(&dir) {
        Err(HccError::Recovery(err)) if refused(&err) => {}
        Err(other) => panic!("Db::open: expected DecisionBelowCheckpoint, got {other:?}"),
        Ok(_) => panic!("Db::open accepted a decision below the checkpoint"),
    }

    // The same log with the decision above the watermark recovers
    // through both, replaying the in-doubt credit over the checkpoint.
    let above: Decisions = [(1, 6)].into();
    let (acct, registry) = fresh_site_registry();
    let report = recover_site(&dir, &registry, &above).unwrap();
    assert_eq!((report.checkpoint_ts, report.replayed), (5, 1));
    assert_eq!(acct.committed_balance(), money(15));
    let db = Db::builder().decisions(above).open(&dir).unwrap();
    assert_eq!(db.recovery_report(), report);
    assert_eq!(db.object::<AccountObject>("acct").unwrap().committed_balance(), money(15));
}

#[test]
fn logged_name_nobody_opens_is_refused_by_the_registry_and_held_by_db() {
    let dir = tmp("refuse-unknown");
    {
        let store = DurableStore::open(&dir, StorageOptions::default()).unwrap();
        store.log_begin(1).unwrap();
        store.publish_op(store.reserve_ticket(), 1, "acct", CREDIT_5).unwrap();
        store.publish_op(store.reserve_ticket(), 1, "ghost", CREDIT_10).unwrap();
        store.log_commit(1, 1).unwrap();
    }

    // The registry materializes what it knows, then refuses the rest.
    let (acct, registry) = fresh_site_registry();
    match recover_site(&dir, &registry, &Decisions::new()) {
        Err(RecoveryError::UnknownObject { object }) => assert_eq!(object, "ghost"),
        other => panic!("recover_site: expected UnknownObject, got {other:?}"),
    }
    assert_eq!(acct.committed_balance(), money(5));

    // `Db` opens lazily, so the same leftover name is not an error at
    // open: it stays pending, and a checkpoint (which would claim to
    // cover its history) is refused until it is opened.
    let db = Db::builder().decisions(Decisions::new()).open(&dir).unwrap();
    assert_eq!(db.object::<AccountObject>("acct").unwrap().committed_balance(), money(5));
    assert_eq!(db.unopened_objects(), vec!["ghost".to_string()]);
    match db.checkpoint() {
        Err(HccError::Storage(StorageError::UnabsorbedHistory { last_ts: 1 })) => {}
        other => panic!("expected UnabsorbedHistory, got {other:?}"),
    }
    db.object::<AccountObject>("ghost").unwrap();
    assert!(db.checkpoint().unwrap().is_some(), "every logged name absorbed");
}
