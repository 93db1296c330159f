//! The self-logging discipline, end to end:
//!
//! * forget-to-log is **unrepresentable**: a session that never mentions
//!   logging still recovers every acknowledged commit;
//! * the recover-then-continue lifecycle through `Db::open` (including
//!   the checkpoint-absorption guard clearing);
//! * replay pins every logged response, through the recovery
//!   `Registry`.
//!
//! `HCC_DURABILITY` (none / buffered / fsync) overrides the durability
//! level — CI runs this suite as a matrix over all three.

use hybrid_cc::adts::account::AccountObject;
use hybrid_cc::adts::fifo_queue::QueueObject;
use hybrid_cc::db::{Db, HccError};
use hybrid_cc::spec::Rational;
use hybrid_cc::storage::StorageOptions;
use hybrid_cc::txn::registry::{Decisions, Registry};
use hybrid_cc::workload::crash::{crash_point_holds, CrashScenarioOptions};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hcc-selflog-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn money(n: i64) -> Rational {
    Rational::from_int(n)
}

/// Forget-to-log is unrepresentable: this session performs transactional
/// mutations with *no logging call in sight* — there is no API left to
/// forget — crashes at an arbitrary point, and still recovers exactly the
/// committed prefix (hybrid-atomic, oracle-checked inside
/// `crash_point_holds`).
#[test]
fn mutations_with_no_explicit_logging_survive_a_random_kill_point() {
    for (i, cut) in [0u64, 37, 333, 2048].into_iter().enumerate() {
        let dir = tmp(&format!("noforget-{i}"));
        let opts = CrashScenarioOptions {
            seed: 0xF0061 + i as u64,
            txns: 70,
            checkpoint_every: if i % 2 == 0 { Some(10) } else { None },
            ..Default::default()
        }
        .env_overrides();
        let (committed, survived) = crash_point_holds(&dir, opts, cut).unwrap();
        assert!(survived <= committed);
    }
}

/// The recover-then-continue lifecycle: a crashed session's successor
/// calls `Db::open`, asks for its typed handles (which arrive holding
/// the recovered state), and keeps going — new commits serialize above
/// the recovered history and checkpointing works again (the absorption
/// guard cleared once every logged name was opened).
#[test]
fn manager_recovers_registry_and_resumes() {
    let dir = tmp("resume");
    let pre_crash_balance;
    {
        let db = Db::open(&dir).unwrap();
        let acct = db.object::<AccountObject>("acct").unwrap();
        let queue = db.object::<QueueObject<i64>>("q").unwrap();
        for i in 1..=5 {
            db.transact(|tx| {
                acct.credit(tx, money(i * 10))?;
                queue.enq(tx, i)?;
                Ok(())
            })
            .unwrap();
        }
        let aborted = db.transact(|tx| {
            acct.credit(tx, money(1_000_000))?;
            Err::<(), _>(HccError::rollback("must not resurface after recovery"))
        });
        assert!(matches!(aborted, Err(HccError::Rollback { .. })));
        pre_crash_balance = acct.committed_balance();
        // Process "dies" here: no checkpoint, no clean handoff.
    }
    {
        let db = Db::open(&dir).unwrap();
        let acct = db.object::<AccountObject>("acct").unwrap();
        assert_eq!(db.unopened_objects(), vec!["q".to_string()]);
        assert!(db.checkpoint().is_err(), "checkpoint refused while \"q\" is unabsorbed");
        let queue = db.object::<QueueObject<i64>>("q").unwrap();
        assert_eq!(db.recovery_report().replayed, 5);
        assert_eq!(acct.committed_balance(), pre_crash_balance);
        assert_eq!(queue.committed_len(), 5);

        // Continue: new commits stack on top and checkpointing is allowed
        // again (every logged name was absorbed).
        let deq = db
            .transact(|tx| {
                acct.credit(tx, money(7))?;
                Ok(queue.deq(tx)?)
            })
            .unwrap();
        assert_eq!(deq, 1, "FIFO head survived recovery");
        let ckpt = db.checkpoint().unwrap().expect("store attached");
        assert!(ckpt.last_ts > 0);
        assert_eq!(acct.committed_balance(), pre_crash_balance + money(7));
    }
    // Third generation recovers from the checkpoint alone.
    {
        let db = Db::open(&dir).unwrap();
        let acct = db.object::<AccountObject>("acct").unwrap();
        let queue = db.object::<QueueObject<i64>>("q").unwrap();
        let report = db.recovery_report();
        assert!(report.checkpoint_ts > 0, "checkpoint restored");
        assert_eq!(report.replayed, 0, "nothing above the checkpoint");
        assert_eq!(acct.committed_balance(), pre_crash_balance + money(7));
        assert_eq!(queue.committed_len(), 4);
    }
}

/// Replay pins every logged response: a log whose effects cannot
/// reproduce (here: a successful debit whose funds are gone because the
/// credit record was lost) is rejected as divergence instead of silently
/// rewriting history.
#[test]
fn divergent_replay_is_refused() {
    use hybrid_cc::storage::DurableStore;

    let dir = tmp("diverge");
    {
        let store = DurableStore::open(&dir, StorageOptions::default()).unwrap();
        // Hand-craft a log claiming a successful debit from an empty
        // account (no prior credit): replay must refuse to "succeed" it.
        store.log_begin(1).unwrap();
        let debit = br#"{"op":"debit","v":{"den":1,"num":30},"ok":true}"#;
        store.publish_op(store.reserve_ticket(), 1, "acct", debit).unwrap();
        store.log_commit(1, 1).unwrap();
    }
    let recovered = DurableStore::recover(&dir).unwrap();
    let acct = Arc::new(AccountObject::hybrid("acct"));
    let mut registry = Registry::new();
    registry.register(acct.clone());
    let err = registry.restore_and_replay(recovered, &Decisions::new()).unwrap_err();
    assert!(
        matches!(err, hybrid_cc::txn::registry::RecoveryError::Replay { .. }),
        "expected replay divergence, got {err:?}"
    );
}
