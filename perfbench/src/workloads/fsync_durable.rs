//! `fsync_durable`: two-account transfers over 4096 accounts on an
//! fsync'd, group-committed, single-stripe log, with count-triggered
//! `maybe_checkpoint` calls and a reopen at the end. The storage layer
//! does most of the work (WAL append, group-commit fsync, checkpoint
//! gate, recovery replay); lock conflicts are rare.

use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use hcc_adts::AccountObject;
use hcc_db::Db;
use hcc_spec::Rational;
use hcc_storage::Durability;
use hcc_wire::msg::{OpResult, Request, Response, TypeTag, WireOp};

use super::{
    account_name, balance_view, dir_bytes, nanos, secs, timed_phase, wire_cost, Checks, Ledger,
    RoundOut, RoundSpec, Settings, ThreadLog, THREADS,
};
use crate::env::pin_thread;
use crate::rng::Rng;
use crate::trace::{SpanKind, Tracer};

/// Accounts transfers draw from, uniformly.
pub const ACCOUNTS: usize = 4096;
/// Every account's balance after set-up: far above any round's debits,
/// so no debit overdraws.
pub const INITIAL: i64 = 1_000_000;
/// Operations per round.
pub const ROUND_OPS: usize = 6000;
/// Share of operations that are snapshot reads of two accounts.
pub const READ_SHARE: f64 = 0.1;
/// Commits per client thread between `Db::maybe_checkpoint` calls.
pub const CHECKPOINT_EVERY: u64 = 256;

/// Storage settings.
pub const SETTINGS: Settings = Settings {
    durability: "Fsync",
    stripes: 1,
    group_commit: true,
    compaction: "default (growth factor 2, min 1024 records)",
    read_share: READ_SHARE,
};

/// One generated operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Credit `to` and debit `from` by `amount` in one transaction.
    Transfer {
        /// Debited account.
        from: usize,
        /// Credited account.
        to: usize,
        /// Amount moved.
        amount: i64,
    },
    /// Snapshot-read two balances.
    Read {
        /// First account.
        a: usize,
        /// Second account.
        b: usize,
    },
}

/// The operation stream of one client thread of one round.
pub fn ops(seed: u64, round: u64, thread: u64, n: usize) -> Vec<Op> {
    let mut rng = Rng::for_stream(seed, round, thread);
    let accounts = ACCOUNTS as u64;
    (0..n)
        .map(|_| {
            if rng.chance(READ_SHARE) {
                Op::Read { a: rng.below(accounts) as usize, b: rng.below(accounts) as usize }
            } else {
                let from = rng.below(accounts);
                let mut to = rng.below(accounts - 1);
                if to >= from {
                    to += 1;
                }
                Op::Transfer {
                    from: from as usize,
                    to: to as usize,
                    amount: 1 + rng.below(100) as i64,
                }
            }
        })
        .collect()
}

enum Rec {
    Write { from: usize, to: usize, amount: i64, ts: u64, debited: bool },
    Read { a: usize, b: usize, wm: u64, balance_a: Rational, balance_b: Rational },
    CheckpointFailed(String),
}

type Accounts = Vec<Arc<AccountObject>>;

fn open(dir: &Path) -> Result<(Db, Accounts), String> {
    let db = Db::builder()
        .durability(Durability::Fsync)
        .stripes(1)
        .group_commit(true)
        .open(dir)
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    let accounts = (0..ACCOUNTS)
        .map(|i| db.object::<AccountObject>(&account_name(i)))
        .collect::<Result<Accounts, _>>()
        .map_err(|e| format!("open accounts: {e}"))?;
    Ok((db, accounts))
}

/// Run one round.
pub fn round(spec: &RoundSpec) -> Result<RoundOut, String> {
    let streams: Vec<Vec<Op>> =
        (0..THREADS as u64).map(|t| ops(spec.seed, spec.round, t, spec.ops_per_thread())).collect();
    let dir = spec.dir.join("store");

    let setup = Instant::now();
    let (db, accounts) = open(&dir)?;
    db.transact(|tx| {
        for a in &accounts {
            a.credit(tx, Rational::from_int(INITIAL))?;
        }
        Ok(())
    })
    .map_err(|e| format!("prefill: {e}"))?;
    let mut out = RoundOut { setup_s: secs(setup), ..RoundOut::default() };

    let base = Instant::now();
    let before = db.stats();
    let (logs, timed_s) = timed_phase(&streams, |t, stream, barrier| {
        client(&db, &accounts, t as u64, stream, Tracer::new(spec.traced, base), barrier)
    });
    out.timed_s = timed_s;
    out.primary = db.stats().delta(&before);

    let records: Vec<Rec> = logs.into_iter().flat_map(|l| l.merge_into(&mut out)).collect();
    let mut checks = Checks::default();
    if spec.traced {
        out.wire = wire_cost(&wire_pairs(&records), &mut checks);
    }

    drop(accounts);
    drop(db);
    out.wal_bytes = dir_bytes(&dir);
    let mut tracer = Tracer::new(spec.traced, base);
    let reopened = Instant::now();
    let (db, accounts) = open(&dir)?;
    out.recovery_s = secs(reopened);
    tracer.record(u64::MAX, SpanKind::Reopen, reopened, Instant::now());
    out.spans.extend(tracer.spans);
    out.recovery = db.stats();

    verify(&records, &accounts, &mut checks);
    out.failures = checks.0;
    Ok(out)
}

fn client(
    db: &Db,
    accounts: &Accounts,
    thread: u64,
    stream: &[Op],
    tracer: Tracer,
    barrier: &Barrier,
) -> ThreadLog<Rec> {
    let mut log = ThreadLog::new(tracer);
    log.pinned = pin_thread(thread as usize);
    let mut commits = 0u64;
    barrier.wait();
    for (i, op) in stream.iter().enumerate() {
        let id = (thread << 40) | i as u64;
        match *op {
            Op::Transfer { from, to, amount } => {
                log.attempted_writes += 1;
                let amt = Rational::from_int(amount);
                let tracer = &mut log.tracer;
                let start = Instant::now();
                let res = db.transact_ts(|tx| {
                    tracer.span(id, SpanKind::AdtCall, || accounts[to].credit(tx, amt))?;
                    Ok(tracer.span(id, SpanKind::AdtCall, || accounts[from].debit(tx, amt))?)
                });
                let end = Instant::now();
                log.tracer.record(id, SpanKind::DbTransact, start, end);
                log.writes.push(nanos(start, end));
                match res {
                    Ok((debited, ts)) => {
                        log.records.push(Rec::Write { from, to, amount, ts: ts.0, debited });
                        commits += 1;
                        if commits.is_multiple_of(CHECKPOINT_EVERY) {
                            let ckpt_id = (thread << 40) | (1 << 39) | commits;
                            let r = log
                                .tracer
                                .span(ckpt_id, SpanKind::MaybeCheckpoint, || db.maybe_checkpoint());
                            if let Err(e) = r {
                                log.records.push(Rec::CheckpointFailed(e.to_string()));
                            }
                        }
                    }
                    Err(e) => log.fail(true, e),
                }
            }
            Op::Read { a, b } => {
                log.attempted_reads += 1;
                let attempts = &mut log.read_attempts;
                let start = Instant::now();
                let res = db.transact_read(|rtx| {
                    *attempts += 1;
                    Ok((rtx.watermark(), rtx.view_of(&*accounts[a])?, rtx.view_of(&*accounts[b])?))
                });
                let end = Instant::now();
                log.tracer.record(id, SpanKind::DbRead, start, end);
                log.reads.push(nanos(start, end));
                match res {
                    Ok((wm, balance_a, balance_b)) => {
                        log.records.push(Rec::Read { a, b, wm, balance_a, balance_b })
                    }
                    Err(e) => log.fail(false, e),
                }
            }
        }
    }
    log
}

/// Acked ⇒ recovered: after the reopen every balance is the fold of the
/// acknowledged transfers, and every snapshot read saw exactly the fold
/// of the commits at or below its watermark.
fn verify(records: &[Rec], recovered: &Accounts, checks: &mut Checks) {
    let mut ledger = Ledger::new(ACCOUNTS, INITIAL);
    for r in records {
        match r {
            Rec::Write { from, to, amount, ts, debited } => {
                checks.expect(*debited, || format!("debit of {amount} from {from} overdrew"));
                ledger.add(*to, *ts, *amount);
                if *debited {
                    ledger.add(*from, *ts, -amount);
                }
            }
            Rec::CheckpointFailed(e) => checks.fail(format!("maybe_checkpoint failed: {e}")),
            Rec::Read { .. } => {}
        }
    }
    ledger.seal();
    for (i, acct) in recovered.iter().enumerate() {
        let want = ledger.last(i);
        let got = acct.committed_balance();
        checks.expect(got == Rational::from_int(want), || {
            format!("account {i} recovered {got:?}, acked transfers fold to {want}")
        });
    }
    for r in records {
        if let Rec::Read { a, b, wm, balance_a, balance_b } = r {
            for (acct, got) in [(*a, balance_a), (*b, balance_b)] {
                let want = ledger.at(acct, *wm);
                checks.expect(*got == Rational::from_int(want), || {
                    format!("read of account {acct} at {wm} saw {got:?}, the fold is {want}")
                });
            }
        }
    }
}

/// The round's own operations as the requests and responses that would
/// carry them over the wire (first 1000 operations).
fn wire_pairs(records: &[Rec]) -> Vec<(Request, Response)> {
    records
        .iter()
        .filter_map(|r| match r {
            Rec::Write { from, to, amount, ts, debited } => Some((
                Request::Transact {
                    ops: vec![
                        WireOp::Credit { name: account_name(*to), amount: *amount },
                        WireOp::Debit { name: account_name(*from), amount: *amount },
                    ],
                },
                Response::Committed {
                    ts: *ts,
                    results: vec![OpResult::Unit, OpResult::Debited(*debited)],
                },
            )),
            Rec::Read { a, b, wm, balance_a, balance_b } => Some((
                Request::Read {
                    at: None,
                    queries: vec![
                        (TypeTag::Account, account_name(*a)),
                        (TypeTag::Account, account_name(*b)),
                    ],
                },
                Response::Views {
                    watermark: *wm,
                    views: vec![balance_view(balance_a), balance_view(balance_b)],
                },
            )),
            Rec::CheckpointFailed(_) => None,
        })
        .take(1000)
        .collect()
}
