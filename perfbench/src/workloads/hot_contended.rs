//! `hot_contended`: the paper's workload. Buffered transactions mix
//! operations on a few hot objects — four accounts (credits and debits,
//! a fixed share of which overdraw), a FIFO queue (deq then enq) and a
//! semiqueue (rem then ins). Result-dependent conflict tests, refusals,
//! waits and wake-ups dominate; storage does almost no work.
//!
//! Each transaction touches its objects in one global order (accounts
//! ascending, then the queue, then the semiqueue), so no waits-for cycle
//! can form, and every dequeue or removal is paired with an insertion,
//! so the pre-filled queue and semiqueue never run empty: no operation
//! can block on empty state.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use hcc_adts::semiqueue::Multiset;
use hcc_adts::{AccountObject, QueueObject, SemiqueueObject};
use hcc_db::Db;
use hcc_spec::Rational;
use hcc_storage::Durability;
use hcc_wire::msg::{OpResult, Request, Response, TypeTag, WireOp};

use super::{
    balance_view, dir_bytes, nanos, secs, timed_phase, wire_cost, Checks, Ledger, RoundOut,
    RoundSpec, Settings, ThreadLog, THREADS,
};
use crate::env::pin_thread;
use crate::rng::Rng;
use crate::trace::{SpanKind, Tracer};

/// Hot accounts.
pub const ACCOUNTS: usize = 4;
/// Every account's balance after set-up: small debits always succeed.
pub const INITIAL: i64 = 1_000_000_000_000;
/// An overdrawing debit's amount: larger than any balance can grow.
pub const OVERDRAW: i64 = 1_000_000_000_000_000;
/// Items pre-filled into the queue and the semiqueue.
pub const PREFILL: i64 = 64;
/// Operations per round.
pub const ROUND_OPS: usize = 15_000;
/// Share of operations that are snapshot reads of one hot account.
pub const READ_SHARE: f64 = 0.1;
/// Share of debits that overdraw.
pub const OVERDRAFT_SHARE: f64 = 0.2;
/// Share of transactions that deq+enq the queue (and, independently,
/// that rem+ins the semiqueue).
pub const QUEUE_SHARE: f64 = 0.5;

/// Storage settings.
pub const SETTINGS: Settings = Settings {
    durability: "Buffered",
    stripes: 1,
    group_commit: true,
    compaction: "default (growth factor 2, min 1024 records); never triggered",
    read_share: READ_SHARE,
};

const QUEUE: &str = "hot-queue";
const SEMIQUEUE: &str = "hot-semiqueue";

/// One account operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcctOp {
    /// Credit the amount.
    Credit(i64),
    /// Debit an amount the balance always covers.
    Debit(i64),
    /// Debit [`OVERDRAW`]: always refused as an overdraft.
    Overdraw,
}

/// One generated transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Txn {
    /// Account operations, on distinct accounts in ascending order.
    pub accounts: Vec<(usize, AcctOp)>,
    /// Deq, then enq this item.
    pub queue: Option<i64>,
    /// Rem, then ins this item.
    pub semiqueue: Option<i64>,
}

/// One generated operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// A read-write transaction.
    Txn(Txn),
    /// Snapshot-read one hot account's balance.
    Read(usize),
}

/// The operation stream of one client thread of one round. Inserted
/// items are unique across threads and never collide with the
/// pre-filled ones (which are negative).
pub fn ops(seed: u64, round: u64, thread: u64, n: usize) -> Vec<Op> {
    let mut rng = Rng::for_stream(seed, round, thread);
    (0..n as i64)
        .map(|i| {
            if rng.chance(READ_SHARE) {
                return Op::Read(rng.below(ACCOUNTS as u64) as usize);
            }
            let first = rng.below(ACCOUNTS as u64) as usize;
            let mut touched = vec![first];
            if rng.chance(0.5) {
                let second = (first + 1 + rng.below(ACCOUNTS as u64 - 1) as usize) % ACCOUNTS;
                touched.push(second);
            }
            touched.sort_unstable();
            let accounts = touched
                .into_iter()
                .map(|a| {
                    let op = if rng.chance(0.5) {
                        AcctOp::Credit(1 + rng.below(10) as i64)
                    } else if rng.chance(OVERDRAFT_SHARE) {
                        AcctOp::Overdraw
                    } else {
                        AcctOp::Debit(1 + rng.below(10) as i64)
                    };
                    (a, op)
                })
                .collect();
            let item = ((thread as i64 + 1) << 32) | i;
            Op::Txn(Txn {
                accounts,
                queue: rng.chance(QUEUE_SHARE).then_some(item),
                semiqueue: rng.chance(QUEUE_SHARE).then_some(item),
            })
        })
        .collect()
}

struct Objects {
    accounts: Vec<Arc<AccountObject>>,
    queue: Arc<QueueObject<i64>>,
    semiqueue: Arc<SemiqueueObject<i64>>,
}

fn open(dir: &Path) -> Result<(Db, Objects), String> {
    let db = Db::builder()
        .durability(Durability::Buffered)
        .stripes(1)
        .group_commit(true)
        .open(dir)
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    let objects = (|| {
        Ok::<_, hcc_db::HccError>(Objects {
            accounts: (0..ACCOUNTS)
                .map(|i| db.object::<AccountObject>(&format!("hot-acct-{i}")))
                .collect::<Result<_, _>>()?,
            queue: db.object(QUEUE)?,
            semiqueue: db.object(SEMIQUEUE)?,
        })
    })()
    .map_err(|e| format!("open objects: {e}"))?;
    Ok((db, objects))
}

/// What one committed transaction returned.
struct Outcome {
    debited: Vec<bool>,
    dequeued: Option<i64>,
    removed: Option<i64>,
}

enum Rec {
    Txn { thread: usize, index: usize, ts: u64, outcome: Outcome },
    Read { a: usize, wm: u64, balance: Rational },
}

/// Run one round.
pub fn round(spec: &RoundSpec) -> Result<RoundOut, String> {
    let streams: Vec<Vec<Op>> =
        (0..THREADS as u64).map(|t| ops(spec.seed, spec.round, t, spec.ops_per_thread())).collect();
    let dir = spec.dir.join("store");

    let setup = Instant::now();
    let (db, objects) = open(&dir)?;
    db.transact(|tx| {
        for a in &objects.accounts {
            a.credit(tx, Rational::from_int(INITIAL))?;
        }
        for item in 1..=PREFILL {
            objects.queue.enq(tx, -item)?;
            objects.semiqueue.ins(tx, -item)?;
        }
        Ok(())
    })
    .map_err(|e| format!("prefill: {e}"))?;
    let mut out = RoundOut { setup_s: secs(setup), ..RoundOut::default() };

    let base = Instant::now();
    let before = db.stats();
    let (logs, timed_s) = timed_phase(&streams, |t, stream, barrier| {
        client(&db, &objects, t, stream, Tracer::new(spec.traced, base), barrier)
    });
    out.timed_s = timed_s;
    out.primary = db.stats().delta(&before);

    let records: Vec<Rec> = logs.into_iter().flat_map(|l| l.merge_into(&mut out)).collect();
    let mut checks = Checks::default();
    let model = verify(&streams, &records, &mut checks);
    check_state(&db, &objects, &model, "live", &mut checks);
    if spec.traced {
        out.wire = wire_cost(&wire_pairs(&streams, &records), &mut checks);
    }

    drop(objects);
    drop(db);
    out.wal_bytes = dir_bytes(&dir);
    let mut tracer = Tracer::new(spec.traced, base);
    let reopened = Instant::now();
    let (db, objects) = open(&dir)?;
    out.recovery_s = secs(reopened);
    tracer.record(u64::MAX, SpanKind::Reopen, reopened, Instant::now());
    out.spans.extend(tracer.spans);
    out.recovery = db.stats();
    check_state(&db, &objects, &model, "recovered", &mut checks);
    out.failures = checks.0;
    Ok(out)
}

fn client(
    db: &Db,
    objects: &Objects,
    thread: usize,
    stream: &[Op],
    tracer: Tracer,
    barrier: &Barrier,
) -> ThreadLog<Rec> {
    let mut log = ThreadLog::new(tracer);
    log.pinned = pin_thread(thread);
    barrier.wait();
    for (index, op) in stream.iter().enumerate() {
        let id = ((thread as u64) << 40) | index as u64;
        match op {
            Op::Txn(txn) => {
                log.attempted_writes += 1;
                let tracer = &mut log.tracer;
                let start = Instant::now();
                let res = db.transact_ts(|tx| {
                    let mut debited = Vec::new();
                    for &(a, op) in &txn.accounts {
                        let acct = &objects.accounts[a];
                        let amount = |x: i64| Rational::from_int(x);
                        match op {
                            AcctOp::Credit(x) => {
                                tracer.span(id, SpanKind::AdtCall, || acct.credit(tx, amount(x)))?
                            }
                            AcctOp::Debit(x) => debited.push(tracer.span(
                                id,
                                SpanKind::AdtCall,
                                || acct.debit(tx, amount(x)),
                            )?),
                            AcctOp::Overdraw => {
                                debited.push(tracer.span(id, SpanKind::AdtCall, || {
                                    acct.debit(tx, amount(OVERDRAW))
                                })?)
                            }
                        }
                    }
                    let mut dequeued = None;
                    if let Some(item) = txn.queue {
                        dequeued =
                            Some(tracer.span(id, SpanKind::AdtCall, || objects.queue.deq(tx))?);
                        tracer.span(id, SpanKind::AdtCall, || objects.queue.enq(tx, item))?;
                    }
                    let mut removed = None;
                    if let Some(item) = txn.semiqueue {
                        removed =
                            Some(tracer.span(id, SpanKind::AdtCall, || objects.semiqueue.rem(tx))?);
                        tracer.span(id, SpanKind::AdtCall, || objects.semiqueue.ins(tx, item))?;
                    }
                    Ok(Outcome { debited, dequeued, removed })
                });
                let end = Instant::now();
                log.tracer.record(id, SpanKind::DbTransact, start, end);
                log.writes.push(nanos(start, end));
                match res {
                    Ok((outcome, ts)) => {
                        log.records.push(Rec::Txn { thread, index, ts: ts.0, outcome })
                    }
                    Err(e) => log.fail(true, e),
                }
            }
            &Op::Read(a) => {
                log.attempted_reads += 1;
                let attempts = &mut log.read_attempts;
                let start = Instant::now();
                let res = db.transact_read(|rtx| {
                    *attempts += 1;
                    Ok((rtx.watermark(), rtx.view_of(&*objects.accounts[a])?))
                });
                let end = Instant::now();
                log.tracer.record(id, SpanKind::DbRead, start, end);
                log.reads.push(nanos(start, end));
                match res {
                    Ok((wm, balance)) => log.records.push(Rec::Read { a, wm, balance }),
                    Err(e) => log.fail(false, e),
                }
            }
        }
    }
    log
}

/// The serial state the committed transactions produce.
struct Model {
    ledger: Ledger,
    queue: VecDeque<i64>,
    semiqueue: Multiset<i64>,
}

/// Replay the committed transactions in commit-timestamp order — the
/// serialization order hybrid atomicity promises — and hold every
/// response against the serial specification: each small debit
/// succeeded and each overdraw was refused, each dequeue returned the
/// queue's head at that point, each removal returned an item that was
/// present. Every snapshot read must see the fold of the commits at or
/// below its watermark.
fn verify(streams: &[Vec<Op>], records: &[Rec], checks: &mut Checks) -> Model {
    let mut ledger = Ledger::new(ACCOUNTS, INITIAL);
    let mut committed: Vec<(u64, &Txn, &Outcome)> = records
        .iter()
        .filter_map(|r| match r {
            Rec::Txn { thread, index, ts, outcome } => match &streams[*thread][*index] {
                Op::Txn(txn) => Some((*ts, txn, outcome)),
                Op::Read(_) => None,
            },
            Rec::Read { .. } => None,
        })
        .collect();
    committed.sort_unstable_by_key(|(ts, _, _)| *ts);

    let mut queue: VecDeque<i64> = (1..=PREFILL).map(|i| -i).collect();
    let mut semiqueue: Multiset<i64> = (1..=PREFILL).map(|i| (-i, 1)).collect();
    for (ts, txn, outcome) in committed {
        let mut debits = outcome.debited.iter();
        for &(a, op) in &txn.accounts {
            match op {
                AcctOp::Credit(x) => ledger.add(a, ts, x),
                AcctOp::Debit(x) => {
                    let ok = debits.next().copied();
                    checks
                        .expect(ok == Some(true), || format!("debit {x} at {ts} returned {ok:?}"));
                    ledger.add(a, ts, -x);
                }
                AcctOp::Overdraw => {
                    let ok = debits.next().copied();
                    checks
                        .expect(ok == Some(false), || format!("overdraw at {ts} returned {ok:?}"));
                }
            }
        }
        if let Some(item) = txn.queue {
            let head = queue.pop_front();
            checks.expect(head.is_some() && head == outcome.dequeued, || {
                format!("deq at {ts} returned {:?}, the serial head is {head:?}", outcome.dequeued)
            });
            queue.push_back(item);
        }
        if let Some(item) = txn.semiqueue {
            let got = outcome.removed.unwrap_or(i64::MIN);
            match semiqueue.get_mut(&got) {
                Some(n) if *n > 1 => *n -= 1,
                Some(_) => {
                    semiqueue.remove(&got);
                }
                None => checks.fail(format!("rem at {ts} returned {got}, which was not present")),
            }
            *semiqueue.entry(item).or_default() += 1;
        }
    }
    ledger.seal();
    for r in records {
        if let Rec::Read { a, wm, balance } = r {
            let want = ledger.at(*a, *wm);
            checks.expect(*balance == Rational::from_int(want), || {
                format!("read of hot account {a} at {wm} saw {balance:?}, the fold is {want}")
            });
        }
    }
    Model { ledger, queue, semiqueue }
}

/// The store's committed state equals the serial replay: balances, the
/// queue in order, and the semiqueue's multiset — nothing dequeued or
/// removed twice, nothing lost.
fn check_state(db: &Db, objects: &Objects, model: &Model, when: &str, checks: &mut Checks) {
    let read = db.transact_read(|rtx| {
        let balances =
            objects.accounts.iter().map(|a| rtx.view_of(&**a)).collect::<Result<Vec<_>, _>>()?;
        Ok((balances, rtx.view_of(&*objects.queue)?, rtx.view_of(&*objects.semiqueue)?))
    });
    let Ok((balances, queue, semiqueue)) = read else {
        checks.fail(format!("{when} state unreadable: {:?}", read.err()));
        return;
    };
    for (a, got) in balances.iter().enumerate() {
        let want = model.ledger.last(a);
        checks.expect(*got == Rational::from_int(want), || {
            format!("{when} hot account {a} holds {got:?}, the replay gives {want}")
        });
    }
    checks.expect(queue == model.queue, || format!("{when} queue differs from the serial replay"));
    checks.expect(semiqueue == model.semiqueue, || {
        format!("{when} semiqueue differs from the serial replay")
    });
}

/// The round's account and queue operations as the requests and
/// responses that would carry them over the wire (the protocol has no
/// semiqueue operations; first 1000 operations).
fn wire_pairs(streams: &[Vec<Op>], records: &[Rec]) -> Vec<(Request, Response)> {
    let acct = |a: usize| format!("hot-acct-{a}");
    records
        .iter()
        .map(|r| match r {
            Rec::Txn { thread, index, ts, outcome } => {
                let Op::Txn(txn) = &streams[*thread][*index] else { unreachable!("a txn record") };
                let mut ops = Vec::new();
                let mut results = Vec::new();
                let mut debits = outcome.debited.iter();
                for &(a, op) in &txn.accounts {
                    match op {
                        AcctOp::Credit(amount) => {
                            ops.push(WireOp::Credit { name: acct(a), amount });
                            results.push(OpResult::Unit);
                        }
                        AcctOp::Debit(amount) => {
                            ops.push(WireOp::Debit { name: acct(a), amount });
                            results.push(OpResult::Debited(*debits.next().unwrap_or(&false)));
                        }
                        AcctOp::Overdraw => {
                            ops.push(WireOp::Debit { name: acct(a), amount: OVERDRAW });
                            results.push(OpResult::Debited(*debits.next().unwrap_or(&false)));
                        }
                    }
                }
                if let (Some(item), Some(got)) = (txn.queue, outcome.dequeued) {
                    ops.push(WireOp::Deq { name: QUEUE.into() });
                    ops.push(WireOp::Enq { name: QUEUE.into(), item });
                    results.extend([OpResult::Int(got), OpResult::Unit]);
                }
                (Request::Transact { ops }, Response::Committed { ts: *ts, results })
            }
            Rec::Read { a, wm, balance } => (
                Request::Read { at: None, queries: vec![(TypeTag::Account, acct(*a))] },
                Response::Views { watermark: *wm, views: vec![balance_view(balance)] },
            ),
        })
        .take(1000)
        .collect()
}
