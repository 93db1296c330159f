//! `socket_replicated`: `hcc-client` sessions against an in-process
//! `hcc-server` in front of a buffered primary whose WAL ships to an
//! in-process `hcc-repl` follower, itself served as a read replica.
//! Each client issues 80% snapshot reads (replica first) and 20%
//! single-op writes, Zipf-skewed over 1024 accounts. The wire codec,
//! server admission and workers, the client, WAL shipping, follower
//! apply and the wait-free read path do the work.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use hcc_adts::AccountObject;
use hcc_client::{Client, ClientOptions};
use hcc_db::Db;
use hcc_repl::{Follower, FollowerOptions, ObjectResolver};
use hcc_server::{serve_with, ServerOptions};
use hcc_spec::Rational;
use hcc_storage::{CompactionPolicy, Durability, DurableObject};
use hcc_wire::msg::{OpResult, Request, Response, TypeTag, View, WireOp};

use super::{
    account_name, dir_bytes, nanos, secs, wire_cost, Checks, Ledger, RoundOut, RoundSpec, Settings,
    ThreadLog, THREADS,
};
use crate::rng::{Rng, Zipf};
use crate::trace::{SpanKind, Tracer};

/// Accounts the Zipf skew ranges over.
pub const ACCOUNTS: usize = 1024;
/// Zipf exponent.
pub const ZIPF_S: f64 = 0.99;
/// Every account's balance after set-up: no debit overdraws.
pub const INITIAL: i64 = 1_000_000;
/// Operations per round.
pub const ROUND_OPS: usize = 20_000;
/// Share of operations that are snapshot reads.
pub const READ_SHARE: f64 = 0.8;
/// How long the follower may take to catch up before the round fails.
const CONVERGE: Duration = Duration::from_secs(30);

/// Storage settings (the follower's replica log is buffered too).
pub const SETTINGS: Settings = Settings {
    durability: "Buffered",
    stripes: 1,
    group_commit: true,
    compaction: "never (replicated primary)",
    read_share: READ_SHARE,
};

/// One generated operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Snapshot-read one balance.
    Read {
        /// The account.
        a: usize,
    },
    /// Credit (or debit) one account in a single-op transaction.
    Write {
        /// The account.
        a: usize,
        /// Credit if true, debit otherwise.
        credit: bool,
        /// Amount.
        amount: i64,
    },
}

/// The operation stream of one client thread of one round.
pub fn ops(seed: u64, round: u64, thread: u64, n: usize) -> Vec<Op> {
    let mut rng = Rng::for_stream(seed, round, thread);
    let zipf = Zipf::new(ACCOUNTS, ZIPF_S);
    (0..n)
        .map(|_| {
            let a = zipf.sample(&mut rng);
            if rng.chance(READ_SHARE) {
                Op::Read { a }
            } else {
                Op::Write { a, credit: rng.chance(0.5), amount: 1 + rng.below(100) as i64 }
            }
        })
        .collect()
}

/// Maps the shipped log's names to typed handles on the follower.
fn resolver() -> ObjectResolver {
    Arc::new(|db: &Db, name: &str| {
        if name.starts_with("acct-") {
            let obj = db.object::<AccountObject>(name).map_err(|e| e.to_string())?;
            Ok(obj as Arc<dyn DurableObject>)
        } else {
            Err(format!("unexpected object {name} in the shipped log"))
        }
    })
}

fn open(dir: &Path) -> Result<(Db, Vec<Arc<AccountObject>>), String> {
    let db = Db::builder()
        .durability(Durability::Buffered)
        .stripes(1)
        .group_commit(true)
        .compaction(CompactionPolicy::never())
        .open(dir)
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    let accounts = (0..ACCOUNTS)
        .map(|i| db.object::<AccountObject>(&account_name(i)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("open accounts: {e}"))?;
    Ok((db, accounts))
}

enum Rec {
    Write { a: usize, ts: u64, delta: i64, result: OpResult },
    Read { a: usize, wm: u64, view: View },
    ReplicaDetached,
}

/// The newest acknowledged write: its commit timestamp and ack instant.
type LatestAck = Mutex<(u64, Option<Instant>)>;

/// Run one round.
pub fn round(spec: &RoundSpec) -> Result<RoundOut, String> {
    let streams: Vec<Vec<Op>> =
        (0..THREADS as u64).map(|t| ops(spec.seed, spec.round, t, spec.ops_per_thread())).collect();
    let pdir = spec.dir.join("primary");
    let rdir = spec.dir.join("replica");
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");

    let setup = Instant::now();
    let (db, accounts) = open(&pdir)?;
    db.transact(|tx| {
        for a in &accounts {
            a.credit(tx, Rational::from_int(INITIAL))?;
        }
        Ok(())
    })
    .map_err(|e| format!("prefill: {e}"))?;
    drop(accounts);
    let db = Arc::new(db);
    let server = serve_with(
        db.clone(),
        "127.0.0.1:0",
        ServerOptions { repl_listen: Some("127.0.0.1:0".into()), ..ServerOptions::default() },
    )
    .map_err(io("serve primary"))?;
    let repl_addr = server.repl_addr().ok_or("no replication listener")?.to_string();
    let follower = Follower::start(
        &rdir,
        &repl_addr,
        resolver(),
        FollowerOptions {
            durability: Durability::Buffered,
            reconnect_backoff: Duration::from_millis(10),
            ..FollowerOptions::default()
        },
    )
    .map_err(|e| format!("start follower: {e}"))?;
    let replica = serve_with(follower.db().clone(), "127.0.0.1:0", ServerOptions::default())
        .map_err(io("serve replica"))?;
    let (primary_addr, replica_addr) =
        (server.local_addr().to_string(), replica.local_addr().to_string());
    let clients = (0..THREADS)
        .map(|_| {
            let mut c = Client::connect(&primary_addr)?;
            c.attach_read_replica(&replica_addr, ClientOptions::default())?;
            Ok(c)
        })
        .collect::<Result<Vec<Client>, hcc_db::HccError>>()
        .map_err(|e| format!("connect: {e}"))?;
    converge(&db, &follower)?;
    let mut out = RoundOut { setup_s: secs(setup), ..RoundOut::default() };

    let base = Instant::now();
    let before = (db.stats(), follower.db().stats());
    let latest: LatestAck = Mutex::new((0, None));
    let finished = AtomicUsize::new(0);
    let barrier = Barrier::new(THREADS + 1);
    let depth = db.metrics().gauge("net.queue.depth");
    let (logs, timed_s) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&streams)
            .enumerate()
            .map(|(t, (client, stream))| {
                let (latest, finished, barrier) = (&latest, &finished, &barrier);
                let tracer = Tracer::new(spec.traced, base);
                s.spawn(move || {
                    let log = drive(client, t as u64, stream, tracer, latest, barrier);
                    finished.fetch_add(1, Ordering::SeqCst);
                    log
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        // The main thread samples replication lag while the clients run:
        // from the newest write's ack until the follower's watermark
        // covers its commit timestamp.
        let mut sampled = 0u64;
        while finished.load(Ordering::SeqCst) < THREADS {
            out.queue_depth_max = out.queue_depth_max.max(depth.get());
            let (ts, acked) = *latest.lock().expect("ack slot poisoned");
            if let (true, Some(acked)) = (ts > sampled, acked) {
                let deadline = Instant::now() + CONVERGE;
                while follower.watermark() < ts && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_micros(50));
                }
                out.lag_ms.push(acked.elapsed().as_secs_f64() * 1e3);
                out.lag_tickets.push(follower.lag());
                sampled = ts;
            }
            // Sparse sampling keeps the sampler off the clients' CPUs.
            std::thread::sleep(Duration::from_millis(5));
        }
        let logs: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (logs, secs(started))
    });
    out.timed_s = timed_s;
    out.primary = db.stats().delta(&before.0);
    let replica_delta = follower.db().stats().delta(&before.1);

    let records: Vec<Rec> = logs.into_iter().flat_map(|l| l.merge_into(&mut out)).collect();
    let mut checks = Checks::default();
    checks.expect(out.failed_writes == 0, || {
        "a write failed, so its outcome is unknown and the ledger cannot be checked".into()
    });
    checks.expect(replica_delta.sum_prefix("lock.") == 0, || {
        format!(
            "the follower took {} lock actions while serving reads",
            replica_delta.sum_prefix("lock.")
        )
    });
    out.replica = Some(replica_delta);
    let ledger = verify(&records, &mut checks);
    match converge(&db, &follower) {
        Ok(()) => check_converged(&db, follower.db(), &ledger, &mut checks),
        Err(e) => checks.fail(e),
    }
    if spec.traced {
        out.wire = wire_cost(&wire_pairs(&records), &mut checks);
    }

    replica.drain();
    drop(follower);
    server.drain();
    let db = Arc::try_unwrap(db).map_err(|_| "the drained server still holds the primary")?;
    drop(db);
    out.wal_bytes = dir_bytes(&pdir);
    let mut tracer = Tracer::new(spec.traced, base);
    let reopened = Instant::now();
    let (db, accounts) = open(&pdir)?;
    out.recovery_s = secs(reopened);
    tracer.record(u64::MAX, SpanKind::Reopen, reopened, Instant::now());
    out.spans.extend(tracer.spans);
    out.recovery = db.stats();
    for (i, acct) in accounts.iter().enumerate() {
        let (got, want) = (acct.committed_balance(), ledger.last(i));
        checks.expect(got == Rational::from_int(want), || {
            format!("account {i} recovered {got:?}, acked writes fold to {want}")
        });
    }
    out.failures = checks.0;
    Ok(out)
}

/// Wait until the follower has applied everything the primary issued
/// and its watermark covers the primary's.
fn converge(db: &Db, follower: &Follower) -> Result<(), String> {
    let deadline = Instant::now() + CONVERGE;
    let store = db.storage().expect("the primary is durable");
    loop {
        if follower.durable_ticket() >= store.last_issued_ticket()
            && follower.lag() == 0
            && follower.watermark() >= db.stable_watermark()
        {
            return Ok(());
        }
        if follower.poisoned() || Instant::now() >= deadline {
            return Err(format!(
                "follower did not converge: watermark {} of {}, lag {}, poisoned {}",
                follower.watermark(),
                db.stable_watermark(),
                follower.lag(),
                follower.poisoned()
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn drive(
    mut client: Client,
    thread: u64,
    stream: &[Op],
    tracer: Tracer,
    latest: &LatestAck,
    barrier: &Barrier,
) -> ThreadLog<Rec> {
    let mut log = ThreadLog::new(tracer);
    barrier.wait();
    for (i, op) in stream.iter().enumerate() {
        let id = (thread << 40) | i as u64;
        match *op {
            Op::Read { a } => {
                log.attempted_reads += 1;
                let start = Instant::now();
                let res = client.read(None, vec![(TypeTag::Account, account_name(a))]);
                let end = Instant::now();
                log.tracer.record(id, SpanKind::ClientRead, start, end);
                log.reads.push(nanos(start, end));
                match res {
                    Ok((wm, mut views)) if views.len() == 1 => {
                        log.records.push(Rec::Read { a, wm, view: views.remove(0) })
                    }
                    Ok((_, views)) => {
                        log.fail(false, format!("{} views for one query", views.len()))
                    }
                    Err(e) => log.fail(false, e),
                }
            }
            Op::Write { a, credit, amount } => {
                log.attempted_writes += 1;
                let op = if credit {
                    WireOp::Credit { name: account_name(a), amount }
                } else {
                    WireOp::Debit { name: account_name(a), amount }
                };
                let start = Instant::now();
                let res = client.transact(vec![op]);
                let end = Instant::now();
                log.tracer.record(id, SpanKind::ClientTransact, start, end);
                log.writes.push(nanos(start, end));
                match res {
                    Ok((ts, results)) if results.len() == 1 => {
                        let delta = if credit { amount } else { -amount };
                        log.records.push(Rec::Write { a, ts, delta, result: results[0] });
                        let mut slot = latest.lock().expect("ack slot poisoned");
                        if ts > slot.0 {
                            *slot = (ts, Some(end));
                        }
                    }
                    Ok((_, results)) => {
                        log.fail(true, format!("{} results for one op", results.len()))
                    }
                    Err(e) => log.fail(true, e),
                }
            }
        }
    }
    if !client.has_read_replica() {
        log.records.push(Rec::ReplicaDetached);
    }
    if let Err(e) = client.goodbye() {
        log.first_error.get_or_insert_with(|| format!("goodbye: {e}"));
    }
    log
}

/// Every write returned what the serial specification says (credits
/// `Unit`, debits never overdraw), every read — replica or primary —
/// saw exactly the fold of the commits at or below its watermark, and
/// no client lost its replica.
fn verify(records: &[Rec], checks: &mut Checks) -> Ledger {
    let mut ledger = Ledger::new(ACCOUNTS, INITIAL);
    for r in records {
        match r {
            Rec::Write { a, ts, delta, result } => {
                let want = if *delta > 0 { OpResult::Unit } else { OpResult::Debited(true) };
                checks.expect(*result == want, || {
                    format!("write to {a} at {ts} returned {result:?}")
                });
                ledger.add(*a, *ts, *delta);
            }
            Rec::ReplicaDetached => {
                checks.fail("a client's read replica was detached during the run".into())
            }
            Rec::Read { .. } => {}
        }
    }
    ledger.seal();
    for r in records {
        if let Rec::Read { a, wm, view } = r {
            let want = View::Balance { num: ledger.at(*a, *wm), den: 1 };
            checks.expect(*view == want, || {
                format!("read of account {a} at {wm} saw {view:?}, the fold is {want:?}")
            });
        }
    }
    ledger
}

/// The converged follower holds exactly the primary's balances, and both
/// hold the fold of every acknowledged write.
fn check_converged(primary: &Db, follower: &Db, ledger: &Ledger, checks: &mut Checks) {
    let balances = |db: &Db| {
        db.transact_read(|rtx| {
            (0..ACCOUNTS)
                .map(|i| rtx.view::<AccountObject>(&account_name(i)))
                .collect::<Result<Vec<_>, _>>()
        })
    };
    match (balances(primary), balances(follower)) {
        (Ok(p), Ok(f)) => {
            for (i, (p, f)) in p.iter().zip(&f).enumerate() {
                let want = Rational::from_int(ledger.last(i));
                checks.expect(*p == want && *f == want, || {
                    format!("account {i}: primary {p:?}, follower {f:?}, fold {want:?}")
                });
            }
        }
        (p, f) => checks.fail(format!("convergence read failed: {:?} / {:?}", p.err(), f.err())),
    }
}

/// The round's own requests and responses (first 1000 operations).
fn wire_pairs(records: &[Rec]) -> Vec<(Request, Response)> {
    records
        .iter()
        .filter_map(|r| match r {
            Rec::Write { a, ts, delta, result } => {
                let op = if *delta > 0 {
                    WireOp::Credit { name: account_name(*a), amount: *delta }
                } else {
                    WireOp::Debit { name: account_name(*a), amount: -delta }
                };
                Some((
                    Request::Transact { ops: vec![op] },
                    Response::Committed { ts: *ts, results: vec![*result] },
                ))
            }
            Rec::Read { a, wm, view } => Some((
                Request::Read { at: None, queries: vec![(TypeTag::Account, account_name(*a))] },
                Response::Views { watermark: *wm, views: vec![view.clone()] },
            )),
            Rec::ReplicaDetached => None,
        })
        .take(1000)
        .collect()
}
