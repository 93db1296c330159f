//! The primary's side of log shipping: a replication listener and one
//! shipper thread per connected follower.
//!
//! Each shipper owns its own [`WalTailer`] over the primary's live WAL
//! directory, resumed at the ticket the follower's `Hello` reported
//! durable — so a reconnecting follower re-receives exactly the suffix
//! it lost, and two followers at different positions stream
//! independently. Frames ship raw (still in their WAL envelope) in
//! global ticket order, chunked under the wire payload bound; every
//! batch carries a freshly sampled `(watermark, ticket)` pair, and an
//! empty batch is a heartbeat pushing new positions when no frames are
//! flowing (that is what lets an idle follower's watermark converge —
//! and its lag reach 0 — without new commits).
//!
//! The shipper never reads transaction state: its only inputs are the
//! WAL bytes and the `(watermark, ticket)` position pair. Losing the
//! primary process therefore loses nothing the log didn't already hold
//! — the exact guarantee promotion is specified against.
//!
//! A transaction's records wait in the WAL's stripe buffers until it
//! completes, so the files can lag the issued tickets. A shipper whose
//! tail runs dry below the sampled ticket pushes those buffers to the OS
//! ([`DurableStore::flush`]) before it polls again: every poll the
//! tailer spends as gap patience then sees every record appended so far,
//! and patience only ever skips a ticket that was reserved and never
//! appended.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hcc_db::Db;
use hcc_obs::{Counter, Gauge, Registry};
use hcc_storage::{DurableStore, TailOptions, WalTailer};
use hcc_txn::TxnManager;
use hcc_wire::conn::{self, Listener, RecvHalf, SendHalf};
use hcc_wire::repl::{ReplMsg, REPL_PROTOCOL_VERSION};
use hcc_wire::MAX_WIRE_PAYLOAD;

/// Tunables for a [`Primary`].
#[derive(Clone, Debug)]
pub struct PrimaryOptions {
    /// When set, follower `Hello`s must present exactly this token.
    pub token: Option<String>,
    /// Soft cap on one `ReplBatch`'s frame bytes (kept well under the
    /// wire's 1 MiB payload bound).
    pub batch_max_bytes: usize,
    /// How long a shipper sleeps when the tail is dry and positions are
    /// unchanged.
    pub poll_interval: Duration,
    /// Tailer patience before a never-appended ticket (an aborted
    /// reservation) is skipped. Generous: a skip of a ticket that was
    /// merely slow would ship a log with a real hole.
    pub gap_patience: u32,
}

impl Default for PrimaryOptions {
    fn default() -> PrimaryOptions {
        PrimaryOptions {
            token: None,
            batch_max_bytes: 512 << 10,
            poll_interval: Duration::from_millis(2),
            gap_patience: 500,
        }
    }
}

struct Instruments {
    batches: Arc<Counter>,
    frames: Arc<Counter>,
    bytes: Arc<Counter>,
    heartbeats: Arc<Counter>,
    faults: Arc<Counter>,
    followers: Arc<Gauge>,
    shipped: Arc<Gauge>,
    acked: Arc<Gauge>,
}

impl Instruments {
    fn resolve(metrics: &Registry) -> Instruments {
        Instruments {
            batches: metrics.counter("repl.batches.shipped"),
            frames: metrics.counter("repl.frames.shipped"),
            bytes: metrics.counter("repl.bytes.shipped"),
            heartbeats: metrics.counter("repl.heartbeats"),
            faults: metrics.counter("repl.faults"),
            followers: metrics.gauge("repl.followers"),
            shipped: metrics.gauge("repl.shipped.ticket"),
            acked: metrics.gauge("repl.acked.ticket"),
        }
    }
}

struct PrimaryShared {
    store: Arc<DurableStore>,
    mgr: Arc<TxnManager>,
    ins: Instruments,
    opts: PrimaryOptions,
    stop: AtomicBool,
}

impl PrimaryShared {
    /// The primary's `(stable_watermark, last_issued_ticket)` — read in
    /// that order, which is what makes the pair safe for follower reads
    /// (see the crate docs).
    fn positions(&self) -> (u64, u64) {
        let wm = self.mgr.stable_watermark();
        let tk = self.store.last_issued_ticket();
        (wm, tk)
    }
}

/// The replication listener: accepts followers and ships them the log.
/// Dropped or [`Primary::stop`]ped, it closes every stream; followers
/// reconnect elsewhere (or get promoted).
pub struct Primary {
    addr: SocketAddr,
    shared: Arc<PrimaryShared>,
    accept: Option<JoinHandle<()>>,
    shippers: Arc<parking_lot::Mutex<Vec<JoinHandle<()>>>>,
}

impl Primary {
    /// Bind `addr` (port 0 for an OS-assigned port) and start accepting
    /// followers, shipping the WAL of the durable `db`. The `repl.*`
    /// primary-side metrics land in `db`'s registry.
    pub fn start(addr: &str, db: &Db, opts: PrimaryOptions) -> std::io::Result<Primary> {
        let Some(store) = db.storage() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "replication requires a durable Db (it ships the WAL)",
            ));
        };
        let listener = Listener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(PrimaryShared {
            store: store.clone(),
            mgr: db.manager().clone(),
            ins: Instruments::resolve(db.metrics()),
            opts,
            stop: AtomicBool::new(false),
        });
        let shippers = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let accept = {
            let shared = shared.clone();
            let shippers = shippers.clone();
            std::thread::spawn(move || {
                while let Ok((conn, _peer)) = listener.accept() {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let shared = shared.clone();
                    let handle = std::thread::spawn(move || {
                        if let Ok((tx, rx)) = conn.split() {
                            ship(&shared, tx, rx);
                        }
                    });
                    shippers.lock().push(handle);
                }
            })
        };
        Ok(Primary { addr: local, shared, accept: Some(accept), shippers })
    }

    /// The listener's bound address (for followers to dial).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close every shipper, and join the threads.
    /// Idempotent.
    pub fn stop(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = conn::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.shippers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Primary {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Receive the follower's `Hello` (bounded wait), check version and
/// token, answer `Welcome` with the tailer already positioned at its
/// resume ticket. `None` = refuse/close.
fn handshake(
    shared: &PrimaryShared,
    tx: &mut SendHalf,
    rx: &mut RecvHalf,
) -> Option<(WalTailer, u64)> {
    rx.set_read_timeout(Some(Duration::from_millis(200))).ok()?;
    let hello = loop {
        match rx.recv::<ReplMsg>() {
            Ok(Some((_, msg, _))) => break msg,
            Ok(None) => return None,
            Err(e) if e.is_timeout() => {
                if shared.stop.load(Ordering::SeqCst) {
                    return None;
                }
            }
            Err(_) => return None,
        }
    };
    let ReplMsg::Hello { version, token, last_ticket } = hello else {
        refuse(shared, tx, "expected ReplHello");
        return None;
    };
    if version != REPL_PROTOCOL_VERSION {
        refuse(shared, tx, &format!("unsupported replication protocol version {version}"));
        return None;
    }
    if let Some(expected) = &shared.opts.token {
        if &token != expected {
            refuse(shared, tx, "bad token");
            return None;
        }
    }
    let tailer = match WalTailer::new(
        shared.store.dir(),
        last_ticket,
        TailOptions { gap_patience: shared.opts.gap_patience },
    ) {
        Ok(t) => t,
        Err(e) => {
            refuse(shared, tx, &format!("cannot tail log: {e}"));
            return None;
        }
    };
    let welcome = ReplMsg::Welcome { version: REPL_PROTOCOL_VERSION, frontier: tailer.frontier() };
    tx.send(0, &welcome).ok()?;
    Some((tailer, last_ticket))
}

fn refuse(shared: &PrimaryShared, tx: &mut SendHalf, detail: &str) {
    shared.ins.faults.inc();
    let _ = tx.send(0, &ReplMsg::Fault { detail: detail.to_string() });
}

/// One follower's stream, to disconnection or shutdown.
fn ship(shared: &PrimaryShared, mut tx: SendHalf, mut rx: RecvHalf) {
    let Some((mut tailer, resume)) = handshake(shared, &mut tx, &mut rx) else {
        return;
    };
    shared.ins.followers.adjust(1);
    let mut seq = 0u64;
    let mut shipped = resume;
    let mut last_positions = (u64::MAX, u64::MAX);
    // Frames held over from the previous poll that didn't fit the batch.
    let mut backlog: std::collections::VecDeque<(u64, Vec<u8>)> = Default::default();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if backlog.is_empty() {
            match tailer.poll() {
                Ok(frames) => backlog.extend(frames),
                Err(e) => {
                    refuse(shared, &mut tx, &format!("tail failed: {e}"));
                    break;
                }
            }
        }
        let positions = shared.positions();
        if backlog.is_empty() && tailer.next_ticket() <= positions.1 {
            // Issued tickets the files do not show yet may sit in a
            // stripe buffer; make them visible before the next poll
            // counts against the gap patience (see the module docs).
            if let Err(e) = shared.store.flush() {
                refuse(shared, &mut tx, &format!("flush failed: {e}"));
                break;
            }
        }
        if backlog.is_empty() {
            if positions != last_positions {
                // Heartbeat: new positions, no frames.
                let beat =
                    ReplMsg::Batch { watermark: positions.0, ticket: positions.1, frames: vec![] };
                seq += 1;
                if tx.send(seq, &beat).is_err() || !await_ack(shared, &mut rx) {
                    break;
                }
                shared.ins.heartbeats.inc();
                last_positions = positions;
            } else {
                std::thread::park_timeout(shared.opts.poll_interval);
            }
            continue;
        }
        // Assemble one batch from the backlog, respecting the byte cap.
        let mut frames = Vec::new();
        let mut count = 0u64;
        while let Some((ticket, bytes)) = backlog.front() {
            if bytes.len() > MAX_WIRE_PAYLOAD as usize - 64 {
                // A single WAL frame beyond the wire bound cannot ship
                // (known limitation — see docs/REPLICATION.md).
                refuse(
                    shared,
                    &mut tx,
                    &format!(
                        "frame {ticket} is {} bytes, beyond the wire payload bound",
                        bytes.len()
                    ),
                );
                shared.ins.followers.adjust(-1);
                return;
            }
            if !frames.is_empty() && frames.len() + bytes.len() > shared.opts.batch_max_bytes {
                break;
            }
            let (ticket, bytes) = backlog.pop_front().expect("front checked");
            shipped = ticket;
            frames.extend_from_slice(&bytes);
            count += 1;
        }
        let batch_bytes = frames.len() as u64;
        let batch = ReplMsg::Batch { watermark: positions.0, ticket: positions.1, frames };
        seq += 1;
        if tx.send(seq, &batch).is_err() || !await_ack(shared, &mut rx) {
            break;
        }
        last_positions = positions;
        shared.ins.batches.inc();
        shared.ins.frames.add(count);
        shared.ins.bytes.add(batch_bytes);
        shared.ins.shipped.set(shipped as i64);
    }
    shared.ins.followers.adjust(-1);
}

/// Block (with stop checks) for the follower's `Ack`; false = stream over.
fn await_ack(shared: &PrimaryShared, rx: &mut RecvHalf) -> bool {
    loop {
        match rx.recv::<ReplMsg>() {
            Ok(Some((_, ReplMsg::Ack { ticket }, _))) => {
                shared.ins.acked.set(ticket as i64);
                return true;
            }
            Ok(Some(_)) => return false,
            Ok(None) => return false,
            Err(e) if e.is_timeout() => {
                if shared.stop.load(Ordering::SeqCst) {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
}
