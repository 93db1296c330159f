//! The three workloads and what they share: the round contract, the
//! per-thread log, the account ledger every correctness check folds, and
//! the wire-codec probe.
//!
//! A *round* is one fixed-size unit of work on a fresh store: set up,
//! run a fixed count of seeded operations from [`THREADS`] closed-loop
//! client threads, check the outputs, drop the store and reopen it. A
//! run repeats rounds until its time is up; every round leaves a log of
//! the same size, so recovery time and bytes per transaction compare
//! across commits.

pub mod fsync_durable;
pub mod hot_contended;
pub mod socket_replicated;

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use hcc_obs::Snapshot;
use hcc_spec::Rational;
use hcc_wire::frame::{encode_frame_into, frame_at};
use hcc_wire::msg::{Request, Response, View, WireMsg};

use crate::trace::{Span, Tracer};

/// Closed-loop client threads per workload.
pub const THREADS: usize = 2;

/// The runtime's default lock-wait timeout (`BlockPolicy::timeout`): an
/// operation this slow waited out a whole lock timeout.
pub const LOCK_TIMEOUT: Duration = Duration::from_secs(2);

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fsync'd two-account transfers over 4096 accounts.
    FsyncDurable,
    /// Buffered transactions over a few hot accounts, a queue and a
    /// semiqueue.
    HotContended,
    /// Socket clients against a replicated primary, reads served by the
    /// follower.
    SocketReplicated,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::FsyncDurable, Workload::HotContended, Workload::SocketReplicated];

    /// Look a workload up by its name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FsyncDurable => "fsync_durable",
            Workload::HotContended => "hot_contended",
            Workload::SocketReplicated => "socket_replicated",
        }
    }

    /// Operations (writes plus reads) per round.
    pub fn round_ops(self) -> usize {
        match self {
            Workload::FsyncDurable => fsync_durable::ROUND_OPS,
            Workload::HotContended => hot_contended::ROUND_OPS,
            Workload::SocketReplicated => socket_replicated::ROUND_OPS,
        }
    }

    /// The storage settings the workload runs under, recorded in every
    /// result so both sides of a comparison can be seen to match.
    pub fn settings(self) -> Settings {
        match self {
            Workload::FsyncDurable => fsync_durable::SETTINGS,
            Workload::HotContended => hot_contended::SETTINGS,
            Workload::SocketReplicated => socket_replicated::SETTINGS,
        }
    }

    /// Run one round.
    pub fn round(self, spec: &RoundSpec) -> Result<RoundOut, String> {
        match self {
            Workload::FsyncDurable => fsync_durable::round(spec),
            Workload::HotContended => hot_contended::round(spec),
            Workload::SocketReplicated => socket_replicated::round(spec),
        }
    }
}

/// A workload's storage and client settings.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// `Durability` of the primary store.
    pub durability: &'static str,
    /// WAL stripes.
    pub stripes: usize,
    /// Leader-based group commit.
    pub group_commit: bool,
    /// Compaction policy.
    pub compaction: &'static str,
    /// Share of operations that are snapshot reads.
    pub read_share: f64,
}

/// One round's inputs.
#[derive(Clone, Debug)]
pub struct RoundSpec {
    /// The run's seed.
    pub seed: u64,
    /// Round index within the run (varies the generated streams).
    pub round: u64,
    /// Operations per round, split evenly across [`THREADS`].
    pub ops: usize,
    /// Record spans.
    pub traced: bool,
    /// An empty scratch directory for the round's stores.
    pub dir: PathBuf,
}

impl RoundSpec {
    /// Operations per client thread.
    pub fn ops_per_thread(&self) -> usize {
        self.ops.div_ceil(THREADS)
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Seconds from opening the store until the timed phase started.
    pub setup_s: f64,
    /// Seconds the timed phase took.
    pub timed_s: f64,
    /// Seconds to reopen the store and every object on it.
    pub recovery_s: f64,
    /// Caller-observed write latencies, ns.
    pub writes: Vec<u64>,
    /// Caller-observed read latencies, ns.
    pub reads: Vec<u64>,
    /// Write operations attempted.
    pub attempted_writes: u64,
    /// Read operations attempted.
    pub attempted_reads: u64,
    /// Writes that returned an error after their retry budget.
    pub failed_writes: u64,
    /// Reads that returned an error after their retry budget.
    pub failed_reads: u64,
    /// Snapshot-read attempts, retries included (in-process reads; the
    /// socket workload counts them from the servers' registries).
    pub read_attempts: u64,
    /// Client threads that ran pinned to their own CPU.
    pub pinned_threads: u64,
    /// Bytes in the primary store directory after the round.
    pub wal_bytes: u64,
    /// The first error an operation returned, if any did.
    pub first_error: Option<String>,
    /// Correctness checks that failed (empty = all held).
    pub failures: Vec<String>,
    /// The primary registry's delta over the timed phase.
    pub primary: Snapshot,
    /// The follower registry's delta over the timed phase, if any.
    pub replica: Option<Snapshot>,
    /// The reopened store's registry right after recovery.
    pub recovery: Snapshot,
    /// Spans (traced rounds only).
    pub spans: Vec<Span>,
    /// Sampled write-ack → follower-watermark lags, ms.
    pub lag_ms: Vec<f64>,
    /// Sampled follower lag in tickets.
    pub lag_tickets: Vec<u64>,
    /// Highest server queue depth sampled.
    pub queue_depth_max: i64,
    /// Codec cost of the round's own requests and responses.
    pub wire: WireCost,
}

impl RoundOut {
    /// Operations the timed phase completed (writes plus reads).
    pub fn completed(&self) -> u64 {
        (self.writes.len() + self.reads.len()) as u64
    }
}

/// One client thread's record of the timed phase.
pub struct ThreadLog<R> {
    /// Write latencies, ns.
    pub writes: Vec<u64>,
    /// Read latencies, ns.
    pub reads: Vec<u64>,
    /// Writes attempted.
    pub attempted_writes: u64,
    /// Reads attempted.
    pub attempted_reads: u64,
    /// Writes failed.
    pub failed_writes: u64,
    /// Reads failed.
    pub failed_reads: u64,
    /// Snapshot-read attempts, retries included.
    pub read_attempts: u64,
    /// The thread ran pinned to its own CPU.
    pub pinned: bool,
    /// The first error seen, for the report.
    pub first_error: Option<String>,
    /// Per-operation outcomes the checks fold.
    pub records: Vec<R>,
    /// Spans.
    pub tracer: Tracer,
}

impl<R> ThreadLog<R> {
    /// An empty log.
    pub fn new(tracer: Tracer) -> ThreadLog<R> {
        ThreadLog {
            writes: Vec::new(),
            reads: Vec::new(),
            attempted_writes: 0,
            attempted_reads: 0,
            failed_writes: 0,
            failed_reads: 0,
            read_attempts: 0,
            pinned: false,
            first_error: None,
            records: Vec::new(),
            tracer,
        }
    }

    /// Note a failed operation.
    pub fn fail(&mut self, write: bool, err: impl std::fmt::Display) {
        if write {
            self.failed_writes += 1;
        } else {
            self.failed_reads += 1;
        }
        self.first_error.get_or_insert_with(|| err.to_string());
    }

    /// Fold this thread's latencies, counts and spans into `out`; return
    /// its records.
    pub fn merge_into(self, out: &mut RoundOut) -> Vec<R> {
        out.writes.extend(self.writes);
        out.reads.extend(self.reads);
        out.attempted_writes += self.attempted_writes;
        out.attempted_reads += self.attempted_reads;
        out.failed_writes += self.failed_writes;
        out.failed_reads += self.failed_reads;
        out.read_attempts += self.read_attempts;
        out.pinned_threads += u64::from(self.pinned);
        out.spans.extend(self.tracer.spans);
        if out.first_error.is_none() {
            out.first_error = self.first_error;
        }
        self.records
    }
}

/// Run `client(thread, stream, barrier)` on one thread per stream. The
/// barrier releases them together; the timed phase runs from that
/// release until the last client returns. Returns the logs in thread
/// order and the phase's seconds.
pub fn timed_phase<O: Sync, R: Send>(
    streams: &[Vec<O>],
    client: impl Fn(usize, &[O], &Barrier) -> ThreadLog<R> + Sync,
) -> (Vec<ThreadLog<R>>, f64) {
    let barrier = Barrier::new(streams.len() + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(t, stream)| {
                let (client, barrier) = (&client, &barrier);
                s.spawn(move || client(t, stream, barrier))
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let logs = handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (logs, secs(started))
    })
}

/// The name of account `i` in the workloads with many accounts.
pub fn account_name(i: usize) -> String {
    format!("acct-{i:04}")
}

/// A balance as its wire view.
pub fn balance_view(balance: &Rational) -> View {
    View::Balance { num: balance.numerator() as i64, den: balance.denominator() as i64 }
}

/// Correctness check failures collected during a round.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<String>);

impl Checks {
    /// Record a failure (the first few are kept).
    pub fn fail(&mut self, what: String) {
        if self.0.len() < 16 {
            self.0.push(what);
        }
    }

    /// Record `what()` unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

/// Integer account balances as a function of commit timestamp: the fold
/// every balance check compares against.
pub struct Ledger {
    initial: i64,
    entries: Vec<Vec<(u64, i64)>>,
    prefix: Vec<Vec<i64>>,
}

impl Ledger {
    /// `accounts` accounts, each starting at `initial`.
    pub fn new(accounts: usize, initial: i64) -> Ledger {
        Ledger { initial, entries: vec![Vec::new(); accounts], prefix: Vec::new() }
    }

    /// Account `acct` changed by `delta` in the commit at `ts`.
    pub fn add(&mut self, acct: usize, ts: u64, delta: i64) {
        self.entries[acct].push((ts, delta));
    }

    /// Order every account's changes by timestamp; call before queries.
    pub fn seal(&mut self) {
        self.prefix = self
            .entries
            .iter_mut()
            .map(|e| {
                e.sort_unstable_by_key(|(ts, _)| *ts);
                let mut acc = 0i64;
                e.iter()
                    .map(|(_, d)| {
                        acc += d;
                        acc
                    })
                    .collect()
            })
            .collect();
    }

    /// The balance of `acct` as of commit timestamp `wm`.
    pub fn at(&self, acct: usize, wm: u64) -> i64 {
        let n = self.entries[acct].partition_point(|(ts, _)| *ts <= wm);
        self.initial + if n == 0 { 0 } else { self.prefix[acct][n - 1] }
    }

    /// The balance of `acct` after every commit.
    pub fn last(&self, acct: usize) -> i64 {
        self.at(acct, u64::MAX)
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The codec cost of a round's own traffic: `hcc-wire`'s public encoder
/// and decoder (payload codec plus frame envelope) over request/response
/// pairs the workload sends or would send.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireCost {
    /// Request/response pairs timed.
    pub pairs: u64,
    /// Encode time per pair, ns.
    pub encode_ns: f64,
    /// Decode time per pair, ns.
    pub decode_ns: f64,
    /// Framed bytes per pair.
    pub bytes: f64,
}

/// Time the codec over `pairs`; a decode that does not give back what was
/// encoded is a check failure.
pub fn wire_cost(pairs: &[(Request, Response)], checks: &mut Checks) -> WireCost {
    if pairs.is_empty() {
        return WireCost::default();
    }
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(pairs.len() * 2);
    let mut payload = Vec::new();
    let started = Instant::now();
    for (seq, (req, resp)) in pairs.iter().enumerate() {
        frames.push(frame_of(seq as u64, req, &mut payload));
        frames.push(frame_of(seq as u64, resp, &mut payload));
    }
    let encode = started.elapsed();
    let bytes: usize = frames.iter().map(Vec::len).sum();

    let started = Instant::now();
    let mut decoded = Vec::with_capacity(pairs.len());
    for pair in frames.chunks_exact(2) {
        let req = frame_at(&pair[0], 0).ok().and_then(|(_, p, _)| Request::decode_payload(p));
        let resp = frame_at(&pair[1], 0).ok().and_then(|(_, p, _)| Response::decode_payload(p));
        decoded.push((req, resp));
    }
    let decode = started.elapsed();
    let intact = decoded
        .iter()
        .zip(pairs)
        .all(|((req, resp), (r, s))| req.as_ref() == Some(r) && resp.as_ref() == Some(s));
    checks.expect(intact, || "wire codec did not round-trip the workload's messages".into());

    let n = pairs.len() as f64;
    WireCost {
        pairs: pairs.len() as u64,
        encode_ns: encode.as_nanos() as f64 / n,
        decode_ns: decode.as_nanos() as f64 / n,
        bytes: bytes as f64 / n,
    }
}

/// `msg` encoded and framed as request id `seq`.
fn frame_of(seq: u64, msg: &impl WireMsg, payload: &mut Vec<u8>) -> Vec<u8> {
    payload.clear();
    msg.encode_payload(payload);
    let mut frame = Vec::with_capacity(payload.len() + 16);
    encode_frame_into(seq, payload, &mut frame);
    frame
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Nanoseconds between two instants.
pub fn nanos(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}
