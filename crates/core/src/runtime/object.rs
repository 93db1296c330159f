//! The generic hybrid-atomic object: versions, intents, implicit locks,
//! `when`-style blocking, and horizon-based forgetting.

use super::adt::{ClassifiedOp, LockSpec, RedoDecodeError, RuntimeAdt};
use super::handle::{TxnHandle, TxnPhase};
use super::options::RuntimeOptions;
use hcc_obs::Counter;
use hcc_spec::TxnId;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::mem::{discriminant, Discriminant};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The reserved transaction id [`TxObject::pin_horizon`] parks its bound
/// under. Real transaction ids are allocated from 1 upward; this cannot
/// collide with them.
const HORIZON_PIN: TxnId = TxnId(u64::MAX - 2);

/// Why a blocking execution gave up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The transaction was selected as a deadlock victim; the caller must
    /// abort it.
    Doomed,
    /// The block policy's timeout elapsed.
    Timeout,
    /// The transaction is not active (already committed or aborted).
    NotActive,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Doomed => {
                write!(f, "execution refused: transaction was doomed as a deadlock victim")
            }
            ExecError::Timeout => {
                write!(f, "execution refused: lock-wait timeout elapsed while blocked")
            }
            ExecError::NotActive => {
                write!(
                    f,
                    "execution refused: transaction is not active (already committed or aborted)"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Why replaying a logged operation onto an object failed. Any of these
/// during recovery means the log and the object disagree — corruption or a
/// replay-order bug — and recovery must stop rather than guess.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The redo payload could not be decoded.
    Decode(RedoDecodeError),
    /// The replayed execution was refused (conflict/timeout against replay
    /// state — should be impossible in a quiesced recovery).
    Exec(ExecError),
    /// The operation executed, but no candidate reproduced the logged
    /// response.
    Diverged {
        /// The logged response (debug form).
        expected: String,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Decode(e) => write!(f, "replay: {e}"),
            ReplayError::Exec(e) => write!(f, "replay execution refused: {e}"),
            ReplayError::Diverged { expected } => {
                write!(f, "replay diverged: no candidate reproduced logged response {expected}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Refusal from [`TxObject::install_version`]: the object is not fresh
/// — it already holds committed history or active transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotFresh;

impl std::fmt::Display for NotFresh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot install a recovered version: the object already has history")
    }
}

impl std::error::Error for NotFresh {}

/// Refusal from [`TxObject::snapshot_read`]: a commit with timestamp
/// above the requested watermark has already been folded into the
/// compacted version, so the watermark image can no longer be
/// reconstructed here. Readers that pinned the horizon *before* picking
/// their watermark only hit this in the benign race where a fold
/// completed between watermark selection and the pin landing — the read
/// layer treats it as transient and retries at a fresh watermark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotStale {
    /// The highest commit timestamp folded into the base version.
    pub folded: u64,
    /// The watermark the reader asked for.
    pub watermark: u64,
}

impl std::fmt::Display for SnapshotStale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "snapshot at timestamp {} is stale: commits up to {} are already \
             compacted into the base version",
            self.watermark, self.folded
        )
    }
}

impl std::error::Error for SnapshotStale {}

/// Outcome of a single non-blocking execution attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TryExecOutcome<R> {
    /// Lock granted; operation executed with this response.
    Executed(R),
    /// Refused: conflicting operations held by these active transactions.
    Conflict(Vec<TxnId>),
    /// The operation is not defined in the current view (partial op).
    Undefined,
}

/// Commit/abort interface used by the transaction manager for fan-out; a
/// type-erased view of [`TxObject`].
pub trait TxParticipant: Send + Sync {
    /// The object's name.
    fn object_name(&self) -> &str;
    /// Phase-1 vote: can this transaction still commit here?
    fn prepare(&self, txn: &TxnHandle) -> bool;
    /// Phase 2: the transaction committed with timestamp `ts`.
    fn commit_at(&self, txn: TxnId, ts: u64);
    /// The transaction aborted; discard its intent and release its locks.
    fn abort_txn(&self, txn: TxnId);
}

/// Aggregate contention statistics for one object.
#[derive(Clone, Copy, Debug, Default)]
pub struct ObjectStats {
    /// Operations executed (locks granted).
    pub executed: u64,
    /// Lock requests refused at least once.
    pub conflicts: u64,
    /// Total condvar waits.
    pub waits: u64,
    /// Committed transactions folded into the version by `forget()`.
    pub forgotten: u64,
}

/// One executed operation held by an active transaction, with the lock
/// scheme's memoized classification (when the scheme classifies through
/// a spec mapping — see [`LockSpec::prepare`]). Computing the token once
/// at execution time keeps `spec_op` + class lookup off the conflict-test
/// hot path, where it used to run per held op per candidate per attempt.
struct ExecOp<A: RuntimeAdt> {
    op: (A::Inv, A::Res),
    token: Option<ClassifiedOp>,
}

struct TxnRec<A: RuntimeAdt> {
    intent: A::Intent,
    ops: Vec<ExecOp<A>>,
}

impl<A: RuntimeAdt> Default for TxnRec<A> {
    fn default() -> Self {
        TxnRec { intent: A::Intent::default(), ops: Vec::new() }
    }
}

struct ObjState<A: RuntimeAdt> {
    /// Compacted committed state (`s.version` / the appendix's `bal`).
    version: A::Version,
    /// Committed but unforgotten transactions, in timestamp order (the
    /// appendix's `committed` id-heap plus `intentions`).
    committed: BTreeMap<u64, TxnRec<A>>,
    /// Active transactions' intents and executed operations (the intent
    /// table; the lock table is implicit in `ops`).
    active: HashMap<TxnId, TxnRec<A>>,
    /// Latest observed commit timestamp (0 = none; real timestamps are
    /// positive).
    clock: u64,
    /// Lower bounds for active transactions (the bound table).
    bounds: HashMap<TxnId, u64>,
    /// Highest commit timestamp ever folded into `version` (0 = none):
    /// the compaction watermark below which per-timestamp images are
    /// gone. [`TxObject::snapshot_read`] refuses watermarks below this
    /// instead of serving the folded state as if it were the older image.
    folded: u64,
    /// Completion notifications sent so far: bumped under the latch
    /// before every `notify_all`, so a blocked `execute` can tell that a
    /// notification landed between its refused attempt and its wait.
    wakes: u64,
}

/// A thread-safe transactional object running one data type under one
/// concurrency-control scheme.
pub struct TxObject<A: RuntimeAdt> {
    name: String,
    adt: A,
    locks: Arc<dyn LockSpec<A>>,
    opts: RuntimeOptions,
    inner: Mutex<ObjState<A>>,
    cv: Condvar,
    executed: AtomicU64,
    conflicts: AtomicU64,
    waits: AtomicU64,
    forgotten: AtomicU64,
    /// Pre-resolved grant counters by executed-operation variant, so the
    /// hot grant path is a map read instead of a per-op label allocation.
    /// Types whose conflict class depends on a payload *value* (not just
    /// the variant) label all of a variant's grants under the first-seen
    /// class; refusal/wait counters (cold path) always label exactly.
    grant_cache: RwLock<HashMap<OpVariant<A>, Arc<Counter>>>,
}

/// An executed operation's variant pair — the grant-counter cache key.
type OpVariant<A> = (Discriminant<<A as RuntimeAdt>::Inv>, Discriminant<<A as RuntimeAdt>::Res>);

/// The `(requested, held)` executed-operation pair behind a refusal.
type ConflictPair<A> = (
    (<A as RuntimeAdt>::Inv, <A as RuntimeAdt>::Res),
    (<A as RuntimeAdt>::Inv, <A as RuntimeAdt>::Res),
);

impl<A: RuntimeAdt> TxObject<A> {
    /// Create an object with the given data type, lock scheme and options.
    pub fn new(
        name: impl Into<String>,
        adt: A,
        locks: Arc<dyn LockSpec<A>>,
        opts: RuntimeOptions,
    ) -> Arc<TxObject<A>> {
        let version = adt.initial();
        Arc::new(TxObject {
            name: name.into(),
            adt,
            locks,
            opts,
            inner: Mutex::new(ObjState {
                version,
                committed: BTreeMap::new(),
                active: HashMap::new(),
                clock: 0,
                bounds: HashMap::new(),
                folded: 0,
                wakes: 0,
            }),
            cv: Condvar::new(),
            executed: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            forgotten: AtomicU64::new(0),
            grant_cache: RwLock::new(HashMap::new()),
        })
    }

    /// The object's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The data type this object runs.
    pub fn adt(&self) -> &A {
        &self.adt
    }

    /// The lock scheme's name (for experiment output).
    pub fn scheme(&self) -> &'static str {
        self.locks.name()
    }

    /// One non-blocking execution attempt (the body of the appendix's
    /// `when` condition plus its critical section).
    pub fn try_execute(
        self: &Arc<Self>,
        txn: &Arc<TxnHandle>,
        inv: &A::Inv,
    ) -> Result<TryExecOutcome<A::Res>, ExecError> {
        self.try_execute_inner(txn, inv, &mut None, &mut 0)
    }

    /// [`TxObject::try_execute`] plus two hints for the blocking loop in
    /// [`TxObject::execute`]: on a refusal, `wait_hint` is filled with the
    /// pair-keyed wait counter (so each wait slice is counted without
    /// re-deriving the conflict-class labels), and `wakes_seen` with the
    /// notification count the attempt observed under the latch.
    fn try_execute_inner(
        self: &Arc<Self>,
        txn: &Arc<TxnHandle>,
        inv: &A::Inv,
        wait_hint: &mut Option<Arc<Counter>>,
        wakes_seen: &mut u64,
    ) -> Result<TryExecOutcome<A::Res>, ExecError> {
        if txn.is_doomed() {
            return Err(ExecError::Doomed);
        }
        if txn.phase() != TxnPhase::Active {
            return Err(ExecError::NotActive);
        }
        let mut conflict_ops = None;
        let mut st = self.inner.lock();
        let outcome = self.attempt(&mut st, txn.id(), inv, &mut conflict_ops);
        if let TryExecOutcome::Executed(res) = &outcome {
            let clock = st.clock;
            st.bounds.insert(txn.id(), clock);
            txn.observe_clock(clock);
            // Self-logging, two-phase: serializing the redo payload is an
            // intrinsic effect of executing, not a caller obligation. The
            // order slot (ticket) is *reserved* while the object lock is
            // still held — so the ticket order of this object's ops can
            // never diverge from their execution order, and recovery
            // replays in ticket order — but the append itself is
            // *published* after the lock drops, so a log stripe's
            // rotation fsync can no longer stall every transaction
            // queued on a hot object. Replay handles re-install history
            // that is already durable, so they skip the sink entirely.
            let mut pending = None;
            if !txn.is_replay() {
                if let Some(sink) = &self.opts.redo {
                    if let Some(bytes) = self.adt.redo(inv, res) {
                        pending = Some((sink.reserve(txn.id(), &self.name), bytes));
                    }
                }
            }
            drop(st);
            if let Some((ticket, bytes)) = pending {
                let sink = self.opts.redo.as_ref().expect("reserved from this sink");
                sink.publish(ticket, txn.id(), &self.name, &bytes);
            }
            txn.register(self.clone() as Arc<dyn TxParticipant>);
            self.executed.fetch_add(1, Ordering::Relaxed);
            // Replay executions (recovery and replication redo replay)
            // re-install history the lock manager already admitted in a
            // previous incarnation; counting them again would make a
            // restored store's grant totals drift from the live run's.
            if !txn.is_replay() {
                self.grant_counter(inv, res).inc();
                if let Some(tr) = &self.opts.trace {
                    tr.record(txn.id().0, &self.name, "grant", self.class_label(inv, res));
                }
            }
        } else {
            *wakes_seen = st.wakes;
            drop(st);
            if let TryExecOutcome::Conflict(_) = &outcome {
                self.conflicts.fetch_add(1, Ordering::Relaxed);
                // The refusal is already a slow path (the caller is about
                // to block), so exact pair labels — the live view of the
                // paper's conflict tables — are affordable here.
                let pair = match &conflict_ops {
                    Some((requested, held)) => format!(
                        "{}|{}",
                        self.class_label(&requested.0, &requested.1),
                        self.class_label(&held.0, &held.1)
                    ),
                    None => "unknown|unknown".to_string(),
                };
                let ty = self.adt.type_name();
                self.opts.metrics.counter(&format!("lock.refusals.{ty}.{pair}")).inc();
                *wait_hint = Some(self.opts.metrics.counter(&format!("lock.waits.{ty}.{pair}")));
                if let Some(tr) = &self.opts.trace {
                    tr.record(txn.id().0, &self.name, "refuse", pair);
                }
            }
        }
        Ok(outcome)
    }

    /// The executed operation's conflict-class label: the scheme's own
    /// class name when it has one (the paper tables' row/column names),
    /// else the invocation's `Debug` head.
    fn class_label(&self, inv: &A::Inv, res: &A::Res) -> String {
        let op = (inv.clone(), res.clone());
        self.locks.class_of(&op).unwrap_or_else(|| {
            let dbg = format!("{:?}", op.0);
            let end = dbg
                .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '-'))
                .unwrap_or(dbg.len());
            dbg[..end].to_string()
        })
    }

    /// The grant counter for this executed operation's variant (see the
    /// `grant_cache` field for the caching contract).
    fn grant_counter(&self, inv: &A::Inv, res: &A::Res) -> Arc<Counter> {
        let key = (discriminant(inv), discriminant(res));
        if let Some(c) = self.grant_cache.read().get(&key) {
            return c.clone();
        }
        let name = format!("lock.grants.{}.{}", self.adt.type_name(), self.class_label(inv, res));
        let counter = self.opts.metrics.counter(&name);
        self.grant_cache.write().entry(key).or_insert(counter).clone()
    }

    /// Replay one executed operation with its logged response: like a
    /// normal execution, but only a candidate whose response equals
    /// `expected` is eligible — nondeterministic operations (a semiqueue
    /// `rem`) are pinned to the choice the original execution made, and a
    /// deterministic operation whose outcome changed (a logged successful
    /// debit that would now overdraft) is reported as divergence instead
    /// of silently rewriting history.
    pub fn replay_executed(
        self: &Arc<Self>,
        txn: &Arc<TxnHandle>,
        inv: A::Inv,
        expected: A::Res,
    ) -> Result<(), ReplayError> {
        if txn.phase() != TxnPhase::Active {
            return Err(ReplayError::Exec(ExecError::NotActive));
        }
        let mut st = self.inner.lock();
        let candidates = self.view_candidates(&st, txn.id(), &inv);
        let Some((res, intent)) = candidates.into_iter().find(|(res, _)| *res == expected) else {
            return Err(ReplayError::Diverged { expected: format!("{expected:?}") });
        };
        // Recovery replays into quiesced objects: lock conflicts cannot
        // arise (the only active transactions are replay transactions,
        // which committed without conflicting in the original history), so
        // the operation is installed directly.
        let rec = st.active.entry(txn.id()).or_default();
        rec.intent = intent;
        let op = (inv, res);
        let token = self.locks.prepare(&op);
        rec.ops.push(ExecOp { op, token });
        let clock = st.clock;
        st.bounds.insert(txn.id(), clock);
        txn.observe_clock(clock);
        drop(st);
        txn.register(self.clone() as Arc<dyn TxParticipant>);
        self.executed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Decode a redo payload (produced by the type's
    /// [`RuntimeAdt::redo`]) and replay it via
    /// [`TxObject::replay_executed`].
    pub fn replay_redo(
        self: &Arc<Self>,
        txn: &Arc<TxnHandle>,
        bytes: &[u8],
    ) -> Result<(), ReplayError> {
        let (inv, expected) = self.adt.decode_redo(bytes).map_err(ReplayError::Decode)?;
        self.replay_executed(txn, inv, expected)
    }

    /// Execute with blocking: retries on completion notifications until the
    /// lock is granted, the policy times out, or the transaction is doomed.
    pub fn execute(
        self: &Arc<Self>,
        txn: &Arc<TxnHandle>,
        inv: A::Inv,
    ) -> Result<A::Res, ExecError> {
        let start = Instant::now();
        let mut blocked = false;
        let mut wait_counter: Option<Arc<Counter>> = None;
        loop {
            let mut wait_hint = None;
            let mut wakes_seen = 0;
            match self.try_execute_inner(txn, &inv, &mut wait_hint, &mut wakes_seen)? {
                TryExecOutcome::Executed(res) => {
                    if blocked {
                        self.opts.observer.on_unblock(txn.id());
                    }
                    return Ok(res);
                }
                TryExecOutcome::Conflict(holders) => {
                    if wait_hint.is_some() {
                        wait_counter = wait_hint;
                    }
                    self.opts.observer.on_block(txn.id(), &holders);
                    blocked = true;
                }
                TryExecOutcome::Undefined => {
                    // Partial operation: wait for the state to change.
                    self.opts.observer.on_block(txn.id(), &[]);
                    blocked = true;
                }
            }
            // Wait for a completion notification (bounded slice so doomed
            // victims and timeouts are noticed promptly).
            if let Some(t) = self.opts.block.timeout {
                if start.elapsed() >= t {
                    self.opts.observer.on_unblock(txn.id());
                    return Err(ExecError::Timeout);
                }
            }
            self.waits.fetch_add(1, Ordering::Relaxed);
            let slice_counter = wait_counter.get_or_insert_with(|| {
                // Undefined blocks have no conflict pair; label them so.
                self.opts.metrics.counter(&format!("lock.waits.{}.undefined", self.adt.type_name()))
            });
            slice_counter.inc();
            if let Some(tr) = &self.opts.trace {
                tr.record(txn.id().0, &self.name, "wait", String::new());
            }
            // A commit, abort or unpin that landed after the refused
            // attempt dropped the latch already sent its notification;
            // waiting now would sleep through it for a whole slice.
            let mut st = self.inner.lock();
            if st.wakes == wakes_seen {
                self.cv.wait_for(&mut st, self.opts.block.wait_slice);
            }
            drop(st);
            if txn.is_doomed() {
                self.opts.observer.on_unblock(txn.id());
                return Err(ExecError::Doomed);
            }
        }
    }

    /// The outcomes `inv` may have in `txn`'s view: the version, then the
    /// committed intents in timestamp order, then `txn`'s own intent.
    fn view_candidates(
        &self,
        st: &ObjState<A>,
        txn: TxnId,
        inv: &A::Inv,
    ) -> Vec<(A::Res, A::Intent)> {
        let committed: Vec<&A::Intent> = st.committed.values().map(|r| &r.intent).collect();
        let empty;
        let own = match st.active.get(&txn) {
            Some(rec) => &rec.intent,
            None => {
                empty = A::Intent::default();
                &empty
            }
        };
        self.adt.candidates(&st.version, &committed, own, inv)
    }

    fn attempt(
        &self,
        st: &mut ObjState<A>,
        txn: TxnId,
        inv: &A::Inv,
        conflict_ops: &mut Option<ConflictPair<A>>,
    ) -> TryExecOutcome<A::Res> {
        let candidates = self.view_candidates(st, txn, inv);
        if candidates.is_empty() {
            return TryExecOutcome::Undefined;
        }
        let mut blockers: Vec<TxnId> = Vec::new();
        for (res, intent) in candidates {
            let op = (inv.clone(), res);
            // Classify the requested op once per candidate; every held
            // op already carries its token from its own execution.
            let token = self.locks.prepare(&op);
            let mut holders: Vec<TxnId> = Vec::new();
            for (&p, rec) in st.active.iter() {
                if p == txn {
                    continue;
                }
                if let Some(q) = rec.ops.iter().find(|q| {
                    self.locks.conflicts_prepared(&q.op, q.token.as_ref(), &op, token.as_ref())
                }) {
                    // Remember the first refusing pair: it labels the
                    // refusal/wait counters with the class pair that
                    // actually blocked the caller.
                    if conflict_ops.is_none() {
                        *conflict_ops = Some((op.clone(), q.op.clone()));
                    }
                    holders.push(p);
                }
            }
            if holders.is_empty() {
                let rec = st.active.entry(txn).or_default();
                rec.intent = intent;
                let res = op.1.clone();
                rec.ops.push(ExecOp { op, token });
                return TryExecOutcome::Executed(res);
            }
            blockers.append(&mut holders);
        }
        blockers.sort();
        blockers.dedup();
        TryExecOutcome::Conflict(blockers)
    }

    /// The horizon time (Definition 20) and folding of committed intents
    /// (the appendix's `forget()`).
    ///
    /// The horizon is bounded by three forces: the oldest active
    /// transaction's lower bound (the bound table), the per-object
    /// checkpoint pin ([`TxObject::pin_horizon`], an entry in the same
    /// table), and the shared snapshot-read floor
    /// (`RuntimeOptions::horizon`): a live read pin at watermark `w`
    /// keeps every commit with `ts > w` unfolded at every object sharing
    /// the registry, so `committed_snapshot_at(w)` stays exact for the
    /// pin's lifetime. (`floor() = u64::MAX` when nothing is pinned, so
    /// the read path costs one relaxed atomic load here.)
    fn forget(&self, st: &mut ObjState<A>) {
        let Some(&max_committed) = st.committed.keys().next_back() else { return };
        let global = self.opts.horizon.floor().min(max_committed);
        let horizon = st.bounds.values().min().map_or(global, |&b| b.min(global));
        let fold: Vec<u64> = st.committed.range(..horizon).map(|(&ts, _)| ts).collect();
        for ts in fold {
            let rec = st.committed.remove(&ts).unwrap();
            self.adt.apply(&mut st.version, &rec.intent);
            st.folded = st.folded.max(ts);
            self.forgotten.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of committed-but-unforgotten transactions (Section-6
    /// experiments).
    pub fn retained_committed(&self) -> usize {
        self.inner.lock().committed.len()
    }

    /// Number of active transactions holding locks here.
    pub fn active_txns(&self) -> usize {
        self.inner.lock().active.len()
    }

    /// A snapshot of the compacted version (testing).
    pub fn version_snapshot(&self) -> A::Version {
        self.inner.lock().version.clone()
    }

    /// A snapshot of the state a brand-new read-only observer would see:
    /// version with all committed intents applied.
    pub fn committed_snapshot(&self) -> A::Version {
        self.committed_snapshot_at(u64::MAX)
    }

    /// The committed state **as of commit timestamp `watermark`**: the
    /// compacted version plus every committed-but-unforgotten intent with
    /// `ts ≤ watermark`. Exact only while commits above the watermark are
    /// prevented from folding into the version — either because the
    /// caller quiesced commits, or because it holds a
    /// [`TxObject::pin_horizon`] at the watermark (the fuzzy-checkpoint
    /// protocol).
    pub fn committed_snapshot_at(&self, watermark: u64) -> A::Version {
        self.fold_to(&self.inner.lock(), watermark)
    }

    /// The version with every committed intent at `ts ≤ watermark`
    /// applied, in timestamp order.
    fn fold_to(&self, st: &ObjState<A>, watermark: u64) -> A::Version {
        let mut v = st.version.clone();
        for (_, rec) in st.committed.range(..=watermark) {
            self.adt.apply(&mut v, &rec.intent);
        }
        v
    }

    /// The committed state as of `watermark`, **checked**: refused with
    /// [`SnapshotStale`] when a commit above the watermark has already
    /// been folded into the base version (so the watermark image is
    /// unrecoverable here), instead of silently returning the folded
    /// state as [`TxObject::committed_snapshot_at`] would.
    ///
    /// This is the read-only transaction path's accessor. It takes the
    /// object's internal mutex — a short latch over in-memory state, the
    /// same one every accessor uses — but no *transactional* lock: no
    /// conflict test runs, no lock-table entry is written, no writer is
    /// ever blocked by it or blocks on it. The staleness check is sound
    /// under that latch: any in-progress fold completed before we
    /// acquired it, so `folded` reflects every fold that could race the
    /// caller's pin.
    pub fn snapshot_read(&self, watermark: u64) -> Result<A::Version, SnapshotStale> {
        let st = self.inner.lock();
        if st.folded > watermark {
            return Err(SnapshotStale { folded: st.folded, watermark });
        }
        Ok(self.fold_to(&st, watermark))
    }

    /// Forbid `forget()` from folding commits with `ts > watermark` into
    /// the compacted version until [`TxObject::unpin_horizon`] — the
    /// object-side half of a fuzzy checkpoint. Implemented as an entry in
    /// the bound table under a reserved transaction id, so the horizon
    /// computation (Definition 20) needs no new machinery: the pin is
    /// just one more active lower bound.
    pub fn pin_horizon(&self, watermark: u64) {
        let mut st = self.inner.lock();
        st.bounds.insert(HORIZON_PIN, watermark);
    }

    /// Release the pin installed by [`TxObject::pin_horizon`] and fold
    /// whatever it was holding back.
    pub fn unpin_horizon(&self) {
        let mut st = self.inner.lock();
        st.bounds.remove(&HORIZON_PIN);
        self.forget(&mut st);
        st.wakes += 1;
        drop(st);
        self.cv.notify_all();
    }

    /// Install a recovered base version into this **fresh** object as
    /// the committed state at timestamp `ts` — the one checkpoint-restore
    /// path: the decoded image becomes the compacted version directly, so
    /// restoring executes no operation and takes no lock, at a cost linear
    /// in the image. The object's clock advances to `ts`, so tail replay
    /// (at strictly greater timestamps) observes a well-formed history.
    ///
    /// Refused with [`NotFresh`] when the object already has history or
    /// active transactions — installing over existing state would
    /// silently drop or double effects. (An attach of a used object is
    /// the reachable case; the error flows back as a failed
    /// materialization, not a crash.)
    pub fn install_version(&self, version: A::Version, ts: u64) -> Result<(), NotFresh> {
        let mut st = self.inner.lock();
        if st.clock != 0 || !st.committed.is_empty() || !st.active.is_empty() {
            return Err(NotFresh);
        }
        st.version = version;
        st.clock = ts;
        // The installed image *is* a fold of everything at or below `ts`:
        // snapshot reads below the restore point must be refused, not
        // served the checkpoint image as if it were an older state.
        st.folded = ts;
        Ok(())
    }

    /// Contention statistics.
    pub fn stats(&self) -> ObjectStats {
        ObjectStats {
            executed: self.executed.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            forgotten: self.forgotten.load(Ordering::Relaxed),
        }
    }
}

impl<A: RuntimeAdt> TxParticipant for TxObject<A> {
    fn object_name(&self) -> &str {
        &self.name
    }

    fn prepare(&self, txn: &TxnHandle) -> bool {
        !txn.is_doomed() && txn.phase() == TxnPhase::Active
    }

    fn commit_at(&self, txn: TxnId, ts: u64) {
        let mut st = self.inner.lock();
        st.clock = st.clock.max(ts);
        if let Some(rec) = st.active.remove(&txn) {
            st.committed.insert(ts, rec);
        }
        st.bounds.remove(&txn);
        self.forget(&mut st);
        st.wakes += 1;
        drop(st);
        self.cv.notify_all();
    }

    fn abort_txn(&self, txn: TxnId) {
        let mut st = self.inner.lock();
        st.active.remove(&txn);
        st.bounds.remove(&txn);
        self.forget(&mut st);
        st.wakes += 1;
        drop(st);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A register (File) runtime type for in-crate tests: version = value,
    /// intent = Option<last written value>.
    struct Register;

    #[derive(Clone, Debug, PartialEq)]
    enum RegInv {
        Read,
        Write(i64),
    }

    impl RuntimeAdt for Register {
        type Version = i64;
        type Intent = Option<i64>;
        type Inv = RegInv;
        type Res = i64;

        fn initial(&self) -> i64 {
            0
        }

        fn candidates(
            &self,
            version: &i64,
            committed: &[&Option<i64>],
            own: &Option<i64>,
            inv: &RegInv,
        ) -> Vec<(i64, Option<i64>)> {
            match inv {
                RegInv::Write(v) => vec![(0, Some(*v))],
                RegInv::Read => {
                    let mut cur = *version;
                    for v in committed.iter().copied().flatten() {
                        cur = *v;
                    }
                    if let Some(v) = own {
                        cur = *v;
                    }
                    vec![(cur, *own)]
                }
            }
        }

        fn apply(&self, version: &mut i64, intent: &Option<i64>) {
            if let Some(v) = intent {
                *version = *v;
            }
        }

        fn redo(&self, inv: &RegInv, _res: &i64) -> Option<Vec<u8>> {
            match inv {
                RegInv::Write(v) => Some(v.to_le_bytes().to_vec()),
                RegInv::Read => None,
            }
        }

        fn decode_redo(&self, bytes: &[u8]) -> Result<(RegInv, i64), RedoDecodeError> {
            let arr: [u8; 8] = bytes
                .try_into()
                .map_err(|_| RedoDecodeError::new("register redo payload is 8 bytes"))?;
            Ok((RegInv::Write(i64::from_le_bytes(arr)), 0))
        }

        fn type_name(&self) -> &'static str {
            "Register"
        }
    }

    /// Table-I conflicts: a read conflicts with a write of a different
    /// value (generalized Thomas Write Rule: writes never conflict).
    struct RegisterHybrid;

    impl LockSpec<Register> for RegisterHybrid {
        fn conflicts(&self, a: &(RegInv, i64), b: &(RegInv, i64)) -> bool {
            match (&a.0, &b.0) {
                (RegInv::Read, RegInv::Write(w)) => a.1 != *w,
                (RegInv::Write(w), RegInv::Read) => b.1 != *w,
                _ => false,
            }
        }
        fn name(&self) -> &'static str {
            "hybrid"
        }
    }

    fn obj() -> Arc<TxObject<Register>> {
        TxObject::new("reg", Register, Arc::new(RegisterHybrid), RuntimeOptions::default())
    }

    fn h(n: u64) -> Arc<TxnHandle> {
        TxnHandle::new(TxnId(n))
    }

    #[test]
    fn blind_writes_run_concurrently_thomas_write_rule() {
        let o = obj();
        let (t1, t2) = (h(1), h(2));
        o.execute(&t1, RegInv::Write(10)).unwrap();
        o.execute(&t2, RegInv::Write(20)).unwrap(); // no conflict!
                                                    // t2 commits later => later value wins regardless of execution
                                                    // order.
        o.commit_at(t1.id(), 5);
        o.commit_at(t2.id(), 3);
        assert_eq!(o.committed_snapshot(), 10, "ts 5 overwrote ts 3");
    }

    #[test]
    fn read_blocks_on_concurrent_conflicting_write() {
        let o = TxObject::new(
            "reg",
            Register,
            Arc::new(RegisterHybrid),
            RuntimeOptions::with_timeout(Some(Duration::from_millis(30))),
        );
        let (t1, t2) = (h(1), h(2));
        o.execute(&t1, RegInv::Write(10)).unwrap();
        // Reader sees committed state 0; conflicts with t1's write(10).
        assert_eq!(o.execute(&t2, RegInv::Read), Err(ExecError::Timeout));
    }

    #[test]
    fn read_does_not_conflict_with_same_valued_write() {
        let o = obj();
        let (t1, t2) = (h(1), h(2));
        o.execute(&t1, RegInv::Write(0)).unwrap(); // writes the initial value
        assert_eq!(o.execute(&t2, RegInv::Read).unwrap(), 0);
    }

    #[test]
    fn own_writes_are_visible() {
        let o = obj();
        let t1 = h(1);
        o.execute(&t1, RegInv::Write(42)).unwrap();
        assert_eq!(o.execute(&t1, RegInv::Read).unwrap(), 42);
    }

    #[test]
    fn abort_discards_intent_and_unblocks() {
        let o = obj();
        let (t1, t2) = (h(1), h(2));
        o.execute(&t1, RegInv::Write(10)).unwrap();
        let o2 = o.clone();
        let t2c = t2.clone();
        let j = std::thread::spawn(move || o2.execute(&t2c, RegInv::Read).unwrap());
        std::thread::sleep(Duration::from_millis(10));
        o.abort_txn(t1.id());
        assert_eq!(j.join().unwrap(), 0, "reader sees pre-abort state");
        assert_eq!(o.active_txns(), 1);
    }

    #[test]
    fn blocked_writer_wakes_on_commit() {
        let o = obj();
        let (t1, t2) = (h(1), h(2));
        assert_eq!(o.execute(&t1, RegInv::Read).unwrap(), 0);
        // A write of a different value conflicts with the read lock.
        let o2 = o.clone();
        let t2c = t2.clone();
        let j = std::thread::spawn(move || o2.execute(&t2c, RegInv::Write(7)).unwrap());
        std::thread::sleep(Duration::from_millis(10));
        o.commit_at(t1.id(), 1);
        j.join().unwrap();
        o.commit_at(t2.id(), 2);
        assert_eq!(o.committed_snapshot(), 7);
    }

    #[test]
    fn doomed_transaction_errors_out() {
        let o = obj();
        let (t1, t2) = (h(1), h(2));
        o.execute(&t1, RegInv::Write(10)).unwrap();
        let o2 = o.clone();
        let t2c = t2.clone();
        let j = std::thread::spawn(move || o2.execute(&t2c, RegInv::Read));
        std::thread::sleep(Duration::from_millis(10));
        t2.doom();
        assert_eq!(j.join().unwrap(), Err(ExecError::Doomed));
    }

    #[test]
    fn forget_folds_committed_intents() {
        let o = obj();
        for i in 1..=5u64 {
            let t = h(i);
            o.execute(&t, RegInv::Write(i as i64)).unwrap();
            o.commit_at(t.id(), i);
        }
        // No active txns: horizon = max committed (5); ts 1..4 folded.
        assert_eq!(o.retained_committed(), 1);
        assert_eq!(o.stats().forgotten, 4);
        assert_eq!(o.committed_snapshot(), 5);
    }

    #[test]
    fn active_bound_pins_the_horizon() {
        let o = obj();
        let t1 = h(1);
        o.execute(&t1, RegInv::Write(1)).unwrap();
        o.commit_at(t1.id(), 1);
        // t2 executes now: bound = 1.
        let t2 = h(2);
        o.execute(&t2, RegInv::Write(2)).unwrap();
        for i in 3..=6u64 {
            let t = h(i);
            o.execute(&t, RegInv::Write(i as i64)).unwrap();
            o.commit_at(t.id(), i);
        }
        // Horizon = min(bound(t2)=1, max=6) = 1: nothing foldable except
        // timestamps < 1.
        assert_eq!(o.retained_committed(), 5);
        o.commit_at(t2.id(), 7);
        // Now everything below 7 folds.
        assert_eq!(o.retained_committed(), 1);
    }

    #[test]
    fn participant_interface() {
        let o = obj();
        let t1 = h(1);
        assert!(o.prepare(&t1));
        t1.doom();
        assert!(!o.prepare(&t1));
        let t2 = h(2);
        t2.set_phase(TxnPhase::Aborted);
        assert!(!o.prepare(&t2));
        assert_eq!(o.object_name(), "reg");
    }

    #[test]
    fn stats_count_conflicts() {
        let o = TxObject::new(
            "reg",
            Register,
            Arc::new(RegisterHybrid),
            RuntimeOptions::with_timeout(Some(Duration::from_millis(20))),
        );
        let (t1, t2) = (h(1), h(2));
        o.execute(&t1, RegInv::Write(10)).unwrap();
        let _ = o.execute(&t2, RegInv::Read);
        let s = o.stats();
        assert_eq!(s.executed, 1);
        assert!(s.conflicts >= 1);
        assert!(s.waits >= 1);
    }

    #[test]
    fn try_execute_reports_holders() {
        let o = obj();
        let (t1, t2) = (h(1), h(2));
        o.execute(&t1, RegInv::Write(10)).unwrap();
        match o.try_execute(&t2, &RegInv::Read).unwrap() {
            TryExecOutcome::Conflict(holders) => assert_eq!(holders, vec![TxnId(1)]),
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    /// The fuzzy-checkpoint contract: with a horizon pin at `w`, commits
    /// above `w` keep flowing but can neither fold into the version nor
    /// leak into `committed_snapshot_at(w)`.
    #[test]
    fn horizon_pin_keeps_snapshot_at_watermark_exact() {
        let o = obj();
        for i in 1..=3u64 {
            let t = h(i);
            o.execute(&t, RegInv::Write(i as i64)).unwrap();
            o.commit_at(t.id(), i);
        }
        o.pin_horizon(3);
        // Commits above the watermark land while the pin is held.
        for i in 4..=6u64 {
            let t = h(i);
            o.execute(&t, RegInv::Write(i as i64 * 10)).unwrap();
            o.commit_at(t.id(), i);
        }
        assert_eq!(o.committed_snapshot_at(3), 3, "watermark image excludes later commits");
        assert_eq!(o.committed_snapshot(), 60, "live frontier sees everything");
        assert!(
            o.retained_committed() >= 3,
            "pinned commits stay unfolded: {}",
            o.retained_committed()
        );
        o.unpin_horizon();
        // The pin released: folding catches up.
        assert_eq!(o.retained_committed(), 1);
        assert_eq!(o.committed_snapshot(), 60);
    }

    /// Tickets are reserved under the object lock in execution order even
    /// though publishing happens outside it.
    #[test]
    fn redo_tickets_are_reserved_in_execution_order() {
        use super::super::options::{RedoSink, RedoTicket};
        use std::sync::Mutex as StdMutex;

        #[derive(Default)]
        struct ProbeSink {
            next: AtomicU64,
            published: StdMutex<Vec<(u64, TxnId)>>,
        }
        impl RedoSink for ProbeSink {
            fn reserve(&self, _txn: TxnId, _object: &str) -> RedoTicket {
                RedoTicket(self.next.fetch_add(1, Ordering::Relaxed) + 1)
            }
            fn publish(&self, ticket: RedoTicket, txn: TxnId, _object: &str, _op: &[u8]) {
                self.published.lock().unwrap().push((ticket.0, txn));
            }
        }

        let sink = Arc::new(ProbeSink::default());
        let o = TxObject::new(
            "reg",
            Register,
            Arc::new(RegisterHybrid),
            RuntimeOptions::default().with_redo(sink.clone()),
        );
        for i in 1..=5u64 {
            let t = h(i);
            o.execute(&t, RegInv::Write(i as i64)).unwrap();
            o.commit_at(t.id(), i);
        }
        let published = sink.published.lock().unwrap();
        let tickets: Vec<u64> = published.iter().map(|(t, _)| *t).collect();
        assert_eq!(tickets, vec![1, 2, 3, 4, 5], "execution order == ticket order");
        // Replay handles bypass the sink entirely.
        drop(published);
        let replay = TxnHandle::replay(TxnId(99));
        o.execute(&replay, RegInv::Write(7)).unwrap();
        assert_eq!(sink.published.lock().unwrap().len(), 5, "replay did not log");
    }

    /// The shared-registry pin is the read path's fuzzy-checkpoint
    /// analogue: while a `PinGuard` at `w` lives, commits above `w` stay
    /// unfolded at every object carrying the registry, `snapshot_read(w)`
    /// stays exact, and dropping the guard lets the next commit's
    /// `forget` fold everything — after which `snapshot_read(w)` refuses
    /// with a typed [`SnapshotStale`] instead of serving the folded
    /// state.
    #[test]
    fn shared_pin_bounds_folding_until_guard_drops() {
        let pins = Arc::new(super::super::HorizonPins::new());
        let o = TxObject::new(
            "reg",
            Register,
            Arc::new(RegisterHybrid),
            RuntimeOptions::default().with_horizon(pins.clone()),
        );
        for i in 1..=3u64 {
            let t = h(i);
            o.execute(&t, RegInv::Write(i as i64)).unwrap();
            o.commit_at(t.id(), i);
        }
        let guard = pins.pin(3);
        for i in 4..=6u64 {
            let t = h(i);
            o.execute(&t, RegInv::Write(i as i64 * 10)).unwrap();
            o.commit_at(t.id(), i);
        }
        assert_eq!(o.snapshot_read(3), Ok(3), "pinned watermark image is exact");
        assert_eq!(o.committed_snapshot(), 60, "live frontier sees everything");
        assert!(o.retained_committed() >= 3, "pinned commits stay unfolded");
        drop(guard);
        // Folding is lazy: the next completion at the object catches up.
        let t = h(7);
        o.execute(&t, RegInv::Write(70)).unwrap();
        o.commit_at(t.id(), 7);
        assert_eq!(o.retained_committed(), 1);
        let err = o.snapshot_read(3).unwrap_err();
        assert!(err.folded > 3, "staleness names the fold watermark: {err:?}");
        assert_eq!(err.watermark, 3);
    }

    /// A restored checkpoint image is a fold of everything at or below
    /// the restore timestamp: snapshot reads below it are refused.
    #[test]
    fn snapshot_read_refuses_watermarks_below_an_installed_version() {
        let o = obj();
        o.install_version(42, 10).unwrap();
        assert_eq!(o.snapshot_read(9), Err(SnapshotStale { folded: 10, watermark: 9 }));
        assert_eq!(o.snapshot_read(10), Ok(42));
    }

    #[test]
    fn registration_is_idempotent() {
        let o = obj();
        let t1 = h(1);
        o.execute(&t1, RegInv::Write(1)).unwrap();
        o.execute(&t1, RegInv::Write(2)).unwrap();
        assert_eq!(t1.participants().len(), 1);
    }
}
