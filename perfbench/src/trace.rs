//! In-memory spans recorded by the benchmark's own code around its calls
//! into each crate. Spans of one operation share an `op` id; a root span
//! (a transaction, a read, a checkpoint call, a reopen) may have child
//! spans (the ADT calls inside a `Db::transact`).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Root: one `Db::transact` call, retries included.
    DbTransact,
    /// Root: one `Db::transact_read` snapshot read.
    DbRead,
    /// Child of `DbTransact`: one ADT call (`credit`, `debit`, `enq`,
    /// `deq`, `ins`, `rem`) — lock test, execute, redo encode, publish.
    AdtCall,
    /// Root: one `Client::transact` call, retries included.
    ClientTransact,
    /// Root: one `Client::read` call (replica first).
    ClientRead,
    /// Root: one `Db::maybe_checkpoint` call.
    MaybeCheckpoint,
    /// Root: reopening the store and every object on it (recovery).
    Reopen,
}

impl SpanKind {
    /// The span's name in written traces.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::DbTransact => "Db::transact",
            SpanKind::DbRead => "Db::transact_read",
            SpanKind::AdtCall => "adt",
            SpanKind::ClientTransact => "Client::transact",
            SpanKind::ClientRead => "Client::read",
            SpanKind::MaybeCheckpoint => "maybe_checkpoint",
            SpanKind::Reopen => "reopen",
        }
    }
}

/// One recorded interval, in nanoseconds since the round's time base.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The operation this span belongs to (shared by its children).
    pub op: u64,
    /// What it covers.
    pub kind: SpanKind,
    /// Start, ns since the time base.
    pub start: u64,
    /// End, ns since the time base.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// A per-thread span buffer; a no-op unless tracing is on.
pub struct Tracer {
    on: bool,
    base: Instant,
    /// The spans recorded so far, in completion order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A buffer measuring from `base`; records only when `on`.
    pub fn new(on: bool, base: Instant) -> Tracer {
        Tracer { on, base, spans: Vec::new() }
    }

    /// Record a span whose endpoints the caller already measured.
    pub fn record(&mut self, op: u64, kind: SpanKind, start: Instant, end: Instant) {
        if self.on {
            let ns = |t: Instant| t.saturating_duration_since(self.base).as_nanos() as u64;
            self.spans.push(Span { op, kind, start: ns(start), end: ns(end) });
        }
    }

    /// Run `f` inside a span (just run it when tracing is off).
    pub fn span<T>(&mut self, op: u64, kind: SpanKind, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(op, kind, start, Instant::now());
        out
    }
}

/// Write up to `limit` spans as tab-separated `op kind start_ns end_ns`
/// lines.
pub fn write_spans(path: &Path, spans: &[Span], limit: usize) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op\tspan\tstart_ns\tend_ns")?;
    for s in spans.iter().take(limit) {
        writeln!(out, "{}\t{}\t{}\t{}", s.op, s.kind.name(), s.start, s.end)?;
    }
    out.flush()
}
