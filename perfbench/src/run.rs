//! One benchmark run: rounds of one workload until the time is up, then
//! the end-to-end metrics (untraced run) or the per-layer metrics
//! (traced run, which alternates untraced and traced rounds so it can
//! also report the tracing overhead).

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

use hcc_obs::Snapshot;

use crate::env::{cpu_ticks, steal_frac, Env};
use crate::json::Obj;
use crate::stats::{median, percentile, summarize};
use crate::trace::{write_spans, SpanKind};
use crate::workloads::{RoundOut, RoundSpec, Workload, LOCK_TIMEOUT};

/// Rounds every run makes, however short its time.
pub const MIN_ROUNDS: usize = 3;

/// End-to-end figures that swing with the host's CPU steal by more than
/// any allowed bound (a lost lock wake-up or a read retry costs
/// milliseconds, and how often that happens follows the steal). They are
/// not gated; a traced run reports them, from its untraced rounds,
/// beside the per-layer metrics.
const UNGATED: [&str; 3] = ["ops_per_s", "write_p99_us", "read_p99_us"];

/// Spans written out per traced run (the aggregates use all of them).
const SPANS_WRITTEN: usize = 100_000;

/// What to run.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measure for this long (then finish the round in progress).
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Scratch directory for the stores (created; emptied per round).
    pub work_dir: PathBuf,
    /// Where a traced run writes its spans and layer report.
    pub out_dir: PathBuf,
    /// Operations per round, overriding the workload's own count.
    pub round_ops: Option<usize>,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// A run's verdict and numbers.
#[derive(Debug)]
pub struct Outcome {
    /// Every correctness check held on every round.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed after their retry budget.
    pub failed: u64,
    /// The metrics (empty when a check failed).
    pub metrics: Vec<Metric>,
    /// The checks that failed.
    pub failures: Vec<String>,
    /// Sample counts, tails, environment and settings.
    pub detail: Obj,
}

/// Run rounds until `args.seconds` have passed (at least
/// [`MIN_ROUNDS`]), stopping early at the first round whose checks fail.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    std::fs::create_dir_all(&args.work_dir).map_err(io("create work dir"))?;
    let env = Env::probe(&args.work_dir).map_err(io("probe environment"))?;
    let ops = args.round_ops.unwrap_or(args.workload.round_ops());

    let ticks = cpu_ticks();
    let started = Instant::now();
    let mut rounds: Vec<(bool, RoundOut)> = Vec::new();
    // Peak RSS after the first round: allocator retention makes the
    // high-water mark creep with every further round, and a faster
    // program fits more rounds into a run.
    let mut rss_mb = 0.0;
    loop {
        let index = rounds.len();
        let traced = args.trace && index % 2 == 1;
        let dir = args.work_dir.join(format!("round-{index}"));
        std::fs::create_dir_all(&dir).map_err(io("create round dir"))?;
        let spec =
            RoundSpec { seed: args.seed, round: index as u64, ops, traced, dir: dir.clone() };
        let out = args.workload.round(&spec);
        let _ = std::fs::remove_dir_all(&dir);
        let out = out?;
        let failed = !out.failures.is_empty();
        rounds.push((traced, out));
        if rounds.len() == 1 {
            rss_mb = peak_rss_mb();
        }
        if failed || (started.elapsed().as_secs_f64() >= args.seconds && rounds.len() >= MIN_ROUNDS)
        {
            break;
        }
    }
    let steal = steal_frac(ticks, cpu_ticks());
    Ok(outcome(args, &env, ops, &rounds, rss_mb, steal))
}

fn outcome(
    args: &Args,
    env: &Env,
    ops: usize,
    rounds: &[(bool, RoundOut)],
    rss_mb: f64,
    steal: f64,
) -> Outcome {
    let all = || rounds.iter().map(|(_, r)| r);
    let mut failures: Vec<String> = all().flat_map(|r| r.failures.iter().cloned()).collect();
    let mut writes: Vec<u64> = all().flat_map(|r| r.writes.iter().copied()).collect();
    let mut reads: Vec<u64> = all().flat_map(|r| r.reads.iter().copied()).collect();
    let timeout = LOCK_TIMEOUT.as_nanos() as u64;
    let stalls = writes.iter().chain(&reads).filter(|ns| **ns >= timeout).count() as u64;
    if stalls > 0 {
        failures
            .push(format!("{stalls} operations took at least the {LOCK_TIMEOUT:?} lock timeout"));
    }
    let attempted_writes: u64 = all().map(|r| r.attempted_writes).sum();
    let attempted_reads: u64 = all().map(|r| r.attempted_reads).sum();
    let failed_writes: u64 = all().map(|r| r.failed_writes).sum();
    let failed_reads: u64 = all().map(|r| r.failed_reads).sum();
    let attempted = attempted_writes + attempted_reads;
    let failed = failed_writes + failed_reads;
    let op_max = writes.iter().chain(&reads).copied().max().unwrap_or(0);
    let correct = failures.is_empty();

    let timing = |samples: &mut Vec<u64>| match summarize(samples) {
        Some(s) => Obj::new()
            .int("samples", s.n as u64)
            .num("p50_us", s.p50 as f64 / 1e3)
            .num("p99_us", s.p99 as f64 / 1e3)
            .num("tail_pct", s.tail_pct.unwrap_or(0.0))
            .num("tail_us", s.tail as f64 / 1e3)
            .num("max_us", s.max as f64 / 1e3),
        None => Obj::new().int("samples", 0),
    };
    let settings = args.workload.settings();
    let mut detail = Obj::new()
        .str("workload", args.workload.name())
        .int("seed", args.seed)
        .bool("trace", args.trace)
        .int("rounds", rounds.len() as u64)
        .int("traced_rounds", rounds.iter().filter(|(t, _)| *t).count() as u64)
        .int("round_ops", ops as u64)
        .int("client_threads", crate::workloads::THREADS as u64)
        .int("client_threads_pinned", rounds.last().map_or(0, |(_, r)| r.pinned_threads))
        .obj("writes", timing(&mut writes))
        .obj("reads", timing(&mut reads))
        .obj(
            "ops",
            Obj::new()
                .int("attempted_writes", attempted_writes)
                .int("attempted_reads", attempted_reads)
                .int("failed_writes", failed_writes)
                .int("failed_reads", failed_reads)
                .num("failed_frac", ratio(failed as f64, attempted as f64))
                .num("op_max_ms", op_max as f64 / 1e6)
                .int("stall_lock_timeout", stalls),
        )
        .obj(
            "settings",
            Obj::new()
                .str("durability", settings.durability)
                .int("stripes", settings.stripes as u64)
                .bool("group_commit", settings.group_commit)
                .str("compaction", settings.compaction)
                .num("read_share", settings.read_share),
        )
        .obj("env", env.to_json().num("cpu_steal_frac", steal));
    if let Some(e) = all().find_map(|r| r.first_error.as_deref()) {
        detail = detail.str("first_error", e);
    }

    let metrics = if !correct {
        Vec::new()
    } else if args.trace {
        let health = Health {
            failed_frac: ratio(failed as f64, attempted as f64),
            stalls,
            op_max_ms: op_max as f64 / 1e6,
        };
        let (metrics, report) = per_layer(rounds, &health);
        if let Err(e) = write_report(args, env, &report, rounds) {
            eprintln!("perfbench: could not write the trace report: {e}");
        }
        metrics
    } else {
        let untraced = rounds.iter().filter(|(t, _)| !*t).map(|(_, r)| r);
        end_to_end(untraced, rss_mb).into_iter().filter(|m| !UNGATED.contains(&m.name)).collect()
    };
    Outcome { correct, attempted, failed, metrics, failures, detail }
}

/// `num / den`, 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn pct(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    percentile(&s, p) as f64
}

fn committed(r: &RoundOut) -> f64 {
    (r.attempted_writes - r.failed_writes) as f64
}

/// The end-to-end metrics: the median over rounds of each per-round
/// value. A slow spell on a shared machine spoils a few rounds' figures,
/// not the median of all of them.
fn end_to_end<'a>(rounds: impl Iterator<Item = &'a RoundOut>, rss_mb: f64) -> Vec<Metric> {
    let rounds: Vec<&RoundOut> = rounds.collect();
    let med =
        |f: &dyn Fn(&RoundOut) -> f64| median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
    vec![
        Metric { name: "setup_s", unit: "s", value: med(&|r| r.setup_s) },
        Metric {
            name: "ops_per_s",
            unit: "1/s",
            value: med(&|r| r.completed() as f64 / r.timed_s),
        },
        Metric { name: "write_p50_us", unit: "us", value: med(&|r| pct(&r.writes, 50.0) / 1e3) },
        Metric { name: "write_p99_us", unit: "us", value: med(&|r| pct(&r.writes, 99.0) / 1e3) },
        Metric { name: "read_p50_us", unit: "us", value: med(&|r| pct(&r.reads, 50.0) / 1e3) },
        Metric { name: "read_p99_us", unit: "us", value: med(&|r| pct(&r.reads, 99.0) / 1e3) },
        Metric { name: "recovery_s", unit: "s", value: med(&|r| r.recovery_s) },
        Metric {
            name: "wal_bytes_per_txn",
            unit: "B",
            value: med(&|r| ratio(r.wal_bytes as f64, committed(r))),
        },
        Metric { name: "peak_rss_mb", unit: "MB", value: rss_mb },
    ]
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whole-run health figures reported beside the per-layer metrics.
struct Health {
    failed_frac: f64,
    stalls: u64,
    op_max_ms: f64,
}

/// A per-layer figure for one traced round: `(name, unit, value)`.
type Row = Vec<(&'static str, &'static str, f64)>;

/// The per-layer metrics (medians over the traced rounds) and the full
/// report: those plus the absolute layer timings and sample counts.
fn per_layer(rounds: &[(bool, RoundOut)], health: &Health) -> (Vec<Metric>, Obj) {
    let traced: Vec<&RoundOut> = rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let untraced: Vec<&RoundOut> = rounds.iter().filter(|(t, _)| !*t).map(|(_, r)| r).collect();
    let throughput = |rs: &[&RoundOut]| {
        median(&rs.iter().map(|r| r.completed() as f64 / r.timed_s).collect::<Vec<_>>())
    };
    let overhead = 1.0 - ratio(throughput(&traced), throughput(&untraced));

    let rows: Vec<(Row, Row)> = traced.iter().map(|r| layer_rows(r)).collect();
    let medians = |pick: fn(&(Row, Row)) -> &Row| -> Vec<Metric> {
        let Some(first) = rows.first() else { return Vec::new() };
        pick(first)
            .iter()
            .enumerate()
            .map(|(i, (name, unit, _))| Metric {
                name,
                unit,
                value: median(&rows.iter().map(|row| pick(row)[i].2).collect::<Vec<_>>()),
            })
            .collect()
    };
    let mut metrics = medians(|r| &r.0);
    let untraced_e2e = end_to_end(untraced.iter().copied(), 0.0);
    metrics.extend(untraced_e2e.into_iter().filter(|m| UNGATED.contains(&m.name)));
    metrics.extend([
        Metric { name: "trace.overhead_frac", unit: "frac", value: overhead },
        Metric { name: "failed_frac", unit: "frac", value: health.failed_frac },
        Metric { name: "stall.lock_timeout", unit: "count", value: health.stalls as f64 },
        Metric { name: "op.max_ms", unit: "ms", value: health.op_max_ms },
    ]);
    let absolute = medians(|r| &r.1);

    let as_obj = |ms: &[Metric]| {
        ms.iter().fold(Obj::new(), |o, m| {
            o.obj(m.name, Obj::new().num("value", m.value).str("unit", m.unit))
        })
    };
    let samples = traced.iter().fold(BTreeMap::<&str, u64>::new(), |mut acc, r| {
        for s in &r.spans {
            *acc.entry(s.kind.name()).or_default() += 1;
        }
        *acc.entry("repl.lag").or_default() += r.lag_ms.len() as u64;
        acc
    });
    let report = Obj::new()
        .obj("per_layer", as_obj(&metrics))
        .obj("absolute", as_obj(&absolute))
        .obj("span_samples", samples.iter().fold(Obj::new(), |o, (k, v)| o.int(k, *v)))
        .str(
            "share_note",
            "share.* split the traced write_p50 by layer self time; share.gap is the part no \
             measured layer accounts for",
        );
    (metrics, report)
}

/// One traced round's per-layer figures: the declared metrics, then the
/// absolute timings the report adds.
fn layer_rows(r: &RoundOut) -> (Row, Row) {
    let p = &r.primary;
    let replica = r.replica.as_ref();
    let socket = replica.is_some();
    let committed = committed(r).max(1.0);
    let (w50, w99, r50) = (pct(&r.writes, 50.0), pct(&r.writes, 99.0), pct(&r.reads, 50.0));
    let write_total: f64 = r.writes.iter().map(|ns| *ns as f64).sum();

    // Spans: ADT calls, and per write transaction its root and the sum of
    // its ADT children (self time = root − children).
    let mut adt = Vec::new();
    let mut ckpt = Vec::new();
    let mut client_transact = Vec::new();
    let mut client_read = Vec::new();
    let mut per_op: HashMap<u64, (u64, u64)> = HashMap::new();
    for s in &r.spans {
        match s.kind {
            SpanKind::AdtCall => {
                adt.push(s.nanos());
                per_op.entry(s.op).or_default().1 += s.nanos();
            }
            SpanKind::DbTransact => per_op.entry(s.op).or_default().0 = s.nanos(),
            SpanKind::MaybeCheckpoint => ckpt.push(s.nanos()),
            SpanKind::ClientTransact => client_transact.push(s.nanos()),
            SpanKind::ClientRead => client_read.push(s.nanos()),
            SpanKind::DbRead | SpanKind::Reopen => {}
        }
    }
    let roots: Vec<(u64, u64)> = per_op.into_values().filter(|(root, _)| *root > 0).collect();
    let children: Vec<u64> = roots.iter().map(|(_, c)| *c).collect();
    let txn_self: Vec<u64> = roots.iter().map(|(root, c)| root.saturating_sub(*c)).collect();

    let hist = |s: &Snapshot, name: &str| s.histogram(name).cloned();
    let mean = |s: &Snapshot, name: &str| hist(s, name).map_or(0.0, |h| h.mean());
    let count = |s: &Snapshot, name: &str| hist(s, name).map_or(0.0, |h| h.count as f64);
    let on_replica = |f: &dyn Fn(&Snapshot) -> f64| replica.map_or(0.0, f);
    let server = mean(p, "net.request.nanos");
    let replica_server = on_replica(&|s| mean(s, "net.request.nanos"));
    let codec = r.wire.encode_ns + r.wire.decode_ns;
    let gate_max = hist(p, "ckpt.gate_nanos").map_or(0.0, |h| h.quantile(1.0) as f64);
    let read_count = count(p, "txn.read_only.duration_nanos")
        + on_replica(&|s| count(s, "txn.read_only.duration_nanos"));
    let read_nanos = mean(p, "txn.read_only.duration_nanos")
        * count(p, "txn.read_only.duration_nanos")
        + on_replica(&|s| {
            mean(s, "txn.read_only.duration_nanos") * count(s, "txn.read_only.duration_nanos")
        });

    let (share_adts, share_txn) = if socket {
        (0.0, 0.0)
    } else {
        (ratio(median_u64(&children), w50), ratio(median_u64(&txn_self), w50))
    };
    let (share_server, share_wire) =
        if socket { (ratio(server, w50), ratio(codec, w50)) } else { (0.0, 0.0) };
    let grants = p.sum_prefix("lock.grants.") as f64;
    // Read requests each server admitted (transient refusals retried by
    // the client count once per attempt on both sides).
    let replica_reads = on_replica(&|s| s.counter("net.requests.read") as f64);
    let read_attempts = if socket {
        replica_reads + p.counter("net.requests.read") as f64
    } else {
        r.read_attempts as f64
    };
    let refusals = p.sum_prefix("lock.refusals.") as f64;

    let declared: Row = vec![
        ("adts.op_p50_share", "frac", ratio(pct(&adt, 50.0), w50)),
        ("adts.op_p99_share", "frac", ratio(pct(&adt, 99.0), w99)),
        ("adts.calls_per_txn", "ratio", adt.len() as f64 / committed),
        ("lock.grants", "count", grants),
        ("lock.refusals", "count", refusals),
        ("lock.waits", "count", p.sum_prefix("lock.waits.") as f64),
        ("lock.refusals_per_grant", "ratio", ratio(refusals, grants)),
        ("db.attempts_per_txn", "ratio", mean(p, "db.transact.attempts")),
        (
            "db.backoff_share",
            "frac",
            ratio(p.counter("db.transact.backoff_nanos") as f64, write_total),
        ),
        (
            "txn.self_p50_share",
            "frac",
            if socket { 0.0 } else { ratio(median_u64(&txn_self), w50) },
        ),
        ("txn.commit_us", "us", mean(p, "txn.commit_nanos") / 1e3),
        ("deadlock.victims", "count", p.counter("deadlock.victims") as f64),
        ("wal.fsync_share", "frac", ratio(mean(p, "wal.fsync_nanos"), w50)),
        ("wal.fsyncs_per_txn", "ratio", count(p, "wal.fsync_nanos") / committed),
        ("wal.group_batch_mean", "ratio", mean(p, "wal.group_commit.batch")),
        ("wal.appends_per_txn", "ratio", p.sum_prefix("wal.appends.") as f64 / committed),
        ("ckpt.count", "count", p.counter("ckpt.count") as f64),
        ("ckpt.gate_max_share", "frac", ratio(gate_max, w99)),
        ("ckpt.call_share", "frac", ratio(ckpt.iter().sum::<u64>() as f64, write_total)),
        (
            "recovery.records_replayed",
            "count",
            r.recovery.counter("recovery.records_replayed") as f64,
        ),
        (
            "recovery.segments_scanned",
            "count",
            r.recovery.counter("recovery.segments_scanned") as f64,
        ),
        ("read.snapshot_us", "us", ratio(read_nanos, read_count) / 1e3),
        ("read.attempts_per_read", "ratio", ratio(read_attempts, r.reads.len() as f64)),
        ("share.adts", "frac", share_adts),
        ("share.txn", "frac", share_txn),
        ("share.server", "frac", share_server),
        ("share.wire", "frac", share_wire),
        ("share.outside_server", "frac", if socket { 1.0 - share_server } else { 0.0 }),
        ("share.gap", "frac", 1.0 - share_adts - share_txn - share_server - share_wire),
        ("server.replica_share", "frac", ratio(replica_server, r50)),
        ("wire.bytes_per_req", "B", r.wire.bytes),
        ("wire.encode_ns", "ns", r.wire.encode_ns),
        ("wire.decode_ns", "ns", r.wire.decode_ns),
        ("net.queue_depth_max", "count", r.queue_depth_max as f64),
        (
            "net.requests.shed",
            "count",
            (p.counter("net.requests.shed") as f64)
                + on_replica(&|s| s.counter("net.requests.shed") as f64),
        ),
        ("repl.bytes_per_txn", "B", p.counter("repl.bytes.shipped") as f64 / committed),
        ("repl.batches_per_txn", "ratio", p.counter("repl.batches.shipped") as f64 / committed),
        ("repl.lag_tickets_p99", "count", pct(&r.lag_tickets, 99.0)),
        (
            "read.replica_share",
            "frac",
            ratio(replica_reads, replica_reads + p.counter("net.requests.read") as f64),
        ),
    ];
    let lag_ns: Vec<u64> = r.lag_ms.iter().map(|ms| (ms * 1e6) as u64).collect();
    let absolute: Row = vec![
        ("adts.op_us.p50", "us", pct(&adt, 50.0) / 1e3),
        ("adts.op_us.p99", "us", pct(&adt, 99.0) / 1e3),
        ("txn.self_us.p50", "us", median_u64(&txn_self) / 1e3),
        ("client.rtt_us.transact.p50", "us", pct(&client_transact, 50.0) / 1e3),
        ("client.rtt_us.transact.p99", "us", pct(&client_transact, 99.0) / 1e3),
        ("client.rtt_us.read.p50", "us", pct(&client_read, 50.0) / 1e3),
        ("client.rtt_us.read.p99", "us", pct(&client_read, 99.0) / 1e3),
        ("server.request_us.primary", "us", server / 1e3),
        ("server.request_us.replica", "us", replica_server / 1e3),
        ("net.outside_server_us", "us", if socket { (w50 - server) / 1e3 } else { 0.0 }),
        ("wal.fsync_us", "us", mean(p, "wal.fsync_nanos") / 1e3),
        ("ckpt.gate_us_max", "us", gate_max / 1e3),
        ("ckpt.call_ms.max", "ms", ckpt.iter().copied().max().unwrap_or(0) as f64 / 1e6),
        ("db.backoff_ms", "ms", p.counter("db.transact.backoff_nanos") as f64 / 1e6),
        ("repl.lag_ms.p50", "ms", pct(&lag_ns, 50.0) / 1e6),
        ("repl.lag_ms.p99", "ms", pct(&lag_ns, 99.0) / 1e6),
        ("write_p50_us", "us", w50 / 1e3),
        ("write_p99_us", "us", w99 / 1e3),
    ];
    (declared, absolute)
}

fn median_u64(v: &[u64]) -> f64 {
    median(&v.iter().map(|x| *x as f64).collect::<Vec<_>>())
}

/// Write the layer report and the last traced round's spans.
fn write_report(
    args: &Args,
    env: &Env,
    report: &Obj,
    rounds: &[(bool, RoundOut)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out_dir)?;
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let full = Obj::new()
        .str("workload", args.workload.name())
        .int("seed", args.seed)
        .obj("env", env.to_json())
        .obj("layers", report.clone());
    std::fs::write(args.out_dir.join(format!("layers-{stem}.json")), full.render() + "\n")?;
    if let Some((_, last)) = rounds.iter().rev().find(|(t, _)| *t) {
        write_spans(&args.out_dir.join(format!("spans-{stem}.tsv")), &last.spans, SPANS_WRITTEN)?;
    }
    Ok(())
}
