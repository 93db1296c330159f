//! The probe harness: every timed cell of the system, from the WAL
//! publish layer up to the durable `Db::transact` mixes, in one binary:
//! `cargo run --release -p hcc-bench --bin mixprobe [reps]`.
//!
//! One reporting rule: every cell runs `reps` times (default 3) and
//! prints the median and the min..max range of those runs — the
//! container's disk latency drifts, and the range shows how far. Ratios
//! are ratios of medians. The per-scheme throughput of experiments
//! E7–E13 is printed by the `experiments` binary, not here.
use hcc_core::runtime::Durability;
use hcc_workload::durable::{
    defined_adt_mix, durable_account_mix, read_heavy_mix, DurableMixOptions, DurableMixReport,
    MixAdts, MixApi, ReadHeavyOptions,
};
use std::path::Path;
use std::time::Instant;

/// Median and min..max of one cell's runs. Formats as
/// `median (min..max)`; the precision (default 0) applies to all three,
/// a width right-aligns the median.
#[derive(Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl std::fmt::Display for Spread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (p, w) = (f.precision().unwrap_or(0), f.width().unwrap_or(0));
        write!(f, "{:>w$.p$} ({:.p$}..{:.p$})", self.median, self.min, self.max)
    }
}

/// Run `cell` once per rep (it gets the rep index) and summarize each of
/// the `N` figures it returns.
fn measure<const N: usize>(reps: usize, cell: impl FnMut(usize) -> [f64; N]) -> [Spread; N] {
    let runs: Vec<[f64; N]> = (0..reps).map(cell).collect();
    std::array::from_fn(|i| {
        let mut xs: Vec<f64> = runs.iter().map(|r| r[i]).collect();
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        Spread { median: (xs[(n - 1) / 2] + xs[n / 2]) / 2.0, min: xs[0], max: xs[n - 1] }
    })
}

/// Run `f` in a fresh scratch directory, removed again afterwards.
fn in_scratch<T>(f: impl FnOnce(&Path) -> T) -> T {
    let dir = std::env::temp_dir().join(format!("mixprobe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = f(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn mix(opts: DurableMixOptions) -> DurableMixReport {
    in_scratch(|d| durable_account_mix(d, opts))
}

fn main() {
    let reps: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(3).max(1);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("mixprobe: each cell is the median (min..max) of {reps} runs; {cpus} CPUs");
    println!();
    wal_cells(reps);
    durable_grid(reps);
    facade_and_defined(reps);
    read_heavy_and_checkpoint(reps);
    lock_overhead(reps);
    derivation(reps);
    adtcheck(reps);
    obs_primitives(reps);
}

/// The log alone, one layer below the mixes.
fn wal_cells(reps: usize) {
    use hcc_storage::{SegmentedWal, WalOptions};

    // WAL publish: Begin + 3 ops + commit straight into a buffered
    // single-stripe log, one thread, plus `write(2)` calls per commit
    // from the stripe's `wal.writes` counter.
    let txns = 20_000u64;
    let [ns, writes] = measure(reps, |_| {
        in_scratch(|dir| {
            let metrics = hcc_obs::Registry::new();
            let opts = WalOptions { durability: Durability::Buffered, ..WalOptions::default() };
            let wal = SegmentedWal::open_with_metrics(dir, opts, &metrics).expect("open wal");
            let op = [7u8; 24];
            let t0 = Instant::now();
            for txn in 1..=txns {
                wal.append_begin(txn).expect("begin");
                for obj in 1..=3 {
                    wal.append_op(wal.reserve(), txn, obj, &op).expect("op");
                }
                wal.commit_txn(txn, txn).expect("commit");
            }
            let ns = t0.elapsed().as_nanos() as f64 / txns as f64;
            [ns, metrics.snapshot().counter("wal.writes.stripe00") as f64 / txns as f64]
        })
    });
    println!("wal publish buffered s=1: {ns} ns/commit, {writes:.2} writes/commit");

    // Classical vs group fsync: 8 writers, one op + commit each, on one
    // stripe. Classical holds the stripe lock across every commit's
    // fsync; group commit has one leader fsync per batch of waiters.
    let writers = 8u64;
    let run = |group_commit: bool, per_writer: u64| {
        in_scratch(|dir| {
            let opts = WalOptions {
                durability: Durability::Fsync,
                group_commit,
                stripes: 1,
                ..WalOptions::default()
            };
            let wal = SegmentedWal::open(dir, opts).expect("open wal");
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for w in 0..writers {
                    let wal = &wal;
                    s.spawn(move || {
                        for i in 0..per_writer {
                            let txn = w * per_writer + i + 1;
                            wal.append_op(wal.reserve(), txn, 1, &[7u8; 24]).expect("op");
                            wal.commit_txn(txn, txn).expect("commit");
                        }
                    });
                }
            });
            (writers * per_writer) as f64 / t0.elapsed().as_secs_f64()
        })
    };
    let [classical, group] = measure(reps, |_| [run(false, 25), run(true, 150)]);
    println!(
        "wal fsync {writers} writers: classical {classical} commits/s, group {group} commits/s \
         (group/classical {:.1}x)",
        group.median / classical.median
    );
    println!();
}

/// End-to-end durable `account_mix`: manager + self-logging objects +
/// striped WAL, over durability mode × worker threads × stripes. Each
/// cell commits the same total whatever the thread count.
fn durable_grid(reps: usize) {
    for (name, durability, group_commit, total) in [
        ("fsync/classical", Durability::Fsync, false, 200),
        ("fsync/group", Durability::Fsync, true, 800),
        ("buffered", Durability::Buffered, true, 800),
    ] {
        for threads in [1usize, 4, 8] {
            let cells = [1usize, 4, 8].map(|stripes| {
                let [rate] = measure(reps, |_| {
                    [mix(DurableMixOptions {
                        threads,
                        txns_per_thread: total / threads,
                        durability,
                        stripes,
                        group_commit,
                        ..Default::default()
                    })
                    .commits_per_sec]
                });
                rate
            });
            println!(
                "{name:16} {threads}thr commits/s: s=1 {:>6}  s=4 {:>6}  s=8 {:>6}  \
                 (s8/s1 {:.2}x)",
                cells[0],
                cells[1],
                cells[2],
                cells[2].median / cells[0].median
            );
        }
    }
    println!();
}

/// The same workload through two paths, per durability and thread
/// count: raw `TxnManager::begin`/`commit` vs `Db::transact` (the
/// facade's overhead, BENCH.md target: within noise), then the
/// hand-written Counter+Set twins vs the generic `SpecObject` path
/// (derived class-table locks, view materialization by replay).
fn facade_and_defined(reps: usize) {
    let opts = |durability, threads, per| DurableMixOptions {
        threads,
        txns_per_thread: per,
        durability,
        stripes: 1,
        ..Default::default()
    };
    for (d, name, per) in
        [(Durability::Fsync, "fsync/group", 100), (Durability::Buffered, "buffered", 400)]
    {
        for threads in [1usize, 8] {
            let [raw, db] = measure(reps, |_| {
                [MixApi::Raw, MixApi::Facade].map(|api| {
                    mix(DurableMixOptions { api, ..opts(d, threads, per) }).commits_per_sec
                })
            });
            println!(
                "{name:16} {threads}thr api: raw {raw:>6}  db {db:>6}  (db/raw {:.3}x)",
                db.median / raw.median
            );
            let [hand, defined] = measure(reps, |_| {
                [MixAdts::HandWritten, MixAdts::Defined].map(|flavor| {
                    in_scratch(|dir| defined_adt_mix(dir, opts(d, threads, per), flavor))
                        .commits_per_sec
                })
            });
            println!(
                "{name:16} {threads}thr adts: hand {hand:>6}  defined {defined:>6}  \
                 (defined/hand {:.3}x)",
                defined.median / hand.median
            );
        }
    }
    println!();
}

/// Wait-free snapshot reads and the fuzzy checkpoint, both at 8 threads.
fn read_heavy_and_checkpoint(reps: usize) {
    // A zipfian 95/5 read/write mix at Fsync vs Buffered. Writes pay the
    // durability; reads ride the pinned stable watermark and never enter
    // the WAL or the lock manager, so read throughput should be within
    // noise across the two levels. The pure-read lock delta is asserted
    // zero on every run.
    for (durability, name, ops) in
        [(Durability::Fsync, "fsync", 200), (Durability::Buffered, "buffered", 600)]
    {
        let [mixed, pure] = measure(reps, |_| {
            let r = in_scratch(|dir| {
                read_heavy_mix(
                    dir,
                    ReadHeavyOptions {
                        threads: 8,
                        ops_per_thread: ops,
                        pure_reads_per_thread: 500,
                        durability,
                        ..Default::default()
                    },
                )
            });
            assert_eq!(r.pure_read_lock_delta, 0, "pure-read phase moved a lock counter");
            [r.ops_per_sec, r.pure_reads_per_sec]
        });
        println!(
            "read-heavy 95/5 {name:8} 8thr: mixed {mixed:>7} ops/s  pure reads {pure:>7}/s  \
             (lock delta 0)"
        );
    }

    // One Fsync mix per stripe count with a checkpoint issued mid-run:
    // the commit-gate hold is the whole window in which commits block;
    // compare it with the group-commit interval (one fsync).
    for stripes in [1usize, 8] {
        let [gate, gap] = measure(reps, |_| {
            let r = mix(DurableMixOptions {
                threads: 8,
                txns_per_thread: 100,
                durability: Durability::Fsync,
                stripes,
                checkpoint_mid_run: true,
                ..Default::default()
            });
            [r.checkpoint_gate_nanos as f64 / 1e3, r.checkpoint_max_commit_gap_nanos as f64 / 1e3]
        });
        println!(
            "checkpoint stall fsync s={stripes} 8thr: gate held {gate:>5.1} us  \
             longest commit gap {gap:>6.1} us"
        );
    }
    println!();
}

/// Per-transaction runtime cost under each locking scheme with no
/// contention (one transaction stream, in memory): the response-aware
/// conflict checks and intent bookkeeping alone.
fn lock_overhead(reps: usize) {
    use hcc_spec::Rational;
    use hcc_txn::TxnManager;
    use hcc_workload::queue::bench_options;
    use hcc_workload::scheme::{make_account, make_queue};
    use hcc_workload::Scheme;
    let n = 5_000u32;
    for scheme in Scheme::ALL {
        let [account, queue] = measure(reps, |_| {
            let mgr = TxnManager::new();
            let acct = make_account(scheme, "a", bench_options(&mgr));
            let t = mgr.begin();
            acct.credit(&t, Rational::from_int(1_000_000)).unwrap();
            mgr.commit(t).unwrap();
            let t0 = Instant::now();
            for _ in 0..n {
                let t = mgr.begin();
                acct.credit(&t, Rational::from_int(5)).unwrap();
                acct.debit(&t, Rational::from_int(3)).unwrap();
                mgr.commit(t).unwrap();
            }
            let account_ns = t0.elapsed().as_nanos() as f64 / f64::from(n);
            let q = make_queue(scheme, "q", bench_options(&mgr));
            let t0 = Instant::now();
            for i in 0..n {
                let t = mgr.begin();
                q.enq(&t, i64::from(i)).unwrap();
                mgr.commit(t).unwrap();
                let t = mgr.begin();
                q.deq(&t).unwrap();
                mgr.commit(t).unwrap();
            }
            [account_ns, t0.elapsed().as_nanos() as f64 / f64::from(n)]
        });
        println!(
            "lock overhead {:14} account txn {account:>5} ns  queue enq+deq txns {queue:>5} ns",
            scheme.name()
        );
    }
    println!();
}

/// Derivation cost at construction: the bounded invalidated-by search a
/// type pays on *first* construction (cached per type name afterwards),
/// plus the cost of a warm cache hit.
fn derivation(reps: usize) {
    use hcc_relations::derive::{cached_conflict_atoms, conflict_atoms, DeriveSpec};
    use hcc_relations::tables::AdtConfig;
    for (name, cfg) in [
        ("File", AdtConfig::file as fn() -> AdtConfig),
        ("Queue", AdtConfig::queue),
        ("Semiqueue", AdtConfig::semiqueue),
        ("Account", AdtConfig::account),
        ("Counter", AdtConfig::counter),
        ("Set", AdtConfig::set),
        ("Directory", AdtConfig::directory),
    ] {
        let spec: DeriveSpec = cfg().into();
        let mut atoms = 0;
        let key = format!("probe-{name}");
        let [cold, warm] = measure(reps, |_| {
            let t0 = Instant::now();
            atoms = conflict_atoms(&spec).len();
            let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
            cached_conflict_atoms(&key, &spec);
            let t1 = Instant::now();
            for _ in 0..1000 {
                cached_conflict_atoms(&key, &spec);
            }
            [cold_ms, t1.elapsed().as_nanos() as f64 / 1000.0]
        });
        println!(
            "derive {name:10} {cold:>6.2} ms cold ({atoms} atoms)  {warm:>5} ns per cached lookup"
        );
    }
    println!();
}

/// Static-checking cost: what `adtcheck` pays per registered type at the
/// CI depth (3) and the quicker smoke depth (2) — the soundness search
/// dominates; deadlock-potential is timed separately. These numbers size
/// the CI job's 60 s budget in BENCH.md.
fn adtcheck(reps: usize) {
    use hcc_check::{check_soundness, deadlock_potential, registry, Depth};
    let mut total = 0.0;
    for reg in registry() {
        let name = &reg.input.name;
        let (mut scheds, mut cycles) = ([0u64; 2], 0);
        let [d2, d3, waits] = measure(reps, |_| {
            let mut ms = [0f64; 3];
            for (i, depth) in [2usize, 3].into_iter().enumerate() {
                let t0 = Instant::now();
                let rep = check_soundness(&reg.input, Depth::new(depth));
                ms[i] = t0.elapsed().as_secs_f64() * 1e3;
                assert!(rep.sound(), "{name}: bundled table must stay sound");
                scheds[i] = rep.schedules;
            }
            let t0 = Instant::now();
            cycles = deadlock_potential(&reg.input, 3).len();
            ms[2] = t0.elapsed().as_secs_f64() * 1e3;
            ms
        });
        total += d3.median;
        println!(
            "adtcheck {name:11} d2 {:7} scheds {d2:>4.1} ms  d3 {:7} scheds {d3:>5.1} ms  \
             waits {waits:>4.1} ms ({cycles} cycles)",
            scheds[0], scheds[1]
        );
    }
    println!("adtcheck total soundness @ depth 3: {total:.1} ms (sum of medians)");
    println!();
}

/// The always-on metric hot paths. A grant is one cached `Counter::inc`;
/// a WAL append adds one inc plus (per batch) a `Histogram::observe` —
/// these ns/op numbers bound the instrumentation's share of a commit for
/// BENCH.md's ≤2% budget.
fn obs_primitives(reps: usize) {
    let reg = hcc_obs::Registry::new();
    let c = reg.counter("probe.counter");
    let h = reg.histogram("probe.hist");
    let n = 4_000_000u64;
    let [inc, observe, contended, snapshot] = measure(reps, |_| {
        let t0 = Instant::now();
        for _ in 0..n {
            c.inc();
        }
        let inc_ns = t0.elapsed().as_nanos() as f64 / n as f64;
        let t1 = Instant::now();
        for i in 0..n {
            h.observe(i);
        }
        let observe_ns = t1.elapsed().as_nanos() as f64 / n as f64;
        // Contended: 8 threads on one shared counter (the sharding's job).
        let t2 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..n / 8 {
                        c.inc();
                    }
                });
            }
        });
        let contended_ns = t2.elapsed().as_nanos() as f64 / n as f64;
        let snaps = 1_000u32;
        let t3 = Instant::now();
        for _ in 0..snaps {
            std::hint::black_box(reg.snapshot());
        }
        [inc_ns, observe_ns, contended_ns, t3.elapsed().as_micros() as f64 / f64::from(snaps)]
    });
    println!(
        "obs: counter.inc {inc:.1} ns, histogram.observe {observe:.1} ns, \
         counter.inc@8thr {contended:.1} ns/op, snapshot {snapshot:.1} us"
    );
}
