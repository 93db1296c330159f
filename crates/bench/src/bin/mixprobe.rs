//! Quick interactive sweep of the durable mix (the full grid lives in
//! `benches/durable_mix.rs`); kept as a binary for fast iteration:
//! `cargo run --release -p hcc-bench --bin mixprobe [reps]`.
//! Reports the best of `reps` runs per cell (default 3) — the
//! container's disk latency drifts, and max-of filters the drift out —
//! except the first line, the WAL publish layer cell, which reports the
//! median and range.
fn main() {
    use hcc_core::runtime::Durability;
    use hcc_workload::durable::{durable_account_mix, DurableMixOptions};
    let reps: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(3);
    let tmp = std::env::temp_dir();

    // WAL publish, one layer down from the mixes: Begin + 3 ops + commit
    // straight into a buffered single-stripe log, one thread. Reports
    // the median (and range) of `reps` runs, plus `write(2)` calls per
    // commit from the stripe's `wal.writes` counter.
    {
        use hcc_storage::{SegmentedWal, WalOptions};
        let txns = 20_000u64;
        let mut ns = Vec::new();
        let mut writes_per_commit = 0f64;
        for r in 0..reps.max(1) {
            let dir = tmp.join(format!("probe-wal-publish-{r}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let metrics = hcc_obs::Registry::new();
            let opts = WalOptions { durability: Durability::Buffered, ..WalOptions::default() };
            let wal = SegmentedWal::open_with_metrics(&dir, opts, &metrics).expect("open wal");
            let op = [7u8; 24];
            let t0 = std::time::Instant::now();
            for txn in 1..=txns {
                wal.append_begin(txn).expect("begin");
                for obj in 1..=3 {
                    wal.append_op(wal.reserve(), txn, obj, &op).expect("op");
                }
                wal.commit_txn(txn, txn).expect("commit");
            }
            ns.push(t0.elapsed().as_nanos() as f64 / txns as f64);
            writes_per_commit =
                metrics.snapshot().counter("wal.writes.stripe00") as f64 / txns as f64;
            drop(wal);
            let _ = std::fs::remove_dir_all(&dir);
        }
        ns.sort_by(f64::total_cmp);
        println!(
            "wal publish buffered s=1: {:7.0} ns/commit median ({:.0}..{:.0} over {} runs), \
             {writes_per_commit:.2} writes/commit",
            ns[ns.len() / 2],
            ns[0],
            ns[ns.len() - 1],
            ns.len()
        );
        println!();
    }

    for (d, group, name) in [
        (Durability::Fsync, false, "fsync/classical"),
        (Durability::Fsync, true, "fsync/group"),
        (Durability::Buffered, true, "buffered"),
    ] {
        let mut rates = Vec::new();
        for stripes in [1usize, 4, 8] {
            let mut best = 0f64;
            for r in 0..reps {
                let dir = tmp.join(format!(
                    "probe-{}-{stripes}-{r}-{}",
                    name.replace('/', "-"),
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let per = if group || d == Durability::Buffered { 100 } else { 25 };
                let rep = durable_account_mix(
                    &dir,
                    DurableMixOptions {
                        threads: 8,
                        txns_per_thread: per,
                        durability: d,
                        stripes,
                        group_commit: group,
                        checkpoint_mid_run: false,
                        ..Default::default()
                    },
                );
                best = best.max(rep.commits_per_sec);
                let _ = std::fs::remove_dir_all(&dir);
            }
            println!("{name:16} s={stripes}: {best:8.0} commits/s (best of {reps})");
            rates.push(best);
        }
        println!("{name:16} s8/s1 ratio: {:.2}x", rates[2] / rates[0]);
    }

    // Derivation cost at construction: the bounded invalidated-by search
    // each type pays on *first* construction (cached per type name
    // afterwards), plus the cost of a warm cache hit.
    {
        use hcc_relations::derive::{cached_conflict_atoms, conflict_atoms, DeriveSpec};
        use hcc_relations::tables::AdtConfig;
        println!();
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
            let t0 = std::time::Instant::now();
            let atoms = conflict_atoms(&spec);
            let cold = t0.elapsed();
            let key = format!("probe-{name}");
            cached_conflict_atoms(&key, &spec);
            let t1 = std::time::Instant::now();
            for _ in 0..1000 {
                cached_conflict_atoms(&key, &spec);
            }
            let warm = t1.elapsed() / 1000;
            println!(
                "derive {name:10} {:9.2} ms cold ({} atoms), {:6} ns per cached lookup",
                cold.as_secs_f64() * 1e3,
                atoms.len(),
                warm.as_nanos()
            );
        }
    }

    // Declarative-surface overhead: the same Counter+Set workload through
    // the hand-written twins vs the generic SpecObject path (derived
    // class-table locks, view materialization by replay).
    {
        use hcc_workload::durable::{defined_adt_mix, MixAdts};
        println!();
        for (d, name, per) in
            [(Durability::Fsync, "fsync/group", 100), (Durability::Buffered, "buffered", 400)]
        {
            for threads in [1usize, 8] {
                let best_for = |flavor: MixAdts| {
                    let mut best = 0f64;
                    for r in 0..reps {
                        let dir = tmp.join(format!(
                            "probe-adt-{}-{threads}-{flavor:?}-{r}-{}",
                            name.replace('/', "-"),
                            std::process::id()
                        ));
                        let _ = std::fs::remove_dir_all(&dir);
                        let rep = defined_adt_mix(
                            &dir,
                            DurableMixOptions {
                                threads,
                                txns_per_thread: per,
                                durability: d,
                                stripes: 1,
                                ..Default::default()
                            },
                            flavor,
                        );
                        best = best.max(rep.commits_per_sec);
                        let _ = std::fs::remove_dir_all(&dir);
                    }
                    best
                };
                let hand = best_for(MixAdts::HandWritten);
                let defined = best_for(MixAdts::Defined);
                println!(
                    "{name:16} {threads}thr adts: hand {hand:8.0}  defined {defined:8.0}  \
                     (defined/hand {:.3}x)",
                    defined / hand
                );
            }
        }
    }

    // Facade overhead: the same workload through raw begin/commit vs
    // `Db::transact` (BENCH.md target: within noise).
    use hcc_workload::durable::MixApi;
    println!();
    for (d, name, per) in
        [(Durability::Fsync, "fsync/group", 100), (Durability::Buffered, "buffered", 400)]
    {
        for threads in [1usize, 8] {
            let best_for = |api: MixApi| {
                let mut best = 0f64;
                for r in 0..reps {
                    let dir = tmp.join(format!(
                        "probe-api-{}-{threads}-{api:?}-{r}-{}",
                        name.replace('/', "-"),
                        std::process::id()
                    ));
                    let _ = std::fs::remove_dir_all(&dir);
                    let rep = durable_account_mix(
                        &dir,
                        DurableMixOptions {
                            threads,
                            txns_per_thread: per,
                            durability: d,
                            stripes: 1,
                            api,
                            ..Default::default()
                        },
                    );
                    best = best.max(rep.commits_per_sec);
                    let _ = std::fs::remove_dir_all(&dir);
                }
                best
            };
            let raw = best_for(MixApi::Raw);
            let facade = best_for(MixApi::Facade);
            println!(
                "{name:16} {threads}thr api: raw {raw:8.0}  db {facade:8.0}  (db/raw {:.3}x)",
                facade / raw
            );
        }
    }

    // Static-checking cost: what `adtcheck` pays per registered type at
    // the CI depth (3) and the quicker smoke depth (2) — the soundness
    // search dominates; deadlock-potential is timed separately. These
    // numbers size the CI job's 60 s budget in BENCH.md.
    {
        use hcc_check::{check_soundness, deadlock_potential, registry, Depth};
        println!();
        let mut total = std::time::Duration::ZERO;
        for reg in registry() {
            let mut cells = Vec::new();
            for depth in [2usize, 3] {
                let t0 = std::time::Instant::now();
                let rep = check_soundness(&reg.input, Depth::new(depth));
                let dt = t0.elapsed();
                assert!(rep.sound(), "{}: bundled table must stay sound", reg.input.name);
                if depth == 3 {
                    total += dt;
                }
                cells.push(format!(
                    "d{depth} {:7} scheds {:7.1} ms",
                    rep.schedules,
                    dt.as_secs_f64() * 1e3
                ));
            }
            let t1 = std::time::Instant::now();
            let cycles = deadlock_potential(&reg.input, 3).len();
            cells.push(format!(
                "waits {:5.1} ms ({cycles} cycles)",
                t1.elapsed().as_secs_f64() * 1e3
            ));
            println!("adtcheck {:11} {}", reg.input.name, cells.join("  "));
        }
        println!("adtcheck total soundness @ depth 3: {:.1} ms", total.as_secs_f64() * 1e3);
    }

    // Observability primitives: the always-on metric hot paths. A grant
    // is one cached `Counter::inc`; a WAL append adds one inc plus (per
    // batch) a `Histogram::observe` — these ns/op numbers bound the
    // instrumentation's share of a commit for BENCH.md's ≤2% budget.
    // The buffered s=8 cell above is the before/after comparison point.
    {
        use hcc_obs::Registry;
        use std::sync::Arc;
        println!();
        let reg = Registry::new();
        let c = reg.counter("probe.counter");
        let h = reg.histogram("probe.hist");
        let n = 4_000_000u64;
        let t0 = std::time::Instant::now();
        for _ in 0..n {
            c.inc();
        }
        let inc_ns = t0.elapsed().as_nanos() as f64 / n as f64;
        let t1 = std::time::Instant::now();
        for i in 0..n {
            h.observe(i);
        }
        let obs_ns = t1.elapsed().as_nanos() as f64 / n as f64;
        // Contended: 8 threads on one shared counter (the sharding's job).
        let t2 = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c: Arc<_> = c.clone();
                s.spawn(move || {
                    for _ in 0..n / 8 {
                        c.inc();
                    }
                });
            }
        });
        let contended_ns = t2.elapsed().as_nanos() as f64 / n as f64;
        let snaps = 1_000u32;
        let t3 = std::time::Instant::now();
        for _ in 0..snaps {
            std::hint::black_box(reg.snapshot());
        }
        let snap_us = t3.elapsed().as_micros() as f64 / f64::from(snaps);
        println!(
            "obs: counter.inc {inc_ns:.1} ns, histogram.observe {obs_ns:.1} ns, \
             counter.inc@8thr {contended_ns:.1} ns/op, snapshot {snap_us:.1} us"
        );
    }
}
