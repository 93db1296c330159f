//! Run the claim experiments E7–E13 and print result tables (the source of
//! the per-scheme numbers recorded in `BENCH.md`).
//!
//! ```text
//! cargo run -p hcc-bench --release --bin experiments [--quick]
//! ```

use hcc_core::machine::LockMachine;
use hcc_core::FnConflict;
use hcc_spec::specs::QueueSpec;
use hcc_spec::{ObjectId, Timestamp, TxnId};
use hcc_workload::bank::{account_mix, transfers, Mix};
use hcc_workload::compaction::account_stream;
use hcc_workload::queue::{enqueue_only, producer_consumer, semiqueue_producer_consumer};
use hcc_workload::register::register_workload;
use hcc_workload::{Metrics, Scheme};
use std::sync::Arc;
use std::time::Instant;

fn section(title: &str) {
    println!("\n=== {title} ===");
    println!("{}", Metrics::header());
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 1 } else { 4 };

    section("E7: concurrent enqueues on one FIFO queue (threads sweep)");
    for threads in [1, 2, 4, 8] {
        for scheme in Scheme::ALL {
            let m = enqueue_only(scheme, threads, 100 * scale, 8);
            println!("{}", m.row());
        }
    }

    section("E8: account operation mix (overdraft-rate sweep)");
    for od in [0, 10, 50] {
        for scheme in Scheme::ALL {
            let m = account_mix(scheme, 4, 100 * scale, 4, Mix::with_overdraft(od));
            let mut m = m;
            m.scenario = format!("account-od{od}");
            println!("{}", m.row());
        }
    }

    section("E9: register blind-write workload (write-ratio sweep)");
    for wr in [100, 50] {
        for scheme in Scheme::ALL {
            let m = register_workload(scheme, 4, 200 * scale, wr);
            println!("{}", m.row());
        }
    }

    section("E10: producer/consumer — FIFO queue vs Semiqueue (hybrid)");
    for consumers in [1, 2, 4] {
        let mut m = producer_consumer(Scheme::Hybrid, 2, consumers, 50 * scale);
        m.scenario = format!("queue-pc-c{consumers}");
        println!("{}", m.row());
        let mut m = semiqueue_producer_consumer(Scheme::Hybrid, 2, consumers, 50 * scale);
        m.scenario = format!("semiq-pc-c{consumers}");
        println!("{}", m.row());
    }

    println!("\n=== E11: Section-6 compaction (retained committed intents) ===");
    let r = account_stream(200 * scale);
    println!(
        "quiescent stream: peak retained = {} (state stays O(1) as the horizon advances)",
        r.max_retained_quiescent
    );
    println!(
        "with an old active transaction pinning the horizon: peak retained = {}",
        r.max_retained_pinned
    );
    println!("after the pinning transaction commits: retained = {}", r.samples.last().unwrap().1);
    // View cost on the formal machine after 200 committed enqueues: the
    // compacted machine answers from the folded version, the uncompacted
    // one replays every intentions list on each view.
    for compact in [true, false] {
        let views = 500 * scale as u64;
        let ns = queue_view_ns(200, compact, views);
        let label = if compact { "with" } else { "without" };
        println!("view cost {label} auto-compaction: {ns:.0} ns per deq view (200 commits)");
    }

    section("E13: multi-account transfers (deadlock detection, money conservation)");
    for scheme in Scheme::ALL {
        let r = transfers(scheme, 8, 4, 50 * scale);
        println!("{}", r.metrics.row());
        println!(
            "    money conserved: {} (expected {}), deadlock victims: {}",
            r.total_balance, r.expected_balance, r.deadlock_victims
        );
        assert_eq!(r.total_balance, r.expected_balance, "conservation violated!");
    }

    println!("\n(E12 — the Theorem 11/16/17 checks — runs in the test suite: `cargo test`)");
}

/// Mean cost of one view on a formal queue machine holding `commits`
/// committed single-enqueue transactions: a dequeue executed (assembling
/// the view) and aborted, `views` times.
fn queue_view_ns(commits: u64, compact: bool, views: u64) -> f64 {
    let conflict = FnConflict::new("queue-hybrid", |q, p| match (q.inv.op, p.inv.op) {
        ("deq", "enq") => q.res != p.inv.args[0],
        ("deq", "deq") => q.res == p.res,
        _ => false,
    });
    let mut m = LockMachine::new(ObjectId(0), Arc::new(QueueSpec), Arc::new(conflict));
    m.set_auto_compact(compact);
    for i in 1..=commits {
        m.execute(TxnId(i), QueueSpec::enq(i as i64)).unwrap();
        m.commit(TxnId(i), Timestamp(i)).unwrap();
    }
    let t0 = Instant::now();
    for t in commits + 1..=commits + views {
        m.execute(TxnId(t), QueueSpec::deq()).unwrap();
        m.abort(TxnId(t)).unwrap();
    }
    t0.elapsed().as_nanos() as f64 / views as f64
}
