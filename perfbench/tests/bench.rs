//! The benchmark's own tests: deterministic inputs, the percentile
//! helper, and a tiny-count smoke run of every workload whose metric
//! names match `BENCHMARK.json`.

use std::path::PathBuf;

use hcc_perfbench::run::{run, Args};
use hcc_perfbench::stats::{percentile, summarize, tail_percentile};
use hcc_perfbench::workloads::{fsync_durable, hot_contended, socket_replicated, Workload};

#[test]
fn same_seed_same_operation_stream() {
    assert_eq!(fsync_durable::ops(7, 2, 1, 500), fsync_durable::ops(7, 2, 1, 500));
    assert_eq!(hot_contended::ops(7, 2, 1, 500), hot_contended::ops(7, 2, 1, 500));
    assert_eq!(socket_replicated::ops(7, 2, 1, 500), socket_replicated::ops(7, 2, 1, 500));
}

#[test]
fn seed_round_and_thread_each_change_the_stream() {
    let base = hot_contended::ops(7, 2, 1, 200);
    assert_ne!(base, hot_contended::ops(8, 2, 1, 200));
    assert_ne!(base, hot_contended::ops(7, 3, 1, 200));
    assert_ne!(base, hot_contended::ops(7, 2, 0, 200));
}

#[test]
fn generated_inputs_keep_their_shape() {
    for op in hot_contended::ops(3, 0, 0, 2000) {
        if let hot_contended::Op::Txn(txn) = op {
            let accounts: Vec<usize> = txn.accounts.iter().map(|(a, _)| *a).collect();
            assert!(!accounts.is_empty() && accounts.windows(2).all(|w| w[0] < w[1]));
            assert!(
                txn.queue.is_none_or(|item| item > 0),
                "inserted items never collide with the prefill"
            );
        }
    }
    for op in fsync_durable::ops(3, 0, 0, 2000) {
        if let fsync_durable::Op::Transfer { from, to, .. } = op {
            assert_ne!(from, to);
            assert!(from < fsync_durable::ACCOUNTS && to < fsync_durable::ACCOUNTS);
        }
    }
    let ops = socket_replicated::ops(3, 0, 0, 10_000);
    let reads = ops.iter().filter(|op| matches!(op, socket_replicated::Op::Read { .. })).count();
    assert!((7500..8500).contains(&reads), "about 80% reads, got {reads}");
}

#[test]
fn percentile_helper_reports_median_and_supported_tail() {
    let mut samples: Vec<u64> = (1..=1000).rev().collect();
    let s = summarize(&mut samples).expect("non-empty");
    assert_eq!((s.n, s.p50, s.p99, s.max), (1000, 500, 990, 1000));
    assert_eq!(s.tail_pct, Some(99.0), "p99 of 1000 has exactly ten samples beyond it");
    assert_eq!(s.tail, 990);

    let sorted: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&sorted, 50.0), 50);
    assert_eq!(percentile(&sorted, 90.0), 90);
    assert_eq!(percentile(&sorted, 100.0), 100);

    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0), "p99 of 999 has only nine beyond it");
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(19), None);
    assert!(summarize(&mut []).is_none());
}

/// The metric names `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    json.get(key)
        .and_then(|v| v.as_array())
        .expect("metric list")
        .iter()
        .map(|m| m.get("name").and_then(|n| n.as_str()).expect("name").to_string())
        .collect()
}

fn smoke(workload: Workload, trace: bool) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{trace}-{}",
        workload.name(),
        std::process::id()
    ));
    let args = Args {
        workload,
        seed: 11,
        seconds: 0.01,
        trace,
        work_dir: dir.join("work"),
        out_dir: dir.join("out"),
        round_ops: Some(400),
    };
    let outcome = run(&args).expect("run");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(outcome.correct, "{} checks failed: {:?}", workload.name(), outcome.failures);
    assert_eq!(outcome.failed, 0);
    assert_eq!(outcome.attempted, 3 * 400, "three rounds of 400 operations");
    let mut got: Vec<String> = outcome.metrics.iter().map(|m| m.name.to_string()).collect();
    let mut want = declared(if trace { "per_layer" } else { "end_to_end" });
    got.sort();
    want.sort();
    assert_eq!(got, want, "{} reports exactly the declared metrics", workload.name());
    assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
    if !trace {
        assert!(
            outcome.metrics.iter().all(|m| m.value > 0.0),
            "end-to-end metrics are never 0: {:?}",
            outcome.metrics
        );
    }
}

#[test]
fn smoke_fsync_durable() {
    smoke(Workload::FsyncDurable, false);
    smoke(Workload::FsyncDurable, true);
}

#[test]
fn smoke_hot_contended() {
    smoke(Workload::HotContended, false);
    smoke(Workload::HotContended, true);
}

#[test]
fn smoke_socket_replicated() {
    smoke(Workload::SocketReplicated, false);
    smoke(Workload::SocketReplicated, true);
}
