//! Banking workloads: single-account operation mixes (E8) and
//! multi-account transfers with deadlock potential (E13).

use crate::metrics::Metrics;
use crate::queue::bench_options;
use crate::scheme::{make_account, Scheme};
use hcc_spec::Rational;
use hcc_txn::TxnManager;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Operation mix for [`account_mix`], in percent (must sum to 100).
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Percentage of credits.
    pub credit_pct: u32,
    /// Percentage of debits.
    pub debit_pct: u32,
    /// Percentage of interest postings.
    pub post_pct: u32,
    /// Of the debits, the percentage deliberately exceeding the balance
    /// (overdraft attempts) — Table V makes these the expensive ones.
    pub overdraft_pct: u32,
}

impl Mix {
    /// The paper-motivated default: mostly credits/debits, occasional
    /// posting, rare overdrafts ("a significant cost if attempted
    /// overdrafts were infrequent").
    pub fn standard() -> Mix {
        Mix { credit_pct: 45, debit_pct: 45, post_pct: 10, overdraft_pct: 5 }
    }

    /// A mix with the given overdraft rate among debits.
    pub fn with_overdraft(pct: u32) -> Mix {
        Mix { overdraft_pct: pct, ..Mix::standard() }
    }
}

/// E8: `threads` workers run `txns_per_thread` transactions of
/// `ops_per_txn` operations drawn from `mix` against one shared account.
pub fn account_mix(
    scheme: Scheme,
    threads: usize,
    txns_per_thread: usize,
    ops_per_txn: usize,
    mix: Mix,
) -> Metrics {
    assert_eq!(mix.credit_pct + mix.debit_pct + mix.post_pct, 100, "mix must sum to 100");
    let mgr = TxnManager::new();
    let acct = Arc::new(make_account(scheme, "acct", bench_options(&mgr)));
    // Pre-fund generously so ordinary debits succeed.
    {
        let t = mgr.begin();
        acct.credit(&t, Rational::from_int(1_000_000)).unwrap();
        mgr.commit(t).unwrap();
    }
    let aborted = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(threads));
    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..threads {
            let (mgr, acct, aborted) = (mgr.clone(), acct.clone(), aborted.clone());
            let barrier = barrier.clone();
            s.spawn(move || {
                barrier.wait();
                let mut rng = StdRng::seed_from_u64(0xACC0 + w as u64);
                for _ in 0..txns_per_thread {
                    'retry: loop {
                        let t = mgr.begin();
                        for _ in 0..ops_per_txn {
                            let dice = rng.gen_range(0..100u32);
                            let res = if dice < mix.credit_pct {
                                acct.credit(&t, Rational::from_int(rng.gen_range(1..50)))
                                    .map(|_| ())
                            } else if dice < mix.credit_pct + mix.debit_pct {
                                let amt = if rng.gen_range(0..100) < mix.overdraft_pct {
                                    // Guaranteed overdraft: far above any
                                    // reachable balance, small enough for
                                    // exact-rational cross-multiplication.
                                    Rational::from_int(1_000_000_000_000)
                                } else {
                                    Rational::from_int(rng.gen_range(1..50))
                                };
                                acct.debit(&t, amt).map(|_| ())
                            } else {
                                // 0% interest: Post's lock behaviour is
                                // value-independent, and a non-unit
                                // multiplier compounded over millions of
                                // operations would overflow the exact
                                // rationals the oracle tests rely on.
                                acct.post(&t, Rational::ZERO).map(|_| ())
                            };
                            if res.is_err() {
                                mgr.abort(t);
                                aborted.fetch_add(1, Ordering::Relaxed);
                                continue 'retry;
                            }
                            // Encourage interleaving on low core counts.
                            std::thread::yield_now();
                        }
                        if mgr.commit(t).is_ok() {
                            break;
                        }
                        aborted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let snap = mgr.metrics().snapshot();
    Metrics {
        scenario: "account-mix".into(),
        scheme,
        threads,
        committed: mgr.committed_count() - 1, // exclude funding txn
        aborted: aborted.load(Ordering::Relaxed),
        conflicts: snap.sum_prefix("lock.refusals."),
        waits: snap.sum_prefix("lock.waits."),
        elapsed: start.elapsed(),
    }
}

/// E13-style transfers: `threads` workers move money between random pairs
/// of `n_accounts` accounts. Opposite-order transfers can deadlock; the
/// detector resolves them and the driver retries.
pub fn transfers(
    scheme: Scheme,
    n_accounts: usize,
    threads: usize,
    txns_per_thread: usize,
) -> TransferReport {
    let mgr = TxnManager::new();
    let accounts: Vec<_> = (0..n_accounts)
        .map(|i| Arc::new(make_account(scheme, &format!("acct-{i}"), bench_options(&mgr))))
        .collect();
    // Fund each account with 1000.
    for a in &accounts {
        let t = mgr.begin();
        a.credit(&t, Rational::from_int(1000)).unwrap();
        mgr.commit(t).unwrap();
    }
    let aborted = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(threads));
    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..threads {
            let (mgr, accounts, aborted) = (mgr.clone(), accounts.clone(), aborted.clone());
            let barrier = barrier.clone();
            s.spawn(move || {
                barrier.wait();
                let mut rng = StdRng::seed_from_u64(0xBA4C + w as u64);
                for _ in 0..txns_per_thread {
                    loop {
                        let from = rng.gen_range(0..accounts.len());
                        let mut to = rng.gen_range(0..accounts.len());
                        if to == from {
                            to = (to + 1) % accounts.len();
                        }
                        let amt = Rational::from_int(rng.gen_range(1..20));
                        let t = mgr.begin();
                        std::thread::yield_now();
                        let ok = accounts[from]
                            .debit(&t, amt)
                            .and_then(|debited| {
                                if debited {
                                    accounts[to].credit(&t, amt).map(|_| true)
                                } else {
                                    Ok(false) // overdraft: commit the refusal
                                }
                            })
                            .is_ok();
                        if ok && mgr.commit(t.clone()).is_ok() {
                            break;
                        }
                        mgr.abort(t);
                        aborted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let total: Rational =
        accounts.iter().map(|a| a.committed_balance()).fold(Rational::ZERO, |acc, b| acc + b);
    // One registry covers all the accounts: the manager's metrics already
    // sum refusals/waits across every object it built options for.
    let snap = mgr.metrics().snapshot();
    TransferReport {
        metrics: Metrics {
            scenario: "bank-transfers".into(),
            scheme,
            threads,
            committed: mgr.committed_count() - n_accounts as u64,
            aborted: aborted.load(Ordering::Relaxed),
            conflicts: snap.sum_prefix("lock.refusals."),
            waits: snap.sum_prefix("lock.waits."),
            elapsed: start.elapsed(),
        },
        total_balance: total,
        deadlock_victims: mgr.detector().victims(),
        expected_balance: Rational::from_int(1000 * n_accounts as i64),
    }
}

/// Result of [`transfers`], including the money-conservation check.
#[derive(Clone, Debug)]
pub struct TransferReport {
    /// Throughput metrics.
    pub metrics: Metrics,
    /// Sum of all committed balances after the run.
    pub total_balance: Rational,
    /// Expected sum (initial funding) — transfers conserve money.
    pub expected_balance: Rational,
    /// Deadlock victims chosen by the detector.
    pub deadlock_victims: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn account_mix_commits_everything() {
        let m = account_mix(Scheme::Hybrid, 4, 25, 3, Mix::standard());
        assert_eq!(m.committed, 100);
    }

    /// One deterministic interleaving on one account: `t1` credits,
    /// then `t2` posts interest while `t1` is still active, as a single
    /// non-blocking attempt. Returns whether the post was granted, and
    /// the lock grant and refusal totals.
    fn credit_then_concurrent_post(scheme: Scheme) -> (bool, u64, u64) {
        use hcc_adts::account::AccountInv;
        use hcc_core::runtime::TryExecOutcome;

        let mgr = TxnManager::new();
        let acct = make_account(scheme, "acct", mgr.object_options());
        let (t1, t2) = (mgr.begin(), mgr.begin());
        acct.credit(&t1, Rational::from_int(5)).unwrap();
        let post = acct.inner().try_execute(&t2, &AccountInv::Post(Rational::ZERO)).unwrap();
        let granted = matches!(post, TryExecOutcome::Executed(_));
        mgr.commit(t1).unwrap();
        mgr.commit(t2).unwrap();
        let snap = mgr.metrics().snapshot();
        (granted, snap.sum_prefix("lock.grants."), snap.sum_prefix("lock.refusals."))
    }

    #[test]
    fn hybrid_beats_rw_on_conflicts() {
        // Table V: Credit and Post do not conflict, so hybrid grants the
        // post beside the active credit; rw-2pl sees two writes.
        assert_eq!(credit_then_concurrent_post(Scheme::Hybrid), (true, 2, 0));
        assert_eq!(credit_then_concurrent_post(Scheme::Rw2pl), (false, 1, 1));
    }

    #[test]
    fn transfers_conserve_money() {
        let r = transfers(Scheme::Hybrid, 4, 4, 10);
        assert_eq!(r.total_balance, r.expected_balance);
        assert_eq!(r.metrics.committed, 40);
    }

    #[test]
    #[should_panic(expected = "mix must sum to 100")]
    fn bad_mix_is_rejected() {
        account_mix(
            Scheme::Hybrid,
            1,
            1,
            1,
            Mix { credit_pct: 50, debit_pct: 50, post_pct: 50, overdraft_pct: 0 },
        );
    }
}
