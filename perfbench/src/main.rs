//! `hcc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one detail line (sample counts, tails, settings, environment)
//! and, as the last line of standard output, the result object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Exits 0 when every correctness check held, 1 when one failed, 2 on a
//! usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use hcc_perfbench::json::Obj;
use hcc_perfbench::run::{run, Args};
use hcc_perfbench::workloads::Workload;

const USAGE: &str =
    "usage: hcc-perfbench --workload <fsync_durable|hot_contended|socket_replicated> \
--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] [--out-dir <dir>]";

fn parse() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut flags = std::collections::HashMap::new();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| flags.remove(flag);
    let workload = take("--workload").ok_or("--workload is required")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let num = |v: Option<String>, flag: &str| -> Result<Option<f64>, String> {
        v.map(|s| s.parse::<f64>().map_err(|_| format!("{flag}: not a number: {s}"))).transpose()
    };
    let seed = num(take("--seed"), "--seed")?.ok_or("--seed is required")?;
    let seconds = num(take("--seconds"), "--seconds")?.ok_or("--seconds is required")?;
    let trace = match take("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let work_dir = take("--work-dir").map_or_else(
        || PathBuf::from(format!(".bench_work/{}", std::process::id())),
        PathBuf::from,
    );
    let out_dir = take("--out-dir").map_or_else(|| PathBuf::from(".bench_out"), PathBuf::from);
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    if seed < 0.0 || seconds <= 0.0 {
        return Err("--seed must be ≥ 0 and --seconds > 0".into());
    }
    Ok(Args { workload, seed: seed as u64, seconds, trace, work_dir, out_dir, round_ops: None })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&args.work_dir);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", args.workload.name());
            let failed = Obj::new().bool("correct", false).int("attempted", 0).int("failed", 0);
            println!("{}", failed.obj("metrics", Obj::new()).render());
            return ExitCode::from(1);
        }
    };
    for f in &outcome.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!(
        "{}",
        Obj::new().obj("detail", outcome.detail).strs("failures", &outcome.failures).render()
    );
    let metrics = outcome.metrics.iter().fold(Obj::new(), |o, m| {
        o.obj(m.name, Obj::new().num("value", m.value).str("unit", m.unit))
    });
    let result = Obj::new()
        .bool("correct", outcome.correct)
        .int("attempted", outcome.attempted)
        .int("failed", outcome.failed)
        .obj("metrics", metrics);
    println!("{}", result.render());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
