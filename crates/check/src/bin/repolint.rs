//! `repolint` — repository-convention lints that grep-level review
//! keeps missing, run from the repo root (CI invokes it there).
//!
//! 1. **WAL discipline**: direct store appends (`publish_op`,
//!    `log_begin`, `log_commit`, `log_abort` method calls) appear only
//!    inside `crates/storage` and `crates/txn` — the store and the
//!    transaction manager / 2PC sites that own the commit protocol.
//!    Every other layer logs through the runtime's self-logging path, so
//!    a stray direct append bypasses striping, durability policy, and
//!    recovery accounting. Test files may hand-craft WAL records (torn
//!    tails, divergent logs); there are no other exemptions.
//! 2. **One handle type**: the checkpoint, recovery, `Db` and read-path
//!    glue (`Snapshot`, `DurableObject`, `DbObject`, `ReadObject`) is
//!    written once, for `hcc-adts`'s generic `Object<A>`; a data type
//!    contributes only its `ObjectAdt` impl. Each of the four traits has
//!    exactly one impl outside test code (test files, and a file's
//!    trailing `#[cfg(test)] mod`). A second impl is a per-type copy of
//!    the glue — a second checkpoint-restore path that can drift from
//!    the first; none at all means the check no longer sees the impl.
//!    Impl headers are read across line breaks, path-qualified trait
//!    names included.
//! 3. **Read-path lock freedom**: the wait-free read path
//!    (`crates/db/src/read.rs`, `crates/core/src/runtime/horizon.rs`)
//!    must exist and must never call into the transactional execution
//!    machinery — no operation execution, no lock attempts. The
//!    "zero lock acquisitions" guarantee is load-bearing API doc; this
//!    ratchet keeps a future refactor from quietly routing reads back
//!    through the lock manager.
//! 4. **Socket discipline**: the standard library's raw TCP
//!    stream/listener types appear only inside `crates/wire` — every
//!    other crate speaks through the wire crate's framed connection
//!    types, so CRC framing, payload bounds, and clean-vs-torn EOF
//!    classification cannot be bypassed by a second ad-hoc socket
//!    path.
//! 5. **Replication discipline**: `crates/repl` has *no second apply
//!    path* — a follower replays commits through the recovery path's
//!    pinned responses (`apply_replicated`), never by re-executing
//!    operations against the lock manager. The same lock-acquisition
//!    needles the read-path ratchet bans must not appear in the repl
//!    crate's sources, so a future "optimization" cannot quietly turn
//!    replay into re-execution (which would re-take locks, re-run
//!    nondeterministic choices, and diverge from the primary).
//! 6. **One replay path**: a logged payload re-enters an object only
//!    through `hcc-txn`'s `replay_object_ops` — `replay_op` method calls
//!    appear in non-test code only in `crates/txn/src/registry.rs`, so
//!    crash recovery, 2PC site recovery, `Db::open` and replication
//!    followers cannot drift apart into separate replay rules.
//!
//! Exit status 1 on any finding, listing file and line.

use std::path::{Path, PathBuf};

fn rust_files(root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(root) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            rust_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The traits whose impls ratchet 2 counts.
const HANDLE_TRAITS: [&str; 4] = ["Snapshot", "DurableObject", "DbObject", "ReadObject"];

/// The part of a source file that is not test code: everything before a
/// trailing `#[cfg(test)]` module.
fn non_test_lines(text: &str) -> Vec<&str> {
    let lines: Vec<&str> = text.lines().collect();
    let test_mod = lines
        .windows(2)
        .position(|w| w[0].trim() == "#[cfg(test)]" && w[1].trim_start().starts_with("mod "));
    lines[..test_mod.unwrap_or(lines.len())].to_vec()
}

/// Every `impl` header in `lines` (1-based line, header text up to the
/// opening brace, whitespace collapsed).
fn impl_headers(lines: &[&str]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let t = line.trim_start();
        if !(t.starts_with("impl ") || t.starts_with("impl<")) {
            continue;
        }
        let mut header = String::new();
        for l in &lines[i..] {
            header.push(' ');
            header.push_str(l.split('{').next().unwrap_or(""));
            if l.contains('{') || l.contains(';') {
                break;
            }
        }
        out.push((i + 1, header.split_whitespace().collect::<Vec<_>>().join(" ")));
    }
    out
}

/// Does this impl header implement `trait_name` (bare or path-qualified)?
fn implements(header: &str, trait_name: &str) -> bool {
    let needle = format!("{trait_name} for ");
    header
        .match_indices(&needle)
        .any(|(at, _)| matches!(header[..at].chars().last(), Some(' ' | ':' | '>')))
}

fn main() {
    let root = std::env::current_dir().expect("cwd");
    if !root.join("Cargo.toml").exists() {
        eprintln!("repolint: run from the repository root");
        std::process::exit(2);
    }
    let mut files = Vec::new();
    rust_files(&root, &mut files);
    files.sort();

    // Assembled so this linter's own source does not contain its needles.
    let wal_appends = [
        [".publish", "_op("].concat(),
        [".log", "_begin("].concat(),
        [".log", "_commit("].concat(),
        [".log", "_abort("].concat(),
    ];
    let replay_op_call = [".replay", "_op("].concat();
    let raw_sockets = [["Tcp", "Stream"].concat(), ["Tcp", "Listener"].concat()];
    // Every way code reaches the lock manager: executing an operation
    // (`.execute(` / `try_execute`) or testing a lock directly
    // (`attempt(`). Shared by the read-path ratchet (3) and the
    // replication no-second-apply-path ratchet (5).
    let lock_needles =
        [[".exec", "ute("].concat(), ["try_", "execute"].concat(), ["atte", "mpt("].concat()];

    // Test files are exempt from the WAL and replay ratchets: they
    // hand-craft records and replay divergent logs on purpose.
    let is_test = |rel: &str| rel.starts_with("tests/") || rel.contains("/tests/");

    let mut findings = Vec::new();
    let mut handle_impls: Vec<(&str, String)> = Vec::new();
    for path in &files {
        let Ok(text) = std::fs::read_to_string(path) else { continue };
        let rel = path.strip_prefix(&root).unwrap_or(path);
        let rel_s = rel.to_string_lossy().replace('\\', "/");

        if !rel_s.starts_with("crates/storage/")
            && !rel_s.starts_with("crates/txn/")
            && !is_test(&rel_s)
        {
            for (i, line) in text.lines().enumerate() {
                for needle in &wal_appends {
                    if line.contains(needle.as_str()) {
                        findings.push(format!(
                            "{rel_s}:{}: direct WAL append `{needle}` outside crates/storage \
                             and crates/txn (objects self-log through the runtime)",
                            i + 1
                        ));
                    }
                }
            }
        }

        if rel_s != "crates/txn/src/registry.rs" && !is_test(&rel_s) {
            for (i, line) in text.lines().enumerate() {
                if line.contains(&replay_op_call) {
                    findings.push(format!(
                        "{rel_s}:{}: `{replay_op_call}` outside crates/txn/src/registry.rs \
                         (replay through registry::replay_object_ops, the one replay path)",
                        i + 1
                    ));
                }
            }
        }

        if !rel_s.starts_with("crates/wire/") {
            for (i, line) in text.lines().enumerate() {
                for needle in &raw_sockets {
                    if line.contains(needle.as_str()) {
                        findings.push(format!(
                            "{rel_s}:{}: raw socket type `{needle}` outside crates/wire \
                             (use the framed hcc-wire connection instead)",
                            i + 1
                        ));
                    }
                }
            }
        }

        if rel_s.starts_with("crates/repl/src/") {
            for (i, line) in text.lines().enumerate() {
                for needle in &lock_needles {
                    if line.contains(needle.as_str()) {
                        findings.push(format!(
                            "{rel_s}:{}: lock-acquisition/execution call `{needle}` in the \
                             replication crate — followers replay through apply_replicated's \
                             pinned responses, never a second apply path",
                            i + 1
                        ));
                    }
                }
            }
        }

        if !is_test(&rel_s) {
            for (line, header) in impl_headers(&non_test_lines(&text)) {
                for trait_name in HANDLE_TRAITS {
                    if implements(&header, trait_name) {
                        handle_impls.push((trait_name, format!("{rel_s}:{line}")));
                    }
                }
            }
        }
    }

    for trait_name in HANDLE_TRAITS {
        let sites: Vec<&str> = handle_impls
            .iter()
            .filter(|(t, _)| *t == trait_name)
            .map(|(_, site)| site.as_str())
            .collect();
        if sites.len() != 1 {
            findings.push(format!(
                "{} non-test impl(s) of `{trait_name}` [{}] — exactly one is allowed, the \
                 generic one for hcc-adts's `Object<A>`; a type states its `ObjectAdt` instead",
                sites.len(),
                sites.join(", ")
            ));
        }
    }

    // The read path's lock-freedom ratchet: the read path clones
    // committed snapshots under the object latch and must never grow a
    // lock-acquisition call.
    let read_path_files = ["crates/db/src/read.rs", "crates/core/src/runtime/horizon.rs"];
    for rel_s in read_path_files {
        let Ok(text) = std::fs::read_to_string(root.join(rel_s)) else {
            findings.push(format!("{rel_s}: wait-free read path file is missing"));
            continue;
        };
        for (i, line) in text.lines().enumerate() {
            for needle in &lock_needles {
                if line.contains(needle.as_str()) {
                    findings.push(format!(
                        "{rel_s}:{}: lock-acquisition call `{needle}` on the wait-free read path",
                        i + 1
                    ));
                }
            }
        }
    }

    if findings.is_empty() {
        println!("repolint: {} files clean", files.len());
    } else {
        for f in &findings {
            eprintln!("repolint: {f}");
        }
        std::process::exit(1);
    }
}
