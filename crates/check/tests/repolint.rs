//! `repolint`'s one-handle-type ratchet, run end to end on small fake
//! repository trees: the clean shape passes, and a second (or missing)
//! impl of a handle trait is a finding.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

/// The handle glue written once, as in `hcc-adts`/`hcc-db` — one header
/// split across lines the way rustfmt splits long ones.
const OBJECT_RS: &str = "\
pub struct Object<A>(A);
impl<A: ObjectAdt> Snapshot for Object<A> {}
impl<A: ObjectAdt> hcc_storage::DurableObject for Object<A> {}
";

const HANDLE_RS: &str = "\
impl<A: ObjectAdt + Send + Sync + 'static, B: Into<String> + Clone + 'static> DbObject
    for Object<A>
{
}
";

const READ_RS: &str = "\
impl<A: ObjectAdt> ReadObject for Object<A> {}

#[cfg(test)]
mod tests {
    struct Cell;
    impl Snapshot for Cell {}
}
";

/// A fresh fake repository holding the clean shape.
fn clean_tree() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "hcc-repolint-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&root);
    write(&root, "Cargo.toml", "[workspace]\n");
    write(&root, "crates/adts/src/object.rs", OBJECT_RS);
    write(&root, "crates/db/src/handle.rs", HANDLE_RS);
    write(&root, "crates/db/src/read.rs", READ_RS);
    write(&root, "crates/core/src/runtime/horizon.rs", "");
    // Test files may implement the traits for fixtures.
    write(&root, "tests/fixture.rs", "struct F;\nimpl Snapshot for F {}\n");
    root
}

fn write(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, text).unwrap();
}

/// Run repolint in `root`: (success, stderr).
fn repolint(root: &Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repolint")).current_dir(root).output().unwrap();
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn one_impl_of_each_handle_trait_is_clean() {
    let root = clean_tree();
    let (ok, stderr) = repolint(&root);
    assert!(ok, "clean tree flagged: {stderr}");
}

#[test]
fn a_second_per_type_impl_is_a_finding() {
    let root = clean_tree();
    write(
        &root,
        "crates/adts/src/account.rs",
        "pub struct AccountObject;\nimpl Snapshot for AccountObject {\n}\n",
    );
    let (ok, stderr) = repolint(&root);
    assert!(!ok, "a second Snapshot impl must fail the lint");
    assert!(stderr.contains("2 non-test impl(s) of `Snapshot`"), "{stderr}");
    assert!(stderr.contains("crates/adts/src/account.rs:2"), "names the site: {stderr}");
    assert!(!stderr.contains("`DbObject`"), "the other traits stay clean: {stderr}");
}

#[test]
fn a_split_or_qualified_second_impl_is_a_finding() {
    let root = clean_tree();
    write(
        &root,
        "crates/db/src/extra.rs",
        "impl<K: Key + 'static, V: Val + 'static> hcc_db::ReadObject\n    for Dir<K, V>\n{\n}\n",
    );
    let (ok, stderr) = repolint(&root);
    assert!(!ok);
    assert!(stderr.contains("2 non-test impl(s) of `ReadObject`"), "{stderr}");
}

#[test]
fn a_missing_impl_is_a_finding() {
    let root = clean_tree();
    write(&root, "crates/db/src/handle.rs", "");
    let (ok, stderr) = repolint(&root);
    assert!(!ok, "the ratchet must not pass vacuously");
    assert!(stderr.contains("0 non-test impl(s) of `DbObject`"), "{stderr}");
}
