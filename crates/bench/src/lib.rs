//! # hcc-bench — the benchmark harness
//!
//! Regenerates every artifact of the paper's presentation, quantifies
//! each concurrency claim, and times the system layer by layer. Each
//! question has one binary:
//!
//! * `cargo run -p hcc-bench --bin paper_tables` — derives and prints
//!   Tables I–VI from the serial specifications, including the enumeration
//!   of the queue's two minimal dependency relations.
//! * `cargo run -p hcc-bench --release --bin experiments [--quick]` — runs
//!   the throughput/conflict experiments E7–E13 (each scheme on the queue,
//!   account, register and semiqueue, plus the E11 compaction view cost)
//!   and prints result tables.
//! * `cargo run -p hcc-bench --release --bin mixprobe [reps]` — the timing
//!   cells: WAL publish and fsync disciplines, the durable mix grid, facade
//!   and defined-ADT overhead, the read-heavy mix, the checkpoint stall,
//!   per-scheme lock overhead, derivation and `adtcheck` cost, and the obs
//!   primitives; each prints the median and min..max over `reps` runs.
//! * `cargo run -p hcc-bench --release --bin obscheck` — checks
//!   `HCC_METRICS=json` dumps read from stdin against the dump contract.

use hcc_relations::tables::{self, AdtConfig, RelationTable};

/// Derive all six paper tables, in order.
pub fn derive_all_tables() -> Vec<RelationTable> {
    vec![
        AdtConfig::file().derive_invalidated_by("Table I: Minimal Dependency Relation for File"),
        AdtConfig::queue()
            .derive_invalidated_by("Table II: First Minimal Dependency Relation for Queue"),
        derive_table_iii(),
        AdtConfig::semiqueue()
            .derive_invalidated_by("Table IV: Minimal Dependency Relation for Semiqueue"),
        AdtConfig::account()
            .derive_invalidated_by("Table V: Minimal Dependency Relation for Account"),
        AdtConfig::account()
            .derive_failure_to_commute("Table VI: \"Failure to Commute\" Relation for Account"),
    ]
}

/// Table III is found by enumerating the queue's minimal dependency
/// relations and selecting the one that is not the invalidated-by relation.
pub fn derive_table_iii() -> RelationTable {
    let cfg = AdtConfig::queue();
    let minimal = hcc_relations::minimal::minimal_dependency_relations(
        cfg.adt.as_ref(),
        &cfg.alphabet,
        &cfg.classify,
        cfg.bounds,
    );
    let table_ii = tables::paper_table_ii();
    for atoms in minimal {
        let rel = hcc_relations::minimal::atoms_to_instance_relation(
            &cfg.alphabet,
            &cfg.classify,
            &atoms,
        );
        let t = RelationTable::from_instance_relation(
            "Table III: Second Minimal Dependency Relation for Queue",
            &cfg.alphabet,
            &cfg.classify,
            &cfg.classes,
            &rel,
        );
        if t.cells != table_ii.cells {
            return t;
        }
    }
    panic!("queue's second minimal dependency relation not found");
}

/// The expected (ground-truth) tables, in the same order.
pub fn paper_tables() -> Vec<RelationTable> {
    vec![
        tables::paper_table_i(),
        tables::paper_table_ii(),
        tables::paper_table_iii(),
        tables::paper_table_iv(),
        tables::paper_table_v(),
        tables::paper_table_vi(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_derived_table_matches_the_paper() {
        for (derived, expected) in derive_all_tables().iter().zip(paper_tables()) {
            assert_eq!(derived.classes, expected.classes, "{}", expected.title);
            assert_eq!(derived.cells, expected.cells, "{}\n{}", expected.title, derived.render());
        }
    }
}
