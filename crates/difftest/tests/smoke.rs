//! Differential smoke: the fixed corpus plus a short fuzz stream must be
//! clean across all five engine variants.

use mjdiff::{diff, DiffConfig};

#[test]
fn fixed_corpus_and_short_fuzz_are_clean() {
    let cfg = DiffConfig {
        fuzz: 25,
        ..DiffConfig::default()
    };
    // The energy-model invariant is exercised in tests/difftest_corpus.rs.
    let report = diff(&cfg);
    assert_eq!(report.cases + report.rejected, 29 + 25);
    assert!(
        report.clean(),
        "disagreements: {:#?}\nviolations: {:#?}",
        report.disagreements,
        report.violations
    );
    // The generator should mostly produce compilable SQL.
    assert!(
        report.rejected * 4 < 25,
        "too many rejects: {}",
        report.rejected
    );
}
