//! The real workspace must scan clean: this is `gauge-audit --check`
//! enforced from the tier-1 test suite, so a violation fails `cargo
//! test` even when CI's dedicated audit job is skipped.
//!
//! "Clean" means the full contract: no surviving finding from the
//! `cost-literals` rule or any semantic pass, no stale baseline entry (paid-off debt must
//! be removed), and no stale allowlist entry (`--strict` in CI).

use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/audit sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_has_no_model_lint_violations() {
    let report = audit::scan_workspace(&workspace_root()).expect("scan must succeed");
    assert!(
        report.files_checked > 50,
        "scan looked at too few files ({}) — wrong root?",
        report.files_checked
    );
    assert!(
        report.findings.is_empty(),
        "model-lint violations:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.stale_baseline.is_empty(),
        "stale baseline entries (remove them):\n{}",
        report.stale_baseline.join("\n")
    );
    assert!(
        report.stale_allow.is_empty(),
        "stale allowlist entries (matched nothing):\n{}",
        report.stale_allow.join("\n")
    );
    assert_eq!(audit::exit_code(&report, true), 0);
}

#[test]
fn semantic_suppressions_are_in_active_use() {
    // The semantic passes must actually be exercising the suppression
    // planes on the real tree: the hot-path scratch allowlist and the
    // cycle-routing manifest both exist because real code needs them.
    // If these counts drop to zero the passes silently stopped seeing
    // the workspace (wrong scope filter, parser regression, ...).
    let report = audit::scan_workspace(&workspace_root()).expect("scan must succeed");
    let hot = report
        .suppressed_by_rule
        .get("hot-path")
        .copied()
        .unwrap_or(0);
    assert!(
        hot > 0,
        "hot-path pass suppressed nothing — is the access_stream call graph empty?"
    );
    // The token rule reads the same parsed files: its one allowlisted
    // finding (mem-sim's `literal 1800`) must still be seen.
    assert_eq!(
        report.suppressed_by_rule.get("cost-literals").copied(),
        Some(1),
        "cost-literals no longer sees mem-sim/src/latency.rs literal 1800"
    );
}
