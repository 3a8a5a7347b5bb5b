//! `gauge-audit`: the workspace model-lint pass.
//!
//! A dependency-free static analyzer that keeps the simulator honest
//! about the paper constants and accounting identities it reproduces.
//! The dynamic half of the same contract is the `audit` cargo feature of
//! `sgx-sim`/`mem-sim` (runtime invariant checks); this crate is the
//! static half, run as `cargo run -p audit -- --check --json` in CI.
//!
//! Every scanned file is parsed once ([`parser`]) into a
//! [`passes::Workspace`], and two analysis layers read it:
//!
//! * **Token rule** ([`rules`]) — `cost-literals`: a canonical cycle
//!   cost restated as an integer literal outside `sgx-sim::costs`.
//! * **Semantic passes** ([`passes`]) — a workspace call graph
//!   ([`callgraph`]) over the parsed items feeds four reachability-aware
//!   passes: determinism (`hash-iter`), cycle conservation
//!   (`cycle-routing`), hot-path purity (`hot-path`), and phase-span
//!   balance (`phase-balance`).
//!
//! The lexical bans on wall-clock reads, `unwrap`/`expect`, direct
//! `std::fs` use and truncating casts are clippy lints, not rules of
//! this crate: see DESIGN.md §8.1.
//!
//! Three suppression planes, each with stale-entry detection:
//!
//! * `crates/audit/allowlists/<rule>.allow` — individually justified
//!   exceptions, with the reason recorded in a comment. Entries that
//!   match nothing are *stale* (warn; error under `--strict`).
//! * `crates/audit/baseline/workspace.baseline` — accepted findings
//!   carried across PRs. A stale baseline entry always fails `--check`:
//!   the debt was paid, so the entry must go.
//! * `crates/audit/manifests/cycle-routing.manifest` — the reviewed
//!   list of counter-mutating functions; staleness is reported by the
//!   `cycle-routing` pass itself.
//!
//! See DESIGN.md §13 for the pass catalogue and the call-graph
//! approximation's documented false-negative edges.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod rules;

use passes::cycles::CycleManifest;
use rules::RuleContext;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (one of [`rules::ALL_RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description; allowlist/baseline substrings match
    /// against it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Result of a workspace scan.
#[derive(Debug, Clone, Default)]
pub struct ScanReport {
    /// Violations that survived the allowlists and the baseline, in
    /// (path, line, rule) order.
    pub findings: Vec<Finding>,
    /// Number of violations suppressed by allowlist entries.
    pub suppressed: usize,
    /// Number of violations suppressed by the committed baseline.
    pub baselined: usize,
    /// Suppressions (allowlist + baseline) per rule id.
    pub suppressed_by_rule: BTreeMap<String, usize>,
    /// Allowlist entries that matched no finding this scan (stale).
    pub stale_allow: Vec<String>,
    /// Baseline entries that matched no finding this scan (stale).
    pub stale_baseline: Vec<String>,
    /// Number of `.rs` files checked.
    pub files_checked: usize,
}

/// One suppression entry: findings for `rule` in files ending with
/// `path_suffix` whose message contains `substring` (empty = any) are
/// suppressed.
#[derive(Debug, Clone)]
struct AllowEntry {
    rule: String,
    path_suffix: String,
    substring: String,
}

impl AllowEntry {
    fn matches(&self, f: &Finding) -> bool {
        self.rule == f.rule
            && f.file.ends_with(&self.path_suffix)
            && (self.substring.is_empty() || f.message.contains(&self.substring))
    }

    fn describe(&self) -> String {
        if self.substring.is_empty() {
            format!("{} {}", self.rule, self.path_suffix)
        } else {
            format!("{} {} {}", self.rule, self.path_suffix, self.substring)
        }
    }
}

/// The merged allowlists of every rule.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Loads the `<rule>.allow` files in `dir`. A missing directory or
    /// file means an empty allowlist for that rule; an unreadable file,
    /// or a `.allow` file whose stem names no rule in
    /// [`rules::ALL_RULES`] (say, one left behind by a retired rule), is
    /// an error.
    pub fn load(dir: &Path) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        if !dir.exists() {
            return Ok(Allowlist { entries });
        }
        let listing =
            fs::read_dir(dir).map_err(|e| format!("reading dir {}: {e}", dir.display()))?;
        let mut files = Vec::new();
        for entry in listing {
            let path = entry
                .map_err(|e| format!("reading dir {}: {e}", dir.display()))?
                .path();
            if path.extension().is_some_and(|x| x == "allow") {
                files.push(path);
            }
        }
        files.sort();
        for path in files {
            let stem = path.file_stem().unwrap_or_default().to_string_lossy();
            let Some(rule) = rules::ALL_RULES.iter().find(|r| **r == stem) else {
                return Err(format!(
                    "{}: `{stem}` is not a gauge-audit rule (rules: {})",
                    path.display(),
                    rules::ALL_RULES.join(", ")
                ));
            };
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            entries.extend(Self::from_str_for_rule(rule, &text).entries);
        }
        Ok(Allowlist { entries })
    }

    /// Parses allowlist entries for `rule` from a string (for tests).
    pub fn from_str_for_rule(rule: &'static str, text: &str) -> Allowlist {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|line| {
                let mut parts = line.split_whitespace();
                AllowEntry {
                    rule: rule.to_string(),
                    path_suffix: parts.next().unwrap_or_default().to_string(),
                    substring: parts.collect::<Vec<_>>().join(" "),
                }
            })
            .collect();
        Allowlist { entries }
    }

    /// Whether `f` is covered by an entry.
    pub fn permits(&self, f: &Finding) -> bool {
        self.entries.iter().any(|e| e.matches(f))
    }

    fn match_index(&self, f: &Finding) -> Option<usize> {
        self.entries.iter().position(|e| e.matches(f))
    }
}

/// The committed baseline: accepted findings carried across PRs so that
/// `--check` only fails on *new* debt. One entry per line:
/// `rule path-suffix [message substring]`; `#` comments.
///
/// Unlike allowlists (justified forever-exceptions), baseline entries
/// are debt: when the underlying finding disappears, the entry is
/// *stale* and fails the scan until removed.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    entries: Vec<AllowEntry>,
}

impl Baseline {
    /// Loads the baseline from `path`; a missing file is an empty
    /// baseline.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        if !path.exists() {
            return Ok(Baseline::default());
        }
        let text =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        Ok(Self::from_str(&text))
    }

    /// Parses baseline text (for tests and [`Baseline::load`]).
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(text: &str) -> Baseline {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|line| {
                let mut parts = line.split_whitespace();
                let rule = parts.next()?.to_string();
                let path_suffix = parts.next()?.to_string();
                let substring = parts.collect::<Vec<_>>().join(" ");
                Some(AllowEntry {
                    rule,
                    path_suffix,
                    substring,
                })
            })
            .collect();
        Baseline { entries }
    }

    fn match_index(&self, f: &Finding) -> Option<usize> {
        self.entries.iter().position(|e| e.matches(f))
    }
}

/// Directories never scanned: vendored stubs, build output, VCS state.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", ".github"];

/// Recursively collects `.rs` files under `root`, skipping [`SKIP_DIRS`].
fn collect_rs_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            fs::read_dir(&dir).map_err(|e| format!("reading dir {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("reading dir {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Loads the canonical modules and builds the rule context from them.
pub fn load_context(root: &Path) -> Result<RuleContext, String> {
    let costs = root.join("crates/sgx-sim/src/costs.rs");
    let counters = root.join("crates/mem-sim/src/counters.rs");
    let costs_src =
        fs::read_to_string(&costs).map_err(|e| format!("reading {}: {e}", costs.display()))?;
    let counters_src = fs::read_to_string(&counters)
        .map_err(|e| format!("reading {}: {e}", counters.display()))?;
    let ctx = RuleContext::from_sources(&costs_src, &counters_src);
    if ctx.cost_values.is_empty() {
        return Err("no canonical cost constants found in sgx-sim::costs".to_string());
    }
    if ctx.counter_fields.is_empty() {
        return Err("no counter fields found in mem-sim::counters".to_string());
    }
    Ok(ctx)
}

/// Scans in-memory `(rel_path, source)` pairs with the `cost-literals`
/// rule and every semantic pass, then applies `allow` and `baseline`
/// with stale-entry tracking. This is the testable core of
/// [`scan_workspace`].
pub fn scan_sources(
    sources: &[(String, String)],
    ctx: &RuleContext,
    allow: &Allowlist,
    baseline: &Baseline,
    manifest: &CycleManifest,
) -> ScanReport {
    let ws = passes::Workspace::build(sources);
    let mut raw: Vec<Finding> = ws
        .files
        .iter()
        .chain(&ws.others)
        .flat_map(|f| rules::cost_literals(f, ctx))
        .collect();
    raw.extend(ws.run_passes(ctx, manifest));
    raw.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    let mut report = ScanReport {
        files_checked: sources.len(),
        ..ScanReport::default()
    };
    let mut allow_used = vec![false; allow.entries.len()];
    let mut base_used = vec![false; baseline.entries.len()];
    for f in raw {
        if let Some(i) = allow.match_index(&f) {
            allow_used[i] = true;
            report.suppressed += 1;
            *report
                .suppressed_by_rule
                .entry(f.rule.to_string())
                .or_default() += 1;
        } else if let Some(i) = baseline.match_index(&f) {
            base_used[i] = true;
            report.baselined += 1;
            *report
                .suppressed_by_rule
                .entry(f.rule.to_string())
                .or_default() += 1;
        } else {
            report.findings.push(f);
        }
    }
    report.stale_allow = allow
        .entries
        .iter()
        .zip(&allow_used)
        .filter(|(_, used)| !**used)
        .map(|(e, _)| e.describe())
        .collect();
    report.stale_baseline = baseline
        .entries
        .iter()
        .zip(&base_used)
        .filter(|(_, used)| !**used)
        .map(|(e, _)| e.describe())
        .collect();
    report
}

/// Workspace-relative path of the committed baseline.
pub const BASELINE_PATH: &str = "crates/audit/baseline/workspace.baseline";
/// Workspace-relative path of the cycle-routing manifest.
pub const MANIFEST_PATH: &str = "crates/audit/manifests/cycle-routing.manifest";

/// Loads the cycle-routing manifest from `root`; a missing file is an
/// empty manifest.
pub fn load_manifest(root: &Path) -> Result<CycleManifest, String> {
    let path = root.join(MANIFEST_PATH);
    if !path.exists() {
        return Ok(CycleManifest::default());
    }
    let text = fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(CycleManifest::parse(MANIFEST_PATH, &text))
}

/// Scans the workspace rooted at `root` with every rule and pass,
/// applying the allowlists, the committed baseline, and the
/// cycle-routing manifest.
pub fn scan_workspace(root: &Path) -> Result<ScanReport, String> {
    let ctx = load_context(root)?;
    let allow = Allowlist::load(&root.join("crates/audit/allowlists"))?;
    let baseline = Baseline::load(&root.join(BASELINE_PATH))?;
    let manifest = load_manifest(root)?;
    let mut sources = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        sources.push((rel, src));
    }
    Ok(scan_sources(&sources, &ctx, &allow, &baseline, &manifest))
}

/// Process exit code for a report under `--check` semantics.
///
/// * `0` — clean: no surviving findings, no stale baseline entries,
///   and (under `--strict`) no stale allowlist entries.
/// * `1` — violations survived the suppression planes, or the baseline
///   has stale entries (paid-off debt that must be removed), or
///   `strict` and the allowlists have stale entries.
///
/// (`2` is reserved by the CLI for usage/IO errors.)
pub fn exit_code(report: &ScanReport, strict: bool) -> i32 {
    let fail = !report.findings.is_empty()
        || !report.stale_baseline.is_empty()
        || (strict && !report.stale_allow.is_empty());
    i32::from(fail)
}

/// Renders the report as SARIF-shaped JSON (hand-rolled; the build is
/// offline and serde is not vendored). The scan-level counters that
/// SARIF has no standard slot for — per-rule suppressed counts, stale
/// suppression entries, files checked — ride in `runs[0].properties`.
pub fn to_json(report: &ScanReport) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"version\": \"2.1.0\",\n");
    s.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    s.push_str("  \"runs\": [\n    {\n");
    // tool.driver with the rule registry.
    s.push_str("      \"tool\": {\n        \"driver\": {\n");
    s.push_str("          \"name\": \"gauge-audit\",\n");
    s.push_str("          \"rules\": [");
    for (i, info) in rules::RULE_INFO.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            json_escape(info.id),
            json_escape(info.summary)
        ));
    }
    s.push_str("\n          ]\n        }\n      },\n");
    // results.
    s.push_str("      \"results\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n        {{\"ruleId\": \"{}\", \"level\": \"error\", \
             \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
            json_escape(f.rule),
            json_escape(&f.message),
            json_escape(&f.file),
            f.line
        ));
    }
    if !report.findings.is_empty() {
        s.push_str("\n      ");
    }
    s.push_str("],\n");
    // Non-standard scan counters.
    s.push_str("      \"properties\": {\n");
    s.push_str(&format!(
        "        \"filesChecked\": {},\n        \"suppressedByAllowlist\": {},\n        \
         \"suppressedByBaseline\": {},\n",
        report.files_checked, report.suppressed, report.baselined
    ));
    s.push_str("        \"suppressedByRule\": {");
    for (i, (rule, n)) in report.suppressed_by_rule.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n          \"{}\": {}", json_escape(rule), n));
    }
    if !report.suppressed_by_rule.is_empty() {
        s.push_str("\n        ");
    }
    s.push_str("},\n");
    s.push_str("        \"staleAllowlistEntries\": [");
    for (i, e) in report.stale_allow.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{}\"", json_escape(e)));
    }
    s.push_str("],\n");
    s.push_str("        \"staleBaselineEntries\": [");
    for (i, e) in report.stale_baseline.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{}\"", json_escape(e)));
    }
    s.push_str("]\n      }\n    }\n  ]\n}");
    s
}

/// Escapes a string for embedding in JSON.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]` — the scan root used when `--root` is not
/// given.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_newlines() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn exit_code_reflects_findings_and_staleness() {
        let mut r = ScanReport::default();
        assert_eq!(exit_code(&r, false), 0);
        r.stale_allow.push("cost-literals x.rs".into());
        assert_eq!(exit_code(&r, false), 0, "stale allowlist only warns");
        assert_eq!(exit_code(&r, true), 1, "--strict promotes it");
        r.stale_allow.clear();
        r.stale_baseline.push("cost-literals x.rs".into());
        assert_eq!(exit_code(&r, false), 1, "stale baseline always fails");
        r.stale_baseline.clear();
        r.findings.push(Finding {
            rule: rules::COST_LITERALS,
            file: "x.rs".into(),
            line: 1,
            message: "m".into(),
        });
        assert_eq!(exit_code(&r, false), 1);
    }

    #[test]
    fn allowlist_matches_suffix_and_substring() {
        let allow = Allowlist::from_str_for_rule(
            rules::COST_LITERALS,
            "# comment\ncrates/mem-sim/src/latency.rs literal 1800\n",
        );
        let mut f = Finding {
            rule: rules::COST_LITERALS,
            file: "crates/mem-sim/src/latency.rs".into(),
            line: 42,
            message: "cycle-cost literal 1800 duplicates sgx_sim::costs::HOST_SYSCALL_CYCLES"
                .into(),
        };
        assert!(allow.permits(&f));
        f.message = "cycle-cost literal 12000 duplicates sgx_sim::costs::EWB_CYCLES".into();
        assert!(!allow.permits(&f), "substring must match");
        f.message = "cycle-cost literal 1800 duplicates sgx_sim::costs::HOST_SYSCALL_CYCLES".into();
        f.file = "crates/sgx-sim/src/machine.rs".into();
        assert!(!allow.permits(&f), "path suffix must match");
    }

    #[test]
    fn allowlist_load_rejects_files_of_unknown_rules() {
        let dir = std::env::temp_dir().join(format!("gauge-audit-allow-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("cost-literals.allow"),
            "# reason\ncrates/mem-sim/src/latency.rs literal 1800\n",
        )
        .unwrap();
        let allow = Allowlist::load(&dir).expect("known rule loads");
        assert_eq!(allow.entries.len(), 1);
        assert_eq!(allow.entries[0].rule, rules::COST_LITERALS);
        fs::write(dir.join("wallclock.allow"), "# retired rule\n").unwrap();
        let err = Allowlist::load(&dir).expect_err("unknown rule file must fail");
        fs::remove_dir_all(&dir).ok();
        assert!(err.contains("wallclock.allow"), "{err}");
        assert!(Allowlist::load(&dir).is_ok(), "a missing dir is empty");
    }

    #[test]
    fn baseline_suppresses_and_tracks_staleness() {
        let ctx = RuleContext::from_sources(
            "pub const EWB_CYCLES: u64 = 12_000;",
            "pub struct Counters { pub epc_faults: u64 }",
        );
        let sources = vec![(
            "crates/sgx-sim/src/x.rs".to_string(),
            "fn f() -> u64 { 12_000 }".to_string(),
        )];
        let baseline = Baseline::from_str(
            "cost-literals crates/sgx-sim/src/x.rs\ncost-literals crates/sgx-sim/src/gone.rs\n",
        );
        let r = scan_sources(
            &sources,
            &ctx,
            &Allowlist::default(),
            &baseline,
            &CycleManifest::default(),
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.baselined, 1);
        assert_eq!(r.suppressed_by_rule.get("cost-literals"), Some(&1));
        assert_eq!(
            r.stale_baseline,
            vec!["cost-literals crates/sgx-sim/src/gone.rs"]
        );
        assert_eq!(exit_code(&r, false), 1, "stale baseline entry fails");
    }

    #[test]
    fn stale_allowlist_entry_is_reported_not_fatal() {
        let ctx = RuleContext::from_sources(
            "pub const EWB_CYCLES: u64 = 12_000;",
            "pub struct Counters { pub epc_faults: u64 }",
        );
        let sources = vec![(
            "crates/core/src/clean.rs".to_string(),
            "pub fn ok() -> u32 { 3 }".to_string(),
        )];
        let allow =
            Allowlist::from_str_for_rule(rules::COST_LITERALS, "crates/core/src/clean.rs\n");
        let r = scan_sources(
            &sources,
            &ctx,
            &allow,
            &Baseline::default(),
            &CycleManifest::default(),
        );
        assert_eq!(
            r.stale_allow,
            vec!["cost-literals crates/core/src/clean.rs"]
        );
        assert_eq!(exit_code(&r, false), 0);
        assert_eq!(exit_code(&r, true), 1);
    }

    #[test]
    fn sarif_json_has_rules_results_and_properties() {
        let mut r = ScanReport {
            files_checked: 2,
            ..ScanReport::default()
        };
        r.suppressed_by_rule.insert("cost-literals".into(), 3);
        r.findings.push(Finding {
            rule: rules::HASH_ITER,
            file: "crates/core/src/report.rs".into(),
            line: 7,
            message: "hash iter \"x\"".into(),
        });
        let j = to_json(&r);
        assert!(j.contains("\"version\": \"2.1.0\""));
        assert!(j.contains("\"name\": \"gauge-audit\""));
        assert!(j.contains("\"ruleId\": \"hash-iter\""));
        assert!(j.contains("\"startLine\": 7"));
        assert!(j.contains("\"suppressedByRule\""));
        assert!(j.contains("\"cost-literals\": 3"));
        // Every registered rule appears in the driver rule table.
        for rule in rules::ALL_RULES {
            assert!(j.contains(&format!("\"id\": \"{rule}\"")), "{rule} missing");
        }
    }
}
