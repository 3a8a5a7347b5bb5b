//! Shared plumbing for the figure/table reproduction benches.
//!
//! Every bench target in `benches/` regenerates one table or figure of
//! the SGXGauge paper: it runs the relevant workloads through the
//! [`sgxgauge_core::Runner`], prints the paper-style rows, and writes a
//! CSV under `target/gauge-results/`. Absolute cycle counts are from the
//! simulator, not the authors' Xeon — the claims under reproduction are
//! the *shapes* (who wins, where the EPC cliff falls, how LibOS compares
//! to Native).
//!
//! Scale: set `SGXGAUGE_SCALE=<divisor>` (an integer in `1..=512`) to
//! shrink every input and the platform by that factor for a smoke run:
//! [`paper_env`] is [`EnvConfig::paper_scaled`], so the EPC, its reserved
//! share, the Native enclave content and the LibOS enclave shrink with
//! the inputs and Low/High keep their side of the EPC boundary. The
//! default (`1`) is paper scale, the 92 MB EPC platform of Table 3. Any
//! other value stops the bench with the parser's message. The quick-test
//! EPC is only used by unit tests, never here.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use sgxgauge_core::report::ReportTable;
use sgxgauge_core::sweep::SweepReport;
use sgxgauge_core::{
    parse_scale, EnvConfig, ExecMode, InputSetting, RunReport, Runner, RunnerConfig, SuiteRunner,
    Workload,
};
use std::path::PathBuf;

/// The input/platform divisor, from `SGXGAUGE_SCALE` (default 1).
///
/// # Panics
///
/// Panics with [`parse_scale`]'s message when the variable is set to
/// anything but an integer in its range: a typo must not turn a smoke
/// run into a paper-scale one.
pub fn scale() -> u64 {
    scale_from(std::env::var("SGXGAUGE_SCALE").ok().as_deref())
}

fn scale_from(var: Option<&str>) -> u64 {
    var.map_or(1, |s| {
        parse_scale(s).unwrap_or_else(|e| panic!("SGXGAUGE_SCALE: {e}"))
    })
}

/// Directory the CSV artifacts land in: `<target>/gauge-results` of the
/// workspace (bench binaries run with their package as CWD, so the
/// workspace root is resolved relative to this crate's manifest).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(dir).join("gauge-results");
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join("gauge-results")
}

/// A paper-faithful runner (92 MB EPC, 4 GB LibOS enclaves, 1 rep —
/// the simulator is deterministic, so repetitions only matter when a
/// bench wants run-to-run structure), on the [`paper_env`] platform.
pub fn paper_runner() -> Runner {
    Runner::new(RunnerConfig {
        env: paper_env(ExecMode::Vanilla),
        repetitions: 1,
    })
}

/// The environment template behind [`paper_runner`], for benches that
/// need mode-specific variants (switchless, protected files): the paper
/// platform shrunk by [`scale`], the divisor the benches also apply to
/// their inputs ([`EnvConfig::paper_scaled`]).
pub fn paper_env(mode: ExecMode) -> EnvConfig {
    EnvConfig::paper_scaled(mode, scale())
}

/// A paper-faithful [`SuiteRunner`] over `modes` × `settings`: the
/// parallel analogue of [`paper_runner`], one worker per core.
pub fn paper_sweep(modes: &[ExecMode], settings: &[InputSetting]) -> SuiteRunner {
    SuiteRunner::new(RunnerConfig {
        env: paper_env(ExecMode::Vanilla),
        repetitions: 1,
    })
    .modes(modes)
    .settings(settings)
}

/// Fans `workloads` × `modes` × `settings` across OS threads and returns
/// the grid-ordered sweep. Figure harnesses use this instead of nested
/// `run_once` loops: the results are identical (each cell still owns a
/// private simulator), only the wall clock shrinks.
pub fn run_grid(
    workloads: &[Box<dyn Workload>],
    modes: &[ExecMode],
    settings: &[InputSetting],
) -> SweepReport {
    let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    paper_sweep(modes, settings).run(&refs)
}

/// The report of grid cell (`workload` index, `mode`, `setting`), first
/// repetition.
///
/// # Panics
///
/// Panics with the cell's error when the run failed or the cell is not in
/// the sweep — figure harnesses treat missing data as fatal.
pub fn expect_report(
    sweep: &SweepReport,
    workload: usize,
    mode: ExecMode,
    setting: InputSetting,
) -> &RunReport {
    let cell = sweep
        .cells
        .iter()
        .find(|c| {
            c.cell.workload == workload
                && c.cell.mode == mode
                && c.cell.setting == setting
                && c.cell.rep == 0
        })
        .unwrap_or_else(|| panic!("cell ({workload}, {mode}, {setting}) not in sweep"));
    match &cell.result {
        Ok(r) => r,
        Err(e) => panic!("{} in {mode} at {setting}: {e}", cell.workload),
    }
}

/// Prints the bench banner.
pub fn banner(id: &str, paper_claim: &str) {
    println!();
    println!("================================================================");
    println!("SGXGauge reproduction :: {id}");
    println!("Paper claim: {paper_claim}");
    println!("Scale divisor: {} (SGXGAUGE_SCALE)", scale());
    println!("================================================================");
}

/// Prints a table and writes its CSV; the file name is `<id>.csv`.
pub fn emit(id: &str, table: &ReportTable) {
    println!("{table}");
    let path = results_dir().join(format!("{id}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("[csv] {}", path.display()),
        Err(e) => eprintln!("[csv] failed to write {}: {e}", path.display()),
    }
}

/// Formats a ratio like the paper ("2.0x").
pub fn fx(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a count like the paper ("21.5 K").
pub fn fk(v: u64) -> String {
    sgxgauge_core::report::humanize(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_one() {
        std::env::remove_var("SGXGAUGE_SCALE");
        assert_eq!(scale(), 1);
        assert_eq!(scale_from(Some("64")), 64);
    }

    #[test]
    fn bad_scale_stops_the_bench_instead_of_running_paper_scale() {
        for bad in ["0", "abc", "-4", "513"] {
            let err = std::panic::catch_unwind(|| scale_from(Some(bad)))
                .expect_err("a bad SGXGAUGE_SCALE must panic");
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert_eq!(
                *msg,
                format!("SGXGAUGE_SCALE: {}", parse_scale(bad).unwrap_err())
            );
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fx(2.0), "2.00x");
        assert_eq!(fk(21_500), "21.5 K");
    }
}
