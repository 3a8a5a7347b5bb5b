//! Host-time benchmark of the SGXGauge suite.
//!
//! Measures how much host time the simulator spends to produce the
//! suite's results, on three fixed grids ([`grid::Bench`]), while the
//! simulated results themselves are held fixed by a golden-digest gate
//! ([`gate`]). An untraced run reports the end-to-end metrics; a traced
//! run ([`traced`]) reports per-layer host cost. See `README.md`.

#![forbid(unsafe_code)]

pub mod calib;
pub mod gate;
pub mod grid;
mod probe;
pub mod report;
pub mod spans;
pub mod traced;

use gate::Golden;
use grid::{run_grid, Bench, BestOf, GridRun, Scale};
use report::Outcome;
use std::time::{Duration, Instant};

/// Grid passes an untraced run makes at least, whatever `--seconds` says,
/// so every reported figure is a median.
pub const MIN_PASSES: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The grid to run.
    pub bench: Bench,
    /// Seed of the generated inputs (the layer probes' streams).
    pub seed: u64,
    /// Host seconds to keep repeating the grid for.
    pub seconds: u64,
    /// Run the traced, per-layer variant.
    pub trace: bool,
    /// Print the grid's digests in `golden.txt` format instead of
    /// measuring.
    pub bless: bool,
}

impl Args {
    /// Parses `--workload <name> [--seed N] [--seconds N] [--trace 0|1]
    /// [--bless]`.
    ///
    /// # Errors
    ///
    /// Describes the first argument it does not understand.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut bench = None;
        let mut out = Args {
            bench: Bench::LibosLaunch,
            seed: 1,
            seconds: 10,
            trace: false,
            bless: false,
        };
        while let Some(flag) = args.next() {
            if flag == "--bless" {
                out.bless = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => {
                    bench = Some(
                        Bench::from_name(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => out.seed = number()?,
                "--seconds" => out.seconds = number()?,
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                    }
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        out.bench = bench.ok_or("--workload is required")?;
        Ok(out)
    }
}

/// Gates one grid pass into `outcome`'s attempted/failed tallies.
pub(crate) fn tally(outcome: &mut Outcome, golden: &Golden, bench: Bench, run: &GridRun) {
    let failures = golden.gate(bench.name(), run);
    outcome.attempted += run.cells.len() as u64;
    outcome.failed += failures.len() as u64;
    outcome.failures.extend(failures);
}

/// The untraced run: repeats the grid [`MIN_PASSES`] times, then for as
/// long as another pass (as long as the latest) still ends within
/// `seconds`. Each end-to-end time is the sum of per-cell bests over the
/// passes ([`BestOf`]), divided by the run's host-speed factor
/// ([`calib::host_speed`]) from the reference-kernel samples taken after
/// every cell.
pub fn untraced(bench: Bench, scale: Scale, seconds: u64, golden: &Golden) -> Outcome {
    let workloads = bench.workloads(scale);
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut took = Vec::new();
    let mut outcome = Outcome::default();
    let mut best = BestOf::default();
    let (mut accesses, mut rss) = (0, 0.0);
    let mut samples = Vec::new();
    // The first pass also faults the simulator's memory in, so the latest
    // pass predicts the next one best.
    while best.passes < MIN_PASSES
        || start.elapsed() + took.last().copied().unwrap_or_default() <= budget
    {
        let pass = Instant::now();
        let run = run_grid(bench, &workloads, scale);
        took.push(pass.elapsed());
        // Later passes can only add allocator fragmentation, whose amount
        // depends on how many passes fit in `seconds`.
        if best.passes == 0 {
            rss = report::peak_rss_mb();
            accesses = run.accesses();
        }
        tally(&mut outcome, golden, bench, &run);
        best.add(&run);
        samples.extend_from_slice(&run.calibration);
    }
    outcome.correct = outcome.failed == 0;
    // Host times divided by the host-speed factor are those of the
    // reference host, whatever the other tenants were doing meanwhile.
    let speed = calib::host_speed(&samples);
    let rate = |execute: Duration| accesses as f64 / execute.as_secs_f64().max(1e-9);
    outcome.push("wall_s", best.wall().as_secs_f64() / speed, "s");
    outcome.push("setup_s", best.setup().as_secs_f64() / speed, "s");
    outcome.push("sim_accesses_per_s", rate(best.execute()) * speed, "1/s");
    outcome.push("peak_rss_mb", rss, "MB");
    outcome.notes.push(format!(
        "best of {} passes ({} s); host-speed factor {speed:.4} from {} reference-kernel samples; \
         unscaled: wall {:.6} s, setup {:.6} s, {:.1} accesses/s",
        best.passes,
        took.iter()
            .map(|t| format!("{:.2}", t.as_secs_f64()))
            .collect::<Vec<_>>()
            .join(", "),
        samples.len(),
        best.wall().as_secs_f64(),
        best.setup().as_secs_f64(),
        rate(best.execute()),
    ));
    outcome
}

/// The grid's digests, keyed as `golden.txt` keys them.
pub fn bless(bench: Bench, scale: Scale) -> Result<Golden, String> {
    let run = run_grid(bench, &bench.workloads(scale), scale);
    let mut golden = Golden::default();
    for c in &run.cells {
        let r = c.result.as_ref().map_err(|e| format!("{}: {e}", c.label))?;
        golden.insert(gate::cell_key(bench.name(), &c.label), gate::digest(r));
    }
    Ok(golden)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&[
            "--workload",
            "epc-paging",
            "--seed",
            "9",
            "--seconds",
            "40",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.bench, Bench::EpcPaging);
        assert_eq!((a.seed, a.seconds, a.trace, a.bless), (9, 40, true, false));
        assert!(
            parse(&["--workload", "libos-launch", "--bless"])
                .unwrap()
                .bless
        );
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "epc-paging", "--trace", "2"],
            &["--workload", "epc-paging", "--seconds", "x"],
            &["--workload", "epc-paging", "--frobnicate", "1"],
            &["--workload"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
