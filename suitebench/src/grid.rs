//! The three benchmark grids and the timed pass over them.
//!
//! Every grid runs through [`SuiteRunner`] with one worker on an
//! explicitly built platform, exactly the path `sgxgauge suite` takes.
//! Host time is read from outside: a [`Timed`] wrapper stamps each call
//! into [`Workload::setup`] and [`Workload::execute`].

use sgxgauge_core::{
    Env, EnvConfig, ExecMode, InputSetting, RunReport, RunnerConfig, SuiteRunner, Workload,
    WorkloadError, WorkloadOutput, WorkloadSpec,
};
use sgxgauge_workloads::{suite_scaled, BTree, Bfs, HashJoin, OpenSsl, PageRank};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One benchmark workload: a fixed grid of suite cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// All ten suite workloads at 1/64 inputs × LibOS × High: dominated
    /// by the 4 GB LibOS enclave build.
    LibosLaunch,
    /// BFS, OpenSSL and HashJoin at paper scale × Native × High: working
    /// sets above the EPC, so the access path pages.
    EpcPaging,
    /// BTree and PageRank at 1/4 inputs × {Vanilla, Native} × Low:
    /// working sets far below the EPC, so the access path never pages.
    ResidentHotpath,
}

/// Input and platform size of a grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration: the paper platform (92 MB EPC, 4 GB
    /// LibOS manifest) and the inputs named on [`Bench`].
    Paper,
    /// A reduced configuration for the benchmark's own tests: the
    /// quick-test platform and heavily scaled inputs.
    Smoke,
}

impl Bench {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Bench; 3] = [Bench::LibosLaunch, Bench::EpcPaging, Bench::ResidentHotpath];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Bench::LibosLaunch => "libos-launch",
            Bench::EpcPaging => "epc-paging",
            Bench::ResidentHotpath => "resident-hotpath",
        }
    }

    /// Parses a command-line workload name.
    pub fn from_name(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The suite workloads of the grid. Their inputs are fixed by
    /// `crates/workloads`; no benchmark seed reaches them.
    pub fn workloads(self, scale: Scale) -> Vec<Box<dyn Workload>> {
        let d = match scale {
            Scale::Paper => 1,
            Scale::Smoke => 256,
        };
        match self {
            Bench::LibosLaunch => suite_scaled(64 * d),
            Bench::EpcPaging if d == 1 => vec![
                Box::new(Bfs::new()),
                Box::new(OpenSsl::new()),
                Box::new(HashJoin::new()),
            ],
            Bench::EpcPaging => vec![
                Box::new(Bfs::scaled(d)),
                Box::new(OpenSsl::scaled(d)),
                Box::new(HashJoin::scaled(d)),
            ],
            Bench::ResidentHotpath => vec![
                Box::new(BTree::scaled(4 * d)),
                Box::new(PageRank::scaled(4 * d)),
            ],
        }
    }

    /// The execution modes of the grid.
    pub fn modes(self) -> &'static [ExecMode] {
        match self {
            Bench::LibosLaunch => &[ExecMode::LibOs],
            Bench::EpcPaging => &[ExecMode::Native],
            Bench::ResidentHotpath => &[ExecMode::Vanilla, ExecMode::Native],
        }
    }

    /// The input setting of the grid.
    pub fn setting(self) -> InputSetting {
        match self {
            Bench::ResidentHotpath => InputSetting::Low,
            _ => InputSetting::High,
        }
    }
}

/// The platform template every cell is built from. Built here rather
/// than through the CLI's `--scale` flag, so a change to that flag
/// cannot change what is measured.
pub fn platform(scale: Scale) -> EnvConfig {
    match scale {
        Scale::Paper => EnvConfig::paper(ExecMode::Vanilla, 0),
        Scale::Smoke => EnvConfig::quick_test(ExecMode::Vanilla),
    }
}

/// Which timed workload call a [`Stamp`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Setup,
    Execute,
    /// A sample of the reference kernel, taken after `execute`.
    Calibrate,
}

/// Host time of one timed call.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    workload: usize,
    mode: ExecMode,
    call: Call,
    took: Duration,
    end: Instant,
}

/// Delegates to a suite workload, stamping the host time of `setup` and
/// `execute`. The stamps are the only host measurement; the simulated
/// run is untouched.
struct Timed<'a> {
    index: usize,
    inner: &'a dyn Workload,
    stamps: &'a Mutex<Vec<Stamp>>,
}

impl Timed<'_> {
    fn stamp(&self, mode: ExecMode, call: Call, start: Instant) -> Duration {
        let end = Instant::now();
        let took = end - start;
        self.stamps
            .lock()
            .expect("stamp lock is never held across a panic")
            .push(Stamp {
                workload: self.index,
                mode,
                call,
                took,
                end,
            });
        took
    }
}

impl Workload for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn property(&self) -> &'static str {
        self.inner.property()
    }

    fn supported_modes(&self) -> &'static [ExecMode] {
        self.inner.supported_modes()
    }

    fn spec(&self, setting: InputSetting) -> WorkloadSpec {
        self.inner.spec(setting)
    }

    fn setup(&self, env: &mut Env, setting: InputSetting) -> Result<(), WorkloadError> {
        let start = Instant::now();
        let out = self.inner.setup(env, setting);
        self.stamp(env.mode(), Call::Setup, start);
        out
    }

    fn execute(
        &self,
        env: &mut Env,
        setting: InputSetting,
    ) -> Result<WorkloadOutput, WorkloadError> {
        let start = Instant::now();
        let out = self.inner.execute(env, setting);
        let took = self.stamp(env.mode(), Call::Execute, start);
        // One sample per started second of `execute`, so that long cells,
        // which are few per run, still give the run enough samples. Each
        // is stamped so it can be taken out of the cell's wall time again.
        for _ in 0..=took.as_secs() {
            let start = Instant::now();
            crate::calib::sample();
            self.stamp(env.mode(), Call::Calibrate, start);
        }
        out
    }
}

/// One executed cell of a timed grid pass.
#[derive(Debug)]
pub struct CellRun {
    /// `Workload/Mode/Setting`, e.g. `BFS/Native/High`.
    pub label: String,
    /// Index of the workload in the grid's workload list.
    pub index: usize,
    /// The workload's name.
    pub workload: &'static str,
    /// The cell's mode.
    pub mode: ExecMode,
    /// The run report, or the cell's error text.
    pub result: Result<RunReport, String>,
    /// Host time of `Workload::setup`, zero when it never ran.
    pub setup: Duration,
    /// Host time of `Workload::execute`, zero when it never ran.
    pub execute: Duration,
    /// Host time of the whole cell: from the end of the previous cell's
    /// last timed call (the start of the pass for the first cell) to the
    /// end of this cell's. It covers `Env::new`, `setup`, `start_app`,
    /// `execute` and the executor's bookkeeping between them; zero for a
    /// cell that failed before its first timed call.
    pub wall: Duration,
}

impl CellRun {
    /// Simulated memory operations of the measured region.
    pub fn accesses(&self) -> u64 {
        self.result
            .as_ref()
            .map_or(0, |r| r.counters.mem_reads + r.counters.mem_writes)
    }
}

/// One timed pass over a grid.
#[derive(Debug)]
pub struct GridRun {
    /// Host time of the whole `SuiteRunner::run` call, less the reference
    /// kernel's samples.
    pub wall: Duration,
    /// Cells in grid order.
    pub cells: Vec<CellRun>,
    /// Host time of each reference-kernel sample taken during the pass,
    /// after each cell's `execute` one per started second of it.
    pub calibration: Vec<Duration>,
}

impl GridRun {
    /// Summed host time of `Workload::execute`: the measured regions.
    pub fn execute(&self) -> Duration {
        self.cells.iter().map(|c| c.execute).sum()
    }

    /// Summed host time of `Workload::setup`.
    pub fn setup_calls(&self) -> Duration {
        self.cells.iter().map(|c| c.setup).sum()
    }

    /// Host time outside the measured regions: platform build (enclave
    /// build, LibOS launch), `Workload::setup` and executor bookkeeping.
    pub fn setup(&self) -> Duration {
        self.wall.saturating_sub(self.execute())
    }

    /// Host time of the pass after the last cell's last timed call: the
    /// executor assembling its report.
    pub fn tail(&self) -> Duration {
        self.wall
            .saturating_sub(self.cells.iter().map(|c| c.wall).sum())
    }

    /// Simulated memory operations over all measured regions.
    pub fn accesses(&self) -> u64 {
        self.cells.iter().map(CellRun::accesses).sum()
    }
}

/// Best-of-passes host times of a run: for each cell, and for the
/// executor's tail, the shortest time any pass took.
///
/// Other tenants of a shared host only ever add time, and how much they
/// add drifts over minutes; the shortest of several passes, taken cell by
/// cell, is the estimate of a cell's own cost that drifts least.
#[derive(Debug, Default)]
pub struct BestOf {
    /// Passes folded in.
    pub passes: usize,
    wall: Vec<Duration>,
    setup: Vec<Duration>,
    execute: Vec<Duration>,
    tail: Duration,
}

impl BestOf {
    /// Folds one pass in. Passes over one grid list their cells in the
    /// same order.
    pub fn add(&mut self, run: &GridRun) {
        let first = self.passes == 0;
        let keep = |best: &mut Vec<Duration>, f: fn(&CellRun) -> Duration| {
            if first {
                *best = run.cells.iter().map(f).collect();
            } else {
                for (b, c) in best.iter_mut().zip(&run.cells) {
                    *b = (*b).min(f(c));
                }
            }
        };
        keep(&mut self.wall, |c| c.wall);
        keep(&mut self.setup, |c| c.wall.saturating_sub(c.execute));
        keep(&mut self.execute, |c| c.execute);
        self.tail = if first {
            run.tail()
        } else {
            self.tail.min(run.tail())
        };
        self.passes += 1;
    }

    /// Summed best wall time of the cells, plus the best tail.
    pub fn wall(&self) -> Duration {
        self.wall.iter().sum::<Duration>() + self.tail
    }

    /// Summed best time of the cells outside `Workload::execute`, plus
    /// the best tail.
    pub fn setup(&self) -> Duration {
        self.setup.iter().sum::<Duration>() + self.tail
    }

    /// Summed best time of `Workload::execute`.
    pub fn execute(&self) -> Duration {
        self.execute.iter().sum()
    }
}

/// Runs `bench`'s grid once through `SuiteRunner` with one worker.
pub fn run_grid(bench: Bench, workloads: &[Box<dyn Workload>], scale: Scale) -> GridRun {
    let stamps = Mutex::new(Vec::new());
    let timed: Vec<Timed> = workloads
        .iter()
        .enumerate()
        .map(|(index, w)| Timed {
            index,
            inner: w.as_ref(),
            stamps: &stamps,
        })
        .collect();
    let refs: Vec<&dyn Workload> = timed.iter().map(|t| t as &dyn Workload).collect();
    let runner = SuiteRunner::new(RunnerConfig {
        env: platform(scale),
        repetitions: 1,
    })
    .modes(bench.modes())
    .settings(&[bench.setting()])
    .threads(1);
    let start = Instant::now();
    let report = runner.run(&refs);
    let wall = start.elapsed();
    let stamps = stamps
        .into_inner()
        .expect("stamp lock is never held across a panic");
    let time_of = |workload: usize, mode: ExecMode, call: Call| -> Duration {
        stamps
            .iter()
            .filter(|s| s.workload == workload && s.mode == mode && s.call == call)
            .map(|s| s.took)
            .sum()
    };
    // With one worker the cells run one after another, so each cell's
    // wall time runs from the previous cell's last stamp to its own.
    let end_of = |workload: usize, mode: ExecMode| -> Option<Instant> {
        stamps
            .iter()
            .filter(|s| s.workload == workload && s.mode == mode)
            .map(|s| s.end)
            .max()
    };
    let mut ends: Vec<Instant> = report
        .cells
        .iter()
        .filter_map(|c| end_of(c.cell.workload, c.cell.mode))
        .collect();
    ends.sort();
    let wall_of = |workload: usize, mode: ExecMode| -> Duration {
        end_of(workload, mode).map_or(Duration::ZERO, |end| {
            let before = ends.iter().rev().find(|&&e| e < end).copied();
            (end - before.unwrap_or(start)).saturating_sub(time_of(workload, mode, Call::Calibrate))
        })
    };
    let cells = report
        .cells
        .into_iter()
        .map(|c| {
            let (w, mode) = (c.cell.workload, c.cell.mode);
            CellRun {
                label: format!("{}/{mode}/{}", c.workload, c.cell.setting),
                index: w,
                workload: c.workload,
                mode,
                setup: time_of(w, mode, Call::Setup),
                execute: time_of(w, mode, Call::Execute),
                wall: wall_of(w, mode),
                result: c.result.map_err(|e| e.to_string()),
            }
        })
        .collect();
    let calibration: Vec<Duration> = stamps
        .iter()
        .filter(|s| s.call == Call::Calibrate)
        .map(|s| s.took)
        .collect();
    GridRun {
        wall: wall.saturating_sub(calibration.iter().sum()),
        cells,
        calibration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(wall: u64, cells: &[(u64, u64)]) -> GridRun {
        let ms = Duration::from_millis;
        GridRun {
            wall: ms(wall),
            cells: cells
                .iter()
                .enumerate()
                .map(|(index, &(cell_wall, execute))| CellRun {
                    label: format!("W{index}/Vanilla/Low"),
                    index,
                    workload: "W",
                    mode: ExecMode::Vanilla,
                    result: Err("not run".to_string()),
                    setup: Duration::ZERO,
                    execute: ms(execute),
                    wall: ms(cell_wall),
                })
                .collect(),
            calibration: Vec::new(),
        }
    }

    #[test]
    fn best_of_takes_each_cell_and_the_tail_from_its_fastest_pass() {
        let mut best = BestOf::default();
        best.add(&pass(1_000, &[(300, 200), (600, 500)]));
        best.add(&pass(1_100, &[(400, 150), (550, 500)]));
        assert_eq!(best.passes, 2);
        let ms = Duration::from_millis;
        // Tails: 100 and 150 ms.
        assert_eq!(best.wall(), ms(300 + 550 + 100));
        assert_eq!(best.execute(), ms(150 + 500));
        // Cell times outside execute: min(100, 250) + min(100, 50).
        assert_eq!(best.setup(), ms(100 + 50 + 100));
    }

    #[test]
    fn cell_walls_cover_the_pass_and_leave_out_the_kernel_samples() {
        let run = run_grid(
            Bench::ResidentHotpath,
            &Bench::ResidentHotpath.workloads(Scale::Smoke),
            Scale::Smoke,
        );
        assert!(run.calibration.len() >= run.cells.len());
        let cells: Duration = run.cells.iter().map(|c| c.wall).sum();
        assert!(cells <= run.wall);
        for c in &run.cells {
            assert!(c.wall >= c.setup + c.execute, "{}", c.label);
        }
    }
}
