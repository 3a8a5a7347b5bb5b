//! The traced run: per-layer host cost of one grid.
//!
//! 1. One untraced pass through `SuiteRunner`, the reference: gated on
//!    the golden digests, and the base of `trace.overhead_frac` and of
//!    the per-workload simulated counts.
//! 2. Every cell again by direct calls, in the order `Runner` makes them
//!    (`Env::new`, `Workload::setup`, `Env::start_app`,
//!    `Env::reset_measurement`, `Workload::execute`), each inside a span.
//!    The replica must reproduce the reference cell's simulated output.
//! 3. Enclave builds and LibOS launches timed alone, on fresh machines
//!    configured like the cells'. The launch must reproduce the cells'
//!    `libos_startup`.
//! 4. Vanilla twins of the Native cells, for the host cost per access of
//!    the secure access path. A twin must make as many simulated accesses
//!    as its Native cell, or the figure is reported as unresolved.
//! 5. The layer probes of `probe.rs` on streams drawn from the
//!    seed.

use crate::gate::{digest, digest_parts, Golden};
use crate::grid::{platform, run_grid, Bench, CellRun, Scale};
use crate::probe;
use crate::report::{median, Outcome};
use crate::spans::Tracer;
use libos_sim::{LibosProcess, Manifest, StartupStats};
use sgx_sim::{EnclaveId, Host, SgxConfig};
use sgxgauge_core::{Env, EnvConfig, ExecMode, InputSetting, Workload};

/// Cells whose enclave build or LibOS launch is timed alone.
const ALONE: usize = 3;

/// Host seconds of one directly replayed cell, by call.
#[derive(Debug, Clone, Copy, Default)]
struct Replica {
    env_new: f64,
    setup: f64,
    start_app: f64,
    execute: f64,
    accesses: u64,
    /// ELRANGE size and measured content of the cell's enclave.
    enclave: Option<(u64, u64)>,
}

impl Replica {
    fn total(&self) -> f64 {
        self.env_new + self.setup + self.start_app + self.execute
    }
}

/// Replays one cell by direct calls inside a `core.cell` span; returns
/// its host times and simulated-output digest.
fn replay(
    tracer: &mut Tracer,
    name: &str,
    cell: usize,
    w: &dyn Workload,
    mode: ExecMode,
    setting: InputSetting,
    platform: &EnvConfig,
) -> Result<(Replica, u64), String> {
    let span = tracer.open(name, Some(cell));
    let out = replay_calls(tracer, w, mode, setting, platform);
    tracer.close(span);
    out.map_err(|e| format!("{} {mode} replica: {e}", w.name()))
}

fn replay_calls(
    tracer: &mut Tracer,
    w: &dyn Workload,
    mode: ExecMode,
    setting: InputSetting,
    platform: &EnvConfig,
) -> Result<(Replica, u64), String> {
    let mut r = Replica::default();
    let mut cfg = platform.clone();
    cfg.mode = mode;
    cfg.protected_hint = w.spec(setting).protected_bytes;

    let span = tracer.open("core.env_new", None);
    let env = Env::new(cfg);
    r.env_new = tracer.close(span);
    let mut env = env.map_err(|e| e.to_string())?;
    if mode != ExecMode::Vanilla {
        let e = env.machine().enclave(EnclaveId(0));
        r.enclave = Some((e.size(), e.content_bytes()));
    }

    let span = tracer.open("workloads.setup", None);
    let done = w.setup(&mut env, setting);
    r.setup = tracer.close(span);
    done.map_err(|e| e.to_string())?;

    let span = tracer.open("core.start_app", None);
    let done = env.start_app();
    env.reset_measurement();
    r.start_app = tracer.close(span);
    done.map_err(|e| e.to_string())?;
    let startup = env.libos_startup();

    let span = tracer.open("workloads.execute", None);
    let out = w.execute(&mut env, setting);
    r.execute = tracer.close(span);
    let out = out.map_err(|e| e.to_string())?;

    let counters = env.machine().mem().counters();
    r.accesses = counters.mem_reads + counters.mem_writes;
    let d = digest_parts(
        env.elapsed_cycles(),
        counters,
        env.machine().sgx_counters(),
        &startup,
        &out,
    );
    Ok((r, d))
}

/// The LibOS manifest `Env::new` launches for `platform`, and the SGX
/// configuration it launches it on.
fn libos_platform(platform: &EnvConfig) -> (Manifest, SgxConfig) {
    let manifest = platform.manifest.clone().unwrap_or_else(|| {
        Manifest::builder("workload")
            .protected_files(platform.protected_files)
            .build()
    });
    let mut sgx = platform.sgx.clone();
    sgx.tcs_per_enclave = manifest.threads() + 2;
    (manifest, sgx)
}

/// One LibOS launch on a fresh machine: host seconds, pages measured,
/// and the start-up statistics.
fn launch(tracer: &mut Tracer, platform: &EnvConfig) -> Result<(f64, u64, StartupStats), String> {
    let (manifest, sgx) = libos_platform(platform);
    let mut m = Host::builder().sgx(sgx).build_machine();
    let t = m.add_thread();
    let span = tracer.open("libos.launch", None);
    let p = LibosProcess::launch(&mut m, t, &manifest);
    let secs = tracer.close(span);
    let p = p.map_err(|e| format!("LibOS launch: {e}"))?;
    Ok((secs, m.sgx_counters().pages_measured, p.startup()))
}

/// One enclave build of `shape` on a fresh machine: host seconds.
fn build(tracer: &mut Tracer, sgx: SgxConfig, (size, content): (u64, u64)) -> Result<f64, String> {
    let mut m = Host::builder().sgx(sgx).build_machine();
    m.add_thread();
    let span = tracer.open("sgx.create_enclave", None);
    let built = m.create_enclave(size, content);
    let secs = tracer.close(span);
    built
        .map(|_| secs)
        .map_err(|e| format!("enclave build: {e}"))
}

/// Probe region per `mem` level.
const MEM_LEVELS: [(&str, u64); 3] = [("hot", 32 << 10), ("llc", 8 << 20), ("dram", 64 << 20)];

/// Accesses per `mem` and per `sgx`/`core` probe stream.
fn probe_accesses(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Paper => (1 << 20, 1 << 19),
        Scale::Smoke => (1 << 12, 1 << 12),
    }
}

/// Every per-cell metric suffix `<Workload>.<Mode>` over all three grids,
/// so each traced run prints the same metric names.
fn all_cells(scale: Scale) -> Vec<String> {
    let mut out = Vec::new();
    for b in Bench::ALL {
        for w in b.workloads(scale) {
            for &m in b.modes() {
                out.push(format!("{}.{m}", w.name()));
            }
        }
    }
    out
}

/// Runs the traced variant of `bench`; returns the per-layer metrics and
/// the spans recorded on the way.
pub fn run(bench: Bench, scale: Scale, seed: u64, golden: &Golden) -> (Outcome, Tracer) {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new();
    let workloads = bench.workloads(scale);
    let platform = platform(scale);
    let setting = bench.setting();

    let reference = run_grid(bench, &workloads, scale);
    crate::tally(&mut outcome, golden, bench, &reference);

    // Direct replicas of the grid, in grid order.
    let mut replicas: Vec<Option<Replica>> = Vec::new();
    for (i, c) in reference.cells.iter().enumerate() {
        let w = workloads[c.index].as_ref();
        match replay(&mut tracer, "core.cell", i, w, c.mode, setting, &platform) {
            Ok((r, d)) => {
                if let Ok(rep) = &c.result {
                    if digest(rep) != d {
                        outcome.failures.push(format!(
                            "{}: the direct replica's simulated output differs from the suite cell's",
                            c.label
                        ));
                    }
                }
                replicas.push(Some(r));
            }
            Err(e) => {
                outcome.failures.push(e);
                replicas.push(None);
            }
        }
    }
    let grid_replicas: Vec<&Replica> = replicas.iter().flatten().collect();
    let sum = |f: fn(&Replica) -> f64| -> f64 { grid_replicas.iter().map(|r| f(r)).sum() };

    // LibOS launches and enclave builds, timed alone.
    let libos_cells: Vec<&CellRun> = reference
        .cells
        .iter()
        .filter(|c| c.mode == ExecMode::LibOs)
        .collect();
    let (mut launch_s, mut pages, mut evictions) = (Vec::new(), 0, 0);
    for c in libos_cells.iter().take(ALONE) {
        match launch(&mut tracer, &platform) {
            Ok((secs, measured, stats)) => {
                launch_s.push(secs);
                pages = measured;
                evictions = stats.epc_evictions;
                if let Ok(rep) = &c.result {
                    if rep.libos_startup != Some(stats) {
                        outcome.failures.push(format!(
                            "{}: a direct LibOS launch's start-up statistics differ from the cell's",
                            c.label
                        ));
                    }
                }
            }
            Err(e) => outcome.failures.push(e),
        }
    }
    let sgx_cfg = |mode| {
        if mode == ExecMode::LibOs {
            libos_platform(&platform).1
        } else {
            platform.sgx.clone()
        }
    };
    let mut build_s = Vec::new();
    for (c, r) in reference.cells.iter().zip(&replicas) {
        if build_s.len() == ALONE {
            break;
        }
        if let Some(shape) = r.and_then(|r| r.enclave) {
            match build(&mut tracer, sgx_cfg(c.mode), shape) {
                Ok(secs) => build_s.push(secs),
                Err(e) => outcome.failures.push(e),
            }
        }
    }
    let launch_med = median(&launch_s);
    let build_med = median(&build_s);

    // Secure-path cost: each Native cell against its Vanilla twin,
    // taken from the grid when it holds one, replayed otherwise.
    let mut twins = 0;
    let (mut delta_s, mut native_accesses, mut resolved) = (0.0, 0, true);
    for (i, c) in reference.cells.iter().enumerate() {
        let Some(native) = replicas[i].filter(|_| c.mode == ExecMode::Native) else {
            continue;
        };
        let in_grid = reference
            .cells
            .iter()
            .position(|v| v.index == c.index && v.mode == ExecMode::Vanilla);
        let twin = match in_grid {
            Some(j) => replicas[j],
            None => {
                twins += 1;
                let id = reference.cells.len() + twins - 1;
                let w = workloads[c.index].as_ref();
                match replay(
                    &mut tracer,
                    "core.twin",
                    id,
                    w,
                    ExecMode::Vanilla,
                    setting,
                    &platform,
                ) {
                    Ok((r, _)) => Some(r),
                    Err(e) => {
                        outcome.failures.push(e);
                        None
                    }
                }
            }
        };
        match twin {
            Some(t) if t.accesses == native.accesses => {
                delta_s += native.execute - t.execute;
                native_accesses += native.accesses;
            }
            _ => {
                eprintln!(
                    "suitebench: {}: the Vanilla twin's access count differs; \
                     the secure-path ns/access is unresolved",
                    c.label
                );
                resolved = false;
            }
        }
    }
    let secure_ns = if resolved && native_accesses > 0 {
        delta_s * 1e9 / native_accesses as f64
    } else {
        0.0
    };

    // Layer probes on seeded streams.
    let (mem_n, secure_n) = probe_accesses(scale);
    let mut mem_ns = Vec::new();
    for (salt, &(level, bytes)) in MEM_LEVELS.iter().enumerate() {
        let s = probe::stream(seed, salt as u64, bytes, mem_n);
        let span = tracer.open(&format!("probe.mem.{level}"), None);
        mem_ns.push(probe::mem(&s));
        tracer.close(span);
    }
    let epc = platform.sgx.epc_bytes;
    let mut secure = Vec::new();
    for (salt, (level, bytes)) in [("resident", epc / 2), ("thrash", epc / 2 * 3)]
        .into_iter()
        .enumerate()
    {
        let s = probe::stream(seed, 16 + salt as u64, bytes, secure_n);
        match probe::secure(&s, bytes, &platform, &mut tracer, level) {
            Ok(p) => secure.push(p),
            Err(e) => {
                outcome.failures.push(e);
                secure.push(probe::SecureProbe::default());
            }
        }
    }

    // Simulated counts of the reference pass.
    let reports: Vec<_> = reference
        .cells
        .iter()
        .filter_map(|c| c.result.as_ref().ok())
        .collect();
    let count = |f: fn(&sgxgauge_core::RunReport) -> u64| -> f64 {
        reports.iter().map(|r| f(r)).sum::<u64>() as f64
    };
    let accesses = reference.accesses() as f64;
    let per_kaccess = |n: f64| n * 1e3 / accesses.max(1.0);

    let o = &mut outcome;
    o.push("core.env_new_s", sum(|r| r.env_new), "s");
    // The reference pass's own setup/execute stamps, so that only the
    // two calls `SuiteRunner` hides are taken from the replicas.
    o.push(
        "core.sweep_overhead_s",
        (reference.wall - reference.setup_calls() - reference.execute()).as_secs_f64()
            - sum(|r| r.env_new + r.start_app),
        "s",
    );
    o.push("libos.launch_s", launch_med, "s");
    o.push(
        "libos.bootstrap_s",
        if launch_s.is_empty() {
            0.0
        } else {
            launch_med - build_med
        },
        "s",
    );
    o.push(
        "libos.launch_ns_per_page",
        if pages == 0 {
            0.0
        } else {
            launch_med * 1e9 / pages as f64
        },
        "ns/page",
    );
    o.push("libos.pages_measured", pages as f64, "count");
    o.push("libos.launch_evictions", evictions as f64, "count");
    o.push(
        "libos.launch_frac_of_setup",
        launch_med * libos_cells.len() as f64 / reference.setup().as_secs_f64(),
        "frac",
    );
    o.push("sgx.create_enclave_s", build_med, "s");
    let (paging, resident) = match bench {
        Bench::EpcPaging => (secure_ns, 0.0),
        Bench::ResidentHotpath => (0.0, secure_ns),
        Bench::LibosLaunch => (0.0, 0.0),
    };
    o.push("sgx.paging_ns_per_access", paging, "ns/access");
    o.push("sgx.secure_ns_per_access", resident, "ns/access");
    for (&(level, _), ns) in MEM_LEVELS.iter().zip(&mem_ns) {
        o.push(format!("mem.probe_ns.{level}"), *ns, "ns/access");
    }
    for (level, p) in ["resident", "thrash"].iter().zip(&secure) {
        o.push(format!("sgx.probe_ns.{level}"), p.sgx_ns, "ns/access");
        o.push(format!("core.env_probe_ns.{level}"), p.env_ns, "ns/access");
    }
    o.push(
        "sgx.probe_thrash_evictions",
        secure.get(1).map_or(0, |p| p.evictions) as f64,
        "count",
    );
    o.push("mem.accesses", accesses, "count");
    o.push(
        "mem.dtlb_misses_per_kaccess",
        per_kaccess(count(|r| r.counters.dtlb_misses)),
        "count/kaccess",
    );
    o.push(
        "mem.llc_misses_per_kaccess",
        per_kaccess(count(|r| r.counters.llc_misses)),
        "count/kaccess",
    );
    o.push("sgx.epc_faults", count(|r| r.sgx.epc_faults), "count");
    o.push("sgx.epc_evictions", count(|r| r.sgx.epc_evictions), "count");
    o.push("sgx.epc_loadbacks", count(|r| r.sgx.epc_loadbacks), "count");
    o.push(
        "sgx.faults_per_kaccess",
        per_kaccess(count(|r| r.sgx.epc_faults)),
        "count/kaccess",
    );
    o.push("workloads.setup_s", sum(|r| r.setup), "s");
    o.push("workloads.execute_s", sum(|r| r.execute), "s");
    o.push(
        "workloads.execute_frac_of_wall",
        sum(|r| r.execute) / sum(Replica::total),
        "frac",
    );
    for cell in all_cells(scale) {
        let hit = reference
            .cells
            .iter()
            .zip(&replicas)
            .find(|(c, _)| format!("{}.{}", c.workload, c.mode) == cell)
            .and_then(|(_, r)| *r);
        let (secs, ns) = hit.map_or((0.0, 0.0), |r| {
            (r.execute, r.execute * 1e9 / r.accesses.max(1) as f64)
        });
        o.push(format!("workloads.execute_s.{cell}"), secs, "s");
        o.push(
            format!("workloads.exec_ns_per_access.{cell}"),
            ns,
            "ns/access",
        );
    }
    let layers = tracer.self_seconds_by_layer();
    for layer in ["core", "libos", "sgx", "workloads", "probe"] {
        o.push(
            format!("layer.self_s.{layer}"),
            layers.get(layer).copied().unwrap_or(0.0),
            "s",
        );
    }
    o.push(
        "trace.overhead_frac",
        sum(|r| r.execute) / reference.execute().as_secs_f64() - 1.0,
        "frac",
    );
    o.correct = o.failures.is_empty();
    (outcome, tracer)
}
