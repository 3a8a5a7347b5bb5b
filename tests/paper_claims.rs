//! Integration: the paper's headline qualitative claims, verified on
//! scaled-down configurations (the bench suite verifies them at paper
//! scale; these keep the claims under `cargo test`). The EPC claims run
//! on `EnvConfig::paper_scaled(d)` with inputs scaled by the same `d`,
//! so each input setting sits where the paper puts it relative to the
//! EPC.

use sgxgauge::core::{
    Env, EnvConfig, ExecMode, InputSetting, Runner, RunnerConfig, SuiteRunner, Workload, MAX_SCALE,
};
use sgxgauge::workloads::{suite_scaled, HashJoin, Iozone, Lighttpd};

/// The EPC claims' scale: paper platform and inputs, both 1/16.
const D: u64 = 16;

/// The paper platform shrunk by `d`, one repetition.
fn paper_scaled(d: u64) -> RunnerConfig {
    RunnerConfig {
        env: EnvConfig::paper_scaled(ExecMode::Vanilla, d),
        repetitions: 1,
    }
}

/// §3.2.1 / Fig 2: crossing the EPC boundary causes an abrupt jump in
/// paging counters, far beyond the workload's own growth.
#[test]
fn epc_boundary_cliff() {
    let runner = Runner::new(paper_scaled(D));
    let wl = HashJoin::scaled(D); // High > EPC > Low, as at paper scale
    let low = runner
        .run_once(&wl, ExecMode::Native, InputSetting::Low)
        .expect("low");
    let high = runner
        .run_once(&wl, ExecMode::Native, InputSetting::High)
        .expect("high");
    // Input grows 2x; evictions must grow enormously more.
    assert_eq!(low.sgx.epc_evictions, 0, "Low fits the EPC");
    assert!(
        high.sgx.epc_evictions > 500,
        "High must thrash: {}",
        high.sgx.epc_evictions
    );
    let dtlb_ratio = high.counters.dtlb_misses as f64 / low.counters.dtlb_misses.max(1) as f64;
    assert!(
        dtlb_ratio > 4.0,
        "dTLB misses must jump at the boundary: {dtlb_ratio}"
    );
}

/// Tables 2–3: at every supported scale `d`, `paper_scaled(d)` keeps the
/// EPC boundary where the paper puts it — no Native workload evicts at
/// Low, and every one that evicts at paper-scale High evicts at High.
/// Blockchain's High fits the EPC even at paper scale, so it is held to
/// Low only. `d = 4` covers HashJoin alone to keep the test fast.
#[test]
fn epc_boundary_holds_at_every_supported_scale() {
    let check = |d: u64, only: Option<&str>| {
        let workloads: Vec<Box<dyn Workload>> = suite_scaled(d)
            .into_iter()
            .filter(|w| w.supports(ExecMode::Native) && only.is_none_or(|n| w.name() == n))
            .collect();
        let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
        let sweep = SuiteRunner::new(paper_scaled(d))
            .modes(&[ExecMode::Native])
            .settings(&[InputSetting::Low, InputSetting::High])
            .run(&refs);
        assert_eq!(sweep.cells.len(), 2 * refs.len(), "d = {d}");
        for cell in &sweep.cells {
            let r = cell.result.as_ref().expect("cell runs");
            let evictions = r.sgx.epc_evictions;
            match r.setting {
                InputSetting::Low => {
                    assert_eq!(evictions, 0, "{} Low at d = {d}", r.workload)
                }
                _ if r.workload == "Blockchain" => {}
                _ => assert!(evictions > 0, "{} High at d = {d}", r.workload),
            }
        }
    };
    for d in [16, 64, MAX_SCALE] {
        check(d, None);
    }
    check(4, Some("HashJoin"));
}

/// Abstract / §5.5: the library OS does not add a significant overhead
/// over Native (≈ ±10% at matching inputs once footprints dominate).
#[test]
fn libos_close_to_native() {
    let runner = Runner::new(paper_scaled(D));
    let wl = HashJoin::scaled(D);
    let native = runner
        .run_once(&wl, ExecMode::Native, InputSetting::High)
        .expect("native");
    let libos = runner
        .run_once(&wl, ExecMode::LibOs, InputSetting::High)
        .expect("libos");
    let ratio = libos.runtime_cycles as f64 / native.runtime_cycles as f64;
    assert!(
        (0.7..1.5).contains(&ratio),
        "LibOS/Native = {ratio:.2}, expected near 1.0"
    );
}

/// §5.5: LibOS's *relative* overhead shrinks as the input grows (the
/// fixed shim costs amortize).
#[test]
fn libos_overhead_decreases_with_input() {
    let runner = Runner::new(paper_scaled(D));
    let wl = HashJoin::scaled(D);
    let ratio = |setting| {
        let n = runner
            .run_once(&wl, ExecMode::Native, setting)
            .expect("native");
        let l = runner
            .run_once(&wl, ExecMode::LibOs, setting)
            .expect("libos");
        l.runtime_cycles as f64 / n.runtime_cycles as f64
    };
    let low = ratio(InputSetting::Low);
    let high = ratio(InputSetting::High);
    assert!(
        high <= low * 1.05,
        "LibOS/Native should not grow with input: Low {low:.3} -> High {high:.3}"
    );
}

/// §5.6 / Fig 6d: switchless OCALLs cut dTLB misses and improve latency.
#[test]
fn switchless_improves_lighttpd() {
    let wl = Lighttpd::scaled(512);
    let classic = Runner::new(RunnerConfig::quick_test())
        .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
        .expect("classic");
    let mut cfg = RunnerConfig::quick_test();
    cfg.env = cfg.env.with_switchless(8);
    let switchless = Runner::new(cfg)
        .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
        .expect("switchless");

    let classic_lat = classic
        .output
        .metric("mean_latency_cycles")
        .expect("metric");
    let swl_lat = switchless
        .output
        .metric("mean_latency_cycles")
        .expect("metric");
    assert!(
        swl_lat < classic_lat,
        "switchless latency {swl_lat} !< classic {classic_lat}"
    );
    assert!(
        switchless.counters.tlb_flushes < classic.counters.tlb_flushes,
        "switchless must avoid transition TLB flushes"
    );
    assert!(switchless.sgx.switchless_ocalls > 0);
    assert_eq!(
        switchless.sgx.ocalls, 0,
        "all OCALLs should take the proxy path"
    );
}

/// Appendix E / Fig 10: protected files slow I/O dramatically, beyond
/// plain LibOS shimming — but never corrupt data.
#[test]
fn protected_files_ordering() {
    let wl = Iozone::scaled(128);
    let runner = Runner::new(RunnerConfig::quick_test());
    let vanilla = runner
        .run_once(&wl, ExecMode::Vanilla, InputSetting::Low)
        .expect("vanilla");
    let libos = runner
        .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
        .expect("libos");

    let mut pf_cfg = RunnerConfig::quick_test();
    pf_cfg.env = pf_cfg.env.with_protected_files();
    let pf = Runner::new(pf_cfg)
        .run_once(&wl, ExecMode::LibOs, InputSetting::Low)
        .expect("pf");

    assert!(vanilla.runtime_cycles < libos.runtime_cycles);
    assert!(libos.runtime_cycles < pf.runtime_cycles);
    assert_eq!(
        vanilla.output.checksum, pf.output.checksum,
        "PF must not corrupt data"
    );
    // The PF overhead over vanilla must clearly exceed plain LibOS's
    // (at paper scale Fig 10 shows ~2.1x vs ~1.3x; the quick-test
    // configuration compresses the gap, so assert the ordering with a
    // margin rather than the full factor).
    let libos_over = libos.runtime_cycles as f64 / vanilla.runtime_cycles as f64;
    let pf_over = pf.runtime_cycles as f64 / vanilla.runtime_cycles as f64;
    assert!(
        pf_over > 1.05 * libos_over,
        "PF {pf_over:.2}x vs LibOS {libos_over:.2}x"
    );
}

/// §5.4.1 / Fig 6a: a bigger enclave-size property means proportionally
/// more start-up evictions, while the workload itself is unchanged.
#[test]
fn enclave_size_drives_startup_evictions() {
    use sgxgauge::libos::Manifest;
    let evictions = |enclave_mb: u64| {
        let mut cfg = EnvConfig::quick_test(ExecMode::LibOs);
        cfg.manifest = Some(
            Manifest::builder("empty")
                .enclave_size(enclave_mb << 20)
                .internal_memory(8 << 20)
                .build(),
        );
        let env = Env::new(cfg).expect("env");
        env.libos_startup().expect("startup").epc_evictions
    };
    let small = evictions(128);
    let big = evictions(512);
    assert!(
        big > 3 * small,
        "startup evictions must scale with enclave size: {small} vs {big}"
    );
}

/// §3.2.2 / Fig 3: under SGX, Lighttpd latency grows with concurrency
/// much faster than without.
#[test]
fn concurrency_amplifies_sgx_latency() {
    let runner = Runner::new(RunnerConfig::quick_test());
    let lat = |mode, threads| {
        let wl = Lighttpd::scaled(512).with_threads(threads);
        runner
            .run_once(&wl, mode, InputSetting::Low)
            .expect("run")
            .output
            .metric("mean_latency_cycles")
            .expect("metric")
    };
    let sgx_growth = lat(ExecMode::LibOs, 16) / lat(ExecMode::LibOs, 1);
    let vanilla_growth = lat(ExecMode::Vanilla, 16) / lat(ExecMode::Vanilla, 1);
    assert!(
        sgx_growth > vanilla_growth,
        "SGX must amplify queueing: sgx {sgx_growth:.2}x vs vanilla {vanilla_growth:.2}x"
    );
}
