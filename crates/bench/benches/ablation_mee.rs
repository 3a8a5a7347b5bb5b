//! Ablation: Memory Encryption Engine latency.
//!
//! The MEE is the first of the paper's three overhead sources (§1): all
//! EPC-bound DRAM traffic is encrypted/integrity-checked in hardware.
//! This sweep varies the modeled MEE latency multiplier to show how much
//! of the *Low-setting* overhead (where no EPC faults occur) is memory
//! encryption — and how it is dwarfed by paging once the footprint
//! crosses the EPC.

use sgxgauge_bench::{banner, emit, fx, paper_env, scale};
use sgxgauge_core::{ExecMode, InputSetting, Runner, RunnerConfig};
use sgxgauge_workloads::HashJoin;

fn run(mult_x100: u64, setting: InputSetting) -> (u64, u64) {
    let mut env = paper_env(ExecMode::Vanilla);
    env.sgx.mem.latency.mee_mult_x100 = mult_x100;
    let runner = Runner::new(RunnerConfig {
        env: env.clone(),
        repetitions: 1,
    });
    let wl = HashJoin::scaled(scale());
    let native = runner
        .run_once(&wl, ExecMode::Native, setting)
        .expect("native");
    let vanilla = runner
        .run_once(&wl, ExecMode::Vanilla, setting)
        .expect("vanilla");
    (native.runtime_cycles, vanilla.runtime_cycles)
}

fn main() {
    banner(
        "Ablation — MEE latency multiplier",
        "encryption dominates sub-EPC overhead; paging dominates past the boundary",
    );
    let mut table = ReportTable::new(
        "HashJoin Native/Vanilla overhead vs MEE cost",
        &["mee_multiplier", "low_overhead", "high_overhead"],
    );
    for mult in [100u64, 200, 300, 400, 500] {
        let (ln, lv) = run(mult, InputSetting::Low);
        let (hn, hv) = run(mult, InputSetting::High);
        table.push_row(vec![
            format!("{:.1}x", mult as f64 / 100.0),
            fx(ln as f64 / lv as f64),
            fx(hn as f64 / hv as f64),
        ]);
    }
    emit("ablation_mee", &table);
    println!("Shape check: both columns scale near-linearly with the MEE multiplier —");
    println!("every LLC miss to the PRM pays it — while the High-minus-Low gap (the EPC");
    println!("paging increment) stays roughly constant. Encryption is a tax on all EPC");
    println!("traffic; the paging cliff is an *additional* cost the paper is first to stress.");
}

use sgxgauge_core::report::ReportTable;
