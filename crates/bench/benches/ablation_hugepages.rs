//! Ablation: TLB reach (the SGXL hypothesis).
//!
//! The paper's counters put dTLB misses and page-walk cycles at the top
//! of every ranking (Table 5), and cites SGXL — large pages for enclaves
//! — as the natural fix. 2 MB pages multiply each TLB entry's reach by
//! 512; we approximate that by scaling the TLB entry counts while
//! keeping 4 KB EPC management, and measure how much of the Native-mode
//! overhead a bigger reach recovers for the worst TLB offender.

use mem_sim::MachineConfig;
use sgxgauge_bench::{banner, emit, fx, paper_env, scale};
use sgxgauge_core::{ExecMode, InputSetting, Runner, RunnerConfig};
use sgxgauge_workloads::HashJoin;

fn run(reach: usize) -> (u64, u64, u64) {
    let mut mem = MachineConfig::default();
    mem.l1_tlb_entries *= reach;
    mem.stlb_entries *= reach;
    let mut env = paper_env(ExecMode::Vanilla);
    env.sgx.mem = mem;
    let runner = Runner::new(RunnerConfig {
        env,
        repetitions: 1,
    });
    let wl = HashJoin::scaled(scale());
    let r = runner
        .run_once(&wl, ExecMode::Native, InputSetting::High)
        .expect("run");
    (
        r.runtime_cycles,
        r.counters.dtlb_misses,
        r.counters.walk_cycles,
    )
}

fn main() {
    banner(
        "Ablation — TLB reach (huge-page approximation, SGXL)",
        "larger reach cuts walk cycles, recovering part of the SGX paging overhead",
    );
    let (base_rt, _, _) = run(1);
    let mut table = sgxgauge_core::report::ReportTable::new(
        "HashJoin (High, Native) under growing TLB reach",
        &[
            "tlb_reach",
            "runtime_cycles",
            "vs_1x",
            "dtlb_misses",
            "walk_cycles",
        ],
    );
    for (label, reach) in [
        ("4 KB pages (1x)", 1usize),
        ("8x reach", 8),
        ("64x reach", 64),
        ("512x (2 MB pages)", 512),
    ] {
        let (rt, dtlb, walk) = run(reach);
        table.push_row(vec![
            label.to_string(),
            rt.to_string(),
            fx(rt as f64 / base_rt as f64),
            dtlb.to_string(),
            walk.to_string(),
        ]);
    }
    emit("ablation_hugepages", &table);
    println!("Shape check: dTLB misses and walk cycles fall monotonically with reach;");
    println!("runtime improves but does not reach Vanilla — EPC faults remain (SGXL's point).");
}
